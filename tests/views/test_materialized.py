"""Materialized view storage and refresh."""

import pytest

from repro.core.window import cumulative, sliding
from repro.errors import ViewError
from repro.relational import Database, FLOAT, INTEGER, TEXT, col
from repro.views.definition import SequenceViewDefinition
from repro.views.materialized import MaterializedSequenceView
from tests.conftest import assert_close, brute_window


@pytest.fixture
def db(raw40):
    db = Database()
    db.create_table("seq", [("pos", INTEGER), ("val", FLOAT)], primary_key=["pos"])
    db.insert("seq", list(enumerate(raw40, start=1)))
    return db


def make_view(db, name="mv", window=sliding(2, 1), complete=True, **kwargs):
    d = SequenceViewDefinition(name, "seq", "val", order_by=("pos",),
                               window=window, **kwargs)
    return MaterializedSequenceView(db, d, complete=complete)


class TestStorage:
    def test_row_count_includes_header_trailer(self, db):
        view = make_view(db)
        # 40 core + header (h=1) + trailer (l=2).
        assert view.row_count() == 43

    def test_incomplete_stores_core_only(self, db):
        view = make_view(db, complete=False)
        assert view.row_count() == 40

    def test_storage_is_the_values_without_index(self, db):
        """The storage table holds ``__val`` alone (no partition here) and
        no index."""
        make_view(db)
        table = db.table("__mv_mv")
        assert [c.name for c in table.schema] == ["__val"]
        assert table.indexes == {}

    def test_header_and_trailer_bracket_the_core_in_one_run(self, db):
        view = make_view(db)
        table = db.table("__mv_mv")
        seq = view.sequence()
        first, last = seq.stored_range
        assert (first, last) == (0, 42)  # header (h=1), 40 core, trailer (l=2)
        assert table.column_values("__val").to_pylist() == seq.stored(first, last)

    def test_values_match_brute_force(self, db, raw40):
        make_view(db)
        table = db.table("__mv_mv")
        core = table.column_values("__val").to_pylist()[1:41]  # slot k is position k
        assert_close(core, brute_window(raw40, sliding(2, 1)))

    def test_where_filters_base(self, db, raw40):
        from repro.sql.parser import parse_expression

        d = SequenceViewDefinition(
            "mv", "seq", "val", order_by=("pos",), window=sliding(1, 1),
            where=parse_expression("pos <= 10"))
        view = MaterializedSequenceView(db, d)
        assert view.single_partition().seq.n == 10
        assert_close(view.sequence().core_values(),
                     brute_window(raw40[:10], sliding(1, 1)))


class TestRefresh:
    def test_refresh_after_base_change(self, db, raw40):
        view = make_view(db)
        db.insert("seq", [(41, 7.5)])
        view.refresh()
        assert view.single_partition().seq.n == 41
        assert view.row_count() == 44

    def test_raw_mirror_tracks_base(self, db, raw40):
        view = make_view(db)
        assert_close(view.single_partition().raw, raw40)

    def test_refresh_adds_no_storage_index(self, db, monkeypatch):
        """A refresh writes the run of values and builds no index over it:
        no row goes through ``SortedIndex.add``, and slot ``k`` of the
        table is position ``k`` of the refreshed sequence."""
        from repro.relational.index import SortedIndex

        adds = []
        original = SortedIndex.add
        monkeypatch.setattr(SortedIndex, "add",
                            lambda self, row, slot: adds.append(slot) or original(self, row, slot))
        view = make_view(db, partition_by=())
        db.insert("seq", [(41, 7.5)])
        view.refresh()
        assert adds == []
        table = db.table("__mv_mv")
        assert table.indexes == {}
        seq = view.sequence()
        first, last = seq.stored_range
        assert (first, last) == (0, 43)
        assert table.column_values("__val").to_pylist() == seq.stored(first, last)


class TestPartitioned(object):
    @pytest.fixture
    def pdb(self, raw40):
        db = Database()
        db.create_table("s", [("g", TEXT), ("pos", INTEGER), ("val", FLOAT)])
        half = len(raw40) // 2
        rows = [("a", i, v) for i, v in enumerate(raw40[:half], 1)]
        rows += [("b", i, v) for i, v in enumerate(raw40[half:], 1)]
        db.insert("s", rows)
        return db

    def test_partition_sizes(self, pdb):
        d = SequenceViewDefinition("mv", "s", "val", order_by=("pos",),
                                   partition_by=("g",), window=sliding(1, 1))
        view = MaterializedSequenceView(pdb, d)
        assert view.partition_sizes() == {("a",): 20, ("b",): 20}
        assert view.is_partitioned
        # One dense run per partition, in key order, position k of a
        # partition at slot run offset + k - first.
        table = pdb.table("__mv_mv")
        assert [c.name for c in table.schema] == ["g", "__val"]
        assert [row[0] for row in table.rows] == ["a"] * 22 + ["b"] * 22
        assert view.run_offset(("b",)) == 22
        assert table.row(22 + 5 - 0)[1] == view.sequence(("b",)).value(5)

    def test_single_partition_rejected_for_partitioned(self, pdb):
        d = SequenceViewDefinition("mv", "s", "val", order_by=("pos",),
                                   partition_by=("g",), window=sliding(1, 1))
        view = MaterializedSequenceView(pdb, d)
        with pytest.raises(ViewError):
            view.single_partition()

    def test_per_partition_values(self, pdb, raw40):
        d = SequenceViewDefinition("mv", "s", "val", order_by=("pos",),
                                   partition_by=("g",), window=sliding(1, 1))
        view = MaterializedSequenceView(pdb, d)
        half = len(raw40) // 2
        assert_close(view.sequence(("b",)).core_values(),
                     brute_window(raw40[half:], sliding(1, 1)))
