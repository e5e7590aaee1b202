"""Incremental maintenance of materialized views (storage + mirror sync)."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import ALL_AGGREGATES
from repro.core.complete import CompleteSequence
from repro.core.window import cumulative, sliding
from repro.errors import MaintenanceError
from repro.relational import Database, FLOAT, INTEGER, TEXT
from repro.views.definition import SequenceViewDefinition
from repro.views.maintenance import (
    position_of,
    propagate_delete,
    propagate_insert,
    propagate_update,
)
from repro.views.materialized import MaterializedSequenceView
from tests.conftest import assert_close, brute_window


@pytest.fixture
def db(raw40):
    db = Database()
    # FLOAT ordering key so that tests can insert *between* existing rows.
    db.create_table("seq", [("pos", FLOAT), ("val", FLOAT)], primary_key=["pos"])
    db.insert("seq", list(enumerate(raw40, start=1)))
    return db


@pytest.fixture
def view(db):
    d = SequenceViewDefinition("mv", "seq", "val", order_by=("pos",),
                               window=sliding(2, 1))
    return MaterializedSequenceView(db, d)


def storage_values(view):
    """``__val`` in slot order: the run of the one partition, position order."""
    table = view.db.table(view.definition.storage_table)
    return table.column_values("__val").to_pylist()


class TestPropagation:
    def test_update_syncs_both_representations(self, view, raw40):
        result = propagate_update(view, (10,), 777.0)
        raw = list(raw40)
        raw[9] = 777.0
        expected = brute_window(raw, sliding(2, 1))
        assert_close(view.sequence().core_values(), expected)
        # Storage table band was patched in place.
        core = storage_values(view)[1:41]  # skip header row
        assert_close(core, expected)
        assert result.values_touched == 4

    def test_insert_shifts_storage(self, view, raw40):
        propagate_insert(view, (10.5,), 5.0)  # between positions 10 and 11
        raw = raw40[:10] + [5.0] + raw40[10:]
        assert view.sequence().n == 41
        assert_close(storage_values(view)[1:42], brute_window(raw, sliding(2, 1)))

    def test_delete_shifts_storage(self, view, raw40):
        propagate_delete(view, (10,))
        raw = raw40[:9] + raw40[10:]
        assert view.sequence().n == 39
        assert_close(storage_values(view)[1:40], brute_window(raw, sliding(2, 1)))

    def test_position_lookup(self, view):
        assert position_of(view, (), (1,)) == 1
        assert position_of(view, (), (40,)) == 40

    def test_unknown_order_key(self, view):
        with pytest.raises(MaintenanceError):
            propagate_update(view, (99,), 1.0)

    def test_unknown_partition(self, view):
        with pytest.raises(MaintenanceError):
            propagate_update(view, (1,), 1.0, partition_key=("ghost",))

    def test_duplicate_insert_rejected(self, view):
        with pytest.raises(MaintenanceError):
            propagate_insert(view, (10,), 1.0)

    def test_many_operations_stay_consistent(self, view, raw40, rng):
        raw = list(raw40)
        keys = [float(i) for i in range(1, 41)]
        next_key = 41.0
        for _ in range(30):
            op = rng.choice(["u", "i", "d"])
            if op == "u":
                i = rng.randrange(len(keys))
                v = round(rng.uniform(-9, 9), 2)
                propagate_update(view, (keys[i],), v)
                raw[i] = v
            elif op == "i":
                v = round(rng.uniform(-9, 9), 2)
                propagate_insert(view, (next_key,), v)
                keys.append(next_key)
                raw.append(v)
                next_key += 1.0
            elif len(keys) > 5:
                i = rng.randrange(len(keys))
                propagate_delete(view, (keys[i],))
                del keys[i]
                del raw[i]
        assert_close(view.sequence().core_values(), brute_window(raw, sliding(2, 1)))
        core = storage_values(view)[1:1 + len(raw)]
        assert_close(core, brute_window(raw, sliding(2, 1)))


class TestStorageTableIndexes:
    """What a user does to the storage table's indexes must not cost the
    view its maintenance: an index over the column the sync writes is
    kept right."""

    def _exercise(self, view, raw40):
        propagate_update(view, (10,), 777.0)
        propagate_insert(view, (10.5,), 5.0)
        propagate_delete(view, (3,))
        propagate_insert(view, (0.5,), -2.0)  # first position
        propagate_delete(view, (40,))  # last position
        raw = list(raw40)
        raw[9] = 777.0
        raw = [-2.0] + raw[:2] + raw[3:10] + [5.0] + raw[10:39]
        expected = brute_window(raw, sliding(2, 1))
        assert_close(view.sequence().core_values(), expected)
        assert_close(storage_values(view)[1:1 + len(raw)], expected)
        return raw

    def test_user_indexes_over_written_columns_are_maintained(self, view, raw40):
        table = view.db.table(view.definition.storage_table)
        table.create_index("by_val", ["__val"], kind="sorted")
        raw = self._exercise(view, raw40)
        kept = table.indexes["by_val"]
        fresh = type(kept)("by_val", kept.column_indexes)
        fresh.load([fresh.key_of(row) for row in table.rows])
        for row in table.rows:
            key = kept.key_of(row)
            assert sorted(kept.lookup(key)) == sorted(fresh.lookup(key))
        assert len(table) == len(raw) + 3  # header + two trailer rows


class TestCumulativeView:
    def test_update(self, db, raw40):
        d = SequenceViewDefinition("cmv", "seq", "val", order_by=("pos",),
                                   window=cumulative())
        view = MaterializedSequenceView(db, d)
        propagate_update(view, (5,), 0.0)
        raw = list(raw40)
        raw[4] = 0.0
        assert_close(view.sequence().core_values(), brute_window(raw, cumulative()))
        assert_close(storage_values(view), brute_window(raw, cumulative()))

    def test_update_reads_the_band_as_one_slice(self, monkeypatch):
        """A point update near the start changes ~n stored values; the
        storage patch takes them as one slice of the mirror, not one
        ``CompleteSequence.value`` call per position, and stores its bits."""
        n = 10_000
        db = Database()
        db.create_table("seq", [("pos", INTEGER), ("val", FLOAT)],
                        primary_key=["pos"])
        db.insert("seq", [(i, (i % 7) * 0.1 - 0.25) for i in range(1, n + 1)])
        d = SequenceViewDefinition("cmv", "seq", "val", order_by=("pos",),
                                   window=cumulative())
        view = MaterializedSequenceView(db, d)
        calls = []
        value = CompleteSequence.value

        def counted(seq, k):
            calls.append(k)
            return value(seq, k)

        monkeypatch.setattr(CompleteSequence, "value", counted)
        result = propagate_update(view, (3,), 0.7)
        assert result.values_touched == n - 2
        assert len(calls) == 0
        stored = db.table(d.storage_table).column_values("__val").to_pylist()
        bits = [struct.pack("<d", v) for v in view.sequence().to_list()]
        assert [struct.pack("<d", v) for v in stored] == bits


class TestStorageWritesCounted:
    """On a 10 000-row view a write touches ``__val`` slots only: an
    interior update its band of ``w = l + h + 1``, an interior insert the
    slots from its band's start to the run's end plus one new slot."""

    L, H = 4, 2

    @pytest.fixture
    def counted(self, monkeypatch):
        from repro.columns import ColumnBuilder
        from repro.relational.table import Table
        from repro.warehouse import DataWarehouse, create_sequence_table

        wh = DataWarehouse()
        create_sequence_table(wh.db, "seq", 10_000, seed=3)
        view = wh.create_view("mv", f"SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN "
                                    f"{self.L} PRECEDING AND {self.H} FOLLOWING) s FROM seq")
        table = wh.db.table(view.definition.storage_table)
        calls = []
        for name in ("write", "set", "extend", "append", "keep"):
            def spy(self, *args, _original=getattr(ColumnBuilder, name), _name=name):
                if any(self is builder for builder in table._columns):
                    size = len(args[0] if _name == "write" else args[-1]) \
                        if _name in ("write", "extend") else 1
                    calls.append((table.schema.columns[table._columns.index(self)].name, _name, size))
                return _original(self, *args)
            monkeypatch.setattr(ColumnBuilder, name, spy)
        row = Table.row
        monkeypatch.setattr(Table, "row", lambda self, slot: calls.append((self.name, "row", 1))
                            or row(self, slot))
        return wh, view, table, calls

    def test_an_interior_update_writes_exactly_its_band_of_val(self, counted):
        wh, view, table, calls = counted
        wh.update_measure("seq", keys={"pos": 5_000}, value_col="val", new_value=-1.0)
        assert [c for c in calls if c[0] != "seq"] == [("__val", "write", self.L + self.H + 1)]
        assert verify_clean(wh)

    def test_an_interior_insert_moves_no_ordering_key(self, counted):
        wh, view, table, calls = counted
        wh.delete_row("seq", keys={"pos": 5_000})
        calls.clear()
        wh.insert_row("seq", (5_000, 0.5))
        assert [c.name for c in table.schema] == ["__val"]  # no ordering-key column to move
        first, last = view.sequence().stored_range
        band_start = 5_000 - self.H
        assert [c for c in calls if c[0] != "seq"] == [
            ("__val", "extend", 1), ("__val", "write", last - band_start + 1)]
        assert verify_clean(wh)


def verify_clean(wh):
    return all(report.ok for report in wh.verify(quarantine=False).values())


class TestPartitionedView:
    def test_update_in_one_partition_only(self, raw40):
        db = Database()
        db.create_table("s", [("g", TEXT), ("pos", INTEGER), ("val", FLOAT)])
        half = len(raw40) // 2
        rows = [("a", i, v) for i, v in enumerate(raw40[:half], 1)]
        rows += [("b", i, v) for i, v in enumerate(raw40[half:], 1)]
        db.insert("s", rows)
        d = SequenceViewDefinition("mv", "s", "val", order_by=("pos",),
                                   partition_by=("g",), window=sliding(1, 1))
        view = MaterializedSequenceView(db, d)
        before_b = list(view.sequence(("b",)).core_values())
        propagate_update(view, (3,), 42.0, partition_key=("a",))
        raw_a = list(raw40[:half])
        raw_a[2] = 42.0
        assert_close(view.sequence(("a",)).core_values(), brute_window(raw_a, sliding(1, 1)))
        assert view.sequence(("b",)).core_values() == before_b


def packed(values):
    return [struct.pack("<d", v) for v in values]


def stored_bits(wh, name):
    """The view's mirror and its storage rows, values as bits, in slot order."""
    view = wh.view(name)
    table = wh.db.table(view.definition.storage_table)
    mirror = {key: packed(part.seq.to_list())
              for key, part in view.reporting.partitions.items()}
    return mirror, [(*row[:-1], *packed([row[-1]])) for row in table.rows]


def assert_maintained_is_refreshed(wh, name):
    maintained = stored_bits(wh, name)
    wh.refresh_view(name)
    assert stored_bits(wh, name) == maintained


class TestMaintainedEqualsRefreshed:
    """A write recomputes its band with refresh's evaluator, so every
    aggregate and window serves what a refresh would store."""

    WRITES = [
        lambda wh: wh.update_measure("seq", keys={"pos": 7}, value_col="val",
                                     new_value=1000.0),
        lambda wh: wh.insert_row("seq", (31, 55.0)),
        lambda wh: wh.delete_row("seq", keys={"pos": 3}),
    ]

    @pytest.mark.parametrize("call", [
        "COUNT(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING)",
        "AVG(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING)",
        "MAX(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING)",
        "MIN(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING)",
    ])
    def test_update_insert_delete_serve_the_base_data(self, call):
        from repro.warehouse import DataWarehouse, create_sequence_table

        sql = f"SELECT pos, {call} v FROM seq"
        wh = DataWarehouse()
        create_sequence_table(wh.db, "seq", 30, seed=5)
        wh.create_view("mv", sql)
        for write in self.WRITES:
            assert not any(isinstance(r, Exception) for r in write(wh))
            served = wh.query(sql)
            assert served.rewrite is not None
            native = wh.query(sql, use_views=False)
            assert [r[1] for r in served.rows] == pytest.approx(
                [r[1] for r in native.rows], rel=1e-12)
            assert all(report.ok for report in wh.verify().values())
            assert wh.quarantined_views() == []
            assert_maintained_is_refreshed(wh, "mv")

    @pytest.mark.parametrize("call", [
        "MIN(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING)",
        "MAX(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING)",
    ])
    def test_a_nan_measure_propagates_as_in_the_native_kernel(self, call):
        """A MIN/MAX window holding a NaN is NaN in the view, as in the
        native window kernel, after refresh and after every band."""
        from repro.warehouse import DataWarehouse, create_sequence_table

        nan = float("nan")
        sql = f"SELECT pos, {call} v FROM seq"
        wh = DataWarehouse()
        create_sequence_table(wh.db, "seq", 30, seed=5)
        wh.update_measure("seq", keys={"pos": 2}, value_col="val", new_value=nan)
        wh.create_view("mv", sql)
        for write in [
            lambda: wh.update_measure("seq", keys={"pos": 12}, value_col="val",
                                      new_value=nan),
            lambda: wh.insert_row("seq", (31, nan)),
            lambda: wh.delete_row("seq", keys={"pos": 2}),
        ]:
            assert not any(isinstance(r, Exception) for r in write())
            served = wh.query(sql)
            assert served.rewrite is not None
            native = wh.query(sql, use_views=False)
            assert [r[1] for r in served.rows] == pytest.approx(
                [r[1] for r in native.rows], rel=1e-12, nan_ok=True)
            assert all(report.ok for report in wh.verify().values())
            assert wh.quarantined_views() == []
            assert_maintained_is_refreshed(wh, "mv")

    def test_incomplete_view_takes_inserts_and_deletes(self):
        from repro.warehouse import DataWarehouse, create_sequence_table

        wh = DataWarehouse()
        create_sequence_table(wh.db, "seq", 30, seed=5)
        wh.create_view("mv", "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS "
                       "BETWEEN 2 PRECEDING AND 1 FOLLOWING) s FROM seq",
                       complete=False)
        for write in self.WRITES[2:0:-1]:  # a delete, then an insert
            assert not any(isinstance(r, Exception) for r in write(wh))
            assert wh.quarantined_views() == []
            assert_maintained_is_refreshed(wh, "mv")

    @pytest.mark.parametrize("partitioned", [False, True])
    def test_a_refreshing_load_reproduces_the_live_digest(self, tmp_path, partitioned):
        """A maintained storage table is slot for slot what a refresh
        builds, partitioned or not, so a load that refreshes hashes like
        the live warehouse.  ``rehydrate=`` still keeps the dump's own
        values: what ``repro verify`` checks and WAL recovery replays on."""
        from repro.replicate.wal import state_digest
        from repro.warehouse import DataWarehouse, create_sequence_table

        wh = DataWarehouse()
        if partitioned:
            wh.create_table("seq", [("g", "TEXT"), ("pos", "INTEGER"), ("val", "FLOAT")])
            wh.insert("seq", [(g, i, i / 4) for g in "ace" for i in range(1, 11)])
            over = "PARTITION BY g ORDER BY pos"
            writes = [
                lambda wh: wh.insert_row("seq", ("a", 11, 5.0)),  # the first run grows
                lambda wh: wh.insert_row("seq", ("c", 31, 55.0)),  # a middle run grows
                lambda wh: wh.insert_row("seq", ("b", 1, 2.0)),  # a partition opens
                lambda wh: wh.insert_row("seq", ("d", 1, 3.0)),
                lambda wh: wh.delete_row("seq", keys={"g": "b", "pos": 1}),  # and closes
                lambda wh: wh.update_measure("seq", keys={"g": "e", "pos": 4},
                                             value_col="val", new_value=1000.0),
                lambda wh: wh.delete_row("seq", keys={"g": "c", "pos": 3}),
            ]
        else:
            create_sequence_table(wh.db, "seq", 30, seed=5)
            over, writes = "ORDER BY pos", self.WRITES
        wh.create_view("mv", f"SELECT pos, SUM(val) OVER ({over} ROWS "
                       "BETWEEN 2 PRECEDING AND 1 FOLLOWING) s FROM seq")
        for write in writes:
            write(wh)
        wh.save(str(tmp_path))
        loaded = DataWarehouse.load(str(tmp_path))
        assert state_digest(loaded, cached=False) == state_digest(wh, cached=False)


writes = st.lists(
    st.tuples(st.sampled_from(["update", "insert", "delete"]),
              st.integers(min_value=0, max_value=1000),
              st.floats(min_value=-100, max_value=100, allow_nan=False, width=32)),
    min_size=1,
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(raw=st.lists(st.floats(min_value=-1000, max_value=1000, allow_nan=False,
                              width=32), min_size=1, max_size=25),
       window=st.one_of(
           st.tuples(st.integers(0, 4), st.integers(0, 4))
           .filter(lambda lh: sum(lh) > 0).map(lambda lh: sliding(*lh)),
           st.just(cumulative())),
       agg=st.sampled_from(ALL_AGGREGATES), complete=st.booleans(), ops=writes)
def test_maintained_view_equals_a_refresh(raw, window, agg, complete, ops):
    """Up to twelve mixed writes on any aggregate, window and completeness:
    the core sequence, the mirror and ``__val`` equal a refresh bit for bit."""
    from repro.warehouse import DataWarehouse

    wh = DataWarehouse()
    wh.db.create_table("seq", [("pos", FLOAT), ("val", FLOAT)], primary_key=["pos"])
    keys = [float(i) for i in range(1, len(raw) + 1)]
    wh.db.insert("seq", list(zip(keys, raw)))
    wh.create_view("mv", f"SELECT pos, {agg.name}(val) OVER (ORDER BY pos "
                   f"{window.to_frame_sql()}) v FROM seq", complete=complete)
    for op, seed, value in ops:
        if op == "insert":
            i = seed % (len(keys) + 1)
            if i == len(keys):
                key = keys[-1] + 1.0
            elif i == 0:
                key = keys[0] - 1.0
            else:
                key = (keys[i - 1] + keys[i]) / 2
            wh.insert_row("seq", (key, value))
            keys.insert(i, key)
        elif len(keys) < 2:
            continue
        elif op == "update":
            wh.update_measure("seq", keys={"pos": keys[seed % len(keys)]},
                              value_col="val", new_value=value)
        else:
            wh.delete_row("seq", keys={"pos": keys.pop(seed % len(keys))})
    assert wh.quarantined_views() == []
    base = sorted(wh.db.table("seq").rows)
    core = wh.view("mv").sequence().to_list()
    fresh = CompleteSequence.from_raw([v for _, v in base], window, agg, complete=complete)
    assert packed(core) == packed(fresh.to_list())
    assert_maintained_is_refreshed(wh, "mv")

