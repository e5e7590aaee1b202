"""PagedTable end to end: out-of-core reads, write-through, clone, scans."""

import datetime

import pytest

from repro.relational import DATE, Database, FLOAT, INTEGER, TEXT
from repro.relational.persist import load_database, save_database
from repro.storage.paged import PagedColumnStore, PagedTable

ROWS = 600  # at page_size=512 / budget=2048 the dataset is far over budget


def build_db() -> Database:
    db = Database()
    db.create_table(
        "t",
        [("pos", INTEGER), ("val", FLOAT), ("tag", TEXT), ("d", DATE)],
        primary_key=["pos"],
    )
    db.insert("t", [
        (
            i,
            None if i % 97 == 0 else i / 7.0,
            None if i % 31 == 0 else f"tag{i % 5}",
            datetime.date(2001, 1, 1) + datetime.timedelta(days=i % 300),
        )
        for i in range(ROWS)
    ])
    return db


@pytest.fixture
def paged(tmp_path):
    db = build_db()
    save_database(db, str(tmp_path), format_version=4, page_size=512)
    loaded = load_database(str(tmp_path), memory_budget_bytes=2048)
    return db, loaded


class TestOutOfCoreReads:
    def test_loaded_table_is_paged(self, paged):
        _ref, loaded = paged
        table = loaded.table("t")
        assert isinstance(table, PagedTable)
        assert table.is_paged and table.pages_total > 4

    def test_rows_bit_identical_with_evictions(self, paged):
        ref, loaded = paged
        assert loaded.table("t").rows == ref.table("t").rows
        assert loaded.buffer_pool.evictions > 0

    def test_residency_stays_under_budget(self, paged):
        _ref, loaded = paged
        list(loaded.table("t").rows)
        assert loaded.buffer_pool.occupancy_bytes() <= 2048

    def test_memory_bytes_far_below_dataset(self, paged):
        ref, loaded = paged
        list(loaded.table("t").rows)  # leave only pooled residue
        assert loaded.table("t").memory_bytes() < ref.table("t").memory_bytes()

    def test_sql_query_matches_in_memory(self, paged):
        ref, loaded = paged
        q = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 "
             "PRECEDING AND 2 FOLLOWING) AS w FROM t ORDER BY pos")
        assert loaded.sql(q).rows == ref.sql(q).rows

    def test_batch_plane_matches(self, paged):
        ref, loaded = paged
        q = "SELECT COUNT(*) AS c, MIN(val) AS lo, MAX(val) AS hi FROM t"
        assert loaded.sql(q).rows == ref.sql(q).rows

    def test_primary_key_index_works(self, paged):
        _ref, loaded = paged
        res = loaded.sql("SELECT tag FROM t WHERE pos = 350")
        assert res.rows == [("tag0",)]

    def test_duplicate_pk_still_rejected_on_paged_load(self, tmp_path):
        import json

        from repro.errors import ConstraintError

        db = build_db()
        save_database(db, str(tmp_path), format_version=4, page_size=512)
        # Corrupt the dump *consistently* (pages re-encoded with valid
        # CRCs) so only the constraint check can catch the duplicate.
        catalog_path = tmp_path / "catalog.json"
        catalog = json.loads(catalog_path.read_text())
        entry = catalog["tables"][0]
        from repro.storage.page import paginate_values

        values = [r[0] for r in db.table("t").rows]
        values[1] = values[0]  # duplicate primary key
        pages, dir_entries = paginate_values(
            "t", "pos", values, 512, entry["pages"]["columns"]["pos"][0]["page"]
        )
        data_path = tmp_path / "data" / entry["data_file"]
        raw = bytearray(data_path.read_bytes())
        first = entry["pages"]["columns"]["pos"][0]["page"]
        for i, page in enumerate(pages):
            raw[(first + i) * 512:(first + i + 1) * 512] = page
        data_path.write_bytes(bytes(raw))
        entry["pages"]["columns"]["pos"] = dir_entries
        catalog_path.write_text(json.dumps(catalog))
        with pytest.raises(ConstraintError):
            load_database(str(tmp_path), memory_budget_bytes=2048)


class TestMutation:
    def test_update_slot_writes_through(self, paged):
        ref, loaded = paged
        table = loaded.table("t")
        row = list(table.row(5))
        row[1] = -123.5
        table.update_slot(5, row)
        assert table.is_paged  # same-size float fits the page
        assert table.row(5)[1] == -123.5

    def test_updates_survive_page_cycling(self, paged):
        _ref, loaded = paged
        table = loaded.table("t")
        row = list(table.row(5))
        row[1] = -123.5
        table.update_slot(5, row)
        list(table.rows)  # cycle every page through the tiny pool
        assert table.row(5)[1] == -123.5

    def test_oversized_update_hydrates(self, paged):
        _ref, loaded = paged
        table = loaded.table("t")
        row = list(table.row(5))
        row[2] = "x" * 2000  # cannot fit any 512B page
        table.update_slot(5, row)
        assert not table.is_paged  # hydrated
        assert table.row(5)[2] == "x" * 2000
        assert len(table) == ROWS

    def test_set_column_writes_through_then_hydrates_when_oversized(self, paged):
        _ref, loaded = paged
        table = loaded.table("t")
        table.set_column("val", [5, 6], [-1.5, -2.5])
        assert table.is_paged
        assert [table.row(s)[1] for s in (5, 6)] == [-1.5, -2.5]
        # The second value cannot fit its page: the first is already
        # written when the page refuses, and the redo after hydration
        # must leave both (and the primary-key index) right.
        table.set_column("tag", [7, 8], ["y", "x" * 2000])
        assert not table.is_paged
        assert [table.row(s)[2] for s in (7, 8)] == ["y", "x" * 2000]
        assert len(table) == ROWS
        assert table.indexes["t_pk"].lookup((8,)) == [8]

    def test_paged_view_storage_survives_a_longer_value(self, tmp_path):
        """A paged storage table (``rehydrate=True`` keeps the dumped one)
        whose patched ``__val`` text outgrows its page hydrates; the view
        is maintained, not quarantined."""
        from repro.warehouse import DataWarehouse

        wh = DataWarehouse()
        wh.db.create_table("seq", [("pos", INTEGER), ("val", FLOAT)],
                           primary_key=["pos"])
        wh.db.insert("seq", [(i, float(i % 7)) for i in range(1, 401)])
        sql = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 "
               "PRECEDING AND 1 FOLLOWING) s FROM seq")
        wh.create_view("mv", sql)
        wh.save(str(tmp_path), storage_format=4, page_size=512)
        with DataWarehouse.load(str(tmp_path), memory_budget_bytes=4096,
                                rehydrate=True) as loaded:
            view = loaded.views["mv"]
            storage = loaded.db.table(view.definition.storage_table)
            assert storage.is_paged
            for k in range(100, 140):  # 1/3 + k prints 16-18 digits, not 3
                loaded.update_measure("seq", keys={"pos": k}, value_col="val",
                                      new_value=1 / 3 + k)
            assert not storage.is_paged
            assert not view.quarantined
            assert loaded.verify()["mv"].ok
            assert loaded.query(sql + " ORDER BY pos").rewrite.view == "mv"

    def test_appends_go_to_the_tail(self, paged):
        _ref, loaded = paged
        table = loaded.table("t")
        table.insert_many(
            [(ROWS + 1, 1.0, "new", datetime.date(2020, 1, 1))]
        )
        assert len(table) == ROWS + 1
        assert table.row(ROWS)[0] == ROWS + 1
        assert table.is_paged

    def test_clone_is_independent_and_in_memory(self, paged):
        ref, loaded = paged
        clone = loaded.table("t").clone()
        assert not isinstance(clone._columns[0], PagedColumnStore)
        assert clone.rows == ref.table("t").rows
        row = list(clone.row(0))
        row[1] = 555.0
        clone.update_slot(0, row)
        assert loaded.table("t").row(0)[1] != 555.0


class TestScans:
    def test_scan_streams_under_tight_budget(self, paged):
        ref, loaded = paged
        got = loaded.run(loaded.scan("t"))
        assert got.rows == list(ref.table("t").rows)
        assert got.stats.rows_scanned == ROWS
        assert loaded.buffer_pool.occupancy_bytes() <= 2048
        assert loaded.buffer_pool.evictions > 0
        assert loaded.table("t").is_paged  # streamed, not hydrated

    def test_snapshot_not_cached_under_tight_budget(self, paged):
        _ref, loaded = paged
        store = loaded.table("t")._columns[1]
        store.snapshot()
        assert store._cached is None  # column exceeds the 2 KiB budget

    def test_snapshot_cached_under_ample_budget(self, tmp_path):
        db = build_db()
        save_database(db, str(tmp_path), format_version=4, page_size=512)
        loaded = load_database(str(tmp_path), memory_budget_bytes=2**24)
        store = loaded.table("t")._columns[1]
        first = store.snapshot()
        assert store._cached is first
        assert store.snapshot() is first
