"""Tables on pages end to end: out-of-core reads, write-through, clone, scans."""

import datetime

import pytest

from repro.relational import DATE, Database, FLOAT, INTEGER, TEXT
from repro.relational.persist import load_database, save_database

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
    save_database(db, str(tmp_path), page_size=512)
    loaded = load_database(str(tmp_path), memory_budget_bytes=2048)
    return db, loaded


class TestOutOfCoreReads:
    def test_loaded_table_is_paged(self, paged):
        _ref, loaded = paged
        table = loaded.table("t")
        assert not any(c.resident for b in table._columns for c in b.chunks)
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
        save_database(db, str(tmp_path), page_size=512)
        # Corrupt the dump *consistently* (pages re-encoded with valid
        # CRCs) so only the constraint check can catch the duplicate.
        catalog_path = tmp_path / "catalog.json"
        catalog = json.loads(catalog_path.read_text())
        entry = catalog["tables"][0]
        from repro.columns import Column
        from repro.storage.page import paginate_values

        values = [r[0] for r in db.table("t").rows]
        values[1] = values[0]  # duplicate primary key
        pages, dir_entries = paginate_values(
            Column.from_values(values, "int64"), 512,
            entry["pages"]["columns"]["pos"][0]["page"],
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
        """A value no page can hold makes only its chunk resident."""
        _ref, loaded = paged
        table = loaded.table("t")
        before, pages = table.pages_total, len(table._columns[2].chunks[0].pages)
        row = list(table.row(5))
        row[2] = "x" * 2000  # cannot fit any 512B page
        table.update_slot(5, row)
        assert table.is_paged and table.pages_total == before - pages
        assert [c.resident for c in table._columns[2].chunks] == [True, False]
        assert table.row(5)[2] == "x" * 2000
        assert len(table) == ROWS

    def test_set_column_writes_through_then_hydrates_when_oversized(self, paged):
        _ref, loaded = paged
        table = loaded.table("t")
        table.set_column("val", [5, 6], [-1.5, -2.5])
        assert table.is_paged
        assert [table.row(s)[1] for s in (5, 6)] == [-1.5, -2.5]
        # The second value cannot fit its page: the first is already
        # written when the page refuses, and only that chunk moves into
        # memory to take it; both values and the primary-key index are right.
        before, pages = table.pages_total, len(table._columns[2].chunks[0].pages)
        table.set_column("tag", [7, 8], ["y", "x" * 2000])
        assert table.is_paged and table.pages_total == before - pages
        assert [table.row(s)[2] for s in (7, 8)] == ["y", "x" * 2000]
        assert len(table) == ROWS
        assert table.indexes["t_pk"].lookup((8,)) == [8]

    def test_paged_view_storage_survives_a_longer_value(self, tmp_path):
        """A paged storage table (``rehydrate=True`` keeps the dumped one)
        takes a patched ``__val`` of any length in place — a float is its
        eight bytes — and the view is maintained, not quarantined."""
        from repro.warehouse import DataWarehouse

        wh = DataWarehouse()
        wh.db.create_table("seq", [("pos", INTEGER), ("val", FLOAT)],
                           primary_key=["pos"])
        wh.db.insert("seq", [(i, float(i % 7)) for i in range(1, 401)])
        sql = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 "
               "PRECEDING AND 1 FOLLOWING) s FROM seq")
        wh.create_view("mv", sql)
        wh.save(str(tmp_path), page_size=512)
        with DataWarehouse.load(str(tmp_path), memory_budget_bytes=4096,
                                rehydrate=True) as loaded:
            view = loaded.views["mv"]
            storage = loaded.db.table(view.definition.storage_table)
            assert storage.is_paged
            for k in range(100, 140):  # 1/3 + k prints 16-18 digits, not 3
                loaded.update_measure("seq", keys={"pos": k}, value_col="val",
                                      new_value=1 / 3 + k)
            assert storage.is_paged
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
        """A clone shares every chunk, pages included; a write copies the
        chunk it lands in into memory and leaves the shared pages alone."""
        ref, loaded = paged
        clone = loaded.table("t").clone()
        assert clone.is_paged and clone.pages_total == loaded.table("t").pages_total
        assert clone.rows == ref.table("t").rows
        row = list(clone.row(0))
        row[1] = 555.0
        clone.update_slot(0, row)
        assert clone._columns[1].chunks[0].resident and clone.row(0)[1] == 555.0
        assert loaded.table("t").row(0)[1] != 555.0
        assert loaded.buffer_pool.flush() == 0  # no page was written


class TestScans:
    def test_scan_streams_under_tight_budget(self, paged):
        ref, loaded = paged
        got = loaded.run(loaded.scan("t"))
        assert got.rows == list(ref.table("t").rows)
        assert got.stats.rows_scanned == ROWS
        assert loaded.buffer_pool.occupancy_bytes() <= 2048
        assert loaded.buffer_pool.evictions > 0
        assert loaded.table("t").is_paged  # streamed, not hydrated

    def test_snapshot_is_gathered_each_time_and_shares_no_frame(self, paged):
        ref, loaded = paged
        table = loaded.table("t")
        before = table.column_values("val")
        assert before.to_pylist() == ref.table("t").column_values("val").to_pylist()
        assert before.data.base is None  # its own buffer, not a frame's
        table.set_column("val", [5], [-1.5])
        assert before.value(5) == 5 / 7.0
        assert table.column_values("val").value(5) == -1.5

    def test_kind_changing_and_over_long_values_hydrate_and_lose_nothing(self, paged):
        """A value of another kind makes only its chunk resident: the
        pages it shares with the next chunk stay."""
        ref, loaded = paged
        table, want = loaded.table("t"), [list(r) for r in ref.table("t").rows]
        first, second = table._columns[0].chunks
        before, only_its = table.pages_total, set(first.pages) - set(second.pages)
        table.update_slot(5, [2**70, want[5][1], want[5][2], want[5][3]])  # beyond int64
        want[5][0] = 2**70
        assert table.is_paged and table.pages_total == before - len(only_its)
        assert [list(r) for r in table.rows] == want
        assert table.indexes["t_pk"].lookup((2**70,)) == [5]
        assert table.indexes["t_pk"].lookup((5,)) == []

    def test_an_unchanged_value_leaves_its_page_clean(self, paged):
        _ref, loaded = paged
        table = loaded.table("t")
        table.update_slot(5, table.row(5))
        assert loaded.buffer_pool.flush() == 0
        table.update_slot(5, [5, -0.0 if table.row(5)[1] == 0.0 else 0.5, "tag0", table.row(5)[3]])
        assert loaded.buffer_pool.flush() == 1  # only the val page changed


def window_read(lo, hi):
    return ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND 1 "
            f"FOLLOWING) AS w FROM seq WHERE pos BETWEEN {lo} AND {hi} ORDER BY pos")


def seq_pair(tmp_path, rows, *, page_size=4096, budget=1 << 16):
    """An in-memory warehouse over ``seq`` and a paged load of its dump."""
    from repro.warehouse import DataWarehouse, create_sequence_table

    wh = DataWarehouse()
    create_sequence_table(wh.db, "seq", rows, seed=29, primary_key=False)
    wh.save(str(tmp_path / f"d{rows}"), storage_format=4, page_size=page_size)
    return wh, DataWarehouse.load(str(tmp_path / f"d{rows}"), memory_budget_bytes=budget)


class TestPrunedScans:
    """Counts, not clocks: what a range read faults in does not grow with
    the table, and a full scan faults each page once."""

    def faults(self, loaded, sql):
        before = loaded.db.buffer_pool.snapshot()["misses"]
        result = loaded.query(sql, use_views=False)
        return loaded.db.buffer_pool.snapshot()["misses"] - before, result

    def test_range_read_faults_the_same_pages_at_2k_and_64k_rows(self, tmp_path):
        counts = []
        for rows in (2_000, 64_000):
            ref, loaded = seq_pair(tmp_path, rows, budget=8 * 4096)
            with loaded:
                lo = rows // 2 - 100  # straddles a page edge at both sizes
                faulted, got = self.faults(loaded, window_read(lo, lo + 199))
                assert got.rows == ref.query(window_read(lo, lo + 199)).rows
                assert len(got.rows) == 200
                assert faulted <= 2 * 2  # two pages of each referenced column
                assert got.stats.rows_scanned <= 3 * 500
                counts.append((faulted, got.stats.rows_scanned))
        assert counts[0] == counts[1]

    def test_full_scan_faults_each_page_exactly_once(self, tmp_path):
        ref, loaded = seq_pair(tmp_path, 5_000, page_size=512, budget=4 * 512)
        with loaded:
            sql = window_read(1, 5_000).replace("WHERE pos BETWEEN 1 AND 5000 ", "")
            faulted, got = self.faults(loaded, sql)
            assert got.rows == ref.query(sql).rows
            assert faulted == loaded.db.table("seq").pages_total
            assert got.stats.rows_scanned == 5_000

    def test_explain_analyze_and_counters_show_the_pruning(self, tmp_path):
        from repro.obs import runtime
        from repro.obs.metrics import MetricsRegistry

        _ref, loaded = seq_pair(tmp_path, 5_000, page_size=512)
        registry = MetricsRegistry()
        with loaded, runtime.use(registry=registry):
            out = loaded.db.explain_analyze(window_read(1000, 1199))
            total = loaded.db.table("seq").pages_total
        scan_line = next(line for line in out.splitlines() if "TableScan" in line)
        read = int(scan_line.split("pages=")[1].split("/")[0])
        assert "input=columns" in scan_line and f"pages={read}/{total}" in scan_line
        assert 0 < read <= 2 * 5  # 200 rows at 60 rows a page, two columns
        assert "input=columns" in next(l for l in out.splitlines() if "WindowOperator" in l)
        assert registry.value("repro_storage_pages_scanned_total") == read
        assert registry.value("repro_storage_pages_pruned_total") == total - read

    def test_bare_limit_stops_faulting_pages(self, tmp_path):
        ref, loaded = seq_pair(tmp_path, 5_000, page_size=512)
        with loaded:
            faulted, got = self.faults(loaded, "SELECT pos, val FROM seq LIMIT 7")
            assert got.rows == ref.query("SELECT pos, val FROM seq LIMIT 7").rows
            assert faulted == 2 and got.stats.rows_scanned == 7
            filtered = "SELECT pos FROM seq WHERE val > 3 LIMIT 7"  # not bare: no bound
            assert loaded.query(filtered).rows == ref.query(filtered).rows

    def test_tail_rows_and_widened_zones_are_never_pruned(self, tmp_path):
        ref, loaded = seq_pair(tmp_path, 2_000, page_size=512)
        with loaded:
            for wh in (ref, loaded):
                wh.db.table("seq").insert([1_000_000, 1.5])  # lands in the tail
                wh.db.table("seq").update_slot(10, [999_999, 2.5])  # widens a zone
            sql = "SELECT pos, val FROM seq WHERE pos >= 999999 ORDER BY pos"
            assert loaded.query(sql).rows == ref.query(sql).rows == [(999_999, 2.5), (1_000_000, 1.5)]
            assert loaded.db.table("seq").is_paged


class TestOutOfCoreVerdicts:
    """What ``benchmarks/bench_outofcore.py --check`` used to gate: answers
    bit-identical to the in-memory warehouse with the page files at least
    four times the budget, and evictions to show the run was out of core."""

    def test_query_update_and_refresh_match_in_memory_at_4x_the_budget(self, tmp_path):
        import os

        from repro.warehouse import DataWarehouse, create_sequence_table

        rows, budget = 4_000, 16_384
        view = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND "
                "1 FOLLOWING) AS s FROM seq")
        query = window_read(1, rows).replace(f"WHERE pos BETWEEN 1 AND {rows} ", "")
        ref = DataWarehouse()
        create_sequence_table(ref.db, "seq", rows, seed=29)
        ref.create_view("mv", view)
        ref.save(str(tmp_path), storage_format=4, page_size=512)
        data = tmp_path / "data"
        assert sum(os.path.getsize(data / f) for f in os.listdir(data)) >= 4 * budget
        with DataWarehouse.load(str(tmp_path), memory_budget_bytes=budget) as cold:
            assert cold.query(query, use_views=False).rows == ref.query(query, use_views=False).rows
            for wh in (ref, cold):
                wh.update_measure("seq", keys={"pos": rows // 2}, value_col="val", new_value=2.5)
                wh.refresh_view("mv")
            assert cold.query(query, use_views=False).rows == ref.query(query, use_views=False).rows
            assert cold.query(view + " ORDER BY pos").rows == ref.query(view + " ORDER BY pos").rows
            pool = cold.db.buffer_pool.snapshot()
            assert pool["evictions"] > 0 and pool["occupancy_bytes"] <= budget
