"""Database persistence (save/load round trips)."""

import datetime
import json
import os

import pytest

from repro.errors import CatalogError
from repro.relational import DATE, Database, FLOAT, INTEGER, TEXT
from repro.relational.persist import load_database, save_database


@pytest.fixture
def db():
    db = Database()
    db.create_table("t", [("pos", INTEGER), ("val", FLOAT), ("tag", TEXT),
                          ("d", DATE)], primary_key=["pos"])
    db.insert("t", [
        (1, 1.5, "a", datetime.date(2001, 2, 3)),
        (2, None, None, None),
        (3, -7.25, "o'brien", datetime.date(1999, 12, 31)),
    ])
    db.create_index("t", "by_tag", ["tag"], kind="hash")
    db.create_table("empty", [("x", INTEGER)])
    return db


class TestRoundTrip:
    def test_rows_preserved(self, db, tmp_path):
        save_database(db, str(tmp_path))
        loaded = load_database(str(tmp_path))
        assert loaded.table("t").rows == db.table("t").rows

    def test_schema_and_pk_preserved(self, db, tmp_path):
        save_database(db, str(tmp_path))
        loaded = load_database(str(tmp_path))
        table = loaded.table("t")
        assert table.schema.names() == ["pos", "val", "tag", "d"]
        assert table.primary_key == ("pos",)
        assert table.schema.column("d").type.name == "DATE"

    def test_secondary_indexes_recreated(self, db, tmp_path):
        save_database(db, str(tmp_path))
        loaded = load_database(str(tmp_path))
        idx = loaded.table("t").find_index(["tag"])
        assert idx is not None and idx.kind == "hash"
        assert len(idx.lookup(("a",))) == 1

    def test_only_the_primary_keys_own_index_is_left_out(self, db, tmp_path):
        # A user index may be called anything, `*_pk` included.
        db.create_index("t", "by_val_pk", ["val"], kind="hash")
        db.create_index("empty", "empty_pk", ["x"])  # no primary key to rebuild it from
        save_database(db, str(tmp_path))
        for budget in (None, 1 << 16):
            loaded = load_database(str(tmp_path), memory_budget_bytes=budget)
            assert sorted(loaded.table("t").indexes) == ["by_tag", "by_val_pk", "t_pk"]
            assert loaded.table("t").indexes["by_val_pk"].column_indexes == (1,)
            assert sorted(loaded.table("empty").indexes) == ["empty_pk"]

    def test_empty_table(self, db, tmp_path):
        save_database(db, str(tmp_path))
        loaded = load_database(str(tmp_path))
        assert len(loaded.table("empty")) == 0

    def test_dates_round_trip(self, db, tmp_path):
        save_database(db, str(tmp_path))
        loaded = load_database(str(tmp_path))
        assert loaded.table("t").rows[0][3] == datetime.date(2001, 2, 3)

    def test_queries_work_after_load(self, db, tmp_path):
        save_database(db, str(tmp_path))
        loaded = load_database(str(tmp_path))
        res = loaded.sql("SELECT pos FROM t WHERE val IS NULL")
        assert res.rows == [(2,)]


class TestFailureModes:
    def test_missing_dump(self, tmp_path):
        with pytest.raises(CatalogError):
            load_database(str(tmp_path / "nowhere"))

    def test_version_check(self, db, tmp_path):
        # Only version 4 loads: the retired row (1, 2) and columnar (3)
        # formats are refused like an unknown one, naming the version.
        save_database(db, str(tmp_path))
        path = tmp_path / "catalog.json"
        doc = json.loads(path.read_text())
        for version in (1, 2, 3, 99):
            doc["version"] = version
            path.write_text(json.dumps(doc))
            with pytest.raises(CatalogError, match=f"dump version {version} "):
                load_database(str(tmp_path))

    def test_corrupted_duplicate_pk_rejected(self, tmp_path):
        # A dump whose every page and CRC is consistent, but whose catalog
        # declares a primary key its rows break: the constraint re-check
        # must still fire, in memory and paged.
        db = Database()
        db.create_table("t", [("pos", INTEGER), ("val", FLOAT)])
        db.insert("t", [(1, 1.0), (2, 2.0), (1, 3.0)])
        save_database(db, str(tmp_path))
        catalog = tmp_path / "catalog.json"
        doc = json.loads(catalog.read_text())
        doc["tables"][0]["primary_key"] = ["pos"]
        catalog.write_text(json.dumps(doc))
        from repro.errors import ConstraintError

        for budget in (None, 4096):
            with pytest.raises(ConstraintError):
                load_database(str(tmp_path), memory_budget_bytes=budget)

    def test_checksum_clean_table_loads(self, db, tmp_path):
        save_database(db, str(tmp_path))
        doc = json.loads((tmp_path / "catalog.json").read_text())
        for entry in doc["tables"]:
            pages = [e for column in entry["pages"]["columns"].values() for e in column]
            assert all(isinstance(e["crc32"], int) for e in pages)
        assert doc["tables"][0]["pages"]["columns"]["pos"]  # t has pages
        assert load_database(str(tmp_path)).table("t").rows == db.table("t").rows

    def test_save_is_atomic_under_write_fault(self, db, tmp_path):
        from repro.errors import InjectedFault
        from repro.faults import FaultPlan, FaultSpec, injector

        save_database(db, str(tmp_path))  # good dump
        before = load_database(str(tmp_path)).table("t").rows
        db.insert("t", [(9, 9.0, "z", None)])
        plan = FaultPlan([FaultSpec("storage_write_fail", target="t")])
        with injector.active(plan):
            with pytest.raises(InjectedFault):
                save_database(db, str(tmp_path))
        # The failed save must not have torn the previous dump.
        assert load_database(str(tmp_path)).table("t").rows == before
        assert not list(tmp_path.glob("**/*.tmp"))

    def test_no_temp_files_left_after_save(self, db, tmp_path):
        save_database(db, str(tmp_path))
        assert not list(tmp_path.glob("**/*.tmp"))

    def test_unwritable_version_rejected(self, tmp_path):
        from repro.warehouse import DataWarehouse

        wh = DataWarehouse()
        wh.create_table("s", [("pos", "INTEGER")])
        for version in (1, 2, 3, 5):
            with pytest.raises(CatalogError, match="only one written"):
                wh.save(str(tmp_path), storage_format=version)
        assert not (tmp_path / "catalog.json").exists()
        wh.save(str(tmp_path), storage_format=4)  # the one format, by name
        assert load_database(str(tmp_path)).table("s").rows == []


class TestWarehousePersistence:
    def test_views_rematerialized(self, tmp_path):
        from repro.warehouse import DataWarehouse, create_sequence_table

        wh = DataWarehouse()
        raw = create_sequence_table(wh.db, "seq", 25, seed=8)
        wh.create_view("mv", "SELECT pos, SUM(val) OVER (ORDER BY pos "
                       "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) s FROM seq")
        q = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 "
             "PRECEDING AND 1 FOLLOWING) s FROM seq ORDER BY pos")
        expected = [round(r[1], 6) for r in wh.query(q).rows]

        wh.save(str(tmp_path))
        loaded = DataWarehouse.load(str(tmp_path))
        res = loaded.query(q)
        assert res.rewrite is not None and res.rewrite.view == "mv"
        assert [round(r[1], 6) for r in res.rows] == expected

    def test_view_with_where_and_partition(self, tmp_path):
        from repro.warehouse import DataWarehouse

        wh = DataWarehouse()
        wh.create_table("s", [("g", "TEXT"), ("pos", "INTEGER"), ("v", "FLOAT")])
        wh.insert("s", [("a", i, float(i)) for i in range(1, 11)]
                  + [("b", i, float(-i)) for i in range(1, 11)])
        wh.create_view("mv", "SELECT g, pos, SUM(v) OVER (PARTITION BY g "
                       "ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 "
                       "FOLLOWING) s FROM s WHERE pos <= 8")
        wh.save(str(tmp_path))
        loaded = DataWarehouse.load(str(tmp_path))
        d = loaded.view("mv").definition
        assert d.partition_by == ("g",)
        assert d.where_text == "(pos <= 8)"
        assert loaded.view("mv").partition_sizes() == {("a",): 8, ("b",): 8}


    def test_view_storage_indexes_travel_with_the_dump(self, tmp_path):
        from repro.warehouse import DataWarehouse

        wh = DataWarehouse()
        wh.create_table("seq", [("g", INTEGER), ("pos", INTEGER), ("val", FLOAT)])
        wh.insert("seq", [(i % 2, i, float(i)) for i in range(20)])
        wh.create_view("mv", "SELECT g, pos, SUM(val) OVER (PARTITION BY g ORDER BY pos "
                             "ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM seq")
        storage = wh.view("mv").definition.storage_table
        wh.save(str(tmp_path))
        catalog = json.loads((tmp_path / "catalog.json").read_text())
        entry = next(t for t in catalog["tables"] if t["name"] == storage)
        assert {i["name"]: (i["columns"], i["unique"]) for i in entry["indexes"]} == {
            f"{storage}_pk": (["g", "__pos"], True), f"{storage}_pos": (["__pos"], False)}
        loaded = DataWarehouse.load(str(tmp_path), rehydrate=True)
        assert sorted(loaded.db.table(storage).indexes) == sorted(wh.db.table(storage).indexes)
        loaded.update_measure("seq", keys={"g": 1, "pos": 5}, value_col="val", new_value=-3.0)
        assert loaded.verify()["mv"].ok


class TestDurability:
    """save() must survive a power cut: what was not fsync'd is gone."""

    QUERY = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 "
             "PRECEDING AND 1 FOLLOWING) s FROM seq ORDER BY pos")

    @pytest.fixture
    def synced(self, monkeypatch):
        """Length of every file (by inode) at its last os.fsync."""
        lengths = {}
        real = os.fsync

        def recording(fd):
            real(fd)
            st = os.fstat(fd)
            lengths[(st.st_dev, st.st_ino)] = st.st_size

        monkeypatch.setattr(os, "fsync", recording)
        return lengths

    @pytest.mark.parametrize("budget", [None, 4096])
    def test_dump_cut_back_to_synced_bytes_loads_and_verifies(
        self, budget, synced, tmp_path
    ):
        import shutil

        from repro.warehouse import DataWarehouse, create_sequence_table

        wh = DataWarehouse()
        create_sequence_table(wh.db, "seq", 300, seed=8)
        wh.create_view("mv", "SELECT pos, SUM(val) OVER (ORDER BY pos "
                       "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) s FROM seq")
        expected = wh.query(self.QUERY).rows
        dump, image = str(tmp_path / "dump"), str(tmp_path / "image")
        wh.save(dump, page_size=512)

        # The image a power cut leaves: every file at its synced length.
        files = 0
        for dirpath, _dirs, names in os.walk(dump):
            out = os.path.join(image, os.path.relpath(dirpath, dump))
            os.makedirs(out, exist_ok=True)
            st = os.stat(dirpath)
            assert (st.st_dev, st.st_ino) in synced, dirpath  # renames durable
            for name in names:
                assert not name.endswith(".tmp")
                src = os.path.join(dirpath, name)
                st = os.stat(src)
                assert synced.get((st.st_dev, st.st_ino)) == st.st_size, src
                shutil.copyfile(src, os.path.join(out, name))
                os.truncate(os.path.join(out, name), synced[(st.st_dev, st.st_ino)])
                files += 1
        assert files >= 4  # seq + view storage + catalog.json + views.json

        with DataWarehouse.load(image, memory_budget_bytes=budget) as loaded:
            assert all(r.ok for r in loaded.verify().values())
            res = loaded.query(self.QUERY)
            assert res.rewrite is not None
            # Paged tables may route the derivation differently (last ulp).
            assert [r[0] for r in res.rows] == [r[0] for r in expected]
            assert [r[1] for r in res.rows] == pytest.approx(
                [r[1] for r in expected], rel=1e-12
            )


    def test_superseded_files_go_only_after_the_catalog_is_durable(
        self, synced, tmp_path, monkeypatch
    ):
        d = str(tmp_path)
        old = Database()
        for name in ("t", "old", "older"):
            old.create_table(name, [("pos", INTEGER), ("val", FLOAT)])
            old.insert(name, [(i, i / 3.0) for i in range(40)])
        save_database(old, d)
        removed = []
        real_remove = os.remove

        def recording(path):
            catalog = os.stat(os.path.join(d, "catalog.json"))
            assert synced.get((catalog.st_dev, catalog.st_ino)) == catalog.st_size
            directory = os.stat(d)
            assert (directory.st_dev, directory.st_ino) in synced  # the rename is durable
            removed.append(os.path.basename(path))
            real_remove(path)

        db = load_database(d)
        db.drop_table("old")
        db.drop_table("older")
        monkeypatch.setattr(os, "remove", recording)
        save_database(db, d)
        assert sorted(removed) == ["old.pages", "older.pages"]
        assert load_database(d).table("t").rows == db.table("t").rows


class TestWideValues:
    """A value wider than a page grows the table's page size; it never fails."""

    def test_wide_text_saves_and_loads_both_ways(self, tmp_path):
        db = Database()
        db.create_table("w", [("pos", INTEGER), ("note", TEXT)], primary_key=["pos"])
        db.insert("w", [(1, "x" * 5000), (2, "short"), (3, None), (4, "y\u2603" * 500)])
        db.create_table("n", [("pos", INTEGER)])
        db.insert("n", [(i,) for i in range(600)])
        save_database(db, str(tmp_path))
        tables = {e["name"]: e for e in json.loads((tmp_path / "catalog.json").read_text())["tables"]}
        assert tables["w"]["pages"]["page_size"] == 8192  # 4096 fits no 5000-byte value
        assert tables["n"]["pages"]["page_size"] == 4096  # a narrow table keeps its size
        sqls = ["SELECT * FROM w ORDER BY pos", "SELECT pos FROM w WHERE note = 'short'",
                "SELECT COUNT(*) FROM n"]
        want = [db.sql(q).rows for q in sqls]
        in_memory = load_database(str(tmp_path))
        paged = load_database(str(tmp_path), memory_budget_bytes=16384)
        try:
            assert not getattr(in_memory.table("w"), "is_paged", False) and paged.table("w").is_paged
            for loaded in (in_memory, paged):
                assert [loaded.sql(q).rows for q in sqls] == want
                assert loaded.table("w").digest() == db.table("w").digest()
        finally:
            paged.table("w").close()
            paged.table("n").close()
            paged.buffer_pool.close()


class TestWarehouseClose:
    @staticmethod
    def _open_under(directory):
        held = []
        for fd in os.listdir("/proc/self/fd"):
            try:
                target = os.readlink(f"/proc/self/fd/{fd}")
            except OSError:
                continue
            if target.startswith(directory):
                held.append(target)
        return held

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs procfs")
    def test_close_releases_every_descriptor_under_the_dump(self, tmp_path):
        from repro.warehouse import DataWarehouse, create_sequence_table

        wh = DataWarehouse()
        create_sequence_table(wh.db, "seq", 400, seed=2)
        wh.create_view("mv", "SELECT pos, SUM(val) OVER (ORDER BY pos "
                       "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) s FROM seq")
        dump = str(tmp_path / "dump")
        wh.save(dump, page_size=512)

        loaded = DataWarehouse.load(dump, memory_budget_bytes=2048)
        loaded.update_measure("seq", keys={"pos": 7}, value_col="val",
                              new_value=1.0)  # dirties pages -> overlay
        loaded.query("SELECT pos, val FROM seq")
        assert self._open_under(dump)  # the .pages files are open
        loaded.close()
        assert self._open_under(dump) == []
        assert loaded.db.buffer_pool.occupancy_bytes() == 0
        loaded.close()  # a second close is a no-op
        assert self._open_under(dump) == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs procfs")
    @pytest.mark.filterwarnings("error::ResourceWarning")
    def test_dropped_and_displaced_paged_tables_are_closed(self, tmp_path):
        import gc

        from repro.warehouse import DataWarehouse, create_sequence_table

        wh = DataWarehouse()
        for name in ("t", "u", "v"):
            create_sequence_table(wh.db, name, 400, seed=2)
        dump = str(tmp_path / "dump")
        wh.save(dump, page_size=512)

        loaded = DataWarehouse.load(dump, memory_budget_bytes=2048)
        pool = loaded.db.buffer_pool
        for name in ("t", "u", "v"):
            loaded.query(f"SELECT pos, val FROM {name}")
        assert len(self._open_under(dump)) == 3
        loaded.db.drop_table("t")
        loaded.db.rename_table("u", "v", replace=True)  # displaces v
        gc.collect()  # an unclosed file would warn here
        assert self._open_under(dump) == [os.path.join(dump, "data", "u.pages")]
        assert {os.path.basename(path) for path, _ in pool.resident_keys()} <= {
            "u.pages"
        }
        loaded.close()
        assert self._open_under(dump) == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs procfs")
    @pytest.mark.parametrize("budget", [None, 2048])
    def test_a_corrupt_page_file_is_closed_by_the_failed_load(self, tmp_path, budget):
        from repro.errors import PageCorruptError
        from repro.warehouse import DataWarehouse, create_sequence_table

        wh = DataWarehouse()
        create_sequence_table(wh.db, "seq", 400, seed=2)
        dump = str(tmp_path / "dump")
        wh.save(dump, page_size=512)
        path = os.path.join(dump, "data", "seq.pages")
        with open(path, "r+b") as fh:
            fh.seek(20)  # inside the first page's chunk header
            byte = fh.read(1)
            fh.seek(20)
            fh.write(bytes([byte[0] ^ 0xFF]))
        # The index rebuild of a paged load faults every page in as well.
        # Holding the exception keeps its frames alive: the fd must be
        # closed by the load, not by their garbage collection.
        with pytest.raises(PageCorruptError) as excinfo:
            DataWarehouse.load(dump, memory_budget_bytes=budget)
        assert self._open_under(dump) == []
        assert excinfo.value is not None

    def test_in_memory_warehouse_closes_trivially(self):
        from repro.warehouse import DataWarehouse

        with DataWarehouse() as wh:
            wh.create_table("s", [("pos", "INTEGER")])
        wh.close()
