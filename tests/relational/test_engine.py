"""Database facade: DDL/DML, catalog, execution."""

import pytest

from repro.errors import CatalogError
from repro.relational import Database, FLOAT, INTEGER, col


@pytest.fixture
def db():
    return Database()


class TestCatalog:
    def test_create_and_get(self, db):
        db.create_table("t", [("a", INTEGER)])
        assert db.table("t").name == "t"

    def test_string_type_names(self, db):
        t = db.create_table("t", [("a", "INT"), ("b", "VARCHAR")])
        assert t.schema.column("a").type.name == "INTEGER"
        assert t.schema.column("b").type.name == "TEXT"

    def test_duplicate_table(self, db):
        db.create_table("t", [("a", INTEGER)])
        with pytest.raises(CatalogError):
            db.create_table("t", [("a", INTEGER)])

    def test_if_not_exists(self, db):
        first = db.create_table("t", [("a", INTEGER)])
        again = db.create_table("t", [("a", INTEGER)], if_not_exists=True)
        assert first is again

    def test_drop(self, db):
        db.create_table("t", [("a", INTEGER)])
        db.drop_table("t")
        with pytest.raises(CatalogError):
            db.table("t")

    def test_drop_if_exists(self, db):
        db.drop_table("ghost", if_exists=True)
        with pytest.raises(CatalogError):
            db.drop_table("ghost")

    def test_names_listing(self, db):
        db.create_table("b", [("x", INTEGER)])
        db.create_table("a", [("x", INTEGER)])
        assert db.catalog.names() == ["a", "b"]


class TestDml:
    def test_insert_returns_count(self, db):
        db.create_table("t", [("a", INTEGER)])
        assert db.insert("t", [(1,), (2,), (3,)]) == 3

    def test_index_creation_via_db(self, db):
        db.create_table("t", [("a", INTEGER)])
        db.insert("t", [(3,), (1,)])
        db.create_index("t", "by_a", ["a"])
        assert db.table("t").find_index(["a"]) is not None
        db.drop_index("t", "by_a")
        assert db.table("t").find_index(["a"]) is None


class TestExecution:
    def test_run_and_sql_agree(self, db):
        db.create_table("t", [("pos", INTEGER), ("val", FLOAT)], primary_key=["pos"])
        db.insert("t", [(i, float(i)) for i in range(1, 6)])
        from repro.relational.operators import Sort

        plan = Sort(db.scan("t"), [(col("pos"), True)])
        res1 = db.run(plan)
        res2 = db.sql("SELECT pos, val FROM t ORDER BY pos")
        assert res1.rows == res2.rows

    def test_explain_sql(self, db):
        db.create_table("t", [("pos", INTEGER)])
        text = db.explain_sql("SELECT pos FROM t")
        assert "TableScan(t)" in text

    def test_stats_threaded(self, db):
        db.create_table("t", [("pos", INTEGER)])
        db.insert("t", [(i,) for i in range(7)])
        res = db.run(db.scan("t"))
        assert res.stats.rows_scanned == 7
        assert "scanned=7" in res.stats.summary()

    def test_stats_merge(self):
        from repro.relational.stats import ExecutionStats

        a = ExecutionStats(rows_scanned=5, pairs_examined=2)
        b = ExecutionStats(rows_scanned=3)
        a.merge(b)
        assert a.rows_scanned == 8 and a.pairs_examined == 2
