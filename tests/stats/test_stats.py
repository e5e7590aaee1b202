"""The statistics subsystem: collection, selectivity, staleness, and
persistence of ANALYZE results through the storage catalog."""

import pytest

from repro.relational import Database, FLOAT, INTEGER, TEXT
from repro.relational.expr import And, Comparison, Not, Or, col, lit
from repro.stats.catalog import StatsCatalog
from repro.stats.collect import ColumnStats, TableStats, collect_table_stats
from repro.stats.cost import DEFAULT_SELECTIVITY, predicate_selectivity


@pytest.fixture
def db():
    db = Database()
    db.create_table("t", [("g", INTEGER), ("pos", INTEGER), ("val", FLOAT)])
    # 400 rows, 4 groups, dense positions, values 0..399 with 40 NULLs.
    rows = [
        (1 + i % 4, i, None if i % 10 == 0 else float(i)) for i in range(400)
    ]
    db.insert("t", rows)  # auto-ANALYZEs (below AUTO_ANALYZE_MAX_ROWS)
    return db


class TestCollection:
    def test_row_count_and_per_column(self, db):
        stats = db.stats.get("t")
        assert stats is not None
        assert stats.row_count == 400
        g = stats.column("g")
        assert g.count == 400
        assert g.ndv == 4
        assert g.nulls == 0
        pos = stats.column("pos")
        assert pos.ndv == 400
        assert (pos.min_value, pos.max_value) == (0.0, 399.0)

    def test_null_fraction(self, db):
        val = db.stats.get("t").column("val")
        assert val.nulls == 40
        assert val.null_fraction == pytest.approx(0.1)
        assert val.non_null == 360

    def test_equi_depth_bounds_ascending_to_max(self, db):
        pos = db.stats.get("t").column("pos")
        assert pos.bounds == tuple(sorted(pos.bounds))
        assert pos.bounds[-1] == pos.max_value

    def test_equi_depth_adapts_to_skew(self):
        # 90% of values in [0, 1), the rest spread over [100, 1000): most
        # bucket boundaries must land in the dense region — that is the
        # point of equi-depth over equi-width.
        db = Database()
        db.create_table("s", [("x", FLOAT)])
        values = [i / 900.0 for i in range(900)] + [100.0 + i * 9 for i in range(100)]
        db.insert("s", [(v,) for v in values])
        x = db.stats.get("s").column("x")
        dense = sum(1 for b in x.bounds if b < 1.0)
        assert dense >= len(x.bounds) * 3 // 4

    def test_non_numeric_column_has_no_histogram(self):
        db = Database()
        db.create_table("s", [("tag", TEXT)])
        db.insert("s", [("a",), ("b",), ("b",)])
        tag = db.stats.get("s").column("tag")
        assert tag.min_value is None and tag.bounds == ()
        assert tag.ndv == 2

    def test_sampled_collection_scales_ndv(self):
        db = Database()
        db.create_table("big", [("id", INTEGER), ("k", INTEGER)])
        db.table("big").insert_many([(i, i % 7) for i in range(5000)])
        stats = collect_table_stats(db.table("big"), sample_limit=500)
        assert stats.row_count == 5000
        uid = stats.column("id")
        assert uid.sampled
        # Near-unique sample: NDV scales with the table, capped at row count.
        assert uid.ndv > 1000
        k = stats.column("k")
        # Heavily repeated sample: the sample saw the whole domain.
        assert k.ndv == 7


class TestSelectivity:
    def test_equality_uses_ndv_and_nulls(self, db):
        g = db.stats.get("t").column("g")
        assert g.selectivity_eq(2) == pytest.approx(1.0 / 4)
        val = db.stats.get("t").column("val")
        assert val.selectivity_eq(50.0) == pytest.approx(0.9 / 360)

    def test_out_of_range_equality_is_near_zero(self, db):
        pos = db.stats.get("t").column("pos")
        assert pos.selectivity_eq(10_000) <= 1.0 / 400 + 1e-9

    def test_range_interpolates_histogram(self, db):
        pos = db.stats.get("t").column("pos")
        # Uniform 0..399: the median splits roughly in half.
        assert pos.selectivity_cmp("<", 200) == pytest.approx(0.5, abs=0.05)
        assert pos.selectivity_cmp(">=", 200) == pytest.approx(0.5, abs=0.05)
        assert pos.selectivity_cmp("<=", 399) == pytest.approx(1.0, abs=0.01)

    def test_predicate_combinators(self, db):
        stats = db.stats.get("t")
        eq = Comparison("=", col("g"), lit(2))
        lt = Comparison("<", col("pos"), lit(200))
        s_eq = predicate_selectivity(eq, stats)
        s_lt = predicate_selectivity(lt, stats)
        assert predicate_selectivity(And(eq, lt), stats) == pytest.approx(s_eq * s_lt)
        assert predicate_selectivity(Or(eq, lt), stats) == pytest.approx(
            s_eq + s_lt - s_eq * s_lt
        )
        assert predicate_selectivity(Not(eq), stats) == pytest.approx(1.0 - s_eq)

    def test_two_bounds_on_one_column_are_one_range(self, db):
        """``BETWEEN`` over a uniform key estimates within 2x of the rows it
        returns — as one AND, as the planner's stacked filters, written
        either way round, with NULLs in the column — not as a product."""
        stats = db.stats.get("t")
        ge, le = Comparison(">=", col("pos"), lit(100)), Comparison("<=", col("pos"), lit(119))
        rows = predicate_selectivity(And(ge, le), stats) * 400
        assert 10 <= rows <= 40  # 20 match
        mirrored = And(Comparison("<=", lit(100), col("pos")), And(le, Comparison("=", col("g"), lit(2))))
        assert predicate_selectivity(mirrored, stats) * 400 == pytest.approx(rows / 4, rel=0.05)
        val = And(Comparison(">", col("val"), lit(99.5)), Comparison("<", col("val"), lit(139.5)))
        assert 18 <= predicate_selectivity(val, stats) * 400 <= 72  # 36 match, 4 are NULL
        empty = And(Comparison(">=", col("pos"), lit(300)), le)
        assert predicate_selectivity(empty, stats) * 400 == pytest.approx(1.0)  # floored at a row
        out = db.explain_analyze("SELECT pos FROM t WHERE pos BETWEEN 100 AND 119")
        filters = [line for line in out.splitlines() if "Filter" in line]
        assert len(filters) == 2  # stacked, estimated as one conjunction
        est = int(filters[0].split("est rows=")[1].split(",")[0])
        assert 10 <= est <= 40 and "actual rows=20" in filters[0]

    def test_is_null_uses_null_fraction(self, db):
        stats = db.stats.get("t")
        assert predicate_selectivity(col("val").is_null(), stats) == pytest.approx(0.1)

    def test_in_list_sums_equalities(self, db):
        stats = db.stats.get("t")
        pred = col("g").in_([1, 2])
        assert predicate_selectivity(pred, stats) == pytest.approx(0.5)

    def test_unknown_falls_back_to_default(self, db):
        assert predicate_selectivity(col("g").eq(col("pos")), None) == DEFAULT_SELECTIVITY
        assert (
            predicate_selectivity(col("g").eq(col("pos")), db.stats.get("t"))
            == DEFAULT_SELECTIVITY
        )


class TestStaleness:
    def test_fresh_after_analyze(self, db):
        assert db.stats.fresh(db.table("t")) is not None
        assert not db.stats.is_stale(db.table("t"))

    def test_drift_beyond_threshold_goes_stale(self, db):
        # Direct table writes bypass the engine's auto-ANALYZE.
        db.table("t").insert_many([(1, 400 + i, 1.0) for i in range(200)])
        assert db.stats.is_stale(db.table("t"))
        assert db.stats.fresh(db.table("t")) is None
        # The (stale) statistics themselves remain readable.
        assert db.stats.get("t").row_count == 400

    def test_small_drift_stays_fresh(self, db):
        db.table("t").insert_many([(1, 400 + i, 1.0) for i in range(10)])
        assert db.stats.fresh(db.table("t")) is not None

    def test_missing_stats_is_stale(self):
        catalog = StatsCatalog()
        db = Database()
        db.create_table("u", [("x", INTEGER)])
        assert catalog.is_stale(db.table("u"))
        assert catalog.fresh(db.table("u")) is None

    def test_drop_and_rename_follow_the_table(self, db):
        db.rename_table("t", "t2")
        assert db.stats.get("t") is None
        assert db.stats.get("t2").table == "t2"
        db.drop_table("t2")
        assert db.stats.get("t2") is None


class TestPersistence:
    def test_stats_dict_round_trip(self, db):
        stats = db.stats.get("t")
        clone = TableStats.from_dict(stats.to_dict())
        assert clone == stats

    def test_column_stats_dict_round_trip(self):
        cs = ColumnStats(
            name="x", count=10, nulls=2, ndv=5,
            min_value=0.0, max_value=9.0, bounds=(3.0, 6.0, 9.0), sampled=True,
        )
        assert ColumnStats.from_dict(cs.to_dict()) == cs

    def test_save_load_preserves_statistics(self, db, tmp_path):
        from repro.relational.persist import load_database, save_database

        save_database(db, str(tmp_path))
        loaded = load_database(str(tmp_path))
        stats = loaded.stats.get("t")
        assert stats == db.stats.get("t")
        assert not loaded.stats.is_stale(loaded.table("t"))

    def test_load_without_stats_entry_reanalyzes_small_tables(self, db, tmp_path):
        from repro.relational.persist import load_database, save_database

        db.stats.drop("t")  # dump carries no statistics for the table
        save_database(db, str(tmp_path))
        loaded = load_database(str(tmp_path))
        stats = loaded.stats.get("t")
        assert stats is not None and stats.row_count == 400
