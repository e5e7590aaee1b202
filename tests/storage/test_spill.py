"""Spilling execution state: SpillStore framing, window runs, aggregates."""

import numpy as np
import pytest

from repro.errors import RelationalError
from repro.relational import Database, FLOAT, INTEGER
from repro.storage.spill import (
    SpillStore,
    SpilledFloatRun,
    active_budget,
    engine_budget,
)


class TestBudgetContext:
    def test_default_is_unlimited(self):
        assert active_budget() is None

    def test_budget_scopes_and_restores(self):
        with engine_budget(1000):
            assert active_budget() == 1000
            with engine_budget(50):
                assert active_budget() == 50
            assert active_budget() == 1000
        assert active_budget() is None


class TestSpillStore:
    def test_float_round_trip(self):
        store = SpillStore()
        try:
            values = np.linspace(-5, 5, 300)
            handle = store.write_floats(values)
            assert np.array_equal(store.read_floats(handle), values)
        finally:
            store.close()

    def test_obj_round_trip(self):
        store = SpillStore()
        try:
            obj = [(("k",), [(3, 1.5, None)])]
            assert store.read_obj(store.write_obj(obj)) == obj
        finally:
            store.close()

    def test_torn_block_detected(self):
        store = SpillStore()
        try:
            handle = store.write_floats(np.ones(10))
            store._fh.seek(handle[0] + 20)
            store._fh.write(b"\xff")  # corrupt a body byte in place
            with pytest.raises(RelationalError, match="failed verification"):
                store.read_floats(handle)
        finally:
            store.close()

    def test_interleaved_blocks_stay_separate(self):
        store = SpillStore()
        try:
            a = store.write_floats(np.arange(5, dtype=np.float64))
            b = store.write_obj({"x": 1})
            c = store.write_floats(np.arange(3, dtype=np.float64) * -1)
            assert list(store.read_floats(a)) == [0, 1, 2, 3, 4]
            assert store.read_obj(b) == {"x": 1}
            assert list(store.read_floats(c)) == [0, -1, -2]
        finally:
            store.close()


class TestSpilledFloatRun:
    def test_sequential_and_random_access(self):
        store = SpillStore()
        try:
            values = np.random.default_rng(5).normal(size=20000)
            run = SpilledFloatRun(store, values, chunk=4096)
            assert len(run) == 20000
            assert [run[i] for i in range(20000)] == list(values)
            assert run[0] == values[0]  # random re-read after the cache moved
        finally:
            store.close()

    def test_float64_round_trip_is_bit_identical(self):
        store = SpillStore()
        try:
            values = np.array([1/3, 1e-300, -0.0, 2**53 + 1.0])
            run = SpilledFloatRun(store, values, chunk=2)
            got = np.array([run[i] for i in range(len(values))])
            assert got.tobytes() == values.tobytes()
        finally:
            store.close()


def build_db(rows: int) -> Database:
    import random

    rng = random.Random(13)
    db = Database()
    db.create_table("t", [("g", INTEGER), ("pos", INTEGER), ("val", FLOAT)])
    db.insert(
        "t", [(i % 7, i, rng.uniform(-50, 50)) for i in range(rows)]
    )
    return db


# A computed argument keeps the window operator on its row loop, which is
# what builds the state the budget bounds; on columns nothing spills.
WINDOW_SQL = (
    "SELECT g, pos, "
    "SUM(val + 0) OVER (PARTITION BY g ORDER BY pos ROWS BETWEEN 3 PRECEDING "
    "AND 2 FOLLOWING) AS s, "
    "AVG(val) OVER (PARTITION BY g ORDER BY pos ROWS BETWEEN 5 PRECEDING "
    "AND CURRENT ROW) AS a "
    "FROM t ORDER BY g, pos"
)
AGG_SQL = (
    "SELECT g, SUM(val) AS s, COUNT(*) AS c, MIN(val) AS lo, MAX(val) AS hi "
    "FROM t GROUP BY g ORDER BY g"
)


class TestEngineUnderBudget:
    def test_window_query_bit_identical(self):
        db = build_db(3000)
        reference = db.sql(WINDOW_SQL).rows
        db.memory_budget_bytes = 8 * 1024
        assert db.sql(WINDOW_SQL).rows == reference

    def test_window_runs_actually_spill(self):
        db = build_db(3000)
        db.memory_budget_bytes = 8 * 1024
        out = db.explain_analyze(WINDOW_SQL)
        assert "spilled_runs" in out

    def test_aggregate_under_budget_matches_to_last_ulp(self):
        db = build_db(4000)
        reference = db.sql(AGG_SQL).rows
        db.memory_budget_bytes = 1024
        got = db.sql(AGG_SQL).rows
        assert len(got) == len(reference)
        for r, g in zip(reference, got):
            # COUNT/MIN/MAX and group order are exact; SUM/AVG partials
            # may differ in the last ulp (documented, DESIGN.md §5j).
            assert (g[0], g[2], g[3], g[4]) == (r[0], r[2], r[3], r[4])
            assert g[1] == pytest.approx(r[1], rel=1e-12)

    def test_aggregate_partitions_actually_spill(self):
        # 9000 rows cross the operator's 4096-row spill check twice, so the
        # answer below really is a merge of spilled partials.
        from repro.obs import runtime
        from repro.obs.metrics import MetricsRegistry

        db = build_db(9000)
        reference = db.sql(AGG_SQL).rows
        db.memory_budget_bytes = 1024
        registry = MetricsRegistry()
        with runtime.use(registry=registry):
            got = db.sql(AGG_SQL).rows
        assert registry.value("repro_spill_blocks_total") >= 2
        assert len(got) == len(reference)
        for r, g in zip(reference, got):
            assert (g[0], g[2], g[3], g[4]) == (r[0], r[2], r[3], r[4])
            assert g[1] == pytest.approx(r[1], rel=1e-12)

    def test_spill_metrics_counted(self):
        from repro.obs import runtime
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        db = build_db(3000)
        db.memory_budget_bytes = 4 * 1024
        with runtime.use(registry=registry):
            db.sql(WINDOW_SQL)
        text = registry.to_prometheus()
        assert "repro_spill_blocks_total" in text
        assert "repro_spill_bytes_total" in text

    def test_no_budget_means_no_spill(self):
        db = build_db(1000)
        out = db.explain_analyze(WINDOW_SQL)
        assert "spilled_runs" not in out
