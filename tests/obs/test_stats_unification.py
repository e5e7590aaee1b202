"""ExecutionStats behaviour: the counter block, and who publishes it when."""

import pickle
import sys
import threading

import pytest

from repro.core.window import sliding
from repro.obs import runtime
from repro.obs.metrics import MetricsRegistry
from repro.relational.engine import Database
from repro.relational.operators import TableScan
from repro.relational.stats import ExecutionStats
from repro.relational.types import FLOAT, INTEGER
from repro.sql.patterns import self_join_window
from repro.warehouse import DataWarehouse, create_sequence_table


class TestCounterBlock:
    def test_keyword_constructor(self):
        stats = ExecutionStats(rows_scanned=5, pairs_examined=2)
        assert stats.rows_scanned == 5
        assert stats.pairs_examined == 2
        assert stats.rows_joined == 0

    def test_unknown_constructor_kwarg_raises(self):
        with pytest.raises(TypeError):
            ExecutionStats(bogus=1)

    def test_bump_unknown_counter_raises(self):
        with pytest.raises(AttributeError):
            ExecutionStats().bump(bogus=1)

    def test_unknown_attribute_cannot_be_set(self):
        with pytest.raises(AttributeError):
            ExecutionStats().rows_teleported = 1

    def test_attribute_read_write(self):
        stats = ExecutionStats()
        stats.rows_scanned += 3
        stats.rows_scanned += 4
        assert stats.rows_scanned == 7

    def test_summary_format(self):
        stats = ExecutionStats(rows_scanned=1, pairs_examined=2)
        assert stats.summary() == (
            "scanned=1 pairs=2 index_lookups=0 joined=0 aggregated=0 "
            "groups=0 sorted=0"
        )

    def test_merge_adds_counters(self):
        a = ExecutionStats(rows_scanned=1)
        b = ExecutionStats(rows_scanned=2, rows_joined=5)
        a.merge(b)
        assert a.rows_scanned == 3
        assert a.rows_joined == 5

    def test_pickle_round_trip(self):
        stats = ExecutionStats(rows_scanned=9, rows_sorted=1)
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.rows_scanned == 9 and clone.rows_sorted == 1
        clone.bump(rows_scanned=1)  # the lock was rebuilt
        assert clone.rows_scanned == 10

    def test_query_result_pickles(self):
        db = _scan_db()
        result = pickle.loads(pickle.dumps(db.run(TableScan(db.table("t")))))
        assert result.stats.rows_scanned == 10

    def test_bump_and_merge_lose_nothing_under_thread_switching(self):
        total = ExecutionStats()
        rounds, workers = 400, 8

        def worker():
            for _ in range(rounds):
                total.bump(rows_sorted=1)
                total.merge(ExecutionStats(rows_joined=2))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(previous)
        assert total.rows_sorted == rounds * workers
        assert total.rows_joined == 2 * rounds * workers


def _scan_db():
    db = Database()
    t = db.create_table("t", [("pos", INTEGER), ("val", FLOAT)])
    t.insert_many([(i, float(i)) for i in range(10)])
    return db


class TestPublishedOncePerOwnedExecution:
    def test_publish_uses_the_layer_metric_names(self):
        target = MetricsRegistry()
        runtime.publish_stats(
            ExecutionStats(rows_scanned=4, rows_sorted=2), target
        )
        assert target.value("repro_engine_rows_scanned_total") == 4
        assert target.value("repro_engine_rows_sorted_total") == 2
        # Untouched counters are exposed too, at zero.
        assert target.get("repro_engine_rows_joined_total") is not None

    def test_engine_publishes_stats_it_created(self):
        db = _scan_db()
        registry = MetricsRegistry()
        with runtime.use(registry=registry):
            db.run(TableScan(db.table("t")))
            db.run(TableScan(db.table("t")))
        assert registry.value("repro_engine_rows_scanned_total") == 20
        assert registry.value("repro_engine_queries_total") == 2

    def test_engine_skips_caller_owned_stats(self):
        db = _scan_db()
        registry = MetricsRegistry()
        stats = ExecutionStats()
        with runtime.use(registry=registry):
            db.run(TableScan(db.table("t")), stats)
        # The caller owns the block; nothing was published on its behalf.
        assert registry.value("repro_engine_rows_scanned_total") == 0
        assert stats.rows_scanned == 10

    def test_explain_analyze_publishes_like_a_query(self):
        db = _scan_db()
        registry = MetricsRegistry()
        with runtime.use(registry=registry):
            db.explain_analyze("SELECT pos FROM t")
        assert registry.value("repro_engine_rows_scanned_total") == 10
        assert registry.value("repro_engine_queries_total") == 1


WINDOW = (
    "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING "
    "AND 1 FOLLOWING) AS s FROM seq ORDER BY pos"
)

# What the parent of the plain-stats change (commit aaa01b4) exposed after
# _fixed_query_list(), when ExecutionStats was a view over a private
# registry that was merged into the global one (the last two window
# queries then ran on a thread pool; its three counters have since gone).
SEED_METRICS = {
    "repro_engine_groups_emitted_total": 184,
    "repro_engine_index_lookups_total": 60,
    "repro_engine_pairs_examined_total": 7618,
    "repro_engine_queries_total": 11,
    "repro_engine_rows_aggregated_total": 1331,
    "repro_engine_rows_joined_total": 1331,
    "repro_engine_rows_scanned_total": 849,
    "repro_engine_rows_sorted_total": 800,
}


def _fixed_query_list():
    """Scan/filter/sort, aggregate, both join kinds, window, EXPLAIN
    ANALYZE, a relational view derivation, then three native window
    queries."""
    wh = DataWarehouse()
    create_sequence_table(wh.db, "seq", 60, seed=3)
    db = wh.db
    db.sql("SELECT pos, val FROM seq WHERE pos <= 20 ORDER BY val")
    db.sql(
        "SELECT MOD(pos, 4) AS g, SUM(val) AS s, COUNT(*) AS c "
        "FROM seq GROUP BY MOD(pos, 4)"
    )
    db.sql(
        "SELECT s1.pos, SUM(s2.val) AS s FROM seq s1, seq s2 "
        "WHERE s2.pos BETWEEN s1.pos - 1 AND s1.pos + 1 "
        "GROUP BY s1.pos ORDER BY s1.pos"
    )
    db.run(self_join_window(db, "seq", window=sliding(1, 1), use_index=True))
    db.sql(WINDOW)
    db.explain_analyze(WINDOW)
    wh.create_view(
        "mv",
        "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 "
        "PRECEDING AND 1 FOLLOWING) AS s FROM seq",
    )
    wh.query(
        "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 "
        "PRECEDING AND 1 FOLLOWING) AS s FROM seq ORDER BY pos",
        mode="relational",
    )
    for _ in range(3):
        wh.query(WINDOW, use_views=False)


class TestSameMetricsAsTheSeed:
    def test_names_and_values_equal_the_seed(self):
        registry = MetricsRegistry()
        with runtime.use(registry=registry):
            _fixed_query_list()
        got = {
            inst.name: inst.value
            for inst in registry.instruments()
            if inst.name.startswith("repro_engine_")
            and inst.name.endswith("_total")
            and not inst.labels
        }
        assert got == SEED_METRICS


class TestRuntimeScoping:
    def test_use_restores_previous_tracer_and_registry(self):
        from repro.obs.trace import Tracer

        before_t, before_r = runtime.get_tracer(), runtime.get_registry()
        with runtime.use(tracer=Tracer(), registry=MetricsRegistry()):
            assert runtime.get_tracer() is not before_t
            assert runtime.get_registry() is not before_r
        assert runtime.get_tracer() is before_t
        assert runtime.get_registry() is before_r
