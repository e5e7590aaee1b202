"""Golden-plan snapshots and cost-model properties of the planner.

The snapshots pin the *shape* of the plan plus the planner's note on three
fresh-statistics fixtures (tiny, uniform large, skewed partitioned) and
without statistics.  The property tests state the contracts the cost model
must keep: cost is monotonic in the row count, a window plan and its rows
do not depend on the statistics' state, and EXPLAIN ANALYZE estimates stay
within the documented q-error bound on analyzed data.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import Database, FLOAT, INTEGER
from repro.sql.parser import parse_query
from repro.sql.planner import build_plan
from repro.stats.cost import CostModel

# The documented estimation bound on freshly analyzed fixtures (DESIGN.md
# §5i): est/actual and actual/est both stay under this factor.
Q_ERROR_BOUND = 2.0

WINDOW_SQL = (
    "SELECT pos, MIN(val) OVER ({over} ROWS BETWEEN 4 PRECEDING "
    "AND 4 FOLLOWING) AS m FROM seq"
)


def make_db(n, groups=1, seed=7):
    rng = random.Random(seed)
    db = Database()
    db.create_table("seq", [("g", INTEGER), ("pos", INTEGER), ("val", FLOAT)])
    db.insert("seq", [(1 + i % groups, i, rng.uniform(-100, 100)) for i in range(n)])
    return db


def make_db_without_stats(n):
    db = Database()
    db.create_table("seq", [("g", INTEGER), ("pos", INTEGER), ("val", FLOAT)])
    # Direct table writes never collect statistics.
    db.table("seq").insert_many([(1, i, float(i)) for i in range(n)])
    assert db.stats.get("seq") is None
    return db


def plan_for(db, *, groups=1, sql=None):
    over = "PARTITION BY g ORDER BY pos" if groups > 1 else "ORDER BY pos"
    text = (sql or WINDOW_SQL).format(over=over)
    return build_plan(db, parse_query(text))


def window_op(plan):
    from repro.sql.window_exec import WindowOperator

    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, WindowOperator):
            return node
        stack.extend(node.children())
    raise AssertionError("no window operator in plan")


class TestGoldenPlans:
    """Plan-shape snapshots: operator tree and the planner's note."""

    GOLDEN = (
        "Project(pos AS pos, m AS m)\n"
        "  WindowOperator(MIN(val) ROWS BETWEEN 4 PRECEDING AND 4 FOLLOWING AS m)\n"
        "    TableScan(seq)"
    )

    def test_uniform_large_cost_plan(self):
        plan = plan_for(make_db(4000))
        assert plan.explain() == self.GOLDEN
        assert plan.planner_notes == [
            "window[m]: serial (est_rows=4000, est_groups=1, est_cost=4000.0)"
        ]

    def test_tiny_cost_plan_stays_pipelined(self):
        # One kernel at every size: 120 rows plan exactly like 4000.
        plan = plan_for(make_db(120))
        assert plan.explain() == self.GOLDEN
        assert plan.planner_notes == [
            "window[m]: serial (est_rows=120, est_groups=1, est_cost=120.0)"
        ]

    def test_skewed_partitioned_cost_plan(self):
        db = make_db(3000, groups=6)
        plan = plan_for(db, groups=6)
        assert plan.explain() == self.GOLDEN
        note = plan.planner_notes[0]
        # The NDV of the partition column feeds the group estimate.
        assert "est_groups=6" in note

    def test_rule_plan_never_annotates_decisions(self):
        # The no-statistics golden: same shape, the estimate is the
        # table's length, and there is no decision for the note to list.
        plan = plan_for(make_db_without_stats(4000))
        assert plan.explain() == self.GOLDEN
        assert plan.planner_notes == [
            "window[m]: serial (est_rows=4000, est_groups=1, est_cost=4000.0)"
        ]

    def test_every_operator_carries_estimates(self):
        db = make_db(400)
        plan = plan_for(db)
        stack = [plan]
        while stack:
            node = stack.pop()
            est = node.analyze_est
            assert set(est) == {"est_rows", "est_cost"}
            assert est["est_rows"] >= 0 and est["est_cost"] >= 0
            stack.extend(node.children())

    def test_estimates_annotated_even_in_rule_mode(self):
        # Without statistics the estimate is the table's length.
        plan = plan_for(make_db_without_stats(400))
        assert plan.analyze_est["est_rows"] == 400


class TestDegradation:
    """The state of the statistics moves estimates, never the plan or its
    rows: there is one kernel, so there is nothing for them to decide."""

    SQL = WINDOW_SQL.format(over="ORDER BY pos")

    def _assert_same_as_fresh(self, db):
        """``db``'s window plan and rows against the same data re-analyzed."""
        plan, rows = plan_for(db), db.sql(self.SQL).rows
        db.stats.analyze(db.table("seq"))
        assert db.stats.fresh(db.table("seq")) is not None
        fresh = plan_for(db)
        assert plan.explain() == fresh.explain() == TestGoldenPlans.GOLDEN
        assert plan.planner_notes[0].startswith("window[m]: serial (")
        assert window_op(plan).specs == window_op(fresh).specs
        assert rows == db.sql(self.SQL).rows
        assert len(rows) == len(db.table("seq"))

    def test_absent_stats_degrade_to_rule(self):
        db = make_db(4000)
        db.stats.clear()
        self._assert_same_as_fresh(db)

    def test_stale_stats_degrade_to_rule(self):
        db = make_db(4000)
        # Grow the table 50% behind the catalog's back: stats go stale.
        db.table("seq").insert_many(
            [(1, 4000 + i, float(i % 7)) for i in range(2000)]
        )
        assert db.stats.is_stale(db.table("seq"))
        self._assert_same_as_fresh(db)

    def test_stale_stats_still_annotate_estimates(self):
        db = make_db(4000)
        db.table("seq").insert_many([(1, 4000 + i, 1.0) for i in range(2000)])
        plan = plan_for(db)
        # Estimation uses what the catalog has (possibly off).
        assert plan.analyze_est["est_rows"] == 4000


class TestCostProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(min_value=0, max_value=10**6),
        extra=st.integers(min_value=1, max_value=10**5),
    )
    def test_window_cost_monotonic_in_rows(self, rows, extra):
        cm = CostModel()
        assert cm.window_cost(rows + extra) >= cm.window_cost(rows)

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(min_value=0, max_value=10**6),
           extra=st.integers(min_value=1, max_value=10**5))
    def test_relational_costs_monotonic_in_rows(self, rows, extra):
        cm = CostModel()
        for fn in (cm.scan_cost, cm.filter_cost, cm.sort_cost,
                   cm.aggregate_cost, cm.project_cost, cm.distinct_cost):
            assert fn(rows + extra) >= fn(rows)

    @settings(max_examples=25, deadline=None)
    @given(n_small=st.integers(min_value=10, max_value=300),
           factor=st.integers(min_value=2, max_value=20))
    def test_plan_cost_monotonic_in_table_size(self, n_small, factor):
        small = plan_for(make_db(n_small))
        large = plan_for(make_db(n_small * factor))
        assert large.analyze_est["est_cost"] >= small.analyze_est["est_cost"]
        assert large.analyze_est["est_rows"] >= small.analyze_est["est_rows"]


class TestEstimateAccuracy:
    """EXPLAIN ANALYZE estimated vs. actual rows on analyzed fixtures."""

    def _est_actual_pairs(self, text):
        import re

        pairs = []
        for m in re.finditer(r"est rows=(\d+).*?actual rows=(\d+)", text):
            pairs.append((int(m.group(1)), int(m.group(2))))
        return pairs

    @pytest.mark.parametrize("n,groups", [(400, 1), (1500, 4)])
    def test_analyzed_fixture_within_bound(self, n, groups):
        db = make_db(n, groups=groups)
        over = "PARTITION BY g ORDER BY pos" if groups > 1 else "ORDER BY pos"
        text = db.explain_analyze(WINDOW_SQL.format(over=over))
        pairs = self._est_actual_pairs(text)
        assert pairs, f"no est/actual annotations in:\n{text}"
        for est, actual in pairs:
            q = max(max(est, 1) / max(actual, 1), max(actual, 1) / max(est, 1))
            assert q <= Q_ERROR_BOUND, (est, actual, text)

    def test_filtered_query_within_bound(self):
        db = make_db(2000, groups=4)
        text = db.explain_analyze(
            "SELECT pos FROM seq WHERE pos < 1000 AND g = 2"
        )
        for est, actual in self._est_actual_pairs(text):
            q = max(max(est, 1) / max(actual, 1), max(actual, 1) / max(est, 1))
            assert q <= Q_ERROR_BOUND, (est, actual, text)

    def test_planner_section_rendered(self):
        db = make_db(4000)
        text = db.explain_analyze(WINDOW_SQL.format(over="ORDER BY pos"))
        assert "Planner:\n  window[m]: serial (est_rows=4000," in text


class TestQErrorSlowLog:
    """Misestimated queries are force-kept in the slow-query log."""

    def test_misestimate_recorded_despite_fast_runtime(self):
        from repro.warehouse import DataWarehouse

        wh = DataWarehouse()
        wh.enable_slow_query_log(threshold_ms=1e9)  # nothing is "slow" by time
        wh.create_table("seq", [("g", INTEGER), ("pos", INTEGER), ("val", FLOAT)])
        wh.insert("seq", [(1, i, float(i)) for i in range(200)])
        # Triple the table behind the catalog's back: the row estimate is
        # now off by 3x, beyond the documented bound.
        wh.db.table("seq").insert_many([(1, 200 + i, 1.0) for i in range(400)])
        result = wh.query("SELECT pos, val FROM seq", use_views=False)
        assert result.q_error == pytest.approx(3.0)
        entries = wh.slow_queries.entries()
        assert len(entries) == 1
        assert entries[0]["q_error"] == pytest.approx(3.0)

    def test_accurate_fast_query_not_kept(self):
        from repro.warehouse import DataWarehouse

        wh = DataWarehouse()
        wh.enable_slow_query_log(threshold_ms=1e9)
        wh.create_table("seq", [("g", INTEGER), ("pos", INTEGER), ("val", FLOAT)])
        wh.insert("seq", [(1, i, float(i)) for i in range(200)])
        result = wh.query("SELECT pos, val FROM seq", use_views=False)
        assert result.q_error == pytest.approx(1.0)
        assert wh.slow_queries.entries() == []
