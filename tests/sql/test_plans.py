"""Golden-plan snapshots of the planner.

The snapshots pin the *shape* of the plan on three fixtures (tiny,
uniform large, skewed partitioned) and on a table filled behind the
database's back: one window kernel serves every size and partitioning,
so the plan is the same tree each time and carries no estimate.
"""

import random

from repro.relational import Database, FLOAT, INTEGER
from repro.sql.parser import parse_query
from repro.sql.planner import build_plan

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


def make_db_by_direct_writes(n):
    db = Database()
    db.create_table("seq", [("g", INTEGER), ("pos", INTEGER), ("val", FLOAT)])
    db.table("seq").insert_many([(1, i, float(i)) for i in range(n)])
    return db


def plan_for(db, *, groups=1, sql=None):
    over = "PARTITION BY g ORDER BY pos" if groups > 1 else "ORDER BY pos"
    text = (sql or WINDOW_SQL).format(over=over)
    return build_plan(db, parse_query(text))


class TestGoldenPlans:
    """Plan-shape snapshots: the operator tree."""

    GOLDEN = (
        "Project(pos AS pos, m AS m)\n"
        "  WindowOperator(MIN(val) ROWS BETWEEN 4 PRECEDING AND 4 FOLLOWING AS m)\n"
        "    TableScan(seq)"
    )

    def test_uniform_large_cost_plan(self):
        assert plan_for(make_db(4000)).explain() == self.GOLDEN

    def test_tiny_cost_plan_stays_pipelined(self):
        # One kernel at every size: 120 rows plan exactly like 4000.
        assert plan_for(make_db(120)).explain() == self.GOLDEN

    def test_skewed_partitioned_cost_plan(self):
        plan = plan_for(make_db(3000, groups=6), groups=6)
        assert plan.explain() == self.GOLDEN

    def test_rule_plan_never_annotates_decisions(self):
        # However the table was filled, the plan is the same tree and no
        # operator carries an estimate or a planner note.
        plan = plan_for(make_db_by_direct_writes(4000))
        assert plan.explain() == self.GOLDEN
        stack = [plan]
        while stack:
            node = stack.pop()
            assert not hasattr(node, "analyze_est")
            assert not hasattr(node, "planner_notes")
            stack.extend(node.children())
