"""One operator plane: ``execute`` for subclasses, ``run`` for callers.

A single plan holding every :class:`Operator` subclass is run plain, under
an enabled tracer, and under EXPLAIN ANALYZE.  All three must agree on the
rows and the counters, the measured runs must agree with each other on
rows out per node, and none of them may leave anything behind on the plan.
"""

import re

import pytest

import repro.sql.window_exec  # noqa: F401  (registers WindowOperator)
from repro.core.window import sliding
from repro.obs import runtime
from repro.obs.explain import explain_analyze_plan
from repro.obs.instrument import span_name_for
from repro.obs.trace import Tracer
from repro.relational import (
    AggSpec,
    Alias,
    Database,
    Distinct,
    FLOAT,
    Filter,
    HashAggregate,
    HashJoin,
    INTEGER,
    IndexNestedLoopJoin,
    Limit,
    NestedLoopJoin,
    Project,
    Sort,
    UnionAll,
    col,
    lit,
)
from repro.relational.operators import Operator
from repro.sql.ast_nodes import OrderItem
from repro.sql.window_exec import WindowColumnSpec, WindowOperator


def _db() -> Database:
    db = Database()
    db.create_table(
        "t", [("pos", INTEGER), ("g", INTEGER), ("val", FLOAT)],
        primary_key=["pos"],
    )
    db.insert(
        "t",
        [(i, i % 3, None if i == 4 else i * 1.5 - 7.0) for i in range(1, 13)],
    )
    return db


def _plan(db: Database) -> Operator:
    t = db.table("t")
    band = IndexNestedLoopJoin(
        Filter(db.scan("t", alias="s1"), col("pos").le(lit(10))),
        t, "t_pk", alias="s2",
        band_low=[col("pos") - lit(1)], band_high=[col("pos") + lit(1)],
        join_type="left",
    )
    sums = HashAggregate(
        band,
        [(col("pos", "s1"), "pos"), (col("g", "s1"), "g")],
        [AggSpec("SUM", col("val", "s2"), "s")],
    )
    window = WindowOperator(
        sums,
        [
            WindowColumnSpec(
                "SUM", col("s"), (col("g"),), (OrderItem(col("pos")),),
                sliding(1, 1), "w",
            )
        ],
    )
    derived = Alias(window, "d")
    hashed = HashJoin(
        derived, db.scan("t", alias="h"), [col("pos", "d")], [col("pos", "h")]
    )
    nested = NestedLoopJoin(
        hashed,
        Limit(db.scan("t", alias="n"), 2),
        col("pos", "n").le(col("pos", "d")),
    )
    left = Project(
        nested,
        [(col("pos", "d"), "pos"), (col("g", "d"), "g"), (col("w", "d"), "w")],
    )
    right = Project(
        Filter(db.scan("t", alias="u"), col("val").gt(lit(0.0))),
        [(col("pos"), "pos"), (col("g"), "g"), (col("val"), "w")],
    )
    ordered = Sort(
        Distinct(UnionAll([left, right])), [(col("pos"), True), (col("w"), False)]
    )
    return Limit(ordered, 20, offset=1)


def _nodes(plan: Operator):
    yield plan
    for child in plan.children():
        yield from _nodes(child)


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def _run_plain(db, plan):
    return db.run(plan), None


def _run_traced(db, plan):
    tracer = Tracer()
    with runtime.use(tracer=tracer):
        result = db.run(plan)
    spans = [s for s in tracer.spans() if s.name != "query.run"]
    nodes = list(_nodes(plan))
    assert len(spans) == len(nodes)  # one span per node
    by_ordinal = {s.attributes["node"]: s for s in spans}
    assert sorted(by_ordinal) == list(range(len(nodes)))
    for ordinal, node in enumerate(nodes):
        assert by_ordinal[ordinal].name == span_name_for(node)
    return result, [by_ordinal[i].attributes["rows_out"] for i in range(len(nodes))]


def _run_explain(db, plan):
    text, result = explain_analyze_plan(db, plan)
    tree = text.split("\nExecution time:")[0].splitlines()
    assert len(tree) == len(list(_nodes(plan)))
    assert "batches=" not in text and "never executed" not in text
    return result, [int(re.search(r"actual rows=(\d+)", line).group(1)) for line in tree]


RUNNERS = {"plain": _run_plain, "traced": _run_traced, "explain": _run_explain}


@pytest.fixture(scope="module")
def reference():
    db = _db()
    result = db.run(_plan(db))
    db = _db()
    _result, annotated = _run_explain(db, _plan(db))
    return result.rows, result.stats.counters(), annotated


def test_plan_holds_every_operator_subclass():
    db = _db()
    shipped = {
        cls for cls in _all_subclasses(Operator) if cls.__module__.startswith("repro.")
    }
    assert {type(n) for n in _nodes(_plan(db))} == shipped


@pytest.mark.parametrize("mode", sorted(RUNNERS))
def test_every_mode_agrees_and_leaves_the_plan_alone(mode, reference):
    rows, counters, annotated = reference
    assert len(rows) > 5
    db = _db()
    plan = _plan(db)
    before = {id(n): dict(vars(n)) for n in _nodes(plan)}

    result, rows_out = RUNNERS[mode](db, plan)

    assert result.rows == rows
    assert result.stats.counters() == counters
    if rows_out is not None:
        # Spans' rows_out, the annotated "actual rows", and a second
        # measured execution all say the same thing.
        assert rows_out == annotated
        assert rows_out[0] == len(rows)
    for node in _nodes(plan):
        was = before[id(node)]
        assert set(vars(node)) == set(was), type(node).__name__
        for name, value in vars(node).items():
            # The window operator's report of its last run is the one slot
            # an execution writes; everything else is the same object.
            if name != "analyze_extra":
                assert value is was[name], (type(node).__name__, name)

    again, rows_out_again = RUNNERS[mode](db, plan)
    assert again.rows == rows
    assert again.stats.counters() == counters
    assert rows_out_again == rows_out


def test_never_pulled_node_renders_as_never_executed():
    db = _db()
    plan = Limit(UnionAll([db.scan("t"), db.scan("t", alias="late")]), 2)
    text, result = explain_analyze_plan(db, plan)
    assert len(result.rows) == 2
    assert "TableScan(t AS late)  (never executed)" in text
