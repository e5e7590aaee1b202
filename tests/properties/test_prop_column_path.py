"""The column path against the row path, bit for bit.

An operator that is handed a :class:`~repro.columns.ColumnRows` may stay on
NumPy; handed anything else it runs its row loop.  Every generated plan is
therefore run twice — as planned, and with each scan wrapped in
:class:`RowsOnly`, a test-only operator that yields plain tuples and so
forces every parent onto its row loop — and the two executions must agree
on every value (floats by their eight bytes), every value's type, every
``ExecutionStats`` counter, what the window operator reports about itself
and what ``EXPLAIN ANALYZE`` would print per node.  The cases NumPy cannot
order or evaluate the way Python does (NULL, NaN, TEXT keys, computed
arguments, ranking, RANGE) must observably take the row loop.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataWarehouse
from repro.columns import ColumnRows
from repro.relational.engine import Database
from repro.relational.operators import Operator, TableScan
from repro.relational.stats import ExecutionStats, Probe
from repro.sql.options import QueryOptions
from repro.sql.parser import parse_query
from repro.sql.planner import build_plan
from repro.sql.window_exec import WindowOperator

COLUMNS = [("g", "INTEGER"), ("k", "INTEGER"), ("f", "FLOAT"), ("t", "TEXT"),
           ("v", "FLOAT"), ("b", "BOOLEAN")]


class RowsOnly(Operator):
    """Hands its child's output on as plain tuples."""

    def __init__(self, child):
        self.child = child
        self.schema = child.schema

    def execute(self, stats):
        return iter(list(self.child.run(stats)))

    def children(self):
        return (self.child,)


def force_rows(plan):
    """Wrap every table scan of ``plan`` in :class:`RowsOnly`, in place."""
    if isinstance(plan, TableScan):
        return RowsOnly(plan)
    for attr in ("child", "left", "right"):
        child = getattr(plan, attr, None)
        if isinstance(child, Operator):
            setattr(plan, attr, force_rows(child))
    return plan


def nodes(plan):
    out = [plan]
    for child in plan.children():
        out.extend(nodes(child))
    return out


def window_extra(plan):
    return [dict(n.analyze_extra) for n in nodes(plan) if isinstance(n, WindowOperator)]


def cell(value):
    return (type(value), struct.pack("<d", value) if isinstance(value, float) else value)


def execute(db, sql, *, rows_only):
    """``(outcome, counters, window analyze_extra, rows_out per node)``;
    an exception is an outcome too (a NULL sort key raises on both paths)."""
    plan = build_plan(db, parse_query(sql), QueryOptions())
    if rows_only:
        plan = force_rows(plan)
    stats = ExecutionStats()
    stats.probe = probe = Probe(plan)
    try:
        result = db.run(plan, stats)
        outcome = [tuple(cell(v) for v in row) for row in result.rows]
        assert len(result) == len(outcome)
    except (TypeError, ValueError) as exc:
        outcome = type(exc)
    stats.probe = None
    rows_out = [
        (type(n).__name__, probe.measures[id(n)].rows_out)
        for n in nodes(plan)
        if not isinstance(n, RowsOnly)
    ]
    extras = window_extra(plan)
    return outcome, stats.counters(), extras, rows_out


def assert_paths_agree(db, sql):
    got = execute(db, sql, rows_only=False)
    want = execute(db, sql, rows_only=True)
    inputs = [extra.pop("input", None) for extra in got[2]]
    assert all(extra.pop("input") == "rows" for extra in want[2])
    assert got == want, sql
    return inputs


def make_db(rows):
    db = Database()
    db.create_table("t", COLUMNS)
    db.insert("t", rows)
    return db


# -- generated plans ------------------------------------------------------------

floats = st.sampled_from(
    [-0.0, 0.0, 0.1, 0.2, 0.3, 1.5, -2.25, 1e16, -1e16, 1.0, 5e-324, 1e300])


@st.composite
def tables(draw):
    null_keys = draw(st.booleans())
    nan_keys = draw(st.integers(0, 5)) == 0
    key = st.integers(-2, 4)
    rows = draw(st.lists(
        st.tuples(
            st.one_of(st.none(), key) if null_keys else st.integers(0, 3),
            st.one_of(st.none(), key) if null_keys else key,
            st.one_of(floats, st.just(float("nan"))) if nan_keys else floats,
            st.sampled_from(["a", "b", "c"]),
            st.one_of(st.none(), floats),
            st.booleans(),
        ),
        min_size=0, max_size=40))
    return rows


FRAMES = ["ROWS BETWEEN {l} PRECEDING AND {h} FOLLOWING", "ROWS UNBOUNDED PRECEDING"]


@st.composite
def clauses(draw, allow_fallbacks):
    func = draw(st.sampled_from(["SUM", "AVG", "COUNT", "MIN", "MAX"]))
    arg = "*" if func == "COUNT" and draw(st.booleans()) else "v"
    partition = draw(st.sampled_from(["", "g", "g, b", "b"]))
    order_cols = draw(st.lists(st.sampled_from(["k", "f", "b"]), min_size=1,
                               max_size=2, unique=True))
    if allow_fallbacks:
        kind = draw(st.integers(0, 5))
        if kind == 0:
            arg = "v + 1"
        elif kind == 1:
            partition = "t"
        elif kind == 2:
            order_cols = ["t"]
        elif kind == 3:
            order = ", ".join(order_cols)
            return f"{draw(st.sampled_from(['ROW_NUMBER', 'RANK']))}() OVER (ORDER BY {order})"
    order = ", ".join(
        f"{c} {draw(st.sampled_from(['ASC', 'DESC']))}" for c in order_cols)
    frame = draw(st.sampled_from(FRAMES)).format(
        l=draw(st.integers(0, 5)), h=draw(st.integers(0, 5)))
    over = (f"PARTITION BY {partition} " if partition else "") + f"ORDER BY {order} {frame}"
    return f"{func}({arg}) OVER ({over})"


WHERES = ["", " WHERE k BETWEEN 0 AND 2", " WHERE k > 100", " WHERE k >= -100",
          " WHERE v > 0", " WHERE f < 1.0 AND b = TRUE", " WHERE 1 <= k",
          " WHERE g = 1 OR k = 2"]
ORDERS = ["", " ORDER BY k DESC, g", " ORDER BY f, k", " ORDER BY t"]


@st.composite
def queries(draw):
    allow_fallbacks = draw(st.integers(0, 3)) == 0
    n = draw(st.integers(1, 3))
    drawn = [draw(clauses(allow_fallbacks)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        drawn[-1] = drawn[0]  # textually identical: dedup
    select = ", ".join(f"{c} AS w{i}" for i, c in enumerate(drawn))
    return (f"SELECT g, k, {select} FROM t"
            + draw(st.sampled_from(WHERES)) + draw(st.sampled_from(ORDERS)))


@settings(max_examples=250, deadline=None)
@given(rows=tables(), sql=queries())
def test_column_path_equals_row_path(rows, sql):
    assert_paths_agree(make_db(rows), sql)


# -- the column path is taken where it should be ----------------------------------

ROWS = [(i % 3, (i * 7) % 5, float(i % 4) - 0.5, "abc"[i % 3],
         None if i % 6 == 0 else i * 0.1, i % 2 == 0) for i in range(30)]

OVER = "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING"


@pytest.mark.parametrize("sql", [
    f"SELECT k, SUM(v) OVER (ORDER BY k {OVER}) AS w FROM t",
    f"SELECT g, k, SUM(v) OVER (PARTITION BY g ORDER BY k {OVER}) AS w FROM t",
    f"SELECT k, MAX(v) OVER (ORDER BY k DESC, f {OVER}) AS w FROM t",
    f"SELECT k, AVG(v) OVER (PARTITION BY b ORDER BY f DESC {OVER}) AS w FROM t",
    "SELECT k, SUM(v) OVER (ORDER BY k ROWS UNBOUNDED PRECEDING) AS w FROM t "
    "WHERE k BETWEEN 1 AND 3",
    f"SELECT k, COUNT(*) OVER (ORDER BY k {OVER}) AS w FROM t WHERE v > 0.5",
    f"SELECT k, SUM(v) OVER (ORDER BY k {OVER}) AS w FROM t WHERE k > 100",
    f"SELECT k, SUM(v) OVER (ORDER BY k {OVER}) AS w FROM t ORDER BY k DESC, w",
])
def test_plain_clauses_stay_on_columns(sql):
    db = make_db(ROWS)
    assert assert_paths_agree(db, sql) == ["columns"]
    plan = build_plan(db, parse_query(sql), QueryOptions())
    assert isinstance(plan.run(ExecutionStats()), ColumnRows)


def test_sort_sharing_and_dedup_on_columns():
    db = make_db(ROWS)
    sql = (f"SELECT k, SUM(v) OVER (PARTITION BY g ORDER BY k {OVER}) AS w0, "
           "MAX(v) OVER (PARTITION BY g ORDER BY k ROWS UNBOUNDED PRECEDING) AS w1, "
           f"SUM(v) OVER (PARTITION BY g ORDER BY k {OVER}) AS w2 FROM t")
    assert assert_paths_agree(db, sql) == ["columns"]
    plan = build_plan(db, parse_query(sql), QueryOptions())
    db.run(plan)
    (extra,) = window_extra(plan)
    assert extra["shared_sorts"] == 1 and extra["deduped"] == 1 and extra["groups"] == 3


def test_duplicate_order_keys_keep_input_order():
    # Every key ties: a stable sort leaves input order, so the cumulative
    # sums are the prefix sums of the measures as inserted.
    db = make_db([(0, 1, 0.0, "a", float(i), True) for i in range(1, 9)])
    result = db.sql("SELECT k, SUM(v) OVER (ORDER BY k DESC ROWS UNBOUNDED "
                    "PRECEDING) AS w FROM t")
    assert result.column("w") == [1.0, 3.0, 6.0, 10.0, 15.0, 21.0, 28.0, 36.0]


# -- every fallback trigger takes the row loop --------------------------------------

NULL_KEY_ROWS = ROWS + [(None, None, 0.5, "a", 1.0, True)]
NAN_KEY_ROWS = ROWS + [(1, 1, float("nan"), "a", 1.0, True)]


@pytest.mark.parametrize("rows, sql", [
    (NULL_KEY_ROWS, f"SELECT k, SUM(v) OVER (PARTITION BY g ORDER BY f {OVER}) AS w FROM t"),
    (NAN_KEY_ROWS, f"SELECT k, SUM(v) OVER (ORDER BY f {OVER}) AS w FROM t"),
    (ROWS, f"SELECT k, SUM(v) OVER (ORDER BY t {OVER}) AS w FROM t"),
    (ROWS, f"SELECT k, SUM(v) OVER (PARTITION BY t ORDER BY k {OVER}) AS w FROM t"),
    (ROWS, f"SELECT k, SUM(v * 2) OVER (ORDER BY k {OVER}) AS w FROM t"),
    (ROWS, f"SELECT k, SUM(v) OVER (ORDER BY k + 1 {OVER}) AS w FROM t"),
    (ROWS, "SELECT k, RANK() OVER (ORDER BY k) AS w FROM t"),
    (ROWS, "SELECT k, SUM(v) OVER (ORDER BY k RANGE BETWEEN 1 PRECEDING AND "
           "1 FOLLOWING) AS w FROM t"),
    (ROWS, f"SELECT k, SUM(v) OVER (ORDER BY k {OVER}) AS w FROM t WHERE g = 1 OR k = 2"),
    (ROWS, f"SELECT k, w FROM (SELECT k, v + 0 AS u, SUM(v) OVER (ORDER BY k {OVER}) "
           "AS w FROM t) d"),
], ids=["null-key", "nan-key", "text-order-key", "text-partition-key",
        "computed-argument", "computed-key", "ranking", "range-frame",
        "filter-needs-rows", "derived-table"])
def test_fallback_triggers_take_the_row_loop(rows, sql):
    inputs = assert_paths_agree(make_db(rows), sql)
    # The derived table's window operator is still columnar; what follows
    # its computed projection is not, and agrees all the same.
    assert inputs == (["columns"] if "FROM (" in sql else ["rows"])


def test_spill_budget_leaves_the_column_path_alone():
    """The budget bounds what the row loop builds; a plan that never builds
    rows has nothing to spill, and one that does spills as before — to the
    same values."""
    db = make_db(ROWS)
    db.memory_budget_bytes = 8 * len(ROWS)  # half a window column
    sql = f"SELECT k, SUM(v) OVER (ORDER BY k {OVER}) AS w FROM t"
    got = execute(db, sql, rows_only=False)
    want = execute(db, sql, rows_only=True)
    assert (got[0], got[1], got[3]) == (want[0], want[1], want[3])
    assert got[2][0]["input"] == "columns" and "spilled_runs" not in got[2][0]
    assert want[2][0]["input"] == "rows" and want[2][0]["spilled_runs"] == 1


# -- a result owns its values ---------------------------------------------------------


def test_result_is_unaffected_by_a_later_in_place_update():
    wh = DataWarehouse()
    wh.create_table("seq", [("pos", "INTEGER"), ("val", "FLOAT")], primary_key=["pos"])
    wh.insert("seq", [(i, float(i)) for i in range(1, 11)])
    passed_through = wh.query("SELECT pos, val FROM seq")
    windowed = wh.query("SELECT pos, val, SUM(val) OVER (ORDER BY pos ROWS BETWEEN "
                        "1 PRECEDING AND 0 FOLLOWING) AS w FROM seq")
    assert passed_through._rows is None and windowed._rows is None  # still columns
    wh.update_measure("seq", keys={"pos": 3}, value_col="val", new_value=-99.0)
    assert passed_through.column("val")[2] == 3.0
    assert passed_through.rows[2] == (3, 3.0)
    assert windowed.rows[2] == (3, 3.0, 5.0)
    assert wh.query("SELECT pos, val FROM seq").rows[2] == (3, -99.0)
