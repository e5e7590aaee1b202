"""A result's declared column types tell the truth about its values.

Projections are drawn as SQL text over a table with a column of every
type (and NULLs): literals, arithmetic, predicates, ``CASE``, ``COALESCE``
and the scalar functions, nested.  Every value of a column must be of the
kind its declared type names (NULL fits every type), in the embedded
result and in the reply a :class:`~repro.serve.client.ServeClient` reads.
"""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlanError
from repro.serve import ConcurrentWarehouse
from repro.serve.client import ServeClient
from repro.serve.server import ServeServer
from repro.warehouse import DataWarehouse

COLUMNS = [("i", "INTEGER"), ("f", "FLOAT"), ("s", "TEXT"), ("b", "BOOLEAN"), ("d", "DATE")]
ROWS = [
    (3, 2.5, "ab", True, datetime.date(2020, 1, 31)),
    (-7, -0.25, "b%", False, datetime.date(2021, 12, 1)),
    (None, None, None, None, None),
    (0, 1e6, "", True, datetime.date(1999, 6, 15)),
]
KINDS = {
    "INTEGER": int,
    "FLOAT": float,
    "TEXT": str,
    "BOOLEAN": bool,
    "DATE": datetime.date,
}


def _leaf(column, literals):
    return st.one_of(st.just(column), st.sampled_from(literals))


integers = st.recursive(
    _leaf("i", ["0", "4", "-3", "NULL"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        inner.map(lambda e: f"(- {e})"),
        inner.map(lambda e: f"ABS({e})"),
        inner.map(lambda e: f"MOD({e}, 3)"),
        st.sampled_from(["MONTH(d)", "YEAR(d)", "DAY(d)"]),
    ),
    max_leaves=4,
)
floats = st.recursive(
    st.one_of(_leaf("f", ["1.5", "-0.5", "NULL"]), integers.map(lambda e: f"({e} / 2)")),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*"), st.one_of(inner, integers)).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        inner.map(lambda e: f"ABS({e})"),
        inner.map(lambda e: f"({e} / 4)"),
    ),
    max_leaves=4,
)
numbers = st.one_of(integers, floats)
texts = _leaf("s", ["'x'", "''", "NULL"])
dates = st.just("d")
booleans = st.recursive(
    st.one_of(
        _leaf("b", ["TRUE", "FALSE"]),
        st.tuples(numbers, st.sampled_from(["=", "<>", "<", "<=", ">", ">="]), numbers).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        numbers.map(lambda e: f"({e} IS NULL)"),
        texts.map(lambda e: f"({e} IS NOT NULL)"),
        integers.map(lambda e: f"({e} IN (1, 3, NULL))"),
        st.just("(s LIKE 'a%')"),
    ),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["AND", "OR"]), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        inner.map(lambda e: f"(NOT {e})"),
    ),
    max_leaves=4,
)


@st.composite
def branching(draw, values):
    """``CASE`` or ``COALESCE`` whose branches are drawn from ``values``."""
    a, b = draw(values), draw(values)
    if draw(st.booleans()):
        return f"COALESCE({a}, {b})"
    otherwise = draw(st.one_of(values, st.just("NULL")))
    return f"CASE WHEN {draw(booleans)} THEN {a} ELSE {otherwise} END"


expressions = st.one_of(
    integers, floats, texts, dates, booleans, st.just("NULL"),
    branching(integers), branching(floats), branching(numbers),
    branching(texts), branching(dates), branching(booleans),
)


def _table(wh):
    wh.create_table("t", COLUMNS)
    wh.insert("t", ROWS)
    return wh


def _check(types, rows, sql):
    for i, type_name in enumerate(types):
        for row in rows:
            value = row[i]
            assert value is None or type(value) is KINDS[type_name], (
                sql, i, type_name, value)


def _select(items):
    return "SELECT " + ", ".join(f"{e} AS c{i}" for i, e in enumerate(items)) + " FROM t"


def test_a_text_literal_is_declared_text():
    result = _table(DataWarehouse()).query("SELECT 'x' AS s, i FROM t")
    assert [c.type.name for c in result.schema] == ["TEXT", "INTEGER"]


def test_mixed_numeric_branches_promote_their_integers():
    result = _table(DataWarehouse()).query(
        "SELECT CASE WHEN i > 0 THEN i ELSE f END AS c, COALESCE(f, 0) AS z FROM t")
    assert [c.type.name for c in result.schema] == ["FLOAT", "FLOAT"]
    assert result.rows[0] == (3.0, 2.5) and type(result.rows[0][0]) is float
    assert result.rows[2] == (None, 0.0) and type(result.rows[2][1]) is float


ILL_TYPED = [
    "SELECT b + 1 AS x, s + s AS y FROM t",
    "SELECT (i + 1) * b AS x FROM t",
    "SELECT d - 1 AS x FROM t",
    "SELECT MOD(s, 2) AS x FROM t",
    "SELECT i FROM t WHERE s + 1 > 0",
    "SELECT SUM(i * b) AS x FROM t",
]


MIXED = [
    "SELECT i, CASE WHEN i > 2 THEN 'a' ELSE 1 END AS c FROM t",
    "SELECT COALESCE(s, d) AS c FROM t",
    "SELECT CASE WHEN b THEN f ELSE b END AS c FROM t",
]


@pytest.mark.parametrize("sql", MIXED)
def test_branches_of_unrelated_types_are_a_plan_error(sql, client):
    with pytest.raises(PlanError, match="unrelated types"):
        _table(DataWarehouse()).query(sql)
    with pytest.raises(PlanError, match="unrelated types"):
        client.query(sql)
    assert client.query("SELECT i + 1 AS x FROM t")["types"] == ["INTEGER"]


@pytest.mark.parametrize("sql", ILL_TYPED)
def test_arithmetic_over_a_non_number_is_a_plan_error(sql):
    with pytest.raises(PlanError, match="numeric operands"):
        _table(DataWarehouse()).query(sql)


@settings(max_examples=150, deadline=None)
@given(items=st.lists(expressions, min_size=1, max_size=4))
def test_declared_types_match_values_embedded(items):
    sql = _select(items)
    result = _table(DataWarehouse()).query(sql)
    _check([c.type.name for c in result.schema], result.rows, sql)


@pytest.fixture(scope="module")
def client():
    cw = _table(ConcurrentWarehouse())
    with ServeServer(cw) as server, ServeClient(port=server.port) as connected:
        yield connected


@settings(max_examples=60, deadline=None)
@given(items=st.lists(expressions, min_size=1, max_size=4))
def test_declared_types_match_values_served(client, items):
    sql = _select(items)
    reply = client.query(sql)
    _check(reply["types"], [list(row) for row in reply["rows"]], sql)


@pytest.mark.parametrize("sql", ILL_TYPED)
def test_arithmetic_over_a_non_number_is_a_plan_error_served(client, sql):
    with pytest.raises(PlanError, match="numeric operands"):
        client.query(sql)
    # A refused query leaves the connection usable.
    assert client.query("SELECT i + 1 AS x FROM t")["types"] == ["INTEGER"]
