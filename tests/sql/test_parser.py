"""SQL parser: statements, expressions, the OVER clause of fig. 1."""

import pytest

from repro.core.window import WindowSpec, cumulative, sliding
from repro.errors import ParseError, UnsupportedSqlError
from repro.relational.expr import And, CaseExpr, Coalesce, ColumnRef, Comparison, FuncCall, InList
from repro.sql.ast_nodes import AggregateCall, WindowCall
from repro.sql.parser import parse_expression, parse_select


class TestSelectShape:
    def test_basic(self):
        stmt = parse_select("SELECT a, b FROM t")
        assert [i.value.name for i in stmt.items] == ["a", "b"]
        assert stmt.tables[0].name == "t"

    def test_aliases(self):
        stmt = parse_select("SELECT a AS x, b y FROM t AS u")
        assert [i.alias for i in stmt.items] == ["x", "y"]
        assert stmt.tables[0].alias == "u"
        assert stmt.tables[0].binding == "u"

    def test_star(self):
        stmt = parse_select("SELECT * FROM t")
        assert stmt.items[0].star

    def test_multiple_tables(self):
        stmt = parse_select("SELECT a FROM t1, t2 b, t3")
        assert [(t.name, t.alias) for t in stmt.tables] == [
            ("t1", None), ("t2", "b"), ("t3", None)]

    def test_where_group_having_order_limit(self):
        stmt = parse_select(
            "SELECT g, SUM(v) AS s FROM t WHERE v > 0 GROUP BY g "
            "HAVING s > 10 ORDER BY g DESC LIMIT 5")
        assert stmt.where is not None
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.order_by[0].ascending is False
        assert stmt.limit == 5

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_select("SELECT a FROM t banana split")

    def test_missing_from(self):
        with pytest.raises(ParseError):
            parse_select("SELECT a")


class TestAggregatesAndWindows:
    def test_plain_aggregate(self):
        stmt = parse_select("SELECT SUM(v) FROM t")
        call = stmt.items[0].value
        assert isinstance(call, AggregateCall)
        assert call.func == "SUM"

    def test_count_star(self):
        stmt = parse_select("SELECT COUNT(*) FROM t")
        assert stmt.items[0].value.arg is None

    def test_star_only_for_count(self):
        with pytest.raises(ParseError):
            parse_select("SELECT SUM(*) FROM t")

    def test_window_call(self):
        stmt = parse_select(
            "SELECT SUM(v) OVER (PARTITION BY p ORDER BY o "
            "ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) FROM t")
        call = stmt.items[0].value
        assert isinstance(call, WindowCall)
        assert [p.name for p in call.over.partition_by] == ["p"]
        assert call.over.window() == sliding(1, 1)

    def test_paper_intro_query_parses(self):
        stmt = parse_select("""
            SELECT c_date, c_transaction,
            SUM(c_transaction) OVER -- overall cumulative sum
            ( ORDER BY c_date ROWS UNBOUNDED PRECEDING ) AS cum_sum_total,
            SUM(c_transaction) OVER -- cumulative sum per month
            ( PARTITION BY month(c_date) ORDER BY c_date
              ROWS UNBOUNDED PRECEDING ) AS cum_sum_month,
            AVG(c_transaction) OVER -- centered 3 day moving average
            ( PARTITION BY month(c_date), l_region ORDER BY c_date
              ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS c_3mvg_avg,
            AVG(c_transaction) OVER -- prospective 7 day moving average
            ( ORDER BY c_date
              ROWS BETWEEN CURRENT ROW AND 6 FOLLOWING) AS c_7mvg_avg
            FROM c_transactions, l_locations
            WHERE c_locid = l_locid AND c_custid = 4711
        """)
        calls = stmt.window_calls()
        assert len(calls) == 4
        assert calls[0].over.window() == cumulative()
        assert calls[1].over.window() == cumulative()
        assert calls[2].over.window() == sliding(1, 1)
        assert calls[3].over.window() == sliding(0, 6)

    def test_frame_single_bound(self):
        stmt = parse_select("SELECT SUM(v) OVER (ORDER BY o ROWS 3 PRECEDING) FROM t")
        assert stmt.window_calls()[0].over.window() == sliding(3, 0)

    def test_default_frame_is_cumulative(self):
        stmt = parse_select("SELECT SUM(v) OVER (ORDER BY o) FROM t")
        assert stmt.window_calls()[0].over.window() == cumulative()

    def test_over_without_order_unsupported(self):
        stmt = parse_select("SELECT SUM(v) OVER () FROM t")
        with pytest.raises(UnsupportedSqlError):
            stmt.window_calls()[0].over.window()

    def test_unbounded_following_unsupported(self):
        stmt = parse_select(
            "SELECT SUM(v) OVER (ORDER BY o ROWS BETWEEN CURRENT ROW AND "
            "UNBOUNDED FOLLOWING) FROM t")
        with pytest.raises(UnsupportedSqlError):
            stmt.window_calls()[0].over.window()

    def test_backwards_frame_unsupported(self):
        stmt = parse_select(
            "SELECT SUM(v) OVER (ORDER BY o ROWS BETWEEN 5 PRECEDING AND "
            "2 PRECEDING) FROM t")
        with pytest.raises(UnsupportedSqlError):
            stmt.window_calls()[0].over.window()

    def test_nested_aggregate_rejected(self):
        with pytest.raises(UnsupportedSqlError):
            parse_select("SELECT 1 + SUM(v) FROM t")

    def test_distinct_window_rejected(self):
        with pytest.raises(UnsupportedSqlError):
            parse_select("SELECT SUM(DISTINCT v) OVER (ORDER BY o) FROM t")


class TestExpressions:
    def test_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert str(expr) == "(1 + (2 * 3))"

    def test_parentheses(self):
        expr = parse_expression("(1 + 2) * 3")
        assert str(expr) == "((1 + 2) * 3)"

    def test_boolean_precedence(self):
        expr = parse_expression("a = 1 OR b = 2 AND c = 3")
        assert str(expr) == "((a = 1) OR ((b = 2) AND (c = 3)))"

    def test_not(self):
        expr = parse_expression("NOT a = 1")
        assert str(expr) == "(NOT (a = 1))"

    def test_in_list(self):
        expr = parse_expression("pos IN (1, 2, 3)")
        assert isinstance(expr, InList)

    def test_date_literal_prints_as_it_parses(self):
        import datetime

        expr = parse_expression("day >= DATE '2002-03-06'")
        assert expr.right.value == datetime.date(2002, 3, 6)
        assert parse_expression(str(expr)) == expr
        assert isinstance(parse_expression("date"), ColumnRef)
        with pytest.raises(ParseError, match="DATE literal"):
            parse_expression("DATE '2002-13-01'")

    def test_between_desugars(self):
        expr = parse_expression("x BETWEEN 1 AND 5")
        assert isinstance(expr, And)
        assert str(expr) == "((x >= 1) AND (x <= 5))"

    def test_is_null(self):
        assert str(parse_expression("x IS NULL")) == "(x IS NULL)"
        assert str(parse_expression("x IS NOT NULL")) == "(x IS NOT NULL)"

    def test_case(self):
        expr = parse_expression("CASE WHEN a = 1 THEN b ELSE -b END")
        assert isinstance(expr, CaseExpr)

    def test_case_requires_when(self):
        with pytest.raises(ParseError):
            parse_expression("CASE ELSE 1 END")

    def test_coalesce(self):
        assert isinstance(parse_expression("COALESCE(a, 0)"), Coalesce)

    def test_functions(self):
        expr = parse_expression("MOD(pos, 4)")
        assert isinstance(expr, FuncCall) and expr.name == "MOD"

    def test_unknown_function(self):
        with pytest.raises(ParseError):
            parse_expression("FROBNICATE(x)")

    def test_qualified_column(self):
        expr = parse_expression("s1.pos")
        assert isinstance(expr, ColumnRef)
        assert (expr.qualifier, expr.name) == ("s1", "pos")

    def test_literals(self):
        assert parse_expression("NULL").value is None
        assert parse_expression("TRUE").value is True
        assert parse_expression("3.5").value == 3.5
        assert parse_expression("'x'").value == "x"

    def test_unary_signs(self):
        assert str(parse_expression("-x")) == "(0 - x)"
        assert str(parse_expression("+x")) == "x"
