"""Recursive-descent parser for the SQL subset.

Grammar (informal)::

    select   := SELECT item ("," item)* FROM tref ("," tref)*
                [WHERE expr] [GROUP BY expr ("," expr)*] [HAVING expr]
                [ORDER BY order ("," order)*] [LIMIT number]
    item     := "*" | value [[AS] ident]
    value    := agg "(" ["*" | [DISTINCT] expr] ")" [over] | expr
    over     := OVER "(" [PARTITION BY exprs] [ORDER BY orders] [frame] ")"
    frame    := ROWS (bound | BETWEEN bound AND bound)
    bound    := UNBOUNDED (PRECEDING|FOLLOWING) | number (PRECEDING|FOLLOWING)
                | CURRENT ROW

Scalar expressions support the usual precedence ladder (OR < AND < NOT <
comparison/IN/IS NULL/BETWEEN < additive < multiplicative < unary), column
references with qualifiers, numeric/string/boolean/NULL literals,
``CASE WHEN``, ``COALESCE`` and the scalar functions of the relational
layer.  Aggregate functions are recognised only as top-level select items
(optionally with an ``OVER`` clause, making them reporting functions).
"""

from __future__ import annotations

import datetime
from typing import List, Optional, Tuple

from repro.errors import ParseError, UnsupportedSqlError
from repro.relational.expr import (
    And,
    Like,
    Arithmetic,
    CaseExpr,
    Coalesce,
    ColumnRef,
    Comparison,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Literal,
    Not,
    Or,
)
from repro.sql.ast_nodes import (
    AggregateCall,
    FrameBound,
    FrameSpec,
    OrderItem,
    OverClause,
    SelectItem,
    SelectStmt,
    TableRef,
    WindowCall,
)
from repro.sql.lexer import Token, tokenize

__all__ = ["parse_select", "parse_query", "parse_expression"]

_AGG_FUNCS = {"SUM", "COUNT", "AVG", "MIN", "MAX"}
_RANK_FUNCS = {"ROW_NUMBER", "RANK", "DENSE_RANK"}
_SCALAR_FUNCS = {"MOD", "ABS", "MONTH", "YEAR", "DAY"}


def parse_select(text: str) -> SelectStmt:
    """Parse a single SELECT statement (no UNION).

    Raises:
        ParseError / LexerError / UnsupportedSqlError.
    """
    parser = _Parser(tokenize(text))
    stmt = parser.select()
    parser.expect_eof()
    return stmt


def parse_query(text: str):
    """Parse a SELECT or a ``UNION ALL`` compound of SELECTs."""
    from repro.sql.ast_nodes import CompoundSelect

    parser = _Parser(tokenize(text))
    first = parser.select()
    if not parser._cur.is_keyword("UNION"):
        parser.expect_eof()
        return first
    selects = [first]
    while parser._accept_keyword("UNION"):
        parser._expect_keyword("ALL")
        selects.append(parser.select())
    # A trailing ORDER BY/LIMIT parsed into the last branch applies to the
    # whole compound per SQL semantics: hoist it.
    last = selects[-1]
    order_by, limit = last.order_by, last.limit
    if order_by or limit is not None:
        from dataclasses import replace as _replace

        selects[-1] = _replace(last, order_by=(), limit=None)
    parser.expect_eof()
    return CompoundSelect(tuple(selects), order_by, limit)


def parse_expression(text: str) -> Expr:
    """Parse a standalone scalar expression (used by tests and tools)."""
    parser = _Parser(tokenize(text))
    expr = parser.expression()
    parser.expect_eof()
    return expr


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._i = 0

    # -- token plumbing ---------------------------------------------------------

    @property
    def _cur(self) -> Token:
        return self._tokens[self._i]

    def _advance(self) -> Token:
        tok = self._cur
        if tok.kind != "EOF":
            self._i += 1
        return tok

    def _error(self, message: str) -> ParseError:
        tok = self._cur
        where = f" near {tok.value!r}" if tok.kind != "EOF" else " at end of input"
        return ParseError(message + where, tok.position)

    def _accept_keyword(self, *words: str) -> bool:
        if self._cur.is_keyword(*words):
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            raise self._error(f"expected {word}")

    def _accept_symbol(self, *symbols: str) -> Optional[str]:
        if self._cur.is_symbol(*symbols):
            return self._advance().value
        return None

    def _expect_symbol(self, symbol: str) -> None:
        if self._accept_symbol(symbol) is None:
            raise self._error(f"expected {symbol!r}")

    def expect_eof(self) -> None:
        if self._cur.kind != "EOF":
            raise self._error("unexpected trailing input")

    def _ident(self, what: str) -> str:
        if self._cur.kind != "IDENT":
            raise self._error(f"expected {what}")
        return self._advance().value

    def _string_literal(self, what: str) -> str:
        if self._cur.kind != "STRING":
            raise self._error(f"expected string {what}")
        return self._advance().value

    def _integer(self, what: str) -> int:
        if self._cur.kind != "NUMBER" or not self._cur.value.isdigit():
            raise self._error(f"expected integer {what}")
        return int(self._advance().value)

    # -- statement ----------------------------------------------------------------

    def select(self) -> SelectStmt:
        self._expect_keyword("SELECT")
        distinct = self._accept_keyword("DISTINCT")
        items = [self._select_item()]
        while self._accept_symbol(","):
            items.append(self._select_item())
        self._expect_keyword("FROM")
        tables = [self._table_ref()]
        while self._accept_symbol(","):
            tables.append(self._table_ref())
        where = self.expression() if self._accept_keyword("WHERE") else None
        group_by: Tuple[Expr, ...] = ()
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            exprs = [self.expression()]
            while self._accept_symbol(","):
                exprs.append(self.expression())
            group_by = tuple(exprs)
        having = self.expression() if self._accept_keyword("HAVING") else None
        order_by: Tuple[OrderItem, ...] = ()
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            orders = [self._order_item()]
            while self._accept_symbol(","):
                orders.append(self._order_item())
            order_by = tuple(orders)
        limit = None
        if self._accept_keyword("LIMIT"):
            limit = self._integer("after LIMIT")
        return SelectStmt(
            items=tuple(items),
            tables=tuple(tables),
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
        )

    def _table_ref(self) -> TableRef:
        if self._accept_symbol("("):
            sub = self.select()
            self._expect_symbol(")")
            alias = None
            if self._accept_keyword("AS"):
                alias = self._ident("subquery alias")
            elif self._cur.kind == "IDENT":
                alias = self._advance().value
            if alias is None:
                raise self._error("derived tables need an alias")
            return TableRef("", alias, subquery=sub)
        name = self._ident("table name")
        alias = None
        if self._accept_keyword("AS"):
            alias = self._ident("table alias")
        elif self._cur.kind == "IDENT":
            alias = self._advance().value
        return TableRef(name, alias)

    def _select_item(self) -> SelectItem:
        if self._accept_symbol("*"):
            return SelectItem(value=None, star=True)
        value = self._select_value()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._ident("column alias")
        elif self._cur.kind == "IDENT":
            alias = self._advance().value
        return SelectItem(value=value, alias=alias)

    def _select_value(self):
        tok = self._cur
        if tok.kind == "IDENT" and tok.value.upper() in _AGG_FUNCS:
            nxt = self._tokens[self._i + 1]
            if nxt.is_symbol("("):
                return self._aggregate_or_window()
        if tok.kind == "IDENT" and tok.value.upper() in _RANK_FUNCS:
            nxt = self._tokens[self._i + 1]
            if nxt.is_symbol("("):
                return self._ranking_function()
        return self.expression()

    def _ranking_function(self) -> WindowCall:
        """``ROW_NUMBER() / RANK() / DENSE_RANK() OVER (...)``.

        Ranking functions take no argument and no frame; their scope is the
        whole partition under the local ORDER BY.
        """
        func = self._advance().value.upper()
        self._expect_symbol("(")
        self._expect_symbol(")")
        self._expect_keyword("OVER")
        over = self._over_clause()
        if not over.order_by:
            raise UnsupportedSqlError(f"{func}() requires an ORDER BY in its OVER clause")
        if over.frame is not None:
            raise UnsupportedSqlError(f"{func}() does not take a window frame")
        return WindowCall(func, None, over)

    def _aggregate_or_window(self):
        func = self._advance().value.upper()
        self._expect_symbol("(")
        distinct = False
        arg: Optional[Expr]
        if self._accept_symbol("*"):
            if func != "COUNT":
                raise self._error(f"{func}(*) is not valid SQL")
            arg = None
        else:
            distinct = self._accept_keyword("DISTINCT")
            arg = self.expression()
        self._expect_symbol(")")
        if self._cur.is_keyword("OVER"):
            self._advance()
            over = self._over_clause()
            if distinct:
                raise UnsupportedSqlError("DISTINCT is not valid in reporting functions")
            return WindowCall(func, arg, over)
        return AggregateCall(func, arg, distinct)

    def _over_clause(self) -> OverClause:
        self._expect_symbol("(")
        partition: Tuple[Expr, ...] = ()
        order: Tuple[OrderItem, ...] = ()
        frame: Optional[FrameSpec] = None
        if self._accept_keyword("PARTITION"):
            self._expect_keyword("BY")
            exprs = [self.expression()]
            while self._accept_symbol(","):
                exprs.append(self.expression())
            partition = tuple(exprs)
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            orders = [self._order_item()]
            while self._accept_symbol(","):
                orders.append(self._order_item())
            order = tuple(orders)
        if self._cur.is_keyword("ROWS", "RANGE"):
            frame = self._frame()
        self._expect_symbol(")")
        return OverClause(partition, order, frame)

    def _frame(self) -> FrameSpec:
        if self._accept_keyword("RANGE"):
            unit = "range"
        else:
            self._expect_keyword("ROWS")
            unit = "rows"
        if self._accept_keyword("BETWEEN"):
            start = self._frame_bound(unit)
            self._expect_keyword("AND")
            end = self._frame_bound(unit)
            return FrameSpec(start, end, unit)
        start = self._frame_bound(unit)
        return FrameSpec(start, FrameBound("current"), unit)

    def _frame_bound(self, unit: str = "rows") -> FrameBound:
        if self._accept_keyword("UNBOUNDED"):
            if self._accept_keyword("PRECEDING"):
                return FrameBound("preceding", None)
            self._expect_keyword("FOLLOWING")
            return FrameBound("following", None)
        if self._accept_keyword("CURRENT"):
            self._expect_keyword("ROW")
            return FrameBound("current")
        if unit == "range":
            if self._cur.kind != "NUMBER":
                raise self._error("expected numeric RANGE offset")
            text = self._advance().value
            offset: float = float(text)
        else:
            offset = self._integer("frame offset")
        if self._accept_keyword("PRECEDING"):
            return FrameBound("preceding", offset)
        self._expect_keyword("FOLLOWING")
        return FrameBound("following", offset)

    def _order_item(self) -> OrderItem:
        expr = self.expression()
        if self._accept_keyword("DESC"):
            return OrderItem(expr, ascending=False)
        self._accept_keyword("ASC")
        return OrderItem(expr, ascending=True)

    # -- expressions -----------------------------------------------------------------

    def expression(self) -> Expr:
        return self._or()

    def _or(self) -> Expr:
        items = [self._and()]
        while self._accept_keyword("OR"):
            items.append(self._and())
        return items[0] if len(items) == 1 else Or(*items)

    def _and(self) -> Expr:
        items = [self._not()]
        while self._accept_keyword("AND"):
            items.append(self._not())
        return items[0] if len(items) == 1 else And(*items)

    def _not(self) -> Expr:
        if self._accept_keyword("NOT"):
            return Not(self._not())
        return self._predicate()

    def _predicate(self) -> Expr:
        left = self._additive()
        op = self._accept_symbol("=", "<>", "<", "<=", ">", ">=")
        if op is not None:
            return Comparison(op, left, self._additive())
        if self._accept_keyword("IN"):
            self._expect_symbol("(")
            options = [self.expression()]
            while self._accept_symbol(","):
                options.append(self.expression())
            self._expect_symbol(")")
            return InList(left, tuple(options))
        if self._accept_keyword("IS"):
            negated = self._accept_keyword("NOT")
            self._expect_keyword("NULL")
            return IsNull(left, negated=negated)
        if self._cur.is_keyword("NOT") and self._tokens[self._i + 1].is_keyword("LIKE"):
            self._advance()
            self._advance()
            return Like(left, self._string_literal("LIKE pattern"), negated=True)
        if self._accept_keyword("LIKE"):
            return Like(left, self._string_literal("LIKE pattern"))
        if self._accept_keyword("BETWEEN"):
            low = self._additive()
            self._expect_keyword("AND")
            high = self._additive()
            return And(Comparison(">=", left, low), Comparison("<=", left, high))
        return left

    def _additive(self) -> Expr:
        expr = self._multiplicative()
        while True:
            op = self._accept_symbol("+", "-")
            if op is None:
                return expr
            expr = Arithmetic(op, expr, self._multiplicative())

    def _multiplicative(self) -> Expr:
        expr = self._unary()
        while True:
            op = self._accept_symbol("*", "/", "%")
            if op is None:
                return expr
            expr = Arithmetic(op, expr, self._unary())

    def _unary(self) -> Expr:
        if self._accept_symbol("-"):
            return Arithmetic("-", Literal(0), self._unary())
        if self._accept_symbol("+"):
            return self._unary()
        return self._primary()

    def _primary(self) -> Expr:
        tok = self._cur
        if tok.kind == "NUMBER":
            self._advance()
            if "." in tok.value or "e" in tok.value or "E" in tok.value:
                return Literal(float(tok.value))
            return Literal(int(tok.value))
        if tok.kind == "STRING":
            self._advance()
            return Literal(tok.value)
        if tok.is_keyword("NULL"):
            self._advance()
            return Literal(None)
        if tok.is_keyword("TRUE"):
            self._advance()
            return Literal(True)
        if tok.is_keyword("FALSE"):
            self._advance()
            return Literal(False)
        if tok.is_keyword("CASE"):
            return self._case()
        if tok.is_keyword("COALESCE"):
            self._advance()
            self._expect_symbol("(")
            items = [self.expression()]
            while self._accept_symbol(","):
                items.append(self.expression())
            self._expect_symbol(")")
            return Coalesce(*items)
        if self._accept_symbol("("):
            expr = self.expression()
            self._expect_symbol(")")
            return expr
        if tok.kind == "IDENT":
            name = self._advance().value
            if name.upper() == "DATE" and self._cur.kind == "STRING":
                text = self._advance().value  # DATE 'YYYY-MM-DD', as a date prints
                try:
                    return Literal(datetime.date.fromisoformat(text))
                except ValueError:
                    raise self._error(f"bad DATE literal {text!r}") from None
            if self._cur.is_symbol("("):
                upper = name.upper()
                if upper in _AGG_FUNCS:
                    raise UnsupportedSqlError(
                        f"aggregate {upper}() may only appear as a top-level "
                        "select item in this SQL subset"
                    )
                if upper not in _SCALAR_FUNCS:
                    raise self._error(f"unknown function {name!r}")
                self._advance()  # '('
                args: List[Expr] = []
                if not self._cur.is_symbol(")"):
                    args.append(self.expression())
                    while self._accept_symbol(","):
                        args.append(self.expression())
                self._expect_symbol(")")
                return FuncCall(upper, tuple(args))
            if self._accept_symbol("."):
                column = self._ident("column name after qualifier")
                return ColumnRef(column, name)
            return ColumnRef(name)
        raise self._error("expected an expression")

    def _case(self) -> Expr:
        self._expect_keyword("CASE")
        whens: List[Tuple[Expr, Expr]] = []
        while self._accept_keyword("WHEN"):
            cond = self.expression()
            self._expect_keyword("THEN")
            whens.append((cond, self.expression()))
        if not whens:
            raise self._error("CASE requires at least one WHEN branch")
        default = self.expression() if self._accept_keyword("ELSE") else None
        self._expect_keyword("END")
        return CaseExpr(tuple(whens), default)
