"""Expression trees for the relational engine.

Expressions are immutable AST nodes that *bind* against a
:class:`~repro.relational.schema.Schema` to produce a compiled Python
closure ``row -> value``.  Binding resolves column names to tuple indexes
once, so per-row evaluation involves no name lookups — important because
the paper's relational patterns evaluate join predicates over O(n²) row
pairs.

SQL three-valued logic is implemented: comparisons involving NULL yield
``None``; ``AND``/``OR``/``NOT`` follow Kleene logic; filters and join
predicates accept a row only when the predicate is exactly ``True``.

The node set covers everything the paper's operator patterns need:
column references, literals, arithmetic (including ``MOD``), comparisons,
``IN`` lists, boolean connectives, ``CASE WHEN``, ``COALESCE``, and a few
scalar functions (``ABS``, date part extractors for the intro example).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Set, Tuple

from repro.errors import ExpressionError, PlanError
from repro.relational.schema import Schema
from repro.relational.types import BOOLEAN, DATE, FLOAT, INTEGER, TEXT, DataType

__all__ = [
    "Expr",
    "ColumnRef",
    "Like",
    "Literal",
    "Arithmetic",
    "Comparison",
    "And",
    "Or",
    "Not",
    "InList",
    "IsNull",
    "CaseExpr",
    "Coalesce",
    "FuncCall",
    "col",
    "lit",
    "result_type",
]

Row = Tuple[Any, ...]
Compiled = Callable[[Row], Any]


class Expr:
    """Base class for expression nodes."""

    def bind(self, schema: Schema) -> Compiled:
        """Compile to a closure evaluating this expression over rows of ``schema``."""
        raise NotImplementedError

    def references(self) -> Set[str]:
        """Qualified column names this expression reads."""
        return set()

    # Convenience builders so patterns read naturally: col("a") + 1 > col("b")
    def __add__(self, other: "ExprLike") -> "Arithmetic":
        return Arithmetic("+", self, wrap(other))

    def __sub__(self, other: "ExprLike") -> "Arithmetic":
        return Arithmetic("-", self, wrap(other))

    def __mul__(self, other: "ExprLike") -> "Arithmetic":
        return Arithmetic("*", self, wrap(other))

    def __truediv__(self, other: "ExprLike") -> "Arithmetic":
        return Arithmetic("/", self, wrap(other))

    def __mod__(self, other: "ExprLike") -> "Arithmetic":
        return Arithmetic("%", self, wrap(other))

    def __neg__(self) -> "Arithmetic":
        return Arithmetic("-", Literal(0), self)

    def eq(self, other: "ExprLike") -> "Comparison":
        return Comparison("=", self, wrap(other))

    def ne(self, other: "ExprLike") -> "Comparison":
        return Comparison("<>", self, wrap(other))

    def lt(self, other: "ExprLike") -> "Comparison":
        return Comparison("<", self, wrap(other))

    def le(self, other: "ExprLike") -> "Comparison":
        return Comparison("<=", self, wrap(other))

    def gt(self, other: "ExprLike") -> "Comparison":
        return Comparison(">", self, wrap(other))

    def ge(self, other: "ExprLike") -> "Comparison":
        return Comparison(">=", self, wrap(other))

    def in_(self, items: Sequence["ExprLike"]) -> "InList":
        return InList(self, tuple(wrap(i) for i in items))

    def is_null(self) -> "IsNull":
        return IsNull(self, negated=False)


ExprLike = Any  # Expr | int | float | str | bool | None


def wrap(value: ExprLike) -> Expr:
    """Lift a Python constant to a :class:`Literal` (Exprs pass through)."""
    if isinstance(value, Expr):
        return value
    return Literal(value)


def col(name: str, qualifier: Optional[str] = None) -> "ColumnRef":
    """Shorthand column reference; accepts dotted names (``"s1.pos"``)."""
    if qualifier is None and "." in name:
        qualifier, name = name.split(".", 1)
    return ColumnRef(name, qualifier)


def lit(value: Any) -> "Literal":
    """Shorthand literal constructor (mirrors :func:`col`)."""
    return Literal(value)


@dataclass(frozen=True)
class ColumnRef(Expr):
    name: str
    qualifier: Optional[str] = None

    def bind(self, schema: Schema) -> Compiled:
        index = schema.resolve(self.name, self.qualifier)
        return lambda row: row[index]

    def references(self) -> Set[str]:
        return {f"{self.qualifier}.{self.name}" if self.qualifier else self.name}

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class Literal(Expr):
    value: Any

    def bind(self, schema: Schema) -> Compiled:
        value = self.value
        return lambda row: value

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return "'" + self.value.replace("'", "''") + "'"
        if self.value is None:
            return "NULL"
        if isinstance(self.value, datetime.date):
            return f"DATE '{self.value.isoformat()}'"
        return str(self.value)


_ARITH_OPS: dict = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
}


@dataclass(frozen=True)
class Arithmetic(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _ARITH_OPS:
            raise ExpressionError(f"unknown arithmetic operator {self.op!r}")

    def bind(self, schema: Schema) -> Compiled:
        fn = _ARITH_OPS[self.op]
        lc, rc = self.left.bind(schema), self.right.bind(schema)
        _type(self, schema)  # PlanError for a TEXT, BOOLEAN or DATE operand

        def run(row: Row) -> Any:
            a, b = lc(row), rc(row)
            if a is None or b is None:
                return None
            return fn(a, b)

        return run

    def references(self) -> Set[str]:
        return self.left.references() | self.right.references()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


_CMP_OPS: dict = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Comparison(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _CMP_OPS:
            raise ExpressionError(f"unknown comparison operator {self.op!r}")

    def bind(self, schema: Schema) -> Compiled:
        fn = _CMP_OPS[self.op]
        lc, rc = self.left.bind(schema), self.right.bind(schema)

        def run(row: Row) -> Optional[bool]:
            a, b = lc(row), rc(row)
            if a is None or b is None:
                return None
            return fn(a, b)

        return run

    def references(self) -> Set[str]:
        return self.left.references() | self.right.references()

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class And(Expr):
    items: Tuple[Expr, ...]

    def __init__(self, *items: Expr) -> None:
        object.__setattr__(self, "items", tuple(items))

    def bind(self, schema: Schema) -> Compiled:
        compiled = [item.bind(schema) for item in self.items]

        def run(row: Row) -> Optional[bool]:
            saw_null = False
            for c in compiled:
                v = c(row)
                if v is False:
                    return False
                if v is None:
                    saw_null = True
            return None if saw_null else True

        return run

    def references(self) -> Set[str]:
        out: Set[str] = set()
        for item in self.items:
            out |= item.references()
        return out

    def __str__(self) -> str:
        return "(" + " AND ".join(str(i) for i in self.items) + ")"


@dataclass(frozen=True)
class Or(Expr):
    items: Tuple[Expr, ...]

    def __init__(self, *items: Expr) -> None:
        object.__setattr__(self, "items", tuple(items))

    def bind(self, schema: Schema) -> Compiled:
        compiled = [item.bind(schema) for item in self.items]

        def run(row: Row) -> Optional[bool]:
            saw_null = False
            for c in compiled:
                v = c(row)
                if v is True:
                    return True
                if v is None:
                    saw_null = True
            return None if saw_null else False

        return run

    def references(self) -> Set[str]:
        out: Set[str] = set()
        for item in self.items:
            out |= item.references()
        return out

    def __str__(self) -> str:
        return "(" + " OR ".join(str(i) for i in self.items) + ")"


@dataclass(frozen=True)
class Not(Expr):
    item: Expr

    def bind(self, schema: Schema) -> Compiled:
        c = self.item.bind(schema)

        def run(row: Row) -> Optional[bool]:
            v = c(row)
            return None if v is None else (not v)

        return run

    def references(self) -> Set[str]:
        return self.item.references()

    def __str__(self) -> str:
        return f"(NOT {self.item})"


@dataclass(frozen=True)
class InList(Expr):
    item: Expr
    options: Tuple[Expr, ...]

    def bind(self, schema: Schema) -> Compiled:
        c = self.item.bind(schema)
        opts = [o.bind(schema) for o in self.options]

        def run(row: Row) -> Optional[bool]:
            v = c(row)
            if v is None:
                return None
            saw_null = False
            for o in opts:
                ov = o(row)
                if ov is None:
                    saw_null = True
                elif v == ov:
                    return True
            return None if saw_null else False

        return run

    def references(self) -> Set[str]:
        out = self.item.references()
        for o in self.options:
            out |= o.references()
        return out

    def __str__(self) -> str:
        return f"({self.item} IN ({', '.join(str(o) for o in self.options)}))"


@dataclass(frozen=True)
class IsNull(Expr):
    item: Expr
    negated: bool = False

    def bind(self, schema: Schema) -> Compiled:
        c = self.item.bind(schema)
        if self.negated:
            return lambda row: c(row) is not None
        return lambda row: c(row) is None

    def references(self) -> Set[str]:
        return self.item.references()

    def __str__(self) -> str:
        return f"({self.item} IS {'NOT ' if self.negated else ''}NULL)"


@dataclass(frozen=True)
class Like(Expr):
    """SQL ``LIKE`` with ``%`` (any run) and ``_`` (any one char) wildcards.

    The pattern must be a string literal (compiled to a regex once at bind
    time); matching is case-sensitive per the SQL standard.
    """

    item: Expr
    pattern: str
    negated: bool = False

    def bind(self, schema: Schema) -> Compiled:
        import re

        parts = []
        for ch in self.pattern:
            if ch == "%":
                parts.append(".*")
            elif ch == "_":
                parts.append(".")
            else:
                parts.append(re.escape(ch))
        regex = re.compile("".join(parts) + r"\Z", re.DOTALL)
        c = self.item.bind(schema)
        negated = self.negated

        def run(row: Row) -> Optional[bool]:
            v = c(row)
            if v is None:
                return None
            matched = regex.match(str(v)) is not None
            return (not matched) if negated else matched

        return run

    def references(self) -> Set[str]:
        return self.item.references()

    def __str__(self) -> str:
        op = "NOT LIKE" if self.negated else "LIKE"
        quoted = self.pattern.replace("'", "''")
        return f"({self.item} {op} '{quoted}')"


@dataclass(frozen=True)
class CaseExpr(Expr):
    """``CASE WHEN cond THEN value [...] ELSE value END`` (searched CASE)."""

    whens: Tuple[Tuple[Expr, Expr], ...]
    default: Optional[Expr] = None

    def bind(self, schema: Schema) -> Compiled:
        target = result_type(self, schema)
        branches = [(c.bind(schema), _bind_as(v, schema, target)) for c, v in self.whens]
        default = _bind_as(self.default, schema, target) if self.default is not None else None

        def run(row: Row) -> Any:
            for cond, value in branches:
                if cond(row) is True:
                    return value(row)
            return default(row) if default is not None else None

        return run

    def references(self) -> Set[str]:
        out: Set[str] = set()
        for c, v in self.whens:
            out |= c.references() | v.references()
        if self.default is not None:
            out |= self.default.references()
        return out

    def __str__(self) -> str:
        parts = ["CASE"]
        for c, v in self.whens:
            parts.append(f"WHEN {c} THEN {v}")
        if self.default is not None:
            parts.append(f"ELSE {self.default}")
        parts.append("END")
        return " ".join(parts)


@dataclass(frozen=True)
class Coalesce(Expr):
    items: Tuple[Expr, ...]

    def __init__(self, *items: Expr) -> None:
        object.__setattr__(self, "items", tuple(items))

    def bind(self, schema: Schema) -> Compiled:
        target = result_type(self, schema)
        compiled = [_bind_as(item, schema, target) for item in self.items]

        def run(row: Row) -> Any:
            for c in compiled:
                v = c(row)
                if v is not None:
                    return v
            return None

        return run

    def references(self) -> Set[str]:
        out: Set[str] = set()
        for item in self.items:
            out |= item.references()
        return out

    def __str__(self) -> str:
        return f"COALESCE({', '.join(str(i) for i in self.items)})"


def _fn_mod(a: Any, b: Any) -> Any:
    return a % b


def _fn_abs(a: Any) -> Any:
    return abs(a)


def _fn_month(d: Any) -> Any:
    return d.month


def _fn_year(d: Any) -> Any:
    return d.year


def _fn_day(d: Any) -> Any:
    return d.day


_FUNCTIONS: dict = {
    "MOD": (2, _fn_mod),
    "ABS": (1, _fn_abs),
    "MONTH": (1, _fn_month),
    "YEAR": (1, _fn_year),
    "DAY": (1, _fn_day),
}


@dataclass(frozen=True)
class FuncCall(Expr):
    """Scalar function call (``MOD``, ``ABS``, ``MONTH``, ``YEAR``, ``DAY``)."""

    name: str
    args: Tuple[Expr, ...]

    def __post_init__(self) -> None:
        upper = self.name.upper()
        if upper not in _FUNCTIONS:
            raise ExpressionError(f"unknown scalar function {self.name!r}")
        arity, _ = _FUNCTIONS[upper]
        if len(self.args) != arity:
            raise ExpressionError(
                f"{upper} takes {arity} argument(s), got {len(self.args)}"
            )
        object.__setattr__(self, "name", upper)

    def bind(self, schema: Schema) -> Compiled:
        _, fn = _FUNCTIONS[self.name]
        compiled = [a.bind(schema) for a in self.args]

        def run(row: Row) -> Any:
            values = [c(row) for c in compiled]
            if any(v is None for v in values):
                return None
            return fn(*values)

        return run

    def references(self) -> Set[str]:
        out: Set[str] = set()
        for a in self.args:
            out |= a.references()
        return out

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


# -- result types -------------------------------------------------------------

_LITERAL_TYPES = {bool: BOOLEAN, int: INTEGER, float: FLOAT, str: TEXT, datetime.date: DATE}
_PREDICATES = (Comparison, And, Or, Not, InList, IsNull, Like)
_NUMERIC = (INTEGER, FLOAT)
# The type of an expression that is always NULL: it takes the type of
# whatever it is combined with.
_NULL = object()


def result_type(expr: Expr, schema: Schema) -> Optional[DataType]:
    """The type of ``expr``'s non-NULL values over rows of ``schema``, or
    ``None`` where it is not known before execution (an expression that is
    always NULL, a branch of unknown type).

    Literals by kind, predicates BOOLEAN, arithmetic by numeric promotion
    (INTEGER op INTEGER is INTEGER, except ``/``; a TEXT, BOOLEAN or DATE
    operand is a :class:`~repro.errors.PlanError`), ``CASE``/``COALESCE``
    by their branches (INTEGER and FLOAT promote to FLOAT),
    ``MONTH``/``YEAR``/``DAY`` INTEGER; ``CASE``/``COALESCE`` branches
    of two known, unrelated types are a :class:`~repro.errors.PlanError`.
    """
    found = _type(expr, schema)
    return None if found is _NULL else found


def _type(expr: Expr, schema: Schema) -> Any:
    if isinstance(expr, ColumnRef):
        return schema.column(expr.name, expr.qualifier).type
    if isinstance(expr, Literal):
        return _NULL if expr.value is None else _LITERAL_TYPES.get(type(expr.value))
    if isinstance(expr, _PREDICATES):
        return BOOLEAN
    if isinstance(expr, Arithmetic):
        return _promote(expr.op, _type(expr.left, schema), _type(expr.right, schema))
    if isinstance(expr, FuncCall):
        args = [_type(a, schema) for a in expr.args]
        if expr.name == "MOD":
            return _promote("%", *args)
        if expr.name == "ABS":
            return args[0] if args[0] in (INTEGER, FLOAT, _NULL) else None
        return INTEGER  # MONTH, YEAR, DAY
    if isinstance(expr, (CaseExpr, Coalesce)):
        branches = list(expr.items) if isinstance(expr, Coalesce) else [v for _, v in expr.whens]
        if isinstance(expr, CaseExpr) and expr.default is not None:
            branches.append(expr.default)
        kinds = {_type(b, schema) for b in branches} - {_NULL}
        if not kinds:
            return _NULL
        if len(kinds) == 1:
            return kinds.pop()
        if None not in kinds and kinds != {INTEGER, FLOAT}:
            names = ", ".join(sorted(k.name for k in kinds))
            raise PlanError(f"{expr} mixes values of unrelated types {names}")
        return FLOAT if kinds == {INTEGER, FLOAT} else None
    return None


def _promote(op: str, left: Any, right: Any) -> Any:
    for side in (left, right):
        if isinstance(side, DataType) and side not in _NUMERIC:
            raise PlanError(
                f"arithmetic operator {op!r} needs numeric operands, got {side.name}"
            )
    left, right = (right if left is _NULL else left), (left if right is _NULL else right)
    if left is _NULL:
        return _NULL
    if left is INTEGER and right is INTEGER:
        return FLOAT if op == "/" else INTEGER
    return FLOAT if left in _NUMERIC and right in _NUMERIC else None


def _bind_as(expr: Expr, schema: Schema, target: Optional[DataType]) -> Compiled:
    """Compile a ``CASE``/``COALESCE`` branch: an INTEGER branch of a FLOAT
    result yields floats, so every value has the declared type."""
    compiled = expr.bind(schema)
    if target is not FLOAT or result_type(expr, schema) is not INTEGER:
        return compiled
    return lambda row: None if (v := compiled(row)) is None else float(v)
