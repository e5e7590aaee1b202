"""Volcano-style iterator operators (scan, filter, project, sort, union).

Every operator exposes:

* ``schema`` — the output row shape (bound at construction time);
* ``execute(stats)`` — an iterable of tuples, threading an
  :class:`~repro.relational.stats.ExecutionStats` block.  This is the one
  method a subclass implements.  What it returns may be a
  :class:`~repro.columns.ColumnRows` — rows that also show their columns —
  and a parent that can work on columns checks for exactly that and stays
  on NumPy (scan, alias, filter, project and sort here; the window
  operator); every other parent iterates it as rows and never knows;
* ``run(stats)`` — how a parent (or the engine) pulls a node: the same
  iterable, measured when the stats block carries a probe;
* ``explain(indent)`` — a plan-tree pretty print used by ``EXPLAIN``.

Join and aggregation operators live in :mod:`repro.relational.join` and
:mod:`repro.relational.aggregate`.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.columns import ColumnRows, sort_order
from repro.errors import PlanError
from repro.obs.instrument import span_name_for
from repro.relational.expr import And, ColumnRef, Comparison, Expr, Literal, result_type
from repro.relational.schema import Column, Schema
from repro.relational.stats import ExecutionStats, Probe
from repro.relational.table import Table
from repro.relational.types import DataType, FLOAT

__all__ = [
    "Alias",
    "Operator",
    "TableScan",
    "Filter",
    "Project",
    "Sort",
    "Limit",
    "UnionAll",
    "Distinct",
    "plain_column_indexes",
]

Row = Tuple[Any, ...]


class Operator:
    """Base class for executable plan nodes."""

    schema: Schema

    def execute(self, stats: ExecutionStats) -> Iterable[Row]:
        """The node's rows (possibly a :class:`ColumnRows`).  Subclasses
        implement this and pull their children through :meth:`run`, never
        through ``execute``."""
        raise NotImplementedError

    def run(self, stats: ExecutionStats) -> Iterable[Row]:
        """Pull this node: ``execute``, measured if ``stats`` has a probe.

        Not for subclasses to override — it is what makes every node report
        its own span, rows out and wall time without anything wrapping the
        plan from outside.
        """
        probe = stats.probe
        if probe is None:
            return self.execute(stats)
        return self._measured(stats, probe)

    def _measured(self, stats: ExecutionStats, probe: Probe) -> Iterable[Row]:
        # Spans nest by themselves: every parent pulls a child the moment
        # it calls run(), inside its own execution, which is when the
        # child's span opens.
        measure = probe.measures[id(self)]
        tracer = probe.tracer
        span = (
            tracer.span(span_name_for(self), **_span_attrs(self, measure.ordinal))
            if tracer.enabled
            else None
        )
        measure.calls += 1
        start = time.perf_counter()

        def finish(n: int) -> None:
            measure.rows_out += n
            measure.wall += time.perf_counter() - start
            if span is not None:
                span.set(rows_out=n)
                span.finish()

        try:
            out = self.execute(stats)
        except BaseException:
            finish(0)
            raise
        if isinstance(out, ColumnRows):
            # The work is done; the sequence passes through as it is.
            finish(len(out))
            return out

        def counted() -> Iterator[Row]:
            n = 0
            try:
                for row in out:
                    n += 1
                    yield row
            finally:
                finish(n)

        return counted()

    def children(self) -> Sequence["Operator"]:
        return ()

    def label(self) -> str:
        return type(self).__name__

    def explain(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.label()]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)


def _span_attrs(node: Operator, ordinal: int) -> Dict[str, Any]:
    attrs: Dict[str, Any] = {"node": ordinal}
    for key in ("table", "inner_table"):  # scans; index joins
        table = getattr(node, key, None)
        if table is not None:
            attrs[key] = table.name
    return attrs


def plain_column_indexes(exprs: Sequence[Expr], schema: Schema) -> Optional[List[int]]:
    """Schema positions of ``exprs`` when every one is a plain column
    reference, else ``None`` (something is computed: rows it is)."""
    if not all(isinstance(e, ColumnRef) for e in exprs):
        return None
    return [schema.resolve(e.name, e.qualifier) for e in exprs]


_MIRRORED = {"=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
_NUMPY_CMP = {
    "=": np.equal, "<>": np.not_equal, "<": np.less,
    "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
}
_INT64_RANGE = range(-(2**63), 2**63)
# Integers that float64 represents exactly: what an int literal must be for
# NumPy's float comparison to agree with Python's exact int/float one.
_EXACT_IN_FLOAT = range(-(2**53), 2**53 + 1)


def _mask_terms(predicate: Expr, schema: Schema) -> Optional[List[Tuple[int, str, Any]]]:
    """``[(column index, op, literal)]`` when ``predicate`` is a comparison
    of a column against a literal, or an AND of such (BETWEEN is one);
    ``None`` for anything else.  Such a predicate is TRUE exactly where
    every term is, so NULL logic needs no third value here."""
    if isinstance(predicate, And):
        terms: List[Tuple[int, str, Any]] = []
        for item in predicate.items:
            inner = _mask_terms(item, schema)
            if inner is None:
                return None
            terms.extend(inner)
        return terms
    if not isinstance(predicate, Comparison):
        return None
    left, right, op = predicate.left, predicate.right, predicate.op
    if isinstance(left, Literal) and isinstance(right, ColumnRef):
        left, right, op = right, left, _MIRRORED[op]
    if not (isinstance(left, ColumnRef) and isinstance(right, Literal)):
        return None
    return [(schema.resolve(left.name, left.qualifier), op, right.value)]


def _mask(terms: Sequence[Tuple[int, str, Any]], rows: ColumnRows) -> Optional[np.ndarray]:
    """The rows where every term is TRUE, or ``None`` when a term pairs a
    column kind with a literal that NumPy would compare differently from
    Python (then the row loop decides)."""
    mask = np.ones(len(rows), dtype=np.bool_)
    for index, op, value in terms:
        column = rows.columns[index]
        kind, literal = column.kind, type(value)
        if not (
            (kind == "int64" and literal is int and value in _INT64_RANGE)
            or (kind == "float64" and literal is float)
            or (kind == "float64" and literal is int and value in _EXACT_IN_FLOAT)
            or (kind == "bool" and literal is bool)
        ):
            return None
        mask &= _NUMPY_CMP[op](column.data, value)
        if column.validity is not None:
            mask &= column.validity  # NULL compares to NULL, which is not TRUE
    return mask


class TableScan(Operator):
    """Full scan of a base table, optionally under an alias.

    The planner may narrow the scan of a paged table, which reads only what
    it is asked for: ``zone_terms`` are ``column <op> literal`` conjuncts
    that filters directly above re-check exactly (pages whose zone rules
    them out are skipped), ``row_bound`` the rows a bare LIMIT above needs.
    """

    def __init__(self, table: Table, alias: Optional[str] = None) -> None:
        self.table = table
        self.alias = alias or table.name
        self.schema = table.schema.qualify(self.alias)
        self.zone_terms: List[Tuple[int, str, Any]] = []
        self.row_bound: Optional[int] = None

    def execute(self, stats: ExecutionStats) -> Iterable[Row]:
        table = self.table
        if self.row_bound is None:
            ranges = table.candidate_ranges(self.zone_terms)
        else:
            ranges = [(0, min(self.row_bound, len(table)))]
        rows, pages = table.scan(ranges)
        total = table.pages_total
        if total:
            from repro.obs import runtime

            self.analyze_extra = {"input": "columns", "pages": f"{pages}/{total}"}
            registry = runtime.get_registry()
            registry.counter(
                "repro_storage_pages_scanned_total", help="Pages read by paged table scans"
            ).inc(pages)
            registry.counter(
                "repro_storage_pages_pruned_total",
                help="Pages paged table scans did not read (zone tests, row bounds)",
            ).inc(total - pages)
        stats.rows_scanned += len(rows)
        return rows

    def label(self) -> str:
        if self.alias != self.table.name:
            return f"TableScan({self.table.name} AS {self.alias})"
        return f"TableScan({self.table.name})"


class Alias(Operator):
    """Re-qualify a child's output columns under a binding name.

    Used for derived tables: ``FROM (SELECT ...) d`` exposes the subquery's
    columns as ``d.<name>``.
    """

    def __init__(self, child: Operator, alias: str) -> None:
        self.child = child
        self.alias = alias
        self.schema = Schema(
            Column(c.name, c.type, alias) for c in child.schema
        )

    def execute(self, stats: ExecutionStats) -> Iterable[Row]:
        return self.child.run(stats)

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def label(self) -> str:
        return f"Alias({self.alias})"


class Filter(Operator):
    """Selection: keep rows whose predicate evaluates to exactly TRUE."""

    def __init__(self, child: Operator, predicate: Expr) -> None:
        self.child = child
        self.predicate = predicate
        self.schema = child.schema
        self._compiled = predicate.bind(child.schema)
        self.mask_terms = _mask_terms(predicate, child.schema)

    def execute(self, stats: ExecutionStats) -> Iterable[Row]:
        rows = self.child.run(stats)
        if isinstance(rows, ColumnRows) and self.mask_terms is not None:
            mask = _mask(self.mask_terms, rows)
            if mask is not None:
                if mask.all():
                    return rows
                return rows.take(np.flatnonzero(mask))
        compiled = self._compiled
        return (row for row in rows if compiled(row) is True)

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def label(self) -> str:
        return f"Filter({self.predicate})"


class Project(Operator):
    """Projection: compute output columns from expressions.

    Args:
        outputs: ``(expr, name)`` pairs; output columns are unqualified.
        types: optional per-column types; defaults to the expression's
            :func:`~repro.relational.expr.result_type`, FLOAT where that is
            not known before execution.
    """

    def __init__(
        self,
        child: Operator,
        outputs: Sequence[Tuple[Expr, str]],
        types: Optional[Sequence[Optional[DataType]]] = None,
    ) -> None:
        if not outputs:
            raise PlanError("projection needs at least one output column")
        self.child = child
        self.outputs = list(outputs)
        columns: List[Column] = []
        for i, (expr, name) in enumerate(self.outputs):
            declared = types[i] if types else None
            columns.append(Column(name, declared or _infer_type(expr, child.schema)))
        self.schema = Schema(columns)
        self._compiled = [expr.bind(child.schema) for expr, _ in self.outputs]
        # Plain column references select (and rename) the child's columns.
        self._picks = plain_column_indexes([expr for expr, _ in self.outputs], child.schema)

    def execute(self, stats: ExecutionStats) -> Iterable[Row]:
        rows = self.child.run(stats)
        if isinstance(rows, ColumnRows) and self._picks is not None:
            return ColumnRows([rows.columns[i] for i in self._picks])
        compiled = self._compiled
        return (tuple(c(row) for c in compiled) for row in rows)

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def label(self) -> str:
        cols = ", ".join(f"{expr} AS {name}" for expr, name in self.outputs)
        return f"Project({cols})"


def _infer_type(expr: Expr, schema: Schema) -> DataType:
    return result_type(expr, schema) or FLOAT


class Sort(Operator):
    """Order rows by key expressions (each ascending or descending)."""

    def __init__(self, child: Operator, keys: Sequence[Tuple[Expr, bool]]) -> None:
        if not keys:
            raise PlanError("sort needs at least one key")
        self.child = child
        self.keys = list(keys)
        self.schema = child.schema
        self._compiled = [(expr.bind(child.schema), asc) for expr, asc in self.keys]
        self._picks = plain_column_indexes([expr for expr, _ in self.keys], child.schema)

    def execute(self, stats: ExecutionStats) -> Iterable[Row]:
        rows = self.child.run(stats)
        if isinstance(rows, ColumnRows) and self._picks is not None:
            order = sort_order(
                [(rows.columns[i], asc) for i, (_, asc) in zip(self._picks, self.keys)],
                len(rows),
            )
            if order is not None:
                stats.rows_sorted += len(rows)
                return rows.take(order)
        rows = list(rows)
        stats.rows_sorted += len(rows)
        # Stable multi-key sort: apply keys right-to-left.
        for compiled, asc in reversed(self._compiled):
            rows.sort(key=compiled, reverse=not asc)
        return iter(rows)

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def label(self) -> str:
        keys = ", ".join(
            f"{expr} {'ASC' if asc else 'DESC'}" for expr, asc in self.keys
        )
        return f"Sort({keys})"


class Limit(Operator):
    """Emit at most ``limit`` rows after skipping ``offset`` rows."""

    def __init__(self, child: Operator, limit: int, offset: int = 0) -> None:
        if limit < 0 or offset < 0:
            raise PlanError("LIMIT/OFFSET must be non-negative")
        self.child = child
        self.limit = limit
        self.offset = offset
        self.schema = child.schema

    def execute(self, stats: ExecutionStats) -> Iterator[Row]:
        produced = skipped = 0
        for row in self.child.run(stats):
            if skipped < self.offset:
                skipped += 1
                continue
            if produced >= self.limit:
                return
            produced += 1
            yield row

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def label(self) -> str:
        return f"Limit({self.limit}, offset={self.offset})"


class UnionAll(Operator):
    """Bag union of positionally-compatible inputs (keeps duplicates).

    The paper's "union of simple predicate queries" variants of the
    derivation patterns rely on this operator.
    """

    def __init__(self, inputs: Sequence[Operator]) -> None:
        if not inputs:
            raise PlanError("UNION ALL needs at least one input")
        widths = {len(op.schema) for op in inputs}
        if len(widths) != 1:
            raise PlanError(f"UNION ALL inputs disagree on arity: {sorted(widths)}")
        self.inputs = list(inputs)
        self.schema = inputs[0].schema

    def execute(self, stats: ExecutionStats) -> Iterator[Row]:
        for op in self.inputs:
            for row in op.run(stats):
                yield row

    def children(self) -> Sequence[Operator]:
        return tuple(self.inputs)

    def label(self) -> str:
        return f"UnionAll({len(self.inputs)} inputs)"


class Distinct(Operator):
    """Duplicate elimination (hash-based)."""

    def __init__(self, child: Operator) -> None:
        self.child = child
        self.schema = child.schema

    def execute(self, stats: ExecutionStats) -> Iterator[Row]:
        seen = set()
        for row in self.child.run(stats):
            if row not in seen:
                seen.add(row)
                yield row

    def children(self) -> Sequence[Operator]:
        return (self.child,)
