"""Volcano-style iterator operators (scan, filter, project, sort, union).

Every operator exposes:

* ``schema`` — the output row shape (bound at construction time);
* ``execute(stats)`` — an iterator of tuples, threading an
  :class:`~repro.relational.stats.ExecutionStats` block.  This is the one
  method a subclass implements;
* ``run(stats)`` — how a parent (or the engine) pulls a node: the same
  iterator, measured when the stats block carries a probe;
* ``explain(indent)`` — a plan-tree pretty print used by ``EXPLAIN``.

Join and aggregation operators live in :mod:`repro.relational.join` and
:mod:`repro.relational.aggregate`.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import PlanError
from repro.obs.instrument import span_name_for
from repro.relational.expr import Expr
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
]

Row = Tuple[Any, ...]


class Operator:
    """Base class for executable plan nodes."""

    schema: Schema

    def execute(self, stats: ExecutionStats) -> Iterator[Row]:
        """The node's row stream.  Subclasses implement this and pull their
        children through :meth:`run`, never through ``execute``."""
        raise NotImplementedError

    def run(self, stats: ExecutionStats) -> Iterator[Row]:
        """Pull this node: ``execute``, measured if ``stats`` has a probe.

        Not for subclasses to override — it is what makes every node report
        its own span, rows out and wall time without anything wrapping the
        plan from outside.
        """
        probe = stats.probe
        if probe is None:
            return self.execute(stats)
        return self._measured(stats, probe)

    def _measured(self, stats: ExecutionStats, probe: Probe) -> Iterator[Row]:
        # Spans nest by themselves: in a pull pipeline a child's body first
        # runs inside its parent's iteration, which is when its span opens.
        measure = probe.measures[id(self)]
        tracer = probe.tracer
        span = (
            tracer.span(span_name_for(self), **_span_attrs(self, measure.ordinal))
            if tracer.enabled
            else None
        )
        measure.calls += 1
        start = time.perf_counter()
        n = 0
        try:
            for row in self.execute(stats):
                n += 1
                yield row
        finally:
            measure.rows_out += n
            measure.wall += time.perf_counter() - start
            if span is not None:
                span.set(rows_out=n)
                span.finish()

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


class TableScan(Operator):
    """Full scan of a base table, optionally under an alias."""

    def __init__(self, table: Table, alias: Optional[str] = None) -> None:
        self.table = table
        self.alias = alias or table.name
        self.schema = table.schema.qualify(self.alias)

    def execute(self, stats: ExecutionStats) -> Iterator[Row]:
        # Accumulate locally and flush once: cheaper than a per-row
        # attribute += in the engine's hottest loop, and the flush also
        # covers early teardown by a LIMIT upstream.
        scanned = 0
        try:
            for row in self.table.rows:
                scanned += 1
                yield row
        finally:
            stats.rows_scanned += scanned

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

    def execute(self, stats: ExecutionStats) -> Iterator[Row]:
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

    def execute(self, stats: ExecutionStats) -> Iterator[Row]:
        compiled = self._compiled
        for row in self.child.run(stats):
            if compiled(row) is True:
                yield row

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def label(self) -> str:
        return f"Filter({self.predicate})"


class Project(Operator):
    """Projection: compute output columns from expressions.

    Args:
        outputs: ``(expr, name)`` pairs; output columns are unqualified.
        types: optional per-column types; defaults to FLOAT for computed
            expressions and the source type for plain column references.
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

    def execute(self, stats: ExecutionStats) -> Iterator[Row]:
        compiled = self._compiled
        for row in self.child.run(stats):
            yield tuple(c(row) for c in compiled)

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def label(self) -> str:
        cols = ", ".join(f"{expr} AS {name}" for expr, name in self.outputs)
        return f"Project({cols})"


def _infer_type(expr: Expr, schema: Schema) -> DataType:
    from repro.relational.expr import ColumnRef

    if isinstance(expr, ColumnRef):
        return schema.column(expr.name, expr.qualifier).type
    return FLOAT


class Sort(Operator):
    """Order rows by key expressions (each ascending or descending)."""

    def __init__(self, child: Operator, keys: Sequence[Tuple[Expr, bool]]) -> None:
        if not keys:
            raise PlanError("sort needs at least one key")
        self.child = child
        self.keys = list(keys)
        self.schema = child.schema
        self._compiled = [(expr.bind(child.schema), asc) for expr, asc in self.keys]

    def execute(self, stats: ExecutionStats) -> Iterator[Row]:
        rows = list(self.child.run(stats))
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
