"""Logical plan nodes: the optimizer's side of the logical→physical split.

The SQL builder (:mod:`repro.sql.planner`) lowers a SELECT to a tree of
these nodes first; the :class:`~repro.sql.planner.PhysicalPlanner` then
maps each logical node to a physical operator, estimating cardinalities
and costs along the way and — where statistics are fresh — choosing the
window kernel and the sharing rewrites from those estimates.

Logical nodes know their output *schema* (needed for binding checks while
the statement is being built) but carry no execution state.  Schema rules
mirror the physical operators exactly — a logical plan that binds lowers
to a physical plan that binds.

:class:`LPhysical` is the escape hatch for patterns that are built
directly as physical trees (the fig. 2 self-join rewrite).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.relational.aggregate import AggSpec, _group_type
from repro.relational.expr import Expr
from repro.relational.operators import Operator, _infer_type
from repro.relational.schema import Column, Schema
from repro.relational.types import FLOAT
from repro.sql.window_exec import WindowColumnSpec

__all__ = [
    "LogicalNode",
    "LScan",
    "LAlias",
    "LFilter",
    "LJoin",
    "LAggregate",
    "LWindow",
    "LProject",
    "LDistinct",
    "LSort",
    "LLimit",
    "LUnionAll",
    "LPhysical",
    "explain_logical",
]


class LogicalNode:
    """Base class: children + a computed output schema + a display label."""

    schema: Schema

    def children(self) -> Sequence["LogicalNode"]:
        return ()

    def label(self) -> str:
        return type(self).__name__

    def explain(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.label()]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)


class LScan(LogicalNode):
    """Base-table access path."""

    def __init__(self, table, binding: Optional[str] = None) -> None:
        self.table = table
        self.binding = binding
        self.schema = table.schema.qualify(binding)

    def label(self) -> str:
        alias = f" AS {self.binding}" if self.binding else ""
        return f"LScan({self.table.name}{alias})"


class LAlias(LogicalNode):
    """Re-qualify a derived table (subquery in FROM) under its binding."""

    def __init__(self, child: LogicalNode, alias: str) -> None:
        self.child = child
        self.alias = alias
        self.schema = Schema(
            [Column(c.name, c.type, alias) for c in child.schema]
        )

    def children(self) -> Sequence[LogicalNode]:
        return (self.child,)

    def label(self) -> str:
        return f"LAlias({self.alias})"


class LFilter(LogicalNode):
    """Predicate over the child's rows (WHERE / HAVING / pushdown)."""

    def __init__(self, child: LogicalNode, predicate: Expr) -> None:
        self.child = child
        self.predicate = predicate
        self.schema = child.schema

    def children(self) -> Sequence[LogicalNode]:
        return (self.child,)

    def label(self) -> str:
        return f"LFilter({self.predicate})"


class LJoin(LogicalNode):
    """Binary join; ``algorithm`` is "hash" (equi keys) or "nested"."""

    def __init__(
        self,
        left: LogicalNode,
        right: LogicalNode,
        *,
        algorithm: str,
        eq_left: Sequence[Expr] = (),
        eq_right: Sequence[Expr] = (),
        residual: Optional[Expr] = None,
    ) -> None:
        self.left = left
        self.right = right
        self.algorithm = algorithm
        self.eq_left = list(eq_left)
        self.eq_right = list(eq_right)
        self.residual = residual
        self.schema = left.schema.concat(right.schema)

    def children(self) -> Sequence[LogicalNode]:
        return (self.left, self.right)

    def label(self) -> str:
        if self.algorithm == "hash":
            keys = ", ".join(
                f"{l} = {r}" for l, r in zip(self.eq_left, self.eq_right)
            )
            return f"LJoin(hash: {keys})"
        return f"LJoin(nested: {self.residual})"


class LAggregate(LogicalNode):
    """Global GROUP BY: grouping outputs plus aggregate columns."""

    def __init__(
        self,
        child: LogicalNode,
        group_outputs: Sequence[Tuple[Expr, str]],
        agg_specs: Sequence[AggSpec],
    ) -> None:
        self.child = child
        self.group_outputs = list(group_outputs)
        self.agg_specs = list(agg_specs)
        columns: List[Column] = []
        for expr, name in self.group_outputs:
            columns.append(Column(name, _group_type(expr, child.schema)))
        for spec in self.agg_specs:
            columns.append(Column(spec.name, spec.output_type()))
        self.schema = Schema(columns)

    def children(self) -> Sequence[LogicalNode]:
        return (self.child,)

    def label(self) -> str:
        groups = ", ".join(name for _, name in self.group_outputs)
        aggs = ", ".join(s.name for s in self.agg_specs)
        return f"LAggregate(group=[{groups}] aggs=[{aggs}])"


class LWindow(LogicalNode):
    """All reporting-function columns of one SELECT, evaluated together."""

    def __init__(
        self, child: LogicalNode, specs: Sequence[WindowColumnSpec]
    ) -> None:
        self.child = child
        self.specs = list(specs)
        columns = list(child.schema.columns)
        for spec in self.specs:
            columns.append(Column(spec.name, FLOAT))
        self.schema = Schema(columns)

    def children(self) -> Sequence[LogicalNode]:
        return (self.child,)

    def label(self) -> str:
        return f"LWindow({', '.join(s.name for s in self.specs)})"


class LProject(LogicalNode):
    """Projection to named output expressions (the SELECT list)."""

    def __init__(
        self, child: LogicalNode, outputs: Sequence[Tuple[Expr, str]]
    ) -> None:
        self.child = child
        self.outputs = list(outputs)
        self.schema = Schema(
            [Column(name, _infer_type(expr, child.schema)) for expr, name in outputs]
        )

    def children(self) -> Sequence[LogicalNode]:
        return (self.child,)

    def label(self) -> str:
        return f"LProject({', '.join(name for _, name in self.outputs)})"


class LDistinct(LogicalNode):
    """SELECT DISTINCT over the child's output."""

    def __init__(self, child: LogicalNode) -> None:
        self.child = child
        self.schema = child.schema

    def children(self) -> Sequence[LogicalNode]:
        return (self.child,)


class LSort(LogicalNode):
    """Global ORDER BY over ``(expression, ascending)`` keys."""

    def __init__(
        self, child: LogicalNode, keys: Sequence[Tuple[Expr, bool]]
    ) -> None:
        self.child = child
        self.keys = list(keys)
        self.schema = child.schema

    def children(self) -> Sequence[LogicalNode]:
        return (self.child,)

    def label(self) -> str:
        keys = ", ".join(
            f"{expr} {'ASC' if asc else 'DESC'}" for expr, asc in self.keys
        )
        return f"LSort({keys})"


class LLimit(LogicalNode):
    """LIMIT/OFFSET over the child's output."""

    def __init__(self, child: LogicalNode, limit: int, offset: int = 0) -> None:
        self.child = child
        self.limit = limit
        self.offset = offset
        self.schema = child.schema

    def children(self) -> Sequence[LogicalNode]:
        return (self.child,)

    def label(self) -> str:
        return f"LLimit({self.limit})"


class LUnionAll(LogicalNode):
    """Bag union of schema-compatible branches (UNION ALL)."""

    def __init__(self, branches: Sequence[LogicalNode]) -> None:
        self.branches = list(branches)
        self.schema = self.branches[0].schema

    def children(self) -> Sequence[LogicalNode]:
        return tuple(self.branches)

    def label(self) -> str:
        return f"LUnionAll({len(self.branches)})"


class LPhysical(LogicalNode):
    """A subtree already lowered to physical operators (pattern rewrites)."""

    def __init__(self, plan: Operator, note: str = "pattern") -> None:
        self.plan = plan
        self.note = note
        self.schema = plan.schema

    def label(self) -> str:
        return f"LPhysical({self.note}: {self.plan.label()})"


def explain_logical(node: LogicalNode) -> str:
    """Render a logical tree (mirrors ``Operator.explain``)."""
    return node.explain()
