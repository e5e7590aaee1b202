"""Operator span names, and the EXPLAIN ANALYZE tree rendering.

Operators measure themselves: :meth:`Operator.run
<repro.relational.operators.Operator.run>` opens the span named here
(``table.scan``, ``join.index``, ``window.evaluate``, …) and fills the
node's :class:`~repro.relational.stats.NodeMeasure` whenever the stats
block carries a :class:`~repro.relational.stats.Probe`.

``render_annotated`` prints the ``EXPLAIN``-style tree with those actual
rows and wall times, plus any attributes the operator published via its
``analyze_extra`` dict (the window operator records its input shape and
sharing hits there; the rewriter records MaxOA/MinOA on the result
instead).
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["span_name_for", "render_annotated"]

# Operator class name -> span name (span taxonomy, DESIGN.md §5f).
_SPAN_NAMES = {
    "TableScan": "table.scan",
    "Alias": "op.alias",
    "Filter": "op.filter",
    "Project": "op.project",
    "Sort": "op.sort",
    "Limit": "op.limit",
    "UnionAll": "op.union",
    "Distinct": "op.distinct",
    "NestedLoopJoin": "join.nested",
    "IndexNestedLoopJoin": "join.index",
    "HashJoin": "join.hash",
    "HashAggregate": "op.aggregate",
    "WindowOperator": "window.evaluate",
}


def span_name_for(node: Any) -> str:
    """Span name for an operator node (``op.<classname>`` when unmapped)."""
    return _SPAN_NAMES.get(type(node).__name__, f"op.{type(node).__name__.lower()}")


def render_annotated(
    plan: Any, measures: Dict[int, Any], indent: int = 0
) -> str:
    """EXPLAIN-style tree annotated with a probe's ``measures``."""
    measure = measures.get(id(plan))
    note = ""
    if measure is not None and measure.calls:
        parts = [
            f"actual rows={measure.rows_out}",
            f"time={measure.wall * 1000:.3f} ms",
        ]
        if measure.calls > 1:
            parts.append(f"calls={measure.calls}")
        extra = getattr(plan, "analyze_extra", None)
        if extra:
            parts.extend(f"{k}={v}" for k, v in sorted(extra.items()))
        note = "  (" + ", ".join(parts) + ")"
    elif measure is not None:
        note = "  (never executed)"
    lines = ["  " * indent + plan.label() + note]
    for child in plan.children():
        lines.append(render_annotated(child, measures, indent + 1))
    return "\n".join(lines)
