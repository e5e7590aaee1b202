"""The cost model: cardinality and cost estimation from statistics.

Costs are in abstract *row-operation* units, normalized so one window
position (or one scanned row) costs 1.0 (DESIGN.md §5i).

Cardinality estimation uses the textbook rules: histogram interpolation
for range predicates, ``1/NDV`` for equalities, independence for AND,
inclusion-exclusion for OR, and a fixed default where statistics cannot
help.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.stats.collect import ColumnStats, TableStats

__all__ = [
    "CostEstimate",
    "CostModel",
    "DEFAULT_SELECTIVITY",
    "predicate_selectivity",
]

# Selectivity assumed for predicates statistics cannot estimate.
DEFAULT_SELECTIVITY = 1.0 / 3.0


@dataclass(frozen=True)
class CostEstimate:
    """Estimated output cardinality and cumulative cost of an operator."""

    rows: float
    cost: float

    def rounded(self) -> Tuple[int, float]:
        return max(int(round(self.rows)), 0), round(self.cost, 1)


class CostModel:
    """Cost formulas for scans, joins, sorts and the window operator."""

    # Per-row unit costs, relative to one window position = 1.0.
    SCAN_ROW = 1.0
    FILTER_ROW = 0.5
    JOIN_BUILD_ROW = 1.5
    JOIN_PROBE_ROW = 1.5
    NESTED_PAIR = 1.0
    SORT_ROW_FACTOR = 0.6  # x log2(n)
    AGG_ROW = 1.2
    PROJECT_ROW = 0.3
    DISTINCT_ROW = 1.0
    # Faulting one 4 KiB page into the buffer pool: read + CRC + decode.
    # Charged per page for scans over v4 (paged) tables, so the cost
    # planner prefers plans that touch fewer pages (band answers, view
    # matches) once data lives out of core.
    PAGE_IO = 40.0

    WINDOW_ROW = 1.0  # one position of one window column

    # -- the window operator -------------------------------------------------

    def window_cost(self, rows: float) -> float:
        """Cost of evaluating one window column over ``rows`` positions."""
        return max(rows, 0.0) * self.WINDOW_ROW

    # -- relational operators ------------------------------------------------

    def scan_cost(self, rows: float, *, pages: float = 0.0) -> float:
        return rows * self.SCAN_ROW + pages * self.PAGE_IO

    def filter_cost(self, input_rows: float) -> float:
        return input_rows * self.FILTER_ROW

    def sort_cost(self, rows: float) -> float:
        return rows * self.SORT_ROW_FACTOR * math.log2(max(rows, 2.0))

    def hash_join_cost(self, left: float, right: float) -> float:
        return left * self.JOIN_BUILD_ROW + right * self.JOIN_PROBE_ROW

    def nested_join_cost(self, left: float, right: float) -> float:
        return left * right * self.NESTED_PAIR

    def aggregate_cost(self, input_rows: float) -> float:
        return input_rows * self.AGG_ROW

    def project_cost(self, rows: float) -> float:
        return rows * self.PROJECT_ROW

    def distinct_cost(self, rows: float) -> float:
        return rows * self.DISTINCT_ROW


# -- predicate selectivity ----------------------------------------------------


def _literal_value(expr: Any) -> Optional[Any]:
    from repro.relational.expr import Literal

    if isinstance(expr, Literal):
        return expr.value
    return None


def _column_stats_for(expr: Any, stats: Optional[TableStats]) -> Optional[ColumnStats]:
    from repro.relational.expr import ColumnRef

    if stats is None or not isinstance(expr, ColumnRef):
        return None
    return stats.column(expr.name)


def _conjuncts(pred: Any) -> list:
    from repro.relational.expr import And

    if not isinstance(pred, And):
        return [pred]
    return [c for item in pred.items for c in _conjuncts(item)]


def _comparison_parts(pred: Any, stats: Optional[TableStats]):
    """``(column stats, op, literal)`` of a ``column <op> literal``
    comparison written either way round; the stats are None otherwise."""
    from repro.relational.expr import Comparison

    if not isinstance(pred, Comparison):
        return None, "", None
    col_stats = _column_stats_for(pred.left, stats)
    if col_stats is not None:
        return col_stats, pred.op, _literal_value(pred.right)
    # Mirror `literal <op> column`.
    op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(pred.op, pred.op)
    return _column_stats_for(pred.right, stats), op, _literal_value(pred.left)


def predicate_selectivity(pred: Any, stats: Optional[TableStats]) -> float:
    """Estimated selectivity of a predicate over one table's rows.

    Histogram/NDV-backed for ``column <op> literal`` comparisons; AND
    multiplies (independence) except that a lower and an upper bound on
    one column are one range, OR applies inclusion-exclusion, NOT
    complements.  Anything else gets :data:`DEFAULT_SELECTIVITY`.
    """
    from repro.relational.expr import And, Comparison, InList, IsNull, Not, Or

    if isinstance(pred, And):
        sel = 1.0
        bounds: dict = {}  # column name -> {"<": tightest upper, ">": tightest lower}
        for item in _conjuncts(pred):
            col_stats, op, value = _comparison_parts(item, stats)
            s = predicate_selectivity(item, stats)
            if col_stats is not None and type(value) in (int, float) and op in ("<", "<=", ">", ">="):
                sides = bounds.setdefault(col_stats.name, {"stats": col_stats})
                sides[op[0]] = min(s, sides.get(op[0], 1.0))
            else:
                sel *= s
        for sides in bounds.values():
            if "<" in sides and ">" in sides:
                # F(hi) - F(lo) over the non-NULL rows, at least one row.
                both = sides["<"] + sides[">"] - (1.0 - sides["stats"].null_fraction)
                sel *= max(both, 1.0 / max(stats.row_count, 1))
            else:
                sel *= sides.get("<", sides.get(">"))
        return sel
    if isinstance(pred, Or):
        sel = 0.0
        for item in pred.items:
            s = predicate_selectivity(item, stats)
            sel = sel + s - sel * s
        return sel
    if isinstance(pred, Not):
        return max(0.0, 1.0 - predicate_selectivity(pred.item, stats))
    if isinstance(pred, IsNull):
        col_stats = _column_stats_for(pred.item, stats)
        if col_stats is not None:
            frac = col_stats.null_fraction
            return frac if not pred.negated else 1.0 - frac
        return DEFAULT_SELECTIVITY
    if isinstance(pred, InList):
        col_stats = _column_stats_for(pred.item, stats)
        if col_stats is not None:
            values = [_literal_value(v) for v in pred.options]
            if all(v is not None for v in values):
                return min(1.0, sum(col_stats.selectivity_eq(v) for v in values))
        return DEFAULT_SELECTIVITY
    if isinstance(pred, Comparison):
        col_stats, op, value = _comparison_parts(pred, stats)
        if col_stats is not None and value is not None:
            return min(1.0, max(0.0, col_stats.selectivity_cmp(op, value)))
        return DEFAULT_SELECTIVITY
    return DEFAULT_SELECTIVITY
