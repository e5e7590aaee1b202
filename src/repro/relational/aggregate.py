"""Grouped aggregation (hash-based) for the relational engine.

Supports the SQL aggregates SUM/COUNT/AVG/MIN/MAX over arbitrary argument
expressions — in particular the ``SUM(CASE WHEN ... THEN val ELSE -val
END)`` shape at the heart of the paper's operator patterns (figs. 4, 10,
13) — plus ``COUNT(*)`` and grouping by arbitrary expressions.

SQL NULL semantics: NULL arguments are skipped; SUM/MIN/MAX/AVG over an
empty group yield NULL, COUNT yields 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import PlanError
from repro.relational.expr import Expr
from repro.relational.operators import Operator
from repro.relational.schema import Column, Schema
from repro.relational.stats import ExecutionStats
from repro.relational.types import FLOAT, INTEGER, DataType

__all__ = ["AggSpec", "HashAggregate"]

Row = Tuple[Any, ...]

_AGG_NAMES = ("SUM", "COUNT", "AVG", "MIN", "MAX")


@dataclass(frozen=True)
class AggSpec:
    """One aggregate output column.

    Attributes:
        func: SUM/COUNT/AVG/MIN/MAX.
        arg: argument expression, or ``None`` for ``COUNT(*)``.
        name: output column name.
    """

    func: str
    arg: Optional[Expr]
    name: str

    def __post_init__(self) -> None:
        func = self.func.upper()
        if func not in _AGG_NAMES:
            raise PlanError(f"unknown aggregate {self.func!r}")
        if func != "COUNT" and self.arg is None:
            raise PlanError(f"{func} requires an argument expression")
        object.__setattr__(self, "func", func)

    def output_type(self) -> DataType:
        return INTEGER if self.func == "COUNT" else FLOAT


class _Accumulator:
    """Streaming state for one (group, aggregate) cell."""

    __slots__ = ("func", "count", "total", "extreme")

    def __init__(self, func: str) -> None:
        self.func = func
        self.count = 0
        self.total = 0.0
        self.extreme: Optional[Any] = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        self.count += 1
        if self.func in ("SUM", "AVG"):
            self.total += value
        elif self.func == "MIN":
            self.extreme = value if self.extreme is None else min(self.extreme, value)
        elif self.func == "MAX":
            self.extreme = value if self.extreme is None else max(self.extreme, value)

    def result(self) -> Any:
        if self.func == "COUNT":
            return self.count
        if self.count == 0:
            return None
        if self.func == "SUM":
            return self.total
        if self.func == "AVG":
            return self.total / self.count
        return self.extreme

    # -- spill support --------------------------------------------------------

    def state(self) -> Tuple[int, float, Any]:
        """Picklable mergeable state (see :class:`_AggSpill`)."""
        return (self.count, self.total, self.extreme)

    def merge_state(self, state: Tuple[int, float, Any]) -> None:
        count, total, extreme = state
        self.count += count
        self.total += total
        if extreme is not None:
            if self.extreme is None:
                self.extreme = extreme
            elif self.func == "MIN":
                self.extreme = min(self.extreme, extreme)
            elif self.func == "MAX":
                self.extreme = max(self.extreme, extreme)


class _AggSpill:
    """Spills hash-aggregate partition state under a memory budget.

    When the ambient :func:`repro.storage.spill.active_budget` is set and
    the estimated group-state footprint crosses half of it, the current
    partials are pickled to the spill store and the hash table is
    cleared; emission merges every spilled partial (chronological order,
    so the global first-seen group order is preserved) with the live
    tail.  SUM/AVG merge partial totals, so a spilled run may differ from
    the unspilled sequential sum in the last ulp (documented, DESIGN.md
    §5j).
    """

    # Rough per-group resident bytes: key tuple + dict slot + accumulators.
    def __init__(self, n_aggs: int, n_keys: int) -> None:
        self.store = None
        self.handles: List[Any] = []
        self.per_group = 120 + 88 * n_aggs + 32 * max(n_keys, 1)

    def maybe_spill(self, groups: Dict, order: List, budget: Optional[int]) -> None:
        if budget is None or not groups:
            return
        if len(groups) * self.per_group <= max(budget // 2, 1):
            return
        from repro.storage.spill import SpillStore

        if self.store is None:
            self.store = SpillStore()
        self.handles.append(
            self.store.write_obj(
                [(key, [acc.state() for acc in groups[key]]) for key in order]
            )
        )
        groups.clear()
        order.clear()

    def merge(self, groups: Dict, order: List, make_accs) -> Tuple[Dict, List]:
        """Fold spilled partials + the live tail into one (groups, order)."""
        if not self.handles:
            return groups, order
        merged: Dict = {}
        morder: List = []
        for handle in self.handles:
            for key, states in self.store.read_obj(handle):
                accs = merged.get(key)
                if accs is None:
                    accs = make_accs()
                    merged[key] = accs
                    morder.append(key)
                for acc, st in zip(accs, states):
                    acc.merge_state(st)
        for key in order:
            accs = merged.get(key)
            if accs is None:
                merged[key] = groups[key]
                morder.append(key)
            else:
                for acc, live in zip(accs, groups[key]):
                    acc.merge_state(live.state())
        self.store.close()
        return merged, morder


class HashAggregate(Operator):
    """``GROUP BY`` + aggregates in one hash pass.

    Args:
        group_by: ``(expr, name)`` pairs forming the group key (may be
            empty: a single global group, emitted even for empty input).
        aggregates: the :class:`AggSpec` list.
    """

    def __init__(
        self,
        child: Operator,
        group_by: Sequence[Tuple[Expr, str]],
        aggregates: Sequence[AggSpec],
    ) -> None:
        if not aggregates and not group_by:
            raise PlanError("aggregation needs group keys or aggregates")
        self.child = child
        self.group_by = list(group_by)
        self.aggregates = list(aggregates)
        columns: List[Column] = []
        for expr, name in self.group_by:
            columns.append(Column(name, _group_type(expr, child.schema)))
        for spec in self.aggregates:
            columns.append(Column(spec.name, spec.output_type()))
        self.schema = Schema(columns)
        self._keys = [expr.bind(child.schema) for expr, _ in self.group_by]
        self._args = [
            spec.arg.bind(child.schema) if spec.arg is not None else None
            for spec in self.aggregates
        ]

    def execute(self, stats: ExecutionStats) -> Iterator[Row]:
        from repro.storage.spill import active_budget

        budget = active_budget()
        spill = _AggSpill(len(self.aggregates), len(self.group_by))
        groups: Dict[Tuple[Any, ...], List[_Accumulator]] = {}
        order: List[Tuple[Any, ...]] = []
        consumed = 0
        for row in self.child.run(stats):
            consumed += 1
            key = tuple(k(row) for k in self._keys)
            accs = groups.get(key)
            if accs is None:
                accs = [_Accumulator(spec.func) for spec in self.aggregates]
                groups[key] = accs
                order.append(key)
            for acc, arg in zip(accs, self._args):
                acc.add(arg(row) if arg is not None else 1)
            if budget is not None and consumed % 4096 == 0:
                spill.maybe_spill(groups, order, budget)
        stats.rows_aggregated += consumed
        groups, order = spill.merge(
            groups, order,
            lambda: [_Accumulator(spec.func) for spec in self.aggregates],
        )
        if not groups and not self.group_by:
            # Global aggregate over empty input still emits one row.
            groups[()] = [_Accumulator(spec.func) for spec in self.aggregates]
            order.append(())
        for key in order:
            stats.groups_emitted += 1
            yield key + tuple(acc.result() for acc in groups[key])

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def label(self) -> str:
        keys = ", ".join(name for _, name in self.group_by) or "<global>"
        aggs = ", ".join(
            f"{s.func}({s.arg if s.arg is not None else '*'}) AS {s.name}"
            for s in self.aggregates
        )
        return f"HashAggregate(by [{keys}]: {aggs})"


def _group_type(expr: Expr, schema: Schema) -> DataType:
    from repro.relational.expr import ColumnRef

    if isinstance(expr, ColumnRef):
        return schema.column(expr.name, expr.qualifier).type
    return FLOAT
