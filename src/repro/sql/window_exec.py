"""Native reporting-function execution (the engine's window operator).

This operator is the "existing reporting functionality inside the database
engine" column of the paper's Table 1: each window column is evaluated by

1. hashing rows into partitions (``PARTITION BY``),
2. sorting each partition by the window's local ``ORDER BY`` (independent of
   the query's global ORDER BY — fig. 1's semantics), and
3. computing the frame aggregate with the one window kernel,
   :func:`~repro.core.vectorized.compute_vectorized`, called once over all
   partitions as segments of the sorted input: section 2.2's pipelined
   recurrence as NumPy, one 2-D run per distinct partition length, O(1)
   per row for every aggregate and bit-identical to the scalar recurrence
   (DESIGN.md §5m).

Reporting functions do not shrink the data volume: one output value is
produced per input row, appended as extra columns to the child's rows.

When the child hands over a :class:`~repro.columns.ColumnRows` and every
clause partitions, orders and aggregates plain columns, steps 1 and 2 are
one stable ``np.lexsort`` over the key columns cut at partition-key
changes, and the output is the child's columns plus one float64 column per
clause — no row is built.  NumPy orders ``int64``/``float64``/``bool`` keys
without NULLs or NaNs exactly as Python's stable sort does; anything else
(TEXT/DATE/NULL keys, computed arguments or keys, ranking functions, RANGE
frames, an ambient spill budget) runs the row loop, which computes the same
values.

Queries with several OVER clauses share work across the clauses in two
tiers, both always on:

1. *partition/sort sharing* — clauses with the same PARTITION BY /
   ORDER BY signature group and sort the input once;
2. *result dedup* — textually identical clauses are computed once.

Every other clause is computed directly: deriving a frame from a sibling's
sequence only pays while it is cheaper than the kernel, and the kernel is
O(n) whatever the frame width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.columns import Column as DataColumn
from repro.columns import ColumnRows, kind_for_type, run_starts, sort_order
from repro.core.aggregates import by_name
from repro.core.vectorized import compute_vectorized, length_classes
from repro.core.window import WindowSpec
from repro.errors import PlanError, SchemaError
from repro.relational.expr import ColumnRef, Expr
from repro.relational.operators import (
    Alias,
    Operator,
    TableScan,
    plain_column_indexes,
)
from repro.relational.schema import Column, Schema
from repro.relational.stats import ExecutionStats
from repro.relational.types import FLOAT
from repro.sql.ast_nodes import OrderItem

__all__ = ["RANKING_FUNCS", "WindowColumnSpec", "WindowOperator"]

Row = Tuple[Any, ...]

RANKING_FUNCS = ("ROW_NUMBER", "RANK", "DENSE_RANK")


@dataclass(frozen=True)
class WindowColumnSpec:
    """One reporting-function output column.

    Attributes:
        func: SUM/COUNT/AVG/MIN/MAX, or a ranking function
            (ROW_NUMBER/RANK/DENSE_RANK, argument- and frame-less).
        arg: argument expression over the child schema (None = COUNT(*) or
            a ranking function).
        partition_by: partition expressions.
        order_by: local ordering (expression, ascending) items.
        window: the lowered :class:`WindowSpec` frame (None for ranking
            functions, whose scope is the whole partition).
        name: output column name.
    """

    func: str
    arg: Optional[Expr]
    partition_by: Tuple[Expr, ...]
    order_by: Tuple[OrderItem, ...]
    window: Optional[WindowSpec]
    name: str
    range_frame: Optional[Tuple[Optional[float], Optional[float]]] = None

    @property
    def is_ranking(self) -> bool:
        return self.func in RANKING_FUNCS

    @property
    def is_range(self) -> bool:
        return self.range_frame is not None

    def __post_init__(self) -> None:
        if self.is_ranking:
            if not self.order_by:
                raise PlanError(f"{self.func}() needs an ORDER BY")
            if self.window is not None or self.range_frame is not None:
                raise PlanError(f"{self.func}() does not take a window frame")
            return
        if self.is_range:
            if self.window is not None:
                raise PlanError("specify either a ROWS window or a RANGE frame")
            if len(self.order_by) != 1:
                raise PlanError(
                    "RANGE frames need exactly one ORDER BY expression"
                )
            if not self.order_by[0].ascending:
                raise PlanError("RANGE frames need an ascending ORDER BY")
            return
        if self.window is None:
            raise PlanError(
                f"reporting function {self.name!r} needs a window frame"
            )
        if not self.order_by and not self.window.is_point:
            raise PlanError(
                f"reporting function {self.name!r} needs an ORDER BY to "
                "define its sequence"
            )


class WindowOperator(Operator):
    """Append reporting-function columns to the child's rows."""

    def __init__(self, child: Operator, specs: Sequence[WindowColumnSpec]) -> None:
        if not specs:
            raise PlanError("window operator needs at least one column spec")
        self.child = child
        self.specs = list(specs)
        # What the last execution did (columnar or row input, rows, sharing
        # hits): read by EXPLAIN ANALYZE.
        self.analyze_extra: dict = {}
        columns = list(child.schema.columns)
        for spec in self.specs:
            columns.append(Column(spec.name, FLOAT))
        self.schema = Schema(columns)
        self._bound = []
        for spec in self.specs:
            self._bound.append(
                (
                    spec.arg.bind(child.schema) if spec.arg is not None else None,
                    [e.bind(child.schema) for e in spec.partition_by],
                    [(o.expr.bind(child.schema), o.ascending) for o in spec.order_by],
                )
            )
        # Per signature, the child-schema positions of its PARTITION BY
        # columns and (position, ascending) ORDER BY keys — or None when
        # some clause is not plain columns under a ROWS frame.
        self._key_columns = self._plain_key_columns()

    def _plain_key_columns(self) -> Optional[dict]:
        schema = self.child.schema
        keys: dict = {}
        for spec in self.specs:
            partition = plain_column_indexes(spec.partition_by, schema)
            order = plain_column_indexes([o.expr for o in spec.order_by], schema)
            if (
                spec.is_ranking
                or spec.is_range
                or partition is None
                or order is None
                or not (spec.arg is None or isinstance(spec.arg, ColumnRef))
            ):
                return None
            ascending = [o.ascending for o in spec.order_by]
            keys[_signature(spec)] = (partition, list(zip(order, ascending)))
        return keys

    def _sort_orders(self, columns: Sequence[DataColumn], nrows: int) -> Optional[dict]:
        """Per signature ``(sort order, partition columns)`` of a columnar
        input, or None when some key needs Python's sort (see module doc)."""
        if self._key_columns is None:
            return None
        orders = {}
        for sig, (partition, order) in self._key_columns.items():
            keys = [(columns[i], True) for i in partition]
            keys += [(columns[i], ascending) for i, ascending in order]
            sorted_indexes = sort_order(keys, nrows)
            if sorted_indexes is None:
                return None
            orders[sig] = (sorted_indexes, [columns[i] for i in partition])
        return orders

    def execute(self, stats: ExecutionStats) -> Iterable[Row]:
        from repro.obs import runtime
        from repro.storage.spill import SpilledFloatRun, SpillStore, active_budget

        rows = self.child.run(stats)
        # Columnar when the child is and NumPy can order every clause's
        # keys; ``orders`` then replaces partitioning and sorting rows.
        orders = None
        if isinstance(rows, ColumnRows):
            orders = self._sort_orders(rows.columns, len(rows))
        # The row loop still gathers measures from a columnar child's columns.
        columns = rows if isinstance(rows, ColumnRows) else None
        if orders is None:
            rows = list(rows)
        # The spill budget bounds what the row loop builds (row tuples, then
        # window runs beside them); the column path holds its input and
        # output columns, which the result keeps in memory either way.
        budget = active_budget() if orders is None else None
        self.analyze_extra = {
            "input": "columns" if orders is not None else "rows",
            "rows": len(rows),
        }
        # Run-state spilling ("Support Aggregate Analytic Window Function
        # over Large Data by Spilling"): under an ambient memory budget,
        # computed window columns past the in-memory allowance are written
        # to the spill store as chunked float64 runs and read back
        # sequentially at emit — values are bit-identical (float64 round-
        # trips exactly), only residency changes.
        spill_store: Optional[SpillStore] = None
        held_bytes = 0
        extras: list = []
        measure_cache: dict = {}
        sort_cache: dict = {}
        result_cache: dict = {}
        for spec, (arg, partition, order) in zip(self.specs, self._bound):
            sig = _signature(spec)
            dedup_key = (
                sig,
                spec.func,
                str(spec.arg) if spec.arg is not None else None,
                spec.window,
                spec.range_frame,
            )
            if dedup_key in result_cache:
                self._count("deduped")
                extras.append(result_cache[dedup_key])
                continue
            segments = self._partition_and_sort(
                sig, partition, order, rows, sort_cache, orders
            )
            measure = self._measure_column(spec, columns or rows, measure_cache)
            values = self._evaluate(spec, arg, order, segments, rows, stats, measure)
            if budget is not None:
                run_bytes = values.nbytes
                if held_bytes + run_bytes > max(budget // 2, 1):
                    if spill_store is None:
                        spill_store = SpillStore()
                    values = SpilledFloatRun(spill_store, values)
                    self._count("spilled_runs")
                else:
                    held_bytes += run_bytes
            result_cache[dedup_key] = values
            extras.append(values)
        registry = runtime.get_registry()
        registry.counter(
            "repro_window_positions_total",
            help="Window positions evaluated (rows x window columns)",
        ).inc(len(rows) * len(self.specs))
        tracer = runtime.get_tracer()
        if tracer.enabled:
            span = tracer.current_span()
            if span is not None:
                span.set(positions=len(rows) * len(self.specs),
                         **self.analyze_extra)
        if orders is not None:
            return ColumnRows(
                [*rows.columns, *(DataColumn(values) for values in extras)]
            )
        return self._emit(rows, extras, spill_store)

    def _count(self, what: str, n: int = 1) -> None:
        self.analyze_extra[what] = self.analyze_extra.get(what, 0) + n

    @staticmethod
    def _emit(rows: List[Row], extras: list, spill_store) -> Iterator[Row]:
        """The child's rows, each extended by its window values."""
        extras = [e.tolist() if isinstance(e, np.ndarray) else e for e in extras]
        try:
            for i, row in enumerate(rows):
                yield row + tuple(extra[i] for extra in extras)
        finally:
            if spill_store is not None:
                spill_store.close()

    # -- columnar measure extraction ------------------------------------------

    def _measure_column(
        self, spec: WindowColumnSpec, rows, cache: dict
    ) -> Optional[DataColumn]:
        """The measure as a :class:`~repro.columns.Column`, when gatherable.

        Plain column-reference arguments take the columnar fast path: the
        sorted raw sequence is one C-speed gather (``take`` +
        ``as_float64``) over one measure buffer instead of per-row closure
        calls.  A columnar input already has the column; for rows, when the
        child is a bare (possibly aliased) table scan the buffer is the
        table heap itself, zero-copy; otherwise the column is built once
        from the materialized rows and shared by all specs that reference
        it.  Returns ``None`` for computed arguments (CASE arithmetic, ...)
        — callers then evaluate row-at-a-time.
        """
        if spec.is_ranking or not isinstance(spec.arg, ColumnRef):
            return None
        try:
            idx = self.child.schema.resolve(spec.arg.name, spec.arg.qualifier)
        except SchemaError:  # pragma: no cover - bind() would have raised
            return None
        if idx in cache:
            from repro.obs import runtime

            runtime.get_registry().counter(
                "repro_window_measure_cache_hits_total",
                help="Measure-column gathers served from the per-query cache",
            ).inc()
            return cache[idx]
        if isinstance(rows, ColumnRows):
            column = rows.columns[idx]
        else:
            column = self._heap_column(idx)
        if column is None or len(column) != len(rows):
            kind = kind_for_type(self.child.schema.columns[idx].type.name)
            column = DataColumn.from_values([row[idx] for row in rows], kind)
        cache[idx] = column
        return column

    def _heap_column(self, idx: int) -> Optional[DataColumn]:
        """Zero-copy heap buffer when the child is a bare table scan."""
        node: Operator = self.child
        while isinstance(node, Alias):
            node = node.child
        if isinstance(node, TableScan):
            return node.table.column_values(idx)
        return None

    def _partition_and_sort(
        self, sig, partition, order, rows, cache: dict, orders: Optional[dict] = None
    ) -> tuple:
        """Partition + locally sort the input once per distinct signature
        (clauses sharing one reuse it, the always-on sharing tier): the row
        indexes in (partition, local order) order and the offset of each
        PARTITION BY group's segment in them.  With ``orders`` (a columnar
        input) a segment is a run of the signature's sort order."""
        from repro.obs import runtime

        if sig in cache:
            runtime.get_registry().counter(
                "repro_window_sort_cache_hits_total",
                help="Partition/sort passes served from the shared cache",
            ).inc()
            self._count("shared_sorts")
            return cache[sig]
        if orders is not None:
            indexes, partition_columns = orders[sig]
            keys = [column.take(indexes) for column in partition_columns]
            segments = (indexes, run_starts(keys, len(indexes)))
        else:
            by_key: dict = {}
            for i, row in enumerate(rows):
                key = tuple(p(row) for p in partition)
                by_key.setdefault(key, []).append(i)
            for indexes in by_key.values():
                # Local sort order per reporting function (stable multi-key).
                for key_fn, asc in reversed(order):
                    indexes.sort(key=lambda i: key_fn(rows[i]), reverse=not asc)
            lengths = [len(indexes) for indexes in by_key.values()]
            flat = [i for indexes in by_key.values() for i in indexes]
            segments = (np.array(flat, dtype=np.intp), np.cumsum([0] + lengths)[:-1])
        cache[sig] = segments
        return segments

    def _evaluate(
        self, spec: WindowColumnSpec, arg, order, segments: tuple, rows,
        stats: ExecutionStats, measure: Optional[DataColumn] = None,
    ) -> np.ndarray:
        from repro.obs import runtime

        aggregate = None if spec.is_ranking else by_name(spec.func)
        indexes, offsets = segments
        registry = runtime.get_registry()
        registry.counter(
            "repro_window_groups_total",
            help="PARTITION BY groups evaluated by the window operator",
        ).inc(len(offsets))
        self.analyze_extra["groups"] = len(offsets)
        stats.rows_sorted += len(indexes)
        out = np.zeros(len(rows))
        kernel_calls = 0
        if spec.is_ranking or spec.is_range:  # row loops, partition by partition
            for group in np.split(indexes, offsets[1:]):
                group = group.tolist()
                if spec.is_ranking:
                    out[group] = self._rank(spec.func, group, rows, order)
                else:
                    out[group] = self._range_frame(spec, aggregate, arg, group, rows, order)
        elif len(indexes):
            if arg is None:
                raw = np.ones(len(indexes))
            elif measure is not None:
                # Exactly the floats the row loop would make (NULL ->
                # 0.0, ints promoted losslessly), in input order.
                raw = measure.as_float64(0.0)
            else:
                # The sequence model has no NULLs; absent measures
                # count as 0 (row fallback for computed arguments).
                raw = np.array([float(v) if (v := arg(row)) is not None else 0.0
                                for row in rows])
            # One kernel call over every segment, read in sort order.
            out = compute_vectorized(raw, spec.window, aggregate, offsets, indexes)
            kernel_calls = len(length_classes(offsets, len(indexes)))
        registry.counter(
            "repro_window_kernel_calls_total",
            help="Window kernel runs (one per distinct partition length and block)",
        ).inc(kernel_calls)
        self._count("kernel_calls", kernel_calls)
        return out

    @staticmethod
    def _range_frame(spec, aggregate, arg, indexes, rows, order) -> List[float]:
        """Value-distance (RANGE) frames over one sorted partition.

        For each row with ordering key ``v`` the window holds the rows whose
        key lies in ``[v - low, v + high]`` (None = unbounded); date keys
        measure distance in days.  Two pointers walk the sorted partition,
        maintaining a running sum for the invertible aggregates.
        """
        low, high = spec.range_frame
        key_fn = order[0][0]
        keys = [key_fn(rows[i]) for i in indexes]
        raw = [
            float(v) if arg is not None and (v := arg(rows[i])) is not None
            else (0.0 if arg is not None else 1.0)
            for i in indexes
        ]

        def distance(a, b):
            d = a - b
            return float(d.days) if hasattr(d, "days") else float(d)

        n = len(indexes)
        out: List[float] = []
        lo_ptr, hi_ptr = 0, 0
        running = 0.0
        for i in range(n):
            v = keys[i]
            # Advance hi to include every key <= v + high.
            while hi_ptr < n and (
                high is None or distance(keys[hi_ptr], v) <= high
            ):
                running += raw[hi_ptr]
                hi_ptr += 1
            # Advance lo past every key < v - low.
            while low is not None and lo_ptr < n and distance(v, keys[lo_ptr]) > low:
                running -= raw[lo_ptr]
                lo_ptr += 1
            lo, hi = lo_ptr, hi_ptr  # window is [lo, hi)
            if aggregate.name == "SUM":
                out.append(running)
            elif aggregate.name == "COUNT":
                out.append(float(hi - lo))
            elif aggregate.name == "AVG":
                out.append(running / (hi - lo) if hi > lo else 0.0)
            else:  # MIN / MAX on the (small) slice
                window_vals = raw[lo:hi]
                if not window_vals:
                    out.append(0.0)
                else:
                    out.append(
                        min(window_vals) if aggregate.name == "MIN"
                        else max(window_vals)
                    )
        return out

    @staticmethod
    def _rank(func: str, indexes, rows, order) -> List[float]:
        """ROW_NUMBER / RANK / DENSE_RANK over one sorted partition."""
        if func == "ROW_NUMBER":
            return [float(i + 1) for i in range(len(indexes))]
        keys = [tuple(key_fn(rows[i]) for key_fn, _ in order) for i in indexes]
        out: List[float] = []
        rank = dense = 0
        prev = object()
        for pos, key in enumerate(keys, start=1):
            if key != prev:
                rank = pos
                dense += 1
                prev = key
            out.append(float(rank if func == "RANK" else dense))
        return out

    def children(self) -> Sequence[Operator]:
        return (self.child,)

    def label(self) -> str:
        parts = []
        for s in self.specs:
            if s.is_ranking:
                parts.append(f"{s.func}() AS {s.name}")
            else:
                frame = _range_frame_sql(*s.range_frame) if s.is_range else s.window.to_frame_sql()
                parts.append(
                    f"{s.func}({s.arg if s.arg is not None else '*'}) {frame} AS {s.name}"
                )
        return f"WindowOperator({', '.join(parts)})"


def _range_frame_sql(low: Optional[float], high: Optional[float]) -> str:
    """Render a RANGE frame's ``(low, high)`` distances (None = unbounded)."""
    def bound(distance, word):
        if distance is None:
            return f"UNBOUNDED {word}"
        return "CURRENT ROW" if distance == 0 else f"{distance:g} {word}"

    return f"RANGE BETWEEN {bound(low, 'PRECEDING')} AND {bound(high, 'FOLLOWING')}"


def _signature(spec: WindowColumnSpec) -> tuple:
    """The (PARTITION BY, ORDER BY) identity clauses share sorts under."""
    return (
        tuple(str(e) for e in spec.partition_by),
        tuple((str(o.expr), o.ascending) for o in spec.order_by),
    )
