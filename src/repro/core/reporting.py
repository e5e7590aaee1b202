"""Reporting sequences: partitioning and ordering schemes (paper section 6).

Definition (Reporting Sequence): a simple sequence extended by a
*partitioning scheme* (a set of partitioning attributes) and an *ordering
scheme* (a list of ordering columns ``k1, ..., kn``).  This is the formal
counterpart of the full SQL ``OVER (PARTITION BY ... ORDER BY ... ROWS ...)``
clause.

Definition (Complete Reporting Function): a reporting function is complete
if it provides header/trailer information *for each partition*.

Two derivation lemmas are implemented:

* **Ordering reduction** (section 6.1): derive a sequence ordered by the
  prefix ``(k1, ..., k_{n-j})`` from one ordered by ``(k1, ..., kn)``.
  Values that are no longer distinguished by the dropped columns collapse
  into a single value; the collapsed windows follow from position-function
  arithmetic (:meth:`~repro.core.positions.PositionFunction.lemma_window_bounds`).
  The implementation evaluates the collapsed groups as interval sums of
  one running-sum array per partition, derived from the materialized
  sequence (the ``prefix`` derivation — MinOA's positive tiling), so no raw
  data is touched.
* **Partitioning reduction** (section 6.2): derive a coarser partitioning
  (``P_query ⊆ P_view``).  Rows of different fine partitions interleave in
  the coarse ordering, so — following the lemma's constructive argument —
  each fine partition's raw values are first reconstructed (possible
  exactly because the reporting function is *complete*), merged in order
  by one stable sort over the ordering-key columns, and the target window
  is recomputed with the window kernel.
  The paper proves derivability but gives no closed form; this is the
  construction its proof sketch implies.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.columns import Column, run_starts, sort_order
from repro.core.aggregates import SUM, Aggregate
from repro.core.complete import CompleteSequence
from repro.core.derivation import derive as derive_window_values
from repro.core.positions import PositionFunction
from repro.core.reconstruct import raw_from_cumulative, raw_from_sliding
from repro.core.segments import LengthClass, Segments, segment_rows
from repro.core.sequence import CustomBoundsSequenceSpec, SequenceSpec
from repro.core.vectorized import compute_vectorized
from repro.core.window import WindowSpec, cumulative
from repro.errors import DerivationError, IncompleteSequenceError, SequenceError

__all__ = ["PartitionData", "ReportingSequence", "ordering_reduction", "partitioning_reduction"]

Key = Tuple[object, ...]


@dataclass
class PartitionData:
    """One partition of a reporting sequence.

    Attributes:
        order_keys: ordering-column coordinates, index ``i`` holding the key
            of sequence position ``i + 1``.
        seq: the partition's materialized (ideally complete) sequence.
        raw: the raw values ``x_1 .. x_n`` maintenance edits and recomputes
            its band from (``None`` for a derived partition).
    """

    order_keys: List[Key]
    seq: CompleteSequence
    raw: Optional[List[float]] = None


class ReportingSequence:
    """A materialized reporting-function view: one sequence per partition."""

    def __init__(
        self,
        partition_by: Sequence[str],
        order_by: Sequence[str],
        window: WindowSpec,
        aggregate: Aggregate,
        partitions: Dict[Key, PartitionData],
    ) -> None:
        self.partition_by = tuple(partition_by)
        self.order_by = tuple(order_by)
        self.window = window
        self.aggregate = aggregate
        self.partitions = partitions
        self._segments: Optional[Segments] = None

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[dict], value_col: str, **options) -> "ReportingSequence":
        """:meth:`from_columns` over rows given as dicts."""
        names = (*options.get("partition_by", ()), *options.get("order_by", ()), value_col)
        columns = {name: Column.from_values([row[name] for row in rows]) for name in names}
        return cls.from_columns(columns, value_col, **options)

    @classmethod
    def from_columns(
        cls,
        columns: Dict[str, Column],
        value_col: str,
        *,
        partition_by: Sequence[str] = (),
        order_by: Sequence[str],
        window: WindowSpec,
        aggregate: Aggregate = SUM,
        complete: bool = True,
    ) -> "ReportingSequence":
        """Materialize a reporting sequence from raw warehouse rows, one
        column per name: grouped by the partitioning columns (partitions in
        the ``repr`` order of their keys) and sorted by the ordering columns
        (the reporting function's local ORDER BY) with one ``np.lexsort``
        for numeric keys; other keys sort as Python values."""
        if not order_by:
            raise SequenceError("a reporting sequence needs ordering columns")
        arity = len(partition_by)
        keys = [columns[c] for c in (*partition_by, *order_by)]
        n = len(columns[value_col])
        order = sort_order([(c, True) for c in keys], n)
        if order is None:  # TEXT, DATE, NULL or NaN keys sort as Python values
            rows = [(repr(r[:arity]), r[arity:]) for r in zip(*(c.to_pylist() for c in keys))]
            order = np.array(sorted(range(n), key=rows.__getitem__), dtype=np.intp)
        keys = [c.take(order) for c in keys]
        runs = run_starts(keys, n)
        if len(runs) < n:  # two rows of one partition share an ordering key
            at = int(runs[np.flatnonzero(np.diff(runs, append=n) > 1)[0]])
            pkey = tuple(c.value(at) for c in keys[:arity])
            raise SequenceError(f"duplicate ordering key within partition {pkey!r}; the "
                                "sequence model requires a strict linear order")
        starts = run_starts(keys[:arity], n)
        pkeys = list(zip(*(c.take(starts).to_pylist() for c in keys[:arity]))) or [()] * len(starts)
        okeys = list(zip(*(c.to_pylist() for c in keys[arity:])))
        if columns[value_col].null_count:
            raise SequenceError("a reporting sequence has no NULL position")
        raws = columns[value_col].as_float64()[order]
        bounds = dict(zip(pkeys, zip(starts.tolist(), [*starts[1:].tolist(), n])))
        partitions: Dict[Key, PartitionData] = {}
        for key in sorted(bounds, key=repr):
            lo, hi = bounds[key]
            raw = raws[lo:hi].tolist()
            seq = CompleteSequence.from_raw(raw, window, aggregate, complete=complete)
            partitions[key] = PartitionData(okeys[lo:hi], seq, raw)
        return cls(partition_by, order_by, window, aggregate, partitions)

    # -- inspection -------------------------------------------------------------

    @property
    def is_complete(self) -> bool:
        """Complete Reporting Function: header/trailer for *each* partition."""
        return all(p.seq.is_complete for p in self.partitions.values())

    def values(self) -> Iterator[Tuple[Key, Key, float]]:
        """Iterate ``(partition_key, order_key, sequence_value)`` rows."""
        for pkey, part in self.partitions.items():
            for i, value in enumerate(part.seq.core_values()):
                yield pkey, part.order_keys[i], value

    def segments(self) -> Segments:
        """The partitions as :class:`Segments`, built on the first read and
        kept: writers change only a fresh copy (:meth:`owning`), and two
        readers racing to fill them build equal ones."""
        segments = self._segments
        if segments is None:
            segments = self._segments = Segments.of(self.partitions)
        return segments

    def partition(self, key: Key) -> PartitionData:
        try:
            return self.partitions[key]
        except KeyError:
            raise SequenceError(f"no partition {key!r}") from None

    def owning(self, key: Key) -> "ReportingSequence":
        """A copy for a writer about to change partition ``key``: that
        partition is copied (its ``order_keys`` and ``raw`` lists; its
        sequence object, whose read-only value array maintenance replaces
        rather than edits, so the copy starts out sharing it),
        every other :class:`PartitionData` is shared with this one."""
        part = self.partition(key)
        mine = PartitionData(list(part.order_keys), copy.copy(part.seq), list(part.raw))
        return ReportingSequence(
            self.partition_by, self.order_by, self.window, self.aggregate,
            {**self.partitions, key: mine},
        )

    # -- window derivation (same partitioning/ordering) --------------------------

    def derive_window(
        self, target: WindowSpec, *, algorithm: str = "auto"
    ) -> "ReportingSequence":
        """Derive a different window per partition (sections 3-5 applied
        to each length class at once)."""
        derived: Dict[Key, np.ndarray] = {}
        for cls_ in self.segments().classes:
            derived.update(zip(cls_.keys, derive_window_values(cls_.seq, target, algorithm=algorithm)))
        partitions = {
            key: PartitionData(list(part.order_keys), CompleteSequence(
                target, self.aggregate, part.seq.n, derived[key], complete=False))
            for key, part in self.partitions.items()
        }
        return ReportingSequence(
            self.partition_by, self.order_by, target, self.aggregate, partitions
        )

    def reconstruct_raw(self) -> Dict[Key, np.ndarray]:
        """Per-partition raw values (requires completeness for sliding views)."""
        raws: Dict[Key, np.ndarray] = {}
        for cls_ in self.segments().classes:
            raws.update(zip(cls_.keys, self._class_raw(cls_)))
        return raws

    def _class_raw(self, cls_: LengthClass) -> np.ndarray:
        """One length class's raw values, a row per partition."""
        if self.window.is_cumulative:
            return raw_from_cumulative(cls_.seq)
        if not cls_.seq.is_complete:
            raise IncompleteSequenceError(
                f"partition {cls_.keys[0]!r} lacks header/trailer; raw "
                "reconstruction from a sliding view needs a complete "
                "reporting function"
            )
        return raw_from_sliding(cls_.seq)


def _sequence_around(
    raw: Sequence[float],
    core: Sequence[float],
    window: WindowSpec,
    aggregate: Aggregate,
    complete: bool,
) -> CompleteSequence:
    """Wrap core values ``1..n`` that a bulk kernel computed; the ``l + h``
    header/trailer positions are cheap and evaluated in the explicit form."""
    n = len(raw)
    values = list(core)
    if complete:
        spec = SequenceSpec(window, aggregate)
        header = spec.values(raw, 1 - window.header_span(), 0).tolist()
        trailer = spec.values(raw, n + 1, n + window.trailer_span()).tolist()
        values = header + values + trailer
    return CompleteSequence(window, aggregate, n, values, complete)


def partitioning_reduction(
    view: ReportingSequence,
    new_partition_by: Sequence[str],
    *,
    target_window: Optional[WindowSpec] = None,
    complete: bool = True,
) -> ReportingSequence:
    """Derive a coarser-partitioned reporting sequence (section 6.2):
    reconstruct each fine partition's raw values, merge them per coarse
    partition, and run the window kernel the native path uses over the
    merged values (:func:`merged_partitions`).

    The dropped partition values become one tie-breaking pseudo ordering
    column ``__drop__``, so merged rows have a deterministic linear order.

    Args:
        view: the materialized reporting sequence; must be complete (the
            lemma's precondition).
        new_partition_by: subset of the view's partitioning columns.
        target_window: window of the derived sequence (defaults to the
            view's window).

    Raises:
        DerivationError: if the new partitioning is not a subset of the old.
        IncompleteSequenceError: if any partition lacks header/trailer.
    """
    target = target_window or view.window
    every_key = (okey for part in view.partitions.values() for okey in part.order_keys)
    kinds = [_kind_of(values) for values in zip(*every_key)]
    keys, offsets, rows, _, raw, values = merged_partitions(view, new_partition_by, target, kinds)
    segments = view.segments()
    owner = np.repeat(np.arange(len(segments.keys)), segments.lengths)[rows]
    drop_idx = [i for i, c in enumerate(view.partition_by) if c not in new_partition_by]
    flat = [
        segments.order_keys[r] + (tuple(segments.keys[p][j] for j in drop_idx),)
        for r, p in zip(rows.tolist(), owner.tolist())
    ]
    bounds = zip(offsets.tolist(), [*offsets[1:].tolist(), len(raw)])
    partitions = {
        key: PartitionData(flat[lo:hi], _sequence_around(
            raw[lo:hi], values[lo:hi].tolist(), target, view.aggregate, complete))
        for key, (lo, hi) in zip(keys, bounds)
    }
    return ReportingSequence(
        tuple(new_partition_by), tuple(view.order_by) + ("__drop__",), target,
        view.aggregate, partitions,
    )


def merged_partitions(
    view: ReportingSequence,
    new_partition_by: Sequence[str],
    target: WindowSpec,
    kinds: Sequence[str],
) -> tuple:
    """The section-6.2 merge :func:`partitioning_reduction` and the rewriter
    share, over every coarse partition at once: ``(keys, offsets, rows,
    columns, raw, values)`` — the non-empty coarse keys (``repr`` order)
    and their offsets in the merged rows; per merged row, its row in the
    view's :meth:`~ReportingSequence.segments` order, ordering key (one
    column of ``kinds`` each) and raw value (reconstructed class by class);
    and the kernel's ``target`` over ``raw`` per coarse partition.  Fine
    partitions are gathered by coarse key, then dropped values, and merged
    by one stable sort on coarse key and ordering key (ties keep that
    order)."""
    new_cols = tuple(new_partition_by)
    if not set(new_cols) <= set(view.partition_by):
        raise DerivationError(
            f"partitioning reduction requires {new_cols!r} ⊆ "
            f"{view.partition_by!r}"
        )
    if not view.is_complete:
        raise IncompleteSequenceError(
            "partitioning reduction requires a complete reporting function "
            "(header/trailer per partition)"
        )
    keep_idx = [view.partition_by.index(c) for c in new_cols]
    drop_idx = [i for i in range(len(view.partition_by)) if i not in keep_idx]
    segments = view.segments()
    coarse_of = [tuple(pkey[j] for j in keep_idx) for pkey in segments.keys]
    coarse_keys = sorted(set(coarse_of), key=repr)
    rank = {key: r for r, key in enumerate(coarse_keys)}
    fine = sorted(range(len(coarse_of)), key=lambda i: (
        rank[coarse_of[i]], tuple(segments.keys[i][j] for j in drop_idx)))
    lengths = segments.lengths[fine]
    gather = segment_rows(segments.offsets[fine], lengths)
    coarse_id = np.repeat(np.array([rank[coarse_of[i]] for i in fine], dtype=np.int64), lengths)
    columns = [column.take(gather) for column in segments.key_columns(kinds)]
    order = sort_order([(Column(coarse_id), True)] + [(c, True) for c in columns], len(gather))
    if order is None:  # TEXT, DATE or NULL keys: sort as Python does
        flat = list(zip(coarse_id.tolist(), (segments.order_keys[r] for r in gather.tolist())))
        order = np.array(sorted(range(len(flat)), key=flat.__getitem__), dtype=np.intp)
    counts = np.bincount(coarse_id, minlength=len(coarse_keys))
    present = np.flatnonzero(counts)
    offsets = (np.cumsum(counts) - counts)[present]
    rows = gather[order]
    raw = segments.scatter([view._class_raw(cls_) for cls_ in segments.classes])[rows]
    values = compute_vectorized(raw, target, view.aggregate, offsets) if len(raw) else raw
    return (
        [coarse_keys[i] for i in present.tolist()], offsets, rows,
        [column.take(order) for column in columns], raw, values,
    )


def _kind_of(values: Sequence[object]) -> str:
    """The column kind that holds these Python values exactly."""
    types = set(map(type, values)) - {type(None)}
    kinds = {int: "int64", float: "float64", bool: "bool"}
    return kinds.get(types.pop(), "object") if len(types) == 1 else "object"


def ordering_reduction(
    view: ReportingSequence,
    drop: int,
    *,
    position: Optional[PositionFunction] = None,
    target_window: Optional[WindowSpec] = None,
    complete: bool = True,
) -> ReportingSequence:
    """Derive a reporting sequence with a reduced ordering scheme (section 6.1).

    Drops the ``drop`` right-most ordering columns, collapsing each group of
    positions that agree on the remaining prefix into one value.  Group
    totals are differences of one running-sum array per partition, derived
    from the materialized sequence in one pass, read at each group's
    bounds; then the target window is applied over the reduced positions —
    exercising exactly the lemma's derived window bounds.

    Args:
        position: the dense ordering domain; inferred from the view's keys
            when omitted (each partition must then contain the full cross
            product of observed per-column values).
        target_window: window of the derived sequence in *reduced-position*
            units; defaults to the view's window shape.

    Raises:
        DerivationError: for MIN/MAX views, or when a partition's keys do
            not form the dense cross product the position function models.
    """
    if not view.aggregate.invertible:
        raise DerivationError(
            "ordering reduction derives interval sums and requires SUM/COUNT "
            f"views, got {view.aggregate.name}"
        )
    if not 0 < drop < len(view.order_by):
        raise DerivationError(
            f"must drop between 1 and {len(view.order_by) - 1} ordering "
            f"columns, got {drop}"
        )
    target = target_window or view.window
    keep = len(view.order_by) - drop

    partitions: Dict[Key, PartitionData] = {}
    for pkey, part in view.partitions.items():
        pos = position or _infer_position(part.order_keys)
        if pos.cardinality != part.seq.n or [
            pos.coords(k) for k in range(1, part.seq.n + 1)
        ] != part.order_keys:
            raise DerivationError(
                f"partition {pkey!r} is not the dense cross product of its "
                "ordering domains; the position function model (section 6) "
                "requires dense multi-column sequences"
            )
        prefixes = [
            pos.prefix_from_rank(keep, rank)
            for rank in range(1, pos.prefix_cardinality(keep) + 1)
        ]
        first, last = np.array([pos.group_bounds(p) for p in prefixes]).reshape(-1, 2).T
        # Σ_{i<=j} x_i for j = 0 .. n, one array read at every group's bounds
        running = np.concatenate(([0.0], derive_window_values(part.seq, cumulative())))
        partitions[pkey] = PartitionData(
            prefixes,
            CompleteSequence.from_raw(
                (running[last] - running[first - 1]).tolist(), target, view.aggregate,
                complete=complete,
            ),
        )
    return ReportingSequence(
        view.partition_by, view.order_by[:keep], target, view.aggregate, partitions
    )


def lemma_bounds_spec(
    view: ReportingSequence, pkey: Key, drop: int, *, position: Optional[PositionFunction] = None
) -> CustomBoundsSequenceSpec:
    """The lemma's variable-window sequence over *global* positions.

    Returns a :class:`CustomBoundsSequenceSpec` whose window at global
    position ``k`` spans the lemma's ``[k - w'L(k), k + w'H(k)]`` — i.e. from
    the start of the previous prefix group to the end of the current one.
    Useful to inspect / verify the published bound formulas.
    """
    part = view.partition(pkey)
    pos = position or _infer_position(part.order_keys)

    def lower(k: int) -> int:
        wl, _ = pos.lemma_window_bounds(pos.coords(k), drop)
        return k - wl

    def upper(k: int) -> int:
        _, wh = pos.lemma_window_bounds(pos.coords(k), drop)
        return k + wh

    return CustomBoundsSequenceSpec(
        lower,
        upper,
        view.aggregate,
        description=f"ordering reduction by {drop} column(s)",
    )


def _infer_position(order_keys: Sequence[Key]) -> PositionFunction:
    """Infer per-column ordered domains from observed keys."""
    if not order_keys:
        raise DerivationError("cannot infer ordering domains from an empty partition")
    arity = len(order_keys[0])
    domains: List[List[object]] = []
    for d in range(arity):
        seen: List[object] = []
        for key in order_keys:
            if key[d] not in seen:
                seen.append(key[d])
        domains.append(sorted(seen))
    return PositionFunction(domains)
