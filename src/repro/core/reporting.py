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
  The implementation evaluates the collapsed groups as interval sums
  reconstructed from the materialized sequence
  (:func:`~repro.core.derivation.prefix_up_to` — MinOA's positive tiling),
  so no raw data is touched.
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
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.columns import Column, sort_order
from repro.core.aggregates import SUM, Aggregate
from repro.core.complete import CompleteSequence
from repro.core.derivation import derive as derive_window_values
from repro.core.derivation import prefix_up_to
from repro.core.positions import PositionFunction
from repro.core.reconstruct import raw_from_cumulative, raw_from_sliding
from repro.core.sequence import CustomBoundsSequenceSpec, SequenceSpec
from repro.core.vectorized import compute_vectorized
from repro.core.window import WindowSpec
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
    """

    order_keys: List[Key]
    seq: CompleteSequence
    _key_columns: Optional[Tuple[Tuple[str, ...], Tuple[Column, ...]]] = field(
        default=None, repr=False, compare=False
    )

    def key_columns(self, kinds: Sequence[str]) -> Tuple[Column, ...]:
        """``order_keys`` as one column per ordering column, of ``kinds``
        (see :meth:`Column.from_values`).  Built on the first read and
        kept: a writer edits ``order_keys`` only of a fresh partition
        (:meth:`ReportingSequence.owning`), and two readers racing to fill
        a frozen one build equal columns.  Readers copy, never hand out,
        these columns."""
        kinds = tuple(kinds)
        if self._key_columns is None or self._key_columns[0] != kinds:
            by_column = list(zip(*self.order_keys)) or [()] * len(kinds)
            self._key_columns = (kinds, tuple(
                Column.from_values(values, kind) for values, kind in zip(by_column, kinds)
            ))
        return self._key_columns[1]


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

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[dict],
        value_col: str,
        *,
        partition_by: Sequence[str] = (),
        order_by: Sequence[str],
        window: WindowSpec,
        aggregate: Aggregate = SUM,
        complete: bool = True,
    ) -> "ReportingSequence":
        """Materialize a reporting sequence from raw warehouse rows.

        Rows are dicts; within a partition they are sorted by the ordering
        columns (the reporting function's local ORDER BY).
        """
        if not order_by:
            raise SequenceError("a reporting sequence needs ordering columns")
        groups: Dict[Key, List[dict]] = {}
        for row in rows:
            key = tuple(row[c] for c in partition_by)
            groups.setdefault(key, []).append(row)
        keys: List[Key] = sorted(groups, key=repr)
        order_keys_by_key: List[List[Key]] = []
        raws: List[List[float]] = []
        for key in keys:
            part_rows = sorted(
                groups[key], key=lambda r: tuple(r[c] for c in order_by)
            )
            order_keys = [tuple(r[c] for c in order_by) for r in part_rows]
            if len(set(order_keys)) != len(order_keys):
                raise SequenceError(
                    f"duplicate ordering key within partition {key!r}; the "
                    "sequence model requires a strict linear order"
                )
            order_keys_by_key.append(order_keys)
            raws.append([float(r[value_col]) for r in part_rows])
        seqs = [
            CompleteSequence.from_raw(raw, window, aggregate, complete=complete)
            for raw in raws
        ]
        partitions: Dict[Key, PartitionData] = {
            key: PartitionData(order_keys, seq)
            for key, order_keys, seq in zip(keys, order_keys_by_key, seqs)
        }
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

    def partition(self, key: Key) -> PartitionData:
        try:
            return self.partitions[key]
        except KeyError:
            raise SequenceError(f"no partition {key!r}") from None

    def owning(self, key: Key) -> "ReportingSequence":
        """A copy for a writer about to change partition ``key``: that
        partition is copied (its ``order_keys`` list; its sequence object,
        whose value list maintenance replaces rather than edits), every
        other :class:`PartitionData` is shared with this one."""
        part = self.partition(key)
        mine = PartitionData(list(part.order_keys), copy.copy(part.seq))
        return ReportingSequence(
            self.partition_by, self.order_by, self.window, self.aggregate,
            {**self.partitions, key: mine},
        )

    # -- window derivation (same partitioning/ordering) --------------------------

    def derive_window(
        self, target: WindowSpec, *, algorithm: str = "auto"
    ) -> "ReportingSequence":
        """Derive a different window per partition (sections 3-5 applied
        partition-wise)."""
        partitions = {}
        for key, part in self.partitions.items():
            values = derive_window_values(part.seq, target, algorithm=algorithm)
            partitions[key] = PartitionData(
                list(part.order_keys),
                CompleteSequence.from_values(
                    target,
                    self.aggregate,
                    part.seq.n,
                    list(zip(range(1, part.seq.n + 1), values)),
                    complete=False,
                ),
            )
        return ReportingSequence(
            self.partition_by, self.order_by, target, self.aggregate, partitions
        )

    def reconstruct_raw(self) -> Dict[Key, np.ndarray]:
        """Per-partition raw values (requires completeness for sliding views)."""
        out = {}
        for key, part in self.partitions.items():
            if self.window.is_cumulative:
                out[key] = raw_from_cumulative(part.seq)
            else:
                if not part.seq.is_complete:
                    raise IncompleteSequenceError(
                        f"partition {key!r} lacks header/trailer; raw "
                        "reconstruction from a sliding view needs a complete "
                        "reporting function"
                    )
                out[key] = raw_from_sliding(part.seq)
        return out


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
    partitions: Dict[Key, PartitionData] = {}
    for coarse, fine, order, _, raw, core in merged_partitions(
        view, new_partition_by, target, kinds
    ):
        flat = [okey + (drop,) for drop, pkey in fine for okey in view.partitions[pkey].order_keys]
        partitions[coarse] = PartitionData(
            [flat[i] for i in order.tolist()],
            _sequence_around(raw, core.tolist(), target, view.aggregate, complete),
        )
    return ReportingSequence(
        tuple(new_partition_by), tuple(view.order_by) + ("__drop__",), target,
        view.aggregate, partitions,
    )


def merged_partitions(
    view: ReportingSequence,
    new_partition_by: Sequence[str],
    target: WindowSpec,
    kinds: Sequence[str],
) -> List[tuple]:
    """The section-6.2 merge :func:`partitioning_reduction` and the rewriter
    share: per non-empty coarse partition (``repr`` order), ``(key, fine,
    order, key columns, raw, values)``.  ``fine`` is its ``(dropped values,
    key)`` pairs in dropped-value order; ``order`` one stable sort of their
    concatenated ordering keys (ties keep that order); the key columns (of
    ``kinds``) and raw values sorted by it; ``values`` the kernel's ``target``
    over ``raw``."""
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
    raws = view.reconstruct_raw()
    by_coarse: Dict[Key, List[Tuple[Key, Key]]] = {}
    for pkey in view.partitions:
        by_coarse.setdefault(tuple(pkey[j] for j in keep_idx), []).append(
            (tuple(pkey[j] for j in drop_idx), pkey)
        )
    merged = []
    for coarse in sorted(by_coarse, key=repr):
        fine = sorted(by_coarse[coarse], key=lambda drop_and_key: drop_and_key[0])
        parts = [view.partitions[pkey] for _, pkey in fine]
        keys = [
            Column.concat([part.key_columns(kinds)[i] for part in parts], kind)
            for i, kind in enumerate(kinds)
        ]
        raw = np.concatenate([np.empty(0)] + [raws[pkey] for _, pkey in fine])
        if not len(raw):
            continue
        order = sort_order([(column, True) for column in keys], len(raw))
        if order is None:  # TEXT, DATE or NULL keys: sort as Python does
            flat = [okey for part in parts for okey in part.order_keys]
            order = np.array(sorted(range(len(flat)), key=flat.__getitem__), dtype=np.intp)
        raw = raw[order]
        merged.append((
            coarse, fine, order, [column.take(order) for column in keys], raw,
            compute_vectorized(raw, target, view.aggregate),
        ))
    return merged


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
    totals are reconstructed from the materialized sequence via interval
    sums (``prefix_up_to``), then the target window is applied over the
    reduced positions — exercising exactly the lemma's derived window
    bounds.

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
        groups = pos.prefix_cardinality(keep)
        group_totals: List[float] = []
        prefixes: List[Key] = []
        for rank in range(1, groups + 1):
            prefix = pos.prefix_from_rank(keep, rank)
            first, last = pos.group_bounds(prefix)
            total = prefix_up_to(part.seq, last) - prefix_up_to(part.seq, first - 1)
            group_totals.append(total)
            prefixes.append(prefix)
        partitions[pkey] = PartitionData(
            prefixes,
            CompleteSequence.from_raw(
                group_totals, target, view.aggregate, complete=complete
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
