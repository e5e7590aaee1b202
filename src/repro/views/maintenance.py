"""Incremental maintenance of materialized views (paper section 2.3, applied).

These functions propagate a point modification of the base data into a
materialized view *without* recomputing the sequence:
:mod:`repro.core.maintenance` recomputes only the ``w = l + h + 1`` sequence
values whose windows contain the modified position, with the evaluator a
refresh uses, so they hold a refresh's exact bits.

Synchronisation strategy, one body (:func:`_maintain`) for every kind:

* the in-memory mirror — per partition raw values, ordering keys and
  sequence — is updated by the core band recompute (O(w) values) on a copy
  that owns the touched partition and shares every other one
  (:meth:`~repro.core.reporting.ReportingSequence.owning`), so a mirror
  someone else still reads — a pinned epoch — is never written; a
  partition opens with its first row and closes with its last;
* the storage table's ``__val`` is patched in place for the affected band;
  for *insert*/*delete* dense positions shift, so the rows from ``k`` on
  first hand their content to their neighbour (:func:`_shift_storage`) —
  the sequence *values* still change only locally, which is what
  :class:`~repro.core.maintenance.MaintenanceResult` accounts.

All functions mutate the view only; updating the base table itself is the
caller's (warehouse's) job.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

from repro.core import maintenance as core_maintenance
from repro.core.complete import CompleteSequence
from repro.core.maintenance import MaintenanceResult
from repro.core.reporting import PartitionData, ReportingSequence
from repro.errors import MaintenanceError
from repro.views.materialized import MaterializedSequenceView

__all__ = ["propagate_update", "propagate_insert", "propagate_delete", "position_of"]

Key = Tuple[object, ...]


def position_of(
    view: MaterializedSequenceView, partition_key: Key, order_key: Key
) -> int:
    """1-based sequence position of the row with the given ordering key
    (a bisection of the partition's sorted ordering keys).

    Raises:
        MaintenanceError: unknown partition or ordering key.
    """
    pkey, okey = tuple(partition_key), tuple(order_key)
    part = view.reporting.partitions.get(pkey)
    if part is None:
        raise MaintenanceError(f"view {view.name!r} has no partition {pkey!r}")
    i = bisect_left(part.order_keys, okey)
    if i == len(part.order_keys) or part.order_keys[i] != okey:
        raise MaintenanceError(
            f"view {view.name!r}: no row with ordering key "
            f"{okey!r} in partition {pkey!r}"
        )
    return i + 1


def _insertion_position(view: MaterializedSequenceView, pkey: Key, okey: Key) -> int:
    """Position a new row with ``okey`` takes (1-based; 1 in a partition
    the view lacks)."""
    part = view.reporting.partitions.get(pkey)
    keys = part.order_keys if part is not None else []
    i = bisect_left(keys, okey)
    if i < len(keys) and keys[i] == okey:
        raise MaintenanceError(
            f"view {view.name!r}: ordering key {okey!r} already exists"
        )
    return i + 1


def _rebind_partitions(view: MaterializedSequenceView, partitions) -> None:
    """Rebind the view's mirror to a copy holding ``partitions``, in the
    ``repr`` order of their keys as a refresh lays them out."""
    r = view.reporting
    view.reporting = ReportingSequence(
        r.partition_by, r.order_by, r.window, r.aggregate,
        dict(sorted(partitions.items(), key=lambda item: repr(item[0]))),
    )


def _own_partition(view: MaterializedSequenceView, pkey: Key) -> PartitionData:
    """Rebind the view's mirror to a copy owning partition ``pkey``; one the
    view lacks opens empty (no core position; header and trailer stored)."""
    if pkey in view.reporting.partitions:
        view.reporting = view.reporting.owning(pkey)
        return view.reporting.partitions[pkey]
    d = view.definition
    seq = CompleteSequence.from_raw([], d.window, d.aggregate, complete=view.complete)
    part = PartitionData([], seq, [])
    _rebind_partitions(view, {**view.reporting.partitions, pkey: part})
    view.db.table(d.storage_table).insert_many(
        pkey + (None,) * len(d.order_by) + (pos, value, False) for pos, value in seq.items()
    )
    return part


def _maintain(view: MaterializedSequenceView, op: str, pkey: Key, okey: Key, edit):
    """The body every kind of write shares: fault check, position, a mirror
    owning the partition, the span, ``edit`` — the kind's own change to
    the partition — and the storage band."""
    from repro.faults import injector
    from repro.obs import runtime

    injector.check("maintenance", view.name)
    pkey, okey = tuple(pkey), tuple(okey)
    k = (_insertion_position if op == "insert" else position_of)(view, pkey, okey)
    part = _own_partition(view, pkey)
    runtime.get_registry().counter(
        "repro_views_maintenance_total", {"op": op},
        help="Incremental maintenance operations propagated into views",
    ).inc()
    with runtime.get_tracer().span("view.maintain", view=view.name, op=op, position=k):
        result = edit(part, k)
        _patch_storage_band(view, pkey, result)
    return result


def propagate_update(
    view: MaterializedSequenceView,
    order_key: Sequence[object],
    new_value: float,
    *,
    partition_key: Sequence[object] = (),
) -> MaintenanceResult:
    """Maintain the view for a base update: ``order_key``'s value becomes ``new_value``."""

    def edit(part: PartitionData, k: int) -> MaintenanceResult:
        return core_maintenance.apply_update(part.raw, part.seq, k, float(new_value))

    return _maintain(view, "update", partition_key, order_key, edit)


def propagate_insert(
    view: MaterializedSequenceView,
    order_key: Sequence[object],
    value: float,
    *,
    partition_key: Sequence[object] = (),
) -> MaintenanceResult:
    """Maintain the view for a new base row (the first of its partition
    opens the partition)."""

    def edit(part: PartitionData, k: int) -> MaintenanceResult:
        result = core_maintenance.apply_insert(part.raw, part.seq, k, float(value))
        part.order_keys.insert(k - 1, tuple(order_key))
        _shift_storage(view, tuple(partition_key), k, tuple(order_key))
        return result

    return _maintain(view, "insert", partition_key, order_key, edit)


def propagate_delete(
    view: MaterializedSequenceView,
    order_key: Sequence[object],
    *,
    partition_key: Sequence[object] = (),
) -> MaintenanceResult:
    """Maintain the view for a removed base row (the last of its partition
    closes the partition: its storage rows and its mirror entry go)."""
    pkey = tuple(partition_key)

    def edit(part: PartitionData, k: int) -> MaintenanceResult:
        result = core_maintenance.apply_delete(part.raw, part.seq, k)
        del part.order_keys[k - 1]
        _shift_storage(view, pkey, k, None)
        return result

    result = _maintain(view, "delete", pkey, order_key, edit)
    if not view.sequence(pkey).n:
        table, slots = _position_slots(view, pkey, *view.sequence(pkey).stored_range)
        table.delete_slots(slots)
        _rebind_partitions(view, {k: p for k, p in view.reporting.partitions.items() if k != pkey})
    return result


# -- storage synchronisation ----------------------------------------------------


def _position_slots(view: MaterializedSequenceView, pkey: Key, lo: int, hi: int):
    """The storage table and the slots of positions ``lo..hi`` of one
    partition, in position order, read off the ``(partition, __pos)`` index
    (a scan when that index has been dropped)."""
    d = view.definition
    table = view.db.table(d.storage_table)
    index = table.find_index(list(d.partition_by) + ["__pos"], sorted_only=True)
    if index is not None:
        slots: List[int] = list(index.range(pkey + (lo,), pkey + (hi,)))
    else:
        n_part, at = len(pkey), table.schema.resolve("__pos")
        slots = [slot for _, slot in sorted(
            (row[at], slot) for slot, row in enumerate(table.rows)
            if row[:n_part] == pkey and lo <= row[at] <= hi
        )]
    if len(slots) != max(hi - lo + 1, 0):
        raise MaintenanceError(
            f"view {view.name!r}: storage rows missing in positions {lo}..{hi}"
        )
    return table, slots


def _patch_storage_band(
    view: MaterializedSequenceView, pkey: Key, result: MaintenanceResult
) -> None:
    """In-place update of the stored values in the affected band (one
    slice of the sequence's stored values: the band lies inside them)."""
    seq = view.reporting.partition(pkey).seq
    lo, hi = view.definition.window.band(result.position, *seq.stored_range)
    from repro.obs import runtime

    span = runtime.get_tracer().current_span()
    if span is not None:
        # Interior point updates patch exactly w = l + h + 1 values
        # (paper section 2.3); edge positions clamp to the stored range.
        span.set(band_width=max(hi - lo + 1, 0))
    table, slots = _position_slots(view, pkey, lo, hi)
    table.set_column("__val", slots, seq.stored(lo, hi))


def _shift_storage(
    view: MaterializedSequenceView, pkey: Key, k: int, inserted: Optional[Key]
) -> None:
    """Open (``inserted`` = the new row's ordering key) or close (None) a
    gap at position ``k`` of one partition's storage rows.

    Positions are dense, so the rows keep their ``(partition, __pos)`` keys
    and pass their *content* — ordering key, value, core flag — along: to
    the next position when a row arrives, from it when one leaves: one
    array assignment per content column, and one row appended or removed
    at the partition's end.  :func:`_patch_storage_band` runs afterwards.
    """
    d = view.definition
    content = list(d.order_by) + ["__val", "__core"]
    seq = view.reporting.partition(pkey).seq
    last = seq.stored_range[1]  # already the new last position
    if inserted is not None:
        table, slots = _position_slots(view, pkey, k, last - 1)
        blank = (None,) * len(d.order_by)
        slots.append(table.insert(pkey + blank + (last, 0.0, False)))
        table.move_rows(content, slots[:-1], slots[1:])
        table.update_slot(slots[0], pkey + inserted + (k, 0.0, True))
    else:
        table, slots = _position_slots(view, pkey, k, last + 1)
        table.move_rows(content, slots[1:], slots[:-1])
        table.delete_slots(slots[-1:])
