"""Incremental maintenance of materialized views (paper section 2.3, applied).

These functions propagate a point modification of the base data into a
materialized view *without* recomputing the sequence:
:mod:`repro.core.maintenance` recomputes only the ``w = l + h + 1`` sequence
values whose windows contain the modified position, with the evaluator a
refresh uses, so they hold a refresh's exact bits.

Synchronisation strategy for the two representations:

* the in-memory mirror is updated by the core band recompute (O(w)
  values) on a copy that owns the touched partition and shares every other one
  (:meth:`~repro.core.reporting.ReportingSequence.owning`), so a mirror
  someone else still reads — a pinned epoch — is never written;
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
from repro.core.maintenance import MaintenanceResult
from repro.errors import MaintenanceError
from repro.core.reporting import PartitionData
from repro.views.materialized import MaterializedSequenceView

__all__ = ["propagate_update", "propagate_insert", "propagate_delete", "position_of"]

Key = Tuple[object, ...]


def _maintain_span(view: MaterializedSequenceView, op: str, **attrs):
    from repro.obs import runtime

    runtime.get_registry().counter(
        "repro_views_maintenance_total",
        {"op": op},
        help="Incremental maintenance operations propagated into views",
    ).inc()
    return runtime.get_tracer().span(
        "view.maintain", view=view.name, op=op, **attrs
    )


def position_of(
    view: MaterializedSequenceView, partition_key: Key, order_key: Key
) -> int:
    """1-based sequence position of the row with the given ordering key
    (a bisection of the partition's sorted ordering keys).

    Raises:
        MaintenanceError: unknown partition or ordering key.
    """
    assert view.reporting is not None
    try:
        part = view.reporting.partition(tuple(partition_key))
    except Exception as exc:
        raise MaintenanceError(
            f"view {view.name!r} has no partition {tuple(partition_key)!r}"
        ) from exc
    okey = tuple(order_key)
    i = bisect_left(part.order_keys, okey)
    if i == len(part.order_keys) or part.order_keys[i] != okey:
        raise MaintenanceError(
            f"view {view.name!r}: no row with ordering key "
            f"{okey!r} in partition {tuple(partition_key)!r}"
        )
    return i + 1


def insertion_position(
    view: MaterializedSequenceView, partition_key: Key, order_key: Key
) -> int:
    """Position a new row with ``order_key`` would take (1-based)."""
    assert view.reporting is not None
    part = view.reporting.partitions.get(tuple(partition_key))
    if part is None:
        raise MaintenanceError(
            f"view {view.name!r}: inserting into a brand-new partition "
            f"{tuple(partition_key)!r} requires refresh()"
        )
    okey = tuple(order_key)
    i = bisect_left(part.order_keys, okey)
    if i < len(part.order_keys) and part.order_keys[i] == okey:
        raise MaintenanceError(
            f"view {view.name!r}: ordering key {okey!r} already exists"
        )
    return i + 1


def _own_partition(view: MaterializedSequenceView, pkey: Key) -> PartitionData:
    """Rebind the view's mirror to a copy owning partition ``pkey``."""
    view.reporting = view.reporting.owning(pkey)
    view.raw = {**view.raw, pkey: list(view.raw[pkey])}
    return view.reporting.partitions[pkey]


def propagate_update(
    view: MaterializedSequenceView,
    order_key: Sequence[object],
    new_value: float,
    *,
    partition_key: Sequence[object] = (),
) -> MaintenanceResult:
    """Maintain the view for a base update: ``order_key``'s value becomes ``new_value``."""
    from repro.faults import injector

    injector.check("maintenance", view.name)
    pkey = tuple(partition_key)
    k = position_of(view, pkey, tuple(order_key))
    part = _own_partition(view, pkey)
    with _maintain_span(view, "update", position=k):
        result = core_maintenance.apply_update(
            view.raw[pkey], part.seq, k, float(new_value)
        )
        _patch_storage_band(view, pkey, result)
    return result


def propagate_insert(
    view: MaterializedSequenceView,
    order_key: Sequence[object],
    value: float,
    *,
    partition_key: Sequence[object] = (),
) -> MaintenanceResult:
    """Maintain the view for a new base row."""
    from repro.faults import injector

    injector.check("maintenance", view.name)
    pkey = tuple(partition_key)
    okey = tuple(order_key)
    k = insertion_position(view, pkey, okey)
    part = _own_partition(view, pkey)
    with _maintain_span(view, "insert", position=k):
        result = core_maintenance.apply_insert(
            view.raw[pkey], part.seq, k, float(value)
        )
        part.order_keys.insert(k - 1, okey)
        _shift_storage(view, pkey, k, okey)
        _patch_storage_band(view, pkey, result)
    return result


def propagate_delete(
    view: MaterializedSequenceView,
    order_key: Sequence[object],
    *,
    partition_key: Sequence[object] = (),
) -> MaintenanceResult:
    """Maintain the view for a removed base row."""
    from repro.faults import injector

    injector.check("maintenance", view.name)
    pkey = tuple(partition_key)
    okey = tuple(order_key)
    k = position_of(view, pkey, okey)
    part = _own_partition(view, pkey)
    with _maintain_span(view, "delete", position=k):
        result = core_maintenance.apply_delete(view.raw[pkey], part.seq, k)
        del part.order_keys[k - 1]
        _shift_storage(view, pkey, k, None)
        _patch_storage_band(view, pkey, result)
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
