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
* the storage table's ``__val`` takes ``seq.stored(lo, hi)`` over the
  partition's run of slots (:func:`_write_run`): an update writes its band;
  an insert or delete writes from the band's start to the run's end and
  adds or removes one slot there, so later runs move by one — the
  sequence *values* still change only locally, which is what
  :class:`~repro.core.maintenance.MaintenanceResult` accounts.  Opening or
  closing a partition inserts or deletes its whole run at its place, so
  a maintained table is slot for slot what a refresh builds.

All functions mutate the view only; updating the base table itself is the
caller's (warehouse's) job.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Sequence, Tuple

import numpy as np

from repro.columns import Column, kind_for_type
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
    view lacks opens empty (no core position; header and trailer stored,
    their run inserted at the partition's place)."""
    if pkey in view.reporting.partitions:
        view.reporting = view.reporting.owning(pkey)
        return view.reporting.partitions[pkey]
    d = view.definition
    seq = CompleteSequence.from_raw([], d.window, d.aggregate, complete=view.complete)
    part = PartitionData([], seq, [])
    _rebind_partitions(view, {**view.reporting.partitions, pkey: part})
    table = view.db.table(d.storage_table)
    run = _run_columns(table, pkey, seq.stored(*seq.stored_range))
    table.insert_columns(view.run_offset(pkey), run)
    return part


def _maintain(view: MaterializedSequenceView, op: str, pkey: Key, okey: Key, edit):
    """The body every kind of write shares: fault check, position, a mirror
    owning the partition, the span, ``edit`` — the kind's own change to
    the partition — and the storage run."""
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
        _write_run(view, pkey, result)
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
        return result

    result = _maintain(view, "delete", pkey, order_key, edit)
    if not view.sequence(pkey).n:
        first, last = view.sequence(pkey).stored_range
        offset = view.run_offset(pkey)
        table = view.db.table(view.definition.storage_table)
        table.delete_slots(range(offset, offset + last - first + 1))
        _rebind_partitions(view, {k: p for k, p in view.reporting.partitions.items() if k != pkey})
    return result


# -- storage synchronisation ----------------------------------------------------


def _run_columns(table, pkey: Key, values: List[float]) -> List[Column]:
    """``values`` as rows of the storage ``table`` in partition ``pkey``."""
    return [
        Column.from_values([key] * len(values), kind_for_type(c.type.name))
        for key, c in zip(pkey, table.schema.columns)
    ] + [Column(np.array(values, dtype=np.float64))]


def _write_run(view: MaterializedSequenceView, pkey: Key, result: MaintenanceResult) -> None:
    """Write the partition's changed stored values over its run of slots:
    the band for an update; from the band's start to the run's end for an
    insert, which first adds one slot at the run's end, or a delete, which
    then removes the run's old last slot.  Later runs move by one."""
    from repro.obs import runtime

    seq = view.reporting.partition(pkey).seq
    first, last = seq.stored_range
    lo, hi = view.definition.window.band(result.position, first, last)
    span = runtime.get_tracer().current_span()
    if span is not None:
        # Interior point updates patch exactly w = l + h + 1 values
        # (paper section 2.3); edge positions clamp to the stored range.
        span.set(band_width=max(hi - lo + 1, 0))
    table = view.db.table(view.definition.storage_table)
    shift = {"update": 0, "insert": 1, "delete": -1}[result.operation]
    start = view.run_offset(pkey) - first  # the slot of position 0
    if start + last - shift >= len(table):
        raise MaintenanceError(
            f"view {view.name!r}: storage rows missing in positions {first}..{last}"
        )
    if shift > 0:
        table.insert_columns(start + last, _run_columns(table, pkey, [0.0]))
    hi = last if shift else hi
    table.set_column("__val", range(start + lo, start + hi + 1), seq.stored(lo, hi))
    if shift < 0:
        table.delete_slots([start + last + 1])
