"""Fault injection hooks: the bridge between a plan and the hooked sites.

One process-global :class:`~repro.faults.plan.FaultPlan` may be installed
at a time (tests use the :func:`active` context manager).  Production code
calls the hook functions below at its fault points; with no plan installed
every hook is a near-free early return, so the instrumented paths cost
nothing in normal operation.

Sites:

* ``storage_write`` — :func:`repro.relational.persist.save_database`, one
  eligible event per table;
* ``refresh_begin`` / ``refresh_write`` / ``refresh_commit`` — the
  checkpoints of :meth:`MaterializedSequenceView.refresh`;
* ``verify`` — :func:`repro.views.verify.verify_view`; a ``bitflip`` spec
  corrupts one storage value (seeded choice) before checking;
* ``maintenance`` — the :mod:`repro.views.maintenance` propagation rules.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from typing import Callable, Optional

from repro.errors import FaultError, InjectedFault
from repro.faults.plan import FaultPlan

__all__ = [
    "active",
    "active_plan",
    "check",
    "clear",
    "install",
    "page_read_hook",
    "refresh_write_hook",
    "ship_hook",
    "verify_hook",
    "wal_torn_hook",
]

_ACTIVE: Optional[FaultPlan] = None


def install(plan: FaultPlan) -> None:
    """Install ``plan`` as the process-global active fault plan."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise FaultError("a fault plan is already installed; clear() it first")
    _ACTIVE = plan
    from repro.obs import runtime

    for spec in plan.specs:
        runtime.event(
            "fault.armed",
            kind=spec.kind, site=spec.site, target=spec.target,
            at=spec.at, times=spec.times,
        )


def clear() -> None:
    """Remove the active plan (idempotent)."""
    global _ACTIVE
    _ACTIVE = None


def active_plan() -> Optional[FaultPlan]:
    """The currently installed plan, or None."""
    return _ACTIVE


@contextmanager
def active(plan: FaultPlan):
    """Context manager: install ``plan`` for the duration of the block."""
    install(plan)
    try:
        yield plan
    finally:
        clear()


# ---------------------------------------------------------------------------
# Generic raising sites
# ---------------------------------------------------------------------------


def check(site: str, target: str = "") -> None:
    """Advance ``site`` by one eligible event; raise if a raising spec fires.

    The fast path — no plan installed — is a single global read.
    """
    plan = _ACTIVE
    if plan is None:
        return
    for spec in plan.fire(site, target):
        plan.record(spec.kind, site, target, f"fired at event {spec.at}")
        raise InjectedFault(
            f"injected {spec.kind} at {site}"
            + (f" ({target})" if target else "")
        )


def refresh_write_hook(target: str) -> Optional[Callable[[int], None]]:
    """Per-row hook for the refresh storage-write loop, or None when idle.

    Returning None lets the (hot) row loop skip per-row work entirely when
    no ``refresh_interrupt`` spec is armed for the ``refresh_write`` site.
    """
    plan = _ACTIVE
    if plan is None or not plan.arms("refresh_write"):
        return None

    def hook(position: int) -> None:
        for spec in plan.fire("refresh_write", target):
            plan.record(
                spec.kind, "refresh_write", target,
                f"interrupted at storage row {spec.at} (position {position})",
            )
            raise InjectedFault(
                f"injected refresh_interrupt at storage row {spec.at} "
                f"of view {target!r}"
            )

    return hook


# ---------------------------------------------------------------------------
# Verify-time corruption
# ---------------------------------------------------------------------------


def verify_hook(view) -> None:
    """Fire ``bitflip`` specs for ``view``: corrupt one storage ``__val``.

    The slot is chosen by the plan's seeded RNG; the corruption flips a high
    mantissa bit of the float64 payload.  :func:`verify_view` compares
    values bit for bit, so a flip of any bit would be caught.
    """
    plan = _ACTIVE
    if plan is None:
        return
    for spec in plan.fire("verify", view.name):
        table = view.db.table(view.definition.storage_table)
        if not len(table):  # pragma: no cover - empty views aren't materializable
            continue
        slot = plan.rng.randrange(len(table))
        value = table.column_values("__val").value(slot)
        table.set_column("__val", [slot], [_flip_bit(value)])
        plan.record(
            spec.kind, "verify", view.name,
            f"flipped a bit of storage slot {slot}",
        )


def _flip_bit(value: float) -> float:
    """Flip mantissa bit 51 of the IEEE-754 representation."""
    (bits,) = struct.unpack("<Q", struct.pack("<d", value))
    flipped = bits ^ (1 << 51)
    (out,) = struct.unpack("<d", struct.pack("<Q", flipped))
    return out


# ---------------------------------------------------------------------------
# Replication faults
# ---------------------------------------------------------------------------


def wal_torn_hook(target: str = "") -> bool:
    """Fire ``wal_torn_write`` specs for one WAL append.

    Returns True when the append should simulate a crash mid-write: the log
    writes a *partial* frame (exactly what a power cut mid-``write`` leaves
    behind) and raises :class:`InjectedFault`; recovery must truncate the
    torn bytes without losing any earlier committed epoch.
    """
    plan = _ACTIVE
    if plan is None:
        return False
    fired = False
    for spec in plan.fire("wal_append", target):
        plan.record(spec.kind, "wal_append", target, "torn frame at the tail")
        fired = True
    return fired


def page_read_hook(target: str = "") -> bool:
    """Fire ``page_read_corrupt`` specs for one buffer-pool page fault-in.

    Returns True when the read should hand the pool *corrupted* bytes:
    the pool flips payload bytes before its CRC check, which must then
    raise :class:`~repro.errors.PageCorruptError` and quarantine the page
    — never return the bad values.  ``target`` is the table name, so a
    spec can aim at one table's pages.  The dump on disk is untouched
    (the flip happens to the in-memory read buffer), so a reload after
    the plan is cleared recovers bit-identical answers.
    """
    plan = _ACTIVE
    if plan is None:
        return False
    fired = False
    for spec in plan.fire("page_read", target):
        plan.record(spec.kind, "page_read", target, "flipped payload bytes")
        fired = True
    return fired


def ship_hook(target: str):
    """Fire ``ship``-site specs (``replica_lag`` / ``ship_partition``) for
    one shipment to the replica named ``target``.

    Returns the fired specs; the shipper interprets each kind itself (a
    lagging replica buffers the record, a partitioned link drops and must
    catch up later), so this hook records but never raises.
    """
    plan = _ACTIVE
    if plan is None:
        return []
    fired = plan.fire("ship", target)
    for spec in fired:
        plan.record(spec.kind, "ship", target, f"shipment to {target!r} disrupted")
    return fired
