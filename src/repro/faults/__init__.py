"""Deterministic fault injection for the reproduction's robustness stack.

The materialized-view machinery only pays off if a view can be *trusted*;
this package supplies the controlled failures that prove the stack
degrades gracefully instead of corrupting answers:

* :class:`FaultPlan` / :class:`FaultSpec` — seeded, deterministic triggers
  (storage-write failure, refresh interruption at a chosen row,
  verify-time bit-flip, maintenance failure, and the serving, WAL,
  replication and page-read faults of :data:`KINDS`);
* :mod:`repro.faults.injector` — the process-global installation point and
  the hook functions called from the persistence, refresh, verification,
  maintenance, serving, WAL, shipping and buffer-pool fault sites.

The contract the fault-matrix tests enforce: under every injected fault
the warehouse still returns bit-identical query answers — via atomic-swap
rollback, quarantine plus base-data routing, WAL truncation or replica
catch-up — and ``repair()`` restores a clean ``verify()``.
"""

from repro.faults.injector import (
    active,
    active_plan,
    check,
    clear,
    install,
    ship_hook,
    wal_torn_hook,
)
from repro.faults.plan import KINDS, REFRESH_POINTS, FaultEvent, FaultPlan, FaultSpec

__all__ = [
    "KINDS",
    "REFRESH_POINTS",
    "FaultEvent",
    "FaultPlan",
    "FaultSpec",
    "active",
    "active_plan",
    "check",
    "clear",
    "install",
    "ship_hook",
    "wal_torn_hook",
]
