"""Deterministic fault plans.

A :class:`FaultPlan` is a seeded, fully deterministic description of *what
goes wrong where*: each :class:`FaultSpec` names a fault kind, an optional
target (view or table name), and the index of the eligible event at which
it fires.  The plan is installed via :mod:`repro.faults.injector`; the
hooked sites (storage writes, refresh checkpoints, verification,
maintenance rules, the serving and replication tiers) then consult it.

Determinism is the whole point: the same plan against the same workload
fires at exactly the same event, so every fault-matrix test is a plain
assertion, not a flake.  The only randomness — which storage row a
``bitflip`` corrupts — comes from the plan's own seeded RNG.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import FaultError

__all__ = ["KINDS", "REFRESH_POINTS", "FaultSpec", "FaultEvent", "FaultPlan"]

KINDS = (
    "storage_write_fail",  # save_database aborts before writing a table
    "refresh_interrupt",   # view refresh killed at a chosen checkpoint/row
    "bitflip",             # one storage value corrupted at verify time
    "maintenance_fail",    # an incremental maintenance rule raises
    "session_kill",        # a serving-tier session dies mid-query
    "wal_torn_write",      # process dies mid-WAL-append (partial frame on disk)
    "primary_crash",       # the serving primary hard-crashes mid-dispatch
    "replica_lag",         # shipping to one replica stalls (records buffered)
    "ship_partition",      # the network link to one replica drops
    "page_read_corrupt",   # a v4 page read returns flipped bytes (pre-CRC)
)

# Checkpoints inside MaterializedSequenceView.refresh() that a
# refresh_interrupt spec may target via its ``point`` field.
REFRESH_POINTS = ("begin", "write", "commit")

# Which injection site each kind listens on.
_SITE_OF_KIND = {
    "storage_write_fail": "storage_write",
    "bitflip": "verify",
    "maintenance_fail": "maintenance",
    "session_kill": "serve_query",
    "wal_torn_write": "wal_append",
    "primary_crash": "primary",
    "replica_lag": "ship",
    "ship_partition": "ship",
    "page_read_corrupt": "page_read",
}


@dataclass(frozen=True)
class FaultSpec:
    """One deterministic trigger.

    Attributes:
        kind: one of :data:`KINDS`.
        target: restrict to a named view/table (empty = any target).
        at: 0-based index of the eligible event at which to fire (for
            ``refresh_interrupt`` with ``point="write"`` the storage-row
            write index; for ``storage_write_fail`` the table index).
        times: how many consecutive eligible events fire before the spec
            is exhausted (``times > 1`` models a persistent fault).
        point: refresh checkpoint for ``refresh_interrupt`` specs.
    """

    kind: str
    target: str = ""
    at: int = 0
    times: int = 1
    point: str = "write"

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise FaultError(f"unknown fault kind {self.kind!r}; expected one of {KINDS}")
        if self.at < 0:
            raise FaultError(f"at must be >= 0, got {self.at}")
        if self.times < 1:
            raise FaultError(f"times must be >= 1, got {self.times}")
        if self.kind == "refresh_interrupt" and self.point not in REFRESH_POINTS:
            raise FaultError(
                f"unknown refresh point {self.point!r}; expected one of {REFRESH_POINTS}"
            )

    @property
    def site(self) -> str:
        """The injection site this spec listens on."""
        if self.kind == "refresh_interrupt":
            return f"refresh_{self.point}"
        return _SITE_OF_KIND[self.kind]


@dataclass(frozen=True)
class FaultEvent:
    """Record of one fired fault (the plan's audit log)."""

    kind: str
    site: str
    target: str
    detail: str


class FaultPlan:
    """A set of armed :class:`FaultSpec` triggers plus their firing state.

    The plan is mutable state (per-spec event counters, fired-event log)
    wrapped around immutable specs; install at most one plan at a time via
    :func:`repro.faults.injector.active`.
    """

    def __init__(self, specs, *, seed: int = 0) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = seed
        self.rng = random.Random(seed)
        self.events: List[FaultEvent] = []
        self._seen: Dict[int, int] = {i: 0 for i in range(len(self.specs))}
        self._fired: Dict[int, int] = {i: 0 for i in range(len(self.specs))}
        self._lock = threading.Lock()

    # -- firing ------------------------------------------------------------------

    def fire(self, site: str, target: str) -> List[FaultSpec]:
        """Advance every spec listening on ``site``/``target`` by one
        eligible event; return the specs that fire on this event."""
        fired: List[FaultSpec] = []
        with self._lock:
            for i, spec in enumerate(self.specs):
                if spec.site != site or (spec.target and spec.target != target):
                    continue
                seen = self._seen[i]
                self._seen[i] = seen + 1
                if spec.at <= seen < spec.at + spec.times:
                    self._fired[i] += 1
                    fired.append(spec)
        return fired

    def record(self, kind: str, site: str, target: str, detail: str) -> None:
        """Append to the audit log (thread-safe) and surface the fired fault
        to the observability plane (span event + counter)."""
        with self._lock:
            self.events.append(FaultEvent(kind, site, target, detail))
        from repro.obs import runtime

        runtime.event(f"fault.{kind}", site=site, target=target, detail=detail)
        runtime.get_registry().counter(
            "repro_faults_fired_total",
            {"kind": kind},
            help="Injected faults that actually fired",
        ).inc()

    # -- inspection --------------------------------------------------------------

    def fired_count(self, kind: Optional[str] = None) -> int:
        """How many times specs (of ``kind``, or all) have fired."""
        with self._lock:
            return sum(
                count
                for i, count in self._fired.items()
                if kind is None or self.specs[i].kind == kind
            )

    def exhausted(self) -> bool:
        """True when every spec has fired all its ``times``."""
        with self._lock:
            return all(
                self._fired[i] >= spec.times for i, spec in enumerate(self.specs)
            )

    def arms(self, site: str) -> bool:
        """Does any non-exhausted spec listen on ``site``?"""
        with self._lock:
            return any(
                spec.site == site and self._fired[i] < spec.times
                for i, spec in enumerate(self.specs)
            )

    def describe(self) -> str:
        parts = [
            f"{s.kind}@{s.site}" + (f"[{s.target}]" if s.target else "")
            + f" at={s.at}x{s.times}"
            for s in self.specs
        ]
        return f"FaultPlan(seed={self.seed}: " + "; ".join(parts) + ")"
