"""Warm replicas: warehouses that apply shipped epoch records.

A :class:`Replica` wraps its own :class:`ConcurrentWarehouse` (optionally
with its own WAL, for chained durability) and applies
:class:`~repro.replicate.wal.EpochRecord` shipments in commit order.  The
replica stays *warm*: every applied epoch is published to its epoch
store, so reads can be served at any moment — the failover path promotes
the freshest replica and it starts accepting writes with no rebuild step.

Divergence safety: each record carries the primary's post-commit content
digest; :meth:`ConcurrentWarehouse.apply_record` recomputes it after the
local re-execution.  A mismatch marks the replica *diverged* — it keeps
serving reads (flagged) but refuses further applies and promotion, since
promoting a diverged replica would silently fork history.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from repro.errors import DivergenceError, ReplicationError
from repro.replicate.wal import EpochRecord
from repro.serve.concurrent import ConcurrentWarehouse

__all__ = ["Replica"]


class Replica:
    """One warm standby applying the primary's epoch stream.

    Args:
        warehouse: the replica's own serving wrapper (fresh by default —
            primary and replicas must start from the same empty state; a
            replica seeded from a snapshot should be built via
            :func:`repro.replicate.recovery.recover`).
        name: identity used in shipping acks, metrics and failover.
    """

    def __init__(self, warehouse: Optional[ConcurrentWarehouse] = None, *,
                 name: str = "replica") -> None:
        self.name = name
        self.warehouse = (
            warehouse if warehouse is not None else ConcurrentWarehouse()
        )
        self._lock = threading.Lock()
        self._promoted = False
        self._diverged: Optional[str] = None

    # -- the apply path ------------------------------------------------------

    def apply(self, record: EpochRecord) -> Dict[str, Any]:
        """Apply one shipped record; returns the ack the shipper records.

        Raises:
            ReplicationError: the replica is diverged (applies refused) or
                the record does not advance its epoch.
            DivergenceError: this apply diverged; the replica marks itself
                un-promotable before re-raising.
        """
        with self._lock:
            if self._diverged is not None:
                raise ReplicationError(
                    f"replica {self.name!r} is diverged and refuses applies: "
                    f"{self._diverged}"
                )
            try:
                self.warehouse.apply_record(record)
            except DivergenceError as exc:
                self._diverged = str(exc)
                raise
            return {"replica": self.name, "applied": record.epoch}

    # -- role ----------------------------------------------------------------

    @property
    def is_primary(self) -> bool:
        return self._promoted

    @property
    def diverged(self) -> Optional[str]:
        return self._diverged

    @property
    def applied_epoch(self) -> int:
        """Highest epoch this replica serves (== last applied record)."""
        return self.warehouse.epochs.latest_epoch

    def promote(self) -> Dict[str, Any]:
        """Accept the primary role: local writes are legal from now on.

        Idempotent.  Refuses when diverged — the coordinator must pick
        another replica.
        """
        with self._lock:
            if self._diverged is not None:
                raise ReplicationError(
                    f"cannot promote diverged replica {self.name!r}: "
                    f"{self._diverged}"
                )
            self._promoted = True
        from repro.obs import runtime

        runtime.event("replica.promoted", replica=self.name,
                      epoch=self.applied_epoch)
        return self.status()

    def status(self) -> Dict[str, Any]:
        """Health/lag probe payload (the failover coordinator's input)."""
        return {
            "replica": self.name,
            "applied": self.applied_epoch,
            "primary": self._promoted,
            "diverged": self._diverged,
        }
