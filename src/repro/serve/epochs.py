"""Epoch store: MVCC-style snapshot versions of the warehouse state.

The serving tier gives every query **snapshot isolation** without ever
blocking readers.  The mechanism rides directly on the crash-consistency
machinery from the fault-tolerance work: every committed write (view
refresh, incremental maintenance, DDL, base-data change) already ends in a
handful of atomic catalog/attribute rebindings, so each commit can publish
an immutable :class:`Snapshot` — the set of table objects and views
(shallow copies) visible at that instant.

Lifecycle (DESIGN.md §5g)::

    publish ──> pin ──> (reads at the pinned epoch) ──> unpin ──> GC

* **publish** — a serialized writer commits and registers a new epoch; the
  previous epoch's objects are never mutated again (writers copy-on-write
  any table they are about to change in place).
* **pin** — a query entering the system takes a refcount on the *latest*
  epoch and reads that epoch's table/view versions until done, no matter
  how many refreshes commit meanwhile.
* **unpin** — the query finishes (or is killed); the refcount drops.
* **GC** — any non-latest epoch with zero pins is dropped from the
  retained set; Python's GC then frees tables no snapshot references.

The store is a small critical section around a dict — pin/unpin are O(1)
and never wait on writers, so readers are wait-free with respect to
refresh traffic.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import ServeError

__all__ = ["EpochStore", "Pin", "Snapshot"]


@dataclass(frozen=True)
class Snapshot:
    """One immutable epoch of the warehouse: its tables, and its views as
    shallow copies taken at publish time."""

    epoch: int
    tables: Mapping[str, Any]
    views: Mapping[str, Any]


class Pin:
    """A live reference to one epoch; release exactly once.

    Usable as a context manager; double-release is a no-op so a ``finally``
    can always release defensively.
    """

    __slots__ = ("_store", "snapshot", "_released")

    def __init__(self, store: "EpochStore", snapshot: Snapshot) -> None:
        self._store = store
        self.snapshot = snapshot
        self._released = False

    @property
    def epoch(self) -> int:
        return self.snapshot.epoch

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._store.unpin(self)

    def __enter__(self) -> "Pin":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


class EpochStore:
    """Registry of retained epochs with pin refcounts and eager GC.

    Invariant (checked by :meth:`verify`): the retained set is exactly the
    latest epoch plus every epoch with at least one outstanding pin — a
    session kill mid-query must therefore leave ``retained == {latest}``
    and zero pins.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._epoch = 0
        self._retained: Dict[int, Snapshot] = {}
        self._pins: Dict[int, int] = {}

    # -- publication ---------------------------------------------------------

    def publish(
        self,
        tables: Mapping[str, Any],
        views: Mapping[str, Any],
        *,
        epoch: Optional[int] = None,
    ) -> Snapshot:
        """Register the next epoch and GC unpinned predecessors.

        Args:
            epoch: force this epoch id instead of ``latest + 1``.  Used by
                replication: a replica applying a shipped record (or a
                recovery replaying the WAL) publishes at the *primary's*
                epoch id so both sides agree on what each epoch means.
                Gaps are legal (the primary publishes unlogged epochs, e.g.
                a failed refresh's quarantine) but going backwards is not.
        """
        with self._lock:
            if epoch is None:
                self._epoch += 1
            elif epoch <= self._epoch:
                raise ServeError(
                    f"cannot publish epoch {epoch}: store is already at "
                    f"{self._epoch}"
                )
            else:
                self._epoch = epoch
            snapshot = Snapshot(self._epoch, dict(tables), dict(views))
            self._retained[self._epoch] = snapshot
            self._gc_locked()
            self._update_gauges_locked()
        return snapshot

    # -- pinning -------------------------------------------------------------

    def pin(self) -> Pin:
        """Pin the latest epoch (wait-free with respect to writers)."""
        with self._lock:
            if not self._retained:
                raise ServeError("no epoch published yet")
            snapshot = self._retained[self._epoch]
            self._pins[snapshot.epoch] = self._pins.get(snapshot.epoch, 0) + 1
            self._update_gauges_locked()
        return Pin(self, snapshot)

    def unpin(self, pin: Pin) -> None:
        """Drop one pin; GC the epoch if it became unpinned and stale."""
        with self._lock:
            epoch = pin.snapshot.epoch
            count = self._pins.get(epoch, 0) - 1
            if count <= 0:
                self._pins.pop(epoch, None)
            else:
                self._pins[epoch] = count
            self._gc_locked()
            self._update_gauges_locked()

    def _gc_locked(self) -> None:
        for epoch in [
            e for e in self._retained
            if e != self._epoch and self._pins.get(e, 0) == 0
        ]:
            del self._retained[epoch]

    def _update_gauges_locked(self) -> None:
        from repro.obs import runtime

        registry = runtime.get_registry()
        registry.gauge(
            "repro_serve_pinned_epochs",
            help="Distinct epochs currently pinned by in-flight queries",
        ).set(float(len(self._pins)))
        registry.gauge(
            "repro_serve_retained_epochs",
            help="Epochs retained by the store (latest + pinned)",
        ).set(float(len(self._retained)))

    # -- inspection ----------------------------------------------------------

    @property
    def latest_epoch(self) -> int:
        with self._lock:
            return self._epoch

    def latest(self) -> Snapshot:
        with self._lock:
            if not self._retained:
                raise ServeError("no epoch published yet")
            return self._retained[self._epoch]

    def pinned_epochs(self) -> List[int]:
        """Epochs with at least one outstanding pin (sorted)."""
        with self._lock:
            return sorted(self._pins)

    def retained_epochs(self) -> List[int]:
        with self._lock:
            return sorted(self._retained)

    def pin_count(self, epoch: Optional[int] = None) -> int:
        """Outstanding pins on ``epoch`` (or across all epochs)."""
        with self._lock:
            if epoch is not None:
                return self._pins.get(epoch, 0)
            return sum(self._pins.values())

    def verify(self) -> Dict[str, Any]:
        """Post-run cleanliness report (the fault-matrix acceptance check).

        ``orphaned`` lists retained non-latest epochs without pins — the GC
        invariant makes this impossible unless a pin leaked or a kill tore
        the store, which is exactly what the report exists to catch.
        """
        with self._lock:
            orphaned = sorted(
                e for e in self._retained
                if e != self._epoch and self._pins.get(e, 0) == 0
            )
            pinned = sorted(self._pins)
            return {
                "latest": self._epoch,
                "pinned": pinned,
                "orphaned": orphaned,
                "retained": sorted(self._retained),
                "clean": not pinned and not orphaned,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        with self._lock:
            return (
                f"EpochStore(latest={self._epoch}, "
                f"retained={sorted(self._retained)}, pins={dict(self._pins)})"
            )
