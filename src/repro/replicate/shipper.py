"""Epoch shipping: stream committed records from the primary to replicas.

The :class:`Shipper` registers as a commit listener on the primary's
:class:`~repro.serve.concurrent.ConcurrentWarehouse`; every logged commit
hands it the just-published :class:`EpochRecord`, which it forwards to
each link **in commit order**.  A link that fails (or is faulted) buffers
its backlog and catches up on a later commit or an explicit
:meth:`catch_up` — replicas therefore see a gap-free prefix of the
primary's history at all times, just possibly a stale one.

Two transports:

* :class:`LocalLink` — in-process, wraps a :class:`Replica` directly.
  Deterministic and fast; the fault-matrix tests use it.
* :class:`RemoteLink` — ships over the serving tier's protocol (JSON
  request lines, framed replies; ``ship``/``promote``/``status`` ops) to a replica-role
  :class:`~repro.serve.server.ServeServer`; redials after failures.

Fault site ``ship`` (per-link): a ``replica_lag`` spec defers this
shipment (buffered, acked later); a ``ship_partition`` spec drops the
link entirely until it heals.  Both leave the primary's commit intact.

Synchronous replication: with ``min_insync=k`` a commit whose record was
acked by fewer than *k* replicas raises
:class:`~repro.errors.ReplicationError` back to the writer.  The local
write stands (it is WAL-durable); the error tells the writer its
redundancy guarantee was not met.

The per-replica gauge ``repro_replica_lag_epochs`` tracks how many epochs
each link's ack trails the primary.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ReplicationError
from repro.replicate.wal import EpochRecord

__all__ = ["LocalLink", "RemoteLink", "Shipper"]


class LocalLink:
    """In-process transport to a :class:`~repro.replicate.replica.Replica`."""

    def __init__(self, replica) -> None:
        self.replica = replica

    @property
    def name(self) -> str:
        return self.replica.name

    def ship(self, record: EpochRecord) -> Dict[str, Any]:
        return self.replica.apply(record)

    def status(self) -> Dict[str, Any]:
        return self.replica.status()

    def close(self) -> None:  # symmetric with RemoteLink
        pass


class RemoteLink:
    """Transport to a replica-role serve server over the serving protocol.

    The connection is dialled lazily and redialled after any failure, so
    a partitioned link heals by itself once the replica is reachable.
    """

    def __init__(self, host: str, port: int, *, name: str = "",
                 timeout: float = 10.0) -> None:
        self.host = host
        self.port = port
        self.name = name or f"{host}:{port}"
        self.timeout = timeout
        self._client = None

    def _connect(self):
        if self._client is None:
            from repro.serve.client import ServeClient

            self._client = ServeClient(self.host, self.port,
                                       timeout=self.timeout)
        return self._client

    def ship(self, record: EpochRecord) -> Dict[str, Any]:
        try:
            return self._connect().ship(record.to_dict())
        except Exception:
            self.close()
            raise

    def status(self) -> Dict[str, Any]:
        try:
            return self._connect().status()
        except Exception:
            self.close()
            raise

    def close(self) -> None:
        client, self._client = self._client, None
        if client is not None:
            try:
                client.close()
            except Exception:
                pass


@dataclass
class _LinkState:
    pending: List[EpochRecord] = field(default_factory=list)
    down: bool = False
    acked_epoch: int = 0
    last_error: Optional[str] = None


class Shipper:
    """Commit-order record streaming from one primary to N links."""

    def __init__(self, warehouse, links: Sequence[Any], *,
                 min_insync: int = 0) -> None:
        if min_insync > len(links):
            raise ReplicationError(
                f"min_insync={min_insync} exceeds replica count {len(links)}"
            )
        self.warehouse = warehouse
        self.links = list(links)
        self.min_insync = min_insync
        self._state: Dict[str, _LinkState] = {
            link.name: _LinkState() for link in self.links
        }
        # Originating commit's trace context per epoch, so a shipment that
        # drains *later* (lag buffering, catch_up) still joins the commit's
        # trace instead of whichever unrelated span is open at drain time.
        self._commit_ctx: Dict[int, Any] = {}
        self._commit_ctx_cap = 512
        self._lock = threading.Lock()
        warehouse.add_commit_listener(self.on_commit)

    # -- the shipping path ---------------------------------------------------

    def on_commit(self, record: EpochRecord) -> None:
        """Ship one committed record to every link (called under the
        primary's write lock, so shipments observe commit order)."""
        from repro.faults import injector
        from repro.obs import runtime

        acked = 0
        with self._lock:
            ctx = runtime.current_context()
            if ctx is not None and ctx.sampled:
                self._commit_ctx[record.epoch] = ctx
                while len(self._commit_ctx) > self._commit_ctx_cap:
                    self._commit_ctx.pop(next(iter(self._commit_ctx)))
            for link in self.links:
                state = self._state[link.name]
                state.pending.append(record)
                kinds = {spec.kind for spec in injector.ship_hook(link.name)}
                if "ship_partition" in kinds:
                    state.down = True
                    state.last_error = "injected ship_partition"
                elif "replica_lag" in kinds:
                    pass  # defer: stays buffered until a later commit drains it
                elif self._drain_locked(link, state):
                    acked += 1
                self._update_gauge(link.name, state)
        if acked < self.min_insync:
            raise ReplicationError(
                f"epoch {record.epoch} replicated to {acked} of "
                f"{len(self.links)} replicas; min_insync={self.min_insync} "
                "not met (write is locally durable)"
            )

    def _drain_locked(self, link, state: _LinkState) -> bool:
        """Ship the link's backlog in order; True when fully drained.

        Any failure marks the link down and keeps the unacked suffix
        buffered; a later commit (or catch_up) retries from there — the
        replica never observes an out-of-order or gapped stream.
        """
        from repro.obs import runtime

        tracer = runtime.get_tracer()
        while state.pending:
            record = state.pending[0]
            span = None
            if tracer.enabled:
                span = tracer.span(
                    "replicate.ship",
                    parent_context=self._commit_ctx.get(record.epoch),
                    replica=link.name, epoch=record.epoch, op=record.op,
                )
            try:
                link.ship(record)
            except Exception as exc:
                state.down = True
                state.last_error = f"{type(exc).__name__}: {exc}"
                if span is not None:
                    span.set(acked=False, error=state.last_error)
                    span.finish()
                return False
            if span is not None:
                span.set(acked=True)
                span.finish()
            state.pending.pop(0)
            state.acked_epoch = record.epoch
            state.down = False
            state.last_error = None
        return True

    def catch_up(self, name: Optional[str] = None) -> Dict[str, bool]:
        """Retry shipping buffered records (all links, or one by name).

        Heals partitions and drains lag without waiting for the next
        commit; returns ``{link_name: fully_caught_up}``.
        """
        out: Dict[str, bool] = {}
        with self._lock:
            for link in self.links:
                if name is not None and link.name != name:
                    continue
                state = self._state[link.name]
                out[link.name] = self._drain_locked(link, state)
                self._update_gauge(link.name, state)
        return out

    # -- inspection ----------------------------------------------------------

    def lag(self, name: str) -> int:
        """How many committed epochs the link's last ack trails the primary."""
        with self._lock:
            state = self._state[name]
            if not state.pending:
                return 0
            return len(state.pending)

    def insync_count(self) -> int:
        """Links whose backlog is empty (fully caught up)."""
        with self._lock:
            return sum(
                1 for s in self._state.values() if not s.pending and not s.down
            )

    def link_status(self) -> Dict[str, Dict[str, Any]]:
        with self._lock:
            return {
                name: {
                    "pending": len(s.pending),
                    "down": s.down,
                    "acked_epoch": s.acked_epoch,
                    "last_error": s.last_error,
                }
                for name, s in self._state.items()
            }

    def _update_gauge(self, name: str, state: _LinkState) -> None:
        from repro.obs import runtime

        runtime.get_registry().gauge(
            "repro_replica_lag_epochs", {"replica": name},
            help="Committed epochs the replica's last ack trails the primary",
        ).set(float(len(state.pending)))

    def close(self) -> None:
        """Detach from the primary and close every link."""
        self.warehouse.remove_commit_listener(self.on_commit)
        for link in self.links:
            link.close()
