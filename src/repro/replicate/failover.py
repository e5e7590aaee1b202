"""Automatic failover: health probes, freshest-replica promotion, redirect.

Three cooperating pieces sit on top of the serving tier:

* :class:`Endpoint` — a named ``host:port`` of one serve server (primary
  or replica role).
* :class:`FailoverCoordinator` — probes endpoints with the ``status`` op,
  tracks which one currently holds the primary role, and — when the
  primary stops answering — promotes the *freshest* healthy replica (the
  one with the highest applied epoch; diverged replicas are never
  eligible).  Promotion is idempotent, so rerunning the decision against
  an already-promoted replica is safe.
* :class:`ReplicatedClient` — a client that survives the primary dying
  mid-workload.  Writes go to the coordinator's current primary and are
  retried through re-election on :class:`ServeConnectionError` /
  :class:`NotPrimaryError`.  Reads prefer the primary but degrade to any
  healthy replica — such answers carry ``stale=True`` (last replicated
  epoch), keeping read availability through the outage window.

This is deliberately a *coordinator*, not a consensus protocol: the
reproduction's serving tier has a single writer by design (serialized
writers over one warehouse), so failover only needs failure detection +
a deterministic choice of successor, not quorum agreement.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import ReplicationError, ServeConnectionError
from repro.serve.client import ServeClient

__all__ = ["Endpoint", "FailoverCoordinator", "ReplicatedClient"]


@dataclass(frozen=True)
class Endpoint:
    """Address of one serve server participating in the replica set."""

    name: str
    host: str
    port: int


class FailoverCoordinator:
    """Failure detection + freshest-replica promotion over endpoints.

    Args:
        endpoints: the replica set; the first entry is the initial primary.
        timeout: per-probe connection/request timeout in seconds.
    """

    def __init__(self, endpoints: List[Endpoint], *,
                 timeout: float = 5.0) -> None:
        if not endpoints:
            raise ReplicationError("a replica set needs at least one endpoint")
        self.endpoints = list(endpoints)
        self.timeout = timeout
        self._primary = endpoints[0].name
        self._lock = threading.Lock()

    # -- probing -------------------------------------------------------------

    def probe(self, endpoint: Endpoint) -> Optional[Dict[str, Any]]:
        """One ``status`` round trip; None when the endpoint is dead."""
        try:
            with ServeClient(endpoint.host, endpoint.port,
                             timeout=self.timeout) as client:
                return client.status()
        except (ServeConnectionError, OSError):
            return None

    def survey(self) -> Dict[str, Optional[Dict[str, Any]]]:
        """Probe every endpoint; ``{name: status-or-None}``."""
        return {ep.name: self.probe(ep) for ep in self.endpoints}

    # -- election ------------------------------------------------------------

    @property
    def primary_name(self) -> str:
        with self._lock:
            return self._primary

    def primary(self) -> Endpoint:
        name = self.primary_name
        for ep in self.endpoints:
            if ep.name == name:
                return ep
        raise ReplicationError(f"primary {name!r} is not in the replica set")

    def ensure_primary(self) -> Endpoint:
        """Return a live primary, promoting a successor if needed.

        The current primary is probed first; while it answers, nothing
        changes.  Otherwise the healthiest candidate — alive, not
        diverged, highest applied epoch (endpoint order breaks ties) — is
        promoted and recorded.

        Raises:
            ReplicationError: no endpoint is both alive and promotable.
        """
        current = self.primary()
        status = self.probe(current)
        if status is not None and not status.get("diverged"):
            if not status.get("primary"):
                self._promote(current)
            return current
        best: Optional[Endpoint] = None
        best_epoch = -1
        for ep in self.endpoints:
            if ep.name == current.name:
                continue
            st = self.probe(ep)
            if st is None or st.get("diverged"):
                continue
            applied = int(st.get("applied", 0))
            if applied > best_epoch:
                best, best_epoch = ep, applied
        if best is None:
            raise ReplicationError(
                "failover impossible: no live, non-diverged replica to promote"
            )
        self._promote(best)
        with self._lock:
            self._primary = best.name
        from repro.obs import runtime

        runtime.event("failover.promoted", replica=best.name,
                      epoch=best_epoch, previous=current.name)
        runtime.get_registry().counter(
            "repro_failovers_total", help="Primary promotions performed"
        ).inc()
        return best

    def _promote(self, endpoint: Endpoint) -> None:
        from repro.obs import runtime

        tracer = runtime.get_tracer()
        if not tracer.enabled:
            return self._promote_inner(endpoint)
        # The promote RPC roots (or joins) a trace: the client.request span
        # inside ServeClient and the replica-side replica.promote span both
        # hang off this one, so /trace/<id> shows the whole election.
        with tracer.span("failover.promote", replica=endpoint.name):
            return self._promote_inner(endpoint)

    def _promote_inner(self, endpoint: Endpoint) -> None:
        with ServeClient(endpoint.host, endpoint.port,
                         timeout=self.timeout) as client:
            client.promote()


class ReplicatedClient:
    """Retry/redirect client over a coordinator-managed replica set.

    One cached connection per endpoint, invalidated on any transport
    error.  Not thread-safe (same contract as :class:`ServeClient`); open
    one per worker.
    """

    def __init__(self, coordinator: FailoverCoordinator, *,
                 timeout: float = 10.0, max_attempts: int = 4) -> None:
        self.coordinator = coordinator
        self.timeout = timeout
        self.max_attempts = max_attempts
        self._clients: Dict[str, ServeClient] = {}

    # -- connection cache ----------------------------------------------------

    def _client(self, endpoint: Endpoint) -> ServeClient:
        client = self._clients.get(endpoint.name)
        if client is None:
            client = ServeClient(endpoint.host, endpoint.port,
                                 timeout=self.timeout)
            self._clients[endpoint.name] = client
        return client

    def _invalidate(self, endpoint: Endpoint) -> None:
        client = self._clients.pop(endpoint.name, None)
        if client is not None:
            try:
                client.close()
            except Exception:
                pass

    # -- calls ---------------------------------------------------------------

    def write(self, op: str, **args: Any) -> Dict[str, Any]:
        """Send one write op to the live primary, failing over as needed
        (see :meth:`ServeClient.write`)."""
        from repro.errors import NotPrimaryError

        last: Optional[Exception] = None
        for _ in range(self.max_attempts):
            try:
                endpoint = self.coordinator.ensure_primary()
            except ReplicationError as exc:
                last = exc
                continue
            try:
                return self._client(endpoint).write(op, **args)
            except ServeConnectionError as exc:
                last = exc
                self._invalidate(endpoint)
            except NotPrimaryError as exc:
                # Stale routing: this endpoint lost (or never had) the
                # role; re-probe and retry against the real primary.
                last = exc
        raise ReplicationError(
            f"write {op!r} failed after {self.max_attempts} attempts: {last}"
        )

    def query(self, sql: str, **fields: Any) -> Dict[str, Any]:
        """Run a read, degrading to stale replica answers if the primary
        is unreachable (the response's ``stale`` flag says which)."""
        order = [self.coordinator.primary()] + [
            ep for ep in self.coordinator.endpoints
            if ep.name != self.coordinator.primary_name
        ]
        last: Optional[Exception] = None
        for endpoint in order:
            try:
                response = self._client(endpoint).query(sql, **fields)
                response.setdefault("stale", False)
                response["served_by"] = endpoint.name
                return response
            except ServeConnectionError as exc:
                last = exc
                self._invalidate(endpoint)
        raise ReplicationError(
            f"no endpoint could answer the read: {last}"
        )

    def close(self) -> None:
        for name in list(self._clients):
            client = self._clients.pop(name)
            try:
                client.close()
            except Exception:
                pass

    def __enter__(self) -> "ReplicatedClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
