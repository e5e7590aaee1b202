"""Concurrent serving tier: epoch-pinned snapshot reads over the warehouse.

Layers (bottom-up):

* :mod:`repro.serve.epochs` — MVCC epoch store: publish / pin / unpin / GC
  over immutable snapshots.
* :mod:`repro.serve.concurrent` — :class:`ConcurrentWarehouse`, the
  thread-safe wrapper that serializes writers (copy-on-write) and gives
  every reader a pinned snapshot.
* :mod:`repro.serve.protocol` / :mod:`repro.serve.server` /
  :mod:`repro.serve.client` — front end speaking JSON request lines and
  framed replies (one thread per connection) with bounded admission.
"""

from repro.serve.concurrent import ConcurrentWarehouse, SnapshotHandle
from repro.serve.epochs import EpochStore, Pin, Snapshot


def __getattr__(name):
    # Server and client pull in socket/threading machinery; import lazily so
    # `from repro.serve import ConcurrentWarehouse` stays featherweight.
    if name == "ServeServer":
        from repro.serve.server import ServeServer

        return ServeServer
    if name == "ServeClient":
        from repro.serve.client import ServeClient

        return ServeClient
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ConcurrentWarehouse",
    "EpochStore",
    "Pin",
    "Snapshot",
    "SnapshotHandle",
    "ServeClient",
    "ServeServer",
]
