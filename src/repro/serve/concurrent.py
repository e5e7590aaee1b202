"""Thread-safe warehouse wrapper with epoch-pinned snapshot reads.

:class:`ConcurrentWarehouse` turns the single-caller
:class:`~repro.warehouse.warehouse.DataWarehouse` into a multi-reader /
serialized-writer system:

* **Writers serialize** on one lock.  Every committing write publishes a
  new epoch to an :class:`~repro.serve.epochs.EpochStore`.
* **Readers never block.**  A query pins the epoch current when it
  started and runs against that epoch's table and view versions — a view
  refresh or maintenance op committing epoch N+1 mid-query cannot change
  (or tear) the answer at epoch N.
* **Copy-on-write discipline:** refresh already builds brand-new objects
  (the epoch-versioned shadow table + atomic catalog swap from the
  crash-consistency work), so it is naturally snapshot-safe.  Operations
  that mutate tables *in place* — incremental maintenance, base inserts,
  index builds, verify-time corruption hooks — first install flat clones
  of every table they are about to touch, so published epochs stay frozen
  forever.  A view's mirror is never written in place: maintenance rebinds
  it to a copy owning the one partition it changes (``ReportingSequence.owning``).

Reads are answered by a *snapshot warehouse*: a throwaway
``DataWarehouse`` assembled over the pinned epoch's frozen objects (no
data copied).  Because snapshot tables are immutable, any number of
readers may share them across threads.

Fault injection: the ``session_kill`` fault kind fires at the
``serve_query`` site — after the epoch is pinned, before execution — and
surfaces as :class:`~repro.errors.SessionKilledError`.  The pin is
released on *every* exit path, so a killed session leaves the epoch store
clean (no pinned, no orphaned epochs).
"""

from __future__ import annotations

import inspect
import threading
import weakref
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.errors import (
    ConcurrencyError,
    DivergenceError,
    InjectedFault,
    ReplicationError,
    SessionKilledError,
)
from repro.relational.catalog import Catalog
from repro.serve.epochs import EpochStore, Pin, Snapshot
from repro.warehouse.warehouse import DataWarehouse, QueryResult

__all__ = ["LOGGED_OPS", "ConcurrentWarehouse", "SnapshotHandle", "bind_op"]

#: The ``DataWarehouse`` mutators a commit logs, ships and replays: an
#: epoch record's ``op`` is one of these names and its ``args`` are the
#: keyword arguments the method was called with.
LOGGED_OPS = frozenset({
    "create_table", "drop_table", "insert", "create_index", "create_view",
    "drop_view", "refresh_view", "update_measure", "insert_row",
    "delete_row", "repair", "quarantine_view",
})
_SIGNATURES = {op: inspect.signature(getattr(DataWarehouse, op)) for op in LOGGED_OPS}


def bind_op(op: str, args: Any) -> None:
    """Raise ``TypeError`` unless ``op`` is one of :data:`LOGGED_OPS` and
    ``args`` is a dict of keyword arguments that bind to its signature."""
    if op not in LOGGED_OPS:
        raise TypeError(f"{op!r} is not a logged op")
    if not isinstance(args, dict):
        raise TypeError(f"args must be an object, got {type(args).__name__}")
    _SIGNATURES[op].bind(None, **args)


def _view_copy(view, **changes):
    """A shallow copy of ``view`` with ``changes`` (what ``copy.copy``
    does, without its per-call dispatch: a commit and a read make one per
    view)."""
    out = object.__new__(type(view))
    out.__dict__.update(view.__dict__, **changes)
    return out


def _warehouse_at(snapshot: Snapshot) -> DataWarehouse:
    """Assemble a read-only DataWarehouse over one epoch's frozen objects.

    No data is copied: the catalog maps names to the snapshot's table
    objects and each view is a shallow copy of the snapshot's, its ``db``
    rebound to that catalog.  The result is safe to use from any thread
    because every object it can reach is immutable by the writer COW
    discipline.
    """
    wh = DataWarehouse()
    wh.db.catalog = Catalog(dict(snapshot.tables))
    for name, published in snapshot.views.items():
        wh.views[name] = _view_copy(published, db=wh.db)
    return wh


class SnapshotHandle:
    """Context manager exposing reads against one pinned epoch."""

    def __init__(self, owner: "ConcurrentWarehouse", pin: Pin) -> None:
        self._owner = owner
        self._pin = pin

    @property
    def epoch(self) -> int:
        return self._pin.epoch

    @property
    def snapshot(self) -> Snapshot:
        return self._pin.snapshot

    def query(self, sql: str, **options: Any) -> QueryResult:
        """Run a SELECT at this epoch (bit-identical until released)."""
        wh = _warehouse_at(self._pin.snapshot)
        # Served reads report into the owner's slow-query log (the log is
        # lock-protected), so slow snapshot queries — trace ids included —
        # show up in one place instead of dying with the throwaway wrapper.
        wh.slow_queries = self._owner._wh.slow_queries
        result = wh.query(sql, **options)
        result.epoch = self._pin.epoch
        self._owner._note_read_incidents(wh.incidents)
        return result

    def value_at(self, view_name: str, order_key, **kwargs: Any):
        """Point lookup at this epoch (see ``DataWarehouse.value_at``)."""
        return _warehouse_at(self._pin.snapshot).value_at(
            view_name, order_key, **kwargs
        )

    def explain(self, sql: str, **options: Any) -> str:
        return _warehouse_at(self._pin.snapshot).explain(sql, **options)

    def release(self) -> None:
        self._pin.release()

    def __enter__(self) -> "SnapshotHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


class ConcurrentWarehouse:
    """Serialized-writer / snapshot-reader facade over a DataWarehouse.

    Args:
        warehouse: an existing warehouse to take ownership of (it must no
            longer be mutated directly — the ownership guard enforces
            this), or ``None`` to create a fresh one.
        wal: a :class:`~repro.replicate.wal.WriteAheadLog`; when set,
            every mutation appends its logical op to the log — fsync'd —
            *before* the epoch is published (write-ahead discipline).
        initial_epoch: publish the initial snapshot at this epoch id
            instead of 1.  Recovery uses it to restart the epoch counter
            at the checkpointed snapshot's epoch so WAL replay continues
            the primary's numbering.
    """

    def __init__(self, warehouse: Optional[DataWarehouse] = None, *,
                 wal=None, initial_epoch: Optional[int] = None) -> None:
        wh = warehouse if warehouse is not None else DataWarehouse()
        owner = getattr(wh, "_concurrent_owner", None)
        if owner is not None and owner() is not None:
            raise ConcurrencyError(
                "warehouse is already owned by another ConcurrentWarehouse"
            )
        self._wh = wh
        self._write_lock = threading.RLock()
        self._local = threading.local()
        self.epochs = EpochStore()
        self._wal = wal
        self._commit_listeners: List[Any] = []
        self._epoch_override: Optional[int] = None
        self._poisoned: Optional[str] = None
        wh._concurrent_owner = weakref.ref(self)
        if initial_epoch is not None and initial_epoch > 0:
            self._epoch_override = initial_epoch
        self._publish()
        self._epoch_override = None

    # -- ownership / write-section bookkeeping -------------------------------

    @property
    def warehouse(self) -> DataWarehouse:
        """The owned warehouse (mutate it only through this wrapper)."""
        return self._wh

    @property
    def in_write_section(self) -> bool:
        """True on a thread currently inside this wrapper's write path."""
        return getattr(self._local, "depth", 0) > 0

    def _mark_write(self) -> None:
        self._local.depth = getattr(self._local, "depth", 0) + 1

    def _unmark_write(self) -> None:
        self._local.depth -= 1

    # -- write path ----------------------------------------------------------

    def _write(self, op: str, **args: Any):
        """Run ``DataWarehouse.<op>(**args)`` serialized, copy-on-write,
        logged, published.

        Copy-on-write: when ``args`` name a ``table``, that table and every
        dependent view's storage table are replaced by clones in the *live*
        catalog before the call mutates them in place; epochs published
        earlier keep the originals.

        Write-ahead discipline (when a WAL or a commit listener is attached
        and ``op`` is one of :data:`LOGGED_OPS`): after the call succeeds,
        ``op`` and ``args`` — JSON-encoded, with a post-state content digest
        — are appended and fsync'd *before* the epoch publishes.  A WAL
        append failure (torn write, disk error) **poisons** the wrapper: the
        epoch is not published, every later write is refused, and the owner
        must recover from the log.  Readers keep serving already-published
        epochs.

        A *failed* mutation still publishes (no WAL record): partial
        effects that stand by design — a failed refresh quarantining its
        view — must become visible to new readers, and quarantine is
        advisory local state that replication deliberately does not carry.

        Commit listeners (the replica shipper) run after publish, still
        under the write lock so shipments observe commit order.
        """
        with self._write_lock:
            if self._poisoned is not None:
                raise ReplicationError(
                    f"warehouse is poisoned after a WAL failure "
                    f"({self._poisoned}); recover from the log"
                )
            self._mark_write()
            try:
                table = args.get("table")
                if table is not None:
                    self._clone([table] + [
                        v.definition.storage_table for v in self._wh.views.values()
                        if v.definition.base_table == table
                    ])
                try:
                    result = getattr(self._wh, op)(**args)
                except BaseException:
                    self._publish()
                    raise
                record = self._log_commit(op, args)
                self._publish()
                if record is not None:
                    for listener in list(self._commit_listeners):
                        listener(record)
                return result
            finally:
                self._unmark_write()

    def _clone(self, names: Iterable[str]) -> None:
        catalog = self._wh.db.catalog
        for name in names:
            if catalog.has_table(name):
                catalog.replace(catalog.table(name).clone())

    def _log_commit(self, op: str, args: Dict[str, Any]):
        """Build and durably append this commit's EpochRecord (or None when
        the op is unlogged or nobody is listening)."""
        if op not in LOGGED_OPS or (self._wal is None and not self._commit_listeners):
            return None
        from repro.replicate.wal import EpochRecord, encode_args, state_digest

        epoch = self._epoch_override or self.epochs.latest_epoch + 1
        record = EpochRecord(
            epoch=epoch, op=op, args=encode_args(args),
            digest=state_digest(self._wh),
        )
        if self._wal is not None:
            try:
                self._wal.append(record)
            except BaseException as exc:
                self._poisoned = f"{type(exc).__name__}: {exc}"
                raise
        return record

    def _publish(self) -> Snapshot:
        # A view's attributes are only ever rebound, never edited in place,
        # so a shallow copy freezes it as of this epoch.
        tables = {t.name: t for t in self._wh.db.catalog.tables()}
        views = {name: _view_copy(v) for name, v in self._wh.views.items()}
        return self.epochs.publish(tables, views, epoch=self._epoch_override)

    # -- mutations (all serialized, all logged, all publish) -----------------

    def create_table(self, name: str, columns, **kwargs):
        return self._write("create_table", name=name, columns=list(columns), **kwargs)

    def drop_table(self, name: str, **kwargs) -> None:
        return self._write("drop_table", name=name, **kwargs)

    def insert(self, table: str, rows: Iterable[Sequence[Any]]) -> int:
        return self._write("insert", table=table, rows=list(rows))

    def create_index(self, table: str, name: str, columns, **kwargs):
        return self._write("create_index", table=table, name=name,
                           columns=list(columns), **kwargs)

    def create_view(self, name: str, definition, *, complete: bool = True):
        return self._write("create_view", name=name, definition=definition,
                           complete=complete)

    def drop_view(self, name: str) -> None:
        return self._write("drop_view", name=name)

    def refresh_view(self, name: str) -> None:
        # Refresh is already copy-on-write: it stages a shadow storage
        # table and fresh mirrors, then swaps atomically.
        return self._write("refresh_view", name=name)

    def update_measure(self, table: str, **kwargs) -> List[Any]:
        return self._write("update_measure", table=table, **kwargs)

    def insert_row(self, table: str, values: Sequence[Any]) -> List[Any]:
        return self._write("insert_row", table=table, values=list(values))

    def delete_row(self, table: str, *, keys: Dict[str, Any]) -> List[Any]:
        return self._write("delete_row", table=table, keys=keys)

    def repair(self, name: Optional[str] = None) -> Dict[str, Any]:
        return self._write("repair", name=name)

    def quarantine_view(self, name: str, reason: str) -> None:
        return self._write("quarantine_view", name=name, reason=reason)

    def verify(self, *, quarantine: bool = True):
        """:meth:`audit_digest`, then cross-check every view against base data."""
        self.audit_digest()
        with self._write_lock:
            # The verify-time bitflip fault hook corrupts storage in place;
            # COW every storage table so pinned epochs stay pristine.
            self._clone(v.definition.storage_table for v in self._wh.views.values())
            return self._write("verify", quarantine=quarantine)

    def audit_digest(self) -> str:
        """Recompute the content digest from every buffer and compare it
        with the one the storage keeps current; ``DivergenceError`` when a
        buffer changed behind the mutators or a chunk hash went stale."""
        from repro.obs import runtime
        from repro.replicate.wal import state_digest

        with self._write_lock:
            kept, fresh = state_digest(self._wh), state_digest(self._wh, cached=False)
        if kept != fresh:
            runtime.get_registry().counter(
                "repro_replicate_digest_audit_failures_total",
                help="Audits where the kept digest disagreed with a recomputation",
            ).inc()
            raise DivergenceError(
                f"digest audit failed: kept {kept[:15]} != recomputed {fresh[:15]}"
            )
        return kept

    def save(self, directory: str, **kwargs) -> None:
        """Persist under the write lock (exclusive with writers; readers
        keep serving their pinned epochs meanwhile).

        With a WAL attached, the digest is audited first (a failed audit
        leaves the previous dump and the log alone) and a successful save
        checkpoints the log at the saved epoch: segments fully covered by
        the dump are deleted, so recovery replays only what is not in it.
        """
        with self._write_lock:
            self._mark_write()
            try:
                if self._wal is not None:
                    self.audit_digest()
                self._wh.save(directory, **kwargs)
                if self._wal is not None:
                    self._wal.checkpoint(self.epochs.latest_epoch)
            finally:
                self._unmark_write()

    @classmethod
    def load(cls, directory: str) -> "ConcurrentWarehouse":
        """Load a saved warehouse into memory and wrap it for concurrent
        serving (residency follows the budget, and this load passes none:
        see :meth:`DataWarehouse.load`)."""
        return cls(DataWarehouse.load(directory))

    # -- replication ---------------------------------------------------------

    @property
    def wal(self):
        """The attached write-ahead log (or None)."""
        return self._wal

    @property
    def poisoned(self) -> Optional[str]:
        """Why writes are refused after a WAL failure (None = healthy)."""
        return self._poisoned

    def attach_wal(self, wal) -> None:
        """Attach a WAL after construction (recovery replays *without* a
        log attached, then attaches it so new writes append at the epoch
        numbering the replay established)."""
        with self._write_lock:
            self._wal = wal

    def add_commit_listener(self, listener) -> None:
        """Register ``listener(record)`` to run after each logged commit
        publishes (under the write lock — commit order is shipment order)."""
        with self._write_lock:
            self._commit_listeners.append(listener)

    def remove_commit_listener(self, listener) -> None:
        with self._write_lock:
            if listener in self._commit_listeners:
                self._commit_listeners.remove(listener)

    def apply_record(self, record) -> bool:
        """Re-execute one shipped/replayed logical op at the primary's epoch.

        The record's op is one of :data:`LOGGED_OPS`, called with the
        record's arguments through the normal mutator path — same COW
        discipline, same WAL append (a replica with its own log is durable
        too), same publish — but the published epoch is forced to
        ``record.epoch`` so both sides agree on what each epoch means.

        Returns whether the post-apply digest was compared: not (and
        counted) for a record of another digest scheme, e.g. an older log.

        Raises:
            ReplicationError: the record does not advance the epoch (the
                shipper re-sent something already applied), names an op
                that is not logged, or carries arguments that do not bind
                to it; nothing is applied or published then.
            DivergenceError: the post-apply content digest disagrees with
                the digest the primary recorded — the replica has diverged
                and must not be promoted.
        """
        from repro.obs import runtime
        from repro.replicate.wal import DIGEST_SCHEME, decode_args, state_digest

        with self._write_lock:
            latest = self.epochs.latest_epoch
            if record.epoch <= latest:
                raise ReplicationError(
                    f"cannot apply epoch {record.epoch}: already at {latest}"
                )
            try:
                args = decode_args(record.args)
                bind_op(record.op, args)
            except (KeyError, TypeError, ValueError) as exc:
                raise ReplicationError(
                    f"cannot apply epoch {record.epoch} ({record.op}): {exc}"
                ) from None
            self._epoch_override = record.epoch
            try:
                getattr(self, record.op)(**args)
            finally:
                self._epoch_override = None
            if not record.digest.startswith(DIGEST_SCHEME):
                runtime.get_registry().counter(
                    "repro_replicate_unverified_records_total",
                    help="Records applied without a digest comparison",
                ).inc()
                return False
            digest = state_digest(self._wh)
            if digest != record.digest:
                raise DivergenceError(
                    f"replica diverged at epoch {record.epoch} "
                    f"({record.op}): digest {digest[:15]} != primary "
                    f"{record.digest[:15]}"
                )
            return True

    def release(self) -> DataWarehouse:
        """Relinquish ownership: the warehouse becomes single-caller again.

        The caller is responsible for quiescing readers first — snapshots
        pinned before release keep working (their objects are frozen), but
        subsequent direct mutations will not publish epochs for them.
        """
        with self._write_lock:
            self._wh._concurrent_owner = None
            return self._wh

    # -- reads (never block on the write lock) -------------------------------

    def pin(self) -> SnapshotHandle:
        """Pin the current epoch; release via context manager or .release()."""
        return SnapshotHandle(self, self.epochs.pin())

    def query(self, sql: str, *, session: str = "",
              hold_ms: float = 0.0, **options: Any) -> QueryResult:
        """Run one SELECT at the epoch current when the call started.

        Args:
            session: session id, used as the fault-injection target for
                ``session_kill`` specs.
            hold_ms: artificially hold the pin for this long before
                executing — a deterministic aid for backpressure tests and
                the serving benchmark (refreshes committed during the hold
                must not change the answer).

        Raises:
            SessionKilledError: a ``session_kill`` fault fired mid-query;
                the pinned epoch is released before raising.
        """
        import time

        from repro.faults import injector

        with self.pin() as snap:
            try:
                injector.check("serve_query", session)
            except InjectedFault as exc:
                raise SessionKilledError(
                    f"session {session or '<anonymous>'} killed mid-query "
                    f"at epoch {snap.epoch}: {exc}"
                ) from exc
            if hold_ms > 0:
                time.sleep(hold_ms / 1000.0)
            return snap.query(sql, **options)

    def value_at(self, view_name: str, order_key, **kwargs: Any):
        with self.pin() as snap:
            return snap.value_at(view_name, order_key, **kwargs)

    def explain(self, sql: str, **options: Any) -> str:
        with self.pin() as snap:
            return snap.explain(sql, **options)

    # -- delegation / inspection ---------------------------------------------

    def view_names(self) -> List[str]:
        with self._write_lock:
            return sorted(self._wh.views)

    def quarantined_views(self) -> List[str]:
        with self._write_lock:
            return self._wh.quarantined_views()

    @property
    def incidents(self) -> List[str]:
        return self._wh.incidents

    def _note_read_incidents(self, incidents: List[str]) -> None:
        # Degradations observed by snapshot readers (e.g. a rewrite that
        # fell back to base data) surface on the live incident log.
        if incidents:
            self._wh.incidents.extend(incidents)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ConcurrentWarehouse(epoch={self.epochs.latest_epoch}, "
            f"views={self.view_names()})"
        )
