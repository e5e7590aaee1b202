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

__all__ = ["ConcurrentWarehouse", "SnapshotHandle"]


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
        with self._write_lock:
            self._mark_write()
            try:
                if initial_epoch is not None and initial_epoch > 0:
                    self._epoch_override = initial_epoch
                try:
                    self._publish()
                finally:
                    self._epoch_override = None
            finally:
                self._unmark_write()

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

    def _write(self, fn, *, op: Optional[str] = None,
               args: Optional[Dict[str, Any]] = None,
               cow_tables: Iterable[str] = ()):
        """Run one mutation serialized, copy-on-write, logged, published.

        The clone step installs fresh table objects in the *live* catalog
        for everything ``fn`` will mutate in place; epochs published
        earlier keep the originals.

        Write-ahead discipline (when a WAL is attached and ``op`` names a
        logical operation): after ``fn`` succeeds, the op — with its
        JSON-safe arguments and a post-state content digest — is appended
        and fsync'd *before* the epoch publishes.  A WAL append failure
        (torn write, disk error) **poisons** the wrapper: the epoch is not
        published, every later write is refused, and the owner must
        recover from the log.  Readers keep serving already-published
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
                for name in cow_tables:
                    if self._wh.db.catalog.has_table(name):
                        self._wh.db.catalog.replace(
                            self._wh.db.table(name).clone()
                        )
                try:
                    result = fn()
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

    def _log_commit(self, op: Optional[str], args: Optional[Dict[str, Any]]):
        """Build and durably append this commit's EpochRecord (or None when
        the op is unlogged or nobody is listening)."""
        if op is None or (self._wal is None and not self._commit_listeners):
            return None
        from repro.replicate.wal import EpochRecord, encode_args, state_digest

        epoch = self._epoch_override or self.epochs.latest_epoch + 1
        record = EpochRecord(
            epoch=epoch, op=op, args=encode_args(args or {}),
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

    def _maintenance_cow(self, table: str) -> List[str]:
        """COW targets of one base-data change: the table, plus every
        dependent view's storage table."""
        return [table] + [
            v.definition.storage_table for v in self._wh.views.values()
            if v.definition.base_table == table
        ]

    # -- mutations (all serialized, all logged, all publish) -----------------

    def create_table(self, name: str, columns, **kwargs):
        columns = [tuple(c) if isinstance(c, (list, tuple)) else c
                   for c in columns]
        return self._write(
            lambda: self._wh.create_table(name, columns, **kwargs),
            op="create_table",
            args={"name": name, "columns": columns, "kwargs": kwargs},
        )

    def drop_table(self, name: str, **kwargs) -> None:
        return self._write(
            lambda: self._wh.drop_table(name, **kwargs),
            op="drop_table", args={"name": name, "kwargs": kwargs},
        )

    def insert(self, table: str, rows: Iterable[Sequence[Any]]) -> int:
        rows = [list(r) for r in rows]  # materialize: logged after fn() runs
        return self._write(
            lambda: self._wh.insert(table, rows),
            cow_tables=self._maintenance_cow(table),
            op="insert", args={"table": table, "rows": rows},
        )

    def create_index(self, table: str, name: str, columns, **kwargs):
        return self._write(
            lambda: self._wh.create_index(table, name, columns, **kwargs),
            cow_tables=[table],
            op="create_index",
            args={"table": table, "name": name, "columns": list(columns),
                  "kwargs": kwargs},
        )

    def create_view(self, name: str, definition, *, complete: bool = True):
        if isinstance(definition, str):
            logged = {"sql": definition}
        else:
            logged = definition.to_doc()
        return self._write(
            lambda: self._wh.create_view(name, definition, complete=complete),
            op="create_view",
            args={"name": name, "definition": logged, "complete": complete},
        )

    def drop_view(self, name: str) -> None:
        return self._write(
            lambda: self._wh.drop_view(name),
            op="drop_view", args={"name": name},
        )

    def refresh_view(self, name: str) -> None:
        # Refresh is already copy-on-write: it stages a shadow storage
        # table and fresh mirrors, then swaps atomically.
        return self._write(
            lambda: self._wh.refresh_view(name),
            op="refresh_view", args={"name": name},
        )

    def update_measure(self, table: str, **kwargs) -> List[Any]:
        return self._write(
            lambda: self._wh.update_measure(table, **kwargs),
            cow_tables=self._maintenance_cow(table),
            op="update_measure", args={"table": table, "kwargs": kwargs},
        )

    def insert_row(self, table: str, values: Sequence[Any]) -> List[Any]:
        values = list(values)
        return self._write(
            lambda: self._wh.insert_row(table, values),
            cow_tables=self._maintenance_cow(table),
            op="insert_row", args={"table": table, "values": values},
        )

    def delete_row(self, table: str, *, keys: Dict[str, Any]) -> List[Any]:
        return self._write(
            lambda: self._wh.delete_row(table, keys=keys),
            cow_tables=self._maintenance_cow(table),
            op="delete_row", args={"table": table, "keys": dict(keys)},
        )

    def repair(self, name: Optional[str] = None) -> Dict[str, Any]:
        return self._write(
            lambda: self._wh.repair(name),
            op="repair", args={"name": name},
        )

    def quarantine_view(self, name: str, reason: str) -> None:
        return self._write(
            lambda: self._wh.quarantine_view(name, reason),
            op="quarantine_view", args={"name": name, "reason": reason},
        )

    def verify(self, *, quarantine: bool = True):
        """:meth:`audit_digest`, then cross-check every view against base data."""
        # The verify-time bitflip fault hook corrupts storage in place;
        # COW every storage table so pinned epochs stay pristine.
        storages = [
            v.definition.storage_table for v in self._wh.views.values()
        ]
        self.audit_digest()
        return self._write(
            lambda: self._wh.verify(quarantine=quarantine),
            cow_tables=storages,
        )

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

        The record's op is dispatched through the normal mutator path —
        same COW discipline, same WAL append (a replica with its own log
        is durable too), same publish — but the published epoch is forced
        to ``record.epoch`` so both sides agree on what each epoch means.

        Returns whether the post-apply digest was compared: not (and
        counted) for a record of another digest scheme, e.g. an older log.

        Raises:
            ReplicationError: the record does not advance the epoch (the
                shipper re-sent something already applied) or names an
                unknown op.
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
            self._epoch_override = record.epoch
            try:
                self._dispatch_op(record.op, decode_args(record.args))
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

    def _dispatch_op(self, op: str, args: Dict[str, Any]) -> None:
        """Replay one decoded logical op against the owned warehouse."""
        if op == "create_table":
            self.create_table(
                args["name"], [tuple(c) for c in args["columns"]],
                **args.get("kwargs", {}),
            )
        elif op == "drop_table":
            self.drop_table(args["name"], **args.get("kwargs", {}))
        elif op == "insert":
            self.insert(args["table"], args["rows"])
        elif op == "create_index":
            self.create_index(
                args["table"], args["name"], args["columns"],
                **args.get("kwargs", {}),
            )
        elif op == "create_view":
            from repro.views.definition import SequenceViewDefinition

            doc = args["definition"]
            definition = (
                doc["sql"] if "sql" in doc else SequenceViewDefinition.from_doc(doc)
            )
            self.create_view(
                args["name"], definition, complete=args.get("complete", True)
            )
        elif op == "drop_view":
            self.drop_view(args["name"])
        elif op == "refresh_view":
            self.refresh_view(args["name"])
        elif op == "update_measure":
            self.update_measure(args["table"], **args.get("kwargs", {}))
        elif op == "insert_row":
            self.insert_row(args["table"], args["values"])
        elif op == "delete_row":
            self.delete_row(args["table"], keys=args["keys"])
        elif op == "repair":
            self.repair(args.get("name"))
        elif op == "quarantine_view":
            self.quarantine_view(args["name"], args["reason"])
        else:
            raise ReplicationError(f"unknown replicated op {op!r}")

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
