"""Exception hierarchy for the :mod:`repro` package.

All library errors derive from :class:`ReproError` so callers can catch one
base class.  Subclasses are grouped by subsystem: the core sequence algebra,
the relational engine, the SQL layer, and the materialized-view manager.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# Core sequence algebra (repro.core)
# ---------------------------------------------------------------------------

class SequenceError(ReproError):
    """Invalid sequence specification or sequence operation."""


class WindowError(SequenceError):
    """Invalid window specification (e.g. negative bounds on a sliding window)."""


class IncompleteSequenceError(SequenceError):
    """An operation required a complete sequence (header/trailer) that is missing.

    See section 3.2 of the paper: derivation from a materialized sliding
    window sequence needs the sequence *header* (positions ``-h+1 .. 0``) and
    *trailer* (positions ``n+1 .. n+l``).
    """


class DerivationError(ReproError):
    """A sequence query is not derivable from the given materialized sequence."""


class MaintenanceError(ReproError):
    """An incremental maintenance rule could not be applied."""


# ---------------------------------------------------------------------------
# Fault injection (repro.faults)
# ---------------------------------------------------------------------------

class FaultError(ReproError):
    """Invalid fault plan or misuse of the injection framework."""


class InjectedFault(ReproError):
    """A deterministic fault fired by an installed :class:`FaultPlan`.

    Raised at the hooked site (executor task, storage write, refresh
    checkpoint, maintenance rule) so the surrounding robustness machinery
    — retry, serial fallback, atomic-swap rollback, quarantine — can be
    exercised without real hardware failures.
    """


# ---------------------------------------------------------------------------
# Relational engine (repro.relational)
# ---------------------------------------------------------------------------

class RelationalError(ReproError):
    """Base class for relational-engine errors."""


class SchemaError(RelationalError):
    """Schema mismatch: unknown column, duplicate column, wrong arity/type."""


class CatalogError(RelationalError):
    """Unknown or duplicate table/index/view name."""


class ConstraintError(RelationalError):
    """Violation of a declared constraint (e.g. duplicate primary key)."""


class PageCorruptError(CatalogError):
    """A storage page failed its CRC32 check (or is quarantined).

    Raised by the buffer pool when a v4 page read decodes to bytes whose
    checksum disagrees with the page header / catalog directory.  The
    page is *quarantined* — subsequent reads fail fast with this error
    instead of retrying the bad bytes — and no corrupt values are ever
    returned to the engine.  Subclasses :class:`CatalogError` so existing
    corruption handling (verify CLI, warehouse fallback) applies.
    """


class PageCapacityError(RelationalError):
    """An updated value is not of its page's kind or over-fills the page.

    Internal control flow: :class:`~repro.columns.column.ColumnBuilder`
    catches it and copies the one chunk the page held into memory before
    finishing the write there.
    """


class ExpressionError(RelationalError):
    """Malformed expression tree or evaluation failure."""


class PlanError(RelationalError):
    """Malformed or non-executable query plan."""


# ---------------------------------------------------------------------------
# SQL layer (repro.sql)
# ---------------------------------------------------------------------------

class SqlError(ReproError):
    """Base class for SQL front-end errors."""


class LexerError(SqlError):
    """Unrecognised token in the SQL input."""

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position


class ParseError(SqlError):
    """The SQL input does not match the supported grammar."""

    def __init__(self, message: str, position: int = -1) -> None:
        super().__init__(message)
        self.position = position


class BindError(SqlError):
    """Name resolution failure: unknown table, column, or function."""


class UnsupportedSqlError(SqlError):
    """Syntactically valid SQL that this engine intentionally does not support."""


# ---------------------------------------------------------------------------
# Materialized views / warehouse (repro.views, repro.warehouse)
# ---------------------------------------------------------------------------

class ViewError(ReproError):
    """Base class for materialized-view errors."""


class ViewDefinitionError(ViewError):
    """The view definition is not a recognisable reporting-function view."""


class NoRewriteError(ViewError):
    """No registered materialized view can answer the query.

    Raised only when the caller demanded a rewrite
    (``require_rewrite=True``); the default behaviour is to fall back to
    evaluation over base tables.
    """


class QuarantinedViewError(ViewError):
    """A directly-addressed view is quarantined and cannot serve reads.

    Quarantined views are skipped transparently by the query rewriter
    (queries route back to base data); only *explicitly* view-addressed
    operations such as ``value_at`` raise.  ``DataWarehouse.repair()``
    re-refreshes, re-verifies and reinstates the view.
    """


# ---------------------------------------------------------------------------
# Concurrent serving tier (repro.serve)
# ---------------------------------------------------------------------------

class ServeError(ReproError):
    """Base class for serving-tier errors (server, protocol, sessions)."""


class ProtocolError(ServeError):
    """Malformed wire request/response (bad JSON, unknown op, bad fields)."""


class BackpressureError(ServeError):
    """The server's bounded query queue is full; retry later.

    Admission control rejects rather than queues unboundedly: the client
    receives this as a clean ``backpressure`` error instead of an ever-
    growing tail latency.
    """


class SessionKilledError(ServeError):
    """The session was terminated mid-query (fault injection or shutdown).

    The epoch pinned by the killed query is always released — a kill can
    never leak a pin or hold old epochs alive.
    """


class ConcurrencyError(ServeError):
    """An operation that requires exclusivity ran under concurrent serving.

    Raised e.g. by :meth:`DataWarehouse.save` when the warehouse is owned
    by a :class:`~repro.serve.concurrent.ConcurrentWarehouse` and the call
    did not go through the wrapper's serialized write path.
    """


class ServeConnectionError(ServeError):
    """The connection to a serve-tier peer failed mid-request.

    Wraps raw socket failures (``ConnectionResetError``, ``BrokenPipeError``,
    timeouts, unexpected EOF) so callers handle one typed error instead of
    transport internals.  ``request_id`` identifies the in-flight request
    whose response was lost — the caller cannot know whether the server
    executed it, so non-idempotent ops need an explicit status check before
    a retry.
    """

    def __init__(self, message: str, *, request_id=None) -> None:
        super().__init__(message)
        self.request_id = request_id


# ---------------------------------------------------------------------------
# Durable replication (repro.replicate)
# ---------------------------------------------------------------------------

class ReplicationError(ReproError):
    """Base class for write-ahead-log / replication / failover errors."""


class WalCorruptionError(ReplicationError):
    """The write-ahead log is corrupt *before* its tail.

    A torn tail (a crash mid-append) is expected and silently truncated on
    open; a bad frame followed by good frames means the log itself was
    damaged and recovery cannot trust anything after the corruption point.
    """


class DivergenceError(ReplicationError):
    """A replica's post-apply state digest disagrees with the primary's.

    The shipped epoch record carries the primary's content digest; a
    mismatch after apply means the replica can no longer serve answers
    bit-identical to the primary and must stop applying (it keeps serving
    reads at its last verified epoch).
    """


class NotPrimaryError(ReplicationError):
    """A write reached a replica that has not been promoted.

    Replicas serve (stale-flagged) reads at their last replicated epoch;
    writes fail fast with this error so the client can redirect to the
    primary (or wait for failover to promote one).
    """
