"""Threaded serving front end with per-connection sessions and admission control.

:class:`ServeServer` accepts connections that send JSON request lines and
get framed replies (see :mod:`repro.serve.protocol`) over a
:class:`~repro.serve.concurrent.ConcurrentWarehouse`.  Design points:

* **One thread per connection.**  An accept thread hands each connection
  to its own thread, which reads a request line from a blocking socket,
  runs it and writes the reply frame in one ``sendall``.  Reads pin their epoch inside that thread
  (through ``ConcurrentWarehouse.query``), so a slow query holds its
  snapshot and its own connection, never another session or the writers.
* **Per-connection sessions.**  Each connection is a :class:`Session`,
  whose name tags its queries' spans and pins.
* **Admission control.**  At most ``max_queue`` queries may be executing
  across all sessions; the next query is rejected immediately with
  ``BackpressureError`` rather than queued unboundedly.  Rejections are
  counted in ``repro_serve_admission_rejections_total``.
* **Lifecycle.**  ``start()`` binds (``port=0`` picks an ephemeral port,
  published as ``.port``) and starts the accept thread; ``stop()`` closes
  the listener and every connection and joins every thread it started.

Observability: gauges ``repro_serve_active_sessions`` and
``repro_serve_queue_depth``, histogram ``repro_serve_query_seconds``, and
a ``serve.query`` span per query (session, epoch, sql attributes).
"""

from __future__ import annotations

import contextlib
import socket
import threading
import time
from typing import Any, BinaryIO, Dict, Optional, Tuple

from repro.errors import (
    BackpressureError,
    InjectedFault,
    NotPrimaryError,
    PlanError,
    ProtocolError,
    ReplicationError,
    ServeError,
)
from repro.faults import injector
from repro.obs import runtime
from repro.replicate.wal import decode_args
from repro.serve import protocol
from repro.serve.concurrent import ConcurrentWarehouse, bind_op
from repro.sql.options import QueryOptions

__all__ = ["ServeServer", "Session"]


class Session:
    """Per-connection state: the session's identity."""

    _counter = 0
    _counter_lock = threading.Lock()

    def __init__(self) -> None:
        with Session._counter_lock:
            Session._counter += 1
            number = Session._counter
        self.name = f"session-{number}"


class ServeServer:
    """The serving front end; one instance per ConcurrentWarehouse.

    Args:
        warehouse: the concurrent warehouse to serve; pass ``None`` with
            ``replica`` to serve the replica's own warehouse.
        host/port: bind address; ``port=0`` (default) picks an ephemeral
            port, available as ``.port`` once started.
        max_queue: admission bound — maximum queries in flight at once.
        replica: a :class:`~repro.replicate.replica.Replica` role.  The
            server then answers ``ship``/``promote``; until promotion,
            write ops fail with :class:`NotPrimaryError` and query
            responses carry ``"stale": true`` (graceful degradation —
            reads keep serving the last replicated epoch).
        name: identity for ``status`` probes and as the target of
            ``primary_crash`` fault specs.
    """

    def __init__(
        self,
        warehouse: Optional[ConcurrentWarehouse] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queue: int = 8,
        replica=None,
        name: str = "primary",
    ) -> None:
        if max_queue < 1:
            raise ServeError(f"max_queue must be >= 1, got {max_queue}")
        if warehouse is None:
            if replica is None:
                raise ServeError("a warehouse or a replica role is required")
            warehouse = replica.warehouse
        self.warehouse = warehouse
        self.host = host
        self.port = port  # rebound to the concrete port on start
        self.max_queue = max_queue
        self.replica = replica
        self.name = name
        self.crashed = False
        # Guards what connection threads update: the counts and the table.
        self._lock = threading.Lock()
        self._inflight = 0
        self._sessions = 0
        self._connections: Dict[socket.socket, threading.Thread] = {}
        self._listener: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None

    # -- metrics helpers -----------------------------------------------------

    def _set_gauges(self) -> None:
        """Publish the session and admission counts; call under ``_lock``."""
        registry = runtime.get_registry()
        registry.gauge(
            "repro_serve_active_sessions",
            help="Open serving-tier connections",
        ).set(float(self._sessions))
        registry.gauge(
            "repro_serve_queue_depth",
            help="Queries currently admitted (executing or queued)",
        ).set(float(self._inflight))

    # -- connection handling -------------------------------------------------

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                conn, _ = listener.accept()
            except OSError:  # the listener was shut down: stop or crash
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(
                target=self._handle_connection, args=(conn,),
                name=f"repro-serve-{self.name}-conn", daemon=True,
            )
            with self._lock:
                self._connections[conn] = thread
                self._sessions += 1
                self._set_gauges()
            thread.start()

    def _handle_connection(self, conn: socket.socket) -> None:
        session = Session()
        try:
            with conn.makefile("rb") as stream:
                while not self.crashed:
                    line = self._read_line(stream)
                    if line == b"":
                        break
                    if line is not None and line.strip() == b"":
                        continue
                    reply = self._answer(session, line)
                    if reply is None:  # the request crashed the server
                        break
                    response, encoded = reply
                    conn.sendall(encoded)
                    if response.get("closing"):
                        break
        except OSError:  # the peer went away, or stop()/a crash shut us down
            pass
        finally:
            with self._lock:
                self._connections.pop(conn, None)
                self._sessions -= 1
                self._set_gauges()
            conn.close()

    def _answer(
        self, session: Session, line: Optional[bytes]
    ) -> Optional[Tuple[Dict[str, Any], bytes]]:
        """Answer one request line (``None`` for an over-long one): the
        response and its encoding, or ``None`` if it crashed the server."""
        request_id = None
        try:
            if line is None:
                raise ProtocolError(
                    f"request line exceeds {protocol.MAX_LINE_BYTES} bytes"
                )
            # The primary_crash fault site: the process "dies" mid-dispatch
            # — every connection is aborted with no response, exactly what
            # clients of a crashed primary observe (ServeConnectionError),
            # and the listener stops accepting.
            injector.check("primary", self.name)
            request = protocol.decode_line(line)
            request_id = request.get("id")
            response = self._dispatch(session, request)
            # Encoded inside the try: a payload the encoder rejects is one
            # more failure to report, not the connection's end.
            return response, protocol.encode_line(response)
        except InjectedFault:
            self._crash()
            return None
        except Exception as exc:  # every failure -> error response
            response = protocol.error_response(exc, request_id)
            return response, protocol.encode_line(response)

    @staticmethod
    def _read_line(stream: BinaryIO) -> Optional[bytes]:
        """The next request line; ``b""`` at end of stream, ``None`` for a
        line longer than ``protocol.MAX_LINE_BYTES``.

        An over-long line is read and dropped up to its newline, so it gets
        one ``ProtocolError`` and the next line starts where it should.  A
        last line with no newline before end of stream is returned as is.
        """
        limit = protocol.MAX_LINE_BYTES + 1  # the line plus its newline
        line = stream.readline(limit)
        if len(line) < limit or line.endswith(b"\n"):
            return line
        while not line.endswith(b"\n"):
            line = stream.readline(limit)
            if line == b"":
                return b""
        return None

    def _shutdown_sockets(self) -> Dict[socket.socket, threading.Thread]:
        """Close the listener and shut every open connection down; returns
        the connections with their threads.

        A blocked ``accept`` or ``readline`` returns; a request still
        running finds its socket dead when it replies.  Connections are
        shut under the lock, so none is shut after its thread closed it.
        """
        listener, self._listener = self._listener, None
        if listener is not None:
            with contextlib.suppress(OSError):
                listener.shutdown(socket.SHUT_RDWR)
            listener.close()
        with self._lock:
            for conn in self._connections:
                with contextlib.suppress(OSError):  # the peer already left
                    conn.shutdown(socket.SHUT_RDWR)
            return dict(self._connections)

    def _crash(self) -> None:
        """Hard-stop serving: abort every connection, close the listener.

        ``stop()`` still works afterwards, but no request gets a response
        and new connections are refused — the crash signature failover
        probes for.
        """
        self.crashed = True
        self._shutdown_sockets()
        runtime.event("serve.crashed", server=self.name)

    def _dispatch(self, session: Session, request: Dict[str, Any]) -> Dict[str, Any]:
        handlers = {
            "ping": lambda: {"pong": True, "session": session.name},
            "close": lambda: {"closing": True},
            "query": lambda: self._run_query(session, request),
            "epochs": self.warehouse.epochs.verify,
            "stats": lambda: {"metrics": runtime.get_registry().to_json()},
            "status": self._status,
            "promote": lambda: self._run_promote(request),
            "ship": lambda: self._run_ship(request),
        }
        # Any other op decode_line let through is a write (protocol.WRITE_OPS).
        run = handlers.get(request["op"], lambda: self._run_write(request))
        return {"id": request.get("id"), "ok": True, **run()}

    # -- replication role ----------------------------------------------------

    @property
    def _is_stale_replica(self) -> bool:
        return self.replica is not None and not self.replica.is_primary

    def _status(self) -> Dict[str, Any]:
        if self.replica is not None:
            return self.replica.status()
        return {
            "replica": self.name,
            "applied": self.warehouse.epochs.latest_epoch,
            "primary": True,
            "diverged": None,
        }

    def _run_promote(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self.replica is None:
            return self._status()  # idempotent: already the primary
        with runtime.get_tracer().span(
            "replica.promote", parent_context=protocol.trace_context(request),
            replica=self.name,
        ):
            return self.replica.promote()

    def _run_ship(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self.replica is None:
            raise ReplicationError(
                f"server {self.name!r} is not a replica; nothing accepts "
                "shipped records here"
            )
        from repro.replicate.wal import EpochRecord

        record = EpochRecord.from_dict(dict(request.get("record") or {}))
        with runtime.get_tracer().span(
            "replica.apply", parent_context=protocol.trace_context(request),
            replica=self.name, epoch=record.epoch, op=record.op,
        ):
            return self.replica.apply(record)

    def _run_query(
        self, session: Session, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        sql = request.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise ProtocolError("query op needs a non-empty 'sql' string")
        options = self._query_options(request.get("options", {}))
        hold_ms = float(request.get("hold_ms", 0.0))
        with self._lock:
            if self._inflight >= self.max_queue:
                runtime.get_registry().counter(
                    "repro_serve_admission_rejections_total",
                    help="Queries rejected because the admission queue was full",
                ).inc()
                raise BackpressureError(
                    f"admission queue full ({self._inflight}/{self.max_queue} "
                    "in flight); retry later"
                )
            self._inflight += 1
            self._set_gauges()
        started = time.perf_counter()
        failed = True
        try:
            with runtime.get_tracer().span(
                "serve.query", parent_context=protocol.trace_context(request),
                session=session.name, sql=sql,
            ) as span:
                result = self.warehouse.query(
                    sql, session=session.name, hold_ms=hold_ms, **options
                )
                span.set(epoch=result.epoch)
                if span.sampled and result.trace_id is None:
                    # Tracing is on but the engine did not stamp an id (e.g.
                    # a snapshot warehouse without a slow-query log): the
                    # serving span's trace is still the right link target.
                    result.trace_id = span.trace_id
            failed = False
        finally:
            with self._lock:
                self._inflight -= 1
                self._set_gauges()
            registry = runtime.get_registry()
            registry.histogram(
                "repro_serve_query_seconds",
                help="Serving-tier query wall time (admission to response)",
            ).observe(time.perf_counter() - started)
            # Total and failed queries as counters: a scraper of /metrics
            # derives the error rate over whatever window it keeps.
            registry.counter(
                "repro_serve_queries_total",
                help="Queries admitted by the serving tier",
            ).inc()
            if failed:
                registry.counter(
                    "repro_serve_query_errors_total",
                    help="Admitted queries that raised instead of answering",
                ).inc()
        payload = {**protocol.result_payload(result), "session": session.name}
        if self._is_stale_replica:
            # Degraded mode: the replica serves its last replicated epoch;
            # the flag tells clients the answer may trail the (dead) primary.
            payload["stale"] = True
        return payload

    @staticmethod
    def _query_options(raw: Any) -> Dict[str, Any]:
        """Check a request's ``options`` before the query is admitted.

        Anything but an object of known query options with values inside
        their domains is a protocol error — including ``session`` and
        ``hold_ms``, which are the server's to set.
        """
        if not isinstance(raw, dict):
            raise ProtocolError(
                f"query 'options' must be a JSON object, got {type(raw).__name__}"
            )
        try:
            QueryOptions.build(raw)
        except PlanError as exc:
            raise ProtocolError(f"bad query options: {exc}") from None
        return raw

    def _run_write(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request["op"]
        # The commit listener (the replica shipper) runs on this thread
        # inside the write, so ship/ack spans nest under serve.write and
        # the whole commit → replica path shares one trace id.
        with runtime.get_tracer().span(
            "serve.write", parent_context=protocol.trace_context(request),
            op=op, server=self.name,
        ) as span:
            payload = self._write_inner(op, request)
            span.set(epoch=payload.get("epoch"))
            if span.sampled:
                payload["trace_id"] = span.trace_id
            return payload

    def _write_inner(self, op: str, request: Dict[str, Any]) -> Dict[str, Any]:
        if self._is_stale_replica:
            # Fail fast: writes against an unpromoted replica would fork
            # history the moment the primary comes back.
            raise NotPrimaryError(
                f"server {self.name!r} is an unpromoted replica "
                f"(applied epoch {self.warehouse.epochs.latest_epoch}); "
                "writes go to the primary"
            )
        try:
            args = decode_args(request.get("args"))
            bind_op(op, args)
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"bad {op} args: {exc}") from None
        getattr(self.warehouse, op)(**args)
        return {"epoch": self.warehouse.epochs.latest_epoch}

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ServeServer":
        """Bind the listener and start accepting; returns self, with the
        concrete port (for ``port=0`` binds) on ``.port``."""
        if self._acceptor is not None:
            raise ServeError("server already started")
        try:
            listener = socket.create_server((self.host, self.port))
        except OSError as exc:
            raise ServeError(f"server failed to bind: {exc}") from None
        self._listener = listener
        self.port = listener.getsockname()[1]
        self._acceptor = threading.Thread(
            target=self._accept_loop, args=(listener,),
            name=f"repro-serve-{self.name}-accept", daemon=True,
        )
        self._acceptor.start()
        return self

    def stop(self, *, timeout: float = 10.0) -> None:
        """Close the listener, shut down open connections (e.g. clients of
        a crashed server that never sent ``close``), join every thread."""
        self._shutdown_sockets()
        if self._acceptor is not None:
            self._acceptor.join(timeout)
            self._acceptor = None
        # Again, now that no connection can be added: one the acceptor took
        # while the listener closed is registered by now.
        for thread in self._shutdown_sockets().values():
            thread.join(timeout)

    def __enter__(self) -> "ServeServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

