"""Asyncio serving front end with per-connection sessions and admission control.

:class:`ServeServer` accepts newline-delimited-JSON connections (see
:mod:`repro.serve.protocol`) over a :class:`~repro.serve.concurrent.
ConcurrentWarehouse`.  Design points:

* **Per-connection sessions.**  Each connection is a :class:`Session`,
  whose name tags its queries' spans and pins.
* **Admission control.**  At most ``max_queue`` queries may be in flight
  (executing or waiting for a worker thread) across all sessions; the
  next query is rejected immediately with ``BackpressureError`` rather
  than queued unboundedly.  Rejections are counted in
  ``repro_serve_admission_rejections_total``.
* **The event loop never blocks.**  Queries and writes run on a worker
  thread pool via ``run_in_executor``; reads pin their epoch inside the
  worker (through ``ConcurrentWarehouse.query``), so a slow query holds
  its snapshot — never the loop, never the writers.
* **Thread-hosted or native.**  ``start()``/``stop()`` host the loop on a
  background thread (handy for synchronous tests and the CLI);
  ``serve_async()`` integrates with a caller-owned loop.  Binding
  ``port=0`` picks an ephemeral port, published as ``.port`` — tests can
  run in parallel without collisions.

Observability: gauges ``repro_serve_active_sessions`` and
``repro_serve_queue_depth``, histogram ``repro_serve_query_seconds``, and
a ``serve.query`` span per query (session, epoch, sql attributes).
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional

from repro.errors import (
    BackpressureError,
    InjectedFault,
    NotPrimaryError,
    PlanError,
    ProtocolError,
    ReplicationError,
    ServeError,
)
from repro.serve import protocol
from repro.serve.concurrent import ConcurrentWarehouse
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
        workers: worker threads executing queries and writes.
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
        workers: int = 4,
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
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._inflight = 0  # event-loop-confined; no lock needed
        self._sessions = 0
        self._writers: set = set()  # loop-confined open connections
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()

    # -- metrics helpers -----------------------------------------------------

    @staticmethod
    def _registry():
        from repro.obs import runtime

        return runtime.get_registry()

    def _set_gauges(self) -> None:
        registry = self._registry()
        registry.gauge(
            "repro_serve_active_sessions",
            help="Open serving-tier connections",
        ).set(float(self._sessions))
        registry.gauge(
            "repro_serve_queue_depth",
            help="Queries currently admitted (executing or queued)",
        ).set(float(self._inflight))

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session = Session()
        self._sessions += 1
        self._writers.add(writer)
        self._set_gauges()
        try:
            while not self.crashed:
                try:
                    line = await self._read_line(reader)
                except ConnectionError:
                    break
                if line == b"":
                    break
                if line is not None and line.strip() == b"":
                    continue
                request_id = None
                try:
                    from repro.faults import injector

                    if line is None:
                        raise ProtocolError(
                            f"request line exceeds {protocol.MAX_LINE_BYTES} bytes"
                        )

                    # The primary_crash fault site: the process "dies"
                    # mid-dispatch — every connection is aborted with no
                    # response, exactly what clients of a crashed primary
                    # observe (ServeConnectionError), and the listener
                    # stops accepting.
                    injector.check("primary", self.name)
                    request = protocol.decode_line(line)
                    request_id = request.get("id")
                    response = await self._dispatch(session, request)
                    response.setdefault("id", request_id)
                    # Encoded inside the try: a payload the encoder rejects
                    # is one more failure to report, not the handler's end.
                    encoded = protocol.encode_line(response)
                except InjectedFault:
                    self._crash()
                    return
                except Exception as exc:  # every failure -> error response
                    response = protocol.error_response(exc, request_id)
                    encoded = protocol.encode_line(response)
                writer.write(encoded)
                try:
                    await writer.drain()
                except ConnectionError:
                    break
                if response.get("closing"):
                    break
        finally:
            self._sessions -= 1
            self._writers.discard(writer)
            self._set_gauges()
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> Optional[bytes]:
        """The next request line; ``b""`` at end of stream, ``None`` for a
        line longer than the reader's limit (``protocol.MAX_LINE_BYTES``).

        An over-long line is read off the stream and dropped, piece by
        piece, up to its newline, so the caller can answer it with one
        ``ProtocolError`` and the next line starts where it should.
        (``StreamReader.readline`` would raise ``ValueError`` and leave the
        rest of the line to be read as further requests.)
        """
        too_long = False
        while True:
            try:
                line = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as exc:
                return b"" if too_long else exc.partial
            except asyncio.LimitOverrunError as exc:
                too_long = True
                await reader.readexactly(exc.consumed)
                continue
            return None if too_long else line

    def _crash(self) -> None:
        """Hard-stop serving: abort every connection, close the listener.

        Runs on the event loop.  The hosting thread's loop keeps running
        (so ``stop()`` still works) but no request gets a response and new
        connections are refused — the crash signature failover probes for.
        """
        self.crashed = True
        if self._server is not None:
            self._server.close()
        for w in list(self._writers):
            transport = w.transport
            if transport is not None:
                transport.abort()
        from repro.obs import runtime

        runtime.event("serve.crashed", server=self.name)

    async def _dispatch(
        self, session: Session, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        op = request["op"]
        request_id = request.get("id")
        ok: Dict[str, Any] = {"id": request_id, "ok": True}
        if op == "ping":
            return {**ok, "pong": True, "session": session.name}
        if op == "close":
            return {**ok, "closing": True}
        if op == "query":
            return {**ok, **await self._run_query(session, request)}
        if op == "epochs":
            report = self.warehouse.epochs.verify()
            return {**ok, **report}
        if op == "stats":
            return {**ok, "metrics": self._registry().to_json()}
        if op == "status":
            return {**ok, **self._status()}
        if op == "promote":
            return {**ok, **await self._run_promote(request)}
        if op == "ship":
            return {**ok, **await self._run_ship(request)}
        # Remaining ops are writes: serialized by the warehouse's write
        # lock, run off-loop so a refresh cannot stall other sessions.
        return {**ok, **await self._run_write(request)}

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

    async def _run_promote(
        self, request: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        if self.replica is None:
            return self._status()  # idempotent: already the primary
        ctx = protocol.trace_context(request or {})

        def promote():
            from repro.obs import runtime

            tracer = runtime.get_tracer()
            if not tracer.enabled:
                return self.replica.promote()
            with tracer.span(
                "replica.promote", parent_context=ctx, replica=self.name
            ):
                return self.replica.promote()

        return await asyncio.get_running_loop().run_in_executor(
            self._pool, promote
        )

    async def _run_ship(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self.replica is None:
            raise ReplicationError(
                f"server {self.name!r} is not a replica; nothing accepts "
                "shipped records here"
            )
        from repro.replicate.wal import EpochRecord

        record = EpochRecord.from_dict(dict(request.get("record") or {}))
        ctx = protocol.trace_context(request)

        def apply():
            from repro.obs import runtime

            tracer = runtime.get_tracer()
            if not tracer.enabled:
                return self.replica.apply(record)
            with tracer.span(
                "replica.apply", parent_context=ctx, replica=self.name,
                epoch=record.epoch, op=record.op,
            ):
                return self.replica.apply(record)

        return await asyncio.get_running_loop().run_in_executor(
            self._pool, apply
        )

    async def _run_query(
        self, session: Session, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        sql = request.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise ProtocolError("query op needs a non-empty 'sql' string")
        options = self._query_options(request.get("options", {}))
        hold_ms = float(request.get("hold_ms", 0.0))
        if self._inflight >= self.max_queue:
            self._registry().counter(
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
            result = await asyncio.get_running_loop().run_in_executor(
                self._pool,
                functools.partial(
                    self._query_on_worker,
                    session,
                    sql,
                    hold_ms,
                    options,
                    protocol.trace_context(request),
                ),
            )
            failed = False
        finally:
            self._inflight -= 1
            self._set_gauges()
            registry = self._registry()
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

    def _query_on_worker(self, session, sql, hold_ms, options, ctx=None):
        from repro.obs import runtime

        with runtime.get_tracer().span(
            "serve.query", parent_context=ctx, session=session.name, sql=sql
        ) as span:
            result = self.warehouse.query(
                sql,
                session=session.name,
                hold_ms=hold_ms,
                **options,
            )
            span.set(epoch=result.epoch)
            if span.sampled and result.trace_id is None:
                # Tracing is on but the engine did not stamp an id (e.g. a
                # snapshot warehouse without a slow-query log): the serving
                # span's trace is still the right link target.
                result.trace_id = span.trace_id
            return result

    async def _run_write(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request["op"]
        call = functools.partial(self._write_on_worker, op, request)
        return await asyncio.get_running_loop().run_in_executor(self._pool, call)

    def _write_on_worker(self, op: str, request: Dict[str, Any]) -> Dict[str, Any]:
        from repro.obs import runtime

        tracer = runtime.get_tracer()
        if not tracer.enabled:
            return self._write_inner(op, request)
        # The commit listener (the replica shipper) runs on this thread
        # inside the write, so ship/ack spans nest under serve.write and
        # the whole commit → replica path shares one trace id.
        with tracer.span(
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
        wh = self.warehouse

        def need(field: str):
            value = request.get(field)
            if value is None:
                raise ProtocolError(f"{op} op needs {field!r}")
            return value

        if op == "refresh":
            wh.refresh_view(need("view"))
        elif op == "update":
            wh.update_measure(
                need("table"),
                keys=dict(need("keys")),
                value_col=need("value_col"),
                new_value=float(need("new_value")),
            )
        elif op == "insert_row":
            wh.insert_row(need("table"), list(need("values")))
        elif op == "delete_row":
            wh.delete_row(need("table"), keys=dict(need("keys")))
        else:  # unreachable: decode_line validated op
            raise ProtocolError(f"unhandled op {op!r}")
        return {"epoch": wh.epochs.latest_epoch}

    # -- lifecycle -----------------------------------------------------------

    async def serve_async(self) -> asyncio.AbstractServer:
        """Bind and start serving on the running loop; returns the server.

        The concrete port (for ``port=0`` binds) is published on ``.port``
        before this returns.
        """
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self._server

    async def close_async(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def start(self, *, timeout: float = 10.0) -> "ServeServer":
        """Host the event loop on a background thread; returns self.

        Blocks until the listening socket is bound (so ``.port`` is valid).
        """
        if self._thread is not None:
            raise ServeError("server already started")
        ready = threading.Event()
        failure: Dict[str, BaseException] = {}

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                loop.run_until_complete(self.serve_async())
            except BaseException as exc:  # bind failure -> surface in start()
                failure["exc"] = exc
                ready.set()
                return
            ready.set()
            try:
                loop.run_forever()
            finally:
                loop.run_until_complete(self.close_async())
                loop.close()
                self._stopped.set()

        self._thread = threading.Thread(
            target=run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not ready.wait(timeout):
            raise ServeError("server did not start in time")
        if "exc" in failure:
            self._thread.join()
            self._thread = None
            raise ServeError(f"server failed to bind: {failure['exc']}")
        return self

    def stop(self, *, timeout: float = 10.0) -> None:
        """Stop the background-thread loop and release the worker pool.

        Lingering connections (e.g. clients of a crashed server that never
        sent ``close``) are aborted first so their handler tasks finish
        before the loop stops.
        """
        if self._loop is not None and self._thread is not None:
            loop = self._loop

            def shutdown() -> None:
                for w in list(self._writers):
                    transport = w.transport
                    if transport is not None:
                        transport.abort()
                # One beat for the aborted handlers to unwind, then stop.
                loop.call_later(0.05, loop.stop)

            self._loop.call_soon_threadsafe(shutdown)
            self._thread.join(timeout)
            self._thread = None
            self._loop = None
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ServeServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
