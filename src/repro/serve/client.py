"""Blocking client for the serving tier's protocol: JSON request lines,
framed replies.

:class:`ServeClient` is a thin synchronous wrapper over one TCP
connection — one request line out, one reply frame in.  Server-side
failures are re-raised locally as the :mod:`repro.errors` class named in
the error response (``BackpressureError`` for admission rejections,
``SessionKilledError`` for fault-injected kills, ...), so callers handle
remote errors exactly like local ones.

Transport failures — the peer reset the connection, a broken pipe, a
read timeout, the server closing mid-request — are wrapped into the
typed :class:`~repro.errors.ServeConnectionError` carrying the id of the
in-flight request, so retry/failover logic can distinguish "the network
died" from "the server said no" without matching on ``OSError`` strings.

A client that is out of step with its server closes itself: after a
transport failure, a reply frame whose lengths or kinds cannot be trusted,
or a reply that answers another request, the socket is closed and every
later call raises ``ServeConnectionError`` — a half-read frame must never
be taken for the next reply.

Thread-safety: one client drives one connection; share a client across
threads only with external locking.
"""

from __future__ import annotations

import contextlib
import socket
from typing import Any, Dict, Sequence

from repro.errors import ProtocolError, ServeConnectionError
from repro.replicate.wal import encode_args
from repro.serve import protocol

__all__ = ["ServeClient"]


class ServeClient:
    """Synchronous connection to a :class:`~repro.serve.server.ServeServer`."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, *, timeout: float = 30.0
    ) -> None:
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise ServeConnectionError(
                f"cannot connect to {host}:{port}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        self._file = self._sock.makefile("rwb")
        self._next_id = 0

    # -- plumbing ------------------------------------------------------------

    def call(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one op and return its decoded response payload.

        With tracing on, the request runs inside a ``client.request`` span
        and carries that span's context as a W3C-style ``traceparent``
        field — the server parents its own spans under it, so one trace id
        covers the whole client → server → engine path (DESIGN.md §5k).

        Raises:
            ReproError subclass: the exception class named by a failure
                response.
            ServeConnectionError: the connection failed mid-request (reset,
                broken pipe, timeout, or closed without a response), or the
                client was closed; carries the in-flight request id.
            ProtocolError: the reply is not a well-formed frame, or answers
                another request.
        """
        from repro.obs import runtime

        tracer = runtime.get_tracer()
        if not tracer.enabled:
            return self._call(op, fields)
        with tracer.span("client.request", op=op) as span:
            ctx = span.context()
            if ctx is not None and ctx.sampled:
                fields = {**fields, "trace": ctx.to_dict()}
            response = self._call(op, fields)
            if isinstance(response, dict) and response.get("trace_id"):
                span.set(trace_id=response["trace_id"])
            return response

    def _call(self, op: str, fields: Dict[str, Any]) -> Dict[str, Any]:
        self._next_id += 1
        request_id = self._next_id
        if self._sock.fileno() == -1:
            raise ServeConnectionError(
                f"client is closed; {op!r} request {request_id} not sent",
                request_id=request_id,
            )
        request = {"op": op, "id": request_id, **fields}
        try:
            self._file.write(protocol.encode_line(request))
            self._file.flush()
            response = protocol.read_reply(self._file)
            if response is None:
                raise EOFError("the server closed the connection")
            reply_id = response.get("id")
            # An error with a null id answers a request line the server
            # could not read: the one in flight.
            if reply_id != request_id and (reply_id is not None or response.get("ok")):
                raise ProtocolError(
                    f"reply id {reply_id!r} does not answer {op!r} request "
                    f"{request_id}"
                )
            if op == "query" and response.get("ok") and "buffers" not in response:
                raise ProtocolError(
                    "malformed query reply: no 'data', so no telling where "
                    "its frame ends"
                )
        except ProtocolError:
            self._abandon()
            raise
        except (OSError, EOFError) as exc:
            self._abandon()
            raise ServeConnectionError(
                f"connection failed during {op!r} request "
                f"{request_id}: {type(exc).__name__}: {exc}",
                request_id=request_id,
            ) from exc
        if not response.get("ok"):
            raise protocol.exception_for(response.get("error", {}))
        if op == "query":
            # Inside the call, so the caller's clock (and the benchmark's
            # protocol span) sees what reading an answer really costs.  The
            # whole frame is read by now: a bad value leaves the stream in
            # step.
            protocol.decode_result(response)
        return response

    def _abandon(self) -> None:
        """Close the socket of a connection that is out of step."""
        with contextlib.suppress(OSError):  # unsent bytes cannot be flushed
            self._file.close()
        self._sock.close()

    # -- operations ----------------------------------------------------------

    def ping(self) -> str:
        """Round-trip; returns the server-assigned session name."""
        return self.call("ping")["session"]

    def query(
        self, sql: str, *, hold_ms: float = 0.0, **options: Any
    ) -> Dict[str, Any]:
        """Run a SELECT; returns ``{columns, types, nrows, data, rows,
        epoch, rewrite, ...}``.

        ``data`` maps each column name to its decoded
        :class:`~repro.columns.Column`; ``rows`` is a sequence over the
        same columns (``len``, iteration as lists, ``==``,
        ``numpy.asarray``) that builds rows only when asked to.

        Raises:
            ProtocolError: the reply is not a well-formed query reply.
        """
        return self.call("query", sql=sql, hold_ms=hold_ms, options=options)

    def write(self, op: str, **args: Any) -> Dict[str, Any]:
        """Send one write op (a name of ``protocol.WRITE_OPS``) with the
        keyword arguments of the warehouse method of that name; returns
        the reply, whose ``epoch`` is the one the commit published."""
        return self.call(op, args=encode_args(args))

    def refresh(self, view: str) -> int:
        """Refresh a view; returns the epoch the commit published."""
        return self.write("refresh_view", name=view)["epoch"]

    def update_measure(
        self, table: str, *, keys: Dict[str, Any], value_col: str,
        new_value: float,
    ) -> int:
        return self.write(
            "update_measure", table=table, keys=keys, value_col=value_col,
            new_value=new_value,
        )["epoch"]

    def insert_row(self, table: str, values: Sequence[Any]) -> int:
        return self.write("insert_row", table=table, values=list(values))["epoch"]

    def delete_row(self, table: str, *, keys: Dict[str, Any]) -> int:
        return self.write("delete_row", table=table, keys=keys)["epoch"]

    def epochs(self) -> Dict[str, Any]:
        """The server's epoch-store cleanliness report (verify())."""
        return self.call("epochs")

    def ship(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Ship one epoch record to a replica-role server; returns the ack."""
        return self.call("ship", record=record)

    def promote(self) -> Dict[str, Any]:
        """Ask a replica-role server to accept the primary role."""
        return self.call("promote")

    def status(self) -> Dict[str, Any]:
        """Role/lag probe: ``{replica, applied, primary, diverged}``."""
        return self.call("status")

    def stats(self) -> Dict[str, Any]:
        """Snapshot of the server's metrics registry."""
        return self.call("stats")["metrics"]

    def close(self) -> None:
        """Say ``close`` to the server and close the socket, on every path.

        A connection the server already dropped is not an error here.
        """
        if self._sock.fileno() == -1:
            return
        try:
            self.call("close")
        except ServeConnectionError:
            pass  # the server is gone; nothing to say goodbye to
        finally:
            self._abandon()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
