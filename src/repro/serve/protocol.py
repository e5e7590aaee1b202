"""Wire protocol of the serving tier: newline-delimited JSON.

One request per line, one response per line, UTF-8.  Every request is a
JSON object with an ``op`` field and an optional client-chosen ``id``
(echoed verbatim in the response, so a client may pipeline).  Every
response carries ``ok``; failures carry ``error = {type, message}`` where
``type`` is the :mod:`repro.errors` class name (clients re-raise the
matching exception — see :mod:`repro.serve.client`).

Operations::

    {"op": "ping"}                                   -> {"ok": true, "pong": true}
    {"op": "query", "sql": ..., "options": {...},
     "hold_ms": 0}                                   -> {"ok": true, "columns": [...],
                                                         "types": [...], "nrows": n,
                                                         "data": [<column>, ...],
                                                         "epoch": N, "rewrite": ...}
    {"op": "refresh", "view": name}
    {"op": "update", "table": ..., "keys": {...},
     "value_col": ..., "new_value": ...}
    {"op": "insert_row", "table": ..., "values": [...]}
    {"op": "delete_row", "table": ..., "keys": {...}}
    {"op": "epochs"}                                 -> epoch-store verify() report
    {"op": "stats"}                                  -> metrics-registry snapshot
    {"op": "ship", "record": {...}}                  -> replica applies one epoch record
    {"op": "promote"}                                -> replica accepts the primary role
    {"op": "status"}                                 -> {replica, applied, primary, diverged}
    {"op": "close"}                                  -> server closes the connection

Query replies carry the answer as typed columns, one ``data`` entry per
name in ``columns`` (``types`` are the engine type names), in the one
encoding of :mod:`repro.columns.codec`::

    <column> := {"kind": "int64" | "float64" | "bool",
                 "b64": <base64 of the little-endian buffer>,
                 "valid": <base64 packed validity bitmap, bit set = present;
                           omitted when no value is NULL>}
              | {"kind": "object", "values": [...]}   # TEXT, DATE ({"$date": iso}),
                                                      # INTEGERs beyond int64

Floats are bit-exact because they are not text: NaN, ±inf, −0.0 and
subnormals arrive as the eight bytes they are.  There is no row-array
form and nothing to negotiate; :class:`~repro.serve.client.ServeClient`
decodes the columns with ``numpy.frombuffer`` and offers rows as a
sequence over them.

A request line may be up to :data:`MAX_LINE_BYTES` long; a longer one is
discarded up to its newline and answered with a ``ProtocolError`` response
(``id`` null), and the connection stays usable.

Replication: a server hosting a replica role answers ``ship`` (apply one
:class:`~repro.replicate.wal.EpochRecord`), ``promote`` and ``status``;
write ops against an unpromoted replica fail with ``NotPrimaryError`` and
its query responses carry ``"stale": true`` (last-replicated-epoch reads
during failover).

Backpressure: when the bounded admission queue is full a ``query`` is
*rejected immediately* with ``error.type == "BackpressureError"`` — the
client is expected to retry with backoff; nothing is silently queued
beyond the configured depth.

Trace context: any request may carry an optional
``"trace": {"traceparent": "00-<trace32>-<span16>-<flags>"}`` field (the
W3C traceparent layout, see :mod:`repro.obs.context`).  The server adopts
it as the remote parent of the spans it opens for that request, so one
trace id covers client send → serve.query/serve.write → engine spans →
replica ship/ack.  Query responses echo the serving span's ``trace_id``
(``None`` when tracing is off), which is also stamped onto
``QueryResult`` and slow-query-log entries.  Malformed trace fields are
ignored, never fatal.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro import errors as _errors
from repro.columns import ColumnRows, decode_column, encode_column
from repro.errors import ProtocolError, ReproError

__all__ = [
    "MAX_LINE_BYTES",
    "OPS",
    "decode_line",
    "decode_result",
    "encode_line",
    "error_response",
    "exception_for",
    "result_payload",
    "trace_context",
]

OPS = (
    "ping",
    "query",
    "refresh",
    "update",
    "insert_row",
    "delete_row",
    "epochs",
    "stats",
    "ship",
    "promote",
    "status",
    "close",
)

# Maximum accepted request line (1 MiB) — a defensive bound so a broken
# client cannot balloon server memory with an unterminated line.  The
# server's line reader enforces it.
MAX_LINE_BYTES = 1 << 20


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one request line into a validated op dict."""
    try:
        request = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"malformed request line: {exc}") from None
    if not isinstance(request, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(request).__name__}"
        )
    op = request.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {OPS}")
    return request


def encode_line(payload: Dict[str, Any]) -> bytes:
    """Serialize one response object to a wire line."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def error_response(
    exc: BaseException, request_id: Optional[Any] = None
) -> Dict[str, Any]:
    """Build the failure response for an exception."""
    return {
        "id": request_id,
        "ok": False,
        "error": {"type": type(exc).__name__, "message": str(exc)},
    }


def exception_for(error: Dict[str, Any]) -> ReproError:
    """Client side: rebuild the exception named by an error response.

    Unknown type names degrade to the base :class:`ReproError` so a newer
    server never crashes an older client — with the remote name kept, as
    a message prefix and as ``remote_type`` (set on every rebuilt error).
    """
    name, message = str(error.get("type")), error.get("message", "server error")
    cls = getattr(_errors, name, None)
    if not (isinstance(cls, type) and issubclass(cls, ReproError)):
        cls, message = ReproError, f"{name}: {message}"
    exc = cls(message)
    exc.remote_type = name
    return exc


def result_payload(result) -> Dict[str, Any]:
    """Encode a :class:`~repro.warehouse.warehouse.QueryResult` for the wire.

    The answer travels column by column (see the module doc); a result
    that holds columns is encoded from them without building a row.
    """
    info = getattr(result, "rewrite", None)
    data = result.as_columns()
    return {
        "columns": result.schema.names(),
        "types": [column.type.name for column in result.schema],
        "nrows": len(data),
        "data": [encode_column(column) for column in data.columns],
        "epoch": getattr(result, "epoch", None),
        "rewrite": info.description if info is not None else None,
        "trace_id": getattr(result, "trace_id", None),
    }


def decode_result(response: Dict[str, Any]) -> None:
    """Client side: decode a query reply's columns in place.

    ``data`` becomes ``{name: Column}`` and ``rows`` a
    :class:`~repro.columns.ColumnRows` over the same columns that yields
    lists.  The reply is input from outside the client, so anything that
    is not what :func:`result_payload` writes is a :class:`ProtocolError`.
    """
    names, entries, nrows = (
        response.get("columns"), response.get("data"), response.get("nrows")
    )
    if (
        not isinstance(names, list)
        or not isinstance(entries, list)
        or len(names) != len(entries)
        or not isinstance(nrows, int)
        or isinstance(nrows, bool)
        or nrows < 0
    ):
        raise ProtocolError(
            "malformed query reply: needs 'columns' and 'data' of one length "
            "and a row count 'nrows'"
        )
    try:
        columns = [decode_column(entry, nrows) for entry in entries]
    except ValueError as exc:
        raise ProtocolError(f"malformed query reply: {exc}") from None
    response["data"] = dict(zip(map(str, names), columns))
    response["rows"] = ColumnRows(columns, nrows, row_type=list)


def trace_context(request: Dict[str, Any]):
    """Decode a request's optional trace field into a TraceContext (or None).

    Garbage — wrong types, malformed traceparent — decodes to ``None``; a
    broken client must not be able to crash the dispatch loop.
    """
    from repro.obs.context import TraceContext

    return TraceContext.from_dict(request.get("trace"))
