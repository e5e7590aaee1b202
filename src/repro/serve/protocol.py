"""Wire protocol of the serving tier: JSON request lines, framed replies.

One request per line, UTF-8 JSON.  Every request is a JSON object with
an ``op`` field and an optional client-chosen ``id`` (echoed verbatim in
the response, so a client may pipeline).  Every reply is a *frame*: a
header line — one JSON object, UTF-8, newline-terminated (``json.dumps``
never writes a raw newline) — followed by the raw column buffers the
header declares, if any.  Only a successful query reply declares
buffers, so every other reply (``ping``, writes, ``ship``, ``status``,
errors) is exactly its header line.  Every header carries ``ok``;
failures carry ``error = {type, message}`` where ``type`` is the
:mod:`repro.errors` class name (clients re-raise the matching exception
— see :mod:`repro.serve.client`).

Operations::

    {"op": "ping"}                                   -> {"ok": true, "pong": true}
    {"op": "query", "sql": ..., "options": {...},
     "hold_ms": 0}                                   -> {"ok": true, "columns": [...],
                                                         "types": [...], "nrows": n,
                                                         "data": [<column>, ...],
                                                         "epoch": N, "rewrite": ...}
    {"op": "refresh_view", "args": {"name": ...}}   -> {"ok": true, "epoch": N}
    {"op": "update_measure", "args": {"table": ..., "keys": {...},
     "value_col": ..., "new_value": ...}}
    {"op": "insert_row", "args": {"table": ..., "values": [...]}}
    {"op": "delete_row", "args": {"table": ..., "keys": {...}}}
    {"op": "epochs"}                                 -> epoch-store verify() report
    {"op": "stats"}                                  -> metrics-registry snapshot
    {"op": "ship", "record": {...}}                  -> replica applies one epoch record
    {"op": "promote"}                                -> replica accepts the primary role
    {"op": "status"}                                 -> {replica, applied, primary, diverged}
    {"op": "close"}                                  -> server closes the connection

A write op (:data:`WRITE_OPS`) names a ``DataWarehouse`` method and
``args`` holds its keyword arguments, encoded by
:func:`repro.replicate.wal.encode_args` (dates as ``{"$date": iso}``): the
same pair the write-ahead log records.  A missing ``args``, one that is not
an object or one that does not bind to the method is a ``ProtocolError``,
answered before the write starts.

Query replies carry the answer as typed columns, one ``data`` entry per
name in ``columns`` (``types`` are the engine type names), in the one
encoding of :mod:`repro.columns.codec`::

    <column> := {"kind": "int64" | "float64" | "bool",
                 "nbytes": <bytes of the little-endian data buffer>,
                 "vbytes": <bytes of the packed validity bitmap, bit set =
                            present; omitted when no value is NULL>}
              | {"kind": "object", "values": [...]}   # TEXT, DATE ({"$date": iso}),
                                                      # INTEGERs beyond int64

    <query reply> := <header line> <buffers>
    <buffers>     := for each fixed-width column in order: its data buffer,
                     then its validity bitmap if the entry declares one

Floats are bit-exact because they are not text: NaN, ±inf, −0.0 and
subnormals arrive as the eight bytes they are.  There is no row-array
form and nothing to negotiate.  A reader checks every declared length
against ``nrows`` and the entry's kind before it reads a byte of the
buffers (:func:`read_reply`); :class:`~repro.serve.client.ServeClient`
then wraps the columns with ``numpy.frombuffer`` and offers rows as a
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
from typing import Any, BinaryIO, Dict, List, Optional, Tuple

from repro import errors as _errors
from repro.columns import ColumnRows, buffer_sizes, decode_column, encode_column
from repro.errors import ProtocolError, ReproError

__all__ = [
    "MAX_LINE_BYTES",
    "OPS",
    "WRITE_OPS",
    "decode_line",
    "decode_result",
    "encode_line",
    "error_response",
    "exception_for",
    "read_reply",
    "result_payload",
    "trace_context",
]

#: The write ops, a subset of the warehouse's logged ops
#: (:data:`repro.serve.concurrent.LOGGED_OPS`).
WRITE_OPS = ("refresh_view", "update_measure", "insert_row", "delete_row")

OPS = (
    "ping",
    "query",
    *WRITE_OPS,
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

# A reply's column buffers are read at most this many bytes at a time, so
# what a reader allocates follows the bytes that arrive, not the lengths a
# header declares.
READ_CHUNK_BYTES = 1 << 20


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
    """Serialize one message: its JSON line, then the raw column buffers a
    query reply holds under ``"buffers"`` (see :func:`result_payload`).

    Without ``"buffers"`` this is exactly the message's JSON line.
    """
    buffers = payload.get("buffers")
    if buffers is None:
        return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")
    header = {key: value for key, value in payload.items() if key != "buffers"}
    line = (json.dumps(header, separators=(",", ":")) + "\n").encode("utf-8")
    return b"".join([line, *buffers])


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

    The answer travels column by column (see the module doc): the column
    entries in the header, the buffers under ``"buffers"`` for
    :func:`encode_line` to write after it.  A result that holds columns is
    encoded from them without building a row.
    """
    info = getattr(result, "rewrite", None)
    data = result.as_columns()
    entries: List[Dict[str, Any]] = []
    buffers: List[Any] = []
    for column in data.columns:
        entry, raw = encode_column(column)
        entries.append(entry)
        buffers.extend(raw)
    return {
        "columns": result.schema.names(),
        "types": [column.type.name for column in result.schema],
        "nrows": len(data),
        "data": entries,
        "epoch": getattr(result, "epoch", None),
        "rewrite": info.description if info is not None else None,
        "trace_id": getattr(result, "trace_id", None),
        "buffers": buffers,
    }


def _query_header(reply: Dict[str, Any]) -> Tuple[List[Any], List[Any], int]:
    names, entries, nrows = reply.get("columns"), reply.get("data"), reply.get("nrows")
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
    return names, entries, nrows


def read_reply(stream: BinaryIO) -> Optional[Dict[str, Any]]:
    """Read one reply frame: its header, with the bytes of the column
    buffers it declares under ``"buffers"`` (undecoded; see
    :func:`decode_result`).  ``None`` at end of stream before a header.

    The buffers follow a header that is ``ok`` and has a ``data`` key.
    Their declared lengths are checked against ``nrows`` and each entry's
    kind before any is read, and they are read in chunks of at most
    :data:`READ_CHUNK_BYTES`.

    Raises:
        ProtocolError: the header is not a JSON object, or the buffer
            lengths it declares cannot be trusted; the stream is then no
            longer in step.
        EOFError: the stream ended inside the frame.
    """
    line = stream.readline()
    if not line:
        return None
    if not line.endswith(b"\n"):
        raise EOFError("the stream ended inside a reply header")
    try:
        reply = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"malformed reply header: {exc}") from None
    if not isinstance(reply, dict):
        raise ProtocolError(
            f"reply header must be a JSON object, got {type(reply).__name__}"
        )
    if reply.get("ok") and "data" in reply:
        _, entries, nrows = _query_header(reply)
        try:
            size = sum(sum(buffer_sizes(entry, nrows)) for entry in entries)
        except ValueError as exc:
            raise ProtocolError(f"malformed query reply: {exc}") from None
        chunks = []
        while size:
            chunk = stream.read(min(size, READ_CHUNK_BYTES))
            if not chunk:
                raise EOFError(f"the stream ended {size} bytes short of a reply")
            chunks.append(chunk)
            size -= len(chunk)
        reply["buffers"] = chunks[0] if len(chunks) == 1 else b"".join(chunks)
    return reply


def decode_result(response: Dict[str, Any]) -> None:
    """Client side: decode a query reply read by :func:`read_reply` in place.

    ``data`` becomes ``{name: Column}`` and ``rows`` a
    :class:`~repro.columns.ColumnRows` over the same columns that yields
    lists; the columns wrap ``"buffers"`` without a copy.  The reply is
    input from outside the client, so anything that is not what
    :func:`result_payload` writes is a :class:`ProtocolError`.
    """
    names, entries, nrows = _query_header(response)
    buffer = response.pop("buffers", b"")
    columns, offset = [], 0
    try:
        for entry in entries:
            columns.append(decode_column(entry, nrows, buffer, offset))
            offset += sum(buffer_sizes(entry, nrows))
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
