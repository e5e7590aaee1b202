"""The typed-column wire encoding: round trips, served answers against
embedded ones, hostile reply frames, and the two connection-handler
defects (an unencodable payload, an over-long request line).
"""

from __future__ import annotations

import contextlib
import datetime
import io
import json
import re
import socket
import struct
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.columns import Column
from repro.errors import ProtocolError, ReproError, ServeConnectionError
from repro.relational.engine import Database, Result
from repro.relational.schema import Column as Field
from repro.relational.schema import Schema
from repro.relational.types import type_by_name
from repro.replicate import RemoteLink, Replica, Shipper
from repro.serve import ConcurrentWarehouse, protocol
from repro.serve.client import ServeClient
from repro.serve.server import ServeServer

from tests.serve.conftest import QUERY, build_concurrent

pytestmark = pytest.mark.serve

NAN = float("nan")
INF = float("inf")


def bits(value):
    """A float as its eight bytes (so NaN == NaN and -0.0 != 0.0); other
    values as they are, with their type."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    return (type(value), value)


def row_bits(rows):
    return [[bits(v) for v in row] for row in rows]


def over_the_wire(result):
    """result_payload -> encode_line -> the client's frame reader and decode."""
    frame = protocol.encode_line({"ok": True, **protocol.result_payload(result)})
    stream = io.BytesIO(frame)
    reply = protocol.read_reply(stream)
    assert stream.read() == b""  # the reader took the whole frame, no more
    protocol.decode_result(reply)
    return reply


# -- round trips ----------------------------------------------------------------

FLOATS = [NAN, INF, -INF, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
          sys.float_info.max, -sys.float_info.max, 0.1, None]
INTS = [-(2**63), 2**63 - 1, 0, -1, None]
HUGE = [2**63, -(2**63) - 1, 10**40, 7, None]
BOOLS = [True, False, None]
TEXTS = ['say "hi"', "two\nlines", "tab\tand \\ backslash", "\U0001f600 non-BMP",
         "", None]
DATES = [datetime.date(2002, 2, 26), datetime.date(1, 1, 1), None]

COLUMN_CASES = [
    ("FLOAT", FLOATS, "float64"),
    ("INTEGER", INTS, "int64"),
    ("INTEGER", HUGE, "object"),
    ("BOOLEAN", BOOLS, "bool"),
    ("TEXT", TEXTS, "object"),
    ("DATE", DATES, "object"),
    ("FLOAT", [1.5, 2.5], "float64"),  # no NULL: no validity bitmap
    ("FLOAT", [None, None], "float64"),
]


@pytest.mark.parametrize("type_name, values, kind", COLUMN_CASES)
def test_column_round_trip_is_exact(type_name, values, kind):
    schema = Schema([Field("c", type_by_name(type_name))])
    row_backed = Result(schema, [(v,) for v in values])
    column_backed = Result.from_columns(
        schema, [Column.from_values(values, kind)])
    for result in (row_backed, column_backed):
        payload = protocol.result_payload(result)
        assert "rows" not in payload
        assert payload["data"][0]["kind"] == kind
        assert ("vbytes" in payload["data"][0]) == (
            kind != "object" and None in values)
        reply = over_the_wire(result)
        assert reply["columns"] == ["c"] and reply["types"] == [type_name]
        assert reply["nrows"] == len(values) == len(reply["rows"])
        assert row_bits(reply["rows"]) == row_bits([[v] for v in values])
        assert [bits(v) for v in reply["data"]["c"].to_pylist()] == [
            bits(v) for v in values]


def test_zero_rows_round_trip():
    db = Database()
    db.create_table("t", [("a", "INTEGER"), ("b", "FLOAT"), ("c", "TEXT")])
    reply = over_the_wire(db.sql("SELECT a, b, c FROM t"))
    assert reply["nrows"] == 0 and len(reply["rows"]) == 0
    assert list(reply["rows"]) == [] and reply["columns"] == ["a", "b", "c"]


def test_reply_rows_behave_like_the_lists_json_carried():
    db = Database()
    db.create_table("t", [("a", "INTEGER"), ("b", "FLOAT")])
    db.insert("t", [(1, 0.5), (2, None), (3, 2.5)])
    rows = over_the_wire(db.sql("SELECT a, b FROM t"))["rows"]
    assert len(rows) == 3 and rows[0] == [1, 0.5] and rows[-1] == [3, 2.5]
    assert list(rows) == [[1, 0.5], [2, None], [3, 2.5]]
    assert rows == [[1, 0.5], [2, None], [3, 2.5]] and rows != [[1, 0.5]]
    assert rows == over_the_wire(db.sql("SELECT a, b FROM t"))["rows"]
    import numpy as np

    array = np.asarray(rows, dtype=float)
    assert array.shape == (3, 2) and np.isnan(array[1, 1]) and array[2, 1] == 2.5


# -- served answers equal embedded ones ------------------------------------------

FRAME = "ROWS BETWEEN {} PRECEDING AND {} FOLLOWING"
SEQ = "SELECT pos, {}(val) OVER (ORDER BY pos {}) AS w FROM seq"
TX = "SELECT cust, day, SUM(amt) OVER (PARTITION BY cust ORDER BY day {}) AS w FROM tx"
SCAN_NATIVE_SHAPES = [
    SEQ.format("SUM", FRAME.format(3, 2)),
    SEQ.format("AVG", FRAME.format(5, 5)),
    SEQ.format("COUNT", FRAME.format(2, 2)),
    SEQ.format("MIN", FRAME.format(30, 30)),
    SEQ.format("MAX", FRAME.format(150, 150)),
    SEQ.format("SUM", "ROWS UNBOUNDED PRECEDING"),
    TX.format(FRAME.format(3, 3)),
]
DERIVE_VIEWS_SHAPES = [
    SEQ.format("MAX", FRAME.format(6, 3)),       # MaxOA from the MAX view
    SEQ.format("AVG", FRAME.format(6, 3)),       # SUM and COUNT views combined
    TX.format(FRAME.format(3, 3)),               # sliding from cumulative
    "SELECT day, SUM(amt) OVER (ORDER BY day " + FRAME.format(2, 2) + ") AS w FROM tx",
    SEQ.format("SUM", FRAME.format(4, 2)),       # identity hit
    SEQ.format("SUM", FRAME.format(5, 3)),       # MinOA
]


def build_benchmark_shaped(views: bool) -> ConcurrentWarehouse:
    cw = ConcurrentWarehouse()
    cw.create_table("seq", [("pos", "INTEGER"), ("val", "FLOAT")], primary_key=["pos"])
    cw.insert("seq", [(i, ((i * 37) % 101) / 7.0) for i in range(1, 401)])
    cw.create_table("tx", [("cust", "INTEGER"), ("day", "INTEGER"), ("amt", "FLOAT")],
                    primary_key=["cust", "day"])
    cw.insert("tx", [(c, d, ((c * 13 + d * 7) % 53) / 3.0)
                     for c in range(1, 9) for d in range(1, 21)])
    if views:
        for name, func in (("v_max", "MAX"), ("v_sum", "SUM"), ("v_cnt", "COUNT")):
            cw.create_view(name, SEQ.format(func, FRAME.format(4, 2)))
        cw.create_view("v_txcum", TX.format("ROWS UNBOUNDED PRECEDING"))
    return cw


@pytest.mark.parametrize("views, shapes", [
    (False, SCAN_NATIVE_SHAPES), (True, DERIVE_VIEWS_SHAPES)],
    ids=["scan_native", "derive_views"])
def test_served_answer_equals_embedded_answer(views, shapes):
    cw = build_benchmark_shaped(views)
    with ServeServer(cw) as server, ServeClient(port=server.port) as client:
        for sql in shapes:
            embedded = cw.query(sql)
            served = client.query(sql)
            assert (served["rewrite"] is not None) == views, sql
            assert served["rewrite"] == (
                embedded.rewrite.description if views else None)
            assert served["columns"] == embedded.columns
            assert row_bits(served["rows"]) == row_bits(embedded.rows), sql


# -- a DATE column, and a payload the encoder rejects -------------------------------


def test_served_date_column_returns_dates_and_keeps_the_connection():
    cw = ConcurrentWarehouse()
    cw.create_table("d", [("day", "DATE"), ("v", "FLOAT")])
    days = [datetime.date(2002, 2, 26 + i) for i in range(3)]
    cw.insert("d", [(days[0], 1.0), (days[1], None), (None, 3.0), (days[2], 4.0)])
    with ServeServer(cw) as server, ServeClient(port=server.port) as client:
        reply = client.query("SELECT day, v FROM d")
        assert list(reply["rows"]) == [
            [days[0], 1.0], [days[1], None], [None, 3.0], [days[2], 4.0]]
        assert reply["types"] == ["DATE", "FLOAT"]
        assert client.ping()  # same connection


def test_unencodable_payload_is_an_error_response(monkeypatch):
    real = protocol.result_payload
    monkeypatch.setattr(
        protocol, "result_payload",
        lambda result: {**real(result), "extra": {1, 2, 3}})  # a set: not JSON
    with ServeServer(build_concurrent()) as server, \
            ServeClient(port=server.port) as client:
        with pytest.raises(ReproError, match="not JSON serializable"):
            client.query(QUERY)
        monkeypatch.undo()
        assert client.ping()  # the handler survived, on the same connection
        assert len(client.query(QUERY)["rows"]) == 50


# -- hostile reply frames ------------------------------------------------------------


def good_reply(request_id=1):
    """A reply payload: header fields plus its ``buffers`` (a: 24 bytes,
    b: 24 bytes then a 1-byte bitmap, c: object values, no buffer)."""
    db = Database()
    db.create_table("t", [("a", "INTEGER"), ("b", "FLOAT"), ("c", "TEXT")])
    db.insert("t", [(1, 0.5, "x"), (2, None, "y"), (3, 2.5, None)])
    return {"id": request_id, "ok": True,
            **protocol.result_payload(db.sql("SELECT a, b, c FROM t"))}


GOOD_ROWS = [[1, 0.5, "x"], [2, None, "y"], [3, 2.5, None]]


def good_frame(request_id):
    return protocol.encode_line(good_reply(request_id))


def _set(path, value):
    def mutate(reply):
        target = reply
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return mutate


def _delete(path):
    def mutate(reply):
        target = reply
        for key in path[:-1]:
            target = target[key]
        del target[path[-1]]
    return mutate


def _bool_column_of(raw):
    def mutate(reply):
        reply["data"][0] = {"kind": "bool", "nbytes": len(raw)}
        reply["buffers"][0] = raw
    return mutate


# Header and buffer mutations.  The lengths a header declares decide
# whether the client can find the frame's end: where they can be trusted,
# a bad value leaves the connection in step; where they cannot, the
# client closes its socket.
HOSTILE = {
    "nbytes-truncated": _set(["data", 0, "nbytes"], 21),
    "nbytes-not-an-int": _set(["data", 1, "nbytes"], "24"),
    "nbytes-missing": _delete(["data", 0, "nbytes"]),
    "buffer-too-short": _set(["data", 0, "nbytes"], 16),
    "buffer-not-a-multiple": _set(["data", 0, "nbytes"], 25),
    "short-valid-bitmap": _set(["data", 1, "vbytes"], 0),
    "vbytes-not-an-int": _set(["data", 1, "vbytes"], "!"),
    "kind-length-mismatch": _set(["data", 0, "kind"], "bool"),
    "unknown-kind": _set(["data", 0, "kind"], "float128"),
    "kind-not-a-string": _set(["data", 0, "kind"], ["int64"]),
    "entry-not-an-object": _set(["data", 0], "AAAA"),
    "columns-longer-than-data": _set(["columns"], ["a", "b", "c", "d"]),
    "data-longer-than-columns": _set(["columns"], ["a"]),
    "no-data": _delete(["data"]),
    "nrows-negative": _set(["nrows"], -1),
    "nrows-not-an-int": _set(["nrows"], "3"),
    "nrows-larger-than-buffers": _set(["nrows"], 4),
    "object-values-too-few": _set(["data", 2, "values"], ["x"]),
    "object-values-not-a-list": _set(["data", 2, "values"], "xyz"),
    "bad-date": _set(["data", 2, "values"], [{"$date": "not-a-date"}, "y", None]),
    "date-not-a-string": _set(["data", 2, "values"], [{"$date": 5}, "y", None]),
    "bool-bytes-beyond-0-1": _bool_column_of(b"\x00\x01\x07"),
}
IN_STEP = {"object-values-too-few", "object-values-not-a-list", "bad-date",
           "date-not-a-string", "bool-bytes-beyond-0-1"}


class CannedServer:
    """Answers each request line, on whichever connection asks, with the
    next canned frame: bytes, or a function of the request's id.  A
    connection is closed once the frames run out."""

    def __init__(self, frames):
        self._frames = list(frames)
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(1)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while self._frames:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with conn, conn.makefile("rwb") as stream:
                while self._frames:
                    line = stream.readline()
                    if not line:
                        break
                    frame = self._frames.pop(0)
                    if callable(frame):
                        frame = frame(json.loads(line)["id"])
                    stream.write(frame)
                    stream.flush()

    def close(self):
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)  # wakes a blocked accept
        self._sock.close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_reply_is_a_protocol_error_from_the_client(name):
    reply = good_reply()
    HOSTILE[name](reply)
    canned = CannedServer([protocol.encode_line(reply), good_frame])
    try:
        with ServeClient(port=canned.port, timeout=5.0) as client:
            with pytest.raises(ProtocolError):
                client.query("SELECT a, b, c FROM t")
            if name in IN_STEP:
                # The frame was consumed whole: the connection is still in step.
                assert list(client.query("SELECT a, b, c FROM t")["rows"]) == GOOD_ROWS
            else:
                # No telling where the frame ends: the client closed itself.
                assert client._sock.fileno() == -1
                with pytest.raises(ServeConnectionError):
                    client.ping()
        if name not in IN_STEP:
            with ServeClient(port=canned.port, timeout=5.0) as fresh:
                assert list(fresh.query("SELECT a, b, c FROM t")["rows"]) == GOOD_ROWS
    finally:
        canned.close()


@pytest.mark.parametrize("line", [b"not json\n", b"[1, 2]\n", b'"ok"\n'])
def test_reply_that_is_not_a_json_object_is_a_protocol_error(line):
    canned = CannedServer([line])
    try:
        with ServeClient(port=canned.port, timeout=5.0) as client:
            with pytest.raises(ProtocolError):
                client.ping()
    finally:
        canned.close()


def test_huge_declared_row_count_then_close_raises_without_allocating_it():
    """A header declaring 2**40 float rows (8 TiB of buffer), then the
    server hangs up: the client raises at once, having allocated what
    arrived, not what was declared."""
    header = {"id": 1, "ok": True, "columns": ["w"], "types": ["FLOAT"],
              "nrows": 2**40, "data": [{"kind": "float64", "nbytes": 8 * 2**40}]}
    canned = CannedServer([protocol.encode_line(header)])
    try:
        with ServeClient(port=canned.port, timeout=5.0) as client:
            tracemalloc.start()
            started = time.perf_counter()
            try:
                with pytest.raises(ServeConnectionError):
                    client.query("SELECT w FROM t")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert time.perf_counter() - started < 2.0
            assert peak < 8 << 20
            assert client._sock.fileno() == -1
    finally:
        canned.close()


def test_end_of_stream_inside_the_buffers_is_a_connection_error():
    frame = good_frame(1)
    canned = CannedServer([frame[:-10]])  # 10 bytes short, then hang up
    try:
        with ServeClient(port=canned.port, timeout=5.0) as client:
            with pytest.raises(ServeConnectionError, match="short"):
                client.query("SELECT a, b, c FROM t")
            assert client._sock.fileno() == -1
    finally:
        canned.close()


def test_replies_without_fixed_width_columns_are_one_json_line():
    """Replies to ``ping``, to writes, to errors and to a query with only
    object columns are exactly their JSON line: nothing follows it."""
    cw = build_concurrent()
    cw.create_table("names", [("name", "TEXT")])
    cw.insert("names", [("x",)])
    with ServeServer(cw) as server:
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            stream = sock.makefile("rwb")
            requests = [
                {"op": "ping", "id": 1},
                {"op": "update_measure", "id": 2, "args": {
                    "table": "seq", "keys": {"pos": 3}, "value_col": "val",
                    "new_value": 1.5}},
                {"op": "set", "id": 3},
                {"op": "query", "id": 4, "sql": "SELECT name FROM names"},
                {"op": "ping", "id": 5},
            ]
            for request in requests:
                stream.write(protocol.encode_line(request))
            stream.flush()
            lines = [stream.readline() for _ in requests]
    assert re.fullmatch(
        rb'\{"id":1,"ok":true,"pong":true,"session":"session-\d+"\}\n', lines[0])
    assert re.fullmatch(rb'\{"id":2,"ok":true,"epoch":\d+\}\n', lines[1])
    assert lines[2] == (
        b'{"id":null,"ok":false,"error":{"type":"ProtocolError","message":'
        + json.dumps(f"unknown op 'set'; expected one of {protocol.OPS}").encode()
        + b"}}\n")
    assert re.fullmatch(
        rb'\{"id":4,"ok":true,"columns":\["name"\],"types":\["TEXT"\],"nrows":1,'
        rb'"data":\[\{"kind":"object","values":\["x"\]\}\],"epoch":\d+,'
        rb'"rewrite":null,"trace_id":null,"session":"session-\d+"\}\n', lines[3])
    assert re.fullmatch(
        rb'\{"id":5,"ok":true,"pong":true,"session":"session-\d+"\}\n', lines[4])


# -- request line length ------------------------------------------------------------------


def test_max_line_bytes_is_the_limit_in_force():
    with ServeServer(build_concurrent()) as server, \
            ServeClient(port=server.port) as client:
        # A line of some 200 KB, below MAX_LINE_BYTES: served.
        assert len(client.query(QUERY + " " * 200_000)["rows"]) == 50
        # Above MAX_LINE_BYTES: one typed error (id null), then business as usual.
        with pytest.raises(ProtocolError, match=str(protocol.MAX_LINE_BYTES)):
            client.query(QUERY + " " * (2 * protocol.MAX_LINE_BYTES))
        assert client.ping()
        assert len(client.query(QUERY)["rows"]) == 50


def test_over_long_line_is_answered_once_with_a_null_id():
    with ServeServer(build_concurrent()) as server:
        with socket.create_connection(("127.0.0.1", server.port), timeout=10) as sock:
            stream = sock.makefile("rwb")
            stream.write(b'{"op":"ping","pad":"' + b"x" * (3 << 20) + b'"}\n')
            stream.write(protocol.encode_line({"op": "ping", "id": 2}))
            stream.flush()
            first, second = json.loads(stream.readline()), json.loads(stream.readline())
            assert first["ok"] is False and first["id"] is None
            assert first["error"]["type"] == "ProtocolError"
            assert second["ok"] is True and second["id"] == 2


@pytest.fixture(scope="module")
def hostile_target():
    with ServeServer(build_concurrent()) as server:
        yield server


LONG = protocol.MAX_LINE_BYTES
# A valid request with no trailing newline, then the write side shuts.
REQUEST_TAIL = protocol.encode_line({"op": "query", "sql": QUERY, "id": 99})[:-1]
PIECES = st.one_of(
    st.binary(max_size=48),  # random bytes, newlines included
    st.sampled_from([b"\n", b"\r\n", b"  \t\n"]),  # empty lines
    st.integers(1, 2048).map(lambda n: b"x" * (LONG + n) + b"\n"),  # over-long
    st.just(protocol.encode_line({"op": "ping", "id": 1})),
)
TAILS = st.one_of(
    st.just(b""),
    st.binary(min_size=1, max_size=48).filter(lambda b: b"\n" not in b),
    st.just(REQUEST_TAIL),
)


@settings(max_examples=40, deadline=None)
@given(pieces=st.lists(PIECES, max_size=6), tail=TAILS)
@example(pieces=[], tail=REQUEST_TAIL)
@example(pieces=[b"x" * (LONG + 1) + b"\n", b"\n"], tail=b"")
def test_hostile_request_bytes_get_error_replies_or_a_clean_close(
        hostile_target, pieces, tail):
    """Whatever bytes arrive, each non-blank line gets one reply (an error,
    or the answer to a valid request), the connection then closes cleanly,
    and the server goes on serving."""
    payload = b"".join(pieces) + (b"\n" + tail if tail else b"")
    expected = [line for line in payload.split(b"\n") if line.strip()]
    with socket.create_connection(
            ("127.0.0.1", hostile_target.port), timeout=10) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        with sock.makefile("rb") as stream:
            replies = []
            while (reply := protocol.read_reply(stream)) is not None:  # to a clean EOF
                replies.append(reply)
    assert len(replies) == len(expected)
    for line, reply in zip(expected, replies):
        assert isinstance(reply, dict)
        if len(line) > LONG:
            assert reply["id"] is None
            assert reply["error"]["type"] == "ProtocolError"
        elif not reply["ok"]:
            assert reply["error"]["type"] and reply["error"]["message"]
    if tail == REQUEST_TAIL:
        assert replies[-1]["ok"] and replies[-1]["id"] == 99
        assert replies[-1]["nrows"] == 50
    with ServeClient(port=hostile_target.port) as client:
        assert client.ping()
        assert len(client.query(QUERY)["rows"]) == 50
        assert client.epochs()["clean"]


def test_ship_record_over_64k_reaches_a_replica_server():
    replica = Replica(name="replica")
    with ServeServer(replica=replica, name="replica") as replica_server:
        primary = ConcurrentWarehouse()
        shipper = Shipper(
            primary,
            [RemoteLink("127.0.0.1", replica_server.port, name="replica")],
            min_insync=1,
        )
        try:
            primary.create_table("seq", [("pos", "INTEGER"), ("val", "FLOAT")],
                                 primary_key=["pos"])
            rows = [(i, i * 0.123456789) for i in range(1, 5001)]
            record_line = protocol.encode_line(
                {"op": "ship", "record": {"args": {"rows": rows}}})
            assert len(record_line) > 64 * 1024
            primary.insert("seq", rows)  # one record, one ship line
            assert replica.applied_epoch == primary.epochs.latest_epoch
            assert shipper.lag("replica") == 0
            assert len(replica.warehouse.query("SELECT pos FROM seq")) == 5000
        finally:
            shipper.close()
