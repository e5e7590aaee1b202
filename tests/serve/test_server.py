"""Serving front-end tests: protocol, sessions, backpressure, faults.

All servers bind ephemeral ports (``port=0``), so these tests are safe to
run in parallel.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.errors import (
    BackpressureError,
    ProtocolError,
    ReproError,
    ServeConnectionError,
    SessionKilledError,
)
from repro.faults import FaultPlan, FaultSpec, injector
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.server import ServeServer

from tests.serve.conftest import QUERY, build_concurrent

pytestmark = pytest.mark.serve


@pytest.fixture
def server():
    cw = build_concurrent()
    with ServeServer(cw, max_queue=2) as srv:
        yield srv


@pytest.fixture
def client(server):
    with ServeClient(port=server.port) as c:
        yield c


# -- protocol unit tests ------------------------------------------------------


def test_decode_rejects_garbage():
    with pytest.raises(ProtocolError):
        protocol.decode_line(b"not json\n")
    with pytest.raises(ProtocolError):
        protocol.decode_line(b"[1,2]\n")
    with pytest.raises(ProtocolError):
        protocol.decode_line(b'{"op":"bogus"}\n')


def test_exception_mapping_round_trip():
    exc = protocol.exception_for(
        {"type": "BackpressureError", "message": "full"}
    )
    assert isinstance(exc, BackpressureError)
    assert exc.remote_type == "BackpressureError" and str(exc) == "full"
    fallback = protocol.exception_for({"type": "NoSuchClass", "message": "x"})
    assert type(fallback) is ReproError


def test_unknown_remote_error_type_keeps_its_name():
    """A newer server's error class must stay recognisable on an older
    client, e.g. in a shipper's ``last_error``."""
    exc = protocol.exception_for(
        {"type": "FutureDivergenceError", "message": "replica diverged at epoch 9"}
    )
    assert type(exc) is ReproError
    assert exc.remote_type == "FutureDivergenceError"
    assert str(exc) == "FutureDivergenceError: replica diverged at epoch 9"
    # What Shipper records for a failed link.
    assert "FutureDivergenceError" in f"{type(exc).__name__}: {exc}"


# -- basic ops over the wire --------------------------------------------------


def test_ping_and_session_identity(server):
    with ServeClient(port=server.port) as a, ServeClient(port=server.port) as b:
        assert a.ping() != b.ping()  # distinct sessions per connection


def test_query_round_trip(client):
    result = client.query(QUERY)
    assert result["columns"] == ["pos", "w"]
    assert len(result["rows"]) == 50
    assert result["epoch"] >= 1
    assert result["rewrite"]  # answered via the materialized view


def test_set_op_is_unknown_and_the_session_keeps_serving(client):
    """There is no per-session config: an old client's ``set`` gets the
    unknown-op ``ProtocolError`` reply, and its session keeps serving."""
    session = client.ping()
    with pytest.raises(ProtocolError, match="unknown op 'set'"):
        client.call("set", config={"jobs": 2})
    assert client.ping() == session
    result = client.query(QUERY)
    assert len(result["rows"]) == 50 and result["rewrite"]


def test_query_requires_sql(client):
    with pytest.raises(ProtocolError):
        client.call("query")


@pytest.mark.parametrize("options", [
    {"mode": "bogus"},
    {"variant": "bogus"},
    {"algorithm": "bogus"},
    {"window_strategy": "bogus"},
    {"use_index": "bogus"},
    {"planner": "cost"},      # removed keyword
    {"config": {"jobs": 64}},  # removed keyword
    {"session": "someone-else"},
])
def test_bad_query_options_are_protocol_errors(server, client, options):
    """Rejected at the door: typed on the client, named in the message, and
    neither admitted, answered from base data nor logged as an incident."""
    with pytest.raises(ProtocolError) as exc:
        client.query(QUERY, **options)
    (name,) = options
    assert name in str(exc.value)
    assert server.warehouse.incidents == []
    assert client.query(QUERY)["rewrite"]  # the connection is still good


def test_hold_ms_is_not_a_query_option(client):
    with pytest.raises(ProtocolError, match="hold_ms"):
        client.call("query", sql=QUERY, options={"hold_ms": 5})


@pytest.mark.parametrize("options", [["mode", "memory"], "memory", 3, None])
def test_non_object_options_are_protocol_errors(client, options):
    with pytest.raises(ProtocolError, match="JSON object"):
        client.call("query", sql=QUERY, options=options)


def test_valid_query_options_reach_the_planner(client):
    by_view = client.query(QUERY, mode="memory", algorithm="auto")
    native = client.query(QUERY, use_views=False)
    assert by_view["rewrite"] and native["rewrite"] is None
    assert [r[0] for r in by_view["rows"]] == [r[0] for r in native["rows"]]


def test_writes_publish_epochs(client):
    before = client.query(QUERY)
    e1 = client.update_measure(
        "seq", keys={"pos": 5}, value_col="val", new_value=777.0
    )
    e2 = client.refresh("mv")
    assert e2 > e1
    after = client.query(QUERY)
    assert after["epoch"] == e2
    assert after["rows"] != before["rows"]
    e3 = client.insert_row("seq", [51, 1.5])
    e4 = client.delete_row("seq", keys={"pos": 51})
    assert e4 > e3 > e2


def test_epochs_and_stats_ops(client):
    client.query(QUERY)
    report = client.epochs()
    assert report["clean"] and report["pinned"] == []
    metrics = client.stats()
    assert isinstance(metrics, dict)


def test_unknown_table_error_surfaces_as_repro_error(client):
    with pytest.raises(ReproError):
        client.query("SELECT pos FROM nope")
    assert client.ping()  # connection survives the failed op


# -- admission control --------------------------------------------------------


def test_backpressure_rejects_cleanly(server):
    holders = [ServeClient(port=server.port) for _ in range(server.max_queue)]
    threads = [
        threading.Thread(target=h.query, args=(QUERY,), kwargs={"hold_ms": 700})
        for h in holders
    ]
    for t in threads:
        t.start()
    try:
        import time

        time.sleep(0.25)  # let the held queries occupy every slot
        with ServeClient(port=server.port) as probe:
            with pytest.raises(BackpressureError):
                probe.query(QUERY)
            # non-query ops are never subject to query admission
            assert probe.ping()
    finally:
        for t in threads:
            t.join()
        for h in holders:
            h.close()
    with ServeClient(port=server.port) as probe:
        assert probe.query(QUERY)["rows"]  # slots free again
    assert server.warehouse.epochs.verify()["clean"]


# -- snapshot isolation through the server ------------------------------------


def test_held_query_is_isolated_from_concurrent_refresh(server):
    """A query holding its pin while a refresh commits answers at its own
    epoch, identical to a pre-refresh read."""
    with ServeClient(port=server.port) as a, ServeClient(port=server.port) as b:
        before = a.query(QUERY)
        held = {}

        def hold() -> None:
            held.update(a.query(QUERY, hold_ms=600))

        t = threading.Thread(target=hold)
        t.start()
        import time

        time.sleep(0.2)  # the held query has pinned by now
        b.update_measure("seq", keys={"pos": 8}, value_col="val",
                         new_value=-42.0)
        epoch_after = b.refresh("mv")
        t.join()
        assert held["epoch"] == before["epoch"] < epoch_after
        assert held["rows"] == before["rows"]
        assert b.query(QUERY)["rows"] != before["rows"]
        assert b.epochs()["clean"]


@pytest.mark.faults
def test_session_kill_over_the_wire(server):
    with ServeClient(port=server.port) as victim:
        name = victim.ping()
        plan = FaultPlan([FaultSpec("session_kill", target=name)])
        with injector.active(plan):
            with pytest.raises(SessionKilledError):
                victim.query(QUERY)
            with ServeClient(port=server.port) as other:
                assert other.query(QUERY)["rows"]  # others keep working
        assert plan.fired_count("session_kill") == 1
        report = victim.epochs()  # the killed connection is still usable
        assert report["clean"] and report["pinned"] == []


# -- raw protocol ---------------------------------------------------------------


def test_pipelined_refresh_during_held_read_over_raw_sockets(server):
    """Drive the protocol over raw sockets: a query holding its pin on one
    connection answers at its own epoch, byte for byte, while an update and
    a refresh pipelined on a second connection commit mid-flight."""

    def connect():
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=10)
        return sock, sock.makefile("rwb")

    def call(stream, **fields):
        stream.write(protocol.encode_line(fields))
        stream.flush()
        return protocol.read_reply(stream)

    sock, stream = connect()
    sock2, stream2 = connect()
    try:
        before = call(stream, op="query", sql=QUERY)
        held = {}
        t = threading.Thread(target=lambda: held.update(
            call(stream, op="query", sql=QUERY, hold_ms=400)))
        t.start()
        time.sleep(0.15)  # the held query has pinned by now
        # Both requests are written before either reply is read.
        stream2.write(protocol.encode_line(
            {"op": "update_measure", "args": {"table": "seq", "keys": {"pos": 6},
             "value_col": "val", "new_value": 3.25}}
        ))
        stream2.write(protocol.encode_line(
            {"op": "refresh_view", "args": {"name": "mv"}}))
        stream2.flush()
        updated = protocol.read_reply(stream2)
        refreshed = protocol.read_reply(stream2)
        t.join(10)
        assert not t.is_alive()
        assert held["ok"] and before["ok"] and updated["ok"] and refreshed["ok"]
        assert held["epoch"] == before["epoch"]
        # Raw protocol: the encoded columns are equal iff the bits are.
        assert held["data"] == before["data"]
        assert held["buffers"] == before["buffers"]
        assert refreshed["epoch"] > updated["epoch"] > before["epoch"]
        after = call(stream, op="query", sql=QUERY)
        assert after["epoch"] == refreshed["epoch"]
        assert after["buffers"] != before["buffers"]
    finally:
        for s in (stream, sock, stream2, sock2):
            s.close()
    assert server.warehouse.epochs.verify()["clean"]


# -- lifecycle ------------------------------------------------------------------


@pytest.mark.faults
@pytest.mark.parametrize("crash", [False, True], ids=["stop", "crash-then-stop"])
def test_no_thread_or_socket_outlives_stop(crash):
    """``stop()`` joins every thread the server started and leaves no
    listener, whatever its connections were doing: one mid-``hold_ms``
    query, one idle client that never sent ``close``, and one that sent
    half a request line and vanished.  After a ``primary_crash`` too."""
    before = set(threading.enumerate())
    server = ServeServer(build_concurrent(), max_queue=4).start()
    port = server.port
    idle, holder, vanished = (
        socket.create_connection(("127.0.0.1", port), timeout=10)
        for _ in range(3))
    streams = [sock.makefile("rwb") for sock in (idle, holder)]
    idle_stream, holder_stream = streams

    def send(stream, **request):
        stream.write(protocol.encode_line(request))
        stream.flush()

    held = []
    client_thread = threading.Thread(
        target=lambda: held.append(holder_stream.readline()))
    try:
        send(idle_stream, op="ping", id=1)
        assert json.loads(idle_stream.readline())["ok"]
        vanished.sendall(b'{"op": "ping", "id": ')
        send(holder_stream, op="query", sql=QUERY, hold_ms=500, id=2)
        client_thread.start()
        time.sleep(0.15)  # the held query has pinned by now
        if crash:
            plan = FaultPlan([FaultSpec("primary_crash", target="primary")])
            with injector.active(plan), socket.create_connection(
                    ("127.0.0.1", port), timeout=10) as victim:
                victim.sendall(protocol.encode_line({"op": "ping", "id": 3}))
                assert victim.recv(1) == b""  # closed with no reply
            assert server.crashed and plan.fired_count("primary_crash") == 1
        server.stop()
        started = set(threading.enumerate()) - before - {client_thread}
        assert started == set()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", port), timeout=5).close()
        client_thread.join(10)
        assert not client_thread.is_alive()
        # The held query's connection was shut down before it could answer.
        assert held == [b""]
        assert idle_stream.readline() == b""
    finally:
        server.stop()
        for f in (*streams, idle, holder, vanished):
            f.close()


def test_client_close_after_the_server_stopped():
    """``close()`` on a connection the server already dropped neither
    raises nor leaks the socket."""
    server = ServeServer(build_concurrent(rows=10)).start()
    client = ServeClient(port=server.port)
    try:
        assert client.ping()
        server.stop()
        with pytest.raises(ServeConnectionError):
            client.ping()
        client.close()
        assert client._sock.fileno() == -1
        client.close()  # a second close is a no-op
    finally:
        server.stop()
        client._sock.close()


def test_timed_out_client_closes_its_socket():
    """A reply that outlasts the client's timeout leaves the stream out of
    step: the client raises ``ServeConnectionError`` and closes itself."""
    with ServeServer(build_concurrent(rows=10)) as server:
        client = ServeClient(port=server.port, timeout=0.3)
        try:
            with pytest.raises(ServeConnectionError):
                client.query(QUERY, hold_ms=1500)
            assert client._sock.fileno() == -1
            with pytest.raises(ServeConnectionError):
                client.ping()  # not read as the held query's late reply
        finally:
            client.close()


def test_reply_with_another_requests_id_is_a_protocol_error():
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def answer_with_id_7():
        conn, _ = listener.accept()
        with conn, conn.makefile("rwb") as stream:
            stream.readline()
            stream.write(protocol.encode_line(
                {"id": 7, "ok": True, "pong": True, "session": "session-0"}))
            stream.flush()
            stream.readline()

    thread = threading.Thread(target=answer_with_id_7, daemon=True)
    thread.start()
    try:
        with ServeClient(port=port, timeout=5.0) as client:
            with pytest.raises(ProtocolError, match="7"):
                client.ping()
            assert client._sock.fileno() == -1
    finally:
        listener.close()
        thread.join(5)
    assert not thread.is_alive()


def test_ephemeral_ports_do_not_collide():
    cw1, cw2 = build_concurrent(rows=10), build_concurrent(rows=10)
    with ServeServer(cw1) as s1, ServeServer(cw2) as s2:
        assert s1.port != s2.port
        with ServeClient(port=s1.port) as a, ServeClient(port=s2.port) as b:
            assert a.query(QUERY)["rows"] == b.query(QUERY)["rows"]
