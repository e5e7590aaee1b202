"""The wire's writes: ``{"op": <logged op>, "args": {...}}``, the same
(warehouse method, keyword arguments) pair the write-ahead log records.

Each write op answers with the epoch it published; a request whose
``args`` is missing, not an object or does not bind to the method, and a
logged op the wire does not carry, are ``ProtocolError`` replies that
publish nothing.
"""

from __future__ import annotations

import datetime
import socket

import pytest

from repro.errors import ProtocolError
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.concurrent import LOGGED_OPS
from repro.serve.server import ServeServer

from tests.serve.conftest import QUERY, build_concurrent

pytestmark = pytest.mark.serve

WRITES = {
    "update_measure": {"table": "seq", "keys": {"pos": 6}, "value_col": "val",
                       "new_value": 3.25},
    "insert_row": {"table": "seq", "values": [51, 1.5]},
    "delete_row": {"table": "seq", "keys": {"pos": 7}},
    "refresh_view": {"name": "mv"},
}


def test_wire_writes_are_logged_ops():
    assert set(WRITES) == set(protocol.WRITE_OPS) <= LOGGED_OPS


def _raw(port: int, requests):
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        stream = sock.makefile("rwb")
        replies = []
        for request in requests:
            stream.write(protocol.encode_line(request))
            stream.flush()
            replies.append(protocol.read_reply(stream))
        return replies


@pytest.mark.parametrize("op", sorted(WRITES))
def test_raw_write_answers_with_the_new_epoch(op):
    cw = build_concurrent()
    with ServeServer(cw) as server:
        before = cw.epochs.latest_epoch
        (reply,) = _raw(server.port, [{"op": op, "id": 1, "args": WRITES[op]}])
    assert reply["ok"] and reply["id"] == 1, reply
    assert reply["epoch"] == before + 1 == cw.epochs.latest_epoch


@pytest.mark.parametrize("request_", [
    {"op": "update_measure", "table": "seq", "keys": {"pos": 6},
     "value_col": "val", "new_value": 3.25},                       # no args
    {"op": "update_measure", "args": {"table": "seq", "keys": {"pos": 6},
                                      "value_col": "val"}},        # missing
    {"op": "insert_row", "args": {"table": "seq", "values": [52, 1.0],
                                  "view": "mv"}},                  # extra
    {"op": "delete_row", "args": [["table", "seq"]]},             # not an object
    {"op": "insert_row", "args": {"table": "seq",
                                  "values": [52, {"$date": "day 1"}]}},  # undecodable
    {"op": "refresh_view", "args": {"view": "mv"}},               # old name
    {"op": "drop_table", "args": {"name": "seq"}},                # not a wire op
    {"op": "update", "table": "seq", "keys": {"pos": 6},
     "value_col": "val", "new_value": 3.25},                       # old op
])
def test_bad_write_is_a_protocol_error_that_publishes_nothing(request_):
    cw = build_concurrent()
    with ServeServer(cw) as server:
        before = cw.epochs.latest_epoch
        bad, ping = _raw(server.port, [request_, {"op": "ping"}])
    assert not bad["ok"] and bad["error"]["type"] == "ProtocolError", bad
    assert request_["op"] in bad["error"]["message"]
    assert ping["ok"]  # the connection keeps serving
    assert cw.epochs.latest_epoch == before
    assert cw.warehouse.db.catalog.has_table("seq")


def test_client_writes_carry_dates_through_the_codec():
    cw = build_concurrent()
    cw.create_table("events", [("k", "INTEGER"), ("at", "DATE")])
    day = datetime.date(2002, 3, 4)
    with ServeServer(cw) as server, ServeClient(port=server.port) as client:
        epoch = client.insert_row("events", [1, day])
        first = client.query(QUERY)
        assert client.update_measure("seq", keys={"pos": 2}, value_col="val",
                                     new_value=-1.0) == first["epoch"] + 1
        assert client.query(QUERY)["rows"] != first["rows"]
        with pytest.raises(ProtocolError, match="delete_row"):
            client.write("delete_row", table="seq")
    assert epoch == first["epoch"]
    assert list(cw.query("SELECT at FROM events").rows) == [(day,)]
