"""Distributed tracing acceptance: one trace across client, server, engine
and replica shipping.

A query issued through ``ServeClient`` against a primary with one replica
must yield ONE trace id whose exported span tree connects the client send
to the engine spans; a write's trace must additionally cover the ship →
replica-apply hop over a real socket.
"""

from __future__ import annotations

import pytest

from repro.obs import runtime
from repro.obs.trace import Tracer
from repro.replicate import RemoteLink, Replica, Shipper
from repro.serve import ConcurrentWarehouse
from repro.serve.client import ServeClient
from repro.serve.server import ServeServer
from repro.warehouse import sequence_values

pytestmark = pytest.mark.serve

QUERY = (
    "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING "
    "AND 2 FOLLOWING) AS w FROM seq ORDER BY pos"
)


@pytest.fixture
def tracer():
    tracer = Tracer()
    with runtime.use(tracer=tracer):
        yield tracer


@pytest.fixture
def cluster(tracer):
    """Primary serve server + one replica-role server fed by a shipper."""
    replica = Replica(name="replica-1")
    replica_server = ServeServer(replica=replica, name="replica-1").start()
    primary = ConcurrentWarehouse()
    shipper = Shipper(
        primary,
        [RemoteLink("127.0.0.1", replica_server.port, name="replica-1")],
    )
    primary.create_table(
        "seq", [("pos", "INTEGER"), ("val", "FLOAT")], primary_key=["pos"]
    )
    primary.insert(
        "seq",
        [(i + 1, v) for i, v in enumerate(sequence_values(60, seed=3))],
    )
    primary_server = ServeServer(primary, name="primary").start()
    try:
        yield primary_server, replica, shipper
    finally:
        primary_server.stop()
        replica_server.stop()
        primary.release()


def span_names(tracer, trace_id):
    return {s.name for s in tracer.spans_for(trace_id)}


def assert_connected(tracer, trace_id):
    tree = tracer.trace_tree(trace_id)
    assert tree["connected"], (
        f"trace {trace_id} disconnected: "
        f"{[r['name'] for r in tree['roots']]}"
    )
    assert len(tree["roots"]) == 1
    return tree


class TestQueryTrace:
    def test_query_through_client_yields_one_connected_trace(
        self, tracer, cluster
    ):
        primary_server, _replica, _shipper = cluster
        with ServeClient(port=primary_server.port) as client:
            response = client.query(QUERY)
        trace_id = response["trace_id"]
        assert trace_id, "response must carry the trace id"
        assert len(response["rows"]) == 60

        tree = assert_connected(tracer, trace_id)
        assert tree["roots"][0]["name"] == "client.request"
        names = span_names(tracer, trace_id)
        # Client send -> serve dispatch -> engine.
        for expected in ("client.request", "serve.query", "warehouse.query",
                         "window.evaluate"):
            assert expected in names, f"missing span {expected!r} in {names}"
        # Every span in the tree shares the one trace id.
        assert {s.trace_id for s in tracer.spans_for(trace_id)} == {trace_id}

    def test_two_queries_get_distinct_traces(self, tracer, cluster):
        primary_server, _replica, _shipper = cluster
        with ServeClient(port=primary_server.port) as client:
            first = client.query(QUERY)["trace_id"]
            second = client.query(QUERY)["trace_id"]
        assert first != second
        assert_connected(tracer, first)
        assert_connected(tracer, second)

    def test_slow_query_log_links_the_trace(self, tracer, cluster):
        primary_server, _replica, _shipper = cluster
        slowlog = primary_server.warehouse.warehouse.enable_slow_query_log(
            threshold_ms=0.0
        )
        with ServeClient(port=primary_server.port) as client:
            trace_id = client.query(QUERY)["trace_id"]
        linked = [e for e in slowlog.entries()
                  if e.get("trace_id") == trace_id]
        assert linked, "slow-query entry must carry the query's trace id"


class TestWriteTrace:
    def test_write_trace_covers_ship_and_replica_apply(self, tracer, cluster):
        primary_server, replica, _shipper = cluster
        with ServeClient(port=primary_server.port) as client:
            response = client.write(
                "update_measure", table="seq", keys={"pos": 5}, value_col="val",
                new_value=1.25,
            )
        trace_id = response["trace_id"]
        assert trace_id
        assert replica.applied_epoch == response["epoch"]

        assert_connected(tracer, trace_id)
        names = span_names(tracer, trace_id)
        for expected in ("client.request", "serve.write", "replicate.ship",
                         "replica.apply"):
            assert expected in names, f"missing span {expected!r} in {names}"
        ship = next(s for s in tracer.spans_for(trace_id)
                    if s.name == "replicate.ship")
        assert ship.attributes.get("acked") is True


class TestSamplingAcrossTheWire:
    def test_unsampled_client_context_records_no_server_spans(self, cluster):
        primary_server, _replica, _shipper = cluster
        tracer = Tracer(sample_rate=0.0)
        with runtime.use(tracer=tracer):
            with ServeClient(port=primary_server.port) as client:
                response = client.query(QUERY)
        assert response.get("trace_id") is None
        assert tracer.spans() == []

    def test_tracing_off_serves_normally(self, cluster):
        from repro.obs.trace import NULL_TRACER

        primary_server, _replica, _shipper = cluster
        # The surrounding fixture installed a tracer; this request runs
        # with the null tracer, exercising the tracing-off fast path.
        with runtime.use(tracer=NULL_TRACER):
            with ServeClient(port=primary_server.port) as client:
                response = client.query(QUERY)
        assert response.get("trace_id") is None
        assert len(response["rows"]) == 60
