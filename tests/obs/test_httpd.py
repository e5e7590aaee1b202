"""Ops endpoint: /metrics, /healthz, /trace/<id> over real HTTP, and 404
for every other path."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.httpd import OpsServer
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.serve.server import ServeServer
from tests.serve.conftest import build_concurrent

pytestmark = pytest.mark.serve


def get(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=10) as resp:
            return resp.status, resp.read().decode("utf-8"), dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8"), dict(exc.headers)


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def tracer():
    return Tracer()


@pytest.fixture
def ops(registry, tracer):
    with OpsServer(registry=registry, tracer=tracer) as server:
        yield server


@pytest.fixture
def base(ops):
    return f"http://{ops.address}"


class TestMetrics:
    def test_metrics_exposition(self, registry, base):
        registry.counter("repro_test_total", help="A test counter").inc(3)
        status, body, headers = get(base, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "# TYPE repro_test_total counter" in body
        assert "repro_test_total 3" in body

    def test_unknown_path_is_404(self, base):
        status, _, _ = get(base, "/nope")
        assert status == 404

    @pytest.mark.parametrize("path", ["/slo", "/traces", "/"])
    def test_only_three_routes_are_served(self, base, path):
        status, body, _ = get(base, path)
        assert status == 404
        assert json.loads(body)["error"].startswith("no such endpoint")


class TestHealthz:
    def test_healthy_by_default(self, base):
        status, body, _ = get(base, "/healthz")
        doc = json.loads(body)
        assert status == 200
        assert doc["status"] == "ok"
        assert "buffer_pool" in doc

    def test_reports_replica_lag_gauges(self, registry, base):
        registry.gauge(
            "repro_replica_lag_epochs", {"replica": "r1"}
        ).set(4)
        _, body, _ = get(base, "/healthz")
        assert json.loads(body)["replica_lag_epochs"] == {"r1": 4}

    def test_buffer_pool_over_budget_degrades(self, registry, base):
        registry.gauge("repro_buffer_pool_occupancy_bytes").set(2048)
        registry.gauge("repro_buffer_pool_budget_bytes").set(1024)
        status, body, _ = get(base, "/healthz")
        doc = json.loads(body)
        assert status == 503
        assert doc["status"] == "degraded"
        assert "buffer_pool_over_budget" in doc["degraded"]
        assert doc["buffer_pool"]["pressure"] == 2.0

    def test_diverged_role_degrades(self, registry, tracer):
        health = lambda: {"replica": "r1", "diverged": "digest mismatch"}
        with OpsServer(registry=registry, tracer=tracer, health=health) as ops:
            status, body, _ = get(f"http://{ops.address}", "/healthz")
        doc = json.loads(body)
        assert status == 503
        assert "diverged" in doc["degraded"]
        assert doc["role"]["replica"] == "r1"

    def test_failing_health_probe_degrades_not_crashes(self, registry, tracer):
        def health():
            raise RuntimeError("probe exploded")

        with OpsServer(registry=registry, tracer=tracer, health=health) as ops:
            status, body, _ = get(f"http://{ops.address}", "/healthz")
        assert status == 503
        assert "health_probe" in json.loads(body)["degraded"]

    def test_serve_tier_status_is_the_role(self, registry, tracer):
        # The wiring of ``repro serve --ops-port``.
        with ServeServer(build_concurrent()) as server, OpsServer(
            registry=registry, tracer=tracer, health=server._status
        ) as ops:
            status, body, _ = get(f"http://{ops.address}", "/healthz")
        doc = json.loads(body)
        assert status == 200
        assert doc["status"] == "ok"
        assert doc["role"]["primary"] is True
        assert doc["role"]["applied"] == server.warehouse.epochs.latest_epoch
        assert "slo" not in doc


class TestTrace:
    def test_trace_endpoint_serves_span_tree(self, tracer, base):
        with tracer.span("root") as root:
            trace_id = root.trace_id
            with tracer.span("child"):
                pass
        status, body, _ = get(base, f"/trace/{trace_id}")
        doc = json.loads(body)
        assert status == 200
        assert doc["connected"] is True
        assert doc["span_count"] == 2
        assert doc["roots"][0]["name"] == "root"
        assert doc["roots"][0]["children"][0]["name"] == "child"

    def test_unknown_trace_is_404(self, base):
        status, _, _ = get(base, "/trace/deadbeef")
        assert status == 404


class TestLifecycle:
    def test_ephemeral_port_and_restartable_stop(self, registry):
        server = OpsServer(registry=registry).start()
        port = server.port
        assert port > 0
        server.stop()
        server.stop()  # idempotent

    def test_start_is_idempotent(self, ops):
        assert ops.start() is ops
