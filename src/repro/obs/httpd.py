"""Ops endpoint: a stdlib HTTP server exposing metrics, health and traces.

:class:`OpsServer` wraps :class:`http.server.ThreadingHTTPServer` and
serves exactly three routes:

* ``GET /metrics``   — Prometheus text exposition of the registry;
* ``GET /healthz``   — JSON health: serve role, per-replica lag,
  quarantine/divergence and buffer-pool pressure, with 200 when healthy
  and 503 when degraded;
* ``GET /trace/<id>`` — the exported span tree for one trace id (404
  when the tracer has no spans for it).

Every other path is a 404.  ``repro serve --ops-port`` runs it beside
the serving tier.  Everything is read-only and stdlib-only; the request
threads only take snapshots (``registry.to_prometheus()``,
``tracer.trace_tree()``) so they never block the serve path.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = ["OpsServer"]


class OpsServer:
    """The ops HTTP endpoint; bind with ``port=0`` for an ephemeral port.

    ``registry``/``tracer`` default to the process-global runtime objects
    at *request* time, so an OpsServer started before ``runtime.use(...)``
    still sees whatever is installed when the scrape arrives.  ``health``
    is an optional callable returning extra health fields (the serve tier
    passes its ``_status`` payload).
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Any] = None,
        health: Optional[Callable[[], Dict[str, Any]]] = None,
    ) -> None:
        self.host = host
        self._port = port
        self._registry = registry
        self._tracer = tracer
        self.health = health
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self) -> int:
        if self._httpd is not None:
            return self._httpd.server_address[1]
        return self._port

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> "OpsServer":
        if self._httpd is not None:
            return self
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((self.host, self._port), handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-ops-httpd",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        httpd, self._httpd = self._httpd, None
        thread, self._thread = self._thread, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "OpsServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- view helpers (also used by tests, no HTTP required) -----------------

    def registry(self) -> MetricsRegistry:
        if self._registry is not None:
            return self._registry
        from repro.obs import runtime

        return runtime.get_registry()

    def tracer(self) -> Any:
        if self._tracer is not None:
            return self._tracer
        from repro.obs import runtime

        return runtime.get_tracer()

    def healthz(self) -> Dict[str, Any]:
        """The health document; ``status`` is ``"ok"`` or ``"degraded"``.

        Degraded when the health probe fails, the role payload reports
        divergence/quarantine, or the buffer pool is past its budget — the
        conditions an operator must act on, as opposed to load signals
        (lag, queue depth) which are reported but do not flip the status.
        """
        registry = self.registry()
        doc: Dict[str, Any] = {"status": "ok"}
        degraded = []

        role: Dict[str, Any] = {}
        if self.health is not None:
            try:
                role = dict(self.health() or {})
            except Exception as exc:  # health probe itself failing is news
                role = {"error": str(exc)}
                degraded.append("health_probe")
        doc["role"] = role
        if role.get("diverged"):
            degraded.append("diverged")
        if role.get("quarantined"):
            degraded.append("quarantined")

        lag = {
            dict(inst.labels).get("replica", ""): inst.value
            for inst in registry.instruments()
            if inst.name == "repro_replica_lag_epochs"
        }
        doc["replica_lag_epochs"] = lag

        occupancy = registry.value("repro_buffer_pool_occupancy_bytes")
        budget = registry.value("repro_buffer_pool_budget_bytes")
        pressure = (occupancy / budget) if budget else 0.0
        doc["buffer_pool"] = {
            "occupancy_bytes": occupancy,
            "budget_bytes": budget,
            "pressure": round(pressure, 4),
        }
        if pressure > 1.0:
            degraded.append("buffer_pool_over_budget")

        if degraded:
            doc["status"] = "degraded"
            doc["degraded"] = degraded
        return doc

    def trace(self, trace_id: str) -> Optional[Dict[str, Any]]:
        tracer = self.tracer()
        if not getattr(tracer, "enabled", False):
            return None
        if trace_id not in tracer.trace_ids():
            return None
        return tracer.trace_tree(trace_id)


def _make_handler(ops: OpsServer):
    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-ops/1.0"

        def log_message(self, fmt: str, *args: Any) -> None:
            pass  # ops scrapes should not spam stderr

        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            try:
                self._route()
            except (BrokenPipeError, ConnectionResetError):
                pass
            except Exception as exc:  # never kill the listener thread
                try:
                    self._send_json({"error": str(exc)}, status=500)
                except Exception:
                    pass

        def _route(self) -> None:
            path = self.path.split("?", 1)[0].rstrip("/") or "/"
            if path == "/metrics":
                body = ops.registry().to_prometheus()
                self._send(
                    body.encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif path == "/healthz":
                doc = ops.healthz()
                status = 200 if doc["status"] == "ok" else 503
                self._send_json(doc, status=status)
            elif path.startswith("/trace/"):
                trace_id = path[len("/trace/"):]
                doc = ops.trace(trace_id)
                if doc is None:
                    self._send_json(
                        {"error": f"unknown trace {trace_id!r}"}, status=404
                    )
                else:
                    self._send_json(doc)
            else:
                self._send_json(
                    {"error": f"no such endpoint {path!r}"}, status=404
                )

        def _send_json(self, doc: Dict[str, Any], status: int = 200) -> None:
            body = json.dumps(doc, indent=2, default=str).encode("utf-8")
            self._send(body, "application/json", status=status)

        def _send(
            self, body: bytes, content_type: str, status: int = 200
        ) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

    return Handler
