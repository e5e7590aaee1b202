"""Process-global observability runtime: the active tracer and registry.

Every instrumented layer asks this module for the current
:class:`~repro.obs.trace.Tracer` and :class:`~repro.obs.metrics.MetricsRegistry`
instead of holding its own reference, so

* the default is always the shared :data:`~repro.obs.trace.NULL_TRACER`
  (tracing off ⇒ near-zero overhead), and
* tests and the CLI can swap a real tracer/registry in for one scope via
  :func:`use` and assert exact emissions.

The *registry* default is a real (cheap) :class:`MetricsRegistry`, not a
null object: counters are a few nanoseconds and ``repro stats`` must work
without any prior opt-in.

Publication discipline (prevents double counting, see DESIGN.md §5f):
:func:`publish_stats` adds one query's :class:`ExecutionStats` counters to
the global registry, and is called exactly once per stats block — by
whoever created it: ``Database.run`` for its own blocks,
``ExecutorPool.close()`` when the pool owns its stats.  Callers that
received a stats block never publish it.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer

__all__ = [
    "get_tracer",
    "get_registry",
    "set_tracer",
    "set_registry",
    "use",
    "event",
    "current_context",
    "publish_stats",
]

_tracer = NULL_TRACER
_registry = MetricsRegistry()


def get_tracer():
    """The active tracer (the shared null tracer unless one is installed)."""
    return _tracer


def get_registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _registry


def set_tracer(tracer) -> None:
    """Install a tracer process-wide (``None`` restores the null tracer)."""
    global _tracer
    _tracer = tracer if tracer is not None else NULL_TRACER


def set_registry(registry: Optional[MetricsRegistry]) -> None:
    """Install a registry process-wide (``None`` installs a fresh one)."""
    global _registry
    _registry = registry if registry is not None else MetricsRegistry()


@contextlib.contextmanager
def use(
    tracer: Optional[Tracer] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[None]:
    """Install a tracer and/or registry for the dynamic extent of a block."""
    global _tracer, _registry
    prev_tracer, prev_registry = _tracer, _registry
    if tracer is not None:
        _tracer = tracer
    if registry is not None:
        _registry = registry
    try:
        yield
    finally:
        _tracer, _registry = prev_tracer, prev_registry


def event(name: str, **attributes) -> None:
    """Emit an event on the current span (no-op when tracing is off)."""
    tracer = _tracer
    if tracer.enabled:
        tracer.event(name, **attributes)


def current_context():
    """The active span's :class:`~repro.obs.context.TraceContext`, or None
    (tracing off, or no span open on this thread)."""
    tracer = _tracer
    if not tracer.enabled:
        return None
    return tracer.current_context()


def publish_stats(stats, registry: Optional[MetricsRegistry] = None) -> None:
    """Add one owned ExecutionStats block's counters to the global registry.

    Every counter is touched, zeros included, so the full ``repro_engine_*``
    name set is exposed from the first query on.
    """
    target = registry if registry is not None else _registry
    for metric, value in stats.metric_values():
        target.counter(metric).inc(value)
