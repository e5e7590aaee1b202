"""Tracing: nested spans with monotonic-clock durations.

A :class:`Tracer` hands out :class:`Span` context managers.  Parent links
come from a per-thread span stack, so the volcano-style pull pipeline —
where a parent operator's generator advances its child's generator — nests
spans exactly as the operators nest.  Span durations are therefore
*inclusive* wall time (everything that happens while the operator is live),
the same convention ``EXPLAIN ANALYZE`` uses in mainstream engines.

Distributed traces (DESIGN.md §5k): every span carries a ``trace_id``
(inherited from its parent; a fresh one per root span) and a globally
unique random ``span_id``, so spans recorded by *different* tracers — a
client process, a serve connection thread — stitch into one tree.  A remote
parent is adopted by passing a :class:`~repro.obs.context.TraceContext` as
``parent_context``.  Sampling is decided once per root span
(``sample_rate``) and propagates with the context; unsampled spans keep
the stack honest but are never recorded.

The default tracer everywhere is :data:`NULL_TRACER`: ``enabled`` is False
and ``span()`` returns a shared do-nothing context manager, so the
instrumented hot paths cost one attribute check when tracing is off (the
bench-smoke gate enforces this stays ≤ a few percent).

Exports: ``to_json()`` (flat span list with parent ids),
``to_chrome_trace()`` (Chrome ``trace_event`` "X" complete events — load
the file in ``chrome://tracing`` / Perfetto), and ``trace_tree()`` (the
nested JSON span tree of one trace id, what ``/trace/<id>`` serves).
"""

from __future__ import annotations

import json
import random
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.context import TraceContext, new_span_id, new_trace_id

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]


class Span:
    """One timed operation: name, attributes, events, parent link."""

    __slots__ = (
        "tracer", "name", "span_id", "parent_id", "trace_id", "sampled",
        "thread_id", "start", "end", "attributes", "events",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: str,
        parent_id: Optional[str],
        attributes: Dict[str, Any],
        *,
        trace_id: str,
        sampled: bool = True,
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.sampled = sampled
        self.thread_id = threading.get_ident()
        self.start = time.perf_counter()
        self.end: Optional[float] = None
        self.attributes = attributes
        self.events: List[Tuple[str, float, Dict[str, Any]]] = []

    # -- mutation ------------------------------------------------------------

    def set(self, **attributes: Any) -> "Span":
        """Attach structured attributes (last write wins per key)."""
        self.attributes.update(attributes)
        return self

    def add_event(self, name: str, **attributes: Any) -> None:
        """Record a point-in-time event inside this span."""
        self.events.append((name, time.perf_counter(), attributes))

    def context(self) -> TraceContext:
        """The propagable identity of this span (see ``repro.obs.context``)."""
        return TraceContext(
            trace_id=self.trace_id, span_id=self.span_id, sampled=self.sampled
        )

    # -- lifecycle -----------------------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.finish()

    def finish(self) -> None:
        if self.end is None:
            self.end = time.perf_counter()
            self.tracer._finish(self)

    @property
    def duration(self) -> float:
        """Seconds from start to finish (to *now* while still open)."""
        return (self.end if self.end is not None else time.perf_counter()) - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "thread_id": self.thread_id,
            "start": self.start,
            "duration": self.duration,
            "attributes": dict(self.attributes),
            "events": [
                {"name": n, "at": t, "attributes": dict(a)}
                for n, t, a in self.events
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, id={self.span_id}, dur={self.duration:.6f})"


class Tracer:
    """Collects finished spans; hands out nested span context managers.

    Args:
        sample_rate: probability that a *root* span (and therefore its
            whole trace) is recorded.  1.0 records everything; 0.0 keeps
            the stack bookkeeping but records nothing.  Non-root spans
            always inherit their parent's decision.
        seed: seeds the sampling RNG for deterministic tests.
    """

    enabled = True

    def __init__(self, *, sample_rate: float = 1.0,
                 seed: Optional[int] = None) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        self.sample_rate = float(sample_rate)
        self._rng = random.Random(seed)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.finished: List[Span] = []
        # Events emitted with no span open (e.g. a fault armed between
        # queries) land here instead of being dropped.
        self.loose_events: List[Tuple[str, float, Dict[str, Any]]] = []
        self._epoch = time.perf_counter()

    # -- span creation -------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(
        self,
        name: str,
        parent_context: Optional[TraceContext] = None,
        **attributes: Any,
    ) -> Span:
        """Open a span; use as a context manager (or call ``finish()``).

        ``parent_context`` adopts a remote parent (a span living in another
        process or thread): the new span joins that trace under that span
        id, inheriting its sampling decision.  An explicit remote parent
        wins over the thread-local stack — it names the *causal* parent
        even when some unrelated span happens to be open locally.  With
        neither, the span roots a brand-new trace and this tracer's
        ``sample_rate`` decides whether the trace is recorded.
        """
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent_context is not None:
            trace_id = parent_context.trace_id
            parent_id = parent_context.span_id
            sampled = parent_context.sampled
        elif parent is not None:
            trace_id = parent.trace_id
            parent_id = parent.span_id
            sampled = parent.sampled
        else:
            trace_id = new_trace_id()
            parent_id = None
            sampled = (
                self.sample_rate >= 1.0
                or self._rng.random() < self.sample_rate
            )
        span = Span(
            self, name, new_span_id(), parent_id, attributes,
            trace_id=trace_id, sampled=sampled,
        )
        stack.append(span)
        return span

    def current_span(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def current_context(self) -> Optional[TraceContext]:
        """The context of the innermost open span on this thread (or None)."""
        span = self.current_span()
        return span.context() if span is not None else None

    def event(self, name: str, **attributes: Any) -> None:
        """Attach an event to the current span (or the loose-event list)."""
        span = self.current_span()
        if span is not None:
            span.add_event(name, **attributes)
        else:
            with self._lock:
                self.loose_events.append((name, time.perf_counter(), attributes))

    def _finish(self, span: Span) -> None:
        stack = self._stack()
        # Tolerate out-of-order finishes (a generator closed early): pop the
        # span wherever it sits instead of corrupting the stack.
        if span in stack:
            while stack and stack[-1] is not span:
                stack.pop()
            if stack:
                stack.pop()
        if not span.sampled:
            return  # unsampled traces keep the stack honest, nothing else
        with self._lock:
            self.finished.append(span)

    # -- queries -------------------------------------------------------------

    def spans(self, name: Optional[str] = None) -> List[Span]:
        with self._lock:
            spans = list(self.finished)
        if name is not None:
            spans = [s for s in spans if s.name == name]
        return spans

    def slowest(self, n: int = 5) -> List[Span]:
        return sorted(self.spans(), key=lambda s: s.duration, reverse=True)[:n]

    def trace_ids(self) -> List[str]:
        """Distinct trace ids in first-seen order."""
        seen: Dict[str, None] = {}
        for span in self.spans():
            if span.trace_id is not None and span.trace_id not in seen:
                seen[span.trace_id] = None
        return list(seen)

    def spans_for(self, trace_id: str) -> List[Span]:
        return [s for s in self.spans() if s.trace_id == trace_id]

    def trace_tree(self, trace_id: str) -> Dict[str, Any]:
        """The nested span tree of one trace (what ``/trace/<id>`` serves).

        ``roots`` holds every span whose parent is not itself part of the
        trace; a *connected* trace has exactly one.
        """
        spans = self.spans_for(trace_id)
        roots, children = _forest(spans)

        def node(span: Span) -> Dict[str, Any]:
            doc = span.to_dict()
            doc["children"] = [
                node(child) for child in children.get(span.span_id, [])
            ]
            return doc

        return {
            "trace_id": trace_id,
            "span_count": len(spans),
            "connected": len(roots) == 1 if spans else False,
            "roots": [node(r) for r in roots],
        }

    # -- exporters -----------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "spans": [s.to_dict() for s in self.spans()],
            "loose_events": [
                {"name": n, "at": t, "attributes": dict(a)}
                for n, t, a in list(self.loose_events)
            ],
        }
        return json.dumps(doc, indent=2, default=str)

    def to_chrome_trace(self) -> str:
        """Chrome ``trace_event`` JSON (complete "X" events, µs timestamps)."""
        events: List[Dict[str, Any]] = []
        for span in self.spans():
            events.append({
                "name": span.name,
                "ph": "X",
                "ts": (span.start - self._epoch) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": span.thread_id % 1_000_000,
                "args": {str(k): str(v) for k, v in span.attributes.items()},
            })
            for name, at, attrs in span.events:
                events.append({
                    "name": name,
                    "ph": "i",
                    "ts": (at - self._epoch) * 1e6,
                    "pid": 1,
                    "tid": span.thread_id % 1_000_000,
                    "s": "t",
                    "args": {str(k): str(v) for k, v in attrs.items()},
                })
        return json.dumps({"traceEvents": events}, default=str)

    def render_tree(self, *, min_duration: float = 0.0) -> str:
        """Indented text rendering of the span forest (for ``--profile``)."""
        roots, children = _forest(self.spans())
        lines: List[str] = []

        def walk(span: Span, depth: int) -> None:
            if span.duration < min_duration:
                return
            attrs = " ".join(
                f"{k}={v}" for k, v in sorted(span.attributes.items())
            )
            lines.append(
                "  " * depth
                + f"{span.name}  {span.duration * 1000:.3f} ms"
                + (f"  [{attrs}]" if attrs else "")
            )
            for name, _at, _attrs in span.events:
                lines.append("  " * (depth + 1) + f"* {name}")
            for child in children.get(span.span_id, []):
                walk(child, depth + 1)

        for root in roots:
            walk(root, 0)
        return "\n".join(lines)


def _forest(
    spans: List[Span],
) -> Tuple[List[Span], Dict[Optional[str], List[Span]]]:
    """Roots (spans whose parent is not among ``spans``) and children by
    parent id, each list in start order."""
    children: Dict[Optional[str], List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    for kids in children.values():
        kids.sort(key=lambda s: s.start)
    span_ids = {s.span_id for s in spans}
    roots = sorted(
        (s for s in spans if s.parent_id not in span_ids),
        key=lambda s: s.start,
    )
    return roots, children


class _NullSpan:
    """Shared no-op span: every method is a cheap no-op returning self."""

    __slots__ = ()
    name = ""
    span_id = None
    parent_id = None
    trace_id = None
    sampled = False
    attributes: Dict[str, Any] = {}
    events: List[Any] = []
    duration = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    def add_event(self, name: str, **attributes: Any) -> None:
        return None

    def context(self) -> None:
        return None

    def finish(self) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The off switch: hot paths pay one attribute check and nothing else."""

    enabled = False
    sample_rate = 0.0

    def span(
        self,
        name: str,
        parent_context: Optional[TraceContext] = None,
        **attributes: Any,
    ) -> _NullSpan:
        return _NULL_SPAN

    def current_span(self) -> None:
        return None

    def current_context(self) -> None:
        return None

    def event(self, name: str, **attributes: Any) -> None:
        return None

    def spans(self, name: Optional[str] = None) -> List[Span]:
        return []

    def slowest(self, n: int = 5) -> List[Span]:
        return []

    def trace_ids(self) -> List[str]:
        return []

    def spans_for(self, trace_id: str) -> List[Span]:
        return []

    def trace_tree(self, trace_id: str) -> Dict[str, Any]:
        return {
            "trace_id": trace_id, "span_count": 0,
            "connected": False, "roots": [],
        }


NULL_TRACER = NullTracer()
