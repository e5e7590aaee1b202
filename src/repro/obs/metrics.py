"""Metrics: named counters, gauges and fixed-bucket histograms.

A :class:`MetricsRegistry` holds instruments keyed by ``(name, labels)``.
Instruments are created lazily (``registry.counter("repro_cache_hits_total")``
returns the existing instrument on every later call), mutate cheaply, and
merge associatively across registries — the same discipline
:class:`~repro.relational.stats.ExecutionStats` follows across pool
workers; a finished stats block is added to a registry by
:func:`repro.obs.runtime.publish_stats`.

Naming follows ``repro_<layer>_<name>`` (see DESIGN.md §5f); exporters
produce Prometheus text exposition format and plain JSON.  Everything is
stdlib-only and picklable (locks are dropped and re-created, exactly like
ExecutionStats always did).
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

Labels = Tuple[Tuple[str, str], ...]

# Latency-ish default buckets (seconds).  Fixed at instrument creation so
# histograms from different workers merge bucket-by-bucket.
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _freeze_labels(labels: Optional[Dict[str, str]]) -> Labels:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Instrument:
    """Shared plumbing: identity, help text, pickling without the lock."""

    kind = "untyped"

    def __init__(self, name: str, labels: Labels, help: str) -> None:
        self.name = name
        self.labels = labels
        self.help = help
        self._lock = threading.Lock()

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.__dict__["_lock"] = threading.Lock()


class Counter(_Instrument):
    """A monotonically increasing count.

    ``value`` is a plain attribute: an owner-exclusive hot loop may read it,
    accumulate locally and assign once at the end (the pattern the scan and
    join operators use); concurrent writers must go through :meth:`inc`.
    """

    kind = "counter"

    def __init__(self, name: str, labels: Labels = (), help: str = "") -> None:
        super().__init__(name, labels, help)
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def _merge(self, other: "Counter") -> None:
        with self._lock:
            self.value += other.value


class Gauge(_Instrument):
    """A value that can go up and down (merge sums, keeping associativity)."""

    kind = "gauge"

    def __init__(self, name: str, labels: Labels = (), help: str = "") -> None:
        super().__init__(name, labels, help)
        self.value: float = 0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)

    def _merge(self, other: "Gauge") -> None:
        # Sum rather than last-write-wins: merge stays associative and
        # commutative, which the cross-worker fold relies on.
        with self._lock:
            self.value += other.value


class Histogram(_Instrument):
    """Fixed-bucket histogram (cumulative ``le`` buckets, Prometheus-style).

    Bucket bounds are fixed at creation; two histograms with the same name
    must share bounds to merge (enforced), which keeps worker-side and
    parent-side observations foldable bucket-by-bucket.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Labels = (),
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, labels, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)  # +1 for +Inf
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        with self._lock:
            lo, hi = 0, len(self.bounds)
            while lo < hi:  # first bound >= value (bisect_left on bounds)
                mid = (lo + hi) // 2
                if self.bounds[mid] < value:
                    lo = mid + 1
                else:
                    hi = mid
            self.counts[lo] += 1
            self.sum += value
            self.count += 1

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(le, count)`` pairs ending with ``(+Inf, count)``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, running + self.counts[-1]))
        return out

    def _merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                f"histogram {self.name!r}: bucket bounds differ, cannot merge"
            )
        with self._lock:
            for i, n in enumerate(other.counts):
                self.counts[i] += n
            self.sum += other.sum
            self.count += other.count


_KIND_CLASSES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A process-local set of instruments, mergeable across workers."""

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, Labels], _Instrument] = {}
        self._lock = threading.Lock()

    # -- instrument access ---------------------------------------------------

    def counter(
        self, name: str, labels: Optional[Dict[str, str]] = None, *, help: str = ""
    ) -> Counter:
        return self._get(Counter, name, labels, help)

    def gauge(
        self, name: str, labels: Optional[Dict[str, str]] = None, *, help: str = ""
    ) -> Gauge:
        return self._get(Gauge, name, labels, help)

    def histogram(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        *,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        key = (name, _freeze_labels(labels))
        with self._lock:
            inst = self._instruments.get(key)
            if inst is None:
                inst = Histogram(name, key[1], help, buckets)
                self._instruments[key] = inst
            elif not isinstance(inst, Histogram):
                raise TypeError(
                    f"metric {name!r} already registered as {inst.kind}"
                )
        return inst

    def _get(self, cls, name, labels, help):
        key = (name, _freeze_labels(labels))
        with self._lock:
            inst = self._instruments.get(key)
            if inst is None:
                inst = cls(name, key[1], help)
                self._instruments[key] = inst
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {inst.kind}"
                )
        return inst

    # -- inspection ----------------------------------------------------------

    def instruments(self) -> List[_Instrument]:
        with self._lock:
            return list(self._instruments.values())

    def get(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Optional[_Instrument]:
        with self._lock:
            return self._instruments.get((name, _freeze_labels(labels)))

    def value(self, name: str, labels: Optional[Dict[str, str]] = None) -> float:
        """Counter/gauge value (0 when the instrument does not exist yet)."""
        inst = self.get(name, labels)
        return 0 if inst is None else getattr(inst, "value", 0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)

    # -- merging -------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (associative, commutative for
        counters/gauges/histograms; safe under concurrent mutation of self)."""
        for inst in other.instruments():
            if isinstance(inst, Histogram):
                mine = self.histogram(
                    inst.name, dict(inst.labels), help=inst.help,
                    buckets=inst.bounds,
                )
            elif isinstance(inst, Gauge):
                mine = self.gauge(inst.name, dict(inst.labels), help=inst.help)
            else:
                mine = self.counter(inst.name, dict(inst.labels), help=inst.help)
            mine._merge(inst)

    def merge_json(self, doc: Dict[str, Any]) -> int:
        """Fold a :meth:`to_json` document into this registry.

        The over-the-wire counterpart of :meth:`merge`: the serve tier's
        ``stats`` op ships ``to_json()`` snapshots, and ``repro stats
        --addr`` folds one per node into a cluster-wide view.  Histogram
        buckets arrive cumulative (Prometheus-style) and are de-cumulated
        back into per-bucket counts before merging; same-name histograms
        with different bounds raise, exactly like :meth:`merge`.

        Returns the number of instruments folded in.
        """
        folded = 0
        for name, entries in doc.items():
            for entry in entries:
                kind = entry.get("kind", "counter")
                labels = entry.get("labels") or None
                if kind == "histogram":
                    buckets = entry.get("buckets", [])
                    bounds = [
                        float(b["le"]) for b in buckets
                        if b["le"] != "+Inf"
                        and not (isinstance(b["le"], float)
                                 and math.isinf(b["le"]))
                    ]
                    if not bounds:
                        continue
                    mine = self.histogram(name, labels, buckets=bounds)
                    other = Histogram(name, mine.labels, buckets=bounds)
                    prev = 0
                    counts: List[int] = []
                    for b in buckets:
                        n = int(b["count"])
                        counts.append(max(n - prev, 0))
                        prev = n
                    # to_json always emits len(bounds)+1 buckets (+Inf
                    # last); pad defensively against truncated documents.
                    counts += [0] * (len(bounds) + 1 - len(counts))
                    other.counts = counts[: len(bounds) + 1]
                    other.sum = float(entry.get("sum", 0.0))
                    other.count = int(entry.get("count", 0))
                    mine._merge(other)
                elif kind == "gauge":
                    self.gauge(name, labels).inc(float(entry.get("value", 0)))
                else:
                    self.counter(name, labels).inc(float(entry.get("value", 0)))
                folded += 1
        return folded

    @classmethod
    def from_json(cls, doc: Dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`to_json` document."""
        registry = cls()
        registry.merge_json(doc)
        return registry

    def clear(self) -> None:
        with self._lock:
            self._instruments.clear()

    # -- exporters -----------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for inst in sorted(self.instruments(), key=lambda i: (i.name, i.labels)):
            entry: Dict[str, Any] = {"kind": inst.kind}
            if inst.labels:
                entry["labels"] = dict(inst.labels)
            if isinstance(inst, Histogram):
                entry["sum"] = inst.sum
                entry["count"] = inst.count
                entry["buckets"] = [
                    {"le": "+Inf" if math.isinf(le) else le, "count": n}
                    for le, n in inst.bucket_counts()
                ]
            else:
                entry["value"] = inst.value
            out.setdefault(inst.name, []).append(entry)
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        by_name: Dict[str, List[_Instrument]] = {}
        for inst in self.instruments():
            by_name.setdefault(inst.name, []).append(inst)
        lines: List[str] = []
        for name in sorted(by_name):
            family = sorted(by_name[name], key=lambda i: i.labels)
            head = family[0]
            # HELP/TYPE exactly once per family, even when labeled series
            # interleave and only some carry help text: take the first
            # non-empty help in the family, not the first member's.
            help_text = next((i.help for i in family if i.help), "")
            if help_text:
                lines.append(f"# HELP {name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {name} {head.kind}")
            for inst in family:
                if isinstance(inst, Histogram):
                    for le, n in inst.bucket_counts():
                        le_text = "+Inf" if math.isinf(le) else _fmt_value(le)
                        label_text = _render_labels(
                            list(inst.labels) + [("le", le_text)]
                        )
                        lines.append(f"{name}_bucket{label_text} {n}")
                    base = _render_labels(list(inst.labels))
                    lines.append(f"{name}_sum{base} {_fmt_value(inst.sum)}")
                    lines.append(f"{name}_count{base} {inst.count}")
                else:
                    label_text = _render_labels(list(inst.labels))
                    lines.append(f"{name}{label_text} {_fmt_value(inst.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    # -- pickling ------------------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.__dict__["_lock"] = threading.Lock()


def _fmt_value(value: float) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    # Prometheus text format spells non-finite values +Inf/-Inf/NaN;
    # repr(float) would emit 'inf'/'nan', which scrapers reject.
    if isinstance(value, float) and math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer()):
        return str(int(value))
    return repr(float(value))


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return (
        text.replace("\\", "\\\\").replace("\"", "\\\"").replace("\n", "\\n")
    )


def _render_labels(labels: Iterable[Tuple[str, str]]) -> str:
    pairs = [f'{k}="{_escape_label_value(str(v))}"' for k, v in labels]
    return "{" + ",".join(pairs) + "}" if pairs else ""
