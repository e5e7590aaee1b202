"""Execution statistics for the relational engine.

Every plan execution threads one :class:`ExecutionStats` through its
operators.  The counters make cost behaviour *observable* independent of
wall clocks: the benchmark harness uses them to show, e.g., that the
self-join pattern without an index examines O(n²) row pairs while the
indexed variant touches O(n·w) (Table 1), and that the derivation patterns'
join work grows superlinearly (Table 2).

The block is seven plain ints.  Whoever created it publishes it once, when
the execution is over, with :func:`repro.obs.runtime.publish_stats`, which
adds each counter to the process registry under the name
:meth:`ExecutionStats.metric_values` gives it.

A block may also carry a :class:`Probe`.  :meth:`Operator.run
<repro.relational.operators.Operator.run>` looks for one on every pull and,
when it is there, records the node's rows out and inclusive wall time and
opens the node's span; without one an execution measures nothing.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.obs.trace import NULL_TRACER

__all__ = ["ExecutionStats", "NodeMeasure", "Probe"]

_COUNTERS = (
    "rows_scanned",
    "pairs_examined",
    "index_lookups",
    "rows_joined",
    "rows_aggregated",
    "groups_emitted",
    "rows_sorted",
)

# Global metric name per counter: every counter belongs to the engine layer
# (DESIGN.md §5f naming scheme: repro_<layer>_<name>).
_METRIC_OF = {name: f"repro_engine_{name}_total" for name in _COUNTERS}


class NodeMeasure:
    """What one plan node did during the executions a probe observed."""

    __slots__ = ("ordinal", "rows_out", "wall", "calls")

    def __init__(self, ordinal: int) -> None:
        # Pre-order position in the plan: stable across runs, unlike id().
        self.ordinal = ordinal
        self.rows_out = 0
        self.wall = 0.0
        self.calls = 0


def _walk(node: Any) -> Iterator[Any]:
    yield node
    for child in node.children():
        yield from _walk(child)


class Probe:
    """Per-node measures for one plan, and the tracer its spans go to.

    ``measures`` is keyed by ``id(node)`` and holds every node of ``plan``
    from construction on, so a node that never ran still renders (as
    "never executed").  With the default null tracer only the measures are
    kept — that is EXPLAIN ANALYZE.
    """

    __slots__ = ("tracer", "measures")

    def __init__(self, plan: Any, tracer: Any = NULL_TRACER) -> None:
        self.tracer = tracer
        self.measures: Dict[int, NodeMeasure] = {}
        for ordinal, node in enumerate(_walk(plan)):
            if id(node) not in self.measures:  # shared sub-plan: one entry
                self.measures[id(node)] = NodeMeasure(ordinal)


class ExecutionStats:
    """Mutable counter block shared by all operators of one execution.

    Attributes:
        rows_scanned: tuples produced by base-table scans.
        pairs_examined: row pairs for which a join predicate was evaluated.
        index_lookups: point/range probes against an index.
        rows_joined: rows emitted by join operators.
        rows_aggregated: input rows consumed by aggregation.
        groups_emitted: groups produced by aggregation.
        rows_sorted: rows passing through sort operators.
        probe: the :class:`Probe` measuring this execution, or ``None``.

    Serial operators own the block exclusively and use attribute ``+=``;
    anything that may run beside another thread goes through :meth:`bump`
    or :meth:`merge`, which take the block's lock.
    """

    __slots__ = _COUNTERS + ("probe", "_lock")

    def __init__(self, **counters: int) -> None:
        for name in _COUNTERS:
            setattr(self, name, 0)
        self.probe: Optional[Probe] = None
        self._lock = threading.Lock()
        for name, value in counters.items():
            if name not in _COUNTERS:
                raise TypeError(f"unknown execution counter {name!r}")
            setattr(self, name, value)

    def bump(self, **counters: int) -> None:
        """Atomically add to named counters (the entry point for anything
        that may run beside another thread).

        Raises:
            AttributeError: for names outside the known counter set.
        """
        for name in counters:
            if name not in _COUNTERS:
                raise AttributeError(f"unknown execution counter {name!r}")
        with self._lock:
            for name, delta in counters.items():
                setattr(self, name, getattr(self, name) + delta)

    def merge(self, other: "ExecutionStats") -> None:
        """Fold another stats block into this one (sub-plan accumulation);
        atomic with respect to concurrent merges/bumps on ``self``."""
        self.bump(**other.counters())

    def counters(self) -> Dict[str, int]:
        """Every counter by field name, zeros included."""
        return {name: getattr(self, name) for name in _COUNTERS}

    def metric_values(self) -> Iterator[Tuple[str, int]]:
        """``(global metric name, value)`` for every counter, zeros included."""
        for name, value in self.counters().items():
            yield _METRIC_OF[name], value

    def summary(self) -> str:
        """Render the counters as a one-line report."""
        return (
            f"scanned={self.rows_scanned} pairs={self.pairs_examined} "
            f"index_lookups={self.index_lookups} joined={self.rows_joined} "
            f"aggregated={self.rows_aggregated} groups={self.groups_emitted} "
            f"sorted={self.rows_sorted}"
        )

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}={value}" for name, value in self.counters().items() if value
        )
        return f"ExecutionStats({parts})"

    # Locks and probes do not pickle; a restored block has a fresh lock and
    # measures nothing.
    def __getstate__(self) -> Dict[str, int]:
        return self.counters()

    def __setstate__(self, state: Dict[str, int]) -> None:
        self.__init__(**state)
