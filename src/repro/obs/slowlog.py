"""Slow-query log: a bounded ring buffer of over-threshold query records.

Attached to :class:`~repro.warehouse.warehouse.DataWarehouse` via
``enable_slow_query_log``; every ``query()`` call reports its wall time
here and entries at or above the threshold are kept (newest evicts oldest
once ``capacity`` is reached).  Dumpable as JSON for offline triage.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

__all__ = ["SlowQueryLog"]


class SlowQueryLog:
    """Ring buffer of slow queries (threshold in milliseconds)."""

    def __init__(
        self,
        threshold_ms: float = 100.0,
        capacity: int = 128,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.threshold_ms = float(threshold_ms)
        self.capacity = capacity
        self._entries: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.total_queries = 0

    def record(
        self,
        sql: str,
        seconds: float,
        *,
        rewrite: Optional[str] = None,
        summary: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> bool:
        """Report one query; returns True when it was kept (its wall time
        reached ``threshold_ms``).

        ``trace_id`` links the entry to its span tree: with the ops
        endpoint running, ``/trace/<trace_id>`` shows exactly where the
        slow query spent its time.
        """
        with self._lock:
            self.total_queries += 1
            ms = seconds * 1000.0
            if ms < self.threshold_ms:
                return False
            entry = {
                "sql": sql,
                "ms": round(ms, 3),
                "when": time.time(),
                "rewrite": rewrite,
                "stats": summary,
            }
            if trace_id is not None:
                entry["trace_id"] = trace_id
            self._entries.append(entry)
            return True

    def entries(self) -> List[Dict[str, Any]]:
        """Oldest-to-newest snapshot of the retained slow queries."""
        with self._lock:
            return [dict(e) for e in self._entries]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def to_json(self) -> str:
        doc = {
            "threshold_ms": self.threshold_ms,
            "capacity": self.capacity,
            "total_queries": self.total_queries,
            "slow_queries": self.entries(),
        }
        return json.dumps(doc, indent=2)

    def dump(self, path: str) -> int:
        """Write the JSON document to ``path``; returns entries written."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())
        return len(self)
