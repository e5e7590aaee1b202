"""Per-database statistics registry with staleness tracking.

One :class:`StatsCatalog` hangs off every
:class:`~repro.relational.engine.Database`.  ``ANALYZE`` results are keyed
by table name; staleness is judged *live* against the current table row
count (no mutation hooks needed — the warehouse mutates tables directly),
so the view-route estimate can cheaply ask for :meth:`fresh` statistics
and fall back to its default when they are absent or drifted.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.stats.collect import (
    DEFAULT_BUCKETS,
    DEFAULT_SAMPLE_LIMIT,
    TableStats,
    collect_table_stats,
)

__all__ = ["StatsCatalog", "DEFAULT_STALENESS"]

# Relative row-count drift beyond which statistics stop steering the planner.
DEFAULT_STALENESS = 0.2


class StatsCatalog:
    """Collected table statistics, keyed by table name."""

    def __init__(
        self,
        *,
        staleness: float = DEFAULT_STALENESS,
        buckets: int = DEFAULT_BUCKETS,
        sample_limit: int = DEFAULT_SAMPLE_LIMIT,
    ) -> None:
        self.staleness = staleness
        self.buckets = buckets
        self.sample_limit = sample_limit
        self._tables: Dict[str, TableStats] = {}
        self._lock = threading.Lock()

    # -- collection ----------------------------------------------------------

    def analyze(self, table) -> TableStats:
        """Collect (or re-collect) statistics for one table."""
        stats = collect_table_stats(
            table, buckets=self.buckets, sample_limit=self.sample_limit
        )
        with self._lock:
            self._tables[table.name] = stats
        return stats

    # -- lookup --------------------------------------------------------------

    def get(self, name: str) -> Optional[TableStats]:
        """Stored statistics by table name — possibly stale, never implied fresh."""
        with self._lock:
            return self._tables.get(name)

    def is_stale(self, table) -> bool:
        """True when no statistics exist or the row count drifted too far."""
        stats = self.get(table.name)
        if stats is None:
            return True
        base = max(stats.row_count, 1)
        return abs(len(table) - stats.row_count) / base > self.staleness

    def fresh(self, table) -> Optional[TableStats]:
        """Statistics the planner may *act* on; None when absent or stale."""
        if self.is_stale(table):
            return None
        return self.get(table.name)

    # -- catalog maintenance -------------------------------------------------

    def drop(self, name: str) -> None:
        with self._lock:
            self._tables.pop(name, None)

    def rename(self, old: str, new: str) -> None:
        with self._lock:
            stats = self._tables.pop(old, None)
            if stats is not None:
                self._tables[new] = TableStats(
                    table=new, row_count=stats.row_count, columns=stats.columns
                )

    def clear(self) -> None:
        with self._lock:
            self._tables.clear()

    # -- persistence ---------------------------------------------------------

    def dump(self, name: str) -> Optional[dict]:
        stats = self.get(name)
        return stats.to_dict() if stats is not None else None

    def load(self, name: str, doc: dict) -> TableStats:
        stats = TableStats.from_dict(doc)
        with self._lock:
            self._tables[name] = stats
        return stats
