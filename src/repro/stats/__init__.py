"""Table/column statistics and the cost model built on them.

The optimizer's data layer (DESIGN.md §5i): per-table row counts and
per-column NDV / null fractions / equi-depth histograms collected by
:func:`collect_table_stats`, held per database in a :class:`StatsCatalog`
(with staleness tracking against the live table), persisted in the storage
catalog alongside format v3, and consumed by :class:`CostModel`.
"""

from repro.stats.catalog import StatsCatalog
from repro.stats.collect import ColumnStats, TableStats, collect_table_stats
from repro.stats.cost import CostEstimate, CostModel, DEFAULT_SELECTIVITY

__all__ = [
    "ColumnStats",
    "CostEstimate",
    "CostModel",
    "DEFAULT_SELECTIVITY",
    "StatsCatalog",
    "TableStats",
    "collect_table_stats",
]
