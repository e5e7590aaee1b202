"""The columnar storage format shared by every layer that holds values.

:class:`Column` (typed array + validity mask) and :class:`ColumnBuilder`
underlie table storage (:mod:`repro.relational.table`), the window
strategies' measure extraction, the parallel partitioner's chunk payloads,
and the v3/v4 storage formats.  Columns are what tables keep and what
kernels read; operators exchange rows.  See DESIGN.md §5e.
"""

from repro.columns.column import Column, ColumnBuilder, KINDS, kind_for_type

__all__ = [
    "Column",
    "ColumnBuilder",
    "KINDS",
    "kind_for_type",
]
