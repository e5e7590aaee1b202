"""The columnar storage format shared by every layer that holds values.

:class:`Column` (typed array + validity mask) and :class:`ColumnBuilder`
underlie table storage (:mod:`repro.relational.table`), the window
operator's measure extraction and the v3/v4 storage formats.  Columns
are what tables keep, what kernels read, what a
:class:`~repro.relational.engine.Result` holds and — through
:mod:`repro.columns.codec` — what a served answer is on the wire.
Operators exchange rows; :class:`ColumnRows` is the row sequence that also
shows its columns, so an operator that can stay on NumPy does.  See
DESIGN.md §5e.
"""

from repro.columns.codec import buffer_sizes, decode_column, encode_column
from repro.columns.column import Column, ColumnBuilder, KINDS, kind_for_type
from repro.columns.rows import ColumnRows, run_starts, sort_order

__all__ = [
    "Column",
    "ColumnBuilder",
    "ColumnRows",
    "KINDS",
    "buffer_sizes",
    "decode_column",
    "encode_column",
    "kind_for_type",
    "run_starts",
    "sort_order",
]
