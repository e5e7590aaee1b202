"""Rows over columns: what an operator hands on when it stays on NumPy.

:class:`ColumnRows` is an immutable sequence of rows backed by one
:class:`~repro.columns.column.Column` per field.  To anything that wants
rows it *is* rows — it iterates the way ``Table.iter_rows`` does (chunks
of Python values zipped into tuples), has ``len``, indexing and ``==``
against lists, and converts with ``numpy.asarray``.  To a consumer that
understands columns it also exposes ``.columns``, so scan → filter →
window → project → result → wire never builds a row (DESIGN.md §5e).

:func:`sort_order` is the one place that decides whether a set of sort
keys can be ordered by NumPy exactly as Python's stable ``list.sort``
orders them; the window operator and ``Sort`` both ask it.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.columns.column import Column

__all__ = ["ColumnRows", "sort_order"]

# Rows materialized per step while iterating (as Table.iter_rows does).
_ITER_CHUNK = 4096


class ColumnRows:
    """An immutable row sequence over equally long columns.

    Args:
        columns: one :class:`Column` per field.
        nrows: the row count; defaults to the first column's length (it
            has to be given for a sequence without columns).
        row_type: ``tuple`` (engine rows) or ``list`` (what a JSON reply
            used to carry); the type of the rows handed out.
    """

    __slots__ = ("columns", "_nrows", "_row_type")

    def __init__(
        self,
        columns: Sequence[Column],
        nrows: Optional[int] = None,
        row_type: type = tuple,
    ) -> None:
        self.columns: Tuple[Column, ...] = tuple(columns)
        self._nrows = len(self.columns[0]) if nrows is None else nrows
        self._row_type = row_type

    def __len__(self) -> int:
        return self._nrows

    def __iter__(self) -> Iterator[Any]:
        as_lists = self._row_type is list
        if not self.columns:
            yield from (self._row_type() for _ in range(self._nrows))
            return
        for start in range(0, self._nrows, _ITER_CHUNK):
            stop = min(start + _ITER_CHUNK, self._nrows)
            chunk = zip(*(c.to_pylist(start, stop) for c in self.columns))
            yield from (map(list, chunk) if as_lists else chunk)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return [self[i] for i in range(*item.indices(self._nrows))]
        if item < 0:
            item += self._nrows
        if not 0 <= item < self._nrows:
            raise IndexError(f"row {item} out of range ({self._nrows} rows)")
        return self._row_type(c.value(item) for c in self.columns)

    def take(self, indexes) -> "ColumnRows":
        """The rows at ``indexes``, in that order (every column gathered)."""
        indexes = np.asarray(indexes, dtype=np.intp)
        return ColumnRows(
            [c.take(indexes) for c in self.columns], len(indexes), self._row_type
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (ColumnRows, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    __hash__ = None  # type: ignore[assignment]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """An ``(nrows, ncolumns)`` array; ``dtype=float`` comes straight
        from the buffers (NULL -> NaN), anything else goes through rows."""
        if dtype is not None and np.dtype(dtype) == np.float64 and self.columns:
            return np.column_stack(
                [c.as_float64(np.nan) for c in self.columns]
            )
        return np.array(list(self), dtype=dtype)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = ", ".join(c.kind for c in self.columns)
        return f"ColumnRows({self._nrows} rows; {kinds})"


def sort_order(
    keys: Sequence[Tuple[Column, bool]], nrows: int
) -> Optional[np.ndarray]:
    """Row indexes in stable sorted order of ``(column, ascending)`` keys.

    The first key is the most significant; ties keep input order, exactly
    as a stable ``list.sort`` per key applied right to left does.  Returns
    ``None`` when NumPy cannot reproduce Python's order for some key — an
    ``object`` column (TEXT, DATE, ints beyond int64), a NULL, a NaN — and
    the caller sorts rows instead.
    """
    arrays: List[np.ndarray] = []
    for column, ascending in keys:
        data = column.data
        if data.dtype == object or column.validity is not None:
            return None
        if data.dtype == np.float64:
            if np.isnan(data).any():
                return None
            arrays.append(data if ascending else -data)
        else:
            # ~x reverses the order of int64 and bool without overflowing.
            arrays.append(data if ascending else ~data)
    if not arrays:
        return np.arange(nrows)
    return np.lexsort(arrays[::-1])


def run_starts(columns: Sequence[Column], nrows: int) -> np.ndarray:
    """The rows where a run of equal values (NULL equal to NULL) of
    ``columns`` starts: ``[0]`` for no columns, none for no rows."""
    change = np.zeros(nrows if columns else min(nrows, 1), dtype=np.bool_)
    change[:1] = True
    for column in columns:
        change[1:] |= column.data[1:] != column.data[:-1]
        if column.validity is not None:
            change[1:] |= column.validity[1:] != column.validity[:-1]
    return np.flatnonzero(change)
