"""Heap tables with optional primary key and secondary indexes.

A table's heap is *column-major*: one
:class:`~repro.columns.column.ColumnBuilder` per schema column, each a list
of 500-slot chunks that are resident or on pages behind a buffer pool, so
scans, window measure extraction, and persistence all read typed arrays
instead of Python tuple lists — and every table, paged or not, is this one
class with one scan path.  The historical row-major contract is preserved
through :class:`RowsView` — ``table.rows`` still supports
``len``/iteration/slot indexing/equality — and *slots* (column positions)
still identify rows for index maintenance.
"""

from __future__ import annotations

import hashlib
import struct
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.columns import Column, ColumnBuilder, ColumnRows, kind_for_type
from repro.errors import CatalogError, ConstraintError, SchemaError
from repro.relational.index import HashIndex, SortedIndex
from repro.relational.schema import Schema

__all__ = ["Table", "RowsView"]

Row = Tuple[Any, ...]
Index = Union[HashIndex, SortedIndex]
Ranges = List[Tuple[int, int]]  # ascending, disjoint ``[lo, hi)`` slot ranges

# Rows handed out per materialization step while iterating (bounds the
# transient row-tuple memory of a scan; see Table.iter_rows).
_ITER_CHUNK = 4096


class RowsView:
    """Sequence facade over a table's columnar heap.

    Presents the pre-refactor ``table.rows`` list contract — ``len``,
    iteration, ``rows[slot]``, slicing, ``==`` against any sequence —
    while rows are materialized lazily from the column builders.
    """

    __slots__ = ("_table",)

    def __init__(self, table: "Table") -> None:
        self._table = table

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[Row]:
        return self._table.iter_rows()

    def __getitem__(self, item):
        if isinstance(item, slice):
            start, stop, step = item.indices(len(self._table))
            return [self._table.row(i) for i in range(start, stop, step)]
        if item < 0:
            item += len(self._table)
        return self._table.row(item)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RowsView):
            other = list(other)
        if not isinstance(other, (list, tuple)):
            return NotImplemented
        return list(self) == list(other)

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RowsView({self._table.name!r}, {len(self)} rows)"


class Table:
    """A named columnar heap plus its indexes.

    Values live in one :class:`ColumnBuilder` per column; *slots* (column
    positions) identify rows for index maintenance.  A table loaded with a
    memory budget is this class too: some chunks are on pages
    (:attr:`is_paged`), and every mutator writes whichever chunk it lands
    in.  Primary keys are
    backed by a unique sorted index named ``<table>_pk`` — sorted rather
    than hash so that the engine can exploit it for the paper's
    band-predicate joins.
    """

    def __init__(
        self,
        name: str,
        schema: Schema,
        primary_key: Optional[Sequence[str]] = None,
    ) -> None:
        self.name = name
        self.schema = schema
        self._columns: List[ColumnBuilder] = [
            ColumnBuilder.for_type(c.type.name) for c in schema
        ]
        self._nrows = 0
        # Bumped on structural mutation (insert/delete/truncate): open row
        # iterators check it and refuse to continue over a reshaped heap.
        # In-place slot updates do NOT bump it (UPDATE walks rows while
        # rewriting the current slot, as before the columnar refactor).
        self._structure_version = 0
        self.indexes: Dict[str, Index] = {}
        self.primary_key: Optional[Tuple[str, ...]] = None
        if primary_key:
            self.primary_key = tuple(primary_key)
            cols = [schema.resolve(c) for c in self.primary_key]
            self.indexes[f"{name}_pk"] = SortedIndex(f"{name}_pk", cols, unique=True)

    # -- row access --------------------------------------------------------------

    def __len__(self) -> int:
        return self._nrows

    @property
    def rows(self) -> RowsView:
        """The row-major facade (lazy; see :class:`RowsView`)."""
        return RowsView(self)

    def __iter__(self) -> Iterator[Row]:
        return self.iter_rows()

    def iter_rows(self) -> Iterator[Row]:
        """Yield row tuples lazily, chunk-materialized from the columns.

        Never builds the full row list; at most ``_ITER_CHUNK`` rows of
        tuples exist at a time.

        Raises:
            RuntimeError: when the heap is structurally mutated
                (insert/delete/truncate) while the iterator is open.
                In-place ``update_slot`` is allowed and becomes visible
                from the next chunk.
        """
        expected = self._structure_version
        start = 0
        while start < self._nrows:
            if self._structure_version != expected:
                raise RuntimeError(
                    f"table {self.name!r} mutated during iteration"
                )
            stop = min(start + _ITER_CHUNK, self._nrows)
            chunk = [b.pylist(start, stop) for b in self._columns]
            for row in zip(*chunk):
                yield row
                if self._structure_version != expected:
                    raise RuntimeError(
                        f"table {self.name!r} mutated during iteration"
                    )
            start = stop

    def row(self, slot: int) -> Row:
        return tuple(b.get(slot) for b in self._columns)

    # -- columnar access -----------------------------------------------------------

    def column_values(self, column: Union[int, str]) -> Column:
        """Zero-copy snapshot of one column (by schema position or name)."""
        i = column if isinstance(column, int) else self.schema.resolve(column)
        return self._columns[i].snapshot()

    def adopt_columns(self, columns: Sequence[ColumnBuilder], num_rows: int) -> None:
        """Install ``columns`` (builders of ``num_rows`` slots each) as the
        heap, then rebuild every index from them — so a duplicate primary
        key in what was adopted is a ConstraintError."""
        self._columns = list(columns)
        self._nrows = num_rows
        self._structure_version += 1
        for index in self.indexes.values():
            index.load(self._keys(index))

    @property
    def is_paged(self) -> bool:
        """Whether any chunk of any column is on pages, not resident."""
        return any(builder.pages for builder in self._columns)

    @property
    def pages_total(self) -> int:
        """The pages under the table's non-resident chunks (0 in memory)."""
        return sum(builder.pages for builder in self._columns)  # a page holds one column

    def candidate_ranges(self, terms: Sequence[Tuple[int, str, Any]]) -> Ranges:
        """The slot ranges that can hold a row on which every ``(column
        index, op, literal)`` term is TRUE: all of them minus the pages a
        zone rules out.  Only a plain number is tested against a zone."""
        ranges: Ranges = [(0, self._nrows)] if self._nrows else []
        for index, op, value in terms:
            if type(value) in (int, float):
                ranges = self._columns[index].prune(ranges, op, value)
        return ranges

    def scan(self, ranges: Ranges) -> Tuple[ColumnRows, int]:
        """The rows of ``ranges`` as columns, and the pages read for them."""
        gathered = [builder.gather(ranges) for builder in self._columns]
        rows = sum(hi - lo for lo, hi in ranges)
        return ColumnRows([c for c, _ in gathered], rows), sum(n for _, n in gathered)

    def close(self) -> None:
        """Give back the page files under the table's chunks, when no
        clone shares them: their frames leave the pool and their
        descriptors close (a shared file stays open for the clone until
        the pool closes).  The catalog calls it on every table it lets go
        of."""
        paged = [c for b in self._columns for c in b.chunks if not c.resident]
        if paged and not any(chunk.shared for chunk in paged):
            for file in {page.file for chunk in paged for page in chunk.pages}:
                paged[0].pool.close_file(file)

    def memory_bytes(self) -> int:
        """Bytes held by the columnar heap (buffers + validity masks)."""
        return sum(b.memory_bytes() for b in self._columns)

    def row_memory_bytes(self, sample: int = 1000) -> int:
        """Estimated bytes the pre-columnar tuple-list heap would hold.

        Extrapolated from ``sample`` materialized rows; used by
        ``bench_table1`` to report the row-vs-columnar memory ratio.
        """
        import sys

        n = self._nrows
        if n == 0:
            return 0
        k = min(n, sample)
        per_row = sum(
            sys.getsizeof(row) + sum(sys.getsizeof(v) for v in row)
            for row in (self.row(i) for i in range(k))
        ) / k
        # The old heap also held one list of row references.
        return int(per_row * n) + 8 * n + 56

    # -- mutation ------------------------------------------------------------------

    def coerce(self, values: Sequence[Any]) -> Row:
        """``values`` as this table stores them, each validated by its
        column's type (``SchemaError`` when one does not fit)."""
        if len(values) != len(self.schema):
            raise SchemaError(
                f"table {self.name!r} expects {len(self.schema)} values, "
                f"got {len(values)}"
            )
        return tuple(
            column.type.validate(value)
            for column, value in zip(self.schema, values)
        )

    def insert(self, values: Sequence[Any]) -> int:
        """Append one row; returns its slot.

        Raises:
            ConstraintError: primary key / unique index violation (the row
                is not inserted).
        """
        row = self.coerce(values)
        slot = self._nrows
        added: List[Index] = []
        try:
            for index in self.indexes.values():
                index.add(row, slot)
                added.append(index)
        except ConstraintError:
            for index in added:
                index.remove(row, slot)
            raise
        for builder, value in zip(self._columns, row):
            builder.append(value)
        self._nrows += 1
        self._structure_version += 1
        return slot

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Append ``rows``, all or none: they are coerced column by column
        (``SchemaError``) and their keys checked by every index
        (``ConstraintError``) before the heap changes."""
        rows = list(rows)
        for values in rows if set(map(len, rows)) - {len(self.schema)} else ():
            self.coerce(values)  # raises for the first row of the wrong width
        columns = zip(*rows) if rows else ((),) * len(self.schema)
        return self.append_columns([
            Column.from_values(c.type.validate_all(values), kind_for_type(c.type.name))
            for c, values in zip(self.schema, columns)
        ])

    def append_columns(self, columns: Sequence[Column]) -> int:
        """Append ``columns`` (one per schema column, values as the table
        stores them) as rows; returns how many.  Every index stages the new
        keys before the heap changes, so a duplicate changes nothing."""
        start, count = self._nrows, len(columns[0]) if columns else 0
        staged = [
            (index, index.stage(self._keys(index, columns), start))
            for index in self.indexes.values()
        ]
        for builder, column in zip(self._columns, columns):
            builder.extend(column)
        self._nrows += count
        self._structure_version += 1
        for index, entries in staged:
            index.add_staged(entries)
        return count

    def insert_columns(self, slot: int, columns: Sequence[Column]) -> int:
        """Insert ``columns`` (as for :meth:`append_columns`) as rows before
        ``slot``; later rows move up.  A duplicate key changes nothing;
        otherwise every index is rebuilt from its key columns.  Returns
        how many."""
        for index in self.indexes.values():
            index.stage(self._keys(index, columns), self._nrows)
        for builder, column in zip(self._columns, columns):
            builder.insert(slot, column)
        self._nrows += len(columns[0])
        self._structure_version += 1
        for index in self.indexes.values():
            index.load(self._keys(index))
        return len(columns[0])

    def _keys(self, index: Index, columns: Optional[Sequence[Column]] = None) -> List[Row]:
        """``index``'s key of every row of ``columns`` (one per schema
        column; the heap's when None): one list per key column, zipped."""
        columns = columns or {i: self._columns[i].snapshot() for i in index.column_indexes}
        return list(zip(*(columns[i].to_pylist() for i in index.column_indexes)))

    def update_slot(self, slot: int, values: Sequence[Any]) -> Row:
        """Replace the row at ``slot`` (indexes maintained incrementally);
        returns the row it replaced."""
        new_row = self.coerce(values)
        old_row = self.row(slot)
        for index in self.indexes.values():
            index.remove(old_row, slot)
        try:
            for index in self.indexes.values():
                index.add(new_row, slot)
        except ConstraintError:
            for index in self.indexes.values():
                index.remove(new_row, slot)
                index.add(old_row, slot)
            raise
        for builder, value in zip(self._columns, new_row):
            builder.set(slot, value)
        return old_row

    def set_column(self, column: str, slots: Sequence[int], values: Sequence[Any]) -> None:
        """Overwrite one column at ``slots``, leaving the rest of each row:
        the values are validated before any is written, then written
        chunk by chunk (:meth:`ColumnBuilder.write`)."""
        i = self.schema.resolve(column)
        ctype = self.schema.columns[i].type
        new = Column.from_values(ctype.validate_all(list(values)), kind_for_type(ctype.name))
        with self._reindexing([i], slots):
            self._columns[i].write(np.asarray(slots, dtype=np.intp), new)

    @contextmanager
    def _reindexing(self, cols: Sequence[int], slots: Sequence[int]) -> Iterator[None]:
        """Keep the indexes over any of ``cols`` right across an in-place
        write of ``slots``: their entries leave before it and come back
        after it (also when it fails).  No such index, no row is read."""
        touched = [
            index for index in self.indexes.values()
            if not set(cols).isdisjoint(index.column_indexes)
        ]
        for slot in slots if touched else ():
            row = self.row(slot)
            for index in touched:
                index.remove(row, slot)
        try:
            yield
        finally:
            for slot in slots if touched else ():
                row = self.row(slot)
                for index in touched:
                    index.add(row, slot)

    def delete_slots(self, slots: Iterable[int]) -> int:
        """Delete rows by slot and renumber the rest: one mask per column
        buffer; each index drops and renumbers entries, no row is read."""
        doomed = np.unique(np.fromiter(slots, dtype=np.intp))
        if not len(doomed):
            return 0
        mask = np.ones(self._nrows, dtype=np.bool_)
        mask[doomed] = False
        for builder in self._columns:
            builder.keep(mask)
        self._nrows -= len(doomed)
        self._structure_version += 1
        for index in self.indexes.values():
            index.drop_slots(doomed)
        return len(doomed)

    def truncate(self) -> None:
        for builder in self._columns:
            builder.clear()
        self._nrows = 0
        self._structure_version += 1
        for index in self.indexes.values():
            index.load([])

    def clone(self) -> "Table":
        """An independent copy of the heap and its indexes (same name).

        Copy-on-write support for the concurrent serving tier: before a
        serialized writer mutates a table in place, it installs a clone in
        the live catalog so every snapshot pinned to an older epoch keeps
        reading the original, never-again-mutated object.  The schema
        object is shared (immutable), so is every column chunk — a write
        copies the one chunk it lands in (:meth:`ColumnBuilder.copy`) —
        and the indexes are copied.
        """
        out = Table.__new__(Table)
        out.name = self.name
        out.schema = self.schema
        out._columns = [b.copy() for b in self._columns]
        out._nrows = self._nrows
        out._structure_version = 0
        out.primary_key = self.primary_key
        out.indexes = {name: index.copy() for name, index in self.indexes.items()}
        return out

    def digest(self, tally: Optional[List[int]] = None, *, cached: bool = True) -> bytes:
        """SHA-256 of name, schema, row count and every column's chunk
        hashes (:meth:`ColumnBuilder.chunk_hashes`), in heap order."""
        h = hashlib.sha256(self.name.encode("utf-8") + b"\x00")
        for column in self.schema:
            h.update(f"{column.name}:{column.type.name};".encode("utf-8"))
        h.update(struct.pack("<Q", self._nrows))
        for column, builder in zip(self.schema, self._columns):
            kind = kind_for_type(column.type.name)
            h.update(b"".join(builder.chunk_hashes(kind, tally, cached=cached)))
        return h.digest()

    # -- index management -----------------------------------------------------------

    def create_index(
        self,
        name: str,
        columns: Sequence[str],
        *,
        kind: str = "sorted",
        unique: bool = False,
    ) -> Index:
        if name in self.indexes:
            raise CatalogError(f"index {name!r} already exists on {self.name!r}")
        cols = [self.schema.resolve(c) for c in columns]
        index: Index
        if kind == "sorted":
            index = SortedIndex(name, cols, unique=unique)
        elif kind == "hash":
            index = HashIndex(name, cols, unique=unique)
        else:
            raise CatalogError(f"unknown index kind {kind!r}")
        index.load(self._keys(index))
        self.indexes[name] = index
        return index

    def drop_index(self, name: str) -> None:
        if name not in self.indexes:
            raise CatalogError(f"no index {name!r} on table {self.name!r}")
        del self.indexes[name]

    def find_index(self, columns: Sequence[str], *, sorted_only: bool = False) -> Optional[Index]:
        """An index whose key is exactly ``columns`` (first match wins)."""
        wanted = tuple(self.schema.resolve(c) for c in columns)
        for index in self.indexes.values():
            if index.column_indexes == wanted:
                if sorted_only and index.kind != "sorted":
                    continue
                return index
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Table({self.name!r}, rows={self._nrows}, indexes={list(self.indexes)})"
