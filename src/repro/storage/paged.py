"""Paged tables: the ColumnBuilder/Table interfaces over on-disk pages.

:class:`PagedColumnStore` implements the
:class:`~repro.columns.column.ColumnBuilder` protocol (``append``,
``set``, ``get``, ``pylist``, ``snapshot``, ``keep``, ``clear``, ``copy``,
``chunk_hashes``, ``memory_bytes``) with values living in fixed-size pages behind
the database's :class:`~repro.storage.buffer_pool.BufferPool` instead of
an unbounded numpy heap.  :class:`PagedTable` swaps these stores into a
regular :class:`~repro.relational.table.Table`, so every existing
consumer — ``TableScan``, ``window_exec``'s measure gather, index
rebuilds, persistence — streams pages without knowing it:

* ``iter_rows`` already materializes in ``_ITER_CHUNK`` chunks through
  ``pylist``, which gathers page by page (pin → extend → unpin);
* appends go to an in-memory *tail* builder (new rows are hot by
  definition); in-place ``set`` writes through to the page, or hydrates
  the whole table into memory when the new value no longer fits its page
  (:class:`~repro.errors.PageCapacityError`);
* ``snapshot()`` — the whole-column materialization some kernels want —
  is cached **only when the materialized column fits the pool budget**;
  under a tight budget every snapshot consumer streams instead.

Structural mutations (``delete_slots``, ``truncate``, ``move_rows``) and
``clone()`` de-page the affected columns into plain in-memory builders:
they rewrite every slot anyway, and the dump on disk stays the immutable
snapshot the atomic-swap commit promised.  Serve-tier epoch pinning works
unchanged — a pinned snapshot keeps the `PagedTable` (and its page refs)
alive while writers mutate a hydrated clone.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress
from typing import Any, Iterator, List, Optional

import numpy as np

from repro.columns import Column, ColumnBuilder
from repro.columns.column import hash_chunks
from repro.errors import PageCapacityError
from repro.relational.table import Table, _ITER_CHUNK
from repro.storage.buffer_pool import BufferPool, PageRef
from repro.storage.pager import PageFile

__all__ = ["PagedColumnStore", "PagedTable"]


class PagedColumnStore:
    """ColumnBuilder-protocol column storage backed by pages (see module
    doc)."""

    __slots__ = (
        "kind", "pool", "file", "table_name", "name", "entries", "_starts",
        "_paged_rows", "_tail", "_cached", "_epoch",
    )

    def __init__(
        self,
        kind: str,
        pool: BufferPool,
        file: PageFile,
        table_name: str,
        name: str,
        entries: List[PageRef],
    ) -> None:
        self.kind = kind
        self.pool = pool
        self.file = file
        self.table_name = table_name
        self.name = name
        self.entries = entries
        self._starts = [e.start for e in entries]
        self._paged_rows = (
            entries[-1].start + entries[-1].rows if entries else 0
        )
        self._tail = ColumnBuilder(kind)
        self._cached: Optional[Column] = None
        self._epoch = 0

    # -- shape ----------------------------------------------------------------

    def __len__(self) -> int:
        return self._paged_rows + len(self._tail)

    @property
    def pages_total(self) -> int:
        return len(self.entries)

    def _ref_for(self, slot: int) -> PageRef:
        return self.entries[bisect_right(self._starts, slot) - 1]

    def _invalidate(self) -> None:
        self._cached = None
        self._epoch += 1

    # -- mutation (ColumnBuilder protocol) ------------------------------------

    def append(self, value: Any) -> None:
        self._tail.append(value)
        self._invalidate()

    def set(self, slot: int, value: Any) -> None:
        if not 0 <= slot < len(self):
            raise IndexError(f"slot {slot} out of range (size {len(self)})")
        if slot >= self._paged_rows:
            self._tail.set(slot - self._paged_rows, value)
        else:
            ref = self._ref_for(slot)
            self.pool.set_value(ref, slot - ref.start, value)
        self._invalidate()

    def can_set(self, slot: int, value: Any) -> bool:
        """Whether :meth:`set` would succeed without hydration."""
        if slot >= self._paged_rows:
            return True
        from repro.storage.page import HEADER_SIZE, chunk_payload

        ref = self._ref_for(slot)
        values = list(self.pool.get_values(ref))
        values[slot - ref.start] = value
        payload = chunk_payload(ref.table, ref.column, ref.start, values)
        return HEADER_SIZE + len(payload) <= self.pool.page_size

    def keep(self, mask) -> None:
        """Drop the slots where ``mask`` is False; the store de-pages (the
        tail holds everything that is left)."""
        values = list(compress(self._iter_all(), mask.tolist()))
        self._depage()
        self._tail.rebuild(values)
        self._invalidate()

    def clear(self) -> None:
        self._depage()
        self._tail.clear()
        self._invalidate()

    def _depage(self) -> None:
        if self.entries:
            self.entries = []
            self._starts = []
            self._paged_rows = 0

    def copy(self) -> ColumnBuilder:
        """An independent *in-memory* builder with the same contents.

        Used by ``Table.clone()`` (serve-tier copy-on-write): the writer's
        clone is hydrated, readers pinned to older epochs keep streaming
        the original pages.
        """
        out = ColumnBuilder(self.kind)
        out.rebuild(self._iter_all())
        return out

    # -- reads (ColumnBuilder protocol) ---------------------------------------

    def get(self, slot: int) -> Any:
        if not 0 <= slot < len(self):
            raise IndexError(f"slot {slot} out of range (size {len(self)})")
        if slot >= self._paged_rows:
            return self._tail.get(slot - self._paged_rows)
        if self._cached is not None:
            return self._cached.value(slot)
        ref = self._ref_for(slot)
        return self.pool.get_values(ref)[slot - ref.start]

    def pylist(self, start: int = 0, stop: Optional[int] = None) -> List[Any]:
        n = len(self)
        if stop is None or stop > n:
            stop = n
        if start < 0:
            start = 0
        if start >= stop:
            return []
        if self._cached is not None:
            return self._cached.to_pylist(start, stop)
        out: List[Any] = []
        pos = start
        paged_stop = min(stop, self._paged_rows)
        while pos < paged_stop:
            ref = self._ref_for(pos)
            frame = self.pool.pin(ref)
            try:
                lo = pos - ref.start
                hi = min(ref.rows, paged_stop - ref.start)
                out.extend(frame.values[lo:hi])
            finally:
                self.pool.unpin(frame)
            pos = ref.start + hi
        if stop > self._paged_rows:
            out.extend(
                self._tail.pylist(
                    max(0, start - self._paged_rows), stop - self._paged_rows
                )
            )
        return out

    def _iter_all(self) -> Iterator[Any]:
        for start in range(0, len(self), _ITER_CHUNK):
            yield from self.pylist(start, start + _ITER_CHUNK)

    def snapshot(self) -> Column:
        """Whole-column materialization (cached only if it fits the pool
        budget — under a tight budget consumers stream page by page)."""
        if self._cached is not None:
            return self._cached
        column = Column.from_values(self.pylist(0, len(self)), self.kind)
        if column.memory_bytes() <= self.pool.memory_budget_bytes:
            self._cached = column
        return column

    def chunk_hashes(self, declared: str, tally=None, *, cached: bool = True) -> List[bytes]:
        """The digest's chunk hashes, as ``ColumnBuilder.chunk_hashes``
        defines them; computed from the pages each time, never cached."""
        column = self.snapshot()
        valid = np.ones(len(column), np.bool_) if column.validity is None else column.validity
        return hash_chunks(column.data, valid, declared, (), tally)

    # -- accounting -----------------------------------------------------------

    def memory_bytes(self) -> int:
        """Resident bytes only: pooled frames of this column's pages, the
        cached snapshot (if admitted), and the in-memory tail."""
        total = self._tail.memory_bytes()
        if self._cached is not None:
            total += self._cached.memory_bytes()
        resident = 0
        for ref in self.entries:
            if self.pool.contains(ref.key):
                resident += self.pool.page_size
        return total + resident

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PagedColumnStore({self.table_name}.{self.name}, "
            f"kind={self.kind}, pages={len(self.entries)}, "
            f"paged_rows={self._paged_rows}, tail={len(self._tail)})"
        )


class PagedTable(Table):
    """A :class:`Table` whose columns are :class:`PagedColumnStore`s.

    Built by :func:`attach` over a table the catalog already registered,
    so every existing catalog/engine reference keeps working.
    """

    is_paged = True

    @classmethod
    def attach(
        cls,
        table: Table,
        stores: List[PagedColumnStore],
        pool: BufferPool,
        num_rows: int,
    ) -> "PagedTable":
        """Swap ``table``'s in-memory heap for paged stores in place.

        Index rebuilds (primary key included) stream ``table.rows`` —
        i.e. the pages — and still enforce uniqueness, so a corrupted
        dump cannot smuggle in duplicate primary keys on the paged path
        either.
        """
        table.__class__ = cls
        table._columns = list(stores)
        table._nrows = num_rows
        table._structure_version += 1
        table.buffer_pool = pool
        for index in table.indexes.values():
            index.rebuild(table.rows)
        return table  # type: ignore[return-value]

    # -- paged-specific surface ----------------------------------------------

    @property
    def pages_total(self) -> int:
        return sum(
            s.pages_total
            for s in self._columns
            if isinstance(s, PagedColumnStore)
        )

    def hydrate(self) -> None:
        """Replace every paged store with a plain in-memory builder.

        The escape hatch for mutations pages cannot absorb; answers are
        unchanged (values are bit-identical, only residency moves).
        """
        files = []
        fresh: List[ColumnBuilder] = []
        for store in self._columns:
            if isinstance(store, PagedColumnStore):
                files.append(store.file)
                fresh.append(store.copy())
            else:
                fresh.append(store)
        self._columns = fresh
        self.is_paged = False
        for file in files:
            self.buffer_pool.drop_file(file)
            file.close()

    def close(self) -> None:
        """Close the page files under the paged columns and give their
        frames back to the pool (idempotent)."""
        for store in self._columns:
            if isinstance(store, PagedColumnStore):
                self.buffer_pool.drop_file(store.file)
                store.file.close()

    # -- Table overrides ------------------------------------------------------

    def update_slot(self, slot: int, values) -> None:
        new_row = self._coerce(values)
        for store, value in zip(self._columns, new_row):
            if isinstance(store, PagedColumnStore) and not store.can_set(
                slot, value
            ):
                self.hydrate()
                break
        try:
            super().update_slot(slot, new_row)
        except PageCapacityError:  # pragma: no cover - can_set front-runs this
            self.hydrate()
            super().update_slot(slot, new_row)

    def set_column(self, column, slots, values) -> None:
        try:
            super().set_column(column, slots, values)
        except PageCapacityError:  # the page is unchanged: hydrate, redo
            self.hydrate()
            super().set_column(column, slots, values)

    def move_rows(self, columns, src, dst) -> None:
        self.hydrate()
        super().move_rows(columns, src, dst)

    def memory_bytes(self) -> int:
        """Resident bytes only (pooled frames + caches + tails) — the
        point of the exercise: ≪ the dataset under a tight budget."""
        return super().memory_bytes()
