"""Paged tables: the ColumnBuilder/Table interfaces over on-disk pages.

:class:`PagedColumnStore` implements the
:class:`~repro.columns.column.ColumnBuilder` protocol (``append``,
``set``, ``get``, ``pylist``, ``snapshot``, ``keep``, ``clear``, ``copy``,
``chunk_hashes``, ``memory_bytes``) with values living in fixed-size pages behind
the database's :class:`~repro.storage.buffer_pool.BufferPool` instead of
an unbounded numpy heap.  :class:`PagedTable` swaps these stores into a
regular :class:`~repro.relational.table.Table`, so every existing
consumer — ``window_exec``'s measure gather, index rebuilds,
persistence — reads pages without knowing it:

* every read is :meth:`PagedColumnStore.gather`: the slots of some
  ascending ranges as one :class:`~repro.columns.Column`, page by page
  (pin → slice → unpin), one ``concatenate`` at the end — so what a reader
  holds is a copy no later in-place write can change, and never a row
  tuple.  ``snapshot()`` gathers everything and keeps nothing;
  ``iter_rows`` gathers ``_ITER_CHUNK`` slots at a time;
* ``TableScan`` asks :meth:`PagedTable.candidate_ranges` which slot ranges
  *can* hold a row matching the ``column <op> literal`` conjuncts of the
  filters above it — a page is skipped only when its directory zone
  (min/max over non-NULL, non-NaN values) proves no row of it matches;
  a page without a zone, and the tail, are always read, and the exact
  filter still runs over what was read.  The other columns then fetch
  only the pages covering those ranges (bisect on ``start``);
* appends go to an in-memory *tail* builder (new rows are hot by
  definition); an in-place ``set`` writes through to the page and widens
  its zone.  What still hydrates the whole table into memory: a value
  that is not of its page's kind or over-fills an ``object`` page
  (:class:`~repro.errors.PageCapacityError`), and ``move_rows``.

Structural mutations (``delete_slots``, ``truncate``) and ``clone()``
de-page the affected columns into plain in-memory builders:
they rewrite every slot anyway, and the dump on disk stays the immutable
snapshot the atomic-swap commit promised.  Serve-tier epoch pinning works
unchanged — a pinned snapshot keeps the `PagedTable` (and its page refs)
alive while writers mutate a hydrated clone.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.columns import Column, ColumnBuilder, ColumnRows
from repro.errors import PageCapacityError
from repro.relational.table import Table
from repro.storage.buffer_pool import BufferPool, PageRef
from repro.storage.pager import PageFile

__all__ = ["PagedColumnStore", "PagedTable"]

Ranges = List[Tuple[int, int]]  # ascending, disjoint ``[lo, hi)`` slot ranges

_ZONE_TESTS = {  # can a page whose values span [lo, hi] hold one that is <op> v
    "=": lambda lo, hi, v: lo <= v <= hi,
    "<": lambda lo, hi, v: lo < v,
    "<=": lambda lo, hi, v: lo <= v,
    ">": lambda lo, hi, v: hi > v,
    ">=": lambda lo, hi, v: hi >= v,
}


class PagedColumnStore:
    """ColumnBuilder-protocol column storage backed by pages (see module
    doc)."""

    __slots__ = (
        "kind", "pool", "file", "table_name", "name", "entries", "_starts",
        "_paged_rows", "_tail",
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

    # -- shape ----------------------------------------------------------------

    def __len__(self) -> int:
        return self._paged_rows + len(self._tail)

    def _ref_for(self, slot: int) -> PageRef:
        return self.entries[bisect_right(self._starts, slot) - 1]

    # -- mutation (ColumnBuilder protocol) ------------------------------------

    def append(self, value: Any) -> None:
        self._tail.append(value)

    def set(self, slot: int, value: Any) -> None:
        if not 0 <= slot < len(self):
            raise IndexError(f"slot {slot} out of range (size {len(self)})")
        if slot >= self._paged_rows:
            self._tail.set(slot - self._paged_rows, value)
        else:
            ref = self._ref_for(slot)
            self.pool.set_value(ref, slot - ref.start, value)

    def keep(self, mask) -> None:
        """Drop the slots where ``mask`` is False; the store de-pages (the
        tail holds everything that is left)."""
        values = self.snapshot().take(np.flatnonzero(mask)).to_pylist()
        self.clear()
        self._tail.rebuild(values)

    def clear(self) -> None:
        self.entries, self._starts, self._paged_rows = [], [], 0
        self._tail.clear()

    def copy(self) -> ColumnBuilder:
        """An independent *in-memory* builder with the same contents.

        Used by ``Table.clone()`` (serve-tier copy-on-write): the writer's
        clone is hydrated, readers pinned to older epochs keep reading
        the original pages.
        """
        return ColumnBuilder.from_column(self.snapshot())

    # -- reads (ColumnBuilder protocol) ---------------------------------------

    def get(self, slot: int) -> Any:
        if not 0 <= slot < len(self):
            raise IndexError(f"slot {slot} out of range (size {len(self)})")
        if slot >= self._paged_rows:
            return self._tail.get(slot - self._paged_rows)
        ref = self._ref_for(slot)
        return self.pool.get_values(ref).value(slot - ref.start)

    def prune(self, ranges: Ranges, op: str, value: Any) -> Ranges:
        """The parts of ``ranges`` (paged slots) that lie on pages whose
        zone does not rule out ``<op> value``."""
        test = _ZONE_TESTS.get(op)
        if test is None:
            return ranges
        out: Ranges = []
        for lo, hi in ranges:
            while lo < hi:
                ref = self._ref_for(lo)
                stop = min(hi, ref.start + ref.rows)
                if ref.zone is None or test(*ref.zone, value):
                    if out and out[-1][1] == lo:
                        out[-1] = (out[-1][0], stop)
                    else:
                        out.append((lo, stop))
                lo = stop
        return out

    def gather(self, ranges: Ranges) -> Tuple[Column, int]:
        """The slots of ``ranges`` as one column that shares no buffer with
        a frame or the tail, and the number of pages it was read from."""
        parts: List[Column] = []
        pages, paged = 0, self._paged_rows
        for lo, hi in ranges:
            while lo < min(hi, paged):
                ref = self._ref_for(lo)
                frame = self.pool.pin(ref)
                try:
                    stop = min(ref.rows, hi - ref.start)
                    parts.append(frame.column.slice(lo - ref.start, stop))
                finally:
                    self.pool.unpin(frame)
                pages += 1
                lo = ref.start + stop
            if hi > paged:
                parts.append(self._tail.snapshot().slice(max(lo, paged) - paged, hi - paged))
        return Column.concat(parts, self.kind), pages

    def pylist(self, start: int = 0, stop: Optional[int] = None) -> List[Any]:
        stop = len(self) if stop is None else min(stop, len(self))
        start = max(start, 0)
        return self.gather([(start, stop)])[0].to_pylist() if start < stop else []

    def snapshot(self) -> Column:
        """Whole-column materialization: gathered each time, never kept."""
        return self.gather([(0, len(self))])[0]

    def chunk_hashes(self, declared: str, tally=None, *, cached: bool = True) -> List[bytes]:
        """The digest's chunk hashes, as ``ColumnBuilder.chunk_hashes``
        defines them; computed from the pages each time, never cached."""
        return ColumnBuilder.from_column(self.snapshot()).chunk_hashes(declared, tally, cached=False)

    # -- accounting -----------------------------------------------------------

    def memory_bytes(self) -> int:
        """Resident bytes only: pooled frames of this column's pages and
        the in-memory tail."""
        resident = sum(self.pool.contains(ref.key) for ref in self.entries)
        return self._tail.memory_bytes() + resident * self.pool.page_size

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
        table.buffer_pool = pool
        table.adopt_columns(stores, num_rows)
        return table  # type: ignore[return-value]

    # -- paged-specific surface ----------------------------------------------

    @property
    def pages_total(self) -> int:
        return sum(
            len(s.entries) for s in self._columns if isinstance(s, PagedColumnStore)
        )

    def candidate_ranges(self, terms: Sequence[Tuple[int, str, Any]]) -> Ranges:
        """The slot ranges that can hold a row on which every ``(column
        index, op, literal)`` term is TRUE: all of them minus the pages a
        zone rules out.  Only a plain number is tested against a zone."""
        paged = self._columns[0]._paged_rows  # the same in every column
        ranges: Ranges = [(0, paged)] if paged else []
        for index, op, value in terms:
            if type(value) in (int, float):
                ranges = self._columns[index].prune(ranges, op, value)
        return ranges + ([(paged, len(self))] if paged < len(self) else [])

    def scan(self, ranges: Ranges) -> Tuple[ColumnRows, int]:
        """The rows of ``ranges`` as columns, and the pages read for them."""
        from repro.obs import runtime

        gathered = [store.gather(ranges) for store in self._columns]
        pages = sum(n for _, n in gathered)
        registry = runtime.get_registry()
        registry.counter(
            "repro_storage_pages_scanned_total", help="Pages read by paged table scans"
        ).inc(pages)
        registry.counter(
            "repro_storage_pages_pruned_total",
            help="Pages paged table scans did not read (zone tests, row bounds)",
        ).inc(self.pages_total - pages)
        return ColumnRows([c for c, _ in gathered], sum(hi - lo for lo, hi in ranges)), pages

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
        try:
            super().update_slot(slot, new_row)
        except PageCapacityError:
            # A page refused one value after the indexes took the new row
            # and earlier columns their values: hydrate, finish the writes.
            self.hydrate()
            for builder, value in zip(self._columns, new_row):
                builder.set(slot, value)

    def set_column(self, column, slots, values) -> None:
        try:
            super().set_column(column, slots, values)
        except PageCapacityError:  # the page is unchanged: hydrate, redo
            self.hydrate()
            super().set_column(column, slots, values)

    def move_rows(self, columns, src, dst) -> None:
        self.hydrate()
        super().move_rows(columns, src, dst)
