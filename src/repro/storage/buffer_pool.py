"""The buffer pool and the chunks that live behind it.

One :class:`BufferPool` fronts every page file of a database loaded with a
memory budget.  Frames hold *decoded* pages — a :class:`~repro.columns.Column`
whose fixed-width buffers are ``numpy.frombuffer`` views of the page
bytes — and are accounted at their on-disk ``page_size``: the budget
bounds how much of the dump may be resident at once, which is what makes
a dataset ≫ ``memory_budget_bytes`` queryable.

A :class:`PageChunk` is a column chunk
(:class:`~repro.columns.column.ColumnBuilder`) that is not resident: the
slices of the pages under its slots, pinned on every read and written
through :meth:`BufferPool.set_value`.  A 4 KiB int64/float64 page *is* one
chunk; a denser page (``bool``, a smaller page size, ``RPG4``) is sliced
by the chunks it spans.

Lifecycle of a page:

* **fault-in** — a miss reads the raw page (overlay slot if the page was
  ever written back, else the immutable base file), runs the
  ``page_read`` fault hook (the ``page_read_corrupt`` kind flips payload
  bytes *before* the CRC check), verifies magic, page number, the header
  CRC and the catalog directory CRC, decodes the page, and checks its
  chunk header (first row, rows, kind) against the directory;
* **pin/unpin** — readers pin the frame while slicing its column; pinned
  frames are never evicted;
* **write** — :meth:`BufferPool.set_value` replaces the frame's column by
  a copy with one slot changed (slices handed out earlier keep what they
  read), marks it dirty and widens the page's zone;
* **evict** — when occupancy exceeds the budget the least-recently-used
  unpinned frame is dropped; dirty frames are written back to the
  overlay first, as ``RPG5`` pages with a CRC of their own
  (``writebacks`` metric);
* **quarantine** — a failed check quarantines the page: every later read
  fails fast with :class:`~repro.errors.PageCorruptError` instead of
  re-reading bytes already known bad.  :meth:`repair` lifts the
  quarantine (used after the fault plan is cleared — the *dump* is never
  mutated by a read fault, so a clean re-read recovers);
* **close** — the pool closes every page file it has read from
  (:meth:`close`), or one of them when the table over it is let go of
  (:meth:`close_file`).

Hit/miss/eviction/write-back counters and occupancy/budget gauges are
exported through :mod:`repro.obs` by :meth:`publish` (called from
``snapshot()``, the stats CLI and the benches; counters are kept as
plain ints on the hot path).
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.columns import Column
from repro.columns.column import Chunk, keep_range
from repro.errors import PageCapacityError, PageCorruptError
from repro.storage.page import (
    HEADER_SIZE, JSON_PAGE_MAGIC, chunk_payload, decode_chunk, decode_page, encode_page,
)
from repro.storage.pager import OverlayFile, PageFile

__all__ = ["BufferPool", "Frame", "PageChunk", "PageRef"]

DEFAULT_MEMORY_BUDGET = 64 * 1024 * 1024

_ZONE_TESTS = {  # can a page whose values span [lo, hi] hold one that is <op> v
    "=": lambda lo, hi, v: lo <= v <= hi,
    "<": lambda lo, hi, v: lo < v,
    "<=": lambda lo, hi, v: lo <= v,
    ">": lambda lo, hi, v: hi > v,
    ">=": lambda lo, hi, v: hi >= v,
}


class PageRef:
    """Identity + codec context of one logical page.

    ``kind`` and ``zone`` come from the page directory: the column kind
    the payload must name, and ``(min, max)`` of the page's non-NULL,
    non-NaN values (``None``: unknown, never prune).  ``overlay_slot``
    migrates the page from the immutable base file to the session overlay
    the first time a dirty frame is written back.
    """

    __slots__ = (
        "file", "page_no", "table", "column", "start", "rows", "crc32",
        "kind", "zone", "overlay_slot",
    )

    def __init__(
        self,
        file: PageFile,
        page_no: int,
        table: str,
        column: str,
        start: int,
        rows: int,
        crc32: Optional[int],
        kind: str,
        zone: Optional[Tuple[Any, Any]] = None,
    ) -> None:
        self.file = file
        self.page_no = page_no
        self.table = table
        self.column = column
        self.start = start
        self.rows = rows
        self.crc32 = crc32
        self.kind = kind
        self.zone = zone
        self.overlay_slot: Optional[int] = None

    @property
    def key(self) -> Tuple[str, int]:
        return (self.file.path, self.page_no)

    def decode(self, raw: bytes, expect_crc: Optional[int]) -> Column:
        """The column chunk of this page's ``raw`` bytes, after every check:
        magic, page number, header CRC, ``expect_crc`` (the directory's, when
        given) and the chunk header against the directory entry.

        Raises:
            PageCorruptError: a check failed.
        """
        context = f"{self.table}.{self.column} in {self.file.path}"
        payload = decode_page(
            raw, self.page_no, self.file.page_size, expect_crc=expect_crc, context=context,
        )
        is_json = raw[:4] == JSON_PAGE_MAGIC
        doc, column = decode_chunk(payload, self.kind if is_json else None)
        if (doc["r"], doc["n"]) != (self.start, self.rows) or doc["kind"] not in (None, self.kind):
            raise PageCorruptError(
                f"page {self.page_no} of {self.table}.{self.column} chunk "
                f"header {doc['kind']} [{doc['r']},+{doc['n']}) disagrees with "
                f"directory {self.kind} [{self.start},+{self.rows})"
            )
        return column

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PageRef({self.table}.{self.column} page={self.page_no} "
            f"rows=[{self.start},{self.start + self.rows}))"
        )


class PageChunk:
    """A column chunk that is not resident (see module doc).

    ``slices`` are ``(page, lo, hi)``: page offsets ``[lo, hi)`` in slot
    order, together the chunk's ``rows`` slots; ``pages`` are their pages.
    ``hash`` and ``shared`` mean what they mean on a resident
    :class:`~repro.columns.column.Chunk`: a builder never writes a shared
    page chunk, it copies it into memory.
    """

    __slots__ = ("pool", "slices", "pages", "rows", "kind", "hash", "shared")

    resident = False

    def __init__(self, pool: "BufferPool", slices: List[Tuple[PageRef, int, int]]) -> None:
        self.pool = pool
        self.slices = slices
        self.pages = [ref for ref, _, _ in slices]
        self.rows = sum(hi - lo for _, lo, hi in slices)
        self.kind = slices[0][0].kind
        self.hash: Optional[bytes] = None
        self.shared = False

    @classmethod
    def over(cls, pool: "BufferPool", refs: List[PageRef]):
        """``chunk_at(lo, hi)`` for :meth:`ColumnBuilder.from_chunks`: the
        chunk of slots ``[lo, hi)`` of a column whose pages are ``refs``
        (contiguous, in slot order)."""
        starts = [ref.start for ref in refs]

        def chunk_at(lo: int, hi: int) -> "PageChunk":
            slices, i = [], bisect_right(starts, lo) - 1
            while i < len(refs) and refs[i].start < hi:
                ref, i = refs[i], i + 1
                end = min(hi, ref.start + ref.rows)
                slices.append((ref, max(lo, ref.start) - ref.start, end - ref.start))
            return cls(pool, slices)

        return chunk_at

    def _spans(self, lo: int, hi: int):
        """``(page, page lo, page hi, chunk lo)`` of each slice that
        chunk slots ``[lo, hi)`` overlap."""
        at = 0
        for ref, a, b in self.slices:
            s, e = max(lo, at), min(hi, at + b - a)
            if s < e:
                yield ref, a + s - at, a + e - at, s
            at += b - a

    def parts(self, lo: int, hi: int) -> List[Tuple[PageRef, Column]]:
        """Slots ``[lo, hi)`` as ``(page, column)`` pieces: per page pin,
        slice, unpin (a piece is a view of the frame's read-only column)."""
        out = []
        for ref, a, b, _ in self._spans(lo, hi):
            frame = self.pool.pin(ref)
            try:
                out.append((ref, frame.column.slice(a, b)))
            finally:
                self.pool.unpin(frame)
        return out

    def column(self) -> Column:
        """The chunk's slots, gathered into buffers of their own."""
        return Column.concat([part for _, part in self.parts(0, self.rows)], self.kind)

    def get(self, i: int) -> Any:
        ((ref, offset, _, _),) = self._spans(i, i + 1)
        return self.pool.get_values(ref).value(offset)

    def set(self, i: int, value: Any) -> None:
        """Write through to the page (``PageCapacityError``: it refused)."""
        ((ref, offset, _, _),) = self._spans(i, i + 1)
        self.pool.set_value(ref, offset, value)
        self.hash = None

    def prune(self, lo: int, hi: int, op: str, value: Any, out: List[Tuple[int, int]]) -> None:
        """Keep in ``out`` the parts of slots ``[lo, hi)`` (of the table, not
        the chunk) on pages whose zone does not rule out ``<op> value`` (a
        page without a zone: never ruled out)."""
        test = _ZONE_TESTS.get(op)
        for ref, a, b in self.slices:  # a page's first row is its slot
            s, e = max(lo, ref.start + a), min(hi, ref.start + b)
            if s < e and (test is None or ref.zone is None or test(*ref.zone, value)):
                keep_range(out, s, e)

    def copy(self) -> Chunk:
        """This chunk made resident: its slots in buffers of its own."""
        column = self.column()
        return Chunk(column.data, column.validity, self.rows)


class Frame:
    """One resident decoded page."""

    __slots__ = ("ref", "column", "dirty", "pins")

    def __init__(self, ref: PageRef, column: Column) -> None:
        self.ref = ref
        self.column = column
        self.dirty = False
        self.pins = 0


class BufferPool:
    """See module docstring."""

    def __init__(
        self,
        memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET,
        *,
        page_size: int = 4096,
    ) -> None:
        self.memory_budget_bytes = int(memory_budget_bytes)
        self.page_size = page_size
        self._frames: "OrderedDict[Tuple[str, int], Frame]" = OrderedDict()
        self._quarantined: Dict[Tuple[str, int], str] = {}
        self._files: Set[PageFile] = set()
        self._overlay = OverlayFile(page_size)
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    # -- page access ---------------------------------------------------------

    def pin(self, ref: PageRef) -> Frame:
        """Fault the page in if needed, pin it, and return the frame."""
        with self._lock:
            key = ref.key
            reason = self._quarantined.get(key)
            if reason is not None:
                raise PageCorruptError(
                    f"page {ref.page_no} of {ref.table}.{ref.column} is "
                    f"quarantined: {reason}"
                )
            frame = self._frames.get(key)
            if frame is not None:
                self.hits += 1
                self._frames.move_to_end(key)
                frame.pins += 1
                return frame
            self.misses += 1
            frame = Frame(ref, self._fault_in(ref))
            frame.pins = 1
            self._frames[key] = frame
            self._evict_to_budget()
            return frame

    def unpin(self, frame: Frame) -> None:
        with self._lock:
            if frame.pins > 0:
                frame.pins -= 1

    def get_values(self, ref: PageRef) -> Column:
        """Pin, grab the decoded column, unpin.  Its buffers are read-only
        (writes go through :meth:`set_value`)."""
        frame = self.pin(ref)
        try:
            return frame.column
        finally:
            self.unpin(frame)

    def set_value(self, ref: PageRef, offset: int, value: Any) -> None:
        """Write-through one value of a resident page (marks it dirty
        unless the page's bytes stay what they are).

        Raises:
            PageCapacityError: the value is not of the page's kind, or the
                re-encoded chunk over-fills the page (an ``object`` page,
                or one loaded from a denser JSON page); nothing is changed
                (the column builder then copies the chunk into memory).
        """
        frame = self.pin(ref)
        try:
            with self._lock:
                column, where = frame.column, f"row {ref.start + offset} of {ref.table}.{ref.column}"
                probe = Column.from_values([value], column.kind)
                if probe.kind != column.kind:
                    raise PageCapacityError(f"value at {where} is not {column.kind}")
                data, valid = column.data.copy(), np.ones(len(column), dtype=np.bool_)
                if column.validity is not None:
                    valid &= column.validity
                data[offset], valid[offset] = probe.data[0], value is not None
                old, column = column, Column(data, valid)
                payload = chunk_payload(ref.start, column)
                if payload == chunk_payload(ref.start, old):
                    return  # the same page bytes: nothing to write back
                size = HEADER_SIZE + len(payload)
                if size > self.page_size:
                    raise PageCapacityError(
                        f"updated value at {where} over-fills page {ref.page_no} "
                        f"({size} > {self.page_size} bytes)"
                    )
                frame.column, frame.dirty = column, True
                if ref.zone is not None and value is not None and value == value:
                    ref.zone = (min(ref.zone[0], value), max(ref.zone[1], value))
        finally:
            self.unpin(frame)

    # -- internals -----------------------------------------------------------

    def _fault_in(self, ref: PageRef) -> Column:
        from repro.faults import injector
        from repro.obs import runtime

        if ref.overlay_slot is not None:
            raw = self._overlay.read_slot(ref.overlay_slot)
            expect = None  # overlaid pages carry their own header CRC
        else:
            self._files.add(ref.file)
            raw = ref.file.read_page(ref.page_no)
            if injector.page_read_hook(ref.table):
                # Flip payload bytes *before* the CRC check — the model of
                # a disk/DMA corruption on the read path.
                raw = bytearray(raw)
                for i in range(HEADER_SIZE, min(HEADER_SIZE + 4, len(raw))):
                    raw[i] ^= 0xFF
                raw = bytes(raw)
            expect = ref.crc32
        try:
            return ref.decode(raw, expect)
        except PageCorruptError as exc:
            self._quarantined[ref.key] = str(exc)
            runtime.get_registry().counter(
                "repro_storage_decode_errors_total",
                help="Page fault-ins that failed a check and quarantined the page",
            ).inc()
            raise

    def _evict_to_budget(self) -> None:
        budget_frames = max(1, self.memory_budget_bytes // self.page_size)
        while len(self._frames) > budget_frames:
            victim_key = None
            for key, frame in self._frames.items():
                if frame.pins == 0:
                    victim_key = key
                    break
            if victim_key is None:
                return  # everything pinned: run over budget rather than fail
            frame = self._frames.pop(victim_key)
            if frame.dirty:
                self._write_back(frame)
            self.evictions += 1

    def _write_back(self, frame: Frame) -> None:
        ref = frame.ref
        payload = chunk_payload(ref.start, frame.column)
        raw = encode_page(ref.page_no, payload, self.page_size)
        if ref.overlay_slot is None:
            ref.overlay_slot = self._overlay.allocate()
        self._overlay.write_slot(ref.overlay_slot, raw)
        self.writebacks += 1

    # -- maintenance ---------------------------------------------------------

    def flush(self) -> int:
        """Write every dirty frame back to the overlay (frames stay
        resident).  Returns the number of pages written."""
        with self._lock:
            count = 0
            for frame in self._frames.values():
                if frame.dirty:
                    self._write_back(frame)
                    frame.dirty = False
                    count += 1
            return count

    def close_file(self, file: PageFile) -> None:
        """Drop every frame of one page file without write-back and close
        it (the table over it was let go of)."""
        with self._lock:
            for key in [k for k in self._frames if k[0] == file.path]:
                del self._frames[key]
            for key in [k for k in self._quarantined if k[0] == file.path]:
                del self._quarantined[key]
            self._files.discard(file)
        file.close()

    def repair(self) -> int:
        """Lift every quarantine (after the corruption source is gone);
        returns how many pages were quarantined."""
        with self._lock:
            count = len(self._quarantined)
            self._quarantined.clear()
            return count

    def quarantined_pages(self) -> List[Tuple[str, int]]:
        with self._lock:
            return sorted(self._quarantined)

    def close(self) -> None:
        """Drop every frame and close the overlay and every page file read
        through the pool (idempotent)."""
        with self._lock:
            self._frames.clear()
            self._quarantined.clear()
            self._overlay.close()
            files, self._files = self._files, set()
        for file in files:
            file.close()

    # -- accounting / observability ------------------------------------------

    def occupancy_bytes(self) -> int:
        with self._lock:
            return len(self._frames) * self.page_size

    def resident_keys(self) -> List[Tuple[str, int]]:
        with self._lock:
            return list(self._frames)

    def contains(self, key: Tuple[str, int]) -> bool:
        with self._lock:
            return key in self._frames

    def snapshot(self) -> Dict[str, int]:
        """Counters + occupancy as a plain dict (also published to obs)."""
        with self._lock:
            snap = {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "writebacks": self.writebacks,
                "resident_pages": len(self._frames),
                "occupancy_bytes": len(self._frames) * self.page_size,
                "budget_bytes": self.memory_budget_bytes,
                "quarantined_pages": len(self._quarantined),
            }
        self.publish()
        return snap

    def publish(self, registry=None) -> None:
        """Export pool metrics into the (or a given) metrics registry."""
        from repro.obs import runtime

        reg = registry if registry is not None else runtime.get_registry()
        with self._lock:
            values = {
                "hits": float(self.hits),
                "misses": float(self.misses),
                "evictions": float(self.evictions),
                "writebacks": float(self.writebacks),
            }
            occupancy = float(len(self._frames) * self.page_size)
        for name, value in values.items():
            reg.gauge(
                f"repro_buffer_pool_{name}_total",
                help=f"Buffer pool {name} since pool creation",
            ).set(value)
        reg.gauge(
            "repro_buffer_pool_occupancy_bytes",
            help="Bytes of resident pages (frames x page_size)",
        ).set(occupancy)
        reg.gauge(
            "repro_buffer_pool_budget_bytes",
            help="Configured memory_budget_bytes of the pool",
        ).set(float(self.memory_budget_bytes))
