"""Typed columns: a NumPy value buffer plus a validity (non-NULL) mask.

A :class:`Column` is the unit of columnar storage: an immutable
*view* of a 1-D NumPy array together with an optional boolean validity
mask (``True`` = value present, ``False`` = SQL NULL).

Four physical *kinds* cover the engine's type system:

==========  =================  ========================================
kind        NumPy dtype        engine types
==========  =================  ========================================
``int64``   ``np.int64``       INTEGER (overflowing ints fall back to
                               ``object``)
``float64`` ``np.float64``     FLOAT
``bool``    ``np.bool_``       BOOLEAN
``object``  ``object``         TEXT, DATE, and any fallback
==========  =================  ========================================

NULLs in the fixed-width kinds are stored as a sentinel (0 / 0.0 / False)
with the validity bit cleared; ``object`` columns store ``None`` directly
*and* clear the bit, so every kind answers NULL questions the same way.

:class:`ColumnBuilder` is a table column as it is stored: a list of
chunks on one grid — chunk ``c`` always holds slots ``[c·S, (c+1)·S)``,
``S = CHUNK_SLOTS`` — each either resident (a :class:`Chunk`: value
buffer + validity mask) or not (a :class:`~repro.storage.buffer_pool.PageChunk`:
the page slices that hold its slots).  The grid is the unit of everything
that copies or checks: a clone shares every chunk and a write copies only
the chunk it lands in, a page that refuses a value makes only its chunk
resident, and the content digest hashes chunk by chunk and keeps each hash
with its chunk.  A :meth:`~ColumnBuilder.snapshot` of a one-chunk column
is a zero-copy view; one of several chunks concatenates them.
"""

from __future__ import annotations

import datetime
import hashlib
import struct
import sys
from typing import Any, Iterable, List, Optional, Sequence

import numpy as np

from repro.errors import PageCapacityError

__all__ = ["CHUNK_SLOTS", "Chunk", "Column", "ColumnBuilder", "KINDS", "kind_for_type"]

KINDS = ("int64", "float64", "bool", "object")

_DTYPES = {
    "int64": np.dtype(np.int64),
    "float64": np.dtype(np.float64),
    "bool": np.dtype(np.bool_),
    "object": np.dtype(object),
}

_FILL = {"int64": 0, "float64": 0.0, "bool": False, "object": None}

# Slots per column chunk: 500 int64/float64 values and their validity
# bitmap are one 4 KiB page, and the content digest (DESIGN 5h) hashes a
# column chunk by chunk.
CHUNK_SLOTS = 500

# kind -> little-endian dtype of a buffer's bytes on the wire and under the digest.
WIRE_DTYPES = {
    "int64": np.dtype("<i8"),
    "float64": np.dtype("<f8"),
    "bool": np.dtype(np.bool_),
}

_NONE_TYPE = type(None)

# Python types that belong in a fixed-width kind as they are (``bool`` is
# its own type, so it never passes for a number here); anything else —
# NumPy scalars, subclasses — takes the per-value check of ``_fits_kind``.
# An int beyond int64 still overflows in ``np.asarray`` and falls back.
_EXACT_TYPES = {
    "int64": {int, _NONE_TYPE},
    "float64": {float, int, _NONE_TYPE},
    "bool": {bool, _NONE_TYPE},
}

# Engine DataType.name -> physical kind.
_KIND_BY_TYPE_NAME = {
    "INTEGER": "int64",
    "FLOAT": "float64",
    "BOOLEAN": "bool",
    "TEXT": "object",
    "DATE": "object",
}


def kind_for_type(type_name: str) -> str:
    """Physical column kind for an engine type name (unknown -> object)."""
    return _KIND_BY_TYPE_NAME.get(type_name, "object")


def _kind_of_dtype(dtype: np.dtype) -> str:
    if dtype == np.int64:
        return "int64"
    if dtype == np.float64:
        return "float64"
    if dtype == np.bool_:
        return "bool"
    return "object"


class Column:
    """An immutable typed array view plus validity mask (see module doc).

    Args:
        data: 1-D NumPy array of the values (sentinel-filled at NULLs).
        validity: boolean mask, ``True`` where a value is present;
            ``None`` means every slot is valid.
    """

    __slots__ = ("data", "validity")

    def __init__(self, data: np.ndarray, validity: Optional[np.ndarray] = None) -> None:
        self.data = data
        if validity is not None and bool(validity.all()):
            validity = None  # normalize: all-valid is represented as None
        self.validity = validity

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_values(cls, values: Sequence[Any], kind: str = "object") -> "Column":
        """Build a column from Python values (``None`` = NULL).

        A fixed-width ``kind`` falls back to ``object`` when the values do
        not fit it exactly (e.g. an INTEGER overflowing int64, or a stray
        float) — never silently truncates.
        """
        n = len(values)
        # One C-speed pass over the value types answers both questions the
        # per-value scans below would: is there a NULL, and do the exact
        # Python types present belong in ``kind``.
        types = set(map(type, values))
        validity: Optional[np.ndarray] = None
        if _NONE_TYPE in types:
            validity = np.fromiter(
                (v is not None for v in values), dtype=np.bool_, count=n
            )
        if kind == "object":
            data = np.empty(n, dtype=object)
            for i, v in enumerate(values):
                data[i] = v
            return cls(data, validity)
        if not types <= _EXACT_TYPES[kind] and not _fits_kind(values, kind):
            return cls.from_values(values, "object")
        fill = _FILL[kind]
        try:
            plain = values if validity is None else [fill if v is None else v for v in values]
            data = np.asarray(plain, dtype=_DTYPES[kind])
        except (ValueError, TypeError, OverflowError):
            return cls.from_values(values, "object")
        return cls(data, validity)

    @classmethod
    def concat(cls, parts: Sequence["Column"], kind: str) -> "Column":
        """One column of ``parts`` in order, in buffers of its own (an
        empty list is an empty ``kind`` column; parts of differing kinds —
        e.g. a tail promoted to ``object`` — join as ``object``)."""
        if not parts:
            return cls.from_values([], kind)
        if len({part.kind for part in parts}) > 1:
            return cls.from_values([v for part in parts for v in part.to_pylist()])
        data = np.concatenate([part.data for part in parts])
        if all(part.validity is None for part in parts):
            return cls(data)
        masks = [
            np.ones(len(part), dtype=np.bool_) if part.validity is None else part.validity
            for part in parts
        ]
        return cls(data, np.concatenate(masks))

    # -- shape / kind ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.data)

    @property
    def kind(self) -> str:
        return _kind_of_dtype(self.data.dtype)

    @property
    def null_count(self) -> int:
        if self.validity is None:
            return 0
        return int(len(self.validity) - np.count_nonzero(self.validity))

    # -- element access -------------------------------------------------------

    def value(self, i: int) -> Any:
        """Python value at ``i`` (``None`` for NULL)."""
        if self.validity is not None and not self.validity[i]:
            return None
        v = self.data[i]
        return v if self.data.dtype == object else v.item()

    def to_pylist(self, start: int = 0, stop: Optional[int] = None) -> List[Any]:
        """Python values of ``[start, stop)`` (NULLs as ``None``)."""
        if stop is None:
            stop = len(self.data)
        out = self.data[start:stop].tolist()
        if self.validity is not None:
            for i in np.flatnonzero(~self.validity[start:stop]):
                out[i] = None
        return out

    # -- bulk transforms -------------------------------------------------------

    def slice(self, start: int, stop: int) -> "Column":
        """Slots ``[start, stop)`` as views of this column's buffers."""
        validity = self.validity
        return Column(
            self.data[start:stop], None if validity is None else validity[start:stop]
        )

    def take(self, indices) -> "Column":
        """Gather rows by position (this one copies, by construction)."""
        idx = np.asarray(indices, dtype=np.intp)
        return Column(
            self.data[idx],
            None if self.validity is None else self.validity[idx],
        )

    def detached(self) -> "Column":
        """This column if its buffers are its own, else a copy of it.

        A :meth:`ColumnBuilder.snapshot` is a view of a live heap buffer
        (``ndarray.base`` set); whoever keeps a column beyond the execution
        that read it detaches it first, so a later in-place write to the
        heap cannot change it.
        """
        data, validity = self.data, self.validity
        if data.base is None and (validity is None or validity.base is None):
            return self
        return Column(data.copy(), None if validity is None else validity.copy())

    def as_float64(self, null_fill: float = 0.0) -> np.ndarray:
        """The values as a float64 array, NULLs replaced by ``null_fill``.

        Zero-copy when the column is already float64 with no NULLs — the
        path the window kernel rides.
        """
        if self.data.dtype == np.float64 and self.validity is None:
            return self.data
        if self.data.dtype == object:
            return np.asarray(
                [null_fill if v is None else float(v) for v in self.data],
                dtype=np.float64,
            )
        out = self.data.astype(np.float64)
        if self.validity is not None:
            out[~self.validity] = null_fill
        return out

    # -- accounting -----------------------------------------------------------

    def memory_bytes(self) -> int:
        """Buffer bytes held (object columns add a payload estimate)."""
        total = self.data.nbytes
        if self.validity is not None:
            total += self.validity.nbytes
        if self.data.dtype == object and len(self.data):
            sample = self.data[: min(len(self.data), 256)]
            per = sum(0 if v is None else sys.getsizeof(v) for v in sample) / len(sample)
            total += int(per * len(self.data))
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Column(kind={self.kind}, len={len(self)}, nulls={self.null_count})"


def _fits_kind(values: Sequence[Any], kind: str) -> bool:
    """Whether every non-NULL value belongs in ``kind`` without coercion."""
    if kind == "int64":
        lo, hi = -(2**63), 2**63 - 1
        return all(
            v is None
            or (isinstance(v, int) and not isinstance(v, bool) and lo <= v <= hi)
            for v in values
        )
    if kind == "float64":
        return all(
            v is None
            or (isinstance(v, (int, float)) and not isinstance(v, bool))
            for v in values
        )
    if kind == "bool":
        return all(v is None or isinstance(v, bool) for v in values)
    return True


def _canonical(value: Any) -> bytes:
    """Length-prefixed, type-tagged bytes of one ``object`` column value."""
    if value is None:
        body = b"N"
    elif isinstance(value, bool):
        body = b"b1" if value else b"b0"
    elif isinstance(value, int):
        body = b"i%d" % value
    elif isinstance(value, float):
        body = b"f" + struct.pack("<d", value)
    elif isinstance(value, str):
        body = b"s" + value.encode("utf-8")
    elif isinstance(value, datetime.date):
        body = b"d" + value.isoformat().encode("ascii")
    else:
        body = b"r" + repr(value).encode("utf-8")
    return struct.pack("<I", len(body)) + body


def _chunk_payload(data: np.ndarray, validity: Optional[np.ndarray], declared: str) -> bytes:
    """The bytes one chunk is hashed as, a function of values and NULLs
    only (``validity`` None: no NULL): an ``object`` chunk whose values fit
    the ``declared`` kind hashes as that kind's buffer would (a promoted
    chunk that need not be)."""
    if data.dtype == object:
        values = data.tolist()  # NULL is None in an object buffer
        fixed = None if declared == "object" else Column.from_values(values, declared)
        if fixed is None or fixed.kind != declared:
            return b"object" + b"".join(map(_canonical, values))
        data, validity = fixed.data, fixed.validity
    n = len(data)
    if validity is None:  # what packbits makes of n True bits
        bits = b"\xff" * (n // 8) + (bytes([(1 << n % 8) - 1]) if n % 8 else b"")
    else:
        bits = np.packbits(validity, bitorder="little").tobytes()
    return (
        declared.encode("ascii")
        + data.astype(WIRE_DTYPES[declared], copy=False).tobytes()
        + bits
    )


def keep_range(out: List[tuple], lo: int, hi: int) -> None:
    """Add slots ``[lo, hi)`` to the ascending ranges ``out``, joined to the
    last one when they touch (what zone pruning does with what it keeps)."""
    if out and out[-1][1] == lo:
        out[-1] = (out[-1][0], hi)
    else:
        out.append((lo, hi))


class Chunk:
    """A resident column chunk: the first ``rows`` slots of a value buffer
    and a validity mask (a builder's last chunk has room for
    ``CHUNK_SLOTS``, so appends fill it in place).

    ``hash`` is the chunk's digest hash once asked for, ``None`` again after
    any write.  ``shared`` marks a chunk a clone shares: it is never written
    again, a builder copies it first (:meth:`ColumnBuilder.copy`).
    """

    __slots__ = ("data", "validity", "rows", "hash", "shared")

    resident = True
    pages: Sequence[Any] = ()  # no page holds a resident chunk

    def __init__(self, data: np.ndarray, validity: Optional[np.ndarray], rows: int) -> None:
        self.data = data
        self.validity = np.ones(len(data), dtype=np.bool_) if validity is None else validity
        self.rows = rows
        self.hash: Optional[bytes] = None
        self.shared = False

    @property
    def kind(self) -> str:
        return _kind_of_dtype(self.data.dtype)

    # -- reads ----------------------------------------------------------------

    def column(self) -> Column:
        """The chunk's slots as views of its buffers."""
        return Column(self.data[: self.rows], self.validity[: self.rows])

    def get(self, i: int) -> Any:
        if not self.validity[i]:
            return None
        v = self.data[i]
        return v if self.data.dtype == object else v.item()

    # -- writes (only by the builder that owns the chunk) ----------------------

    # The writers return True when the chunk had to turn ``object`` (e.g.
    # for an INTEGER beyond int64: exact values, no fixed width).

    def set(self, i: int, value: Any) -> bool:
        self.hash = None
        self.validity[i] = value is not None
        if value is None:
            self.data[i] = _FILL[self.kind]
            return False
        try:
            self.data[i] = value
            return False
        except (OverflowError, ValueError, TypeError):
            self._promote_to_object()
            self.data[i] = value
            return True

    def assign(self, at, data: np.ndarray, validity) -> bool:
        """Write values and NULL bits over the slots ``at`` (a slice or an
        index array)."""
        self.hash = None
        promote = data.dtype == object and self.data.dtype != object
        if promote:
            self._promote_to_object()
        self.data[at] = data
        self.validity[at] = validity
        return promote

    def copy(self) -> "Chunk":
        """A chunk of its own with the same slots and capacity."""
        return Chunk(self.data.copy(), self.validity.copy(), self.rows)

    def put(self, column: "Column") -> None:
        """Append ``column``'s values after the chunk's slots (it has room)."""
        valid = True if column.validity is None else column.validity
        self.assign(slice(self.rows, self.rows + len(column)), column.data, valid)
        self.rows += len(column)

    def _promote_to_object(self) -> None:
        data = np.empty(len(self.data), dtype=object)
        data[: self.rows] = self.column().to_pylist()
        self.data = data


class ColumnBuilder:
    """One table column as a list of chunks (see module doc).

    ``chunks[c]`` holds slots ``[c·CHUNK_SLOTS, (c+1)·CHUNK_SLOTS)``, so
    every chunk but the last is full (read them; write through the
    builder).  A chunk is a resident :class:`Chunk` or a
    :class:`~repro.storage.buffer_pool.PageChunk`, whose reads pin pages
    (``parts``, ``prune``); both answer ``column``, ``get``, ``set`` and
    ``copy``.  A write goes to the chunk it lands in:
    a shared chunk is copied first, a page chunk writes through to its
    page, and one whose page refuses the value (``PageCapacityError``, the
    page unchanged) is copied into memory and written there.
    """

    __slots__ = ("kind", "chunks", "_size", "_pages")

    def __init__(self, kind: str) -> None:
        if kind not in KINDS:
            raise ValueError(f"unknown column kind {kind!r}")
        self.kind = kind  # and that of new chunks: object once any chunk was
        self.chunks: List[Any] = []
        self._size = 0
        self._pages: Optional[int] = 0  # see pages; None: to be counted

    @classmethod
    def for_type(cls, type_name: str) -> "ColumnBuilder":
        return cls(kind_for_type(type_name))

    @classmethod
    def from_column(cls, column: Column) -> "ColumnBuilder":
        """A builder over ``column``'s values (copied)."""
        out = cls(column.kind)
        out.extend(column)
        return out

    @classmethod
    def from_chunks(cls, kind: str, rows: int, chunk_at) -> "ColumnBuilder":
        """A builder of ``rows`` slots whose chunk over slots ``[lo, hi)``
        is ``chunk_at(lo, hi)``."""
        out = cls(kind)
        out.chunks = [
            chunk_at(lo, min(lo + CHUNK_SLOTS, rows)) for lo in range(0, rows, CHUNK_SLOTS)
        ]
        out._size, out._pages = rows, None
        return out

    def __len__(self) -> int:
        return self._size

    @property
    def pages(self) -> int:
        """How many pages hold the non-resident chunks (0 in memory);
        counted once per change of residency."""
        if self._pages is None:
            self._pages = len({page for chunk in self.chunks for page in chunk.pages})
        return self._pages

    # -- mutation -------------------------------------------------------------

    def _own(self, c: int) -> Chunk:
        """Chunk ``c`` as a resident chunk no one else holds: a shared or a
        page chunk is replaced by a copy first."""
        chunk = self.chunks[c]
        if not chunk.resident:
            self._pages = None
        if chunk.shared or not chunk.resident:
            chunk = self.chunks[c] = chunk.copy()
        return chunk

    def extend(self, column: Column) -> None:
        """Append ``column``'s values (copied).  A resident last chunk no
        clone shares takes what fits in place; a shared, paged or full
        one is copied out together with the new values.  The rest fill new
        chunks, a partial last one with room for :data:`CHUNK_SLOTS`
        slots, so the next small append writes in place too."""
        if not len(column):
            return  # the last chunk stays as it is, on its pages or not
        if self.kind == "object" and column.kind != "object":
            column = Column.from_values(column.to_pylist())
        held = self._size % CHUNK_SLOTS
        if held:
            last = self.chunks[-1]
            room = min(CHUNK_SLOTS - held, len(column))
            if (last.resident and not last.shared and len(last.data) >= held + room
                    and last.data.dtype == column.data.dtype):
                last.put(column.slice(0, room))
                self._size += room
                column = column.slice(room, len(column))
            else:
                start = self._size - held
                column = Column.concat([self.gather([(start, self._size)])[0], column], self.kind)
                del self.chunks[-1]
                self._size, self._pages = start, None
        for lo in range(0, len(column), CHUNK_SLOTS):  # each chunk with room for CHUNK_SLOTS
            self.chunks.append(Chunk(np.empty(CHUNK_SLOTS, dtype=column.data.dtype), None, 0))
            self.chunks[-1].put(column.slice(lo, lo + CHUNK_SLOTS))
        self._size += len(column)
        if column.kind == "object":
            self.kind = "object"

    def insert(self, slot: int, column: Column) -> None:
        """Put ``column``'s values before ``slot``; later slots move up.
        The chunks from ``slot``'s on are rebuilt, so a chunk's slots stay
        a function of its number (at the end it is an :meth:`extend`)."""
        if slot < self._size:
            start = slot - slot % CHUNK_SLOTS
            tail = self.gather([(start, self._size)])[0]
            at = slot - start
            parts = [tail.slice(0, at), column, tail.slice(at, len(tail))]
            column = Column.concat(parts, self.kind)
            del self.chunks[start // CHUNK_SLOTS:]
            self._size, self._pages = start, None
        self.extend(column)

    def append(self, value: Any) -> None:
        self.extend(Column.from_values([value], self.kind))

    def set(self, slot: int, value: Any) -> None:
        if not 0 <= slot < self._size:
            raise IndexError(f"slot {slot} out of range (size {self._size})")
        c, i = divmod(slot, CHUNK_SLOTS)
        chunk = self.chunks[c]
        if chunk.shared:
            chunk = self._own(c)
        try:
            promoted = chunk.set(i, value)
        except PageCapacityError:
            promoted = self._own(c).set(i, value)
        if promoted:
            self.kind = "object"

    def rebuild(self, values: Iterable[Any]) -> None:
        """Replace all contents."""
        self.clear()
        self.extend(Column.from_values(list(values), self.kind))

    def clear(self) -> None:
        self.chunks = []
        self._size = self._pages = 0

    def write(self, slots: np.ndarray, column: Column) -> None:
        """Write ``column``'s values and NULLs over ``slots`` (an index
        array): a resident chunk takes its part in one assignment (a shared
        one is copied first), a page chunk takes each value through
        :meth:`set`."""
        if not len(slots):
            return
        if not (0 <= slots.min() and slots.max() < self._size):
            raise IndexError(f"slots {slots.min()}..{slots.max()} out of range (size {self._size})")
        valid = np.ones(len(column), np.bool_) if column.validity is None else column.validity
        chunk_of = slots // CHUNK_SLOTS
        for part in np.split(np.arange(len(slots)), np.flatnonzero(np.diff(chunk_of)) + 1):
            c = int(chunk_of[part[0]])
            if not self.chunks[c].resident:
                for j in part.tolist():
                    self.set(int(slots[j]), column.value(j))
            elif self._own(c).assign(slots[part] - c * CHUNK_SLOTS, column.data[part], valid[part]):
                self.kind = "object"

    def keep(self, mask: np.ndarray) -> None:
        """Drop the slots where ``mask`` is False; later slots move down.
        The chunks from the first dropped slot's on are rebuilt, so a
        chunk's slots stay a function of its number."""
        start = int(np.argmin(mask)) // CHUNK_SLOTS * CHUNK_SLOTS
        tail = self.gather([(start, self._size)])[0].take(np.flatnonzero(mask[start:]))
        del self.chunks[start // CHUNK_SLOTS:]
        self._size, self._pages = start, None
        self.extend(tail)

    def copy(self) -> "ColumnBuilder":
        """A builder sharing every chunk: a pointer copy per chunk.

        The copy-on-write primitive of the concurrent serving tier: both
        builders mark the chunks shared, so whichever writes a chunk first
        copies that one chunk, and readers pinned to an older epoch keep
        seeing the original untouched.
        """
        for chunk in self.chunks:
            chunk.shared = True
        out = ColumnBuilder(self.kind)
        out.chunks = list(self.chunks)
        out._size, out._pages = self._size, self._pages
        return out

    # -- reads ----------------------------------------------------------------

    def get(self, slot: int) -> Any:
        if not 0 <= slot < self._size:
            raise IndexError(f"slot {slot} out of range (size {self._size})")
        c, i = divmod(slot, CHUNK_SLOTS)
        return self.chunks[c].get(i)

    def gather(self, ranges: Iterable[tuple]) -> tuple:
        """The slots of the ascending ``ranges`` as one column, and the
        number of pages it was read from.  A range inside one resident
        chunk is a view of it; anything else is a copy sharing no buffer
        with a chunk or a pool frame."""
        datas: List[np.ndarray] = []
        masks: List[np.ndarray] = []
        pages, last = 0, None
        for lo, hi in ranges:
            while lo < hi:  # chunk by chunk, [off, stop) relative to the chunk
                c, off = divmod(lo, CHUNK_SLOTS)
                stop = min(hi - lo + off, CHUNK_SLOTS)
                lo += stop - off
                chunk = self.chunks[c]
                if chunk.resident:
                    datas.append(chunk.data[off:stop])
                    masks.append(chunk.validity[off:stop])
                    last = None
                    continue
                for page, part in chunk.parts(off, stop):
                    datas.append(part.data)
                    masks.append(part.validity)  # None: all valid
                    if page is not last:
                        pages += 1
                    last = page
        if len(datas) == 1 and not pages:
            return Column(datas[0], masks[0]), 0
        if not datas or len({data.dtype for data in datas}) > 1:  # empty, or a promoted chunk
            parts = [Column(data, mask) for data, mask in zip(datas, masks)]
            return Column.concat(parts, self.kind), pages
        if all(mask is None for mask in masks):
            return Column(np.concatenate(datas)), pages
        masks = [np.ones(len(d), np.bool_) if m is None else m for d, m in zip(datas, masks)]
        return Column(np.concatenate(datas), np.concatenate(masks)), pages

    def pylist(self, start: int = 0, stop: Optional[int] = None) -> List[Any]:
        stop = self._size if stop is None else min(stop, self._size)
        return self.gather([(start, stop)])[0].to_pylist() if start < stop else []

    def snapshot(self) -> Column:
        """The whole column: a zero-copy view when it is one resident
        chunk, else the chunks concatenated."""
        return self.gather([(0, self._size)])[0]

    def prune(self, ranges: List[tuple], op: str, value: Any) -> List[tuple]:
        """The parts of ``ranges`` whose chunks cannot rule out ``<op>
        value``: a page chunk tests its pages' zones, a resident chunk
        keeps its slots."""
        if not self.pages:
            return ranges
        out: List[tuple] = []
        for lo, hi in ranges:
            c = lo // CHUNK_SLOTS
            while lo < hi:
                stop, chunk = min(hi, (c + 1) * CHUNK_SLOTS), self.chunks[c]
                if chunk.resident:  # no zone: any of its slots may match
                    keep_range(out, lo, stop)
                else:
                    chunk.prune(lo, stop, op, value, out)
                lo, c = stop, c + 1
        return out

    def chunk_hashes(
        self, declared: str, tally: Optional[List[int]] = None, *, cached: bool = True
    ) -> List[bytes]:
        """SHA-256 of each chunk's values and NULLs; ``declared`` is the kind
        of the column's schema type, ``tally`` (``[chunks, bytes]``) counts
        what was hashed.  A chunk keeps its hash until written;
        ``cached=False`` rehashes every chunk and keeps nothing — the audit."""
        hashes = []
        for chunk in self.chunks:
            digest = chunk.hash if cached else None
            if digest is None:
                if chunk.resident:
                    data, validity = chunk.data[: chunk.rows], chunk.validity[: chunk.rows]
                else:
                    column = chunk.column()
                    data, validity = column.data, column.validity
                payload = _chunk_payload(data, validity, declared)
                digest = hashlib.sha256(payload).digest()
                if tally is not None:
                    tally[0] += 1
                    tally[1] += len(payload)
                if cached:
                    chunk.hash = digest
            hashes.append(digest)
        return hashes

    def memory_bytes(self) -> int:
        """Bytes of the resident chunks (a page chunk holds none: its
        frames are the buffer pool's)."""
        return sum(c.column().memory_bytes() for c in self.chunks if c.resident)
