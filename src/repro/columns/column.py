"""Typed columns: a NumPy value buffer plus a validity (non-NULL) mask.

A :class:`Column` is the unit of columnar storage: an immutable
*view* of a 1-D NumPy array together with an optional boolean validity
mask (``True`` = value present, ``False`` = SQL NULL).  A table's
:meth:`~ColumnBuilder.snapshot` is zero-copy — both the value buffer and
the mask are NumPy views — which is what lets the window strategies and
the parallel partitioner read the heap's measure buffer without
re-marshalling.

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

:class:`ColumnBuilder` is the mutable, amortised-append companion used by
:class:`~repro.relational.table.Table` for its heap storage; its
:meth:`~ColumnBuilder.snapshot` hands out zero-copy :class:`Column` views
of the live buffer.
"""

from __future__ import annotations

import datetime
import hashlib
import struct
import sys
from typing import Any, Iterable, List, Optional, Sequence

import numpy as np

__all__ = ["CHUNK_SLOTS", "Column", "ColumnBuilder", "KINDS", "hash_chunks", "kind_for_type"]

KINDS = ("int64", "float64", "bool", "object")

_DTYPES = {
    "int64": np.dtype(np.int64),
    "float64": np.dtype(np.float64),
    "bool": np.dtype(np.bool_),
    "object": np.dtype(object),
}

_FILL = {"int64": 0, "float64": 0.0, "bool": False, "object": None}

# The content digest (DESIGN 5h) hashes a column in chunks of this many
# slots: 8 KB of an int64/float64 buffer, so a point write rehashes 8 KB.
CHUNK_SLOTS = 1024

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
            data = np.asarray(
                [fill if v is None else v for v in values], dtype=_DTYPES[kind]
            )
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

    def is_valid(self, i: int) -> bool:
        return self.validity is None or bool(self.validity[i])

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
        path the window kernels and the parallel partitioner ride.
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


def _chunk_payload(data: np.ndarray, validity: np.ndarray, declared: str) -> bytes:
    """The bytes one chunk is hashed as, a function of values and NULLs
    only: an ``object`` chunk whose values fit the ``declared`` kind hashes
    as that kind's buffer would (a promoted column that need not be)."""
    if data.dtype == object:
        fixed = None if declared == "object" else Column.from_values(data.tolist(), declared)
        if fixed is None or fixed.kind != declared:
            return b"object" + b"".join(map(_canonical, data.tolist()))
        data = fixed.data
    return (
        declared.encode("ascii")
        + data.astype(WIRE_DTYPES[declared], copy=False).tobytes()
        + np.packbits(validity, bitorder="little").tobytes()
    )


def hash_chunks(
    data: np.ndarray,
    validity: np.ndarray,
    declared: str,
    known: Sequence[Optional[bytes]] = (),
    tally: Optional[List[int]] = None,
) -> List[Optional[bytes]]:
    """SHA-256 of every ``CHUNK_SLOTS``-slot chunk of a column's slots.

    ``known[c]``, where present and not None, is chunk ``c``'s hash and is
    reused; ``tally`` (``[chunks, bytes]``) counts what was hashed.
    """
    chunks = -(-len(data) // CHUNK_SLOTS)
    hashes = list(known[:chunks]) + [None] * (chunks - len(known))
    for c, known_hash in enumerate(hashes):
        if known_hash is None:
            lo, hi = c * CHUNK_SLOTS, (c + 1) * CHUNK_SLOTS
            payload = _chunk_payload(data[lo:hi], validity[lo:hi], declared)
            hashes[c] = hashlib.sha256(payload).digest()
            if tally is not None:
                tally[0] += 1
                tally[1] += len(payload)
    return hashes


class ColumnBuilder:
    """Mutable, amortised-append column storage (capacity doubling).

    The table's heap uses one builder per column; :meth:`snapshot` exposes
    the live prefix as a zero-copy :class:`Column` view.  Appending within
    spare capacity does not move the buffer, so existing snapshots stay
    valid; a capacity grow reallocates, leaving old snapshots on the old
    buffer (a consistent frozen copy).

    ``_hashes`` caches :meth:`chunk_hashes` (None until first asked for);
    every mutator drops the entries of the chunks it writes.
    """

    __slots__ = ("kind", "_data", "_validity", "_size", "_hashes")

    _INITIAL_CAPACITY = 16

    def __init__(self, kind: str) -> None:
        if kind not in KINDS:
            raise ValueError(f"unknown column kind {kind!r}")
        self.kind = kind
        self._data = np.empty(self._INITIAL_CAPACITY, dtype=_DTYPES[kind])
        self._validity = np.ones(self._INITIAL_CAPACITY, dtype=np.bool_)
        self._size = 0
        self._hashes: Optional[List[Optional[bytes]]] = None

    @classmethod
    def for_type(cls, type_name: str) -> "ColumnBuilder":
        return cls(kind_for_type(type_name))

    @classmethod
    def from_column(cls, column: Column) -> "ColumnBuilder":
        """A builder over ``column``'s values (copied unless the buffers
        are the column's own, see :meth:`Column.detached`)."""
        column = column.detached()
        out = cls(column.kind)
        out._data = column.data
        out._validity = (
            np.ones(len(column), dtype=np.bool_) if column.validity is None
            else column.validity
        )
        out._size = len(column)
        return out

    def __len__(self) -> int:
        return self._size

    # -- mutation -------------------------------------------------------------

    def _grow_to(self, capacity: int) -> None:
        new_data = np.empty(capacity, dtype=self._data.dtype)
        new_data[: self._size] = self._data[: self._size]
        new_validity = np.ones(capacity, dtype=np.bool_)
        new_validity[: self._size] = self._validity[: self._size]
        self._data, self._validity = new_data, new_validity

    def _promote_to_object(self) -> None:
        data = np.empty(len(self._data), dtype=object)
        for i in range(self._size):
            data[i] = self._data[i].item() if self._validity[i] else None
        self._data = data
        self.kind = "object"

    def _store(self, slot: int, value: Any) -> None:
        if self._hashes is not None and slot // CHUNK_SLOTS < len(self._hashes):
            self._hashes[slot // CHUNK_SLOTS] = None
        if value is None:
            self._data[slot] = _FILL[self.kind]
            self._validity[slot] = False
            return
        if self.kind != "object":
            try:
                self._data[slot] = value
            except (OverflowError, ValueError, TypeError):
                # e.g. an INTEGER beyond int64: keep exact values, lose the
                # fixed-width representation for this column only.
                self._promote_to_object()
                self._data[slot] = value
        else:
            self._data[slot] = value
        self._validity[slot] = True

    def append(self, value: Any) -> None:
        if self._size == len(self._data):
            self._grow_to(max(self._INITIAL_CAPACITY, 2 * self._size))
        self._store(self._size, value)
        self._size += 1

    def set(self, slot: int, value: Any) -> None:
        if not 0 <= slot < self._size:
            raise IndexError(f"slot {slot} out of range (size {self._size})")
        self._store(slot, value)

    def rebuild(self, values: Iterable[Any]) -> None:
        """Replace all contents (positional deletes renumber slots)."""
        self._data = np.empty(self._INITIAL_CAPACITY, dtype=_DTYPES[self.kind])
        self._validity = np.ones(self._INITIAL_CAPACITY, dtype=np.bool_)
        self._size = 0
        self._hashes = None
        for value in values:
            self.append(value)

    def clear(self) -> None:
        self._size = 0
        self._hashes = None

    def move(self, src: np.ndarray, dst: np.ndarray) -> None:
        """Copy the values and NULL bits at slots ``src`` over slots ``dst``
        (index arrays; one array assignment; the two may overlap)."""
        self._data[dst] = self._data[src]
        self._validity[dst] = self._validity[src]
        if self._hashes is not None and len(dst):
            written = np.zeros(int(dst.max()) // CHUNK_SLOTS + 1, dtype=np.bool_)
            written[dst // CHUNK_SLOTS] = True
            for c in np.flatnonzero(written[: len(self._hashes)]).tolist():
                self._hashes[c] = None

    def keep(self, mask: np.ndarray) -> None:
        """Drop the slots where ``mask`` is False; later slots move down."""
        self._data = self._data[: self._size][mask]
        self._validity = self._validity[: self._size][mask]
        self._size = len(self._data)
        if self._hashes is not None:
            del self._hashes[int(np.argmin(mask)) // CHUNK_SLOTS:]

    def copy(self) -> "ColumnBuilder":
        """An independent builder with the same contents.

        The copy-on-write primitive of the concurrent serving tier: a
        writer clones the builders of a table it is about to mutate so
        that readers pinned to an older epoch keep seeing the original
        buffers untouched.
        """
        out = ColumnBuilder.__new__(ColumnBuilder)
        out.kind = self.kind
        out._data = self._data[: self._size].copy()
        out._validity = self._validity[: self._size].copy()
        out._size = self._size
        out._hashes = None if self._hashes is None else list(self._hashes)
        return out

    # -- reads ----------------------------------------------------------------

    def get(self, slot: int) -> Any:
        if not 0 <= slot < self._size:
            raise IndexError(f"slot {slot} out of range (size {self._size})")
        if not self._validity[slot]:
            return None
        v = self._data[slot]
        return v if self._data.dtype == object else v.item()

    def pylist(self, start: int = 0, stop: Optional[int] = None) -> List[Any]:
        if stop is None or stop > self._size:
            stop = self._size
        return self.snapshot().to_pylist(start, stop)

    def snapshot(self) -> Column:
        """A zero-copy :class:`Column` view of the current contents."""
        validity = self._validity[: self._size]
        return Column(
            self._data[: self._size],
            None if bool(validity.all()) else validity,
        )

    def chunk_hashes(
        self, declared: str, tally: Optional[List[int]] = None, *, cached: bool = True
    ) -> List[bytes]:
        """The column's chunk hashes (see :func:`hash_chunks`); ``declared``
        is the kind of the column's schema type.  ``cached=False`` rehashes
        every chunk and leaves the cache alone — the audit."""
        n = self._size
        known = (self._hashes or ()) if cached else ()
        hashes = hash_chunks(self._data[:n], self._validity[:n], declared, known, tally)
        if cached:
            self._hashes = hashes
        return hashes

    def memory_bytes(self) -> int:
        total = self._data.nbytes + self._validity.nbytes
        if self._data.dtype == object and self._size:
            sample = self._data[: min(self._size, 256)]
            per = sum(
                0 if v is None else sys.getsizeof(v) for v in sample
            ) / len(sample)
            total += int(per * self._size)
        return total
