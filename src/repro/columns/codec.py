"""The column codec: a :class:`Column` as a JSON entry plus raw buffers, and back.

One entry per column, chosen by the column's kind:

* fixed-width kinds (``int64``, ``float64``, ``bool``) travel as their
  buffers — the entry ``{"kind": k, "nbytes": <bytes of the little-endian
  data buffer>, "vbytes": <bytes of the packed little-endian validity
  bitmap, bit set = value present; omitted when every value is>}`` names
  them, and the buffers themselves (data, then bitmap) travel beside it.
  A float is its eight bytes, never text, so NaN, ±inf, −0.0 and
  subnormals arrive bit-exact;
* ``object`` columns (TEXT, DATE, INTEGERs beyond int64) travel in the
  entry as ``{"kind": "object", "values": [...]}`` through
  :func:`encode_value` / :func:`decode_value`, the ``{"$date": ...}``
  convention every storage format shares; they have no buffers.

The serve protocol's query reply is a header holding a list of these
entries followed by every column's buffers in column order
(:mod:`repro.serve.protocol`); the bitmap is the one the v4 page codec
writes (:mod:`repro.storage.page`).  Decoding treats its input as coming
from outside the program: every malformed entry is a ``ValueError`` that
says what is wrong, never an index or NumPy error, and the lengths an
entry declares are checked against its kind and the row count before a
byte of its buffers is read (:func:`buffer_sizes`).
"""

from __future__ import annotations

import datetime
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.columns.column import WIRE_DTYPES as _WIRE_DTYPES
from repro.columns.column import Column

__all__ = [
    "buffer_sizes",
    "decode_column",
    "decode_value",
    "encode_column",
    "encode_value",
]


def encode_value(value: Any) -> Any:
    """JSON-encode one storage value (dates -> ``{"$date": ...}``)."""
    if isinstance(value, datetime.date):
        return {"$date": value.isoformat()}
    return value


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value` (``{"$date": ...}`` -> ``datetime.date``)."""
    if isinstance(value, dict) and "$date" in value:
        return datetime.date.fromisoformat(value["$date"])
    return value


def encode_column(column: Column) -> Tuple[Dict[str, Any], List[np.ndarray]]:
    """Encode one column as its JSON-safe entry and its buffers, in wire
    order (see module doc); the buffers are the column's own arrays when
    they already have the wire layout."""
    kind = column.kind
    if kind == "object":
        values = [encode_value(v) for v in column.to_pylist()]
        return {"kind": kind, "values": values}, []
    data = np.ascontiguousarray(column.data, dtype=_WIRE_DTYPES[kind])
    entry = {"kind": kind, "nbytes": data.nbytes}
    if column.validity is None:
        return entry, [data]
    bits = np.packbits(column.validity, bitorder="little")
    entry["vbytes"] = bits.nbytes
    return entry, [data, bits]


def _declared(entry: Dict[str, Any], field: str, expected: int) -> int:
    size = entry.get(field)
    if size != expected or type(size) is not int:
        raise ValueError(
            f"column {field!r} declares {size!r} bytes, expected {expected}"
        )
    return size


def buffer_sizes(entry: Any, nrows: int) -> Tuple[int, int]:
    """The data and validity byte lengths an entry of ``nrows`` values
    declares, after checking them against its kind (``(0, 0)`` for an
    ``object`` entry).

    Raises:
        ValueError: not an entry object, an unknown kind, or a declared
            length other than the one its kind and ``nrows`` give.
    """
    if not isinstance(entry, dict):
        raise ValueError(f"column entry must be an object, got {type(entry).__name__}")
    kind = entry.get("kind")
    if kind == "object":
        return 0, 0
    dtype = _WIRE_DTYPES.get(kind) if isinstance(kind, str) else None
    if dtype is None:
        raise ValueError(f"unknown column kind {kind!r}")
    nbytes = _declared(entry, "nbytes", nrows * dtype.itemsize)
    if "vbytes" not in entry:
        return nbytes, 0
    return nbytes, _declared(entry, "vbytes", (nrows + 7) // 8)


def decode_column(entry: Any, nrows: int, buffer: Any, offset: int) -> Column:
    """Decode one entry of ``nrows`` values back into a :class:`Column`,
    its buffers read from ``buffer`` at ``offset``.

    The fixed-width buffers are wrapped with ``numpy.frombuffer`` (no copy,
    no per-value work; read only when ``buffer`` is).

    Raises:
        ValueError: the entry is not what :func:`encode_column` writes for
            ``nrows`` values — see :func:`buffer_sizes`; besides, buffers
            that end before ``offset`` plus the declared lengths, bool bytes
            other than 0 and 1, a value list of the wrong length.
    """
    nbytes, vbytes = buffer_sizes(entry, nrows)
    kind = entry["kind"]
    if kind == "object":
        values = entry.get("values")
        if not isinstance(values, list) or len(values) != nrows:
            raise ValueError(f"object column needs a list of {nrows} values")
        try:
            return Column.from_values([decode_value(v) for v in values])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"object column holds a bad value: {exc}") from None
    if offset + nbytes + vbytes > len(buffer):
        raise ValueError(
            f"column buffers end at byte {len(buffer)}, before "
            f"{offset + nbytes + vbytes}"
        )
    data = np.frombuffer(buffer, _WIRE_DTYPES[kind], nrows, offset)
    if kind == "bool" and np.any(data.view(np.uint8) > 1):
        raise ValueError("bool column holds bytes other than 0 and 1")
    if not vbytes:
        return Column(data)
    bits = np.frombuffer(buffer, np.uint8, vbytes, offset + nbytes)
    validity = np.unpackbits(bits, count=nrows, bitorder="little").view(np.bool_)
    return Column(data, validity)
