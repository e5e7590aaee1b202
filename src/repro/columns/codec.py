"""The column codec: a :class:`Column` as JSON-safe bytes, and back.

One entry per column, chosen by the column's kind:

* fixed-width kinds (``int64``, ``float64``, ``bool``) travel as their
  buffer — ``{"kind": k, "b64": <base64 of the little-endian buffer>,
  "valid": <base64 of the packed little-endian validity bitmap, bit set =
  value present; omitted when every value is>}``.  A float is its eight
  bytes, never text, so NaN, ±inf, −0.0 and subnormals arrive bit-exact;
* ``object`` columns (TEXT, DATE, INTEGERs beyond int64) travel as
  ``{"kind": "object", "values": [...]}`` through :func:`encode_value` /
  :func:`decode_value`, the ``{"$date": ...}`` convention every storage
  format shares.

The serve protocol's query reply is a list of these entries
(:mod:`repro.serve.protocol`); the bitmap is the one the v4 page codec
writes (:mod:`repro.storage.page`).  Decoding treats its input as coming
from outside the program: every malformed entry is a ``ValueError`` that
says what is wrong, never an index, ``binascii`` or NumPy error.
"""

from __future__ import annotations

import base64
import binascii
import datetime
from typing import Any, Dict

import numpy as np

from repro.columns.column import WIRE_DTYPES as _WIRE_DTYPES
from repro.columns.column import Column

__all__ = ["decode_column", "decode_value", "encode_column", "encode_value"]


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


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


def encode_column(column: Column) -> Dict[str, Any]:
    """Encode one column as a JSON-safe entry (see module doc)."""
    kind = column.kind
    if kind == "object":
        return {"kind": kind, "values": [encode_value(v) for v in column.to_pylist()]}
    entry = {
        "kind": kind,
        "b64": _b64(column.data.astype(_WIRE_DTYPES[kind], copy=False).tobytes()),
    }
    if column.validity is not None:
        entry["valid"] = _b64(
            np.packbits(column.validity, bitorder="little").tobytes()
        )
    return entry


def _unb64(entry: Dict[str, Any], field: str, expected: int) -> bytes:
    text = entry.get(field)
    if not isinstance(text, str):
        raise ValueError(f"column entry needs a base64 string {field!r}")
    try:
        raw = base64.b64decode(text, validate=True)
    except binascii.Error as exc:
        raise ValueError(f"column {field!r} is not base64: {exc}") from None
    if len(raw) != expected:
        raise ValueError(
            f"column {field!r} holds {len(raw)} bytes, expected {expected}"
        )
    return raw


def decode_column(entry: Any, nrows: int) -> Column:
    """Decode one entry of ``nrows`` values back into a :class:`Column`.

    The fixed-width buffers are wrapped with ``numpy.frombuffer`` (read
    only, no per-value work).

    Raises:
        ValueError: the entry is not what :func:`encode_column` writes for
            ``nrows`` values — unknown kind, bad base64, a buffer or bitmap
            of the wrong length, a value list of the wrong length.
    """
    if not isinstance(entry, dict):
        raise ValueError(f"column entry must be an object, got {type(entry).__name__}")
    kind = entry.get("kind")
    if kind == "object":
        values = entry.get("values")
        if not isinstance(values, list) or len(values) != nrows:
            raise ValueError(f"object column needs a list of {nrows} values")
        try:
            return Column.from_values([decode_value(v) for v in values])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"object column holds a bad value: {exc}") from None
    dtype = _WIRE_DTYPES.get(kind) if isinstance(kind, str) else None
    if dtype is None:
        raise ValueError(f"unknown column kind {kind!r}")
    raw = _unb64(entry, "b64", nrows * dtype.itemsize)
    if kind == "bool" and raw.translate(None, b"\x00\x01"):
        raise ValueError("bool column holds bytes other than 0 and 1")
    data = np.frombuffer(raw, dtype=dtype)
    if "valid" not in entry:
        return Column(data)
    bits = np.frombuffer(_unb64(entry, "valid", (nrows + 7) // 8), dtype=np.uint8)
    validity = np.unpackbits(bits, count=nrows, bitorder="little").view(np.bool_)
    return Column(data, validity)
