"""Fixed-size page codec for the paged storage format (catalog version 4).

A paged data file (``data/<table>.pages``) is a flat array of fixed-size
pages.  Each page holds one *column chunk* — a contiguous run of values
of a single column — encoded as::

    +----------------------------- page_size bytes ----------------------------+
    | header (16B)                  | payload (payload_len B)  | zero padding  |
    | magic  page_no  len  crc32    | column chunk             | 0x00 ...      |
    +---------------------------------------------------------------------------+

The header is ``struct "<4sIII"``: the magic, the page number (its own
index in the file — a seek landing on the wrong page is caught, not just
a flipped bit), the payload length, and the CRC32 of the payload.  The
magic versions the payload.  ``RPG5``, the only one written, is the bytes
of :mod:`repro.columns.codec` with a binary header in place of the JSON
entry::

    chunk header (16B, "<BBxxIQ"): kind, validity flag, rows, first row
    fixed-width kinds: the little-endian value buffer (rows * itemsize),
                       then, if flagged, the packed little-endian validity
                       bitmap (bit set = value present)
    object kind:       a JSON value list (NULL is null, dates {"$date": ..})

so a fixed-width page decodes by ``numpy.frombuffer`` with no per-value
work, and a float is its eight bytes.  Every write (save, overlay
write-back) produces ``RPG5``, and a page with any other magic is
corrupt.

Pages are self-validating (header CRC) *and* cross-checked against the
per-page CRC recorded in the catalog's page directory at save time, so a
catalog/data mismatch is detected even when both files are individually
well-formed.  A directory entry also records the page's kind and, for
numeric kinds, the ``min``/``max`` of its non-NULL, non-NaN values — the
zone a scan tests before it reads the page
(:class:`~repro.storage.buffer_pool.PageChunk`).
"""

from __future__ import annotations

import json
import struct
import zlib
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.columns.codec import decode_value, encode_value
from repro.columns.column import CHUNK_SLOTS, KINDS, WIRE_DTYPES, Column
from repro.errors import CatalogError, PageCorruptError

__all__ = [
    "DEFAULT_PAGE_SIZE",
    "HEADER",
    "HEADER_SIZE",
    "PAGE_MAGIC",
    "chunk_payload",
    "decode_chunk",
    "decode_page",
    "decode_value",
    "encode_page",
    "encode_value",
    "paginate_table",
    "paginate_values",
]

PAGE_MAGIC = b"RPG5"
HEADER = struct.Struct("<4sIII")  # magic, page_no, payload_len, crc32
HEADER_SIZE = HEADER.size
CHUNK = struct.Struct("<BBxxIQ")  # kind, has a validity bitmap, rows, first row
DEFAULT_PAGE_SIZE = 4096


class _ValueTooWide(CatalogError):
    """One value's chunk needs ``payload_bytes`` and does not fit a page."""

    def __init__(self, message: str, payload_bytes: int) -> None:
        super().__init__(message)
        self.payload_bytes = payload_bytes


def chunk_payload(start: int, column: Column) -> bytes:
    """Encode one column chunk as an ``RPG5`` page payload (see module doc)."""
    kind, valid = column.kind, column.validity
    if kind == "object":
        body = json.dumps(
            [encode_value(v) for v in column.to_pylist()], separators=(",", ":")
        ).encode("utf-8")
        valid = None
    else:
        body = column.data.astype(WIRE_DTYPES[kind], copy=False).tobytes()
        if valid is not None:
            body += np.packbits(valid, bitorder="little").tobytes()
    return CHUNK.pack(KINDS.index(kind), valid is not None, len(column), start) + body


def decode_chunk(payload: bytes) -> Tuple[dict, Column]:
    """Decode a page payload back to ``(header_doc, column)``.

    ``header_doc`` is ``{"r": first row, "n": rows, "kind": kind}``.  The
    buffers of a fixed-width column are read-only views of ``payload``.

    Raises:
        PageCorruptError: the payload is not what :func:`chunk_payload`
            writes — unknown kind, a buffer, bitmap or value list whose
            length disagrees with the row count.
    """
    try:
        code, has_valid, rows, start = CHUNK.unpack_from(payload)
        kind = KINDS[code]
        doc = {"r": start, "n": rows, "kind": kind}
        if kind == "object":
            values = [decode_value(v) for v in json.loads(payload[CHUNK.size:])]
            if len(values) != rows:
                raise ValueError(f"{len(values)} values for {rows} rows")
            return doc, Column.from_values(values)
        dtype = WIRE_DTYPES[kind]
        nbytes = rows * dtype.itemsize
        if len(payload) != CHUNK.size + nbytes + ((rows + 7) // 8 if has_valid else 0):
            raise ValueError(f"{len(payload)} payload bytes for {rows} {kind} rows")
        data = np.frombuffer(payload, dtype, rows, CHUNK.size)
        if not has_valid:
            return doc, Column(data)
        bits = np.frombuffer(payload, np.uint8, offset=CHUNK.size + nbytes)
        validity = np.unpackbits(bits, count=rows, bitorder="little").view(np.bool_)
        return doc, Column(data, validity)
    except (ValueError, KeyError, IndexError, TypeError, struct.error) as exc:
        raise PageCorruptError(f"page payload does not decode: {exc}") from None


def encode_page(page_no: int, payload: bytes, page_size: int) -> bytes:
    """Frame ``payload`` as one zero-padded fixed-size page."""
    if HEADER_SIZE + len(payload) > page_size:
        raise CatalogError(
            f"page payload of {len(payload)} bytes exceeds page size "
            f"{page_size} (header {HEADER_SIZE}B)"
        )
    header = HEADER.pack(PAGE_MAGIC, page_no, len(payload), zlib.crc32(payload))
    return header + payload + b"\x00" * (page_size - HEADER_SIZE - len(payload))


def decode_page(
    raw: bytes,
    page_no: int,
    page_size: int,
    *,
    expect_crc: Optional[int] = None,
    context: str = "",
) -> bytes:
    """Verify and unframe one raw page; returns the payload bytes.

    Raises:
        PageCorruptError: short page, bad magic, wrong page number,
            payload CRC mismatch against the header, or (when
            ``expect_crc`` is given) against the catalog page directory.
    """
    where = f" ({context})" if context else ""
    if len(raw) < HEADER_SIZE:
        raise PageCorruptError(
            f"page {page_no} is truncated: {len(raw)} bytes{where}"
        )
    magic, stored_no, length, crc = HEADER.unpack_from(raw)
    if magic != PAGE_MAGIC:
        raise PageCorruptError(f"page {page_no} has bad magic {magic!r}{where}")
    if stored_no != page_no:
        raise PageCorruptError(
            f"page {page_no} header claims page {stored_no}{where}"
        )
    if HEADER_SIZE + length > len(raw):
        raise PageCorruptError(
            f"page {page_no} payload length {length} exceeds page size "
            f"{page_size}{where}"
        )
    payload = raw[HEADER_SIZE:HEADER_SIZE + length]
    actual = zlib.crc32(payload)
    if actual != crc:
        raise PageCorruptError(
            f"page {page_no} is corrupt: payload CRC32 {actual} != header "
            f"{crc}{where}"
        )
    if expect_crc is not None and actual != expect_crc:
        raise PageCorruptError(
            f"page {page_no} is corrupt: payload CRC32 {actual} != "
            f"cataloged {expect_crc}{where}"
        )
    return payload


def zone_of(column: Column) -> Optional[Tuple[Any, Any]]:
    """``(min, max)`` over the non-NULL, non-NaN values of a numeric
    column; ``None`` (never prune) for other kinds or when there are none."""
    if column.kind not in ("int64", "float64"):
        return None
    data = column.data if column.validity is None else column.data[column.validity]
    if column.kind == "float64":
        data = data[~np.isnan(data)]
    return (data.min().item(), data.max().item()) if len(data) else None


def paginate_values(
    column: Column, page_size: int, first_page_no: int
) -> Tuple[List[bytes], List[dict]]:
    """Pack one column into fixed-size pages.

    A fixed-width chunk takes as many rows as fit beside a validity bitmap
    (so a later in-place write of any value of the kind, NULL included,
    still fits): at 4 KiB, 500 int64/float64 rows, one column chunk of
    :data:`~repro.columns.column.CHUNK_SLOTS`.  An ``object`` chunk never
    crosses a column chunk's boundary, and one that over-fills its page is
    halved until it fits, so wide TEXT values simply get fewer rows per
    page.
    Returns ``(raw_pages, directory_entries)``; an entry is ``{"page",
    "start", "rows", "crc32", "kind"}`` plus ``"min"``/``"max"`` when the
    chunk has a zone (:func:`zone_of`).

    Raises:
        CatalogError: a single value is too large for one page.
    """
    budget = page_size - HEADER_SIZE
    raw_pages: List[bytes] = []
    entries: List[dict] = []
    start, n, kind = 0, len(column), column.kind
    if kind == "object":
        # ~8 bytes per value to begin with; refined by the loop below.
        guess = max(1, budget // 9)
    else:
        guess = max(1, (budget - CHUNK.size) * 8 // (8 * WIRE_DTYPES[kind].itemsize + 1))
    while start < n:
        limit = n - start
        if kind == "object":  # never across a column chunk's boundary
            limit = min(limit, CHUNK_SLOTS - start % CHUNK_SLOTS)
        take = fitted = min(guess, limit)
        payload = chunk_payload(start, column.slice(start, start + take))
        while len(payload) > budget and take > 1:
            take //= 2
            payload = chunk_payload(start, column.slice(start, start + take))
        if len(payload) > budget:
            raise _ValueTooWide(
                f"value at row {start} needs {len(payload)} payload bytes; "
                f"page size {page_size} is too small",
                len(payload),
            )
        if kind == "object":
            if take < fitted:
                guess = take  # wide values: stop over-encoding every chunk
            elif take == guess and len(payload) <= budget // 2 and take < n - start:
                guess *= 2  # narrow values: fill pages tighter next time
        entry = {"page": first_page_no + len(entries), "start": start, "rows": take,
                 "crc32": zlib.crc32(payload), "kind": kind}
        zone = zone_of(column.slice(start, start + take))
        if zone is not None:
            entry["min"], entry["max"] = zone
        raw_pages.append(encode_page(entry["page"], payload, page_size))
        entries.append(entry)
        start += take
    return raw_pages, entries


def paginate_table(
    columns: List[Column], page_size: int
) -> Tuple[List[bytes], List[List[dict]], int]:
    """Pack a table's columns, one after another, into one file of pages.

    The pages are ``page_size`` bytes unless a single value does not fit
    one: then they are the smallest power of two at least ``page_size``
    that holds the widest single-value chunk, so a value of any length
    saves.  Returns ``(raw_pages, directory entries per column, page
    size)``.
    """
    while True:
        raw_pages: List[bytes] = []
        directories: List[List[dict]] = []
        try:
            for column in columns:
                pages, entries = paginate_values(column, page_size, len(raw_pages))
                raw_pages += pages
                directories.append(entries)
            return raw_pages, directories, page_size
        except _ValueTooWide as exc:
            page_size = 1 << max(page_size - 1, HEADER_SIZE + exc.payload_bytes - 1).bit_length()
