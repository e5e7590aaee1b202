"""Fixed-size page codec for storage format v4.

A v4 data file (``data/<table>.pages``) is a flat array of fixed-size
pages.  Each page holds one *column chunk* — a contiguous run of values
of a single column — encoded as::

    +----------------------------- page_size bytes ----------------------------+
    | header (16B)                  | payload (payload_len B)  | zero padding  |
    | magic  page_no  len  crc32    | JSON column chunk        | 0x00 ...      |
    +---------------------------------------------------------------------------+

The header is ``struct "<4sIII"``: magic ``b"RPG4"``, the page number
(its own index in the file — a seek landing on the wrong page is caught,
not just a flipped bit), the payload length, and the CRC32 of the
payload.  The payload is a compact JSON document::

    {"t": table, "c": column, "r": first_row, "n": rows,
     "values": [...], "validity": "<base64 bitmap>" | null}

``values`` carries NULLs as JSON ``null``; ``validity`` is the packed
little-endian bitmap (bit set = value present) that the decoder treats as
authoritative, mirroring the in-memory :class:`~repro.columns.Column`
validity mask.  Dates use the same ``{"$date": ...}`` codec as every
other storage format version.

Pages are self-validating (header CRC) *and* cross-checked against the
per-page CRC recorded in the catalog's page directory at save time, so a
catalog/data mismatch is detected even when both files are individually
well-formed.
"""

from __future__ import annotations

import base64
import json
import struct
import zlib
from typing import Any, List, Optional, Sequence, Tuple

from repro.columns.codec import decode_value, encode_value
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
    "paginate_values",
]

PAGE_MAGIC = b"RPG4"
HEADER = struct.Struct("<4sIII")  # magic, page_no, payload_len, crc32
HEADER_SIZE = HEADER.size
DEFAULT_PAGE_SIZE = 4096


def _pack_validity(values: Sequence[Any]) -> Optional[str]:
    """Packed little-endian validity bitmap, or None when all valid."""
    if not any(v is None for v in values):
        return None
    bits = bytearray((len(values) + 7) // 8)
    for i, v in enumerate(values):
        if v is not None:
            bits[i >> 3] |= 1 << (i & 7)
    return base64.b64encode(bytes(bits)).decode("ascii")


def chunk_payload(
    table: str, column: str, start: int, values: Sequence[Any]
) -> bytes:
    """Encode one column chunk as a page payload (see module doc)."""
    doc = {
        "t": table,
        "c": column,
        "r": start,
        "n": len(values),
        "values": [encode_value(v) for v in values],
        "validity": _pack_validity(values),
    }
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def decode_chunk(payload: bytes) -> Tuple[dict, List[Any]]:
    """Decode a page payload back to ``(header_doc, values)``.

    The validity bitmap is authoritative: any position whose bit is clear
    decodes to ``None`` regardless of the stored value.
    """
    doc = json.loads(payload.decode("utf-8"))
    values = [decode_value(v) for v in doc["values"]]
    packed = doc.get("validity")
    if packed is not None:
        bits = base64.b64decode(packed)
        for i in range(len(values)):
            if not (bits[i >> 3] >> (i & 7)) & 1:
                values[i] = None
    return doc, values


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


def paginate_values(
    table: str,
    column: str,
    values: Sequence[Any],
    page_size: int,
    first_page_no: int,
) -> Tuple[List[bytes], List[dict]]:
    """Pack one column's values into fixed-size pages.

    Packing is adaptive: a chunk that over-fills its page is halved until
    it fits, so wide TEXT values simply get fewer rows per page.  Returns
    ``(raw_pages, directory_entries)`` where each directory entry is
    ``{"page": no, "start": row, "rows": n, "crc32": payload_crc}``.

    Raises:
        CatalogError: a single value is too large for one page.
    """
    budget = page_size - HEADER_SIZE
    raw_pages: List[bytes] = []
    entries: List[dict] = []
    page_no = first_page_no
    start = 0
    n = len(values)
    # Initial guess from an empty-chunk overhead + ~8 bytes per value;
    # refined by the halving loop below whenever the guess is wrong.
    guess = max(1, (budget - 96) // 9)
    while start < n:
        take = min(guess, n - start)
        payload = chunk_payload(table, column, start, values[start:start + take])
        while len(payload) > budget and take > 1:
            take //= 2
            payload = chunk_payload(
                table, column, start, values[start:start + take]
            )
        if len(payload) > budget:
            raise CatalogError(
                f"value at row {start} of {table}.{column} needs "
                f"{len(payload)} payload bytes; page size {page_size} is "
                f"too small"
            )
        if take == guess and len(payload) <= budget // 2 and take < n - start:
            guess *= 2  # narrow values: fill pages tighter next time
        elif take < guess:
            guess = take  # wide values: stop over-encoding every chunk
        raw_pages.append(encode_page(page_no, payload, page_size))
        entries.append(
            {
                "page": page_no,
                "start": start,
                "rows": take,
                "crc32": zlib.crc32(payload),
            }
        )
        page_no += 1
        start += take
    return raw_pages, entries
