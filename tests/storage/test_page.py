"""The v4 fixed-size page codec: framing, CRCs, validity, pagination."""

import datetime
import struct
import zlib

import pytest

from repro.columns import Column
from repro.errors import CatalogError, PageCorruptError
from repro.storage.page import (
    DEFAULT_PAGE_SIZE,
    HEADER_SIZE,
    PAGE_MAGIC,
    chunk_payload,
    decode_chunk,
    decode_page,
    encode_page,
    paginate_values,
)


def col(values, kind="object"):
    return Column.from_values(values, kind)


class TestChunkCodec:
    def test_values_round_trip(self):
        values = [1.5, -2.25, 0.0, 1e300]
        doc, out = decode_chunk(chunk_payload(7, col(values, "float64")))
        assert out.kind == "float64" and out.to_pylist() == values
        assert doc == {"r": 7, "n": 4, "kind": "float64"}

    def test_floats_are_their_eight_bytes(self):
        values = [float("nan"), float("inf"), -0.0, 5e-324, 0.1]
        payload = chunk_payload(0, col(values, "float64"))
        assert payload[16:] == struct.pack("<5d", *values)
        _doc, out = decode_chunk(payload)
        assert struct.pack("<5d", *out.to_pylist()) == struct.pack("<5d", *values)

    def test_nulls_round_trip_via_validity_bitmap(self):
        values = [1.0, None, 3.0, None, None, 6.0, 7.0, 8.0, None]
        payload = chunk_payload(0, col(values, "float64"))
        assert len(payload) == 16 + 9 * 8 + 2
        _doc, out = decode_chunk(payload)
        assert out.to_pylist() == values

    def test_validity_bitmap_is_authoritative(self):
        # A stored value whose validity bit is clear decodes to NULL.
        payload = bytearray(chunk_payload(0, col([1.0, None], "float64")))
        payload[16 + 8:16 + 16] = struct.pack("<d", 2.0)  # a value under the clear bit
        _doc, out = decode_chunk(bytes(payload))
        assert out.to_pylist() == [1.0, None]

    def test_all_valid_chunk_has_no_bitmap(self):
        payload = chunk_payload(0, col([1, 2, 3], "int64"))
        assert payload[1] == 0 and len(payload) == 16 + 3 * 8
        assert decode_chunk(payload)[1].validity is None

    def test_integers_bools_and_beyond_int64(self):
        for values, kind in (
            ([2**63 - 1, -(2**63), None, 0], "int64"),
            ([True, None, False], "bool"),
            ([2**64, None, -1], "object"),  # an INTEGER column promoted to object
        ):
            column = col(values, "int64" if kind == "object" else kind)
            doc, out = decode_chunk(chunk_payload(3, column))
            assert (doc["kind"], out.kind, out.to_pylist()) == (kind, kind, values)

    def test_dates_round_trip(self):
        values = [datetime.date(2001, 2, 3), None, datetime.date(1999, 12, 31)]
        _doc, out = decode_chunk(chunk_payload(0, col(values)))
        assert out.to_pylist() == values

    def test_text_round_trip(self):
        values = ["a", "o'brien", None, "", "snowman ☃"]
        _doc, out = decode_chunk(chunk_payload(0, col(values)))
        assert out.to_pylist() == values

    def test_json_page_payload_still_decodes(self):
        # What the RPG4 encoder wrote for [1.0, 2.0, NULL] with bit 1 cleared too.
        payload = (b'{"t":"t","c":"v","r":4,"n":3,"values":[1.0,2.0,null],'
                   b'"validity":"AQ=="}')
        doc, out = decode_chunk(payload, "float64")
        assert (doc["r"], doc["n"], doc["kind"]) == (4, 3, None)
        assert out.kind == "float64" and out.to_pylist() == [1.0, None, None]

    @pytest.mark.parametrize("mangle", [
        lambda p: p[:-1],                       # short value buffer
        lambda p: p + b"\x00",                  # trailing byte
        lambda p: bytes([9]) + p[1:],           # unknown kind code
        lambda p: p[:1] + b"\x01" + p[2:],      # flags a bitmap that is not there
        lambda p: p[:8],                        # truncated chunk header
    ])
    def test_malformed_payload_is_a_page_corrupt_error(self, mangle):
        payload = chunk_payload(0, col([1.0, 2.0, 3.0], "float64"))
        with pytest.raises(PageCorruptError, match="does not decode"):
            decode_chunk(mangle(payload))

    def test_object_value_list_of_the_wrong_length_rejected(self):
        payload = chunk_payload(0, col(["a", "b"]))
        with pytest.raises(PageCorruptError, match="does not decode"):
            decode_chunk(payload[:4] + struct.pack("<I", 3) + payload[8:])


class TestPageFraming:
    def test_round_trip(self):
        payload = chunk_payload(0, col([1.0, 2.0], "float64"))
        raw = encode_page(3, payload, 512)
        assert len(raw) == 512 and raw[:4] == PAGE_MAGIC == b"RPG5"
        assert decode_page(raw, 3, 512) == payload

    def test_payload_too_large_rejected(self):
        with pytest.raises(CatalogError, match="exceeds page size"):
            encode_page(0, b"x" * 600, 512)

    def test_flipped_payload_byte_detected(self):
        raw = bytearray(encode_page(0, chunk_payload(0, col([1.0], "float64")), 256))
        raw[HEADER_SIZE + 2] ^= 0xFF
        with pytest.raises(PageCorruptError, match="CRC32"):
            decode_page(bytes(raw), 0, 256)

    def test_wrong_page_number_detected(self):
        raw = encode_page(5, chunk_payload(0, col([1.0], "float64")), 256)
        with pytest.raises(PageCorruptError, match="claims page 5"):
            decode_page(raw, 6, 256)

    def test_flipped_bitmap_byte_detected(self):
        payload = chunk_payload(0, col([1.0, None], "float64"))
        raw = bytearray(encode_page(0, payload, 256))
        raw[HEADER_SIZE + len(payload) - 1] ^= 0x01
        with pytest.raises(PageCorruptError, match="CRC32"):
            decode_page(bytes(raw), 0, 256)

    def test_json_page_magic_still_accepted(self):
        payload = b'{"r":0,"n":0,"values":[],"validity":null}'
        raw = b"RPG4" + encode_page(0, payload, 256)[4:]
        assert decode_page(raw, 0, 256) == payload

    def test_bad_magic_detected(self):
        raw = bytearray(encode_page(0, b"{}", 256))
        raw[0] = 0x00
        with pytest.raises(PageCorruptError, match="bad magic"):
            decode_page(bytes(raw), 0, 256)

    def test_truncated_page_detected(self):
        with pytest.raises(PageCorruptError, match="truncated"):
            decode_page(b"\x00" * 4, 0, 256)

    def test_catalog_crc_mismatch_detected(self):
        payload = chunk_payload(0, col([1.0], "float64"))
        raw = encode_page(0, payload, 256)
        with pytest.raises(PageCorruptError, match="cataloged"):
            decode_page(raw, 0, 256, expect_crc=zlib.crc32(payload) ^ 1)


class TestPaginate:
    def test_directory_covers_all_rows_in_order(self):
        pages, entries = paginate_values(col(list(range(1000)), "int64"), 512, 0)
        assert len(pages) == len(entries)
        pos = 0
        for i, e in enumerate(entries):
            assert e["page"] == i and e["start"] == pos and e["kind"] == "int64"
            assert (e["min"], e["max"]) == (pos, pos + e["rows"] - 1)
            pos += e["rows"]
        assert pos == 1000

    def test_a_4k_page_holds_500_eight_byte_values_with_room_for_a_bitmap(self):
        _pages, entries = paginate_values(col([0.5] * 1200, "float64"), 4096, 0)
        assert [e["rows"] for e in entries] == [500, 500, 200]
        nulls = col([None] * 500, "float64")
        assert HEADER_SIZE + len(chunk_payload(0, nulls)) <= 4096

    def test_zone_skips_nulls_and_nans_and_is_absent_without_numbers(self):
        nan = float("nan")
        _p, entries = paginate_values(col([nan, None, -0.0, 3.5], "float64"), 512, 0)
        assert (entries[0]["min"], entries[0]["max"]) == (-0.0, 3.5)
        for column in (col([nan, None], "float64"), col(["a", "b"]), col([True], "bool")):
            _p, entries = paginate_values(column, 512, 0)
            assert "min" not in entries[0] and "max" not in entries[0]

    def test_pages_decode_back_to_the_values(self):
        values = [float(i) / 3 for i in range(500)]
        pages, entries = paginate_values(col(values, "float64"), 512, 0)
        out = []
        for raw, e in zip(pages, entries):
            payload = decode_page(raw, e["page"], 512, expect_crc=e["crc32"])
            _doc, chunk = decode_chunk(payload)
            out.extend(chunk.to_pylist())
        assert out == values

    def test_wide_text_gets_fewer_rows_per_page(self):
        values = ["x" * 150 for _ in range(20)]
        pages, entries = paginate_values(col(values), 512, 0)
        assert len(pages) > 5  # far fewer than the numeric rows-per-page
        assert sum(e["rows"] for e in entries) == 20

    def test_single_oversized_value_rejected(self):
        with pytest.raises(CatalogError, match="too small"):
            paginate_values(col(["y" * 1000]), 512, 0)

    def test_first_page_no_offsets_numbering(self):
        _pages, entries = paginate_values(col([1, 2, 3], "int64"), 512, 17)
        assert entries[0]["page"] == 17

    def test_empty_column(self):
        pages, entries = paginate_values(col([], "float64"), DEFAULT_PAGE_SIZE, 0)
        assert pages == [] and entries == []
