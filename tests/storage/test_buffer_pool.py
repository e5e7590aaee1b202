"""BufferPool: fault-in, LRU eviction, pinning, write-back, quarantine."""

import pytest

from repro.columns import Column
from repro.errors import PageCapacityError, PageCorruptError
from repro.obs.metrics import MetricsRegistry
from repro.storage.buffer_pool import BufferPool, PageRef
from repro.storage.page import chunk_payload, encode_page, paginate_values
from repro.storage.pager import PageFile

PAGE_SIZE = 256


@pytest.fixture
def page_file(tmp_path):
    """A 3-page file: column v rows 0..n, 27 values per page."""
    values = [float(i) for i in range(60)]
    pages, entries = paginate_values(Column.from_values(values, "float64"), PAGE_SIZE, 0)
    path = tmp_path / "t.pages"
    path.write_bytes(b"".join(pages))
    file = PageFile(str(path), PAGE_SIZE)
    refs = [
        PageRef(file, e["page"], "t", "v", e["start"], e["rows"], e["crc32"],
                e["kind"], (e["min"], e["max"]))
        for e in entries
    ]
    yield file, refs, values
    file.close()


def make_pool(budget_pages: int) -> BufferPool:
    return BufferPool(budget_pages * PAGE_SIZE, page_size=PAGE_SIZE)


class TestFaultInAndHits:
    def test_get_values_decodes_the_page(self, page_file):
        _file, refs, values = page_file
        pool = make_pool(4)
        got = pool.get_values(refs[0])
        assert got.kind == "float64" and not got.data.flags.writeable
        assert got.to_pylist() == values[refs[0].start:refs[0].start + refs[0].rows]

    def test_second_read_is_a_hit(self, page_file):
        _file, refs, _values = page_file
        pool = make_pool(4)
        pool.get_values(refs[0])
        pool.get_values(refs[0])
        assert pool.misses == 1 and pool.hits == 1

    def test_all_pages_readable_under_one_frame_budget(self, page_file):
        _file, refs, values = page_file
        pool = make_pool(1)
        out = []
        for ref in refs:
            out.extend(pool.get_values(ref).to_pylist())
        assert out == values
        assert pool.evictions >= len(refs) - 1


class TestEviction:
    def test_lru_victim_is_the_oldest_unpinned(self, page_file):
        _file, refs, _values = page_file
        pool = make_pool(2)
        pool.get_values(refs[0])
        pool.get_values(refs[1])
        pool.get_values(refs[0])  # refresh 0: 1 is now LRU
        pool.get_values(refs[2])  # evicts 1
        assert pool.contains(refs[0].key)
        assert not pool.contains(refs[1].key)

    def test_pinned_frames_survive_eviction(self, page_file):
        _file, refs, _values = page_file
        pool = make_pool(1)
        frame = pool.pin(refs[0])
        try:
            pool.get_values(refs[1])
            pool.get_values(refs[2])
            assert pool.contains(refs[0].key)
        finally:
            pool.unpin(frame)

    def test_occupancy_respects_budget(self, page_file):
        _file, refs, _values = page_file
        pool = make_pool(2)
        for ref in refs:
            pool.get_values(ref)
        assert pool.occupancy_bytes() <= 2 * PAGE_SIZE


class TestWriteBack:
    def test_dirty_eviction_lands_in_the_overlay(self, page_file):
        _file, refs, values = page_file
        pool = make_pool(1)
        pool.set_value(refs[0], 0, -99.5)
        for ref in refs[1:]:
            pool.get_values(ref)  # cycle the dirty frame out
        assert pool.writebacks >= 1
        assert refs[0].overlay_slot is not None
        got = pool.get_values(refs[0]).to_pylist()
        assert got[0] == -99.5
        assert got[1:] == values[1:refs[0].rows]

    def test_flush_writes_dirty_frames(self, page_file):
        _file, refs, _values = page_file
        pool = make_pool(4)
        pool.set_value(refs[0], 2, 123.0)
        assert pool.flush() == 1
        assert pool.flush() == 0  # idempotent: no longer dirty

    def test_base_file_is_never_mutated(self, page_file, tmp_path):
        file, refs, _values = page_file
        before = open(file.path, "rb").read()
        pool = make_pool(1)
        pool.set_value(refs[0], 0, -1.0)
        for ref in refs[1:]:
            pool.get_values(ref)
        pool.flush()
        assert open(file.path, "rb").read() == before

    def test_overfull_update_raises_and_leaves_frame_clean(self, page_file):
        _file, refs, values = page_file
        pool = make_pool(4)
        with pytest.raises(PageCapacityError):
            pool.set_value(refs[0], 0, "z" * PAGE_SIZE)
        assert pool.get_values(refs[0]).to_pylist() == values[:refs[0].rows]  # unchanged
        assert refs[0].zone == (0.0, refs[0].rows - 1.0)

    def test_write_widens_the_zone_and_a_null_fits(self, page_file):
        _file, refs, values = page_file
        pool = make_pool(1)
        pool.set_value(refs[0], 1, 1e9)
        pool.set_value(refs[0], 2, None)  # an all-valid page has room for a bitmap
        pool.set_value(refs[0], 3, float("nan"))
        assert refs[0].zone == (0.0, 1e9)
        pool.get_values(refs[1])  # evict: the page comes back from the overlay
        got = pool.get_values(refs[0]).to_pylist()
        assert got[:3] == [0.0, 1e9, None] and got[3] != got[3]
        assert got[4:] == values[4:refs[0].rows]


class TestQuarantine:
    def _corrupt_ref(self, tmp_path):
        payload = chunk_payload(0, Column.from_values([1.0, 2.0], "float64"))
        raw = bytearray(encode_page(0, payload, PAGE_SIZE))
        raw[40] ^= 0xFF  # flip a byte of the value buffer after framing
        path = tmp_path / "bad.pages"
        path.write_bytes(bytes(raw))
        file = PageFile(str(path), PAGE_SIZE)
        import zlib

        return file, PageRef(file, 0, "t", "v", 0, 2, zlib.crc32(payload), "float64")

    def test_crc_failure_quarantines(self, tmp_path):
        _file, ref = self._corrupt_ref(tmp_path)
        pool = make_pool(4)
        with pytest.raises(PageCorruptError, match="CRC32"):
            pool.get_values(ref)
        assert pool.quarantined_pages() == [ref.key]
        # Sticky: the next read fails fast without re-reading bytes.
        with pytest.raises(PageCorruptError, match="quarantined"):
            pool.get_values(ref)

    def test_repair_lifts_the_quarantine(self, tmp_path):
        _file, ref = self._corrupt_ref(tmp_path)
        pool = make_pool(4)
        with pytest.raises(PageCorruptError):
            pool.get_values(ref)
        assert pool.repair() == 1
        assert pool.quarantined_pages() == []

    def test_directory_disagreement_detected(self, page_file):
        file, refs, _values = page_file
        pool = make_pool(4)
        wrong = PageRef(
            file, refs[0].page_no, "t", "v",
            refs[0].start + 1, refs[0].rows, refs[0].crc32, "float64",
        )
        with pytest.raises(PageCorruptError, match="disagrees"):
            pool.get_values(wrong)

    def test_directory_kind_disagreement_detected(self, page_file):
        file, refs, _values = page_file
        pool = make_pool(4)
        registry = MetricsRegistry()
        wrong = PageRef(
            file, refs[0].page_no, "t", "v",
            refs[0].start, refs[0].rows, refs[0].crc32, "int64",
        )
        from repro.obs import runtime

        with runtime.use(registry=registry):
            with pytest.raises(PageCorruptError, match="disagrees"):
                pool.get_values(wrong)
        assert pool.quarantined_pages() == [wrong.key]
        assert registry.value("repro_storage_decode_errors_total") == 1


class TestObservability:
    def test_snapshot_reports_counters(self, page_file):
        _file, refs, _values = page_file
        pool = make_pool(2)
        for ref in refs:
            pool.get_values(ref)
        snap = pool.snapshot()
        assert snap["misses"] == len(refs)
        assert snap["evictions"] > 0
        assert snap["budget_bytes"] == 2 * PAGE_SIZE
        assert snap["occupancy_bytes"] <= 2 * PAGE_SIZE

    def test_publish_exports_gauges(self, page_file):
        _file, refs, _values = page_file
        pool = make_pool(2)
        pool.get_values(refs[0])
        registry = MetricsRegistry()
        pool.publish(registry)
        doc = registry.to_prometheus()
        assert "repro_buffer_pool_misses_total 1" in doc
        assert "repro_buffer_pool_budget_bytes 512" in doc
