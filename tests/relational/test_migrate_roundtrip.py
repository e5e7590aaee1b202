"""`repro migrate`: a dump of any version becomes pages, with identical answers."""

import json
import os

import pytest

from repro.cli import main
from repro.relational.persist import load_database
from tests.relational.legacy_dumps import build_db, write_legacy_dump

QUERY = (
    "SELECT pos, tag, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 "
    "PRECEDING AND 1 FOLLOWING) AS s FROM t ORDER BY pos"
)
LEGACY_FILES = {
    1: {"t.jsonl", "empty.jsonl"},
    2: {"t.jsonl", "empty.jsonl"},
    3: {"t.cols.json", "empty.cols.json"},
}


def catalog_version(directory: str) -> int:
    with open(os.path.join(directory, "catalog.json"), encoding="utf-8") as fh:
        return json.load(fh)["version"]


def data_files(directory: str) -> set:
    return set(os.listdir(os.path.join(directory, "data")))


class TestUpgradeChain:
    def test_every_legacy_version_migrates_to_pages_bit_identically(self, tmp_path):
        reference = build_db().sql(QUERY).rows
        for version in (1, 2, 3):
            d = str(tmp_path / f"v{version}")
            write_legacy_dump(d, version)
            assert load_database(d).sql(QUERY).rows == reference
            assert main(["migrate", "--dir", d]) == 0
            assert catalog_version(d) == 4
            for budget in (None, 2048):
                loaded = load_database(d, memory_budget_bytes=budget)
                assert loaded.sql(QUERY).rows == reference
                assert loaded.table("t").rows == build_db().table("t").rows

    def test_v1_to_v4_direct_hop(self, tmp_path, capsys):
        d = str(tmp_path)
        write_legacy_dump(d, 1)
        reference = build_db().sql(QUERY).rows
        assert main(["migrate", "--dir", d]) == 0
        assert "v1 -> v4" in capsys.readouterr().out
        assert catalog_version(d) == 4
        assert load_database(d).sql(QUERY).rows == reference

    def test_superseded_data_files_are_removed(self, tmp_path, capsys):
        for version in (1, 3):
            d = str(tmp_path / f"v{version}")
            write_legacy_dump(d, version)
            assert data_files(d) == LEGACY_FILES[version]
            main(["migrate", "--dir", d])
            assert data_files(d) == {"t.pages", "empty.pages"}
            assert "2 superseded data files removed" in capsys.readouterr().out
        main(["migrate", "--dir", d])  # pages to pages: nothing left to remove
        assert data_files(d) == {"t.pages", "empty.pages"}
        assert "0 superseded data files removed" in capsys.readouterr().out

    def test_indexes_and_pk_survive_every_hop(self, tmp_path):
        for version in (1, 2, 3):
            d = str(tmp_path / f"v{version}")
            write_legacy_dump(d, version)
            main(["migrate", "--dir", d])
            table = load_database(d).table("t")
            assert table.primary_key == ("pos",)
            idx = table.find_index(["tag"])
            assert idx is not None and idx.kind == "hash"

    def test_v4_dump_queries_out_of_core(self, tmp_path):
        d = str(tmp_path)
        write_legacy_dump(d, 1)
        reference = build_db().sql(QUERY).rows
        main(["migrate", "--dir", d])
        loaded = load_database(d, memory_budget_bytes=2048)
        assert loaded.sql(QUERY).rows == reference
        assert loaded.buffer_pool.evictions > 0


class TestValidationStaysIntact:
    def test_v3_crc_still_checked_after_migration(self, tmp_path, capsys):
        from repro.errors import CatalogError

        d = str(tmp_path)
        write_legacy_dump(d, 3)
        path = os.path.join(d, "data", "t.cols.json")
        with open(path, "rb") as fh:
            raw = bytearray(fh.read())
        raw[raw.index(b"0.3333")] = ord("9")
        with open(path, "wb") as fh:
            fh.write(bytes(raw))
        with pytest.raises(CatalogError, match="CRC32"):
            load_database(d)
        # Migration refuses the corrupt dump and leaves it as it was.
        assert main(["migrate", "--dir", d]) == 2
        assert "CRC32" in capsys.readouterr().out
        assert data_files(d) == LEGACY_FILES[3] and catalog_version(d) == 3

    def test_v4_page_crc_still_checked_after_migration(self, tmp_path):
        from repro.errors import PageCorruptError
        from repro.storage.page import HEADER_SIZE

        d = str(tmp_path)
        write_legacy_dump(d, 1)
        main(["migrate", "--dir", d])
        path = os.path.join(d, "data", "t.pages")
        with open(path, "r+b") as fh:
            fh.seek(HEADER_SIZE + 8)
            byte = fh.read(1)
            fh.seek(HEADER_SIZE + 8)
            fh.write(bytes([byte[0] ^ 0xFF]))
        # In memory every page is decoded; paged, the PK-index rebuild
        # streams every page: either way the load itself trips.
        for budget in (None, 1024):
            with pytest.raises(PageCorruptError):
                load_database(d, memory_budget_bytes=budget)

    def test_unwritable_target_version_fails_cleanly(self, tmp_path):
        # There is one format to write, so there is no target to name.
        d = str(tmp_path)
        write_legacy_dump(d, 1)
        for target in ("1", "3", "4"):
            with pytest.raises(SystemExit):
                main(["migrate", "--dir", d, "--to", target])
        assert data_files(d) == LEGACY_FILES[1]
