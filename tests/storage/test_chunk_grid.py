"""One chunk grid: a column is a list of CHUNK_SLOTS-slot chunks, each
resident or on pages, and every copy, fallback and digest works chunk by
chunk — counted, not timed."""

import numpy as np
import pytest

from repro.columns.column import CHUNK_SLOTS
from repro.relational import Database, FLOAT, INTEGER, TEXT
from repro.relational.persist import load_database, save_database
from repro.serve import ConcurrentWarehouse
from repro.warehouse import create_sequence_table

VIEW = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING "
        "AND 1 FOLLOWING) AS s FROM seq")


def chunk_lists(table):
    return [list(builder.chunks) for builder in table._columns]


class TestClone:
    def test_a_clone_shares_every_chunk_buffer(self):
        db = Database()
        create_sequence_table(db, "seq", 64_000, seed=3)
        table = db.table("seq")
        clone = table.clone()
        pairs = [(a, b) for mine, theirs in zip(chunk_lists(table), chunk_lists(clone))
                 for a, b in zip(mine, theirs)]
        assert len(pairs) == 2 * 64_000 // CHUNK_SLOTS
        assert all(np.shares_memory(a.data, b.data) for a, b in pairs)
        # A write copies the one chunk it lands in; the original keeps it.
        clone.update_slot(31_000, [31_001, -1.0])
        assert table.row(31_000)[1] != -1.0 and clone.row(31_000)[1] == -1.0
        copied = [c for column in (0, 1) for c in range(len(pairs) // 2)
                  if clone._columns[column].chunks[c] is not table._columns[column].chunks[c]]
        assert len(copied) == 2  # chunk 62 of pos and of val

    @staticmethod
    def copied_by_one_update(rows):
        cw = ConcurrentWarehouse()
        cw.create_table("seq", [("pos", "INTEGER"), ("val", "FLOAT")], primary_key=["pos"])
        cw.insert("seq", [(i, i % 11 / 4) for i in range(1, rows + 1)])
        cw.create_view("mv", VIEW)
        before = {t.name: chunk_lists(t) for t in cw.warehouse.db.catalog.tables()}
        cw.update_measure("seq", keys={"pos": rows // 2 + 10}, value_col="val",
                          new_value=-2.5)
        copied = 0
        for table in cw.warehouse.db.catalog.tables():
            for old, new in zip(before[table.name], chunk_lists(table)):
                copied += sum(a is not b for a, b in zip(old, new))
        return copied

    def test_an_interior_update_copies_as_many_chunks_at_1k_as_at_64k_rows(self):
        counts = [self.copied_by_one_update(rows) for rows in (1_000, 64_000)]
        assert counts[0] == counts[1] <= 4


def paged_pair(tmp_path, rows=2_000):
    """An in-memory table and a paged load of its dump at 512-byte pages."""
    ref = Database()
    ref.create_table("t", [("k", INTEGER), ("v", FLOAT), ("tag", TEXT)], primary_key=["k"])
    ref.insert("t", [(i, i / 8, f"t{i % 13}") for i in range(rows)])
    save_database(ref, str(tmp_path), page_size=512)
    return ref, load_database(str(tmp_path), memory_budget_bytes=8 * 512)


def pages_only_in(table, column, chunk):
    chunks = table._columns[column].chunks
    others = {p for c, other in enumerate(chunks) if c != chunk for p in other.pages}
    return len(set(chunks[chunk].pages) - others)


QUERIES = [
    "SELECT * FROM t ORDER BY k",
    "SELECT k, tag FROM t WHERE k BETWEEN 1190 AND 1260 ORDER BY k",
    "SELECT COUNT(*), MIN(v), MAX(v) FROM t",
]


class TestChunkLevelFallback:
    @pytest.mark.parametrize("column, value", [(2, "x" * 2_000), (0, 2**70)],
                             ids=["text-wider-than-a-page", "integer-beyond-int64"])
    def test_a_refused_value_makes_one_chunk_resident(self, tmp_path, column, value):
        ref, paged = paged_pair(tmp_path)
        try:
            table = paged.table("t")
            before, lost = table.pages_total, pages_only_in(table, column, 2)
            for db in (ref, paged):
                row = list(db.table("t").row(1_234))
                row[column] = value
                db.table("t").update_slot(1_234, row)
            resident = [[c.resident for c in b.chunks] for b in table._columns]
            assert resident[column] == [False, False, True, False]
            assert sum(map(sum, resident)) == 1
            assert table.is_paged and table.pages_total == before - lost
            assert [paged.sql(q).rows for q in QUERIES] == [ref.sql(q).rows for q in QUERIES]
            assert table.digest() == ref.table("t").digest()
        finally:
            paged.buffer_pool.close()

    def test_a_delete_rebuilds_from_its_chunk_on(self, tmp_path):
        ref, paged = paged_pair(tmp_path)
        try:
            table = paged.table("t")
            kept = [b.chunks[:2] for b in table._columns]
            for db in (ref, paged):
                db.table("t").delete_slots([1_100])
            assert [b.chunks[:2] for b in table._columns] == kept
            assert not any(c.resident for b in table._columns for c in b.chunks[:2])
            assert all(c.resident for b in table._columns for c in b.chunks[2:])
            assert [paged.sql(q).rows for q in QUERIES] == [ref.sql(q).rows for q in QUERIES]
            assert table.digest() == ref.table("t").digest()
        finally:
            paged.buffer_pool.close()


def test_a_paged_tables_kept_digest_rehashes_only_the_written_chunks(tmp_path):
    ref = Database()
    create_sequence_table(ref, "seq", 64_000, seed=5)
    save_database(ref, str(tmp_path))
    paged = load_database(str(tmp_path), memory_budget_bytes=1 << 16)
    try:
        table = paged.table("seq")
        first = [0, 0]
        assert table.digest(first) == ref.table("seq").digest()
        assert first[0] == 2 * 64_000 // CHUNK_SLOTS
        for db in (ref, paged):
            db.table("seq").update_slot(40_321, [40_322, -7.25])
        tally = [0, 0]
        assert table.digest(tally) == table.digest(cached=False) == ref.table("seq").digest()
        assert tally[0] <= 2 * 2  # at most two chunks of each column
        assert table.is_paged
    finally:
        paged.buffer_pool.close()


class TestExtend:
    """A small append tops up the last chunk in place when it is resident
    and no clone shares it; otherwise that chunk is copied first."""

    def test_a_one_row_extend_onto_a_partial_resident_chunk_copies_no_held_value(self, monkeypatch):
        from repro.columns import Column, ColumnBuilder

        builder = ColumnBuilder("float64")
        builder.extend(Column(np.arange(CHUNK_SLOTS - 1, dtype=np.float64)))
        last = builder.chunks[-1]
        buffer = last.data
        gathered = []
        monkeypatch.setattr(ColumnBuilder, "gather",
                            lambda self, ranges: gathered.append(ranges))
        builder.extend(Column(np.array([-1.0])))
        assert gathered == []
        assert builder.chunks[-1] is last and last.data is buffer
        assert last.rows == len(builder) == CHUNK_SLOTS
        assert last.data[CHUNK_SLOTS - 1] == -1.0

    def test_an_extend_after_a_clone_leaves_the_clone_as_it_was(self):
        db = Database()
        table = db.create_table("t", [("k", INTEGER), ("v", FLOAT), ("s", TEXT)])
        table.insert_many([(i, i / 4, str(i)) for i in range(CHUNK_SLOTS + 7)])
        clone = table.clone()
        digest, rows = clone.digest(cached=False), list(clone.rows)
        table.insert_many([(-1, -1.0, "x")])
        assert clone.digest(cached=False) == digest and list(clone.rows) == rows
        assert len(table) == len(clone) + 1 and table.row(len(clone)) == (-1, -1.0, "x")
