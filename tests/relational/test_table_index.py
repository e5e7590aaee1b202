"""Heap tables, primary keys, hash/sorted indexes."""

import pytest

from repro.errors import CatalogError, ConstraintError, SchemaError
from repro.relational.index import HashIndex, SortedIndex
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.types import FLOAT, INTEGER, TEXT


def make_table(pk=("pos",)):
    return Table("t", Schema.of(("pos", INTEGER), ("val", FLOAT)), primary_key=pk)


class TestTable:
    def test_insert_and_iterate(self):
        t = make_table()
        t.insert_many([(1, 1.0), (2, 2.0)])
        assert len(t) == 2
        assert list(t) == [(1, 1.0), (2, 2.0)]

    def test_type_coercion_on_insert(self):
        t = make_table()
        t.insert((1, 5))  # int -> float for val
        assert t.row(0) == (1, 5.0)

    def test_arity_mismatch(self):
        t = make_table()
        with pytest.raises(SchemaError):
            t.insert((1,))

    def test_primary_key_enforced(self):
        t = make_table()
        t.insert((1, 1.0))
        with pytest.raises(ConstraintError):
            t.insert((1, 9.0))
        assert len(t) == 1  # failed insert left no trace

    def test_update_slot(self):
        t = make_table()
        t.insert_many([(1, 1.0), (2, 2.0)])
        t.update_slot(0, (1, 99.0))
        assert t.row(0) == (1, 99.0)

    def test_update_slot_pk_conflict_rolls_back(self):
        t = make_table()
        t.insert_many([(1, 1.0), (2, 2.0)])
        with pytest.raises(ConstraintError):
            t.update_slot(0, (2, 1.0))
        assert t.row(0) == (1, 1.0)
        # Index still serves the original key.
        assert t.indexes["t_pk"].lookup((1,)) == [0]

    def test_delete_slots_renumbers(self):
        t = make_table()
        t.insert_many([(i, float(i)) for i in range(1, 6)])
        t.delete_slots([1, 3])
        assert [r[0] for r in t] == [1, 3, 5]
        assert t.indexes["t_pk"].lookup((3,)) == [1]

    def test_truncate(self):
        t = make_table()
        t.insert_many([(1, 1.0)])
        t.truncate()
        assert len(t) == 0
        assert t.indexes["t_pk"].lookup((1,)) == []


class TestIndexManagement:
    def test_create_and_find(self):
        t = make_table(pk=None)
        t.insert_many([(i, float(i % 3)) for i in range(10)])
        idx = t.create_index("by_val", ["val"], kind="hash")
        assert t.find_index(["val"]) is idx
        assert t.find_index(["pos"]) is None

    def test_sorted_only_filter(self):
        t = make_table(pk=None)
        t.create_index("h", ["pos"], kind="hash")
        assert t.find_index(["pos"], sorted_only=True) is None
        t.create_index("s", ["pos"], kind="sorted")
        assert t.find_index(["pos"], sorted_only=True).name == "s"

    def test_duplicate_index_name(self):
        t = make_table()
        with pytest.raises(CatalogError):
            t.create_index("t_pk", ["val"])

    def test_drop_index(self):
        t = make_table()
        t.drop_index("t_pk")
        assert t.find_index(["pos"]) is None
        with pytest.raises(CatalogError):
            t.drop_index("t_pk")

    def test_unknown_kind(self):
        t = make_table()
        with pytest.raises(CatalogError):
            t.create_index("x", ["val"], kind="btree2000")

    def test_index_maintained_on_insert(self):
        t = make_table(pk=None)
        idx = t.create_index("by_pos", ["pos"], kind="sorted")
        t.insert_many([(3, 0.0), (1, 0.0), (2, 0.0)])
        assert list(idx.range((1,), (2,))) == [1, 2]


class TestHashIndex:
    def test_lookup(self):
        idx = HashIndex("h", [0])
        idx.add((5, "x"), 0)
        idx.add((5, "y"), 1)
        assert idx.lookup((5,)) == [0, 1]
        assert idx.lookup((6,)) == []

    def test_unique_violation(self):
        idx = HashIndex("h", [0], unique=True)
        idx.add((5,), 0)
        with pytest.raises(ConstraintError):
            idx.add((5,), 1)

    def test_remove(self):
        idx = HashIndex("h", [0])
        idx.add((5,), 0)
        idx.remove((5,), 0)
        assert idx.lookup((5,)) == []

    def test_rebuild(self):
        idx = HashIndex("h", [0])
        idx.load([(1,), (2,), (1,)])
        assert idx.lookup((1,)) == [0, 2]
        assert len(idx) == 3


class TestSortedIndex:
    def test_point_lookup(self):
        idx = SortedIndex("s", [0])
        for slot, key in enumerate([5, 1, 3, 3]):
            idx.add((key,), slot)
        assert sorted(idx.lookup((3,))) == [2, 3]

    def test_range_scan(self):
        idx = SortedIndex("s", [0])
        for slot, key in enumerate([5, 1, 3, 8]):
            idx.add((key,), slot)
        assert list(idx.range((2,), (6,))) == [2, 0]

    def test_unbounded_ranges(self):
        idx = SortedIndex("s", [0])
        for slot, key in enumerate([5, 1, 3]):
            idx.add((key,), slot)
        assert list(idx.range(None, (3,))) == [1, 2]
        assert list(idx.range((3,), None)) == [2, 0]
        assert list(idx.range(None, None)) == [1, 2, 0]

    def test_unique_violation_on_add_and_rebuild(self):
        idx = SortedIndex("s", [0], unique=True)
        idx.add((1,), 0)
        with pytest.raises(ConstraintError):
            idx.add((1,), 1)
        with pytest.raises(ConstraintError):
            SortedIndex("s2", [0], unique=True).load([(1,), (1,)])

    def test_remove_specific_slot(self):
        idx = SortedIndex("s", [0])
        idx.add((3,), 0)
        idx.add((3,), 1)
        idx.remove((3,), 0)
        assert idx.lookup((3,)) == [1]
