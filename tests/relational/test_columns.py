"""Columnar storage: Column and ColumnBuilder.

Also covers the Table-level contracts the plane underpins: lazy row
iteration with a mutation guard, the RowsView facade, and the
columnar-vs-row-tuple memory accounting.
"""

import datetime

import numpy as np
import pytest

from repro.columns import Column, ColumnBuilder, kind_for_type
from repro.relational import Database, FLOAT, INTEGER


class TestColumnConstruction:
    def test_kind_for_type(self):
        assert kind_for_type("INTEGER") == "int64"
        assert kind_for_type("FLOAT") == "float64"
        assert kind_for_type("BOOLEAN") == "bool"
        assert kind_for_type("TEXT") == "object"
        assert kind_for_type("DATE") == "object"
        assert kind_for_type("SOMETHING_ELSE") == "object"

    def test_int64_round_trip(self):
        col = Column.from_values([1, -2, 3], "int64")
        assert col.kind == "int64"
        assert col.to_pylist() == [1, -2, 3]
        assert all(type(v) is int for v in col.to_pylist())

    def test_null_sentinel_and_validity(self):
        col = Column.from_values([1.5, None, -2.0], "float64")
        assert col.kind == "float64"
        assert col.null_count == 1
        assert col.value(1) is None
        assert col.to_pylist() == [1.5, None, -2.0]
        # The sentinel fills the buffer slot; the validity bit marks NULL.
        assert col.data[1] == 0.0 and not col.validity[1]

    def test_all_valid_mask_normalized_to_none(self):
        col = Column(np.array([1.0, 2.0]), np.array([True, True]))
        assert col.validity is None

    def test_overflow_promotes_to_object(self):
        big = 2**70
        col = Column.from_values([1, big], "int64")
        assert col.kind == "object"
        assert col.to_pylist() == [1, big]

    def test_bool_does_not_pass_as_integer(self):
        # bool is an int subclass; the kind check must still reject it.
        col = Column.from_values([1, True], "int64")
        assert col.kind == "object"
        assert col.to_pylist() == [1, True]

    def test_object_kind_keeps_dates(self):
        d = datetime.date(2001, 2, 3)
        col = Column.from_values([d, None], "object")
        assert col.to_pylist() == [d, None]


class TestColumnTransforms:
    def test_take_gathers_validity(self):
        col = Column.from_values([1, None, 3], "int64")
        taken = col.take([2, 1, 1, 0])
        assert taken.to_pylist() == [3, None, None, 1]

    def test_as_float64_zero_copy_fast_path(self):
        col = Column.from_values([1.0, 2.0], "float64")
        assert col.as_float64(0.0) is col.data

    def test_as_float64_fills_nulls(self):
        col = Column.from_values([1.0, None], "float64")
        out = col.as_float64(-9.0)
        assert out.tolist() == [1.0, -9.0]
        assert not np.shares_memory(out, col.data)

    def test_memory_bytes_counts_buffers(self):
        col = Column.from_values([1, None, 3], "int64")
        assert col.memory_bytes() == col.data.nbytes + col.validity.nbytes
        text = Column.from_values(["abc", "defgh"], "object")
        assert text.memory_bytes() > text.data.nbytes  # payload estimate


class TestColumnBuilder:
    def test_append_set_get(self):
        b = ColumnBuilder("int64")
        b.append(7)
        b.append(None)
        b.set(0, 9)
        assert len(b) == 2
        assert b.get(0) == 9 and b.get(1) is None

    def test_growth_keeps_old_snapshots_frozen(self):
        b = ColumnBuilder("int64")
        for i in range(4):
            b.append(i)
        snap = b.snapshot()
        for i in range(100):  # force reallocation
            b.append(i)
        assert snap.to_pylist() == [0, 1, 2, 3]

    def test_append_overflow_promotes(self):
        b = ColumnBuilder.for_type("INTEGER")
        b.append(1)
        b.append(2**70)
        assert b.kind == "object"
        assert b.pylist() == [1, 2**70]

    def test_rebuild_and_clear(self):
        b = ColumnBuilder("float64")
        b.append(1.0)
        b.rebuild([2.0, None])
        assert b.pylist() == [2.0, None]
        b.clear()
        assert len(b) == 0 and b.pylist() == []

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            ColumnBuilder("int32")


@pytest.fixture
def table():
    db = Database()
    db.create_table("t", [("pos", INTEGER), ("val", FLOAT)],
                    primary_key=["pos"])
    db.insert("t", [(i, float(i) if i % 3 else None) for i in range(1, 11)])
    return db.table("t")


class TestTableIteration:
    def test_iteration_is_lazy(self, table):
        it = iter(table.rows)
        assert next(it) == (1, 1.0)  # no full materialization required

    def test_insert_during_iteration_raises(self, table):
        with pytest.raises(RuntimeError, match="mutated during iteration"):
            for row in table.rows:
                table.insert((99, 1.0))

    def test_delete_during_iteration_raises(self, table):
        with pytest.raises(RuntimeError, match="mutated during iteration"):
            for row in table.rows:
                table.delete_slots([0])

    def test_truncate_during_iteration_raises(self, table):
        with pytest.raises(RuntimeError, match="mutated during iteration"):
            for row in table.rows:
                table.truncate()

    def test_update_during_iteration_allowed(self, table):
        # UPDATE rewrites values in place (no slot renumbering); the SQL
        # layer iterates while updating, so this must NOT trip the guard.
        seen = 0
        for slot, row in enumerate(table.rows):
            table.update_slot(slot, (row[0], 0.5))
            seen += 1
        assert seen == 10
        assert all(r[1] == 0.5 for r in table.rows)


class TestRowsView:
    def test_len_getitem_slice(self, table):
        view = table.rows
        assert len(view) == 10
        assert view[0] == (1, 1.0)
        assert view[-1] == (10, 10.0)
        assert view[2:4] == [(3, None), (4, 4.0)]

    def test_equality_with_lists(self, table):
        as_list = list(table.rows)
        assert table.rows == as_list
        assert not (table.rows != as_list)
        assert table.rows != as_list[:-1]


class TestTableColumnar:
    def test_column_values_zero_copy(self, table):
        col = table.column_values(1)
        assert col.to_pylist()[:3] == [1.0, 2.0, None]
        raw = table._columns[1].chunks[0].data  # noqa: SLF001 - asserting zero-copy
        assert np.shares_memory(col.data, raw)

    def test_memory_bytes_row_vs_columnar(self, table):
        columnar = table.memory_bytes()
        as_rows = table.row_memory_bytes()
        assert columnar > 0
        # Ten (int, float) tuples cost far more as boxed tuples than as
        # two fixed-width buffers + masks.
        assert as_rows > columnar
