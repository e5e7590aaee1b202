"""A bulk insert is the row-at-a-time insert, column by column, all or none.

``Table.insert_many`` coerces whole columns and appends them; these tests
hold it to a loop of ``Table.insert`` on a fresh table: the same digest,
the same stored values of the same Python types, the same index answers,
and for a bad row the same exception class — while the bulk insert leaves
the table exactly as it was.
"""

import datetime
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columns.column import CHUNK_SLOTS
from repro.errors import ConstraintError, SchemaError
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.types import INTEGER, type_by_name

COLUMNS = [
    ("k", "INTEGER"), ("g", "INTEGER"), ("i", "INTEGER"), ("f", "FLOAT"),
    ("s", "TEXT"), ("b", "BOOLEAN"), ("d", "DATE"),
]

integers = st.one_of(
    st.none(), st.integers(-10**6, 10**6),
    st.integers(-10**6, 10**6).map(float),  # 2.0 in INTEGER reads back as 2
    st.sampled_from([2**63 - 1, 2**63, -(2**63) - 1, 2**70]),  # beyond int64: object kind
)
floats = st.one_of(
    st.none(), st.floats(allow_nan=False, width=64),
    st.integers(-10**6, 10**6),  # an int in FLOAT reads back as 3.0
)
texts = st.one_of(st.none(), st.text(max_size=4))
dates = st.one_of(
    st.none(), st.dates(),
    st.dates().map(lambda d: d.isoformat()),
    st.datetimes(),
)
BAD = {  # column -> a value its type refuses
    "i": st.sampled_from([1.5, True, "3"]),
    "f": st.sampled_from([True, "x"]),
    "s": st.sampled_from([1, 2.5]),
    "b": st.sampled_from([1, "yes"]),
    "d": st.sampled_from(["not-a-date", 20200101]),
}


def fresh() -> Table:
    table = Table("t", Schema.of(*[(n, type_by_name(t)) for n, t in COLUMNS]),
                  primary_key=["k"])
    table.create_index("by_s", ["s"], kind="hash")
    table.create_index("by_g", ["g"], kind="sorted")  # duplicates: slot order
    return table


@st.composite
def batches(draw):
    """A prefill (so the batch may start mid-chunk) and a batch of rows,
    with at most one fault: a bad value, a wrong width or a duplicate key."""
    n_pre = draw(st.sampled_from([0, 1, CHUNK_SLOTS - 1, CHUNK_SLOTS, CHUNK_SLOTS + 7]))
    n = draw(st.integers(0, 30))
    keys = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    rows = [
        [n_pre + 10**7 + k, draw(st.integers(0, 3)), draw(integers), draw(floats),
         draw(texts), draw(st.one_of(st.none(), st.booleans())), draw(dates)]
        for k in keys
    ]
    fault = draw(st.sampled_from([None, "value", "width", "key", "prefill-key"])) if rows else None
    at = draw(st.integers(0, len(rows) - 1)) if rows else 0
    if fault == "value":
        column = draw(st.sampled_from(sorted(BAD)))
        rows[at][[n for n, _ in COLUMNS].index(column)] = draw(BAD[column])
    elif fault == "width":
        rows[at] = rows[at][:-1]
    elif fault == "key":
        rows[at][0] = rows[draw(st.integers(0, len(rows) - 1))][0]  # maybe its own
    elif fault == "prefill-key":
        rows[at][0] = draw(st.integers(0, n_pre - 1)) if n_pre else rows[at][0]
    prefill = [(k, k % 3, k, float(k), "p", True, datetime.date(2020, 1, 1))
               for k in range(n_pre)]
    return prefill, [tuple(row) for row in rows]


def stored(table):
    """Every stored value with its Python type (repr keeps -0.0 apart)."""
    return [tuple((type(v).__name__, repr(v)) for v in row) for row in table.rows]


def index_answers(table, rows):
    out = {}
    for name, index in table.indexes.items():
        i = index.column_indexes[0]
        probes = {(row[i],) for row in table.rows} | {(row[i],) for row in rows if len(row) > i}
        out[name] = {
            repr(key): list(index.lookup(key)) for key in probes
            if key[0] is not None or index.kind == "hash"
        }
        if index.kind == "sorted":
            out[name]["range"] = list(index.range(None, None))
    return out


def by_loop(prefill, rows):
    table = fresh()
    table.insert_many(prefill)
    try:
        for row in rows:
            table.insert(row)
    except (SchemaError, ConstraintError) as exc:
        return table, type(exc)
    return table, None


@settings(max_examples=200, deadline=None)
@given(data=batches())
def test_insert_many_equals_a_loop_of_insert(data):
    prefill, rows = data
    looped, loop_error = by_loop(prefill, rows)
    table = fresh()
    table.insert_many(prefill)
    before = (table.digest(), stored(table), index_answers(table, rows))
    try:
        assert table.insert_many(rows) == len(rows)
        error = None
    except (SchemaError, ConstraintError) as exc:
        error = type(exc)
    assert error is loop_error
    if error is not None:  # all or none: the bulk insert changed nothing
        assert (table.digest(), stored(table), index_answers(table, rows)) == before
        return
    assert table.digest() == looped.digest()
    assert stored(table) == stored(looped)
    assert index_answers(table, rows) == index_answers(looped, rows)
    assert len(table) == len(prefill) + len(rows)


def test_stored_types_follow_the_column_type():
    table = fresh()
    table.insert_many([
        (1, 0, 2.0, 3, "a", True, "2021-03-04"),
        (2, 0, 2**70, 0.5, None, None, datetime.datetime(2021, 3, 4, 5, 6)),
    ])
    assert table.rows[0] == (1, 0, 2, 3.0, "a", True, datetime.date(2021, 3, 4))
    assert type(table.rows[0][2]) is int and type(table.rows[0][3]) is float
    assert table.rows[1][2] == 2**70
    assert table.rows[1][6] == datetime.date(2021, 3, 4)
    assert type(table.rows[1][6]) is datetime.date


@pytest.mark.parametrize("rows, error", [
    ([(5, 0, 1, 1.0, "a", True, None), (5, 0, 1, 1.0, "b", True, None)], ConstraintError),
    ([(6, 0, 1, 1.0, "a", True, None), (7, 0, 1.5, 1.0, "b", True, None)], SchemaError),
    ([(8, 0, 1, 1.0, "a", True, None), (9, 0, 1, 1.0, "b")], SchemaError),
])
def test_a_failed_bulk_insert_changes_nothing(rows, error):
    table = fresh()
    table.insert_many([(k, 0, k, float(k), "p", False, None) for k in range(1, 6)])
    digest, before = table.digest(), stored(table)
    with pytest.raises(error):
        table.insert_many(rows)
    assert table.digest() == digest and stored(table) == before
    assert table.indexes["t_pk"].lookup((6,)) == []
    assert sorted(table.indexes["by_s"].lookup(("p",))) == [0, 1, 2, 3, 4]


class Counted(int):
    """An int that counts the hashes and comparisons made on it."""

    calls = 0

    def __hash__(self):
        Counted.calls += 1
        return int.__hash__(self)


for _name in ("__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"):
    def _counted(self, other, _op=getattr(int, _name)):
        Counted.calls += 1
        return _op(self, other)
    setattr(Counted, _name, _counted)


@pytest.mark.parametrize("batch", [1, 20])  # inserted one by one; merged
def test_a_small_bulk_insert_into_a_large_table_touches_few_held_keys(batch):
    n = 50_000
    table = Table("t", Schema.of(("k", INTEGER), ("g", INTEGER)), primary_key=["k"])
    table.create_index("by_g", ["g"], kind="hash", unique=True)
    table.insert_many([(2 * k, 2 * k) for k in range(n)])
    pk, by_g = table.indexes["t_pk"], table.indexes["by_g"]
    pk._keys = [(Counted(k),) for (k,) in pk._keys]
    by_g._map = {(Counted(k),): slots for (k,), slots in by_g._map.items()}
    Counted.calls = 0
    rows = [(n + 2 * j + 1, -1 - j) for j in range(batch)]  # between held keys
    assert table.insert_many(rows) == batch
    assert Counted.calls <= 20 * batch * math.log2(n)  # not one per held key
    assert pk.lookup((n + 1,)) == [n] and by_g.lookup((-1,)) == [n]
    keys = [k for (k,) in pk._keys]
    assert keys == sorted(keys) and list(pk.range((n,), (n + 2,))) == [n // 2, n, n // 2 + 1]


@pytest.mark.parametrize("at", [0, 7, CHUNK_SLOTS - 1, CHUNK_SLOTS + 3])
def test_insert_columns_before_a_slot_moves_later_rows_and_keeps_indexes(at):
    from repro.columns import Column
    import numpy as np

    def table_of(rows):
        table = Table("t", Schema.of(("k", INTEGER), ("v", type_by_name("FLOAT"))), ["k"])
        table.create_index("by_v", ["v"], kind="hash")
        table.insert_many(rows)
        return table

    rows = [(k, k / 2) for k in range(0, 4 * CHUNK_SLOTS, 2)]
    table = table_of(rows)
    new = [(-1, -0.5), (-3, -1.5)]
    columns = [Column(np.array(c)) for c in zip(*new)]
    assert table.insert_columns(at, columns) == 2
    expected = table_of(rows[:at] + new + rows[at:])
    assert table.digest(cached=False) == expected.digest(cached=False)
    for key in ((-3,), (rows[at][0],), (rows[-1][0],)):
        assert table.indexes["t_pk"].lookup(key) == expected.indexes["t_pk"].lookup(key)
    assert table.indexes["by_v"].lookup((-1.5,)) == [at + 1]
    with pytest.raises(ConstraintError):  # a duplicate key changes nothing
        table.insert_columns(at, [Column(np.array([rows[0][0]])), Column(np.array([9.0]))])
    assert table.digest(cached=False) == expected.digest(cached=False)
