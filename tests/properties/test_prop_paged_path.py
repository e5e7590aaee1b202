"""A paged answer is the in-memory answer, bit for bit.

Generated tables are saved as a paged dump and loaded twice — as saved, and
with every zone stripped from the page directory, so nothing is pruned —
behind a pool of one frame, of three, or of everything.  A scan, filtered
scans and window queries must then agree with the in-memory table on every
value (floats by their eight bytes), every value's type and on what raises,
before and after the same interleaved writes went to all three tables and
the dirty pages went out to the overlay and came back.

A load without a budget reads the same pages into memory: it must give
back every value of every kind (TEXT wider than a page included) and the
same ``c1:`` state digest, with views rehydrated from the dump or
recomputed, and after a logged warehouse is cut by a crash and recovered.
"""

import datetime
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import BOOLEAN, DATE, Database, FLOAT, INTEGER, TEXT
from repro.relational.persist import load_database, save_database
from repro.replicate import state_digest
from repro.warehouse import DataWarehouse

COLUMNS = [("k", INTEGER), ("f", FLOAT), ("b", BOOLEAN), ("t", TEXT), ("d", DATE),
           ("v", FLOAT)]

ints = st.one_of(st.integers(-5, 40), st.sampled_from(
    [2**53, 2**53 + 1, -(2**53) - 1, 2**63 - 1, -(2**63)]))
big_ints = st.sampled_from([2**63, -(2**63) - 1, 2**70])  # the column turns object
floats = st.one_of(st.integers(-3, 30).map(lambda i: i / 4), st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324, -2.5e-320, 1e300, 0.1]))
wide_texts = st.sampled_from(["w" * 300, "\u2603" * 700, "x" * 5000])  # wider than a page
dates = st.integers(0, 400).map(lambda i: datetime.date(2001, 1, 1) + datetime.timedelta(i))


def nullable(values):
    return st.one_of(st.none(), values)


@st.composite
def row_lists(draw, min_size=0, max_size=60, wide=False):
    key = st.one_of(ints, big_ints) if draw(st.integers(0, 5)) == 0 else ints
    text = st.text("ab☃'", max_size=6)
    if wide:
        text = st.one_of(text, wide_texts)
    return draw(st.lists(st.tuples(
        nullable(key), nullable(floats), nullable(st.booleans()),
        nullable(text), nullable(dates), nullable(floats),
    ), min_size=min_size, max_size=max_size))


def cell(value):
    return (type(value), struct.pack("<d", value) if isinstance(value, float) else value)


def outcome(db, sql):
    try:
        return [tuple(cell(v) for v in row) for row in db.sql(sql).rows]
    except (TypeError, ValueError) as exc:  # e.g. a NULL sort key: on every path
        return type(exc)


def literal(value):
    """SQL text of a bound taken from the data (NaN and infinities have none)."""
    if isinstance(value, float) and (value != value or abs(value) == float("inf")):
        return "0.5"
    return repr(value)


def load_pair(db, directory, page_size, budget):
    """``db``'s dump loaded as saved, and with its zones stripped."""
    save_database(db, directory, page_size=page_size)
    pruned = load_database(directory, memory_budget_bytes=budget)
    unpruned = load_database(directory, memory_budget_bytes=budget)
    for store in unpruned.table("t")._columns:
        for ref in (page for chunk in store.chunks for page in chunk.pages):
            ref.zone = None
    return pruned, unpruned


def queries(table, draw):
    """A scan, filtered scans with bounds taken from the data (page edges
    included), an empty range, literals the mask refuses, window queries."""
    keys = [r[0] for r in table.rows if r[0] is not None] or [0]
    measures = [r[1] for r in table.rows if r[1] is not None] or [0.5]
    lo, hi = sorted([draw(st.sampled_from(keys)), draw(st.sampled_from(keys))])
    f = literal(draw(st.sampled_from(measures)))
    op = draw(st.sampled_from(["<", "<=", "=", ">=", ">"]))
    sqls = [
        "SELECT * FROM t",
        f"SELECT k, f, t FROM t WHERE k {op} {lo}",
        f"SELECT k, v FROM t WHERE f {op} {f}",
        f"SELECT * FROM t WHERE k BETWEEN {lo} AND {hi}",
        f"SELECT k FROM t WHERE k BETWEEN {hi + 1} AND {lo - 1}",
        f"SELECT k, d FROM t WHERE {f} {op} f AND b = TRUE",
        f"SELECT k FROM t WHERE k {op} 2.5",          # a float literal on an integer column
        f"SELECT f FROM t WHERE f {op} {2**53 + 1}",  # an integer float64 cannot hold
        "SELECT k, v FROM t WHERE v > 0.5 LIMIT 3",
        "SELECT k, t FROM t LIMIT 5",
        "SELECT k, SUM(v) OVER (ORDER BY k ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS w "
        f"FROM t WHERE k BETWEEN {lo} AND {hi} ORDER BY k",
        f"SELECT f, MAX(v) OVER (ORDER BY f DESC ROWS UNBOUNDED PRECEDING) AS w FROM t WHERE f >= {f}",
    ]
    # At 256 bytes a page holds 27 eight-byte values: rows 26|27 and 53|54 are page edges.
    edges = [keys[i] for i in (26, 27, 53, 54) if i < len(keys)]
    return sqls + [f"SELECT k, f FROM t WHERE k >= {e} AND k < {e + 3}" for e in edges]


def write(draw, tables):
    """One write, the same on every table."""
    n = len(tables[0])
    kind = draw(st.sampled_from(["update", "set", "append", "delete"] if n else ["append"]))
    if kind == "append":
        rows = draw(row_lists(min_size=1, max_size=3))
        for table in tables:
            table.insert_many(rows)
    elif kind == "update":
        slot, row = draw(st.integers(0, n - 1)), draw(row_lists(min_size=1, max_size=1))[0]
        for table in tables:
            table.update_slot(slot, row)
    elif kind == "set":
        slots = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True))
        name, values = draw(st.sampled_from(
            [("f", floats), ("k", ints), ("k", big_ints), ("t", st.just("zz" * 40))]))
        new = [draw(nullable(values)) for _ in slots]
        for table in tables:
            table.set_column(name, slots, new)
    else:
        doomed = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
        for table in tables:
            table.delete_slots(doomed)


@pytest.mark.filterwarnings("ignore:invalid value")  # inf - inf inside a window, on every path
@settings(max_examples=60, deadline=None)
@given(rows=row_lists(), page_size=st.sampled_from([256, 512, 1024, 4096]),
       frames=st.sampled_from([1, 3, 1 << 12]), data=st.data())
def test_paged_equals_in_memory(tmp_path_factory, rows, page_size, frames, data):
    ref = Database()
    ref.create_table("t", COLUMNS)
    ref.insert("t", rows)
    directory = str(tmp_path_factory.mktemp("dump"))
    paged = load_pair(ref, directory, page_size, frames * page_size)
    try:
        for step in range(3):
            for sql in queries(ref.table("t"), data.draw):
                want = outcome(ref, sql)
                assert [outcome(db, sql) for db in paged] == [want, want], sql
            assert {db.table("t").digest() for db in paged} == {ref.table("t").digest()}
            if step < 2:
                for _ in range(data.draw(st.integers(1, 3))):
                    write(data.draw, [db.table("t") for db in (ref, *paged)])
                for db in paged:
                    db.buffer_pool.flush()  # with few frames the pages then re-fault
    finally:
        for db in paged:
            db.table("t").close()
            db.buffer_pool.close()


# -- a load without a budget reads the pages into memory ------------------------------

VIEW = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING "
        "AND 1 FOLLOWING) AS s FROM seq")


def assert_in_memory(wh):
    assert wh.db.buffer_pool is None and wh.db.memory_budget_bytes is None
    assert not any(getattr(t, "is_paged", False) for t in wh.db.catalog.tables())


@settings(max_examples=40, deadline=None)
@given(rows=row_lists(wide=True), page_size=st.sampled_from([256, 1024, 4096]))
def test_a_budgetless_load_gives_back_every_value(tmp_path_factory, rows, page_size):
    wh = DataWarehouse()
    wh.create_table("t", COLUMNS)
    wh.insert("t", rows)
    wh.create_table("seq", [("pos", INTEGER), ("val", FLOAT)], primary_key=["pos"])
    wh.insert("seq", [(i, i / 7) for i in range(1, 40)])
    wh.create_view("mv", VIEW)
    directory = str(tmp_path_factory.mktemp("dump"))
    wh.save(directory, page_size=page_size)
    want = outcome(wh.db, "SELECT * FROM t")
    for rehydrate in (True, False):
        with DataWarehouse.load(directory, rehydrate=rehydrate) as loaded:
            assert_in_memory(loaded)
            assert outcome(loaded.db, "SELECT * FROM t") == want
            assert state_digest(loaded) == state_digest(wh)


def test_a_logged_warehouse_cut_by_a_crash_recovers_its_acked_state(tmp_path):
    from repro.errors import InjectedFault
    from repro.faults import FaultPlan, FaultSpec, injector
    from repro.replicate import WriteAheadLog, recover, wal_path
    from repro.serve import ConcurrentWarehouse

    home = str(tmp_path)
    cw = ConcurrentWarehouse(wal=WriteAheadLog(wal_path(home)))
    cw.create_table("seq", [("pos", "INTEGER"), ("val", "FLOAT")], primary_key=["pos"])
    cw.insert("seq", [(i, i / 7) for i in range(1, 80)])
    cw.create_view("mv", VIEW)
    cw.create_table("t", COLUMNS)
    cw.insert("t", [(2**70, -0.0, True, "x" * 5000, datetime.date(2002, 3, 4), float("inf")),
                    (2**53 + 1, None, None, None, None, None)])
    cw.save(home, page_size=256)  # a checkpoint of pages
    cw.insert_row("seq", (80, 2.5))
    cw.update_measure("seq", keys={"pos": 3}, value_col="val", new_value=9.75)
    acked, answer = state_digest(cw.warehouse), cw.query(VIEW).rows
    with injector.active(FaultPlan([FaultSpec("wal_torn_write", at=0)])):
        with pytest.raises(InjectedFault):
            cw.insert_row("seq", (81, 1.0))  # the crash tears this record
    cw.wal.close()

    report = recover(home)
    try:
        assert report.clean
        assert_in_memory(report.warehouse.warehouse)
        assert state_digest(report.warehouse.warehouse) == acked
        assert report.warehouse.query(VIEW).rows == answer
    finally:
        report.warehouse.wal.close()
