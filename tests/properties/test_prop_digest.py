"""The content digest: kept current by the storage, a function of content.

Three families of checks on :func:`repro.replicate.wal.state_digest`:

* after any generated sequence of writes, clones and save/load round trips
  the incrementally kept digest equals a from-scratch recomputation;
* warehouses with equal schema, values, NULLs and heap order have equal
  digests whatever history produced them (bulk or row-wise loads,
  interleaved deletes, an INTEGER column promoted to ``object`` that no
  longer needs to be, a paged load);
* any change of content changes it: one value bit, one NULL, one row swap,
  one schema type, the sign of a zero, a value moved across a chunk boundary.

The generated cases run with a four-slot chunk so that small tables span
many chunks; the explicit cases use the real chunk size at its boundaries.
"""

import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DataWarehouse
from repro.columns import column as column_module
from repro.columns.column import CHUNK_SLOTS
from repro.replicate.wal import DIGEST_SCHEME, state_digest

VIEWS = {
    "v_sum": "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING "
             "AND 1 FOLLOWING) AS w FROM seq",
    "v_max": "SELECT pos, MAX(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING "
             "AND 2 FOLLOWING) AS w FROM seq",
    "v_cum": "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) "
             "AS w FROM seq",
}


def small_chunks():
    return mock.patch.object(column_module, "CHUNK_SLOTS", 4)


def consistent(wh) -> str:
    kept = state_digest(wh)
    assert kept == state_digest(wh, cached=False)
    assert kept.startswith(DIGEST_SCHEME)
    return kept


def seq_warehouse(n: int) -> DataWarehouse:
    wh = DataWarehouse()
    wh.create_table("seq", [("pos", "INTEGER"), ("val", "FLOAT")], primary_key=["pos"])
    wh.insert("seq", [(10 * (i + 1), float(i % 7)) for i in range(n)])
    for name, sql in VIEWS.items():
        wh.create_view(name, sql)
    return wh


# -- incremental == from scratch --------------------------------------------------

OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert_row", "update_measure", "delete_row",
                         "refresh_view", "clone", "save_load"]),
        st.integers(0, 10_000),
        st.floats(-1e6, 1e6, allow_nan=False),
    ),
    min_size=1, max_size=12,
)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 14), ops=OPS)
def test_kept_digest_equals_recomputation(tmp_path_factory, n, ops):
    with small_chunks():
        _run_ops(tmp_path_factory, n, ops)


def _run_ops(tmp_path_factory, n, ops):
    wh = seq_warehouse(n)
    consistent(wh)
    for op, pick, value in ops:
        keys = [row[0] for row in wh.db.table("seq").rows]
        if op == "insert":
            top = max(keys, default=0)
            wh.insert("seq", [(top + 10 * (i + 1), value + i) for i in range(pick % 6 + 1)])
            for name in VIEWS:  # a bulk insert bypasses maintenance
                wh.refresh_view(name)
        elif op == "insert_row":
            free = sorted(set(range(1, max(keys, default=0) + 12)) - set(keys))
            wh.insert_row("seq", [free[pick % len(free)], value])
        elif op == "update_measure" and keys:
            wh.update_measure("seq", keys={"pos": keys[pick % len(keys)]},
                              value_col="val", new_value=value)
        elif op == "delete_row" and len(keys) > 1:
            wh.delete_row("seq", keys={"pos": keys[pick % len(keys)]})
        elif op == "refresh_view":
            wh.refresh_view(sorted(VIEWS)[pick % len(VIEWS)])
        elif op == "clone":
            for table in list(wh.db.catalog.tables()):
                wh.db.catalog.replace(table.clone())
        elif op == "save_load":
            before = consistent(wh)
            home = str(tmp_path_factory.mktemp("dump"))
            wh.save(home)
            wh = DataWarehouse.load(home, rehydrate=True)
            assert consistent(wh) == before
        consistent(wh)
        assert not wh.quarantined_views()


# -- equal content, different histories ---------------------------------------------

ROW = st.tuples(
    st.one_of(st.none(), st.integers(-(2 ** 40), 2 ** 40)),
    st.one_of(st.none(), st.floats(allow_nan=False), st.just(-0.0)),
    st.one_of(st.none(), st.text(max_size=6)),
    st.one_of(st.none(), st.booleans()),
)
COLUMNS = [("k", "INTEGER"), ("f", "FLOAT"), ("t", "TEXT"), ("b", "BOOLEAN")]
JUNK = (2 ** 70, 1.5, "junk", True)  # its INTEGER does not fit int64


def table_digest(build) -> str:
    wh = DataWarehouse()
    wh.create_table("t", COLUMNS)
    build(wh)
    return consistent(wh)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(ROW, max_size=14), junk_at=st.lists(st.integers(0, 14), max_size=4))
def test_equal_content_equal_digest_whatever_the_history(rows, junk_at):
    with small_chunks():
        _compare_histories(rows, junk_at)


def _compare_histories(rows, junk_at):
    bulk = table_digest(lambda wh: wh.insert("t", rows))

    def row_wise(wh):
        for row in rows:
            wh.insert("t", [row])
            state_digest(wh)  # fill and dirty the chunk cache as it grows

    def with_deletes(wh):
        # Junk rows interleaved, one of which promotes ``k`` to object;
        # deleting them leaves the same rows in the same heap order.
        mixed = list(rows)
        for at in sorted(junk_at, reverse=True):
            mixed.insert(min(at, len(mixed)), JUNK)
        wh.insert("t", mixed)
        state_digest(wh)
        table = wh.db.table("t")
        table.delete_slots([i for i, row in enumerate(mixed) if row == JUNK])
        if junk_at:
            assert table._columns[0].kind == "object"

    assert table_digest(row_wise) == bulk
    assert table_digest(with_deletes) == bulk


@pytest.mark.parametrize("n", [CHUNK_SLOTS - 1, CHUNK_SLOTS, CHUNK_SLOTS + 1])
def test_chunk_boundary_sizes_and_a_paged_load_agree(tmp_path, n):
    wh = seq_warehouse(n)
    digest = consistent(wh)
    assert digest == consistent(seq_warehouse(n))
    # Growing by one row and shrinking back crosses (or touches) the
    # boundary with the cache filled.
    wh.insert_row("seq", [5, 1.0])
    assert consistent(wh) != digest
    wh.delete_row("seq", keys={"pos": 5})
    # insert_row appended to the heap and delete_row removed that slot.
    assert consistent(wh) == digest
    wh.save(str(tmp_path), storage_format=4, page_size=4096)
    with DataWarehouse.load(str(tmp_path), rehydrate=True,
                            memory_budget_bytes=1 << 16) as paged:
        assert getattr(paged.db.table("seq"), "is_paged", False)
        assert consistent(paged) == digest


# -- any change of content changes it -----------------------------------------------

BASE = [(i, float(i), f"s{i}", i % 2 == 0) for i in range(CHUNK_SLOTS + 8)]


def digest_of(rows, columns=COLUMNS) -> str:
    wh = DataWarehouse()
    wh.create_table("t", columns)
    wh.insert("t", rows)
    return consistent(wh)


def replaced(rows, slot, **changes):
    names = [name for name, _ in COLUMNS]
    row = list(rows[slot])
    for name, value in changes.items():
        row[names.index(name)] = value
    return rows[:slot] + [tuple(row)] + rows[slot + 1:]


def test_every_change_of_content_changes_the_digest():
    base = digest_of(BASE)
    assert base == digest_of(list(BASE))
    last = CHUNK_SLOTS - 1  # last slot of the first chunk
    changed = {
        "one value bit": replaced(BASE, 7, f=math.nextafter(7.0, 8.0)),
        "one integer": replaced(BASE, 7, k=8),
        "one text": replaced(BASE, 7, t="s7 "),
        "one boolean": replaced(BASE, 7, b=True),
        "a NULL for the fill value": replaced(BASE, 0, k=None),
        "a NULL float for 0.0": replaced(BASE, 0, f=None),
        "the sign of a zero": replaced(BASE, 0, f=-0.0),
        "a row swap": BASE[:3] + [BASE[4], BASE[3]] + BASE[5:],
        "a swap across the chunk boundary":
            BASE[:last] + [BASE[last + 1], BASE[last]] + BASE[last + 2:],
        "one row fewer": BASE[:-1],
    }
    digests = {what: digest_of(rows) for what, rows in changed.items()}
    for what, digest in digests.items():
        assert digest != base, what
    assert len(set(digests.values())) == len(digests)
    # A NULL moved across the chunk boundary (the packed validity bits
    # belong to their chunk).
    left = replaced(BASE, last, f=None)
    right = replaced(BASE, last + 1, f=None)
    assert len({base, digest_of(left), digest_of(right)}) == 3


def test_schema_and_table_name_are_part_of_the_digest():
    rows = [(i, None, None, None) for i in range(5)]
    base = digest_of(rows)
    as_float = [("k", "FLOAT")] + COLUMNS[1:]
    renamed = [("k2", "INTEGER")] + COLUMNS[1:]
    assert digest_of(rows, as_float) != base
    assert digest_of(rows, renamed) != base
    other = DataWarehouse()
    other.create_table("u", COLUMNS)
    other.insert("u", rows)
    assert consistent(other) != base


def test_a_buffer_poked_behind_the_mutators_is_stale_until_audited():
    """The cache is dropped by the mutators, not by what the caller says it
    touched: a poke straight into a buffer leaves the kept digest stale —
    which is exactly what the audit (``cached=False``) exists to catch."""
    wh = DataWarehouse()
    wh.create_table("t", COLUMNS)
    wh.insert("t", BASE[:10])
    kept = state_digest(wh)
    wh.db.table("t")._columns[1].chunks[0].data[3] += 1.0
    assert state_digest(wh) == kept
    assert state_digest(wh, cached=False) != kept
    # Through a mutator the same write is seen at once.
    wh.db.table("t").update_slot(3, replaced(BASE, 3, f=99.0)[3])
    assert state_digest(wh) == state_digest(wh, cached=False)
