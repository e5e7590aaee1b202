"""Every base-row change reaches each view through one (old row, new row) rule.

A write locates the base row it changes (or none, for an insert) and the
row it leaves behind (or none, for a delete).  For each dependent view the
old and the new row's ``(partition key, order key)`` inside the view's
selection decide the maintenance: equal keys are an update of that
position, anything else a delete of the old position and/or an insert of
the new one (paper section 2.3).  A row moving across a view's WHERE, a
write keyed by columns the view does not order by, a write to the
ordering column itself and a bulk ``insert`` all take that one path, so
each answers like the base data, bit for bit, with ``verify()`` clean and
nothing quarantined -- embedded and through ``ConcurrentWarehouse``.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.replicate.wal import WriteAheadLog
from repro.serve import ConcurrentWarehouse
from repro.warehouse import DataWarehouse

FILTERED = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING "
            "AND 1 FOLLOWING) AS s FROM seq WHERE val > 0")
PLAIN = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING "
         "AND 1 FOLLOWING) AS s FROM seq")


def bits(rows) -> list:
    """Rows with every float as its bit pattern."""
    return [tuple(struct.pack("<d", v) if isinstance(v, float) else v for v in row)
            for row in rows]


def assert_answers_like_base(wh, *queries: str) -> None:
    """Each query answers from a view exactly as from base data, every view
    verifies clean and none is quarantined."""
    for sql in queries:
        viewed = wh.query(sql + " ORDER BY pos")
        base = wh.query(sql + " ORDER BY pos", use_views=False)
        assert viewed.rewrite is not None
        assert bits(viewed.rows) == bits(base.rows)
    assert all(report.ok for report in wh.verify(quarantine=False).values())
    assert wh.quarantined_views() == []


def build(wh, *, with_id: bool = False) -> None:
    """Twenty rows with positive measures (one more, negative, for the
    filtered view to leave out) and a filtered plus a plain view."""
    if with_id:
        wh.create_table("seq", [("id", "INTEGER"), ("pos", "INTEGER"), ("val", "FLOAT")],
                        primary_key=["id"])
        wh.insert("seq", [(100 + i, i, 0.5 + i) for i in range(1, 21)]
                  + [(121, 21, -4.25)])
    else:
        wh.create_table("seq", [("pos", "INTEGER"), ("val", "FLOAT")],
                        primary_key=["pos"])
        wh.insert("seq", [(i, 0.5 + i) for i in range(1, 21)] + [(21, -4.25)])
    wh.create_view("mv_pos", FILTERED)
    wh.create_view("mv_all", PLAIN)


@pytest.fixture(params=["embedded", "concurrent"])
def wh(request, tmp_path):
    if request.param == "embedded":
        yield DataWarehouse()
        return
    wal = WriteAheadLog(str(tmp_path / "wal"))
    cw = ConcurrentWarehouse(wal=wal)
    yield cw
    wal.close()


def assert_logged(wh, op: str) -> None:
    """Through ConcurrentWarehouse the write is the WAL's last record."""
    if isinstance(wh, ConcurrentWarehouse):
        records = list(wh.wal.records())
        assert records[-1].op == op
        assert records[-1].epoch == wh.epochs.latest_epoch


def test_an_update_moving_a_row_out_of_the_selection_deletes_it(wh):
    build(wh)
    wh.update_measure("seq", keys={"pos": 7}, value_col="val", new_value=-1.0)
    assert_logged(wh, "update_measure")
    assert len(wh.query(FILTERED + " ORDER BY pos").rows) == 19
    assert_answers_like_base(wh, FILTERED, PLAIN)


def test_an_update_moving_a_row_into_the_selection_inserts_it(wh):
    build(wh)
    wh.update_measure("seq", keys={"pos": 21}, value_col="val", new_value=3.5)
    assert_logged(wh, "update_measure")
    assert len(wh.query(FILTERED + " ORDER BY pos").rows) == 21
    assert_answers_like_base(wh, FILTERED, PLAIN)


def test_an_update_keyed_by_a_column_the_view_does_not_order_by(wh):
    build(wh, with_id=True)
    epoch = wh.epochs.latest_epoch if isinstance(wh, ConcurrentWarehouse) else None
    results = wh.update_measure("seq", keys={"id": 110}, value_col="val",
                                new_value=77.0)
    assert len(results) == 2 and not any(isinstance(r, Exception) for r in results)
    assert_logged(wh, "update_measure")
    if epoch is not None:
        assert wh.epochs.latest_epoch == epoch + 1
    assert_answers_like_base(wh, FILTERED, PLAIN)


def test_an_update_of_the_ordering_column_moves_the_position(wh):
    build(wh, with_id=True)
    results = wh.update_measure("seq", keys={"id": 105}, value_col="pos",
                                new_value=30)
    # Each view drops the old position and takes the new one.
    assert [r.operation for r in results] == ["delete", "insert"] * 2
    assert_logged(wh, "update_measure")
    assert_answers_like_base(wh, FILTERED, PLAIN)


def test_a_bulk_insert_after_create_view_reaches_the_views(wh):
    build(wh)
    assert wh.insert("seq", [(22, 1.25), (23, -2.0), (24, 6.5)]) == 3
    assert_logged(wh, "insert")
    assert len(wh.query(PLAIN + " ORDER BY pos").rows) == 24
    assert len(wh.query(FILTERED + " ORDER BY pos").rows) == 22
    assert_answers_like_base(wh, FILTERED, PLAIN)


def test_a_bulk_insert_copies_the_view_storage_before_writing():
    """A pinned epoch keeps its view storage across a bulk insert."""
    cw = ConcurrentWarehouse()
    build(cw)
    with cw.pin() as snap:
        before = snap.query(PLAIN + " ORDER BY pos").rows
        storage = list(snap.snapshot.tables["__mv_mv_all"].rows)
        cw.insert("seq", [(22, 1.25), (23, 6.5)])
        assert list(snap.snapshot.tables["__mv_mv_all"].rows) == storage
        assert snap.query(PLAIN + " ORDER BY pos").rows == before
    assert len(cw.query(PLAIN + " ORDER BY pos").rows) == 23
    assert_answers_like_base(cw, FILTERED, PLAIN)


def test_a_partition_opens_with_its_first_row_and_closes_with_its_last():
    sql = ("SELECT g, pos, MAX(val) OVER (PARTITION BY g ORDER BY pos ROWS "
           "BETWEEN 1 PRECEDING AND 2 FOLLOWING) AS m FROM t")
    wh = DataWarehouse()
    wh.create_table("t", [("g", "INTEGER"), ("pos", "INTEGER"), ("val", "FLOAT")],
                    primary_key=["g", "pos"])
    wh.insert("t", [(1, p, float(p)) for p in range(1, 6)])
    wh.create_view("mv", sql)
    wh.insert_row("t", (2, 3, 4.5))
    assert set(wh.view("mv").reporting.partitions) == {(1,), (2,)}
    # Moving the row to another partition closes one and opens the other.
    wh.update_measure("t", keys={"g": 2, "pos": 3}, value_col="g", new_value=3)
    assert set(wh.view("mv").reporting.partitions) == {(1,), (3,)}
    query = sql + " ORDER BY g, pos"
    assert bits(wh.query(query).rows) == bits(wh.query(query, use_views=False).rows)
    wh.delete_row("t", keys={"g": 3, "pos": 3})
    assert set(wh.view("mv").reporting.partitions) == {(1,)}
    assert wh.view("mv").row_count() == 5 + 1 + 2  # header and trailer rows
    assert bits(wh.query(query).rows) == bits(wh.query(query, use_views=False).rows)
    assert all(report.ok for report in wh.verify(quarantine=False).values())
    assert wh.quarantined_views() == []


def test_a_recovered_warehouse_replays_the_one_write_path(tmp_path):
    """WAL replay of these writes on top of a checkpoint reaches the
    primary's digest and answers."""
    from repro.replicate import recover, wal_path
    from repro.replicate.wal import state_digest

    home = str(tmp_path)
    cw = ConcurrentWarehouse(wal=WriteAheadLog(wal_path(home)))
    cw.create_table("t", [("g", "INTEGER"), ("pos", "INTEGER"), ("val", "FLOAT")],
                    primary_key=["g", "pos"])
    cw.insert("t", [(g, p, float(p + g)) for g in (1, 2) for p in range(1, 9)])
    sql = ("SELECT g, pos, SUM(val) OVER (PARTITION BY g ORDER BY pos ROWS "
           "BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS x FROM t WHERE val > 2")
    cw.create_view("mv", sql)
    cw.save(home)
    cw.insert("t", [(3, 1, 5.0), (3, 2, 6.0), (2, 9, 1.0)])
    cw.update_measure("t", keys={"g": 1, "pos": 4}, value_col="val", new_value=-1.0)
    cw.update_measure("t", keys={"g": 3, "pos": 1}, value_col="g", new_value=4)
    cw.delete_row("t", keys={"g": 4, "pos": 1})
    acked, answer = state_digest(cw.warehouse), cw.query(sql + " ORDER BY g, pos").rows
    cw.wal.close()
    report = recover(home)
    try:
        assert report.clean and state_digest(report.warehouse.warehouse) == acked
        assert report.warehouse.query(sql + " ORDER BY g, pos").rows == answer
        assert all(r.ok for r in report.warehouse.verify(quarantine=False).values())
    finally:
        report.warehouse.wal.close()


# -- randomized: mixed writes against filtered, partitioned views ------------

VIEWS = {
    "v_sum": "SELECT g, pos, SUM(val) OVER (PARTITION BY g ORDER BY pos ROWS "
             "BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS x FROM t WHERE val > 0",
    "v_max": "SELECT g, pos, MAX(val) OVER (PARTITION BY g ORDER BY pos ROWS "
             "BETWEEN 1 PRECEDING AND 2 FOLLOWING) AS x FROM t",
    "v_cum": "SELECT g, pos, SUM(val) OVER (PARTITION BY g ORDER BY pos ROWS "
             "UNBOUNDED PRECEDING) AS x FROM t WHERE g < 2",
}
GROUPS = st.integers(0, 2)
POSITIONS = st.integers(0, 9)
# Values whose every window sum is exact: the native kernel's running sum
# and the view's left-to-right sum add in different orders, so on inexact
# sums (0.1 next to 1e9) they differ in the last ulp without any write.
# No -0.0 either: a window of negative zeros sums to 0.0 in the view
# evaluator (onto 0.0) and to -0.0 in the native kernel, also without a
# write (a create_view over such rows shows both; CHANGES.md).
VALUES = st.sampled_from([-3.5, 0.0, 0.25, 1.0, 2.5, 7.25, 1024.0])

WRITES = st.one_of(
    st.tuples(st.just("update"), GROUPS, POSITIONS,
              st.sampled_from(["val", "pos", "g"]), st.integers(0, 9), VALUES),
    st.tuples(st.just("insert_row"), GROUPS, POSITIONS, VALUES),
    st.tuples(st.just("delete_row"), GROUPS, POSITIONS),
    st.tuples(st.just("insert"), st.lists(st.tuples(GROUPS, POSITIONS, VALUES),
                                          max_size=3)),
)


def apply_write(wh, write) -> None:
    """Run one drawn write; a write the base table refuses (a missing row,
    a duplicate key) changes nothing and is skipped."""
    from repro.errors import ConstraintError, ViewError

    kind = write[0]
    try:
        if kind == "update":
            _, g, pos, col, ival, fval = write
            new = fval if col == "val" else ival
            wh.update_measure("t", keys={"g": g, "pos": pos}, value_col=col,
                              new_value=new)
        elif kind == "insert_row":
            wh.insert_row("t", write[1:])
        elif kind == "delete_row":
            wh.delete_row("t", keys={"g": write[1], "pos": write[2]})
        else:
            rows = list(dict.fromkeys(write[1]))
            keys = {(g, p) for g, p, _ in rows}
            present = {(r[0], r[1]) for r in wh.db.table("t").rows}
            if len(keys) == len(rows) and not keys & present:
                wh.insert("t", rows)
    except (ConstraintError, ViewError):
        pass


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(WRITES, min_size=1, max_size=12))
def test_mixed_writes_keep_every_view_equal_to_base_data(writes):
    wh = DataWarehouse()
    wh.create_table("t", [("g", "INTEGER"), ("pos", "INTEGER"), ("val", "FLOAT")],
                    primary_key=["g", "pos"])
    wh.insert("t", [(g, p, float(g * 10 + p) - 4.0) for g in (0, 1) for p in range(0, 8, 2)])
    for name, sql in VIEWS.items():
        wh.create_view(name, sql)
    for write in writes:
        apply_write(wh, write)
        for sql in VIEWS.values():
            query = sql + " ORDER BY g, pos"
            assert (bits(wh.query(query).rows)
                    == bits(wh.query(query, use_views=False).rows)), write
        assert all(r.ok for r in wh.verify(quarantine=False).values()), write
        assert wh.quarantined_views() == [], write
