"""A bulk insert that fails changes nothing, embedded and served.

``DataWarehouse.insert`` checks every row's types, keys and (under a view)
measure before the first row goes in, so a refused batch leaves the base
table, the views and — behind a ``ConcurrentWarehouse`` — the write-ahead
log and the replicas exactly as they were, and the next write goes through.
"""

import pytest

from repro.errors import ConstraintError, MaintenanceError, SchemaError
from repro.replicate import LocalLink, Replica, Shipper, WriteAheadLog, state_digest, wal_path
from repro.serve import ConcurrentWarehouse
from repro.warehouse import DataWarehouse

COLUMNS = [("pos", "INTEGER"), ("val", "FLOAT")]
VIEW = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING "
        "AND 1 FOLLOWING) AS s FROM seq")
BAD_BATCHES = [
    pytest.param([(2, 2.0), (3, 3.0), (2, 9.0)], ConstraintError, id="duplicate-in-batch"),
    pytest.param([(4, 4.0), (1, 9.0)], ConstraintError, id="duplicate-of-a-held-key"),
    pytest.param([(4, 4.0), (5, "x")], SchemaError, id="bad-value"),
    pytest.param([(4, 4.0), (5,)], SchemaError, id="wrong-width"),
]


def _state(wh):
    storage = [wh.db.table(v.definition.storage_table).digest() for v in wh.views.values()]
    return wh.db.table("seq").digest(), len(wh.db.table("seq")), storage


@pytest.mark.parametrize("with_view", [False, True], ids=["bulk", "maintained"])
@pytest.mark.parametrize("rows, error", BAD_BATCHES)
def test_embedded_insert_is_all_or_none(with_view, rows, error):
    wh = DataWarehouse()
    wh.create_table("seq", COLUMNS, primary_key=["pos"])
    wh.insert("seq", [(1, 1.0)])
    if with_view:
        wh.create_view("mv", VIEW)
    before = _state(wh)
    with pytest.raises(error):
        wh.insert("seq", rows)
    assert _state(wh) == before
    assert wh.insert("seq", [(6, 6.0), (7, 7.0)]) == 2
    assert all(report.ok for report in wh.verify().values())
    assert not wh.quarantined_views()


def test_a_null_measure_under_a_view_refuses_the_whole_batch():
    wh = DataWarehouse()
    wh.create_table("seq", COLUMNS, primary_key=["pos"])
    wh.insert("seq", [(1, 1.0)])
    wh.create_view("mv", VIEW)
    before = _state(wh)
    with pytest.raises(MaintenanceError, match=r"'mv'.*seq\.val"):
        wh.insert("seq", [(2, 2.0), (3, None)])
    assert _state(wh) == before


def test_a_cache_view_quarantined_mid_batch_misses_the_later_rows():
    """Row 2 repeats row 1's ordering key, so maintaining the query cache's
    view fails and the cache drops it; rows 3 on neither reach the dropped
    view nor stop the batch."""
    wh = DataWarehouse()
    wh.create_table("seq", COLUMNS)  # no key: a repeated pos is stored
    wh.insert("seq", [(i, float(i)) for i in range(1, 9)])
    wh.enable_query_cache(max_views=3)
    query = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING "
             "AND 1 FOLLOWING) AS s FROM seq ORDER BY pos")
    assert wh.query(query).rewrite.view in wh.views
    assert wh.insert("seq", [(20, 1.0), (20, 2.0), (21, 3.0), (22, 4.0)]) == 4
    assert len(wh.db.table("seq")) == 12 and not wh.views
    assert any("maintenance failed" in line for line in wh.incidents)
    assert wh.query(query, use_views=False).rows[-1] == (22, 7.0)


@pytest.mark.parametrize("with_view", [False, True], ids=["bulk", "maintained"])
@pytest.mark.parametrize("rows, error", BAD_BATCHES)
def test_served_insert_logs_and_ships_nothing_and_the_next_write_replicates(
        tmp_path, with_view, rows, error):
    wal = WriteAheadLog(wal_path(str(tmp_path)))
    cw = ConcurrentWarehouse(wal=wal)
    replica = Replica(name="replica")
    Shipper(cw, [LocalLink(replica)], min_insync=1)
    cw.create_table("seq", COLUMNS, primary_key=["pos"])
    cw.insert("seq", [(1, 1.0)])
    if with_view:
        cw.create_view("mv", VIEW)
    records = len(list(wal.records()))
    before = _state(cw.warehouse)
    with pytest.raises(error):
        cw.insert("seq", rows)
    assert _state(cw.warehouse) == before
    assert len(list(wal.records())) == records
    assert state_digest(replica.warehouse.warehouse) == state_digest(cw.warehouse)
    assert len(cw.query("SELECT pos FROM seq").rows) == 1
    cw.insert("seq", [(5, 5.0)])
    assert len(list(wal.records())) == records + 1
    assert replica.applied_epoch == cw.epochs.latest_epoch
    assert state_digest(replica.warehouse.warehouse) == state_digest(cw.warehouse)
    wal.close()
