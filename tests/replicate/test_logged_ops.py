"""Every logged op replays: a commit is one (warehouse method, keyword
arguments) pair, and recovery and a replica both re-run it to the
primary's digest.  A record naming anything else, or carrying arguments
that do not bind, is refused before anything is applied."""

from __future__ import annotations

import datetime

import pytest

from repro.core.window import WindowSpec
from repro.errors import ReplicationError
from repro.relational.expr import ColumnRef, Comparison, Literal
from repro.replicate import (
    EpochRecord,
    LocalLink,
    Replica,
    Shipper,
    WriteAheadLog,
    recover,
    state_digest,
    wal_path,
)
from repro.serve import ConcurrentWarehouse
from repro.serve.concurrent import LOGGED_OPS
from repro.views.definition import SequenceViewDefinition

from tests.replicate.conftest import VIEW_SQL

DAY = datetime.date(2002, 3, 1)


def _dated_view() -> SequenceViewDefinition:
    """A definition whose WHERE holds a date: the codec's ``$view`` form
    must carry it through the log as a date, not as ``2002 - 3 - 1``."""
    return SequenceViewDefinition(
        name="recent", base_table="seq", value_col="val", order_by=("pos",),
        partition_by=(), window=WindowSpec.sliding(1, 1),
        aggregate_name="SUM",
        where=Comparison(">=", ColumnRef("day"), Literal(DAY + datetime.timedelta(days=5))),
    )


def _repair(cw):
    cw.quarantine_view("mv", "planted for repair")
    cw.repair()


#: One commit per logged op; the last call of each is the op under test.
OP_CALLS = {
    "create_table": lambda cw: cw.create_table(
        "extra", [("k", "INTEGER"), ("at", "DATE")], primary_key=["k"]),
    "drop_table": lambda cw: cw.drop_table("spare"),
    "insert": lambda cw: cw.insert(
        "seq", [(100 + i, DAY, float(i)) for i in range(3)]),
    "create_index": lambda cw: cw.create_index("seq", "by_val", ["val"]),
    "create_view": lambda cw: cw.create_view("recent", _dated_view()),
    "drop_view": lambda cw: cw.drop_view("mv"),
    "refresh_view": lambda cw: cw.refresh_view("mv"),
    "update_measure": lambda cw: cw.update_measure(
        "seq", keys={"pos": 3}, value_col="val", new_value=9.75),
    "insert_row": lambda cw: cw.insert_row("seq", (50, DAY, 2.5)),
    "delete_row": lambda cw: cw.delete_row("seq", keys={"pos": 4}),
    "repair": _repair,
    "quarantine_view": lambda cw: cw.quarantine_view("mv", "planted"),
}


def test_every_logged_op_has_a_replay_case():
    assert set(OP_CALLS) == LOGGED_OPS


def _primary(home: str):
    primary = ConcurrentWarehouse(wal=WriteAheadLog(wal_path(home), fsync=False))
    replica = Replica(name="replica-1")
    Shipper(primary, [LocalLink(replica)])
    primary.create_table("seq", [("pos", "INTEGER"), ("day", "DATE"), ("val", "FLOAT")],
                         primary_key=["pos"])
    primary.insert("seq", [(i, DAY + datetime.timedelta(days=i), 0.5 * i - 3.0)
                           for i in range(1, 21)])
    primary.create_table("spare", [("k", "INTEGER")])
    primary.create_view("mv", VIEW_SQL)
    return primary, replica


@pytest.mark.parametrize("op", sorted(OP_CALLS))
def test_logged_op_replays_through_recovery_and_a_replica(tmp_path, op):
    home = str(tmp_path)
    primary, replica = _primary(home)
    OP_CALLS[op](primary)
    last = list(primary.wal.records())[-1]
    assert (last.op, last.epoch) == (op, primary.epochs.latest_epoch)
    digest = state_digest(primary.warehouse)
    primary.wal.close()

    assert replica.applied_epoch == primary.epochs.latest_epoch
    assert state_digest(replica.warehouse.warehouse) == digest
    report = recover(home)
    try:
        assert report.last_epoch == primary.epochs.latest_epoch
        assert state_digest(report.warehouse.warehouse) == digest
    finally:
        report.warehouse.wal.close()


def test_a_dated_view_answers_alike_after_replay(tmp_path):
    home = str(tmp_path)
    primary, replica = _primary(home)
    primary.create_view("recent", _dated_view())
    sql = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING "
           "AND 1 FOLLOWING) s FROM seq WHERE day >= DATE '2002-03-06' ORDER BY pos")
    expected = [list(r) for r in primary.query(sql).rows]
    assert len(expected) == 16 and primary.query(sql).rewrite.view == "recent"
    assert [list(r) for r in replica.warehouse.query(sql).rows] == expected
    primary.wal.close()


@pytest.mark.parametrize("op, args", [
    ("save", {"directory": "elsewhere"}),
    ("verify", {}),
    ("_change_row", {"table": "seq", "slot": None, "values": [77, None, 1.0]}),
    ("frobnicate", {}),
    ("update_measure", {"table": "seq", "keys": {"pos": 3}, "value_col": "val"}),
    ("insert_row", {"table": "seq", "values": [77, None, 1.0], "extra": 1}),
    ("drop_view", {"view": "mv"}),
])
def test_record_that_names_no_logged_call_is_refused(tmp_path, op, args):
    primary, replica = _primary(str(tmp_path))
    epoch, digest = primary.epochs.latest_epoch, state_digest(primary.warehouse)
    record = EpochRecord(epoch=epoch + 1, op=op, args=args, digest=digest)
    for target in (primary.apply_record, replica.apply):
        with pytest.raises(ReplicationError, match=op):
            target(record)
    assert primary.epochs.latest_epoch == replica.applied_epoch == epoch
    assert state_digest(replica.warehouse.warehouse) == digest
    assert replica.diverged is None
    primary.wal.close()
