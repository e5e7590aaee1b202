"""Published epochs stay frozen: a commit copies what it is about to write
and nothing a pinned reader can reach is ever written again.

A pinned snapshot's tables (values, NULL bits, indexes), view mirrors and
raw slices are compared bit for bit with copies taken before the writes;
what a write does not touch — every other partition of a view's mirror —
must be *shared* between epochs, not copied.
"""

from __future__ import annotations

import struct

import pytest

from repro.serve import ConcurrentWarehouse

PARTS, DAYS = 4, 12
VIEWS = {
    "v_cust": "SELECT cust, day, SUM(amt) OVER (PARTITION BY cust ORDER BY day "
              "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS w FROM tx",
    "v_max": "SELECT cust, day, MAX(amt) OVER (PARTITION BY cust ORDER BY day "
             "ROWS BETWEEN 1 PRECEDING AND 2 FOLLOWING) AS w FROM tx",
    "v_cum": "SELECT cust, day, SUM(amt) OVER (PARTITION BY cust ORDER BY day "
             "ROWS UNBOUNDED PRECEDING) AS w FROM tx",
}


def build() -> ConcurrentWarehouse:
    cw = ConcurrentWarehouse()
    cw.create_table("tx", [("cust", "INTEGER"), ("day", "INTEGER"), ("amt", "FLOAT")],
                    primary_key=["cust", "day"])
    cw.insert("tx", [(c, 10 * d, float(c * 100 + d))
                     for c in range(PARTS) for d in range(1, DAYS + 1)])
    cw.create_index("tx", "tx_day", ["day"], kind="hash")
    for name, sql in VIEWS.items():
        cw.create_view(name, sql)
    return cw


def bits(values) -> bytes:
    return b"".join(struct.pack("<d", v) for v in values)


def frozen_copy(snapshot) -> dict:
    """Everything a reader of ``snapshot`` can reach, copied by value."""
    tables = {}
    for name, table in snapshot.tables.items():
        tables[name] = {
            "rows": list(table.rows),
            "buffers": [(c.data[: c.rows].tobytes() if c.kind != "object"
                         else list(c.data[: c.rows]),
                         c.validity[: c.rows].tobytes())
                        for b in table._columns for c in b.chunks],
            "indexes": {
                n: ((list(i._keys), list(i._slots)) if i.kind == "sorted"
                    else {k: list(v) for k, v in i._map.items()})
                for n, i in table.indexes.items()
            },
        }
    views = {}
    for name, state in snapshot.views.items():
        views[name] = {
            pkey: (list(part.order_keys), bits(part.seq.to_list()), part.seq.n,
                   bits(part.raw))
            for pkey, part in state.reporting.partitions.items()
        }
    return {"tables": tables, "views": views}


WRITES = {
    "update interior": lambda cw: cw.update_measure(
        "tx", keys={"cust": 2, "day": 60}, value_col="amt", new_value=-3.5),
    "update first": lambda cw: cw.update_measure(
        "tx", keys={"cust": 2, "day": 10}, value_col="amt", new_value=7.25),
    "update last": lambda cw: cw.update_measure(
        "tx", keys={"cust": 2, "day": 10 * DAYS}, value_col="amt", new_value=1e9),
    "insert first": lambda cw: cw.insert_row("tx", [2, 5, 1.5]),
    "insert interior": lambda cw: cw.insert_row("tx", [2, 55, 2.5]),
    "insert last": lambda cw: cw.insert_row("tx", [2, 10 * DAYS + 5, 3.5]),
    "delete first": lambda cw: cw.delete_row("tx", keys={"cust": 2, "day": 10}),
    "delete interior": lambda cw: cw.delete_row("tx", keys={"cust": 2, "day": 60}),
    "delete last": lambda cw: cw.delete_row("tx", keys={"cust": 2, "day": 10 * DAYS}),
}


@pytest.mark.parametrize("what", sorted(WRITES))
def test_pinned_epoch_is_bit_identical_across_a_commit(what):
    cw = build()
    with cw.pin() as snap:
        before = frozen_copy(snap.snapshot)
        answers = {name: snap.query(sql + " ORDER BY cust, day").rows
                   for name, sql in VIEWS.items()}
        pinned_parts = {
            name: dict(state.reporting.partitions)
            for name, state in snap.snapshot.views.items()
        }
        WRITES[what](cw)
        assert not cw.quarantined_views()
        assert frozen_copy(snap.snapshot) == before
        for name, sql in VIEWS.items():
            assert snap.query(sql + " ORDER BY cust, day").rows == answers[name]
        # The new epoch owns partition (2,) and shares the other three.
        latest = cw.epochs.latest()
        assert latest.epoch == snap.epoch + 1
        for name, state in latest.views.items():
            for pkey, part in state.reporting.partitions.items():
                old = pinned_parts[name][pkey]
                if pkey == (2,):
                    assert part is not old and part.seq is not old.seq
                    assert part.raw is not old.raw
                else:
                    assert part is old
                    assert part.raw is old.raw
        # ... and differs from the pinned one where the write landed.
        assert frozen_copy(latest) != before
    report = cw.epochs.verify()
    assert report["clean"] and report["pinned"] == []
    assert all(r.ok for r in cw.verify(quarantine=False).values())


def test_key_columns_a_read_fills_stay_with_its_epoch():
    """A derived read labels positions with ordering-key columns it builds
    on the partition and keeps there; an insert and a delete in the middle
    of that partition must not reach them, nor they the new epoch."""
    cw = build()
    sql = ("SELECT cust, day, SUM(amt) OVER (PARTITION BY cust ORDER BY day ROWS "
           "BETWEEN {} PRECEDING AND {} FOLLOWING) AS w FROM tx ORDER BY cust, day")
    # A cumulative-view derivation in memory, v_cust's identity as a pattern.
    routes = {"memory": sql.format(3, 2), "relational": sql.format(2, 1)}
    with cw.pin() as snap:
        pinned = {mode: snap.query(q, mode=mode, require_rewrite=True)
                  for mode, q in routes.items()}
        assert all(pinned[mode].rewrite.mode == mode for mode in routes)
        cw.insert_row("tx", [2, 55, 2.5])
        cw.delete_row("tx", keys={"cust": 2, "day": 90})
        for mode, q in routes.items():
            again = snap.query(q, mode=mode, require_rewrite=True)
            assert again.rows == pinned[mode].rows
        for mode, q in routes.items():
            fresh = cw.query(q, mode=mode, require_rewrite=True).rows
            native = cw.query(q, use_views=False).rows
            assert [r[:2] for r in fresh] == [r[:2] for r in native]
            assert [r[2] for r in fresh] == pytest.approx([r[2] for r in native])
            assert fresh != pinned[mode].rows
            days = [day for cust, day, _ in fresh if cust == 2]
            assert 55 in days and 90 not in days
    assert cw.epochs.verify()["clean"]


def test_many_commits_under_one_pin_then_clean():
    cw = build()
    with cw.pin() as snap:
        before = frozen_copy(snap.snapshot)
        for what in ("insert interior", "update interior", "delete first",
                     "insert last", "delete interior", "update last"):
            WRITES[what](cw)
        assert frozen_copy(snap.snapshot) == before
        assert cw.epochs.retained_epochs() == [snap.epoch, cw.epochs.latest_epoch]
    assert cw.epochs.verify()["clean"]
    assert all(r.ok for r in cw.verify(quarantine=False).values())


def test_clone_copies_indexes_without_reading_rows(monkeypatch):
    from repro.relational.table import Table

    cw = build()
    table = cw.warehouse.db.table("tx")

    def no_rows(self, *args):
        raise AssertionError("clone read a row")

    monkeypatch.setattr(Table, "row", no_rows)
    monkeypatch.setattr(Table, "iter_rows", no_rows)
    clone = table.clone()
    monkeypatch.undo()
    assert list(clone.rows) == list(table.rows)
    for name, index in table.indexes.items():
        copied = clone.indexes[name]
        assert copied is not index and copied.unique == index.unique
        assert copied.lookup((2, 60) if name == "tx_pk" else (60,)) == \
            index.lookup((2, 60) if name == "tx_pk" else (60,))
    clone.delete_slots([0, 5])
    assert len(table) == PARTS * DAYS and len(clone) == PARTS * DAYS - 2
    assert table.indexes["tx_pk"].lookup((0, 10)) == [0]
    assert clone.indexes["tx_pk"].lookup((0, 10)) == []
    assert sorted(clone.indexes["tx_day"].lookup((10,))) == [10, 22, 34]
