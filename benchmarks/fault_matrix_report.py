"""Fault-matrix robustness report (standalone script).

Runs one scenario per fault kind in :data:`repro.faults.KINDS` against a
small warehouse and records, for each: whether the injected fault fired,
how the stack detected it, which degradation path answered the query
(atomic-swap rollback, quarantine plus base-data routing, previous-dump
preservation, WAL truncation or replica catch-up), whether the answers
still matched an unfaulted run bit-identically, and whether the stack
ends in a clean ``verify()`` (after ``repair()`` or recovery where the
fault quarantined a view or poisoned the warehouse).

Results are written as a JSON artifact so CI can archive the robustness
evidence next to the test logs.

Usage::

    PYTHONPATH=src python benchmarks/fault_matrix_report.py \
        [--rows 40] [--out fault_matrix.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

from repro.errors import InjectedFault
from repro.faults import KINDS, FaultPlan, FaultSpec, injector
from repro.warehouse import DataWarehouse, create_sequence_table

SEED = 11
VIEW_SQL = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 "
            "PRECEDING AND 2 FOLLOWING) s FROM seq")
QUERY = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING "
         "AND 2 FOLLOWING) s FROM seq ORDER BY pos")


def build_wh(rows, *, view=True):
    wh = DataWarehouse()
    create_sequence_table(wh.db, "seq", rows, seed=SEED)
    if view:
        wh.create_view("mv", VIEW_SQL)
    return wh


def _verify_clean(*warehouses):
    """Whether verify() (digest audit + every view) is clean on each
    ConcurrentWarehouse a serving or replication scenario left behind."""
    return all(r.ok for cw in warehouses for r in cw.verify().values())


def _repair_clean(wh):
    """Repair every quarantined view and report whether verify() is clean."""
    reports = wh.repair()
    ok = all(r.ok for r in reports.values())
    ok = ok and wh.quarantined_views() == []
    ok = ok and all(r.ok for r in wh.verify().values())
    return ok


def run_storage_write_fail(rows):
    reference = build_wh(rows, view=False).query(QUERY).rows
    wh = build_wh(rows)
    with tempfile.TemporaryDirectory() as tmp:
        wh.save(tmp)
        plan = FaultPlan([FaultSpec("storage_write_fail", target="seq")])
        fault_raised = False
        with injector.active(plan):
            try:
                wh.save(tmp)
            except InjectedFault:
                fault_raised = True
        loaded = DataWarehouse.load(tmp)
        match = loaded.query(QUERY, use_views=False).rows == reference
        clean = all(r.ok for r in loaded.verify().values())
    return {
        "fired": plan.fired_count(),
        "detection": "save aborts; per-table CRC32 guards the catalog",
        "degradation": "previous dump left whole (atomic temp+rename)",
        "answers_match": fault_raised and match,
        "repaired_clean": clean,
    }


def run_refresh_interrupt(rows):
    reference = build_wh(rows, view=False).query(QUERY).rows
    wh = build_wh(rows)
    plan = FaultPlan([FaultSpec("refresh_interrupt", point="commit")])
    fault_raised = False
    with injector.active(plan):
        try:
            wh.refresh_view("mv")
        except InjectedFault:
            fault_raised = True
    res = wh.query(QUERY)
    return {
        "fired": plan.fired_count(),
        "detection": "refresh raises at a checkpoint; view quarantined",
        "degradation": "epoch shadow discarded; query routed to base data",
        "answers_match": (fault_raised and res.rewrite is None
                          and res.rows == reference),
        "repaired_clean": _repair_clean(wh),
    }


def run_bitflip(rows):
    reference = build_wh(rows, view=False).query(QUERY).rows
    wh = build_wh(rows)
    plan = FaultPlan([FaultSpec("bitflip", target="mv")], seed=3)
    with injector.active(plan):
        reports = wh.verify()
    res = wh.query(QUERY)
    return {
        "fired": plan.fired_count(),
        "detection": "verify() flags the corrupted storage value",
        "degradation": "view quarantined; query routed to base data",
        "answers_match": (not reports["mv"].ok and res.rewrite is None
                          and res.rows == reference),
        "repaired_clean": _repair_clean(wh),
    }


def run_maintenance_fail(rows):
    wh = build_wh(rows)
    ref_wh = build_wh(rows, view=False)
    plan = FaultPlan([FaultSpec("maintenance_fail", target="mv")])
    with injector.active(plan):
        wh.update_measure("seq", keys={"pos": 10}, value_col="val",
                          new_value=4.5)
    ref_wh.update_measure("seq", keys={"pos": 10}, value_col="val",
                          new_value=4.5)
    res = wh.query(QUERY)
    return {
        "fired": plan.fired_count(),
        "detection": "maintenance rule raises; base change stands",
        "degradation": "view quarantined; query routed to base data",
        "answers_match": (res.rewrite is None
                          and res.rows == ref_wh.query(QUERY).rows),
        "repaired_clean": _repair_clean(wh),
    }


def run_session_kill(rows):
    from repro.errors import SessionKilledError
    from repro.serve import ConcurrentWarehouse

    # Reference is an unfaulted *view-routed* run: the kill must not change
    # how the retry is answered (same rewrite, bit-identical rows).
    reference = build_wh(rows).query(QUERY).rows
    cw = ConcurrentWarehouse(build_wh(rows))
    plan = FaultPlan([FaultSpec("session_kill", target="victim")])
    killed = False
    with injector.active(plan):
        try:
            cw.query(QUERY, session="victim")
        except SessionKilledError:
            killed = True
        # An unkilled session retries; the answer must be unaffected.
        res = cw.query(QUERY, session="victim")
    store = cw.epochs.verify()
    return {
        "fired": plan.fired_count(),
        "detection": "serve_query site raises; SessionKilledError to client",
        "degradation": (
            f"pin released on the kill path; epoch store clean={store['clean']}"
        ),
        "answers_match": killed and store["clean"] and res.rows == reference,
        "repaired_clean": _verify_clean(cw),
    }


def _build_replicated(rows, wal=None):
    """A ConcurrentWarehouse whose whole history flows through logged ops
    (replication scenarios need every mutation in the epoch stream)."""
    from repro.serve import ConcurrentWarehouse
    from repro.warehouse.workload import sequence_values

    cw = ConcurrentWarehouse(wal=wal)
    cw.create_table("seq", [("pos", "INTEGER"), ("val", "FLOAT")],
                    primary_key=["pos"])
    values = sequence_values(rows, seed=SEED)
    cw.insert("seq", [(i + 1, float(v)) for i, v in enumerate(values)])
    cw.create_view("mv", VIEW_SQL)
    return cw


def run_wal_torn_write(rows):
    from repro.replicate import recovery
    from repro.replicate.wal import WriteAheadLog

    with tempfile.TemporaryDirectory() as tmp:
        wal = WriteAheadLog(recovery.wal_path(tmp))
        cw = _build_replicated(rows, wal=wal)
        cw.insert_row("seq", [rows + 1, 1.25])
        reference = cw.query(QUERY).rows
        committed = cw.epochs.latest_epoch
        plan = FaultPlan([FaultSpec("wal_torn_write", at=0)])
        fault_raised = False
        with injector.active(plan):
            try:
                cw.insert_row("seq", [rows + 2, 2.5])
            except InjectedFault:
                fault_raised = True
        poisoned = cw.poisoned is not None
        wal.close()
        report = recovery.recover(tmp)
        res = report.warehouse.query(QUERY)
        report.warehouse.wal.close()
    return {
        "fired": plan.fired_count(),
        "detection": "torn tail found on WAL open (CRC32 framing)",
        "degradation": (
            f"tail truncated ({report.truncated_bytes} bytes); warehouse "
            "poisoned until recovery; committed epochs preserved"
        ),
        "answers_match": (fault_raised and poisoned
                          and report.truncated_bytes > 0
                          and report.last_epoch == committed
                          and res.rows == reference),
        "repaired_clean": report.clean,
    }


def run_primary_crash(rows):
    from repro.replicate import (
        Endpoint, FailoverCoordinator, RemoteLink, Replica, ReplicatedClient,
        Shipper,
    )
    from repro.serve.server import ServeServer

    reference = _build_replicated(rows)
    reference.insert_row("seq", [rows + 1, 7.5])
    expected = [list(r) for r in reference.query(QUERY).rows]

    replicas = [Replica(name="replica-1"), Replica(name="replica-2")]
    servers = [ServeServer(replica=r, name=r.name).start() for r in replicas]
    from repro.serve import ConcurrentWarehouse

    primary = ConcurrentWarehouse()
    primary_server = ServeServer(primary, name="primary").start()
    shipper = Shipper(primary, [
        RemoteLink("127.0.0.1", s.port, name=s.name) for s in servers
    ], min_insync=1)
    try:
        cw = primary
        cw.create_table("seq", [("pos", "INTEGER"), ("val", "FLOAT")],
                        primary_key=["pos"])
        from repro.warehouse.workload import sequence_values

        values = sequence_values(rows, seed=SEED)
        cw.insert("seq", [(i + 1, float(v)) for i, v in enumerate(values)])
        cw.create_view("mv", VIEW_SQL)

        coordinator = FailoverCoordinator(
            [Endpoint("primary", "127.0.0.1", primary_server.port)]
            + [Endpoint(s.name, "127.0.0.1", s.port) for s in servers],
            timeout=3.0,
        )
        with ReplicatedClient(coordinator) as client:
            before = client.query(QUERY)["rows"]
            plan = FaultPlan([FaultSpec("primary_crash", target="primary")])
            with injector.active(plan):
                # The crash trips on this read; the client degrades to a
                # stale replica answer without losing availability.
                degraded = client.query(QUERY)
                client.write("insert_row", table="seq",
                             values=[rows + 1, 7.5])
                after = client.query(QUERY)
        promoted = coordinator.primary_name
        clean = _verify_clean(*(r.warehouse for r in replicas))
    finally:
        shipper.close()
        primary_server.stop()
        for s in servers:
            s.stop()
    return {
        "fired": plan.fired_count(),
        "detection": "status probe fails (ServeConnectionError)",
        "degradation": (
            f"stale replica reads during outage; {promoted} promoted "
            "(freshest applied epoch); writes redirected"
        ),
        "answers_match": (degraded["stale"] and degraded["rows"] == before
                          and promoted != "primary"
                          and after["rows"] == expected),
        "repaired_clean": clean,
    }


def run_replica_lag(rows):
    from repro.replicate import LocalLink, Replica, Shipper

    reference = _build_replicated(rows)
    # Attach the shipper from genesis so the replica sees all history.
    from repro.serve import ConcurrentWarehouse
    from repro.warehouse.workload import sequence_values

    primary = ConcurrentWarehouse()
    replica = Replica(name="lagger")
    shipper = Shipper(primary, [LocalLink(replica)])
    primary.create_table("seq", [("pos", "INTEGER"), ("val", "FLOAT")],
                         primary_key=["pos"])
    values = sequence_values(rows, seed=SEED)
    primary.insert("seq", [(i + 1, float(v)) for i, v in enumerate(values)])
    primary.create_view("mv", VIEW_SQL)
    reference.insert_row("seq", [rows + 1, 3.75])

    plan = FaultPlan([FaultSpec("replica_lag", target="lagger", at=0)])
    with injector.active(plan):
        primary.insert_row("seq", [rows + 1, 3.75])
        lag_during = shipper.lag("lagger")
    caught_up = shipper.catch_up("lagger")["lagger"]
    match = ([list(r) for r in replica.warehouse.query(QUERY).rows]
             == [list(r) for r in reference.query(QUERY).rows])
    return {
        "fired": plan.fired_count(),
        "detection": (
            f"repro_replica_lag_epochs gauge rises (lag={lag_during})"
        ),
        "degradation": "record buffered in order; catch-up drains backlog",
        "answers_match": (lag_during == 1 and caught_up
                          and shipper.lag("lagger") == 0 and match
                          and replica.applied_epoch
                          == primary.epochs.latest_epoch),
        "repaired_clean": _verify_clean(primary, replica.warehouse),
    }


def run_ship_partition(rows):
    from repro.replicate import LocalLink, Replica, Shipper
    from repro.serve import ConcurrentWarehouse
    from repro.warehouse.workload import sequence_values

    primary = ConcurrentWarehouse()
    cut, healthy = Replica(name="cut"), Replica(name="healthy")
    shipper = Shipper(primary, [LocalLink(cut), LocalLink(healthy)],
                      min_insync=1)
    primary.create_table("seq", [("pos", "INTEGER"), ("val", "FLOAT")],
                         primary_key=["pos"])
    values = sequence_values(rows, seed=SEED)
    primary.insert("seq", [(i + 1, float(v)) for i, v in enumerate(values)])
    primary.create_view("mv", VIEW_SQL)
    prefix = [list(r) for r in primary.query(QUERY).rows]

    plan = FaultPlan([FaultSpec("ship_partition", target="cut", at=0)])
    with injector.active(plan):
        # min_insync=1 still holds: the healthy replica acks.
        primary.insert_row("seq", [rows + 1, 9.0])
    status = shipper.link_status()
    # During the partition the cut replica serves a consistent *prefix* of
    # history (no torn or reordered applies), just a stale one.
    stale_ok = [list(r) for r in cut.warehouse.query(QUERY).rows] == prefix
    healed = shipper.catch_up("cut")["cut"]
    final = [list(r) for r in primary.query(QUERY).rows]
    match = ([list(r) for r in cut.warehouse.query(QUERY).rows] == final
             and [list(r) for r in healthy.warehouse.query(QUERY).rows]
             == final)
    return {
        "fired": plan.fired_count(),
        "detection": f"link marked down (status={status['cut']['down']})",
        "degradation": (
            "partitioned link buffers; healthy replica keeps min_insync; "
            "catch-up replays the gap in order"
        ),
        "answers_match": (status["cut"]["down"] and stale_ok and healed
                          and match),
        "repaired_clean": _verify_clean(primary, cut.warehouse,
                                        healthy.warehouse),
    }


def run_page_read_corrupt(rows):
    from repro.errors import PageCorruptError

    # The dataset must overflow the buffer budget, or every page stays
    # resident after load and the query never faults one in (the hook
    # fires on fault-in, not on hits).
    rows = rows * 25
    reference = build_wh(rows, view=False).query(QUERY, use_views=False).rows
    with tempfile.TemporaryDirectory() as tmp:
        build_wh(rows, view=False).save(tmp, page_size=512)
        wh = DataWarehouse.load(tmp, memory_budget_bytes=4096)
        pool = wh.db.buffer_pool
        plan = FaultPlan([FaultSpec("page_read_corrupt", target="seq")])
        raised = False
        with injector.active(plan):
            try:
                wh.query(QUERY, use_views=False)
            except PageCorruptError:
                raised = True
        quarantined = len(pool.quarantined_pages())
        # Quarantine is sticky: the bad page keeps failing after the plan
        # is cleared, until repair() drops the poisoned state.
        sticky = False
        try:
            wh.query(QUERY, use_views=False)
        except PageCorruptError:
            sticky = True
        pool.repair()
        repaired = wh.query(QUERY, use_views=False).rows == reference
        # The dump itself is untouched: a fresh load is bit-identical.
        fresh = DataWarehouse.load(tmp, memory_budget_bytes=4096)
        match = fresh.query(QUERY, use_views=False).rows == reference
    return {
        "fired": plan.fired_count(),
        "detection": "per-page CRC32 fails on fault-in; PageCorruptError",
        "degradation": (
            f"page quarantined (count={quarantined}); no bad values served"
        ),
        "answers_match": raised and sticky and quarantined > 0 and match,
        "repaired_clean": repaired,
    }


SCENARIOS = {
    "storage_write_fail": run_storage_write_fail,
    "refresh_interrupt": run_refresh_interrupt,
    "bitflip": run_bitflip,
    "maintenance_fail": run_maintenance_fail,
    "session_kill": run_session_kill,
    "wal_torn_write": run_wal_torn_write,
    "primary_crash": run_primary_crash,
    "replica_lag": run_replica_lag,
    "ship_partition": run_ship_partition,
    "page_read_corrupt": run_page_read_corrupt,
}


def main(argv=None) -> int:
    """Run every scenario and write the JSON artifact; exit 1 on failure."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=40)
    parser.add_argument("--out", default="fault_matrix.json")
    args = parser.parse_args(argv)

    assert set(SCENARIOS) == set(KINDS), "scenario per fault kind"

    results = {}
    ok = True
    for kind in KINDS:
        injector.clear()
        print(f"injecting {kind} ...", flush=True)
        entry = SCENARIOS[kind](args.rows)
        entry_ok = (entry["fired"] > 0 and entry["answers_match"]
                    and entry["repaired_clean"] is True)
        entry["ok"] = entry_ok
        ok = ok and entry_ok
        results[kind] = entry
        print(f"  fired={entry['fired']} answers_match={entry['answers_match']}"
              f" repaired_clean={entry['repaired_clean']}", flush=True)

    artifact = {
        "report": "fault_matrix",
        "rows": args.rows,
        "query": QUERY,
        "ok": ok,
        "faults": results,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=2)
    print(f"wrote {args.out}" + ("" if ok else " (FAILURES)"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
