"""Concurrent serving benchmark: tail latency + snapshot-consistency audit.

Boots the serving tier in-process, then runs a mixed workload:

* ``--clients`` reader threads, each with its own connection/session,
  issuing ``--queries`` SELECTs in total (a slice per client; a fraction
  hold their pin briefly to force reader/writer overlap);
* one writer thread committing ``--writes`` update+refresh rounds through
  its own connection, recording the epoch each commit published;
* one fault-injected victim session killed mid-query.

Afterwards the driver *proves* three acceptance properties:

1. **Readers never blocked on writers** — every query succeeded
   (admission rejections are retried, never lost), and reads overlapped
   commits (some queries completed at an epoch older than the then-latest).
2. **Snapshot consistency** — every query's ``(epoch, row-hash)`` is
   bit-identical to a *serial replay* of the same writes on a fresh,
   identically-seeded warehouse paused at that epoch.  Any mismatch is a
   violation and fails the run.
3. **Clean epoch store** — after the kill and all traffic, ``verify()``
   reports no pinned and no orphaned epochs.

The JSON artifact (``BENCH_serving.json``) records p50/p99 query latency,
throughput, rejection/retry counts, and the audit results.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving.py \
        [--rows 120] [--clients 4] [--queries 200] [--writes 2] \
        [--out BENCH_serving.json]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time

from repro.errors import BackpressureError, SessionKilledError
from repro.faults import FaultPlan, FaultSpec, injector
from repro.serve import ConcurrentWarehouse
from repro.serve.client import ServeClient
from repro.serve.server import ServeServer
from repro.warehouse import sequence_values

SEED = 23
VIEW_SQL = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 4 "
            "PRECEDING AND 2 FOLLOWING) AS w FROM seq")
QUERY = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING "
         "AND 2 FOLLOWING) AS w FROM seq ORDER BY pos")


def build_warehouse(rows: int) -> ConcurrentWarehouse:
    cw = ConcurrentWarehouse()
    cw.create_table("seq", [("pos", "INTEGER"), ("val", "FLOAT")],
                    primary_key=["pos"])
    cw.insert("seq", [(i + 1, v)
                      for i, v in enumerate(sequence_values(rows, seed=SEED))])
    cw.create_view("mv", VIEW_SQL)
    return cw


def row_hash(rows) -> str:
    """Bit-exact digest of a result's rows — a served reply's row sequence
    or an embedded result's list (shortest-repr float text is exact)."""
    encoded = json.dumps(list(rows), separators=(",", ":")).encode()
    return hashlib.sha256(encoded).hexdigest()


def percentile(sorted_values, fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                max(0, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=120)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--queries", type=int, default=200,
                        help="total queries across all reader clients")
    parser.add_argument("--writes", type=int, default=2,
                        help="background update+refresh rounds")
    parser.add_argument("--max-queue", dest="max_queue", type=int, default=8)
    parser.add_argument("--hold-every", dest="hold_every", type=int, default=10,
                        help="every Nth query holds its pin for 30ms")
    parser.add_argument("--out", default="BENCH_serving.json")
    args = parser.parse_args(argv)

    cw = build_warehouse(args.rows)
    server = ServeServer(cw, max_queue=args.max_queue,
                         workers=args.clients + 2).start()
    observations = []  # (epoch, hash, latency_s, latest_epoch_at_completion)
    writes = []        # (pos, new_value, epoch_after_update, epoch_after_refresh)
    errors = []
    rejections = [0]
    lock = threading.Lock()
    start_barrier = threading.Barrier(args.clients + 1)

    per_client = max(1, args.queries // args.clients)

    def reader(index: int) -> None:
        try:
            client = ServeClient(port=server.port)
            start_barrier.wait()
            for i in range(per_client):
                hold = 30.0 if args.hold_every and i % args.hold_every == 0 else 0.0
                begun = time.perf_counter()
                while True:
                    try:
                        result = client.query(QUERY, hold_ms=hold)
                        break
                    except BackpressureError:
                        with lock:
                            rejections[0] += 1
                        time.sleep(0.005)
                latency = time.perf_counter() - begun
                latest = cw.epochs.latest_epoch
                with lock:
                    observations.append(
                        (result["epoch"], row_hash(result["rows"]),
                         latency, latest)
                    )
            client.close()
        except Exception as exc:  # pragma: no cover - failure path
            with lock:
                errors.append(f"reader-{index}: {exc!r}")

    def writer() -> None:
        try:
            client = ServeClient(port=server.port)
            start_barrier.wait()
            for i in range(args.writes):
                time.sleep(0.05)  # let readers in between commits
                pos, value = 5 + i, 1000.0 + 7.0 * i
                e_update = client.update_measure(
                    "seq", keys={"pos": pos}, value_col="val", new_value=value
                )
                e_refresh = client.refresh("mv")
                with lock:
                    writes.append((pos, value, e_update, e_refresh))
            client.close()
        except Exception as exc:  # pragma: no cover - failure path
            with lock:
                errors.append(f"writer: {exc!r}")

    threads = [threading.Thread(target=reader, args=(i,))
               for i in range(args.clients)]
    threads.append(threading.Thread(target=writer))
    wall_start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - wall_start

    # -- fault-injected session kill -----------------------------------------
    victim = ServeClient(port=server.port)
    victim_name = victim.ping()
    plan = FaultPlan([FaultSpec("session_kill", target=victim_name)])
    kill_ok = False
    with injector.active(plan):
        try:
            victim.query(QUERY)
        except SessionKilledError:
            kill_ok = True
    retry = victim.query(QUERY)  # the session recovers after the kill
    store_report = victim.epochs()
    victim.close()
    server.stop()

    # -- serial replay: expected answer hash at every epoch ------------------
    replay = build_warehouse(args.rows)
    expected = {replay.epochs.latest_epoch: row_hash(replay.query(QUERY).rows)}
    for pos, value, e_update, e_refresh in writes:
        replay.update_measure("seq", keys={"pos": pos}, value_col="val",
                              new_value=value)
        assert replay.epochs.latest_epoch == e_update, "epoch drift in replay"
        expected[e_update] = row_hash(replay.query(QUERY).rows)
        replay.refresh_view("mv")
        assert replay.epochs.latest_epoch == e_refresh, "epoch drift in replay"
        expected[e_refresh] = row_hash(replay.query(QUERY).rows)

    violations = [
        {"epoch": epoch, "got": got, "want": expected.get(epoch)}
        for epoch, got, _, _ in observations
        if expected.get(epoch) != got
    ]
    if retry["epoch"] in expected and row_hash(retry["rows"]) != expected[retry["epoch"]]:
        violations.append({"epoch": retry["epoch"], "got": "post-kill retry",
                           "want": expected[retry["epoch"]]})

    latencies = sorted(lat for _, _, lat, _ in observations)
    overlapped = sum(1 for epoch, _, _, latest in observations
                     if epoch < latest)
    artifact = {
        "benchmark": "serving",
        "rows": args.rows,
        "clients": args.clients,
        "queries_completed": len(observations),
        "writes_committed": len(writes),
        "wall_seconds": round(wall, 4),
        "throughput_qps": round(len(observations) / wall, 2) if wall else 0.0,
        "latency_ms": {
            "p50": round(percentile(latencies, 0.50) * 1e3, 3),
            "p99": round(percentile(latencies, 0.99) * 1e3, 3),
            "max": round((latencies[-1] if latencies else 0.0) * 1e3, 3),
        },
        "admission_rejections_retried": rejections[0],
        "reads_overlapping_commits": overlapped,
        "epochs_observed": sorted({e for e, _, _, _ in observations}),
        "snapshot_violations": violations,
        "session_kill": {
            "fired": plan.fired_count("session_kill"),
            "raised": kill_ok,
            "store_clean_after": store_report["clean"],
            "pinned_after": store_report["pinned"],
            "orphaned_after": store_report["orphaned"],
        },
        "errors": errors,
    }
    ok = (not errors and not violations and kill_ok
          and store_report["clean"]
          and len(observations) >= per_client * args.clients
          and (args.writes == 0 or len({e for e, _, _, _ in observations}) >= 1))
    artifact["ok"] = ok
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(artifact, fh, indent=2)
    print(f"queries={len(observations)} writes={len(writes)} "
          f"p50={artifact['latency_ms']['p50']}ms "
          f"p99={artifact['latency_ms']['p99']}ms "
          f"overlap={overlapped} rejections={rejections[0]} "
          f"violations={len(violations)} store_clean={store_report['clean']}")
    print(f"wrote {args.out}" + ("" if ok else " (FAILURES)"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
