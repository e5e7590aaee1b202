"""Command-line interface: demos, paper-table sweeps, view advice.

Usage::

    python -m repro demo [--rows N] [--inject-fault KIND] [--profile]
    python -m repro explain [--analyze] [--query "SELECT ..."] [--rows N]
    python -m repro stats [--format json|prom] [--out PATH]
                          [--addr HOST:PORT ...]
    python -m repro table1 [--sizes 500,1000,2000]
    python -m repro table2 [--sizes 100,500,1000]
    python -m repro advise --query "SELECT ..." [--query "..."]
    python -m repro serve [--rows N] [--port P] [--max-queue Q]
                          [--ops-port P] [--trace-sample R]
    python -m repro replicate [--rows N] [--replicas R] [--min-insync K]
                              [--inject-fault KIND] [--dir DIR]
    python -m repro recover --dir DIR [--query "SELECT ..."] [--json PATH]
    python -m repro verify --dir DIR [--repair] [--json PATH]
    python -m repro fuzz [--seeds N] [--oracle sqlite|none] [--json PATH]
                         [--trace]

The ``table1``/``table2`` subcommands rerun the paper's evaluation sweeps
with simple wall-clock timing and print rows in the papers' table layout
(see ``benchmarks/`` for the statistically careful pytest-benchmark
version, and EXPERIMENTS.md for recorded results).  ``serve --ops-port``
also starts the ops HTTP endpoint (``/metrics``, ``/healthz``,
``/trace/<id>``) beside the serving tier.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional, Sequence

from repro.core.complete import CompleteSequence
from repro.core.window import sliding
from repro.relational import Database, FLOAT, INTEGER
from repro.sql.patterns import maxoa_pattern, minoa_pattern
from repro.warehouse import DataWarehouse, create_sequence_table, sequence_values

__all__ = ["main"]


def _sizes(text: str) -> List[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid size list {text!r}") from None


def _timed(fn, *args, **kwargs) -> float:
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def cmd_demo(args: argparse.Namespace) -> int:
    """End-to-end demo: build a table, materialize a view, derive a query."""
    wh = DataWarehouse()
    create_sequence_table(wh.db, "seq", args.rows, seed=1, distribution="walk")
    wh.create_view(
        "mv",
        "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING "
        "AND 1 FOLLOWING) AS s FROM seq")
    query = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 "
             "PRECEDING AND 1 FOLLOWING) AS s FROM seq ORDER BY pos")
    print(f"base table: seq ({args.rows} rows)")
    print("materialized view 'mv': window (2, 1), complete sequence")
    if args.inject_fault:
        return _demo_fault(wh, args.inject_fault, query)
    if args.profile:
        return _demo_profile(wh, query)
    print("\nquery window (3, 1):")
    print(" ", wh.explain(query))
    result = wh.query(query)
    print()
    print(result.pretty(limit=8))
    print(f"\nengine stats: {result.stats.summary()}")
    return 0


def _demo_profile(wh: DataWarehouse, query: str) -> int:
    """The --profile demo: run the query traced, show the span tree."""
    from repro.obs import runtime
    from repro.obs.trace import Tracer

    tracer = Tracer()
    with runtime.use(tracer=tracer):
        result = wh.query(query)
    print("\nquery window (3, 1):")
    print(result.pretty(limit=8))
    print(f"\nengine stats: {result.stats.summary()}")
    print("\nspan tree:")
    print(tracer.render_tree())
    print("\ntop 5 slowest spans:")
    for span in tracer.slowest(5):
        attrs = " ".join(f"{k}={v}" for k, v in sorted(span.attributes.items()))
        print(
            f"  {span.duration * 1000:9.3f} ms  {span.name}"
            + (f"  [{attrs}]" if attrs else "")
        )
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """Explain (or EXPLAIN ANALYZE) a query against the demo warehouse.

    Builds the same seq/mv setup as ``repro demo`` so both the rewrite
    path (view derivation, MaxOA/MinOA) and the native annotated operator
    tree are demonstrable without any saved data.
    """
    wh = DataWarehouse()
    create_sequence_table(wh.db, "seq", args.rows, seed=1, distribution="walk")
    wh.create_view(
        "mv",
        "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING "
        "AND 1 FOLLOWING) AS s FROM seq")
    query = args.query or (
        "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 "
        "PRECEDING AND 1 FOLLOWING) AS s FROM seq ORDER BY pos")
    explain = wh.explain_analyze if args.analyze else wh.explain
    print(explain(query, algorithm=args.algorithm, use_views=args.use_views))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Run a compact multi-layer workload and dump the metrics registry.

    With ``--addr host:port`` (repeatable), skips the local workload and
    instead fetches the ``stats`` snapshot from each serving-tier node,
    folding them into one cluster-wide registry — counters and histograms
    sum, so the dump reads the same whether it came from one process or
    a primary plus replicas.
    """
    from repro.obs import runtime
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    if getattr(args, "addrs", None):
        from repro.serve.client import ServeClient

        for addr in args.addrs:
            host, _, port_text = addr.rpartition(":")
            if not host or not port_text.isdigit():
                print(f"bad --addr {addr!r}: expected HOST:PORT")
                return 2
            with ServeClient(host, int(port_text)) as client:
                registry.merge_json(client.stats())
        print(f"merged metrics from {len(args.addrs)} node(s)",
              file=sys.stderr)
    else:
        with runtime.use(registry=registry):
            _stats_workload(args.rows)
    if args.format == "prom":
        text = registry.to_prometheus()
    else:
        text = json.dumps(registry.to_json(), indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"metrics written to {args.out} ({args.format})")
    else:
        print(text)
    return 0


def _stats_workload(rows: int) -> None:
    """Touch every instrumented layer: engine, window, views, cache."""
    wh = DataWarehouse()
    wh.enable_query_cache(max_views=2)
    wh.enable_slow_query_log(threshold_ms=0.0)
    create_sequence_table(wh.db, "seq", rows, seed=1, distribution="walk")
    wh.create_view(
        "mv",
        "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING "
        "AND 1 FOLLOWING) AS s FROM seq")
    derivable = (
        "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 "
        "PRECEDING AND 1 FOLLOWING) AS s FROM seq ORDER BY pos")
    wh.query(derivable)                    # views: MaxOA/MinOA derivation
    wh.query(derivable, use_views=False)   # engine + window
    cacheable = (
        "SELECT pos, MIN(val) OVER (ORDER BY pos ROWS BETWEEN 2 "
        "PRECEDING AND 2 FOLLOWING) AS m FROM seq")
    wh.query(cacheable)                    # cache: miss + admission
    wh.query(cacheable)                    # cache: hit via derivation
    wh.update_measure(                     # views: incremental maintenance
        "seq", keys={"pos": rows // 2}, value_col="val", new_value=1.0
    )
    # Storage gauges: per-table heap residency, plus the buffer pool of a
    # paged reload of the same warehouse queried under a small
    # budget — so occupancy/hit/miss/eviction gauges are non-trivial.
    import tempfile

    from repro.obs import runtime

    registry = runtime.get_registry()
    for table in wh.db.catalog.tables():
        registry.gauge(
            "repro_table_memory_bytes",
            {"table": table.name},
            help="Resident bytes of one table's column heaps",
        ).set(float(table.memory_bytes()))
    with tempfile.TemporaryDirectory() as tmp:
        wh.save(tmp, page_size=1024)
        paged = DataWarehouse.load(tmp, memory_budget_bytes=8 * 1024)
        paged.query(derivable, use_views=False)
        paged.db.buffer_pool.publish(registry)


def _demo_fault(wh: DataWarehouse, kind: str, query: str) -> int:
    """The --inject-fault demo: detection -> degradation -> repair, live."""
    import tempfile

    from repro.errors import ReproError
    from repro.faults import FaultPlan, FaultSpec, injector

    spec_kwargs = {
        "storage_write_fail": dict(target="seq"),
        "refresh_interrupt": dict(target="mv", point="commit"),
        "bitflip": dict(target="mv"),
        "maintenance_fail": dict(target="mv"),
        "session_kill": dict(target="cli"),
    }[kind]
    plan = FaultPlan([FaultSpec(kind, **spec_kwargs)], seed=1)
    print(f"\ninjecting: {plan.describe()}")
    cw = None
    with injector.active(plan):
        try:
            if kind == "session_kill":
                from repro.serve import ConcurrentWarehouse

                cw = ConcurrentWarehouse(wh)
                cw.query(query, session="cli")
            elif kind == "storage_write_fail":
                with tempfile.TemporaryDirectory() as tmp:
                    wh.save(tmp)
            elif kind == "refresh_interrupt":
                wh.refresh_view("mv")
            elif kind == "bitflip":
                wh.verify()
            elif kind == "maintenance_fail":
                wh.update_measure("seq", keys={"pos": 1}, value_col="val",
                                  new_value=1.0)
        except ReproError as exc:
            print(f"fault surfaced: {type(exc).__name__}: {exc}")
        result = wh.query(query)
    for event in plan.events:
        print(f"fired: {event.kind} at {event.site} ({event.detail})")
    if cw is not None:
        report = cw.epochs.verify()
        print(
            f"epoch store after kill: clean={'yes' if report['clean'] else 'NO'}"
            f" (latest={report['latest']}, pinned={report['pinned']},"
            f" orphaned={report['orphaned']})"
        )
        cw.release()
        if not report["clean"]:
            return 1
    expected = wh.query(query, use_views=False)
    same = [tuple(round(v, 9) for v in row) for row in result.rows] == [
        tuple(round(v, 9) for v in row) for row in expected.rows
    ]
    route = result.rewrite.view if result.rewrite is not None else "base data"
    print(f"query answered from: {route}")
    print(f"answers match a base-data recomputation: {'yes' if same else 'NO'}")
    if wh.quarantined_views():
        print(f"quarantined views: {wh.quarantined_views()}")
        reports = wh.repair()
        for name, report in reports.items():
            print(f"repair: {report.summary()}")
    for line in wh.incidents:
        print(f"incident: {line}")
    return 0 if same else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Boot the concurrent serving tier over a demo warehouse."""
    import threading

    from repro.serve import ConcurrentWarehouse
    from repro.serve.protocol import OPS
    from repro.serve.server import ServeServer

    if args.trace_sample > 0:
        from repro.obs import Tracer, runtime

        runtime.set_tracer(Tracer(sample_rate=args.trace_sample))
    cw = ConcurrentWarehouse()
    cw.create_table("seq", [("pos", INTEGER), ("val", FLOAT)],
                    primary_key=["pos"])
    cw.insert(
        "seq",
        [(i + 1, v) for i, v in enumerate(sequence_values(args.rows, seed=args.seed))],
    )
    cw.create_view(
        "mv",
        "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING "
        "AND 1 FOLLOWING) AS s FROM seq",
    )
    server = ServeServer(
        cw,
        host=args.host,
        port=args.port,
        max_queue=args.max_queue,
    )
    server.start()
    ops_server = None
    if args.ops_port is not None:
        from repro.obs import OpsServer

        ops_server = OpsServer(
            host=args.host, port=args.ops_port, health=server._status,
        ).start()
    # Flushed eagerly: supervisors scrape the ephemeral port from stdout.
    print(
        f"serving seq({args.rows} rows) + view 'mv' on "
        f"{server.host}:{server.port} "
        f"(max_queue={server.max_queue}, epoch={cw.epochs.latest_epoch})",
        flush=True,
    )
    print(f"protocol: one JSON object per line; ops: {', '.join(OPS)}",
          flush=True)
    if ops_server is not None:
        print(
            f"ops endpoint on http://{ops_server.address} "
            f"(/metrics /healthz /trace/<id>)",
            flush=True,
        )
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        if ops_server is not None:
            ops_server.stop()
        server.stop()
    return 0


_REPLICATION_KINDS = (
    "wal_torn_write", "primary_crash", "replica_lag", "ship_partition",
)

_REPLICATE_VIEW = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 "
                   "PRECEDING AND 1 FOLLOWING) AS s FROM seq")
_REPLICATE_QUERY = _REPLICATE_VIEW + " ORDER BY pos"


def _replicate_crash_demo(args: argparse.Namespace) -> int:
    """primary_crash needs the real serving tier: crash, degrade, fail over."""
    from repro.faults import FaultPlan, FaultSpec, injector
    from repro.replicate import (
        Endpoint, FailoverCoordinator, RemoteLink, Replica, ReplicatedClient,
        Shipper,
    )
    from repro.serve import ConcurrentWarehouse
    from repro.serve.server import ServeServer

    replicas = [Replica(name=f"replica-{i + 1}")
                for i in range(max(args.replicas, 1))]
    servers = [ServeServer(replica=r, name=r.name).start() for r in replicas]
    primary = ConcurrentWarehouse()
    primary_server = ServeServer(primary, name="primary").start()
    shipper = Shipper(primary, [
        RemoteLink("127.0.0.1", s.port, name=s.name) for s in servers
    ], min_insync=args.min_insync)
    print(f"primary on :{primary_server.port} -> "
          + ", ".join(f"{s.name} on :{s.port}" for s in servers)
          + f", min_insync={args.min_insync}")
    try:
        primary.create_table("seq", [("pos", INTEGER), ("val", FLOAT)],
                             primary_key=["pos"])
        primary.insert("seq", [
            (i + 1, v)
            for i, v in enumerate(sequence_values(args.rows, seed=args.seed))
        ])
        primary.create_view("mv", _REPLICATE_VIEW)

        coordinator = FailoverCoordinator(
            [Endpoint("primary", "127.0.0.1", primary_server.port)]
            + [Endpoint(s.name, "127.0.0.1", s.port) for s in servers],
            timeout=3.0,
        )
        with ReplicatedClient(coordinator) as client:
            before = client.query(_REPLICATE_QUERY)["rows"]
            plan = FaultPlan([FaultSpec("primary_crash", target="primary")])
            print(f"injecting: {plan.describe()}")
            with injector.active(plan):
                degraded = client.query(_REPLICATE_QUERY)
                print(f"read during outage: served by "
                      f"{degraded['served_by']} (stale={degraded['stale']}), "
                      f"answer match: "
                      f"{'yes' if degraded['rows'] == before else 'NO'}")
                client.write("insert_row", table="seq",
                             values=[args.rows + 1, 0.5])
                after = client.query(_REPLICATE_QUERY)
            for event in plan.events:
                print(f"fired: {event.kind} at {event.site} ({event.detail})")
            print(f"failover: {coordinator.primary_name} promoted; "
                  f"post-failover read stale={after['stale']}")
        ok = (degraded["stale"] and degraded["rows"] == before
              and coordinator.primary_name != "primary"
              and not after["stale"])
        print("availability held through the crash: "
              + ("yes" if ok else "NO"))
        return 0 if ok else 1
    finally:
        shipper.close()
        primary_server.stop()
        for s in servers:
            s.stop()


def cmd_replicate(args: argparse.Namespace) -> int:
    """Demo the durability stack: WAL + warm replicas + failover faults."""
    import shutil
    import tempfile

    if args.inject_fault == "primary_crash":
        return _replicate_crash_demo(args)

    from repro.errors import InjectedFault, ReplicationError
    from repro.faults import FaultPlan, FaultSpec, injector
    from repro.replicate import (
        LocalLink, Replica, Shipper, WriteAheadLog, recover, state_digest,
        wal_path,
    )
    from repro.serve import ConcurrentWarehouse

    home = args.dir or tempfile.mkdtemp(prefix="repro-replicate-")
    cleanup = args.dir is None
    try:
        wal = WriteAheadLog(wal_path(home))
        primary = ConcurrentWarehouse(wal=wal)
        replicas = [Replica(name=f"replica-{i + 1}")
                    for i in range(args.replicas)]
        shipper = Shipper(primary, [LocalLink(r) for r in replicas],
                          min_insync=args.min_insync)
        print(f"primary (WAL at {wal_path(home)}) -> "
              f"{args.replicas} warm replicas, min_insync={args.min_insync}")

        plan = None
        if args.inject_fault:
            target = "" if args.inject_fault == "wal_torn_write" else "replica-1"
            plan = FaultPlan(
                [FaultSpec(args.inject_fault, target=target, at=2)], seed=1
            )
            print(f"injecting: {plan.describe()}")
            injector.install(plan)
        torn = False
        try:
            primary.create_table("seq", [("pos", INTEGER), ("val", FLOAT)],
                                 primary_key=["pos"])
            primary.insert("seq", [
                (i + 1, v)
                for i, v in enumerate(sequence_values(args.rows,
                                                      seed=args.seed))
            ])
            primary.create_view("mv", _REPLICATE_VIEW)
            primary.insert_row("seq", (args.rows + 1, 0.5))
        except InjectedFault as exc:
            print(f"fault surfaced: {exc}")
            torn = True
        except ReplicationError as exc:
            print(f"under-replicated commit: {exc}")
        finally:
            injector.clear()
        if plan is not None:
            for event in plan.events:
                print(f"fired: {event.kind} at {event.site} ({event.detail})")

        if torn:
            wal.close()
            report = recover(home)
            print(f"recovered: base_epoch={report.base_epoch} "
                  f"replayed={len(report.replayed)} epochs, truncated "
                  f"{report.truncated_bytes} torn bytes, clean={report.clean}")
            if report.warehouse.wal is not None:
                report.warehouse.wal.close()
            return 0 if report.clean else 1

        healed = shipper.catch_up()
        primary_digest = state_digest(primary.warehouse)
        ok = True
        for replica in replicas:
            digest = state_digest(replica.warehouse.warehouse)
            same = digest == primary_digest
            ok = ok and same and replica.diverged is None
            print(f"{replica.name}: applied epoch {replica.applied_epoch}/"
                  f"{primary.epochs.latest_epoch}, lag "
                  f"{shipper.lag(replica.name)}, caught_up="
                  f"{healed[replica.name]}, digest match: "
                  f"{'yes' if same else 'NO'}")
        rows = primary.query(_REPLICATE_QUERY).rows
        for replica in replicas:
            ok = ok and replica.warehouse.query(_REPLICATE_QUERY).rows == rows
        print(f"bit-identical answers across the replica set: "
              f"{'yes' if ok else 'NO'}")
        wal.close()
        return 0 if ok else 1
    finally:
        if cleanup:
            shutil.rmtree(home, ignore_errors=True)


def cmd_recover(args: argparse.Namespace) -> int:
    """Recover a warehouse from its dump + write-ahead log."""
    from repro.errors import ReproError
    from repro.replicate import recover

    try:
        report = recover(args.dir)
    except ReproError as exc:
        print(f"recovery failed: {type(exc).__name__}: {exc}")
        return 2
    print(f"base snapshot epoch : {report.base_epoch}")
    print(f"replayed epochs     : {len(report.replayed)}"
          + (f" ({report.replayed[0]}..{report.replayed[-1]})"
             if report.replayed else ""))
    print(f"torn bytes truncated: {report.truncated_bytes}")
    print(f"serving epoch       : {report.last_epoch}")
    for name, clean in sorted(report.verified.items()):
        print(f"view {name!r} verified: {'clean' if clean else 'DISCREPANT'}")
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"wrote {args.json_path}")
    if args.query:
        result = report.warehouse.query(args.query)
        for row in result.rows[:20]:
            print("  " + "\t".join(str(v) for v in row))
        if len(result.rows) > 20:
            print(f"  ... {len(result.rows) - 20} more rows")
    if report.warehouse.wal is not None:
        report.warehouse.wal.close()
    print("recovery " + ("clean" if report.clean else "FOUND DISCREPANCIES"))
    return 0 if report.clean else 1


def cmd_verify(args: argparse.Namespace) -> int:
    """Verify (and optionally repair) a saved warehouse dump."""
    import json

    from repro.errors import ReproError

    try:
        # Check the dump's own view values: a refresh would only check itself.
        wh = DataWarehouse.load(args.dir, rehydrate=True)
    except ReproError as exc:
        print(f"load failed: {type(exc).__name__}: {exc}")
        return 2
    reports = wh.verify(quarantine=args.repair)
    repaired = {}
    if args.repair and wh.quarantined_views():
        repaired = wh.repair()
        reports.update(repaired)
    ok = all(r.ok for r in reports.values()) and not wh.quarantined_views()
    for name in sorted(reports):
        print(reports[name].summary())
    for line in wh.incidents:
        print(f"incident: {line}")
    if args.json_path:
        doc = {
            "directory": args.dir,
            "ok": ok,
            "views": {
                name: {
                    "ok": report.ok,
                    "checked_values": report.checked_values,
                    "discrepancies": [
                        {
                            "representation": d.representation,
                            "partition": list(d.partition),
                            "position": d.position,
                            "detail": d.detail,
                        }
                        for d in report.discrepancies
                    ],
                }
                for name, report in reports.items()
            },
            "quarantined": wh.quarantined_views(),
            "repaired": sorted(repaired),
            "incidents": wh.incidents,
        }
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        print(f"report written to {args.json_path}")
    return 0 if ok else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Differential fuzzing: every path + the SQLite oracle, shrink failures.

    Exit code 0 means every generated case agreed on every path (and every
    metamorphic relation held); 1 means discrepancies were found — each one
    already shrunk and written to the corpus directory as a replayable
    repro file.
    """
    import json

    from repro.testkit import CaseGenerator, FuzzRunner

    paths = [p for p in args.paths.split(",") if p] if args.paths else None
    relations = [r for r in args.relations.split(",") if r]
    runner = FuzzRunner(
        paths=paths,
        oracle=None if args.oracle == "none" else args.oracle,
        relations=relations,
        generator=CaseGenerator(max_rows=args.max_rows),
        corpus_dir=args.corpus_dir,
        shrink=not args.no_shrink,
    )
    report = runner.run(args.seeds, base_seed=args.base_seed)
    print(report.summary())
    if args.trace:
        # Trace-parity proof: the same seed batch, rerun with tracing on,
        # must produce bit-identical outcomes (observability must never
        # change results).
        from repro.obs import runtime
        from repro.obs.trace import Tracer

        tracer = Tracer()
        traced_runner = FuzzRunner(
            paths=paths,
            oracle=None if args.oracle == "none" else args.oracle,
            relations=relations,
            generator=CaseGenerator(max_rows=args.max_rows),
            corpus_dir=args.corpus_dir,
            shrink=not args.no_shrink,
        )
        with runtime.use(tracer=tracer):
            traced = traced_runner.run(args.seeds, base_seed=args.base_seed)
        a, b = report.to_dict(), traced.to_dict()
        a.pop("elapsed", None), b.pop("elapsed", None)
        identical = a == b
        print(
            f"traced rerun: {len(tracer.spans())} spans recorded, outcomes "
            f"{'bit-identical' if identical else 'DIVERGED'}"
        )
        if not identical:
            return 1
    for failure in report.failures:
        print(f"  seed {failure.seed}: {failure.description}")
        if failure.shrunk_description:
            print(f"    shrunk to: {failure.shrunk_description}")
        if failure.repro_file:
            print(f"    repro: {failure.repro_file}")
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"report written to {args.json_path}")
    if args.parity_out:
        parity = {
            "base_seed": report.base_seed,
            "seeds": report.seeds,
            "oracle": report.oracle,
            "path_agreements": report.path_agreements,
            "ok": report.ok,
        }
        with open(args.parity_out, "w", encoding="utf-8") as fh:
            json.dump(parity, fh, indent=2)
        print(f"planner parity written to {args.parity_out}")
    return 0 if report.ok else 1


def cmd_table1(args: argparse.Namespace) -> int:
    """Rerun the paper's Table 1 sweep with simple wall-clock timing."""
    query = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 "
             "PRECEDING AND 1 FOLLOWING) AS s FROM {t}")
    print("Table 1: Computing Sequence Data (seconds)")
    header = ("# seq values", "reporting func.", "self join (no idx)",
              "reporting func. (pk)", "self join (pk)")
    print("{:>12} | {:>16} | {:>18} | {:>20} | {:>15}".format(*header))
    db = Database()
    for n in args.sizes:
        create_sequence_table(db, "nopk", n, seed=n, primary_key=False)
        create_sequence_table(db, "pk", n, seed=n, primary_key=True)
        row = (
            _timed(db.sql, query.format(t="nopk"), window_strategy="native"),
            _timed(db.sql, query.format(t="nopk"), window_strategy="selfjoin",
                   use_index=False),
            _timed(db.sql, query.format(t="pk"), window_strategy="native"),
            _timed(db.sql, query.format(t="pk"), window_strategy="selfjoin",
                   use_index=True),
        )
        print("{:>12} | {:>16.3f} | {:>18.3f} | {:>20.3f} | {:>15.3f}".format(n, *row))
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    """Rerun the paper's Table 2 sweep (MaxOA/MinOA x disjunctive/union)."""
    view, target = sliding(2, 1), sliding(3, 1)
    print("Table 2: Deriving Sequence Data (seconds), view (2,1) -> query (3,1)")
    header = ("# seq values", "MaxOA disj.", "MaxOA union", "MinOA disj.", "MinOA union")
    print("{:>12} | {:>12} | {:>12} | {:>12} | {:>12}".format(*header))
    db = Database()
    for n in args.sizes:
        raw = sequence_values(n, seed=n)
        seq = CompleteSequence.from_raw(raw, view)
        db.drop_table("m", if_exists=True)
        db.create_table("m", [("pos", INTEGER), ("val", FLOAT)], primary_key=["pos"])
        db.insert("m", list(seq.items()))
        times = []
        for pattern in (maxoa_pattern, minoa_pattern):
            for variant in ("disjunctive", "union"):
                plan = pattern(db, "m", n, view, target, variant=variant)
                times.append(_timed(db.run, plan))
        print("{:>12} | {:>12.3f} | {:>12.3f} | {:>12.3f} | {:>12.3f}".format(n, *times))
    return 0


def cmd_advise(args: argparse.Namespace) -> int:
    """Recommend view windows for a workload of reporting-function SQL."""
    wh = DataWarehouse()
    queries = [(q, 1.0) for q in args.query]
    advice = wh.advise(queries, top=args.top)
    if not advice:
        print("no rewritable reporting-function queries in the workload")
        return 1
    for key, recommendations in advice.items():
        base, value, partition, order, where = key
        print(f"workload group: {value} over {base} "
              f"(partition {list(partition) or '-'}, order {list(order)})")
        for i, rec in enumerate(recommendations, 1):
            print(f"\n#{i}")
            print(rec.describe())
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reporting-function views in a data warehouse (ICDE 2002 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="end-to-end view derivation demo")
    demo.add_argument("--rows", type=int, default=200)
    from repro.faults import KINDS

    # page_read_corrupt needs a v4 paged load; it is exercised by the
    # fault-matrix benchmark and tests, not the in-memory demo.
    demo_kinds = [
        k for k in KINDS
        if k not in _REPLICATION_KINDS and k != "page_read_corrupt"
    ]
    demo.add_argument("--inject-fault", dest="inject_fault", choices=demo_kinds,
                      default=None,
                      help="run the demo under a deterministic injected fault "
                           "and show detection -> degradation -> repair "
                           "(replication faults: `repro replicate "
                           "--inject-fault`)")
    demo.add_argument("--profile", action="store_true",
                      help="run the query under a tracer and print the span "
                           "tree plus the top-5 slowest spans")
    demo.set_defaults(func=cmd_demo)

    explain = sub.add_parser(
        "explain", help="explain a query against the demo warehouse"
    )
    explain.add_argument("--analyze", action="store_true",
                         help="execute the query and annotate with actual "
                              "rows and per-operator wall time")
    explain.add_argument("--query", default=None,
                         help="SELECT to explain (default: the demo's "
                              "derivable window (3,1) query)")
    explain.add_argument("--rows", type=int, default=200)
    explain.add_argument("--algorithm", choices=["auto", "maxoa", "minoa"],
                         default="auto")
    explain.add_argument("--native", dest="use_views", action="store_false",
                         help="skip view rewriting; show the native plan")
    explain.set_defaults(func=cmd_explain)

    stats = sub.add_parser(
        "stats", help="run a multi-layer workload and dump engine metrics"
    )
    stats.add_argument("--format", choices=["json", "prom"], default="json")
    stats.add_argument("--rows", type=int, default=400)
    stats.add_argument("--out", default=None,
                       help="write the dump to this path instead of stdout")
    stats.add_argument("--addr", dest="addrs", action="append", default=None,
                       metavar="HOST:PORT",
                       help="fetch and merge the metrics snapshot from this "
                            "serving-tier node instead of running the local "
                            "workload (repeatable: primary + replicas give "
                            "the cluster-wide view)")
    stats.set_defaults(func=cmd_stats)

    t1 = sub.add_parser("table1", help="rerun the paper's Table 1 sweep")
    t1.add_argument("--sizes", type=_sizes, default=[500, 1000, 2000])
    t1.set_defaults(func=cmd_table1)

    t2 = sub.add_parser("table2", help="rerun the paper's Table 2 sweep")
    t2.add_argument("--sizes", type=_sizes, default=[100, 500, 1000])
    t2.set_defaults(func=cmd_table2)

    advise = sub.add_parser("advise", help="recommend views for a SQL workload")
    advise.add_argument("--query", action="append", required=True,
                        help="a reporting-function SELECT (repeatable)")
    advise.add_argument("--top", type=int, default=3)
    advise.set_defaults(func=cmd_advise)

    fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing against the SQLite oracle"
    )
    fuzz.add_argument("--seeds", type=int, default=200,
                      help="number of consecutive seeds to fuzz")
    fuzz.add_argument("--base-seed", type=int, default=0,
                      help="first seed (echoed in the report for replay)")
    fuzz.add_argument("--oracle", choices=["sqlite", "none"], default="sqlite",
                      help="'none' diffs internal paths against pipelined")
    fuzz.add_argument("--paths", default=None,
                      help="comma-separated path names (default: all)")
    fuzz.add_argument("--relations",
                      default="shift,scale,permutation,insert_delete",
                      help="metamorphic relations to check ('' disables)")
    fuzz.add_argument("--max-rows", type=int, default=48)
    fuzz.add_argument("--corpus-dir", default=None,
                      help="where shrunk repro files go "
                           "(default: tests/testkit/corpus)")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="skip delta-debugging of failing cases")
    fuzz.add_argument("--trace", action="store_true",
                      help="rerun the same seed batch with tracing enabled "
                           "and assert bit-identical outcomes")
    fuzz.add_argument("--parity-out", dest="parity_out", default=None,
                      help="write per-path agreement counts (the planner "
                           "parity artifact) to this JSON file")
    fuzz.add_argument("--json", dest="json_path", default=None,
                      help="write the machine-readable report to this path")
    fuzz.set_defaults(func=cmd_fuzz)

    serve = sub.add_parser(
        "serve",
        help="serve a demo warehouse over TCP (JSON request lines, framed replies)",
    )
    serve.add_argument("--rows", type=int, default=500)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port (0 picks an ephemeral port)")
    serve.add_argument("--max-queue", dest="max_queue", type=int, default=8,
                       help="admission bound: max queries in flight at once")
    serve.add_argument("--ops-port", dest="ops_port", type=int, default=None,
                       help="also start the ops HTTP endpoint "
                            "(/metrics /healthz /trace/<id>) on this port "
                            "(0 picks an ephemeral port)")
    serve.add_argument("--trace-sample", dest="trace_sample", type=float,
                       default=0.0,
                       help="install a tracer sampling this fraction of "
                            "traces (0 disables tracing, 1.0 records all)")
    serve.set_defaults(func=cmd_serve)

    rep = sub.add_parser(
        "replicate",
        help="demo the durability stack: WAL, warm replicas, failover faults",
    )
    rep.add_argument("--rows", type=int, default=200)
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--replicas", type=int, default=2,
                     help="number of warm in-process replicas")
    rep.add_argument("--min-insync", dest="min_insync", type=int, default=1,
                     help="acks required before a commit call returns")
    rep.add_argument("--inject-fault", dest="inject_fault",
                     choices=list(_REPLICATION_KINDS), default=None,
                     help="inject one replication fault into the workload")
    rep.add_argument("--dir", default=None,
                     help="keep WAL segments here (default: a temp dir, "
                          "removed afterwards)")
    rep.set_defaults(func=cmd_replicate)

    rec = sub.add_parser(
        "recover", help="replay the write-ahead log over the last dump"
    )
    rec.add_argument("--dir", required=True,
                     help="warehouse home holding the dump and its wal/ "
                          "subdirectory")
    rec.add_argument("--query", nargs="?", default=None,
                     const=_REPLICATE_QUERY,
                     help="run a SELECT against the recovered warehouse "
                          "(bare --query runs the replicate demo's view "
                          "query)")
    rec.add_argument("--json", dest="json_path", default=None,
                     help="write a machine-readable report to this path")
    rec.set_defaults(func=cmd_recover)

    ver = sub.add_parser("verify", help="verify (and repair) a saved warehouse dump")
    ver.add_argument("--dir", required=True, help="directory written by DataWarehouse.save()")
    ver.add_argument("--repair", action="store_true",
                     help="quarantine and repair views with discrepancies")
    ver.add_argument("--json", dest="json_path", default=None,
                     help="write a machine-readable report to this path")
    ver.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
