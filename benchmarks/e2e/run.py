"""End-to-end benchmark: one workload per process, one closed-loop client.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --suite OUT.json [--runs 10]
    python3 benchmarks/e2e/run.py --compare A.json B.json

A workload run builds its inputs from ``--seed``, sets up (three times;
``setup_s`` is the median), sends each op after the previous reply, checks
every reply against the oracle's model, and prints every metric by name
with its unit.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The line before it, prefixed ``EXTRAS``, carries the
metrics that only some workloads have and the exact counts.

``--seconds`` sets how much work is measured: op counts are
``seconds / 20`` times the counts in ``workloads.py``, which take about
20 s at the commit that added the benchmark.  Counts therefore repeat
exactly from run to run, whatever the machine's speed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(REPO, "src"))
sys.path.insert(0, HERE)

from clock import CALIBRATION_WINDOW, calibration_sample, speed_factor  # noqa: E402

SETUP_REPEATS = 3
TRACED_SHARE = 4  # the traced run measures a quarter of the untraced op count

def load_spec() -> Dict[str, Any]:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


# -- one workload run -----------------------------------------------------------


def set_up(cls, seed: int, scale: float, workdir: str, label: str, repeats: int,
           tracer=None):
    """Build the workload ``repeats`` times; keep the last one.

    Returns ``(workload, home, seconds per build at reference speed)``.
    Every build gets a directory of its own (``label`` plus a number), and
    temporary files the program creates (the buffer pool's overlay) are
    pointed into it, so nothing is written outside the checkout and
    ``disk_bytes`` of one build never sees another's files.
    """
    times = []
    for i in range(repeats):
        home = os.path.join(workdir, f"{label}{i}")
        os.makedirs(home)
        tempfile.tempdir = home
        workload = cls(seed, scale)
        workload.fsyncs.install()
        calibration = [calibration_sample() for _ in range(CALIBRATION_WINDOW)]
        root = tracer.begin_op(-1) if tracer is not None else None
        started = time.perf_counter()
        workload.build(home)
        elapsed = time.perf_counter() - started
        if root is not None:
            tracer.end_op(root)
        calibration += [calibration_sample() for _ in range(CALIBRATION_WINDOW)]
        times.append(elapsed * speed_factor(calibration))
        if i < repeats - 1:
            tear_down(workload, home)
    return workload, home, times


def tear_down(workload, home: str) -> None:
    workload.close()
    workload.fsyncs.uninstall()
    shutil.rmtree(home, ignore_errors=True)
    shutil.rmtree(home + ".crash", ignore_errors=True)


def measure(workload, ops, tracer=None) -> Dict[str, Any]:
    """Send each op after the previous reply; check replies outside the clock.

    ``latency`` is scaled to reference speed op by op; ``raw`` is as timed.
    """
    raw: List[float] = []
    calibration = [calibration_sample()]
    before = workload.counters()
    positions = 0
    for i, op in enumerate(ops):
        root = tracer.begin_op(i) if tracer is not None else None
        started = time.perf_counter()
        try:
            reply, error = workload.execute(op), None
        except Exception as exc:  # an op that raises is a failed op
            reply, error = None, exc
        elapsed = time.perf_counter() - started
        if root is not None:
            tracer.end_op(root)
        raw.append(elapsed)
        calibration.append(calibration_sample())
        if error is not None:
            workload.failures.append(f"op {i} {op.template}: {type(error).__name__}: {error}")
            continue
        try:
            if not workload.check(op, reply):
                workload.failures.append(f"op {i} {op.template}: wrong answer")
            positions += workload.positions(op, reply)
        except Exception as exc:
            workload.failures.append(f"op {i} {op.template}: unreadable reply: {exc!r}")
    after = workload.counters()
    latency: Dict[str, List[float]] = {"read": [], "write": [], "checkpoint": []}
    by_template: Dict[str, List[float]] = {}
    for i, (op, elapsed) in enumerate(zip(ops, raw)):
        # Sample i was taken just before op i and sample i + 1 just after.
        nearby = calibration[max(0, i - CALIBRATION_WINDOW): i + 2 + CALIBRATION_WINDOW]
        scaled = elapsed * speed_factor(nearby)
        latency[op.cls].append(scaled)
        by_template.setdefault(op.template, []).append(scaled)
    counts = {k: after[k] - before.get(k, 0) if k != "lag_epochs_max" else after[k]
              for k in after}
    for cls, samples in latency.items():
        counts[f"ops_{cls}"] = len(samples)
    return {
        "latency": latency,
        "by_template": by_template,
        "positions": positions,
        "busy_s": sum(sum(v) for v in latency.values()),
        "raw_busy_s": sum(raw),
        "raw_ops_per_s": len(ops) / sum(raw),
        "raw_read_p50_s": percentile(
            [t for op, t in zip(ops, raw) if op.cls == "read"], 0.50),
        "machine_speed": speed_factor(calibration),
        "counts": counts,
    }


def end_to_end(run: Dict[str, Any], setup_times: List[float]) -> Dict[str, float]:
    reads = run["latency"]["read"]
    n_ops = sum(len(samples) for samples in run["latency"].values())
    return {
        "setup_s": statistics.median(setup_times),
        "read_p50_ms": percentile(reads, 0.50) * 1e3,
        "read_p95_ms": percentile(reads, 0.95) * 1e3,
        "ops_per_s": n_ops / run["busy_s"],
        "read_us_per_position": sum(reads) / max(1, run["positions"]) * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def extras_of(run: Dict[str, Any], finished: Dict[str, float], attempted: int,
              failed: int) -> Dict[str, float]:
    """Metrics only some workloads have, and sample counts."""
    writes = run["latency"]["write"]
    out = dict(finished)
    out["failed_ratio"] = failed / attempted
    out["machine_speed"] = run["machine_speed"]
    out["raw_ops_per_s"] = run["raw_ops_per_s"]
    out["raw_read_p50_ms"] = run["raw_read_p50_s"] * 1e3
    out["read_samples"] = float(len(run["latency"]["read"]))
    out["positions_returned"] = float(run["positions"])
    if writes:
        out["write_p50_ms"] = percentile(writes, 0.50) * 1e3
        out["write_p95_ms"] = percentile(writes, 0.95) * 1e3
        out["write_samples"] = float(len(writes))
    if run["latency"]["checkpoint"]:
        out["checkpoint_ms"] = statistics.median(run["latency"]["checkpoint"]) * 1e3
    return out


def layer_metrics(tracer, run, finished, n_ops: int, untraced_busy_s: float) -> Dict[str, float]:
    """Per-layer numbers of the traced pass (see README for what each moves)."""
    from tracing import UNATTRIBUTED

    buckets = tracer.self_times(min_op=0)
    counts = run["counts"]
    writes = len(run["latency"]["write"])

    def per_op(bucket: str) -> float:
        return buckets[bucket]["seconds"] * 1e3 / n_ops

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def mean_ms(spans) -> float:
        return statistics.fmean((s[3] - s[2]) * 1e3 for s in spans) if spans else 0.0

    out = {name: per_op(name) for name in buckets if name.endswith("_self_ms")}
    queries = [q for q in tracer.queries if q["op"] >= 0]
    with_views = [q for q in queries if q["views"]]
    rewritten = [q for q in with_views if q["rewritten"]]
    rows = sum(q["rows"] for q in queries)
    q_errors = [q["q_error"] for q in queries if q["q_error"] is not None]
    kernel = buckets["core.kernel_self_ms"]
    maintain = buckets["core.maintain_self_ms"]
    pages = len(tracer.select("decode_page", min_op=0))
    pool_hits, pages_read = counts.get("pool_hits", 0), counts.get("pages_read", 0)
    out.update({
        "serve.response_bytes_per_op": buckets["serve.protocol_self_ms"]["n"] / n_ops,
        "serve.rejections": counts["rejections"],
        "warehouse.rewrite_hit_ratio": ratio(len(rewritten), len(with_views)),
        "views.route_relational_ratio":
            ratio(sum(q["relational"] for q in rewritten), len(rewritten)),
        "core.kernel_us_per_position": ratio(kernel["seconds"] * 1e6, kernel["n"]),
        "core.values_touched_per_write": ratio(maintain["n"], maintain["spans"]),
        "relational.rows_scanned_per_row_returned":
            ratio(sum(q["rows_scanned"] for q in queries), rows),
        "relational.pairs_examined_per_row_returned":
            ratio(sum(q["pairs_examined"] for q in queries), rows),
        "relational.persist_save_ms": mean_ms(tracer.select("save_database")),
        "relational.persist_load_ms": mean_ms(tracer.select("load_database")),
        "stats.q_error_p50": statistics.median(q_errors) if q_errors else 0.0,
        "storage.pool_hit_ratio": ratio(pool_hits, pool_hits + pages_read),
        "storage.pages_read_per_op": pages_read / n_ops,
        "storage.evictions_per_op": counts.get("evictions", 0) / n_ops,
        "storage.writebacks_per_op": counts.get("writebacks", 0) / n_ops,
        "storage.decode_us_per_page": ratio(buckets["storage.decode"]["seconds"] * 1e6, pages),
        "storage.rows_per_page": ratio(buckets["storage.decode"]["n"], pages),
        "replicate.replica_apply_ms": per_op("replicate.replica_apply_ms"),
        "replicate.fsyncs_per_write": ratio(counts["fsyncs"], writes),
        "replicate.wal_bytes_per_write": ratio(counts.get("wal_bytes", 0), writes),
        "replicate.lag_epochs_max": counts.get("lag_epochs_max", 0),
        "replicate.replay_ms_per_record": mean_ms(
            tracer.select("ConcurrentWarehouse.apply_record", under="recover")),
        "replicate.recover_ms": mean_ms(tracer.select("recover")),
        "parallel.tasks_per_op": buckets["parallel.tasks"]["n"] / n_ops,
        "bench.attributed_share":
            1.0 - ratio(buckets[UNATTRIBUTED]["seconds"], run["raw_busy_s"]),
        "bench.machine_speed_ratio": run["machine_speed"],
        "bench.trace_overhead_ratio": run["busy_s"] / untraced_busy_s - 1.0,
        "bench.stored_bytes_per_user_byte": finished.get("stored_bytes_per_user_byte", 0.0),
    })
    return out


def inputs_digest(workload, ops) -> str:
    """Hash of everything the seed decides: table contents and the op list."""
    tables = {name: workload.model.rows(name) for name in sorted(workload.model.parts)}
    return hashlib.sha256(repr((tables, ops)).encode()).hexdigest()[:16]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import NOMINAL_SECONDS, WORKLOADS

    spec = load_spec()
    cls = WORKLOADS[name]
    scale = seconds / NOMINAL_SECONDS
    workdir = os.path.join(HERE, ".work", f"{name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    tracer = None
    try:
        if trace:
            from tracing import Tracer

            scale /= TRACED_SHARE
            # Untraced pass over the same ops first: its busy time is the
            # base of the tracing-overhead ratio.
            workload, home, _ = set_up(cls, seed, scale, workdir, "plain", 1)
            plain_busy_s = measure(workload, workload.ops())["busy_s"]
            tear_down(workload, home)
            tracer = Tracer()
            tracer.install()
        try:
            workload, home, setup_times = set_up(
                cls, seed, scale, workdir, "setup", 1 if trace else SETUP_REPEATS, tracer)
            ops = workload.ops()
            digest = inputs_digest(workload, ops)
            run = measure(workload, ops, tracer)
            finished = workload.finish(tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        failures = workload.failures
        tear_down(workload, home)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        metrics = layer_metrics(tracer, run, finished, len(ops), plain_busy_s)
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.dump(os.path.join(out_dir, f"trace_{name}.json"))
        declared = spec["per_layer"]
    else:
        metrics = end_to_end(run, setup_times)
        declared = spec["end_to_end"]

    attempted = len(ops) + (1 if "recover_s" in finished else 0)
    failed = min(attempted, len(failures))
    if trace and metrics["bench.attributed_share"] < 0.90:
        failures.append(f"attributed share {metrics['bench.attributed_share']:.3f} < 0.90")
    for message in failures[:10]:
        print(f"FAILED {message}", file=sys.stderr)
    extras = extras_of(run, finished, attempted, failed)

    print(f"workload {name}  seed {seed}  ops {len(ops)}  "
          f"measured {run['busy_s']:.2f} s  trace {int(trace)}")
    for template, samples in sorted(run["by_template"].items()):
        print(f"  template {template:<26} n={len(samples):<5} "
              f"p50={percentile(samples, 0.5) * 1e3:10.3f} ms")
    units = {m["name"]: m["unit"] for m in declared}
    for key in units:
        print(f"  {key:<44} {metrics[key]:14.4f} {units[key]}")
    for key, value in sorted(extras.items()):
        print(f"  extra {key:<38} {value:14.4f}")
    print("EXTRAS " + json.dumps(
        {"extras": extras, "counts": run["counts"], "inputs_sha": digest}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if not failures else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite", metavar="OUT.json",
                        help="run every workload --runs times (fresh process each) "
                             "plus one traced run, and write the result set")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        from suite import compare

        return compare(*args.compare, load_spec())
    if not os.path.isdir(os.path.join(REPO, "src", "repro")):
        print(f"no program to measure: {REPO}/src/repro is missing", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    if args.suite:
        from suite import run_suite

        return run_suite(args.suite, load_spec(), args.runs, args.seed, seconds)
    if not args.workload:
        parser.error("one of --workload, --suite or --compare is required")
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
