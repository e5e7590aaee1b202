"""Table 1 — Computing Sequence Data.

Paper setup: ``SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1
PRECEDING AND 1 FOLLOWING) FROM seq`` evaluated four ways:

====================  =========================================================
column                 implementation here
====================  =========================================================
reporting func.        native window operator (``window_strategy="native"``)
self join method       fig. 2 pattern, nested-loop join (``use_index=False``)
reporting func. + pk   native window operator (index present but irrelevant)
self join + pk index   fig. 2 pattern, index-nested-loop band join
====================  =========================================================

Expected shape (paper): native is fast and linear; the self join without an
index blows up quadratically (~50-150x); the pk index collapses the self
join to near-linear, within a small factor of native.

Run: ``pytest benchmarks/bench_table1.py --benchmark-only``
(``REPRO_BENCH_FULL=1`` for the paper's 5k/10k/15k sizes).

Standalone mode (no pytest-benchmark) for CI smoke checks::

    python benchmarks/bench_table1.py --sizes 300,600 --out bench.json \
        --check benchmarks/baseline_table1.json --tolerance 0.25

writes a JSON report with per-method timings *normalized by a calibration
loop* (so the check transfers across machines), plus the columnar-heap vs
row-tuple memory footprint of the largest table, and exits non-zero if
any normalized timing regressed more than ``--tolerance`` over the
checked-in baseline.
"""

import pytest

from benchmarks.conftest import TABLE1_SIZES, sequence_table

QUERY = (
    "SELECT pos, SUM(val) OVER (ORDER BY pos "
    "ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM {table}"
)


def _run(db, table, strategy, use_index):
    return db.sql(
        QUERY.format(table=table),
        window_strategy=strategy,
        use_index=use_index,
    )


@pytest.mark.parametrize("n", TABLE1_SIZES)
def test_reporting_functionality_no_index(benchmark, seq_db, n):
    """Column 1: native reporting functionality, no primary index."""
    table = sequence_table(seq_db, n, primary_key=False)
    benchmark.group = f"table1 n={n}"
    result = benchmark(_run, seq_db, table, "native", False)
    assert len(result) == n


@pytest.mark.parametrize("n", TABLE1_SIZES)
def test_self_join_method_no_index(benchmark, seq_db, n):
    """Column 2: the fig. 2 self join without any index (O(n^2) pairs)."""
    table = sequence_table(seq_db, n, primary_key=False)
    benchmark.group = f"table1 n={n}"
    result = benchmark.pedantic(
        _run, args=(seq_db, table, "selfjoin", False), rounds=1, iterations=1
    )
    assert len(result) == n
    assert result.stats.pairs_examined == n * n


@pytest.mark.parametrize("n", TABLE1_SIZES)
def test_reporting_functionality_with_pk(benchmark, seq_db, n):
    """Column 3: native reporting functionality with a primary key index."""
    table = sequence_table(seq_db, n, primary_key=True)
    benchmark.group = f"table1 n={n}"
    result = benchmark(_run, seq_db, table, "native", "auto")
    assert len(result) == n


@pytest.mark.parametrize("n", TABLE1_SIZES)
def test_self_join_method_with_pk(benchmark, seq_db, n):
    """Column 4: the self join probing the pk index (O(n*w) pairs)."""
    table = sequence_table(seq_db, n, primary_key=True)
    benchmark.group = f"table1 n={n}"
    result = benchmark(_run, seq_db, table, "selfjoin", True)
    assert len(result) == n
    assert result.stats.pairs_examined <= 3 * n
    assert result.stats.index_lookups == n


# -- standalone smoke-check mode (no pytest-benchmark) ------------------------

# (label, window strategy, use_index) — the paper's four Table 1 columns.
_METHODS = [
    ("native", "native", False),
    ("selfjoin", "selfjoin", False),
    ("native_pk", "native", "auto"),
    ("selfjoin_pk", "selfjoin", True),
]


def _calibrate() -> float:
    """Time a fixed pure-Python workload to normalize across machines.

    Normalized timings (``seconds / calibration_seconds``) are roughly a
    machine-independent "work units" measure, so a checked-in baseline from
    one host remains meaningful on a CI runner of different speed.
    """
    import time

    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for i in range(200_000):
            acc += i * 0.5 - (i & 7)
        best = min(best, time.perf_counter() - start)
    return best


def run_suite(sizes):
    """Run the Table 1 grid once per (size, method); return the JSON doc."""
    import time

    from repro.relational import Database

    db = Database()
    calibration = _calibrate()
    entries = []
    for n in sizes:
        for label, strategy, use_index in _METHODS:
            table = sequence_table(db, n, primary_key=label.endswith("_pk"))
            best = float("inf")
            for _ in range(3):
                start = time.perf_counter()
                result = _run(db, table, strategy, use_index)
                best = min(best, time.perf_counter() - start)
            assert len(result) == n
            entries.append({
                "n": n,
                "method": label,
                "seconds": best,
                "normalized": best / calibration,
            })
    largest = db.table(sequence_table(db, max(sizes), primary_key=True))
    return {
        "benchmark": "table1",
        "sizes": list(sizes),
        "calibration_seconds": calibration,
        "entries": entries,
        "memory": {
            "table_rows": len(largest),
            "columnar_bytes": largest.memory_bytes(),
            "row_tuple_bytes": largest.row_memory_bytes(),
        },
    }


def noop_tracer_overhead(report, baseline):
    """Per-(method, n) fractional change of normalized timing vs baseline.

    The engine's hot paths are permanently instrumented (stats counters,
    tracer-enabled checks); with the default NULL_TRACER
    this delta over the pre-observability baseline *is* the no-op cost.
    Entries below the noise floor (normalized < 1.0) are skipped.
    """
    base = {(e["n"], e["method"]): e["normalized"]
            for e in baseline["entries"]}
    overhead = {}
    for entry in report["entries"]:
        want = base.get((entry["n"], entry["method"]))
        if want is None or want < 1.0:
            continue
        overhead[f"{entry['method']}@{entry['n']}"] = (
            entry["normalized"] / want - 1.0
        )
    return overhead


def check_regressions(report, baseline, tolerance):
    """Compare normalized timings; return a list of regression strings."""
    base = {(e["n"], e["method"]): e["normalized"]
            for e in baseline["entries"]}
    failures = []
    for entry in report["entries"]:
        want = base.get((entry["n"], entry["method"]))
        if want is None:
            continue
        # Floor tiny baselines: sub-millisecond-scale work units are noise.
        if entry["normalized"] > max(want, 1.0) * (1.0 + tolerance):
            failures.append(
                f"{entry['method']} n={entry['n']}: normalized "
                f"{entry['normalized']:.2f} > baseline {want:.2f} "
                f"(+{tolerance:.0%} allowed)"
            )
    return failures


def main(argv=None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="300,600",
                        help="comma-separated table sizes")
    parser.add_argument("--out", default=None,
                        help="write the JSON report to this path")
    parser.add_argument("--check", default=None,
                        help="baseline JSON to compare normalized timings against")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional slowdown vs baseline")
    args = parser.parse_args(argv)

    sizes = [int(s) for s in args.sizes.split(",") if s]
    report = run_suite(sizes)
    for entry in report["entries"]:
        print(f"  {entry['method']:<12} n={entry['n']:<6} "
              f"{entry['seconds'] * 1000:8.1f} ms  "
              f"(normalized {entry['normalized']:.2f})")
    mem = report["memory"]
    print(f"  memory (n={mem['table_rows']}): columnar heap "
          f"{mem['columnar_bytes']} B vs ~{mem['row_tuple_bytes']} B as "
          f"row tuples")
    if args.check:
        with open(args.check, encoding="utf-8") as fh:
            baseline = json.load(fh)
        overhead = noop_tracer_overhead(report, baseline)
        report["noop_tracer_overhead"] = overhead
        if overhead:
            worst = max(overhead.items(), key=lambda kv: kv[1])
            print(f"  no-op tracer overhead vs baseline: worst "
                  f"{worst[1]:+.1%} ({worst[0]})")
        failures = check_regressions(report, baseline, args.tolerance)
        if failures:
            print("PERFORMANCE REGRESSION:")
            for failure in failures:
                print(f"  {failure}")
            return 1
        print(f"  no regression vs {args.check} "
              f"(tolerance {args.tolerance:.0%})")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        print(f"  wrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
