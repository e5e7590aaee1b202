"""Result sets: run every workload several times, and compare two sets.

A result set is one JSON file: where it was measured (git sha, ``nproc``,
Python and NumPy versions) and one record per run.  ``--compare A B``
prints one row per (workload, end-to-end metric) with both medians, the
bound from ``BENCHMARK.json`` and a verdict:

* ``unresolved``: either side's spread (distance between the first and third
  quartile over its median) is wider than the bound, so the runs cannot
  tell a regression from noise;
* ``worse``: B's median is worse than A's by more than the bound;
* ``within``: otherwise.

Metrics that only some workloads report (``write_p50_ms``, ``recover_s``,
``stored_bytes_per_user_byte`` ...) are compared the same way with the
bounds in ``EXTRA_BOUNDS``; the driver does not enforce those.  Exact counts
of runs that share a workload and a seed must be identical.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))

# (better, bound) for metrics outside BENCHMARK.json's end_to_end list.
EXTRA_BOUNDS = {
    "write_p50_ms": ("lower", 0.10),
    "write_p95_ms": ("lower", 0.15),
    "recover_s": ("lower", 0.15),
    "checkpoint_ms": ("lower", 0.15),
    "stored_bytes_per_user_byte": ("lower", 0.01),
    "failed_ratio": ("lower", 0.0),
}


def fingerprint() -> Dict[str, Any]:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    """One workload run in a fresh process; returns its parsed result."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=REPO)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("EXTRAS "):
        raise RuntimeError(
            f"{workload} seed {seed} printed no result (exit {proc.returncode}):\n"
            f"{proc.stderr[-2000:]}")
    record = json.loads(lines[-1])
    record.update(json.loads(lines[-2][len("EXTRAS "):]))
    record.update(workload=workload, seed=seed, trace=trace, exit=proc.returncode)
    record["metrics"] = {k: v["value"] for k, v in record["metrics"].items()}
    return record


def run_suite(out: str, spec: Dict[str, Any], runs: int, seed: int, seconds: float) -> int:
    records = []
    for workload in (w["name"] for w in spec["workloads"]):
        for r in range(runs):
            records.append(run_once(workload, seed + r, seconds, 0))
            print(f"{workload} seed {seed + r}: "
                  f"{'ok' if records[-1]['correct'] else 'FAILED'}", flush=True)
        records.append(run_once(workload, seed, seconds, 1))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"meta": {**fingerprint(), "seconds": seconds}, "runs": records},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    print_spreads(records, spec)
    return 0 if all(r["correct"] for r in records) else 1


def _samples(records: List[Dict[str, Any]]) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> one value per untraced run."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for r in records:
        if r["trace"]:
            continue
        values = {**{k: v for k, v in r["extras"].items() if k in EXTRA_BOUNDS},
                  **r["metrics"]}
        for metric, value in values.items():
            out.setdefault((r["workload"], metric), []).append(value)
    return out


def spread(values: List[float]) -> float:
    """Interquartile distance over the median (0 for fewer than two runs)."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def _bounds(spec: Dict[str, Any]) -> Dict[str, Tuple[str, float]]:
    declared = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    return {**EXTRA_BOUNDS, **declared}


def print_spreads(records: List[Dict[str, Any]], spec: Dict[str, Any]) -> None:
    bounds = _bounds(spec)
    print(f"{'workload':<18}{'metric':<28}{'median':>12}{'spread':>9}{'bound':>8}")
    for (workload, metric), values in sorted(_samples(records).items()):
        print(f"{workload:<18}{metric:<28}{statistics.median(values):>12.4f}"
              f"{spread(values):>9.4f}{bounds[metric][1]:>8.2f}")


def compare(path_a: str, path_b: str, spec: Dict[str, Any]) -> int:
    sets = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as fh:
            sets.append(json.load(fh))
    a, b = (_samples(s["runs"]) for s in sets)
    bounds = _bounds(spec)
    print(f"A: {path_a} {sets[0]['meta']}\nB: {path_b} {sets[1]['meta']}")
    print(f"{'workload':<18}{'metric':<28}{'median A':>12}{'median B':>12}"
          f"{'change':>9}{'bound':>7}  verdict")
    worse = 0
    for key in sorted(a.keys() & b.keys()):
        better, bound = bounds[key[1]]
        med_a, med_b = statistics.median(a[key]), statistics.median(b[key])
        change = (med_b - med_a) / abs(med_a) if med_a else float(med_b != med_a)
        regress = change if better == "lower" else -change
        if max(spread(a[key]), spread(b[key])) > bound:
            verdict = "unresolved"
        elif regress > bound:
            verdict = "worse"
            worse += 1
        else:
            verdict = "within"
        print(f"{key[0]:<18}{key[1]:<28}{med_a:>12.4f}{med_b:>12.4f}"
              f"{change:>+9.3f}{bound:>7.2f}  {verdict}")
    mismatched = count_mismatches(sets[0]["runs"], sets[1]["runs"])
    for line in mismatched:
        print(f"COUNT MISMATCH {line}")
    return 1 if worse or mismatched else 0


def _exact(record: Dict[str, Any]) -> Dict[str, Any]:
    return {**record["counts"], "attempted": record["attempted"],
            "positions": record["extras"]["positions_returned"],
            "stored": record["extras"].get("stored_bytes_per_user_byte")}


def count_mismatches(runs_a, runs_b) -> List[str]:
    """Exact counts must agree wherever workload, seed and mode agree."""
    a, b = ({(r["workload"], r["seed"], r["trace"]): _exact(r) for r in runs}
            for runs in (runs_a, runs_b))
    return [f"{key}: {a[key]} != {b[key]}"
            for key in sorted(a.keys() & b.keys()) if a[key] != b[key]]
