"""Smoke test of the end-to-end benchmark (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Every workload runs at 1/20 of its op counts: twice untraced with one
seed, once traced with another.  The traced run is given four times the
seconds, because it measures a quarter of the ops, so all three runs have
the same op counts.
"""

from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from suite import run_once  # noqa: E402

with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Layers that must report time on a workload: one going dark means a patch
# in tracing.TABLE no longer reaches the code that runs.
MUST_MOVE = {
    "scan_native": ["serve.protocol_self_ms", "sql.parse_self_ms", "sql.plan_self_ms",
                    "relational.run_self_ms", "core.kernel_self_ms"],
    "derive_views": ["serve.protocol_self_ms", "sql.rewrite_self_ms", "views.match_self_ms",
                     "core.derive_self_ms", "relational.run_self_ms",
                     "views.route_relational_ratio", "warehouse.rewrite_hit_ratio"],
    "maintain_durable": ["serve.commit_self_ms", "views.maintain_self_ms",
                         "core.maintain_self_ms", "replicate.wal_append_self_ms",
                         "replicate.digest_self_ms", "replicate.ship_self_ms",
                         "replicate.replica_apply_ms", "replicate.fsyncs_per_write",
                         "replicate.replay_ms_per_record", "relational.persist_save_ms"],
    "paged_mixed": ["storage.fault_in_self_ms", "storage.pages_read_per_op",
                    "storage.evictions_per_op", "storage.decode_us_per_page",
                    "storage.rows_per_page", "relational.persist_load_ms"],
}


@pytest.fixture(scope="module")
def results():
    jobs = [(w, seed, seconds, trace)
            for w in WORKLOADS
            for seed, seconds, trace in ((1, 1, 0), (1, 1, 0), (2, 4, 1))]
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        records = list(pool.map(lambda job: run_once(*job), jobs))
    return {w: records[3 * i: 3 * i + 3] for i, w in enumerate(WORKLOADS)}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_runs_are_correct_and_match_the_declared_schema(results, workload):
    first, second, traced = results[workload]
    for record in (first, second, traced):
        assert record["exit"] == 0 and record["correct"] and record["failed"] == 0
    assert list(first["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert all(v > 0 for v in first["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_and_seed_changes_inputs_only(results, workload):
    first, second, traced = results[workload]
    assert first["counts"] == second["counts"]
    assert first["attempted"] == second["attempted"]
    assert first["extras"]["positions_returned"] == second["extras"]["positions_returned"]
    assert first["inputs_sha"] == second["inputs_sha"]
    assert traced["inputs_sha"] != first["inputs_sha"]
    assert traced["attempted"] == first["attempted"]
    for key in ("ops_read", "ops_write", "ops_checkpoint"):
        assert traced["counts"][key] == first["counts"][key]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_time_is_attributed_and_layers_are_lit(results, workload):
    layers = results[workload][2]["metrics"]
    assert layers["bench.attributed_share"] >= 0.9
    assert layers["parallel.tasks_per_op"] == 0
    for name in MUST_MOVE[workload]:
        assert layers[name] > 0, name
    if workload != "paged_mixed":
        assert not any(v for k, v in layers.items() if k.startswith("storage."))
    if workload == "scan_native":
        assert layers["warehouse.rewrite_hit_ratio"] == 0
