"""Multi-OVER case generation and the engine path over it.

The engine path must agree with the SQLite oracle on every case.  The
multi-window case family exercises the window operator's sharing tiers
(sort-cache, dedup, factor derivation) through the same differential
harness.
"""

import pytest

from repro.testkit import CaseGenerator
from repro.testkit.generator import AGGREGATE_NAMES
from repro.testkit.paths import PATHS, run_path
from repro.testkit.runner import FuzzRunner

pytestmark = pytest.mark.fuzz

GEN = CaseGenerator()


def first_multi_case(base_seed=0, limit=300):
    for seed in range(base_seed, base_seed + limit):
        case = GEN.case(seed)
        if case.extra_windows:
            return case
    raise AssertionError(f"no multi-window case in seeds {base_seed}..{base_seed+limit}")


class TestMultiWindowGeneration:
    def test_family_appears_at_default_rate(self):
        cases = GEN.cases(200)
        multi = [c for c in cases if c.extra_windows]
        # multi_over_rate=0.2 over 200 seeds: a wide interval, but never zero.
        assert 10 <= len(multi) <= 90

    def test_base_fields_stable_under_rate(self):
        """Turning the family off must not disturb the classic cases."""
        plain = CaseGenerator(multi_over_rate=0.0)
        for seed in range(120):
            a, b = GEN.case(seed), plain.case(seed)
            assert (a.rows, a.partitioned, a.window, a.aggregate_name) == (
                b.rows, b.partitioned, b.window, b.aggregate_name
            ), f"seed={seed}: base case depends on multi_over_rate"
            assert b.extra_windows == ()

    def test_extra_windows_well_formed(self):
        for case in (c for c in GEN.cases(300) if c.extra_windows):
            assert 1 <= len(case.extra_windows) <= 2
            for agg, window in case.extra_windows:
                assert agg in AGGREGATE_NAMES
                if not window.is_cumulative:
                    assert window.l + window.h >= 1

    def test_sql_emits_every_clause(self):
        case = first_multi_case()
        names = case.window_names
        assert names[0] == "w"
        assert len(names) == 1 + len(case.extra_windows)
        for name in names:
            assert f"AS {name}" in case.sql
        assert f"+{len(case.extra_windows)} extra OVER" in case.describe()

    def test_all_windows_aligns_names_and_clauses(self):
        case = first_multi_case()
        clauses = case.all_windows()
        assert [name for name, _, _ in clauses] == list(case.window_names)
        assert clauses[0][1:] == (case.aggregate_name, case.window)

    def test_corpus_round_trip_preserves_extra_windows(self, tmp_path):
        from repro.testkit.corpus import load_repro, save_repro

        case = first_multi_case()
        path = save_repro(
            case, [], directory=str(tmp_path), paths=["engine", "engine-cost"]
        )
        loaded = load_repro(path)
        assert loaded.case == case
        assert loaded.case.extra_windows == case.extra_windows

    def test_plain_case_serialization_unchanged(self, tmp_path):
        """Single-window repro files must not grow a new key."""
        import json

        from repro.testkit.corpus import save_repro

        case = CaseGenerator(multi_over_rate=0.0).case(3)
        path = save_repro(case, [], directory=str(tmp_path), paths=["engine"])
        with open(path) as fh:
            doc = json.load(fh)
        assert "extra_windows" not in doc["case"]


class TestEngineCostPath:
    def test_registered_as_path(self):
        # Nothing reads statistics, so there is no second planning input
        # for a path of its own to cover: one engine path per storage.
        assert sorted(PATHS) == [
            "engine", "engine-paged", "naive", "pipelined", "vectorized",
            "view-default", "view-maxoa", "view-minoa",
        ]

    def test_agrees_with_oracle(self):
        runner = FuzzRunner(
            paths=["engine", "engine-paged"], relations=(), corpus_dir=None
        )
        report = runner.run(40)
        assert report.ok, report.to_dict()["failures"]
        for path in ("engine", "engine-paged"):
            assert report.path_agreements[path] == {
                "agree": 40, "disagree": 0, "skipped": 0,
            }

    def test_multi_window_case_matches_oracle(self):
        from repro.testkit.differ import diff_results
        from repro.testkit.oracle import sqlite_oracle

        case = first_multi_case()
        for path in ("engine", "engine-paged"):
            got = run_path(path, case)
            assert diff_results("sqlite", sqlite_oracle(case), path, got) == []

    def test_result_keys_carry_column_name(self):
        case = first_multi_case()
        got = run_path("engine", case)
        names = set(case.window_names)
        assert all(len(k) == 3 and k[2] in names for k in got)

    def test_view_paths_skip_multi_window(self):
        case = first_multi_case()
        assert run_path("view-maxoa", case) is None
        assert run_path("view-minoa", case) is None

    def test_relations_skip_multi_window(self):
        from repro.testkit.metamorphic import run_relation

        case = first_multi_case()
        assert run_relation("shift", case) == []

    def test_report_agreements_serialized(self):
        runner = FuzzRunner(paths=["engine"], relations=(), corpus_dir=None)
        doc = runner.run(5).to_dict()
        assert doc["path_agreements"]["engine"] == {
            "agree": 5, "disagree": 0, "skipped": 0,
        }
