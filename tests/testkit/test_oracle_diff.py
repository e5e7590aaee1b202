"""SQLite oracle agreement, the shared tolerance rule, and the fuzz runner."""

import pytest

import repro.testkit.differ as differ_mod
import repro.views.verify as verify_mod
from repro.core.window import sliding
from repro.testkit import SQLITE_WINDOWS_OK, FuzzRunner, diff_paths, sqlite_oracle
from repro.testkit.differ import diff_results
from repro.testkit.generator import CaseGenerator, FuzzCase
from repro.testkit.paths import run_path

pytestmark = pytest.mark.fuzz

needs_sqlite = pytest.mark.skipif(
    not SQLITE_WINDOWS_OK, reason="SQLite < 3.25 has no window functions"
)

GEN = CaseGenerator()


class TestSharedToleranceRule:
    def test_differ_reuses_verify_helper(self):
        # A shared helper, not a copy: the testkit and view verification
        # must agree on what "agrees" means.
        assert differ_mod.values_differ is verify_mod.values_differ

    def test_value_diff_reported(self):
        found = diff_results("sqlite", {(1, 1): 2.0}, "engine", {(1, 1): 3.0})
        assert len(found) == 1
        d = found[0]
        assert (d.key, d.expected, d.got) == ((1, 1), 2.0, 3.0)
        assert d.reference == "sqlite" and d.path == "engine"

    def test_nan_agreement_is_not_a_discrepancy(self):
        nan = float("nan")
        assert diff_results("a", {(1, 1): nan}, "b", {(1, 1): nan}) == []
        assert len(diff_results("a", {(1, 1): nan}, "b", {(1, 1): 0.0})) == 1
        assert len(diff_results("a", {(1, 1): 0.0}, "b", {(1, 1): nan})) == 1

    def test_structural_drift_reported(self):
        ref = {(1, 1): 1.0, (1, 2): 2.0}
        found = diff_results("sqlite", ref, "engine", {(1, 1): 1.0, (2, 9): 5.0})
        details = [d.detail for d in found]
        assert any("missing" in s for s in details)
        assert any("unexpected" in s for s in details)

    def test_diff_paths_requires_reference(self):
        with pytest.raises(KeyError):
            diff_paths({"engine": {(1, 1): 0.0}}, reference="sqlite")

    def test_to_dict_round_trips_key(self):
        d = diff_results("a", {(2, 7): 1.0}, "b", {(2, 7): 9.0})[0]
        assert d.to_dict()["key"] == [2, 7]


@needs_sqlite
class TestSqliteOracle:
    def test_known_tiny_case(self):
        case = FuzzCase(
            seed=0,
            rows=((1, 1, 1.0), (1, 2, 2.0), (1, 3, 3.0)),
            partitioned=True,
            window=sliding(1, 0),
            aggregate_name="SUM",
        )
        assert sqlite_oracle(case) == {(1, 1): 1.0, (1, 2): 3.0, (1, 3): 5.0}

    def test_null_counts_as_zero_everywhere(self):
        # The COALESCE bridge: a NULL measure is 0 for every aggregate,
        # and COUNT is the clipped frame size, not the non-NULL count.
        case = FuzzCase(
            seed=0,
            rows=((1, 1, 5.0), (1, 2, None), (1, 3, -3.0)),
            partitioned=False,
            window=sliding(1, 1),
            aggregate_name="COUNT",
        )
        assert sqlite_oracle(case) == {(1, 1): 2.0, (1, 2): 3.0, (1, 3): 2.0}
        mins = sqlite_oracle(FuzzCase(
            seed=0, rows=case.rows, partitioned=False,
            window=sliding(1, 1), aggregate_name="MIN",
        ))
        assert mins == {(1, 1): 0.0, (1, 2): -3.0, (1, 3): -3.0}

    @pytest.mark.parametrize("seed", range(40))
    def test_core_paths_agree_with_sqlite(self, seed):
        case = GEN.case(seed)
        oracle = sqlite_oracle(case)
        for name in ("naive", "pipelined", "engine"):
            result = run_path(name, case)
            found = diff_results("sqlite", oracle, name, result)
            assert not found, (
                f"{case.describe()} [{name}]: {[d.detail for d in found]}"
            )


TYPE_ROWS = [(3, 2.5, "ab"), (-7, -0.25, None), (0, None, "x")]
# Branch types SQLite reports with typeof() -> the type the engine declares;
# any other mix is a PlanError.
DECLARED = {("integer",): "INTEGER", ("real",): "FLOAT", ("integer", "real"): "FLOAT",
            ("text",): "TEXT"}


@pytest.mark.parametrize("expr", [
    "CASE WHEN i > 0 THEN 'a' ELSE 1 END",
    "CASE WHEN i > 0 THEN s ELSE f END",
    "COALESCE(s, i)",
    "COALESCE(f, s, i)",
    "CASE WHEN i > 0 THEN i ELSE f END",
    "COALESCE(f, i)",
    "CASE WHEN i > 0 THEN s ELSE NULL END",
    "CASE WHEN i > 0 THEN 1 ELSE 2 END",
])
def test_branch_type_rule_matches_sqlite_typeof(expr):
    """A CASE/COALESCE whose values SQLite stores as more than one class
    (INTEGER with REAL aside) is a PlanError; otherwise the declared type
    is the class SQLite reports."""
    import sqlite3

    from repro.errors import PlanError
    from repro.warehouse import DataWarehouse

    con = sqlite3.connect(":memory:")
    con.execute("CREATE TABLE t (i INTEGER, f REAL, s TEXT)")
    con.executemany("INSERT INTO t VALUES (?, ?, ?)", TYPE_ROWS)
    classes = tuple(sorted({kind for (kind,) in con.execute(
        f"SELECT typeof({expr}) FROM t")} - {"null"}))
    wh = DataWarehouse()
    wh.create_table("t", [("i", "INTEGER"), ("f", "FLOAT"), ("s", "TEXT")])
    wh.insert("t", TYPE_ROWS)
    sql = f"SELECT {expr} AS c FROM t"
    if classes not in DECLARED:
        with pytest.raises(PlanError, match="unrelated types"):
            wh.query(sql)
        return
    result = wh.query(sql)
    assert [c.type.name for c in result.schema] == [DECLARED[classes]]
    assert [row[0] for row in result.rows] == [row[0] for row in con.execute(sql)]


@needs_sqlite
class TestFuzzRunner:
    def test_sweep_is_clean_and_echoes_seeds(self, tmp_path):
        corpus = tmp_path / "corpus"
        runner = FuzzRunner(corpus_dir=str(corpus))
        report = runner.run(60, base_seed=0)
        assert report.ok, report.summary()
        assert report.cases_run == 60
        doc = report.to_dict()
        assert doc["base_seed"] == 0 and doc["seeds"] == 60
        assert doc["failing_seeds"] == []
        assert "seeds 0..59" in report.summary()
        assert not corpus.exists(), "a clean run must write no repro files"

    def test_inapplicable_paths_counted_not_dropped(self):
        runner = FuzzRunner(corpus_dir="")
        report = runner.run(40)
        # MIN/MAX cases make MinOA inapplicable, so skips must show up.
        assert report.paths_skipped.get("view-minoa", 0) > 0

    def test_oracle_free_mode_uses_pipelined_reference(self):
        runner = FuzzRunner(
            oracle=None, paths=["naive", "pipelined", "engine"], corpus_dir=""
        )
        report = runner.run(20)
        assert report.ok, report.summary()

    def test_configuration_validated(self):
        with pytest.raises(ValueError, match="unknown paths"):
            FuzzRunner(paths=["nope"])
        with pytest.raises(ValueError, match="oracle"):
            FuzzRunner(oracle="postgres")
        with pytest.raises(ValueError, match="pipelined"):
            FuzzRunner(oracle=None, paths=["naive"])

    def test_check_case_returns_none_when_clean(self):
        runner = FuzzRunner(corpus_dir="")
        assert runner.check_case(GEN.case(3)) is None


@needs_sqlite
@pytest.mark.slow
def test_acceptance_sweep_500_seeds(tmp_path):
    """The CI acceptance criterion: 500 seeds, all relations, zero failures."""
    runner = FuzzRunner(
        corpus_dir=str(tmp_path),
        relations=("shift", "scale", "permutation", "insert_delete"),
    )
    report = runner.run(500, base_seed=0)
    assert report.ok, report.summary()
