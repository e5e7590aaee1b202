"""The fuzz loop behind ``repro fuzz``.

For every seed the runner generates a case, evaluates it on every
configured path plus the oracle, diffs all results, and — on failure —
shrinks the case with delta debugging and writes a replayable repro file
to the corpus.  The JSON report echoes every seed involved so a CI failure
reproduces locally from the report alone::

    repro fuzz --seeds 500 --oracle sqlite --json fuzz_report.json
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.testkit.differ import PathDiscrepancy, diff_paths
from repro.testkit.generator import CaseGenerator, FuzzCase
from repro.testkit.shrinker import PassingCaseError, shrink_case
from repro.views.verify import TOLERANCE

__all__ = ["CaseOutcome", "FuzzReport", "FuzzRunner"]


@dataclass
class CaseOutcome:
    """One failing case, as recorded in the report."""

    seed: int
    description: str
    discrepancies: List[dict]
    shrunk_rows: Optional[int] = None
    shrunk_description: Optional[str] = None
    repro_file: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "description": self.description,
            "discrepancies": self.discrepancies,
            "shrunk_rows": self.shrunk_rows,
            "shrunk_description": self.shrunk_description,
            "repro_file": self.repro_file,
        }


@dataclass
class FuzzReport:
    """Outcome of one fuzz run (JSON-serializable)."""

    base_seed: int
    seeds: int
    paths: List[str]
    oracle: Optional[str]
    relations: List[str]
    cases_run: int = 0
    paths_skipped: Dict[str, int] = field(default_factory=dict)
    # Per-path parity: {"path": {"agree": n, "disagree": n, "skipped": n}}
    # against the run's reference — the planner-parity artifact CI uploads.
    path_agreements: Dict[str, Dict[str, int]] = field(default_factory=dict)
    failures: List[CaseOutcome] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILING SEEDS"
        skipped = sum(self.paths_skipped.values())
        return (
            f"fuzz: {self.cases_run} cases (seeds {self.base_seed}.."
            f"{self.base_seed + self.seeds - 1}), paths {'+'.join(self.paths)}"
            + (f", oracle {self.oracle}" if self.oracle else "")
            + (f", {skipped} path runs skipped" if skipped else "")
            + f", {self.elapsed:.1f}s: {status}"
        )

    def to_dict(self) -> dict:
        return {
            "base_seed": self.base_seed,
            "seeds": self.seeds,
            "paths": self.paths,
            "oracle": self.oracle,
            "relations": self.relations,
            "cases_run": self.cases_run,
            "paths_skipped": self.paths_skipped,
            "path_agreements": self.path_agreements,
            "failing_seeds": [f.seed for f in self.failures],
            "failures": [f.to_dict() for f in self.failures],
            "elapsed": self.elapsed,
            "ok": self.ok,
        }


class FuzzRunner:
    """Differential fuzzer: generate, evaluate everywhere, diff, shrink.

    Args:
        paths: internal paths to run (:data:`repro.testkit.paths.PATHS`).
        oracle: ``"sqlite"`` or None (diff internal paths against each
            other, with ``pipelined`` as the reference).
        relations: metamorphic relations to check per case (may be empty).
        generator: case factory; defaults to :class:`CaseGenerator`.
        corpus_dir: where shrunk repro files are written (None disables).
        tolerance: value comparison tolerance (shared default with verify).
    """

    def __init__(
        self,
        *,
        paths: Optional[Sequence[str]] = None,
        oracle: Optional[str] = "sqlite",
        relations: Sequence[str] = (),
        generator: Optional[CaseGenerator] = None,
        corpus_dir: Optional[str] = None,
        tolerance: float = TOLERANCE,
        shrink: bool = True,
    ) -> None:
        from repro.testkit.corpus import DEFAULT_CORPUS_DIR
        from repro.testkit.paths import DEFAULT_PATHS, PATHS

        self.paths = list(paths if paths is not None else DEFAULT_PATHS)
        unknown = [p for p in self.paths if p not in PATHS]
        if unknown:
            raise ValueError(f"unknown paths {unknown}; expected among {sorted(PATHS)}")
        if oracle not in (None, "sqlite"):
            raise ValueError(f"unknown oracle {oracle!r}; expected 'sqlite' or None")
        if oracle is None and "pipelined" not in self.paths:
            raise ValueError("without an oracle the 'pipelined' path must be "
                             "included to serve as the reference")
        self.oracle = oracle
        self.relations = list(relations)
        self.generator = generator or CaseGenerator()
        self.corpus_dir = corpus_dir if corpus_dir is not None else DEFAULT_CORPUS_DIR
        self.tolerance = tolerance
        self.shrink = shrink
        self._skipped: Dict[str, int] = {}
        self._agreements: Dict[str, Dict[str, int]] = {}

    # -- single case --------------------------------------------------------

    def run_case(self, case: FuzzCase, *, count_skips: bool = False) -> List[PathDiscrepancy]:
        """All discrepancies for one case (paths + oracle + relations)."""
        from repro.testkit.metamorphic import run_relations
        from repro.testkit.oracle import sqlite_oracle
        from repro.testkit.paths import run_path

        results = {}
        for name in self.paths:
            result = run_path(name, case)
            if result is None:
                if count_skips:
                    self._skipped[name] = self._skipped.get(name, 0) + 1
                continue
            results[name] = result
        if self.oracle == "sqlite":
            results["sqlite"] = sqlite_oracle(case)
            reference = "sqlite"
        else:
            reference = "pipelined"
        found = diff_paths(results, reference=reference, tolerance=self.tolerance)
        if count_skips:
            disagreeing = {d.path for d in found}
            for name in results:
                if name == reference:
                    continue
                bucket = self._agreements.setdefault(
                    name, {"agree": 0, "disagree": 0}
                )
                bucket["disagree" if name in disagreeing else "agree"] += 1
        if self.relations:
            found.extend(run_relations(case, self.relations))
        return found

    def fails(self, case: FuzzCase) -> bool:
        """The shrinker's predicate: does this case still show a discrepancy?"""
        return bool(self.run_case(case))

    def check_case(self, case: FuzzCase) -> Optional[CaseOutcome]:
        """Push one externally supplied case through the full pipeline.

        Diffs the case on every path (plus oracle and relations); on failure
        it is shrunk and written to the corpus exactly as a fuzzed case would
        be.  Returns None when the case is clean.
        """
        found = self.run_case(case)
        if not found:
            return None
        return self._record_failure(case, found)

    # -- the loop -----------------------------------------------------------

    def run(
        self,
        seeds: int,
        *,
        base_seed: int = 0,
        progress=None,
    ) -> FuzzReport:
        """Fuzz ``seeds`` consecutive seeds starting at ``base_seed``.

        Args:
            progress: optional callable ``(i, case)`` invoked before each
                case (the CLI uses it for a live line).
        """
        self._skipped = {}
        self._agreements = {}
        report = FuzzReport(
            base_seed=base_seed,
            seeds=seeds,
            paths=list(self.paths),
            oracle=self.oracle,
            relations=list(self.relations),
        )
        start = time.perf_counter()
        for i in range(seeds):
            case = self.generator.case(base_seed + i)
            if progress is not None:
                progress(i, case)
            found = self.run_case(case, count_skips=True)
            report.cases_run += 1
            if found:
                report.failures.append(self._record_failure(case, found))
        report.paths_skipped = dict(sorted(self._skipped.items()))
        report.path_agreements = {
            name: {
                "agree": self._agreements.get(name, {}).get("agree", 0),
                "disagree": self._agreements.get(name, {}).get("disagree", 0),
                "skipped": self._skipped.get(name, 0),
            }
            for name in self.paths
        }
        report.elapsed = time.perf_counter() - start
        return report

    def _record_failure(
        self, case: FuzzCase, found: List[PathDiscrepancy]
    ) -> CaseOutcome:
        outcome = CaseOutcome(
            seed=case.seed,
            description=case.describe(),
            discrepancies=[d.to_dict() for d in found],
        )
        shrunk = case
        if self.shrink:
            try:
                shrunk = shrink_case(case, self.fails)
            except PassingCaseError:
                # A randomized fault (a bitflip of a slot this evaluation
                # does not read) need not fire again: keep the case found.
                shrunk = case
            outcome.shrunk_rows = len(shrunk.rows)
            outcome.shrunk_description = shrunk.describe()
        if self.corpus_dir:
            from repro.testkit.corpus import save_repro

            # Prefer discrepancies re-observed on the shrunk case; fall back
            # to the original ones (a randomized fault may not re-fire
            # identically on any single evaluation).
            recorded = (self.run_case(shrunk) or found) if self.shrink else found
            outcome.repro_file = save_repro(
                shrunk,
                recorded,
                directory=self.corpus_dir,
                paths=self.paths,
                oracle=self.oracle,
                relations=self.relations,
                note=f"found by fuzzing at seed {case.seed}, shrunk from "
                     f"{len(case.rows)} rows",
            )
        return outcome
