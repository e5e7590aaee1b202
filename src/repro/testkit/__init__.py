"""Differential testing and fuzzing subsystem.

The paper's value proposition is that every evaluation strategy — the
explicit (naive) form, the pipelined form (§2.2), the relational mapping
(fig. 2), paged execution, and view-derived plans via MaxOA/MinOA
(§4-§5) — returns the *same* answer.  This package turns that claim into a
standing harness:

* :mod:`~repro.testkit.generator` — seeded random reporting-function
  queries plus datasets (NULLs, ties, tiny partitions, negative values);
* :mod:`~repro.testkit.oracle` — an external oracle running the same query
  through the stdlib ``sqlite3`` module (native window functions);
* :mod:`~repro.testkit.paths` — every internal execution path as a
  uniform ``case -> {row_key: value}`` function;
* :mod:`~repro.testkit.differ` — cross-path comparison with the tolerance
  rules shared with :mod:`repro.views.verify`;
* :mod:`~repro.testkit.metamorphic` — metamorphic relations that need no
  oracle at all (shift, scale, permutation, insert/delete identity);
* :mod:`~repro.testkit.shrinker` — delta-debugging reduction of a failing
  case to a minimal dataset + query;
* :mod:`~repro.testkit.corpus` — replayable repro files under
  ``tests/testkit/corpus/``;
* :mod:`~repro.testkit.runner` — the fuzz loop behind ``repro fuzz``.

Every future optimization PR must keep ``repro fuzz --seeds N --oracle
sqlite`` clean; any failure it ever finds arrives pre-shrunk and replayable.
"""

from repro.testkit.corpus import ReproFile, load_repro, replay_file, save_repro
from repro.testkit.differ import PathDiscrepancy, diff_paths
from repro.testkit.generator import CaseGenerator, FuzzCase
from repro.testkit.oracle import SQLITE_WINDOWS_OK, sqlite_oracle
from repro.testkit.paths import PATHS, run_path, run_paths
from repro.testkit.runner import FuzzReport, FuzzRunner
from repro.testkit.shrinker import shrink_case

__all__ = [
    "CaseGenerator",
    "FuzzCase",
    "FuzzReport",
    "FuzzRunner",
    "PATHS",
    "PathDiscrepancy",
    "ReproFile",
    "SQLITE_WINDOWS_OK",
    "diff_paths",
    "load_repro",
    "replay_file",
    "run_path",
    "run_paths",
    "save_repro",
    "shrink_case",
    "sqlite_oracle",
]
