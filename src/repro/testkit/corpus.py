"""Replayable repro files.

Every failure the fuzzer finds is written — already shrunk — to a small
JSON file that contains everything needed to reproduce it: the dataset,
the query, the paths and oracle that disagreed, the fault plan that was
armed (if any), and the generating seed.  The checked-in corpus under
``tests/testkit/corpus/`` is replayed by the regression suite, so a bug
found by fuzzing once is guarded forever.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.window import WindowSpec, cumulative, sliding
from repro.testkit.differ import PathDiscrepancy
from repro.testkit.generator import FuzzCase

__all__ = ["ReproFile", "save_repro", "load_repro", "replay_file", "replay"]

FORMAT = 1

# Default on-disk home of fuzzer-found repros (relative to the repo root).
DEFAULT_CORPUS_DIR = os.path.join("tests", "testkit", "corpus")


def _window_to_dict(window: WindowSpec) -> dict:
    return {"kind": window.kind, "l": window.l, "h": window.h}


def _window_from_dict(doc: dict) -> WindowSpec:
    if doc["kind"] == "cumulative":
        return cumulative()
    return sliding(doc["l"], doc["h"], allow_point=True)


@dataclass
class ReproFile:
    """In-memory form of one corpus entry."""

    case: FuzzCase
    paths: Tuple[str, ...]
    oracle: Optional[str] = "sqlite"
    relations: Tuple[str, ...] = ()
    fault_specs: Tuple[dict, ...] = ()
    fault_seed: int = 0
    discrepancies: List[dict] = field(default_factory=list)
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "format": FORMAT,
            "seed": self.case.seed,
            "note": self.note,
            "case": {
                "rows": [list(r) for r in self.case.rows],
                "partitioned": self.case.partitioned,
                "window": _window_to_dict(self.case.window),
                "aggregate": self.case.aggregate_name,
                # Optional key: only multi-window cases carry it, so older
                # corpus files (and readers) are unaffected.
                **(
                    {
                        "extra_windows": [
                            [agg, _window_to_dict(win)]
                            for agg, win in self.case.extra_windows
                        ]
                    }
                    if self.case.extra_windows
                    else {}
                ),
            },
            "paths": list(self.paths),
            "oracle": self.oracle,
            "relations": list(self.relations),
            "faults": (
                {"seed": self.fault_seed, "specs": list(self.fault_specs)}
                if self.fault_specs
                else None
            ),
            "discrepancies": self.discrepancies,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ReproFile":
        if doc.get("format") != FORMAT:
            raise ValueError(
                f"unsupported repro file format {doc.get('format')!r} "
                f"(this build reads format {FORMAT})"
            )
        c = doc["case"]
        case = FuzzCase(
            seed=doc["seed"],
            rows=tuple(tuple(r) for r in c["rows"]),
            partitioned=c["partitioned"],
            window=_window_from_dict(c["window"]),
            aggregate_name=c["aggregate"],
            extra_windows=tuple(
                (agg, _window_from_dict(win))
                for agg, win in c.get("extra_windows", ())
            ),
        )
        faults = doc.get("faults") or {}
        return cls(
            case=case,
            paths=tuple(doc["paths"]),
            oracle=doc.get("oracle"),
            relations=tuple(doc.get("relations", ())),
            fault_specs=tuple(faults.get("specs", ())),
            fault_seed=faults.get("seed", 0),
            discrepancies=list(doc.get("discrepancies", ())),
            note=doc.get("note", ""),
        )


def _active_fault_state() -> Tuple[Tuple[dict, ...], int]:
    """Capture the currently armed fault plan, if any, for the repro file."""
    from repro.faults import injector

    plan = injector.active_plan()
    if plan is None:
        return (), 0
    specs = tuple(
        {
            "kind": s.kind,
            "target": s.target,
            "at": s.at,
            "times": s.times,
            "point": s.point,
        }
        for s in plan.specs
    )
    return specs, plan.seed


def save_repro(
    case: FuzzCase,
    discrepancies: Sequence[PathDiscrepancy],
    *,
    directory: str = DEFAULT_CORPUS_DIR,
    paths: Sequence[str],
    oracle: Optional[str] = "sqlite",
    relations: Sequence[str] = (),
    note: str = "",
) -> str:
    """Write one repro file; returns its path.

    The file name is derived from the seed plus a content hash, so distinct
    failures from the same seed never overwrite each other, while re-saving
    the identical repro is idempotent.
    """
    specs, fault_seed = _active_fault_state()
    doc = ReproFile(
        case=case,
        paths=tuple(paths),
        oracle=oracle,
        relations=tuple(relations),
        fault_specs=specs,
        fault_seed=fault_seed,
        discrepancies=[d.to_dict() for d in discrepancies],
        note=note,
    ).to_dict()
    body = json.dumps(doc, indent=2, sort_keys=True)
    digest = hashlib.sha1(
        json.dumps(doc["case"], sort_keys=True).encode()
    ).hexdigest()[:10]
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"repro_seed{case.seed}_{digest}.json")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(body + "\n")
    os.replace(tmp, path)
    return path


def load_repro(path: str) -> ReproFile:
    """Read one repro file back into its in-memory form."""
    with open(path, encoding="utf-8") as fh:
        return ReproFile.from_dict(json.load(fh))


def replay(repro: ReproFile) -> List[PathDiscrepancy]:
    """Re-run a repro: paths, oracle, relations, under its fault plan.

    Returns every discrepancy found now (an empty list means the underlying
    bug is fixed).  If the repro recorded a fault plan and none is active, a
    fresh plan with the recorded seed/specs is armed for the duration.
    """
    from contextlib import nullcontext

    from repro.faults import FaultPlan, FaultSpec, injector
    from repro.testkit.differ import diff_paths
    from repro.testkit.metamorphic import run_relations
    from repro.testkit.oracle import sqlite_oracle
    from repro.testkit.paths import run_paths

    if repro.fault_specs and injector.active_plan() is None:
        plan = FaultPlan(
            [FaultSpec(**spec) for spec in repro.fault_specs],
            seed=repro.fault_seed,
        )
        ctx = injector.active(plan)
    else:
        ctx = nullcontext()
    with ctx:
        results = run_paths(repro.case, repro.paths)
        reference = "pipelined" if "pipelined" in results else repro.paths[0]
        if repro.oracle == "sqlite":
            results["sqlite"] = sqlite_oracle(repro.case)
            reference = "sqlite"
        found = diff_paths(results, reference=reference)
        if repro.relations:
            found.extend(run_relations(repro.case, repro.relations))
    return found


def replay_file(path: str) -> List[PathDiscrepancy]:
    """Load and replay one corpus file."""
    return replay(load_repro(path))
