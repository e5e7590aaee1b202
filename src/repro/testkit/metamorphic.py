"""Metamorphic relations: oracle-free correctness checks.

Each relation transforms a case's dataset in a way whose effect on the
output is known *exactly* from the window model, then checks the engine's
answers track it.  None of them needs SQLite — they guard the suite even
where no external oracle exists (and they catch bugs an oracle shared by
all paths would miss, e.g. a wrong NULL rule applied consistently).

NULL note: the engine's semantics make an absent measure count as 0, so
every transformation first *materializes* that rule (``val or 0``) before
transforming — otherwise a window containing NULLs would shift by less
than ``c`` and the relation would be wrong, not the engine.

Relations (over the engine path unless stated):

``shift``        ``x -> x + c``: SUM shifts by ``c·W(k)`` (W from the COUNT
                 path), MIN/MAX/AVG shift by ``c``, COUNT is invariant.
``scale``        ``x -> a·x`` with ``a < 0``: SUM/AVG scale by ``a``,
                 COUNT is invariant, MIN and MAX swap roles.
``permutation``  permuting the *input row order* (and partition labels'
                 insert order) never changes any output value.
``insert_delete``  inserting a row into a maintained view and deleting it
                 again is the identity on the view (maintenance §2.3).
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Callable, Dict, List

from repro.testkit.differ import PathDiscrepancy, diff_results
from repro.testkit.generator import FuzzCase
from repro.testkit.paths import run_path
from repro.views.verify import values_differ

__all__ = ["RELATIONS", "run_relation", "run_relations"]


def _normalized_rows(case: FuzzCase):
    """Dataset rows with the NULL-counts-as-0 rule applied."""
    return [(g, pos, 0.0 if v is None else float(v)) for g, pos, v in case.rows]


def relation_shift(case: FuzzCase, path: str = "engine") -> List[PathDiscrepancy]:
    """``x -> x + c``: SUM moves by ``c·W(k)``, MIN/MAX/AVG by ``c``,
    COUNT not at all."""
    c = 7.5
    base = run_path(path, case) or {}
    counts = run_path(path, replace(case, aggregate_name="COUNT")) or {}
    shifted_case = case.with_rows(
        [(g, pos, v + c) for g, pos, v in _normalized_rows(case)]
    )
    got = run_path(path, shifted_case) or {}
    if case.aggregate_name == "SUM":
        expected = {k: v + c * counts[k] for k, v in base.items()}
    elif case.aggregate_name == "COUNT":
        expected = dict(base)
    else:  # AVG, MIN, MAX all shift by exactly c
        expected = {k: v + c for k, v in base.items()}
    return diff_results("meta:shift", expected, path, got)


def relation_scale(case: FuzzCase, path: str = "engine") -> List[PathDiscrepancy]:
    """``x -> a·x`` with ``a < 0``: SUM/AVG scale linearly, COUNT is
    invariant, and MIN/MAX swap roles (``MIN(a·x) = a·MAX(x)``)."""
    a = -2.0
    scaled_case = case.with_rows(
        [(g, pos, a * v) for g, pos, v in _normalized_rows(case)]
    )
    got = run_path(path, scaled_case) or {}
    if case.aggregate_name == "COUNT":
        expected = dict(run_path(path, case) or {})
    elif case.aggregate_name in ("MIN", "MAX"):
        # Negative scaling swaps the extremes: MIN(a·x) = a·MAX(x) for a < 0.
        dual = "MAX" if case.aggregate_name == "MIN" else "MIN"
        expected = {
            k: a * v
            for k, v in (run_path(path, replace(case, aggregate_name=dual)) or {}).items()
        }
    else:  # SUM, AVG are linear
        expected = {k: a * v for k, v in (run_path(path, case) or {}).items()}
    return diff_results("meta:scale", expected, path, got)


def relation_permutation(case: FuzzCase, path: str = "engine") -> List[PathDiscrepancy]:
    """Permuting the input row order never changes any output value."""
    base = run_path(path, case) or {}
    shuffled = list(case.rows)
    random.Random(case.seed ^ 0x5EED).shuffle(shuffled)
    got = run_path(path, case.with_rows(shuffled)) or {}
    return diff_results("meta:permutation", base, path, got)


def relation_insert_delete(case: FuzzCase, path: str = "engine") -> List[PathDiscrepancy]:
    """Insert then delete a row on a *maintained* view: identity.

    Exercises the incremental maintenance rules (§2.3) end to end: the view
    is materialized once, a fresh row is propagated in and back out, and
    the storage table must match the original slot for slot (tolerance
    rule shared with verify).
    """
    from repro.relational import FLOAT, INTEGER
    from repro.warehouse import DataWarehouse

    agg = "SUM" if case.aggregate_name == "AVG" else case.aggregate_name
    wh = DataWarehouse()
    wh.create_table("t", [("g", INTEGER), ("pos", INTEGER), ("val", FLOAT)])
    rows = _normalized_rows(case)
    wh.insert("t", rows)
    over = "PARTITION BY g ORDER BY pos" if case.partitioned else "ORDER BY pos"
    view = wh.create_view(
        "tk_meta_mv",
        f"SELECT {'g, ' if case.partitioned else ''}pos, {agg}(val) "
        f"OVER ({over} {case.window.to_frame_sql()}) AS w FROM t",
    )

    def snapshot() -> Dict[tuple, float]:
        table = wh.db.table(view.definition.storage_table)
        return {(slot, *row[:-1]): float(row[-1]) for slot, row in enumerate(table.rows)}

    before = snapshot()
    new_pos = max(r[1] for r in rows) + 1
    new_g = rows[0][0]
    wh.insert_row("t", (new_g, new_pos, 123.25))
    wh.delete_row("t", keys={"g": new_g, "pos": new_pos})
    after = snapshot()
    out = diff_results("meta:insert_delete", before, "maintained-view", after)
    for name, report in wh.verify(quarantine=False).items():
        for d in report.discrepancies:
            out.append(PathDiscrepancy(
                "meta:insert_delete", "maintained-view", None, None, None,
                f"verify({name}) after insert+delete: {d.detail}"))
    return out


RELATIONS: Dict[str, Callable[..., List[PathDiscrepancy]]] = {
    "shift": relation_shift,
    "scale": relation_scale,
    "permutation": relation_permutation,
    "insert_delete": relation_insert_delete,
}


def run_relation(name: str, case: FuzzCase, *, path: str = "engine") -> List[PathDiscrepancy]:
    """Check one named relation for ``case``; returns its discrepancies.

    Multi-window cases are skipped: each relation's expected transform is
    stated for the case's *base* aggregate, and the extra OVER clauses
    (possibly different aggregates) would not follow it.
    """
    try:
        fn = RELATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown metamorphic relation {name!r}; expected one of {sorted(RELATIONS)}"
        ) from None
    if case.extra_windows:
        return []
    return fn(case, path)


def run_relations(case: FuzzCase, names=tuple(RELATIONS), *, path: str = "engine"):
    """Run several relations; returns all discrepancies found."""
    out: List[PathDiscrepancy] = []
    for name in names:
        out.extend(run_relation(name, case, path=path))
    return out
