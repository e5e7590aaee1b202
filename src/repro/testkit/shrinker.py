"""Delta-debugging shrinker: reduce a failing case to a minimal repro.

Classic ddmin over the dataset rows, then window-bound reduction, then
value simplification — each step re-runs the failure predicate and keeps a
reduction only when the case *still fails*.  The loop repeats to a
fixpoint, so row removal that only becomes possible after a window shrink
is still found.

The predicate is a plain ``Callable[[FuzzCase], bool]`` so the same
shrinker serves oracle diffs, metamorphic failures and fault-injection
discrepancies alike.  Shrinking is deterministic: candidates are tried in
a fixed order and no randomness is involved.
"""

from __future__ import annotations

from typing import Callable, List

from repro.core.window import cumulative, sliding
from repro.testkit.generator import FuzzCase

__all__ = ["PassingCaseError", "shrink_case"]

Predicate = Callable[[FuzzCase], bool]


def _try(case: FuzzCase, fails: Predicate) -> bool:
    """Run the predicate, treating a crashing candidate as "does not fail".

    A reduction that makes the harness itself blow up (e.g. an empty
    dataset, an underivable window) is simply not taken.
    """
    if not case.rows:
        return False
    try:
        return bool(fails(case))
    except Exception:
        return False


def _ddmin_rows(case: FuzzCase, fails: Predicate, *, max_checks: int) -> FuzzCase:
    """Minimize the row set with ddmin (remove chunks, halving granularity)."""
    rows = list(case.rows)
    n_chunks = 2
    checks = 0
    while len(rows) > 1 and checks < max_checks:
        n_chunks = min(n_chunks, len(rows))
        chunk = max(1, len(rows) // n_chunks)
        reduced = False
        for start in range(0, len(rows), chunk):
            candidate = rows[:start] + rows[start + chunk:]
            checks += 1
            if _try(case.with_rows(candidate), fails):
                rows = candidate
                n_chunks = max(n_chunks - 1, 2)
                reduced = True
                break
            if checks >= max_checks:
                break
        if not reduced:
            if n_chunks >= len(rows):
                break
            n_chunks = min(len(rows), n_chunks * 2)
    return case.with_rows(rows)


def _shrink_window(case: FuzzCase, fails: Predicate) -> FuzzCase:
    """Reduce the window toward the smallest frame that still fails."""
    if case.window.is_cumulative:
        # Try the smallest sliding frames as simpler stand-ins.
        for candidate in (sliding(1, 0), sliding(0, 1)):
            if _try(case.with_window(candidate), fails):
                return case.with_window(candidate)
        return case
    current = case.window
    changed = True
    while changed:
        changed = False
        for l, h in ((current.l - 1, current.h), (current.l, current.h - 1)):
            if l < 0 or h < 0 or l + h < 1:
                continue
            candidate = case.with_window(sliding(l, h))
            if _try(candidate, fails):
                current = sliding(l, h)
                case = candidate
                changed = True
                break
    return case


def _simplify_values(case: FuzzCase, fails: Predicate) -> FuzzCase:
    """Replace each measure with the simplest value that keeps the failure."""
    rows = [list(r) for r in case.rows]
    for i, row in enumerate(rows):
        value = row[2]
        candidates: List[object] = [0.0, 1.0]
        if isinstance(value, float) and value != int(value):
            candidates.append(float(int(value)))
        for candidate in candidates:
            if candidate == value:
                continue
            trial = [list(r) for r in rows]
            trial[i][2] = candidate
            if _try(case.with_rows(trial), fails):
                rows = trial
                break
    return case.with_rows(rows)


class PassingCaseError(ValueError):
    """The case handed to :func:`shrink_case` does not fail."""


def shrink_case(
    case: FuzzCase,
    fails: Predicate,
    *,
    max_rounds: int = 8,
    max_checks_per_round: int = 400,
) -> FuzzCase:
    """Reduce ``case`` to a (locally) minimal case that still fails.

    The input case itself must fail the predicate; the result is guaranteed
    to fail it too (every accepted reduction re-ran it).

    Args:
        max_rounds: fixpoint iterations of the row/window/value passes.
        max_checks_per_round: ddmin predicate-evaluation budget per round.

    Raises:
        PassingCaseError: ``case`` passes the predicate.
    """
    if not _try(case, fails):
        raise PassingCaseError(
            f"shrink_case needs a failing case (seed={case.seed} passes the predicate)"
        )
    for _ in range(max_rounds):
        before = (case.rows, case.window)
        case = _ddmin_rows(case, fails, max_checks=max_checks_per_round)
        case = _shrink_window(case, fails)
        case = _simplify_values(case, fails)
        if (case.rows, case.window) == before:
            break
    return case
