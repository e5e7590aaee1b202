"""View advisor: which reporting-function view should be materialized?

The paper's introduction places view derivation inside the classical
materialized-view-design loop ([2], [9] in its references): a warehouse
proposes views so that the expected query workload is answered cheaply.
This module closes that loop for sequence views: given a weighted workload
of window shapes, it enumerates candidate view windows, costs each query
under the derivation planner (:mod:`repro.core.derivation`), and ranks the
candidates.

Cost model (per query, sequence length normalised to n=1000):

* answered by derivation — the planner's ``estimated_lookups`` (identity ≈
  n; MaxOA/MinOA ≈ n²/Wx; reductions likewise);
* not derivable (e.g. a wider MIN/MAX window) — a configurable
  ``fallback_cost`` representing recomputation from base data, or candidate
  disqualification when ``fallback_cost=None``.

The advisor is deliberately workload-driven and transparent: every
recommendation carries its per-query plan so the DBA can audit the choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.derivation import plan as derivation_plan
from repro.core.window import WindowSpec, cumulative, sliding
from repro.errors import DerivationError

__all__ = ["WorkloadQuery", "QueryPlanCost", "Recommendation", "candidate_windows", "recommend"]


@dataclass(frozen=True)
class WorkloadQuery:
    """One window shape in the expected workload.

    Attributes:
        window: the requested window.
        weight: relative frequency/importance (default 1).
        minmax: True when the query uses MIN/MAX (restricts derivability).
    """

    window: WindowSpec
    weight: float = 1.0
    minmax: bool = False

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"query weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class QueryPlanCost:
    """How one workload query would be answered from a candidate view."""

    query: WorkloadQuery
    algorithm: str  # planner algorithm, or "fallback"
    cost: float     # weighted


@dataclass(frozen=True)
class Recommendation:
    """A candidate view window with its audited workload cost.

    Attributes:
        window: the view window to materialize.
        total_cost: sum of weighted per-query costs (lower is better).
        covered: number of workload queries answerable by derivation.
        per_query: the audit trail.
    """

    window: WindowSpec
    total_cost: float
    covered: int
    per_query: Tuple[QueryPlanCost, ...] = field(default=())

    def describe(self) -> str:
        lines = [
            f"materialize {self.window}: total weighted cost "
            f"{self.total_cost:.0f}, covers {self.covered}/{len(self.per_query)} queries"
        ]
        for pq in self.per_query:
            lines.append(
                f"  {pq.query.window} (w={pq.query.weight:g}) -> "
                f"{pq.algorithm} [{pq.cost:.0f}]"
            )
        return "\n".join(lines)


def candidate_windows(workload: Sequence[WorkloadQuery]) -> List[WindowSpec]:
    """Candidate view windows for a workload.

    Candidates: each query's own window; the *envelope* (max l, max h — can
    serve narrower MIN/MAX windows only via MaxOA when close enough, SUM
    always via MinOA); the *core* (min l, min h — everything else derives by
    widening); and the cumulative window (prefix sums answer any SUM window
    per fig. 5).
    """
    sliding_windows = [q.window for q in workload if q.window.is_sliding]
    seen = []

    def add(w: WindowSpec) -> None:
        if w not in seen:
            seen.append(w)

    for q in workload:
        add(q.window)
    if sliding_windows:
        max_l = max(w.l for w in sliding_windows)
        max_h = max(w.h for w in sliding_windows)
        min_l = min(w.l for w in sliding_windows)
        min_h = min(w.h for w in sliding_windows)
        if max_l + max_h > 0:
            add(sliding(max_l, max_h))
        if min_l + min_h > 0:
            add(sliding(min_l, min_h))
    add(cumulative())
    return seen


def _query_cost(
    candidate: WindowSpec,
    query: WorkloadQuery,
    fallback_cost: Optional[float],
    row_count: Optional[int],
) -> Optional[QueryPlanCost]:
    try:
        dplan = derivation_plan(candidate, query.window, minmax=query.minmax)
        # With statistics, the explicit form's formula at the real length
        # instead of the normalised n=1000 ranking number.
        lookups = (
            dplan.explicit_lookups(row_count) * row_count
            if row_count is not None
            else dplan.estimated_lookups
        )
        return QueryPlanCost(query, dplan.algorithm, lookups * query.weight)
    except DerivationError:
        if fallback_cost is None:
            return None
        if row_count is not None:
            # Statistics-informed fallback: recomputing from base data costs
            # one scan + sort + window pass over the real table.
            from repro.stats.cost import CostModel

            cm = CostModel()
            n = float(row_count)
            fallback_cost = (
                cm.scan_cost(n) + cm.sort_cost(n) + cm.window_cost(n)
            )
        return QueryPlanCost(query, "fallback", fallback_cost * query.weight)


def recommend(
    workload: Sequence[WorkloadQuery],
    *,
    top: int = 3,
    fallback_cost: Optional[float] = 5_000_000.0,
    row_count: Optional[int] = None,
) -> List[Recommendation]:
    """Rank candidate view windows for the workload, best first.

    Args:
        top: number of recommendations to return.
        fallback_cost: cost charged for queries the candidate cannot serve
            (None = such candidates are disqualified entirely).
        row_count: actual base-sequence length from table statistics; when
            given, per-query costs are evaluated at this length (and the
            fallback is priced as a real base recompute) instead of the
            normalised n=1000 ranking numbers.

    Raises:
        ValueError: on an empty workload.
    """
    if not workload:
        raise ValueError("the advisor needs a non-empty workload")
    out: List[Recommendation] = []
    for candidate in candidate_windows(workload):
        per_query: List[QueryPlanCost] = []
        disqualified = False
        for query in workload:
            cost = _query_cost(candidate, query, fallback_cost, row_count)
            if cost is None:
                disqualified = True
                break
            per_query.append(cost)
        if disqualified:
            continue
        covered = sum(1 for pq in per_query if pq.algorithm != "fallback")
        out.append(
            Recommendation(
                candidate,
                sum(pq.cost for pq in per_query),
                covered,
                tuple(per_query),
            )
        )
    out.sort(key=lambda r: (r.total_cost, str(r.window)))
    return out[:top]
