"""Derivation planner: choose and apply a derivation algorithm (sections 3-5).

Given a materialized sequence view and a requested target window, this
module decides *whether* and *how* the target is derivable, produces an
explainable :class:`DerivationPlan`, and executes it.  It is the core-level
analogue of the SQL rewriter in :mod:`repro.sql.rewriter`.

Decision procedure (mirrors the paper's sections):

==========================  ======================================  =========
view window                 target window                           algorithm
==========================  ======================================  =========
any                         same window                             identity
cumulative                  cumulative                              identity
cumulative                  sliding ``(l, h)``                      ``cumulative`` (fig. 5)
cumulative                  point ``(0,0)`` (raw data)              ``cumulative`` (fig. 4)
sliding                     point ``(0,0)`` (raw data)              ``reconstruct`` (§3.2)
sliding ``(lx,hx)``         sliding, ``Δl,Δh >= 0``, ``<= Wx``      MaxOA or MinOA
sliding ``(lx,hx)``         sliding, some ``Δ < 0``                 MinOA only
sliding                     cumulative                              prefix tiling (MinOA variant)
==========================  ======================================  =========

MIN/MAX views restrict the choice to MaxOA; SUM/COUNT defaults to the
cheaper algorithm by estimated lookup count (MinOA is roughly half of
MaxOA — the paper's "theoretically more economical"), overridable with
``algorithm=``.

:func:`derive` returns ``[ỹ_1 .. ỹ_n]`` as a read-only float64 array,
whichever algorithm runs: an identity hit is a zero-copy view of
:meth:`~repro.core.complete.CompleteSequence.span`, every other algorithm
one whole-sequence NumPy kernel.  It serves every caller that answers: the
rewriter's query route and ``DataWarehouse.value_at``, whose point read is
``derive(...)[k - 1]`` and so has the query route's bits.
:func:`derive_at` returns ``ỹ_k`` alone by the same algorithm's explicit
per-position form (``maxoa.derive_at``, ``minoa.derive_at``,
``reconstruct.*_at_*`` or :func:`prefix_up_to`): O(k/Wx) ``value()``
calls, the relational pattern's cost profile.  No production path calls
it; it is Ablation C's subject and the tests' independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core import maxoa, minoa, reconstruct
from repro.core.complete import CompleteSequence, frozen, strided_cumsum
from repro.core.window import WindowSpec
from repro.errors import DerivationError

__all__ = ["DerivationPlan", "plan", "derive", "derive_at", "derivable", "prefix_up_to"]


def prefix_up_to(seq: CompleteSequence, j: int) -> float:
    """Raw prefix sum ``Σ_{i<=j} x_i`` reconstructed from a complete sequence.

    For cumulative views this is simply ``x̃_j``; for sliding views it is the
    MinOA *positive sequence* with its head right-justified at ``j``
    (section 5).  This single primitive makes any interval sum — and hence
    any variable-window derivation such as section 6's ordering reduction —
    computable from the materialized view alone.

    Raises:
        DerivationError: for non-invertible (MIN/MAX) views.
    """
    if not seq.aggregate.invertible:
        raise DerivationError(
            f"prefix sums require SUM/COUNT views, got {seq.aggregate.name}"
        )
    if seq.window.is_cumulative:
        return seq.value(j)
    hx = seq.window.h
    period = seq.window.width
    total = 0.0
    pos = j - hx
    while pos >= 1 - hx:
        total += seq.value(pos)
        pos -= period
    return total


@dataclass(frozen=True)
class DerivationPlan:
    """A validated, explainable derivation strategy.

    Attributes:
        algorithm: ``"identity"``, ``"cumulative"``, ``"reconstruct"``,
            ``"prefix"``, ``"maxoa"`` or ``"minoa"``.
        view: window of the materialized sequence.
        target: requested window.
        estimated_lookups: rough count of sequence-value accesses of the
            *explicit* form for a length-``n`` derivation, as a function
            ``f(n)`` evaluated at ``n=1000`` (used for ranking strategies).
        notes: human-readable remarks (e.g. paper-precondition status).
    """

    algorithm: str
    view: WindowSpec
    target: WindowSpec
    estimated_lookups: float
    notes: tuple = field(default_factory=tuple)

    def explicit_lookups(self, n: int) -> float:
        """Explicit-form lookups per output position over ``n`` positions:
        constant for identity and the fig. 4/5 differences, a chain of
        ``n / Wx`` links for everything else derived from a sliding view."""
        per_position = self.estimated_lookups / _RANKING_N
        if self.view.is_sliding and self.algorithm != "identity":
            per_position *= n / _RANKING_N
        return per_position

    def describe(self) -> str:
        """One-line explanation, for EXPLAIN output."""
        msg = f"{self.algorithm}: derive {self.target} from materialized {self.view}"
        if self.notes:
            msg += " [" + "; ".join(self.notes) + "]"
        return msg


_RANKING_N = 1000.0


def _candidate_plans(
    view: WindowSpec, target: WindowSpec, *, minmax: bool
) -> List[DerivationPlan]:
    n = _RANKING_N
    if view == target:
        return [DerivationPlan("identity", view, target, n)]
    if view.is_cumulative:
        if target.is_sliding:
            if minmax:
                raise DerivationError(
                    "sliding windows are not derivable from cumulative MIN/MAX "
                    "views (no subtraction for semi-algebraic aggregates)"
                )
            return [DerivationPlan("cumulative", view, target, 2 * n)]
        raise DerivationError(f"cannot derive {target} from cumulative view")
    # view is sliding
    wx = view.width
    if target.is_cumulative:
        if minmax:
            raise DerivationError(
                "cumulative targets are not derivable from sliding MIN/MAX views"
            )
        notes = ("positive prefix tiling only (MinOA specialisation)",)
        return [DerivationPlan("prefix", view, target, n * n / (2 * wx), notes=notes)]
    # sliding -> sliding
    if target.is_point:
        if minmax:
            raise DerivationError(
                "raw data is not reconstructible from MIN/MAX views"
            )
        return [DerivationPlan("reconstruct", view, target, n * n / wx)]
    delta_l = target.l - view.l
    delta_h = target.h - view.h
    plans: List[DerivationPlan] = []
    if 0 <= delta_l <= wx and 0 <= delta_h <= wx:
        params = maxoa.check_preconditions(view, target)
        notes = ()
        if not params.meets_paper_bound:
            notes = (
                "outside the paper's stated bound ly<=hx-1+2lx (valid per the "
                "telescoping argument, Δ<=Wx)",
            )
        plans.append(
            DerivationPlan("maxoa", view, target, 2 * n * n / wx, notes=notes)
        )
    if not minmax:
        plans.append(DerivationPlan("minoa", view, target, n * n / wx))
    if not plans:
        raise DerivationError(
            f"{target} is not derivable from a MIN/MAX view of {view}: MaxOA "
            f"preconditions fail (Δl={delta_l}, Δh={delta_h}, Wx={wx}) and "
            "MinOA does not apply to MIN/MAX"
        )
    return plans


def plan(
    view: WindowSpec,
    target: WindowSpec,
    *,
    minmax: bool = False,
    algorithm: str = "auto",
) -> DerivationPlan:
    """Plan a derivation of ``target`` from a view window ``view``.

    Args:
        minmax: True when the view aggregate is MIN or MAX (restricts the
            algorithm choice).
        algorithm: ``"auto"`` (cheapest valid), or force ``"maxoa"`` /
            ``"minoa"``.

    Raises:
        DerivationError: when no algorithm can derive the target.
    """
    candidates = _candidate_plans(view, target, minmax=minmax)
    if algorithm == "auto":
        return min(candidates, key=lambda p: p.estimated_lookups)
    for candidate in candidates:
        if candidate.algorithm == algorithm:
            return candidate
    raise DerivationError(
        f"algorithm {algorithm!r} cannot derive {target} from {view} "
        f"(valid: {[c.algorithm for c in candidates]})"
    )


def derivable(view: WindowSpec, target: WindowSpec, *, minmax: bool = False) -> bool:
    """True when some algorithm derives ``target`` from ``view``."""
    try:
        plan(view, target, minmax=minmax)
        return True
    except DerivationError:
        return False


def derive(
    seq: CompleteSequence,
    target: WindowSpec,
    *,
    algorithm: str = "auto",
    chosen: Optional[DerivationPlan] = None,
) -> np.ndarray:
    """Derive ``[ỹ_1 .. ỹ_n]`` from a materialized sequence, as a read-only
    float64 array.

    The one-stop entry point: plans (or takes a pre-built plan) and executes.

    Raises:
        DerivationError: underivable combination.
        IncompleteSequenceError: the plan needed missing header/trailer rows.
    """
    return _FORMS[_algorithm(seq, target, algorithm, chosen)][0](seq, target)


def derive_at(
    seq: CompleteSequence, target: WindowSpec, k: int, *, algorithm: str = "auto"
) -> float:
    """``ỹ_k`` alone, by the per-position form of the algorithm :func:`derive`
    would run; it reads only the view values that one position needs."""
    return _FORMS[_algorithm(seq, target, algorithm, None)][1](seq, target, k)


def _algorithm(
    seq: CompleteSequence, target: WindowSpec, algorithm: str, chosen: Optional[DerivationPlan]
) -> str:
    minmax = seq.aggregate.duplicate_insensitive
    return (chosen or plan(seq.window, target, minmax=minmax, algorithm=algorithm)).algorithm


def _prefix_from_sliding(seq: CompleteSequence) -> np.ndarray:
    """Cumulative target from a sliding view: positive tiling of MinOA.

    ``ỹ_k = Σ_{j<=k} x_j = Σ_{i>=0} x̃_{k-hx-i·Wx}`` — the positive sequence
    with its head right-justified at ``k``: ``P_j = x̃_j + P_{j-Wx}`` from
    the first stored position, ``ỹ_k = P_{k-hx}``.
    """
    n, hx = seq.n, seq.window.h
    return frozen(strided_cumsum(seq.span(1 - hx, n - hx), seq.window.width))


#: algorithm -> (whole-sequence form, per-position form at ``k``)
_FORMS = {
    "identity": (lambda s, t: s.span(1, s.n), lambda s, t, k: s.value(k)),
    "cumulative": (reconstruct.sliding_from_cumulative, reconstruct.sliding_at_from_cumulative),
    "reconstruct": (
        lambda s, t: reconstruct.raw_from_sliding(s),
        lambda s, t, k: reconstruct.raw_at_from_sliding(s, k),
    ),
    "prefix": (lambda s, t: _prefix_from_sliding(s), lambda s, t, k: prefix_up_to(s, k)),
    "maxoa": (maxoa.derive, maxoa.derive_at),
    "minoa": (minoa.derive, minoa.derive_at),
}
