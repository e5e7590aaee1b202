"""MaxOA — the Maximal Overlapping derivation Algorithm (paper section 4).

Goal: compute the sequence ``ỹ = (ly, hy)`` from a materialized *complete*
sequence ``x̃ = (lx, hx)`` over the same raw data, without touching raw data.

Idea: cover ``ỹ_k``'s window ``[k-ly, k+hy]`` with (up to) three *maximally
overlapping* view windows — ``x̃_{k-Δl}``, ``x̃_k`` and ``x̃_{k+Δh}`` with the
coverage factors ``Δl = ly - lx`` and ``Δh = hy - hx`` — and subtract the
double-counted overlaps, each of which is again a regular sequence (the
*compensation sequences* ``z̃^L`` and ``z̃^H``):

    ``ỹ_k = x̃_k + (x̃_{k-Δl} - z̃^L_k) + (x̃_{k+Δh} - z̃^H_k)``

The compensation sequences satisfy recursions with period
``Wx = lx + hx + 1`` (the paper's ``Δl + Δp`` resp. ``Δh + Δq``; note
``Δp = 1 + lx + hx - Δl`` so ``Δl + Δp = Wx``):

    ``z̃^L_k = x̃_{k-Δl} - x̃_{k-Wx} + z̃^L_{k-Wx}``
    ``z̃^H_k = x̃_{k+Δh} - x̃_{k+Wx} + z̃^H_{k+Wx}``

Unrolling yields the *explicit form* — the one the relational operator
pattern (fig. 10) implements, and :func:`derive_at` at one position:

    ``ỹ_k = x̃_k + Σ_{i>=1} (x̃_{k-i·Wx} - x̃_{k-i·Wx-Δl})
                 + Σ_{i>=1} (x̃_{k+i·Wx} - x̃_{k+i·Wx+Δh})``

Both sums are finite: the left one vanishes once ``k - i·Wx <= -hx``, the
right one once ``k + i·Wx > n + lx``.

Validity: each side telescopes exactly when its coverage factor does not
exceed the view window size (``Δl <= Wx`` and ``Δh <= Wx``).  The paper
states the stricter ``ly <= hx - 1 + 2·lx`` for the common-bound case
(guaranteeing overlap factor ``Δp >= 2``); :func:`check_preconditions`
reports both.

Unlike MinOA, MaxOA extends to the semi-algebraic aggregates: for MIN/MAX
the overlap is harmless (duplicate-insensitive), so
``ỹ_k = min/max(x̃_{k-Δl}, x̃_k, x̃_{k+Δh})`` — no compensation needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.aggregates import MIN
from repro.core.complete import CompleteSequence, frozen, strided_cumsum
from repro.core.window import WindowSpec
from repro.errors import DerivationError

__all__ = ["MaxOAParameters", "check_preconditions", "derive", "derive_at"]


@dataclass(frozen=True)
class MaxOAParameters:
    """All factors of a MaxOA derivation, in the paper's notation.

    Attributes:
        delta_l: coverage factor ``Δl = ly - lx``.
        delta_h: coverage factor ``Δh = hy - hx``.
        delta_p: left overlap factor ``Δp = 1 + lx + hx - Δl``.
        delta_q: right overlap factor ``Δq = 1 + lx + hx - Δh``.
        period: shift period ``Wx = Δl + Δp = Δh + Δq = lx + hx + 1``.
        meets_paper_bound: True when the paper's stated precondition
            ``ly <= hx - 1 + 2·lx`` (resp. its mirror for the upper side)
            holds; the implementation itself is valid for the weaker
            ``Δl <= Wx ∧ Δh <= Wx``.
    """

    view: WindowSpec
    target: WindowSpec
    delta_l: int
    delta_h: int
    delta_p: int
    delta_q: int
    period: int
    meets_paper_bound: bool


def check_preconditions(view: WindowSpec, target: WindowSpec) -> MaxOAParameters:
    """Validate derivability of ``target`` from ``view`` and return the factors.

    Raises:
        DerivationError: when MaxOA cannot derive the target window —
            non-sliding windows, a negative coverage factor (the query
            window must enclose the view window on both sides), or a
            coverage factor exceeding the view window size.
    """
    if not view.is_sliding or not target.is_sliding:
        raise DerivationError(
            "MaxOA derives sliding windows from sliding-window views; got "
            f"view={view}, target={target}"
        )
    delta_l = target.l - view.l
    delta_h = target.h - view.h
    if delta_l < 0 or delta_h < 0:
        raise DerivationError(
            f"MaxOA coverage factors must be non-negative: "
            f"Δl={delta_l}, Δh={delta_h} (view={view}, target={target}); "
            "a narrower query window is only derivable via MinOA"
        )
    period = view.width
    if delta_l > period or delta_h > period:
        raise DerivationError(
            f"coverage factor exceeds view window size (Δl={delta_l}, "
            f"Δh={delta_h}, Wx={period}); shifted view windows cannot cover "
            "the query window contiguously"
        )
    meets = target.l <= view.h - 1 + 2 * view.l and (
        target.h <= view.l - 1 + 2 * view.h
    )
    return MaxOAParameters(
        view=view,
        target=target,
        delta_l=delta_l,
        delta_h=delta_h,
        delta_p=1 + view.l + view.h - delta_l,
        delta_q=1 + view.l + view.h - delta_h,
        period=period,
        meets_paper_bound=meets,
    )


def _derive_at_sum(seq: CompleteSequence, params: MaxOAParameters, k: int) -> float:
    """Explicit form at a single position (SUM/COUNT family)."""
    period = params.period
    n = seq.n
    hx, lx = params.view.h, params.view.l
    total = seq.value(k)
    if params.delta_l:
        pos = k - period
        while pos >= 1 - hx:  # beyond this both terms vanish
            total += seq.value(pos) - seq.value(pos - params.delta_l)
            pos -= period
    if params.delta_h:
        pos = k + period
        while pos <= n + lx:
            total += seq.value(pos) - seq.value(pos + params.delta_h)
            pos += period
    return total


def _derive_at_minmax(seq: CompleteSequence, params: MaxOAParameters, k: int) -> float:
    """MIN/MAX cover: overlap is harmless, no compensation."""
    candidates = [
        seq.value_or_none(k - params.delta_l) if params.delta_l else None,
        seq.value_or_none(k),
        seq.value_or_none(k + params.delta_h) if params.delta_h else None,
    ]
    present = [c for c in candidates if c is not None]
    if not present:
        return 0.0
    result = present[0]
    for c in present[1:]:
        result = seq.aggregate.combine(result, c)
    return result


def _derive_minmax(seq: CompleteSequence, params: MaxOAParameters) -> np.ndarray:
    """The MIN/MAX cover over all positions: three shifted slices of the
    view, a shifted value taking part only where its window still
    intersects ``1..n`` (:meth:`CompleteSequence.value_or_none`)."""
    n = seq.n
    combine = np.minimum if seq.aggregate is MIN else np.maximum
    out = seq.span(1, n)
    for shift in (-params.delta_l, params.delta_h):
        if shift:
            at = np.arange(1 + shift, n + shift + 1)
            present = (at >= 1 - params.view.h) & (at <= n + params.view.l)
            shifted = seq.span(1 + shift, n + shift)
            out = np.where(present, combine(out, shifted), out)
    return frozen(out)


def derive_at(seq: CompleteSequence, target: WindowSpec, k: int) -> float:
    """``ỹ_k`` via MaxOA's explicit form (single position)."""
    params = check_preconditions(seq.window, target)
    if seq.aggregate.duplicate_insensitive:
        return _derive_at_minmax(seq, params, k)
    if not seq.aggregate.invertible:
        raise DerivationError(
            f"MaxOA supports SUM/COUNT/MIN/MAX views; got {seq.aggregate.name}"
        )
    return _derive_at_sum(seq, params, k)


def _derive_recursive(seq: CompleteSequence, params: MaxOAParameters) -> np.ndarray:
    """Recursive form: materialize the compensation sequences in one pass.

    This is the strategy an engine with internal caches would use (paper
    section 4.1): O(1) sequence lookups per output position.  Each
    compensation sequence is one :func:`~repro.core.complete.strided_cumsum`
    over the difference of two shifted slices of the view.
    """
    n = seq.n
    period = params.period
    delta_l, delta_h = params.delta_l, params.delta_h
    out = seq.span(1, n)
    if delta_l:
        # z̃^L_k = x̃_{k-Δl} - x̃_{k-Wx} + z̃^L_{k-Wx}; every term is 0 for
        # k <= Δl - hx, so starting at k = 1 or below covers the base case.
        lo = min(delta_l - params.view.h + 1, 1)
        shifted = seq.span(lo - delta_l, n - delta_l)
        zl = strided_cumsum(shifted - seq.span(lo - period, n - period), period)
        out = out + (shifted[..., 1 - lo :] - zl[..., 1 - lo :])
    if delta_h:
        # z̃^H_k = x̃_{k+Δh} - x̃_{k+Wx} + z̃^H_{k+Wx} runs down from k = n + lx
        # (beyond it every term is 0): the same recurrence, reversed.
        hi = n + params.view.l
        shifted = seq.span(1 + delta_h, hi + delta_h)
        diff = shifted - seq.span(1 + period, hi + period)
        zh = strided_cumsum(diff[..., ::-1], period)[..., ::-1]
        out = out + (shifted[..., :n] - zh[..., :n])
    return frozen(out)


def derive(
    seq: CompleteSequence,
    target: WindowSpec,
    *,
    params: Optional[MaxOAParameters] = None,
) -> np.ndarray:
    """``[ỹ_1 .. ỹ_n]`` for ``target`` from the materialized ``seq``, as a
    read-only float64 array: the recursive form, O(n) lookups.  The
    explicit form (O(n/Wx) lookups per position, the relational pattern's
    profile) is :func:`derive_at`.

    Args:
        params: pre-checked parameters (skips re-validation).

    Raises:
        DerivationError: see :func:`check_preconditions`; also raised for
            AVG views (derive SUM and COUNT separately instead).
    """
    if params is None:
        params = check_preconditions(seq.window, target)
    if seq.aggregate.duplicate_insensitive:
        return _derive_minmax(seq, params)
    if not seq.aggregate.invertible:
        raise DerivationError(
            f"MaxOA supports SUM/COUNT/MIN/MAX views; got {seq.aggregate.name}"
        )
    return _derive_recursive(seq, params)
