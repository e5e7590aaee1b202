"""MinOA — the Minimal Overlapping derivation Algorithm (paper section 5).

MinOA derives ``ỹ = (ly, hy)`` from a complete materialized sequence
``x̃ = (lx, hx)`` by constructing two *tilings* with non-overlapping
(minimally overlapping) view windows:

* **positive sequence** — head right-justified with ``ỹ_k``'s upper bound
  ``k + hy``, so its head centre is ``k + Δh`` (``Δh = hy - hx``);
  successive elements shift left by the view window size ``Wx``.  Summed up
  it equals the raw prefix sum up to ``k + hy``.
* **negative sequence** — head right-justified with ``k - ly - 1`` (just
  below ``ỹ_k``'s lower bound), i.e. centred at ``k - ly - hx - 1 =
  k - Δl - Wx``; summed up it equals the raw prefix sum up to ``k - ly - 1``.

Their difference is exactly the window sum:

    ``ỹ_k = Σ_{i>=0} x̃_{k+Δh-i·Wx}  -  Σ_{i>=1} x̃_{k-Δl-i·Wx}``

Both sums stop after ``i_up = ceil((k + hy) / Wx)`` resp. the analogous
bound for the negative side, because beyond that the view windows lie
entirely left of position 1 and the (complete) sequence values vanish.

Compared to MaxOA (section 4):

* simpler parameters — no compensation sequence, only one modulus ``Wx``;
* **no sign restriction on the coverage factors**: ``Δl`` and ``Δh`` may be
  negative (the query window may be *narrower* than the view window),
  because the tilings reconstruct prefix sums rather than covering the
  query window directly;
* SUM/COUNT family only — the construction subtracts sequence values, which
  is impossible for the semi-algebraic MIN/MAX (the paper's stated
  trade-off between the two algorithms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.complete import CompleteSequence, frozen, strided_cumsum
from repro.core.window import WindowSpec
from repro.errors import DerivationError

__all__ = ["MinOAParameters", "check_preconditions", "derive", "derive_at"]


@dataclass(frozen=True)
class MinOAParameters:
    """Factors of a MinOA derivation (paper notation).

    Attributes:
        delta_l: coverage factor ``Δl = ly - lx`` (may be negative).
        delta_h: coverage factor ``Δh = hy - hx`` (may be negative).
        period: the tiling shift ``Wx = lx + hx + 1``.
    """

    view: WindowSpec
    target: WindowSpec
    delta_l: int
    delta_h: int
    period: int


def check_preconditions(view: WindowSpec, target: WindowSpec) -> MinOAParameters:
    """Validate derivability of ``target`` from ``view`` via MinOA.

    Raises:
        DerivationError: for non-sliding windows.  (MinOA has no window-size
            restriction; completeness and the aggregate family are checked
            at derivation time.)
    """
    if not view.is_sliding or not target.is_sliding:
        raise DerivationError(
            "MinOA derives sliding windows from sliding-window views; got "
            f"view={view}, target={target}"
        )
    return MinOAParameters(
        view=view,
        target=target,
        delta_l=target.l - view.l,
        delta_h=target.h - view.h,
        period=view.width,
    )


def _derive_at(seq: CompleteSequence, params: MinOAParameters, k: int) -> float:
    period = params.period
    hx = params.view.h

    # Positive sequence: head at k + Δh, tiles the prefix (-inf, k + hy].
    total = 0.0
    pos = k + params.delta_h
    while pos >= 1 - hx:  # x̃_pos = 0 once the window is fully left of 1
        total += seq.value(pos)
        pos -= period

    # Negative sequence: head at k - Δl - Wx, tiles (-inf, k - ly - 1].
    pos = k - params.delta_l - period
    while pos >= 1 - hx:
        total -= seq.value(pos)
        pos -= period
    return total


def derive_at(seq: CompleteSequence, target: WindowSpec, k: int) -> float:
    """``ỹ_k`` via MinOA's explicit form (single position)."""
    params = check_preconditions(seq.window, target)
    _require_invertible(seq)
    return _derive_at(seq, params, k)


def _require_invertible(seq: CompleteSequence) -> None:
    if not seq.aggregate.invertible:
        raise DerivationError(
            "MinOA subtracts sequence values and therefore supports only the "
            f"invertible aggregates SUM/COUNT; the view uses {seq.aggregate.name}. "
            "Use MaxOA for MIN/MAX views."
        )


def derive(
    seq: CompleteSequence,
    target: WindowSpec,
    *,
    params: Optional[MinOAParameters] = None,
) -> np.ndarray:
    """``[ỹ_1 .. ỹ_n]`` for ``target`` from the materialized ``seq``, as a
    read-only float64 array.

    Both prefix-tiling sums are computed incrementally (O(n) lookups): with
    ``P_k = Σ_{i>=0} x̃_{k-i·Wx}``, the positive part at ``k`` is
    ``P_{k+Δh}`` and ``P_k = x̃_k + P_{k-Wx}``.  The explicit form (the
    tilings summed at one position, the relational pattern's profile) is
    :func:`derive_at`.

    Raises:
        DerivationError: non-sliding windows or non-invertible aggregate.
    """
    if params is None:
        params = check_preconditions(seq.window, target)
    _require_invertible(seq)
    # P_j = x̃_j + P_{j-Wx} over every position either tiling can reach
    # (x̃ and hence P vanish below 1 - hx): one strided cumsum, read at the
    # two shifted ranges.
    n = seq.n
    period = params.period
    pos_head = 1 + params.delta_h
    neg_head = 1 - params.delta_l - period
    lo = min(1 - params.view.h, pos_head, neg_head)
    hi = n + max(params.view.l, params.delta_h, -params.delta_l - period)
    prefix = strided_cumsum(seq.span(lo, hi), period)
    positive = prefix[..., pos_head - lo : pos_head - lo + n]
    negative = prefix[..., neg_head - lo : neg_head - lo + n]
    return frozen(positive - negative)
