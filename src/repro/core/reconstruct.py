"""Reconstructing raw data and deriving from cumulative views (paper section 3).

Three building blocks:

* :func:`raw_from_cumulative` — ``x_k = x̃_k - x̃_{k-1}`` (section 3.1,
  relational mapping in fig. 4).
* :func:`sliding_from_cumulative` — ``ỹ_k = x̃_{k+h} - x̃_{k-l-1}`` (fig. 5);
  holds for small ``k`` because ``x̃_j = 0`` for ``j <= 0``.
* :func:`raw_from_sliding` — from a *complete* sliding-window sequence
  ``x̃ = (l, h)`` with window size ``w = l + h + 1`` (section 3.2).  Both the
  recursive form

      ``x_k = x̃_{k-h} - x̃_{k-h-1} + x_{k-w}``

  and the explicit form

      ``x_k = Σ_{i>=0} ( x̃_{k-h-i·w} - x̃_{k-h-1-i·w} )``

  hold; the sum stops at ``i_up = ceil(k / w)`` because beyond that point
  ``k - h - i·w <= -h`` and the sequence values vanish.

The whole-sequence functions return read-only float64 arrays; the
``*_at_*`` functions evaluate one position.  All of them read
:class:`~repro.core.complete.CompleteSequence` values through its total
value function, so headers/trailers and the paper's zero-extension
conventions apply uniformly.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.complete import CompleteSequence, frozen, strided_cumsum
from repro.core.window import WindowSpec
from repro.errors import DerivationError

__all__ = [
    "raw_from_cumulative",
    "raw_at_from_cumulative",
    "sliding_from_cumulative",
    "sliding_at_from_cumulative",
    "raw_from_sliding",
    "raw_at_from_sliding",
]


def _require_sum_family(seq: CompleteSequence, what: str) -> None:
    if not seq.aggregate.invertible:
        raise DerivationError(
            f"{what} requires an invertible aggregate (SUM/COUNT); "
            f"the materialized sequence uses {seq.aggregate.name}"
        )


def raw_at_from_cumulative(seq: CompleteSequence, k: int) -> float:
    """Single raw value ``x_k = x̃_k - x̃_{k-1}`` from a cumulative sequence."""
    if not seq.window.is_cumulative:
        raise DerivationError("raw_at_from_cumulative needs a cumulative sequence")
    _require_sum_family(seq, "raw-data reconstruction")
    return seq.value(k) - seq.value(k - 1)


def raw_from_cumulative(seq: CompleteSequence) -> np.ndarray:
    """All raw values ``x_1 .. x_n`` from a cumulative sequence (fig. 4):
    the view minus itself shifted by one position."""
    if not seq.window.is_cumulative:
        raise DerivationError("raw_from_cumulative needs a cumulative sequence")
    _require_sum_family(seq, "raw-data reconstruction")
    n = seq.n
    return frozen(seq.span(1, n) - seq.span(0, n - 1))


def sliding_from_cumulative(seq: CompleteSequence, target: WindowSpec) -> np.ndarray:
    """Derive a sliding-window sequence ``ỹ = (l, h)`` from a cumulative view.

    ``ỹ_k = x̃_{k+h} - x̃_{k-l-1}`` (fig. 5); the cumulative trailer
    (``x̃_j = x̃_n`` for ``j > n``) makes the formula total.
    """
    _require_cumulative_to_sliding(seq, target)
    l, h, n = target.l, target.h, seq.n
    return frozen(seq.span(1 + h, n + h) - seq.span(-l, n - l - 1))


def sliding_at_from_cumulative(
    seq: CompleteSequence, target: WindowSpec, k: int
) -> float:
    """Single value ``ỹ_k = x̃_{k+h} - x̃_{k-l-1}`` from a cumulative view."""
    _require_cumulative_to_sliding(seq, target)
    return float(seq.value(k + target.h) - seq.value(k - target.l - 1))


def _require_cumulative_to_sliding(seq: CompleteSequence, target: WindowSpec) -> None:
    if not seq.window.is_cumulative:
        raise DerivationError("sliding_from_cumulative needs a cumulative view")
    if not target.is_sliding:
        raise DerivationError("target window must be sliding")
    _require_sum_family(seq, "sliding-window derivation")


def raw_at_from_sliding(seq: CompleteSequence, k: int, *, form: str = "explicit") -> float:
    """Single raw value ``x_k`` from a complete sliding-window sequence.

    Args:
        form: ``"explicit"`` uses the bounded telescoping sum directly at
            position ``k``;  ``"recursive"`` unrolls the recursion
            ``x_k = x̃_{k-h} - x̃_{k-h-1} + x_{k-w}`` down to the base case.
            Both cost ``O(k / w)`` sequence lookups for one value.
    """
    if not seq.window.is_sliding:
        raise DerivationError("raw_at_from_sliding needs a sliding-window view")
    _require_sum_family(seq, "raw-data reconstruction")
    h = seq.window.h
    w = seq.window.width
    if form == "recursive":
        if k <= 0:
            return 0.0
        return seq.value(k - h) - seq.value(k - h - 1) + raw_at_from_sliding(
            seq, k - w, form="recursive"
        )
    if form != "explicit":
        raise DerivationError(f"unknown reconstruction form {form!r}")
    i_up = max(math.ceil(k / w), 0)
    total = 0.0
    for i in range(0, i_up + 1):
        pos = k - h - i * w
        total += seq.value(pos) - seq.value(pos - 1)
    return total


def raw_from_sliding(seq: CompleteSequence) -> np.ndarray:
    """All raw values ``x_1 .. x_n`` from a complete sliding-window sequence:
    the recursion ``x_k = x̃_{k-h} - x̃_{k-h-1} + x_{k-w}`` run forward over
    the whole sequence (O(n) total, one strided cumsum).  The explicit
    form at one position is :func:`raw_at_from_sliding`.
    """
    if not seq.window.is_sliding:
        raise DerivationError("raw_from_sliding needs a sliding-window view")
    _require_sum_family(seq, "raw-data reconstruction")
    n, h = seq.n, seq.window.h
    steps = seq.span(1 - h, n - h) - seq.span(-h, n - h - 1)
    return frozen(strided_cumsum(steps, seq.window.width))
