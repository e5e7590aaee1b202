"""The paper's formal sequence model (section 2.1).

Definition (Simple Sequence): a triple ``(S, W, FA)`` where

* ``S = (SL, SH)`` gives start and stop positions of the sequence;
* ``W = (WL, WH)`` gives, per position ``k``, the inclusive raw-data bounds
  ``wL(k) .. wH(k)`` of the aggregation window;
* ``FA`` is a regular aggregation function.

The sequence value at position ``k`` is
``x̃_k = FA{ x_wL(k), ..., x_wH(k) }`` with raw values ``x_i = 0`` for
``i`` outside ``1..n``.

:class:`SequenceSpec` realises this triple.  For the two standard shapes —
cumulative and sliding windows — the per-position bounds come from a
:class:`~repro.core.window.WindowSpec`; section 6's ordering reduction
produces *irregular* per-position bounds, modelled by
:class:`CustomBoundsSequenceSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.core.aggregates import SUM, Aggregate
from repro.core.window import WindowSpec
from repro.errors import SequenceError

__all__ = ["SequenceSpec", "CustomBoundsSequenceSpec"]


@dataclass(frozen=True)
class SequenceSpec:
    """A simple sequence ``(S, W, FA)`` with a regular window shape.

    ``start``/``stop`` default to the paper's canonical range ``1..n`` (the
    stop position is supplied by the data at evaluation time when left at
    the sentinel ``None``).

    Attributes:
        window: cumulative or sliding :class:`WindowSpec`.
        aggregate: the aggregation function ``FA`` (default SUM, the paper's
            emphasis).
    """

    window: WindowSpec
    aggregate: Aggregate = SUM

    # -- bound functions (W component of the triple) -------------------------

    def lower_bound(self, k: int) -> int:
        """``wL(k)``."""
        return self.window.bounds(k)[0]

    def upper_bound(self, k: int) -> int:
        """``wH(k)``."""
        return self.window.bounds(k)[1]

    def window_size(self, k: int) -> int:
        """``W(k) = 1 + wH(k) - wL(k)``."""
        return self.window.size(k)

    # -- evaluation ----------------------------------------------------------

    def value_at(self, raw: Sequence[float], k: int) -> float:
        """Explicit-form sequence value ``x̃_k`` over 0-based raw data.

        This is the naive ``O(W(k))`` evaluation; :mod:`repro.core.compute`
        provides the pipelined alternative for whole sequences.
        """
        lo, hi = self.window.bounds(k)
        out = self.aggregate.apply(
            raw[i - 1] for i in range(max(lo, 1), min(hi, len(raw)) + 1)
        )
        if out is None:
            # MIN/MAX/AVG over a window that lies entirely outside 1..n.
            # The paper's arithmetic convention treats absent raw data as 0.
            return 0.0
        return out

    def values(self, raw: Sequence[float], lo: int, hi: int) -> np.ndarray:
        """``x̃_lo .. x̃_hi`` as float64: :meth:`value_at` at every position,
        with the same bits, one window offset at a time instead of one
        position at a time.

        Members of a window are combined left to right, as ``value_at``
        combines them: sums onto ``0.0``, and a MIN/MAX member replaces the
        running extremum only when strictly smaller/larger, or when it is
        the window's first NaN (which then stays).  Only the raw
        values the windows of ``lo .. hi`` reach are converted.  This is the
        one evaluator of stored view values: refresh, the header/trailer of
        a kernel-computed sequence, and maintenance's ``l + h + 1`` band.
        """
        n, window, name = len(raw), self.window, self.aggregate.name
        pad = {"MIN": np.inf, "MAX": -np.inf}.get(name, 0.0)
        m = max(hi - lo + 1, 0)
        if window.is_cumulative:
            # x̃_k aggregates x_1 .. x_k: nothing for k < 1, all of x for k > n.
            top = min(max(hi, 0), n)
            count = np.minimum(np.maximum(np.arange(lo, hi + 1), 0), top)
            live = (max(lo, 1), hi)
        else:
            l, h = window.l, window.h
            live = (max(lo, 1 - h), min(hi, n + l))  # windows that meet 1..n
            if name in ("COUNT", "AVG"):
                ks = np.arange(lo, hi + 1)
                count = np.minimum(ks + h, n) - np.maximum(ks - l, 1) + 1
        if name == "COUNT":
            acc = count.astype(np.float64)
        elif window.is_cumulative:
            x = _members(raw, 0, top, pad)  # x_0 = pad, then x_1 .. x_top
            if pad == 0.0:
                acc = np.cumsum(x)
            else:
                acc = (np.minimum if name == "MIN" else np.maximum).accumulate(x)
                zeros = np.flatnonzero(x == 0)
                if zeros.size:  # min()/max() keep the first of ±0, not the last
                    acc[acc == 0] = x[zeros[0]]
            acc = acc[count]
        else:
            x = _members(raw, lo - l, hi + h, pad)
            # The first member onto 0.0 (a sum) or as it is (an extremum).
            acc = x[:m] + 0.0 if pad == 0.0 else x[:m].copy()
            nan = pad != 0.0 and np.isnan(x).any()
            for j in range(1, l + h + 1):
                member = x[j : j + m]
                if pad == 0.0:
                    acc += member
                else:
                    wins = member < acc if name == "MIN" else member > acc
                    if nan:  # a window's first NaN member replaces and stays
                        wins |= np.isnan(member) & ~np.isnan(acc)
                    np.copyto(acc, member, where=wins)
        if name == "AVG":
            acc = acc / np.maximum(count, 1)
        if n == 0:
            live = (hi + 1, hi)
        acc[: live[0] - lo] = 0.0  # an empty window is 0.0, as in value_at
        acc[max(live[1] + 1 - lo, 0) :] = 0.0
        return acc

    def materialize(self, raw: Sequence[float]) -> List[float]:
        """All sequence values ``x̃_1 .. x̃_n`` (naive evaluation)."""
        return [self.value_at(raw, k) for k in range(1, len(raw) + 1)]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.aggregate.name} over {self.window}"


def _members(raw: Sequence[float], a: int, b: int, pad: float) -> np.ndarray:
    """``x_a .. x_b`` as float64, with ``pad`` at positions outside ``1..n``."""
    out = np.full(max(b - a + 1, 0), pad)
    s, e = max(a, 1), min(b, len(raw))
    if s <= e:
        out[s - a : e - a + 1] = raw[s - 1 : e]
    return out


@dataclass(frozen=True)
class CustomBoundsSequenceSpec:
    """A simple sequence whose window bounds vary per position.

    Produced by ordering reduction (section 6.1), where the derived window
    at global position ``k`` stretches to the previous/next combination of
    the remaining ordering columns:

        ``w'L(k) = k - pos((k1,...,kn-j) - 1, 1, ..., 1)``
        ``w'H(k) = pos((k1,...,kn-j) + 1, 1, ..., 1) - k - 1``

    ``lower``/``upper`` are callables ``k -> bound`` implementing ``WL``/
    ``WH`` of the formal triple directly.
    """

    lower: Callable[[int], int]
    upper: Callable[[int], int]
    aggregate: Aggregate = SUM
    description: str = field(default="custom-bounds sequence")

    def lower_bound(self, k: int) -> int:
        return self.lower(k)

    def upper_bound(self, k: int) -> int:
        return self.upper(k)

    def window_size(self, k: int) -> int:
        return 1 + self.upper(k) - self.lower(k)

    def bounds(self, k: int) -> Tuple[int, int]:
        lo, hi = self.lower(k), self.upper(k)
        if lo > hi:
            raise SequenceError(
                f"window bounds inverted at position {k}: [{lo}, {hi}]"
            )
        return lo, hi

    def value_at(self, raw: Sequence[float], k: int) -> float:
        lo, hi = self.bounds(k)
        out = self.aggregate.apply(
            raw[i - 1] for i in range(max(lo, 1), min(hi, len(raw)) + 1)
        )
        return 0.0 if out is None else out

    def materialize(self, raw: Sequence[float]) -> List[float]:
        return [self.value_at(raw, k) for k in range(1, len(raw) + 1)]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.aggregate.name} over {self.description}"
