"""Computing sequence values from raw data (paper section 2.2).

Two strategies are implemented:

* :func:`compute_naive` — the explicit form: evaluate
  ``FA{x_wL(k), ..., x_wH(k)}`` independently at each position; ``O(W(k))``
  aggregate operations per position.
* :func:`compute_pipelined` — the recursive form exploiting the neighbour
  relationship of two windows:

  - cumulative: ``x̃_k = x̃_{k-1} + x_k``  (one operation per position);
  - sliding:    ``x̃_k = x̃_{k-1} + x_{k+h} - x_{k-l-1}``  (three operations
    per position, independent of the window size; needs a cache of
    ``W + 2`` values).

Both return plain lists ``[x̃_1, ..., x̃_n]`` and optionally record the number
of elementary aggregate operations in an :class:`OpCounter`, which the
ablation benchmark uses to demonstrate the O(w)-vs-O(1) claim independent of
wall clocks.

Neither is what the engine runs: :func:`compute_naive` is the oracle, and
:func:`compute_pipelined` the scalar reference that the engine's kernel,
:func:`~repro.core.vectorized.compute_vectorized`, reproduces bit for bit
(same additions, same order) as whole-sequence NumPy.

Every strategy shares one empty-input contract: the paper's sequence model
starts at position 1, so there is no sequence over zero raw values, and all
of :func:`compute_naive`, :func:`compute_pipelined` and
:func:`~repro.core.vectorized.compute_vectorized` raise
:class:`~repro.errors.SequenceError` for
``raw == []`` instead of each picking its own degenerate behaviour.

MIN/MAX have no subtraction, so the sliding-window pipeline falls back to a
monotonic-deque algorithm (same O(1) amortised per-position cost); the paper
mentions MIN/MAX "whenever the application is permitted".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.aggregates import AVG, COUNT, MAX, MIN, SUM, Aggregate
from repro.core.window import WindowSpec
from repro.errors import SequenceError

__all__ = ["OpCounter", "compute_naive", "compute_pipelined"]


def _require_nonempty(raw: Sequence[float]) -> None:
    """Shared empty-input contract of all computation strategies."""
    if len(raw) == 0:
        raise SequenceError(
            "cannot compute a sequence over empty raw data (the sequence "
            "model has no position 1)"
        )


def _as_raw(raw) -> Sequence[float]:
    """Normalize the raw input for the scalar kernels.

    Accepts plain sequences, NumPy arrays, and
    :class:`repro.columns.Column` values (NULLs become 0.0, matching the
    measure-extraction convention).  Array-backed inputs are converted to
    Python floats once up front — the scalar kernels accumulate in Python
    arithmetic, and ``np.float64`` elements would leak into the output.
    The vectorized kernel instead consumes the underlying buffer
    zero-copy.
    """
    if hasattr(raw, "as_float64"):
        raw = raw.as_float64(0.0)
    if isinstance(raw, np.ndarray):
        return raw.tolist()
    return raw


@dataclass
class OpCounter:
    """Counts elementary aggregate operations performed while computing.

    Attributes:
        ops: number of binary aggregate combinations/subtractions executed.
    """

    ops: int = 0

    def add(self, n: int = 1) -> None:
        self.ops += n


def compute_naive(
    raw: Sequence[float],
    window: WindowSpec,
    aggregate: Aggregate = SUM,
    counter: Optional[OpCounter] = None,
) -> List[float]:
    """Explicit-form evaluation: ``O(W(k))`` work at each position ``k``.

    Raises:
        SequenceError: on empty input.
    """
    _require_nonempty(raw)
    raw = _as_raw(raw)
    n = len(raw)
    out: List[float] = []
    for k in range(1, n + 1):
        lo, hi = window.bounds(k)
        lo = max(lo, 1)
        hi = min(hi, n)
        values = raw[lo - 1 : hi]
        if counter is not None:
            counter.add(max(len(values) - 1, 0))
        result = aggregate.apply(values)
        out.append(0.0 if result is None else result)
    return out


def _pipelined_sum(
    raw: Sequence[float],
    l: int,
    h: int,
    counter: Optional[OpCounter],
) -> List[float]:
    """Sliding-window SUM via ``x̃_k = x̃_{k-1} + x_{k+h} - x_{k-l-1}``."""
    n = len(raw)
    out: List[float] = []
    # Seed x̃_1 explicitly (window 1-l .. 1+h clipped to data), left to
    # right: the builtin sum() is compensated from CPython 3.12 on, so its
    # last ulp depends on the interpreter.
    acc = raw[0]
    for value in raw[1 : min(1 + h, n)]:
        acc = acc + value
    if counter is not None:
        counter.add(min(1 + h, n))
    out.append(acc)
    for k in range(2, n + 1):
        entering = raw[k + h - 1] if k + h <= n else 0.0
        leaving = raw[k - l - 2] if k - l - 1 >= 1 else 0.0
        acc = acc + entering - leaving
        if counter is not None:
            counter.add(3)
        out.append(acc)
    return out


def _pipelined_minmax(
    raw: Sequence[float],
    l: int,
    h: int,
    aggregate: Aggregate,
    counter: Optional[OpCounter],
) -> List[float]:
    """Sliding-window MIN/MAX via a monotonic deque (amortised O(1)/position).

    The deque holds candidate positions whose values are monotone; the front
    is always the extremum of the current window.
    """
    n = len(raw)
    better = (lambda a, b: a <= b) if aggregate is MIN else (lambda a, b: a >= b)
    dq: deque = deque()  # positions, values monotone from front to back
    out: List[float] = []

    def push(i: int) -> None:
        while dq and better(raw[i - 1], raw[dq[-1] - 1]):
            dq.pop()
            if counter is not None:
                counter.add(1)
        dq.append(i)
        if counter is not None:
            counter.add(1)

    nxt = 1  # next raw position to feed into the deque
    for k in range(1, n + 1):
        hi = min(k + h, n)
        while nxt <= hi:
            push(nxt)
            nxt += 1
        lo = max(k - l, 1)
        while dq and dq[0] < lo:
            dq.popleft()
        out.append(raw[dq[0] - 1] if dq else 0.0)
    return out


def compute_pipelined(
    raw: Sequence[float],
    window: WindowSpec,
    aggregate: Aggregate = SUM,
    counter: Optional[OpCounter] = None,
) -> List[float]:
    """Recursive-form evaluation: O(1) amortised work per position.

    Raises:
        SequenceError: on empty input, or for aggregates with no pipelined
            form (none currently; AVG pipelines through SUM and COUNT).
    """
    _require_nonempty(raw)
    raw = _as_raw(raw)
    n = len(raw)
    if window.is_cumulative:
        if aggregate in (SUM, COUNT):
            out: List[float] = []
            acc = 0.0
            for k in range(1, n + 1):
                acc = acc + (raw[k - 1] if aggregate is SUM else 1.0)
                if counter is not None:
                    counter.add(1)
                out.append(acc)
            return out
        if aggregate is AVG:
            sums = compute_pipelined(raw, window, SUM, counter)
            return [s / k for k, s in enumerate(sums, start=1)]
        if aggregate in (MIN, MAX):
            out = []
            acc = None
            for k in range(1, n + 1):
                acc = raw[k - 1] if acc is None else aggregate.combine(acc, raw[k - 1])
                if counter is not None:
                    counter.add(1)
                out.append(acc)
            return out
        raise SequenceError(f"no pipelined form for {aggregate.name}")

    l, h = window.l, window.h
    if aggregate is SUM:
        return _pipelined_sum(raw, l, h, counter)
    if aggregate is COUNT:
        # COUNT over a sliding window is the clipped window size.
        return [
            float(min(k + h, n) - max(k - l, 1) + 1) for k in range(1, n + 1)
        ]
    if aggregate is AVG:
        sums = _pipelined_sum(raw, l, h, counter)
        return [
            s / (min(k + h, n) - max(k - l, 1) + 1)
            for k, s in enumerate(sums, start=1)
        ]
    if aggregate in (MIN, MAX):
        return _pipelined_minmax(raw, l, h, aggregate, counter)
    raise SequenceError(f"no pipelined form for {aggregate.name}")
