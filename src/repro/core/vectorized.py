"""The window kernel: section 2.2's recurrence as whole-sequence NumPy.

:func:`compute_vectorized` is what the engine's window operator and the
partitioning reduction run.  It is O(n) for every
aggregate and bit-identical to the scalar reference
:func:`~repro.core.compute.compute_pipelined` (signed zeros aside), so
nothing above it has a kernel to choose (DESIGN.md §5m):

* SUM/AVG run the recurrence ``x̃_k = x̃_{k-1} + x_{k+h} - x_{k-l-1}`` with
  its own additions in its own order: one sequential ``np.cumsum`` over
  ``[x_1 .. x_{1+h}, +x_{2+h}, -x_{1-l}, +x_{3+h}, -x_{2-l}, ...]``, of
  which every second element from the seed on is an ``x̃_k``
  (``a - b`` and ``a + (-b)`` are the same IEEE-754 operation);
* MIN/MAX use van Herk's block decomposition: prefix and suffix extrema
  within blocks of one window width, two lookups per position —
  comparisons only, hence exact;
* COUNT is the clipped window size and the cumulative frames are single
  accumulations.
"""

from __future__ import annotations

from typing import List, Sequence, Union

import numpy as np

from repro.core.aggregates import AVG, COUNT, MAX, MIN, SUM, Aggregate
from repro.core.window import WindowSpec
from repro.errors import SequenceError

__all__ = ["compute_vectorized"]


def _sliding_sums(values: np.ndarray, l: int, h: int) -> np.ndarray:
    """The sliding-SUM recurrence as one sequential cumulative sum."""
    n = len(values)
    seed = min(1 + h, n)  # x̃_1 = x_1 + ... + x_{1+h}, left to right
    steps = np.zeros(seed + 2 * (n - 1))
    steps[:seed] = values[:seed]
    # Step k adds the entering x_{k+h} (0.0 past the data) ...
    steps[seed : seed + 2 * max(n - 1 - h, 0) : 2] = values[h + 1 :]
    # ... then subtracts the leaving x_{k-l-1} (-0.0 before the data, which
    # like the recurrence's "- 0.0" leaves every accumulator unchanged).
    leaving = steps[seed + 1 :: 2]
    leaving[l:] = values[: max(n - 1 - l, 0)]
    np.negative(leaving, out=leaving)
    return np.cumsum(steps)[seed - 1 :: 2]


def _sliding_extrema(values: np.ndarray, l: int, h: int, ufunc) -> np.ndarray:
    """Sliding MIN/MAX in O(n): van Herk's block prefix/suffix scans.

    Padded with the neutral extreme, position ``i``'s window is
    ``padded[i : i + w]``.  It spans at most two blocks of ``w``: the
    suffix of the block holding ``i`` and the prefix of the next one up to
    ``i + w - 1``.
    """
    n = len(values)
    # Frames reach no further than the data; clipping keeps this O(n) for
    # frames wider than the sequence.
    l, h = min(l, n - 1), min(h, n - 1)
    w = l + h + 1
    blocks = -(-(n + w - 1) // w)
    padded = np.full(blocks * w, np.inf if ufunc is np.minimum else -np.inf)
    padded[l : l + n] = values
    grid = padded.reshape(blocks, w)
    prefix = ufunc.accumulate(grid, axis=1).reshape(-1)
    suffix = ufunc.accumulate(grid[:, ::-1], axis=1)[:, ::-1].reshape(-1)
    return ufunc(suffix[:n], prefix[w - 1 : w - 1 + n])


def compute_vectorized(
    raw: Sequence[float],
    window: WindowSpec,
    aggregate: Aggregate = SUM,
) -> Union[List[float], np.ndarray]:
    """Compute ``[x̃_1 .. x̃_n]`` with NumPy bulk operations.

    A caller that hands in an ``ndarray`` gets one back (the window
    operator scatters it into its output column); any other sequence comes
    back as a list of Python floats.

    Raises:
        SequenceError: on empty input (the strategies' shared contract).
    """
    out = _kernel(raw, window, aggregate)
    return out if isinstance(raw, np.ndarray) else out.tolist()


def _kernel(raw: Sequence[float], window: WindowSpec, aggregate: Aggregate) -> np.ndarray:
    n = len(raw)
    if n == 0:
        raise SequenceError(
            "cannot compute a sequence over empty raw data (the sequence "
            "model has no position 1)"
        )
    if hasattr(raw, "as_float64"):
        # A columns.Column measure: reuse its buffer directly (zero-copy
        # when the column is float64 with no NULLs).
        values = raw.as_float64(0.0)
    else:
        values = np.asarray(raw, dtype=np.float64)

    if window.is_cumulative:
        if aggregate is SUM:
            return np.cumsum(values)
        if aggregate is COUNT:
            return np.arange(1, n + 1, dtype=np.float64)
        if aggregate is AVG:
            return np.cumsum(values) / np.arange(1, n + 1)
        if aggregate is MIN:
            return np.minimum.accumulate(values)
        if aggregate is MAX:
            return np.maximum.accumulate(values)
        raise SequenceError(f"no vectorized form for {aggregate.name}")

    l, h = window.l, window.h
    if aggregate is MIN:
        return _sliding_extrema(values, l, h, np.minimum)
    if aggregate is MAX:
        return _sliding_extrema(values, l, h, np.maximum)
    if aggregate is SUM:
        return _sliding_sums(values, l, h)
    if aggregate in (AVG, COUNT):
        positions = np.arange(1.0, n + 1)
        counts = np.minimum(positions + h, n) - np.maximum(positions - l, 1) + 1
        if aggregate is COUNT:
            return counts
        return _sliding_sums(values, l, h) / counts
    raise SequenceError(f"no vectorized form for {aggregate.name}")
