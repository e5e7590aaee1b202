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

A partitioned input is one flat array cut by segment offsets.  Every form
above acts on the last axis, so the segments of one length run as the rows
of one 2-D array, in blocks of about :data:`BLOCK` values: one kernel run
per distinct partition length (and block), not per partition (DESIGN.md
§5m, "segments and length classes").
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.aggregates import AVG, COUNT, MAX, MIN, SUM, Aggregate
from repro.core.window import WindowSpec
from repro.errors import SequenceError

__all__ = ["BLOCK", "compute_vectorized", "length_classes"]


def _sliding_sums(values: np.ndarray, l: int, h: int) -> np.ndarray:
    """The sliding-SUM recurrence as one sequential cumulative sum per row."""
    n = values.shape[-1]
    seed = min(1 + h, n)  # x̃_1 = 0.0 + x_1 + ... + x_{1+h}, left to right
    # The leading 0.0 is the sum's start, as in a sum onto 0.0 (the view
    # route's): a window of -0.0 sums to +0.0, and nothing else changes.
    steps = np.zeros(values.shape[:-1] + (1 + seed + 2 * (n - 1),))
    steps[..., 1 : seed + 1] = values[..., :seed]
    # Step k adds the entering x_{k+h} (0.0 past the data) ...
    steps[..., seed + 1 : seed + 1 + 2 * max(n - 1 - h, 0) : 2] = values[..., h + 1 :]
    # ... then subtracts the leaving x_{k-l-1} (-0.0 before the data, which
    # like the recurrence's "- 0.0" leaves every accumulator unchanged).
    leaving = steps[..., seed + 2 :: 2]
    leaving[..., l:] = values[..., : max(n - 1 - l, 0)]
    np.negative(leaving, out=leaving)
    return np.cumsum(steps, axis=-1)[..., seed :: 2]


def _sliding_extrema(values: np.ndarray, l: int, h: int, ufunc) -> np.ndarray:
    """Sliding MIN/MAX in O(n) per row: van Herk's block prefix/suffix scans.

    Padded with the neutral extreme, position ``i``'s window is
    ``padded[i : i + w]``.  It spans at most two blocks of ``w``: the
    suffix of the block holding ``i`` and the prefix of the next one up to
    ``i + w - 1``.
    """
    lead, n = values.shape[:-1], values.shape[-1]
    # Frames reach no further than the data; clipping keeps this O(n) for
    # frames wider than the sequence.
    l, h = min(l, n - 1), min(h, n - 1)
    w = l + h + 1
    blocks = -(-(n + w - 1) // w)
    padded = np.full(lead + (blocks * w,), np.inf if ufunc is np.minimum else -np.inf)
    padded[..., l : l + n] = values
    grid = padded.reshape(lead + (blocks, w))
    prefix = ufunc.accumulate(grid, axis=-1).reshape(lead + (-1,))
    suffix = ufunc.accumulate(grid[..., ::-1], axis=-1)[..., ::-1].reshape(lead + (-1,))
    return ufunc(suffix[..., :n], prefix[..., w - 1 : w - 1 + n])


def compute_vectorized(
    raw: Sequence[float],
    window: WindowSpec,
    aggregate: Aggregate = SUM,
    offsets: Optional[np.ndarray] = None,
    order: Optional[np.ndarray] = None,
) -> Union[List[float], np.ndarray]:
    """Compute ``[x̃_1 .. x̃_n]`` with NumPy bulk operations.

    ``offsets`` (ascending, starting at 0) cut ``raw`` into segments — the
    partitions of a sorted window input — and each segment is a sequence of
    its own: the result is every segment's ``x̃`` in place, one flat array.
    Segments of one length run together as the rows of one 2-D array
    (:func:`length_classes`); a row repeats the 1-D operations in the 1-D
    order, so each segment's bits are those of a call over it alone.  One
    segment (or no ``offsets``) runs over ``raw`` directly, uncopied.

    ``order`` (a permutation of ``raw``'s positions) reads the sequence
    through it — the window operator's sort order over its input rows —
    and writes each ``x̃`` back to the position it was read from: the same
    values as ``compute_vectorized(raw[order], ...)`` scattered to
    ``order``, gathered and scattered a block at a time, in cache.

    A caller that hands in an ``ndarray`` gets one back (the window
    operator scatters it into its output column); any other sequence comes
    back as a list of Python floats.

    Raises:
        SequenceError: on empty input (the strategies' shared contract).
    """
    if len(raw) == 0:
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
    out = np.empty(len(values))
    if offsets is None or len(offsets) <= 1:  # one sequence: the 1-D kernel
        if order is None:
            out = _kernel(values, window, aggregate)
        else:
            out[order] = _kernel(values[order], window, aggregate)
    else:
        for length, starts in length_classes(offsets, len(values)):
            if starts[-1] - starts[0] == (len(starts) - 1) * length:  # adjacent segments
                rows = np.s_[starts[0] : starts[-1] + length]
            else:
                rows = starts[:, None] + np.arange(length)
            if order is not None:
                rows = order[rows].reshape(-1, length)
            if isinstance(rows, slice):  # views, no gather or scatter
                out[rows].reshape(-1, length)[...] = _kernel(
                    values[rows].reshape(-1, length), window, aggregate)
            else:
                out[rows] = _kernel(values[rows], window, aggregate)
    return out if isinstance(raw, np.ndarray) else out.tolist()


#: Values per 2-D kernel run: a run's passes stay in cache, so a class of
#: large partitions runs in blocks of rows, not as one array per pass.
BLOCK = 1 << 15


def length_classes(offsets: np.ndarray, n: int) -> List[Tuple[int, np.ndarray]]:
    """The segments that ``offsets`` cut from ``n`` positions, grouped by
    exact length into kernel runs: ``(length, start offsets)``, shortest
    first, starts ascending; one run per distinct length, split into blocks
    of about :data:`BLOCK` values (never splitting a segment).

    Exact lengths, not padding to a common one: a zero-padded SUM row is no
    longer the 1-D operation sequence (``-0.0 + 0.0`` is ``+0.0``)."""
    offsets = np.asarray(offsets, dtype=np.intp)
    if len(offsets) == 1:  # one segment, one run (the unpartitioned query)
        return [(n - int(offsets[0]), offsets)]
    lengths = np.diff(offsets, append=n)
    by_length = np.argsort(lengths, kind="stable")
    ordered = lengths[by_length]
    cuts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    runs = []
    for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), len(ordered)]):
        length = int(ordered[lo])
        step = max(1, BLOCK // max(length, 1))
        runs += [(length, offsets[by_length[at : min(at + step, hi)]])
                 for at in range(lo, hi, step)]
    return runs


def _kernel(values: np.ndarray, window: WindowSpec, aggregate: Aggregate) -> np.ndarray:
    """``window``'s aggregate along the last axis of ``values`` (COUNT,
    the same for every row, comes back 1-D: assignment broadcasts it)."""
    n = values.shape[-1]
    if window.is_cumulative:
        if aggregate in (SUM, AVG):
            # "+= 0.0" turns a -0.0 sum into +0.0 and leaves every other
            # value as it is: a sum onto 0.0 (the view route's) is never -0.0.
            sums = np.cumsum(values, axis=-1)
            sums += 0.0
            return sums if aggregate is SUM else sums / np.arange(1, n + 1)
        if aggregate is COUNT:
            return np.arange(1, n + 1, dtype=np.float64)
        if aggregate is MIN:
            return np.minimum.accumulate(values, axis=-1)
        if aggregate is MAX:
            return np.maximum.accumulate(values, axis=-1)
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
