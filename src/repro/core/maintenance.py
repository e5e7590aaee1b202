"""Incremental maintenance of materialized sequence views (paper section 2.3).

A data warehouse keeps sequence views materialized; when base data changes,
recomputing the whole view is wasteful because a point change only affects
the ``w = l + h + 1`` sequence values whose windows contain the touched raw
position (plus a positional shift for insert/delete).  The paper gives rules
for the three modification types; this module implements them for sliding
and cumulative windows.

The published formulas are partially garbled by OCR in the available text;
the rules below are re-derived from the window definition and are verified
against full recomputation by property tests
(``tests/properties/test_prop_maintenance.py``).  For a sliding window
``(l, h)`` over raw data ``x`` with sequence ``x̃``:

* **update** ``x_k := v``: ``x̃'_i = x̃_i + (v - x_k)`` for
  ``k-h <= i <= k+l``; all other values unchanged.
* **insert** value ``v`` at position ``k`` (old positions ``>= k`` shift
  right)::

      x̃'_i = x̃_i                        i < k-h
      x̃'_i = x̃_i     + v - x_{i+h}      k-h <= i < k
      x̃'_i = x̃_{i-1} + v - x_{i-l-1}    k   <= i <= k+l
      x̃'_i = x̃_{i-1}                    i > k+l

* **delete** position ``k`` (old positions ``> k`` shift left)::

      x̃'_i = x̃_i                        i < k-h
      x̃'_i = x̃_i     - x_k + x_{i+h+1}  k-h <= i < k
      x̃'_i = x̃_{i+1} - x_k + x_{i-l}    k   <= i < k+l
      x̃'_i = x̃_{i+1}                    i >= k+l

MIN/MAX views follow the paper's footnote (``min(x̃_i, v)`` when the change
can only lower the extremum) and fall back to recomputing the affected band
otherwise — the rules stay *local* either way.

Each function mutates the raw list and the :class:`CompleteSequence` in
place and returns a :class:`MaintenanceResult` with locality statistics.

The MIN/MAX fallback recomputes up to ``w`` windows explicitly — O(w²) raw
touches for wide windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.aggregates import MAX, MIN, SUM, Aggregate
from repro.core.complete import CompleteSequence
from repro.core.sequence import SequenceSpec, raw_value
from repro.errors import MaintenanceError

__all__ = [
    "MaintenanceResult",
    "apply_update",
    "apply_insert",
    "apply_delete",
]

@dataclass(frozen=True)
class MaintenanceResult:
    """Locality statistics of one incremental maintenance step.

    Attributes:
        operation: ``"update"`` / ``"insert"`` / ``"delete"``.
        position: raw-data position that was modified.
        values_adjusted: sequence values changed by an O(1) formula.
        values_recomputed: sequence values recomputed from raw data (only
            MIN/MAX fallbacks; 0 for SUM/COUNT/AVG).
        values_shifted: values that merely moved to a neighbouring position.
    """

    operation: str
    position: int
    values_adjusted: int
    values_recomputed: int
    values_shifted: int

    @property
    def values_touched(self) -> int:
        return self.values_adjusted + self.values_recomputed


def _check_position(seq: CompleteSequence, k: int, *, insert: bool = False) -> None:
    upper = seq.n + 1 if insert else seq.n
    if not 1 <= k <= upper:
        raise MaintenanceError(
            f"position {k} outside valid range 1..{upper} (n={seq.n})"
        )


def _is_minmax(agg: Aggregate) -> bool:
    return agg.duplicate_insensitive


def _band(seq: CompleteSequence, k: int) -> range:
    """Stored positions whose window contains raw position ``k``."""
    first, last = seq.stored_range
    if seq.window.is_cumulative:
        return range(max(k, first), last + 1)
    lo = max(k - seq.window.h, first)
    hi = min(k + seq.window.l, last)
    return range(lo, hi + 1)


def apply_update(
    raw: List[float],
    seq: CompleteSequence,
    k: int,
    v: float,
) -> MaintenanceResult:
    """Apply ``x_k := v`` to the raw data and the materialized sequence."""
    _check_position(seq, k)
    old = raw[k - 1]
    band = _band(seq, k)
    first, _ = seq.stored_range
    values = seq.to_list()

    if _is_minmax(seq.aggregate):
        spec = SequenceSpec(seq.window, seq.aggregate)
        raw[k - 1] = v
        recomputed = 0
        for i in band:
            cur = values[i - first]
            improves = v <= cur if seq.aggregate is MIN else v >= cur
            if improves:
                # The footnote rule: the new value can only sharpen the extremum.
                values[i - first] = v
            elif old == cur:
                # The old extremum may have been x_k itself: recompute window.
                values[i - first] = spec.value_at(raw, i)
                recomputed += 1
            # else: extremum determined by other window members; unchanged.
        seq._replace_values(seq.n, values)
        return MaintenanceResult("update", k, len(band) - recomputed, recomputed, 0)

    delta = v - old
    raw[k - 1] = v
    lo, hi = band.start - first, band.stop - first
    values[lo:hi] = (np.asarray(values[lo:hi]) + delta).tolist()
    seq._replace_values(seq.n, values)
    return MaintenanceResult("update", k, len(band), 0, 0)


def apply_insert(
    raw: List[float],
    seq: CompleteSequence,
    k: int,
    v: float,
) -> MaintenanceResult:
    """Insert raw value ``v`` at position ``k``; old positions ``>= k`` shift right."""
    _check_position(seq, k, insert=True)
    window, agg = seq.window, seq.aggregate
    n_new = seq.n + 1
    old_value = seq.value  # total function over old positions

    if window.is_cumulative:
        # Positions 1..k-1 keep their totals, k..n+1 take their left
        # neighbour's plus v (x̃_0 = 0): a slice and one array add.
        old = seq.to_list()
        shifted = np.asarray([0.0] + old if k == 1 else old[k - 2:])
        new_values = old[: k - 1] + (shifted + v).tolist()
        raw.insert(k - 1, v)
        seq._replace_values(n_new, new_values)
        return MaintenanceResult("insert", k, n_new - k + 1, 0, 0)

    l, h = window.l, window.h
    first = 1 - window.header_span()
    last_new = n_new + window.trailer_span()
    old_value(first), old_value(last_new - 1)  # an incomplete sequence raises here
    old = seq.to_list()
    # Positions before the band keep their values, positions after it take
    # their left neighbour's: two list slices, whatever the sequence length.
    band = range(max(k - h, first), min(k + l, last_new) + 1)
    new_values: List[float] = old[: band.start - first]
    suffix = old[band.stop - 1 - first :]
    adjusted = recomputed = 0
    shifted = len(suffix)
    minmax = _is_minmax(agg)
    spec = SequenceSpec(window, agg)
    raw_new = raw[: k - 1] + [v] + raw[k - 1 :]

    for i in band:
        if minmax:
            new_values.append(spec.value_at(raw_new, i))
            recomputed += 1
        elif i < k:
            new_values.append(old_value(i) + v - raw_value(raw, i + h))
            adjusted += 1
        else:  # k <= i <= k + l
            new_values.append(old_value(i - 1) + v - raw_value(raw, i - l - 1))
            adjusted += 1
    new_values += suffix
    raw.insert(k - 1, v)
    seq._replace_values(n_new, new_values)
    return MaintenanceResult("insert", k, adjusted, recomputed, shifted)


def apply_delete(
    raw: List[float],
    seq: CompleteSequence,
    k: int,
) -> MaintenanceResult:
    """Delete raw position ``k``; old positions ``> k`` shift left."""
    _check_position(seq, k)
    window, agg = seq.window, seq.aggregate
    n_new = seq.n - 1
    old_value = seq.value
    xk = raw[k - 1]

    if window.is_cumulative:
        # Positions 1..k-1 keep their totals, k..n-1 take their right
        # neighbour's minus x_k: a slice and one array subtraction.
        old = seq.to_list()
        new_values = old[: k - 1] + (np.asarray(old[k:]) - xk).tolist()
        del raw[k - 1]
        seq._replace_values(n_new, new_values)
        return MaintenanceResult("delete", k, max(n_new - k + 1, 0), 0, 0)

    l, h = window.l, window.h
    first = 1 - window.header_span()
    last_new = n_new + window.trailer_span()
    old_value(first), old_value(last_new + 1)  # an incomplete sequence raises here
    old = seq.to_list()
    # As in apply_insert: a prefix slice, the band, and a slice of the
    # values that move one position left.
    band = range(max(k - h, first), min(k + l - 1, last_new) + 1)
    new_values: List[float] = old[: band.start - first]
    suffix = old[band.stop + 1 - first :]
    adjusted = recomputed = 0
    shifted = len(suffix)
    minmax = _is_minmax(agg)
    spec = SequenceSpec(window, agg)
    raw_new = raw[: k - 1] + raw[k:]

    for i in band:
        if minmax:
            new_values.append(spec.value_at(raw_new, i))
            recomputed += 1
        elif i < k:
            new_values.append(old_value(i) - xk + raw_value(raw, i + h + 1))
            adjusted += 1
        else:  # k <= i < k + l
            new_values.append(old_value(i + 1) - xk + raw_value(raw, i - l))
            adjusted += 1
    new_values += suffix
    del raw[k - 1]
    seq._replace_values(n_new, new_values)
    return MaintenanceResult("delete", k, adjusted, recomputed, shifted)
