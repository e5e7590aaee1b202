"""Incremental maintenance of materialized sequence views (paper section 2.3).

A data warehouse keeps sequence views materialized; when base data changes,
recomputing the whole view is wasteful because a point change only affects
the ``w = l + h + 1`` sequence values whose windows contain the touched raw
position (plus a positional shift for insert/delete).  For a sliding window
``(l, h)`` and a write at raw position ``k``, with ``x̃`` the old and ``x̃'``
the new sequence:

* positions ``i < k - h`` keep their values;
* positions ``k - h .. k + l`` — the band — change;
* positions ``i > k + l`` keep their values too, an insert moving them one
  position right (``x̃'_i = x̃_{i-1}``), a delete one left
  (``x̃'_i = x̃_{i+1}``).

For a cumulative window the band is ``k .. n``.  Each write therefore edits
the raw list, recomputes the band from raw values with
:meth:`~repro.core.sequence.SequenceSpec.values` — the evaluator refresh
uses, so a maintained sequence holds exactly the bits of a refresh — and
splices the band between the kept prefix and the shifted suffix into a new
value array (one ``np.concatenate``; the old array is never edited, so a
copy sharing it keeps its values).  That is
``O(w)`` values of ``O(w)`` additions each, for every aggregate and for
complete and incomplete sequences alike.  DESIGN.md §5 says why the paper's
per-aggregate delta rules are not used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.complete import CompleteSequence
from repro.core.sequence import SequenceSpec
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
        values_touched: sequence values recomputed from raw data (the band).
        values_shifted: values that merely moved to a neighbouring position.
    """

    operation: str
    position: int
    values_touched: int
    values_shifted: int


def _check_position(seq: CompleteSequence, k: int, *, insert: bool = False) -> None:
    upper = seq.n + 1 if insert else seq.n
    if not 1 <= k <= upper:
        raise MaintenanceError(
            f"position {k} outside valid range 1..{upper} (n={seq.n})"
        )


def _splice(
    raw: List[float], seq: CompleteSequence, operation: str, k: int
) -> MaintenanceResult:
    """Recompute the band around raw position ``k`` — ``raw`` already
    edited, ``seq`` still holding the old values — and splice it in place
    of the old band, between the values before it and the values after it
    (which move one position when ``raw`` grew or shrank)."""
    shift = len(raw) - seq.n  # +1 insert, -1 delete, 0 update
    first, last = seq.stored_range
    last += shift
    lo, hi = seq.window.band(k, first, last)
    band = SequenceSpec(seq.window, seq.aggregate).values(raw, lo, hi)
    start, stop = lo - first, hi + 1 - shift - first
    old = seq._values
    seq._replace_values(len(raw), np.concatenate((old[:start], band, old[stop:])))
    return MaintenanceResult(operation, k, len(band), (last - hi) if shift else 0)


def apply_update(
    raw: List[float],
    seq: CompleteSequence,
    k: int,
    v: float,
) -> MaintenanceResult:
    """Apply ``x_k := v`` to the raw data and the materialized sequence."""
    _check_position(seq, k)
    raw[k - 1] = v
    return _splice(raw, seq, "update", k)


def apply_insert(
    raw: List[float],
    seq: CompleteSequence,
    k: int,
    v: float,
) -> MaintenanceResult:
    """Insert raw value ``v`` at position ``k``; old positions ``>= k`` shift right."""
    _check_position(seq, k, insert=True)
    raw.insert(k - 1, v)
    return _splice(raw, seq, "insert", k)


def apply_delete(
    raw: List[float],
    seq: CompleteSequence,
    k: int,
) -> MaintenanceResult:
    """Delete raw position ``k``; old positions ``> k`` shift left."""
    _check_position(seq, k)
    del raw[k - 1]
    return _splice(raw, seq, "delete", k)
