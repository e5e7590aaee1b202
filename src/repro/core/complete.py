"""Complete simple sequences: header and trailer (paper section 3.2, fig. 7).

Definition (Complete Simple Sequence, CSS): a simple sequence is *complete*
if its representation exhibits a *header* (sequence values for positions
``-inf .. 0``) and a *trailer* (positions ``n+1 .. inf``).

Only finitely many of those values are interesting: raw data ``x_1 .. x_n``
still contributes to positions ``-h+1 .. 0`` and ``n+1 .. n+l``; everything
further out aggregates the empty window (0 under SUM semantics).
:class:`CompleteSequence` therefore materializes exactly the positions
``1-h .. n+l`` and *extrapolates* all other positions, giving a total
function ``value(k)`` over the integers — precisely what the derivation
algorithms (sections 3-5) require.

A sequence built with ``complete=False`` stores only positions ``1 .. n``
and raises :class:`~repro.errors.IncompleteSequenceError` when a derivation
touches a missing header/trailer value; the view matcher uses this to refuse
underivable rewrites.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.aggregates import SUM, Aggregate
from repro.core.sequence import SequenceSpec
from repro.core.window import WindowSpec
from repro.errors import IncompleteSequenceError, SequenceError

__all__ = ["CompleteSequence", "frozen", "strided_cumsum"]


def strided_cumsum(x: np.ndarray, period: int) -> np.ndarray:
    """``out[..., i] = x[..., i] + out[..., i - period]``, with ``out`` zero
    before index 0, along the last axis.

    The period-``Wx`` recurrences of sections 3-5 (``z̃ᴸ``/``z̃ᴴ``, MinOA's
    ``P_j``, raw reconstruction) run independently per residue class
    ``i mod period``.  Reshaped to ``(-1, period)`` a class is a column and
    its recurrence one sequential ``cumsum``: the scalar loop's additions in
    the scalar loop's order, hence bit-identical to it (row by row, for the
    stacked values of a length class).
    """
    lead, m = x.shape[:-1], x.shape[-1]
    rows = -(-m // period)
    padded = np.zeros(lead + (rows * period,))
    padded[..., :m] = x
    stacked = np.cumsum(padded.reshape(lead + (rows, period)), axis=-2)
    return stacked.reshape(lead + (-1,))[..., :m]


def frozen(x: np.ndarray) -> np.ndarray:
    """``x``, made read-only: a derived column may be a view of a
    sequence's stored array (:meth:`CompleteSequence.span`), so none is
    handed out writable."""
    x.flags.writeable = False
    return x


class CompleteSequence:
    """Materialized sequence values including header and trailer.

    The canonical constructor is :meth:`from_raw`; :meth:`from_values` wraps
    already-computed values (e.g. read back from a warehouse table).

    Instances are mutable only through the maintenance functions in
    :mod:`repro.core.maintenance`.
    """

    def __init__(
        self,
        window: WindowSpec,
        aggregate: Aggregate,
        n: int,
        values: Sequence[float],
        complete: bool = True,
    ) -> None:
        if n < 0:
            raise SequenceError(f"sequence cardinality must be >= 0, got {n}")
        self.window = window
        self.aggregate = aggregate
        self._n = n
        self._complete = complete
        expected = self._last() - self._first() + 1
        if len(values) != expected:
            raise SequenceError(
                f"expected {expected} stored values for positions "
                f"{self._first()}..{self._last()}, got {len(values)}"
            )
        # One read-only float64 array holds the values: the derivation
        # kernels read views of it (span), and maintenance replaces it with a
        # new one rather than editing it (core.maintenance._splice).
        self._values = frozen(np.array(values, dtype=np.float64))

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_raw(
        cls,
        raw: Sequence[float],
        window: WindowSpec,
        aggregate: Aggregate = SUM,
        *,
        complete: bool = True,
    ) -> "CompleteSequence":
        """Compute a (complete) sequence over raw values ``x_1 .. x_n``."""
        n = len(raw)
        spec = SequenceSpec(window, aggregate)
        if complete:
            first = 1 - window.header_span()
            last = n + window.trailer_span()
        else:
            first, last = 1, n
        return cls(window, aggregate, n, spec.values(raw, first, last), complete)

    @classmethod
    def from_values(
        cls,
        window: WindowSpec,
        aggregate: Aggregate,
        n: int,
        values_by_position: Sequence[Tuple[int, float]],
        *,
        complete: bool = True,
    ) -> "CompleteSequence":
        """Wrap externally computed ``(position, value)`` pairs.

        The pairs must cover exactly the stored range (``1-h .. n+l`` when
        complete, ``1 .. n`` otherwise), in any order.
        """
        tmp = cls.__new__(cls)
        tmp.window, tmp.aggregate, tmp._n, tmp._complete = window, aggregate, n, complete
        first, last = tmp._first(), tmp._last()
        slots: List[Optional[float]] = [None] * (last - first + 1)
        for pos, val in values_by_position:
            if pos < first or pos > last:
                raise SequenceError(
                    f"position {pos} outside stored range {first}..{last}"
                )
            slots[pos - first] = float(val)
        missing = [first + i for i, v in enumerate(slots) if v is None]
        if missing:
            raise IncompleteSequenceError(
                f"missing sequence values at positions {missing[:5]}"
                + ("..." if len(missing) > 5 else "")
            )
        return cls(window, aggregate, n, [v for v in slots if v is not None], complete)

    # -- stored range --------------------------------------------------------

    def _first(self) -> int:
        if not self._complete:
            return 1
        return 1 - self.window.header_span()

    def _last(self) -> int:
        if not self._complete:
            return self._n
        return self._n + self.window.trailer_span()

    @property
    def n(self) -> int:
        """Cardinality of the underlying raw data."""
        return self._n

    @property
    def is_complete(self) -> bool:
        return self._complete

    @property
    def stored_range(self) -> Tuple[int, int]:
        """Inclusive range of materialized positions."""
        return self._first(), self._last()

    def positions(self) -> Iterator[int]:
        """Iterate over materialized positions in order."""
        return iter(range(self._first(), self._last() + 1))

    def items(self) -> Iterator[Tuple[int, float]]:
        """Iterate over materialized ``(position, value)`` pairs."""
        return zip(self.positions(), self._values.tolist())

    def stored(self, lo: int, hi: int) -> List[float]:
        """The stored values at positions ``lo .. hi``, a range inside
        :attr:`stored_range` (one array slice as a list, no per-position
        call)."""
        first = self._first()
        return self._values[lo - first : hi - first + 1].tolist()

    def core_values(self) -> List[float]:
        """The values at positions ``1 .. n`` (the query-visible part)."""
        first = self._first()
        return self._values[1 - first : 1 - first + self._n].tolist()

    # -- total value function -------------------------------------------------

    def value(self, k: int) -> float:
        """``x̃_k`` for *any* integer ``k`` (SUM/COUNT semantics).

        Positions outside the materialized range extrapolate per the CSS
        definition: 0 for sliding windows (the window no longer intersects
        ``1..n``) and, for cumulative windows, 0 on the left and ``x̃_n`` on
        the right.

        Raises:
            IncompleteSequenceError: if the position lies in the missing
                header/trailer of an incomplete sequence.
        """
        first, last = self._first(), self._last()
        if first <= k <= last:
            return float(self._values[k - first])
        if not self._complete and self._needs_materialized(k):
            raise IncompleteSequenceError(
                f"position {k} requires the sequence header/trailer, but the "
                f"materialized sequence is not complete (stored {first}..{last})"
            )
        return self._extrapolate(k)

    def span(self, lo: int, hi: int) -> np.ndarray:
        """``[x̃_lo .. x̃_hi]`` as float64 — :meth:`value` over a whole range,
        which is what the whole-sequence derivation kernels read (along the
        last axis: one row per partition of a :meth:`stack`).

        Inside the stored range the result is a read-only view of the
        stored array, not a copy.
        Raises :class:`IncompleteSequenceError` exactly where ``value`` does.
        """
        first, last = self._first(), self._last()
        array = self._values
        if first <= lo <= hi + 1 <= last + 1:
            return array[..., lo - first : hi - first + 1]
        if not self._complete:
            # Out of the stored range, an incomplete sequence extrapolates
            # as a complete one does, except over its missing header/trailer.
            need_lo = 1 - self.window.header_span()
            need_hi = self._n + self.window.trailer_span()
            for s, e in ((max(lo, need_lo), min(hi, first - 1)),
                         (max(lo, last + 1), min(hi, need_hi))):
                if s <= e:
                    self.value(s)  # raises, naming the position
        out = np.zeros(array.shape[:-1] + (max(hi - lo + 1, 0),))
        s, e = max(lo, first), min(hi, last)
        if s <= e:
            out[..., s - lo : e - lo + 1] = array[..., s - first : e - first + 1]
        if self.window.is_cumulative and hi > last and self._n:
            # k > n: the running total stays at x̃_n.
            out[..., max(last + 1 - lo, 0) :] = array[..., self._n - first, None]
        return out

    @classmethod
    def stack(cls, seqs: Sequence["CompleteSequence"]) -> "CompleteSequence":
        """Sequences of one window, aggregate, length and completeness as
        one whose stored values are a ``(len(seqs), stored)`` array, row
        ``i`` being ``seqs[i]``'s.  Only :meth:`span` and the attributes
        the whole-sequence derivations read are meaningful on it; a single
        sequence stacks as a zero-copy ``[None, :]`` view."""
        head = seqs[0]
        out = cls.__new__(cls)
        out.window, out.aggregate = head.window, head.aggregate
        out._n, out._complete = head._n, head._complete
        if len(seqs) == 1:
            out._values = head._values[None, :]
        else:
            out._values = frozen(np.stack([seq._values for seq in seqs]))
        return out

    def value_or_none(self, k: int) -> Optional[float]:
        """``x̃_k`` under MIN/MAX semantics: ``None`` where the window is empty.

        MaxOA's MIN/MAX cover must skip shifted values whose window does not
        intersect ``1..n`` instead of treating them as zero.
        """
        lo, hi = self.window.bounds(k)
        if hi < 1 or lo > self._n:
            return None
        return self.value(k)

    def _needs_materialized(self, k: int) -> bool:
        """Would a complete sequence have materialized position ``k``?"""
        return (1 - self.window.header_span()) <= k <= (
            self._n + self.window.trailer_span()
        )

    def _extrapolate(self, k: int) -> float:
        if self.window.is_cumulative:
            if k <= 0:
                return 0.0
            # k > n: the running total stays at x̃_n.
            return float(self._values[self._n - self._first()]) if self._n else 0.0
        return 0.0

    # -- mutation hooks (used by repro.core.maintenance only) -----------------

    def _replace_values(self, n: int, values: Sequence[float]) -> None:
        """Install maintenance's new values as the stored array (read-only;
        a float64 array is taken as it is, not copied)."""
        self._n = n
        expected = self._last() - self._first() + 1
        if len(values) != expected:
            raise SequenceError(
                f"maintenance produced {len(values)} values, expected {expected}"
            )
        self._values = frozen(np.asarray(values, dtype=np.float64))

    def __setstate__(self, state: dict) -> None:
        # Deep copies and pickles rebuild the array writeable.
        self.__dict__.update(state)
        frozen(self._values)

    # -- comparison / debugging ------------------------------------------------

    def to_list(self) -> List[float]:
        """Copy of all stored values, ordered by position."""
        return self._values.tolist()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompleteSequence):
            return NotImplemented
        return (
            self.window == other.window
            and self.aggregate.name == other.aggregate.name
            and self._n == other._n
            and self._complete == other._complete
            and np.array_equal(self._values, other._values)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "complete" if self._complete else "incomplete"
        return (
            f"CompleteSequence({self.aggregate.name} over {self.window}, "
            f"n={self._n}, {kind})"
        )
