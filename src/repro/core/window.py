"""Window specifications for reporting-function sequences (paper section 2.1).

A *window specification* fixes, for every sequence position ``k``, the range
of raw-data positions that contribute to the sequence value at ``k``.  The
paper distinguishes two shapes:

* **cumulative** windows — ``wL(k) = 0`` and ``wH(k) = k``; the window grows
  with the position (Year-To-Date style queries);
* **sliding** windows — ``wL(k) = k - l`` and ``wH(k) = k + h`` for constants
  ``l, h >= 0``; the window has the fixed size ``W = l + h + 1`` (moving
  averages, smoothing).

Both correspond to SQL ``ROWS`` frames of the ``OVER()`` clause:

=====================  ==========================================
window                 SQL frame
=====================  ==========================================
``cumulative()``       ``ROWS UNBOUNDED PRECEDING``
``sliding(l, h)``      ``ROWS BETWEEN l PRECEDING AND h FOLLOWING``
``sliding(0, h)``      ``ROWS BETWEEN CURRENT ROW AND h FOLLOWING``
``sliding(l, 0)``      ``ROWS BETWEEN l PRECEDING AND CURRENT ROW``
=====================  ==========================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.errors import WindowError

__all__ = ["WindowSpec", "sliding", "cumulative"]


_CUMULATIVE = "cumulative"
_SLIDING = "sliding"


@dataclass(frozen=True)
class WindowSpec:
    """Shape of a reporting-function window.

    Instances are created through :meth:`sliding` / :meth:`cumulative` (or
    the module-level helpers of the same names) and are immutable and
    hashable, so they can key caches and view catalogs.

    Attributes:
        kind: ``"sliding"`` or ``"cumulative"``.
        l: number of preceding rows included (sliding windows only).
        h: number of following rows included (sliding windows only).
    """

    kind: str
    l: int = 0
    h: int = 0

    # -- constructors -------------------------------------------------------

    @staticmethod
    def sliding(l: int, h: int, *, allow_point: bool = False) -> "WindowSpec":
        """A sliding window ``(l, h)``: rows ``k-l .. k+h`` contribute to ``k``.

        The paper's footnote in section 2.1 assumes ``l >= 0``, ``h >= 0`` and
        ``l + h > 0``.  The degenerate *point window* ``(0, 0)`` (the identity
        sequence) is used internally by raw-data reconstruction; pass
        ``allow_point=True`` to permit it.

        Raises:
            WindowError: if the bounds violate the paper's assumptions.
        """
        if l < 0 or h < 0:
            raise WindowError(
                f"sliding window bounds must be non-negative, got (l={l}, h={h})"
            )
        if l + h == 0 and not allow_point:
            raise WindowError(
                "sliding window (0, 0) is the identity window; the paper "
                "requires l + h > 0 (pass allow_point=True to permit it)"
            )
        return WindowSpec(_SLIDING, l, h)

    @staticmethod
    def cumulative() -> "WindowSpec":
        """A cumulative window: rows ``1 .. k`` contribute to position ``k``."""
        return WindowSpec(_CUMULATIVE)

    @staticmethod
    def point() -> "WindowSpec":
        """The identity window ``(0, 0)``; each value maps to itself."""
        return WindowSpec(_SLIDING, 0, 0)

    def __post_init__(self) -> None:
        if self.kind not in (_CUMULATIVE, _SLIDING):
            raise WindowError(f"unknown window kind {self.kind!r}")
        if self.kind == _CUMULATIVE and (self.l or self.h):
            raise WindowError("cumulative windows take no (l, h) bounds")

    # -- classification ------------------------------------------------------

    @property
    def is_cumulative(self) -> bool:
        return self.kind == _CUMULATIVE

    @property
    def is_sliding(self) -> bool:
        return self.kind == _SLIDING

    @property
    def is_point(self) -> bool:
        """True for the identity window ``(0, 0)``."""
        return self.kind == _SLIDING and self.l == 0 and self.h == 0

    @property
    def is_left_bounded(self) -> bool:
        """Paper: a sequence is left-bounded if no preceding value contributes."""
        return self.kind == _SLIDING and self.l == 0

    @property
    def is_right_bounded(self) -> bool:
        """Paper: a sequence is right-bounded if no following value contributes."""
        return self.kind == _SLIDING and self.h == 0

    # -- window algebra ------------------------------------------------------

    def bounds(self, k: int) -> Tuple[int, int]:
        """``(wL(k), wH(k))`` — inclusive raw-data bounds at position ``k``.

        For cumulative windows the paper defines ``wL(k) = 0``; since raw
        values are zero outside ``1..n`` this is equivalent to starting at 1.
        """
        if self.kind == _CUMULATIVE:
            return (0, k)
        return (k - self.l, k + self.h)

    def band(self, k: int, first: int, last: int) -> Tuple[int, int]:
        """The positions of ``first .. last`` whose windows hold raw position
        ``k``, the values a write at ``k`` changes (paper section 2.3):
        ``k - h .. k + l`` sliding, ``k .. last`` cumulative."""
        if self.kind == _CUMULATIVE:
            return (max(first, k), last)
        return (max(first, k - self.h), min(last, k + self.l))

    def size(self, k: int) -> int:
        """Window size ``W(k) = 1 + wH(k) - wL(k)`` at position ``k``."""
        lo, hi = self.bounds(k)
        return 1 + hi - lo

    @property
    def width(self) -> int:
        """Constant window size ``W = l + h + 1`` (sliding windows only)."""
        if self.kind != _SLIDING:
            raise WindowError("cumulative windows have no constant width")
        return self.l + self.h + 1

    def header_span(self) -> int:
        """Number of *interesting* header positions (``-h+1 .. 0`` → ``h``).

        Header positions further left only aggregate zeros (section 3.2,
        fig. 7), so a complete sequence materializes exactly this many.
        Cumulative windows need no header (their value at ``k <= 0`` is 0).
        """
        return self.h if self.kind == _SLIDING else 0

    def trailer_span(self) -> int:
        """Number of interesting trailer positions (``n+1 .. n+l`` → ``l``).

        A complete *cumulative* sequence conceptually has the constant
        trailer ``x̃_n``; it is derivable from position ``n`` and therefore
        never materialized.
        """
        return self.l if self.kind == _SLIDING else 0

    # -- SQL rendering -------------------------------------------------------

    def to_frame_sql(self) -> str:
        """Render as the SQL ``ROWS`` frame of an ``OVER()`` clause."""
        if self.kind == _CUMULATIVE:
            return "ROWS UNBOUNDED PRECEDING"
        lo = "CURRENT ROW" if self.l == 0 else f"{self.l} PRECEDING"
        hi = "CURRENT ROW" if self.h == 0 else f"{self.h} FOLLOWING"
        if self.h == 0 and self.l > 0:
            return f"ROWS {lo}"
        return f"ROWS BETWEEN {lo} AND {hi}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.kind == _CUMULATIVE:
            return "cumulative"
        return f"sliding({self.l}, {self.h})"


def sliding(l: int, h: int, *, allow_point: bool = False) -> WindowSpec:
    """Shorthand for :meth:`WindowSpec.sliding`."""
    return WindowSpec.sliding(l, h, allow_point=allow_point)


def cumulative() -> WindowSpec:
    """Shorthand for :meth:`WindowSpec.cumulative`."""
    return WindowSpec.cumulative()
