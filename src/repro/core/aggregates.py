"""Aggregation functions used by reporting-function sequences.

The paper (section 2.1) considers the standard SQL aggregates SUM, COUNT,
AVG, MIN, MAX and observes:

* COUNT is trivial (a constant for sliding windows, the position for
  cumulative ones);
* AVG is derived from SUM and COUNT;
* SUM is *invertible* (has a subtraction), enabling the pipelined
  computation, the incremental maintenance rules, and both derivation
  algorithms;
* MIN/MAX are only *semi-algebraic*: duplicate-insensitive (idempotent under
  overlap), so MaxOA applies, but not invertible, so MinOA does not.

:class:`Aggregate` captures these traits so the algorithm layer can test
``agg.invertible`` / ``agg.duplicate_insensitive`` instead of special-casing
names.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Optional

from repro.errors import SequenceError

__all__ = [
    "Aggregate",
    "SUM",
    "COUNT",
    "AVG",
    "MIN",
    "MAX",
    "by_name",
    "ALL_AGGREGATES",
]


@dataclass(frozen=True)
class Aggregate:
    """A SQL aggregation function together with its algebraic traits.

    Attributes:
        name: SQL name (``"SUM"``, ...).
        identity: neutral element returned for an empty input window, or
            ``None`` when the SQL result for an empty window is NULL
            (MIN/MAX/AVG).
        invertible: True when the aggregate forms a group (supports
            subtraction of contributions) — SUM and COUNT.
        duplicate_insensitive: True when aggregating a value twice does not
            change the result — MIN and MAX.  This is the property MaxOA
            exploits for overlapping covers.
        combine: binary combination of two partial results.
    """

    name: str
    identity: Optional[float]
    invertible: bool
    duplicate_insensitive: bool
    combine: Callable[[float, float], float]

    def apply(self, values: Iterable[float]) -> Optional[float]:
        """Aggregate an iterable of raw values (SQL semantics for empty input)."""
        values = list(values)
        if self.name in ("SUM", "AVG"):
            # Left to right onto 0.0: the builtin sum() is compensated from
            # CPython 3.12 on, so its last bits depend on the interpreter.
            total = reduce(_add, values, 0.0)
            if self.name == "SUM":
                return total
            return total / len(values) if values else None
        if self.name == "COUNT":
            return float(len(values))
        if self.name in ("MIN", "MAX"):
            return reduce(self.combine, values) if values else None
        raise SequenceError(f"unknown aggregate {self.name!r}")

    def subtract(self, total: float, part: float) -> float:
        """Remove a contribution from a partial result (invertible aggregates)."""
        if not self.invertible:
            raise SequenceError(f"{self.name} is not invertible")
        return total - part

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def _add(a: float, b: float) -> float:
    return a + b


def _keeping_nan(pick: Callable[[float, float], float]) -> Callable[[float, float], float]:
    """``pick`` (min or max) of two values where the first NaN operand
    propagates, as in NumPy's minimum and maximum (the window kernel's)."""
    return lambda a, b: a if a != a else b if b != b else pick(a, b)


SUM = Aggregate("SUM", identity=0.0, invertible=True, duplicate_insensitive=False, combine=_add)
COUNT = Aggregate("COUNT", identity=0.0, invertible=True, duplicate_insensitive=False, combine=_add)
# AVG is handled by derivation from SUM and COUNT wherever derivation matters;
# apply() still evaluates it directly for native computation.
AVG = Aggregate("AVG", identity=None, invertible=False, duplicate_insensitive=False, combine=_add)
MIN = Aggregate("MIN", identity=None, invertible=False, duplicate_insensitive=True,
                combine=_keeping_nan(min))
MAX = Aggregate("MAX", identity=None, invertible=False, duplicate_insensitive=True,
                combine=_keeping_nan(max))

ALL_AGGREGATES = (SUM, COUNT, AVG, MIN, MAX)
_BY_NAME = {agg.name: agg for agg in ALL_AGGREGATES}


def by_name(name: str) -> Aggregate:
    """Look up an aggregate by (case-insensitive) SQL name.

    Raises:
        SequenceError: for names outside SUM/COUNT/AVG/MIN/MAX.
    """
    try:
        return _BY_NAME[name.upper()]
    except KeyError:
        raise SequenceError(
            f"unknown aggregate {name!r}; expected one of "
            f"{sorted(_BY_NAME)}"
        ) from None
