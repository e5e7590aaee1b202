"""Seeded random reporting-function cases.

A :class:`FuzzCase` bundles one dataset with one query.  The generator is
fully deterministic: the same seed always produces the same case, and the
seed rides along in the case, every discrepancy record, and the JSON fuzz
report, so a CI failure replays locally with nothing but the seed.

The dataset deliberately includes the spots where window rewrites go wrong:

* NULL measures (the engine's documented semantics: an absent measure
  counts as 0 — the oracle mirrors this with ``COALESCE``);
* duplicated values (ties) including exact zeros and sign flips;
* tiny partitions (1-2 rows) where the window clips at both the header and
  trailer edge simultaneously;
* partitions of equal length, which the engine evaluates together as one
  length class;
* sparse, non-dense ordering keys (ordering is an order, not an index).

Ordering keys stay unique per partition — the sequence model (and
deterministic ``ROWS`` frames in any engine, SQLite included) requires a
strict linear order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.core.aggregates import Aggregate, by_name
from repro.core.window import WindowSpec, cumulative, sliding

__all__ = ["FuzzCase", "CaseGenerator", "AGGREGATE_NAMES"]

AGGREGATE_NAMES = ("SUM", "COUNT", "AVG", "MIN", "MAX")

# Share of partitioned cases whose rows are dealt round-robin
# (:meth:`CaseGenerator._round_robin`), so that partitions share lengths.
EQUAL_PARTITION_RATE = 0.3

# One dataset row: (partition key, ordering key, measure or NULL).
Row = Tuple[int, int, Optional[float]]


@dataclass(frozen=True)
class FuzzCase:
    """One generated dataset + query, with its generating seed.

    Attributes:
        seed: the exact seed that produced this case (echoed everywhere).
        rows: dataset rows ``(g, pos, val)``; ``val`` may be None (NULL).
        partitioned: whether the query has a ``PARTITION BY g`` clause.
        window: the query's window frame.
        aggregate_name: SUM/COUNT/AVG/MIN/MAX.
        extra_windows: additional ``(aggregate, window)`` OVER clauses on
            the same partitioning/ordering — the multi-window case family
            exercising the operator's sort/derivation sharing.  Empty for
            the classic single-clause cases.
    """

    seed: int
    rows: Tuple[Row, ...]
    partitioned: bool
    window: WindowSpec
    aggregate_name: str
    extra_windows: Tuple[Tuple[str, WindowSpec], ...] = ()

    @property
    def aggregate(self) -> Aggregate:
        return by_name(self.aggregate_name)

    @property
    def window_names(self) -> Tuple[str, ...]:
        """Output column names: ``w`` plus ``w2, w3, ...`` for extras."""
        return ("w",) + tuple(
            f"w{i}" for i in range(2, len(self.extra_windows) + 2)
        )

    def all_windows(self) -> List[Tuple[str, str, WindowSpec]]:
        """Every OVER clause as ``(column_name, aggregate, window)``."""
        out = [("w", self.aggregate_name, self.window)]
        for name, (agg, win) in zip(self.window_names[1:], self.extra_windows):
            out.append((name, agg, win))
        return out

    @property
    def sql(self) -> str:
        """The query text every internal engine path executes."""
        over = "PARTITION BY g ORDER BY pos" if self.partitioned else "ORDER BY pos"
        cols = ", ".join(
            f"{agg}(val) OVER ({over} {win.to_frame_sql()}) AS {name}"
            for name, agg, win in self.all_windows()
        )
        return f"SELECT g, pos, {cols} FROM t"

    def partitions(self) -> Dict[Tuple[object, ...], List[Row]]:
        """Rows grouped by the query's partitioning, sorted by ``pos``.

        An unpartitioned query has the single partition key ``()``.
        """
        groups: Dict[Tuple[object, ...], List[Row]] = {}
        for row in self.rows:
            key = (row[0],) if self.partitioned else ()
            groups.setdefault(key, []).append(row)
        for rows in groups.values():
            rows.sort(key=lambda r: r[1])
        return groups

    def with_rows(self, rows) -> "FuzzCase":
        """A copy over a different dataset (used by the shrinker)."""
        return replace(self, rows=tuple(tuple(r) for r in rows))

    def with_window(self, window: WindowSpec) -> "FuzzCase":
        return replace(self, window=window)

    def describe(self) -> str:
        nulls = sum(1 for r in self.rows if r[2] is None)
        extra = (
            f" +{len(self.extra_windows)} extra OVER clauses"
            if self.extra_windows
            else ""
        )
        return (
            f"seed={self.seed}: {self.aggregate_name} over {self.window}"
            f"{extra}, {len(self.rows)} rows ({nulls} NULL), "
            + ("partitioned" if self.partitioned else "unpartitioned")
        )


class CaseGenerator:
    """Deterministic case factory: ``case(seed)`` is a pure function.

    Args:
        max_rows: upper bound on dataset size (small keeps every path fast
            and keeps shrunk repros readable).
        max_bound: upper bound on the window's ``l``/``h``.
        null_rate: probability that a measure is NULL.
        multi_over_rate: probability that a case carries 1-2 extra OVER
            clauses (the multi-window family).  The extra draws happen
            strictly *after* the classic draws, so any seed's base case is
            identical to what older generators produced.
    """

    def __init__(
        self,
        *,
        max_rows: int = 48,
        max_bound: int = 6,
        null_rate: float = 0.15,
        multi_over_rate: float = 0.2,
    ) -> None:
        if max_rows < 1:
            raise ValueError(f"max_rows must be >= 1, got {max_rows}")
        self.max_rows = max_rows
        self.max_bound = max_bound
        self.null_rate = null_rate
        self.multi_over_rate = multi_over_rate

    def case(self, seed: int) -> FuzzCase:
        rng = random.Random(seed)
        partitioned = rng.random() < 0.6
        window = self._window(rng)
        aggregate_name = rng.choice(AGGREGATE_NAMES)
        rows = self._rows(rng, partitioned)
        extra = self._extra_windows(rng, aggregate_name, window)
        # A stream of its own: every other draw is what older generators made.
        dealer = random.Random(f"equal-partitions:{seed}")
        if partitioned and dealer.random() < EQUAL_PARTITION_RATE:
            rows = self._round_robin(dealer, rows)
        return FuzzCase(
            seed=seed,
            rows=tuple(rows),
            partitioned=partitioned,
            window=window,
            aggregate_name=aggregate_name,
            extra_windows=extra,
        )

    def cases(self, n: int, *, base_seed: int = 0):
        """``n`` cases with seeds ``base_seed .. base_seed + n - 1``."""
        return [self.case(base_seed + i) for i in range(n)]

    # -- pieces ------------------------------------------------------------

    def _window(self, rng: random.Random) -> WindowSpec:
        if rng.random() < 0.25:
            return cumulative()
        # l + h >= 1 (the paper's footnote); bias toward small frames where
        # the header/trailer clipping dominates the output.
        l = rng.randint(0, self.max_bound)
        h = rng.randint(0 if l else 1, self.max_bound)
        return sliding(l, h)

    def _rows(self, rng: random.Random, partitioned: bool) -> List[Row]:
        n = rng.randint(1, self.max_rows)
        n_groups = rng.randint(1, 4) if partitioned else 1
        # Sparse, shuffled ordering keys: ordering is an order, not an index.
        keys = rng.sample(range(1, 4 * n + 1), n)
        rows: List[Row] = []
        for pos in keys:
            g = rng.randint(1, n_groups)
            rows.append((g, pos, self._value(rng)))
        # Occasionally force a tiny partition so a 1-row sequence (pure
        # header+trailer clipping) is always in the mix.
        if partitioned and rng.random() < 0.5:
            extra = max(k for _, k, _ in rows) + rng.randint(1, 3)
            rows.append((n_groups + 1, extra, self._value(rng)))
        return rows

    @staticmethod
    def _round_robin(rng: random.Random, rows: List[Row]) -> List[Row]:
        """Deal the rows, in ordering-key order, round-robin over 2-8
        groups: partitions whose lengths differ by at most one, so several
        share a length and the engine runs them as one length class."""
        groups = rng.randint(2, 8)
        ordered = sorted(rows, key=lambda row: row[1])
        return [(i % groups + 1, pos, value) for i, (_, pos, value) in enumerate(ordered)]

    def _extra_windows(
        self, rng: random.Random, aggregate_name: str, window: WindowSpec
    ) -> Tuple[Tuple[str, WindowSpec], ...]:
        """1-2 extra OVER clauses for the multi-window family (maybe none).

        MIN/MAX base clauses are biased toward a *same-function wider
        sliding* sibling — exactly the shape the window operator can serve
        by MaxOA derivation from the first clause's sequence.
        """
        if rng.random() >= self.multi_over_rate:
            return ()
        extra = []
        for _ in range(rng.randint(1, 2)):
            if (
                aggregate_name in ("MIN", "MAX")
                and window.is_sliding
                and rng.random() < 0.5
            ):
                wx = window.width
                dl = rng.randint(0, min(wx, self.max_bound))
                dh = rng.randint(0, min(wx, self.max_bound))
                if dl == 0 and dh == 0:
                    dh = 1
                extra.append(
                    (aggregate_name, sliding(window.l + dl, window.h + dh))
                )
            else:
                extra.append((rng.choice(AGGREGATE_NAMES), self._window(rng)))
        return tuple(extra)

    def _value(self, rng: random.Random) -> Optional[float]:
        roll = rng.random()
        if roll < self.null_rate:
            return None
        if roll < self.null_rate + 0.15:
            # Ties and exact edge values.
            return rng.choice([0.0, 1.0, -1.0, 10.0, -10.0])
        if roll < self.null_rate + 0.35:
            return float(rng.randint(-100, 100))
        return round(rng.uniform(-1000.0, 1000.0), 3)
