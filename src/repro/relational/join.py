"""Join operators: nested loop, index nested loop, hash join.

The three physical joins span the cost spectrum the paper's evaluation
exercises:

* :class:`NestedLoopJoin` — arbitrary predicates, O(|L|·|R|) pairs.  This is
  the only choice for the *disjunctive* derivation patterns (figs. 10, 13)
  when the predicate mixes several MOD-residue conditions.
* :class:`IndexNestedLoopJoin` — per outer row, probe an index on the inner
  table (equality keys or a sorted-index band ``lo..hi``).  The paper's
  Table 1 "with primary key index" columns correspond to this operator
  serving the self-join pattern's ``s2.pos BETWEEN s1.pos-l AND s1.pos+h``
  band.
* :class:`HashJoin` — equi-joins on computed keys (e.g. ``MOD(pos, P)``),
  used by the *union of simple predicate queries* variants where each
  branch has a single residue-equality conjunct.

All joins support INNER and LEFT OUTER semantics; LEFT outer rows pad the
right side with NULLs (the patterns' ``COALESCE(val, 0)`` then repairs the
aggregate).
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Sequence, Tuple

from repro.errors import PlanError
from repro.relational.expr import Expr
from repro.relational.operators import Operator
from repro.relational.stats import ExecutionStats
from repro.relational.table import Table

__all__ = ["NestedLoopJoin", "IndexNestedLoopJoin", "HashJoin"]

Row = Tuple[Any, ...]

_JOIN_TYPES = ("inner", "left")


def _check_join_type(join_type: str) -> None:
    if join_type not in _JOIN_TYPES:
        raise PlanError(f"unsupported join type {join_type!r}; use {_JOIN_TYPES}")


class NestedLoopJoin(Operator):
    """Tuple-at-a-time nested loop with an arbitrary predicate.

    The inner input is materialized once (block nested loop), then every
    outer/inner pair is tested — the engine's honest worst case.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        predicate: Optional[Expr] = None,
        join_type: str = "inner",
    ) -> None:
        _check_join_type(join_type)
        self.left = left
        self.right = right
        self.predicate = predicate
        self.join_type = join_type
        self.schema = left.schema.concat(right.schema)
        self._compiled = predicate.bind(self.schema) if predicate is not None else None

    def execute(self, stats: ExecutionStats) -> Iterator[Row]:
        inner: List[Row] = list(self.right.run(stats))
        compiled = self._compiled
        null_row = (None,) * len(self.right.schema)
        # O(|L|·|R|) inner loop: accumulate counters locally, flush once.
        pairs = joined = 0
        try:
            for lrow in self.left.run(stats):
                matched = False
                for rrow in inner:
                    pairs += 1
                    combined = lrow + rrow
                    if compiled is None or compiled(combined) is True:
                        matched = True
                        joined += 1
                        yield combined
                if not matched and self.join_type == "left":
                    joined += 1
                    yield lrow + null_row
        finally:
            stats.bump(pairs_examined=pairs, rows_joined=joined)

    def children(self) -> Sequence[Operator]:
        return (self.left, self.right)

    def label(self) -> str:
        pred = str(self.predicate) if self.predicate is not None else "TRUE"
        return f"NestedLoopJoin[{self.join_type}]({pred})"


class IndexNestedLoopJoin(Operator):
    """Per outer row, probe an index on the inner base table.

    Two probe modes:

    * equality — ``probe_keys`` expressions (over the *left* schema) are
      evaluated per outer row and looked up in the index;
    * band — ``band_low``/``band_high`` expressions give an inclusive key
      range served by a sorted index (the self-join pattern's
      ``s2.pos IN (s1.pos-1, s1.pos, s1.pos+1)`` becomes the band
      ``[s1.pos-1, s1.pos+1]``).

    A ``residual`` predicate (over the combined schema) re-checks candidates,
    preserving exact semantics when the index condition over-approximates.
    """

    def __init__(
        self,
        left: Operator,
        inner_table: Table,
        index_name: str,
        *,
        alias: Optional[str] = None,
        probe_keys: Optional[Sequence[Expr]] = None,
        band_low: Optional[Sequence[Expr]] = None,
        band_high: Optional[Sequence[Expr]] = None,
        residual: Optional[Expr] = None,
        join_type: str = "inner",
    ) -> None:
        _check_join_type(join_type)
        if index_name not in inner_table.indexes:
            raise PlanError(f"table {inner_table.name!r} has no index {index_name!r}")
        self.left = left
        self.inner_table = inner_table
        self.index = inner_table.indexes[index_name]
        self.alias = alias or inner_table.name
        self.join_type = join_type
        right_schema = inner_table.schema.qualify(self.alias)
        self.schema = left.schema.concat(right_schema)

        eq_mode = probe_keys is not None
        band_mode = band_low is not None or band_high is not None
        if eq_mode == band_mode:
            raise PlanError("specify exactly one of probe_keys or band_low/high")
        if band_mode and self.index.kind != "sorted":
            raise PlanError("band probes require a sorted index")
        self._probe = (
            [e.bind(left.schema) for e in probe_keys] if probe_keys else None
        )
        self._lo = [e.bind(left.schema) for e in band_low] if band_low else None
        self._hi = [e.bind(left.schema) for e in band_high] if band_high else None
        self.residual = residual
        self._residual = residual.bind(self.schema) if residual is not None else None

    def execute(self, stats: ExecutionStats) -> Iterator[Row]:
        # Materialize the inner heap once: slots are probed in random
        # order, and per-probe tuple construction from the columnar heap
        # would dominate the O(pairs) inner loop.
        rows = list(self.inner_table.rows)
        residual = self._residual
        null_row = (None,) * len(self.inner_table.schema)
        lookups = pairs = joined = 0
        try:
            for lrow in self.left.run(stats):
                lookups += 1
                if self._probe is not None:
                    slots = self.index.lookup(tuple(p(lrow) for p in self._probe))
                else:
                    lo = tuple(p(lrow) for p in self._lo) if self._lo else None
                    hi = tuple(p(lrow) for p in self._hi) if self._hi else None
                    slots = self.index.range(lo, hi)  # type: ignore[union-attr]
                matched = False
                for slot in slots:
                    pairs += 1
                    combined = lrow + rows[slot]
                    if residual is None or residual(combined) is True:
                        matched = True
                        joined += 1
                        yield combined
                if not matched and self.join_type == "left":
                    joined += 1
                    yield lrow + null_row
        finally:
            stats.bump(
                index_lookups=lookups, pairs_examined=pairs, rows_joined=joined
            )

    def children(self) -> Sequence[Operator]:
        return (self.left,)

    def label(self) -> str:
        mode = "eq" if self._probe is not None else "band"
        res = f", residual={self.residual}" if self.residual is not None else ""
        return (
            f"IndexNestedLoopJoin[{self.join_type}]({self.inner_table.name} "
            f"AS {self.alias} via {self.index.name}/{mode}{res})"
        )


class HashJoin(Operator):
    """Equi-join on computed key expressions (build right, probe left)."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_keys: Sequence[Expr],
        right_keys: Sequence[Expr],
        residual: Optional[Expr] = None,
        join_type: str = "inner",
    ) -> None:
        _check_join_type(join_type)
        if len(left_keys) != len(right_keys) or not left_keys:
            raise PlanError("hash join needs matching, non-empty key lists")
        self.left = left
        self.right = right
        self.left_keys = list(left_keys)
        self.right_keys = list(right_keys)
        self.join_type = join_type
        self.schema = left.schema.concat(right.schema)
        self._lk = [e.bind(left.schema) for e in self.left_keys]
        self._rk = [e.bind(right.schema) for e in self.right_keys]
        self.residual = residual
        self._residual = residual.bind(self.schema) if residual is not None else None

    def execute(self, stats: ExecutionStats) -> Iterator[Row]:
        build: dict = {}
        for rrow in self.right.run(stats):
            key = tuple(k(rrow) for k in self._rk)
            if any(v is None for v in key):
                continue  # NULL keys never join
            build.setdefault(key, []).append(rrow)
        residual = self._residual
        null_row = (None,) * len(self.right.schema)
        pairs = joined = 0
        try:
            for lrow in self.left.run(stats):
                key = tuple(k(lrow) for k in self._lk)
                matched = False
                if not any(v is None for v in key):
                    for rrow in build.get(key, ()):
                        pairs += 1
                        combined = lrow + rrow
                        if residual is None or residual(combined) is True:
                            matched = True
                            joined += 1
                            yield combined
                if not matched and self.join_type == "left":
                    joined += 1
                    yield lrow + null_row
        finally:
            stats.bump(pairs_examined=pairs, rows_joined=joined)

    def children(self) -> Sequence[Operator]:
        return (self.left, self.right)

    def label(self) -> str:
        keys = ", ".join(
            f"{l}={r}" for l, r in zip(self.left_keys, self.right_keys)
        )
        res = f", residual={self.residual}" if self.residual is not None else ""
        return f"HashJoin[{self.join_type}]({keys}{res})"
