"""The benchmark's own model of every table, and the answers it implies.

The driver never asks the program what the right answer is.  It keeps one
plain list of ``[order_key, value]`` per partition, applies each
acknowledged write to it, and evaluates every window query in the naive
explicit form (one aggregate over ``l + h + 1`` neighbours per position)
with NumPy.  Floats are compared by the rule of
``repro.views.verify.values_differ``, vectorised.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.views.verify import TOLERANCE, values_differ

# name -> (partition column or None, order column, value column)
LAYOUTS = {
    "seq": (None, "pos", "val"),
    "seq_s": (None, "pos", "val"),
    "tx": ("cust", "day", "amt"),
}

_PAD = {"SUM": 0.0, "MIN": np.inf, "MAX": -np.inf}
_REDUCE = {"SUM": np.sum, "MIN": np.min, "MAX": np.max}


@dataclass(frozen=True)
class WindowQuery:
    """One reporting-function SELECT, as data the oracle can evaluate.

    ``l is None`` is ``ROWS UNBOUNDED PRECEDING`` (cumulative).  ``lo``/``hi``
    add ``WHERE <order> BETWEEN lo AND hi``, which SQL applies before the
    window.  ``partitioned`` adds ``PARTITION BY`` the table's partition
    column; on a partitioned table without it the window runs over the whole
    table ordered by the order column (the partitioning-reduction shape).
    """

    template: str
    table: str
    func: str
    l: Optional[int]
    h: int
    partitioned: bool = False
    lo: Optional[int] = None
    hi: Optional[int] = None

    def sql(self) -> str:
        part_col, order_col, value_col = LAYOUTS[self.table]
        frame = (
            "ROWS UNBOUNDED PRECEDING"
            if self.l is None
            else f"ROWS BETWEEN {self.l} PRECEDING AND {self.h} FOLLOWING"
        )
        select = f"{part_col}, {order_col}" if self.partitioned else order_col
        over = f"PARTITION BY {part_col} " if self.partitioned else ""
        where = (
            f" WHERE {order_col} BETWEEN {self.lo} AND {self.hi}"
            if self.lo is not None
            else ""
        )
        return (
            f"SELECT {select}, {self.func}({value_col}) OVER ({over}ORDER BY "
            f"{order_col} {frame}) AS w FROM {self.table}{where}"
        )


def window_values(values: np.ndarray, func: str, l: Optional[int], h: int) -> np.ndarray:
    """Naive explicit form of one sequence: aggregate each position's frame."""
    n = len(values)
    if n == 0:
        return values.copy()
    k = np.arange(n)
    if l is None:
        counts = (k + 1).astype(float)
    else:
        counts = (np.minimum(n - 1, k + h) - np.maximum(0, k - l) + 1).astype(float)
    if func == "COUNT":
        return counts
    base = "SUM" if func == "AVG" else func
    if l is None:
        out = {"SUM": np.cumsum, "MIN": np.minimum.accumulate,
               "MAX": np.maximum.accumulate}[base](values)
    else:
        pad = _PAD[base]
        padded = np.concatenate([np.full(l, pad), values, np.full(h, pad)])
        out = _REDUCE[base](sliding_window_view(padded, l + h + 1), axis=1)
    return out / counts if func == "AVG" else out


class Model:
    """Per-table, per-partition ``[order_key, value]`` lists, kept sorted."""

    def __init__(self) -> None:
        self.parts: Dict[str, Dict[Tuple, List[List[float]]]] = {}
        self._cache: Dict[WindowQuery, Tuple[np.ndarray, np.ndarray]] = {}

    # -- loading and acknowledged writes ------------------------------------

    def load(self, table: str, rows: Sequence[Sequence[float]]) -> None:
        part_col = LAYOUTS[table][0]
        parts: Dict[Tuple, List[List[float]]] = {}
        for row in rows:
            pkey = (row[0],) if part_col else ()
            parts.setdefault(pkey, []).append([row[-2], row[-1]])
        for entries in parts.values():
            entries.sort()
        self.parts[table] = parts
        self._cache.clear()

    def _locate(self, table: str, key: int) -> Tuple[List[List[float]], int]:
        entries = self.parts[table][()]
        i = bisect.bisect_left(entries, [key])
        return entries, i

    def update(self, table: str, key: int, value: float) -> None:
        entries, i = self._locate(table, key)
        entries[i][1] = value
        self._cache.clear()

    def insert(self, table: str, key: int, value: float) -> None:
        entries, i = self._locate(table, key)
        entries.insert(i, [key, value])
        self._cache.clear()

    def delete(self, table: str, key: int) -> None:
        entries, i = self._locate(table, key)
        del entries[i]
        self._cache.clear()

    def keys(self, table: str) -> List[int]:
        return [int(e[0]) for e in self.parts[table][()]]

    def value(self, table: str, key: int) -> float:
        entries, i = self._locate(table, key)
        return entries[i][1]

    def live_rows(self) -> int:
        return sum(len(e) for parts in self.parts.values() for e in parts.values())

    def rows(self, table: str) -> List[Tuple]:
        return [
            (*pkey, int(k), v)
            for pkey, entries in sorted(self.parts[table].items())
            for k, v in entries
        ]

    # -- expected answers ------------------------------------------------------

    def expected(self, q: WindowQuery) -> Tuple[np.ndarray, np.ndarray]:
        """``(keys, values)`` the query must return, as a row multiset."""
        hit = self._cache.get(q)
        if hit is not None:
            return hit
        parts = self.parts[q.table]
        if q.partitioned:
            sequences = [
                (np.full(len(e), pkey[0], dtype=float), np.asarray(e, dtype=float))
                for pkey, e in sorted(parts.items())
            ]
        else:
            # Ties on the order key keep table order (partition, then key),
            # which is what the engine's stable sort produces.
            merged = np.asarray(
                [kv for _, e in sorted(parts.items()) for kv in e], dtype=float
            ).reshape(-1, 2)
            merged = merged[np.argsort(merged[:, 0], kind="stable")]
            sequences = [(None, merged)]
        keys, values = [], []
        for pcol, arr in sequences:
            if q.lo is not None:
                keep = (arr[:, 0] >= q.lo) & (arr[:, 0] <= q.hi)
                arr = arr[keep]
                pcol = pcol[keep] if pcol is not None else None
            cols = [arr[:, 0]] if pcol is None else [pcol, arr[:, 0]]
            keys.append(np.column_stack(cols))
            values.append(window_values(arr[:, 1], q.func, q.l, q.h))
        out = (np.concatenate(keys), np.concatenate(values))
        self._cache[q] = out
        return out

    def point(self, table: str, key: int, l: int, h: int) -> float:
        """Explicit SUM over the ``(l, h)`` frame around one order key."""
        entries, i = self._locate(table, key)
        return sum(e[1] for e in entries[max(0, i - l): i + h + 1])


def rows_match(reply_rows: Sequence[Sequence], expected: Tuple[np.ndarray, np.ndarray]) -> bool:
    """Do the reply rows equal the expected multiset, floats by tolerance?"""
    keys, values = expected
    if len(reply_rows) != len(values):
        return False
    if not len(values):
        return True
    got = np.asarray(reply_rows, dtype=float)  # NULL -> nan -> mismatch
    if got.ndim != 2 or got.shape[1] != keys.shape[1] + 1:
        return False
    want = np.column_stack([keys, values])
    got = got[np.lexsort(got.T[::-1])]
    want = want[np.lexsort(want.T[::-1])]
    if not np.array_equal(got[:, :-1], want[:, :-1]):
        return False
    a, b = got[:, -1], want[:, -1]
    if np.isnan(a).any() or np.isnan(b).any():
        return False
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return not bool((np.abs(a - b) > TOLERANCE * scale).any())


def value_match(got, want: float) -> bool:
    return isinstance(got, (int, float)) and not values_differ(float(got), want)
