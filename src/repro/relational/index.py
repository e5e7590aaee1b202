"""Secondary indexes: hash (equality) and sorted (range) structures.

Table 1 of the paper hinges on index availability: the self-join simulation
of a reporting function is only viable when the join can probe an index on
the sequence position instead of scanning the whole table per outer row
("query execution time is then roughly cut down by 95%").  Both index kinds
map key tuples to *row slots* inside their table's row list.

Indexes are maintained incrementally on insert/point-update; a bulk insert
checks all its keys (``stage``) before it adds them (``add_staged``), and a
heap is indexed with one sort (``load``).  A positional delete drops the
entries of the deleted slots and renumbers the rest (``drop_slots``)
without reading a row.
"""

from __future__ import annotations

import bisect
from itertools import compress
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConstraintError

__all__ = ["HashIndex", "SortedIndex"]

Key = Tuple[Any, ...]

_INSERT_AT_MOST = 8  # staged entries inserted one by one; more are merged


class _Index:
    """What both index kinds share.

    Args:
        name: index name (catalog key).
        column_indexes: positions of the key columns within the table schema.
        unique: enforce key uniqueness (primary keys).
    """

    def __init__(self, name: str, column_indexes: Sequence[int], unique: bool = False) -> None:
        self.name = name
        self.column_indexes = tuple(column_indexes)
        self.unique = unique
        self._clear()

    def key_of(self, row: Tuple[Any, ...]) -> Key:
        return tuple(row[i] for i in self.column_indexes)

    def add(self, row: Tuple[Any, ...], slot: int) -> None:
        self.add_staged(self.stage([self.key_of(row)], slot))

    def load(self, keys: Sequence[Key]) -> None:
        """Index exactly the rows whose keys are ``keys`` (slot = position)."""
        self._clear()
        self.add_staged(self.stage(keys, 0))

    def stage(self, keys: Sequence[Key], start: int) -> List[Tuple[Key, int]]:
        """The entries of ``keys`` for slots ``start, start + 1, ...``; a
        unique index refuses one it holds or one repeated (ConstraintError)."""
        if self.unique:
            seen = set()
            for key in keys:
                if key in seen or self.lookup(key):
                    raise self._duplicate(key)
                seen.add(key)
        return list(zip(keys, range(start, start + len(keys))))

    def _duplicate(self, key: Key) -> ConstraintError:
        return ConstraintError(f"unique index {self.name!r} rejects duplicate key {key!r}")


class HashIndex(_Index):
    """Equality index: key tuple -> row slots."""

    kind = "hash"

    def _clear(self) -> None:
        self._map: Dict[Key, List[int]] = {}

    def add_staged(self, staged: Sequence[Tuple[Key, int]]) -> None:
        for key, slot in staged:
            self._map.setdefault(key, []).append(slot)

    def remove(self, row: Tuple[Any, ...], slot: int) -> None:
        key = self.key_of(row)
        slots = self._map.get(key, [])
        if slot in slots:
            slots.remove(slot)
            if not slots:
                del self._map[key]

    def lookup(self, key: Key) -> List[int]:
        """Row slots whose key equals ``key`` (empty list when absent)."""
        return self._map.get(tuple(key), [])

    def copy(self) -> "HashIndex":
        out = HashIndex(self.name, self.column_indexes, self.unique)
        out._map = {key: list(slots) for key, slots in self._map.items()}
        return out

    def drop_slots(self, doomed: np.ndarray) -> None:
        """Forget the (sorted) slots ``doomed``; later slots move down."""
        ordered = doomed.tolist()
        gone = set(ordered)
        kept = {
            key: [s - bisect.bisect_left(ordered, s) for s in slots if s not in gone]
            for key, slots in self._map.items()
        }
        self._map = {key: slots for key, slots in kept.items() if slots}

    def __len__(self) -> int:
        return sum(len(slots) for slots in self._map.values())


class SortedIndex(_Index):
    """Ordered index supporting point and range probes (bisect-based).

    Range probes serve band predicates such as the self-join pattern's
    ``s1.pos IN (s2.pos-1, s2.pos, s2.pos+1)`` generalised to
    ``BETWEEN``-style lookups.
    """

    kind = "sorted"

    def _clear(self) -> None:
        self._keys: List[Key] = []
        self._slots: List[int] = []

    def stage(self, keys: Sequence[Key], start: int) -> List[Tuple[Key, int]]:
        return sorted(super().stage(keys, start))

    def add_staged(self, staged: List[Tuple[Key, int]]) -> None:
        """Add :meth:`stage`'s (sorted) entries, each after the held ones of
        its key (slot order): appended when they sort after every held one,
        else each inserted at its place or, for more than a few, all merged
        in one pass of list slices."""
        keys, slots = self._keys, self._slots
        if not keys or not staged or keys[-1] <= staged[0][0]:
            keys.extend(key for key, _ in staged)
            slots.extend(slot for _, slot in staged)
            return
        cuts = [0]  # staged[j] goes before held entry cuts[j + 1]
        for key, _ in staged:
            cuts.append(bisect.bisect_right(keys, key, cuts[-1]))
        if len(staged) <= _INSERT_AT_MOST:
            for shift, ((key, slot), at) in enumerate(zip(staged, cuts[1:])):
                keys.insert(at + shift, key)
                slots.insert(at + shift, slot)
            return
        self._keys, self._slots = [], []
        for (key, slot), lo, hi in zip(staged, cuts, cuts[1:]):
            self._keys += keys[lo:hi] + [key]
            self._slots += slots[lo:hi] + [slot]
        self._keys += keys[cuts[-1]:]
        self._slots += slots[cuts[-1]:]

    def remove(self, row: Tuple[Any, ...], slot: int) -> None:
        key = self.key_of(row)
        i = bisect.bisect_left(self._keys, key)
        while i < len(self._keys) and self._keys[i] == key:
            if self._slots[i] == slot:
                del self._keys[i]
                del self._slots[i]
                return
            i += 1

    def lookup(self, key: Key) -> List[int]:
        key = tuple(key)
        lo = bisect.bisect_left(self._keys, key)
        hi = bisect.bisect_right(self._keys, key)
        return self._slots[lo:hi]

    def range(self, low: Optional[Key], high: Optional[Key]) -> Iterator[int]:
        """Row slots with ``low <= key <= high`` (None = unbounded)."""
        lo = 0 if low is None else bisect.bisect_left(self._keys, tuple(low))
        hi = len(self._keys) if high is None else bisect.bisect_right(self._keys, tuple(high))
        return iter(self._slots[lo:hi])

    def copy(self) -> "SortedIndex":
        out = SortedIndex(self.name, self.column_indexes, self.unique)
        out._keys, out._slots = list(self._keys), list(self._slots)
        return out

    def drop_slots(self, doomed: np.ndarray) -> None:
        """Forget the (sorted) slots ``doomed``; later slots move down."""
        slots = np.asarray(self._slots, dtype=np.intp)
        keep = ~np.isin(slots, doomed)
        self._keys = list(compress(self._keys, keep.tolist()))
        slots = slots[keep]
        self._slots = (slots - np.searchsorted(doomed, slots)).tolist()

    def __len__(self) -> int:
        return len(self._keys)
