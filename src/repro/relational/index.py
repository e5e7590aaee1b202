"""Secondary indexes: hash (equality) and sorted (range) structures.

Table 1 of the paper hinges on index availability: the self-join simulation
of a reporting function is only viable when the join can probe an index on
the sequence position instead of scanning the whole table per outer row
("query execution time is then roughly cut down by 95%").  Both index kinds
map key tuples to *row slots* inside their table's row list.

Indexes are maintained incrementally on insert/point-update; a positional
delete drops the entries of the deleted slots and renumbers the rest
(``drop_slots``) without reading a row.
"""

from __future__ import annotations

import bisect
from itertools import compress
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConstraintError

__all__ = ["HashIndex", "SortedIndex"]

Key = Tuple[Any, ...]


class HashIndex:
    """Equality index: key tuple -> row slots.

    Args:
        name: index name (catalog key).
        column_indexes: positions of the key columns within the table schema.
        unique: enforce key uniqueness (primary keys).
    """

    kind = "hash"

    def __init__(self, name: str, column_indexes: Sequence[int], unique: bool = False) -> None:
        self.name = name
        self.column_indexes = tuple(column_indexes)
        self.unique = unique
        self._map: Dict[Key, List[int]] = {}

    def key_of(self, row: Tuple[Any, ...]) -> Key:
        return tuple(row[i] for i in self.column_indexes)

    def add(self, row: Tuple[Any, ...], slot: int) -> None:
        key = self.key_of(row)
        slots = self._map.setdefault(key, [])
        if self.unique and slots:
            raise ConstraintError(
                f"unique index {self.name!r} rejects duplicate key {key!r}"
            )
        slots.append(slot)

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

    def rebuild(self, rows: Sequence[Tuple[Any, ...]]) -> None:
        self._map.clear()
        for slot, row in enumerate(rows):
            self.add(row, slot)

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


class SortedIndex:
    """Ordered index supporting point and range probes (bisect-based).

    Range probes serve band predicates such as the self-join pattern's
    ``s1.pos IN (s2.pos-1, s2.pos, s2.pos+1)`` generalised to
    ``BETWEEN``-style lookups.
    """

    kind = "sorted"

    def __init__(self, name: str, column_indexes: Sequence[int], unique: bool = False) -> None:
        self.name = name
        self.column_indexes = tuple(column_indexes)
        self.unique = unique
        self._keys: List[Key] = []
        self._slots: List[int] = []

    def key_of(self, row: Tuple[Any, ...]) -> Key:
        return tuple(row[i] for i in self.column_indexes)

    def add(self, row: Tuple[Any, ...], slot: int) -> None:
        key = self.key_of(row)
        i = bisect.bisect_left(self._keys, key)
        if self.unique and i < len(self._keys) and self._keys[i] == key:
            raise ConstraintError(
                f"unique index {self.name!r} rejects duplicate key {key!r}"
            )
        self._keys.insert(i, key)
        self._slots.insert(i, slot)

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

    def rebuild(self, rows: Sequence[Tuple[Any, ...]]) -> None:
        pairs = sorted(
            ((self.key_of(row), slot) for slot, row in enumerate(rows)),
        )
        if self.unique:
            for (ka, _), (kb, _) in zip(pairs, pairs[1:]):
                if ka == kb:
                    raise ConstraintError(
                        f"unique index {self.name!r} rejects duplicate key {ka!r}"
                    )
        self._keys = [k for k, _ in pairs]
        self._slots = [s for _, s in pairs]

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
