"""A partitioned sequence as segments of one flat row order.

Paper §6 treats partitioning as a position function over one ordered
stream.  :class:`Segments` lays a reporting sequence's partitions out that
way — partition order, then position — and groups them into
:class:`LengthClass` es: the partitions of one length, their stored values
stacked as the rows of one 2-D array.  Every whole-sequence derivation
(:data:`repro.core.derivation._FORMS`) acts on the last axis, so it runs
once per class, and each row repeats the operations of a run over its
partition alone (DESIGN.md §5m, "segments and length classes").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.columns import Column
from repro.core import vectorized
from repro.core.complete import CompleteSequence

if TYPE_CHECKING:
    from repro.core.reporting import PartitionData

__all__ = ["LengthClass", "Segments", "segment_rows"]

Key = Tuple[object, ...]


@dataclass(frozen=True, eq=False)
class LengthClass:
    """The partitions ``keys`` (partition order) of one length and
    completeness, at most about :data:`~repro.core.vectorized.BLOCK` values
    of them: ``seq`` stacks their sequences (:meth:`CompleteSequence.stack`),
    ``rows`` (a slice or an index array) are their rows in the flat order,
    partition by partition."""

    keys: Tuple[Key, ...]
    seq: CompleteSequence
    rows: Union[slice, np.ndarray]


@dataclass
class Segments:
    """Partition ``keys`` in order, their ``lengths`` and row ``offsets``,
    their :class:`LengthClass` es and every row's ordering key."""

    keys: List[Key]
    lengths: np.ndarray
    offsets: np.ndarray
    classes: List[LengthClass]
    order_keys: List[Key] = field(repr=False)
    _key_columns: Optional[Tuple[Tuple[str, ...], Tuple[Column, ...]]] = field(
        default=None, repr=False, compare=False
    )

    @classmethod
    def of(cls, partitions: Dict[Key, PartitionData]) -> "Segments":
        keys, parts = list(partitions), list(partitions.values())
        lengths = np.array([part.seq.n for part in parts], dtype=np.intp)
        offsets = np.cumsum(lengths) - lengths
        members: Dict[Tuple[int, bool], List[int]] = {}
        for i, part in enumerate(parts):
            members.setdefault((part.seq.n, part.seq.is_complete), []).append(i)
        classes = [
            LengthClass(
                tuple(keys[i] for i in idx),
                CompleteSequence.stack([parts[i].seq for i in idx]),
                _rows(offsets[idx], length),
            )
            for (length, _), every in sorted(members.items())
            for idx in _blocks(every, length)
        ]
        # A writer edits only a copied key list (ReportingSequence.owning).
        order_keys = (parts[0].order_keys if len(parts) == 1
                      else [okey for part in parts for okey in part.order_keys])
        return cls(keys, lengths, offsets, classes, order_keys)

    def key_columns(self, kinds: Sequence[str]) -> Tuple[Column, ...]:
        """``order_keys`` as one column per ordering column, of ``kinds``
        (see :meth:`Column.from_values`).  Built on the first read and
        kept; readers copy, never hand out, these columns."""
        kinds = tuple(kinds)
        if self._key_columns is None or self._key_columns[0] != kinds:
            by_column = list(zip(*self.order_keys)) or [()] * len(kinds)
            self._key_columns = (kinds, tuple(
                Column.from_values(values, kind) for values, kind in zip(by_column, kinds)
            ))
        return self._key_columns[1]

    def scatter(self, per_class: Sequence[np.ndarray]) -> np.ndarray:
        """One array per class (a row per partition) laid out flat."""
        if len(self.classes) == 1:
            return np.reshape(per_class[0], -1)
        out = np.empty(int(self.lengths.sum()))
        for cls_, values in zip(self.classes, per_class):
            out[cls_.rows] = np.reshape(values, -1)
        return out


def _rows(starts: np.ndarray, length: int):
    """The flat rows of partitions starting at ``starts``: a slice when
    they are adjacent, else an index array."""
    if len(starts) and starts[-1] - starts[0] == (len(starts) - 1) * length:
        return slice(int(starts[0]), int(starts[-1]) + length)
    return (starts[:, None] + np.arange(length)).reshape(-1)


def _blocks(members: List[int], length: int) -> List[List[int]]:
    """``members`` in runs of about :data:`~repro.core.vectorized.BLOCK`
    values, so a derivation's passes over a class stay in cache."""
    step = max(1, vectorized.BLOCK // max(length, 1))
    return [members[at : at + step] for at in range(0, len(members), step)]


def segment_rows(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Rows ``starts[i] .. starts[i] + lengths[i] - 1`` of each segment
    ``i``, concatenated."""
    before = np.cumsum(lengths) - lengths
    return np.repeat(np.asarray(starts) - before, lengths) + np.arange(int(lengths.sum()))
