"""Consistency verification of materialized views.

A materialized view keeps two places that must agree with the base table
(ground truth): the in-memory mirror (raw values, ordering keys and sequence
per partition) and the storage table the relational patterns read.
:func:`verify_view` recomputes the sequence from base data and cross-checks
both against it; the warehouse-level :func:`verify_warehouse` runs it for
every registered view.

This is the defence against silent corruption — a maintenance-rule bug, a
manual edit of the storage table, a stale mirror after external base
changes — and the hook for fault-injection tests.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.views.materialized import MaterializedSequenceView, storage_runs

__all__ = [
    "Discrepancy",
    "ConsistencyReport",
    "values_differ",
    "verify_view",
    "verify_warehouse",
]

TOLERANCE = 1e-7


@dataclass(frozen=True)
class Discrepancy:
    """One detected inconsistency.

    Attributes:
        representation: ``"mirror"`` or ``"storage"``.
        partition: partition key of the affected sequence.
        position: sequence position, or None for structural problems.
        detail: human-readable description.
    """

    representation: str
    partition: Tuple[object, ...]
    position: object
    detail: str


@dataclass
class ConsistencyReport:
    """Outcome of verifying one view."""

    view: str
    checked_values: int = 0
    discrepancies: List[Discrepancy] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.discrepancies)} DISCREPANCIES"
        return f"view {self.view!r}: {self.checked_values} values checked, {status}"


def values_differ(a: float, b: float, *, tolerance: float = TOLERANCE) -> bool:
    """Do two sequence values disagree beyond the shared tolerance?

    The comparison rule of the differential testkit
    (:mod:`repro.testkit.differ`), whose paths may legitimately differ in
    the last ulp.  View verification does not use it: a view must match
    its recompute bit for bit (:func:`_differs`).

    * NaN == NaN counts as agreement: both representations computed "no
      value" the same way (e.g. AVG over an empty frame), which is not a
      corruption.  A NaN on only one side *is* a discrepancy.
    * Finite values compare with a relative tolerance floored at 1 so that
      near-zero results do not demand impossible absolute precision.
    """
    a_nan, b_nan = math.isnan(a), math.isnan(b)
    if a_nan or b_nan:
        return a_nan != b_nan
    return abs(a - b) > tolerance * max(1.0, abs(a), abs(b))


def _differs(a: float, b: float) -> bool:
    """Do a stored value and its recompute differ in any bit?

    Mirror, storage and recompute all come from one evaluator, so a view
    agrees with its base data bit for bit; NaN equals NaN (both computed
    "no value" the same way).
    """
    if math.isnan(a) and math.isnan(b):
        return False
    return struct.pack("<d", a) != struct.pack("<d", b)


def _differing(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """:func:`_differs` over two float64 arrays, as a mask."""
    return (got.view(np.uint64) != want.view(np.uint64)) & ~(np.isnan(got) & np.isnan(want))


def verify_view(view: MaterializedSequenceView, *, max_report: int = 20) -> ConsistencyReport:
    """Recompute the view from base data and cross-check mirror and storage."""
    from repro.faults import injector

    injector.verify_hook(view)  # armed ``bitflip`` specs corrupt storage here
    d = view.definition
    report = ConsistencyReport(view.name)
    truth = view.recompute()

    def add(representation, partition, position, detail) -> None:
        if len(report.discrepancies) < max_report:
            report.discrepancies.append(
                Discrepancy(representation, partition, position, detail)
            )

    # -- mirror vs truth -------------------------------------------------------
    # Partition-set drift is reported structurally, one discrepancy per
    # missing/unexpected partition — an empty or vanished partition must
    # never be silently skipped.
    mirror = view.reporting
    for pkey in sorted(set(truth.partitions) - set(mirror.partitions), key=repr):
        add("mirror", pkey, None,
            "partition missing from the mirror (present in base data)")
    for pkey in sorted(set(mirror.partitions) - set(truth.partitions), key=repr):
        add("mirror", pkey, None,
            "unexpected mirror partition (absent from base data)")
    for pkey, tpart in truth.partitions.items():
        mpart = mirror.partitions.get(pkey)
        if mpart is None:
            continue  # already reported structurally above
        if mpart.order_keys != tpart.order_keys:
            add("mirror", pkey, None, "ordering keys out of sync with base data")
        if len(mpart.raw) != len(tpart.raw):
            add("mirror", pkey, None,
                f"{len(mpart.raw)} raw values, base data has {len(tpart.raw)}")
        for pos, (value, want) in enumerate(zip(mpart.raw, tpart.raw), start=1):
            report.checked_values += 1
            if _differs(value, want):
                add("mirror", pkey, pos,
                    f"raw value {value!r} != base data {want!r}")
        expected = dict(tpart.seq.items())
        for pos, value in mpart.seq.items():
            report.checked_values += 1
            want = expected.get(pos)
            if want is None or _differs(value, want):
                add("mirror", pkey, pos,
                    f"mirror value {value!r} != recomputed {want!r}")

    # -- storage vs truth ---------------------------------------------------------
    # Slot for slot what a refresh stores: one run per partition, in mirror
    # order.  Structural drift is reported before any value, so a missing
    # slot is named even when the values after it fill the report.
    table = view.db.table(d.storage_table)
    runs = storage_runs(table, d.partition_by)
    values = table.column_values("__val").as_float64(math.nan)
    for pkey in sorted(set(runs) - set(truth.partitions), key=repr):
        add("storage", pkey, None, "storage run for unknown partition")
    if [k for k in runs if k in truth.partitions] != [k for k in truth.partitions if k in runs]:
        add("storage", (), None, "storage runs out of partition order")
    compare = []
    for pkey, tpart in truth.partitions.items():
        first, last = tpart.seq.stored_range
        lo, hi = runs.get(pkey, (0, 0))
        for pos in range(first + hi - lo, last + 1):
            add("storage", pkey, pos, "storage row missing")
        for pos in range(last + 1, first + hi - lo):
            add("storage", pkey, pos, "storage row outside the stored range")
        got = values[lo:min(hi, lo + last - first + 1)]
        compare.append((pkey, first, got, tpart.seq.span(first, first + len(got) - 1)))
    for pkey, first, got, want in compare:
        report.checked_values += len(got)
        for i in np.flatnonzero(_differing(got, want)).tolist():
            add("storage", pkey, first + i,
                f"storage value {float(got[i])!r} != recomputed {float(want[i])!r}")
    return report


def verify_warehouse(warehouse) -> Dict[str, ConsistencyReport]:
    """Verify every registered view; returns reports keyed by view name."""
    return {name: verify_view(view) for name, view in warehouse.views.items()}
