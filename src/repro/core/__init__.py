"""Core sequence algebra: the paper's primary contribution.

This package is self-contained (no engine dependencies) and implements:

* the sequence model and window algebra (:mod:`~repro.core.window`,
  :mod:`~repro.core.sequence`),
* naive and pipelined computation (:mod:`~repro.core.compute`),
* complete sequences with header/trailer (:mod:`~repro.core.complete`),
* incremental view maintenance (:mod:`~repro.core.maintenance`),
* raw-data reconstruction (:mod:`~repro.core.reconstruct`),
* the MaxOA and MinOA derivation algorithms (:mod:`~repro.core.maxoa`,
  :mod:`~repro.core.minoa`) and the planner over them
  (:mod:`~repro.core.derivation`),
* multi-column reporting sequences with ordering/partitioning reduction
  (:mod:`~repro.core.positions`, :mod:`~repro.core.reporting`).
"""

from repro.core.aggregates import ALL_AGGREGATES, AVG, COUNT, MAX, MIN, SUM, Aggregate, by_name
from repro.core.complete import CompleteSequence
from repro.core.compute import OpCounter, compute_naive, compute_pipelined
from repro.core.derivation import DerivationPlan, derivable, derive, plan, prefix_up_to
from repro.core.maintenance import MaintenanceResult, apply_delete, apply_insert, apply_update
from repro.core.positions import PositionFunction
from repro.core.reconstruct import (
    raw_at_from_cumulative,
    raw_at_from_sliding,
    raw_from_cumulative,
    raw_from_sliding,
    sliding_from_cumulative,
)
from repro.core.reporting import (
    PartitionData,
    ReportingSequence,
    ordering_reduction,
    partitioning_reduction,
)
from repro.core.sequence import CustomBoundsSequenceSpec, SequenceSpec
from repro.core.vectorized import compute_vectorized
from repro.core.window import WindowSpec, cumulative, sliding

__all__ = [
    "ALL_AGGREGATES",
    "AVG",
    "Aggregate",
    "COUNT",
    "CompleteSequence",
    "CustomBoundsSequenceSpec",
    "DerivationPlan",
    "MAX",
    "MIN",
    "MaintenanceResult",
    "OpCounter",
    "PartitionData",
    "PositionFunction",
    "ReportingSequence",
    "SUM",
    "SequenceSpec",
    "WindowSpec",
    "apply_delete",
    "apply_insert",
    "apply_update",
    "by_name",
    "compute_naive",
    "compute_pipelined",
    "compute_vectorized",
    "cumulative",
    "derivable",
    "derive",
    "ordering_reduction",
    "partitioning_reduction",
    "plan",
    "prefix_up_to",
    "raw_at_from_cumulative",
    "raw_at_from_sliding",
    "raw_from_cumulative",
    "raw_from_sliding",
    "sliding",
    "sliding_from_cumulative",
]
