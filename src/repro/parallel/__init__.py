"""Partition-parallel execution subsystem.

Chunked evaluation of reporting-function sequences: the paper's
complete-sequence header/trailer machinery (section 3) applied *per chunk*
makes sequence segments independently computable, so window computation,
view refresh, and maintenance band recomputation can run across PARTITION
BY groups and within long sequences on thread or process pools.

Public surface:

* :class:`ExecutionConfig` — jobs / chunk_size / backend knobs;
* :class:`Partitioner` / :class:`Chunk` — overlap-carrying work splitting;
* :class:`ExecutorPool` — ordered map over serial/thread/process backends;
* :func:`compute_parallel` / :func:`compute_grouped_parallel` — the chunked
  counterparts of :func:`repro.core.compute.compute_pipelined`;
* :func:`evaluate_positions` — pool-assisted explicit evaluation of
  scattered positions (maintenance bands);
* :mod:`repro.parallel.health` — process-wide broken-backend registry the
  planner consults to route queries away from a crashed pool backend.
"""

from repro.parallel import health
from repro.parallel.compute import (
    compute_grouped_parallel,
    compute_parallel,
    evaluate_positions,
)
from repro.parallel.config import BACKENDS, ExecutionConfig
from repro.parallel.executor import ExecutorPool
from repro.parallel.partitioner import Chunk, Partitioner

__all__ = [
    "BACKENDS",
    "Chunk",
    "ExecutionConfig",
    "ExecutorPool",
    "Partitioner",
    "compute_grouped_parallel",
    "compute_parallel",
    "evaluate_positions",
    "health",
]
