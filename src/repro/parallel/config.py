"""Execution configuration for the partition-parallel subsystem.

:class:`ExecutionConfig` is the single knob object threaded from the
:class:`~repro.warehouse.warehouse.DataWarehouse` facade through the SQL
planner down to the chunked sequence kernels.  It decides

* **how many workers** run concurrently (``jobs``; ``0`` = one per CPU),
* **how work is split** (``chunk_size`` — the minimum number of core
  positions per chunk; long sequences are cut into roughly equal chunks of
  at least this size), and
* **where chunks run** (``backend`` — ``"serial"``, ``"thread"``, or
  ``"process"``).

Every chunk is evaluated by the NumPy
:func:`~repro.core.vectorized.compute_vectorized` bulk kernel.

The default configuration is strictly serial and byte-for-byte equivalent
to the historical single-threaded engine, so existing callers are
unaffected unless they opt in.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.errors import ParallelError

__all__ = ["BACKENDS", "ExecutionConfig"]

BACKENDS = ("serial", "thread", "process")


@dataclass(frozen=True)
class ExecutionConfig:
    """How sequence computations are split across workers.

    Attributes:
        jobs: worker count; ``0`` resolves to ``os.cpu_count()`` and ``1``
            keeps everything on the calling thread.
        chunk_size: minimum core positions per chunk; sequences shorter than
            ``2 * chunk_size`` are never split.
        backend: ``"serial"`` (in-process map), ``"thread"``
            (``ThreadPoolExecutor`` — NumPy kernels release the GIL), or
            ``"process"`` (``ProcessPoolExecutor`` — NumPy-backed chunks are
            pickled to worker processes).
        task_timeout: per-task result deadline in seconds for pool backends
            (``None`` waits forever; ignored by the serial path, which
            cannot be preempted).
        max_retries: bounded re-submissions of a failed/timed-out task
            before the pool gives up on it.
        retry_backoff: base sleep before a retry round; doubles each round
            (exponential backoff).
        fallback: degrade to in-process serial execution when the pool
            breaks (``BrokenProcessPool``) or retries are exhausted,
            instead of raising — correctness over speed.
    """

    jobs: int = 1
    chunk_size: int = 65536
    backend: str = "serial"
    task_timeout: Optional[float] = None
    max_retries: int = 2
    retry_backoff: float = 0.05
    fallback: bool = True

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ParallelError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        if self.jobs < 0:
            raise ParallelError(f"jobs must be >= 0, got {self.jobs}")
        if self.chunk_size < 1:
            raise ParallelError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ParallelError(
                f"task_timeout must be positive, got {self.task_timeout}"
            )
        if self.max_retries < 0:
            raise ParallelError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.retry_backoff < 0:
            raise ParallelError(
                f"retry_backoff must be >= 0, got {self.retry_backoff}"
            )

    @property
    def resolved_jobs(self) -> int:
        """Concrete worker count (``jobs=0`` resolves to the CPU count)."""
        if self.jobs == 0:
            return max(os.cpu_count() or 1, 1)
        return self.jobs

    @property
    def is_parallel(self) -> bool:
        """True when work may leave the calling thread."""
        return self.backend != "serial" and self.resolved_jobs > 1

    @staticmethod
    def serial() -> "ExecutionConfig":
        """The default single-threaded configuration."""
        return ExecutionConfig()

    def describe(self) -> str:
        """One-line human-readable summary (used by EXPLAIN and the CLI)."""
        text = (
            f"backend={self.backend} jobs={self.resolved_jobs} "
            f"chunk_size={self.chunk_size}"
        )
        if self.task_timeout is not None:
            text += f" timeout={self.task_timeout:g}s"
        if self.max_retries != 2 or not self.fallback:
            text += f" retries={self.max_retries} fallback={self.fallback}"
        return text
