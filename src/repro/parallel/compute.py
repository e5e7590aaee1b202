"""Chunked (partition-parallel) sequence computation.

:func:`compute_parallel` is the parallel counterpart of
:func:`repro.core.compute.compute_pipelined` — same inputs, same outputs,
evaluated as independent chunks on an
:class:`~repro.parallel.executor.ExecutorPool`:

1. the :class:`~repro.parallel.partitioner.Partitioner` cuts the sequence
   into chunks whose payloads carry the ``l``-row header / ``h``-row
   trailer overlap (sliding windows) or plain raw slices (cumulative);
2. every chunk is evaluated independently by a worker running the window
   kernel (:func:`~repro.core.vectorized.compute_vectorized`) over its
   padded payload;
3. the merge concatenates core slices **in chunk order** — and, for
   cumulative windows, folds the carry-in prefix state (running SUM /
   COUNT offset / extremum of all earlier chunks) into each chunk's local
   values.

Results agree with the serial run: bit-identical for MIN/MAX/COUNT and
for integer-valued data (every intermediate is exactly representable),
and equal up to floating-point summation order otherwise — a chunk seeds
its running sum at the chunk start instead of carrying the serial
accumulator across it.

:func:`compute_grouped_parallel` schedules many partitions' chunks through
one pool (parallelism *across* PARTITION BY groups and *within* long
groups at once); :func:`evaluate_positions` batch-evaluates explicit
window values for scattered positions — the §2.3 maintenance band
recomputation runs through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.aggregates import AVG, COUNT, MAX, MIN, SUM, Aggregate, by_name
from repro.core.sequence import SequenceSpec
from repro.core.vectorized import compute_vectorized
from repro.core.window import WindowSpec
from repro.errors import ParallelError, SequenceError
from repro.parallel.config import ExecutionConfig
from repro.parallel.executor import ExecutorPool
from repro.parallel.partitioner import Chunk, Partitioner

__all__ = ["compute_parallel", "compute_grouped_parallel", "evaluate_positions"]


# ---------------------------------------------------------------------------
# Worker-side task evaluation (module level so it pickles to processes)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _ChunkTask:
    """Picklable unit of work: one chunk plus everything a worker needs.

    ``window_kind``/``l``/``h`` and ``aggregate`` travel as plain values so
    the task ships to process workers without closures.  For cumulative AVG
    the worker computes the SUM numerator (the merge divides by the global
    position), recorded in ``worker_aggregate``.
    """

    payload: np.ndarray
    offset: int
    core_len: int
    window_kind: str
    l: int
    h: int
    worker_aggregate: str
    group: int
    index: int


def _task_window(task: _ChunkTask) -> WindowSpec:
    if task.window_kind == "cumulative":
        return WindowSpec.cumulative()
    return WindowSpec.sliding(task.l, task.h, allow_point=True)


def _run_chunk(task: _ChunkTask) -> np.ndarray:
    """Evaluate one chunk; returns the chunk-local value array.

    Sliding windows: the kernel runs over the padded payload (header +
    core + trailer) and the core slice is cut out — clipping at the payload
    boundary coincides with the sequence-boundary clipping of the serial
    algorithm exactly where the padding was clipped, and is absent
    everywhere else.

    Cumulative windows: the kernel's result over the bare payload *is* the
    local cumulative aggregate; the caller folds in the carry.
    """
    window = _task_window(task)
    aggregate = by_name(task.worker_aggregate)
    values = np.asarray(
        compute_vectorized(task.payload, window, aggregate), dtype=np.float64
    )
    if window.is_cumulative:
        return values
    return values[task.offset : task.offset + task.core_len]


def _make_task(chunk: Chunk, window: WindowSpec, aggregate: Aggregate) -> _ChunkTask:
    worker_agg = aggregate
    if window.is_cumulative and aggregate is AVG:
        worker_agg = SUM  # merge divides by the global position
    return _ChunkTask(
        payload=chunk.payload,
        offset=chunk.offset,
        core_len=chunk.core_len,
        window_kind=window.kind,
        l=window.l,
        h=window.h,
        worker_aggregate=worker_agg.name,
        group=chunk.group,
        index=chunk.index,
    )


# ---------------------------------------------------------------------------
# Ordered merge
# ---------------------------------------------------------------------------


def _merge_sliding(parts: Sequence[np.ndarray]) -> List[float]:
    return np.concatenate(parts).tolist()


def _merge_cumulative(
    parts: Sequence[np.ndarray], aggregate: Aggregate
) -> List[float]:
    """Fold carry-in prefix state through the ordered chunk results."""
    out: List[np.ndarray] = []
    if aggregate in (SUM, AVG, COUNT):
        carry = 0.0  # running SUM (or COUNT) of all earlier chunks
        offset = 0  # positions produced by earlier chunks
        for local in parts:
            m = len(local)
            absolute = local + carry
            if aggregate is AVG:
                absolute = absolute / np.arange(offset + 1, offset + m + 1)
            out.append(absolute)
            carry += float(local[-1])
            offset += m
    elif aggregate in (MIN, MAX):
        fold = np.minimum if aggregate is MIN else np.maximum
        carry = np.inf if aggregate is MIN else -np.inf
        for local in parts:
            out.append(fold(local, carry))
            carry = float(fold(carry, local[-1]))
    else:  # pragma: no cover - aggregates are a closed set
        raise ParallelError(f"no cumulative merge for {aggregate.name}")
    return np.concatenate(out).tolist()


def _merge_group(
    parts: Sequence[np.ndarray], window: WindowSpec, aggregate: Aggregate
) -> List[float]:
    if window.is_cumulative:
        return _merge_cumulative(parts, aggregate)
    return _merge_sliding(parts)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def compute_parallel(
    raw: Sequence[float],
    window: WindowSpec,
    aggregate: Aggregate = SUM,
    config: Optional[ExecutionConfig] = None,
    *,
    pool: Optional[ExecutorPool] = None,
) -> List[float]:
    """Compute ``[x̃_1 .. x̃_n]`` with chunked, optionally parallel execution.

    Args:
        config: execution knobs; defaults to the serial single-chunk
            configuration (then this is just the kernel on one chunk).
        pool: reuse an existing :class:`ExecutorPool` (one-shot pools are
            created — and torn down — per call otherwise).

    Raises:
        SequenceError: on empty input (the strategies' shared contract).
    """
    return compute_grouped_parallel([raw], window, aggregate, config, pool=pool)[0]


def compute_grouped_parallel(
    groups: Sequence[Sequence[float]],
    window: WindowSpec,
    aggregate: Aggregate = SUM,
    config: Optional[ExecutionConfig] = None,
    *,
    pool: Optional[ExecutorPool] = None,
) -> List[List[float]]:
    """Compute one sequence per PARTITION BY group through a single pool.

    All groups' chunks enter one ordered ``map``, so many short partitions
    saturate the workers just as well as one long partition.  Returns the
    per-group value lists in input order.

    Raises:
        SequenceError: when any group is empty.
    """
    cfg = config or ExecutionConfig()
    chunks = Partitioner(cfg).plan(groups, window)
    tasks = [_make_task(c, window, aggregate) for c in chunks]
    if pool is not None:
        results = pool.map(_run_chunk, tasks)
    else:
        with ExecutorPool(cfg) as own:
            results = own.map(_run_chunk, tasks)
    by_group: Dict[int, List[Tuple[int, np.ndarray]]] = {}
    for chunk, values in zip(chunks, results):
        by_group.setdefault(chunk.group, []).append((chunk.index, values))
    out: List[List[float]] = []
    for g in range(len(groups)):
        parts = [v for _, v in sorted(by_group[g], key=lambda item: item[0])]
        out.append(_merge_group(parts, window, aggregate))
    return out


# ---------------------------------------------------------------------------
# Scattered-position (maintenance band) evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _BandTask:
    """Explicit evaluation of a batch of positions over shared raw data."""

    raw: np.ndarray
    window_kind: str
    l: int
    h: int
    aggregate: str
    positions: Tuple[int, ...]


def _run_band(task: _BandTask) -> List[float]:
    window = (
        WindowSpec.cumulative()
        if task.window_kind == "cumulative"
        else WindowSpec.sliding(task.l, task.h, allow_point=True)
    )
    spec = SequenceSpec(window, by_name(task.aggregate))
    raw = task.raw
    return [spec.value_at(raw, k) for k in task.positions]


def evaluate_positions(
    raw: Sequence[float],
    window: WindowSpec,
    aggregate: Aggregate,
    positions: Sequence[int],
    config: Optional[ExecutionConfig] = None,
    *,
    pool: Optional[ExecutorPool] = None,
) -> List[float]:
    """Explicit-form values ``x̃_k`` for scattered positions, pool-assisted.

    The §2.3 incremental-maintenance rules recompute a band of up to
    ``w = l + h + 1`` values on MIN/MAX fallbacks; for wide windows that
    band is the dominant cost, and its positions are independent — so they
    are split across the pool.  Positions may lie in the header/trailer;
    evaluation clips to ``1..n`` exactly like
    :meth:`~repro.core.sequence.SequenceSpec.value_at`.
    """
    cfg = config or ExecutionConfig()
    if not positions:
        return []
    values = np.asarray(raw, dtype=np.float64)
    jobs = cfg.resolved_jobs if cfg.is_parallel else 1
    n_batches = min(max(jobs, 1), len(positions)) if cfg.is_parallel else 1
    batches = [list(positions)[i::n_batches] for i in range(n_batches)]
    tasks = [
        _BandTask(values, window.kind, window.l, window.h, aggregate.name, tuple(b))
        for b in batches
        if b
    ]
    if pool is not None:
        results = pool.map(_run_band, tasks)
    else:
        with ExecutorPool(cfg) as own:
            results = own.map(_run_band, tasks)
    out: Dict[int, float] = {}
    for task, vals in zip(tasks, results):
        for k, v in zip(task.positions, vals):
            out[k] = v
    return [out[k] for k in positions]
