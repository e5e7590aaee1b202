"""Ablation A — naive vs pipelined sequence computation (section 2.2).

The paper's claim: the recursive (pipelined) form needs three operations
per position *independent of the window size*, while the explicit form
needs O(w).  Wall clocks and operation counters must both show the naive
cost growing with w while the pipelined cost stays flat.

The engine runs the recurrence as one NumPy kernel (``compute_vectorized``,
DESIGN.md §5m); ``test_kernel_cost_is_flat_in_the_width`` prints its
microseconds per position for SUM and MAX over widths 3 to 3001 (run with
``-s``) and holds the spread under 2x.
"""

import time

import pytest

from repro.core.aggregates import MAX, SUM
from repro.core.compute import OpCounter, compute_naive, compute_pipelined
from repro.core.vectorized import compute_vectorized
from repro.core.window import cumulative, sliding
from repro.warehouse import sequence_values

N = 20000
WIDTHS = [(1, 1), (5, 5), (50, 50)]
RAW = sequence_values(N, seed=1)


@pytest.mark.parametrize("l,h", WIDTHS)
def test_naive(benchmark, l, h):
    benchmark.group = f"compute w={l + h + 1}"
    out = benchmark.pedantic(
        compute_naive, args=(RAW, sliding(l, h)), rounds=1, iterations=1
    )
    assert len(out) == N


@pytest.mark.parametrize("l,h", WIDTHS)
def test_pipelined(benchmark, l, h):
    benchmark.group = f"compute w={l + h + 1}"
    out = benchmark.pedantic(
        compute_pipelined, args=(RAW, sliding(l, h)), rounds=3, iterations=1
    )
    assert len(out) == N


@pytest.mark.parametrize("l,h", WIDTHS)
def test_vectorized(benchmark, l, h):
    """The engine's kernel: the same recurrence as one NumPy cumsum."""
    benchmark.group = f"compute w={l + h + 1}"
    out = benchmark.pedantic(
        compute_vectorized, args=(RAW, sliding(l, h)), rounds=3, iterations=1
    )
    assert len(out) == N


KERNEL_N = 10_000
KERNEL_WIDTHS = [3, 31, 301, 3001]
KERNEL_RAW = sequence_values(KERNEL_N, seed=1)


def test_kernel_cost_is_flat_in_the_width():
    """Best-of-15 microseconds per position; O(n) whatever the frame."""
    for aggregate in (SUM, MAX):
        cost = {}
        for width in KERNEL_WIDTHS:
            window = sliding(width // 2, width // 2)
            best = float("inf")
            for _ in range(15):
                start = time.perf_counter()
                compute_vectorized(KERNEL_RAW, window, aggregate)
                best = min(best, time.perf_counter() - start)
            cost[width] = best * 1e6 / KERNEL_N
        print(
            f"kernel {aggregate.name} n={KERNEL_N} us/position: "
            + ", ".join(f"w={w}: {c:.4f}" for w, c in cost.items())
        )
        assert max(cost.values()) <= 2.0 * min(cost.values()), cost


def test_cumulative_pipelined(benchmark):
    benchmark.group = "compute cumulative"
    out = benchmark(compute_pipelined, RAW, cumulative())
    assert len(out) == N


def test_operation_counts_scale_as_claimed():
    """The O(w) vs O(1) claim, measured in operations rather than seconds."""
    results = {}
    for l, h in WIDTHS:
        naive, pipe = OpCounter(), OpCounter()
        compute_naive(RAW, sliding(l, h), counter=naive)
        compute_pipelined(RAW, sliding(l, h), counter=pipe)
        results[l + h + 1] = (naive.ops, pipe.ops)
    # Naive grows with w...
    assert results[101][0] > 10 * results[3][0]
    # ...pipelined does not.
    assert results[101][1] < 1.1 * results[3][1]
