"""Chunked parallel computation equals the serial kernels.

The central property of the subsystem (seeded-random): for every aggregate
and window shape, the ordered merge of chunked results — serial, thread, or
process backend — reproduces the serial pipelined computation.  Integer-
valued data makes float arithmetic exact, so those comparisons use ``==``;
continuous data is compared within the usual summation-order tolerance.
"""

import random

import pytest

from repro.core.aggregates import AVG, COUNT, MAX, MIN, SUM
from repro.core.compute import compute_pipelined
from repro.core.window import cumulative, sliding
from repro.errors import SequenceError
from repro.parallel import ExecutionConfig, compute_grouped_parallel, compute_parallel
from repro.parallel.compute import evaluate_positions
from tests.conftest import assert_close

AGGREGATES = [SUM, COUNT, AVG, MIN, MAX]
WINDOWS = [sliding(2, 1), sliding(0, 4), sliding(5, 5), cumulative()]


def _integer_raw(n, seed):
    rng = random.Random(seed)
    return [float(rng.randint(-40, 40)) for _ in range(n)]


def _float_raw(n, seed):
    rng = random.Random(seed)
    return [rng.uniform(-100.0, 100.0) for _ in range(n)]


class TestBackendEquivalence:
    @pytest.mark.parametrize("window", WINDOWS, ids=str)
    @pytest.mark.parametrize("agg", AGGREGATES, ids=lambda a: a.name)
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_integer_data_is_exact(self, window, agg, backend):
        raw = _integer_raw(603, seed=hash((str(window), agg.name)) & 0xFFFF)
        expected = compute_pipelined(raw, window, agg)
        config = ExecutionConfig(jobs=3, backend=backend, chunk_size=50)
        assert compute_parallel(raw, window, agg, config) == expected

    @pytest.mark.parametrize("agg", AGGREGATES, ids=lambda a: a.name)
    def test_float_data_within_tolerance(self, agg):
        raw = _float_raw(997, seed=17)
        for window in WINDOWS:
            expected = compute_pipelined(raw, window, agg)
            config = ExecutionConfig(jobs=4, backend="thread", chunk_size=97)
            assert_close(compute_parallel(raw, window, agg, config), expected)

    @pytest.mark.parametrize("chunk_size", [1, 3, 7])
    @pytest.mark.parametrize("agg", AGGREGATES, ids=lambda a: a.name)
    def test_chunks_smaller_than_window(self, chunk_size, agg):
        # Chunks narrower than l + h + 1: every payload is mostly overlap.
        raw = _integer_raw(113, seed=chunk_size)
        for window in (sliding(5, 5), sliding(4, 0), cumulative()):
            expected = compute_pipelined(raw, window, agg)
            config = ExecutionConfig(jobs=2, backend="thread", chunk_size=chunk_size)
            assert compute_parallel(raw, window, agg, config) == expected

    def test_compute_facade_parallel_strategy(self):
        raw = _integer_raw(200, seed=9)
        # The default (serial, single-chunk) configuration.
        assert compute_parallel(raw, sliding(2, 2)) == compute_pipelined(
            raw, sliding(2, 2)
        )


class TestGrouped:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_many_groups_one_pool(self, backend):
        rng = random.Random(23)
        groups = [
            _integer_raw(rng.randint(1, 120), seed=g) for g in range(9)
        ]
        config = ExecutionConfig(jobs=3, backend=backend, chunk_size=16)
        for window in (sliding(3, 2), cumulative()):
            got = compute_grouped_parallel(groups, window, AVG, config)
            expected = [compute_pipelined(raw, window, AVG) for raw in groups]
            for g, e in zip(got, expected):
                assert g == e

    def test_empty_group_raises(self):
        config = ExecutionConfig(jobs=2, backend="thread", chunk_size=8)
        with pytest.raises(SequenceError):
            compute_grouped_parallel([[1.0], []], sliding(1, 1), SUM, config)


class TestEmptyInput:
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_raises_sequence_error(self, backend):
        config = ExecutionConfig(jobs=2, backend=backend)
        with pytest.raises(SequenceError):
            compute_parallel([], sliding(1, 1), SUM, config)


class TestEvaluatePositions:
    def test_matches_serial_explicit_form(self):
        from repro.core.sequence import SequenceSpec

        raw = _integer_raw(150, seed=31)
        window = sliding(6, 3)
        positions = [-2, 1, 7, 80, 150, 152, 40, 40]
        spec = SequenceSpec(window, MIN)
        expected = [spec.value_at(raw, k) for k in positions]
        for config in (
            None,
            ExecutionConfig(jobs=3, backend="thread"),
        ):
            got = evaluate_positions(raw, window, MIN, positions, config)
            assert got == expected

    def test_empty_position_list(self):
        assert evaluate_positions([1.0], sliding(1, 1), SUM, []) == []
