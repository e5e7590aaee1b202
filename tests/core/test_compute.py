"""Computing sequence data (paper section 2.2): naive vs. pipelined."""

import pytest

from repro.core.aggregates import AVG, COUNT, MAX, MIN, SUM
from repro.core.compute import OpCounter, compute_naive, compute_pipelined
from repro.core.vectorized import compute_vectorized
from repro.core.window import cumulative, sliding
from repro.errors import SequenceError
from tests.conftest import assert_close, brute_window

WINDOWS = [sliding(1, 1), sliding(2, 1), sliding(0, 6), sliding(3, 0), sliding(5, 5)]


class TestAgainstBruteForce:
    @pytest.mark.parametrize("window", WINDOWS, ids=str)
    def test_naive_sliding_sum(self, raw40, window):
        assert_close(compute_naive(raw40, window), brute_window(raw40, window))

    @pytest.mark.parametrize("window", WINDOWS, ids=str)
    def test_pipelined_sliding_sum(self, raw40, window):
        assert_close(compute_pipelined(raw40, window), brute_window(raw40, window))

    def test_cumulative_both(self, raw40):
        expected = brute_window(raw40, cumulative())
        assert_close(compute_naive(raw40, cumulative()), expected)
        assert_close(compute_pipelined(raw40, cumulative()), expected)

    @pytest.mark.parametrize("agg", [COUNT, AVG, MIN, MAX], ids=lambda a: a.name)
    @pytest.mark.parametrize("window", [sliding(2, 1), sliding(0, 3), cumulative()], ids=str)
    def test_other_aggregates(self, raw40, agg, window):
        expected = brute_window(raw40, window, agg)
        assert_close(compute_naive(raw40, window, agg), expected)
        assert_close(compute_pipelined(raw40, window, agg), expected)

    def test_point_window_is_identity(self, raw40):
        w = sliding(0, 0, allow_point=True)
        assert_close(compute_pipelined(raw40, w), raw40)


class TestEdgeCases:
    def test_empty_input_raises(self):
        # Shared contract: every strategy rejects empty raw data the same way.
        with pytest.raises(SequenceError):
            compute_pipelined([], sliding(2, 1))
        with pytest.raises(SequenceError):
            compute_naive([], sliding(2, 1))
        with pytest.raises(SequenceError):
            compute_vectorized([], sliding(2, 1))

    def test_single_value(self):
        assert compute_pipelined([7.0], sliding(3, 3)) == [7.0]

    def test_window_larger_than_data(self, raw40):
        w = sliding(100, 100)
        total = sum(raw40)
        got = compute_pipelined(raw40, w)
        assert_close(got, [total] * len(raw40))

    def test_negative_values_minmax(self):
        raw = [-5.0, -1.0, -9.0, -2.0]
        got = compute_pipelined(raw, sliding(1, 1), MIN)
        assert got == [-5.0, -9.0, -9.0, -9.0]


class TestOperationCounts:
    """The paper's claim: pipelined needs 3 ops per position regardless of w."""

    def test_pipelined_ops_independent_of_window_size(self, raw40):
        costs = []
        for w in (sliding(1, 1), sliding(5, 5), sliding(15, 15)):
            counter = OpCounter()
            compute_pipelined(raw40, w, SUM, counter)
            costs.append(counter.ops)
        # All pipelined runs cost ~3 per position + seed, independent of w.
        assert max(costs) - min(costs) <= sliding(15, 15).h + 1

    def test_naive_ops_grow_with_window_size(self, raw40):
        small, large = OpCounter(), OpCounter()
        compute_naive(raw40, sliding(1, 1), SUM, small)
        compute_naive(raw40, sliding(10, 10), SUM, large)
        assert large.ops > 4 * small.ops

    def test_cumulative_pipelined_is_linear(self, raw40):
        counter = OpCounter()
        compute_pipelined(raw40, cumulative(), SUM, counter)
        assert counter.ops == len(raw40)

    def test_naive_cumulative_is_quadratic(self, raw40):
        counter = OpCounter()
        compute_naive(raw40, cumulative(), SUM, counter)
        n = len(raw40)
        assert counter.ops == sum(k - 1 for k in range(1, n + 1))


class TestDispatch:
    def test_compute_strategy_dispatch(self, raw40):
        # The strategies are reached under their own names (there is no
        # compute(strategy=...) front door) and agree with each other.
        a = compute_naive(raw40, sliding(2, 2))
        b = compute_pipelined(raw40, sliding(2, 2))
        assert_close(a, b)
