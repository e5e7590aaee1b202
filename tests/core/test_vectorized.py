"""Vectorized computation backend (NumPy)."""

import pytest

from repro.core.aggregates import AVG, COUNT, MAX, MIN, SUM
from repro.core.compute import compute_pipelined
from repro.core.vectorized import compute_vectorized
from repro.core.window import cumulative, sliding
from repro.errors import SequenceError
from tests.conftest import assert_close, brute_window

WINDOWS = [sliding(1, 1), sliding(2, 1), sliding(0, 6), sliding(3, 0), cumulative()]
AGGREGATES = [SUM, COUNT, AVG, MIN, MAX]


class TestCorrectness:
    @pytest.mark.parametrize("window", WINDOWS, ids=str)
    @pytest.mark.parametrize("agg", AGGREGATES, ids=lambda a: a.name)
    def test_matches_brute_force(self, raw40, window, agg):
        got = compute_vectorized(raw40, window, agg)
        assert_close(got, brute_window(raw40, window, agg))

    def test_empty_input_raises(self):
        with pytest.raises(SequenceError):
            compute_vectorized([], sliding(1, 1))

    def test_single_value(self):
        assert compute_vectorized([3.5], sliding(2, 2)) == [3.5]

    def test_window_larger_than_data(self, raw40):
        got = compute_vectorized(raw40, sliding(100, 100))
        assert_close(got, [sum(raw40)] * 40)

    def test_minmax_edge_windows_unaffected_by_padding(self):
        raw = [5.0, -2.0, 7.0]
        assert compute_vectorized(raw, sliding(2, 0), MIN) == [5.0, -2.0, -2.0]
        assert compute_vectorized(raw, sliding(0, 2), MAX) == [7.0, 7.0, 7.0]

    def test_returns_plain_python_list(self, raw40):
        out = compute_vectorized(raw40, sliding(1, 1))
        assert isinstance(out, list) and isinstance(out[0], float)


class TestDispatch:
    def test_compute_strategy(self, raw40):
        a = compute_vectorized(raw40, sliding(2, 1))
        b = compute_pipelined(raw40, sliding(2, 1))
        assert_close(a, b)


class TestScale:
    def test_large_sequence(self):
        from repro.warehouse import sequence_values

        raw = sequence_values(100_000, seed=2)
        got = compute_vectorized(raw, sliding(5, 5))
        ref = compute_pipelined(raw, sliding(5, 5))
        assert_close(got[:100], ref[:100])
        assert abs(got[50_000] - ref[50_000]) < 1e-6 * abs(ref[50_000])
