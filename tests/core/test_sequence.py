"""The formal sequence triple (S, W, FA) — paper section 2.1."""

import pytest

from repro.core.aggregates import AVG, MAX, MIN, SUM
from repro.core.sequence import CustomBoundsSequenceSpec, SequenceSpec
from repro.core.window import cumulative, sliding
from repro.errors import SequenceError
from tests.conftest import assert_close, brute_window


class TestSequenceSpec:
    def test_bounds_delegate_to_window(self):
        spec = SequenceSpec(sliding(2, 1))
        assert (spec.lower_bound(10), spec.upper_bound(10)) == (8, 11)
        assert spec.window_size(10) == 4

    def test_value_at_matches_brute(self, raw40):
        spec = SequenceSpec(sliding(2, 1))
        expected = brute_window(raw40, sliding(2, 1))
        for k in (1, 2, 20, 40):
            assert spec.value_at(raw40, k) == pytest.approx(expected[k - 1])

    def test_materialize(self, raw40):
        spec = SequenceSpec(cumulative())
        assert_close(spec.materialize(raw40), brute_window(raw40, cumulative()))

    def test_value_outside_data_is_zero(self, raw40):
        spec = SequenceSpec(sliding(1, 1))
        assert spec.value_at(raw40, -10) == 0.0
        assert spec.value_at(raw40, 60) == 0.0

    @pytest.mark.parametrize("agg", [MIN, MAX, AVG], ids=lambda a: a.name)
    def test_other_aggregates(self, raw40, agg):
        spec = SequenceSpec(sliding(2, 2), agg)
        assert_close(spec.materialize(raw40), brute_window(raw40, sliding(2, 2), agg))


class TestCustomBounds:
    def test_variable_window(self, raw40):
        # Window [1, k]: re-creates cumulative semantics through the custom API.
        spec = CustomBoundsSequenceSpec(lambda k: 1, lambda k: k)
        assert_close(spec.materialize(raw40), brute_window(raw40, cumulative()))

    def test_window_size(self):
        spec = CustomBoundsSequenceSpec(lambda k: k - 1, lambda k: k + 2)
        assert spec.window_size(5) == 4
        assert spec.lower_bound(5) == 4 and spec.upper_bound(5) == 7

    def test_inverted_bounds_rejected(self, raw40):
        spec = CustomBoundsSequenceSpec(lambda k: k + 1, lambda k: k - 1)
        with pytest.raises(SequenceError):
            spec.value_at(raw40, 3)

    def test_aggregate_parameter(self, raw40):
        spec = CustomBoundsSequenceSpec(lambda k: k, lambda k: k + 3, MAX)
        expected = brute_window(raw40, sliding(0, 3), MAX)
        assert_close(spec.materialize(raw40), expected)
