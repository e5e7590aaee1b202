"""Aggregate traits (paper section 2.1's classification)."""

import math
import struct

import pytest

from repro.core.aggregates import ALL_AGGREGATES, AVG, COUNT, MAX, MIN, SUM, by_name
from repro.errors import SequenceError


class TestTraits:
    def test_sum_is_invertible(self):
        assert SUM.invertible and not SUM.duplicate_insensitive

    def test_count_is_invertible(self):
        assert COUNT.invertible

    def test_min_max_semi_algebraic(self):
        # Paper: MIN/MAX are semi-algebraic — idempotent but not invertible.
        for agg in (MIN, MAX):
            assert agg.duplicate_insensitive and not agg.invertible

    def test_avg_neither(self):
        assert not AVG.invertible and not AVG.duplicate_insensitive


class TestApply:
    def test_sum(self):
        assert SUM.apply([1.0, 2.0, 3.5]) == 6.5

    def test_sum_empty_is_zero(self):
        assert SUM.apply([]) == 0.0

    def test_sum_adds_left_to_right(self):
        # Not a compensated sum (the builtin sum() is one from CPython 3.12
        # on): the explicit form has one set of bits on every interpreter.
        assert SUM.apply([1e16, 1.0, -1e16]) == 0.0
        assert AVG.apply([1e16, 1.0, -1e16]) == 0.0

    def test_count(self):
        assert COUNT.apply([5, 5, 5]) == 3.0

    def test_avg(self):
        assert AVG.apply([2.0, 4.0]) == 3.0

    def test_avg_empty_is_null(self):
        assert AVG.apply([]) is None

    def test_min_max(self):
        assert MIN.apply([3.0, -1.0, 2.0]) == -1.0
        assert MAX.apply([3.0, -1.0, 2.0]) == 3.0

    def test_min_max_propagate_the_first_nan(self):
        # As NumPy's minimum/maximum do; min()/max() skip a NaN that is not first.
        quiet = float("nan")
        payload = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
        for agg in (MIN, MAX):
            assert math.isnan(agg.apply([1.0, quiet, 0.5]))
            assert struct.pack("<d", agg.apply([2.0, payload, quiet])) == \
                struct.pack("<d", payload)

    def test_min_empty_is_null(self):
        assert MIN.apply([]) is None


class TestSubtract:
    def test_sum_subtract(self):
        assert SUM.subtract(10.0, 4.0) == 6.0

    def test_min_subtract_rejected(self):
        with pytest.raises(SequenceError):
            MIN.subtract(1.0, 1.0)


class TestLookup:
    def test_by_name_case_insensitive(self):
        assert by_name("sum") is SUM
        assert by_name("Max") is MAX

    def test_unknown_name(self):
        with pytest.raises(SequenceError):
            by_name("MEDIAN")

    def test_registry_complete(self):
        assert {a.name for a in ALL_AGGREGATES} == {"SUM", "COUNT", "AVG", "MIN", "MAX"}

    def test_combine(self):
        assert SUM.combine(2.0, 3.0) == 5.0
        assert MIN.combine(2.0, 3.0) == 2.0
        assert MAX.combine(2.0, 3.0) == 3.0

    def test_min_max_combine_propagates_nan_from_either_side(self):
        nan = float("nan")
        for agg in (MIN, MAX):
            assert math.isnan(agg.combine(1.0, nan))
            assert math.isnan(agg.combine(nan, 1.0))
            assert agg.combine(1.0, 1.0) == 1.0
