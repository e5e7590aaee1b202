"""Complete sequences: header/trailer semantics (paper section 3.2, fig. 7)."""

import pytest

from repro.core.aggregates import MIN, SUM
from repro.core.complete import CompleteSequence
from repro.core.window import cumulative, sliding
from repro.errors import IncompleteSequenceError, SequenceError


class TestStoredRange:
    def test_sliding_range(self, raw40):
        seq = CompleteSequence.from_raw(raw40, sliding(2, 3))
        # Header -h+1..0, trailer n+1..n+l (fig. 7).
        assert seq.stored_range == (-2, 42)

    def test_incomplete_range(self, raw40):
        seq = CompleteSequence.from_raw(raw40, sliding(2, 3), complete=False)
        assert seq.stored_range == (1, 40)

    def test_cumulative_range(self, raw40):
        seq = CompleteSequence.from_raw(raw40, cumulative())
        assert seq.stored_range == (1, 40)

    def test_positions_iteration(self, raw40):
        seq = CompleteSequence.from_raw(raw40, sliding(1, 1))
        assert list(seq.positions()) == list(range(0, 42))

    def test_items_pairs(self, raw40):
        seq = CompleteSequence.from_raw(raw40, sliding(1, 1))
        items = dict(seq.items())
        assert items[1] == seq.value(1)
        assert len(items) == 42


class TestHeaderTrailerValues:
    def test_header_values(self):
        raw = [10.0, 20.0, 30.0, 40.0]
        seq = CompleteSequence.from_raw(raw, sliding(2, 1))
        # x̃_0 has window [-2, 1]: only x_1 contributes.
        assert seq.value(0) == 10.0

    def test_trailer_values(self):
        raw = [10.0, 20.0, 30.0, 40.0]
        seq = CompleteSequence.from_raw(raw, sliding(2, 1))
        # x̃_5 has window [3, 6]: x_3 + x_4.
        assert seq.value(5) == 70.0
        # x̃_6 has window [4, 7]: x_4.
        assert seq.value(6) == 40.0

    def test_beyond_header_is_zero(self, raw40):
        seq = CompleteSequence.from_raw(raw40, sliding(2, 1))
        assert seq.value(-1) == 0.0
        assert seq.value(-100) == 0.0

    def test_beyond_trailer_is_zero(self, raw40):
        seq = CompleteSequence.from_raw(raw40, sliding(2, 1))
        assert seq.value(43) == 0.0

    def test_cumulative_extrapolation(self, raw40):
        seq = CompleteSequence.from_raw(raw40, cumulative())
        assert seq.value(0) == 0.0
        assert seq.value(-5) == 0.0
        # Running total stays at x̃_n to the right.
        assert seq.value(100) == pytest.approx(sum(raw40))


class TestIncomplete:
    def test_missing_header_raises(self, raw40):
        seq = CompleteSequence.from_raw(raw40, sliding(2, 1), complete=False)
        with pytest.raises(IncompleteSequenceError):
            seq.value(0)

    def test_missing_trailer_raises(self, raw40):
        seq = CompleteSequence.from_raw(raw40, sliding(2, 1), complete=False)
        with pytest.raises(IncompleteSequenceError):
            seq.value(41)

    def test_far_outside_still_zero(self, raw40):
        # Positions even a complete sequence would not store are just 0.
        seq = CompleteSequence.from_raw(raw40, sliding(2, 1), complete=False)
        assert seq.value(-10) == 0.0
        assert seq.value(60) == 0.0

    def test_core_positions_fine(self, raw40):
        seq = CompleteSequence.from_raw(raw40, sliding(2, 1), complete=False)
        assert seq.value(1) == pytest.approx(raw40[0] + raw40[1])


class TestValueOrNone:
    def test_supported_position(self, raw40):
        seq = CompleteSequence.from_raw(raw40, sliding(2, 1), MIN)
        assert seq.value_or_none(1) == seq.value(1)

    def test_empty_window_is_none(self, raw40):
        seq = CompleteSequence.from_raw(raw40, sliding(2, 1), MIN)
        # Position -1 has window [-3, 0]: no raw data.
        assert seq.value_or_none(-1) is None
        assert seq.value_or_none(45) is None


class TestFromValues:
    def test_roundtrip(self, raw40):
        seq = CompleteSequence.from_raw(raw40, sliding(2, 1))
        clone = CompleteSequence.from_values(
            sliding(2, 1), SUM, 40, list(seq.items())
        )
        assert clone == seq

    def test_missing_positions_rejected(self):
        with pytest.raises(IncompleteSequenceError):
            CompleteSequence.from_values(sliding(1, 1), SUM, 3, [(1, 1.0), (3, 2.0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(SequenceError):
            CompleteSequence.from_values(sliding(1, 1), SUM, 2, [(99, 1.0)])

    def test_wrong_count_rejected(self):
        with pytest.raises(SequenceError):
            CompleteSequence(sliding(1, 1), SUM, 3, [1.0, 2.0])


class TestAccessors:
    def test_core_values(self, raw40):
        seq = CompleteSequence.from_raw(raw40, sliding(2, 1))
        core = seq.core_values()
        assert len(core) == 40
        assert core[0] == seq.value(1)
        assert core[-1] == seq.value(40)

    def test_n(self, raw40):
        assert CompleteSequence.from_raw(raw40, sliding(1, 1)).n == 40

    def test_negative_n_rejected(self):
        with pytest.raises(SequenceError):
            CompleteSequence(sliding(1, 1), SUM, -1, [])

    def test_equality_considers_completeness(self, raw40):
        a = CompleteSequence.from_raw(raw40, cumulative())
        b = CompleteSequence.from_raw(raw40, cumulative(), complete=False)
        # Same stored values (cumulative stores 1..n either way) but
        # different completeness claims.
        assert a != b

    def test_empty_sequence(self):
        seq = CompleteSequence.from_raw([], sliding(1, 1))
        assert seq.n == 0
        assert seq.core_values() == []


class TestSpan:
    """``span`` is ``value`` over a range; ``strided_cumsum`` the one
    recurrence the derivation kernels run on it."""

    @pytest.mark.parametrize("window", [sliding(2, 3), sliding(0, 2), cumulative()])
    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_equals_value_position_by_position(self, window, n):
        seq = CompleteSequence.from_raw([float(i * i) for i in range(1, n + 1)], window)
        for lo, hi in [(1, n), (-6, n + 6), (-9, -4), (n + 3, n + 8), (3, 2), (5, 1)]:
            assert seq.span(lo, hi).tolist() == [
                seq.value(k) for k in range(lo, hi + 1)
            ]

    def test_incomplete_raises_where_value_does(self, raw40):
        seq = CompleteSequence.from_raw(raw40, sliding(2, 1), complete=False)
        assert seq.span(1, 40).tolist() == seq.core_values()
        assert seq.span(-5, -1).tolist() == [0.0] * 5  # left of the header
        for lo, hi in [(0, 5), (30, 41), (-3, 50)]:
            with pytest.raises(IncompleteSequenceError, match="header/trailer"):
                seq.span(lo, hi)

    def test_array_is_read_only_dropped_by_maintenance_and_not_copied(self, raw40):
        import copy
        import pickle

        import numpy as np

        from repro.core.maintenance import apply_update

        raw = list(raw40)
        seq = CompleteSequence.from_raw(raw, sliding(2, 1))
        view = seq.span(1, 40)
        with pytest.raises(ValueError):
            view[0] = 0.0
        # span reads the one stored array in place; copies get their own,
        # read-only too
        assert np.shares_memory(view, seq._values)
        clone = copy.deepcopy(seq)
        for other in (clone, pickle.loads(pickle.dumps(seq))):
            assert not other._values.flags.writeable
            assert not np.shares_memory(other._values, seq._values)
        kept = seq._values
        apply_update(raw, seq, 5, 123.0)
        # maintenance installs a new read-only array and leaves the old one
        assert seq._values is not kept and not seq._values.flags.writeable
        assert seq._values.tolist() == seq.to_list()
        assert kept.tolist() == clone.to_list()
        assert seq.span(1, 40).tolist() == seq.core_values() != clone.core_values()
        assert clone == CompleteSequence.from_raw(raw40, sliding(2, 1))

    def test_strided_cumsum_is_the_scalar_recurrence(self):
        import numpy as np

        from repro.core.complete import strided_cumsum

        x = [0.1 * (i % 7) - 0.3 for i in range(23)]
        for period in (1, 2, 5, 23, 40):
            out = [0.0] * len(x)
            for i, v in enumerate(x):
                out[i] = v + (out[i - period] if i >= period else 0.0)
            assert strided_cumsum(np.array(x), period).tolist() == out
        assert strided_cumsum(np.zeros(0), 3).tolist() == []


class TestFromRaw:
    def test_is_the_vectorized_evaluator_not_a_per_position_loop(self, monkeypatch):
        from repro.core.sequence import SequenceSpec

        calls = []
        value_at = SequenceSpec.value_at
        monkeypatch.setattr(
            SequenceSpec, "value_at",
            lambda self, raw, k: calls.append(k) or value_at(self, raw, k),
        )
        raw = [float(i % 13) - 6.5 for i in range(100_000)]
        seq = CompleteSequence.from_raw(raw, cumulative())
        assert calls == []
        assert seq.value(100_000) == sum(raw)

