"""Raw-data reconstruction and cumulative derivation (paper section 3)."""

import pytest

from repro.core.aggregates import MIN
from repro.core.complete import CompleteSequence
from repro.core.reconstruct import (
    raw_at_from_cumulative,
    raw_at_from_sliding,
    raw_from_cumulative,
    raw_from_sliding,
    sliding_from_cumulative,
)
from repro.core.window import WindowSpec, cumulative, sliding
from repro.errors import DerivationError, IncompleteSequenceError
from tests.conftest import assert_close, brute_window, derive_each


class TestFromCumulative:
    def test_raw_reconstruction(self, raw40):
        seq = CompleteSequence.from_raw(raw40, cumulative())
        assert_close(raw_from_cumulative(seq), raw40)

    def test_single_point(self, raw40):
        seq = CompleteSequence.from_raw(raw40, cumulative())
        assert raw_at_from_cumulative(seq, 1) == pytest.approx(raw40[0])
        assert raw_at_from_cumulative(seq, 17) == pytest.approx(raw40[16])

    @pytest.mark.parametrize("target", [sliding(1, 1), sliding(3, 1), sliding(0, 6), sliding(4, 0)], ids=str)
    def test_sliding_derivation(self, raw40, target):
        # fig. 5: ỹ_k = x̃_{k+h} - x̃_{k-l-1}.
        seq = CompleteSequence.from_raw(raw40, cumulative())
        assert_close(sliding_from_cumulative(seq, target), brute_window(raw40, target))

    def test_wrong_view_kind(self, raw40):
        seq = CompleteSequence.from_raw(raw40, sliding(1, 1))
        with pytest.raises(DerivationError):
            raw_from_cumulative(seq)
        with pytest.raises(DerivationError):
            sliding_from_cumulative(seq, sliding(1, 1))

    def test_cumulative_target_rejected(self, raw40):
        seq = CompleteSequence.from_raw(raw40, cumulative())
        with pytest.raises(DerivationError):
            sliding_from_cumulative(seq, cumulative())


class TestFromSliding:
    @pytest.mark.parametrize("window", [sliding(2, 1), sliding(1, 2), sliding(0, 3), sliding(3, 0), sliding(4, 4)], ids=str)
    @pytest.mark.parametrize("form", ["explicit", "recursive"])
    def test_raw_reconstruction(self, raw40, window, form):
        seq = CompleteSequence.from_raw(raw40, window)
        got = derive_each(seq, WindowSpec.point()) if form == "explicit" else raw_from_sliding(seq)
        assert_close(got, raw40)

    def test_single_point_forms_agree(self, raw40):
        seq = CompleteSequence.from_raw(raw40, sliding(2, 2))
        for k in (1, 7, 40):
            explicit = raw_at_from_sliding(seq, k, form="explicit")
            recursive = raw_at_from_sliding(seq, k, form="recursive")
            assert explicit == pytest.approx(recursive)
            assert explicit == pytest.approx(raw40[k - 1])

    def test_iup_bound_respected(self, raw40):
        # The explicit sum must terminate (i_up = ceil(k/w)); a wrong bound
        # would either loop forever or return a wrong value at large k.
        seq = CompleteSequence.from_raw(raw40, sliding(1, 1))
        assert raw_at_from_sliding(seq, 40) == pytest.approx(raw40[39])

    def test_requires_completeness(self, raw40):
        seq = CompleteSequence.from_raw(raw40, sliding(2, 1), complete=False)
        with pytest.raises(IncompleteSequenceError):
            raw_from_sliding(seq)

    def test_minmax_rejected(self, raw40):
        seq = CompleteSequence.from_raw(raw40, sliding(2, 1), MIN)
        with pytest.raises(DerivationError):
            raw_from_sliding(seq)

    def test_unknown_form(self, raw40):
        seq = CompleteSequence.from_raw(raw40, sliding(2, 1))
        with pytest.raises(DerivationError):
            raw_at_from_sliding(seq, 1, form="magic")
