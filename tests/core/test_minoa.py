"""MinOA — minimal overlapping derivation (paper section 5)."""

import pytest

from repro.core import minoa
from repro.core.aggregates import AVG, MIN
from repro.core.complete import CompleteSequence
from repro.core.window import cumulative, sliding
from repro.errors import DerivationError, IncompleteSequenceError
from tests.conftest import assert_close, brute_window, derive_each

CASES = [
    ((2, 1), (3, 1)),   # paper's running example
    ((2, 1), (3, 2)),   # double side widening
    ((3, 2), (1, 1)),   # NARROWER target: negative coverage factors
    ((3, 2), (2, 4)),   # mixed signs
    ((1, 1), (6, 5)),   # coverage far beyond Wx (no MaxOA equivalent)
    ((0, 2), (4, 0)),   # bounded views
    ((4, 0), (0, 3)),
]


class TestDerivation:
    @pytest.mark.parametrize("view,target", CASES, ids=str)
    @pytest.mark.parametrize("form", ["explicit", "recursive"])
    def test_matches_brute_force(self, raw40, view, target, form):
        seq = CompleteSequence.from_raw(raw40, sliding(*view))
        target = sliding(*target)
        if form == "explicit":
            got = derive_each(seq, target, algorithm="minoa")
        else:
            got = minoa.derive(seq, target)
        assert_close(got, brute_window(raw40, target))

    def test_derive_at(self, raw40):
        seq = CompleteSequence.from_raw(raw40, sliding(2, 1))
        expected = brute_window(raw40, sliding(3, 1))
        for k in (1, 2, 9, 25, 40):
            assert minoa.derive_at(seq, sliding(3, 1), k) == pytest.approx(expected[k - 1])

    def test_no_window_size_restriction(self, raw40):
        # MinOA has no Δ <= Wx precondition — huge targets work.
        seq = CompleteSequence.from_raw(raw40, sliding(1, 1))
        got = minoa.derive(seq, sliding(20, 15))
        assert_close(got, brute_window(raw40, sliding(20, 15)))

    def test_parameters(self):
        params = minoa.check_preconditions(sliding(2, 1), sliding(3, 2))
        assert (params.delta_l, params.delta_h, params.period) == (1, 1, 4)

    def test_negative_factors_allowed(self):
        params = minoa.check_preconditions(sliding(3, 2), sliding(1, 1))
        assert (params.delta_l, params.delta_h) == (-2, -1)


class TestRestrictions:
    def test_minmax_rejected(self, raw40):
        # The paper's trade-off: MinOA subtracts, so MIN/MAX are out.
        seq = CompleteSequence.from_raw(raw40, sliding(2, 1), MIN)
        with pytest.raises(DerivationError):
            minoa.derive(seq, sliding(3, 1))
        with pytest.raises(DerivationError):
            minoa.derive_at(seq, sliding(3, 1), 1)

    def test_avg_rejected(self, raw40):
        seq = CompleteSequence.from_raw(raw40, sliding(2, 1), AVG)
        with pytest.raises(DerivationError):
            minoa.derive(seq, sliding(3, 1))

    def test_non_sliding_rejected(self, raw40):
        with pytest.raises(DerivationError):
            minoa.check_preconditions(cumulative(), sliding(1, 1))

    def test_requires_completeness(self, raw40):
        seq = CompleteSequence.from_raw(raw40, sliding(2, 1), complete=False)
        with pytest.raises(IncompleteSequenceError):
            minoa.derive(seq, sliding(3, 1))


class TestAgreementWithMaxOA:
    @pytest.mark.parametrize("view,target", [((2, 1), (3, 1)), ((2, 1), (3, 2)), ((1, 2), (2, 3))], ids=str)
    def test_both_algorithms_agree(self, raw40, view, target):
        from repro.core import maxoa

        seq = CompleteSequence.from_raw(raw40, sliding(*view))
        a = maxoa.derive(seq, sliding(*target))
        b = minoa.derive(seq, sliding(*target))
        assert_close(a, b)
