"""MaxOA — maximal overlapping derivation (paper section 4)."""

import pytest

from repro.core import maxoa
from repro.core.aggregates import MAX, MIN, AVG
from repro.core.complete import CompleteSequence
from repro.core.window import cumulative, sliding
from repro.errors import DerivationError, IncompleteSequenceError
from tests.conftest import assert_close, brute_window, derive_each


class TestParameters:
    def test_factors_match_paper(self):
        # x̃ = (lx, h) = (2, 1), ỹ = (3, 1): Δl = 1, Δp = 1 + lx + h - Δl = 3.
        params = maxoa.check_preconditions(sliding(2, 1), sliding(3, 1))
        assert params.delta_l == 1 and params.delta_h == 0
        assert params.delta_p == 3
        assert params.delta_l + params.delta_p == params.period == 4

    def test_double_side_factors(self):
        params = maxoa.check_preconditions(sliding(2, 1), sliding(3, 2))
        assert (params.delta_l, params.delta_h) == (1, 1)
        assert params.delta_q == 1 + 2 + 1 - 1 == 3
        assert params.delta_h + params.delta_q == params.period

    def test_paper_bound_flag(self):
        # ly <= hx - 1 + 2 lx = 1 - 1 + 4 = 4 holds for ly = 3.
        assert maxoa.check_preconditions(sliding(2, 1), sliding(3, 1)).meets_paper_bound
        # ly = 5 exceeds the paper's bound but stays within Δl <= Wx.
        assert not maxoa.check_preconditions(sliding(2, 1), sliding(5, 1)).meets_paper_bound

    def test_negative_coverage_rejected(self):
        with pytest.raises(DerivationError):
            maxoa.check_preconditions(sliding(3, 1), sliding(2, 1))

    def test_excessive_coverage_rejected(self):
        # Δl > Wx: shifted windows cannot tile contiguously.
        with pytest.raises(DerivationError):
            maxoa.check_preconditions(sliding(1, 1), sliding(5, 1))

    def test_non_sliding_rejected(self):
        with pytest.raises(DerivationError):
            maxoa.check_preconditions(cumulative(), sliding(1, 1))
        with pytest.raises(DerivationError):
            maxoa.check_preconditions(sliding(1, 1), cumulative())


CASES = [
    ((2, 1), (3, 1)),   # the paper's fig. 6 case (common upper bound)
    ((2, 1), (2, 2)),   # common lower bound
    ((2, 1), (3, 2)),   # double side
    ((1, 2), (3, 4)),   # larger shifts
    ((0, 2), (2, 3)),   # left-bounded view
    ((3, 0), (4, 2)),   # right-bounded view
    ((2, 2), (7, 7)),   # Δ = Wx on both sides (edge of validity)
]


class TestDerivation:
    @pytest.mark.parametrize("view,target", CASES, ids=str)
    @pytest.mark.parametrize("form", ["explicit", "recursive"])
    def test_matches_brute_force(self, raw40, view, target, form):
        seq = CompleteSequence.from_raw(raw40, sliding(*view))
        target = sliding(*target)
        if form == "explicit":
            got = derive_each(seq, target, algorithm="maxoa")
        else:
            got = maxoa.derive(seq, target)
        assert_close(got, brute_window(raw40, target))

    def test_forms_agree(self, raw40):
        seq = CompleteSequence.from_raw(raw40, sliding(2, 1))
        explicit = [maxoa.derive_at(seq, sliding(3, 2), k) for k in range(1, 41)]
        recursive = maxoa.derive(seq, sliding(3, 2))
        assert_close(explicit, recursive)

    def test_derive_at_single_position(self, raw40):
        seq = CompleteSequence.from_raw(raw40, sliding(2, 1))
        expected = brute_window(raw40, sliding(3, 1))
        for k in (1, 4, 9, 40):
            assert maxoa.derive_at(seq, sliding(3, 1), k) == pytest.approx(expected[k - 1])

    def test_requires_completeness(self, raw40):
        seq = CompleteSequence.from_raw(raw40, sliding(2, 1), complete=False)
        with pytest.raises(IncompleteSequenceError):
            maxoa.derive(seq, sliding(3, 1))

    def test_avg_view_rejected(self, raw40):
        seq = CompleteSequence.from_raw(raw40, sliding(2, 1), AVG)
        with pytest.raises(DerivationError):
            maxoa.derive(seq, sliding(3, 1))


class TestMinMax:
    """Section 4.2: MaxOA extends to MIN/MAX (ỹ_k = min(x̃_{k-Δl}, x̃_{k+Δh}))."""

    @pytest.mark.parametrize("agg", [MIN, MAX], ids=lambda a: a.name)
    @pytest.mark.parametrize("view,target", [((2, 1), (3, 1)), ((2, 1), (3, 2)), ((1, 1), (2, 2))], ids=str)
    def test_matches_brute_force(self, raw40, agg, view, target):
        seq = CompleteSequence.from_raw(raw40, sliding(*view), agg)
        got = maxoa.derive(seq, sliding(*target))
        assert_close(got, brute_window(raw40, sliding(*target), agg))

    def test_edge_positions_skip_empty_windows(self):
        # At k=1 the left-shifted window may lie entirely before the data;
        # its value must be skipped, not treated as 0.
        raw = [5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        seq = CompleteSequence.from_raw(raw, sliding(1, 1), MIN)
        got = maxoa.derive(seq, sliding(2, 1))
        assert_close(got, brute_window(raw, sliding(2, 1), MIN))
