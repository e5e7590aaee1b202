"""Derivation planner (sections 3-5 combined)."""

import pytest

from repro.core.complete import CompleteSequence
from repro.core.derivation import derivable, derive, plan, prefix_up_to
from repro.core.window import WindowSpec, cumulative, sliding
from repro.errors import DerivationError
from tests.conftest import assert_close, brute_window, derive_each


class TestPlanner:
    def test_identity(self):
        assert plan(sliding(2, 1), sliding(2, 1)).algorithm == "identity"
        assert plan(cumulative(), cumulative()).algorithm == "identity"

    def test_cumulative_to_sliding(self):
        assert plan(cumulative(), sliding(3, 1)).algorithm == "cumulative"

    def test_cumulative_to_point(self):
        assert plan(cumulative(), WindowSpec.point()).algorithm == "cumulative"

    def test_sliding_to_point(self):
        assert plan(sliding(2, 1), WindowSpec.point()).algorithm == "reconstruct"

    def test_sliding_to_cumulative(self):
        assert plan(sliding(2, 1), cumulative()).algorithm == "prefix"

    def test_auto_prefers_minoa_for_sum(self):
        # Paper: MinOA is "theoretically more economical".
        assert plan(sliding(2, 1), sliding(3, 1)).algorithm == "minoa"

    def test_minmax_forces_maxoa(self):
        assert plan(sliding(2, 1), sliding(3, 1), minmax=True).algorithm == "maxoa"

    def test_forced_algorithm(self):
        assert plan(sliding(2, 1), sliding(3, 1), algorithm="maxoa").algorithm == "maxoa"

    def test_forced_algorithm_unavailable(self):
        # Narrower window: MaxOA cannot apply.
        with pytest.raises(DerivationError):
            plan(sliding(3, 2), sliding(1, 1), algorithm="maxoa")

    def test_minmax_narrower_not_derivable(self):
        with pytest.raises(DerivationError):
            plan(sliding(3, 2), sliding(1, 1), minmax=True)

    def test_minmax_point_not_derivable(self):
        with pytest.raises(DerivationError):
            plan(sliding(2, 1), WindowSpec.point(), minmax=True)

    def test_minmax_cumulative_source_not_derivable(self):
        with pytest.raises(DerivationError):
            plan(cumulative(), sliding(1, 1), minmax=True)

    def test_derivable_predicate(self):
        assert derivable(sliding(2, 1), sliding(5, 5))
        assert derivable(cumulative(), sliding(1, 1))
        assert not derivable(sliding(2, 1), sliding(3, 1), minmax=False) is False  # sanity
        assert not derivable(cumulative(), sliding(1, 1), minmax=True)

    def test_describe_mentions_windows(self):
        text = plan(sliding(2, 1), sliding(3, 1)).describe()
        assert "sliding(3, 1)" in text and "sliding(2, 1)" in text

    def test_out_of_paper_bound_noted(self):
        p = plan(sliding(2, 1), sliding(5, 1), algorithm="maxoa")
        assert any("bound" in note for note in p.notes)


class TestDeriveFacade:
    @pytest.mark.parametrize(
        "view,target",
        [
            (sliding(2, 1), sliding(3, 1)),
            (sliding(2, 1), sliding(2, 1)),
            (sliding(2, 1), cumulative()),
            (sliding(2, 1), WindowSpec.point()),
            (cumulative(), sliding(2, 3)),
        ],
        ids=str,
    )
    @pytest.mark.parametrize("form", ["explicit", "recursive"])
    def test_all_paths_match_brute_force(self, raw40, view, target, form):
        seq = CompleteSequence.from_raw(raw40, view)
        got = derive_each(seq, target) if form == "explicit" else derive(seq, target)
        assert_close(got, brute_window(raw40, target))

    def test_explicit_algorithm_choice(self, raw40):
        seq = CompleteSequence.from_raw(raw40, sliding(2, 1))
        a = derive(seq, sliding(3, 1), algorithm="maxoa")
        b = derive(seq, sliding(3, 1), algorithm="minoa")
        assert_close(a, b)


class TestPrefixUpTo:
    def test_from_sliding(self, raw40):
        seq = CompleteSequence.from_raw(raw40, sliding(2, 1))
        for j in (0, 1, 5, 40):
            assert prefix_up_to(seq, j) == pytest.approx(sum(raw40[:j]))

    def test_from_cumulative(self, raw40):
        seq = CompleteSequence.from_raw(raw40, cumulative())
        assert prefix_up_to(seq, 13) == pytest.approx(sum(raw40[:13]))

    def test_negative_j_is_zero(self, raw40):
        seq = CompleteSequence.from_raw(raw40, sliding(2, 1))
        assert prefix_up_to(seq, -3) == 0.0

    def test_minmax_rejected(self, raw40):
        from repro.core.aggregates import MAX

        seq = CompleteSequence.from_raw(raw40, sliding(2, 1), MAX)
        with pytest.raises(DerivationError):
            prefix_up_to(seq, 5)
