"""Delta-debugging shrinker: minimality, safety, determinism."""

import pytest

from repro.core.window import cumulative, sliding
from repro.testkit import shrink_case
from repro.testkit.generator import FuzzCase

pytestmark = pytest.mark.fuzz

POISON = 777.0


def _case(rows, window=None, **kw):
    return FuzzCase(
        seed=0,
        rows=tuple(rows),
        partitioned=kw.get("partitioned", False),
        window=window or sliding(2, 1),
        aggregate_name=kw.get("aggregate_name", "SUM"),
    )


def _has_poison(case):
    return any(v == POISON for _, _, v in case.rows)


class TestRowMinimization:
    def test_shrinks_to_single_poison_row(self):
        rows = [(1, i, float(i)) for i in range(1, 31)] + [(1, 99, POISON)]
        shrunk = shrink_case(_case(rows), _has_poison)
        assert _has_poison(shrunk), "result must still fail the predicate"
        assert len(shrunk.rows) == 1
        assert shrunk.rows[0][2] == POISON

    def test_keeps_a_required_pair(self):
        # Failure needs BOTH poison rows: ddmin must not over-shrink.
        rows = [(1, i, float(i)) for i in range(1, 21)]
        rows += [(1, 50, POISON), (1, 60, POISON)]

        def two_poisons(case):
            return sum(1 for _, _, v in case.rows if v == POISON) >= 2

        shrunk = shrink_case(_case(rows), two_poisons)
        assert len(shrunk.rows) == 2
        assert all(v == POISON for _, _, v in shrunk.rows)

    def test_seed_provenance_survives(self):
        rows = [(1, i, POISON) for i in range(1, 9)]
        case = FuzzCase(seed=1234, rows=tuple(rows), partitioned=False,
                        window=sliding(1, 1), aggregate_name="AVG")
        shrunk = shrink_case(case, _has_poison)
        assert shrunk.seed == 1234
        assert "seed=1234" in shrunk.describe()


class TestWindowAndValues:
    def test_window_reduced_to_smallest_failing_frame(self):
        rows = [(1, i, POISON) for i in range(1, 6)]
        shrunk = shrink_case(_case(rows, window=sliding(5, 4)), _has_poison)
        # The predicate ignores the window, so it collapses to l + h == 1.
        assert shrunk.window.l + shrunk.window.h == 1

    def test_cumulative_window_swapped_for_tiny_sliding(self):
        rows = [(1, i, POISON) for i in range(1, 6)]
        shrunk = shrink_case(_case(rows, window=cumulative()), _has_poison)
        assert not shrunk.window.is_cumulative

    def test_values_simplified(self):
        rows = [(1, 1, 123.456), (1, 2, POISON)]
        shrunk = shrink_case(_case(rows), _has_poison)
        # Row 1 is droppable entirely; the survivor keeps the poison value
        # (0.0/1.0 would no longer fail).
        assert [v for _, _, v in shrunk.rows] == [POISON]


class TestSafety:
    def test_passing_case_rejected(self):
        rows = [(1, 1, 1.0)]
        with pytest.raises(ValueError, match="failing case"):
            shrink_case(_case(rows), lambda c: False)

    def test_a_failure_that_does_not_fire_again_is_kept_unshrunk(self):
        # A randomized fault can fail a case once and pass its replay; the
        # runner records the case as found instead of aborting the run.
        from repro.testkit.runner import FuzzRunner

        case = _case([(1, 1, 1.0), (1, 2, 2.0)])
        runner = FuzzRunner(oracle=None, corpus_dir="")
        runner.fails = lambda c: False
        outcome = runner._record_failure(case, [])
        assert outcome.shrunk_description == case.describe()
        assert outcome.shrunk_rows == len(case.rows)

    def test_crashing_candidate_not_taken(self):
        rows = [(1, i, float(i)) for i in range(1, 11)] + [(1, 99, POISON)]

        def brittle(case):
            if not _has_poison(case):
                raise RuntimeError("harness blew up")
            return True

        shrunk = shrink_case(_case(rows), brittle)
        assert _has_poison(shrunk)

    def test_deterministic(self):
        rows = [(1 + i % 3, i, float(i % 7)) for i in range(1, 25)]
        rows += [(1, 99, POISON)]

        def fails(case):
            return _has_poison(case) and len(case.rows) >= 1

        a = shrink_case(_case(rows, partitioned=True), fails)
        b = shrink_case(_case(rows, partitioned=True), fails)
        assert a == b
