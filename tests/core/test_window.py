"""Window algebra (paper section 2.1)."""

import pytest

from repro.core.window import WindowSpec, cumulative, sliding
from repro.errors import WindowError


class TestConstruction:
    def test_sliding_basic(self):
        w = sliding(2, 1)
        assert w.is_sliding and not w.is_cumulative
        assert (w.l, w.h) == (2, 1)

    def test_cumulative_basic(self):
        w = cumulative()
        assert w.is_cumulative and not w.is_sliding

    def test_negative_lower_bound_rejected(self):
        with pytest.raises(WindowError):
            sliding(-1, 2)

    def test_negative_upper_bound_rejected(self):
        with pytest.raises(WindowError):
            sliding(1, -2)

    def test_point_window_rejected_by_default(self):
        # Paper footnote: l + h > 0.
        with pytest.raises(WindowError):
            sliding(0, 0)

    def test_point_window_opt_in(self):
        w = sliding(0, 0, allow_point=True)
        assert w.is_point

    def test_point_constructor(self):
        assert WindowSpec.point().is_point

    def test_unknown_kind_rejected(self):
        with pytest.raises(WindowError):
            WindowSpec("weird")

    def test_cumulative_with_bounds_rejected(self):
        with pytest.raises(WindowError):
            WindowSpec("cumulative", 1, 0)

    def test_hashable_and_equal(self):
        assert sliding(2, 1) == sliding(2, 1)
        assert sliding(2, 1) != sliding(1, 2)
        assert len({sliding(2, 1), sliding(2, 1), cumulative()}) == 2


class TestBoundedness:
    def test_left_bounded(self):
        assert sliding(0, 3).is_left_bounded
        assert not sliding(1, 3).is_left_bounded

    def test_right_bounded(self):
        assert sliding(3, 0).is_right_bounded
        assert not sliding(3, 1).is_right_bounded

    def test_cumulative_is_neither(self):
        w = cumulative()
        assert not w.is_left_bounded and not w.is_right_bounded


class TestBoundsAndSize:
    def test_sliding_bounds(self):
        assert sliding(2, 1).bounds(10) == (8, 11)

    def test_cumulative_bounds(self):
        # Paper: wL(k) = 0, wH(k) = k.
        assert cumulative().bounds(7) == (0, 7)

    def test_sliding_size_constant(self):
        w = sliding(2, 1)
        assert [w.size(k) for k in (1, 5, 100)] == [4, 4, 4]
        assert w.width == 4

    def test_cumulative_size_grows(self):
        w = cumulative()
        # W(k) = 1 + W(k-1), W(1) counts position 0 by the paper's wL(k)=0.
        assert w.size(3) - w.size(2) == 1

    def test_band_is_the_positions_whose_window_holds_k(self):
        for w in (sliding(2, 1), sliding(0, 3), sliding(4, 0), cumulative()):
            for k in range(1, 13):
                want = [i for i in range(3, 11) if w.bounds(i)[0] <= k <= w.bounds(i)[1]]
                lo, hi = w.band(k, 3, 10)
                assert list(range(lo, hi + 1)) == want

    def test_cumulative_has_no_width(self):
        with pytest.raises(WindowError):
            cumulative().width


class TestHeaderTrailer:
    def test_sliding_spans(self):
        w = sliding(2, 3)
        # Interesting header: -h+1..0 (h values); trailer: n+1..n+l (l values).
        assert w.header_span() == 3
        assert w.trailer_span() == 2

    def test_left_bounded_has_no_trailer(self):
        assert sliding(0, 2).trailer_span() == 0

    def test_right_bounded_has_no_header(self):
        assert sliding(2, 0).header_span() == 0

    def test_cumulative_spans(self):
        assert cumulative().header_span() == 0
        assert cumulative().trailer_span() == 0


class TestSqlRendering:
    def test_cumulative_frame(self):
        assert cumulative().to_frame_sql() == "ROWS UNBOUNDED PRECEDING"

    def test_centered(self):
        assert sliding(1, 1).to_frame_sql() == "ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING"

    def test_trailing(self):
        assert sliding(3, 0).to_frame_sql() == "ROWS 3 PRECEDING"

    def test_prospective(self):
        assert sliding(0, 6).to_frame_sql() == "ROWS BETWEEN CURRENT ROW AND 6 FOLLOWING"

    def test_roundtrip_through_parser(self):
        from repro.sql.parser import parse_select

        for w in (sliding(2, 1), sliding(0, 6), sliding(3, 0), cumulative()):
            stmt = parse_select(
                f"SELECT SUM(v) OVER (ORDER BY p {w.to_frame_sql()}) FROM t"
            )
            assert stmt.window_calls()[0].over.window() == w
