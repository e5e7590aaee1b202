"""End-to-end warehouse flows combining rewriting, maintenance and fallback."""

import pytest

from repro.core.window import sliding
from repro.errors import NoRewriteError
from repro.warehouse import DataWarehouse, create_sequence_table
from tests.conftest import assert_close, brute_window


class TestDerivationChain:
    """Create one view, answer a whole family of windows from it."""

    @pytest.fixture
    def wh(self):
        wh = DataWarehouse()
        wh.raw = create_sequence_table(wh.db, "seq", 60, seed=42, distribution="walk")
        wh.create_view(
            "mv",
            "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING "
            "AND 2 FOLLOWING) AS s FROM seq")
        return wh

    @pytest.mark.parametrize("l,h", [(3, 2), (4, 2), (3, 3), (5, 4), (2, 1), (1, 0), (9, 8)])
    def test_windows_all_derivable(self, wh, l, h):
        res = wh.query(
            f"SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN {l} "
            f"PRECEDING AND {h} FOLLOWING) AS s FROM seq ORDER BY pos")
        assert res.rewrite is not None
        assert_close(res.column("s"), brute_window(wh.raw, sliding(l, h)))

    CUMULATIVE = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED "
                  "PRECEDING) AS s FROM seq ORDER BY pos")

    def test_cumulative_derivable(self, wh):
        res = wh.query(self.CUMULATIVE)
        assert res.rewrite is not None and res.rewrite.algorithm == "prefix"
        import itertools

        assert_close(res.column("s"), list(itertools.accumulate(wh.raw)))

    def test_a_matching_view_always_answers(self, wh):
        """The prefix chain answers the cumulative target by default, as
        it does with require_rewrite=True; NoRewriteError is kept for 'no
        view matches'."""
        by_default = wh.query(self.CUMULATIVE)
        required = wh.query(self.CUMULATIVE, require_rewrite=True)
        for res in (by_default, required):
            assert res.rewrite is not None and res.rewrite.view == "mv"
            assert res.rewrite.algorithm == "prefix"
        assert by_default.column("s") == required.column("s")

        with pytest.raises(NoRewriteError):
            wh.query("SELECT pos, MAX(val) OVER (ORDER BY pos ROWS BETWEEN 1 "
                     "PRECEDING AND 1 FOLLOWING) AS m FROM seq",
                     require_rewrite=True)

    def test_rewrite_result_equals_native(self, wh):
        q = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 4 "
             "PRECEDING AND 3 FOLLOWING) AS s FROM seq ORDER BY pos")
        rewritten = wh.query(q)
        native = wh.query(q, use_views=False)
        assert rewritten.rewrite is not None and native.rewrite is None
        assert_close(rewritten.column("s"), native.column("s"))


class TestReductionsAreNotRoutedByEstimate:
    def test_ordering_reduction_keeps_the_view_when_base_is_cheaper(self):
        """An ordering reduction answers per remaining ordering value (one
        row per region and month); the native plan answers per base row
        (fifteen times the rows).  The view answers anyway: a matching view
        always does."""
        wh = DataWarehouse()
        wh.create_table("sales", [("region", "TEXT"), ("month", "INTEGER"),
                                  ("day", "INTEGER"), ("amount", "FLOAT")])
        wh.insert("sales", [(r, m, d, float(m * d)) for r in "ab"
                            for m in range(1, 5) for d in range(1, 16)])
        wh.create_view(
            "mv_daily",
            "SELECT region, month, day, SUM(amount) OVER (PARTITION BY region "
            "ORDER BY month, day ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS w "
            "FROM sales")
        monthly = ("SELECT region, month, SUM(amount) OVER (PARTITION BY region "
                   "ORDER BY month ROWS 1 PRECEDING) AS two_month FROM sales "
                   "ORDER BY region, month")
        res = wh.query(monthly)
        assert res.rewrite is not None and res.rewrite.kind == "ordering_reduction"
        assert len(res.rows) == 2 * 4
        assert len(wh.query(monthly, use_views=False).rows) == 2 * 4 * 15
        assert "ordering_reduction" in wh.explain(monthly)


class TestMultipleViews:
    def test_best_view_wins(self):
        wh = DataWarehouse()
        create_sequence_table(wh.db, "seq", 40, seed=1)
        wh.create_view("narrow", "SELECT pos, SUM(val) OVER (ORDER BY pos "
                                 "ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) s FROM seq")
        wh.create_view("exact", "SELECT pos, SUM(val) OVER (ORDER BY pos "
                                "ROWS BETWEEN 4 PRECEDING AND 4 FOLLOWING) s FROM seq")
        res = wh.query("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN "
                       "4 PRECEDING AND 4 FOLLOWING) s FROM seq")
        assert res.rewrite.view == "exact"
        assert res.rewrite.algorithm == "identity"

    def test_count_views_match_count_queries(self):
        wh = DataWarehouse()
        create_sequence_table(wh.db, "seq", 30, seed=2)
        wh.create_view("cmv", "SELECT pos, COUNT(val) OVER (ORDER BY pos "
                              "ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) c FROM seq")
        res = wh.query("SELECT pos, COUNT(val) OVER (ORDER BY pos ROWS "
                       "BETWEEN 3 PRECEDING AND 2 FOLLOWING) c FROM seq ORDER BY pos")
        assert res.rewrite is not None and res.rewrite.view == "cmv"
        from repro.core.aggregates import COUNT

        assert_close(res.column("c"),
                     brute_window([1.0] * 30, sliding(3, 2), COUNT))

    def test_minmax_view(self):
        wh = DataWarehouse()
        raw = create_sequence_table(wh.db, "seq", 30, seed=3)
        wh.create_view("mx", "SELECT pos, MAX(val) OVER (ORDER BY pos "
                             "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) m FROM seq")
        res = wh.query("SELECT pos, MAX(val) OVER (ORDER BY pos ROWS BETWEEN "
                       "3 PRECEDING AND 2 FOLLOWING) m FROM seq ORDER BY pos")
        assert res.rewrite is not None
        assert res.rewrite.algorithm == "maxoa"
        from repro.core.aggregates import MAX

        assert_close(res.column("m"), brute_window(raw, sliding(3, 2), MAX))
        # Narrower MAX window: underivable -> native fallback.
        res2 = wh.query("SELECT pos, MAX(val) OVER (ORDER BY pos ROWS BETWEEN "
                        "1 PRECEDING AND 1 FOLLOWING) m FROM seq ORDER BY pos")
        assert res2.rewrite is None
        assert_close(res2.column("m"), brute_window(raw, sliding(1, 1), MAX))


class TestIncompleteViewBehaviour:
    def test_incomplete_view_cannot_serve_wider_windows(self):
        wh = DataWarehouse()
        raw = create_sequence_table(wh.db, "seq", 30, seed=4)
        wh.create_view(
            "mv",
            "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING "
            "AND 1 FOLLOWING) s FROM seq",
            complete=False)
        # Identity still works (no header/trailer needed).
        res = wh.query("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN "
                       "2 PRECEDING AND 1 FOLLOWING) s FROM seq ORDER BY pos")
        assert res.rewrite is not None and res.rewrite.algorithm == "identity"
        assert_close(res.column("s"), brute_window(raw, sliding(2, 1)))

    def test_partitioned_flow(self):
        wh = DataWarehouse()
        wh.create_table("sales", [("region", "TEXT"), ("day", "INTEGER"),
                                  ("amount", "FLOAT")])
        import random

        r = random.Random(9)
        data = {}
        rows = []
        for region in ("n", "s"):
            data[region] = [round(r.uniform(0, 9), 2) for _ in range(20)]
            rows += [(region, i, v) for i, v in enumerate(data[region], 1)]
        wh.insert("sales", rows)
        wh.create_view(
            "mv",
            "SELECT region, day, SUM(amount) OVER (PARTITION BY region "
            "ORDER BY day ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) s FROM sales")
        res = wh.query(
            "SELECT region, day, SUM(amount) OVER (PARTITION BY region "
            "ORDER BY day ROWS BETWEEN 3 PRECEDING AND 2 FOLLOWING) s "
            "FROM sales ORDER BY region, day", mode="relational")
        # Partitioned views are served by the partition-aware relational
        # patterns too (the default route is the in-memory form here: 5.0
        # estimated lookups per position against 4.0).
        assert res.rewrite is not None and res.rewrite.mode == "relational"
        got_n = [row[2] for row in res.rows if row[0] == "n"]
        assert_close(got_n, brute_window(data["n"], sliding(3, 2)))
        mem = wh.query(
            "SELECT region, day, SUM(amount) OVER (PARTITION BY region "
            "ORDER BY day ROWS BETWEEN 3 PRECEDING AND 2 FOLLOWING) s "
            "FROM sales ORDER BY region, day", mode="memory")
        assert mem.rewrite.mode == "memory"
        assert [r[2] for r in mem.rows] == pytest.approx([r[2] for r in res.rows])
