"""DataWarehouse facade: transparent rewriting and maintenance dispatch."""

import pytest

from repro.errors import CatalogError, NoRewriteError, ViewError
from repro.warehouse import DataWarehouse, create_sequence_table
from repro.core.window import sliding
from tests.conftest import assert_close, brute_window

N = 40


@pytest.fixture
def wh():
    wh = DataWarehouse()
    wh.raw = create_sequence_table(wh.db, "seq", N, seed=11)
    wh.create_view(
        "mv",
        "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING "
        "AND 1 FOLLOWING) AS s FROM seq",
    )
    return wh


QUERY = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING "
         "AND 1 FOLLOWING) AS s FROM seq ORDER BY pos")


class TestRewriting:
    def test_rewrite_used_and_correct(self, wh):
        res = wh.query(QUERY)
        assert res.rewrite is not None and res.rewrite.view == "mv"
        assert_close(res.column("s"), brute_window(wh.raw, sliding(3, 1)))

    @pytest.mark.parametrize("algorithm", ["maxoa", "minoa"])
    @pytest.mark.parametrize("variant", ["disjunctive", "union"])
    def test_all_strategies_agree(self, wh, algorithm, variant):
        res = wh.query(QUERY, algorithm=algorithm, variant=variant,
                       mode="relational")
        assert res.rewrite.algorithm == algorithm
        assert res.rewrite.variant == variant
        assert_close(res.column("s"), brute_window(wh.raw, sliding(3, 1)))

    def test_memory_mode(self, wh):
        res = wh.query(QUERY, mode="memory")
        assert res.rewrite.mode == "memory"
        assert_close(res.column("s"), brute_window(wh.raw, sliding(3, 1)))

    def test_rewrite_disabled(self, wh):
        res = wh.query(QUERY, use_views=False)
        assert res.rewrite is None
        assert_close(res.column("s"), brute_window(wh.raw, sliding(3, 1)))

    def test_native_fallback_when_no_match(self, wh):
        res = wh.query(
            "SELECT pos, AVG(val) OVER (ORDER BY pos ROWS 2 PRECEDING) a "
            "FROM seq ORDER BY pos")
        assert res.rewrite is None
        assert len(res) == N

    def test_require_rewrite(self, wh):
        with pytest.raises(NoRewriteError):
            wh.query(
                "SELECT pos, AVG(val) OVER (ORDER BY pos ROWS 2 PRECEDING) a "
                "FROM seq", require_rewrite=True)

    def test_non_window_query_unaffected(self, wh):
        res = wh.query("SELECT COUNT(*) AS c FROM seq")
        assert res.rows == [(N,)]

    def test_explain_rewrite(self, wh):
        text = wh.explain(QUERY)
        assert text.startswith("REWRITE using view 'mv'")

    def test_explain_native(self, wh):
        text = wh.explain("SELECT pos FROM seq")
        assert text.startswith("NATIVE PLAN:")

    def test_limit_applies_after_rewrite(self, wh):
        res = wh.query(QUERY + " LIMIT 5")
        assert len(res) == 5


class TestViewRegistry:
    def test_duplicate_view_name(self, wh):
        with pytest.raises(CatalogError):
            wh.create_view("mv", "SELECT SUM(val) OVER (ORDER BY pos ROWS 1 PRECEDING) FROM seq")

    def test_drop_view_removes_storage(self, wh):
        wh.drop_view("mv")
        with pytest.raises(CatalogError):
            wh.view("mv")
        with pytest.raises(CatalogError):
            wh.db.table("__mv_mv")
        # Queries fall back to native evaluation.
        assert wh.query(QUERY).rewrite is None

    def test_drop_unknown_view(self, wh):
        with pytest.raises(CatalogError):
            wh.drop_view("ghost")

    def test_mismatched_definition_name(self, wh):
        from repro.views.definition import SequenceViewDefinition

        d = SequenceViewDefinition("other", "seq", "val", order_by=("pos",))
        with pytest.raises(ViewError):
            wh.create_view("mv2", d)

    def test_refresh_view(self, wh):
        wh.db.insert("seq", [(N + 1, 3.25)])  # base moves, the view is stale
        wh.refresh_view("mv")
        assert wh.view("mv").sequence().n == N + 1


class TestMaintenanceDispatch:
    def test_update_measure(self, wh):
        wh.update_measure("seq", keys={"pos": 7}, value_col="val", new_value=500.0)
        wh.raw[6] = 500.0
        res = wh.query(QUERY)
        assert_close(res.column("s"), brute_window(wh.raw, sliding(3, 1)))
        # Base table updated too.
        base = wh.query("SELECT val FROM seq WHERE pos = 7", use_views=False)
        assert base.rows == [(500.0,)]

    def test_insert_row(self, wh):
        wh.insert_row("seq", (N + 1, 9.0))
        wh.raw.append(9.0)
        res = wh.query(QUERY)
        assert_close(res.column("s"), brute_window(wh.raw, sliding(3, 1)))

    def test_delete_row(self, wh):
        wh.delete_row("seq", keys={"pos": 20})
        del wh.raw[19]
        res = wh.query(QUERY)
        assert_close(res.column("s"), brute_window(wh.raw, sliding(3, 1)))

    def test_ambiguous_key_rejected(self, wh):
        wh.insert("seq", [(N + 1, 1.0), (N + 2, 1.0)])
        with pytest.raises(ViewError):
            wh.update_measure("seq", keys={"val": 1.0}, value_col="val", new_value=2.0)

    def test_views_with_selection_skip_foreign_rows(self):
        wh = DataWarehouse()
        wh.create_table("t", [("cust", "INTEGER"), ("pos", "INTEGER"), ("val", "FLOAT")])
        rows = [(4711, i, float(i)) for i in range(1, 11)]
        rows += [(999, i, 100.0 + i) for i in range(1, 11)]
        wh.insert("t", rows)
        wh.create_view(
            "mv4711",
            "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING "
            "AND 1 FOLLOWING) AS s FROM t WHERE cust = 4711")
        # A row for another customer must not touch the view.
        wh.insert_row("t", (999, 11, 0.5))
        assert wh.view("mv4711").sequence().n == 10
        # A matching row does.
        wh.insert_row("t", (4711, 11, 0.5))
        assert wh.view("mv4711").sequence().n == 11
