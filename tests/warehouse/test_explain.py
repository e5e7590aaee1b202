"""EXPLAIN: cheap, non-executing, and consistent with actual execution."""

import re

import pytest

from repro.warehouse import DataWarehouse, create_sequence_table


@pytest.fixture
def wh():
    wh = DataWarehouse()
    create_sequence_table(wh.db, "seq", 30, seed=3)
    wh.create_view("mv", "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS "
                   "BETWEEN 2 PRECEDING AND 1 FOLLOWING) s FROM seq")
    return wh


QUERIES = [
    ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND "
     "1 FOLLOWING) s FROM seq", {}),
    ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING AND "
     "1 FOLLOWING) s FROM seq", {}),
    ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) s "
     "FROM seq", {}),
    ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND "
     "1 FOLLOWING) s FROM seq", {"algorithm": "maxoa"}),
    ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND "
     "1 FOLLOWING) s FROM seq", {"mode": "memory"}),
]


class TestExplainConsistency:
    @pytest.mark.parametrize("sql,options", QUERIES)
    def test_explain_predicts_execution(self, wh, sql, options):
        """The EXPLAIN text must name the view/algorithm/mode that query()
        then actually uses."""
        text = wh.explain(sql, **options)
        result = wh.query(sql, **options)
        assert result.rewrite is not None
        info = result.rewrite
        assert f"view {info.view!r}" in text
        assert info.algorithm in text
        assert info.mode in text

    def test_explain_native_fallback(self, wh):
        text = wh.explain("SELECT pos, AVG(val) OVER (ORDER BY pos ROWS 2 "
                          "PRECEDING) a FROM seq")
        assert text.startswith("NATIVE PLAN:")
        assert "WindowOperator" in text

    @pytest.mark.parametrize("select", ["", "g, "])
    def test_distinct_takes_the_native_route(self, select):
        """A view answers one row per position; DISTINCT is not rewritten."""
        wh = DataWarehouse()
        wh.create_table("t", [("g", "INTEGER"), ("pos", "INTEGER"), ("val", "FLOAT")])
        wh.insert("t", [(g, pos, float(pos)) for g in range(3) for pos in range(1, 6)])
        over = ("COUNT(val) OVER (PARTITION BY g ORDER BY pos ROWS BETWEEN 1 "
                "PRECEDING AND 1 FOLLOWING)")
        wh.create_view("mv_cnt", f"SELECT g, pos, {over} w FROM t")
        sql = f"SELECT DISTINCT {select}{over} AS w FROM t"
        assert wh.explain(sql).startswith("NATIVE PLAN:")
        got = wh.query(sql)
        assert got.rewrite is None
        assert sorted(got.rows) == sorted(wh.query(sql, use_views=False).rows)
        assert len(got) == (6 if select else 2)

    def test_explain_avg_combination(self, wh):
        wh.create_view("mc", "SELECT pos, COUNT(val) OVER (ORDER BY pos ROWS "
                       "BETWEEN 2 PRECEDING AND 1 FOLLOWING) c FROM seq")
        text = wh.explain("SELECT pos, AVG(val) OVER (ORDER BY pos ROWS 2 "
                          "PRECEDING) a FROM seq")
        assert "avg_combination" in text
        assert "mv" in text and "mc" in text

    def test_explain_does_not_execute(self, wh, monkeypatch):
        """EXPLAIN must not run the derivation (that's the whole point)."""
        import repro.sql.rewriter as rewriter_module

        def boom(*args, **kwargs):  # pragma: no cover - should never run
            raise AssertionError("EXPLAIN executed the rewrite")

        monkeypatch.setattr(rewriter_module, "_step_answer", boom)
        text = wh.explain("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS "
                          "BETWEEN 3 PRECEDING AND 1 FOLLOWING) s FROM seq")
        assert text.startswith("REWRITE")

    def test_explain_reductions(self, wh):
        wh.create_table("s", [("g", "TEXT"), ("pos", "INTEGER"), ("v", "FLOAT")])
        wh.insert("s", [(g, i, float(i)) for g in "ab" for i in range(1, 6)])
        wh.create_view("pmv", "SELECT g, pos, SUM(v) OVER (PARTITION BY g "
                       "ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 "
                       "FOLLOWING) w FROM s")
        text = wh.explain("SELECT pos, SUM(v) OVER (ORDER BY pos ROWS "
                          "BETWEEN 1 PRECEDING AND 1 FOLLOWING) w FROM s")
        assert "partition_reduction" in text


def _frame(l, h):
    return f"ROWS BETWEEN {l} PRECEDING AND {h} FOLLOWING"


def _build(view_sql, *extra_views, table="seq"):
    def build():
        wh = DataWarehouse()
        if table == "seq":
            create_sequence_table(wh.db, "seq", 30, seed=3)
        else:
            wh.create_table("s", [("g", "TEXT"), ("pos", "INTEGER"), ("v", "FLOAT")])
            wh.insert("s", [(g, i, float(i * i)) for g in "ab" for i in range(1, 9)])
        for i, sql in enumerate((view_sql,) + extra_views):
            wh.create_view(f"v{i}", sql)
        return wh

    return build


_SUM_1_1 = _build(f"SELECT pos, SUM(val) OVER (ORDER BY pos {_frame(1, 1)}) s FROM seq")
_CUMULATIVE = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) s "
               "FROM seq")

TRUTH_CASES = [
    pytest.param(
        _SUM_1_1,
        f"SELECT pos, SUM(val) OVER (ORDER BY pos {_frame(l, h)}) s FROM seq",
        {},
        id=f"sum11-{l}-{h}",
    )
    for l in range(7)
    for h in range(7)
] + [
    pytest.param(
        _build(f"SELECT pos, MIN(val) OVER (ORDER BY pos {_frame(2, 1)}) m FROM seq"),
        f"SELECT pos, MIN(val) OVER (ORDER BY pos {_frame(3, 2)}) m FROM seq",
        {},
        id="min-view",
    ),
    pytest.param(
        _build(
            f"SELECT g, pos, SUM(v) OVER (PARTITION BY g ORDER BY pos {_frame(1, 1)}) "
            "w FROM s",
            table="s",
        ),
        f"SELECT g, pos, SUM(v) OVER (PARTITION BY g ORDER BY pos {_frame(2, 1)}) "
        "w FROM s",
        {},
        id="partitioned-view",
    ),
    # The view answers the cumulative target by prefix tiling, with or
    # without require_rewrite.
    pytest.param(_SUM_1_1, _CUMULATIVE, {}, id="cumulative"),
    pytest.param(
        _SUM_1_1, _CUMULATIVE, {"require_rewrite": True}, id="cumulative-required"
    ),
    pytest.param(
        _build(
            f"SELECT pos, SUM(val) OVER (ORDER BY pos {_frame(2, 1)}) s FROM seq",
            f"SELECT pos, COUNT(val) OVER (ORDER BY pos {_frame(2, 1)}) c FROM seq",
        ),
        f"SELECT pos, AVG(val) OVER (ORDER BY pos {_frame(3, 1)}) a FROM seq",
        {},
        id="avg-combination",
    ),
]


class TestExplainTellsTheTruth:
    """EXPLAIN prints the plan query() runs — not a second opinion."""

    @pytest.mark.parametrize("build,sql,options", TRUTH_CASES)
    def test_explain_equals_execution(self, build, sql, options):
        wh = build()
        text = wh.explain(sql, **options)
        info = wh.query(sql, **options).rewrite
        assert text.startswith("NATIVE PLAN") == (info is None), text
        if info is None:
            return
        header = re.match(r"REWRITE using view '([^']+)' \[([^\]]+)\]", text)
        assert header, text
        kind, algorithm, route, *variant = header.group(2).split(", ")
        assert header.group(1) == info.view
        assert (kind, algorithm, route) == (info.kind, info.algorithm, info.mode)
        assert (variant[0] if variant else None) == info.variant

    def test_explain_analyze_runs_the_plan_it_prints(self, monkeypatch):
        """One planning pass: the printed route is the executed one."""
        import repro.warehouse.warehouse as warehouse_module

        wh = _SUM_1_1()
        planned = []
        real = warehouse_module.plan_rewrite

        def counting(*args, **kwargs):
            planned.append(real(*args, **kwargs))
            return planned[-1]

        monkeypatch.setattr(warehouse_module, "plan_rewrite", counting)
        # (2, 3) over SUM(1,1) with no option: the in-memory form runs.
        text = wh.explain_analyze(
            f"SELECT pos, SUM(val) OVER (ORDER BY pos {_frame(2, 3)}) s FROM seq"
        )
        assert len(planned) == 1
        assert text.startswith(planned[0].info.render())
        assert planned[0].info.mode == "memory" and "mode=memory" in text


class TestDecisionProvenance:
    """The REWRITE line names the view, match kind, algorithm and route
    the query runs; with no option the route is always memory."""

    SQL = "SELECT pos, SUM(val) OVER (ORDER BY pos {}) s FROM seq"

    @pytest.fixture
    def wh(self):
        wh = DataWarehouse()
        create_sequence_table(wh.db, "seq", 400, seed=3)
        wh.create_view("mv", self.SQL.format(_frame(4, 2)))
        return wh

    def test_identity_hit_goes_to_memory(self, wh):
        sql = self.SQL.format(_frame(4, 2))
        assert wh.explain(sql) == (
            "REWRITE using view 'mv' [direct, identity, memory]: "
            "identity: derive sliding(4, 2) from materialized sliding(4, 2)"
        )
        info = wh.query(sql).rewrite
        assert (info.mode, info.variant) == ("memory", None)

    def test_minoa_hit_goes_to_memory(self, wh):
        sql = self.SQL.format(_frame(3, 2))
        assert wh.explain(sql) == (
            "REWRITE using view 'mv' [direct, minoa, memory]: "
            "minoa: derive sliding(3, 2) from materialized sliding(4, 2)"
        )
        info = wh.query(sql).rewrite
        assert (info.mode, info.variant) == ("memory", None)

    def test_the_derive_span_carries_the_route(self, wh):
        from repro.obs import runtime
        from repro.obs.trace import Tracer

        tracer = Tracer()
        with runtime.use(tracer=tracer):
            wh.query(self.SQL.format(_frame(3, 2)))
        (derive,) = tracer.spans("view.derive")
        assert derive.attributes["mode"] == "memory"
        assert derive.attributes["algorithm"] == "minoa"
        assert not any(name.startswith("est_") for name in derive.attributes)
