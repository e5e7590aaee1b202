"""EXPLAIN ANALYZE surfaces: engine, warehouse rewrite path, CLI smoke."""

from repro.cli import main
from repro.relational.engine import Database
from repro.relational.types import FLOAT, INTEGER
from repro.warehouse import DataWarehouse, create_sequence_table

WINDOW_QUERY = (
    "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 "
    "PRECEDING AND 1 FOLLOWING) AS s FROM seq ORDER BY pos"
)


def _seq_db(n=40):
    db = Database()
    t = db.create_table("seq", [("pos", INTEGER), ("val", FLOAT)])
    t.insert_many([(i, float(i)) for i in range(n)])
    return db


class TestEngineExplainAnalyze:
    def test_annotated_operator_tree(self):
        text = _seq_db().explain_analyze(WINDOW_QUERY)
        assert "actual rows=40" in text
        assert "TableScan(seq)" in text
        assert "WindowOperator" in text
        assert "input=columns" in text  # window operator publishes its input
        assert "Execution time:" in text
        assert text.rstrip().splitlines()[-1].startswith("Stats: scanned=")

    def test_every_executed_node_reports_timing(self):
        text = _seq_db().explain_analyze("SELECT pos FROM seq WHERE pos < 5")
        for line in text.splitlines():
            if "(" in line and "actual rows=" in line:
                assert "time=" in line


    def test_range_frame_renders(self):
        """A RANGE clause has no ROWS window to print; it used to raise
        AttributeError from WindowOperator.label()."""
        db = _seq_db()
        for frame, shown in [
            ("RANGE BETWEEN 2 PRECEDING AND 2 FOLLOWING",
             "RANGE BETWEEN 2 PRECEDING AND 2 FOLLOWING"),
            ("RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW",
             "RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW"),
            ("RANGE BETWEEN 1.5 PRECEDING AND UNBOUNDED FOLLOWING",
             "RANGE BETWEEN 1.5 PRECEDING AND UNBOUNDED FOLLOWING"),
        ]:
            sql = f"SELECT pos, SUM(val) OVER (ORDER BY pos {frame}) AS s FROM seq"
            text = db.explain_analyze(sql)
            assert f"WindowOperator(SUM(val) {shown} AS s)" in text
            assert "actual rows=40" in text


class TestWarehouseExplainAnalyze:
    def _warehouse(self, n=40):
        wh = DataWarehouse()
        create_sequence_table(wh.db, "seq", n, seed=1, distribution="walk")
        wh.create_view(
            "mv",
            "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 "
            "PRECEDING AND 1 FOLLOWING) AS s FROM seq")
        return wh

    def test_rewrite_path_reports_derivation_trace(self):
        text = self._warehouse().explain_analyze(WINDOW_QUERY)
        assert text.startswith("REWRITE using view 'mv'")
        assert "view.derive" in text
        assert "algorithm=" in text
        assert "Execution time:" in text

    def test_forced_algorithm_shows_up(self):
        text = self._warehouse().explain_analyze(
            WINDOW_QUERY, algorithm="maxoa"
        )
        assert "maxoa" in text

    def test_native_path_falls_back_to_annotated_tree(self):
        text = self._warehouse().explain_analyze(
            WINDOW_QUERY, use_views=False
        )
        assert "REWRITE" not in text
        assert "actual rows=40" in text
        assert "TableScan(seq)" in text


class TestCliSmoke:
    def test_explain_analyze_command(self, capsys):
        assert main(["explain", "--analyze", "--rows", "50"]) == 0
        out = capsys.readouterr().out
        assert "view.derive" in out
        assert "Execution time:" in out

    def test_explain_native_analyze(self, capsys):
        assert main(
            ["explain", "--analyze", "--native", "--rows", "50"]
        ) == 0
        out = capsys.readouterr().out
        assert "actual rows=50" in out

    def test_explain_plain(self, capsys):
        assert main(["explain", "--rows", "50"]) == 0
        assert "REWRITE using view 'mv'" in capsys.readouterr().out

    def test_stats_prom_covers_five_layers(self, capsys):
        assert main(["stats", "--format", "prom", "--rows", "60"]) == 0
        out = capsys.readouterr().out
        for layer in ("engine", "storage", "views", "window", "cache"):
            assert f"repro_{layer}_" in out, layer
        assert "# TYPE repro_engine_query_seconds histogram" in out

    def test_stats_json(self, capsys):
        import json

        assert main(["stats", "--format", "json", "--rows", "60"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["repro_engine_queries_total"][0]["value"] >= 1
