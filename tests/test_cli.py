"""Command-line interface."""

import json

import pytest

from repro.cli import main


class TestDemo:
    def test_runs_and_explains(self, capsys):
        assert main(["demo", "--rows", "50"]) == 0
        out = capsys.readouterr().out
        assert "REWRITE using view 'mv'" in out
        assert "engine stats" in out

    def test_storage_format_flag_is_gone(self):
        with pytest.raises(SystemExit):
            main(["demo", "--rows", "50", "--storage-format", "4"])

    @pytest.mark.parametrize("argv", [
        ["demo", "--jobs", "2"],
        ["demo", "--backend", "thread"],
        ["serve", "--chunk-size", "8"],
        ["parallel"],
        ["ops"],
    ])
    def test_parallel_flags_and_subcommand_are_gone(self, argv):
        with pytest.raises(SystemExit):
            main(argv)


class TestInjectFault:
    @pytest.fixture(autouse=True)
    def _clean(self):
        from repro.faults import injector

        injector.clear()
        yield
        injector.clear()

    @pytest.mark.parametrize("kind", [
        "bitflip", "refresh_interrupt",
        "maintenance_fail", "storage_write_fail",
    ])
    def test_fault_demo_recovers(self, capsys, kind):
        assert main(["demo", "--rows", "40", "--inject-fault", kind]) == 0
        out = capsys.readouterr().out
        assert "injecting:" in out
        assert "answers match a base-data recomputation: yes" in out

    def test_unknown_kind_rejected(self):
        with pytest.raises(SystemExit):
            main(["demo", "--inject-fault", "gremlins"])


class TestVerify:
    @pytest.fixture
    def dump(self, tmp_path):
        from repro.warehouse import DataWarehouse, create_sequence_table

        wh = DataWarehouse()
        create_sequence_table(wh.db, "seq", 25, seed=4)
        wh.create_view("mv", "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS "
                       "BETWEEN 2 PRECEDING AND 1 FOLLOWING) s FROM seq")
        wh.save(str(tmp_path))
        return tmp_path

    def test_clean_dump_verifies(self, capsys, dump, tmp_path):
        report = tmp_path / "report.json"
        assert main(["verify", "--dir", str(dump), "--json", str(report)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out
        doc = json.loads(report.read_text())
        assert doc["ok"] and doc["views"]["mv"]["ok"]

    def test_missing_dump_fails(self, capsys, tmp_path):
        assert main(["verify", "--dir", str(tmp_path / "nope")]) == 2
        assert "load failed" in capsys.readouterr().out

    def test_repair_flag_accepted(self, capsys, dump):
        assert main(["verify", "--dir", str(dump), "--repair"]) == 0

    def test_looks_at_the_dumps_view_values(self, capsys, tmp_path):
        from repro.warehouse import DataWarehouse, create_sequence_table

        wh = DataWarehouse()
        create_sequence_table(wh.db, "seq", 25, seed=4)
        wh.create_view("mv", "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS "
                       "BETWEEN 2 PRECEDING AND 1 FOLLOWING) s FROM seq")
        storage = wh.db.table(wh.view("mv").definition.storage_table)
        storage.set_column("__val", [5], [1e6])
        wh.save(str(tmp_path))
        assert main(["verify", "--dir", str(tmp_path)]) == 1
        assert "'mv'" in capsys.readouterr().out
        assert main(["verify", "--dir", str(tmp_path), "--repair"]) == 0


class TestTableSweeps:
    def test_table1(self, capsys):
        assert main(["table1", "--sizes", "50,100"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert out.count("\n") >= 4  # header + 2 data rows

    def test_table2(self, capsys):
        assert main(["table2", "--sizes", "50"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out and "MaxOA" in out

    def test_bad_sizes(self, capsys):
        with pytest.raises(SystemExit):
            main(["table1", "--sizes", "abc"])


class TestAdvise:
    def test_recommendations(self, capsys):
        code = main([
            "advise",
            "--query",
            "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 "
            "PRECEDING AND 1 FOLLOWING) s FROM seq",
            "--query",
            "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 "
            "PRECEDING AND 1 FOLLOWING) s FROM seq",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "workload group" in out and "materialize" in out

    def test_unusable_workload(self, capsys):
        code = main(["advise", "--query", "SELECT COUNT(*) c FROM t"])
        assert code == 1

    def test_requires_query(self):
        with pytest.raises(SystemExit):
            main(["advise"])


class TestParser:
    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_migrate_subcommand_is_gone(self, tmp_path):
        # Only version-4 dumps load, so there is nothing left to migrate.
        with pytest.raises(SystemExit):
            main(["migrate", "--dir", str(tmp_path)])
