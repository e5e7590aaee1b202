"""Point lookups: single derived values from views (wh.value_at)."""

import struct

import pytest

from repro.core.complete import CompleteSequence
from repro.core.derivation import derive
from repro.core.window import WindowSpec, cumulative, sliding
from repro.errors import DerivationError, MaintenanceError
from repro.warehouse import DataWarehouse, create_sequence_table
from repro.views.verify import values_differ
from tests.conftest import brute_window, derive_each


@pytest.fixture
def wh():
    wh = DataWarehouse()
    wh.raw = create_sequence_table(wh.db, "seq", 30, seed=55)
    wh.create_view("mv", "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS "
                   "BETWEEN 2 PRECEDING AND 1 FOLLOWING) s FROM seq")
    return wh


class TestValueAt:
    def test_identity_lookup(self, wh):
        expected = brute_window(wh.raw, sliding(2, 1))
        assert wh.value_at("mv", 7) == pytest.approx(expected[6])

    @pytest.mark.parametrize("k", [1, 2, 15, 30])
    def test_derived_window_lookup(self, wh, k):
        expected = brute_window(wh.raw, sliding(3, 2))
        got = wh.value_at("mv", k, window=sliding(3, 2))
        assert got == pytest.approx(expected[k - 1])

    @pytest.mark.parametrize("algorithm", ["maxoa", "minoa"])
    def test_forced_algorithms_agree(self, wh, algorithm):
        expected = brute_window(wh.raw, sliding(3, 1))
        got = wh.value_at("mv", 12, window=sliding(3, 1), algorithm=algorithm)
        assert got == pytest.approx(expected[11])

    def test_cumulative_target(self, wh):
        got = wh.value_at("mv", 20, window=cumulative())
        assert got == pytest.approx(sum(wh.raw[:20]))

    def test_narrower_window(self, wh):
        expected = brute_window(wh.raw, sliding(1, 0))
        assert wh.value_at("mv", 9, window=sliding(1, 0)) == pytest.approx(expected[8])

    def test_unknown_key(self, wh):
        with pytest.raises(MaintenanceError):
            wh.value_at("mv", 999)

    def test_partitioned_view(self):
        wh = DataWarehouse()
        wh.create_table("s", [("g", "TEXT"), ("pos", "INTEGER"), ("v", "FLOAT")])
        data = {"a": [1.0, 2.0, 3.0, 4.0], "b": [10.0, 20.0, 30.0, 40.0]}
        wh.insert("s", [(g, i, v) for g, vals in data.items()
                        for i, v in enumerate(vals, 1)])
        wh.create_view("mv", "SELECT g, pos, SUM(v) OVER (PARTITION BY g "
                       "ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 "
                       "FOLLOWING) w FROM s")
        got = wh.value_at("mv", 2, partition_key=("b",), window=sliding(2, 1))
        assert got == pytest.approx(10.0 + 20.0 + 30.0)

    def test_minmax_restriction(self):
        wh = DataWarehouse()
        create_sequence_table(wh.db, "seq", 10, seed=1)
        wh.create_view("mx", "SELECT pos, MAX(val) OVER (ORDER BY pos ROWS "
                       "BETWEEN 1 PRECEDING AND 1 FOLLOWING) m FROM seq")
        with pytest.raises(DerivationError):
            wh.value_at("mx", 5, window=sliding(0, 1))  # narrower: underivable


class TestSinglePositionReads:
    """A derived point lookup is the whole derivation's k-th value: one run
    of its NumPy kernel, no per-position ``value()`` read, and the bits the
    query route answers."""

    N = 2000

    @pytest.fixture(scope="class")
    def big(self):
        wh = DataWarehouse()
        create_sequence_table(wh.db, "seq", self.N, seed=11)
        wh.create_view("mv", "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS "
                       "BETWEEN 3 PRECEDING AND 2 FOLLOWING) s FROM seq")
        wh.create_view("cv", "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS "
                       "BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) c FROM seq")
        return wh

    @pytest.mark.parametrize("view, target", [
        ("mv", cumulative()),
        ("mv", WindowSpec.point()),
        ("cv", sliding(3, 2)),
    ], ids=["prefix", "reconstruct", "cumulative"])
    def test_reads_and_bits(self, big, monkeypatch, view, target):
        from repro.core import derivation

        k = self.N // 2
        calls = {"value": 0, "derive": 0}
        real_value, real_derive = CompleteSequence.value, derivation.derive

        def value(self, pos):
            calls["value"] += 1
            return real_value(self, pos)

        def derive_counted(*args, **kwargs):
            calls["derive"] += 1
            return real_derive(*args, **kwargs)

        monkeypatch.setattr(CompleteSequence, "value", value)
        monkeypatch.setattr(derivation, "derive", derive_counted)
        got = big.value_at(view, k, window=target)
        monkeypatch.undo()
        assert calls == {"value": 0, "derive": 1}
        seq = big.view(view).sequence(())
        want = derive(seq, target)[k - 1]
        assert struct.pack("<d", got) == struct.pack("<d", want)
        assert not values_differ(got, derive_each(seq, target)[k - 1])


class TestResultCsv:
    def test_round_trip(self, wh, tmp_path):
        res = wh.query("SELECT pos, val FROM seq ORDER BY pos LIMIT 5",
                       use_views=False)
        path = tmp_path / "out.csv"
        assert res.to_csv(str(path)) == 5
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "pos,val"
        assert len(lines) == 6

    def test_nulls_and_dates(self, tmp_path):
        import datetime

        from repro.relational import DATE, Database, FLOAT, INTEGER

        db = Database()
        db.create_table("t", [("d", DATE), ("v", FLOAT)])
        db.insert("t", [(datetime.date(2001, 2, 3), None)])
        res = db.sql("SELECT d, v FROM t")
        path = tmp_path / "x.csv"
        res.to_csv(str(path))
        assert path.read_text().strip().splitlines()[1] == "2001-02-03,"
