"""Partition-aware relational derivation patterns (figs. 10/13 extended)."""

import pytest

from repro.core.complete import CompleteSequence
from repro.core.window import sliding
from repro.relational import BOOLEAN, Database, FLOAT, INTEGER, TEXT
from repro.sql.patterns import maxoa_pattern, minoa_pattern
from repro.warehouse import DataWarehouse, sequence_values
from tests.conftest import assert_close, brute_window

GROUPS = {"a": 17, "b": 23, "c": 9}  # deliberately different lengths
VIEW = sliding(2, 1)


@pytest.fixture
def db():
    db = Database()
    db.create_table(
        "m",
        [("g", TEXT), ("pos", INTEGER), ("val", FLOAT), ("core", BOOLEAN)],
    )
    db.data = {}
    rows = []
    for g, n in GROUPS.items():
        raw = sequence_values(n, seed=hash(g) % 1000)
        db.data[g] = raw
        seq = CompleteSequence.from_raw(raw, VIEW)
        for pos, value in seq.items():
            rows.append((g, pos, value, 1 <= pos <= n))
    db.insert("m", rows)
    return db


@pytest.mark.parametrize("target", [sliding(3, 1), sliding(3, 2), sliding(1, 1)], ids=str)
@pytest.mark.parametrize("variant", ["disjunctive", "union"])
class TestPartitionedPatterns:
    def _check(self, db, plan):
        res = db.run(plan)
        for g, n in GROUPS.items():
            got = [r[2] for r in res.rows if r[0] == g]
            assert len(got) == n
        return res

    def test_minoa(self, db, target, variant):
        plan = minoa_pattern(
            db, "m", 0, VIEW, target, variant=variant,
            partition_cols=("g",), core_col="core")
        res = self._check(db, plan)
        for g in GROUPS:
            got = [r[2] for r in res.rows if r[0] == g]
            assert_close(got, brute_window(db.data[g], target))

    def test_maxoa(self, db, target, variant):
        if target.l < VIEW.l or target.h < VIEW.h:
            pytest.skip("MaxOA needs non-negative coverage factors")
        plan = maxoa_pattern(
            db, "m", 0, VIEW, target, variant=variant,
            partition_cols=("g",), core_col="core")
        res = self._check(db, plan)
        for g in GROUPS:
            got = [r[2] for r in res.rows if r[0] == g]
            assert_close(got, brute_window(db.data[g], target))


class TestWarehousePartitionedRewrite:
    @pytest.fixture
    def wh(self):
        wh = DataWarehouse()
        wh.create_table("s", [("g", "TEXT"), ("pos", "INTEGER"), ("v", "FLOAT")])
        wh.data = {}
        rows = []
        for g, n in GROUPS.items():
            raw = sequence_values(n, seed=len(g) + n)
            wh.data[g] = raw
            rows += [(g, i, v) for i, v in enumerate(raw, 1)]
        wh.insert("s", rows)
        wh.create_view(
            "mv",
            "SELECT g, pos, SUM(v) OVER (PARTITION BY g ORDER BY pos "
            "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) w FROM s")
        return wh

    QUERY = ("SELECT g, pos, SUM(v) OVER (PARTITION BY g ORDER BY pos "
             "ROWS BETWEEN 3 PRECEDING AND 2 FOLLOWING) w FROM s "
             "ORDER BY g, pos")

    def test_relational_mode_used(self, wh):
        res = wh.query(self.QUERY, mode="relational")
        assert res.rewrite is not None
        assert res.rewrite.mode == "relational"
        for g in GROUPS:
            got = [r[2] for r in res.rows if r[0] == g]
            assert_close(got, brute_window(wh.data[g], sliding(3, 2)))

    @pytest.mark.parametrize("algorithm", ["maxoa", "minoa"])
    @pytest.mark.parametrize("variant", ["disjunctive", "union"])
    def test_all_strategies(self, wh, algorithm, variant):
        res = wh.query(self.QUERY, algorithm=algorithm, variant=variant,
                       mode="relational")
        assert res.rewrite.algorithm == algorithm
        assert res.rewrite.variant == variant
        for g in GROUPS:
            got = [r[2] for r in res.rows if r[0] == g]
            assert_close(got, brute_window(wh.data[g], sliding(3, 2)))

    def test_relational_equals_memory(self, wh):
        rel = wh.query(self.QUERY, mode="relational")
        mem = wh.query(self.QUERY, mode="memory")
        assert rel.rewrite.mode == "relational" and mem.rewrite.mode == "memory"
        assert [round(r[2], 6) for r in rel.rows] == \
            [round(r[2], 6) for r in mem.rows]

    def test_identity_partitioned(self, wh):
        res = wh.query(
            "SELECT g, pos, SUM(v) OVER (PARTITION BY g ORDER BY pos "
            "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) w FROM s "
            "ORDER BY g, pos", mode="relational")
        assert res.rewrite.algorithm == "identity"
        assert res.rewrite.mode == "relational"
        for g in GROUPS:
            got = [r[2] for r in res.rows if r[0] == g]
            assert_close(got, brute_window(wh.data[g], sliding(2, 1)))

    def test_maintenance_keeps_relational_rewrites_correct(self, wh):
        wh.update_measure("s", keys={"g": "b", "pos": 5}, value_col="v",
                          new_value=777.0)
        wh.data["b"][4] = 777.0
        res = wh.query(self.QUERY, mode="relational")
        for g in GROUPS:
            got = [r[2] for r in res.rows if r[0] == g]
            assert_close(got, brute_window(wh.data[g], sliding(3, 2)))
