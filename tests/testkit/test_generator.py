"""Case generator: determinism, seed echoing, and edge-case coverage."""

from collections import Counter

import pytest

from repro.core.window import sliding
from repro.testkit import CaseGenerator
from repro.testkit.generator import AGGREGATE_NAMES

pytestmark = pytest.mark.fuzz

GEN = CaseGenerator()


class TestDeterminism:
    def test_same_seed_same_case(self):
        for seed in range(50):
            assert GEN.case(seed) == GEN.case(seed), f"seed={seed} not reproducible"

    def test_cases_enumerates_consecutive_seeds(self):
        cases = GEN.cases(10, base_seed=100)
        assert [c.seed for c in cases] == list(range(100, 110))
        assert cases[3] == GEN.case(103)

    def test_seed_echoed_in_description(self):
        case = GEN.case(7)
        assert "seed=7" in case.describe()


class TestShape:
    @pytest.mark.parametrize("seed", range(100))
    def test_case_well_formed(self, seed):
        case = GEN.case(seed)
        assert 1 <= len(case.rows) <= GEN.max_rows + 1  # +1: forced tiny partition
        assert case.aggregate_name in AGGREGATE_NAMES
        if not case.window.is_cumulative:
            assert case.window.l + case.window.h >= 1
        # Ordering keys are globally unique (the differ keys on (g, pos)
        # and relies on pos alone identifying a row).
        keys = [pos for _, pos, _ in case.rows]
        assert len(keys) == len(set(keys)), f"seed={seed}: duplicate pos"

    def test_edge_values_appear_across_seeds(self):
        cases = GEN.cases(200)
        values = [v for c in cases for _, _, v in c.rows]
        assert any(v is None for v in values), "no NULLs generated"
        assert any(v == 0.0 for v in values if v is not None), "no zero ties"
        sizes = {len(rows) for c in cases for rows in c.partitions().values()}
        assert 1 in sizes, "no single-row partition (header+trailer edge)"

    def test_equal_length_partitions_appear(self):
        # The engine runs partitions of one length as one 2-D kernel call;
        # the sweep must reach classes of several multi-row partitions.
        cases = [c for c in GEN.cases(500) if c.partitioned]
        shared = [
            c for c in cases
            if any(count >= 3 and length >= 2 for length, count in
                   Counter(len(rows) for rows in c.partitions().values()).items())
        ]
        assert len(shared) >= 40, len(shared)

    def test_both_query_shapes_appear(self):
        cases = GEN.cases(50)
        assert any(c.partitioned for c in cases)
        assert any(not c.partitioned for c in cases)
        assert any(c.window.is_cumulative for c in cases)
        assert any(not c.window.is_cumulative for c in cases)


class TestCaseOps:
    def test_sql_renders_frame_and_partitioning(self):
        case = GEN.case(0)
        sql = case.sql
        assert f"{case.aggregate_name}(val)" in sql
        assert ("PARTITION BY g" in sql) == case.partitioned

    def test_with_rows_and_with_window_used_by_shrinker(self):
        case = GEN.case(1)
        smaller = case.with_rows(case.rows[:1])
        assert len(smaller.rows) == 1
        assert smaller.seed == case.seed  # provenance survives shrinking
        rewin = case.with_window(sliding(1, 0))
        assert rewin.window == sliding(1, 0)
        assert rewin.rows == case.rows

    def test_partitions_sorted_by_pos(self):
        case = GEN.case(2)
        for rows in case.partitions().values():
            keys = [pos for _, pos, _ in rows]
            assert keys == sorted(keys)

    def test_max_rows_validated(self):
        with pytest.raises(ValueError, match="max_rows"):
            CaseGenerator(max_rows=0)
