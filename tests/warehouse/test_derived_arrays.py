"""A derived answer stays a float64 array from the view to the result.

Every whole-sequence derivation returns a read-only float64 ``ndarray``,
and the rewriter hands it to the result without building a Python list:
with ``CompleteSequence.core_values`` (the one list accessor a derivation
used to read) made to raise, every view-answered shape of the
``derive_views`` workload still answers, and answers like base data.
"""

import random

import numpy as np
import pytest

from repro.core import maxoa, minoa
from repro.core.aggregates import MAX, SUM
from repro.core.complete import CompleteSequence
from repro.core.derivation import derive
from repro.core.reconstruct import raw_from_cumulative
from repro.core.window import WindowSpec, cumulative, sliding
from repro.views.verify import values_differ
from repro.warehouse import DataWarehouse

RAW = [float((i * 37) % 23 - 11) / 4 for i in range(60)]


def _sum(window):
    return CompleteSequence.from_raw(RAW, window, SUM)


DERIVATIONS = [
    pytest.param(lambda: derive(_sum(sliding(2, 1)), sliding(2, 1)), id="identity"),
    pytest.param(lambda: derive(_sum(cumulative()), sliding(3, 1)), id="cumulative"),
    pytest.param(lambda: raw_from_cumulative(_sum(cumulative())), id="raw-from-cumulative"),
    pytest.param(lambda: derive(_sum(sliding(2, 1)), WindowSpec.point()), id="reconstruct"),
    pytest.param(lambda: derive(_sum(sliding(2, 1)), cumulative()), id="prefix"),
    pytest.param(lambda: maxoa.derive(_sum(sliding(2, 1)), sliding(4, 2)), id="maxoa-sum"),
    pytest.param(
        lambda: maxoa.derive(CompleteSequence.from_raw(RAW, sliding(2, 1), MAX), sliding(4, 2)),
        id="maxoa-max",
    ),
    pytest.param(lambda: minoa.derive(_sum(sliding(2, 1)), sliding(1, 3)), id="minoa"),
]


@pytest.mark.parametrize("run", DERIVATIONS)
def test_every_derivation_returns_a_read_only_float64_array(run):
    out = run()
    assert type(out) is np.ndarray
    assert out.dtype == np.float64 and out.shape == (len(RAW),)
    assert not out.flags.writeable


def test_identity_is_a_view_of_the_cached_span():
    seq = _sum(sliding(2, 1))
    out = derive(seq, sliding(2, 1))
    assert np.shares_memory(out, seq.span(1, seq.n))
    assert out.tolist() == seq.core_values()


# The derive_views workload's view-answered shapes, on smaller tables.
VIEWS = [
    ("v_max", "SELECT pos, MAX(val) OVER (ORDER BY pos ROWS BETWEEN 4 PRECEDING "
              "AND 2 FOLLOWING) AS w FROM seq"),
    ("v_sum", "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 4 PRECEDING "
              "AND 2 FOLLOWING) AS w FROM seq"),
    ("v_cnt", "SELECT pos, COUNT(val) OVER (ORDER BY pos ROWS BETWEEN 4 PRECEDING "
              "AND 2 FOLLOWING) AS w FROM seq"),
    ("v_txcum", "SELECT cust, day, SUM(amt) OVER (PARTITION BY cust ORDER BY day "
                "ROWS UNBOUNDED PRECEDING) AS w FROM tx"),
]
SHAPES = [
    pytest.param("SELECT pos, MAX(val) OVER (ORDER BY pos ROWS BETWEEN 6 PRECEDING "
                 "AND 3 FOLLOWING) AS w FROM seq", "direct", id="max_from_max_view"),
    pytest.param("SELECT pos, AVG(val) OVER (ORDER BY pos ROWS BETWEEN 6 PRECEDING "
                 "AND 3 FOLLOWING) AS w FROM seq", "avg_combination", id="avg_from_sum_count"),
    pytest.param("SELECT cust, day, SUM(amt) OVER (PARTITION BY cust ORDER BY day ROWS "
                 "BETWEEN 3 PRECEDING AND 3 FOLLOWING) AS w FROM tx", "direct",
                 id="sliding_from_cumulative"),
    pytest.param("SELECT day, SUM(amt) OVER (ORDER BY day ROWS BETWEEN 2 PRECEDING "
                 "AND 2 FOLLOWING) AS w FROM tx", "partition_reduction",
                 id="partition_reduction"),
    pytest.param("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 4 PRECEDING "
                 "AND 2 FOLLOWING) AS w FROM seq", "direct", id="identity_hit"),
]


@pytest.fixture(scope="module")
def warehouse():
    rng = random.Random(46)
    wh = DataWarehouse()
    wh.create_table("seq", [("pos", "INTEGER"), ("val", "FLOAT")])
    wh.insert("seq", [(i, rng.uniform(0.0, 100.0)) for i in range(1, 301)])
    wh.create_table("tx", [("cust", "INTEGER"), ("day", "INTEGER"), ("amt", "FLOAT")])
    wh.insert("tx", [(c, d, rng.uniform(0.0, 100.0)) for c in range(1, 9) for d in range(1, 13)])
    for name, sql in VIEWS:
        wh.create_view(name, sql)
    return wh


@pytest.mark.parametrize("sql,kind", SHAPES)
def test_view_route_builds_no_list_of_the_view(warehouse, monkeypatch, sql, kind):
    def no_list(self):
        raise AssertionError("the view route read the view as a Python list")

    monkeypatch.setattr(CompleteSequence, "core_values", no_list)
    got = warehouse.query(sql)
    assert got.rewrite is not None and got.rewrite.kind == kind
    expected = warehouse.query(sql, use_views=False)
    assert len(got.rows) == len(expected.rows)
    # No ORDER BY: compare in key order (a stable sort keeps tied keys'
    # order, which both routes take from the dropped partition column).
    def by_key(rows):
        return sorted(rows, key=lambda row: row[:-1])

    for row, want in zip(by_key(got.rows), by_key(expected.rows)):
        assert row[:-1] == want[:-1]
        assert not values_differ(row[-1], want[-1]), (row, want)


def test_ordering_reduction_reads_one_running_sum_per_partition(monkeypatch):
    """Section 6.1's group totals are differences of one running-sum array
    per partition: no per-position ``value()`` read, and the answer is the
    base data's (group totals by ``GROUP BY`` with ``use_views=False``,
    windowed over the months)."""
    rng = random.Random(61)
    wh = DataWarehouse()
    wh.create_table("sales", [("region", "TEXT"), ("month", "INTEGER"),
                              ("day", "INTEGER"), ("amount", "FLOAT")])
    wh.insert("sales", [(r, m, d, rng.uniform(50.0, 900.0))
                        for r in "abc" for m in range(1, 7) for d in range(1, 31)])
    wh.create_view("mv_daily", "SELECT region, month, day, SUM(amount) OVER (PARTITION BY "
                   "region ORDER BY month, day ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING) "
                   "AS w FROM sales")
    reads = []
    real = CompleteSequence.value
    monkeypatch.setattr(CompleteSequence, "value",
                        lambda self, k: reads.append(k) or real(self, k))
    got = wh.query("SELECT region, month, SUM(amount) OVER (PARTITION BY region ORDER BY "
                   "month ROWS 1 PRECEDING) AS two_month FROM sales ORDER BY region, month")
    monkeypatch.undo()
    assert got.rewrite is not None and got.rewrite.kind == "ordering_reduction"
    assert reads == []
    totals = {(r, m): t for r, m, t in wh.query(
        "SELECT region, month, SUM(amount) AS t FROM sales GROUP BY region, month",
        use_views=False).rows}
    assert len(got.rows) == len(totals) == 18
    for region, month, value in got.rows:
        want = totals[(region, month)] + totals.get((region, month - 1), 0.0)
        assert not values_differ(value, want), (region, month, value, want)
