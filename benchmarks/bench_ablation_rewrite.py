"""Ablation D — the end-to-end payoff of view rewriting.

Measures the same reporting-function query through the warehouse's four
answer paths:

* native evaluation over the base table (no views);
* rewrite against a materialized view, in-memory recursive derivation;
* rewrite against the view, relational MinOA pattern (fig. 13);
* semantic-cache hit (identity derivation from a cached view).

The in-memory rewrite shows derivation's intrinsic cost (O(n) lookups —
cheaper than touching base data whenever base access is more expensive than
view access, the paper's warehouse premise); the relational pattern carries
the quadratic join cost Table 2 quantifies.
"""

import pytest

from repro.warehouse import DataWarehouse, create_sequence_table

N = 2000
QUERY = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING "
         "AND 1 FOLLOWING) s FROM seq ORDER BY pos")


def fresh_warehouse(with_view: bool) -> DataWarehouse:
    wh = DataWarehouse()
    create_sequence_table(wh.db, "seq", N, seed=1)
    if with_view:
        wh.create_view(
            "mv",
            "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 "
            "PRECEDING AND 1 FOLLOWING) s FROM seq")
    return wh


def test_native_over_base(benchmark):
    benchmark.group = f"rewrite ablation n={N}"
    wh = fresh_warehouse(with_view=False)
    result = benchmark(wh.query, QUERY, use_views=False)
    assert len(result) == N


def test_rewrite_memory(benchmark):
    benchmark.group = f"rewrite ablation n={N}"
    wh = fresh_warehouse(with_view=True)
    result = benchmark(wh.query, QUERY, mode="memory")
    assert result.rewrite is not None and result.rewrite.mode == "memory"


def test_rewrite_relational_minoa(benchmark):
    benchmark.group = f"rewrite ablation n={N}"
    wh = fresh_warehouse(with_view=True)
    result = benchmark.pedantic(
        wh.query, args=(QUERY,), kwargs={"algorithm": "minoa", "mode": "relational"},
        rounds=1, iterations=1)
    assert result.rewrite is not None and result.rewrite.mode == "relational"


def test_semantic_cache_hit(benchmark):
    benchmark.group = f"rewrite ablation n={N}"
    wh = fresh_warehouse(with_view=False)
    wh.enable_query_cache(max_views=2)
    wh.query(QUERY, mode="memory")  # miss: admits the view

    result = benchmark(wh.query, QUERY, mode="memory")
    assert result.rewrite is not None
    assert wh.cache.stats.hits >= 1
