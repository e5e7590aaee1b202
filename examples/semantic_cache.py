"""Semantic query caching: user queries become materialized views.

The paper's section 3 motivates derivability with warehouse caching
(WATCHMAN-style): cache the *results* of reporting-function queries as
views, and answer later queries — even with different windows — from the
cache via MaxOA/MinOA.  Without derivation, only exact repeats would hit.

Run:  python examples/semantic_cache.py
"""

import random
import time

from repro import DataWarehouse
from repro.warehouse import create_sequence_table

wh = DataWarehouse()
N = 4000
create_sequence_table(wh.db, "ticks", N, seed=13, distribution="walk")
cache = wh.enable_query_cache(max_views=4)
print(f"warehouse: ticks ({N} rows), semantic cache capacity 4 views\n")


def moving_sum_query(l, h):
    return (f"SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN {l} "
            f"PRECEDING AND {h} FOLLOWING) s FROM ticks ORDER BY pos")


# A session of smoothing queries with assorted window widths — the shape of
# an analyst interactively tuning a moving average.
rng = random.Random(7)
session = [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(12)]
session = [(l, h) for l, h in session if l + h > 0]

for i, (l, h) in enumerate(session, 1):
    start = time.perf_counter()
    res = wh.query(moving_sum_query(l, h))
    elapsed = (time.perf_counter() - start) * 1000
    how = "MISS -> admitted" if res.rewrite.algorithm == "identity" and \
        cache.stats.admissions >= i - cache.stats.hits else "hit"
    print(f"query {i:2d}: window ({l}, {h})  "
          f"answered by {res.rewrite.view:12s} via {res.rewrite.algorithm:9s} "
          f"[{elapsed:6.1f} ms]")

print(f"\ncache stats: {cache.stats.hits} hits, {cache.stats.misses} misses, "
      f"{cache.stats.admissions} admissions, {cache.stats.evictions} evictions")
print(f"hit rate: {cache.stats.hit_rate:.0%}")
print("cached views:", ", ".join(cache.cached_views()))

# Every SUM window derives from the first cached SUM view, so a single
# admission serves the entire session:
assert cache.stats.admissions == 1
print("\none admission answered the whole SUM-window session ✓")
