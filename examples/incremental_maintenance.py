"""Incremental maintenance of materialized sequence views (section 2.3).

Shows the three modification types — update, insert, delete — propagating
through a materialized moving-sum view with *local* effort: only the
``w = l + h + 1`` sequence values whose windows contain the modified
position are recomputed, never the whole sequence.

Run:  python examples/incremental_maintenance.py
"""

import time

from repro import DataWarehouse
from repro.core import CompleteSequence, apply_update, sliding
from repro.warehouse import create_sequence_table, sequence_values

wh = DataWarehouse()
N = 5000
create_sequence_table(wh.db, "metrics", N, seed=3, distribution="walk")
wh.create_view(
    "mv_ma7",
    "SELECT pos, SUM(val) OVER (ORDER BY pos "
    "ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING) AS ma FROM metrics",
)
print(f"view over {N} rows, window (3, 3), w = 7\n")

# --- update -------------------------------------------------------------------
result = wh.update_measure("metrics", keys={"pos": 2500},
                           value_col="val", new_value=123.0)[0]
print(f"update  pos=2500: {result.values_touched} values recomputed, "
      f"{result.values_shifted} shifted  (w = 7)")

# --- insert -------------------------------------------------------------------
result = wh.insert_row("metrics", (N + 1, 55.0))[0]
print(f"insert  pos={N + 1}: {result.values_touched} values recomputed, "
      f"{result.values_shifted} shifted")

# --- delete -------------------------------------------------------------------
result = wh.delete_row("metrics", keys={"pos": 100})[0]
print(f"delete  pos=100: {result.values_touched} values recomputed, "
      f"{result.values_shifted} shifted")

# The view still answers queries exactly:
q = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING "
     "AND 3 FOLLOWING) AS ma FROM metrics ORDER BY pos")
derived = wh.query(q)
native = wh.query(q, use_views=False)
assert [round(r[1], 6) for r in derived.rows] == [round(r[1], 6) for r in native.rows]
print("\nview consistent with base data after all three operations ✓")

# --- incremental vs recompute, timed -----------------------------------------
raw = list(sequence_values(20000, seed=4))
seq = CompleteSequence.from_raw(raw, sliding(3, 3))

t0 = time.perf_counter()
for i in range(200):
    apply_update(raw, seq, (i * 97) % 20000 + 1, float(i))
incremental = time.perf_counter() - t0

t0 = time.perf_counter()
for i in range(5):  # 5 full recomputations already dwarf 200 increments
    CompleteSequence.from_raw(raw, sliding(3, 3))
recompute = (time.perf_counter() - t0) / 5

print(f"\n200 incremental updates: {incremental * 1000:8.1f} ms total")
print(f"ONE full recomputation:  {recompute * 1000:8.1f} ms")
print(f"-> a point update costs ~{incremental / 200 / recompute * 100:.2f}% "
      "of a recomputation")
