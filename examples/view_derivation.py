"""Deriving window queries from materialized views: MaxOA vs MinOA.

Walks through the paper's sections 3-5 on a smoothing workload: one
materialized view ``x̃ = (2, 1)``, many query windows, both derivation
algorithms, both relational pattern variants, plus raw-data reconstruction.

Run:  python examples/view_derivation.py
"""

from repro import DataWarehouse, sliding
from repro.core import CompleteSequence, maxoa, minoa, raw_from_sliding
from repro.warehouse import create_sequence_table

wh = DataWarehouse()
raw = create_sequence_table(wh.db, "sensor", 500, seed=7, distribution="seasonal")
wh.create_view(
    "mv_smooth",
    "SELECT pos, SUM(val) OVER (ORDER BY pos "
    "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s FROM sensor",
)

print("materialized view: x̃ = (2, 1), Wx = 4, complete sequence "
      f"({wh.view('mv_smooth').row_count()} stored rows)\n")

# --- 1. A family of windows, all answered from the one view -----------------
for l, h in [(3, 1), (3, 2), (5, 3), (1, 1), (1, 0)]:
    q = (f"SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN {l} "
         f"PRECEDING AND {h} FOLLOWING) AS s FROM sensor ORDER BY pos")
    res = wh.query(q)
    info = res.rewrite
    assert info is not None
    print(f"ỹ = ({l}, {h}):  algorithm={info.algorithm:7s} mode={info.mode:10s}"
          f"  -> {info.description}")

# --- 2. Forcing algorithms and pattern variants ------------------------------
q31 = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING "
       "AND 1 FOLLOWING) AS s FROM sensor ORDER BY pos")
print()
reference = None
for algorithm in ("maxoa", "minoa"):
    for variant in ("disjunctive", "union"):
        res = wh.query(q31, algorithm=algorithm, variant=variant,
                       mode="relational")
        stats = res.stats
        print(f"{algorithm}/{variant:12s}: pairs={stats.pairs_examined:>8}"
              f" index_lookups={stats.index_lookups}")
        values = [round(r[1], 6) for r in res.rows]
        assert reference is None or values == reference
        reference = values
print("all four strategies produce identical results ✓")

# --- 3. The core algebra directly (no SQL) -----------------------------------
view_seq = CompleteSequence.from_raw(raw, sliding(2, 1))
# MaxOA's explicit form, one position at a time (the relational pattern's
# profile), against MinOA's whole-sequence kernel (one NumPy array).
explicit = [maxoa.derive_at(view_seq, sliding(3, 1), k) for k in range(1, len(raw) + 1)]
recursive = minoa.derive(view_seq, sliding(3, 1))
assert all(abs(a - b) < 1e-8 for a, b in zip(explicit, recursive))
params = maxoa.check_preconditions(sliding(2, 1), sliding(3, 1))
print(f"\nMaxOA factors for (2,1) -> (3,1): Δl={params.delta_l}, "
      f"Δp={params.delta_p}, shift period Δl+Δp={params.period} (= Wx)")

# --- 4. Raw data is reconstructible from the complete view (section 3.2) ----
reconstructed = raw_from_sliding(view_seq)
assert all(abs(a - b) < 1e-8 for a, b in zip(reconstructed, raw))
print("raw data reconstructed exactly from the materialized view ✓")

# --- 5. MIN/MAX: MaxOA applies, MinOA does not (the paper's trade-off) ------
wh.create_view(
    "mv_peak",
    "SELECT pos, MAX(val) OVER (ORDER BY pos "
    "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS m FROM sensor")
res = wh.query(
    "SELECT pos, MAX(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND "
    "2 FOLLOWING) AS m FROM sensor ORDER BY pos")
assert res.rewrite is not None and res.rewrite.algorithm == "maxoa"
print(f"MAX view served by {res.rewrite.algorithm} "
      f"(MinOA cannot subtract MIN/MAX values)")
