"""Irregular time series: RANGE frames and densification.

Real warehouse data rarely has the dense positions the paper's sequence
model assumes.  This example shows the two tools the library offers:

1. **RANGE frames** — value-distance windows evaluated natively over the
   irregular timestamps (extension beyond the paper's ROWS model);
2. **densification** — `densify_daily` fills calendar gaps so that ROWS
   frames (and hence view derivation!) regain their day-window meaning.

Run:  python examples/irregular_timeseries.py
"""

import datetime
import random

from repro import DataWarehouse
from repro.warehouse import densify_daily

rng = random.Random(31)
base = datetime.date(2001, 6, 1)

# A sensor that reports only on ~60% of days, sometimes twice.
readings = []
for offset in range(45):
    if rng.random() < 0.6:
        for _ in range(rng.choice([1, 1, 2])):
            readings.append({
                "day": base + datetime.timedelta(days=offset),
                "kwh": round(rng.uniform(5.0, 30.0), 1),
            })
print(f"{len(readings)} raw readings over 45 days (gappy, some duplicates)\n")

wh = DataWarehouse()
wh.create_table("power", [("day", "DATE"), ("kwh", "FLOAT"), ("rid", "INTEGER")])
wh.insert("power", [(r["day"], r["kwh"], i) for i, r in enumerate(readings)])

# --- 1. RANGE frame directly over the irregular data ------------------------
res = wh.query(
    "SELECT day, SUM(kwh) OVER (ORDER BY day RANGE BETWEEN 3 PRECEDING AND "
    "3 FOLLOWING) AS week_window FROM power ORDER BY day LIMIT 6")
print("RANGE window (±3 calendar days), irregular data as-is:")
print(res.pretty())

# --- 2. densify, then the paper's machinery applies --------------------------
dense = densify_daily(readings, date_col="day", value_col="kwh")
wh.create_table("power_daily", [("day", "DATE"), ("kwh", "FLOAT")])
wh.insert("power_daily", [(r["day"], r["kwh"]) for r in dense])
wh.create_view(
    "mv_daily",
    "SELECT day, SUM(kwh) OVER (ORDER BY day ROWS BETWEEN 3 PRECEDING AND "
    "3 FOLLOWING) AS w FROM power_daily")
derived = wh.query(
    "SELECT day, SUM(kwh) OVER (ORDER BY day ROWS BETWEEN 6 PRECEDING AND "
    "CURRENT ROW) AS weekly FROM power_daily ORDER BY day")
print(f"\nafter densification ({len(dense)} dense days), a 7-day trailing "
      f"sum is\nanswered from the materialized view: {derived.rewrite}\n")
