"""A maintained view's storage table is slot for slot what a refresh
builds: one dense run per partition, the runs in partition-key order,
whatever mix of writes opened, grew, shrank and closed partitions."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.warehouse import DataWarehouse

CALLS = {
    "sum": "SUM(val) OVER ({over} ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING)",
    "max": "MAX(val) OVER ({over} ROWS BETWEEN 1 PRECEDING AND 2 FOLLOWING)",
    "cumulative": "SUM(val) OVER ({over} ROWS UNBOUNDED PRECEDING)",
}

writes = st.lists(
    st.tuples(st.sampled_from(["update", "insert", "delete", "bulk"]),
              st.integers(0, 3), st.integers(0, 12), st.integers(-50, 50)),
    min_size=1, max_size=10,
)


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from([None, "INTEGER", "TEXT"]), call=st.sampled_from(sorted(CALLS)),
       complete=st.booleans(), ops=writes)
def test_maintained_storage_is_what_a_refresh_builds(key, call, complete, ops):
    group = (lambda g: f"g{g}") if key == "TEXT" else (lambda g: g if key else 0)
    wh = DataWarehouse()
    wh.create_table("t", [("g", key or "INTEGER"), ("pos", "INTEGER"), ("val", "FLOAT")])
    live = {(group(g), pos): float(pos) for g in (0, 1) for pos in range(1, 7)}
    wh.insert("t", [(*k, v) for k, v in live.items()])
    over = "PARTITION BY g ORDER BY pos" if key else "ORDER BY pos"
    wh.create_view("mv", f"SELECT pos, {CALLS[call].format(over=over)} w FROM t",
                   complete=complete)
    for op, g, pos, value in ops:
        new = (group(g), pos)
        existing = sorted(live, key=repr)[pos % len(live)]
        if op == "update":
            wh.update_measure("t", keys=dict(zip(("g", "pos"), existing)),
                              value_col="val", new_value=float(value))
            live[existing] = float(value)
        elif op == "delete" and len(live) > 1:
            wh.delete_row("t", keys=dict(zip(("g", "pos"), existing)))
            del live[existing]
        elif op == "insert" and new not in live:
            wh.insert_row("t", (*new, float(value)))
            live[new] = float(value)
        elif op == "bulk":
            rows = [(group(g), p, float(value)) for p in (pos + 20, pos + 40)
                    if (group(g), p) not in live]
            wh.insert("t", rows)
            live.update({row[:2]: row[2] for row in rows})
        assert wh.quarantined_views() == []
        assert all(report.ok for report in wh.verify(quarantine=False).values())
        maintained = wh.db.table("__mv_mv").digest(cached=False)
        wh.refresh_view("mv")
        assert wh.db.table("__mv_mv").digest(cached=False) == maintained
