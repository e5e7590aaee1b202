"""The default route is the in-memory derivation, whatever the length.

A query with no option derives its answer from the view's in-memory
mirror.  The fig. 10/13 patterns answer only ``mode="relational"``: for a
SUM target over a SUM view that is MinOA's fig. 13 pattern, a chain of
``n/Wx`` lookups per position through a nested-loop join — quadratic,
and on the 10 000-row table below it did not return in 100 s.
"""

from repro.core.compute import compute_naive
from repro.core.window import sliding
from repro.views.verify import values_differ
from repro.warehouse import DataWarehouse, create_sequence_table

VIEW = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 4 PRECEDING "
        "AND 2 FOLLOWING) AS s FROM seq")
QUERY = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING "
         "AND 2 FOLLOWING) AS s FROM seq ORDER BY pos")


def _warehouse(rows):
    wh = DataWarehouse()
    wh.raw = create_sequence_table(wh.db, "seq", rows, seed=18)
    wh.create_view("mv", VIEW)
    return wh


def _agrees(result, raw):
    expected = compute_naive(raw, sliding(3, 2))
    got = result.column("s")
    return len(got) == len(expected) and not any(
        values_differ(a, b) for a, b in zip(got, expected)
    )


def test_sum_target_over_a_large_sum_view_is_answered_in_memory():
    wh = _warehouse(10_000)
    result = wh.query(QUERY)
    info = result.rewrite
    assert info is not None and (info.view, info.algorithm) == ("mv", "minoa")
    assert info.mode == "memory" and info.variant is None
    assert result.stats.pairs_examined == 0
    assert _agrees(result, wh.raw)


def test_relational_mode_still_runs_the_fig13_pattern():
    wh = _warehouse(200)
    assert wh.query(QUERY).rewrite.mode == "memory"
    result = wh.query(QUERY, mode="relational")
    info = result.rewrite
    assert (info.algorithm, info.mode, info.variant) == (
        "minoa", "relational", "disjunctive")
    assert result.stats.pairs_examined > 0
    assert _agrees(result, wh.raw)


def test_a_sequence_a_few_view_windows_long_is_answered_in_memory():
    """Short or long, no option means memory; the pattern agrees with it."""
    wh = _warehouse(20)
    result = wh.query(QUERY)
    assert result.rewrite.mode == "memory"
    assert result.stats.pairs_examined == 0
    assert _agrees(result, wh.raw)
    relational = wh.query(QUERY, mode="relational")
    assert relational.rewrite.mode == "relational"
    got, want = relational.column("s"), result.column("s")
    assert len(got) == len(want) == 20
    assert not any(values_differ(a, b) for a, b in zip(got, want))


def test_a_zero_window_sum_is_positive_zero_on_both_routes():
    """Windows holding only -0.0 sum to +0.0 natively, as a sum onto 0.0
    (the view route's, and SQLite's) does."""
    import struct

    wh = DataWarehouse()
    wh.create_table("t", [("g", "INTEGER"), ("pos", "INTEGER"), ("val", "FLOAT")])
    wh.insert("t", [(0, 0, -0.0), (0, 2, -0.0), (1, 0, -0.0), (1, 2, 3.0)])
    checked = 0
    for agg in ("SUM", "AVG"):
        for frame in ("ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING",
                      "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW"):
            call = f"{agg}(val) OVER (PARTITION BY g ORDER BY pos {frame})"
            name = f"v{checked}"
            wh.create_view(name, f"SELECT g, pos, {call} s FROM t")
            sql = f"SELECT g, pos, {call} s FROM t ORDER BY g, pos"
            routed = wh.query(sql)
            assert routed.rewrite is not None and routed.rewrite.view == name
            native = wh.query(sql, use_views=False)
            bits = [[struct.pack("<d", r[2]) for r in res.rows]
                    for res in (routed, native)]
            assert bits[0] == bits[1], (agg, frame)
            assert struct.pack("<d", 0.0) in bits[1]
            assert struct.pack("<d", -0.0) not in bits[1]
            wh.drop_view(name)
            checked += 1
    assert checked == 4
