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
