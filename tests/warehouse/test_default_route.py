"""The default route is decided by estimate, not by availability (PR 18).

``mode="auto"`` used to mean "the relational pattern whenever one exists";
for a SUM target over a SUM view that is MinOA's fig. 13 pattern, a chain
of ``n/Wx`` lookups per position through a nested-loop join — quadratic,
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
    assert info.est_relational > info.est_memory
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


def test_a_sequence_a_few_view_windows_long_keeps_the_pattern():
    """The estimate, not a rule: 1 + n/Wx <= 4 lookups per position."""
    wh = _warehouse(20)
    info = wh.query(QUERY).rewrite
    assert info.mode == "relational"
    assert info.est_relational <= info.est_memory
