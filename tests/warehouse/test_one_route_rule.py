"""One route rule in every tier: a matching view always answers.

Every frame of ``TestExplainTellsTheTruth``, plus cumulative and point
targets over a sliding SUM view on a random walk, is asked of four
readers of the same data:

* the warehouse that built it;
* a warehouse reloaded from that warehouse's own ``save``;
* a :class:`~repro.serve.ConcurrentWarehouse` over another reload;
* a :class:`~repro.serve.client.ServeClient` talking to a server over it.

All four must take the same route — the same view and derivation, or
base data — and return the same values bit for bit (NaN equals NaN).
"""

import math
import struct

import pytest

from repro.serve import ConcurrentWarehouse
from repro.serve.client import ServeClient
from repro.serve.server import ServeServer
from repro.warehouse import DataWarehouse, create_sequence_table
from tests.warehouse.test_explain import TRUTH_CASES


def _walk_sum_3_3():
    wh = DataWarehouse()
    create_sequence_table(wh.db, "seq", 5000, seed=11, distribution="walk")
    wh.create_view(
        "mv",
        "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING "
        "AND 3 FOLLOWING) AS s FROM seq",
    )
    return wh


WALK_CASES = [
    pytest.param(
        _walk_sum_3_3,
        "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS UNBOUNDED PRECEDING) AS s "
        "FROM seq",
        {},
        id="walk-cumulative",
    ),
    pytest.param(
        _walk_sum_3_3,
        "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 0 PRECEDING AND "
        "0 FOLLOWING) AS s FROM seq",
        {},
        id="walk-point",
    ),
]


def _bits(value):
    if isinstance(value, float):
        return "nan" if math.isnan(value) else struct.pack("<d", value)
    return value


def _answer(rows):
    return [tuple(_bits(v) for v in row) for row in rows]


def _route(info):
    """The route a result took: its derivation, or None for base data."""
    return None if info is None else info.description


@pytest.mark.parametrize("build,sql,options", TRUTH_CASES + WALK_CASES)
def test_every_tier_takes_the_same_route_to_the_same_bits(
    build, sql, options, tmp_path
):
    wh = build()
    wh.save(str(tmp_path))
    reloaded = DataWarehouse.load(str(tmp_path))
    cw = ConcurrentWarehouse.load(str(tmp_path))

    fresh = wh.query(sql, **options)
    want_route, want = _route(fresh.rewrite), _answer(fresh.rows)
    for result in (reloaded.query(sql, **options), cw.query(sql, **options)):
        assert _route(result.rewrite) == want_route, sql
        assert _answer(result.rows) == want, sql
    with ServeServer(cw, max_queue=2, workers=1) as server:
        with ServeClient(port=server.port) as client:
            reply = client.query(sql, **options)
    assert reply["rewrite"] == want_route, sql
    assert _answer(list(reply["rows"])) == want, sql


@pytest.mark.parametrize("target", ["cumulative", "point"])
def test_a_sliding_view_answers_cumulative_and_point_targets(target):
    """The view answers cumulative and point targets, however cheap a
    base-table recompute would be: by prefix tiling and by raw
    reconstruction."""
    wh = _walk_sum_3_3()
    frame = {
        "cumulative": "ROWS UNBOUNDED PRECEDING",
        "point": "ROWS BETWEEN 0 PRECEDING AND 0 FOLLOWING",
    }[target]
    info = wh.query(
        f"SELECT pos, SUM(val) OVER (ORDER BY pos {frame}) AS s FROM seq"
    ).rewrite
    assert info is not None and info.view == "mv"
    assert info.algorithm == {"cumulative": "prefix", "point": "reconstruct"}[target]
