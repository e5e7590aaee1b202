"""No query without options builds a relational pattern, in any tier.

The fig. 10/13 patterns (``repro.sql.rewriter._relational_plan``) answer
only ``mode="relational"``.  The three shapes below are the ones a
lookups-per-position estimate used to send to a pattern by default: an
identity hit, a partitioned identity hit and a MinOA target over a
sequence a few view windows long.  Each is asked of four readers of the
same data:

* the warehouse that built it;
* a warehouse reloaded from that warehouse's own ``save``;
* a :class:`~repro.serve.ConcurrentWarehouse` over another reload;
* a :class:`~repro.serve.client.ServeClient` talking to a server over it
  (in this process, so the spy sees the server's planning too).
"""

import math
import struct

import pytest

import repro.sql.rewriter as rewriter
from repro.serve import ConcurrentWarehouse
from repro.serve.client import ServeClient
from repro.serve.server import ServeServer
from repro.views.verify import values_differ
from repro.warehouse import DataWarehouse, create_sequence_table, sequence_values

FRAME = "ROWS BETWEEN 4 PRECEDING AND 2 FOLLOWING"

# (query, whether the relational answer must match memory's bits)
SHAPES = [
    pytest.param(
        f"SELECT pos, SUM(val) OVER (ORDER BY pos {FRAME}) AS s FROM seq "
        "ORDER BY pos",
        True,
        id="identity",
    ),
    pytest.param(
        f"SELECT g, pos, SUM(val) OVER (PARTITION BY g ORDER BY pos {FRAME}) "
        "AS s FROM pseq ORDER BY g, pos",
        True,
        id="partitioned-identity",
    ),
    pytest.param(
        "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND "
        "2 FOLLOWING) AS s FROM short ORDER BY pos",
        False,
        id="minoa-20-rows",
    ),
]
TIERS = ["embedded", "reloaded", "concurrent", "served"]


def _build():
    wh = DataWarehouse()
    create_sequence_table(wh.db, "seq", 500, seed=43)
    create_sequence_table(wh.db, "short", 20, seed=44)
    wh.create_table("pseq", [("g", "INTEGER"), ("pos", "INTEGER"), ("val", "FLOAT")])
    wh.insert("pseq", [
        (g, i, v)
        for g in range(10)
        for i, v in enumerate(sequence_values(20, seed=g), 1)
    ])
    wh.create_view("mv", f"SELECT pos, SUM(val) OVER (ORDER BY pos {FRAME}) AS s FROM seq")
    wh.create_view(
        "mv_part",
        f"SELECT g, pos, SUM(val) OVER (PARTITION BY g ORDER BY pos {FRAME}) "
        "AS s FROM pseq",
    )
    wh.create_view(
        "mv_short", f"SELECT pos, SUM(val) OVER (ORDER BY pos {FRAME}) AS s FROM short"
    )
    return wh


def _local(reader):
    def ask(sql, **options):
        result = reader.query(sql, **options)
        assert result.rewrite is not None, sql
        return list(result.rows), result.rewrite.mode

    return ask


def _served(client):
    def ask(sql, **options):
        reply = client.query(sql, **options)
        assert reply["rewrite"], sql
        # The wire carries the derivation's description, not its route.
        return list(reply["rows"]), None

    return ask


@pytest.fixture(scope="module")
def tiers(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("dump"))
    wh = _build()
    wh.save(path)
    cw = ConcurrentWarehouse.load(path)
    with ServeServer(cw, max_queue=2) as server:
        with ServeClient(port=server.port) as client:
            yield {
                "embedded": _local(wh),
                "reloaded": _local(DataWarehouse.load(path)),
                "concurrent": _local(cw),
                "served": _served(client),
            }


@pytest.fixture
def pattern_builds(monkeypatch):
    """Every call of ``_relational_plan`` while the test runs."""
    calls = []
    real = rewriter._relational_plan

    def spy(*args, **kwargs):
        calls.append(args[1])  # the storage table the pattern scans
        return real(*args, **kwargs)

    monkeypatch.setattr(rewriter, "_relational_plan", spy)
    return calls


def _bits(row):
    return tuple(
        ("nan" if math.isnan(v) else struct.pack("<d", v)) if isinstance(v, float) else v
        for v in row
    )


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("sql,exact", SHAPES)
def test_no_option_builds_no_pattern(tiers, pattern_builds, tier, sql, exact):
    _, mode = tiers[tier](sql)
    assert pattern_builds == []
    assert mode == (None if tier == "served" else "memory")


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("sql,exact", SHAPES)
def test_mode_relational_builds_the_pattern_and_agrees(
    tiers, pattern_builds, tier, sql, exact
):
    memory, _ = tiers[tier](sql)
    assert pattern_builds == []
    relational, mode = tiers[tier](sql, mode="relational")
    assert len(pattern_builds) == 1
    assert mode == (None if tier == "served" else "relational")
    if exact:
        assert [_bits(r) for r in relational] == [_bits(r) for r in memory]
    else:
        assert [r[:-1] for r in relational] == [r[:-1] for r in memory]
        assert len(memory) == 20
        assert not any(
            values_differ(a[-1], b[-1]) for a, b in zip(relational, memory)
        )
