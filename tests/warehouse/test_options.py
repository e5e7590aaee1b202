"""Query options are checked once, at the front door, before any work."""

import dataclasses

import pytest

from repro.errors import PlanError
from repro.sql.options import QueryOptions
from repro.warehouse import DataWarehouse, create_sequence_table

QUERY = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING AND "
         "1 FOLLOWING) s FROM seq")

BAD_VALUES = [
    ("mode", "bogus", ("memory", "relational")),
    ("mode", "auto", ("memory", "relational")),  # the estimate-picked route went
    ("variant", "bogus", ("disjunctive", "union")),
    ("algorithm", "bogus", ("auto", "maxoa", "minoa")),
    ("window_strategy", "bogus", ("native", "selfjoin")),
    ("use_index", "bogus", ("auto", True, False)),
    ("use_index", 1, ("auto", True, False)),  # 1 == True, but is not True
    ("use_views", "yes", (True, False)),
    ("require_rewrite", None, (True, False)),
]
UNKNOWN_KEYWORDS = ["planner", "kernel", "strategy", "config"]


def build(with_view):
    wh = DataWarehouse()
    create_sequence_table(wh.db, "seq", 30, seed=3)
    if with_view:
        wh.create_view("mv", "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS "
                       "BETWEEN 2 PRECEDING AND 1 FOLLOWING) s FROM seq")
    return wh


@pytest.fixture(params=[True, False], ids=["view", "no-view"])
def wh(request, monkeypatch):
    wh = build(request.param)

    def no_work(*args, **kwargs):  # pragma: no cover - must never run
        raise AssertionError("a rejected query reached the engine")

    monkeypatch.setattr(wh.db, "run", no_work)
    return wh


class TestRejectedBeforeAnyWork:
    @pytest.mark.parametrize("name,value,allowed", BAD_VALUES)
    @pytest.mark.parametrize("entry", ["query", "explain", "explain_analyze"])
    def test_value_outside_domain(self, wh, entry, name, value, allowed):
        with pytest.raises(PlanError) as exc:
            getattr(wh, entry)(QUERY, **{name: value})
        message = str(exc.value)
        assert repr(name) in message and repr(value) in message
        assert all(repr(a) in message for a in allowed)
        assert wh.incidents == []

    @pytest.mark.parametrize("name", UNKNOWN_KEYWORDS)
    def test_unknown_keyword(self, wh, name):
        with pytest.raises(PlanError) as exc:
            wh.query(QUERY, **{name: "cost"})
        message = str(exc.value)
        assert name in message
        assert all(f.name in message for f in dataclasses.fields(QueryOptions))
        assert wh.incidents == []

    def test_database_front_door(self, wh):
        with pytest.raises(PlanError, match="window_strategy"):
            wh.db.sql(QUERY, window_strategy="hope")
        with pytest.raises(PlanError, match="planner"):
            wh.db.explain_analyze(QUERY, planner="cost")


class TestAcceptedValues:
    @pytest.mark.parametrize("options", [
        {}, {"mode": "memory"}, {"mode": "relational", "variant": "union"},
        {"algorithm": "maxoa"}, {"use_views": False, "window_strategy": "selfjoin",
                                 "use_index": False},
    ])
    def test_same_answer(self, options):
        wh = build(with_view=True)
        got = wh.query(QUERY + " ORDER BY pos", **options)
        want = wh.query(QUERY + " ORDER BY pos", use_views=False)
        assert got.column("s") == pytest.approx(want.column("s"))
        assert wh.incidents == []

    def test_options_object_is_immutable_and_typed(self):
        options = QueryOptions(mode="memory")
        with pytest.raises(dataclasses.FrozenInstanceError):
            options.mode = "bogus"
        with pytest.raises(PlanError):
            dataclasses.replace(options, mode="bogus")

