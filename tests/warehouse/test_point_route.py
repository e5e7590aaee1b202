"""A derived point read answers what the query route answers.

For every algorithm, at positions ``1``, ``n`` and a drawn ``k``,
``value_at``'s answer has the bits of ``derive(seq, target)[k - 1]`` and of
the SQL query's row for that position — embedded, on a partitioned view,
through ``ConcurrentWarehouse`` and through a snapshot pinned before a
write — over values that include NaN, ±inf, -0.0 and subnormals.  After a
write the view's values are a read-only array equal to a refresh's, and a
point read equals a refreshed view's.

NaN results are compared as NaN, not by their bits: IEEE 754 leaves open
which operand's sign and payload a NaN + NaN carries, and NumPy's own array
addition gives both signs at different positions of one array (a 17-long
``+nan + -nan``), so no second evaluation order can promise them.  Every
other value, -0.0 and the subnormals included, is compared by
``struct.pack``.
"""

import math
import struct
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.derivation import derive
from repro.core.window import WindowSpec, cumulative, sliding
from repro.serve.concurrent import ConcurrentWarehouse
from repro.warehouse import DataWarehouse

SPECIALS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310]
VALUES = st.lists(
    st.one_of(*[st.floats(-1e3, 1e3)] * 3, st.sampled_from(SPECIALS)),
    min_size=1, max_size=40,
)

#: (id, view aggregate, view window, target, query options)
CASES = [
    ("identity", "SUM", sliding(2, 1), sliding(2, 1), {}),
    ("cumulative", "SUM", cumulative(), sliding(3, 1), {}),
    ("reconstruct", "SUM", sliding(2, 1), WindowSpec.point(), {}),
    ("prefix", "SUM", sliding(2, 1), cumulative(), {}),
    ("maxoa-sum", "SUM", sliding(2, 1), sliding(4, 2), {"algorithm": "maxoa"}),
    ("maxoa-count", "COUNT", sliding(1, 2), sliding(3, 4), {"algorithm": "maxoa"}),
    ("maxoa-max", "MAX", sliding(1, 1), sliding(2, 3), {}),
    ("maxoa-min", "MIN", sliding(2, 0), sliding(4, 1), {}),
    ("minoa", "SUM", sliding(2, 1), sliding(4, 2), {}),
    ("minoa-narrower", "SUM", sliding(3, 2), sliding(1, 0), {}),
]
ALGORITHM = {"identity": "identity", "cumulative": "cumulative", "reconstruct": "reconstruct",
             "prefix": "prefix", "minoa-narrower": "minoa"}


def same(a, b) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


def _view_sql(agg, window, partitioned=False):
    part = "PARTITION BY g " if partitioned else ""
    cols = "g, pos" if partitioned else "pos"
    return (f"SELECT {cols}, {agg}(val) OVER ({part}ORDER BY pos "
            f"{window.to_frame_sql()}) AS y FROM seq")


def _warehouse(agg, window, parts):
    """A warehouse over ``seq``, one partition per ``parts`` key (none when
    the only key is None), and the view ``mv``."""
    partitioned = list(parts) != [None]
    wh = DataWarehouse()
    columns = ([("g", "TEXT")] if partitioned else []) + [("pos", "INTEGER"), ("val", "FLOAT")]
    wh.create_table("seq", columns, primary_key=[c for c, _ in columns[:-1]])
    wh.insert("seq", [((g,) if partitioned else ()) + (i, v)
                      for g, vs in parts.items() for i, v in enumerate(vs, 1)])
    wh.create_view("mv", _view_sql(agg, window, partitioned))
    return wh


def _sql_answer(reader, case_id, agg, target, options, partitioned=False):
    """The SQL route's answer per row key, asserting the view answered by
    the algorithm the case names."""
    result = reader.query(_view_sql(agg, target, partitioned) + " ORDER BY pos", **options)
    assert result.rewrite is not None and result.rewrite.view == "mv"
    assert result.rewrite.algorithm == ALGORITHM.get(case_id, case_id.split("-")[0])
    return {row[:-1]: row[-1] for row in result.rows}


def _positions(n, data):
    return sorted({1, n, data.draw(st.integers(1, n), label="k")})


CHECKS = settings(max_examples=25, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(autouse=True)
def _quiet_nan_arithmetic():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


@pytest.mark.parametrize("case_id, agg, window, target, options", CASES,
                         ids=[c[0] for c in CASES])
class TestPointReadIsTheQueryRoute:
    @CHECKS
    @given(values=VALUES, data=st.data())
    def test_embedded(self, case_id, agg, window, target, options, values, data):
        wh = _warehouse(agg, window, {None: values})
        rows = _sql_answer(wh, case_id, agg, target, options)
        seq = wh.view("mv").sequence(())
        whole = derive(seq, target, **options)
        for k in _positions(len(values), data):
            got = wh.value_at("mv", k, window=target, **options)
            assert same(got, whole[k - 1]) and same(got, rows[(k,)]), (k, got, whole[k - 1])

    @CHECKS
    @given(values=VALUES, data=st.data())
    def test_partitioned(self, case_id, agg, window, target, options, values, data):
        cut = data.draw(st.integers(0, len(values)), label="cut")
        parts = {"a": values, "b": values[cut:] or values[:1]}
        wh = _warehouse(agg, window, parts)
        rows = _sql_answer(wh, case_id, agg, target, options, partitioned=True)
        for g, vs in parts.items():
            whole = derive(wh.view("mv").sequence((g,)), target, **options)
            for k in _positions(len(vs), data):
                got = wh.value_at("mv", k, window=target, partition_key=(g,), **options)
                assert same(got, whole[k - 1]) and same(got, rows[(g, k)]), (g, k)

    @CHECKS
    @given(values=VALUES, data=st.data())
    def test_concurrent_and_pinned_snapshot(self, case_id, agg, window, target, options,
                                            values, data):
        cw = ConcurrentWarehouse(_warehouse(agg, window, {None: values}))
        before = cw.warehouse.view("mv").sequence(())
        ks = _positions(len(values), data)
        with cw.pin() as snap:
            cw.update_measure("seq", keys={"pos": ks[-1]}, value_col="val", new_value=-0.0)
            pinned = _sql_answer(snap, case_id, agg, target, options)
            served = _sql_answer(cw, case_id, agg, target, options)
            after = cw.warehouse.view("mv").sequence(())
            for k in ks:
                old = snap.value_at("mv", k, window=target, **options)
                assert same(old, derive(before, target, **options)[k - 1])
                assert same(old, pinned[(k,)])
                new = cw.value_at("mv", k, window=target, **options)
                assert same(new, derive(after, target, **options)[k - 1])
                assert same(new, served[(k,)])


@pytest.mark.parametrize("case_id, agg, window, target, options", CASES,
                         ids=[c[0] for c in CASES])
@CHECKS
@given(values=VALUES, data=st.data())
def test_writes_keep_a_read_only_array_and_match_a_refresh(case_id, agg, window, target,
                                                           options, values, data):
    wh = _warehouse(agg, window, {None: values})
    n = len(values)
    k = data.draw(st.integers(1, n), label="k")
    value = data.draw(st.one_of(st.floats(-1e3, 1e3), st.sampled_from(SPECIALS)), label="v")
    writes = [
        lambda: wh.update_measure("seq", keys={"pos": k}, value_col="val", new_value=value),
        lambda: wh.insert_row("seq", (n + 1, value)),
        lambda: wh.delete_row("seq", keys={"pos": k}),
    ]
    for write in writes:
        assert not any(isinstance(r, Exception) for r in write())
        seq = wh.view("mv").sequence(())
        assert not seq._values.flags.writeable
        keys = [okey[0] for okey in wh.view("mv").reporting.partition(()).order_keys]
        probes = sorted({keys[0], keys[-1], keys[len(keys) // 2]})
        maintained = [wh.value_at("mv", p, window=target, **options) for p in probes]
        wh.refresh_view("mv")
        fresh = wh.view("mv").sequence(())
        assert len(fresh.to_list()) == len(seq.to_list())
        assert all(map(same, seq.to_list(), fresh.to_list()))
        refreshed = [wh.value_at("mv", p, window=target, **options) for p in probes]
        assert all(map(same, maintained, refreshed)), (probes, maintained, refreshed)
