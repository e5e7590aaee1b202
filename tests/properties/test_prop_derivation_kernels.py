"""The whole-sequence derivation kernels against what they replaced.

Every whole-sequence derivation is a NumPy kernel (shifted slices, one
strided cumsum per period-``Wx`` recurrence) that returns a float64 array.
The scalar recurrences they replaced are kept here as reference functions:
the kernels perform the same additions in the same order, so the two must
agree *bit for bit* (compared as ``tolist()``), and both must agree with
the per-position explicit forms (``derive_at`` and its kin, the testkit
oracle) within ``values_differ``.
"""

import datetime
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import maxoa, minoa
from repro.core.aggregates import COUNT, MAX, MIN, SUM
from repro.core.complete import CompleteSequence
from repro.core.derivation import derive
from repro.core.reconstruct import (
    raw_from_cumulative,
    raw_from_sliding,
    sliding_from_cumulative,
)
from repro.core.window import WindowSpec, cumulative, sliding
from repro.errors import IncompleteSequenceError
from repro.views.verify import values_differ
from repro.warehouse import DataWarehouse
from tests.conftest import derive_each

# -- the scalar recurrences the kernels replaced ---------------------------------


def ref_maxoa_sum(seq, target):
    params = maxoa.check_preconditions(seq.window, target)
    n, period = seq.n, params.period
    delta_l, delta_h = params.delta_l, params.delta_h
    zl = {}
    if delta_l:
        for k in range(delta_l - params.view.h + 1, n + 1):
            prev = zl.get(k - period, 0.0)
            zl[k] = seq.value(k - delta_l) - seq.value(k - period) + prev
    zh = {}
    if delta_h:
        for k in range(n + params.view.l, 0, -1):
            nxt = zh.get(k + period, 0.0)
            zh[k] = seq.value(k + delta_h) - seq.value(k + period) + nxt
    out = []
    for k in range(1, n + 1):
        total = seq.value(k)
        if delta_l:
            total += seq.value(k - delta_l) - zl.get(k, 0.0)
        if delta_h:
            total += seq.value(k + delta_h) - zh.get(k, 0.0)
        out.append(total)
    return out


def ref_maxoa_minmax(seq, target):
    params = maxoa.check_preconditions(seq.window, target)
    out = []
    for k in range(1, seq.n + 1):
        candidates = [
            seq.value_or_none(k - params.delta_l) if params.delta_l else None,
            seq.value_or_none(k),
            seq.value_or_none(k + params.delta_h) if params.delta_h else None,
        ]
        present = [c for c in candidates if c is not None]
        result = present[0]
        for c in present[1:]:
            result = seq.aggregate.combine(result, c)
        out.append(result)
    return out


def ref_minoa(seq, target):
    params = minoa.check_preconditions(seq.window, target)
    n, period = seq.n, params.period
    lo = 1 - params.view.h
    hi = max(n + params.view.l, n + params.delta_h, n - params.delta_l - period)
    prefix = {}
    for j in range(lo, hi + 1):
        prefix[j] = seq.value(j) + prefix.get(j - period, 0.0)
    return [
        prefix.get(k + params.delta_h, 0.0)
        - prefix.get(k - params.delta_l - period, 0.0)
        for k in range(1, n + 1)
    ]


def ref_prefix(seq):
    n, hx, period = seq.n, seq.window.h, seq.window.width
    prefix = {}
    for j in range(1 - hx, n + 1):
        prefix[j] = seq.value(j) + prefix.get(j - period, 0.0)
    return [prefix.get(k - hx, 0.0) for k in range(1, n + 1)]


def ref_raw_from_sliding(seq):
    n, h, w = seq.n, seq.window.h, seq.window.width
    out = [0.0] * n
    for k in range(1, n + 1):
        prev = out[k - w - 1] if k - w >= 1 else 0.0
        out[k - 1] = seq.value(k - h) - seq.value(k - h - 1) + prev
    return out


def ref_raw_from_cumulative(seq):
    return [seq.value(k) - seq.value(k - 1) for k in range(1, seq.n + 1)]


def ref_sliding_from_cumulative(seq, target):
    return [
        seq.value(k + target.h) - seq.value(k - target.l - 1)
        for k in range(1, seq.n + 1)
    ]


# -- strategies ----------------------------------------------------------------------

measures = st.floats(min_value=-1000, max_value=1000, allow_nan=False)
bound = st.integers(min_value=0, max_value=5)
view_windows = st.tuples(bound, bound).filter(lambda lh: sum(lh) > 0).map(
    lambda lh: sliding(*lh)
)


@st.composite
def view_and_raw(draw, max_rows=40, values=measures):
    """A view window and raw data whose length straddles its width:
    n in {1, < Wx, = Wx, > Wx} all come up."""
    window = draw(view_windows)
    wx = window.width
    n = draw(st.one_of(
        st.just(1), st.integers(1, wx), st.just(wx), st.integers(wx, max_rows)
    ))
    raw = draw(st.lists(values, min_size=n, max_size=n))
    return window, raw


def close(got, expected):
    assert len(got) == len(expected)
    assert not any(values_differ(a, b) for a, b in zip(got, expected)), (
        got, expected)


def same_values(got, expected):
    """Exactly equal as list ``==`` compares floats, except NaN matches NaN.
    (Not by ``struct.pack``: MaxOA's MIN/MAX kernel breaks a tie of 0.0 and
    -0.0 the other way than its explicit form.)"""
    assert len(got) == len(expected)
    assert all(a == b or (math.isnan(a) and math.isnan(b)) for a, b in zip(got, expected)), (
        got, expected)


# -- MaxOA ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(data=view_and_raw(), agg=st.sampled_from([SUM, COUNT]), more=st.data())
def test_maxoa_sum_family(data, agg, more):
    view, raw = data
    # Coverage factors across the whole valid range, Δ = 0 and Δ = Wx included.
    delta_l = more.draw(st.sampled_from([0, view.width, None]))
    delta_h = more.draw(st.sampled_from([0, view.width, None]))
    if delta_l is None:
        delta_l = more.draw(st.integers(0, view.width))
    if delta_h is None:
        delta_h = more.draw(st.integers(0, view.width))
    target = sliding(view.l + delta_l, view.h + delta_h)
    seq = CompleteSequence.from_raw(raw, view, agg)
    got = maxoa.derive(seq, target).tolist()
    assert got == ref_maxoa_sum(seq, target)
    close(got, [maxoa.derive_at(seq, target, k) for k in range(1, seq.n + 1)])


@settings(max_examples=150, deadline=None)
@given(data=view_and_raw(values=st.one_of(measures, st.just(math.nan))),
       agg=st.sampled_from([MIN, MAX]), more=st.data())
def test_maxoa_minmax(data, agg, more):
    view, raw = data  # a NaN measure propagates through every form
    delta_l = more.draw(st.integers(0, view.width))
    delta_h = more.draw(st.integers(0, view.width))
    target = sliding(view.l + delta_l, view.h + delta_h)
    seq = CompleteSequence.from_raw(raw, view, agg)
    got = maxoa.derive(seq, target).tolist()
    same_values(got, ref_maxoa_minmax(seq, target))
    same_values(got, [maxoa.derive_at(seq, target, k) for k in range(1, seq.n + 1)])
    same_values(got, CompleteSequence.from_raw(raw, target, agg).core_values())


@pytest.mark.parametrize("agg", [MIN, MAX])
def test_maxoa_point_form_propagates_nan(agg):
    seq = CompleteSequence.from_raw([1.0, math.nan, 2.0, 3.0, 0.5, 4.0], sliding(1, 1), agg)
    target = sliding(2, 2)
    assert math.isnan(maxoa.derive_at(seq, target, 1))
    same_values([maxoa.derive_at(seq, target, k) for k in range(1, 7)],
                derive(seq, target).tolist())


# -- MinOA, prefix tiling, reconstruction ---------------------------------------------


@settings(max_examples=150, deadline=None)
@given(data=view_and_raw(), target=view_windows, agg=st.sampled_from([SUM, COUNT]))
def test_minoa(data, target, agg):
    view, raw = data  # the target may be narrower than the view on either side
    seq = CompleteSequence.from_raw(raw, view, agg)
    got = minoa.derive(seq, target).tolist()
    assert got == ref_minoa(seq, target)
    close(got, [minoa.derive_at(seq, target, k) for k in range(1, seq.n + 1)])


@settings(max_examples=100, deadline=None)
@given(data=view_and_raw())
def test_prefix_tiling(data):
    view, raw = data
    seq = CompleteSequence.from_raw(raw, view)
    got = derive(seq, cumulative()).tolist()
    assert got == ref_prefix(seq)
    close(got, derive_each(seq, cumulative()))
    close(got, list(itertools.accumulate(raw)))


@settings(max_examples=100, deadline=None)
@given(data=view_and_raw())
def test_reconstruct_from_sliding(data):
    view, raw = data
    seq = CompleteSequence.from_raw(raw, view)
    got = raw_from_sliding(seq).tolist()
    assert got == ref_raw_from_sliding(seq)
    assert got == derive(seq, WindowSpec.point()).tolist()
    close(got, derive_each(seq, WindowSpec.point()))


# -- figs. 4 and 5 -------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(raw=st.lists(measures, min_size=1, max_size=40), target=view_windows)
def test_cumulative_view(raw, target):
    seq = CompleteSequence.from_raw(raw, cumulative())
    assert raw_from_cumulative(seq).tolist() == ref_raw_from_cumulative(seq)
    got = sliding_from_cumulative(seq, target).tolist()
    assert got == ref_sliding_from_cumulative(seq, target)
    assert got == derive(seq, target).tolist()
    assert got == derive_each(seq, target)


# -- incomplete sequences --------------------------------------------------------------


@pytest.mark.parametrize("form", ["explicit", "recursive"])
def test_incomplete_sequences_raise_the_same_error(form):
    """The whole-sequence kernels ("recursive") raise where the
    per-position explicit forms do."""
    raw = [float(i) for i in range(1, 13)]
    seq = CompleteSequence.from_raw(raw, sliding(2, 1), complete=False)
    minmax = CompleteSequence.from_raw(raw, sliding(2, 1), MAX, complete=False)

    def run(s, target, algorithm="auto"):
        if form == "explicit":
            return derive_each(s, target, algorithm=algorithm)
        return derive(s, target, algorithm=algorithm).tolist()

    for s, target, algorithm in (
        (seq, sliding(3, 2), "maxoa"),
        (seq, sliding(3, 2), "minoa"),
        (seq, sliding(1, 0), "minoa"),
        (seq, WindowSpec.point(), "auto"),
        (seq, cumulative(), "auto"),
        (minmax, sliding(3, 2), "maxoa"),
    ):
        with pytest.raises(IncompleteSequenceError, match="header/trailer"):
            run(s, target, algorithm)
    # Identity needs neither header nor trailer.
    assert run(seq, sliding(2, 1)) == seq.core_values()


# -- the two combinations the rewriter builds on top ----------------------------------


def _recompute(wh, sql):
    return wh.query(sql, use_views=False).rows


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 12), min_size=1, max_size=4),
    target=view_windows,
    seed=st.integers(0, 10_000),
)
def test_avg_combination_and_partitioning_reduction(sizes, target, seed):
    """Single-row partitions included; both answers are checked against a
    recompute from the base table."""
    import random

    rng = random.Random(seed)
    wh = DataWarehouse()
    wh.create_table("t", [("g", "INTEGER"), ("pos", "INTEGER"), ("val", "FLOAT")])
    wh.insert("t", [
        (g, pos, rng.uniform(-50, 50))
        for g, n in enumerate(sizes) for pos in range(1, n + 1)
    ])
    frame = "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING"
    for func in ("SUM", "COUNT"):
        wh.create_view(
            f"mv_{func.lower()}",
            f"SELECT g, pos, {func}(val) OVER (PARTITION BY g ORDER BY pos "
            f"{frame}) w FROM t")

    avg = (f"SELECT g, pos, AVG(val) OVER (PARTITION BY g ORDER BY pos "
           f"{target.to_frame_sql()}) w FROM t ORDER BY g, pos")
    answered = wh.query(avg)
    assert answered.rewrite.kind == "avg_combination"
    for got, expected in zip(answered.rows, _recompute(wh, avg)):
        assert got[:2] == expected[:2] and not values_differ(got[2], expected[2])

    # Coarser partitioning: rows of all groups interleave by (pos, g).
    reduced = (f"SELECT pos, SUM(val) OVER (ORDER BY pos "
               f"{target.to_frame_sql()}) w FROM t")
    answered = wh.query(reduced)
    assert answered.rewrite.kind == "partition_reduction"
    model = sorted(
        (pos, g, val) for g, pos, val in wh.db.table("t").rows
    )
    raw = [val for _pos, _g, val in model]
    seq = CompleteSequence.from_raw(raw, target, complete=False)
    assert [row[0] for row in answered.rows] == [pos for pos, _g, _v in model]
    close([row[1] for row in answered.rows], seq.core_values())

    # DATE and TEXT ordering keys, ordered as pos is: NumPy cannot order
    # them, so the merge sorts as Python does (ties fall in group order).
    wh.create_table("d", [("g", "INTEGER"), ("day", "DATE"), ("tag", "TEXT"),
                          ("val", "FLOAT")])
    wh.insert("d", [(g, datetime.date(2020, 1, 1) + datetime.timedelta(pos // 2),
                     f"t{pos:02d}", val) for g, pos, val in wh.db.table("t").rows])
    for func in ("SUM", "COUNT"):
        wh.create_view(
            f"md_{func.lower()}",
            f"SELECT g, day, tag, {func}(val) OVER (PARTITION BY g ORDER BY day, "
            f"tag {frame}) w FROM d")
    frame_sql = target.to_frame_sql()
    for kind, sql in (
        ("avg_combination", f"SELECT g, day, tag, AVG(val) OVER (PARTITION BY g "
                            f"ORDER BY day, tag {frame_sql}) w FROM d ORDER BY g, day, tag"),
        ("partition_reduction", f"SELECT day, tag, SUM(val) OVER (ORDER BY day, "
                                f"tag {frame_sql}) w FROM d ORDER BY day, tag"),
    ):
        answered = wh.query(sql)
        assert answered.rewrite.kind == kind
        expected = _recompute(wh, sql)
        assert len(answered.rows) == len(expected)
        for got, want in zip(answered.rows, expected):
            assert got[:-1] == want[:-1] and not values_differ(got[-1], want[-1])
