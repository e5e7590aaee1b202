"""Property-based tests for the core sequence algebra.

Strategy: generate arbitrary raw data and window shapes, then check that
every implemented path — computation strategies, derivation algorithms in
both forms, reconstruction, maintenance — agrees with the brute-force
definition (or with full recomputation).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import maintenance, maxoa, minoa
from repro.core.aggregates import MAX, MIN, SUM
from repro.core.complete import CompleteSequence
from repro.core.compute import compute_naive, compute_pipelined
from repro.core.derivation import derive, prefix_up_to
from repro.core.reconstruct import raw_from_cumulative, raw_from_sliding
from repro.core.window import WindowSpec, cumulative, sliding
from tests.conftest import assert_close, brute_window

values = st.lists(
    st.floats(min_value=-1000, max_value=1000, allow_nan=False, width=32),
    min_size=0,
    max_size=60,
)
nonempty_values = st.lists(
    st.floats(min_value=-1000, max_value=1000, allow_nan=False, width=32),
    min_size=1,
    max_size=60,
)
bounds = st.integers(min_value=0, max_value=6)


def window_strategy():
    return st.tuples(bounds, bounds).filter(lambda lh: sum(lh) > 0).map(
        lambda lh: sliding(*lh)
    )


@settings(max_examples=120, deadline=None)
@given(raw=nonempty_values, window=window_strategy())
def test_pipelined_equals_naive(raw, window):
    assert_close(compute_pipelined(raw, window), compute_naive(raw, window))


@settings(max_examples=120, deadline=None)
@given(raw=nonempty_values, window=window_strategy(), agg=st.sampled_from([MIN, MAX]))
def test_minmax_deque_equals_naive(raw, window, agg):
    assert compute_pipelined(raw, window, agg) == compute_naive(raw, window, agg)


@settings(max_examples=120, deadline=None)
@given(raw=values, window=window_strategy())
def test_raw_reconstruction_roundtrip(raw, window):
    seq = CompleteSequence.from_raw(raw, window)
    for form in ("explicit", "recursive"):
        assert_close(raw_from_sliding(seq, form=form), raw, tol=1e-5)


@settings(max_examples=60, deadline=None)
@given(raw=values)
def test_cumulative_roundtrip(raw):
    seq = CompleteSequence.from_raw(raw, cumulative())
    assert_close(raw_from_cumulative(seq), raw, tol=1e-5)


@settings(max_examples=200, deadline=None)
@given(raw=values, view=window_strategy(), target=window_strategy(),
       form=st.sampled_from(["explicit", "recursive"]))
def test_minoa_always_derives(raw, view, target, form):
    seq = CompleteSequence.from_raw(raw, view)
    got = minoa.derive(seq, target, form=form)
    assert_close(got, brute_window(raw, target), tol=1e-5)


@settings(max_examples=200, deadline=None)
@given(raw=values, view=window_strategy(), dl=bounds, dh=bounds,
       form=st.sampled_from(["explicit", "recursive"]))
def test_maxoa_derives_within_preconditions(raw, view, dl, dh, form):
    wx = view.width
    dl, dh = min(dl, wx), min(dh, wx)
    target = sliding(view.l + dl, view.h + dh, allow_point=True)
    if target.is_point:
        return
    seq = CompleteSequence.from_raw(raw, view)
    got = maxoa.derive(seq, target, form=form)
    assert_close(got, brute_window(raw, target), tol=1e-5)


@settings(max_examples=100, deadline=None)
@given(raw=values, view=window_strategy(), dl=bounds, dh=bounds,
       agg=st.sampled_from([MIN, MAX]))
def test_maxoa_minmax(raw, view, dl, dh, agg):
    wx = view.width
    dl, dh = min(dl, wx), min(dh, wx)
    target = sliding(view.l + dl, view.h + dh, allow_point=True)
    if target.is_point:
        return
    seq = CompleteSequence.from_raw(raw, view, agg)
    got = maxoa.derive(seq, target)
    assert got == brute_window(raw, target, agg)


@settings(max_examples=80, deadline=None)
@given(raw=values, view=window_strategy(),
       target=st.one_of(st.just(cumulative()), st.just(WindowSpec.point())))
def test_derive_facade_special_targets(raw, view, target):
    seq = CompleteSequence.from_raw(raw, view)
    assert_close(derive(seq, target), brute_window(raw, target), tol=1e-5)


@settings(max_examples=80, deadline=None)
@given(raw=values, view=window_strategy(), j=st.integers(min_value=-5, max_value=70))
def test_prefix_up_to(raw, view, j):
    seq = CompleteSequence.from_raw(raw, view)
    expected = sum(raw[: max(j, 0)])
    assert abs(prefix_up_to(seq, j) - expected) <= 1e-5 * max(1.0, abs(expected))


operations = st.lists(
    st.tuples(st.sampled_from(["update", "insert", "delete"]),
              st.integers(min_value=0, max_value=1000),
              st.floats(min_value=-100, max_value=100, allow_nan=False, width=32)),
    min_size=1,
    max_size=12,
)


@settings(max_examples=100, deadline=None)
@given(raw=nonempty_values, window=window_strategy(), ops=operations,
       agg=st.sampled_from([SUM, MIN, MAX]))
def test_maintenance_stream_equals_recompute(raw, window, ops, agg):
    raw = list(raw)
    seq = CompleteSequence.from_raw(raw, window, agg)
    for op, pos_seed, value in ops:
        if op == "insert":
            k = pos_seed % (len(raw) + 1) + 1
            maintenance.apply_insert(raw, seq, k, value)
        elif not raw:
            continue
        elif op == "update":
            maintenance.apply_update(raw, seq, pos_seed % len(raw) + 1, value)
        else:
            maintenance.apply_delete(raw, seq, pos_seed % len(raw) + 1)
    ref = CompleteSequence.from_raw(raw, window, agg)
    assert_close(seq.to_list(), ref.to_list(), tol=1e-4)


@settings(max_examples=60, deadline=None)
@given(raw=nonempty_values, ops=operations)
def test_cumulative_maintenance(raw, ops):
    raw = list(raw)
    seq = CompleteSequence.from_raw(raw, cumulative())
    for op, pos_seed, value in ops:
        if op == "insert":
            maintenance.apply_insert(raw, seq, pos_seed % (len(raw) + 1) + 1, value)
        elif not raw:
            continue
        elif op == "update":
            maintenance.apply_update(raw, seq, pos_seed % len(raw) + 1, value)
        else:
            maintenance.apply_delete(raw, seq, pos_seed % len(raw) + 1)
    ref = CompleteSequence.from_raw(raw, cumulative())
    assert_close(seq.to_list(), ref.to_list(), tol=1e-4)


@settings(max_examples=60, deadline=None)
@given(raw=nonempty_values, window=window_strategy())
def test_vectorized_equals_pipelined(raw, window):
    from repro.core.vectorized import compute_vectorized

    assert_close(
        compute_vectorized(raw, window),
        compute_pipelined(raw, window),
        tol=1e-5,
    )
