"""Property-based tests for the core sequence algebra.

Strategy: generate arbitrary raw data and window shapes, then check that
every implemented path — computation strategies, derivation algorithms in
both forms, reconstruction, maintenance — agrees with the brute-force
definition (or with full recomputation).
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import maintenance, maxoa, minoa
from repro.core.aggregates import ALL_AGGREGATES, MAX, MIN, SUM
from repro.core.complete import CompleteSequence
from repro.core.compute import compute_naive, compute_pipelined
from repro.core.derivation import derive, prefix_up_to
from repro.core.reconstruct import raw_from_cumulative, raw_from_sliding
from repro.core.sequence import SequenceSpec
from repro.core.window import WindowSpec, cumulative, sliding
from tests.conftest import assert_close, brute_window, derive_each

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
    assert_close(raw_from_sliding(seq), raw, tol=1e-5)
    assert_close(derive_each(seq, WindowSpec.point()), raw, tol=1e-5)


@settings(max_examples=60, deadline=None)
@given(raw=values)
def test_cumulative_roundtrip(raw):
    seq = CompleteSequence.from_raw(raw, cumulative())
    assert_close(raw_from_cumulative(seq), raw, tol=1e-5)


@settings(max_examples=200, deadline=None)
@given(raw=values, view=window_strategy(), target=window_strategy())
def test_minoa_always_derives(raw, view, target):
    seq = CompleteSequence.from_raw(raw, view)
    expected = brute_window(raw, target)
    assert_close(minoa.derive(seq, target), expected, tol=1e-5)
    explicit = [minoa.derive_at(seq, target, k) for k in range(1, seq.n + 1)]
    assert_close(explicit, expected, tol=1e-5)


@settings(max_examples=200, deadline=None)
@given(raw=values, view=window_strategy(), dl=bounds, dh=bounds)
def test_maxoa_derives_within_preconditions(raw, view, dl, dh):
    wx = view.width
    dl, dh = min(dl, wx), min(dh, wx)
    target = sliding(view.l + dl, view.h + dh, allow_point=True)
    if target.is_point:
        return
    seq = CompleteSequence.from_raw(raw, view)
    expected = brute_window(raw, target)
    assert_close(maxoa.derive(seq, target), expected, tol=1e-5)
    explicit = [maxoa.derive_at(seq, target, k) for k in range(1, seq.n + 1)]
    assert_close(explicit, expected, tol=1e-5)


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
    assert got.tolist() == brute_window(raw, target, agg)


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


def packed(values):
    return b"".join(struct.pack("<d", v) for v in values)


def run_stream(raw, seq, ops):
    for op, pos_seed, value in ops:
        if op == "insert":
            maintenance.apply_insert(raw, seq, pos_seed % (len(raw) + 1) + 1, value)
        elif not raw:
            continue
        elif op == "update":
            maintenance.apply_update(raw, seq, pos_seed % len(raw) + 1, value)
        else:
            maintenance.apply_delete(raw, seq, pos_seed % len(raw) + 1)


@settings(max_examples=150, deadline=None)
@given(raw=nonempty_values, window=window_strategy(), ops=operations,
       agg=st.sampled_from(ALL_AGGREGATES), complete=st.booleans())
def test_maintenance_stream_equals_recompute(raw, window, ops, agg, complete):
    raw = list(raw)
    seq = CompleteSequence.from_raw(raw, window, agg, complete=complete)
    run_stream(raw, seq, ops)
    ref = CompleteSequence.from_raw(raw, window, agg, complete=complete)
    assert packed(seq.to_list()) == packed(ref.to_list())


@settings(max_examples=100, deadline=None)
@given(raw=nonempty_values, ops=operations, agg=st.sampled_from(ALL_AGGREGATES),
       complete=st.booleans())
def test_cumulative_maintenance(raw, ops, agg, complete):
    raw = list(raw)
    seq = CompleteSequence.from_raw(raw, cumulative(), agg, complete=complete)
    run_stream(raw, seq, ops)
    ref = CompleteSequence.from_raw(raw, cumulative(), agg, complete=complete)
    assert packed(seq.to_list()) == packed(ref.to_list())


# Finite members mixed with the ones sums and min()/max() treat specially.
nan_values = st.lists(
    st.one_of(st.sampled_from([float("nan"), 0.0, -0.0, float("inf")]),
              st.floats(min_value=-1000, max_value=1000, width=32)),
    min_size=0,
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(raw=st.one_of(values, nan_values),
       window=st.one_of(window_strategy(), st.just(cumulative())),
       agg=st.sampled_from(ALL_AGGREGATES), lo=st.integers(-8, 3), extra=st.integers(-4, 8))
def test_values_is_value_at_bit_for_bit(raw, window, agg, lo, extra):
    """The vectorized evaluator, header and trailer included, against the
    scalar explicit form position by position — NaN, infinite and
    signed-zero members too: a window's first NaN propagates through
    MIN/MAX as through a sum."""
    spec = SequenceSpec(window, agg)
    hi = len(raw) + extra
    want = [spec.value_at(raw, k) for k in range(lo, hi + 1)]
    assert packed(spec.values(raw, lo, hi).tolist()) == packed(want)


@settings(max_examples=100, deadline=None)
@given(raw=nan_values.filter(bool), window=st.one_of(window_strategy(), st.just(cumulative())),
       agg=st.sampled_from([MIN, MAX]))
def test_nan_windows_match_the_window_kernel(raw, window, agg):
    """A view's MIN/MAX is NaN exactly where the native kernel's is."""
    from repro.core.vectorized import compute_vectorized

    stored = SequenceSpec(window, agg).values(raw, 1, len(raw)).tolist()
    assert stored == pytest.approx(compute_vectorized(raw, window, agg), nan_ok=True)


@settings(max_examples=60, deadline=None)
@given(raw=nonempty_values, window=window_strategy())
def test_vectorized_equals_pipelined(raw, window):
    from repro.core.vectorized import compute_vectorized

    assert_close(
        compute_vectorized(raw, window),
        compute_pipelined(raw, window),
        tol=1e-5,
    )
