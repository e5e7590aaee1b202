"""The segmented window kernel against one kernel call per segment.

``compute_vectorized(raw, window, aggregate, offsets)`` runs every segment
of one length as a row of one 2-D array.  Each row repeats the 1-D
operation sequence, so every segment's answer must carry the bits a call
over that segment alone gives — NaN payloads, infinities, signed zeros and
subnormals included.  The reference loop lives here, not in the library.
"""

import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.aggregates import AVG, COUNT, MAX, MIN, SUM
import repro.core.vectorized as vectorized
from repro.core.vectorized import compute_vectorized, length_classes
from repro.core.window import cumulative, sliding

AGGREGATES = (SUM, AVG, COUNT, MIN, MAX)

values = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0,
                     5e-324, -2.2250738585072014e-308, 1e300, -1e300]),
    st.floats(min_value=-1e3, max_value=1e3),
    st.integers(min_value=-5, max_value=5).map(float),
)


def _equal(count, size):
    return [size] * count


sizes = st.one_of(
    st.lists(st.just(1), min_size=1, max_size=40),  # every partition one row
    st.builds(_equal, st.integers(1, 20), st.integers(1, 12)),  # all equal
    st.builds(  # one large plus many tiny
        lambda large, tiny: [large] + tiny,
        st.integers(20, 80), st.lists(st.integers(1, 3), min_size=1, max_size=30),
    ).flatmap(st.permutations),
    st.integers(1, 60).map(lambda n: [n]),  # one segment
    st.lists(st.integers(1, 9), min_size=1, max_size=25),
)

frames = st.one_of(
    st.just(cumulative()),
    st.just(sliding(0, 0, allow_point=True)),
    st.tuples(st.integers(0, 100), st.integers(0, 100))
    .filter(lambda lh: sum(lh) > 0)
    .map(lambda lh: sliding(*lh)),
)


def bits(array):
    return b"".join(struct.pack("<d", v) for v in np.asarray(array).tolist())


def per_segment(raw, window, aggregate, lengths):
    """The reference: one single-segment kernel call per segment."""
    out, start = [], 0
    for length in lengths:
        out.append(compute_vectorized(raw[start:start + length].copy(), window, aggregate))
        start += length
    return np.concatenate(out)


@settings(max_examples=200, deadline=None)
@given(lengths=sizes, frame=frames, data=st.data())
@example(lengths=[1, 1, 1], frame=sliding(2, 2), data=None)
@example(lengths=[3, 3], frame=cumulative(), data=None)
def test_segmented_kernel_is_bit_identical_to_a_call_per_segment(lengths, frame, data):
    n = sum(lengths)
    if data is None:
        raw = np.resize([-0.0, float("nan"), 5e-324, 1.0, -float("inf"), 0.0], n)
    else:
        raw = np.array(data.draw(st.lists(values, min_size=n, max_size=n)))
    offsets = np.cumsum([0] + lengths[:-1])
    # The same sequence read through an order, as the window operator
    # reads its unsorted input.
    order = np.random.default_rng(n).permutation(n)
    unsorted = np.empty(n)
    unsorted[order] = raw
    for aggregate in AGGREGATES:
        with np.errstate(invalid="ignore", over="ignore"):
            got = compute_vectorized(raw, frame, aggregate, offsets)
            through = compute_vectorized(unsorted, frame, aggregate, offsets, order)
            want = per_segment(raw, frame, aggregate, lengths)
        assert got.shape == through.shape == (n,)
        assert bits(got) == bits(want), (aggregate.name, frame, lengths)
        assert bits(through[order]) == bits(want), (aggregate.name, frame, lengths)


def test_length_classes_group_segments_by_exact_length():
    classes = length_classes(np.array([0, 2, 3, 5, 6]), 9)
    assert [(length, starts.tolist()) for length, starts in classes] == [
        (1, [2, 5]), (2, [0, 3]), (3, [6]),
    ]


def test_one_segment_is_the_unsegmented_call():
    raw = np.array([1.5, -0.0, 2.25, 7.0])
    for offsets in (None, np.array([0])):
        assert bits(compute_vectorized(raw, sliding(1, 1), SUM, offsets)) == bits(
            compute_vectorized(raw, sliding(1, 1), SUM))


def test_a_class_larger_than_a_block_runs_in_blocks(monkeypatch):
    monkeypatch.setattr(vectorized, "BLOCK", 12)
    lengths = [5] * 7 + [2] * 3 + [30]
    raw = np.resize([0.25, -0.0, 3.5, float("nan"), -1.0, 1e16], sum(lengths))
    offsets = np.cumsum([0] + lengths[:-1])
    runs = length_classes(offsets, len(raw))
    assert [(length, len(starts)) for length, starts in runs] == [
        (2, 3), (5, 2), (5, 2), (5, 2), (5, 1), (30, 1)]
    for aggregate in AGGREGATES:
        with np.errstate(invalid="ignore"):
            got = compute_vectorized(raw, sliding(2, 1), aggregate, offsets)
            want = per_segment(raw, sliding(2, 1), aggregate, lengths)
        assert bits(got) == bits(want), aggregate.name
