"""The window kernel against the scalar recurrence it vectorises.

``compute_vectorized`` is the one kernel the engine runs;
``compute_pipelined`` is section 2.2's recurrence written out as a scalar
loop.  The kernel performs the recurrence's additions in the recurrence's
order (and comparisons only for MIN/MAX), so the two agree *bit for bit* —
which is what lets the planner run it for every frame and aggregate without
a choice to make.  Signed zeros are the one exception (``0.0 + -0.0``
against a cumulative sum that starts at ``-0.0``) and are folded together
before comparing.
"""

import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.columns import Column
from repro.core.aggregates import AVG, COUNT, MAX, MIN, SUM
from repro.core.compute import compute_pipelined
from repro.core.vectorized import compute_vectorized
from repro.core.window import cumulative, sliding

AGGREGATES = (SUM, AVG, COUNT, MIN, MAX)

# Far enough from the float64 limit that no running sum overflows.
measures = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.integers(min_value=-50, max_value=50).map(float),
)


def bits(values):
    return [struct.pack("<d", v + 0.0) for v in values]


def assert_bit_identical(raw, window):
    for aggregate in AGGREGATES:
        got = compute_vectorized(raw, window, aggregate)
        want = compute_pipelined(raw, window, aggregate)
        assert bits(got) == bits(want), (aggregate.name, window, got, want)


@settings(max_examples=300, deadline=None)
@given(
    raw=st.lists(measures, min_size=1, max_size=80),
    l=st.integers(min_value=0, max_value=90),
    h=st.integers(min_value=0, max_value=90),
)
@example(raw=[0.1], l=1, h=1)  # n = 1
@example(raw=[0.1, 0.2, 0.3], l=5, h=7)  # n < w
@example(raw=[0.1, 0.2, 0.3, 0.4], l=0, h=2)
@example(raw=[0.1, 0.2, 0.3, 0.4], l=2, h=0)
@example(raw=[-0.0, 0.0, -0.0], l=1, h=0)
@example(raw=[1e16, 1.0, -1e16, 1.0, 1.0], l=1, h=1)  # where order shows
@example(raw=[0.1] * 10, l=0, h=9)  # builtin sum() seeds 1.0 from CPython 3.12
def test_sliding_frames_bit_identical(raw, l, h):
    assert_bit_identical(raw, sliding(l, h, allow_point=True))


@settings(max_examples=150, deadline=None)
@given(raw=st.lists(measures, min_size=1, max_size=80))
def test_cumulative_frames_bit_identical(raw):
    assert_bit_identical(raw, cumulative())


@pytest.mark.parametrize("width", [3, 31, 301, 3001])
def test_widths_bit_identical(width):
    rng = random.Random(width)
    half = width // 2
    for n in (1, half, width - 1, width, 2 * width + 5):
        raw = [rng.uniform(-1e6, 1e6) * 10.0 ** rng.randint(-9, 9) for _ in range(n)]
        assert_bit_identical(raw, sliding(half, half))
        assert_bit_identical(raw, sliding(width - 1, 0))
        assert_bit_identical(raw, sliding(0, width - 1))


@settings(max_examples=100, deadline=None)
@given(
    cells=st.lists(st.one_of(st.none(), measures), min_size=1, max_size=40),
    l=st.integers(min_value=0, max_value=6),
    h=st.integers(min_value=0, max_value=6),
)
def test_column_input_reads_null_as_zero(cells, l, h):
    column = Column.from_values(cells, "float64")
    filled = [0.0 if v is None else v for v in cells]
    for window in (sliding(l, h, allow_point=True), cumulative()):
        assert_bit_identical(column, window)
        for aggregate in AGGREGATES:
            assert bits(compute_vectorized(column, window, aggregate)) == bits(
                compute_vectorized(filled, window, aggregate)
            )
