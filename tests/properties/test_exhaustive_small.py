"""Exhaustive verification on small instances (exact integer arithmetic).

Property tests sample the space; these tests *enumerate* it: every window
pair with bounds <= 3 over integer-valued sequences of length <= 8.  With
integer data, float arithmetic is exact, so results are compared with
``==`` — any off-by-one in a bound or shift fails loudly rather than
hiding in a tolerance.
"""

import itertools

import pytest

from repro.core import maintenance, maxoa, minoa
from repro.core.complete import CompleteSequence
from repro.core.compute import compute_naive, compute_pipelined
from repro.core.reconstruct import raw_from_sliding
from repro.core.window import WindowSpec, sliding
from repro.errors import SequenceError
from tests.conftest import brute_window, derive_each

BOUND = 3
WINDOWS = [
    sliding(l, h)
    for l in range(BOUND + 1)
    for h in range(BOUND + 1)
    if l + h > 0
]


def small_sequences():
    """A deterministic battery of small integer sequences."""
    yield []
    yield [5.0]
    yield [1.0, -1.0]
    for n in (3, 5, 8):
        yield [float((i * 7 + 3) % 11 - 5) for i in range(n)]
        yield [float(i + 1) for i in range(n)]
        yield [0.0] * n


class TestExhaustiveComputation:
    def test_all_windows_all_sequences(self):
        for raw in small_sequences():
            for window in WINDOWS:
                if not raw:
                    # The shared empty-input contract: every strategy raises.
                    with pytest.raises(SequenceError):
                        compute_naive(raw, window)
                    with pytest.raises(SequenceError):
                        compute_pipelined(raw, window)
                    continue
                expected = brute_window(raw, window)
                assert compute_naive(raw, window) == expected, (raw, str(window))
                assert compute_pipelined(raw, window) == expected, (raw, str(window))


class TestExhaustiveReconstruction:
    def test_all_views(self):
        for raw in small_sequences():
            for window in WINDOWS:
                seq = CompleteSequence.from_raw(raw, window)
                assert raw_from_sliding(seq).tolist() == raw, (raw, str(window))
                assert derive_each(seq, WindowSpec.point()) == raw, (raw, str(window))


class TestExhaustiveMinOA:
    def test_every_window_pair(self):
        raw = [float((i * 7 + 3) % 11 - 5) for i in range(8)]
        for view in WINDOWS:
            seq = CompleteSequence.from_raw(raw, view)
            for target in WINDOWS:
                expected = brute_window(raw, target)
                got = minoa.derive(seq, target).tolist()
                assert got == expected, (str(view), str(target))
                explicit = [minoa.derive_at(seq, target, k) for k in range(1, 9)]
                assert explicit == expected, (str(view), str(target))


class TestExhaustiveMaxOA:
    def test_every_valid_window_pair(self):
        raw = [float((i * 5 + 2) % 13 - 6) for i in range(8)]
        for view in WINDOWS:
            seq = CompleteSequence.from_raw(raw, view)
            wx = view.width
            for target in WINDOWS:
                dl, dh = target.l - view.l, target.h - view.h
                if not (0 <= dl <= wx and 0 <= dh <= wx):
                    continue
                expected = brute_window(raw, target)
                got = maxoa.derive(seq, target).tolist()
                assert got == expected, (str(view), str(target))
                explicit = [maxoa.derive_at(seq, target, k) for k in range(1, 9)]
                assert explicit == expected, (str(view), str(target))


class TestExhaustiveMaintenance:
    def test_every_position_every_operation(self):
        base = [float((i * 3 + 1) % 7) for i in range(6)]
        for window in WINDOWS:
            n = len(base)
            for k in range(1, n + 1):
                # update
                raw = list(base)
                seq = CompleteSequence.from_raw(raw, window)
                maintenance.apply_update(raw, seq, k, 9.0)
                assert seq.to_list() == CompleteSequence.from_raw(raw, window).to_list(), (
                    "update", str(window), k)
                # delete
                raw = list(base)
                seq = CompleteSequence.from_raw(raw, window)
                maintenance.apply_delete(raw, seq, k)
                assert seq.to_list() == CompleteSequence.from_raw(raw, window).to_list(), (
                    "delete", str(window), k)
            for k in range(1, n + 2):
                raw = list(base)
                seq = CompleteSequence.from_raw(raw, window)
                maintenance.apply_insert(raw, seq, k, -4.0)
                assert seq.to_list() == CompleteSequence.from_raw(raw, window).to_list(), (
                    "insert", str(window), k)
