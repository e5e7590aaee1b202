"""Shared test helpers: brute-force reference implementations.

Every algorithmic test in this suite compares against `brute_window`, a
direct transliteration of the paper's definition: the sequence value at
position k aggregates the raw values in the (clipped) window.  It is slow
and obviously correct — the whole library must agree with it.
"""

from __future__ import annotations

import random
from typing import List, Sequence

import pytest

from repro.core.aggregates import AVG, COUNT, MAX, MIN, SUM, Aggregate
from repro.core.window import WindowSpec

try:  # hypothesis is an optional test dependency
    from hypothesis import settings as _hyp_settings

    # Deterministic property testing: the same run always explores the same
    # examples, and a failure prints a replayable @reproduce_failure blob.
    _hyp_settings.register_profile("deterministic", derandomize=True, print_blob=True)
    _hyp_settings.load_profile("deterministic")
except ImportError:
    pass


def brute_window(
    raw: Sequence[float], window: WindowSpec, aggregate: Aggregate = SUM
) -> List[float]:
    """Reference evaluation of a sequence over raw data (paper section 2.1)."""
    n = len(raw)
    out = []
    for k in range(1, n + 1):
        lo, hi = window.bounds(k)
        values = [raw[i - 1] for i in range(max(lo, 1), min(hi, n) + 1)]
        if aggregate is SUM:
            out.append(float(sum(values)))
        elif aggregate is COUNT:
            out.append(float(len(values)))
        elif aggregate is AVG:
            out.append(sum(values) / len(values) if values else 0.0)
        elif aggregate is MIN:
            out.append(min(values) if values else 0.0)
        elif aggregate is MAX:
            out.append(max(values) if values else 0.0)
        else:  # pragma: no cover
            raise AssertionError(aggregate)
    return out


def assert_close(got: Sequence[float], expected: Sequence[float], tol: float = 1e-7) -> None:
    assert len(got) == len(expected), f"length {len(got)} != {len(expected)}"
    for i, (a, b) in enumerate(zip(got, expected)):
        assert abs(a - b) <= tol * max(1.0, abs(b)), (
            f"position {i + 1}: {a} != {b} (diff {a - b})"
        )


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def raw40(rng) -> List[float]:
    """Forty pseudo-random raw values (mixed signs, two decimals)."""
    return [round(rng.uniform(-50.0, 100.0), 2) for _ in range(40)]


def derive_each(seq, target: WindowSpec, *, algorithm: str = "auto") -> List[float]:
    """The explicit form of a derivation at every position ``1..n``: one
    :func:`repro.core.derivation.derive_at` call per position."""
    from repro.core.derivation import derive_at

    return [derive_at(seq, target, k, algorithm=algorithm) for k in range(1, seq.n + 1)]
