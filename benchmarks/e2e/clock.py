"""A calibration loop that turns measured times into reference-speed times.

Machine speed drifts by several percent over minutes in a shared sandbox,
and by 15-35 % for tens of seconds now and then.  A fixed loop is timed
beside every op, and each latency is scaled by what the loop took just then
against ``CALIBRATION_REF_S`` (what it takes on a quiet 2-core sandbox), so
a time reads as if the machine had run at reference speed.  Raw times are
printed beside the scaled ones.
"""

from __future__ import annotations

import json
import statistics
import time
from typing import List

CALIBRATION_REF_S = 2.2e-3
CALIBRATION_WINDOW = 5  # samples either side of an op that vote on its speed
_CALIBRATION_DOC = [i / 7.0 for i in range(1500)]


def calibration_sample() -> float:
    """Seconds one fixed mix of interpreter and JSON work takes right now."""
    started = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    json.loads(json.dumps(_CALIBRATION_DOC))
    return time.perf_counter() - started


def speed_factor(samples: List[float]) -> float:
    """Multiplier that turns a time measured beside ``samples`` into the
    time at reference speed."""
    return CALIBRATION_REF_S / statistics.median(samples)
