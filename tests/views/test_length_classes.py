"""Whole-view derivations run once per length class, bit for bit.

A partitioned view's mirror stacks its partitions of one length into one
sequence (:meth:`~repro.core.reporting.ReportingSequence.segments`), and
every whole-sequence form of :data:`repro.core.derivation._FORMS` runs over
that stack.  Each row must equal ``derive`` over its partition alone — and
must stay so after a point update, an insert and a delete, each of which
rebinds the mirror to a copy that builds its own classes.
"""

import random
import struct
from collections import Counter

import numpy as np
import pytest

import repro.core.vectorized as vectorized
from repro.core.derivation import _FORMS, derive, plan
from repro.core.window import cumulative, sliding
from repro.warehouse import DataWarehouse

# Partition lengths: four of 6, three of 1, two of 3, one of 11.
LENGTHS = {0: 6, 1: 6, 2: 1, 3: 3, 4: 6, 5: 1, 6: 11, 7: 3, 8: 6, 9: 1}

VIEWS = {
    "v_sum": ("SUM", "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING"),
    "v_cnt": ("COUNT", "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING"),
    "v_min": ("MIN", "ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING"),
    "v_max": ("MAX", "ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING"),
    "v_cum": ("SUM", "ROWS UNBOUNDED PRECEDING"),
}

# Per view, (target, algorithm) pairs covering every form each view allows.
TARGETS = {
    "v_sum": [(sliding(2, 1), "auto"), (sliding(3, 2), "maxoa"), (sliding(1, 3), "minoa"),
              (sliding(0, 0, allow_point=True), "auto"), (cumulative(), "auto")],
    "v_cnt": [(sliding(2, 1), "auto"), (sliding(4, 3), "maxoa"), (sliding(0, 1), "minoa"),
              (sliding(0, 0, allow_point=True), "auto"), (cumulative(), "auto")],
    "v_min": [(sliding(1, 1), "auto"), (sliding(2, 3), "maxoa")],
    "v_max": [(sliding(1, 1), "auto"), (sliding(3, 2), "maxoa")],
    "v_cum": [(cumulative(), "auto"), (sliding(3, 3), "auto"),
              (sliding(0, 0, allow_point=True), "auto")],
}


def bits(values):
    return b"".join(struct.pack("<d", v) for v in np.asarray(values, dtype=float).ravel().tolist())


@pytest.fixture
def wh():
    rng = random.Random(11)
    wh = DataWarehouse()
    wh.create_table("tx", [("cust", "INTEGER"), ("day", "INTEGER"), ("amt", "FLOAT")])
    wh.insert("tx", [
        (cust, 10 * day, rng.choice([-0.0, 0.1, 1e16, -3.5, round(rng.uniform(-9, 9), 3)]))
        for cust, n in LENGTHS.items() for day in range(1, n + 1)
    ])
    for name, (func, frame) in VIEWS.items():
        wh.create_view(name, f"SELECT cust, day, {func}(amt) OVER "
                             f"(PARTITION BY cust ORDER BY day {frame}) AS w FROM tx")
    return wh


def _algorithm_runs(wh):
    """Every view's classes against per-partition ``derive``; returns the
    forms that ran."""
    ran = set()
    for name, targets in TARGETS.items():
        reporting = wh.view(name).reporting
        segments = reporting.segments()
        per_length = Counter()
        for cls_ in segments.classes:
            per_length[cls_.seq.n] += len(cls_.keys)
        assert per_length == Counter(part.seq.n for part in reporting.partitions.values())
        for target, algorithm in targets:
            for cls_ in segments.classes:
                stacked = derive(cls_.seq, target, algorithm=algorithm)
                assert stacked.shape == (len(cls_.keys), cls_.seq.n)
                for key, row in zip(cls_.keys, stacked):
                    alone = derive(reporting.partition(key).seq, target, algorithm=algorithm)
                    assert bits(row) == bits(alone), (name, target, algorithm, key)
            ran.add(plan(reporting.window, target, algorithm=algorithm,
                         minmax=reporting.aggregate.duplicate_insensitive).algorithm)
    return ran


def _answers_match_partitions(wh):
    """A query's answer is every partition's own derivation, in partition
    order, for a class layout of mixed lengths."""
    result = wh.query("SELECT cust, day, SUM(amt) OVER (PARTITION BY cust ORDER BY day "
                      "ROWS BETWEEN 3 PRECEDING AND 2 FOLLOWING) AS w FROM tx")
    reporting = wh.view(result.rewrite.view).reporting
    want = np.concatenate([
        derive(part.seq, sliding(3, 2), algorithm=result.rewrite.algorithm)
        for part in reporting.partitions.values()
    ])
    assert bits([row[2] for row in result.rows]) == bits(want)
    assert [row[:2] for row in result.rows] == [
        (key[0],) + okey for key, part in reporting.partitions.items() for okey in part.order_keys
    ]


def test_every_form_runs_per_class_and_matches_each_partition(wh):
    assert _algorithm_runs(wh) == set(_FORMS)
    _answers_match_partitions(wh)


def test_a_class_larger_than_a_block_is_stacked_in_blocks(wh, monkeypatch):
    # Four partitions of 6 rows at a block of 12 values: two stacks of two.
    monkeypatch.setattr(vectorized, "BLOCK", 12)
    wh.refresh_view("v_sum")
    classes = wh.view("v_sum").reporting.segments().classes
    assert [(c.seq.n, len(c.keys)) for c in classes if c.seq.n == 6] == [(6, 2), (6, 2)]
    assert _algorithm_runs(wh) == set(_FORMS)
    _answers_match_partitions(wh)


def test_no_class_is_stale_after_writes(wh):
    before = {name: wh.view(name).reporting.segments() for name in VIEWS}
    writes = [
        lambda: wh.update_measure("tx", keys={"cust": 3, "day": 20}, value_col="amt",
                                  new_value=-0.0),
        lambda: wh.insert_row("tx", [2, 15, 2.5]),  # length 1 -> 2: a new class
        lambda: wh.delete_row("tx", keys={"cust": 6, "day": 110}),  # 11 -> 10
    ]
    for write in writes:
        write()
        for name in VIEWS:
            segments = wh.view(name).reporting.segments()
            assert segments is not before[name]
            before[name] = segments
        assert _algorithm_runs(wh) == set(_FORMS)
        _answers_match_partitions(wh)
    lengths = {key[0]: int(n) for key, n in zip(before["v_sum"].keys, before["v_sum"].lengths)}
    assert lengths[2] == 2 and lengths[6] == 10
