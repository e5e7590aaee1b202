"""The window operator runs one kernel per distinct partition length.

``repro_window_kernel_calls_total`` and the ``kernel_calls`` entry of the
operator's EXPLAIN ANALYZE line count NumPy kernel runs, so a query over
thousands of equal-length partitions costs what one over a single
partition of the same rows does.
"""

import re

import pytest

from repro.obs import runtime
from repro.obs.metrics import MetricsRegistry
from repro.warehouse import DataWarehouse

SQL = ("SELECT cust, day, {func}({arg}) OVER ({partition}ORDER BY day {frame}) AS w FROM tx")
SLIDING = "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING"


def _warehouse(lengths, cust_type="INTEGER"):
    wh = DataWarehouse()
    wh.create_table("tx", [("cust", cust_type), ("day", "INTEGER"), ("amt", "FLOAT")])
    cust = str if cust_type == "TEXT" else int
    wh.insert("tx", [
        (cust(c), d, float((c * 7 + d) % 11)) for c, n in enumerate(lengths) for d in range(n)
    ])
    return wh


def _kernel_calls(wh, sql):
    registry = MetricsRegistry()
    with runtime.use(registry=registry):
        wh.query(sql)
    return registry.value("repro_window_kernel_calls_total")


def _sql(func="SUM", arg="amt", partitioned=True, frame=SLIDING):
    return SQL.format(func=func, arg=arg, frame=frame,
                      partition="PARTITION BY cust " if partitioned else "")


@pytest.mark.parametrize("lengths, partitioned, calls", [
    ([5] * 2000, True, 1),
    ([100] * 100, True, 1),
    ([1, 2, 3, 3, 2, 1, 3], True, 3),
    ([10_000], False, 1),
    ([40] * 25, False, 1),  # unpartitioned: one segment of 1 000 rows
], ids=["2000x5", "100x100", "lengths-1-2-3", "one-partition", "unpartitioned"])
def test_one_kernel_call_per_partition_length(lengths, partitioned, calls):
    assert _kernel_calls(_warehouse(lengths), _sql(partitioned=partitioned)) == calls


@pytest.mark.parametrize("func, arg, frame", [
    ("SUM", "amt * 2", SLIDING),  # a computed argument
    ("COUNT", "*", SLIDING),
    ("AVG", "amt", "ROWS UNBOUNDED PRECEDING"),
    ("MAX", "amt", "ROWS BETWEEN 30 PRECEDING AND 30 FOLLOWING"),
])
def test_every_rows_frame_aggregate_is_segmented(func, arg, frame):
    wh = _warehouse([5] * 300 + [2] * 40)
    assert _kernel_calls(wh, _sql(func=func, arg=arg, frame=frame)) == 2


def test_the_row_loop_input_is_segmented_too():
    # TEXT partition keys leave NumPy's sort; the kernel still runs once
    # per length.
    wh = _warehouse([4] * 50 + [1] * 9, cust_type="TEXT")
    assert _kernel_calls(wh, _sql()) == 2


def test_a_length_class_past_a_block_runs_in_blocks(monkeypatch):
    import repro.core.vectorized as vectorized

    monkeypatch.setattr(vectorized, "BLOCK", 60)  # 12 partitions of 5 per run
    assert _kernel_calls(_warehouse([5] * 40), _sql()) == 4


def test_ranking_runs_no_kernel():
    wh = _warehouse([3] * 10)
    sql = "SELECT cust, day, RANK() OVER (PARTITION BY cust ORDER BY day) AS r FROM tx"
    assert _kernel_calls(wh, sql) == 0


def test_explain_analyze_shows_kernel_calls_beside_groups():
    text = _warehouse([5] * 200 + [7] * 3).db.explain_analyze(_sql())
    line = next(line for line in text.splitlines() if "WindowOperator" in line)
    assert re.search(r"groups=203\b", line) and re.search(r"kernel_calls=2\b", line)


def test_view_derive_span_names_its_length_classes():
    wh = _warehouse([5] * 20 + [2] * 4 + [9])
    wh.create_view("v", _sql(frame="ROWS UNBOUNDED PRECEDING"))
    text = wh.explain_analyze(_sql(frame="ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING"))
    assert re.search(r"view\.derive .*classes=3\b", text), text
