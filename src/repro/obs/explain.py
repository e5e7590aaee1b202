"""EXPLAIN ANALYZE: execute a statement and render the annotated plan.

Two entry points mirror the two query front doors:

* :func:`explain_analyze_plan` — run an already-built physical plan with a
  probe on its stats block (what ``Database.explain_analyze`` uses);
* warehouse-level EXPLAIN ANALYZE lives on
  :meth:`repro.warehouse.warehouse.DataWarehouse.explain_analyze`, which
  first consults the view rewriter and renders the derivation trace
  (``view.derive`` span: MaxOA/MinOA choice) when a view answers the query.

Output format (one plan node per line, postgres-flavoured)::

    Sort(pos ASC)  (actual rows=40, time=0.210 ms)
      Project(...)  (actual rows=40, time=0.180 ms)
        WindowOperator(...)  (actual rows=40, time=0.150 ms, input=columns)
          TableScan(seq)  (actual rows=40, time=0.020 ms)
    Execution time: 0.412 ms
    Stats: scanned=40 pairs=0 ...
"""

from __future__ import annotations

import time
from typing import Any, Tuple

from repro.obs.instrument import render_annotated
from repro.relational.stats import ExecutionStats, Probe

__all__ = ["explain_analyze_plan"]


def explain_analyze_plan(db: Any, plan: Any) -> Tuple[str, Any]:
    """Execute ``plan`` measuring every node; return (rendered text, Result).

    The stats block is created here, so it is published here — once, as a
    normal query's would be.
    """
    stats = ExecutionStats()
    stats.probe = probe = Probe(plan)
    start = time.perf_counter()
    result = db.run(plan, stats)
    elapsed = time.perf_counter() - start
    db.publish(stats)
    lines = [render_annotated(plan, probe.measures)]
    lines.append(f"Execution time: {elapsed * 1000:.3f} ms")
    lines.append(f"Stats: {result.stats.summary()}")
    text = "\n".join(lines)
    return text, result
