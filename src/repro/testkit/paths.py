"""Every internal execution path as a uniform ``case -> {key: value}`` map.

Each path evaluates a :class:`~repro.testkit.generator.FuzzCase` and
returns ``{(g, pos): value}``; ``pos`` is globally unique in generated
datasets, so the key identifies a row even for unpartitioned queries.

Paths:

``naive``            explicit form, O(W) per position (§2.2)
``pipelined``        recursive form, O(1) amortised per position (§2.2)
``vectorized``       the NumPy window kernel (the one the engine runs)
``engine``           full SQL stack: parse -> plan -> WindowOperator
``engine-paged``     same, on a v4 paged store loaded behind a small
                     buffer-pool budget (out-of-core reads + spilling)
``view-maxoa``       materialized view one step *narrower*, MaxOA (§4)
``view-minoa``       materialized view one step *wider*, MinOA (§5)
``view-default``     a view answered with default options: the algorithm
                     and route every tier picks

Multi-window cases (``case.extra_windows``) run on the core and engine
paths with result keys ``(g, pos, column)``; the view paths return None
for them (the rewriter targets single reporting-function shapes).

``view-maxoa`` and ``view-minoa`` execute in ``mode="relational"`` wherever
the engine has a relational pattern (invertible aggregates, identity
matches) — the relational patterns read the view's *storage table*, so corruption injected
into storage (the ``bitflip`` fault) is visible to the differ, not just to
``verify_view``; MIN/MAX derivations and prefix tiling fall back to the
in-memory form the engine provides.  ``view-default`` passes no option,
so the SUM-family derivations run the in-memory recursive kernels unless
the lookups-per-position estimate prefers the pattern.  All three call
:func:`repro.faults.injector.verify_hook` on the freshly materialized view
first: that is the testkit's storage fault point, reusing the ``verify``
site so existing fault plans work unchanged.

A path that does not apply to a case (e.g. MinOA for MIN/MAX, whose
aggregate is not invertible) returns None and is reported as skipped, never
silently dropped.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core.aggregates import Aggregate
from repro.core.compute import compute_naive, compute_pipelined
from repro.core.vectorized import compute_vectorized
from repro.core.window import WindowSpec, cumulative, sliding
from repro.testkit.generator import FuzzCase

__all__ = ["PATHS", "DEFAULT_PATHS", "run_path", "run_paths"]

ResultMap = Dict[Tuple[object, ...], float]
PathFn = Callable[[FuzzCase], Optional[ResultMap]]


def _raw_values(rows) -> List[float]:
    """Measures of one sorted partition; NULL counts as 0 (engine semantics)."""
    return [0.0 if r[2] is None else float(r[2]) for r in rows]


def _core_path(case: FuzzCase, compute) -> ResultMap:
    """Evaluate per partition with a core kernel ``compute(raw, window, agg)``.

    Single-window cases keep the classic ``(g, pos)`` keys; multi-window
    cases key each value by ``(g, pos, column)`` so one map carries every
    OVER clause.
    """
    from repro.core.aggregates import by_name

    multi = bool(case.extra_windows)
    out: ResultMap = {}
    for _key, rows in case.partitions().items():
        raw = _raw_values(rows)
        for name, agg_name, window in case.all_windows():
            values = compute(raw, window, by_name(agg_name))
            for (g, pos, _val), value in zip(rows, values):
                key = (g, pos, name) if multi else (g, pos)
                out[key] = float(value)
    return out


def path_naive(case: FuzzCase) -> ResultMap:
    """The explicit form: every position aggregates its whole window."""
    return _core_path(case, compute_naive)


def path_pipelined(case: FuzzCase) -> ResultMap:
    """The recursive form: each value derived from its predecessor."""
    return _core_path(case, compute_pipelined)


def path_vectorized(case: FuzzCase) -> ResultMap:
    """The numpy kernels."""
    return _core_path(case, compute_vectorized)


def _engine_path(case: FuzzCase, paged: bool = False) -> ResultMap:
    """The full SQL stack against the in-process relational engine.

    With ``paged=True`` the dataset takes a detour through the v4 paged
    dump format: saved with a small page size, reloaded behind a buffer
    pool with a deliberately tiny memory budget, and queried out of core
    — results must stay bit-identical to the in-memory paths.
    """
    from repro.relational import FLOAT, INTEGER
    from repro.warehouse import DataWarehouse

    wh = DataWarehouse()
    wh.create_table("t", [("g", INTEGER), ("pos", INTEGER), ("val", FLOAT)])
    wh.insert("t", list(case.rows))
    if paged:
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            wh.save(tmp, page_size=512)
            wh = DataWarehouse.load(tmp, memory_budget_bytes=4096)
            result = wh.query(case.sql, use_views=False)
    else:
        result = wh.query(case.sql, use_views=False)
    g_i = result.schema.resolve("g")
    pos_i = result.schema.resolve("pos")
    if not case.extra_windows:
        w_i = result.schema.resolve("w")
        return {(row[g_i], row[pos_i]): float(row[w_i]) for row in result.rows}
    slots = [(name, result.schema.resolve(name)) for name in case.window_names]
    out: ResultMap = {}
    for row in result.rows:
        for name, slot in slots:
            out[(row[g_i], row[pos_i], name)] = float(row[slot])
    return out


def path_engine(case: FuzzCase) -> ResultMap:
    """The full SQL stack, serial: parse -> plan -> WindowOperator."""
    return _engine_path(case)


def path_engine_paged(case: FuzzCase) -> ResultMap:
    """The full SQL stack over a v4 paged store with a tiny buffer budget.

    Exercises the out-of-core read path end to end: page encode/decode
    with CRCs, buffer-pool fault-in and eviction, and the spilling window
    plan — all of which must be invisible in the answers.
    """
    return _engine_path(case, paged=True)


# -- view-derived paths -----------------------------------------------------


def _maxoa_source(window: WindowSpec) -> Optional[WindowSpec]:
    """A view window one step narrower than the target (MaxOA direction)."""
    if window.is_cumulative:
        return cumulative()  # identity plan; still reads view storage
    if window.l + window.h < 2:
        return None  # the narrower window would be the forbidden point window
    if window.l > 0:
        return sliding(window.l - 1, window.h)
    return sliding(window.l, window.h - 1)


def _minoa_source(window: WindowSpec, aggregate: Aggregate) -> Optional[WindowSpec]:
    """A view window one step wider than the target (MinOA direction)."""
    if aggregate.name == "AVG":
        # The AVG combination derives from SUM and COUNT views, which are
        # invertible, so the wider window still works.
        pass
    elif not aggregate.invertible:
        return None  # MIN/MAX have no subtraction — MinOA does not apply
    if window.is_cumulative:
        # Cumulative target from a sliding view: MinOA's prefix tiling.
        return sliding(1, 1)
    return sliding(window.l + 1, window.h + 1)


def _view_path(
    case: FuzzCase, source: Optional[WindowSpec], algorithm: Optional[str]
) -> Optional[ResultMap]:
    """Materialize ``source`` views over the dataset and answer the case's
    query from them: ``algorithm`` forced, on the relational route where one
    exists — or, with None, no query option at all."""
    if source is None or case.extra_windows:
        return None  # the rewriter answers single reporting-function shapes
    from repro.errors import NoRewriteError
    from repro.faults import injector
    from repro.relational import FLOAT, INTEGER
    from repro.warehouse import DataWarehouse

    wh = DataWarehouse()
    wh.create_table("t", [("g", INTEGER), ("pos", INTEGER), ("val", FLOAT)])
    # Views materialize measures as floats: normalize NULL to its documented
    # meaning (0) before the rows reach the view's base table.
    wh.insert("t", [(g, pos, 0.0 if v is None else v) for g, pos, v in case.rows])
    over = "PARTITION BY g ORDER BY pos" if case.partitioned else "ORDER BY pos"
    aggs = ("SUM", "COUNT") if case.aggregate_name == "AVG" else (case.aggregate_name,)
    for agg in aggs:
        name = f"tk_mv_{agg.lower()}"
        wh.create_view(
            name,
            f"SELECT {'g, ' if case.partitioned else ''}pos, {agg}(val) "
            f"OVER ({over} {source.to_frame_sql()}) AS w FROM t",
        )
        injector.verify_hook(wh.view(name))  # testkit storage fault point
    select = "g, pos" if case.partitioned else "pos"
    sql = (
        f"SELECT {select}, {case.aggregate_name}(val) "
        f"OVER ({over} {case.window.to_frame_sql()}) AS w FROM t"
    )
    if algorithm is None:
        options = {}
    else:
        if case.window.is_cumulative or case.aggregate_name == "AVG":
            algorithm = "auto"  # the AVG combination picks per-component plans
        options = dict(require_rewrite=True, algorithm=algorithm, mode="relational")
    try:
        result = wh.query(sql, **options)
    except NoRewriteError:
        # No relational pattern for this combination (MIN/MAX derivations,
        # prefix tiling): the in-memory form is all the engine has.
        result = wh.query(sql, **{**options, "mode": "memory"})
    if result.rewrite is None:
        raise AssertionError(f"view path answered from base data: {sql}")
    pos_i = result.schema.resolve("pos")
    w_i = result.schema.resolve("w")
    if case.partitioned:
        g_i = result.schema.resolve("g")
        return {(row[g_i], row[pos_i]): float(row[w_i]) for row in result.rows}
    # The rewritable shape may only select partition/order columns, so an
    # unpartitioned query cannot carry g along; pos is globally unique, so
    # join it back from the dataset.
    g_of = {pos: g for g, pos, _ in case.rows}
    return {(g_of[row[pos_i]], row[pos_i]): float(row[w_i]) for row in result.rows}


def path_view_maxoa(case: FuzzCase) -> Optional[ResultMap]:
    """Answer from a materialized view one step *narrower* (MaxOA, §4)."""
    return _view_path(case, _maxoa_source(case.window), "maxoa")


def path_view_minoa(case: FuzzCase) -> Optional[ResultMap]:
    """Answer from a materialized view one step *wider* (MinOA, §5)."""
    return _view_path(case, _minoa_source(case.window, case.aggregate), "minoa")


def path_view_default(case: FuzzCase) -> Optional[ResultMap]:
    """Answer from a view with default options, as served traffic does.

    The view is one the planner's own choices derive the target from: for
    the invertible aggregates a cumulative view (fig. 5, odd seeds) or one
    step wider (MinOA, prefix tiling for cumulative targets), for MIN/MAX
    one step narrower (MaxOA).
    """
    if case.window.is_sliding and case.aggregate_name not in ("MIN", "MAX") and case.seed % 2:
        return _view_path(case, cumulative(), None)
    source = _minoa_source(case.window, case.aggregate) or _maxoa_source(case.window)
    return _view_path(case, source, None)


PATHS: Dict[str, PathFn] = {
    "naive": path_naive,
    "pipelined": path_pipelined,
    "vectorized": path_vectorized,
    "engine": path_engine,
    "engine-paged": path_engine_paged,
    "view-maxoa": path_view_maxoa,
    "view-minoa": path_view_minoa,
    "view-default": path_view_default,
}

DEFAULT_PATHS = tuple(PATHS)


def run_path(name: str, case: FuzzCase) -> Optional[ResultMap]:
    """Run one named path; None means "not applicable to this case"."""
    try:
        fn = PATHS[name]
    except KeyError:
        raise ValueError(f"unknown path {name!r}; expected one of {sorted(PATHS)}") from None
    return fn(case)


def run_paths(case: FuzzCase, names=DEFAULT_PATHS) -> Dict[str, ResultMap]:
    """Run several paths; inapplicable ones are omitted from the result."""
    out: Dict[str, ResultMap] = {}
    for name in names:
        result = run_path(name, case)
        if result is not None:
            out[name] = result
    return out
