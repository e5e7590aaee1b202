"""Query rewriting against materialized reporting-function views.

Given a parsed reporting-function query and the warehouse's registered
views, :func:`plan_rewrite` makes the one rewrite decision — (1) asks the
matcher for candidate views and takes the cheapest (a matching view
always answers, in every tier), (2) picks the derivation algorithm and
(3) the route:

* **relational**: the fig. 10 / fig. 13 operator patterns against the
  view's storage table (the route the paper's evaluation measures),
  available for SUM/COUNT views; or
* **memory**: the explicit/recursive derivation forms over the view's
  in-memory mirror — needed for MIN/MAX, prefix derivations and the
  section-6 reductions.

``mode="auto"`` decides by estimate: the relational pattern only when
the storage rows it reads per output position do not exceed the sequence
values the recursive in-memory form reads.  An identity match — a linear
scan of the storage table — stays relational; a pattern that chains
``n/Wx`` lookups per position runs only on sequences a few view windows
long.  A pattern is built at plan time, which is how the corner cases it
cannot express (e.g. the MinOA residue collision) are found.  The
resulting :class:`RewritePlan` is what :func:`try_rewrite` runs and what
warehouse ``EXPLAIN`` prints, so the two cannot disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.columns import Column as DataColumn
from repro.columns import ColumnRows, kind_for_type, sort_order
from repro.core import derivation as core_derivation
from repro.core import reporting as core_reporting
from repro.core.window import WindowSpec
from repro.errors import DerivationError, NoRewriteError
from repro.relational.engine import Database, Result
from repro.relational.expr import ColumnRef
from repro.relational.operators import Operator, plain_column_indexes
from repro.relational.schema import Column, Schema
from repro.relational.stats import ExecutionStats
from repro.relational.types import FLOAT
from repro.sql.ast_nodes import SelectStmt, WindowCall
from repro.sql.options import QueryOptions
from repro.sql.patterns import (
    maxoa_pattern,
    minoa_pattern,
    raw_from_cumulative_pattern,
    sliding_from_cumulative_pattern,
)
from repro.views.matcher import Match, QueryShape, rank_matches
from repro.views.materialized import MaterializedSequenceView

__all__ = [
    "RewriteInfo",
    "RewritePlan",
    "plan_rewrite",
    "try_rewrite",
]

Key = Tuple[object, ...]
# One partition of an answer: its key, one column per ordering column and
# the derived values (float64), one entry per output position.
Piece = Tuple[Key, Sequence[DataColumn], np.ndarray]


@dataclass(frozen=True)
class RewriteInfo:
    """Record of a planned rewrite (surfaced by warehouse EXPLAIN)."""

    view: str
    kind: str
    algorithm: str
    mode: str
    variant: Optional[str]
    description: str
    # Why ``mode``: estimated lookups per output position on either route
    # (None for reductions and the AVG combination, which have no choice).
    est_relational: Optional[float] = None
    est_memory: Optional[float] = None

    def render(self) -> str:
        """The ``REWRITE using view ...`` line of warehouse EXPLAIN."""
        estimates = ""
        if self.est_relational is not None:
            estimates = (
                f" (lookups/position: relational {self.est_relational:.1f}, "
                f"memory {self.est_memory:.1f})"
            )
        return (
            f"REWRITE using view {self.view!r} [{self.kind}, "
            f"{self.algorithm}, {self.mode}"
            + (f", {self.variant}" if self.variant else "")
            + f"]{estimates}: {self.description}"
        )


@dataclass(frozen=True)
class _Step:
    """One view derivation of a rewrite plan.

    ``pattern`` is the fig. 10/13 operator tree when the step takes the
    relational route, ``None`` for the in-memory forms.
    """

    shape: QueryShape
    match: Match
    info: RewriteInfo
    dplan: Optional[core_derivation.DerivationPlan] = None
    pattern: Optional[Operator] = None


@dataclass(frozen=True)
class RewritePlan:
    """How a statement is answered from views: one step per view used (a
    single match, or the SUM and COUNT components of an AVG)."""

    stmt: SelectStmt
    shape: QueryShape
    info: RewriteInfo
    steps: Tuple[_Step, ...]

    def run(self, db: Database) -> Result:
        pieces, stats = _step_pieces(db, self.steps[0])
        if len(self.steps) == 2:
            # Section 2.1: "AVG may be directly derived from SUM and
            # COUNT"; both components enumerate a partition's positions in
            # the same order, so the quotient is element-wise.
            count_pieces, count_stats = _step_pieces(db, self.steps[1])
            counts = {pkey: values for pkey, _, values in count_pieces}
            pieces = [
                (pkey, keys, _quotient(sums, counts.get(pkey, np.empty(0))))
                for pkey, keys, sums in pieces
            ]
            stats.merge(count_stats)
        return _assemble(db, self.stmt, self.shape, pieces, stats)


def _quotient(sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    # A COUNT view's frame at a core position holds that position, and a
    # view refuses NULL measures, so every count is at least 1.
    if len(sums) != len(counts):
        raise DerivationError(
            "the SUM and COUNT views of an AVG combination cover different rows"
        )
    return sums / counts


def try_rewrite(
    db: Database,
    stmt: SelectStmt,
    views: Sequence[MaterializedSequenceView],
    options: QueryOptions = QueryOptions(),
) -> Optional[Tuple[Result, RewriteInfo]]:
    """Answer ``stmt`` from a materialized view: :func:`plan_rewrite`, then
    run the plan.  ``None`` when the statement is not to be rewritten."""
    plan = plan_rewrite(db, stmt, views, options)
    if plan is None:
        return None
    return plan.run(db), plan.info


def plan_rewrite(
    db: Database,
    stmt: SelectStmt,
    views: Sequence[MaterializedSequenceView],
    options: QueryOptions = QueryOptions(),
) -> Optional[RewritePlan]:
    """Decide whether and how ``stmt`` is answered from a view.

    Returns ``None`` when the statement shape is not rewritable or no view
    matches.  A matching view always answers: the decision reads only the
    statement and the view definitions, so every tier routes a query the
    same way.

    Raises:
        DerivationError: a forced ``algorithm`` cannot derive the target,
            or ``mode="relational"`` hit a case the pattern cannot express.
        NoRewriteError: ``mode="relational"`` where no pattern exists.
    """
    shape = _rewritable_shape(stmt)
    if shape is None:
        return None
    matches = rank_matches(shape, list(views))
    if matches:
        step = _plan_step(db, shape, matches[0], options)
        return RewritePlan(stmt, shape, step.info, (step,))
    if shape.func == "AVG":
        return _plan_avg_combination(db, stmt, shape, views, options)
    return None


def _plan_avg_combination(
    db: Database,
    stmt: SelectStmt,
    shape: QueryShape,
    views: Sequence[MaterializedSequenceView],
    options: QueryOptions,
) -> Optional[RewritePlan]:
    """Plan an AVG reporting function over a SUM view and a COUNT view.

    Both component shapes must be independently answerable; each picks its
    own derivation algorithm.
    """
    component_options = replace(
        options,
        algorithm="auto",
        variant="disjunctive",
        mode="memory" if options.mode == "auto" else options.mode,
    )
    steps = []
    for func in ("SUM", "COUNT"):
        component = replace(shape, func=func)
        matches = rank_matches(component, list(views))
        if not matches:
            return None
        steps.append(_plan_step(db, component, matches[0], component_options))
    sum_info, count_info = steps[0].info, steps[1].info
    info = RewriteInfo(
        f"{sum_info.view}+{count_info.view}",
        "avg_combination",
        f"{sum_info.algorithm}+{count_info.algorithm}",
        component_options.mode,
        None,
        f"AVG = SUM/COUNT combined from views {sum_info.view!r} and "
        f"{count_info.view!r}",
    )
    return RewritePlan(stmt, shape, info, tuple(steps))


def _rewritable_shape(stmt: SelectStmt) -> Optional[QueryShape]:
    # A view answers one row per position; DISTINCT is the native plan's.
    if stmt.distinct or len(stmt.tables) != 1 or stmt.group_by or stmt.having is not None:
        return None
    if stmt.tables[0].is_subquery:
        return None
    calls = stmt.window_calls()
    if len(calls) != 1:
        return None
    if stmt.aggregate_calls():
        return None
    shape = QueryShape.from_call(stmt.tables[0].name, calls[0], stmt.where)
    if shape is None:
        return None
    # Plain select items must be partition/order columns of the query.
    allowed = set(shape.partition_by) | set(shape.order_by)
    for item in stmt.items:
        if item.star:
            return None
        if isinstance(item.value, WindowCall):
            continue
        if not isinstance(item.value, ColumnRef) or item.value.name not in allowed:
            return None
    return shape


_REDUCTIONS = {
    "partition_reduction": ("reconstruct+recompute", "partitioning", "partition_by"),
    "ordering_reduction": ("prefix-tiling", "ordering", "order_by"),
}


def _plan_step(
    db: Database, shape: QueryShape, match: Match, options: QueryOptions
) -> _Step:
    """Choose algorithm and route for one match (nothing is executed)."""
    view = match.view
    d = view.definition
    if match.kind in _REDUCTIONS:
        algorithm, what, attr = _REDUCTIONS[match.kind]
        info = RewriteInfo(
            view.name,
            match.kind,
            algorithm,
            "memory",
            None,
            f"{what} reduction {getattr(d, attr)} -> {getattr(shape, attr)}",
        )
        return _Step(shape, match, info)
    if match.kind != "direct":  # pragma: no cover - matcher kinds are closed
        raise NoRewriteError(f"unknown match kind {match.kind!r}")

    dplan = match.derivation
    assert dplan is not None
    if options.algorithm != "auto" and dplan.algorithm != options.algorithm:
        dplan = core_derivation.plan(
            d.window,
            shape.window,
            minmax=d.aggregate.duplicate_insensitive,
            algorithm=options.algorithm,
        )
    algo = dplan.algorithm
    # The cumulative-view patterns (figs. 4/5) are built for one global
    # sequence; everything else supports partitioned views too.
    relational_ok = algo == "identity" or (
        d.aggregate.invertible
        and algo in ("maxoa", "minoa", "cumulative", "reconstruct")
        and not (view.is_partitioned and algo == "cumulative")
    )
    if options.mode == "relational" and not relational_ok:
        raise NoRewriteError(
            f"relational rewrite unavailable for {algo} over a "
            f"{'partitioned ' if view.is_partitioned else ''}"
            f"{d.aggregate_name} view"
        )
    # Lookups per output position.  A pattern reads the storage row its
    # scan drives from plus one row per lookup of the explicit form it
    # evaluates; an identity match is that scan alone.
    longest = max(view.partition_sizes().values(), default=0)
    est_memory = float(dplan.recursive_lookups)
    est_relational = 1.0 + (
        0.0 if algo == "identity" else dplan.explicit_lookups(longest)
    )
    pattern = None
    if relational_ok and (
        options.mode == "relational"
        or (options.mode == "auto" and est_relational <= est_memory)
    ):
        n = 0 if view.is_partitioned else view.single_partition().seq.n
        try:
            pattern = _relational_plan(
                db,
                d.storage_table,
                n,
                d.window,
                shape.window,
                dplan,
                options.variant,
                partition_cols=d.partition_by,
            )
        except DerivationError:
            # Relational corner case (e.g. MinOA residue collision,
            # Δl + Δh ≡ 0 mod Wx): the in-memory form handles it.
            if options.mode == "relational":
                raise
    info = RewriteInfo(
        view.name,
        "direct",
        algo,
        "relational" if pattern is not None else "memory",
        options.variant if pattern is not None else None,
        dplan.describe(),
        est_relational,
        est_memory,
    )
    return _Step(shape, match, info, dplan, pattern)


def _step_pieces(db: Database, step: _Step) -> Tuple[List[Piece], ExecutionStats]:
    """Derive one step's answer, partition by partition (no projection)."""
    from repro.obs import runtime

    view = step.match.view
    shape = step.shape
    schema = db.table(shape.base_table).schema
    kinds = [kind_for_type(schema.column(c).type.name) for c in view.definition.order_by]
    if step.match.kind == "partition_reduction":
        merged = core_reporting.merged_partitions(
            view.reporting, shape.partition_by, shape.window, kinds
        )
        return [(coarse, keys, values) for coarse, _, _, keys, _, values in merged], ExecutionStats()
    if step.match.kind == "ordering_reduction":
        drop = len(view.definition.order_by) - len(shape.order_by)
        derived = core_reporting.ordering_reduction(
            view.reporting, drop, target_window=shape.window
        )
        return [
            (pkey, part.key_columns(kinds[:len(shape.order_by)]),
             np.array(part.seq.core_values(), dtype=np.float64))
            for pkey, part in derived.partitions.items()
        ], ExecutionStats()

    dplan, info = step.dplan, step.info
    partitions = view.reporting.partitions
    with runtime.get_tracer().span(
        "view.derive",
        view=view.name, algorithm=dplan.algorithm,
        mode=info.mode, variant=info.variant,
        est_relational=info.est_relational, est_memory=info.est_memory,
    ):
        if step.pattern is None:
            pieces: List[Piece] = [
                (
                    pkey,
                    part.key_columns(kinds),
                    np.array(core_derivation.derive(
                        part.seq, shape.window, chosen=dplan, form="recursive"
                    ), dtype=np.float64),
                )
                for pkey, part in partitions.items()
            ]
            stats = ExecutionStats()
        else:
            # Pattern rows are (partition..., pos, value), sorted: each run
            # of one partition takes its ordering keys at its positions.
            exec_result = db.run(step.pattern)
            stats = exec_result.stats
            answer = exec_result.as_columns()
            n_part = len(view.definition.partition_by)
            positions = answer.columns[n_part].data.astype(np.intp) - 1
            values = answer.columns[-1].as_float64(np.nan)
            starts = _run_starts(answer.columns[:n_part], len(answer))
            pieces = []
            for lo, hi in zip(starts, starts[1:] + [len(answer)]):
                pkey = tuple(column.value(lo) for column in answer.columns[:n_part])
                keys = partitions[pkey].key_columns(kinds)
                pieces.append((pkey, [k.take(positions[lo:hi]) for k in keys], values[lo:hi]))
    runtime.get_registry().counter(
        "repro_views_derivations_total",
        {"algorithm": dplan.algorithm, "mode": info.mode},
        help="Queries answered by deriving from a materialized view",
    ).inc()
    return pieces, stats


def _run_starts(columns: Sequence[DataColumn], nrows: int) -> List[int]:
    """The rows where a run of equal values of ``columns`` starts."""
    change = np.zeros(nrows, dtype=np.bool_)
    change[:1] = True
    for column in columns:
        change[1:] |= column.data[1:] != column.data[:-1]
        if column.validity is not None:
            change[1:] |= column.validity[1:] != column.validity[:-1]
    return np.flatnonzero(change).tolist()


def _relational_plan(
    db: Database,
    storage: str,
    n: int,
    view_window: WindowSpec,
    target: WindowSpec,
    dplan,
    variant: str,
    partition_cols=(),
):
    from repro.relational.expr import Comparison, col, lit
    from repro.relational.operators import Filter, Project, Sort

    kw = dict(
        pos_col="__pos",
        val_col="__val",
        partition_cols=tuple(partition_cols),
        core_col="__core",
    )
    algo = dplan.algorithm
    if algo == "identity":
        scan = db.scan(storage, "s")
        core = Filter(scan, Comparison("=", col("__core", "s"), lit(True)))
        outputs = [(col(c, "s"), c) for c in partition_cols]
        outputs += [(col("__pos", "s"), "pos"), (col("__val", "s"), "val")]
        proj = Project(core, outputs)
        keys = [(col(c), True) for c in partition_cols] + [(col("pos"), True)]
        return Sort(proj, keys)
    if algo == "maxoa":
        return maxoa_pattern(db, storage, n, view_window, target, variant=variant, **kw)
    if algo == "minoa":
        return minoa_pattern(db, storage, n, view_window, target, variant=variant, **kw)
    if algo == "cumulative":
        cum_kw = dict(pos_col="__pos", val_col="__val")
        if target.is_point:
            return raw_from_cumulative_pattern(db, storage, n, **cum_kw)
        return sliding_from_cumulative_pattern(db, storage, n, target, **cum_kw)
    if algo == "reconstruct":
        # Raw reconstruction from a sliding view is MinOA with target (0,0).
        return minoa_pattern(db, storage, n, view_window, WindowSpec.point(), variant=variant, **kw)
    raise NoRewriteError(f"no relational pattern for algorithm {algo!r}")


def _assemble(
    db: Database,
    stmt: SelectStmt,
    shape: QueryShape,
    pieces: Sequence[Piece],
    stats: ExecutionStats,
) -> Result:
    """Concatenate the pieces column by column and project them into the
    statement's select-item order."""
    base = db.table(shape.base_table)
    columns: List[Column] = []
    pickers = []
    for i, item in enumerate(stmt.items):
        if isinstance(item.value, WindowCall):
            name = item.alias or f"{item.value.func.lower()}_over_{i}"
            columns.append(Column(name, FLOAT))
            pickers.append("__window__")
        else:
            assert isinstance(item.value, ColumnRef)
            col_name = item.value.name
            name = item.alias or col_name
            columns.append(Column(name, base.schema.column(col_name).type))
            pickers.append(col_name)
    out_schema = Schema(columns)
    values = np.concatenate([np.empty(0)] + [piece[2] for piece in pieces])
    built = {"__window__": DataColumn(values)}
    for name in set(pickers) - {"__window__"}:
        kind = kind_for_type(base.schema.column(name).type.name)
        if name in shape.order_by:
            i = shape.order_by.index(name)
            built[name] = DataColumn.concat([piece[1][i] for piece in pieces], kind)
        else:  # a partition column: each piece's key value, repeated
            i = shape.partition_by.index(name)
            owner = np.repeat(np.arange(len(pieces)), [len(piece[2]) for piece in pieces])
            built[name] = DataColumn.from_values([piece[0][i] for piece in pieces], kind).take(owner)
    answer = ColumnRows([built[name] for name in pickers], len(values))

    if stmt.order_by:
        keys = [(o.expr, o.ascending) for o in stmt.order_by]
        picks = plain_column_indexes([expr for expr, _ in keys], out_schema)
        order = None
        if picks is not None:
            order = sort_order(
                [(answer.columns[i], asc) for i, (_, asc) in zip(picks, keys)],
                len(answer),
            )
        if order is None:
            # Computed, TEXT/DATE or NULL keys: sort rows as Python does.
            rows = list(answer)
            for expr, asc in reversed(keys):
                rows.sort(key=expr.bind(out_schema), reverse=not asc)
            return Result(out_schema, rows[: stmt.limit], stats)
        answer = answer.take(order)
    if stmt.limit is not None and stmt.limit < len(answer):
        answer = answer.take(np.arange(stmt.limit))
    return Result.from_columns(out_schema, answer.columns, stats, len(answer))
