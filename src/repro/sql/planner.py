"""SQL planner: build the physical plan of a parsed SELECT.

Planning follows the paper's processing strategy for reporting functions
(section 1, "Related Work"): first joins and selections, then the optional
*global* GROUP BY, then — on that output — the reporting functions with
their column-wise partitioning/ordering/windowing, and finally the global
ORDER BY / LIMIT.

One builder walks a statement in that order and emits the physical
operators directly, binding every clause against the schema of the
operator below it.  Each operator is annotated as it is made with its
estimated cardinality and cumulative cost from the
:class:`~repro.stats.catalog.StatsCatalog` (``analyze_est``, which EXPLAIN
ANALYZE shows next to the actuals).  The only choice the builder makes is
a join's algorithm; a window operator has nothing to decide, because one
kernel serves every frame and aggregate (DESIGN.md §5m), so statistics
only feed the estimates.

Join planning is deliberately modest (the queries at hand join at most a
few tables): WHERE conjuncts are pushed to single-table filters where
possible, cross-table equality conjuncts drive hash joins, everything else
becomes a nested-loop residual.

Two window-execution strategies implement Table 1's comparison:

* ``window_strategy="native"`` (default) — the
  :class:`~repro.sql.window_exec.WindowOperator` (reporting functionality
  inside the engine);
* ``window_strategy="selfjoin"`` — rewrite the reporting function to the
  fig. 2 self-join pattern (single-table queries over dense integer
  positions; honours ``use_index``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import BindError, SchemaError, UnsupportedSqlError
from repro.relational.aggregate import AggSpec, HashAggregate
from repro.relational.engine import Database
from repro.relational.expr import And, ColumnRef, Comparison, Expr, col
from repro.relational.join import HashJoin, NestedLoopJoin
from repro.relational.operators import (
    Alias,
    Distinct,
    Filter,
    Limit,
    Operator,
    Project,
    Sort,
    TableScan,
    UnionAll,
)
from repro.sql.ast_nodes import (
    AggregateCall,
    CompoundSelect,
    SelectStmt,
    WindowCall,
)
from repro.sql.options import QueryOptions
from repro.sql.parser import parse_query
from repro.sql.patterns import self_join_window
from repro.sql.window_exec import RANKING_FUNCS, WindowColumnSpec, WindowOperator
from repro.stats.collect import TableStats
from repro.stats.cost import (
    DEFAULT_SELECTIVITY,
    CostModel,
    predicate_selectivity,
)

__all__ = [
    "build_plan",
    "explain_sql",
]


def explain_sql(db: Database, text: str, **options: Any) -> str:
    """Plan a statement and render the operator tree (no execution)."""
    return build_plan(db, parse_query(text), QueryOptions.build(options)).explain()


def build_plan(
    db: Database, stmt, options: QueryOptions = QueryOptions()
) -> Operator:
    """Build the operator tree of a SELECT (or UNION ALL compound) AST.

    Every operator carries ``analyze_est`` (``{"est_rows": int,
    "est_cost": float}``); the root's ``planner_notes`` holds one line per
    window operator.

    Args:
        options: the query's :class:`~repro.sql.options.QueryOptions`
            (``window_strategy`` and ``use_index`` matter here).
    """
    from repro.obs import runtime

    with runtime.get_tracer().span(
        "query.plan", window_strategy=options.window_strategy
    ):
        ops = _Operators(db)
        plan = _build(ops, stmt, options)
        plan.planner_notes = ops.notes
        return plan


def _build(ops: _Operators, stmt, options: QueryOptions) -> Operator:
    if not isinstance(stmt, CompoundSelect):
        return _Builder(ops, stmt, options).build()
    branches = [_build(ops, sub, options) for sub in stmt.selects]
    keys = []
    for item in stmt.order_by:
        # The first branch names the union's output columns.
        if not _binds(item.expr, branches[0].schema):
            raise BindError(
                f"compound ORDER BY expression {item.expr} does not "
                "bind to the union's output columns"
            )
        keys.append((item.expr, item.ascending))
    plan = ops.union_all(branches)
    if keys:
        plan = ops.sort(plan, keys)
    if stmt.limit is not None:
        plan = ops.limit(plan, stmt.limit)
    return plan


def _binds(expr: Expr, schema) -> bool:
    try:
        expr.bind(schema)
        return True
    except SchemaError:
        return False


class _Builder:
    """Build the operator tree of one SELECT statement."""

    def __init__(self, ops: _Operators, stmt: SelectStmt, options: QueryOptions) -> None:
        self.ops = ops
        self.db = ops.db
        self.stmt = stmt
        self.options = options

    # -- entry point -------------------------------------------------------------

    def build(self) -> Operator:
        stmt = self.stmt
        plan = self._from_where()
        from_schema = plan.schema

        has_group = bool(stmt.group_by) or bool(stmt.aggregate_calls())
        if has_group:
            plan = self._aggregate(plan)

        window_calls = stmt.window_calls()
        if window_calls and self.options.window_strategy == "selfjoin":
            return self._selfjoin_query(window_calls)
        window_names: List[str] = []
        if window_calls:
            plan, window_names = self._windows(plan, window_calls)

        plan = self._project(plan, from_schema, has_group, window_names)
        if stmt.distinct:
            plan = self.ops.distinct(plan)
        plan = self._order_limit(plan)
        return plan

    # -- FROM / WHERE --------------------------------------------------------------

    def _from_where(self) -> Operator:
        stmt = self.stmt
        ops = self.ops
        scans: List[Operator] = []
        for t in stmt.tables:
            if t.is_subquery:
                sub = _build(
                    ops, t.subquery, replace(self.options, window_strategy="native")
                )
                scans.append(ops.alias(sub, t.binding))
            else:
                scans.append(ops.scan(self.db.table(t.name), t.binding))
        conjuncts = _split_and(stmt.where)

        # Push single-table conjuncts down to their scan.
        remaining: List[Expr] = []
        for conj in conjuncts:
            pushed = False
            for i, scan in enumerate(scans):
                if _binds(conj, scan.schema):
                    scans[i] = ops.filter(scan, conj)
                    pushed = True
                    break
            if not pushed:
                remaining.append(conj)

        plan = scans[0]
        for scan in scans[1:]:
            combined = plan.schema.concat(scan.schema)
            applicable = [c for c in remaining if _binds(c, combined)]
            remaining = [c for c in remaining if c not in applicable]
            eq_left: List[Expr] = []
            eq_right: List[Expr] = []
            residual: List[Expr] = []
            for conj in applicable:
                pair = _equi_pair(conj, plan.schema, scan.schema)
                if pair is not None:
                    eq_left.append(pair[0])
                    eq_right.append(pair[1])
                else:
                    residual.append(conj)
            res = And(*residual) if residual else None
            plan = ops.join(plan, scan, eq_left, eq_right, res)
        if remaining:
            leftover = And(*remaining) if len(remaining) > 1 else remaining[0]
            if not _binds(leftover, plan.schema):
                raise BindError(
                    f"WHERE clause references unknown columns: {leftover}"
                )
            plan = ops.filter(plan, leftover)
        return plan

    # -- GROUP BY / aggregates --------------------------------------------------------

    def _aggregate(self, plan: Operator) -> Operator:
        stmt = self.stmt
        group_outputs: List[Tuple[Expr, str]] = []
        for i, expr in enumerate(stmt.group_by):
            group_outputs.append((expr, _output_name(expr, None, f"group_{i}")))

        agg_specs: List[AggSpec] = []
        for i, item in enumerate(stmt.items):
            if isinstance(item.value, AggregateCall):
                call = item.value
                if call.distinct:
                    raise UnsupportedSqlError("DISTINCT aggregates are not supported")
                name = item.alias or f"{call.func.lower()}_{i}"
                agg_specs.append(AggSpec(call.func, call.arg, name))
            elif isinstance(item.value, WindowCall):
                continue  # evaluated after grouping, over the aggregate output
            elif item.star:
                raise UnsupportedSqlError("SELECT * cannot be combined with GROUP BY")
        plan = self.ops.aggregate(plan, group_outputs, agg_specs)

        if stmt.having is not None:
            if not _binds(stmt.having, plan.schema):
                raise BindError(
                    "HAVING must reference grouping columns or aggregate "
                    "aliases from the select list"
                )
            plan = self.ops.filter(plan, stmt.having)
        return plan

    # -- reporting functions -------------------------------------------------------------

    def _windows(
        self, plan: Operator, calls: Sequence[WindowCall]
    ) -> Tuple[Operator, List[str]]:
        specs: List[WindowColumnSpec] = []
        names: List[str] = []
        used = set(c.qualified_name for c in plan.schema)
        for i, item in enumerate(self.stmt.items):
            if not isinstance(item.value, WindowCall):
                continue
            call = item.value
            name = item.alias or _fresh_name(f"{call.func.lower()}_over_{i}", used)
            used.add(name)
            names.append(name)

            frame = call.over.frame
            window = None
            range_frame = None
            if call.func in RANKING_FUNCS:
                pass
            elif frame is not None and frame.unit == "range":
                range_frame = frame.range_bounds()
            else:
                window = call.over.window()
            specs.append(
                WindowColumnSpec(
                    func=call.func,
                    arg=call.arg,
                    partition_by=call.over.partition_by,
                    order_by=call.over.order_by,
                    window=window,
                    name=name,
                    range_frame=range_frame,
                )
            )
        return self.ops.window(plan, specs), names

    def _selfjoin_query(self, calls: Sequence[WindowCall]) -> Operator:
        """Table 1's "self join method": fig. 2 instead of the window operator.

        Restricted to the pattern's preconditions: a single table, one
        reporting function ordered by a dense integer position column, and a
        select list of the shape ``pos[, val], agg(val) OVER (...)``.
        """
        stmt = self.stmt
        if len(stmt.tables) != 1 or len(calls) != 1:
            raise UnsupportedSqlError(
                "the self-join strategy supports a single table and a single "
                "reporting function"
            )
        if stmt.where is not None or stmt.group_by or stmt.having is not None:
            raise UnsupportedSqlError(
                "the self-join strategy does not compose with WHERE/GROUP BY"
            )
        call = calls[0]
        over = call.over
        if len(over.order_by) != 1 or not isinstance(over.order_by[0].expr, ColumnRef):
            raise UnsupportedSqlError(
                "the self-join pattern needs ORDER BY a single position column"
            )
        if not over.order_by[0].ascending:
            raise UnsupportedSqlError("the self-join pattern needs an ascending order")
        pos_col = over.order_by[0].expr.name
        if call.arg is None or not isinstance(call.arg, ColumnRef):
            raise UnsupportedSqlError(
                "the self-join pattern needs a plain column argument"
            )
        partition_cols = []
        for p in over.partition_by:
            if not isinstance(p, ColumnRef):
                raise UnsupportedSqlError(
                    "the self-join pattern needs plain partition columns"
                )
            partition_cols.append(p.name)

        # Output name: alias of the window item, or a default.
        out_name = "wval"
        for item in stmt.items:
            if isinstance(item.value, WindowCall) and item.alias:
                out_name = item.alias
        pattern = self_join_window(
            self.db,
            stmt.tables[0].name,
            window=over.window(),
            func=call.func,
            pos_col=pos_col,
            val_col=call.arg.name,
            partition_cols=partition_cols,
            use_index=self.options.use_index,
            output_name=out_name,
        )
        return self._order_limit(self.ops.pattern(pattern))

    # -- projection / ordering ---------------------------------------------------------------

    def _project(
        self,
        plan: Operator,
        from_schema,
        has_group: bool,
        window_names: List[str],
    ) -> Operator:
        stmt = self.stmt
        outputs: List[Tuple[Expr, str]] = []
        w = 0
        for i, item in enumerate(stmt.items):
            if item.star:
                for column in from_schema:
                    outputs.append(
                        (ColumnRef(column.name, column.qualifier), column.name)
                    )
                continue
            if isinstance(item.value, WindowCall):
                outputs.append((col(window_names[w]), window_names[w]))
                w += 1
                continue
            if isinstance(item.value, AggregateCall):
                name = item.alias or f"{item.value.func.lower()}_{i}"
                outputs.append((col(name), name))
                continue
            expr = item.value
            name = _output_name(expr, item.alias, f"col_{i}")
            if has_group:
                # Plain expressions must match a grouping column (by its
                # rendered text) — standard GROUP BY semantics.
                target = _match_group_output(expr, stmt.group_by)
                if target is None:
                    raise BindError(
                        f"select item {expr} is neither aggregated nor in GROUP BY"
                    )
                outputs.append((col(target), name))
            else:
                outputs.append((expr, name))
        # Ensure unique output names.
        seen: dict = {}
        final: List[Tuple[Expr, str]] = []
        for expr, name in outputs:
            if name in seen:
                seen[name] += 1
                name = f"{name}_{seen[name]}"
            else:
                seen[name] = 0
            final.append((expr, name))
        # Remember the projection inputs so ORDER BY can reach columns that
        # were not projected (standard SQL allows ordering by them).
        self._projection_child = plan
        self._projection_outputs = final
        return self.ops.project(plan, final)

    def _order_limit(self, plan: Operator) -> Operator:
        stmt = self.stmt
        if stmt.order_by:
            keys: List[Tuple[Expr, bool]] = []
            hidden: List[Tuple[Expr, bool]] = []
            for item in stmt.order_by:
                expr = item.expr
                if not _binds(expr, plan.schema):
                    # The projection strips qualifiers; a qualified reference
                    # to an output column still orders by it.
                    if isinstance(expr, ColumnRef) and expr.qualifier:
                        bare = ColumnRef(expr.name)
                        if _binds(bare, plan.schema):
                            expr = bare
                if _binds(expr, plan.schema):
                    keys.append((expr, item.ascending))
                    continue
                # Not an output column: sort by a hidden pre-projection
                # column (SQL permits ordering by non-projected columns).
                child = getattr(self, "_projection_child", None)
                if child is not None and _binds(item.expr, child.schema):
                    keys.append((item.expr, item.ascending))
                    hidden.append((item.expr, item.ascending))
                    continue
                raise BindError(
                    f"ORDER BY expression {item.expr} does not bind to the "
                    "query output or its input"
                )
            if hidden:
                plan = self._sort_with_hidden_columns(keys, plan.schema)
            else:
                plan = self.ops.sort(plan, keys)
        if stmt.limit is not None:
            plan = self.ops.limit(plan, stmt.limit)
        return plan

    def _sort_with_hidden_columns(
        self, keys: List[Tuple[Expr, bool]], visible_schema
    ) -> Operator:
        """Project visible + hidden sort columns, sort, strip the hidden ones."""
        outputs = list(self._projection_outputs)
        visible = [name for _, name in outputs]
        extended = list(outputs)
        rewritten_keys: List[Tuple[Expr, bool]] = []
        for i, (expr, asc) in enumerate(keys):
            if _binds(expr, visible_schema):
                rewritten_keys.append((expr, asc))
            else:
                hidden_name = f"__ord_{i}"
                extended.append((expr, hidden_name))
                rewritten_keys.append((col(hidden_name), asc))
        ops = self.ops
        wide = ops.project(self._projection_child, extended)
        ordered = ops.sort(wide, rewritten_keys)
        return ops.project(ordered, [(col(name), name) for name in visible])


# -- operators and their estimates ----------------------------------------------------


@dataclass
class _Est:
    """An operator's estimate: output rows, cumulative cost and — for
    single-table subtrees — the base table's statistics for
    selectivity/NDV lookups."""

    rows: float
    cost: float
    table: Optional[TableStats] = None
    # Under a chain of filters: its input rows and the predicates so far.
    filtered: Optional[Tuple[float, Tuple[Expr, ...]]] = None


class _Operators:
    """Make one plan's physical operators, each annotated with its
    estimate (``analyze_est``) as it is made, from its children's."""

    def __init__(self, db: Database) -> None:
        self.db = db
        self.cost_model = CostModel()
        self.notes: List[str] = []
        self._est: Dict[Operator, _Est] = {}

    def _emit(self, op: Operator, est: _Est) -> Operator:
        rows = max(int(round(est.rows)), 0)
        op.analyze_est = {"est_rows": rows, "est_cost": round(est.cost, 1)}
        self._est[op] = est
        return op

    # -- leaves --------------------------------------------------------------

    def scan(self, table, binding: Optional[str]) -> Operator:
        stats = self.db.stats.get(table.name)
        rows = float(stats.row_count) if stats is not None else float(len(table))
        # Chunks on pages pay per-page fault-in on top of the per-row cost,
        # so the planner prefers plans touching fewer pages.
        pages = float(table.pages_total)
        est = _Est(rows, self.cost_model.scan_cost(rows, pages=pages), stats)
        return self._emit(TableScan(table, binding), est)

    def pattern(self, plan: Operator) -> Operator:
        rows = float(_pattern_rows(plan))
        # Pattern subtrees are opaque to the cost model: nominal cost.
        return self._emit(plan, _Est(rows, self.cost_model.scan_cost(rows)))

    # -- unary relational operators ------------------------------------------

    def alias(self, child: Operator, alias: str) -> Operator:
        return self._emit(Alias(child, alias), self._est[child])

    def filter(self, child: Operator, predicate: Expr) -> Operator:
        est = self._est[child]
        # Stacked filters are one conjunction: estimated together (two
        # bounds on a column are a range, not independent predicates) ...
        base, conjuncts = est.filtered or (est.rows, ())
        conjuncts += (predicate,)
        rows = base * predicate_selectivity(And(*conjuncts), est.table)
        cost = est.cost + self.cost_model.filter_cost(est.rows)
        op = Filter(child, predicate)
        # ... and, directly over a scan, all tested against its page zones.
        scan = child
        while isinstance(scan, Filter):
            scan = scan.child
        if isinstance(scan, TableScan) and op.mask_terms is not None:
            scan.zone_terms.extend(op.mask_terms)
        return self._emit(op, _Est(rows, cost, est.table, (base, conjuncts)))

    def project(self, child: Operator, outputs: Sequence[Tuple[Expr, str]]) -> Operator:
        est = self._est[child]
        cost = est.cost + self.cost_model.project_cost(est.rows)
        # Projection renames break the column->stats mapping.
        return self._emit(Project(child, outputs), _Est(est.rows, cost))

    def distinct(self, child: Operator) -> Operator:
        est = self._est[child]
        cost = est.cost + self.cost_model.distinct_cost(est.rows)
        return self._emit(Distinct(child), _Est(est.rows, cost))

    def sort(self, child: Operator, keys: Sequence[Tuple[Expr, bool]]) -> Operator:
        est = self._est[child]
        cost = est.cost + self.cost_model.sort_cost(est.rows)
        return self._emit(Sort(child, keys), _Est(est.rows, cost, est.table))

    def limit(self, child: Operator, limit: int) -> Operator:
        est = self._est[child]
        # A bare LIMIT bounds the rows its scan reads.
        scan = child
        while isinstance(scan, (Project, Alias)):  # one row out per row in
            scan = scan.child
        if isinstance(scan, TableScan):
            scan.row_bound = limit
        rows = min(est.rows, float(limit))
        return self._emit(Limit(child, limit), _Est(rows, est.cost, est.table))

    def aggregate(
        self,
        child: Operator,
        group_outputs: Sequence[Tuple[Expr, str]],
        agg_specs: Sequence[AggSpec],
    ) -> Operator:
        est = self._est[child]
        if not group_outputs:
            groups = 1.0
        else:
            groups = _ndv_product((expr for expr, _ in group_outputs), est.table)
            if groups is None:
                # Unknown grouping cardinality: the square-root heuristic.
                groups = max(1.0, est.rows**0.5)
            groups = min(groups, max(est.rows, 1.0))
        cost = est.cost + self.cost_model.aggregate_cost(est.rows)
        op = HashAggregate(child, group_outputs, agg_specs)
        return self._emit(op, _Est(groups, cost))

    # -- joins / unions ------------------------------------------------------

    def join(
        self,
        left: Operator,
        right: Operator,
        eq_left: Sequence[Expr],
        eq_right: Sequence[Expr],
        residual: Optional[Expr],
    ) -> Operator:
        """A hash join on the cross-side equalities, a nested loop without."""
        lest, rest = self._est[left], self._est[right]
        product = lest.rows * rest.rows
        if eq_left:
            ndv_l = _ndv_product(eq_left, lest.table)
            ndv_r = _ndv_product(eq_right, rest.table)
            denom = max(ndv_l or 1.0, ndv_r or 1.0)
            rows = product / max(denom, 1.0)
            if residual is not None:
                rows *= DEFAULT_SELECTIVITY
            join_cost = self.cost_model.hash_join_cost(lest.rows, rest.rows)
            op: Operator = HashJoin(left, right, eq_left, eq_right, residual=residual)
        else:
            rows = product * (DEFAULT_SELECTIVITY if residual is not None else 1.0)
            join_cost = self.cost_model.nested_join_cost(lest.rows, rest.rows)
            op = NestedLoopJoin(left, right, residual)
        return self._emit(op, _Est(rows, lest.cost + rest.cost + join_cost))

    def union_all(self, branches: Sequence[Operator]) -> Operator:
        rows = cost = 0.0
        for branch in branches:
            est = self._est[branch]
            rows += est.rows
            cost += est.cost
        return self._emit(UnionAll(branches), _Est(rows, cost))

    # -- the window operator -------------------------------------------------

    def window(self, child: Operator, specs: Sequence[WindowColumnSpec]) -> Operator:
        est = self._est[child]
        rows = est.rows
        groups = self._estimate_groups(specs, est)
        wcost = len(specs) * self.cost_model.window_cost(rows)
        self.notes.append(
            f"window[{','.join(s.name for s in specs)}]: serial "
            f"(est_rows={int(rows)}, est_groups={int(groups)}, "
            f"est_cost={wcost:.1f})"
        )
        op = WindowOperator(child, specs)
        return self._emit(op, _Est(rows, est.cost + wcost, est.table))

    def _estimate_groups(self, specs, est: _Est) -> float:
        """Estimated PARTITION BY group count (max over the window specs)."""
        worst = 1.0
        for spec in specs:
            if not spec.partition_by:
                continue
            ndv = _ndv_product(spec.partition_by, est.table)
            if ndv is None:
                ndv = max(1.0, est.rows**0.5)
            worst = max(worst, min(ndv, max(est.rows, 1.0)))
        return worst


def _ndv_product(exprs, table_stats: Optional[TableStats]) -> Optional[float]:
    """Product of the NDVs of plain column references; None when unknown."""
    if table_stats is None:
        return None
    product = 1.0
    for expr in exprs:
        if not isinstance(expr, ColumnRef):
            return None
        col_stats = table_stats.column(expr.name)
        if col_stats is None:
            return None
        product *= max(col_stats.ndv, 1)
    return product


def _pattern_rows(plan: Operator) -> int:
    """Row estimate for an opaque pattern subtree: its largest base table."""
    best = 0
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, TableScan):
            best = max(best, len(node.table))
        stack.extend(node.children())
    return best


# -- helpers ------------------------------------------------------------------------


def _fresh_name(base: str, used) -> str:
    if base not in used:
        return base
    i = 1
    while f"{base}_{i}" in used:
        i += 1
    return f"{base}_{i}"


def _split_and(expr: Optional[Expr]) -> List[Expr]:
    if expr is None:
        return []
    if isinstance(expr, And):
        out: List[Expr] = []
        for item in expr.items:
            out.extend(_split_and(item))
        return out
    return [expr]


def _equi_pair(conj: Expr, left_schema, right_schema) -> Optional[Tuple[Expr, Expr]]:
    """``(left_key, right_key)`` when the conjunct is a cross-side equality."""
    if not (isinstance(conj, Comparison) and conj.op == "="):
        return None
    a, b = conj.left, conj.right
    if _binds(a, left_schema) and _binds(b, right_schema):
        return a, b
    if _binds(b, left_schema) and _binds(a, right_schema):
        return b, a
    return None


def _output_name(expr: Expr, alias: Optional[str], fallback: str) -> str:
    if alias:
        return alias
    if isinstance(expr, ColumnRef):
        return expr.name
    return fallback


def _match_group_output(expr: Expr, group_by: Sequence[Expr]) -> Optional[str]:
    text = str(expr)
    for i, g in enumerate(group_by):
        if str(g) == text:
            return _output_name(g, None, f"group_{i}")
        # Allow an unqualified select item to match a qualified group key.
        if isinstance(expr, ColumnRef) and isinstance(g, ColumnRef) and g.name == expr.name:
            return _output_name(g, None, f"group_{i}")
    return None
