"""The data warehouse facade: tables + materialized reporting-function views
+ transparent query rewriting.

:class:`DataWarehouse` is the library's top-level object.  It owns a
relational :class:`~repro.relational.engine.Database`, a registry of
materialized sequence views, and the query entry point that transparently
answers reporting-function queries from views (sections 3-6) with fallback
to native evaluation.

Typical use::

    wh = DataWarehouse()
    wh.create_table("sales", [("day", INTEGER), ("amount", FLOAT)])
    wh.insert("sales", rows)
    wh.create_view(
        "mv_week",
        "SELECT day, SUM(amount) OVER (ORDER BY day "
        "ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING) AS w FROM sales")
    res = wh.query(
        "SELECT day, SUM(amount) OVER (ORDER BY day "
        "ROWS BETWEEN 4 PRECEDING AND 3 FOLLOWING) AS w FROM sales")
    res.rewrite           # -> RewriteInfo(view='mv_week', algorithm='minoa', ...)
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.errors import (
    CatalogError,
    MaintenanceError,
    NoRewriteError,
    QuarantinedViewError,
    ReproError,
    ViewError,
)
from repro.relational.engine import Database, Result
from repro.sql.ast_nodes import SelectStmt
from repro.sql.options import QueryOptions
from repro.sql.parser import parse_select
from repro.sql.planner import build_plan
from repro.sql.rewriter import RewriteInfo, plan_rewrite, try_rewrite
from repro.views.definition import SequenceViewDefinition
from repro.views.maintenance import (
    propagate_delete,
    propagate_insert,
    propagate_update,
)
from repro.views.materialized import MaterializedSequenceView

__all__ = ["DataWarehouse", "QueryResult"]


class QueryResult(Result):
    """A :class:`Result` carrying optional rewrite provenance.

    ``epoch`` is set by the concurrent serving tier: the epoch the query
    was pinned to (``None`` for direct single-caller queries).
    """

    rewrite: Optional[RewriteInfo] = None
    epoch: Optional[int] = None
    # Always None: nothing estimates cardinalities.  Kept because the
    # end-to-end benchmark's tracer (benchmarks/e2e/tracing.py,
    # _note_query) reads it.
    q_error: Optional[float] = None
    # Distributed tracing: the trace id of the span tree this query ran
    # under (None when tracing is off or the trace was unsampled).  The
    # same id is stamped on the slow-query-log entry and resolvable at the
    # ops endpoint's /trace/<id>.
    trace_id: Optional[str] = None

    @classmethod
    def wrap(cls, result: Result, rewrite: Optional[RewriteInfo]) -> "QueryResult":
        # Rows or columns, whichever the result holds, carried across as
        # they are (no row list is built here).
        out = cls(result.schema, result._rows, result.stats)
        out._columns = result._columns
        out.rewrite = rewrite
        return out


class DataWarehouse:
    """Facade over the engine, the view registry and the rewriter."""

    def __init__(self) -> None:
        self.db = Database()
        self.views: Dict[str, MaterializedSequenceView] = {}
        self.cache = None  # set by enable_query_cache()
        self.slow_queries = None  # set by enable_slow_query_log()
        # Human-readable degradation log: quarantines, rewrite failures
        # routed back to base data, repairs.  Surfaced by the CLI.
        self.incidents: List[str] = []
        # A weak reference to the repro.serve.ConcurrentWarehouse that took
        # ownership (weak: the owner holds this warehouse, and a cycle would
        # outlive the owner until a full GC); direct mutation of an owned
        # warehouse raises ConcurrencyError.
        self._concurrent_owner = None

    def _assert_exclusive(self, op: str) -> None:
        """Refuse direct mutation while owned by a ConcurrentWarehouse.

        Snapshot readers rely on published epochs never being mutated;
        a mutation that bypasses the wrapper's serialized copy-on-write
        write path would silently corrupt pinned reads.  Calls arriving
        *through* the wrapper (its thread is inside the write section)
        pass.
        """
        owner = self._concurrent_owner and self._concurrent_owner()
        if owner is not None and not owner.in_write_section:
            from repro.errors import ConcurrencyError

            raise ConcurrencyError(
                f"warehouse is owned by a ConcurrentWarehouse; call "
                f"{op}() on the wrapper instead of the wrapped warehouse "
                "(direct mutation would corrupt epoch-pinned snapshot reads)"
            )

    def enable_slow_query_log(
        self, threshold_ms: float = 100.0, capacity: int = 128
    ):
        """Keep a bounded ring buffer of over-threshold ``query()`` calls."""
        from repro.obs.slowlog import SlowQueryLog

        self.slow_queries = SlowQueryLog(threshold_ms, capacity)
        return self.slow_queries

    def enable_query_cache(self, max_views: int = 8):
        """Turn on semantic caching of reporting-function query shapes.

        Missed (non-view-answerable) reporting-function queries are admitted
        as complete materialized views; later queries — same or *different*
        windows — then hit the cache via derivation.  See
        :class:`repro.warehouse.cache.QueryCache`.
        """
        from repro.warehouse.cache import QueryCache

        self.cache = QueryCache(self, max_views=max_views)
        return self.cache

    # -- table management (delegation) ------------------------------------------

    def create_table(self, name: str, columns, **kwargs):
        self._assert_exclusive("create_table")
        return self.db.create_table(name, columns, **kwargs)

    def drop_table(self, name: str, **kwargs) -> None:
        self._assert_exclusive("drop_table")
        self.db.drop_table(name, **kwargs)

    def insert(self, table: str, rows: Iterable[Sequence[Any]]) -> int:
        self._assert_exclusive("insert")
        return self.db.insert(table, rows)

    def create_index(self, table: str, name: str, columns, **kwargs):
        self._assert_exclusive("create_index")
        return self.db.create_index(table, name, columns, **kwargs)

    # -- view management ------------------------------------------------------------

    def create_view(
        self,
        name: str,
        definition,
        *,
        complete: bool = True,
    ) -> MaterializedSequenceView:
        """Materialize a reporting-function view.

        Args:
            definition: a defining SELECT text or a
                :class:`SequenceViewDefinition`.
            complete: materialize header/trailer rows (required for most
                derivations — section 3.2).
        """
        self._assert_exclusive("create_view")
        if name in self.views:
            raise CatalogError(f"view {name!r} already exists")
        if isinstance(definition, str):
            definition = SequenceViewDefinition.from_sql(name, definition)
        elif definition.name != name:
            raise ViewError(
                f"definition is named {definition.name!r}, expected {name!r}"
            )
        view = MaterializedSequenceView(self.db, definition, complete=complete)
        self.views[name] = view
        return view

    def create_views_for_query(
        self, prefix: str, sql: str, *, complete: bool = True
    ) -> List[MaterializedSequenceView]:
        """Materialize one view per reporting function of a multi-window query.

        The intro example computes four reporting functions in one SELECT;
        this helper splits such a statement into one sequence view per
        window call (named ``<prefix>_1 .. <prefix>_k``), skipping calls the
        view model cannot capture (ranking functions, expression
        arguments).

        Returns:
            The created views (possibly fewer than the query's calls).

        Raises:
            ViewError: when the statement yields no materializable call.
        """
        stmt = parse_select(sql)
        if len(stmt.tables) != 1:
            raise ViewError(
                "create_views_for_query needs a single-table statement"
            )
        created: List[MaterializedSequenceView] = []
        from repro.views.matcher import QueryShape

        for i, call in enumerate(stmt.window_calls(), start=1):
            shape = QueryShape.from_call(stmt.tables[0].name, call, stmt.where)
            if shape is None or shape.func not in ("SUM", "COUNT", "AVG", "MIN", "MAX"):
                continue
            name = f"{prefix}_{i}"
            definition = SequenceViewDefinition(
                name=name,
                base_table=shape.base_table,
                value_col=shape.value_col,
                order_by=shape.order_by,
                partition_by=shape.partition_by,
                window=shape.window,
                aggregate_name=shape.func,
                where=stmt.where,
            )
            created.append(self.create_view(name, definition, complete=complete))
        if not created:
            raise ViewError(
                "no materializable reporting function found in the statement"
            )
        return created

    def drop_view(self, name: str) -> None:
        self._assert_exclusive("drop_view")
        view = self.views.pop(name, None)
        if view is None:
            raise CatalogError(f"no view {name!r}")
        self.db.drop_table(view.definition.storage_table, if_exists=True)

    def view(self, name: str) -> MaterializedSequenceView:
        try:
            return self.views[name]
        except KeyError:
            raise CatalogError(f"no view {name!r} (have {sorted(self.views)})") from None

    def refresh_view(self, name: str) -> None:
        """Fully rebuild one view; quarantines it when the rebuild fails.

        Refresh is atomic (shadow table + swap-on-commit), so a failed
        refresh leaves the view *readable* at the old epoch — but the
        caller asked for a rebuild because base data may have moved, so
        the old epoch can no longer be trusted: the view is quarantined
        and queries route to base data until :meth:`repair` succeeds.
        """
        self._assert_exclusive("refresh_view")
        view = self.view(name)
        try:
            view.refresh()
        except Exception as exc:
            self.quarantine_view(name, f"refresh failed: {exc}")
            raise

    # -- quarantine & repair -----------------------------------------------------

    def healthy_views(self) -> List[MaterializedSequenceView]:
        """Views currently eligible for query routing."""
        return [v for v in self.views.values() if not v.quarantined]

    def quarantined_views(self) -> List[str]:
        return sorted(n for n, v in self.views.items() if v.quarantined)

    def quarantine_view(self, name: str, reason: str) -> None:
        """Take one view out of routing; cache-created views are evicted.

        A quarantined *user* view stays registered (its definition is the
        contract for ``repair()``); a view the query cache created has no
        owner to repair it, so it is dropped outright rather than served.
        """
        self._assert_exclusive("quarantine_view")
        view = self.view(name)
        view.quarantine(reason)
        self.incidents.append(f"quarantined view {name!r}: {reason}")
        if self.cache is not None:
            self.cache.on_quarantine(name)

    def repair(self, name: Optional[str] = None) -> Dict[str, Any]:
        """Re-refresh, re-verify and reinstate quarantined views.

        Args:
            name: one view, or ``None`` for every quarantined view.

        Returns:
            ``{view_name: ConsistencyReport}`` for every repair attempt;
            a view is reinstated only when its report is clean.
        """
        self._assert_exclusive("repair")
        if name is not None:
            targets = [self.view(name)]
        else:
            targets = [v for v in self.views.values() if v.quarantined]
        reports: Dict[str, Any] = {}
        for view in targets:
            reports[view.name] = view.repair()
            if not view.quarantined:
                self.incidents.append(f"repaired view {view.name!r}")
        return reports

    # -- querying ----------------------------------------------------------------------

    def query(self, sql: str, **options: Any) -> QueryResult:
        """Run a SELECT, preferring materialized views when possible.

        The keywords are the fields of
        :class:`~repro.sql.options.QueryOptions` (``use_views``,
        ``require_rewrite``, ``algorithm``, ``variant``, ``mode``,
        ``window_strategy``, ``use_index``), checked here before any work
        happens: an unknown keyword or a value outside its domain raises
        :class:`~repro.errors.PlanError`.
        """
        import time

        from repro.obs import runtime

        opts = QueryOptions.build(options)
        started = time.perf_counter()
        tracer = runtime.get_tracer()
        span = tracer.span("warehouse.query", sql=sql) if tracer.enabled else None
        try:
            result = self._query(sql, opts)
        finally:
            if span is not None:
                span.finish()
        if span is not None and span.sampled:
            result.trace_id = span.trace_id
        elapsed = time.perf_counter() - started
        runtime.get_registry().histogram(
            "repro_engine_query_seconds",
            help="Warehouse query() wall time",
        ).observe(elapsed)
        if self.slow_queries is not None:
            info = result.rewrite
            self.slow_queries.record(
                sql,
                elapsed,
                rewrite=info.description if info is not None else None,
                summary=result.stats.summary(),
                trace_id=result.trace_id,
            )
        return result

    def _query(self, sql: str, options: QueryOptions) -> "QueryResult":
        from repro.sql.ast_nodes import CompoundSelect
        from repro.sql.parser import parse_query

        stmt = parse_query(sql)
        if isinstance(stmt, CompoundSelect):
            # UNION ALL compounds are evaluated natively (branch rewriting
            # would need per-branch provenance; run them against base data).
            return self._run_native(stmt, options)
        healthy = self.healthy_views()
        if options.use_views and healthy:
            try:
                rewritten = try_rewrite(self.db, stmt, healthy, options)
            except ReproError as exc:
                # Self-healing routing: a rewrite that blows up mid-flight
                # must not fail the query — fall back to base data.
                self.incidents.append(
                    f"rewrite failed ({exc}); query routed to base data"
                )
                rewritten = None
            if rewritten is not None:
                result, info = rewritten
                if self.cache is not None:
                    for name in info.view.split("+"):
                        self.cache.note_hit(name)
                return QueryResult.wrap(result, info)
        if options.use_views and self.cache is not None:
            admitted = self._cache_admit(stmt)
            if admitted:
                rewritten = try_rewrite(
                    self.db, stmt, self.healthy_views(), options
                )
                if rewritten is not None:
                    return QueryResult.wrap(*rewritten)
        if options.require_rewrite:
            raise NoRewriteError(
                "no materialized view can answer this query "
                f"(registered: {sorted(self.views)})"
            )
        return self._run_native(stmt, options)

    def _native_plan(self, stmt, options: QueryOptions):
        return build_plan(self.db, stmt, options)

    def _run_native(self, stmt, options: QueryOptions) -> "QueryResult":
        """Answer from base data: the native plan, run."""
        return QueryResult.wrap(self.db.run(self._native_plan(stmt, options)), None)

    def _plan_rewrite(self, stmt, options: QueryOptions):
        """The rewrite plan ``query`` would run, or None for the native
        route — including when planning the rewrite fails, which ``query``
        answers from base data."""
        healthy = self.healthy_views()
        if not (options.use_views and healthy):
            return None
        try:
            return plan_rewrite(self.db, stmt, healthy, options)
        except ReproError:
            return None

    def explain(self, sql: str, **options: Any) -> str:
        """Describe how a query would be answered (rewrite or native plan).

        Prints the plan ``query(sql, **options)`` would run; nothing is
        executed.
        """
        opts = QueryOptions.build(options)
        stmt = parse_select(sql)
        rewrite = self._plan_rewrite(stmt, opts)
        if rewrite is not None:
            return rewrite.info.render()
        return "NATIVE PLAN:\n" + self._native_plan(stmt, opts).explain()

    def explain_analyze(self, sql: str, **options: Any) -> str:
        """Plan the query, run that plan under a fresh tracer and describe
        what happened.

        A rewritten query reports the rewrite provenance (view, MaxOA vs
        MinOA, execution mode) plus the recorded span tree — including the
        ``view.derive`` span and any operator spans of the relational
        pattern; a native query renders the engine's annotated operator
        tree (actual rows and per-operator wall time).
        """
        import time

        from repro.obs import runtime
        from repro.obs.explain import explain_analyze_plan
        from repro.obs.trace import Tracer

        opts = QueryOptions.build(options)
        stmt = parse_select(sql)
        rewrite = self._plan_rewrite(stmt, opts)
        if rewrite is None:
            return explain_analyze_plan(self.db, self._native_plan(stmt, opts))[0]
        tracer = Tracer()
        started = time.perf_counter()
        with runtime.use(tracer=tracer):
            result = rewrite.run(self.db)
        elapsed = time.perf_counter() - started
        lines = [
            rewrite.info.render(),
            tracer.render_tree(),
            f"Execution time: {elapsed * 1000:.3f} ms",
            f"Stats: {result.stats.summary()}",
        ]
        return "\n".join(line for line in lines if line)

    def value_at(
        self,
        view_name: str,
        order_key,
        *,
        window=None,
        partition_key=(),
        algorithm: str = "auto",
    ) -> float:
        """Point lookup: one derived sequence value from a view.

        Evaluates ``ỹ_k`` for the row identified by ``order_key`` (and
        ``partition_key`` for partitioned views) using the single-position
        explicit derivation forms — O(k/Wx) view lookups instead of a full
        sequence derivation.

        Args:
            window: target window (defaults to the view's own window —
                an O(1) lookup).
            algorithm: ``"auto"`` (planner choice), ``"maxoa"`` or ``"minoa"``.

        Raises:
            MaintenanceError: unknown order/partition key.
            DerivationError: window not derivable from the view.
        """
        from repro.core import derivation as core_derivation
        from repro.core import maxoa as core_maxoa
        from repro.core import minoa as core_minoa
        from repro.core import reconstruct
        from repro.views.maintenance import position_of

        view = self.view(view_name)
        if view.quarantined:
            raise QuarantinedViewError(
                f"view {view_name!r} is quarantined "
                f"({view.quarantine_reason}); run repair() to reinstate it"
            )
        pkey = tuple(partition_key) if not isinstance(partition_key, tuple) else partition_key
        okey = order_key if isinstance(order_key, tuple) else (order_key,)
        k = position_of(view, pkey, okey)
        seq = view.sequence(pkey)
        target = window or view.definition.window
        dplan = core_derivation.plan(
            seq.window,
            target,
            minmax=view.definition.aggregate.duplicate_insensitive,
            algorithm=algorithm,
        )
        if dplan.algorithm == "identity":
            return seq.value(k)
        if dplan.algorithm == "maxoa":
            return core_maxoa.derive_at(seq, target, k)
        if dplan.algorithm == "minoa":
            return core_minoa.derive_at(seq, target, k)
        if dplan.algorithm == "cumulative":
            return reconstruct.sliding_at_from_cumulative(seq, target, k)
        if dplan.algorithm == "reconstruct":
            return reconstruct.raw_at_from_sliding(seq, k)
        return core_derivation.prefix_up_to(seq, k)  # the "prefix" plan

    def verify(self, *, quarantine: bool = True):
        """Cross-check every view against base data; see
        :func:`repro.views.verify.verify_warehouse`.

        Args:
            quarantine: take views with discrepancies out of query routing
                (detection → degradation); pass ``False`` for a pure
                read-only check.
        """
        from repro.views.verify import verify_warehouse

        self._assert_exclusive("verify")
        reports = verify_warehouse(self)
        if quarantine:
            for name, report in reports.items():
                if not report.ok and name in self.views:
                    self.quarantine_view(
                        name,
                        f"verification found {len(report.discrepancies)} "
                        "discrepancies",
                    )
        return reports

    # -- persistence ----------------------------------------------------------------------

    def save(
        self,
        directory: str,
        *,
        storage_format: Optional[int] = None,
        page_size: Optional[int] = None,
    ) -> None:
        """Persist base tables, indexes and view definitions to a directory.

        Args:
            storage_format: ``None`` or 4, the one format written (pages;
                see :mod:`repro.relational.persist`).  Any other value is a
                :class:`~repro.errors.CatalogError`.
            page_size: page size in bytes (default 4096).

        Views are stored as definitions and re-materialized on load (the
        dump also contains their storage tables, which load() replaces with
        a fresh refresh — guaranteeing base/view consistency).
        """
        import json
        import os

        from repro.relational.persist import durable_write, save_database

        self._assert_exclusive("save")
        if storage_format not in (None, 4):
            raise CatalogError(
                f"cannot write storage format {storage_format!r}: format 4 "
                "(pages) is the only one written"
            )
        kwargs = {} if page_size is None else {"page_size": page_size}
        save_database(self.db, directory, **kwargs)
        views = [
            {**view.definition.to_doc(), "complete": view.complete}
            for view in self.views.values()
        ]
        # Atomic publish: never leave a torn views.json next to a good dump.
        durable_write(
            os.path.join(directory, "views.json"),
            json.dumps({"views": views}, indent=2).encode("utf-8"),
        )

    @classmethod
    def load(
        cls,
        directory: str,
        *,
        rehydrate: bool = False,
        memory_budget_bytes: Optional[int] = None,
    ) -> "DataWarehouse":
        """Rebuild a warehouse saved with :meth:`save`.

        Args:
            rehydrate: wrap each view's *dumped* storage table instead of
                refreshing it.  The default refresh guarantees base/view
                consistency; rehydration keeps the dump's own view values
                (what ``repro verify`` checks) and its storage slot order,
                which a refresh does not reproduce after inserts into a
                partitioned view: that is what WAL recovery needs before
                it replays digest-checked records on top.  (Maintained
                values equal a refresh's, bit for bit.)
            memory_budget_bytes: where the tables live.  ``None`` (the
                default) reads every page into memory — no buffer pool, no
                spill budget.  A budget keeps the tables of a paged dump
                on disk behind a buffer pool that holds at most that many
                bytes of pages, and makes it the operators' spill budget.
        """
        import json
        import os

        from repro.relational.persist import load_database

        wh = cls()
        wh.db = load_database(directory, memory_budget_bytes=memory_budget_bytes)
        views_path = os.path.join(directory, "views.json")
        entries = []
        if os.path.exists(views_path):
            with open(views_path, encoding="utf-8") as fh:
                entries = json.load(fh).get("views", [])
        for entry in entries:
            definition = SequenceViewDefinition.from_doc(entry)
            if rehydrate:
                wh.views[entry["name"]] = MaterializedSequenceView.from_storage(
                    wh.db, definition, complete=entry["complete"]
                )
            else:
                wh.create_view(
                    entry["name"], definition, complete=entry["complete"]
                )
        return wh

    def close(self) -> None:
        """Release the files a paged load holds open.

        Closes the buffer pool: its frames, its overlay file and every
        page file read through it.  Nothing to release for an in-memory
        warehouse, and calling it again is a no-op.  Unsaved updates to
        chunks on pages live in the pool, so :meth:`save` first if they
        matter, and do not query the warehouse afterwards.
        """
        if self.db.buffer_pool is not None:
            self.db.buffer_pool.close()

    def __enter__(self) -> "DataWarehouse":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _cache_admit(self, stmt: SelectStmt) -> bool:
        """Admit a missed, rewritable reporting-function shape into the cache."""
        from repro.sql.rewriter import _rewritable_shape

        shape = _rewritable_shape(stmt)
        return shape is not None and self.cache.admit(shape) is not None

    # -- workload-driven view advice ------------------------------------------------------

    def advise(self, queries: Sequence, *, top: int = 3):
        """Recommend view windows for a workload of reporting-function SQL.

        Args:
            queries: SQL strings, or ``(sql, weight)`` pairs.
            top: recommendations per query group.

        Returns:
            dict mapping a group key ``(base_table, value_col, partition_by,
            order_by, where_text)`` to a ranked list of
            :class:`~repro.views.advisor.Recommendation`.

        Queries that are not rewritable reporting-function shapes (joins,
        GROUP BY, expression arguments, ...) are ignored.

        When the base table exists, each group's costs are evaluated at its
        row count rather than the advisor's normalised length.
        """
        from repro.views.advisor import WorkloadQuery, recommend
        from repro.views.matcher import QueryShape

        groups: Dict[tuple, List[WorkloadQuery]] = {}
        for entry in queries:
            sql, weight = entry if isinstance(entry, tuple) else (entry, 1.0)
            stmt = parse_select(sql)
            calls = stmt.window_calls()
            if len(stmt.tables) != 1 or len(calls) != 1:
                continue
            shape = QueryShape.from_call(stmt.tables[0].name, calls[0], stmt.where)
            if shape is None:
                continue
            key = (
                shape.base_table,
                shape.value_col,
                shape.partition_by,
                shape.order_by,
                shape.where_text,
            )
            groups.setdefault(key, []).append(
                WorkloadQuery(
                    shape.window,
                    weight=weight,
                    minmax=shape.func in ("MIN", "MAX"),
                )
            )
        def _rows(base_table: str) -> Optional[int]:
            try:
                return len(self.db.table(base_table))
            except CatalogError:
                return None

        return {
            key: recommend(workload, top=top, row_count=_rows(key[0]))
            for key, workload in groups.items()
        }

    # -- base-data modification with incremental view maintenance ------------------------

    def _dependent_views(self, table: str) -> List[MaterializedSequenceView]:
        return [
            v for v in self.views.values() if v.definition.base_table == table
        ]

    def _locate_base_slot(self, table: str, match: Dict[str, Any]) -> int:
        tbl = self.db.table(table)
        index = tbl.find_index(list(match))
        if index is not None:  # e.g. the primary key: no scan
            slots = index.lookup(tuple(match.values()))
        else:
            idx = {c: tbl.schema.resolve(c) for c in match}
            slots = [
                i
                for i, row in enumerate(tbl.rows)
                if all(row[idx[c]] == v for c, v in match.items())
            ]
        if len(slots) != 1:
            raise ViewError(
                f"expected exactly one row in {table!r} matching {match!r}, "
                f"found {len(slots)}"
            )
        return slots[0]

    def update_measure(
        self,
        table: str,
        *,
        keys: Dict[str, Any],
        value_col: str,
        new_value: float,
    ) -> List[Any]:
        """Point-update a measure and incrementally maintain dependent views.

        ``keys`` must identify exactly one base row (e.g. the partition and
        ordering column values).  Returns the per-view
        :class:`~repro.core.maintenance.MaintenanceResult` list; a view
        whose propagation *failed* contributes the exception instead and
        is quarantined (the base update stands — queries route to base
        data until ``repair()``).
        """
        self._assert_exclusive("update_measure")
        tbl = self.db.table(table)
        slot = self._locate_base_slot(table, keys)
        old = tbl.row(slot)
        row = list(old)
        row[tbl.schema.resolve(value_col)] = None if new_value is None else float(new_value)
        names = tbl.schema.names()
        self._refuse_null_measures(table, dict(zip(names, row)), dict(zip(names, old)))
        tbl.update_slot(slot, row)
        results = []
        for view in self._dependent_views(table):
            d = view.definition
            if d.value_col != value_col:
                continue
            if not self._row_in_view(view, dict(zip(tbl.schema.names(), row))):
                continue
            pkey = tuple(keys[c] for c in d.partition_by)
            okey = tuple(keys[c] for c in d.order_by)
            results.append(
                self._propagate(
                    view, propagate_update, view, okey, new_value,
                    partition_key=pkey,
                )
            )
        return results

    def insert_row(self, table: str, values: Sequence[Any]) -> List[Any]:
        """Insert one base row and incrementally maintain dependent views."""
        self._assert_exclusive("insert_row")
        tbl = self.db.table(table)
        row = dict(zip(tbl.schema.names(), values))
        self._refuse_null_measures(table, row)
        tbl.insert(values)
        results = []
        for view in self._dependent_views(table):
            if not self._row_in_view(view, row):
                continue
            d = view.definition
            pkey = tuple(row[c] for c in d.partition_by)
            okey = tuple(row[c] for c in d.order_by)
            results.append(
                self._propagate(
                    view, propagate_insert, view, okey,
                    float(row[d.value_col]), partition_key=pkey,
                )
            )
        return results

    def delete_row(self, table: str, *, keys: Dict[str, Any]) -> List[Any]:
        """Delete one base row and incrementally maintain dependent views."""
        self._assert_exclusive("delete_row")
        tbl = self.db.table(table)
        slot = self._locate_base_slot(table, keys)
        row = dict(zip(tbl.schema.names(), tbl.row(slot)))
        tbl.delete_slots([slot])
        results = []
        for view in self._dependent_views(table):
            if not self._row_in_view(view, row):
                continue
            d = view.definition
            pkey = tuple(row[c] for c in d.partition_by)
            okey = tuple(row[c] for c in d.order_by)
            results.append(
                self._propagate(
                    view, propagate_delete, view, okey, partition_key=pkey
                )
            )
        return results

    def _refuse_null_measures(self, table: str, row: Dict[str, Any], *before: Dict[str, Any]) -> None:
        """Refuse a write of ``row`` (replacing ``before``, for an update)
        before it mutates anything when a view over ``table`` would have to
        aggregate a NULL: a reporting sequence has no NULL position.

        Raises:
            MaintenanceError: naming the view and the column.
        """
        for view in self._dependent_views(table):
            col = view.definition.value_col
            if row.get(col, 0) is None and any(
                self._row_in_view(view, r) for r in (row, *before)
            ):
                raise MaintenanceError(
                    f"view {view.name!r} cannot take a NULL in its measure "
                    f"column {table}.{col}: a reporting sequence has no NULL position"
                )

    def _propagate(self, view: MaterializedSequenceView, rule, *args, **kwargs):
        """Run one maintenance rule; on failure quarantine the view and
        return the exception (graceful degradation, the base change
        stands)."""
        try:
            return rule(*args, **kwargs)
        except ReproError as exc:
            self.quarantine_view(view.name, f"maintenance failed: {exc}")
            return exc

    def _row_in_view(self, view: MaterializedSequenceView, row: Dict[str, Any]) -> bool:
        """Does the view's selection cover this base row?"""
        d = view.definition
        if d.where is None:
            return True
        schema = self.db.table(d.base_table).schema
        compiled = d.where.bind(schema)
        ordered = tuple(row[c.name] for c in schema)
        return compiled(ordered) is True
