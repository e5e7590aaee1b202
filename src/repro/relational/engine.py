"""The database facade: DDL/DML plus plan execution.

:class:`Database` is the engine's user-facing object.  SQL text goes
through :meth:`Database.sql` (which delegates to :mod:`repro.sql`);
programmatic plans built from the operator classes execute via
:meth:`Database.run`.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.columns import Column as DataColumn
from repro.columns import ColumnRows, kind_for_type
from repro.relational.catalog import Catalog, ColumnSpec
from repro.relational.operators import Operator, TableScan
from repro.relational.schema import Schema
from repro.relational.stats import ExecutionStats, Probe
from repro.relational.table import Table

__all__ = ["Database", "Result"]

Row = Tuple[Any, ...]


class Result:
    """Materialized result of one plan execution.

    A result holds either rows or columns.  Built by
    :meth:`from_columns` — what :meth:`Database.run` does when the plan
    stayed columnar, and what the rewriter does — it keeps
    :class:`~repro.columns.Column` objects: ``len``, :meth:`column`,
    :meth:`to_dicts`, :meth:`to_csv`, :meth:`pretty` and
    :meth:`as_columns` read them directly, and :attr:`rows` is a real list
    of tuples built on first access and cached.  That list is the caller's
    to sort or slice — later reads of ``rows`` see it, the column accessors
    do not; assigning ``result.rows`` replaces the result's content and
    drops the columns.  The columns are the result's own: none of them is
    a view of a table's live heap buffer.
    """

    def __init__(
        self,
        schema: Schema,
        rows: List[Row],
        stats: Optional[ExecutionStats] = None,
    ) -> None:
        self.schema = schema
        self.stats = stats if stats is not None else ExecutionStats()
        self._rows: Optional[List[Row]] = rows
        self._columns: Optional[ColumnRows] = None

    @classmethod
    def from_columns(
        cls,
        schema: Schema,
        columns: Sequence[DataColumn],
        stats: Optional[ExecutionStats] = None,
        nrows: Optional[int] = None,
    ) -> "Result":
        """A column-backed result (one column per schema field)."""
        out = cls(schema, None, stats)  # type: ignore[arg-type]
        out._columns = ColumnRows(columns, nrows)
        return out

    @property
    def rows(self) -> List[Row]:
        if self._rows is None:
            self._rows = list(self._columns)
        return self._rows

    @rows.setter
    def rows(self, rows: List[Row]) -> None:
        self._rows = rows
        self._columns = None

    def as_columns(self) -> ColumnRows:
        """The answer column-wise: the held columns, or — for a result
        that was built from rows — one column per field, typed by the
        schema (values that do not fit the type's kind keep their exact
        Python values in an ``object`` column)."""
        if self._columns is not None:
            return self._columns
        return ColumnRows(
            [
                DataColumn.from_values(
                    [row[i] for row in self._rows], kind_for_type(field.type.name)
                )
                for i, field in enumerate(self.schema)
            ],
            len(self._rows),
        )

    @property
    def columns(self) -> List[str]:
        return self.schema.names()

    def __len__(self) -> int:
        return len(self._columns if self._columns is not None else self._rows)

    def __iter__(self):
        return iter(self.rows)

    def first(self) -> Optional[Row]:
        return self.rows[0] if self.rows else None

    def column(self, name: str) -> List[Any]:
        """All values of one output column."""
        i = self.schema.resolve(name)
        if self._columns is not None:
            return self._columns.columns[i].to_pylist()
        return [row[i] for row in self._rows]

    def _row_source(self):
        """Rows to read once without caching a list of them."""
        return self._columns if self._columns is not None else self._rows

    def to_dicts(self) -> List[Dict[str, Any]]:
        names = self.columns
        return [dict(zip(names, row)) for row in self._row_source()]

    def to_csv(self, path: str, *, header: bool = True) -> int:
        """Write the rows as CSV; returns the number of data rows written.

        NULL becomes an empty field; dates use ISO format.
        """
        import csv
        import datetime

        def cell(value: Any) -> Any:
            if value is None:
                return ""
            if isinstance(value, datetime.date):
                return value.isoformat()
            return value

        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            if header:
                writer.writerow(self.columns)
            for row in self._row_source():
                writer.writerow([cell(v) for v in row])
        return len(self)

    def pretty(self, limit: int = 20) -> str:
        """Fixed-width text rendering (for examples and EXPERIMENTS logs)."""
        names = self.columns
        shown = self._row_source()[:limit]
        cells = [[_fmt(v) for v in row] for row in shown]
        widths = [
            max(len(names[i]), *(len(r[i]) for r in cells)) if cells else len(names[i])
            for i in range(len(names))
        ]
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        sep = "-+-".join("-" * w for w in widths)
        body = [" | ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells]
        suffix = [] if len(self) <= limit else [f"... ({len(self)} rows)"]
        return "\n".join([header, sep] + body + suffix)


def _fmt(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


# Tables at or below this row count are re-analyzed on every bulk insert;
# larger tables keep their (now stale) statistics until an explicit ANALYZE,
# so loads stay O(rows) and the planner degrades to rule-based choices.
AUTO_ANALYZE_MAX_ROWS = 200_000


class Database:
    """An in-memory relational database instance."""

    def __init__(self) -> None:
        from repro.stats.catalog import StatsCatalog

        self.catalog = Catalog()
        self.stats = StatsCatalog()
        # Out-of-core knobs: set by load_database() for v4 (paged) dumps,
        # or directly by callers that want bounded-memory execution.
        # memory_budget_bytes caps both buffer-pool residency and operator
        # state (hash-aggregate partitions / window runs spill past it);
        # None keeps the historical unlimited in-memory behaviour.
        self.buffer_pool = None
        self.memory_budget_bytes: Optional[int] = None

    # -- DDL -----------------------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Sequence[ColumnSpec],
        *,
        primary_key: Optional[Sequence[str]] = None,
        if_not_exists: bool = False,
    ) -> Table:
        return self.catalog.create_table(
            name, columns, primary_key=primary_key, if_not_exists=if_not_exists
        )

    def drop_table(self, name: str, *, if_exists: bool = False) -> None:
        self.catalog.drop_table(name, if_exists=if_exists)
        self.stats.drop(name)

    def rename_table(self, old: str, new: str, *, replace: bool = False) -> Table:
        """Atomically rebind a table name (see :meth:`Catalog.rename_table`)."""
        table = self.catalog.rename_table(old, new, replace=replace)
        self.stats.rename(old, new)
        return table

    def create_index(
        self,
        table: str,
        name: str,
        columns: Sequence[str],
        *,
        kind: str = "sorted",
        unique: bool = False,
    ):
        return self.catalog.table(table).create_index(
            name, columns, kind=kind, unique=unique
        )

    def drop_index(self, table: str, name: str) -> None:
        self.catalog.table(table).drop_index(name)

    # -- DML -----------------------------------------------------------------

    def insert(self, table: str, rows: Iterable[Sequence[Any]]) -> int:
        tbl = self.catalog.table(table)
        count = tbl.insert_many(rows)
        if len(tbl) <= AUTO_ANALYZE_MAX_ROWS:
            self.stats.analyze(tbl)
        return count

    def analyze(self, table: Optional[str] = None) -> dict:
        """Collect optimizer statistics for one table (or all of them)."""
        tables = (
            [self.table(table)] if table is not None else list(self.catalog.tables())
        )
        return {t.name: self.stats.analyze(t) for t in tables}

    def table(self, name: str) -> Table:
        return self.catalog.table(name)

    def scan(self, name: str, alias: Optional[str] = None) -> TableScan:
        """A table-scan leaf for programmatic plan building."""
        return TableScan(self.catalog.table(name), alias)

    # -- execution -------------------------------------------------------------

    def run(self, plan: Operator, stats: Optional[ExecutionStats] = None) -> Result:
        """Execute a physical plan and materialize the result.

        When this call creates the stats block (``stats=None``), the
        block's counters are published into the global metrics registry on
        completion — callers that pass their own block call
        :meth:`publish` themselves when it is final (see
        :mod:`repro.obs.runtime`).  With a tracer installed, every plan
        node emits a span (unless the caller's block already has a probe).
        """
        from repro.obs import runtime

        owns_stats = stats is None
        if owns_stats:
            stats = ExecutionStats()
        tracer = runtime.get_tracer()
        with self._budget_scope():
            if tracer.enabled and stats.probe is None:
                stats.probe = Probe(plan, tracer)
                try:
                    with tracer.span("query.run"):
                        result = self._materialize(plan, stats)
                finally:
                    stats.probe = None
            else:
                result = self._materialize(plan, stats)
        if owns_stats:
            self.publish(stats)
        return result

    @staticmethod
    def _materialize(plan: Operator, stats: ExecutionStats) -> Result:
        out = plan.run(stats)
        if isinstance(out, ColumnRows):
            # A column that came through untouched is still a view of the
            # table's heap: the result gets its own copy, so a write made
            # after this returns cannot change the answer.
            return Result.from_columns(
                plan.schema, [c.detached() for c in out.columns], stats, len(out)
            )
        return Result(plan.schema, list(out), stats)

    def _budget_scope(self):
        """Ambient spill budget for one plan execution (no-op when unset)."""
        from contextlib import nullcontext

        if self.memory_budget_bytes is None:
            return nullcontext()
        from repro.storage.spill import engine_budget

        return engine_budget(self.memory_budget_bytes)

    @staticmethod
    def publish(stats: ExecutionStats) -> None:
        """Add one finished execution's counters to the global registry.

        Call it once per stats block: :meth:`run` does for blocks it
        created, the creator does for a block it passed in.
        """
        from repro.obs import runtime

        runtime.publish_stats(stats)
        runtime.get_registry().counter(
            "repro_engine_queries_total",
            help="Plan executions whose stats block the engine owned",
        ).inc()

    def explain(self, plan: Operator) -> str:
        return plan.explain()

    def explain_analyze(self, text: str, **options: Any) -> str:
        """Execute a SELECT and render the plan tree with actual rows,
        per-operator inclusive wall time and strategy decisions."""
        from repro.obs.explain import explain_analyze_plan
        from repro.sql.options import QueryOptions
        from repro.sql.parser import parse_query
        from repro.sql.planner import build_plan

        plan = build_plan(self, parse_query(text), QueryOptions.build(options))
        rendered, _result = explain_analyze_plan(self, plan)
        return rendered

    # -- SQL front door (delegates to repro.sql; import deferred to avoid a
    #    package cycle: repro.sql depends on the relational layer) -------------

    def sql(self, text: str, **options: Any) -> Result:
        """Parse, plan and execute a SQL statement (SELECT or DDL/DML)."""
        from repro.sql.statements import execute_statement, parse_statement

        return execute_statement(self, parse_statement(text), **options)

    def explain_sql(self, text: str, **options: Any) -> str:
        from repro.sql.planner import explain_sql

        return explain_sql(self, text, **options)
