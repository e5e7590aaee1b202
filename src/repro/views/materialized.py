"""Materialized reporting-function views: storage and refresh.

A materialized view keeps its sequence in two places:

* a **storage table** in the warehouse database named
  ``__mv_<view>`` with columns ``(partition..., order..., pos, val)`` —
  the *complete* sequence per partition, i.e. core positions ``1..n`` plus
  header (``1-h..0``) and trailer (``n+1..n+l``) rows whose ordering
  columns are NULL.  The relational rewrite patterns (figs. 10/13) run
  against this table.
* an in-memory :class:`~repro.core.reporting.ReportingSequence` mirror used
  by the in-memory derivation forms, by incremental maintenance, and to
  label derived values with their original ordering keys.  Each of its
  partitions holds the raw values next to the ordering keys and the
  sequence: maintenance edits them and recomputes its band from them.

``refresh()`` rebuilds both from the base table; the incremental
maintenance entry points in :mod:`repro.views.maintenance` keep them in
sync under point updates/inserts/deletes.

Refresh is **crash-consistent**: every rebuild is staged into an
epoch-versioned *shadow* storage table (``__mv_<view>__e<epoch>``) and the
in-memory mirror replacement is prepared on the side; only when the
shadow is complete does a single atomic commit — a catalog rename plus
two attribute rebindings — publish the new epoch.  An interruption at
*any* point (including the injected ``refresh_interrupt`` fault) leaves the
view wholly at the old epoch, never a torn band; the half-built shadow is
dropped.

Views also carry **quarantine** state: when verification finds
discrepancies or a refresh/maintenance step fails, the warehouse marks the
view quarantined, the matcher stops offering it to the rewriter (queries
transparently fall back to base data), and ``repair()`` — a refresh plus a
re-verify — reinstates it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.columns import Column, kind_for_type
from repro.core.complete import CompleteSequence
from repro.core.reporting import PartitionData, ReportingSequence
from repro.errors import ViewDefinitionError, ViewError
from repro.relational.engine import Database
from repro.relational.types import BOOLEAN, FLOAT, INTEGER
from repro.views.definition import SequenceViewDefinition

__all__ = ["MaterializedSequenceView"]

Key = Tuple[object, ...]


class MaterializedSequenceView:
    """One materialized reporting-function view inside a warehouse."""

    def __init__(
        self,
        db: Database,
        definition: SequenceViewDefinition,
        *,
        complete: bool = True,
    ) -> None:
        self.db = db
        self.definition = definition
        self.complete = complete
        self.reporting: Optional[ReportingSequence] = None
        # Epoch counter: bumped by every committed refresh.  Epoch 0 means
        # "never refreshed" — the storage table does not exist yet.
        self.epoch = 0
        self.quarantined = False
        self.quarantine_reason: Optional[str] = None
        self.refresh()

    # -- construction from an existing dump -----------------------------------

    @classmethod
    def from_storage(
        cls,
        db: Database,
        definition: SequenceViewDefinition,
        *,
        complete: bool = True,
    ) -> "MaterializedSequenceView":
        """Rehydrate a view from its dumped storage table, *without* a
        refresh.

        ``DataWarehouse.load`` normally replaces dumped storage with a
        fresh recomputation, which guarantees base/view consistency.
        Maintained values equal a recompute's bit for bit, but not the
        storage table's slot order: an insert into a partitioned view
        appends the partition's new last row at the end of the table.
        Recovery replays a WAL whose records carry digests of the
        *primary's live* tables, and ``repro verify`` checks the dump's own
        values, so both keep the dumped table; this constructor wraps the
        stored values via :meth:`CompleteSequence.from_values` instead of
        recomputing.

        Raises:
            ViewError: the storage table is missing (never refreshed).
        """
        d = definition
        if not db.catalog.has_table(d.storage_table):
            raise ViewError(
                f"cannot rehydrate view {d.name!r}: storage table "
                f"{d.storage_table!r} is not in the dump"
            )
        view = cls.__new__(cls)
        view.db = db
        view.definition = definition
        view.complete = complete
        view.quarantined = False
        view.quarantine_reason = None
        view.epoch = 1
        view._index_storage(db.table(d.storage_table))

        # Raw values come from the base table — base rows round-trip the
        # dump exactly, so these are the same floats maintenance last saw.
        # A key the base table lacks reads NaN, which verify reports.
        base: Dict[Key, Dict[Key, float]] = {}
        p, arity = len(d.partition_by), len(d.partition_by) + len(d.order_by)
        columns = view._base_columns()
        for row in zip(*(columns[c].to_pylist() for c in (*d.partition_by, *d.order_by, d.value_col))):
            base.setdefault(row[:p], {})[row[p:-1]] = float(row[-1])
        groups: Dict[Key, List[tuple]] = {}
        for row in db.table(d.storage_table).rows:  # (partition, order, __pos, __val, __core)
            groups.setdefault(row[:p], []).append(row)
        partitions: Dict[Key, PartitionData] = {}
        for pkey, rows in groups.items():
            rows.sort(key=lambda row: row[arity])
            order_keys = [row[p:arity] for row in rows if row[-1]]
            seq = CompleteSequence.from_values(
                d.window, d.aggregate, len(order_keys),
                [row[arity:arity + 2] for row in rows], complete=complete,
            )
            raw = base.get(pkey, {})
            partitions[pkey] = PartitionData(
                order_keys, seq, [raw.get(okey, math.nan) for okey in order_keys]
            )
        view.reporting = ReportingSequence(
            d.partition_by, d.order_by, d.window, d.aggregate, partitions
        )
        return view

    # -- storage ------------------------------------------------------------------

    def _create_storage(self, table_name: str):
        """Create an (empty, unindexed) storage table under ``table_name``;
        :meth:`_index_storage` indexes it once its rows are in."""
        d = self.definition
        schema = self.db.table(d.base_table).schema
        columns = [(c, schema.column(c).type) for c in (*d.partition_by, *d.order_by)]
        # __core: True for core positions 1..n, False for header/trailer
        # rows; the relational patterns filter on it (per-partition n varies).
        columns += [("__pos", INTEGER), ("__val", FLOAT), ("__core", BOOLEAN)]
        return self.db.create_table(table_name, columns)

    def _index_storage(self, table) -> None:
        """Create the storage indexes ``table`` lacks (none after a load:
        they travel with a dump; maintenance finds its rows through them),
        each with one sort of the rows already in it.

        Index names always use the canonical storage prefix so a shadow
        table carries identical index structure to the table it replaces.
        """
        d = self.definition
        # The paper's Table 2 setting: primary-key index over the position.
        wanted = {f"{d.storage_table}_pk": (list(d.partition_by) + ["__pos"], True)}
        if d.partition_by:
            # A plain position index serves single-partition probes too.
            wanted[f"{d.storage_table}_pos"] = (["__pos"], False)
        for name, (columns, unique) in wanted.items():
            if name not in table.indexes:
                table.create_index(name, columns, kind="sorted", unique=unique)

    def refresh(self) -> None:
        """Full recomputation from the base table (section 2.3's baseline).

        Crash-consistent: the new state is staged completely — the mirror
        and an epoch-versioned shadow storage table — before a single
        atomic commit swaps it in.  Any exception before the commit
        (an injected interruption, a NULL measure, ...) drops the shadow and
        leaves every representation at the old epoch.
        """
        from repro.obs import runtime

        with runtime.get_tracer().span(
            "view.refresh", view=self.name, epoch=self.epoch + 1
        ) as span:
            self._refresh_staged(span)
        runtime.get_registry().counter(
            "repro_views_refreshes_total",
            help="Committed full view refreshes",
        ).inc()

    def _refresh_staged(self, span) -> None:
        from repro.faults import injector

        d = self.definition
        injector.check("refresh_begin", self.name)
        columns = self._base_columns()
        if columns[d.value_col].null_count:
            raise ViewDefinitionError(
                f"view {self.name!r}: measure column {d.base_table}.{d.value_col} "
                "holds a NULL in a row the view selects; a reporting sequence "
                "has no NULL position"
            )
        reporting = ReportingSequence.from_columns(
            columns,
            d.value_col,
            partition_by=d.partition_by,
            order_by=d.order_by,
            window=d.window,
            aggregate=d.aggregate,
            complete=self.complete,
        )
        shadow_name = f"{d.storage_table}__e{self.epoch + 1}"
        self.db.drop_table(shadow_name, if_exists=True)  # stale failed shadow
        shadow = self._create_storage(shadow_name)
        try:
            shadow.append_columns(self._storage_columns(reporting, shadow.schema))
            self._index_storage(shadow)
            injector.check("refresh_commit", self.name)
        except BaseException:
            self.db.drop_table(shadow_name, if_exists=True)
            raise
        # -- commit point: from here on the swap is a handful of atomic
        # rebindings; no partially-visible state exists on either side.
        self.db.rename_table(shadow_name, d.storage_table, replace=True)
        self.reporting = reporting
        self.epoch += 1
        span.set(partitions=len(reporting.partitions))

    def _storage_columns(self, reporting: ReportingSequence, schema) -> List[Column]:
        """The storage table's columns for a (staged) mirror, partition by
        partition: key columns (order keys NULL on header/trailer rows),
        ``__pos`` a range, ``__val`` the stored array, ``__core`` a mask.
        An armed ``refresh_write`` fault hook sees each position first."""
        from repro.faults import injector

        blank = (None,) * len(self.definition.order_by)
        keys: List[Key] = []
        pos, val, core = [np.empty(0, np.int64)], [np.empty(0)], [np.empty(0, np.bool_)]
        for pkey, part in reporting.partitions.items():
            first, last = part.seq.stored_range
            keys += [pkey + blank] * (1 - first) + [pkey + k for k in part.order_keys]
            keys += [pkey + blank] * (last - part.seq.n)
            pos.append(np.arange(first, last + 1, dtype=np.int64))
            val.append(part.seq.span(first, last))
            core.append((pos[-1] >= 1) & (pos[-1] <= part.seq.n))
        pos = np.concatenate(pos)
        hook = injector.refresh_write_hook(self.name)
        for position in pos.tolist() if hook is not None else ():
            hook(position)
        columns = list(zip(*keys)) or [()] * (len(schema) - 3)
        return [
            Column.from_values(values, kind_for_type(c.type.name))
            for values, c in zip(columns, schema)
        ] + [Column(pos), Column(np.concatenate(val)), Column(np.concatenate(core))]

    def _base_columns(self) -> Dict[str, Column]:
        """The base rows the view selects, one column per base column."""
        d = self.definition
        from repro.relational.operators import Filter, TableScan

        plan = TableScan(self.db.table(d.base_table))
        if d.where is not None:
            plan = Filter(plan, d.where)
        result = self.db.run(plan)
        return dict(zip(result.columns, result.as_columns().columns))

    # -- quarantine ------------------------------------------------------------------

    def quarantine(self, reason: str) -> None:
        """Take the view out of query routing (graceful degradation).

        A quarantined view keeps its storage and mirror (they may be
        wholly intact at the old epoch) but is skipped by the matcher, so
        queries route back to base-data computation until :meth:`repair`
        or the warehouse's ``repair()`` reinstates it.
        """
        self.quarantined = True
        self.quarantine_reason = reason

    def reinstate(self) -> None:
        """Return a (verified) view to query routing."""
        self.quarantined = False
        self.quarantine_reason = None

    def repair(self):
        """Re-refresh, re-verify, and reinstate on success.

        Returns:
            The :class:`~repro.views.verify.ConsistencyReport` of the
            post-refresh verification; the view is reinstated only when it
            is clean.
        """
        from repro.views.verify import verify_view

        self.refresh()
        report = verify_view(self)
        if report.ok:
            self.reinstate()
        else:  # pragma: no cover - refresh rebuilds from base, so only a
            # concurrent base mutation could leave this dirty
            self.quarantine(f"repair verification failed: {report.summary()}")
        return report

    # -- inspection ------------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.definition.name

    @property
    def is_partitioned(self) -> bool:
        return bool(self.definition.partition_by)

    def partition_sizes(self) -> Dict[Key, int]:
        assert self.reporting is not None
        return {k: p.seq.n for k, p in self.reporting.partitions.items()}

    def single_partition(self) -> PartitionData:
        """The only partition of an unpartitioned view.

        Raises:
            ViewError: when the view is partitioned or empty.
        """
        assert self.reporting is not None
        if self.is_partitioned:
            raise ViewError(f"view {self.name!r} is partitioned")
        if not self.reporting.partitions:
            raise ViewError(f"view {self.name!r} is empty")
        return self.reporting.partitions[()]

    def sequence(self, partition_key: Key = ()) -> CompleteSequence:
        assert self.reporting is not None
        return self.reporting.partition(partition_key).seq

    def row_count(self) -> int:
        return len(self.db.table(self.definition.storage_table))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f", epoch={self.epoch}"
        if self.quarantined:
            state += f", QUARANTINED ({self.quarantine_reason})"
        return (
            f"MaterializedSequenceView({self.name!r}: "
            f"{self.definition.describe()}{state})"
        )
