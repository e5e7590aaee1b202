"""Materialized reporting-function views: storage and refresh.

A materialized view keeps its sequence in two places:

* a **storage table** in the warehouse database named ``__mv_<view>``
  with columns ``(partition..., __val)``: the *complete* sequence of each
  partition — header (``1-h..0``), core (``1..n``) and trailer
  (``n+1..n+l``) values — as one dense run, the runs in the ``repr``
  order of their partition keys.  Position ``k`` of a partition is slot
  ``run offset + k - first`` (:meth:`MaterializedSequenceView.run_offset`),
  so the table needs no index.  A relational rewrite (figs. 10/13) reads
  it through a per-query relation that adds the positions.
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

from repro.columns import Column, kind_for_type, run_starts
from repro.core.complete import CompleteSequence
from repro.core.reporting import PartitionData, ReportingSequence
from repro.errors import ViewDefinitionError, ViewError
from repro.relational.engine import Database
from repro.relational.types import FLOAT
from repro.views.definition import SequenceViewDefinition

__all__ = ["MaterializedSequenceView", "storage_runs"]

Key = Tuple[object, ...]


def storage_runs(table, partition_by) -> Dict[Key, Tuple[int, int]]:
    """The ``[lo, hi)`` slots of each run of equal partition keys in a
    storage ``table`` (a key in two runs keeps the last)."""
    keys = [table.column_values(c) for c in partition_by]
    starts = run_starts(keys, len(table))
    pkeys = list(zip(*(c.take(starts).to_pylist() for c in keys))) or [()] * len(starts)
    return dict(zip(pkeys, zip(starts.tolist(), [*starts[1:].tolist(), len(table)])))


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
        fresh recomputation; maintained storage is slot for slot what a
        refresh builds, so that reproduces a live table.  What rehydration
        still keeps is the dump's own values: ``repro verify`` checks them,
        and WAL recovery replays digest-checked records on top of them.
        Partitions, ordering keys and raw values come from the base table
        (:meth:`ReportingSequence.from_columns`); each partition's sequence
        is its run of ``__val``.  A run that is missing or of another
        length reads NaN, which verify reports.

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
        view.reporting = view.recompute()
        storage = db.table(d.storage_table)
        runs = storage_runs(storage, d.partition_by)
        values = storage.column_values("__val").as_float64(math.nan)
        for pkey, part in view.reporting.partitions.items():
            first, last = part.seq.stored_range
            lo, hi = runs.get(pkey, (0, 0))
            size = last - first + 1
            stored = values[lo:hi] if hi - lo == size else np.full(size, math.nan)
            part.seq = CompleteSequence(d.window, d.aggregate, part.seq.n, stored, complete)
        return view

    # -- storage ------------------------------------------------------------------

    def _create_storage(self, table_name: str):
        """Create an empty storage table under ``table_name``: the
        partition-key columns and ``__val``, no index."""
        d = self.definition
        schema = self.db.table(d.base_table).schema
        columns = [(c, schema.column(c).type) for c in d.partition_by]
        return self.db.create_table(table_name, columns + [("__val", FLOAT)])

    def run_offset(self, partition_key: Key) -> int:
        """The storage slot of partition ``partition_key``'s first stored
        position: the length of the runs before it, in mirror order.

        Raises:
            ViewError: the view has no such partition.
        """
        offset = 0
        for key, part in self.reporting.partitions.items():
            if key == partition_key:
                return offset
            first, last = part.seq.stored_range
            offset += last - first + 1
        raise ViewError(f"view {self.name!r} has no partition {partition_key!r}")

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
        reporting = self.recompute(columns)
        shadow_name = f"{d.storage_table}__e{self.epoch + 1}"
        self.db.drop_table(shadow_name, if_exists=True)  # stale failed shadow
        shadow = self._create_storage(shadow_name)
        try:
            shadow.append_columns(self._storage_columns(reporting, shadow.schema))
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
        """The storage table's columns for a (staged) mirror: each
        partition's key repeated over its run, and ``__val`` the runs'
        stored values.  An armed ``refresh_write`` fault hook sees each
        position first."""
        from repro.faults import injector

        seqs = [part.seq for part in reporting.partitions.values()]
        hook = injector.refresh_write_hook(self.name)
        for position in (p for seq in seqs for p in seq.positions()) if hook is not None else ():
            hook(position)
        lengths = [last - first + 1 for first, last in (seq.stored_range for seq in seqs)]
        owner = np.repeat(np.arange(len(seqs)), lengths)
        keys = [
            Column.from_values([pkey[i] for pkey in reporting.partitions],
                               kind_for_type(c.type.name)).take(owner)
            for i, c in enumerate(schema.columns[:-1])
        ]
        values = [seq.span(*seq.stored_range) for seq in seqs]
        return keys + [Column(np.concatenate([np.empty(0), *values]))]

    def recompute(self, columns: Optional[Dict[str, Column]] = None) -> ReportingSequence:
        """The view's sequence computed from base rows: ``columns`` (one per
        base column), or the rows it selects now."""
        d = self.definition
        return ReportingSequence.from_columns(
            columns or self._base_columns(), d.value_col, partition_by=d.partition_by,
            order_by=d.order_by, window=d.window, aggregate=d.aggregate, complete=self.complete,
        )

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
