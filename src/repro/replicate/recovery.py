"""Crash recovery: replay the write-ahead epoch log over the last snapshot.

``recover(directory)`` rebuilds a serving warehouse after a crash:

1. open the WAL at ``<directory>/wal`` — this itself repairs a torn tail
   (truncating at most the record whose fsync never completed, never a
   committed epoch);
2. load the last durable snapshot (``save()`` wrote it together with a
   WAL checkpoint; with no checkpoint the log is replayed from scratch
   against an empty warehouse);
3. re-execute every logged epoch after the checkpoint through
   :meth:`ConcurrentWarehouse.apply_record` — each replayed epoch's
   content digest is checked against what the primary recorded at commit
   time, so silent replay divergence cannot slip through (records of an
   older digest scheme are replayed uncompared and counted);
4. audit the kept digest against a from-scratch recomputation, and
   re-verify every materialized view against its definition with the
   existing :mod:`repro.views.verify` machinery;
5. attach the log so new writes continue appending where the old primary
   stopped.

The result is bit-identical to the pre-crash warehouse for every query:
the acceptance tests compare answers against a never-faulted run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.replicate.wal import WriteAheadLog
from repro.serve.concurrent import ConcurrentWarehouse
from repro.warehouse.warehouse import DataWarehouse

__all__ = ["RecoveryReport", "recover", "wal_path"]


def wal_path(directory: str) -> str:
    """The conventional WAL location for a warehouse homed at ``directory``."""
    return os.path.join(directory, "wal")


@dataclass
class RecoveryReport:
    """What recovery found and rebuilt."""

    directory: str
    base_epoch: int                 # snapshot epoch replay started from (0 = none)
    replayed: List[int] = field(default_factory=list)
    unverified_records: int = 0     # replayed without a digest comparison
    truncated_bytes: int = 0        # torn tail removed from the log
    last_epoch: int = 0             # epoch the recovered warehouse serves
    verified: Dict[str, Any] = field(default_factory=dict)
    clean: bool = True              # every view re-verified consistent
    warehouse: Optional[ConcurrentWarehouse] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "directory": self.directory,
            "base_epoch": self.base_epoch,
            "replayed": list(self.replayed),
            "unverified_records": self.unverified_records,
            "truncated_bytes": self.truncated_bytes,
            "last_epoch": self.last_epoch,
            "verified": {k: bool(v) for k, v in self.verified.items()},
            "clean": self.clean,
        }


def recover(directory: str, *, verify: bool = True,
            fsync: bool = True) -> RecoveryReport:
    """Rebuild a :class:`ConcurrentWarehouse` from ``directory`` + its WAL.

    Args:
        directory: warehouse home; the log lives at ``<directory>/wal``.
        verify: re-check every view against its definition after replay.
        fsync: durability mode for the re-attached log.

    Returns:
        A :class:`RecoveryReport` whose ``warehouse`` is live, WAL-attached
        and ready to serve.

    Raises:
        WalCorruptionError: corruption *before* the log's tail — the log
            cannot be trusted and recovery refuses to guess.
        DivergenceError: a replayed epoch's content digest disagrees with
            what the primary recorded when it committed, or the final
            audit of the kept digest failed.
    """
    from repro.obs import runtime

    with runtime.get_tracer().span("replicate.recover", directory=directory):
        wal = WriteAheadLog(wal_path(directory), fsync=fsync)
        base_epoch = wal.checkpoint_epoch()
        has_snapshot = os.path.exists(os.path.join(directory, "catalog.json"))
        if base_epoch > 0 and has_snapshot:
            # Rehydrate views from their dumped storage tables: the WAL's
            # digests hash the primary's live tables in slot order, and an
            # insert into a partitioned view leaves its storage rows in
            # another order than a refresh would (the values are the same).
            inner = DataWarehouse.load(directory, rehydrate=True)
            cw = ConcurrentWarehouse(inner, initial_epoch=base_epoch)
        else:
            # No checkpointed snapshot: the log is the full history.
            base_epoch = 0
            cw = ConcurrentWarehouse()
        report = RecoveryReport(
            directory=directory, base_epoch=base_epoch,
            truncated_bytes=wal.truncated_bytes,
        )
        for record in wal.records(since=cw.epochs.latest_epoch):
            report.unverified_records += not cw.apply_record(record)
            report.replayed.append(record.epoch)
        cw.attach_wal(wal)
        report.last_epoch = cw.epochs.latest_epoch
        report.warehouse = cw
        if verify:
            reports = cw.verify(quarantine=False)  # audits the digest first
            report.verified = {
                name: not r.discrepancies for name, r in reports.items()
            }
            report.clean = all(report.verified.values())
        else:
            cw.audit_digest()
        runtime.event(
            "recover.done", base_epoch=report.base_epoch,
            replayed=len(report.replayed),
            truncated_bytes=report.truncated_bytes, clean=report.clean,
        )
        return report
