"""The four workloads: what is built, which ops run, how replies are checked.

Op counts and mix are fixed here.  ``--seed`` changes table values, the
keys that writes and range reads touch, and the order of the ops; it never
changes how many ops of each kind run.  ``scale`` is
``--seconds / NOMINAL_SECONDS`` and multiplies op counts only; table sizes
stay, so a short run exercises the same code at the same sizes.

The program receives generated inputs and default options only: no
``mode=``, ``algorithm=``, ``planner=`` or ``window_strategy=`` is passed
anywhere in this file.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from clock import CALIBRATION_WINDOW, calibration_sample, speed_factor
from crashimage import FsyncLog, crash_image, disk_bytes
from oracle import Model, WindowQuery, rows_match, value_match

from repro import DataWarehouse
from repro.core.window import WindowSpec
from repro.obs import runtime
from repro.replicate import RemoteLink, Replica, Shipper, WriteAheadLog, recovery, wal_path
from repro.serve import ConcurrentWarehouse
from repro.serve.client import ServeClient
from repro.serve.server import ServeServer

# Op counts below take about this long at the commit that added the
# benchmark; BENCHMARK.json's run_seconds is the same number.
NOMINAL_SECONDS = 20

SEQ_COLUMNS = [("pos", "INTEGER"), ("val", "FLOAT")]
TX_COLUMNS = [("cust", "INTEGER"), ("day", "INTEGER"), ("amt", "FLOAT")]
USER_BYTES_PER_ROW = 16  # one 8-byte key and one 8-byte measure

# A bulk insert commits as one WAL record and one `ship` line; the replica
# server's stream reader refuses lines over 64 KiB, so loads are chunked.
LOAD_CHUNK_ROWS = 500


@dataclass(frozen=True)
class Op:
    cls: str  # "read", "write" or "checkpoint"
    template: str
    query: Optional[WindowQuery] = None
    key: int = 0
    value: float = 0.0
    window: Optional[Tuple[int, int]] = None


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def _round_robin(templates: List[WindowQuery], count: int) -> List[Op]:
    return [
        Op("read", t.template, query=t)
        for t in (templates[i % len(templates)] for i in range(count))
    ]


def _seq_rows(rng: random.Random, n: int, step: int = 1) -> List[Tuple]:
    return [(step * (i + 1), rng.uniform(0.0, 100.0)) for i in range(n)]


def _tx_rows(rng: random.Random, custs: int, days: int) -> List[Tuple]:
    return [
        (c, d, rng.uniform(0.0, 100.0))
        for c in range(1, custs + 1)
        for d in range(1, days + 1)
    ]


class Workload:
    """One workload: build it, list its ops, run and check each op."""

    name = ""

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale
        self.model = Model()
        self.fsyncs = FsyncLog()
        self.failures: List[str] = []

    def _rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{purpose}")

    # Subclasses implement these.
    def build(self, home: str) -> None:
        raise NotImplementedError

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def execute(self, op: Op) -> Any:
        raise NotImplementedError

    def check(self, op: Op, reply: Any) -> bool:
        """Is the reply right?  Also applies an acknowledged write to the model."""
        raise NotImplementedError

    def positions(self, op: Op, reply: Any) -> int:
        """Sequence positions the reply returned."""
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Exact counts so far (the driver takes deltas over the ops)."""
        rejections = runtime.get_registry().counter(
            "repro_serve_admission_rejections_total").value
        return {"fsyncs": self.fsyncs.count, "rejections": rejections}

    def finish(self, tracer=None) -> Dict[str, float]:
        """After the last op: post-phase checks; returns extra metrics."""
        return {}

    def close(self) -> None:
        raise NotImplementedError


class _Served(Workload):
    """A ``ServeClient`` -> ``ServeServer`` -> ``ConcurrentWarehouse`` stack."""

    def _serve(self, warehouse: ConcurrentWarehouse) -> None:
        self.primary = warehouse
        self.server = ServeServer(warehouse, name="primary").start()
        self.client = ServeClient("127.0.0.1", self.server.port, timeout=150.0)

    def _warm(self, templates: List[WindowQuery]) -> None:
        for template in templates:
            self.client.query(template.sql())

    def execute(self, op: Op) -> Any:
        return self.client.query(op.query.sql())

    def check(self, op: Op, reply: Any) -> bool:
        return rows_match(reply["rows"], self.model.expected(op.query))

    def positions(self, op: Op, reply: Any) -> int:
        return len(reply["rows"])

    def close(self) -> None:
        self.client.close()
        self.server.stop()


class ScanNative(_Served):
    """Read-only full-sequence window queries with no view registered."""

    name = "scan_native"
    SEQ_ROWS = 10_000
    TX_SHAPE = (100, 100)
    QUERIES = 400
    TEMPLATES = [
        WindowQuery("sum_narrow", "seq", "SUM", 3, 2),
        WindowQuery("avg_narrow", "seq", "AVG", 5, 5),
        WindowQuery("count_narrow", "seq", "COUNT", 2, 2),
        WindowQuery("min_w61", "seq", "MIN", 30, 30),
        WindowQuery("max_w301", "seq", "MAX", 150, 150),
        WindowQuery("max_w3001", "seq", "MAX", 1500, 1500),
        WindowQuery("cumulative_sum", "seq", "SUM", None, 0),
        WindowQuery("partitioned_sum", "tx", "SUM", 3, 3, partitioned=True),
    ]

    def _load(self) -> ConcurrentWarehouse:
        rng = self._rng("data")
        cw = ConcurrentWarehouse()
        seq = _seq_rows(rng, self.SEQ_ROWS)
        tx = _tx_rows(rng, *self.TX_SHAPE)
        cw.create_table("seq", SEQ_COLUMNS, primary_key=["pos"])
        cw.insert("seq", seq)
        cw.create_table("tx", TX_COLUMNS, primary_key=["cust", "day"])
        cw.insert("tx", tx)
        self.model.load("seq", seq)
        self.model.load("tx", tx)
        return cw

    def build(self, home: str) -> None:
        self._serve(self._load())
        self._warm(self.TEMPLATES)

    def ops(self) -> List[Op]:
        ops = _round_robin(self.TEMPLATES, _scaled(self.QUERIES, self.scale))
        self._rng("ops").shuffle(ops)
        return ops


class DeriveViews(ScanNative):
    """Read-only queries that a registered view can answer, in two classes."""

    name = "derive_views"
    SMALL_ROWS = 200
    LARGE_QUERIES = 192
    SMALL_QUERIES = 64
    VIEWS = [
        WindowQuery("v_max", "seq", "MAX", 4, 2),
        WindowQuery("v_sum", "seq", "SUM", 4, 2),
        WindowQuery("v_cnt", "seq", "COUNT", 4, 2),
        WindowQuery("v_txcum", "tx", "SUM", None, 0, partitioned=True),
        WindowQuery("v_small", "seq_s", "SUM", 2, 1),
    ]
    LARGE = [
        WindowQuery("max_from_max_view", "seq", "MAX", 6, 3),
        WindowQuery("avg_from_sum_count", "seq", "AVG", 6, 3),
        WindowQuery("sliding_from_cumulative", "tx", "SUM", 3, 3, partitioned=True),
        WindowQuery("partition_reduction", "tx", "SUM", 2, 2),
        WindowQuery("identity_hit", "seq", "SUM", 4, 2),
    ]
    # SUM targets over the small SUM(2,1) view.  The default planner gives
    # every one of them MinOA as a relational pattern, the O(n^2) route.
    # Targets with (dl + dh) % 4 == 0 are left out: the pattern rejects
    # them and the engine falls back to memory, a different class.
    SMALL = [
        WindowQuery("small_sum_3_2", "seq_s", "SUM", 3, 2),
        WindowQuery("small_sum_4_2", "seq_s", "SUM", 4, 2),
        WindowQuery("small_sum_5_3", "seq_s", "SUM", 5, 3),
        WindowQuery("small_sum_6_2", "seq_s", "SUM", 6, 2),
    ]

    def build(self, home: str) -> None:
        cw = self._load()
        small = _seq_rows(self._rng("small"), self.SMALL_ROWS)
        cw.create_table("seq_s", SEQ_COLUMNS, primary_key=["pos"])
        cw.insert("seq_s", small)
        self.model.load("seq_s", small)
        for view in self.VIEWS:
            cw.create_view(view.template, view.sql())
        self._serve(cw)
        self._warm(self.LARGE + self.SMALL)

    def ops(self) -> List[Op]:
        ops = _round_robin(self.LARGE, _scaled(self.LARGE_QUERIES, self.scale))
        ops += _round_robin(self.SMALL, _scaled(self.SMALL_QUERIES, self.scale))
        self._rng("ops").shuffle(ops)
        return ops


def _range_templates(rows: int) -> List[Tuple[str, str, int, int]]:
    return [
        (f"range{rows}_sum", "SUM", 3, 1),
        (f"range{rows}_max", "MAX", 2, 2),
        (f"range{rows}_avg", "AVG", 4, 4),
    ]


def _range_read(template, keys: List[int], rng: random.Random, rows: int) -> Op:
    name, func, l, h = template
    first = rng.randrange(0, len(keys) - rows + 1)
    query = WindowQuery(name, "seq", func, l, h,
                        lo=keys[first], hi=keys[first + rows - 1])
    return Op("read", name, query=query)


class MaintainDurable(_Served):
    """Point writes and range reads on a WAL-backed primary with one
    synchronous replica; then a crash image and a timed recovery."""

    name = "maintain_durable"
    ROWS = 1_000
    KEY_STEP = 10  # sparse keys, so inserts land between existing rows
    WRITES = 240   # 60% update_measure, 20% insert_row, 20% delete_row
    READS = 720    # three 2 ms reads per write: enough samples for a steady mean
    RANGE_ROWS = 100
    VIEWS = [
        WindowQuery("v_sum", "seq", "SUM", 4, 2),
        WindowQuery("v_max", "seq", "MAX", 4, 2),
    ]

    def build(self, home: str) -> None:
        self.home = home
        self.replica = Replica(name="replica")
        self.replica_server = ServeServer(replica=self.replica, name="replica").start()
        self.wal = WriteAheadLog(wal_path(home))
        cw = ConcurrentWarehouse(wal=self.wal)
        self.link = RemoteLink("127.0.0.1", self.replica_server.port, name="replica")
        self.shipper = Shipper(cw, [self.link], min_insync=1)
        rows = _seq_rows(self._rng("data"), self.ROWS, self.KEY_STEP)
        cw.create_table("seq", SEQ_COLUMNS, primary_key=["pos"])
        for start in range(0, len(rows), LOAD_CHUNK_ROWS):
            cw.insert("seq", rows[start:start + LOAD_CHUNK_ROWS])
        self.model.load("seq", rows)
        for view in self.VIEWS:
            cw.create_view(view.template, view.sql())
        self._serve(cw)
        # Warm every read template and every kind of write; the three
        # writes cancel out, so the model is unchanged.
        keys = self.model.keys("seq")
        rng = self._rng("warm")
        for template in _range_templates(self.RANGE_ROWS):
            self.execute(_range_read(template, keys, rng, self.RANGE_ROWS))
        first = keys[0]
        self.execute(Op("write", "update_measure", key=first,
                        value=self.model.value("seq", first)))
        self.execute(Op("write", "insert_row", key=first + 1, value=1.0))
        self.execute(Op("write", "delete_row", key=first + 1))
        self.epoch = cw.epochs.latest_epoch
        self.lag_max = 0
        self.wal_bytes_start = disk_bytes(wal_path(home))

    def ops(self) -> List[Op]:
        rng = self._rng("ops")
        writes = _scaled(self.WRITES, self.scale)
        kinds = (["update_measure"] * round(writes * 0.6)
                 + ["insert_row"] * round(writes * 0.2))
        kinds += ["delete_row"] * (writes - len(kinds))
        slots = kinds + ["read"] * _scaled(self.READS, self.scale)
        rng.shuffle(slots)
        keys = self.model.keys("seq")
        free = [k + offset for k in keys for offset in range(1, self.KEY_STEP)]
        templates = _range_templates(self.RANGE_ROWS)
        ops: List[Op] = []
        written = reads = 0
        for slot in slots:
            if slot == "read":
                template = templates[reads % len(templates)]
                ops.append(_range_read(template, keys, rng, self.RANGE_ROWS))
                reads += 1
                continue
            if slot == "insert_row":
                key = free.pop(rng.randrange(len(free)))
                keys.append(key)
                keys.sort()
            elif slot == "delete_row":
                key = keys.pop(rng.randrange(len(keys)))
            else:
                key = keys[rng.randrange(len(keys))]
            ops.append(Op("write", slot, key=key, value=rng.uniform(0.0, 100.0)))
            written += 1
            if written == writes // 2:
                ops.append(Op("checkpoint", "save"))
        return ops

    def execute(self, op: Op) -> Any:
        if op.cls == "read":
            return self.client.query(op.query.sql())
        if op.template == "update_measure":
            return self.client.update_measure(
                "seq", keys={"pos": op.key}, value_col="val", new_value=op.value)
        if op.template == "insert_row":
            return self.client.insert_row("seq", [op.key, op.value])
        if op.template == "delete_row":
            return self.client.delete_row("seq", keys={"pos": op.key})
        return self.primary.save(self.home)

    def check(self, op: Op, reply: Any) -> bool:
        if op.cls == "read":
            return super().check(op, reply)
        if op.cls == "checkpoint":
            return os.path.exists(os.path.join(self.home, "catalog.json"))
        # The write was acknowledged: it is now part of what must survive.
        if op.template == "update_measure":
            self.model.update("seq", op.key, op.value)
        elif op.template == "insert_row":
            self.model.insert("seq", op.key, op.value)
        else:
            self.model.delete("seq", op.key)
        self.epoch += 1
        self.lag_max = max(self.lag_max, self.shipper.lag("replica"))
        return reply == self.epoch

    def positions(self, op: Op, reply: Any) -> int:
        return len(reply["rows"]) if op.cls == "read" else 0

    def counters(self) -> Dict[str, float]:
        return {
            **super().counters(),
            "wal_bytes": disk_bytes(wal_path(self.home)) - self.wal_bytes_start,
            "lag_epochs_max": self.lag_max,
        }

    def _state_matches(self, warehouse, label: str) -> bool:
        rows = [tuple(r) for r in warehouse.query("SELECT pos, val FROM seq").rows]
        identity = self.VIEWS[0]
        derived = warehouse.query(identity.sql())
        ok = (sorted(rows) == self.model.rows("seq")
              and derived.rewrite is not None
              and rows_match(derived.rows, self.model.expected(identity)))
        if not ok:
            self.failures.append(f"{label} does not equal the model of acked writes")
        return ok

    def finish(self, tracer=None) -> Dict[str, float]:
        """Abandon the primary without close(), recover from flushed bytes."""
        stored = disk_bytes(self.home)
        image = self.home + ".crash"
        cut = crash_image(self.home, image, self.fsyncs)
        calibration = [calibration_sample() for _ in range(CALIBRATION_WINDOW)]
        root = tracer.begin_op(-2) if tracer is not None else None
        started = time.perf_counter()
        report = recovery.recover(image)  # via the module, so the traced run sees it
        recover_s = time.perf_counter() - started
        if root is not None:
            tracer.end_op(root)
        calibration += [calibration_sample() for _ in range(CALIBRATION_WINDOW)]
        recover_s *= speed_factor(calibration)
        recovered = report.warehouse
        try:
            if not report.clean or report.last_epoch != self.epoch:
                self.failures.append(
                    f"recovery ended at epoch {report.last_epoch} "
                    f"(clean={report.clean}), primary acked {self.epoch}")
            self._state_matches(recovered, "recovered warehouse")
        finally:
            recovered.wal.close()
        if self.replica.applied_epoch != self.epoch:
            self.failures.append("replica did not ack the last epoch")
        self._state_matches(self.replica.warehouse, "replica")
        return {
            "recover_s": recover_s,
            "replayed_records": float(len(report.replayed)),
            "stored_bytes_per_user_byte":
                stored / (USER_BYTES_PER_ROW * self.model.live_rows()),
            "crash_cut_bytes": float(cut["cut_bytes"]),
            "crash_never_synced_bytes": float(cut["never_synced_bytes"]),
        }

    def close(self) -> None:
        super().close()
        self.shipper.close()
        self.replica_server.stop()
        self.wal.close()


class PagedMixed(Workload):
    """Embedded warehouse over a paged (format v4) dump, with a buffer pool
    an eighth of the dump: the one workload larger than the program's cache.

    Embedded because ``ConcurrentWarehouse.load`` takes no
    ``memory_budget_bytes``, so the serve tier cannot host a paged table.
    """

    name = "paged_mixed"
    ROWS = 20_000
    OPS = 1_000  # 50% range reads, 10% full scans, 20% point reads, 20% updates
    RANGE_ROWS = 200
    VIEW = WindowQuery("v_sum", "seq", "SUM", 2, 1)
    DERIVED_WINDOW = (4, 2)
    FULL_SCANS = [
        WindowQuery("full_avg", "seq", "AVG", 3, 1),
        WindowQuery("full_count", "seq", "COUNT", 2, 2),
    ]

    def build(self, home: str) -> None:
        self.home = home
        rows = _seq_rows(self._rng("data"), self.ROWS)
        source = DataWarehouse()
        source.create_table("seq", SEQ_COLUMNS, primary_key=["pos"])
        source.insert("seq", rows)
        source.create_view(self.VIEW.template, self.VIEW.sql())
        source.save(home, storage_format=4)
        self.model.load("seq", rows)
        self.dump_bytes = disk_bytes(home)
        self.warehouse = DataWarehouse.load(
            home, memory_budget_bytes=self.dump_bytes // 8)
        self.pool = self.warehouse.db.buffer_pool
        rng = self._rng("warm")
        keys = self.model.keys("seq")
        for template in _range_templates(self.RANGE_ROWS):
            self.execute(_range_read(template, keys, rng, self.RANGE_ROWS))
        for query in self.FULL_SCANS:
            self.execute(Op("read", query.template, query=query))
        self.execute(Op("read", "value_at", key=keys[0]))
        self.execute(Op("read", "value_at_derived", key=keys[0],
                        window=self.DERIVED_WINDOW))
        self.execute(Op("write", "update_measure", key=keys[0],
                        value=self.model.value("seq", keys[0])))

    def ops(self) -> List[Op]:
        rng = self._rng("ops")
        total = _scaled(self.OPS, self.scale)
        keys = self.model.keys("seq")
        templates = _range_templates(self.RANGE_ROWS)
        ops = [
            _range_read(templates[i % len(templates)], keys, rng, self.RANGE_ROWS)
            for i in range(round(total * 0.5))
        ]
        ops += _round_robin(self.FULL_SCANS, round(total * 0.1))
        for i in range(round(total * 0.2)):
            key = keys[rng.randrange(len(keys))]
            ops.append(Op("read", "value_at_derived", key=key, window=self.DERIVED_WINDOW)
                       if i % 2 else Op("read", "value_at", key=key))
        # A page is a JSON chunk in a fixed slot; a value whose text is longer
        # than the one it replaces can over-fill it, and the table then
        # hydrates into memory for good.  Six decimals never outgrow the
        # 15-18 digits of the loaded values, so the workload stays paged.
        while len(ops) < total:
            ops.append(Op("write", "update_measure", key=keys[rng.randrange(len(keys))],
                          value=round(rng.uniform(0.0, 100.0), 6)))
        rng.shuffle(ops)
        return ops

    def execute(self, op: Op) -> Any:
        if op.query is not None:
            return self.warehouse.query(op.query.sql())
        if op.cls == "write":
            return self.warehouse.update_measure(
                "seq", keys={"pos": op.key}, value_col="val", new_value=op.value)
        if op.window is None:
            return self.warehouse.value_at(self.VIEW.template, op.key)
        return self.warehouse.value_at(
            self.VIEW.template, op.key, window=WindowSpec.sliding(*op.window))

    def check(self, op: Op, reply: Any) -> bool:
        if op.query is not None:
            return rows_match(reply.rows, self.model.expected(op.query))
        if op.cls == "write":
            self.model.update("seq", op.key, op.value)
            return all(not isinstance(r, Exception) for r in reply)
        l, h = op.window or (self.VIEW.l, self.VIEW.h)
        return value_match(reply, self.model.point("seq", op.key, l, h))

    def positions(self, op: Op, reply: Any) -> int:
        if op.cls == "write":
            return 0
        return len(reply.rows) if op.query is not None else 1

    def counters(self) -> Dict[str, float]:
        pool = self.pool.snapshot()
        return {
            **super().counters(),
            "pool_hits": pool["hits"],
            "pages_read": pool["misses"],
            "evictions": pool["evictions"],
            "writebacks": pool["writebacks"],
        }

    def finish(self, tracer=None) -> Dict[str, float]:
        if not getattr(self.warehouse.db.table("seq"), "is_paged", False):
            self.failures.append("table 'seq' was hydrated: the workload is no longer paged")
        self.pool.flush()  # dirty frames reach the overlay before it is sized
        stored = disk_bytes(os.path.dirname(self.home))
        return {
            "stored_bytes_per_user_byte":
                stored / (USER_BYTES_PER_ROW * self.model.live_rows()),
            "pool_budget_bytes": float(self.pool.memory_budget_bytes),
            "paged_bytes_over_pool_budget":
                os.path.getsize(os.path.join(self.home, "data", "seq.pages"))
                / self.pool.memory_budget_bytes,
        }

    def close(self) -> None:
        self.pool.close()


WORKLOADS = {w.name: w for w in (ScanNative, DeriveViews, MaintainDurable, PagedMixed)}
