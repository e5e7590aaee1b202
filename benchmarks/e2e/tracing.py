"""Spans around the program's public callables, recorded from outside it.

For the traced run a fixed table of ``(metric, module, callable)`` is
wrapped.  Every call made while an op is in flight becomes a span with a
name, start, end, parent and op id; spans stay in memory until the run
ends.  A span's *self time* is its duration minus its children's, and each
span's self time is added to the metric its table row names, so the
per-layer numbers sum back to the traced wall time.

With one closed-loop client there is one chain of activity at any moment,
even where it hops threads (client -> event loop -> worker -> replica), so
a span opened on a thread with no open span of its own is parented to the
most recently opened span anywhere.

Names bound with ``from x import f`` are patched at every import site:
after wrapping, every loaded ``repro`` module is scanned for attributes
that are the original function.  A table row that no longer resolves
raises, so a renamed callable fails the traced run instead of reporting a
silent zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

ROOT = "bench.op"
UNATTRIBUTED = "bench.unattributed"


def _len(result, *_):
    return len(result)


def _response_bytes(result, payload):
    return len(result) if "ok" in payload else 0


# Each row: metric the span's self time is charged to, module, callable, and either
# a function giving the span's count ``n`` from the call's result or "absorb".
# ``absorb`` rows charge their whole subtree to their own metric, so work a
# second node repeats (the replica re-running the commit) is not added to
# the primary's layers.
TABLE = [
    ("serve.protocol_self_ms", "repro.serve.protocol", "decode_line", None),
    ("serve.protocol_self_ms", "repro.serve.protocol", "encode_line", _response_bytes),
    ("serve.protocol_self_ms", "repro.serve.protocol", "result_payload", None),
    ("serve.protocol_self_ms", "repro.serve.client", "ServeClient.call", None),
    ("serve.dispatch_self_ms", "repro.serve.concurrent", "ConcurrentWarehouse.query", None),
    ("serve.dispatch_self_ms", "repro.serve.epochs", "EpochStore.pin", None),
    ("serve.commit_self_ms", "repro.serve.concurrent", "ConcurrentWarehouse.update_measure", None),
    ("serve.commit_self_ms", "repro.serve.concurrent", "ConcurrentWarehouse.insert_row", None),
    ("serve.commit_self_ms", "repro.serve.concurrent", "ConcurrentWarehouse.delete_row", None),
    ("serve.commit_self_ms", "repro.serve.concurrent", "ConcurrentWarehouse.save", None),
    ("serve.commit_self_ms", "repro.serve.epochs", "EpochStore.publish", None),
    ("warehouse.query_self_ms", "repro.warehouse.warehouse", "DataWarehouse.query", None),
    ("warehouse.query_self_ms", "repro.warehouse.warehouse", "DataWarehouse.value_at", None),
    ("views.maintain_self_ms", "repro.warehouse.warehouse", "DataWarehouse.update_measure", None),
    ("views.maintain_self_ms", "repro.warehouse.warehouse", "DataWarehouse.insert_row", None),
    ("views.maintain_self_ms", "repro.warehouse.warehouse", "DataWarehouse.delete_row", None),
    ("views.refresh_self_ms", "repro.warehouse.warehouse", "DataWarehouse.refresh_view", None),
    ("relational.persist", "repro.warehouse.warehouse", "DataWarehouse.save", None),
    ("relational.persist", "repro.warehouse.warehouse", "DataWarehouse.load", None),
    ("sql.parse_self_ms", "repro.sql.parser", "parse_query", None),
    ("sql.plan_self_ms", "repro.sql.planner", "build_plan", None),
    ("sql.rewrite_self_ms", "repro.sql.rewriter", "try_rewrite", None),
    ("views.match_self_ms", "repro.views.matcher", "rank_matches", None),
    ("views.maintain_self_ms", "repro.views.maintenance", "propagate_update", None),
    ("views.maintain_self_ms", "repro.views.maintenance", "propagate_insert", None),
    ("views.maintain_self_ms", "repro.views.maintenance", "propagate_delete", None),
    ("views.refresh_self_ms", "repro.views.materialized", "MaterializedSequenceView.refresh", None),
    ("core.kernel_self_ms", "repro.core.compute", "compute_naive", _len),
    ("core.kernel_self_ms", "repro.core.compute", "compute_pipelined", _len),
    ("core.kernel_self_ms", "repro.core.vectorized", "compute_vectorized", _len),
    ("core.derive_self_ms", "repro.core.derivation", "derive", _len),
    ("core.maintain_self_ms", "repro.core.maintenance", "apply_update",
     lambda r, *_: r.values_touched),
    ("core.maintain_self_ms", "repro.core.maintenance", "apply_insert",
     lambda r, *_: r.values_touched),
    ("core.maintain_self_ms", "repro.core.maintenance", "apply_delete",
     lambda r, *_: r.values_touched),
    ("relational.run_self_ms", "repro.relational.engine", "Database.run", None),
    ("relational.persist", "repro.relational.persist", "save_database", None),
    ("relational.persist", "repro.relational.persist", "load_database", None),
    ("storage.fault_in_self_ms", "repro.storage.buffer_pool", "BufferPool.pin", None),
    ("storage.fault_in_self_ms", "repro.storage.buffer_pool", "BufferPool.get_values", None),
    ("storage.fault_in_self_ms", "repro.storage.buffer_pool", "BufferPool.set_value", None),
    ("storage.fault_in_self_ms", "repro.storage.buffer_pool", "BufferPool.flush", None),
    ("storage.decode", "repro.storage.page", "decode_page", None),
    ("storage.decode", "repro.storage.page", "decode_chunk", lambda r, *_: len(r[1])),
    ("storage.encode", "repro.storage.page", "encode_page", None),
    ("replicate.wal_append_self_ms", "repro.replicate.wal", "WriteAheadLog.append", None),
    ("replicate.wal_append_self_ms", "repro.replicate.wal", "WriteAheadLog.checkpoint", None),
    ("replicate.digest_self_ms", "repro.replicate.wal", "state_digest", None),
    ("replicate.ship_self_ms", "repro.replicate.shipper", "Shipper.on_commit", "absorb"),
    ("replicate.replica_apply_ms", "repro.replicate.replica", "Replica.apply", "absorb"),
    ("replicate.recover", "repro.replicate.recovery", "recover", None),
    ("replicate.replay", "repro.serve.concurrent", "ConcurrentWarehouse.apply_record", None),
    ("parallel.tasks", "repro.parallel.executor", "ExecutorPool.map",
     lambda r, _self, _fn, items: len(r)),
]

METRICS = sorted({row[0] for row in TABLE} | {UNATTRIBUTED})


class Tracer:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self) -> None:
        # span = [name, metric, start, end, parent, op, n, absorb]
        self.spans: List[list] = []
        self.queries: List[dict] = []
        self.active = False
        self.op = -1
        self._open: List[int] = []
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Callable[[], None]] = []

    # -- recording -------------------------------------------------------------

    def _begin(self, name: str, metric: str, absorb: bool) -> int:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        with self._lock:
            parent = stack[-1] if stack else (self._open[-1] if self._open else -1)
            idx = len(self.spans)
            self.spans.append([name, metric, 0.0, 0.0, parent, self.op, 0, absorb])
            self._open.append(idx)
        stack.append(idx)
        self.spans[idx][2] = time.perf_counter()
        return idx

    def _end(self, idx: int, n: int = 0) -> None:
        span = self.spans[idx]
        span[3] = time.perf_counter()
        span[6] = n
        self._tls.stack.pop()
        with self._lock:
            self._open.remove(idx)

    def begin_op(self, op: int) -> int:
        self.op = op
        self.active = True
        return self._begin(ROOT, UNATTRIBUTED, False)

    def end_op(self, idx: int) -> None:
        self._end(idx)
        self.active = False

    # -- patching ----------------------------------------------------------------

    def _wrap(self, fn, name: str, metric: str, measure) -> Callable:
        absorb = measure == "absorb"
        count = measure if callable(measure) else None
        is_query = name == "DataWarehouse.query"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._begin(name, metric, absorb)
            n = 0
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = count(result, *args)
                if is_query:
                    self._note_query(args[0], result)
                return result
            finally:
                self._end(idx, n)

        return traced

    def _note_query(self, warehouse, result) -> None:
        info = result.rewrite
        self.queries.append({
            "op": self.op,
            "views": bool(warehouse.views),
            "rewritten": info is not None,
            "relational": info is not None and info.mode == "relational",
            "q_error": result.q_error,
            "rows": len(result.rows),
            "rows_scanned": result.stats.rows_scanned,
            "pairs_examined": result.stats.pairs_examined,
        })

    def install(self) -> None:
        for _metric, module, _attr, _m in TABLE:
            importlib.import_module(module)
        importlib.import_module("repro.sql.window_exec")
        for metric, module, attr, measure in TABLE:
            mod = sys.modules[module]
            owner, _, leaf = attr.rpartition(".")
            if owner:
                cls = getattr(mod, owner)
                raw = cls.__dict__[leaf]
                if isinstance(raw, classmethod):
                    new: Any = classmethod(self._wrap(raw.__func__, attr, metric, measure))
                else:
                    new = self._wrap(raw, attr, metric, measure)
                setattr(cls, leaf, new)
                self._undo.append(functools.partial(setattr, cls, leaf, raw))
                continue
            original = getattr(mod, leaf)
            wrapped = self._wrap(original, attr, metric, measure)
            sites = 0
            for other in list(sys.modules.values()):
                if other is None or not getattr(other, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, wrapped)
                        self._undo.append(
                            functools.partial(setattr, other, key, original))
                        sites += 1
            if not sites:
                raise LookupError(f"{module}.{attr} is bound nowhere")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- analysis ----------------------------------------------------------------

    def self_times(self, min_op: int) -> Dict[str, Dict[str, float]]:
        """Per metric, over spans of ops ``>= min_op``: summed self seconds,
        span count and summed ``n``."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _name, _metric, start, end, parent, *_ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        # Nearest absorbing ancestor-or-self; parents precede their children.
        absorber: List[int] = []
        for i, span in enumerate(spans):
            parent = span[4]
            absorber.append(i if span[7] else (absorber[parent] if parent >= 0 else -1))
        out = {m: {"seconds": 0.0, "spans": 0, "n": 0} for m in METRICS}
        for i, (_name, metric, start, end, _parent, op, n, _absorb) in enumerate(spans):
            if op < min_op:
                continue
            own = absorber[i] in (-1, i)
            bucket = out[metric if own else spans[absorber[i]][1]]
            bucket["seconds"] += max(0.0, (end - start) - child_time[i])
            if own:  # an absorbed span's counts would double the primary's
                bucket["spans"] += 1
                bucket["n"] += n
        return out

    def select(self, name: str, under: Optional[str] = None,
               min_op: Optional[int] = None) -> List[list]:
        """Spans called ``name``, optionally only those with an ancestor
        called ``under`` or belonging to ops ``>= min_op``."""
        out = []
        for span in self.spans:
            if span[0] != name or (min_op is not None and span[5] < min_op):
                continue
            if under is not None:
                parent = span[4]
                while parent >= 0 and self.spans[parent][0] != under:
                    parent = self.spans[parent][4]
                if parent < 0:
                    continue
            out.append(span)
        return out

    def dump(self, path: str) -> None:
        keys = ("name", "metric", "start", "end", "parent", "op", "n", "absorb")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"keys": keys, "spans": self.spans, "queries": self.queries}, fh)
