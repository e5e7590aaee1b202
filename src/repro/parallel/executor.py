"""Worker pools for chunked sequence execution.

:class:`ExecutorPool` is a thin, uniform facade over three backends:

* ``serial`` — a plain in-process ``map`` (the reference semantics; also
  used as the fallback whenever a pool cannot help);
* ``thread`` — ``concurrent.futures.ThreadPoolExecutor``; effective because
  the chunk kernels are NumPy bulk operations that release the GIL;
* ``process`` — ``concurrent.futures.ProcessPoolExecutor``; chunk payloads
  are NumPy float64 arrays, which pickle compactly, and the task function
  is a module-level callable so it ships to workers on every platform
  (fork *and* spawn start methods).

``map`` always returns results **in submission order**, independent of
completion order — the ordered merge that makes chunked results
reproducible is built on this guarantee.  Pools are context managers;
:func:`ExecutorPool.map` may also be used one-shot, and then tears the OS
resources down when the call returns (success *or* failure).

Robustness (the self-healing layer):

* every task gets a per-task result deadline (``config.task_timeout``);
* a failed or timed-out task is re-submitted up to ``config.max_retries``
  times with exponential backoff;
* a broken executor (``BrokenProcessPool`` after a worker crash) or retry
  exhaustion degrades to **in-process serial execution** of the remaining
  work when ``config.fallback`` is set — correct answers at reduced
  speed — and records the incident in :mod:`repro.parallel.health` so the
  planner can route subsequent queries away from the broken backend;
* everything is counted in the pool's :class:`ExecutionStats`
  (``tasks_retried`` / ``worker_failures`` / ``serial_fallbacks``).

Fault injection (:mod:`repro.faults`) hooks in at task granularity: an
armed ``worker_crash``/``worker_hang`` spec wraps the doomed task in a
picklable :class:`~repro.faults.injector.FaultedTask`.
"""

from __future__ import annotations

import concurrent.futures
import time
from typing import Any, Callable, Iterable, List, Optional

from repro.errors import ParallelError, TaskTimeoutError
from repro.parallel import health
from repro.parallel.config import ExecutionConfig
from repro.relational.stats import ExecutionStats

__all__ = ["ExecutorPool"]


class _PoolBroken(Exception):
    """Internal: the underlying executor died; switch to serial."""


def _plain(value: Any) -> Any:
    """Pickle/JSON-safe projection of one span attribute value."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


class _TaskSpans:
    """Picklable envelope: a task's result plus the spans it recorded.

    Only process-pool children wrap their result — the parent unwraps in
    :meth:`ExecutorPool._absorb`, folding the span dicts into its own
    tracer so the cross-process tree stays connected.
    """

    __slots__ = ("result", "spans")

    def __init__(self, result: Any, spans: List[dict]) -> None:
        self.result = result
        self.spans = spans


class _TracedTask:
    """Picklable task wrapper carrying the spawning span's trace context.

    In-process execution (thread backend, the serial fallback, a retry on
    the calling thread) opens a ``parallel.task`` span against the shared
    tracer, explicitly parented to the captured context — worker threads
    have their own empty span stacks, so without this every task span
    would be an orphan root.  In a process-pool child (fork *or* spawn)
    the global tracer is not the parent's object, so the task records into
    a private tracer and ships its spans back inside a :class:`_TaskSpans`
    envelope.
    """

    __slots__ = ("fn", "context")

    def __init__(self, fn: Callable[[Any], Any], context: dict) -> None:
        self.fn = fn
        self.context = context

    def __call__(self, item: Any) -> Any:
        import multiprocessing

        from repro.obs import runtime
        from repro.obs.context import TraceContext

        ctx = TraceContext.from_dict(self.context)
        if multiprocessing.parent_process() is None:
            tracer = runtime.get_tracer()
            if not tracer.enabled:  # pragma: no cover - defensive
                return self.fn(item)
            with tracer.span("parallel.task", parent_context=ctx):
                return self.fn(item)
        from repro.obs.trace import Tracer

        child = Tracer()
        with runtime.use(tracer=child):
            with child.span("parallel.task", parent_context=ctx):
                result = self.fn(item)
        docs = []
        for span in child.spans():
            doc = span.to_dict()
            doc["attributes"] = {
                str(k): _plain(v) for k, v in doc["attributes"].items()
            }
            doc["events"] = [
                {
                    "name": e["name"], "at": e["at"],
                    "attributes": {
                        str(k): _plain(v) for k, v in e["attributes"].items()
                    },
                }
                for e in doc["events"]
            ]
            docs.append(doc)
        return _TaskSpans(result, docs)


class ExecutorPool:
    """Ordered map over a serial, thread, or process worker pool."""

    def __init__(
        self,
        config: Optional[ExecutionConfig] = None,
        *,
        stats: Optional[ExecutionStats] = None,
    ) -> None:
        self.config = config or ExecutionConfig()
        # Ownership decides metric publication: a pool that created its own
        # stats block publishes it to the global registry exactly once on
        # close(); a shared block is published by whoever created it
        # (Database.run), never here.  Before this rule, standalone pools —
        # e.g. the ones compute_grouped_parallel spins up for view refresh
        # and maintenance bands — silently dropped their retry/failure/
        # fallback counters on close.
        self._owns_stats = stats is None
        self.stats = stats if stats is not None else ExecutionStats()
        self._published = False
        self._executor = None
        self._closed = False
        self._managed = False  # True while used as a context manager

    # -- lifecycle ---------------------------------------------------------------

    def __enter__(self) -> "ExecutorPool":
        self._managed = True
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._managed = False
        self.close()

    def close(self) -> None:
        """Shut the underlying executor down (idempotent)."""
        self._release_executor()
        self._closed = True
        # Publish owned counters once, even though close() may run twice
        # (a finally block plus the context-manager exit) — republishing
        # would double-count every retry/failure/fallback.
        if self._owns_stats and not self._published:
            self._published = True
            from repro.obs import runtime

            runtime.publish_stats(self.stats)

    def _release_executor(self, *, wait: bool = True) -> None:
        """Tear down the OS resources but keep the pool usable."""
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=not wait)
            self._executor = None

    def _ensure_executor(self):
        if self._closed:
            raise ParallelError("pool is closed")
        if self._executor is None:
            jobs = self.config.resolved_jobs
            if self.config.backend == "thread":
                from concurrent.futures import ThreadPoolExecutor

                self._executor = ThreadPoolExecutor(
                    max_workers=jobs, thread_name_prefix="repro-par"
                )
            elif self.config.backend == "process":
                from concurrent.futures import ProcessPoolExecutor

                self._executor = ProcessPoolExecutor(max_workers=jobs)
            else:  # pragma: no cover - guarded by callers
                raise ParallelError(
                    f"backend {self.config.backend!r} has no executor"
                )
        return self._executor

    # -- execution ---------------------------------------------------------------

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> List[Any]:
        """Apply ``fn`` to every item, returning results in submission order.

        With the serial backend (or a single worker/item) this is a plain
        loop on the calling thread; otherwise items are dispatched to the
        pool with per-task timeout, bounded retry and — when configured —
        automatic serial fallback.  A genuine task exception (one that
        survives the retry budget and the serial re-run) propagates to the
        caller unchanged.
        """
        from repro.obs import runtime

        items = list(items)
        if self._closed:
            raise ParallelError("pool is closed")
        if (
            self.config.backend == "serial"
            or self.config.resolved_jobs <= 1
            or len(items) <= 1
        ):
            return [fn(item) for item in items]
        runtime.get_registry().counter(
            "repro_parallel_maps_total",
            {"backend": self.config.backend},
            help="Pool map calls dispatched to a worker backend",
        ).inc()
        tracer = runtime.get_tracer()
        with tracer.span(
            "parallel.map", backend=self.config.backend,
            jobs=self.config.resolved_jobs, tasks=len(items),
        ) as span:
            ctx = span.context()
            if ctx is not None and ctx.sampled:
                # Every task — pooled, retried, or serial-fallback — runs
                # under this span's context, so worker-side spans never
                # orphan (process children ship theirs back, see _absorb).
                fn = _TracedTask(fn, ctx.to_dict())
            try:
                return self._map_pool(fn, items)
            finally:
                # One-shot use (no context manager) must not leak the executor.
                if not self._managed:
                    self._release_executor()

    def _map_pool(self, fn: Callable[[Any], Any], items: List[Any]) -> List[Any]:
        from repro.faults import injector

        task_faults = injector.take_task_faults(len(items))
        tasks: List[Callable[[Any], Any]] = [
            injector.FaultedTask(fn, spec.kind, spec.seconds)
            if (spec := task_faults.get(i)) is not None
            else fn
            for i in range(len(items))
        ]
        n = len(items)
        results: List[Any] = [None] * n
        pending = list(range(n))
        try:
            executor = self._ensure_executor()
            futures = {i: self._submit(executor, tasks[i], items[i]) for i in pending}
            last_error: Optional[BaseException] = None
            for attempt in range(self.config.max_retries + 1):
                pending, last_error = self._collect(futures, pending, results)
                if not pending:
                    return results
                if attempt < self.config.max_retries:
                    if self.config.retry_backoff:
                        time.sleep(self.config.retry_backoff * (2 ** attempt))
                    self.stats.bump(tasks_retried=len(pending))
                    executor = self._ensure_executor()
                    # Each resubmission is a fresh eligible task event: an
                    # exhausted spec leaves the retry clean, a persistent
                    # one (times > 1) keeps firing until the retry budget
                    # runs out and the serial fallback takes over.
                    retry_faults = injector.take_task_faults(len(pending))
                    for slot, i in enumerate(pending):
                        task = (
                            injector.FaultedTask(fn, spec.kind, spec.seconds)
                            if (spec := retry_faults.get(slot)) is not None
                            else fn
                        )
                        futures[i] = self._submit(executor, task, items[i])
            # Retry budget exhausted.
            if not self.config.fallback:
                raise ParallelError(
                    f"{len(pending)} task(s) still failing after "
                    f"{self.config.max_retries} retries"
                ) from last_error
            # Hangs indict the backend (route future queries away from
            # it); a deterministic task exception does not.
            if isinstance(last_error, TaskTimeoutError):
                health.mark_broken(self.config.backend, str(last_error))
            self._release_executor(wait=False)
        except _PoolBroken:
            if not self.config.fallback:
                raise ParallelError(
                    f"{self.config.backend} pool broke and fallback is disabled"
                ) from None
        # Serial fallback: the calling thread computes whatever the pool
        # did not deliver, with the *bare* task function — injected task
        # faults never fire on the degraded path.
        self.stats.bump(serial_fallbacks=1)
        from repro.obs import runtime

        runtime.event(
            "parallel.serial_fallback",
            backend=self.config.backend, remaining=len(pending),
        )
        for i in pending:
            results[i] = self._absorb(fn(items[i]))
        return results

    def _submit(self, executor, task: Callable[[Any], Any], item: Any):
        """``executor.submit``; a pool found dead at submission (a worker
        crashed while the caller was still handing tasks over) is reported
        the way :meth:`_collect` reports one found dead at collection."""
        try:
            return executor.submit(task, item)
        except concurrent.futures.BrokenExecutor as exc:
            self._pool_broke(exc)
            raise _PoolBroken from exc

    def _pool_broke(self, exc: BaseException) -> None:
        self.stats.bump(worker_failures=1)
        health.mark_broken(self.config.backend, repr(exc))
        self._release_executor(wait=False)

    def _absorb(self, value: Any) -> Any:
        """Unwrap a :class:`_TaskSpans` envelope, folding the child-process
        spans into the active tracer; pass every other value through."""
        if isinstance(value, _TaskSpans):
            from repro.obs import runtime

            runtime.get_tracer().ingest(value.spans)
            return value.result
        return value

    def _collect(self, futures, pending, results):
        """Wait for pending futures in submission order; return the indexes
        that failed this round plus the last exception seen."""
        from repro.obs import runtime

        task_seconds = runtime.get_registry().histogram(
            "repro_parallel_task_seconds",
            {"backend": self.config.backend},
            help="Per-task wall time from collection start to result",
        )
        failed: List[int] = []
        last_error: Optional[BaseException] = None
        for i in pending:
            started = time.perf_counter()
            try:
                results[i] = self._absorb(
                    futures[i].result(timeout=self.config.task_timeout)
                )
                task_seconds.observe(time.perf_counter() - started)
            except concurrent.futures.BrokenExecutor as exc:
                # The pool is gone; every remaining future is doomed.
                self._pool_broke(exc)
                rest = pending[pending.index(i):]
                failed.extend(j for j in rest if j not in failed)
                pending[:] = failed
                raise _PoolBroken from exc
            except concurrent.futures.TimeoutError:
                self.stats.bump(worker_failures=1)
                futures[i].cancel()
                failed.append(i)
                last_error = TaskTimeoutError(
                    f"task {i} exceeded {self.config.task_timeout:g}s"
                )
            except Exception as exc:
                self.stats.bump(worker_failures=1)
                failed.append(i)
                last_error = exc
        return failed, last_error
