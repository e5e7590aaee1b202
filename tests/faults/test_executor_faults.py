"""ExecutorPool under injected worker faults: retry, fallback, health routing."""

import pytest

from repro.errors import ParallelError
from repro.faults import FaultPlan, FaultSpec, injector
from repro.parallel import ExecutionConfig, ExecutorPool, health

pytestmark = pytest.mark.faults


def _square(x: int) -> int:
    """Module-level task so it pickles to process workers."""
    return x * x


EXPECTED = [i * i for i in range(8)]


class TestCrashRecovery:
    def test_thread_crash_recovers_via_retry(self):
        # On a thread worker the injected crash raises; the retry round
        # consumes no further fault events, so it runs clean.
        config = ExecutionConfig(jobs=2, backend="thread", retry_backoff=0.0)
        plan = FaultPlan([FaultSpec("worker_crash", at=3)])
        with injector.active(plan), ExecutorPool(config) as pool:
            assert pool.map(_square, range(8)) == EXPECTED
        assert plan.fired_count("worker_crash") == 1
        assert pool.stats.tasks_retried == 1
        assert pool.stats.worker_failures == 1
        assert pool.stats.serial_fallbacks == 0
        assert not health.is_broken("thread")

    def test_process_crash_falls_back_to_serial(self):
        # A process worker hard-exits: the pool breaks, and the remaining
        # work is recomputed on the calling thread — same answers.
        config = ExecutionConfig(jobs=2, backend="process", retry_backoff=0.0)
        plan = FaultPlan([FaultSpec("worker_crash", at=0)])
        with injector.active(plan), ExecutorPool(config) as pool:
            assert pool.map(_square, range(8)) == EXPECTED
        assert pool.stats.serial_fallbacks == 1
        assert pool.stats.worker_failures >= 1
        assert health.is_broken("process")
        assert health.incidents("process") >= 1

    def test_process_crash_seen_at_submission_falls_back_too(self, monkeypatch):
        # The worker can die while the caller is still handing tasks over;
        # ``submit`` then raises BrokenProcessPool itself.  Force that order
        # by waiting for the pool to notice the death before the second
        # submit.
        import time

        ensure = ExecutorPool._ensure_executor

        def slow_hand_over(self):
            executor = ensure(self)
            submit = executor.submit

            def submit_then_wait(*args):
                future = submit(*args)
                deadline = time.monotonic() + 10.0
                while not executor._broken and time.monotonic() < deadline:
                    time.sleep(0.01)
                return future

            executor.submit = submit_then_wait
            return executor

        monkeypatch.setattr(ExecutorPool, "_ensure_executor", slow_hand_over)
        config = ExecutionConfig(jobs=2, backend="process", retry_backoff=0.0)
        plan = FaultPlan([FaultSpec("worker_crash", at=0)])
        with injector.active(plan), ExecutorPool(config) as pool:
            assert pool.map(_square, range(8)) == EXPECTED
        assert pool.stats.serial_fallbacks == 1
        assert pool.stats.worker_failures == 1
        assert health.is_broken("process")
        assert health.incidents("process") >= 1

    def test_stats_summary_surfaces_counters(self):
        config = ExecutionConfig(jobs=2, backend="thread", retry_backoff=0.0)
        plan = FaultPlan([FaultSpec("worker_crash", at=0)])
        with injector.active(plan), ExecutorPool(config) as pool:
            pool.map(_square, range(8))
        text = pool.stats.summary()
        assert "retried=1" in text and "worker_failures=1" in text


class TestHangRecovery:
    def test_transient_hang_recovers_via_retry(self):
        config = ExecutionConfig(
            jobs=2, backend="thread", task_timeout=0.1,
            max_retries=2, retry_backoff=0.0,
        )
        plan = FaultPlan([FaultSpec("worker_hang", at=1, seconds=0.6)])
        with injector.active(plan), ExecutorPool(config) as pool:
            assert pool.map(_square, range(8)) == EXPECTED
        assert pool.stats.tasks_retried >= 1
        assert pool.stats.serial_fallbacks == 0
        assert not health.is_broken("thread")

    def test_persistent_hang_exhausts_retries_then_serial_fallback(self):
        config = ExecutionConfig(
            jobs=2, backend="thread", task_timeout=0.1,
            max_retries=1, retry_backoff=0.0,
        )
        # times is large enough to keep firing through every retry round.
        plan = FaultPlan([FaultSpec("worker_hang", at=0, times=50, seconds=0.4)])
        with injector.active(plan), ExecutorPool(config) as pool:
            assert pool.map(_square, range(4)) == [i * i for i in range(4)]
        assert pool.stats.serial_fallbacks == 1
        assert health.is_broken("thread")
        assert "exceeded" in health.last_reason("thread")

    def test_fallback_disabled_raises(self):
        config = ExecutionConfig(
            jobs=2, backend="thread", task_timeout=0.1,
            max_retries=0, retry_backoff=0.0, fallback=False,
        )
        plan = FaultPlan([FaultSpec("worker_hang", at=0, times=50, seconds=0.4)])
        with injector.active(plan), ExecutorPool(config) as pool:
            with pytest.raises(ParallelError, match="still failing"):
                pool.map(_square, range(4))


class TestHealthRouting:
    def test_planner_downgrades_broken_backend(self):
        from repro.sql.planner import _route_exec_config

        config = ExecutionConfig(jobs=4, backend="process", chunk_size=4)
        health.mark_broken("process", "worker crashed")
        routed = _route_exec_config(config)
        assert routed.backend == "serial"
        assert routed.chunk_size == 4  # only the placement changes
        health.mark_healthy("process")
        assert _route_exec_config(config) is config

    def test_serial_config_never_routed(self):
        from repro.sql.planner import _route_exec_config

        health.mark_broken("serial", "nonsense")
        config = ExecutionConfig()
        assert _route_exec_config(config) is config

    def test_query_still_answers_after_backend_marked_broken(self):
        from repro.warehouse import DataWarehouse, create_sequence_table

        config = ExecutionConfig(jobs=2, backend="thread", chunk_size=4)
        wh = DataWarehouse(execution=config)
        create_sequence_table(wh.db, "seq", 30, seed=5)
        q = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 "
             "PRECEDING AND 2 FOLLOWING) s FROM seq ORDER BY pos")
        before = wh.query(q).rows
        health.mark_broken("thread", "injected")
        # The downgraded plan runs the serial kernel, which may differ from
        # the chunked one in float summation order — compare numerically.
        after = wh.query(q).rows
        assert [r[0] for r in after] == [r[0] for r in before]
        assert [r[1] for r in after] == pytest.approx([r[1] for r in before])
