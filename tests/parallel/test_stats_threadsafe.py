"""Thread safety of the shared ExecutionStats counter block."""

import pickle
import threading

import pytest

from repro.relational.stats import ExecutionStats


class TestBump:
    def test_concurrent_bumps_lose_nothing(self):
        stats = ExecutionStats()
        per_thread, threads = 2_000, 8

        def worker():
            for _ in range(per_thread):
                stats.bump(rows_sorted=1, rows_scanned=2)

        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert stats.rows_sorted == per_thread * threads
        assert stats.rows_scanned == 2 * per_thread * threads

    def test_unknown_counter_rejected(self):
        with pytest.raises(AttributeError):
            ExecutionStats().bump(rows_teleported=1)


class TestMerge:
    def test_concurrent_merges(self):
        total = ExecutionStats()

        def worker():
            local = ExecutionStats()
            for _ in range(500):
                local.rows_joined += 1  # serial += on a private block
            total.merge(local)

        pool = [threading.Thread(target=worker) for _ in range(6)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert total.rows_joined == 3_000


class TestPickling:
    def test_lock_survives_a_round_trip(self):
        stats = ExecutionStats()
        stats.bump(rows_sorted=7)
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.rows_sorted == 7
        clone.bump(rows_sorted=1)  # the restored lock must work
        assert clone.rows_sorted == 8
