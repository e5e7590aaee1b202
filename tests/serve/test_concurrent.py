"""ConcurrentWarehouse tests: snapshot isolation, COW, exclusivity, faults."""

from __future__ import annotations

import json
import threading

import pytest

from repro.errors import ConcurrencyError, SessionKilledError
from repro.faults import FaultPlan, FaultSpec, injector
from repro.serve import ConcurrentWarehouse
from repro.warehouse import DataWarehouse

from tests.serve.conftest import QUERY, build_concurrent


def rows_of(result) -> str:
    """Bit-exact row encoding (JSON float round-trip is exact)."""
    return json.dumps(result.rows)


# -- snapshot isolation -------------------------------------------------------


def test_pinned_reader_is_bit_identical_across_refresh(cw):
    snap = cw.pin()
    before = rows_of(snap.query(QUERY))
    cw.update_measure("seq", keys={"pos": 7}, value_col="val", new_value=500.0)
    cw.refresh_view("mv")
    assert rows_of(snap.query(QUERY)) == before
    live = cw.query(QUERY)
    assert rows_of(live) != before
    assert live.epoch == cw.epochs.latest_epoch
    snap.release()
    assert cw.epochs.verify()["clean"]


def test_pinned_reader_is_bit_identical_across_maintenance(cw):
    snap = cw.pin()
    before = rows_of(snap.query(QUERY))
    cw.insert_row("seq", (51, 123.0))
    cw.delete_row("seq", keys={"pos": 3})
    assert rows_of(snap.query(QUERY)) == before
    assert rows_of(cw.query(QUERY)) != before
    snap.release()


def test_queries_carry_their_epoch(cw):
    e0 = cw.epochs.latest_epoch
    assert cw.query(QUERY).epoch == e0
    cw.refresh_view("mv")
    assert cw.query(QUERY).epoch == e0 + 1


def test_rewrite_still_used_at_pinned_epoch(cw):
    with cw.pin() as snap:
        result = snap.query(QUERY)
    assert result.rewrite is not None  # answered from the view, not base data


def test_value_at_and_explain_route_through_snapshots(cw):
    direct = cw.value_at("mv", 10)
    assert isinstance(direct, float)
    assert "mv" in cw.explain(QUERY)
    assert cw.epochs.verify()["clean"]


def test_threaded_readers_during_refresh_storm(cw):
    """Readers on 4 threads must never block, tear, or mix epochs while a
    writer thread commits refresh + maintenance traffic.

    The writer is stepped, not raced: it starts its storm only after every
    reader has answered once (at the initial epoch), and every reader
    answers once more after the last commit — so each reader provably
    completes a query in at least two epochs, whatever the scheduler does
    in between.  Each observed answer must also equal a serial replay of
    the writer's commits at its epoch.
    """
    n_readers = 4
    by_epoch = {}
    seen = [set() for _ in range(n_readers)]
    lock = threading.Lock()
    errors = []
    all_answered_once = threading.Barrier(n_readers + 1, timeout=60)
    storm_over = threading.Event()

    def read(i: int) -> None:
        result = cw.query(QUERY)
        key = rows_of(result)
        with lock:
            prev = by_epoch.setdefault(result.epoch, key)
        seen[i].add(result.epoch)
        if prev != key:
            errors.append(f"epoch {result.epoch} returned two answers")

    def reader(i: int) -> None:
        try:
            read(i)
            all_answered_once.wait()
            while not storm_over.is_set():
                read(i)
            read(i)  # at the final epoch
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(repr(exc))

    def writer() -> None:
        try:
            all_answered_once.wait()
            for i in range(8):
                cw.update_measure(
                    "seq", keys={"pos": 5 + i}, value_col="val",
                    new_value=1000.0 + i,
                )
                cw.refresh_view("mv")
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(repr(exc))
        finally:
            storm_over.set()

    first_epoch = cw.epochs.latest_epoch
    threads = [threading.Thread(target=reader, args=(i,)) for i in range(n_readers)]
    threads.append(threading.Thread(target=writer))
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    last_epoch = cw.epochs.latest_epoch
    assert last_epoch == first_epoch + 16
    # Every reader answered in at least two epochs: before and after the storm.
    assert all({first_epoch, last_epoch} <= epochs for epochs in seen)
    assert cw.epochs.verify()["clean"]

    # Every concurrently observed (epoch, answer) equals a serial replay of
    # the writer's commits on a fresh warehouse, stopped at that epoch.
    replay = build_concurrent()
    assert replay.epochs.latest_epoch == first_epoch
    replayed = {first_epoch: rows_of(replay.query(QUERY))}
    for i in range(8):
        replay.update_measure(
            "seq", keys={"pos": 5 + i}, value_col="val", new_value=1000.0 + i,
        )
        replayed[replay.epochs.latest_epoch] = rows_of(replay.query(QUERY))
        replay.refresh_view("mv")
        replayed[replay.epochs.latest_epoch] = rows_of(replay.query(QUERY))
    assert {epoch: replayed[epoch] for epoch in by_epoch} == by_epoch


def test_epoch_results_replay_serially(cw):
    """Every (epoch, answer) pair observed concurrently must equal a serial
    replay of the same writes on a fresh warehouse."""
    observed = {}
    observed[cw.epochs.latest_epoch] = rows_of(cw.query(QUERY))
    writes = [(5, 111.0), (9, 222.0), (13, 333.0)]
    for pos, value in writes:
        cw.update_measure("seq", keys={"pos": pos}, value_col="val",
                          new_value=value)
        observed[cw.epochs.latest_epoch] = rows_of(cw.query(QUERY))

    replay = build_concurrent()
    assert rows_of(replay.query(QUERY)) == observed[min(observed)]
    for (pos, value), epoch in zip(writes, sorted(observed)[1:]):
        replay.update_measure("seq", keys={"pos": pos}, value_col="val",
                              new_value=value)
        assert rows_of(replay.query(QUERY)) == observed[epoch]


# -- exclusivity guards -------------------------------------------------------


def test_direct_mutation_of_owned_warehouse_raises(cw):
    wh = cw.warehouse
    with pytest.raises(ConcurrencyError):
        wh.insert("seq", [(99, 1.0)])
    with pytest.raises(ConcurrencyError):
        wh.refresh_view("mv")
    with pytest.raises(ConcurrencyError):
        wh.update_measure("seq", keys={"pos": 1}, value_col="val",
                          new_value=0.0)
    with pytest.raises(ConcurrencyError):
        wh.save("/nonexistent-never-written")
    wh.query(QUERY)  # reads stay allowed


def test_double_ownership_rejected(cw):
    with pytest.raises(ConcurrencyError):
        ConcurrentWarehouse(cw.warehouse)


def test_release_restores_direct_access(cw):
    wh = cw.release()
    wh.insert("seq", [(99, 1.0)])  # no guard after release
    assert isinstance(wh, DataWarehouse)


def test_dropping_the_wrapper_frees_its_warehouse_without_a_collection():
    """The warehouse links back to its owner weakly: no reference cycle
    keeps either alive until the cyclic GC runs."""
    import gc
    import weakref

    cw = build_concurrent()
    cw.update_measure("seq", keys={"pos": 3}, value_col="val", new_value=1.0)
    cw.query(QUERY)
    warehouse, owner = weakref.ref(cw.warehouse), weakref.ref(cw)
    gc.collect()
    gc.disable()
    try:
        del cw
        assert owner() is None and warehouse() is None
    finally:
        gc.enable()


def test_save_load_roundtrip_under_wrapper(cw, tmp_path):
    live = rows_of(cw.query(QUERY))
    cw.save(str(tmp_path))
    loaded = ConcurrentWarehouse.load(str(tmp_path))
    assert rows_of(loaded.query(QUERY)) == live
    assert loaded.epochs.latest_epoch == 1
    # The dump is pages; a load without a budget reads them into memory.
    assert all(p.suffix == ".pages" for p in (tmp_path / "data").iterdir())
    assert loaded.warehouse.db.buffer_pool is None


def test_save_runs_while_reader_holds_a_pin(cw, tmp_path):
    with cw.pin() as snap:
        cw.save(str(tmp_path))  # must not deadlock against the pin
        assert rows_of(snap.query(QUERY)) == rows_of(
            ConcurrentWarehouse.load(str(tmp_path)).query(QUERY)
        )


# -- fault injection ----------------------------------------------------------


@pytest.mark.faults
def test_session_kill_releases_pin_and_raises(cw):
    plan = FaultPlan([FaultSpec("session_kill", target="victim")])
    with injector.active(plan):
        with pytest.raises(SessionKilledError):
            cw.query(QUERY, session="victim")
        survivor = cw.query(QUERY, session="other")  # other sessions unharmed
    assert plan.fired_count("session_kill") == 1
    assert survivor.rows
    report = cw.epochs.verify()
    assert report["clean"]
    assert report["pinned"] == []
    assert report["orphaned"] == []


@pytest.mark.faults
def test_session_kill_during_refresh_storm_leaves_store_clean(cw):
    plan = FaultPlan([FaultSpec("session_kill", target="victim", times=3)])
    kills = 0
    with injector.active(plan):
        for i in range(3):
            cw.update_measure("seq", keys={"pos": 4 + i}, value_col="val",
                              new_value=50.0 * i)
            try:
                cw.query(QUERY, session="victim", hold_ms=5)
            except SessionKilledError:
                kills += 1
    assert kills == 3
    assert cw.epochs.verify()["clean"]
    assert cw.query(QUERY).rows  # warehouse still serves


# -- query-cache concurrency (satellite) --------------------------------------


def test_query_cache_admit_evict_is_thread_safe():
    wh = DataWarehouse()
    wh.create_table("seq", [("pos", "INTEGER"), ("val", "FLOAT")],
                    primary_key=["pos"])
    wh.insert("seq", [(i + 1, float(i)) for i in range(40)])
    cache = wh.enable_query_cache(max_views=3)
    errors = []

    def worker(offset: int) -> None:
        try:
            for i in range(12):
                width = 1 + (offset * 12 + i) % 9
                wh.query(
                    f"SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN "
                    f"{width} PRECEDING AND {width} FOLLOWING) AS w FROM seq"
                )
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(repr(exc))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(cache.cached_views()) <= 3
    # LRU map and view registry agree after the storm
    for name in cache.cached_views():
        assert name in wh.views
    stats = cache.stats
    assert stats.admissions >= stats.evictions
