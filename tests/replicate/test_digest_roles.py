"""The chunk digest across roles: primary, synchronous replica and recovery
agree; old logs replay on purpose; the audit catches what the mutators
cannot see; a commit's digest work does not grow with the table."""

from __future__ import annotations

import json
import os
import random
import shutil
import struct
import zlib

import pytest

from repro.errors import DivergenceError
from repro.obs import runtime
from repro.obs.trace import Tracer
from repro.relational.table import Table
from repro.replicate import (
    LocalLink, Replica, Shipper, WriteAheadLog, recover, state_digest, wal_path,
)
from repro.replicate.wal import DIGEST_SCHEME
from repro.serve import ConcurrentWarehouse

from tests.replicate.conftest import answer, run_workload

VIEWS = {
    "v_sum": "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 4 PRECEDING "
             "AND 2 FOLLOWING) AS w FROM seq",
    "v_max": "SELECT pos, MAX(val) OVER (ORDER BY pos ROWS BETWEEN 4 PRECEDING "
             "AND 2 FOLLOWING) AS w FROM seq",
}


def durable_set(home: str, rows: int, *, fsync: bool = True):
    """The ``maintain_durable`` shape: WAL-backed primary, one synchronous
    replica, sparse keys and the workload's two views."""
    primary = ConcurrentWarehouse(wal=WriteAheadLog(wal_path(home), fsync=fsync))
    replica = Replica(name="replica")
    Shipper(primary, [LocalLink(replica)], min_insync=1)
    primary.create_table("seq", [("pos", "INTEGER"), ("val", "FLOAT")],
                         primary_key=["pos"])
    data = [(10 * (i + 1), float((i * 37) % 101)) for i in range(rows)]
    for start in range(0, rows, 5000):
        primary.insert("seq", data[start:start + 5000])
    for name, sql in VIEWS.items():
        primary.create_view(name, sql)
    return primary, replica


def op_mix(cw: ConcurrentWarehouse, rng: random.Random, writes: int) -> None:
    """60 % update_measure, 20 % insert_row, 20 % delete_row, as the benchmark."""
    keys = [r[0] for r in cw.query("SELECT pos FROM seq ORDER BY pos").rows]
    for i in range(writes):
        kind = ("update", "update", "update", "insert", "delete")[i % 5]
        if kind == "insert":
            key = rng.choice(keys) + rng.randrange(1, 10)
            if key in keys:
                continue
            keys.append(key)
            cw.insert_row("seq", [key, rng.uniform(0, 100)])
        elif kind == "delete":
            cw.delete_row("seq", keys={"pos": keys.pop(rng.randrange(len(keys)))})
        else:
            cw.update_measure("seq", keys={"pos": rng.choice(keys)},
                              value_col="val", new_value=rng.uniform(0, 100))


def packed_answers(cw) -> bytes:
    out = []
    for sql in ["SELECT pos, val FROM seq ORDER BY pos"] + [
            s + " ORDER BY pos" for s in VIEWS.values()]:
        for row in cw.query(sql).rows:
            out.append(struct.pack("<qd", int(row[0]), float(row[1])))
    return b"".join(out)


def test_primary_replica_and_recovery_agree_bit_for_bit(tmp_path):
    home = str(tmp_path / "home")
    primary, replica = durable_set(home, 120)
    rng = random.Random(5)
    op_mix(primary, rng, 40)
    primary.save(home)  # checkpoint mid-way, audited
    op_mix(primary, rng, 40)
    acked = (primary.epochs.latest_epoch, state_digest(primary.warehouse),
             packed_answers(primary))
    # One more commit, then a crash image whose last frame is torn: what was
    # acknowledged before it must survive, the torn record must not.
    primary.insert_row("seq", [7, 7.0])
    image = str(tmp_path / "image")
    shutil.copytree(home, image)
    segment = sorted(os.listdir(wal_path(image)))[-1]
    with open(os.path.join(wal_path(image), segment), "r+b") as fh:
        fh.truncate(os.path.getsize(fh.name) - 5)

    report = recover(image)
    try:
        assert report.truncated_bytes > 0 and report.clean
        assert report.unverified_records == 0
        assert report.last_epoch == acked[0]
        assert state_digest(report.warehouse.warehouse) == acked[1]
        assert packed_answers(report.warehouse) == acked[2]
    finally:
        report.warehouse.wal.close()

    assert replica.applied_epoch == primary.epochs.latest_epoch
    assert state_digest(replica.warehouse.warehouse) == state_digest(primary.warehouse)
    assert packed_answers(replica.warehouse) == packed_answers(primary)
    for node in (primary, replica.warehouse):
        assert all(r.ok for r in node.verify(quarantine=False).values())
        assert node.epochs.verify()["clean"]
    primary.wal.close()


def rewrite_frames(wal_dir: str, edit) -> int:
    """Re-frame every record of a log after ``edit(doc)``; returns the count."""
    header = struct.Struct("<II")
    count = 0
    for name in sorted(os.listdir(wal_dir)):
        if not name.endswith(".wal"):
            continue
        path = os.path.join(wal_dir, name)
        with open(path, "rb") as fh:
            data, out, offset = fh.read(), [], 0
        while offset < len(data):
            length, _ = header.unpack_from(data, offset)
            doc = json.loads(data[offset + 8: offset + 8 + length])
            payload = json.dumps(edit(doc), separators=(",", ":")).encode("utf-8")
            out.append(header.pack(len(payload), zlib.crc32(payload)) + payload)
            offset += 8 + length
            count += 1
        with open(path, "wb") as fh:
            fh.write(b"".join(out))
    return count


def test_a_log_written_before_the_chunk_digest_replays_unverified(tmp_path):
    """Old records carry a bare 64-hex digest of another definition: they
    are replayed without a per-record comparison, counted, and covered by
    the final audit plus view verification."""
    home = str(tmp_path)
    cw = ConcurrentWarehouse(wal=WriteAheadLog(wal_path(home)))
    run_workload(cw)
    expected, digest = answer(cw), state_digest(cw.warehouse)
    cw.wal.close()

    def old_shape(doc):
        assert doc["digest"].startswith(DIGEST_SCHEME)
        assert len(doc["digest"]) == len(DIGEST_SCHEME) + 64
        doc["digest"] = "0" * 64  # what sha256().hexdigest() used to give
        return doc

    records = rewrite_frames(wal_path(home), old_shape)
    counter = runtime.get_registry().counter(
        "repro_replicate_unverified_records_total",
        help="Records applied without a digest comparison")
    before = counter.value
    report = recover(home)
    try:
        assert report.unverified_records == records == len(report.replayed)
        assert counter.value - before == records
        assert report.clean and answer(report.warehouse) == expected
        assert state_digest(report.warehouse.warehouse) == digest
        assert report.to_dict()["unverified_records"] == records
    finally:
        report.warehouse.wal.close()


def test_a_current_scheme_digest_that_disagrees_still_fences(tmp_path):
    home = str(tmp_path)
    cw = ConcurrentWarehouse(wal=WriteAheadLog(wal_path(home)))
    run_workload(cw)
    cw.wal.close()

    def wrong(doc):
        if doc["op"] == "update_measure":
            doc["digest"] = DIGEST_SCHEME + "0" * 64
        return doc

    rewrite_frames(wal_path(home), wrong)
    with pytest.raises(DivergenceError):
        recover(home)


def test_audit_catches_a_buffer_poked_behind_the_mutators(tmp_path):
    primary, replica = durable_set(str(tmp_path), 60)
    primary.update_measure("seq", keys={"pos": 100}, value_col="val", new_value=1.0)
    failures = runtime.get_registry().counter(
        "repro_replicate_digest_audit_failures_total",
        help="Audits where the kept digest disagreed with a recomputation")
    before = failures.value
    assert primary.audit_digest() == state_digest(primary.warehouse)
    # Not through Table/ColumnBuilder: no mutator sees it, so the kept
    # chunk hash is stale and only a recomputation can tell.
    replica.warehouse.warehouse.db.table("seq")._columns[1].chunks[0].data[3] = -1.0
    with pytest.raises(DivergenceError, match="audit"):
        replica.warehouse.verify()
    with pytest.raises(DivergenceError, match="audit"):
        replica.warehouse.audit_digest()
    assert failures.value - before == 2
    assert all(r.ok for r in primary.verify(quarantine=False).values())
    primary.wal.close()


def test_a_failed_audit_at_save_leaves_the_previous_dump_and_the_log(tmp_path):
    home = str(tmp_path)
    primary, _replica = durable_set(home, 60, fsync=False)
    primary.save(home)
    good, checkpoint = packed_answers(primary), primary.wal.checkpoint_epoch()
    primary.update_measure("seq", keys={"pos": 100}, value_col="val", new_value=1.0)
    after_update = packed_answers(primary)
    primary.warehouse.db.table("seq")._columns[1].chunks[0].data[3] = -1.0
    with pytest.raises(DivergenceError, match="audit"):
        primary.save(home)
    assert primary.wal.checkpoint_epoch() == checkpoint
    primary.wal.close()
    # The dump on disk is still the audited one; the log still holds the
    # update, so recovery ends where the primary was before the poke.
    from repro.warehouse import DataWarehouse

    with DataWarehouse.load(home, rehydrate=True) as dumped:
        assert packed_answers(dumped) == good
    report = recover(home, fsync=False)
    assert packed_answers(report.warehouse) == after_update
    report.warehouse.wal.close()


def test_commit_digest_work_does_not_grow_with_the_table(tmp_path, monkeypatch):
    """Count-based O(band) guard: an interior ``update_measure`` hashes the
    same number of chunks and reads/inserts the same number of rows on a
    1 000-row and on a 64 000-row table (no wall clock involved)."""
    calls = {"row": 0, "insert": 0}
    real_row, real_insert = Table.row, Table.insert

    def counted(name, real):
        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return real(self, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(Table, "row", counted("row", real_row))
    monkeypatch.setattr(Table, "insert", counted("insert", real_insert))
    chunks = runtime.get_registry().counter(
        "repro_replicate_digest_chunks_hashed_total",
        help="Column chunks hashed for content digests")
    measured = {}
    for rows in (1_000, 64_000):
        primary, replica = durable_set(str(tmp_path / str(rows)), rows, fsync=False)
        key = 10 * (rows // 2)
        primary.update_measure("seq", keys={"pos": key}, value_col="val", new_value=1.0)
        calls.update(row=0, insert=0)
        hashed = chunks.value
        tracer = Tracer()
        with runtime.use(tracer=tracer):
            primary.update_measure("seq", keys={"pos": key + 10},
                                   value_col="val", new_value=2.0)
        spans = tracer.spans("replicate.digest")
        measured[rows] = {
            "chunks": chunks.value - hashed,
            "span_chunks": sum(s.attributes["chunks_hashed"] for s in spans),
            "span_bytes": sum(s.attributes["bytes_hashed"] for s in spans),
            "tables": {s.attributes["tables"] for s in spans},
            **calls,
        }
        assert replica.applied_epoch == primary.epochs.latest_epoch
        primary.wal.close()
    small, large = measured[1_000], measured[64_000]
    # A chunk of the small table may be its short last one: bytes are
    # bounded below, every count must be equal.
    assert [m.pop("span_bytes") <= m["chunks"] * (8 * 1024 + 128 + 8)
            for m in (small, large)] == [True, True]
    assert small == large
    # Both nodes: one chunk of seq.val plus the band's chunk(s) of each
    # view's __val; a band of 7 can straddle one chunk boundary per view.
    assert small["span_chunks"] == small["chunks"]
    assert 2 * 3 <= small["chunks"] <= 2 * 5
    assert small["tables"] == {3}
    assert small["insert"] == 0 and small["row"] <= 2 * 4
