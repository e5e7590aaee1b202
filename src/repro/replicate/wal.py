"""Write-ahead epoch log: durability for every warehouse commit.

Every :class:`~repro.serve.concurrent.ConcurrentWarehouse` mutation appends
one :class:`EpochRecord` — the epoch id it will publish, the *logical*
operation (a ``DataWarehouse`` mutator's name and the keyword arguments it
was called with, through :func:`encode_args`), and a content digest of the
post-commit state — to the log, fsync'd, **before** the epoch becomes
visible to readers.  Replaying the log over the last durable snapshot
therefore reconstructs every committed epoch; the digest lets recovery and
replicas prove each replayed epoch is bit-identical to what the primary
published.

On-disk layout (one directory per warehouse)::

    <wal_dir>/segment-000000000002.wal     frames; name = first epoch inside
    <wal_dir>/segment-000000000047.wal
    <wal_dir>/checkpoint.json              {"epoch": N} written by save()

Frame format (binary, little-endian)::

    [length: u32] [crc32(payload): u32] [payload: length bytes of JSON]

The framing makes torn writes self-identifying: a crash mid-append leaves
a frame whose length header runs past EOF or whose CRC32 disagrees with
its payload.  :class:`WriteAheadLog` truncates such a tail on open — at
most the *un*committed torn record is lost, never a committed epoch,
because commits only publish after the frame's fsync returned.  A bad
frame *followed by good frames* is not a torn tail but real corruption and
raises :class:`~repro.errors.WalCorruptionError`.

Segments rotate at ``segment_bytes``; ``checkpoint(epoch)`` (called by
``ConcurrentWarehouse.save`` after the dump lands) records the snapshot
epoch and deletes segments every record of which is covered by it.

The ``wal_append`` fault site (kind ``wal_torn_write``) simulates the
crash-mid-append: the log writes *half* a frame, fsyncs, and raises — the
exact bytes a power cut would leave.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ReplicationError, WalCorruptionError

__all__ = [
    "DIGEST_SCHEME",
    "EpochRecord",
    "WriteAheadLog",
    "decode_args",
    "encode_args",
    "state_digest",
]

_FRAME_HEADER = struct.Struct("<II")  # payload length, crc32(payload)
_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".wal"
_CHECKPOINT_FILE = "checkpoint.json"


# ---------------------------------------------------------------------------
# Argument codec: logical-op arguments must survive a JSON round trip
# ---------------------------------------------------------------------------


def encode_args(value: Any) -> Any:
    """Deep-encode op arguments into JSON-safe structures.

    Dates become ``{"$date": iso}`` (the persistence codec's convention), a
    view definition ``{"$view": doc}`` (its ``to_doc``); tuples become
    lists; relational type objects degrade to their names.
    """
    if isinstance(value, datetime.date):
        return {"$date": value.isoformat()}
    if isinstance(value, dict):
        return {k: encode_args(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_args(v) for v in value]
    if hasattr(value, "to_doc"):
        return {"$view": value.to_doc()}
    if hasattr(value, "name") and type(value).__module__.startswith("repro."):
        return value.name  # a relational DataType in a column spec
    return value


def decode_args(value: Any) -> Any:
    """Inverse of :func:`encode_args` (type names stay strings — the
    relational layer resolves them on use)."""
    if isinstance(value, dict):
        if "$date" in value and len(value) == 1:
            return datetime.date.fromisoformat(value["$date"])
        if "$view" in value and len(value) == 1:
            from repro.views.definition import SequenceViewDefinition

            return SequenceViewDefinition.from_doc(value["$view"])
        return {k: decode_args(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_args(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# Content digest: the bit-identity contract between primary and replica
# ---------------------------------------------------------------------------


#: Tag of the digest definition below, prefixed to every digest string; a
#: record with another tag (or none: older logs) is replayed uncompared.
DIGEST_SCHEME = "c2:"


def state_digest(warehouse, *, cached: bool = True) -> str:
    """SHA-256 over every table's digest, in catalog-name order.

    A table's digest (``Table.digest``) covers name, schema, row count and
    every column's values and NULL bits in heap order; the storage keeps the
    chunk hashes, so a commit rehashes what it wrote (``cached=False``: all).

    Covers base tables *and* view storage tables (the in-memory reporting
    mirrors are derived from storage, so hashing storage suffices).  Two
    warehouses with equal digests return bit-identical answers for every
    query, which is the replication acceptance bar.  Quarantine flags and
    epoch counters are deliberately excluded — they are advisory routing
    state, not data.
    """
    from repro.obs import runtime

    tables = sorted(warehouse.db.catalog.tables(), key=lambda t: t.name)
    tally = [0, 0]
    with runtime.get_tracer().span("replicate.digest", tables=len(tables)) as span:
        h = hashlib.sha256()
        for table in tables:
            h.update(table.digest(tally, cached=cached))
        span.set(chunks_hashed=tally[0], bytes_hashed=tally[1])
    for what, count in zip(("chunks", "bytes"), tally):
        runtime.get_registry().counter(
            f"repro_replicate_digest_{what}_hashed_total",
            help=f"Column {what} hashed for content digests",
        ).inc(count)
    return DIGEST_SCHEME + h.hexdigest()


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpochRecord:
    """One logged commit: what op produced which epoch, and its digest."""

    epoch: int
    op: str
    args: Dict[str, Any] = field(default_factory=dict)
    digest: str = ""

    def to_payload(self) -> bytes:
        return json.dumps(self.to_dict(), separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_payload(cls, payload: bytes) -> "EpochRecord":
        return cls.from_dict(json.loads(payload.decode("utf-8")))

    def to_dict(self) -> Dict[str, Any]:
        """The record as JSON-safe fields: a WAL frame's payload and the
        ``ship`` op's ``record``."""
        return {"epoch": self.epoch, "op": self.op, "args": self.args,
                "digest": self.digest}

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "EpochRecord":
        try:
            return cls(epoch=int(doc["epoch"]), op=str(doc["op"]),
                       args=dict(doc.get("args", {})),
                       digest=str(doc.get("digest", "")))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ReplicationError(f"malformed epoch record: {exc}") from None


def _frame(record: EpochRecord) -> bytes:
    payload = record.to_payload()
    return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _scan_frames(data: bytes) -> Tuple[List[EpochRecord], int, str]:
    """Parse frames; return (records, good_bytes, tail_problem).

    ``good_bytes`` is the offset of the first bad/incomplete frame (== len
    when the buffer is fully intact); ``tail_problem`` describes what ended
    the scan ('' when intact).
    """
    records: List[EpochRecord] = []
    offset = 0
    while offset < len(data):
        if offset + _FRAME_HEADER.size > len(data):
            return records, offset, "incomplete frame header"
        length, crc = _FRAME_HEADER.unpack_from(data, offset)
        start = offset + _FRAME_HEADER.size
        if start + length > len(data):
            return records, offset, "frame payload runs past EOF"
        payload = data[start:start + length]
        if zlib.crc32(payload) != crc:
            return records, offset, "frame CRC32 mismatch"
        try:
            records.append(EpochRecord.from_payload(payload))
        except (ValueError, ReplicationError):
            return records, offset, "frame payload is not a record"
        offset = start + length
    return records, offset, ""


class WriteAheadLog:
    """CRC32-framed, fsync'd, segment-rotated epoch log.

    Args:
        directory: the log's home (created if missing).
        segment_bytes: rotate to a new segment once the active one exceeds
            this size (checked after each append).
        fsync: flush to stable storage on every append.  Leave on for
            durability; tests may disable it for speed.

    Opening an existing log validates every segment in order.  A bad frame
    at the very tail of the *last* segment is a torn write: it is truncated
    (``truncated_bytes`` reports how much) and the log is usable.  A bad
    frame anywhere else raises :class:`WalCorruptionError`.
    """

    def __init__(self, directory: str, *, segment_bytes: int = 1 << 20,
                 fsync: bool = True) -> None:
        if segment_bytes < 64:
            raise ReplicationError(
                f"segment_bytes must be >= 64, got {segment_bytes}"
            )
        self.directory = directory
        self.segment_bytes = segment_bytes
        self.fsync = fsync
        self.truncated_bytes = 0
        self.last_epoch = 0
        self._handle = None  # lazily opened append handle on the active segment
        self._active: Optional[str] = None
        os.makedirs(directory, exist_ok=True)
        self._open_and_repair()

    # -- open / repair -------------------------------------------------------

    def _segments(self) -> List[str]:
        names = [
            n for n in os.listdir(self.directory)
            if n.startswith(_SEGMENT_PREFIX) and n.endswith(_SEGMENT_SUFFIX)
        ]
        return sorted(names)

    def _open_and_repair(self) -> None:
        segments = self._segments()
        for i, name in enumerate(segments):
            path = os.path.join(self.directory, name)
            with open(path, "rb") as fh:
                data = fh.read()
            records, good, problem = _scan_frames(data)
            if problem:
                if i != len(segments) - 1:
                    raise WalCorruptionError(
                        f"segment {name!r} is corrupt mid-log ({problem}); "
                        "only the final segment's tail may be torn"
                    )
                torn = len(data) - good
                with open(path, "r+b") as fh:
                    fh.truncate(good)
                    fh.flush()
                    if self.fsync:
                        os.fsync(fh.fileno())
                self.truncated_bytes += torn
            for record in records:
                if record.epoch <= self.last_epoch:
                    raise WalCorruptionError(
                        f"segment {name!r}: epoch {record.epoch} does not "
                        f"advance past {self.last_epoch}"
                    )
                self.last_epoch = record.epoch
        self._active = segments[-1] if segments else None

    # -- appending -----------------------------------------------------------

    def append(self, record: EpochRecord) -> None:
        """Frame, write, and fsync one record (then maybe rotate).

        Raises:
            ReplicationError: non-monotonic epoch.
            InjectedFault: a ``wal_torn_write`` fault fired — half the frame
                is on disk (exactly a crash mid-write) and the caller must
                treat the warehouse as dead until recovery replays the log.
        """
        from repro.errors import InjectedFault
        from repro.faults import injector
        from repro.obs import runtime

        if record.epoch <= self.last_epoch:
            raise ReplicationError(
                f"WAL append out of order: epoch {record.epoch} after "
                f"{self.last_epoch}"
            )
        frame = _frame(record)
        handle = self._handle_for(record.epoch)
        if injector.wal_torn_hook(record.op):
            handle.write(frame[: max(1, len(frame) // 2)])
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
            raise InjectedFault(
                f"injected wal_torn_write during epoch {record.epoch} "
                f"({record.op}); recover from the log"
            )
        handle.write(frame)
        handle.flush()
        if self.fsync:
            os.fsync(handle.fileno())
        self.last_epoch = record.epoch
        runtime.get_registry().counter(
            "repro_wal_records_total",
            help="Records appended to the write-ahead epoch log",
        ).inc()
        if handle.tell() >= self.segment_bytes:
            self._close_handle()
            self._active = None  # next append opens a fresh segment

    def _handle_for(self, epoch: int):
        if self._handle is None:
            if self._active is None:
                self._active = (
                    f"{_SEGMENT_PREFIX}{epoch:012d}{_SEGMENT_SUFFIX}"
                )
            path = os.path.join(self.directory, self._active)
            self._handle = open(path, "ab")
        return self._handle

    def _close_handle(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- reading -------------------------------------------------------------

    def records(self, since: int = 0) -> Iterator[EpochRecord]:
        """Yield records with ``epoch > since``, oldest first."""
        self._flush()
        for name in self._segments():
            path = os.path.join(self.directory, name)
            with open(path, "rb") as fh:
                data = fh.read()
            segment_records, _, problem = _scan_frames(data)
            if problem and name != self._segments()[-1]:
                raise WalCorruptionError(
                    f"segment {name!r} is corrupt mid-log ({problem})"
                )
            for record in segment_records:
                if record.epoch > since:
                    yield record

    def _flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    # -- checkpointing -------------------------------------------------------

    def checkpoint(self, epoch: int) -> int:
        """Record that a durable snapshot covers everything up to ``epoch``
        and delete fully-covered segments; returns how many were deleted.

        A segment is deletable when every record in it has ``epoch <=``
        the checkpoint — i.e. the *next* segment starts at or below
        ``epoch + 1``.  The active (last) segment is always kept so the
        append handle stays valid.
        """
        tmp = os.path.join(self.directory, _CHECKPOINT_FILE + ".tmp")
        final = os.path.join(self.directory, _CHECKPOINT_FILE)
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"epoch": int(epoch)}, fh)
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, final)
        segments = self._segments()
        removed = 0
        for i, name in enumerate(segments[:-1]):
            next_first = int(
                segments[i + 1][len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
            )
            if next_first <= epoch + 1:
                os.remove(os.path.join(self.directory, name))
                removed += 1
            else:
                break
        return removed

    def checkpoint_epoch(self) -> int:
        """The epoch of the last durable snapshot (0 = replay everything)."""
        path = os.path.join(self.directory, _CHECKPOINT_FILE)
        if not os.path.exists(path):
            return 0
        with open(path, encoding="utf-8") as fh:
            return int(json.load(fh).get("epoch", 0))

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._close_handle()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WriteAheadLog({self.directory!r}, last_epoch={self.last_epoch}, "
            f"segments={len(self._segments())})"
        )
