"""What a power cut would leave: only the bytes that were fsync'd.

Killing a process leaves the operating system's cache intact, so a
restart test that merely abandons the primary proves nothing about
durability.  :class:`FsyncLog` wraps ``os.fsync`` for the life of a
workload and remembers, per inode, the file's length at its last fsync.
:func:`crash_image` copies a directory and cuts every file back to that
length, so the benchmark itself discards the unflushed tail before
``recover()`` runs.

Files that were never fsync'd at all are kept whole and their bytes are
reported: at this commit ``save_database`` publishes the dump with
``os.replace`` and no fsync, so cutting them would leave no snapshot to
recover from.  The count makes that visible instead of hiding it.
"""

from __future__ import annotations

import os
import shutil
from typing import Dict, Tuple


class FsyncLog:
    """Counts ``os.fsync`` calls and records each file's flushed length."""

    def __init__(self) -> None:
        self.count = 0
        self.flushed: Dict[Tuple[int, int], int] = {}
        self._original = None

    def install(self) -> None:
        self._original = os.fsync

        def fsync(fd):
            self._original(fd)
            st = os.fstat(fd if isinstance(fd, int) else fd.fileno())
            self.flushed[(st.st_dev, st.st_ino)] = st.st_size
            self.count += 1

        os.fsync = fsync

    def uninstall(self) -> None:
        if self._original is not None:
            os.fsync = self._original
            self._original = None


def crash_image(source: str, target: str, log: FsyncLog) -> Dict[str, int]:
    """Copy ``source`` to ``target`` keeping only flushed bytes.

    Returns ``{"cut_bytes": ..., "never_synced_bytes": ...}``.
    """
    cut = never = 0
    for dirpath, _dirs, files in os.walk(source):
        out_dir = os.path.join(target, os.path.relpath(dirpath, source))
        os.makedirs(out_dir, exist_ok=True)
        for name in files:
            src = os.path.join(dirpath, name)
            dst = os.path.join(out_dir, name)
            st = os.stat(src)
            shutil.copyfile(src, dst)
            flushed = log.flushed.get((st.st_dev, st.st_ino))
            if flushed is None:
                never += st.st_size
            elif flushed < st.st_size:
                os.truncate(dst, flushed)
                cut += st.st_size - flushed
    return {"cut_bytes": cut, "never_synced_bytes": never}


def disk_bytes(root: str) -> int:
    """Bytes this process keeps under ``root``: files on disk plus files it
    still holds open after unlinking them (the buffer pool's overlay)."""
    total = 0
    seen = set()
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            st = os.stat(os.path.join(dirpath, name))
            seen.add((st.st_dev, st.st_ino))
            total += st.st_size
    fd_dir = "/proc/self/fd"
    for fd in os.listdir(fd_dir):
        try:
            link = os.readlink(os.path.join(fd_dir, fd))
            st = os.stat(os.path.join(fd_dir, fd))
        except OSError:
            continue
        if link.startswith(root) and (st.st_dev, st.st_ino) not in seen:
            seen.add((st.st_dev, st.st_ino))
            total += st.st_size
    return total
