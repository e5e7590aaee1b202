"""Durable storage: save/load a database to a directory.

Layout::

    <dir>/catalog.json          tables, schemas, primary keys, indexes,
                                page directories, version 4
    <dir>/data/<table>.pages    fixed-size CRC32 pages of binary column
                                chunks (:mod:`repro.storage.page`)

There is one write format: every save writes each column of a table as
``RPG5`` pages, one file per table, and records a directory entry per
page (first row, rows, CRC32, kind, min/max zone) in the catalog.  A
table's pages are ``page_size`` bytes, or the smallest power of two above
that fits its widest single value, so a TEXT value of any length saves.

Loading follows the memory budget, not the file.  One builder fills
every table, chunk by 500-slot chunk:

* without ``memory_budget_bytes`` it reads, checks and decodes every page
  now, into resident chunks — no buffer pool, no overlay, and
  ``db.memory_budget_bytes`` stays ``None``;
* with a budget each chunk stays on its pages
  (:class:`~repro.storage.buffer_pool.PageChunk`) and pins them later
  through one shared :class:`~repro.storage.buffer_pool.BufferPool`: only
  the index rebuild streams the data once, afterwards residency is
  bounded by the pool.

Version 4 of ``RPG5`` pages is the one format read too: a catalog of any
other version is refused with a :class:`~repro.errors.CatalogError` that
names it.  Loading recreates secondary indexes and re-runs the constraint
checks, so a corrupted dump cannot smuggle in duplicate primary keys.

Crash consistency and corruption detection:

* every data file is written to a ``.tmp`` sibling, fsync'd, and published
  with ``os.replace`` — a crash mid-save never tears an existing dump;
* the data directory is fsync'd after the last data file and the dump
  directory after the catalog, so once :func:`save_database` returns a
  power cut loses nothing, and no catalog can outlive the files it names;
  only then are data files the new catalog no longer names removed;
* every page is checked — magic, page number, header CRC, the directory's
  CRC, the chunk header — on each fault-in and on each in-memory decode.
  A failure names the table.

The ``storage_write`` fault site lets tests inject a write failure for a
chosen table and assert that the pre-existing dump survives untouched.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Optional

from repro.errors import CatalogError
from repro.relational.engine import Database
from repro.relational.types import type_by_name
from repro.storage.page import DEFAULT_PAGE_SIZE, paginate_table

__all__ = ["save_database", "load_database", "durable_write"]

# Version history: 1 = row JSONL, no checksums; 2 = row JSONL + per-table
# CRC32; 3 = columnar JSON (one array per column) + CRC32; 4 = fixed-size
# CRC32 pages.  Only 4 is written or read.
_FORMAT_VERSION = 4


def _atomic_write(path: str, payload: bytes) -> None:
    """Write ``payload`` to ``path`` via an fsync'd temp file + atomic
    rename.  The rename itself is durable once :func:`_fsync_dir` ran."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _fsync_dir(directory: str) -> None:
    """Flush ``directory``'s entries (new files, renames) to stable storage."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def durable_write(path: str, payload: bytes) -> None:
    """Atomically replace ``path`` with ``payload`` and make it durable:
    contents and directory entry are on stable storage on return."""
    _atomic_write(path, payload)
    _fsync_dir(os.path.dirname(path) or ".")


def save_database(
    db: Database, directory: str, *, page_size: int = DEFAULT_PAGE_SIZE
) -> None:
    """Write every table (schema, pages, indexes) under ``directory``.

    Args:
        page_size: the page size in bytes; a table with a value wider than
            a page gets the smallest power of two above it that fits.

    Atomic at file granularity and durable on return: each data file and
    the catalog are staged to a temp sibling, fsync'd and renamed into
    place, and the catalog — the file load trusts — is only published
    after every data file it references has landed.  Page files of an
    earlier dump the new catalog does not name are removed last.  A
    failure mid-save (including the injected ``storage_write`` fault)
    leaves any previous dump loadable.
    """
    from repro.faults import injector

    data_dir = os.path.join(directory, "data")
    os.makedirs(data_dir, exist_ok=True)
    catalog: Dict[str, Any] = {"version": _FORMAT_VERSION, "tables": []}
    for table in db.catalog.tables():
        injector.check("storage_write", table.name)
        names = table.schema.names()
        raw_pages, directories, table_page_size = paginate_table(
            [table.column_values(i) for i in range(len(names))], page_size
        )
        entry = {
            "name": table.name,
            "columns": [
                {"name": c.name, "type": c.type.name} for c in table.schema
            ],
            "primary_key": list(table.primary_key or ()),
            "indexes": [
                {
                    "name": index.name,
                    "columns": [names[i] for i in index.column_indexes],
                    "kind": index.kind,
                    "unique": index.unique,
                }
                for index in table.indexes.values()
                # The primary key's own index is recreated from primary_key.
                if not (table.primary_key and index.name == f"{table.name}_pk")
            ],
            "data_file": f"{table.name}.pages",
            # Integrity is per page (header CRC + the directory CRCs), so
            # loading never has to read a whole file up front.
            "pages": {
                "page_size": table_page_size,
                "num_rows": len(table),
                "columns": dict(zip(names, directories)),
            },
        }
        catalog["tables"].append(entry)
        _atomic_write(os.path.join(data_dir, entry["data_file"]), b"".join(raw_pages))
    # Data files first, catalog after: the file load trusts must never be
    # durable ahead of what it references.
    _fsync_dir(data_dir)
    durable_write(
        os.path.join(directory, "catalog.json"),
        json.dumps(catalog, indent=2).encode("utf-8"),
    )
    referenced = {entry["data_file"] for entry in catalog["tables"]}
    for name in os.listdir(data_dir):
        if name.endswith(".pages") and name not in referenced:
            os.remove(os.path.join(data_dir, name))


def _page_refs(table, entry: Dict[str, Any], path: str):
    """The table's page file, and per column the :class:`PageRef` of each
    of its pages (checked to cover the table's rows in order)."""
    from repro.storage.buffer_pool import PageRef
    from repro.storage.pager import PageFile

    pages = entry["pages"]
    if not os.path.exists(path) and pages["num_rows"]:
        raise CatalogError(
            f"data file for table {entry['name']!r} is missing: {path}"
        )
    file = PageFile(path, pages["page_size"])
    refs_by_column = []
    for column in table.schema:
        entries = pages["columns"].get(column.name, [])
        ends = [0]
        for e in entries:
            ends.append(ends[-1] + e["rows"])
        if [e["start"] for e in entries] != ends[:-1] or ends[-1] != pages["num_rows"]:
            raise CatalogError(
                f"table {entry['name']!r}: page directory for column "
                f"{column.name!r} does not cover its {pages['num_rows']} rows in order"
            )
        refs_by_column.append([
            PageRef(
                file,
                e["page"],
                table.name,
                column.name,
                e["start"],
                e["rows"],
                e.get("crc32"),
                e["kind"],
                (e["min"], e["max"]) if "min" in e else None,
            )
            for e in entries
        ])
    return file, refs_by_column


def _load_pages(db: Database, table, entry: Dict[str, Any], path: str):
    """Fill a freshly created empty table from its pages, chunk by chunk:
    decoded now into resident chunks, or — when ``db`` has a buffer pool —
    left on the pages of ``path`` to be pinned when read."""
    from repro.columns import Column, ColumnBuilder, kind_for_type
    from repro.storage.buffer_pool import PageChunk

    file, refs_by_column = _page_refs(table, entry, path)
    num_rows, pool = entry["pages"]["num_rows"], db.buffer_pool
    builders = []
    try:
        for column, refs in zip(table.schema, refs_by_column):
            kind = refs[0].kind if refs else kind_for_type(column.type.name)
            if pool is None:
                pages = [ref.decode(file.read_page(ref.page_no), ref.crc32) for ref in refs]
                builders.append(ColumnBuilder.from_column(Column.concat(pages, kind)))
            else:
                chunk_at = PageChunk.over(pool, refs)
                builders.append(ColumnBuilder.from_chunks(kind, num_rows, chunk_at))
        table.adopt_columns(builders, num_rows)
    except BaseException:
        file.close()  # a page that failed its checks must not leak the fd
        raise
    if pool is None:
        file.close()
    return table


def load_database(
    directory: str, *, memory_budget_bytes: Optional[int] = None
) -> Database:
    """Rebuild a database saved with :func:`save_database`.

    Args:
        memory_budget_bytes: the cap on resident page bytes.  ``None``
            loads every table into memory; a budget leaves every chunk on
            its pages behind a buffer pool of that size and sets it as the
            database's operator spill budget.

    Raises:
        CatalogError: a missing dump, a catalog of a version other than 4
            (the error names it), or a data file that fails its checks (the
            error names the table).  A page that fails its checks is a
            :class:`~repro.errors.PageCorruptError`: raised by the load
            itself in memory, on first fault-in with a budget.
    """
    catalog_path = os.path.join(directory, "catalog.json")
    if not os.path.exists(catalog_path):
        raise CatalogError(f"no database dump at {directory!r}")
    with open(catalog_path, encoding="utf-8") as fh:
        catalog = json.load(fh)
    if catalog.get("version") != _FORMAT_VERSION:
        raise CatalogError(
            f"dump version {catalog.get('version')!r} is not supported "
            f"(only version {_FORMAT_VERSION} loads)"
        )
    db = Database()
    if memory_budget_bytes is not None:
        from repro.storage.buffer_pool import BufferPool

        page_size = max(
            (e["pages"]["page_size"] for e in catalog["tables"]),
            default=DEFAULT_PAGE_SIZE,
        )
        db.buffer_pool = BufferPool(memory_budget_bytes, page_size=page_size)
        db.memory_budget_bytes = memory_budget_bytes
    for entry in catalog["tables"]:
        columns = [(c["name"], type_by_name(c["type"])) for c in entry["columns"]]
        table = db.create_table(
            entry["name"], columns, primary_key=entry["primary_key"] or None
        )
        path = os.path.join(directory, "data", entry["data_file"])
        table = _load_pages(db, table, entry, path)
        for index in entry["indexes"]:
            table.create_index(
                index["name"],
                index["columns"],
                kind=index["kind"],
                unique=index["unique"],
            )
    return db
