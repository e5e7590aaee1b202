"""Durable storage: save/load a database to a directory.

Layout::

    <dir>/catalog.json              tables, schemas, primary keys, indexes,
                                    CRCs, page directories, format version
    <dir>/data/<table>.pages        format v4: fixed-size CRC32 pages of
                                    binary column chunks (out-of-core)
    <dir>/data/<table>.cols.json    format v3: one JSON array per column
    <dir>/data/<table>.jsonl        formats v1/v2: one JSON array per row

Format v3 (the default) serializes each table column-wise — one value
array per column, mirroring the in-memory columnar heap, so saving reads
each column buffer sequentially instead of materializing row tuples.
Versions 1 (no checksums) and 2 (row JSON-lines + CRC32) remain loadable;
``save_database(..., format_version=2)`` still writes the row format for
interoperability, and ``repro migrate`` upgrades old dumps in place.

Format v4 (``format_version=4``) is the *out-of-core* format: each
column is packed into fixed-size pages (:mod:`repro.storage.page`; the
``RPG5`` binary payload is the only one written, ``RPG4`` JSON pages of
older v4 dumps still load) with a per-page CRC32, kind and min/max zone
recorded in the catalog's page directory, and loading builds
:class:`~repro.storage.paged.PagedTable`s behind a shared
:class:`~repro.storage.buffer_pool.BufferPool` (``memory_budget_bytes``)
instead of ingesting rows eagerly — only the index rebuild streams the
data once; afterwards residency is bounded by the pool budget.

Values are typed through a small codec shared by all versions (dates
become ``{"$date": "YYYY-MM-DD"}``, NULL is JSON ``null``).  Loading
rebuilds tables and recreates secondary indexes; constraint checks
re-run, so a corrupted dump cannot smuggle in duplicate primary keys.

Crash consistency and corruption detection:

* every file is written to a ``.tmp`` sibling, fsync'd, and published
  with ``os.replace`` — a crash mid-save never tears an existing dump;
* the data directory is fsync'd after the last data file and the dump
  directory after the catalog, so once :func:`save_database` returns a
  power cut loses nothing, and no catalog can outlive the files it names;
* the catalog (written *last*, after every data file has landed) records a
  CRC32 per table; :func:`load_database` re-hashes each data file and
  raises a :class:`~repro.errors.CatalogError` naming the corrupt table
  before any rows are ingested.

The ``storage_write`` fault site lets tests inject a write failure for a
chosen table and assert that the pre-existing dump survives untouched.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Any, Dict, List, Optional

from repro.errors import CatalogError
from repro.relational.engine import Database
from repro.relational.types import type_by_name
from repro.storage.page import (
    DEFAULT_PAGE_SIZE,
    decode_value as _decode_value,
    encode_value as _encode_value,
    paginate_values,
)

__all__ = ["save_database", "load_database", "durable_write"]

# Version history: 1 = row JSONL, no checksums; 2 = row JSONL + per-table
# CRC32; 3 = columnar JSON (one array per column) + CRC32; 4 = paged
# columnar (fixed-size CRC32 pages, loaded out-of-core).  All four load;
# v3 stays the default write format (v4 is opt-in — callers that want
# bounded-memory loading ask for it explicitly).
_FORMAT_VERSION = 3
_SUPPORTED_VERSIONS = (1, 2, 3, 4)
_WRITABLE_VERSIONS = (2, 3, 4)


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


def _row_payload(table) -> bytes:
    """Format v1/v2 data payload: one JSON array per row (JSON lines)."""
    lines = []
    for row in table.rows:
        lines.append(json.dumps([_encode_value(v) for v in row]))
        lines.append("\n")
    return "".join(lines).encode("utf-8")


def _columnar_payload(table) -> bytes:
    """Format v3 data payload: one JSON value array per column.

    Reads each column buffer sequentially (``column_values`` is a
    zero-copy snapshot of the heap) — no row tuples are materialized.
    """
    doc = {
        "num_rows": len(table),
        "columns": [
            {
                "name": column.name,
                "values": [
                    _encode_value(v)
                    for v in table.column_values(i).to_pylist()
                ],
            }
            for i, column in enumerate(table.schema)
        ],
    }
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def _paged_payload(table, page_size: int):
    """Format v4 data payload + page directory.

    Each column's buffers are packed into fixed-size pages; the directory
    records ``{column: [{page, start, rows, crc32, kind, min, max}, ...]}``
    so a read seeks straight to the pages that cover — and can match — it.
    """
    blobs: List[bytes] = []
    directory: Dict[str, Any] = {}
    page_no = 0
    for i, column in enumerate(table.schema):
        raw_pages, entries = paginate_values(table.column_values(i), page_size, page_no)
        blobs.extend(raw_pages)
        directory[column.name] = entries
        page_no += len(raw_pages)
    return b"".join(blobs), directory


def _data_filename(table_name: str, format_version: int) -> str:
    if format_version >= 4:
        return f"{table_name}.pages"
    if format_version >= 3:
        return f"{table_name}.cols.json"
    return f"{table_name}.jsonl"


def save_database(
    db: Database,
    directory: str,
    *,
    format_version: int = _FORMAT_VERSION,
    page_size: int = DEFAULT_PAGE_SIZE,
) -> None:
    """Write every table (schema, rows, indexes) under ``directory``.

    Args:
        format_version: 3 (columnar, default), 4 (paged columnar for
            out-of-core loading) or 2 (row JSON-lines, for
            interoperability with older readers).
        page_size: fixed page size in bytes for format 4 (ignored
            otherwise).

    Atomic at file granularity and durable on return: each data file and
    the catalog are staged to a temp sibling, fsync'd and renamed into
    place, and the catalog — the file load trusts — is only published
    after every data file it references has landed.  A failure mid-save (including the injected
    ``storage_write`` fault) leaves any previous dump loadable.
    """
    from repro.faults import injector

    if format_version not in _WRITABLE_VERSIONS:
        raise CatalogError(
            f"cannot write dump version {format_version!r} "
            f"(writable: {list(_WRITABLE_VERSIONS)})"
        )
    data_dir = os.path.join(directory, "data")
    os.makedirs(data_dir, exist_ok=True)
    catalog: Dict[str, Any] = {"version": format_version, "tables": []}
    for table in db.catalog.tables():
        injector.check("storage_write", table.name)
        page_directory = None
        if format_version >= 4:
            payload, page_directory = _paged_payload(table, page_size)
        elif format_version >= 3:
            payload = _columnar_payload(table)
        else:
            payload = _row_payload(table)
        data_file = _data_filename(table.name, format_version)
        entry = {
            "name": table.name,
            "columns": [
                {"name": c.name, "type": c.type.name} for c in table.schema
            ],
            "primary_key": list(table.primary_key or ()),
            "indexes": [
                {
                    "name": index.name,
                    "columns": [table.schema.columns[i].name
                                for i in index.column_indexes],
                    "kind": index.kind,
                    "unique": index.unique,
                }
                for index in table.indexes.values()
                # The primary key's own index is recreated from primary_key.
                if not (table.primary_key and index.name == f"{table.name}_pk")
            ],
            "data_file": data_file,
            "crc32": zlib.crc32(payload),
        }
        if page_directory is not None:
            # v4: integrity is per page (header CRC + the directory CRCs
            # below); drop the whole-file CRC so loading never has to
            # read the entire file up front.
            del entry["crc32"]
            entry["pages"] = {
                "page_size": page_size,
                "num_rows": len(table),
                "columns": page_directory,
            }
        stats_doc = db.stats.dump(table.name)
        if stats_doc is not None:
            entry["stats"] = stats_doc
        catalog["tables"].append(entry)
        _atomic_write(os.path.join(data_dir, data_file), payload)
    # Data files first, catalog after: the file load trusts must never be
    # durable ahead of what it references.
    _fsync_dir(data_dir)
    durable_write(
        os.path.join(directory, "catalog.json"),
        json.dumps(catalog, indent=2).encode("utf-8"),
    )


def _decode_rows(payload: bytes) -> List[List[Any]]:
    """Decode a v1/v2 row JSON-lines payload."""
    rows: List[List[Any]] = []
    for line in payload.decode("utf-8").splitlines():
        line = line.strip()
        if line:
            rows.append([_decode_value(v) for v in json.loads(line)])
    return rows


def _decode_columnar(
    table_name: str, payload: bytes, expected_columns: int
) -> List[List[Any]]:
    """Decode a v3 columnar payload back to row lists for ingestion."""
    if not payload:
        return []
    doc = json.loads(payload.decode("utf-8"))
    cols = doc.get("columns", [])
    if len(cols) != expected_columns:
        raise CatalogError(
            f"table {table_name!r}: dump has {len(cols)} columns, "
            f"catalog declares {expected_columns}"
        )
    num_rows = doc.get("num_rows", 0)
    decoded = []
    for col in cols:
        values = [_decode_value(v) for v in col["values"]]
        if len(values) != num_rows:
            raise CatalogError(
                f"table {table_name!r}: column {col.get('name')!r} has "
                f"{len(values)} values for {num_rows} rows"
            )
        decoded.append(values)
    return [list(row) for row in zip(*decoded)] if num_rows else []


def _attach_paged(db: Database, table, entry: Dict[str, Any], path: str):
    """Turn a freshly created empty table into a PagedTable over ``path``."""
    from repro.columns import kind_for_type
    from repro.storage.buffer_pool import PageRef
    from repro.storage.paged import PagedColumnStore, PagedTable
    from repro.storage.pager import PageFile

    pages = entry["pages"]
    if not os.path.exists(path) and pages["num_rows"]:
        raise CatalogError(
            f"data file for table {entry['name']!r} is missing: {path}"
        )
    file = PageFile(path, pages["page_size"])
    stores = []
    for column in table.schema:
        declared = kind_for_type(column.type.name)
        refs = [
            PageRef(
                file,
                e["page"],
                table.name,
                column.name,
                e["start"],
                e["rows"],
                e.get("crc32"),
                e.get("kind", declared),  # absent in a dump of JSON pages
                (e["min"], e["max"]) if "min" in e else None,
            )
            for e in pages["columns"].get(column.name, [])
        ]
        stores.append(
            PagedColumnStore(
                refs[0].kind if refs else declared,
                db.buffer_pool,
                file,
                table.name,
                column.name,
                refs,
            )
        )
    for i, store in enumerate(stores):
        if len(store) != pages["num_rows"]:
            raise CatalogError(
                f"table {entry['name']!r}: page directory for column "
                f"{table.schema.columns[i].name!r} covers {len(store)} rows "
                f"for {pages['num_rows']} rows"
            )
    return PagedTable.attach(table, stores, db.buffer_pool, pages["num_rows"])


def load_database(
    directory: str, *, memory_budget_bytes: Optional[int] = None
) -> Database:
    """Rebuild a database saved with :func:`save_database`.

    Args:
        memory_budget_bytes: buffer-pool budget for v4 (paged) dumps —
            the cap on resident page bytes.  Defaults to
            :data:`~repro.storage.buffer_pool.DEFAULT_MEMORY_BUDGET`;
            ignored for fully in-memory formats (v1–v3).

    Raises:
        CatalogError: missing or version-incompatible dump, or a data file
            whose CRC32 no longer matches the catalog (the error names the
            corrupt table).  v4 page CRCs are checked lazily on first
            fault-in (:class:`~repro.errors.PageCorruptError`).
    """
    catalog_path = os.path.join(directory, "catalog.json")
    if not os.path.exists(catalog_path):
        raise CatalogError(f"no database dump at {directory!r}")
    with open(catalog_path, encoding="utf-8") as fh:
        catalog = json.load(fh)
    if catalog.get("version") not in _SUPPORTED_VERSIONS:
        raise CatalogError(
            f"dump version {catalog.get('version')!r} is not supported "
            f"(expected one of {list(_SUPPORTED_VERSIONS)})"
        )
    version = catalog.get("version")
    db = Database()
    if version >= 4:
        from repro.storage.buffer_pool import DEFAULT_MEMORY_BUDGET, BufferPool

        budget = (
            DEFAULT_MEMORY_BUDGET
            if memory_budget_bytes is None
            else memory_budget_bytes
        )
        page_size = max(
            (e["pages"]["page_size"] for e in catalog["tables"] if "pages" in e),
            default=4096,
        )
        db.buffer_pool = BufferPool(budget, page_size=page_size)
        db.memory_budget_bytes = budget
    for entry in catalog["tables"]:
        columns = [(c["name"], type_by_name(c["type"])) for c in entry["columns"]]
        table = db.create_table(
            entry["name"], columns, primary_key=entry["primary_key"] or None
        )
        data_file = entry.get("data_file") or _data_filename(
            entry["name"], version
        )
        path = os.path.join(directory, "data", data_file)
        if "pages" in entry:
            table = _attach_paged(db, table, entry, path)
        else:
            payload = b""
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    payload = fh.read()
            want = entry.get("crc32")
            if want is not None and zlib.crc32(payload) != want:
                raise CatalogError(
                    f"data file for table {entry['name']!r} is corrupt: "
                    f"CRC32 {zlib.crc32(payload)} != cataloged {want} "
                    f"({path})"
                )
            if data_file.endswith(".cols.json"):
                rows = _decode_columnar(entry["name"], payload, len(columns))
            else:
                rows = _decode_rows(payload)
            table.insert_many(rows)
        # Optimizer statistics travel with the dump; older dumps (or tables
        # saved before their first ANALYZE) re-collect on load instead.
        from repro.relational.engine import AUTO_ANALYZE_MAX_ROWS

        stats_doc = entry.get("stats")
        if stats_doc is not None:
            db.stats.load(entry["name"], stats_doc)
        elif len(table) <= AUTO_ANALYZE_MAX_ROWS:
            db.stats.analyze(table)
        for index in entry["indexes"]:
            table.create_index(
                index["name"],
                index["columns"],
                kind=index["kind"],
                unique=index["unique"],
            )
    return db
