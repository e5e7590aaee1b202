"""Catalog: the named-object registry of a database instance."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import CatalogError
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import DataType, type_by_name

__all__ = ["Catalog"]

ColumnSpec = Union[Tuple[str, DataType], Tuple[str, str], Column]


def _normalize_columns(specs: Sequence[ColumnSpec]) -> Schema:
    columns: List[Column] = []
    for spec in specs:
        if isinstance(spec, Column):
            columns.append(Column(spec.name, spec.type))
        else:
            name, typ = spec
            if isinstance(typ, str):
                typ = type_by_name(typ)
            columns.append(Column(name, typ))
    return Schema(columns)


class Catalog:
    """Case-preserving, name-keyed table registry.

    Args:
        tables: optional pre-bound ``{name: Table}`` mapping — used by the
            serving tier to build a catalog over an epoch snapshot's frozen
            table versions without copying any data.
    """

    def __init__(self, tables: Optional[Dict[str, Table]] = None) -> None:
        self._tables: Dict[str, Table] = dict(tables) if tables else {}

    def create_table(
        self,
        name: str,
        columns: Sequence[ColumnSpec],
        *,
        primary_key: Optional[Sequence[str]] = None,
        if_not_exists: bool = False,
    ) -> Table:
        if name in self._tables:
            if if_not_exists:
                return self._tables[name]
            raise CatalogError(f"table {name!r} already exists")
        table = Table(name, _normalize_columns(columns), primary_key=primary_key)
        self._tables[name] = table
        return table

    def drop_table(self, name: str, *, if_exists: bool = False) -> None:
        if name not in self._tables:
            if if_exists:
                return
            raise CatalogError(f"no table {name!r}")
        self._tables.pop(name).close()

    def rename_table(self, old: str, new: str, *, replace: bool = False) -> Table:
        """Rename ``old`` to ``new``; with ``replace`` an existing ``new``
        is dropped in the same step.

        This is the commit primitive of crash-consistent view refresh: the
        registry mutation is a plain dict rebinding, so readers observe
        either the previous table or the fully-built replacement — never a
        partially-filled one.
        """
        if old not in self._tables:
            raise CatalogError(f"no table {old!r}")
        if new in self._tables and not replace:
            raise CatalogError(f"table {new!r} already exists")
        table = self._tables.pop(old)
        table.name = new
        displaced = self._tables.get(new)
        self._tables[new] = table
        if displaced is not None:
            displaced.close()
        return table

    def replace(self, table: Table) -> None:
        """Rebind ``table.name`` to ``table`` in one atomic step.

        The copy-on-write primitive of the serving tier: a serialized
        writer installs a clone under the same name before mutating it, so
        snapshot readers holding the previous object are never affected.
        The rebinding is a single dict store — readers observe either the
        old or the new table, never a mixture.
        """
        if table.name not in self._tables:
            raise CatalogError(f"no table {table.name!r} to replace")
        self._tables[table.name] = table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(
                f"no table {name!r} (have {sorted(self._tables)})"
            ) from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def tables(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def names(self) -> List[str]:
        return sorted(self._tables)
