"""DDL and DML statements: CREATE/DROP, INSERT, UPDATE, DELETE.

Complements the SELECT parser so that a warehouse can be driven entirely
through SQL text::

    CREATE TABLE seq (pos INTEGER, val FLOAT, PRIMARY KEY (pos))
    CREATE [UNIQUE] INDEX by_val ON seq (val)
    INSERT INTO seq VALUES (1, 10.5), (2, 11.0)
    INSERT INTO seq (pos, val) VALUES (3, 9.25)
    UPDATE seq SET val = val + 1 WHERE pos = 2
    DELETE FROM seq WHERE pos > 100
    DROP TABLE [IF EXISTS] seq
    DROP INDEX by_val ON seq

Execution semantics: UPDATE/DELETE evaluate their WHERE over each row with
the usual three-valued logic (only TRUE rows are affected); UPDATE's SET
expressions see the *old* row values.  All statements return a
:class:`~repro.relational.engine.Result` whose single ``count`` column
reports the number of affected rows (0 for DDL).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.errors import ParseError, UnsupportedSqlError
from repro.relational.engine import Database, Result
from repro.relational.expr import Expr, Literal
from repro.relational.schema import Column, Schema
from repro.relational.stats import ExecutionStats
from repro.relational.types import INTEGER, type_by_name
from repro.sql.ast_nodes import SelectStmt
from repro.sql.lexer import tokenize
from repro.sql.parser import _Parser

__all__ = [
    "CreateTableStmt",
    "CreateIndexStmt",
    "DropTableStmt",
    "DropIndexStmt",
    "InsertStmt",
    "UpdateStmt",
    "DeleteStmt",
    "parse_statement",
    "execute_statement",
]


@dataclass(frozen=True)
class CreateTableStmt:
    name: str
    columns: Tuple[Tuple[str, str], ...]  # (name, type name)
    primary_key: Tuple[str, ...]
    if_not_exists: bool


@dataclass(frozen=True)
class CreateIndexStmt:
    name: str
    table: str
    columns: Tuple[str, ...]
    unique: bool


@dataclass(frozen=True)
class DropTableStmt:
    name: str
    if_exists: bool


@dataclass(frozen=True)
class DropIndexStmt:
    name: str
    table: str


@dataclass(frozen=True)
class InsertStmt:
    table: str
    columns: Tuple[str, ...]  # empty = positional
    rows: Tuple[Tuple[Expr, ...], ...]


@dataclass(frozen=True)
class UpdateStmt:
    table: str
    assignments: Tuple[Tuple[str, Expr], ...]
    where: Optional[Expr]


@dataclass(frozen=True)
class DeleteStmt:
    table: str
    where: Optional[Expr]


Statement = Any  # one of the dataclasses above, or SelectStmt


class _StatementParser(_Parser):
    """Extends the SELECT parser with DDL/DML productions."""

    def statement(self) -> Statement:
        tok = self._cur
        if tok.is_keyword("SELECT"):
            first = self.select()
            if not self._cur.is_keyword("UNION"):
                return first
            from dataclasses import replace as _replace

            from repro.sql.ast_nodes import CompoundSelect

            selects = [first]
            while self._accept_keyword("UNION"):
                self._expect_keyword("ALL")
                selects.append(self.select())
            last = selects[-1]
            order_by, limit = last.order_by, last.limit
            if order_by or limit is not None:
                selects[-1] = _replace(last, order_by=(), limit=None)
            return CompoundSelect(tuple(selects), order_by, limit)
        if tok.is_keyword("CREATE"):
            return self._create()
        if tok.is_keyword("DROP"):
            return self._drop()
        if tok.is_keyword("INSERT"):
            return self._insert()
        if tok.is_keyword("UPDATE"):
            return self._update()
        if tok.is_keyword("DELETE"):
            return self._delete()
        raise self._error("expected a SQL statement")

    # -- CREATE ------------------------------------------------------------------

    def _create(self) -> Statement:
        self._expect_keyword("CREATE")
        if self._accept_keyword("TABLE"):
            return self._create_table()
        unique = self._accept_keyword("UNIQUE")
        self._expect_keyword("INDEX")
        name = self._ident("index name")
        self._expect_keyword("ON")
        table = self._ident("table name")
        self._expect_symbol("(")
        columns = [self._ident("column name")]
        while self._accept_symbol(","):
            columns.append(self._ident("column name"))
        self._expect_symbol(")")
        return CreateIndexStmt(name, table, tuple(columns), unique)

    def _create_table(self) -> CreateTableStmt:
        if_not_exists = False
        if self._accept_keyword("IF"):
            self._expect_keyword("NOT")
            self._expect_keyword("EXISTS")
            if_not_exists = True
        name = self._ident("table name")
        self._expect_symbol("(")
        columns: List[Tuple[str, str]] = []
        primary_key: Tuple[str, ...] = ()
        while True:
            if self._accept_keyword("PRIMARY"):
                self._expect_keyword("KEY")
                self._expect_symbol("(")
                pk = [self._ident("column name")]
                while self._accept_symbol(","):
                    pk.append(self._ident("column name"))
                self._expect_symbol(")")
                primary_key = tuple(pk)
            else:
                col_name = self._ident("column name")
                type_name = self._ident("column type")
                columns.append((col_name, type_name))
            if not self._accept_symbol(","):
                break
        self._expect_symbol(")")
        if not columns:
            raise self._error("CREATE TABLE needs at least one column")
        return CreateTableStmt(name, tuple(columns), primary_key, if_not_exists)

    # -- DROP ---------------------------------------------------------------------

    def _drop(self) -> Statement:
        self._expect_keyword("DROP")
        if self._accept_keyword("TABLE"):
            if_exists = False
            if self._accept_keyword("IF"):
                self._expect_keyword("EXISTS")
                if_exists = True
            return DropTableStmt(self._ident("table name"), if_exists)
        self._expect_keyword("INDEX")
        name = self._ident("index name")
        self._expect_keyword("ON")
        return DropIndexStmt(name, self._ident("table name"))

    # -- INSERT --------------------------------------------------------------------

    def _insert(self) -> InsertStmt:
        self._expect_keyword("INSERT")
        self._expect_keyword("INTO")
        table = self._ident("table name")
        columns: Tuple[str, ...] = ()
        if self._accept_symbol("("):
            names = [self._ident("column name")]
            while self._accept_symbol(","):
                names.append(self._ident("column name"))
            self._expect_symbol(")")
            columns = tuple(names)
        self._expect_keyword("VALUES")
        rows: List[Tuple[Expr, ...]] = []
        while True:
            self._expect_symbol("(")
            values = [self.expression()]
            while self._accept_symbol(","):
                values.append(self.expression())
            self._expect_symbol(")")
            rows.append(tuple(values))
            if not self._accept_symbol(","):
                break
        return InsertStmt(table, columns, tuple(rows))

    # -- UPDATE / DELETE ---------------------------------------------------------------

    def _update(self) -> UpdateStmt:
        self._expect_keyword("UPDATE")
        table = self._ident("table name")
        self._expect_keyword("SET")
        assignments = [self._assignment()]
        while self._accept_symbol(","):
            assignments.append(self._assignment())
        where = self.expression() if self._accept_keyword("WHERE") else None
        return UpdateStmt(table, tuple(assignments), where)

    def _assignment(self) -> Tuple[str, Expr]:
        column = self._ident("column name")
        self._expect_symbol("=")
        return column, self.expression()

    def _delete(self) -> DeleteStmt:
        self._expect_keyword("DELETE")
        self._expect_keyword("FROM")
        table = self._ident("table name")
        where = self.expression() if self._accept_keyword("WHERE") else None
        return DeleteStmt(table, where)


def parse_statement(text: str) -> Statement:
    """Parse any supported statement (SELECT or DDL/DML)."""
    parser = _StatementParser(tokenize(text))
    stmt = parser.statement()
    parser.expect_eof()
    return stmt


def _count_result(count: int) -> Result:
    return Result(Schema([Column("count", INTEGER)]), [(count,)], ExecutionStats())


def execute_statement(db: Database, stmt: Statement, **options: Any) -> Result:
    """Execute a parsed statement against a database."""
    from repro.sql.ast_nodes import CompoundSelect

    if isinstance(stmt, (SelectStmt, CompoundSelect)):
        from repro.sql.options import QueryOptions
        from repro.sql.planner import build_plan

        return db.run(build_plan(db, stmt, QueryOptions.build(options)))
    if isinstance(stmt, CreateTableStmt):
        db.create_table(
            stmt.name,
            [(name, type_by_name(type_name)) for name, type_name in stmt.columns],
            primary_key=list(stmt.primary_key) or None,
            if_not_exists=stmt.if_not_exists,
        )
        return _count_result(0)
    if isinstance(stmt, CreateIndexStmt):
        db.create_index(stmt.table, stmt.name, list(stmt.columns), unique=stmt.unique)
        return _count_result(0)
    if isinstance(stmt, DropTableStmt):
        db.drop_table(stmt.name, if_exists=stmt.if_exists)
        return _count_result(0)
    if isinstance(stmt, DropIndexStmt):
        db.drop_index(stmt.table, stmt.name)
        return _count_result(0)
    if isinstance(stmt, InsertStmt):
        return _count_result(_execute_insert(db, stmt))
    if isinstance(stmt, UpdateStmt):
        return _count_result(_execute_update(db, stmt))
    if isinstance(stmt, DeleteStmt):
        return _count_result(_execute_delete(db, stmt))
    raise UnsupportedSqlError(f"cannot execute statement {type(stmt).__name__}")


_EMPTY_SCHEMA = Schema([])


def _literal_row(exprs: Tuple[Expr, ...]) -> List[Any]:
    out = []
    for expr in exprs:
        compiled = expr.bind(_EMPTY_SCHEMA)
        out.append(compiled(()))
    return out


def _execute_insert(db: Database, stmt: InsertStmt) -> int:
    table = db.table(stmt.table)
    rows = []
    for value_exprs in stmt.rows:
        values = _literal_row(value_exprs)
        if stmt.columns:
            if len(values) != len(stmt.columns):
                raise ParseError(
                    f"INSERT row has {len(values)} values for "
                    f"{len(stmt.columns)} columns"
                )
            by_name = dict(zip(stmt.columns, values))
            row = [by_name.get(c.name) for c in table.schema]
            unknown = set(stmt.columns) - {c.name for c in table.schema}
            if unknown:
                raise ParseError(f"unknown INSERT columns {sorted(unknown)}")
        else:
            row = values
        rows.append(row)
    return table.insert_many(rows)  # all rows or none


def _execute_update(db: Database, stmt: UpdateStmt) -> int:
    table = db.table(stmt.table)
    where = stmt.where.bind(table.schema) if stmt.where is not None else None
    assigns = [
        (table.schema.resolve(column), expr.bind(table.schema))
        for column, expr in stmt.assignments
    ]
    touched = 0
    for slot, row in enumerate(table.rows):
        if where is not None and where(row) is not True:
            continue
        new_row = list(row)
        for index, compiled in assigns:
            new_row[index] = compiled(row)  # SET sees the old values
        table.update_slot(slot, new_row)
        touched += 1
    return touched


def _execute_delete(db: Database, stmt: DeleteStmt) -> int:
    table = db.table(stmt.table)
    where = stmt.where.bind(table.schema) if stmt.where is not None else None
    doomed = [
        slot
        for slot, row in enumerate(table.rows)
        if where is None or where(row) is True
    ]
    return table.delete_slots(doomed)
