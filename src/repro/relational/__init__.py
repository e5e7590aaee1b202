"""A from-scratch, in-memory relational engine (the paper's DB2 substitute).

Provides tables with hash/sorted indexes, a bound-expression evaluator with
SQL three-valued logic, volcano-style operators (scans, filters,
projections, sorts, unions, three join algorithms, hash aggregation), and a
:class:`~repro.relational.engine.Database` facade with execution statistics.

The engine intentionally exposes the *cost structure* the paper's
evaluation depends on: nested-loop joins examine O(n²) pairs, index
nested-loop joins O(n·matches), hash joins O(n + matches) — so Table 1 and
Table 2 shapes reproduce on top of it.
"""

from repro.relational.aggregate import AggSpec, HashAggregate
from repro.relational.catalog import Catalog
from repro.relational.engine import Database, Result
from repro.relational.expr import (
    And,
    Arithmetic,
    CaseExpr,
    Coalesce,
    ColumnRef,
    Comparison,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    col,
    lit,
)
from repro.relational.index import HashIndex, SortedIndex
from repro.relational.join import HashJoin, IndexNestedLoopJoin, NestedLoopJoin
from repro.relational.operators import (
    Alias,
    Distinct,
    Filter,
    Limit,
    Operator,
    Project,
    Sort,
    TableScan,
    UnionAll,
)
from repro.relational.schema import Column, Schema
from repro.relational.stats import ExecutionStats
from repro.relational.table import Table
from repro.relational.types import BOOLEAN, DATE, FLOAT, INTEGER, TEXT, DataType, type_by_name

__all__ = [
    "AggSpec",
    "Alias",
    "And",
    "Arithmetic",
    "BOOLEAN",
    "CaseExpr",
    "Catalog",
    "Coalesce",
    "Column",
    "ColumnRef",
    "Comparison",
    "DATE",
    "DataType",
    "Database",
    "Distinct",
    "ExecutionStats",
    "Expr",
    "FLOAT",
    "Filter",
    "FuncCall",
    "HashAggregate",
    "HashIndex",
    "HashJoin",
    "InList",
    "IndexNestedLoopJoin",
    "INTEGER",
    "IsNull",
    "Like",
    "Limit",
    "Literal",
    "NestedLoopJoin",
    "Not",
    "Operator",
    "Or",
    "Project",
    "Result",
    "Schema",
    "Sort",
    "SortedIndex",
    "Table",
    "TableScan",
    "TEXT",
    "UnionAll",
    "col",
    "lit",
    "type_by_name",
]
