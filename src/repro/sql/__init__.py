"""SQL front end: lexer, parser, planner, window execution, rewrite patterns.

The supported subset covers the paper's queries: SELECT over (self-)joined
tables with WHERE/GROUP BY/HAVING/ORDER BY/LIMIT, scalar expressions with
CASE/COALESCE/MOD, plain aggregates, and reporting functions with the full
``OVER (PARTITION BY ... ORDER BY ... ROWS ...)`` clause of fig. 1.
"""

from repro.sql.ast_nodes import (
    AggregateCall,
    FrameBound,
    FrameSpec,
    OrderItem,
    OverClause,
    SelectItem,
    SelectStmt,
    TableRef,
    WindowCall,
)
from repro.sql.lexer import Token, tokenize
from repro.sql.options import QueryOptions
from repro.sql.parser import parse_expression, parse_select
from repro.sql.patterns import (
    maxoa_pattern,
    minoa_pattern,
    raw_from_cumulative_pattern,
    self_join_window,
    sliding_from_cumulative_pattern,
)
from repro.sql.planner import build_plan, explain_sql
from repro.sql.window_exec import WindowColumnSpec, WindowOperator

__all__ = [
    "AggregateCall",
    "FrameBound",
    "FrameSpec",
    "OrderItem",
    "OverClause",
    "QueryOptions",
    "SelectItem",
    "SelectStmt",
    "TableRef",
    "Token",
    "WindowCall",
    "WindowColumnSpec",
    "WindowOperator",
    "build_plan",
    "explain_sql",
    "maxoa_pattern",
    "minoa_pattern",
    "parse_expression",
    "parse_select",
    "raw_from_cumulative_pattern",
    "self_join_window",
    "sliding_from_cumulative_pattern",
    "tokenize",
]
