"""Definitions of reporting-function views.

A :class:`SequenceViewDefinition` captures everything needed to materialize
and *match* a reporting-function view: the base table, an optional
selection, the measure column, the partitioning and ordering schemes, the
window, and the aggregate.  Definitions can be built programmatically or
extracted from a SQL text of the shape::

    SELECT ..., AGG(value) OVER (PARTITION BY p, ... ORDER BY o, ...
                                 ROWS ...) AS name
    FROM base_table
    [WHERE <selection>]

(one reporting function, one table — the canonical materialized-view shape
in the paper's setting).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.aggregates import Aggregate, by_name
from repro.core.window import WindowSpec
from repro.errors import ViewDefinitionError
from repro.relational.expr import ColumnRef, Expr
from repro.sql.ast_nodes import SelectStmt, WindowCall
from repro.sql.parser import parse_expression, parse_select

__all__ = ["SequenceViewDefinition"]


@dataclass(frozen=True)
class SequenceViewDefinition:
    """Logical definition of a materialized reporting-function view.

    Attributes:
        name: view name (unique per warehouse).
        base_table: the table the sequence is computed over.
        value_col: measure column aggregated by the reporting function.
        order_by: ordering columns (fig. 1's order clause).
        partition_by: partitioning columns (may be empty).
        window: the lowered window specification.
        aggregate_name: SUM/COUNT/AVG/MIN/MAX.
        where: optional selection predicate applied before sequencing
            (matched textually against incoming queries).
    """

    name: str
    base_table: str
    value_col: str
    order_by: Tuple[str, ...]
    partition_by: Tuple[str, ...] = ()
    window: WindowSpec = field(default_factory=WindowSpec.cumulative)
    aggregate_name: str = "SUM"
    where: Optional[Expr] = None

    def __post_init__(self) -> None:
        if not self.order_by:
            raise ViewDefinitionError(
                f"view {self.name!r}: a reporting-function view needs at "
                "least one ordering column"
            )
        by_name(self.aggregate_name)  # validates

    @property
    def aggregate(self) -> Aggregate:
        return by_name(self.aggregate_name)

    @property
    def storage_table(self) -> str:
        """Name of the warehouse table holding the materialized rows."""
        return f"__mv_{self.name}"

    @property
    def where_text(self) -> Optional[str]:
        return str(self.where) if self.where is not None else None

    # -- construction from SQL -----------------------------------------------------

    @classmethod
    def from_sql(cls, name: str, sql: str) -> "SequenceViewDefinition":
        """Extract a view definition from a defining SELECT.

        Raises:
            ViewDefinitionError: when the statement is not a recognisable
                single-table, single-reporting-function view definition.
        """
        stmt = parse_select(sql)
        return cls.from_statement(name, stmt)

    @classmethod
    def from_statement(cls, name: str, stmt: SelectStmt) -> "SequenceViewDefinition":
        if len(stmt.tables) != 1:
            raise ViewDefinitionError(
                f"view {name!r}: expected exactly one base table, got "
                f"{[t.name for t in stmt.tables]}"
            )
        if stmt.group_by or stmt.having is not None:
            raise ViewDefinitionError(
                f"view {name!r}: GROUP BY/HAVING are not part of a sequence "
                "view definition (apply them in a staging table first)"
            )
        calls = stmt.window_calls()
        if len(calls) != 1:
            raise ViewDefinitionError(
                f"view {name!r}: expected exactly one reporting function, "
                f"got {len(calls)}"
            )
        call: WindowCall = calls[0]
        if call.arg is None or not isinstance(call.arg, ColumnRef):
            raise ViewDefinitionError(
                f"view {name!r}: the reporting function must aggregate a "
                "plain column"
            )
        partition = []
        for p in call.over.partition_by:
            if not isinstance(p, ColumnRef):
                raise ViewDefinitionError(
                    f"view {name!r}: PARTITION BY must list plain columns, "
                    f"got {p}"
                )
            partition.append(p.name)
        order = []
        for o in call.over.order_by:
            if not isinstance(o.expr, ColumnRef) or not o.ascending:
                raise ViewDefinitionError(
                    f"view {name!r}: ORDER BY must list plain ascending "
                    f"columns, got {o}"
                )
            order.append(o.expr.name)
        return cls(
            name=name,
            base_table=stmt.tables[0].name,
            value_col=call.arg.name,
            order_by=tuple(order),
            partition_by=tuple(partition),
            window=call.over.window(),
            aggregate_name=call.func,
            where=stmt.where,
        )

    # -- JSON form (views.json of a dump, create_view records of the WAL) ----------

    def to_doc(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "base_table": self.base_table,
            "value_col": self.value_col,
            "order_by": list(self.order_by),
            "partition_by": list(self.partition_by),
            "window": {"kind": self.window.kind, "l": self.window.l, "h": self.window.h},
            "aggregate": self.aggregate_name,
            "where": self.where_text,
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "SequenceViewDefinition":
        w = doc["window"]
        window = (
            WindowSpec.cumulative()
            if w["kind"] == "cumulative"
            else WindowSpec.sliding(w["l"], w["h"], allow_point=True)
        )
        return cls(
            name=doc["name"], base_table=doc["base_table"], value_col=doc["value_col"],
            order_by=tuple(doc["order_by"]), partition_by=tuple(doc["partition_by"]),
            window=window, aggregate_name=doc["aggregate"],
            where=parse_expression(doc["where"]) if doc["where"] else None,
        )

    def describe(self) -> str:
        parts = [
            f"{self.aggregate_name}({self.value_col}) OVER (",
        ]
        if self.partition_by:
            parts.append("PARTITION BY " + ", ".join(self.partition_by) + " ")
        parts.append("ORDER BY " + ", ".join(self.order_by) + " ")
        parts.append(self.window.to_frame_sql() + ")")
        text = "".join(parts) + f" FROM {self.base_table}"
        if self.where is not None:
            text += f" WHERE {self.where}"
        return text
