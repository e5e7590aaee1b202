"""repro — Processing Reporting Function Views in a Data Warehouse Environment.

A full reproduction of Lehner, Hümmer & Schlesinger (ICDE 2002): the
sequence algebra of SQL reporting (window) functions, materialized
sequence views with incremental maintenance, the MaxOA/MinOA derivation
algorithms with their pure-relational operator patterns, and a data
warehouse facade with transparent query rewriting — all on top of a
from-scratch in-memory relational engine.

Quick start::

    from repro import DataWarehouse

    wh = DataWarehouse()
    wh.create_table("seq", [("pos", "INTEGER"), ("val", "FLOAT")],
                    primary_key=["pos"])
    wh.insert("seq", [(i, float(i)) for i in range(1, 101)])
    wh.create_view("mv", "SELECT pos, SUM(val) OVER (ORDER BY pos "
                         "ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING) AS s "
                         "FROM seq")
    res = wh.query("SELECT pos, SUM(val) OVER (ORDER BY pos "
                   "ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) AS s FROM seq")
    print(res.rewrite)   # answered from 'mv' via MaxOA/MinOA
"""

from repro.core import (
    AVG,
    COUNT,
    MAX,
    MIN,
    SUM,
    Aggregate,
    CompleteSequence,
    DerivationPlan,
    MaintenanceResult,
    PositionFunction,
    ReportingSequence,
    SequenceSpec,
    WindowSpec,
    apply_delete,
    apply_insert,
    apply_update,
    compute_naive,
    compute_pipelined,
    cumulative,
    derivable,
    derive,
    ordering_reduction,
    partitioning_reduction,
    plan,
    raw_from_cumulative,
    raw_from_sliding,
    sliding,
    sliding_from_cumulative,
)
from repro.errors import (
    DerivationError,
    IncompleteSequenceError,
    MaintenanceError,
    NoRewriteError,
    ReproError,
    SequenceError,
    ViewError,
    WindowError,
)
from repro.relational import Database, Result
from repro.views import MaterializedSequenceView, SequenceViewDefinition
from repro.warehouse import DataWarehouse, QueryResult

__version__ = "1.0.0"

__all__ = [
    "AVG",
    "Aggregate",
    "COUNT",
    "CompleteSequence",
    "Database",
    "DataWarehouse",
    "DerivationError",
    "DerivationPlan",
    "IncompleteSequenceError",
    "MAX",
    "MIN",
    "MaintenanceError",
    "MaintenanceResult",
    "MaterializedSequenceView",
    "NoRewriteError",
    "PositionFunction",
    "QueryResult",
    "ReportingSequence",
    "ReproError",
    "Result",
    "SUM",
    "SequenceError",
    "SequenceSpec",
    "SequenceViewDefinition",
    "ViewError",
    "WindowError",
    "WindowSpec",
    "apply_delete",
    "apply_insert",
    "apply_update",
    "compute_naive",
    "compute_pipelined",
    "cumulative",
    "derivable",
    "derive",
    "ordering_reduction",
    "partitioning_reduction",
    "plan",
    "raw_from_cumulative",
    "raw_from_sliding",
    "sliding",
    "sliding_from_cumulative",
    "__version__",
]
