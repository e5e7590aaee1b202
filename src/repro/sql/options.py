"""The query options: validated once, at the front door.

The options are the paper's experimental alternatives (Table 1: native
window operator vs. the fig. 2 self join, with and without an index;
Table 2: MaxOA vs. MinOA, disjunctive vs. union pattern, relational vs.
in-memory derivation) plus the two routing switches.  Every entry point
that takes them as keywords (``DataWarehouse.query``, ``Database.sql``,
the serve protocol's ``options`` object) builds one :class:`QueryOptions`
before any work happens; the rewriter and the planner never re-check it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import PlanError

__all__ = ["QueryOptions"]

# Every field of QueryOptions and the values it may take.
_CHOICES = {
    "use_views": (True, False),
    "require_rewrite": (True, False),
    "algorithm": ("auto", "maxoa", "minoa"),
    "variant": ("disjunctive", "union"),
    "mode": ("memory", "relational"),
    "window_strategy": ("native", "selfjoin"),
    "use_index": ("auto", True, False),
}


@dataclass(frozen=True)
class QueryOptions:
    """How one query is to be answered.

    Attributes:
        use_views: attempt view-based rewriting first.
        require_rewrite: raise :class:`~repro.errors.NoRewriteError`
            when no view matches (a matching view answers either way).
        algorithm: derivation algorithm (``"auto"`` = cheapest valid).
        variant: relational pattern variant (figs. 10/13).
        mode: derivation route: ``"memory"`` (the in-memory derivation
            forms) or ``"relational"`` (the fig. 10/13 patterns over the
            view's storage table; DESIGN.md §5l).
        window_strategy: native window operator, or the fig. 2 self join.
        use_index: ``"auto"`` (use a sorted position index if present),
            ``True`` (require one) or ``False`` (never).
    """

    use_views: bool = True
    require_rewrite: bool = False
    algorithm: str = "auto"
    variant: str = "disjunctive"
    mode: str = "memory"
    window_strategy: str = "native"
    use_index: Any = "auto"

    def __post_init__(self) -> None:
        for name, allowed in _CHOICES.items():
            value = getattr(self, name)
            # Booleans match by identity: 1 == True must not pass for True.
            if not any(
                value is a if isinstance(a, bool) else value == a for a in allowed
            ):
                raise PlanError(
                    f"invalid value {value!r} for query option {name!r}; "
                    f"expected one of {allowed}"
                )

    @classmethod
    def build(cls, keywords: Mapping[str, Any]) -> "QueryOptions":
        """Options from their keyword form; unknown keywords are rejected."""
        unknown = sorted(set(keywords) - _CHOICES.keys())
        if unknown:
            raise PlanError(
                f"unknown query option(s) {unknown}; "
                f"expected any of {tuple(_CHOICES)}"
            )
        return cls(**keywords)
