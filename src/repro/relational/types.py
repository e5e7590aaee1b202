"""Column types for the relational engine.

A deliberately small type system — INTEGER, FLOAT, TEXT, BOOLEAN, DATE —
mirroring what the paper's schemas need (``c_transactions``,
``l_locations``, and the sequence tables ``seq(pos, val)`` /
``matseq(pos, val)``).  Dates are stored as ``datetime.date``.

Types validate and coerce Python values on insert; NULL is represented by
``None`` and accepted by every type.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.errors import SchemaError

__all__ = ["DataType", "INTEGER", "FLOAT", "TEXT", "BOOLEAN", "DATE", "type_by_name"]


@dataclass(frozen=True)
class DataType:
    """A column type: a name, a coercion/validation function, and the
    Python type whose values ``coerce`` returns unchanged."""

    name: str
    coerce: Callable[[Any], Any]
    exact: type

    def validate(self, value: Any) -> Any:
        """Coerce ``value`` to this type (``None`` passes through as NULL).

        Raises:
            SchemaError: when the value cannot represent this type.
        """
        if value is None:
            return None
        try:
            return self.coerce(value)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"cannot store {value!r} in a {self.name} column") from exc

    def validate_all(self, values: Sequence[Any]) -> Sequence[Any]:
        """:meth:`validate` over ``values``: ``values`` themselves when each
        is NULL or of the :attr:`exact` type (one pass over their types)."""
        if set(map(type, values)) <= {self.exact, type(None)}:
            return values
        return [self.validate(value) for value in values]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def _coerce_int(value: Any) -> int:
    if isinstance(value, bool):
        raise TypeError("boolean is not an integer")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value} has a fractional part")
    return int(value)


def _coerce_float(value: Any) -> float:
    if isinstance(value, bool):
        raise TypeError("boolean is not a float")
    return float(value)


def _coerce_text(value: Any) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected str, got {type(value).__name__}")
    return value


def _coerce_bool(value: Any) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected bool, got {type(value).__name__}")
    return value


def _coerce_date(value: Any) -> datetime.date:
    if isinstance(value, datetime.datetime):
        return value.date()
    if isinstance(value, datetime.date):
        return value
    if isinstance(value, str):
        return datetime.date.fromisoformat(value)
    raise TypeError(f"expected date, got {type(value).__name__}")


INTEGER = DataType("INTEGER", _coerce_int, int)
FLOAT = DataType("FLOAT", _coerce_float, float)
TEXT = DataType("TEXT", _coerce_text, str)
BOOLEAN = DataType("BOOLEAN", _coerce_bool, bool)
DATE = DataType("DATE", _coerce_date, datetime.date)

_TYPES = {t.name: t for t in (INTEGER, FLOAT, TEXT, BOOLEAN, DATE)}
_ALIASES = {"INT": INTEGER, "DOUBLE": FLOAT, "REAL": FLOAT, "VARCHAR": TEXT, "STRING": TEXT, "BOOL": BOOLEAN}


def type_by_name(name: str) -> DataType:
    """Look up a type by SQL-ish name (``INT``/``VARCHAR`` aliases accepted)."""
    upper = name.upper()
    if upper in _TYPES:
        return _TYPES[upper]
    if upper in _ALIASES:
        return _ALIASES[upper]
    raise SchemaError(f"unknown column type {name!r}")
