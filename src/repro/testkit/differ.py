"""Cross-path result comparison.

The comparison rule is :func:`repro.views.verify.values_differ`: NaN ==
NaN, relative tolerance floored at 1, because paths may legitimately
differ in the last ulp.  (View verification compares bits instead.)

Row-set drift (a path losing or inventing rows) is reported structurally,
mirroring how ``verify_view`` treats missing/unexpected partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.views.verify import TOLERANCE, values_differ

__all__ = ["PathDiscrepancy", "diff_results", "diff_paths"]

ResultMap = Dict[Tuple[object, ...], float]


@dataclass(frozen=True)
class PathDiscrepancy:
    """One disagreement between a path and the reference.

    Attributes:
        reference: name of the result the path was compared against.
        path: the disagreeing execution path.
        key: ``(g, pos)`` row key, or None for structural drift.
        expected: reference value (None for structural drift).
        got: path value (None for structural drift).
        detail: human-readable description.
    """

    reference: str
    path: str
    key: Optional[Tuple[object, ...]]
    expected: Optional[float]
    got: Optional[float]
    detail: str

    def to_dict(self) -> dict:
        return {
            "reference": self.reference,
            "path": self.path,
            "key": list(self.key) if self.key is not None else None,
            "expected": self.expected,
            "got": self.got,
            "detail": self.detail,
        }


def diff_results(
    reference_name: str,
    reference: ResultMap,
    path_name: str,
    result: ResultMap,
    *,
    tolerance: float = TOLERANCE,
) -> List[PathDiscrepancy]:
    """All disagreements of ``result`` against ``reference``."""
    out: List[PathDiscrepancy] = []
    for key in sorted(set(reference) - set(result), key=repr):
        out.append(PathDiscrepancy(
            reference_name, path_name, key, reference[key], None,
            f"row {key!r} missing from {path_name}"))
    for key in sorted(set(result) - set(reference), key=repr):
        out.append(PathDiscrepancy(
            reference_name, path_name, key, None, result[key],
            f"unexpected row {key!r} in {path_name}"))
    for key in sorted(set(reference) & set(result), key=repr):
        want, got = reference[key], result[key]
        if values_differ(want, got, tolerance=tolerance):
            out.append(PathDiscrepancy(
                reference_name, path_name, key, want, got,
                f"{path_name} value {got!r} != {reference_name} value {want!r}"))
    return out


def diff_paths(
    results: Dict[str, ResultMap],
    *,
    reference: str,
    tolerance: float = TOLERANCE,
) -> List[PathDiscrepancy]:
    """Compare every path in ``results`` against the named reference.

    Raises:
        KeyError: when the reference result is absent.
    """
    ref = results[reference]
    out: List[PathDiscrepancy] = []
    for name, result in results.items():
        if name == reference:
            continue
        out.extend(diff_results(reference, ref, name, result, tolerance=tolerance))
    return out
