"""Witness reports: machine-checkable certificates built from exact rationals.

Every verification routine returns a ``WitnessReport`` whose certificate is
a list of concrete rational comparisons.  The verdict is, by construction,
the conjunction of those comparisons (and the absence of a search failure),
so ``recheck`` can re-decide the verdict from the stored numbers alone,
without re-running any search.  Serialization keeps rationals as exact
"p/q" strings; no float appears anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Mapping, Optional, Sequence

from sawcascade.construction import Rat, as_rational

#: Report kinds, one per verification routine family.
REPORT_KINDS = (
    "oscillation",
    "non_extremum",
    "non_monotone",
    "local_min",
    "quotient_bound",
    "structure",
    "integral_crosscheck",
)

_RELATIONS: dict[str, Callable[[Rat, Rat], bool]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass(frozen=True)
class Check:
    """One exact comparison: ``lhs relation rhs`` with rational sides."""

    label: str
    relation: str
    lhs: Rat
    rhs: Rat

    def __post_init__(self) -> None:
        if self.relation not in _RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")

    def holds(self) -> bool:
        return _RELATIONS[self.relation](self.lhs, self.rhs)


def check(label: str, relation: str, lhs: Any, rhs: Any) -> Check:
    """Build a Check, coercing both sides to exact rationals."""
    return Check(label, relation, as_rational(lhs), as_rational(rhs))


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of one verification with its self-contained certificate.

    ``points`` lists the witness abscissas with their exact function values
    (the searches only ever emit points where the series is exactly known).
    ``error`` is set when a search ran out of budget or depth before the
    certificate was complete; such reports always carry verdict False.
    """

    kind: str
    inputs: tuple[tuple[str, str], ...]
    points: tuple[tuple[Rat, Rat], ...]
    verdict: bool
    certificate: tuple[Check, ...]
    error: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in REPORT_KINDS:
            raise ValueError(f"unknown report kind {self.kind!r}")

    def input(self, key: str) -> str:
        for k, v in self.inputs:
            if k == key:
                return v
        raise KeyError(key)

    def failed_checks(self) -> list[Check]:
        return [c for c in self.certificate if not c.holds()]


def _verdict(certificate: Sequence[Check], error: Optional[str]) -> bool:
    """The one verdict rule: no search error, at least one check, and every
    check holds exactly."""
    return error is None and bool(certificate) and all(c.holds() for c in certificate)


def make_report(
    kind: str,
    inputs: Mapping[str, Any],
    points: list[tuple[Rat, Rat]],
    certificate: list[Check],
    error: Optional[str] = None,
) -> WitnessReport:
    """Assemble a report; the verdict is computed, never asserted."""
    return WitnessReport(
        kind=kind,
        inputs=tuple((str(k), str(v)) for k, v in inputs.items()),
        points=tuple((as_rational(x), as_rational(v)) for x, v in points),
        verdict=_verdict(certificate, error),
        certificate=tuple(certificate),
        error=error,
    )


def recheck(report: WitnessReport) -> bool:
    """Re-derive the verdict from the stored certificate alone.

    Returns True when the recomputed verdict equals the stored one, i.e. the
    report is internally consistent.  This is the bit-for-bit replay: it uses
    only the rationals inside the report.
    """
    return _verdict(report.certificate, report.error) == report.verdict


# ---------------------------------------------------------------------------
# serialization (exact strings, stable ordering)
# ---------------------------------------------------------------------------


def rat_str(value: Rat) -> str:
    """Lowest-terms decimal-free encoding: '3/4', '-1/2', '0', '2'."""
    return str(value)


def report_to_dict(report: WitnessReport) -> dict[str, Any]:
    return {
        "kind": report.kind,
        "inputs": {k: v for k, v in report.inputs},
        "points": [[rat_str(x), rat_str(v)] for x, v in report.points],
        "verdict": report.verdict,
        "certificate": [
            {
                "label": c.label,
                "relation": c.relation,
                "lhs": rat_str(c.lhs),
                "rhs": rat_str(c.rhs),
            }
            for c in report.certificate
        ],
        "error": report.error,
    }


def report_from_dict(data: Mapping[str, Any]) -> WitnessReport:
    return WitnessReport(
        kind=data["kind"],
        inputs=tuple((str(k), str(v)) for k, v in dict(data["inputs"]).items()),
        points=tuple(
            (Fraction(x), Fraction(v)) for x, v in data["points"]
        ),
        verdict=bool(data["verdict"]),
        certificate=tuple(
            Check(
                label=c["label"],
                relation=c["relation"],
                lhs=Fraction(c["lhs"]),
                rhs=Fraction(c["rhs"]),
            )
            for c in data["certificate"]
        ),
        error=data.get("error"),
    )
