"""Witness reports: machine-checkable certificates built from exact rationals.

Every verification routine returns a ``WitnessReport`` whose certificate is
a list of concrete rational comparisons.  The verdict is, by construction,
the conjunction of those comparisons (and the absence of a search failure),
so ``recheck`` can re-decide the verdict from the stored numbers alone,
without re-running any search.  Serialization keeps rationals as exact
"p/q" strings; no float appears anywhere.  ``report_from_dict`` reads back
exactly the text the writer writes, ``str`` of a Fraction: ``-?p`` or
``-?p/q`` in ASCII digits, in lowest terms, with q > 1 and no ``-0``.  Any
other value (a decimal, an exponent, a JSON number, padding, a sign ``+``,
an unreduced fraction) raises ValueError.
"""

from __future__ import annotations

import json
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

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
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
    ">": operator.gt,
    ">=": operator.ge,
}


class _CheckFields(NamedTuple):
    label: str
    relation: str
    lhs: Rat
    rhs: Rat


class Check(_CheckFields):
    """One exact comparison: ``lhs relation rhs`` with rational sides."""

    __slots__ = ()

    def __new__(cls, label: str, relation: str, lhs: Rat, rhs: Rat) -> "Check":
        if relation not in _RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        return tuple.__new__(cls, (label, relation, lhs, rhs))

    def holds(self) -> bool:
        """Decided on integers: with positive denominators, p/q R r/s holds
        exactly when p s R r q does."""
        _label, relation, lhs, rhs = self
        return _RELATIONS[relation](
            lhs.numerator * rhs.denominator, rhs.numerator * lhs.denominator
        )


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
    return error is None and bool(certificate) and all(map(Check.holds, certificate))


def make_report(
    kind: str,
    inputs: Mapping[str, Any],
    points: list[tuple[Rat, Rat]],
    certificate: list[Check],
    error: Optional[str] = None,
) -> WitnessReport:
    """Assemble a report; the verdict is computed, never asserted."""
    return WitnessReport(
        kind,
        tuple([(str(k), str(v)) for k, v in inputs.items()]),
        tuple([(as_rational(x), as_rational(v)) for x, v in points]),
        _verdict(certificate, error),
        tuple(certificate),
        error,
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
        "points": [[str(x), str(v)] for x, v in report.points],
        "verdict": report.verdict,
        "certificate": [
            {
                "label": c.label,
                "relation": c.relation,
                "lhs": str(c.lhs),
                "rhs": str(c.rhs),
            }
            for c in report.certificate
        ],
        "error": report.error,
    }


# The streamed document: each case is rendered straight from its report, in
# the layout json.dumps(..., indent=2, sort_keys=True) gives a case at depth 2
# of the document (keys sorted, strings quoted as ensure_ascii quotes them).
# A rational's text (digits, '-' and '/') and a relation never need escaping,
# so the templates quote them.

_CHECK = (
    '{\n          "label": %s,\n          "lhs": "%s",\n'
    '          "relation": "%s",\n          "rhs": "%s"\n        }'
)
_POINT = '[\n          "%s",\n          "%s"\n        ]'
_CASE = (
    '    {\n      "certificate": %s,\n      "error": %s,\n      "inputs": %s,\n'
    '      "kind": %s,\n      "points": %s,\n      "verdict": %s\n    }'
)


def _block(opening: str, items: list[str], closing: str) -> str:
    """A list or dict value at depth 3 of the document; ``[]``/``{}`` if empty."""
    if not items:
        return opening + closing
    return f"{opening}\n        " + ",\n        ".join(items) + f"\n      {closing}"


def _fixed(text: str) -> str:
    """``text`` quoted as JSON, with ``%`` doubled to stand in a template."""
    return _quote(text).replace("%", "%%")


#: The shape of a check, (label, relation), and its two sides.
_CHECK_SHAPE, _CHECK_SIDES = operator.itemgetter(0, 1), operator.itemgetter(2, 3)


@lru_cache(maxsize=256)
def _case_template(
    kind: str, checks: tuple[tuple[str, str], ...], keys: tuple[str, ...], n_points: int
) -> tuple[str, list[int]]:
    """The text of every case of one shape, with a ``%s`` hole for each
    value: each check's lhs and rhs, the error, each input value, each
    point's two rationals and the verdict, in that order; and the index in
    ``keys`` of each input value, keys sorted and a repeated key's last, as
    ``sorted(dict(inputs).items())`` orders them."""
    order = sorted({key: i for i, key in enumerate(keys)}.items())
    certificate = [_CHECK % (_fixed(label), "%s", relation, "%s") for label, relation in checks]
    inputs = [f"{_fixed(key)}: %s" for key, _ in order]
    template = _CASE % (
        _block("[", certificate, "]"),
        "%s",
        _block("{", inputs, "}"),
        _fixed(kind),
        _block("[", [_POINT] * n_points, "]"),
        "%s",
    )
    return template, [i for _, i in order]


def _case_json(report: WitnessReport) -> str:
    """``report_to_dict(report)`` as indented JSON at depth 2.

    The fixed text of a case (keys, labels, relations, input keys, layout)
    depends only on its shape, so it is built once per shape into a
    template; each case fills the holes with one ``%``, which writes a
    rational with ``str``, as ``report_to_dict`` does."""
    certificate, inputs = report.certificate, report.inputs
    template, order = _case_template(
        report.kind,
        tuple(map(_CHECK_SHAPE, certificate)),
        tuple([key for key, _ in inputs]),
        len(report.points),
    )
    holes = list(chain.from_iterable(map(_CHECK_SIDES, certificate)))
    holes.append("null" if report.error is None else _quote(report.error))
    holes += [_quote(inputs[i][1]) for i in order]
    holes += chain.from_iterable(report.points)
    holes.append("true" if report.verdict else "false")
    return template % tuple(holes)


def document_chunks(
    envelope: Mapping[str, Any], reports: Iterable[WitnessReport]
) -> Iterator[str]:
    """The text of ``json.dumps({**envelope, "cases": [report_to_dict(r) for
    r in reports]}, indent=2, sort_keys=True) + "\n"``, case by case.

    Each report is rendered as it is drawn and then let go.  The envelope
    is rendered by ``json.dumps`` around an empty ``cases`` list twice: for
    the keys before ``cases`` when the document opens, and for the keys
    after it (``summary`` among them) once the last report is drawn, so a
    value the caller completes while the reports are drawn is written whole.
    """

    def halves() -> list[str]:
        # top-level keys are the only ones indented by exactly two spaces
        text = json.dumps({**envelope, "cases": []}, indent=2, sort_keys=True)
        return text.split('\n  "cases": []', 1)

    head = halves()[0]
    drawn = False
    for report in reports:
        yield (",\n" if drawn else head + '\n  "cases": [\n') + _case_json(report)
        drawn = True
    yield ("\n  ]" if drawn else head + '\n  "cases": []') + halves()[1] + "\n"


#: ``str`` of a Fraction: an integer with no leading zero and no ``-0``,
#: then optionally ``/`` and a denominator of at least 2.
_CANONICAL_RATIONAL = re.compile(r"(?:0|-?[1-9][0-9]*)(?:/(?:[2-9]|[1-9][0-9]+))?")


def _not_canonical(text: Any) -> ValueError:
    return ValueError(f"not a rational as report_to_dict writes it: {text!r}")


@lru_cache(maxsize=512)
def _canonical_rational(text: str) -> Rat:
    """The Fraction whose ``str`` is ``text``, parsed on integers.

    Cached because a report repeats its values: every certificate compares
    against shared constants (0, 1, delta, margins, band ends).  A refused
    text raises, so it is never cached.
    """
    if _CANONICAL_RATIONAL.fullmatch(text) is None:
        raise _not_canonical(text)
    numerator, _, denominator = text.partition("/")
    try:
        q = int(denominator or "1")
        value = Fraction(int(numerator), q)
    except ValueError:  # Python's digit limit, kept: it bars a quadratic-time parse
        shown = f"{text[:20]}...{text[-20:]}"
        raise ValueError(f"rational {shown!r} ({len(text)} characters) has a part past "
                         f"the {sys.get_int_max_str_digits()}-digit limit for reading an int") from None
    if value.denominator != q:  # not in lowest terms
        raise _not_canonical(text)
    return value


def _rational(text: Any) -> Rat:
    """A rational read back from the text ``str`` wrote; ValueError for
    any other value, a JSON number among them."""
    if type(text) is not str:
        raise _not_canonical(text)
    return _canonical_rational(text)


def _check(c: Any) -> Check:
    if type(c) is not dict or type(c["label"]) is not str or type(c["relation"]) is not str:
        raise ValueError(f"certificate entries must be checks with string fields, got {c!r}")
    return Check(c["label"], c["relation"], _rational(c["lhs"]), _rational(c["rhs"]))


def _point(p: Any) -> tuple[Rat, Rat]:
    if type(p) is not list or len(p) != 2:
        raise ValueError(f"points must be [x, value] pairs, got {p!r}")
    return _rational(p[0]), _rational(p[1])


def report_from_dict(data: Mapping[str, Any]) -> WitnessReport:
    """The report ``report_to_dict`` gave ``data``; ValueError, naming the
    field, on a value of a type or form the writer never writes."""
    verdict, error, inputs = data["verdict"], data.get("error"), data["inputs"]
    if type(verdict) is not bool:
        raise ValueError(f"verdict must be a boolean, got {verdict!r}")
    if error is not None and type(error) is not str:
        raise ValueError(f"error must be null or a string, got {error!r}")
    for field, kind in (("inputs", dict), ("points", list), ("certificate", list)):
        if type(data[field]) is not kind:
            raise ValueError(f"{field} must be a {kind.__name__}, got {data[field]!r}")
    if not all(type(key) is str and type(value) is str for key, value in inputs.items()):
        raise ValueError(f"inputs must map strings to strings, got {inputs!r}")
    return WitnessReport(
        kind=data["kind"],
        inputs=tuple(inputs.items()),
        points=tuple([_point(p) for p in data["points"]]),
        verdict=verdict,
        certificate=tuple([_check(c) for c in data["certificate"]]),
        error=error,
    )
