"""Witness reports: machine-checkable certificates built from exact rationals.

Every verification routine returns a ``WitnessReport`` whose certificate is
a list of concrete rational comparisons.  The verdict is, by construction,
the conjunction of those comparisons (and the absence of a search failure),
so ``recheck`` can re-decide it from the stored numbers alone, without
re-running any search.  A check keeps each side as a lowest-terms integer
pair, numerator over a positive denominator, so it is decided by one
cross-multiplication, written and read back on integers; its ``lhs`` and
``rhs`` are Fractions built when read.  Rationals are serialized as exact
"p/q" strings; no float appears anywhere.  ``report_from_dict`` reads back
exactly what the writer writes: a case with exactly the keys certificate,
error, inputs, kind, points, verdict; each check with exactly label, lhs,
relation, rhs; each rational as ``str`` of a Fraction (``-?p`` or ``-?p/q``
in ASCII digits, lowest terms, q > 1, no ``-0``).  Every other shape (a
missing or extra key, a decimal, an exponent, a JSON number, padding, a
sign ``+``, an unreduced fraction) raises ValueError naming the field.
"""

from __future__ import annotations

import json
import operator
import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from math import gcd
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, NoReturn, Optional, Sequence

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
    "darboux",
)

_RELATIONS: dict[str, Callable[[int, int], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
    ">": operator.gt,
    ">=": operator.ge,
}


class Check(tuple):
    """One exact comparison: ``lhs relation rhs`` with rational sides.

    Stored as (label, relation, lhs_num, lhs_den, rhs_num, rhs_den), each
    side in lowest terms over a positive denominator; ``lhs`` and ``rhs``
    are Fractions built when read.  Each side is coerced by ``as_rational``
    (an int, a Fraction or exact text), and anything it refuses is refused
    here, at construction.
    """

    __slots__ = ()

    def __new__(cls, label: str, relation: str, lhs: Any, rhs: Any) -> "Check":
        if relation not in _RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        lhs, rhs = as_rational(lhs), as_rational(rhs)
        return tuple.__new__(
            cls, (label, relation, lhs.numerator, lhs.denominator, rhs.numerator, rhs.denominator)
        )

    label = property(operator.itemgetter(0))
    relation = property(operator.itemgetter(1))

    @property
    def lhs(self) -> Rat:
        return Fraction(self[2], self[3])

    @property
    def rhs(self) -> Rat:
        return Fraction(self[4], self[5])

    def __getnewargs__(self) -> tuple[str, str, Rat, Rat]:  # for copy and pickle
        return self.label, self.relation, self.lhs, self.rhs

    def __repr__(self) -> str:
        label, relation, lhs, rhs = self.__getnewargs__()
        return f"Check(label={label!r}, relation={relation!r}, lhs={lhs!r}, rhs={rhs!r})"

    def holds(self) -> bool:
        """Decided on integers: with positive denominators, p/q R r/s holds
        exactly when p s R r q does."""
        _label, relation, p, q, r, s = self
        return _RELATIONS[relation](p * s, r * q)


def _check(label: str, relation: str, p: int, q: int, r: int, s: int) -> Check:
    """The check p/q relation r/s from ints, q and s positive and the relation
    known: each side is reduced here, where the verifier builds its checks."""
    g, h = gcd(p, q), gcd(r, s)
    if g != 1:
        p, q = p // g, q // g
    if h != 1:
        r, s = r // h, s // h
    return tuple.__new__(Check, (label, relation, p, q, r, s))


def check(label: str, relation: str, lhs: Any, rhs: Any) -> Check:
    """Build a Check, coercing both sides to exact rationals, as ``Check`` does."""
    return Check(label, relation, lhs, rhs)


class _ReportFields(NamedTuple):
    kind: str
    inputs: tuple[tuple[str, str], ...]
    points: tuple[tuple[Rat, Rat], ...]
    verdict: bool
    certificate: tuple[Check, ...]
    error: Optional[str] = None


class WitnessReport(_ReportFields):
    """Outcome of one verification with its self-contained certificate.

    ``points`` lists the witness abscissas with their exact function values
    (the searches only ever emit points where the series is exactly known).
    ``error`` is set when a search ran out of budget or depth before the
    certificate was complete; such reports always carry verdict False.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: str,
        inputs: tuple[tuple[str, str], ...],
        points: tuple[tuple[Rat, Rat], ...],
        verdict: bool,
        certificate: tuple[Check, ...],
        error: Optional[str] = None,
    ) -> "WitnessReport":
        if kind not in REPORT_KINDS:
            raise ValueError(f"unknown report kind {kind!r}")
        return tuple.__new__(cls, (kind, inputs, points, verdict, certificate, error))

    def input(self, key: str) -> str:
        for k, v in self.inputs:
            if k == key:
                return v
        raise KeyError(key)

    def failed_checks(self) -> list[Check]:
        return [c for c in self.certificate if not c.holds()]


def _verdict(certificate: Sequence[Check], error: Optional[str]) -> bool:
    """The one verdict rule: no search error, at least one check, and every
    check holds exactly, each decided as ``Check.holds`` decides it."""
    if error is not None or not certificate:
        return False
    relations = _RELATIONS
    for _label, relation, p, q, r, s in certificate:
        if not relations[relation](p * s, r * q):
            return False
    return True


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
    """True when the verdict re-derived from the stored certificate alone
    equals the stored one: the bit-for-bit replay, on the report's own rationals."""
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
            {"label": label, "relation": relation,
             "lhs": str(p) if q == 1 else f"{p}/{q}", "rhs": str(r) if s == 1 else f"{r}/{s}"}
            for label, relation, p, q, r, s in report.certificate
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


#: The label of a check.
_CHECK_LABEL = operator.itemgetter(0)


@lru_cache(maxsize=256)
def _case_template(
    kind: str, labels: tuple[str, ...], keys: tuple[str, ...], n_points: int
) -> tuple[str, list[int]]:
    """The text of every case of one shape, with a ``%s`` hole for each
    value: each check's lhs, relation and rhs, the error, each input value,
    each point's two rationals and the verdict, in that order; and the index
    in ``keys`` of each input value, keys sorted and a repeated key's last,
    as ``sorted(dict(inputs).items())`` orders them."""
    order = sorted({key: i for i, key in enumerate(keys)}.items())
    certificate = [_CHECK % (_fixed(label), "%s", "%s", "%s") for label in labels]
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

    The fixed text of a case (keys, labels, input keys, layout) depends
    only on its shape, so it is built once per shape into a template; each
    case fills the holes with one ``%``, which writes a point's rational
    with ``str``, as ``report_to_dict`` does, a check side from its integer
    pair as ``report_to_dict`` writes it, and a relation as it is."""
    certificate, inputs = report.certificate, report.inputs
    template, order = _case_template(
        report.kind,
        tuple(map(_CHECK_LABEL, certificate)),
        tuple([key for key, _ in inputs]),
        len(report.points),
    )
    holes: list[Any] = []
    for _label, relation, p, q, r, s in certificate:
        holes += (p if q == 1 else f"{p}/{q}", relation, r if s == 1 else f"{r}/{s}")
    holes.append("null" if report.error is None else _quote(report.error))
    holes += [_quote(inputs[i][1]) for i in order]
    holes += chain.from_iterable(report.points)
    holes.append("true" if report.verdict else "false")
    return template % tuple(holes)


def document_chunks(
    envelope: Mapping[str, Any], reports: Iterable[WitnessReport]
) -> Iterator[str]:
    """The text of ``json.dumps({**envelope, "cases": [report_to_dict(r) for
    r in reports]}, indent=2, sort_keys=True) + "\n"``, case by case, for an
    envelope whose keys all sort after ``cases``; ValueError otherwise.

    Each report is rendered as it is drawn and then let go.  ``cases`` sorts
    first, so the document opens with it, and ``json.dumps`` renders the
    envelope once, after the last report is drawn: a value the caller
    completes while the reports are drawn (``summary``) is written whole.
    """
    if any(key <= "cases" for key in envelope):
        raise ValueError(f"envelope keys must sort after 'cases', got {sorted(envelope)}")
    drawn = False
    for report in reports:
        yield (",\n" if drawn else '{\n  "cases": [\n') + _case_json(report)
        drawn = True
    rest = "," + json.dumps(envelope, indent=2, sort_keys=True)[1:] if envelope else "\n}"
    yield ("\n  ]" if drawn else '{\n  "cases": []') + rest + "\n"


#: ``str`` of a Fraction: an integer with no leading zero and no ``-0``,
#: then optionally ``/`` and a denominator of at least 2.
_CANONICAL_RATIONAL = re.compile(r"(?:0|-?[1-9][0-9]*)(?:/(?:[2-9]|[1-9][0-9]+))?")
#: The keys of a case and of a check, exactly as ``report_to_dict`` writes them.
_CASE_KEYS = ("certificate", "error", "inputs", "kind", "points", "verdict")
_CHECK_KEYS = ("label", "lhs", "relation", "rhs")


def _not_canonical(text: Any) -> NoReturn:
    raise ValueError(f"not a rational as report_to_dict writes it: {text!r}")


def _keys_refused(what: str, obj: Any, keys: tuple[str, ...]) -> ValueError:
    got = (f"missing {[k for k in keys if k not in obj]}, unknown {[k for k in obj if k not in keys]}"
           if type(obj) is dict else f"{obj!r:.40}")
    return ValueError(f"{what} must be an object with exactly the keys {', '.join(keys)}; got {got}")


@lru_cache(maxsize=512)
def _canonical_pair(text: str) -> tuple[int, int]:
    """The lowest-terms pair (p, q), q > 0, of the rational whose ``str`` is
    ``text``, parsed on integers; cached, since certificates share constants
    (0, 1, delta, band ends).  A refused text raises."""
    if _CANONICAL_RATIONAL.fullmatch(text) is None:
        _not_canonical(text)
    numerator, _, denominator = text.partition("/")
    try:
        p, q = int(numerator), int(denominator or "1")
    except ValueError:  # Python's digit limit, kept: it bars a quadratic-time parse
        shown = f"{text[:20]}...{text[-20:]}"
        raise ValueError(f"rational {shown!r} ({len(text)} characters) has a part past "
                         f"the {sys.get_int_max_str_digits()}-digit limit for reading an int") from None
    if gcd(p, q) != 1:  # not in lowest terms
        _not_canonical(text)
    return p, q


def report_from_dict(data: Any) -> WitnessReport:
    """The report ``report_to_dict`` gave ``data``; ValueError naming the field on any
    value, form or key set the writer never writes.  One loop reads the points, one the
    checks, whose sides go straight into their integer pairs."""
    try:
        verdict, error, inputs = data["verdict"], data["error"], data["inputs"]
        kind, points, certificate = data["kind"], data["points"], data["certificate"]
    except (KeyError, TypeError):  # TypeError: not a dict
        raise _keys_refused("a case", data, _CASE_KEYS) from None
    if type(data) is not dict or len(data) != 6:
        raise _keys_refused("a case", data, _CASE_KEYS)
    if type(verdict) is not bool:
        raise ValueError(f"verdict must be a boolean, got {verdict!r}")
    if error is not None and type(error) is not str:
        raise ValueError(f"error must be null or a string, got {error!r}")
    for field, shape in (("inputs", dict), ("points", list), ("certificate", list)):
        if type(data[field]) is not shape:
            raise ValueError(f"{field} must be a {shape.__name__}, got {data[field]!r}")
    for key, value in inputs.items():
        if type(key) is not str or type(value) is not str:
            raise ValueError(f"inputs must map strings to strings, got {inputs!r}")
    parse, pairs, checks = _canonical_pair, [], []
    for p in points:
        if type(p) is not list or len(p) != 2:
            raise ValueError(f"points must be [x, value] pairs, got {p!r}")
        x, y = p
        x = parse(x) if type(x) is str else _not_canonical(x)
        y = parse(y) if type(y) is str else _not_canonical(y)
        pairs.append((Fraction(*x), Fraction(*y)))
    for c in certificate:  # refused in order: type, keys, label and relation, lhs, rhs, relation
        if type(c) is not dict:
            raise ValueError(f"certificate entries must be checks with string fields, got {c!r}")
        try:
            label, relation, lhs, rhs = c["label"], c["relation"], c["lhs"], c["rhs"]
        except KeyError:
            raise _keys_refused("certificate entries", c, _CHECK_KEYS) from None
        if len(c) != 4:
            raise _keys_refused("certificate entries", c, _CHECK_KEYS)
        if type(label) is not str or type(relation) is not str:
            raise ValueError(f"certificate entries must be checks with string fields, got {c!r}")
        lhs = parse(lhs) if type(lhs) is str else _not_canonical(lhs)
        rhs = parse(rhs) if type(rhs) is str else _not_canonical(rhs)
        if relation not in _RELATIONS:  # Check.__new__'s test, made here once
            raise ValueError(f"unknown relation {relation!r}")
        checks.append(tuple.__new__(Check, (label, relation) + lhs + rhs))
    return WitnessReport(kind, tuple(inputs.items()), tuple(pairs), verdict, tuple(checks), error)
