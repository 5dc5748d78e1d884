"""Tests for the certificate and report machinery.

The report layer must never decide anything on its own: the verdict is the
conjunction of exact rational comparisons, and a serialized report must
replay to the same verdict from its stored numbers alone.
"""

from __future__ import annotations

import io
import itertools
import json
import re
import sys
from contextlib import contextmanager
from fractions import Fraction as F
from math import gcd
from typing import Iterator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sawcascade import cli
from sawcascade.construction import DomainError
from sawcascade.reports import (
    REPORT_KINDS,
    _canonical_pair,
    _case_json,
    _case_template,
    _check,
    Check,
    WitnessReport,
    check,
    document_chunks,
    make_report,
    rat_str,
    recheck,
    report_from_dict,
    report_to_dict,
)
from sawcascade.suites import SuiteConfig, run_suite_reports
from sawcascade.verifier import oscillation_witness

# ---------------------------------------------------------------------------
# Check
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "relation,lhs,rhs,expected",
    [
        ("<", F(1, 3), F(1, 2), True),
        ("<", F(1, 2), F(1, 2), False),
        ("<=", F(1, 2), F(1, 2), True),
        ("==", F(2, 4), F(1, 2), True),
        ("==", F(1, 3), F(1, 2), False),
        ("!=", F(1, 3), F(1, 2), True),
        (">", F(-1, 4), F(-1, 2), True),
        (">=", F(0), F(0), True),
        (">=", F(-1), F(0), False),
    ],
)
def test_check_relations(relation: str, lhs: F, rhs: F, expected: bool) -> None:
    assert Check("probe", relation, lhs, rhs).holds() is expected


def test_check_rejects_unknown_relation() -> None:
    with pytest.raises(ValueError):
        Check("probe", "~=", F(0), F(0))


def test_check_helper_coerces_ints_and_strings() -> None:
    c = check("probe", "==", 2, "4/2")
    assert c.lhs == F(2) and c.rhs == F(2)
    assert c.holds()


def test_check_helper_rejects_floats() -> None:
    with pytest.raises(TypeError):
        check("probe", "==", 0.5, F(1, 2))


def test_check_coerces_each_side_as_check_does() -> None:
    c = Check("c", "<", F(1, 2), True)
    assert c == check("c", "<", F(1, 2), 1) and type(c.rhs) is F and c.rhs == 1
    case = report_to_dict(make_report("structure", {}, [], [c]))
    assert case["certificate"][0]["rhs"] == "1"
    assert report_from_dict(case).certificate == (c,)
    assert Check("c", "<", "2/8", 2) == Check("c", "<", F(1, 4), F(2))


@pytest.mark.parametrize(
    "side,error",
    [(0.5, TypeError), (None, TypeError), ([1], TypeError), ("one half", DomainError), ("1/0", DomainError)],
)
def test_check_refuses_a_side_it_cannot_certify_at_construction(side: object, error: type) -> None:
    for lhs, rhs in ((side, F(1, 2)), (F(1, 2), side)):
        with pytest.raises(error):
            Check("c", "<", lhs, rhs)


def test_check_stores_each_side_as_a_lowest_terms_pair() -> None:
    c = Check("c", "<=", F(-6, 4), 3)
    assert tuple(c) == ("c", "<=", -3, 2, 3, 1)
    assert (c.label, c.relation, c.lhs, c.rhs) == ("c", "<=", F(-3, 2), F(3))
    assert repr(c) == "Check(label='c', relation='<=', lhs=Fraction(-3, 2), rhs=Fraction(3, 1))"


@given(
    relation=st.sampled_from(["<", "<=", "==", "!=", ">", ">="]),
    a=st.integers(min_value=-(10**30), max_value=10**30),
    b=st.integers(min_value=1, max_value=10**30),
    c=st.integers(min_value=-(10**30), max_value=10**30),
    d=st.integers(min_value=1, max_value=10**30),
    g=st.integers(min_value=1, max_value=10**6),
    h=st.integers(min_value=1, max_value=10**6),
)
@example(relation="==", a=0, b=7, c=4, d=4, g=1, h=1)
def test_an_int_built_check_is_the_fraction_built_check(
    relation: str, a: int, b: int, c: int, d: int, g: int, h: int
) -> None:
    # built from a/b and c/d with the common factors g and h, as the verifier builds its checks
    built = _check("c", relation, a * g, b * g, c * h, d * h)
    expected = Check("c", relation, F(a, b), F(c, d))
    assert built == expected and type(built) is Check
    _label, _relation, p, q, r, s = built
    assert gcd(p, q) == gcd(r, s) == 1 and q > 0 and s > 0
    assert (built.lhs, built.rhs) == (F(a, b), F(c, d))
    assert built.holds() is expected.holds()
    reports = [make_report("structure", {}, [], [one]) for one in (built, expected)]
    assert reports[0].verdict is expected.holds()
    assert report_to_dict(reports[0]) == report_to_dict(reports[1])
    assert _case_json(reports[0]) == _case_json(reports[1])


@pytest.mark.parametrize("settings", [{}, {"index_budget": 4, "count": 50}])
def test_every_check_of_verify_all_is_stored_in_lowest_terms(settings: dict) -> None:
    # at the default settings and at the replay document's
    checks, kinds = 0, set()
    for report in run_suite_reports("all", SuiteConfig(**settings)):
        for _label, _relation, p, q, r, s in report.certificate:
            assert all(type(n) is int for n in (p, q, r, s))
            assert q > 0 and s > 0 and gcd(p, q) == 1 and gcd(r, s) == 1
        checks += len(report.certificate)
        kinds.add(report.kind)
    assert kinds == set(REPORT_KINDS) and checks > 9000


def test_witness_report_is_an_immutable_tuple_of_its_fields() -> None:
    a = Check("a", "<", 0, 1)
    report = WitnessReport("structure", (("k", "1"),), ((F(1, 2), F(0)),), True, (a,))
    assert report._fields == ("kind", "inputs", "points", "verdict", "certificate", "error")
    assert tuple(report) == ("structure", (("k", "1"),), ((F(1, 2), F(0)),), True, (a,), None)
    assert report == WitnessReport(
        kind="structure", inputs=(("k", "1"),), points=((F(1, 2), F(0)),), verdict=True, certificate=(a,)
    )
    assert report.input("k") == "1" and report.failed_checks() == []
    for name in ("verdict", "extra"):
        with pytest.raises(AttributeError):
            setattr(report, name, False)
    with pytest.raises(ValueError, match="unknown report kind 'nope'"):
        WitnessReport("nope", (), (), False, ())


# ---------------------------------------------------------------------------
# make_report verdict logic
# ---------------------------------------------------------------------------


def test_verdict_true_needs_all_checks_holding() -> None:
    good = [check("a", "<", 1, 2), check("b", "==", F(1, 3), F(2, 6))]
    rep = make_report("local_min", {"x": F(1, 8)}, [(F(1, 8), F(3, 8))], good)
    assert rep.verdict is True
    assert rep.failed_checks() == []


def test_verdict_false_on_any_failing_check() -> None:
    mixed = [check("a", "<", 1, 2), check("b", ">", 1, 2)]
    rep = make_report("local_min", {"x": F(1, 8)}, [], mixed)
    assert rep.verdict is False
    assert [c.label for c in rep.failed_checks()] == ["b"]


def test_verdict_false_on_empty_certificate() -> None:
    rep = make_report("oscillation", {"x0": F(1, 2)}, [], [])
    assert rep.verdict is False


def test_verdict_false_when_error_set_even_if_checks_hold() -> None:
    rep = make_report(
        "oscillation",
        {"x0": F(1, 7)},
        [],
        [check("a", "<", 1, 2)],
        error="budget exhausted",
    )
    assert rep.verdict is False
    assert rep.error == "budget exhausted"


def test_unknown_kind_rejected() -> None:
    with pytest.raises(ValueError):
        make_report("novel_kind", {}, [], [check("a", "<", 1, 2)])
    assert "novel_kind" not in REPORT_KINDS


def test_input_lookup() -> None:
    rep = make_report("structure", {"k": 3, "index_budget": 6}, [], [check("a", "<", 1, 2)])
    assert rep.input("k") == "3"
    assert rep.input("index_budget") == "6"
    with pytest.raises(KeyError):
        rep.input("missing")


# ---------------------------------------------------------------------------
# recheck: verdict replay from stored numbers
# ---------------------------------------------------------------------------


def test_recheck_accepts_honest_reports() -> None:
    rep = make_report("quotient_bound", {"k": 1}, [], [check("a", "<=", F(1, 10), F(1, 2))])
    assert recheck(rep)


def test_recheck_rejects_tampered_verdict() -> None:
    rep = make_report("quotient_bound", {"k": 1}, [], [check("a", "<=", F(1, 10), F(1, 2))])
    forged = WitnessReport(
        kind=rep.kind,
        inputs=rep.inputs,
        points=rep.points,
        verdict=False,
        certificate=rep.certificate,
        error=None,
    )
    assert not recheck(forged)


def test_recheck_rejects_tampered_certificate() -> None:
    rep = make_report("quotient_bound", {"k": 1}, [], [check("a", "<=", F(1, 10), F(1, 2))])
    forged = WitnessReport(
        kind=rep.kind,
        inputs=rep.inputs,
        points=rep.points,
        verdict=True,
        certificate=(Check("a", "<=", F(3, 4), F(1, 2)),),
        error=None,
    )
    assert not recheck(forged)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_rat_str_examples() -> None:
    assert rat_str(F(3, 4)) == "3/4"
    assert rat_str(F(-1, 2)) == "-1/2"
    assert rat_str(F(0)) == "0"
    assert rat_str(F(2)) == "2"


def test_roundtrip_preserves_everything() -> None:
    rep = make_report(
        "non_monotone",
        {"a": F(1, 3), "b": F(2, 3), "depth": 40},
        [(F(1, 2), F(1, 2)), (F(5, 9), F(-7, 18))],
        [check("alternation", "<", F(-1, 4), 0), check("ordered", "<", F(1, 2), F(5, 9))],
    )
    data = report_to_dict(rep)
    text = json.dumps(data, sort_keys=True)
    back = report_from_dict(json.loads(text))
    assert back == rep
    assert recheck(back)


def test_roundtrip_error_report() -> None:
    rep = make_report(
        "oscillation",
        {"x0": F(1, 7)},
        [],
        [],
        error="depth 8 exhausted at level 6 before the cell chain fit the window",
    )
    back = report_from_dict(report_to_dict(rep))
    assert back == rep
    assert back.verdict is False
    assert back.error == rep.error


def test_serialized_values_are_exact_strings() -> None:
    rep = make_report(
        "local_min",
        {"x": F(3, 16)},
        [(F(3, 16), F(3, 8))],
        [check("margin_positive", ">", F(5, 16), 0)],
    )
    data = report_to_dict(rep)
    assert data["points"] == [["3/16", "3/8"]]
    assert data["certificate"][0] == {
        "label": "margin_positive",
        "relation": ">",
        "lhs": "5/16",
        "rhs": "0",
    }
    assert "." not in json.dumps(data)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

rationals = st.builds(
    F,
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=1, max_value=1000),
)


@given(
    relation=st.sampled_from(["<", "<=", "==", "!=", ">", ">="]),
    lhs=rationals,
    rhs=rationals,
)
def test_any_check_roundtrips_and_rechecks(relation: str, lhs: F, rhs: F) -> None:
    rep = make_report("structure", {"seed": 0}, [], [Check("c", relation, lhs, rhs)])
    back = report_from_dict(report_to_dict(rep))
    assert back == rep
    assert recheck(back)
    assert back.verdict is Check("c", relation, lhs, rhs).holds()


# ---------------------------------------------------------------------------
# the reader: exactly the text the writer writes
# ---------------------------------------------------------------------------


#: The one check of ``case_with()``.
CHECK = {"label": "c", "relation": "<", "lhs": "1/3", "rhs": "1/2"}


def case_with(lhs: object = "1/3", x: object = "1/2") -> dict:
    """A serialized one-check report whose rationals are ``lhs`` and ``x``."""
    return {
        "kind": "local_min",
        "inputs": {"x": "1/2"},
        "points": [[x, "1/2"]],
        "verdict": True,
        "certificate": [{**CHECK, "lhs": lhs}],
        "error": None,
    }


#: Up to 4000 digits: within Python's 4300-digit limit for reading an int.
wide_integers = st.integers(min_value=-(10**4000) + 1, max_value=10**4000 - 1)
any_rationals = st.one_of(
    rationals,
    st.integers(min_value=-5, max_value=5).map(F),
    wide_integers.map(F),
    st.builds(F, wide_integers, st.integers(min_value=1, max_value=10**4000 - 1)),
)


@settings(deadline=None)
@given(x=any_rationals)
def test_reader_reads_back_what_the_writer_writes(x: F) -> None:
    report = report_from_dict(case_with(lhs=rat_str(x), x=rat_str(x)))
    assert report.certificate[0].lhs == x and report.points[0][0] == x
    assert type(report.certificate[0].lhs) is F


@pytest.mark.parametrize(
    "value",
    [
        0.1, 1, True, False, None, ["1/2"], {"p": 1},
        "0.1", "1e-1", "2/20", " 1/10", "1/10 ", "+1/10", "1_0/100",
        "01", "-0", "3/1", "0/5", "1/0", "", "-0/5", "1/-2", "1/01", "1/2\n",
        "\u0661", "1/\u0662", "1//2", "1/2/3", "-", "/2",
    ],
)
def test_reader_refuses_every_other_value(value: object) -> None:
    for case in (case_with(lhs=value), case_with(x=value)):
        with pytest.raises(ValueError) as info:
            report_from_dict(case)
        assert repr(value) in str(info.value)


@pytest.mark.parametrize(
    "field, value",
    [
        ("verdict", "false"), ("verdict", "true"), ("verdict", 0), ("verdict", 1),
        ("verdict", None),
        ("inputs", {"x": 1}), ("inputs", {"x": None}), ("inputs", {"x": ["1/2"]}),
        ("inputs", {1: "1/2"}),
        ("error", 1), ("error", False), ("error", ["depth"]), ("error", {"why": "depth"}),
        ("inputs", ["xy"]),
        ("points", [{"1/8": 0, "3/8": 0}]), ("points", [["1/2"]]), ("points", {"1/2": "1/2"}),
        ("certificate", [{**CHECK, "label": 5}]), ("certificate", [{**CHECK, "label": None}]),
        ("certificate", [{**CHECK, "label": ["a"]}]), ("certificate", [5]),
        ("certificate", CHECK), ("certificate", None),
        ("certificate", [{**CHECK, "relation": ["<"]}]),
        ("certificate", [{**CHECK, "relation": 1}]),
    ],
)
def test_reader_refuses_forged_fields(field: str, value: object) -> None:
    case = {**case_with(), field: value}
    with pytest.raises(ValueError, match=field):
        report_from_dict(case)


def test_reader_keeps_the_fields_the_writer_writes() -> None:
    for verdict in (True, False):
        for error in (None, "depth exhausted"):
            report = report_from_dict({**case_with(), "verdict": verdict, "error": error})
            assert report.verdict is verdict and report.error == error
            assert report.inputs == (("x", "1/2"),)


def test_reader_refuses_a_rational_past_the_digit_limit(tmp_path) -> None:
    # the writer lifts the limit and writes delta = 10^-5000 in full; the
    # reader keeps it and refuses the text in its own words
    out = tmp_path / "r.json"
    argv = ["verify", "oscillation", "--max-level", "1", "--delta", "1e-5000", "--out", str(out)]
    assert cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO()) == 0
    cases = json.loads(out.read_text())["cases"]
    assert len(cases) == 2
    limit = sys.get_int_max_str_digits()
    assert 0 < limit < 5000  # the default, 4300: below the 5001 digits of 10^5000
    for case in cases:
        with pytest.raises(ValueError, match=f"{limit}-digit limit") as info:
            report_from_dict(case)
        message = str(info.value)
        assert re.match(r"rational '[-0-9/]{20}\.\.\.[0-9]{20}' \(\d{4,} characters\)", message)
        assert len(message) < 200


def test_reader_caches_no_refused_text() -> None:
    before = _canonical_pair.cache_info().currsize
    for text in ("2/20", "0.1", "-0"):
        with pytest.raises(ValueError):
            _canonical_pair(text)
    assert _canonical_pair.cache_info().currsize == before


def test_reader_on_the_whole_seed_1_document() -> None:
    out = io.StringIO()
    assert cli.run(["verify", "all", "--seed", "1"], stdout=out, stderr=io.StringIO()) == 0
    cases = json.loads(out.getvalue())["cases"]
    assert len(cases) == 6530
    maxsize = _canonical_pair.cache_info().maxsize
    assert maxsize is not None
    for case in cases:
        report = report_from_dict(case)
        assert report_to_dict(report) == case
        assert recheck(report)
        assert _canonical_pair.cache_info().currsize <= maxsize
        texts = [text for point in case["points"] for text in point]
        texts += [c[side] for c in case["certificate"] for side in ("lhs", "rhs")]
        values = [v for point in report.points for v in point]
        values += [side for c in report.certificate for side in (c.lhs, c.rhs)]
        assert values == [F(text) for text in texts]


def _without(mapping: dict, key: str) -> dict:
    return {k: v for k, v in mapping.items() if k != key}


#: How the reader refuses a case, and a check, whose keys are not the writer's.
CASE_KEYS = ("a case must be an object with exactly the keys "
             "certificate, error, inputs, kind, points, verdict; got ")
CHECK_KEYS = ("certificate entries must be an object with exactly the keys "
              "label, lhs, relation, rhs; got ")


@pytest.mark.parametrize(
    "data, message",
    [
        pytest.param([], CASE_KEYS + "[]", id="a list"),
        pytest.param("x", CASE_KEYS + "'x'", id="a string"),
        pytest.param(5, CASE_KEYS + "5", id="a number"),
        pytest.param(None, CASE_KEYS + "None", id="null"),
        pytest.param(list(range(100)), CASE_KEYS + repr(list(range(100)))[:40], id="a long list"),
        pytest.param({"verdict": True}, CASE_KEYS + "missing ['certificate', 'error', "
                     "'inputs', 'kind', 'points'], unknown []", id="only a verdict"),
        pytest.param(_without(case_with(), "error"), CASE_KEYS + "missing ['error'], unknown []",
                     id="no error key"),
        pytest.param({**case_with(), "note": "x"}, CASE_KEYS + "missing [], unknown ['note']",
                     id="a seventh key"),
        pytest.param({**case_with(), "certificate": [{**CHECK, "note": "x"}]},
                     CHECK_KEYS + "missing [], unknown ['note']", id="a check with a fifth key"),
        pytest.param({**case_with(), "certificate": [_without(CHECK, "rhs")]},
                     CHECK_KEYS + "missing ['rhs'], unknown []", id="a check with no rhs"),
    ],
)
def test_reader_refuses_every_key_set_the_writer_never_writes(data: object, message: str) -> None:
    with pytest.raises(ValueError) as info:
        report_from_dict(data)
    assert str(info.value) == message


def _set(*path: object, to: object):
    """A change to a case: the value at ``path`` (keys and indices) set to ``to``."""
    def change(case: dict) -> None:
        target = case
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = to
    return change


#: One malformed field each, in the order the reader refuses them, with the
#: text of the message it refuses each with.
MALFORMED = [
    ("a case key", _set("note", to="x"), "unknown ['note']"),
    ("verdict", _set("verdict", to="true"), "verdict must be a boolean"),
    ("error", _set("error", to=1), "error must be null or a string"),
    ("inputs type", _set("inputs", to=["xy"]), "inputs must be a dict"),
    ("points type", _set("points", to={}), "points must be a list"),
    ("certificate type", _set("certificate", to=None), "certificate must be a list"),
    ("an input value", _set("inputs", "x", to=1), "inputs must map strings to strings"),
    ("a point", _set("points", 0, to=["1/2"]), "points must be [x, value] pairs"),
    ("a point's x", _set("points", 0, 0, to="0.10"), "'0.10'"),
    ("a point's value", _set("points", 0, 1, to="0.20"), "'0.20'"),
    ("a check", _set("certificate", 0, to=5), "checks with string fields, got 5"),
    ("a check key", _set("certificate", 0, "extra", to="x"), "unknown ['extra']"),
    ("a label", _set("certificate", 0, "label", to=7), "string fields, got {'label': 7"),
    ("an lhs", _set("certificate", 0, "lhs", to="0.30"), "'0.30'"),
    ("an rhs", _set("certificate", 0, "rhs", to="0.40"), "'0.40'"),
    ("a relation", _set("certificate", 0, "relation", to="<<"), "unknown relation '<<'"),
    ("the kind", _set("kind", to="nosuch"), "unknown report kind 'nosuch'"),
]


@pytest.mark.parametrize(
    "first, second",
    [pytest.param(i, None, id=MALFORMED[i][0]) for i in range(len(MALFORMED))]
    + [pytest.param(i, j, id=f"{MALFORMED[i][0]} and {MALFORMED[j][0]}")
       for i in range(len(MALFORMED)) for j in range(i + 1, len(MALFORMED))],
)
def test_reader_refuses_the_first_malformed_field_in_a_fixed_order(
    first: int, second: "int | None"
) -> None:
    def refusal(*indices: int) -> str:
        case = case_with()
        for i in indices:  # the later change first, so the earlier one lands whole
            MALFORMED[i][1](case)
        with pytest.raises(ValueError) as info:
            report_from_dict(case)
        return str(info.value)

    if second is None:
        assert MALFORMED[first][2] in refusal(first)
    else:
        # the words of the first are not in the second's own refusal, so
        # finding them tells which of the two the reader reported
        assert MALFORMED[first][2] not in refusal(second)
        assert MALFORMED[first][2] in refusal(second, first)


#: The lhs that moves a check across its relation, from its rhs.
MOVE_ACROSS = {
    "<": lambda rhs: rhs, "!=": lambda rhs: rhs, ">": lambda rhs: rhs,
    "<=": lambda rhs: rhs + 1, "==": lambda rhs: rhs + 1, ">=": lambda rhs: rhs - 1,
}


def test_every_check_of_a_read_back_document_is_replayed() -> None:
    # the replay gate on a small pinned document: every case rechecks, and
    # moving any one check's lhs across its relation or flipping the verdict
    # makes the copy fail
    argv = "verify all --max-level 3 --count 4 --index-budget 2 --n-max 3".split()
    out = io.StringIO()
    assert cli.run(argv, stdout=out, stderr=io.StringIO()) == 0
    cases = json.loads(out.getvalue())["cases"]
    assert {case["kind"] for case in cases} == set(REPORT_KINDS)
    for case in cases:
        assert case["verdict"] is True and recheck(report_from_dict(case))
        assert not recheck(report_from_dict({**case, "verdict": False}))
        for i, c in enumerate(case["certificate"]):
            copy = json.loads(json.dumps(case))
            copy["certificate"][i]["lhs"] = str(MOVE_ACROSS[c["relation"]](F(c["rhs"])))
            report = report_from_dict(copy)
            assert not report.certificate[i].holds()
            assert not recheck(report)
    assert sum(len(case["certificate"]) for case in cases) > len(cases)


# ---------------------------------------------------------------------------
# the streamed document against json.dumps of the dict view
# ---------------------------------------------------------------------------


@contextmanager
def all_digits() -> Iterator[None]:
    """Lift the int/str digit limit, as the CLI does while it renders."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def dumped(envelope: dict, reports: list[WitnessReport]) -> str:
    document = {**envelope, "cases": [report_to_dict(r) for r in reports]}
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


#: Text that json must escape: quotes, backslashes, control characters,
#: DEL, non-ASCII letters, astral-plane symbols and lone surrogates.
awkward_text = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f\u00e9\u2028\U0001f600\ud800'),
        st.characters(),
    ),
    max_size=12,
)
#: Integers past Python's 4300-digit limit for converting to text.
huge_integers = st.integers(min_value=4300, max_value=4400).map(lambda digits: 10**digits + 7)
any_integers = st.one_of(st.integers(), huge_integers, huge_integers.map(lambda n: -n))
exact_values = st.one_of(
    rationals,
    st.builds(F, any_integers, st.one_of(st.integers(min_value=1), huge_integers)),
)
checks = st.builds(
    Check,
    label=awkward_text,
    relation=st.sampled_from(["<", "<=", "==", "!=", ">", ">="]),
    lhs=exact_values,
    rhs=exact_values,
)
#: Keys drawn partly from a small pool, so duplicate input keys occur.
input_keys = st.one_of(st.sampled_from(["x", "K", "cells_budget", "x0"]), awkward_text)
witness_reports = st.builds(
    WitnessReport,
    kind=st.sampled_from(REPORT_KINDS),
    inputs=st.lists(st.tuples(input_keys, awkward_text), max_size=5).map(tuple),
    points=st.lists(st.tuples(exact_values, exact_values), max_size=3).map(tuple),
    verdict=st.booleans(),
    certificate=st.lists(checks, max_size=3).map(tuple),
    error=st.one_of(st.none(), awkward_text),
)
envelopes = st.fixed_dictionaries({
    "suite": awkward_text,
    "seed": any_integers,
    "parameters": st.dictionaries(input_keys, st.one_of(any_integers, awkward_text), max_size=4),
    "summary": st.fixed_dictionaries({"pass": st.integers(0), "fail": st.integers(0)}),
})


#: An envelope for the examples below.
EXAMPLE_ENVELOPE = {"suite": "all", "seed": 1, "parameters": {}, "summary": {"pass": 1, "fail": 2}}
#: A report with its input keys in the writer's order, which is not sorted,
#: and the report read back from its text, where the keys are sorted.
WRITTEN = oscillation_witness(F(1, 2), F(1, 1000))
READ_BACK = report_from_dict(json.loads(_case_json(WRITTEN)))


@settings(deadline=None)  # digit strings past the 4300-digit limit take a while
@given(envelope=envelopes, reports=st.lists(witness_reports, max_size=4))
@example(  # '%' in a label, an input key and an error, twice in one shape
    envelope=EXAMPLE_ENVELOPE,
    reports=[
        WitnessReport(
            kind="local_min",
            inputs=(("100%", "%s"), ("x", "50%")),
            points=((F(1, 3), F(-2, 3)),),
            verdict=False,
            certificate=(Check("%s %d %% %(x)s", "<", F(value), F(1, 2)),),
            error=f"%(x)s at {value}%",
        )
        for value in (1, 2)
    ],
)
@example(  # duplicate input keys: the last value of a key stays
    envelope=EXAMPLE_ENVELOPE,
    reports=[
        WitnessReport(
            kind="structure",
            inputs=(("k", "1"), ("K", "2"), ("k", "3")),
            points=(),
            verdict=True,
            certificate=(Check("a", "==", F(0), F(0)),),
        )
    ],
)
@example(  # inputs in unsorted order
    envelope=EXAMPLE_ENVELOPE,
    reports=[
        WitnessReport(
            kind="oscillation",
            inputs=(("x0", "1/2"), ("delta", "1/1000"), ("first_level", "2"), ("depth", "40")),
            points=((F(1, 2), F(1, 4)),),
            verdict=True,
            certificate=(Check("a", "<", F(0), F(1)),),
        )
    ],
)
@example(  # a duplicated key first and last, beside its shapes with the key once
    envelope=EXAMPLE_ENVELOPE,
    reports=[
        WitnessReport(kind="structure", inputs=inputs, points=(), verdict=True, certificate=())
        for inputs in (
            (("z", "1"), ("a", "2"), ("m", "3"), ("z", "4")),
            (("a", "2"), ("m", "3"), ("z", "4")),
            (("a", "2"), ("m", "3"), ("z", "1")),
            (("a", "5"), ("m", "3"), ("z", "4"), ("a", "2")),
        )
    ],
)
@example(  # one report in the writer's key order and read back, keys sorted
    envelope=EXAMPLE_ENVELOPE,
    reports=[WRITTEN, READ_BACK],
)
@example(  # a non-ASCII error
    envelope=EXAMPLE_ENVELOPE,
    reports=[
        WitnessReport(
            kind="oscillation",
            inputs=(("x0", "1/2"),),
            points=((F(1, 2), F(1, 4)),),
            verdict=False,
            certificate=(),
            error="\u00e9chec \u2028 \U0001f600 \ud800",
        )
    ],
)
@example(  # an empty certificate beside a full one of the same kind
    envelope=EXAMPLE_ENVELOPE,
    reports=[
        make_report("non_monotone", {}, [], []),
        make_report("non_monotone", {"a": F(-1, 2)}, [(F(0), F(1, 7))], [check("c", "<", 0, 1)]),
    ],
)
def test_streamed_document_equals_indented_json_dumps(
    envelope: dict, reports: list[WitnessReport]
) -> None:
    with all_digits():
        assert "".join(document_chunks(envelope, reports)) == dumped(envelope, reports)


def test_a_report_read_back_renders_the_bytes_it_was_written_with() -> None:
    keys = [key for key, _ in WRITTEN.inputs]
    assert [key for key, _ in READ_BACK.inputs] == sorted(keys) != keys
    assert _case_json(READ_BACK) == _case_json(WRITTEN)


def test_one_template_renders_cases_that_differ_only_in_relations() -> None:
    # a verify all oscillation case, read back with its first ">" made ">=":
    # same kind, labels, input keys and point count, so the same template
    written = oscillation_witness(F(1, 2), F(1, 1000))
    data = report_to_dict(written)
    edited = next(c for c in data["certificate"] if c["relation"] == ">")
    edited["relation"] = ">="
    read_back = report_from_dict(data)
    assert [c.label for c in read_back.certificate] == [c.label for c in written.certificate]
    assert [c.relation for c in read_back.certificate] != [c.relation for c in written.certificate]
    _case_template.cache_clear()
    for reports in ([written], [read_back], [written, read_back], [read_back, written]):
        assert "".join(document_chunks({}, reports)) == dumped({}, reports)
    assert _case_template.cache_info().misses == 1
    for report in (written, read_back):
        indented = json.dumps(report_to_dict(report), indent=2, sort_keys=True)
        assert _case_json(report) == "\n".join("    " + line for line in indented.split("\n"))


def test_streamed_document_edge_cases() -> None:
    empty = make_report("oscillation", {}, [], [], error=None)
    failed = make_report("local_min", {"x": F(1, 8)}, [], [], error='tab\t"quoted" \u00e9')
    doubled = WitnessReport(
        kind="structure",
        inputs=(("k", "1"), ("K", "2"), ("k", "3")),
        points=((F(1, 3), F(-2, 3)),),
        verdict=True,
        certificate=(Check("a", "<", F(0), F(1)),),
    )
    envelope = {"suite": "all", "seed": 7, "parameters": {}, "summary": {"pass": 1, "fail": 2}}
    for reports in ([], [empty], [empty, failed, doubled]):
        assert "".join(document_chunks(envelope, reports)) == dumped(envelope, reports)
    text = "".join(document_chunks(envelope, [empty, doubled]))
    assert '"certificate": [],' in text and '"inputs": {},' in text and '"points": [],' in text
    # report_to_dict keeps the last value of a duplicated input key
    assert json.loads(text)["cases"][1]["inputs"] == {"K": "2", "k": "3"}


def test_streamed_document_prints_values_past_the_digit_limit() -> None:
    big = F(10**5000 + 1, 3)
    envelope = {"seed": 10**4301, "suite": "s"}
    with all_digits():
        report = make_report("structure", {"n": 10**4400}, [(F(1, 2), big)], [check("c", "<", 0, big)])
        text = "".join(document_chunks(envelope, [report]))
        assert text == dumped(envelope, [report])
        assert json.loads(text)["cases"][0]["points"][0][1] == str(big)


@pytest.mark.parametrize("size", range(5))
def test_streamed_document_renders_every_subset_of_the_writer_envelope(size: int) -> None:
    reports = [make_report("local_min", {"x": F(1, 8)}, [(F(1, 8), F(1, 4))], [check("c", "<", 0, 1)])]
    for keys in itertools.combinations(EXAMPLE_ENVELOPE, size):
        envelope = {key: EXAMPLE_ENVELOPE[key] for key in keys}
        for drawn in ([], reports):
            assert "".join(document_chunks(envelope, drawn)) == dumped(envelope, drawn), keys


@pytest.mark.parametrize("key", ["cases", "a", "Z", "", "case", "cased"])
def test_streamed_document_refuses_an_envelope_key_not_after_cases(key: str) -> None:
    with pytest.raises(ValueError, match="sort after 'cases'"):
        "".join(document_chunks({**EXAMPLE_ENVELOPE, key: 1}, []))
