"""End-to-end tests of the command-line interface via the in-process runner.

Everything runs through ``run(argv)`` so the tests see the same code path as
the installed script, including exit codes and output streams.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import time
import weakref
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sawcascade
from sawcascade import cli, construction, suites, verifier
from sawcascade.antiderivative import eval_F, eval_G
from sawcascade.cli import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION_FAILED,
    emit_samples,
    render_intervals,
    run,
    run_suite,
)
from sawcascade.construction import DomainError, as_rational, eval_f1
from sawcascade.reports import recheck, report_from_dict
from sawcascade.suites import SuiteConfig


def invoke(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------


def test_parse_rational_fraction_and_decimal() -> None:
    assert as_rational("7/10") == F(7, 10)
    assert as_rational("-1/3") == F(-1, 3)
    assert as_rational("0.25") == F(1, 4)
    assert as_rational(" 1 ") == F(1)


def test_parse_rational_rejects_garbage() -> None:
    with pytest.raises(DomainError):
        as_rational("pi")
    with pytest.raises(DomainError):
        as_rational("1/0")


#: One digit past Python's default limit for converting text to an int.
LONG_NUMBER = "1" * 4301


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--fn", "f", "--x", LONG_NUMBER],
        ["sample", "--fn", "f", "--a", LONG_NUMBER],
        ["intervals", "--window", LONG_NUMBER, "1"],
        ["integrate", "--k", "1", "--upto", LONG_NUMBER],
        ["verify", "local-min", "--count", "2", "--delta", LONG_NUMBER],
    ],
    ids=["eval", "sample", "intervals", "integrate", "verify"],
)
def test_rational_argument_past_the_digit_limit_is_usage_error(argv: list[str]) -> None:
    # arguments are parsed before the limit is lifted to render exact output
    code, out, err = invoke(argv)
    _assert_one_line_usage_error(code, out, err)
    assert err.startswith("error: not an exact rational: '1111")


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_f_quarter_is_exact_half() -> None:
    code, out, _ = invoke(["eval", "--fn", "f", "--x", "1/4", "--K", "30"])
    assert code == EXIT_OK
    assert json.loads(out) == {"center": "1/2", "radius": "0"}


def test_eval_f1_spot_values() -> None:
    # negative arguments need the --x=value form so argparse keeps the sign
    for x, want in [("1/2", "1"), ("7/10", "-1/5"), ("7/12", "0"), ("-2/3", "1")]:
        code, out, _ = invoke(["eval", "--fn", "f1", f"--x={x}"])
        assert code == EXIT_OK
        assert json.loads(out) == {"center": want, "radius": "0"}


def test_eval_fk_uses_layer_index() -> None:
    code, out, _ = invoke(["eval", "--fn", "fk", "--x", "7/10", "--k", "2"])
    assert code == EXIT_OK
    assert json.loads(out)["center"] == "-2/5"


def test_eval_cycling_point_reports_truncation_radius() -> None:
    code, out, _ = invoke(["eval", "--fn", "f", "--x", "1/7", "--K", "4"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["radius"] == "1/16"


def test_eval_G_at_one() -> None:
    code, out, _ = invoke(["eval", "--fn", "G", "--x", "1", "--K", "3"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert F(payload["center"]) == F(1, 6) * (1 - F(1, 4) ** 3)
    assert F(payload["radius"]) == F(4, 8)


@pytest.mark.parametrize(
    "argv, radius",
    [
        ("eval --fn G --x 1/7 --K 1000", F(4, 2**1000)),
        ("eval --fn Fk --x 1/7 --k 5000", F(0)),
    ],
    ids=["G-K1000", "Fk-k5000"],
)
def test_eval_deep_layer_index_runs_without_recursion(argv: str, radius: F) -> None:
    code, out, err = invoke(argv.split())
    assert (code, err) == (EXIT_OK, "")
    assert F(json.loads(out)["radius"]) == radius


@pytest.mark.parametrize("fn, flag", [("fk", "--k"), ("Fk", "--k"), ("G", "--K")])
def test_eval_layer_index_above_bound_is_refused_before_walking(fn: str, flag: str) -> None:
    # 1/7 cycles forever, so an unbounded walk would never end
    start = time.perf_counter()
    code, out, err = invoke(["eval", "--fn", fn, "--x", "1/7", flag, "30000000"])
    assert time.perf_counter() - start < 2
    _assert_one_line_usage_error(code, out, err)
    assert "at most 5000" in err


def test_sample_layer_index_above_bound_is_refused() -> None:
    code, out, err = invoke(["sample", "--fn", "f", "--K", "5001", "--count", "3"])
    _assert_one_line_usage_error(code, out, err)
    assert "--K must be at most 5000" in err


@pytest.mark.parametrize(
    "argv, exact",
    [
        ("eval --fn F --x 1/7 --K 5000", eval_F),
        ("sample --fn G --a 1/7 --b 1/7 --count 1 --K 5000 --format json", eval_G),
    ],
    ids=["eval", "sample"],
)
def test_exact_output_beyond_the_int_digit_limit(argv: str, exact) -> None:
    # the center has about 8600 digits, more than Python's default limit of 4300
    limit = sys.get_int_max_str_digits()
    code, out, err = invoke(argv.split())
    assert (code, err) == (EXIT_OK, "")
    assert sys.get_int_max_str_digits() == limit
    center = json.loads(out)
    center = (center[0] if isinstance(center, list) else center)["center"]
    sys.set_int_max_str_digits(0)
    try:
        assert F(center) == exact(F(1, 7), 5000).center
    finally:
        sys.set_int_max_str_digits(limit)


def test_int_digit_limit_is_restored_after_an_error_exit() -> None:
    limit = sys.get_int_max_str_digits()
    # count 0 is refused when emit_samples is called, before the first byte
    code, out, err = invoke(["sample", "--fn", "G", "--count", "0", "--K", "5000"])
    _assert_one_line_usage_error(code, out, err)
    assert sys.get_int_max_str_digits() == limit


def test_eval_outside_domain_is_usage_error() -> None:
    code, _, err = invoke(["eval", "--fn", "f", "--x", "3/2"])
    assert code == EXIT_USAGE
    assert "error:" in err


def test_eval_bad_rational_is_usage_error() -> None:
    code, _, err = invoke(["eval", "--fn", "f", "--x", "zebra"])
    assert code == EXIT_USAGE
    assert "zebra" in err


def test_eval_unknown_function_is_usage_error(capsys: pytest.CaptureFixture) -> None:
    code, _, _ = invoke(["eval", "--fn", "nope", "--x", "0"])
    capsys.readouterr()
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------


def test_sample_csv_header_and_values() -> None:
    code, out, _ = invoke(
        ["sample", "--fn", "f1", "--a", "0", "--b", "1", "--count", "5"]
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "x,center,radius,exact"
    assert lines[1] == "0,0,0,true"
    assert lines[2] == "1/4,1/2,0,true"
    assert len(lines) == 6


def test_sample_json_format() -> None:
    code, out, _ = invoke(
        ["sample", "--fn", "f", "--a", "0", "--b", "1/2", "--count", "2",
         "--K", "10", "--format", "json"]
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload[0] == {"center": "0", "exact": True, "radius": "0", "x": "0"}
    assert payload[1]["x"] == "1/2"


def test_sample_single_point_and_bad_range() -> None:
    code, out, _ = invoke(["sample", "--fn", "f1", "--a", "1/2", "--b", "1/2",
                           "--count", "1"])
    assert code == EXIT_OK
    assert out.strip().splitlines()[1] == "1/2,1,0,true"
    code, _, err = invoke(["sample", "--fn", "f1", "--a", "1", "--b", "0"])
    assert code == EXIT_USAGE
    assert "a <= b" in err


def test_sample_deep_layer_index_runs_without_recursion() -> None:
    code, out, err = invoke(["sample", "--fn", "Fk", "--k", "2000", "--count", "3"])
    assert (code, err) == (EXIT_OK, "")
    lines = out.strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["-1", "0", "1"]
    # F_k(0) = -2^-(k+1) for every layer k
    assert F(lines[2].split(",")[1]) == -F(1, 2**2001)


def test_emit_samples_grid_is_exact() -> None:
    lines = "".join(emit_samples("f1", F(-1), F(1), 9, 1, 30, "csv")).strip().splitlines()
    xs = [F(line.split(",")[0]) for line in lines[1:]]
    assert xs == [F(-1) + F(1, 4) * i for i in range(9)]
    for line, x in zip(lines[1:], xs):
        assert F(line.split(",")[1]) == eval_f1(x)


def test_emit_samples_refuses_an_unknown_function() -> None:
    with pytest.raises(DomainError, match="unknown function 'h'"):
        "".join(emit_samples("h", F(-1), F(1), 3, 1, 30, "csv"))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_samples_evaluates_each_row_when_it_is_drawn(
    fmt: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    calls = []
    evaluate = cli._evaluate

    def counting(*args):
        calls.append(args[1])
        return evaluate(*args)

    monkeypatch.setattr(cli, "_evaluate", counting)
    chunks = emit_samples("f", F(-1), F(1), 10**4, 1, 30, fmt)
    assert calls == [F(-1), F(1)]  # the first and the last sample, for their refusals
    next(chunks)
    assert len(calls) <= 3
    assert sum(1 for _ in chunks) >= 10**4 - 1
    assert len(calls) == 10**4  # the first and the last are not evaluated again


def test_emit_samples_of_one_point_evaluates_it_once(monkeypatch: pytest.MonkeyPatch) -> None:
    calls = []
    evaluate = cli._evaluate

    def counting(*args):
        calls.append(args[1])
        return evaluate(*args)

    monkeypatch.setattr(cli, "_evaluate", counting)
    assert "".join(emit_samples("f", F(1, 3), F(1), 1, 1, 30, "csv")).count("\n") == 2
    assert calls == [F(1, 3)]


def test_sample_of_one_point_reads_only_a() -> None:
    # with one sample, b is never sampled, so a b outside [-1, 1] is no refusal
    code, out, err = invoke(["sample", "--fn", "f", "--a", "0", "--b", "2", "--count", "1"])
    assert (code, out, err) == (EXIT_OK, "x,center,radius,exact\n0,0,0,true\n", "")


@pytest.mark.parametrize(
    "argv, message",
    [
        ("sample --fn f --a=-2", "x must lie in [-1, 1], got -2"),
        ("sample --fn f --b 2 --count 3", "x must lie in [-1, 1], got 2"),
        ("sample --fn f --K 0", "truncation K must be >= 1, got 0"),
        ("sample --fn fk --k 0", "iterate index k must be >= 1, got 0"),
        ("sample --fn f --K 5001", "--K must be at most 5000, got 5001"),
        ("intervals --window 1 0", "window must satisfy lo <= hi, got [1, 0]"),
        ("intervals --window 2 3", "window lo must lie in [-1, 1], got 2"),
        ("intervals --window 0 3/2", "window hi must lie in [-1, 1], got 3/2"),
        ("intervals --k 6 --index-budget 50",
         "enumerating (2*50+1)^6 cells is too large (limit 500000); "
         "narrow the budget or the level"),
    ],
)
def test_sample_and_intervals_refusals_write_nothing(
    tmp_path: Path, argv: str, message: str
) -> None:
    # every refusal is made before the first byte, to stdout or to --out
    code, out, err = invoke(argv.split())
    _assert_one_line_usage_error(code, out, err)
    assert err == f"error: {message}\n"
    assert invoke([*argv.split(), "--out", str(tmp_path / "out.csv")]) == (code, out, err)
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------


def test_intervals_level1_csv() -> None:
    code, out, _ = invoke(
        ["intervals", "--k", "1", "--index-budget", "2", "--window", "0", "1"]
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "address,lo,hi,slope,intercept"
    assert lines[1] == "0,-1/2,1/2,2,0"
    assert lines[2] == "1,1/2,2/3,-12,7"
    assert lines[3] == "2,2/3,3/4,24,-17"
    assert len(lines) == 4


def test_intervals_level2_json_window() -> None:
    code, out, _ = invoke(
        ["intervals", "--k", "2", "--index-budget", "1", "--window",
         "1/4", "1/3", "--format", "json"]
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    rows = {tuple(row["address"]): row for row in payload}
    assert rows[(0, 1)]["lo"] == "1/4"
    assert rows[(0, 1)]["hi"] == "1/3"
    assert rows[(0, 1)]["slope"] == "-24"
    assert rows[(0, 1)]["intercept"] == "7"
    for row in payload:
        assert F(row["hi"]) >= F(1, 4) and F(row["lo"]) <= F(1, 3)


@pytest.mark.parametrize(
    "window, message",
    [(["1", "0"], "lo <= hi"), (["2", "3"], "must lie in [-1, 1]")],
    ids=["reversed", "outside"],
)
def test_intervals_bad_window_is_usage_error(window: list[str], message: str) -> None:
    code, out, err = invoke(["intervals", "--k", "2", "--window", *window])
    _assert_one_line_usage_error(code, out, err)
    assert message in err


@pytest.mark.parametrize("fmt, text", [("csv", "address,lo,hi,slope,intercept\n"),
                                       ("json", "[]\n")])
@pytest.mark.parametrize("window", [["9/10", "1"], ["0.45", "0.49"]], ids=["tail", "gap"])
def test_intervals_window_without_a_level_k_cell_is_an_empty_table(
    window: list[str], fmt: str, text: str
) -> None:
    # the tail past the last level-1 cell, and the gap past the last level-2
    # cell inside level-1 cell (0,)
    argv = ["intervals", "--k", "2", "--index-budget", "1", "--window", *window]
    assert invoke([*argv, "--format", fmt]) == (EXIT_OK, text, "")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_render_intervals_draws_each_cell_when_its_row_is_drawn(
    fmt: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    drawn = []
    real = cli.iter_cells

    def counting(*args):
        for c in real(*args):
            drawn.append(c.address)
            yield c

    monkeypatch.setattr(cli, "iter_cells", counting)
    chunks = render_intervals(3, 4, (F(-1), F(1)), fmt)
    next(chunks)
    assert len(drawn) <= 3  # (-4,), (-4, -4) and (-4, -4, -4) at most
    assert sum(1 for _ in chunks) >= 9**3
    assert len(drawn) == 9 + 9**2 + 9**3


@pytest.mark.parametrize(
    "addresses",
    [[], [[0]], [[-3, 0, 12]], [[], [-1000001, 40, 7]]],
    ids=["empty listing", "zero", "negative and multi-digit", "empty address"],
)
def test_json_table_is_indented_json_dumps(addresses: list[list[int]]) -> None:
    fields = ("lo", "address", "exact")
    rows = [("-1/3", address, i % 2 == 0) for i, address in enumerate(addresses)]
    expected = [dict(zip(fields, row)) for row in rows]
    text = "".join(cli._table(fields, rows, "json"))
    assert text == json.dumps(expected, indent=2, sort_keys=True) + "\n"


#: Exact rationals, some with parts of thousands of digits.
RATIONALS = st.builds(
    F,
    st.integers() | st.integers(-(10**5000), 10**5000),
    st.integers(min_value=1) | st.integers(1, 10**5000),
)


@settings(deadline=None)  # the text of a 5000-digit rational takes a while
@given(st.sampled_from([("center", "radius"), ("width", "lower", "upper")]),
       st.lists(RATIONALS, min_size=3, max_size=3))
def test_json_line_is_sorted_json_dumps(keys: tuple[str, ...], values: list[F]) -> None:
    value = SimpleNamespace(**dict(zip(keys, values)))
    with cli._all_digits():
        line = "".join(cli._json_line(value, keys))
        expected = json.dumps({key: str(getattr(value, key)) for key in keys}, sort_keys=True)
    assert line == expected + "\n"


def test_intervals_guard_against_explosion() -> None:
    code, _, err = invoke(["intervals", "--k", "9", "--index-budget", "50"])
    assert code == EXIT_USAGE
    assert "too large" in err


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------


def test_integrate_frozen_layer1() -> None:
    code, out, _ = invoke(
        ["integrate", "--k", "1", "--upto", "0", "--index-budget", "40"]
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload == {"lower": "-25/84", "upper": "-17/84", "width": "2/21"}


def test_integrate_full_interval_straddles_zero() -> None:
    code, out, _ = invoke(["integrate", "--k", "3", "--upto", "1"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert F(payload["lower"]) <= 0 <= F(payload["upper"])


def test_integrate_bad_layer_is_usage_error() -> None:
    code, _, err = invoke(["integrate", "--k", "0", "--upto", "1"])
    assert code == EXIT_USAGE
    assert "error:" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_local_min_small_count_passes() -> None:
    code, out, err = invoke(["verify", "local-min", "--count", "4"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["suite"] == "local-min"
    assert payload["seed"] == 20240601
    assert payload["summary"] == {"pass": 4, "fail": 0}
    assert len(payload["cases"]) == 4
    case = payload["cases"][0]
    assert set(case) == {"kind", "inputs", "points", "verdict", "certificate", "error"}
    assert "4 passed, 0 failed" in err


def test_verify_is_byte_identical_across_runs() -> None:
    argv = ["verify", "nowhere-monotone", "--count", "6", "--seed", "7"]
    _, first, _ = invoke(argv)
    _, second, _ = invoke(argv)
    assert first == second
    assert json.loads(first)["seed"] == 7


def test_verify_seed_changes_cases() -> None:
    _, a, _ = invoke(["verify", "no-extrema", "--count", "3", "--seed", "1"])
    _, b, _ = invoke(["verify", "no-extrema", "--count", "3", "--seed", "2"])
    assert json.loads(a)["summary"] == json.loads(b)["summary"]
    assert a != b


def test_verify_exhausted_budget_fails_with_exit_1() -> None:
    code, out, err = invoke(
        ["verify", "oscillation", "--fan-budget", "0", "--max-level", "1"]
    )
    assert code == EXIT_VERIFICATION_FAILED
    payload = json.loads(out)
    assert payload["summary"]["fail"] == payload["summary"]["pass"] + payload["summary"]["fail"]
    assert all(case["error"] for case in payload["cases"])
    assert "failed" in err


def test_verify_unknown_suite_is_usage_error(capsys: pytest.CaptureFixture) -> None:
    code, _, _ = invoke(["verify", "nosuchsuite"])
    capsys.readouterr()
    assert code == EXIT_USAGE


def test_verify_out_file(tmp_path) -> None:
    target = tmp_path / "report.json"
    code, out, _ = invoke(
        ["verify", "darboux", "--out", str(target)]
    )
    assert code == EXIT_OK
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["summary"]["fail"] == 0


def test_verify_darboux_cases_recheck_and_fail_at_half_their_epsilon() -> None:
    code, out, _ = invoke(["verify", "darboux"])
    assert code == EXIT_OK
    cases = json.loads(out)["cases"]
    assert [case["inputs"]["epsilon"] for case in cases] == ["1/10", "1/100", "1/1000"]
    for case in cases:
        assert case["kind"] == "darboux"
        assert case["verdict"] is True and recheck(report_from_dict(case))
        eps = F(case["inputs"]["epsilon"])
        assert [(c["relation"], F(c["rhs"])) for c in case["certificate"]] == [("<=", eps)] * 2
        for i in range(2):  # the bound for f, then for g
            halved = json.loads(json.dumps(case))
            halved["certificate"][i]["rhs"] = str(eps / 2)
            assert not recheck(report_from_dict(halved))


def test_verify_out_file_gets_the_stdout_bytes(tmp_path) -> None:
    target = tmp_path / "report.json"
    argv = ["verify", "structure", "--structure-max-level", "2"]
    code, out, _ = invoke(argv)
    assert code == EXIT_OK
    assert invoke([*argv, "--out", str(target)])[:2] == (EXIT_OK, "")
    assert target.read_bytes() == out.encode("utf-8")


def test_verify_error_exit_creates_no_out_file(tmp_path) -> None:
    target = tmp_path / "report.json"
    code, out, err = invoke(["verify", "local-min", "--count", "0", "--out", str(target)])
    _assert_one_line_usage_error(code, out, err)
    assert not target.exists()


def test_verify_holds_at_most_two_reports_at_any_write(monkeypatch: pytest.MonkeyPatch) -> None:
    # each case is written as it is certified and then let go: whenever the
    # output is written, at most the case being written and the one being
    # built are alive, however many cases the suite has
    refs: list[weakref.ref] = []
    live_at_write: list[int] = []
    make_report = verifier.make_report

    def tracked(*args, **kwargs):
        report = make_report(*args, **kwargs)
        refs.append(weakref.ref(report))
        return report

    class CountingOut(io.StringIO):
        def write(self, text: str) -> int:
            live_at_write.append(sum(ref() is not None for ref in refs))
            return super().write(text)

    monkeypatch.setattr(verifier, "make_report", tracked)
    out = CountingOut()
    code = run(["verify", "oscillation", "--max-level", "4"], stdout=out, stderr=io.StringIO())
    assert code == EXIT_OK
    assert len(refs) == len(json.loads(out.getvalue())["cases"]) > 700
    assert len(live_at_write) > 700
    assert max(live_at_write) <= 2


def _fail_on_third_case(monkeypatch: pytest.MonkeyPatch) -> None:
    """Make the local-min suite raise while its third case is certified."""
    calls = []
    certify = suites.local_min_check

    def failing(x):
        calls.append(x)
        if len(calls) == 3:
            raise DomainError("certification failed midway")
        return certify(x)

    monkeypatch.setattr(suites, "local_min_check", failing)


def test_verify_failing_midway_leaves_no_out_file(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    _fail_on_third_case(monkeypatch)
    code, out, err = invoke(["verify", "local-min", "--count", "5",
                             "--out", str(tmp_path / "report.json")])
    _assert_one_line_usage_error(code, out, err)
    assert err == "error: certification failed midway\n"
    assert os.listdir(tmp_path) == []


def test_verify_failing_midway_keeps_the_old_out_file(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    target = tmp_path / "report.json"
    target.write_text("old report\n")
    _fail_on_third_case(monkeypatch)
    code, out, err = invoke(["verify", "local-min", "--count", "5", "--out", str(target)])
    _assert_one_line_usage_error(code, out, err)
    assert os.listdir(tmp_path) == ["report.json"]
    assert target.read_text() == "old report\n"


def test_verify_out_replaces_a_file_and_keeps_its_mode(tmp_path: Path) -> None:
    target = tmp_path / "report.json"
    target.write_text("old report\n")
    target.chmod(0o600)
    argv = ["verify", "local-min", "--count", "3"]
    assert invoke([*argv, "--out", str(target)])[:2] == (EXIT_OK, "")
    assert target.read_text() == invoke(argv)[1]
    assert stat.S_IMODE(target.stat().st_mode) == 0o600
    assert os.listdir(tmp_path) == ["report.json"]


def test_verify_out_writes_a_pipe_in_place(tmp_path: Path) -> None:
    # a pipe cannot be replaced by a file: the output goes into the pipe
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    read_end = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        argv = ["verify", "darboux"]
        assert invoke([*argv, "--out", str(fifo)])[:2] == (EXIT_OK, "")
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert os.read(read_end, 1 << 16).decode("utf-8") == invoke(argv)[1]
    finally:
        os.close(read_end)


def test_verify_echoes_a_delta_past_the_digit_limit() -> None:
    # 1e-5000 is short text, but its denominator has 5001 digits
    code, out, _ = invoke(["verify", "local-min", "--count", "1", "--delta", "1e-5000"])
    assert code == EXIT_OK
    assert json.loads(out)["parameters"]["delta"] == "1/1" + "0" * 5000


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--fn", "f", "--x", "1e-2000000"],
        ["sample", "--fn", "f", "--a", "1e-2000000"],
        ["integrate", "--k", "1", "--upto", "1e-2000000"],
        ["intervals", "--window", "1e-2000000", "1"],
        ["verify", "local-min", "--count", "1", "--delta", "1e-2000000"],
    ],
    ids=["eval", "sample", "integrate", "intervals", "verify"],
)
def test_decimal_exponent_past_its_bound_is_refused_at_once(argv: list[str]) -> None:
    # ten characters that would ask for a power of ten with two million digits
    start = time.perf_counter()
    code, out, err = invoke(argv)
    assert time.perf_counter() - start < 2
    _assert_one_line_usage_error(code, out, err)
    assert err == "error: decimal exponent of '1e-2000000' is out of range (limit 10000)\n"


def test_parse_rational_takes_a_decimal_exponent_up_to_its_bound() -> None:
    assert construction.MAX_DECIMAL_EXPONENT == 10_000
    assert as_rational("1e-10000") == F(1, 10**10000)
    assert as_rational("-2.5E+3") == -2500
    with pytest.raises(DomainError, match="out of range"):
        as_rational("1e10001")


def test_verify_restores_the_int_digit_limit() -> None:
    limit = sys.get_int_max_str_digits()
    assert invoke(["verify", "local-min", "--count", "3"])[0] == EXIT_OK
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize(
    "suite, settings",
    [
        ("local-min", {"count": 5, "seed": 3}),
        ("oscillation", {"fan_budget": 0, "max_level": 2}),  # failed cases
        ("all", {"max_level": 2, "count": 2, "index_budget": 2, "n_max": 3,
                 "structure_max_level": 1}),
    ],
)
def test_verify_stdout_is_the_indented_dump_of_run_suite(suite: str, settings: dict) -> None:
    flags = [f"--{name.replace('_', '-')}={value}" for name, value in settings.items()]
    code, out, _ = invoke(["verify", suite, *flags])
    assert code in (EXIT_OK, EXIT_VERIFICATION_FAILED)
    report = run_suite(suite, SuiteConfig(**settings))
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"


def _assert_one_line_usage_error(code: int, out: str, err: str) -> None:
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        "eval --fn f --x=--",
        "sample --fn f --a=-- --count 2",
        "verify local-min --count 2 --delta=--",
        "eval --fn f --x 1 --out=--",
        # flags with choices and an int flag
        "eval --fn=-- --x 1",
        "eval --fn F --x 1 --K=--",
        "sample --fn f --format=-- --count 2",
    ],
)
def test_a_double_dash_value_is_usage_error(argv: str) -> None:
    # argparse strips the value "--" to an empty list
    code, out, err = invoke(argv.split())
    _assert_one_line_usage_error(code, out, err)
    flag = argv.split("=--")[0].split()[-1]
    assert err == f"error: argument {flag}: expected one value, got '--'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "no-extrema", "--count", "0"],
        ["verify", "local-min", "--count", "-5"],
        ["verify", "quotient-bound", "--n-max", "1"],
        # the empty suites sit inside 'all'; a shallow oscillation keeps it quick
        ["verify", "all", "--count", "0", "--max-level", "2"],
    ],
)
def test_verify_zero_case_suite_is_usage_error(argv: list[str]) -> None:
    code, out, err = invoke(argv)
    _assert_one_line_usage_error(code, out, err)
    assert "no cases" in err


def test_verify_refuses_a_suite_that_yields_no_case(
    tmp_path: Path, monkeypatch: pytest.MonkeyPatch
) -> None:
    # no setting reaches this refusal: every suite counts at least one case
    monkeypatch.setitem(suites.SUITES, "local-min", lambda cfg: suites.Cases(0, []))
    for argv in (["verify", "local-min"], ["verify", "local-min", "--out", str(tmp_path / "r")]):
        code, out, err = invoke(argv)
        _assert_one_line_usage_error(code, out, err)
        assert err == "error: suite local-min yields no cases with these settings\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "structure", "--count", "0"], "count must be >= 1, got 0 (no cases)"),
        (["verify", "local-min", "--count", "2", "--n-max", "-4"],
         "n max must be >= 2, got -4 (no cases)"),
        (["verify", "local-min", "--count", "2", "--index-budget", "-5"],
         "index budget must be >= 0, got -5"),
        # endpoints of first level 6 whose orbit records cannot reach +-1
        # within the depth
        (["verify", "oscillation", "--depth", "2"], "max level 6 needs depth >= 5, got 2"),
        (["verify", "all", "--depth", "2"], "max level 6 needs depth >= 5, got 2"),
        (["verify", "all", "--structure-max-level", "9"],
         "enumerating (2*6+1)^9 cells is too large (limit 500000); "
         "narrow the budget or the level"),
        (["verify", "all", "--index-budget", "0"], "index budget must be >= 1, got 0"),
    ],
)
def test_verify_refusals_write_nothing(tmp_path: Path, argv: list[str], message: str) -> None:
    # every refusal is made before the first byte, to stdout or to --out
    code, out, err = invoke(argv)
    _assert_one_line_usage_error(code, out, err)
    assert err == f"error: {message}\n"
    assert invoke([*argv, "--out", str(tmp_path / "report.json")]) == (code, out, err)
    assert os.listdir(tmp_path) == []


def test_negative_index_budget_is_refused_in_the_library() -> None:
    with pytest.raises(DomainError, match="index budget must be >= 0, got -5"):
        suites.run_suite_reports("local-min", SuiteConfig(count=2, index_budget=-5))


def test_unwritable_out_is_usage_error(tmp_path) -> None:
    target = tmp_path / "missing" / "x.json"
    code, out, err = invoke(["eval", "--fn", "f", "--x", "1/3", "--out", str(target)])
    _assert_one_line_usage_error(code, out, err)
    assert "cannot write" in err
    assert not target.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "no-extrema", "--delta", "0", "--count", "3"],
        ["verify", "no-extrema", "--delta=-1", "--count", "3"],
        ["verify", "all", "--delta", "0"],
    ],
)
def test_verify_nonpositive_delta_is_usage_error_in_every_suite(argv: list[str]) -> None:
    start = time.perf_counter()
    code, out, err = invoke(argv)
    assert time.perf_counter() - start < 2  # refused before any suite runs
    _assert_one_line_usage_error(code, out, err)
    assert "window radius delta must be > 0" in err


@pytest.mark.parametrize("argv", ["verify all --K 8", "verify darboux --cells-budget 5"])
def test_verify_refuses_the_settings_the_darboux_bound_retired(argv: str) -> None:
    # no suite reads a truncation or a tooth budget: either flag is unknown
    code, out, err = invoke(argv.split())
    assert code == EXIT_USAGE
    assert out == ""
    assert err.count("error:") == 1
    flag = " ".join(argv.split()[2:])
    assert err.endswith(f"\nsawcascade: error: unrecognized arguments: {flag}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "all", "--depth", "5001"], "--depth must be at most 5000, got 5001"),
        (["verify", "no-extrema", "--depth", "0"], "depth must be a positive integer, got 0"),
        (["verify", "all", "--depth", "0"], "depth must be a positive integer, got 0"),
        (["verify", "structure", "--depth=-3"], "depth must be a positive integer, got -3"),
        (["verify", "nowhere-monotone", "--depth", "10000000"],
         "--depth must be at most 5000, got 10000000"),
    ],
)
def test_verify_depth_outside_its_bounds_is_usage_error_in_every_suite(
    argv: list[str], message: str
) -> None:
    start = time.perf_counter()
    code, out, err = invoke(argv)
    assert time.perf_counter() - start < 2  # refused before any suite runs
    _assert_one_line_usage_error(code, out, err)
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        ("integrate --k 30000000 --upto 1/3", "--k"),
        ("intervals --k 100000 --index-budget 0", "--k"),
        ("intervals --k 30000000 --index-budget 1", "--k"),
        ("verify structure --structure-max-level 30000000", "--structure-max-level"),
        ("verify oscillation --max-level 300000", "--max-level"),
    ],
)
def test_level_arguments_above_the_layer_bound_are_refused_at_once(argv: str, flag: str) -> None:
    # without the bound each of these runs for tens of seconds or more
    args = argv.split()
    start = time.perf_counter()
    code, out, err = invoke(args)
    assert time.perf_counter() - start < 2
    _assert_one_line_usage_error(code, out, err)
    assert err == f"error: {flag} must be at most 5000, got {args[args.index(flag) + 1]}\n"


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"depth": 5001}, "--depth must be at most 5000, got 5001"),
        ({"delta": F(0)}, "window radius delta must be > 0, got 0"),
        ({"max_level": -3}, "max level must be >= 1, got -3"),
        ({"structure_max_level": -1}, "suite structure yields no cases with these settings"),
        ({"fan_budget": -7}, "fan budget must be >= 0, got -7"),
        ({"count": 0}, "count must be >= 1, got 0 (no cases)"),
        ({"n_max": 1}, "n max must be >= 2, got 1 (no cases)"),
        ({"max_level": 5001}, "--max-level must be at most 5000, got 5001"),
        ({"structure_max_level": 5001}, "--structure-max-level must be at most 5000, got 5001"),
    ],
)
def test_suite_config_refuses_what_verify_refuses(settings: dict, message: str) -> None:
    with pytest.raises(DomainError) as info:
        SuiteConfig(**settings)
    assert str(info.value) == message
    # local-min reads none of these settings, but its report echoes them all
    flags = [f"--{name.replace('_', '-')}={value}" for name, value in settings.items()]
    code, out, err = invoke(["verify", "local-min", "--count", "2", *flags])
    _assert_one_line_usage_error(code, out, err)
    assert err == f"error: {message}\n"


def test_suite_config_takes_settings_at_their_bounds() -> None:
    cfg = SuiteConfig(count=1, depth=5000, delta=F(1, 10**9), max_level=1,
                      structure_max_level=1, fan_budget=0, index_budget=0)
    assert run_suite("local-min", cfg)["summary"]["fail"] == 0


def test_verify_depth_at_its_bound_runs() -> None:
    assert cli.MAX_LAYER_INDEX == 5000
    code, out, _ = invoke(["verify", "no-extrema", "--count", "1", "--depth", "5000"])
    assert code == EXIT_OK
    assert json.loads(out)["parameters"]["depth"] == 5000


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--max-level", "3", "--index-budget=-7"], "index budget must be >= 1, got -7"),
        (["--max-level", "3", "--index-budget", "0"], "index budget must be >= 1, got 0"),
        (["--max-level", "0"], "max level must be >= 1, got 0"),
        (["--max-level=-2", "--index-budget", "0"], "max level must be >= 1, got -2"),
    ],
)
def test_verify_oscillation_settings_below_one_are_usage_errors(
    flags: list[str], message: str
) -> None:
    code, out, err = invoke(["verify", "oscillation", *flags])
    _assert_one_line_usage_error(code, out, err)
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        # streamed case by case
        ["verify", "local-min", "--count", "400"],
        # streamed row by row, about 0.9 MB
        ["sample", "--fn", "f1", "--count", "30000"],
    ],
)
def test_closed_stdout_is_one_line_usage_error(argv: list[str]) -> None:
    # the output is far larger than a pipe buffer, so the writer meets the
    # closed pipe while it is still writing
    src = str(Path(sawcascade.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "sawcascade", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode("utf-8")
        code = proc.wait(timeout=60)
    assert code == EXIT_USAGE
    assert err == "error: stdout closed before the output was complete\n"


def test_verify_max_level_guard_refuses_before_enumerating() -> None:
    start = time.perf_counter()
    code, out, err = invoke(["verify", "oscillation", "--max-level", "20"])
    assert time.perf_counter() - start < 5
    _assert_one_line_usage_error(code, out, err)
    assert "too large" in err


def test_verify_index_budget_guard_refuses_at_once() -> None:
    # each level's id budget is an integer root of the index budget
    start = time.perf_counter()
    code, out, err = invoke(["verify", "oscillation", "--index-budget", "30000000"])
    assert time.perf_counter() - start < 1
    _assert_one_line_usage_error(code, out, err)
    assert err == (
        "error: enumerating (2*31+1)^5 cells is too large (limit 500000); "
        "narrow the budget or the level\n"
    )


def test_verify_structure_max_level_flag() -> None:
    code, out, _ = invoke(["verify", "structure", "--structure-max-level", "2"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["parameters"]["structure_max_level"] == 2
    assert [case["inputs"]["k"] for case in payload["cases"]] == ["1", "2"]


def test_verify_structure_max_level_zero_is_usage_error() -> None:
    code, out, err = invoke(["verify", "structure", "--structure-max-level", "0"])
    _assert_one_line_usage_error(code, out, err)


def test_verify_structure_max_level_guard_refuses_before_scanning() -> None:
    start = time.perf_counter()
    code, out, err = invoke(["verify", "structure", "--structure-max-level", "9"])
    assert time.perf_counter() - start < 2
    _assert_one_line_usage_error(code, out, err)
    assert "too large" in err


#: Full sha256 of stdout for cheap calls that cross every bulk cell
#: enumeration, both integral enclosures and the endpoint fan: identical
#: arguments must keep producing identical bytes.
PINNED_STDOUT = {
    # the help of the program and of each command, at 80 columns
    "--help":
        "08cca578968e73b5caf37591bf224b45ffd55d1ec6647f09bbc50125a05c4c19",
    "eval --help":
        "149bfe85b8d75d15e797e61430388be30b7c7368891391633d2deecd5f82ed0a",
    "sample --help":
        "42aa0ab4f54c6bb9eb13fb12df005edb070f13bc99a12ff5c434a4fbeefcc2c9",
    "intervals --help":
        "0a0f7d045750c0a6d77c1c1d9ef9bc86f78c199dd9190703eb044ae9822da4cc",
    "integrate --help":
        "34de91278aa18aac10fa0beb1241665c9f7505836bf9e4a1e59fa4373bf5f96b",
    "verify --help":
        "440a360751782adf8f83e20492bfbcd6705123171bc7c47b36a9c7a4875c0467",
    "verify all":
        "146ecf6bf82ec6e74a5314ac76df520b9fe29a6794777bc8c5be46a35a7ee752",
    "verify all --max-level 3 --count 4 --index-budget 2 --n-max 3":
        "01dd95a427cb12c3302ca05faffc67c11f4628fcef37cf0309c4768b93d723a6",
    "verify structure":
        "15048450ab5d8b37205a094a9e6d422db68af2a28ec3bf8a6cb9184ebb14ff0e",
    "verify darboux":
        "a876964e4d44eef1982294b25720129a96bc79e49c5d07eeca0538a39dff5550",
    "verify integral-crosscheck":
        "63fb2d8e749f2070baabb0786a2d5eedcf39f49f7de7393df922fded4a298954",
    "intervals --k 2 --index-budget 5 --window 0 1 --format json":
        "3ba1d77f374efaa2bcba4f503b1b31ffc45e6499019bc2879d2761bd2a74db03",
    "intervals --k 3 --index-budget 4 --window 1/4 1/3":
        "50daba7910fafa79c7f63b5154453e4358ab8508b2106e388da65c7b10e39554",
    "integrate --k 1 --upto 0 --index-budget 1000":
        "cd9e4efbe343357526abf1a84df5722c639d94645280b3ca5b05a335c650c3c5",
    "integrate --k 3 --upto 7/10 --index-budget 20":
        "9b226331af8730d0bdfaa5fc200186512668c1013ecf3010e3e55bdbfb405a1b",
    "sample --fn F --count 33 --K 60":
        "3026b2b66988e8332135063e356c00bf02b65e84b1e054da4c4f935636a60e5a",
    "sample --fn G --count 33 --K 30 --format json":
        "571ea6ff14403e1780bcc9c3ff8609ccdc17f9d1247ad00dc830d82c48826908",
    "sample --fn Fk --k 7 --count 65":
        "bb8ef4f254e6e2dc19e45002c18d253f203bd35a3cd13f1b148399bb0ebaca95",
    "sample --fn f --a 1/7 --b 6/7 --count 13 --K 60":
        "8fc6594690c69f52c3ea2e88f6e306ca3cd0fbbdf937fe2e428bc9b0778acad9",
    "sample --fn g --count 21 --K 40 --format json":
        "75b6b5f9f0fac58c128d302e90ffc78c0c50ea35e1b1f18e039de5d75613084b",
    "eval --fn F --x=-123457/1000003 --K 60":
        "33a1c14a976fed1a200ae924d1a80e24f3ae85d1d494d006a11f06ac6b203b7f",
    "eval --fn G --x 999999/1000000 --K 60":
        "b84ea53bb0201013d9214bfd190984c6179bbd79c513c62d1f5b50cafaf715bf",
    "eval --fn fk --x 1/7 --k 300":
        "a23be6e944f135b5bd341cc9f7bbebbdd572cdc5c7045d67973c0f6ffa89e2db",
    # the endpoint fan off its defaults: failure reports with partial hits
    # (1408 passed, 78 failed), a tiny window, both non_monotone branches
    "verify oscillation --fan-budget 2 --max-level 5":
        "8a1af527bc2d95f40c3e7c88abc339cac1d4574445a1f790d9b469972481ded9",
    "verify oscillation --delta 1/1000000 --max-level 5":
        "530edd60b4e406222a1011091ba8406b95a42decfa34df8f12d4a5ed028f018d",
    # an endpoint family deeper than the default's: 9124 cases, 17 MB
    "verify oscillation --max-level 8":
        "ab924257a88bd00db217900fe800d555894f708e0e7a5de8759897f04c827ffb",
    "verify nowhere-monotone --count 400 --seed 5":
        "f72b1b7b8c485bed52b5889abb92cd6deea466361a3f1adec91d9a28ecb72459",
    # the integer layer kernel: a deep layer, a long grid, G off-center
    "eval --fn Fk --x=-123457/1000003 --k 60":
        "bd72dc1ddadc0d6cf24adaf809b9e9d293313f7f2a306ef9b890f23e93d6df90",
    "sample --fn F --count 101 --K 60":
        "69749fab1a11879f60857c8b9707e38fa41dc3cda360455243bf8e7472bb4486",
    "sample --fn G --a=-1/3 --b 1/3 --count 41 --K 60 --format json":
        "3138e20f09fc6b88ea1313aac9b29922109e8545981479b92a1a3a44a11d9435",
    # the witnesses' cell chains: interior siblings on chains of both slope
    # signs, a 10^-6 window within depth 12, chain-cell fans within depth 6
    "verify no-extrema --count 300 --seed 7":
        "2d38a44a93763c4f4d2fe9e644836b6c2757b1a02cd302b3b957cb0679473818",
    "verify no-extrema --delta 1/1000000 --count 50 --depth 12":
        "4ec5b9316e46a26818682b62f8e169ed3d145286a7b4dffacac563bf7b314a65",
    "verify nowhere-monotone --count 200 --depth 6":
        "09ae99acf35bef4518fa19a150cce3a0b0786bb5854196d3ce68f0f6d89ef86c",
    # deeper integer cells with large slopes: a level-4 structure scan, a
    # full level-4 family and a level-5 enclosure
    "verify structure --structure-max-level 4":
        "6598c6b046c266da49053a986cd0ea8edcc50f8f0930a45b6ab3abcc01cf1c17",
    "intervals --k 4 --index-budget 3 --format json":
        "12d9c39d5c27f3a987655a70a2d921cd6ad89bb9842563befb6044e30b7aa361",
    "integrate --k 5 --upto 3/7 --index-budget 3":
        "0f7fba3bc03cbe2f4f1a7423222a05db67dacc86ccf5a9a9e72229750925d4a6",
    # denominators near 10^6 on both sides of 0, as the eval benchmark and
    # the difference quotients draw them
    "sample --fn G --a=-999983/1000000 --b 999979/1000000 --count 97 --K 60":
        "fb6cc542f286031e117d9891d99165af49b5388dde344b34cc6f10f768d59249",
    "eval --fn f --x=-987654/999983 --K 60":
        "f05e40ca5b4905dfc6fa4a60d58ca82a9e31118037f7fa84f589b7fb49920d18",
    # G's negated branch at the coarse depth; decimal text, read by Fraction
    "eval --fn G --x=-123457/1000003 --K 30":
        "275f3feb7e196e30dab0e075a876848bea0801aa3f1cc7ee0f72e70d08991c1b",
    "eval --fn F --x 0.25 --K 60":
        "c2f76da7e5ab0f5a7af8da02bd1e8edaaa47f2da0a574ebec82a69e3ec78b3d3",
}

#: Exit code of a pinned command, where it is not EXIT_OK.
PINNED_EXIT = {
    "verify oscillation --fan-budget 2 --max-level 5": EXIT_VERIFICATION_FAILED,
}


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT))
def test_stdout_matches_pinned_digest(command: str, monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    code, out, _ = invoke(command.split())
    assert code == PINNED_EXIT.get(command, EXIT_OK)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_STDOUT[command]


def test_run_suite_report_shape() -> None:
    cfg = SuiteConfig(count=2, structure_max_level=1)
    report = run_suite("structure", cfg)
    assert report["suite"] == "structure"
    assert report["parameters"]["index_budget"] == 50
    assert report["parameters"]["delta"] == "1/1000"
    assert report["summary"]["pass"] == len(report["cases"])


def test_run_suite_all_concatenates(capsys: pytest.CaptureFixture) -> None:
    cfg = SuiteConfig(count=2, max_level=2, n_max=3, structure_max_level=1)
    report = run_suite("all", cfg)
    kinds = {case["kind"] for case in report["cases"]}
    assert {"structure", "oscillation", "local_min", "quotient_bound"} <= kinds
    assert report["summary"]["fail"] == 0


def test_missing_subcommand_is_usage_error(capsys: pytest.CaptureFixture) -> None:
    code, _, _ = invoke([])
    capsys.readouterr()
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# the parser
# ---------------------------------------------------------------------------


def test_usage_error_goes_to_the_given_stderr(capsys: pytest.CaptureFixture) -> None:
    code, out, err = invoke(["eval", "--fn", "zz", "--x", "1"])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("usage: sawcascade eval")
    assert "invalid choice: 'zz'" in err
    assert capsys.readouterr() == ("", "")


def test_help_goes_to_the_given_stdout(capsys: pytest.CaptureFixture) -> None:
    code, out, err = invoke(["--help"])
    assert code == EXIT_OK
    assert out.startswith("usage: sawcascade")
    assert err == ""
    assert capsys.readouterr() == ("", "")


def test_build_parser_returns_a_fresh_parser() -> None:
    assert cli.build_parser() is not cli.build_parser()


def test_run_builds_one_parser_across_calls(monkeypatch: pytest.MonkeyPatch) -> None:
    built, inits = [], []
    build, init = cli.build_parser, argparse.ArgumentParser.__init__

    def counting_build_parser(command=None):
        built.append(command)
        return build(command)

    def counting_init(self, *args, **kwargs):
        inits.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._shared_parser.cache_clear()
    # a well-formed call is read from the declarations: no ArgumentParser
    for argv in (["eval", "--fn", "f", "--x", "1/3"], ["eval", "--fn=F", "--x=-1/3", "--K", "60"],
                 ["sample", "--fn", "F", "--count", "3"]):
        assert invoke(argv)[0] == EXIT_OK
    assert built == [] and inits == []
    # argparse decides the rest, building the command's parser, and the
    # full one only for --help and an unrecognized extra argument
    decided = {
        "eval --f F --x 1/3": ["eval"],
        "eval --fn zz --x 1": ["eval"],
        "eval --fn F --x -1/3": ["eval"],
        "eval --fn f --x 1 extra": ["eval", None],
        "--help": [None],
    }
    for argv, parsers in decided.items():
        cli._shared_parser.cache_clear()
        built.clear()
        inits.clear()
        invoke(argv.split())
        assert built == parsers, argv
        if parsers == ["eval"]:
            assert inits == ["sawcascade eval"]  # one ArgumentParser
    # each parser is built once across calls
    cli._shared_parser.cache_clear()
    built.clear()
    for argv in [*decided, *decided]:
        invoke(argv.split())
    assert built == ["eval", None]
    own = cli._shared_parser("eval")
    assert type(own) is argparse.ArgumentParser and own.prog == "sawcascade eval"
    assert not any(isinstance(a, argparse._SubParsersAction) for a in own._actions)


#: Argument lists whose output the parser decides: help, an abbreviated
#: option, and a usage error of each kind argparse raises, in the command's
#: parser or (an unrecognized trailing argument) in the top one.
PARSER_ONLY_CALLS = [
    *(f"{command} --help" for command in cli.COMMANDS),
    "eval",
    "integrate",
    "eval --fn zz --x 1",
    "verify nosuch",
    "sample --fn f --format xml",
    "verify all --count x",
    "eval --f F --x 1/3",
    "eval --fn f --x 1 extra",
    "eval --fn f --x 1 --bogus 2",
    "verify all --count 1 extra",
    "intervals --window 0 1 1",
    "integrate --k 1 --upto 1 eval",
]


@pytest.mark.parametrize(
    "argv, columns",
    [pytest.param(argv, "80", id=argv) for argv in PARSER_ONLY_CALLS]
    + [pytest.param(argv, columns, id=f"{argv} at {columns} columns")
       for argv in ("eval --fn f --x 1 extra", "verify all --count 1 extra")
       for columns in ("30", "200")],
)
def test_one_command_parser_prints_what_the_full_parser_prints(
    argv: str, columns: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    # help and usage wrap at 78 columns whatever COLUMNS says, so at 30 and
    # at 200 they must print what they print at 80
    monkeypatch.setenv("COLUMNS", columns)
    cli._shared_parser.cache_clear()
    code, out, err = invoke(argv.split())
    unrecognized = "sawcascade: error: unrecognized arguments: " in err
    # the command's own parser, and the full one only for what it leaves
    assert cli._shared_parser.cache_info().currsize == (2 if unrecognized else 1)
    full_out, full_err = io.StringIO(), io.StringIO()
    with redirect_stdout(full_out), redirect_stderr(full_err):
        try:
            namespace = cli.build_parser().parse_args(argv.split())
            full_code = EXIT_OK
        except SystemExit as exc:
            namespace, full_code = None, exc.code
    if argv == "eval --f F --x 1/3":  # an abbreviation of --fn
        assert (code, err, full_code) == (EXIT_OK, "", EXIT_OK)
        assert (full_out.getvalue(), full_err.getvalue()) == ("", "")
        own, extra = cli._shared_parser("eval").parse_known_args(argv.split()[1:])
        assert (argparse.Namespace(command="eval", **vars(own)), extra) == (namespace, [])
        assert namespace.fn == "F" and out == invoke(["eval", "--fn", "F", "--x", "1/3"])[1]
        return
    assert (code, out, err) == (full_code, full_out.getvalue(), full_err.getvalue())
    if argv.endswith("--help"):
        assert (code, err) == (EXIT_OK, "") and out.startswith("usage: sawcascade ")
    else:
        assert (code, out) == (EXIT_USAGE, "") and err.startswith("usage: sawcascade ")
    if columns != "80":
        monkeypatch.setenv("COLUMNS", "80")
        cli._shared_parser.cache_clear()
        assert invoke(argv.split())[2] == err
        assert max(map(len, err.splitlines())) <= 78


@pytest.mark.parametrize("columns", ["30", "80", "200"])
def test_verify_usage_and_help_keep_to_78_columns(
    columns: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    # the suite positional prints as SUITE, its choices named in wrapped help
    monkeypatch.setenv("COLUMNS", columns)
    cli._shared_parser.cache_clear()
    code, out, err = invoke(["verify", "--help"])
    assert (code, err) == (EXIT_OK, "")
    assert "SUITE" in out and "integral-crosscheck" in out
    assert max(map(len, out.splitlines())) <= 78
    code, out, err = invoke(["verify", "all", "--count", "x"])
    assert (code, out) == (EXIT_USAGE, "")
    assert err.endswith("argument --count: invalid int value: 'x'\n")
    assert max(map(len, err.splitlines())) <= 78


@pytest.mark.parametrize(
    "argv, choices",
    [
        ("eval --fn zz", tuple(cli.POINT_FUNCTIONS)),
        ("sample --format xml", ("csv", "json")),
        ("intervals --format xml", ("csv", "json")),
        ("verify nosuch", tuple(suites.SUITE_ORDER)),
        ("nosuch", tuple(cli.COMMANDS)),
    ],
)
def test_an_invalid_choice_is_one_unwrapped_error_line_naming_every_choice(
    argv: str, choices: tuple[str, ...], monkeypatch: pytest.MonkeyPatch
) -> None:
    # usage wraps at 78 columns; the error line is never broken, however
    # long the list of choices makes it (up to 213 columns for verify)
    monkeypatch.setenv("COLUMNS", "80")
    cli._shared_parser.cache_clear()
    code, out, err = invoke(argv.split())
    assert (code, out) == (EXIT_USAGE, "")
    *usage, last = err.splitlines()
    assert usage and all("error:" not in line and len(line) <= 78 for line in usage)
    listed = ", ".join(map(repr, choices))
    assert last.startswith("sawcascade") and "error:" in last
    assert last.endswith(f": invalid choice: {argv.split()[-1]!r} (choose from {listed})")


@pytest.mark.parametrize("columns", ["40", "80", "200"])
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_a_command_parser_prints_the_help_of_its_subparser(
    command: str, columns: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    monkeypatch.setenv("COLUMNS", columns)
    full = cli.build_parser()
    [commands] = [a for a in full._actions if isinstance(a, argparse._SubParsersAction)]
    assert cli.build_parser(command).format_help() == commands.choices[command].format_help()


@pytest.mark.parametrize(
    "argv",
    ["--help", "eval --help", "verify --help", "sample", "verify nosuch", "eval --fn f --x 1 extra"],
)
def test_help_and_usage_errors_do_not_depend_on_the_terminal_width(
    argv: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    printed = set()
    for columns in ("40", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        cli._shared_parser.cache_clear()
        printed.add(invoke(argv.split()))
    assert len(printed) == 1


@pytest.mark.parametrize(
    "argv",
    ["eval --fn F --x=-123457/1000003 --K 60", "eval --fn f --x 1 extra", "--help"],
)
def test_a_fresh_interpreter_prints_what_run_prints(
    argv: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    # a new process builds its parser on its first call, which in-process
    # calls made after the parser cache has filled never do
    monkeypatch.setenv("COLUMNS", "80")
    src = str(Path(sawcascade.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sawcascade", *argv.split()],
        capture_output=True, env=env, timeout=60,
    )
    fresh = (proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8"))
    assert fresh == invoke(argv.split())
    if argv in PINNED_STDOUT:
        assert hashlib.sha256(proc.stdout).hexdigest() == PINNED_STDOUT[argv]


INTERLEAVED_CALLS = [
    ["eval", "--fn", "G", "--x", "1/3", "--K", "60"],
    ["eval", "--fn", "zz", "--x", "1"],
    ["sample", "--fn", "Fk", "--k", "5", "--count", "9", "--format", "json"],
    ["verify", "local-min", "--count", "0"],
    ["verify", "no-extrema", "--delta=-1", "--count", "3"],
    ["sample", "--fn", "f", "--count", "-1"],
    ["eval", "--fn", "F", "--x=-2/7", "--K", "30"],
    ["eval", "--fn", "F", "--x", "-1/3"],
    ["eval", "--fn", "F", "--x=-1/3"],
]


def test_shared_parser_prints_what_a_fresh_parser_prints() -> None:
    shared = [invoke(argv) for argv in INTERLEAVED_CALLS]
    fresh = []
    for argv in INTERLEAVED_CALLS:
        cli._shared_parser.cache_clear()
        fresh.append(invoke(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 2, 0, 2, 2, 2, 0, 2, 0]


# ---------------------------------------------------------------------------
# the reader of canonical argument lists, against argparse
# ---------------------------------------------------------------------------

#: Values that no option takes, or that argparse reads its own way.
EDGE_VALUES = ["", "--", "-", "-2", "-1/3", "a b", "zz", "x", LONG_NUMBER]


@st.composite
def command_argv(draw, command: str) -> list[str]:
    """An argv after ``command``, drawn from its parser's actions: options
    of one value with values their type takes, in both forms and repeated,
    then at most two odd items (an abbreviation, an edge value, a nargs
    option, a dangling or unknown flag, a stray token)."""
    parser = cli.build_parser(command)
    options = [a for a in parser._actions if a.option_strings and a.dest != "help"]
    [positional] = [a.choices for a in parser._actions if not a.option_strings] or [None]

    def option(action: argparse.Action, odd: bool = False) -> st.SearchStrategy[list[str]]:
        flag = action.option_strings[0]
        if action.dest == "out":  # nothing a test may write to
            good = [os.devnull, ""]
        elif action.choices is not None:
            good = list(action.choices)
        elif action.type is int:
            good = ["1", "2", "3", " 2", "+2", "2_0", "\u0662"]
        else:
            good = ["1/3", "0.25", "1"]
        value = st.sampled_from(good + EDGE_VALUES * (odd and action.dest != "out"))
        name = st.sampled_from([flag, flag[:-1]] if odd and len(flag) > 3 else [flag])
        count = action.nargs if isinstance(action.nargs, int) else 1
        separate = st.builds(lambda n, v: [n, *v], name,
                             st.lists(value, min_size=count, max_size=count))
        joined = st.builds(lambda n, v: [f"{n}={v}"], name, value)
        dangling = st.builds(lambda n: [n], name)
        return st.one_of(separate, joined, *[dangling] * odd)

    stray = st.sampled_from([["extra"], [""], ["-h"], ["--help"], ["--"], ["--bogus", "1"],
                             ["--bogus=1"]])
    required = [draw(option(a)) for a in options if a.required and draw(st.integers(0, 9))]
    well = draw(st.lists(st.one_of(*(option(a) for a in options if a.nargs is None)), max_size=4))
    odd = draw(st.lists(st.one_of(*(option(a, odd=True) for a in options), stray), max_size=2))
    argv = [token for item in draw(st.permutations(required + well + odd)) for token in item]
    if positional is not None and draw(st.integers(0, 9)):
        at = draw(st.sampled_from([0, 0, 0, len(argv)]))
        argv.insert(at, draw(st.sampled_from([*positional, "nosuch"])))
    return argv


def outcome(argv: list[str]) -> object:
    """What ``run`` prints and returns, or what it raises."""
    try:
        return invoke(argv)
    except Exception as exc:
        return type(exc), str(exc)


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_the_reader_accepts_only_what_argparse_parses_alike(data: st.DataObject) -> None:
    command = data.draw(st.sampled_from(list(cli.COMMANDS)))
    argv = data.draw(command_argv(command))
    read = cli._read(command, argv)
    if read is not None:
        assert cli._shared_parser(command).parse_known_args(argv) == (read, [])
    with pytest.MonkeyPatch.context() as patch:
        # verify echoes every setting in its envelope; its suites are skipped
        patch.setattr(cli, "run_suite_reports", lambda name, cfg: iter(()))
        read_or_parsed = outcome([command, *argv])
        patch.setattr(cli, "_read", lambda command, argv: None)
        assert outcome([command, *argv]) == read_or_parsed


@pytest.mark.parametrize(
    "argv",
    [
        "eval --fn F --x 1/3 -h",
        "eval --help",
        "eval --f F --x 1/3",
        "eval --fn F --x -1/3",
        "eval --fn F --x 1/3 --bogus 1",
        "eval --x 1/3",
        "eval --fn zz --x 1",
        "eval --fn F --x",
        "eval --fn F --x=--",
        "eval --fn F --x 1/3 extra",
        f"eval --fn F --x 1/3 --K {LONG_NUMBER}",
        "intervals --window 0 1",
        "intervals --window=0",
        "verify --count 2 all",
        "verify",
    ],
)
def test_the_reader_leaves_help_abbreviations_and_errors_to_argparse(argv: str) -> None:
    command, *rest = argv.split()
    assert cli._read(command, rest) is None


@pytest.mark.parametrize(
    "argv",
    [
        "eval --fn F --x=-1/3 --K 60",
        "eval --fn=G --x 0.25 --k 2 --k=3",
        "sample --fn f --count \u0665 --a=-1/2 --format json",
        "intervals --k 2 --format=json",
        "integrate --k 1 --upto=",
        "verify all --seed=5 --delta 1/7 --count +5",
    ],
)
def test_the_reader_parses_canonical_argv_as_argparse_does(argv: str) -> None:
    command, *rest = argv.split()
    read = cli._read(command, rest)
    assert read is not None
    assert cli._shared_parser(command).parse_known_args(rest) == (read, [])
