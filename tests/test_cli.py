"""End-to-end tests of the command-line interface via the in-process runner.

Everything runs through ``run(argv)`` so the tests see the same code path as
the installed script, including exit codes and output streams.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
from fractions import Fraction as F

import pytest

from sawcascade.cli import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION_FAILED,
    SampleConfig,
    emit_samples,
    parse_rational,
    run,
    run_suite,
)
from sawcascade.construction import DomainError, eval_f1
from sawcascade.suites import SuiteConfig


def invoke(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------


def test_parse_rational_fraction_and_decimal() -> None:
    assert parse_rational("7/10") == F(7, 10)
    assert parse_rational("-1/3") == F(-1, 3)
    assert parse_rational("0.25") == F(1, 4)
    assert parse_rational(" 1 ") == F(1)


def test_parse_rational_rejects_garbage() -> None:
    with pytest.raises(DomainError):
        parse_rational("pi")
    with pytest.raises(DomainError):
        parse_rational("1/0")


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
    cfg = SampleConfig(fn="f1", a=F(-1), b=F(1), count=9, k=1, K=30, fmt="csv")
    lines = emit_samples(cfg).strip().splitlines()
    xs = [F(line.split(",")[0]) for line in lines[1:]]
    assert xs == [F(-1) + F(1, 4) * i for i in range(9)]
    for line, x in zip(lines[1:], xs):
        assert F(line.split(",")[1]) == eval_f1(x)


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
        ["verify", "darboux", "--K", "8", "--cells-budget", "20",
         "--out", str(target)]
    )
    assert code == EXIT_OK
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["summary"]["fail"] == 0


def _assert_one_line_usage_error(code: int, out: str, err: str) -> None:
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_unwritable_out_is_usage_error(tmp_path) -> None:
    target = tmp_path / "missing" / "x.json"
    code, out, err = invoke(["eval", "--fn", "f", "--x", "1/3", "--out", str(target)])
    _assert_one_line_usage_error(code, out, err)
    assert "cannot write" in err
    assert not target.exists()


def test_verify_max_level_guard_refuses_before_enumerating() -> None:
    start = time.perf_counter()
    code, out, err = invoke(["verify", "oscillation", "--max-level", "20"])
    assert time.perf_counter() - start < 5
    _assert_one_line_usage_error(code, out, err)
    assert "too large" in err


#: Full sha256 of stdout for cheap calls that cross every bulk cell
#: enumeration, both integral enclosures and the endpoint fan: identical
#: arguments must keep producing identical bytes.
PINNED_STDOUT = {
    "verify all --max-level 3 --count 4 --index-budget 2 --n-max 3":
        "980ee33aedca024e5e494b3278235e2bcbf2a84ad9d11c2679f6d491cfa874d4",
    "verify structure":
        "7503136c790c1e54959747ef595f8331d52d6d2b9d4aa18e108c0c26bc848583",
    "verify darboux":
        "f6d10ca51b93ed92f4a01a68812b416b242b10c55bb7de524959cc1a985c8a4a",
    "verify integral-crosscheck":
        "da2d56a393c59e5f098ef1a31e0edbb0f918561ae044dda530dde661b0a4f815",
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
}


@pytest.mark.parametrize("command", sorted(PINNED_STDOUT))
def test_stdout_matches_pinned_digest(command: str) -> None:
    code, out, _ = invoke(command.split())
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_STDOUT[command]


def test_run_suite_report_shape() -> None:
    cfg = SuiteConfig(count=2, structure_max_level=1)
    report = run_suite("structure", cfg)
    assert report["suite"] == "structure"
    assert report["parameters"]["index_budget"] == 50
    assert report["parameters"]["delta"] == "1/1000"
    assert report["summary"]["pass"] == len(report["cases"])


def test_run_suite_all_concatenates(capsys: pytest.CaptureFixture) -> None:
    cfg = SuiteConfig(
        count=2, max_level=2, n_max=3, structure_max_level=1, cells_budget=12, K=8
    )
    report = run_suite("all", cfg)
    kinds = {case["kind"] for case in report["cases"]}
    assert {"structure", "oscillation", "local_min", "quotient_bound"} <= kinds
    assert report["summary"]["fail"] == 0


def test_missing_subcommand_is_usage_error(capsys: pytest.CaptureFixture) -> None:
    code, _, _ = invoke([])
    capsys.readouterr()
    assert code == EXIT_USAGE
