"""Command-line interface: evaluate, sample, list cells, integrate, verify.

All numeric input is exact: arguments accept lowest-terms fractions ("7/10",
"-1/3") or terminating decimals ("0.25"), never binary floats.  All numeric
output is emitted as exact fraction strings.  Given identical arguments
(seed included) every command produces byte-identical output: no
timestamps, no environment lookups, keys sorted.

Exit codes: 0 success (and all verifications passed), 1 at least one
verification failed, 2 usage or domain error (a suite with no cases, an
unwritable --out, a stdout closed before the output was complete and a
too-large cell enumeration included).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence, TextIO

from sawcascade.antiderivative import (
    enclose_integral,
    eval_F,
    eval_Fk,
    eval_G,
)
from sawcascade.cells import iter_cells
from sawcascade.construction import (  # re-exports MAX_LAYER_INDEX and require_layer_index
    MAX_LAYER_INDEX,
    ZERO,
    Certified,
    DomainError,
    Rat,
    eval_f,
    eval_f1,
    eval_fk,
    eval_g,
    require_at_least,
    require_layer_index,
)
from sawcascade.reports import WitnessReport, document_chunks, rat_str, report_to_dict
from sawcascade.suites import SUITE_ORDER, SuiteConfig, run_suite_reports

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2

#: Every evaluable function by --fn name, as (x, k, K) -> Certified: the
#: layer functions read the index k, the series the truncation K.
POINT_FUNCTIONS: dict[str, Callable[[Rat, int, int], Certified]] = {
    "f1": lambda x, k, K: Certified(eval_f1(x), ZERO),
    "fk": lambda x, k, K: Certified(eval_fk(x, k), ZERO),
    "f": lambda x, k, K: eval_f(x, K),
    "g": lambda x, k, K: eval_g(x, K),
    "Fk": lambda x, k, K: Certified(eval_Fk(x, k), ZERO),
    "F": lambda x, k, K: eval_F(x, K),
    "G": lambda x, k, K: eval_G(x, K),
}


def parse_rational(text: str) -> Rat:
    """Exact rational from 'p/q' or a terminating decimal string."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"not an exact rational: {text!r}") from exc


@dataclasses.dataclass(frozen=True)
class SampleConfig:
    fn: str
    a: Rat
    b: Rat
    count: int
    k: int
    K: int
    fmt: str


def _evaluate(fn: str, x: Rat, k: int, K: int) -> Certified:
    """Uniform certified view of every evaluable function."""
    require_layer_index("--k", k)
    require_layer_index("--K", K)
    if fn not in POINT_FUNCTIONS:
        raise DomainError(f"unknown function {fn!r}")
    return POINT_FUNCTIONS[fn](x, k, K)


def _json_line(value: object, keys: Sequence[str]) -> str:
    """The exact rationals ``value.<key>`` as one line of JSON."""
    return json.dumps({key: rat_str(getattr(value, key)) for key in keys}, sort_keys=True) + "\n"


def emit_samples(cfg: SampleConfig) -> str:
    """Render evenly spaced certified samples as CSV or JSON text."""
    require_at_least(cfg.count, 1, "count")
    if cfg.a > cfg.b:
        raise DomainError(f"need a <= b, got a={cfg.a}, b={cfg.b}")
    step = (cfg.b - cfg.a) / max(cfg.count - 1, 1)
    xs = [cfg.a + step * i for i in range(cfg.count)]
    rows = [(x, _evaluate(cfg.fn, x, cfg.k, cfg.K)) for x in xs]
    if cfg.fmt == "csv":
        lines = ["x,center,radius,exact"]
        for x, enc in rows:
            lines.append(
                f"{rat_str(x)},{rat_str(enc.center)},{rat_str(enc.radius)},"
                f"{'true' if enc.exact else 'false'}"
            )
        return "\n".join(lines) + "\n"
    payload = [
        {
            "x": rat_str(x),
            "center": rat_str(enc.center),
            "radius": rat_str(enc.radius),
            "exact": enc.exact,
        }
        for x, enc in rows
    ]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_intervals(k: int, index_budget: int, window: tuple[Rat, Rat], fmt: str) -> str:
    """Render the level-k cells meeting the window, in spatial order."""
    frontier = [c for c in iter_cells(k, index_budget, window) if c.level == k]
    frontier.sort(key=lambda c: (c.lo, c.hi))
    fields = ("lo", "hi", "slope", "intercept")
    rows = [(c.address, [rat_str(getattr(c, f)) for f in fields]) for c in frontier]
    if fmt == "csv":
        lines = ["address," + ",".join(fields)]
        lines += [";".join(map(str, address)) + "," + ",".join(v) for address, v in rows]
        return "\n".join(lines) + "\n"
    payload = [{"address": list(address), **dict(zip(fields, v))} for address, v in rows]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _verification(name: str, cfg: SuiteConfig) -> tuple[dict, Iterator[WitnessReport]]:
    """The envelope of a verification document (everything but its cases)
    and its reports, each certified when it is drawn.

    Every refusal is raised here, before the first report.  The envelope's
    summary counts the verdicts as the reports are drawn, so it is whole
    once the last one has been.
    """
    reports = run_suite_reports(name, cfg)
    summary = {"pass": 0, "fail": 0}

    def tallied() -> Iterator[WitnessReport]:
        for report in reports:
            summary["pass" if report.verdict else "fail"] += 1
            yield report

    # every setting but the seed, which has its own key
    parameters = {**dataclasses.asdict(cfg), "delta": rat_str(cfg.delta)}
    envelope = {
        "suite": name,
        "seed": parameters.pop("seed"),
        "parameters": parameters,
        "summary": summary,
    }
    return envelope, tallied()


def run_suite(name: str, cfg: SuiteConfig) -> dict:
    """Full JSON-ready verification report for one suite (or 'all'): the
    dict view of the document ``verify`` writes."""
    envelope, reports = _verification(name, cfg)
    cases = [report_to_dict(r) for r in reports]
    return {**envelope, "cases": cases}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sawcascade",
        description=(
            "Exact evaluation and certified verification of the sawtooth "
            "cascade series, its signed variant, and their antiderivatives."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="write output to this file instead of stdout")

    p_eval = sub.add_parser("eval", help="evaluate one function at one point")
    p_eval.add_argument("--fn", choices=POINT_FUNCTIONS, required=True)
    p_eval.add_argument("--x", required=True, help="rational point, e.g. 7/10 or 0.25")
    p_eval.add_argument("--k", type=int, default=1, help="iterate/layer index for fk and Fk")
    p_eval.add_argument("--K", type=int, default=30, help="series truncation depth")
    add_out(p_eval)

    p_sample = sub.add_parser("sample", help="evenly spaced certified samples")
    p_sample.add_argument("--fn", choices=POINT_FUNCTIONS, required=True)
    p_sample.add_argument("--a", default="-1", help="left end of the range")
    p_sample.add_argument("--b", default="1", help="right end of the range")
    p_sample.add_argument("--count", type=int, default=101)
    p_sample.add_argument("--k", type=int, default=1)
    p_sample.add_argument("--K", type=int, default=30)
    p_sample.add_argument("--format", choices=("csv", "json"), default="csv")
    add_out(p_sample)

    p_intervals = sub.add_parser("intervals", help="list linearity cells of a level")
    p_intervals.add_argument("--k", type=int, default=1, help="cell level")
    p_intervals.add_argument("--index-budget", type=int, default=10)
    p_intervals.add_argument("--window", nargs=2, default=["-1", "1"],
                             metavar=("LO", "HI"))
    p_intervals.add_argument("--format", choices=("csv", "json"), default="csv")
    add_out(p_intervals)

    p_integrate = sub.add_parser(
        "integrate", help="certified enclosure of a layer integral from -1"
    )
    p_integrate.add_argument("--k", type=int, required=True, help="layer index")
    p_integrate.add_argument("--upto", default="1", help="upper limit in [-1, 1]")
    p_integrate.add_argument("--index-budget", type=int, default=50)
    add_out(p_integrate)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITE_ORDER)
    for setting in dataclasses.fields(SuiteConfig):
        # a rational setting stays text, which run parses with parse_rational
        rational = isinstance(setting.default, Fraction)
        p_verify.add_argument(
            "--" + setting.name.replace("_", "-"),
            type=str if rational else int,
            default=str(setting.default) if rational else setting.default,
            help=setting.metadata.get("help"),
        )
    add_out(p_verify)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every ``run`` call reuses, built on the first call rather
    than at import.  Parsing leaves no state in it: each call gets a fresh
    namespace."""
    return build_parser()


@contextmanager
def _all_digits() -> Iterator[None]:
    """Lift Python's int/str digit limit while exact output is rendered.

    The limit (4300 digits by default) guards the parsing of untrusted
    text, which happens before this; an exact center computed here may have
    more digits.  The previous limit is restored on every exit.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # Python without the limit
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def _write(chunks: Iterable[str], out: Optional[str], stdout: TextIO) -> None:
    """Write the output, piece by piece, to stdout or to the --out file.

    Pieces are at most 64 KiB: when the reader of a pipe leaves during one
    large write, the write ends short and the text layer passes over that
    silently; the next piece then raises BrokenPipeError.

    The --out file is written to a temporary file beside it, which replaces
    it (keeping the old file's mode) only once the output is complete, so
    an error leaves the target as it was and no temporary file.  A target
    that exists but is no regular file (a device such as /dev/stdout, or a
    pipe) cannot be replaced and is written in place.
    """
    if out is None:
        stdout.writelines(c[i:i + 65536] for c in chunks for i in range(0, len(c), 65536))
        return
    target = os.path.realpath(out)
    in_place = os.path.exists(target) and not os.path.isfile(target)
    head, name = os.path.split(target)
    temp = target if in_place else os.path.join(head, f".{name}.{os.urandom(6).hex()}.tmp")
    created = False
    try:
        with open(temp, "w" if in_place else "x", encoding="utf-8") as handle:
            created = not in_place
            handle.writelines(chunks)
        if created:
            if os.path.exists(target):
                os.chmod(temp, os.stat(target).st_mode & 0o7777)
            os.replace(temp, target)
            created = False
    except OSError as exc:
        # named after the target, not the temporary file
        message = f"[Errno {exc.errno}] {exc.strerror}: {out!r}"
        raise DomainError(f"cannot write --out: {message}") from exc
    finally:
        if created:  # the output is incomplete
            os.remove(temp)


def run(
    argv: Sequence[str],
    stdout: TextIO = sys.stdout,
    stderr: TextIO = sys.stderr,
) -> int:
    """Execute one CLI invocation; returns the exit code.

    Usage errors and --help go to the given streams, like all other output.
    """
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            args = _shared_parser().parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "verify":
            # the parser leaves a rational setting as text
            cfg = SuiteConfig(**{
                f.name: parse_rational(value) if isinstance(value, str) else value
                for f in dataclasses.fields(SuiteConfig)
                for value in [getattr(args, f.name)]
            })
            # every refusal is raised before the first byte is written; each
            # case is then written as it is certified, and let go
            with _all_digits():
                envelope, reports = _verification(args.suite, cfg)
                _write(document_chunks(envelope, reports), args.out, stdout)
            summary = envelope["summary"]
            stderr.write(
                f"suite {args.suite}: {summary['pass']} passed, "
                f"{summary['fail']} failed\n"
            )
            return EXIT_OK if summary["fail"] == 0 else EXIT_VERIFICATION_FAILED
        # the other commands write one text each: their arguments are parsed
        # here, under the digit limit, and only render runs with it lifted
        render: Callable[[], str]
        if args.command == "eval":
            enc = _evaluate(args.fn, parse_rational(args.x), args.k, args.K)
            render = functools.partial(_json_line, enc, ("center", "radius"))
        elif args.command == "sample":
            a, b = parse_rational(args.a), parse_rational(args.b)
            sample = SampleConfig(args.fn, a, b, args.count, args.k, args.K, args.format)
            render = functools.partial(emit_samples, sample)
        elif args.command == "intervals":
            window = (parse_rational(args.window[0]), parse_rational(args.window[1]))
            render = functools.partial(render_intervals, require_layer_index("--k", args.k),
                                       args.index_budget, window, args.format)
        else:  # integrate
            upto = parse_rational(args.upto)
            enc = enclose_integral(require_layer_index("--k", args.k), upto, args.index_budget)
            render = functools.partial(_json_line, enc, ("lower", "upper", "width"))
        with _all_digits():
            text = render()
        _write([text], args.out, stdout)
        return EXIT_OK
    except (ValueError, KeyError) as exc:  # DomainError included
        stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (say `| head`); devnull takes the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.stderr.write("error: stdout closed before the output was complete\n")
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    main()
