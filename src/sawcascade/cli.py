"""Command-line interface: evaluate, sample, list cells, integrate, verify.

All numeric input is exact: arguments accept lowest-terms fractions ("7/10",
"-1/3") or terminating decimals ("0.25"), read by ``as_rational``, never
binary floats.  All numeric output is emitted as exact fraction strings.
Given identical arguments (seed included) every command produces
byte-identical output: no timestamps, no environment lookups, keys sorted.
Every command refuses before its first byte, then renders as it writes.

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
import operator
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
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
    as_rational,
    eval_f,
    eval_f1,
    eval_fk,
    eval_g,
    require_at_least,
    require_layer_index,
)
from sawcascade.reports import WitnessReport, document_chunks, report_to_dict
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


def _evaluate(fn: str, x: Rat, k: int, K: int) -> Certified:
    """Uniform certified view of every evaluable function."""
    require_layer_index("--k", k)
    require_layer_index("--K", K)
    if fn not in POINT_FUNCTIONS:
        raise DomainError(f"unknown function {fn!r}")
    return POINT_FUNCTIONS[fn](x, k, K)


@functools.cache
def _line_template(keys: tuple[str, ...]) -> tuple[str, Callable[[object], tuple]]:
    """The %-template of ``_json_line`` for ``keys`` and the getter of its
    values, both in sorted key order."""
    keys = sorted(keys)
    return "{" + ", ".join(f'"{key}": "%s"' for key in keys) + "}\n", operator.attrgetter(*keys)


def _json_line(value: object, keys: tuple[str, ...]) -> Iterator[str]:
    """The exact rationals ``value.<key>`` as one line of JSON: the text of
    ``json.dumps(..., sort_keys=True)``, since neither a key nor a rational's
    text needs escaping.  The line is rendered when it is drawn, so under
    the digit limit ``_write`` lifts."""
    template, values = _line_template(keys)
    return map(template.__mod__, [values(value)])


def _table(fields: Sequence[str], rows: Iterable[Sequence[object]], fmt: str) -> Iterator[str]:
    """The rows, one value per field and one row per chunk, as CSV under a
    header line (an address joined by ';', a bool as true/false) or as the
    text of ``json.dumps(<list of objects>, indent=2, sort_keys=True)``."""
    if fmt == "csv":
        def text(value: object) -> str:
            if isinstance(value, list):
                return ";".join(map(str, value))
            return json.dumps(value) if isinstance(value, bool) else str(value)
        yield ",".join(fields) + "\n"
        yield from (",".join(map(text, row)) + "\n" for row in rows)
        return
    encode = json.JSONEncoder().encode  # a string, number or bool: one line at any depth

    def json_text(value: object) -> str:
        if isinstance(value, list):  # an address of ints, one a line at depth 3
            return ("[\n      " + ",\n      ".join(map(str, value)) + "\n    ]") if value else "[]"
        return encode(value)

    keys = sorted(range(len(fields)), key=fields.__getitem__)  # in the order of sort_keys
    opener = "[\n  {\n    "
    for row in rows:
        yield opener + ",\n    ".join(f'"{fields[i]}": {json_text(row[i])}' for i in keys) + "\n  }"
        opener = ",\n  {\n    "
    yield "[]\n" if opener.startswith("[") else "\n]\n"


def emit_samples(fn: str, a: Rat, b: Rat, count: int, k: int, K: int, fmt: str) -> Iterator[str]:
    """Evenly spaced certified samples as CSV or JSON text, one row per chunk."""
    require_at_least(count, 1, "count")
    if a > b:
        raise DomainError(f"need a <= b, got a={a}, b={b}")
    step = (b - a) / max(count - 1, 1)
    # what refuses a row refuses the first or the last, kept as their rows
    ends = {i: _evaluate(fn, a + step * i, k, K) for i in sorted({0, count - 1})}
    rows = (
        (str(x), str(enc.center), str(enc.radius), enc.exact)
        for i in range(count) for x in [a + step * i]
        for enc in [ends[i] if i in ends else _evaluate(fn, x, k, K)]
    )
    return _table(("x", "center", "radius", "exact"), rows, fmt)


def render_intervals(k: int, index_budget: int, window: tuple[Rat, Rat], fmt: str) -> Iterator[str]:
    """The level-k cells meeting the window, in spatial order, one row per chunk."""
    rows = (
        [list(c.address), str(c.lo), str(c.hi), str(c.slope), str(c.intercept)]
        for c in iter_cells(k, index_budget, window) if c.level == k
    )
    return _table(("address", "lo", "hi", "slope", "intercept"), rows, fmt)


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
    parameters = {**dataclasses.asdict(cfg), "delta": str(cfg.delta)}
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


def _add_eval_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fn", choices=POINT_FUNCTIONS, required=True)
    p.add_argument("--x", required=True, help="rational point, e.g. 7/10 or 0.25")
    p.add_argument("--k", type=int, default=1, help="iterate/layer index for fk and Fk")
    p.add_argument("--K", type=int, default=30, help="series truncation depth")


def _add_sample_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fn", choices=POINT_FUNCTIONS, required=True)
    p.add_argument("--a", default="-1", help="left end of the range")
    p.add_argument("--b", default="1", help="right end of the range")
    p.add_argument("--count", type=int, default=101)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--K", type=int, default=30)
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_intervals_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=1, help="cell level")
    p.add_argument("--index-budget", type=int, default=10)
    p.add_argument("--window", nargs=2, default=["-1", "1"], metavar=("LO", "HI"))
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_integrate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True, help="layer index")
    p.add_argument("--upto", default="1", help="upper limit in [-1, 1]")
    p.add_argument("--index-budget", type=int, default=50)


def _add_verify_arguments(p: argparse.ArgumentParser) -> None:
    # a metavar, since argparse never breaks the {a,b,...} of a choices list
    p.add_argument("suite", choices=SUITE_ORDER, metavar="SUITE",
                   help=f"{', '.join(SUITE_ORDER)}: the suite to run")
    for setting in dataclasses.fields(SuiteConfig):
        # a rational setting (delta) stays text, which run parses with as_rational
        rational = isinstance(setting.default, Fraction)
        p.add_argument(
            "--" + setting.name.replace("_", "-"),
            type=str if rational else int,
            default=str(setting.default) if rational else setting.default,
            help=setting.metadata.get("help"),
        )


#: Every command by name, as (help, function adding its arguments but --out).
COMMANDS: dict[str, tuple[str, Callable[[argparse.ArgumentParser], None]]] = {
    "eval": ("evaluate one function at one point", _add_eval_arguments),
    "sample": ("evenly spaced certified samples", _add_sample_arguments),
    "intervals": ("list linearity cells of a level", _add_intervals_arguments),
    "integrate": ("certified enclosure of a layer integral from -1", _add_integrate_arguments),
    "verify": ("run a verification suite", _add_verify_arguments),
}


#: Help and usage text wrap at 78 columns whatever the terminal: argparse
#: would otherwise read the width from COLUMNS or the terminal.
_FORMATTER = functools.partial(argparse.HelpFormatter, width=78)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every command, or ``command``'s own: it parses what
    follows the command name and prints what the full parser's would."""
    if command is None:
        parser = argparse.ArgumentParser(
            prog="sawcascade",
            formatter_class=_FORMATTER,
            description=(
                "Exact evaluation and certified verification of the sawtooth "
                "cascade series, its signed variant, and their antiderivatives."
            ),
        )
        sub = parser.add_subparsers(dest="command", required=True)
        parsers = {name: sub.add_parser(name, help=help_text, formatter_class=_FORMATTER)
                   for name, (help_text, _) in COMMANDS.items()}
    else:
        parser = argparse.ArgumentParser(prog="sawcascade " + command, formatter_class=_FORMATTER)
        parsers = {command: parser}
    for name, p in parsers.items():
        _add_arguments(name, p)
    return parser


def _add_arguments(command: str, p: argparse.ArgumentParser) -> None:
    """Declare ``command``'s arguments, --out included, to ``p``."""
    COMMANDS[command][1](p)
    p.add_argument("--out", help="write output to this file instead of stdout")


@functools.cache
def _shared_parser(command: Optional[str]) -> argparse.ArgumentParser:
    """The parser ``run`` reuses for what ``_read`` leaves: ``command``'s own
    (one of COMMANDS), or the full parser (None) for an argv with no command
    or unrecognized arguments.

    Each is built on its first use rather than at import, so a program that
    passes only canonical arguments builds none.  Parsing leaves no state in
    a parser: each call gets a fresh namespace.
    """
    return build_parser(command)


class _Recorder(list):
    """Stands in for a parser: keeps what each add_argument is given."""

    def add_argument(self, *flags: str, **kwargs: object) -> None:
        self.append((flags, kwargs))


@functools.cache
def _declared(command: str) -> tuple:
    """``command``'s arguments as ``_read`` takes them: its positional as
    (dest, type, choices) or None, each flag but a nargs one by name as
    (dest, type, choices), the dests of the required flags, and every
    default as argparse fills it in (a str default through its type).
    Each argument is declared with one name."""
    recorder = _Recorder()
    _add_arguments(command, recorder)
    positional, options, required, defaults = None, {}, set(), {}
    for (name,), kwargs in recorder:
        spec = (name.lstrip("-").replace("-", "_"), kwargs.get("type", str), kwargs.get("choices"))
        if not name.startswith("-"):
            positional = spec
        elif "nargs" not in kwargs:
            options[name] = spec
        if kwargs.get("required"):
            required.add(spec[0])
        default = kwargs.get("default")
        defaults[spec[0]] = spec[1](default) if isinstance(default, str) else default
    return positional, options, required, defaults


def _read(command: str, argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """What ``command``'s parser parses from ``argv`` when ``argv`` is in
    canonical form, read straight from the declarations; None otherwise,
    and argparse then parses it, refuses it or prints help.

    Canonical: the positional first when one is declared, then only
    ``--name=value`` and ``--name value`` (the value not "-"-leading), each
    name a full declared flag of one value, each value one its type takes
    and its choices hold, every required flag given; a repeat wins.
    """
    positional, options, required, defaults = _declared(command)
    texts = []
    if positional is not None:
        if not argv or argv[0][:1] == "-":
            return None
        texts.append((positional, argv[0]))
    i = len(texts)  # past the positional
    while i < len(argv):
        name, eq, text = argv[i].partition("=")
        i += 1
        if not eq:
            if i == len(argv) or argv[i][:1] == "-":  # dangling, or a "-"-leading value
                return None
            text = argv[i]
            i += 1
        # argparse strips a "--" value to an empty list
        if name not in options or text == "--":
            return None
        texts.append((options[name], text))
    values = {}
    for (dest, convert, choices), text in texts:
        try:
            value = convert(text)
        except ValueError:  # an int past the digit limit included
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if not required.issubset(values):
        return None
    args = argparse.Namespace()
    vars(args).update(defaults, **values)
    return args


class _all_digits:
    """Lift Python's int/str digit limit while exact output is rendered.

    The limit (4300 digits by default) guards the parsing of untrusted
    text, which happens before this; an exact center computed here may have
    more digits.  The previous limit is restored on every exit.
    """

    limited = hasattr(sys, "set_int_max_str_digits")  # Python without the limit has none

    def __enter__(self) -> None:
        if self.limited:
            self.previous = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)

    def __exit__(self, *exc_info: object) -> None:
        if self.limited:
            sys.set_int_max_str_digits(self.previous)


def _write(chunks: Iterable[str], out: Optional[str], stdout: TextIO) -> None:
    """Write the output, piece by piece, to stdout or to the --out file: the
    one output path, which renders each chunk as it draws it, so every
    refusal is made before the call.

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
        write = stdout.write
        for chunk in chunks:
            if len(chunk) <= 65536:
                write(chunk)
            else:
                for i in range(0, len(chunk), 65536):
                    write(chunk[i:i + 65536])
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
    """Execute one CLI invocation; returns the exit code.  What follows a
    command name is read from its declarations when it is canonical, and
    is otherwise parsed by that command's own parser.  Usage errors and
    --help go to the given streams, like all other output.
    """
    argv = list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = None if command is None else _read(command, argv[1:])
    if args is None:  # no command, help, an abbreviation, a "-"-leading value or an error
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                if command is None:  # --help, or an error of the full parser
                    args = _shared_parser(None).parse_args(argv)
                    command = args.command
                else:
                    args, extra = _shared_parser(command).parse_known_args(argv[1:])
                    if extra:  # the full parser reports what a command's parser leaves
                        _shared_parser(None).error(f"unrecognized arguments: {' '.join(extra)}")
        except SystemExit as exc:
            return int(exc.code or 0)
        # argparse strips a "--" value to an empty list, which no flag of one value takes
        _, options, _, _ = _declared(command)
        for name, (dest, _, _) in options.items():
            if getattr(args, dest) == []:
                stderr.write(f"error: argument {name}: expected one value, got '--'\n")
                return EXIT_USAGE
    try:
        # every refusal is raised here, before the first byte; the arguments
        # are parsed under the digit limit, lifted only to render the output
        if command == "verify":
            # the parser leaves delta, the one rational setting, as text
            settings = {f.name: getattr(args, f.name) for f in dataclasses.fields(SuiteConfig)}
            cfg = SuiteConfig(**{**settings, "delta": as_rational(args.delta)})
            with _all_digits():  # the envelope echoes str(delta)
                envelope, reports = _verification(args.suite, cfg)
            chunks = document_chunks(envelope, reports)
        elif command == "eval":
            enc = _evaluate(args.fn, as_rational(args.x), args.k, args.K)
            chunks = _json_line(enc, ("center", "radius"))
        elif command == "sample":
            chunks = emit_samples(args.fn, as_rational(args.a), as_rational(args.b),
                                  args.count, args.k, args.K, args.format)
        elif command == "intervals":
            window = (as_rational(args.window[0]), as_rational(args.window[1]))
            chunks = render_intervals(require_layer_index("--k", args.k),
                                      args.index_budget, window, args.format)
        else:  # integrate
            upto = as_rational(args.upto)
            enc = enclose_integral(require_layer_index("--k", args.k), upto, args.index_budget)
            chunks = _json_line(enc, ("lower", "upper", "width"))
        with _all_digits():
            _write(chunks, args.out, stdout)
        if command != "verify":
            return EXIT_OK
        summary = envelope["summary"]
        stderr.write(
            f"suite {args.suite}: {summary['pass']} passed, "
            f"{summary['fail']} failed\n"
        )
        return EXIT_OK if summary["fail"] == 0 else EXIT_VERIFICATION_FAILED
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
