"""sawcascade benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

``--trace 0`` sets the program up several times (median ``setup_s``), then
runs timed units of work, each on a freshly imported program, until the
next unit would overrun ``--seconds`` (at least one unit runs), checks every
output and prints the end-to-end metrics.  Workloads whose units repeat
identical work (``best_of_two``) run each unit twice in a row and keep the
lesser time of the unit and of each item, which removes most bursts of
interference from other processes on the machine.  Times are scaled to a
nominal machine speed by a standard-library reference computation timed
between units (``reference_s``); the unscaled figures are recorded too.  ``--trace 1`` runs one fixed unit of work three times on fresh
imports: untraced, traced through the layers (per-layer self times and
spans), and with ``Fraction.__new__`` counted, then prints the per-layer
metrics.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Exit codes: 0 all gates passed, 1 a gate failed, 2 bad usage or no program.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

from bench_trace import LAYERS, FractionCounter, Tracer  # noqa: E402
from bench_workloads import (  # noqa: E402
    EvalPoints,
    Pass,
    Replay,
    Verdict,
    VerifyAll,
    NOMINAL_REFERENCE_S,
    nominal_scale,
    rational_bits,
    reference_s,
)

WORKLOADS = ("verify-all", "eval-points", "replay")

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_p99_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)

SUITE_FUNCTIONS = (
    ("structure", "suite_structure"),
    ("oscillation", "suite_oscillation"),
    ("no-extrema", "suite_no_extrema"),
    ("nowhere-monotone", "suite_nowhere_monotone"),
    ("local-min", "suite_local_min"),
    ("quotient-bound", "suite_quotient_bound"),
    ("integral-crosscheck", "suite_integral_crosscheck"),
    ("darboux", "suite_darboux"),
)

WITNESSES = (
    "oscillation_witness", "non_extremum_witness", "non_monotone_witness",
    "local_min_check", "structure_check", "integral_crosscheck",
)

#: Reduced settings for the self-test's tiny runs.
TINY_VERIFY_ARGS = ["--max-level", "3", "--count", "4", "--index-budget", "2", "--n-max", "3"]


def _calls_and_self(layer: str, names: tuple[str, ...]) -> list[tuple[str, str]]:
    rows = []
    for name in names:
        rows += [(f"{layer}.{name}.calls", "count"), (f"{layer}.{name}.self_s", "s")]
    return rows


PER_LAYER: tuple[tuple[str, str], ...] = tuple(
    [
        ("construction.eval_f1.calls", "count"),
        ("construction.orbit.calls", "count"),
        ("construction.orbit.steps", "count"),
        ("construction.orbit.absorbed_share", "ratio"),
        *_calls_and_self("construction", ("partial_sum", "eval_fk", "eval_f")),
        ("construction.self_s", "s"),
        ("fractions.new.calls", "count"),
        *_calls_and_self("cells", ("child_cell", "cell", "locate", "first_level_of")),
        ("cells.level1_cell.hit_ratio", "ratio"),
        ("cells.self_s", "s"),
        *_calls_and_self("antiderivative", ("eval_Fk", "eval_F", "eval_G", "enclose_integral")),
        ("antiderivative.self_s", "s"),
        *_calls_and_self("verifier", WITNESSES),
        ("verifier.self_s", "s"),
        ("verifier.fan_children.calls", "count"),
        ("verifier.fan_headroom_min", "ratio"),
        *_calls_and_self("reports", ("make_report", "report_to_dict")),
        ("reports.checks.count", "count"),
        *_calls_and_self("reports", ("report_from_dict", "recheck")),
        ("reports.cert_bits_max", "bits"),
        ("reports.cert_bits_p50", "bits"),
        ("reports.self_s", "s"),
    ]
    + [row for suite, _ in SUITE_FUNCTIONS
       for row in ((f"suites.{suite}.time_s", "s"), (f"suites.{suite}.cases", "count"))]
    + [
        ("suites.tapered_endpoints.self_s", "s"),
        ("suites.self_s", "s"),
        *_calls_and_self("cli", ("run", "build_parser")),
        ("cli.output_bytes", "bytes"),
        ("cli.self_s", "s"),
        ("bench.self_s", "s"),
        ("trace.run_s", "s"),
        ("trace.untraced_run_s", "s"),
        ("trace.overhead", "ratio"),
        ("trace.top_layer_share", "ratio"),
    ]
)


class UsageError(Exception):
    """Bad arguments or no program to measure: exit 2 without a result."""


# ---------------------------------------------------------------------------
# the program under test
# ---------------------------------------------------------------------------


def load_program() -> SimpleNamespace:
    """Import sawcascade afresh from this checkout's ``src``.

    Every earlier import is dropped first, so module-level caches start
    empty, as in a new process.
    """
    if not (SRC / "sawcascade" / "__init__.py").is_file():
        raise UsageError(f"no program source at {SRC.relative_to(ROOT)}/sawcascade")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n.split(".")[0] == "sawcascade"]:
        del sys.modules[name]
    importlib.import_module("sawcascade")
    modules = {layer: importlib.import_module(f"sawcascade.{layer}") for layer in LAYERS}
    origin = Path(modules["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise UsageError(f"sawcascade was imported from {origin}, not from this checkout")
    return SimpleNamespace(modules=modules, **modules)


def make_workload(name: str, tiny: bool) -> Any:
    if name == "verify-all":
        return VerifyAll(TINY_VERIFY_ARGS if tiny else [])
    if name == "eval-points":
        return EvalPoints(tiny)
    if name == "replay":
        return Replay(OUT_DIR, TINY_VERIFY_ARGS if tiny else None)
    raise UsageError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def add_verdict(total: Verdict, verdict: Verdict) -> None:
    total.attempted += verdict.attempted
    total.failed += verdict.failed
    total.notes += verdict.notes[:20 - len(total.notes)]


def check_all(workload: Any, program: Any, inputs: dict, passes: list[Pass]) -> Verdict:
    """Run the workload's gates on every pass."""
    total = Verdict(0, 0)
    for done in passes:
        add_verdict(total, workload.check(program, inputs, done))
    return total


def is_correct(verdict: Verdict) -> bool:
    """Every gate passed on at least one item; zero items attempted fails."""
    return verdict.failed == 0 and verdict.attempted > 0


# ---------------------------------------------------------------------------
# timed run: end-to-end metrics
# ---------------------------------------------------------------------------


def timed_run(workload: Any, seed: int, seconds: float) -> tuple[Verdict, dict, dict]:
    """Timed units until ``seconds`` is spent; see the module docstring.

    Every time is scaled to the nominal machine speed: it is multiplied by
    NOMINAL_REFERENCE_S over the reference time measured just before and
    just after it (their mean).  The unscaled figures go into the record.
    """
    setup_times, raw_setup = [], []
    inputs: Optional[dict] = None
    for _ in range(workload.setup_repeats):
        if inputs is not None:
            workload.cleanup(inputs)
        before = reference_s()
        t0 = time.perf_counter()
        program = load_program()
        inputs = workload.make_inputs(program, seed)
        took = time.perf_counter() - t0
        raw_setup.append(took)
        setup_times.append(took * nominal_scale(before, reference_s()))
    verdict = Verdict(0, 0)
    digests: list[str] = []
    items = array("d")
    unit_times: list[float] = []
    raw_unit_times: list[float] = []
    unit_walls: list[float] = []
    references = [reference_s()]
    try:
        units = workload.timed_units(inputs)
        started = time.perf_counter()
        while True:
            unit = next(units)
            wall = time.perf_counter()
            timings, passes = [], []
            for _ in range(2 if workload.best_of_two else 1):
                program = load_program()
                gc.collect()  # the previous program's modules are garbage now
                t0 = time.perf_counter()
                done = workload.run(program, inputs, unit, stamps=True)
                took = time.perf_counter() - t0
                passes.append(done)
                if done.scaled_s is None:  # scale by the references around the unit
                    timings.append((took, took, done.item_s))
                else:
                    timings.append((done.raw_s, done.scaled_s, None))
            references.append(reference_s())
            unit_walls.append(time.perf_counter() - wall)
            if len(unit_walls) == 1:
                rss = peak_rss_mib()  # set-up plus one unit, before any check
            scale = nominal_scale(references[-2], references[-1])
            raw_unit_times.append(min(raw for raw, _, _ in timings))
            unit_times.append(min(scaled if item_s is None else scaled * scale
                                  for _, scaled, item_s in timings))
            per_pass = [done.item_s if item_s is None else [t * scale for t in item_s]
                        for done, (_, _, item_s) in zip(passes, timings)]
            items.extend(min(repeats) for repeats in zip(*per_pass))
            # check now and keep only the verdict, so what the run holds (and
            # the garbage collector walks) does not grow with its length
            add_verdict(verdict, check_all(workload, program, inputs, passes))
            digests += [workload.digest(inputs, done) for done in passes]
            del timings, passes, done
            elapsed = time.perf_counter() - started
            if elapsed + statistics.median(unit_walls) > seconds:
                break
        if workload.best_of_two and len(set(digests)) > 1:
            verdict.failed = max(verdict.failed, 1)
            verdict.notes.append("passes over the same input gave different outputs")
    finally:
        workload.cleanup(inputs)
    if not items:
        verdict.failed = max(verdict.failed, 1)
        verdict.notes.append("no items were timed")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "run_s": (statistics.median(unit_times), "s", len(unit_times)),
        "items_per_s": (len(items) / sum(unit_times), "1/s", len(items)),
        "item_p50_ms": (percentile(list(items), 50) * 1e3 if items else 0.0, "ms", len(items)),
        "item_p99_ms": (percentile(list(items), 99) * 1e3 if items else 0.0, "ms", len(items)),
        "peak_rss_mib": (rss, "MiB", 1),
    }
    record = {
        "output_sha256": digests[0],
        "passes": len(digests),
        "items": len(items),
        "failed_share": verdict.failed / verdict.attempted if verdict.attempted else 1.0,
        "unscaled_setup_s": statistics.median(raw_setup),
        "unscaled_run_s": statistics.median(raw_unit_times),
        "reference_s": statistics.median(references),
        "speed": NOMINAL_REFERENCE_S / statistics.median(references),
    }
    return verdict, metrics, record


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------


def traced_run(workload: Any, seed: int) -> tuple[Verdict, dict, dict]:
    program = load_program()
    inputs = workload.make_inputs(program, seed)
    try:
        unit = workload.trace_unit(inputs)

        program = load_program()
        gc.collect()
        t0 = time.perf_counter()
        plain = workload.run(program, inputs, unit)
        untraced_s = time.perf_counter() - t0

        program = load_program()
        gc.collect()
        tracer = Tracer()
        tracer.patch(program.modules)
        tracer.begin()
        try:
            traced = workload.run(program, inputs, unit, tracer=tracer)
        finally:
            tracer.end()
            tracer.unpatch()
        cache = program.cells.level1_cell.cache_info()

        program = load_program()
        with FractionCounter() as fractions:
            counted = workload.run(program, inputs, unit)

        verdict = check_all(workload, program, inputs, [plain, traced, counted])
        digests = {workload.digest(inputs, done) for done in (plain, traced, counted)}
        if len(digests) > 1:
            verdict.failed = max(verdict.failed, 1)
            verdict.notes.append("untraced, traced and counted passes gave different outputs")
        certificates = workload.certificates(inputs, counted)
    finally:
        workload.cleanup(inputs)

    fan_budget = program.suites.SuiteConfig().fan_budget
    metrics = layer_metrics(tracer, untraced_s, fractions.calls, cache, certificates, traced,
                            fan_budget)
    layers = {layer: tracer.layer_self_s(layer) for layer in LAYERS}
    top = max(layers, key=layers.get)
    record = {
        "output_sha256": digests.pop() if len(digests) == 1 else sorted(digests),
        "layer_self_s": layers,
        "bench_self_s": tracer.bench_self_s,
        "self_time_residual_s": tracer.run_s - sum(layers.values()) - tracer.bench_self_s,
        "top_layer": top,
        "spans": len(tracer.spans),
    }
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{workload.name}-seed{seed}.json"
    trace_file.write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "span_fields": ["id", "name", "start_s", "end_s", "parent", "item"],
        "spans": tracer.spans,
        "functions": {k: {"calls": v[0], "self_s": v[1], "total_s": v[2]}
                      for k, v in sorted(tracer.stats.items())},
        **record,
    }), encoding="utf-8")
    record["trace_file"] = str(trace_file.relative_to(ROOT))
    return verdict, metrics, record


def layer_metrics(tr: Tracer, untraced_s: float, fraction_calls: int, cache: Any,
                  certificates: list[list[dict]], traced: Pass, fan_budget: int) -> dict:
    values: dict[str, float] = {}
    for name, _unit in PER_LAYER:
        parts = name.split(".")
        if parts[-1] in ("calls", "self_s") and len(parts) == 3 and parts[0] in LAYERS:
            key = f"{parts[0]}.{parts[1]}"
            values[name] = tr.calls(key) if parts[-1] == "calls" else tr.self_s(key)
        elif name.endswith(".self_s") and len(parts) == 2 and parts[0] in LAYERS:
            values[name] = tr.layer_self_s(parts[0])
    orbits = tr.calls("construction.orbit")
    values["construction.orbit.steps"] = tr.orbit_steps
    values["construction.orbit.absorbed_share"] = tr.orbit_absorbed / orbits if orbits else 0.0
    values["fractions.new.calls"] = fraction_calls
    lookups = cache.hits + cache.misses
    values["cells.level1_cell.hit_ratio"] = cache.hits / lookups if lookups else 0.0
    values["verifier.fan_children.calls"] = tr.fan_children
    values["verifier.fan_headroom_min"] = 1 - tr.fan_max / fan_budget
    sides = [rational_bits(c[side]) for cert in certificates for c in cert for side in ("lhs", "rhs")]
    values["reports.checks.count"] = sum(len(cert) for cert in certificates)
    values["reports.cert_bits_max"] = max(sides, default=0)
    values["reports.cert_bits_p50"] = statistics.median(sides) if sides else 0
    for suite, function in SUITE_FUNCTIONS:
        values[f"suites.{suite}.time_s"] = tr.total_s(f"suites.{function}")
        values[f"suites.{suite}.cases"] = tr.suite_cases.get(suite, 0)
    values["suites.tapered_endpoints.self_s"] = tr.self_s("suites.tapered_endpoints")
    values["cli.output_bytes"] = traced.output_bytes
    values["bench.self_s"] = tr.bench_self_s
    values["trace.run_s"] = tr.run_s
    values["trace.untraced_run_s"] = untraced_s
    values["trace.overhead"] = tr.run_s / untraced_s
    values["trace.top_layer_share"] = max(tr.layer_self_s(layer) for layer in LAYERS) / tr.run_s
    return {name: (values[name], unit, 1) for name, unit in PER_LAYER}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="reduced inputs, for the self-test only")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        workload = make_workload(args.workload, args.tiny)
        if args.trace:
            verdict, metrics, record = traced_run(workload, args.seed)
        else:
            verdict, metrics, record = timed_run(workload, args.seed, args.seconds)
    except UsageError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    correct = is_correct(verdict)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"python={platform.python_version()} nproc={os.cpu_count()}")
    for name, (value, unit, samples) in metrics.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:40s} {shown} {unit:6s} n={samples}")
    for key, value in record.items():
        if isinstance(value, dict):
            value = " ".join(f"{k}={v:.6g}" for k, v in value.items())
        print(f"  record {key}: {value}")
    for note in verdict.notes[:20]:
        print(f"  FAILED: {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _samples) in metrics.items()},
    }))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
