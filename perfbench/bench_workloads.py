"""The three seeded workloads and their correctness gates.

Each workload turns the benchmark seed into program inputs
(``make_inputs``), runs units of work on a freshly imported program
(``run``), and checks every output (``check``).  ``run`` returns a
``Pass``; the caller times it, and for item latency each workload records
the duration of each item it completes.

* ``verify-all``: one in-process ``verify all --seed S`` at default
  settings.  An item is one report; its latency is the time from the
  previous report's completion to its own.
* ``eval-points``: seeded rational points, each evaluated by in-process
  ``eval`` for fn in {f, F, G} and K in {30, 60}.  An item is one call.
  Outputs are checked against each other and against an independent
  reference enclosure.
* ``replay``: a verify report written once per set-up, read back with
  ``json.loads``, ``report_from_dict`` and ``recheck``, plus seeded
  tampered copies that must be rejected.  An item is one rechecked case.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterator, Optional

from bench_trace import patch_everywhere, unpatch


@dataclass
class Pass:
    """What one unit of work left behind for timing and checking."""

    item_s: list[float] = field(default_factory=list)
    outputs: list[Any] = field(default_factory=list)
    output_bytes: int = 0
    #: Set by a pass that calibrates itself (its ``item_s`` are then scaled
    #: too): the pass time scaled to nominal speed, and unscaled.
    scaled_s: Optional[float] = None
    raw_s: Optional[float] = None


@dataclass
class Verdict:
    attempted: int
    failed: int
    notes: list[str] = field(default_factory=list)


def rational_bits(text: str) -> int:
    """Bit length of an exact rational string: the larger of |p| and q."""
    value = Fraction(text)
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------


class VerifyAll:
    name = "verify-all"
    setup_repeats = 9
    best_of_two = True

    def __init__(self, extra_args: list[str]) -> None:
        self.extra_args = extra_args

    def make_inputs(self, program: Any, seed: int) -> dict:
        return {"argv": ["verify", "all", f"--seed={seed}", *self.extra_args]}

    def timed_units(self, inputs: dict) -> Iterator[Any]:
        while True:
            yield None

    def trace_unit(self, inputs: dict) -> Any:
        return None

    def run(self, program: Any, inputs: dict, unit: Any, stamps: bool = False,
            tracer: Optional[Any] = None) -> Pass:
        """One ``verify all``.

        With ``stamps``, time each report's completion, and every
        CALIBRATE_EVERY reports time the reference computation: a pass lasts
        long enough for the machine's speed to change within it.  Reference
        time is cut out of the item it interrupts, and each stretch of items
        is scaled by the mean of the references at its two ends.
        """
        done = Pass()
        undo = []
        perf = time.perf_counter
        references = [reference_s()] if stamps else []
        state = {"previous": 0.0, "calibrating": 0.0}
        if stamps:
            make_report = program.reports.make_report

            def stamped(*args: Any, **kwargs: Any) -> Any:
                report = make_report(*args, **kwargs)
                now = perf()
                done.item_s.append(now - state["previous"])
                state["previous"] = now
                if len(done.item_s) % CALIBRATE_EVERY == 0:
                    references.append(reference_s())
                    state["previous"] = perf()
                    state["calibrating"] += state["previous"] - now
                return report

            undo = patch_everywhere({id(make_report): (make_report, stamped)})
        out, err = io.StringIO(), io.StringIO()
        start = state["previous"] = perf()
        try:
            code = program.cli.run(inputs["argv"], stdout=out, stderr=err)
        finally:
            end = perf()
            unpatch(undo)
        if stamps:
            references.append(reference_s())
            tail = end - state["previous"]  # writing the JSON after the last report
            done.raw_s = end - start - state["calibrating"]
            done.scaled_s = 0.0
            for index, item in enumerate(done.item_s):
                stretch = index // CALIBRATE_EVERY
                done.item_s[index] = item * nominal_scale(references[stretch], references[stretch + 1])
                done.scaled_s += done.item_s[index]
            done.scaled_s += tail * nominal_scale(references[-2], references[-1])
        text = out.getvalue()
        done.outputs.append((code, text, err.getvalue()))
        done.output_bytes = len(text.encode())
        return done

    def digest(self, inputs: dict, done: Pass) -> str:
        """sha256 of the ``verify all`` stdout."""
        return sha256(done.outputs[0][1].encode())

    def check(self, program: Any, inputs: dict, done: Pass) -> Verdict:
        """Exit 0, zero failed cases, and ``recheck`` true on every report."""
        code, text, err = done.outputs[0]
        try:
            document = json.loads(text)
            cases = document["cases"]
        except (ValueError, KeyError, TypeError):
            attempted = max(1, len(done.item_s))
            return Verdict(attempted, attempted, [f"unreadable verify output (exit {code}): {err.strip()}"])
        verdict = Verdict(len(cases), 0)
        if code != 0:
            verdict.notes.append(f"verify exited {code}: {err.strip()}")
        for index, case in enumerate(cases):
            report = program.reports.report_from_dict(case)
            if code != 0 or not report.verdict or not program.reports.recheck(report):
                verdict.failed += 1
                if len(verdict.notes) < 5:
                    verdict.notes.append(f"case {index} ({case['kind']}) failed or did not recheck")
        if document.get("summary", {}).get("fail") != 0:
            verdict.notes.append(f"summary reports failures: {document.get('summary')}")
            verdict.failed = max(verdict.failed, 1)
        return verdict

    def certificates(self, inputs: dict, done: Pass) -> list[list[dict]]:
        return [case["certificate"] for case in json.loads(done.outputs[0][1])["cases"]]

    def cleanup(self, inputs: dict) -> None:
        pass


# ---------------------------------------------------------------------------
# eval-points
# ---------------------------------------------------------------------------

EVAL_FUNCTIONS = ("f", "F", "G")
EVAL_DEPTHS = (30, 60)
EVAL_BATCH = 1
EVAL_TRACE_POINTS = 24
EVAL_SETUP_POINTS = 512
#: Points 0, 10, 20, ... have a denominator <= 64, the rest up to 10^6.  The
#: mix is fixed rather than drawn: a small-denominator point costs about a
#: third of a large one, and a drawn mix would move the medians with the seed.
SMALL_DENOMINATOR_EVERY = 10


def _base_map(y: Fraction) -> Fraction:
    """The sawtooth f_1, written from its definition: 2y on [0, 1/2), tooth
    n on [1 - 1/n, 1 - 1/(n+1)) runs linearly from (-1)^n to -(-1)^n, 0 at
    1, odd reflection below 0."""
    if y < 0:
        return -_base_map(-y)
    if y in (0, 1):
        return Fraction(0)
    if y < Fraction(1, 2):
        return 2 * y
    n = y.denominator // (y.denominator - y.numerator)
    position = (y - (1 - Fraction(1, n))) * n * (n + 1)
    return (1 - 2 * position) * (-1) ** n


def _tooth_slope(y: Fraction) -> int:
    """Slope of f_1 on the tooth holding y (the middle ramp for |y| <= 1/2)."""
    y = abs(y)
    if y <= Fraction(1, 2):
        return 2
    n = y.denominator // (y.denominator - y.numerator)
    return 2 * n * (n + 1) * (-1) ** (n + 1)


def reference_enclosures(x: Fraction, K: int) -> dict[str, tuple[Fraction, Fraction]]:
    """Certified K-term enclosures of f, F and G at x, computed in one pass.

    f(x) = sum_k f_k(x) / 2^k with tail at most 2^-K, exact once the orbit
    reaches {-1, 0, 1}.  F(x) = sum_k F_k(x) / 2^k with
    F_k(x) = F_0(y_k) / prod_{i<k} slope(y_i) and F_0(y) = (y^2 - 1) / 2,
    tail at most 2^(1-K).  G(x) = sign(x) (F(x) - F(0)), tail 2^(2-K).
    This is independent of the program's code paths (which evaluate F in
    O(K^2) steps), so a wrong value that stays self-consistent still fails.
    """

    def series(start: Fraction) -> tuple[Fraction, Fraction, bool]:
        f_sum, F_sum, y, product, absorbed = Fraction(0), Fraction(0), start, 1, False
        for k in range(1, K + 1):
            if abs(y) == 1:
                absorbed = True  # every deeper iterate and layer integral is 0
                break
            product *= _tooth_slope(y)
            y = _base_map(y)
            f_sum += y / 2**k
            F_sum += (y * y - 1) / 2 / product / 2**k
            absorbed = absorbed or y == 0  # f's tail vanishes; F's does not
        return f_sum, F_sum, absorbed

    f_value, F_value, absorbed = series(x)
    _, F_zero, _ = series(Fraction(0))
    f_radius = Fraction(0) if absorbed else Fraction(1, 2**K)
    F_radius, G_radius = Fraction(2, 2**K), Fraction(4, 2**K)
    G_value = (F_value - F_zero) * (1 if x > 0 else -1)
    if x == 0:
        G_value, G_radius = Fraction(0), Fraction(0)
    return {
        "f": (f_value - f_radius, f_value + f_radius),
        "F": (F_value - F_radius, F_value + F_radius),
        "G": (G_value - G_radius, G_value + G_radius),
    }


#: The reference computation runs REFERENCE_REPEATS times per sample; on the
#: machine the baseline was recorded on (see RECORD.json), at its quiet
#: speed, one sample takes about NOMINAL_REFERENCE_S.
REFERENCE_REPEATS = 3
NOMINAL_REFERENCE_S = 0.025
#: verify-all calibrates after every this many reports (about a second).
CALIBRATE_EVERY = 500

#: Fixed inputs of ``reference_work``; they never change with the seed.
_REFERENCE_POINT = Fraction(123457, 1000003)
_REFERENCE_ORBIT_STARTS = [Fraction(p, q) for q in range(7, 1000, 41) for p in (1, q // 3, q - 2)]
_REFERENCE_TEXT = json.dumps([str(Fraction(p, 9973 + p)) for p in range(400)])


def reference_work() -> None:
    """A fixed computation in the standard library only, shaped like the
    program's work: one O(K) enclosure with large rationals (like ``eval``),
    short orbits of small rationals (like the witness searches), and a JSON
    round trip of rational strings (like the reports).  Its time measures
    the machine's speed at that moment, whatever the program does."""
    reference_enclosures(_REFERENCE_POINT, 60)
    for y in _REFERENCE_ORBIT_STARTS:
        for _ in range(12):
            y = _base_map(y)
    for text in json.loads(json.dumps(json.loads(_REFERENCE_TEXT))):
        Fraction(text)


def reference_s() -> float:
    """Time of one reference sample, now."""
    t0 = time.perf_counter()
    for _ in range(REFERENCE_REPEATS):
        reference_work()
    return time.perf_counter() - t0


def nominal_scale(before: float, after: float) -> float:
    """Factor taking a time measured between two reference samples to the
    nominal machine speed."""
    return NOMINAL_REFERENCE_S * 2 / (before + after)


class EvalPoints:
    name = "eval-points"
    setup_repeats = 9
    best_of_two = False  # every unit is a new point

    def __init__(self, tiny: bool) -> None:
        self.batch = 1 if tiny else EVAL_BATCH
        self.trace_points = 2 if tiny else EVAL_TRACE_POINTS

    def make_inputs(self, program: Any, seed: int) -> dict:
        rng = random.Random(seed)
        inputs = {"rng": rng, "points": []}
        self._extend(inputs, EVAL_SETUP_POINTS)
        return inputs

    @staticmethod
    def _extend(inputs: dict, count: int) -> None:
        rng = inputs["rng"]
        for _ in range(count):
            small = len(inputs["points"]) % SMALL_DENOMINATOR_EVERY == 0
            q = rng.randint(2, 64 if small else 10**6)
            inputs["points"].append(str(Fraction(rng.randint(-q, q), q)))

    def timed_units(self, inputs: dict) -> Iterator[list[str]]:
        start = 0
        while True:
            if start + self.batch > len(inputs["points"]):
                self._extend(inputs, EVAL_SETUP_POINTS)
            yield inputs["points"][start:start + self.batch]
            start += self.batch

    def trace_unit(self, inputs: dict) -> list[str]:
        return inputs["points"][:self.trace_points]

    @staticmethod
    def calls(points: list[str]) -> list[tuple[str, str, int]]:
        return [(x, fn, K) for x in points for fn in EVAL_FUNCTIONS for K in EVAL_DEPTHS]

    def run(self, program: Any, inputs: dict, unit: list[str], stamps: bool = False,
            tracer: Optional[Any] = None) -> Pass:
        done = Pass()
        run_cli = program.cli.run
        perf = time.perf_counter
        for index, (x, fn, K) in enumerate(self.calls(unit)):
            if tracer is not None:
                tracer.item = index
            out, err = io.StringIO(), io.StringIO()
            t0 = perf()
            code = run_cli(["eval", "--fn", fn, f"--x={x}", "--K", str(K)], stdout=out, stderr=err)
            done.item_s.append(perf() - t0)
            done.outputs.append((x, fn, K, code, out.getvalue()))
        done.output_bytes = sum(len(o[4].encode()) for o in done.outputs)
        return done

    def digest(self, inputs: dict, done: Pass) -> str:
        """sha256 of the concatenated ``eval`` outputs, in call order."""
        return sha256("".join(o[4] for o in done.outputs).encode())

    def check(self, program: Any, inputs: dict, done: Pass) -> Verdict:
        """Exit 0 on every call; each K=60 enclosure inside the K=30 one; and
        every enclosure meets the benchmark's own K=60 enclosure."""
        verdict = Verdict(len(done.outputs), 0)
        enclosures: dict[tuple[str, str, int], tuple[Fraction, Fraction]] = {}
        for x, fn, K, code, text in done.outputs:
            try:
                payload = json.loads(text)
                center, radius = Fraction(payload["center"]), Fraction(payload["radius"])
            except (ValueError, KeyError, TypeError, ZeroDivisionError):
                center = radius = None
            if code != 0 or center is None or radius < 0:
                verdict.failed += 1
                verdict.notes.append(f"eval --fn {fn} --x={x} --K {K}: exit {code}, output {text!r}")
                continue
            enclosures[(x, fn, K)] = (center - radius, center + radius)
        fine, coarse_depth = max(EVAL_DEPTHS), min(EVAL_DEPTHS)
        references = {x: reference_enclosures(Fraction(x), fine) for x in {key[0] for key in enclosures}}
        for (x, fn, K), (lo, hi) in enclosures.items():
            ref_lo, ref_hi = references[x][fn]
            coarse = enclosures.get((x, fn, coarse_depth))
            if max(lo, ref_lo) > min(hi, ref_hi):
                problem = f"misses the reference [{ref_lo}, {ref_hi}]"
            elif K == fine and coarse is not None and not (coarse[0] <= lo and hi <= coarse[1]):
                problem = f"not inside the K={coarse_depth} enclosure {coarse}"
            else:
                continue
            verdict.failed += 1
            verdict.notes.append(f"{fn}({x}) at K={K}: [{lo}, {hi}] {problem}")
        return verdict

    def certificates(self, inputs: dict, done: Pass) -> list[list[dict]]:
        return []

    def cleanup(self, inputs: dict) -> None:
        pass


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

#: Settings for the report replay reads: every report kind, about 2k cases.
REPLAY_VERIFY_ARGS = ["--index-budget", "4", "--count", "50"]
REPLAY_CONTROL_EVERY = 40  # one seeded tampered copy per 40 cases
REPLAY_TRACE_PASSES = 5

_BREAK = {
    # relation -> new lhs (as a function of rhs) that makes the check false
    "<": lambda rhs: rhs,
    "<=": lambda rhs: rhs + 1,
    "==": lambda rhs: rhs + 1,
    "!=": lambda rhs: rhs,
    ">": lambda rhs: rhs,
    ">=": lambda rhs: rhs - 1,
}


def tamper(case: dict, rng: random.Random) -> dict:
    """Copy of ``case`` with one certificate check's lhs changed to fail."""
    copy = json.loads(json.dumps(case))
    target = copy["certificate"][rng.randrange(len(copy["certificate"]))]
    target["lhs"] = str(_BREAK[target["relation"]](Fraction(target["rhs"])))
    return copy


class Replay:
    name = "replay"
    setup_repeats = 3
    best_of_two = True

    def __init__(self, workdir: Path, verify_args: Optional[list[str]] = None) -> None:
        self.workdir = workdir
        self.verify_args = REPLAY_VERIFY_ARGS if verify_args is None else verify_args

    def make_inputs(self, program: Any, seed: int) -> dict:
        self.workdir.mkdir(parents=True, exist_ok=True)
        folder = Path(tempfile.mkdtemp(prefix="replay-", dir=self.workdir))
        report = folder / "report.json"
        err = io.StringIO()
        argv = ["verify", "all", f"--seed={seed}", *self.verify_args, "--out", str(report)]
        code = program.cli.run(argv, stdout=io.StringIO(), stderr=err)
        if code != 0:
            shutil.rmtree(folder, ignore_errors=True)
            raise RuntimeError(f"replay set-up: verify exited {code}: {err.getvalue().strip()}")
        cases = json.loads(report.read_text(encoding="utf-8"))["cases"]
        rng = random.Random(seed)
        eligible = [i for i, case in enumerate(cases) if case["certificate"]]
        chosen = sorted(rng.sample(eligible, max(1, len(eligible) // REPLAY_CONTROL_EVERY)))
        controls = folder / "controls.json"
        controls.write_text(json.dumps([tamper(cases[i], rng) for i in chosen]), encoding="utf-8")
        return {"folder": folder, "report": report, "controls": controls}

    def timed_units(self, inputs: dict) -> Iterator[int]:
        while True:
            yield 1

    def trace_unit(self, inputs: dict) -> int:
        return REPLAY_TRACE_PASSES

    def run(self, program: Any, inputs: dict, unit: int, stamps: bool = False,
            tracer: Optional[Any] = None) -> Pass:
        """``unit`` full read-backs of the report and of the controls."""
        done = Pass()
        from_dict, recheck = program.reports.report_from_dict, program.reports.recheck
        perf = time.perf_counter
        item = 0
        for _ in range(unit):
            for path, negative in ((inputs["report"], False), (inputs["controls"], True)):
                document = json.loads(path.read_text(encoding="utf-8"))
                cases = document if negative else document["cases"]
                results = []
                for case in cases:
                    if tracer is not None:
                        tracer.item = item
                    item += 1
                    t0 = perf()
                    ok = recheck(from_dict(case))
                    done.item_s.append(perf() - t0)
                    results.append(ok)
                done.outputs.append((negative, results))
        return done

    def digest(self, inputs: dict, done: Pass) -> str:
        """sha256 of the replayed report file followed by the recheck results."""
        return sha256(inputs["report"].read_bytes() + json.dumps(done.outputs).encode())

    def check(self, program: Any, inputs: dict, done: Pass) -> Verdict:
        """Every stored verdict re-derives; every tampered copy is rejected."""
        verdict = Verdict(0, 0)
        for negative, results in done.outputs:
            verdict.attempted += len(results)
            wrong = sum(1 for ok in results if ok == negative)
            verdict.failed += wrong
            if wrong:
                what = "tampered copies accepted" if negative else "cases did not recheck"
                verdict.notes.append(f"{wrong} {what}")
        controls = [results for negative, results in done.outputs if negative]
        if not controls or not any(controls):
            verdict.failed = max(verdict.failed, 1)
            verdict.notes.append("no negative controls ran")
        return verdict

    def certificates(self, inputs: dict, done: Pass) -> list[list[dict]]:
        cases = json.loads(inputs["report"].read_text(encoding="utf-8"))["cases"]
        return [case["certificate"] for case in cases]

    def cleanup(self, inputs: dict) -> None:
        shutil.rmtree(inputs["folder"], ignore_errors=True)
