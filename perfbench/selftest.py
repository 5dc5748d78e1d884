"""Self-test of the benchmark itself (not of sawcascade).

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Checks that tiny runs of every workload print every metric named in
``BENCHMARK.json`` with its unit, that the correctness gates fire on a
tampered report, a wrong ``eval`` value and an empty run, that the seed
changes the inputs but not the metric names, that the ``Fraction`` count
matches cProfile, and that the benchmark refuses to run without the program.
"""

from __future__ import annotations

import cProfile
import io
import json
import pstats
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from bench_trace import FractionCounter  # noqa: E402
from bench_workloads import EvalPoints, Pass, Replay, Verdict, VerifyAll, tamper  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def scratch_dir() -> tempfile.TemporaryDirectory:
    run.OUT_DIR.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.OUT_DIR)


def bench(workload: str, seed: int, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=170)


def result(done: subprocess.CompletedProcess) -> dict:
    return json.loads(done.stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    """Every workload prints every named metric with its unit."""

    def check_names(self, trace: int, seed: int) -> dict[str, list[str]]:
        expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
        names = {}
        for workload in run.WORKLOADS:
            done = bench(workload, seed, trace)
            self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
            out = result(done)
            self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(out["correct"])
            self.assertGreaterEqual(out["attempted"], 1)
            self.assertEqual(out["failed"], 0)
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            self.assertEqual(got, expected, workload)
            for name, metric in out["metrics"].items():
                self.assertIsInstance(metric["value"], (int, float), name)
            names[workload] = sorted(got)
            if trace:
                residual = [line for line in done.stdout.splitlines() if "self_time_residual_s" in line]
                self.assertLess(abs(float(residual[0].split(":")[1])), 1e-6, workload)
        return names

    def test_end_to_end_names_and_units(self) -> None:
        self.assertEqual(self.check_names(0, 1), self.check_names(0, 2))

    def test_per_layer_names_and_units(self) -> None:
        self.assertEqual(self.check_names(1, 1), self.check_names(1, 2))

    def test_spec_matches_code(self) -> None:
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in SPEC["per_layer"]], list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))


class Gates(unittest.TestCase):
    """The correctness gates fire on wrong outputs."""

    @classmethod
    def setUpClass(cls) -> None:
        cls.program = run.load_program()

    def test_verify_all_rejects_tampered_report(self) -> None:
        workload = VerifyAll(run.TINY_VERIFY_ARGS)
        inputs = workload.make_inputs(self.program, 5)
        done = workload.run(self.program, inputs, None)
        self.assertEqual(workload.check(self.program, inputs, done).failed, 0)
        code, text, err = done.outputs[0]
        document = json.loads(text)
        document["cases"][3] = tamper(document["cases"][3], random.Random(0))
        bad = Pass(outputs=[(code, json.dumps(document), err)])
        self.assertEqual(workload.check(self.program, inputs, bad).failed, 1)
        self.assertGreater(workload.check(self.program, inputs, Pass(outputs=[(1, text, err)])).failed, 0)

    def test_eval_rejects_wrong_value(self) -> None:
        workload = EvalPoints(tiny=True)
        inputs = workload.make_inputs(self.program, 5)
        done = workload.run(self.program, inputs, inputs["points"][:2])
        self.assertEqual(workload.check(self.program, inputs, done).failed, 0)
        outputs = list(done.outputs)
        x, fn, K, code, text = outputs[1]
        self.assertEqual(K, 60)
        payload = json.loads(text)
        payload["center"] = str(Fraction(payload["center"]) + 1)
        outputs[1] = (x, fn, K, code, json.dumps(payload))
        self.assertEqual(workload.check(self.program, inputs, Pass(outputs=outputs)).failed, 1)
        outputs = list(done.outputs)
        outputs[0] = (*outputs[0][:3], 2, "")
        self.assertEqual(workload.check(self.program, inputs, Pass(outputs=outputs)).failed, 1)
        # a shift that K=30 and K=60 agree on, caught only by the reference
        outputs = list(done.outputs)
        for index, (x, fn, K, code, text) in enumerate(outputs):
            if fn == "F":
                payload = json.loads(text)
                payload["center"] = str(Fraction(payload["center"]) + Fraction(1, 2**40))
                outputs[index] = (x, fn, K, code, json.dumps(payload))
        self.assertEqual(workload.check(self.program, inputs, Pass(outputs=outputs)).failed, 2)

    def test_replay_controls_are_rejected_and_gate_fires(self) -> None:
        with scratch_dir() as scratch:
            workload = Replay(Path(scratch), run.TINY_VERIFY_ARGS)
            inputs = workload.make_inputs(self.program, 5)
            done = workload.run(self.program, inputs, 1)
            verdict = workload.check(self.program, inputs, done)
            self.assertEqual(verdict.failed, 0)
            controls = [results for negative, results in done.outputs if negative]
            self.assertTrue(controls[0])
            self.assertFalse(any(controls[0]))
            # an untampered copy passed off as a control must be caught
            cases = json.loads(inputs["report"].read_text(encoding="utf-8"))["cases"]
            inputs["controls"].write_text(json.dumps(cases[:2]), encoding="utf-8")
            done = workload.run(self.program, inputs, 1)
            self.assertEqual(workload.check(self.program, inputs, done).failed, 2)
            workload.cleanup(inputs)

    def test_zero_items_is_a_failure(self) -> None:
        verdict = EvalPoints(tiny=True).check(self.program, {}, Pass())
        self.assertEqual(verdict.attempted, 0)
        self.assertFalse(run.is_correct(verdict))
        self.assertTrue(run.is_correct(Verdict(1, 0)))


class Seeds(unittest.TestCase):
    """The seed changes the inputs the program receives."""

    def test_seed_changes_inputs(self) -> None:
        program = run.load_program()
        evals = EvalPoints(tiny=True)
        self.assertNotEqual(evals.make_inputs(program, 1)["points"], evals.make_inputs(program, 2)["points"])
        self.assertEqual(evals.make_inputs(program, 1)["points"], evals.make_inputs(program, 1)["points"])
        verify = VerifyAll([])
        self.assertNotEqual(verify.make_inputs(program, 1), verify.make_inputs(program, 2))
        with scratch_dir() as scratch:
            replay = Replay(Path(scratch), run.TINY_VERIFY_ARGS)
            first, second = replay.make_inputs(program, 1), replay.make_inputs(program, 2)
            self.assertNotEqual(first["report"].read_bytes(), second["report"].read_bytes())


class FractionCount(unittest.TestCase):
    """Counting by patching Fraction.__new__ agrees with cProfile."""

    def test_matches_cprofile(self) -> None:
        program = run.load_program()
        argv = ["verify", "all", "--seed=3", *run.TINY_VERIFY_ARGS]
        with FractionCounter() as counter:
            program.cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO())
        program = run.load_program()
        profile = cProfile.Profile()
        profile.enable()
        program.cli.run(argv, stdout=io.StringIO(), stderr=io.StringIO())
        profile.disable()
        calls = [stat[1] for (path, _line, name), stat in pstats.Stats(profile).stats.items()
                 if name == "__new__" and Path(path).name == "fractions.py"]
        self.assertGreater(counter.calls, 0)
        self.assertEqual(counter.calls, sum(calls))


class NoProgram(unittest.TestCase):
    """With only BENCHMARK.json and the benchmark's files, the run fails."""

    def test_refuses_without_source(self) -> None:
        with scratch_dir() as scratch:
            bare = Path(scratch)
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            done = bench("verify-all", 1, 0, root=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
