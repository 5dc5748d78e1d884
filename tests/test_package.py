"""The top-level package surface: the README examples, Python and command
line, run against it, and so does each demo; every name it exports resolves,
and so does every name the benchmark tracer wraps; the benchmark harness runs
each workload, timed and traced, on a tiny size."""

from __future__ import annotations

import importlib
import importlib.util
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import ModuleType

import pytest

import sawcascade
from sawcascade import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quick_start_runs() -> None:
    namespace: dict = {}
    exec(compile(_quick_start_block(), "README quick start", "exec"), namespace)
    assert namespace["enc"].exact
    assert namespace["report"].verdict


def _command_line_block() -> list[tuple[str, str | None]]:
    """Each ``sawcascade`` line of the README's command-line block, with the
    output its next line shows as a comment, or None."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    lines = section.split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    return [(line, following[2:] + "\n" if following.startswith("# ") else None)
            for line, following in zip(lines, [*lines[1:], ""])
            if line.startswith("sawcascade ")]


@pytest.mark.parametrize("line, printed", _command_line_block(),
                         ids=[line for line, _ in _command_line_block()])
def test_readme_command_line_runs(line: str, printed: str | None, tmp_path: Path,
                                  monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.chdir(tmp_path)  # where --out F.csv and report.json land
    out, err = io.StringIO(), io.StringIO()
    assert cli.run(shlex.split(line)[1:], out, err) == cli.EXIT_OK, err.getvalue()
    if printed is not None:
        assert out.getvalue() == printed


@pytest.mark.parametrize("demo", ["witness_walkthrough.py", "enclosure_tables.py", "plot_data.py"])
def test_each_demo_runs(demo: str, tmp_path: Path) -> None:
    # plot_data writes beside itself unless given --outdir
    args = ["--outdir", str(tmp_path), "--count", "65"] if demo == "plot_data.py" else []
    src = str(Path(sawcascade.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(README.parent / "demos" / demo), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    if demo == "plot_data.py":
        written = sorted(tmp_path.iterdir())
        assert [p.name for p in written] == sorted(f"{fn}_samples.csv" for fn in "fgFG")
        assert all(len(p.read_text(encoding="utf-8").splitlines()) == 65 + 1 for p in written)


def test_every_exported_name_resolves() -> None:
    assert len(set(sawcascade.__all__)) == len(sawcascade.__all__)
    for name in sawcascade.__all__:
        assert getattr(sawcascade, name) is not None, name


def _bench_tracer() -> ModuleType:
    """perfbench/bench_trace.py, loaded from its file without changing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"
    spec = importlib.util.spec_from_file_location("_bench_trace_under_test", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_tracer_wraps_resolves() -> None:
    # the tracer patches these names and reads these orbit fields, so a change
    # that drops one fails here rather than in a traced benchmark run
    tracer = _bench_tracer()
    for layer, names in tracer.WRAPPED.items():
        module = importlib.import_module(f"sawcascade.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
    info = sawcascade.orbit(Fraction(1, 4), 10)
    assert info.values == (Fraction(1, 2), Fraction(1))
    assert info.absorbed_step == 2


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["verify-all", "eval-points", "replay"])
def test_the_benchmark_harness_runs_each_workload_tiny(workload: str, trace: int) -> None:
    # a timed run stamps item times through make_report and counts each
    # suite's Cases; a traced run patches every wrapped name and reads
    # level1_cell.cache_info(): a refactor that breaks one fails here
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "0.2", "--tiny", "--trace", str(trace)]
    done = subprocess.run(argv, cwd=README.parent, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    if workload == "eval-points" and trace:
        # every eval call of the benchmark is canonical: no parser is built
        assert result["metrics"]["cli.build_parser.calls"]["value"] == 0
