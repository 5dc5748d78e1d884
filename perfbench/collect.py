"""Run the benchmark over several seeds and summarise the spread.

Usage, from the root of a checkout:

    python3 perfbench/collect.py --runs 10 [--workloads verify-all,replay] [--record FILE]

Runs ``perfbench/run.py --trace 0`` once per seed (1, 2, ... --runs) and
workload, one run at a time, then prints for each end-to-end metric the
median and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, beside a
third of the metric's bound from ``BENCHMARK.json``.  With ``--trace-seed``
it also makes one ``--trace 1`` run per workload.  ``--record`` writes all
of it as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stdout}\n{done.stderr}")
    result = json.loads(lines[-1])
    records = {}
    for line in lines:
        if line.startswith("  record "):
            key, _, value = line[len("  record "):].partition(": ")
            records[key] = value
    result["records"] = records
    return result


def git_revision() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--record", default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    summary: dict = {
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    steady = True
    for workload in workloads:
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        entry: dict = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "output_sha256": [r["records"].get("output_sha256") for r in runs],
            "metrics": {},
        }
        print(f"{workload}: attempted {entry['attempted']} failed {entry['failed']}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median
            ok = name == "setup_s" or spread < bound / 3
            steady &= ok
            entry["metrics"][name] = {"median": median, "spread": spread, "bound": bound,
                                      "unit": runs[0]["metrics"][name]["unit"], "values": values}
            print(f"  {name:14s} median {median:12.6g}  spread {spread:7.4f}  "
                  f"bound/3 {bound / 3:6.4f}  {'ok' if ok else 'WIDE'}")
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, seconds, 1)
            entry["trace"] = {"seed": args.trace_seed,
                              "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
                              "records": traced["records"]}
            print(f"  traced: top layer {traced['records'].get('top_layer')}, "
                  f"overhead {traced['metrics']['trace.overhead']['value']:.3f}, "
                  f"absorbed share {traced['metrics']['construction.orbit.absorbed_share']['value']:.4f}")
        summary["workloads"][workload] = entry
    if args.record:
        Path(args.record).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
