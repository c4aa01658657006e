"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/baseline.py [--runs 10] [--first-seed 1]
                                  [--workload NAME ...] [--write]

Each run is ``BENCHMARK.json``'s command with a fresh seed, one process at
a time, from the repository root.  For each workload and metric the table
gives the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread, the distance between the quartiles as a share of the median,
next to the metric's bound.  ``--write`` stores the summary, with the
run's Python version, ``nproc`` and ``gmpy2`` availability, under
``baseline`` in ``perfbench/spec.json``.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = HERE / "spec.json"


def one_run(command, workload, seed, seconds):
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for name in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            detail, result = one_run(bench["command"], name, seed,
                                     bench["run_seconds"])
            if not result["correct"]:
                sys.exit(f"{name} seed {seed}: incorrect run {result}")
            runs.append((detail, result))
            print(f"{name} seed {seed}: tasks {detail['tasks']} cycles "
                  f"{detail['cycles']} tail p{detail['tail_percentile']}",
                  file=sys.stderr)
        summary[name] = {}
        for metric in bounds:
            s = summarise([r["metrics"][metric]["value"] for _d, r in runs])
            summary[name][metric] = s
            flag = "" if s["spread"] < bounds[metric] / 3 else "  <-- wide"
            print(f"{name:15s} {metric:12s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread "
                  f"{s['spread']:.4f} bound {bounds[metric]}{flag}")
        summary[name]["tasks_per_run"] = [d["tasks"] for d, _r in runs]
    if args.write:
        spec = json.loads(SPEC.read_text())
        spec["baseline"] = {
            "runs_per_workload": args.runs,
            "seeds": [args.first_seed, args.first_seed + args.runs - 1],
            "run_seconds": bench["run_seconds"],
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "gmpy2_importable": importlib.util.find_spec("gmpy2") is not None,
            "workloads": summary,
        }
        SPEC.write_text(json.dumps(spec, indent=1) + "\n")


if __name__ == "__main__":
    main()
