"""Record the golden renders that ``run.py`` compares exact outputs with.

    python3 perfbench/record_golden.py

Runs the golden cycle of every workload, checks each verdict against its
known answer, and writes the sha256 of each scene's rendered exact outputs
to ``perfbench/golden.json``.  Re-record only when an exact output is
meant to change; the benchmark counts every mismatch as a failed task.
"""
from __future__ import annotations

import json
import sys

import run
import workloads


def main():
    gk = run.load_gkdirac()
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        entries = []
        for scene in workloads.golden_cycle(gk, workload):
            verdict, render = workloads.run_task(gk, scene)
            if verdict != scene.expect:
                sys.exit(f"{name} {scene.shape}: verdict {verdict!r}, "
                         f"expected {scene.expect!r}")
            entries.append({"shape": list(scene.shape),
                            "sha256": workloads.digest(render())})
        out[name] = entries
    with open(run.GOLDEN, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
