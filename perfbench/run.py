"""Benchmark of the gkdirac toolkit: one workload per process, closed loop.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one thread runs tasks back to back, in whole cycles of the
workload's shapes (see ``workloads.py``), until the tasks have taken S
reference seconds: wall seconds corrected for the shared host's speed at
the moment (see ``probe``).  The first cycle holds the golden scenes, whose
exact outputs must match ``golden.json``; every task must also reach its
scene's known verdict.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends the
first half of the run untraced and the second half traced, writes the
spans to ``.perfbench/``, and prints the per-layer metrics, per task, and
the tracing overhead.  The last line of standard output is the result
object; the line before it holds run details (task count, tail
percentile, wall-clock figures, host speed factor, time per shape).
A checkout without ``src/gkdirac`` exits with status 2 and no result.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
TRACE_DIR = ROOT / ".perfbench"

SETUP_REPEATS = 5
POOL_CYCLES_PER_SECOND = 1.5  # cycles built per second of run time
TAIL_BEYOND = 10              # tasks that must lie beyond the tail value
WALL_CAP = 1.5                # longest run, as a multiple of --seconds
SPAN_IDENTITY_TOLERANCE_S = 1e-3


# per-layer metrics: (name, unit, how it is computed from the trace)
PER_LAYER = [
    ("scalars.mul.calls", "calls/task", ("count", "scalars.mul")),
    ("scalars.add.calls", "calls/task", ("count", "scalars.add")),
    ("scalars.inverse.calls", "calls/task", ("count", "scalars.inverse")),
    ("scalars.pow.calls", "calls/task", ("count", "scalars.pow")),
    ("poly.mul.calls", "calls/task", ("calls", "poly.mul")),
    ("poly.mul.self_s", "s/task", ("self", "poly.mul")),
    ("poly.mul.term_pairs", "pairs/task", ("sum", "poly.mul.term_pairs")),
    ("poly.eval.calls", "calls/task", ("calls", "poly.eval")),
    ("poly.eval.self_s", "s/task", ("self", "poly.eval")),
    ("poly.eval.terms", "terms/task", ("sum", "poly.eval.terms")),
    ("poly.divexact.calls", "calls/task", ("calls", "poly.divexact")),
    ("poly.divexact.self_s", "s/task", ("self", "poly.divexact")),
    ("linalg.mat_mul.self_s", "s/task", ("self", "linalg.mat_mul")),
    ("linalg.poly_mat_inverse.self_s", "s/task",
     ("self", "linalg.poly_mat_inverse")),
    ("linalg.poly_det.calls", "calls/task", ("calls", "linalg.poly_det")),
    ("linalg.poly_det.self_s", "s/task", ("self", "linalg.poly_det")),
    ("linalg.poly_det.size_max", "rows",
     ("max", "linalg.poly_det.size_max")),
    ("linalg.poly_adjugate.self_s", "s/task",
     ("self", "linalg.poly_adjugate")),
    ("linalg.scalar_rref.calls", "calls/task",
     ("calls", "linalg.scalar_rref")),
    ("linalg.scalar_rref.self_s", "s/task", ("self", "linalg.scalar_rref")),
    ("linalg.sturm.self_s", "s/task", ("self", "linalg.sturm")),
    ("linalg.pivot_search.calls", "calls/task",
     ("calls", "linalg.pivot_search")),
    ("linalg.pivot_search.self_s", "s/task", ("self", "linalg.pivot_search")),
    ("linalg.pivot_search.total_s", "s/task",
     ("total", "linalg.pivot_search")),
    ("linalg.pivot_search.points_per_call", "points/call",
     ("per_call", "linalg.pivot_search", "model.sample_point")),
    ("linalg.span_certificate.calls", "calls/task",
     ("calls", "linalg.span_certificate")),
    ("linalg.span_certificate.self_s", "s/task",
     ("self", "linalg.span_certificate")),
    ("linalg.span_certificate.total_s", "s/task",
     ("total", "linalg.span_certificate")),
    ("linalg.span_certificate.searches_per_call", "searches/call",
     ("per_call", "linalg.span_certificate", "linalg.pivot_search")),
    ("linalg.span_certificate.dets_per_call", "dets/call",
     ("per_call", "linalg.span_certificate", "linalg.poly_det")),
    ("linalg.span_certificate.member_ratio", "ratio",
     ("ratio", "linalg.span_certificate.members", "linalg.span_certificate")),
    ("linalg.kernel_certificate.calls", "calls/task",
     ("calls", "linalg.kernel_certificate")),
    ("linalg.kernel_certificate.self_s", "s/task",
     ("self", "linalg.kernel_certificate")),
    ("linalg.generic_rank.calls", "calls/task",
     ("calls", "linalg.generic_rank")),
    ("linalg.generic_rank.self_s", "s/task", ("self", "linalg.generic_rank")),
    ("forms.calls", "calls/task", ("calls", "forms")),
    ("forms.self_s", "s/task", ("self", "forms")),
    ("multivector.calls", "calls/task", ("calls", "multivector")),
    ("multivector.self_s", "s/task", ("self", "multivector")),
    ("brackets.dgla_bracket.self_s", "s/task",
     ("self", "brackets.dgla_bracket")),
    ("brackets.koszul_bracket.self_s", "s/task",
     ("self", "brackets.koszul_bracket")),
    ("brackets.pi_star.self_s", "s/task", ("self", "brackets.pi_star")),
    ("frames.frames_equal.calls", "calls/task",
     ("calls", "frames.frames_equal")),
    ("frames.frames_equal.self_s", "s/task", ("self", "frames.frames_equal")),
    ("frames.involutivity.self_s", "s/task", ("self", "frames.involutivity")),
    ("frames.dorfman_bracket.self_s", "s/task",
     ("self", "frames.dorfman_bracket")),
    ("poisson.extract_holo_poisson.self_s", "s/task",
     ("self", "poisson.extract_holo_poisson")),
    ("poisson.certificates.self_s", "s/task",
     ("self", "poisson.certificates")),
    ("poisson.gauge_real_poisson.self_s", "s/task",
     ("self", "poisson.gauge_real_poisson")),
    ("genkahler.gk_check.self_s", "s/task", ("self", "genkahler.gk_check")),
    ("genkahler.gk_deform_family.self_s", "s/task",
     ("self", "genkahler.gk_deform_family")),
    ("hitchin.solve_hitchin.self_s", "s/task",
     ("self", "hitchin.solve_hitchin")),
    ("hitchin.formality_psi.self_s", "s/task",
     ("self", "hitchin.formality_psi")),
    ("hitchin.mc_component_check.self_s", "s/task",
     ("self", "hitchin.mc_component_check")),
    ("hitchin.deformed_structures.self_s", "s/task",
     ("self", "hitchin.deformed_structures")),
    ("hitchin.verify_graph_identity.self_s", "s/task",
     ("self", "hitchin.verify_graph_identity")),
    ("hitchin.hamiltonian_family_check.self_s", "s/task",
     ("self", "hitchin.hamiltonian_family_check")),
    ("model.sample_point.calls", "calls/task",
     ("calls", "model.sample_point")),
    ("trace.overhead_ratio", "ratio", ("overhead",)),
]


class SourceMissing(Exception):
    """The checkout holds no gkdirac sources to benchmark."""


def load_gkdirac():
    """Import gkdirac from this checkout's ``src`` and nowhere else."""
    if not (SRC / "gkdirac").is_dir():
        raise SourceMissing(f"no gkdirac package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    gk = workloads.import_gkdirac()
    where = Path(gk.hitchin.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SourceMissing(f"gkdirac was imported from {where}")
    return gk


def load_golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


# The host this benchmark runs on is shared: measured over minutes, its
# single-thread speed drops by up to 1.7x for stretches of seconds to a
# minute.  Each task is therefore timed twice over: on the wall clock, and
# in reference seconds, its wall time divided by the host's speed factor
# at that moment.  The speed factor is the time of a fixed probe (an exact
# sparse product of Fractions in a dict keyed by exponent tuples, the kind
# of work gkdirac does, but no gkdirac code) run before and after the
# task, over the probe's time on the quiet host.
PROBE_REFERENCE_S = 0.0122
_PROBE_A = [((i % 4, i % 3, i % 5, i % 2, 0),
             (Fraction(i + 1, 3), Fraction(2 - i, 5))) for i in range(36)]
_PROBE_B = [((i % 3, i % 5, i % 2, i % 4, 1),
             (Fraction(3 - i, 7), Fraction(i + 2, 3))) for i in range(36)]


def probe():
    """Wall time of the fixed speed probe."""
    t0 = perf_counter()
    out = {}
    for e1, (r1, i1) in _PROBE_A:
        for e2, (r2, i2) in _PROBE_B:
            e = tuple(x + y for x, y in zip(e1, e2))
            re, im = r1 * r2 - i1 * i2, r1 * i2 + i1 * r2
            s = out.get(e)
            out[e] = (re, im) if s is None else (s[0] + re, s[1] + im)
    return perf_counter() - t0


class Record:
    """One task: its shape, wall seconds, reference seconds and outcome."""

    __slots__ = ("shape", "wall_s", "ref_s", "ok")

    def __init__(self, shape, wall_s, ref_s, ok):
        self.shape = shape
        self.wall_s = wall_s
        self.ref_s = ref_s
        self.ok = ok


def setup(workload, seed, seconds):
    """Import gkdirac and build every scene of the run; return the modules,
    the golden cycle, the seeded cycles, and the set-up time in wall and
    in reference seconds."""
    cycles = max(1, int(POOL_CYCLES_PER_SECOND * seconds))
    before = probe()
    t0 = perf_counter()
    gk = load_gkdirac()
    seen = set()
    golden = workloads.golden_cycle(gk, workload, seen)
    pool = workloads.scene_cycles(gk, workload, seed, cycles, seen)
    wall = perf_counter() - t0
    speed = (before + probe()) / (2 * PROBE_REFERENCE_S)
    return gk, golden, pool, wall, wall / speed


def attach_golden(golden_scenes, digests, workload):
    want = digests.get(workload.name)
    if want is None or len(want) != len(golden_scenes):
        raise SystemExit(f"golden.json has no entry for {workload.name}")
    for scene, entry in zip(golden_scenes, want):
        if list(scene.shape) != entry["shape"]:
            raise SystemExit(f"golden.json shape mismatch for "
                             f"{workload.name}: {entry['shape']}")
        scene.golden = entry["sha256"]


def run_cycles(gk, cycles, seconds, tracer=None):
    """Run whole cycles until the tasks have taken ``seconds`` reference
    seconds (at least one cycle), so that a run does the same work, and
    its median and tail fall at the same positions, whatever the host's
    speed.  On a host slower than WALL_CAP times the reference the run
    stops at WALL_CAP * ``seconds`` of wall time instead.

    Returns the task records, the wall time and the number of cycles run.
    """
    records = []
    t_start = perf_counter()
    done = 0
    ref_total = 0.0
    before = probe()
    for cycle in cycles:
        for scene in cycle:
            wall_s, ok = run_one(gk, scene, tracer)
            after = probe()
            ref_s = wall_s * 2 * PROBE_REFERENCE_S / (before + after)
            records.append(Record(scene.shape, wall_s, ref_s, ok))
            ref_total += ref_s
            before = after
        done += 1
        if (ref_total >= seconds
                or perf_counter() - t_start >= WALL_CAP * seconds):
            break
    return records, perf_counter() - t_start, done


def run_one(gk, scene, tracer=None):
    """Run one task; return its wall time and whether it was correct."""
    t0 = perf_counter()
    try:
        if tracer is None:
            verdict, render = workloads.run_task(gk, scene)
        else:
            verdict, render = tracer.run_span(tracing.TASK, workloads.run_task,
                                              gk, scene)
    except Exception:  # a task that raises is a failed task, not a crash
        dt = perf_counter() - t0
        print(f"task {scene.shape} raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return dt, False
    dt = perf_counter() - t0
    ok = verdict == scene.expect
    if not ok:
        print(f"task {scene.shape}: verdict {verdict!r}, expected "
              f"{scene.expect!r}", file=sys.stderr)
    elif scene.golden is not None:
        ok = workloads.digest(render()) == scene.golden
        if not ok:
            print(f"task {scene.shape}: exact output differs from the "
                  f"golden render", file=sys.stderr)
    return dt, ok


def tail(times):
    """Value at the highest percentile with TAIL_BEYOND tasks beyond it,
    and that percentile."""
    ordered = sorted(times)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def shape_times(records):
    """Median task time per shape, in reference seconds."""
    by_shape = {}
    for r in records:
        by_shape.setdefault(repr(r.shape), []).append(r.ref_s)
    return {k: statistics.median(v) for k, v in by_shape.items()}


def timing(records, attr):
    """tasks_per_s, task_s_p50, task_s_tail and the tail's percentile over
    one kind of time."""
    times = [getattr(r, attr) for r in records]
    good = sum(1 for r in records if r.ok)
    return (good / sum(times), statistics.median(times)) + tail(times)


def end_to_end(records, setup_ref):
    tasks_per_s, p50, tail_s, tail_pct = timing(records, "ref_s")
    metrics = {
        "tasks_per_s": (tasks_per_s, "1/s"),
        "task_s_p50": (p50, "s"),
        "task_s_tail": (tail_s, "s"),
        "ok_ratio": (sum(1 for r in records if r.ok) / len(records),
                     "ratio"),
        "setup_s": (statistics.median(setup_ref), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    wall = timing(records, "wall_s")
    detail = {"tail_percentile": round(tail_pct, 2),
              "tail_beyond": TAIL_BEYOND,
              "wall_clock": {"tasks_per_s": wall[0], "task_s_p50": wall[1],
                             "task_s_tail": wall[2]}}
    return metrics, detail


def per_layer(trace, tasks, speed, overhead):
    """Per-layer metrics per traced task; times in reference seconds."""
    def value(how):
        kind = how[0]
        if kind == "count":
            return trace["counts"].get(how[1], 0) / tasks
        if kind == "calls":
            return trace["calls"].get(how[1], 0) / tasks
        if kind == "self":
            return trace["self_s"].get(how[1], 0.0) / tasks / speed
        if kind == "total":
            return trace["total_s"].get(how[1], 0.0) / tasks / speed
        if kind == "sum":
            return trace["sums"].get(how[1], 0) / tasks
        if kind == "max":
            return trace["maxima"].get(how[1], 0)
        if kind == "per_call":
            calls = trace["calls"].get(how[1], 0)
            kids = trace["edges"].get((how[1], how[2]), 0)
            return kids / calls if calls else 0.0
        if kind == "ratio":
            calls = trace["calls"].get(how[2], 0)
            return trace["sums"].get(how[1], 0) / calls if calls else 0.0
        if kind == "overhead":
            return overhead
        raise ValueError(how)

    return {name: (value(how), unit) for name, unit, how in PER_LAYER}


def run_benchmark(name, seed, seconds, trace, write_spans=True):
    """Run one workload; return (result, detail) as printed by main."""
    workload = workloads.WORKLOADS[name]
    digests = load_golden()
    setup_wall, setup_ref = [], []
    for _ in range(SETUP_REPEATS):
        gk, golden, pool, wall_s, ref_s = setup(workload, seed, seconds)
        setup_wall.append(wall_s)
        setup_ref.append(ref_s)
    attach_golden(golden, digests, workload)
    detail = {"workload": name, "seed": seed, "trace": trace,
              "setup_wall_s": [round(x, 6) for x in setup_wall]}
    if not trace:
        records, wall, ncycles = run_cycles(gk, [golden] + pool, seconds)
        metrics, extra = end_to_end(records, setup_ref)
        detail.update(extra)
        span_ok = True
    else:
        half = seconds / 2.0
        plain, plain_wall, plain_cycles = run_cycles(gk, pool, half)
        rest = pool[plain_cycles:]
        tr = tracing.Tracer()
        tr.install(gk)
        try:
            traced, traced_wall, traced_cycles = run_cycles(
                gk, [golden] + rest, half, tr)
        finally:
            tr.uninstall()
        analysis = tr.analyse(traced_wall)
        # one traced cycle against one untraced cycle, each the sum of its
        # shapes' median task times, so that unequal cycle counts and the
        # first cycle's warm-up do not enter
        plain_shapes, traced_shapes = shape_times(plain), shape_times(traced)
        overhead = (sum(traced_shapes.values())
                    / sum(plain_shapes[k] for k in traced_shapes))
        speed = statistics.median(r.wall_s / r.ref_s for r in traced)
        metrics = per_layer(analysis, len(traced), speed, overhead)
        span_ok = (abs(analysis["identity_error_s"])
                   <= SPAN_IDENTITY_TOLERANCE_S
                   and analysis["min_self_s"] > -SPAN_IDENTITY_TOLERANCE_S)
        records = plain + traced
        ncycles = plain_cycles + traced_cycles
        wall = plain_wall + traced_wall
        detail.update({
            "spans": len(tr.start),
            "span_identity_error_s": analysis["identity_error_s"],
            "outside_spans_s": analysis["outside_s"],
            "traced_wall_s": traced_wall, "untraced_wall_s": plain_wall,
        })
        if write_spans:
            TRACE_DIR.mkdir(exist_ok=True)
            path = TRACE_DIR / f"spans-{name}-seed{seed}.tsv.gz"
            tr.write(path)
            detail["spans_file"] = str(path.relative_to(ROOT))
    failed = sum(1 for r in records if not r.ok)
    detail.update({
        "tasks": len(records), "cycles": ncycles, "wall_s": round(wall, 6),
        "speed_factor": statistics.median(r.wall_s / r.ref_s
                                          for r in records),
        "pool_exhausted": ncycles > len(pool),
        "shape_median_ref_s": {k: round(v, 6)
                               for k, v in shape_times(records).items()}})
    result = {
        "correct": failed == 0 and span_ok,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, detail = run_benchmark(args.workload, args.seed,
                                       args.seconds, bool(args.trace))
    except SourceMissing as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
