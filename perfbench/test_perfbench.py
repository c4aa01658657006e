"""Checks of the benchmark itself, at reduced size (one cycle per run).

    python3 -m pytest -q perfbench

* No verdict and no scene shape depends on the seed.
* The traced run rebinds every reference to a wrapped function, in every
  module and class namespace, and the untraced run installs no wrapper.
* Self times plus the time outside every span add up to the traced wall
  time, and each named boundary is reached by some workload.
"""
from __future__ import annotations

import json
import sys
from types import SimpleNamespace

import pytest

import run
import tracer as tracing
import workloads

NAMES = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def gk():
    return run.load_gkdirac()


def _loaded_gkdirac():
    """The gkdirac modules as currently imported, without re-importing."""
    return SimpleNamespace(**{m: sys.modules["gkdirac." + m]
                              for m in workloads.MODULES})


def _one_cycle(gk, workload, seed):
    out = []
    for scene in workloads.scene_cycles(gk, workload, seed, 1)[0]:
        verdict, _render = workloads.run_task(gk, scene)
        out.append((scene.shape, verdict, scene.expect))
    return out


@pytest.mark.parametrize("name", NAMES)
def test_verdicts_and_shapes_do_not_depend_on_the_seed(gk, name):
    workload = workloads.WORKLOADS[name]
    first = _one_cycle(gk, workload, 101)
    second = _one_cycle(gk, workload, 202)
    assert [s for s, _v, _e in first] == list(workload.cycle)
    assert [s for s, _v, _e in second] == list(workload.cycle)
    assert [v for _s, v, _e in first] == [v for _s, v, _e in second]
    assert all(v == e for _s, v, e in first + second)


def test_spec_records_the_cycles_that_run():
    spec = json.loads((run.HERE / "spec.json").read_text())
    assert sorted(spec["workloads"]) == NAMES
    for name in NAMES:
        assert [tuple(s) for s in spec["workloads"][name]["cycle"]] == \
            list(workloads.WORKLOADS[name].cycle)


def test_benchmark_json_lists_the_metrics_printed():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == \
        [m[0] for m in run.PER_LAYER]
    assert sorted(w["name"] for w in bench["workloads"]) == NAMES
    assert bench["paths"] == [run.HERE.name]


def test_scenes_within_a_run_are_distinct(gk):
    workload = workloads.WORKLOADS["gk_certify"]
    seen = set()
    workloads.golden_cycle(gk, workload, seen)
    workloads.scene_cycles(gk, workload, 5, 20, seen)
    assert len(seen) == 21 * len(workload.cycle)


def test_traced_run_rebinds_every_reference(gk):
    assert tracing.wrappers_present(gk) == []
    tr = tracing.Tracer()
    tr.install(gk)
    try:
        assert tracing.originals_present(gk, tr.originals) == []
        wrapped = set(tracing.wrappers_present(gk))
        # imported by name into other modules, so rebound there too
        assert {"linalg.span_certificate", "frames.span_certificate",
                "hitchin.solve_hitchin", "poly.Poly.mul",
                "scalars.Scalar.__rmul__"} <= wrapped
    finally:
        tr.uninstall()
    assert tracing.wrappers_present(gk) == []
    assert len(tracing.originals_present(gk, tr.originals)) >= len(
        tracing.SPANS)


def test_untraced_run_installs_no_wrapper():
    result, _detail = run.run_benchmark("gk_certify", 7, 0, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert tracing.wrappers_present(_loaded_gkdirac()) == []
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}


@pytest.fixture(scope="module")
def traced():
    return {name: run.run_benchmark(name, 9, 0, trace=True,
                                    write_spans=False) for name in NAMES}


@pytest.mark.parametrize("name", NAMES)
def test_span_tree_adds_up_to_the_traced_wall_time(traced, name):
    result, detail = traced[name]
    assert result["correct"], detail
    assert abs(detail["span_identity_error_s"]) <= \
        run.SPAN_IDENTITY_TOLERANCE_S
    assert detail["spans"] > 0
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert set(result["metrics"]) == {m[0] for m in run.PER_LAYER}
    # the traced run leaves nothing installed behind it
    assert tracing.wrappers_present(_loaded_gkdirac()) == []


def test_series_solve_never_evaluates_at_points(traced):
    metrics = traced["series_solve"][0]["metrics"]
    for name in ("linalg.pivot_search.calls",
                 "linalg.span_certificate.calls", "poly.eval.calls"):
        assert metrics[name]["value"] == 0


def test_every_boundary_is_reached_by_some_workload(traced):
    layers = {layer for _m, _a, layer in tracing.SPANS + tracing.COUNTS}
    reached = set()
    for result, _detail in traced.values():
        for name, _unit, how in run.PER_LAYER:
            if how[0] in ("calls", "count", "self") and \
                    result["metrics"][name]["value"] > 0:
                reached.add(how[1])
    assert layers <= reached
