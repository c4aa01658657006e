"""Span tracer for the benchmark's traced run.

The tracer wraps public ``gkdirac`` functions and methods from outside the
package.  Modules import each other's functions by name (``from .linalg
import span_certificate``), so every module namespace and class namespace
that holds a wrapped function is rebound, not just the defining one.
Nothing is wrapped until :meth:`Tracer.install` runs, and
:meth:`Tracer.uninstall` puts every original back.

A span records its layer, its parent span, its start and its end, in
compact arrays kept in memory.  Scalar operations are counted only: a
timer on each would cost more than the work it measures.  A layer's self
time is the duration of its spans minus the part covered by their child
spans.
"""
from __future__ import annotations

import gzip
import inspect
from array import array
from collections import defaultdict
from time import perf_counter

# (module, attribute, layer): calls recorded as spans.  Several attributes
# may feed one layer.
SPANS = (
    ("poly", "Poly.mul", "poly.mul"),
    ("poly", "Poly.eval", "poly.eval"),
    ("poly", "Poly.divexact", "poly.divexact"),
    ("linalg", "mat_mul", "linalg.mat_mul"),
    ("linalg", "poly_mat_inverse", "linalg.poly_mat_inverse"),
    ("linalg", "poly_det", "linalg.poly_det"),
    ("linalg", "poly_adjugate", "linalg.poly_adjugate"),
    ("linalg", "scalar_rref", "linalg.scalar_rref"),
    ("linalg", "count_real_roots", "linalg.sturm"),
    ("linalg", "real_roots_in_interval", "linalg.sturm"),
    ("linalg", "_pivot_block", "linalg.pivot_search"),
    ("linalg", "span_certificate", "linalg.span_certificate"),
    ("linalg", "kernel_certificate", "linalg.kernel_certificate"),
    ("linalg", "generic_rank", "linalg.generic_rank"),
    ("forms", "MixedForm.d", "forms"),
    ("forms", "MixedForm.partial", "forms"),
    ("forms", "MixedForm.partial_bar", "forms"),
    ("forms", "MixedForm.wedge", "forms"),
    ("forms", "MixedForm.contract_vector", "forms"),
    ("forms", "MixedForm.poly_mul", "forms"),
    ("multivector", "MVElement.partial_bar", "multivector"),
    ("multivector", "MVElement.wedge", "multivector"),
    ("multivector", "MVElement.poly_mul", "multivector"),
    ("brackets", "dgla_bracket", "brackets.dgla_bracket"),
    ("brackets", "koszul_bracket", "brackets.koszul_bracket"),
    ("brackets", "pi_star", "brackets.pi_star"),
    ("frames", "frames_equal", "frames.frames_equal"),
    ("frames", "involutivity_report.check", "frames.involutivity"),
    ("frames", "dorfman_bracket", "frames.dorfman_bracket"),
    ("poisson", "extract_holo_poisson", "poisson.extract_holo_poisson"),
    ("poisson", "HoloPoisson.certificates", "poisson.certificates"),
    ("poisson", "gauge_real_poisson", "poisson.gauge_real_poisson"),
    ("genkahler", "gk_check", "genkahler.gk_check"),
    ("genkahler", "gk_deform_family", "genkahler.gk_deform_family"),
    ("hitchin", "solve_hitchin", "hitchin.solve_hitchin"),
    ("hitchin", "formality_psi", "hitchin.formality_psi"),
    ("hitchin", "mc_component_check", "hitchin.mc_component_check"),
    ("hitchin", "deformed_structures", "hitchin.deformed_structures"),
    ("hitchin", "verify_graph_identity", "hitchin.verify_graph_identity"),
    ("hitchin", "hamiltonian_family_check",
     "hitchin.hamiltonian_family_check"),
    ("model", "Model.sample_point", "model.sample_point"),
)

# (module, attribute, counter): calls counted, not timed.
COUNTS = (
    ("scalars", "Scalar.__mul__", "scalars.mul"),
    ("scalars", "Scalar.__rmul__", "scalars.mul"),
    ("scalars", "Scalar.__add__", "scalars.add"),
    ("scalars", "Scalar.__radd__", "scalars.add"),
    ("scalars", "Scalar.inverse", "scalars.inverse"),
    ("scalars", "Scalar.__pow__", "scalars.pow"),
)

TASK = "task"  # the root span the benchmark opens around each task

_MARK = "__perfbench_original__"


def _lookup(gk, module, attr):
    """The object stored under ``module.attr`` in its owner's namespace (a
    staticmethod stays wrapped)."""
    owner = getattr(gk, module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner)[name]


def namespaces(gk):
    """Every module and class namespace of the package, by label."""
    out = []
    for mod_name in vars(gk):
        mod = getattr(gk, mod_name)
        out.append((mod_name, mod))
        for cls_name, cls in vars(mod).items():
            if inspect.isclass(cls) and cls.__module__ == mod.__name__:
                out.append((f"{mod_name}.{cls_name}", cls))
    return out


def wrappers_present(gk):
    """Names of installed tracer wrappers; empty when untraced."""
    return [f"{label}.{name}" for label, ns in namespaces(gk)
            for name, value in vars(ns).items()
            if hasattr(getattr(value, "__func__", value), _MARK)]


def originals_present(gk, originals):
    """Names that still hold one of ``originals`` (functions the tracer
    wraps); empty when every reference was rebound."""
    ids = {id(f) for f in originals}
    return [f"{label}.{name}" for label, ns in namespaces(gk)
            for name, value in vars(ns).items()
            if id(getattr(value, "__func__", value)) in ids]


class Tracer:
    """Spans and counters for one traced phase of a run."""

    def __init__(self):
        self.layers = []
        self._layer_ids = {}
        self.layer_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = defaultdict(lambda: [0])
        self.sums = defaultdict(int)
        self.maxima = defaultdict(int)
        self.originals = []
        self._restore = []

    def layer_id(self, layer):
        lid = self._layer_ids.get(layer)
        if lid is None:
            lid = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return lid

    # -- recording ------------------------------------------------------
    def _span(self, fn, layer, before=None, after=None):
        lid = self.layer_id(layer)
        layer_of, parent, start, end = (self.layer_of, self.parent,
                                        self.start, self.end)
        stack = self.stack

        def wrapper(*args, **kwargs):
            idx = len(start)
            layer_of.append(lid)
            parent.append(stack[-1])
            end.append(0.0)
            start.append(0.0)
            stack.append(idx)
            if before is not None:
                before(args)
            start[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count(self, fn, counter):
        cell = self.counts[counter]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run_span(self, layer, fn, *args):
        """Call ``fn(*args)`` inside a span of ``layer``."""
        return self._span(fn, layer)(*args)

    def _hooks(self, layer):
        sums, maxima = self.sums, self.maxima
        if layer == "poly.mul":
            def before(args):
                other = args[1]
                if hasattr(other, "terms"):
                    sums["poly.mul.term_pairs"] += (len(args[0].terms)
                                                    * len(other.terms))
            return before, None
        if layer == "poly.eval":
            def before(args):
                sums["poly.eval.terms"] += len(args[0].terms)
            return before, None
        if layer == "linalg.poly_det":
            def before(args):
                if len(args[0]) > maxima["linalg.poly_det.size_max"]:
                    maxima["linalg.poly_det.size_max"] = len(args[0])
            return before, None
        if layer == "linalg.span_certificate":
            def after(result):
                sums["linalg.span_certificate.members"] += bool(result[0])
            return None, after
        return None, None

    # -- installing -----------------------------------------------------
    def install(self, gk):
        """Wrap every boundary and rebind each reference to it."""
        plan = [(m, a, layer, "span") for m, a, layer in SPANS]
        plan += [(m, a, counter, "count") for m, a, counter in COUNTS]
        spaces = namespaces(gk)
        for module, attr, layer, kind in plan:
            raw = _lookup(gk, module, attr)
            fn = getattr(raw, "__func__", raw)
            if hasattr(fn, _MARK):
                continue  # an alias of a function wrapped already
            if kind == "span":
                wrapper = self._span(fn, layer, *self._hooks(layer))
            else:
                wrapper = self._count(fn, layer)
            setattr(wrapper, _MARK, fn)
            wrapper.__name__ = fn.__name__
            replacement = (staticmethod(wrapper)
                           if isinstance(raw, staticmethod) else wrapper)
            self.originals.append(fn)
            for _label, ns in spaces:
                for name, value in list(vars(ns).items()):
                    if value is raw or value is fn:
                        self._restore.append((ns, name, value))
                        setattr(ns, name, replacement if value is raw
                                else wrapper)

    def uninstall(self):
        """Put every original back, in reverse order of installation."""
        while self._restore:
            ns, name, value = self._restore.pop()
            setattr(ns, name, value)

    # -- analysis -------------------------------------------------------
    def analyse(self, wall):
        """Self time, inclusive time and calls per layer, direct-child
        counts, and the
        span-tree identity: self times plus the time outside every span
        must equal the wall time of the traced phase."""
        start, end, parent, layer_of = (self.start, self.end, self.parent,
                                        self.layer_of)
        n = len(start)
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        calls = defaultdict(int)
        edges = defaultdict(int)
        layers = self.layers
        for i in range(n):
            name = layers[layer_of[i]]
            dur = end[i] - start[i]
            self_s[name] += dur - child[i]
            calls[name] += 1
            p = parent[i]
            if p < 0 or layer_of[p] != layer_of[i]:
                total_s[name] += dur  # not nested in its own layer
            if p >= 0:
                edges[(layers[layer_of[p]], name)] += 1
        # measure of the union of all span intervals; spans were created,
        # and so started, in index order
        covered = 0.0
        lo = hi = None
        for i in range(n):
            s, e = start[i], end[i]
            if hi is None or s > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = s, e
            elif e > hi:
                hi = e
        if hi is not None:
            covered += hi - lo
        outside = wall - covered
        total = sum(self_s.values()) + outside
        return {
            "self_s": dict(self_s),
            "total_s": dict(total_s),
            "calls": dict(calls),
            "edges": dict(edges),
            "counts": {k: v[0] for k, v in self.counts.items()},
            "sums": dict(self.sums),
            "maxima": dict(self.maxima),
            "outside_s": outside,
            "identity_error_s": total - wall,
            "min_self_s": min((end[i] - start[i] - child[i]
                               for i in range(n)), default=0.0),
        }

    def write(self, path):
        """Write the spans as gzipped tab-separated lines:
        index, parent, layer, start, end (seconds, perf_counter clock)."""
        layers = self.layers
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tparent\tlayer\tstart\tend\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.parent[i]}\t"
                          f"{layers[self.layer_of[i]]}\t"
                          f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
