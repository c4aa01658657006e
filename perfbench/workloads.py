"""Seeded scenes, tasks and known answers for the three benchmark workloads.

A workload is a fixed *cycle* of task shapes.  A run draws one scene per
entry of the cycle, over and over, from a ``random.Random`` seeded by the
workload name and the run seed; only Q(i) coefficients, weights and the
generator handed to certificate calls come from the seed, never the shapes
(supports, sizes, orders, modes), because a drawn support can change the
cost of one solve by three orders of magnitude.  No scene repeats within a
run, so a cache kept across calls cannot turn repeats into free hits.

Every scene carries its known answer by construction.  A task returns a
verdict, compared with that answer, and the exact outputs as rendered
text; the renders of the golden scenes (one cycle drawn from a fixed
stream) are compared with ``golden.json``.

``gkdirac`` is reached only through the module namespace passed in as
``gk``, looked up at call time, so the tracer's rebinding of public
functions is seen by every task.
"""
from __future__ import annotations

import hashlib
import importlib
import random
import sys
from fractions import Fraction
from types import SimpleNamespace

MODULES = ("errors", "_combinat", "scalars", "poly", "model", "linalg",
           "forms", "multivector", "brackets", "frames", "poisson",
           "genkahler", "hitchin")

GK = "generalized kahler"
DEGENERATE = "degenerate generalized kahler"
NOT_GK = "not generalized kahler"

_NONZERO = (-4, -3, -2, -1, 1, 2, 3, 4)


def import_gkdirac():
    """Import every ``gkdirac`` module afresh and return them by name.

    Earlier imports are dropped from ``sys.modules`` first, so repeated
    calls time a full import each time.
    """
    for name in [m for m in sys.modules
                 if m == "gkdirac" or m.startswith("gkdirac.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module("gkdirac." + m)
                              for m in MODULES})


class Scene:
    """One task input: its shape, drawn data, generator and known answer."""

    __slots__ = ("workload", "shape", "data", "rng", "expect", "golden")

    def __init__(self, workload, shape, data, rng, expect):
        self.workload = workload
        self.shape = shape
        self.data = data
        self.rng = rng
        self.expect = expect
        self.golden = None  # sha256 of the exact outputs, golden scenes only


# ---------------------------------------------------------------------------
# drawing helpers
# ---------------------------------------------------------------------------

def _frac(rng):
    return Fraction(rng.choice(_NONZERO), rng.randint(1, 3))


def _weight(rng):
    # small numerators and denominators: the cost of a task grows with the
    # size of its rationals, and a steady run needs steady task costs
    return Fraction(rng.randint(1, 5), rng.randint(1, 3))


def _gauss(gk, rng):
    return gk.scalars.Scalar(_frac(rng), _frac(rng))


def _hermitian(gk, model, weights, tpower=0):
    """(i/2) sum_k w_k t^p dz_k ^ dzbar_k."""
    Poly, Scalar = gk.poly.Poly, gk.scalars.Scalar
    out = gk.forms.MixedForm.zero(model)
    for k, w in enumerate(weights):
        coeff = Poly.const(model.n, Scalar(0, Fraction(w) / 2))
        if tpower:
            coeff = coeff * Poly.t(model.n, tpower)
        out = out + gk.forms.MixedForm.monomial(model, coeff, (k,), (k,))
    return out


def _complex_type_frame(gk, model):
    """T_{0,1} (+) T*_{1,0}, the Dirac frame of the standard complex
    structure."""
    GVField = gk.frames.GVField
    gens = []
    for b in range(model.n):
        v = [model.zero_poly() for _ in range(model.dim)]
        v[model.n + b] = model.poly(1)
        gens.append(GVField(model, vec=v))
    for a in range(model.n):
        c = [model.zero_poly() for _ in range(model.dim)]
        c[a] = model.poly(1)
        gens.append(GVField(model, cov=c))
    return gk.frames.DiracFrame(model, gens, label="complex-type")


def _kahler_graph(gk, omega):
    """The symplectic-type frame graph(i omega) of a Kahler form."""
    return gk.frames.graph_two_form(omega.scale(gk.scalars.Scalar(0, 1)))


def _pulled_back_form(gk, model, h):
    """Flat Kahler form pulled back by w_n = z_n + h(z_1).

    The metric is polynomial with determinant 1, so every inverse the
    checker needs stays polynomial.
    """
    MixedForm = gk.forms.MixedForm
    n = model.n
    one = model.poly(1)
    dw = (MixedForm.monomial(model, one, (n - 1,), ())
          + MixedForm.monomial(model, h.d_z(0), (0,), ()))
    out = dw.wedge(dw.conj())
    for k in range(n - 1):
        out = out + MixedForm.monomial(model, one, (k,), (k,))
    return out.scale(gk.scalars.Scalar(0, Fraction(1, 2)))


# ---------------------------------------------------------------------------
# series_solve: solve_hitchin on sigma = f d1^d2, f = sum_k c_k z_k
# ---------------------------------------------------------------------------

def _make_solve(gk, shape, rng):
    n, order, mode = shape
    model = gk.model.Model(n)
    coeffs = [_gauss(gk, rng) for _ in range(n)]
    f = model.zero_poly()
    for k, c in enumerate(coeffs):
        f = f + model.z(k).scale(c)
    sigma = gk.multivector.MVElement.monomial(model, f, vecs=(0, 1))
    hp = gk.poisson.HoloPoisson(model, sigma=sigma)
    seed = _hermitian(gk, model, [1] * n)
    return (hp, seed), tuple(coeffs), "solved"


def _series_renders(ds):
    return ([b.render() for b in ds.betas]
            + [ds.residuals[k].render() for k in sorted(ds.residuals)])


def _run_solve(gk, scene):
    hp, seed = scene.data
    _n, order, mode = scene.shape
    ds = gk.hitchin.solve_hitchin(hp, seed, order, mode=mode)
    verdict = ("solved" if len(ds.betas) == order and ds.betas[0] == seed
               else "wrong series shape")
    return verdict, lambda: _series_renders(ds)


# ---------------------------------------------------------------------------
# gk_certify: gk_check on frame pairs with known verdicts
# ---------------------------------------------------------------------------

_ALL_TRUE = {"transversality": True, "real_poisson_graphs": True,
             "holomorphic_poisson_pair": True, "positivity": True}


def _conditions(**changes):
    out = dict(_ALL_TRUE)
    out.update(changes)
    return out


def _make_gk(gk, shape, rng):
    kind, n = shape
    model = gk.model.Model(n)
    Scalar = gk.scalars.Scalar
    if kind in ("flat", "flat_family", "sign_flip"):
        weights = [_weight(rng) for _ in range(n)]
        if kind == "sign_flip":
            weights[-1] = -weights[-1]
        pair = (_complex_type_frame(gk, model),
                _kahler_graph(gk, _hermitian(gk, model, weights)))
        if kind == "sign_flip":
            return (pair, None), tuple(weights), (
                DEGENERATE, _conditions(positivity=False))
        if kind == "flat":
            return (pair, None), tuple(weights), (GK, _conditions())
        # F_t = t (i/2) sum_k r_k w_k dz_k ^ dzbar_k with r_k <= 5: the
        # pencil 1 + t r_k stays positive at the checked t = 1/8, -1/8,
        # 1/16, so every checked member is generalized Kahler
        ratios = [_weight(rng) for _ in range(n)]
        family = _hermitian(gk, model,
                            [r * w for r, w in zip(ratios, weights)], tpower=1)
        return ((pair, family), tuple(weights + ratios),
                (GK, _conditions(), True, True, (GK, GK, GK)))
    if kind == "pullback":
        a = _gauss(gk, rng)
        h = gk.poly.Poly(n, {(2,) + (0,) * (2 * n): a})
        pair = (_complex_type_frame(gk, model),
                _kahler_graph(gk, _pulled_back_form(gk, model, h)))
        return (pair, None), (a,), (GK, _conditions())
    if kind == "tangent":
        # the tangent frame with itself, generators rescaled by the seed:
        # the same Dirac structure, a distinct input
        scales = [_gauss(gk, rng) for _ in range(model.dim)]
        frame = gk.frames.DiracFrame(
            model, [g.scale(c) for g, c in
                    zip(gk.frames.tangent_frame(model).gens, scales)])
        expect = (NOT_GK, _conditions(real_poisson_graphs=False,
                                      holomorphic_poisson_pair=False,
                                      positivity=False))
        return ((frame, frame), None), tuple(scales), expect
    if kind == "l_sigma":
        # (2i L_sigma, T) for sigma = c z_1 t^2 d1^d2
        c = _gauss(gk, rng)
        Poly = gk.poly.Poly
        sigma = gk.multivector.MVElement.monomial(
            model, model.z(0).scale(c) * Poly.t(n, 2), vecs=(0, 1))
        L1 = gk.frames.dirac_scale(
            gk.poisson.build_L_sigma(gk.poisson.HoloPoisson(model,
                                                            sigma=sigma)),
            Scalar(0, 2))
        expect = (DEGENERATE, _conditions(real_poisson_graphs=False,
                                          positivity=False))
        return ((L1, gk.frames.tangent_frame(model)), None), (c,), expect
    raise ValueError(f"unknown gk_certify scene kind {kind!r}")


def _run_gk(gk, scene):
    (L1, L2), family = scene.data
    report = gk.genkahler.gk_check(L1, L2, scene.rng)
    verdict = (report.verdict, report.conditions)
    fam = None
    if family is not None:
        fam = gk.genkahler.gk_deform_family(report.pair, family, scene.rng,
                                            tmax=3)
        verdict += (fam.ok, fam.minus_fixed,
                    tuple(v for _t, _c, v in fam.checked))
    return verdict, lambda: _gk_renders(report, fam)


def _gk_renders(report, fam):
    """The extracted bivectors of a checked pair and of its family."""
    out = [report.verdict]
    pair = report.pair
    if pair is not None:
        out += [pair.sigma_plus.sigma.render(),
                pair.sigma_minus.sigma.render(),
                pair.sigma_plus.phi.render()]
        out += [rp.pi.render() if rp is not None else "none"
                for rp in (pair.pi1, pair.pi2)]
    if fam is not None:
        out.append(fam.sigma_plus_family.sigma.render())
    return out


# ---------------------------------------------------------------------------
# deform_certify: the certificate chain on a solved series
# ---------------------------------------------------------------------------

def _make_chain(gk, shape, rng):
    kind, n, order = shape
    if kind == "twistor":
        # the scene is fixed; only the generator handed to it varies
        return None, None, "certified"
    model = gk.model.Model(n)
    c = _gauss(gk, rng)
    weights = [_weight(rng) for _ in range(n)]
    sigma = gk.multivector.MVElement.monomial(model, model.z(0).scale(c),
                                              vecs=(0, 1))
    hp = gk.poisson.HoloPoisson(model, sigma=sigma)
    seed = _hermitian(gk, model, weights)
    # the real bivector sigma + conj(sigma) that the real family gauges
    Q = gk.poisson.Bivector(model, gk.linalg.mat_add(
        hp.sigma.mat, hp.sigma.conj().mat))
    return (hp, seed, Q), (c,) + tuple(weights), "certified"


def _run_chain(gk, scene):
    kind, _n, order = scene.shape
    hitchin = gk.hitchin
    rng = scene.rng
    if kind == "twistor":
        rep = hitchin.twistor_demo(order=order, rng=rng)
        verdict = "certified" if rep.ok else "twistor assertions failed"
        return verdict, lambda: _series_renders(rep.series)
    hp, seed, Q = scene.data
    ds = hitchin.solve_hitchin(hp, seed, order, mode="real")
    structures = hitchin.deformed_structures(ds.eps, hp, rng, tmax=order)
    F = ds.beta_series()
    graph = hitchin.verify_graph_identity(F, hp, rng, order=order)
    rp = gk.poisson.gauge_real_poisson(gk.poisson.RealPoisson(hp.model, Q),
                                       F, rng, tmax=order)
    ham = hitchin.hamiltonian_family_check((rp.pi, F), rng, mode="real",
                                           tmax=order)
    failed = [name for name, ok in (
        ("deformed_structures", structures.ok and structures.frame_match),
        ("graph_identity", graph.ok and graph.series_equal is True),
        ("hamiltonian_family", ham.ok)) if not ok]
    verdict = "certified" if not failed else "failed: " + ", ".join(failed)
    return verdict, lambda: (_series_renders(ds)
                             + [structures.poisson.sigma.render(),
                                rp.pi.render()])


# ---------------------------------------------------------------------------
# workload table
# ---------------------------------------------------------------------------

class Workload:
    """A named cycle of task shapes with its scene maker and task runner."""

    def __init__(self, name, cycle, make, run):
        self.name = name
        self.cycle = cycle
        self.make = make
        self.run = run


# Shapes repeat within a cycle so that, at the seven to ten cycles of a
# run, the task at the tail percentile and the median task each fall in
# the middle of one shape's cluster of times, not on the edge between two
# clusters; each cycle has an odd number of tasks for the same reason.
WORKLOADS = {
    w.name: w for w in (
        # Dense symbolic series algebra: Poly.mul, mat_mul and the DGLA
        # bracket, with no point evaluation and no pivot search, so
        # certificate work should leave it unchanged.  (3, 4, "real") is
        # the scene of seconds that resolves small changes.
        Workload(
            "series_solve",
            [(3, 4, "real"), (3, 4, "real"), (2, 4, "real"),
             (3, 5, "complex"), (2, 6, "complex")],
            _make_solve, _run_solve),
        # Certificate search on matrices evaluated at points (scalar_rref
        # and pivot search); the negative verdicts time the witness and
        # retry paths too.
        Workload(
            "gk_certify",
            [("flat_family", 2), ("pullback", 2), ("sign_flip", 2),
             ("tangent", 2), ("l_sigma", 2),
             ("flat", 3), ("flat_family", 3), ("flat_family", 3),
             ("pullback", 3), ("pullback", 3), ("sign_flip", 3),
             ("tangent", 3), ("l_sigma", 3)],
            _make_gk, _run_gk),
        # The same certificate layer in t-series mode on high-degree
        # polynomials (Poly.eval, poly_det): a change that trades
        # low-degree point evaluation against series evaluation shows as
        # a split between this workload and gk_certify.
        Workload(
            "deform_certify",
            [("chain", 2, 3), ("chain", 3, 3), ("chain", 3, 3),
             ("chain", 2, 4), ("twistor", 2, 2), ("twistor", 2, 3),
             ("twistor", 2, 4)],
            _make_chain, _run_chain),
    )
}


def _scene(gk, workload, shape, master, seen):
    """Draw the next scene of ``shape``, redrawing any repeat of a scene
    already in this run."""
    for _ in range(1000):
        data, key, expect = workload.make(gk, shape, master)
        rng_seed = master.getrandbits(64)
        key = (shape, rng_seed if key is None else key)
        if key not in seen:
            seen.add(key)
            return Scene(workload.name, shape, data,
                         random.Random(rng_seed), expect)
    raise RuntimeError(f"cannot draw a fresh scene of shape {shape!r}")


def scene_cycles(gk, workload, stream, cycles, seen=None):
    """``cycles`` lists of scenes, one per cycle, drawn from ``stream``."""
    master = random.Random(f"{workload.name}:{stream}")
    seen = set() if seen is None else seen
    return [[_scene(gk, workload, shape, master, seen)
             for shape in workload.cycle] for _ in range(cycles)]


def golden_cycle(gk, workload, seen=None):
    """The one cycle of scenes whose exact outputs ``golden.json`` pins."""
    return scene_cycles(gk, workload, "golden", 1, seen)[0]


def run_task(gk, scene):
    """Run one scene; return its verdict and a function that renders its
    exact outputs as a list of strings."""
    return WORKLOADS[scene.workload].run(gk, scene)


def digest(renders) -> str:
    return hashlib.sha256("\n".join(renders).encode()).hexdigest()

