"""Frame equality and involutivity by exact pairings, against span
certificates.

On a Lagrangian frame (isotropic, of rank dim at a sample point) L^perp =
L, so ``frames_equal`` decides L1 = L2 by the cross pairings <a, b>, and
``involutivity_report.check`` decides involutivity by the Courant tensor
T(a, b, c) = <[a, b]_H, c> on generators i < j < k.  The route they
replaced is kept here as the reference: two-sided span certificates for
equality, and generic rank, isotropy and a span certificate per bracket
for involutivity.  Hypothesis compares the verdicts on graphs of closed
and non-closed 2-forms, on graphs of bivectors, and on the frames of
``build_L_sigma``, with and without a t-cut, on plain and parameter
models.  Each scene family holds positive and negative verdicts of both
checks, and each family also has its own closed-form answer (dB + H = 0,
[P, P] = 0, B1 = B2, P1 = P2), which both routes must give.

Every involutivity witness ``(i, j, (k, T_ijk))`` is recomputed from a
fresh bracket and the reference pairing, and must be the same for two
seeds; a frame that is not Lagrangian makes ``frames_equal`` raise, and
``involutivity_report.check`` refuse it, where the reference finds it not
involutive (or not isotropic, or short of rank) too.
"""
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from gkdirac.errors import UnsupportedSceneError
from gkdirac.forms import MixedForm
from gkdirac.frames import (DiracFrame, GVField, dorfman_bracket,
                            frames_equal, graph_bivector, graph_two_form,
                            involutivity_report, tangent_frame)
from gkdirac.linalg import (Span, generic_rank, mat_add, mat_t_truncate,
                            span_certificate)
from gkdirac.model import Model
from gkdirac.multivector import MVElement
from gkdirac.poisson import (Bivector, HoloPoisson, build_L_sigma,
                             schouten_defect)
from gkdirac.poly import Poly
from gkdirac.scalars import Scalar

PLAIN, PARAM = Model(2), Model(2, param=True)
N = 2
MODELS = [(PLAIN, None), (PLAIN, 2), (PARAM, None), (PARAM, 2)]


# ---------------------------------------------------------------------------
# The reference: the span route
# ---------------------------------------------------------------------------

def _pairing(u, v, tmax):
    """<u, v> = (xi(Y) + eta(X)) / 2 by plain sums, then truncated."""
    acc = Poly.zero(N)
    for a, b in zip(u.cov + v.cov, v.vec + u.vec):
        acc = acc + a * b
    return acc.scale(Scalar(Fraction(1, 2))).t_truncate(tmax)


def _span_frames_equal(f1, f2, rng, tmax):
    """Each frame's generators in the other's span, certified both ways."""
    cols1, cols2 = (mat_t_truncate([g.stack() for g in f.gens], tmax)
                    for f in (f1, f2))
    for gens, targets in ((cols1, cols2), (cols2, cols1)):
        span = Span(gens, f1.model, tmax)
        if not all(span_certificate(span, w, rng)[0] for w in targets):
            return False
    return True


def _span_involutivity(frame, rng, H, tmax):
    """The checks (rank, isotropic, involutive) by generic rank, truncated
    pairings and one span certificate per nonzero bracket [e_i, e_j]."""
    model, gens = frame.model, frame.gens
    cols = mat_t_truncate([g.stack() for g in gens], tmax)
    A = [[col[i] for col in cols] for i in range(2 * model.dim)]
    span = Span(cols, model, tmax)
    involutive = True
    for i, u in enumerate(gens):
        for v in gens[i:]:
            w = dorfman_bracket(u, v, H=H, tmax=tmax).stack()
            if any(w) and not span_certificate(span, w, rng)[0]:
                involutive = False
    return {"rank": generic_rank(A, model, rng) == model.dim,
            "isotropic": not any(_pairing(u, v, tmax) for u in gens
                                 for v in gens),
            "involutive": involutive}


def _check_witnesses(frame, H, tmax, seeds):
    """The report of ``frame`` for two seeds: the same checks and
    failing pairs.  On the Lagrangian route the witnesses are the same
    too, each a nonzero T_ijk recomputed from a fresh bracket, with k the
    first index past j whose entry is nonzero; the span route's witness
    is a sample point, which does depend on the seed."""
    reps = [involutivity_report.check(frame, random.Random(s), H=H,
                                      tmax=tmax) for s in seeds]
    first, second = (r.witnesses["failures"] for r in reps)
    assert [f[:2] for f in first] == [f[:2] for f in second]
    assert reps[0].checks == reps[1].checks
    if reps[0].stats["route"] == "lagrangian":
        assert first == second
        fresh = [GVField(frame.model, g.vec, g.cov) for g in frame.gens]
        for i, j, (k, T) in first:
            assert i < j < k
            w = dorfman_bracket(fresh[i], fresh[j], H=H, tmax=tmax)
            assert T and T == _pairing(w, fresh[k], tmax)
            assert not any(_pairing(w, fresh[m], tmax)
                           for m in range(j + 1, k))
    return reps[0]


def _agree_on_involutivity(frame, H, tmax, seeds):
    rep = _check_witnesses(frame, H, tmax, seeds[:2])
    want = _span_involutivity(frame, random.Random(seeds[2]), H, tmax)
    if rep.stats["route"] == "refused":
        assert rep.checks == {"lagrangian": False}
        assert not all(want.values())
    else:
        assert rep.checks == want
    return rep


def _agree_on_equality(f1, f2, tmax, seed):
    got = frames_equal(f1, f2, random.Random(seed), tmax=tmax)
    assert got == _span_frames_equal(f1, f2, random.Random(seed + 1), tmax)
    return got


# ---------------------------------------------------------------------------
# Scenes
# ---------------------------------------------------------------------------

_COEFFS = st.sampled_from([1, -1, 2, Fraction(1, 2), Scalar(0, 1),
                           Scalar(1, -1)])
_SEEDS = st.lists(st.integers(0, 10 ** 6), min_size=3, max_size=3)


def _polys(max_t):
    """Sums of up to two terms of degree at most 1 in each of z1, z2,
    zbar1, zbar2, and at most ``max_t`` in t."""
    term = st.tuples(_COEFFS, *[st.integers(0, 1)] * (2 * N),
                     st.integers(0, max_t))
    return st.lists(term, max_size=2).map(lambda terms: Poly.sum(N, [
        Poly(N, {tuple(e): c if isinstance(c, Scalar) else Scalar(c)})
        for c, *e in terms]))


def _two_form_legs(model):
    """The (holo, anti, dt) words of the 2-form basis."""
    legs = [((0, 1), (), False), ((), (0, 1), False)]
    legs += [((i,), (j,), False) for i in range(N) for j in range(N)]
    if model.param:
        legs += [((i,), (), True) for i in range(N)]
        legs += [((), (i,), True) for i in range(N)]
    return legs


@st.composite
def _two_forms(draw, model, max_t):
    """d of a random 1-form, or a random 2-form on up to three legs."""
    polys = _polys(max_t)
    if draw(st.booleans()):
        one = MixedForm.zero(model)
        for i in range(N):
            one = one + MixedForm.monomial(model, draw(polys), (i,), ())
            one = one + MixedForm.monomial(model, draw(polys), (), (i,))
        if model.param:
            one = one + MixedForm.monomial(model, draw(polys), dt=True)
        return one.d()
    legs = draw(st.lists(st.sampled_from(_two_form_legs(model)),
                         min_size=1, max_size=3, unique=True))
    out = MixedForm.zero(model)
    for holo, anti, dt in legs:
        out = out + MixedForm.monomial(model, draw(polys), holo, anti, dt=dt)
    return out


@st.composite
def _bivectors(draw, model, max_t):
    """One term f e_a ^ e_b, always Poisson, or a sum of two, in general
    not."""
    pairs = [(a, b) for a in range(model.dim) for b in range(a + 1, model.dim)]
    terms = [Bivector.wedge_pair(model, a, b,
                                 draw(_polys(max_t)) + model.poly(1)).mat
             for a, b in draw(st.lists(st.sampled_from(pairs), min_size=1,
                                       max_size=2, unique=True))]
    return Bivector(model, reduce(mat_add, terms))


def _mixed(frame, f, tmax):
    """The same frame from other generators: e_0 + f e_1 first, then the
    rest in reverse order."""
    g = frame.gens
    head = (g[0] + g[1].poly_mul(f, tmax=tmax)).t_truncate(tmax)
    return DiracFrame(frame.model, [head] + g[:0:-1], label="mixed")


def _with_dt(frame):
    """On a parameter model, the frame with d/dt added (the frames of
    ``build_L_sigma`` lack the t direction there)."""
    model = frame.model
    if not model.param:
        return frame
    e_t = [model.zero_poly()] * model.dim
    e_t[-1] = model.poly(1)
    return DiracFrame(model, frame.gens + [GVField(model, vec=e_t)],
                      label=frame.label)


@st.composite
def _holo_poisson(draw, model, max_t):
    """sigma = f d1^d2, or f d1^d2 + h d2^dzbar1, with a (1,1) phi =
    g d2 (x) dzbar1 or none."""
    sigma = Bivector.wedge_pair(model, 0, 1,
                                draw(_polys(max_t)) + model.poly(1))
    if draw(st.booleans()):
        sigma = Bivector(model, mat_add(sigma.mat, Bivector.wedge_pair(
            model, 1, 2, draw(_polys(max_t))).mat))
    phi = None
    if draw(st.booleans()):
        phi = MVElement.monomial(model, draw(_polys(max_t)), vecs=(1,),
                                 bars=(0,))
    return HoloPoisson(model, sigma=sigma, phi=phi)


# ---------------------------------------------------------------------------
# Differential tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model, tmax", MODELS)
@given(data=st.data(), seeds=_SEEDS)
def test_graphs_of_two_forms(model, tmax, data, seeds):
    max_t = 3 if tmax is not None else 1
    B1 = data.draw(_two_forms(model, max_t))
    twisted = data.draw(st.booleans())
    H = -B1.d() if twisted else None
    frame = graph_two_form(B1)
    rep = _agree_on_involutivity(frame, H, tmax, seeds)
    assert rep.stats["route"] == "lagrangian"
    defect = B1.d() if H is None else B1.d() + H
    assert rep.ok == defect.t_truncate(tmax).is_zero()
    # a second 2-form, equal to B1 for "same" or mod t^{tmax+1} for a
    # t^3 term under a cut, and otherwise different in general
    kind = data.draw(st.sampled_from(["same", "t3", "other"]))
    B2 = B1
    if kind == "t3":
        B2 = B1 + MixedForm.monomial(model, model.t().mul(model.t()).mul(
            model.t()).mul(model.z(0)), (0,), (1,))
    elif kind == "other":
        B2 = B1 + data.draw(_two_forms(model, max_t))
    f = data.draw(_polys(max_t))
    equal = _agree_on_equality(frame, _mixed(graph_two_form(B2), f, tmax),
                               tmax, seeds[0])
    assert equal == (B1 - B2).t_truncate(tmax).is_zero()


@pytest.mark.parametrize("model, tmax", [(PLAIN, None), (PLAIN, 2),
                                         (PARAM, None)])
@given(data=st.data(), seeds=_SEEDS)
def test_graphs_of_bivectors(model, tmax, data, seeds):
    max_t = 3 if tmax is not None else 1
    P1 = data.draw(_bivectors(model, max_t))
    frame = graph_bivector(model, P1.mat)
    rep = _agree_on_involutivity(frame, None, tmax, seeds)
    assert rep.stats["route"] == "lagrangian"
    assert rep.ok == (not schouten_defect(P1, tmax=tmax))
    P2 = P1 if data.draw(st.booleans()) else data.draw(_bivectors(model,
                                                                   max_t))
    f = data.draw(_polys(max_t))
    equal = _agree_on_equality(
        frame, _mixed(graph_bivector(model, P2.mat), f, tmax), tmax, seeds[0])
    assert equal == all(not (x - y).t_truncate(tmax) for r1, r2 in zip(
        P1.mat, P2.mat) for x, y in zip(r1, r2))


@pytest.mark.parametrize("model, tmax", MODELS)
@given(data=st.data(), seeds=_SEEDS)
def test_frames_of_holomorphic_poisson_structures(model, tmax, data, seeds):
    max_t = 3 if tmax is not None else 1
    hp = data.draw(_holo_poisson(model, max_t))
    frame = _with_dt(build_L_sigma(hp, tmax=tmax, check=False))
    # on a parameter model with a cut the frame may be isotropic mod
    # t^{tmax+1} only; it is refused, and the reference finds a bracket
    # outside it
    _agree_on_involutivity(frame, None, tmax, seeds)
    other = hp
    if data.draw(st.booleans()):
        other = data.draw(_holo_poisson(model, max_t))
    f = data.draw(_polys(max_t))
    equal = _agree_on_equality(
        frame, _mixed(_with_dt(build_L_sigma(other, tmax=tmax, check=False)),
                      f, tmax), tmax, seeds[0])
    if other is hp:
        assert equal


@pytest.mark.parametrize("tmax", [None, 1, 2])
@given(data=st.data(), seeds=_SEEDS)
def test_frames_with_the_covector_dt(tmax, data, seeds):
    # the frame HoloPoisson.certificates checks on a parameter model:
    # build_L_sigma's generators and the covector dt, none with a d/dt leg,
    # so X_c<a, b> keeps the t-order of <a, b> and the frame needs
    # isotropy mod t^{tmax+1} only, like the reference
    hp = data.draw(_holo_poisson(PARAM, 3 if tmax is not None else 1))
    dt = GVField(PARAM, cov=[PARAM.zero_poly()] * 4 + [PARAM.poly(1)])
    frame = DiracFrame(PARAM, build_L_sigma(hp, tmax=tmax, check=False).gens
                       + [dt])
    rep = _agree_on_involutivity(frame, None, tmax, seeds)
    assert (rep.stats["route"] == "lagrangian") == (
        not any(frame.isotropy_defect(tmax)))


# ---------------------------------------------------------------------------
# Worked negative verdicts and refused input
# ---------------------------------------------------------------------------

def test_a_non_closed_graph_fails_with_a_seed_free_witness():
    # B = z2 dz1^dzbar1: dB = dz2^dz1^dzbar1 reads on legs 0, 1, 2
    B = MixedForm.monomial(PLAIN, PLAIN.z(1), (0,), (0,))
    frame = graph_two_form(B)
    rep = _check_witnesses(frame, None, None, (1, 2))
    assert not rep.checks["involutive"]
    assert rep.checks["rank"] and rep.checks["isotropic"]
    assert [(i, j, k) for i, j, (k, _T) in rep.witnesses["failures"]] \
        == [(0, 1, 2)]
    # the twist by -dB makes it involutive, with no witness
    twisted = _check_witnesses(frame, -B.d(), None, (3, 4))
    assert twisted.ok and not twisted.witnesses["failures"]


def test_a_non_poisson_bivector_graph_fails_and_graphs_differ():
    # P = z1 d1^d2 + z2 d2^dzbar1 has a nonzero Jacobiator on (0, 1, 2)
    P = Bivector(PLAIN, mat_add(
        Bivector.wedge_pair(PLAIN, 0, 1, PLAIN.z(0)).mat,
        Bivector.wedge_pair(PLAIN, 1, 2, PLAIN.z(1)).mat))
    assert schouten_defect(P)
    rep = _check_witnesses(graph_bivector(PLAIN, P.mat), None, None, (5, 6))
    assert not rep.ok and rep.witnesses["failures"]
    Q = Bivector.wedge_pair(PLAIN, 0, 1, PLAIN.z(0))
    rng = random.Random(7)
    assert not frames_equal(graph_bivector(PLAIN, P.mat),
                            graph_bivector(PLAIN, Q.mat), rng)
    assert frames_equal(graph_bivector(PLAIN, Q.mat),
                        graph_bivector(PLAIN, Q.mat), rng)


def test_the_t_direction_breaks_involutivity_of_a_t_dependent_sigma():
    # [d/dt, sigma(zeta) + zeta] = (d_t sigma)(zeta) is outside L_sigma
    # + <d/dt> when sigma depends on t; exact and mod t^3 alike
    t = PARAM.t()
    hp = HoloPoisson(PARAM, sigma=MVElement.monomial(
        PARAM, PARAM.poly(1) + t, vecs=(0, 1)))
    for tmax in (None, 2):
        frame = _with_dt(build_L_sigma(hp, tmax=tmax))
        rep = _check_witnesses(frame, None, tmax, (8, 9))
        assert rep.stats["route"] == "lagrangian"
        assert not rep.ok and rep.witnesses["failures"]
    still = HoloPoisson(PARAM, sigma=MVElement.monomial(
        PARAM, PARAM.z(0), vecs=(0, 1)))
    assert involutivity_report.check(_with_dt(build_L_sigma(still)),
                                     random.Random(10)).ok


@pytest.mark.parametrize("model", [PLAIN, PARAM])
def test_a_parameter_model_needs_isotropy_one_order_further(model):
    # a = d/dz1 + t dz1 has <a, a> = t, zero mod t only.  On a parameter
    # model [a, a] = d<a, a> + d<a, a> = 2 dt is outside the frame mod t,
    # and the i < j < k entries alone would miss it; on the plain model t
    # is no coordinate and [a, a] = 0
    T = tangent_frame(model)
    a = T.gens[0] + GVField(model, cov=[model.t()] + T.gens[0].cov[1:])
    frame = DiracFrame(model, [a] + T.gens[1:])
    rep = _agree_on_involutivity(frame, None, 0, (13, 14, 15))
    assert rep.ok == (not model.param)
    if model.param:
        # refused, with no bracket formed: isotropic mod t only, where the
        # reference finds [a, a] outside the frame
        assert rep.stats["route"] == "refused"
        assert rep.witnesses["not_lagrangian"] == \
            "a generator pairing is nonzero"
        assert _span_involutivity(frame, random.Random(15), None, 0) == {
            "rank": True, "isotropic": True, "involutive": False}
    else:
        assert rep.stats["route"] == "lagrangian"
        assert rep.checks["isotropic"]


def test_frames_equal_refuses_frames_that_are_not_lagrangian():
    rng = random.Random(11)
    T = tangent_frame(PLAIN)
    # not isotropic: d/dz1 + dz1 pairs with itself to 1
    bent = DiracFrame(PLAIN, [g + GVField(PLAIN, cov=g.vec) if k == 0 else g
                              for k, g in enumerate(T.gens)], label="bent")
    with pytest.raises(UnsupportedSceneError, match="second.*pairing"):
        frames_equal(T, bent, rng)
    # isotropic, but of rank 3 < 4
    short = DiracFrame(PLAIN, T.gens[:3], label="short")
    with pytest.raises(UnsupportedSceneError, match="first.*short.*rank"):
        frames_equal(short, T, rng)
    # with a cut the rank is read on the t = 0 slice, where t d/dz1 drops
    t = PLAIN.t()
    lost = DiracFrame(PLAIN, [T.gens[0].poly_mul(t)] + T.gens[1:])
    assert frames_equal(lost, T, rng)  # over the rational functions
    with pytest.raises(UnsupportedSceneError, match="rank"):
        frames_equal(lost, T, rng, tmax=2)


def test_frames_equal_refuses_mixed_models():
    with pytest.raises(ValueError, match="mixed models"):
        frames_equal(tangent_frame(PLAIN), tangent_frame(PARAM),
                     random.Random(12))
