"""Frames Lagrangian by construction, against the pairing route.

A constructor that proves its frame Lagrangian records the orders it
covers in ``DiracFrame.built``: the graphs of a 2-form and of an
antisymmetric bivector, the tangent frame, ``build_L_sigma`` on a
parameter-free model, ``deformation_frame`` when sigma is of type (2,0),
and the flow-span frame of ``hamiltonian_family_check``; the gauge action, the
conjugation, a nonzero rescaling of the covectors and a cut carry the
record over.  ``frames_equal`` and ``involutivity_report.check`` then pair
no such frame again at a covered order.

The pairing route is kept here as the reference: at every order the
record covers (None and 0-3), each generator pairing of the frame
vanishes and an unrecorded copy passes ``_not_lagrangian``.  Hypothesis
draws the scenes: 2-forms, antisymmetric and other bivector matrices,
sigma with and without phi at each cut, degree-two elements with a gamma
part, and real families.  A record is exact: a frame cut mod t^{k+1}
covers the orders up to k and not the rational functions, and a frame
whose hypothesis fails records nothing and keeps its refusal.  A rational
graph {N xi + d xi} is proved a graph by ``genkahler._graph_quotient``'s
division, which builds no graph frame, and Lagrangian by one rank read at
the order asked.  Verdicts and refusal texts
on recorded frames are those of the pairing route, which names a frame by
its argument position.
"""
import random
from fractions import Fraction
from functools import reduce
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gkdirac import genkahler, hitchin
from gkdirac.errors import UnsupportedSceneError
from gkdirac.forms import MixedForm
from gkdirac.frames import (DiracFrame, GVField, _not_lagrangian,
                            dirac_scale, frames_equal, gauge_frame,
                            graph_bivector, graph_two_form,
                            involutivity_report, tangent_frame)
from gkdirac.hitchin import deformation_frame
from gkdirac.linalg import mat_add, mat_apply
from gkdirac.model import Model
from gkdirac.multivector import MVElement, bivector_matrix, form_matrix
from gkdirac.poisson import Bivector, HoloPoisson, build_L_sigma
from gkdirac.poly import Poly
from gkdirac.scalars import Scalar

N = 2
PLAIN, PARAM = Model(N), Model(N, param=True)
ORDERS = [None, 0, 1, 2, 3]
CUTS = st.none() | st.integers(0, 3)

# the reference proves each frame at five orders per example
_SLOW = settings(deadline=None)


# ---------------------------------------------------------------------------
# The pairing route, kept as the reference
# ---------------------------------------------------------------------------

def _fresh(frame):
    """The same generators with no record."""
    return DiracFrame(frame.model, frame.gens, label=frame.label)


def _covered(frame):
    return [k for k in ORDERS if k in frame.built]


def _cut(tmax):
    """The orders a frame exact at every order keeps after a cut."""
    return ORDERS if tmax is None else list(range(tmax + 1))


def _proved_by_pairings(frame, seed):
    """At each order the record covers, every generator pairing vanishes
    and an unrecorded copy passes ``_not_lagrangian``."""
    for k in _covered(frame):
        copy = _fresh(frame)
        defect = copy.isotropy_defect(k)
        assert not any(defect), (frame.label, k)
        assert _not_lagrangian(copy, defect, random.Random(seed), k) is None


def _frames_equal_reference(f1, f2, rng, tmax=None):
    """Both frames shown Lagrangian by their pairings and rank, in
    argument order, then every cross pairing."""
    if f2.model != f1.model:
        raise ValueError("mixed models")
    for name, f in (("first", f1), ("second", f2)):
        copy = _fresh(f)
        reason = _not_lagrangian(copy, copy.isotropy_defect(tmax), rng, tmax)
        if reason is not None:
            raise UnsupportedSceneError(
                f"frames_equal needs Lagrangian frames; the {name} frame "
                f"{f.label!r} is not: {reason}")
    return not any(a.pairing(b, tmax) for a in f1.gens for b in f2.gens)


def _outcome(route, f1, f2, seed, tmax):
    """The bool, or the exception type and text."""
    try:
        return route(f1, f2, random.Random(seed), tmax=tmax)
    except UnsupportedSceneError as exc:
        return UnsupportedSceneError, str(exc)


def _agree(f1, f2, seed, tmax):
    """``frames_equal`` on the frames as given, records and all, against
    the reference."""
    got = _outcome(frames_equal, f1, f2, seed, tmax)
    assert got == _outcome(_frames_equal_reference, f1, f2, seed, tmax)
    return got


def _same_involutivity(frame, seed, tmax, H=None):
    """The check on ``frame`` and on an unrecorded copy differ only in the
    proof they report; the report on ``frame`` is returned."""
    rep = involutivity_report.check(frame, random.Random(seed), H=H,
                                    tmax=tmax)
    ref = involutivity_report.check(_fresh(frame), random.Random(seed), H=H,
                                    tmax=tmax)
    assert ref.stats["lagrangian_proof"] == "pairings"

    def rest(r):
        return (r.checks, r.witnesses,
                {k: v for k, v in r.stats.items() if k != "lagrangian_proof"})

    assert rest(rep) == rest(ref)
    return rep


# ---------------------------------------------------------------------------
# Scenes
# ---------------------------------------------------------------------------

_COEFFS = st.sampled_from([1, -1, 2, Fraction(1, 2), Scalar(0, 1),
                           Scalar(1, -1)])


def _polys(max_t):
    """Sums of up to two terms of degree at most 1 in each of z1, z2,
    zbar1, zbar2, and at most ``max_t`` in t."""
    term = st.tuples(_COEFFS, *[st.integers(0, 1)] * (2 * N),
                     st.integers(0, max_t))
    return st.lists(term, max_size=2).map(lambda terms: Poly.sum(N, [
        Poly(N, {tuple(e): c if isinstance(c, Scalar) else Scalar(c)})
        for c, *e in terms]))


@st.composite
def _two_form(draw, model):
    """A 2-form on up to three legs, dt legs included on a parameter
    model."""
    legs = [((0, 1), (), False), ((), (0, 1), False)]
    legs += [((i,), (j,), False) for i in range(N) for j in range(N)]
    if model.param:
        legs += [((i,), (), True) for i in range(N)]
    out = MixedForm.zero(model)
    for holo, anti, dt in draw(st.lists(st.sampled_from(legs), min_size=1,
                                        max_size=3, unique=True)):
        out = out + MixedForm.monomial(model, draw(_polys(3)), holo, anti,
                                       dt=dt)
    return out


@st.composite
def _bivector(draw, model, legs=None):
    """A bivector on up to two pairs of ``legs`` (every leg by default)."""
    legs = range(model.dim) if legs is None else legs
    pairs = [(a, b) for a in legs for b in legs if a < b]
    return Bivector(model, reduce(mat_add, [
        Bivector.wedge_pair(model, a, b, draw(_polys(3))).mat
        for a, b in draw(st.lists(st.sampled_from(pairs), min_size=1,
                                  max_size=2, unique=True))]))


@st.composite
def _phi(draw, model):
    """A (1,1) element on up to two legs d_i (x) dzbar_j, or zero."""
    legs = [(i, j) for i in range(N) for j in range(N)]
    out = MVElement.zero(model)
    for i, j in draw(st.lists(st.sampled_from(legs), max_size=2,
                              unique=True)):
        out = out + MVElement.monomial(model, draw(_polys(3)), vecs=(i,),
                                       bars=(j,))
    return out


@st.composite
def _eps(draw, model):
    """A degree-two element rho + phi + gamma with a nonzero gamma."""
    rho = MVElement.monomial(model, draw(_polys(3)), vecs=(0, 1))
    gamma = MVElement.monomial(model, draw(_polys(3).filter(bool)),
                               bars=(0, 1))
    return rho + draw(_phi(model)) + gamma


def _skewed(model, P, f):
    """``P`` with ``f`` added to entry (0, 1) only: not antisymmetric."""
    Q = [list(row) for row in P]
    Q[0][1] = Q[0][1] + f
    return Q


def _deformation_reference(hp, eps, tmax):
    """The graph deformation from its formula, with no record: columns
    X + phi X + i_X gamma over the antiholomorphic frame, and
    (sigma + rho) zeta + zeta - phi^* zeta over the holomorphic covectors,
    gamma read as a 2-form."""
    model = hp.model
    rho, phi, gamma = (eps.component(2, 0), eps.component(1, 1),
                       eps.component(0, 2))
    shape = HoloPoisson(model, phi=phi)
    G = form_matrix(MixedForm.sum(model, [
        MixedForm.monomial(model, c, (), J)
        for (_I, J), c in gamma.comps.get((0, 2), {}).items()]))
    S = mat_add(hp.sigma.mat, bivector_matrix(rho))
    gens = [GVField(model, vec=X, cov=mat_apply(G, X))
            for X in shape.antiholo_frame_columns()]
    gens += [GVField(model, vec=mat_apply(S, zeta), cov=zeta)
             for zeta in shape.holo_covector_columns()]
    return DiracFrame(model, gens, label="reference").t_truncate(tmax)


def _flow_span(piv, tmax, seed):
    """The flow-span frame that ``hamiltonian_family_check`` builds for
    (pi_t, 0), with the report of its involutivity check."""
    seen = []
    check = involutivity_report.check

    def recording(frame, rng, H=None, tmax=None):
        rep = check(frame, rng, H=H, tmax=tmax)
        seen.append((frame, H, rep))
        return rep

    with mock.patch.object(involutivity_report, "check",
                           staticmethod(recording)):
        try:
            hitchin.hamiltonian_family_check(
                (piv, MixedForm.zero(piv.model)), random.Random(seed),
                mode="real", tmax=tmax)
        except UnsupportedSceneError as exc:
            # with a cut, the graph recovery after the check can find the
            # difference frame short of rank on the t = 0 slice; the frame
            # read here was checked before that
            assert "flow-span+tangent+dt" in str(exc)
    [found] = seen
    return found


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", [PLAIN, PARAM])
@_SLOW
@given(data=st.data(), seed=st.integers(0, 10 ** 6))
def test_graphs_are_lagrangian_at_every_order(model, data, seed):
    T = tangent_frame(model)
    B = graph_two_form(data.draw(_two_form(model)))
    P = graph_bivector(model, data.draw(_bivector(model)).mat)
    for frame in (T, B, P):
        assert _covered(frame) == ORDERS
        _proved_by_pairings(frame, seed)
    tmax = data.draw(CUTS)
    _agree(B, P, seed, tmax)
    _agree(P, B.t_truncate(tmax), seed, tmax)
    assert _same_involutivity(P, seed, tmax).stats["lagrangian_proof"] == \
        "construction"


@pytest.mark.parametrize("model", [PLAIN, PARAM])
@_SLOW
@given(data=st.data(), seed=st.integers(0, 10 ** 6))
def test_a_matrix_that_is_not_antisymmetric_records_nothing(model, data,
                                                            seed):
    P = data.draw(_bivector(model)).mat
    f = data.draw(_polys(3).filter(bool))
    frame = graph_bivector(model, _skewed(model, P, f))
    assert _covered(frame) == []
    tmax = data.draw(CUTS)
    # generators 0 and 1 pair to f / 2, which no cut can remove: f has
    # t-degree at most 3, so some order up to 3 sees it
    rep = _same_involutivity(frame, seed, 3)
    assert rep.checks == {"lagrangian": False}
    assert rep.witnesses["not_lagrangian"] == "a generator pairing is nonzero"
    assert rep.stats["lagrangian_proof"] == "pairings"
    T = tangent_frame(model)
    for f1, f2, name in ((frame, T, "first"), (T, frame, "second")):
        got = _agree(f1, f2, seed, None)
        assert got[0] is UnsupportedSceneError and name in got[1]
        _agree(f1, f2, seed, tmax)


# ---------------------------------------------------------------------------
# L_sigma and its graph deformation
# ---------------------------------------------------------------------------

@_SLOW
@given(data=st.data(), tmax=CUTS, seed=st.integers(0, 10 ** 6))
def test_l_sigma_is_lagrangian_at_the_orders_of_its_cut(data, tmax, seed):
    hp = HoloPoisson(PLAIN, sigma=data.draw(_bivector(PLAIN)),
                     phi=data.draw(_phi(PLAIN)))
    L = build_L_sigma(hp, tmax=tmax, check=False)
    assert _covered(L) == _cut(tmax)
    _proved_by_pairings(L, seed)
    assert _same_involutivity(L, seed, tmax).stats["lagrangian_proof"] == \
        "construction"
    # a later cut keeps the orders up to the smaller one
    k = data.draw(st.integers(0, 3))
    assert _covered(L.t_truncate(k)) == _cut(k if tmax is None
                                             else min(k, tmax))
    other = HoloPoisson(PLAIN, sigma=data.draw(_bivector(PLAIN)),
                        phi=hp.phi)
    _agree(L, build_L_sigma(other, tmax=tmax, check=False), seed, tmax)


@_SLOW
@given(data=st.data(), tmax=CUTS, seed=st.integers(0, 10 ** 6))
def test_l_sigma_on_a_parameter_model_records_nothing(data, tmax, seed):
    # 2n generators on 2n + 1 legs: of rank below dim everywhere
    hp = HoloPoisson(PARAM, sigma=data.draw(_bivector(PARAM, range(2 * N))),
                     phi=data.draw(_phi(PARAM)))
    L = build_L_sigma(hp, tmax=tmax, check=False)
    assert len(L) == 2 * N and _covered(L) == []
    rep = _same_involutivity(L, seed, tmax)
    assert rep.checks == {"lagrangian": False}
    assert "rank" in rep.witnesses["not_lagrangian"]
    for f1, f2, name in ((L, tangent_frame(PARAM), "first"),
                         (tangent_frame(PARAM), L, "second")):
        got = _agree(f1, f2, seed, tmax)
        assert got[0] is UnsupportedSceneError
        assert name in got[1] and "rank" in got[1]


@_SLOW
@given(data=st.data(), tmax=CUTS, seed=st.integers(0, 10 ** 6))
def test_the_graph_deformation_is_lagrangian_at_the_orders_of_its_cut(
        data, tmax, seed):
    hp = HoloPoisson(PLAIN, sigma=data.draw(_bivector(PLAIN, range(N))))
    eps = data.draw(_eps(PLAIN))
    frame = deformation_frame(hp, eps, tmax=tmax)
    assert _covered(frame) == _cut(tmax)
    _proved_by_pairings(frame, seed)
    # the frame its formula gives, unrecorded, is paired into it
    reference = _deformation_reference(hp, eps, tmax)
    assert _agree(reference, frame, seed, tmax) is True
    assert _agree(frame, reference, seed, tmax) is True


@_SLOW
@given(data=st.data(), tmax=CUTS, seed=st.integers(0, 10 ** 6))
def test_a_sigma_with_a_mixed_leg_records_nothing(data, tmax, seed):
    # sigma has the leg d1 ^ d/dzbar2, which gamma = c dzbar1 ^ dzbar2
    # pairs with: generators 0 and 2 pair to c b / 2 at t^0
    b, c = data.draw(_COEFFS), data.draw(_COEFFS)
    sigma = data.draw(_bivector(PLAIN, range(N))) + Bivector.wedge_pair(
        PLAIN, 0, N + 1, b)
    drawn = data.draw(_eps(PLAIN))
    eps = drawn.component(2, 0) + drawn.component(1, 1) + MVElement.monomial(
        PLAIN, Poly.const(N, c), bars=(0, 1))
    frame = deformation_frame(HoloPoisson(PLAIN, sigma=sigma), eps, tmax=tmax)
    assert _covered(frame) == []
    rep = _same_involutivity(frame, seed, tmax)
    assert rep.checks == {"lagrangian": False}
    assert rep.witnesses["not_lagrangian"] == "a generator pairing is nonzero"
    T = tangent_frame(PLAIN)
    for f1, f2, name in ((frame, T, "first"), (T, frame, "second")):
        got = _agree(f1, f2, seed, tmax)
        assert got[0] is UnsupportedSceneError
        assert name in got[1] and "pairing" in got[1]


# ---------------------------------------------------------------------------
# Records carried over
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", [PLAIN, PARAM])
@_SLOW
@given(data=st.data(), tmax=CUTS, seed=st.integers(0, 10 ** 6))
def test_gauge_conjugation_scaling_and_cuts_carry_the_record(model, data,
                                                             tmax, seed):
    P = graph_bivector(model, data.draw(_bivector(model)).mat)
    B = data.draw(_two_form(model))
    lam = data.draw(_COEFFS)
    for frame, orders in ((gauge_frame(P, B), ORDERS),
                          (gauge_frame(P, B, tmax=tmax), _cut(tmax)),
                          (P.conj(), ORDERS), (dirac_scale(P, lam), ORDERS),
                          (P.t_truncate(tmax), _cut(tmax))):
        assert _covered(frame) == orders
        _proved_by_pairings(frame, seed)
    # a zero rescaling leaves the tangent part of a graph only, and an
    # unrecorded frame stays unrecorded
    assert _covered(dirac_scale(P, 0)) == []
    for frame in (gauge_frame(_fresh(P), B, tmax=tmax), _fresh(P).conj(),
                  dirac_scale(_fresh(P), lam), _fresh(P).t_truncate(tmax)):
        assert _covered(frame) == []
    _agree(gauge_frame(P, B, tmax=tmax), gauge_frame(_fresh(P), B, tmax=tmax),
           seed, tmax)


# ---------------------------------------------------------------------------
# The flow-span frame and the rational graph
# ---------------------------------------------------------------------------

@_SLOW
@given(data=st.data(), tmax=st.none() | st.integers(1, 3),
       seed=st.integers(0, 10 ** 6))
def test_the_flow_span_frame_covers_the_order_past_its_cut(data, tmax, seed):
    P = data.draw(_bivector(PLAIN))
    frame, H, rep = _flow_span(P + P.conj(), tmax, seed)
    assert frame.label == "flow-span" and _covered(frame) == ORDERS
    # its d/dt leg needs the pairings one order past the cut tmax - 1
    _proved_by_pairings(frame, seed)
    cut = None if tmax is None else tmax - 1
    assert rep.stats["lagrangian_proof"] == "construction"
    assert _same_involutivity(frame, seed, cut, H=H).checks == rep.checks


@_SLOW
@given(bivector=_bivector(PLAIN), seed=st.integers(0, 10 ** 6))
def test_the_rational_graph_is_lagrangian_over_the_rational_functions_only(
        bivector, seed):
    # {N xi + d xi} with d = 1 + z1 zbar1: N / d is not polynomial unless
    # d divides N.  The division proves the frame the graph of P / den, with
    # no graph frame built, and the rank read records the proof at the order
    # asked, the rational functions, only
    d = PLAIN.poly(1) + PLAIN.z(0) * PLAIN.zbar(0)
    frame = DiracFrame(PLAIN, [GVField(PLAIN, vec=col,
                                       cov=[d if k == j else PLAIN.zero_poly()
                                            for k in range(PLAIN.dim)])
                               for j, col in enumerate(zip(*bivector.mat))])
    P, den = genkahler._graph_quotient(frame, random.Random(seed))
    scale = PLAIN.poly(1) if den is None else den
    for g in frame:
        assert mat_apply(P.mat, g.cov) == [x * scale for x in g.vec]
    assert _covered(frame) == [] and frame.lagrangian == {None}
    copy = _fresh(frame)
    defect = copy.isotropy_defect(None)
    assert not any(defect)
    assert _not_lagrangian(copy, defect, random.Random(seed), None) is None
    for k in range(4):
        if den is None:
            assert genkahler.graph_to_bivector(frame, random.Random(seed),
                                               tmax=k) == P.t_truncate(k)
        else:
            with pytest.raises(UnsupportedSceneError, match="not polynomial"):
                genkahler.graph_to_bivector(frame, random.Random(seed),
                                            tmax=k)
