"""Graph recognition by one division, against the former covector lifts.

``graph_to_bivector`` reads the bivector of a graph frame as P = V C^{-1},
V and C the vector and covector blocks of dim generators, by one exact
division.  The route it replaced lifted each coordinate covector through
the covector block by its own span certificate; that route is kept here
as the reference (``_covector_lifts_reference`` of ``test_genkahler``).
Hypothesis compares the two on graphs of random antisymmetric P, on the
same graphs from other generators (a polynomial combination, a
non-constant scale) and with a redundant (dim + 1)-th generator, with
``tmax`` None and 2, on plain and parameter models.  Each case also has
its closed-form answer, P mod t^{tmax+1}.  A frame whose covector block is
singular, or that has fewer than dim generators, must be refused by both
routes, with the origin as witness point.

Graphs of rational bivectors P = N / d, which the members of a
generalized Kahler family carry, are decided by the real Poisson helper
against the former frame-only decision (a real frame, a graph over its
covector block, involutive), and the Jacobiator of N / d against
d^3 times that of a polynomial P.
"""
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gkdirac import frames, genkahler, linalg, poisson
from gkdirac.brackets import unit_vector
from gkdirac.errors import (CertificateError, SingularityError,
                            UnsupportedSceneError)
from gkdirac.frames import (DiracFrame, GVField, frames_equal,
                            graph_bivector, involutivity_report)
from gkdirac.genkahler import (gc_from_dirac, gk_check, gk_deform_family,
                               graph_to_bivector, half_i_difference)
from gkdirac.linalg import Span, generic_rank, mat_t_truncate, \
    mat_transpose, span_certificate
from gkdirac.model import Model
from gkdirac.poisson import Bivector, schouten_defect
from gkdirac.poly import Poly
from gkdirac.scalars import Scalar

from test_genkahler import (M2, _covector_lifts_reference,
                            _pulled_back_kahler_pair, hermitian_form)

PLAIN, PARAM = Model(2), Model(2, param=True)
N = 2
MODELS = [(PLAIN, None), (PLAIN, 2), (PARAM, None), (PARAM, 2)]
_SEEDS = st.integers(0, 10 ** 6)
_MESSAGE = "outside the covector span"


def _polys(max_t):
    """Sums of up to two terms of degree at most 1 in each of z1, z2,
    zbar1, zbar2, and at most ``max_t`` in t."""
    coeffs = st.sampled_from([1, -1, 2, Scalar(0, 1), Scalar(1, -1)])
    term = st.tuples(coeffs, *[st.integers(0, 1)] * (2 * N),
                     st.integers(0, max_t))
    return st.lists(term, max_size=2).map(lambda terms: Poly.sum(N, [
        Poly(N, {tuple(e): c if isinstance(c, Scalar) else Scalar(c)})
        for c, *e in terms]))


@st.composite
def _bivectors(draw, model, max_t):
    """A sum of up to three terms f e_a ^ e_b, zero included."""
    dim = model.dim
    mat = [[model.zero_poly()] * dim for _ in range(dim)]
    pairs = [(a, b) for a in range(dim) for b in range(a + 1, dim)]
    for a, b in draw(st.lists(st.sampled_from(pairs), max_size=3,
                              unique=True)):
        f = draw(_polys(max_t))
        mat[a][b], mat[b][a] = f, -f
    return Bivector(model, mat)


# a polynomial scale of one generator: det C is this, not a unit
_SCALES = [Poly.const(N, Scalar(3)), PLAIN.z(0),
           PLAIN.z(1) * PLAIN.zbar(0) + PLAIN.poly(1)]


@st.composite
def _graph_frames(draw, model, tmax):
    """(P, the graph of P from other generators): e_0 + f e_1 first, the
    rest reversed, one generator scaled by a polynomial."""
    P = draw(_bivectors(model, 3 if tmax is not None else 1))
    g = graph_bivector(model, P.mat).gens
    f = draw(_polys(1))
    k = draw(st.integers(0, model.dim - 1))
    gens = [(g[0] + g[1].poly_mul(f)).t_truncate(tmax)] + g[:0:-1]
    gens[k] = gens[k].poly_mul(draw(st.sampled_from(_SCALES)))
    return P, DiracFrame(model, gens, label="mixed")


def _former(frame, rng, tmax):
    """The bivector matrix by the former route: one span certificate and
    one lift per coordinate covector."""
    model = frame.model
    units = [unit_vector(model, a) for a in range(model.dim)]
    return mat_transpose(_covector_lifts_reference(frame, units, rng,
                                                   _MESSAGE, tmax))


def _agree(P, frame, tmax, seed):
    got = graph_to_bivector(frame, random.Random(seed), tmax=tmax)
    assert got.mat == _former(frame, random.Random(seed + 1), tmax)
    assert got.mat == mat_t_truncate(P.mat, tmax)


@pytest.mark.parametrize("model, tmax", MODELS)
@given(data=st.data(), seed=_SEEDS)
def test_graphs_of_random_bivectors(model, tmax, data, seed):
    P = data.draw(_bivectors(model, 3 if tmax is not None else 1))
    frame = graph_bivector(model, P.mat).t_truncate(tmax)
    _agree(P, frame, tmax, seed)


@pytest.mark.parametrize("model, tmax", MODELS)
@given(data=st.data(), seed=_SEEDS)
def test_graphs_from_other_generators(model, tmax, data, seed):
    P, frame = data.draw(_graph_frames(model, tmax))
    _agree(P, frame, tmax, seed)


@pytest.mark.parametrize("model, tmax", MODELS)
@given(data=st.data(), seed=_SEEDS)
def test_a_redundant_generator_is_pivoted_away(model, tmax, data, seed):
    P, frame = data.draw(_graph_frames(model, tmax))
    g = frame.gens
    i, j = data.draw(st.lists(st.integers(0, model.dim - 1), min_size=2,
                              max_size=2, unique=True))
    extra = (g[i] + g[j].poly_mul(data.draw(_polys(1)))).t_truncate(tmax)
    at = data.draw(st.integers(0, model.dim))
    redundant = DiracFrame(model, g[:at] + [extra] + g[at:])
    assert len(redundant) == model.dim + 1
    _agree(P, redundant, tmax, seed)


@pytest.mark.parametrize("tmax", [None, 2])
@given(data=st.data(), seed=_SEEDS)
def test_a_redundant_t_multiple_is_pivoted_away(tmax, data, seed):
    # t g_k (mod t^{tmax+1}) has at most the term count of g_k and comes
    # first; it vanishes on the t = 0 slice, where the pivot search looks
    # with tmax, so the kept block has an invertible t^0 part.  A block
    # holding it would divide truncated generators exactly, and fail.
    P, frame = data.draw(_graph_frames(PARAM, tmax))
    g = frame.gens
    k = data.draw(st.integers(0, PARAM.dim - 1))
    redundant = DiracFrame(PARAM, [g[k].poly_mul(PARAM.t(), tmax=tmax)] + g)
    _agree(P, redundant, tmax, seed)


def _former_refuses(frame, rng, tmax):
    """The former route: some coordinate covector has no span
    certificate over the covector block."""
    model = frame.model
    span = Span([list(g.cov) for g in frame.gens], model, tmax)
    return any(not span_certificate(span, unit_vector(model, a), rng)[0]
               for a in range(model.dim))


@pytest.mark.parametrize("model, tmax", MODELS)
@given(data=st.data(), seed=_SEEDS)
def test_a_singular_covector_block_is_refused_with_a_point(model, tmax, data,
                                                           seed):
    _P, frame = data.draw(_graph_frames(model, tmax))
    g = frame.gens
    i, j = data.draw(st.lists(st.integers(0, model.dim - 1), min_size=2,
                              max_size=2, unique=True))
    if data.draw(st.booleans()):
        # the covector of generator i becomes a multiple of generator j's,
        # with a vector part of its own: det C is identically 0
        vec = [data.draw(_polys(1)) for _ in range(model.dim)]
        h = data.draw(_polys(1))
        cov = [c.mul(h) for c in g[j].cov]
        gens = list(g)
        gens[i] = GVField(model, vec, cov).t_truncate(tmax)
    else:
        gens = g[:i] + g[i + 1:]  # fewer than dim generators
    singular = DiracFrame(model, gens)
    with pytest.raises(SingularityError, match="not a bivector graph") as err:
        graph_to_bivector(singular, random.Random(seed), tmax=tmax)
    # the rank loss holds at every point, so the origin witnesses it
    assert repr(err.value.point) == repr(model.origin())
    assert _former_refuses(singular, random.Random(seed + 1), tmax)


@pytest.mark.parametrize("tmax", [None, 2])
def test_graph_recognition_neither_lifts_nor_certifies_a_span(monkeypatch,
                                                              tmax):
    def refused(*_args, **_kwargs):
        raise AssertionError("graph recognition made a span query")

    for module in (frames, linalg):
        monkeypatch.setattr(module, "span_certificate", refused)
    for module in (frames, poisson):
        monkeypatch.setattr(module, "_covector_lifts", refused)
    one, z1 = PLAIN.poly(1), PLAIN.z(0)
    P = Bivector.wedge_pair(PLAIN, 0, 1, z1 + one)
    g = graph_bivector(PLAIN, P.mat).gens
    frame = DiracFrame(PLAIN, [g[0] + g[1].poly_mul(z1)] + g[:0:-1])
    got = graph_to_bivector(frame, random.Random(5), tmax=tmax)
    assert got == P
    assert not hasattr(genkahler, "_covector_lifts")


# ---------------------------------------------------------------------------
# Rational bivectors: the members of a deformed family
# ---------------------------------------------------------------------------

_z1, _z2, _zb1, _zb2 = (PLAIN.z(0), PLAIN.z(1), PLAIN.zbar(0),
                        PLAIN.zbar(1))
# denominators d of P = N / d: real ones first, then two that are not
_DENOMS = [_z1 * _zb1 + PLAIN.poly(1), _z2 + _zb2,
           _z1 * _zb2 + _z2 * _zb1 + PLAIN.poly(2),
           _z1 + PLAIN.poly(1), _z1 * _zb1.scale(Scalar(0, 1)) + _z2]


def _former_real_graph(gamma, rng):
    """The former frame-only decision of a member: ``gamma`` is a real
    frame, a graph over its covector block, and involutive."""
    model = gamma.model
    try:
        if not frames_equal(gamma, gamma.conj(), rng):
            return False
    except (SingularityError, UnsupportedSceneError):
        return False
    cov_rows = [[g.cov[i] for g in gamma.gens] for i in range(model.dim)]
    if generic_rank(cov_rows, model, rng) != model.dim:
        return False
    return bool(involutivity_report.check(gamma, rng))


@settings(deadline=None)  # the frame route can outlast the default
@given(data=st.data(), seed=_SEEDS)
def test_rational_graphs_are_decided_as_by_the_frame_route(data, seed):
    Q = data.draw(_bivectors(PLAIN, 0).filter(bool))
    N = Bivector(PLAIN, [[a + b for a, b in zip(r, s)]
                         for r, s in zip(Q.mat, Q.conj().mat)]) \
        if data.draw(st.booleans()) else Q  # real, or not in general
    d = data.draw(st.sampled_from(_DENOMS))
    # the graph of N / d, generated by N xi + d xi, one generator scaled
    g = [GVField(PLAIN, h.vec, [c * d for c in h.cov])
         for h in graph_bivector(PLAIN, N.mat).gens]
    k = data.draw(st.integers(0, PLAIN.dim - 1))
    g[k] = g[k].poly_mul(data.draw(st.sampled_from(_SCALES)))
    gamma = DiracFrame(PLAIN, g)
    pi = None
    with mock.patch.object(genkahler, "half_i_difference",
                           lambda f1, f2, rng, tmax=None: f1):
        try:
            pi = genkahler._real_poisson(gamma, gamma, random.Random(seed))
        except genkahler._RationalGraph:
            got = True  # certified; N / d is not polynomial
        except genkahler._REFUSALS:
            got = False
        else:
            got = True
    assert got == _former_real_graph(gamma, random.Random(seed + 1))
    if pi is not None:
        assert [[x * d for x in row] for row in pi.pi.mat] == N.mat


@pytest.mark.parametrize("model", [PLAIN, PARAM])
@given(data=st.data())
def test_the_jacobiator_of_a_quotient_scales_by_the_cube(model, data):
    P = data.draw(_bivectors(model, 1))
    d = data.draw(_polys(1).filter(bool))
    N = Bivector(model, [[x * d for x in row] for row in P.mat])
    want = {k: d * d * d * v for k, v in schouten_defect(P).items()}
    assert genkahler._jacobi_defect(N, d) == want
    assert genkahler._jacobi_defect(P) == schouten_defect(P)


def _member_holds(f, rng):
    """The member decision of ``gk_deform_family`` for one frame: a
    rational bivector that passes every check holds."""
    try:
        genkahler._real_poisson(f, f.conj(), rng)
    except genkahler._RationalGraph:
        return True
    except genkahler._REFUSALS:
        return False
    return True


@pytest.mark.parametrize("h, want", [(_z1 * _z1, True),
                                     (_z1 * _z1 * _z1, True),
                                     (_z1 * _z2 + _z1, False)])
@pytest.mark.parametrize("seed", range(2))
def test_members_of_a_pulled_back_family_match_the_frame_route(h, want,
                                                               seed):
    # w_2 = z_2 + h(z_1): det(1 + F_t pi) is not constant in z, so the
    # member bivectors pi (1 + F_t pi)^{-1} are rational, not polynomial
    rng = random.Random(seed)
    pair = gk_check(*_pulled_back_kahler_pair(M2, h), rng).pair
    fam = gk_deform_family(pair, hermitian_form(M2, tpower=1), rng, tmax=3)
    rational = 0
    for tv, conds, _verdict in fam.checked:
        s = Scalar(tv)
        holds = []
        for f in (fam.L1.substitute_t(s), fam.L2.substitute_t(s)):
            rng = random.Random(seed + 7)
            holds.append(_member_holds(f, rng))
            gamma = half_i_difference(f, f.conj(), rng)
            assert holds[-1] == _former_real_graph(gamma, rng)
            try:
                graph_to_bivector(gamma, rng)
            except genkahler._RationalGraph:
                rational += 1
        assert conds["real_poisson_graphs"] == all(holds) == want
    assert rational == len(fam.checked)  # the second frame of each member


def test_a_rational_member_bivector_is_refused_where_it_is_kept():
    rng = random.Random(0)
    pair = gk_check(*_pulled_back_kahler_pair(M2, _z1 * _z1), rng).pair
    fam = gk_deform_family(pair, hermitian_form(M2, tpower=1), rng, tmax=3)
    s = Scalar(Fraction(-1, 8))
    f1, f2 = fam.L1.substitute_t(s), fam.L2.substitute_t(s)
    assert _member_holds(f2, random.Random(1))
    report = gk_check(f1, f2, random.Random(3))
    assert report.conditions["real_poisson_graphs"] is False
    assert "not polynomial" in report.witnesses["real_structure_second"]
    with pytest.raises(UnsupportedSceneError, match="not polynomial"):
        gc_from_dirac(f2, random.Random(4))
    # h = z1 z2 + z1: the rational member bivector fails the Jacobi identity
    pair = gk_check(*_pulled_back_kahler_pair(M2, _z1 * _z2 + _z1),
                    random.Random(0)).pair
    fam = gk_deform_family(pair, hermitian_form(M2, tpower=1),
                           random.Random(0), tmax=3)
    f2 = fam.L2.substitute_t(s)
    with pytest.raises(CertificateError, match="Jacobi identity"):
        genkahler._real_poisson(f2, f2.conj(), random.Random(1))
