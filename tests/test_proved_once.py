"""Each fact of ``gk_check`` proved once, against the former double proofs.

* Graph recognition.  ``genkahler._graph_quotient`` reads P = N / d off a
  frame by one division, and the division's identity N C = d V proves the
  frame a graph: the inverse routes certify it, the adjugate routes check
  it, and any further generator is checked against it.  The former route
  also built the graph {N xi + d xi} and compared it with the frame by
  ``frames_equal``; it is kept here as the reference.  Hypothesis compares
  the two on polynomial graphs, rational graphs, frames with a redundant
  generator inside or outside the graph, and frames that are not graphs,
  on plain and parameter models with ``tmax`` None and 1-3: the same
  (N, d), or the same refusal type and text, and the same draws from the
  random source afterwards.  A bad adjugate is refused.
* ``half_i_difference`` is one weighted fibrewise sum, equal generator by
  generator to the former dirac_sum of a rescaled frame, rescaled again.
* ``gk_check`` compares Q = -2i(sigma - conj sigma) of sigma_+ and sigma_-
  directly, as ``type_defects`` has certified type (2,0): the defects are
  empty exactly when ``imag_Q``'s reconstruction holds, and on every pair
  with a holomorphic Poisson pair both Q equal ``imag_Q``'s.
* A ``HoloPoisson`` forms its frame change once.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gkdirac import frames, genkahler, linalg, poisson
from gkdirac.errors import (CertificateError, SingularityError,
                            UnsupportedSceneError)
from gkdirac.frames import (DiracFrame, GVField, dirac_scale, dirac_sum,
                            frames_equal, graph_bivector, graph_two_form)
from gkdirac.genkahler import gk_check, half_i_difference
from gkdirac.linalg import (_pivot_block, mat_apply, mat_div_right, mat_mul,
                            mat_transpose, poly_adjugate, poly_det)
from gkdirac.model import Model
from gkdirac.multivector import mv_from_endo
from gkdirac.poisson import (Bivector, HoloPoisson, build_L_sigma,
                             extract_holo_poisson, imag_Q)
from gkdirac.poly import Poly
from gkdirac.scalars import Scalar

from test_genkahler import (M2, _pulled_back_kahler_pair,
                            complex_type_frame, hermitian_form, kahler_pair)
from test_graph_recognition import (_DENOMS, _SCALES, _bivectors,
                                    _graph_frames, _polys)

PLAIN, PARAM = Model(2), Model(2, param=True)
N = 2
CUTS = st.sampled_from([None, 1, 2, 3])
_SEEDS = st.integers(0, 10 ** 6)
# the reference pairs and ranks each frame again
_SLOW = settings(deadline=None)


# ---------------------------------------------------------------------------
# Graph recognition: the former frame comparison, kept as the reference
# ---------------------------------------------------------------------------

def _graph_quotient_reference(frame, rng, tmax=None):
    """The former route: the division, then ``frames_equal`` between the
    frame and the graph {N xi + d xi}, proved Lagrangian by construction
    (at every order when d is None, over the rational functions only
    otherwise)."""
    model = frame.model
    dim = model.dim
    gens = frame.gens
    if len(gens) > dim:
        _, keep = _pivot_block([g.cov for g in gens], model, rng,
                               t_zero=tmax is not None)
        gens = [gens[j] for j in keep]
    N = d = None
    if len(gens) == dim:
        V = mat_transpose([g.vec for g in gens])
        C = mat_transpose([g.cov for g in gens])
        try:
            N = mat_div_right(V, C, tmax=tmax)
        except SingularityError:
            pass
        except UnsupportedSceneError:
            if tmax is not None:
                raise
            det = poly_det(C)
            dbar = det.conj()
            d = det * dbar
            N = [[x * dbar for x in row]
                 for row in mat_mul(V, poly_adjugate(C))]
    if N is None:
        pt = model.origin()
        raise SingularityError(
            "frame is not a bivector graph: a coordinate covector is "
            f"outside the covector span (witness point {pt})", point=pt)
    try:
        bi = Bivector(model, N)
    except ValueError:
        raise CertificateError(
            "graph matrix is not antisymmetric; the frame is not isotropic")
    graph = graph_bivector(model, N)
    if d is not None:
        graph = DiracFrame(model, [GVField(model, g.vec,
                                           [c * d for c in g.cov])
                                   for g in graph.gens])
        graph.lagrangian = frozenset({None})  # rational functions only
    if not frames_equal(frame, graph, rng, tmax=tmax):
        raise SingularityError(
            "frame does not coincide with the graph of its candidate "
            "bivector; it meets the tangent bundle on a generic locus")
    return bi, d


def _copy(frame):
    """The same generators and construction record, proved by nothing."""
    out = DiracFrame(frame.model, frame.gens, label=frame.label)
    out.built = frame.built
    return out


def _outcome(route, frame, seed, tmax):
    """The result or refusal of ``route``, the frame's Lagrangian record
    and the state of the random source after it."""
    rng = random.Random(seed)
    frame = _copy(frame)
    try:
        bi, d = route(frame, rng, tmax)
        got = ("graph", bi.mat, d)
    except (SingularityError, UnsupportedSceneError, CertificateError) as e:
        got = (type(e), str(e))
    return got, frame.lagrangian, rng.getstate()


def _holds_identity(frame, N, d, tmax):
    """N c = d v, mod t^{tmax+1}, on every generator v + c."""
    for g in frame.gens:
        dv = g.vec if d is None else [x * d for x in g.vec]
        if mat_apply(N, g.cov, tmax=tmax) != [x.t_truncate(tmax)
                                             for x in dv]:
            return False
    return True


def _agree(frame, seed, tmax):
    got = _outcome(genkahler._graph_quotient, frame, seed, tmax)
    assert got == _outcome(_graph_quotient_reference, frame, seed, tmax)
    if got[0][0] == "graph":
        assert _holds_identity(frame, got[0][1], got[0][2], tmax)
    return got[0]


def _rational_frame(model, Q, d, scale_at, scale):
    """{N xi + d xi} for N = Q, one generator scaled by a polynomial."""
    gens = [GVField(model, h.vec, [c * d for c in h.cov])
            for h in graph_bivector(model, Q.mat).gens]
    gens[scale_at] = gens[scale_at].poly_mul(scale)
    return DiracFrame(model, gens, label="rational")


@st.composite
def _frames(draw, model, tmax):
    """A graph frame: polynomial, from other generators, or rational."""
    kind = draw(st.sampled_from(["built", "mixed", "rational"]))
    if kind == "built":
        P = draw(_bivectors(model, 3))
        return graph_bivector(model, P.mat).t_truncate(tmax)
    if kind == "mixed":
        return draw(_graph_frames(model, tmax))[1]
    return _rational_frame(model, draw(_bivectors(model, 0)),
                           draw(st.sampled_from(_DENOMS)),
                           draw(st.integers(0, model.dim - 1)),
                           draw(st.sampled_from(_SCALES)))


@pytest.mark.parametrize("model", [PLAIN, PARAM])
@_SLOW
@given(data=st.data(), tmax=CUTS, seed=_SEEDS)
def test_graph_frames_are_recognized_as_by_the_frame_comparison(
        model, data, tmax, seed):
    _agree(data.draw(_frames(model, tmax)), seed, tmax)


@pytest.mark.parametrize("model", [PLAIN, PARAM])
@_SLOW
@given(data=st.data(), tmax=CUTS, seed=_SEEDS)
def test_a_redundant_generator_is_checked_against_the_division(
        model, data, tmax, seed):
    frame = data.draw(_frames(model, tmax))
    g = frame.gens
    if data.draw(st.booleans()):
        # inside the graph: a combination of two generators
        i, j = data.draw(st.lists(st.integers(0, model.dim - 1),
                                  min_size=2, max_size=2, unique=True))
        extra = (g[i] + g[j].poly_mul(data.draw(_polys(1)))).t_truncate(tmax)
    else:
        # most often outside it, and then not isotropic with the frame
        extra = GVField(model, [data.draw(_polys(1))
                                for _ in range(model.dim)],
                        [data.draw(_polys(1)) for _ in range(model.dim)])
        extra = extra.t_truncate(tmax)
    at = data.draw(st.integers(0, model.dim))
    _agree(DiracFrame(model, g[:at] + [extra] + g[at:], label="redundant"),
           seed, tmax)


@pytest.mark.parametrize("model", [PLAIN, PARAM])
@_SLOW
@given(data=st.data(), tmax=CUTS, seed=_SEEDS)
def test_frames_that_are_not_graphs_are_refused_as_by_the_frame_comparison(
        model, data, tmax, seed):
    _P, frame = data.draw(_graph_frames(model, tmax))
    g = list(frame.gens)
    how = data.draw(st.sampled_from(["short", "singular", "skew", "rank"]))
    if how == "short":
        g.pop(data.draw(st.integers(0, model.dim - 1)))
    elif how == "singular":
        # a covector block with a repeated column
        i, j = data.draw(st.lists(st.integers(0, model.dim - 1),
                                  min_size=2, max_size=2, unique=True))
        g[i] = GVField(model, [data.draw(_polys(1))
                               for _ in range(model.dim)], g[j].cov)
    elif how == "skew":
        # V C^{-1} is not antisymmetric
        k = data.draw(st.integers(0, model.dim - 1))
        vec = list(g[k].vec)
        vec[k] = vec[k] + data.draw(_polys(1).filter(bool))
        g[k] = GVField(model, vec, g[k].cov).t_truncate(tmax)
    else:
        # a generator times t: of rank below dim on the t = 0 slice
        k = data.draw(st.integers(0, model.dim - 1))
        g[k] = g[k].poly_mul(model.t(), tmax=tmax)
    _agree(DiracFrame(model, g, label=how), seed, tmax)


def _bad(route):
    """``route`` with a z1 e_0 ^ e_1 term added to its numerator: still
    antisymmetric, so only the identity N C = d V can refuse it."""
    def wrapped(Num, Den, tmax):
        M, det = route(Num, Den, tmax)
        M = [list(row) for row in M]
        M[1][0] = M[1][0] + PLAIN.z(0)
        M[0][1] = M[0][1] - PLAIN.z(0)
        return M, det
    return wrapped


@pytest.mark.parametrize("kind", ["exact", "rational"])
def test_a_bad_adjugate_is_refused(monkeypatch, kind):
    z1, one = PLAIN.z(0), PLAIN.poly(1)
    P = Bivector.wedge_pair(PLAIN, 0, 2, z1 + one)
    if kind == "exact":
        # a non-constant covector block: the exact adjugate route
        frame = DiracFrame(PLAIN, [g.poly_mul(z1 + one) for g in
                                   graph_bivector(PLAIN, P.mat).gens])
    else:
        frame = _rational_frame(PLAIN, P, _DENOMS[0], 0, one)
    _P, d = genkahler._graph_quotient(frame, random.Random(0))
    assert (d is None) == (kind == "exact")
    monkeypatch.setattr(genkahler, "_adjugate_quotient",
                        _bad(linalg._adjugate_quotient))
    with pytest.raises(CertificateError, match="N C = d V"):
        genkahler._graph_quotient(frame, random.Random(0))


def _refused(*_args, **_kwargs):
    raise AssertionError("a former route was taken")


@pytest.mark.parametrize("tmax", [None, 2])
def test_graph_recognition_pairs_no_frame(monkeypatch, tmax):
    for module in (frames, genkahler):
        monkeypatch.setattr(module, "frames_equal", _refused)
    z1, one = PLAIN.z(0), PLAIN.poly(1)
    P = Bivector.wedge_pair(PLAIN, 1, 2, z1 + one)
    g = graph_bivector(PLAIN, P.mat).gens
    mixed = DiracFrame(PLAIN, [g[0] + g[1].poly_mul(z1)] + g[:0:-1])
    redundant = DiracFrame(PLAIN, mixed.gens + [g[2].poly_mul(z1)])
    for frame in (mixed, redundant):
        assert genkahler.graph_to_bivector(frame, random.Random(1),
                                           tmax=tmax) == P
    rational = _rational_frame(PLAIN, P, _DENOMS[1], 1, one)
    _N, d = genkahler._graph_quotient(rational, random.Random(2))
    assert d is not None


# ---------------------------------------------------------------------------
# half_i_difference: one weighted sum
# ---------------------------------------------------------------------------

_HALF_OVER_I = Scalar(0, Fraction(-1, 2))


def _half_i_difference_reference(f1, f2, rng, tmax):
    total = dirac_sum(f1, dirac_scale(f2, Scalar(-1)), rng, tmax=tmax)
    return dirac_scale(total, _HALF_OVER_I)


@st.composite
def _dirac_frames(draw, model, tmax):
    """The complex-type frame, the graph of i omega for a flat Hermitian
    form omega, the frame of a holomorphic Poisson structure, the graph of
    a bivector, or a graph frame from other generators."""
    kind = draw(st.sampled_from(["complex", "form", "sigma", "bivector",
                                 "mixed"]))
    if kind == "complex":
        return complex_type_frame(model)
    if kind == "form":
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=N,
                              max_size=N))
        return graph_two_form(hermitian_form(model, signs).scale(
            Scalar(0, 1)))
    if kind == "sigma":
        sigma = Bivector.wedge_pair(model, 0, 1, draw(_polys(1)))
        return build_L_sigma(HoloPoisson(model, sigma=sigma), tmax=tmax,
                             check=False)
    if kind == "bivector":
        return graph_bivector(model, draw(_bivectors(model, 3)).mat)
    return draw(_graph_frames(model, tmax))[1]


@pytest.mark.parametrize("model", [PLAIN, PARAM])
@_SLOW
@given(data=st.data(), tmax=CUTS, seed=_SEEDS)
def test_the_weighted_sum_is_the_former_rescaled_sum(model, data, tmax,
                                                     seed):
    f1 = data.draw(_dirac_frames(model, tmax))
    f2 = data.draw(_dirac_frames(model, tmax))
    if data.draw(st.booleans()):
        f2 = f2.conj()
    got = half_i_difference(f1, f2, random.Random(seed), tmax=tmax)
    want = _half_i_difference_reference(f1, f2, random.Random(seed), tmax)
    assert got.label == want.label
    assert [(g.vec, g.cov) for g in got] == [(g.vec, g.cov) for g in want]
    assert got.proved(tmax) == want.proved(tmax) is False


def test_half_i_difference_scales_no_frame(monkeypatch):
    monkeypatch.setattr(frames, "dirac_scale", _refused)
    monkeypatch.setattr(genkahler, "dirac_scale", _refused, raising=False)
    L1, L2 = kahler_pair(M2)
    half_i_difference(L1, L2.conj(), random.Random(0))
    half_i_difference(L2, L2.conj(), random.Random(0), tmax=2)


# ---------------------------------------------------------------------------
# gk_check: the imaginary parts, with no second type-(2,0) proof
# ---------------------------------------------------------------------------

# entries of modulus at most 1/4: Phi conj(Phi) then has spectral radius
# at most 1/4, so S = 1 - Phi conj(Phi) is invertible
_ENTRIES = st.sampled_from([Scalar(0), Scalar(Fraction(1, 4)),
                            Scalar(0, Fraction(1, 5)),
                            Scalar(Fraction(-1, 6), Fraction(1, 7))])


@st.composite
def _phi_matrices(draw, tmax):
    """Phi zero, a multiple of t, or free.  Without ``tmax`` the t multiple
    and the free polynomial Phi are strictly upper triangular, so that
    Phi conj(Phi) = 0 and the complex structure is polynomial; with it,
    S = 1 - Phi conj(Phi) has a constant t^0 block."""
    kind = draw(st.sampled_from(["zero", "t", "free", "constant"]))
    zero = PLAIN.zero_poly()
    if kind == "zero":
        return [[zero] * N for _ in range(N)]
    if kind == "constant":
        return [[Poly.const(N, draw(_ENTRIES)) for _ in range(N)]
                for _ in range(N)]
    t = PLAIN.t() if kind == "t" else PLAIN.poly(1)
    if tmax is None:
        return [[zero, draw(_polys(1)) * t], [zero, zero]]
    return [[draw(_polys(1)) * PLAIN.t() if kind == "t"
             else Poly.const(N, draw(_ENTRIES)) + draw(_polys(2)) * PLAIN.t()
             for _ in range(N)] for _ in range(N)]


def _wedge(model, u, v, c):
    """c u ^ v as a leg matrix: M[x][y] = c (u^y v^x - u^x v^y)."""
    dim = model.dim
    return [[c * (u[y] * v[x] - u[x] * v[y]) for y in range(dim)]
            for x in range(dim)]


@_SLOW
@given(data=st.data(), tmax=CUTS)
def test_type_defects_vanish_exactly_when_the_reconstruction_holds(data,
                                                                   tmax):
    Phi = data.draw(_phi_matrices(tmax))
    phi = mv_from_endo(PLAIN, Phi)
    base = HoloPoisson(PLAIN, phi=phi)
    assert base.phi_matrix() == Phi
    # c u_1 ^ u_2 over the deformed (1,0) legs is of type (2,0)
    u1, u2 = base._legs(0)
    sigma = Bivector(PLAIN, _wedge(PLAIN, u1, u2, data.draw(_polys(1))))
    if data.draw(st.booleans()):
        sigma = sigma + data.draw(_bivectors(PLAIN, 3))
    hp = HoloPoisson(PLAIN, sigma=sigma, phi=phi)
    defects = hp.type_defects(tmax=tmax)
    try:
        imag_Q(hp, tmax=tmax)
    except CertificateError:
        holds = False
    else:
        holds = True
    assert (not defects) == holds


def _accepted_pairs():
    """Frame pairs with a holomorphic Poisson pair: flat Kahler pairs of
    both signatures, pulled-back ones, their gauges by a real closed form
    of type (1,1), and a scaled complex-type frame."""
    z1 = M2.z(0)
    out = [kahler_pair(M2), kahler_pair(M2, [1, -1]),
           kahler_pair(Model(1)), kahler_pair(Model(3), [1, 1, -1])]
    for h in (z1 * z1, z1 * z1 * z1):
        out.append(_pulled_back_kahler_pair(M2, h))
    return out


@pytest.mark.parametrize("index", range(6))
@pytest.mark.parametrize("tmax", [None, 2])
def test_accepted_pairs_share_imag_Q(index, tmax):
    L1, L2 = _accepted_pairs()[index]
    report = gk_check(L1, L2, random.Random(index), tmax=tmax)
    pair = report.pair
    assert pair is not None and report.stats["imaginary_parts_match"]
    Qs = [imag_Q(hp, tmax=tmax) for hp in (pair.sigma_plus,
                                           pair.sigma_minus)]
    assert Qs[0] == Qs[1]
    for hp, Q in zip((pair.sigma_plus, pair.sigma_minus), Qs):
        assert (hp.sigma - hp.sigma.conj()).scale(Scalar(0, -2)) == Q


def test_gk_check_proves_type_20_once(monkeypatch):
    monkeypatch.setattr(genkahler, "imag_Q", _refused, raising=False)
    monkeypatch.setattr(poisson, "imag_Q", _refused)
    for L1, L2 in _accepted_pairs():
        assert gk_check(L1, L2, random.Random(3)).pair is not None


# ---------------------------------------------------------------------------
# HoloPoisson: one frame change
# ---------------------------------------------------------------------------

def test_a_holo_poisson_forms_its_frame_change_once(monkeypatch):
    calls = []
    former = poisson._deformed_frame_change

    def counted(Phi):
        calls.append(1)
        return former(Phi)

    monkeypatch.setattr(poisson, "_deformed_frame_change", counted)
    z1 = PLAIN.z(0)
    zero = PLAIN.zero_poly()
    phi = mv_from_endo(PLAIN, [[zero, z1], [zero, zero]])
    hp = HoloPoisson(PLAIN, phi=phi)
    A = [list(row) for row in former(hp.phi_matrix())]
    for _ in range(2):
        hp.antiholo_frame_columns()
        hp.holo_covector_columns()
        hp.antiholo_covector_columns()
        hp.type_defects()
        build_L_sigma(hp, check=False)
    hp.certificates(random.Random(0))
    assert len(calls) == 1
    # the legs are new lists: the kept A is never changed
    for leg in hp.holo_covector_columns() + hp.antiholo_frame_columns():
        leg[0] = z1 * z1
    assert hp._A == A

    # and through gk_check, at most one per structure
    made = []
    init = HoloPoisson.__init__

    def counting_init(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(HoloPoisson, "__init__", counting_init)
    calls.clear()
    for L1, L2 in _accepted_pairs()[:3]:
        gk_check(L1, L2, random.Random(4))
    assert 0 < len(calls) <= len(made)
    # extraction builds the structures it checks
    calls.clear()
    made.clear()
    extract_holo_poisson(half_i_difference(*kahler_pair(M2),
                                           random.Random(5)),
                         random.Random(5))
    assert len(calls) <= len(made)
