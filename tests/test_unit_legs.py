"""Extraction and gauge containments read off the unit legs.

The deformed (1,0)-covectors eta_a = (e_a, -Phi[a, :]) and the deformed
(0,1)-vectors v_b = (Phi[:, b], e_b) each carry a unit block.  So
``extract_holo_poisson`` reads Phi^T = -C_bot C_top^{-1} from the covector
block of the frame by one division and checks that identity on every
generator, and each containment of ``check_gauge_equiv`` is the identity
w = sum_k w[unit + k] leg_k.  The routes they replaced are kept here as
references: the tangent intersection (``kernel_certificate`` of the
covector block) with a splitting check and the division W_h W_a^{-1}, and
one ``span_certificate`` per target.

(a) On the deformation of arXiv:1807.09704 with sigma_+ != 0, the frame
e^F L_sigma with F from ``solve_hitchin`` is extracted mod t^4 to the
(sigma_t, phi_t) that ``deformed_structures`` transports; the former route
raised "tangent intersection has rank 0".  (b) On frames L_sigma of random
phi and sigma, rewritten in other generators and gauged by closed 2-forms,
wherever the former route answers the new one gives the same (phi, sigma),
so it never refuses a frame the former route accepts.  (c) The four gauge
verdicts equal the span-certificate reference on positive and negative
pairs, and each witness is the same for every seed.  (d) sigma = O K^T is
read off the projector P = [K | -K Phi] that lifts the eta_a: on
Phi = [[t, z1], [0, 0]], where det(1 - Phi conj(Phi)) = 1 - t^2 is no
unit but S^{-1} is a t-series, the former division by the 2n x 2n
covector basis refuses a frame whose projector exists.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gkdirac.errors import GkdError, SingularityError, UnsupportedSceneError
from gkdirac.forms import MixedForm
from gkdirac.frames import (DiracFrame, _conj_components, frames_equal,
                            gauge_frame)
from gkdirac.hitchin import deformed_structures, solve_hitchin
from gkdirac.linalg import (Span, _pivot_block, generic_rank,
                            kernel_certificate, mat_add, mat_apply,
                            mat_div_right, mat_mul, mat_sub, mat_t_truncate,
                            mat_transpose, span_certificate)
from gkdirac.model import Model
from gkdirac.multivector import MVElement, form_matrix, mv_from_endo
from gkdirac.poisson import (Bivector, HoloPoisson, _holo_projector,
                             build_L_sigma, check_gauge_equiv,
                             extract_holo_poisson)
from gkdirac.poly import Poly
from gkdirac.scalars import Scalar

M2 = Model(2)
N = 2
TMAXES = [None, 1, 2, 3]
_SEEDS = st.integers(0, 10 ** 6)


def _former_lifts(frame, targets, rng, tmax=None):
    """The former lifts: X with X + eta in ``frame``, divided by the span
    certificate's ``den`` before any projection."""
    span = Span([list(g.cov) for g in frame.gens], frame.model, tmax)
    vecs = mat_transpose([g.vec for g in frame.gens])
    lifts = []
    for eta in targets:
        okflag, cert = span_certificate(span, eta, rng)
        if not okflag:
            raise SingularityError(f"outside (witness point {cert})",
                                   point=cert)
        den, nums = cert
        lift = mat_mul(vecs, [[c] for c in nums], tmax=tmax)
        lifts.append([x for [x] in mat_div_right(lift, [[den]], tmax=tmax)])
    return lifts


def _former_extract(L, rng, tmax=None):
    """The former extraction: the deformed antiholomorphic bundle as the
    tangent intersection, then Phi = W_h W_a^{-1}."""
    model = L.model
    n, dim, r = model.n, model.dim, len(L)
    C = [[L.gens[j].cov[i] for j in range(r)] for i in range(dim)]
    vcols = []
    for k in kernel_certificate(C, model, rng, tmax=tmax):
        col = [model.zero_poly() for _ in range(dim)]
        for j in range(r):
            if k[j]:
                for i in range(dim):
                    if L.gens[j].vec[i]:
                        col[i] = col[i] + k[j].mul(L.gens[j].vec[i],
                                                   tmax=tmax)
        if any(col):
            vcols.append(col)
    if len(vcols) > n:
        _, keep = _pivot_block(vcols, model, rng)
        vcols = [vcols[j] for j in keep]
    if len(vcols) != n:
        raise SingularityError(
            f"tangent intersection has rank {len(vcols)}, expected {n}")
    both = [[c[i] for c in vcols] + [_conj_components(model, c)[i]
                                     for c in vcols] for i in range(dim)]
    if generic_rank(both, model, rng) != dim:
        raise SingularityError(
            "deformed bundle does not split against its conjugate")
    Wa = [[vcols[b][n + i] for b in range(n)] for i in range(n)]
    Wh = [[vcols[b][i] for b in range(n)] for i in range(n)]
    Phi = mat_div_right(Wh, Wa, tmax=tmax)
    phi = mv_from_endo(model, Phi)
    shape = HoloPoisson(model, phi=phi)
    etas = shape.holo_covector_columns()
    thetas = shape.antiholo_covector_columns()
    lifted = _former_lifts(L, etas, rng, tmax=tmax)
    P10 = _holo_projector(Phi, tmax=tmax)
    outs = [mat_apply(P10, X, tmax=tmax) for X in lifted]
    basis = [[(etas + thetas)[j][i] for j in range(dim)] for i in range(dim)]
    Mout = [[outs[j][i] if j < n else model.zero_poly() for j in range(dim)]
            for i in range(dim)]
    sigma = Bivector(model, mat_div_right(Mout, basis, tmax=tmax))
    result = HoloPoisson(model, sigma=sigma, phi=phi)
    assert frames_equal(build_L_sigma(result, tmax=tmax, check=False), L,
                        rng, tmax=tmax)
    return result


def _former_conditions(hp0, hp1, beta, rng, tmax=None):
    """The former four containments, one span certificate per target."""
    F = form_matrix(beta)
    S0, S1 = hp0.sigma.mat, hp1.sigma.mat
    v0, v1 = hp0.antiholo_frame_columns(), hp1.antiholo_frame_columns()
    eta0, eta1 = hp0.holo_covector_columns(), hp1.holo_covector_columns()

    def contained(cols, targets):
        span = Span(cols, hp0.model, tmax)
        return all(span_certificate(span, w, rng)[0]
                   for w in mat_t_truncate(targets, tmax))

    S1F, S0F = mat_mul(S1, F, tmax=tmax), mat_mul(S0, F, tmax=tmax)
    D = mat_add(mat_sub(S1, S0), mat_mul(S1F, S0, tmax=tmax))
    return {
        "covector_type": contained(
            eta1, [mat_apply(F, x, tmax=tmax) for x in v0]),
        "forward_tangent": contained(v1, [
            [a - b for a, b in zip(x, mat_apply(S1F, x, tmax=tmax))]
            for x in v0]),
        "backward_tangent": contained(v0, [
            [a + b for a, b in zip(y, mat_apply(S0F, y, tmax=tmax))]
            for y in v1]),
        "bivector_match": contained(
            v1, [mat_apply(D, a, tmax=tmax) for a in eta0]),
    }


# ---------------------------------------------------------------------------
# (a) The deformation with sigma_+ != 0
# ---------------------------------------------------------------------------

def _kahler_seed():
    """(i/2) sum_k dz_k ^ dzbar_k."""
    half_i = Poly.const(N, Scalar(0, Fraction(1, 2)))
    return MixedForm.sum(M2, [MixedForm.monomial(M2, half_i, (k,), (k,))
                              for k in range(N)])


def test_extraction_follows_the_hitchin_deformation_with_sigma_plus():
    order = 3
    hp = HoloPoisson(M2, sigma=MVElement.monomial(
        M2, M2.poly(Fraction(4, 5)), vecs=(0, 1)))
    ds = solve_hitchin(hp, _kahler_seed(), order, "real")
    frame = gauge_frame(build_L_sigma(hp), ds.beta_series(), tmax=order)
    want = deformed_structures(ds.eps, hp, random.Random(1),
                               tmax=order).poisson
    got = extract_holo_poisson(frame, random.Random(2), tmax=order)
    assert got.phi == want.phi.t_truncate(order)
    assert got.sigma == want.sigma.t_truncate(order)
    assert not got.phi.is_zero()
    with pytest.raises(SingularityError, match="tangent intersection"):
        _former_extract(frame, random.Random(2), tmax=order)


def test_lifts_are_projected_before_the_division():
    # L_sigma for sigma = z1 d1^d2, with the generator d/dzbar1 replaced by
    # d/dzbar1 + z2 (sigma dz1 + dz1): every span certificate that combines
    # that generator leaves a rational multiple of d/dzbar1 in the
    # unprojected lift, which the projector onto T^{1,0}_phi kills
    hp = HoloPoisson(M2, sigma=Bivector.wedge_pair(M2, 0, 1, M2.z(0)))
    g = build_L_sigma(hp).gens
    frame = DiracFrame(M2, [g[0] + g[2].poly_mul(M2.z(1))] + g[1:])
    for seed in range(5):
        got = extract_holo_poisson(frame, random.Random(seed))
        assert got.sigma == hp.sigma and got.phi.is_zero()
    with pytest.raises(GkdError, match="not polynomial"):
        _former_extract(frame, random.Random(0))


def test_a_frame_off_the_covector_span_names_generator_and_entry():
    # e^{t omega} L_sigma is not of L_sigma shape past order 1 when sigma
    # != 0: some generator's covector leaves the span of the eta_a
    hp = HoloPoisson(M2, sigma=MVElement.monomial(M2, M2.poly(1),
                                                  vecs=(0, 1)))
    F = _kahler_seed().poly_mul(Poly.t(N))
    frame = gauge_frame(build_L_sigma(hp), F, tmax=3)
    messages = set()
    for seed in range(5):
        with pytest.raises(SingularityError,
                           match=r"generator \d+, entry \d+: ") as err:
            extract_holo_poisson(frame, random.Random(seed), tmax=3)
        messages.add(str(err.value))
    assert len(messages) == 1


# ---------------------------------------------------------------------------
# (b) Random frames of L_sigma shape, gauged by closed 2-forms
# ---------------------------------------------------------------------------

def _polys(max_t, max_terms=2):
    """Sums of up to ``max_terms`` terms of degree at most 1 in each of
    z1, z2, zbar1, zbar2 and at most ``max_t`` in t."""
    coeffs = st.sampled_from([1, -1, 2, Fraction(1, 3), Scalar(0, 1),
                              Scalar(1, -1)])
    term = st.tuples(coeffs, *[st.integers(0, 1)] * (2 * N),
                     st.integers(0, max_t))
    return st.lists(term, max_size=max_terms).map(lambda terms: Poly.sum(
        N, [Poly(N, {tuple(e): c if isinstance(c, Scalar) else Scalar(c)})
            for c, *e in terms]))


@st.composite
def _phis(draw, tmax):
    """Phi with an invertible 1 - Phi conj(Phi) that the projector can
    divide by: strictly upper triangular, or a multiple of t with
    ``tmax``; sometimes free, which both routes may refuse."""
    zero = M2.zero_poly()
    kind = draw(st.sampled_from(["zero", "upper", "t", "free"]))
    if kind == "zero" or (kind == "t" and tmax is None):
        return [[zero, zero], [zero, zero]]
    if kind == "upper":
        return [[zero, draw(_polys(tmax or 0))], [zero, zero]]
    Phi = [[draw(_polys(tmax or 0, 1)) for _ in range(N)] for _ in range(N)]
    if kind == "t":
        Phi = [[x.mul(Poly.t(N)) for x in row] for row in Phi]
    return Phi


@st.composite
def _structures(draw, tmax):
    """(phi, sigma) with sigma = c u_1 ^ u_2 over the deformed
    holomorphic frame, so of deformed type (2,0); u_b is the conjugate of
    the deformed antiholomorphic frame vector b."""
    phi = mv_from_endo(M2, draw(_phis(tmax)))
    u1, u2 = (_conj_components(M2, v)
              for v in HoloPoisson(M2, phi=phi).antiholo_frame_columns())
    c = draw(_polys(tmax or 0))
    sigma = sum((Bivector.wedge_pair(M2, a, b, c * u1[a] * u2[b])
                 for a in range(4) for b in range(4) if a != b), Bivector(M2))
    return HoloPoisson(M2, phi=phi, sigma=sigma)


@st.composite
def _closed_forms(draw, tmax):
    """Zero, or d(alpha) for a random 1-form alpha, times t with ``tmax``
    when drawn so: a closed 2-form of any type."""
    if draw(st.booleans()):
        return MixedForm.zero(M2)
    alpha = MixedForm.sum(M2, [
        MixedForm.monomial(M2, draw(_polys(tmax or 0)), **{side: (k,)})
        for side in ("holo", "anti") for k in range(N)])
    beta = alpha.d()
    if tmax is not None and draw(st.booleans()):
        beta = beta.poly_mul(Poly.t(N))
    return beta


@st.composite
def _rewritten(draw, frame, tmax):
    """The same frame from other generators: g_i + f g_j in place of g_i,
    one generator scaled, or a redundant generator inserted."""
    g = list(frame.gens)
    i, j = draw(st.lists(st.integers(0, len(g) - 1), min_size=2,
                         max_size=2, unique=True))
    f = draw(_polys(1, 1))
    kind = draw(st.sampled_from(["same", "combine", "scale", "redundant"]))
    if kind == "combine":
        g[i] = (g[i] + g[j].poly_mul(f)).t_truncate(tmax)
    elif kind == "scale":
        g[i] = g[i].poly_mul(draw(st.sampled_from(
            [M2.poly(3), M2.z(0) + M2.poly(1), M2.z(1) * M2.zbar(0)])))
    elif kind == "redundant":
        g.insert(draw(st.integers(0, len(g))),
                 (g[i] + g[j].poly_mul(f)).t_truncate(tmax))
    return DiracFrame(M2, g[::-1] if draw(st.booleans()) else g)


def _both_routes(frame, tmax, seed):
    try:
        former = _former_extract(frame, random.Random(seed), tmax=tmax)
    except GkdError:
        former = None
    try:
        new = extract_holo_poisson(frame, random.Random(seed), tmax=tmax)
    except GkdError as err:
        assert former is None, f"refused what the former route accepts: {err}"
        return former, None
    if former is not None:
        assert new.phi == former.phi
        assert new.sigma == former.sigma
    return former, new


@pytest.mark.parametrize("tmax", TMAXES)
@given(data=st.data(), seed=_SEEDS)
def test_both_routes_agree_on_gauged_frames(tmax, data, seed):
    hp = data.draw(_structures(tmax))
    beta = data.draw(_closed_forms(tmax))
    frame = gauge_frame(build_L_sigma(hp, tmax=tmax, check=False), beta,
                        tmax=tmax)
    _both_routes(data.draw(_rewritten(frame, tmax)), tmax, seed)


@pytest.mark.parametrize("tmax", TMAXES)
@given(data=st.data(), seed=_SEEDS)
def test_an_ungauged_frame_extracts_to_its_structure(tmax, data, seed):
    hp = data.draw(_structures(tmax))
    frame = build_L_sigma(hp, tmax=tmax, check=False)
    _former, new = _both_routes(data.draw(_rewritten(frame, tmax)), tmax,
                                seed)
    if new is not None:
        assert new.phi == hp.phi.t_truncate(tmax)
        assert new.sigma == hp.sigma.t_truncate(tmax)


# ---------------------------------------------------------------------------
# (c) The gauge containments against the span-certificate reference
# ---------------------------------------------------------------------------

def _sigma(coeff):
    return MVElement.monomial(M2, coeff, vecs=(0, 1))


def _gauged(hp, beta, tmax=None):
    moved = gauge_frame(build_L_sigma(hp, tmax=tmax), beta, tmax=tmax)
    return extract_holo_poisson(moved, random.Random(0), tmax=tmax)


_PHI = mv_from_endo(M2, [[M2.zero_poly(), M2.z(0)],
                         [M2.zero_poly(), M2.zero_poly()]])
_HP = HoloPoisson(M2, sigma=_sigma(M2.poly(1)))
_HP_Z = HoloPoisson(M2, sigma=_sigma(M2.z(0)))
_BETA = MixedForm.monomial(M2, M2.poly(Fraction(1, 3)), holo=(0, 1))
_ANTI = MixedForm.monomial(M2, M2.poly(Fraction(1, 3)), anti=(0, 1))
_MIXED = MixedForm.monomial(M2, M2.poly(Fraction(1, 2)), (0,), (1,))


def _pairs():
    """(hp0, hp1, beta, tmax, verdict): gauge-equivalent pairs, and pairs
    that break each containment."""
    shaped = HoloPoisson(M2, phi=_PHI)
    u1, u2 = (_conj_components(M2, v)
              for v in shaped.antiholo_frame_columns())
    deformed = HoloPoisson(M2, phi=_PHI, sigma=sum(
        (Bivector.wedge_pair(M2, a, b, 2 * u1[a] * u2[b])
         for a in range(4) for b in range(4) if a != b), Bivector(M2)))
    t_beta = _BETA.poly_mul(Poly.t(N))
    return [
        (_HP, _HP, MixedForm.zero(M2), None, True),
        (_HP, _gauged(_HP, _BETA), _BETA, None, True),
        (_HP_Z, _gauged(_HP_Z, t_beta, 3), t_beta, 3, True),
        (deformed, deformed, MixedForm.zero(M2), None, True),
        (_HP, _HP, _ANTI, None, False),
        (_HP, _HP, _BETA, None, False),
        (_HP, _HP_Z, MixedForm.zero(M2), None, False),
        (_HP, deformed, MixedForm.zero(M2), None, False),
        (deformed, _HP, _MIXED, None, False),
        (_HP_Z, _HP_Z, t_beta, 2, False),
    ]


@pytest.mark.parametrize("index", range(10))
def test_gauge_verdicts_match_the_span_reference(index):
    hp0, hp1, beta, tmax, verdict = _pairs()[index]
    want = _former_conditions(hp0, hp1, beta, random.Random(index), tmax)
    reports = [check_gauge_equiv(hp0, hp1, beta, rng=random.Random(seed),
                                 tmax=tmax) for seed in range(5)]
    for report in reports:
        got = {k: report.checks[k] for k in want}
        assert got == want
        assert report.ok == verdict
        assert report.witnesses == reports[0].witnesses
    for key, ok in want.items():
        witness = reports[0].witnesses[key]
        if ok:
            assert witness is None
        else:
            target, coordinate, residual = witness
            assert 0 <= target < N and 0 <= coordinate < M2.dim
            assert isinstance(residual, Poly) and residual


# ---------------------------------------------------------------------------
# (d) sigma read off the projector
# ---------------------------------------------------------------------------

def _projected_scene(Phi, tmax, check):
    """L_sigma for sigma = P (d1^d2) P^T mod t^{tmax+1}, of deformed type
    (2,0) for the phi of ``Phi``, and that structure."""
    P = _holo_projector(Phi, tmax=tmax)
    unit = Bivector.wedge_pair(M2, 0, 1, M2.poly(1)).mat
    sigma = mat_mul(mat_mul(P, unit, tmax=tmax), mat_transpose(P), tmax=tmax)
    hp = HoloPoisson(M2, sigma=Bivector(M2, sigma), phi=mv_from_endo(M2, Phi))
    return build_L_sigma(hp, tmax, check=check), hp


@pytest.mark.parametrize("tmax", [1, 2, 3])
@pytest.mark.parametrize("transposed", [False, True])
def test_sigma_is_read_off_the_projector(tmax, transposed):
    # Phi = [[t, z1], [0, 0]] is the nilpotent scene of the Schur
    # projector, with a phi that is not flat (the frame is built unchecked;
    # extraction reads only its shape); its transpose gives a flat phi
    zero, z1, t = M2.zero_poly(), M2.z(0), Poly.t(N)
    Phi = [[t, z1], [zero, zero]]
    if transposed:
        Phi = mat_transpose(Phi)
    L, hp = _projected_scene(Phi, tmax, check=transposed)
    # the random frames of (b) check agreement wherever the former answers
    former, got = _both_routes(L, tmax, tmax)
    assert former is None
    assert got.sigma == hp.sigma and got.phi == hp.phi
    assert not got.sigma.is_zero()
    with pytest.raises(UnsupportedSceneError,
                       match=r"not polynomial; determinant = .*t\^2"):
        _former_extract(L, random.Random(tmax), tmax=tmax)
