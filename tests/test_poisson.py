import random
from fractions import Fraction

import pytest

from gkdirac.errors import (CertificateError, SingularityError,
                            UnsupportedSceneError)
from gkdirac.forms import MixedForm
from gkdirac.frames import (DiracFrame, GVField, graph_bivector,
                            involutivity_report)
from gkdirac.linalg import mat_apply, mat_mul, mat_scale, mat_transpose
from gkdirac.model import Model
from gkdirac.multivector import (MVElement, mv_from_bivector_matrix,
                                 phi_geom_matrix)
from gkdirac.poisson import (Bivector, HoloPoisson, RealPoisson,
                             build_L_sigma, check_gauge_equiv,
                             extract_holo_poisson, gauge_real_poisson, imag_Q,
                             schouten_defect, _holo_projector)
from gkdirac.poly import Poly
from gkdirac.scalars import Scalar, sc

M1 = Model(1)
M2 = Model(2)


def area_form(model, coeff):
    """coeff * dx^dy on the first complex coordinate, i.e. coeff*(i/2) dz^dzbar."""
    if isinstance(coeff, (int, Fraction)):
        coeff = Poly.const(model.n, coeff)
    half_i = Poly.const(model.n, Scalar(0, Fraction(1, 2)))
    return MixedForm.monomial(model, coeff * half_i, holo=(0,), anti=(0,))


def planar_poisson(model):
    """dx^dy dual bivector: d/dx ^ d/dy = -2i d/dz ^ d/dzbar."""
    return RealPoisson(model, Bivector.wedge_pair(model, 0, model.n,
                                                  Scalar(0, -2)))


# ---------------------------------------------------------------------------
# Bivector plumbing
# ---------------------------------------------------------------------------

def test_bivector_apply_and_pair_conventions():
    b = Bivector.wedge_pair(M2, 0, 1, 1)
    xi = [M2.poly(1), M2.zero_poly(), M2.zero_poly(), M2.zero_poly()]
    eta = [M2.zero_poly(), M2.poly(1), M2.zero_poly(), M2.zero_poly()]
    # e_0 ^ e_1 sends dz1 to +d/dz2
    assert b.apply(xi)[1] == M2.poly(1)
    assert b.apply(xi)[0].is_zero()
    assert b.pair(xi, eta) == M2.poly(1)
    assert b.pair(eta, xi) == M2.poly(-1)


def test_bivector_from_mv_matches_holo_block():
    sigma = MVElement.monomial(M2, M2.z(0), vecs=(0, 1))
    b = Bivector.from_mv(sigma)
    assert b.is_pure_holo()
    assert mv_from_bivector_matrix(M2, b.mat) == sigma
    assert b.mat[1][0] == M2.z(0)


def test_bivector_reality():
    assert planar_poisson(M1).pi.is_real()
    holo = Bivector.from_mv(MVElement.monomial(M2, M2.poly(1), vecs=(0, 1)))
    assert not holo.is_real()
    # sigma + conj(sigma) is real
    assert (holo + holo.conj()).is_real()


def test_bivector_antisymmetry_enforced():
    bad = [[M2.zero_poly() for _ in range(4)] for _ in range(4)]
    bad[0][1] = M2.poly(1)
    with pytest.raises(ValueError):
        Bivector(M2, bad)


# ---------------------------------------------------------------------------
# Schouten defect
# ---------------------------------------------------------------------------

def test_schouten_defect_zero_for_linear_holomorphic():
    sigma = Bivector.from_mv(MVElement.monomial(M2, M2.z(0), vecs=(0, 1)))
    assert schouten_defect(sigma) == {}


def test_schouten_defect_zero_for_rotational_coefficients():
    # pairwise-cyclic coefficients in the first three legs: Poisson
    coeffs = [M2.zbar(0), M2.z(0), M2.z(1)]
    mats = [Bivector.wedge_pair(M2, 0, 1, 1),
            Bivector.wedge_pair(M2, 1, 2, 1),
            Bivector.wedge_pair(M2, 2, 0, 1)]
    total = Bivector(M2)
    for c, b in zip(coeffs, mats):
        total = total + Bivector(M2, [[x * c for x in row] for row in b.mat])
    assert schouten_defect(total) == {}


def test_schouten_defect_detects_failure():
    # coefficient depends on the third leg while the third leg is populated
    bad = (Bivector(M2, [[x * M2.zbar(0) for x in row]
                         for row in Bivector.wedge_pair(M2, 1, 2, 1).mat])
           + Bivector.wedge_pair(M2, 2, 0, 1))
    defect = schouten_defect(bad)
    assert list(defect) == [(0, 1, 2)]
    assert defect[(0, 1, 2)] == M2.poly(2)


def test_schouten_defect_agrees_with_graph_involutivity():
    rng = random.Random(41)
    good = planar_poisson(M1)
    assert not schouten_defect(good.pi)
    assert involutivity_report.check(good.graph(), rng).ok
    bad_b = (Bivector(M2, [[x * M2.zbar(0) for x in row]
                           for row in Bivector.wedge_pair(M2, 1, 2, 1).mat])
             + Bivector.wedge_pair(M2, 2, 0, 1))
    assert schouten_defect(bad_b)
    assert not involutivity_report.check(graph_bivector(M2, bad_b.mat),
                                         rng).ok


def test_holo_poisson_rejects_a_bare_matrix():
    with pytest.raises(TypeError):
        HoloPoisson(M2, sigma=Bivector.wedge_pair(M2, 0, 1, 1).mat)


def test_real_poisson_rejects_complex_bivector():
    holo = Bivector.from_mv(MVElement.monomial(M2, M2.poly(1), vecs=(0, 1)))
    with pytest.raises(CertificateError):
        RealPoisson(M2, holo)


# ---------------------------------------------------------------------------
# Real gauge transformations
# ---------------------------------------------------------------------------

def test_gauge_by_zero_form_is_identity():
    rng = random.Random(10)
    pi0 = planar_poisson(M1)
    pi1 = gauge_real_poisson(pi0, MixedForm.zero(M1), rng)
    assert pi1.pi == pi0.pi


def test_gauge_constant_area_form_scales_inverse():
    rng = random.Random(11)
    pi0 = planar_poisson(M1)
    c = Fraction(1, 2)
    pi1 = gauge_real_poisson(pi0, area_form(M1, c), rng)
    assert pi1.pi == pi0.pi.scale(Scalar(Fraction(1, 1) / (1 - c)))
    assert pi1.pi.is_real()
    assert not schouten_defect(pi1.pi)


def test_gauge_singular_at_unit_coefficient():
    rng = random.Random(12)
    with pytest.raises(SingularityError):
        gauge_real_poisson(planar_poisson(M1), area_form(M1, 1), rng)


def test_gauge_roundtrip_recovers_original():
    rng = random.Random(13)
    pi0 = planar_poisson(M1)
    B = area_form(M1, Fraction(1, 3))
    pi1 = gauge_real_poisson(pi0, B, rng)
    back = gauge_real_poisson(pi1, MixedForm.zero(M1) - B, rng)
    assert back.pi == pi0.pi


def test_gauge_graphs_agree_pointwise():
    rng = random.Random(14)
    pi0 = planar_poisson(M1)
    B = area_form(M1, Fraction(-2, 5))
    pi1 = gauge_real_poisson(pi0, B, rng)
    from gkdirac.frames import gauge_frame
    moved = gauge_frame(pi0.graph(), B)
    for pt in M1.sample_points(rng, count=5):
        assert moved.eval_point(pt).equals(pi1.graph().eval_point(pt))


def test_gauge_nonconstant_form_outside_polynomial_fragment():
    rng = random.Random(15)
    # B = x dx^dy has det(1 + B pi) = (1-x)^2: no polynomial inverse
    xpoly = (M1.z(0) + M1.zbar(0)).scale(Scalar(Fraction(1, 2)))
    with pytest.raises(UnsupportedSceneError) as err:
        gauge_real_poisson(planar_poisson(M1), area_form(M1, xpoly), rng)
    assert "det" in str(err.value)


def test_gauge_refuses_a_form_that_is_not_real_or_not_closed():
    rng = random.Random(16)
    imaginary = area_form(M1, Poly.const(1, Scalar(0, 1)))
    assert imaginary.d().is_zero()
    with pytest.raises(CertificateError, match="gauge form must be real"):
        gauge_real_poisson(planar_poisson(M1), imaginary, rng)
    # x2 dx1^dy1 is real, and d of it is dx2^dx1^dy1
    x2 = (M2.z(1) + M2.zbar(1)).scale(Scalar(Fraction(1, 2)))
    open_form = area_form(M2, x2)
    assert open_form.is_real()
    with pytest.raises(CertificateError, match="gauge form must be closed"):
        gauge_real_poisson(planar_poisson(M2), open_form, rng)


def test_gauge_guards_the_defining_identity_of_the_inverse(monkeypatch):
    # a quotient that is off by a factor 2 is real and antisymmetric, so
    # only the identity pi1 (1 + B pi0) = pi0 stops it
    from gkdirac import poisson
    real_div = poisson.mat_div_right
    monkeypatch.setattr(poisson, "mat_div_right",
                        lambda Num, Den, tmax=None: mat_scale(
                            real_div(Num, Den, tmax=tmax), Scalar(2)))
    with pytest.raises(CertificateError, match="defining identity"):
        gauge_real_poisson(planar_poisson(M1), area_form(M1, Fraction(1, 3)),
                           random.Random(20))


def test_gauge_t_series_mode():
    rng = random.Random(17)
    pi0 = planar_poisson(M1)
    B = area_form(M1, Poly.t(1))
    pi1 = gauge_real_poisson(pi0, B, rng, tmax=4)
    expect = Bivector(M1)
    for k in range(5):
        expect = expect + Bivector(
            M1, [[x * Poly.t(1, k) for x in row] for row in pi0.pi.mat])
    assert pi1.pi == expect


def test_gauge_additivity_of_constant_forms():
    rng = random.Random(18)
    pi0 = planar_poisson(M1)
    for c1, c2 in [(Fraction(1, 4), Fraction(1, 5)),
                   (Fraction(-1, 3), Fraction(1, 7)),
                   (Fraction(2, 9), Fraction(-3, 8))]:
        once = gauge_real_poisson(
            gauge_real_poisson(pi0, area_form(M1, c1), rng),
            area_form(M1, c2), rng)
        both = gauge_real_poisson(pi0, area_form(M1, c1 + c2), rng)
        assert once.pi == both.pi


def test_gauge_takes_the_determinant_only_where_needed(monkeypatch):
    # det(1 + B pi) feeds only the error texts; the division needs none on
    # the series route, nor for a constant 1 + B pi (one Q(i) inverse),
    # only on the adjugate route
    from gkdirac import linalg, poisson
    calls = []

    def counted(A, tmax=None):
        calls.append(len(A))
        return real_det(A, tmax)

    real_det = linalg.poly_det
    monkeypatch.setattr(linalg, "poly_det", counted)
    monkeypatch.setattr(poisson, "poly_det", counted)
    B = area_form(M1, Fraction(1, 3))
    for tmax, want in ((None, 0), (4, 0)):
        del calls[:]
        gauge_real_poisson(planar_poisson(M1), B, random.Random(19),
                           tmax=tmax)
        assert len(calls) == want, tmax
    # pi = f d/dx1 ^ d/dx2 with f = 2 x1: 1 + B pi is unipotent but
    # z-dependent, so the adjugate route takes exactly one determinant
    f = M2.z(0) + M2.zbar(0)
    pi = Bivector(M2)
    for a in (0, 2):
        for b in (1, 3):
            pi = pi + Bivector.wedge_pair(M2, a, b, f)
    del calls[:]
    out = gauge_real_poisson(RealPoisson(M2, pi), area_form(M2, 3),
                             random.Random(19))
    assert calls == [4]
    assert out.pi.mat == pi.mat  # pi B pi = 0


# ---------------------------------------------------------------------------
# Holomorphic Poisson structures and their frames
# ---------------------------------------------------------------------------

def test_certificates_linear_sigma_flat_background():
    rng = random.Random(20)
    hp = HoloPoisson(M2, sigma=MVElement.monomial(M2, M2.z(0), vecs=(0, 1)))
    certs = hp.certificates(rng)
    assert certs.ok
    assert certs.stats["closure_method"] == "direct"
    # cross-check the direct closure verdict against the frame machinery
    assert involutivity_report.check(build_L_sigma(hp), rng).ok


def test_certificates_fail_for_antiholomorphic_coefficient():
    rng = random.Random(21)
    hp = HoloPoisson(M2, sigma=MVElement.monomial(M2, M2.zbar(0),
                                                  vecs=(0, 1)))
    certs = hp.certificates(rng)
    assert not certs.checks["closure"]
    assert certs.stats["antiholomorphic_dependence"]
    # the frame characterisation agrees with the direct verdict
    assert not involutivity_report.check(build_L_sigma(hp), rng).ok


def test_trivial_frame_is_dolbeault_splitting():
    hp = HoloPoisson(M2)
    L = build_L_sigma(hp)
    assert len(L) == 4
    # X-generators carry no covector part; zeta-generators no vector part
    for g in L.gens[:2]:
        assert not any(g.cov)
    for g in L.gens[2:]:
        assert not any(g.vec)


def test_frame_prechecks_raise_on_bad_phi():
    # nonzero flatness residual: phi = zbar2 dzbar1 (x) d/dz1 has dbar(phi) != 0
    phi = MVElement.monomial(M2, M2.zbar(1), vecs=(0,), bars=(0,))
    assert not HoloPoisson(M2, phi=phi).mc_phi_residual().is_zero()
    with pytest.raises(CertificateError):
        build_L_sigma(HoloPoisson(M2, phi=phi))


def test_constant_phi_is_flat_and_certified():
    rng = random.Random(22)
    phi = MVElement.monomial(M2, M2.poly(Fraction(1, 4)), vecs=(0,), bars=(0,))
    hp = HoloPoisson(M2, phi=phi)
    certs = hp.certificates(rng)
    assert certs.ok
    assert certs.stats["closure_method"] == "frame"


def _rand_series(rng, model, with_t):
    n = model.n
    terms = {}
    for _ in range(rng.randrange(0, 3)):
        e = [rng.randrange(0, 3) if rng.random() < 0.4 else 0
             for _ in range(2 * n)]
        e.append(rng.randrange(0, 3) if with_t else 0)
        terms[tuple(e)] = Scalar(Fraction(rng.randrange(-3, 4),
                                          rng.randrange(1, 3)),
                                 rng.randrange(-2, 3))
    return Poly(n, terms)


def _rand_phi(rng, model, with_t):
    phi = MVElement.zero(model)
    for i in range(model.n):
        for b in range(model.n):
            phi = phi + MVElement.monomial(
                model, _rand_series(rng, model, with_t), vecs=(i,), bars=(b,))
    return phi


def _former_columns(hp):
    """The four column families as HoloPoisson built them before they were
    read off the deformed frame change."""
    from gkdirac.brackets import unit_vector
    model = hp.model
    n = model.n
    Phi = hp.phi_matrix()
    antiholo, holo, holo_cov, antiholo_cov = [], [], [], []
    for b in range(n):
        col = unit_vector(model, n + b)
        for i in range(n):
            if Phi[i][b]:
                col[i] = col[i] + Phi[i][b]
        antiholo.append(col)
    for b in range(n):
        col = unit_vector(model, b)
        for i in range(n):
            if Phi[i][b]:
                col[n + i] = col[n + i] + Phi[i][b].conj()
        holo.append(col)
    for a in range(n):
        col = unit_vector(model, a)
        for b in range(n):
            if Phi[a][b]:
                col[n + b] = col[n + b] - Phi[a][b]
        holo_cov.append(col)
    for a in range(n):
        col = unit_vector(model, n + a)
        for b in range(n):
            if Phi[a][b]:
                col[b] = col[b] - Phi[a][b].conj()
        antiholo_cov.append(col)
    return antiholo, holo, holo_cov, antiholo_cov


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("with_t", [False, True])
def test_frame_columns_keep_their_former_outputs(n, with_t):
    from gkdirac.poisson import _deformed_frame_change
    rng = random.Random(100 * n + with_t)
    for param in (False, True):
        model = Model(n, param=param)
        for _ in range(3):
            hp = HoloPoisson(model, phi=_rand_phi(rng, model, with_t))
            # the holomorphic frame vectors are the conjugates of the
            # antiholomorphic ones
            antiholo = hp.antiholo_frame_columns()
            new = (antiholo,
                   [GVField(model, vec=v).conj().vec for v in antiholo],
                   hp.holo_covector_columns(),
                   hp.antiholo_covector_columns())
            assert new == _former_columns(hp)
            # vectors are the columns of A, covectors the rows of 2I - A
            A = _deformed_frame_change(hp.phi_matrix())
            pad = [model.zero_poly()] * (model.dim - 2 * n)
            cols = [[row[j] for row in A] + pad for j in range(2 * n)]
            rows = [[(2 if i == j else 0) - x for j, x in enumerate(A[i])]
                    + pad for i in range(2 * n)]
            assert new[1] + new[0] == cols
            assert new[2] + new[3] == rows


def test_complex_structure_matrix_background():
    I = HoloPoisson(M2).complex_structure()
    for i in range(2):
        assert I[i][i] == Poly.const(2, sc(0, 1))
        assert I[2 + i][2 + i] == Poly.const(2, sc(0, -1))
    assert sum(1 for row in I for x in row if x) == 4
    with pytest.raises(UnsupportedSceneError, match="parameter-free frame"):
        HoloPoisson(Model(2, param=True)).complex_structure()


def test_complex_structure_matrix_deformed_eigenvectors():
    phi = MVElement.monomial(M2, M2.poly(Fraction(1, 3)), vecs=(0,), bars=(1,))
    hp = HoloPoisson(M2, phi=phi)
    I = hp.complex_structure()
    # I^2 = -1
    from gkdirac.linalg import mat_mul, mat_identity, mat_add, mat_is_zero
    sq = mat_add(mat_mul(I, I), mat_identity(4, 2))
    assert mat_is_zero(sq)
    for v in hp.antiholo_frame_columns():
        assert mat_apply(I, v) == [c.scale(sc(0, -1)) for c in v]
        u = GVField(M2, vec=v).conj().vec  # a deformed (1,0) vector
        assert mat_apply(I, u) == [c.scale(sc(0, 1)) for c in u]


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

def test_extract_trivial_splitting():
    rng = random.Random(30)
    gens = []
    for b in range(2):
        v = [M2.zero_poly() for _ in range(4)]
        v[2 + b] = M2.poly(1)
        gens.append(GVField(M2, vec=v))
    for a in range(2):
        c = [M2.zero_poly() for _ in range(4)]
        c[a] = M2.poly(1)
        gens.append(GVField(M2, cov=c))
    hp = extract_holo_poisson(DiracFrame(M2, gens), rng)
    assert hp.phi.is_zero()
    assert hp.sigma.is_zero()


def test_extract_round_trip_linear_sigma():
    rng = random.Random(31)
    hp = HoloPoisson(M2, sigma=MVElement.monomial(M2, M2.z(0), vecs=(0, 1)))
    out = extract_holo_poisson(build_L_sigma(hp), rng)
    assert out.phi.is_zero()
    assert out.sigma == hp.sigma


def test_extract_round_trip_with_phi_and_sigma():
    rng = random.Random(32)
    phi = MVElement.monomial(M2, M2.poly(Fraction(1, 4)), vecs=(0,), bars=(0,))
    shape = HoloPoisson(M2, phi=phi)
    # (2/3) u1 ^ u2 over the deformed (1,0) vectors, the conjugates of the
    # deformed (0,1) ones
    u1, u2 = (GVField(M2, vec=v).conj().vec
              for v in shape.antiholo_frame_columns())
    sigma = sum((Bivector.wedge_pair(M2, a, b, u1[a] * u2[b] * Fraction(2, 3))
                 for a in range(4) for b in range(4) if a != b),
                Bivector(M2))
    hp = HoloPoisson(M2, sigma=sigma, phi=phi)
    certs = hp.certificates(rng)
    assert certs.ok
    out = extract_holo_poisson(build_L_sigma(hp), rng)
    assert out.phi == phi
    assert out.sigma == sigma


def test_extract_gauged_frame_gives_gauge_equivalent_pair():
    rng = random.Random(33)
    hp0 = HoloPoisson(M2, sigma=MVElement.monomial(M2, M2.poly(1),
                                                   vecs=(0, 1)))
    beta = MixedForm.monomial(M2, M2.poly(Fraction(1, 3)), holo=(0, 1))
    from gkdirac.frames import gauge_frame
    moved = gauge_frame(build_L_sigma(hp0), beta)
    hp1 = extract_holo_poisson(moved, rng)
    assert hp1.phi.is_zero()
    # sigma (1 + beta sigma)^{-1} = (3/2) sigma for this coefficient
    assert hp1.sigma == hp0.sigma.scale(Scalar(Fraction(3, 2)))
    report = check_gauge_equiv(hp0, hp1, beta, rng=rng)
    assert report.ok


# ---------------------------------------------------------------------------
# Gauge equivalence reports
# ---------------------------------------------------------------------------

def test_gauge_equiv_trivial():
    rng = random.Random(40)
    hp = HoloPoisson(M2, sigma=MVElement.monomial(M2, M2.z(0), vecs=(0, 1)))
    report = check_gauge_equiv(hp, hp, MixedForm.zero(M2), rng=rng)
    assert report.ok
    assert report.checks["frame_identity"]


def test_gauge_equiv_violated_by_antiholomorphic_form():
    rng = random.Random(41)
    hp = HoloPoisson(M2, sigma=MVElement.monomial(M2, M2.poly(1),
                                                  vecs=(0, 1)))
    beta = MixedForm.monomial(M2, M2.poly(Fraction(1, 3)), anti=(0, 1))
    report = check_gauge_equiv(hp, hp, beta, rng=rng)
    assert not report.ok
    assert not report.checks["covector_type"]
    assert not report.checks["frame_identity"]


def test_gauge_equiv_real_mode_area_form():
    rng = random.Random(42)
    hp = HoloPoisson(M1)
    F = area_form(M1, Fraction(2, 7))
    report = check_gauge_equiv(hp, hp, F, mode="real", rng=rng)
    assert report.ok
    assert report.checks["shared_imaginary_part"]
    assert report.checks["single_structure"]


def test_gauge_equiv_real_mode_rejects_complex_form():
    rng = random.Random(43)
    hp = HoloPoisson(M2)
    beta = MixedForm.monomial(M2, M2.poly(Fraction(1, 2)), holo=(0, 1))
    with pytest.raises(CertificateError):
        check_gauge_equiv(hp, hp, beta, mode="real", rng=rng)


def test_gauge_equiv_rejects_nonclosed_form():
    rng = random.Random(44)
    hp = HoloPoisson(M2)
    beta = MixedForm.monomial(M2, M2.zbar(0), holo=(0, 1))
    with pytest.raises(CertificateError):
        check_gauge_equiv(hp, hp, beta, rng=rng)


@pytest.mark.parametrize("coeff, beta, seed", [
    (M2.z(0), MixedForm.zero(M2), 40),
    (M2.poly(1), MixedForm.monomial(M2, M2.poly(Fraction(1, 3)), anti=(0, 1)),
     41),
], ids=["equivalent", "violated"])
def test_gauge_equiv_raises_when_frame_identity_disagrees(monkeypatch, coeff,
                                                          beta, seed):
    # the scenes of test_gauge_equiv_trivial and
    # test_gauge_equiv_violated_by_antiholomorphic_form, with the frame
    # identity's verdict flipped against the containment conditions
    import gkdirac.poisson as poisson
    real_frames_equal = poisson.frames_equal
    monkeypatch.setattr(poisson, "frames_equal",
                        lambda *a, **k: not real_frames_equal(*a, **k))
    hp = HoloPoisson(M2, sigma=MVElement.monomial(M2, coeff, vecs=(0, 1)))
    with pytest.raises(CertificateError, match="disagree"):
        check_gauge_equiv(hp, hp, beta, rng=random.Random(seed))


# ---------------------------------------------------------------------------
# Imaginary parts
# ---------------------------------------------------------------------------

def test_imag_q_zero_sigma():
    assert imag_Q(HoloPoisson(M2)).is_zero()


def test_imag_q_pinned_quaternionic_value():
    # sigma = -d/dz1 ^ d/dz2 has Q = 2i dz1^dz2-legs - 2i conj-legs
    hp = HoloPoisson(M2, sigma=MVElement.monomial(M2, M2.poly(-1),
                                                  vecs=(0, 1)))
    Q = imag_Q(hp)
    expect = (Bivector.wedge_pair(M2, 0, 1, Scalar(0, 2))
              + Bivector.wedge_pair(M2, 2, 3, Scalar(0, -2)))
    assert Q == expect
    assert Q.is_real()


def test_imag_q_with_deformed_structure():
    rng = random.Random(45)
    phi = MVElement.monomial(M2, M2.poly(Fraction(1, 4)), vecs=(0,), bars=(0,))
    shape = HoloPoisson(M2, phi=phi)
    u1, u2 = (GVField(M2, vec=v).conj().vec
              for v in shape.antiholo_frame_columns())
    sigma = sum((Bivector.wedge_pair(M2, a, b, u1[a] * u2[b])
                 for a in range(4) for b in range(4) if a != b),
                Bivector(M2))
    hp = HoloPoisson(M2, sigma=sigma, phi=phi)
    Q = imag_Q(hp)
    assert Q.is_real()
    # reconstruction identity is asserted inside imag_Q; a wrong-type sigma
    # must be rejected
    bad = HoloPoisson(M2, sigma=Bivector.wedge_pair(M2, 0, 2, 1), phi=None)
    with pytest.raises(CertificateError):
        imag_Q(bad)


def test_t_series_certificates():
    rng = random.Random(46)
    sigma = MVElement.monomial(M2, M2.z(0) * (M2.poly(1) + Poly.t(2)),
                               vecs=(0, 1))
    hp = HoloPoisson(M2, sigma=sigma)
    assert hp.certificates(rng, tmax=3).ok


def test_gauge_equiv_rejects_unknown_mode_before_any_certificate(
        monkeypatch):
    import gkdirac.poisson as poisson

    def refuse(*_args, **_kwargs):
        raise AssertionError("a certificate ran before the mode was checked")

    monkeypatch.setattr(poisson, "build_L_sigma", refuse)
    monkeypatch.setattr(poisson, "frames_equal", refuse)
    hp = HoloPoisson(M2, sigma=MVElement.monomial(M2, M2.poly(1),
                                                  vecs=(0, 1)))
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        check_gauge_equiv(hp, hp, MixedForm.zero(M2), mode="bogus",
                          rng=random.Random(43))


@pytest.mark.parametrize("tmax", [None, 2])
def test_frame_closure_on_a_parameter_model_reads_fiberwise(tmax):
    # build_L_sigma has 2n generators and no t direction; with the covector
    # dt added the frame is Lagrangian on C^2 x R, so closure is decided by
    # pairings, as on the plain model
    for model in (M2, Model(2, param=True)):
        phi = MVElement.monomial(model, model.z(0), vecs=(1,), bars=(0,))
        for coeff in (model.z(0), model.z(0) * model.t()):
            sigma = MVElement.monomial(model, coeff, vecs=(0, 1))
            certs = HoloPoisson(model, sigma=sigma, phi=phi).certificates(
                random.Random(47), tmax=tmax)
            rep = certs.witnesses["involutivity"]
            assert certs.checks["closure"]
            assert certs.stats["closure_method"] == "frame"
            assert rep.stats["route"] == "lagrangian"
            assert rep.stats["rank"] == model.dim


@pytest.mark.parametrize("tmax", [None, 2])
def test_frame_closure_on_a_parameter_model_still_fails_with_a_witness(
        tmax):
    # sigma = zbar2 d1^d2 is not holomorphic: closure fails on both models,
    # with the same witness T_123 = 1/2
    for model in (M2, Model(2, param=True)):
        phi = MVElement.monomial(model, model.z(0), vecs=(1,), bars=(0,))
        sigma = MVElement.monomial(model, model.zbar(1), vecs=(0, 1))
        certs = HoloPoisson(model, sigma=sigma, phi=phi).certificates(
            random.Random(53), tmax=tmax)
        rep = certs.witnesses["involutivity"]
        assert not certs.checks["closure"]
        assert rep.stats["route"] == "lagrangian"
        assert rep.checks == {"rank": True, "isotropic": True,
                              "involutive": False}
        assert rep.witnesses["failures"] == [
            (1, 2, (3, Poly.const(2, Fraction(1, 2))))]


@pytest.mark.parametrize("tmax", [1, 3])
def test_a_frame_with_no_t_leg_is_decided_at_its_cut(tmax):
    # phi = t d1 (x) dzbar1 and sigma = P (d1^d2) P^T kept mod t^{tmax+1}:
    # a valid structure whose build_L_sigma frame pairs to zero mod
    # t^{tmax+1} but not one order further.  No generator has a d/dt leg,
    # so X_c<a, b> keeps the t-order of <a, b>, and closure is decided by
    # pairings at the cut
    model = Model(2, param=True)
    zero = model.zero_poly()
    P = _holo_projector(phi_geom_matrix(
        MVElement.monomial(M2, M2.t(), vecs=(0,), bars=(0,))), tmax=tmax)
    S = Bivector.wedge_pair(M2, 0, 1, 1).mat
    mat = mat_mul(mat_mul(P, S, tmax=tmax), mat_transpose(P), tmax=tmax)
    hp = HoloPoisson(model, sigma=Bivector(model, [row + [zero] for row in mat]
                                           + [[zero] * model.dim]),
                     phi=MVElement.monomial(model, model.t(), vecs=(0,),
                                            bars=(0,)))
    assert any(build_L_sigma(hp, tmax=tmax, check=False).isotropy_defect(
        tmax + 1))
    certs = hp.certificates(random.Random(59), tmax=tmax)
    rep = certs.witnesses["involutivity"]
    assert certs.ok and rep.stats["route"] == "lagrangian"
    assert rep.checks == {"rank": True, "isotropic": True,
                          "involutive": True}
