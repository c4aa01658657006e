"""Generalized complex / generalized Kahler checker and deformations."""
import random
from fractions import Fraction

import pytest

from gkdirac import frames, genkahler, poisson
from gkdirac.errors import CertificateError, SingularityError
from gkdirac.forms import MixedForm
from gkdirac.frames import (DiracFrame, GVField, dirac_scale, frames_equal,
                            graph_two_form, tangent_frame)
from gkdirac.genkahler import (gc_deform, gc_from_dirac, gk_check,
                               gk_deform_family, gk_lift, graph_to_bivector,
                               half_i_difference)
from gkdirac.linalg import (Span, mat_add, mat_apply, mat_div_right,
                            mat_identity, mat_mul, mat_transpose, poly_det,
                            span_certificate)
from gkdirac.model import Model
from gkdirac.multivector import MVElement, form_matrix
from gkdirac.poisson import (Bivector, HoloPoisson, build_L_sigma,
                             extract_holo_poisson)
from gkdirac.poly import Poly
from gkdirac.scalars import Scalar, sc

M1 = Model(1)
M2 = Model(2)


def hermitian_form(model, signs=None, tpower=0):
    """(i/2) sum_k s_k t^p dz_k ^ dzbar_k."""
    signs = signs or [1] * model.n
    out = MixedForm.zero(model)
    for k, s in enumerate(signs):
        coeff = Poly.const(model.n, Scalar(0, Fraction(s, 2)))
        if tpower:
            coeff = coeff * Poly.t(model.n, tpower)
        out = out + MixedForm.monomial(model, coeff, (k,), (k,))
    return out


def complex_type_frame(model):
    """T_{0,1} (+) T*_{1,0} as an explicit frame."""
    gens = []
    for b in range(model.n):
        v = [model.zero_poly() for _ in range(model.dim)]
        v[model.n + b] = model.poly(1)
        gens.append(GVField(model, vec=v))
    for a in range(model.n):
        c = [model.zero_poly() for _ in range(model.dim)]
        c[a] = model.poly(1)
        gens.append(GVField(model, cov=c))
    return DiracFrame(model, gens, label="complex-type")


def kahler_pair(model, signs=None):
    omega = hermitian_form(model, signs)
    return complex_type_frame(model), graph_two_form(omega.scale(sc(0, 1)))


# ---------------------------------------------------------------------------
# Generalized complex structures
# ---------------------------------------------------------------------------

def test_gc_symplectic_type_inverts_the_form():
    rng = random.Random(50)
    L = graph_two_form(hermitian_form(M1).scale(sc(0, 1)))
    g = gc_from_dirac(L, rng)
    assert g.pi.pi == Bivector.wedge_pair(M1, 0, 1, sc(0, 2))


def test_gc_complex_type_has_zero_poisson():
    rng = random.Random(51)
    g = gc_from_dirac(complex_type_frame(M2), rng)
    assert g.pi.pi.is_zero()


def test_gc_rejects_self_conjugate_frame():
    rng = random.Random(52)
    # the graph of a real 2-form equals its own conjugate
    B = hermitian_form(M1).scale(sc(0, 1))
    B = B + B.conj()
    with pytest.raises(SingularityError):
        gc_from_dirac(graph_two_form(B), rng)


def test_gc_deform_by_real_form_keeps_poisson():
    rng = random.Random(53)
    g = gc_from_dirac(graph_two_form(hermitian_form(M1).scale(sc(0, 1))),
                      rng)
    beta = hermitian_form(M1).scale(Scalar(Fraction(1, 3)))
    out = gc_deform(g, beta, rng)
    assert out.pi.pi == g.pi.pi


def test_gc_deform_by_imaginary_form_gauges_poisson():
    rng = random.Random(54)
    g = gc_from_dirac(graph_two_form(hermitian_form(M1).scale(sc(0, 1))),
                      rng)
    c = Fraction(1, 3)
    beta = hermitian_form(M1).scale(Scalar(0, c))  # Im(beta) = c * omega
    out = gc_deform(g, beta, rng)
    assert out.pi.pi == g.pi.pi.scale(Scalar(Fraction(1, 1) / (1 + c)))


def test_gc_deform_singular_parameter_raises():
    rng = random.Random(55)
    g = gc_from_dirac(graph_two_form(hermitian_form(M1).scale(sc(0, 1))),
                      rng)
    with pytest.raises(SingularityError):
        gc_deform(g, hermitian_form(M1).scale(Scalar(0, -1)), rng)


def test_gc_deform_family_of_rational_parameters():
    rng = random.Random(56)
    g = gc_from_dirac(graph_two_form(hermitian_form(M2).scale(sc(0, 1))),
                      rng)
    beta = hermitian_form(M2).scale(Scalar(0, 1))
    for tv in (Fraction(1, 4), Fraction(1, 2), Fraction(-2, 3)):
        out = gc_deform(g, beta.scale(Scalar(tv)), rng)
        assert out.pi.pi == g.pi.pi.scale(Scalar(Fraction(1, 1) / (1 + tv)))


# ---------------------------------------------------------------------------
# The four-condition checker
# ---------------------------------------------------------------------------

def test_gk_check_flat_kahler_scene():
    rng = random.Random(60)
    L1, L2 = kahler_pair(M2)
    report = gk_check(L1, L2, rng)
    assert report.ok
    assert report.verdict == "generalized kahler"
    assert all(report.conditions.values())
    pair = report.pair
    assert pair.sigma_plus.sigma.is_zero()
    assert pair.sigma_minus.sigma.is_zero()
    assert pair.sigma_plus.phi.is_zero()
    assert pair.pi1.pi.is_zero()
    expected_pi2 = (Bivector.wedge_pair(M2, 0, 2, sc(0, 2))
                    + Bivector.wedge_pair(M2, 1, 3, sc(0, 2)))
    assert pair.pi2.pi == expected_pi2
    assert report.stats.get("fibre_splits")


def test_gk_check_sign_flip_fails_only_positivity():
    rng = random.Random(61)
    L1, L2 = kahler_pair(M2, signs=[1, -1])
    report = gk_check(L1, L2, rng)
    assert not report.ok
    assert report.conditions["transversality"]
    assert report.conditions["real_poisson_graphs"]
    assert report.conditions["holomorphic_poisson_pair"]
    assert not report.conditions["positivity"]
    assert report.verdict == "degenerate generalized kahler"


def _gk_outcome(report):
    """The verdict, the conditions and the extracted bivectors, rendered."""
    out = [report.verdict, sorted(report.conditions.items())]
    pair = report.pair
    if pair is not None:
        out += [pair.sigma_plus.sigma.render(), pair.sigma_minus.sigma.render(),
                pair.sigma_plus.phi.render()]
        out += [rp.pi.render() if rp is not None else "none"
                for rp in (pair.pi1, pair.pi2)]
    return out


@pytest.mark.parametrize("signs", [[1, 1], [1, -1]])
def test_gk_check_outcome_does_not_depend_on_the_seed(signs):
    L1, L2 = kahler_pair(M2, signs=signs)
    outcomes = [_gk_outcome(gk_check(L1, L2, random.Random(seed)))
                for seed in range(63, 68)]
    assert all(o == outcomes[0] for o in outcomes)
    assert outcomes[0][0] == ("generalized kahler" if signs == [1, 1]
                              else "degenerate generalized kahler")
    assert len(outcomes[0]) == 7


def test_gk_check_degenerate_scaled_pair():
    rng = random.Random(62)
    sigma = MVElement.monomial(M2, M2.z(0) * Poly.t(2), vecs=(0, 1))
    L1 = dirac_scale(build_L_sigma(HoloPoisson(M2, sigma=sigma)), sc(0, 2))
    L2 = tangent_frame(M2)
    report = gk_check(L1, L2, rng)
    assert report.verdict == "degenerate generalized kahler"
    assert report.conditions["holomorphic_poisson_pair"]
    assert not report.conditions["real_poisson_graphs"]
    assert not report.conditions["positivity"]
    expected = Bivector.from_mv(MVElement.monomial(M2, M2.z(0) * Poly.t(2),
                                                   vecs=(0, 1)))
    assert report.pair.sigma_plus.sigma == expected
    assert report.pair.sigma_minus.sigma == expected
    assert report.pair.sigma_plus.phi.is_zero()


def test_gk_check_graph_recognition_failure_reported():
    rng = random.Random(63)
    report = gk_check(tangent_frame(M2), tangent_frame(M2), rng)
    assert report.verdict == "not generalized kahler"
    assert not report.conditions["real_poisson_graphs"]


# ---------------------------------------------------------------------------
# Lifting deformations of the half-difference structures
# ---------------------------------------------------------------------------

def test_gk_lift_zero_forms_is_identity():
    rng = random.Random(70)
    L1, L2 = kahler_pair(M2)
    pair = gk_check(L1, L2, rng).pair
    report = gk_lift(MixedForm.zero(M2), MixedForm.zero(M2), pair, rng)
    assert report.ok
    assert frames_equal(report.pair.L1, L1, rng)
    assert frames_equal(report.pair.L2, L2, rng)
    assert report.pair.sigma_plus == pair.sigma_plus


def test_gk_lift_mismatched_imaginary_parts_rejected():
    rng = random.Random(71)
    L1, L2 = kahler_pair(M2)
    pair = gk_check(L1, L2, rng).pair
    with pytest.raises(CertificateError):
        gk_lift(hermitian_form(M2).scale(sc(0, 1)), MixedForm.zero(M2),
                pair, rng)


def test_gk_lift_flow_endpoint_pair():
    # Hamiltonian-flow instance: sigma = d1^d2, f = |z1|^2, so the flow of
    # -Q df is z2 |-> z2 + 2i t zbar1 and F = dd^c f = 2i dz1^dzbar1 is
    # flow-invariant.  B = 0, F_+ = 0, F_- = F turns (2i L_{t sigma}, T)
    # into (e^{iF} 2i L_{t sigma}, graph(iF)) with sigma_- pushed forward.
    rng = random.Random(72)
    tmax = 5
    sigma = MVElement.monomial(M2, Poly.t(2), vecs=(0, 1))
    L1 = dirac_scale(build_L_sigma(HoloPoisson(M2, sigma=sigma)), sc(0, 2))
    L2 = tangent_frame(M2)
    pair = gk_check(L1, L2, rng, tmax=tmax).pair
    F = MixedForm.monomial(M2, Poly.const(2, Scalar(0, 2)), (0,), (0,))
    report = gk_lift(MixedForm.zero(M2), F, pair, rng, tmax=tmax)
    assert report.verdict == "degenerate generalized kahler"
    assert frames_equal(report.pair.L2,
                        graph_two_form(F.scale(sc(0, 1))), rng, tmax=tmax)
    # sigma_+ is untouched (beta_+ = 0); sigma_- is carried by the flow:
    # the deformed antiholomorphic bundle is spanned by
    # dbar1 + 2i t d2, dbar2 and sigma becomes t d1^d2 + 2i t^2 d2^dbar2
    assert report.pair.sigma_plus == pair.sigma_plus
    assert report.pair.sigma_minus != pair.sigma_minus
    expected_phi = MVElement.monomial(
        M2, Poly.const(2, Scalar(0, -2)) * Poly.t(2), vecs=(1,), bars=(0,))
    # d2^dbar2 has a leg outside the holomorphic frame, so it is placed on
    # the full-frame legs (1, 3) directly
    expected_sigma = Bivector.from_mv(
        MVElement.monomial(M2, Poly.t(2), vecs=(0, 1))) + Bivector.wedge_pair(
        M2, 1, 3, Poly.const(2, Scalar(0, 2)) * Poly.t(2, 2))
    assert report.pair.sigma_minus.phi == expected_phi
    assert report.pair.sigma_minus.sigma == expected_sigma


def test_gk_lift_rejects_form_that_breaks_the_poisson_shape():
    # the standard hermitian form is not compatible with the constant
    # bivector: gauging by it destroys the tangent intersection
    rng = random.Random(74)
    tmax = 5
    sigma = MVElement.monomial(M2, Poly.t(2), vecs=(0, 1))
    L1 = dirac_scale(build_L_sigma(HoloPoisson(M2, sigma=sigma)), sc(0, 2))
    L2 = tangent_frame(M2)
    pair = gk_check(L1, L2, rng, tmax=tmax).pair
    with pytest.raises(CertificateError, match="holomorphic Poisson"):
        gk_lift(MixedForm.zero(M2), hermitian_form(M2), pair, rng, tmax=tmax)


def test_gk_lift_real_plus_form_on_kahler_scene():
    rng = random.Random(73)
    L1, L2 = kahler_pair(M2)
    pair = gk_check(L1, L2, rng).pair
    F = hermitian_form(M2).scale(Scalar(Fraction(1, 5)))
    report = gk_lift(F, MixedForm.zero(M2), pair, rng)
    assert report.conditions["holomorphic_poisson_pair"]
    # beta_1 = iF, beta_2 = -iF on this input
    got_plus = half_i_difference(report.pair.L1, report.pair.L2, rng)
    want_plus = build_L_sigma(report.pair.sigma_plus, check=False)
    assert frames_equal(got_plus, want_plus, rng)


# ---------------------------------------------------------------------------
# One-parameter families
# ---------------------------------------------------------------------------

def test_gk_deform_family_zero_form():
    rng = random.Random(80)
    L1, L2 = kahler_pair(M2)
    pair = gk_check(L1, L2, rng).pair
    fam = gk_deform_family(pair, MixedForm.zero(M2), rng, tmax=3)
    assert fam.ok
    assert fam.minus_fixed
    assert all(not roots for roots in fam.det_roots["second"])
    assert all(v == "generalized kahler" for _t, _c, v in fam.checked)
    assert all(conds and all(conds.values()) for _t, conds, _v in fam.checked)
    assert fam.stats["t_window"] == (None, None)


def test_gk_deform_family_linear_hermitian():
    rng = random.Random(81)
    L1, L2 = kahler_pair(M2)
    pair = gk_check(L1, L2, rng).pair
    F = hermitian_form(M2, tpower=1)
    fam = gk_deform_family(pair, F, rng, tmax=4)
    assert fam.ok
    assert fam.minus_fixed
    assert fam.sigma_plus_family.sigma.is_zero()
    # det(1 + F_t pi_2) = (1+t)^4: the only real root is t = -1
    for intervals in fam.det_roots["second"]:
        assert len(intervals) == 1
        a, b = intervals[0]
        assert a <= -1 <= b
    assert all(not roots for roots in fam.det_roots["first"])
    assert all(v == "generalized kahler" for _t, _c, v in fam.checked)
    lo, hi = fam.stats["t_window"]
    # conservative: the window stops at the near edge of the isolating
    # interval around the root at -1
    assert hi is None and lo is not None and -1 <= lo < 0


def _pulled_back_kahler_pair(model, h):
    """(complex-type frame, Kahler graph of the flat form pulled back by
    w_n = z_n + h(z_1))."""
    n, one = model.n, model.poly(1)
    dw = (MixedForm.monomial(model, one, (n - 1,), ())
          + MixedForm.monomial(model, h.d_z(0), (0,), ()))
    omega = dw.wedge(dw.conj())
    for k in range(n - 1):
        omega = omega + MixedForm.monomial(model, one, (k,), (k,))
    omega = omega.scale(Scalar(0, Fraction(1, 2)))
    return complex_type_frame(model), graph_two_form(omega.scale(sc(0, 1)))


@pytest.mark.parametrize("seed", range(12))
def test_gk_deform_family_window_contains_zero(seed):
    # a root of det(1 + F pi) lies close to 0 here, so the first isolating
    # interval on its side used to end at 0 and close the window there
    rng = random.Random(seed)
    pair = gk_check(*_pulled_back_kahler_pair(M2, M2.z(0) * M2.z(0)),
                    rng).pair
    fam = gk_deform_family(pair, hermitian_form(M2, tpower=1), rng, tmax=3)
    lo, hi = fam.stats["t_window"]
    assert lo is None or lo < 0
    assert hi is None or hi > 0
    for roots in fam.det_roots.values():
        for per_point in roots or ():
            assert all(a > 0 or b < 0 for a, b in per_point)


def test_gk_deform_family_requires_vanishing_at_zero():
    rng = random.Random(82)
    L1, L2 = kahler_pair(M2)
    pair = gk_check(L1, L2, rng).pair
    with pytest.raises(CertificateError):
        gk_deform_family(pair, hermitian_form(M2), rng, tmax=3)


def _former_pencil(model, Fmat, pi):
    """The former 1 + F pi of gk_deform_family: a hand-written triple
    loop."""
    dim = model.dim
    E = [[(model.poly(1) if i == j else model.zero_poly())
          for j in range(dim)] for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            acc = E[i][j]
            for l in range(dim):
                if Fmat[i][l] and pi[l][j]:
                    acc = acc + Fmat[i][l] * pi[l][j]
            E[i][j] = acc
    return E


@pytest.mark.parametrize("signs, tpower", [([1, 1], 0), ([1, 1], 1),
                                           ([1, -1], 2)])
def test_gk_deform_family_pencil_matches_the_former_loop(signs, tpower):
    rng = random.Random(84)
    pair = gk_check(*kahler_pair(M2), rng).pair
    F = hermitian_form(M2, signs, tpower=tpower) if tpower else \
        MixedForm.zero(M2)
    Fmat = form_matrix(F)
    pencils = 0
    for rp in (pair.pi1, pair.pi2):
        if rp is None:
            continue
        E = mat_add(mat_identity(M2.dim, M2.n), mat_mul(Fmat, rp.pi.mat))
        former = _former_pencil(M2, Fmat, rp.pi.mat)
        assert E == former
        assert poly_det(E) == poly_det(former)
        pencils += 1
    assert pencils


def test_covector_lift_outside_the_span_reports_its_witness():
    # d/dzbar1 and d/dz1 + dzbar1: the covector block misses dz1, the
    # coordinate covector of a graph and the (1,0)-covector of extraction
    rng = random.Random(85)
    one, zero = M1.poly(1), M1.zero_poly()
    frame = DiracFrame(M1, [GVField(M1, vec=[zero, one]),
                            GVField(M1, vec=[one, zero], cov=[zero, one])])
    with pytest.raises(SingularityError, match="not a bivector graph") as err:
        graph_to_bivector(frame, rng)
    assert err.value.point is not None
    with pytest.raises(SingularityError, match="deformed covector") as err:
        extract_holo_poisson(frame, rng)
    assert err.value.point is not None


def _covector_lifts_reference(frame, targets, rng, message, tmax=None):
    """The former lift: one division by ``den`` per target."""
    span = Span([list(g.cov) for g in frame.gens], frame.model, tmax)
    vecs = mat_transpose([g.vec for g in frame.gens])
    lifts = []
    for eta in targets:
        okflag, cert = span_certificate(span, eta, rng)
        assert okflag
        den, nums = cert
        lift = mat_mul(vecs, [[c] for c in nums], tmax=tmax)
        lifts.append([x for [x] in mat_div_right(lift, [[den]], tmax=tmax)])
    return lifts


def test_covector_lifts_divide_once_per_denominator(monkeypatch):
    divisions = []
    divide = frames.mat_div_right

    def counted(num, den, tmax=None):
        divisions.append(den[0][0])
        return divide(num, den, tmax=tmax)

    calls = []
    lifts = frames._covector_lifts

    def checked(frame, targets, P, rng, message, tmax=None):
        twin = random.Random()
        twin.setstate(rng.getstate())
        want = [mat_apply(P, X, tmax=tmax) for X in
                _covector_lifts_reference(frame, targets, twin, message, tmax)]
        del divisions[:]
        got = lifts(frame, targets, P, rng, message, tmax=tmax)
        assert got == want
        assert len(divisions) == len(set(divisions))
        calls.append((len(targets), len(divisions)))
        return got

    monkeypatch.setattr(frames, "mat_div_right", counted)
    monkeypatch.setattr(poisson, "_covector_lifts", checked)
    assert gk_check(*kahler_pair(M2), random.Random(60)).ok
    # the flat Kahler scene: graph recognition lifts nothing, and the two
    # extractions lift 2 targets each over one denominator
    assert calls == [(2, 1), (2, 1)]


def test_graph_recognition_round_trip():
    rng = random.Random(83)
    b = Bivector.wedge_pair(M2, 0, 2, sc(0, 2)) + Bivector.wedge_pair(
        M2, 1, 3, sc(0, -2))
    from gkdirac.frames import graph_bivector
    assert graph_to_bivector(graph_bivector(M2, b.mat), rng) == b


def test_real_graph_certificate_fails_on_a_combination_not_lagrangian():
    # f = {d/dz1 + dz1, d/dz2, d/dzbar1, d/dzbar2} is not isotropic, and
    # neither is (1/2i)(f - conj f), so it is no graph: the one real-Poisson
    # decision refuses it with an error its callers record, and the
    # condition reads False where frames_equal refuses the frame
    T = tangent_frame(M2)
    f = DiracFrame(M2, [T.gens[0] + GVField(M2, cov=T.gens[0].vec)]
                   + T.gens[1:])
    gamma = half_i_difference(f, f.conj(), random.Random(1))
    assert any(gamma.isotropy_defect())
    with pytest.raises(genkahler._REFUSALS):
        genkahler._real_poisson(f, f.conj(), random.Random(1))
    report = gk_check(f, f, random.Random(1))
    assert report.conditions["real_poisson_graphs"] is False
    assert "real_structure_first" in report.witnesses


def test_every_real_poisson_decision_goes_through_one_helper(monkeypatch):
    # the flat_family scene of the benchmark: a flat Kahler pair and the
    # family F_t = t (i/2) sum_k dz_k ^ dzbar_k, generalized Kahler at
    # every checked member
    def run():
        report = gk_check(*kahler_pair(M2), random.Random(86))
        fam = gk_deform_family(report.pair, hermitian_form(M2, tpower=1),
                               random.Random(87), tmax=3)
        return report, fam

    plain_report, plain_fam = run()
    decide, recognize = genkahler._real_poisson, genkahler._graph_quotient
    decisions, recognitions = [], []

    def counted(L, conj, rng, tmax=None):
        decisions.append(L)
        return decide(L, conj, rng, tmax=tmax)

    def counted_graph(frame, rng, tmax=None):
        recognitions.append(frame)
        return recognize(frame, rng, tmax=tmax)

    monkeypatch.setattr(genkahler, "_real_poisson", counted)
    monkeypatch.setattr(genkahler, "_graph_quotient", counted_graph)
    report, fam = run()
    # two frames in gk_check, two at each of the three members, and one
    # graph recognition per decision, none elsewhere
    assert len(decisions) == 8 == len(recognitions)
    assert report.verdict == plain_report.verdict == "generalized kahler"
    assert report.conditions == plain_report.conditions
    assert all(report.conditions.values())
    assert fam.ok and fam.minus_fixed
    assert fam.checked == plain_fam.checked
    assert [v for _t, _c, v in fam.checked] == ["generalized kahler"] * 3

    def refused(L, conj, rng, tmax=None):
        decisions.append(L)
        raise CertificateError("refused")

    monkeypatch.setattr(genkahler, "_real_poisson", refused)
    del decisions[:]
    report, fam = run()
    # gk_check tries both frames; a member stops at its first refusal
    assert len(decisions) == 2 + 3
    assert report.witnesses["real_structure_first"] == "refused"
    assert report.conditions == dict(plain_report.conditions,
                                     real_poisson_graphs=False)
    for (_t, conds, verdict), (_pt, plain, _pv) in zip(fam.checked,
                                                       plain_fam.checked):
        assert conds == dict(plain, real_poisson_graphs=False)
        assert verdict == "degenerate generalized kahler"
