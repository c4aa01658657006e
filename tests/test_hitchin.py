"""Order-by-order deformation solver: inverse series, transport, families."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gkdirac import hitchin, linalg
from gkdirac.brackets import mc_residual_dgla
from gkdirac.errors import CertificateError, UnsupportedSceneError
from gkdirac.forms import MixedForm, euler_homotopy
from gkdirac.frames import _conj_operator, frames_equal
from gkdirac.hitchin import (DeformSeries, deformation_frame,
                             deformed_holomorphic_lift, deformed_structures,
                             formality_psi, hamiltonian_family_check,
                             mc_component_check, pi_star_transport,
                             solve_hitchin, twistor_demo,
                             verify_graph_identity,
                             _deformed_dbar_function)
from gkdirac.linalg import (mat_add, mat_div_right, mat_eval, mat_identity,
                            mat_mul, mat_neg, mat_t_truncate)
from gkdirac.model import Model
from gkdirac.multivector import (MVElement, bivector_matrix, form_from_matrix,
                                 form_matrix, mv_from_bivector_matrix)
from gkdirac.poisson import (Bivector, HoloPoisson, RealPoisson,
                             build_L_sigma, gauge_real_poisson,
                             schouten_defect)
from gkdirac.poly import Poly
from gkdirac.report import Report
from gkdirac.scalars import Scalar, sc

M3 = Model(3)
M2 = Model(2)
M1 = Model(1)


def c2_sigma():
    return Bivector.from_mv(MVElement.monomial(M2, M2.z(0), vecs=(0, 1)))


def c2_background():
    return HoloPoisson(M2, sigma=c2_sigma())


def fubini_seed(model=M2):
    half_i = Scalar(0, Fraction(1, 2))
    out = MixedForm.zero(model)
    for k in range(model.n):
        out = out + MixedForm.monomial(model, Poly.const(model.n, half_i),
                                       (k,), (k,))
    return out


def mono(model, coeff, holo=(), anti=()):
    return MixedForm.monomial(model, model.poly(coeff), holo, anti)


# ---------------------------------------------------------------------------
# The inverse series
# ---------------------------------------------------------------------------

def test_formality_zero_sigma_is_identity():
    hp = HoloPoisson(M2)
    beta = fubini_seed().poly_mul(Poly.t(2))
    assert formality_psi(beta, hp, 6) == beta.t_truncate(6)


def test_formality_zero_beta():
    assert formality_psi(MixedForm.zero(M2), c2_background(), 5).is_zero()


def test_formality_rejects_non_closed():
    beta = MixedForm.monomial(M2, M2.zbar(0), (0,), (1,)).poly_mul(Poly.t(2))
    assert not beta.d().is_zero()
    with pytest.raises(CertificateError):
        formality_psi(beta, c2_background(), 4)


def test_formality_rejects_constant_term():
    with pytest.raises(CertificateError):
        formality_psi(fubini_seed(), c2_background(), 4)


def test_formality_refuses_a_background_that_is_not_a_holo_poisson():
    # the background is a HoloPoisson; its Bivector, its (2,0) MVElement
    # and its bare leg matrix are each refused, not converted
    beta = fubini_seed().poly_mul(Poly.t(2))
    for sigma in (c2_sigma(), MVElement.monomial(M2, M2.z(0), vecs=(0, 1)),
                  c2_sigma().mat):
        with pytest.raises(TypeError, match="must be a HoloPoisson"):
            formality_psi(beta, sigma, 3)


def test_formality_flat_family_terminates():
    # constant-coefficient scene where every cubic-and-higher word dies:
    # the inverse series of 2it omega_1 + t^2 conj(volume) is exactly
    # 2it omega_1
    rep = twistor_demo(order=2)
    hp = HoloPoisson(rep.model, sigma=rep.sigma1)
    beta = rep.series.beta_series()
    psi = formality_psi(beta, hp, 9)
    seed = fubini_seed(rep.model).scale(sc(0, 2)).poly_mul(Poly.t(2))
    assert psi == seed
    assert psi.component(0, 2).is_zero()


def test_formality_random_closed_forms_are_flat():
    rng = random.Random(90125)
    hp = c2_background()
    for _ in range(4):
        alpha = MixedForm.zero(M2)
        for leg in range(4):
            coeff = M2.z(0) * M2.zbar(1) if leg == 0 else \
                M2.poly(Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
            holo = (leg,) if leg < 2 else ()
            anti = (leg - 2,) if leg >= 2 else ()
            alpha = alpha + MixedForm.monomial(M2, coeff, holo, anti)
        beta = alpha.d().poly_mul(Poly.t(2))
        # full certificates (closedness, defining identity, flatness)
        formality_psi(beta, hp, 6)


# ---------------------------------------------------------------------------
# Transport into the polyvector complex
# ---------------------------------------------------------------------------

def test_transport_splits_by_type():
    hp = c2_background()
    w11 = fubini_seed()
    w02 = MixedForm.monomial(M2, M2.z(0), anti=(0, 1))
    w20 = MixedForm.monomial(M2, M2.poly(1), holo=(0, 1))
    e11 = pi_star_transport(w11, hp)
    assert sorted(e11.comps) == [(1, 1)]
    e02 = pi_star_transport(w02, hp)
    assert e02 == MVElement.monomial(M2, M2.z(0), bars=(0, 1))
    e20 = pi_star_transport(w20, hp)
    assert sorted(e20.comps) == [(2, 0)]
    assert pi_star_transport(w11 + w02 + w20, hp) == e11 + e02 + e20


def test_transport_first_order_representative():
    hp = c2_background()
    ds = solve_hitchin(hp, fubini_seed(), 3, mode="real")
    rep1 = pi_star_transport(fubini_seed().poly_mul(Poly.t(2)),
                             hp).t_coefficient(1)
    got = ds.eps.t_coefficient(1)
    assert got == rep1
    assert got.component(0, 2).is_zero()


def test_transport_refuses_a_background_not_of_type_20():
    # pi_star reads only the dz x dz block of the leg matrix, so the
    # transport checks the type first instead of dropping the other legs
    hp = HoloPoisson(M2, sigma=Bivector.wedge_pair(M2, 0, 2, 1))
    with pytest.raises(UnsupportedSceneError):
        pi_star_transport(fubini_seed().poly_mul(Poly.t(2)), hp)
    with pytest.raises(UnsupportedSceneError):
        mc_component_check(MVElement.zero(M2), hp)


# ---------------------------------------------------------------------------
# The solver
# ---------------------------------------------------------------------------

def test_solve_zero_seed_gives_zero_series():
    ds = solve_hitchin(c2_background(), MixedForm.zero(M2), 4)
    assert all(b.is_zero() for b in ds.betas)
    assert ds.omega.is_zero()
    assert ds.eps.is_zero()


def test_solve_rejects_bad_seeds():
    hp = c2_background()
    with pytest.raises(CertificateError):
        solve_hitchin(hp, MixedForm.monomial(M2, M2.zbar(0), (0,), (1,)), 3)
    with pytest.raises(CertificateError):
        solve_hitchin(hp, MixedForm.monomial(M2, M2.poly(1), anti=(0, 1)), 3)
    with pytest.raises(CertificateError):
        solve_hitchin(hp, fubini_seed().poly_mul(Poly.t(2)), 3)
    with pytest.raises(CertificateError):
        # real mode needs a real (1,1) seed
        solve_hitchin(hp, fubini_seed().scale(sc(0, 1)), 3, mode="real")
    with pytest.raises(ValueError):
        solve_hitchin(hp, fubini_seed(), 0)
    with pytest.raises(ValueError):
        solve_hitchin(hp, fubini_seed(), 3, mode="formal")


def test_solve_refuses_a_real_seed_with_a_20_part():
    # a real seed's (0,2) part is the conjugate of its (2,0) part, so the
    # (0,2) refusal is the one that a (2,0) part meets in real mode
    vol = MixedForm.monomial(M2, M2.poly(1), (0, 1), ())
    for seed in (vol + vol.conj(), fubini_seed() + vol + vol.conj()):
        assert seed.is_real() and seed.d().is_zero()
        assert seed.component(0, 2) == vol.conj()
        with pytest.raises(CertificateError, match="no \\(0,2\\) part"):
            solve_hitchin(c2_background(), seed, 3, mode="real")
    # without its (0,2) part the seed is no longer real
    with pytest.raises(CertificateError, match="needs a real seed form"):
        solve_hitchin(c2_background(), fubini_seed() + vol, 3, mode="real")


def test_solve_guards_the_flatness_of_the_transported_element(monkeypatch):
    real_check = hitchin.mc_component_check

    def corrupted(eps, sigma, tmax=None):
        rep = real_check(eps, sigma, tmax=tmax)
        return Report(rep.name, dict(rep.checks, jacobi=False),
                      witnesses=rep.witnesses, stats=rep.stats)

    monkeypatch.setattr(hitchin, "mc_component_check", corrupted)
    with pytest.raises(CertificateError,
                       match="transported element fails its flatness"):
        solve_hitchin(c2_background(), fubini_seed(), 3, mode="real")


def test_solve_c2_real_quadratic_obstruction():
    ds = solve_hitchin(c2_background(), fubini_seed(), 4, mode="real")
    quarter = Scalar(Fraction(-1, 4))
    want_r2 = MixedForm.monomial(M2, M2.z(0).scale(quarter), anti=(0, 1))
    assert ds.residuals[2] == want_r2
    eighth = Fraction(1, 8)
    want_g2 = (MixedForm.monomial(M2, (M2.z(0) * M2.zbar(0)).scale(
        Scalar(eighth)), anti=(1,))
        - MixedForm.monomial(M2, (M2.z(0) * M2.zbar(1)).scale(
            Scalar(eighth)), anti=(0,)))
    assert ds.gammas[2] == want_g2
    assert ds.betas[1] == (want_g2 + want_g2.conj()).d()
    for b in ds.betas:
        assert b.d().is_zero() and b.is_real()
    assert ds.omega.component(0, 2).is_zero()
    # the scheme keeps producing corrections at this scene
    assert not ds.residuals[3].is_zero()


def test_solve_c2_complex_mode_differs_from_real():
    dsr = solve_hitchin(c2_background(), fubini_seed(), 3, mode="real")
    dsc = solve_hitchin(c2_background(), fubini_seed(), 3, mode="complex")
    assert dsr.betas[1] != dsc.betas[1]
    assert dsc.betas[1].d().is_zero()
    assert not dsc.betas[1].is_real()


def _solve_loop_reference(hp, omega1, order, mode):
    """The former loop: at every order k the whole inverse series of the
    corrected series, mod t^{k+2}, through ``mat_div_right``; returns
    ``(betas, residuals, gammas)``."""
    model = hp.model
    n, dim = model.n, model.dim
    M = [row[:] for row in hp.sigma.mat]
    betas, residuals, gammas = [omega1], {}, {}
    zero = MixedForm.zero(model)
    series = omega1.poly_mul(Poly.t(n))
    for k in range(1, order):
        W = form_matrix(series)
        den = mat_add(mat_identity(dim, n), mat_mul(M, W, tmax=k + 1))
        psi_op = mat_div_right(W, den, tmax=k + 1)
        r = form_from_matrix(model, psi_op).component(0, 2).t_coefficient(
            k + 1)
        residuals[k + 1] = r
        if r.is_zero():
            gammas[k + 1] = zero
            betas.append(zero)
            continue
        gamma = euler_homotopy(r).scale(Scalar(-1))
        step = gamma.d() if mode == "complex" else (gamma + gamma.conj()).d()
        gammas[k + 1] = gamma
        betas.append(step)
        series = series + step.poly_mul(Poly.t(n, k + 1))
    return betas, residuals, gammas


def _t_dependent_background():
    """sigma = ((1 + 2i) z1 t + z2) d1^d2: sigma's matrix has a t^1 block,
    so the t^k block of M W is sum_a M_a W_{k-a}, not M_0 W_k."""
    f = M2.z(0).scale(sc(1, 2)) * Poly.t(2) + M2.z(1)
    return HoloPoisson(M2, sigma=MVElement.monomial(M2, f, vecs=(0, 1)))


def _c3_background():
    f = M3.z(0).scale(sc(2, -1)) + M3.z(1) + M3.z(2).scale(sc(0, 1))
    return HoloPoisson(M3, sigma=MVElement.monomial(M3, f, vecs=(0, 1)))


_SCENES = {"c2": lambda: (c2_background(), fubini_seed()),
           "t_dependent": lambda: (_t_dependent_background(), fubini_seed()),
           "c3": lambda: (_c3_background(), fubini_seed(M3))}


@pytest.mark.parametrize("mode", ["real", "complex"])
@pytest.mark.parametrize("scene", ["c2", "t_dependent", "c3"])
def test_solve_matches_the_per_order_inverse_loop(scene, mode):
    hp, seed = _SCENES[scene]()
    top = 6 if scene != "c3" else 4
    betas, residuals, gammas = _solve_loop_reference(hp, seed, top, mode)
    # the loop at order k runs the first k - 1 steps of the loop at top
    for order in range(2, top + 1):
        ds = solve_hitchin(hp, seed, order, mode=mode)
        assert ds.betas == betas[:order]
        assert ds.residuals == {k: r for k, r in residuals.items()
                                if k <= order}
        assert ds.gammas == {k: g for k, g in gammas.items() if k <= order}
    assert any(not r.is_zero() for r in residuals.values())


def _obstruction_reference(hp, omega1, order, mode):
    """The former obstructions: blocks N_k = sum_a M_a W_{k-a} of M W and
    X_k = -sum_{i=1..k} N_i X_{k-i} of (1 + M W)^{-1} (its zbar columns),
    and the zbar-zbar block of sum_{i=1..k} W_i X_{k+1-i} of W (1 + M
    W)^{-1}; returns the residuals by order."""
    model = hp.model
    n, dim = model.n, model.dim
    M = hp.sigma.mat
    residuals = {}
    Ms = linalg._mat_t_blocks(M, max(0, *(e.t_degree() for row in M
                                          for e in row)))
    zero = [[Poly.zero(n)] * dim for _ in range(dim)]
    Ws, Ns = [zero, form_matrix(omega1)], [zero]
    Xs = [[row[n:2 * n] for row in mat_identity(dim, n)]]
    for k in range(1, order):
        Ns.append(linalg._mat_series_term(Ms, Ws, k))
        Xs.append(mat_neg(linalg._mat_series_term(Ns, Xs, k)))
        F = [row[:] for row in zero]
        block = linalg._mat_series_term(Ws, Xs, k + 1)
        for a in range(n, 2 * n):
            F[a][n:2 * n] = block[a]
        r = form_from_matrix(model, F).component(0, 2)
        residuals[k + 1] = r
        if r.is_zero():
            Ws.append(zero)
            continue
        gamma = euler_homotopy(r).scale(Scalar(-1))
        step = gamma.d() if mode == "complex" else (gamma + gamma.conj()).d()
        Ws.append(form_matrix(step))
    return residuals


@pytest.mark.parametrize("mode", ["real", "complex"])
@pytest.mark.parametrize("scene", ["c2", "t_dependent", "c3"])
def test_obstructions_match_the_former_block_route(scene, mode):
    # the obstruction is the (0,2) part of the omega block that the
    # earlier orders fix, since W (1 + M W)^{-1} = (1 + W M)^{-1} W
    hp, seed = _SCENES[scene]()
    top = 6 if scene != "c3" else 4
    want = _obstruction_reference(hp, seed, top, mode)
    for order in range(2, top + 1):
        ds = solve_hitchin(hp, seed, order, mode=mode)
        assert ds.residuals == {k: r for k, r in want.items() if k <= order}
    assert any(not r.is_zero() for r in want.values())


def test_solve_forms_omega_once(monkeypatch):
    # one recurrence: two block products per order, and no second solve
    # of omega by formality_psi
    calls = {"psi": 0, "term": 0}
    term = hitchin._mat_series_term

    def counted_psi(*args, **kwargs):
        calls["psi"] += 1
        return formality_psi(*args, **kwargs)

    def counted_term(*args):
        calls["term"] += 1
        return term(*args)

    monkeypatch.setattr(hitchin, "formality_psi", counted_psi)
    monkeypatch.setattr(hitchin, "_mat_series_term", counted_term)
    for scene in sorted(_SCENES):
        hp, seed = _SCENES[scene]()
        for order in (1, 2, 4):
            for mode in ("real", "complex"):
                calls.update(psi=0, term=0)
                solve_hitchin(hp, seed, order, mode=mode)
                assert calls["psi"] == 0
                assert calls["term"] <= 2 * (order - 1)


@pytest.mark.parametrize("scene", sorted(_SCENES))
def test_solve_certifies_its_last_omega_block(scene, monkeypatch):
    # a wrong (1,1) entry in the last omega block of the recurrence, which
    # no obstruction reads, is refused by the defining identity on the
    # assembled matrices (an earlier wrong block already breaks the
    # antisymmetry of the next one)
    term = hitchin._mat_series_term
    hp, seed = _SCENES[scene]()
    model = hp.model
    n = model.n
    z = model.z(n - 1)
    for order in range(2, 5):
        def corrupted(As, Bs, j, order=order):
            out = term(As, Bs, j)
            if j == order and Bs is not As and len(Bs) == j:
                out[0][n] = out[0][n] + z
                out[n][0] = out[n][0] - z
            return out

        monkeypatch.setattr(hitchin, "_mat_series_term", corrupted)
        with pytest.raises(CertificateError, match="defining identity"):
            solve_hitchin(hp, seed, order)
        monkeypatch.setattr(hitchin, "_mat_series_term", term)
        solve_hitchin(hp, seed, order)


def test_solve_and_psi_invert_nothing(monkeypatch):
    # formality_psi solves (1 + W M) psi = W by its block recurrence, and
    # solve_hitchin's loop grows its own blocks: neither inverts a matrix
    calls = []
    inverse = linalg.poly_mat_inverse

    def counted_inverse(*args, **kwargs):
        calls.append(args)
        return inverse(*args, **kwargs)

    monkeypatch.setattr(linalg, "poly_mat_inverse", counted_inverse)
    assert not hasattr(hitchin, "mat_div_right")
    for hp in (c2_background(), _t_dependent_background()):
        for order in range(2, 7):
            for mode in ("real", "complex"):
                ds = solve_hitchin(hp, fubini_seed(), order, mode=mode)
                formality_psi(ds.beta_series(), hp, order)
                formality_psi(ds.beta_series(), hp, order, check=False)
                assert calls == []
    # the patch is live: the former division route does invert
    _psi_division_reference(ds.beta_series(), hp, 2)
    assert len(calls) == 1


def _psi_division_reference(beta, hp, tmax):
    """The former route: psi = W (1 + M W)^{-1} through ``mat_div_right``."""
    model = hp.model
    W = form_matrix(beta)
    M = [row[:] for row in hp.sigma.mat]
    den = mat_add(mat_identity(model.dim, model.n), mat_mul(M, W, tmax=tmax))
    return form_from_matrix(model, mat_div_right(W, den, tmax=tmax))


def _closed_series(model):
    """t (Kahler seed) + t^2 d(a2) + t^3 d(a3): closed, with a nonzero t^2
    block and a t^3 block of every type (2,0), (1,1), (0,2)."""
    n = model.n
    z, zb = model.z, model.zbar
    a2 = (MixedForm.monomial(model, z(0) * zb(n - 1), holo=(n - 1,))
          + MixedForm.monomial(model, (z(n - 1) * z(0)).scale(sc(1, -1)),
                               anti=(0,)))
    a3 = (MixedForm.monomial(model, zb(0) * zb(0), holo=(0,))
          + MixedForm.monomial(model, z(0).scale(sc(Fraction(1, 2), 1)),
                               holo=(n - 1,))
          + MixedForm.monomial(model, z(0) * zb(0), anti=(n - 1,)))
    return (fubini_seed(model).poly_mul(Poly.t(n))
            + a2.d().poly_mul(Poly.t(n, 2)) + a3.d().poly_mul(Poly.t(n, 3)))


@pytest.mark.parametrize("scene", ["c2", "t_dependent", "c3"])
def test_formality_matches_the_division_route(scene):
    hp, _seed = _SCENES[scene]()
    beta = _closed_series(hp.model)
    assert beta.d().is_zero()
    assert all(not beta.t_coefficient(k).is_zero() for k in (1, 2, 3))
    for order in range(1, 7):
        want = _psi_division_reference(beta, hp, order)
        assert formality_psi(beta, hp, order) == want
        assert formality_psi(beta, hp, order, check=False) == want


def _partial_sums_reference(W, A, psi_op, beta, order):
    """The former partial-sum certificate of ``formality_psi``.

    omega agrees with beta - beta sigma beta + ... through the cubic term;
    the omitted terms have t-valuation at least five times that of beta,
    and truncation is a ring map, so products mod t^{bound+1} suffice.
    Raises ``CertificateError`` on disagreement.
    """
    vals = [c.t_valuation() for _k, table in beta.comps.items()
            for c in table.values() if c]
    val = max(1, min(vals) if vals else 0)
    bound = min(order, 5 * val - 1)
    S = term = W
    for _ in range(3):
        term = mat_neg(mat_mul(A, term, tmax=bound))
        S = mat_add(S, term)
    if mat_t_truncate(psi_op, bound) != mat_t_truncate(S, bound):
        raise CertificateError(
            "inverse series disagrees with its alternating partial sums")


@pytest.mark.parametrize("val", [1, 2])
def test_partial_sums_reach_every_order_up_to_the_bound(val):
    # the reference keeps its products mod t^{bound+1}, bound = min(order,
    # 5 val - 1); a wrong psi term at any order up to the bound is caught
    hp = c2_background()
    beta = (_closed_series(M2) if val == 1
            else fubini_seed().poly_mul(Poly.t(2, 2)))
    order = 6
    W = form_matrix(beta)
    A = mat_mul(W, hp.sigma.mat, tmax=order)
    psi_op = form_matrix(formality_psi(beta, hp, order, check=False))
    _partial_sums_reference(W, A, psi_op, beta, order)
    bound = min(order, 5 * val - 1)
    for k in range(1, order + 1):
        bad = [row[:] for row in psi_op]
        bad[0][2] = bad[0][2] + M2.z(1) * Poly.t(2, k)
        if k <= bound:
            with pytest.raises(CertificateError):
                _partial_sums_reference(W, A, bad, beta, order)
        else:
            _partial_sums_reference(W, A, bad, beta, order)


@pytest.mark.parametrize("mode", ["real", "complex"])
@pytest.mark.parametrize("scene", sorted(_SCENES))
def test_formality_matches_the_partial_sums_on_solved_series(scene, mode):
    # the defining identity has one solution mod t^{order+1}, so omega is
    # the partial sums wherever they are determined
    hp, seed = _SCENES[scene]()
    for order in range(1, 7):
        ds = solve_hitchin(hp, seed, order, mode=mode)
        beta = ds.beta_series()
        W = form_matrix(beta)
        A = mat_mul(W, hp.sigma.mat, tmax=order)
        assert formality_psi(beta, hp, order) == ds.omega
        _partial_sums_reference(W, A, form_matrix(ds.omega), beta, order)


@pytest.mark.parametrize("scene", sorted(_SCENES))
def test_defining_identity_catches_a_wrong_block_at_every_order(
        scene, monkeypatch):
    # one omega block at t^k is corrupted inside the recurrence, and the
    # later blocks are solved from it; the defining identity still fails at
    # every k, also past the partial sums' bound 5 val - 1 = 4
    hp, _seed = _SCENES[scene]()
    model = hp.model
    beta = _closed_series(model)
    order = 6
    W = form_matrix(beta)
    A = mat_mul(W, hp.sigma.mat, tmax=order)
    series_term = hitchin._mat_series_term
    from_blocks = hitchin._mat_from_t_blocks
    assembled = []

    def recorded(blocks):
        assembled.append(from_blocks(blocks))
        return assembled[-1]

    monkeypatch.setattr(hitchin, "_mat_from_t_blocks", recorded)
    for k in range(1, order + 1):
        def corrupted(As, Bs, j, k=k):
            out = series_term(As, Bs, j)
            if j == k:
                out[0][model.n] = out[0][model.n] + model.z(1)
            return out

        monkeypatch.setattr(hitchin, "_mat_series_term", corrupted)
        with pytest.raises(CertificateError, match="defining identity"):
            formality_psi(beta, hp, order)
        if k > 4:
            # the partial sums stop at t^4 and pass the corrupted omega
            _partial_sums_reference(W, A, assembled[-1], beta, order)
        else:
            with pytest.raises(CertificateError):
                _partial_sums_reference(W, A, assembled[-1], beta, order)
    monkeypatch.setattr(hitchin, "_mat_series_term", series_term)
    formality_psi(beta, hp, order)


def test_series_closedness_is_proved_once_on_the_assembled_form(
        monkeypatch):
    # DeformSeries takes no d() of its coefficients; the certificate the
    # solve shares with formality_psi takes one of the assembled series,
    # which is closed exactly when every t-free coefficient is.  From
    # order 2 on omega differs from the series, so the flatness
    # residual's d(omega) is not counted as well
    seen = []
    inside = []
    d = MixedForm.d
    init = DeformSeries.__init__

    def counted_d(self):
        seen.append((self, bool(inside)))
        return d(self)

    def flagged_init(self, *args):
        inside.append(True)
        try:
            init(self, *args)
        finally:
            inside.pop()

    monkeypatch.setattr(MixedForm, "d", counted_d)
    monkeypatch.setattr(DeformSeries, "__init__", flagged_init)
    for scene in sorted(_SCENES):
        hp, seed = _SCENES[scene]()
        for order in (2, 3, 5):
            for mode in ("real", "complex"):
                seen.clear()
                ds = solve_hitchin(hp, seed, order, mode=mode)
                series = ds.beta_series()
                assert ds.omega != series
                assert not any(flag for _form, flag in seen)
                assert sum(form == series for form, _flag in seen) == 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_formality_rejects_one_non_closed_coefficient(k):
    hp = c2_background()
    ds = solve_hitchin(hp, fubini_seed(), 4, mode="complex")
    bad = MixedForm.monomial(M2, M2.zbar(0), (0,), (1,))
    assert not bad.d().is_zero()
    betas = list(ds.betas)
    betas[k - 1] = betas[k - 1] + bad
    broken = DeformSeries(ds.model, ds.background, ds.mode, ds.order, betas,
                          ds.residuals, ds.gammas, ds.omega, ds.eps)
    with pytest.raises(CertificateError, match="closed"):
        formality_psi(broken.beta_series(), hp, 4)
    with pytest.raises(CertificateError, match="closed"):
        formality_psi(_closed_series(M2) + bad.poly_mul(Poly.t(2, k)), hp, 4)


def test_solve_refuses_an_omega_with_a_02_part(monkeypatch):
    # solve_hitchin holds the one check that omega's (0,2) part vanishes
    certified = hitchin._certified_inverse
    extra = MixedForm.monomial(M2, M2.z(0) * Poly.t(2, 2), anti=(0, 1))

    def with_02_part(*args):
        return certified(*args) + extra

    monkeypatch.setattr(hitchin, "_certified_inverse", with_02_part)
    for mode in ("real", "complex"):
        with pytest.raises(CertificateError, match=r"\(0,2\) part"):
            solve_hitchin(c2_background(), fubini_seed(), 3, mode=mode)


# ---------------------------------------------------------------------------
# Gauge identity
# ---------------------------------------------------------------------------

def _random_phi(rng, model, with_t):
    phi = MVElement.zero(model)
    for i in range(model.n):
        for b in range(model.n):
            c = model.poly(Scalar(Fraction(rng.randrange(-3, 4), 2),
                                  rng.randrange(-1, 2)))
            for leg in range(2 * model.n):
                if rng.random() < 0.3:
                    c = c * Poly.var(model.n, leg)
            if with_t:
                c = c * model.t()
            phi = phi + MVElement.monomial(model, c, vecs=(i,), bars=(b,))
    return phi


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("with_t", [False, True])
def test_deformation_frame_keeps_its_former_columns(n, with_t):
    from gkdirac.multivector import phi_geom_matrix
    rng = random.Random(10 * n + with_t)
    model = Model(n)
    dim = model.dim
    for _ in range(3):
        eps = _random_phi(rng, model, with_t)
        gens = deformation_frame(HoloPoisson(model), eps).gens
        # the columns as deformation_frame built them inline before
        Phi = phi_geom_matrix(eps)
        for b in range(n):
            v = [model.zero_poly() for _ in range(dim)]
            v[n + b] = model.poly(1)
            for i in range(n):
                if Phi[i][b]:
                    v[i] = v[i] + Phi[i][b]
            assert gens[b].vec == v
        for a in range(n):
            cov = [model.zero_poly() for _ in range(dim)]
            cov[a] = model.poly(1)
            for b in range(n):
                if Phi[a][b]:
                    cov[n + b] = cov[n + b] - Phi[a][b]
            assert gens[n + a].cov == cov


def test_graph_identity_zero_form():
    rng = random.Random(31)
    rep = verify_graph_identity(MixedForm.zero(M2), c2_background(), rng)
    assert rep.ok and len(rep.witnesses["points"]) == 5


def test_graph_identity_constant_scene():
    rng = random.Random(37)
    sigma = Bivector.wedge_pair(M2, 0, 1, sc(1, 1))
    hp = HoloPoisson(M2, sigma=sigma)
    beta = (mono(M2, sc(1, 0), (0,), (1,))
            + mono(M2, sc(-1, 0), (1,), (0,))
            + mono(M2, sc(0, 2), (0,), (0,)))
    assert beta.d().is_zero()
    rep = verify_graph_identity(beta, hp, rng)
    assert rep.ok and all(flag for _p, flag in rep.witnesses["points"])


def test_graph_identity_series_level():
    rng = random.Random(41)
    hp = c2_background()
    ds = solve_hitchin(hp, fubini_seed(), 4, mode="real")
    rep = verify_graph_identity(ds.beta_series(), hp, rng, order=4)
    assert rep.ok and rep.series_equal is True


def _former_pointwise_pencil(Mp, Wp):
    """The former Ep of verify_graph_identity: 1 + M W built by hand from
    the evaluated matrices."""
    dim = len(Mp)
    Ep = [[(Scalar(1) if i == j else Scalar(0)) for j in range(dim)]
          for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            acc = Ep[i][j]
            for l in range(dim):
                acc = acc + Mp[i][l] * Wp[l][j]
            Ep[i][j] = acc
    return Ep


def test_graph_identity_pointwise_pencil_matches_the_former_loop():
    rng = random.Random(43)
    constant = (mono(M2, sc(1, 0), (0,), (1,))
                + mono(M2, sc(-1, 0), (1,), (0,))
                + mono(M2, sc(0, 2), (0,), (0,)))
    series = solve_hitchin(c2_background(), fubini_seed(), 4,
                           mode="real").beta_series()
    scenes = [(MixedForm.zero(M2), c2_sigma()),
              (constant, Bivector.wedge_pair(M2, 0, 1, sc(1, 1))),
              (series, c2_sigma())]
    for beta, sigma in scenes:
        W = form_matrix(beta)
        E = mat_add(mat_identity(M2.dim, M2.n), mat_mul(sigma.mat, W))
        for pt in M2.sample_points(rng, count=5, with_t=True):
            assert mat_eval(E, pt) == _former_pointwise_pencil(
                mat_eval(sigma.mat, pt), mat_eval(W, pt))


# ---------------------------------------------------------------------------
# Componentwise flatness
# ---------------------------------------------------------------------------

def test_mc_components_zero_element():
    rep = mc_component_check(MVElement.zero(M2), c2_background())
    assert rep.ok and rep.stats["linear_ok"]


def test_mc_components_of_solved_series():
    hp = c2_background()
    ds = solve_hitchin(hp, fubini_seed(), 4, mode="real")
    rep = mc_component_check(ds.eps, hp, tmax=4)
    assert rep.ok and rep.stats["linear_ok"]
    assert set(rep.witnesses["residuals"]) == {
        "complex_structure", "holomorphicity", "jacobi", "form_part"}


def test_mc_components_flag_violations():
    phi_bad = MVElement.monomial(M2, M2.zbar(0) * M2.zbar(1),
                                 vecs=(0,), bars=(0,))
    rep = mc_component_check(phi_bad, c2_background())
    assert not rep.ok
    assert not rep.witnesses["residuals"]["complex_structure"].is_zero()


small = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@settings(max_examples=12, deadline=None)
@given(small, small, small)
def test_mc_component_sum_consistency(a, b, c):
    # the split never raises and always reproduces the one-shot residual,
    # whatever the (non-flat) input
    rho = MVElement.monomial(M2, M2.z(0).scale(Scalar(a)), vecs=(0, 1))
    phi = MVElement.monomial(M2, M2.zbar(1).scale(Scalar(b)),
                             vecs=(0,), bars=(1,))
    gamma = MVElement.monomial(M2, M2.z(1).scale(Scalar(c)), bars=(0, 1))
    eps = rho + phi + gamma
    rep = mc_component_check(eps, c2_background())
    assert set(rep.witnesses["residuals"]) == {
        "complex_structure", "holomorphicity", "jacobi", "form_part"}


# ---------------------------------------------------------------------------
# Deformed structures
# ---------------------------------------------------------------------------

def test_deformed_structures_zero_element():
    rng = random.Random(53)
    hp = c2_background()
    st_ = deformed_structures(MVElement.zero(M2), hp, rng)
    assert st_.ok
    assert st_.poisson.sigma.mat == hp.sigma.mat
    P, UR, Q = st_.psi_blocks
    assert P[0][0] == M2.poly(1) and P[2][2].is_zero()
    assert Q[2][2] == M2.poly(1) and Q[0][0].is_zero()
    assert all(e.is_zero() for row in UR for e in row)


def test_deformed_structures_pure_bivector_shift():
    rng = random.Random(59)
    hp = c2_background()
    rho = MVElement.monomial(M2, M2.poly(Fraction(1, 3)), vecs=(0, 1))
    assert mc_residual_dgla(rho, mv_from_bivector_matrix(M2, hp.sigma.mat)
                            ).is_zero()
    st_ = deformed_structures(rho, hp, rng)
    want = mat_add(hp.sigma.mat, bivector_matrix(rho))
    assert st_.poisson.sigma.mat == want


def test_deformed_structures_solved_series():
    rng = random.Random(61)
    hp = c2_background()
    ds = solve_hitchin(hp, fubini_seed(), 4, mode="real")
    st_ = deformed_structures(ds.eps, hp, rng, tmax=4)
    assert st_.ok and st_.frame_match
    assert all(agree for _f, agree, _h in
               st_.witnesses["holomorphic_functions"])
    qualified = [lbl for lbl, q, _ok in st_.witnesses["poisson_fields"] if q]
    assert qualified  # the corrected coordinate hamiltonians make the cut
    assert frames_equal(
        deformation_frame(hp, ds.eps, tmax=4),
        build_L_sigma(st_.poisson, tmax=4, check=False), rng, tmax=4)


@pytest.mark.parametrize("corrupt, text", [
    (lambda P: mat_add(P, P), "not idempotent"),
    (lambda P: mat_identity(M2.dim, M2.n), "not complementary"),
    # the conjugate projector is idempotent and complementary to P, but it
    # fixes the antiholomorphic frame, not the holomorphic one
    (lambda P: _conj_operator(M2, P), "does not fix the deformed holomorphic"),
])
def test_deformed_structures_guards_the_projector(monkeypatch, corrupt,
                                                  text):
    # with sigma = 0 and eps = 0 the bivector P sigma P^T, its certificates
    # and the frame identity do not see P, so each corrupted projector
    # reaches the identities that guard it
    real_projector = hitchin._holo_projector
    monkeypatch.setattr(hitchin, "_holo_projector",
                        lambda Phi, tmax=None: corrupt(
                            real_projector(Phi, tmax=tmax)))
    with pytest.raises(CertificateError, match=text):
        deformed_structures(MVElement.zero(M2), HoloPoisson(M2),
                            random.Random(71))


def test_deformed_structures_rejects_surviving_gamma():
    rng = random.Random(67)
    gamma = MVElement.monomial(M2, M2.z(0), bars=(0, 1))
    with pytest.raises(CertificateError, match="surviving"):
        deformed_structures(gamma, c2_background(), rng)
    # beside a solved series, and at a t-order the cut keeps
    hp = c2_background()
    ds = solve_hitchin(hp, fubini_seed(), 2, mode="real")
    late = gamma.poly_mul(Poly.t(2, 2))
    with pytest.raises(CertificateError, match="surviving"):
        deformed_structures(ds.eps + late, hp, rng, tmax=2)


@pytest.mark.parametrize("tmax", [1, 2, 3])
def test_a_parameter_model_is_refused_up_front(tmax):
    # P is 2n x 2n while sigma's leg matrix on a parameter model is
    # (2n + 1) x (2n + 1), and d(t omega1) carries dt ^ omega1 there; both
    # entry points refuse the model before any work, with a typed error
    MP = Model(2, param=True)
    hp = HoloPoisson(MP, sigma=MVElement.monomial(MP, MP.poly(1),
                                                  vecs=(0, 1)))
    eps = MVElement.monomial(MP, Poly.t(2), vecs=(0,), bars=(0,))
    with pytest.raises(UnsupportedSceneError, match="parameter-free"):
        deformed_structures(eps, hp, random.Random(tmax), tmax=tmax)
    with pytest.raises(UnsupportedSceneError, match="parameter-free"):
        solve_hitchin(hp, fubini_seed(MP), tmax)
    # the shared background check still lets these answer on the model
    assert mc_component_check(eps, hp, tmax=tmax).ok
    lift = deformed_holomorphic_lift(MP.z(0), eps, tmax)
    assert lift == MP.z(0) + MP.zbar(0) * Poly.t(2)


def test_deformed_holomorphic_lift_closes_residual():
    hp = c2_background()
    ds = solve_hitchin(hp, fubini_seed(), 4, mode="real")
    h = deformed_holomorphic_lift(M2.z(0), ds.eps, 4)
    phi = ds.eps.component(1, 1)
    assert _deformed_dbar_function(M2, h, phi, tmax=4).is_zero()
    assert h.t_coefficient(0) == M2.z(0)
    with pytest.raises(ValueError):
        deformed_holomorphic_lift(M2.zbar(0), ds.eps, 3)


# ---------------------------------------------------------------------------
# Hamiltonian families
# ---------------------------------------------------------------------------

def r2_family(tmax=6):
    rng = random.Random(71)
    mat = [[M1.zero_poly(), M1.poly(sc(0, 2))],
           [M1.poly(sc(0, -2)), M1.zero_poly()]]
    pi0 = RealPoisson(M1, Bivector(M1, mat))
    B = MixedForm.monomial(M1, Poly.t(1).scale(Scalar(0, Fraction(1, 2))),
                           (0,), (0,))
    return gauge_real_poisson(pi0, B, rng, tmax=tmax), B


def test_real_family_trivial_gauge():
    rng = random.Random(73)
    mat = [[M1.zero_poly(), M1.poly(sc(0, 2))],
           [M1.poly(sc(0, -2)), M1.zero_poly()]]
    pi0 = Bivector(M1, mat)
    rep = hamiltonian_family_check((pi0, MixedForm.zero(M1)), rng,
                                   mode="real", tmax=4)
    assert rep.ok


def test_real_family_line_scene():
    rng = random.Random(79)
    rp, B = r2_family()
    # geometric series response to the linear gauge
    assert rp.pi.mat[1][0].t_coefficient(3) == Poly.const(1, sc(0, -2))
    rep = hamiltonian_family_check((rp.pi, B), rng, mode="real", tmax=6)
    assert rep.ok, rep.checks


def test_real_family_solved_c2_scene():
    rng = random.Random(83)
    hp = c2_background()
    sig_mat = bivector_matrix(MVElement.monomial(M2, M2.z(0), vecs=(0, 1)))
    # the real bivector sigma + conj(sigma)
    from gkdirac.frames import _conj_operator
    Q = Bivector(M2, mat_add(sig_mat, _conj_operator(M2, sig_mat)))
    assert Q.is_real() and not schouten_defect(Q)
    ds = solve_hitchin(hp, fubini_seed(), 3, mode="real")
    F = ds.beta_series()
    rp = gauge_real_poisson(RealPoisson(M2, Q), F, rng, tmax=3)
    rep = hamiltonian_family_check((rp.pi, F), rng, mode="real", tmax=3)
    assert rep.ok, rep.checks


def test_real_family_rejects_complex_gauge():
    rng = random.Random(89)
    rp, B = r2_family()
    with pytest.raises(CertificateError):
        hamiltonian_family_check((rp.pi, B.scale(sc(0, 1))), rng,
                                 mode="real", tmax=4)


def test_complex_family_identities():
    rng = random.Random(97)
    rep = twistor_demo(order=6)
    ham = hamiltonian_family_check(rep.series, rng, mode="complex", tmax=6)
    assert ham.ok, ham.checks
    assert set(ham.checks) == {"structure_velocity", "bivector_velocity",
                               "conjugate_velocity"}


def _former_lift_parameter(p, n):
    out = {}
    for e, c in p.terms.items():
        out[e[:n] + (e[2 * n],) + e[n:2 * n] + (0, 0)] = c
    return Poly(n + 1, out)


def _former_wcut_poly(p, bound, n1):
    wi = n1 - 1
    keep = {e: c for e, c in p.terms.items()
            if e[wi] + e[n1 + wi] <= bound}
    return Poly(n1, keep)


def _former_ham_complex(ds, tmax):
    """The complex-mode check as it was before it shared the deformed
    splitting: a weight cut on the lifted ring and its own Neumann loop."""
    from gkdirac.frames import _conj_operator
    from gkdirac.linalg import (mat_identity, mat_is_zero, mat_mul,
                                mat_scale, mat_sub, mat_transpose, mat_zero)
    from gkdirac.multivector import form_matrix, phi_geom_matrix
    model = ds.model
    n = model.n
    n1 = n + 1
    order = ds.order if tmax is None else min(tmax, ds.order)
    cut = order - 1
    dim = 2 * n

    def lift_mat(Mx):
        return [[_former_lift_parameter(e, n) for e in row] for row in Mx]

    def wcut(Mx, bound=cut):
        return [[_former_wcut_poly(e, bound, n1) for e in row] for row in Mx]

    def wmul(A, B, bound=order):
        return wcut(mat_mul(A, B), bound)

    Phi = lift_mat(phi_geom_matrix(ds.eps.component(1, 1)))
    Phibar = [[e.conj() for e in row] for row in Phi]
    A = mat_identity(dim, n1)
    for b in range(n):
        for i in range(n):
            if Phi[i][b]:
                A[i][n + b] = Phi[i][b]
            if Phibar[i][b]:
                A[n + i][b] = Phibar[i][b]
    N = mat_sub(A, mat_identity(dim, n1))
    X = mat_identity(dim, n1)
    for _ in range(order + 1):
        X = wcut(mat_sub(mat_identity(dim, n1), mat_mul(N, X)), order)
    Ainv = X
    if not mat_is_zero(wcut(mat_sub(wmul(A, Ainv), mat_identity(dim, n1)),
                            order)):
        raise CertificateError("frame change failed to invert at this order")
    proj = mat_zero(dim, dim, n1)
    for i in range(n):
        proj[i][i] = Poly.const(n1, Scalar(1))
    P = wmul(wmul(A, proj), Ainv)
    Pbar = _conj_operator(model, P)
    eye = mat_identity(dim, n1)
    I_t = mat_scale(mat_sub(mat_scale(P, Scalar(2)), eye), Scalar(0, 1))
    Msum = mat_add(lift_mat(ds.background.sigma.mat),
                   lift_mat(bivector_matrix(ds.eps.component(2, 0))))
    Mt = wmul(wmul(P, Msum), mat_transpose(P))
    Mtbar = _conj_operator(model, Mt)
    Wl = lift_mat(form_matrix(ds.beta_series()))
    Walpha = [[e.d_z(n) for e in row] for row in Wl]
    W20 = wmul(wmul(mat_transpose(P), Walpha), P)
    W11 = mat_add(wmul(wmul(mat_transpose(Pbar), Walpha), P),
                  wmul(wmul(mat_transpose(P), Walpha), Pbar))
    W11bar = _conj_operator(model, W11)
    checks = {}
    Idot = [[e.d_z(n) for e in row] for row in I_t]
    resid1 = mat_sub(Idot, mat_scale(wmul(Mt, W11), Scalar(0, 2)))
    checks["structure_velocity"] = mat_is_zero(wcut(resid1))
    Mdot = [[e.d_z(n) for e in row] for row in Mt]
    resid2 = mat_add(Mdot, wmul(wmul(Mt, W20), Mt))
    checks["bivector_velocity"] = mat_is_zero(wcut(resid2))
    Mbardot = [[e.d_zbar(n) for e in row] for row in Mt]
    resid3 = mat_add(Mbardot, mat_add(wmul(wmul(Mtbar, W11bar), Mt),
                                      wmul(wmul(Mt, W11bar), Mtbar)))
    checks["conjugate_velocity"] = mat_is_zero(wcut(resid3))
    return checks, {"mode": "complex", "certified_order": cut}


def _perturbed(ds):
    """The same series with beta_1 doubled, so its eps no longer matches."""
    return DeformSeries(ds.model, ds.background, ds.mode, ds.order,
                        [ds.betas[0].scale(2)] + ds.betas[1:], ds.residuals,
                        ds.gammas, ds.omega, ds.eps)


def test_complex_family_keeps_its_former_verdicts():
    cases = []
    for order in (2, 3, 4, 6):
        ds = twistor_demo(order=order).series
        for tmax in (None, order - 1, order):
            cases += [(ds, tmax), (_perturbed(ds), tmax)]
    for order in (2, 3):
        for mode in ("real", "complex"):
            ds = solve_hitchin(c2_background(), fubini_seed(), order,
                               mode=mode)
            cases += [(ds, None), (_perturbed(ds), order - 1)]
    failing = 0
    for ds, tmax in cases:
        rep = hamiltonian_family_check(ds, random.Random(0), mode="complex",
                                       tmax=tmax)
        assert (rep.checks, rep.stats) == _former_ham_complex(ds, tmax), (
            ds, tmax)
        failing += not rep.ok
    assert 0 < failing < len(cases)


def test_complex_family_raises_when_the_frame_change_does_not_invert(
        monkeypatch):
    from gkdirac import linalg
    ds = twistor_demo(order=3).series
    monkeypatch.setattr(linalg, "mat_is_zero", lambda A: False)
    with pytest.raises(CertificateError):
        hamiltonian_family_check(ds, random.Random(0), mode="complex")


# ---------------------------------------------------------------------------
# The flat four-dimensional family
# ---------------------------------------------------------------------------

def test_twistor_exact_low_order():
    rep = twistor_demo(order=2)
    assert rep.ok
    model = rep.model
    assert rep.sigma1.mat == Bivector.wedge_pair(model, 0, 1,
                                                 Scalar(-1)).mat
    Obar = MixedForm.monomial(model, model.poly(1), (0, 1), ()).conj()
    assert rep.series.betas[1] == Obar
    assert rep.series.residuals[2] == Obar.scale(Scalar(-1))


def test_twistor_terminates_at_high_order():
    rep = twistor_demo(order=8)
    assert rep.ok
    assert rep.checks["higher_terms_vanish"]
    low = twistor_demo(order=2)
    assert rep.series.betas[:2] == low.series.betas
    assert rep.omega_t == low.omega_t
