"""Graded bracket identities, Koszul calculus, and transport morphisms."""
import itertools
import random
from fractions import Fraction

from gkdirac import brackets
from gkdirac.brackets import (
    dgla_bracket,
    delta_sigma,
    interior_bivector,
    koszul_bracket,
    mc_residual_dgla,
    mc_residual_koszul,
    pi_star,
)
from gkdirac.forms import MixedForm, dz, dzbar
from gkdirac.linalg import mat_apply
from gkdirac.model import Model
from gkdirac.multivector import MVElement, bivector_matrix
from gkdirac.poly import Poly


M = Model(2)
M3 = Model(3)


def rand_poly(rng, model, nterms=2, maxdeg=2):
    n = model.n
    p = model.zero_poly()
    for _ in range(nterms):
        term = model.poly(Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)))
        for i in range(n):
            for _ in range(rng.randrange(0, maxdeg)):
                term = term * model.z(i)
        for j in range(n):
            for _ in range(rng.randrange(0, maxdeg)):
                term = term * model.zbar(j)
        p = p + term
    return p


def mv_hom(rng, model, p, q, nterms=2):
    out = MVElement.zero(model)
    n = model.n
    for _ in range(nterms):
        I = tuple(sorted(rng.sample(range(n), p)))
        J = tuple(sorted(rng.sample(range(n), q)))
        out = out + MVElement.monomial(model, rand_poly(rng, model), I, J)
    return out


def form_hom(rng, model, p, q):
    out = MixedForm.zero(model)
    n = model.n
    for I in itertools.combinations(range(n), p):
        for J in itertools.combinations(range(n), q):
            out = out + MixedForm.monomial(model, rand_poly(rng, model), I, J)
    return out


def deg(p, q):
    return p + q - 1


def legs(sigma):
    """The full-frame leg matrix the form-side calculus takes."""
    return bivector_matrix(sigma)


def lie_derivative(vec_components, form):
    """Cartan's formula L_X = i_X d + d i_X, the reference for the Koszul
    bracket on 1-forms."""
    return form.d().contract_vector(vec_components) + \
        form.contract_vector(vec_components).d()


TYPES = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1)]


def test_graded_antisymmetry():
    rng = random.Random(101)
    for (p1, q1), (p2, q2) in itertools.product(TYPES, repeat=2):
        a = mv_hom(rng, M3, p1, q1)
        b = mv_hom(rng, M3, p2, q2)
        s = (-1) ** (deg(p1, q1) * deg(p2, q2) + 1)
        assert (dgla_bracket(a, b) - dgla_bracket(b, a).scale(s)).is_zero()


def test_graded_jacobi():
    rng = random.Random(103)
    small = [(1, 0), (0, 1), (1, 1), (2, 0)]
    for _ in range(8):
        (p1, q1), (p2, q2), (p3, q3) = (
            small[rng.randrange(len(small))] for _ in range(3))
        a = mv_hom(rng, M, p1, q1, 1)
        b = mv_hom(rng, M, p2, q2, 1)
        c = mv_hom(rng, M, p3, q3, 1)
        d1, d2 = deg(p1, q1), deg(p2, q2)
        lhs = dgla_bracket(a, dgla_bracket(b, c))
        rhs = dgla_bracket(dgla_bracket(a, b), c) + \
            dgla_bracket(b, dgla_bracket(a, c)).scale((-1) ** (d1 * d2))
        assert (lhs - rhs).is_zero()


def test_partial_bar_is_bracket_derivation():
    rng = random.Random(107)
    for _ in range(10):
        (p1, q1), (p2, q2) = (TYPES[rng.randrange(len(TYPES) - 1)]
                              for _ in range(2))
        a = mv_hom(rng, M, p1, q1)
        b = mv_hom(rng, M, p2, q2)
        lhs = dgla_bracket(a, b).partial_bar()
        rhs = dgla_bracket(a.partial_bar(), b) + \
            dgla_bracket(a, b.partial_bar()).scale((-1) ** deg(p1, q1))
        assert (lhs - rhs).is_zero()


def test_odd_leibniz_wedge():
    rng = random.Random(109)
    small = [(1, 0), (0, 1), (1, 1), (2, 0)]
    for _ in range(10):
        (p1, q1), (p2, q2), (p3, q3) = (
            small[rng.randrange(len(small))] for _ in range(3))
        a = mv_hom(rng, M, p1, q1, 1)
        b = mv_hom(rng, M, p2, q2, 1)
        c = mv_hom(rng, M, p3, q3, 1)
        lhs = dgla_bracket(a, b.wedge(c))
        rhs = dgla_bracket(a, b).wedge(c) + \
            b.wedge(dgla_bracket(a, c)).scale(
                (-1) ** (deg(p1, q1) * (p2 + q2)))
        assert (lhs - rhs).is_zero()


def _dgla_bracket_reference(a, b, tmax=None):
    """The former loop: each derivative taken afresh for every pair of
    monomials, and every term added into a new copy of the result."""
    model = a.model
    out = MVElement(model)
    for (p1, q1), t1 in a.comps.items():
        lenA = p1 + q1
        for (I1, J1), f in t1.items():
            for (p2, q2), t2 in b.comps.items():
                lenB = p2 + q2
                for (I2, J2), g in t2.items():
                    other_b = MVElement.monomial(
                        model, model.poly(1), vecs=I2, bars=J2)
                    other_a = MVElement.monomial(
                        model, model.poly(1), vecs=I1, bars=J1)
                    for k, i in enumerate(I1, start=1):
                        dg = g.d_z(i)
                        if not dg:
                            continue
                        sign = (-1) ** (lenA - k)
                        rest = MVElement.monomial(
                            model, model.poly(1),
                            vecs=I1[:k - 1] + I1[k:], bars=J1)
                        term = rest.wedge(other_b, tmax=tmax).poly_mul(
                            f.mul(dg, tmax=tmax), tmax=tmax)
                        out = out + (term if sign == 1 else -term)
                    pre = (lenB - 1) * lenA
                    for k, j in enumerate(I2, start=1):
                        df = f.d_z(j)
                        if not df:
                            continue
                        sign = (-1) ** (pre + k)
                        rest = MVElement.monomial(
                            model, model.poly(1),
                            vecs=I2[:k - 1] + I2[k:], bars=J2)
                        term = rest.wedge(other_a, tmax=tmax).poly_mul(
                            g.mul(df, tmax=tmax), tmax=tmax)
                        out = out + (term if sign == 1 else -term)
    return out


def _pooled_mv(rng, model, pool):
    """A polyvector of mixed degree whose coefficients come from ``pool``:
    the same Poly object, or an equal copy, sits on several monomials."""
    out = MVElement.zero(model)
    n = model.n
    for p, q in TYPES:
        for I in itertools.combinations(range(n), p):
            for J in itertools.combinations(range(n), q):
                if rng.random() < 0.6:
                    c = rng.choice(pool)
                    if rng.random() < 0.5:
                        c = Poly(c.n, c.terms)
                    out = out + MVElement.monomial(model, c, I, J)
    return out


def _same_table(x, y):
    """Equal coefficients under the same keys, and the same rendering.

    The order in which a table holds its monomials is not compared: the
    bracket adds each coefficient's contributions in one sum, so a partial
    sum that cancels no longer moves its monomial to the end, and no
    output or verdict reads that order."""
    return x.comps == y.comps and x.render() == y.render()


def test_dgla_bracket_matches_accumulating_reference():
    rng = random.Random(131)
    t = M.t()
    for _ in range(4):
        pool = [rand_poly(rng, M) + rand_poly(rng, M) * t
                + rand_poly(rng, M, nterms=1) * t * t for _ in range(3)]
        a, b = _pooled_mv(rng, M, pool), _pooled_mv(rng, M, pool)
        for x, y in ((a, b), (b, a), (a, a)):
            full = dgla_bracket(x, y)
            assert _same_table(full, _dgla_bracket_reference(x, y))
            for k in range(4):
                cut = dgla_bracket(x, y, tmax=k)
                assert _same_table(cut, _dgla_bracket_reference(x, y, k))
                assert cut.comps == full.t_truncate(k).comps


def test_dgla_bracket_builds_no_polyvector_per_term(monkeypatch):
    rng = random.Random(137)
    t = M3.t()
    pool = [rand_poly(rng, M3) + rand_poly(rng, M3) * t for _ in range(3)]
    pairs = []
    for _ in range(3):
        a, b = _pooled_mv(rng, M3, pool), _pooled_mv(rng, M3, pool)
        pairs += [(a, b, k, _dgla_bracket_reference(a, b, k))
                  for k in (None, 1)]

    def refuse(*_args, **_kwargs):
        raise AssertionError("dgla_bracket built a polyvector per term")

    monkeypatch.setattr(MVElement, "wedge", refuse)
    monkeypatch.setattr(MVElement, "poly_mul", refuse)
    for a, b, k, want in pairs:
        assert _same_table(dgla_bracket(a, b, tmax=k), want)


def test_vector_fields_give_lie_bracket():
    rng = random.Random(113)
    f = rand_poly(rng, M)
    g = rand_poly(rng, M)
    X = MVElement.monomial(M, f, (0,), ())
    Y = MVElement.monomial(M, g, (1,), ())
    expect = MVElement.monomial(M, f * g.d_z(0), (1,), ()) - \
        MVElement.monomial(M, g * f.d_z(1), (0,), ())
    assert (dgla_bracket(X, Y) - expect).is_zero()


def test_bivector_on_function():
    rng = random.Random(127)
    sigma = MVElement.monomial(M, M.poly(1), (0, 1), ())
    h = rand_poly(rng, M)
    got = dgla_bracket(sigma, MVElement.function(M, h))
    # [P, h] = -P(dh) = -(h_z1 @z2 - h_z2 @z1)
    expect = MVElement.monomial(M, h.d_z(1), (0,), ()) - \
        MVElement.monomial(M, h.d_z(0), (1,), ())
    assert (got - expect).is_zero()


def test_interior_bivector_normalisation():
    sigma = MVElement.monomial(M, M.poly(1), (0, 1), ())
    w = dz(M, 0).wedge(dz(M, 1))
    got = interior_bivector(w, legs(sigma))
    assert got.coefficient().is_constant()
    assert got.coefficient().constant_value().re == 1


def test_koszul_one_form_formula():
    rng = random.Random(131)
    for sigma in (MVElement.monomial(M, M.poly(1), (0, 1), ()),
                  MVElement.monomial(M, M.z(0), (0, 1), ())):
        for _ in range(4):
            xiP = [rand_poly(rng, M), rand_poly(rng, M)]
            etaP = [rand_poly(rng, M), rand_poly(rng, M)]
            xi = MixedForm.monomial(M, xiP[0], (0,), ()) + \
                MixedForm.monomial(M, xiP[1], (1,), ())
            eta = MixedForm.monomial(M, etaP[0], (0,), ()) + \
                MixedForm.monomial(M, etaP[1], (1,), ())
            xi_c = [xiP[0], xiP[1], M.zero_poly(), M.zero_poly()]
            eta_c = [etaP[0], etaP[1], M.zero_poly(), M.zero_poly()]
            S = legs(sigma)
            sX = mat_apply(S, xi_c)
            sY = mat_apply(S, eta_c)
            # sigma(xi, eta) = eta(sigma xi)
            pair = sum((e * v for e, v in zip(eta_c, sX)), M.zero_poly())
            rhs = (lie_derivative(sX, eta) - lie_derivative(sY, xi)
                   - MixedForm.function(M, pair).d()).scale(-1)
            assert (koszul_bracket(xi, eta, S, deg=1) - rhs).is_zero()


def test_delta_sigma_squares_to_zero_for_poisson():
    rng = random.Random(137)
    # sigma = z1 @1^@2 satisfies [sigma,sigma]=0
    sigma = MVElement.monomial(M, M.z(0), (0, 1), ())
    assert dgla_bracket(sigma, sigma).is_zero()
    S = legs(sigma)
    for _ in range(6):
        p, q = [(1, 0), (0, 1), (1, 1), (2, 0)][rng.randrange(4)]
        w = form_hom(rng, M, p, q)
        assert delta_sigma(delta_sigma(w, S), S).is_zero()


def test_pi_star_intertwines_d():
    rng = random.Random(139)
    for sigma in (MVElement.monomial(M, M.poly(1), (0, 1), ()),
                  MVElement.monomial(M, M.z(0), (0, 1), ())):
        for _ in range(6):
            w = form_hom(rng, M, 1, 0) + form_hom(rng, M, 0, 1) + \
                form_hom(rng, M, 1, 1) + form_hom(rng, M, 0, 0)
            lhs = pi_star(w.d(), legs(sigma))
            t = pi_star(w, legs(sigma))
            rhs = t.partial_bar() + dgla_bracket(sigma, t)
            assert (lhs - rhs).is_zero()


def test_pi_star_bracket_morphism():
    rng = random.Random(149)
    types = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
    for sigma in (MVElement.monomial(M, M.poly(1), (0, 1), ()),
                  MVElement.monomial(M, M.z(0), (0, 1), ())):
        for (p1, q1) in types:
            for (p2, q2) in types:
                a = form_hom(rng, M, p1, q1)
                b = form_hom(rng, M, p2, q2)
                S = legs(sigma)
                lhs = pi_star(koszul_bracket(a, b, S, deg=p1 + q1), S)
                rhs = dgla_bracket(pi_star(a, S), pi_star(b, S))
                assert (lhs - rhs).is_zero()


def test_mc_residual_transport():
    rng = random.Random(151)
    for sigma in (MVElement.monomial(M, M.poly(1), (0, 1), ()),
                  MVElement.monomial(M, M.z(0), (0, 1), ())):
        for _ in range(4):
            om = form_hom(rng, M, 2, 0) + form_hom(rng, M, 1, 1) + \
                form_hom(rng, M, 0, 2)
            S = legs(sigma)
            lhs = pi_star(mc_residual_koszul(om, S), S)
            rhs = mc_residual_dgla(pi_star(om, S), sigma)
            assert (lhs - rhs).is_zero()


def _t_series_two_form(rng):
    t = Poly.t(M.n)
    return ((form_hom(rng, M, 2, 0) + form_hom(rng, M, 1, 1)
             + form_hom(rng, M, 0, 2)).poly_mul(t)
            + form_hom(rng, M, 1, 1).poly_mul(t * t))


def test_koszul_self_bracket_matches_a_distinct_copy():
    # [w, w] computes delta_sigma(w) once; a distinct but equal second
    # operand takes the general route, and the two must agree
    rng = random.Random(157)
    for sigma in (MVElement.monomial(M, M.poly(1), (0, 1), ()),
                  MVElement.monomial(M, M.z(0) + M.z(1) * M.t(), (0, 1), ())):
        S = legs(sigma)
        for _ in range(3):
            om = _t_series_two_form(rng)
            copy = om + MixedForm.zero(M)
            assert copy is not om and copy == om
            for tmax in (None, 2):
                assert koszul_bracket(om, om, S, deg=2, tmax=tmax) == \
                    koszul_bracket(om, copy, S, deg=2, tmax=tmax)


def test_mc_residual_koszul_takes_two_delta_sigmas(monkeypatch):
    calls = []
    inner = brackets.delta_sigma

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(brackets, "delta_sigma", counted)
    S = legs(MVElement.monomial(M, M.z(0), (0, 1), ()))
    om = _t_series_two_form(random.Random(163))
    for tmax in (None, 3):
        calls.clear()
        mc_residual_koszul(om, S, tmax=tmax)
        # delta_sigma(w) and delta_sigma(w ^ w)
        assert len(calls) == 2


def test_pi_star_leg_replacement():
    # with sigma = @1^@2: sigma(dz1) = @2, so pi_star(dz1) = -@2
    S = legs(MVElement.monomial(M, M.poly(1), (0, 1), ()))
    got = pi_star(dz(M, 0), S)
    assert (got + MVElement.monomial(M, M.poly(1), (1,), ())).is_zero()
    got2 = pi_star(dzbar(M, 0), S)
    assert (got2 - MVElement.monomial(M, M.poly(1), (), (0,))).is_zero()


def test_pi_star_is_not_injective_on_three_forms_at_n_3():
    # sigma = z1 @1^@2 kills dz3, so pi_star(dz3 ^ dzbar1 ^ dzbar2) = 0 while
    # pi_star(dz1 ^ dzbar1 ^ dzbar2) = -z1 @2 ^ dzbar1 ^ dzbar2.  So the
    # polyvector residual of a transported element cannot see the dz3 part
    # of the form-side flatness residual, which is why the form-side check
    # (mc_residual_koszul) stays beside it
    M3 = Model(3)
    S = legs(MVElement.monomial(M3, M3.z(0), (0, 1), ()))
    blind = pi_star(dz(M3, 2).wedge(dzbar(M3, 0)).wedge(dzbar(M3, 1)), S)
    assert blind.is_zero()
    seen = pi_star(dz(M3, 0).wedge(dzbar(M3, 0)).wedge(dzbar(M3, 1)), S)
    assert seen == MVElement.monomial(M3, -M3.z(0), (1,), (0, 1))
