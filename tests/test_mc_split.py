"""The flatness components read off the one Maurer-Cartan residual.

``mc_component_check`` forms R = partial_bar(eps) + [sigma, eps] +
(1/2)[eps, eps] once and reports its bidegree pieces (1,2), (2,1), (3,0)
and (0,3) as ``complex_structure``, ``holomorphicity``, ``jacobi`` and
``form_part``.  Every graded term of the equation lies in one of these:
partial_bar raises q by one, a bracket of (p1, q1) and (p2, q2) lands in
(p1 + p2 - 1, q1 + q2), and [gamma, gamma] = 0 since gamma has no vector
legs.  So each piece equals the sum of the brackets the former split formed
for its component.  ``_former_check`` keeps that split, eight graded
brackets checked against the one-shot residual, as the reference.

The two are compared on solved series (real and complex, n = 2 and 3,
orders 1-4, ``tmax`` None and the order) and on non-flat elements with t
terms in every part, including the cross-check of the graded-symmetry self
route for [eps, eps] against the cross-bracket route that the reference's
sum guard made.
"""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gkdirac import brackets, hitchin
from gkdirac.brackets import dgla_bracket, mc_residual_dgla
from gkdirac.errors import CertificateError
from gkdirac.forms import MixedForm
from gkdirac.hitchin import MCElement, mc_component_check, solve_hitchin
from gkdirac.model import Model
from gkdirac.multivector import MVElement, mv_from_bivector_matrix
from gkdirac.poisson import HoloPoisson
from gkdirac.poly import Poly
from gkdirac.report import Report
from gkdirac.scalars import Scalar

_HALF = Fraction(1, 2)
_KEYS = {"complex_structure": (1, 2), "holomorphicity": (2, 1),
         "jacobi": (3, 0), "form_part": (0, 3)}


def _former_check(eps, sigma, tmax=None):
    """The former split: eight graded brackets, their sum compared with
    the one-shot residual."""
    model = eps.model
    sig = mv_from_bivector_matrix(model, sigma.sigma.mat)
    rho, phi = eps.rho, eps.phi
    gam = MVElement(model, {(0, q): table
                            for (_p, q, _r), table in eps.gamma.comps.items()})

    def bracket(x, y):
        return dgla_bracket(x, y, tmax=tmax)

    def total(*parts):
        return MVElement.sum(model, parts).t_truncate(tmax)

    comps = {
        "complex_structure": total(
            phi.partial_bar(), bracket(phi, phi).scale(_HALF),
            bracket(sig, gam), bracket(rho, gam)),
        "holomorphicity": total(
            rho.partial_bar(), bracket(sig, phi), bracket(rho, phi)),
        "jacobi": total(bracket(sig, rho), bracket(rho, rho).scale(_HALF)),
        "form_part": total(gam.partial_bar(), bracket(phi, gam)),
    }
    acc = MVElement.sum(model, comps.values())
    polyvector = eps.polyvector()
    if acc != mc_residual_dgla(polyvector, sig, tmax=tmax):
        raise CertificateError(
            "component split disagrees with the one-shot flatness residual")
    eps1 = polyvector.t_coefficient(1)
    linear = eps1.partial_bar() + dgla_bracket(sig, eps1)
    return Report("mc_components",
                  {k: v.is_zero() for k, v in comps.items()},
                  witnesses={"residuals": comps, "linear_residual": linear},
                  stats={"linear_ok": linear.is_zero()})


def _assert_same(got, want):
    assert got.name == want.name
    assert got.checks == want.checks and got.ok == want.ok
    assert got.stats == want.stats
    assert list(got.witnesses["residuals"]) == list(_KEYS)
    assert got.witnesses == want.witnesses
    for name, piece in got.witnesses["residuals"].items():
        assert set(piece.comps) <= {_KEYS[name]}


def _scalar(c):
    return c if isinstance(c, Scalar) else Scalar(c)


def _background(model, coeffs):
    """sigma = (sum_k c_k z_k) d1 ^ d2, a holomorphic Poisson structure."""
    f = Poly.sum(model.n, [model.z(k).scale(_scalar(c))
                           for k, c in enumerate(coeffs)])
    return HoloPoisson(model, sigma=MVElement.monomial(model, f,
                                                       vecs=(0, 1)))


def _seed(model, mode):
    """(i/2) sum_k w_k dz_k ^ dzbar_k, plus dz1 ^ dz2 in complex mode."""
    terms = [MixedForm.monomial(model, model.poly(Scalar(0, _HALF * (k + 1))),
                                (k,), (k,)) for k in range(model.n)]
    if mode == "complex":
        terms.append(MixedForm.monomial(model, model.poly(Scalar(1, -1)),
                                        (0, 1), ()))
    return MixedForm.sum(model, terms)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("mode", ["real", "complex"])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_solved_series_pieces_match_the_former_split(n, mode, order):
    model = Model(n)
    hp = _background(model, [2, Scalar(-1, 1), Fraction(1, 3)][:n])
    ds = solve_hitchin(hp, _seed(model, mode), order, mode)
    for tmax in (None, order):
        got = mc_component_check(ds.eps, hp, tmax=tmax)
        _assert_same(got, _former_check(ds.eps, hp, tmax))
        if tmax is not None:
            assert got.ok and got.stats["linear_ok"]


_COEFFS = st.sampled_from([1, -1, 2, Fraction(1, 3), Scalar(0, 1),
                           Scalar(1, -1)])


def _polys(n, min_terms=0):
    """Sums of up to three terms of degree at most 1 in each z and zbar,
    and at most 2 in t."""
    term = st.tuples(_COEFFS, *[st.integers(0, 1)] * (2 * n),
                     st.integers(0, 2))
    return st.lists(term, min_size=min_terms, max_size=3).map(
        lambda terms: Poly.sum(n, [
            Poly(n, {tuple(e): _scalar(c)}) for c, *e in terms]))


@st.composite
def _elements(draw):
    """A model, a background and an element eps = rho + phi + gamma with
    rho, phi and gamma all nonzero, each with a t term."""
    n = draw(st.sampled_from([2, 3]))
    model = Model(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def nonzero(build, words):
        first, *rest = words
        parts = [build(draw(_polys(n, 1).filter(bool)).mul(Poly.t(n)),
                       first)]
        parts += [build(draw(_polys(n)), w) for w in rest]
        return parts

    rho = MVElement.sum(model, nonzero(
        lambda f, w: MVElement.monomial(model, f, vecs=w), pairs))
    phi = MVElement.sum(model, nonzero(
        lambda f, w: MVElement.monomial(model, f, vecs=w[:1], bars=w[1:]),
        [(i, j) for i in range(n) for j in range(n)]))
    gamma = MixedForm.sum(model, nonzero(
        lambda f, w: MixedForm.monomial(model, f, anti=w), pairs))
    coeffs = draw(st.lists(_COEFFS, min_size=n, max_size=n))
    eps = MCElement(model, rho=rho, phi=phi, gamma=gamma)
    return eps, _background(model, coeffs)


@given(_elements(), st.sampled_from([None, 0, 1, 2, 3]))
def test_non_flat_pieces_match_the_former_split(drawn, tmax):
    eps, hp = drawn
    assert not (eps.rho.is_zero() or eps.phi.is_zero()
                or eps.gamma.is_zero())
    _assert_same(mc_component_check(eps, hp, tmax=tmax),
                 _former_check(eps, hp, tmax))


def test_one_call_makes_three_brackets(monkeypatch):
    model = Model(2)
    hp = _background(model, [1, 2])
    t = Poly.t(2)
    eps = MCElement(
        model,
        rho=MVElement.monomial(model, model.zbar(0).mul(t), vecs=(0, 1)),
        phi=MVElement.monomial(model, model.z(1).mul(t), vecs=(0,),
                               bars=(1,)),
        gamma=MixedForm.monomial(model, model.z(0).mul(t), anti=(0, 1)))
    calls = []

    def counted(a, b, tmax=None):
        calls.append((a, b, tmax))
        return dgla_bracket(a, b, tmax=tmax)

    monkeypatch.setattr(brackets, "dgla_bracket", counted)
    monkeypatch.setattr(hitchin, "dgla_bracket", counted)
    rep = mc_component_check(eps, hp, tmax=2)
    assert not rep.ok
    sig = mv_from_bivector_matrix(model, hp.sigma.mat)
    polyvector = eps.polyvector()
    assert len(calls) == 3
    (s1, e1, t1), (e2, e3, t2), (s2, lin, t3) = calls
    assert s1 == sig and e1 == polyvector and t1 == 2
    assert e2 is e3 and e2 == polyvector and t2 == 2
    assert s2 == sig and lin == polyvector.t_coefficient(1) and t3 is None


def test_a_piece_outside_the_four_bidegrees_raises(monkeypatch):
    model = Model(2)
    hp = _background(model, [1, 0])
    residual = mc_residual_dgla

    def stray(eps, sigma, tmax=None):
        extra = MVElement.monomial(model, model.poly(1), vecs=(0,),
                                   bars=(1,))
        return residual(eps, sigma, tmax=tmax) + extra

    monkeypatch.setattr(hitchin, "mc_residual_dgla", stray)
    with pytest.raises(CertificateError, match=r"\(1, 1\)"):
        mc_component_check(MCElement.zero(model), hp)
