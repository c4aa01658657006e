"""Self-brackets and self-wedges over unordered monomial pairs.

An operand bracketed or wedged with itself (``a is b``) visits each
unordered pair of monomials once, weighted by graded symmetry:

* dgla bracket: [y, x] = -(-1)^{|x||y|} [x, y] with |x| the exterior
  degree minus one, so a cross pair counts twice when both monomials have
  even exterior degree and not at all otherwise;
* wedge: y ^ x = (-1)^{deg x deg y} x ^ y, dt legs counted, so a cross
  pair counts twice when deg x deg y is even and not at all otherwise;
* ``koszul_bracket(w, w)`` on w homogeneous of degree ``deg`` takes its
  third term as (-1)^deg times the first, since
  delta(w) ^ w = (-1)^{(deg-1) deg} w ^ delta(w) = w ^ delta(w).

Each self route is compared here with the full route on a separate but
equal copy of the operand, on mixed degrees, with ``tmax`` None and 0-3,
and with dt legs on a parameter model.  ``interior_bivector`` is compared
with the per-pair contraction loop it replaced, and the accumulators'
weighted sums with plain chained sums.
"""
import itertools
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from gkdirac.brackets import delta_sigma, dgla_bracket, interior_bivector, \
    koszul_bracket, unit_vector
from gkdirac.forms import MixedForm
from gkdirac.model import Model
from gkdirac.multivector import MVElement
from gkdirac.poly import Poly
from gkdirac.scalars import Scalar

PLAIN, PARAM, PLAIN3 = Model(2), Model(2, param=True), Model(3)
TMAX = st.sampled_from([None, 0, 1, 2, 3])

_COEFFS = st.sampled_from([1, -1, 2, Fraction(1, 2), Scalar(0, 1),
                           Scalar(1, -1)])


def _polys(n):
    """Nonzero sums of up to three terms of degree at most 1 in each z and
    zbar, and at most 2 in t."""
    term = st.tuples(_COEFFS, *[st.integers(0, 1)] * (2 * n),
                     st.integers(0, 2))
    return st.lists(term, min_size=1, max_size=3).map(
        lambda terms: Poly.sum(n, [
            Poly(n, {tuple(e): c if isinstance(c, Scalar) else Scalar(c)})
            for c, *e in terms])).filter(bool)


def _words(n):
    """Every strictly increasing index word below n."""
    return [w for k in range(n + 1)
            for w in itertools.combinations(range(n), k)]


@st.composite
def _mv_elements(draw, model):
    """A polyvector of mixed degree on up to five monomials."""
    words = [(I, J) for I in _words(model.n) for J in _words(model.n)]
    mons = draw(st.lists(st.sampled_from(words), max_size=5, unique=True))
    return MVElement.sum(model, [
        MVElement.monomial(model, draw(_polys(model.n)), I, J)
        for I, J in mons])


@st.composite
def _forms(draw, model):
    """A form of mixed degree on up to five monomials, with dt legs on a
    parameter model."""
    dts = (False, True) if model.param else (False,)
    words = [(I, J, dt) for I in _words(model.n) for J in _words(model.n)
             for dt in dts]
    mons = draw(st.lists(st.sampled_from(words), max_size=5, unique=True))
    return MixedForm.sum(model, [
        MixedForm.monomial(model, draw(_polys(model.n)), I, J, dt=dt)
        for I, J, dt in mons])


@st.composite
def _leg_matrices(draw, model):
    """An antisymmetric full-frame leg matrix on up to three leg pairs (the
    dt leg included on a parameter model)."""
    n, dim = model.n, model.dim
    S = [[Poly.zero(n) for _ in range(dim)] for _ in range(dim)]
    pairs = [(a, b) for a in range(dim) for b in range(a + 1, dim)]
    for a, b in draw(st.lists(st.sampled_from(pairs), min_size=1,
                              max_size=3, unique=True)):
        c = draw(_polys(n))
        S[b][a], S[a][b] = c, -c
    return S


def _copy(x):
    """A separate element equal to ``x``, on separate coefficients."""
    out = type(x)(x.model, {key: {ij: Poly(c.n, c.terms)
                                  for ij, c in table.items()}
                            for key, table in x.comps.items()})
    assert out is not x and out == x
    return out


def _koszul_reference(alpha, beta, S, deg, tmax):
    """The three-term derived bracket, every term formed as written."""
    sgn = (-1) ** deg
    term1 = alpha.wedge(delta_sigma(beta, S, tmax=tmax), tmax=tmax)
    term2 = delta_sigma(alpha.wedge(beta, tmax=tmax), S, tmax=tmax)
    term3 = delta_sigma(alpha, S, tmax=tmax).wedge(beta, tmax=tmax)
    return term1 - term2.scale(sgn) + term3.scale(sgn)


def _interior_reference(form, S, tmax):
    """i_sigma as the per-pair loop of contractions by unit vectors."""
    model = form.model
    out = MixedForm.zero(model)
    for a in range(model.dim):
        inner = form.contract_vector(unit_vector(model, a))
        for b in range(a + 1, model.dim):
            if S[b][a]:
                piece = inner.contract_vector(unit_vector(model, b))
                out = out + piece.poly_mul(S[b][a], tmax=tmax)
    return out


def _count_muls(monkeypatch, fn):
    """``fn()`` and the number of ``Poly.mul`` calls it made."""
    calls = []
    inner = Poly.mul

    def counted(self, other, tmax=None):
        calls.append(1)
        return inner(self, other, tmax=tmax)

    with monkeypatch.context() as m:
        m.setattr(Poly, "mul", counted)
        out = fn()
    return out, len(calls)


# ---------------------------------------------------------------------------
# Self route against the full route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", [PLAIN, PLAIN3])
@given(data=st.data(), tmax=TMAX)
def test_dgla_self_bracket_matches_a_copy(model, data, tmax):
    a = data.draw(_mv_elements(model))
    got = dgla_bracket(a, a, tmax=tmax)
    assert got == dgla_bracket(a, _copy(a), tmax=tmax)
    assert got.render() == dgla_bracket(_copy(a), a, tmax=tmax).render()


@pytest.mark.parametrize("model", [PLAIN, PLAIN3])
@given(data=st.data(), tmax=TMAX)
def test_mv_self_wedge_matches_a_copy(model, data, tmax):
    a = data.draw(_mv_elements(model))
    assert a.wedge(a, tmax=tmax) == a.wedge(_copy(a), tmax=tmax)


@pytest.mark.parametrize("model", [PLAIN, PARAM])
@given(data=st.data(), tmax=TMAX)
def test_form_self_wedge_matches_a_copy(model, data, tmax):
    a = data.draw(_forms(model))
    assert a.wedge(a, tmax=tmax) == a.wedge(_copy(a), tmax=tmax)


@pytest.mark.parametrize("model", [PLAIN, PARAM])
@given(data=st.data(), tmax=TMAX)
def test_koszul_self_bracket_matches_three_terms(model, data, tmax):
    w = data.draw(_forms(model))
    S = data.draw(_leg_matrices(model))
    degs = w.total_degrees()
    # homogeneous or not, for every degree the caller may pass: the
    # shortcut holds only when ``w`` is homogeneous of the degree passed
    for deg in sorted(set(degs) | {1, 2}):
        want = _koszul_reference(w, _copy(w), S, deg, tmax)
        assert koszul_bracket(w, w, S, deg=deg, tmax=tmax) == want
    if len(degs) == 1:
        assert koszul_bracket(w, w, S, tmax=tmax) == \
            _koszul_reference(w, _copy(w), S, degs[0], tmax)


@pytest.mark.parametrize("model", [PLAIN, PARAM])
@given(data=st.data(), tmax=TMAX)
def test_interior_bivector_matches_the_per_pair_loop(model, data, tmax):
    form = data.draw(_forms(model))
    S = data.draw(_leg_matrices(model))
    assert interior_bivector(form, S, tmax=tmax) == \
        _interior_reference(form, S, tmax)


# ---------------------------------------------------------------------------
# Worked cases: the weights and the guard
# ---------------------------------------------------------------------------

def test_odd_pairs_weigh_nothing_and_even_pairs_twice():
    M = PLAIN
    X = MVElement.monomial(M, M.z(1), (0,))            # exterior degree 1
    Y = MVElement.monomial(M, M.z(0), (1,))
    P = MVElement.monomial(M, M.z(0), (0, 1))          # exterior degree 2
    Q = MVElement.monomial(M, M.z(1), (0,), (1,))
    # a sum of vector fields brackets to zero with itself, though [X, Y]
    # does not vanish
    assert dgla_bracket(X, Y)
    assert not dgla_bracket(X + Y, X + Y)
    # even pairs: [P + Q, P + Q] = [P, P] + 2 [P, Q] + [Q, Q]
    want = MVElement.sum(M, [dgla_bracket(P, P), dgla_bracket(P, Q),
                             dgla_bracket(Q, Q)], [1, 2, 1])
    assert dgla_bracket(P, Q) and dgla_bracket(P + Q, P + Q) == want
    # 1-forms anticommute; a 1-form and a 2-form commute
    a = MixedForm.monomial(M, M.z(0), (0,))
    b = MixedForm.monomial(M, M.zbar(1), (), (1,))
    c = MixedForm.monomial(M, M.z(1), (1,), (0,))
    assert a.wedge(b) and not (a + b).wedge(a + b)
    assert (a + c).wedge(a + c) == a.wedge(c).scale(2)


def test_koszul_on_an_inhomogeneous_operand_keeps_three_terms():
    # w = dz1 + dz2^dzbar1 is not homogeneous, so the third term is not
    # (-1)^deg times the first for any deg passed
    M = PLAIN
    S = [[Poly.zero(2) for _ in range(4)] for _ in range(4)]
    S[1][0], S[0][1] = M.z(0), -M.z(0)
    w = MixedForm.monomial(M, M.z(1) * M.zbar(0), (0,)) + \
        MixedForm.monomial(M, M.z(0), (1,), (0,))
    for deg in (1, 2):
        got = koszul_bracket(w, w, S, deg=deg)
        assert got == _koszul_reference(w, _copy(w), S, deg, None)
        # the shortcut's value differs from the three terms here
        t1 = w.wedge(delta_sigma(w, S))
        t2 = delta_sigma(w.wedge(w), S)
        sgn = (-1) ** deg
        assert got != MixedForm.sum(M, (t1, t2), (1 + sgn, -sgn))


def test_self_routes_make_fewer_products(monkeypatch):
    M = PLAIN
    phi = MVElement.monomial(M, M.z(0) * M.z(1), (0,), (0,)) + \
        MVElement.monomial(M, M.z(0) + M.t(), (1,), (1,))
    form = MixedForm.monomial(PARAM, PARAM.z(1), (0,), dt=True) + \
        MixedForm.monomial(PARAM, PARAM.zbar(0) * PARAM.t(), (1,), (0,))
    S = [[Poly.zero(2) for _ in range(5)] for _ in range(5)]
    S[1][0], S[0][1] = PARAM.z(0), -PARAM.z(0)
    S[4][2], S[2][4] = PARAM.t(), -PARAM.t()
    cases = [
        (lambda x: dgla_bracket(phi, x), phi),
        (lambda x: phi.wedge(x), phi),
        (lambda x: form.wedge(x), form),
        (lambda x: koszul_bracket(form, x, S, deg=2), form),
    ]
    for op, x in cases:
        same, n_same = _count_muls(monkeypatch, lambda: op(x))
        full, n_full = _count_muls(monkeypatch, lambda: op(_copy(x)))
        assert same == full and 0 < n_same < n_full


@given(data=st.data())
def test_self_route_never_makes_more_products(data):
    a = data.draw(_mv_elements(PLAIN))
    w = data.draw(_forms(PARAM))
    mp = pytest.MonkeyPatch()
    try:
        for op, x in ((lambda y: dgla_bracket(a, y), a),
                      (lambda y: a.wedge(y), a), (lambda y: w.wedge(y), w)):
            _, n_same = _count_muls(mp, lambda: op(x))
            _, n_full = _count_muls(mp, lambda: op(_copy(x)))
            assert n_same <= n_full
    finally:
        mp.undo()


# ---------------------------------------------------------------------------
# The accumulators
# ---------------------------------------------------------------------------

@given(data=st.data(), weights=st.lists(st.integers(-2, 2), min_size=3,
                                        max_size=3))
def test_weighted_sums_match_chained_sums(data, weights):
    polys = [data.draw(_polys(2)) for _ in weights]
    assert Poly.sum(2, polys, weights) == reduce(
        lambda acc, pw: acc + pw[0].scale(pw[1]), zip(polys, weights),
        Poly.zero(2))
    forms = [data.draw(_forms(PARAM)) for _ in weights]
    assert MixedForm.sum(PARAM, forms, weights) == reduce(
        lambda acc, fw: acc + fw[0].scale(fw[1]), zip(forms, weights),
        MixedForm.zero(PARAM))
