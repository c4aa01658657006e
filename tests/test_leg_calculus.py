"""The matrix leg calculus against the polyvector dgLa.

Three verdicts rest on the directional derivative X(f) = sum_l X^l d_l f
over frame-leg columns: the Lie bracket of vector fields (the vector
part of ``frames.dorfman_bracket``), the Poisson condition on a bivector
(``poisson.schouten_defect``) and the Lie derivative of a bivector
(``hitchin._lie_derivative_bivector``).  Each is checked here against the
graded bracket of :mod:`gkdirac.brackets`, which computes the same
quantities from leg words instead of matrices, on holomorphic polynomial
data on C^3 that may also carry powers of t, with and without a t-cut.
Each sign or factor between the two is pinned by one worked example.
"""
from hypothesis import given, strategies as st

from gkdirac.brackets import dgla_bracket
from gkdirac.frames import GVField, dorfman_bracket
from gkdirac.hitchin import _lie_derivative_bivector
from gkdirac.model import Model
from gkdirac.multivector import MVElement, bivector_matrix
from gkdirac.poisson import Bivector, schouten_defect
from gkdirac.poly import Poly
from gkdirac.scalars import Scalar

M = Model(3)
PAIRS = [(0, 1), (0, 2), (1, 2)]

# a term: Gaussian-integer coefficient, exponents of z1, z2, z3 and t
_term = st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                  st.integers(0, 2), st.integers(0, 2), st.integers(0, 2),
                  st.integers(0, 2))
polys = st.lists(_term, max_size=3).map(
    lambda terms: Poly.sum(M.n, [
        Poly(M.n, {(e1, e2, e3, 0, 0, 0, t): Scalar(a, b)})
        for a, b, e1, e2, e3, t in terms]))
cuts = st.none() | st.integers(0, 2)


def column(coeffs):
    """Frame components of sum_i coeffs[i] d/dz_i: zero on the dzbar legs."""
    return list(coeffs) + [M.zero_poly()] * M.n


def vector_field(coeffs) -> MVElement:
    out = MVElement.zero(M)
    for i, c in enumerate(coeffs):
        out = out + MVElement.monomial(M, c, vecs=(i,))
    return out


def bivector(coeffs) -> MVElement:
    out = MVElement.zero(M)
    for (i, j), c in zip(PAIRS, coeffs):
        out = out + MVElement.monomial(M, c, vecs=(i, j))
    return out


coefficients = st.lists(polys, min_size=3, max_size=3)
bivectors = st.lists(polys, min_size=3, max_size=3).map(bivector)


def test_worked_examples_pin_the_signs():
    z1, z2 = M.z(0), M.z(1)
    one, zero = M.poly(1), M.zero_poly()
    # [z1 d2, d1] = -d1(z1) d2 = -d2, in both calculi
    cx, cy = [zero, z1, zero], [one, zero, zero]
    assert dgla_bracket(vector_field(cx), vector_field(cy)) \
        == vector_field([zero, -one, zero])
    # the Dorfman bracket of covector-free sections is their Lie bracket
    assert dorfman_bracket(GVField(M, column(cx)),
                           GVField(M, column(cy))).vec[1] == -one
    # sigma = z1 d1^d2 + z2 d2^d3: the defect is sum_cyc 2 sigma^{la}
    # d_l sigma^{bc}, and only sigma^{21} d_2 sigma^{23} = -z1 survives at
    # (1, 2, 3); the dgLa reads the opposite sign, [sigma, sigma] = +2 z1
    # d1^d2^d3
    sigma = bivector([z1, zero, z2])
    assert schouten_defect(Bivector.from_mv(sigma)) == {(0, 1, 2): -2 * z1}
    assert dgla_bracket(sigma, sigma) == MVElement.monomial(
        M, 2 * z1, vecs=(0, 1, 2))
    # Z = z2 d1 on d1^d2 + z1 d2^d3: L_Z (d1^d2) = d1^[Z, d2] = -d1^d1 = 0
    # and L_Z (z1 d2^d3) = z2 d2^d3 + z1 [Z, d2]^d3 = z2 d2^d3 - z1 d1^d3;
    # the matrix Lie derivative is [Z, sigma] with no sign
    cz = [z2, zero, zero]
    sigma = bivector([one, zero, z1])
    want = bivector([zero, -z1, z2])
    assert dgla_bracket(vector_field(cz), sigma) == want
    assert _lie_derivative_bivector(M, column(cz), bivector_matrix(sigma)) \
        == bivector_matrix(want)


@given(coefficients, coefficients, cuts)
def test_lie_bracket_components_match_the_dgla(cx, cy, tmax):
    want = dgla_bracket(vector_field(cx), vector_field(cy), tmax=tmax)
    got = dorfman_bracket(GVField(M, column(cx)), GVField(M, column(cy)),
                          tmax=tmax).vec
    assert not any(got[M.n:])
    assert vector_field(got[:M.n]) == want


@given(bivectors, cuts)
def test_schouten_defect_is_minus_the_dgla_self_bracket(sigma, tmax):
    bracket = dgla_bracket(sigma, sigma, tmax=tmax)
    assert set(bracket.comps) <= {(3, 0)}
    c = bracket.coefficient(vecs=(0, 1, 2))
    want = {(0, 1, 2): -c} if c else {}
    assert schouten_defect(Bivector.from_mv(sigma), tmax=tmax) == want


@given(coefficients, bivectors, cuts)
def test_lie_derivative_bivector_is_the_dgla_bracket(cz, sigma, tmax):
    got = _lie_derivative_bivector(M, column(cz), bivector_matrix(sigma),
                                   tmax=tmax)
    want = bivector_matrix(dgla_bracket(vector_field(cz), sigma, tmax=tmax))
    assert got == want
