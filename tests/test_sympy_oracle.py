"""Series inverses checked against sympy, an independent exact oracle.

sympy is a test-only dependency: this module is skipped where it is not
installed.  The oracle inverts with sympy's own exact arithmetic over
Q(i)[z, zbar, t]: the adjugate and determinant of the matrix, and the
t-series of 1/det from ``rs_series_inversion``.  It checks
``poly_mat_inverse`` and the inverse series psi = W (1 + M W)^{-1} of
``formality_psi``.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gkdirac.forms import MixedForm
from gkdirac.hitchin import formality_psi
from gkdirac.linalg import poly_mat_inverse
from gkdirac.model import Model
from gkdirac.multivector import MVElement, form_matrix
from gkdirac.poisson import HoloPoisson
from gkdirac.poly import Poly
from gkdirac.scalars import Scalar

sympy = pytest.importorskip("sympy")

from sympy import QQ, QQ_I  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.ring_series import rs_mul, rs_series_inversion  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402

M1 = Model(1)
M2 = Model(2)
_R, _Z, _ZB, _T = ring("z zb t", QQ_I)
_R2, *_gens2 = ring("z1 z2 zb1 zb2 t", QQ_I)
_T2 = _gens2[-1]

gauss = st.builds(lambda a, b, d: Scalar(Fraction(a, d), Fraction(b, d)),
                  st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3))
nonzero_gauss = gauss.filter(lambda c: not c.is_zero())
# a term c z^a zbar^b t^k with k >= 1: the t^0 block stays constant
t_terms = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1),
                             st.integers(1, 2), gauss), max_size=2)


def _to_sympy(p: Poly, R=_R):
    return R.from_dict({e: QQ_I(QQ(c.re.numerator, c.re.denominator),
                                 QQ(c.im.numerator, c.im.denominator))
                         for e, c in p.terms.items()})


def _series_inverse(R, T, A, tmax):
    """sympy's t-series of A^{-1} mod t^{tmax+1}, for a square matrix of
    elements of R: adj(A) times the t-series of 1/det(A)."""
    size = len(A)
    dm = DomainMatrix(A, (size, size), R.to_domain())
    inv_det = rs_series_inversion(dm.det(), T, tmax + 1)
    return [[rs_mul(a, inv_det, T, tmax + 1) for a in row]
            for row in dm.adjugate().to_list()]


@st.composite
def series_matrices(draw):
    """A square matrix whose t^0 block L U is constant and invertible (L
    unit lower triangular, U upper triangular with a nonzero diagonal)."""
    size = draw(st.integers(1, 4))
    one, zero = Scalar(1), Scalar(0)
    L = [[one if i == j else (draw(gauss) if j < i else zero)
          for j in range(size)] for i in range(size)]
    U = [[draw(nonzero_gauss) if i == j else (draw(gauss) if j > i else zero)
          for j in range(size)] for i in range(size)]
    A = []
    for i in range(size):
        row = []
        for j in range(size):
            c0 = sum((L[i][k] * U[k][j] for k in range(size)), zero)
            p = Poly.const(1, c0)
            for a, b, k, c in draw(t_terms):
                p = p + Poly(1, {(a, b, k): c})
            row.append(p)
        A.append(row)
    return A


@settings(max_examples=25, deadline=None)
@given(series_matrices(), st.integers(0, 6))
def test_poly_mat_inverse_matches_sympy_series(A, tmax):
    want = _series_inverse(_R, _T, [[_to_sympy(a) for a in row] for row in A],
                           tmax)
    got = poly_mat_inverse(A, tmax)
    assert [[_to_sympy(g) for g in row] for row in got] == want


@st.composite
def closed_series(draw):
    """``(beta, hp)`` on C^2: beta = sum_k t^k d(a_k), k = 1..3, for random
    monomial 1-forms a_k, so beta is closed and vanishes at t = 0; the
    background is sigma = f d1^d2 with f = c1 z1 + c2 z2 + c3 z1 t."""
    beta = MixedForm.zero(M2)
    for k in range(1, 4):
        for _ in range(draw(st.integers(0, 2))):
            leg = draw(st.integers(0, 3))
            legs = ((leg,), ()) if leg < 2 else ((), (leg - 2,))
            e = tuple(draw(st.integers(0, 1)) for _ in range(4)) + (0,)
            a = MixedForm.monomial(M2, Poly(2, {e: draw(gauss)}), *legs)
            beta = beta + a.d().poly_mul(Poly.t(2, k))
    f = Poly(2, {(1, 0, 0, 0, 0): draw(gauss), (0, 1, 0, 0, 0): draw(gauss),
                 (1, 0, 0, 0, 1): draw(gauss)})
    return beta, HoloPoisson(M2, sigma=MVElement.monomial(M2, f, (0, 1)))


@settings(max_examples=15, deadline=None)
@given(closed_series(), st.integers(1, 4), st.booleans())
def test_formality_psi_matches_sympy_series(scene, tmax, check):
    beta, hp = scene
    W = [[_to_sympy(w, _R2) for w in row] for row in form_matrix(beta)]
    M = [[_to_sympy(m, _R2) for m in row] for row in hp.sigma.mat]
    dim = len(W)
    den = [[_R2(int(i == j)) + sum((M[i][l] * W[l][j] for l in range(dim)),
                                   _R2.zero)
            for j in range(dim)] for i in range(dim)]
    inv = _series_inverse(_R2, _T2, den, tmax)
    want = [[sum((rs_mul(W[i][l], inv[l][j], _T2, tmax + 1)
                  for l in range(dim)), _R2.zero)
             for j in range(dim)] for i in range(dim)]
    got = form_matrix(formality_psi(beta, hp, tmax, check=check))
    assert [[_to_sympy(g, _R2) for g in row] for row in got] == want
