"""The series inverse checked against sympy, an independent exact oracle.

sympy is a test-only dependency: this module is skipped where it is not
installed.  The oracle inverts with sympy's own exact arithmetic over
Q(i)[z, zbar, t]: the adjugate and determinant of the matrix, and the
t-series of 1/det from ``rs_series_inversion``.
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gkdirac.linalg import poly_mat_inverse
from gkdirac.model import Model
from gkdirac.poly import Poly
from gkdirac.scalars import Scalar

sympy = pytest.importorskip("sympy")

from sympy import QQ, QQ_I  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.ring_series import rs_mul, rs_series_inversion  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402

M1 = Model(1)
_R, _Z, _ZB, _T = ring("z zb t", QQ_I)

gauss = st.builds(lambda a, b, d: Scalar(Fraction(a, d), Fraction(b, d)),
                  st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3))
nonzero_gauss = gauss.filter(lambda c: not c.is_zero())
# a term c z^a zbar^b t^k with k >= 1: the t^0 block stays constant
t_terms = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1),
                             st.integers(1, 2), gauss), max_size=2)


def _to_sympy(p: Poly):
    return _R.from_dict({e: QQ_I(QQ(c.re.numerator, c.re.denominator),
                                 QQ(c.im.numerator, c.im.denominator))
                         for e, c in p.terms.items()})


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
    size = len(A)
    K = _R.to_domain()
    dm = DomainMatrix([[_to_sympy(a) for a in row] for row in A],
                      (size, size), K)
    adj = dm.adjugate().to_list()
    inv_det = rs_series_inversion(dm.det(), _T, tmax + 1)
    got = poly_mat_inverse(A, tmax)
    for i in range(size):
        for j in range(size):
            want = rs_mul(adj[i][j], inv_det, _T, tmax + 1)
            assert _to_sympy(got[i][j]) == want
