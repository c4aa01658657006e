"""Polynomial ring in z, zbar, t over exact Gaussian rationals."""
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from gkdirac.errors import GkdError
from gkdirac.linalg import mat_div_right
from gkdirac.model import Model
from gkdirac.poly import Poly
from gkdirac.scalars import Scalar, sc


M = Model(2)


def random_poly(rng, n=2, nterms=3, maxdeg=2, with_t=True):
    p = Poly.zero(n)
    for _ in range(nterms):
        e = [rng.randrange(0, maxdeg + 1) for _ in range(2 * n)]
        e.append(rng.randrange(0, maxdeg + 1) if with_t else 0)
        c = Scalar(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)),
                   Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)))
        p = p + Poly.const(n, c).mul(_mono(n, e))
    return p


def _mono(n, e):
    out = Poly.const(n, Scalar(1))
    for i, k in enumerate(e[:n]):
        for _ in range(k):
            out = out * Poly.z(n, i)
    for j, k in enumerate(e[n:2 * n]):
        for _ in range(k):
            out = out * Poly.zbar(n, j)
    for _ in range(e[2 * n]):
        out = out * Poly.t(n)
    return out


def test_ring_identities():
    rng = random.Random(7)
    for _ in range(30):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_derivative_leibniz():
    rng = random.Random(11)
    for _ in range(20):
        a, b = random_poly(rng), random_poly(rng)
        for idx in range(5):  # 2n+1 = 5 slots
            assert (a * b).derivative(idx) == a.derivative(idx) * b + a * b.derivative(idx)


def test_conj_is_involutive_hom():
    rng = random.Random(13)
    for _ in range(20):
        a, b = random_poly(rng), random_poly(rng)
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()
        assert a.conj().conj() == a


def test_conj_swaps_blocks():
    p = M.z(0) * M.zbar(1) * M.t()
    q = M.zbar(0) * M.z(1) * M.t()
    assert p.conj() == q


def test_eval_hom():
    rng = random.Random(17)
    for _ in range(10):
        a, b = random_poly(rng), random_poly(rng)
        pt = M.sample_point(rng, with_t=True)
        assert (a * b).eval(pt) == a.eval(pt) * b.eval(pt)
        assert (a + b).eval(pt) == a.eval(pt) + b.eval(pt)


def test_truncated_mul_matches_full():
    rng = random.Random(19)
    for _ in range(10):
        a, b = random_poly(rng), random_poly(rng)
        full = (a * b).t_truncate(3)
        assert a.mul(b, tmax=3).t_truncate(3) == full


# exponents in (z1, z2, zb1, zb2, t); t-degrees reach past every tmax tried
exponents = st.tuples(*[st.integers(0, 2)] * 4, st.integers(0, 8))
coeffs = st.builds(
    lambda a, b, d: Scalar(Fraction(a, d), Fraction(b, d)),
    st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 6),
).filter(lambda c: not c.is_zero())
polys = st.dictionaries(exponents, coeffs, max_size=6).map(
    lambda terms: Poly(2, terms))

EMPTY = Poly.zero(2)
CONST = Poly.const(2, sc(Fraction(-2, 3), 1))
HIGH_T = Poly(2, {(1, 0, 0, 1, 7): sc(1, -1), (0, 0, 0, 0, 8): sc(3)})
LOW_T = Poly(2, {(0, 0, 0, 0, 0): sc(1), (1, 0, 0, 0, 1): sc(0, 2),
                 (0, 1, 1, 0, 2): sc(Fraction(1, 2))})


@given(polys, polys, st.integers(0, 6))
@example(EMPTY, LOW_T, 3)
@example(LOW_T, EMPTY, 0)
@example(CONST, LOW_T, 1)
@example(LOW_T, CONST, 0)
@example(HIGH_T, LOW_T, 6)
@example(LOW_T, HIGH_T, 2)
@example(HIGH_T, HIGH_T, 6)
def test_truncated_mul_is_the_product_mod_t(a, b, k):
    got = a.mul(b, tmax=k)
    want = (a * b).t_truncate(k)
    assert got == want
    # the same terms in the same order as the full product's
    assert list(got.terms) == list(want.terms)
    for c in got.terms.values():
        assert not c.is_zero() and c.d > 0 and gcd(c.a, c.b, c.d) == 1


def _series_inverse(a, tmax):
    """1/a mod t^{tmax+1}, through the one division path (a 1 x 1
    denominator)."""
    one = Poly.const(a.n, Scalar(1))
    return mat_div_right([[one]], [[a]], tmax=tmax)[0][0]


def test_inverse_t_series():
    rng = random.Random(23)
    for _ in range(10):
        a = random_poly(rng, with_t=True)
        c0 = a.t_coefficient(0)
        if not (c0.is_constant() and c0.constant_value() and not c0.constant_value().is_zero()):
            a = a + Poly.const(2, Scalar(1))
            c0 = a.t_coefficient(0)
            if not (c0.is_constant() and c0.constant_value()):
                continue
        try:
            inv = _series_inverse(a, 6)
        except (ArithmeticError, ValueError, GkdError):
            continue
        assert (a.mul(inv, tmax=6)).t_truncate(6) == Poly.const(2, Scalar(1))


def test_inverse_t_series_simple():
    # 1/(1 - t) = 1 + t + t^2 + ...
    one = Poly.const(1, Scalar(1))
    a = one - Poly.t(1)
    inv = _series_inverse(a, 4)
    expect = one
    tk = one
    for _ in range(4):
        tk = tk * Poly.t(1)
        expect = expect + tk
    assert inv == expect


def test_zbar_degree_split():
    p = M.z(0) + M.zbar(0) * M.zbar(1) + M.zbar(0) * M.z(1)
    parts = p.zbar_degree_split()
    assert set(parts) == {0, 1, 2}
    assert parts[0] == M.z(0)
    assert parts[1] == M.zbar(0) * M.z(1)
    assert parts[2] == M.zbar(0) * M.zbar(1)
    assert sum(parts.values(), Poly.zero(2)) == p


def test_substitute_t():
    p = M.z(0) * M.t() * M.t() + M.t() + Poly.const(2, Scalar(5))
    v = p.substitute_t(sc(2))
    assert v == M.z(0) * Poly.const(2, sc(4)) + Poly.const(2, sc(7))
