"""Field axioms and a differential check against a Fraction-pair
reference for exact Gaussian rationals."""
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from gkdirac.poly import Poly
from gkdirac.scalars import Scalar, ZERO, ONE, sc


rationals = st.fractions(
    min_value=-6, max_value=6, max_denominator=8
)
scalars = st.builds(Scalar, rationals, rationals)


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(scalars)
def test_inverse(a):
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
    else:
        assert a * a.inverse() == ONE
        assert ONE / a == a.inverse()


@given(scalars, scalars)
def test_conj_is_ring_hom(a, b):
    assert (a + b).conj() == a.conj() + b.conj()
    assert (a * b).conj() == a.conj() * b.conj()
    assert a.conj().conj() == a


def test_i_squared():
    assert Scalar(0, 1) * Scalar(0, 1) == Scalar(-1)


@given(scalars)
def test_power(a):
    if not a.is_zero():
        assert a ** 0 == ONE
        assert a ** 3 == a * a * a
        assert a ** -2 == (a * a).inverse()


# -- the (a + b*i)/d core against the former Fraction-pair arithmetic --------

class Ref:
    """Reference Q(i) number stored as two Fractions (the former Scalar)."""

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        return Ref(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return Ref(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return Ref(self.re * o.re - self.im * o.im,
                   self.re * o.im + self.im * o.re)

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        return Ref(self.re / n, -self.im / n)  # ZeroDivisionError on zero

    def __pow__(self, k):
        out, base = Ref(1), (self if k >= 0 else self.inverse())
        for _ in range(abs(k)):
            out = out * base
        return out

    def conj(self):
        return Ref(self.re, -self.im)

    def __eq__(self, o):
        return self.re == o.re and self.im == o.im

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im} i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re} {sign} {abs(self.im)} i)"

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"


parts = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-40, max_value=40, max_denominator=60),
)
pairs = st.tuples(parts, parts)


def agrees(s, r):
    """``s`` is canonical and equals ``r`` in value and in every rendering."""
    assert type(s) is Scalar
    assert all(type(v) is int for v in (s.a, s.b, s.d))
    assert s.d > 0 and gcd(s.a, s.b, s.d) == 1
    assert (s.re, s.im) == (r.re, r.im)
    assert str(s) == str(r)
    assert repr(s) == repr(r)
    return True


@given(pairs, pairs)
def test_differential_binary_ops(x, y):
    s, t, r, q = Scalar(*x), Scalar(*y), Ref(*x), Ref(*y)
    assert agrees(s, r) and agrees(t, q)
    assert agrees(s + t, r + q)
    assert agrees(s - t, r - q)
    assert agrees(s * t, r * q)
    assert (s == t) == (r == q)
    # an int or Fraction operand on either side
    k = y[0]
    assert agrees(s + k, r + Ref(k)) and agrees(k + s, r + Ref(k))
    assert agrees(s - k, r - Ref(k)) and agrees(k - s, Ref(k) - r)
    assert agrees(s * k, r * Ref(k)) and agrees(k * s, r * Ref(k))
    if q != Ref(0):
        assert agrees(s / t, r * q.inverse())
    if k != 0:
        assert agrees(s / k, r * Ref(k).inverse())


@given(pairs, st.integers(-8, 16))
def test_differential_unary_ops(x, k):
    s, r = Scalar(*x), Ref(*x)
    assert agrees(-s, Ref(0) - r)
    assert agrees(s.conj(), r.conj())
    assert s.is_zero() == (r == Ref(0)) == (not s)
    assert s.is_real() == (r.im == 0)
    if r == Ref(0):
        with pytest.raises(ZeroDivisionError):
            s.inverse()
        with pytest.raises(ZeroDivisionError):
            s ** -1
        if k >= 0:
            assert agrees(s ** k, r ** k)
    else:
        assert agrees(s.inverse(), r.inverse())
        assert agrees(s ** k, r ** k)


def test_power_every_exponent_against_repeated_multiplication():
    for x in [(2, 0), (Fraction(1, 3), -1), (0, Fraction(5, 7)), (-1, 1)]:
        for k in range(-8, 17):
            assert agrees(Scalar(*x) ** k, Ref(*x) ** k)


@given(pairs, pairs)
def test_differential_eq_hash(x, y):
    s, r = Scalar(*x), Ref(*x)
    # the same value reached by another path hashes the same
    t = (Scalar(*x) + Scalar(*y)) - Scalar(*y)
    assert t == s and hash(t) == hash(s)
    if r.im == 0:
        assert s == r.re and r.re == s
        assert hash(s) == hash(r.re)
    else:
        assert s != r.re


def test_canonical_form_after_construction():
    s = Scalar(Fraction(2, 4), Fraction(6, 4))
    assert (s.a, s.b, s.d) == (1, 3, 2)
    assert (ZERO.a, ZERO.b, ZERO.d) == (0, 0, 1)
    z = Scalar(Fraction(-3, 6)) + Fraction(1, 2)
    assert (z.a, z.b, z.d) == (0, 0, 1)
    with pytest.raises(AttributeError):
        s.re = 1


def test_pinned_strings():
    assert repr(Scalar(Fraction(-1, 2), 3)) == \
        "Scalar(Fraction(-1, 2), Fraction(3, 1))"
    assert str(sc(Fraction(4, 6), -2)) == "(2/3 - 2 i)"


def test_real_scalars_hash_like_their_rational():
    assert {Scalar(1): "v"}.get(1) == "v"
    assert {1: "v"}.get(Scalar(1)) == "v"
    assert Fraction(1, 2) == Scalar(Fraction(1, 2))
    assert hash(Scalar(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert {Fraction(1, 2): "v"}[Scalar(3, 1) * Scalar(3, -1) / 20] == "v"
    assert hash(Scalar(Fraction(1, 3)) * 3) == hash(ONE) == hash(1)


@pytest.mark.parametrize("bad", [0.1, 1j, "1/2"])
def test_non_rational_parts_are_rejected(bad):
    name = type(bad).__name__
    with pytest.raises(TypeError, match=f"cannot coerce {name} to Scalar"):
        Scalar(bad)
    with pytest.raises(TypeError, match=f"cannot coerce {name} to Scalar"):
        Scalar(0, bad)
    with pytest.raises(TypeError, match=f"cannot coerce {name} to Scalar"):
        sc(bad, 1)
    with pytest.raises(TypeError):
        ONE + bad


@given(scalars)
def test_scalar_defers_to_a_poly_operand(c):
    p = Poly.z(2, 0) + Poly.t(2).scale(sc(0, 3))
    const = Poly.const(2, c)
    assert c + p == const + p
    assert c - p == const - p
    assert c * p == const * p
    assert isinstance(c - p, Poly)
