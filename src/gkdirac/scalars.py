"""Exact complex rationals.

Every coefficient in this package is an element of Q(i), stored as a
Gaussian integer over one common denominator: ``(a + b*i) / d`` with
Python ints ``a``, ``b`` and ``d`` (the integer-numerator, common-denominator
idiom of FLINT's ``fmpq``).  The form is canonical: ``d > 0`` and
``gcd(a, b, d) == 1``, so equality is a comparison of three ints.  No
floating point anywhere; all comparisons are exact equality.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd

__all__ = ["Scalar", "ZERO", "ONE", "sc"]

_RATIONAL = (int, Fraction)  # the operand types coerced to Scalar


class Scalar:
    """A complex number ``(a + b*i) / d`` with exact rational parts.

    ``Scalar(re, im)`` takes ``int`` or ``Fraction`` parts.  The ints ``a``,
    ``b``, ``d`` satisfy ``d > 0`` and ``gcd(a, b, d) == 1`` after every
    operation; ``re`` and ``im`` return the parts as ``Fraction``s.
    """

    __slots__ = ("a", "b", "d")

    def __new__(cls, re=0, im=0):
        for x in (re, im):
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")
        p, q = re.denominator, im.denominator
        return _new(re.numerator * q, im.numerator * p, p * q)

    re = property(lambda self: Fraction(self.a, self.d), doc="Real part.")
    im = property(lambda self: Fraction(self.b, self.d), doc="Imaginary part.")

    # -- ring structure -------------------------------------------------
    def __add__(self, other):
        if type(other) is not Scalar:
            if not isinstance(other, _RATIONAL):
                return NotImplemented  # e.g. a Poly: Poly.__radd__
            other = _coerce(other)
        d, e = self.d, other.d
        if d == e:
            return _new(self.a + other.a, self.b + other.b, d)
        return _new(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return _new(-self.a, -self.b, self.d)

    def __sub__(self, other):
        if type(other) is not Scalar:
            if not isinstance(other, _RATIONAL):
                return NotImplemented
            other = _coerce(other)
        d, e = self.d, other.d
        if d == e:
            return _new(self.a - other.a, self.b - other.b, d)
        return _new(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __rsub__(self, other):
        if not isinstance(other, _RATIONAL):
            return NotImplemented
        return _coerce(other) - self

    def __mul__(self, other):
        if type(other) is not Scalar:
            if type(other) is int:  # e.g. an exponent in Poly.derivative
                return _new(self.a * other, self.b * other, self.d)
            if not isinstance(other, _RATIONAL):
                return NotImplemented
            other = _coerce(other)
        a, b, x, y = self.a, self.b, other.a, other.b
        return _new(a * x - b * y, a * y + b * x, self.d * other.d)

    __rmul__ = __mul__

    def inverse(self):
        a, b = self.a, self.b
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero scalar")
        return _new(a * self.d, -b * self.d, n)

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return ONE
        # binary powering from the top bit down: bit_length - 1 squarings
        # and popcount - 1 further products, none of them by one
        out = self
        for bit in bin(k)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    # -- involutions and predicates -------------------------------------
    def conj(self):
        return _new(self.a, -self.b, self.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_real(self) -> bool:
        return self.b == 0

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return (self.a, self.b, self.d) == (other.a, other.b, other.d)
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and (self.a, self.d) == (other.numerator,
                                                        other.denominator)
        return NotImplemented

    def __hash__(self):
        # a real scalar equals an int or Fraction, so it hashes like one
        if self.b == 0:
            return hash(self.re)
        return hash((self.a, self.b, self.d))

    # -- rendering -------------------------------------------------------
    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im} i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re} {sign} {abs(self.im)} i)"

    def __repr__(self):
        return f"Scalar({self.re!r}, {self.im!r})"


def _new(a: int, b: int, d: int) -> Scalar:
    """The canonical ``(a + b*i) / d``, for ints ``a``, ``b`` and ``d > 0``."""
    g = gcd(a, b, d)
    s = object.__new__(Scalar)
    s.a, s.b, s.d = (a, b, d) if g == 1 else (a // g, b // g, d // g)
    return s


def _coerce(x) -> Scalar:
    if isinstance(x, Scalar):
        return x
    if isinstance(x, int):
        return _new(x, 0, 1)
    return Scalar(x)  # a Fraction; any other type raises TypeError


def sc(re=0, im=0) -> Scalar:
    """Shorthand constructor."""
    return Scalar(re, im)


ZERO = Scalar(0)
ONE = Scalar(1)
