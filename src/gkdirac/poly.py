"""Polynomials on the flat affine model.

A :class:`Poly` is a finite Scalar-linear combination of monomials in the
variables ``z_1..z_n, zbar_1..zbar_n, t``; exponent vectors are stored as
tuples of length ``2n+1`` in that order.  ``t`` is a real parameter:
conjugation fixes it while swapping the z / zbar blocks and conjugating
coefficients.

All arithmetic is exact.  Multiplication accepts an optional ``tmax``:
``a.mul(b, tmax=k)`` is exactly ``(a * b).t_truncate(k)``, the product
mod t^{k+1}, computed without visiting any term pair whose t-degrees sum
beyond ``k``.
"""
from __future__ import annotations

from fractions import Fraction
from operator import add

from .scalars import Scalar, ZERO, ONE

__all__ = ["Poly"]


class Poly:
    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        # exponent tuple (len 2n+1) -> nonzero Scalar
        self.terms: dict = {}
        if terms:
            for e, c in terms.items():
                if not c.is_zero():
                    self.terms[e] = c

    # -- constructors ----------------------------------------------------
    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def const(cls, n, c) -> "Poly":
        if isinstance(c, (int, Fraction)):
            c = Scalar(c)
        p = cls(n)
        if not c.is_zero():
            p.terms[(0,) * (2 * n + 1)] = c
        return p

    @classmethod
    def var(cls, n, index: int, power: int = 1) -> "Poly":
        """Monomial for variable ``index`` in the (z.., zbar.., t) ordering."""
        e = [0] * (2 * n + 1)
        e[index] = power
        return cls(n, {tuple(e): ONE})

    @classmethod
    def z(cls, n, i):
        return cls.var(n, i)

    @classmethod
    def zbar(cls, n, i):
        return cls.var(n, n + i)

    @classmethod
    def t(cls, n, power=1):
        return cls.var(n, 2 * n, power)

    # -- ring ops --------------------------------------------------------
    def _check(self, other: "Poly"):
        if self.n != other.n:
            raise ValueError(f"mixed model dimensions {self.n} != {other.n}")

    def __add__(self, other):
        # Fraction is an ABC, so the isinstance test is the slow path
        if type(other) is not Poly and isinstance(other,
                                                  (int, Fraction, Scalar)):
            other = Poly.const(self.n, other)
        return Poly.sum(self.n, (self, other))

    __radd__ = __add__

    def __neg__(self):
        p = Poly(self.n)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other):
        if type(other) is not Poly and isinstance(other,
                                                  (int, Fraction, Scalar)):
            other = Poly.const(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c: Scalar) -> "Poly":
        if isinstance(c, (int, Fraction)):
            c = Scalar(c)
        if c.is_zero():
            return Poly(self.n)
        p = Poly(self.n)
        p.terms = {e: c * v for e, v in self.terms.items()}
        return p

    def mul(self, other: "Poly", tmax: int | None = None) -> "Poly":
        """The product; with ``tmax``, exactly the product mod t^{tmax+1}.

        A truncated product pairs each left term only with the right terms
        whose t-degree keeps the sum within ``tmax``, so the pairs beyond
        ``tmax`` are never visited.  The right terms are walked in their
        own order either way, so the result holds its terms in the order
        the full product holds those of t-degree at most ``tmax``.
        """
        if type(other) is not Poly and isinstance(other,
                                                  (int, Fraction, Scalar)):
            return self.scale(other)
        self._check(other)
        right = other.terms.items()
        ti = 2 * self.n
        # left t-degree -> the right terms a left term of that degree reaches
        reach = None if tmax is None else {}
        out: dict = {}
        for e1, c1 in self.terms.items():
            row = right
            if reach is not None:
                t1 = e1[ti]
                row = reach.get(t1)
                if row is None:
                    row = reach[t1] = [(e2, c2) for e2, c2 in right
                                       if t1 + e2[ti] <= tmax]
            for e2, c2 in row:
                e = tuple(map(add, e1, e2))
                s = out.get(e)
                if s is None:
                    out[e] = c1 * c2  # nonzero: both factors are
                    continue
                s = s + c1 * c2
                if s.is_zero():
                    del out[e]
                else:
                    out[e] = s
        p = Poly(self.n)
        p.terms = out
        return p

    @classmethod
    def sum(cls, n, polys) -> "Poly":
        """The sum of an iterable of polynomials in ``n`` variables, built
        in one dict, so a long sum copies no running total.  The terms come
        out in the order a chain of ``+`` gives them."""
        out: dict = {}
        for p in polys:
            if p.n != n:
                raise ValueError(f"mixed model dimensions {n} != {p.n}")
            if not out:
                out = dict(p.terms)
                continue
            for e, c in p.terms.items():
                s = out.get(e)
                if s is None:
                    out[e] = c
                    continue
                s = s + c
                if s.is_zero():
                    del out[e]
                else:
                    out[e] = s
        p = cls(n)
        p.terms = out
        return p

    def __mul__(self, other):
        return self.mul(other)

    __rmul__ = __mul__

    # -- calculus --------------------------------------------------------
    def derivative(self, index: int) -> "Poly":
        out: dict = {}
        for e, c in self.terms.items():
            k = e[index]
            if k == 0:
                continue
            e2 = list(e)
            e2[index] = k - 1
            e2 = tuple(e2)
            v = c * k
            s = out.get(e2)
            s = v if s is None else s + v
            if s.is_zero():
                out.pop(e2, None)
            else:
                out[e2] = s
        p = Poly(self.n)
        p.terms = out
        return p

    def d_z(self, i):
        return self.derivative(i)

    def d_zbar(self, i):
        return self.derivative(self.n + i)

    def d_t(self):
        return self.derivative(2 * self.n)

    def conj(self) -> "Poly":
        """Swap z and zbar blocks, conjugate coefficients; t is fixed."""
        n = self.n
        out = {}
        for e, c in self.terms.items():
            e2 = e[n:2 * n] + e[:n] + (e[2 * n],)
            out[e2] = c.conj()
        p = Poly(n)
        p.terms = out
        return p

    # -- t-series helpers ------------------------------------------------
    def t_coefficient(self, k: int) -> "Poly":
        """The coefficient of t**k, returned t-free."""
        ti = 2 * self.n
        out = {}
        for e, c in self.terms.items():
            if e[ti] == k:
                out[e[:ti] + (0,)] = c
        p = Poly(self.n)
        p.terms = out
        return p

    def t_truncate(self, tmax: int) -> "Poly":
        ti = 2 * self.n
        p = Poly(self.n)
        p.terms = {e: c for e, c in self.terms.items() if e[ti] <= tmax}
        return p

    def t_degree(self) -> int:
        ti = 2 * self.n
        return max((e[ti] for e in self.terms), default=-1)

    def t_valuation(self) -> int:
        """Smallest t-power with a nonzero coefficient; -1 for the zero
        polynomial."""
        ti = 2 * self.n
        return min((e[ti] for e in self.terms), default=-1)

    def t_shift_down(self, k: int) -> "Poly":
        """Divide by t^k; every term must carry at least t^k."""
        if k == 0:
            return self
        ti = 2 * self.n
        out = Poly(self.n)
        for e, c in self.terms.items():
            if e[ti] < k:
                raise ArithmeticError("t-order too low for shift")
            out.terms[e[:ti] + (e[ti] - k,)] = c
        return out

    def lift_parameter(self) -> "Poly":
        """Reread a t-series over C^n over C^{n+1}, with the parameter as
        the new last holomorphic coordinate s: t^k becomes t^k s^k.

        t then counts the total (s, sbar) degree, and keeps doing so under
        products and conjugation, so a ``tmax`` truncation is a cut in that
        degree.  A derivative in s or sbar lowers the degree by one; follow
        it with ``t_shift_down(1)``.
        """
        n = self.n
        p = Poly(n + 1)
        p.terms = {e[:n] + (e[2 * n],) + e[n:2 * n] + (0, e[2 * n]): c
                   for e, c in self.terms.items()}
        return p

    def substitute_t(self, value: Scalar) -> "Poly":
        ti = 2 * self.n
        out = Poly(self.n)
        for e, c in self.terms.items():
            piece = Poly(self.n, {e[:ti] + (0,): c * (value ** e[ti])})
            out = out + piece
        return out

    def divexact(self, den: "Poly") -> "Poly":
        """Exact polynomial division: the quotient q with q * den == self.

        Works over the field Q(i) with lex order on exponent tuples; raises
        ArithmeticError when ``den`` does not divide ``self`` exactly.
        """
        self._check(den)
        if not den.terms:
            raise ZeroDivisionError("division by the zero polynomial")
        num = Poly(self.n)
        num.terms = dict(self.terms)
        quot = Poly(self.n)
        lead_d = max(den.terms)
        cd = den.terms[lead_d]
        while num.terms:
            lead_n = max(num.terms)
            e = tuple(a - b for a, b in zip(lead_n, lead_d))
            if any(x < 0 for x in e):
                raise ArithmeticError("inexact polynomial division")
            term = Poly(self.n, {e: num.terms[lead_n] / cd})
            quot = quot + term
            num = num - term.mul(den)
        return quot

    # -- evaluation ------------------------------------------------------
    def eval(self, point) -> Scalar:
        """Evaluate at a point: z_i -> point.z[i], zbar_i -> conj, t -> point.t."""
        n = self.n
        zs = point.z
        tval = point.t
        acc = ZERO
        for e, c in self.terms.items():
            v = c
            for i in range(n):
                if e[i]:
                    v = v * (zs[i] ** e[i])
                if e[n + i]:
                    v = v * (zs[i].conj() ** e[n + i])
            if e[2 * n]:
                v = v * (tval ** e[2 * n])
            acc = acc + v
        return acc

    # -- degrees and predicates -----------------------------------------
    def zbar_degree_split(self):
        """Split into pieces homogeneous in total zbar-degree: {m: Poly}."""
        n = self.n
        out: dict[int, Poly] = {}
        for e, c in self.terms.items():
            m = sum(e[n:2 * n])
            out.setdefault(m, Poly(n)).terms[e] = c
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(x == 0 for x in e) for e in self.terms)

    def constant_value(self) -> Scalar:
        if not self.terms:
            return ZERO
        [(e, c)] = list(self.terms.items())
        if any(e):
            raise ValueError("not a constant polynomial")
        return c

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is Poly:
            return self.n == other.n and self.terms == other.terms
        if isinstance(other, (int, Fraction, Scalar)):
            other = Poly.const(self.n, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # -- rendering -------------------------------------------------------
    def render(self) -> str:
        if not self.terms:
            return "0"
        n = self.n
        names = [f"z{i+1}" for i in range(n)] + [f"zb{i+1}" for i in range(n)] + ["t"]
        bits = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e)):
            c = self.terms[e]
            mono = "*".join(
                (names[i] if k == 1 else f"{names[i]}^{k}")
                for i, k in enumerate(e) if k
            )
            if mono:
                bits.append(f"({c.re}+{c.im} i)*{mono}")
            else:
                bits.append(f"({c.re}+{c.im} i)")
        return " + ".join(bits)

    def __repr__(self):
        return f"Poly<{self.render()}>"
