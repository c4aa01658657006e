"""Polynomials on the flat affine model.

A :class:`Poly` is a finite Q(i)-linear combination of monomials in the
variables ``z_1..z_n, zbar_1..zbar_n, t``.  ``t`` is a real parameter:
conjugation fixes it while swapping the z / zbar blocks and conjugating
coefficients.

Storage.  A monomial's exponent vector ``(e_0, .., e_2n)``, in the order
``z.., zbar.., t``, is packed into one int with 16 bits per field: ``z_1``
in the top field and ``t`` in the lowest, so ``key = sum(e_k << 16*(2n-k))``
(the packed monomials of Monagan & Pearce, CASC 2007).  Multiplying
monomials is adding keys, and ``key & 0xFFFF`` is the t-degree.  Since
every field lies below 2**16, comparing two keys compares their top fields
first and a lower field only on a tie, so the order of packed keys is the
lexicographic order of exponent tuples: ``divexact``'s leading term and
``render``'s sort are those of the tuples.

A field holds at most 2**15 - 1; bit 15 of every field is a guard bit.  A
sum of two legal keys cannot carry out of a field, so a product sets a
guard bit exactly where some exponent reaches 2**15, and one test per
output key catches it.  An exponent of 2**15 or more, in a constructor or
in a product, raises :class:`UnsupportedSceneError` instead of spilling
into the next field.

The coefficients are Gaussian integers over one content denominator (the
idiom of FLINT's ``fmpq_mpoly``): ``_c`` maps each key to a pair ``[a, b]``
of ints, and the coefficient is ``(a + b*i) / d``.  The form is canonical:
``d > 0``, no pair is ``[0, 0]``, and ``gcd(all a, all b, d) == 1``, so
equality and hashing compare ints.  A pair is a list so that ``mul`` can
accumulate into the pairs it creates; a stored pair is never written
again, so polynomials share pairs freely.  The accessors (``terms``,
``constant_value``, ``constant_term``, ``eval``) hand out :class:`Scalar`
coefficients.

All arithmetic is exact.  Multiplication accepts an optional ``tmax``:
``a.mul(b, tmax=k)`` is exactly ``(a * b).t_truncate(k)``, the product
mod t^{k+1}, computed without visiting any term pair whose t-degrees sum
beyond ``k``.

``tmax=None`` means exact, everywhere in the package.  The truncation
primitives (``Poly.t_truncate``, ``GradedTable.t_truncate``,
``GVField.t_truncate``, ``DiracFrame.t_truncate`` and
``linalg.mat_t_truncate``) return their input unchanged for ``None``, so a
caller passes its ``tmax`` through without testing it.
"""
from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm
from operator import or_

from .errors import UnsupportedSceneError
from .scalars import Scalar, ZERO, _coerce, _new

__all__ = ["Poly"]

_BITS = 16                   # bits per exponent field
_FIELD = (1 << _BITS) - 1    # one field's mask; also the t field's
_LIMIT = 1 << (_BITS - 1)    # the least exponent a field may not hold


@lru_cache(maxsize=None)
def _layout(n):
    """The field shifts, top field first, and the guard mask for ``n``."""
    shifts = tuple(_BITS * k for k in range(2 * n, -1, -1))
    return shifts, sum(_LIMIT << s for s in shifts)


def _pack(n, e) -> int:
    """The key of exponent tuple ``e``; raises on a field out of range."""
    if len(e) != 2 * n + 1:
        raise ValueError(f"exponent {tuple(e)} is not of length {2 * n + 1}")
    key = 0
    for x in e:
        if not 0 <= x < _LIMIT:
            raise UnsupportedSceneError(
                f"exponent {x} is outside the packed range [0, {_LIMIT})")
        key = (key << _BITS) | x
    return key


def _unpack(n, key) -> tuple:
    return tuple((key >> s) & _FIELD for s in _layout(n)[0])


def _poly(n, c, d) -> "Poly":
    """A Poly over storage already in canonical form."""
    p = object.__new__(Poly)
    p.n, p._c, p.d = n, c, d
    return p


def _reduce(n, acc, d) -> "Poly":
    """The canonical Poly of ``acc`` (key -> pair, zero pairs allowed; a
    dict the caller gives up) over ``d > 0``: drop the zero pairs and
    divide out the content."""
    for a, b in acc.values():
        if not (a or b):
            acc = {k: v for k, v in acc.items() if v[0] or v[1]}
            break
    if not acc:
        return _poly(n, {}, 1)
    g = d
    if g != 1:
        for a, b in acc.values():
            g = gcd(g, a, b)
            if g == 1:
                break
        else:
            acc = {k: [a // g, b // g] for k, (a, b) in acc.items()}
            d //= g
    return _poly(n, acc, d)


def _weighted_sum(n, polys, weights) -> "Poly":
    """``Poly.sum`` with weights: each numerator pair enters the one dict
    scaled by its weight and its share of the common denominator."""
    pairs = [(p, w) for p, w in zip(polys, weights) if w and p._c]
    d = lcm(*(p.d for p, _ in pairs))
    acc = {}
    get = acc.get
    for p, w in pairs:
        if p.n != n:
            raise ValueError(f"mixed model dimensions {n} != {p.n}")
        f = d // p.d * w
        for k, (a, b) in p._c.items():
            s = get(k)
            acc[k] = [a * f, b * f] if s is None else \
                [s[0] + a * f, s[1] + b * f]
    return _reduce(n, acc, d)


def _abd(c):
    """``c`` (int, Fraction or Scalar) as ``(a, b, d)``."""
    if type(c) is int:
        return c, 0, 1
    c = _coerce(c)
    return c.a, c.b, c.d


def _scaled(n, c, x, y, d) -> "Poly":
    """The canonical Poly of the pairs ``c`` times ``x + y i``, over ``d``."""
    if y:
        acc = {k: [a * x - b * y, a * y + b * x] for k, (a, b) in c.items()}
    else:
        acc = {k: [a * x, b * x] for k, (a, b) in c.items()}
    return _reduce(n, acc, d)


def _const_mul(p, pair, e, tmax) -> "Poly":
    """``p`` times the constant ``pair / e``, mod t^{tmax+1} with ``tmax``:
    the pair walk's result with one right term of key 0.  A constant
    moves no key, so no guard bit can be set."""
    p = p.t_truncate(tmax)
    x, y = pair
    if x == 1 and not y and e == 1:
        return p
    return _scaled(p.n, p._c, x, y, p.d * e) if p._c else p


class _Terms(Mapping):
    """Read-only view of a Poly's terms: exponent tuple -> Scalar, in the
    Poly's term order."""

    __slots__ = ("_p",)

    def __init__(self, p):
        self._p = p

    def __len__(self):
        return len(self._p._c)

    def __iter__(self):
        n = self._p.n
        return (_unpack(n, k) for k in self._p._c)

    def __getitem__(self, e):
        p = self._p
        try:
            a, b = p._c[_pack(p.n, e)]
        except (ValueError, TypeError, UnsupportedSceneError):
            raise KeyError(e) from None
        return _new(a, b, p.d)


class Poly:
    __slots__ = ("n", "_c", "d")

    def __init__(self, n: int, terms=None):
        """``terms`` maps exponent tuples (length ``2n+1``) to Scalars;
        zero coefficients are dropped."""
        self.n = n
        self._c = {}
        self.d = 1
        if terms:
            items = [(_pack(n, e), c) for e, c in terms.items()
                     if not c.is_zero()]
            # over the lcm of canonical denominators the content is 1
            d = lcm(*(c.d for _, c in items))
            self._c = {k: [c.a * (d // c.d), c.b * (d // c.d)]
                       for k, c in items}
            self.d = d

    @property
    def terms(self) -> Mapping:
        """Read-only mapping: exponent tuple -> nonzero Scalar."""
        return _Terms(self)

    def __len__(self):
        """The number of terms, ``len(self.terms)`` without the view."""
        return len(self._c)

    # -- constructors ----------------------------------------------------
    @classmethod
    def zero(cls, n):
        return _poly(n, {}, 1)

    @classmethod
    def const(cls, n, c) -> "Poly":
        a, b, d = _abd(c)
        if not (a or b):
            return _poly(n, {}, 1)
        return _poly(n, {0: [a, b]}, d)

    @classmethod
    def var(cls, n, index: int, power: int = 1) -> "Poly":
        """Monomial for variable ``index`` in the (z.., zbar.., t) ordering."""
        e = [0] * (2 * n + 1)
        e[index] = power
        return _poly(n, {_pack(n, e): [1, 0]}, 1)

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
        return _poly(self.n, {k: [-a, -b] for k, (a, b) in self._c.items()},
                     self.d)

    def __sub__(self, other):
        if type(other) is not Poly and isinstance(other,
                                                  (int, Fraction, Scalar)):
            other = Poly.const(self.n, other)
        return Poly.sum(self.n, (self, -other))

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "Poly":
        x, y, e = _abd(c)
        if not (x or y) or not self._c:
            return _poly(self.n, {}, 1)
        return _scaled(self.n, self._c, x, y, self.d * e)

    def mul(self, other: "Poly", tmax: int | None = None) -> "Poly":
        """The product; with ``tmax``, exactly the product mod t^{tmax+1}.

        A constant operand scales the other operand's pairs, dropping its
        terms beyond ``tmax`` (a unit constant hands the other operand
        back, truncated), and two single-term operands make one pair;
        neither walks the pairs.  Otherwise a truncated product pairs each
        left term only with the right terms whose t-degree keeps the sum
        within ``tmax``, so the pairs beyond ``tmax`` are never visited.
        The right terms are walked in their own order either way, so the
        result holds its terms in the order the full product holds those
        of t-degree at most ``tmax``.  The numerator products accumulate
        as ints; the content is divided out once per product.
        """
        if type(other) is not Poly and isinstance(other,
                                                  (int, Fraction, Scalar)):
            return self.scale(other)
        self._check(other)
        n = self.n
        c1, c2 = self._c, other._c
        if not c1 or not c2:
            return _poly(n, {}, 1)
        if len(c2) == 1 and 0 in c2:
            return _const_mul(self, c2[0], other.d, tmax)
        if len(c1) == 1 and 0 in c1:
            return _const_mul(other, c1[0], self.d, tmax)
        acc: dict = {}
        if len(c1) == len(c2) == 1:
            [(e1, (a1, b1))] = c1.items()
            [(e2, (a2, b2))] = c2.items()
            if tmax is None or (e1 & _FIELD) + (e2 & _FIELD) <= tmax:
                acc[e1 + e2] = [a1 * a2 - b1 * b2, a1 * b2 + b1 * a2]
        else:
            right = [(k, a, b) for k, (a, b) in c2.items()]
            # left t-degree -> the right terms a left term of that degree
            # reaches
            reach = None if tmax is None else {}
            get = acc.get
            for e1, (a1, b1) in c1.items():
                row = right
                if reach is not None:
                    t1 = e1 & _FIELD
                    row = reach.get(t1)
                    if row is None:
                        row = reach[t1] = [r for r in right
                                           if t1 + (r[0] & _FIELD) <= tmax]
                for e2, a2, b2 in row:
                    e = e1 + e2
                    s = get(e)
                    if s is None:
                        acc[e] = [a1 * a2 - b1 * b2, a1 * b2 + b1 * a2]
                    else:
                        s[0] += a1 * a2 - b1 * b2
                        s[1] += a1 * b2 + b1 * a2
        if reduce(or_, acc, 0) & _layout(n)[1]:
            raise UnsupportedSceneError(
                f"a product exponent reaches the packed limit {_LIMIT}")
        return _reduce(n, acc, self.d * other.d)

    @classmethod
    def sum(cls, n, polys, weights=None) -> "Poly":
        """The sum of an iterable of polynomials in ``n`` variables, built
        in one dict over the lcm of their denominators; with ``weights``,
        a parallel iterable of ints, the sum of ``w * p``.  The terms come
        out in the order of their first appearance."""
        if weights is not None:
            return _weighted_sum(n, polys, weights)
        parts = []
        d = 1
        for p in polys:
            if p.n != n:
                raise ValueError(f"mixed model dimensions {n} != {p.n}")
            if p._c:
                parts.append(p)
                if p.d != d:
                    d = lcm(d, p.d)
        if len(parts) <= 1:
            return parts[0] if parts else _poly(n, {}, 1)
        acc = None
        for p in parts:
            f = d // p.d
            items = p._c if f == 1 else {
                k: [a * f, b * f] for k, (a, b) in p._c.items()}
            if acc is None:
                acc = dict(items)
                get = acc.get
                continue
            for k, v in items.items():
                s = get(k)
                acc[k] = v if s is None else [s[0] + v[0], s[1] + v[1]]
        return _reduce(n, acc, d)

    def __mul__(self, other):
        return self.mul(other)

    __rmul__ = __mul__

    # -- calculus --------------------------------------------------------
    def derivative(self, index: int) -> "Poly":
        n = self.n
        s = _layout(n)[0][index]
        one = 1 << s
        acc = {}
        for k, (a, b) in self._c.items():
            m = (k >> s) & _FIELD
            if m:
                acc[k - one] = [a * m, b * m]
        return _reduce(n, acc, self.d)

    def d_z(self, i):
        return self.derivative(i)

    def d_zbar(self, i):
        return self.derivative(self.n + i)

    def d_t(self):
        return self.derivative(2 * self.n)

    def conj(self) -> "Poly":
        """Swap z and zbar blocks, conjugate coefficients; t is fixed."""
        n = self.n
        hi = _BITS * (n + 1)          # shift of the z block
        block = (1 << (_BITS * n)) - 1
        return _poly(n, {((k >> _BITS) & block) << hi
                         | (k >> hi) << _BITS | (k & _FIELD): [a, -b]
                         for k, (a, b) in self._c.items()}, self.d)

    # -- t-series helpers ------------------------------------------------
    def t_coefficient(self, k: int) -> "Poly":
        """The coefficient of t**k, returned t-free."""
        return _reduce(self.n, {e - k: v for e, v in self._c.items()
                                if e & _FIELD == k}, self.d)

    def t_truncate(self, tmax: int | None) -> "Poly":
        """The terms of t-degree at most ``tmax``; ``self`` for None."""
        if tmax is None:
            return self
        c = self._c
        keep = {e: v for e, v in c.items() if e & _FIELD <= tmax}
        if len(keep) == len(c):
            return self
        return _reduce(self.n, keep, self.d)

    def t_degree(self) -> int:
        return max((e & _FIELD for e in self._c), default=-1)

    def t_valuation(self) -> int:
        """Smallest t-power with a nonzero coefficient; -1 for the zero
        polynomial."""
        return min((e & _FIELD for e in self._c), default=-1)

    def t_shift_down(self, k: int) -> "Poly":
        """Divide by t^k; every term must carry at least t^k."""
        if k == 0:
            return self
        if self._c and self.t_valuation() < k:
            raise ArithmeticError("t-order too low for shift")
        return _poly(self.n, {e - k: v for e, v in self._c.items()}, self.d)

    def lift_parameter(self) -> "Poly":
        """Reread a t-series over C^n over C^{n+1}, with the parameter as
        the new last holomorphic coordinate s: t^k becomes t^k s^k.

        t then counts the total (s, sbar) degree, and keeps doing so under
        products and conjugation, so a ``tmax`` truncation is a cut in that
        degree.  A derivative in s or sbar lowers the degree by one; follow
        it with ``t_shift_down(1)``.
        """
        n = self.n
        zb = (1 << (_BITS * n)) - 1
        hi = _BITS * (n + 1)
        # (z.., zbar.., t) -> (z.., s = t, zbar.., sbar = 0, t)
        return _poly(n + 1, {
            (e >> hi) << (hi + 2 * _BITS)
            | (e & _FIELD) << (hi + _BITS)
            | ((e >> _BITS) & zb) << (2 * _BITS)
            | (e & _FIELD): v for e, v in self._c.items()}, self.d)

    def substitute_t(self, value) -> "Poly":
        """Set t to ``value``: t^j becomes ``value ** j``, in one pass over
        the terms, over the common denominator of those powers."""
        m = self.t_degree()
        if m <= 0:
            return self
        value = _coerce(value)
        pw = [value ** j for j in range(m + 1)]
        den = lcm(*(p.d for p in pw))
        pw = [(p.a * (den // p.d), p.b * (den // p.d)) for p in pw]
        acc: dict = {}
        get = acc.get
        for e, (a, b) in self._c.items():
            u, v = pw[e & _FIELD]
            k = e & ~_FIELD
            s = get(k)
            if s is None:
                acc[k] = [a * u - b * v, a * v + b * u]
            else:
                s[0] += a * u - b * v
                s[1] += a * v + b * u
        return _reduce(self.n, acc, self.d * den)

    def divexact(self, den: "Poly") -> "Poly":
        """Exact polynomial division: the quotient q with q * den == self.

        Works over the field Q(i) with lex order on exponent tuples; raises
        ArithmeticError when ``den`` does not divide ``self`` exactly.
        """
        self._check(den)
        if not den._c:
            raise ZeroDivisionError("division by the zero polynomial")
        n = self.n
        if not self._c:
            return _poly(n, {}, 1)
        guard = _layout(n)[1]
        # remainder and divisor with Scalar coefficients, keys packed
        dd = den.d
        lead_d = max(den._c)
        dterms = [(k, _new(a, b, dd)) for k, (a, b) in den._c.items()
                  if k != lead_d]
        inv = _new(*den._c[lead_d], dd).inverse()
        rem = {k: _new(a, b, self.d) for k, (a, b) in self._c.items()}
        quot = {}
        while rem:
            lead_n = max(rem)
            # field-wise lead_n - lead_d: a field that borrows clears
            # its guard bit
            e = (lead_n | guard) - lead_d
            if e & guard != guard:
                raise ArithmeticError("inexact polynomial division")
            e ^= guard
            q = rem.pop(lead_n) * inv
            quot[e] = q
            for k, c in dterms:
                k += e
                s = rem.get(k)
                s = -(q * c) if s is None else s - q * c
                if s.is_zero():
                    del rem[k]
                else:
                    rem[k] = s
        d = lcm(*(c.d for c in quot.values()))
        return _poly(n, {k: [c.a * (d // c.d), c.b * (d // c.d)]
                         for k, c in quot.items()}, d)

    # -- evaluation ------------------------------------------------------
    def eval(self, point) -> Scalar:
        """Evaluate at a point: z_i -> point.z[i], zbar_i -> conj, t -> point.t."""
        c = self._c
        if not c:
            return ZERO
        if len(c) == 1 and 0 in c:
            return _new(*c[0], self.d)
        n = self.n
        shifts = _layout(n)[0]
        exps = [[(k >> s) & _FIELD for s in shifts] for k in c]
        # over the common denominator d * prod q_v^m_v, with m_v the top
        # degree of field v, field v at degree j contributes
        # w_v^j q_v^(m_v - j) for the value w_v / q_v; a field of degree
        # 0 everywhere (a zbar with no term, say) is never computed
        den = self.d
        tables = []
        for v, m in enumerate(map(max, zip(*exps))):
            if not m:
                continue
            if v < n:
                z = point.z[v]
                x, y, q = z.a, z.b, z.d
            elif v < 2 * n:
                z = point.z[v - n]
                x, y, q = z.a, -z.b, z.d
            else:
                x, y, q = point.t.a, point.t.b, point.t.d
            den *= q ** m
            pw = [(q ** m, 0)]
            for _ in range(m):
                u, w = pw[-1]
                pw.append(((u * x - w * y) // q, (u * y + w * x) // q))
            tables.append((v, pw))
        A = B = 0
        for (a, b), ex in zip(c.values(), exps):
            for v, pw in tables:
                u, w = pw[ex[v]]
                a, b = a * u - b * w, a * w + b * u
            A += a
            B += b
        return _new(A, B, den)

    # -- degrees and predicates -----------------------------------------
    def zbar_degree_split(self):
        """Split into pieces homogeneous in total zbar-degree: {m: Poly}."""
        n = self.n
        shifts = _layout(n)[0][n:2 * n]
        parts: dict[int, dict] = {}
        for k, v in self._c.items():
            m = sum((k >> s) & _FIELD for s in shifts)
            parts.setdefault(m, {})[k] = v
        return {m: _reduce(n, part, self.d) for m, part in parts.items()}

    def is_zero(self) -> bool:
        return not self._c

    def is_constant(self) -> bool:
        c = self._c
        return not c or (len(c) == 1 and 0 in c)

    def is_t_only(self) -> bool:
        """Whether every monomial is a power of t, so that each
        ``t_coefficient(k)`` is constant."""
        return all(e <= _FIELD for e in self._c)

    def constant_value(self) -> Scalar:
        c = self._c
        if not c:
            return ZERO
        if len(c) != 1 or 0 not in c:
            raise ValueError("not a constant polynomial")
        return _new(*c[0], self.d)

    def constant_term(self) -> Scalar:
        """The coefficient of the monomial 1, which is the value at the
        origin z = 0, t = 0: one dict lookup, no evaluation."""
        ab = self._c.get(0)
        return ZERO if ab is None else _new(*ab, self.d)

    def __bool__(self):
        return bool(self._c)

    def __eq__(self, other):
        if type(other) is not Poly:
            if not isinstance(other, (int, Fraction, Scalar)):
                return NotImplemented
            other = Poly.const(self.n, other)
        # constants compare by value across rings, as they hash
        return (self.d == other.d and self._c == other._c
                and (self.n == other.n or self.is_constant()))

    def __hash__(self):
        # a constant equals its value, so it hashes like that Scalar
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.n, self.d,
                     frozenset((k, a, b) for k, (a, b) in self._c.items())))

    # -- rendering -------------------------------------------------------
    def render(self) -> str:
        if not self._c:
            return "0"
        n = self.n
        names = [f"z{i+1}" for i in range(n)] + [f"zb{i+1}" for i in range(n)] + ["t"]
        bits = []
        d = self.d
        for e, (a, b) in sorted(((_unpack(n, k), ab)
                                 for k, ab in self._c.items()),
                                key=lambda t: (sum(t[0]), t[0])):
            c = _new(a, b, d)
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
