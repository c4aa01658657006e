"""Polynomial ring in z, zbar, t over exact Gaussian rationals."""
import random
from fractions import Fraction
from math import gcd
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

from gkdirac.errors import GkdError, UnsupportedSceneError
from gkdirac.linalg import mat_div_right
from gkdirac.model import Model, Point
from gkdirac.poly import Poly
from gkdirac.scalars import ONE, ZERO, Scalar, sc


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


# ---------------------------------------------------------------------------
# The former kernel, kept as the reference of the differential tests
# ---------------------------------------------------------------------------

class _PolyReference:
    """The former ``Poly``: exponent tuples mapped to Scalar coefficients,
    one dict entry per term.  The differential tests below check the
    packed kernel against it, operation by operation."""

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
    def const(cls, n, c) -> "_PolyReference":
        if isinstance(c, (int, Fraction)):
            c = Scalar(c)
        p = cls(n)
        if not c.is_zero():
            p.terms[(0,) * (2 * n + 1)] = c
        return p

    @classmethod
    def var(cls, n, index: int, power: int = 1) -> "_PolyReference":
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
    def _check(self, other: "_PolyReference"):
        if self.n != other.n:
            raise ValueError(f"mixed model dimensions {self.n} != {other.n}")

    def __add__(self, other):
        # Fraction is an ABC, so the isinstance test is the slow path
        if type(other) is not _PolyReference and isinstance(other,
                                                  (int, Fraction, Scalar)):
            other = _PolyReference.const(self.n, other)
        return _PolyReference.sum(self.n, (self, other))

    __radd__ = __add__

    def __neg__(self):
        p = _PolyReference(self.n)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other):
        if type(other) is not _PolyReference and isinstance(other,
                                                  (int, Fraction, Scalar)):
            other = _PolyReference.const(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c: Scalar) -> "_PolyReference":
        if isinstance(c, (int, Fraction)):
            c = Scalar(c)
        if c.is_zero():
            return _PolyReference(self.n)
        p = _PolyReference(self.n)
        p.terms = {e: c * v for e, v in self.terms.items()}
        return p

    def mul(self, other: "_PolyReference", tmax: int | None = None) -> "_PolyReference":
        """The product; with ``tmax``, exactly the product mod t^{tmax+1}.

        A truncated product pairs each left term only with the right terms
        whose t-degree keeps the sum within ``tmax``, so the pairs beyond
        ``tmax`` are never visited.  The right terms are walked in their
        own order either way, so the result holds its terms in the order
        the full product holds those of t-degree at most ``tmax``.
        """
        if type(other) is not _PolyReference and isinstance(other,
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
        p = _PolyReference(self.n)
        p.terms = out
        return p

    @classmethod
    def sum(cls, n, polys) -> "_PolyReference":
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
    def derivative(self, index: int) -> "_PolyReference":
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
        p = _PolyReference(self.n)
        p.terms = out
        return p

    def d_z(self, i):
        return self.derivative(i)

    def d_zbar(self, i):
        return self.derivative(self.n + i)

    def d_t(self):
        return self.derivative(2 * self.n)

    def conj(self) -> "_PolyReference":
        """Swap z and zbar blocks, conjugate coefficients; t is fixed."""
        n = self.n
        out = {}
        for e, c in self.terms.items():
            e2 = e[n:2 * n] + e[:n] + (e[2 * n],)
            out[e2] = c.conj()
        p = _PolyReference(n)
        p.terms = out
        return p

    # -- t-series helpers ------------------------------------------------
    def t_coefficient(self, k: int) -> "_PolyReference":
        """The coefficient of t**k, returned t-free."""
        ti = 2 * self.n
        out = {}
        for e, c in self.terms.items():
            if e[ti] == k:
                out[e[:ti] + (0,)] = c
        p = _PolyReference(self.n)
        p.terms = out
        return p

    def t_truncate(self, tmax: int) -> "_PolyReference":
        ti = 2 * self.n
        p = _PolyReference(self.n)
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

    def t_shift_down(self, k: int) -> "_PolyReference":
        """Divide by t^k; every term must carry at least t^k."""
        if k == 0:
            return self
        ti = 2 * self.n
        out = _PolyReference(self.n)
        for e, c in self.terms.items():
            if e[ti] < k:
                raise ArithmeticError("t-order too low for shift")
            out.terms[e[:ti] + (e[ti] - k,)] = c
        return out

    def lift_parameter(self) -> "_PolyReference":
        """Reread a t-series over C^n over C^{n+1}, with the parameter as
        the new last holomorphic coordinate s: t^k becomes t^k s^k.

        t then counts the total (s, sbar) degree, and keeps doing so under
        products and conjugation, so a ``tmax`` truncation is a cut in that
        degree.  A derivative in s or sbar lowers the degree by one; follow
        it with ``t_shift_down(1)``.
        """
        n = self.n
        p = _PolyReference(n + 1)
        p.terms = {e[:n] + (e[2 * n],) + e[n:2 * n] + (0, e[2 * n]): c
                   for e, c in self.terms.items()}
        return p

    def substitute_t(self, value: Scalar) -> "_PolyReference":
        ti = 2 * self.n
        out = _PolyReference(self.n)
        for e, c in self.terms.items():
            piece = _PolyReference(self.n, {e[:ti] + (0,): c * (value ** e[ti])})
            out = out + piece
        return out

    def divexact(self, den: "_PolyReference") -> "_PolyReference":
        """Exact polynomial division: the quotient q with q * den == self.

        Works over the field Q(i) with lex order on exponent tuples; raises
        ArithmeticError when ``den`` does not divide ``self`` exactly.
        """
        self._check(den)
        if not den.terms:
            raise ZeroDivisionError("division by the zero polynomial")
        num = _PolyReference(self.n)
        num.terms = dict(self.terms)
        quot = _PolyReference(self.n)
        lead_d = max(den.terms)
        cd = den.terms[lead_d]
        while num.terms:
            lead_n = max(num.terms)
            e = tuple(a - b for a, b in zip(lead_n, lead_d))
            if any(x < 0 for x in e):
                raise ArithmeticError("inexact polynomial division")
            term = _PolyReference(self.n, {e: num.terms[lead_n] / cd})
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
        """Split into pieces homogeneous in total zbar-degree: {m: _PolyReference}."""
        n = self.n
        out: dict[int, _PolyReference] = {}
        for e, c in self.terms.items():
            m = sum(e[n:2 * n])
            out.setdefault(m, _PolyReference(n)).terms[e] = c
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
        if type(other) is _PolyReference:
            return self.n == other.n and self.terms == other.terms
        if isinstance(other, (int, Fraction, Scalar)):
            other = _PolyReference.const(self.n, other)
        if not isinstance(other, _PolyReference):
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
        return f"_PolyReference<{self.render()}>"


# ---------------------------------------------------------------------------
# Differential tests: the packed kernel against the former one
# ---------------------------------------------------------------------------

def _canonical(p):
    """The storage invariants: d > 0, no zero numerator, content 1."""
    assert type(p) is Poly
    assert p.d > 0
    assert all(a or b for a, b in p._c.values())
    assert gcd(p.d, *(x for ab in p._c.values() for x in ab)) == 1
    if not p._c:
        assert p.d == 1
    return p


def _same(p, r):
    """The kernel's ``p`` holds the reference's ``r``."""
    _canonical(p)
    assert p.n == r.n
    assert len(p) == len(p.terms) == len(r.terms)
    assert dict(p.terms.items()) == r.terms
    assert sorted(p.terms) == sorted(r.terms)
    assert sorted(p.terms.values(), key=repr) == \
        sorted(r.terms.values(), key=repr)
    assert p.render() == r.render()
    assert p.is_zero() == (not r.terms) and bool(p) == bool(r)
    assert p.is_constant() == r.is_constant()
    if r.is_constant():
        assert p.constant_value() == r.constant_value()
    assert p.t_degree() == r.t_degree()
    assert p.t_valuation() == r.t_valuation()


wide_coeffs = st.builds(
    lambda a, b, d: Scalar(Fraction(a, d), Fraction(b, d)),
    st.integers(-40, 40), st.integers(-40, 40),
    st.sampled_from([1, 2, 3, 4, 6, 12, 35]),
).filter(lambda c: not c.is_zero())


@st.composite
def poly_pairs(draw, n=None, max_size=5):
    """A kernel Poly and the reference holding the same terms."""
    if n is None:
        n = draw(st.integers(1, 2))
    exps = st.tuples(*[st.integers(0, 2)] * (2 * n), st.integers(0, 4))
    terms = draw(st.dictionaries(exps, wide_coeffs, max_size=max_size))
    p, r = Poly(n, terms), _PolyReference(n, terms)
    _same(p, r)
    return p, r


multipliers = st.one_of(
    wide_coeffs, st.integers(-6, 6),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
    st.just(ZERO))


@given(st.integers(1, 2).flatmap(
    lambda n: st.tuples(*[poly_pairs(n)] * 3)),
    st.integers(0, 8), multipliers)
def test_kernel_ring_ops_match_reference(pairs, k, c):
    (a, ra), (b, rb), (x, rx) = pairs
    n = a.n
    _same(a.mul(b), ra.mul(rb))
    _same(a * b, ra * rb)
    _same(a.mul(b, tmax=k), ra.mul(rb, tmax=k))
    assert list(a.mul(b, tmax=k).terms) == \
        [e for e in (a * b).terms if e[-1] <= k]
    _same(Poly.sum(n, [a, b, x]), _PolyReference.sum(n, [ra, rb, rx]))
    _same(Poly.sum(n, []), _PolyReference.sum(n, []))
    _same(a + b, ra + rb)
    _same(a - b, ra - rb)
    _same(a - a, ra - ra)
    _same(-a, -ra)
    _same(a.scale(c), ra.scale(c))
    _same(a * c, ra * c)
    _same(a + c, ra + c)
    _same(a.__rsub__(c), ra.__rsub__(c))
    # equality and hashing agree with the reference's equality
    for p, rp in ((a, ra), (b, rb), (a + b - b, ra)):
        for q, rq in ((a, ra), (b, rb), (x, rx)):
            assert (p == q) == (rp == rq)
            if p == q:
                assert hash(p) == hash(q)
    for s in (0, 1, c):
        assert (a == s) == (ra == s)
    # polynomials share stored pairs, so no operation may write to one
    for p, rp in pairs:
        _same(p, rp)


def test_a_constant_poly_hashes_like_its_value():
    # a constant Poly equals its value, so a set or a dict must see one key
    assert Poly.const(2, 3) == 3
    assert len({Poly.const(2, 3), 3}) == 1
    assert len({Poly.zero(2), 0, ZERO, Fraction(0)}) == 1
    assert {Fraction(1, 2): "v"}[Poly.const(1, Fraction(1, 2))] == "v"
    assert {sc(1, -2): "v"}[Poly.const(2, sc(1, -2))] == "v"


@given(st.integers(1, 2).flatmap(poly_pairs), multipliers)
def test_equal_values_hash_alike(pair, c):
    p, _ = pair
    n = p.n
    value = c if isinstance(c, Scalar) else Scalar(c)
    candidates = [c, value, Poly.const(n, c), Poly.const(n, value) + p - p,
                  p, p + c - c]
    if p.is_constant():
        candidates.append(p.constant_value())
    for x in candidates:
        for y in candidates:
            if x == y:
                assert hash(x) == hash(y), (x, y)


@given(poly_pairs(), st.integers(0, 5))
def test_kernel_calculus_and_series_match_reference(pair, k):
    a, ra = pair
    n = a.n
    for i in range(2 * n + 1):
        _same(a.derivative(i), ra.derivative(i))
    _same(a.d_z(0), ra.d_z(0))
    _same(a.d_zbar(n - 1), ra.d_zbar(n - 1))
    _same(a.d_t(), ra.d_t())
    _same(a.conj(), ra.conj())
    _same(a.conj().conj(), ra)
    _same(a.t_coefficient(k), ra.t_coefficient(k))
    _same(a.t_truncate(k), ra.t_truncate(k))
    try:
        want = ra.t_shift_down(k)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            a.t_shift_down(k)
    else:
        _same(a.t_shift_down(k), want)
    _same(a.lift_parameter(), ra.lift_parameter())
    _same(a.lift_parameter().conj(), ra.lift_parameter().conj())
    got, want = a.zbar_degree_split(), ra.zbar_degree_split()
    assert sorted(got) == sorted(want)
    for m in want:
        _same(got[m], want[m])
    _same(a, ra)


@given(poly_pairs(), st.one_of(wide_coeffs, st.just(ZERO),
                               st.integers(-3, 3),
                               st.fractions(-3, 3, max_denominator=5)))
def test_kernel_substitute_t_matches_reference(pair, value):
    a, ra = pair
    v = value if isinstance(value, Scalar) else Scalar(value)
    _same(a.substitute_t(value), ra.substitute_t(v))


@given(st.integers(1, 2).flatmap(
    lambda n: st.tuples(*[poly_pairs(n, max_size=3)] * 2)))
def test_kernel_divexact_matches_reference(pairs):
    (a, ra), (b, rb) = pairs
    if not b:
        with pytest.raises(ZeroDivisionError):
            a.divexact(b)
        return
    # the exact case: a product divided by one of its factors
    _same((a * b).divexact(b), (ra * rb).divexact(rb))
    _same((a * b).divexact(b), ra)
    # the general case, most often inexact
    try:
        want = ra.divexact(rb)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            a.divexact(b)
    else:
        _same(a.divexact(b), want)


points = st.builds(
    lambda zs, t: Point(zs, t),
    st.lists(st.one_of(coeffs, st.just(ZERO)), min_size=2, max_size=2),
    st.one_of(st.just(ZERO), st.builds(
        lambda a, d: Scalar(Fraction(a, d)), st.integers(-5, 5),
        st.integers(1, 4))))


@given(poly_pairs(n=2, max_size=6), points)
@example((Poly.zero(2), _PolyReference.zero(2)), Point([sc(1), sc(2)]))
@example((Poly.const(2, sc(Fraction(3, 4), -1)),
          _PolyReference.const(2, sc(Fraction(3, 4), -1))),
         Point([sc(1), sc(2)]))
def test_kernel_eval_matches_reference(pair, pt):
    a, ra = pair
    got = a.eval(pt)
    assert type(got) is Scalar
    assert got == ra.eval(pt)
    assert (got.a, got.b, got.d) == (ra.eval(pt).a, ra.eval(pt).b,
                                     ra.eval(pt).d)


def test_kernel_constructors_match_reference():
    for n in (1, 2, 3):
        for i in range(2 * n + 1):
            for k in (0, 1, 3):
                _same(Poly.var(n, i, k), _PolyReference.var(n, i, k))
        _same(Poly.t(n, 2), _PolyReference.t(n, 2))
        _same(Poly.z(n, 0), _PolyReference.z(n, 0))
        _same(Poly.zbar(n, n - 1), _PolyReference.zbar(n, n - 1))
        for c in (0, 3, Fraction(-2, 6), sc(Fraction(1, 2), 3), ZERO):
            _same(Poly.const(n, c), _PolyReference.const(n, c))
    # a terms view rebuilds the same polynomial
    p = Poly(2, {(1, 0, 0, 2, 1): sc(Fraction(1, 6), 2),
                 (0, 0, 0, 0, 0): sc(Fraction(-3, 4)), (0, 1, 0, 0, 3): ZERO})
    assert Poly(2, p.terms) == p and len(p.terms) == 2
    assert p.terms[(1, 0, 0, 2, 1)] == sc(Fraction(1, 6), 2)
    assert (0, 1, 0, 0, 3) not in p.terms
    with pytest.raises(KeyError):
        p.terms[(1, 0)]
    with pytest.raises(ValueError):
        Poly(2, {(1, 0): ONE})


# ---------------------------------------------------------------------------
# The exponent guard
# ---------------------------------------------------------------------------

def test_exponent_guard_in_constructors():
    for n in (1, 2):
        for i in range(2 * n + 1):
            e = [0] * (2 * n + 1)
            e[i] = 2 ** 15
            with pytest.raises(UnsupportedSceneError):
                Poly(n, {tuple(e): ONE})
            e[i] = -1
            with pytest.raises(UnsupportedSceneError):
                Poly(n, {tuple(e): ONE})
            with pytest.raises(UnsupportedSceneError):
                Poly.var(n, i, 2 ** 15)
            top = Poly.var(n, i, 2 ** 15 - 1)
            assert list(top.terms) == [tuple(2 ** 15 - 1 if j == i else 0
                                             for j in range(2 * n + 1))]
        with pytest.raises(UnsupportedSceneError):
            Poly.t(n, 2 ** 15)
        with pytest.raises(UnsupportedSceneError):
            Poly.t(n, 2 ** 16 + 1)


def test_exponent_guard_in_products():
    for n in (1, 2):
        for i in range(2 * n + 1):
            half = Poly.var(n, i, 2 ** 14)
            with pytest.raises(UnsupportedSceneError):
                half * half
            with pytest.raises(UnsupportedSceneError):
                Poly.var(n, i, 2 ** 15 - 1) * Poly.var(n, i)
            # the largest legal exponent leaves the other fields alone
            square = Poly.var(n, i, 2 ** 14 - 1) * Poly.var(n, i, 2 ** 14)
            e = [0] * (2 * n + 1)
            e[i] = 2 ** 15 - 1
            assert list(square.terms) == [tuple(e)]
            if i + 1 < 2 * n + 1:
                mixed = square * Poly.var(n, i + 1)
                e[i + 1] = 1
                assert list(mixed.terms) == [tuple(e)]
    # a truncated product never forms the pairs beyond tmax
    big_t = Poly.t(2, 2 ** 14)
    assert big_t.mul(big_t, tmax=3).is_zero()
    with pytest.raises(UnsupportedSceneError):
        big_t.mul(big_t, tmax=2 ** 15)
