"""Exact linear algebra: RREF facts, certificates, Sturm isolation."""
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from gkdirac import linalg
from gkdirac.errors import (CertificateError, SingularityError,
                            UnsupportedSceneError)
from gkdirac.linalg import (
    Span,
    _pivot_block,
    _sign_changes,
    count_real_roots,
    generic_rank,
    kernel_certificate,
    mat_apply,
    mat_div_right,
    mat_eval,
    mat_identity,
    mat_is_zero,
    mat_mul,
    mat_sub,
    mat_t_truncate,
    poly_adjugate,
    poly_det,
    poly_mat_inverse,
    real_roots_in_interval,
    scalar_det,
    scalar_inverse,
    scalar_kernel,
    scalar_rank,
    scalar_rref,
    scalar_solve,
    span_certificate,
    sturm_chain,
)
from gkdirac.model import Model, Point
from gkdirac.poly import Poly
from gkdirac.scalars import Scalar, ZERO, ONE, sc


M = Model(2)


def rand_scalar(rng):
    return Scalar(Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)),
                  Fraction(rng.randrange(-5, 6), rng.randrange(1, 4)))


def rand_smat(rng, rows, cols):
    return [[rand_scalar(rng) for _ in range(cols)] for _ in range(rows)]


def test_rref_rank_kernel_consistency():
    rng = random.Random(201)
    for _ in range(20):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        A = rand_smat(rng, rows, cols)
        r = scalar_rank(A)
        ker = scalar_kernel(A)
        assert r + len(ker) == cols
        for v in ker:
            out = [sum((a * x for a, x in zip(row, v)), ZERO) for row in A]
            assert all(not o for o in out)


small_scalars = st.builds(
    lambda a, b, d: Scalar(Fraction(a, d), Fraction(b, d)),
    st.sampled_from([0, 0, 0, 1, -1, 2, -3]), st.sampled_from([0, 0, 1, -2]),
    st.integers(1, 3))


@st.composite
def scalar_matrices(draw, square=False):
    """Matrices up to 5 x 5, dense, sparse, zero or of low rank (a product
    of an r x k and a k x c factor)."""
    r = draw(st.integers(0, 5))
    c = r if square else draw(st.integers(0, 5))
    if draw(st.booleans()):
        return draw(st.lists(st.lists(small_scalars, min_size=c, max_size=c),
                             min_size=r, max_size=r))
    k = draw(st.integers(0, 3))
    U = draw(st.lists(st.lists(small_scalars, min_size=k, max_size=k),
                      min_size=r, max_size=r))
    V = draw(st.lists(st.lists(small_scalars, min_size=c, max_size=c),
                      min_size=k, max_size=k))
    return [[sum((U[i][m] * V[m][j] for m in range(k)), ZERO)
             for j in range(c)] for i in range(r)]


@given(scalar_matrices())
@example([])
@example([[], []])
@example([[ZERO] * 3] * 2)
@example([[ONE, sc(2)], [sc(2), sc(4)], [sc(0, 1), sc(0, 2)]])
def test_scalar_rank_is_the_rref_pivot_count(A):
    assert scalar_rank(A) == len(scalar_rref(A)[1])
    # the rank of the transpose is the same
    if A and A[0]:
        assert scalar_rank([list(r) for r in zip(*A)]) == scalar_rank(A)


def test_solve_roundtrip():
    rng = random.Random(203)
    for _ in range(20):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        A = rand_smat(rng, rows, cols)
        x = [rand_scalar(rng) for _ in range(cols)]
        b = [sum((a * v for a, v in zip(row, x)), ZERO) for row in A]
        got = scalar_solve(A, b)
        assert got is not None
        chk = [sum((a * v for a, v in zip(row, got)), ZERO) for row in A]
        assert chk == b


def test_solve_detects_inconsistency():
    A = [[ONE, ONE], [ONE, ONE]]
    b = [ONE, ZERO]
    assert scalar_solve(A, b) is None


def test_inverse_and_det():
    rng = random.Random(207)
    hits = 0
    while hits < 10:
        n = rng.randrange(1, 5)
        A = rand_smat(rng, n, n)
        d = scalar_det(A)
        if not d:
            with pytest.raises(ZeroDivisionError):
                scalar_inverse(A)
            continue
        hits += 1
        Ainv = scalar_inverse(A)
        prod = [[sum((a * b for a, b in zip(row, col)), ZERO)
                 for col in zip(*Ainv)] for row in A]
        for i in range(n):
            for j in range(n):
                assert prod[i][j] == (ONE if i == j else ZERO)


def test_det_multiplicative():
    rng = random.Random(211)
    for _ in range(10):
        n = rng.randrange(1, 4)
        A = rand_smat(rng, n, n)
        B = rand_smat(rng, n, n)
        AB = [[sum((a * b for a, b in zip(rowA, colB)), ZERO)
               for colB in zip(*B)] for rowA in A]
        assert scalar_det(AB) == scalar_det(A) * scalar_det(B)


def _scalar_det_reference(rows):
    """The former determinant: its own Gaussian elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    det = ONE
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            return ZERO
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det = det * m[c][c]
        inv = m[c][c].inverse()
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


@given(scalar_matrices(square=True))
@example([])
@example([[ONE, sc(2)], [sc(2), sc(4)]])
@example([[ZERO, ONE], [sc(0, 1), sc(3)]])
@example([[ZERO, ZERO, ONE], [ZERO, sc(2), ZERO], [sc(0, 1), ZERO, ZERO]])
@example([[ZERO, ONE, ZERO], [ZERO, ZERO, ONE], [sc(3), ZERO, ZERO]])
def test_scalar_det_matches_its_own_elimination(A):
    # empty, singular, and row swaps of odd and of even parity
    assert scalar_det(A) == _scalar_det_reference(A)


def rand_poly(rng, model, nterms=2, maxdeg=1, with_t=False):
    n = model.n
    p = model.zero_poly()
    for _ in range(nterms):
        term = model.poly(Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)))
        for i in range(n):
            for _ in range(rng.randrange(0, maxdeg + 1)):
                term = term * model.z(i)
        if with_t and rng.random() < 0.5:
            term = term * model.t()
        p = p + term
    return p


def test_poly_det_vs_eval():
    rng = random.Random(213)
    for _ in range(8):
        size = rng.randrange(1, 4)
        A = [[rand_poly(rng, M) for _ in range(size)] for _ in range(size)]
        d = poly_det(A)
        for pt in M.sample_points(rng, 3):
            assert d.eval(pt) == scalar_det(mat_eval(A, pt))


def test_poly_mat_inverse_series():
    rng = random.Random(217)
    for _ in range(6):
        size = rng.randrange(1, 4)
        base = rand_smat(rng, size, size)
        if not scalar_det(base):
            continue
        A = [[Poly.const(M.n, base[i][j]) +
              rand_poly(rng, M).mul(M.t())
              for j in range(size)] for i in range(size)]
        inv = poly_mat_inverse(A, 5)
        err = mat_sub(mat_t_truncate(mat_mul(A, inv, tmax=5), 5),
                      mat_identity(size, M.n))
        assert mat_is_zero(err)


def test_poly_mat_inverse_rejects_z_dependent_pivot():
    A = [[M.z(0), M.poly(0)], [M.poly(0), M.poly(1)]]
    with pytest.raises(UnsupportedSceneError,
                       match="t-degree-0 block is not constant"):
        poly_mat_inverse(A, 3)
    # a singular t^0 block, constant or not, is a SingularityError
    for extra in (M.poly(0), M.t()):
        A = [[M.poly(1) + extra, M.poly(2)], [M.poly(2), M.poly(4)]]
        with pytest.raises(SingularityError, match="matrix is singular"):
            poly_mat_inverse(A, 3)


def _poly_mat_inverse_reference(A, tmax):
    """The former iteration: tmax + 1 Neumann passes, each kept to the full
    order tmax."""
    size, n = len(A), A[0][0].n
    A0 = [[a.t_coefficient(0).constant_value() for a in row] for row in A]
    A0inv = [[Poly.const(n, c) for c in row] for row in scalar_inverse(A0)]
    R = mat_sub(A, [[Poly.const(n, c) for c in row] for row in A0])
    N = mat_mul(A0inv, R, tmax=tmax)
    X = mat_identity(size, n)
    for _ in range(tmax + 1):
        X = mat_sub(mat_identity(size, n), mat_mul(N, X, tmax=tmax))
    return mat_mul(X, A0inv, tmax=tmax)


def test_poly_mat_inverse_matches_full_order_passes():
    rng = random.Random(229)
    M1 = Model(1)
    t2 = M1.t().mul(M1.t())
    for size in range(1, 5):
        for tmax in range(7):
            base = rand_smat(rng, size, size)
            while not scalar_det(base):
                base = rand_smat(rng, size, size)
            # t-degrees 1 and 2, so N has terms past t^1
            A = [[Poly.const(M1.n, base[i][j])
                  + rand_poly(rng, M1, nterms=1).mul(M1.t())
                  + rand_poly(rng, M1, nterms=1, maxdeg=0).mul(t2)
                  for j in range(size)] for i in range(size)]
            assert poly_mat_inverse(A, tmax) == \
                _poly_mat_inverse_reference(A, tmax)
    # a z-dependent t^0 block is still refused, at every order
    A = [[M.poly(1) + M.z(0), M.t()], [M.t(), M.poly(1)]]
    for tmax in range(7):
        with pytest.raises(UnsupportedSceneError):
            poly_mat_inverse(A, tmax)


def test_generic_rank():
    rng = random.Random(219)
    # rank drops only at z1 = 0
    A = [[M.z(0), M.zero_poly()], [M.zero_poly(), M.poly(1)]]
    assert generic_rank(A, M, rng) == 2


def test_span_certificate_positive():
    rng = random.Random(223)
    g1 = [M.z(0), M.poly(1), M.zero_poly()]
    g2 = [M.zero_poly(), M.z(1), M.poly(1)]
    # w = z2*g1 + 3*g2
    w = [M.z(0) * M.z(1),
         M.z(1) * M.poly(1) + M.poly(3) * M.z(1),
         M.poly(3)]
    ok, cert = span_certificate(Span([g1, g2], M), w, rng)
    assert ok
    den, nums = cert
    # exact identity: den*w == nums[0]*g1 + nums[1]*g2
    for i in range(3):
        assert den * w[i] == nums[0] * g1[i] + nums[1] * g2[i]


def test_span_certificate_negative():
    rng = random.Random(227)
    g1 = [M.poly(1), M.zero_poly()]
    w = [M.zero_poly(), M.poly(1)]
    ok, witness = span_certificate(Span([g1], M), w, rng)
    assert not ok


def test_kernel_certificate():
    rng = random.Random(229)
    # A = [z1, z2] has kernel spanned by (z2, -z1)
    A = [[M.z(0), M.z(1)]]
    basis = kernel_certificate(A, M, rng)
    assert len(basis) == 1
    v = basis[0]
    out = mat_apply(A, v)
    assert all(not x for x in out)
    assert any(x for x in v)


def test_sturm_counting():
    # (x-1)(x-2)(x+3) = x^3 - 7x + 6
    coeffs = [Fraction(6), Fraction(-7), Fraction(0), Fraction(1)]
    assert count_real_roots(coeffs, Fraction(0), Fraction(5)) == 2
    assert count_real_roots(coeffs, Fraction(-5), Fraction(5)) == 3
    assert count_real_roots(coeffs, Fraction(3), Fraction(5)) == 0


def test_sturm_isolation():
    coeffs = [Fraction(6), Fraction(-7), Fraction(0), Fraction(1)]
    ivs = real_roots_in_interval(coeffs, Fraction(0), Fraction(5))
    assert len(ivs) == 2
    for (lo, hi), root in zip(ivs, (Fraction(1), Fraction(2))):
        assert lo < root <= hi


def test_sturm_repeated_root():
    # (x-1)^2: Sturm counts distinct roots
    coeffs = [Fraction(1), Fraction(-2), Fraction(1)]
    assert count_real_roots(coeffs, Fraction(0), Fraction(2)) == 1


# x^2 (x^2 + 1): one real root, double, at 0, where every member of the
# undivided chain vanishes
_DOUBLE_ROOT_AT_ZERO = [0, 0, 1, 0, 1]


def test_sturm_count_at_a_repeated_root_end():
    # the root 0 is counted once, in the interval (a, b] that holds it
    c = _DOUBLE_ROOT_AT_ZERO
    assert count_real_roots(c, Fraction(-5), Fraction(5)) == 1
    assert count_real_roots(c, Fraction(-5), Fraction(0)) == 1
    assert count_real_roots(c, Fraction(0), Fraction(5)) == 0


def test_sturm_isolation_of_a_repeated_root():
    ivs = real_roots_in_interval(_DOUBLE_ROOT_AT_ZERO, Fraction(-5),
                                 Fraction(5))
    assert len(ivs) == 1
    lo, hi = ivs[0]
    assert lo < 0 <= hi


def _sturm_chain_reference(coeffs):
    """The classical Sturm chain over Fraction coefficient lists: p0, p0'
    and the negated exact remainders, each divided by the last member,
    gcd(p0, p0'), when that is not a constant."""
    def trim(c):
        while c and c[-1] == 0:
            c.pop()
        return c

    def rem(a, b):
        a = list(a)
        while len(a) >= len(b) and trim(a):
            f, shift = a[-1] / b[-1], len(a) - len(b)
            for i, bi in enumerate(b):
                a[shift + i] -= f * bi
            trim(a)
        return a

    def quo(a, b):
        a, q = list(a), [Fraction(0)] * (len(a) - len(b) + 1)
        while trim(a):
            f, shift = a[-1] / b[-1], len(a) - len(b)
            q[shift] = f
            for i, bi in enumerate(b):
                a[shift + i] -= f * bi
        return q

    chain = [trim([Fraction(c) for c in coeffs])]
    p1 = trim([k * chain[0][k] for k in range(1, len(chain[0]))])
    if p1:
        chain.append(p1)
        while True:
            r = rem(chain[-2], chain[-1])
            if not r:
                break
            chain.append([-c for c in r])
    g = chain[-1]
    if len(g) > 1:
        chain = [quo(p, g) for p in chain]
    return chain


def _poly_eval_reference(c, x):
    # P(x) itself, not a rescaling of it: Horner on an unreduced
    # numerator/denominator pair, reduced once at the end
    x = Fraction(x)
    p, q = x.numerator, x.denominator
    num, den = 0, 1
    for a in reversed(c):
        num, den = (num * p * a.denominator + a.numerator * den * q,
                    den * q * a.denominator)
    return Fraction(num, den)


def _sign_changes_reference(chain, x):
    signs = []
    for p in chain:
        v = _poly_eval_reference(p, x)
        if v:
            signs.append(v > 0)
    return sum(a != b for a, b in zip(signs, signs[1:]))


_sturm_roots = st.lists(
    st.tuples(st.fractions(min_value=-4, max_value=4, max_denominator=4),
              st.integers(1, 3)), min_size=1, max_size=4)


@given(_sturm_roots, st.sampled_from([0, 1, 3]),
       st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(
           bool))
@example([(Fraction(1), 2), (Fraction(-1, 2), 3)], 1, Fraction(-2, 3))
@example([(Fraction(0), 1)], 0, Fraction(1))
@example([(Fraction(0), 1), (Fraction(0), 1)], 1, Fraction(1))
def test_integer_sturm_chain_is_the_fraction_chain_rescaled(roots, extra,
                                                            scale):
    # scale * prod (x - r)^m * (x^2 + extra): repeated roots, and with
    # extra > 0 a pair of non-real ones
    coeffs = [scale]
    for r, m in roots:
        for _ in range(m):
            coeffs = [Fraction(0)] + coeffs
            for k in range(len(coeffs) - 1):
                coeffs[k] -= r * coeffs[k + 1]
    if extra:
        coeffs = [extra * c for c in coeffs] + [0, 0]
        for k in range(len(coeffs) - 1, 1, -1):
            coeffs[k] += coeffs[k - 2] / extra
    chain = sturm_chain(coeffs)
    ref = _sturm_chain_reference(coeffs)
    assert len(chain) == len(ref)
    for p, q in zip(chain, ref):
        # each member is an integer primitive positive multiple
        assert all(type(c) is int for c in p)
        ratio = p[-1] / q[-1]
        assert ratio > 0 and [ratio * c for c in q] == p
    distinct = sorted({r for r, _m in roots})
    xs = distinct + [(a + b) / 2 for a, b in zip(distinct, distinct[1:])]
    xs += [Fraction(-5), Fraction(5), 0, 1]
    for x in xs:
        assert _sign_changes(chain, x) == _sign_changes_reference(ref, x)
    assert count_real_roots(coeffs, -5, 5) == len(distinct)
    # the isolating intervals are those the Fraction chain gives, also
    # where a bisection point hits a repeated root
    got = real_roots_in_interval(coeffs, Fraction(-5), Fraction(5))
    # the bisection asks for each endpoint's count more than once; the
    # reference counts each point once (the run uses the one chain `ref`)
    seen = {}

    def sign_changes_once(chain, x):
        if x not in seen:
            seen[x] = _sign_changes_reference(chain, x)
        return seen[x]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "sturm_chain", _sturm_chain_reference)
        mp.setattr(linalg, "_sign_changes", sign_changes_once)
        mp.setattr(linalg, "_poly_eval", _poly_eval_reference)
        want = real_roots_in_interval(coeffs, Fraction(-5), Fraction(5))
    assert got == want


# ---------------------------------------------------------------------------
# The minor table against the former per-minor code
# ---------------------------------------------------------------------------

def _poly_det_reference(A, tmax=None):
    """The former determinant: Laplace expansion along the last of the
    leading columns, memoised over row subsets."""
    size = len(A)
    n = A[0][0].n if size else 0
    if size == 0:
        return Poly.const(n, ONE)
    memo = {0: Poly.const(n, ONE)}

    def det_of(mask):
        if mask in memo:
            return memo[mask]
        col = bin(mask).count("1") - 1
        acc = Poly.zero(n)
        pos = 0
        for i in range(size):
            if not (mask >> i) & 1:
                continue
            a = A[i][col]
            if a:
                term = a.mul(det_of(mask & ~(1 << i)), tmax=tmax)
                acc = acc + (term if (pos + col) % 2 == 0 else -term)
            pos += 1
        memo[mask] = acc
        return acc

    return det_of((1 << size) - 1)


def _poly_adjugate_reference(A, tmax=None):
    """The former adjugate: one independent determinant per minor."""
    size = len(A)
    n = A[0][0].n if size else 0
    adj = [[Poly.zero(n) for _ in range(size)] for _ in range(size)]
    for i in range(size):
        for j in range(size):
            minor = [[A[r][c] for c in range(size) if c != j]
                     for r in range(size) if r != i]
            d = _poly_det_reference(minor, tmax=tmax)
            adj[j][i] = d if (i + j) % 2 == 0 else -d
    return adj


M1 = Model(1)


def _rand_t_matrix(rng, size, model=M1):
    return [[rand_poly(rng, model, nterms=rng.randrange(0, 3), with_t=True)
             for _ in range(size)] for _ in range(size)]


@pytest.mark.parametrize("tmax", [None, 0, 2])
def test_poly_adjugate_matches_per_minor_determinants(tmax):
    rng = random.Random(233)
    for size in range(6):
        for _ in range(3 if size < 5 else 1):
            A = _rand_t_matrix(rng, size)
            adj = poly_adjugate(A, tmax=tmax)
            ref = _poly_adjugate_reference(A, tmax=tmax)
            if size == 1:
                # the former code took the empty minor as the constant 1
                # over the ring with n = 0; the table keeps A's own ring
                assert ref[0][0].n == 0 and ref[0][0].constant_value() == ONE
                assert adj == [[M1.poly(1)]]
            else:
                assert adj == ref
            det = poly_det(A, tmax=tmax)
            assert det == _poly_det_reference(A, tmax=tmax)
            if size:
                prod = mat_mul(A, adj, tmax=tmax)
                want = [[det if i == j else M1.zero_poly()
                         for j in range(size)] for i in range(size)]
                assert prod == want


def _span_certificate_reference(generators, w, model, rng, tmax=None,
                                attempts=4):
    """The former span certificate: a column-replaced determinant per
    Cramer numerator."""
    if not generators:
        if all(not x for x in w):
            return True, (Poly.const(model.n, ONE), [])
        return False, model.sample_point(rng, with_t=True)
    n = model.n
    for _ in range(attempts):
        rows, cols_sel = _pivot_block(generators, model, rng,
                                      t_zero=(tmax is not None))
        r = len(rows)
        if r == 0:
            if all(not x for x in w):
                return True, (Poly.const(n, ONE),
                              [Poly.zero(n)] * len(generators))
            pt = model.sample_point(rng, with_t=True)
            if any(x.eval(pt) for x in w):
                return False, pt
            continue
        sel_gens = [generators[j] for j in cols_sel]
        D = [[sel_gens[j][i] for j in range(r)] for i in rows]
        den = _poly_det_reference(D, tmax=tmax)
        if not den:
            continue
        if tmax is not None and not den.t_coefficient(0):
            continue
        nums = []
        for j in range(r):
            Dj = [row[:] for row in D]
            for i, ri in enumerate(rows):
                Dj[i][j] = w[ri]
            nums.append(_poly_det_reference(Dj, tmax=tmax))
        ok = True
        for i in range(len(w)):
            diff = den.mul(w[i], tmax=tmax)
            for j, g in enumerate(sel_gens):
                diff = diff - nums[j].mul(g[i], tmax=tmax)
            if tmax is not None:
                diff = diff.t_truncate(tmax)
            if diff:
                ok = False
                break
        if ok:
            full_nums = [Poly.zero(n)] * len(generators)
            for j, cj in enumerate(cols_sel):
                full_nums[cj] = nums[j]
            return True, (den, full_nums)
        for _ in range(16):
            pt = model.sample_point(rng, with_t=True)
            Mp = [[g[i].eval(pt) for g in generators] for i in range(len(w))]
            if scalar_solve(Mp, [x.eval(pt) for x in w]) is None:
                return False, pt
    raise ArithmeticError("could not settle span membership")


def _kernel_certificate_reference(A, model, rng, tmax=None, attempts=4):
    """The former kernel certificate: D, den and r column-replaced
    determinants rebuilt for every free column."""
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    n = model.n
    if ncols == 0:
        return []
    cols = [[A[i][j] for i in range(nrows)] for j in range(ncols)]
    for _ in range(attempts):
        rows_sel, cols_sel = _pivot_block(cols, model, rng)
        r = len(rows_sel)
        free = [j for j in range(ncols) if j not in cols_sel]
        basis = []
        ok_all = True
        for fc in free:
            D = [[A[i][cols_sel[j]] for j in range(r)] for i in rows_sel]
            den = _poly_det_reference(D) if r else Poly.const(n, 1)
            if not den:
                ok_all = False
                break
            v = [Poly.zero(n)] * ncols
            v[fc] = den
            for j in range(r):
                Dj = [row[:] for row in D]
                for i, ri in enumerate(rows_sel):
                    Dj[i][j] = A[ri][fc]
                v[cols_sel[j]] = -_poly_det_reference(Dj)
            resid = mat_apply(A, v, tmax=tmax)
            if tmax is not None:
                resid = [x.t_truncate(tmax) for x in resid]
            if any(resid):
                ok_all = False
                break
            val = min((x.t_valuation() for x in v if x), default=0)
            if val > 0:
                v = [x.t_shift_down(val) if x else x for x in v]
            if tmax is not None:
                v = [x.t_truncate(tmax) for x in v]
            basis.append(v)
        if ok_all:
            return basis
    raise ArithmeticError("kernel certificate failed")


def _span_scenes(rng, with_t):
    """Generator sets with a member, a non-member and coordinate
    vectors as targets."""
    for _ in range(6):
        dim = rng.randrange(2, 5)
        k = rng.randrange(1, dim + 1)
        gens = [[rand_poly(rng, M, with_t=with_t) for _ in range(dim)]
                for _ in range(k)]
        if with_t:
            # constant t^0 diagonal, so t = 0 pivot blocks exist
            for j, g in enumerate(gens):
                g[j] = g[j] + M.poly(1)
        coeffs = [rand_poly(rng, M, nterms=1, with_t=with_t) for _ in gens]
        member = [sum((c * g[i] for c, g in zip(coeffs, gens)),
                      M.zero_poly()) for i in range(dim)]
        yield gens, member
        yield gens, [rand_poly(rng, M, with_t=with_t) for _ in range(dim)]
        for a in range(dim):
            yield gens, [M.poly(1) if i == a else M.zero_poly()
                         for i in range(dim)]


def _span_target_sets(rng, with_t):
    """The scenes of :func:`_span_scenes`, grouped by generator set."""
    groups = []
    for gens, w in _span_scenes(rng, with_t):
        if not groups or groups[-1][0] is not gens:
            groups.append((gens, []))
        groups[-1][1].append(w)
    return groups


def _same_verdict(got, want):
    assert got[0] == want[0]
    if got[0]:
        assert got[1][0] == want[1][0]
        assert got[1][1] == want[1][1]
    else:
        assert repr(got[1]) == repr(want[1])


@pytest.mark.parametrize("tmax", [None, 2])
def test_span_certificate_matches_column_replacement(tmax):
    rng = random.Random(239)
    members = 0
    for gens, w in _span_scenes(rng, with_t=tmax is not None):
        seed = rng.randrange(10 ** 6)
        got = span_certificate(Span(gens, M, tmax), w, random.Random(seed))
        want = _span_certificate_reference(gens, w, M, random.Random(seed),
                                           tmax=tmax)
        _same_verdict(got, want)
        members += got[0]
    assert members


def _nowhere_zero(model, rng, with_t):
    """A random entry that is nonzero at every point: c (1 + |z1|^2) or
    c (1 + t^2), so a sampled point always refutes a target holding it."""
    c = model.poly(sc(rng.randint(1, 5), rng.randint(-3, 3)))
    z1 = model.z(0)
    bump = model.t() * model.t() if with_t else z1 * z1.conj()
    return c * (model.poly(1) + bump)


@pytest.mark.parametrize("tmax", [None, 2])
@pytest.mark.parametrize("ngens", [0, 1, 3])
def test_empty_spans_match_the_reference(tmax, ngens):
    # no generators, or generators that vanish identically: the pivot
    # block is empty (den = 1, no numerators), the identity accepts w = 0
    # alone and the witness search refutes every other w, with the
    # reference's verdict, den, numerators and witness point
    rng = random.Random(271 + ngens)
    for dim in (1, 2, 4):
        gens = [[M.zero_poly()] * dim for _ in range(ngens)]
        targets = [[M.zero_poly()] * dim]
        for _ in range(3):
            w = [M.zero_poly()] * dim
            w[rng.randrange(dim)] = _nowhere_zero(M, rng, tmax is not None)
            targets.append(w)
        for w in targets:
            seed = rng.randrange(10 ** 6)
            got = span_certificate(Span(gens, M, tmax), w,
                                   random.Random(seed))
            want = _span_certificate_reference(gens, w, M,
                                               random.Random(seed),
                                               tmax=tmax)
            _same_verdict(got, want)
            assert got[0] == (not any(w))
            if got[0]:
                assert got[1][0] == M.poly(1)
                assert got[1][1] == [M.zero_poly()] * ngens


def _pivot_block_reference(cols, model, rng, samples=8, t_zero=False):
    """The former pivot search, on the matrix with its rows and columns
    ordered by term count (fewest first, ties in index order): the rows
    from an RREF of M^T, then the columns from an RREF of the selected
    rows of M, mapped back to the original indices."""
    nrows = len(cols[0]) if cols else 0
    weight = [[len(x.terms) for x in c] for c in cols]
    col_order = sorted(range(len(cols)), key=lambda j: (sum(weight[j]), j))
    row_order = sorted(range(nrows),
                       key=lambda i: (sum(w[i] for w in weight), i))
    best = (0, [], [])
    for _ in range(samples):
        pt = model.sample_point(rng, with_t=True)
        if t_zero:
            pt = Point(pt.z, ZERO)
        Mp = [[cols[j][i].eval(pt) for j in col_order] for i in row_order]
        _red, rowsel = scalar_rref([list(r) for r in zip(*Mp)])
        _red2, piv2 = scalar_rref([Mp[i] for i in rowsel])
        r = len(piv2)
        if r > best[0]:
            best = (r, [row_order[i] for i in list(rowsel)[:r]],
                    sorted(col_order[c] for c in piv2))
        if r == min(nrows, len(cols)):
            break
    return best[1], best[2]


class _RecordingModel:
    """A model that keeps every point it samples."""

    def __init__(self, model):
        self.model = model
        self.points = []

    def sample_point(self, rng, with_t=False):
        pt = self.model.sample_point(rng, with_t=with_t)
        self.points.append(pt)
        return pt


def _pivot_scenes(rng):
    """Column sets of full and of deficient rank, some with a zero row
    and a column that repeats a combination of the others."""
    for _ in range(12):
        nrows = rng.randrange(1, 6)
        k = rng.randrange(1, 6)
        cols = [[rand_poly(rng, M, with_t=True) for _ in range(nrows)]
                for _ in range(k)]
        if k > 1 and rng.random() < 0.5:
            a, b = rand_poly(rng, M, nterms=1), rand_poly(rng, M, nterms=1)
            cols[-1] = [a * x + b * y for x, y in zip(cols[0], cols[1 % k])]
        if nrows > 1 and rng.random() < 0.5:
            for c in cols:
                c[rng.randrange(nrows)] = M.zero_poly()
        yield cols


@pytest.mark.parametrize("t_zero", [False, True])
def test_pivot_block_single_elimination_matches_two_rrefs(t_zero):
    rng = random.Random(243)
    for cols in _pivot_scenes(rng):
        seed = rng.randrange(10 ** 6)
        model = _RecordingModel(M)
        rows, piv = _pivot_block(cols, model, random.Random(seed),
                                 t_zero=t_zero)
        ref_rows, ref_piv = _pivot_block_reference(
            cols, M, random.Random(seed), t_zero=t_zero)
        assert piv == ref_piv
        assert len(rows) == len(ref_rows) == len(piv)
        assert len(set(rows)) == len(rows)
        # the block is invertible at the point where its rank was found
        points = [Point(p.z, ZERO) if t_zero else p for p in model.points]
        ranks = [scalar_rank([[c[i].eval(p) for c in cols]
                              for i in range(len(cols[0]))]) for p in points]
        at = points[ranks.index(len(piv))]
        block = [[cols[j][i].eval(at) for j in piv] for i in rows]
        assert scalar_det(block) if piv else not any(ranks)


def test_prepared_span_searches_again_when_its_block_is_too_small(
        monkeypatch):
    rng = random.Random(247)
    g1 = [M.z(0), M.poly(1), M.zero_poly()]
    g2 = [M.zero_poly(), M.z(1), M.poly(1)]
    searches = []
    search = linalg._pivot_block

    def first_block_too_small(*args, **kwargs):
        rows, cols = search(*args, **kwargs)
        searches.append(len(rows))
        return (rows[:1], cols[:1]) if len(searches) == 1 else (rows, cols)

    monkeypatch.setattr(linalg, "_pivot_block", first_block_too_small)
    span = Span([g1, g2], M)
    # g2 alone: outside the span of g1, so the one-column block fails it
    for coeffs in ((M.poly(0), M.poly(1)), (M.z(1), M.poly(3)),
                   (M.poly(2), M.z(0))):
        w = [coeffs[0] * a + coeffs[1] * b for a, b in zip(g1, g2)]
        ok, (den, nums) = span_certificate(span, w, rng)
        assert ok
        for i in range(3):
            assert den * w[i] == nums[0] * g1[i] + nums[1] * g2[i]
    # the second search replaced the first block and served every later
    # query
    assert searches == [2, 2]
    ok, _witness = span_certificate(span, [M.poly(0), M.poly(0), M.z(0)],
                                    rng)
    assert not ok
    assert len(searches) == 2


@pytest.mark.parametrize("tmax", [None, 2])
def test_prepared_span_answers_like_one_span_per_query(tmax):
    rng = random.Random(249)
    for gens, targets in _span_target_sets(rng, with_t=tmax is not None):
        span = Span(gens, M, tmax)
        for w in targets:
            seed = rng.randrange(10 ** 6)
            got = span_certificate(span, w, random.Random(seed))
            want = span_certificate(Span(gens, M, tmax), w,
                                    random.Random(seed))
            assert got[0] == want[0]
            if got[0]:
                den, nums = got[1]
                for i in range(len(w)):
                    lhs = den.mul(w[i], tmax=tmax)
                    rhs = sum((x.mul(g[i], tmax=tmax)
                               for x, g in zip(nums, gens)), M.zero_poly())
                    if tmax is not None:
                        lhs, rhs = lhs.t_truncate(tmax), rhs.t_truncate(tmax)
                    assert lhs == rhs


@pytest.mark.parametrize("tmax", [None, 2])
def test_kernel_certificate_matches_per_column_rebuild(tmax):
    rng = random.Random(241)
    for _ in range(8):
        nrows = rng.randrange(1, 4)
        ncols = rng.randrange(nrows, 6)
        A = [[rand_poly(rng, M, with_t=tmax is not None)
              for _ in range(ncols)] for _ in range(nrows)]
        seed = rng.randrange(10 ** 6)
        got = kernel_certificate(A, M, random.Random(seed), tmax=tmax)
        want = _kernel_certificate_reference(A, M, random.Random(seed),
                                             tmax=tmax)
        assert got == want
        assert len(got) >= ncols - nrows


def _assert_kernel_basis(A, basis, tmax):
    for v in basis:
        assert any(v)
        out = mat_apply(A, v, tmax=tmax)
        if tmax is not None:
            out = [x.t_truncate(tmax) for x in out]
        assert not any(out)


@pytest.mark.parametrize("tmax", [None, 2])
def test_kernel_certificate_searches_again_when_its_block_is_too_small(
        monkeypatch, tmax):
    rng = random.Random(271)
    searches = []
    search = linalg._pivot_block

    def first_block_one_column_short(*args, **kwargs):
        rows, cols = search(*args, **kwargs)
        searches.append(len(cols))
        if len(searches) == 1:
            return rows[:-1], cols[:-1]
        return rows, cols

    monkeypatch.setattr(linalg, "_pivot_block", first_block_one_column_short)
    A = [[M.z(0), M.z(1), M.poly(1), M.t()],
         [M.poly(1), M.z(0) + M.t(), M.z(1), M.poly(2)]]
    basis = kernel_certificate(A, M, rng, tmax=tmax)
    # the short block fails the identity for the column it dropped, and
    # the second search serves every free column
    assert searches == [2, 2]
    assert len(basis) == 2
    _assert_kernel_basis(A, basis, tmax)


@pytest.mark.parametrize("tmax", [None, 2])
def test_kernel_certificate_does_not_go_through_span_certificate(
        monkeypatch, tmax):
    def refuse(*args, **kwargs):
        raise AssertionError("kernel_certificate called span_certificate")

    monkeypatch.setattr(linalg, "span_certificate", refuse)
    rng = random.Random(273)
    A = [[M.z(0), M.z(1), M.t()], [M.poly(1), M.zero_poly(), M.z(1)]]
    basis = kernel_certificate(A, M, rng, tmax=tmax)
    assert len(basis) == 1
    _assert_kernel_basis(A, basis, tmax)


def test_certificates_that_cannot_settle_raise_singularity_error(
        monkeypatch):
    monkeypatch.setattr(linalg, "_ATTEMPTS", 0)
    rng = random.Random(251)
    g = [M.z(0), M.poly(1)]
    with pytest.raises(SingularityError):
        span_certificate(Span([g], M), [M.poly(1), M.zero_poly()], rng)
    with pytest.raises(SingularityError):
        kernel_certificate([[M.z(0), M.z(1)]], M, rng)


# ---------------------------------------------------------------------------
# The one division path
# ---------------------------------------------------------------------------

def _series_den(rng, size):
    """A matrix with a constant invertible t^0 block."""
    base = rand_smat(rng, size, size)
    while not scalar_det(base):
        base = rand_smat(rng, size, size)
    return [[Poly.const(M.n, base[i][j]) + rand_poly(rng, M).mul(M.t())
             for j in range(size)] for i in range(size)]


def test_mat_div_right_series_path():
    rng = random.Random(257)
    for size in (1, 2, 3):
        Den = _series_den(rng, size)
        Num = [[rand_poly(rng, M, with_t=True) for _ in range(size)]
               for _ in range(2)]
        for tmax in (0, 3):
            out = mat_div_right(Num, Den, tmax=tmax)
            assert out == mat_mul(Num, poly_mat_inverse(Den, tmax),
                                  tmax=tmax)
            back = mat_t_truncate(mat_mul(out, Den, tmax=tmax), tmax)
            assert back == mat_t_truncate(Num, tmax)


def test_mat_div_right_divides_a_z_dependent_t0_block_exactly():
    rng = random.Random(263)
    one_plus_z = M.poly(1) + M.z(0)
    # 1 x 1: the t^0 part 1 + z1 has no series inverse, the quotient is
    # still a polynomial
    q = rand_poly(rng, M, with_t=True)
    for tmax in (None, 0, 2):
        out = mat_div_right([[q * one_plus_z]], [[one_plus_z]], tmax=tmax)
        want = q if tmax is None else q.t_truncate(tmax)
        assert out == [[want]]
    # 2 x 2: Num = Q Den, so Num Den^{-1} = Q
    Den = [[one_plus_z, M.t()], [M.z(1), M.poly(1)]]
    Q = [[rand_poly(rng, M, with_t=True) for _ in range(2)]
         for _ in range(2)]
    Num = mat_mul(Q, Den)
    with pytest.raises(UnsupportedSceneError):
        poly_mat_inverse(Den, 2)
    assert mat_div_right(Num, Den) == Q
    assert mat_div_right(Num, Den, tmax=2) == mat_t_truncate(Q, 2)


def test_mat_div_right_refuses_a_non_polynomial_quotient():
    one_plus_z = M.poly(1) + M.z(0)
    for tmax in (None, 2):
        with pytest.raises(UnsupportedSceneError):
            mat_div_right([[M.poly(1)]], [[one_plus_z]], tmax=tmax)
        with pytest.raises(SingularityError):
            mat_div_right([[M.poly(1)]], [[M.zero_poly()]], tmax=tmax)


def test_mat_div_right_does_not_swallow_a_failed_series_check(monkeypatch):
    rng = random.Random(269)
    Den = _series_den(rng, 2)
    Num = [[M.poly(1), M.z(0)]]
    monkeypatch.setattr(linalg, "mat_is_zero", lambda A: False)
    for tmax in (0, 3):
        with pytest.raises(CertificateError):
            mat_div_right(Num, Den, tmax=tmax)
