"""Exact linear algebra: RREF facts, certificates, Sturm isolation."""
import random
from fractions import Fraction

import pytest

from gkdirac.linalg import (
    count_real_roots,
    generic_rank,
    kernel_certificate,
    mat_apply,
    mat_eval,
    mat_identity,
    mat_is_zero,
    mat_mul,
    mat_sub,
    mat_t_truncate,
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
from gkdirac.model import Model
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
    with pytest.raises(ArithmeticError):
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
        with pytest.raises(ArithmeticError):
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
    ok, cert = span_certificate([g1, g2], w, M, rng)
    assert ok
    den, nums = cert
    # exact identity: den*w == nums[0]*g1 + nums[1]*g2
    for i in range(3):
        assert den * w[i] == nums[0] * g1[i] + nums[1] * g2[i]


def test_span_certificate_negative():
    rng = random.Random(227)
    g1 = [M.poly(1), M.zero_poly()]
    w = [M.zero_poly(), M.poly(1)]
    ok, witness = span_certificate([g1], w, M, rng)
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
