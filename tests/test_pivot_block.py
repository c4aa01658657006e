"""The pivot block behind the Cramer certificates: its choice and the
identities read from it.

``_pivot_block`` tries the rows and columns with the fewest terms first,
so a unit block, when there is one, gives a constant ``den``.  Whatever
block is chosen, every identity ``den*w = sum nums_j g_j`` (span) and
``A v = 0`` (kernel) must hold on every coordinate, mod t^{tmax+1} with
``tmax``.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gkdirac.errors import SingularityError
from gkdirac.frames import graph_bivector
from gkdirac.linalg import (Span, generic_rank, kernel_certificate, mat_apply,
                            scalar_solve, span_certificate)
from gkdirac.model import Model
from gkdirac.poisson import Bivector
from gkdirac.poly import Poly
from gkdirac.scalars import Scalar

M = Model(2)


def _poly(coeff, z1=0, z2=0, t=0):
    """coeff * z1^a z2^b t^c on C^2."""
    if not isinstance(coeff, Scalar):
        coeff = Scalar(coeff)
    return Poly(M.n, {(z1, z2, 0, 0, t): coeff})


def _identity_holds(den, nums, gens, w, tmax):
    for i, wi in enumerate(w):
        rhs = Poly.sum(M.n, (x.mul(g[i], tmax=tmax)
                             for x, g in zip(nums, gens)))
        if den.mul(wi, tmax=tmax).t_truncate(tmax) != rhs.t_truncate(tmax):
            return False
    return True


# ---------------------------------------------------------------------------
# The block chosen on frames with a unit block
# ---------------------------------------------------------------------------

_BIVECTORS = [
    # (a, b, coefficient of e_a ^ e_b), each coefficient of two terms, so
    # every nonzero row of P holds more terms than a unit covector row
    [(0, 1, _poly(1, z1=1) + _poly(2))],
    [(0, 1, _poly(Scalar(1, 2), z2=1) + _poly(3, t=1)),
     (1, 2, _poly(1, z1=1, z2=1) + _poly(-1))],
    [(0, 3, _poly(2, z1=2) + _poly(1, z2=1)),
     (1, 2, _poly(1, t=2) + _poly(Scalar(0, 1), z1=1)),
     (2, 3, _poly(5) + _poly(-1, z1=1, t=1))],
]


@pytest.mark.parametrize("tmax", [None, 2])
@pytest.mark.parametrize("legs", _BIVECTORS)
def test_span_over_a_graph_bivector_keeps_a_constant_den(legs, tmax):
    rng = random.Random(1401)
    P = Bivector(M)
    for a, b, c in legs:
        P = P + Bivector.wedge_pair(M, a, b, c)
    gens = [g.stack() for g in graph_bivector(M, P.mat)]
    span = Span(gens, M, tmax)
    coeffs = [[_poly(1, z1=1), _poly(2), M.zero_poly(), _poly(-1, t=1)],
              [_poly(Scalar(0, 1)), M.zero_poly(), _poly(3, z2=1),
               _poly(1)]]
    for cs in coeffs:
        w = [Poly.sum(M.n, (c.mul(g[i]) for c, g in zip(cs, gens)))
             for i in range(len(gens[0]))]
        ok, (den, nums) = span_certificate(span, w, rng)
        assert ok
        # the unit covector block, not the vector rows, is the pivot block
        assert den.is_constant() and den
        assert _identity_holds(den, nums, gens, w, tmax)


@pytest.mark.parametrize("tmax", [None, 2])
def test_kernel_certificate_on_d_minus_identity_has_constant_dens(tmax):
    rng = random.Random(1403)
    # [D | -I]: the kernel is spanned by (e_k, D e_k), one per column of D
    D = [[_poly(1, z1=1) + _poly(2, t=1), _poly(3) + _poly(1, z2=2),
          M.zero_poly()],
         [_poly(-1, z1=1, z2=1) + _poly(1), M.zero_poly(),
          _poly(1, t=1) + _poly(Scalar(0, 2), z1=1)]]
    m, k = len(D[0]), len(D)
    A = [row + [_poly(-1) if i == j else M.zero_poly() for j in range(k)]
         for i, row in enumerate(D)]
    basis = kernel_certificate(A, M, rng, tmax=tmax)
    assert len(basis) == m
    for col, v in enumerate(basis):
        # v = den*e_col - nums, with den a nonzero constant
        assert [bool(x) for x in v[:m]] == [j == col for j in range(m)]
        assert v[col].is_constant()
        assert not any(x.t_truncate(tmax) for x in mat_apply(A, v, tmax=tmax))


# ---------------------------------------------------------------------------
# Every identity holds, whichever block is chosen
# ---------------------------------------------------------------------------

_terms = st.lists(
    st.tuples(st.sampled_from([1, -1, 2, Fraction(1, 2), Scalar(0, 1)]),
              st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
    max_size=3)


def _poly_from(terms, with_t):
    return Poly.sum(M.n, (_poly(c, a, b, t if with_t else 0)
                          for c, a, b, t in terms))


@st.composite
def _span_scene(draw, with_t):
    """Generators of 1..4 rows, some lines sparse or unit, and a target:
    a combination of the generators, a unit vector or a random column.

    With t the generators are unit lower triangular at t = 0, so their
    rank there is the generic rank and a t-series unit ``den`` exists."""
    dim = draw(st.integers(1, 4))
    k = draw(st.integers(1, dim if with_t else 3))
    gens = [[_poly_from(draw(_terms), with_t) for _ in range(dim)]
            for _ in range(k)]
    if with_t:
        t = M.t()
        for j, g in enumerate(gens):
            for i in range(j + 1):
                g[i] = g[i].mul(t) + (M.poly(1) if i == j else M.zero_poly())
    kind = draw(st.sampled_from(["member", "unit", "random"]))
    if kind == "member":
        cs = [_poly_from(draw(_terms), with_t) for _ in gens]
        w = [Poly.sum(M.n, (c.mul(g[i]) for c, g in zip(cs, gens)))
             for i in range(dim)]
    elif kind == "unit":
        a = draw(st.integers(0, dim - 1))
        w = [M.poly(1) if i == a else M.zero_poly() for i in range(dim)]
    else:
        w = [_poly_from(draw(_terms), with_t) for _ in range(dim)]
    return gens, w, kind == "member"


@pytest.mark.parametrize("tmax", [None, 1])
@given(data=st.data(), seed=st.integers(0, 10 ** 6))
def test_every_span_identity_holds(tmax, data, seed):
    gens, w, member = data.draw(_span_scene(with_t=tmax is not None))
    ok, cert = span_certificate(Span(gens, M, tmax), w, random.Random(seed))
    if ok:
        den, nums = cert
        assert len(nums) == len(gens)
        assert den and _identity_holds(den, nums, gens, w, tmax)
        if tmax is not None:
            assert den.t_coefficient(0)  # a t-series unit
    else:
        assert not member
        Mp = [[g[i].eval(cert) for g in gens] for i in range(len(w))]
        assert scalar_solve(Mp, [x.eval(cert) for x in w]) is None


@pytest.mark.xfail(strict=True, raises=SingularityError,
                   reason="the tmax pivot block is found on the t = 0 "
                   "slice, where these generators lose rank")
def test_span_membership_survives_rank_loss_at_t_zero():
    # w is the generator itself; the scene of _span_scene keeps away from
    # this case by making its t-generators unit lower triangular at t = 0.
    # The empty block's identity fails and no point refutes w, so the
    # search ends in SingularityError; a wrong False, or any other error,
    # fails the run
    t, z1 = M.t(), M.z(0)
    ok, _ = span_certificate(Span([[t, t * z1]], M, 1), [t, t * z1],
                             random.Random(0))
    assert ok


@pytest.mark.parametrize("tmax", [None, 1])
@given(data=st.data(), seed=st.integers(0, 10 ** 6))
def test_every_kernel_identity_holds(tmax, data, seed):
    nrows = data.draw(st.integers(1, 3))
    ncols = data.draw(st.integers(1, 4))
    A = [[_poly_from(data.draw(_terms), tmax is not None)
          for _ in range(ncols)] for _ in range(nrows)]
    if data.draw(st.booleans()):
        # a unit column, which the pivot block takes first
        j = data.draw(st.integers(0, ncols - 1))
        for i, row in enumerate(A):
            row[j] = M.poly(1) if i == 0 else M.zero_poly()
    basis = kernel_certificate(A, M, random.Random(seed), tmax=tmax)
    assert len(basis) == ncols - generic_rank(A, M, random.Random(seed))
    for v in basis:
        assert any(v)
        assert not any(x.t_truncate(tmax) for x in mat_apply(A, v, tmax=tmax))
