"""Shape facts behind the deformed Poisson structure's certificates.

Three exact facts cut the work of ``hitchin.deformed_structures`` and its
neighbours without changing an output:

- the projector onto the deformed holomorphic bundle divides by the
  n x n Schur complement S = 1 - Phi conj(Phi), not by the 2n x 2n frame
  change A (``poisson._holo_projector``; det S = det A);
- the Lie derivative of an antisymmetric bivector matrix is antisymmetric
  with a zero diagonal, so only its upper triangle is formed, from one
  gradient shared by every field (``hitchin._lie_derivative_bivector``);
- ``Poly`` is canonical, so two matrices are equal exactly when their
  difference is zero, and identities are compared with ``==``.

Each is checked here against the route it replaced, kept below as a
reference.
"""
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gkdirac.errors import SingularityError, UnsupportedSceneError
from gkdirac.forms import MixedForm
from gkdirac.frames import _along
from gkdirac.hitchin import (_lie_derivative_bivector, _upper_gradient,
                             deformed_structures, solve_hitchin)
from gkdirac.frames import _conj_operator
from gkdirac.linalg import (mat_add, mat_div_right, mat_identity,
                            mat_is_zero, mat_mul, mat_sub, mat_t_truncate,
                            mat_transpose, mat_zero, scalar_rank)
from gkdirac.model import Model
from gkdirac.multivector import MVElement
from gkdirac.poisson import HoloPoisson, _deformed_frame_change, \
    _holo_projector
from gkdirac.poly import Poly
from gkdirac.scalars import ONE, Scalar

CUTS = st.none() | st.integers(0, 3)
_COEFFS = st.builds(lambda a, b, d: Scalar(Fraction(a, d), Fraction(b, d)),
                    st.integers(-2, 2), st.integers(-2, 2), st.integers(1, 2))


def _polys(n, with_t):
    """Polynomials over C^n of at most two terms, each in at most two of
    the legs z.., zbar.., with powers of t on request; zero a third of the
    time."""
    term = st.tuples(
        _COEFFS,
        st.dictionaries(st.integers(0, 2 * n - 1), st.integers(1, 2),
                        max_size=2),
        st.integers(0, 2) if with_t else st.just(0))

    def build(terms):
        out = Poly.zero(n)
        for c, exps, tp in terms:
            e = [0] * (2 * n + 1)
            for leg, p in exps.items():
                e[leg] = p
            e[2 * n] = tp
            out = out + Poly(n, {tuple(e): c})
        return out

    return st.one_of(st.just(Poly.zero(n)),
                     st.lists(term, min_size=1, max_size=2).map(build))


# ---------------------------------------------------------------------------
# the projector by its n x n Schur complement
# ---------------------------------------------------------------------------

def _projector_reference(Phi, tmax=None):
    """The former ``_holo_projector``: A diag(1, 0) A^{-1} by one 2n x 2n
    division."""
    n, ring = len(Phi), Phi[0][0].n
    A = _deformed_frame_change(Phi)
    proj = mat_zero(2 * n, 2 * n, ring)
    for i in range(n):
        proj[i][i] = Poly.const(ring, ONE)
    return mat_div_right(mat_mul(A, proj, tmax=tmax), A, tmax=tmax)


def _outcome(projector, Phi, tmax):
    """The projector, or the typed error with its text and determinant."""
    try:
        return projector(Phi, tmax=tmax)
    except SingularityError as exc:
        return SingularityError, str(exc), exc.determinant
    except UnsupportedSceneError as exc:
        return UnsupportedSceneError, str(exc)


@st.composite
def _phis(draw):
    """An n x n Phi, n = 1..3, over C^n or lifted to C^{n+1} with t^k read
    as t^k s^k (as ``_ham_complex`` lifts it).  Its shape is free;
    strictly upper triangular (S unipotent, so the exact quotient is
    polynomial); a multiple of t (the t-series route with a cut); or
    strictly upper triangular at t^0 only, so that S's t^0 block can be
    constant while A's is not."""
    n = draw(st.integers(1, 3))
    with_t = draw(st.booleans())
    shape = draw(st.sampled_from(["free", "upper", "t_multiple",
                                  "upper_at_t0"]))
    entries = _polys(n, with_t)
    Phi = [[draw(entries) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if shape == "upper" and j <= i:
                Phi[i][j] = Poly.zero(n)
            elif shape == "t_multiple" or (shape == "upper_at_t0"
                                           and j <= i):
                Phi[i][j] = Phi[i][j] * Poly.t(n)
    if draw(st.booleans()):
        Phi = [[x.lift_parameter() for x in row] for row in Phi]
    return Phi


def _unit_schur_t0(Phi):
    """Whether S = 1 - Phi conj(Phi) has a constant, invertible t^0 block,
    so that S^{-1} is a t-series."""
    n, ring = len(Phi), Phi[0][0].n
    Phibar = [[x.conj() for x in row] for row in Phi]
    S0 = mat_t_truncate(mat_sub(mat_identity(n, ring),
                                mat_mul(Phi, Phibar)), 0)
    if not all(x.is_constant() for row in S0 for x in row):
        return False
    return scalar_rank([[x.constant_value() for x in row]
                        for row in S0]) == n


def _assert_projector(P, Phi, tmax):
    """P is the projector onto the deformed holomorphic bundle along the
    antiholomorphic one, mod t^{tmax+1}: P^2 = P, P + conj(P) = 1, and P
    fixes the deformed holomorphic frame."""
    n, ring = len(Phi), Phi[0][0].n
    assert isinstance(P, list)
    assert mat_mul(P, P, tmax=tmax) == P
    assert mat_add(P, _conj_operator(Model(n), P)) == \
        mat_identity(2 * n, ring)
    holo_cols = [row[:n] for row in _deformed_frame_change(Phi)]
    assert mat_mul(P, holo_cols, tmax=tmax) == \
        mat_t_truncate(holo_cols, tmax)


@given(_phis(), CUTS)
def test_schur_projector_matches_the_frame_change_division(Phi, tmax):
    got = _outcome(_holo_projector, Phi, tmax)
    want = _outcome(_projector_reference, Phi, tmax)
    if tmax is not None and isinstance(want, tuple) and _unit_schur_t0(Phi):
        # the 2n x 2n division refuses where A's t^0 block is not
        # constant, but S^{-1} is a t-series: the projector exists mod
        # t^{tmax+1}
        _assert_projector(got, Phi, tmax)
    else:
        assert got == want


def test_singular_schur_complement_raises_like_the_frame_change():
    # Phi = 1: S = 1 - 1 = 0, and A = [[1, 1], [1, 1]] is singular too
    Phi = [[Poly.const(1, ONE)]]
    for tmax in (None, 2):
        got = _outcome(_holo_projector, Phi, tmax)
        assert got[0] is SingularityError
        assert got == _outcome(_projector_reference, Phi, tmax)


def test_non_polynomial_quotient_raises_like_the_frame_change():
    # Phi = z1: S = 1 - z1 zbar1 is not a unit, so 1/S is no polynomial
    Phi = [[Poly.z(1, 0)]]
    for tmax in (None, 2):
        got = _outcome(_holo_projector, Phi, tmax)
        assert got[0] is UnsupportedSceneError
        assert got == _outcome(_projector_reference, Phi, tmax)


def test_nonconstant_nilpotent_phi_takes_the_series_inverse():
    # Phi_0 is non-constant while Phi_0 conj(Phi_0) = 0, so S's t^0 block
    # is the identity but A's is not constant: the 2n x 2n division never
    # tried the series inverse, and 1/det = 1/(1 - t^2) is no polynomial;
    # S^{-1} is a t-series, so with a cut the projector exists
    z1, t = Poly.z(2, 0), Poly.t(2)
    Phi = [[t, z1], [Poly.zero(2), Poly.zero(2)]]
    assert _outcome(_projector_reference, Phi, 2)[0] is UnsupportedSceneError
    assert _unit_schur_t0(Phi)
    _assert_projector(_holo_projector(Phi, tmax=2), Phi, 2)
    # without a cut there is no series, and both routes refuse alike
    got = _outcome(_holo_projector, Phi, None)
    assert got[0] is UnsupportedSceneError
    assert got == _outcome(_projector_reference, Phi, None)


# ---------------------------------------------------------------------------
# Lie derivatives on the upper triangle, from one gradient
# ---------------------------------------------------------------------------

def _lie_reference(model, X, M, tmax=None):
    """The former ``_lie_derivative_bivector``: every entry by the full
    formula."""
    n = model.n
    cols = mat_transpose(M)
    legs = range(len(X))
    jac = [[x.derivative(l) for l in legs] if x else [x] * len(X)
           for x in X]
    return [[Poly.sum(n, _along(X, Mij, tmax)
                      + _along(cols[j], Xi, tmax, -1, jac[i])
                      + _along(Mi, X[j], tmax, -1, jac[j]))
             for j, Mij in enumerate(Mi)]
            for i, (Mi, Xi) in enumerate(zip(M, X))]


@st.composite
def _fields_and_bivectors(draw):
    """A frame-leg column X and an antisymmetric M over C^2 or C^3, in z,
    zbar and t, as P applied to a field and P (sigma + rho) P^T are."""
    model = Model(draw(st.integers(2, 3)))
    n, dim = model.n, model.dim
    entries = _polys(n, True)
    X = [draw(entries) for _ in range(dim)]
    M = mat_zero(dim, dim, n)
    for i in range(dim):
        for j in range(i + 1, dim):
            M[i][j] = draw(entries)
            M[j][i] = -M[i][j]
    return model, X, M


@given(_fields_and_bivectors(), CUTS)
def test_mirrored_lie_derivative_matches_the_full_formula(scene, tmax):
    model, X, M = scene
    want = _lie_reference(model, X, M, tmax)
    assert _lie_derivative_bivector(model, X, M, tmax=tmax) == want
    assert _lie_derivative_bivector(model, X, M, tmax=tmax,
                                    grad=_upper_gradient(M)) == want


def _chain_scene(n, order):
    """sigma = c z1 d1^d2 deformed by the real Hitchin series of a
    constant Hermitian form, as the benchmark's certificate chain does."""
    model = Model(n)
    hp = HoloPoisson(model, sigma=MVElement.monomial(
        model, model.z(0).scale(Scalar(Fraction(1, 2), 1)), vecs=(0, 1)))
    seed = MixedForm.zero(model)
    for k, w in enumerate([Fraction(2), Fraction(1, 3), Fraction(3, 2)][:n]):
        seed = seed + MixedForm.monomial(
            model, Poly.const(n, Scalar(0, w / 2)), (k,), (k,))
    return hp, solve_hitchin(hp, seed, order, mode="real")


@pytest.mark.parametrize("n, order", [(2, 3), (3, 2)])
def test_deformed_structures_forms_each_upper_derivative_once(
        monkeypatch, n, order):
    hp, ds = _chain_scene(n, order)
    lie_codes = {_lie_derivative_bivector.__code__,
                 _upper_gradient.__code__}
    calls = []
    original = Poly.derivative

    def counting(self, index):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code in lie_codes:
                calls.append((self, index))
                break
            frame = frame.f_back
        return original(self, index)

    monkeypatch.setattr(Poly, "derivative", counting)
    rep = deformed_structures(ds.eps, hp, random.Random(5), tmax=order)
    monkeypatch.undo()
    assert rep.ok
    assert sum(q for _lbl, q, _ok in rep.witnesses["poisson_fields"]) >= 2
    newmat = rep.poisson.sigma.mat
    dim = hp.model.dim
    upper = {id(newmat[i][j]): (i, j) for i in range(dim)
             for j in range(i + 1, dim) if newmat[i][j]}
    assert upper
    formed = Counter((upper[id(p)], l) for p, l in calls if id(p) in upper)
    assert formed == Counter({(ij, l): 1 for ij in upper.values()
                              for l in range(dim)})


# ---------------------------------------------------------------------------
# identities compared with ==
# ---------------------------------------------------------------------------

@st.composite
def _matrix_pairs(draw):
    """Two Poly matrices of one shape: unrelated, equal by another route of
    arithmetic, or equal up to a term of one t-power."""
    n = draw(st.integers(1, 2))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = _polys(n, True)

    def matrix():
        return [[draw(entries) for _ in range(cols)] for _ in range(rows)]

    A = matrix()
    how = draw(st.sampled_from(["unrelated", "rerouted", "t_term"]))
    if how == "unrelated":
        B = matrix()
    elif how == "rerouted":
        C, c = matrix(), draw(_COEFFS.filter(bool))
        B = [[(a + x).scale(c).scale(c.inverse()) - x for a, x in zip(ra, rc)]
             for ra, rc in zip(A, C)]
    else:
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        B = [list(r) for r in A]
        B[i][j] = B[i][j] + Poly.t(n, draw(st.integers(0, 4))).scale(
            draw(_COEFFS))
    return A, B


@given(_matrix_pairs(), CUTS)
def test_matrix_equality_is_a_zero_difference(pair, tmax):
    A, B = pair
    assert (A == B) == mat_is_zero(mat_sub(A, B))
    assert (mat_t_truncate(A, tmax) == mat_t_truncate(B, tmax)) == \
        mat_is_zero(mat_t_truncate(mat_sub(A, B), tmax))
