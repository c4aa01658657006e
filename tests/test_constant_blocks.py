"""Constant matrices are solved once over Q(i).

A matrix whose entries are all constant has the same rank over Q(i), over
the rational functions and over the truncated series ring, so
``kernel_certificate`` answers it by ``scalar_kernel`` of its values and
``mat_div_right`` by the Q(i) inverse that ``poly_mat_inverse`` returns
for it, each checked exactly on the values.  The former routes are kept
below as references: the ``Span`` pivot-block kernel, the
``poly_det``/``poly_adjugate``/``divexact`` division and the full series
inverse.  The kernel route draws no sample point, so the Dirac
combinations of the flat generalized Kahler scenes do not depend on the
seed.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from gkdirac.errors import SingularityError
from gkdirac.forms import MixedForm
from gkdirac.frames import DiracFrame, GVField, graph_two_form
from gkdirac.genkahler import half_i_difference
from gkdirac.linalg import (Span, _mat_from_t_blocks, _mat_series_term,
                            _mat_t_blocks, kernel_certificate, mat_apply,
                            mat_div_right, mat_identity, mat_is_zero,
                            mat_mul, mat_neg, mat_sub, mat_t_truncate,
                            mat_transpose, poly_adjugate, poly_det,
                            poly_mat_inverse, scalar_det, scalar_inverse,
                            scalar_rank)
from gkdirac.model import Model
from gkdirac.poly import Poly
from gkdirac.scalars import ZERO, Scalar

PLAIN, PARAM = Model(2), Model(2, param=True)
MODELS = st.sampled_from([PLAIN, PARAM])
TMAXES = st.sampled_from([None, 0, 1, 2, 3])

# a nonzero Q(i) entry (a + b i) / d with a, b in -3..3, not both 0, and
# d in 1..3, drawn by construction rather than by filtering out the zeros
_NONZERO = st.builds(
    lambda ab, d: Scalar(Fraction(ab[0], d), Fraction(ab[1], d)),
    st.sampled_from(sorted(((a, b) for a in range(-3, 4)
                            for b in range(-3, 4) if a or b),
                           key=lambda ab: (abs(ab[0]) + abs(ab[1]), ab))),
    st.integers(1, 3))
# a Q(i) entry over the same values: zero half of the time
_SCALARS = st.one_of(st.just(ZERO), _NONZERO)

# the former routes, run as references, can outlast the default deadline
_NO_DEADLINE = settings(deadline=None)


# ---------------------------------------------------------------------------
# the former routes, kept as references
# ---------------------------------------------------------------------------

def _former_kernel(A, model, rng, tmax=None, attempts=4):
    """The former ``kernel_certificate``: the columns as one ``Span``,
    ``v = den*e_fc - nums`` for each column outside the pivot block."""
    cols = mat_transpose(A)
    if not cols:
        return []
    span = Span(cols, model)
    for _ in range(attempts):
        block = span._pivot(rng)
        if block is None:
            continue
        _rows, cols_sel, *_ = block
        basis = []
        for fc, col in enumerate(cols):
            if fc in cols_sel:
                continue
            cert = span._solve(col)
            if cert is None:
                span._block = None
                break
            den, nums = cert
            v = [-x for x in nums]
            v[fc] = den
            val = min((x.t_valuation() for x in v if x), default=0)
            if val > 0:
                v = [x.t_shift_down(val) if x else x for x in v]
            basis.append(v)
        else:
            return mat_t_truncate(basis, tmax)
    raise SingularityError("kernel certificate failed")


def _former_division(Num, Den, tmax=None):
    """The adjugate division the former route took for a constant ``Den``
    without ``tmax``: Num adj(Den) divided exactly by det(Den), then
    truncated with ``tmax``."""
    det = poly_det(Den)
    if not det:
        raise SingularityError("matrix is singular", determinant="0")
    N = mat_mul(Num, poly_adjugate(Den))
    return mat_t_truncate([[x.divexact(det) for x in row] for row in N],
                          tmax)


def _former_inverse(A, tmax):
    """The former ``poly_mat_inverse``: the block recurrence and its
    ``Poly`` check, run for a constant ``A`` too."""
    size, n = len(A), A[0][0].n
    A0 = _mat_t_blocks(A, 0)[0]
    A0inv = [[Poly.const(n, c) for c in row] for row in
             scalar_inverse([[c.constant_value() for c in row]
                             for row in A0])]
    Ns = _mat_t_blocks(mat_mul(A0inv, mat_sub(A, A0), tmax=tmax), tmax)
    Xs = [mat_identity(size, n)]
    for j in range(1, tmax + 1):
        Xs.append(mat_neg(_mat_series_term(Ns, Xs, j)))
    out = mat_mul(_mat_from_t_blocks(Xs), A0inv, tmax=tmax)
    assert mat_is_zero(mat_sub(mat_mul(A, out, tmax=tmax),
                               mat_identity(size, n)))
    return out


# ---------------------------------------------------------------------------
# drawing helpers
# ---------------------------------------------------------------------------

@st.composite
def _constant_values(draw, rows=None, cols=None):
    """A Q(i) matrix L R of inner size ``k`` (rank at most k, often
    less), with some columns zeroed."""
    rows = rows or draw(st.integers(1, 4))
    cols = cols or draw(st.integers(1, 5))
    k = draw(st.integers(0, min(rows, cols)))
    L = [[draw(_SCALARS) for _ in range(k)] for _ in range(rows)]
    R = [[draw(_SCALARS) for _ in range(cols)] for _ in range(k)]
    zeroed = draw(st.sets(st.integers(0, cols - 1), max_size=cols))
    return [[ZERO if j in zeroed else
             sum((L[i][l] * R[l][j] for l in range(k)), ZERO)
             for j in range(cols)] for i in range(rows)]


@st.composite
def _invertible_values(draw, size):
    """P L U: a row permutation P, L unit lower triangular and U upper
    triangular with a nonzero diagonal."""
    L = [[Scalar(1) if i == j else draw(_SCALARS) if j < i else ZERO
          for j in range(size)] for i in range(size)]
    U = [[draw(_NONZERO) if i == j else draw(_SCALARS) if j > i else ZERO
          for j in range(size)] for i in range(size)]
    LU = [[sum((L[i][l] * U[l][j] for l in range(size)), ZERO)
           for j in range(size)] for i in range(size)]
    return [LU[i] for i in draw(st.permutations(range(size)))]


def _lift(model, values):
    return [[Poly.const(model.n, x) for x in row] for row in values]


def _values(M):
    return [[x.constant_value() for x in row] for row in M]


@st.composite
def _numerators(draw, model, rows, cols):
    """Polynomial entries over z, zbar and (on a parameter model) t."""
    n = model.n
    monomials = [model.poly(1), model.z(0), model.zbar(1),
                 model.z(1) * model.zbar(0)]
    if model.param:
        monomials += [Poly.t(n), Poly.t(n, 2) * model.z(0), Poly.t(n, 4)]
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            picks = draw(st.lists(st.tuples(st.sampled_from(monomials),
                                            _SCALARS), max_size=3))
            row.append(Poly.sum(n, (m.scale(c) for m, c in picks)))
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@_NO_DEADLINE
@given(model=MODELS, values=_constant_values(), tmax=TMAXES)
def test_constant_kernel_is_exact_and_of_full_dimension(model, values,
                                                        tmax):
    A = _lift(model, values)
    basis = kernel_certificate(A, model, random.Random(0), tmax=tmax)
    assert all(x.is_constant() for v in basis for x in v)
    for v in basis:
        assert all(not x for x in mat_apply(A, v))
    assert len(basis) == len(values[0]) - scalar_rank(values)
    assert scalar_rank(_values(basis)) == len(basis)


@_NO_DEADLINE
@given(model=MODELS, values=_constant_values(), tmax=TMAXES,
       seed=st.integers(0, 4))
def test_constant_kernel_spans_the_former_basis(model, values, tmax, seed):
    A = _lift(model, values)
    got = _values(kernel_certificate(A, model, random.Random(seed),
                                     tmax=tmax))
    want = _values(_former_kernel(A, model, random.Random(seed), tmax=tmax))
    assert len(got) == len(want)
    assert scalar_rank(got + want) == len(got)


@_NO_DEADLINE
@given(model=MODELS, values=_constant_values(), tmax=TMAXES)
def test_constant_kernel_draws_nothing_from_the_generator(model, values,
                                                          tmax):
    A = _lift(model, values)
    bases = []
    for seed in range(5):
        rng = random.Random(seed)
        state = rng.getstate()
        bases.append(kernel_certificate(A, model, rng, tmax=tmax))
        assert rng.getstate() == state
    assert all(b == bases[0] for b in bases)


def test_a_matrix_that_is_not_constant_keeps_the_span_route():
    model = PLAIN
    A = [[model.z(0), model.poly(1), model.zero_poly()]]
    rng = random.Random(3)
    state = rng.getstate()
    basis = kernel_certificate(A, model, rng)
    assert rng.getstate() != state
    assert len(basis) == 2
    assert all(not x for v in basis for x in mat_apply(A, v))


# ---------------------------------------------------------------------------
# divisions
# ---------------------------------------------------------------------------

@_NO_DEADLINE
@given(model=MODELS, size=st.integers(1, 4), rows=st.integers(1, 3),
       tmax=TMAXES, data=st.data())
def test_constant_division_matches_the_adjugate_reference(model, size, rows,
                                                          tmax, data):
    values = data.draw(_invertible_values(size))
    Den = _lift(model, values)
    Num = data.draw(_numerators(model, rows, size))
    assert mat_div_right(Num, Den, tmax=tmax) == \
        _former_division(Num, Den, tmax)


@_NO_DEADLINE
@given(model=MODELS, size=st.integers(1, 4), tmax=TMAXES, data=st.data())
def test_singular_constant_denominator_raises_as_before(model, size, tmax,
                                                        data):
    values = data.draw(_constant_values(size, size))
    assume(not scalar_det(values))
    Den = _lift(model, values)
    Num = data.draw(_numerators(model, 2, size))
    with pytest.raises(SingularityError) as got:
        mat_div_right(Num, Den, tmax=tmax)
    with pytest.raises(SingularityError) as want:
        _former_division(Num, Den, tmax)
    assert str(got.value) == str(want.value) == "matrix is singular"
    assert got.value.determinant == want.value.determinant == "0"


@_NO_DEADLINE
@given(model=MODELS, size=st.integers(1, 4), tmax=st.integers(0, 3),
       data=st.data())
def test_constant_inverse_matches_the_series_route(model, size, tmax, data):
    values = data.draw(_invertible_values(size))
    A = _lift(model, values)
    assert poly_mat_inverse(A, tmax) == _former_inverse(A, tmax)


# ---------------------------------------------------------------------------
# the Dirac combinations of the flat generalized Kahler scenes
# ---------------------------------------------------------------------------

def _complex_type_frame(model):
    """T_{0,1} (+) T*_{1,0} as an explicit frame."""
    n, one = model.n, model.poly(1)
    gens = []
    for b in range(n):
        v = [model.zero_poly()] * model.dim
        v[n + b] = one
        gens.append(GVField(model, vec=v))
    for a in range(n):
        c = [model.zero_poly()] * model.dim
        c[a] = one
        gens.append(GVField(model, cov=c))
    return DiracFrame(model, gens, label="complex-type")


def _flat_form(model, weights):
    """(i/2) sum_k w_k dz_k ^ dzbar_k."""
    out = MixedForm.zero(model)
    for k, w in enumerate(weights):
        coeff = Poly.const(model.n, Scalar(0, Fraction(w, 2)))
        out = out + MixedForm.monomial(model, coeff, (k,), (k,))
    return out


def _pulled_back_form(model, a):
    """The flat form pulled back by w_n = z_n + a z_1^2."""
    n, one = model.n, model.poly(1)
    dw = (MixedForm.monomial(model, one, (n - 1,), ())
          + MixedForm.monomial(model, model.z(0).scale(2 * a), (0,), ()))
    out = dw.wedge(dw.conj())
    for k in range(n - 1):
        out = out + MixedForm.monomial(model, one, (k,), (k,))
    return out.scale(Scalar(0, Fraction(1, 2)))


def _gk_pair(kind, n):
    """The pairs of the benchmark's ``flat``, ``sign_flip`` and
    ``pullback`` scenes, with fixed data."""
    model = Model(n)
    if kind == "pullback":
        omega = _pulled_back_form(model, Scalar(Fraction(2, 3), -1))
    else:
        weights = [Fraction(k + 2, 3) for k in range(n)]
        if kind == "sign_flip":
            weights[-1] = -weights[-1]
        omega = _flat_form(model, weights)
    return (_complex_type_frame(model),
            graph_two_form(omega.scale(Scalar(0, 1))))


@pytest.mark.parametrize("kind", ["flat", "sign_flip", "pullback"])
@pytest.mark.parametrize("n", [2, 3])
def test_half_i_difference_draws_no_sample_point(monkeypatch, kind, n):
    L1, L2 = _gk_pair(kind, n)
    combinations = [(L1, L2), (L1, L2.conj()), (L1, L1.conj()),
                    (L2, L2.conj())]

    def no_point(*_args, **_kwargs):
        raise AssertionError("a sample point was drawn")

    monkeypatch.setattr(Model, "sample_point", no_point)
    for f1, f2 in combinations:
        got = [half_i_difference(f1, f2, random.Random(seed)).gens
               for seed in range(5)]
        assert got[0]
        assert all([g.stack() for g in gens] ==
                   [g.stack() for g in got[0]] for gens in got)
