"""Sparse routes at sample points and in the Dirac-frame combinations.

The point layer and the frame combinations visit only nonzero entries:
``scalar_rref`` normalises and eliminates over the pivot row's nonzero
entries, ``PointDirac.intersect`` forms each entry as one sum of nonzero
products, ``point_pairing`` adds only nonzero products, ``dirac_sum``
forms each component as one ``Poly.sum`` of nonzero products, and
``Poly.mul`` takes a constant or a single-term operand without the pair
walk.  Each is compared here with the dense route it replaced, kept below
as a reference: the values, and where the route promises it the term
order, must be the same.
"""
import random
from fractions import Fraction
from functools import reduce
from operator import or_
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from gkdirac import frames, linalg
from gkdirac.errors import SingularityError, UnsupportedSceneError
from gkdirac.frames import (DiracFrame, GVField, PointDirac, dirac_sum,
                            point_pairing)
from gkdirac.linalg import (_Minors, scalar_inverse, scalar_kernel,
                            scalar_rref, scalar_solve)
from gkdirac.model import Model
from gkdirac.poly import Poly, _FIELD, _LIMIT, _layout, _reduce
from gkdirac.scalars import ONE, ZERO, Scalar

PLAIN, PARAM = Model(2), Model(2, param=True)
MODELS = st.sampled_from([PLAIN, PARAM])

# a Q(i) entry: zero half of the time
_SCALARS = st.one_of(
    st.just(ZERO),
    st.builds(lambda a, b, d: Scalar(Fraction(a, d), Fraction(b, d)),
              st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3)))


# ---------------------------------------------------------------------------
# the dense routes replaced, kept as references
# ---------------------------------------------------------------------------

def _rref_reference(rows):
    """The former ``scalar_rref``: every entry of a row is rescaled and
    eliminated."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def _point_pairing_reference(model, a, b):
    dim = model.dim
    acc = ZERO
    for i in range(dim):
        acc = acc + a[dim + i] * b[i] + b[dim + i] * a[i]
    return acc * Scalar(Fraction(1, 2))


def _intersect_reference(p, q):
    """The former ``PointDirac.intersect``: the whole column is rebuilt
    once per kernel coefficient."""
    if not p.columns or not q.columns:
        return []
    r1 = len(p.columns)
    rows = [[col[i] for col in p.columns] + [-col[i] for col in q.columns]
            for i in range(2 * p.model.dim)]
    out = []
    for v in scalar_kernel(rows):
        col = [ZERO] * (2 * p.model.dim)
        for j in range(r1):
            if not v[j].is_zero():
                col = [a + v[j] * b for a, b in zip(col, p.columns[j])]
        if any(col):
            out.append(col)
    return out


def _dirac_sum_reference(f1, f2, rng, tmax=None):
    """The former ``dirac_sum``: a chain of ``GVField`` sums of
    ``GVField.poly_mul`` products, truncated at the end."""
    model = f1.model
    dim = model.dim
    r1, r2 = len(f1), len(f2)
    A = [[f1.gens[j].vec[i] for j in range(r1)] +
         [-f2.gens[j].vec[i] for j in range(r2)] for i in range(dim)]
    basis = linalg.kernel_certificate(A, model, rng, tmax=tmax)
    gens = []
    for v in basis:
        g = GVField(model)
        for j in range(r1):
            if v[j]:
                g = g + f1.gens[j].poly_mul(v[j], tmax=tmax)
        covonly = GVField(model)
        for j in range(r2):
            if v[r1 + j]:
                covonly = covonly + GVField(
                    model, cov=[c.mul(v[r1 + j], tmax=tmax)
                                for c in f2.gens[j].cov])
        g = (g + covonly).t_truncate(tmax)
        if not g.is_zero():
            gens.append(g)
    return gens


def _pair_walk(p, q, tmax=None):
    """The former ``Poly.mul``: every term pair within ``tmax``."""
    n = p.n
    if not p._c or not q._c:
        return Poly.zero(n)
    right = [(k, a, b) for k, (a, b) in q._c.items()]
    acc = {}
    for e1, (a1, b1) in p._c.items():
        for e2, a2, b2 in right:
            if tmax is not None and (e1 & _FIELD) + (e2 & _FIELD) > tmax:
                continue
            e = e1 + e2
            s = acc.get(e)
            if s is None:
                acc[e] = [a1 * a2 - b1 * b2, a1 * b2 + b1 * a2]
            else:
                s[0] += a1 * a2 - b1 * b2
                s[1] += a1 * b2 + b1 * a2
    if reduce(or_, acc, 0) & _layout(n)[1]:
        raise UnsupportedSceneError("packed limit")
    return _reduce(n, acc, p.d * q.d)


def _same(p, q):
    """Equal values, and the terms in the same order."""
    assert p == q
    assert list(p.terms.items()) == list(q.terms.items())


# ---------------------------------------------------------------------------
# scalar_rref and the solvers on it
# ---------------------------------------------------------------------------

@st.composite
def _sparse_matrices(draw):
    """A Q(i) matrix, half its entries zero, with a zero row, a zero column
    or a dependent row added on request."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    m = [[draw(_SCALARS) for _ in range(ncols)] for _ in range(nrows)]
    extras = draw(st.sets(st.sampled_from(["zero_row", "zero_col",
                                           "dependent"])))
    if "zero_col" in extras:
        c = draw(st.integers(0, ncols - 1))
        for row in m:
            row[c] = ZERO
    if "dependent" in extras:
        i, j = draw(st.integers(0, nrows - 1)), draw(st.integers(0, nrows - 1))
        f = draw(_SCALARS)
        m.append([a + f * b for a, b in zip(m[i], m[j])])
    if "zero_row" in extras:
        m.insert(draw(st.integers(0, len(m))), [ZERO] * ncols)
    return m


@given(_sparse_matrices())
def test_scalar_rref_matches_the_dense_reduction(m):
    before = [list(r) for r in m]
    red, piv = scalar_rref(m)
    ref_red, ref_piv = _rref_reference(m)
    assert piv == ref_piv
    assert red == ref_red
    assert m == before  # the input rows are not written


@given(_sparse_matrices(), st.data())
def test_solvers_on_the_sparse_reduction_match_the_dense_one(m, data):
    rhs = [data.draw(_SCALARS) for _ in m]
    square = [row[:len(m)] + [ZERO] * (len(m) - len(row)) for row in m]
    got = (scalar_kernel(m), scalar_solve(m, rhs))
    with mock.patch.object(linalg, "scalar_rref", _rref_reference):
        want = (scalar_kernel(m), scalar_solve(m, rhs))
        try:
            inv_want = scalar_inverse(square)
        except ZeroDivisionError:
            inv_want = None
    assert got == want
    if inv_want is None:
        with pytest.raises(ZeroDivisionError):
            scalar_inverse(square)
    else:
        assert scalar_inverse(square) == inv_want


def test_scalar_rref_on_an_empty_matrix():
    assert scalar_rref([]) == ([], [])


# ---------------------------------------------------------------------------
# the fibre intersection and pairing
# ---------------------------------------------------------------------------

@st.composite
def _point_diracs(draw, model, max_cols=4):
    size = 2 * model.dim
    cols = draw(st.lists(st.lists(_SCALARS, min_size=size, max_size=size),
                         max_size=max_cols))
    if cols and draw(st.booleans()):
        cols.append(list(cols[0]))  # a repeated column: rank loss
    return PointDirac(model, cols)


@given(MODELS.flatmap(lambda m: st.tuples(_point_diracs(m),
                                          _point_diracs(m))))
def test_intersect_matches_the_column_rebuilding_reference(pair):
    p, q = pair
    assert p.intersect(q).columns == _intersect_reference(p, q)


@given(MODELS.flatmap(lambda m: st.tuples(
    st.just(m), *[st.lists(_SCALARS, min_size=2 * m.dim,
                           max_size=2 * m.dim)] * 2)))
def test_point_pairing_matches_the_dense_sum(args):
    model, a, b = args
    assert point_pairing(model, a, b) == _point_pairing_reference(model, a, b)


# ---------------------------------------------------------------------------
# dirac_sum
# ---------------------------------------------------------------------------

_COEFFS = st.sampled_from([Scalar(1), Scalar(-1), Scalar(2),
                           Scalar(Fraction(1, 2)), Scalar(0, 1),
                           Scalar(1, -1)])


def _monomials(n):
    """One term of degree at most 1 in each z and zbar, at most 2 in t."""
    term = st.tuples(_COEFFS, *[st.integers(0, 1)] * (2 * n),
                     st.integers(0, 2))
    return term.map(lambda t: Poly(n, {tuple(t[1:]): t[0]}))


def _polys(n):
    """Zero a third of the time; else a sum of up to three monomials."""
    nonzero = st.lists(_monomials(n), min_size=1, max_size=3).map(
        lambda ps: Poly.sum(n, ps))
    return st.one_of(st.just(Poly.zero(n)), nonzero, nonzero)


@st.composite
def _frames(draw, model, graph):
    """A graph-like frame (unit vector parts, as many generators as legs)
    or one to three generators with arbitrary sparse components."""
    n, dim = model.n, model.dim
    column = st.lists(_polys(n), min_size=dim, max_size=dim)
    if graph:
        gens = []
        for k in range(dim):
            vec = [model.poly(1) if i == k else Poly.zero(n)
                   for i in range(dim)]
            gens.append(GVField(model, vec, draw(column)))
        return DiracFrame(model, gens, label="graph")
    gens = [GVField(model, draw(column), draw(column))
            for _ in range(draw(st.integers(1, 3)))]
    return DiracFrame(model, gens, label="sparse")


def _settle(f, *args):
    try:
        return f(*args)
    except SingularityError:
        return SingularityError


@given(MODELS, st.sampled_from([None, 2]), st.booleans(), st.data(),
       st.integers(0, 2 ** 16))
def test_dirac_sum_matches_the_gvfield_chain(model, tmax, graph, data, seed):
    f1 = data.draw(_frames(model, True))
    f2 = data.draw(_frames(model, graph))
    rng, ref_rng = random.Random(seed), random.Random(seed)
    got = _settle(dirac_sum, f1, f2, rng, tmax)
    want = _settle(_dirac_sum_reference, f1, f2, ref_rng, tmax)
    assert rng.getstate() == ref_rng.getstate()
    if want is SingularityError:
        assert got is SingularityError
        return
    assert len(got.gens) == len(want)
    for g, h in zip(got.gens, want):
        assert g.vec == h.vec
        assert g.cov == h.cov


def test_dirac_sum_adds_no_fields_and_multiplies_no_zero_component():
    n = PARAM.n
    z1, t = Poly.z(n, 0), Poly.t(n)
    f1 = DiracFrame(PARAM, [
        GVField(PARAM, [PARAM.poly(1) if i == k else Poly.zero(n)
                        for i in range(PARAM.dim)],
                [z1 if i == (k + 1) % PARAM.dim else Poly.zero(n)
                 for i in range(PARAM.dim)])
        for k in range(PARAM.dim)])
    f2 = DiracFrame(PARAM, [
        GVField(PARAM, [t * z1 if i == k else Poly.zero(n)
                        for i in range(PARAM.dim)],
                [PARAM.poly(1) if i == k else Poly.zero(n)
                 for i in range(PARAM.dim)])
        for k in range(PARAM.dim)])
    # the kernel basis is formed outside the count, so that every product
    # counted is one of the combination step's
    A = [[g.vec[i] for g in f1] + [-g.vec[i] for g in f2]
         for i in range(PARAM.dim)]
    basis = linalg.kernel_certificate(A, PARAM, random.Random(5), tmax=2)
    nonzero = 0  # the products of nonzero coefficients and components
    for v in basis:
        for j, (x, g) in enumerate(zip(v, f1.gens + f2.gens)):
            if x:
                comps = g.vec + g.cov if j < len(f1) else g.cov
                nonzero += sum(1 for c in comps if c)
    calls = {"add": 0, "poly_mul": 0, "zero_products": 0, "products": 0}
    real_mul = Poly.mul

    def counting_mul(self, other, tmax=None):
        calls["products"] += 1
        if not self or not other:
            calls["zero_products"] += 1
        return real_mul(self, other, tmax)

    def count(name, real):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapped

    with mock.patch.object(frames, "kernel_certificate",
                           lambda *args, **kwargs: basis), \
            mock.patch.object(Poly, "mul", counting_mul), \
            mock.patch.object(GVField, "__add__",
                              count("add", GVField.__add__)), \
            mock.patch.object(GVField, "poly_mul",
                              count("poly_mul", GVField.poly_mul)):
        out = dirac_sum(f1, f2, random.Random(5), tmax=2)
    assert [g.stack() for g in out] == [
        g.stack() for g in _dirac_sum_reference(f1, f2, random.Random(5), 2)]
    assert len(out) == PARAM.dim
    assert calls == {"add": 0, "poly_mul": 0, "zero_products": 0,
                     "products": nonzero}


# ---------------------------------------------------------------------------
# Poly.mul without the pair walk
# ---------------------------------------------------------------------------

_TMAX = st.sampled_from([None, 0, 1, 2])


def _constants(n):
    return st.one_of(st.just(Poly.const(n, ONE)),
                     st.builds(lambda c: Poly.const(n, c),
                               _SCALARS.filter(bool)))


@given(_polys(2), _constants(2), _TMAX)
def test_a_constant_operand_scales_the_other(p, c, tmax):
    _same(p.mul(c, tmax=tmax), _pair_walk(p, c, tmax))
    _same(c.mul(p, tmax=tmax), _pair_walk(c, p, tmax))


@given(_monomials(2), _monomials(2), _TMAX)
def test_two_single_terms_make_one_pair(p, q, tmax):
    _same(p.mul(q, tmax=tmax), _pair_walk(p, q, tmax))


@given(_polys(2), _polys(2), _TMAX)
def test_products_match_the_pair_walk(p, q, tmax):
    _same(p.mul(q, tmax=tmax), _pair_walk(p, q, tmax))


def test_a_product_cut_by_tmax_keeps_the_terms_order():
    n = 2
    z1, z2, t = Poly.z(n, 0), Poly.z(n, 1), Poly.t(n)
    p = t * t + z2 + t * z1 + Poly.const(n, Scalar(3))
    half = Poly.const(n, Scalar(Fraction(1, 2), 1))
    for tmax in (None, 0, 1, 2):
        _same(p.mul(half, tmax=tmax), _pair_walk(p, half, tmax))
        _same(half.mul(p, tmax=tmax), _pair_walk(half, p, tmax))
    assert list(p.mul(half, tmax=1).terms) == [(0, 1, 0, 0, 0),
                                                 (1, 0, 0, 0, 1),
                                                 (0, 0, 0, 0, 0)]
    assert p.mul(Poly.const(n, ONE)) is p  # a unit hands the operand back
    _same(p.mul(Poly.const(n, ONE), tmax=1), p.t_truncate(1))
    assert not (t * t).mul(t, tmax=2)
    _same((t * z1).mul(Poly.const(n, 2) * t * t, tmax=3),
          _pair_walk(t * z1, Poly.const(n, 2) * t * t, 3))


def test_single_terms_keep_the_packed_limit():
    n = 2
    half = _LIMIT // 2
    for index in range(2 * n + 1):
        p = Poly.var(n, index, half)
        with pytest.raises(UnsupportedSceneError):
            p.mul(p)
        with pytest.raises(UnsupportedSceneError):
            _pair_walk(p, p)
        # a constant moves no key
        _same(p.mul(Poly.const(n, Scalar(2))), p.scale(2))
    t = Poly.t(n, half)
    # pairs beyond tmax are never visited, so they never reach the limit
    assert not t.mul(t, tmax=3) and not _pair_walk(t, t, 3)


# ---------------------------------------------------------------------------
# Scalar truthiness and the minor table's cofactors
# ---------------------------------------------------------------------------

@given(st.fractions(max_denominator=9), st.fractions(max_denominator=9))
def test_scalar_truthiness_is_being_nonzero(re, im):
    s = Scalar(re, im)
    assert bool(s) is (not s.is_zero()) is (re != 0 or im != 0)


@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.lists(st.lists(_polys(2), min_size=k, max_size=k),
             min_size=k, max_size=k),
    st.lists(_polys(2), min_size=k, max_size=k))), _TMAX)
def test_numerators_form_only_the_cofactors_they_read(args, tmax):
    A, b = args
    table = _Minors(A, 2, tmax)
    nums = table.numerators(b)
    support = {i for i, x in enumerate(b) if x}
    assert {i for _j, i in table._adj} <= support
    adj = _Minors(A, 2, tmax).adjugate()
    for j, row in enumerate(adj):
        assert nums[j] == Poly.sum(2, (b[i].mul(row[i], tmax=tmax)
                                       for i in support))
    assert table.det() == _Minors(A, 2, tmax).det()
    assert table.adjugate() == adj
