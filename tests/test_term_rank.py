"""The nonzero pattern as an exact bound on the linear algebra.

The term rank of a matrix, the largest number of nonzero entries with no
two in one row or one column, bounds its rank at every point, so the pivot
and rank searches stop once a point reaches it; and a minor whose rows
leave one of its columns empty is zero, so the minor table returns it
without expanding it.  Neither changes a result: from the same rng state
the searches return what the full-sample loops return, and every minor,
cofactor and Cramer numerator is the one a plain Laplace expansion gives.
A constant matrix (on the t = 0 slice, one of t alone) has the same value
at every point searched, so both searches read it once and draw nothing.
"""
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

from gkdirac.linalg import (_Minors, _forward_pivots, _pivot_block,
                            _term_rank, generic_rank, mat_eval,
                            poly_adjugate, scalar_rank)
from gkdirac.model import Model, Point
from gkdirac.poly import Poly
from gkdirac.scalars import ONE, ZERO, Scalar

M = Model(2)


def _poly(coeff, z1=0, z2=0, t=0):
    """coeff * z1^a z2^b t^c on C^2."""
    if not isinstance(coeff, Scalar):
        coeff = Scalar(coeff)
    return Poly(M.n, {(z1, z2, 0, 0, t): coeff})


class _CountingModel:
    """A model that counts the points it samples."""

    def __init__(self, model):
        self.model = model
        self.points = 0

    def sample_point(self, rng, with_t=False):
        self.points += 1
        return self.model.sample_point(rng, with_t=with_t)


# ---------------------------------------------------------------------------
# The term rank
# ---------------------------------------------------------------------------

def _term_rank_brute(cols):
    """The largest k with k nonzero entries in distinct rows and columns,
    over every choice of k columns and every ordered choice of k rows."""
    nrows = len(cols[0]) if cols else 0
    for k in range(min(nrows, len(cols)), 0, -1):
        for cs in combinations(range(len(cols)), k):
            for rs in permutations(range(nrows), k):
                if all(cols[c][r] for c, r in zip(cs, rs)):
                    return k
    return 0


def test_term_rank_is_the_largest_transversal():
    rng = random.Random(1501)
    for _ in range(300):
        nrows, ncols = rng.randrange(0, 6), rng.randrange(1, 6)
        density = rng.random()
        cols = [[int(rng.random() < density) for _ in range(nrows)]
                for _ in range(ncols)]
        k = _term_rank(cols)
        assert k == _term_rank_brute(cols)
        # the same for the transpose, the rows read as columns
        if nrows:
            assert _term_rank([list(r) for r in zip(*cols)]) == k


def _sparse_matrix(rng, nrows, ncols):
    """A Poly matrix with zero entries, some entries zero at t = 0, and
    some columns repeating a multiple of another."""
    choices = [M.zero_poly(), M.zero_poly(), _poly(1), _poly(2, z1=1),
               _poly(1, z2=1) + _poly(-1), _poly(1, t=1),
               _poly(Scalar(0, 1), z1=1, t=1) + _poly(3, z2=1)]
    A = [[rng.choice(choices) for _ in range(ncols)] for _ in range(nrows)]
    if ncols > 1 and rng.random() < 0.5:
        f = rng.choice(choices[2:])
        for row in A:
            row[-1] = f.mul(row[0])
    return A


def test_term_rank_bounds_the_rank_at_every_point():
    rng = random.Random(1503)
    for _ in range(60):
        A = _sparse_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 6))
        bound = _term_rank([list(c) for c in zip(*A)])
        assert _term_rank(A) == bound
        for _ in range(4):
            pt = M.sample_point(rng, with_t=True)
            assert scalar_rank(mat_eval(A, pt)) <= bound
            assert scalar_rank(mat_eval(A, Point(pt.z, ZERO))) <= bound


# ---------------------------------------------------------------------------
# The searches stop early and return what the full loops return
# ---------------------------------------------------------------------------

def _pivot_block_full(cols, model, rng, samples=8, t_zero=False):
    """The pivot search whose only early exit is full rank."""
    nrows = len(cols[0]) if cols else 0
    ncols = len(cols)
    size = [[len(x) for x in c] for c in cols]
    col_order = sorted(range(ncols), key=lambda j: sum(size[j]))
    row_size = [sum(r) for r in zip(*size)]
    row_order = sorted(range(nrows), key=row_size.__getitem__)
    ordered = [cols[j] for j in col_order]
    best = ([], [])
    for _ in range(samples):
        pt = model.sample_point(rng, with_t=True)
        if t_zero:
            pt = Point(pt.z, ZERO)
        Mp = [[c[i].eval(pt) for c in ordered] for i in row_order]
        rows, piv = _forward_pivots(Mp)
        if len(piv) > len(best[1]):
            best = (rows, piv)
        if len(piv) == min(nrows, ncols):
            break
    pairs = sorted((col_order[c], row_order[r]) for r, c in zip(*best))
    return [r for _c, r in pairs], [c for c, _r in pairs]


def _generic_rank_full(A, model, rng, samples=5):
    """The rank over every one of ``samples`` points."""
    best = 0
    for _ in range(samples):
        pt = model.sample_point(rng, with_t=True)
        best = max(best, scalar_rank(mat_eval(A, pt)))
    return best


@pytest.mark.parametrize("t_zero", [False, True])
def test_pivot_block_is_the_full_search_result(t_zero):
    rng = random.Random(1505)
    saved = 0
    for _ in range(80):
        A = _sparse_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 6))
        cols = [list(c) for c in zip(*A)]
        seed = rng.randrange(10 ** 6)
        fast, full = _CountingModel(M), _CountingModel(M)
        got = _pivot_block(cols, fast, random.Random(seed), t_zero=t_zero)
        want = _pivot_block_full(cols, full, random.Random(seed),
                                 t_zero=t_zero)
        assert got == want
        assert fast.points <= full.points
        saved += full.points - fast.points
    assert saved  # some search stopped at the term rank


def test_generic_rank_is_the_full_search_result():
    rng = random.Random(1507)
    saved = 0
    for _ in range(80):
        A = _sparse_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 6))
        seed = rng.randrange(10 ** 6)
        fast, full = _CountingModel(M), _CountingModel(M)
        got = generic_rank(A, fast, random.Random(seed))
        want = _generic_rank_full(A, full, random.Random(seed))
        assert got == want
        assert fast.points <= full.points
        saved += full.points - fast.points
    assert saved


def _arrow():
    """4 x 4, every row and column nonzero, term rank 2: row 0 and
    column 0 hold every nonzero entry."""
    zero = M.zero_poly()
    A = [[zero] * 4 for _ in range(4)]
    A[0] = [_poly(1, z1=1), _poly(2), _poly(1, z2=1), _poly(-1, t=1)]
    for i, x in enumerate([_poly(3, z2=1), _poly(1), _poly(1, z1=1, z2=1)]):
        A[i + 1][0] = x
    return A


@pytest.mark.parametrize("A, draws",
                         [([[M.zero_poly()] * 4 for _ in range(4)], 0),
                          (_arrow(), 1)], ids=["zero", "term_rank_2"])
def test_a_deficient_pattern_draws_one_point(A, draws):
    # the all-zero matrix is constant: both searches read its values and
    # draw nothing; the arrow is not, and reaches its term rank at once
    cols = [list(c) for c in zip(*A)]
    assert _term_rank(cols) == (2 if any(map(any, A)) else 0)
    for search, full, samples in ((_pivot_block, _pivot_block_full, 8),
                                  (generic_rank, _generic_rank_full, 5)):
        args = cols if search is _pivot_block else A
        fast, slow = _CountingModel(M), _CountingModel(M)
        got = search(args, fast, random.Random(1509))
        assert got == full(args, slow, random.Random(1509))
        assert (fast.points, slow.points) == (draws, samples)


_value = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 3), Scalar(0, 1),
                          Scalar(1, -2)])


@st.composite
def _constant_matrix(draw):
    """A matrix of constant Poly entries, 1..5 by 1..5, often deficient."""
    nrows, ncols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    A = [[Poly.const(M.n, draw(_value)) for _ in range(ncols)]
         for _ in range(nrows)]
    if ncols > 1 and draw(st.booleans()):
        for row in A:  # a repeated column
            row[-1] = row[0]
    return A


@given(A=_constant_matrix(), t_terms=st.booleans(),
       seed=st.integers(0, 10 ** 6))
def test_constant_matrices_draw_nothing(A, t_terms, seed):
    cols = [list(c) for c in zip(*A)]
    fast, slow = _CountingModel(M), _CountingModel(M)
    assert generic_rank(A, fast, random.Random(seed)) == \
        _generic_rank_full(A, slow, random.Random(seed))
    for t_zero in (False, True):
        got = _pivot_block(cols, fast, random.Random(seed), t_zero=t_zero)
        assert got == _pivot_block_full(cols, slow, random.Random(seed),
                                        t_zero=t_zero)
    assert fast.points == 0 and slow.points > 0
    if t_terms:
        # t-terms on some entries, keeping their constant terms: such
        # columns are constant on the t = 0 slice only
        tcols = [[x + _poly(k + 1, t=1 + k % 2) if (j + k) % 2 else x
                  for k, x in enumerate(c)] for j, c in enumerate(cols)]
        for t_zero in (True, False):
            got = _pivot_block(tcols, fast, random.Random(seed),
                               t_zero=t_zero)
            assert got == _pivot_block_full(tcols, slow, random.Random(seed),
                                            t_zero=t_zero)
            # off the slice they are not constant, and the search samples
            constant = all(x.is_constant() for c in tcols for x in c)
            assert (fast.points == 0) == (t_zero or constant)


# ---------------------------------------------------------------------------
# The pruned minor table against an unpruned Laplace expansion
# ---------------------------------------------------------------------------

def _det_laplace(A, tmax):
    """Laplace expansion along the first column, every term expanded."""
    if not A:
        return Poly.const(M.n, ONE)
    terms = []
    for i, row in enumerate(A):
        sub = [r[1:] for k, r in enumerate(A) if k != i]
        term = row[0].mul(_det_laplace(sub, tmax), tmax=tmax)
        terms.append(-term if i % 2 else term)
    return Poly.sum(M.n, terms)


def _submatrix(A, rows, cols):
    return [[A[i][j] for j in cols] for i in rows]


_entry = st.lists(
    st.tuples(st.sampled_from([1, -1, 2, Fraction(1, 3), Scalar(0, 1)]),
              st.integers(0, 1), st.integers(0, 1), st.integers(0, 2)),
    max_size=2)


@st.composite
def _sparse_square(draw):
    """A square Poly matrix of size 1..4, most entries zero, with t."""
    size = draw(st.integers(1, 4))
    A = []
    for _ in range(size):
        row = []
        for _ in range(size):
            terms = draw(_entry) if draw(st.integers(0, 2)) == 0 else []
            row.append(Poly.sum(M.n, (_poly(c, a, b, t)
                                      for c, a, b, t in terms)))
        A.append(row)
    b = [Poly.sum(M.n, (_poly(c, a, b_, t) for c, a, b_, t in draw(_entry)))
         for _ in range(size)]
    return A, b


@pytest.mark.parametrize("tmax", [None, 2])
@given(scene=_sparse_square())
def test_pruned_minors_are_the_laplace_minors(tmax, scene):
    A, b = scene
    size = len(A)
    table = _Minors(A, M.n, tmax)
    for k in range(size + 1):
        for rows in combinations(range(size), k):
            R = sum(1 << i for i in rows)
            for cols in combinations(range(size), k):
                C = sum(1 << j for j in cols)
                want = _det_laplace(_submatrix(A, rows, cols), tmax)
                assert table.minor(R, C) == want
    cof = [[None] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            d = _det_laplace(_submatrix(
                A, [r for r in range(size) if r != i],
                [c for c in range(size) if c != j]), tmax)
            cof[i][j] = -d if (i + j) % 2 else d
    adj = [[cof[i][j] for i in range(size)] for j in range(size)]
    assert table.adjugate() == adj
    assert poly_adjugate(A, tmax=tmax) == adj
    assert table.det() == _det_laplace(A, tmax)
    nums = table.numerators(b)
    assert nums == [Poly.sum(M.n, (bi.mul(cof[i][j], tmax=tmax)
                                   for i, bi in enumerate(b)))
                    for j in range(size)]


def test_a_minor_with_an_empty_column_is_not_expanded():
    # column 1 is nonzero only in row 0, so every minor on columns {0, 1}
    # without row 0 is zero at once and never reaches the memo
    A = [[_poly(1, z1=1), _poly(2), _poly(1)],
         [_poly(1), M.zero_poly(), _poly(1, z2=1)],
         [_poly(3, t=1), M.zero_poly(), _poly(-1)]]
    table = _Minors(A, M.n)
    assert not table.minor(0b110, 0b011)
    assert (0b110, 0b011) not in table.memo
    assert table.det() == _det_laplace(A, None)
    assert all(R & 1 for R, C in table.memo if C & 0b010)
