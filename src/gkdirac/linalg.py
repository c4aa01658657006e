"""Exact linear algebra over Q(i) scalars and polynomial matrices.

Three layers:

* Scalar matrices (lists of lists of :class:`~gkdirac.scalars.Scalar`):
  Gauss-Jordan reduction with exact pivots, giving rank, solve, kernel,
  inverse and determinant with no rounding anywhere.

* Polynomial matrices (lists of lists of :class:`~gkdirac.poly.Poly`):
  arithmetic helpers, truncated t-series inverses, generic rank via random
  evaluation, and exact solves.  A constant matrix takes one elimination
  over Q(i), checked on its values, with no sample point, for its rank,
  its pivot block, its kernel and its inverse alike; every other
  solve reads one minor table (:class:`_Minors`), the memoised Laplace
  expansion of a square block keyed by a row and a column mask, whose
  sub-minors the determinant, the adjugate and each Cramer numerator
  ``sum_i b_i cof(i, j)`` of the span and kernel certificates share.
  :func:`mat_div_right` is the one division path, for every kind of divisor.
  A certificate is an exact polynomial identity, so a positive answer
  never depends on the sampled points; sampling is only used to locate a
  pivot block quickly.  The search tries the rows and columns with the
  fewest terms first, so a unit or sparse block (the covector block of a
  graph frame, the unit columns of a sum) is preferred to a dense one:
  any invertible block gives a valid identity, and a sparse one gives a
  small ``den`` and small numerators.

  The nonzero pattern bounds this work exactly.  The term rank (the
  largest set of nonzero entries with no two in one row or one column)
  bounds the rank at every point, so a pivot or rank search stops drawing
  points once it reaches it; and a minor whose rows leave one of its
  columns empty is zero, so the table returns it without expanding it.

* Prepared spans: a :class:`Span` is one generator set, built once and
  queried many times.  The first query finds its pivot block and keeps
  the block's rows, its minor table and ``den = det(D)``; every query
  reads ``nums = table.numerators(w[rows])`` from cofactors earlier
  queries memoised, and ``Span._solve``, the one identity loop, checks
  ``den*w = sum nums_j g_j`` on every coordinate.  Both certificates
  answer through it: :func:`span_certificate` decides membership (a
  failed identity with no witness among 16 samples drops the block), and
  :func:`kernel_certificate` solves over a span of its matrix's columns.

The univariate Sturm-chain utilities at the bottom isolate real roots of
exact rational polynomials over integer primitive coefficient lists; they
drive the validity-interval reports for one-parameter families.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import (CertificateError, SingularityError,
                     UnsupportedSceneError)
from .model import Point
from .poly import Poly
from .scalars import Scalar, ZERO, ONE

__all__ = [
    "scalar_rref",
    "scalar_rank",
    "scalar_solve",
    "scalar_kernel",
    "scalar_inverse",
    "scalar_det",
    "mat_zero",
    "mat_identity",
    "mat_add",
    "mat_sub",
    "mat_neg",
    "mat_scale",
    "mat_mul",
    "mat_transpose",
    "mat_apply",
    "mat_eval",
    "mat_t_truncate",
    "mat_is_zero",
    "poly_mat_inverse",
    "poly_det",
    "poly_adjugate",
    "mat_div_right",
    "generic_rank",
    "Span",
    "span_certificate",
    "kernel_certificate",
    "sturm_chain",
    "count_real_roots",
    "real_roots_in_interval",
]

_RANK_SAMPLES = 5   # points drawn for a full-rank minor, here and in frames
_PIVOT_SAMPLES = 8  # points drawn for a pivot block
_BISECT_DEPTH = 64  # bisections before an interval of several roots is kept
_ATTEMPTS = 4       # pivot searches a span or kernel certificate may run


# ---------------------------------------------------------------------------
# Scalar matrices
# ---------------------------------------------------------------------------

def scalar_rref(rows):
    """Reduced row-echelon form.  Returns (rref_rows, pivot_columns).

    Each pivot row is normalised, and eliminated from the rows that are
    nonzero in its pivot column, over its own nonzero entries only, as in
    :func:`_forward_pivots`: a zero entry of the pivot row leaves every
    entry below and above it as it is, so it is never visited.
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        inv = top[c].inverse()
        # the entries of the pivot row left of c are zero
        support = [j for j in range(c + 1, ncols) if top[j]]
        top[c] = ONE
        for j in support:
            top[j] = top[j] * inv
        for i, row in enumerate(m):
            if i != r and row[c]:
                f = row[c]
                row[c] = ZERO
                for j in support:
                    row[j] = row[j] - f * top[j]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def scalar_rank(rows) -> int:
    """The rank, by one forward elimination (no back substitution)."""
    return len(_forward_pivots([list(r) for r in rows])[1])


def _forward_pivots(M):
    """Forward elimination with row swaps, in place on the rows ``M``.

    Returns (rows, cols): the original row index of each pivot, and the
    pivot columns, the first independent ones.  The block they select is
    invertible.
    """
    nrows = len(M)
    ncols = len(M[0]) if M else 0
    order = list(range(nrows))  # original index of each working row
    rows, piv = [], []
    for c in range(ncols):
        r = len(piv)
        p = next((i for i in range(r, nrows) if M[i][c]), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        order[r], order[p] = order[p], order[r]
        top = M[r]
        inv = top[c].inverse()
        for i in range(r + 1, nrows):
            row = M[i]
            if row[c]:
                f = row[c] * inv
                for j in range(c + 1, ncols):
                    if top[j]:
                        row[j] = row[j] - f * top[j]
        rows.append(order[r])
        piv.append(c)
        if r + 1 == nrows:
            break
    return rows, piv


def scalar_solve(rows, rhs):
    """One exact solution of A x = b, or None if inconsistent."""
    if not rows:
        return [] if all(not v for v in rhs) else None
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = scalar_rref(aug)
    ncols = len(rows[0])
    if ncols in pivots:
        return None  # pivot in the rhs column
    x = [ZERO] * ncols
    for i, c in enumerate(pivots):
        x[c] = red[i][ncols]
    return x

def scalar_kernel(rows):
    """Exact basis of the right kernel of A."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = scalar_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][fc]
        basis.append(v)
    return basis


def scalar_inverse(rows):
    n = len(rows)
    aug = [list(r) + [ONE if i == j else ZERO for j in range(n)]
           for i, r in enumerate(rows)]
    red, pivots = scalar_rref(aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [r[n:] for r in red]


def scalar_det(rows) -> Scalar:
    """The product of the :func:`_forward_pivots` pivots, signed by the
    parity of the row permutation; zero when the rank is short."""
    m = [list(r) for r in rows]
    order, piv = _forward_pivots(m)
    if len(piv) < len(m):
        return ZERO
    det = ONE
    for r in range(len(m)):
        det = det * m[r][r]
    swaps = sum(a > b for i, b in enumerate(order) for a in order[:i])
    return -det if swaps % 2 else det


# ---------------------------------------------------------------------------
# Polynomial matrices (plain lists of lists of Poly)
# ---------------------------------------------------------------------------

def mat_zero(rows, cols, n):
    return [[Poly.zero(n) for _ in range(cols)] for _ in range(rows)]


def mat_identity(size, n):
    return [[Poly.const(n, ONE) if i == j else Poly.zero(n)
             for j in range(size)] for i in range(size)]


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_neg(A):
    return [[-a for a in r] for r in A]


def mat_scale(A, c):
    return [[a.scale(c) for a in r] for r in A]


def mat_mul(A, B, tmax=None):
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    n = A[0][0].n if rows and A[0] else (B[0][0].n if inner else 0)
    out = []
    for Ai in A:
        support = [(a, B[k]) for k, a in enumerate(Ai[:inner]) if a]
        out.append([Poly.sum(n, (a.mul(Bk[j], tmax=tmax)
                                 for a, Bk in support if Bk[j]))
                    for j in range(cols)])
    return out


def mat_transpose(A):
    return [list(col) for col in zip(*A)]


def mat_apply(A, vec, tmax=None):
    return [Poly.sum(row[0].n, (a.mul(v, tmax=tmax)
                                for a, v in zip(row, vec) if a and v))
            for row in A]


def mat_eval(A, point):
    return [[a.eval(point) for a in row] for row in A]


def mat_t_truncate(A, tmax):
    """Every entry mod t^{tmax+1}; ``A`` itself for None."""
    if tmax is None:
        return A
    return [[a.t_truncate(tmax) for a in row] for row in A]


def mat_is_zero(A) -> bool:
    return all(not a for row in A for a in row)


def _is_constant(A) -> bool:
    """Whether every entry is constant: the matrix then has one value, and
    so one rank and one elimination, at every point."""
    return all(a.is_constant() for row in A for a in row)


def _is_t_only(A) -> bool:
    """Whether every entry depends on t alone (each t-coefficient is
    constant): the matrix is then constant on each slice t = const."""
    return all(a.is_t_only() for row in A for a in row)


def _values(A):
    """The Q(i) values of a constant polynomial matrix."""
    return [[a.constant_value() for a in row] for row in A]


def _scalar_mul(A, B):
    """The product of two Q(i) matrices: each nonzero entry of a row of A
    meets only the nonzero entries of its row of B.  A row of A longer than
    B is read up to ``len(B)``."""
    supports = [[(j, b) for j, b in enumerate(Bk) if b] for Bk in B]
    out = []
    for row in A:
        acc = [ZERO] * (len(B[0]) if B else 0)
        for a, support in zip(row, supports):
            if a:
                for j, b in support:
                    acc[j] = acc[j] + a * b if acc[j] else a * b
        out.append(acc)
    return out


def _mat_t_blocks(A, tmax):
    """The t-coefficient blocks of a polynomial matrix: block k holds the
    t-free coefficients of t^k, for k = 0..tmax."""
    return [[[a.t_coefficient(k) for a in row] for row in A]
            for k in range(tmax + 1)]


def _mat_from_t_blocks(Bs):
    """The matrix sum_j Bs[j] t^j assembled from its t-coefficient blocks."""
    n = Bs[0][0][0].n
    tj = [Poly.t(n, j) for j in range(len(Bs))]
    return [[Poly.sum(n, (Bj[r][c].mul(tj[j]) for j, Bj in enumerate(Bs)
                          if Bj[r][c]))
             for c in range(len(Bs[0][0]))] for r in range(len(Bs[0]))]


def _mat_series_term(As, Bs, j):
    """The t^j block of (sum_i As[i] t^i)(sum_i Bs[i] t^i), namely
    sum_i As[i] Bs[j-i] over the blocks both lists hold.  Each entry is one
    ``Poly.sum``; zero entries are skipped."""
    lo, hi = max(0, j - len(Bs) + 1), min(j, len(As) - 1)
    pairs = [(As[i], Bs[j - i]) for i in range(lo, hi + 1)]
    n = As[0][0][0].n
    cols = range(len(Bs[0][0]))
    out = []
    for r in range(len(As[0])):
        support = [(a, Bb[l]) for Ab, Bb in pairs
                   for l, a in enumerate(Ab[r]) if a]
        out.append([Poly.sum(n, (a.mul(Bl[c]) for a, Bl in support if Bl[c]))
                    for c in cols])
    return out


def poly_mat_inverse(A, tmax):
    """Inverse of a square polynomial matrix as a t-series mod t^{tmax+1}.

    Requires the t-degree-0 part A0 to be a constant (z-independent)
    invertible matrix.  A constant ``A`` gets A0^{-1} at once, checked on
    its Q(i) values.  Otherwise, with N = A0^{-1}(A - A0), which has no
    t^0 term, (I + N)^{-1} is built one t-coefficient block at a time by
    the recurrence X_0 = I, X_j = -sum_{i=1..j} N_i X_{j-i}, N_i the t^i
    block of N; each block costs j block products and none is recomputed.
    Raises UnsupportedSceneError when A0 is not constant, SingularityError
    when it is singular, and CertificateError if the result fails
    ``A out = I``.
    """
    size, n = len(A), A[0][0].n
    constant = _is_constant(A)
    A0 = A if constant else _mat_t_blocks(A, 0)[0]
    if not constant and not _is_constant(A0):
        raise UnsupportedSceneError(
            "t-degree-0 block is not constant; series inverse unsupported")
    values = _values(A0)
    try:
        inv = scalar_inverse(values)
    except ZeroDivisionError as err:
        raise SingularityError(str(err)) from None
    A0inv = [[Poly.const(n, c) for c in row] for row in inv]
    if constant:  # R = 0
        if _scalar_mul(values, inv) != [[int(i == j) for j in range(size)]
                                        for i in range(size)]:
            raise CertificateError("constant inverse failed A A^{-1} = 1")
        return A0inv
    # A = A0 (I + A0^{-1} R) with R = A - A0 of t-order >= 1
    R = mat_sub(A, A0)
    Ns = _mat_t_blocks(mat_mul(A0inv, R, tmax=tmax), tmax)
    Xs = [mat_identity(size, n)]
    for j in range(1, tmax + 1):
        Xs.append(mat_neg(_mat_series_term(Ns, Xs, j)))
    out = mat_mul(_mat_from_t_blocks(Xs), A0inv, tmax=tmax)
    # exact check mod t^{tmax+1}
    if not mat_is_zero(mat_sub(mat_mul(A, out, tmax=tmax),
                               mat_identity(size, n))):
        raise CertificateError("series inverse did not converge at this order")
    return out


class _Minors:
    """The minor table of one square polynomial matrix.

    ``minor(R, C)`` is det(A[R, C]) for a row mask R and a column mask C
    with as many bits, expanded along the lowest column of C and memoised
    on (R, C), so the determinant, the cofactors and the Cramer numerators
    of one matrix share every sub-minor.  A minor is zero at once when
    some column of C has no nonzero entry in the rows R (``cmask[j]`` is
    the row mask of column j's nonzero entries); it is neither expanded
    nor kept.  Each cofactor of the signed adjugate is formed on its first
    read and kept: :func:`poly_adjugate` reads them all, :meth:`numerators`
    only those its right-hand side reaches.  With ``tmax`` the products
    are kept mod t^{tmax+1}; truncation is a ring map, so each minor is
    the truncation of the exact one.
    """

    __slots__ = ("A", "n", "tmax", "full", "memo", "cmask", "_adj")

    def __init__(self, A, n, tmax=None):
        self.A = A
        self.n = n
        self.tmax = tmax
        self.full = (1 << len(A)) - 1
        self.memo = {(0, 0): Poly.const(n, ONE)}
        self.cmask = [sum(1 << i for i, row in enumerate(A) if row[j])
                      for j in range(len(A))]
        self._adj = {}

    def minor(self, R, C):
        got = self.memo.get((R, C))
        if got is not None:
            return got
        rest = C
        while rest:
            if not self.cmask[(rest & -rest).bit_length() - 1] & R:
                return Poly.zero(self.n)
            rest &= rest - 1
        low = C & -C
        col = low.bit_length() - 1
        terms = []
        odd = False
        for i, row in enumerate(self.A):
            if not (R >> i) & 1:
                continue
            a = row[col]
            if a:
                sub = self.minor(R ^ (1 << i), C ^ low)
                if sub:
                    terms.append((-a if odd else a).mul(sub, tmax=self.tmax))
            odd = not odd
        acc = self.memo[R, C] = Poly.sum(self.n, terms)
        return acc

    def det(self) -> Poly:
        return self.minor(self.full, self.full)

    def cofactor(self, j, i):
        """``adj[j][i] = (-1)^{i+j} det(A with row i and column j removed)``,
        formed on first read and kept."""
        got = self._adj.get((j, i))
        if got is None:
            full = self.full
            d = self.minor(full ^ (1 << i), full ^ (1 << j))
            got = self._adj[j, i] = -d if d and (i + j) % 2 else d
        return got

    def adjugate(self):
        """The signed adjugate, every cofactor read."""
        size = len(self.A)
        return [[self.cofactor(j, i) for i in range(size)]
                for j in range(size)]

    def numerators(self, b):
        """Cramer numerators of A x = b: ``nums[j] = sum_i b_i adj[j][i]``,
        so that A nums = det(A) b.  Only the cofactors with b_i nonzero
        are read (and formed), and only the pairs with ``adj[j][i]``
        nonzero as well are multiplied."""
        support = [(i, bi) for i, bi in enumerate(b) if bi]
        n, tmax, cof = self.n, self.tmax, self.cofactor
        return [Poly.sum(n, (bi.mul(c, tmax=tmax) for i, bi in support
                             for c in (cof(j, i),) if c))
                for j in range(len(self.A))]


def poly_det(A, tmax=None) -> Poly:
    """Determinant, read from the minor table of ``A``."""
    return _Minors(A, A[0][0].n if A else 0, tmax).det()


def poly_adjugate(A, tmax=None):
    """Adjugate matrix: adj(A)[j][i] = (-1)^{i+j} det(A with row i, col j removed).

    Satisfies A * adj(A) = det(A) * Id exactly, which lets callers invert a
    polynomial matrix whenever they can divide by its determinant.  Every
    cofactor is read from one minor table.
    """
    return _Minors(A, A[0][0].n if A else 0, tmax).adjugate()


def _inverse_quotient(Num, Den, tmax):
    """Num * Den^{-1} by :func:`poly_mat_inverse`, or None where that route
    does not apply.  The inverse is checked, Den Den^{-1} = 1, so it is a
    left inverse too (square matrices over a commutative ring): the
    quotient Q satisfies Q Den = Num."""
    if tmax is None and not _is_constant(Den):
        return None
    try:
        inv = poly_mat_inverse(Den, tmax or 0)
    except (SingularityError, UnsupportedSceneError):
        return None  # the t^0 block is singular, or is not constant
    return mat_mul(Num, inv, tmax=tmax)


def _adjugate_quotient(Num, Den, tmax):
    """``(Num adj(Den) / det(Den), None)``, or ``(Num adj(Den), det(Den))``
    where that division is not exact; SingularityError when det(Den) is 0.
    """
    det = poly_det(Den)
    if not det:
        raise SingularityError("matrix is singular", determinant="0")
    N = mat_mul(Num, poly_adjugate(Den))
    try:
        return mat_t_truncate([[x.divexact(det) for x in row] for row in N],
                              tmax), None
    except ArithmeticError:
        return N, det


def _not_polynomial(det):
    return UnsupportedSceneError(
        "matrix division is not polynomial; determinant = " + det.render())


def mat_div_right(Num, Den, tmax=None):
    """Num * Den^{-1} for polynomial matrices, exact or raising.

    This is the one division path: a scalar denominator is a 1 x 1 ``Den``.
    A constant ``Den``, or with ``tmax`` one whose t^0 block is constant,
    is inverted by :func:`poly_mat_inverse` (for a constant ``Den`` that is
    one Q(i) elimination) and ``Num`` is multiplied by the inverse.
    Otherwise the division happens after forming Num * adj(Den), so
    scalings of the columns of ``Den`` (matched in ``Num``) cancel before
    any divisibility question arises.  With ``tmax`` the result is kept mod
    t^{tmax+1}.  Raises SingularityError when det(Den) is zero,
    UnsupportedSceneError when the quotient is not polynomial, and
    CertificateError when the inverse fails its check.
    """
    out = _inverse_quotient(Num, Den, tmax)
    if out is None:
        out, det = _adjugate_quotient(Num, Den, tmax)
        if det is not None:
            raise _not_polynomial(det)
    return out


# ---------------------------------------------------------------------------
# Generic rank and symbolic certificates
# ---------------------------------------------------------------------------

def _term_rank(cols):
    """The term rank of the matrix with columns ``cols`` (an entry counts
    as nonzero when it is truthy): the largest number of nonzero entries
    with no two in one row or one column, a maximum bipartite matching
    grown by augmenting paths.  It bounds the rank at every point."""
    support = [[i for i, x in enumerate(c) if x] for c in cols]
    owner = {}  # row -> the column matched to it

    def augment(j, seen):
        for i in support[j]:
            if i not in seen:
                seen.add(i)
                if i not in owner or augment(owner[i], seen):
                    owner[i] = j
                    return True
        return False

    return sum(augment(j, set()) for j in range(len(cols)))


def generic_rank(A, model, rng):
    """Maximal rank of a polynomial matrix over random exact sample points,
    t among the coordinates.

    A constant ``A`` has the same value at every point, so the rank of its
    Q(i) values is exact and no point is drawn from ``rng``.  Otherwise no
    point can give more than the term rank of ``A``, so the search stops
    once a point reaches it; from the same ``rng`` state the rank is the
    one all ``_RANK_SAMPLES`` points give.
    """
    if _is_constant(A):
        return scalar_rank(_values(A))
    bound = _term_rank(A)
    best = 0
    for _ in range(_RANK_SAMPLES):
        pt = model.sample_point(rng, with_t=True)
        best = max(best, scalar_rank(mat_eval(A, pt)))
        if best == bound:
            break
    return best


def _pivot_block(cols, model, rng, t_zero=False):
    """Locate a maximal independent set of columns and matching rows.

    ``cols`` is a list of column vectors (lists of Poly).  Returns
    (row_idx, col_idx) such that the square submatrix is generically
    invertible, using evaluation at random points to pick the block.
    With ``t_zero`` the sample points sit on the t = 0 slice, so the
    block's determinant has a nonzero leading series coefficient.

    The rows and the columns are first ordered by their total term count,
    fewest first (a zero entry counts 0, ties keep the original order).
    At each point one forward elimination (:func:`_forward_pivots`) of the
    reordered matrix picks the first independent columns, and the row of
    each pivot; the rows and columns found form a block that is invertible
    at that point.  Because the sparsest lines are tried first, a unit
    block whose lines are the sparsest is taken (the covector block of a
    graph frame whose vector rows hold more than one term each, the unit
    columns of ``[D | -I]``), so ``den`` is a constant there; elsewhere
    the Cramer determinant and numerators read from the block stay small.
    The columns are returned in ascending order, each row next to the
    column it pivots.

    No point can give a block larger than the term rank of the nonzero
    pattern (:func:`_term_rank`), so the search stops at the first point
    that reaches it: the block is the one all ``_PIVOT_SAMPLES`` points
    give, from fewer points.

    Columns that are constant on the points searched (constant, or with
    ``t_zero`` of t alone, as on the unit covector rows of a family) give
    every point the same matrix, their constant terms, and so the same
    elimination: one :func:`_forward_pivots` on those values is the block
    the sampled search returns, with no point drawn from ``rng``.
    """
    nrows = len(cols[0]) if cols else 0
    size = [[len(x) for x in c] for c in cols]
    col_order = sorted(range(len(cols)), key=lambda j: sum(size[j]))
    row_size = [sum(r) for r in zip(*size)]
    row_order = sorted(range(nrows), key=row_size.__getitem__)
    ordered = [cols[j] for j in col_order]
    if _is_t_only(cols) if t_zero else _is_constant(cols):
        best = _forward_pivots([[c[i].constant_term() for c in ordered]
                                for i in row_order])
    else:
        bound = _term_rank(size)
        best = ([], [])
        for _ in range(_PIVOT_SAMPLES):
            pt = model.sample_point(rng, with_t=True)
            if t_zero:
                pt = Point(pt.z, ZERO)
            M = [[c[i].eval(pt) for c in ordered] for i in row_order]
            rows, piv = _forward_pivots(M)
            if len(piv) > len(best[1]):
                best = (rows, piv)
            if len(piv) == bound:
                break
    pairs = sorted((col_order[c], row_order[r]) for r, c in zip(*best))
    return [r for _c, r in pairs], [c for c, _r in pairs]


class Span:
    """The span of one list of generator columns, prepared for many
    membership queries (see :func:`span_certificate`).

    It holds the generators, the model and ``tmax``.  The first query
    that needs it runs the pivot search and keeps the pivot rows, the
    selected generators, the minor table of the pivot block ``D`` and
    ``den = det(D)``; later queries read the cofactors that earlier ones
    memoised in that table.  The search (:func:`_pivot_block`, on the
    t = 0 slice with ``tmax``) tries the sparsest rows and generators
    first, so on a graph frame ``D`` is in general the unit covector
    block and ``den`` a constant.  A query whose identity fails and finds no
    witness point drops the block, so the next attempt searches afresh.
    """

    __slots__ = ("generators", "model", "tmax", "_block")

    def __init__(self, generators, model, tmax=None):
        self.generators = generators
        self.model = model
        self.tmax = tmax
        self._block = None

    def _pivot(self, rng):
        """The kept block ``(rows, cols, sel_gens, table, den)``, searched
        for when there is none; None (and nothing kept) when the block
        found is singular, or with ``tmax`` not a t-series unit."""
        if self._block is not None:
            return self._block
        # with truncation the denominator must be a series unit, so pick
        # the pivot block on the t = 0 slice
        rows, cols_sel = _pivot_block(self.generators, self.model, rng,
                                      t_zero=(self.tmax is not None))
        n = self.model.n
        sel_gens = [self.generators[j] for j in cols_sel]
        D = [[g[i] for g in sel_gens] for i in rows]
        table = _Minors(D, n, self.tmax)
        den = table.det()  # the constant 1 when the block is empty
        if not den or (self.tmax is not None and not den.t_coefficient(0)):
            return None
        self._block = (rows, cols_sel, sel_gens, table, den)
        return self._block

    def _solve(self, w):
        """``(den, nums)`` from the kept block, with ``nums`` over all
        generators, once ``den*w = sum nums_j g_j`` holds on every
        coordinate (mod t^{tmax+1} with ``tmax``); None when it fails.
        This is the one place a Cramer identity is checked."""
        rows, cols_sel, sel_gens, table, den = self._block
        n, tmax = self.model.n, self.tmax
        nums = table.numerators([w[ri] for ri in rows])
        for i, wi in enumerate(w):
            rhs = Poly.sum(n, (x.mul(g[i], tmax=tmax)
                               for x, g in zip(nums, sel_gens)
                               if x and g[i]))
            if den.mul(wi, tmax=tmax) != rhs:
                return None
        full_nums = [Poly.zero(n)] * len(self.generators)
        for j, cj in enumerate(cols_sel):
            full_nums[cj] = nums[j]
        return den, full_nums


def span_certificate(span, w, rng):
    """Decide whether w lies in a :class:`Span` over the rational-function
    field (or the t-series ring when the span has a ``tmax``).

    ``w`` is a column vector of Poly.  Returns ``(True, (den, nums))``
    with the exact identity den*w = sum nums[i]*g_i (den a Poly, checked
    symbolically on every coordinate; mod t^{tmax+1} when truncating), or
    ``(False, witness_point)`` where evaluation shows w outside the span.

    When ``tmax`` is set the denominator must be invertible as a t-series
    (nonzero constant coefficient), so the identity certifies membership
    over exact series, not just generically.  After ``_ATTEMPTS`` (4) pivot
    searches that settle nothing it raises SingularityError.

    An empty pivot block (no generators, or none that is nonzero on the
    points searched) has ``den = 1`` and no numerators, so its identity
    holds for w = 0 alone; any other w goes to the witness search, which
    refutes it when every generator vanishes identically.
    """
    generators, model = span.generators, span.model
    for _ in range(_ATTEMPTS):
        if span._pivot(rng) is None:
            continue  # singular pivot block; search again
        cert = span._solve(w)
        if cert is not None:
            return True, cert
        # symbolic identity failed: find a concrete witness point
        for _ in range(16):
            pt = model.sample_point(rng, with_t=True)
            M = [[g[i].eval(pt) for g in generators] for i in range(len(w))]
            b = [x.eval(pt) for x in w]
            if scalar_solve(M, b) is None:
                return False, pt
        span._block = None  # the block may be too small: search again
    raise SingularityError("could not settle span membership; matrix may be "
                           "rank-degenerate along the sampled locus")


def kernel_certificate(A, model, rng, tmax=None):
    """Symbolic basis of the generic right kernel of a polynomial matrix.

    Returns a list of column vectors of Poly with A v = 0 exactly (mod
    t^{tmax+1} when truncating), one for each generic kernel dimension.
    A constant ``A`` (whose rank is the same over any field) gets the
    seed-free :func:`scalar_kernel` of its values, checked as A v = 0.
    Otherwise the columns of ``A`` form one untruncated :class:`Span`;
    each column outside its pivot block gives ``v = den*e_fc - nums`` from
    the exact identity ``den*A[:, fc] = sum nums_j A[:, j]``.  The block
    takes the sparsest columns first, so unit columns (``[D | -I]``) are
    pivots and ``den`` is a constant there.  A failed identity drops the
    block, and the next attempt searches afresh; after ``_ATTEMPTS`` (4)
    it raises SingularityError.
    """
    if _is_constant(A):  # an empty A too
        values = _values(A)
        basis = scalar_kernel(values)
        if any(map(any, _scalar_mul(values, mat_transpose(basis)))):
            raise CertificateError("constant kernel vector fails A v = 0")
        return [[Poly.const(model.n, x) for x in v] for v in basis]
    cols = mat_transpose(A)
    span = Span(cols, model)
    for _ in range(_ATTEMPTS):
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
            # strip a common t-power so the generator survives t-series use
            val = min((x.t_valuation() for x in v if x), default=0)
            if val > 0:
                v = [x.t_shift_down(val) if x else x for x in v]
            basis.append(v)
        else:
            return mat_t_truncate(basis, tmax)
    raise SingularityError("kernel certificate failed; matrix rank may drop "
                           "on the sampled locus")


# ---------------------------------------------------------------------------
# Sturm chains for exact real-root isolation
# ---------------------------------------------------------------------------

def _primitive(c):
    """An integer coefficient list divided by its positive content, with
    trailing zeros dropped (empty for the zero polynomial).  A positive
    rescaling, so signs and roots are kept."""
    while c and c[-1] == 0:
        c.pop()
    g = gcd(*c)
    return [x // g for x in c] if g > 1 else c


def _pseudo_divmod(a, b):
    """``(q, r)``, positive multiples of the quotient and the remainder of
    the integer coefficient lists ``a`` by ``b``, each divided by its
    positive content: pseudo-division by ``b`` with its leading coefficient
    made positive (each step scales by |lc(b)|, at most deg a - deg b + 1
    times)."""
    sign = 1
    if b[-1] < 0:
        b, sign = [-x for x in b], -1  # the same remainder, -q
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * max(len(a) - db, 0)
    while len(a) - 1 >= db:
        f, shift = a[-1], len(a) - 1 - db
        a = [lb * x for x in a]
        q = [lb * x for x in q]
        q[shift] += sign * f
        for i, bi in enumerate(b):
            a[shift + i] -= f * bi
        a.pop()  # the leading term cancels
        while a and a[-1] == 0:
            a.pop()
    return _primitive(q), _primitive(a)


def _poly_eval(c, x: Fraction) -> int:
    """q^deg P(p/q) for x = p/q with q > 0 (integer Horner): a positive
    multiple of P(x), so it has the sign of P(x)."""
    p, q = x.numerator, x.denominator
    acc, qk = 0, 1
    for coeff in reversed(c):
        acc = acc * p + coeff * qk
        qk *= q
    return acc


def sturm_chain(coeffs):
    """Sturm chain of a univariate polynomial (rationals, low-first), as
    integer primitive coefficient lists.

    Each member is a positive multiple of the classical chain's (p0, p0',
    then the negated remainders) divided by its last member, gcd(p0, p0').
    Away from the roots of the gcd that division keeps every sign count;
    at a repeated root, where every classical member vanishes, the divided
    chain still counts each distinct root once."""
    c = [Fraction(x) for x in coeffs]
    den = lcm(*(x.denominator for x in c))
    p0 = _primitive([int(x * den) for x in c])
    if not p0:
        raise ValueError("zero polynomial has no Sturm chain")
    chain = [p0]
    p1 = _primitive([k * p0[k] for k in range(1, len(p0))])
    if p1:
        chain.append(p1)
        while True:
            _q, r = _pseudo_divmod(chain[-2], chain[-1])
            if not r:
                break
            chain.append([-x for x in r])
    if len(chain[-1]) > 1:  # p0 has a repeated root
        chain = [_pseudo_divmod(p, chain[-1])[0] for p in chain]
    return chain


def _sign_changes(chain, x: Fraction) -> int:
    signs = []
    for p in chain:
        v = _poly_eval(p, x)
        if v:
            signs.append(v > 0)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(coeffs, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in the half-open interval (a, b]."""
    chain = sturm_chain(coeffs)
    return _sign_changes(chain, a) - _sign_changes(chain, b)


def real_roots_in_interval(coeffs, a: Fraction, b: Fraction):
    """Disjoint isolating intervals (lo, hi] for each distinct real root
    in (a, b], refined by bisection to width <= (b-a)/2^8 or until isolated
    (at most ``_BISECT_DEPTH`` bisections deep)."""
    chain = sturm_chain(coeffs)

    def count(lo, hi):
        return _sign_changes(chain, lo) - _sign_changes(chain, hi)

    out = []
    stack = [(Fraction(a), Fraction(b), count(a, b), 0)]
    while stack:
        lo, hi, k, d = stack.pop()
        if k == 0:
            continue
        if k == 1 and (d >= 8 or _poly_eval(chain[0], hi) == 0):
            out.append((lo, hi))
            continue
        if d >= _BISECT_DEPTH:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        kl = count(lo, mid)
        stack.append((lo, mid, kl, d + 1))
        stack.append((mid, hi, k - kl, d + 1))
    out.sort()
    return out


def _isolate_real_roots(coeffs):
    """Isolating intervals (lo, hi] of every distinct real root of a
    rational polynomial (low first, nonzero leading coefficient), searched
    inside the Cauchy bound 1 + max|c| / |lead|."""
    bound = 1 + max(abs(c) for c in coeffs) / abs(coeffs[-1])
    return real_roots_in_interval(coeffs, -bound, bound)
