"""Dirac geometry on the flat model: frames of T (+) T*, Dorfman calculus.

A generalized vector field (:class:`GVField`) is a pair of component lists
over the coordinate frame legs d/dz_i, d/dzbar_i (and d/dt on parameter
models) and their dual legs.  A :class:`DiracFrame` is a finite family of
generators whose pointwise span is the candidate Dirac subbundle.

Frame equality and involutivity are decided by exact pairings.  A Dirac
structure is Lagrangian: when every generator pairing vanishes and the
generators reach rank dim at one point (on the t = 0 slice with a
``tmax``), then L^perp = L, over the t-series ring too.  Two Lagrangian
frames are then equal iff they pair to zero, and one is involutive iff
the Courant tensor <[a, b], c> vanishes on its generators (Courant,
"Dirac manifolds", 1990; Gualtieri, arXiv:math/0401221, section 3).
Each verdict rests on exact polynomial identities; a failed involutivity
check names a nonzero Courant-tensor entry.  The rank is read at the
origin first, with no random draw, and sampled only where it drops
there; its nonzero minor is an exact lower bound, so no verdict depends
on sampling luck.  A frame keeps the orders at which it was shown
Lagrangian.  A frame that is not Lagrangian is refused: its involutivity
report fails the one check ``lagrangian``, and ``frames_equal`` raises.

Most frames are Lagrangian by construction, and record it where they are
built (``DiracFrame.built``), so that neither verdict pairs them again.
Each is a graph over a block that is the identity, or unitriangular, in
suitable legs: the tangent frame, the graphs of a 2-form and of an
antisymmetric bivector, ``poisson.build_L_sigma`` on a parameter-free
model, ``hitchin.deformation_frame`` when sigma is of type (2,0), and the
flow-span frame of ``hitchin.hamiltonian_family_check``.
Such a frame has rank dim at every point, on the t = 0 slice too, and its
pairings are the symmetric part of its defining block, which vanishes
identically; so it is Lagrangian over the rational functions and mod
every t^{k+1}.  Cut mod t^{k+1}, it keeps the proof at the orders up to k
only; the rational graph {N xi + d xi} of ``genkahler._graph_quotient``
has rank dim only where d does not vanish, so its proof holds over the
rational functions only.  The gauge action, the conjugation, a nonzero
rescaling of the covectors and a cut carry the record over: each keeps
every pairing zero that was zero and is invertible at every point.

The bracket is the Dorfman bracket

    [X + xi, Y + eta]_H = [X, Y] + i_X d eta + d(eta(X)) - i_Y d xi
                          + i_Y i_X H,

whose skew part is the Courant bracket; on involutive isotropic frames the
two agree modulo the frame, so involutivity checks use the Dorfman form
directly.  The canonical pairing is <u, v> = (xi(Y) + eta(X)) / 2.

Graphs: ``graph_two_form`` gauges the tangent frame by a 2-form B
(sections X + i_X B) and ``graph_bivector`` graphs a bivector P (sections
P xi + xi).  ``dirac_sum`` composes two frames along equal vector parts,
which is the fibrewise sum L_1 + L_2 = {X + xi + eta}.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .brackets import unit_vector
from .errors import SingularityError, UnsupportedSceneError
from .forms import MixedForm
from .linalg import (
    Span,
    _RANK_SAMPLES,
    _scalar_mul,
    kernel_certificate,
    mat_apply,
    mat_div_right,
    mat_transpose,
    scalar_kernel,
    scalar_rank,
    span_certificate,
)
from .model import Model, Point
from .poly import Poly
from .report import Report
from .scalars import Scalar, ZERO

__all__ = [
    "GVField",
    "DiracFrame",
    "PointDirac",
    "covec_to_form",
    "form_to_covec",
    "dorfman_bracket",
    "graph_two_form",
    "graph_bivector",
    "tangent_frame",
    "gauge_frame",
    "dirac_sum",
    "dirac_scale",
    "involutivity_report",
    "frames_equal",
]

_HALF = Scalar(Fraction(1, 2))
_UNPROVED = frozenset()  # shared by every frame not yet shown Lagrangian


class _Orders:
    """The orders a construction proof covers: the rational functions
    (``tmax`` None) when ``rational``, and every ``tmax`` up to ``top``,
    which is ``math.inf`` for an exact identity and -1 for no order."""

    __slots__ = ("rational", "top")

    def __init__(self, rational, top):
        self.rational = rational
        self.top = top

    def __contains__(self, tmax):
        return self.rational if tmax is None else tmax <= self.top

    def cut(self, tmax):
        """The orders kept mod t^{tmax+1}: those up to ``tmax``, and not
        the rational functions; ``self`` for None."""
        if tmax is None:
            return self
        return _Orders(False, min(self.top, tmax))


_NOT_BUILT = _Orders(False, -1)
_EVERY_ORDER = _Orders(True, math.inf)
_RATIONAL_ONLY = _Orders(True, -1)


class GVField:
    """A section of T (+) T*: vector and covector component lists."""

    __slots__ = ("model", "vec", "cov", "_d_cov", "_i_H", "_grad")

    def __init__(self, model: Model, vec=None, cov=None):
        self.model = model
        self.vec = list(vec) if vec is not None else _zeros(model)
        self.cov = list(cov) if cov is not None else _zeros(model)
        if len(self.vec) != model.dim or len(self.cov) != model.dim:
            raise ValueError("component lists must match the frame dimension")
        self._d_cov = self._i_H = self._grad = None

    # The two forms below, and the gradient of the vector part (_gradient),
    # are kept on the field once formed: the component lists are not
    # changed after construction, so a frame's generators form them once
    # however many brackets read them.
    def d_cov(self) -> MixedForm:
        """d of the covector part read as a 1-form."""
        if self._d_cov is None:
            self._d_cov = covec_to_form(self.model, self.cov).d()
        return self._d_cov

    def i_H(self, H: MixedForm) -> MixedForm:
        """i_X H for the vector part X; kept for the last ``H`` asked."""
        if self._i_H is None or self._i_H[0] is not H:
            self._i_H = (H, H.contract_vector(self.vec))
        return self._i_H[1]

    def __add__(self, other):
        if not isinstance(other, GVField) or other.model != self.model:
            return NotImplemented
        return GVField(self.model,
                       [a + b for a, b in zip(self.vec, other.vec)],
                       [a + b for a, b in zip(self.cov, other.cov)])

    def __neg__(self):
        return GVField(self.model, [-a for a in self.vec],
                       [-a for a in self.cov])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if isinstance(c, (int, Fraction)):
            c = Scalar(c)
        return GVField(self.model, [a.scale(c) for a in self.vec],
                       [a.scale(c) for a in self.cov])

    def poly_mul(self, f: Poly, tmax=None):
        return GVField(self.model,
                       [a.mul(f, tmax=tmax) for a in self.vec],
                       [a.mul(f, tmax=tmax) for a in self.cov])

    def pairing(self, other, tmax=None) -> Poly:
        """<u, v> = (xi(Y) + eta(X)) / 2, mod t^{tmax+1} with ``tmax``:
        one ``Poly.sum`` of the truncated products."""
        return Poly.sum(self.model.n, (
            a.mul(b, tmax=tmax)
            for cov, vec in ((self.cov, other.vec), (other.cov, self.vec))
            for a, b in zip(cov, vec) if a and b)).scale(_HALF)

    def stack(self):
        """The 2*dim component column (vector block then covector block)."""
        return list(self.vec) + list(self.cov)

    def conj(self):
        return GVField(self.model, _conj_components(self.model, self.vec),
                       _conj_components(self.model, self.cov))

    def t_truncate(self, tmax):
        """Every component mod t^{tmax+1}; ``self`` for None."""
        if tmax is None:
            return self
        return GVField(self.model, [a.t_truncate(tmax) for a in self.vec],
                       [a.t_truncate(tmax) for a in self.cov])

    def is_zero(self):
        return not any(self.vec) and not any(self.cov)

    def render(self):
        model = self.model
        names = model.vec_names() + model.leg_names()
        bits = [f"[{c.render()}] {nm}"
                for c, nm in zip(self.stack(), names) if c]
        return "  +  ".join(bits) if bits else "0"

    def __repr__(self):
        return f"GVField<{self.render()}>"


def _zeros(model):
    """A zero column over the frame legs."""
    return [model.zero_poly()] * model.dim


def _conj_components(model, comps):
    """Conjugate a column of leg components: swap the z and zbar legs and
    conjugate each entry; legs from 2n on (the t leg) stay in place."""
    n = model.n
    out = [c.conj() for c in comps]
    return out[n:2 * n] + out[:n] + out[2 * n:]


def _conj_operator(model, M):
    """Matrix of the conjugated operator in the fixed frame: the leg rule
    of :func:`_conj_components` applied to rows and columns.

    The size and the polynomial ring are read from ``M``, which may live
    over more variables than ``model``."""
    n = model.n
    rows = [_conj_components(model, row) for row in M]
    return rows[n:2 * n] + rows[:n] + rows[2 * n:]


def conj_stack(model, column):
    """Conjugate a scalar fibre column (vector block then covector block).

    Valid at real base points, where the zbar coordinates are the honest
    conjugates of the z coordinates.
    """
    dim = model.dim
    return (_conj_components(model, column[:dim])
            + _conj_components(model, column[dim:]))


def point_pairing(model, a, b) -> Scalar:
    """<u, v> = (xi(Y) + eta(X)) / 2 on two scalar fibre columns; only the
    nonzero products are added."""
    dim = model.dim
    acc = ZERO
    for x, y in zip(a[dim:] + b[dim:], b[:dim] + a[:dim]):
        if x and y:
            acc = acc + x * y
    return acc * _HALF if acc else acc


# ---------------------------------------------------------------------------
# covector <-> 1-form conversions and the Dorfman bracket
# ---------------------------------------------------------------------------

def covec_to_form(model: Model, cov) -> MixedForm:
    n = model.n
    comps = {(1, 0, 0): {((i,), ()): cov[i] for i in range(n)},
             (0, 1, 0): {((), (i,)): cov[n + i] for i in range(n)}}
    if model.param:
        comps[(0, 0, 1)] = {((), ()): cov[2 * n]}
    return MixedForm(model, comps)  # zero coefficients are dropped


def form_to_covec(form: MixedForm):
    model = form.model
    n = model.n
    out = _zeros(model)
    for (p, q, r), table in form.comps.items():
        if p + q + r != 1:
            raise ValueError("expected a 1-form")
        for (I, J), c in table.items():  # one entry per leg
            out[2 * n if r else I[0] if p else n + J[0]] = c
    return out


def _along(X, f: Poly, tmax=None, sign=1, grad=None):
    """The nonzero terms ``sign * X^l d_l f`` of the derivative of ``f``
    along the leg column ``X``, each product mod t^{tmax+1}.

    The legs are those of ``Poly.derivative`` (z.., zbar.., t); ``grad``,
    when given, holds the derivatives d_l f already formed.  A caller
    sums one entry's terms with a single ``Poly.sum``; d_l never raises the
    t-degree, so that sum needs no further truncation.
    """
    out = []
    for l, x in enumerate(X):
        if x:
            d = f.derivative(l) if grad is None else grad[l]
            if d:
                c = x.mul(d, tmax=tmax)
                out.append(c if sign == 1 else -c)
    return out


def _gradient(u: GVField):
    """d_l X^k for every vector entry k of ``u`` and leg l, kept on ``u``."""
    if u._grad is None:
        u._grad = [[e.derivative(l) if e else e for l in range(len(u.vec))]
                   for e in u.vec]
    return u._grad


def dorfman_bracket(u: GVField, v: GVField, H: MixedForm = None,
                    tmax=None) -> GVField:
    model = u.model
    X, Y = u.vec, v.vec
    vec_part = [Poly.sum(model.n, _along(X, Yk, tmax, grad=gy)
                         + _along(Y, Xk, tmax, -1, gx))
                for Xk, Yk, gx, gy in zip(X, Y, _gradient(u), _gradient(v))]
    # d(eta(X)) differentiates in t on a parameter model, so eta(X) is
    # kept one order further there
    etmax = tmax + 1 if tmax is not None and model.param else tmax
    eta_X = model.zero_poly()
    for a, b in zip(v.cov, X):
        if a and b:
            eta_X = eta_X + a.mul(b, tmax=etmax)
    cov_form = v.d_cov().contract_vector(X) \
        + MixedForm.function(model, eta_X).d() \
        - u.d_cov().contract_vector(Y)
    if H is not None:
        cov_form = cov_form + u.i_H(H).contract_vector(Y)
    return GVField(model, vec_part, form_to_covec(cov_form.t_truncate(tmax)))


# ---------------------------------------------------------------------------
# Dirac frames
# ---------------------------------------------------------------------------

class DiracFrame:
    """A finite generating family for a candidate Dirac subbundle.

    ``lagrangian`` holds the orders ``tmax`` (None for the rational
    functions) at which :func:`_not_lagrangian` accepted the frame;
    ``built`` holds those at which the frame is Lagrangian by its
    construction (see the module docstring): a constructor that proves it
    sets ``built``, and a frame made by ``DiracFrame`` itself has none.
    The generators are never changed, so either proof lasts, at its
    orders.
    """

    __slots__ = ("model", "gens", "label", "lagrangian", "built")

    def __init__(self, model: Model, gens, label=""):
        self.model = model
        self.gens = list(gens)
        self.label = label
        self.lagrangian = _UNPROVED
        self.built = _NOT_BUILT
        for g in self.gens:
            if g.model != model:
                raise ValueError("generator on a different model")

    def __iter__(self):
        return iter(self.gens)

    def __len__(self):
        return len(self.gens)

    def t_truncate(self, tmax):
        """Every generator mod t^{tmax+1}; ``self`` for None.  A
        construction proof is kept at the orders up to ``tmax``."""
        if tmax is None:
            return self
        return _built(DiracFrame(self.model,
                                 [g.t_truncate(tmax) for g in self.gens],
                                 label=self.label), self.built.cut(tmax))

    def substitute_t(self, tval):
        """Freeze the deformation parameter at a rational value."""
        gens = [GVField(self.model,
                        [a.substitute_t(tval) for a in g.vec],
                        [a.substitute_t(tval) for a in g.cov])
                for g in self.gens]
        return DiracFrame(self.model, gens, label=self.label)

    def conj(self):
        return _built(DiracFrame(
            self.model, [g.conj() for g in self.gens],
            label=f"conj({self.label})" if self.label else ""), self.built)

    def eval_point(self, point: Point) -> "PointDirac":
        return PointDirac(self.model, [[c.eval(point) for c in g.stack()]
                                       for g in self.gens])

    def isotropy_defect(self, tmax=None):
        """All pairwise pairings (mod t^{tmax+1} with ``tmax``); the frame
        is isotropic iff every entry is 0."""
        return [u.pairing(v, tmax)
                for i, u in enumerate(self.gens) for v in self.gens[i:]]

    def proved(self, tmax) -> bool:
        """Whether the frame is known Lagrangian at ``tmax``, by its
        construction or by :func:`_not_lagrangian`."""
        return tmax in self.built or tmax in self.lagrangian


def _built(frame: DiracFrame, orders: _Orders) -> DiracFrame:
    """``frame`` with the construction proof ``orders`` recorded."""
    frame.built = orders
    return frame


def tangent_frame(model: Model) -> DiracFrame:
    """The coordinate tangent frame: Lagrangian at every order."""
    return _built(DiracFrame(model, [GVField(model, vec=unit_vector(model, k))
                                     for k in range(model.dim)], label="T"),
                  _EVERY_ORDER)


def graph_two_form(B: MixedForm) -> DiracFrame:
    """Sections X + i_X B over the coordinate tangent frame.

    Lagrangian at every order: the leg matrix of a 2-form is antisymmetric
    and the vector block is the identity."""
    from .multivector import form_matrix

    model = B.model
    cols = mat_transpose(form_matrix(B))
    return _built(DiracFrame(model, [
        GVField(model, vec=unit_vector(model, k), cov=col)
        for k, col in enumerate(cols)], label="graph(B)"), _EVERY_ORDER)


def graph_bivector(model: Model, P) -> DiracFrame:
    """Sections P xi + xi over the coordinate cotangent frame; ``P`` is a
    leg matrix acting on covector columns.

    Generators k and l pair to (P[k][l] + P[l][k]) / 2, and the covector
    block is the identity; so the frame is recorded Lagrangian at every
    order when ``P`` is antisymmetric entry by entry, and not otherwise."""
    frame = DiracFrame(model, [
        GVField(model, vec=col, cov=unit_vector(model, k))
        for k, col in enumerate(mat_transpose(P))], label="graph(P)")
    if all(not (P[i][j] + P[j][i])
           for i in range(len(P)) for j in range(i, len(P))):
        frame.built = _EVERY_ORDER
    return frame


def gauge_frame(frame: DiracFrame, B: MixedForm, tmax=None) -> DiracFrame:
    """The 2-form gauge action: X + xi  |->  X + xi + i_X B, mod
    t^{tmax+1} with ``tmax``.  It adds B(X, Y) + B(Y, X) = 0 to each
    pairing and is invertible at every point, so the construction proof
    of ``frame`` is kept (at the orders up to ``tmax``)."""
    from .multivector import form_matrix

    model = frame.model
    F = form_matrix(B)
    gens = []
    for g in frame.gens:
        extra = mat_apply(F, g.vec, tmax=tmax)
        cov = [a + b for a, b in zip(g.cov, extra)]
        gens.append(GVField(model, vec=list(g.vec), cov=cov))
    return _built(DiracFrame(model, gens, label=frame.label),
                  frame.built).t_truncate(tmax)


def dirac_scale(frame: DiracFrame, lam) -> DiracFrame:
    """Scale the covector parts: {X + lam * xi}.  Every pairing is scaled
    by ``lam``, so for ``lam`` nonzero the construction proof is kept."""
    if isinstance(lam, (int, Fraction)):
        lam = Scalar(lam)
    gens = [GVField(frame.model, list(g.vec),
                    [c.scale(lam) for c in g.cov]) for g in frame.gens]
    return _built(DiracFrame(frame.model, gens, label=frame.label),
                  frame.built if lam else _NOT_BUILT)


def dirac_sum(f1: DiracFrame, f2: DiracFrame, rng, tmax=None) -> DiracFrame:
    """Fibrewise sum along matching vector parts:
    {X + xi + eta : X + xi in L1, X + eta in L2}.

    Built from an exact kernel certificate of the vector-part difference
    matrix, so each output generator satisfies the matching identity as a
    polynomial identity; constant vector blocks take the Q(i) kernel,
    which draws no sample point and so does not depend on ``rng``.  For a
    kernel vector v, component i of the output is one ``Poly.sum`` of the
    products v_j g_j[i] (mod t^{tmax+1}) over the L1 generators g_j, and
    for the covector part the L2 generators too: a zero v_j or a zero
    component g_j[i] is skipped, not multiplied.
    """
    model = f1.model
    if f2.model != model:
        raise ValueError("mixed models")
    n, dim = model.n, model.dim
    r1, r2 = len(f1), len(f2)
    A = [[f1.gens[j].vec[i] for j in range(r1)] +
         [-f2.gens[j].vec[i] for j in range(r2)] for i in range(dim)]
    basis = kernel_certificate(A, model, rng, tmax=tmax)

    def combine(parts):
        """sum_j x_j c_j over the pairs (x_j, column c_j), entrywise."""
        return [Poly.sum(n, (c[i].mul(x, tmax=tmax) for x, c in parts if c[i]))
                for i in range(dim)]

    gens = []
    for v in basis:
        vec = combine([(x, g.vec) for x, g in zip(v, f1.gens) if x])
        cov = combine([(x, g.cov) for x, g in zip(v, f1.gens + f2.gens)
                       if x])
        if any(vec) or any(cov):
            gens.append(GVField(model, vec, cov))
    return DiracFrame(model, gens, label=f"{f1.label}+{f2.label}")


def _covector_lifts(frame: DiracFrame, targets, P, rng, message,
                    tmax=None):
    """The projected vector parts P X with X + eta in ``frame``, one per
    target covector eta: the lifts of the deformed covectors in
    ``poisson.extract_holo_poisson``, whose frames carry generators with no
    covector part.  (A graph frame is recognized by one division by its
    covector block instead, in ``genkahler._graph_quotient``.)

    Each target gets a span certificate ``den*eta = sum nums_j cov_j``
    over the frame's covector block, and ``P sum nums_j vec_j`` is divided
    by ``den``: the lifts that share a ``den`` are stacked into one column
    and divided once.  X is fixed only modulo the frame's vector-only part,
    which P must kill, so the quotient is polynomial whenever P X is.  A
    target outside the span raises SingularityError at the witness point,
    with ``message``.  It stays on span certificates as their only caller
    on the benchmark workloads, whose tests (``perfbench/``) require that
    layer to be reached.
    """
    span = Span([list(g.cov) for g in frame.gens], frame.model, tmax)
    vecs = mat_transpose([g.vec for g in frame.gens])
    stacks = {}  # den -> indices of its targets, and their stacked lifts
    for index, eta in enumerate(targets):
        okflag, cert = span_certificate(span, eta, rng)
        if not okflag:
            raise SingularityError(f"{message} (witness point {cert})",
                                   point=cert)
        den, nums = cert
        owners, column = stacks.setdefault(den, ([], []))
        owners.append(index)
        column += mat_apply(P, mat_apply(vecs, nums, tmax=tmax), tmax=tmax)
    lifts = [None] * len(targets)
    m = len(P)
    for den, (owners, column) in stacks.items():
        quotient = [x for [x] in mat_div_right([[x] for x in column], [[den]],
                                               tmax=tmax)]
        for k, index in enumerate(owners):
            lifts[index] = quotient[k * m:(k + 1) * m]
    return lifts


# ---------------------------------------------------------------------------
# Structural verdicts
# ---------------------------------------------------------------------------

def _not_lagrangian(frame: DiracFrame, defect, rng, tmax=None):
    """Why ``frame`` is not Lagrangian, or None when it is; an accepted
    frame records ``tmax`` in ``frame.lagrangian``.

    ``defect`` is the frame's :meth:`DiracFrame.isotropy_defect` at the
    order the caller needs (empty when the caller has shown the frame
    isotropic another way).  A frame is Lagrangian when every entry
    vanishes and the evaluated generators reach rank ``model.dim`` at
    some point, on the t = 0 slice with ``tmax``.  The nonzero minor
    there bounds the rank below by dim, and isotropy bounds it above by
    dim at every point.  So L has rank dim and L^perp = L over the
    rational functions; with ``tmax`` the minor's t^0 coefficient is
    nonzero, so L is a direct summand of rank dim over the t-series ring
    mod t^{tmax+1}, and L^perp = L there too.  The origin z = 0, t = 0 is
    tried first, from the generators' constant terms, with no draw from
    ``rng``; only a frame that drops rank there is evaluated at sample
    points (as in ``Span._pivot``), up to ``_RANK_SAMPLES`` of them.
    """
    if any(defect):
        return "a generator pairing is nonzero"
    model = frame.model
    origin = PointDirac(model, [[c.constant_term() for c in g.stack()]
                                for g in frame.gens])
    if origin.rank() != model.dim:
        for _ in range(_RANK_SAMPLES):
            pt = model.sample_point(rng, with_t=True)
            if tmax is not None:
                pt = Point(pt.z, ZERO)
            if frame.eval_point(pt).rank() == model.dim:
                break
        else:
            return (f"its rank stays below {model.dim} at {_RANK_SAMPLES} "
                    "sample points")
    frame.lagrangian = frame.lagrangian | {tmax}
    return None


class involutivity_report:
    """Involutivity of a Lagrangian Dirac frame by its Courant-tensor
    entries; a frame that is not Lagrangian is refused."""

    # a namespace only: perfbench/tracer.py wraps involutivity_report.check
    @staticmethod
    def check(frame: DiracFrame, rng, H: MixedForm = None, tmax=None):
        """Checks ``rank`` (the rank is the dimension), ``isotropic`` and
        ``involutive`` (every H-twisted Dorfman bracket of generators lies
        in the frame), mod t^{tmax+1} with ``tmax``.

        The frame is first shown Lagrangian (:func:`_not_lagrangian`,
        which records the proof on the frame for ``frames_equal``); then
        L^perp = L, so a bracket lies in L iff it pairs to zero with every
        generator: the frame is involutive iff the Courant tensor
        T(a, b, c) = <[a, b]_H, c> vanishes on generators.  On an
        isotropic frame T is tensorial and totally skew: skew in (a, b)
        since [a, b] + [b, a] = 2 d<a, b>, and in (b, c) since
        rho(a)<b, c> = <[a, b], c> + <b, [a, c]>.  So only the brackets
        [e_i, e_j] with i < j <= r - 2 are formed, each paired with the
        e_k with k > j.  Both identities differentiate a pairing along a
        generator's vector part (<2 d<a, b>, c> = X_c<a, b>), and only a
        d/dt leg lowers the t-order; so on a parameter model whose frame
        has a generator with a d/dt leg the pairings must vanish one order
        further, mod t^{tmax+2}.  Each failing pair is witnessed by
        ``(i, j, (k, T_ijk))`` with the first k whose entry is nonzero,
        in ``witnesses["failures"]``; no witness depends on ``rng``.

        A frame Lagrangian by construction at the order the pairings need
        (``frame.built``) is not paired or ranked again;
        ``stats["lagrangian_proof"]`` says which proof was used,
        "construction" or "pairings".  A frame that is not Lagrangian
        forms no bracket: its report fails the one check ``lagrangian``,
        with the reason in ``witnesses["not_lagrangian"]`` and
        ``stats["route"]`` "refused".
        """
        model = frame.model
        gens = frame.gens
        dim = model.dim
        skew = tmax + 1 if tmax is not None and model.param and any(
            g.vec[-1] for g in gens) else tmax
        # the cuts covered by a construction proof are downward closed, so
        # a proof at skew holds at tmax too
        proof = "construction" if skew in frame.built else "pairings"
        reason = None if proof == "construction" else _not_lagrangian(
            frame, frame.isotropy_defect(skew), rng, tmax)
        if reason is not None:
            return Report("involutivity", {"lagrangian": False},
                          witnesses={"failures": [],
                                     "not_lagrangian": reason},
                          stats={"route": "refused", "expected_rank": dim,
                                 "lagrangian_proof": proof})
        failures = []
        for i, u in enumerate(gens):
            for j in range(i + 1, len(gens) - 1):
                w = dorfman_bracket(u, gens[j], H=H, tmax=tmax)
                for k in range(j + 1, len(gens)):
                    T = w.pairing(gens[k], tmax)
                    if T:
                        failures.append((i, j, (k, T)))
                        break
        return Report("involutivity",
                      {"rank": True, "isotropic": True,
                       "involutive": not failures},
                      witnesses={"failures": failures},
                      stats={"rank": dim, "route": "lagrangian",
                             "expected_rank": dim,
                             "lagrangian_proof": proof})


def frames_equal(f1: DiracFrame, f2: DiracFrame, rng, tmax=None) -> bool:
    """Equality of two Lagrangian frames (mod t^{tmax+1} with ``tmax``):
    ``<a, b> = 0`` for every generator a of ``f1`` and b of ``f2``.

    One frame, the host, is first shown Lagrangian
    (:func:`_not_lagrangian`: isotropic, and of rank dim at the origin or
    a sample point, on the t = 0 slice with ``tmax``), unless it already
    is at this ``tmax`` (:meth:`DiracFrame.proved`); so L^perp = L over the
    rational functions, or over the t-series ring with ``tmax``.  The host
    is ``f1``, or ``f2`` when only ``f2`` is proved.  Then the host is
    paired with each generator of the other frame that is not already one
    of its own (equal vector and covector parts), which lies in L.  If
    every pairing vanishes, the other frame lies in L^perp = L and so is
    isotropic, and only its rank is left to read; two direct summands of
    rank dim, one inside the other, are equal.  Otherwise the frames
    differ, once the other frame too is shown Lagrangian by its own
    isotropy and rank; conversely equal frames pair to zero by isotropy.
    Raises ValueError for frames over different models, and
    UnsupportedSceneError, naming the frame by its argument position and
    label, and the reason, for a frame that is not Lagrangian.
    """
    if f2.model != f1.model:
        raise ValueError("mixed models")
    named = [("first", f1), ("second", f2)]
    if f2.proved(tmax) and not f1.proved(tmax):
        named.reverse()
    (host_name, host), (guest_name, guest) = named
    if not host.proved(tmax):
        _require_lagrangian(host_name, host, host.isotropy_defect(tmax), rng,
                            tmax)
    outside = [b for b in guest.gens
               if not any(a.vec == b.vec and a.cov == b.cov
                          for a in host.gens)]
    inside = not any(a.pairing(b, tmax) for a in host.gens for b in outside)
    if not guest.proved(tmax):
        _require_lagrangian(guest_name, guest,
                            () if inside else guest.isotropy_defect(tmax),
                            rng, tmax)
    return inside


def _require_lagrangian(name, frame, defect, rng, tmax):
    """:func:`_not_lagrangian`, raising for ``frames_equal``."""
    reason = _not_lagrangian(frame, defect, rng, tmax)
    if reason is not None:
        raise UnsupportedSceneError(
            f"frames_equal needs Lagrangian frames; the {name} frame "
            f"{frame.label!r} is not: {reason}")


# ---------------------------------------------------------------------------
# Pointwise Dirac subspaces
# ---------------------------------------------------------------------------

class PointDirac:
    """A subspace of the fibre (T (+) T*)_x given by scalar columns, as
    :meth:`DiracFrame.eval_point` builds it.  Any other fibre is the value
    of a frame, e.g. ``L.conj().eval_point(pt)`` for the conjugate of L at
    a point (``Poly.eval`` reads zbar as conj(z), and t is real) and
    ``tangent_frame(model).eval_point(pt)`` for the tangent fibre."""

    __slots__ = ("model", "columns")

    def __init__(self, model: Model, columns):
        self.model = model
        self.columns = [list(c) for c in columns]

    def rank(self) -> int:
        if not self.columns:
            return 0
        rows = [[col[i] for col in self.columns]
                for i in range(2 * self.model.dim)]
        return scalar_rank(rows)

    def equals(self, other: "PointDirac") -> bool:
        rank = self.rank()
        if rank != other.rank():
            return False
        rows = [[col[i] for col in self.columns + other.columns]
                for i in range(2 * self.model.dim)]
        return scalar_rank(rows) == rank

    def intersect(self, other: "PointDirac") -> "PointDirac":
        """Exact fibrewise intersection via the kernel of [A | -B].

        For a kernel vector v, the column sum_j v_j a_j is one sparse
        product (:func:`~gkdirac.linalg._scalar_mul`)."""
        if other.model != self.model:
            raise ValueError("mixed models")
        if not self.columns or not other.columns:
            return PointDirac(self.model, [])
        size = 2 * self.model.dim
        rows = [[col[i] for col in self.columns] +
                [-col[i] for col in other.columns]
                for i in range(size)]
        out = _scalar_mul(scalar_kernel(rows), self.columns)
        return PointDirac(self.model, [col for col in out if any(col)])
