"""Dirac geometry on the flat model: frames of T (+) T*, Dorfman calculus.

A generalized vector field (:class:`GVField`) is a pair of component lists
over the coordinate frame legs d/dz_i, d/dzbar_i (and d/dt on parameter
models) and their dual legs.  A :class:`DiracFrame` is a finite family of
generators whose pointwise span is the candidate Dirac subbundle.

Frame equality and involutivity are decided by exact pairings.  A Dirac
structure is Lagrangian: when every generator pairing vanishes and the
generators reach rank dim at one sample point (on the t = 0 slice with a
``tmax``), then L^perp = L, over the t-series ring too.  Two Lagrangian
frames are then equal iff they pair to zero, and one is involutive iff
the Courant tensor <[a, b], c> vanishes on its generators (Courant,
"Dirac manifolds", 1990; Gualtieri, arXiv:math/0401221, section 3).
Each verdict rests on exact polynomial identities; a failed involutivity
check names a nonzero Courant-tensor entry.  Sampling only finds the
full-rank point, whose nonzero minor is an exact lower bound, so no
verdict depends on sampling luck.  Involutivity of a frame that is not
Lagrangian falls back on Cramer-style span certificates from
:mod:`gkdirac.linalg`; ``frames_equal`` refuses such a frame.

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

from fractions import Fraction

from .brackets import unit_vector
from .errors import SingularityError, UnsupportedSceneError
from .forms import MixedForm
from .linalg import (
    Span,
    kernel_certificate,
    mat_apply,
    mat_div_right,
    mat_t_truncate,
    mat_transpose,
    generic_rank,
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
    "lie_bracket_components",
    "dorfman_bracket",
    "graph_two_form",
    "graph_bivector",
    "tangent_frame",
    "cotangent_frame",
    "gauge_frame",
    "dirac_sum",
    "dirac_scale",
    "involutivity_report",
    "frames_equal",
]

_HALF = Scalar(Fraction(1, 2))


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


def _dot(pairs) -> Scalar:
    """The sum of the products ``x * y`` over the pairs with both factors
    nonzero, formed and added only for those; ``ZERO`` when there is
    none."""
    acc = None
    for x, y in pairs:
        if x and y:
            acc = x * y if acc is None else acc + x * y
    return ZERO if acc is None else acc


def point_pairing(model, a, b) -> Scalar:
    """<u, v> = (xi(Y) + eta(X)) / 2 on two scalar fibre columns; only the
    nonzero products are added."""
    dim = model.dim
    acc = _dot(pair for i in range(dim)
               for pair in ((a[dim + i], b[i]), (b[dim + i], a[i])))
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


def lie_bracket_components(model: Model, X, Y, tmax=None):
    """[X, Y]^k = X(Y^k) - Y(X^k) over the frame legs."""
    return dorfman_bracket(GVField(model, X), GVField(model, Y),
                           tmax=tmax).vec


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
    """A finite generating family for a candidate Dirac subbundle."""

    __slots__ = ("model", "gens", "label")

    def __init__(self, model: Model, gens, label=""):
        self.model = model
        self.gens = list(gens)
        self.label = label
        for g in self.gens:
            if g.model != model:
                raise ValueError("generator on a different model")

    def __iter__(self):
        return iter(self.gens)

    def __len__(self):
        return len(self.gens)

    def t_truncate(self, tmax):
        """Every generator mod t^{tmax+1}; ``self`` for None."""
        if tmax is None:
            return self
        return DiracFrame(self.model,
                          [g.t_truncate(tmax) for g in self.gens],
                          label=self.label)

    def substitute_t(self, tval):
        """Freeze the deformation parameter at a rational value."""
        gens = [GVField(self.model,
                        [a.substitute_t(tval) for a in g.vec],
                        [a.substitute_t(tval) for a in g.cov])
                for g in self.gens]
        return DiracFrame(self.model, gens, label=self.label)

    def conj(self):
        return DiracFrame(self.model, [g.conj() for g in self.gens],
                          label=f"conj({self.label})" if self.label else "")

    def eval_point(self, point: Point) -> "PointDirac":
        return PointDirac(self.model, [[c.eval(point) for c in g.stack()]
                                       for g in self.gens])

    def isotropy_defect(self, tmax=None):
        """All pairwise pairings (mod t^{tmax+1} with ``tmax``); the frame
        is isotropic iff every entry is 0."""
        return [u.pairing(v, tmax)
                for i, u in enumerate(self.gens) for v in self.gens[i:]]

    def is_isotropic(self) -> bool:
        return all(not p for p in self.isotropy_defect())


def tangent_frame(model: Model) -> DiracFrame:
    return DiracFrame(model, [GVField(model, vec=unit_vector(model, k))
                              for k in range(model.dim)], label="T")


def cotangent_frame(model: Model) -> DiracFrame:
    return DiracFrame(model, [GVField(model, cov=unit_vector(model, k))
                              for k in range(model.dim)], label="T*")


def graph_two_form(B: MixedForm) -> DiracFrame:
    """Sections X + i_X B over the coordinate tangent frame."""
    from .multivector import form_matrix

    model = B.model
    cols = mat_transpose(form_matrix(B))
    return DiracFrame(model, [
        GVField(model, vec=unit_vector(model, k), cov=col)
        for k, col in enumerate(cols)], label="graph(B)")


def graph_bivector(model: Model, P) -> DiracFrame:
    """Sections P xi + xi over the coordinate cotangent frame; ``P`` is a
    leg matrix acting on covector columns."""
    return DiracFrame(model, [
        GVField(model, vec=col, cov=unit_vector(model, k))
        for k, col in enumerate(mat_transpose(P))], label="graph(P)")


def gauge_frame(frame: DiracFrame, B: MixedForm, tmax=None) -> DiracFrame:
    """The 2-form gauge action: X + xi  |->  X + xi + i_X B."""
    from .multivector import form_matrix

    model = frame.model
    F = form_matrix(B)
    gens = []
    for g in frame.gens:
        extra = mat_apply(F, g.vec, tmax=tmax)
        cov = [a + b for a, b in zip(g.cov, extra)]
        gens.append(GVField(model, vec=list(g.vec), cov=cov))
    return DiracFrame(model, gens, label=frame.label).t_truncate(tmax)


def dirac_scale(frame: DiracFrame, lam) -> DiracFrame:
    """Scale the covector parts: {X + lam * xi}."""
    if isinstance(lam, (int, Fraction)):
        lam = Scalar(lam)
    gens = [GVField(frame.model, list(g.vec),
                    [c.scale(lam) for c in g.cov]) for g in frame.gens]
    return DiracFrame(frame.model, gens, label=frame.label)


def dirac_sum(f1: DiracFrame, f2: DiracFrame, rng, tmax=None) -> DiracFrame:
    """Fibrewise sum along matching vector parts:
    {X + xi + eta : X + xi in L1, X + eta in L2}.

    Built from an exact kernel certificate of the vector-part difference
    matrix, so each output generator satisfies the matching identity as a
    polynomial identity.  For a kernel vector v, component i of the output
    is one ``Poly.sum`` of the products v_j g_j[i] (mod t^{tmax+1}) over
    the L1 generators g_j, and for the covector part the L2 generators
    too: a zero v_j or a zero component g_j[i] is skipped, not multiplied.
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

# points drawn for a full-rank minor, as many as generic_rank draws
_RANK_SAMPLES = 5


def _not_lagrangian(frame: DiracFrame, defect, rng, tmax=None):
    """Why ``frame`` is not Lagrangian, or None when it is.

    ``defect`` is the frame's :meth:`DiracFrame.isotropy_defect` at the
    order the caller needs.  A frame is Lagrangian when every entry
    vanishes and some sample point gives the evaluated generators rank
    ``model.dim`` (on the t = 0 slice with ``tmax``, as in
    ``Span._pivot``).  The nonzero minor at that point bounds the rank
    below by dim, and isotropy bounds it above by dim at every point.  So
    L has rank dim and L^perp = L over the rational functions; with
    ``tmax`` the minor's t^0 coefficient is nonzero, so L is a direct
    summand of rank dim over the t-series ring mod t^{tmax+1}, and
    L^perp = L there too.  The search stops at the first point of full
    rank, and gives up after ``_RANK_SAMPLES`` points.
    """
    if any(defect):
        return "a generator pairing is nonzero"
    model = frame.model
    for _ in range(_RANK_SAMPLES):
        pt = model.sample_point(rng, with_t=True)
        if tmax is not None:
            pt = Point(pt.z, ZERO)
        if frame.eval_point(pt).rank() == model.dim:
            return None
    return (f"its rank stays below {model.dim} at {_RANK_SAMPLES} sample "
            "points")


class involutivity_report:
    """Involutivity of a Dirac frame: Courant-tensor entries on Lagrangian
    frames, per-pair span certificates plus rank on any other frame."""

    # a namespace only: perfbench/tracer.py wraps involutivity_report.check
    @staticmethod
    def check(frame: DiracFrame, rng, H: MixedForm = None, tmax=None):
        """Checks ``rank`` (the rank is the dimension), ``isotropic`` and
        ``involutive`` (every H-twisted Dorfman bracket of generators lies
        in the frame), mod t^{tmax+1} with ``tmax``.

        On a Lagrangian frame (:func:`_not_lagrangian`) L^perp = L, so a
        bracket lies in L iff it pairs to zero with every generator: the
        frame is involutive iff the Courant tensor
        T(a, b, c) = <[a, b]_H, c> vanishes on generators.  On an
        isotropic frame T is tensorial and totally skew: skew in (a, b)
        since [a, b] + [b, a] = 2 d<a, b>, and in (b, c) since
        rho(a)<b, c> = <[a, b], c> + <b, [a, c]>.  So only the brackets
        [e_i, e_j] with i < j <= r - 2 are formed, each paired with the
        e_k with k > j.  Both identities differentiate a pairing, in t too
        on a parameter model, so there the pairings must vanish one order
        further, mod t^{tmax+2}.  Each failing pair is witnessed by
        ``(i, j, (k, T_ijk))`` with the first k whose entry is nonzero;
        no witness depends on ``rng``.

        Any other frame takes the span route: the generic rank, isotropy
        mod t^{tmax+1}, and a span certificate for every nonzero bracket
        [e_i, e_j], i <= j, witnessed by ``(i, j, point)``.  The failing
        pairs are in ``witnesses["failures"]``; ``stats["route"]`` names
        the route taken.
        """
        model = frame.model
        gens = frame.gens
        dim = model.dim
        skew = tmax + 1 if tmax is not None and model.param else tmax
        defect = frame.isotropy_defect(skew)
        failures = []
        if _not_lagrangian(frame, defect, rng, tmax) is None:
            for i, u in enumerate(gens):
                for j in range(i + 1, len(gens) - 1):
                    w = dorfman_bracket(u, gens[j], H=H, tmax=tmax)
                    for k in range(j + 1, len(gens)):
                        T = w.pairing(gens[k], tmax)
                        if T:
                            failures.append((i, j, (k, T)))
                            break
            checks = {"rank": True, "isotropic": True}
            stats = {"rank": dim, "route": "lagrangian"}
        else:
            cols = mat_t_truncate([g.stack() for g in gens], tmax)
            rank = generic_rank([[col[i] for col in cols]
                                 for i in range(2 * dim)], model, rng)
            span = Span(cols, model, tmax)
            for i, u in enumerate(gens):
                for j in range(i, len(gens)):
                    w = dorfman_bracket(u, gens[j], H=H, tmax=tmax).stack()
                    if any(w):
                        ok, cert = span_certificate(span, w, rng)
                        if not ok:
                            failures.append((i, j, cert))
            checks = {"rank": rank == dim,
                      "isotropic": not any(p.t_truncate(tmax)
                                           for p in defect)}
            stats = {"rank": rank, "route": "span"}
        checks["involutive"] = not failures
        return Report("involutivity", checks,
                      witnesses={"failures": failures},
                      stats={**stats, "expected_rank": dim})


def frames_equal(f1: DiracFrame, f2: DiracFrame, rng, tmax=None) -> bool:
    """Equality of two Lagrangian frames (mod t^{tmax+1} with ``tmax``):
    ``<a, b> = 0`` for every generator a of ``f1`` and b of ``f2``.

    Each frame is first shown Lagrangian (:func:`_not_lagrangian`:
    isotropic, and of rank dim at a sample point, on the t = 0 slice with
    ``tmax``), so L1^perp = L1 over the rational functions, or over the
    t-series ring with ``tmax``.  The pairings then put L2 inside
    L1^perp = L1, and two direct summands of rank dim, one inside the
    other, are equal; conversely equal frames pair to zero by isotropy.
    Raises ValueError for frames over different models, and
    UnsupportedSceneError, naming the frame and the reason, for a frame
    that is not Lagrangian.
    """
    if f2.model != f1.model:
        raise ValueError("mixed models")
    for name, f in (("first", f1), ("second", f2)):
        reason = _not_lagrangian(f, f.isotropy_defect(tmax), rng, tmax)
        if reason is not None:
            raise UnsupportedSceneError(
                f"frames_equal needs Lagrangian frames; the {name} frame "
                f"{f.label!r} is not: {reason}")
    return not any(a.pairing(b, tmax) for a in f1.gens for b in f2.gens)


# ---------------------------------------------------------------------------
# Pointwise Dirac subspaces
# ---------------------------------------------------------------------------

class PointDirac:
    """A subspace of the fibre (T (+) T*)_x given by scalar columns."""

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

    def is_isotropic(self) -> bool:
        return not any(point_pairing(self.model, a, b)
                       for a in self.columns for b in self.columns)

    def equals(self, other: "PointDirac") -> bool:
        rank = self.rank()
        if rank != other.rank():
            return False
        rows = [[col[i] for col in self.columns + other.columns]
                for i in range(2 * self.model.dim)]
        return scalar_rank(rows) == rank

    @classmethod
    def tangent(cls, model: Model) -> "PointDirac":
        dim = model.dim
        cols = []
        for k in range(dim):
            c = [ZERO] * (2 * dim)
            c[k] = Scalar(1)
            cols.append(c)
        return cls(model, cols)

    @classmethod
    def cotangent(cls, model: Model) -> "PointDirac":
        dim = model.dim
        cols = []
        for k in range(dim):
            c = [ZERO] * (2 * dim)
            c[dim + k] = Scalar(1)
            cols.append(c)
        return cls(model, cols)

    def conj(self) -> "PointDirac":
        """The conjugate subspace at the same (real) base point."""
        return PointDirac(self.model,
                          [conj_stack(self.model, c) for c in self.columns])

    def intersect(self, other: "PointDirac") -> "PointDirac":
        """Exact fibrewise intersection via the kernel of [A | -B].

        For a kernel vector v, each entry of the column sum_j v_j a_j is
        one sum over the nonzero v_j times the nonzero entries a_j[i]."""
        if other.model != self.model:
            raise ValueError("mixed models")
        if not self.columns or not other.columns:
            return PointDirac(self.model, [])
        size = 2 * self.model.dim
        rows = [[col[i] for col in self.columns] +
                [-col[i] for col in other.columns]
                for i in range(size)]
        out = []
        for v in scalar_kernel(rows):
            terms = [(x, a) for x, a in zip(v, self.columns) if x]
            col = [_dot((x, a[i]) for x, a in terms) for i in range(size)]
            if any(col):
                out.append(col)
        return PointDirac(self.model, out)
