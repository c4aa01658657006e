"""Generalized complex and generalized Kahler structures as Dirac-frame pairs.

A generalized complex structure is stored as a Dirac frame ``L`` with
``L`` transverse to its conjugate; its underlying real Poisson structure is
recovered from the combination ``(1/2i)(L - conj L)``, which must be the
graph of a bivector.  A generalized Kahler candidate is a pair of frames
``(L1, L2)``; the checker evaluates four conditions:

* ``transversality``   -- the anchor images of each frame and its conjugate
  span the tangent space;
* ``real_poisson_graphs`` -- both combinations ``(1/2i)(L_k - conj L_k)``
  are graphs of real Poisson bivectors;
* ``holomorphic_poisson_pair`` -- the combinations ``(1/2i)(L1 - L2)`` and
  ``(1/2i)(L1 - conj L2)`` carry certified holomorphic Poisson structures;
* ``positivity``       -- the pairing ``<u, conj u>`` is positive definite
  on the pointwise intersection ``L1 cap L2``.

Each condition is decided one way, shared by :func:`gc_from_dirac`,
:func:`gk_check` and every member of :func:`gk_deform_family`.  Everything
is exact: frame identities are pairings of Lagrangian frames, a graph's
bivector is one exact division by its covector block (a quotient N / d
where that is not polynomial, as on the members of a family), intersections
are kernel computations over Q(i), and positivity is settled by leading
principal minors of the exact Gram matrix.
"""

from fractions import Fraction
from itertools import combinations

from .errors import CertificateError, SingularityError, UnsupportedSceneError
from .forms import MixedForm
from .frames import (DiracFrame, _along, _require_lagrangian, _weighted_sum,
                     conj_stack, frames_equal, gauge_frame, point_pairing)
from .linalg import (_adjugate_quotient, _inverse_quotient, _is_constant,
                     _is_t_only, _isolate_real_roots, _not_polynomial,
                     _pivot_block, _sign_changes, generic_rank, mat_add,
                     mat_apply, mat_identity, mat_mul, mat_transpose,
                     poly_det, scalar_det, scalar_rank, sturm_chain)
from .model import Model
from .multivector import form_matrix
from .poisson import (Bivector, RealPoisson, build_L_sigma,
                      check_gauge_equiv, extract_holo_poisson,
                      gauge_real_poisson, schouten_defect)
from .poly import Poly
from .report import Report
from .scalars import Scalar

__all__ = [
    "GCStruct",
    "GKPair",
    "gc_deform",
    "gc_from_dirac",
    "gk_check",
    "gk_deform_family",
    "gk_lift",
    "graph_to_bivector",
    "half_i_difference",
]

_HALF_OVER_I = Scalar(0, Fraction(-1, 2))  # 1/(2i)

# the failures a condition records as its reason rather than raises
_REFUSALS = (SingularityError, UnsupportedSceneError, CertificateError)

_SAMPLES = 5  # points sampled by gc_from_dirac and gk_check
_FAMILY_SAMPLES = 4  # points sampled by gk_deform_family
# the parameter values at which gk_deform_family checks its members
_FAMILY_TS = (Fraction(1, 8), Fraction(-1, 8), Fraction(1, 16))


def half_i_difference(f1: DiracFrame, f2: DiracFrame, rng, tmax=None):
    """The Dirac combination (1/2i)(f1 - f2): one fibrewise sum, the
    covectors of ``f1`` weighted by 1/(2i) and those of ``f2`` by -1/(2i)
    (:func:`~gkdirac.frames._weighted_sum`)."""
    return _weighted_sum(f1, f2, _HALF_OVER_I, -_HALF_OVER_I, rng, tmax)


def _certified(frame: DiracFrame, rng, tmax):
    """The holomorphic Poisson structure of ``frame``
    (:func:`~gkdirac.poisson.extract_holo_poisson`), certified by
    :meth:`~gkdirac.poisson.HoloPoisson.certificates`; a failing
    certificate raises CertificateError."""
    hp = extract_holo_poisson(frame, rng, tmax=tmax)
    certs = hp.certificates(rng, tmax=tmax)
    if not certs.ok:
        raise CertificateError(
            f"extracted structure failed its certificates: {certs!r}")
    return hp


def _frame_uses_t(frame: DiracFrame) -> bool:
    return any(p.t_degree() > 0 for g in frame.gens for p in g.stack())


def _sample_points(model, rng, frames):
    """The points the pointwise conditions are read at, and their route:
    the origin alone, "constant", with no draw from ``rng`` when every
    frame is constant, and so the same at every point; else ``_SAMPLES``
    (5) sample points, "sampled"."""
    if all(_is_constant([g.stack() for g in f.gens]) for f in frames):
        return [model.origin()], "constant"
    with_t = any(_frame_uses_t(f) for f in frames)
    return (model.sample_points(rng, count=_SAMPLES, with_t=with_t),
            "sampled")


class _RationalGraph(UnsupportedSceneError):
    """The frame is the graph of a bivector N / d that is not polynomial,
    so a GCStruct or a GKPair cannot keep it."""

    def __init__(self, d):
        super().__init__("graph bivector is not polynomial; its "
                         "denominator is |det C|^2 = " + d.render())


def _graph_quotient(frame: DiracFrame, rng, tmax=None):
    """Recognize a frame as the graph {P xi + xi} of a bivector P = N / d,
    returned as ``(N, d)``.

    With V and C the vector and covector blocks of dim generators, each
    generator V e_j + C e_j is P (C e_j) + C e_j, so P C = V and
    P = V C^{-1}: one exact division, mod t^{tmax+1} with ``tmax``, gives
    ``(P, None)``.  Without ``tmax`` a quotient that is not polynomial is
    N = V adj(C) conj(det C) over d = |det C|^2, which is real, so P is
    real exactly when N is.  A frame with more generators keeps the dim
    whose covector columns a pivot search selects (on the t = 0 slice with
    ``tmax``).  The division proves the graph: N C = d V puts the kept
    generators in {N xi + d xi}, certified by the inverse on the inverse
    routes (:func:`~gkdirac.linalg._inverse_quotient`) and checked on the
    adjugate routes (CertificateError), and each other generator is
    checked against it.  That graph is Lagrangian, N being antisymmetric
    (:class:`Bivector` checks it), so only the frame's rank is left to
    read (:func:`~gkdirac.frames._not_lagrangian`, unless it is proved).
    A generator off the graph, or a rank below dim, is refused with the
    texts of :func:`frames_equal` comparing the frame with the graph.
    Raises SingularityError when the frame has fewer than dim generators
    or det C vanishes identically: the covector block then has rank below
    dim at every point, so some coordinate covector is outside its span
    and any point is a witness: the refusal reports the origin, for every
    block, constant or not, with no draw from ``rng``.
    """
    model = frame.model
    gens = frame.gens
    keep = range(len(gens))
    if len(gens) > model.dim:
        _, keep = _pivot_block([g.cov for g in gens], model, rng,
                               t_zero=tmax is not None)
    N = d = None
    certified = ()  # the generators the inverse's certificate covers
    if len(keep) == model.dim:
        V = mat_transpose([gens[j].vec for j in keep])
        C = mat_transpose([gens[j].cov for j in keep])
        N = _inverse_quotient(V, C, tmax)
        if N is not None:
            certified = keep
        else:
            try:
                N, det = _adjugate_quotient(V, C, tmax)
            except SingularityError:
                pass  # det C is identically zero
            else:
                if det is not None:
                    if tmax is not None:
                        raise _not_polynomial(det)
                    dbar = det.conj()
                    d = det * dbar
                    N = [[x * dbar for x in row] for row in N]
    if N is None:
        pt = model.origin()
        raise SingularityError(
            "frame is not a bivector graph: a coordinate covector is "
            f"outside the covector span (witness point {pt})", point=pt)
    try:
        bi = Bivector(model, N)
    except ValueError:
        raise CertificateError(
            "graph matrix is not antisymmetric; the frame is not isotropic")
    off = [j for j, g in enumerate(gens) if j not in certified
           and mat_apply(N, g.cov, tmax=tmax) != [
               (x if d is None else x * d).t_truncate(tmax) for x in g.vec]]
    if any(j in keep for j in off):
        raise CertificateError("graph division failed its identity N C = d V")
    if not frame.proved(tmax):
        _require_lagrangian("first", frame,
                            frame.isotropy_defect(tmax) if off else (), rng,
                            tmax)
    if off:
        raise SingularityError(
            "frame does not coincide with the graph of its candidate "
            "bivector; it meets the tangent bundle on a generic locus")
    return bi, d


def graph_to_bivector(frame: DiracFrame, rng, tmax=None) -> Bivector:
    """The polynomial bivector P of a graph frame {P xi + xi}
    (:func:`_graph_quotient`); UnsupportedSceneError when P is rational.
    """
    P, d = _graph_quotient(frame, rng, tmax=tmax)
    if d is not None:
        raise _RationalGraph(d)
    return P


# ---------------------------------------------------------------------------
# Generalized complex structures
# ---------------------------------------------------------------------------

class GCStruct:
    """A generalized complex structure: a Dirac frame plus its real Poisson
    bivector and the pointwise transversality certificate.

    ``checked_points`` are the points the trivial intersection with the
    conjugate was read at: ``_SAMPLES`` (5) sample points, or the origin
    alone for a constant frame."""

    __slots__ = ("model", "L", "pi", "checked_points")

    def __init__(self, model: Model, L: DiracFrame, pi: RealPoisson,
                 checked_points):
        self.model = model
        self.L = L
        self.pi = pi
        self.checked_points = list(checked_points)

    def __repr__(self):
        return (f"GCStruct(dim={self.model.dim}, "
                f"points={len(self.checked_points)})")


def _transversal(pairs, rng) -> bool:
    """The transversality condition: for each ``(frame, conjugate)`` pair
    the anchor images of both frames span the tangent space."""
    for f, cj in pairs:
        model = f.model
        A = [[g.vec[i] for g in f.gens + cj.gens] for i in range(model.dim)]
        if generic_rank(A, model, rng) != model.dim:
            return False
    return True


def _jacobi_defect(N: Bivector, d=None, tmax=None):
    """Nonzero Jacobiator entries of P = N / d (of N when d is None), as
    those of d^3 [P, P] in the normalisation of :func:`schouten_defect`.

    With X^a = sum_l N^{la} d_l d, the Leibniz rule gives
    d^3 J(P)^{abc} = d J(N)^{abc} - 2 (X^a N^{bc} + X^b N^{ca} + X^c N^{ab}),
    which vanishes exactly when J(P) does, d being nonzero.
    """
    J = schouten_defect(N, tmax=tmax)
    if d is None:
        return J
    model, M = N.model, N.mat  # M[x][y] = N^{yx}
    X = [Poly.sum(model.n, _along(row, d)) for row in M]
    out = {}
    for a, b, c in combinations(range(model.dim), 3):
        cyc = X[a] * M[c][b] + X[b] * M[a][c] + X[c] * M[b][a]
        acc = d * J.get((a, b, c), model.zero_poly()) - cyc - cyc
        if acc:
            out[(a, b, c)] = acc
    return out


def _real_poisson(L: DiracFrame, conj: DiracFrame, rng,
                  tmax=None) -> RealPoisson:
    """The real Poisson structure of (1/2i)(L - conj L), ``conj`` being
    the conjugate frame: the graph's bivector P = N / d
    (:func:`_graph_quotient`), certified real and of zero Jacobiator.

    This is the one decision of the ``real_poisson_graphs`` condition.  It
    raises SingularityError, UnsupportedSceneError or CertificateError,
    naming the check that fails; a rational P that passes every check
    raises :class:`_RationalGraph`, as it cannot be kept.
    """
    gamma = half_i_difference(L, conj, rng, tmax=tmax)
    N, d = _graph_quotient(gamma, rng, tmax=tmax)
    pi = RealPoisson(L.model, N)  # N is real exactly when P is
    defect = _jacobi_defect(N, d, tmax=tmax)
    if defect:
        raise CertificateError(
            "underlying bivector fails the Jacobi identity on entries "
            + ", ".join(str(k) for k in defect))
    if d is not None:
        raise _RationalGraph(d)
    return pi


def gc_from_dirac(L: DiracFrame, rng, tmax=None) -> GCStruct:
    """Extract the generalized complex data carried by a Dirac frame.

    Certifies transversality with the conjugate frame both generically
    (anchor spans) and pointwise (trivial intersection at ``_SAMPLES``, 5,
    sample points; at the origin alone for a constant frame, whose
    intersection is the same at every point), and recovers the real
    Poisson structure from (1/2i)(L - conj L).
    """
    model = L.model
    conj = L.conj()
    if not _transversal(((L, conj),), rng):
        raise SingularityError(
            "anchor images of the frame and its conjugate do not span the "
            "tangent space")
    pi = _real_poisson(L, conj, rng, tmax=tmax)
    points, _route = _sample_points(model, rng, [L])
    ranks = [L.eval_point(p).intersect(conj.eval_point(p)).rank()
             for p in points]
    if min(ranks) != 0:
        raise SingularityError(
            f"frame meets its conjugate at every sampled point (ranks "
            f"{ranks})")
    return GCStruct(model, L, pi, points)


def gc_deform(g: GCStruct, beta: MixedForm, rng, tmax=None) -> GCStruct:
    """Deform a generalized complex structure by a closed complex 2-form.

    The new frame is e^beta L; the new Poisson structure must equal the
    gauge transform of the old one by Im(beta), and both routes to it are
    computed and compared.
    """
    if not beta.d().is_zero():
        raise CertificateError("deformation form must be closed")
    moved = gauge_frame(g.L, beta, tmax=tmax)
    expected = gauge_real_poisson(g.pi, beta.imag_part(), rng, tmax=tmax)
    out = gc_from_dirac(moved, rng, tmax=tmax)
    if out.pi.pi != expected.pi:
        raise CertificateError(
            "gauged frame and gauged bivector disagree; the deformation is "
            "not acting as a B-field transform")
    return out


# ---------------------------------------------------------------------------
# Generalized Kahler pairs
# ---------------------------------------------------------------------------

class GKPair:
    """A pair of Dirac frames with its extracted Poisson data.

    ``gram_samples`` holds ``(point, minors)`` for each point of
    :func:`gk_check` where L1 cap L2 has rank n: one entry at most, the
    origin, for constant frames."""

    __slots__ = ("model", "L1", "L2", "sigma_plus", "sigma_minus",
                 "pi1", "pi2", "gram_samples")

    def __init__(self, model, L1, L2, sigma_plus, sigma_minus, pi1, pi2,
                 gram_samples):
        self.model = model
        self.L1 = L1
        self.L2 = L2
        self.sigma_plus = sigma_plus
        self.sigma_minus = sigma_minus
        self.pi1 = pi1
        self.pi2 = pi2
        self.gram_samples = gram_samples

    def __repr__(self):
        return f"GKPair(dim={self.model.dim})"


def _gk_verdict(conditions) -> str:
    """The verdict string of a four-condition dictionary."""
    if all(conditions.values()):
        return "generalized kahler"
    if conditions["holomorphic_poisson_pair"]:
        return "degenerate generalized kahler"
    return "not generalized kahler"


def _positivity(model, f1: DiracFrame, f2: DiracFrame, points):
    """The positivity condition: <u, conj u> is positive definite on the
    pointwise intersection f1 cap f2, by the leading principal minors of
    its exact Gram matrix.

    Returns the verdict and, per sample point, ``(pt, p1, ell, minors)``
    with ``p1`` the value of f1 there and ``ell`` the intersection;
    ``minors`` is None where ``ell`` has not rank n (a non-generic sample,
    settled by the other points).  The verdict needs one generic point,
    and every generic point positive.
    """
    votes = []
    samples = []
    for pt in points:
        p1 = f1.eval_point(pt)
        ell = p1.intersect(f2.eval_point(pt))
        minors = None
        if ell.rank() == model.n:
            cols = ell.columns
            conjs = [conj_stack(model, b) for b in cols]
            G = [[point_pairing(model, a, b) for b in conjs] for a in cols]
            minors = []
            for k in range(1, len(G) + 1):
                m = scalar_det([row[:k] for row in G[:k]])
                if m.im != 0:
                    raise CertificateError(
                        "pairing matrix has a non-real principal minor; "
                        "it is not Hermitian")
                minors.append(m.re)
            votes.append(all(m > 0 for m in minors))
        samples.append((pt, p1, ell, minors))
    return bool(votes) and all(votes), samples


def gk_check(L1: DiracFrame, L2: DiracFrame, rng, tmax=None) -> Report:
    """Run the four-condition generalized Kahler check on a frame pair.

    Positivity is decided at ``_SAMPLES`` (5) sample points.  When both
    frames are constant, it is decided at the origin alone, with no draw
    from ``rng``: a constant frame is the same at every point, so the
    intersection and its Gram minors there are those of every point.
    ``stats["points_route"]`` says which ("constant" or "sampled"), and
    ``stats["points"]`` how many points were read.

    Never raises for a mathematically meaningful failure -- each condition
    is reported with its reason.  Internal-consistency violations (a
    passing extraction with mismatched imaginary parts, or a passing
    pair that fails the implied transversality) do raise CertificateError,
    since they would indicate broken arithmetic rather than a bad input.
    The imaginary parts Q = -2i(sigma - conj sigma) of sigma_+ and sigma_-
    are compared directly: each sigma has passed its ``type_20``
    certificate, so Q is the bivector of ``poisson.imag_Q``, and its
    reconstruction sigma = (1/4)(I Q + i Q), which holds exactly when
    sigma is of type (2,0), is not proved a second time.
    """
    if tmax is not None and tmax < 0:
        raise ValueError("tmax must be at least 0")
    model = L1.model
    if L2.model != model:
        raise ValueError("mixed models")
    conj1, conj2 = L1.conj(), L2.conj()
    conditions = {}
    witnesses = {}
    stats = {}

    conditions["transversality"] = _transversal(
        ((L1, conj1), (L2, conj2)), rng)

    pis = []
    for tag, f, cj in (("first", L1, conj1), ("second", L2, conj2)):
        try:
            pis.append(_real_poisson(f, cj, rng, tmax=tmax))
        except _REFUSALS as err:
            witnesses[f"real_structure_{tag}"] = str(err)
            pis.append(None)
    pi1, pi2 = pis
    conditions["real_poisson_graphs"] = pi1 is not None and pi2 is not None

    hps = []
    for tag, other in (("plus", L2), ("minus", conj2)):
        try:
            hp = _certified(half_i_difference(L1, other, rng, tmax=tmax),
                            rng, tmax)
        except _REFUSALS as err:
            witnesses[f"holomorphic_{tag}"] = str(err)
            hp = None
        hps.append(hp)
    hp_plus, hp_minus = hps
    conditions["holomorphic_poisson_pair"] = (hp_plus is not None
                                              and hp_minus is not None)

    if conditions["holomorphic_poisson_pair"]:
        # each Q = -2i(sigma - conj sigma), compared before the factor -2i
        if (hp_plus.sigma - hp_plus.sigma.conj()
                != hp_minus.sigma - hp_minus.sigma.conj()):
            raise CertificateError(
                "extracted structures do not share an imaginary part; this "
                "contradicts the half-difference identities")
        stats["imaginary_parts_match"] = True
        if conditions["real_poisson_graphs"] and not \
                conditions["transversality"]:
            raise CertificateError(
                "real and holomorphic conditions hold but transversality "
                "fails; the implication between them is broken")

    points, stats["points_route"] = _sample_points(model, rng, [L1, L2])
    stats["points"] = len(points)
    conditions["positivity"], samples = _positivity(model, L1, L2, points)
    gram_samples = []
    spanning = []
    for pt, p1, ell_plus, minors in samples:
        if minors is None:
            continue
        gram_samples.append((pt, minors))
        if conditions["holomorphic_poisson_pair"] and \
                conditions["real_poisson_graphs"]:
            ell_minus = p1.intersect(conj2.eval_point(pt))
            cols = (ell_plus.columns + ell_minus.columns
                    + [conj_stack(model, c) for c in ell_plus.columns]
                    + [conj_stack(model, c) for c in ell_minus.columns])
            rows = [[c[i] for c in cols] for i in range(2 * model.dim)]
            spanning.append(scalar_rank(rows) == 2 * model.dim)
    stats["intersection_ranks"] = [ell.rank() for _pt, _p1, ell, _m
                                   in samples]
    if conditions["holomorphic_poisson_pair"] and spanning \
            and not all(spanning):
        raise CertificateError(
            "the four intersection subspaces fail to span the fibre at a "
            "generic sample point")
    if spanning:
        stats["fibre_splits"] = True

    pair = None
    if conditions["holomorphic_poisson_pair"]:
        pair = GKPair(model, L1, L2, hp_plus, hp_minus, pi1, pi2,
                      gram_samples)
    return Report("gk_check", conditions, witnesses=witnesses, stats=stats,
                  model=model, conditions=dict(conditions),
                  verdict=_gk_verdict(conditions), pair=pair)


# ---------------------------------------------------------------------------
# Lifting gauge deformations of the half-difference structures
# ---------------------------------------------------------------------------

def gk_lift(beta_plus: MixedForm, beta_minus: MixedForm, pair: GKPair,
            rng, tmax=None) -> Report:
    """Lift a pair of gauge deformations of (sigma_+, sigma_-) to the pair.

    Given closed 2-forms with a shared imaginary part B, the frames are
    re-gauged by beta1 = -B + i(F_- + F_+) and beta2 = B + i(F_- - F_+),
    where F_+- are the real parts.  The lifted pair satisfies the two
    half-difference identities

        (1/2i)(e^{beta1} L1 - e^{beta2} L2) = e^{beta_+} L_{sigma_+},
        (1/2i)(e^{beta1} L1 - conj(e^{beta2} L2)) = e^{beta_-} L_{sigma_-},

    so the four-condition check of the new pair extracts and certifies
    each gauged structure sigma'_+- once, and :func:`check_gauge_equiv`
    proves sigma'_+- the gauge of sigma_+- by beta_+-: together they prove
    both identities.  A gauge form whose half-difference carries no
    holomorphic Poisson structure, or whose structure is not the gauge of
    the original, raises CertificateError.
    """
    for b in (beta_plus, beta_minus):
        if not b.d().is_zero():
            raise CertificateError("gauge forms must be closed")
    B = beta_plus.imag_part()
    if beta_minus.imag_part() != B:
        raise CertificateError("gauge forms must share their imaginary part")
    F_plus = beta_plus.real_part()
    F_minus = beta_minus.real_part()

    i1 = Scalar(0, 1)
    beta1 = B.scale(Scalar(-1)) + (F_minus + F_plus).scale(i1)
    beta2 = B + (F_minus - F_plus).scale(i1)
    report = gk_check(gauge_frame(pair.L1, beta1, tmax=tmax),
                      gauge_frame(pair.L2, beta2, tmax=tmax), rng, tmax=tmax)
    for tag in ("plus", "minus"):
        reason = report.witnesses.get(f"holomorphic_{tag}")
        if reason is not None:
            # hypothesis of the lift: each gauge form must carry its
            # structure to another holomorphic Poisson structure
            raise CertificateError(
                f"the {tag} gauge form does not produce a holomorphic "
                f"Poisson structure: {reason}")
    lifted = report.pair
    for tag, hp, hp_new, beta in (
            ("plus", pair.sigma_plus, lifted.sigma_plus, beta_plus),
            ("minus", pair.sigma_minus, lifted.sigma_minus, beta_minus)):
        if not check_gauge_equiv(hp, hp_new, beta, rng=rng, tmax=tmax).ok:
            raise CertificateError(
                f"gauged {tag} structure is not gauge-equivalent to the "
                "original")
    return report


# ---------------------------------------------------------------------------
# One-parameter families
# ---------------------------------------------------------------------------

def _t_window(det_roots) -> tuple:
    """The open parameter interval around 0 that is free of determinant
    roots at the sampled points; either side is None when unbounded.

    Each side stops at the near end of the nearest isolating interval, so
    the window can be narrower than the root-free interval at those points,
    never wider.  It says nothing about points that were not sampled, nor
    about where the open conditions hold."""
    lo = hi = None
    for roots in det_roots.values():
        if roots is None:
            continue
        for per_point in roots:
            # _det_root_intervals keeps every interval (a, b] off 0
            for a, b in per_point:
                if a >= 0:
                    hi = a if hi is None else min(hi, a)
                else:
                    lo = b if lo is None else max(lo, b)
    return (lo, hi)


def _off_zero(coeffs, intervals):
    """Isolating intervals (lo, hi] refined by bisection until none touches
    t = 0, that is until lo > 0 or hi < 0.

    A determinant of the pencil 1 + F pi is 1 at t = 0, so 0 is not a root
    and an interval that holds roots shrinks away from 0."""
    if all(lo > 0 or hi < 0 for lo, hi in intervals):
        return intervals
    chain = sturm_chain(coeffs)
    out = []
    todo = list(reversed(intervals))
    while todo:
        lo, hi = todo.pop()
        if lo > 0 or hi < 0:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        v_lo, v_mid, v_hi = (_sign_changes(chain, x) for x in (lo, mid, hi))
        todo += [iv for iv, k in (((mid, hi), v_mid - v_hi),
                                  ((lo, mid), v_lo - v_mid)) if k]
    return out


def _det_root_intervals(det: Poly, model, points):
    """Real roots in t of a determinant, isolated at each sample point."""
    out = []
    deg = det.t_degree()
    for pt in points:
        coeffs = []
        for k in range(deg + 1):
            v = det.t_coefficient(k).eval(pt)
            if v.im != 0:
                raise CertificateError(
                    "determinant of a real pencil evaluated non-real")
            coeffs.append(v.re)
        while coeffs[-1] == 0:  # coeffs[0] is 1: the pencil at t = 0
            coeffs.pop()
        out.append(_off_zero(coeffs, _isolate_real_roots(coeffs)))
    return out


def gk_deform_family(pair: GKPair, F: MixedForm, rng, tmax) -> Report:
    """Deform a pair by the family (e^{iF} L1, e^{-iF} L2) for a real
    closed t-dependent 2-form F with F(0) = 0.

    The series-level work is done once: the deformed sigma_+ family is
    re-extracted and certified to order tmax, and sigma_- is certified
    unchanged as a frame identity, both from the L_sigma frames that
    :func:`gk_check` built and ``pair``'s structures keep.  Together these
    settle the holomorphic pair condition for the whole family.  The open
    conditions -- transversality, real Poisson graphs, positivity --
    genuinely depend on the parameter value and are re-established at
    each t of ``_FAMILY_TS`` (1/8, -1/8, 1/16); ``checked`` records (t,
    conditions, verdict) triples, with conditions None where a degenerate
    value was skipped.  Determinant root intervals for both real pencils are
    isolated at ``_FAMILY_SAMPLES`` (4) sample points (``det_roots``),
    each refined until it excludes t = 0; ``stats["t_window"]`` is the
    interval around 0 free of those roots.  It is not a bound on where
    the open conditions hold.

    When every entry of both deformed frames and of both pencil
    determinants depends on t alone, each member and each determinant at
    a value of t is constant, so the roots, the "determinant vanishes"
    skip and each member's positivity are decided at the origin alone,
    with no draw from ``rng``.  ``stats["points_route"]`` says which
    ("constant" or "sampled") and ``stats["points"]`` how many points
    were read.
    """
    if tmax < 0:
        raise ValueError("tmax must be at least 0")
    model = pair.model
    if not F.t_truncate(0).is_zero():
        raise CertificateError("family must vanish at t = 0")
    if not F.is_real():
        raise CertificateError("family must be real")
    if not F.d().is_zero():
        raise CertificateError("family must be closed")

    iF = F.scale(Scalar(0, 1))
    L1t = gauge_frame(pair.L1, iF)
    L2t = gauge_frame(pair.L2, iF.scale(Scalar(-1)))

    hp_family = _certified(
        gauge_frame(build_L_sigma(pair.sigma_plus, check=False), F), rng,
        tmax)
    minus_fixed = frames_equal(
        half_i_difference(L1t, L2t.conj(), rng),
        build_L_sigma(pair.sigma_minus, check=False), rng)

    dets = {}
    Fmat = form_matrix(F)
    for tag, rp in (("first", pair.pi1), ("second", pair.pi2)):
        if rp is not None:  # the pencil 1 + F pi
            dets[tag] = poly_det(mat_add(mat_identity(model.dim, model.n),
                                         mat_mul(Fmat, rp.pi.mat)))
    if (_is_t_only([g.stack() for g in L1t.gens + L2t.gens])
            and all(d.is_t_only() for d in dets.values())):
        points, route = [model.origin()], "constant"
    else:
        points = model.sample_points(rng, count=_FAMILY_SAMPLES)
        route = "sampled"
    det_roots = {tag: _det_root_intervals(dets[tag], model, points)
                 if tag in dets else None for tag in ("first", "second")}

    holo_ok = bool(minus_fixed)
    checked = []
    for tv in _FAMILY_TS:
        sval = Scalar(tv)
        if any(det.substitute_t(sval).eval(pt).is_zero()
               for det in dets.values() for pt in points):
            checked.append((tv, None, "skipped: determinant vanishes"))
            continue
        f1 = L1t.substitute_t(sval)
        f2 = L2t.substitute_t(sval)
        pairs = ((f1, f1.conj()), (f2, f2.conj()))
        conds = {"transversality": _transversal(pairs, rng),
                 "real_poisson_graphs": True}
        for f, cj in pairs:
            try:
                _real_poisson(f, cj, rng)
            except _RationalGraph:
                pass  # a Poisson bivector all the same, rational in z
            except _REFUSALS:
                conds["real_poisson_graphs"] = False
                break
        conds["holomorphic_poisson_pair"] = holo_ok
        conds["positivity"] = _positivity(model, f1, f2, points)[0]
        checked.append((tv, conds, _gk_verdict(conds)))

    members_gk = all(v == "generalized kahler" for _t, _c, v in checked)
    return Report("gk_deform_family",
                  {"minus_fixed": minus_fixed,
                   "members_generalized_kahler": members_gk},
                  stats={"t_window": _t_window(det_roots),
                         "points_route": route, "points": len(points)},
                  model=model, L1=L1t, L2=L2t, sigma_plus_family=hp_family,
                  minus_fixed=minus_fixed, det_roots=det_roots,
                  checked=checked)
