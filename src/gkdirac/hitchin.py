"""Order-by-order Poisson deformations driven by closed two-forms.

The deformation complex of a holomorphic Poisson structure ``sigma`` lives
on polyvector-valued (0,q)-forms (:mod:`gkdirac.multivector`) with
differential ``partial_bar + [sigma, .]``.  A closed two-form ``beta``
vanishing at t = 0 generates the inverse series

    omega = (1 + beta sigma)^{-1} beta = beta - beta sigma beta + ...

which solves the form-side flatness equation; transporting omega along
``-sigma (+) id`` yields the element ``eps = rho + phi + gamma`` whose
graph deformation of ``L_sigma`` coincides with the gauge ``e^beta
L_sigma``.  The solver corrects an initial closed (1,1)+(2,0) seed
order-by-order so that the transported gamma-part dies: at each order the
(0,2) obstruction is certified ``partial_bar``-closed, contracted with the
antiholomorphic Euler vector field into a primitive, and fed back as an
exact correction.  The obstruction is the (0,2) part of the t-block of
omega that the earlier orders fix, and omega grows by one block per order
(relaxed, or online, series arithmetic), so it is solved once and no order
re-inverts the series.  The finished blocks are certified once: the
assembled series is proved closed, omega satisfies (1 + beta sigma) omega
= beta, which has one solution mod t^{order+1}, and omega's (0,2) part is
shown to vanish and its transport to be flat.  Everything on the flat
model is exact rational arithmetic, so each certificate is an identity,
not an approximation.

The same data read as a family in t supports two Hamiltonian-flow
certificates.  For a real parameter, the gauged bivector family solves
``pi_dot = -pi B_dot pi`` and the span {d/dt} u {pi xi + xi} on the
parameter-extended model is involutive for the Courant bracket twisted by
``dt ^ B_dot``.  For a complex parameter, the deformed complex structure
and bivector obey three coupled derivative identities, checked in matrix
form after substituting the parameter for a fresh holomorphic coordinate
s (so that conjugation produces honest antiholomorphic dependence).  The
lifted parameter keeps t as the total (s, sbar) degree: t^k becomes
t^k s^k, so every t-truncation of the lifted family is its weight cut.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .brackets import dgla_bracket, mc_residual_dgla, mc_residual_koszul, \
    pi_star, unit_vector
from .errors import CertificateError, SingularityError, UnsupportedSceneError
from .forms import MixedForm, euler_homotopy, dt_leg
from .frames import (DiracFrame, GVField, _EVERY_ORDER, _along,
                     _conj_operator, dirac_scale, dirac_sum, frames_equal,
                     gauge_frame, graph_bivector, involutivity_report)
from .linalg import (_mat_from_t_blocks, _mat_series_term, _mat_t_blocks,
                     _scalar_mul, mat_add, mat_apply, mat_eval,
                     mat_identity, mat_is_zero, mat_mul, mat_neg, mat_scale,
                     mat_sub, mat_t_truncate, mat_transpose, mat_zero,
                     poly_det, poly_mat_inverse, scalar_inverse, scalar_rank)
from .model import Model
from .multivector import (MVElement, bivector_matrix, form_matrix,
                          form_from_matrix, mv_from_bivector_matrix,
                          phi_geom_matrix)
from .poisson import (Bivector, HoloPoisson, build_L_sigma,
                      _describe_zero_locus, _holo_projector)
from .poly import Poly
from .report import Report
from .scalars import Scalar

__all__ = [
    "DeformSeries",
    "deformation_frame",
    "deformed_holomorphic_lift",
    "deformed_structures",
    "formality_psi",
    "hamiltonian_family_check",
    "mc_component_check",
    "pi_star_transport",
    "solve_hitchin",
    "twistor_demo",
    "verify_graph_identity",
]

_MINUS_ONE = Scalar(-1)
_HALF = Fraction(1, 2)
_GRAPH_SAMPLES = 5  # points verify_graph_identity compares the frames at


# ---------------------------------------------------------------------------
# Input checks
# ---------------------------------------------------------------------------

def _background(model, sigma) -> HoloPoisson:
    """The background, a :class:`HoloPoisson` over the undeformed complex
    structure; anything that is not a HoloPoisson is a TypeError."""
    if not isinstance(sigma, HoloPoisson):
        raise TypeError("the background must be a HoloPoisson, not a "
                        + type(sigma).__name__)
    if not sigma.phi.is_zero():
        raise UnsupportedSceneError(
            "the background complex structure must be undeformed")
    if sigma.model != model:
        raise ValueError("background on a different model")
    return sigma


def _holo_sigma(model, sigma):
    """Leg matrix of the background bivector, which must be of type (2,0)."""
    sig = _background(model, sigma).sigma
    if not sig.is_pure_holo():
        raise UnsupportedSceneError("the background bivector must be of "
                                    "type (2,0)")
    return sig.mat


def _sigma_element(model, sigma) -> MVElement:
    """Background bivector as a (2,0) element of the polyvector complex."""
    return mv_from_bivector_matrix(model, _holo_sigma(model, sigma))


def _form_of_bar_element(x: MVElement) -> MixedForm:
    """A (0,q) element of the polyvector complex reread as a (0,q)-form."""
    if any(p for (p, _q) in x.comps):
        raise ValueError("element has vector legs")
    return MixedForm(x.model, {(0, q, 0): table
                               for (_p, q), table in x.comps.items()})


def _reject_dt(form: MixedForm, what: str):
    for (_p, _q, r) in form.comps:
        if r:
            raise UnsupportedSceneError(f"{what} cannot carry dt legs")


# ---------------------------------------------------------------------------
# Degree-two elements of the deformation complex
# ---------------------------------------------------------------------------

def _split(eps: MVElement):
    """The pieces ``(rho, phi, gamma)`` of a degree-two element: its (2,0)
    bivector, (1,1) endomorphism and (0,2) form parts.  A piece of any other
    bidegree raises ValueError."""
    if set(eps.comps) - {(2, 0), (1, 1), (0, 2)}:
        raise ValueError("element is not of pure degree two")
    return eps.component(2, 0), eps.component(1, 1), eps.component(0, 2)


def pi_star_transport(omega: MixedForm, sigma: HoloPoisson,
                      tmax=None) -> MVElement:
    """Transport a two-form into the polyvector complex along -sigma (+) id,
    ``sigma`` being the background :class:`HoloPoisson`.

    The (2,0) part lands on the second exterior power of sigma, the (1,1)
    part on -sigma composed with the form, and the (0,2) part is carried
    over unchanged; a form whose transport is not of degree two raises
    ValueError.
    """
    _reject_dt(omega, "transported forms")
    S = _holo_sigma(omega.model, sigma)
    # every coefficient passes a wedge mod t^{tmax+1} in pi_star
    eps = pi_star(omega, S, tmax=tmax)
    _split(eps)
    return eps


# ---------------------------------------------------------------------------
# The inverse series of a two-form against the background bivector
# ---------------------------------------------------------------------------

def formality_psi(beta: MixedForm, sigma: HoloPoisson, order: int,
                  check: bool = True) -> MixedForm:
    """The inverse series (1 + beta sigma)^{-1} beta, mod t^{order+1}.

    ``beta`` must be closed with no constant t-term, and ``sigma`` is a
    :class:`HoloPoisson` over the undeformed complex structure.  Its
    t-blocks come from a recurrence, not an inverse, and get the
    certificate :func:`solve_hitchin` gives its own blocks
    (:func:`_certified_inverse`); beta sigma has no t^0 block, so the
    defining identity (1 + beta sigma) omega = beta has exactly one
    solution mod t^{order+1}, which the alternating partial sums beta -
    beta sigma beta + ... only restate.  ``check=True`` adds the flatness
    residual.
    """
    if order < 0:
        raise ValueError("order must be at least 0")
    model = beta.model
    _reject_dt(beta, "the inverse series")
    if not beta.t_coefficient(0).is_zero():
        raise CertificateError(
            "input has a constant t-term; the order-by-order inverse needs "
            "a form vanishing at t = 0")
    M = _background(model, sigma).sigma.mat
    W = form_matrix(beta)
    A = mat_mul(W, M, tmax=order)
    # omega's blocks solve (1 + A) omega = W: omega_j = W_j - sum_{i<j} A_i
    # omega_{j-i}; W_0 = 0, so A_0 = 0 and nothing is inverted
    Ws, As = _mat_t_blocks(W, order), _mat_t_blocks(A, order)
    blocks = [Ws[0]]
    for j in range(1, order + 1):
        blocks.append(mat_sub(Ws[j], _mat_series_term(As, blocks, j)))
    return _certified_inverse(beta, M, W, A, _mat_from_t_blocks(blocks),
                              order, check)


def _certified_inverse(beta, M, W, A, psi_op, order, check) -> MixedForm:
    """The two-form of ``psi_op``, certified as the inverse series of the
    closed ``beta`` (form matrix ``W``, ``A`` = W M by ``mat_mul``) against
    sigma's matrix ``M``, mod t^{order+1}.

    One d() of the assembled ``beta`` proves it closed, and the defining
    identity (1 + A) psi = W is checked on the assembled matrices.  With
    ``check`` the flatness residual d psi + (1/2)[psi, psi]_sigma must
    vanish.  The flatness of the transported element
    (:func:`mc_component_check`) does not imply it: pi_star is not
    injective on 3-forms once n = 3 (for sigma = z1 d1^d2 it kills
    dz3 ^ dzbar1 ^ dzbar2).  It is also the only caller of
    ``brackets.koszul_bracket`` on the benchmark workloads.
    """
    if not beta.d().is_zero():
        raise CertificateError("input two-form must be closed")
    lhs = mat_add(psi_op, mat_mul(A, psi_op, tmax=order))
    if mat_t_truncate(lhs, order) != mat_t_truncate(W, order):
        raise CertificateError("inverse series failed its defining identity")
    psi = form_from_matrix(beta.model, psi_op)
    if check and not mc_residual_koszul(psi, M, tmax=order).is_zero():
        raise CertificateError(
            "flatness residual of the inverse series is nonzero")
    return psi


# ---------------------------------------------------------------------------
# Graph deformation of L_sigma and the gauge identity
# ---------------------------------------------------------------------------

def deformation_frame(hp: HoloPoisson, eps: MVElement,
                      tmax=None) -> DiracFrame:
    """The graph deformation of L_sigma by a degree-two element.

    Columns are ``X + phi X + gamma(X)`` over the antiholomorphic frame
    and ``sigma zeta + rho zeta + zeta - phi^* zeta`` over the holomorphic
    covectors; for ``eps = 0`` this is the frame of ``hp`` itself.

    When sigma is of type (2,0) and the model is parameter-free, the
    frame is Lagrangian by construction (``DiracFrame.built``), at the
    orders up to ``tmax``: zeta - phi^* zeta annihilates X + phi X, gamma
    and sigma + rho are antisymmetric, the vectors sigma zeta + rho zeta
    have no dzbar legs for gamma to pair with, and the dzbar legs of the
    vectors and the dz legs of the covectors form a unitriangular block.
    A (1,1) leg of sigma pairs with gamma, so nothing is recorded then.
    """
    model = hp.model
    if not hp.phi.is_zero():
        raise UnsupportedSceneError(
            "the base frame must sit over the undeformed complex structure")
    n, dim = model.n, model.dim
    rho, phi, gamma = _split(eps)
    shape = HoloPoisson(model, phi=phi)
    Mrho = bivector_matrix(rho)
    # gamma(d/dzbar_b): c dzbar_j ^ dzbar_k, j < k, gives c dzbar_k at
    # b = j and -c dzbar_j at b = k
    covs = [[model.zero_poly() for _ in range(dim)] for _ in range(n)]
    for (_I, (j, k)), c in gamma.comps.get((0, 2), {}).items():
        covs[j][n + k] = c
        covs[k][n + j] = -c
    gens = [GVField(model, vec=v, cov=cov)
            for v, cov in zip(shape.antiholo_frame_columns(), covs)]
    for a, cov in enumerate(shape.holo_covector_columns()):
        v = hp.sigma.apply(unit_vector(model, a), tmax=tmax)
        for k in range(dim):
            if Mrho[k][a]:
                v[k] = v[k] + Mrho[k][a]
        gens.append(GVField(model, vec=v, cov=cov))
    frame = DiracFrame(model, gens, label="deformed")
    if not model.param and hp.sigma.is_pure_holo():
        frame.built = _EVERY_ORDER
    return frame.t_truncate(tmax)


def _const_matrix(model, rows):
    return [[Poly.const(model.n, v) for v in row] for row in rows]


def _matrix_uses_t(M) -> bool:
    return any(e and e.t_degree() > 0 for row in M for e in row)


def verify_graph_identity(beta: MixedForm, hp: HoloPoisson, rng,
                          order=None) -> Report:
    """Certify e^beta L_sigma = the graph deformation by the transported
    inverse series of beta.

    The comparison runs pointwise-exactly at ``_GRAPH_SAMPLES`` (5) sample
    points, drawn from at most ten times as many -- there the inverse is a
    scalar matrix inverse over Q(i), so no truncation enters -- and, when
    ``order`` is given and beta vanishes at t = 0, once more at series
    level mod t^{order+1}, as ``checks["series"]``, which is absent when
    no series comparison ran (``series_equal`` None).  Points on the
    degeneracy locus of 1 + beta sigma are skipped; the locus itself is
    reported.  The sampled ``(point, agrees)`` pairs are in
    ``witnesses["points"]``.
    """
    model = beta.model
    hp = _background(model, hp)
    _reject_dt(beta, "the gauge identity")
    dim = model.dim
    W = form_matrix(beta)
    M = hp.sigma.mat
    E = mat_add(mat_identity(dim, model.n), mat_mul(M, W))
    det = poly_det(E)
    if not det:
        raise SingularityError("1 + beta sigma is everywhere degenerate",
                               determinant="0")
    locus = _describe_zero_locus(det)
    moved = gauge_frame(build_L_sigma(hp, check=False), beta)
    with_t = _matrix_uses_t(W) or _matrix_uses_t(M)
    points = []
    attempts = 0
    while len(points) < _GRAPH_SAMPLES and attempts < 10 * _GRAPH_SAMPLES:
        attempts += 1
        pt = model.sample_point(rng, with_t=with_t)
        if det.eval(pt).is_zero():
            continue
        Wp = mat_eval(W, pt)
        Mp = mat_eval(M, pt)
        Einv = scalar_inverse(mat_eval(E, pt))
        psi_p = _scalar_mul(Wp, Einv)
        hp_p = HoloPoisson(model, sigma=Bivector(model, _const_matrix(model,
                                                                      Mp)))
        eps_p = pi_star_transport(
            form_from_matrix(model, _const_matrix(model, psi_p)), hp_p)
        right = deformation_frame(hp_p, eps_p).eval_point(pt)
        left = moved.eval_point(pt)
        points.append((pt, left.equals(right)))
    if len(points) < _GRAPH_SAMPLES:
        raise SingularityError(
            "could not sample enough points off the degeneracy locus; the "
            "determinant vanishes on: " + locus)
    checks = {"points_agree": all(flag for _pt, flag in points)}
    series_equal = None
    if order is not None and not beta.is_zero() \
            and beta.t_coefficient(0).is_zero():
        psi = formality_psi(beta, hp, order, check=False)
        eps = pi_star_transport(psi, hp, tmax=order)
        series_equal = checks["series"] = frames_equal(
            moved, deformation_frame(hp, eps, tmax=order), rng, tmax=order)
    return Report("graph_identity", checks,
                  witnesses={"points": points, "det_locus": locus},
                  stats={"series_order": order},
                  model=model, series_equal=series_equal)


# ---------------------------------------------------------------------------
# The order-by-order solve
# ---------------------------------------------------------------------------

class DeformSeries:
    """Outcome of the order-by-order solve: per-order data and certificates.

    ``betas[k-1]`` is the t-free coefficient of t^k in the corrected
    series; ``residuals[k]`` and ``gammas[k]`` record the (0,2)
    obstruction and its Euler primitive at each order; ``omega`` is the
    inverse series of the assembled form mod t^{order+1}, and ``eps`` its
    transported flat element.  The constructor checks only that a real
    series has real coefficients; :func:`solve_hitchin` certifies the rest
    (closedness, the defining identity, the vanishing (0,2) part and
    flatness) before it builds one.
    """

    __slots__ = ("model", "background", "mode", "order", "betas",
                 "residuals", "gammas", "omega", "eps")

    def __init__(self, model, background, mode, order, betas, residuals,
                 gammas, omega, eps):
        self.model = model
        self.background = background
        self.mode = mode
        self.order = order
        self.betas = list(betas)
        self.residuals = dict(residuals)
        self.gammas = dict(gammas)
        self.omega = omega
        self.eps = eps
        for k, b in enumerate(self.betas, start=1):
            if mode == "real" and not b.is_real():
                raise CertificateError(f"series coefficient {k} is not real")

    def beta_series(self) -> MixedForm:
        """The assembled two-form sum_k t^k beta_k."""
        n = self.model.n
        return MixedForm.sum(self.model, [
            b.poly_mul(Poly.t(n, k))
            for k, b in enumerate(self.betas, start=1) if b])

    def __repr__(self):
        nz = sum(1 for b in self.betas if not b.is_zero())
        return (f"DeformSeries(order={self.order}, mode={self.mode!r}, "
                f"nonzero_terms={nz})")


def solve_hitchin(hp: HoloPoisson, omega1: MixedForm, order: int,
                  mode: str = "complex") -> DeformSeries:
    """Correct t*omega1 order-by-order until the transported (0,2) part dies.

    The inverse series omega = (1 + W M)^{-1} W of the form matrix W of
    the series against sigma's M grows one t-block per order, with the
    blocks of A = W M: at order k, A_k = sum_a W_{k-a} M_a, and the part
    of omega_{k+1} that W_1..W_k fix is -sum_{i=1..k} A_i omega_{k+1-i}
    (A_{k+1} meets only omega_0 = 0).  Its (0,2) part is the obstruction.
    It is certified partial_bar-closed, contracted with the
    antiholomorphic Euler field into a primitive gamma (so partial_bar
    gamma = -obstruction), and the exact correction d(gamma) -- d(gamma +
    conj gamma) in real mode -- is appended to the series as its block
    W_{k+1}, which completes omega_{k+1}.  The finished blocks get the
    certificate of :func:`formality_psi` (:func:`_certified_inverse`): the
    assembled series is proved closed by one d() (every coefficient is
    t-free with no dt leg, so that is zero exactly when each coefficient
    is closed), omega satisfies (1 + W M) omega = W with W M formed apart
    from the recurrence, and omega's flatness residual vanishes.  omega's
    (0,2) part is checked here to vanish mod t^{order+1}, and the
    transported element's flatness is verified piece by piece by
    :func:`mc_component_check`.  These certify every block the loop used.
    """
    model = hp.model
    if mode not in ("complex", "real"):
        raise ValueError("mode must be 'complex' or 'real'")
    if model.param:
        raise UnsupportedSceneError(
            "the solve needs the parameter-free model: there d(t omega1) "
            "would carry dt ^ omega1")
    hp = _background(model, hp)
    if order < 1:
        raise ValueError("order must be at least 1")
    _reject_dt(omega1, "the seed form")
    if omega1.t_degree() > 0:
        raise CertificateError("the seed form must be t-free")
    if not omega1.d().is_zero():
        raise CertificateError("the seed form must be closed")
    if not omega1.component(0, 2).is_zero():
        raise CertificateError("the seed form must have no (0,2) part")
    # a real seed's (2,0) part is the conjugate of its (0,2) part, so with
    # no (0,2) part a real seed is of pure type (1,1)
    if mode == "real" and not omega1.is_real():
        raise CertificateError("real mode needs a real seed form")
    M = hp.sigma.mat
    betas = [omega1]
    residuals = {}
    gammas = {}
    zero = MixedForm.zero(model)
    n, dim = model.n, model.dim
    series = omega1.poly_mul(Poly.t(n))
    # t-coefficient blocks of M, W, A = W M and omega; each list's block 0
    # is its t^0 block, and W_0 = A_0 = omega_0 = 0
    Ms = _mat_t_blocks(M, max(0, *(e.t_degree() for row in M for e in row)))
    Ws = [mat_zero(dim, dim, n), form_matrix(omega1)]
    As, omegas = Ws[:1], Ws[:2]
    for k in range(1, order):
        As.append(_mat_series_term(Ws, Ms, k))
        fixed = mat_neg(_mat_series_term(As, omegas, k + 1))
        r = form_from_matrix(model, fixed).component(0, 2)
        residuals[k + 1] = r
        gamma = step = zero
        if not r.is_zero():
            if not r.partial_bar().is_zero():
                raise CertificateError(
                    f"order-{k + 1} obstruction is not partial_bar-closed; "
                    "the correction scheme does not apply")
            gamma = euler_homotopy(r).scale(_MINUS_ONE)
            if not (gamma.partial_bar() + r).is_zero():
                raise CertificateError(
                    "homotopy primitive failed partial_bar(gamma) = "
                    "-obstruction")
            step = (gamma.d() if mode == "complex"
                    else (gamma + gamma.conj()).d())
            series = series + step.poly_mul(Poly.t(n, k + 1))
        gammas[k + 1] = gamma
        betas.append(step)
        Ws.append(form_matrix(step))
        omegas.append(mat_add(fixed, Ws[-1]))
    W = form_matrix(series)
    omega = _certified_inverse(series, M, W, mat_mul(W, M, tmax=order),
                               _mat_from_t_blocks(omegas), order, True)
    if not omega.component(0, 2).is_zero():
        raise CertificateError(
            "corrected series kept a (0,2) part; the solve failed")
    eps = pi_star_transport(omega, hp, tmax=order)
    comp = mc_component_check(eps, hp, tmax=order)
    if not comp.ok:
        raise CertificateError(
            "transported element fails its flatness components: "
            + repr(comp))
    return DeformSeries(model, hp, mode, order, betas, residuals, gammas,
                        omega, eps)


# ---------------------------------------------------------------------------
# Componentwise flatness
# ---------------------------------------------------------------------------

def mc_component_check(eps: MVElement, sigma: HoloPoisson,
                       tmax=None) -> Report:
    """Evaluate the flatness equation of ``eps`` componentwise.

    The named residuals are the bidegree pieces of the one residual
    ``R = partial_bar(eps) + [sigma, eps] + (1/2)[eps, eps]``:

    * ``complex_structure`` (1,2) -- the deformed complex structure closes;
    * ``holomorphicity``    (2,1) -- the bivector stays holomorphic;
    * ``jacobi``            (3,0) -- the deformed Jacobi identity;
    * ``form_part``         (0,3) -- the obstruction carried by gamma.

    Each graded term of the equation lies in one of these bidegrees
    (partial_bar raises q by one, a bracket of (p1, q1) and (p2, q2) lands
    in (p1 + p2 - 1, q1 + q2), and [gamma, gamma] = 0), so the pieces sum
    to R by construction and no sum guard is needed; a piece of R under any
    other key raises, as does a piece of ``eps`` that is not of degree two
    (ValueError).  The t-linear part is additionally evaluated against
    the linearised equation alone (``stats["linear_ok"]``; it does not
    enter ``ok``).
    """
    if tmax is not None and tmax < 0:
        raise ValueError("tmax must be at least 0")
    _split(eps)
    sig = _sigma_element(eps.model, sigma)
    residual = mc_residual_dgla(eps, sig, tmax=tmax)
    keys = {(1, 2): "complex_structure", (2, 1): "holomorphicity",
            (3, 0): "jacobi", (0, 3): "form_part"}
    stray = set(residual.comps) - set(keys)
    if stray:
        raise CertificateError(
            f"flatness residual has pieces of bidegree {sorted(stray)}")
    comps = {name: residual.component(*key) for key, name in keys.items()}
    eps1 = eps.t_coefficient(1)
    linear = eps1.partial_bar() + dgla_bracket(sig, eps1)
    return Report("mc_components",
                  {k: v.is_zero() for k, v in comps.items()},
                  witnesses={"residuals": comps, "linear_residual": linear},
                  stats={"linear_ok": linear.is_zero()})


# ---------------------------------------------------------------------------
# The deformed complex structure and bivector
# ---------------------------------------------------------------------------

def _vector_field(model, col) -> MVElement:
    for k in range(model.n, model.dim):
        if col[k]:
            raise ValueError("field has antiholomorphic components")
    return MVElement(model, {(1, 0): {((i,), ()): col[i]
                                      for i in range(model.n)}})


def _upper_gradient(M):
    """The derivatives d_l M^{ij} over the frame legs l, for each nonzero
    entry above the diagonal (i < j), keyed by (i, j)."""
    legs = range(len(M))
    return {(i, j): [Mij.derivative(l) for l in legs]
            for i, Mi in enumerate(M) for j, Mij in enumerate(Mi)
            if j > i and Mij}


def _lie_derivative_bivector(model, X, M, tmax=None, grad=None):
    """(L_X M)^{ij} = X^l d_l M^{ij} - M^{lj} d_l X^i - M^{il} d_l X^j.

    ``M`` must be antisymmetric; in :func:`deformed_structures` it is the
    deformed bivector matrix, which the ``Bivector`` constructor has
    checked exactly.  Then L_X M is antisymmetric with a zero diagonal,
    so only the entries i < j are formed and the rest are mirrored.  The
    Jacobian d_l X^i is formed once; ``grad``, when given, is
    ``_upper_gradient(M)``, shared by every field that M is derived
    along."""
    n, size = model.n, len(M)
    if grad is None:
        grad = _upper_gradient(M)
    cols = mat_transpose(M)
    legs = range(len(X))
    jac = [[x.derivative(l) for l in legs] if x else [x] * len(X)
           for x in X]
    out = mat_zero(size, size, n)
    for i in range(size):
        Mi, Xi = M[i], X[i]
        for j in range(i + 1, size):
            Mij = Mi[j]
            e = Poly.sum(n, (_along(X, Mij, tmax, grad=grad[i, j])
                             if Mij else [])
                         + _along(cols[j], Xi, tmax, -1, jac[i])
                         + _along(Mi, X[j], tmax, -1, jac[j]))
            if e:
                out[i][j], out[j][i] = e, -e
    return out


def _deformed_dbar_function(model, h: Poly, phi: MVElement, tmax=None):
    """The (0,1)-form partial_bar h + [phi, h]."""
    lhs = MixedForm.function(model, h).partial_bar() + _form_of_bar_element(
        dgla_bracket(phi, MVElement.function(model, h), tmax=tmax))
    return lhs.t_truncate(tmax)


def deformed_holomorphic_lift(f: Poly, eps: MVElement, order: int) -> Poly:
    """Correct a background-holomorphic function until the deformed
    antiholomorphic frame kills it, mod t^{order+1}.

    Solves partial_bar h + [phi, h] = 0 order-by-order: each obstruction
    is a partial_bar-closed (0,1)-form (certified; failure means the
    deformation itself is not flat to this order) and its Euler primitive
    supplies the correction.
    """
    model = eps.model
    n = model.n
    _rho, phi, _gamma = _split(eps)
    if set(f.zbar_degree_split()) - {0} or f.t_degree() > 0:
        raise ValueError("seed function must be holomorphic and t-free")
    h = f
    for k in range(order):
        resid = _deformed_dbar_function(model, h, phi, tmax=order)
        r = resid.t_coefficient(k + 1)
        if r.is_zero():
            continue
        if not r.partial_bar().is_zero():
            raise CertificateError(
                f"order-{k + 1} obstruction of the function lift is not "
                "partial_bar-closed")
        corr = euler_homotopy(r).scale(_MINUS_ONE).coefficient()
        h = h + corr * Poly.t(n, k + 1)
    if not _deformed_dbar_function(model, h, phi, tmax=order).is_zero():
        raise CertificateError("function lift failed to close its residual")
    return h


def _criterion_functions(model):
    n = model.n
    out = [model.z(0), model.zbar(0), model.z(0) * model.zbar(0)]
    if n > 1:
        out.append(model.z(0) * model.z(1))
    return out


def deformed_structures(eps: MVElement, hp: HoloPoisson, rng,
                        tmax=None) -> Report:
    """Build the complex structure and bivector deformed by ``eps``.

    The projector onto the deformed holomorphic bundle conjugates
    sigma + rho into the new bivector P (sigma + rho) P^T.  Two checks
    read the new pair: ``certificates``, its flatness/type/closure
    certificates, and ``frame_match``, that the graph frame of eps equals
    the structure's kept :func:`build_L_sigma` frame (the one
    ``closure`` read, on the frame route).  A failing one is reported
    with its witness, the certificate Report or the two frames.  The
    returned block map (P, P(sigma+rho)conj(P)^T, conj(P)^T) is upper
    triangular by construction; its typing identities (P idempotent,
    conj(P) complementary, deformed holomorphic frame fixed) are
    asserted.  Test functions exercise the equivalence
    'partial_bar f + [phi, f] = 0 iff the deformed antiholomorphic frame
    kills f', and corrected coordinate functions feed Hamiltonian fields
    whose Lie derivative of the new bivector is certified zero.
    """
    if tmax is not None and tmax < 0:
        raise ValueError("tmax must be at least 0")
    model = eps.model
    if model.param:
        raise UnsupportedSceneError(
            "the deformed structures live on the parameter-free frame")
    hp = _background(model, hp)
    rho, phi, gamma = _split(eps)
    if not gamma.t_truncate(tmax).is_zero():
        raise CertificateError(
            "a surviving (0,2) part obstructs the bivector picture")
    n, dim = model.n, model.dim
    # the projector and every product below are kept mod t^{tmax+1}
    Phi = phi_geom_matrix(phi)
    P = _holo_projector(Phi, tmax=tmax)
    Msum = mat_add(hp.sigma.mat, bivector_matrix(rho))
    PM = mat_mul(P, Msum, tmax=tmax)
    newmat = mat_mul(PM, mat_transpose(P), tmax=tmax)
    hp_new = HoloPoisson(model, sigma=Bivector(model, newmat), phi=phi)
    certs = hp_new.certificates(rng, tmax=tmax)
    frames = (build_L_sigma(hp_new, tmax=tmax, check=False),
              deformation_frame(hp, eps, tmax))
    frame_match = frames_equal(*frames, rng, tmax=tmax)
    witnesses = {} if certs.ok else {"certificates": certs}
    if not frame_match:
        witnesses["frame_match"] = frames

    # P is kept mod t^{tmax+1}, so each identity compares two truncated
    # matrices; Poly is canonical, so == is exact equality
    Pbar = _conj_operator(model, P)
    if mat_mul(P, P, tmax=tmax) != P:
        raise CertificateError("projector is not idempotent")
    if mat_add(P, Pbar) != mat_identity(dim, n):
        raise CertificateError("conjugate projector is not complementary")
    upper_right = mat_mul(PM, mat_transpose(Pbar), tmax=tmax)
    psi_blocks = (P, upper_right, mat_transpose(Pbar))
    # the deformed holomorphic frame: the columns of hp_new's frame change
    holo_cols = mat_transpose(hp_new._legs(0))
    if mat_mul(P, holo_cols, tmax=tmax) != mat_t_truncate(holo_cols, tmax):
        raise CertificateError(
            "projector does not fix the deformed holomorphic frame")

    cols = hp_new.antiholo_frame_columns()
    functions = []
    for f in _criterion_functions(model):
        lhs = _deformed_dbar_function(model, f, phi, tmax=tmax)
        # sum_b X_b(f) dzbar_b over the deformed antiholomorphic frame
        rhs = MixedForm(model, {(0, 1, 0): {
            ((), (b,)): Poly.sum(n, _along(col, f, tmax))
            for b, col in enumerate(cols)}})
        functions.append((f.render(), lhs == rhs, lhs.is_zero()))

    sig_plus_eps = _sigma_element(model, hp) + eps
    candidates = [(f"d/dz_{i + 1}", unit_vector(model, i)) for i in range(n)]
    seeds = [model.z(i) for i in range(n)]
    for h0 in seeds:
        h = h0 if tmax is None else deformed_holomorphic_lift(h0, eps, tmax)
        dh = [h.derivative(k) for k in range(dim)]
        ham = mat_apply(Msum, dh, tmax=tmax)
        candidates.append((f"hamiltonian({h0.render()})", ham))
    fields = []
    grad = None  # d_l newmat^{ij}, i < j, once for every qualified field
    for label, col in candidates:
        try:
            Z = _vector_field(model, col)
        except ValueError:
            continue
        resid = Z.partial_bar() + dgla_bracket(sig_plus_eps, Z, tmax=tmax)
        qualified = resid.t_truncate(tmax).is_zero()
        verdict = None
        if qualified:
            PZ = mat_apply(P, col, tmax=tmax)
            if grad is None:
                grad = _upper_gradient(newmat)
            lie = _lie_derivative_bivector(model, PZ, newmat, tmax=tmax,
                                           grad=grad)
            verdict = mat_is_zero(lie)
            if not verdict:
                raise CertificateError(
                    f"field {label} is flat for the deformation but does "
                    "not preserve the deformed bivector")
        fields.append((label, qualified, verdict))
    return Report("deformed_structures",
                  {"frame_match": frame_match, "certificates": certs.ok,
                   "holomorphic_functions": all(f[1] for f in functions),
                   "poisson_fields": all(ok for _lbl, qual, ok in fields
                                         if qual)},
                  witnesses=dict(witnesses, holomorphic_functions=functions,
                                 poisson_fields=fields),
                  model=model, projector=P, poisson=hp_new,
                  psi_blocks=psi_blocks, frame_match=frame_match,
                  certificates=certs)


# ---------------------------------------------------------------------------
# Hamiltonian families
# ---------------------------------------------------------------------------

def _param_form(pm: Model, form: MixedForm) -> MixedForm:
    """Reread a dt-free form over the parameter-extended frame."""
    if any(r for (_p, _q, r) in form.comps):
        raise ValueError("form already carries dt legs")
    return MixedForm(pm, form.comps)


def hamiltonian_family_check(family, rng, mode: str = "real",
                             tmax=None) -> Report:
    """Certify the Hamiltonian-flow identities of a one-parameter family.

    ``mode='real'`` takes ``family = (pi_t, B_t)`` -- a :class:`Bivector`
    family (exact t-series) with the real closed gauge form driving it --
    and checks the velocity identity pi_dot = -pi B_dot pi, twisted
    involutivity of the span {d/dt} u {pi xi + xi} on the
    parameter-extended frame, and recovery of the graph of pi as the
    frame difference against tangent (+) span{dt}.

    ``mode='complex'`` takes a :class:`DeformSeries` and checks the three
    derivative identities of the deformed structure family after
    substituting the parameter for a fresh holomorphic coordinate.

    Each identity takes one d/dt, so ``tmax`` must be at least 1, and the
    certified order (``stats["certified_order"]``) is ``tmax - 1`` (in
    complex mode at most the series order less one); a smaller ``tmax``
    certifies nothing and raises ValueError.
    """
    if tmax is not None and tmax < 1:
        raise ValueError("tmax must be at least 1: one order goes to d/dt")
    if mode == "real":
        return _ham_real(family, rng, tmax)
    if mode == "complex":
        return _ham_complex(family, tmax)
    raise ValueError("mode must be 'real' or 'complex'")


def _ham_real(family, rng, tmax) -> Report:
    piv, B = family
    if not isinstance(piv, Bivector):
        raise TypeError("family must pair a bivector with a two-form")
    model = piv.model
    if model.param:
        raise UnsupportedSceneError(
            "the family lives over the parameter-free frame; the t "
            "direction is added internally")
    if not B.is_real():
        raise CertificateError("driving form must be real")
    if not B.d().is_zero():
        raise CertificateError("driving form must be closed")
    n, dim = model.n, model.dim
    cut = None if tmax is None else tmax - 1
    checks = {}
    FB = form_matrix(B)
    Fdot = [[e.d_t() for e in row] for row in FB]
    Mdot = [[e.d_t() for e in row] for row in piv.mat]
    rhs = mat_neg(mat_mul(mat_mul(piv.mat, Fdot, tmax=cut), piv.mat,
                          tmax=cut))
    # rhs is a product mod t^{cut+1} already
    checks["velocity"] = mat_t_truncate(Mdot, cut) == rhs

    pm = Model(n, param=True)
    pdim = pm.dim
    M3 = mat_zero(pdim, pdim, n)
    for i in range(dim):
        for j in range(dim):
            M3[i][j] = piv.mat[i][j]
    gens = [GVField(pm, vec=unit_vector(pm, dim))]
    for a in range(dim):
        xi = unit_vector(pm, a)
        gens.append(GVField(pm, vec=[M3[k][a] for k in range(pdim)], cov=xi))
    # Lagrangian at every order, so also one order past ``cut``, as the
    # d/dt leg needs: d/dt pairs with no generator, pi is antisymmetric,
    # and d/dt with the covectors is the identity block
    D = DiracFrame(pm, gens, label="flow-span")
    D.built = _EVERY_ORDER
    Bdot = B.map_coeffs(lambda c: c.d_t())
    # contraction order in the twisted bracket fixes the sign of the twist
    H = dt_leg(pm).wedge(_param_form(pm, Bdot)).scale(_MINUS_ONE)
    # one d/dt inside the bracket costs one certified order
    inv = involutivity_report.check(D, rng, H=H, tmax=cut)
    checks["twisted_involutivity"] = inv.ok
    failures = [(i, j) for i, j, _cert in inv.witnesses["failures"]]

    fgens = [GVField(pm, vec=unit_vector(pm, k)) for k in range(dim)]
    fgens.append(GVField(pm, cov=unit_vector(pm, dim)))
    horizontal = DiracFrame(pm, fgens, label="tangent+dt")
    diff = dirac_sum(D, dirac_scale(horizontal, _MINUS_ONE), rng, tmax=tmax)
    checks["graph_recovered"] = frames_equal(
        diff, graph_bivector(pm, M3), rng, tmax=tmax)
    return Report("hamiltonian_family", checks,
                  witnesses={"involutivity_failures": failures},
                  stats={"mode": "real", "certified_order": cut})


def _ham_complex(ds: DeformSeries, tmax) -> Report:
    if not isinstance(ds, DeformSeries):
        raise TypeError("complex mode takes a DeformSeries")
    model = ds.model
    n = model.n
    order = ds.order if tmax is None else min(tmax, ds.order)
    cut = order - 1
    dim = 2 * n

    def lift(Mx):
        return [[e.lift_parameter() for e in row] for row in Mx]

    def mul(*factors):
        out = factors[0]
        for f in factors[1:]:
            out = mat_mul(out, f, tmax=order)
        return out

    def dot(Mx, index):
        # d/ds and d/dsbar lower t, the (s, sbar) degree, by one
        return [[e.derivative(index).t_shift_down(1) for e in row]
                for row in Mx]

    def vanishes(Mx):
        return mat_is_zero(mat_t_truncate(Mx, cut))

    s_leg, sbar_leg = n, 2 * n + 1
    rho, phi, _gamma = _split(ds.eps)
    P = _holo_projector(lift(phi_geom_matrix(phi)), tmax=order)
    Pbar = _conj_operator(model, P)
    I_t = mat_scale(mat_sub(mat_scale(P, Scalar(2)), mat_identity(dim, n + 1)),
                    Scalar(0, 1))
    Msum = lift(mat_add(ds.background.sigma.mat,
                        bivector_matrix(rho)))
    Mt = mul(P, Msum, mat_transpose(P))
    Mtbar = _conj_operator(model, Mt)
    Walpha = dot(lift(form_matrix(ds.beta_series())), s_leg)
    W20 = mul(mat_transpose(P), Walpha, P)
    W11 = mat_add(mul(mat_transpose(Pbar), Walpha, P),
                  mul(mat_transpose(P), Walpha, Pbar))
    W11bar = _conj_operator(model, W11)

    # signs below are pinned by the exactly-solvable constant family
    checks = {
        "structure_velocity": vanishes(mat_sub(
            dot(I_t, s_leg), mat_scale(mul(Mt, W11), Scalar(0, 2)))),
        "bivector_velocity": vanishes(mat_add(
            dot(Mt, s_leg), mul(Mt, W20, Mt))),
        "conjugate_velocity": vanishes(mat_add(
            dot(Mt, sbar_leg),
            mat_add(mul(Mtbar, W11bar, Mt), mul(Mt, W11bar, Mtbar)))),
    }
    return Report("hamiltonian_family", checks,
                  stats={"mode": "complex", "certified_order": cut})


# ---------------------------------------------------------------------------
# The flat four-dimensional demonstration family
# ---------------------------------------------------------------------------

def twistor_demo(order: int = 2, rng=None) -> Report:
    """Flat four-dimensional scene with three constant symplectic forms.

    Pins the complex structures by the quaternion relations from
    metric-inverse composition, assembles sigma = (1/4)(omega_2^{-1} -
    i omega_3^{-1}), runs the solver on 2i omega_1, and asserts the exact
    outcome: the quadratic obstruction is minus the conjugate volume
    form, its primitive is half the Euler contraction, the quadratic
    correction is the conjugate volume form, every higher correction
    vanishes, and the deformed bivector family inverts Omega(t) =
    Omega_1 + 2it omega_1 + t^2 conj(Omega_1) -- as a series identity and
    exactly at rational parameter values, where each
    :func:`deformed_structures` report passes.  Any failed assertion
    raises.
    """
    rng = rng or random.Random(20260825)
    model = Model(2)
    half_i = Scalar(0, _HALF)
    omega1 = (MixedForm.monomial(model, Poly.const(2, half_i), (0,), (0,))
              + MixedForm.monomial(model, Poly.const(2, half_i), (1,), (1,)))
    Omega1 = MixedForm.monomial(model, model.poly(1), (0, 1), ())
    omega2 = Omega1.real_part()
    omega3 = Omega1.imag_part()
    checks = {}

    ginv = mat_zero(4, 4, 2)
    two = Poly.const(2, Scalar(2))
    for i in range(2):
        ginv[i][2 + i] = two
        ginv[2 + i][i] = two
    I1, I2, I3 = (mat_mul(ginv, form_matrix(w))
                  for w in (omega1, omega2, omega3))
    minus_eye = mat_neg(mat_identity(4, 2))
    quaternion = (
        mat_mul(I1, I1) == minus_eye and mat_mul(I2, I2) == minus_eye
        and mat_mul(I3, I3) == minus_eye and mat_mul(I1, I2) == I3
        and mat_mul(I2, I3) == I1 and mat_mul(I3, I1) == I2)
    checks["quaternion_relations"] = quaternion
    if not quaternion:
        raise CertificateError(
            "coordinate formulas fail the quaternion relations")

    M2i = poly_mat_inverse(form_matrix(omega2), 0)
    M3i = poly_mat_inverse(form_matrix(omega3), 0)
    smat = mat_scale(mat_add(M2i, mat_scale(M3i, Scalar(0, -1))),
                     Scalar(Fraction(1, 4)))
    sigma1 = Bivector(model, smat)
    checks["sigma_is_constant_volume_dual"] = (
        sigma1.mat == Bivector.wedge_pair(model, 0, 1, _MINUS_ONE).mat)
    hp = HoloPoisson(model, sigma=sigma1)
    seed = omega1.scale(Scalar(0, 2))
    series = solve_hitchin(hp, seed, order, mode="complex")
    Obar = Omega1.conj()
    checks["seed_coefficient"] = series.betas[0] == seed
    if order >= 2:
        checks["quadratic_obstruction"] = (
            series.residuals[2] == Obar.scale(_MINUS_ONE))
        checks["quadratic_coefficient"] = series.betas[1] == Obar
        zb1, zb2 = model.zbar(0), model.zbar(1)
        half = Scalar(_HALF)
        prim = (MixedForm.monomial(model, Poly.const(2, half) * zb1,
                                   anti=(1,))
                - MixedForm.monomial(model, Poly.const(2, half) * zb2,
                                     anti=(0,)))
        checks["euler_primitive"] = series.gammas[2] == prim
        checks["higher_terms_vanish"] = all(
            series.betas[k].is_zero() for k in range(2, order))
    omega_t = Omega1 + series.beta_series()

    structures = deformed_structures(series.eps, hp, rng, tmax=order)
    structures_ok = structures.ok
    Mt = structures.poisson.sigma.mat
    WOt = form_matrix(omega_t)
    E = mat_mul(Mt, WOt, tmax=order)
    # Mt is kept mod t^{order+1}
    inverse_ok = mat_mul(E, Mt, tmax=order) == Mt
    for tv in (Fraction(1, 3), Fraction(-1, 2), Fraction(2)):
        sval = Scalar(tv)
        eps_t = series.eps.substitute_t(sval)
        st = deformed_structures(eps_t, hp, rng)
        structures_ok = structures_ok and st.ok
        Mtv = st.poisson.sigma.mat
        Wv = [[e.substitute_t(sval) for e in row] for row in WOt]
        pt = model.sample_point(rng)
        # the form is type (2,0) for the deformed structure, so its full
        # matrix kernel is the antiholomorphic bundle; the locus witness is
        # the bivector keeping full leaf rank
        if scalar_rank(mat_eval(Mtv, pt)) != 2:
            raise SingularityError("bivector degenerated at a sampled "
                                   "parameter value")
        Ev = mat_mul(Mtv, Wv)
        if mat_mul(Ev, Mtv) != Mtv:
            inverse_ok = False
    checks["family_inverse"] = inverse_ok
    checks["deformed_structures"] = structures_ok
    report = Report("twistor_demo", checks, model=model, sigma1=sigma1,
                    series=series, omega_t=omega_t)
    if not report.ok:
        bad = sorted(k for k, v in checks.items() if not v)
        raise CertificateError("flat-family assertions failed: "
                               + ", ".join(bad))
    return report
