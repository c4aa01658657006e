"""Real and holomorphic Poisson structures and their gauge actions.

A bivector is stored as the antisymmetric matrix of its components over the
full coordinate frame (``d/dz_1..d/dz_n, d/dzbar_1..d/dzbar_n[, d/dt]``):
for ``pi = c * e_a ^ e_b`` with ``a < b`` the matrix holds ``M[b][a] = c``
and ``M[a][b] = -c``, the covector action is ``(pi xi)^k = sum_l M[k][l]
xi_l``, and ``pi(xi, eta) = eta(pi xi)``.

A holomorphic Poisson structure is a pair ``(phi, sigma)``: ``phi`` is the
(1,1) deformation datum of the complex structure (zero means the background
structure) and ``sigma`` a full-frame bivector required to be of type (2,0)
for the deformed structure.  Certificates are exact polynomial identities;
the closure certificate falls back to the Courant-frame characterisation
when ``phi`` is nonzero, since the deformed Dolbeault operator is not
polynomial in general.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .brackets import unit_vector
from .errors import CertificateError, SingularityError, UnsupportedSceneError
from .forms import MixedForm
from .frames import (DiracFrame, GVField, _EVERY_ORDER, _conj_operator,
                     _along, _covector_lifts, graph_bivector, gauge_frame,
                     frames_equal, involutivity_report)
from .linalg import (mat_add, mat_apply, mat_div_right, mat_identity,
                     mat_is_zero, mat_mul, mat_neg, mat_scale, mat_sub,
                     mat_transpose, mat_t_truncate, mat_zero, poly_det,
                     _isolate_real_roots, _pivot_block)
from .model import Model
from .multivector import (MVElement, bivector_matrix, form_matrix,
                          mv_from_endo, phi_geom_matrix)
from .poly import Poly
from .report import Report
from .scalars import Scalar

__all__ = [
    "Bivector",
    "RealPoisson",
    "HoloPoisson",
    "schouten_defect",
    "gauge_real_poisson",
    "build_L_sigma",
    "extract_holo_poisson",
    "check_gauge_equiv",
    "imag_Q",
]


class Bivector:
    """Antisymmetric full-frame component matrix of a section of Lambda^2 T."""

    __slots__ = ("model", "mat")

    def __init__(self, model: Model, mat=None):
        self.model = model
        dim = model.dim
        if mat is None:
            mat = mat_zero(dim, dim, model.n)
        if len(mat) != dim or any(len(row) != dim for row in mat):
            raise ValueError("component matrix must be dim x dim")
        for i in range(dim):
            for j in range(i, dim):
                if mat[i][j] + mat[j][i]:
                    raise ValueError("component matrix must be antisymmetric")
        self.mat = [list(row) for row in mat]

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_mv(cls, mv: MVElement) -> "Bivector":
        """Embed a purely holomorphic (2,0) polyvector."""
        return cls(mv.model, bivector_matrix(mv))

    @classmethod
    def wedge_pair(cls, model, a, b, coeff) -> "Bivector":
        """coeff * e_a ^ e_b in the leg order (a != b); ``coeff`` is a
        Poly, or a constant that Poly addition coerces."""
        if a == b:
            raise ValueError("wedge of a leg with itself")
        out = cls(model)
        out.mat[b][a] = out.mat[b][a] + coeff
        out.mat[a][b] = out.mat[a][b] - coeff
        return out

    # -- linear structure ------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, Bivector) or other.model != self.model:
            return NotImplemented
        return Bivector(self.model, mat_add(self.mat, other.mat))

    def __sub__(self, other):
        if not isinstance(other, Bivector) or other.model != self.model:
            return NotImplemented
        return Bivector(self.model, mat_sub(self.mat, other.mat))

    def __neg__(self):
        return Bivector(self.model, [[-x for x in row] for row in self.mat])

    def scale(self, c) -> "Bivector":
        return Bivector(self.model, mat_scale(self.mat, c))

    def t_truncate(self, tmax) -> "Bivector":
        return Bivector(self.model, mat_t_truncate(self.mat, tmax))

    # -- tensor action ---------------------------------------------------
    def apply(self, covec, tmax=None):
        """pi(xi) as frame components."""
        return mat_apply(self.mat, covec, tmax=tmax)

    def pair(self, xi, eta) -> Poly:
        """pi(xi, eta) = eta(pi xi)."""
        px = self.apply(xi)
        return Poly.sum(self.model.n, [e * v for e, v in zip(eta, px)
                                       if e and v])

    # -- reality and type ------------------------------------------------
    def conj(self) -> "Bivector":
        return Bivector(self.model, _conj_operator(self.model, self.mat))

    def is_real(self) -> bool:
        return self.conj() == self

    def is_zero(self) -> bool:
        return mat_is_zero(self.mat)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Bivector):
            return NotImplemented
        return self.model == other.model and self.mat == other.mat

    def is_pure_holo(self) -> bool:
        """True when only the dz x dz block is populated."""
        n = self.model.n
        dim = self.model.dim
        for i in range(dim):
            for j in range(dim):
                if (i >= n or j >= n) and self.mat[i][j]:
                    return False
        return True

    def render(self) -> str:
        names = self.model.vec_names()
        bits = []
        dim = self.model.dim
        for a in range(dim):
            for b in range(a + 1, dim):
                c = self.mat[b][a]
                if c:
                    bits.append(f"[{c.render()}] {names[a]}^{names[b]}")
        return "  +  ".join(bits) if bits else "0"

    def __repr__(self):
        return f"Bivector<{self.render()}>"


def schouten_defect(P: Bivector, tmax=None):
    """Jacobiator components of a bivector over the full frame.

    Returns {(a,b,c): Poly} with a<b<c holding
        2 sum_l (P^{la} d_l P^{bc} + cyclic in (a,b,c)),
    which vanishes identically iff the Schouten bracket [P, P] does: the
    Poisson condition.
    """
    model = P.model
    out = {}
    for a, b, c in combinations(range(model.dim), 3):
        # P.mat[x][l] = P^{lx} and P.mat[z][y] = P^{yz}
        terms = []
        for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
            terms += _along(P.mat[x], P.mat[z][y], tmax)
        acc = Poly.sum(model.n, terms, [2] * len(terms))
        if acc:
            out[(a, b, c)] = acc
    return out


class RealPoisson:
    """A real bivector field, with the Poisson condition as a certificate;
    a bivector that is not real is refused with CertificateError."""

    __slots__ = ("model", "pi")

    def __init__(self, model: Model, pi: Bivector):
        if pi.model != model:
            raise ValueError("bivector on a different model")
        if not pi.is_real():
            raise CertificateError("bivector has a nonzero imaginary part")
        self.model = model
        self.pi = pi

    def graph(self) -> DiracFrame:
        """The Dirac frame {pi(xi) + xi} over the coordinate covectors."""
        return graph_bivector(self.model, self.pi.mat)

    def __eq__(self, other):
        if not isinstance(other, RealPoisson):
            return NotImplemented
        return self.model == other.model and self.pi == other.pi


# ---------------------------------------------------------------------------
# Holomorphic Poisson structures
# ---------------------------------------------------------------------------

class HoloPoisson:
    """A deformed complex structure with a compatible holomorphic bivector.

    ``phi`` is the (1,1) deformation datum (zero = background structure);
    ``sigma`` is stored over the full frame so that it can be of type (2,0)
    for the deformed structure even when that differs from the background.
    It is given as a :class:`Bivector`, as a (2,0) :class:`MVElement`, or
    as None for zero; anything else is a TypeError.  The frame change A
    (:func:`_deformed_frame_change`) that every deformed leg is read from
    is formed on the first read, once, and never changed; the Dirac frame
    L_sigma is kept beside it by :func:`build_L_sigma`.
    """

    __slots__ = ("model", "phi", "sigma", "_A", "_L")

    def __init__(self, model: Model, sigma=None, phi=None):
        self.model = model
        if phi is None:
            phi = MVElement.zero(model)
        if phi.model != model:
            raise ValueError("phi on a different model")
        for key in phi.comps:
            if key != (1, 1):
                raise ValueError("phi must be purely of bidegree (1,1)")
        self.phi = phi
        if sigma is None:
            sigma = Bivector(model)
        elif isinstance(sigma, MVElement):
            sigma = Bivector.from_mv(sigma)
        elif not isinstance(sigma, Bivector):
            raise TypeError("sigma must be a Bivector or a (2,0) MVElement")
        if sigma.model != model:
            raise ValueError("sigma on a different model")
        self.sigma = sigma
        self._A = self._L = None

    # -- frames of the deformed structure --------------------------------
    def phi_matrix(self):
        """n x n matrix of phi as a map from the dzbar frame to the dz frame."""
        return phi_geom_matrix(self.phi)

    def _legs(self, first, covectors=False):
        """n deformed frame vectors, the columns of A = I + N from column
        ``first`` (see :func:`_deformed_frame_change`), or with
        ``covectors`` n deformed covectors, the rows of I - N from row
        ``first``; a parameter model's t leg is zero."""
        n = self.model.n
        if self._A is None:
            self._A = _deformed_frame_change(self.phi_matrix())
        A = self._A
        if covectors:
            legs = [[x if j == i else -x for j, x in enumerate(A[i])]
                    for i in range(first, first + n)]
        else:
            legs = [[row[j] for row in A] for j in range(first, first + n)]
        for leg in legs:
            leg.extend(self.model.zero_poly()
                       for _ in range(self.model.dim - 2 * n))
        return legs

    def antiholo_frame_columns(self):
        """Columns spanning the deformed antiholomorphic tangent bundle."""
        return self._legs(self.model.n)

    def holo_covector_columns(self):
        """Columns spanning the annihilator of the deformed antiholomorphic
        tangent bundle (the deformed (1,0)-covectors)."""
        return self._legs(0, covectors=True)

    def antiholo_covector_columns(self):
        """Columns spanning the deformed (0,1)-covectors."""
        return self._legs(self.model.n, covectors=True)

    def complex_structure(self, tmax=None):
        """The deformed complex structure as a frame endomorphism matrix.

        Built as i(2 P - 1) with P the projector onto the deformed
        holomorphic bundle along the antiholomorphic one; needs the usual
        invertibility of (1 - phi phibar), checked exactly (hard error when
        it fails).  With phi zero, S = 1 - phi phibar is 1 and P is
        diag(1, 0), so the same route gives diag(i, -i).
        """
        model = self.model
        if model.param:
            raise UnsupportedSceneError(
                "complex structures live on the parameter-free frame")
        P10 = _holo_projector(self.phi_matrix(), tmax=tmax)
        return mat_scale(mat_sub(mat_scale(P10, Scalar(2)),
                                 mat_identity(model.dim, model.n)),
                         Scalar(0, 1))

    # -- certificates ----------------------------------------------------
    def mc_phi_residual(self, tmax=None) -> MVElement:
        from .brackets import dgla_bracket
        out = self.phi.partial_bar() + dgla_bracket(
            self.phi, self.phi, tmax=tmax).scale(Fraction(1, 2))
        return out.t_truncate(tmax)

    def type_defects(self, tmax=None):
        """sigma applied to each deformed (0,1)-covector; all-zero certifies
        that sigma has no legs along the deformed antiholomorphic bundle."""
        out = []
        for theta in self.antiholo_covector_columns():
            img = self.sigma.apply(theta, tmax=tmax)
            if any(img):
                out.append(img)
        return out

    def certificates(self, rng, tmax=None) -> Report:
        """Checks ``mc_phi`` (phi is flat), ``type_20`` (sigma has no
        deformed antiholomorphic legs) and ``closure`` (sigma is a
        holomorphic Poisson bivector, by the method in
        ``stats["closure_method"]``).  On the frame route ``closure`` is
        the involutivity of the kept :func:`build_L_sigma` frame, with the
        covector dt added on a parameter model; the direct route reads no
        frame."""
        if tmax is not None and tmax < 0:
            raise ValueError("tmax must be at least 0")
        mc_ok = self.mc_phi_residual(tmax=tmax).is_zero()
        type_ok = not self.type_defects(tmax=tmax)
        witnesses = {}
        stats = {}
        if self.phi.is_zero():
            stats["closure_method"] = "direct"
            n = self.model.n
            holostep = all(set(self.sigma.mat[i][j].zbar_degree_split()) <= {0}
                           for i in range(n) for j in range(n))
            jac = schouten_defect(self.sigma, tmax=tmax)
            stats["antiholomorphic_dependence"] = not holostep
            witnesses["jacobiator_entries"] = sorted(jac)
            closure = holostep and not jac and self.sigma.is_pure_holo()
        else:
            stats["closure_method"] = "frame"
            model = self.model
            frame = build_L_sigma(self, tmax=tmax, check=False)
            if model.param:
                # with the covector dt the frame is Lagrangian on the
                # parameter model: dt pairs to zero with every generator,
                # and mod dt the Dorfman brackets are the fiberwise ones
                dt = GVField(model, cov=unit_vector(model, model.dim - 1))
                frame = DiracFrame(model, frame.gens + [dt],
                                   label=frame.label)
            rep = involutivity_report.check(frame, rng, tmax=tmax)
            witnesses["involutivity"] = rep
            closure = rep.ok
        return Report("poisson_certificates",
                      {"mc_phi": mc_ok, "type_20": type_ok,
                       "closure": closure},
                      witnesses=witnesses, stats=stats)

    def __eq__(self, other):
        if not isinstance(other, HoloPoisson):
            return NotImplemented
        return (self.model == other.model and self.phi == other.phi
                and self.sigma == other.sigma)


def _deformed_frame_change(Phi):
    """The deformed frame change A = I + N with N = [[0, Phi], [conj Phi, 0]].

    The columns of A are the deformed holomorphic then antiholomorphic
    frame vectors; the rows of I - N are the deformed (1,0) then (0,1)
    covectors.  The frame size is ``len(Phi)`` and the polynomial ring that
    of Phi's entries, which may have more variables than the frame.
    """
    n = len(Phi)
    A = mat_identity(2 * n, Phi[0][0].n)
    for b in range(n):
        for i in range(n):
            if Phi[i][b]:
                A[i][n + b] = Phi[i][b]
                A[n + i][b] = Phi[i][b].conj()
    return A


def _holo_projector(Phi, tmax=None):
    """Projector onto the deformed holomorphic bundle along the
    antiholomorphic one, A diag(1, 0) A^{-1} for the frame change A of
    :func:`_deformed_frame_change`, mod t^{tmax+1} with ``tmax``.

    The Schur complement S = 1 - Phi conj(Phi) of A's lower right block
    gives A^{-1} the top block row S^{-1} [1, -Phi], so P = K [1, -Phi]
    with K = [[1], [conj Phi]] S^{-1}: one n x n division, not a 2n x 2n
    one.  S is formed exactly, and det S = det A (Sylvester), so the exact
    division raises the same SingularityError and UnsupportedSceneError,
    with the same texts, as dividing by A; K is polynomial exactly when
    A diag(1, 0) A^{-1} is.  As there, the numerator carries conj Phi mod
    t^{tmax+1}.  With ``tmax``, :func:`~gkdirac.linalg.mat_div_right` tries
    the t-series inverse of S, which exists mod t^{tmax+1} whenever S's
    t^0 block is constant and invertible, even where Phi's t^0 block is
    not constant (and A's exact inverse is no polynomial); otherwise it
    takes the exact route, with the texts above.
    """
    n, ring = len(Phi), Phi[0][0].n
    Phibar = [[x.conj() for x in row] for row in Phi]
    S = mat_sub(mat_identity(n, ring), mat_mul(Phi, Phibar))
    num = mat_identity(n, ring) + mat_t_truncate(Phibar, tmax)
    K = mat_div_right(num, S, tmax)
    KPhi = mat_mul(K, Phi, tmax=tmax)
    return [Ki + [-x for x in KPhi_i] for Ki, KPhi_i in zip(K, KPhi)]


# ---------------------------------------------------------------------------
# Gauge action on real Poisson structures
# ---------------------------------------------------------------------------

def _describe_zero_locus(det: Poly) -> str:
    """Human-readable account of where a determinant polynomial vanishes."""
    if det.is_constant():
        return "nowhere" if det else "everywhere"
    coeffs = []
    for k in range(det.t_degree() + 1):
        c = det.t_coefficient(k)
        if not c.is_constant():
            return "the zero set of the displayed determinant"
        coeffs.append(c.constant_value())
    if all(c.is_real() for c in coeffs):
        # univariate in t with rational coefficients: isolate real roots
        roots = _isolate_real_roots([c.re for c in coeffs])
        if not roots:
            return "no real t"
        spans = ", ".join(f"t in ({a}, {b})" for a, b in roots)
        return f"real roots isolated in: {spans}"
    return "the zero set of the displayed determinant"


def gauge_real_poisson(pi0: RealPoisson, B: MixedForm, rng,
                       tmax=None) -> RealPoisson:
    """Gauge-transform a real Poisson structure by a real closed 2-form.

    Computes pi1 = pi0 (1 + B pi0)^{-1} exactly (an exact polynomial
    quotient, or a t-series when ``tmax`` is given) and certifies it by
    one identity: the graph of pi1 equals the gauged graph of pi0.  As
    both bivectors are antisymmetric (:class:`Bivector` checks pi1), their
    generators pair to ((E^T pi1)_kl + (pi0)_lk) / 2, E = 1 + B pi0, so
    they agree exactly when pi1 E = pi0.  det E is formed only for the
    text of an UnsupportedSceneError, when the quotient is not polynomial.
    """
    model = pi0.model
    if B.model != model:
        raise ValueError("form on a different model")
    if not B.is_real():
        raise CertificateError("gauge form must be real")
    if not B.d().is_zero():
        raise CertificateError("gauge form must be closed")
    dim = model.dim
    P = pi0.pi.mat
    F = form_matrix(B)
    E = mat_add(mat_identity(dim, model.n), mat_mul(F, P, tmax=tmax))
    try:
        M1 = mat_div_right(P, E, tmax=tmax)
    except SingularityError:
        raise SingularityError(
            "1 + B pi is everywhere degenerate", determinant="0")
    except UnsupportedSceneError:
        det = poly_det(E)
        raise UnsupportedSceneError(
            "(1 + B pi)^{-1} is not polynomial; det = "
            f"{det.render()}; vanishes on: {_describe_zero_locus(det)}")
    pi1 = RealPoisson(model, Bivector(model, M1))
    moved = gauge_frame(graph_bivector(model, P), B, tmax=tmax)
    if not frames_equal(moved, pi1.graph(), rng, tmax=tmax):
        raise CertificateError(
            "gauged graph does not match the graph of the computed bivector: "
            "pi1 (1 + B pi0) = pi0, the defining identity, fails")
    return pi1


# ---------------------------------------------------------------------------
# The Dirac frame of a holomorphic Poisson structure
# ---------------------------------------------------------------------------

def build_L_sigma(hp: HoloPoisson, tmax=None, check=True) -> DiracFrame:
    """Frame {X + phi X} + {sigma(zeta) + zeta} over the deformed splitting.

    With ``check`` the exact prerequisites (flatness of phi, deformed type
    of sigma) are verified first and a CertificateError is raised on
    failure; involutivity of the result is the closure certificate and is
    checked separately.

    On a parameter-free model the frame is Lagrangian by construction,
    for any phi and sigma (``DiracFrame.built``): the deformed (1,0)
    covectors [I, -Phi] annihilate the deformed antiholomorphic vectors
    [Phi; I], sigma's matrix is antisymmetric, and the dzbar legs of the
    vectors and the dz legs of the covectors form a unitriangular block.
    Cut with ``tmax``, it is proved at the orders up to ``tmax``.  A
    parameter model has one leg more than the 2n generators, so nothing
    is recorded there.  The frame is kept on ``hp``, for the last ``tmax``
    asked, and returned again; ``check`` runs on every call.
    """
    model = hp.model
    if check:
        if not hp.mc_phi_residual(tmax=tmax).is_zero():
            raise CertificateError(
                "phi does not satisfy the flatness equation")
        if hp.type_defects(tmax=tmax):
            raise CertificateError(
                "sigma has legs along the deformed antiholomorphic bundle")
    if hp._L is None or hp._L[0] != tmax:
        gens = [GVField(model, vec=col)
                for col in hp.antiholo_frame_columns()]
        for eta in hp.holo_covector_columns():
            vec = hp.sigma.apply(eta, tmax=tmax)
            gens.append(GVField(model, vec=vec, cov=eta))
        frame = DiracFrame(model, gens, label="L_sigma")
        if not model.param:
            frame.built = _EVERY_ORDER
        hp._L = (tmax, frame.t_truncate(tmax))
    return hp._L[1]


def extract_holo_poisson(L: DiracFrame, rng, tmax=None) -> HoloPoisson:
    """Recover (phi, sigma) from a Dirac frame of the expected shape.

    Every covector c of L_sigma lies in the span of the deformed
    (1,0)-covectors eta_a = (e_a, -Phi[a, :]), so c[n:] = -Phi^T c[:n]:
    Phi^T is one exact division (mod t^{tmax+1} with ``tmax``) over the n
    generators whose top covector rows a pivot search selects (on the
    t = 0 slice with ``tmax``), and the identity is checked on every
    generator.  Its failure raises SingularityError with the exact witness
    (generator, b, entry); fewer than n pivots raise it with the origin as
    witness point, as those rows then have rank below n at every point.
    The lifts of the eta_a (:func:`_covector_lifts`), projected by
    P = K [1, -Phi] onto the deformed holomorphic bundle, are the columns
    sigma(eta_a) of a matrix O, and sigma kills the deformed
    (0,1)-covectors.  K = [[1], [conj Phi]] S^{-1} is also the first n
    columns of (I - N)^{-1}: the vectors dual to the eta_a, which the
    (0,1)-covectors kill.  So sigma = O K^T, with no further division.
    The round trip through :func:`build_L_sigma` is verified; the result
    keeps A and that frame, and is not certified here.  ``rng`` serves
    the pivot search, the lifts and that round trip.
    """
    model = L.model
    if model.param:
        raise UnsupportedSceneError(
            "extraction requires the parameter-free frame")
    n = model.n
    top = [g.cov[:n] for g in L.gens]
    _, keep = _pivot_block(top, model, rng, t_zero=tmax is not None)
    if len(keep) < n:
        # the block has rank below n at every point: the origin witnesses it
        pt = model.origin()
        raise SingularityError(
            "a deformed covector is outside the covector span of the frame "
            f"(witness point {pt})", point=pt)
    C_top = mat_transpose(top)
    C_bot = mat_t_truncate(mat_transpose([g.cov[n:] for g in L.gens]), tmax)
    PhiT = mat_div_right([[-row[j] for j in keep] for row in C_bot],
                         [[row[j] for j in keep] for row in C_top], tmax=tmax)
    residual = mat_add(C_bot, mat_mul(PhiT, C_top, tmax=tmax))
    for b, row in enumerate(residual):
        for j, entry in enumerate(row):
            if entry:
                raise SingularityError(
                    "a covector of the frame is outside the span of the "
                    f"deformed (1,0)-covectors (generator {j}, entry {b}: "
                    f"{entry.render()})")
    Phi = mat_transpose(PhiT)
    result = HoloPoisson(model, phi=mv_from_endo(model, Phi))
    etas = result.holo_covector_columns()
    # the lifts, projected onto the deformed holomorphic bundle
    P = _holo_projector(Phi, tmax=tmax)
    outs = _covector_lifts(L, etas, P, rng, "a deformed covector is outside "
                           "the covector span of the frame", tmax=tmax)
    # sigma = O K^T, O the lifts as columns and K the first n columns of P
    S = mat_transpose(mat_mul([row[:n] for row in P], outs, tmax=tmax))
    try:
        sigma = Bivector(model, S)
    except ValueError:
        raise CertificateError(
            "recovered bivector is not antisymmetric; the frame is not "
            "isotropic in the expected way")
    result.sigma = sigma  # A depends on phi alone; no L_sigma is kept yet
    if not frames_equal(build_L_sigma(result, tmax=tmax, check=False), L,
                        rng, tmax=tmax):
        raise CertificateError("extraction failed its round-trip identity")
    return result


# ---------------------------------------------------------------------------
# Gauge equivalence of holomorphic Poisson structures
# ---------------------------------------------------------------------------

def check_gauge_equiv(hp0: HoloPoisson, hp1: HoloPoisson, beta: MixedForm,
                      mode="complex", *, rng, tmax=None) -> Report:
    """Decide gauge equivalence of two holomorphic Poisson structures.

    Four exact containment conditions characterise the equivalence, each
    decided independently of the graph identity e^beta L_0 = L_1; if the
    two verdicts disagree, CertificateError is raised.  The legs carry a
    unit block, so a covector w lies in the span of the eta_a = (e_a,
    -Phi[a, :]) iff w = sum_a w[a] eta_a, and a vector x in the span of the
    v_b = (Phi[:, b], e_b) iff x = sum_b x[n + b] v_b, mod t^{tmax+1} with
    ``tmax``.  A failure's witness is the exact (target index, coordinate,
    residual entry); ``rng``, a required keyword, serves only the frame
    identity.  In real mode the shared imaginary part and its intertwining
    identities are checked as exact matrix identities on top.
    """
    if mode not in ("complex", "real"):
        raise ValueError(f"unknown mode {mode!r}")
    model = hp0.model
    if hp1.model != model or beta.model != model:
        raise ValueError("mixed models")
    if not beta.d().is_zero():
        raise CertificateError("gauge form must be closed")
    F = form_matrix(beta)
    S0, S1 = hp0.sigma.mat, hp1.sigma.mat
    v0 = hp0.antiholo_frame_columns()
    v1 = hp1.antiholo_frame_columns()
    eta0 = hp0.holo_covector_columns()
    eta1 = hp1.holo_covector_columns()

    def contained(legs, unit, targets):
        # w = sum_k w[unit + k] legs_k: the unit block fixes each coefficient
        span = mat_transpose(legs)
        for index, w in enumerate(mat_t_truncate(targets, tmax)):
            comb = mat_apply(span, w[unit:unit + len(legs)], tmax=tmax)
            for i, (x, y) in enumerate(zip(w, comb)):
                if x != y:
                    return False, (index, i, x - y)
        return True, None

    conditions = {}
    witnesses = {}
    # the 2-form sends the old antiholomorphic bundle into new (1,0)-covectors
    conditions["covector_type"], witnesses["covector_type"] = contained(
        eta1, 0, [mat_apply(F, x, tmax=tmax) for x in v0])
    # corrected old antiholomorphic vectors land in the new bundle
    conditions["forward_tangent"], witnesses["forward_tangent"] = contained(
        v1, model.n, [[a - b for a, b in zip(x, mat_apply(
            mat_mul(S1, F, tmax=tmax), x, tmax=tmax))] for x in v0])
    # corrected new antiholomorphic vectors land in the old bundle
    conditions["backward_tangent"], witnesses["backward_tangent"] = contained(
        v0, model.n, [[a + b for a, b in zip(y, mat_apply(
            mat_mul(S0, F, tmax=tmax), y, tmax=tmax))] for y in v1])
    # the bivector discrepancy on old (1,0)-covectors is antiholomorphic
    D = mat_add(mat_sub(S1, S0),
                mat_mul(mat_mul(S1, F, tmax=tmax), S0, tmax=tmax))
    conditions["bivector_match"], witnesses["bivector_match"] = contained(
        v1, model.n, [mat_apply(D, a, tmax=tmax) for a in eta0])

    L0 = build_L_sigma(hp0, tmax=tmax, check=False)
    L1 = build_L_sigma(hp1, tmax=tmax, check=False)
    frame_ok = frames_equal(gauge_frame(L0, beta, tmax=tmax), L1, rng,
                            tmax=tmax)

    checks = dict(conditions, frame_identity=frame_ok)
    if mode == "real":
        if not beta.is_real():
            raise CertificateError("real mode requires a real 2-form")
        Q0 = imag_Q(hp0, tmax=tmax)
        Q1 = imag_Q(hp1, tmax=tmax)
        I0 = hp0.complex_structure(tmax=tmax)
        I1 = hp1.complex_structure(tmax=tmax)
        # every operand is a product mod t^{tmax+1} or a complex structure,
        # which is truncated already, so each identity compares truncated
        # matrices; Poly is canonical, so == is exact equality
        FI0 = mat_mul(F, I0, tmax=tmax)
        I1tF = mat_mul(mat_transpose(I1), F, tmax=tmax)
        I0tF = mat_mul(mat_transpose(I0), F, tmax=tmax)
        FQF = mat_mul(mat_mul(F, Q0.mat, tmax=tmax), F, tmax=tmax)
        checks.update({
            "shared_imaginary_part": Q0 == Q1,
            "form_intertwines": FI0 == mat_neg(I1tF),
            "structure_difference": (mat_sub(I0, I1)
                                     == mat_mul(Q0.mat, F, tmax=tmax)),
            "single_structure": mat_add(FI0, I0tF) == FQF,
        })
    if all(conditions.values()) != frame_ok:
        raise CertificateError(
            "containment conditions and the frame identity disagree: "
            f"{conditions} vs frame_ok={frame_ok}")
    return Report("gauge_equivalence", checks, witnesses=witnesses,
                  stats={"mode": mode})


def imag_Q(hp: HoloPoisson, tmax=None) -> Bivector:
    """The real bivector Q with sigma = (1/4)(I Q + i Q).

    Q is the imaginary part of 4 sigma; the reconstruction identity is
    verified exactly and certifies that sigma is of deformed type (2,0).
    """
    sig = hp.sigma
    Q = (sig - sig.conj()).scale(Scalar(0, -2))
    Im = hp.complex_structure(tmax=tmax)
    recon = mat_scale(
        mat_add(mat_mul(Im, Q.mat, tmax=tmax),
                mat_scale(Q.mat, Scalar(0, 1))),
        Scalar(Fraction(1, 4)))
    if mat_t_truncate(recon, tmax) != mat_t_truncate(sig.mat, tmax):
        raise CertificateError(
            "imaginary-part reconstruction failed; sigma is not of "
            "deformed type (2,0)")
    return Q
