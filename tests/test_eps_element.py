"""The deformation element eps as one degree-two polyvector.

``pi_star_transport`` returns eps = rho + phi + gamma as the
:class:`~gkdirac.multivector.MVElement` that ``pi_star`` builds, and every
consumer reads its (2,0), (1,1) and (0,2) pieces through one split
(``hitchin._split``), which refuses a piece of any other bidegree.  The
former storage is kept here as the reference: ``_FormerMC`` held the three
pieces apart, gamma as a (0,2)-form, and rebuilt the polyvector for every
bracket; ``_former_*`` are the consumers as they read it.  They are
compared on solved series (the c2, t-dependent and c3 backgrounds, both
modes, orders 1-4) and, for the graph frame, whose gamma columns no solved
series reaches, on random degree-two elements.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gkdirac.brackets import (dgla_bracket, mc_residual_dgla, pi_star,
                              unit_vector)
from gkdirac.errors import CertificateError
from gkdirac.forms import MixedForm, euler_homotopy
from gkdirac.frames import (DiracFrame, GVField, _along, _conj_operator,
                            frames_equal)
from gkdirac.hitchin import (DeformSeries, _background, _criterion_functions,
                             _form_of_bar_element, _lie_derivative_bivector,
                             _sigma_element, _upper_gradient, _vector_field,
                             deformation_frame, deformed_holomorphic_lift,
                             deformed_structures, hamiltonian_family_check,
                             mc_component_check, pi_star_transport,
                             solve_hitchin)
from gkdirac.linalg import (mat_add, mat_apply, mat_is_zero, mat_mul,
                            mat_t_truncate, mat_transpose)
from gkdirac.model import Model
from gkdirac.multivector import MVElement, bivector_matrix, phi_geom_matrix
from gkdirac.poisson import (Bivector, HoloPoisson, build_L_sigma,
                             _deformed_frame_change, _holo_projector)
from gkdirac.poly import Poly
from gkdirac.report import Report
from gkdirac.scalars import Scalar

_HALF = Fraction(1, 2)
M2, M3 = Model(2), Model(3)


# ---------------------------------------------------------------------------
# The former storage and its consumers, kept as the reference
# ---------------------------------------------------------------------------

class _FormerMC:
    """rho (2,0) and phi (1,1) as elements, gamma as a (0,2)-form."""

    def __init__(self, model, rho=None, phi=None, gamma=None):
        self.model = model
        self.rho = MVElement.zero(model) if rho is None else rho
        self.phi = MVElement.zero(model) if phi is None else phi
        self.gamma = MixedForm.zero(model) if gamma is None else gamma
        for el, key in ((self.rho, (2, 0)), (self.phi, (1, 1))):
            if set(el.comps) - {key}:
                raise ValueError(f"component must be purely of type {key}")
        if set(self.gamma.comps) - {(0, 2, 0)}:
            raise ValueError("gamma must be a (0,2)-form")

    @classmethod
    def from_polyvector(cls, eps):
        if set(eps.comps) - {(2, 0), (1, 1), (0, 2)}:
            raise ValueError("element is not of pure degree two")
        return cls(eps.model, rho=eps.component(2, 0),
                   phi=eps.component(1, 1),
                   gamma=_form_of_bar_element(eps.component(0, 2)))

    def polyvector(self):
        gamma = MVElement(self.model, {(0, q): table for (_p, q, _r), table
                                       in self.gamma.comps.items()})
        return MVElement.sum(self.model, (self.rho, self.phi, gamma))


def _former_frame(hp, eps, tmax=None):
    model = hp.model
    n, dim = model.n, model.dim
    shape = HoloPoisson(model, phi=eps.phi)
    Mrho = bivector_matrix(eps.rho)
    gens = []
    for b, v in enumerate(shape.antiholo_frame_columns()):
        cov = [model.zero_poly() for _ in range(dim)]
        if not eps.gamma.is_zero():
            inner = eps.gamma.contract_vector(unit_vector(model, n + b))
            for _key, table in inner.comps.items():
                for (_i, (j,)), c in table.items():
                    cov[n + j] = cov[n + j] + c
        gens.append(GVField(model, vec=v, cov=cov))
    for a, cov in enumerate(shape.holo_covector_columns()):
        v = hp.sigma.apply(unit_vector(model, a), tmax=tmax)
        for k in range(dim):
            if Mrho[k][a]:
                v[k] = v[k] + Mrho[k][a]
        gens.append(GVField(model, vec=v, cov=cov))
    return DiracFrame(model, gens, label="deformed").t_truncate(tmax)


def _former_components(eps, sigma, tmax=None):
    sig = _sigma_element(eps.model, sigma)
    polyvector = eps.polyvector()
    residual = mc_residual_dgla(polyvector, sig, tmax=tmax)
    keys = {(1, 2): "complex_structure", (2, 1): "holomorphicity",
            (3, 0): "jacobi", (0, 3): "form_part"}
    assert not set(residual.comps) - set(keys)
    comps = {name: residual.component(*key) for key, name in keys.items()}
    eps1 = polyvector.t_coefficient(1)
    linear = eps1.partial_bar() + dgla_bracket(sig, eps1)
    return Report("mc_components",
                  {k: v.is_zero() for k, v in comps.items()},
                  witnesses={"residuals": comps, "linear_residual": linear},
                  stats={"linear_ok": linear.is_zero()})


def _former_dbar(model, h, eps, tmax=None):
    lhs = MixedForm.function(model, h).partial_bar() + _form_of_bar_element(
        dgla_bracket(eps.phi, MVElement.function(model, h), tmax=tmax))
    return lhs.t_truncate(tmax)


def _former_lift(f, eps, order):
    """``deformed_holomorphic_lift`` as it read the former storage, once
    per order; its guards are assertions here."""
    model = eps.model
    h = f
    for k in range(order):
        r = _former_dbar(model, h, eps, tmax=order).t_coefficient(k + 1)
        if r.is_zero():
            continue
        assert r.partial_bar().is_zero()
        corr = euler_homotopy(r).scale(Scalar(-1)).coefficient()
        h = h + corr * Poly.t(model.n, k + 1)
    assert _former_dbar(model, h, eps, tmax=order).is_zero()
    return h


def _former_structures(eps, hp, rng, tmax=None):
    """The bivector picture of ``deformed_structures`` as it read the
    former storage; the raising guards are assertions here."""
    model = eps.model
    hp = _background(model, hp)
    if not eps.gamma.t_truncate(tmax).is_zero():
        raise CertificateError(
            "a surviving (0,2) part obstructs the bivector picture")
    n, dim = model.n, model.dim
    Phi = phi_geom_matrix(eps.phi)
    P = _holo_projector(Phi, tmax=tmax)
    Msum = mat_add(hp.sigma.mat, bivector_matrix(eps.rho))
    PM = mat_mul(P, Msum, tmax=tmax)
    newmat = mat_mul(PM, mat_transpose(P), tmax=tmax)
    hp_new = HoloPoisson(model, sigma=Bivector(model, newmat), phi=eps.phi)
    certs = hp_new.certificates(rng, tmax=tmax)
    assert certs.ok
    certified = certs.frame if certs.frame is not None else \
        build_L_sigma(hp_new, tmax=tmax, check=False)
    frame_match = frames_equal(certified, _former_frame(hp, eps, tmax), rng,
                               tmax=tmax)
    assert frame_match
    Pbar = _conj_operator(model, P)
    upper_right = mat_mul(PM, mat_transpose(Pbar), tmax=tmax)
    psi_blocks = (P, upper_right, mat_transpose(Pbar))
    A = _deformed_frame_change(Phi)
    holo_cols = [row[:n] for row in A]
    assert mat_mul(P, holo_cols, tmax=tmax) == mat_t_truncate(holo_cols, tmax)
    cols = [[row[n + b] for row in A] for b in range(n)]
    functions = []
    for f in _criterion_functions(model):
        lhs = _former_dbar(model, f, eps, tmax=tmax)
        rhs = MixedForm(model, {(0, 1, 0): {
            ((), (b,)): Poly.sum(n, _along(col, f, tmax))
            for b, col in enumerate(cols)}})
        functions.append((f.render(), lhs == rhs, lhs.is_zero()))
    sig_plus_eps = _sigma_element(model, hp) + eps.polyvector()
    candidates = [(f"d/dz_{i + 1}", unit_vector(model, i)) for i in range(n)]
    for h0 in [model.z(i) for i in range(n)]:
        h = h0 if tmax is None else _former_lift(h0, eps, tmax)
        dh = [h.derivative(k) for k in range(dim)]
        candidates.append((f"hamiltonian({h0.render()})",
                           mat_apply(Msum, dh, tmax=tmax)))
    fields = []
    for label, col in candidates:
        try:
            Z = _vector_field(model, col)
        except ValueError:
            continue
        resid = Z.partial_bar() + dgla_bracket(sig_plus_eps, Z, tmax=tmax)
        qualified = resid.t_truncate(tmax).is_zero()
        verdict = None
        if qualified:
            lie = _lie_derivative_bivector(
                model, mat_apply(P, col, tmax=tmax), newmat, tmax=tmax,
                grad=_upper_gradient(newmat))
            verdict = mat_is_zero(lie)
            assert verdict
        fields.append((label, qualified, verdict))
    return Report("deformed_structures",
                  {"frame_match": frame_match, "certificates": certs.ok,
                   "holomorphic_functions": all(f[1] for f in functions),
                   "poisson_fields": all(ok for _lbl, qual, ok in fields
                                         if qual)},
                  witnesses={"holomorphic_functions": functions,
                             "poisson_fields": fields},
                  model=model, projector=P, poisson=hp_new,
                  psi_blocks=psi_blocks, frame_match=frame_match,
                  certificates=certs)


# ---------------------------------------------------------------------------
# Scenes
# ---------------------------------------------------------------------------

def _fubini(model):
    half_i = Scalar(0, _HALF)
    return MixedForm.sum(model, [
        MixedForm.monomial(model, Poly.const(model.n, half_i), (k,), (k,))
        for k in range(model.n)])


def _holo(model, f):
    return HoloPoisson(model, sigma=MVElement.monomial(model, f, vecs=(0, 1)))


_SCENES = {
    "c2": lambda: _holo(M2, M2.z(0)),
    # sigma's matrix has a t^1 block
    "t_dependent": lambda: _holo(
        M2, M2.z(0).scale(Scalar(1, 2)) * Poly.t(2) + M2.z(1)),
    "c3": lambda: _holo(M3, M3.z(0).scale(Scalar(2, -1)) + M3.z(1)
                        + M3.z(2).scale(Scalar(0, 1))),
}


def _same_frames(got, want):
    assert got.model == want.model and got.label == want.label
    assert [(g.vec, g.cov) for g in got.gens] == \
        [(g.vec, g.cov) for g in want.gens]


def _same_reports(got, want):
    assert got.name == want.name and got.checks == want.checks
    assert got.stats == want.stats and list(got.witnesses) == \
        list(want.witnesses)
    for key, value in got.witnesses.items():
        if isinstance(value, Report):  # the involutivity of a certificate
            _same_reports(value, want.witnesses[key])
        else:
            assert value == want.witnesses[key]


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", ["real", "complex"])
@pytest.mark.parametrize("scene", sorted(_SCENES))
def test_solved_series_match_the_former_storage(scene, mode, order):
    hp = _SCENES[scene]()
    model = hp.model
    ds = solve_hitchin(hp, _fubini(model), order, mode)
    eps = ds.eps
    assert isinstance(eps, MVElement)
    S = hp.sigma.mat
    former = _FormerMC.from_polyvector(pi_star(ds.omega, S, tmax=order))
    # the transported pieces are the former rho, phi and gamma
    assert eps == pi_star_transport(ds.omega, hp, tmax=order)
    assert eps.component(2, 0) == former.rho
    assert eps.component(1, 1) == former.phi
    assert _form_of_bar_element(eps.component(0, 2)) == former.gamma
    assert former.polyvector() == eps
    for tmax in (None, order):
        _same_reports(mc_component_check(eps, hp, tmax=tmax),
                      _former_components(former, hp, tmax))
        _same_frames(deformation_frame(hp, eps, tmax),
                     _former_frame(hp, former, tmax))
    seed = 1000 * order + len(scene)
    got = deformed_structures(eps, hp, random.Random(seed), tmax=order)
    want = _former_structures(former, hp, random.Random(seed), tmax=order)
    _same_reports(got, want)
    assert got.projector == want.projector
    assert got.psi_blocks == want.psi_blocks
    assert got.poisson == want.poisson
    assert got.frame_match is want.frame_match is True
    _same_reports(got.certificates, want.certificates)
    for f in (model.z(0), model.z(1)):
        assert deformed_holomorphic_lift(f, eps, order) == \
            _former_lift(f, former, order)


# ---------------------------------------------------------------------------
# Random elements: the graph frame reads gamma's table directly
# ---------------------------------------------------------------------------

_COEFFS = st.sampled_from([1, -1, 2, Fraction(1, 3), Scalar(0, 1),
                           Scalar(1, -1)])


def _polys(n):
    """Sums of up to three terms of degree at most 1 in each z and zbar,
    and at most 2 in t."""
    term = st.tuples(_COEFFS, *[st.integers(0, 1)] * (2 * n),
                     st.integers(0, 2))
    return st.lists(term, max_size=3).map(lambda terms: Poly.sum(n, [
        Poly(n, {tuple(e): c if isinstance(c, Scalar) else Scalar(c)})
        for c, *e in terms]))


@st.composite
def _elements(draw):
    """A model, a (2,0) background and a degree-two element, each of
    whose pieces may vanish."""
    n = draw(st.sampled_from([1, 2, 3]))
    model = Model(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    parts = [MVElement.monomial(model, draw(_polys(n)), vecs=w)
             for w in pairs]
    parts += [MVElement.monomial(model, draw(_polys(n)), vecs=(i,),
                                 bars=(j,))
              for i in range(n) for j in range(n)]
    parts += [MVElement.monomial(model, draw(_polys(n)), bars=w)
              for w in pairs]
    sigma = MVElement.zero(model) if n == 1 else \
        MVElement.monomial(model, draw(_polys(n)), vecs=(0, 1))
    return MVElement.sum(model, parts), HoloPoisson(model, sigma=sigma)


@given(_elements(), st.sampled_from([None, 0, 1, 2]))
def test_graph_frames_match_the_former_storage(drawn, tmax):
    eps, hp = drawn
    former = _FormerMC.from_polyvector(eps)
    _same_frames(deformation_frame(hp, eps, tmax),
                 _former_frame(hp, former, tmax))
    _same_reports(mc_component_check(eps, hp, tmax=tmax),
                  _former_components(former, hp, tmax))


# ---------------------------------------------------------------------------
# Refused input
# ---------------------------------------------------------------------------

_ENTRY_POINTS = {
    "deformation_frame": lambda eps, hp: deformation_frame(hp, eps),
    "mc_component_check": lambda eps, hp: mc_component_check(eps, hp),
    "deformed_structures": lambda eps, hp: deformed_structures(
        eps, hp, random.Random(3), tmax=2),
    "deformed_holomorphic_lift": lambda eps, hp: deformed_holomorphic_lift(
        M2.z(0), eps, 2),
    "hamiltonian_family_check": lambda eps, hp: hamiltonian_family_check(
        DeformSeries(M2, hp, "complex", 2, [_fubini(M2)], {}, {},
                     MixedForm.zero(M2), eps), None, mode="complex"),
}

_STRAY = {"bidegree_1_0": dict(vecs=(0,)),
          "bidegree_2_1": dict(vecs=(0, 1), bars=(0,)),
          "bidegree_0_1": dict(bars=(1,))}


@pytest.mark.parametrize("stray", sorted(_STRAY))
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_a_piece_not_of_degree_two_is_refused(entry, stray):
    # a flat (1,1) part beside the stray piece, so only the piece is wrong
    eps = (MVElement.monomial(M2, M2.poly(1), vecs=(0,), bars=(1,))
           + MVElement.monomial(M2, M2.z(1), **_STRAY[stray]))
    with pytest.raises(ValueError, match="degree two"):
        _ENTRY_POINTS[entry](eps, _holo(M2, M2.z(0)))


@pytest.mark.parametrize("holo, anti", [((), (1,)), ((0,), (0, 1))],
                         ids=["one_form", "three_form"])
def test_the_transport_of_a_form_not_of_degree_two_is_refused(holo, anti):
    form = MixedForm.monomial(M2, M2.z(1), holo=holo, anti=anti)
    with pytest.raises(ValueError, match="degree two"):
        pi_star_transport(form, _holo(M2, M2.z(0)))
