"""One route per answer, and truncation orders that certify something.

* The general routes decide the cases that special branches used to
  answer directly, with the former answers: ``complex_structure`` at
  phi = 0 is diag(i, -i) through the projector, an empty ``PointDirac``
  has rank 0 and meets nothing, int, Fraction and ``Scalar`` constants
  scale alike through ``Poly``, and a pencil determinant constant in t has
  no root interval.  (Empty spans are pinned against the former
  certificate in ``test_linalg.py``, ``gk_lift``'s single extraction in
  ``test_kept_frame.py``.)
* A ``tmax`` or ``order`` below 0, or a ``tmax`` below 1 in
  ``hamiltonian_family_check``, where one order goes to d/dt, is refused
  with ValueError before any verdict is formed.
* ``verify_graph_identity`` reports ``checks["series"]`` only when a series
  comparison ran.
"""
import random
from fractions import Fraction

import pytest

from gkdirac import hitchin
from gkdirac.forms import MixedForm
from gkdirac.frames import (GVField, PointDirac, dirac_scale, graph_bivector,
                            tangent_frame)
from gkdirac.genkahler import _det_root_intervals, gk_check, gk_deform_family
from gkdirac.linalg import real_roots_in_interval
from gkdirac.model import Model
from gkdirac.multivector import MVElement
from gkdirac.poisson import Bivector, HoloPoisson
from gkdirac.scalars import Scalar, sc

from test_genkahler import hermitian_form, kahler_pair
from test_hitchin import c2_background, fubini_seed

M2 = Model(2)


# ---------------------------------------------------------------------------
# The general routes give the former answers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("tmax", [None, 0, 2])
def test_complex_structure_at_zero_phi_is_diag_i_minus_i(n, tmax):
    model = Model(n)
    sigmas = [None]
    if n > 1:
        sigmas.append(MVElement.monomial(model, model.z(0), vecs=(0, 1)))
    for sigma in sigmas:
        hp = HoloPoisson(model, sigma=sigma)
        assert hp.phi.is_zero()
        want = [[model.zero_poly()] * model.dim for _ in range(model.dim)]
        for i in range(model.dim):
            want[i][i] = model.poly(sc(0, 1 if i < n else -1))
        assert hp.complex_structure(tmax=tmax) == want


def test_empty_point_dirac_has_rank_zero_and_meets_nothing():
    pt = M2.sample_point(random.Random(5))
    empty = PointDirac(M2, [])
    full = tangent_frame(M2).eval_point(pt)
    assert empty.rank() == 0
    for a, b in ((empty, empty), (empty, full), (full, empty)):
        assert a.intersect(b).columns == []
    assert full.intersect(full).rank() == full.rank() == M2.dim


_CONSTANTS = [(3, Fraction(3), Scalar(3)),
              (0, Fraction(0), Scalar(0)),
              (Fraction(-2, 7), Fraction(-2, 7), Scalar(Fraction(-2, 7)))]


@pytest.mark.parametrize("values", _CONSTANTS)
def test_constants_scale_alike_through_poly(values):
    z1, t = M2.z(0), M2.t()
    field = GVField(M2, vec=[z1, t, M2.zero_poly(), M2.poly(2)],
                    cov=[M2.poly(1), z1.conj(), t * z1, M2.zero_poly()])
    frame = graph_bivector(M2, Bivector.wedge_pair(M2, 0, 1, z1).mat)
    scaled = [field.scale(c) for c in values]
    frames = [dirac_scale(frame, c) for c in values]
    wedges = [Bivector.wedge_pair(M2, 0, 2, c) for c in values]
    for other in scaled[1:]:
        assert (other.vec, other.cov) == (scaled[0].vec, scaled[0].cov)
    for other in frames[1:]:
        assert [(g.vec, g.cov) for g in other.gens] == \
            [(g.vec, g.cov) for g in frames[0].gens]
        assert (None in other.built) == (None in frames[0].built)
    assert (None in frames[0].built) == bool(values[0])
    for other in wedges[1:] + [Bivector.wedge_pair(M2, 0, 2,
                                                   M2.poly(values[2]))]:
        assert other == wedges[0]


@pytest.mark.parametrize("det", [M2.poly(1),
                                 M2.poly(1) + M2.z(0) * M2.zbar(0)])
def test_pencils_constant_in_t_have_no_root_intervals(det):
    points = [M2.origin()] + M2.sample_points(random.Random(9), count=3)
    assert _det_root_intervals(det, M2, points) == [[]] * len(points)
    # and t^2 + 1 has no real root to isolate
    assert _det_root_intervals(det + M2.t() * M2.t(), M2, points) == \
        [[]] * len(points)
    assert real_roots_in_interval([3], Fraction(-2), Fraction(2)) == []
    assert real_roots_in_interval([1, 0, 1], Fraction(-2), Fraction(2)) == []


# ---------------------------------------------------------------------------
# Truncation orders that certify nothing are refused
# ---------------------------------------------------------------------------

def _solved():
    hp = c2_background()
    return hp, hitchin.solve_hitchin(hp, fubini_seed(), 3, mode="real")


@pytest.mark.parametrize("tmax", [-1, 0])
def test_real_family_refuses_a_cut_with_no_certified_order(tmax):
    # pi = t (d1^d2 + dbar1^dbar2) with B = 0 is no Hamiltonian family:
    # pi_dot != 0 = -pi B_dot pi.  At tmax = 0 the certified order was -1
    # and every check read True
    t = M2.t()
    pi = Bivector.wedge_pair(M2, 0, 1, t) + Bivector.wedge_pair(M2, 2, 3, t)
    family = (pi, MixedForm.zero(M2))
    with pytest.raises(ValueError, match="at least 1"):
        hitchin.hamiltonian_family_check(family, random.Random(1),
                                         mode="real", tmax=tmax)
    rep = hitchin.hamiltonian_family_check(family, random.Random(1),
                                           mode="real", tmax=1)
    assert rep.stats["certified_order"] == 0
    assert not rep.checks["velocity"]
    assert not rep.checks["twisted_involutivity"]


@pytest.mark.parametrize("tmax", [-1, 0])
def test_complex_family_refuses_a_cut_with_no_certified_order(tmax):
    # tmax = 0 read every check True with certified order -1; tmax = -1
    # raised "series inverse did not converge"
    _hp, ds = _solved()
    with pytest.raises(ValueError, match="at least 1"):
        hitchin.hamiltonian_family_check(ds, random.Random(1),
                                         mode="complex", tmax=tmax)


def test_gk_check_refuses_a_negative_cut():
    # read "not generalized kahler" with origin witnesses
    L1, L2 = kahler_pair(M2)
    with pytest.raises(ValueError, match="at least 0"):
        gk_check(L1, L2, random.Random(2), tmax=-1)


def test_formality_psi_refuses_a_negative_order():
    # raised a bare IndexError
    hp, ds = _solved()
    with pytest.raises(ValueError, match="at least 0"):
        hitchin.formality_psi(ds.beta_series(), hp, -1)


def test_deformed_structures_refuses_a_negative_cut():
    hp, ds = _solved()
    with pytest.raises(ValueError, match="at least 0"):
        hitchin.deformed_structures(ds.eps, hp, random.Random(3), tmax=-1)


def test_certificates_and_the_family_refuse_a_negative_cut():
    # the certificates and the flatness check read every check True at
    # tmax = -1; the family raised a SingularityError from a span search
    hp, ds = _solved()
    with pytest.raises(ValueError, match="at least 0"):
        hp.certificates(random.Random(4), tmax=-1)
    with pytest.raises(ValueError, match="at least 0"):
        hitchin.mc_component_check(ds.eps, hp, tmax=-1)
    pair = gk_check(*kahler_pair(M2), random.Random(2)).pair
    with pytest.raises(ValueError, match="at least 0"):
        gk_deform_family(pair, hermitian_form(M2, tpower=1),
                         random.Random(4), -1)


# ---------------------------------------------------------------------------
# The series check exists only where a series comparison ran
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order", [None, 3])
def test_graph_identity_reports_no_series_check_it_did_not_run(order):
    # a t-free two-form: beta has a t^0 term, so no series comparison runs
    beta = MixedForm.monomial(M2, M2.poly(sc(0, Fraction(1, 2))), (0,), (0,))
    rep = hitchin.verify_graph_identity(beta, c2_background(),
                                        random.Random(6), order=order)
    assert rep.series_equal is None
    assert "series" not in rep.checks
    assert rep.checks["points_agree"]


def test_graph_identity_reports_the_series_check_it_ran():
    hp, ds = _solved()
    rep = hitchin.verify_graph_identity(ds.beta_series(), hp,
                                        random.Random(6), order=3)
    assert rep.series_equal is True
    assert rep.checks["series"] is True
