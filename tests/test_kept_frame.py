"""One frame change and one L_sigma frame per holomorphic Poisson structure.

* ``build_L_sigma`` forms the frame on the first call for a ``tmax`` and
  keeps it on the structure, in one slot for the last ``tmax`` asked; its
  prerequisite checks still run on every call.  ``certificates``, the
  extraction's round trip, ``deformed_structures``, ``gk_deform_family``,
  ``gk_lift`` and ``check_gauge_equiv`` read the kept frame, and
  ``extract_holo_poisson`` forms its frame change A once, on the structure
  it returns.  ``gk_lift`` extracts each gauged structure once, in the
  ``gk_check`` of the lifted pair.
* ``deformed_structures`` reports a failing certificate or frame match as a
  False check with its witness; ``twistor_demo`` refuses such a report.
* ``gauge_real_poisson`` certifies its quotient by the graph identity
  alone: the gauged graph of pi0 and the graph of an antisymmetric pi1
  agree exactly when pi1 (1 + B pi0) = pi0, so a wrong quotient is refused
  by that comparison.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gkdirac import genkahler, hitchin, poisson
from gkdirac.errors import CertificateError
from gkdirac.forms import MixedForm
from gkdirac.frames import (DiracFrame, frames_equal, gauge_frame,
                            graph_bivector, involutivity_report)
from gkdirac.genkahler import (gk_check, gk_deform_family, gk_lift,
                               half_i_difference)
from gkdirac.linalg import (mat_add, mat_div_right, mat_identity, mat_mul,
                            mat_t_truncate)
from gkdirac.model import Model
from gkdirac.multivector import MVElement, form_matrix
from gkdirac.poisson import (Bivector, HoloPoisson, RealPoisson,
                             build_L_sigma, extract_holo_poisson,
                             gauge_real_poisson)
from gkdirac.poly import Poly
from gkdirac.report import Report
from gkdirac.scalars import Scalar

from test_genkahler import M2, hermitian_form, kahler_pair

PLAIN = Model(2)
CUTS = st.sampled_from([None, 0, 1, 2, 3])
_SLOW = settings(deadline=None)


def _phi_scene(model, c=1):
    """sigma = c z1 d1^d2 with phi = z1 d2 (x) dzbar1, a flat phi; sigma
    is not of the deformed type (2,0), so the frame is built unchecked."""
    sigma = MVElement.monomial(model, model.z(0).scale(Scalar(c)),
                               vecs=(0, 1))
    phi = MVElement.monomial(model, model.z(0), vecs=(1,), bars=(0,))
    return HoloPoisson(model, sigma=sigma, phi=phi)


def _certified_scene():
    """phi = z1 d2 (x) dzbar1 with sigma zero: it passes every certificate,
    closure on the frame route."""
    return HoloPoisson(PLAIN, phi=MVElement.monomial(
        PLAIN, PLAIN.z(0), vecs=(1,), bars=(0,)))


def _gens(frame):
    return [(g.vec, g.cov) for g in frame]


def _count_frames(monkeypatch):
    """The L_sigma frames ``poisson`` constructs from here on."""
    made = []

    class Counted(DiracFrame):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self.label == "L_sigma":
                made.append(self)

    monkeypatch.setattr(poisson, "DiracFrame", Counted)
    return made


# ---------------------------------------------------------------------------
# The kept frame
# ---------------------------------------------------------------------------

@_SLOW
@given(cuts=st.lists(CUTS, min_size=1, max_size=5),
       c=st.sampled_from([-3, -2, -1, 1, 2, 3]),
       param=st.booleans())
def test_the_kept_frame_is_the_frame_built_afresh(cuts, c, param):
    model = Model(2, param=param)
    hp = _phi_scene(model, c)
    for tmax in cuts:
        kept = build_L_sigma(hp, tmax=tmax, check=False)
        assert build_L_sigma(hp, tmax=tmax, check=False) is kept
        fresh = build_L_sigma(_phi_scene(model, c), tmax=tmax, check=False)
        assert _gens(kept) == _gens(fresh)
        assert [k in kept.built for k in (None, 0, 1, 2, 3)] == \
            [k in fresh.built for k in (None, 0, 1, 2, 3)]


def test_one_slot_for_the_last_tmax_asked(monkeypatch):
    made = _count_frames(monkeypatch)
    hp = _certified_scene()
    first = build_L_sigma(hp)
    assert build_L_sigma(hp, check=False) is first and len(made) == 1
    cut = build_L_sigma(hp, tmax=2)
    assert cut is not first and build_L_sigma(hp, tmax=2) is cut
    assert len(made) == 2
    again = build_L_sigma(hp)
    assert again is not first and _gens(again) == _gens(first)
    assert len(made) == 3


def test_the_prerequisites_run_on_every_call():
    # sigma = d1^dbar1 has a leg along the antiholomorphic bundle
    hp = HoloPoisson(PLAIN, sigma=Bivector.wedge_pair(PLAIN, 0, 2, 1))
    kept = build_L_sigma(hp, check=False)
    for _ in range(2):
        with pytest.raises(CertificateError, match="antiholomorphic"):
            build_L_sigma(hp)
    assert build_L_sigma(hp, check=False) is kept


def test_certificates_read_the_frame_of_the_round_trip(monkeypatch):
    hp = _certified_scene()
    L = build_L_sigma(hp, tmax=2)
    made = _count_frames(monkeypatch)
    got = extract_holo_poisson(L, random.Random(3), tmax=2)
    assert got == hp and len(made) == 1
    assert got.certificates(random.Random(3), tmax=2).ok
    assert len(made) == 1


@pytest.mark.parametrize("tmax", [None, 2])
def test_one_frame_change_per_extraction(monkeypatch, tmax):
    frames = [build_L_sigma(_certified_scene(), tmax=tmax),
              half_i_difference(*kahler_pair(M2), random.Random(5),
                                tmax=tmax)]
    calls = []
    former = poisson._deformed_frame_change

    def counted(Phi):
        calls.append(Phi)
        return former(Phi)

    monkeypatch.setattr(poisson, "_deformed_frame_change", counted)
    for L in frames:
        calls.clear()
        hp = extract_holo_poisson(L, random.Random(7), tmax=tmax)
        assert len(calls) == 1
        # the structure returned keeps it: its legs and certificates
        # form no other
        hp.certificates(random.Random(7), tmax=tmax)
        hp.type_defects(tmax=tmax)
        assert len(calls) == 1


def _flat_family_pair(rng):
    """The flat_family scene: the complex-type frame and a Kahler graph of
    weights w_k, deformed by F = t (i/2) sum_k r_k w_k dz_k ^ dzbar_k."""
    weights = [rng.randint(1, 5) for _ in range(2)]
    ratios = [rng.randint(1, 5) for _ in range(2)]
    pair = kahler_pair(M2, weights)
    F = hermitian_form(M2, [r * w for r, w in zip(ratios, weights)],
                       tpower=1)
    return pair, F


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_one_frame_per_structure_across_gk_check_and_the_family(
        monkeypatch, seed):
    (L1, L2), F = _flat_family_pair(random.Random(seed))
    rng = random.Random(100 + seed)
    made = _count_frames(monkeypatch)
    report = gk_check(L1, L2, rng)
    pair = report.pair
    assert report.verdict == "generalized kahler"
    fam = gk_deform_family(pair, F, rng, tmax=3)
    assert fam.ok
    structures = [(pair.sigma_plus, None), (pair.sigma_minus, None),
                  (fam.sigma_plus_family, 3)]
    assert len(made) == len(structures)
    for hp, tmax in structures:
        build_L_sigma(hp, tmax=tmax, check=False)
    assert len(made) == len(structures)
    # gk_lift and check_gauge_equiv read the kept frames too: one frame
    # more for each structure the lift's gk_check extracts
    gk_lift(MixedForm.zero(M2), MixedForm.zero(M2), pair, rng)
    assert len(made) == len(structures) + 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gk_lift_extracts_each_gauged_structure_once(monkeypatch, seed):
    # the lifted pair's own gk_check extracts sigma'_+ and sigma'_-, and
    # check_gauge_equiv proves each the gauge of the original: the lift
    # extracts nothing itself
    (L1, L2), _F = _flat_family_pair(random.Random(seed))
    rng = random.Random(100 + seed)
    pair = gk_check(L1, L2, rng).pair
    calls = []

    def counted(frame, rng, tmax=None):
        calls.append(tmax)
        return extract_holo_poisson(frame, rng, tmax=tmax)

    monkeypatch.setattr(genkahler, "extract_holo_poisson", counted)
    beta = hermitian_form(M2).scale(Scalar(Fraction(1, 5)))
    report = gk_lift(beta, MixedForm.zero(M2), pair, rng)
    assert report.pair is not None
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# deformed_structures reports its checks
# ---------------------------------------------------------------------------

def _solved_scene():
    model = Model(2)
    hp = HoloPoisson(model, sigma=MVElement.monomial(
        model, model.z(0).scale(Scalar(Fraction(1, 2), 1)), vecs=(0, 1)))
    seed = MixedForm.zero(model)
    for k, w in enumerate([Fraction(2), Fraction(1, 3)]):
        seed = seed + MixedForm.monomial(
            model, Poly.const(2, Scalar(0, w / 2)), (k,), (k,))
    return hitchin.solve_hitchin(hp, seed, 3, mode="real").eps, hp


def test_deformed_structures_compares_the_frame_its_certificates_checked(
        monkeypatch):
    eps, hp = _solved_scene()
    checked, compared = [], []
    check = involutivity_report.check

    def recording_check(frame, rng, H=None, tmax=None):
        checked.append(frame)
        return check(frame, rng, H=H, tmax=tmax)

    def recording_equal(f1, f2, rng, tmax=None):
        compared.append(f1)
        return frames_equal(f1, f2, rng, tmax=tmax)

    monkeypatch.setattr(involutivity_report, "check",
                        staticmethod(recording_check))
    monkeypatch.setattr(hitchin, "frames_equal", recording_equal)
    rep = hitchin.deformed_structures(eps, hp, random.Random(31), tmax=3)
    assert rep.ok
    assert rep.certificates.stats["closure_method"] == "frame"
    assert len(checked) == 1 and len(compared) == 1
    assert compared[0] is checked[0]
    assert compared[0] is build_L_sigma(rep.poisson, tmax=3, check=False)


def test_a_failing_certificate_is_reported_with_its_witness(monkeypatch):
    eps, hp = _solved_scene()
    failing = Report("poisson_certificates",
                     {"mc_phi": True, "type_20": True, "closure": False})
    monkeypatch.setattr(HoloPoisson, "certificates",
                        lambda self, rng, tmax=None: failing)
    rep = hitchin.deformed_structures(eps, hp, random.Random(31), tmax=3)
    assert not rep.ok
    assert not rep.checks["certificates"] and rep.checks["frame_match"]
    assert rep.witnesses["certificates"] is failing
    assert "frame_match" not in rep.witnesses


def test_a_failing_frame_match_is_reported_with_both_frames(monkeypatch):
    eps, hp = _solved_scene()
    monkeypatch.setattr(hitchin, "frames_equal",
                        lambda f1, f2, rng, tmax=None: False)
    rep = hitchin.deformed_structures(eps, hp, random.Random(31), tmax=3)
    assert not rep.ok
    assert rep.checks["certificates"] and not rep.checks["frame_match"]
    assert "certificates" not in rep.witnesses
    kept, graph = rep.witnesses["frame_match"]
    assert kept is build_L_sigma(rep.poisson, tmax=3, check=False)
    assert _gens(graph) == _gens(hitchin.deformation_frame(hp, eps, 3))


def test_twistor_demo_refuses_a_failing_structures_report(monkeypatch):
    former = hitchin.deformed_structures

    def failing(*args, **kwargs):
        rep = former(*args, **kwargs)
        rep.checks["certificates"] = False
        return rep

    monkeypatch.setattr(hitchin, "deformed_structures", failing)
    with pytest.raises(CertificateError, match="deformed_structures"):
        hitchin.twistor_demo(order=2, rng=random.Random(8))


# ---------------------------------------------------------------------------
# gauge_real_poisson: the graph identity is the certificate
# ---------------------------------------------------------------------------

def _real_scene(tpower):
    """pi0 = sigma + conj sigma for sigma = z1 d1^d2, and the real closed
    B = t^tpower (i/2)(dz1 ^ dzbar1 + 2 dz2 ^ dzbar2)."""
    sigma = Bivector.wedge_pair(M2, 0, 1, M2.z(0))
    pi0 = RealPoisson(M2, sigma + sigma.conj())
    return pi0, hermitian_form(M2, [1, 2], tpower=tpower)


def _skew(entries):
    """A real antisymmetric matrix: entries[k] at the k-th upper position
    (a, b), its conjugate at the mirrored legs, minus both transposed."""
    model = M2
    X = Bivector(model)
    pos = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for (a, b), c in zip(pos, entries):
        if c:
            X = X + Bivector.wedge_pair(model, a, b, c)
    return (X + X.conj()).mat


_COEFFS = st.builds(
    lambda c, k, z: Poly.const(2, Scalar(c)) * Poly.t(2, k)
    * (M2.z(1) if z else M2.poly(1)),
    st.integers(-2, 2), st.integers(0, 4), st.booleans())


@pytest.mark.parametrize("tpower,tmax", [(0, None), (1, 1), (1, 3)])
def test_a_wrong_antisymmetric_quotient_is_refused_by_the_graph(
        monkeypatch, tpower, tmax):
    pi0, B = _real_scene(tpower)
    if tmax is None:
        B = MixedForm.zero(M2)  # keeps 1 + B pi0 polynomially invertible
    wrong = _skew([M2.poly(1)])

    def off(P, E, tmax=None):
        return mat_add(mat_div_right(P, E, tmax=tmax), wrong)

    assert gauge_real_poisson(pi0, B, random.Random(2), tmax=tmax)
    monkeypatch.setattr(poisson, "mat_div_right", off)
    with pytest.raises(CertificateError, match="gauged graph does not match"):
        gauge_real_poisson(pi0, B, random.Random(2), tmax=tmax)


@_SLOW
@given(entries=st.lists(_COEFFS, min_size=6, max_size=6),
       tmax=st.integers(1, 3), seed=st.integers(0, 10 ** 6))
def test_the_graphs_agree_exactly_when_the_product_identity_holds(
        entries, tmax, seed):
    pi0, B = _real_scene(1)
    P = pi0.pi.mat
    E = mat_add(mat_identity(M2.dim, M2.n),
                mat_mul(form_matrix(B), P, tmax=tmax))
    pi1 = mat_add(mat_div_right(P, E, tmax=tmax), _skew(entries))
    moved = gauge_frame(graph_bivector(M2, P), B, tmax=tmax)
    agree = frames_equal(moved, graph_bivector(M2, pi1), random.Random(seed),
                         tmax=tmax)
    assert agree == (mat_mul(pi1, E, tmax=tmax) == mat_t_truncate(P, tmax))
