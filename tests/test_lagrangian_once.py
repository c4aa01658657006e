"""Each Dirac frame shown Lagrangian once, at the origin where it can be.

``frames_equal`` shows the first frame Lagrangian, pairs it with each
generator of the second frame that is not already one of its own, and,
when every pairing vanishes, reads only the second frame's rank: the second
frame then lies in L1^perp = L1, so it is isotropic.  ``_not_lagrangian``
ranks the generators' constant terms, the frame at z = 0, t = 0, before it
draws any sample point.  A frame keeps the orders ``tmax`` at which it was
shown Lagrangian, and ``frames_equal`` does not repeat the proof at those
orders; ``HoloPoisson.certificates`` hands back the frame it checked, so
``deformed_structures`` compares against it instead of building it again.

The former routes are kept here as references: both frames shown
Lagrangian, then every cross pairing, with the rank read at sample points
only.  Hypothesis compares the bool, or the exception type and text, on
graphs of 2-forms and bivectors and on ``build_L_sigma`` frames, with
generators rescaled, reordered or repeated, on second frames that are not
isotropic or drop rank, with ``tmax`` None and 0-3 on plain and parameter
models.
"""
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from gkdirac import hitchin, poisson
from gkdirac.errors import UnsupportedSceneError
from gkdirac.forms import MixedForm
from gkdirac.frames import (DiracFrame, GVField, _not_lagrangian,
                            frames_equal, graph_bivector, graph_two_form,
                            involutivity_report, tangent_frame)
from gkdirac.linalg import mat_add
from gkdirac.model import Model, Point
from gkdirac.multivector import MVElement
from gkdirac.poisson import Bivector, HoloPoisson, build_L_sigma
from gkdirac.poly import Poly
from gkdirac.scalars import Scalar, ZERO

N = 2
PLAIN, PARAM = Model(N), Model(N, param=True)
CUTS = st.none() | st.integers(0, 3)

# the references build frames several times per example
_SLOW = settings(deadline=None)


# ---------------------------------------------------------------------------
# The former routes, kept as references
# ---------------------------------------------------------------------------

def _not_lagrangian_reference(frame, defect, rng, tmax=None):
    """The former ``_not_lagrangian``: the rank read at sample points only,
    on the t = 0 slice with ``tmax``."""
    if any(defect):
        return "a generator pairing is nonzero"
    model = frame.model
    for _ in range(5):
        pt = model.sample_point(rng, with_t=True)
        if tmax is not None:
            pt = Point(pt.z, ZERO)
        if frame.eval_point(pt).rank() == model.dim:
            return None
    return f"its rank stays below {model.dim} at 5 sample points"


def _frames_equal_reference(f1, f2, rng, tmax=None):
    """The former ``frames_equal``: both frames shown Lagrangian, then
    every cross pairing."""
    if f2.model != f1.model:
        raise ValueError("mixed models")
    for name, f in (("first", f1), ("second", f2)):
        reason = _not_lagrangian_reference(f, f.isotropy_defect(tmax), rng,
                                           tmax)
        if reason is not None:
            raise UnsupportedSceneError(
                f"frames_equal needs Lagrangian frames; the {name} frame "
                f"{f.label!r} is not: {reason}")
    return not any(a.pairing(b, tmax) for a in f1.gens for b in f2.gens)


def _outcome(route, f1, f2, seed, tmax):
    """The bool, or the exception type and text."""
    try:
        return route(f1, f2, random.Random(seed), tmax=tmax)
    except UnsupportedSceneError as exc:
        return UnsupportedSceneError, str(exc)


def _agree(f1, f2, seed, tmax):
    """``frames_equal`` and the reference give one outcome; the new route
    runs on fresh frames, so no recorded proof carries over."""
    got = _outcome(frames_equal, _fresh(f1), _fresh(f2), seed, tmax)
    assert got == _outcome(_frames_equal_reference, f1, f2, seed, tmax)
    return got


def _fresh(frame):
    return DiracFrame(frame.model, frame.gens, label=frame.label)


# ---------------------------------------------------------------------------
# Scenes
# ---------------------------------------------------------------------------

_COEFFS = st.sampled_from([1, -1, 2, Fraction(1, 2), Scalar(0, 1),
                           Scalar(1, -1)])


def _polys(max_t):
    """Sums of up to two terms of degree at most 1 in each of z1, z2,
    zbar1, zbar2, and at most ``max_t`` in t."""
    term = st.tuples(_COEFFS, *[st.integers(0, 1)] * (2 * N),
                     st.integers(0, max_t))
    return st.lists(term, max_size=2).map(lambda terms: Poly.sum(N, [
        Poly(N, {tuple(e): c if isinstance(c, Scalar) else Scalar(c)})
        for c, *e in terms]))


@st.composite
def _two_form(draw, model, max_t):
    """A 2-form on up to three legs, dt legs included on a parameter
    model."""
    legs = [((0, 1), (), False), ((), (0, 1), False)]
    legs += [((i,), (j,), False) for i in range(N) for j in range(N)]
    if model.param:
        legs += [((i,), (), True) for i in range(N)]
    out = MixedForm.zero(model)
    for holo, anti, dt in draw(st.lists(st.sampled_from(legs), min_size=1,
                                        max_size=3, unique=True)):
        out = out + MixedForm.monomial(model, draw(_polys(max_t)), holo,
                                       anti, dt=dt)
    return out


@st.composite
def _bivector(draw, model, max_t):
    pairs = [(a, b) for a in range(model.dim) for b in range(a + 1, model.dim)]
    return Bivector(model, reduce(mat_add, [
        Bivector.wedge_pair(model, a, b, draw(_polys(max_t))).mat
        for a, b in draw(st.lists(st.sampled_from(pairs), min_size=1,
                                  max_size=2, unique=True))]))


def _with_dt(frame):
    """On a parameter model, the frame with d/dt added."""
    model = frame.model
    if not model.param:
        return frame
    e_t = [model.zero_poly()] * model.dim
    e_t[-1] = model.poly(1)
    return DiracFrame(model, frame.gens + [GVField(model, vec=e_t)],
                      label=frame.label)


@st.composite
def _holo_poisson(draw, model, max_t):
    """sigma = (1 + f) d1^d2 with a (1,1) phi = g d2 (x) dzbar1 or none."""
    sigma = Bivector.wedge_pair(model, 0, 1,
                                draw(_polys(max_t)) + model.poly(1))
    phi = None
    if draw(st.booleans()):
        phi = MVElement.monomial(model, draw(_polys(max_t)), vecs=(1,),
                                 bars=(0,))
    return HoloPoisson(model, sigma=sigma, phi=phi)


KINDS = ["two_form", "bivector", "l_sigma"]


def _frames(model, tmax, kind):
    """Lagrangian frames of one kind: graphs of 2-forms or bivectors, or
    the frames of ``build_L_sigma``."""
    max_t = 3 if tmax is not None else 1
    if kind == "two_form":
        return _two_form(model, max_t).map(graph_two_form)
    if kind == "bivector":
        return _bivector(model, max_t).map(
            lambda P: graph_bivector(model, P.mat))
    return _holo_poisson(model, max_t).map(
        lambda hp: _with_dt(build_L_sigma(hp, tmax=tmax, check=False)))


@st.composite
def _variant(draw, frame):
    """The same frame from other generators: some rescaled by a nonzero
    constant or by 1 + z1, then reordered, with some repeated."""
    model = frame.model
    scales = st.sampled_from([Scalar(2), Scalar(-1), Scalar(0, 1),
                              Scalar(Fraction(1, 2), 1), None])
    gens = []
    for g in frame.gens:
        c = draw(scales)
        gens.append(g if draw(st.booleans()) else
                    g.poly_mul(model.poly(1) + model.z(0)) if c is None
                    else g.scale(c))
    gens = draw(st.permutations(gens))
    repeats = draw(st.lists(st.sampled_from(gens), max_size=2))
    return DiracFrame(model, gens + repeats, label="variant")


def _bent(frame, k):
    """Generator k moved by d/dx_k + dx_k, which pairs with itself to 1:
    in general no longer isotropic."""
    model = frame.model
    e = [model.zero_poly()] * model.dim
    e[k] = model.poly(1)
    gens = list(frame.gens)
    gens[k] = gens[k] + GVField(model, vec=e, cov=e)
    return DiracFrame(model, gens, label="bent")


def _short(frame, how, k):
    """A frame of rank below dim inside ``frame``: generator k dropped, or
    multiplied by t (lost on the t = 0 slice) or by z1 (lost at the origin
    only)."""
    model = frame.model
    gens = list(frame.gens)
    if how == "drop":
        del gens[k]
    else:
        gens[k] = gens[k].poly_mul(model.t() if how == "t" else model.z(0))
    return DiracFrame(model, gens, label=how)


# ---------------------------------------------------------------------------
# The new route against the former one
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", [PLAIN, PARAM])
@_SLOW
@given(data=st.data(), tmax=CUTS, seed=st.integers(0, 10 ** 6))
def test_pairs_of_lagrangian_frames(model, data, tmax, seed):
    kind = data.draw(st.sampled_from(KINDS))
    f1 = data.draw(_frames(model, tmax, kind))
    same = _agree(f1, data.draw(_variant(f1)), seed, tmax)
    if kind != "l_sigma":  # a graph is Lagrangian at every order
        assert same is True
    other = data.draw(_frames(model, tmax, kind))
    _agree(f1, data.draw(_variant(other)), seed, tmax)
    _agree(other, f1, seed, tmax)


@pytest.mark.parametrize("model", [PLAIN, PARAM])
@_SLOW
@given(data=st.data(), tmax=CUTS, seed=st.integers(0, 10 ** 6))
def test_second_frames_that_are_not_isotropic(model, data, tmax, seed):
    kind = data.draw(st.sampled_from(KINDS))
    f1 = data.draw(_frames(model, tmax, kind))
    other = data.draw(_frames(model, tmax, kind))
    k = data.draw(st.integers(0, model.dim - 1))
    for f2 in (_bent(f1, k), _bent(other, k)):
        _agree(f1, f2, seed, tmax)
        _agree(f1, data.draw(_variant(f2)), seed, tmax)
    # refused as the first frame too
    _agree(_bent(other, k), f1, seed, tmax)


@pytest.mark.parametrize("model", [PLAIN, PARAM])
@_SLOW
@given(data=st.data(), tmax=CUTS, seed=st.integers(0, 10 ** 6))
def test_second_frames_of_rank_below_dim(model, data, tmax, seed):
    kind = data.draw(st.sampled_from(KINDS))
    f1 = data.draw(_frames(model, tmax, kind))
    how = data.draw(st.sampled_from(["drop", "t", "z1"]))
    k = data.draw(st.integers(0, model.dim - 1))
    got = _agree(f1, _short(f1, how, k), seed, tmax)
    if kind != "l_sigma" and (how == "drop"
                              or (how == "t" and tmax is not None)):
        assert got[0] is UnsupportedSceneError and "second" in got[1]
    other = data.draw(_frames(model, tmax, kind))
    _agree(f1, _short(other, how, k), seed, tmax)
    _agree(_short(other, how, k), f1, seed, tmax)


def test_worked_refusals_keep_their_text():
    rng = random.Random(3)
    T = tangent_frame(PLAIN)
    bent = _bent(T, 0)
    for f1, f2 in ((T, bent), (bent, T), (T, _short(T, "drop", 3)),
                   (_short(T, "drop", 3), T)):
        got = _agree(f1, f2, rng.randrange(100), None)
        assert got[0] is UnsupportedSceneError


# ---------------------------------------------------------------------------
# The rank at the origin
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", [PLAIN, PARAM])
@pytest.mark.parametrize("tmax", [None, 0, 2])
def test_a_frame_regular_at_the_origin_draws_no_point(model, tmax):
    rng = random.Random(17)
    B = MixedForm.monomial(model, model.z(0) + model.t(), (0,), (1,))
    frames = [graph_two_form(B), graph_bivector(
        model, Bivector.wedge_pair(model, 0, 1, model.z(1)).mat)]
    for frame in frames:
        verdicts = []
        for seed in range(5):
            rng = random.Random(seed)
            state = rng.getstate()
            f = _fresh(frame)
            verdicts.append(_not_lagrangian(f, f.isotropy_defect(tmax), rng,
                                            tmax))
            assert rng.getstate() == state
            assert f.lagrangian == {tmax}
        assert verdicts == [None] * 5
    verdicts = []
    for seed in range(5):
        rng = random.Random(seed)
        state = rng.getstate()
        verdicts.append(frames_equal(*map(_fresh, frames), rng, tmax=tmax))
        assert rng.getstate() == state
    assert len(set(verdicts)) == 1


@pytest.mark.parametrize("model", [PLAIN, PARAM])
@pytest.mark.parametrize("tmax", [None, 0, 2])
def test_rank_lost_at_the_origin_only_is_found_at_sample_points(model, tmax):
    # generator 0 scaled by z1 vanishes at the origin, and nowhere else
    frame = _short(graph_two_form(MixedForm.monomial(
        model, model.zbar(1), (0,), (1,))), "z1", 0)
    rng = random.Random(23)
    state = rng.getstate()
    assert _not_lagrangian(frame, frame.isotropy_defect(tmax), rng,
                           tmax) is None
    assert rng.getstate() != state
    assert frame.lagrangian == {tmax}
    assert _not_lagrangian_reference(frame, frame.isotropy_defect(tmax),
                                     random.Random(23), tmax) is None
    assert frames_equal(_fresh(frame), graph_two_form(MixedForm.monomial(
        model, model.zbar(1), (0,), (1,))), random.Random(23), tmax=tmax)


# ---------------------------------------------------------------------------
# One proof per frame and order
# ---------------------------------------------------------------------------

def test_a_proof_over_the_rational_functions_is_not_one_mod_t():
    rng = random.Random(11)
    T = tangent_frame(PLAIN)
    lost = DiracFrame(PLAIN, [T.gens[0].poly_mul(PLAIN.t())] + T.gens[1:],
                      label="lost")
    assert frames_equal(lost, T, rng)
    assert lost.lagrangian == {None}
    with pytest.raises(UnsupportedSceneError, match="first.*lost.*rank"):
        frames_equal(lost, T, rng, tmax=2)
    assert lost.lagrangian == {None}


def test_a_recorded_first_frame_is_not_paired_again(monkeypatch):
    rng = random.Random(13)
    B = MixedForm.monomial(PLAIN, PLAIN.z(0), (0,), (1,))
    f1 = graph_two_form(B)
    f2 = DiracFrame(PLAIN, [g.scale(2) for g in reversed(f1.gens)])
    rep = involutivity_report.check(f1, rng, tmax=1)
    assert rep.stats["route"] == "lagrangian" and f1.lagrangian == {1}
    pairs = []
    pairing = GVField.pairing

    def counted(self, other, tmax=None):
        pairs.append((self, other))
        return pairing(self, other, tmax)

    monkeypatch.setattr(GVField, "pairing", counted)
    assert frames_equal(f1, f2, rng, tmax=1)
    # the 4 x 4 cross pairings only: f1 was shown Lagrangian mod t^2, and
    # f2 lies in f1
    assert pairs == [(a, b) for a in f1.gens for b in f2.gens]
    del pairs[:]
    # over the rational functions the proof is made afresh
    assert frames_equal(f1, f2, rng)
    assert len(pairs) == 10 + 16
    assert f1.lagrangian == f2.lagrangian == {None, 1}
    # both frames recorded: the cross pairings alone, either way round
    del pairs[:]
    assert frames_equal(f2, f1, rng, tmax=1)
    assert pairs == [(b, a) for b in f2.gens for a in f1.gens]


def test_equal_generators_are_compared_on_both_parts():
    # graphs of two 2-forms share every vector part, and differ
    rng = random.Random(19)
    B1 = MixedForm.monomial(PLAIN, PLAIN.z(0), (0,), (1,))
    B2 = MixedForm.monomial(PLAIN, PLAIN.z(1), (0,), (1,))
    assert not frames_equal(graph_two_form(B1), graph_two_form(B2), rng)
    assert frames_equal(graph_two_form(B1), graph_two_form(B1), rng)


# ---------------------------------------------------------------------------
# The certified frame, handed on
# ---------------------------------------------------------------------------

def _phi_scene(model):
    """sigma = z1 d1^d2 with phi = z1 d2 (x) dzbar1: closure is decided on
    the frame, by pairings."""
    sigma = MVElement.monomial(model, model.z(0), vecs=(0, 1))
    phi = MVElement.monomial(model, model.z(0), vecs=(1,), bars=(0,))
    return HoloPoisson(model, sigma=sigma, phi=phi)


@pytest.mark.parametrize("tmax", [None, 2])
def test_certificates_hand_back_the_frame_they_checked(monkeypatch, tmax):
    checked = []
    check = involutivity_report.check

    def recording(frame, rng, H=None, tmax=None):
        checked.append(frame)
        return check(frame, rng, H=H, tmax=tmax)

    monkeypatch.setattr(involutivity_report, "check",
                        staticmethod(recording))
    rep = _phi_scene(PLAIN).certificates(random.Random(29), tmax=tmax)
    assert rep.checks["closure"] and rep.stats["closure_method"] == "frame"
    assert checked == [rep.frame]
    assert rep.witnesses["involutivity"].stats["route"] == "lagrangian"
    assert rep.frame.lagrangian == {tmax}
    want = build_L_sigma(_phi_scene(PLAIN), tmax=tmax, check=False)
    assert [(g.vec, g.cov) for g in rep.frame] == \
        [(g.vec, g.cov) for g in want]
    # on a parameter model the checked frame carries dt, and none is
    # handed back; the direct route checks no frame
    del checked[:]
    rep = _phi_scene(PARAM).certificates(random.Random(29), tmax=tmax)
    assert len(checked) == 1 and rep.frame is None
    direct = HoloPoisson(PLAIN, sigma=Bivector.wedge_pair(PLAIN, 0, 1,
                                                          PLAIN.z(0)))
    rep = direct.certificates(random.Random(29), tmax=tmax)
    assert rep.stats["closure_method"] == "direct" and rep.frame is None


def test_deformed_structures_builds_the_frame_only_in_its_certificates(
        monkeypatch):
    model = Model(2)
    hp = HoloPoisson(model, sigma=MVElement.monomial(
        model, model.z(0).scale(Scalar(Fraction(1, 2), 1)), vecs=(0, 1)))
    seed = MixedForm.zero(model)
    for k, w in enumerate([Fraction(2), Fraction(1, 3)]):
        seed = seed + MixedForm.monomial(
            model, Poly.const(2, Scalar(0, w / 2)), (k,), (k,))
    ds = hitchin.solve_hitchin(hp, seed, 3, mode="real")
    built = []
    original = poisson.build_L_sigma

    def counted(*args, **kwargs):
        built.append(kwargs.get("tmax"))
        return original(*args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("deformed_structures built L_sigma itself")

    monkeypatch.setattr(poisson, "build_L_sigma", counted)
    monkeypatch.setattr(hitchin, "build_L_sigma", refused)
    rep = hitchin.deformed_structures(ds.eps, hp, random.Random(31), tmax=3)
    monkeypatch.undo()
    assert rep.ok and rep.checks["frame_match"]
    assert built == [3]
    assert rep.certificates.frame.lagrangian == {3}
