"""Constant frames are decided at the origin, with no random draw.

The flat models of the paper are mostly constant complex Dirac structures:
the flat Kahler pair T_{0,1} + T*_{1,0} with graph(i omega), its sign flips,
the tangent frame, and every member of a family whose frames depend on t
alone.  A constant frame is the same at every point, so its ranks,
intersections, Gram minors and refusal witnesses are exact at the origin.
Here every such scene gives one answer under every seed, draws no sample
point, and agrees with the former five-point route; a frame that is not
constant still samples.
"""
import random
from fractions import Fraction
from unittest import mock

from hypothesis import given, strategies as st

from gkdirac import genkahler
from gkdirac.forms import MixedForm
from gkdirac.frames import DiracFrame, GVField, graph_two_form, tangent_frame
from gkdirac.genkahler import gc_from_dirac, gk_check, gk_deform_family
from gkdirac.model import Model
from gkdirac.poly import Poly
from gkdirac.scalars import Scalar

GK = "generalized kahler"


class _CountingModel(Model):
    """A model that counts the points drawn from it."""

    __slots__ = ("draws",)

    def __init__(self, n):
        super().__init__(n)
        self.draws = 0

    def sample_point(self, rng, with_t=False):
        self.draws += 1
        return super().sample_point(rng, with_t=with_t)


def _hermitian(model, weights, tpower=0):
    """(i/2) sum_k w_k t^p dz_k ^ dzbar_k."""
    out = MixedForm.zero(model)
    for k, w in enumerate(weights):
        coeff = Poly.const(model.n, Scalar(0, Fraction(w) / 2))
        if tpower:
            coeff = coeff * Poly.t(model.n, tpower)
        out = out + MixedForm.monomial(model, coeff, (k,), (k,))
    return out


def _complex_type_frame(model):
    """T_{0,1} (+) T*_{1,0}."""
    gens = []
    for b in range(model.n):
        v = [model.zero_poly() for _ in range(model.dim)]
        v[model.n + b] = model.poly(1)
        gens.append(GVField(model, vec=v))
    for a in range(model.n):
        c = [model.zero_poly() for _ in range(model.dim)]
        c[a] = model.poly(1)
        gens.append(GVField(model, cov=c))
    return DiracFrame(model, gens, label="complex-type")


def _kahler_pair(model, omega):
    return (_complex_type_frame(model),
            graph_two_form(omega.scale(Scalar(0, 1))))


_weight = st.builds(Fraction, st.integers(1, 5), st.integers(1, 3))
_gauss = st.builds(Scalar, st.integers(-4, 4).filter(bool),
                   st.integers(-4, 4))


@st.composite
def _scenes(draw):
    """``(kind, L1, L2, F, model)`` for one constant scene kind of the
    benchmark, F the family form of ``flat_family`` (else None)."""
    kind = draw(st.sampled_from(["flat", "sign_flip", "tangent",
                                 "flat_family"]))
    model = _CountingModel(draw(st.sampled_from([2, 3])))
    if kind == "tangent":
        # the tangent frame with itself, its generators rescaled
        frame = DiracFrame(model, [g.scale(draw(_gauss))
                                   for g in tangent_frame(model).gens])
        return kind, frame, frame, None, model
    weights = [draw(_weight) for _ in range(model.n)]
    if kind == "sign_flip":
        weights[-1] = -weights[-1]
    L1, L2 = _kahler_pair(model, _hermitian(model, weights))
    F = None
    if kind == "flat_family":
        # ratios up to 5 keep the pencil 1 + t r_k positive at |t| <= 1/8
        ratios = [draw(_weight) for _ in range(model.n)]
        F = _hermitian(model, [r * w for r, w in zip(ratios, weights)],
                       tpower=1)
    return kind, L1, L2, F, model


def _outputs(L1, L2, F, rng):
    """Everything a check and its family report, the exact outputs
    rendered and points by their repr."""
    rep = gk_check(L1, L2, rng)
    out = [rep.verdict, rep.conditions, rep.witnesses, rep.stats]
    pair = rep.pair
    if pair is not None:
        out += [pair.sigma_plus.sigma.render(),
                pair.sigma_minus.sigma.render(),
                [rp.pi.render() if rp is not None else None
                 for rp in (pair.pi1, pair.pi2)],
                [(repr(pt), minors) for pt, minors in pair.gram_samples]]
    if F is not None:
        fam = gk_deform_family(pair, F, rng, tmax=3)
        out += [fam.checks, fam.stats, fam.checked, fam.det_roots,
                fam.sigma_plus_family.sigma.render()]
    return out


def _former_sample_points(model, rng, frames):
    """The five-point draw that ``_sample_points`` made for every frame."""
    with_t = any(genkahler._frame_uses_t(f) for f in frames)
    return model.sample_points(rng, count=5, with_t=with_t), "sampled"


@given(scene=_scenes(),
       seeds=st.lists(st.integers(0, 2 ** 32), min_size=2, max_size=2,
                      unique=True))
def test_constant_scenes_give_one_answer_and_draw_nothing(scene, seeds):
    kind, L1, L2, F, model = scene
    first, second = (_outputs(L1, L2, F, random.Random(s)) for s in seeds)
    assert first == second
    assert model.draws == 0
    verdict, conditions, witnesses, stats = first[:4]
    assert stats["points_route"] == "constant" and stats["points"] == 1
    if kind == "tangent":
        assert verdict == "not generalized kahler"
        assert set(witnesses) == {"real_structure_first",
                                  "real_structure_second",
                                  "holomorphic_plus", "holomorphic_minus"}
        origin = repr(model.origin())
        assert all(origin in w for w in witnesses.values())
    elif kind == "sign_flip":
        assert verdict == "degenerate generalized kahler"
        assert not conditions["positivity"]
    else:
        assert verdict == GK
        assert len(first[7]) == 1  # one Gram sample, at the origin
    if F is not None:
        fam_checks, fam_stats, checked = first[8:11]
        assert all(fam_checks.values())
        assert [v for _t, _c, v in checked] == [GK] * 3
        assert fam_stats["points_route"] == "constant"
        assert fam_stats["points"] == 1


@given(scene=_scenes(), seed=st.integers(0, 2 ** 32))
def test_constant_scenes_agree_with_the_five_point_route(scene, seed):
    _kind, L1, L2, F, _model = scene
    rep = gk_check(L1, L2, random.Random(seed))
    with mock.patch.object(genkahler, "_sample_points",
                           _former_sample_points), \
            mock.patch.object(genkahler, "_is_t_only", lambda A: False):
        ref = gk_check(L1, L2, random.Random(seed))
        ref_fam = (gk_deform_family(ref.pair, F, random.Random(seed), tmax=3)
                   if F is not None else None)
    assert (rep.verdict, rep.conditions) == (ref.verdict, ref.conditions)
    assert ref.stats["points_route"] == "sampled"
    assert set(rep.stats["intersection_ranks"]) == \
        set(ref.stats["intersection_ranks"])
    if F is not None:
        fam = gk_deform_family(rep.pair, F, random.Random(seed), tmax=3)
        assert ref_fam.stats["points"] == 4
        assert fam.checks == ref_fam.checks
        assert fam.checked == ref_fam.checked
        assert fam.stats["t_window"] == ref_fam.stats["t_window"]
        # a pencil of t alone has the same roots at every point
        for tag, roots in fam.det_roots.items():
            if roots is not None:
                assert ref_fam.det_roots[tag] == roots * 4


def test_a_constant_frame_is_checked_at_the_origin_only():
    model = _CountingModel(2)
    _L1, L2 = _kahler_pair(model, _hermitian(model, [1, 2]))
    g = gc_from_dirac(L2, random.Random(3))
    assert [repr(p) for p in g.checked_points] == [repr(model.origin())]
    assert model.draws == 0


def test_a_frame_that_is_not_constant_still_samples():
    # the flat form pulled back by w_2 = z_2 + a z_1^2: the graph frame
    # depends on z, so positivity is read at five sample points
    model = _CountingModel(2)
    one = model.poly(1)
    h = Poly(2, {(2, 0, 0, 0, 0): Scalar(1, 2)})
    dw = (MixedForm.monomial(model, one, (1,), ())
          + MixedForm.monomial(model, h.d_z(0), (0,), ()))
    omega = (dw.wedge(dw.conj()) + MixedForm.monomial(model, one, (0,), (0,))
             ).scale(Scalar(0, Fraction(1, 2)))
    L1, L2 = _kahler_pair(model, omega)
    seen = []

    def positivity(model_, f1, f2, points):
        seen.append(len(points))
        return original(model_, f1, f2, points)

    original = genkahler._positivity
    draws = []
    former = genkahler._sample_points

    def sample_points(model_, rng, frames):
        before = model.draws
        out = former(model_, rng, frames)
        draws.append(model.draws - before)
        return out

    with mock.patch.object(genkahler, "_positivity", positivity), \
            mock.patch.object(genkahler, "_sample_points", sample_points):
        rep = gk_check(L1, L2, random.Random(11))
    assert rep.verdict == GK
    assert rep.stats["points_route"] == "sampled"
    assert rep.stats["points"] == 5
    assert seen == [5] and draws == [5]
    assert len(rep.pair.gram_samples) == 5
