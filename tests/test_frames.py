"""Dirac frame structure: graphs, gauge action, sums, involutivity."""
import random
from fractions import Fraction

import pytest

from gkdirac.forms import MixedForm, dt_leg, dz, dzbar
from gkdirac.frames import (
    _conj_components,
    _conj_operator,
    DiracFrame,
    GVField,
    conj_stack,
    covec_to_form,
    dirac_scale,
    dirac_sum,
    dorfman_bracket,
    form_to_covec,
    frames_equal,
    gauge_frame,
    graph_bivector,
    graph_two_form,
    involutivity_report,
    point_pairing,
    tangent_frame,
)
from gkdirac import frames, linalg
from gkdirac.linalg import mat_add, mat_apply, mat_zero
from gkdirac.model import Model
from gkdirac.multivector import MVElement, bivector_matrix, form_matrix
from gkdirac.poisson import Bivector, HoloPoisson, build_L_sigma
from gkdirac.poly import Poly
from gkdirac.scalars import Scalar, sc


M = Model(2)


def rand_poly(rng, model, nterms=2, maxdeg=2):
    n = model.n
    p = model.zero_poly()
    for _ in range(nterms):
        term = model.poly(Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)))
        for i in range(n):
            for _ in range(rng.randrange(0, maxdeg)):
                term = term * model.z(i)
        for j in range(n):
            for _ in range(rng.randrange(0, maxdeg)):
                term = term * model.zbar(j)
        p = p + term
    return p


def rand_two_form(rng, model, closed=False):
    """A random 2-form; when closed, d(random 1-form)."""
    if closed:
        one = MixedForm.zero(model)
        for i in range(model.n):
            one = one + MixedForm.monomial(model, rand_poly(rng, model), (i,), ())
            one = one + MixedForm.monomial(model, rand_poly(rng, model), (), (i,))
        return one.d()
    out = MixedForm.zero(model)
    n = model.n
    for I in ((0, 1),):
        out = out + MixedForm.monomial(model, rand_poly(rng, model), I, ())
        out = out + MixedForm.monomial(model, rand_poly(rng, model), (), I)
    for i in range(n):
        for j in range(n):
            out = out + MixedForm.monomial(model, rand_poly(rng, model), (i,), (j,))
    return out


def test_covec_form_roundtrip():
    rng = random.Random(301)
    cov = [rand_poly(rng, M) for _ in range(M.dim)]
    assert form_to_covec(covec_to_form(M, cov)) == cov


def test_lie_bracket_jacobi():
    rng = random.Random(303)
    for _ in range(5):
        X, Y, Z = (GVField(M, [rand_poly(rng, M, nterms=1)
                               for _ in range(M.dim)])
                   for _ in range(3))
        lhs = dorfman_bracket(X, dorfman_bracket(Y, Z)).vec
        m1 = dorfman_bracket(dorfman_bracket(X, Y), Z).vec
        m2 = dorfman_bracket(Y, dorfman_bracket(X, Z)).vec
        for a, b, c in zip(lhs, m1, m2):
            assert a == b + c


def test_pairing_isotropy_of_graphs():
    rng = random.Random(307)
    for _ in range(4):
        B = rand_two_form(rng, M)
        fr = graph_two_form(B)
        assert not any(fr.isotropy_defect())
        assert len(fr) == M.dim
    sigma = MVElement.monomial(M, M.z(0), (0, 1), ())
    P = bivector_matrix(sigma)
    fp = graph_bivector(M, P)
    assert not any(fp.isotropy_defect())


def test_tangent_and_cotangent_frames():
    rng = random.Random(311)
    t = tangent_frame(M)
    # the cotangent frame is the graph of the zero bivector; its unrecorded
    # copy is shown Lagrangian by its pairings
    c = graph_bivector(M, mat_zero(M.dim, M.dim, M.n))
    assert not any(t.isotropy_defect()) and not any(c.isotropy_defect())
    rep = involutivity_report.check(t, rng)
    assert rep.ok and rep.stats["rank"] == M.dim
    for frame in (c, DiracFrame(M, c.gens)):
        rep2 = involutivity_report.check(frame, rng)
        assert rep2.ok and rep2.stats["rank"] == M.dim


def test_graph_closed_two_form_involutive():
    rng = random.Random(313)
    B = rand_two_form(rng, M, closed=True)
    rep = involutivity_report.check(graph_two_form(B), rng)
    assert rep.ok


def test_graph_nonclosed_two_form_obstructed():
    rng = random.Random(317)
    # B = z1 dz1^dz2 wedge-closed? dB = dzb/dz parts: d(z1 dz1^dz2) = 0.
    # use B = zb1 dz1^dz2 instead: dB = dzb1^dz1^dz2 != 0
    B = MixedForm.monomial(M, M.zbar(0), (0, 1), ())
    assert not B.d().is_zero()
    rep = involutivity_report.check(graph_two_form(B), rng)
    assert not rep.ok and rep.witnesses["failures"]


def test_gauge_by_closed_form_preserves_involutivity():
    rng = random.Random(319)
    B = rand_two_form(rng, M, closed=True)
    fr = gauge_frame(tangent_frame(M), B)
    rep = involutivity_report.check(fr, rng)
    assert rep.ok
    assert frames_equal(fr, graph_two_form(B), rng)


def test_twisted_involutivity():
    rng = random.Random(323)
    # graph of B with dB = -H is involutive for the H-twisted bracket
    B = MixedForm.monomial(M, M.zbar(0), (0, 1), ())
    H = -B.d()
    rep = involutivity_report.check(graph_two_form(B), rng, H=H)
    assert rep.ok
    rep_untw = involutivity_report.check(graph_two_form(B), rng)
    assert not rep_untw.ok


def test_gauge_composes_additively():
    rng = random.Random(327)
    B1 = rand_two_form(rng, M)
    B2 = rand_two_form(rng, M)
    fr = tangent_frame(M)
    once = gauge_frame(gauge_frame(fr, B1), B2)
    both = gauge_frame(fr, B1 + B2)
    assert frames_equal(once, both, rng)


def _series(rng, model):
    t = model.t()
    return (rand_poly(rng, model) + t * rand_poly(rng, model)
            + t * t * rand_poly(rng, model))


def _twist(rng, model):
    """A 3-form H that reads the t leg on a parameter model."""
    return (dt_leg(model) if model.param else MixedForm.monomial(
        model, model.poly(1), holo=(0,))).wedge(MixedForm.monomial(
            model, _series(rng, model), holo=(0,), anti=(0,)))


def _record_involutivity(monkeypatch, frame, rng, H, tmax):
    """Run the involutivity check of ``frame`` and return its report with
    what it did: the span queries, the bracketed pairs, the calls of
    ``MixedForm.d`` and the vector parts contracted into ``H``."""
    seen = []
    certify = frames.span_certificate

    def recording(span, w, rng):
        seen.append(w)
        return certify(span, w, rng)

    brackets = []
    bracket = frames.dorfman_bracket

    def bracketing(u, v, H=None, tmax=None):
        brackets.append((u, v))
        return bracket(u, v, H=H, tmax=tmax)

    d_calls = []
    d = MixedForm.d

    def counted(self):
        d_calls.append(self)
        return d(self)

    h_calls = []
    contract = MixedForm.contract_vector

    def contracting(self, vec):
        if self is H:
            h_calls.append(vec)
        return contract(self, vec)

    monkeypatch.setattr(frames, "span_certificate", recording)
    monkeypatch.setattr(frames, "dorfman_bracket", bracketing)
    monkeypatch.setattr(MixedForm, "d", counted)
    monkeypatch.setattr(MixedForm, "contract_vector", contracting)
    rep = involutivity_report.check(frame, rng, H=H, tmax=tmax)
    monkeypatch.undo()
    return rep, seen, brackets, d_calls, h_calls


def _random_frame(rng, model):
    """dim generators with random series entries: not isotropic."""
    return DiracFrame(model, [
        GVField(model, [_series(rng, model) for _ in range(model.dim)],
                [_series(rng, model) for _ in range(model.dim)])
        for _ in range(model.dim)])


def _gauged_bivector_graph(rng, model):
    """The graph of a random bivector, gauged by a random 2-form: a
    Lagrangian frame whose vector and covector parts are both series."""
    P = Bivector(model)
    for a in range(model.dim):
        for b in range(a + 1, model.dim):
            P = Bivector(model, mat_add(P.mat, Bivector.wedge_pair(
                model, a, b, _series(rng, model)).mat))
    B = MixedForm.sum(model, [MixedForm.monomial(model, _series(rng, model),
                                                 (i,), (j,))
                              for i in range(model.n)
                              for j in range(model.n)])
    return gauge_frame(graph_bivector(model, P.mat), B)


def _assert_refused(rep, seen, brackets, d_calls, h_calls):
    """A frame that is not Lagrangian: one failed check, the reason as
    its witness, and no bracket, span query, d or i_X H formed."""
    assert rep.checks == {"lagrangian": False} and not rep.ok
    assert rep.witnesses == {"failures": [],
                             "not_lagrangian": "a generator pairing is "
                                               "nonzero"}
    assert rep.stats["route"] == "refused"
    assert rep.stats["lagrangian_proof"] == "pairings"
    assert not (seen or brackets or d_calls or h_calls)


@pytest.mark.parametrize("param, tmax", [(False, None), (True, None),
                                         (True, 1)])
def test_involutivity_brackets_equal_dorfman_bracket_pair_by_pair(
        monkeypatch, param, tmax):
    # random frames are not isotropic, so they are refused and bracket
    # nothing; a gauged bivector graph is Lagrangian
    rng = random.Random(361)
    model = Model(1, param=param)
    H = _twist(rng, model)
    _assert_refused(*_record_involutivity(
        monkeypatch, _random_frame(rng, model), rng, H, tmax))
    model = Model(2, param=param)
    frame = _gauged_bivector_graph(rng, model)
    H = _twist(rng, model)
    rep, seen, brackets, d_calls, h_calls = _record_involutivity(
        monkeypatch, frame, rng, H, tmax)
    assert rep.stats["route"] == "lagrangian"
    # a gauged graph is Lagrangian by construction, and is not paired
    assert rep.stats["lagrangian_proof"] == "construction"
    gens = frame.gens
    r = len(gens)
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r - 1)]
    # every pair goes through the public bracket, and no span query
    assert brackets == [(gens[i], gens[j]) for i, j in pairs]
    assert not seen
    # fresh copies, which have not formed d of their 1-forms yet, give
    # the same failing pairs
    fresh = [GVField(model, g.vec, g.cov) for g in gens]
    want = []
    for i, j in pairs:
        w = dorfman_bracket(fresh[i], fresh[j], H=H, tmax=tmax)
        hit = next(((k, T) for k in range(j + 1, r)
                    for T in [w.pairing(fresh[k], tmax)] if T), None)
        if hit is not None:
            want.append((i, j, hit))
    assert rep.witnesses["failures"] == want
    # d of each bracketed generator's 1-form once, d(eta(X)) once per pair
    assert len(d_calls) == (r - 1) + len(pairs)
    # i_X H once per left generator
    assert h_calls == [g.vec for g in gens[:r - 2]]


@pytest.mark.parametrize("param, tmax", [(False, None), (True, None),
                                         (True, 1)])
def test_involutivity_of_a_lagrangian_frame_brackets_i_lt_j_le_r_minus_2(
        monkeypatch, param, tmax):
    # the graph of a random 2-form is Lagrangian, and on C^2 (x t) it has
    # r = 4 (5) generators
    rng = random.Random(363)
    model = Model(2, param=param)
    B = MixedForm.zero(model)
    for i in range(model.n):
        B = B + MixedForm.monomial(model, _series(rng, model), (i,), (i,))
    if param:
        B = B + dt_leg(model).wedge(
            MixedForm.monomial(model, _series(rng, model), (0,), ()))
    frame = graph_two_form(B)
    H = _twist(rng, model)
    rep, seen, brackets, d_calls, h_calls = _record_involutivity(
        monkeypatch, frame, rng, H, tmax)
    assert rep.stats["route"] == "lagrangian"
    gens = frame.gens
    r = len(gens)
    assert r == model.dim
    # no span query, and brackets only for i < j <= r - 2
    assert not seen
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r - 1)]
    assert brackets == [(gens[i], gens[j]) for i, j in pairs]
    # each bracket is paired with the e_k, k > j, up to the first nonzero
    # entry, and the failing pairs are exactly the nonzero brackets so read
    want = []
    for i, j in pairs:
        w = dorfman_bracket(gens[i], gens[j], H=H, tmax=tmax)
        entries = [(k, w.pairing(gens[k], tmax)) for k in range(j + 1, r)]
        hit = next(((k, T) for k, T in entries if T), None)
        if hit is not None:
            want.append((i, j, hit))
    assert rep.witnesses["failures"] == want
    assert rep.ok == (not want)
    # d of the 1-forms of the r - 1 generators in a bracket, d(eta(X)) once
    # per pair, and i_X H for the left generators e_0 .. e_{r-3}
    assert len(d_calls) == (r - 1) + len(brackets)
    assert h_calls == [g.vec for g in gens[:r - 2]]
    # the same generators with no record are proved by pairings, to the
    # same report
    assert rep.stats["lagrangian_proof"] == "construction"
    again = involutivity_report.check(DiracFrame(model, gens), rng, H=H,
                                      tmax=tmax)
    assert again.stats["lagrangian_proof"] == "pairings"
    assert (again.checks, again.witnesses["failures"]) == \
        (rep.checks, rep.witnesses["failures"])


@pytest.mark.parametrize("param, tmax", [(False, None), (True, None),
                                         (True, 1)])
def test_involutivity_differentiates_each_vector_entry_once(monkeypatch,
                                                           param, tmax):
    # every bracket reads the derivatives d_l of its two generators'
    # vector entries; each is formed once per check, for the generators
    # e_0 .. e_{r-2} that enter a bracket, and none on a refused frame
    rng = random.Random(365)
    refused = _random_frame(rng, Model(1, param=param))
    model = Model(2, param=param)
    frame = _gauged_bivector_graph(rng, model)
    entries = {id(e): e for f in (refused, frame) for g in f.gens
               for e in g.vec if e}
    calls = []
    derivative = Poly.derivative

    def counted(self, index):
        if id(self) in entries:
            calls.append((id(self), index))
        return derivative(self, index)

    monkeypatch.setattr(Poly, "derivative", counted)
    rep = involutivity_report.check(refused, rng, tmax=tmax)
    assert rep.checks == {"lagrangian": False} and not calls
    rep = involutivity_report.check(frame, rng, H=_twist(rng, model),
                                    tmax=tmax)
    monkeypatch.undo()
    assert rep.stats["route"] == "lagrangian"
    assert sorted(calls) == sorted((id(e), l) for g in frame.gens[:-1]
                                   for e in g.vec if e
                                   for l in range(model.dim))


@pytest.mark.parametrize("tmax", [None, 1])
def test_truncated_isotropy_is_decided_mod_the_same_order(tmax):
    # phi = t d2 (x) dzbar1, sigma = (t^2 + z1) d1^d2 + t d2^dzbar1: one
    # pairing of the tmax = 1 frame is t^2, zero mod t^2
    t = M.t()
    phi = MVElement.monomial(M, t, vecs=(1,), bars=(0,))
    sigma = (Bivector.wedge_pair(M, 0, 1, t * t + M.z(0))
             + Bivector.wedge_pair(M, 1, 2, t))
    L = build_L_sigma(HoloPoisson(M, sigma=sigma, phi=phi), tmax=tmax,
                      check=False)
    rep = involutivity_report.check(L, random.Random(367), tmax=tmax)
    assert rep.checks["isotropic"]
    # the truncated frame is isotropic mod t^2 only
    assert not any(p.t_truncate(1) for p in L.isotropy_defect())
    assert (not any(L.isotropy_defect())) == (tmax is None)


def test_frames_equal_pairs_generators_with_no_pivot_search(monkeypatch):
    rng = random.Random(349)
    B1 = rand_two_form(rng, M)
    B2 = rand_two_form(rng, M)
    once = gauge_frame(gauge_frame(tangent_frame(M), B1), B2)
    both = gauge_frame(tangent_frame(M), B1 + B2)
    scaled = DiracFrame(M, [g.scale(k + 2) for k, g in enumerate(both.gens)])
    searches = []
    search = linalg._pivot_block

    def counted(*args, **kwargs):
        searches.append(args[0])
        return search(*args, **kwargs)

    pairs = []
    pairing = GVField.pairing

    def pairing_counted(self, other, tmax=None):
        pairs.append((self, other))
        return pairing(self, other, tmax)

    monkeypatch.setattr(linalg, "_pivot_block", counted)
    monkeypatch.setattr(GVField, "pairing", pairing_counted)
    # gauged tangent frames are Lagrangian by construction, and share
    # their generators: nothing is paired
    assert frames_equal(once, both, rng)
    assert not pairs
    # the same generators with no record: 4 + 3 + 2 + 1 pairings show the
    # first frame isotropic; the second frame's generators are the
    # first's, so no cross pairing is needed
    once_, both_ = (DiracFrame(M, f.gens) for f in (once, both))
    assert frames_equal(once_, both_, rng)
    assert len(pairs) == 10
    assert once_.lagrangian == both_.lagrangian == {None}
    # rescaled generators are new: the recorded frame hosts them in either
    # argument position, the 4 x 4 cross pairings decide, and then the
    # second frame lies in the first and needs no isotropy check
    cross = [(a, b) for a in once.gens for b in scaled.gens]
    assert len(cross) == 16
    for swap in (False, True):
        guest = DiracFrame(M, scaled.gens)
        del pairs[:]
        assert frames_equal(*((guest, once) if swap else (once, guest)), rng)
        assert pairs == cross and guest.lagrangian == {None}
    monkeypatch.undo()
    assert not searches


def test_dirac_scale_and_conjugate():
    rng = random.Random(331)
    B = rand_two_form(rng, M)
    lam = Scalar(Fraction(3, 2))
    scaled = dirac_scale(graph_two_form(B), lam)
    expect = graph_two_form(B.scale(lam))
    assert frames_equal(scaled, expect, rng)
    cj = graph_two_form(B).conj()
    expect_cj = graph_two_form(B.conj())
    assert frames_equal(cj, expect_cj, rng)


def test_dirac_sum_difference_of_graphs():
    rng = random.Random(337)
    B1 = rand_two_form(rng, M)
    B2 = rand_two_form(rng, M)
    # (-1)*graph(B1) + graph(B2) = graph(B2 - B1)
    neg = dirac_scale(graph_two_form(B1), Scalar(-1))
    s = dirac_sum(neg, graph_two_form(B2), rng)
    assert frames_equal(s, graph_two_form(B2 - B1), rng)


def test_dirac_sum_with_tangent_identity():
    rng = random.Random(341)
    B = rand_two_form(rng, M)
    fr = graph_two_form(B)
    s = dirac_sum(fr, tangent_frame(M), rng)
    assert frames_equal(s, fr, rng)


def test_point_dirac_equality_and_rank():
    rng = random.Random(347)
    B = rand_two_form(rng, M)
    fr = graph_two_form(B)
    pt = M.sample_point(rng)
    pd = fr.eval_point(pt)
    assert pd.rank() == M.dim
    assert not any(point_pairing(M, a, b)
                   for a in pd.columns for b in pd.columns)
    assert pd.equals(fr.eval_point(pt))
    assert not pd.equals(tangent_frame(M).eval_point(pt)) or B.is_zero()


def test_point_dirac_isotropy_matches_the_pairing_sum():
    # point_pairing against the plain sum xi(Y) + eta(X) over every column
    # pair of a point subspace
    rng = random.Random(348)
    pt = M.sample_point(rng)
    dim = M.dim
    T = tangent_frame(M)
    mixed = DiracFrame(M, [T.gens[0] + GVField(M, cov=T.gens[1].vec)]
                       + T.gens[1:])
    skew = DiracFrame(M, [T.gens[0] + GVField(M, cov=T.gens[1].vec),
                          T.gens[1] - GVField(M, cov=T.gens[0].vec)])
    verdicts = []
    cotangent = graph_bivector(M, mat_zero(dim, dim, M.n))
    for fr in (T, cotangent, graph_two_form(rand_two_form(rng, M)),
               mixed, skew):
        pd = fr.eval_point(pt)
        sums = [sum((a[dim + i] * b[i] + b[dim + i] * a[i]
                     for i in range(dim)), Scalar(0))
                for a in pd.columns for b in pd.columns]
        pairings = [point_pairing(M, a, b)
                    for a in pd.columns for b in pd.columns]
        assert [not x for x in pairings] == [x.is_zero() for x in sums]
        verdicts.append(not any(pairings))
    assert verdicts == [True, True, True, False, True]


def test_dorfman_leibniz_rule():
    rng = random.Random(349)
    # [u, f v] = f[u, v] + (pi(u) f) v  for the Dorfman bracket
    for _ in range(4):
        u = GVField(M, [rand_poly(rng, M) for _ in range(M.dim)],
                    [rand_poly(rng, M) for _ in range(M.dim)])
        v = GVField(M, [rand_poly(rng, M) for _ in range(M.dim)],
                    [rand_poly(rng, M) for _ in range(M.dim)])
        f = rand_poly(rng, M)
        lhs = dorfman_bracket(u, v.poly_mul(f))
        Xf = M.zero_poly()
        for l in range(M.dim):
            if u.vec[l]:
                d = f.derivative(l)
                if d:
                    Xf = Xf + u.vec[l] * d
        rhs = dorfman_bracket(u, v).poly_mul(f) + v.poly_mul(Xf)
        assert (lhs - rhs).is_zero()


def test_dorfman_bracket_on_a_parameter_model_keeps_the_dt_slot():
    pm = Model(1, param=True)
    t = pm.t()
    zero = pm.zero_poly()
    u = GVField(pm, vec=[zero, zero, t * t])          # t^2 d/dt
    v = GVField(pm, cov=[zero, zero, t])              # t dt
    # d(v(u)) = d(t^3) = 3 t^2 dt
    assert dorfman_bracket(u, v, tmax=2).cov[2] == t * t * Scalar(3)


@pytest.mark.parametrize("param", [False, True])
def test_truncated_dorfman_bracket_is_the_exact_one_truncated(param):
    rng = random.Random(353)
    model = Model(1, param=param)
    dim = model.dim

    def series():
        return (rand_poly(rng, model) + model.t() * rand_poly(rng, model)
                + model.t() * model.t() * rand_poly(rng, model))

    H = None
    if param:
        H = dt_leg(model).wedge(MixedForm.monomial(
            model, series(), holo=(0,), anti=(0,)))
    for _ in range(3):
        u = GVField(model, [series() for _ in range(dim)],
                    [series() for _ in range(dim)])
        v = GVField(model, [series() for _ in range(dim)],
                    [series() for _ in range(dim)])
        exact = dorfman_bracket(u, v, H=H)
        for k in range(5):
            got = dorfman_bracket(u, v, H=H, tmax=k)
            assert (got - exact.t_truncate(k)).is_zero(), k


def std_hermitian_form(model):
    """(i/2) sum_k dz_k ^ dzbar_k (the flat positive form)."""
    out = MixedForm.zero(model)
    for k in range(model.n):
        out = out + MixedForm.monomial(
            model, model.poly(Scalar(0, Fraction(1, 2))), (k,), (k,))
    return out


def test_pointwise_intersection_of_tangent_and_cotangent():
    pt = M.origin()
    tangent = tangent_frame(M).eval_point(pt)
    cotangent = graph_bivector(M, mat_zero(M.dim, M.dim, M.n)).eval_point(pt)
    assert tangent.intersect(cotangent).rank() == 0
    assert tangent.rank() == cotangent.rank() == M.dim


def test_symplectic_type_meets_conjugate_trivially():
    rng = random.Random(353)
    L = graph_two_form(std_hermitian_form(M).scale(sc(0, 1)))
    for pt in M.sample_points(rng, count=4):
        pd = L.eval_point(pt)
        # the conjugate frame's value is the pointwise conjugate of L's:
        # Poly.eval reads zbar as conj(z), and t is real
        conj = L.conj().eval_point(pt)
        assert conj.columns == [conj_stack(M, c) for c in pd.columns]
        assert pd.intersect(conj).rank() == 0


def test_intersection_dimension_matches_anchor_image():
    # dim(L1 cap L2) = dim((L2 - L1) cap T) pointwise on graph pairs
    rng = random.Random(359)
    for _ in range(3):
        B1 = rand_two_form(rng, M)
        B2 = rand_two_form(rng, M)
        L1, L2 = graph_two_form(B1), graph_two_form(B2)
        diff = dirac_sum(dirac_scale(L1, Scalar(-1)), L2, rng)
        for pt in M.sample_points(rng, count=3):
            lhs = L1.eval_point(pt).intersect(L2.eval_point(pt)).rank()
            rhs = diff.eval_point(pt).intersect(
                tangent_frame(M).eval_point(pt)).rank()
            assert lhs == rhs


def test_point_conjugation_fixes_real_graphs():
    rng = random.Random(367)
    B = rand_two_form(rng, M)
    B = B + B.conj()  # force a real form
    L = graph_two_form(B)
    for pt in M.sample_points(rng, count=3):
        pd = L.eval_point(pt)
        assert L.conj().eval_point(pt).equals(pd)


def _conj_operator_reference(model, M):
    """The former operator conjugation: an index swap and a fresh zero
    matrix over the ring of ``M``."""
    n, dim = model.n, len(M)

    def sw(k):
        if k < n:
            return k + n
        if k < 2 * n:
            return k - n
        return k

    out = [[Poly.zero(M[0][0].n) for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            if M[i][j]:
                out[sw(i)][sw(j)] = M[i][j].conj()
    return out


def _conj_components_reference(model, comps):
    n = model.n
    out = [c.conj() for c in comps]
    swapped = out[n:2 * n] + out[:n]
    if model.param:
        swapped.append(out[2 * n])
    return swapped


@pytest.mark.parametrize("param", [False, True])
def test_leg_conjugation_keeps_its_former_outputs(param):
    rng = random.Random(71)
    model = Model(2, param=param)
    dim = model.dim
    for _ in range(4):
        col = [rand_poly(rng, model) + model.t() * rand_poly(rng, model)
               for _ in range(dim)]
        assert _conj_components(model, col) == \
            _conj_components_reference(model, col)
        mat = [[rand_poly(rng, model) for _ in range(dim)]
               for _ in range(dim)]
        assert _conj_operator(model, mat) == \
            _conj_operator_reference(model, mat)
        # an operator over more variables than the model keeps its ring
        wide = [[rand_poly(rng, Model(3)) for _ in range(dim)]
                for _ in range(dim)]
        assert _conj_operator(model, wide) == \
            _conj_operator_reference(model, wide)
    pt = model.sample_point(rng)
    stack = [c.eval(pt) for c in col + col[::-1]]
    assert conj_stack(model, stack) == (
        _conj_components_reference(model, stack[:dim])
        + _conj_components_reference(model, stack[dim:]))
