"""Exterior algebra sanity: wedge signs, d^2 = 0, conjugation, homotopy."""
import random
from fractions import Fraction

import pytest

from gkdirac.forms import MixedForm, dz, dzbar, dt_leg, euler_homotopy
from gkdirac.model import Model
from gkdirac.multivector import MVElement
from gkdirac.poly import Poly
from gkdirac.scalars import Scalar, sc


M = Model(2)
M3 = Model(3)
MP = Model(2, param=True)


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
        if model.param and rng.random() < 0.5:
            term = term * model.t()
        p = p + term
    return p


def rand_form(rng, model, pq_choices, nterms=2):
    out = MixedForm.zero(model)
    n = model.n
    for _ in range(nterms):
        p, q = pq_choices[rng.randrange(len(pq_choices))]
        I = tuple(sorted(rng.sample(range(n), p)))
        J = tuple(sorted(rng.sample(range(n), q)))
        dt = model.param and rng.random() < 0.4
        out = out + MixedForm.monomial(model, rand_poly(rng, model), I, J, dt=dt)
    return out


def test_wedge_basic_signs():
    a = dz(M, 0)
    b = dz(M, 1)
    ab = a.wedge(b)
    ba = b.wedge(a)
    assert ab == -ba
    assert ab.coefficient(holo=(0, 1)).constant_value() == sc(1)


def test_wedge_mixed_storage_sign():
    # dzbar1 ^ dz1 stored as dz1^dzbar1 with a minus sign
    w = dzbar(M, 0).wedge(dz(M, 0))
    assert w.coefficient(holo=(0,), anti=(0,)).constant_value() == sc(-1)
    w2 = dz(M, 0).wedge(dzbar(M, 0))
    assert w2.coefficient(holo=(0,), anti=(0,)).constant_value() == sc(1)


def test_wedge_graded_commutativity():
    rng = random.Random(3)
    choices = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
    for _ in range(25):
        a = rand_form(rng, M3, choices)
        b = rand_form(rng, M3, choices)
        for (p1, q1, r1) in list(a.comps):
            for (p2, q2, r2) in list(b.comps):
                ac = a.component(p1, q1, r1)
                bc = b.component(p2, q2, r2)
                d1 = p1 + q1 + r1
                d2 = p2 + q2 + r2
                lhs = ac.wedge(bc)
                rhs = bc.wedge(ac).scale((-1) ** (d1 * d2))
                assert lhs == rhs


def test_wedge_associative():
    rng = random.Random(5)
    choices = [(1, 0), (0, 1), (1, 1)]
    for _ in range(15):
        a = rand_form(rng, M3, choices, nterms=2)
        b = rand_form(rng, M3, choices, nterms=2)
        c = rand_form(rng, M3, choices, nterms=2)
        assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))


def test_d_squared_zero():
    rng = random.Random(7)
    choices = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
    for _ in range(20):
        a = rand_form(rng, M3, choices)
        assert a.d().d().is_zero()
        assert a.partial().partial().is_zero()
        assert a.partial_bar().partial_bar().is_zero()
        mixed = a.partial().partial_bar() + a.partial_bar().partial()
        assert mixed.is_zero()


def test_d_squared_zero_param_model():
    rng = random.Random(9)
    choices = [(0, 0), (1, 0), (0, 1), (1, 1)]
    for _ in range(20):
        a = rand_form(rng, MP, choices)
        assert a.d().d().is_zero()


def test_d_leibniz():
    rng = random.Random(11)
    choices = [(0, 0), (1, 0), (0, 1), (1, 1)]
    for _ in range(15):
        a = rand_form(rng, M, choices, nterms=2)
        b = rand_form(rng, M, choices, nterms=2)
        for (p1, q1, r1) in list(a.comps):
            ac = a.component(p1, q1, r1)
            deg = p1 + q1 + r1
            lhs = ac.wedge(b).d()
            rhs = ac.d().wedge(b) + ac.wedge(b.d()).scale((-1) ** deg)
            assert lhs == rhs


def test_d_param_leg():
    f = MixedForm.function(MP, MP.t() * MP.z(0))
    df = f.d()
    assert df.coefficient(dt=True) == MP.z(0)
    assert df.coefficient(holo=(0,)) == MP.t()


def test_conj_involution_and_wedge():
    rng = random.Random(13)
    choices = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0)]
    for _ in range(15):
        a = rand_form(rng, M, choices)
        b = rand_form(rng, M, choices)
        assert a.conj().conj() == a
        assert a.wedge(b).conj() == a.conj().wedge(b.conj())
        assert a.d().conj() == a.conj().d()


def test_conj_type_swap():
    w = dz(M, 0).wedge(dzbar(M, 1))
    wc = w.conj()
    assert wc.coefficient(holo=(1,), anti=(0,)).constant_value() == sc(-1)


def test_contract_antiderivation():
    rng = random.Random(17)
    choices = [(1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
    for _ in range(15):
        a = rand_form(rng, M, choices, nterms=2)
        b = rand_form(rng, M, choices, nterms=2)
        vec = [rand_poly(rng, M, nterms=1) for _ in range(M.dim)]
        for (p1, q1, r1) in list(a.comps):
            ac = a.component(p1, q1, r1)
            deg = p1 + q1 + r1
            lhs = ac.wedge(b).contract_vector(vec)
            rhs = ac.contract_vector(vec).wedge(b) + ac.wedge(
                b.contract_vector(vec)).scale((-1) ** deg)
            assert lhs == rhs


def test_contract_basic():
    # i_{d/dz1}(dz1^dz2) = dz2 ; i_{d/dz2}(dz1^dz2) = -dz1
    w = dz(M, 0).wedge(dz(M, 1))
    e1 = [M.poly(1), M.zero_poly(), M.zero_poly(), M.zero_poly()]
    e2 = [M.zero_poly(), M.poly(1), M.zero_poly(), M.zero_poly()]
    assert w.contract_vector(e1) == dz(M, 1)
    assert w.contract_vector(e2) == -dz(M, 0)


def test_contract_dt():
    w = dt_leg(MP).wedge(dz(MP, 0))
    et = [MP.zero_poly()] * 4 + [MP.poly(1)]
    assert w.contract_vector(et) == dz(MP, 0)
    e1 = [MP.poly(1)] + [MP.zero_poly()] * 4
    got = w.contract_vector(e1)
    assert got == dt_leg(MP).scale(-1)


def test_euler_homotopy_identity():
    rng = random.Random(19)
    for n, model in ((2, M), (3, M3)):
        for _ in range(12):
            q = rng.randrange(1, n + 1)
            J = tuple(sorted(rng.sample(range(n), q)))
            a = MixedForm.monomial(model, rand_poly(rng, model), (), J)
            if a.is_zero():
                continue
            h = euler_homotopy(a)
            db = a.partial_bar()
            recovered = h.partial_bar() + (euler_homotopy(db) if db else MixedForm.zero(model))
            assert recovered == a


def test_euler_homotopy_rejects_bad_input():
    with pytest.raises(ValueError):
        euler_homotopy(MixedForm.function(M, M.z(0)))
    with pytest.raises(ValueError):
        euler_homotopy(dz(M, 0))


# -- storage shared with MVElement ------------------------------------------

def test_render_and_repr_with_dt_leg():
    a = (MixedForm.monomial(MP, MP.z(0) * MP.t() + MP.poly(2), (1,), (0,),
                            dt=True)
         + MixedForm.function(MP, MP.zbar(1)))
    expected = ("[(1+0 i)*zb2] 1  +  "
                "[(2+0 i) + (1+0 i)*z1*t] dt^dz2^dzb1")
    assert a.render() == expected
    assert repr(a) == f"MixedForm<{expected}>"
    assert MixedForm.zero(M).render() == "0"


def test_form_never_equals_polyvector():
    from gkdirac.multivector import MVElement

    assert (MixedForm.zero(M) == MVElement.zero(M)) is False
    assert (MixedForm.function(M, M.poly(1))
            == MVElement.function(M, M.poly(1))) is False
    with pytest.raises(TypeError):
        MixedForm.zero(M) + MVElement.zero(M)


def test_cancellation_leaves_no_empty_tables():
    rng = random.Random(23)
    x = rand_form(rng, MP, [(1, 0), (0, 1), (1, 1)], nterms=3)
    assert x
    s = x + (-x)
    assert s.comps == {}
    assert s.is_zero() and not s
    d = dz(M, 0) + dz(M, 1)
    assert (d - dz(M, 0)).comps == {(1, 0, 0): {((1,), ()): M.poly(1)}}


def test_scale_accepts_int_and_fraction():
    a = dz(M, 0).poly_mul(M.z(1)) + dzbar(M, 1)
    assert a.scale(2) == a + a
    assert a.scale(Fraction(1, 2)).scale(2) == a
    assert a.scale(0).comps == {}
    assert a.scale(Scalar(0, 1)).scale(Scalar(0, 1)) == -a


@pytest.mark.parametrize("word", [(0, 0), (1, 0), (2,), (-1,), (0, 5)])
@pytest.mark.parametrize("build", [
    lambda w: MixedForm.monomial(M, M.poly(1), holo=w),
    lambda w: MixedForm.monomial(M, M.poly(1), anti=w),
    lambda w: MVElement.monomial(M, M.poly(1), vecs=w),
    lambda w: MVElement.monomial(M, M.poly(1), bars=w),
], ids=["holo", "anti", "vecs", "bars"])
def test_monomial_rejects_bad_leg_words(build, word):
    # a repeated, unsorted, negative or too large index names no leg of C^2
    with pytest.raises(ValueError, match="strictly increasing"):
        build(word)


@pytest.mark.parametrize("build", [
    lambda w: MixedForm.monomial(M, M.poly(1), holo=w),
    lambda w: MixedForm.monomial(M, M.poly(1), anti=w),
    lambda w: MVElement.monomial(M, M.poly(1), vecs=w),
    lambda w: MVElement.monomial(M, M.poly(1), bars=w),
], ids=["holo", "anti", "vecs", "bars"])
def test_monomial_accepts_every_leg_word_of_the_model(build):
    for word in [(), (0,), (1,), (0, 1)]:
        assert not build(word).is_zero()
