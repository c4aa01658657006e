"""Polyvector storage, wedge signs, and the tensor-evaluation bridges."""
import random
from fractions import Fraction

import pytest

from gkdirac.forms import MixedForm, dz, dzbar, dt_leg
from gkdirac.linalg import mat_apply
from gkdirac.model import Model
from gkdirac.multivector import (
    MVElement,
    bivector_matrix,
    form_from_matrix,
    form_matrix,
    mv_from_bivector_matrix,
    mv_from_endo,
    phi_geom_matrix,
)
from gkdirac.poly import Poly
from gkdirac.scalars import sc


M = Model(2)
MP = Model(2, param=True)


def test_wedge_anticommutes_on_vectors():
    a = MVElement.monomial(M, M.poly(1), vecs=(0,))
    b = MVElement.monomial(M, M.poly(1), vecs=(1,))
    assert (a.wedge(b) + b.wedge(a)).is_zero()
    assert a.wedge(a).is_zero()


def test_wedge_mixed_block_sign():
    # dzbar ^ @z stored as @z ^ dzbar with a minus sign
    w = MVElement.monomial(M, M.poly(1), bars=(0,)).wedge(
        MVElement.monomial(M, M.poly(1), vecs=(0,)))
    assert w.coefficient(vecs=(0,), bars=(0,)).constant_value() == sc(-1)


def test_partial_bar_placement_sign():
    # pbar(f @1) = -(df/dzb_j) @1 ^ dzb_j  (sign (-1)^p with p=1)
    f = M.zbar(0)
    a = MVElement.monomial(M, f, (0,), ())
    got = a.partial_bar()
    assert got.coefficient(vecs=(0,), bars=(0,)).constant_value() == sc(-1)
    # on functions there is no sign
    b = MVElement.function(M, M.zbar(1))
    assert b.partial_bar().coefficient(bars=(1,)).constant_value() == sc(1)


def test_partial_bar_squares_to_zero():
    rng = random.Random(31)
    for _ in range(10):
        a = MVElement.monomial(
            M, M.zbar(0) * M.zbar(1) * M.z(rng.randrange(2)),
            (rng.randrange(2),), ())
        assert a.partial_bar().partial_bar().is_zero()


def test_phi_geom_sign():
    # phi = c * @i ^ dzb_b  reads as  phi_geom(@zb_b) = -c @i
    phi = MVElement.monomial(M, M.poly(3), (1,), (0,))
    Mx = phi_geom_matrix(phi)
    assert Mx[1][0].constant_value() == sc(-3)
    assert mv_from_endo(M, Mx) == phi


def test_bivector_matrix_contraction_convention():
    # sigma = @1^@2: sigma(dz1) = @2 so column 0 is (0,1,0,0) over the
    # full frame
    sigma = MVElement.monomial(M, M.poly(1), (0, 1), ())
    Mx = bivector_matrix(sigma)
    assert len(Mx) == M.dim and all(len(row) == M.dim for row in Mx)
    xi = [M.poly(1)] + [M.zero_poly()] * (M.dim - 1)
    out = mat_apply(Mx, xi)
    assert not out[0] and out[1].constant_value() == sc(1)
    assert not any(out[2:])
    assert mv_from_bivector_matrix(M, Mx) == sigma


def test_form_matrix_roundtrip():
    rng = random.Random(33)
    w = dz(M, 0).wedge(dz(M, 1)).poly_mul(M.z(0)) + \
        dz(M, 0).wedge(dzbar(M, 1)).poly_mul(M.poly(2)) + \
        dzbar(M, 0).wedge(dzbar(M, 1))
    F = form_matrix(w)
    assert form_from_matrix(M, F) == w
    # i_X beta = F X: check against contract_vector on random vectors
    for _ in range(5):
        X = [Poly.const(M.n, sc(rng.randrange(-3, 4), rng.randrange(-3, 4)))
             for _ in range(M.dim)]
        via_matrix = mat_apply(F, X)
        via_contract = w.contract_vector(X)
        for i in range(M.n):
            assert via_contract.coefficient(holo=(i,)) == via_matrix[i]
            assert via_contract.coefficient(anti=(i,)) == via_matrix[M.n + i]


def test_form_matrix_dt_leg():
    w = dt_leg(MP).wedge(dz(MP, 0))
    F = form_matrix(w)
    assert form_from_matrix(MP, F) == w
    # i_{@t}(dt^dz1) = dz1
    X = [MP.zero_poly()] * 4 + [MP.poly(1)]
    out = mat_apply(F, X)
    assert out[0].constant_value() == sc(1)


def test_type_guards():
    vector = MVElement.monomial(M, M.poly(1), vecs=(0,))
    with pytest.raises(ValueError):
        phi_geom_matrix(vector)
    with pytest.raises(ValueError):
        bivector_matrix(vector)


# -- storage shared with MixedForm -------------------------------------------

def _t_series():
    t = MP.t()
    return (MVElement.monomial(MP, t * t + MP.z(1), vecs=(0, 1))
            + MVElement.monomial(MP, t - MP.poly(3), vecs=(0,), bars=(1,)))


def test_render_and_repr_legs():
    s = _t_series()
    expected = ("[(-3+0 i) + (1+0 i)*t] @z1^dzb2  +  "
                "[(1+0 i)*z2 + (1+0 i)*t^2] @z1^@z2")
    assert s.render() == expected
    assert repr(s) == f"MVElement<{expected}>"
    assert MVElement.zero(M).render() == "0"


def test_polyvector_never_equals_form():
    assert (MVElement.zero(M) == MixedForm.zero(M)) is False
    with pytest.raises(TypeError):
        MVElement.zero(M) + MixedForm.zero(M)


def test_cancellation_and_scale():
    x = _t_series()
    assert (x + (-x)).comps == {}
    assert (x - x).is_zero() and not (x - x)
    assert x.scale(2) == x + x
    assert x.scale(Fraction(1, 3)).scale(3) == x
    assert x.scale(0).comps == {}


def test_t_series_helpers():
    s = _t_series()
    one = MP.poly(1)
    assert s.t_degree() == 2
    assert MVElement.zero(MP).t_degree() == -1
    assert s.t_coefficient(1) == MVElement.monomial(MP, one, vecs=(0,),
                                                    bars=(1,))
    assert s.t_coefficient(0) == (
        MVElement.monomial(MP, MP.z(1), vecs=(0, 1))
        + MVElement.monomial(MP, MP.poly(-3), vecs=(0,), bars=(1,)))
    assert s.t_coefficient(3).comps == {}
    assert s.t_truncate(1) == s - MVElement.monomial(
        MP, MP.t() * MP.t(), vecs=(0, 1))
    assert s.t_truncate(0) == s.t_coefficient(0)
    # t = 3 cancels the (1,1) piece entirely: no empty table is left
    at3 = s.substitute_t(sc(3))
    assert at3.comps == {(2, 0): {((0, 1), ()): MP.z(1) + MP.poly(9)}}
    assert at3.render() == "[(9+0 i) + (1+0 i)*z2] @z1^@z2"
