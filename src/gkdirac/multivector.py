"""Polyvector fields valued in d/dz and dzbar legs, plus matrix bridges.

An :class:`MVElement` lives in the exterior algebra generated by the
holomorphic coordinate vector fields d/dz_i and the antiholomorphic
coordinate 1-forms dzbar_j.  The (p, q) component is a table
``(I, J) -> Poly`` for monomials

    f * (d/dz_I) ^ dzbar_J          (vector legs stored first)

Storage, the linear structure, t-series helpers and rendering come from
:class:`gkdirac._combinat.GradedTable`; this module holds only the key
layout, the leg names and the sign conventions of polyvectors.

Degree bookkeeping: an element concentrated in (p, q) has weight p + q - 1
for the graded bracket in :mod:`gkdirac.brackets`.

Tensor-evaluation convention (load-bearing!): when a (1,1) element phi is
read as a bundle map T_{0,1} -> T_{1,0}, the dzbar leg is contracted
*through* the vector leg, which costs a sign; concretely

    phi_geom(d/dzbar_b) = - sum_i phi[i, b] d/dz_i

where phi[i, b] is the stored coefficient of (d/dz_i)^dzbar_b.  All graph
frames and involutivity statements downstream assume exactly this reading.

Bivector matrices: a bivector (or any 2-vector in the full complexified
tangent) is stored as an antisymmetric matrix M over the frame legs with

    (M xi)^k = sum_l M[k][l] xi_l,   c * e_a ^ e_b (a<b)  =>  M[b][a] = +c,

so that contraction follows i_xi(X^Y) = xi(X) Y - xi(Y) X.  This leg
matrix is what :class:`gkdirac.poisson.Bivector` holds and what the
form-side calculus of :mod:`gkdirac.brackets` takes.  Exactly two functions
cross between it and a (2,0) element: :func:`bivector_matrix` (element to
matrix) and :func:`mv_from_bivector_matrix` (matrix to element, for the
polyvector bracket).  Two-form matrices F follow the mirrored rule
(i_X beta = F X as a covector), making operator strings like beta.sigma
compositions plain matrix products.
"""
from __future__ import annotations

from ._combinat import (GradedTable, Sums, insert_index, merge_indices,
                        monomial_pairs, wedge_swap)
from .linalg import mat_zero
from .model import Model
from .poly import Poly

__all__ = [
    "MVElement",
    "phi_geom_matrix",
    "mv_from_endo",
    "bivector_matrix",
    "mv_from_bivector_matrix",
    "form_matrix",
    "form_from_matrix",
]


class MVElement(GradedTable):
    __slots__ = ()

    # keys are (p, q): p vector legs, q dzbar legs
    _ORIGIN = (0, 0)

    @classmethod
    def monomial(cls, model, coeff: Poly, vecs=(), bars=()):
        """Build coeff * (d/dz_vecs) ^ dzbar_bars (indices 0-based,
        strictly increasing, below n)."""
        vecs, bars = cls._word(model, vecs), cls._word(model, bars)
        return cls(model, {(len(vecs), len(bars)): {(vecs, bars): coeff}})

    def component(self, p, q) -> "MVElement":
        return self._component((p, q))

    def coefficient(self, vecs=(), bars=()) -> Poly:
        key = (len(vecs), len(bars))
        return self.comps.get(key, {}).get(
            (tuple(vecs), tuple(bars)), Poly.zero(self.model.n))

    @staticmethod
    def _legs(key, I, J):
        return [f"@z{i+1}" for i in I] + [f"dzb{j+1}" for j in J]

    def poly_mul(self, f: Poly, tmax=None) -> "MVElement":
        return self.map_coeffs(lambda v: v.mul(f, tmax=tmax))

    # -- wedge -----------------------------------------------------------
    @staticmethod
    def _wedge_monomial(I1, J1, I2, J2):
        """``(sign, (p, q), (I, J))`` with (d/dz_I1 ^ dzbar_J1) ^ (d/dz_I2 ^
        dzbar_J2) = sign (d/dz_I ^ dzbar_J), or None when a leg repeats.

        The sign is (-1)^{|J1| |I2|}, for moving the dzbar legs of the
        first word past the vector legs of the second, times the sort signs
        of the merged vector and dzbar words.
        """
        mi = merge_indices(I1, I2)
        if mi is None:
            return None
        mj = merge_indices(J1, J2)
        if mj is None:
            return None
        (si, I), (sj, J) = mi, mj
        sign = -si * sj if len(J1) * len(I2) % 2 else si * sj
        return sign, (len(I), len(J)), (I, J)

    def wedge(self, other: "MVElement", tmax=None) -> "MVElement":
        """The wedge product; an element wedged with itself walks each
        unordered pair of monomials once (see :func:`monomial_pairs`)."""
        if self.model != other.model:
            raise ValueError("mixed models")
        out = Sums(MVElement, self.model)
        for w, _, (I1, J1), c1, _, (I2, J2), c2 in monomial_pairs(
                self, other, wedge_swap):
            term = self._wedge_monomial(I1, J1, I2, J2)
            if term is not None:
                sign, key, ij = term
                out.add(key, ij, c1.mul(c2, tmax=tmax), w * sign)
        return out.finish()

    # -- dzbar differential ----------------------------------------------
    def partial_bar(self) -> "MVElement":
        """dzbar-differential; the new leg lands in front of the dzbar block,
        behind the p vector legs, hence the (-1)^p placement sign."""
        out = Sums(MVElement, self.model)
        n = self.model.n
        for (p, q), table in self.comps.items():
            for (I, J), c in table.items():
                for j in range(n):
                    res = insert_index(j, J)
                    if res is None:
                        continue
                    dc = c.d_zbar(j)
                    if dc:
                        out.add((p, q + 1), (I, res[1]), dc,
                                res[0] * (-1) ** p)
        return out.finish()


# -- tensor-evaluation bridges ------------------------------------------

def phi_geom_matrix(phi: MVElement):
    """Bundle-map matrix of a (1,1) element: column b holds the components
    of phi_geom(d/dzbar_b) in the d/dz frame.  Includes the evaluation sign.
    """
    model = phi.model
    n = model.n
    for key in phi.comps:
        if key != (1, 1):
            raise ValueError("phi must be purely of type (1,1)")
    M = mat_zero(n, n, n)
    for ((i,), (b,)), c in phi.comps.get((1, 1), {}).items():
        M[i][b] = M[i][b] - c
    return M


def mv_from_endo(model: Model, M) -> MVElement:
    """Inverse of :func:`phi_geom_matrix`."""
    n = model.n
    return MVElement(model, {(1, 1): {((i,), (b,)): -M[i][b]
                                      for i in range(n) for b in range(n)
                                      if M[i][b]}})


def bivector_matrix(sigma: MVElement):
    """Antisymmetric leg matrix of a (2,0) element, over the full frame."""
    model = sigma.model
    for key in sigma.comps:
        if key != (2, 0):
            raise ValueError("input must be purely of type (2,0)")
    M = mat_zero(model.dim, model.dim, model.n)
    for ((i, j), _), c in sigma.comps.get((2, 0), {}).items():
        M[j][i] = M[j][i] + c
        M[i][j] = M[i][j] - c
    return M


def mv_from_bivector_matrix(model: Model, M) -> MVElement:
    """Read the holomorphic-holomorphic block of a leg matrix back into a
    (2,0) element (entries outside that block are ignored)."""
    n = model.n
    return MVElement(model, {(2, 0): {((i, j), ()): M[j][i]
                                      for i in range(n)
                                      for j in range(i + 1, n)}})


def form_matrix(beta):
    """Leg matrix F of a 2-form (MixedForm of total degree 2, no dt unless
    the model has one): i_X beta = F X as a covector column.

    Legs are ordered dz_1..dz_n, dzbar_1..dzbar_n[, dt]; the dt leg of a
    stored monomial sits in front, which flips its sign relative to the
    tail position it occupies in the leg order.
    """
    model = beta.model
    n = model.n
    F = mat_zero(model.dim, model.dim, n)

    def put(a, b, c):
        # c * e_a ^ e_b with a < b in leg order
        F[b][a] = F[b][a] + c
        F[a][b] = F[a][b] - c

    for (p, q, r), table in beta.comps.items():
        if p + q + r != 2:
            raise ValueError("form must be homogeneous of total degree 2")
        for (I, J), c in table.items():
            if r == 0:
                if p == 2:
                    put(I[0], I[1], c)
                elif p == 1 and q == 1:
                    put(I[0], n + J[0], c)
                else:
                    put(n + J[0], n + J[1], c)
            else:
                # dt ^ e_a = - e_a ^ dt, dt is the last leg (index 2n)
                leg = I[0] if p == 1 else n + J[0]
                put(leg, 2 * n, -c)
    return F


def form_from_matrix(model: Model, F):
    """Inverse of :func:`form_matrix` (antisymmetry is asserted)."""
    from .forms import MixedForm

    n = model.n
    m = len(F)
    out = Sums(MixedForm, model)
    for a in range(m):
        for b in range(a + 1, m):
            c = F[b][a]
            if (F[a][b] + c):
                raise ValueError("matrix is not antisymmetric")
            if not c:
                continue
            if b < n:
                out.add((2, 0, 0), ((a, b), ()), c)
            elif a < n <= b < 2 * n:
                out.add((1, 1, 0), ((a,), (b - n,)), c)
            elif n <= a and b < 2 * n:
                out.add((0, 2, 0), ((), (a - n, b - n)), c)
            elif b == 2 * n:
                # c * e_a ^ dt = -c * dt ^ e_a
                if a < n:
                    out.add((1, 0, 1), ((a,), ()), c, -1)
                else:
                    out.add((0, 1, 1), ((), (a - n,)), c, -1)
    return out.finish()
