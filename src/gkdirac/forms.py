"""Mixed-degree differential forms on the flat model.

A :class:`MixedForm` stores bigraded components: the (p, q, r) piece is a
table mapping index pairs ``(I, J)`` (strictly increasing tuples) to
polynomial coefficients for the basis monomial

    dt^r ^ dz_I ^ dzbar_J        (r in {0,1}; r = 0 unless the model has a
                                  parameter direction)

The dt leg always sits in front.  The exterior derivative splits as
``d = partial + partial_bar`` (plus a dt term on parameter models);
``partial`` inserts a dz leg at the very front, ``partial_bar`` inserts a
dzbar leg at the front, which costs the sign (-1)^{r+p} to commute into
storage position.  These placement conventions are load-bearing: the
polyvector calculus in :mod:`gkdirac.brackets` is tuned against them.

Storage, the linear structure, t-series helpers and rendering come from
:class:`gkdirac._combinat.GradedTable`; this module holds only the key
layout, the leg names and the sign conventions of forms.

Key facts exercised by the test-suite: d^2 = 0 and its bigraded pieces,
graded commutativity of the wedge, and the Euler homotopy identity
``partial_bar(h(a)) + h(partial_bar(a)) = a`` for (0, q>=1) forms.
"""
from __future__ import annotations

from fractions import Fraction

from ._combinat import (GradedTable, Sums, insert_index, merge_indices,
                        monomial_pairs, remove_index, wedge_swap)
from .model import Model
from .poly import Poly
from .scalars import Scalar

__all__ = [
    "MixedForm",
    "dz",
    "dzbar",
    "dt_leg",
    "euler_homotopy",
]


class MixedForm(GradedTable):
    __slots__ = ()

    # keys are (p, q, r): p dz legs, q dzbar legs, r dt legs
    _ORIGIN = (0, 0, 0)

    @classmethod
    def monomial(cls, model, coeff: Poly, holo=(), anti=(), dt: bool = False):
        """Build coeff * dt^r ^ dz_holo ^ dzbar_anti (indices 0-based,
        strictly increasing, below n)."""
        if dt and not model.param:
            raise ValueError("dt leg on a model without parameter direction")
        holo, anti = cls._word(model, holo), cls._word(model, anti)
        return cls(model, {(len(holo), len(anti), 1 if dt else 0):
                           {(holo, anti): coeff}})

    def total_degrees(self):
        return sorted({p + q + r for (p, q, r) in self.comps})

    def component(self, p, q, r=0) -> "MixedForm":
        return self._component((p, q, r))

    def coefficient(self, holo=(), anti=(), dt=False) -> Poly:
        key = (len(holo), len(anti), 1 if dt else 0)
        table = self.comps.get(key, {})
        return table.get((tuple(holo), tuple(anti)), Poly.zero(self.model.n))

    @staticmethod
    def _legs(key, I, J):
        return ((["dt"] if key[2] else []) + [f"dz{i+1}" for i in I]
                + [f"dzb{j+1}" for j in J])

    def poly_mul(self, f: Poly, tmax=None) -> "MixedForm":
        return self.map_coeffs(lambda v: v.mul(f, tmax=tmax))

    # -- wedge -----------------------------------------------------------
    def wedge(self, other: "MixedForm", tmax=None) -> "MixedForm":
        """The wedge product; a form wedged with itself walks each
        unordered pair of monomials once (see :func:`monomial_pairs`)."""
        if self.model != other.model:
            raise ValueError("mixed models")
        out = Sums(MixedForm, self.model)
        for w, (p1, q1, r1), (I1, J1), c1, (p2, q2, r2), (I2, J2), c2 \
                in monomial_pairs(self, other, wedge_swap):
            if r1 + r2 > 1:
                continue
            mi = merge_indices(I1, I2)
            if mi is None:
                continue
            mj = merge_indices(J1, J2)
            if mj is None:
                continue
            (si, I), (sj, J) = mi, mj
            # move dt of the second factor to the front (it crosses p1+q1
            # legs) and the second factor's dz block past the first
            # factor's dzbar block
            if ((p1 + q1) * r2 + q1 * p2) % 2:
                w = -w
            out.add((p1 + p2, q1 + q2, r1 + r2), (I, J),
                    c1.mul(c2, tmax=tmax), w * si * sj)
        return out.finish()

    # -- conjugation -----------------------------------------------------
    def conj(self) -> "MixedForm":
        """Complex conjugate: swaps dz_I with dzbar_I, conjugates coefficients.

        Re-sorting the swapped legs into storage order costs (-1)^{pq}.
        """
        out = MixedForm(self.model)
        for (p, q, r), table in self.comps.items():
            flip = p * q % 2
            out.comps[q, p, r] = {(J, I): -c.conj() if flip else c.conj()
                                  for (I, J), c in table.items()}
        return out

    def is_real(self) -> bool:
        return not (self - self.conj()).comps

    def real_part(self) -> "MixedForm":
        return (self + self.conj()).scale(Scalar(Fraction(1, 2)))

    def imag_part(self) -> "MixedForm":
        return (self - self.conj()).scale(Scalar(0, Fraction(-1, 2)))

    # -- exterior derivative ---------------------------------------------
    def partial(self) -> "MixedForm":
        """The dz-part of d: inserts a dz leg at the very front."""
        return self._d(holo=True)

    def partial_bar(self) -> "MixedForm":
        """The dzbar-part of d: inserts a dzbar leg at the very front.

        Commuting it past dt^r and the p dz legs costs (-1)^{r+p}.
        """
        return self._d(anti=True)

    def d(self) -> "MixedForm":
        return self._d(holo=True, anti=True, param=True)

    def _d(self, holo=False, anti=False, param=False) -> "MixedForm":
        """The chosen parts of d, in one accumulator."""
        out = Sums(MixedForm, self.model)
        n = self.model.n
        param = param and self.model.param
        for (p, q, r), table in self.comps.items():
            for (I, J), c in table.items():
                for i in range(n) if holo else ():
                    res = insert_index(i, I)
                    dc = res and c.d_z(i)
                    if dc:
                        # dz crosses the dt leg
                        out.add((p + 1, q, r), (res[1], J), dc,
                                res[0] * (-1) ** r)
                for j in range(n) if anti else ():
                    res = insert_index(j, J)
                    dc = res and c.d_zbar(j)
                    if dc:
                        out.add((p, q + 1, r), (I, res[1]), dc,
                                res[0] * (-1) ** (r + p))
                if param and not r:
                    dc = c.d_t()
                    if dc:
                        out.add((p, q, 1), (I, J), dc)
        return out.finish()

    # -- contraction -----------------------------------------------------
    def contract_vector(self, vec) -> "MixedForm":
        """Interior product with a tangent vector.

        ``vec`` is a sequence of Polys over the model's frame legs
        (d/dz_1..d/dz_n, d/dzbar_1..d/dzbar_n[, d/dt]).  Antiderivation with
        the dt leg in front, then dz legs, then dzbar legs.
        """
        model = self.model
        n = model.n
        vec = list(vec)
        if len(vec) != model.dim:
            raise ValueError("vector has wrong number of components")
        out = Sums(MixedForm, model)
        for (p, q, r), table in self.comps.items():
            for (I, J), c in table.items():
                # dt leg first
                if r and model.param and vec[2 * n]:
                    out.add((p, q, 0), (I, J), c.mul(vec[2 * n]))
                # dz legs: cross dt^r then k-1 earlier dz legs
                for k, i in enumerate(I):
                    if vec[i]:
                        s, I2 = remove_index(I, k)
                        out.add((p - 1, q, r), (I2, J), c.mul(vec[i]),
                                s * (-1) ** r)
                # dzbar legs: cross dt^r, p dz legs, l-1 earlier dzbar legs
                for l, j in enumerate(J):
                    if vec[n + j]:
                        s, J2 = remove_index(J, l)
                        out.add((p, q - 1, r), (I, J2), c.mul(vec[n + j]),
                                s * (-1) ** (r + p))
        return out.finish()


# -- leg builders --------------------------------------------------------

def dz(model: Model, i: int) -> MixedForm:
    return MixedForm.monomial(model, model.poly(1), holo=(i,))


def dzbar(model: Model, j: int) -> MixedForm:
    return MixedForm.monomial(model, model.poly(1), anti=(j,))


def dt_leg(model: Model) -> MixedForm:
    return MixedForm.monomial(model, model.poly(1), dt=True)


# -- Euler homotopy ------------------------------------------------------

def euler_homotopy(a: MixedForm) -> MixedForm:
    """Homotopy inverse of partial_bar on (0, q>=1) forms with polynomial
    coefficients.

    Contract with the radial antiholomorphic field E = sum zbar_j d/dzbar_j
    and divide each zbar-homogeneous piece of total weight m+q by m+q, where
    m is the zbar-degree of the coefficient and q the antiholomorphic form
    degree.  Then partial_bar(h(a)) + h(partial_bar(a)) = a.

    Raises on input with dz or dt legs, or with a (0,0) component.
    """
    model = a.model
    n = model.n
    for (p, q, r) in a.comps:
        if p or r:
            raise ValueError("homotopy defined only for purely antiholomorphic forms")
        if q == 0:
            raise ValueError("homotopy undefined on functions")
    E = [model.zero_poly()] * model.dim
    for j in range(n):
        E[n + j] = model.zbar(j)
    parts = []
    for (p, q, r), table in a.comps.items():
        for (I, J), c in table.items():
            for m, piece in c.zbar_degree_split().items():
                term = MixedForm.monomial(model, piece, holo=I, anti=J)
                contracted = term.contract_vector(E)
                parts.append(contracted.scale(Scalar(Fraction(1, m + q))))
    return MixedForm.sum(model, parts)
