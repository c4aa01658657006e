"""Graded brackets: polyvector dgLa, form-side Koszul calculus, transport.

The differential graded Lie algebra lives on elements of
``Lambda^(T_{1,0} (+) T*_{0,1})`` (see :mod:`gkdirac.multivector`), graded by
exterior degree minus one.  On the flat model every basis leg is constant,
so the bracket of two monomials reduces to anchor derivatives: the anchor
sends d/dz_i to the coordinate derivative d/dz_i and kills dzbar legs.  For
monomials f*theta_A, g*theta_B with ordered leg words A, B (vector legs
first) the bracket is

  sum_k (-1)^{|A|-k} f (D_{a_k} g) theta_{A\\a_k} ^ theta_B
  + (-1)^{(|B|-1)|A|} sum_k (-1)^k g (D_{b_k} f) theta_{B\\b_k} ^ theta_A

with 1-based leg positions k and D the anchor derivative.  Restricted to
vector legs only this is the Schouten bracket; on two vector fields it is
the Lie bracket; against a function it gives [P, h] = -P(dh).

On the form side, a bivector sigma induces the generator
``delta = i_sigma d - d i_sigma`` and the derived bracket

  [a, b]_sigma = a ^ delta(b) - (-1)^k delta(a ^ b) + (-1)^k delta(a) ^ b

for a of total degree k.  Contraction with a decomposable bivector X^Y is
``i_Y i_X``, so i_{d/dz1 ^ d/dz2}(dz1^dz2) = +1; on 1-forms the derived
bracket then reproduces

  [xi, eta]_sigma = -( L_{sigma xi} eta - L_{sigma eta} xi - d sigma(xi,eta) ).

``pi_star`` replaces each dz leg by -sigma(dz) and keeps dzbar legs; it
intertwines d with (partial_bar + [sigma, .]) and is an exact bracket
morphism, which is what makes the two Maurer-Cartan residuals below agree
on transported data.

Self-brackets.  An operand paired with itself (the trigger is ``a is b``,
nothing else) visits each unordered pair of monomials once, by graded
symmetry (see :func:`gkdirac._combinat.monomial_pairs`):

* [y, x] = -(-1)^{|x||y|} [x, y], with |x| the exterior degree minus one,
  so in ``dgla_bracket(a, a)`` a cross pair counts twice when both
  monomials have even exterior degree and not at all otherwise, and only
  monomials of even exterior degree bracket with themselves;
* y ^ x = (-1)^{deg x deg y} x ^ y, dt legs counted, so in ``a.wedge(a)``
  a cross pair counts twice when deg x deg y is even and not at all
  otherwise;
* in ``koszul_bracket(a, a)`` with a homogeneous of the degree k passed
  (or found), delta(a) ^ a = (-1)^{(k-1)k} a ^ delta(a) = a ^ delta(a), so
  the third term is (-1)^k times the first.  Without that homogeneity
  guard the identity fails, and every other input takes the three terms.

Every coefficient of a result is one ``Poly.sum`` of its contributions
(:class:`gkdirac._combinat.Sums`); the values are those of the full route.

The form-side functions (``interior_bivector``, ``delta_sigma``,
``koszul_bracket``, ``mc_residual_koszul`` and ``pi_star``) take sigma as
its full-frame leg matrix ``S`` (see "Bivector matrices" in
:mod:`gkdirac.multivector`), the matrix a :class:`~gkdirac.poisson.Bivector`
holds in ``.mat``; only the polyvector side (``dgla_bracket``,
``mc_residual_dgla``) takes sigma as a (2,0) :class:`MVElement`.
"""
from __future__ import annotations

from ._combinat import Sums, monomial_pairs
from .forms import MixedForm
from .model import Model
from .multivector import MVElement

__all__ = [
    "dgla_bracket",
    "interior_bivector",
    "delta_sigma",
    "koszul_bracket",
    "pi_star",
    "mc_residual_koszul",
    "mc_residual_dgla",
    "unit_vector",
]


def _dgla_swap(key1, key2) -> int:
    """The sign s with [y, x] = s [x, y] for monomials of degree keys
    ``key1`` and ``key2``: s = -(-1)^{|x| |y|}, |x| = exterior degree - 1."""
    return 1 if (sum(key1) - 1) * (sum(key2) - 1) % 2 else -1


def dgla_bracket(a: MVElement, b: MVElement, tmax=None) -> MVElement:
    if a.model != b.model:
        raise ValueError("mixed models")
    out = Sums(MVElement, a.model)
    # d/dz_leg of each coefficient, computed once per call and keyed by the
    # monomial (I, J) and the leg; one cache per operand, since ``a`` and
    # ``b`` may hold different coefficients on the same monomial, and one
    # shared cache for a self-bracket
    da = {}
    db = da if a is b else {}
    for w, (p1, q1), (I1, J1), f, (p2, q2), (I2, J2), g in monomial_pairs(
            a, b, _dgla_swap):
        lenA = p1 + q1
        # legs of A differentiate g; only vector legs (which occupy the
        # first p1 positions of the word) survive
        if I1:
            _add_leg_terms(out, w * (-1) ** lenA,
                           I1, J1, f, I2, J2, g, db, tmax)
        # legs of B differentiate f, target word theta_{B\b_k}^theta_A
        if I2:
            _add_leg_terms(out, w * (-1) ** ((p2 + q2 - 1) * lenA),
                           I2, J2, g, I1, J1, f, da, tmax)
    return out.finish()


def _add_leg_terms(out, sign0, I, J, f, I2, J2, g, dcache, tmax):
    """Record ``sum_k sign0 (-1)^k f (d_{i_k} g) theta_{(I,J) - i_k} ^
    theta_(I2,J2)`` in the accumulator ``out``, one ``add`` per term.

    ``sign0`` is the bracket's k-free sign times the pair's weight; the
    wedge's sign and target key come from ``MVElement._wedge_monomial`` on
    the leg tuples, so no element is built per term.  ``dcache`` holds the
    derivatives of ``g``.
    """
    for k, i in enumerate(I, start=1):
        term = MVElement._wedge_monomial(I[:k - 1] + I[k:], J, I2, J2)
        if term is None:
            continue
        dg = dcache.get((I2, J2, i))
        if dg is None:
            dg = dcache[(I2, J2, i)] = g.d_z(i)
        if dg:
            sign, key, ij = term
            out.add(key, ij, f.mul(dg, tmax=tmax), sign * sign0 * (-1) ** k)


# ---------------------------------------------------------------------------
# Form-side calculus driven by a bivector
# ---------------------------------------------------------------------------

def unit_vector(model: Model, leg: int):
    v = [model.zero_poly() for _ in range(model.dim)]
    v[leg] = model.poly(1)
    return v


def interior_bivector(form: MixedForm, S, tmax=None) -> MixedForm:
    """i_sigma with i_{X^Y} = i_Y i_X, extended bilinearly from sigma's
    leg matrix ``S``.

    A monomial's legs sit in its stored word: dt in front, then the dz
    legs, then the dzbar legs.  Each pair of its legs a < b, in the leg
    order dz.., dzbar.., dt of ``S``, adds S[b][a] i_{e_b} i_{e_a} of it:
    removing e_a at word position u and then e_b, at position v before the
    removal, costs (-1)^{u + v - [u < v]}.
    """
    model = form.model
    n = model.n
    out = Sums(MixedForm, model)
    for (_p, _q, r), table in form.comps.items():
        for (I, J), c in table.items():
            word = (2 * n,) * r + I + tuple(n + j for j in J)
            for u, a in enumerate(word):
                for v, b in enumerate(word):
                    if b <= a or not S[b][a]:
                        continue
                    rest = [x for k, x in enumerate(word) if k != u and k != v]
                    I2 = tuple(x for x in rest if x < n)
                    J2 = tuple(x - n for x in rest if n <= x < 2 * n)
                    out.add((len(I2), len(J2), len(rest) - len(I2) - len(J2)),
                            (I2, J2), c.mul(S[b][a], tmax=tmax),
                            (-1) ** (u + v - (u < v)))
    return out.finish()


def delta_sigma(form: MixedForm, S, tmax=None) -> MixedForm:
    """The degree -1 generator i_sigma d - d i_sigma, for sigma's leg
    matrix ``S``."""
    return interior_bivector(form.d(), S, tmax=tmax) \
        - interior_bivector(form, S, tmax=tmax).d()


def koszul_bracket(alpha: MixedForm, beta: MixedForm, S, deg=None,
                   tmax=None) -> MixedForm:
    """Derived bracket [alpha, beta]_sigma for sigma's leg matrix ``S``;
    ``alpha`` must be homogeneous (or pass deg)."""
    if deg is None:
        degs = alpha.total_degrees()
        if len(degs) != 1:
            raise ValueError("alpha must be homogeneous; pass deg explicitly")
        deg = degs[0]
    sgn = (-1) ** deg
    dbeta = delta_sigma(beta, S, tmax=tmax)
    term1 = alpha.wedge(dbeta, tmax=tmax)
    term2 = delta_sigma(alpha.wedge(beta, tmax=tmax), S, tmax=tmax)
    if alpha is beta and alpha.total_degrees() == [deg]:
        # delta(alpha) ^ alpha = (-1)^{(deg-1) deg} alpha ^ delta(alpha),
        # so term3 = sgn * term1
        return MixedForm.sum(alpha.model, (term1, term2), (1 + sgn, -sgn))
    dalpha = dbeta if alpha is beta else delta_sigma(alpha, S, tmax=tmax)
    term3 = dalpha.wedge(beta, tmax=tmax)
    return MixedForm.sum(alpha.model, (term1, term2, term3), (1, -sgn, sgn))


# ---------------------------------------------------------------------------
# Transport between the two complexes
# ---------------------------------------------------------------------------

def pi_star(form: MixedForm, S, tmax=None) -> MVElement:
    """Replace every dz leg by -sigma(dz) and reinterpret dzbar legs as
    polyvector legs.  No compensating sign: the leg substitution is taken
    in the stored leg order.  Only the dz x dz block of sigma's leg matrix
    ``S`` is read, so sigma is taken to be of type (2,0)."""
    model = form.model
    n = model.n
    minus_cols = []
    for a in range(n):
        comp = {}
        for k in range(n):
            c = S[k][a]
            if c:
                comp[((k,), ())] = -c
        minus_cols.append(MVElement(model, {(1, 0): comp} if comp else None))
    parts = []
    for (p, q, r), table in form.comps.items():
        if r:
            raise ValueError("transport undefined on dt legs")
        for (I, J), c in table.items():
            acc = MVElement.function(model, c)
            for i in I:
                acc = acc.wedge(minus_cols[i], tmax=tmax)
            if not acc:
                continue
            bar_leg = MVElement.monomial(model, model.poly(1), bars=J)
            parts.append(acc.wedge(bar_leg, tmax=tmax))
    return MVElement.sum(model, parts)


def mc_residual_koszul(omega: MixedForm, S, tmax=None) -> MixedForm:
    """d omega + (1/2)[omega, omega]_sigma (form-side flatness residual),
    for sigma's leg matrix ``S``."""
    from fractions import Fraction
    out = omega.d() + koszul_bracket(omega, omega, S, deg=2,
                                     tmax=tmax).scale(Fraction(1, 2))
    return out.t_truncate(tmax)


def mc_residual_dgla(eps: MVElement, sigma: MVElement, tmax=None) -> MVElement:
    """partial_bar(eps) + [sigma, eps] + (1/2)[eps, eps] for the background
    bivector sigma (assumed holomorphic Poisson)."""
    from fractions import Fraction
    out = eps.partial_bar() + dgla_bracket(sigma, eps, tmax=tmax) \
        + dgla_bracket(eps, eps, tmax=tmax).scale(Fraction(1, 2))
    return out.t_truncate(tmax)
