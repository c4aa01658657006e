"""Flat affine model data: dimension, optional parameter direction, points.

A :class:`Model` fixes the complex dimension ``n`` of the affine space and
whether the real parameter ``t`` is treated as an honest coordinate (frames
then carry ``d/dt`` and ``dt`` legs, and the exterior derivative includes a
``dt`` term) or as a purely formal series variable.

Sample points carry exact rational coordinates; evaluation substitutes
``zbar_i`` with the conjugate of ``z_i`` so pointwise data sits on the real
locus of the complexified picture.
"""
from __future__ import annotations

import random

from .poly import Poly
from .scalars import ZERO, _new

__all__ = ["Model", "Point"]

# the numerators a sample coordinate is drawn from
_NUMERATORS = (-4, -3, -2, -1, 1, 2, 3, 4)


class Point:
    __slots__ = ("z", "t")

    def __init__(self, z, t=None):
        self.z = tuple(z)
        self.t = t if t is not None else ZERO

    def __repr__(self):
        zs = ", ".join(str(v) for v in self.z)
        return f"Point({zs}; t={self.t})"


class Model:
    """Affine model C^n, optionally times a real parameter line."""

    __slots__ = ("n", "param")

    def __init__(self, n: int, param: bool = False):
        if n < 1:
            raise ValueError("model needs at least one complex dimension")
        self.n = n
        self.param = bool(param)

    # frame geometry ------------------------------------------------------
    @property
    def dim(self) -> int:
        """Number of tangent-frame legs: dz_i, dzbar_i and (optionally) dt."""
        return 2 * self.n + (1 if self.param else 0)

    def leg_names(self):
        n = self.n
        names = [f"dz{i+1}" for i in range(n)] + [f"dzb{i+1}" for i in range(n)]
        if self.param:
            names.append("dt")
        return names

    def vec_names(self):
        n = self.n
        names = [f"@z{i+1}" for i in range(n)] + [f"@zb{i+1}" for i in range(n)]
        if self.param:
            names.append("@t")
        return names

    # polynomial builders -------------------------------------------------
    def poly(self, c=1) -> Poly:
        return Poly.const(self.n, c)

    def zero_poly(self) -> Poly:
        return Poly.zero(self.n)

    def z(self, i) -> Poly:
        return Poly.z(self.n, i)

    def zbar(self, i) -> Poly:
        return Poly.zbar(self.n, i)

    def t(self) -> Poly:
        return Poly.t(self.n)

    def __eq__(self, other):
        return (
            isinstance(other, Model)
            and self.n == other.n
            and self.param == other.param
        )

    def __hash__(self):
        return hash((self.n, self.param))

    def __repr__(self):
        return f"Model(n={self.n}, param={self.param})"

    # sampling ------------------------------------------------------------
    def origin(self) -> Point:
        """The point z = 0, t = 0, where constant data is read with no
        draw: a constant frame or matrix has the same value everywhere."""
        return Point([ZERO] * self.n)

    def sample_point(self, rng: random.Random, with_t: bool = False) -> Point:
        """A random point with small nonzero rational coordinates: each
        real coordinate is ``num / den``, ``num`` drawn from
        ``_NUMERATORS`` and ``den`` from 1..4, in that order."""
        choice, randint = rng.choice, rng.randint
        zs = []
        for _ in range(self.n):
            x, p = choice(_NUMERATORS), randint(1, 4)
            y, q = choice(_NUMERATORS), randint(1, 4)
            zs.append(_new(x * q, y * p, p * q))
        if with_t or self.param:
            x, p = choice(_NUMERATORS), randint(1, 4)
            return Point(zs, _new(x, 0, p))
        return Point(zs, ZERO)

    def sample_points(self, rng, count=5, with_t=False):
        return [self.sample_point(rng, with_t=with_t) for _ in range(count)]
