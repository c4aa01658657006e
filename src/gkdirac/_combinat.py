"""Storage and index gymnastics shared by forms and polyvectors.

:class:`GradedTable` holds the sparse coefficient tables of
:class:`gkdirac.forms.MixedForm` and :class:`gkdirac.multivector.MVElement`
together with everything that does not depend on what a leg means: the
linear structure, coefficient-wise maps, t-series helpers and rendering.
The key layout, the leg names and every sign convention (wedge,
differentials, contraction, conjugation) live in the subclasses.

Two helpers serve every product and sum of these elements.
:class:`Sums` collects the contributions to each coefficient and adds
them with one ``Poly.sum`` per coefficient.  :func:`monomial_pairs` walks
the monomial pairs of a product, and for an operand paired with itself
visits each unordered pair once (see there).
"""
from __future__ import annotations

from itertools import repeat

from .poly import Poly

__all__ = ["GradedTable", "Sums", "insert_index", "merge_indices",
           "monomial_pairs", "remove_index", "wedge_swap"]


class GradedTable:
    """Sparse graded coefficient table.

    ``comps`` maps a degree key (a tuple of leg counts fixed by the
    subclass) to a table ``(I, J) -> Poly`` of nonzero coefficients, with I
    and J strictly increasing index tuples.  Empty tables are never kept,
    so ``not comps`` means zero.  Subclasses set ``_ORIGIN``, the key of
    functions, and ``_legs``, the leg names of a monomial.

    Every operation that adds coefficients builds its result through a
    :class:`Sums` accumulator: the contributions to a coefficient are
    collected first and added by one ``Poly.sum``.  The order in which
    ``comps`` holds its keys and monomials is not part of the value: it
    follows the first appearance of a monomial, and ``render`` and ``==``
    do not read it.
    """

    __slots__ = ("model", "comps")

    def __init__(self, model, comps=None):
        self.model = model
        self.comps: dict = {}
        if comps:
            for key, table in comps.items():
                clean = {ij: c for ij, c in table.items() if c}
                if clean:
                    self.comps[key] = clean

    # -- constructors ----------------------------------------------------
    @classmethod
    def zero(cls, model):
        return cls(model)

    @classmethod
    def function(cls, model, f):
        return cls(model, {cls._ORIGIN: {((), ()): f}})

    @staticmethod
    def _word(model, idx) -> tuple:
        """``idx`` as a tuple, strictly increasing in range(model.n)."""
        idx = tuple(idx)
        if idx != tuple(sorted(set(idx) & set(range(model.n)))):
            raise ValueError(f"index tuple {idx} must be strictly increasing "
                             f"in range({model.n})")
        return idx

    # -- bookkeeping -----------------------------------------------------
    def terms(self):
        for key, table in self.comps.items():
            for ij, c in table.items():
                yield key, ij, c

    def is_zero(self) -> bool:
        return not self.comps

    def __bool__(self):
        return bool(self.comps)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.model == other.model and not (self - other).comps

    def _component(self, key):
        out = type(self)(self.model)
        table = self.comps.get(key)
        if table:
            out.comps[key] = dict(table)
        return out

    # -- linear structure ------------------------------------------------
    @classmethod
    def sum(cls, model, elements, weights=None):
        """The sum of ``elements``; with ``weights``, a parallel iterable
        of ints, the sum of ``w * x``.  One ``Poly.sum`` per coefficient."""
        sums = Sums(cls, model)
        for x, w in zip(elements, repeat(1) if weights is None else weights):
            if x.model != model:
                raise ValueError("mixed models")
            for key, table in x.comps.items():
                for ij, c in table.items():
                    sums.add(key, ij, c, w)
        return sums.finish()

    def __add__(self, other):
        return self._merge(other, 1)

    def __neg__(self):
        return self.map_coeffs(lambda c: -c)

    def __sub__(self, other):
        return self._merge(other, -1)

    def _merge(self, other, w):
        """``self + w * other`` for w = 1 or -1: a copy of the tables of
        ``self``, and one two-term sum per monomial the two share."""
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.model != other.model:
            raise ValueError("mixed models")
        out = type(self)(self.model)
        comps = out.comps
        comps.update((key, dict(table)) for key, table in self.comps.items())
        for key, table in other.comps.items():
            mine = comps.setdefault(key, {})
            for ij, c in table.items():
                prev = mine.get(ij)
                tot = (c if w == 1 else -c) if prev is None else \
                    prev + c if w == 1 else prev - c
                if tot:
                    mine[ij] = tot
                else:
                    del mine[ij]
            if not mine:
                del comps[key]
        return out

    def scale(self, c):
        return self.map_coeffs(lambda v: v.scale(c))

    def map_coeffs(self, fn):
        """Apply ``fn`` to every coefficient, dropping zero results."""
        out = type(self)(self.model)
        for key, table in self.comps.items():
            new = {}
            for ij, c in table.items():
                v = fn(c)
                if v:
                    new[ij] = v
            if new:
                out.comps[key] = new
        return out

    # -- t-series helpers ------------------------------------------------
    def t_coefficient(self, k: int):
        return self.map_coeffs(lambda c: c.t_coefficient(k))

    def t_truncate(self, tmax):
        """Every coefficient mod t^{tmax+1}; ``self`` for None."""
        if tmax is None:
            return self
        return self.map_coeffs(lambda c: c.t_truncate(tmax))

    def t_degree(self) -> int:
        return max((c.t_degree() for _, _, c in self.terms()), default=-1)

    def substitute_t(self, value):
        return self.map_coeffs(lambda c: c.substitute_t(value))

    # -- rendering -------------------------------------------------------
    def render(self) -> str:
        if not self.comps:
            return "0"
        bits = []
        for key in sorted(self.comps):
            table = self.comps[key]
            for (I, J) in sorted(table):
                legs = self._legs(key, I, J)
                mono = "^".join(legs) if legs else "1"
                bits.append(f"[{table[(I, J)].render()}] {mono}")
        return "  +  ".join(bits)

    def __repr__(self):
        return f"{type(self).__name__}<{self.render()}>"


class Sums:
    """Coefficient contributions collected per monomial, each coefficient
    summed once.

    ``add(key, ij, c, w)`` records ``w * c`` (w an int) on the monomial
    ``ij`` of degree key ``key``.  ``finish()`` returns the element of
    class ``cls`` whose coefficient on each monomial is one ``Poly.sum``
    of what was recorded there; a coefficient that cancels is dropped.
    """

    __slots__ = ("cls", "model", "parts")

    def __init__(self, cls, model):
        self.cls = cls
        self.model = model
        self.parts = {}

    def add(self, key, ij, c, w=1):
        # the entry lists its contributions as c1, w1, c2, w2, ...
        entry = self.parts.get((key, ij))
        if entry is None:
            self.parts[key, ij] = [c, w]
        else:
            entry += (c, w)

    def finish(self):
        out = self.cls(self.model)
        comps = out.comps
        n = self.model.n
        for (key, ij), entry in self.parts.items():
            if len(entry) > 2:
                c = Poly.sum(n, entry[::2], entry[1::2])
            else:
                c, w = entry
                if w != 1:
                    c = -c if w == -1 else c.scale(w)
            if c:
                table = comps.get(key)
                if table is None:
                    comps[key] = {ij: c}
                else:
                    table[ij] = c
        return out


def monomial_pairs(a, b, swap):
    """The monomial pairs of a bilinear product of ``a`` and ``b``, as
    tuples ``(w, key1, ij1, c1, key2, ij2, c2)``: the product is the sum of
    ``w`` times the product of the two monomials.

    For ``a is not b`` these are all ordered pairs, with w = 1.  For ``a is
    b`` each unordered pair comes once.  ``swap(key1, key2)`` is the sign s
    with y x = s x y for monomials x, y of those degree keys.  A cross pair
    then stands for x y + y x = (1 + s) x y, and the diagonal x x vanishes
    unless s = 1.  So the pairs with s = -1 are skipped, and the others
    come with w = 2 (cross) or w = 1 (diagonal).
    """
    if a is not b:
        for key1, t1 in a.comps.items():
            for key2, t2 in b.comps.items():
                for ij1, c1 in t1.items():
                    for ij2, c2 in t2.items():
                        yield 1, key1, ij1, c1, key2, ij2, c2
        return
    blocks = list(a.comps.items())
    for x, (key1, t1) in enumerate(blocks):
        for key2, t2 in blocks[x:]:
            if swap(key1, key2) != 1:
                continue
            if t2 is not t1:
                for ij1, c1 in t1.items():
                    for ij2, c2 in t2.items():
                        yield 2, key1, ij1, c1, key2, ij2, c2
                continue
            mons = list(t1.items())
            for y, (ij1, c1) in enumerate(mons):
                yield 1, key1, ij1, c1, key1, ij1, c1
                for ij2, c2 in mons[y + 1:]:
                    yield 2, key1, ij1, c1, key1, ij2, c2


def wedge_swap(key1, key2) -> int:
    """The sign of y ^ x against x ^ y for monomials of degree keys
    ``key1`` and ``key2``: (-1)^{deg x deg y}, every leg counted."""
    return -1 if sum(key1) * sum(key2) % 2 else 1


def insert_index(i: int, idx: tuple):
    """Wedge a single index onto the front of a sorted index tuple.

    Returns ``(sign, new_tuple)`` or ``None`` when the index repeats.
    """
    pos = 0
    for k, j in enumerate(idx):
        if j == i:
            return None
        if j < i:
            pos = k + 1
    return ((-1) ** pos, idx[:pos] + (i,) + idx[pos:])


def merge_indices(a: tuple, b: tuple):
    """Sign and merged tuple for (e_a1^...^e_ap)^(e_b1^...^e_bq).

    Both inputs are strictly increasing.  Each element of ``b`` crosses the
    elements of ``a`` greater than it, so the sign is (-1)^#{(x,y): x>y}.
    """
    if not a:
        return (1, b)
    if not b:
        return (1, a)
    aset = set(a)
    inv = 0
    for y in b:
        if y in aset:
            return None
        inv += sum(1 for x in a if x > y)
    merged = tuple(sorted(a + b))
    return ((-1) ** inv, merged)


def remove_index(idx: tuple, k: int):
    """Drop position k; sign for commuting that leg to the front."""
    return ((-1) ** k, idx[:k] + idx[k + 1:])
