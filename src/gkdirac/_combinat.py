"""Storage and index gymnastics shared by forms and polyvectors.

:class:`GradedTable` holds the sparse coefficient tables of
:class:`gkdirac.forms.MixedForm` and :class:`gkdirac.multivector.MVElement`
together with everything that does not depend on what a leg means: the
linear structure, coefficient-wise maps, t-series helpers and rendering.
The key layout, the leg names and every sign convention (wedge,
differentials, contraction, conjugation) live in the subclasses.
"""
from __future__ import annotations

__all__ = ["GradedTable", "insert_index", "merge_indices", "remove_index"]


class GradedTable:
    """Sparse graded coefficient table.

    ``comps`` maps a degree key (a tuple of leg counts fixed by the
    subclass) to a table ``(I, J) -> Poly`` of nonzero coefficients, with I
    and J strictly increasing index tuples.  Empty tables are never kept,
    so ``not comps`` means zero.  Subclasses set ``_ORIGIN``, the key of
    functions, and ``_legs``, the leg names of a monomial.
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
    def _setterm(self, key, ij, c):
        if not c:
            return
        table = self.comps.setdefault(key, {})
        prev = table.get(ij)
        tot = c if prev is None else prev + c
        if tot:
            table[ij] = tot
        else:
            table.pop(ij, None)
            if not table:
                self.comps.pop(key, None)

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

    def degrees(self):
        return sorted(self.comps.keys())

    def _component(self, key):
        out = type(self)(self.model)
        table = self.comps.get(key)
        if table:
            out.comps[key] = dict(table)
        return out

    # -- linear structure ------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.model != other.model:
            raise ValueError("mixed models")
        out = type(self)(self.model)
        out.comps = {k: dict(t) for k, t in self.comps.items()}
        for key, table in other.comps.items():
            for ij, c in table.items():
                out._setterm(key, ij, c)
        return out

    def __neg__(self):
        return self.map_coeffs(lambda c: -c)

    def __sub__(self, other):
        return self + (-other)

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
