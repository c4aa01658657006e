"""Sample points of the flat model."""
import random
from fractions import Fraction

from gkdirac.model import Model
from gkdirac.scalars import ZERO, Scalar


def _former_sample_point(model, rng, with_t=False):
    """``Model.sample_point`` as it was written before it built its
    coordinates from ints: the same draws, through two Fractions per
    coordinate."""

    def frac():
        num = rng.choice([x for x in range(-4, 5) if x != 0])
        den = rng.randint(1, 4)
        return Fraction(num, den)

    zs = [Scalar(frac(), frac()) for _ in range(model.n)]
    tval = Scalar(frac(), 0) if (with_t or model.param) else ZERO
    return zs, tval


def _exact(s):
    return (type(s), s.a, s.b, s.d)


def test_sample_point_keeps_its_former_points_and_draws():
    for seed in range(40):
        for n in (1, 2, 3):
            for param in (False, True):
                for with_t in (False, True):
                    model = Model(n, param=param)
                    new, old = random.Random(seed), random.Random(seed)
                    for _ in range(3):
                        pt = model.sample_point(new, with_t=with_t)
                        zs, tval = _former_sample_point(model, old, with_t)
                        assert [_exact(z) for z in pt.z] == \
                            [_exact(z) for z in zs]
                        assert _exact(pt.t) == _exact(tval)
                    # the generator is left where the former code left it
                    assert new.getstate() == old.getstate()


def test_sample_points_are_nonzero_small_rationals():
    rng = random.Random(5)
    for pt in Model(2, param=True).sample_points(rng, count=50):
        for v in (*pt.z, pt.t):
            for part in (v.re, v.im):
                assert part == 0 or (abs(part.numerator) <= 4
                                     and 1 <= part.denominator <= 4)
            assert v.re != 0
