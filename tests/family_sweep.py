"""A sweep over validated families: every table row the constructor accepts
for m from -8 to 8 and a spread of Casimir polynomials, with the points at
which to look at each.

Each polynomial is taken once with its K-types inferred and once with the
K-types given in every shape; the given sets the constructor accepts must
be the inferred one.  The polynomials are constant (on the wall levels
k(k+2) up to k = 10 and off them), linear, quadratic and non-real, plus
seeded quadratics of which half take a wall level at a rational point.
"""

import random
from fractions import Fraction

from sl2family.families import FamilyValidationError, KTypeSet, ModuleFamily
from sl2family.fibers import reducibility_points
from sl2family.scalars import GaussianRational as GR
from sl2family.scalars import Poly
from sl2family.sheaf import ProjectivePoint

I = GR(0, 1)
CONSTANTS = [-4, -1, 0, Fraction(1, 2), 2, 3, 5, 8, 15, 24, 35, 48, 63, 80, 99, 120]
LINEAR = [[0, 1], [2, -3], [-1, Fraction(1, 2)], [8, 4]]
QUADRATIC = [[-1, 0, 1], [-1, 0, -4], [0, 0, 1], [3, 2, Fraction(-1, 2)], [8, 0, 1],
             [-1, 0, Fraction(1, 4)], [24, -10, 1]]
NON_REAL = [[I], [-1, 0, I], [I, 1], [1 + I, 0, 2]]
RATIONAL_POINTS = ["r=1", "r=-1/2", "r=3", "r=2/3"]


def seeded_quadratics(count: int = 24):
    rng = random.Random(1706)

    def q() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 3))

    for i in range(count):
        c2, c1, c0 = q() or 1, q(), q()
        if i % 2:  # c(r0) = k(k+2) at a rational r0
            k, r0 = rng.randint(-1, 8), q()
            c0 = k * (k + 2) - c2 * r0 * r0 - c1 * r0
        yield [c0, c1, c2]


def casimirs():
    for c in [[v] for v in CONSTANTS] + LINEAR + QUADRATIC + NON_REAL + list(seeded_quadratics()):
        yield Poly(tuple(GR.of(x) for x in c), "r")


def shapes(m: int):
    """Every K-type set of the sweep's rows, and the singleton at m."""
    yield KTypeSet.all_even()
    yield KTypeSet.all_odd()
    yield from (KTypeSet.window(k) for k in range(11))
    for d in range(-8, 9):
        yield KTypeSet.ray_up(d)
        yield KTypeSet.ray_down(d)
    yield KTypeSet.singleton(m)


def validated_families():
    """Every family of the sweep, each built from its inferred K-types; of
    the given K-type sets, the constructor accepts exactly that one."""
    fams = []
    for m in range(-8, 9):
        for c in casimirs():
            try:
                fams.append(ModuleFamily(m, None, c))
                want = [fams[-1]]
            except FamilyValidationError:
                want = []
            given = []
            for kt in shapes(m):
                try:
                    given.append(ModuleFamily(m, kt, c))
                except FamilyValidationError:
                    pass
            assert given == want, (m, str(c))
    return fams


def sweep_points(fam: ModuleFamily):
    """inf, r = 0, a few rational points and, for a real c(r), its locus."""
    pts = [ProjectivePoint.parse(t) for t in ["inf", "r=0", *RATIONAL_POINTS]]
    if all(fam.casimir.coeff(k).is_real for k in range(3)):
        pts += reducibility_points(fam).points
    return list(dict.fromkeys(pts))
