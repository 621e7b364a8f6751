"""The motion dual from the Mackey machine: orbits in p* and their stabilizers.

The fiber at infinity is a module of the Cartan motion algebra k ⋉ p, with
p abelian.  Mackey's description of its irreducibles takes a K-orbit of a
character xi of p and an irreducible representation chi of the stabilizer
K_xi, and induces.  By Frobenius reciprocity the induced module holds the
K-type n exactly when n restricts to chi on K_xi, each once.

Everything here comes from the compact triple of ``sl2_matrices`` and the
rescaled Casimir section at infinity; nothing reads ``vogan_level``,
``dual_ktypes`` or ``DualParam.canonical``.

* A character xi of p is the pair (x, y) = (xi(X), xi(Y)) of its values on
  the raising and lowering generators.  ad H scales X and Y by the weights
  ``WEIGHTS``, so K_C = C^x moves (x, y) to (t^2 x, t^-2 y): a nonzero xi has
  the stabilizer {t : t^g = 1}, g the gcd of the weights of its nonzero
  coordinates (g = 2), and xi = 0 has all of K (g = 0 below).
* The level is the value of the rescaled Casimir R^2 * Casimir at R = 0,
  which is ``CASIMIR_XY`` * Y X there: so a level z != 0 is the one orbit
  x * y = z / CASIMIR_XY.  An isotropic xi != 0 (x * y = 0) gives no
  irreducible: one of X, Y acts by 0 and the image of the other is a proper
  submodule.  So level 0 is the zero orbit alone.
* K ⋉ p is amenable, so its tempered irreducibles are its unitary ones: the
  orbits of an xi with imaginary values on the real form of p.  With the
  real form of the matrix model (real matrices, sigma = entrywise conjugation,
  and sigma(X) = Y), a real element of p is a X + conj(a) Y, so xi is unitary
  when y = -conj(x), and its level CASIMIR_XY * x * y = -CASIMIR_XY * |x|^2.
  That is the normalization the tables use: the tempered levels are the real
  z <= 0 (z = 0 being the characters of K).
"""

from fractions import Fraction
from math import gcd

from sl2_matrices import TRIPLES_2X2, mat_bracket
from sl2family.scalars import GaussianRational as GR
from sl2family.sheaf import CHART_INFINITY, casimir_section

_Y, _H, _X = TRIPLES_2X2["compact"]


def _weight(h, a) -> GR:
    """w with [h, a] = w a, read off a nonzero entry of a."""
    bracket = mat_bracket(h, a)
    j, k = next((j, k) for j in range(2) for k in range(2) if a[j][k])
    w = GR.of(bracket[j][k]) / GR.of(a[j][k])
    assert all(GR.of(bracket[r][s]) == w * a[r][s] for r in range(2) for s in range(2))
    return w


WEIGHTS = {"X": _weight(_H, _X), "Y": _weight(_H, _Y)}


def real_form_swaps_ladders() -> bool:
    """Whether sigma (entrywise conjugation) takes X to Y, as the unitary
    locus y = -conj(x) below needs."""
    conj = [[GR(GR.of(v).re, -GR.of(v).im) for v in row] for row in _X]
    return conj == [[GR.of(v) for v in row] for row in _Y]


def _casimir_xy() -> GR:
    """The coefficient of Y X in the rescaled Casimir at R = 0, the only term
    left there; the Cartan terms carry a positive power of R."""
    at_zero = {mono: f.coeff(0) for mono, f in casimir_section(CHART_INFINITY).terms.items()
               if f.coeff(0)}
    assert list(at_zero) == [(1, 0, 1)], at_zero
    return at_zero[(1, 0, 1)]


CASIMIR_XY = _casimir_xy()


def orbit_point(level) -> tuple:
    """A representative (x, y) of the orbit of the given level."""
    z = GR.of(level)
    return (GR(0), GR(0)) if not z else (z / CASIMIR_XY, GR(1))


def stabilizer_order(xi: tuple) -> int:
    """g with K_xi = {t : t^g = 1}; 0 when K_xi is all of K."""
    g = 0
    for value, w in zip(xi, (WEIGHTS["X"], WEIGHTS["Y"])):
        if value:
            assert w.is_real and w.den == 1
            g = gcd(g, w.re_num)
    return g


class MotionModule:
    """The module induced from the orbit of one level and one irreducible
    character n -> n mod g of its stabilizer."""

    def __init__(self, level, chi: int) -> None:
        self.level = GR.of(level)
        self.g = stabilizer_order(orbit_point(self.level))
        self.chi = chi if self.g == 0 else chi % self.g

    def key(self) -> tuple:
        return self.level, self.g, self.chi

    def has_ktype(self, n: int) -> bool:
        """Frobenius reciprocity: n restricts to chi on the stabilizer."""
        return n == self.chi if self.g == 0 else n % self.g == self.chi

    @property
    def is_finite(self) -> bool:
        return self.g == 0

    def minimal_ktypes(self) -> set:
        """The members of least absolute value."""
        if self.g == 0:
            return {self.chi}
        members = [n for n in range(-self.g, self.g + 1) if self.has_ktype(n)]
        least = min(map(abs, members))
        return {n for n in members if abs(n) == least}

    def is_tempered(self) -> bool:
        """Whether the orbit meets the unitary characters: a real level of the
        sign of -CASIMIR_XY |x|^2, or the zero orbit."""
        z = self.level
        return z.is_real and (not z or z.re * CASIMIR_XY.re < 0)


def modules_at(level) -> list:
    """Every irreducible module at a nonzero level: one per stabilizer character."""
    g = stabilizer_order(orbit_point(level))
    assert g, "the zero orbit has a character for every integer"
    return [MotionModule(level, chi) for chi in range(g)]


def module_named(level, m: int):
    """The module that the parameter (level, m)_0 names, or None when no
    module at that level has m as a minimal K-type."""
    z = GR.of(level)
    if not z:
        return MotionModule(z, m)
    for mod in modules_at(z):
        if m in mod.minimal_ktypes():
            return mod
    return None


LEVEL_GRID = (0, 1, -1, 2, Fraction(-9, 4), Fraction(1, 2), 3,
              GR(1, 1), GR(0, -1), GR(-2, 1), GR(0, Fraction(3, 2)))
