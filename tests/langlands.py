"""The group dual from the Langlands classification of SL(2,R), as Knapp states it.

A. W. Knapp, *Representation Theory of Semisimple Groups: An Overview Based on
Examples* (1986), ch. II.  Write the Casimir level as z = nu^2 - 1; the
finite-dimensional module F_n of dimension n then has level n^2 - 1, which
``finite_dimensional_level`` reads off the matrices of ``sl2_matrices``.

* The principal series of parity e (every K-type of parity e, once) at level z
  is irreducible unless nu = +-n0 for an integer n0 >= 0 of the other parity,
  that is z = n0^2 - 1.
* Then its factors are F_n0, with K-types -(n0-1)..n0-1 (when n0 >= 1), and
  the two ladders n0+1, n0+3, ... and -(n0+1), -(n0+3), ...: the discrete
  series for n0 >= 1, the two limits of discrete series for n0 = 0.
* The tempered ones are the principal series with nu imaginary (a real level
  z <= -1), every discrete series and both limits.

Every irreducible module is a factor of a principal series, so the factors of
the two principal series at a level are all the irreducibles there.  Nothing
here reads ``vogan_level``, ``pinned_level``, ``DualParam.canonical``,
``dual_ktypes``, ``is_tempered`` or ``wall_edges``.
"""

from math import isqrt
from typing import List, NamedTuple, Optional

from sl2_matrices import rho_element
from sl2family.pbw import COMPACT, casimir
from sl2family.scalars import GaussianRational as GR


def finite_dimensional_level(n: int) -> GR:
    """The scalar by which the Casimir acts on the irreducible module of dimension n."""
    mat = rho_element(casimir(COMPACT), n - 1)
    z = mat[0][0]
    assert all(mat[i][j] == (z if i == j else 0) for i in range(n) for j in range(n))
    return z


class Module(NamedTuple):
    """An irreducible module: its level, and its K-types as the members of
    ``parity`` from ``least`` to ``greatest`` (None on an unbounded side)."""

    level: GR
    parity: int
    least: Optional[int]
    greatest: Optional[int]
    tempered: bool

    def lowest(self) -> int:
        """The least absolute value of a K-type."""
        if self.least is not None and self.least > 0:
            return self.least
        if self.greatest is not None and self.greatest < 0:
            return -self.greatest
        return self.parity


def wall(z: GR) -> Optional[int]:
    """The n0 >= 0 with z = n0^2 - 1, or None."""
    v = z.re + 1
    if not z.is_real or v.denominator != 1 or v < 0:
        return None
    n0 = isqrt(int(v))
    return n0 if n0 * n0 == v else None


def principal_series(level, parity: int) -> List[Module]:
    """The composition factors of the principal series of the parity at the level."""
    z = GR.of(level)
    n0 = wall(z)
    if n0 is None or n0 % 2 == parity:
        return [Module(z, parity, None, None, z.is_real and z.re <= -1)]
    ladders = [Module(z, parity, n0 + 1, None, True), Module(z, parity, None, -n0 - 1, True)]
    return ladders + ([Module(z, parity, 1 - n0, n0 - 1, False)] if n0 else [])


def group_dual(M: int, grid) -> List[Module]:
    """The modules that ``dual_classes(R, M, grid)`` lists at any R != 0: those
    at a grid level whose lowest K-type is at most 1, and every one whose lowest
    K-type n has 2 <= n <= M (a discrete series, which sits at level (n-1)^2 - 1)."""
    grid = set(map(GR.of, grid))
    levels = grid | {GR(n0 * n0 - 1) for n0 in range(1, M)}
    return [mod for z in levels for parity in (0, 1) for mod in principal_series(z, parity)
            if 2 <= mod.lowest() <= M or (mod.lowest() <= 1 and z in grid)]
