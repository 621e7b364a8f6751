"""Fiberwise analysis of module families: reducibility and factors.

Evaluating a family at a point of the base gives a single ladder module.
Each edge (n, n+2) of its K-type ladder carries exactly one non-unit
ladder coefficient, and the edge is "cut" when that coefficient vanishes.
The coefficient is (level - n(n+2))/4 at a group point, so a level k(k+2)
cuts only the edges at n = k and n = -k-2; at the motion fiber it is c2/4,
so every edge is cut or none is.  The maximal uncut segments are exactly
the composition factors, read off the bounds of the K-type set, and each
is named by a pair (level, minimal K-type) following the admissible-dual
parameter tables for the two fiber types:

  group fiber (finite point, coordinate r):   level = c(r)
  motion fiber (the point at infinity):       level = c2, the eigenvalue
                                              of the rescaled Casimir

In both tables a minimal K-type |m| > 1 fixes the level, to
``fixed_level(flavor, m)``; for |m| <= 1 it is free.  ``boundary_level``
holds the one level where (level, 1) and (level, -1) name two modules:
-1 in the group dual, 0 in the motion dual.  ``DualParam.canonical`` and
``duals.is_tempered`` both read it.

The closed-form Jantzen quotient is implemented independently of the
segment analysis so the two can be compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .families import (
    KTypeSet,
    ModuleFamily,
    in_tilde_class,
    intertwiner_exists,
    ktypes_at,
    ladder_action,
    pinned_level,
    wall_index,
)
from .scalars import GR_ZERO, GaussianRational, rational_sqrt, scalar_to_json
from .sheaf import CHART_FINITE, CHART_INFINITY, ProjectivePoint

GROUP = "group"
MOTION = "motion"


def fixed_level(flavor: str, m: int) -> Optional[int]:
    """The level a minimal K-type |m| > 1 fixes in the dual of the flavor:
    ``pinned_level(m)`` in the group dual, 0 in the motion dual.  None when
    |m| <= 1, where the level is free."""
    if abs(m) <= 1:
        return None
    return pinned_level(m) if flavor == GROUP else 0


def boundary_level(flavor: str) -> int:
    """The level where (level, 1) and (level, -1) stay two modules: -1 in the
    group dual (the two limit rays), 0 in the motion dual (two characters)."""
    return -1 if flavor == GROUP else 0


@dataclass(frozen=True)
class DualParam:
    """A point of an admissible dual: (level, m) plus the fiber flavor.

    Group flavor carries the chart-at-infinity coordinate R of the fiber
    (None for the fiber at r = 0, which the R-coordinate does not reach).
    Validation enforces the dual tables: for |m| > 1 the level is
    ``fixed_level(flavor, m)``.
    """

    flavor: str
    level: GaussianRational
    m: int
    R: Optional[GaussianRational] = None

    def __post_init__(self) -> None:
        if not isinstance(self.level, GaussianRational):
            object.__setattr__(self, "level", GaussianRational(self.level))
        if self.R is not None and not isinstance(self.R, GaussianRational):
            object.__setattr__(self, "R", GaussianRational(self.R))
        if self.flavor == GROUP:
            if self.R is not None and not self.R:
                raise ValueError("group-flavor parameters need R != 0")
        elif self.flavor == MOTION:
            if self.R is not None:
                raise ValueError("motion-flavor parameters carry no R")
        else:
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if abs(self.m) > 1 and self.level != fixed_level(self.flavor, self.m):
            raise ValueError(
                f"minimal K-type {self.m} fixes the {self.flavor} level to "
                f"{fixed_level(self.flavor, self.m)}, got {self.level}")

    @staticmethod
    def group(level, m: int, R=None) -> "DualParam":
        return DualParam(GROUP, level, m, R)

    @staticmethod
    def motion(level, m: int) -> "DualParam":
        return DualParam(MOTION, level, m)

    def canonical(self) -> "DualParam":
        """The preferred representative of the parameter's equivalence class.

        (level, -1) and (level, 1) name the same module except at
        ``boundary_level``; away from it the m = 1 representative is preferred.
        """
        if self.m != -1 or self.level == boundary_level(self.flavor):
            return self
        return DualParam(self.flavor, self.level, 1, self.R)

    def __str__(self) -> str:
        tag = "0" if self.flavor == MOTION else (str(self.R) if self.R is not None else "r0")
        return f"({self.level},{self.m})_{tag}"

    def to_json(self) -> dict:
        return {
            "flavor": self.flavor,
            "R": 0 if self.flavor == MOTION else None if self.R is None else scalar_to_json(self.R),
            "level": scalar_to_json(self.level),
            "m": self.m,
        }


def dual_ktypes(p: DualParam) -> KTypeSet:
    """The K-type set of the irreducible module named by the parameter."""
    m = p.m
    if p.flavor == GROUP:
        return ktypes_at(m, p.level)
    if p.level == 0:  # the level of every |m| > 1 motion parameter
        return KTypeSet.singleton(m)
    return KTypeSet.all_even() if m == 0 else KTypeSet.all_odd()


def wall_edges(kt: KTypeSet, k: Optional[int]) -> Tuple[int, ...]:
    """The edges (n, n+2) of the set that the level k(k+2) cuts, ascending.

    An edge carries one non-unit ladder coefficient, (level - n(n+2))/4 at
    a group point, so the level k(k+2) cuts exactly n = -k-2 and n = k
    (one edge when k = -1).  k = None, a level off every wall, cuts none.
    """
    if k is None:
        return ()
    return tuple(n for n in sorted({-k - 2, k}) if n in kt and n + 2 in kt)


@dataclass(frozen=True)
class FiberModule:
    """A family evaluated at one point of the base.

    cuts lists, ascending, the n whose edge (n, n+2) the fiber severs:
    ``wall_edges`` at a group point; at the motion fiber, where every edge
    carries c2/4, all edges inside window when c2 = 0 and none otherwise.
    up[n] and down[n], the exact scalars by which the raising and lowering
    operators leave the n-line, are evaluated on demand inside window.
    """

    family: ModuleFamily
    point: ProjectivePoint
    level: GaussianRational
    cuts: Tuple[int, ...]
    window: Tuple[int, int]

    @property
    def flavor(self) -> str:
        return MOTION if self.point.is_infinity else GROUP

    @property
    def ktypes(self) -> KTypeSet:
        return self.family.ktypes

    @property
    def m(self) -> int:
        return self.family.m

    @property
    def cuts_everywhere(self) -> bool:
        return self.flavor == MOTION and self.level == 0

    def edge_is_cut(self, n: int) -> bool:
        """Whether the ladder is severed between K-types n and n+2."""
        if n not in self.ktypes or n + 2 not in self.ktypes:
            raise ValueError(f"({n},{n + 2}) is not an edge of {self.ktypes}")
        return self.cuts_everywhere or n in self.cuts

    def _coefficients(self, step: int) -> Dict[int, GaussianRational]:
        """n -> the scalar carrying the n-line to the (n+step)-line, inside window."""
        if self.point.is_infinity:
            act, x = ladder_action(self.family, CHART_INFINITY), GR_ZERO
        else:
            act, x = ladder_action(self.family, CHART_FINITE), self.point.r
        coeff = act.up if step > 0 else act.down
        lo, hi = self.window
        return {n: coeff(n).eval(x) for n in self.ktypes.members(lo, hi)
                if n + step in self.ktypes and lo <= n + step <= hi}

    @cached_property
    def up(self) -> Dict[int, GaussianRational]:
        return self._coefficients(2)

    @cached_property
    def down(self) -> Dict[int, GaussianRational]:
        return self._coefficients(-2)


def evaluate_fiber(fam: ModuleFamily, p: ProjectivePoint) -> FiberModule:
    """The fiber of the family at a base point, with its cut edges."""
    kt = fam.ktypes
    bound = max(abs(fam.m), 2, abs(kt.param or 0)) + 4
    if p.is_infinity:
        # c2/4 cuts every edge or none; list the cuts where the factors are shown
        level = fam.c2
        cuts = () if level else tuple(n for n in kt.members(-bound, bound - 2) if n + 2 in kt)
    else:
        level = fam.casimir.eval(p.r)
        cuts = wall_edges(kt, wall_index(level))
    return FiberModule(fam, p, level, cuts, (-bound, bound))


def is_reducible(fib: FiberModule) -> bool:
    """A proper invariant subspace exists iff some edge is cut."""
    return bool(fib.cuts)


@dataclass(frozen=True)
class Factor:
    ktypes: KTypeSet
    param: DualParam

    def to_json(self) -> dict:
        out = self.param.to_json()
        out["ktypes"] = str(self.ktypes)
        return out


@dataclass(frozen=True)
class Decomposition:
    """Composition factors of a fiber, as (K-type segment, parameter) pairs.

    complete is False only for motion fibers of level 0 with infinitely
    many K-types, where every K-type is its own one-dimensional factor;
    the listed factors are then a window around the minimal K-type.
    """

    factors: Tuple[Factor, ...]
    complete: bool


def composition_factors(fib: FiberModule) -> Decomposition:
    """Split the K-type set at the cut edges and name each segment."""
    kt = fib.ktypes
    lo, hi = kt.bounds
    R = None if fib.flavor == MOTION else fib.point.R_value()
    factors = []
    for a, b in zip((lo,) + tuple(n + 2 for n in fib.cuts), fib.cuts + (hi,)):
        if a is None and b is None:
            seg = kt
        elif b is None:
            seg = KTypeSet.ray_up(a)
        elif a is None:
            seg = KTypeSet.ray_down(b)
        elif a == b and fib.flavor == MOTION:
            seg = KTypeSet.singleton(a)
        else:
            # wall symmetry: a level cuts the edges at -k-2 and k together
            assert a == -b, f"segment [{a}..{b}] has no admissible-dual shape"
            seg = KTypeSet.window(b)
        factors.append(Factor(seg, DualParam(fib.flavor, fib.level, seg.minimal(), R).canonical()))
    return Decomposition(tuple(factors), not fib.cuts_everywhere or kt.is_finite)


def factor_containing_m(fib: FiberModule, m: Optional[int] = None) -> DualParam:
    """The unique composition factor whose K-type segment contains m."""
    if m is None:
        m = fib.m
    if not fib.ktypes.contains(m):
        raise ValueError(f"{m} is not a K-type of the fiber")
    if fib.cuts_everywhere:
        return DualParam.motion(0, m).canonical()
    for f in composition_factors(fib).factors:
        if f.ktypes.contains(m):
            return f.param
    raise RuntimeError(f"no factor contains K-type {m}")  # pragma: no cover


@dataclass(frozen=True)
class WallRecord:
    """Real solutions of c(r) = level for one admissible wall level, for a
    non-constant c(r): a constant one has no wall records."""

    k: int  # canonical index, level = k(k+2), k >= -1
    level: GaussianRational
    points: Tuple[ProjectivePoint, ...]  # exact rational solutions
    irrational: bool  # real solutions exist that are not rational


@dataclass(frozen=True)
class ReducibilityLocus:
    """Where on the (projective) real line the family's fibers reduce.

    points collects the exact rational reducibility points (including the
    point at infinity when the motion fiber is reducible).  complete is
    True when that list is provably the entire locus, as it always is for a
    constant c(r); otherwise walls holds per-level detail up to the
    enumeration bound max_k, and irrational or unbounded wall sets are
    flagged rather than truncated silently.  The domain is always the real
    projective line.
    """

    points: Tuple[ProjectivePoint, ...]
    walls: Tuple[WallRecord, ...]
    complete: bool
    domain = "realProjLine"
    max_k = 12

    def to_json(self) -> dict:
        return {
            "domain": self.domain,
            "points": [str(q) for q in self.points],
            "complete": self.complete,
            "max_k": self.max_k,
            "walls": [
                {
                    "k": w.k,
                    "level": scalar_to_json(w.level),
                    "points": [str(q) for q in w.points],
                    "irrational": w.irrational,
                    # always false: no table row's constant c(r) sits on a wall
                    # it cuts, but golden files and benchmark digests pin the key
                    "everywhere": False,
                }
                for w in self.walls
            ],
        }


def _real_roots(c2: Fraction, c1: Fraction, c0: Fraction, w: Fraction):
    """Exact real solutions of c2 r^2 + c1 r + c0 = w, for c2, c1 not both 0.

    Returns (rational roots, has_irrational)."""
    if c2 == 0:
        return [(w - c0) / c1], False
    disc = c1 * c1 - 4 * c2 * (c0 - w)
    if disc < 0:
        return [], False
    if disc == 0:
        return [-c1 / (2 * c2)], False
    s = rational_sqrt(disc)
    if s is None:
        return [], True
    return [(-c1 + s) / (2 * c2), (-c1 - s) / (2 * c2)], False


def reducibility_points(fam: ModuleFamily) -> ReducibilityLocus:
    """Solve c(r) = n(n+2) over the real projective line, edge by edge.

    The walls k(k+2) are enumerated up to k = ``ReducibilityLocus.max_k``,
    and further where a bounded c(r) needs it; the point at infinity is
    reported when the motion fiber decomposes.  A constant c(r) meets no
    wall: on its table row the level's cut edges all lie outside the
    K-types.  Requires a real Casimir polynomial: complex-valued c(r) never
    meets the real wall levels, and the Jantzen machinery needs the real
    form.
    """
    if not intertwiner_exists(fam):
        raise ValueError("reducibility on the real line needs a real Casimir polynomial")
    c2, c1, c0 = fam.c2.re, fam.c1.re, fam.c0.re
    kt = fam.ktypes
    walls: List[WallRecord] = []
    pts: List[ProjectivePoint] = []

    complete = fam.casimir.is_constant or c2 < 0
    if not fam.casimir.is_constant:  # then the K-types are a full ladder
        bound = ReducibilityLocus.max_k
        if c2 < 0:
            cmax = c0 - c1 * c1 / (4 * c2)
            while bound * (bound + 2) <= cmax:
                bound += 1
        for k in range(-1, bound + 1):
            if not wall_edges(kt, k):
                continue
            w = Fraction(k * (k + 2))
            roots, irr = _real_roots(c2, c1, c0, w)
            if not roots and not irr:
                continue
            rec = WallRecord(
                k,
                GaussianRational.of(w),
                tuple(ProjectivePoint.from_r(x) for x in sorted(roots)),
                irr,
            )
            walls.append(rec)
            pts.extend(rec.points)
            if irr:
                complete = False

    pts = sorted(set(pts), key=lambda q: q.r.re)
    if fam.c2 == 0 and kt.has_edge:
        pts.append(ProjectivePoint.infinity())
    return ReducibilityLocus(tuple(pts), tuple(walls), complete)


def jantzen_quotient_formula(fam: ModuleFamily, p: ProjectivePoint) -> DualParam:
    """The closed-form Jantzen quotient containing the minimal K-type.

    Valid for families extending over the whole projective line, at real
    points of the chart at infinity: (c2/R^2 + c0, m) at R != 0, and
    (c2, m) at the motion fiber R = 0.
    """
    ok, reason = in_tilde_class(fam)
    if not ok:
        raise ValueError(f"family does not extend over the projective line: {reason}")
    if not p.is_real:
        raise ValueError("the Jantzen quotient formula is stated over real points only")
    if p.is_origin:
        raise ValueError("r = 0 lies outside the chart at infinity; the formula does not apply")
    if p.is_infinity:
        return DualParam.motion(fam.c2, fam.m).canonical()
    level = fam.c2 * p.r * p.r + fam.c0
    return DualParam.group(level, fam.m, p.R_value()).canonical()
