"""Fiberwise analysis of module families: reducibility and factors.

Evaluating the ladder coefficients of a family at a point of the base
turns the family into a single ladder module.  An edge (n, n+2) of the
K-type ladder is "cut" when the inward transition scalar vanishes; the
maximal uncut segments are exactly the composition factors, and each is
named by a pair (level, minimal K-type) following the admissible-dual
parameter tables for the two fiber types:

  group fiber (finite point, coordinate r):   level = c(r)
  motion fiber (the point at infinity):       level = c2, the eigenvalue
                                              of the rescaled Casimir

The closed-form Jantzen quotient is implemented independently of the
segment analysis so the two can be compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .families import (
    WINDOW,
    KTypeSet,
    ModuleFamily,
    in_tilde_class,
    intertwiner_exists,
    ktypes_at,
    ladder_action,
    pinned_level,
    wall_index,
)
from .scalars import GR_ZERO, GaussianRational, rational_sqrt
from .sheaf import ProjectivePoint

GROUP = "group"
MOTION = "motion"


def scalar_to_json(x: GaussianRational):
    """Compact exact encoding: int, "p/q" string, or {"re","im"} object."""
    x = GaussianRational.of(x)
    if x.is_real:  # then re_num / den is in lowest terms
        return x.re_num if x.den == 1 else f"{x.re_num}/{x.den}"
    return x.to_json()


@dataclass(frozen=True)
class DualParam:
    """A point of an admissible dual: (level, m) plus the fiber flavor.

    Group flavor carries the chart-at-infinity coordinate R of the fiber
    (None for the fiber at r = 0, which the R-coordinate does not reach).
    Validation enforces the dual tables: for |m| > 1 the group level is
    ``pinned_level(m)`` and the motion level is 0.
    """

    flavor: str
    level: GaussianRational
    m: int
    R: Optional[GaussianRational] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "level", GaussianRational.of(self.level))
        if self.R is not None:
            object.__setattr__(self, "R", GaussianRational.of(self.R))
        if self.flavor == GROUP:
            if self.R is not None and not self.R:
                raise ValueError("group-flavor parameters need R != 0")
            if abs(self.m) > 1 and self.level != pinned_level(self.m):
                raise ValueError(
                    f"minimal K-type {self.m} pins the level to {pinned_level(self.m)}, "
                    f"got {self.level}"
                )
        elif self.flavor == MOTION:
            if self.R is not None:
                raise ValueError("motion-flavor parameters carry no R")
            if abs(self.m) > 1 and self.level != 0:
                raise ValueError(
                    f"motion characters with minimal K-type {self.m} have level 0, "
                    f"got {self.level}"
                )
        else:
            raise ValueError(f"unknown flavor {self.flavor!r}")

    @staticmethod
    def group(level, m: int, R=None) -> "DualParam":
        return DualParam(GROUP, GaussianRational.of(level), m,
                         None if R is None else GaussianRational.of(R))

    @staticmethod
    def motion(level, m: int) -> "DualParam":
        return DualParam(MOTION, GaussianRational.of(level), m)

    def canonical(self) -> "DualParam":
        """The preferred representative of the parameter's equivalence class.

        (level, -1) and (level, 1) name the same module except at the
        boundary level (-1 for group, 0 for motion) where the two
        one-sided ladders (resp. the two characters) are genuinely
        distinct; away from it the m = 1 representative is preferred.
        """
        if self.m != -1:
            return self
        boundary = -1 if self.flavor == GROUP else 0
        if self.level == boundary:
            return self
        return DualParam(self.flavor, self.level, 1, self.R)

    def __str__(self) -> str:
        tag = "0" if self.flavor == MOTION else (str(self.R) if self.R is not None else "r0")
        return f"({self.level},{self.m})_{tag}"

    def to_json(self) -> dict:
        if self.flavor == MOTION:
            r_json = 0
        else:
            r_json = None if self.R is None else scalar_to_json(self.R)
        return {
            "flavor": self.flavor,
            "R": r_json,
            "level": scalar_to_json(self.level),
            "m": self.m,
        }


def dual_ktypes(p: DualParam) -> KTypeSet:
    """The K-type set of the irreducible module named by the parameter."""
    m = p.m
    if p.flavor == GROUP:
        return ktypes_at(m, p.level)
    if abs(m) > 1 or p.level == 0:
        return KTypeSet.singleton(m)
    return KTypeSet.all_even() if m == 0 else KTypeSet.all_odd()


@dataclass(frozen=True)
class FiberModule:
    """A family evaluated at one point of the base.

    up[n] is the scalar by which the raising operator carries the n-line
    to the (n+2)-line (when both are K-types), down[n] its lowering
    counterpart; both are exact.  The scalars are tabulated on a window
    wide enough to contain every vanishing edge, so segment analysis
    inside the window is conclusive.
    """

    point: ProjectivePoint
    flavor: str
    ktypes: KTypeSet
    m: int
    level: GaussianRational
    up: Dict[int, GaussianRational]
    down: Dict[int, GaussianRational]
    window: Tuple[int, int]

    def edge_is_cut(self, n: int) -> bool:
        """Whether the ladder is severed between K-types n and n+2."""
        if n not in self.up or (n + 2) not in self.down:
            raise ValueError(f"edge ({n},{n + 2}) is outside the tabulated window")
        return (not self.up[n]) or (not self.down[n + 2])


def _window_bound(fam: ModuleFamily, omega: Optional[GaussianRational]) -> int:
    extremes = [abs(fam.m), 2]
    kt = fam.ktypes
    if kt.param is not None:
        extremes.append(abs(kt.param))
    if omega is not None and omega.is_real:
        k = wall_index(omega)
        if k is not None:
            extremes.append(k + 2)
    return max(extremes) + 4


def evaluate_fiber(fam: ModuleFamily, p: ProjectivePoint) -> FiberModule:
    """Evaluate the ladder coefficients of the family at a base point."""
    if p.is_infinity:
        flavor = MOTION
        act = ladder_action(fam, "Xinf")
        coord = GR_ZERO
        level = fam.c2
        omega = None
    else:
        flavor = GROUP
        act = ladder_action(fam, "X0")
        coord = p.r_value()
        level = fam.casimir.eval(coord)
        omega = level
    bound = _window_bound(fam, omega)
    kt = fam.ktypes
    up: Dict[int, GaussianRational] = {}
    down: Dict[int, GaussianRational] = {}
    for n in kt.members(-bound, bound):
        if kt.contains(n + 2) and n + 2 <= bound:
            up[n] = act.up(n).eval(coord)
        if kt.contains(n - 2) and n - 2 >= -bound:
            down[n] = act.down(n).eval(coord)
    return FiberModule(p, flavor, kt, fam.m, level, up, down, (-bound, bound))


def is_reducible(fib: FiberModule) -> bool:
    """A proper invariant subspace exists iff some interior edge is cut."""
    return any(fib.edge_is_cut(n) for n in fib.up)


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

    def params(self) -> Tuple[DualParam, ...]:
        return tuple(f.param for f in self.factors)

    def __len__(self) -> int:
        return len(self.factors)


def composition_factors(fib: FiberModule) -> Decomposition:
    lo, hi = fib.window
    members = list(fib.ktypes.members(lo, hi))
    if not members:
        raise ValueError("fiber has no K-types in its window")
    runs: List[List[int]] = [[members[0]]]
    for n in members[1:]:
        if fib.edge_is_cut(n - 2):
            runs.append([n])
        else:
            runs[-1].append(n)

    kt = fib.ktypes
    factors = []
    complete = True
    for run in runs:
        a, b = run[0], run[-1]
        open_up = b == members[-1] and kt.unbounded_above
        open_down = a == members[0] and kt.unbounded_below
        if open_up and open_down:
            seg = kt
        elif open_up:
            seg = KTypeSet.ray_up(a)
        elif open_down:
            seg = KTypeSet.ray_down(b)
        elif fib.flavor == MOTION:
            if a != b:
                seg = KTypeSet.window(b) if a == -b else None
            else:
                seg = KTypeSet.singleton(a)
        elif a == -b:
            seg = KTypeSet.window(b)
        else:
            seg = None
        if seg is None:
            raise RuntimeError(
                f"segment [{a}..{b}] has no admissible-dual shape; "
                "this contradicts the wall symmetry of ladder coefficients"
            )
        m_f = seg.minimal()
        if fib.flavor == GROUP:
            param = DualParam.group(fib.level, m_f, fib.point.R_value())
        else:
            param = DualParam.motion(fib.level, m_f)
        factors.append(Factor(seg, param.canonical()))
    if fib.flavor == MOTION and fib.level == 0 and not kt.is_finite:
        complete = False
    return Decomposition(tuple(factors), complete)


def factor_containing_m(fib: FiberModule, m: Optional[int] = None) -> DualParam:
    """The unique composition factor whose K-type segment contains m."""
    if m is None:
        m = fib.m
    if not fib.ktypes.contains(m):
        raise ValueError(f"{m} is not a K-type of the fiber")
    if fib.flavor == MOTION and fib.level == 0:
        return DualParam.motion(0, m).canonical()
    for f in composition_factors(fib).factors:
        if f.ktypes.contains(m):
            return f.param
    raise RuntimeError(f"no factor contains K-type {m}")  # pragma: no cover


@dataclass(frozen=True)
class WallRecord:
    """Real solutions of c(r) = level for one admissible wall level."""

    k: int  # canonical index, level = k(k+2), k >= -1
    level: GaussianRational
    points: Tuple[ProjectivePoint, ...]  # exact rational solutions
    irrational: bool  # real solutions exist that are not rational
    everywhere: bool = False  # constant c(r) sits on the wall identically


@dataclass(frozen=True)
class ReducibilityLocus:
    """Where on the (projective) real line the family's fibers reduce.

    points collects the exact rational reducibility points (including the
    point at infinity when the motion fiber is reducible).  complete is
    True when that list is provably the entire locus; otherwise walls
    holds per-level detail up to the enumeration bound max_k, and
    irrational or unbounded wall sets are flagged rather than truncated
    silently.
    """

    domain: str
    points: Tuple[ProjectivePoint, ...]
    walls: Tuple[WallRecord, ...]
    complete: bool
    max_k: int

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
                    "everywhere": w.everywhere,
                }
                for w in self.walls
            ],
        }


def _real_roots(c2: Fraction, c1: Fraction, c0: Fraction, w: Fraction):
    """Exact real solutions of c2 r^2 + c1 r + c0 = w.

    Returns (rational roots, has_irrational, everywhere)."""
    if c2 == 0:
        if c1 == 0:
            return [], False, c0 == w
        return [Fraction(w - c0, 1) / c1], False, False
    disc = c1 * c1 - 4 * c2 * (c0 - w)
    if disc < 0:
        return [], False, False
    if disc == 0:
        return [-c1 / (2 * c2)], False, False
    s = rational_sqrt(disc)
    if s is None:
        return [], True, False
    return [(-c1 + s) / (2 * c2), (-c1 - s) / (2 * c2)], False, False


def reducibility_points(
    fam: ModuleFamily, domain: str = "realProjLine", max_k: int = 12
) -> ReducibilityLocus:
    """Solve c(r) = n(n+2) over the real points, edge by edge.

    domain is "realLine" or "realProjLine"; the projective variant also
    reports the point at infinity when the motion fiber decomposes.
    Requires a real Casimir polynomial: complex-valued c(r) never meets
    the real wall levels, and the Jantzen machinery needs the real form.
    """
    if domain not in ("realLine", "realProjLine"):
        raise ValueError(f"unknown domain {domain!r}")
    if not intertwiner_exists(fam):
        raise ValueError("reducibility on the real line needs a real Casimir polynomial")
    c2, c1, c0 = fam.c2.re, fam.c1.re, fam.c0.re
    kt = fam.ktypes

    def edge_in(n: int) -> bool:
        return kt.contains(n) and kt.contains(n + 2)

    walls: List[WallRecord] = []
    pts: List[ProjectivePoint] = []

    if fam.casimir.is_constant:
        # Only the level equal to the constant can ever be hit, and then
        # it is hit identically in r.
        k0 = wall_index(c0)
        complete = True
        if k0 is not None and (edge_in(k0) or edge_in(-k0 - 2)):
            walls.append(WallRecord(k0, GaussianRational.of(c0), (), False, True))
            complete = False
    else:
        bound = max_k
        if kt.kind == WINDOW:
            bound = max(bound, kt.param)  # cover every interior edge
        if c2 < 0:
            cmax = c0 - c1 * c1 / (4 * c2)
            while bound * (bound + 2) <= cmax:
                bound += 1
        complete = kt.is_finite or c2 < 0
        for k in range(-1, bound + 1):
            if not (edge_in(k) or edge_in(-k - 2)):
                continue
            w = Fraction(k * (k + 2))
            roots, irr, _ = _real_roots(c2, c1, c0, w)
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

    pts = sorted(set(pts), key=lambda q: q.r_value().re)
    if domain == "realProjLine" and fam.c2 == 0 and kt.has_edge:
        pts.append(ProjectivePoint.infinity())
    return ReducibilityLocus(domain, tuple(pts), tuple(walls), complete, max_k)


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
    r0 = p.r_value()
    level = fam.c2 * r0 * r0 + fam.c0
    return DualParam.group(level, fam.m, p.R_value()).canonical()
