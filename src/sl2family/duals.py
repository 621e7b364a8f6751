"""Admissible duals of the two fibers and the level-affine bijections.

Both fibers of the deformation family carry a classified admissible dual:
group-flavor parameters (level, m)_R for the fibers away from infinity and
motion-flavor parameters (level, m)_0 for the fiber at infinity.  This
module implements the equivalence relation on parameters, the tempered
subsets, the minimal-K-type correspondence, the bijections eta^R between
the two duals (one for each nonzero real chart coordinate R), and a
characterization routine showing that any candidate bijection with the
three structural properties (extends the minimal-K-type correspondence,
preserves temperedness, affine in the level) is eta^R for a unique R.
"""

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .families import pinned_level
from .fibers import GROUP, MOTION, DualParam, dual_ktypes, scalar_to_json
from .scalars import GR_ONE, GaussianRational, has_gaussian_sqrt

__all__ = [
    "DualAtlas",
    "CharacterizationResult",
    "params_equivalent",
    "is_tempered",
    "vogan_map",
    "eta",
    "eta_inverse",
    "verify_conjecture1",
    "characterize_bijections",
]


def _nonzero_real(R) -> GaussianRational:
    R = GaussianRational.of(R)
    if not R.is_real or not R:
        raise ValueError("the chart coordinate R must be a nonzero real rational")
    return R


def params_equivalent(a: DualParam, b: DualParam) -> bool:
    """Whether two parameters name isomorphic irreducible modules.

    Within one dual (same flavor, same R) distinct parameters coincide
    only across the m = 1 / m = -1 pair at equal levels, and then only
    when the two named modules carry the same K-types.  At the boundary
    level (-1 for group flavor, 0 for motion flavor) the K-type sets are
    one-sided ladders (resp. single characters) and differ, so the two
    parameters there stay distinct.
    """
    if a.flavor != b.flavor:
        raise ValueError("parameters live in different duals (flavor mismatch)")
    if a.R != b.R:
        raise ValueError("parameters live in different duals (chart coordinate mismatch)")
    if a.level != b.level:
        return False
    if a.m == b.m:
        return True
    if {a.m, b.m} != {1, -1}:
        return False
    return dual_ktypes(a) == dual_ktypes(b)


def is_tempered(p: DualParam) -> bool:
    """Exact membership in the tempered subset of the parameter space.

    Motion flavor: the characters (0, m)_0 together with (level, m)_0 for
    real level < 0 and |m| <= 1.  Group flavor: every parameter with
    |m| > 1 (the level is pinned to the discrete value), and for
    |m| <= 1 exactly the real levels <= -1, the value -1 naming the
    spherical endpoint (m = 0) or the two one-sided ladders (m = +-1).
    Parameters with non-real level are never tempered.
    """
    if not p.level.is_real:
        return False
    lv = p.level.re
    if p.flavor == MOTION:
        if lv == 0:
            return True
        return lv < 0 and abs(p.m) <= 1
    if abs(p.m) > 1:
        return True
    return lv <= -1


def vogan_map(m: int, R) -> DualParam:
    """The tempered parameter with real infinitesimal character and lowest
    K-type m, in the group dual at chart coordinate R."""
    return DualParam.group(pinned_level(m) if m else -1, m, _nonzero_real(R))


def eta(p: DualParam, R) -> DualParam:
    """The level-affine bijection from the motion dual to the dual at R.

    For |m| <= 1 the level z goes to z/R^2 - 1; for |m| > 1 the motion
    level is already pinned to 0 and the image is the pinned discrete
    parameter with the same minimal K-type.
    """
    if p.flavor != MOTION:
        raise ValueError("eta maps motion-flavor parameters")
    R = _nonzero_real(R)
    if abs(p.m) > 1:
        return vogan_map(p.m, R)
    return DualParam.group(p.level / (R * R) - 1, p.m, R)


def eta_inverse(q: DualParam, R=None) -> DualParam:
    """Inverse of eta: (level, m)_R with |m| <= 1 goes to ((level+1)R^2, m)_0.

    R defaults to the parameter's own chart coordinate and, when passed,
    must agree with it.  Parameters taken at r = 0 carry no coordinate,
    so there R is required.
    """
    if q.flavor != GROUP:
        raise ValueError("eta_inverse maps group-flavor parameters")
    if R is None:
        if q.R is None:
            raise ValueError("the parameter carries no chart coordinate; pass R")
        R = q.R
    else:
        R = _nonzero_real(R)
        if q.R is not None and q.R != R:
            raise ValueError("parameter belongs to the dual at a different R")
    if abs(q.m) > 1:
        return DualParam.motion(0, q.m)
    return DualParam.motion((q.level + 1) * R * R, q.m)


@dataclass(frozen=True)
class DualAtlas:
    """Lazy enumeration of one fiber's admissible dual.

    Walks the parameters with |m| <= M; the free level of the |m| <= 1
    rows is sampled on ``grid`` while the |m| > 1 levels are pinned by
    parameter validation.  Group flavor needs the chart coordinate R.
    """

    flavor: str
    M: int
    grid: Tuple[GaussianRational, ...]
    R: Optional[GaussianRational] = None

    def __post_init__(self) -> None:
        if self.M < 0:
            raise ValueError("the K-type bound M must be >= 0")
        object.__setattr__(
            self, "grid", tuple(GaussianRational.of(z) for z in self.grid)
        )
        if self.flavor == GROUP:
            if self.R is None:
                raise ValueError("a group-flavor atlas needs the chart coordinate R")
            object.__setattr__(self, "R", _nonzero_real(self.R))
        elif self.flavor == MOTION:
            if self.R is not None:
                raise ValueError("a motion-flavor atlas carries no chart coordinate")
        else:
            raise ValueError(f"unknown flavor {self.flavor!r}")

    def params(self) -> Iterator[DualParam]:
        """Every enumerated parameter, before reduction to classes."""
        for m in range(-self.M, self.M + 1):
            if abs(m) <= 1:
                for z in self.grid:
                    if self.flavor == MOTION:
                        yield DualParam.motion(z, m)
                    else:
                        yield DualParam.group(z, m, self.R)
            elif self.flavor == MOTION:
                yield DualParam.motion(0, m)
            else:
                yield DualParam.group(pinned_level(m), m, self.R)

    def classes(self) -> Iterator[DualParam]:
        """Canonical representatives, one per equivalence class."""
        seen = set()
        for p in self.params():
            rep = p.canonical()
            if rep not in seen:
                seen.add(rep)
                yield rep


def verify_conjecture1(R, M: int, grid: Sequence) -> Tuple[bool, List[dict]]:
    """Machine check that eta^R is a structure-respecting bijection.

    Runs, over the atlases bounded by |m| <= M with levels sampled on
    ``grid``: (a) injectivity of eta on motion classes up to equivalence
    and surjectivity onto the grid-representable group classes via the
    explicit inverse; (b) the minimal-K-type correspondence as the
    restriction to the zero-level characters; (c) preservation of
    temperedness in both directions; (d) the per-m affine form of the
    level map, with its invertibility.  Returns (all passed, report),
    the report being a list of {check, instance, pass, detail} entries.
    """
    R = _nonzero_real(R)
    grid_gr = tuple(GaussianRational.of(z) for z in grid)
    if not grid_gr:
        raise ValueError("the level grid must be nonempty")
    report: List[dict] = []

    def entry(check: str, instance: str, ok: bool, detail: str) -> None:
        report.append(
            {"check": check, "instance": instance, "pass": bool(ok), "detail": detail}
        )

    atlas = DualAtlas(MOTION, M, grid_gr)
    classes = list(atlas.classes())
    images = [eta(q, R) for q in classes]

    collisions = []
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            if params_equivalent(images[i], images[j]):
                collisions.append((classes[i], classes[j]))
    entry(
        "injectivity",
        f"{len(classes)} motion classes, R={R}",
        not collisions,
        "images of distinct classes are pairwise inequivalent"
        if not collisions
        else "image collisions: "
        + "; ".join(f"{a} and {b}" for a, b in collisions[:3]),
    )

    target = DualAtlas(GROUP, M, grid_gr, R)
    misses = []
    count = 0
    for q in target.classes():
        count += 1
        if not params_equivalent(eta(eta_inverse(q), R), q):
            misses.append(q)
    entry(
        "surjectivity",
        f"{count} group classes, R={R}",
        not misses,
        "every class is the image of its explicit preimage"
        if not misses
        else "unreached classes: " + "; ".join(str(q) for q in misses[:3]),
    )

    for m in range(-M, M + 1):
        image = eta(DualParam.motion(0, m), R)
        expected = vogan_map(m, R)
        entry(
            "vogan-extension",
            f"m={m}, R={R}",
            image == expected,
            f"eta((0,{m})_0) = {image}, minimal-K-type representative {expected}",
        )

    for q in classes:
        if not q.level.is_real:
            continue
        image = eta(q, R)
        ok = is_tempered(q) == is_tempered(image)
        entry(
            "tempered",
            f"{q} -> {image}",
            ok,
            f"tempered({q}) = {is_tempered(q)}, tempered({image}) = {is_tempered(image)}",
        )

    if M >= 1:
        wd_bad = []
        for z in grid_gr:
            if z == 0:
                continue
            p_plus = DualParam.motion(z, 1)
            p_minus = DualParam.motion(z, -1)
            if params_equivalent(p_plus, p_minus):
                if not params_equivalent(eta(p_plus, R), eta(p_minus, R)):
                    wd_bad.append(z)
        entry(
            "well-defined",
            f"m=1/m=-1 pairs on {len(grid_gr)} levels, R={R}",
            not wd_bad,
            "equivalent parameters have equivalent images"
            if not wd_bad
            else "broken at levels: " + ", ".join(str(z) for z in wd_bad[:5]),
        )

    a_expected = GR_ONE / (R * R)
    for m in (-1, 0, 1):
        if abs(m) > M:
            continue
        samples = [(z, eta(DualParam.motion(z, m), R).level) for z in grid_gr]
        distinct = []
        for z, lv in samples:
            if all(z != z0 for z0, _ in distinct):
                distinct.append((z, lv))
            if len(distinct) == 2:
                break
        if len(distinct) < 2:
            entry(
                "affine-form",
                f"m={m}, R={R}",
                False,
                "needs at least two distinct grid levels to determine the map",
            )
            continue
        (z0, l0), (z1, l1) = distinct
        a = (l1 - l0) / (z1 - z0)
        b = l0 - a * z0
        fits = all(lv == a * z + b for z, lv in samples)
        ok = fits and bool(a) and a == a_expected and b == -1
        entry(
            "affine-form",
            f"m={m}, R={R}",
            ok,
            f"level map is z -> ({a})z + ({b}); invertible with a = 1/R^2 and b = -1",
        )

    entry(
        "equivalence-convention",
        "boundary levels (group -1, motion 0)",
        True,
        "reading level-equality alone across m=1/m=-1 would identify the two "
        "one-sided ladders (resp. the two characters); the implemented relation "
        "also requires equal K-type sets, keeping them distinct",
    )

    return all(e["pass"] for e in report), report


@dataclass(frozen=True)
class CharacterizationResult:
    """Outcome of matching a candidate bijection against the eta family.

    ``matches`` holds the unique chart coordinate R realizing the
    candidate when one exists; ``violated`` names the structural
    constraint that failed, or is None.  A candidate can satisfy every
    constraint and still match no exact coordinate (irrational scale),
    in which case both fields are None and ``detail`` explains.
    """

    matches: Optional[GaussianRational]
    violated: Optional[str]
    detail: str

    def to_json(self) -> dict:
        return {
            "matches": None if self.matches is None else scalar_to_json(self.matches),
            "violated": self.violated,
            "detail": self.detail,
        }


def characterize_bijections(candidate: Dict[int, tuple]) -> CharacterizationResult:
    """Decide whether per-m affine level maps are realized by some eta^R.

    ``candidate`` gives, for each m in {0, 1, -1}, the coefficients
    (a_m, b_m) of the proposed level map z -> a_m z + b_m into the dual
    at R = 1; the |m| > 1 assignments are forced (pinned levels) and need
    not be supplied.  The routine replays the uniqueness argument:
    extending the minimal-K-type correspondence forces b_m = -1,
    preserving temperedness forces a_m real and positive, agreement of
    the maps across m forces one common scale a, and what remains is
    exactly the level map of eta^R for R = 1/sqrt(a), reported when that
    square root is rational.
    """
    maps: Dict[int, Tuple[GaussianRational, GaussianRational]] = {}
    for m in (0, 1, -1):
        if m not in candidate:
            raise ValueError(f"candidate must supply an affine map for m = {m}")
        a, b = candidate[m]
        maps[m] = (GaussianRational.of(a), GaussianRational.of(b))

    for m in (0, 1, -1):
        b = maps[m][1]
        if b != -1:
            return CharacterizationResult(
                None,
                "vogan-extension",
                f"the map for m = {m} sends the level-0 character to level {b}; "
                f"extending the minimal-K-type correspondence forces the image "
                f"(-1,{m})_1, i.e. b = -1",
            )
    for m in (0, 1, -1):
        a = maps[m][0]
        if not (a.is_real and a.re > 0):
            return CharacterizationResult(
                None,
                "tempered-preservation",
                f"the map for m = {m} scales levels by {a}; carrying the tempered "
                f"levels (-inf, 0] onto (-inf, -1] forces a real positive scale",
            )
    scales = {maps[m][0] for m in (0, 1, -1)}
    if len(scales) > 1:
        return CharacterizationResult(
            None,
            "cross-m-consistency",
            "the three affine maps must share one scale a = 1/R^2, got "
            + ", ".join(f"m={m}: {maps[m][0]}" for m in (0, 1, -1)),
        )

    a = maps[0][0]
    root = has_gaussian_sqrt(a)
    if root is None:
        return CharacterizationResult(
            None,
            None,
            f"all constraints hold with scale a = {a}, but sqrt(a) is irrational; "
            f"no rational chart coordinate realizes the candidate exactly",
        )
    if root.re < 0:
        root = -root
    R = GR_ONE / root
    return CharacterizationResult(
        R,
        None,
        f"candidate coincides with the level-affine bijection at R = {R}",
    )
