"""Admissible duals of the two fibers and the level-affine bijections.

Both fibers of the deformation family carry a classified admissible dual,
and a parameter (level, m)_R sits at the chart coordinate R of its fiber:
R = 0 at the motion fiber (infinity), any other R at a group fiber.  Two
rules of fibers.py define the duals: parameters are equivalent exactly when
their ``DualParam.canonical()`` representatives agree, and the Vogan level
``vogan_level(flavor, m)`` is the level a minimal K-type |m| > 1 fixes
and, at m = +-1, the boundary where temperedness of the |m| <= 1
parameters ends and where m = 1, -1 stay apart.  This module
implements the equivalence relation, the enumeration of a dual's classes
(``dual_classes``), the tempered subsets, the minimal-K-type
correspondence, the bijections eta^R between the two duals (one for each
nonzero real chart coordinate R), and a characterization routine showing
that any candidate bijection with the three structural properties
(extends the minimal-K-type correspondence, preserves temperedness,
affine in the level) is eta^R for a unique R.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .fibers import GROUP, MOTION, DualParam, vogan_level
from .scalars import GR_ONE, GR_ZERO, GaussianRational, has_gaussian_sqrt, scalar_to_json


def nonzero_real(R) -> GaussianRational:
    """R as a GaussianRational, if it is a nonzero real: a group chart coordinate."""
    R = GaussianRational.of(R)
    if not R.is_real or not R:
        raise ValueError("the chart coordinate R must be a nonzero real rational")
    return R


def params_equivalent(a: DualParam, b: DualParam) -> bool:
    """Whether two parameters of one dual (same R) name isomorphic
    irreducible modules: whether their canonical representatives,
    ``DualParam.canonical()``, are equal."""
    if a.R != b.R:
        raise ValueError("parameters live in different duals (chart coordinate mismatch)")
    return a.canonical() == b.canonical()


def is_tempered(p: DualParam) -> bool:
    """Exact membership in the tempered subset of the parameter space.

    Every parameter with |m| > 1 (its level is fixed), and for |m| <= 1
    exactly the real levels up to ``vogan_level(flavor, 1)``: <= -1 in the
    group dual, the value -1 naming the spherical endpoint (m = 0) or the
    two one-sided ladders (m = +-1); <= 0 in the motion dual, the value 0
    naming the characters.  Non-real levels are never tempered.
    """
    lv = p.level  # lv <= boundary, compared over lv's positive denominator: no Fraction
    return lv.is_real and (abs(p.m) > 1 or lv.re_num <= vogan_level(p.flavor, 1) * lv.den)


def vogan_map(m: int, R) -> DualParam:
    """The tempered parameter with real infinitesimal character and lowest
    K-type m, in the group dual at chart coordinate R."""
    return _vogan(m, nonzero_real(R))


def _vogan(m: int, R: GaussianRational) -> DualParam:
    """vogan_map at an R that nonzero_real has returned."""
    return DualParam(vogan_level(GROUP, m), m, R)


def eta(p: DualParam, R) -> DualParam:
    """The level-affine bijection from the motion dual to the dual at R.

    For |m| <= 1 the level z goes to z/R^2 - 1; for |m| > 1 both levels
    are the Vogan levels and the image keeps the minimal K-type.
    """
    if p.flavor != MOTION:
        raise ValueError("eta maps motion-flavor parameters")
    return _eta(p, nonzero_real(R))


def _eta(p: DualParam, R: GaussianRational) -> DualParam:
    """eta of a motion parameter at an R that nonzero_real has returned."""
    m = p.m
    return DualParam(vogan_level(GROUP, m) if abs(m) > 1 else p.level / (R * R) - 1, m, R)


def eta_inverse(q: DualParam) -> DualParam:
    """Inverse of eta: (level, m)_R with |m| <= 1 goes to ((level+1)R^2, m)_0,
    and a fixed-level parameter to the fixed-level character with its m.

    R is the parameter's own chart coordinate, which must be a nonzero
    real: a motion parameter has R = 0, and one taken at r = 0 has none.
    """
    if q.R is None:
        raise ValueError("the parameter carries no chart coordinate")
    R = nonzero_real(q.R)
    m = q.m
    return DualParam.motion(vogan_level(MOTION, m) if abs(m) > 1 else (q.level + 1) * R * R, m)


def dual_classes(R, M: int, grid: Sequence) -> List[DualParam]:
    """The admissible dual of the fiber at chart coordinate R: a canonical
    representative of each class with |m| <= M, in order of m and then of
    the grid.

    R = 0 is the motion dual; any other R must be a nonzero real.  The
    free level of the |m| <= 1 rows is sampled on ``grid``; for |m| > 1
    the level is ``vogan_level(flavor, m)``.
    """
    if M < 0:
        raise ValueError("the K-type bound M must be >= 0")
    R = GaussianRational.of(R)
    flavor = MOTION if R == 0 else GROUP
    R = GR_ZERO if flavor == MOTION else nonzero_real(R)
    grid = [GaussianRational.of(z) for z in grid]
    classes: List[DualParam] = []
    seen = set()  # repeated levels and m = +-1 merge; a fixed-level class cannot
    for m in range(-M, M + 1):
        if abs(m) > 1:
            classes.append(DualParam(vogan_level(flavor, m), m, R))
            continue
        for z in grid:
            rep = DualParam(z, m, R).canonical()
            if rep not in seen:
                seen.add(rep)
                classes.append(rep)
    return classes


def check_entry(check: str, instance: str, ok, detail: str) -> dict:
    """One report entry: which check ran, on what instance, its verdict, and why."""
    return {"check": check, "instance": instance, "pass": bool(ok), "detail": detail}


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

    Each motion class's image is built once and read by every check: the
    surjectivity round trip looks its preimage up among the classes, and
    the vogan-extension and tempered entries write each image's string
    once.  The module-level helpers are looked up at call time.
    """
    R = nonzero_real(R)
    grid_gr = tuple(GaussianRational.of(z) for z in grid)
    if not grid_gr:
        raise ValueError("the level grid must be nonempty")
    if len(set(grid_gr)) < 2:
        raise ValueError("the level grid needs at least two distinct levels")
    report: List[dict] = []
    r_text = str(R)

    # each motion class's image, built once and read by the checks below
    classes = dual_classes(0, M, grid_gr)
    images = [_eta(q, R) for q in classes]

    # equivalent images share a canonical representative, so grouping by it
    # lists the colliding pairs in the (i, j) order of a pairwise scan; the
    # images share R, so (level, m) of the representative is the key
    keys = [(c.level, c.m) for c in (p.canonical() for p in images)]
    groups: Dict[Tuple[GaussianRational, int], List[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    collisions = [
        (classes[i], classes[j]) for i, key in enumerate(keys) for j in groups[key] if j > i
    ]
    report.append(check_entry(
        "injectivity", f"{len(classes)} motion classes, R={r_text}", not collisions,
        "image collisions: " + "; ".join(f"{a} and {b}" for a, b in collisions[:3])
        if collisions else "images of distinct classes are pairwise inequivalent"))

    # a preimage that is one of the classes has its image already
    known = dict(zip(classes, images))
    targets = dual_classes(R, M, grid_gr)
    misses = [q for q in targets
              if not params_equivalent(known.get(p := eta_inverse(q)) or _eta(p, R), q)]
    report.append(check_entry(
        "surjectivity", f"{len(targets)} group classes, R={r_text}", not misses,
        "unreached classes: " + "; ".join(str(q) for q in misses[:3])
        if misses else "every class is the image of its explicit preimage"))

    # the string of each image the report shows: those of the real-level classes
    texts = [str(image) if q.level.is_real else None for q, image in zip(classes, images)]

    # the image of each level-0 class: every |m| > 1, and |m| <= 1 when 0 is on the grid
    characters = {q.m: (image, text)
                  for q, image, text in zip(classes, images, texts) if q.level == 0}
    for m in range(-M, M + 1):
        image, text = characters.get(m, (None, None))
        if image is None:
            image = _eta(DualParam.motion(0, m), R)
            text = str(image)
        expected = _vogan(m, R)
        same = image == expected
        report.append(check_entry(
            "vogan-extension", f"m={m}, R={r_text}", same,
            f"eta((0,{m})_0) = {text}, minimal-K-type representative "
            f"{text if same else expected}"))

    for q, image, s_image in zip(classes, images, texts):
        if s_image is None:
            continue
        t_q, t_image = is_tempered(q), is_tempered(image)
        s_q = str(q)
        report.append(check_entry(
            "tempered", f"{s_q} -> {s_image}", t_q == t_image,
            f"tempered({s_q}) = {t_q}, tempered({s_image}) = {t_image}"))

    if M >= 1:
        pairs = [(DualParam.motion(z, 1), DualParam.motion(z, -1)) for z in grid_gr if z != 0]
        wd_bad = [p.level for p, q in pairs
                  if params_equivalent(p, q) and not params_equivalent(_eta(p, R), _eta(q, R))]
        report.append(check_entry(
            "well-defined", f"m=1/m=-1 pairs on {len(grid_gr)} levels, R={r_text}", not wd_bad,
            "broken at levels: " + ", ".join(str(z) for z in wd_bad[:5])
            if wd_bad else "equivalent parameters have equivalent images"))

    a_expected = GR_ONE / (R * R)
    for m in (-1, 0, 1):
        if abs(m) > M:
            continue
        samples = [(z, _eta(DualParam.motion(z, m), R).level) for z in grid_gr]
        z0, l0 = samples[0]
        z1, l1 = next((z, lv) for z, lv in samples if z != z0)
        a = (l1 - l0) / (z1 - z0)
        b = l0 - a * z0
        fits = all(lv == a * z + b for z, lv in samples)
        ok = fits and bool(a) and a == a_expected and b == -1
        report.append(check_entry(
            "affine-form", f"m={m}, R={r_text}", ok,
            f"level map is z -> ({a})z + ({b}); invertible with a = 1/R^2 and b = -1"))

    report.append(check_entry(
        "equivalence-convention", "boundary levels (group -1, motion 0)", True,
        "reading level-equality alone across m=1/m=-1 would identify the two "
        "one-sided ladders (resp. the two characters); the implemented relation "
        "also requires equal K-type sets, keeping them distinct"))

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
    R = GR_ONE / root
    return CharacterizationResult(
        R,
        None,
        f"candidate coincides with the level-affine bijection at R = {R}",
    )
