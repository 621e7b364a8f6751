"""A reference ``verify_conjecture1``: the straightforward form of the check,
kept to test the library's version against.

It builds each image once, like the library, but it rebuilds an image for
every surjectivity round trip and writes each string where an entry shows
it.  Every helper it calls is read off ``sl2family.duals`` at call time, so
a test that patches one of them patches both versions alike.
"""

from typing import Dict, List, Sequence, Tuple

from sl2family import duals as D
from sl2family.fibers import DualParam
from sl2family.scalars import GaussianRational


def reference_verify_conjecture1(R, M: int, grid: Sequence) -> Tuple[bool, List[dict]]:
    R = D.nonzero_real(R)
    grid_gr = tuple(GaussianRational.of(z) for z in grid)
    if not grid_gr:
        raise ValueError("the level grid must be nonempty")
    if len(set(grid_gr)) < 2:
        raise ValueError("the level grid needs at least two distinct levels")
    report: List[dict] = []

    classes = D.dual_classes(0, M, grid_gr)
    images = [D._eta(q, R) for q in classes]

    keys = [(c.level, c.m) for c in (p.canonical() for p in images)]
    groups: Dict[Tuple[GaussianRational, int], List[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    collisions = [
        (classes[i], classes[j]) for i, key in enumerate(keys) for j in groups[key] if j > i
    ]
    report.append(D.check_entry(
        "injectivity", f"{len(classes)} motion classes, R={R}", not collisions,
        "image collisions: " + "; ".join(f"{a} and {b}" for a, b in collisions[:3])
        if collisions else "images of distinct classes are pairwise inequivalent"))

    targets = D.dual_classes(R, M, grid_gr)
    misses = [q for q in targets
              if not D.params_equivalent(D._eta(D.eta_inverse(q), R), q)]
    report.append(D.check_entry(
        "surjectivity", f"{len(targets)} group classes, R={R}", not misses,
        "unreached classes: " + "; ".join(str(q) for q in misses[:3])
        if misses else "every class is the image of its explicit preimage"))

    characters = {q.m: image for q, image in zip(classes, images) if q.level == 0}
    for m in range(-M, M + 1):
        image = characters.get(m)
        if image is None:
            image = D._eta(DualParam.motion(0, m), R)
        expected = D._vogan(m, R)
        report.append(D.check_entry(
            "vogan-extension", f"m={m}, R={R}", image == expected,
            f"eta((0,{m})_0) = {image}, minimal-K-type representative {expected}"))

    for q, image in zip(classes, images):
        if not q.level.is_real:
            continue
        t_q, t_image = D.is_tempered(q), D.is_tempered(image)
        s_q, s_image = str(q), str(image)
        report.append(D.check_entry(
            "tempered", f"{s_q} -> {s_image}", t_q == t_image,
            f"tempered({s_q}) = {t_q}, tempered({s_image}) = {t_image}"))

    if M >= 1:
        pairs = [(DualParam.motion(z, 1), DualParam.motion(z, -1)) for z in grid_gr if z != 0]
        wd_bad = [p.level for p, q in pairs
                  if D.params_equivalent(p, q)
                  and not D.params_equivalent(D._eta(p, R), D._eta(q, R))]
        report.append(D.check_entry(
            "well-defined", f"m=1/m=-1 pairs on {len(grid_gr)} levels, R={R}", not wd_bad,
            "broken at levels: " + ", ".join(str(z) for z in wd_bad[:5])
            if wd_bad else "equivalent parameters have equivalent images"))

    a_expected = D.GR_ONE / (R * R)
    for m in (-1, 0, 1):
        if abs(m) > M:
            continue
        samples = [(z, D._eta(DualParam.motion(z, m), R).level) for z in grid_gr]
        z0, l0 = samples[0]
        z1, l1 = next((z, lv) for z, lv in samples if z != z0)
        a = (l1 - l0) / (z1 - z0)
        b = l0 - a * z0
        fits = all(lv == a * z + b for z, lv in samples)
        ok = fits and bool(a) and a == a_expected and b == -1
        report.append(D.check_entry(
            "affine-form", f"m={m}, R={R}", ok,
            f"level map is z -> ({a})z + ({b}); invertible with a = 1/R^2 and b = -1"))

    report.append(D.check_entry(
        "equivalence-convention", "boundary levels (group -1, motion 0)", True,
        "reading level-equality alone across m=1/m=-1 would identify the two "
        "one-sided ladders (resp. the two characters); the implemented relation "
        "also requires equal K-type sets, keeping them distinct"))

    return all(e["pass"] for e in report), report
