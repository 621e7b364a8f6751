"""Command-line front end for the deformation-family toolkit.

Subcommands:

* ``tables``    emit the classification table (1) or the two admissible-dual
                tables (2: group flavor, 3: motion flavor) as JSON rows
* ``classify``  validate a family descriptor against the classification
* ``analyze``   evaluate a family at base points: factors, closed-form
                quotient, agreement
* ``bijection`` run the level-affine bijection verifier, optionally
                characterizing a candidate map
* ``verify``    run a named verification suite with profile-sized grids

All JSON output is deterministic: sorted keys, two-space indent, ASCII
escapes, canonical lowest-terms rationals.  Exit status is 0 when every
check passes, 1 when some check fails, 2 on usage errors.  The environment
variable ``SL2FAMILY_PROFILE`` (``default`` or ``quick``) sizes the grids
used when flags do not override them.
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from .families import (
    FamilyValidationError,
    ModuleFamily,
    family_from_json,
    in_tilde_class,
    infinitesimal_character,
    ktypes_at,
    make_family,
    pinned_level,
    scalar_from_json,
)
from .fibers import (
    DualParam,
    composition_factors,
    dual_ktypes,
    evaluate_fiber,
    factor_containing_m,
    is_reducible,
    jantzen_quotient_formula,
    reducibility_points,
    scalar_to_json,
)
from .duals import characterize_bijections, verify_conjecture1
from .pbw import COMPACT, SPLIT, UEAElement, casimir, hc_projection, k_order
from .scalars import GaussianRational, Poly
from .sheaf import (
    CHART_INFINITY,
    ProjectivePoint,
    casimir_section,
    center_membership,
    gamma_family,
)

PROFILES: Dict[str, Dict[str, dict]] = {
    "default": {
        "conjecture2": {
            "M": 4,
            "c2": (-4, -1, 0, 1, 3, 8, 15),
            "points": ("r=1", "r=-1", "r=2", "r=-2", "r=3", "r=-3", "r=1/2", "r=-1/2", "inf"),
        },
        "bijection": {
            "R": (1, 2, Fraction(1, 2), 3),
            "M": 6,
            "grid": (0, 1, -1, 2, -2, 4, -4, Fraction(-9, 4), 3, 8, 15),
        },
        "appendix": {"N": 3},
        "regularity": {"N": 3},
    },
    "quick": {
        "conjecture2": {"M": 2, "c2": (0, 1, -4), "points": ("r=1", "r=-1", "r=1/2", "inf")},
        "bijection": {"R": (1, 2), "M": 3, "grid": (0, 1, -1, Fraction(-9, 4))},
        "appendix": {"N": 2},
        "regularity": {"N": 2},
    },
}

GENERIC_EVEN = "c(r)≠k(k+2), 0≤k even"
GENERIC_ODD = "c(r)≠k(k+2), -1≤k odd"
LEVEL_EVEN = "ω≠k(k+2), 0≤k even"
LEVEL_ODD = "ω≠k(k+2), -1≤k odd"
LEVEL_NONZERO = "c≠0"


# -- argument parsing -------------------------------------------------------


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc


def _rational_list(text: str) -> Tuple[Fraction, ...]:
    items = [t for t in text.split(",") if t.strip()]
    if not items:
        raise argparse.ArgumentTypeError("empty list")
    return tuple(_rational(t) for t in items)


def _point(text: str) -> ProjectivePoint:
    try:
        return ProjectivePoint.parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a base point: {text!r}") from exc


def _point_list(text: str) -> Tuple[ProjectivePoint, ...]:
    items = [t for t in text.split(",") if t.strip()]
    if not items:
        raise argparse.ArgumentTypeError("empty list")
    return tuple(_point(t) for t in items)


def _load_family_json(value: str) -> dict:
    """Inline JSON (starts with '{') or a path to a JSON file."""
    text = value
    if not value.lstrip().startswith("{"):
        with open(value, "r", encoding="utf-8") as fh:
            text = fh.read()
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("family descriptor must be a JSON object")
    return obj


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "text"), default="json",
                     help="output rendering (default json)")
    sub.add_argument("--out", default=None, metavar="PATH",
                     help="write the report to PATH instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl2family",
        description="Exact computations with the deformation family over the "
        "projective line: classification tables, fiberwise composition "
        "factors, and the level-affine dual bijections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("tables", help="emit table rows as JSON")
    t.add_argument("which", type=int, choices=(1, 2, 3),
                   help="1: family classification, 2: group dual, 3: motion dual")
    t.add_argument("--M", type=int, default=6, help="bound on |m| (default 6)")
    t.add_argument("--grid", type=_rational_list, default=None, metavar="LIST",
                   help="comma-separated levels; appends matching concrete rows")
    _add_output_flags(t)

    c = sub.add_parser("classify", help="validate a family descriptor")
    c.add_argument("--family", required=True, metavar="JSON|PATH",
                   help='descriptor {"m", "casimir", "ktypes"?}, inline or a file path')
    _add_output_flags(c)

    a = sub.add_parser("analyze", help="fiberwise analysis of a family")
    a.add_argument("--family", required=True, metavar="JSON|PATH")
    a.add_argument("--point", action="append", type=_point, default=None,
                   metavar="PT", help="base point: r=3/2, R=2, inf (repeatable)")
    a.add_argument("--grid", type=_point_list, default=None, metavar="PTS",
                   help="comma-separated base points")
    _add_output_flags(a)

    b = sub.add_parser("bijection", help="verify the level-affine dual bijection")
    b.add_argument("--R", type=_rational_list, default=None, metavar="LIST",
                   help="chart coordinates to verify at (default per profile)")
    b.add_argument("--M", type=int, default=None, help="bound on |m|")
    b.add_argument("--grid", type=_rational_list, default=None, metavar="LIST",
                   help="level samples")
    b.add_argument("--candidate", default=None, metavar="JSON|PATH",
                   help='per-m affine maps {"0": [a,b], "1": [a,b], "-1": [a,b]} '
                        "to characterize")
    _add_output_flags(b)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=("conjecture2", "bijection", "appendix", "regularity"))
    v.add_argument("--R", type=_rational_list, default=None, metavar="LIST")
    v.add_argument("--M", type=int, default=None)
    v.add_argument("--grid", type=_rational_list, default=None, metavar="LIST")
    _add_output_flags(v)

    return parser


# -- rendering --------------------------------------------------------------


def render_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def _text_scalar(v) -> str:
    if v is None:
        return "~"
    if v is True:
        return "true"
    if v is False:
        return "false"
    return str(v)


def _text_lines(obj, indent: int = 0) -> List[str]:
    pad = "  " * indent
    lines: List[str] = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_text_lines(v, indent + 1))
            else:
                v = "{}" if v == {} else "[]" if v == [] else _text_scalar(v)
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}-")
                lines.extend(_text_lines(v, indent + 1))
            else:
                lines.append(f"{pad}- {_text_scalar(v)}")
    else:
        lines.append(f"{pad}{_text_scalar(obj)}")
    return lines


def render(doc, fmt: str) -> str:
    if fmt == "text":
        return "\n".join(_text_lines(doc)) + "\n"
    return render_json(doc)


def _emit(doc, fmt: str, out: Optional[str]) -> None:
    payload = render(doc, fmt)
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


# -- tables -----------------------------------------------------------------


def _ladder_rows(M: int, key: str, generic: Tuple[str, str]) -> List[dict]:
    """Table 1 (key "casimir") or table 2 (key "level"): the classification
    rows with |m| <= M, generic[parity] standing for a non-wall level."""
    rows: List[dict] = []
    for m in range(-M, M + 1):
        if abs(m) <= 1:
            rows.append({"m": m, "ktypes": str(ktypes_at(m, None)), key: generic[m % 2]})
            # the wall levels k(k+2), k of the parity of m, from the limit rays up
            levels = [k * (k + 2) for k in range(-abs(m), M + 1, 2)]
        else:
            levels = [pinned_level(m)]
        rows.extend({"m": m, "ktypes": str(ktypes_at(m, lv)), key: lv} for lv in levels)
    return rows


def _table3_rows(M: int) -> List[dict]:
    rows: List[dict] = []
    for m in range(-M, M + 1):
        if abs(m) <= 1:
            rows.append({"m": m, "level": LEVEL_NONZERO,
                         "ktypes": "2Z" if m == 0 else "2Z+1"})
        rows.append({"m": m, "level": 0, "ktypes": f"{{{m}}}"})
    return rows


def _instances(make, key: str, M: int, grid: Sequence) -> List[dict]:
    """Concrete rows at the grid levels; make(level, m) is a DualParam
    constructor, which raises ValueError off the table."""
    rows: List[dict] = []
    for v in grid:
        for m in range(-M, M + 1):
            try:
                q = make(v, m)
            except ValueError:
                continue
            rows.append({"m": m, key: scalar_to_json(q.level), "ktypes": str(dual_ktypes(q))})
    return rows


# which -> (base rows of |m| <= M, concrete rows at grid levels).  A family
# with constant c(r) = z has the K-types of the group-dual parameter (z, m),
# so table 1 reads its instances from the group dual too.
_TABLES = {
    1: (partial(_ladder_rows, key="casimir", generic=(GENERIC_EVEN, GENERIC_ODD)),
        partial(_instances, DualParam.group, "casimir")),
    2: (partial(_ladder_rows, key="level", generic=(LEVEL_EVEN, LEVEL_ODD)),
        partial(_instances, DualParam.group, "level")),
    3: (_table3_rows, partial(_instances, DualParam.motion, "level")),
}


def cmd_tables(which: int, M: int, grid: Optional[Sequence] = None) -> dict:
    """Rows of table 1 (families), 2 (group dual), or 3 (motion dual)."""
    if M < 0:
        raise ValueError("the K-type bound M must be >= 0")
    rows, instances = _TABLES[which]
    base = rows(M)
    doc = {"table": which, "M": M, "rows": base}
    if grid is not None:
        seen = [json.dumps(r, sort_keys=True) for r in base]
        for row in instances(M, grid):
            key = json.dumps(row, sort_keys=True)
            if key not in seen:
                seen.append(key)
                base.append(row)
        doc["grid"] = [scalar_to_json(GaussianRational.of(v)) for v in grid]
    return doc


# -- classify / analyze -----------------------------------------------------


def _family_doc(fam: ModuleFamily) -> dict:
    return {
        "m": fam.m,
        "ktypes": str(fam.ktypes),
        "casimir": [scalar_to_json(fam.c0), scalar_to_json(fam.c1), scalar_to_json(fam.c2)],
    }


def _character_doc(fam: ModuleFamily, cartan: str) -> dict:
    ic = infinitesimal_character(fam, cartan)
    return {
        "exists": ic.exists,
        "in_field": ic.in_field,
        "alpha0": None if ic.alpha0 is None else scalar_to_json(ic.alpha0),
        "alpha1": None if ic.alpha1 is None else scalar_to_json(ic.alpha1),
    }


def cmd_classify(obj: dict) -> Tuple[dict, int]:
    """Judge a family descriptor: valid row or named rejection."""
    try:
        fam = family_from_json(obj)
    except FamilyValidationError as err:
        return (
            {"valid": False, "error": err.code, "detail": err.detail,
             "family": None, "tilde": None, "characters": None},
            1,
        )
    member, reason = in_tilde_class(fam)
    doc = {
        "valid": True,
        "error": None,
        "detail": None,
        "family": _family_doc(fam),
        "tilde": {"member": member, "reason": reason},
        "characters": {
            "compact": _character_doc(fam, "compact"),
            "split": _character_doc(fam, "split"),
        },
    }
    return doc, 0


def cmd_analyze(obj: dict, points: Sequence[ProjectivePoint]) -> Tuple[dict, int]:
    """Per-point fiber reports with the closed-form quotient cross-check."""
    fam = family_from_json(obj)
    member, reason = in_tilde_class(fam)
    locus = reducibility_points(fam)
    entries: List[dict] = []
    all_agree = True
    for p in points:
        fib = evaluate_fiber(fam, p)
        dec = composition_factors(fib)
        cont = factor_containing_m(fib)
        entry = {
            "point": str(p),
            "flavor": fib.flavor,
            "level": scalar_to_json(fib.level),
            "reducible": is_reducible(fib),
            "complete": dec.complete,
            "factors": [f.to_json() for f in dec.factors],
            "containing_m": cont.to_json(),
            "formula": None,
            "agree": None,
            "note": None,
        }
        if member:
            try:
                formula = jantzen_quotient_formula(fam, p)
            except ValueError as err:
                entry["note"] = str(err)
            else:
                entry["formula"] = formula.to_json()
                entry["agree"] = formula == cont
                if not entry["agree"]:
                    all_agree = False
        else:
            entry["note"] = f"no closed-form quotient: {reason}"
        entries.append(entry)
    doc = {
        "family": _family_doc(fam),
        "tilde": {"member": member, "reason": reason},
        "locus": locus.to_json(),
        "points": entries,
        "pass": all_agree,
    }
    return doc, 0 if all_agree else 1


# -- bijection / verify -----------------------------------------------------


def _parse_candidate(obj: dict) -> Dict[int, tuple]:
    out: Dict[int, tuple] = {}
    for key, pair in obj.items():
        m = int(key)
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ValueError(f"candidate entry for m={m} must be a pair [a, b]")
        try:
            out[m] = tuple(scalar_from_json(x) for x in pair)
        except FamilyValidationError as err:
            raise ValueError(f"candidate entry for m={m}: {err.detail}") from err
    return out


def cmd_bijection(
    Rs: Sequence,
    M: int,
    grid: Sequence,
    candidate: Optional[dict] = None,
) -> Tuple[dict, int]:
    """Verify the dual bijection at each R; characterize a candidate map."""
    reports = []
    all_ok = True
    for R in Rs:
        ok, report = verify_conjecture1(R, M, grid)
        all_ok = all_ok and ok
        reports.append({"R": scalar_to_json(GaussianRational.of(R)), "pass": ok,
                        "entries": report})
    doc = {
        "M": M,
        "grid": [scalar_to_json(GaussianRational.of(z)) for z in grid],
        "pass": all_ok,
        "reports": reports,
        "characterization": None,
    }
    if candidate is not None:
        doc["characterization"] = characterize_bijections(_parse_candidate(candidate)).to_json()
    return doc, 0 if all_ok else 1


def _suite_conjecture2(M: int, c2s: Sequence, points: Sequence[str]) -> List[dict]:
    entries: List[dict] = []
    labeled: List[Tuple[str, ModuleFamily]] = []
    for m in range(-M, M + 1):
        if abs(m) <= 1:
            for c2 in c2s:
                fam = make_family(m, Poly.of([-1, 0, GaussianRational.of(c2)], "r"))
                labeled.append((f"m={m} c2={c2}", fam))
        else:
            labeled.append((f"m={m} pinned", make_family(m, pinned_level(m))))
    pts = [ProjectivePoint.parse(t) for t in points]
    for label, fam in labeled:
        for p in pts:
            formula = jantzen_quotient_formula(fam, p)
            ladder = factor_containing_m(evaluate_fiber(fam, p))
            ok = formula == ladder
            entries.append({
                "check": "jantzen-quotient",
                "instance": f"{label} at {p}",
                "pass": ok,
                "detail": f"closed form {formula}, ladder factor {ladder}",
            })
    return entries


def _suite_bijection(Rs: Sequence, M: int, grid: Sequence) -> List[dict]:
    entries: List[dict] = []
    for R in Rs:
        _, report = verify_conjecture1(R, M, grid)
        entries.extend(report)
    return entries


def _suite_appendix(N: int) -> List[dict]:
    entries: List[dict] = []
    base = casimir(COMPACT)
    power = UEAElement.one(COMPACT)
    for n in range(1, N + 1):
        power = power * base
        ko = k_order(power)
        entries.append({
            "check": "order-equality",
            "instance": f"Casimir^{n}",
            "pass": ko == 2 * n,
            "detail": f"k_order = {ko}, expected 2n = {2 * n}",
        })
        for cartan in ("compact", "split"):
            kh = k_order(hc_projection(power, cartan))
            entries.append({
                "check": "order-inequality",
                "instance": f"hc(Casimir^{n}), {cartan} Cartan",
                "pass": kh <= 2 * n,
                "detail": f"k_order(hc) = {kh} <= {2 * n}",
            })
    return entries


def _suite_regularity(N: int) -> List[dict]:
    entries: List[dict] = []
    h_sq_minus_1 = {
        "compact": UEAElement(COMPACT, {(0, 2, 0): 1, (0, 0, 0): -1}),
        "split": UEAElement(SPLIT, {(0, 2, 0): 1, (0, 0, 0): -1}),
    }
    om = casimir(COMPACT)
    for cartan in ("compact", "split"):
        image = hc_projection(om, cartan)
        ok = image == h_sq_minus_1[cartan]
        entries.append({
            "check": "cartan-projection",
            "instance": f"Casimir, {cartan} Cartan",
            "pass": ok,
            "detail": "projection is h^2 - 1 after the shift",
        })
    inf = ProjectivePoint.infinity()
    om_inf = casimir_section(CHART_INFINITY)
    power = om_inf
    for n in range(1, N + 1):
        if n > 1:
            power = power * om_inf
        entries.append({
            "check": "center-membership",
            "instance": f"(R^2*Casimir)^{n}",
            "pass": center_membership(power),
            "detail": "decomposes into Casimir powers with polynomial coefficients",
        })
        for cartan in ("compact", "split"):
            g = gamma_family(power, cartan)
            entries.append({
                "check": "regular-at-infinity",
                "instance": f"gamma((R^2*Casimir)^{n}), {cartan} Cartan",
                "pass": g.is_regular_at(inf),
                "detail": "image coefficients have the required vanishing order",
            })
    return entries


def cmd_verify(
    suite: str,
    profile: str,
    Rs: Optional[Sequence] = None,
    M: Optional[int] = None,
    grid: Optional[Sequence] = None,
) -> Tuple[dict, int]:
    """Run one named suite; grids come from the profile unless overridden."""
    conf = PROFILES[profile][suite]
    if suite == "conjecture2":
        entries = _suite_conjecture2(
            M if M is not None else conf["M"],
            grid if grid is not None else conf["c2"],
            conf["points"],
        )
    elif suite == "bijection":
        entries = _suite_bijection(
            Rs if Rs is not None else conf["R"],
            M if M is not None else conf["M"],
            grid if grid is not None else conf["grid"],
        )
    elif suite == "appendix":
        entries = _suite_appendix(M if M is not None else conf["N"])
    else:
        entries = _suite_regularity(M if M is not None else conf["N"])
    n_pass = sum(1 for e in entries if e["pass"])
    doc = {
        "suite": suite,
        "profile": profile,
        # a suite that ran no checks has shown nothing
        "pass": bool(entries) and n_pass == len(entries),
        "counts": {"pass": n_pass, "fail": len(entries) - n_pass},
        "entries": entries,
    }
    return doc, 0 if doc["pass"] else 1


# -- entry point --------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    profile = os.environ.get("SL2FAMILY_PROFILE", "default")
    if profile not in PROFILES:
        parser.error(
            f"unknown SL2FAMILY_PROFILE {profile!r} (choose 'default' or 'quick')"
        )

    if args.command == "tables":
        try:
            doc, status = cmd_tables(args.which, args.M, args.grid), 0
        except ValueError as err:
            parser.error(str(err))
    elif args.command == "classify":
        try:
            obj = _load_family_json(args.family)
        except (OSError, ValueError) as err:
            parser.error(f"--family: {err}")
        doc, status = cmd_classify(obj)
    elif args.command == "analyze":
        points: List[ProjectivePoint] = list(args.point or ())
        if args.grid:
            points.extend(args.grid)
        if not points:
            parser.error("analyze needs at least one --point or --grid")
        try:
            obj = _load_family_json(args.family)
            doc, status = cmd_analyze(obj, points)
        except (OSError, ValueError) as err:
            parser.error(f"--family: {err}")
    elif args.command == "bijection":
        conf = PROFILES[profile]["bijection"]
        Rs = args.R if args.R is not None else conf["R"]
        M = args.M if args.M is not None else conf["M"]
        grid = args.grid if args.grid is not None else conf["grid"]
        if any(r == 0 for r in Rs):
            parser.error("--R values must be nonzero")
        candidate = None
        if args.candidate is not None:
            try:
                candidate = _load_family_json(args.candidate)
            except (OSError, ValueError) as err:
                parser.error(f"--candidate: {err}")
        try:
            doc, status = cmd_bijection(Rs, M, grid, candidate)
        except ValueError as err:
            parser.error(str(err))
    else:
        try:
            doc, status = cmd_verify(args.suite, profile, args.R, args.M, args.grid)
        except ValueError as err:
            parser.error(str(err))

    _emit(doc, args.format, args.out)
    return status


if __name__ == "__main__":
    sys.exit(main())
