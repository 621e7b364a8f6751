"""Command-line front end for the deformation-family toolkit.

Subcommands:

* ``tables``    emit the classification table (1) or the two admissible-dual
                tables (2: group flavor, 3: motion flavor) as JSON rows
* ``classify``  validate a family descriptor against the classification
* ``analyze``   evaluate a family at base points: factors, closed-form
                quotient, agreement
* ``bijection`` run the level-affine bijection verifier, optionally
                characterizing a candidate map
* ``verify``    run a named verification suite on its default grids, each
                overridden by its flag

All JSON output is deterministic: sorted keys, two-space indent, ASCII
escapes, canonical lowest-terms rationals.  Exit status is 0 when every
check passes, 1 when some check fails, 2 on usage errors.
"""

import argparse
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str
from typing import Dict, List, Optional, Sequence, Tuple

from .families import (
    FamilyValidationError,
    ModuleFamily,
    family_from_json,
    in_tilde_class,
    infinitesimal_character,
    intertwiner_exists,
    make_family,
    pinned_level,
)
from .fibers import (
    GROUP,
    MOTION,
    DualParam,
    composition_factors,
    dual_ktypes,
    evaluate_fiber,
    factor_containing_m,
    is_reducible,
    jantzen_quotient_formula,
    reducibility_points,
    vogan_level,
)
from .duals import characterize_bijections, check_entry, nonzero_real, verify_conjecture1
from .pbw import COMPACT, SPLIT, UEAElement, casimir, hc_projection, k_order
from .scalars import (GaussianRational, Poly, _any_digits, _check_digits, _cut, _quote,
                      parse_gaussian, parse_int, scalar_to_json)
from .sheaf import (
    CHART_INFINITY,
    ProjectivePoint,
    casimir_section,
    center_membership,
    gamma_family,
)

GENERIC_EVEN = "c(r)≠k(k+2), 0≤k even"
GENERIC_ODD = "c(r)≠k(k+2), -1≤k odd"
LEVEL_EVEN = "ω≠k(k+2), 0≤k even"
LEVEL_ODD = "ω≠k(k+2), -1≤k odd"
LEVEL_NONZERO = "c≠0"


# -- argument parsing -------------------------------------------------------


def _value_of(parse, what: str):
    """An argparse type for one value read by parse, described as what."""
    def value(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not {what}: {_quote(text)} ({exc})") from exc
    return value


def _list_of(item):
    """An argparse type for a nonempty comma-separated list of item values."""
    def parse(text: str) -> tuple:
        items = [t for t in text.split(",") if t.strip()]
        if not items:
            raise argparse.ArgumentTypeError("empty list")
        return tuple(item(t) for t in items)
    return parse


_integer = _value_of(parse_int, "an integer")
_scalar = _value_of(parse_gaussian, "an exact scalar")
_point = _value_of(ProjectivePoint.parse, "a base point")
_scalar_list = _list_of(_scalar)
_point_list = _list_of(_point)


def _load_object(value: str, what: str) -> dict:
    """Read the JSON object named what, inline (starting with '{') or from a file."""
    text = value
    if not value.lstrip().startswith("{"):
        with open(value, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        obj = json.loads(text, parse_int=parse_int)
    except RecursionError:
        raise ValueError(f"{what} nests too deeply to read") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    return obj


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("json", "text"), default="json",
                     help="output rendering (default json)")
    sub.add_argument("--out", default=None, metavar="PATH",
                     help="write the report to PATH instead of stdout")


class _Parser(argparse.ArgumentParser):
    """argparse with every usage error cut to a bounded line: its own messages
    for a bad choice, an unknown subcommand or stray arguments echo them whole."""

    def error(self, message: str):
        super().error(_cut(message))


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sl2family",
        description="Exact computations with the deformation family over the "
        "projective line: classification tables, fiberwise composition "
        "factors, and the level-affine dual bijections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("tables", help="emit table rows as JSON")
    t.add_argument("which", type=_integer, choices=(1, 2, 3),
                   help="1: family classification, 2: group dual, 3: motion dual")
    t.add_argument("--M", type=_integer, default=6, help="bound on |m| (default 6)")
    t.add_argument("--grid", type=_scalar_list, default=None, metavar="LIST",
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
    b.add_argument("--R", type=_scalar_list, default=None, metavar="LIST",
                   help="chart coordinates to verify at (default 1,2,1/2,3)")
    b.add_argument("--M", type=_integer, default=None, help="bound on |m|")
    b.add_argument("--grid", type=_scalar_list, default=None, metavar="LIST",
                   help="level samples")
    b.add_argument("--candidate", default=None, metavar="JSON|PATH",
                   help='per-m affine maps {"0": [a,b], "1": [a,b], "-1": [a,b]} '
                        "to characterize")
    _add_output_flags(b)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=tuple(_SUITES))
    v.add_argument("--R", type=_scalar_list, default=None, metavar="LIST")
    v.add_argument("--M", type=_integer, default=None)
    v.add_argument("--grid", type=_scalar_list, default=None, metavar="LIST")
    _add_output_flags(v)

    return parser


# -- rendering --------------------------------------------------------------


# how each leaf type is written, by C functions only
_JSON_LEAF = {str: _json_str, int: int.__repr__, bool: {False: "false", True: "true"}.__getitem__,
              type(None): {None: "null"}.__getitem__}


def render_json(doc) -> str:
    """doc as json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) writes
    it, plus a newline, without the pure-Python encoder an indent makes that call
    use.  Keys are str and values dict, list, str, int, bool or None (exactly those
    types); any other type, a float included, raises TypeError."""
    out: List[str] = []
    _put_json(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _put_json(obj, nl: str, out: List[str]) -> None:
    """Append obj's JSON text to out; nl is the line break and indent inside obj."""
    t = type(obj)
    leaf = _JSON_LEAF.get(t)
    if leaf is not None:
        out.append(leaf(obj))
    elif t is not dict and t is not list:
        raise TypeError(f"cannot render {t.__name__} as JSON")
    elif not obj:
        out.append("{}" if t is dict else "[]")
    elif t is dict:
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):
            v = obj[key]
            leaf = _JSON_LEAF.get(type(v))
            if leaf is not None:
                out.append(f"{sep}{_json_str(key)}: {leaf(v)}")
            else:
                out.append(f"{sep}{_json_str(key)}: ")
                _put_json(v, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        inner = nl + "  "
        sep = "[" + inner
        for v in obj:
            leaf = _JSON_LEAF.get(type(v))
            if leaf is not None:
                out.append(sep + leaf(v))
            else:
                out.append(sep)
                _put_json(v, inner, out)
            sep = "," + inner
        out.append(nl + "]")


def _text_scalar(v) -> str:
    if v is None:
        return "~"
    if v is True:
        return "true"
    if v is False:
        return "false"
    return str(v)


def _text_lines(obj, indent: int = 0) -> List[str]:
    """The lines of a dict (sorted "key: value") or a list ("- value"); a
    nonempty dict or list value goes on the lines below, one level deeper."""
    pad = "  " * indent
    lines: List[str] = []
    items = (((f"{k}:", obj[k]) for k in sorted(obj)) if isinstance(obj, dict)
             else (("-", v) for v in obj))
    for head, v in items:
        if isinstance(v, (dict, list)) and v:
            lines.append(pad + head)
            lines.extend(_text_lines(v, indent + 1))
        else:
            lines.append(f"{pad}{head} {_text_scalar(v)}")
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
        try:
            sys.stdout.write(payload)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader is gone; send the rest, and the flush at exit, nowhere
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


# -- tables -----------------------------------------------------------------


# which -> (key of the level column, chart coordinate R of the dual: None for
# the group fiber at r = 0, 0 for the motion fiber; the generic-level text by
# parity of m).  A family with constant c(r) = z has the K-types of the
# group-dual parameter (z, m), so table 1 reads its rows from the group dual.
_TABLES = {
    1: ("casimir", None, (GENERIC_EVEN, GENERIC_ODD)),
    2: ("level", None, (LEVEL_EVEN, LEVEL_ODD)),
    3: ("level", 0, (LEVEL_NONZERO, LEVEL_NONZERO)),
}


def _table_rows(M: int, key: str, R, generic: Tuple[str, str]) -> List[dict]:
    """The rows with |m| <= M.  A free level (|m| <= 1) gets a row for every
    level off the walls, shown as generic[parity] with the K-types of level 1,
    and a row for each wall: the group levels k(k+2), k of the parity of m,
    from the limit rays up, or the motion level 0.  A fixed level gets one row."""
    flavor = MOTION if R == 0 else GROUP
    rows: List[dict] = []
    for m in range(-M, M + 1):
        if abs(m) > 1:
            levels = [(vogan_level(flavor, m),) * 2]
        else:
            walls = [k * (k + 2) for k in range(-abs(m), M + 1, 2)] if flavor == GROUP else [0]
            levels = [(generic[m % 2], 1), *((w, w) for w in walls)]
        rows.extend({"m": m, key: shown, "ktypes": str(dual_ktypes(DualParam(lv, m, R)))}
                    for shown, lv in levels)
    return rows


def cmd_tables(which: int, M: int, grid: Optional[Sequence] = None) -> dict:
    """Rows of table 1 (families), 2 (group dual), or 3 (motion dual)."""
    if M < 0:
        raise ValueError("the K-type bound M must be >= 0")
    key, R, generic = _TABLES[which]
    rows = _table_rows(M, key, R, generic)
    doc = {"table": which, "M": M, "rows": rows}
    if grid is not None:
        # the concrete rows at the grid levels, each not yet listed
        seen = set(map(render_json, rows))
        for v in grid:
            for m in range(-M, M + 1):
                try:
                    q = DualParam(v, m, R)
                except ValueError:  # off the table
                    continue
                row = {"m": m, key: scalar_to_json(q.level), "ktypes": str(dual_ktypes(q))}
                text = render_json(row)
                if text not in seen:
                    seen.add(text)
                    rows.append(row)
        doc["grid"] = [scalar_to_json(v) for v in grid]
    return doc


# -- classify / analyze -----------------------------------------------------


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
        "family": fam.to_json(),
        "tilde": {"member": member, "reason": reason},
        "characters": {cartan: _character_doc(fam, cartan) for cartan in ("compact", "split")},
    }
    return doc, 0


def cmd_analyze(obj: dict, points: Sequence[ProjectivePoint]) -> Tuple[dict, int]:
    """Per-point fiber reports with the closed-form quotient cross-check."""
    fam = family_from_json(obj)
    member, reason = in_tilde_class(fam)
    # a non-real c(r) has no real-line locus, yet each of its fibers decomposes
    locus = reducibility_points(fam).to_json() if intertwiner_exists(fam) else None
    entries: List[dict] = []
    all_agree = True
    for p in points:
        fib = evaluate_fiber(fam, p)
        dec = composition_factors(fib)
        cont = next(f.param for f in dec.factors if fam.m in f.ktypes)
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
        "family": fam.to_json(),
        "tilde": {"member": member, "reason": reason},
        "locus": locus,
        "points": entries,
        "pass": all_agree,
    }
    return doc, 0 if all_agree else 1


# -- bijection / verify -----------------------------------------------------


def _parse_candidate(obj: dict) -> Dict[int, tuple]:
    out: Dict[int, tuple] = {}
    for key, pair in obj.items():
        _check_digits(key, "candidate key")
        try:
            m = int(key)
        except ValueError:
            raise ValueError(f"candidate key {_quote(key)} is not an integer m") from None
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ValueError(f"candidate entry for m={m} must be a pair [a, b]")
        try:
            out[m] = tuple(GaussianRational.from_json(x) for x in pair)
        except ValueError as err:
            raise ValueError(f"candidate entry for m={m}: {err}") from None
    return out


def _reports(Rs: Sequence, M: int, grid: Sequence) -> List[dict]:
    """One verify_conjecture1 report per distinct chart coordinate R, in the
    order of first occurrence; every R is checked before the first check runs."""
    reports = []
    for R in dict.fromkeys([nonzero_real(R) for R in Rs]):
        ok, entries = verify_conjecture1(R, M, grid)
        reports.append({"R": scalar_to_json(R), "pass": ok, "entries": entries})
    return reports


def cmd_bijection(Rs: Sequence, M: int, grid: Sequence,
                  candidate: Optional[dict] = None) -> Tuple[dict, int]:
    """Verify the dual bijection at each R; characterize a candidate map."""
    reports = _reports(Rs, M, grid)
    all_ok = all(rep["pass"] for rep in reports)
    doc = {
        "M": M,
        "grid": [scalar_to_json(z) for z in grid],
        "pass": all_ok,
        "reports": reports,
        "characterization": None,
    }
    if candidate is not None:
        doc["characterization"] = characterize_bijections(_parse_candidate(candidate)).to_json()
    return doc, 0 if all_ok else 1


def _suite_conjecture2(M: int, grid: Sequence, points: Sequence[str]) -> List[dict]:
    """grid: the c2 values of the families c(r) = c2*r^2 - 1 for |m| <= 1."""
    entries: List[dict] = []
    labeled: List[Tuple[str, ModuleFamily]] = []
    for m in range(-M, M + 1):
        if abs(m) <= 1:
            for c2 in grid:
                fam = make_family(m, Poly.of([-1, 0, GaussianRational.of(c2)], "r"))
                labeled.append((f"m={m} c2={c2}", fam))
        else:
            labeled.append((f"m={m} pinned", make_family(m, pinned_level(m))))
    pts = [ProjectivePoint.parse(t) for t in points]
    for label, fam in labeled:
        for p in pts:
            formula = jantzen_quotient_formula(fam, p)
            ladder = factor_containing_m(evaluate_fiber(fam, p))
            entries.append(check_entry("jantzen-quotient", f"{label} at {p}", formula == ladder,
                                       f"closed form {formula}, ladder factor {ladder}"))
    return entries


def _suite_bijection(R: Sequence, M: int, grid: Sequence) -> List[dict]:
    return [e for rep in _reports(R, M, grid) for e in rep["entries"]]


def _suite_appendix(M: int) -> List[dict]:
    entries: List[dict] = []
    base = casimir(COMPACT)
    power = UEAElement.one(COMPACT)
    for n in range(1, M + 1):
        power = power * base
        ko = k_order(power)
        entries.append(check_entry("order-equality", f"Casimir^{n}", ko == 2 * n,
                                   f"k_order = {ko}, expected 2n = {2 * n}"))
        for cartan in ("compact", "split"):
            kh = k_order(hc_projection(power, cartan))
            entries.append(check_entry("order-inequality", f"hc(Casimir^{n}), {cartan} Cartan",
                                       kh <= 2 * n, f"k_order(hc) = {kh} <= {2 * n}"))
    return entries


def _suite_regularity(M: int) -> List[dict]:
    entries: List[dict] = []
    om = casimir(COMPACT)
    for cartan, basis in (("compact", COMPACT), ("split", SPLIT)):
        h_sq_minus_1 = UEAElement(basis, {(0, 2, 0): 1, (0, 0, 0): -1})
        entries.append(check_entry("cartan-projection", f"Casimir, {cartan} Cartan",
                                   hc_projection(om, cartan) == h_sq_minus_1,
                                   "projection is h^2 - 1 after the shift"))
    inf = ProjectivePoint.infinity()
    om_inf = casimir_section(CHART_INFINITY)
    power = om_inf
    for n in range(1, M + 1):
        if n > 1:
            power = power * om_inf
        entries.append(check_entry("center-membership", f"(R^2*Casimir)^{n}",
                                   center_membership(power),
                                   "decomposes into Casimir powers with polynomial coefficients"))
        for cartan in ("compact", "split"):
            g = gamma_family(power, cartan)
            entries.append(check_entry("regular-at-infinity",
                                       f"gamma((R^2*Casimir)^{n}), {cartan} Cartan",
                                       g.is_regular_at(inf),
                                       "image coefficients have the required vanishing order"))
    return entries


# suite -> (check function, settings keyed by the flag that overrides each
# one; "points" has no flag)
_SUITES = {
    "conjecture2": (_suite_conjecture2, {
        "M": 4,
        "grid": (-4, -1, 0, 1, 3, 8, 15),
        "points": ("r=1", "r=-1", "r=2", "r=-2", "r=3", "r=-3", "r=1/2", "r=-1/2", "inf"),
    }),
    "bijection": (_suite_bijection, {
        "R": (1, 2, Fraction(1, 2), 3),
        "M": 6,
        "grid": (0, 1, -1, 2, -2, 4, -4, Fraction(-9, 4), 3, 8, 15, GaussianRational(1, 1)),
    }),
    "appendix": (_suite_appendix, {"M": 3}),
    "regularity": (_suite_regularity, {"M": 3}),
}


def _settings(suite: str, **flags) -> dict:
    """The settings of suite, each overridden by its flag when given; a flag
    the suite does not read is a ValueError."""
    settings = dict(_SUITES[suite][1])
    for flag, value in flags.items():
        if value is not None:
            if flag not in settings:
                raise ValueError(f"verify {suite} takes no --{flag}")
            settings[flag] = value
    return settings


def cmd_verify(suite: str, Rs: Optional[Sequence] = None, M: Optional[int] = None,
               grid: Optional[Sequence] = None) -> Tuple[dict, int]:
    """Run one named suite on its settings, each overridden by its flag."""
    settings = _settings(suite, R=Rs, M=M, grid=grid)
    if settings["M"] < 0:
        bound = "Casimir power" if suite in ("appendix", "regularity") else "K-type"
        raise ValueError(f"the {bound} bound M must be >= 0")
    entries = _SUITES[suite][0](**settings)
    n_pass = sum(1 for e in entries if e["pass"])
    doc = {
        "suite": suite,
        "profile": "default",  # the one settings table; kept so reports stay comparable
        # a suite that ran no checks has shown nothing
        "pass": bool(entries) and n_pass == len(entries),
        "counts": {"pass": n_pass, "fail": len(entries) - n_pass},
        "entries": entries,
    }
    return doc, 0 if doc["pass"] else 1


# -- entry point --------------------------------------------------------------


# every reader bounds its digits itself; the interpreter's bound would only stop output
@_any_digits()
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    flag = ""  # names the flag whose value is being read, in a usage error
    try:
        if args.command == "tables":
            doc, status = cmd_tables(args.which, args.M, args.grid), 0
        elif args.command == "classify":
            flag = "--family: "
            doc, status = cmd_classify(_load_object(args.family, "family descriptor"))
        elif args.command == "analyze":
            points = [*(args.point or ()), *(args.grid or ())]
            if not points:
                raise ValueError("analyze needs at least one --point or --grid")
            flag = "--family: "
            doc, status = cmd_analyze(_load_object(args.family, "family descriptor"), points)
        elif args.command == "bijection":
            conf = _settings("bijection", R=args.R, M=args.M, grid=args.grid)
            flag = "--candidate: "
            candidate = None if args.candidate is None else _load_object(args.candidate, "candidate")
            flag = ""
            doc, status = cmd_bijection(conf["R"], conf["M"], conf["grid"], candidate)
        else:
            doc, status = cmd_verify(args.suite, args.R, args.M, args.grid)
        flag = "--out: " if args.out else ""
        _emit(doc, args.format, args.out)
    except (OSError, ValueError) as err:
        parser.error(f"{flag}{err}")
    except KeyboardInterrupt:  # one line and the shell's status for SIGINT, no traceback
        print(f"{parser.prog}: interrupted", file=sys.stderr)
        return 130
    return status


if __name__ == "__main__":
    sys.exit(main())
