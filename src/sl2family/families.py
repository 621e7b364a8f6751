"""Algebraic families of Harish-Chandra modules over the finite chart.

A family is classified by its minimal K-type m, its K-type set I, and the
degree-two polynomial c(r) by which the Casimir section acts.  The valid
combinations form a short table:

    m = 0     I = 2Z       c(r) arbitrary, but not constantly k(k+2) for even k >= 0
    m = 0     I = -k..k    c(r) = k(k+2), k >= 0 even
    m = +-1   I = 2Z+1     c(r) not constantly k(k+2) for odd k >= -1
    m = +-1   I = -k..k    c(r) = k(k+2), k >= 1 odd
    m = 1     I = 1,3,...  c(r) = -1        (and the mirror ray for m = -1)
    m = d>1   I = d,d+2,.. c(r) = d(d-2)    (lowest-weight ladders)
    m = d<-1  I = d,d-2,.. c(r) = d(d+2)    (highest-weight ladders)

The table lives in two functions: ``pinned_level(m)`` gives the level a
minimal K-type |m| >= 1 pins, and ``ktypes_at(m, level)`` gives the one
K-type set of the row at (m, level).  Family validation, K-type inference,
the K-types of group-dual parameters (``fibers.dual_ktypes``) and the CLI's
tables 1 and 2 all read the classification from there.  Every
``ModuleFamily`` is a row of the table: its constructor raises a
``FamilyValidationError`` on any other triple.

Everything here is exact: coefficients live in Q(i).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt
from typing import Iterator, Optional, Tuple

from .scalars import (GR_ZERO, GaussianRational, Poly, _check_digits, _cut, _int_head,
                      _quote, has_gaussian_sqrt, scalar_to_json)
from .sheaf import CHART_FINITE, chart_variable

ALL_EVEN = "all_even"
ALL_ODD = "all_odd"
WINDOW = "window"
RAY_UP = "ray_up"
RAY_DOWN = "ray_down"
SINGLETON = "singleton"

# kind -> the least member, the greatest member (None on an unbounded side)
# and the printed form with each int written by num, as functions of param
_SHAPES = {
    ALL_EVEN: (lambda p: None, lambda p: None, lambda p, num: "2Z"),
    ALL_ODD: (lambda p: None, lambda p: None, lambda p, num: "2Z+1"),
    WINDOW: (lambda p: -p, lambda p: p, lambda p, num: f"{num(-p)}..{num(p)}"),
    RAY_UP: (lambda p: p, lambda p: None, lambda p, num: f"{num(p)},{num(p + 2)},..."),
    RAY_DOWN: (lambda p: None, lambda p: p, lambda p, num: f"{num(p)},{num(p - 2)},..."),
    SINGLETON: (lambda p: p, lambda p: p, lambda p, num: f"{{{num(p)}}}"),
}


@dataclass(frozen=True)
class KTypeSet:
    """A set of integer K-types of fixed parity, in one of six shapes."""

    kind: str
    param: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _SHAPES:
            raise ValueError(f"unknown K-type set kind {_quote(self.kind)}")
        if self.kind in (ALL_EVEN, ALL_ODD):
            if self.param is not None:
                raise ValueError(f"{self.kind} takes no parameter")
        elif not isinstance(self.param, int) or isinstance(self.param, bool):
            raise ValueError(f"{self.kind} needs an integer parameter")
        elif self.kind == WINDOW and self.param < 0:
            raise ValueError("window size k must be >= 0")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def all_even() -> "KTypeSet":
        return KTypeSet(ALL_EVEN)

    @staticmethod
    def all_odd() -> "KTypeSet":
        return KTypeSet(ALL_ODD)

    @staticmethod
    def window(k: int) -> "KTypeSet":
        return KTypeSet(WINDOW, k)

    @staticmethod
    def ray_up(d: int) -> "KTypeSet":
        return KTypeSet(RAY_UP, d)

    @staticmethod
    def ray_down(d: int) -> "KTypeSet":
        return KTypeSet(RAY_DOWN, d)

    @staticmethod
    def singleton(n: int) -> "KTypeSet":
        return KTypeSet(SINGLETON, n)

    # -- set structure -----------------------------------------------------

    @property
    def parity(self) -> int:
        return int(self.kind == ALL_ODD) if self.param is None else self.param % 2

    def contains(self, n: int) -> bool:
        lo, hi = self.bounds
        return n % 2 == self.parity and (lo is None or lo <= n) and (hi is None or n <= hi)

    __contains__ = contains

    @property
    def is_finite(self) -> bool:
        return None not in self.bounds

    @cached_property
    def bounds(self) -> Tuple[Optional[int], Optional[int]]:
        """The least and the greatest member, None on an unbounded side."""
        least, greatest, _ = _SHAPES[self.kind]
        return least(self.param), greatest(self.param)

    def minimal(self) -> int:
        """The member of smallest absolute value, ties broken positive.

        That is the parity's representative 0 or 1, clamped into the bounds.
        """
        n = self.parity
        lo, hi = self.bounds
        if lo is not None and n < lo:
            return lo
        if hi is not None and n > hi:
            return hi
        return n

    @property
    def has_edge(self) -> bool:
        """Whether some pair (n, n+2) lies entirely in the set."""
        lo, hi = self.bounds
        return None in (lo, hi) or lo < hi

    def members(self, lo: int, hi: int) -> Iterator[int]:
        """The members in [lo, hi], ascending."""
        least, greatest = self.bounds
        lo = lo if least is None else max(lo, least)
        hi = hi if greatest is None else min(hi, greatest)
        yield from range(lo if lo % 2 == self.parity else lo + 1, hi + 1, 2)

    # -- rendering ---------------------------------------------------------

    def __str__(self, num=str) -> str:
        """The printed form ``from_json`` reads, each int written by num."""
        return _SHAPES[self.kind][2](self.param, num)

    @staticmethod
    def from_json(obj) -> "KTypeSet":
        """Read {"kind", "param"?}, or a printed form: a name of ``_KIND_NAMES``
        that takes no parameter, "-k..k", "{n}", or a ray "d,d+2,..." / "d,d-2,...".
        Anything else, an object without a string "kind" included, is a ValueError."""
        if not isinstance(obj, str):
            kind = obj.get("kind") if isinstance(obj, dict) else None
            if not isinstance(kind, str):
                raise ValueError(f"cannot parse K-type set {_quote(obj)}")
            return KTypeSet(_KIND_NAMES.get(kind, kind), obj.get("param"))
        t = obj.strip()
        _check_digits(t, "K-type set")
        if _KIND_NAMES.get(t) in (ALL_EVEN, ALL_ODD):
            return KTypeSet(_KIND_NAMES[t])
        ray = t.endswith(",...")
        try:
            if t.startswith("{") and t.endswith("}"):
                return KTypeSet.singleton(int(t[1:-1]))
            terms = [int(p) for p in (t[:-4].split(",") if ray else t.split(".."))]
        except ValueError:
            raise ValueError(f"cannot parse K-type set {_quote(obj)}") from None
        steps = {b - a for a, b in zip(terms, terms[1:])}
        if ray and steps in ({2}, {-2}):
            return KTypeSet(RAY_UP if steps == {2} else RAY_DOWN, terms[0])
        if not ray and len(terms) == 2:
            if terms[0] != -terms[1]:
                raise ValueError(f"window must be symmetric, got {_quote(obj)}")
            return KTypeSet.window(terms[1])
        raise ValueError(f"cannot parse K-type set {_quote(obj)}")


# Every name a K-type set kind goes by in JSON, to the kind.  "rayUp" and
# "rayDown" as a whole descriptor "ktypes" string mean the ray from m.
_KIND_NAMES = {
    "2Z": ALL_EVEN, "allEven": ALL_EVEN, ALL_EVEN: ALL_EVEN,
    "2Z+1": ALL_ODD, "allOdd": ALL_ODD, ALL_ODD: ALL_ODD,
    "rayUp": RAY_UP, RAY_UP: RAY_UP,
    "rayDown": RAY_DOWN, RAY_DOWN: RAY_DOWN,
    WINDOW: WINDOW,
    SINGLETON: SINGLETON,
}


def _word(v):
    """A value named in a FamilyValidationError detail, with each of its ints
    written by ``_int_head``: whatever the detail's cut keeps reads as in
    full, and no long int is written out."""
    if type(v) is int:
        return _int_head(v)
    if isinstance(v, (GaussianRational, Poly, KTypeSet)):
        return v.__str__(_int_head)
    return v


class FamilyValidationError(ValueError):
    """A (m, ktypes, casimir) triple that matches no classification row."""

    def __init__(self, code: str, detail: str, **words) -> None:
        if words:  # detail is a template, and the values it names may be long
            detail = detail.format(**{k: _word(v) for k, v in words.items()})
        detail = _cut(detail)
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


def _as_casimir(c) -> Poly:
    if isinstance(c, Poly):
        p = c
    elif isinstance(c, (list, tuple)):
        p = Poly.of(list(c), "r")
    else:
        p = Poly.const(c, "r")
    if p.var != "r":
        raise FamilyValidationError(
            "casimir-variable", f"casimir must be a polynomial in r, got {p.var}"
        )
    if p.degree() > 2:
        raise FamilyValidationError(
            "casimir-degree",
            f"casimir acts by a polynomial of degree <= 2, got degree {p.degree()}",
        )
    return p


def wall_index(value) -> Optional[int]:
    """Solve k(k+2) = value for an integer k >= -1, or return None.

    That is value + 1 = (k+1)^2: value + 1 must be an integer square.
    """
    v = GaussianRational.of(value)
    n = v.re_num + 1 if v.den == 1 and not v.im_num else -1  # n < 0 is no square
    root = isqrt(n) if n >= 0 else 0
    return root - 1 if root * root == n else None


@dataclass(frozen=True)
class ModuleFamily:
    """Classification data of an algebraic family of Harish-Chandra modules,
    always a table row: an off-table triple raises FamilyValidationError.
    ``ktypes=None`` infers the K-types from the table row of (m, casimir)."""

    m: int
    ktypes: Optional[KTypeSet]
    casimir: Poly

    def __post_init__(self) -> None:
        c = _as_casimir(self.casimir)
        object.__setattr__(self, "casimir", c)
        if self.ktypes is None:
            kt = ktypes_at(self.m, self.casimir_value())
            if kt is None:
                raise FamilyValidationError(
                    "row-mismatch", "minimal K-type {m} forces c(r) = {want} constantly, got {c}",
                    m=self.m, want=pinned_level(self.m), c=c)
            object.__setattr__(self, "ktypes", kt)
        if self.m % 2 != self.ktypes.parity:
            raise FamilyValidationError("parity-mismatch", "minimal K-type {m} has different "
                                        "parity than {kt}", m=self.m, kt=self.ktypes)
        if not self.ktypes.contains(self.m):
            raise FamilyValidationError("minimal-ktype-missing", "minimal K-type {m} is not a "
                                        "member of {kt}", m=self.m, kt=self.ktypes)
        _validate_row(self)

    @property
    def c2(self) -> GaussianRational:
        return self.casimir.coeff(2)

    @property
    def c1(self) -> GaussianRational:
        return self.casimir.coeff(1)

    @property
    def c0(self) -> GaussianRational:
        return self.casimir.coeff(0)

    def casimir_value(self) -> Optional[GaussianRational]:
        """The constant value of c(r), or None when c is non-constant."""
        if self.casimir.is_constant:
            return self.casimir.coeff(0)
        return None

    def __str__(self) -> str:
        return f"family(m={self.m}, I={self.ktypes}, c(r)={self.casimir})"

    def to_json(self) -> dict:
        """The descriptor ``family_from_json`` reads back: the K-type set as
        printed and the coefficients c0, c1, c2 as compact scalars."""
        return {"m": self.m, "ktypes": str(self.ktypes),
                "casimir": [scalar_to_json(self.casimir.coeff(k)) for k in range(3)]}


def pinned_level(m: int) -> int:
    """The Casimir level pinned by a minimal K-type m with |m| >= 1.

    m(m-2) for m >= 1 and m(m+2) for m <= -1: the level of the ladder
    from m away from zero, which is -1 for the two limit rays at m = +-1.
    (At m = 0 it gives 0, a level no ray of the table has.)
    """
    return m * (m - 2) if m > 0 else m * (m + 2)


def ktypes_at(m: int, level) -> Optional[KTypeSet]:
    """The K-type set of the table row at (m, level), or None off the table.

    level is the constant value of c(r), or None for a non-constant c(r).
    """
    if abs(m) > 1:
        if level is None or level != pinned_level(m):
            return None
        return KTypeSet.ray_up(m) if m > 0 else KTypeSet.ray_down(m)
    k = wall_index(level) if level is not None else None
    if k is None or k % 2 != m % 2:
        return KTypeSet.all_odd() if m else KTypeSet.all_even()
    if k == -1:
        return KTypeSet.ray_up(1) if m == 1 else KTypeSet.ray_down(-1)
    return KTypeSet.window(k)


def make_family(m: int, casimir, ktypes: Optional[KTypeSet] = None) -> ModuleFamily:
    """``ModuleFamily(m, ktypes, casimir)``, with the K-types last and
    optional; raises FamilyValidationError off-table."""
    return ModuleFamily(m, ktypes, casimir)


# Per K-type shape: the rejection when m is not a minimal K-type of the set,
# the rejection when c(r) misses the level of the set's row, and that level
# as a function of the shape's parameter p.
_FULL = ("the full {par} ladder has minimal K-type {lows}, not {m}",
         "c(r) constantly {cv} = {k}({k}+2) on the full {par} ladder demands "
         "a window or ray instead",
         lambda p: None)
_REJECTIONS = {
    ALL_EVEN: _FULL,
    ALL_ODD: _FULL,
    WINDOW: ("{par} window has minimal K-type {lows}, not {m}",
             "window -{p}..{p} requires c(r) = {want} constantly, got {c}",
             lambda p: p * (p + 2)),
    RAY_UP: ("upward ray from {p} has minimal K-type {p}, not {m}",
             "upward ray from {p} requires c(r) = {want} constantly, got {c}",
             pinned_level),
    RAY_DOWN: ("downward ray from {p} has minimal K-type {p}, not {m}",
               "downward ray from {p} requires c(r) = {want} constantly, got {c}",
               pinned_level),
}
# a ray from p that points toward zero is on no row
_WRONG_WAY = {
    RAY_UP: "upward rays exist only for d >= 1, got d = {p}",
    RAY_DOWN: "downward rays exist only for d <= -1, got d = {p}",
}


def _validate_row(fam: ModuleFamily) -> None:
    m, kt, cv = fam.m, fam.ktypes, fam.casimir_value()
    if kt.kind == SINGLETON:
        raise FamilyValidationError(
            "singleton-not-a-family",
            "a single K-type supports no family; singletons only occur as fibers",
        )
    if ktypes_at(m, cv) == kt:
        return
    p, ray = kt.param, kt.kind in (RAY_UP, RAY_DOWN)
    mismatch, off_level, row_level = _REJECTIONS[kt.kind]
    words = dict(m=m, p=p, par=("even", "odd")[kt.parity], lows=("0", "1 or -1")[kt.parity],
                 c=fam.casimir, cv=cv, want=row_level(p),  # only _FULL prints k
                 k=wall_index(cv) if _REJECTIONS[kt.kind] is _FULL and cv is not None else None)
    if (m != p) if ray else abs(m) > 1:
        raise FamilyValidationError("minimal-ktype-mismatch", mismatch, **words)
    if ray and ktypes_at(p, pinned_level(p)) != kt:
        raise FamilyValidationError("row-mismatch", _WRONG_WAY[kt.kind], **words)
    raise FamilyValidationError("row-mismatch", off_level, **words)


def in_tilde_class(fam: ModuleFamily) -> Tuple[bool, str]:
    """Whether the family extends across the whole projective line.

    Returns (answer, reason).  For |m| > 1 every family extends.  For
    |m| <= 1 the split-Cartan infinitesimal character forces the Casimir
    polynomial into the shape c2*r^2 - 1.  The table row of such a c(r)
    fixes the K-types: the full ladder of m's parity, except the one-sided
    ray from m = +-1 when c2 = 0.
    """
    if abs(fam.m) > 1:
        return True, "discrete ladder families always extend"
    if fam.c1 != 0 or fam.c0 != -1:
        return (
            False,
            f"extension requires c(r) = c2*r^2 - 1, got c(r) = {fam.casimir}",
        )
    if fam.m == 0:
        return True, "c(r) = c2*r^2 - 1 on the full even ladder"
    if fam.c2 == 0:
        return True, "limit ray with c(r) = -1"
    return True, "c(r) = c2*r^2 - 1 on the full odd ladder"


@dataclass(frozen=True)
class LadderAction:
    """Raising/lowering coefficient tables for a family, in one chart.

    up(n) is the coefficient of f_{n+2} in X.f_n and down(n) the
    coefficient of f_{n-2} in Y.f_n, both as exact polynomials in the
    chart coordinate; callers truncate to the K-type support.  Unit
    coefficients point away from the minimal K-type.  In the chart at
    infinity the basis rescaling turns the non-unit coefficient
    (1/4)(c(r) - n(n+-2)) into (1/4)(c2 + c1 R + (c0 - n(n+-2)) R^2).
    """

    chart: str
    m: int
    casimir: Poly

    @property
    def var(self) -> str:
        return chart_variable(self.chart)

    def _nonunit(self, wall: int) -> Poly:
        c, quarter = self.casimir, Fraction(1, 4)
        coeffs = [(c.coeff(0) - wall) * quarter, c.coeff(1) * quarter, c.coeff(2) * quarter]
        return Poly.of(coeffs if self.chart == CHART_FINITE else coeffs[::-1], self.var)

    def up(self, n: int) -> Poly:
        if self.m <= n:
            return Poly.const(1, self.var)
        return self._nonunit(n * (n + 2))

    def down(self, n: int) -> Poly:
        if self.m >= n:
            return Poly.const(1, self.var)
        return self._nonunit(n * (n - 2))


def ladder_action(fam: ModuleFamily, chart: str = CHART_FINITE) -> LadderAction:
    chart_variable(chart)  # a ValueError for an unknown chart
    return LadderAction(chart, fam.m, fam.casimir)


@dataclass(frozen=True)
class InfChar:
    """Existence record for a family-wise infinitesimal character."""

    exists: bool
    alpha0: Optional[GaussianRational] = None
    alpha1: Optional[GaussianRational] = None
    in_field: bool = False


def infinitesimal_character(fam: ModuleFamily, cartan: str) -> InfChar:
    """Solve for a character psi with psi(h)^2 - 1 = c(r) on the given Cartan.

    Compact Cartan: psi(h) = alpha0 is constant, so c(r) must be constant
    with alpha0^2 = c0 + 1.  Split Cartan: psi(h) = alpha1*r + alpha0, and
    matching coefficients forces alpha1^2 = c2, 2*alpha0*alpha1 = c1,
    alpha0^2 = c0 + 1; solvable over C iff c1^2 = 4*c2*(c0 + 1) when
    c2 != 0, or c1 = 0 when c2 = 0.  Witnesses are reported in Q(i) when
    the square roots land there.
    """
    if cartan not in ("compact", "split"):
        raise ValueError(f"unknown cartan {cartan!r}")
    c2, c1, c0 = fam.c2, fam.c1, fam.c0
    if cartan == "compact" or c2 == 0:
        if c2 != 0 or c1 != 0:
            return InfChar(False)
        a = has_gaussian_sqrt(c0 + 1)
        if a is None:
            return InfChar(True, None, None, False)
        return InfChar(True, a, GR_ZERO, True)
    if c1 * c1 != 4 * c2 * (c0 + 1):
        return InfChar(False)
    a1 = has_gaussian_sqrt(c2)
    if a1 is None:
        return InfChar(True, None, None, False)
    a0 = c1 / (2 * a1)
    return InfChar(True, a0, a1, True)


def intertwiner_exists(fam: ModuleFamily) -> bool:
    """Whether the family admits the contravariant pairing used for
    Jantzen analysis: the Casimir polynomial must be real on the real line."""
    return fam.c2.is_real and fam.c1.is_real and fam.c0.is_real


def _reject_unknown_keys(obj: dict, known: Tuple[str, ...], what: str) -> None:
    unknown = [k for k in obj if k not in known]
    if unknown:
        raise FamilyValidationError("descriptor-bad-field",
                                    f"unknown {what} key {_quote(unknown[0])}")


def family_from_json(obj: dict) -> ModuleFamily:
    """Build a validated family from {"m", "casimir", "ktypes"?} JSON."""
    _reject_unknown_keys(obj, ("m", "casimir", "ktypes"), "descriptor")
    if "m" not in obj or "casimir" not in obj:
        raise FamilyValidationError(
            "descriptor-missing-field", 'family descriptor needs "m" and "casimir"'
        )
    m = obj["m"]
    if not isinstance(m, int) or isinstance(m, bool):
        raise FamilyValidationError("descriptor-bad-field", '"m" must be an integer')
    cas, var = obj["casimir"], "r"
    if isinstance(cas, dict):
        _reject_unknown_keys(cas, ("coeffs", "var"), '"casimir"')
        cas, var = cas.get("coeffs"), cas.get("var")
        if not isinstance(cas, (list, tuple)) or not isinstance(var, str):
            raise FamilyValidationError(
                "descriptor-bad-field", '"casimir" object needs a "coeffs" list and a "var" string'
            )
    try:
        coeffs = [GaussianRational.from_json(x)
                  for x in (cas if isinstance(cas, (list, tuple)) else [cas])]
    except ValueError as exc:
        raise FamilyValidationError("descriptor-bad-field", str(exc)) from exc
    kt = obj.get("ktypes")
    ray = _KIND_NAMES.get(kt.strip()) if isinstance(kt, str) else None
    if ray in (RAY_UP, RAY_DOWN):
        ktypes: Optional[KTypeSet] = KTypeSet(ray, m)
    elif kt is not None:
        if isinstance(kt, dict):
            _reject_unknown_keys(kt, ("kind", "param"), '"ktypes"')
        try:
            ktypes = KTypeSet.from_json(kt)
        except ValueError as exc:
            raise FamilyValidationError(
                "descriptor-bad-field", f'cannot read "ktypes": {exc}'
            ) from exc
    else:
        ktypes = None
    return make_family(m, Poly.of(coeffs, var), ktypes)
