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
tables 1 and 2 all read the classification from there.

Everything here is exact: coefficients live in Q(i).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Optional, Tuple

from .scalars import (
    GR_ZERO,
    GaussianRational,
    Poly,
    has_gaussian_sqrt,
)

ALL_EVEN = "all_even"
ALL_ODD = "all_odd"
WINDOW = "window"
RAY_UP = "ray_up"
RAY_DOWN = "ray_down"
SINGLETON = "singleton"

_KINDS = (ALL_EVEN, ALL_ODD, WINDOW, RAY_UP, RAY_DOWN, SINGLETON)


@dataclass(frozen=True)
class KTypeSet:
    """A set of integer K-types of fixed parity, in one of six shapes."""

    kind: str
    param: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown K-type set kind {self.kind!r}")
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
        if self.kind == ALL_EVEN:
            return 0
        if self.kind == ALL_ODD:
            return 1
        return self.param % 2

    def contains(self, n: int) -> bool:
        lo, hi = self.bounds
        return n % 2 == self.parity and (lo is None or lo <= n) and (hi is None or n <= hi)

    __contains__ = contains

    @property
    def is_finite(self) -> bool:
        return self.kind in (WINDOW, SINGLETON)

    @property
    def unbounded_above(self) -> bool:
        return self.kind in (ALL_EVEN, ALL_ODD, RAY_UP)

    @property
    def unbounded_below(self) -> bool:
        return self.kind in (ALL_EVEN, ALL_ODD, RAY_DOWN)

    @cached_property
    def bounds(self) -> Tuple[Optional[int], Optional[int]]:
        """The least and the greatest member, None on an unbounded side."""
        p = self.param
        if self.kind == WINDOW:
            return -p, p
        return (p if self.kind in (RAY_UP, SINGLETON) else None,
                p if self.kind in (RAY_DOWN, SINGLETON) else None)

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
        if self.kind == SINGLETON:
            return False
        if self.kind == WINDOW:
            return self.param >= 1
        return True

    def members(self, lo: int, hi: int) -> Iterator[int]:
        """The members in [lo, hi], ascending."""
        least, greatest = self.bounds
        lo = lo if least is None else max(lo, least)
        hi = hi if greatest is None else min(hi, greatest)
        yield from range(lo if lo % 2 == self.parity else lo + 1, hi + 1, 2)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if self.kind == ALL_EVEN:
            return "2Z"
        if self.kind == ALL_ODD:
            return "2Z+1"
        if self.kind == WINDOW:
            return f"{-self.param}..{self.param}"
        if self.kind == RAY_UP:
            return f"{self.param},{self.param + 2},..."
        if self.kind == RAY_DOWN:
            return f"{self.param},{self.param - 2},..."
        return f"{{{self.param}}}"

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.param is not None:
            out["param"] = self.param
        return out

    @staticmethod
    def from_json(obj) -> "KTypeSet":
        if isinstance(obj, str):
            return _ktypes_from_string(obj)
        kind = _KIND_ALIASES.get(obj["kind"], obj["kind"])
        return KTypeSet(kind, obj.get("param"))


_KIND_ALIASES = {
    "allEven": ALL_EVEN,
    "allOdd": ALL_ODD,
    "rayUp": RAY_UP,
    "rayDown": RAY_DOWN,
}


def _ktypes_from_string(text: str) -> KTypeSet:
    t = text.strip()
    if t in ("2Z", "allEven", ALL_EVEN):
        return KTypeSet.all_even()
    if t in ("2Z+1", "allOdd", ALL_ODD):
        return KTypeSet.all_odd()
    if t.startswith("{") and t.endswith("}"):
        return KTypeSet.singleton(int(t[1:-1]))
    if t.endswith(",..."):
        parts = t[:-4].split(",")
        d = int(parts[0])
        step = int(parts[1]) - d
        if step == 2:
            return KTypeSet.ray_up(d)
        if step == -2:
            return KTypeSet.ray_down(d)
        raise ValueError(f"cannot parse K-type set {text!r}")
    if ".." in t:
        lo, hi = t.split("..")
        lo, hi = int(lo), int(hi)
        if lo != -hi:
            raise ValueError(f"window must be symmetric, got {text!r}")
        return KTypeSet.window(hi)
    raise ValueError(f"cannot parse K-type set {text!r}")


class FamilyValidationError(ValueError):
    """A (m, ktypes, casimir) triple that matches no classification row."""

    def __init__(self, code: str, detail: str) -> None:
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
    if isinstance(p.degree(), int) and p.degree() > 2:
        raise FamilyValidationError(
            "casimir-degree",
            f"casimir acts by a polynomial of degree <= 2, got degree {p.degree()}",
        )
    return p


def wall_index(value) -> Optional[int]:
    """Solve k(k+2) = value for an integer k >= -1, or return None.

    k(k+2) is injective on k >= -1, so the index is unique when it exists.
    """
    v = GaussianRational.of(value)
    if not v.is_real:
        return None
    s = has_gaussian_sqrt(v + 1)
    if s is None or not s.is_real:
        return None
    root = abs(s.re)
    if root.denominator != 1:
        return None
    k = int(root) - 1
    return k if k >= -1 else None


@dataclass(frozen=True)
class ModuleFamily:
    """Classification data of an algebraic family of Harish-Chandra modules."""

    m: int
    ktypes: KTypeSet
    casimir: Poly

    def __post_init__(self) -> None:
        object.__setattr__(self, "casimir", _as_casimir(self.casimir))
        if self.m % 2 != self.ktypes.parity:
            raise FamilyValidationError(
                "parity-mismatch",
                f"minimal K-type {self.m} has different parity than {self.ktypes}",
            )
        if not self.ktypes.contains(self.m):
            raise FamilyValidationError(
                "minimal-ktype-missing",
                f"minimal K-type {self.m} is not a member of {self.ktypes}",
            )

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
        return {
            "m": self.m,
            "ktypes": self.ktypes.to_json(),
            "casimir": self.casimir.to_json(),
        }


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
    """Validated family constructor; raises FamilyValidationError off-table."""
    c = _as_casimir(casimir)
    if ktypes is None:
        ktypes = infer_ktypes(m, c)
    fam = ModuleFamily(m, ktypes, c)
    _validate_row(fam)
    return fam


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
                 c=fam.casimir, cv=cv, k=None if cv is None else wall_index(cv),
                 want=row_level(p))
    if (m != p) if ray else abs(m) > 1:
        raise FamilyValidationError("minimal-ktype-mismatch", mismatch.format(**words))
    if ray and ktypes_at(p, pinned_level(p)) != kt:
        raise FamilyValidationError("row-mismatch", _WRONG_WAY[kt.kind].format(**words))
    raise FamilyValidationError("row-mismatch", off_level.format(**words))


def infer_ktypes(m: int, casimir) -> KTypeSet:
    """The unique K-type set making (m, casimir) a valid family."""
    c = _as_casimir(casimir)
    kt = ktypes_at(m, c.coeff(0) if c.is_constant else None)
    if kt is None:
        raise FamilyValidationError(
            "row-mismatch",
            f"minimal K-type {m} forces c(r) = {pinned_level(m)} constantly, got {c}",
        )
    return kt


def in_tilde_class(fam: ModuleFamily) -> Tuple[bool, str]:
    """Whether the family extends across the whole projective line.

    Returns (answer, reason).  For |m| > 1 every family extends.  For
    |m| <= 1 the split-Cartan infinitesimal character forces the Casimir
    polynomial into the shape c2*r^2 - 1, and when additionally c2 = 0 the
    m = +-1 families must be one-sided rays.
    """
    m = fam.m
    if abs(m) > 1:
        return True, "discrete ladder families always extend"
    if fam.c1 != 0 or fam.c0 != -1:
        return (
            False,
            f"extension requires c(r) = c2*r^2 - 1, got c(r) = {fam.casimir}",
        )
    if m == 0:
        if fam.ktypes.kind != ALL_EVEN:
            return False, f"extension at m=0 requires the full even ladder, got {fam.ktypes}"
        return True, "c(r) = c2*r^2 - 1 on the full even ladder"
    want_ray = KTypeSet.ray_up(1) if m == 1 else KTypeSet.ray_down(-1)
    if fam.c2 == 0:
        if fam.ktypes != want_ray:
            return (
                False,
                f"extension at m={m} with c2=0 requires the one-sided ray {want_ray}, "
                f"got {fam.ktypes}",
            )
        return True, "limit ray with c(r) = -1"
    if fam.ktypes.kind != ALL_ODD:
        return False, f"extension at m={m} with c2!=0 requires the full odd ladder, got {fam.ktypes}"
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
        return "r" if self.chart == "X0" else "R"

    def _nonunit(self, wall: int) -> Poly:
        c = self.casimir
        quarter = Fraction(1, 4)
        if self.chart == "X0":
            coeffs = [(c.coeff(0) - wall) * quarter, c.coeff(1) * quarter, c.coeff(2) * quarter]
        else:
            coeffs = [c.coeff(2) * quarter, c.coeff(1) * quarter, (c.coeff(0) - wall) * quarter]
        return Poly.of(coeffs, self.var)

    def up(self, n: int) -> Poly:
        if self.m <= n:
            return Poly.const(1, self.var)
        return self._nonunit(n * (n + 2))

    def down(self, n: int) -> Poly:
        if self.m >= n:
            return Poly.const(1, self.var)
        return self._nonunit(n * (n - 2))


def ladder_action(fam: ModuleFamily, chart: str = "X0") -> LadderAction:
    if chart not in ("X0", "Xinf"):
        raise ValueError(f"unknown chart {chart!r}")
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
    if cartan == "compact":
        if c2 != 0 or c1 != 0:
            return InfChar(False)
        a = has_gaussian_sqrt(c0 + 1)
        if a is None:
            return InfChar(True, None, None, False)
        return InfChar(True, a, GR_ZERO, True)
    if c2 == 0:
        if c1 != 0:
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


def family_from_json(obj: dict) -> ModuleFamily:
    """Build a validated family from {"m", "casimir", "ktypes"?} JSON."""
    if "m" not in obj or "casimir" not in obj:
        raise FamilyValidationError(
            "descriptor-missing-field", 'family descriptor needs "m" and "casimir"'
        )
    m = obj["m"]
    if not isinstance(m, int) or isinstance(m, bool):
        raise FamilyValidationError("descriptor-bad-field", '"m" must be an integer')
    cas = obj["casimir"]
    if isinstance(cas, dict):
        coeffs, var = cas.get("coeffs"), cas.get("var")
        if not isinstance(coeffs, (list, tuple)) or not isinstance(var, str):
            raise FamilyValidationError(
                "descriptor-bad-field", '"casimir" object needs a "coeffs" list and a "var" string'
            )
        c = Poly.of([scalar_from_json(x) for x in coeffs], var)
    elif isinstance(cas, (list, tuple)):
        c = Poly.of([scalar_from_json(x) for x in cas], "r")
    else:
        c = Poly.const(scalar_from_json(cas), "r")
    kt = obj.get("ktypes")
    if isinstance(kt, str) and kt.strip() in ("rayUp", RAY_UP):
        ktypes: Optional[KTypeSet] = KTypeSet.ray_up(m)
    elif isinstance(kt, str) and kt.strip() in ("rayDown", RAY_DOWN):
        ktypes = KTypeSet.ray_down(m)
    elif kt is not None:
        try:
            ktypes = KTypeSet.from_json(kt)
        except (KeyError, ValueError, TypeError) as exc:
            raise FamilyValidationError(
                "descriptor-bad-field", f'cannot read "ktypes": {exc}'
            ) from exc
    else:
        ktypes = None
    return make_family(m, c, ktypes)


def scalar_from_json(x) -> GaussianRational:
    """An exact scalar from JSON: an integer, a "p/q" string, or {"re", "im"?}
    with such parts; raises FamilyValidationError on anything else."""
    if isinstance(x, dict) and "re" in x:
        return GaussianRational(_json_rational(x["re"]), _json_rational(x.get("im", 0)))
    return GaussianRational(_json_rational(x))


def _json_rational(x) -> Fraction:
    if isinstance(x, bool):
        raise FamilyValidationError("descriptor-bad-field", "booleans are not scalars")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise FamilyValidationError(
                "descriptor-bad-field", f"cannot read scalar from {x!r}"
            ) from None
    raise FamilyValidationError(
        "descriptor-bad-field", f"cannot read scalar from {x!r} (floats are not exact)"
    )
