"""Exact arithmetic over the Gaussian rationals, plus dense polynomials.

Every number in this package is a rational or Gaussian rational; there is
no floating point anywhere.  Square roots are witness-based: either an
exact square root inside Q(i) is produced, or its absence is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional, Union

#: sentinel degree of the zero polynomial (also the zero element's k-order)
NEG_INF = float("-inf")

RationalInput = Union[int, str, Fraction]


def _frac(x: RationalInput) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational value: {x!r}")


@dataclass(frozen=True)
class GaussianRational:
    """A number a + b*i with rational a, b, kept in lowest terms."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", _frac(self.re))
        object.__setattr__(self, "im", _frac(self.im))

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def of(x: Union["GaussianRational", RationalInput]) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(_frac(x))

    # -- structure --------------------------------------------------------

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """|z|^2 as an exact rational."""
        return self.re * self.re + self.im * self.im

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    # -- arithmetic -------------------------------------------------------

    def _coerced(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(Fraction(other))
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> "GaussianRational":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return GR_ONE / self ** (-n)
        acc = GR_ONE
        base = self
        k = n
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def __eq__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        # Real values hash like their Fraction (hence like equal ints).
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- ordering (real values only) ---------------------------------------

    def _real_part_or_raise(self) -> Fraction:
        if self.im != 0:
            raise ValueError(f"ordering is undefined for non-real value {self}")
        return self.re

    def __lt__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self._real_part_or_raise() < o._real_part_or_raise()

    def __le__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self._real_part_or_raise() <= o._real_part_or_raise()

    def __gt__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self._real_part_or_raise() > o._real_part_or_raise()

    def __ge__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self._real_part_or_raise() >= o._real_part_or_raise()

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.im.denominator == 1:
            if self.im == 1:
                ipart = "i"
            elif self.im == -1:
                ipart = "-i"
            else:
                ipart = f"{self.im}i"
        else:
            sign = "-" if self.im < 0 else ""
            ipart = f"{sign}({abs(self.im)})i"
        if self.re == 0:
            return ipart
        join = "+" if not ipart.startswith("-") else ""
        return f"{self.re}{join}{ipart}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GaussianRational({self})"

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"re": str(self.re), "im": str(self.im)}

    @staticmethod
    def from_json(obj) -> "GaussianRational":
        if isinstance(obj, dict):
            return GaussianRational(Fraction(obj["re"]), Fraction(obj.get("im", 0)))
        return GaussianRational.of(obj)


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


def rational_sqrt(f: Fraction) -> Optional[Fraction]:
    """The nonnegative rational square root of f, or None."""
    if f < 0:
        return None
    rn, rd = isqrt(f.numerator), isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


def has_gaussian_sqrt(x) -> Optional[GaussianRational]:
    """An exact square root of x in Q(i), or None when no such root exists.

    The returned witness w satisfies w*w == x and is normalized to have
    positive real part, or nonnegative imaginary part when purely imaginary.
    """
    x = GaussianRational.of(x) if not isinstance(x, GaussianRational) else x
    a, b = x.re, x.im
    if b == 0:
        s = rational_sqrt(a)
        if s is not None:
            return GaussianRational(s)
        s = rational_sqrt(-a)
        if s is not None:
            return GaussianRational(Fraction(0), s)
        return None
    # w = u + v*i with u^2 - v^2 = a and 2uv = b forces u^2 = (a + |x|)/2,
    # so |x| and then (a + |x|)/2 must both be rational squares.
    n = rational_sqrt(a * a + b * b)
    if n is None:
        return None
    u = rational_sqrt((a + n) / 2)
    if u is None or u == 0:
        return None
    v = b / (2 * u)
    root = GaussianRational(u, v)
    assert root * root == x
    return root


def _coeff_of(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, tuple) and len(x) == 2:
        return GaussianRational(_frac(x[0]), _frac(x[1]))
    return GaussianRational(_frac(x))


@dataclass(frozen=True)
class Poly:
    """Dense polynomial over Q(i), coefficients lowest degree first.

    The variable tag ("r" for the finite chart, "R" for the chart at
    infinity) is part of the value; mixed-variable arithmetic is an error.
    """

    coeffs: tuple = ()
    var: str = "r"

    def __post_init__(self) -> None:
        cs = [_coeff_of(c) for c in self.coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def of(cs, var: str = "r") -> "Poly":
        return Poly(tuple(cs), var)

    @staticmethod
    def zero(var: str = "r") -> "Poly":
        return Poly((), var)

    @staticmethod
    def const(c, var: str = "r") -> "Poly":
        return Poly((c,), var)

    @staticmethod
    def variable(var: str = "r") -> "Poly":
        return Poly((0, 1), var)

    # -- structure --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self):
        """Degree, with the zero polynomial mapped to the -inf sentinel."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def coeff(self, k: int) -> GaussianRational:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return GR_ZERO

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def _check_var(self, other: "Poly") -> None:
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var} vs {other.var}")

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Poly):
            self._check_var(other)
            n = max(len(self.coeffs), len(other.coeffs))
            return Poly(
                tuple(self.coeff(k) + other.coeff(k) for k in range(n)), self.var
            )
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self + Poly.const(other, self.var)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = Poly.const(other, self.var)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs), self.var)

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check_var(other)
            if self.is_zero or other.is_zero:
                return Poly.zero(self.var)
            out = [GR_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Poly(tuple(out), self.var)
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = GaussianRational.of(other) if not isinstance(other, GaussianRational) else other
            return Poly(tuple(a * c for a in self.coeffs), self.var)
        return NotImplemented

    __rmul__ = __mul__

    def eval(self, x) -> GaussianRational:
        """Exact evaluation by Horner's scheme."""
        x = _coeff_of(x)
        acc = GR_ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    __call__ = eval

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            if k == 0:
                mono = ""
            elif k == 1:
                mono = self.var
            else:
                mono = f"{self.var}^{k}"
            if not mono:
                body = str(c)
            elif c == GR_ONE:
                body = mono
            elif c == -GR_ONE:
                body = f"-{mono}"
            elif c.is_real and c.re.denominator == 1:
                body = f"{c}*{mono}"
            elif c.is_real and c.re < 0:
                body = f"-({-c})*{mono}"
            else:
                body = f"({c})*{mono}"
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                out += " - " + p[1:]
            else:
                out += " + " + p
        return out

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"var": self.var, "coeffs": [c.to_json() for c in self.coeffs]}


def chart_substitute(p: Poly) -> tuple:
    """Substitute the reciprocal coordinate and clear the pole.

    For p of degree d in the variable r, p(1/R) = R^(-d) * q(R) with
    q(0) != 0; returns (q, d).  The zero polynomial maps to (0, 0), and the
    variable tag flips between the two charts.
    """
    other = "R" if p.var == "r" else "r"
    if p.is_zero:
        return Poly.zero(other), 0
    return Poly(tuple(reversed(p.coeffs)), other), len(p.coeffs) - 1
