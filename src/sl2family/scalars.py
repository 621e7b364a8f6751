"""Exact arithmetic over the Gaussian rationals, plus dense polynomials.

Every number in this package is a rational or Gaussian rational; there is
no floating point anywhere.  A Gaussian rational is held as three integers
(re_num + im_num*i) / den with den > 0 and gcd(re_num, im_num, den) = 1, so
equal values have equal parts and arithmetic is integer arithmetic plus one
gcd.  Constructors and operators accept int, Fraction and (for the
constructor) rational strings, and raise TypeError on floats.  A real value
hashes like its Fraction, hence like an equal int; any other value hashes
like the pair (re, im) of Fractions.  Square roots are witness-based:
either an exact square root inside Q(i) is produced, or its absence is
reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
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


_new = object.__new__


def _parts(x):
    """(re_num, im_num, den) of an exact scalar operand, or None."""
    if isinstance(x, GaussianRational):
        return x._re_num, x._im_num, x._den
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    return None


def _reduced(rn: int, im: int, den: int) -> "GaussianRational":
    """The value (rn + im*i) / den, for den > 0, in lowest terms."""
    if den != 1:
        g = gcd(rn, im, den)
        if g != 1:
            rn //= g
            im //= g
            den //= g
    z = _new(GaussianRational)
    z._re_num = rn
    z._im_num = im
    z._den = den
    return z


class GaussianRational:
    """A number a + b*i with rational a, b, kept in lowest terms.

    Immutable, like Fraction: the integer parts live in private slots and
    are read through the properties re_num, im_num and den; re and im give
    the parts as Fractions.
    """

    __slots__ = ("_re_num", "_im_num", "_den")

    def __init__(self, re: RationalInput = 0, im: RationalInput = 0) -> None:
        if type(re) is int and type(im) is int:
            self._re_num, self._im_num, self._den = re, im, 1
            return
        r, i = _frac(re), _frac(im)
        # lcm of two reduced denominators leaves the three parts coprime
        den = lcm(r.denominator, i.denominator)
        self._re_num = r.numerator * (den // r.denominator)
        self._im_num = i.numerator * (den // i.denominator)
        self._den = den

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def of(x: Union["GaussianRational", RationalInput]) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(x)

    # -- structure --------------------------------------------------------

    @property
    def re_num(self) -> int:
        return self._re_num

    @property
    def im_num(self) -> int:
        return self._im_num

    @property
    def den(self) -> int:
        return self._den

    @property
    def re(self) -> Fraction:
        return Fraction(self._re_num, self._den)

    @property
    def im(self) -> Fraction:
        return Fraction(self._im_num, self._den)

    @property
    def is_real(self) -> bool:
        return self._im_num == 0

    def conjugate(self) -> "GaussianRational":
        return _reduced(self._re_num, -self._im_num, self._den)

    def norm(self) -> Fraction:
        """|z|^2 as an exact rational."""
        a, b, d = self._re_num, self._im_num, self._den
        return Fraction(a * a + b * b, d * d)

    def __bool__(self) -> bool:
        return self._re_num != 0 or self._im_num != 0

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        c, e, f = parts
        a, b, d = self._re_num, self._im_num, self._den
        if d == f:
            return _reduced(a + c, b + e, d)
        return _reduced(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        c, e, f = parts
        a, b, d = self._re_num, self._im_num, self._den
        if d == f:
            return _reduced(a - c, b - e, d)
        return _reduced(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        c, e, f = parts
        a, b, d = self._re_num, self._im_num, self._den
        return _reduced(c * d - a * f, e * d - b * f, d * f)

    def __neg__(self) -> "GaussianRational":
        return _reduced(-self._re_num, -self._im_num, self._den)

    def __mul__(self, other):
        a, b, d = self._re_num, self._im_num, self._den
        if isinstance(other, GaussianRational):
            c, e, f = other._re_num, other._im_num, other._den
            if e == 0:
                return _reduced(a * c, b * c, d * f)
            return _reduced(a * c - b * e, a * e + b * c, d * f)
        if isinstance(other, int):
            return _reduced(a * other, b * other, d)
        if isinstance(other, Fraction):
            c = other.numerator
            return _reduced(a * c, b * c, d * other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        c, e, f = parts
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        # (a + bi)/d / ((c + ei)/f) = (a + bi)(c - ei) f / (d (c^2 + e^2))
        a, b, d = self._re_num, self._im_num, self._den
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, d * n)

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return GaussianRational(other) / self

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
        # both sides are in lowest terms, so equal values have equal parts
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return parts == (self._re_num, self._im_num, self._den)

    def __hash__(self):
        # Real values hash like their Fraction (hence like equal ints).
        if self._im_num == 0:
            if self._den == 1:
                return hash(self._re_num)
            return hash(Fraction(self._re_num, self._den))
        return hash((self.re, self.im))

    # -- ordering (real values only) ---------------------------------------

    def _real_part_or_raise(self) -> Fraction:
        if self._im_num != 0:
            raise ValueError(f"ordering is undefined for non-real value {self}")
        return self.re

    def _order_operands(self, other):
        if isinstance(other, (int, Fraction)):
            return self._real_part_or_raise(), other
        if isinstance(other, GaussianRational):
            return self._real_part_or_raise(), other._real_part_or_raise()
        return None

    def __lt__(self, other):
        pair = self._order_operands(other)
        return NotImplemented if pair is None else pair[0] < pair[1]

    def __le__(self, other):
        pair = self._order_operands(other)
        return NotImplemented if pair is None else pair[0] <= pair[1]

    def __gt__(self, other):
        pair = self._order_operands(other)
        return NotImplemented if pair is None else pair[0] > pair[1]

    def __ge__(self, other):
        pair = self._order_operands(other)
        return NotImplemented if pair is None else pair[0] >= pair[1]

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if im.denominator == 1:
            if im == 1:
                ipart = "i"
            elif im == -1:
                ipart = "-i"
            else:
                ipart = f"{im}i"
        else:
            sign = "-" if im < 0 else ""
            ipart = f"{sign}({abs(im)})i"
        if re == 0:
            return ipart
        join = "+" if not ipart.startswith("-") else ""
        return f"{re}{join}{ipart}"

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
        return GaussianRational(x[0], x[1])
    return GaussianRational(x)


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
