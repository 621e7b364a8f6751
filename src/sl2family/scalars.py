"""Exact arithmetic over the Gaussian rationals, and the term-map core.

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

``Terms`` is the one sparse "monomial -> nonzero coefficient" type of the
package: sums, scalar multiples, powers, equality, hashing and printing
live there once.  ``Laurent`` (convolution product, integer exponents of
a chart variable) and ``Poly`` (a Laurent polynomial without negative
exponents, with a dense coefficient view) are defined here; the PBW
elements of pbw.py and the sections of sheaf.py are term maps too.
"""

from __future__ import annotations

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


def _lowest(n: int, d: int):
    """n/d in lowest terms, for d > 0."""
    g = gcd(n, d)
    return (n, d) if g == 1 else (n // g, d // g)


def _ratio_str(n: int, d: int) -> str:
    """n/d as str(Fraction(n, d)) prints it, for d > 0."""
    n, d = _lowest(n, d)
    return str(n) if d == 1 else f"{n}/{d}"


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
        d = self._den
        if not self._im_num:
            return _ratio_str(self._re_num, d)
        n, e = _lowest(self._im_num, d)
        if e == 1:
            ipart = "i" if n == 1 else "-i" if n == -1 else f"{n}i"
        else:
            ipart = f"-({-n}/{e})i" if n < 0 else f"({n}/{e})i"
        if not self._re_num:
            return ipart
        return _ratio_str(self._re_num, d) + ("" if n < 0 else "+") + ipart

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GaussianRational({self})"

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        d = self._den
        return {"re": _ratio_str(self._re_num, d), "im": _ratio_str(self._im_num, d)}

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


def _add_term(acc: dict, key, value) -> None:
    """acc[key] += value, dropping the key when the sum vanishes."""
    cur = acc.get(key)
    s = value if cur is None else cur + value
    if s:
        acc[key] = s
    elif cur is not None:
        del acc[key]


def _power(name: str, k: int) -> str:
    """The factor name^k: empty for k = 0, the bare name for k = 1."""
    return "" if k == 0 else name if k == 1 else f"{name}^{k}"


def _term_str(c, mono: str) -> str:
    """One term c*mono of a printed sum; mono is "" for the unit monomial.

    Scalar coefficients print bare where that is unambiguous, and a
    negative real fraction prints as -(p/q) so the sum reads "- (p/q)*x".
    Laurent coefficients (of sections) always print in parentheses.
    """
    if not isinstance(c, GaussianRational):
        return f"({c})*{mono or '1'}"
    if not mono:
        return str(c)
    if c.is_real:
        if c.den == 1:
            n = c.re_num
            return mono if n == 1 else f"-{mono}" if n == -1 else f"{n}*{mono}"
        if c.re_num < 0:
            return f"-({-c})*{mono}"
    return f"({c})*{mono}"


class Terms:
    """A sparse map from monomial keys to nonzero coefficients, with a tag.

    The tag says what the keys are monomials in: a chart variable, a PBW
    basis or a chart.  This class holds the arithmetic every term map
    shares -- sums, negation, scalar multiples, powers, equality, hashing
    and printing.  A subclass supplies its coefficient ring (``_coerce``),
    its product (``_product``; convolution of integer exponents unless
    overridden), the key of its unit monomial and its key names
    (``_key_str``).  Values are immutable by convention: every operation
    builds a new term map.
    """

    __slots__ = ("tag", "terms")
    _TAG = "variable"  # what the tag is, for mismatch errors
    _ONE = 0  # key of the unit monomial
    _key = int  # normalizes the keys handed to the constructor
    _sort_key = None  # terms print in descending order of this key

    def __init__(self, tag, terms: dict) -> None:
        self.tag = tag
        self.terms = {}
        for k, v in terms.items():
            c = self._coerce(v)
            if c is None:
                raise TypeError(f"not a coefficient: {v!r}")
            if c:
                self.terms[self._key(k)] = c

    @classmethod
    def _make(cls, tag, terms: dict):
        """An instance over a term map that is already coerced and pruned."""
        obj = _new(cls)
        obj.tag = tag
        obj.terms = terms
        return obj

    def _coerce(self, x):
        """x as a coefficient, or None when it is not one (here: Q(i))."""
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        return None

    def _product(self, terms: dict) -> dict:
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in terms.items():
                e = e1 + e2
                cur = out.get(e)
                out[e] = c1 * c2 if cur is None else cur + c1 * c2
        return {e: c for e, c in out.items() if c}

    def _key_str(self, k) -> str:
        return _power(self.tag, k)

    def _check(self, other) -> None:
        if other.tag != self.tag:
            raise ValueError(f"{self._TAG} mismatch: {self.tag} vs {other.tag}")

    # -- structure ----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, key):
        c = self.terms.get(self._key(key))
        return self._coerce(0) if c is None else c

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        out = dict(self.terms)
        if type(other) is type(self):
            self._check(other)
            for k, v in other.terms.items():
                _add_term(out, k, v)
        else:
            c = self._coerce(other)
            if c is None:
                return NotImplemented
            _add_term(out, self._ONE, c)
        return self._make(self.tag, out)

    __radd__ = __add__

    def __neg__(self):
        return self._make(self.tag, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is type(self):
            self._check(other)
            return self._make(self.tag, self._product(other.terms))
        c = self._coerce(other)
        if c is None:
            return NotImplemented
        return self._make(self.tag, {k: v * c for k, v in self.terms.items()} if c else {})

    # only scalar * element lands here, and scalars commute
    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined")
        acc = self._make(self.tag, {self._ONE: self._coerce(1)})
        for _ in range(n):
            acc = acc * self
        return acc

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.tag == other.tag and self.terms == other.terms

    def __hash__(self):
        return hash((self.tag, frozenset(self.terms.items())))

    # -- rendering ------------------------------------------------------------

    def __str__(self) -> str:
        out = ""
        for k in sorted(self.terms, key=self._sort_key, reverse=True):
            p = _term_str(self.terms[k], self._key_str(k))
            out += (" - " + p[1:] if p[0] == "-" else " + " + p) if out else p
        return out or "0"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.tag}: {self}>"


def _other_var(var: str) -> str:
    return "R" if var == "r" else "r"


class Laurent(Terms):
    """A Laurent polynomial over Q(i) in a tagged chart coordinate.

    ``coeffs`` maps integer exponents to nonzero Gaussian rationals; the
    variable tag ("r" for the finite chart, "R" for the chart at infinity)
    is part of the value, and mixed-variable arithmetic is an error.
    """

    __slots__ = ()
    # the tag and term slots under this class's own names
    var = Terms.tag
    coeffs = Terms.terms
    # own entries, so that a per-class wrapper (perfbench/tracer.py) sees them
    __mul__ = Terms.__mul__
    __rmul__ = Terms.__rmul__

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, var: str = "r"):
        return cls._make(var, {})

    @classmethod
    def const(cls, c, var: str = "r"):
        c = _coeff_of(c)
        return cls._make(var, {0: c} if c else {})

    @classmethod
    def one(cls, var: str = "r"):
        return cls.const(1, var)

    @staticmethod
    def monomial(var: str, exp: int, coeff=1) -> "Laurent":
        return Laurent(var, {exp: coeff})

    @staticmethod
    def from_poly(p: "Poly") -> "Laurent":
        return Laurent._make(p.var, dict(p.terms))

    # -- structure ---------------------------------------------------------

    def valuation(self) -> Optional[int]:
        """Order of vanishing at coordinate 0; None for the zero element."""
        return min(self.terms) if self.terms else None

    def degree(self) -> Optional[int]:
        return max(self.terms) if self.terms else None

    @property
    def is_polynomial(self) -> bool:
        return all(e >= 0 for e in self.terms)

    def to_poly(self) -> "Poly":
        if not self.is_polynomial:
            raise ValueError(f"{self} has a pole at {self.var}=0")
        return Poly._make(self.var, dict(self.terms))

    # -- substitutions and evaluation -----------------------------------------

    def shifted(self, k: int) -> "Laurent":
        """Multiplication by the k-th power of the chart coordinate."""
        return Laurent._make(self.tag, {e + k: c for e, c in self.terms.items()})

    def reciprocal_substitution(self) -> "Laurent":
        """Substitute the coordinate by its reciprocal, flipping the chart tag."""
        return Laurent._make(_other_var(self.tag), {-e: c for e, c in self.terms.items()})

    def eval(self, x) -> GaussianRational:
        x = GaussianRational.of(x) if not isinstance(x, GaussianRational) else x
        acc = GR_ZERO
        for e, c in self.terms.items():
            if e >= 0:
                acc = acc + c * x ** e if e else acc + c
                continue
            if not x:
                raise ZeroDivisionError(f"pole of {self} at {self.var}=0")
            acc = acc + c / x ** (-e)
        return acc

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        """Dense coefficients from exponent 0, or from "valuation" below 0."""
        lo = min(self.terms, default=0)
        out = {"var": self.tag, "valuation": lo} if lo < 0 else {"var": self.tag}
        out["coeffs"] = [
            self.terms.get(e, GR_ZERO).to_json()
            for e in range(min(lo, 0), max(self.terms, default=-1) + 1)
        ]
        return out


class Poly(Laurent):
    """A Laurent polynomial with no negative exponent.

    ``coeffs`` is the dense view: the coefficients lowest degree first,
    without trailing zeros.  Constructed from that view, as
    ``Poly(coeffs, var)``; coefficients may be given as anything
    ``GaussianRational`` accepts, or as (re, im) pairs.
    """

    __slots__ = ("coeffs", "_terms")

    def __init__(self, coeffs=(), var: str = "r") -> None:
        cs = [_coeff_of(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.tag, self.coeffs, self._terms = var, tuple(cs), None

    @classmethod
    def _make(cls, var, terms: dict) -> "Poly":
        p = _new(cls)
        p.tag, p._terms = var, terms
        p.coeffs = tuple([terms.get(k, GR_ZERO) for k in range(max(terms, default=-1) + 1)])
        return p

    @property
    def terms(self) -> dict:
        """The sparse view, built from the dense one when first asked for."""
        if self._terms is None:
            self._terms = {k: c for k, c in enumerate(self.coeffs) if c}
        return self._terms

    @staticmethod
    def of(cs, var: str = "r") -> "Poly":
        return Poly(cs, var)

    def degree(self):
        """Degree, with the zero polynomial mapped to the -inf sentinel."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def coeff(self, k: int) -> GaussianRational:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else GR_ZERO

    def eval(self, x) -> GaussianRational:
        """Exact evaluation by Horner's scheme."""
        x = _coeff_of(x)
        acc = GR_ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    __call__ = eval


def chart_substitute(p: Poly) -> tuple:
    """Substitute the reciprocal coordinate and clear the pole.

    For p of degree d in the variable r, p(1/R) = R^(-d) * q(R) with
    q(0) != 0; returns (q, d).  The zero polynomial maps to (0, 0), and the
    variable tag flips between the two charts.
    """
    return Poly(p.coeffs[::-1], _other_var(p.var)), max(p.degree(), 0)
