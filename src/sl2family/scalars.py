"""Exact arithmetic over the Gaussian rationals, and the term-map core.

Every number in this package is a rational or Gaussian rational; there is
no floating point anywhere.  A Gaussian rational is held as three integers
(re_num + im_num*i) / den with den > 0 and gcd(re_num, im_num, den) = 1, so
equal values have equal parts and arithmetic is integer arithmetic plus one
gcd.  Constructors and operators accept int, Fraction and (for the
constructor) rational strings, and raise TypeError on floats.  A real value
hashes like its Fraction, hence like an equal int; any other value hashes
like the pair (re, im) of Fractions.  The hash applies the interpreter's
rational-hash rule to the integer parts and builds no Fraction.  Q(i) is
not ordered: the order operators raise TypeError (compare ``re``
Fractions).  Square roots are witness-based: an exact root in Q(i) is
produced, or its absence reported.
``GaussianRational.from_json`` is the one reader of the JSON scalar format
(an int, a "p/q" string, or {"re", "im"?}) for family descriptors and
candidate bijections alike; ``scalar_to_json`` writes its compact form.
``parse_rational`` is the one reader of rational strings, for those
scalars and for the command-line values alike: an integer, "p/q" or a
decimal, never exponent notation.  ``parse_gaussian`` reads what
``GaussianRational.__str__`` writes as well, for point coordinates.
``parse_int`` reads integer strings, for JSON input and integer flags.  All
three refuse more than ``DIGITS_MAX`` digits in a row with one message, so
``_any_digits`` may lift the interpreter's own digit limit for output.

``Terms`` is the one sparse "monomial -> nonzero coefficient" type of the
package: sums, scalar multiples, powers, equality, hashing and printing
live there once.  ``Laurent`` (convolution product, integer exponents of
a chart variable, one Horner evaluation) and ``Poly`` (a Laurent
polynomial without negative exponents, read and shown as a dense
coefficient list) are defined here; the PBW elements of pbw.py and the
sections of sheaf.py are term maps too.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Optional, Union

#: sentinel degree of the zero polynomial (also the zero element's k-order)
NEG_INF = float("-inf")

RationalInput = Union[int, str, Fraction]


# exponent notation as Fraction reads it: a short exponent names a number of
# any length ("1e-999999999" has a billion-digit denominator)
_EXPONENT = re.compile(r"[\d.][eE][-+]?\d")

_QUOTE_MAX = 60  # characters of an offending value quoted in an error message
_CUT_MOST = 300  # characters of a whole error message


def _cut(text: str, most: int = _CUT_MOST) -> str:
    """text, or its first most (300: a whole error message) characters and "..."."""
    return text if len(text) <= most else text[:most] + "..."


def _int_head(n: int) -> str:
    """A prefix of str(n), all of it for a short n and more than _CUT_MOST
    characters otherwise, so that _cut of a text holding either reads the
    same.  A long n is written as its quotient by a power of ten, so no
    full int-to-str is made."""
    bits = abs(n).bit_length()
    # n has more than (bits - 1) * log10(2) digits (the constant is just below
    # log10(2)); dropping that many less _CUT_MOST + 2 leaves more than _CUT_MOST + 1
    drop = int((bits - 1) * 0.30102999566) - _CUT_MOST - 2
    if drop <= 0:
        return str(n)
    return ("-" if n < 0 else "") + str(abs(n) // 10 ** drop)


def _quote(x) -> str:
    """repr(x) for an error message, cut to a bounded prefix."""
    return _cut(repr(x), _QUOTE_MAX)


# the most digits in a row that any reader takes: Python's default bound on
# int() of a string, fixed here so that every input path refuses alike
DIGITS_MAX = 4300
_DIGIT_RUN = re.compile(r"\d+")


def _check_digits(text: str, what: str) -> None:
    """Refuse text, read as what, when more than DIGITS_MAX digits stand in a
    row (an underscore between two digits does not end the row)."""
    if len(text) > DIGITS_MAX:  # a shorter text holds no longer row
        longest = max(map(len, _DIGIT_RUN.findall(text.replace("_", ""))), default=0)
        if longest > DIGITS_MAX:
            raise ValueError(
                f"cannot read {what} from {_quote(text)} (more than {DIGITS_MAX} digits)")


@contextmanager
def _any_digits():
    """Run the block under no int/str digit limit, and restore the limit after."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def parse_int(text: str) -> int:
    """Read an integer string as int() does, with at most DIGITS_MAX digits."""
    _check_digits(text, "an integer")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"cannot read an integer from {_quote(text)}") from None


def parse_rational(text: str) -> Fraction:
    """Read a rational string: an integer, "p/q", or a decimal such as "-2.25".

    Exponent notation, more than DIGITS_MAX digits in a row, a zero
    denominator and anything else Fraction cannot read are a ValueError
    with a one-line message.
    """
    if _EXPONENT.search(text):
        raise ValueError(f"cannot read scalar from {_quote(text)} (exponent notation is not read)")
    _check_digits(text, "scalar")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot read scalar from {_quote(text)}") from None


# the Q(i) forms GaussianRational.__str__ writes: "i", "-3i", "(1/2)i", "1/2-(3/4)i"
_GAUSSIAN = re.compile(r"\s*(?:([-+]?\d+(?:/\d+)?)(?=[-+]))?([-+]?)(\d*|\(\d+/\d+\))i\s*")


def parse_gaussian(text: str) -> "GaussianRational":
    """Read a Q(i) string as GaussianRational.__str__ writes it, or a rational
    string as parse_rational reads it, with the same refusals and messages."""
    m = _GAUSSIAN.fullmatch(text)
    if m is None:
        return GaussianRational(parse_rational(text))
    _check_digits(text, "scalar")
    re_text, sign, coef = m.groups()
    try:
        imag = Fraction(coef.strip("()") or 1)
        return GaussianRational(Fraction(re_text or 0), -imag if sign == "-" else imag)
    except ZeroDivisionError:
        raise ValueError(f"cannot read scalar from {_quote(text)}") from None


def _frac(x: RationalInput) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise TypeError(f"not an exact rational value: {_quote(x)}")


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


_HASH_MODULUS = sys.hash_info.modulus


def _ratio_hash(n: int, d: int) -> int:
    """hash(Fraction(n, d)) for n/d in lowest terms with d > 0, by the
    rational-hash rule of the interpreter: |n| / d modulo the hash modulus,
    with the sign of n, or hash_info.inf when the modulus divides d."""
    try:
        h = abs(n) * pow(d, -1, _HASH_MODULUS) % _HASH_MODULUS
    except ValueError:  # d has no inverse: the modulus divides it
        h = sys.hash_info.inf
    if n < 0:
        h = -h
    return -2 if h == -1 else h


def _ratio_str(n: int, d: int, num=str) -> str:
    """n/d as str(Fraction(n, d)) prints it, for d > 0, each int written by num."""
    n, d = _lowest(n, d)
    return num(n) if d == 1 else f"{num(n)}/{num(d)}"


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
    def of(x: Union["GaussianRational", RationalInput, tuple]) -> "GaussianRational":
        """x itself, a (re, im) pair, or anything the constructor reads."""
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, tuple) and len(x) == 2:
            return GaussianRational(*x)
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
        if type(other) is int:
            return self._den == 1 and self._im_num == 0 and self._re_num == other
        parts = _parts(other)
        if parts is None:
            return NotImplemented
        return parts == (self._re_num, self._im_num, self._den)

    def __hash__(self):
        # Real values hash like their Fraction (hence like equal ints), any
        # other value like the pair (re, im) of Fractions; no Fraction is built.
        d = self._den
        if self._im_num == 0:
            return hash(self._re_num) if d == 1 else _ratio_hash(self._re_num, d)
        return hash((_ratio_hash(*_lowest(self._re_num, d)),
                     _ratio_hash(*_lowest(self._im_num, d))))

    # -- rendering ----------------------------------------------------------

    def __str__(self, num=str) -> str:
        """The value as a + bi, each int written by num (_int_head: a bounded prefix)."""
        d = self._den
        if not self._im_num:
            return _ratio_str(self._re_num, d, num)
        n, e = _lowest(self._im_num, d)
        if e == 1:
            ipart = "i" if n == 1 else "-i" if n == -1 else f"{num(n)}i"
        else:
            ipart = f"-({num(-n)}/{num(e)})i" if n < 0 else f"({num(n)}/{num(e)})i"
        if not self._re_num:
            return ipart
        return _ratio_str(self._re_num, d, num) + ("" if n < 0 else "+") + ipart

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GaussianRational({self})"

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        d = self._den
        return {"re": _ratio_str(self._re_num, d), "im": _ratio_str(self._im_num, d)}

    @staticmethod
    def from_json(obj) -> "GaussianRational":
        """Read a JSON scalar: an int, a "p/q" string, or {"re", "im"?} with
        such parts.  Anything else, a bool or a float included, is a ValueError."""
        parts = obj if isinstance(obj, dict) else {"re": obj}
        for key in parts:
            if key not in ("re", "im"):
                raise ValueError(f"unknown scalar key {_quote(key)}")
        if "re" not in parts:
            raise ValueError(f"cannot read scalar from {_quote(obj)}")
        values = []
        for x in (parts["re"], parts.get("im", 0)):
            if isinstance(x, bool):
                raise ValueError("booleans are not scalars")
            if isinstance(x, str):
                x = parse_rational(x)
            if not isinstance(x, (int, Fraction)):
                note = " (floats are not exact)" if isinstance(x, float) else ""
                raise ValueError(f"cannot read scalar from {_quote(x)}{note}")
            values.append(x)
        return GaussianRational(*values)


GR_ZERO = GaussianRational()
GR_ONE = GaussianRational(1)


def scalar_to_json(x: GaussianRational):
    """Compact exact encoding: int, "p/q" string, or {"re","im"} object."""
    x = GaussianRational.of(x)
    if x.is_real:  # then re_num / den is in lowest terms
        return x.re_num if x.den == 1 else f"{x.re_num}/{x.den}"
    return x.to_json()


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
    x = GaussianRational.of(x)
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


def _term_str(c, mono: str, num=str) -> str:
    """One term c*mono of a printed sum; mono is "" for the unit monomial.

    Scalar coefficients print bare where that is unambiguous, and a
    negative real fraction prints as -(p/q) so the sum reads "- (p/q)*x".
    Laurent coefficients (of sections) always print in parentheses.  num
    writes the ints of a scalar coefficient.
    """
    if not isinstance(c, GaussianRational):
        return f"({c})*{mono or '1'}"
    if not mono:
        return c.__str__(num)
    if c.is_real:
        if c.den == 1:
            n = c.re_num
            return mono if n == 1 else f"-{mono}" if n == -1 else f"{num(n)}*{mono}"
        if c.re_num < 0:
            return f"-({(-c).__str__(num)})*{mono}"
    return f"({c.__str__(num)})*{mono}"


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

    def __str__(self, num=str) -> str:
        """The sum, highest term first; num writes the ints of scalar coefficients."""
        out = ""
        for k in sorted(self.terms, key=self._sort_key, reverse=True):
            p = _term_str(self.terms[k], self._key_str(k), num)
            out += (" - " + p[1:] if p[0] == "-" else " + " + p) if out else p
        return out or "0"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.tag}: {self}>"


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
        c = GaussianRational.of(c)
        return cls._make(var, {0: c} if c else {})

    @staticmethod
    def monomial(var: str, exp: int, coeff=1) -> "Laurent":
        return Laurent(var, {exp: coeff})

    # -- structure ---------------------------------------------------------

    def valuation(self) -> Optional[int]:
        """Order of vanishing at coordinate 0; None for the zero element."""
        return min(self.terms) if self.terms else None

    def degree(self):
        """Degree, with the zero element mapped to the -inf sentinel."""
        return max(self.terms) if self.terms else NEG_INF

    @property
    def is_polynomial(self) -> bool:
        return all(e >= 0 for e in self.terms)

    # -- substitutions and evaluation -----------------------------------------

    def shifted(self, k: int) -> "Laurent":
        """Multiplication by the k-th power of the chart coordinate."""
        return Laurent._make(self.tag, {e + k: c for e, c in self.terms.items()})

    def reciprocal_substitution(self) -> "Laurent":
        """Substitute the coordinate by its reciprocal, flipping the chart tag."""
        var = "R" if self.tag == "r" else "r"
        return Laurent._make(var, {-e: c for e, c in self.terms.items()})

    def eval(self, x) -> GaussianRational:
        """Exact evaluation: Horner's scheme over the exponents lo..hi, where lo
        is the least exponent or 0, then a division by x^(-lo) when lo < 0.
        A pole at x = 0 is a ZeroDivisionError."""
        x = GaussianRational.of(x)
        terms = self.terms
        if not terms:
            return GR_ZERO
        hi, lo = max(terms), min(min(terms), 0)
        acc = terms[hi]
        for e in range(hi - 1, lo - 1, -1):
            c = terms.get(e)
            acc = acc * x if c is None else acc * x + c
        if lo:
            if not x:
                raise ZeroDivisionError(f"pole of {self} at {self.var}=0")
            acc = acc / x ** -lo
        return acc

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        """Dense coefficients from exponent 0, or from "valuation" below 0; a
        zero slot is written as the literal that GR_ZERO.to_json() gives."""
        lo = min(self.terms, default=0)
        out = {"var": self.tag, "valuation": lo} if lo < 0 else {"var": self.tag}
        out["coeffs"] = [self.terms[e].to_json() if e in self.terms else {"re": "0", "im": "0"}
                         for e in range(min(lo, 0), max(self.terms, default=-1) + 1)]
        return out


class Poly(Laurent):
    """A Laurent polynomial with no negative exponent.

    The sparse term map is its only storage; ``coeffs`` is the dense view,
    the coefficients lowest degree first, without trailing zeros.
    Constructed from that view, as ``Poly(coeffs, var)``, with coefficients
    as ``GaussianRational.of`` reads them, (re, im) pairs included.
    """

    __slots__ = ()

    def __init__(self, coeffs=(), var: str = "r") -> None:
        terms = {}
        for k, c in enumerate(coeffs):
            c = GaussianRational.of(c)
            if c:
                terms[k] = c
        self.tag, self.terms = var, terms

    @staticmethod
    def of(cs, var: str = "r") -> "Poly":
        return Poly(cs, var)

    @property
    def coeffs(self) -> tuple:
        terms = self.terms
        return tuple([terms.get(k, GR_ZERO) for k in range(max(terms, default=-1) + 1)])

    @property
    def is_constant(self) -> bool:
        """Whether no exponent but 0 occurs."""
        return not any(self.terms)

    def coeff(self, k: int) -> GaussianRational:
        return self.terms.get(k, GR_ZERO)

    # own entries, so that a per-class wrapper (perfbench/tracer.py) sees them
    eval = Laurent.eval
    __call__ = Laurent.eval
