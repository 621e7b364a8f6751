"""PBW normal forms in the sl2 enveloping algebra, for two ordered bases.

A monomial is stored by its exponent triple (a, b, c) = exponents of the
(lowering, cartan, raising) generators.  The normal word order puts both
ladder generators to the left of the Cartan generator,

    (lowering)^a (raising)^c (cartan)^b,

which is the ordering adapted to the Cartan-decomposition filtration: for
the compact basis the filtration degree of a monomial is just a + c, the
total exponent on the non-compact generators.

The rewriting core is generic over the coefficient ring and over the scalar
tau in [raising, lowering] = tau * cartan; the enveloping algebra uses
tau = 1, while sections over the chart at infinity (see sheaf.py) reuse the
same core with tau = R^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, Tuple

from .scalars import NEG_INF, GR_ONE, GR_ZERO, GaussianRational

Monomial = Tuple[int, int, int]

_LOWER, _CARTAN, _RAISE = 0, 1, 2


def _add_term(acc: dict, key, value) -> None:
    cur = acc.get(key)
    s = value if cur is None else cur + value
    if s:
        acc[key] = s
    elif cur is not None:
        del acc[key]


def times_generator(terms: dict, gen: int, tau) -> dict:
    """Right-multiply a normal-form term map by a single generator.

    Rewriting rules, with E = raising, F = lowering, H = cartan and word
    order F^a E^c H^b:

        H^b E = E (H+2)^b
        H^b F = F (H-2)^b
        E^c F = F E^c + tau * (c E^(c-1) H + c(c-1) E^(c-1))
    """
    out: dict = {}
    for (a, b, c), coeff in terms.items():
        if gen == _RAISE:
            for j in range(b + 1):
                _add_term(out, (a, j, c + 1), coeff * (comb(b, j) * 2 ** (b - j)))
        elif gen == _CARTAN:
            _add_term(out, (a, b + 1, c), coeff)
        else:
            for j in range(b + 1):
                w = comb(b, j) * (-2) ** (b - j)
                _add_term(out, (a + 1, j, c), coeff * w)
                if c:
                    _add_term(out, (a, j + 1, c - 1), coeff * (c * w) * tau)
                    if c > 1:
                        _add_term(out, (a, j, c - 1), coeff * (c * (c - 1) * w) * tau)
    return out


def normal_multiply(ut: dict, vt: dict, tau) -> dict:
    """Product of two normal-form term maps, renormalized."""
    out: dict = {}
    for (a, b, c), cv in vt.items():
        cur = ut
        for _ in range(a):
            cur = times_generator(cur, _LOWER, tau)
        for _ in range(c):
            cur = times_generator(cur, _RAISE, tau)
        for _ in range(b):
            cur = times_generator(cur, _CARTAN, tau)
        for key, cu in cur.items():
            _add_term(out, key, cu * cv)
    return out


@dataclass(frozen=True)
class Sl2Basis:
    """An ordered sl2 basis (lowering, cartan, raising)."""

    name: str
    gens: Tuple[str, str, str]

    def gen_index(self, name: str) -> int:
        return self.gens.index(name)

    def __str__(self) -> str:
        return self.name


COMPACT = Sl2Basis("compact", ("Y", "H", "X"))
SPLIT = Sl2Basis("split", ("Ys", "Hs", "Xs"))

_BASES = {"compact": COMPACT, "split": SPLIT}


def basis_by_name(name: str) -> Sl2Basis:
    try:
        return _BASES[name]
    except KeyError:
        raise ValueError(f"unknown basis {name!r}") from None


def _coerce_scalar(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational.of(x)
    return None


@dataclass(frozen=True)
class UEAElement:
    """An enveloping-algebra element in PBW normal form over Q(i)."""

    basis: Sl2Basis
    terms: dict  # Monomial -> GaussianRational, zero values dropped

    def __post_init__(self) -> None:
        pruned = {k: v for k, v in self.terms.items() if v}
        object.__setattr__(self, "terms", pruned)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(basis: Sl2Basis = COMPACT) -> "UEAElement":
        return UEAElement(basis, {})

    @staticmethod
    def one(basis: Sl2Basis = COMPACT) -> "UEAElement":
        return UEAElement(basis, {(0, 0, 0): GR_ONE})

    @staticmethod
    def monomial(basis: Sl2Basis, mono: Monomial, coeff=1) -> "UEAElement":
        return UEAElement(basis, {tuple(mono): GaussianRational.of(coeff)})

    @staticmethod
    def generator(basis: Sl2Basis, name: str) -> "UEAElement":
        idx = basis.gen_index(name)
        mono = [0, 0, 0]
        mono[idx] = 1
        return UEAElement(basis, {tuple(mono): GR_ONE})

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self):
        if not self.terms:
            return NEG_INF
        return max(a + b + c for (a, b, c) in self.terms)

    def coeff(self, mono: Monomial) -> GaussianRational:
        return self.terms.get(tuple(mono), GR_ZERO)

    def _check_basis(self, other: "UEAElement") -> None:
        if self.basis is not other.basis:
            raise ValueError(
                f"basis mismatch: {self.basis.name} vs {other.basis.name}"
            )

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, UEAElement):
            self._check_basis(other)
            out = dict(self.terms)
            for k, v in other.terms.items():
                _add_term(out, k, v)
            return UEAElement(self.basis, out)
        s = _coerce_scalar(other)
        if s is None:
            return NotImplemented
        out = dict(self.terms)
        _add_term(out, (0, 0, 0), s)
        return UEAElement(self.basis, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, UEAElement):
            return self + (-other)
        s = _coerce_scalar(other)
        if s is None:
            return NotImplemented
        return self + (-s)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self) -> "UEAElement":
        return UEAElement(self.basis, {k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, UEAElement):
            self._check_basis(other)
            return UEAElement(self.basis, normal_multiply(self.terms, other.terms, GR_ONE))
        s = _coerce_scalar(other)
        if s is None:
            return NotImplemented
        return UEAElement(self.basis, {k: v * s for k, v in self.terms.items()})

    def __rmul__(self, other):
        # scalars commute; only scalar * element lands here
        s = _coerce_scalar(other)
        if s is None:
            return NotImplemented
        return self * s

    def __pow__(self, n: int) -> "UEAElement":
        if n < 0:
            raise ValueError("negative powers are not defined")
        acc = UEAElement.one(self.basis)
        for _ in range(n):
            acc = acc * self
        return acc

    # -- rendering ------------------------------------------------------------

    def _mono_str(self, mono: Monomial) -> str:
        a, b, c = mono
        low, car, rai = self.basis.gens
        factors = []
        if a:
            factors.append(low if a == 1 else f"{low}^{a}")
        if c:
            factors.append(rai if c == 1 else f"{rai}^{c}")
        if b:
            factors.append(car if b == 1 else f"{car}^{b}")
        return "*".join(factors) if factors else "1"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda k: (k[0], k[2], k[1]), reverse=True)
        parts = []
        for k in keys:
            c = self.terms[k]
            mono = self._mono_str(k)
            if mono == "1":
                body = str(c)
            elif c == GR_ONE:
                body = mono
            elif c == -GR_ONE:
                body = f"-{mono}"
            elif c.is_real and c.re.denominator == 1:
                body = f"{c}*{mono}"
            else:
                body = f"({c})*{mono}"
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            out += (" - " + p[1:]) if p.startswith("-") else (" + " + p)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.basis.name}: {self}>"

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "basis": self.basis.name,
            "terms": [
                {"mono": list(k), "coeff": self.terms[k].to_json()}
                for k in sorted(self.terms)
            ],
        }


def commutator(u: UEAElement, v: UEAElement) -> UEAElement:
    return u * v - v * u


def casimir(basis: Sl2Basis = COMPACT) -> UEAElement:
    """The Casimir element H^2 + 2H + 4YX, same shape in either basis."""
    return UEAElement(
        basis,
        {
            (0, 2, 0): GR_ONE,
            (0, 1, 0): GaussianRational(2),
            (1, 0, 1): GaussianRational(4),
        },
    )


_HALF = Fraction(1, 2)
_I = GaussianRational(0, 1)
_HALF_I = GaussianRational(0, _HALF)

# Generator images under the two change-of-basis maps, as slot -> [(slot, coeff)].
# These are the transition constants of the standard 2x2 matrix realizations
# of the two bases; they intertwine the brackets and are mutually inverse
# (checked at import time below).
_COMPACT_IN_SPLIT = {
    _LOWER: [(_CARTAN, GaussianRational(_HALF)), (_RAISE, -_HALF_I), (_LOWER, -_HALF_I)],
    _CARTAN: [(_LOWER, _I), (_RAISE, -_I)],
    _RAISE: [(_CARTAN, GaussianRational(_HALF)), (_RAISE, _HALF_I), (_LOWER, _HALF_I)],
}
_SPLIT_IN_COMPACT = {
    _LOWER: [(_CARTAN, -_HALF_I), (_RAISE, -_HALF_I), (_LOWER, _HALF_I)],
    _CARTAN: [(_RAISE, GR_ONE), (_LOWER, GR_ONE)],
    _RAISE: [(_CARTAN, _HALF_I), (_RAISE, -_HALF_I), (_LOWER, _HALF_I)],
}


def _last_letter(mono: Monomial) -> Tuple[Monomial, int]:
    """Split the word F^a E^c H^b into its prefix and its last generator."""
    a, b, c = mono
    if b:
        return (a, b - 1, c), _CARTAN
    if c:
        return (a, b, c - 1), _RAISE
    return (a - 1, b, c), _LOWER


def change_basis(u: UEAElement, target: Sl2Basis) -> UEAElement:
    """Rewrite u in the other hard-wired basis, renormalizing the PBW order.

    The map is an algebra homomorphism, so the image of a monomial is the
    image of its word prefix times the image of its last generator, a
    combination of three single-generator right multiplications.  Images
    are cached per monomial for the duration of one call.
    """
    if u.basis is target:
        return u
    table = _COMPACT_IN_SPLIT if target is SPLIT else _SPLIT_IN_COMPACT
    images: Dict[Monomial, dict] = {(0, 0, 0): {(0, 0, 0): GR_ONE}}

    def image(mono: Monomial) -> dict:
        pending = []
        while mono not in images:
            pending.append(mono)
            mono = _last_letter(mono)[0]
        img = images[mono]
        for word in reversed(pending):
            step: dict = {}
            for tslot, coeff in table[_last_letter(word)[1]]:
                for key, v in times_generator(img, tslot, GR_ONE).items():
                    _add_term(step, key, v * coeff)
            images[word] = img = step
        return img

    out: dict = {}
    for mono, coeff in u.terms.items():
        for key, v in image(mono).items():
            _add_term(out, key, v * coeff)
    return UEAElement(target, out)


def k_order(u: UEAElement):
    """Filtration degree relative to the compact pair.

    The order of a PBW monomial in the compact basis is its total exponent
    on the two non-compact generators; an element's order is the maximum
    over its support, with the zero element at the -inf sentinel.  Elements
    given in the split basis are rewritten first, since that basis is not
    adapted to the Cartan involution.
    """
    v = change_basis(u, COMPACT)
    if v.is_zero:
        return NEG_INF
    return max(a + c for (a, b, c) in v.terms)


def hc_projection(u: UEAElement, cartan: str) -> UEAElement:
    """Project onto the Cartan polynomial part and apply the rho-shift.

    For either Cartan ("compact" or "split"), the element is rewritten in
    the corresponding basis, the PBW monomials containing a ladder
    generator are discarded, and the surviving polynomial in the Cartan
    generator h is shifted h -> h - 1.  On central elements this is the
    algebra homomorphism onto the Weyl-invariant polynomials.
    """
    target = COMPACT if cartan == "compact" else SPLIT if cartan == "split" else None
    if target is None:
        raise ValueError(f"unknown cartan {cartan!r}")
    v = change_basis(u, target)
    out: dict = {}
    for (a, b, c), coeff in v.terms.items():
        if a or c:
            continue
        # (h - 1)^b expanded
        for j in range(b + 1):
            _add_term(out, (0, j, 0), coeff * (comb(b, j) * (-1) ** (b - j)))
    return UEAElement(target, out)


def _verify_transition_constants() -> None:
    # mutual inverse on generators
    for basis, target in ((COMPACT, SPLIT), (SPLIT, COMPACT)):
        for name in basis.gens:
            g = UEAElement.generator(basis, name)
            assert change_basis(change_basis(g, target), basis) == g, name
    # brackets are intertwined
    for basis, target in ((COMPACT, SPLIT), (SPLIT, COMPACT)):
        low = UEAElement.generator(basis, basis.gens[0])
        car = UEAElement.generator(basis, basis.gens[1])
        rai = UEAElement.generator(basis, basis.gens[2])
        for u, v in ((car, rai), (car, low), (rai, low)):
            lhs = change_basis(commutator(u, v), target)
            rhs = commutator(change_basis(u, target), change_basis(v, target))
            assert lhs == rhs
    # the Casimir element keeps its shape
    assert change_basis(casimir(COMPACT), SPLIT) == casimir(SPLIT)
    assert change_basis(casimir(SPLIT), COMPACT) == casimir(COMPACT)


_verify_transition_constants()
