"""PBW normal forms in the sl2 enveloping algebra, for two ordered bases.

A monomial is stored by its exponent triple (a, b, c) = exponents of the
(lowering, cartan, raising) generators.  The normal word order puts both
ladder generators to the left of the Cartan generator,

    (lowering)^a (raising)^c (cartan)^b,

which is the ordering adapted to the Cartan-decomposition filtration: for
the compact basis the filtration degree of a monomial is just a + c, the
total exponent on the non-compact generators.

The rewriting core (``times_generator``) uses [raising, lowering] = cartan.
``NormalForm`` is the term map (see scalars.Terms) whose product is that
rewriting and ``UEAElement`` a normal form over Q(i).

The Q(i) loops run on Gaussian integers, and only this module knows that
format: an element is brought to a pair of int term maps (real and
imaginary parts) over one common denominator (``_integral``), the work runs
on those, and each output coefficient is reduced once, at the end
(``_rational``); ``times_monomial`` passes an empty half through
unrewritten.  ``graded_multiply`` is the one product loop, over normal forms
graded by a degree that adds (sheaf.py grades sections by R-degree), and
``normal_multiply`` is its one-grade case; ``is_central``, the center test of
sheaf.center_decompose and of ``change_basis``, rewrites nothing.
``change_basis`` relabels a central element, whose terms are the same in
both bases, and rewrites any other on the same integers (twice each
transition constant is a Gaussian integer, so the image of a word of length
L is one over 2^L); ``hc_projection`` reads the Cartan part of its result.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, lcm
from typing import Dict, Tuple

from .scalars import NEG_INF, GR_ONE, Terms, _add_term, _power, _reduced

Monomial = Tuple[int, int, int]

_LOWER, _CARTAN, _RAISE = 0, 1, 2


def times_generator(terms: dict, gen: int) -> dict:
    """Right-multiply a normal-form term map by a single generator.

    Rewriting rules, with E = raising, F = lowering, H = cartan and word
    order F^a E^c H^b:

        H^b E = E (H+2)^b
        H^b F = F (H-2)^b
        E^c F = F E^c + c E^(c-1) H + c(c-1) E^(c-1)
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
                    _add_term(out, (a, j + 1, c - 1), coeff * (c * w))
                    if c > 1:
                        _add_term(out, (a, j, c - 1), coeff * (c * (c - 1) * w))
    return out


def times_monomial(terms: dict, mono: Monomial) -> dict:
    """Right-multiply a normal-form term map by the monomial F^a E^c H^b.
    An empty map is returned as it is, with no rewrite."""
    if not terms:
        return terms
    a, b, c = mono
    for _ in range(a):
        terms = times_generator(terms, _LOWER)
    for _ in range(c):
        terms = times_generator(terms, _RAISE)
    for _ in range(b):
        terms = times_generator(terms, _CARTAN)
    return terms


def is_central(terms: dict) -> bool:
    """Whether the Q(i) term map u is central: of weight zero (a = c in every
    F^a E^c H^b) and commuting with E, whose weight-zero centralizer is the
    center Q[Casimir].  Each int half of D u (``_integral``) is then a sum of
    F^k E^k u_k(H), whose bracket with E has at F^k E^(k+1) the coefficient
    u_k(H) - u_k(H+2) + (k+1)(H+k+2) u_(k+1)(H)."""
    if any(a != c for a, _, c in terms):
        return False
    for part in _integral(terms)[1:]:
        top = max(map(sum, part), default=0)
        u = [[0] * (top - 2 * k + 1) for k in range(top // 2 + 2)]  # u[k][b]: F^k E^k H^b
        for (k, b, _), x in part.items():
            u[k][b] = x
        for k, (p, q) in enumerate(zip(u, u[1:])):  # p = u_k, q = u_(k+1)
            d = p[:]  # to p(H+2), by a Taylor shift in Horner steps
            for i in range(len(d) - 1):
                for j in range(len(d) - 2, i - 1, -1):
                    d[j] += 2 * d[j + 1]
            if any(x - y != (k + 1) * (z + (k + 2) * w)  # (H+k+2) q(H) at H^j; tops cancel
                   for x, y, z, w in zip(d, p, [0] + q, q + [0])):
                return False
    return True


def _integral(terms: dict, den: int = 0) -> Tuple[int, dict, dict]:
    """(D, re, im): a common denominator D of a Q(i) term map (the least one
    unless den gives it) and the int term maps of D times its two parts."""
    den = den or lcm(*(c.den for c in terms.values()))
    re = {key: c.re_num * (den // c.den) for key, c in terms.items() if c.re_num}
    im = {key: c.im_num * (den // c.den) for key, c in terms.items() if c.im_num}
    return den, re, im


def _mac(re: dict, im: dict, x: dict, y: dict, cr: int, ci: int) -> None:
    """re + i*im += (cr + i*ci)(x + i*y), over int term maps."""
    for acc, w, part in ((re, cr, x), (re, -ci, y), (im, ci, x), (im, cr, y)):
        if w:
            for key, v in part.items():
                s = acc.get(key, 0) + w * v
                if s:
                    acc[key] = s
                else:  # w * v is nonzero, so the key was there
                    del acc[key]


def _apply(x: tuple, row: list) -> tuple:
    """A doubled generator image row [(slot, cr, ci)] applied to the int pair
    x = (re, im), each target slot acting by ``times_generator``."""
    re, im = {}, {}
    for slot, cr, ci in row:
        _mac(re, im, times_generator(x[0], slot), times_generator(x[1], slot), cr, ci)
    return re, im


def _rational(re: dict, im: dict, den: int) -> dict:
    """The Q(i) term map (re + i*im) / den, each coefficient reduced once."""
    return {key: _reduced(re.get(key, 0), im.get(key, 0), den) for key in {**re, **im}}


def graded_multiply(u: dict, v: dict) -> dict:
    """Product of graded normal forms {grade: {monomial: Q(i)}}, grades adding.

    Each operand is brought to int term maps over one common denominator;
    each int slice of u is rewritten once per monomial of v, summed with v's
    int coefficients of that monomial in every grade, and each output
    coefficient is reduced once, over D_u * D_v.
    """
    du = lcm(*[c.den for t in u.values() for c in t.values()])
    dv = lcm(*[c.den for t in v.values() for c in t.values()])
    rows: Dict[Monomial, list] = {}  # v's monomial -> [(grade, re, im)]
    for g, t in v.items():
        _, vre, vim = _integral(t, dv)
        for mono in t:
            rows.setdefault(mono, []).append((g, vre.get(mono, 0), vim.get(mono, 0)))
    acc = {g1 + g2: ({}, {}) for g1 in u for g2 in v}  # grade -> int pair over du * dv
    for g1, t in u.items():
        _, x, y = _integral(t, du)
        for mono, row in rows.items():
            px, py = times_monomial(x, mono), times_monomial(y, mono)
            for g2, cr, ci in row:
                re, im = acc[g1 + g2]
                _mac(re, im, px, py, cr, ci)
    return {g: _rational(re, im, du * dv) for g, (re, im) in acc.items() if re or im}


def normal_multiply(ut: dict, vt: dict) -> dict:
    """Product of two normal-form term maps over Q(i): graded_multiply on one grade."""
    return graded_multiply({0: ut}, {0: vt}).get(0, {})


@dataclass(frozen=True)
class Sl2Basis:
    """An ordered sl2 basis (lowering, cartan, raising)."""

    name: str
    gens: Tuple[str, str, str]

    def __str__(self) -> str:
        return self.name


COMPACT = Sl2Basis("compact", ("Y", "H", "X"))
SPLIT = Sl2Basis("split", ("Ys", "Hs", "Xs"))


class NormalForm(Terms):
    """A term map in PBW normal form: exponent triples (a, b, c) to coefficients.

    Subclasses fix the generator names (``_gens``); the product is
    ``normal_multiply`` over Q(i).
    """

    __slots__ = ()
    _ONE = (0, 0, 0)
    _key = tuple
    _sort_key = staticmethod(lambda k: (k[0], k[2], k[1]))

    def _product(self, terms: dict) -> dict:
        return normal_multiply(self.terms, terms)

    def _key_str(self, mono: Monomial) -> str:
        a, b, c = mono
        low, car, rai = self._gens()
        return "*".join(f for f in (_power(low, a), _power(rai, c), _power(car, b)) if f)

    def _terms_json(self) -> list:
        return [{"mono": list(k), "coeff": self.terms[k].to_json()} for k in sorted(self.terms)]


class UEAElement(NormalForm):
    """An enveloping-algebra element in PBW normal form over Q(i).

    ``terms`` maps monomials to nonzero Gaussian rationals; the tag is the
    basis, and mixed-basis arithmetic is an error.
    """

    __slots__ = ()
    _TAG = "basis"
    basis = Terms.tag  # the tag slot under this class's own name

    def _gens(self):
        return self.tag.gens

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(basis: Sl2Basis = COMPACT) -> "UEAElement":
        return UEAElement._make(basis, {})

    @staticmethod
    def one(basis: Sl2Basis = COMPACT) -> "UEAElement":
        return UEAElement._make(basis, {(0, 0, 0): GR_ONE})

    @staticmethod
    def monomial(basis: Sl2Basis, mono: Monomial, coeff=1) -> "UEAElement":
        return UEAElement(basis, {mono: coeff})

    def to_json(self) -> dict:
        return {"basis": self.basis.name, "terms": self._terms_json()}


def casimir(basis: Sl2Basis = COMPACT) -> UEAElement:
    """The Casimir element H^2 + 2H + 4YX, same shape in either basis."""
    return UEAElement(basis, {(0, 2, 0): 1, (0, 1, 0): 2, (1, 0, 1): 4})


# Per target basis, twice the image of each source generator, as slot ->
# [(slot, re, im)]: the transition constants of the 2x2 realizations of the
# two bases, doubled to Gaussian integers (checked by tests/test_pbw.py).
_DOUBLED = {
    SPLIT: {
        _LOWER: [(_CARTAN, 1, 0), (_RAISE, 0, -1), (_LOWER, 0, -1)],
        _CARTAN: [(_LOWER, 0, 2), (_RAISE, 0, -2)],
        _RAISE: [(_CARTAN, 1, 0), (_RAISE, 0, 1), (_LOWER, 0, 1)],
    },
    COMPACT: {
        _LOWER: [(_CARTAN, 0, -1), (_RAISE, 0, -1), (_LOWER, 0, 1)],
        _CARTAN: [(_RAISE, 2, 0), (_LOWER, 2, 0)],
        _RAISE: [(_CARTAN, 0, 1), (_RAISE, 0, -1), (_LOWER, 0, 1)],
    },
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

    A central u has the same terms in both bases and is relabelled.  Any
    other u is rewritten: the map is an algebra homomorphism, so the image
    of a monomial is the image of its word prefix times the image of its
    last generator, a combination of three single-generator right
    multiplications.  Twice each generator image has Gaussian-integer
    coefficients, so 2^len(word) times the image of a word does too: it is
    kept as two int term maps, the real and imaginary parts, and cached per
    monomial for the duration of one call.  The sum over u's terms runs on
    the same integers, over D * 2^top with D the common denominator of u and
    top its degree, and each output coefficient is reduced once.
    Raises ValueError for a basis that is neither COMPACT nor SPLIT.
    """
    for basis in (u.basis, target):
        if basis not in _DOUBLED:
            raise ValueError(f"unknown basis {basis!r}: expected compact or split")
    if u.basis == target:
        return u
    # the Cayley transform between the bases is inner, so it fixes the center
    if is_central(u.terms):
        return UEAElement._make(target, u.terms)
    table = _DOUBLED[target]
    images: Dict[Monomial, Tuple[dict, dict]] = {(0, 0, 0): ({(0, 0, 0): 1}, {})}

    def image(mono: Monomial) -> Tuple[dict, dict]:
        pending = []
        while mono not in images:
            pending.append(mono)
            mono = _last_letter(mono)[0]
        img = images[mono]
        for word in reversed(pending):
            images[word] = img = _apply(img, table[_last_letter(word)[1]])
        return img

    den, ure, uim = _integral(u.terms)
    top = max(map(sum, u.terms), default=0)
    re, im = {}, {}
    for mono in u.terms:
        pad = top - sum(mono)
        _mac(re, im, *image(mono), ure.get(mono, 0) << pad, uim.get(mono, 0) << pad)
    return UEAElement._make(target, _rational(re, im, den << top))


def k_order(u: UEAElement):
    """Filtration degree relative to the compact pair.

    The order of a PBW monomial in the compact basis is its total exponent
    on the two non-compact generators; an element's order is the maximum
    over its support, with the zero element at the -inf sentinel.  Elements
    given in the split basis are rewritten first, since that basis is not
    adapted to the Cartan involution.
    """
    v = change_basis(u, COMPACT)
    if not v.terms:
        return NEG_INF
    return max(a + c for (a, b, c) in v.terms)


def hc_projection(u: UEAElement, cartan: str) -> UEAElement:
    """Project onto the Cartan polynomial part and apply the rho-shift.

    For either Cartan ("compact" or "split") with target basis F, H, E, the
    Cartan part of u is the sum p(h) of the ladder-free terms coeff * h^b of
    change_basis(u, target), and the result is p(h - 1).  On central elements
    this is the algebra homomorphism onto the Weyl-invariant polynomials.
    Raises ValueError for an unknown cartan or basis.
    """
    target = COMPACT if cartan == "compact" else SPLIT if cartan == "split" else None
    if target is None:
        raise ValueError(f"unknown cartan {cartan!r}")
    out: dict = {}
    for (a, b, c), coeff in change_basis(u, target).terms.items():
        if a or c:
            continue
        # (h - 1)^b expanded
        for j in range(b + 1):
            _add_term(out, (0, j, 0), coeff * (comb(b, j) * (-1) ** (b - j)))
    return UEAElement._make(target, out)
