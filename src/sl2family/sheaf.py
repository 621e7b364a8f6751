"""Chart-local sections of the deformation family over the projective line.

The family of Lie algebras glues two charts: the finite chart (coordinate
r) carries the constant sl2 structure, and the chart at infinity
(coordinate R, with r = 1/R on the overlap) carries rescaled ladder
generators whose bracket is [raising, lowering] = R^2 * cartan.  A section
(``FamilySection``) is a PBW normal form (pbw.NormalForm) with Laurent
polynomials in the chart coordinate as coefficients; negative exponents
are legal and flag a rational (non-regular) section.  ``CartanSection``
is a term map from powers of the Cartan generator to Laurent
polynomials.  ``Laurent`` itself lives in scalars.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, Optional

from .pbw import COMPACT, NormalForm, UEAElement, casimir
from .scalars import GR_ONE, GR_ZERO, GaussianRational, Laurent, Terms, _add_term, _power

CHART_FINITE = "X0"
CHART_INFINITY = "Xinf"

_CHART_VAR = {CHART_FINITE: "r", CHART_INFINITY: "R"}


def chart_variable(chart: str) -> str:
    try:
        return _CHART_VAR[chart]
    except KeyError:
        raise ValueError(f"unknown chart {chart!r}") from None


def other_chart(chart: str) -> str:
    return CHART_INFINITY if chart == CHART_FINITE else CHART_FINITE


@dataclass(frozen=True)
class ProjectivePoint:
    """A point [alpha : beta] of the projective line over Q(i), normalized.

    Normal form: [1 : r] for finite points (r is the finite-chart
    coordinate) and [0 : 1] for the point at infinity.  The chart-at-
    infinity coordinate of [alpha : beta] is R = alpha/beta.
    """

    alpha: GaussianRational
    beta: GaussianRational

    def __post_init__(self) -> None:
        a = GaussianRational.of(self.alpha) if not isinstance(self.alpha, GaussianRational) else self.alpha
        b = GaussianRational.of(self.beta) if not isinstance(self.beta, GaussianRational) else self.beta
        if not a and not b:
            raise ValueError("[0 : 0] is not a projective point")
        if a:
            b = b / a
            a = GR_ONE
        else:
            b = GR_ONE
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    @staticmethod
    def from_r(x) -> "ProjectivePoint":
        return ProjectivePoint(GR_ONE, GaussianRational.of(x))

    @staticmethod
    def from_R(x) -> "ProjectivePoint":
        return ProjectivePoint(GaussianRational.of(x), GR_ONE)

    @staticmethod
    def infinity() -> "ProjectivePoint":
        return ProjectivePoint(GR_ZERO, GR_ONE)

    @property
    def is_infinity(self) -> bool:
        return not self.alpha

    @property
    def is_origin(self) -> bool:
        """True at [1 : 0], the point r=0 outside the chart at infinity."""
        return bool(self.alpha) and not self.beta

    @property
    def is_real(self) -> bool:
        return self.alpha.is_real and self.beta.is_real

    def r_value(self) -> Optional[GaussianRational]:
        if self.is_infinity:
            return None
        return self.beta

    def R_value(self) -> Optional[GaussianRational]:
        if self.is_origin:
            return None
        return self.alpha / self.beta

    @staticmethod
    def parse(text: str) -> "ProjectivePoint":
        t = text.strip()
        if t in ("inf", "infinity", "oo"):
            return ProjectivePoint.infinity()
        if t.startswith("r="):
            return ProjectivePoint.from_r(Fraction(t[2:]))
        if t.startswith("R="):
            return ProjectivePoint.from_R(Fraction(t[2:]))
        return ProjectivePoint.from_r(Fraction(t))

    def __str__(self) -> str:
        if self.is_infinity:
            return "inf"
        return f"r={self.beta}"


def _laurent_in(var: str, x) -> Optional[Laurent]:
    """x as a Laurent coefficient in var, or None when it is not one."""
    if isinstance(x, Laurent):
        if x.var != var:
            raise ValueError(f"coefficient variable {x.var} does not match chart variable {var}")
        return x
    if isinstance(x, (int, Fraction, GaussianRational)):
        return Laurent.const(x, var)
    return None


class FamilySection(NormalForm):
    """A chart-local section of the enveloping-algebra family.

    ``terms`` maps PBW monomials (the conventions of pbw.py, relative to
    the compact-type generators of the chart) to Laurent polynomials in the
    chart coordinate; the product is ``normal_multiply`` with tau = 1 on
    the finite chart and tau = R^2 at infinity.  Coefficients with negative
    exponents are permitted and flag a rational section.
    """

    __slots__ = ()
    _TAG = "chart"
    chart = Terms.tag  # the tag slot under this class's own name
    # an own entry, so that a per-class wrapper (perfbench/tracer.py) sees it
    __mul__ = Terms.__mul__

    def __init__(self, chart: str, terms: dict) -> None:
        chart_variable(chart)
        super().__init__(chart, terms)

    @property
    def var(self) -> str:
        return chart_variable(self.tag)

    def _coerce(self, x):
        return _laurent_in(self.var, x)

    def _tau(self) -> Laurent:
        return Laurent.one("r") if self.tag == CHART_FINITE else Laurent.monomial("R", 2)

    def _gens(self):
        return ("Y", "H", "X") if self.tag == CHART_FINITE else ("Yinf", "Hinf", "Xinf")

    @staticmethod
    def zero(chart: str) -> "FamilySection":
        return FamilySection(chart, {})

    @property
    def rational(self) -> bool:
        """True when some coefficient has a pole at the chart origin."""
        return any(f.valuation() < 0 for f in self.terms.values())

    def to_json(self) -> dict:
        return {"chart": self.chart, "rational": self.rational, "terms": self._terms_json()}


def section_from_constant(u: UEAElement, chart: str = CHART_FINITE) -> FamilySection:
    """The section 1 (x) u determined by a constant enveloping-algebra element.

    u must be written in the compact basis, whose generators restrict to
    the finite-chart frames.  Over the chart at infinity the ladder frames
    rescale, so the section may acquire poles there.
    """
    if u.basis is not COMPACT:
        raise ValueError("constant sections are taken in the compact basis")
    base = FamilySection(CHART_FINITE, u.terms)  # constant coefficients
    if chart == CHART_FINITE:
        return base
    return to_infinity_chart(base)


def to_infinity_chart(s: FamilySection) -> FamilySection:
    """Rewrite a finite-chart section in the chart at infinity.

    Each monomial with ladder exponents a, c picks up the factor R^-(a+c)
    (the ladder frames at infinity are R times the finite ones), and the
    scalar coefficients undergo the reciprocal substitution r = 1/R.
    """
    if s.chart != CHART_FINITE:
        raise ValueError("expected a finite-chart section")
    return _transported(s, CHART_INFINITY)


def to_finite_chart(s: FamilySection) -> FamilySection:
    if s.chart != CHART_INFINITY:
        raise ValueError("expected a section over the chart at infinity")
    return _transported(s, CHART_FINITE)


def _transported(s: FamilySection, chart: str) -> FamilySection:
    # the same rule both ways, since r = 1/R and the frames rescale by R^-1
    return FamilySection._make(chart, {
        (a, b, c): f.reciprocal_substitution().shifted(-(a + c))
        for (a, b, c), f in s.terms.items()
    })


def casimir_section(chart: str) -> FamilySection:
    """The chart's Casimir section: the Casimir element on the finite chart,
    its R^2-rescaling (which is regular and nonvanishing) at infinity."""
    if chart == CHART_FINITE:
        return section_from_constant(casimir(COMPACT), CHART_FINITE)
    return section_from_constant(casimir(COMPACT), CHART_INFINITY) * Laurent.monomial("R", 2)


def is_regular_at(s: FamilySection, p: ProjectivePoint) -> bool:
    """True when the section, read in a chart containing p, has no pole at p.

    Coefficients are Laurent polynomials, so poles only occur at the two
    chart origins; everywhere else sections are automatically regular.
    """
    if p.is_infinity:
        v = s if s.chart == CHART_INFINITY else to_infinity_chart(s)
        return not v.rational
    if p.is_origin:
        v = s if s.chart == CHART_FINITE else to_finite_chart(s)
        return not v.rational
    return True


class NotCentralError(ValueError):
    """Raised when an operation requires a section of the center."""


def center_decompose(s: FamilySection) -> Optional[Dict[int, Laurent]]:
    """Write s as sum_j g_j * Casimir^j with Laurent scalars g_j.

    Returns the coefficient map, or None when s is not such a combination
    (equivalently, not a section of the center of the chart).  The
    decomposition peels off the top Casimir power: the coefficient of the
    extremal monomial (N, 0, N) in Casimir^N is exactly 4^N.
    """
    cur = s
    cas = casimir_section(s.chart)
    out: Dict[int, Laurent] = {}
    while not cur.is_zero:
        if any(a != c for (a, b, c) in cur.terms):
            return None
        n = max(a for (a, b, c) in cur.terms)
        if n == 0:
            leftovers = [k for k in cur.terms if k != (0, 0, 0)]
            if leftovers:
                return None
            out[0] = cur.terms[(0, 0, 0)]
            break
        lead = cur.terms.get((n, 0, n))
        if lead is None:
            return None
        g = lead * Fraction(1, 4 ** n)
        out[n] = g
        cur = cur - (cas ** n) * g
        if not cur.is_zero and max(a for (a, b, c) in cur.terms) >= n:
            return None
    return out


def center_membership(s: FamilySection) -> bool:
    """Decide membership in the polynomial center of the chart.

    Over the chart at infinity the center's global sections are the
    polynomial algebra on the coordinate and the rescaled Casimir; over
    the finite chart, on the coordinate and the Casimir itself.  Rational
    sections of the center (negative coefficient exponents) are rejected.
    """
    dec = center_decompose(s)
    if dec is None:
        return False
    return all(g.is_polynomial for g in dec.values())


class CartanSection(Terms):
    """A section valued in polynomials on the family of Cartan subalgebras.

    ``coeffs`` maps powers of the finite-chart Cartan generator to Laurent
    polynomials; the tag is the pair (chart, cartan).  Regularity at
    infinity depends on which Cartan subfamily is meant: the compact-type
    subfamily is a trivial line bundle (coefficientwise check), while the
    split-type subfamily twists, so the coefficient of h^k must vanish to
    order k at infinity.
    """

    __slots__ = ()
    _TAG = "chart and cartan"
    coeffs = Terms.terms  # the term slot under this class's own name

    def __init__(self, chart: str, cartan: str, coeffs: dict) -> None:
        if cartan not in ("compact", "split"):
            raise ValueError(f"unknown cartan {cartan!r}")
        chart_variable(chart)
        super().__init__((chart, cartan), coeffs)

    chart = property(lambda self: self.tag[0])
    cartan = property(lambda self: self.tag[1])

    def _coerce(self, x):
        return _laurent_in(chart_variable(self.chart), x)

    def _key_str(self, k: int) -> str:
        return _power("H" if self.cartan == "compact" else "Hs", k)

    def _in_chart(self, chart: str) -> "CartanSection":
        if self.chart == chart:
            return self
        flipped = {k: f.reciprocal_substitution() for k, f in self.terms.items()}
        return CartanSection._make((chart, self.cartan), flipped)

    def in_infinity_chart(self) -> "CartanSection":
        return self._in_chart(CHART_INFINITY)

    def in_finite_chart(self) -> "CartanSection":
        return self._in_chart(CHART_FINITE)

    def is_regular_at(self, p: ProjectivePoint) -> bool:
        if p.is_infinity:
            v = self.in_infinity_chart()
            if self.cartan == "compact":
                return all(f.valuation() >= 0 for f in v.coeffs.values())
            return all(f.valuation() >= k for k, f in v.coeffs.items())
        if p.is_origin:
            v = self.in_finite_chart()
            return all(f.valuation() >= 0 for f in v.coeffs.values())
        return True

    def to_json(self) -> dict:
        return {
            "chart": self.chart,
            "cartan": self.cartan,
            "coeffs": [
                {"degree": k, "coeff": self.coeffs[k].to_json()}
                for k in sorted(self.coeffs)
            ],
        }


def gamma_family(s: FamilySection, cartan: str) -> CartanSection:
    """The family version of the Cartan projection with rho-shift.

    Defined on central sections only: decompose s into Casimir powers and
    send the Casimir to h^2 - 1 (finite chart) or its R^2-rescaling to
    R^2*(h^2 - 1) (chart at infinity).  For either choice of Cartan the
    image has the same coefficients; the two differ in the regularity
    geometry recorded on the result.  Regular central input yields a
    regular image (asserted).
    """
    dec = center_decompose(s)
    if dec is None:
        raise NotCentralError("gamma_family requires a central section")
    coeffs: Dict[int, Laurent] = {}
    for j, g in dec.items():
        scale = g if s.chart == CHART_FINITE else g.shifted(2 * j)
        for t in range(j + 1):
            _add_term(coeffs, 2 * t, scale * (comb(j, t) * (-1) ** (j - t)))
    out = CartanSection(s.chart, cartan, coeffs)
    if s.chart == CHART_INFINITY and not s.rational:
        assert out.is_regular_at(ProjectivePoint.infinity())
    return out
