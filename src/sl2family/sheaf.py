"""Chart-local sections of the deformation family over the projective line.

The family of Lie algebras glues two charts: the finite chart (coordinate
r) carries the constant sl2 structure, and the chart at infinity
(coordinate R, with r = 1/R on the overlap) carries rescaled ladder
generators whose bracket is [raising, lowering] = R^2 * cartan.  A section
(``FamilySection``) is a PBW normal form (pbw.NormalForm) with Laurent
polynomials in the chart coordinate as coefficients; negative exponents
are legal and flag a rational (non-regular) section.  ``CartanSection`` maps
powers of the Cartan generator to Laurent polynomials (scalars.Laurent).
Both read in the other chart and test regularity through one rule, the
methods ``in_chart`` and ``is_regular_at`` of their private base.

A section is read as a PBW normal form graded by its R-degree in the finite
frame (``_graded``): its product is pbw.graded_multiply and its center test
pbw.is_central, slice by slice; only pbw.py sees int term maps.
``center_decompose`` builds no Casimir power: the coefficients of the Casimir
powers come off the Cartan part alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, Optional

from .pbw import COMPACT, NormalForm, UEAElement, casimir, graded_multiply, is_central
from .scalars import (GR_ONE, GR_ZERO, GaussianRational, Laurent, Terms, _add_term, _power,
                      parse_gaussian)

CHART_FINITE = "X0"
CHART_INFINITY = "Xinf"

_CHART_VAR = {CHART_FINITE: "r", CHART_INFINITY: "R"}


def chart_variable(chart: str) -> str:
    try:
        return _CHART_VAR[chart]
    except KeyError:
        raise ValueError(f"unknown chart {chart!r}") from None


@dataclass(frozen=True)
class ProjectivePoint:
    """A point of the projective line over Q(i): its finite-chart coordinate r,
    None at infinity.  The chart at infinity has the coordinate R = 1/r; it is
    0 at infinity, and the point r = 0 lies outside that chart."""

    r: Optional[GaussianRational]

    def __post_init__(self) -> None:
        if self.r is not None:
            object.__setattr__(self, "r", GaussianRational.of(self.r))

    @staticmethod
    def from_r(x) -> "ProjectivePoint":
        return ProjectivePoint(GaussianRational.of(x))

    @staticmethod
    def from_R(x) -> "ProjectivePoint":
        R = GaussianRational.of(x)
        return ProjectivePoint(GR_ONE / R if R else None)

    @staticmethod
    def infinity() -> "ProjectivePoint":
        return ProjectivePoint(None)

    @property
    def is_infinity(self) -> bool:
        return self.r is None

    @property
    def is_origin(self) -> bool:
        """True at r = 0, the point outside the chart at infinity."""
        return self.r is not None and not self.r

    @property
    def is_real(self) -> bool:
        return self.r is None or self.r.is_real

    def R_value(self) -> Optional[GaussianRational]:
        if self.r is None:
            return GR_ZERO
        return GR_ONE / self.r if self.r else None

    @staticmethod
    def parse(text: str) -> "ProjectivePoint":
        t = text.strip()
        if t in ("inf", "infinity", "oo"):
            return ProjectivePoint.infinity()
        if t.startswith("R="):
            return ProjectivePoint.from_R(parse_gaussian(t[2:]))
        return ProjectivePoint.from_r(parse_gaussian(t[2:] if t.startswith("r=") else t))

    def __str__(self) -> str:
        return "inf" if self.r is None else f"r={self.r}"


def _frame(mono) -> int:
    """The R-power a + c of a monomial's frame: Finf^a Einf^c = R^(a+c) F^a E^c."""
    return mono[0] + mono[2]


def _graded(terms: dict, lift: bool) -> dict:
    """{finite-frame R-degree: {monomial: Q(i)}} of a section's terms (lift at infinity)."""
    out: dict = {}
    for mono, f in terms.items():
        shift = lift and _frame(mono)
        for e, x in f.terms.items():
            out.setdefault(e + shift, {})[mono] = x
    return out


def _laurent_in(var: str, x) -> Optional[Laurent]:
    """x as a Laurent coefficient in var, or None when it is not one."""
    if isinstance(x, Laurent):
        if x.var != var:
            raise ValueError(f"coefficient variable {x.var} does not match chart variable {var}")
        return x
    if isinstance(x, (int, Fraction, GaussianRational)):
        return Laurent.const(x, var)
    return None


class _ChartSection(Terms):
    """A term map with Laurent coefficients in its chart's coordinate, and the
    one rule that glues the two charts.  The frame of a key at infinity is
    R^_frame(key) times the finite one; at a chart origin, the coefficient of
    a key must vanish to _order(key, at_infinity); _tag_in gives the tag over
    another chart."""

    __slots__ = ()
    _tag_in = staticmethod(lambda chart: chart)
    _frame = staticmethod(lambda key: 0)
    _order = staticmethod(lambda key, at_infinity: 0)

    @property
    def var(self) -> str:
        return chart_variable(self.chart)

    def _coerce(self, x):
        return _laurent_in(self.var, x)

    def in_chart(self, chart: str):
        """The same section read in chart: r = 1/R, and each coefficient times
        R^-frame (the same rule both ways)."""
        if self.chart == chart:
            return self
        chart_variable(chart)  # an unknown chart is a ValueError
        return self._make(self._tag_in(chart), {
            k: f.reciprocal_substitution().shifted(-self._frame(k)) for k, f in self.terms.items()})

    def is_regular_at(self, p: ProjectivePoint) -> bool:
        """True when the section, read in a chart containing p, has no pole at p.
        Laurent coefficients can have poles only at the two chart origins."""
        if not (p.is_infinity or p.is_origin):
            return True
        v = self.in_chart(CHART_INFINITY if p.is_infinity else CHART_FINITE)
        return all(f.valuation() >= v._order(k, p.is_infinity) for k, f in v.terms.items())


class FamilySection(NormalForm, _ChartSection):
    """A chart-local section of the enveloping-algebra family.

    ``terms`` maps PBW monomials (the conventions of pbw.py, relative to
    the compact-type generators of the chart) to Laurent polynomials in the
    chart coordinate.  Coefficients with negative exponents are permitted
    and flag a rational section.

    The product is pbw.graded_multiply in the finite frame X = Xinf/R,
    Y = Yinf/R, H = Hinf, where [X, Y] = H and Finf^a Einf^c H^b =
    R^(a+c) F^a E^c H^b: a term R^e Finf^a Einf^c H^b has the grade e + a + c
    (``_graded``), and a product monomial divides by R^(a+c) on the way back.
    """

    __slots__ = ()
    _TAG = "chart"
    chart = Terms.tag  # the tag slot under this class's own name
    # an own entry, so that a per-class wrapper (perfbench/tracer.py) sees it
    __mul__ = Terms.__mul__
    _frame = staticmethod(_frame)

    def __init__(self, chart: str, terms: dict) -> None:
        chart_variable(chart)
        super().__init__(chart, terms)

    def _product(self, terms: dict) -> dict:
        lift = self.tag == CHART_INFINITY
        out: dict = {}
        for e, part in graded_multiply(_graded(self.terms, lift), _graded(terms, lift)).items():
            for key, z in part.items():
                out.setdefault(key, {})[e - (lift and _frame(key))] = z
        return {k: Laurent._make(self.var, f) for k, f in out.items()}

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
    if u.basis != COMPACT:
        raise ValueError("constant sections are taken in the compact basis")
    base = FamilySection(CHART_FINITE, u.terms)  # constant coefficients
    return base if chart == CHART_FINITE else to_infinity_chart(base)


def to_infinity_chart(s: FamilySection) -> FamilySection:
    """Rewrite a finite-chart section in the chart at infinity.

    Each monomial with ladder exponents a, c picks up the factor R^-(a+c)
    (the ladder frames at infinity are R times the finite ones), and the
    scalar coefficients undergo the reciprocal substitution r = 1/R.
    """
    if s.chart != CHART_FINITE:
        raise ValueError("expected a finite-chart section")
    return s.in_chart(CHART_INFINITY)


def to_finite_chart(s: FamilySection) -> FamilySection:
    if s.chart != CHART_INFINITY:
        raise ValueError("expected a section over the chart at infinity")
    return s.in_chart(CHART_FINITE)


def casimir_section(chart: str) -> FamilySection:
    """The chart's Casimir section: the Casimir element on the finite chart,
    its R^2-rescaling (which is regular and nonvanishing) at infinity."""
    if chart == CHART_FINITE:
        return section_from_constant(casimir(COMPACT), CHART_FINITE)
    return section_from_constant(casimir(COMPACT), CHART_INFINITY) * Laurent.monomial("R", 2)


class NotCentralError(ValueError):
    """Raised when an operation requires a section of the center."""


def center_decompose(s: FamilySection) -> Optional[Dict[int, Laurent]]:
    """Write s as sum_j g_j * Casimir^j with Laurent scalars g_j.

    Returns the map j -> g_j over the nonzero g_j (highest j first), or
    None when s is not such a combination (equivalently, not a section of
    the center of the chart).  No Casimir power is built:

    1. each R-degree slice in the finite frame (each grade of ``_graded``)
       must pass pbw.is_central.  The center of U(sl2) is Q(i)[Casimir], so
       the sections passing 1 are exactly the Laurent combinations;
    2. the g_j come from the Cartan part (the H^b terms) alone, which is
       sum_j g_j t^j (h^2 + 2h)^j with t = 1 (finite chart) or R^2 (at
       infinity), peeled from its top degree down.
    """
    if not all(map(is_central, _graded(s.terms, s.chart == CHART_INFINITY).values())):
        return None
    t = 2 if s.chart == CHART_INFINITY else 0  # the R-degree of t
    cartan = {b: f for (a, b, c), f in s.terms.items() if a == 0}
    out: Dict[int, Laurent] = {}
    while cartan:
        top = max(cartan)
        assert top % 2 == 0, "a central section has even Cartan degree"
        n = top // 2
        lead = cartan[top]  # g_n t^n, the top coefficient of g_n t^n h^n (h + 2)^n
        out[n] = lead.shifted(-t * n)
        for k in range(n + 1):
            _add_term(cartan, top - k, lead * -(comb(n, k) << k))
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


class CartanSection(_ChartSection):
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

    def _tag_in(self, chart: str) -> tuple:
        return chart, self.cartan

    def _order(self, k: int, at_infinity: bool) -> int:
        return k if at_infinity and self.cartan == "split" else 0

    def _key_str(self, k: int) -> str:
        return _power("H" if self.cartan == "compact" else "Hs", k)

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
