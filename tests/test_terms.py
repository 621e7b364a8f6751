"""The term-map core: the printed form of each term type, the Laurent and
Poly views against each other, substitutions and chart round trips."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sl2family import (
    CHART_FINITE,
    CHART_INFINITY,
    COMPACT,
    SPLIT,
    CartanSection,
    FamilySection,
    Laurent,
    Poly,
    UEAElement,
    casimir,
    casimir_section,
    gamma_family,
    ProjectivePoint,
    make_family,
    section_from_constant,
    to_finite_chart,
    to_infinity_chart,
)
from sl2family.sheaf import chart_variable
from sl2family.scalars import GaussianRational as GR
from polys import from_poly, to_poly

F = Fraction
PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)

# -- printed forms --------------------------------------------------------------
#
# Recorded with the five separate renderers this core replaced.  The one
# deliberate change: a negative non-integer real coefficient of a Laurent
# polynomial or of an enveloping-algebra element now prints with Poly's
# sign rule, "- (1/2)*x" instead of "+ (-1/2)*x" (so do the Laurent
# coefficients inside sections).

COEFFS = [GR(1), GR(-1), GR(3), GR(-3), GR(F(1, 2)), GR(F(-1, 2)), GR(0, 1), GR(0, -1),
          GR(1, 1), GR(F(-1, 2), F(2, 3)), GR(0, F(-1, 3))]


def printed_samples():
    for c in COEFFS:
        yield from (Poly.of([5, 0, c], "r"), Poly.of([c], "R"), Poly.of([0, c, -2], "r"))
    yield Poly.zero()
    for c in COEFFS:
        yield from (Laurent("r", {-2: c, 0: GR(5)}), Laurent("R", {1: GR(-2), 0: c, -1: c}))
    yield Laurent.zero("r")
    for c in COEFFS:
        yield UEAElement(COMPACT, {(1, 0, 1): c, (0, 2, 0): GR(1), (0, 0, 0): c})
        yield UEAElement(SPLIT, {(2, 1, 0): GR(-1), (0, 1, 3): c})
    yield from (casimir(COMPACT), UEAElement.zero(SPLIT))
    yield from (casimir_section(CHART_FINITE), casimir_section(CHART_INFINITY),
                casimir_section(CHART_INFINITY) ** 2)
    yield FamilySection(CHART_FINITE, {(1, 2, 0): Laurent("r", {1: GR(F(-1, 2)), -1: GR(0, 1)}),
                                       (0, 0, 0): Laurent("r", {0: GR(5)})})
    yield FamilySection.zero(CHART_INFINITY)
    for cartan in ("compact", "split"):
        yield gamma_family(casimir_section(CHART_FINITE) ** 2, cartan)
        yield gamma_family(casimir_section(CHART_INFINITY) ** 3, cartan)
        yield CartanSection(CHART_FINITE, cartan, {1: Laurent("r", {1: GR(F(-1, 2))}),
                                                   0: Laurent("r", {-1: GR(0, 1)})})
    yield CartanSection(CHART_INFINITY, "split", {})


PRINTED = [
    "r^2 + 5",
    "1",
    "-2*r^2 + r",
    "-r^2 + 5",
    "-1",
    "-2*r^2 - r",
    "3*r^2 + 5",
    "3",
    "-2*r^2 + 3*r",
    "-3*r^2 + 5",
    "-3",
    "-2*r^2 - 3*r",
    "(1/2)*r^2 + 5",
    "1/2",
    "-2*r^2 + (1/2)*r",
    "-(1/2)*r^2 + 5",
    "-1/2",
    "-2*r^2 - (1/2)*r",
    "(i)*r^2 + 5",
    "i",
    "-2*r^2 + (i)*r",
    "(-i)*r^2 + 5",
    "-i",
    "-2*r^2 + (-i)*r",
    "(1+i)*r^2 + 5",
    "1+i",
    "-2*r^2 + (1+i)*r",
    "(-1/2+(2/3)i)*r^2 + 5",
    "-1/2+(2/3)i",
    "-2*r^2 + (-1/2+(2/3)i)*r",
    "(-(1/3)i)*r^2 + 5",
    "-(1/3)i",
    "-2*r^2 + (-(1/3)i)*r",
    "0",
    "5 + r^-2",
    "-2*R + 1 + R^-1",
    "5 - r^-2",
    "-2*R - 1 - R^-1",
    "5 + 3*r^-2",
    "-2*R + 3 + 3*R^-1",
    "5 - 3*r^-2",
    "-2*R - 3 - 3*R^-1",
    "5 + (1/2)*r^-2",
    "-2*R + 1/2 + (1/2)*R^-1",
    "5 - (1/2)*r^-2",
    "-2*R - 1/2 - (1/2)*R^-1",
    "5 + (i)*r^-2",
    "-2*R + i + (i)*R^-1",
    "5 + (-i)*r^-2",
    "-2*R - i + (-i)*R^-1",
    "5 + (1+i)*r^-2",
    "-2*R + 1+i + (1+i)*R^-1",
    "5 + (-1/2+(2/3)i)*r^-2",
    "-2*R - 1/2+(2/3)i + (-1/2+(2/3)i)*R^-1",
    "5 + (-(1/3)i)*r^-2",
    "-2*R - (1/3)i + (-(1/3)i)*R^-1",
    "0",
    "Y*X + H^2 + 1",
    "-Ys^2*Hs + Xs^3*Hs",
    "-Y*X + H^2 - 1",
    "-Ys^2*Hs - Xs^3*Hs",
    "3*Y*X + H^2 + 3",
    "-Ys^2*Hs + 3*Xs^3*Hs",
    "-3*Y*X + H^2 - 3",
    "-Ys^2*Hs - 3*Xs^3*Hs",
    "(1/2)*Y*X + H^2 + 1/2",
    "-Ys^2*Hs + (1/2)*Xs^3*Hs",
    "-(1/2)*Y*X + H^2 - 1/2",
    "-Ys^2*Hs - (1/2)*Xs^3*Hs",
    "(i)*Y*X + H^2 + i",
    "-Ys^2*Hs + (i)*Xs^3*Hs",
    "(-i)*Y*X + H^2 - i",
    "-Ys^2*Hs + (-i)*Xs^3*Hs",
    "(1+i)*Y*X + H^2 + 1+i",
    "-Ys^2*Hs + (1+i)*Xs^3*Hs",
    "(-1/2+(2/3)i)*Y*X + H^2 - 1/2+(2/3)i",
    "-Ys^2*Hs + (-1/2+(2/3)i)*Xs^3*Hs",
    "(-(1/3)i)*Y*X + H^2 - (1/3)i",
    "-Ys^2*Hs + (-(1/3)i)*Xs^3*Hs",
    "4*Y*X + H^2 + 2*H",
    "0",
    "(4)*Y*X + (1)*H^2 + (2)*H",
    "(4)*Yinf*Xinf + (R^2)*Hinf^2 + (2*R^2)*Hinf",
    "(16)*Yinf^2*Xinf^2 + (8*R^2)*Yinf*Xinf*Hinf^2 + (32*R^2)*Yinf*Xinf*Hinf + (32*R^2)*Yinf*Xinf + (R^4)*Hinf^4 + (4*R^4)*Hinf^3 + (4*R^4)*Hinf^2",
    "(-(1/2)*r + (i)*r^-1)*Y*H^2 + (5)*1",
    "0",
    "(1)*H^4 + (-2)*H^2 + (1)*1",
    "(R^6)*H^6 + (-3*R^6)*H^4 + (3*R^6)*H^2 + (-R^6)*1",
    "(-(1/2)*r)*H + ((i)*r^-1)*1",
    "(1)*Hs^4 + (-2)*Hs^2 + (1)*1",
    "(R^6)*Hs^6 + (-3*R^6)*Hs^4 + (3*R^6)*Hs^2 + (-R^6)*1",
    "(-(1/2)*r)*Hs + ((i)*r^-1)*1",
    "0"
]


def test_printed_forms():
    assert [str(x) for x in printed_samples()] == PRINTED


def test_negative_fractions_take_the_poly_sign_rule():
    half = GR(F(-1, 2))
    assert str(UEAElement(COMPACT, {(0, 0, 1): half, (1, 0, 0): GR(1)})) == "Y - (1/2)*X"
    assert str(Laurent("r", {1: half, 0: GR(1)})) == "-(1/2)*r + 1"
    assert str(Poly.of([1, half], "r")) == "-(1/2)*r + 1"


# -- Laurent and Poly views, substitutions, chart round trips --------------------

RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=4)
SCALARS = st.builds(GR, RATIONALS, RATIONALS) | st.builds(GR, RATIONALS)
DENSE = st.lists(SCALARS | st.just(GR(0)), max_size=5)
LAURENTS = st.builds(lambda var, cs: Laurent(var, cs), st.sampled_from("rR"),
                     st.dictionaries(st.integers(-4, 4), SCALARS, max_size=5))


@PROPERTY_SETTINGS
@given(DENSE, DENSE, SCALARS)
def test_poly_arithmetic_is_laurent_arithmetic(a, b, c):
    p, q = Poly(a, "r"), Poly(b, "r")
    lp, lq = from_poly(p), from_poly(q)
    for poly, laurent in ((p + q, lp + lq), (p - q, lp - lq), (p * q, lp * lq),
                          (-p, -lp), (p * c, lp * c), (c + p, c + lp), (p ** 2, lp ** 2)):
        assert from_poly(poly) == laurent
        assert to_poly(laurent) == poly
        assert poly.coeffs == tuple(laurent.coeffs.get(k, GR(0)) for k in range(len(poly.coeffs)))
        assert str(poly) == str(laurent) and poly.to_json() == laurent.to_json()
    x = GR(F(2, 3), -1)
    assert p.eval(x) == lp.eval(x) == p(x)


POINTS = SCALARS | st.just(GR(0))


def sum_of_terms(f, x):
    """f at x as sum c * x^e, each power from GaussianRational.__pow__."""
    return sum((c * x ** e for e, c in f.terms.items()), GR(0))


@PROPERTY_SETTINGS
@given(LAURENTS | st.builds(Poly, DENSE, st.sampled_from("rR")), POINTS)
@example(Laurent("r", {-1: GR(1), 2: GR(3)}), GR(0))  # a pole at 0
@example(Poly([GR(3), GR(0), GR(1)], "r"), GR(0))  # 0 without a pole
@example(Laurent("r", {3: GR(F(1, 2))}), GR(0))  # 0 with no constant term
@example(Laurent("R", {-2: GR(1, 1), 3: GR(F(1, 2))}), GR(F(2, 3), -1))
def test_eval_is_the_sum_of_terms(f, x):
    if not x and any(e < 0 for e in f.terms):
        with pytest.raises(ZeroDivisionError):
            f.eval(x)
        return
    assert f.eval(x) == sum_of_terms(f, x)
    if isinstance(f, Poly):
        assert f(x) == sum_of_terms(f, x)


@PROPERTY_SETTINGS
@given(LAURENTS, st.integers(-5, 5), st.integers(-5, 5))
def test_substitutions(f, a, b):
    assert f.reciprocal_substitution().reciprocal_substitution() == f
    assert f.reciprocal_substitution().var != f.var
    assert f.shifted(a).shifted(b) == f.shifted(a + b)
    assert f.shifted(0) == f


def seeded_section(seed: int) -> FamilySection:
    rng = random.Random(seed)

    def scalar():
        return GR(F(rng.randint(-6, 6), rng.randint(1, 4)), rng.choice((0, 0, 1, -2)))

    return FamilySection(CHART_FINITE, {
        (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)):
            Laurent("r", {rng.randint(-3, 3): scalar() for _ in range(rng.randint(1, 3))})
        for _ in range(rng.randint(0, 4))
    })


@PROPERTY_SETTINGS
@given(st.integers(0, 2**32))
def test_chart_round_trip(seed):
    s = seeded_section(seed)
    t = to_infinity_chart(s)
    assert t.chart == CHART_INFINITY
    assert to_finite_chart(t) == s
    assert to_infinity_chart(to_finite_chart(t)) == t


@st.composite
def chart_sections(draw):
    """A FamilySection or a CartanSection of either Cartan, over either chart."""
    chart = draw(st.sampled_from((CHART_FINITE, CHART_INFINITY)))
    exps = st.dictionaries(st.integers(-3, 3), SCALARS, min_size=1, max_size=3)
    coeffs = st.builds(Laurent, st.just(chart_variable(chart)), exps)
    if draw(st.booleans()):
        monos = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
        return FamilySection(chart, draw(st.dictionaries(monos, coeffs, max_size=4)))
    cartan = draw(st.sampled_from(("compact", "split")))
    return CartanSection(chart, cartan, draw(st.dictionaries(st.integers(0, 4), coeffs, max_size=4)))


def frame(s, key) -> int:
    """The power of R by which key's frame at infinity exceeds the finite one:
    Finf^a Einf^c H^b = R^(a+c) F^a E^c H^b, while the Cartan powers keep theirs."""
    return key[0] + key[2] if isinstance(s, FamilySection) else 0


def pole_free(s, at_infinity: bool) -> bool:
    """Regularity at inf or at r = 0, from the exponents of s's own coefficients.

    f at the origin of its own chart vanishes to the order min(exponents); read
    in the other chart it is f(1/x) x^-frame, of order -max(exponents) - frame.
    The split Cartan's h^k must vanish to order k at infinity, all else to 0."""
    own = (s.chart == CHART_INFINITY) == at_infinity
    split = at_infinity and getattr(s, "cartan", None) == "split"
    return all((min(f.terms) if own else -max(f.terms) - frame(s, key)) >= (key if split else 0)
               for key, f in s.terms.items())


@PROPERTY_SETTINGS
@given(chart_sections(), SCALARS.filter(bool))
@example(casimir_section(CHART_INFINITY) ** 2, GR(2))
@example(section_from_constant(casimir(COMPACT)), GR(F(-1, 3), 1))
@example(gamma_family(casimir_section(CHART_INFINITY) ** 2, "split"), GR(3))
@example(CartanSection(CHART_INFINITY, "split", {2: Laurent("R", {1: GR(1)})}), GR(2))
def test_chart_rule_against_evaluation(s, x):
    """in_chart against evaluation at a nonzero x of the target chart, and
    is_regular_at against the valuations of pole_free."""
    other = CHART_INFINITY if s.chart == CHART_FINITE else CHART_FINITE
    t = s.in_chart(other)
    assert t.chart == other and type(t) is type(s) and t.in_chart(s.chart) == s
    assert getattr(t, "cartan", None) == getattr(s, "cartan", None)
    assert set(t.terms) == set(s.terms)
    for key, f in s.terms.items():
        g = t.terms[key]
        assert g.var == chart_variable(other)
        assert g.eval(x) == f.eval(1 / x) * x ** -frame(s, key), key
    for at_infinity, p in ((True, ProjectivePoint.infinity()), (False, ProjectivePoint.from_r(0))):
        want = pole_free(s, at_infinity)
        assert s.is_regular_at(p) == t.is_regular_at(p) == want, str(p)
    assert s.is_regular_at(ProjectivePoint.from_r(GR(2, 1)))


@PROPERTY_SETTINGS
@given(DENSE, DENSE)
def test_equal_polys_hash_equal(a, b):
    p, q = Poly(a, "r"), Poly(b, "r")
    built = (p + q) - q
    assert built == p and hash(built) == hash(p)
    backwards = to_poly(Laurent("r", dict(reversed(list(p.terms.items())))))
    assert backwards == p and hash(backwards) == hash(p)
    assert Poly(a + [0, 0], "r") == p and hash(Poly(a + [0, 0], "r")) == hash(p)
    if len(p.coeffs) <= 3:
        fam = make_family(0, p)
        assert fam == make_family(0, built) and hash(fam) == hash(make_family(0, built))
