"""The term-map core: the printed form of each term type, the Laurent and
Poly views against each other, substitutions and chart round trips."""

import random
from fractions import Fraction

from hypothesis import given, settings
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
    make_family,
    to_finite_chart,
    to_infinity_chart,
)
from sl2family.scalars import GaussianRational as GR

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
    lp, lq = Laurent.from_poly(p), Laurent.from_poly(q)
    for poly, laurent in ((p + q, lp + lq), (p - q, lp - lq), (p * q, lp * lq),
                          (-p, -lp), (p * c, lp * c), (c + p, c + lp), (p ** 2, lp ** 2)):
        assert Laurent.from_poly(poly) == laurent
        assert laurent.to_poly() == poly
        assert poly.coeffs == tuple(laurent.coeffs.get(k, GR(0)) for k in range(len(poly.coeffs)))
        assert str(poly) == str(laurent) and poly.to_json() == laurent.to_json()
    x = GR(F(2, 3), -1)
    assert p.eval(x) == lp.eval(x) == p(x)


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


@PROPERTY_SETTINGS
@given(DENSE, DENSE)
def test_equal_polys_hash_equal(a, b):
    p, q = Poly(a, "r"), Poly(b, "r")
    built = (p + q) - q
    assert built == p and hash(built) == hash(p)
    backwards = Laurent("r", dict(reversed(list(p.terms.items())))).to_poly()
    assert backwards == p and hash(backwards) == hash(p)
    assert Poly(a + [0, 0], "r") == p and hash(Poly(a + [0, 0], "r")) == hash(p)
    if len(p.coeffs) <= 3:
        fam = make_family(0, p)
        assert fam == make_family(0, built) and hash(fam) == hash(make_family(0, built))
