"""Sections over the projective line of deformations: Laurent coefficients,
chart transport, the center, and the Cartan-valued projection."""

import copy
import dataclasses
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2family import pbw
from sl2family.pbw import COMPACT, SPLIT, Sl2Basis, UEAElement, casimir
from sl2family.scalars import GaussianRational as GR
from sl2family.scalars import Poly
from sl2family.sheaf import (
    CHART_FINITE,
    CHART_INFINITY,
    CartanSection,
    FamilySection,
    Laurent,
    NotCentralError,
    ProjectivePoint,
    casimir_section,
    center_decompose,
    center_membership,
    chart_variable,
    gamma_family,
    section_from_constant,
    to_finite_chart,
    to_infinity_chart,
)
from polys import from_poly, to_poly
from sl2_matrices import mat_mul, rho_element


def lau(var: str, **powers) -> Laurent:
    """Shorthand: lau("r", p2=1, p0=-1) is r^2 - 1, n1 means exponent -1."""
    terms = {}
    for key, c in powers.items():
        exp = int(key[1:]) * (-1 if key[0] == "n" else 1)
        terms[exp] = GR.of(c)
    return Laurent(var, terms)


class TestLaurent:
    def test_constructors_and_structure(self):
        assert not Laurent.zero("r")
        assert Laurent.const(1, "r").terms == {0: GR(1)} and not Laurent.const(0, "r")
        m = Laurent.monomial("r", -3, Fraction(1, 2))
        assert m.valuation() == -3 and m.degree() == -3
        p = lau("r", p2=1, p0=-1)
        assert p.valuation() == 0 and p.degree() == 2
        assert p.is_polynomial
        assert not lau("r", n1=1).is_polynomial

    def test_arithmetic(self):
        p = lau("r", p2=1, p0=-1)
        q = lau("r", p1=1, p0=1)
        assert p * q == lau("r", p3=1, p2=1, p1=-1, p0=-1)
        assert p + q == lau("r", p2=1, p1=1)
        assert p - p == Laurent.zero("r")
        assert 2 * q == lau("r", p1=2, p0=2)
        assert p ** 3 == p * p * p
        assert p ** 0 == Laurent.const(1, "r")
        with pytest.raises(ValueError):
            p ** -1
        with pytest.raises(ValueError):
            p + lau("R", p1=1)

    def test_eval(self):
        p = lau("r", p2=1, p0=-1)
        assert p.eval(GR(3)) == GR(8)
        assert p.eval(GR(0, 1)) == GR(-2)
        f = lau("r", n1=1, p1=1)
        assert f.eval(GR(2)) == GR(Fraction(5, 2))
        with pytest.raises(ZeroDivisionError):
            f.eval(GR(0))

    def test_poly_round_trip(self):
        poly = Poly((GR(-1), GR(0), GR(1)), "r")
        p = from_poly(poly)
        assert p == lau("r", p2=1, p0=-1)
        assert to_poly(p) == poly
        with pytest.raises(ValueError):
            to_poly(lau("r", n2=1))

    def test_reciprocal_substitution(self):
        p = lau("r", p2=1, p0=-1)
        q = p.reciprocal_substitution()
        assert q == lau("R", n2=1, p0=-1)
        assert q.reciprocal_substitution() == p
        assert q.var == "R" and p.var == "r"

    def test_shifted(self):
        p = lau("r", p2=1, p0=-1)
        assert p.shifted(-2) == lau("r", p0=1, n2=-1)
        assert p.shifted(3).valuation() == 3


class TestProjectivePoint:
    @pytest.mark.parametrize("text", ["r=1e-999999999", "R=2E9", "1e3"])
    def test_parse_refuses_exponent_notation(self, text):
        with pytest.raises(ValueError, match="exponent notation is not read"):
            ProjectivePoint.parse(text)

    def test_parse_forms(self):
        assert ProjectivePoint.parse("inf").is_infinity
        assert ProjectivePoint.parse("r=1/2") == ProjectivePoint.parse("1/2")
        assert ProjectivePoint.parse("R=2") == ProjectivePoint.parse("1/2")
        assert ProjectivePoint.parse("R=0").is_infinity
        origin = ProjectivePoint.parse("0")
        assert origin.is_origin and not origin.is_infinity

    def test_coordinates(self):
        p = ProjectivePoint.parse("3")
        assert p.r == GR(3)
        assert p.R_value() == GR(Fraction(1, 3))
        assert ProjectivePoint.parse("inf").r is None
        assert ProjectivePoint.parse("inf").R_value() == GR(0)
        assert ProjectivePoint.parse("0").R_value() is None
        assert ProjectivePoint.parse("0").r == GR(0)

    def test_normalization_and_reality(self):
        assert [f.name for f in dataclasses.fields(ProjectivePoint)] == ["r"]
        assert ProjectivePoint.from_R(GR(2)) == ProjectivePoint.from_r(Fraction(1, 2))
        assert ProjectivePoint.from_r("4/2").r == GR(2) and ProjectivePoint.from_r(2).r == GR(2)
        assert ProjectivePoint.from_R(GR(0)).is_infinity
        assert ProjectivePoint.parse("2").is_real and ProjectivePoint.infinity().is_real
        assert not ProjectivePoint.from_r(GR(0, 1)).is_real
        assert not ProjectivePoint.from_R(GR(0, 2)).is_real
        with pytest.raises(TypeError):
            ProjectivePoint.from_r(0.5)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.one_of(st.none(), st.just(Fraction(0)), st.fractions(max_denominator=60)))
    def test_coordinates_round_trip(self, x):
        # x is the coordinate r of a real point, or None at infinity
        p = ProjectivePoint.infinity() if x is None else ProjectivePoint.from_r(x)
        q = ProjectivePoint.parse(str(p))
        assert q == p and hash(q) == hash(p) and str(q) == str(p)
        assert p.r == x and p.is_real and p.is_infinity == (x is None)
        if x is not None:
            forms = [GR(x), str(x)] + ([x.numerator] if x.denominator == 1 else [])
            for same in map(ProjectivePoint.from_r, forms):
                assert same == p and hash(same) == hash(p)
            assert ProjectivePoint.from_r(x + 1) != p
        R = p.R_value()
        assert (R is None) == p.is_origin
        if R is not None:
            assert ProjectivePoint.from_R(R) == p
            assert ProjectivePoint.from_R(R).R_value() == R
            assert ProjectivePoint.from_R(R).is_infinity == (R == 0)
            assert ProjectivePoint.parse(f"R={R}") == p


    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.fractions(max_denominator=60), st.fractions(max_denominator=60).filter(bool))
    def test_non_real_points_round_trip(self, re, im):
        p = ProjectivePoint.from_r(GR(re, im))
        assert not p.is_real
        for text in (str(p), str(p.r)):
            q = ProjectivePoint.parse(text)
            assert q == p and hash(q) == hash(p) and str(q) == str(p)
        assert ProjectivePoint.parse(f"R={p.R_value()}") == p

    def test_non_real_forms(self):
        assert str(ProjectivePoint.parse("r=1+i")) == "r=1+i"
        assert ProjectivePoint.parse("R=i") == ProjectivePoint.from_r(GR(0, -1))
        assert ProjectivePoint.parse("R=-1/2+i").r == GR(Fraction(-2, 5), Fraction(-4, 5))
        with pytest.raises(ValueError) as exc:
            ProjectivePoint.parse("r=1+2j")
        assert str(exc.value) == "cannot read scalar from '1+2j'"


class TestChartTransport:
    def test_chart_names(self):
        assert chart_variable(CHART_FINITE) == "r"
        assert chart_variable(CHART_INFINITY) == "R"
        with pytest.raises(ValueError):
            chart_variable("X2")

    def test_finite_bracket_is_untwisted(self):
        one = Laurent.const(1, "r")
        Xf = FamilySection(CHART_FINITE, {(0, 0, 1): one})
        Yf = FamilySection(CHART_FINITE, {(1, 0, 0): one})
        Hf = FamilySection(CHART_FINITE, {(0, 1, 0): one})
        assert Xf * Yf - Yf * Xf == Hf

    def test_infinity_bracket_is_twisted(self):
        one = Laurent.const(1, "R")
        Xf = FamilySection(CHART_INFINITY, {(0, 0, 1): one})
        Yf = FamilySection(CHART_INFINITY, {(1, 0, 0): one})
        bracket = Xf * Yf - Yf * Xf
        assert bracket.terms == {(0, 1, 0): Laurent.monomial("R", 2)}

    def test_casimir_transport(self):
        om0 = casimir_section(CHART_FINITE)
        om_inf = casimir_section(CHART_INFINITY)
        moved = to_infinity_chart(om0)
        rsq = FamilySection(CHART_INFINITY, {(0, 0, 0): Laurent.monomial("R", 2)})
        assert moved * rsq == om_inf
        assert om_inf.terms == {
            (0, 2, 0): Laurent.monomial("R", 2),
            (0, 1, 0): Laurent.monomial("R", 2, 2),
            (1, 0, 1): Laurent.const(4, "R"),
        }

    def test_round_trips(self):
        samples = [
            casimir_section(CHART_FINITE),
            section_from_constant(casimir(COMPACT)) ** 2,
            FamilySection(CHART_FINITE, {(1, 2, 0): lau("r", p1=3), (0, 0, 0): lau("r", p0=5)}),
        ]
        for s in samples:
            assert to_finite_chart(to_infinity_chart(s)) == s
        t = casimir_section(CHART_INFINITY)
        assert to_infinity_chart(to_finite_chart(t)) == t

    def test_chart_mismatch_rejected(self):
        a = casimir_section(CHART_FINITE)
        b = casimir_section(CHART_INFINITY)
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a * b
        with pytest.raises(ValueError, match="^expected a finite-chart section$"):
            to_infinity_chart(b)
        with pytest.raises(ValueError, match="^expected a section over the chart at infinity$"):
            to_finite_chart(a)

    def test_coefficient_in_the_other_chart_variable_is_refused(self):
        wrong = Laurent.const(1, "R")
        message = "^coefficient variable R does not match chart variable r$"
        with pytest.raises(ValueError, match=message):
            FamilySection(CHART_FINITE, {(0, 0, 0): wrong})
        s = casimir_section(CHART_FINITE)
        for op in (lambda: s + wrong, lambda: s * wrong):
            with pytest.raises(ValueError, match=message):
                op()

    def test_constant_sections_compare_bases_by_value(self):
        for chart in (CHART_FINITE, CHART_INFINITY):
            assert (section_from_constant(casimir(copy.deepcopy(COMPACT)), chart)
                    == section_from_constant(casimir(COMPACT), chart))
        for basis in (SPLIT, Sl2Basis("weird", ("A", "B", "C"))):
            with pytest.raises(ValueError, match="compact basis"):
                section_from_constant(casimir(basis))


def _seeded_section(rng: random.Random, chart: str, deg: int) -> FamilySection:
    """Up to four PBW monomials of degree <= deg with Laurent coefficients
    of one to three terms, exponents -2..2."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        a = rng.randint(0, deg)
        c = rng.randint(0, deg - a)
        coeffs = {}
        for _ in range(rng.randint(1, 3)):
            coeffs[rng.randint(-2, 2)] = GR(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                                            Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
        terms[(a, rng.randint(0, deg - a - c), c)] = Laurent(chart_variable(chart), coeffs)
    return FamilySection(chart, terms)


def rho_section(s: FamilySection, t: GR, n: int) -> list:
    """The section at coordinate t on the module of dimension n + 1; at
    infinity the ladder generators act as t times the finite ones."""
    lift = s.chart == CHART_INFINITY
    values = {(a, b, c): f.eval(t) * t ** (a + c if lift else 0) for (a, b, c), f in s.terms.items()}
    return rho_element(UEAElement(COMPACT, values), n)


class TestSectionProductOracle:
    """rho(s1 * s2) = rho(s1) rho(s2) on the irreducible modules of dimension
    1..D+2 (D bounds the product's PBW degree), at several coordinates."""

    @pytest.mark.parametrize("chart", [CHART_FINITE, CHART_INFINITY])
    def test_seeded_products_act_as_matrix_products(self, chart):
        rng = random.Random(16180 + (chart == CHART_INFINITY))
        points = (GR(2), GR(Fraction(-1, 3)), GR(Fraction(3, 2)))
        pairs = [(_seeded_section(rng, chart, 3), _seeded_section(rng, chart, 2)) for _ in range(5)]
        coeffs = [f for pair in pairs for s in pair for f in s.terms.values()]
        assert any(f.valuation() < 0 for f in coeffs)
        assert any(len(f.terms) > 1 for f in coeffs)
        for s1, s2 in pairs:
            product = s1 * s2
            assert product.chart == chart
            for n in range(max(map(sum, s1.terms)) + max(map(sum, s2.terms)) + 2):
                for t in points:
                    lhs = rho_section(product, t, n)
                    assert lhs == mat_mul(rho_section(s1, t, n), rho_section(s2, t, n)), (
                        str(s1), str(s2), n, str(t))


class TestCenter:
    def test_casimir_is_central_in_both_charts(self):
        for chart in (CHART_FINITE, CHART_INFINITY):
            om = casimir_section(chart)
            one = Laurent.const(1, chart_variable(chart))
            for key in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                g = FamilySection(chart, {key: one})
                assert om * g == g * om

    def test_decompose_casimir_powers(self):
        for chart in (CHART_FINITE, CHART_INFINITY):
            om = casimir_section(chart)
            var = chart_variable(chart)
            for n in (1, 2, 3):
                dec = center_decompose(om ** n)
                assert dec == {n: Laurent.const(1, var)}

    def test_decompose_mixed_element(self):
        om = casimir_section(CHART_INFINITY)
        extra = FamilySection(
            CHART_INFINITY, {(0, 0, 0): Laurent.monomial("R", 2, 3)}
        )
        dec = center_decompose(om * om + extra)
        assert dec == {2: Laurent.const(1, "R"), 0: Laurent.monomial("R", 2, 3)}

    def test_decompose_rebuilds_section(self):
        om = casimir_section(CHART_FINITE)
        s = om ** 2 + FamilySection(CHART_FINITE, {(0, 0, 0): lau("r", p1=7)})
        dec = center_decompose(s)
        rebuilt = FamilySection(CHART_FINITE, {})
        for n, f in dec.items():
            rebuilt = rebuilt + FamilySection(CHART_FINITE, {(0, 0, 0): f}) * om ** n
        assert rebuilt == s

    def test_decompose_makes_no_section_product(self, monkeypatch):
        om = casimir_section(CHART_INFINITY)
        weights = {n: lau("R", n1=n, p0=1) for n in range(1, 9)}
        s = FamilySection.zero(CHART_INFINITY)
        for n, g in weights.items():
            s = s + om ** n * g
        products = []
        real = FamilySection._product

        def counted(self, terms):
            products.append(1)
            return real(self, terms)

        monkeypatch.setattr(FamilySection, "_product", counted)
        assert center_decompose(s) == weights
        assert center_decompose(s + FamilySection(CHART_INFINITY, {(2, 1, 2): lau("R", p1=1)})) is None
        assert not products

    def test_non_central_detection(self):
        h = FamilySection(CHART_FINITE, {(0, 1, 0): Laurent.const(1, "r")})
        assert center_decompose(h) is None
        assert not center_membership(h)
        assert center_membership(casimir_section(CHART_FINITE))
        # Cartan polynomials commute with h but not with the ladder part
        assert center_decompose(h * h) is None


def _power_peeling_decompose(s: FamilySection):
    """Reference for center_decompose: peel the top Casimir power, whose
    extremal monomial (N, 0, N) has coefficient 4^N, by section products."""
    cur = s
    powers = [casimir_section(s.chart)]  # powers[j - 1] = Casimir^j
    out = {}
    while cur:
        if any(a != c for (a, b, c) in cur.terms):
            return None
        n = max(a for (a, b, c) in cur.terms)
        if n == 0:
            if any(k != (0, 0, 0) for k in cur.terms):
                return None
            out[0] = cur.terms[(0, 0, 0)]
            break
        lead = cur.terms.get((n, 0, n))
        if lead is None:
            return None
        g = lead * Fraction(1, 4 ** n)
        out[n] = g
        while len(powers) < n:
            powers.append(powers[-1] * powers[0])
        cur = cur - powers[n - 1] * g
        if cur and max(a for (a, b, c) in cur.terms) >= n:
            return None
    return out


def _seeded_laurent(rng: random.Random, var: str, terms: int) -> Laurent:
    """A Laurent polynomial with up to ``terms`` terms, exponents -3..3."""
    return Laurent(var, {rng.randint(-3, 3): GR(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                                                 rng.randint(-2, 2))
                         for _ in range(terms)})


class TestDecomposeOracle:
    """center_decompose against the power-peeling reference, value for
    value (coefficient map or None), on seeded sections in both charts."""

    @staticmethod
    def _casimir_polynomial(rng: random.Random, chart: str) -> FamilySection:
        om, var = casimir_section(chart), chart_variable(chart)
        s = FamilySection.zero(chart)
        for j in range(rng.randint(0, 4) + 1):
            if rng.random() < 0.7:
                s = s + om ** j * _seeded_laurent(rng, var, rng.randint(1, 3))
        return s

    def _cases(self, chart: str) -> list:
        rng = random.Random(27182 + (chart == CHART_INFINITY))
        var = chart_variable(chart)
        cases = [FamilySection.zero(chart), FamilySection(chart, {(0, 0, 0): GR(3, -1)})]
        cases += [FamilySection(chart, {(0, 0, 0): _seeded_laurent(rng, var, 3)}) for _ in range(4)]
        central = [self._casimir_polynomial(rng, chart) for _ in range(16)]
        cases += central
        for s in central:
            # a balanced non-constant term (k, b, k): one R-degree slice, or several
            k = rng.randint(0, 3)
            b = rng.randint(0 if k else 1, 3)
            cases.append(s + FamilySection(chart, {(k, b, k):
                                                   _seeded_laurent(rng, var, rng.choice((1, 3)))}))
            # and an unbalanced one
            a, c = rng.sample(range(4), 2)
            cases.append(s + FamilySection(chart, {(a, rng.randint(0, 2), c): _seeded_laurent(rng, var, 1)}))
        cases += [_seeded_section(rng, chart, 4) for _ in range(10)]
        return cases

    @pytest.mark.parametrize("chart", [CHART_FINITE, CHART_INFINITY])
    def test_matches_power_peeling(self, chart):
        results = []
        for s in self._cases(chart):
            got = center_decompose(s)
            assert got == _power_peeling_decompose(s), str(s)
            results.append(got)
        decomposed = [d for d in results if d]
        assert {} in results and None in results
        assert sum(len(d) > 1 for d in decomposed) >= 8
        assert any(g.valuation() < 0 for d in decomposed for g in d.values())

    @pytest.mark.parametrize("chart", [CHART_FINITE, CHART_INFINITY])
    def test_casimir_power_without_one_term(self, chart):
        om = casimir_section(chart)
        for n in (1, 2, 3):
            p = om ** n
            assert center_decompose(p) == _power_peeling_decompose(p) == {n: Laurent.const(1, om.var)}
            for key, f in p.terms.items():
                t = p - FamilySection(chart, {key: f})
                assert center_decompose(t) is _power_peeling_decompose(t) is None, key


# -- the Gaussian-integer path against Q(i) arithmetic ---------------------------
#
# Section products (pbw.graded_multiply) and the bracket check of
# center_decompose (pbw.is_central) run on int term maps over one
# common denominator.  The first reference keeps GaussianRational
# coefficients at every step: Q(i) R-degree slices of the left factor, each
# rewritten by times_monomial and summed term by term.  The second reads no
# part of pbw: the matrices of tests/sl2_matrices.py.

def q_section_product(s: FamilySection, t: FamilySection) -> dict:
    """The product s * t as {monomial: Laurent}, by Q(i) slices of s."""
    lift = 1 if s.chart == CHART_INFINITY else 0  # R-power per ladder generator
    slices: dict = {}
    for mono, f in s.terms.items():
        for e, x in f.terms.items():
            slices.setdefault(e + lift * (mono[0] + mono[2]), {})[mono] = x
    acc: dict = {}
    for e1, part in slices.items():
        for mono, g in t.terms.items():
            prod = pbw.times_monomial(part, mono)
            for e2, y in g.terms.items():
                e = e1 + e2 + lift * (mono[0] + mono[2])
                for key, x in prod.items():
                    acc[key, e] = acc.get((key, e), GR(0)) + x * y
    out: dict = {}
    for (key, e), x in acc.items():
        if x:
            out.setdefault(key, {})[e - lift * (key[0] + key[2])] = x
    return {key: Laurent(s.var, f) for key, f in out.items()}


def _wide_section(rng: random.Random, chart: str, deg: int, parts=(True, True)) -> FamilySection:
    """Up to four PBW monomials of degree <= deg, with Laurent coefficients of
    up to three terms, exponents -3..3 and denominators of about 20 digits;
    parts says whether the real and the imaginary parts may be nonzero."""
    def part(on: bool) -> Fraction:
        if not on:
            return Fraction(0)
        return Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(10 ** 19, 10 ** 20))
    terms = {}
    for _ in range(rng.randint(1, 4)):
        a = rng.randint(0, deg)
        c = rng.randint(0, deg - a)
        coeffs = {rng.randint(-3, 3): GR(part(parts[0]), part(parts[1]))
                  for _ in range(rng.randint(1, 3))}
        terms[(a, rng.randint(0, deg - a - c), c)] = Laurent(chart_variable(chart), coeffs)
    return FamilySection(chart, terms)


def _assert_lowest_terms(s: FamilySection) -> None:
    for f in s.terms.values():
        for x in f.terms.values():
            assert type(x) is GR and x.den > 0 and gcd(x.re_num, x.im_num, x.den) == 1


def _integer_path_pairs(chart: str) -> list:
    """Seeded and wide section pairs: complex coefficients of about 20 digits,
    real-only and imaginary-only factors, poles, the Casimir and zero."""
    rng = random.Random(31415 + (chart == CHART_INFINITY))
    om = casimir_section(chart)
    pairs = [(_seeded_section(rng, chart, 3), _seeded_section(rng, chart, 2)) for _ in range(6)]
    pairs += [(_wide_section(rng, chart, 3), _wide_section(rng, chart, 3)) for _ in range(6)]
    real, imaginary = (True, False), (False, True)
    pairs += [(_wide_section(rng, chart, 2, real), _wide_section(rng, chart, 2, imaginary)),
              (_wide_section(rng, chart, 2, imaginary), _wide_section(rng, chart, 2, real)),
              (_wide_section(rng, chart, 2, imaginary), _wide_section(rng, chart, 2)),
              (om, _wide_section(rng, chart, 2)), (_wide_section(rng, chart, 2), om ** 2),
              (FamilySection.zero(chart), om), (om, FamilySection.zero(chart))]
    coeffs = [f for pair in pairs for s in pair for f in s.terms.values()]
    assert any(f.valuation() < 0 for f in coeffs)
    assert any(x.den > 10 ** 18 and x.im_num for f in coeffs for x in f.terms.values())
    return pairs


class TestIntegerPath:
    @pytest.mark.parametrize("chart", [CHART_FINITE, CHART_INFINITY])
    def test_product_matches_q_slices(self, chart):
        for s, t in _integer_path_pairs(chart):
            product = s * t
            assert product.terms == q_section_product(s, t), (str(s), str(t))
            _assert_lowest_terms(product)

    @pytest.mark.parametrize("chart", [CHART_FINITE, CHART_INFINITY])
    def test_product_acts_as_matrix_product(self, chart):
        # independent of pbw: each section acts, at a coordinate value, as a
        # sum of words in the 2x2 generator matrices (rho_section), on the
        # modules of dimension 1..4; at infinity R0 != 0 scales each ladder letter
        points = (GR(2), GR(Fraction(-1, 3)), GR(1, -2))
        for s, t in _integer_path_pairs(chart):
            product = s * t
            for n in range(4):
                for x in points:
                    assert rho_section(product, x, n) == mat_mul(
                        rho_section(s, x, n), rho_section(t, x, n)), (str(s), str(t), n, str(x))

    @pytest.mark.parametrize("chart", [CHART_FINITE, CHART_INFINITY])
    def test_a_real_factor_rewrites_one_half(self, chart, monkeypatch):
        calls = []
        real = pbw.times_generator

        def counted(terms, gen):
            calls.append(gen)
            return real(terms, gen)

        monkeypatch.setattr(pbw, "times_generator", counted)
        om = casimir_section(chart)
        om * om  # one slice; v's letters: H^2, H, Y X
        assert len(calls) == 5
        om * (om * GR(0, 1))  # v's coefficients do not add rewrites
        assert len(calls) == 10

    @pytest.mark.parametrize("chart", [CHART_FINITE, CHART_INFINITY])
    def test_decompose_needs_both_halves_central(self, chart):
        om = casimir_section(chart)
        var = chart_variable(chart)
        t = Laurent.const(1, var) if chart == CHART_FINITE else Laurent.monomial(var, 2)
        # H shares its monomial and its R-degree slice with the Casimir
        h = FamilySection(chart, {(0, 1, 0): t * GR(Fraction(1, 3))})
        i = GR(0, 1)
        assert center_decompose(om + h * i) is None  # only the real half commutes with X
        assert center_decompose(h + om * i) is None  # only the imaginary half does
        assert center_decompose(om * GR(Fraction(1, 7)) + om ** 2 * i) == {
            2: Laurent.const(i, var), 1: Laurent.const(Fraction(1, 7), var)}


class TestRegularity:
    def test_casimir_sections(self):
        om0 = casimir_section(CHART_FINITE)
        om_inf = casimir_section(CHART_INFINITY)
        pts = {
            "0": ProjectivePoint.parse("0"),
            "5": ProjectivePoint.parse("5"),
            "inf": ProjectivePoint.parse("inf"),
        }
        assert om0.is_regular_at(pts["0"]) and om0.is_regular_at(pts["5"])
        assert not om0.is_regular_at(pts["inf"])
        assert om_inf.is_regular_at(pts["inf"]) and om_inf.is_regular_at(pts["5"])
        assert not om_inf.is_regular_at(pts["0"])

    def test_laurent_coefficient_poles(self):
        s = FamilySection(CHART_FINITE, {(0, 0, 0): lau("r", n1=1)})
        assert not s.is_regular_at(ProjectivePoint.parse("0"))
        assert s.is_regular_at(ProjectivePoint.parse("2"))


class TestGammaFamily:
    def test_casimir_image_in_finite_chart(self):
        for cartan in ("compact", "split"):
            g = gamma_family(casimir_section(CHART_FINITE), cartan)
            assert g.cartan == cartan and g.chart == CHART_FINITE
            assert g.coeffs == {2: Laurent.const(1, "r"), 0: Laurent.const(-1, "r")}

    def test_casimir_image_at_infinity(self):
        g = gamma_family(casimir_section(CHART_INFINITY), "compact")
        assert g.coeffs == {2: Laurent.monomial("R", 2), 0: Laurent.monomial("R", 2, -1)}
        g2 = gamma_family(casimir_section(CHART_INFINITY) ** 2, "split")
        assert g2.coeffs == {
            4: Laurent.monomial("R", 4),
            2: Laurent.monomial("R", 4, -2),
            0: Laurent.monomial("R", 4),
        }

    @pytest.mark.parametrize("cartan", ["compact", "split"])
    def test_twisted_casimir_powers_stay_regular(self, cartan):
        om_inf = casimir_section(CHART_INFINITY)
        pinf = ProjectivePoint.parse("inf")
        for n in (1, 2, 3):
            g = gamma_family(om_inf ** n, cartan)
            assert g.is_regular_at(pinf), (cartan, n)

    def test_split_regularity_twists(self):
        # coefficient of h^2 must vanish to order 2 at infinity for the
        # split subfamily, while the compact subfamily only needs order 0
        coeffs = {2: Laurent.monomial("R", 1), 0: Laurent.const(1, "R")}
        pinf = ProjectivePoint.parse("inf")
        split = CartanSection(CHART_INFINITY, "split", dict(coeffs))
        compact = CartanSection(CHART_INFINITY, "compact", dict(coeffs))
        assert not split.is_regular_at(pinf)
        assert compact.is_regular_at(pinf)

    def test_chart_moves(self):
        g = gamma_family(casimir_section(CHART_FINITE), "compact")
        gi = g.in_chart(CHART_INFINITY)
        assert gi.chart == CHART_INFINITY and gi.cartan == "compact"
        assert gi.in_chart(CHART_FINITE) == g and g.in_chart(CHART_FINITE) is g
        assert not hasattr(g, "in_infinity_chart") and not hasattr(g, "in_finite_chart")
        with pytest.raises(ValueError, match="unknown chart"):
            g.in_chart("X2")

    def test_non_central_rejected(self):
        h = FamilySection(CHART_FINITE, {(0, 1, 0): Laurent.const(1, "r")})
        with pytest.raises(NotCentralError):
            gamma_family(h, "compact")

    def test_unknown_cartan_rejected(self):
        with pytest.raises(ValueError):
            gamma_family(casimir_section(CHART_FINITE), "diagonal")


def _q(n) -> dict:
    return {"re": str(n), "im": "0"}


def _r_squared_times(n) -> dict:
    return {"var": "R", "coeffs": [_q(0), _q(0), _q(n)]}


class TestJsonForms:
    """The JSON of the three term-map types on the Casimir and its images,
    written out in full."""

    def test_casimir(self):
        assert casimir(COMPACT).to_json() == {"basis": "compact", "terms": [
            {"mono": [0, 1, 0], "coeff": _q(2)},
            {"mono": [0, 2, 0], "coeff": _q(1)},
            {"mono": [1, 0, 1], "coeff": _q(4)},
        ]}

    def test_casimir_section_at_infinity(self):
        assert casimir_section(CHART_INFINITY).to_json() == {
            "chart": "Xinf", "rational": False, "terms": [
                {"mono": [0, 1, 0], "coeff": _r_squared_times(2)},
                {"mono": [0, 2, 0], "coeff": _r_squared_times(1)},
                {"mono": [1, 0, 1], "coeff": {"var": "R", "coeffs": [_q(4)]}},
            ]}

    @pytest.mark.parametrize("cartan", ["compact", "split"])
    def test_gamma_image_at_infinity(self, cartan):
        assert gamma_family(casimir_section(CHART_INFINITY), cartan).to_json() == {
            "chart": "Xinf", "cartan": cartan, "coeffs": [
                {"degree": 0, "coeff": _r_squared_times(-1)},
                {"degree": 2, "coeff": _r_squared_times(1)},
            ]}
