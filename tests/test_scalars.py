"""Exact scalar and polynomial arithmetic."""

import random
from fractions import Fraction

import pytest

from sl2family.scalars import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Poly,
    chart_substitute,
    has_gaussian_sqrt,
    rational_sqrt,
)

GR = GaussianRational


def random_gr(rng: random.Random) -> GaussianRational:
    def frac():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    return GR(frac(), frac())


class TestGaussianRational:
    def test_construction_normalizes(self):
        x = GR(Fraction(4, 8), Fraction(-2, 6))
        assert x.re == Fraction(1, 2) and x.im == Fraction(-1, 3)
        assert GR(3).re == 3 and GR(3).im == 0

    def test_equality_coerces_plain_rationals(self):
        assert GR(2) == 2
        assert GR(0) == 0
        assert GR(Fraction(1, 2)) == Fraction(1, 2)
        assert GR(2, 1) != 2
        assert hash(GR(2)) == hash(2)
        assert hash(GR(Fraction(3, 4))) == hash(Fraction(3, 4))

    def test_field_operations(self):
        x = GR(1, 2)
        y = GR(Fraction(-1, 3), 1)
        assert x + y == GR(Fraction(2, 3), 3)
        assert x - y == GR(Fraction(4, 3), 1)
        assert x * y == GR(Fraction(-1, 3) - 2, Fraction(-2, 3) + 1)
        assert (x / y) * y == x
        assert GR_I * GR_I == -1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GR_ONE / GR_ZERO

    def test_ring_axioms_fuzz(self):
        rng = random.Random(20260819)
        for _ in range(300):
            a, b, c = (random_gr(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            if c:
                assert (a / c) * c == a

    def test_power(self):
        assert GR(2) ** 5 == 32
        assert GR_I ** 4 == 1
        assert GR(1, 1) ** 2 == GR(0, 2)
        assert GR(2) ** 0 == 1
        assert GR(2) ** -2 == Fraction(1, 4)

    def test_conjugate_and_norm(self):
        x = GR(3, -4)
        assert x.conjugate() == GR(3, 4)
        assert x.norm() == 25
        assert (x * x.conjugate()) == 25

    def test_is_real_and_ordering(self):
        assert GR(5).is_real and not GR(5, 1).is_real
        assert GR(1) < GR(2)
        assert GR(Fraction(-9, 4)) < 0
        with pytest.raises(ValueError):
            GR(1, 1) < GR(2)


class TestSquareRoots:
    def brute_force_sqrt(self, x: GaussianRational, bound: int = 6):
        """Independent oracle: search w = (p/q) + (s/q)i with small entries."""
        for q in range(1, bound + 1):
            for p in range(-bound * q, bound * q + 1):
                for s in range(-bound * q, bound * q + 1):
                    w = GR(Fraction(p, q), Fraction(s, q))
                    if w * w == x:
                        return w
        return None

    def test_rational_sqrt(self):
        assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
        assert rational_sqrt(Fraction(0)) == 0
        assert rational_sqrt(Fraction(2)) is None
        assert rational_sqrt(Fraction(-1)) is None

    @pytest.mark.parametrize(
        "x",
        [GR(4), GR(Fraction(9, 4)), GR(-4), GR(0, 2), GR(3, 4), GR(-3, 4), GR(0, -2)],
    )
    def test_sqrt_witness_against_brute_force(self, x):
        w = has_gaussian_sqrt(x)
        oracle = self.brute_force_sqrt(x)
        assert (w is None) == (oracle is None)
        if w is not None:
            assert w * w == x

    @pytest.mark.parametrize("x", [GR(2), GR(-3), GR(1, 1), GR(Fraction(1, 2))])
    def test_no_sqrt_in_field(self, x):
        assert has_gaussian_sqrt(x) is None
        assert self.brute_force_sqrt(x) is None


class TestPoly:
    def test_construction_trims(self):
        p = Poly.of([1, 2, 0], "r")
        assert p.degree() == 1
        assert Poly.of([0, 0], "r").degree() == float("-inf")
        assert Poly.const(5, "r").is_constant

    def test_eval_oracle(self):
        p = Poly.of([-1, 0, 1], "r")  # r^2 - 1
        assert p.eval(GR(3)) == 8
        assert p.eval(GR(1)) == 0
        q = Poly.of([1, 2, 3], "r")
        x = GR(Fraction(2, 3), 1)
        assert q.eval(x) == 1 + 2 * x + 3 * x * x

    def test_arithmetic(self):
        p = Poly.of([1, 1], "r")
        q = Poly.of([-1, 1], "r")
        assert p * q == Poly.of([-1, 0, 1], "r")
        assert p + q == Poly.of([0, 2], "r")
        assert (p * q).coeff(2) == 1

    def test_chart_substitute(self):
        p = Poly.of([-1, 0, 1], "r")  # r^2 - 1 = R^{-2}(1 - R^2)
        q, pole = chart_substitute(p)
        assert pole == 2
        assert q == Poly.of([1, 0, -1], "R")
        assert q.coeff(0) != 0
        const, pole0 = chart_substitute(Poly.const(7, "r"))
        assert pole0 == 0 and const == Poly.const(7, "R")

    def test_variable_tag_respected(self):
        p = Poly.of([1, 1], "r")
        q = Poly.of([1, 1], "R")
        with pytest.raises(ValueError):
            _ = p + q
