"""Acceptance gate: one test per numbered criterion, each asserting exact
results inside its stated time budget.  Run with -v for one line apiece."""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from sl2family.cli import cmd_tables, render_json
from sl2family.duals import (
    characterize_bijections,
    dual_classes,
    eta,
    eta_inverse,
    verify_conjecture1,
)
from sl2family.families import ladder_action, make_family
from sl2family.fibers import (
    composition_factors,
    evaluate_fiber,
    factor_containing_m,
    jantzen_quotient_formula,
)
from sl2family.pbw import COMPACT, UEAElement, casimir, hc_projection, k_order
from sl2family.scalars import GaussianRational as GR
from sl2family.scalars import Poly
from sl2family.sheaf import (
    CHART_INFINITY,
    ProjectivePoint,
    casimir_section,
    gamma_family,
)
from polys import chart_substitute

FIXTURES = Path(__file__).parent / "fixtures"


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"{self.name}: PASS ({elapsed:.3f}s, budget {self.seconds}s)")
            assert elapsed < self.seconds, (
                f"{self.name} exceeded its {self.seconds}s budget: {elapsed:.3f}s"
            )
        else:
            print(f"{self.name}: FAIL ({elapsed:.3f}s)")
        return False


def h_poly(basis, coeffs) -> UEAElement:
    return UEAElement(basis, {(0, d, 0): GR.of(c) for d, c in coeffs.items() if c})


def test_criterion_1_cartan_projection_fixtures():
    with _Budget("criterion 1 (projection fixtures)", 1.0):
        om = casimir(COMPACT)
        from sl2family.pbw import SPLIT

        assert hc_projection(om, "compact") == h_poly(COMPACT, {2: 1, 0: -1})
        assert hc_projection(om, "split") == h_poly(SPLIT, {2: 1, 0: -1})


def test_criterion_2_twisted_projection_regularity():
    with _Budget("criterion 2 (regularity at infinity)", 1.0):
        om_inf = casimir_section(CHART_INFINITY)
        pinf = ProjectivePoint.parse("inf")
        for cartan in ("compact", "split"):
            for n in (1, 2, 3):
                g = gamma_family(om_inf ** n, cartan)
                assert g.is_regular_at(pinf), (cartan, n)


def test_criterion_3_order_inequality():
    with _Budget("criterion 3 (order inequality)", 5.0):
        om = casimir(COMPACT)
        power = UEAElement.one(COMPACT)
        for n in (1, 2, 3):
            power = power * om
            assert k_order(power) == 2 * n
            for cartan in ("compact", "split"):
                assert k_order(hc_projection(power, cartan)) <= 2 * n


def test_criterion_4_table_fixtures():
    with _Budget("criterion 4 (table regeneration)", 1.0):
        for which in (1, 2, 3):
            doc = cmd_tables(which, 6)
            expected = (FIXTURES / f"table{which}_M6.json").read_text(encoding="utf-8")
            assert render_json(doc) == expected, f"table {which} drifted"


def test_criterion_5_jantzen_equals_factor():
    with _Budget("criterion 5 (closed quotient formula)", 10.0):
        points = [
            ProjectivePoint.parse(t)
            for t in ("r=1", "r=-1", "r=2", "r=-2", "r=3", "r=-3", "r=1/2", "r=-1/2", "inf")
        ]
        c2s = (-4, -1, 0, 1, 3, 8, 15)
        fams = []
        for m in range(-4, 5):
            if abs(m) <= 1:
                fams.extend(
                    make_family(m, Poly.of([-1, 0, GR.of(c2)], "r")) for c2 in c2s
                )
            else:
                fams.append(make_family(m, m * (m - 2) if m > 1 else m * (m + 2)))
        checked = 0
        for fam in fams:
            for p in points:
                formula = jantzen_quotient_formula(fam, p)
                direct = factor_containing_m(evaluate_fiber(fam, p), fam.m)
                assert formula == direct, (str(fam), str(p))
                checked += 1
        assert checked == (3 * 7 + 6) * 9  # 243 instances


def test_criterion_6_dual_bijection():
    with _Budget("criterion 6 (dual bijection)", 10.0):
        grid = tuple(GR.of(z) for z in (0, 1, -1, 2, -2, 4, -4, Fraction(-9, 4), 3, 8, 15))
        for R in (GR(1), GR(2), GR.of(Fraction(1, 2)), GR(3)):
            ok, report = verify_conjecture1(R, 6, grid)
            assert ok, [e for e in report if not e["pass"]]
            assert all(e["pass"] for e in report)


def test_criterion_7_characterization():
    with _Budget("criterion 7 (affine characterization)", 1.0):
        for a, R in ((1, GR(1)), (Fraction(1, 4), GR(2)), (4, GR.of(Fraction(1, 2)))):
            pair = (GR.of(a), GR(-1))
            res = characterize_bijections({0: pair, 1: pair, -1: pair})
            assert res.matches == R and res.violated is None
        wrong_offset = (GR(1), GR(0))
        res = characterize_bijections({m: wrong_offset for m in (0, 1, -1)})
        assert res.violated == "vogan-extension"
        negative = (GR(-1), GR(-1))
        res = characterize_bijections({m: negative for m in (0, 1, -1)})
        assert res.violated == "tempered-preservation"
        mixed = {0: (GR(1), GR(-1)), 1: (GR(4), GR(-1)), -1: (GR(1), GR(-1))}
        res = characterize_bijections(mixed)
        assert res.violated == "cross-m-consistency"


def test_criterion_8_property_suites():
    with _Budget("criterion 8 (property suites)", 30.0):
        # bracket and Casimir identities across K-type ladders
        fams = [
            make_family(0, Poly.of([-1, 0, 1], "r")),
            make_family(1, Poly.of([-1, 0, 2], "r")),
            make_family(0, Poly.of([8], "r")),
            make_family(1, Poly.of([15], "r")),
            make_family(2, Poly.of([0], "r")),
            make_family(-3, Poly.of([3], "r")),
        ]
        for fam in fams:
            ns = list(fam.ktypes.members(-8, 8))
            la = ladder_action(fam)
            one = Poly((GR(1),), "r")
            for n in ns:
                assert la.down(n) * la.up(n - 2) - la.up(n) * la.down(n + 2) == one * n
                assert la.up(n) * la.down(n + 2) * 4 + one * (n * n + 2 * n) == fam.casimir
            li = ladder_action(fam, "Xinf")
            tau = Poly((GR(0), GR(0), GR(1)), "R")
            c_inf, pole = chart_substitute(fam.casimir)
            if pole < 2:
                c_inf = c_inf * Poly([GR(0)] * (2 - pole) + [GR(1)], "R")
            for n in ns:
                assert li.down(n) * li.up(n - 2) - li.up(n) * li.down(n + 2) == tau * n
                assert li.up(n) * li.down(n + 2) * 4 + tau * (n * n + 2 * n) == c_inf

        # normal-form associativity on seeded random triples
        rng = random.Random(20260819)

        def rand_elem() -> UEAElement:
            terms = {}
            for _ in range(rng.randint(1, 2)):
                key = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
                terms[key] = terms.get(key, GR(0)) + GR.of(
                    Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                )
            return UEAElement(COMPACT, terms)

        for _ in range(1000):
            u, v, w = rand_elem(), rand_elem(), rand_elem()
            assert (u * v) * w == u * (v * w)

        # composition factors preserve the fiber's K-types
        pts = [ProjectivePoint.parse(t) for t in ("r=1", "r=-2", "r=1/2", "r=3", "inf")]
        for fam in fams:
            for p in pts:
                fib = evaluate_fiber(fam, p)
                dec = composition_factors(fib)
                lo, hi = fib.window
                seen = [n for f in dec.factors for n in f.ktypes.members(lo, hi)]
                assert len(seen) == len(set(seen))
                assert set(seen) == set(fib.ktypes.members(lo, hi))

        # the level-affine map and its inverse cancel in both orders
        grid = tuple(GR.of(z) for z in (0, 1, -1, 2, -4, Fraction(-9, 4), 3, 8))
        for R in (GR(1), GR(2), GR.of(Fraction(1, 2)), GR(3)):
            for p in dual_classes(0, 5, grid):
                assert eta_inverse(eta(p, R)) == p
            for q in dual_classes(R, 5, grid):
                assert eta(eta_inverse(q), R) == q
