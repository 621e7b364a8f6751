"""Fiberwise structure: dual parameters, composition series, reducibility
loci, and the closed Jantzen quotient formula."""

import random
from fractions import Fraction

import pytest

from family_sweep import sweep_points, validated_families
from sl2family.families import (FamilyValidationError, KTypeSet, ModuleFamily, in_tilde_class,
                                intertwiner_exists, ladder_action, make_family, wall_index)
from sl2family.fibers import (
    GROUP,
    MOTION,
    DualParam,
    WallRecord,
    composition_factors,
    dual_ktypes,
    evaluate_fiber,
    factor_containing_m,
    is_reducible,
    jantzen_quotient_formula,
    reducibility_points,
    scalar_to_json,
    wall_edges,
)
from sl2family.scalars import GaussianRational as GR
from sl2family.scalars import Poly, rational_sqrt
from sl2family.sheaf import ProjectivePoint

P = ProjectivePoint.parse


def cpoly(*coeffs) -> Poly:
    return Poly(tuple(GR.of(c) for c in coeffs), "r")


EVEN_GENERIC = make_family(0, cpoly(-1, 0, 1))  # c(r) = r^2 - 1
ODD_LIMIT = make_family(1, cpoly(0, 0, -1))  # c(r) = -r^2
RAY = make_family(2, cpoly(0))
WINDOW8 = make_family(0, cpoly(8))


class TestScalarJson:
    def test_forms(self):
        assert scalar_to_json(GR(3)) == 3
        assert scalar_to_json(GR(0)) == 0
        assert scalar_to_json(GR(Fraction(1, 2))) == "1/2"
        assert scalar_to_json(GR(Fraction(1, 2), 1)) == {"re": "1/2", "im": "1"}


class TestDualParam:
    def test_string_forms(self):
        assert str(DualParam.group(GR(0), 0, GR(1))) == "(0,0)_1"
        assert str(DualParam.motion(GR(1), 0)) == "(1,0)_0"
        assert str(DualParam.group(GR(3), 0, None)) == "(3,0)_r0"
        assert str(DualParam.group(GR(0), 2, GR(Fraction(1, 5)))) == "(0,2)_1/5"

    def test_canonical_reflection(self):
        assert str(DualParam.group(GR(5), -1, GR(1)).canonical()) == "(5,1)_1"
        assert str(DualParam.motion(GR(3), -1).canonical()) == "(3,1)_0"
        # boundary levels keep the sign of m: the two limits differ
        assert str(DualParam.group(GR(-1), -1, GR(1)).canonical()) == "(-1,-1)_1"
        assert str(DualParam.motion(GR(0), -1).canonical()) == "(0,-1)_0"
        p = DualParam.group(GR(5), 1, GR(2))
        assert p.canonical() == p

    def test_json_forms(self):
        assert DualParam.group(GR(0), 0, GR(1)).to_json() == {
            "flavor": GROUP, "R": 1, "level": 0, "m": 0,
        }
        assert DualParam.motion(GR(1), 0).to_json() == {
            "flavor": MOTION, "R": 0, "level": 1, "m": 0,
        }
        assert DualParam.group(GR(3), 0, None).to_json() == {
            "flavor": GROUP, "R": None, "level": 3, "m": 0,
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            DualParam.group(GR(5), 3, GR(1))  # m = 3 pins the level to 3
        with pytest.raises(ValueError):
            DualParam.group(GR(3), 3, GR(0))  # R = 0 is the motion fiber
        with pytest.raises(ValueError):
            DualParam.motion(GR(1), 2)  # discrete motion K-types sit at 0
        DualParam.motion(GR(0), 4)
        DualParam.group(GR(8), -4, GR(7))


class TestDualKtypes:
    @pytest.mark.parametrize(
        "param,expected",
        [
            (DualParam.group(GR(-1), 1, GR(1)), KTypeSet.ray_up(1)),
            (DualParam.group(GR(-1), -1, GR(1)), KTypeSet.ray_down(-1)),
            (DualParam.group(GR(3), 1, GR(1)), KTypeSet.window(1)),
            (DualParam.group(GR(15), -1, GR(2)), KTypeSet.window(3)),
            (DualParam.group(GR(5), 1, GR(1)), KTypeSet.all_odd()),
            (DualParam.group(GR(1), 0, GR(1)), KTypeSet.all_even()),
            (DualParam.group(GR(0), 0, GR(1)), KTypeSet.window(0)),
            (DualParam.group(GR(0), 2, GR(1)), KTypeSet.ray_up(2)),
            (DualParam.group(GR(8), -4, GR(1)), KTypeSet.ray_down(-4)),
            (DualParam.motion(GR(0), 4), KTypeSet.singleton(4)),
            (DualParam.motion(GR(0), 1), KTypeSet.singleton(1)),
            (DualParam.motion(GR(-2), 1), KTypeSet.all_odd()),
            (DualParam.motion(GR(3), 0), KTypeSet.all_even()),
        ],
    )
    def test_table(self, param, expected):
        assert dual_ktypes(param) == expected


class TestEvaluateFiber:
    def test_group_fiber_at_wall(self):
        fib = evaluate_fiber(EVEN_GENERIC, P("1"))
        assert fib.flavor == GROUP and fib.level == GR(0)
        assert fib.up[-2] == GR(0) and fib.down[2] == GR(0)
        assert fib.up[0] == GR(1) and fib.down[0] == GR(1)
        assert fib.edge_is_cut(-2) and fib.edge_is_cut(0)
        assert not fib.edge_is_cut(2)
        assert is_reducible(fib)

    def test_group_fiber_generic(self):
        fib = evaluate_fiber(EVEN_GENERIC, P("2"))
        assert fib.level == GR(3)
        assert not is_reducible(fib)
        edges = fib.ktypes.members(fib.window[0], fib.window[1] - 2)
        assert not any(fib.edge_is_cut(n) for n in edges)

    def test_motion_fiber(self):
        fib = evaluate_fiber(EVEN_GENERIC, P("inf"))
        assert fib.flavor == MOTION
        assert fib.level == GR(1)  # the leading Casimir coefficient

    def test_window_fiber_edges(self):
        fib = evaluate_fiber(WINDOW8, P("3"))
        assert not fib.edge_is_cut(0) and not fib.edge_is_cut(-2)
        with pytest.raises(ValueError):
            fib.edge_is_cut(2)  # 4 is not a K-type, so (2, 4) is no edge

    def test_ladder_scalars_are_cached_views(self):
        fib = evaluate_fiber(EVEN_GENERIC, P("1"))
        assert "up" not in vars(fib) and "down" not in vars(fib)  # nothing tabulated
        up, down = fib.up, fib.down
        assert fib.up is up and fib.down is down
        lo, hi = fib.window
        assert sorted(up) == list(range(lo, hi - 1, 2))
        assert sorted(down) == list(range(lo + 2, hi + 1, 2))
        # c(1) = 0: the inward coefficient (0 - n(n+2))/4 on each side of 0
        assert up == {n: GR(1) if n >= 0 else GR(Fraction(-n * (n + 2), 4)) for n in up}
        assert down == {n: GR(1) if n <= 0 else GR(Fraction(-n * (n - 2), 4)) for n in down}
        motion = evaluate_fiber(EVEN_GENERIC, P("inf"))  # every inward scalar is c2/4
        assert motion.up == {n: GR(1) if n >= 0 else GR(Fraction(1, 4)) for n in motion.up}
        assert motion.down == {n: GR(1) if n <= 0 else GR(Fraction(1, 4)) for n in motion.down}

    def test_wall_symmetry_for_even_families(self):
        for pt in ("1", "2", "1/2", "-3"):
            fib = evaluate_fiber(EVEN_GENERIC, P(pt))
            for n in range(-4, 5, 2):
                assert fib.up[n] == fib.down[-n]


def _ladder_oracle_cases(rng: random.Random):
    """(family, point) pairs over every table row, at rational, complex,
    wall-root and infinite points.  (An off-table triple is no family.)"""

    def q() -> Fraction:
        return Fraction(rng.randint(-12, 12), rng.randint(1, 4))

    def through_wall(m: int) -> ModuleFamily:
        # c2 r^2 + c1 r + c0 takes the wall level k(k+2) at a rational r0
        k, r0, c2, c1 = rng.randint(-1, 7), q(), q(), q()
        return make_family(m, cpoly(k * (k + 2) - c2 * r0 * r0 - c1 * r0, c1, c2))

    fams = []
    for _ in range(20):
        k = rng.randint(0, 4)
        d = rng.randint(2, 7)
        fams += [
            through_wall(0),  # m = 0 on 2Z
            make_family(0, (2 * k) * (2 * k + 2)),  # m = 0 on a window
            through_wall(rng.choice((1, -1))),  # m = +-1 on 2Z+1
            make_family(rng.choice((1, -1)), (2 * k + 1) * (2 * k + 3)),  # odd window
            make_family(1, -1, KTypeSet.ray_up(1)),  # the limit rays
            make_family(-1, -1, KTypeSet.ray_down(-1)),
            make_family(d, d * (d - 2)),  # lowest- and highest-weight ladders
            make_family(-d, d * (d - 2)),
        ]
        # a random quadratic and a random constant, each on the row it infers
        for m in (0, rng.choice((1, -1))):
            fams.append(make_family(m, cpoly(q(), q(), q())))
            fams.append(make_family(m, rng.randint(-1, 6) * rng.randint(1, 8)))
    for fam in fams:
        pts = [P("inf"), P("r=0"), P(f"r={q()}"), ProjectivePoint.from_r(GR(q(), q() or 1))]
        c2, c1, c0 = (fam.casimir.coeff(i).re for i in (2, 1, 0))
        for k in range(-1, 9):  # the rational roots of c(r) = k(k+2)
            w = k * (k + 2)
            if c2 == 0:
                pts += [ProjectivePoint.from_r((w - c0) / c1)] if c1 else []
                continue
            disc = c1 * c1 - 4 * c2 * (c0 - w)
            s = rational_sqrt(disc) if disc >= 0 else None
            if s is not None:
                pts += [ProjectivePoint.from_r((-c1 + e * s) / (2 * c2)) for e in (1, -1)]
        for p in pts:
            yield fam, p


class TestCutRuleOracle:
    def test_cut_edges_match_the_ladder_coefficients(self):
        """edge_is_cut agrees with the vanishing of the evaluated ladder action."""
        checked = group_cuts = 0
        for fam, p in _ladder_oracle_cases(random.Random(20170617)):
            fib = evaluate_fiber(fam, p)
            chart, x = ("Xinf", GR(0)) if p.is_infinity else ("X0", p.r)
            act = ladder_action(fam, chart)
            bound = abs(fam.m) + abs(fam.ktypes.param or 0) + 12
            for n in range(-bound, bound):
                if n not in fam.ktypes or n + 2 not in fam.ktypes:
                    with pytest.raises(ValueError):
                        fib.edge_is_cut(n)
                    continue
                cut = act.up(n).eval(x) == 0 or act.down(n + 2).eval(x) == 0
                assert fib.edge_is_cut(n) == cut, (str(fam), str(p), n)
                checked += 1
                group_cuts += cut and not p.is_infinity
            assert is_reducible(fib) == (fam.ktypes.has_edge and any(
                fib.edge_is_cut(n) for n in range(-bound, bound)
                if n in fam.ktypes and n + 2 in fam.ktypes))
        assert checked > 8000 and group_cuts > 100  # the sample reaches the walls


class TestCompositionFactors:
    def test_wall_fiber_splits_in_three(self):
        dec = composition_factors(evaluate_fiber(EVEN_GENERIC, P("1")))
        assert dec.complete
        assert [str(f.param) for f in dec.factors] == ["(0,-2)_1", "(0,0)_1", "(0,2)_1"]
        assert [f.ktypes for f in dec.factors] == [
            KTypeSet.ray_down(-2), KTypeSet.window(0), KTypeSet.ray_up(2),
        ]

    def test_generic_fiber_is_irreducible(self):
        dec = composition_factors(evaluate_fiber(EVEN_GENERIC, P("2")))
        assert dec.complete and [str(f.param) for f in dec.factors] == ["(3,0)_1/2"]

    def test_motion_fiber_of_generic_family(self):
        dec = composition_factors(evaluate_fiber(EVEN_GENERIC, P("inf")))
        assert dec.complete and [str(f.param) for f in dec.factors] == ["(1,0)_0"]

    def test_two_limit_factors(self):
        dec = composition_factors(evaluate_fiber(ODD_LIMIT, P("1")))
        assert [str(f.param) for f in dec.factors] == ["(-1,-1)_1", "(-1,1)_1"]

    def test_discrete_ray_fibers(self):
        fib = evaluate_fiber(RAY, P("5"))
        assert fib.down[4] == GR(-2)
        dec = composition_factors(fib)
        assert dec.complete and [str(f.param) for f in dec.factors] == ["(0,2)_1/5"]
        deci = composition_factors(evaluate_fiber(RAY, P("inf")))
        assert not deci.complete  # infinitely many characters, listed in part
        assert [str(f.param) for f in deci.factors] == ["(0,2)_0", "(0,4)_0", "(0,6)_0"]

    def test_window_fibers(self):
        assert [
            str(f.param) for f in composition_factors(evaluate_fiber(WINDOW8, P("3"))).factors
        ] == ["(8,0)_1/3"]
        deci = composition_factors(evaluate_fiber(WINDOW8, P("inf")))
        assert deci.complete
        assert [str(f.param) for f in deci.factors] == ["(0,-2)_0", "(0,0)_0", "(0,2)_0"]

    @pytest.mark.parametrize(
        "fam", [EVEN_GENERIC, ODD_LIMIT, WINDOW8, make_family(0, cpoly(-1, 0, -4))]
    )
    @pytest.mark.parametrize("pt", ["1", "-1", "2", "1/2", "3"])
    def test_ktype_conservation(self, fam, pt):
        """Factors partition the K-types of the fiber, nothing lost or shared."""
        fib = evaluate_fiber(fam, P(pt))
        lo, hi = fib.window
        fiber_members = set(fib.ktypes.members(lo, hi))
        seen = []
        for f in composition_factors(fib).factors:
            seen.extend(f.ktypes.members(lo, hi))
        assert len(seen) == len(set(seen))
        assert set(seen) == fiber_members

    def test_factor_containing_m(self):
        fib = evaluate_fiber(EVEN_GENERIC, P("1"))
        assert str(factor_containing_m(fib)) == "(0,0)_1"
        assert str(factor_containing_m(fib, 4)) == "(0,2)_1"
        assert str(factor_containing_m(fib, -6)) == "(0,-2)_1"
        with pytest.raises(ValueError):
            factor_containing_m(fib, 3)

    def test_factor_containing_m_at_motion_fiber(self):
        fib = evaluate_fiber(RAY, P("inf"))
        assert str(factor_containing_m(fib, 8)) == "(0,8)_0"


class TestReducibilityLocus:
    def test_even_generic_locus(self):
        loc = reducibility_points(EVEN_GENERIC)
        assert [str(p) for p in loc.points] == [
            f"r={v}" for v in range(-13, 14, 2)
        ]
        assert not loc.complete  # walls continue past the tabulated bound
        assert [w.k for w in loc.walls] == list(range(0, 13, 2))
        assert all(not w.irrational for w in loc.walls)
        wall0 = loc.walls[0]
        assert wall0.level == GR(0) and [str(p) for p in wall0.points] == ["r=-1", "r=1"]

    def test_odd_family_locus_contains_origin(self):
        loc = reducibility_points(make_family(1, cpoly(-1, 0, 1)))
        assert [str(p) for p in loc.points] == [f"r={v}" for v in range(-12, 13, 2)]
        assert [w.k for w in loc.walls] == list(range(-1, 12, 2))

    def test_negative_leading_coefficient_is_complete(self):
        loc = reducibility_points(make_family(0, cpoly(-1, 0, -4)))
        assert loc.points == () and loc.complete

    def test_discrete_ray_meets_only_infinity(self):
        loc = reducibility_points(RAY)
        assert [str(p) for p in loc.points] == ["inf"] and loc.complete
        assert loc.walls == ()

    def test_irrational_walls_flagged(self):
        loc = reducibility_points(make_family(0, cpoly(0, 0, 1)))  # c(r) = r^2
        assert [str(p) for p in loc.points] == ["r=0"]
        assert not loc.complete
        assert [w.k for w in loc.walls if w.irrational] == [2, 4, 6, 8, 10, 12]

    def test_window_family_locus(self):
        loc = reducibility_points(WINDOW8)
        assert [str(p) for p in loc.points] == ["inf"] and loc.complete
        loc0 = reducibility_points(make_family(0, cpoly(0)))  # single K-type window
        assert loc0.points == () and loc0.complete  # no edge to cut anywhere

    def test_linear_casimir(self):
        loc = reducibility_points(make_family(0, cpoly(0, 1)))  # c(r) = r
        assert [str(p) for p in loc.points[:4]] == ["r=0", "r=8", "r=24", "r=48"]
        assert str(loc.points[-1]) == "inf"
        assert not loc.complete

    def test_off_table_constant_family_is_refused(self):
        # the full even ladder pinned on wall 0 is no family: the constructor
        # refuses it, so no locus is ever reducible everywhere
        with pytest.raises(FamilyValidationError) as exc:
            ModuleFamily(0, KTypeSet.all_even(), cpoly(0))
        assert exc.value.code == "row-mismatch"
        assert exc.value.detail == ("c(r) constantly 0 = 0(0+2) on the full even ladder "
                                    "demands a window or ray instead")

    def test_rejections(self):
        complex_fam = make_family(0, Poly((GR(0, 1),), "r"))
        with pytest.raises(ValueError):
            reducibility_points(complex_fam)

    def test_json_form(self):
        assert reducibility_points(RAY).to_json() == {
            "domain": "realProjLine",
            "points": ["inf"],
            "complete": True,
            "max_k": 12,
            "walls": [],
        }
        # the JSON keeps the "everywhere" key, always false
        assert reducibility_points(EVEN_GENERIC).to_json()["walls"][0] == {
            "k": 0, "level": 0, "points": ["r=-1", "r=1"], "irrational": False,
            "everywhere": False,
        }

    def test_walls_match_sympy_real_roots(self):
        """Seeded real quadratics c(r): a wall level k(k+2) of the K-type
        parity is reported exactly when c(r) = k(k+2) has a real root, with
        sympy's rational roots as its points and an irrational root as its
        flag; checked up to max_k, and every level when c(r) is bounded
        above.  Half the seeds cross a wall at rational points."""
        sympy = pytest.importorskip("sympy")
        r = sympy.Symbol("r")
        rng = random.Random(5772)
        seen = {"rational": 0, "irrational": 0}
        for _ in range(40):
            m = rng.choice((0, 1))
            c2 = Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
            if rng.random() < 0.5:
                k0 = rng.randrange(m, 17, 2)
                p, q = (Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(2))
                c1, c0 = -c2 * (p + q), c2 * p * q + k0 * (k0 + 2)
            else:
                c1, c0 = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2))
            loc = reducibility_points(make_family(m, cpoly(c0, c1, c2)))
            walls = {w.k: w for w in loc.walls}
            c = sum(sympy.Rational(x.numerator, x.denominator) * r ** e
                    for e, x in enumerate((c0, c1, c2)))
            top = loc.max_k if c2 > 0 else 40  # c(r) < 40 * 42 on these seeds
            for k in sorted(set(range(-1, top + 1)) | set(walls)):
                if k % 2 != m:
                    continue
                roots = sympy.real_roots(sympy.Poly(c - k * (k + 2), r))
                rational = sorted({Fraction(int(x.p), int(x.q)) for x in roots if x.is_rational})
                irrational = any(not x.is_rational for x in roots)
                assert (k in walls) == bool(roots), (str(c), k)
                if k in walls:
                    w = walls[k]
                    assert [q.r.re for q in w.points] == rational, (str(c), k)
                    assert w.irrational == irrational, (str(c), k)
                    seen["rational"] += bool(rational)
                    seen["irrational"] += irrational
        assert seen["rational"] and seen["irrational"]


class TestJantzenQuotient:
    def test_even_family_fixtures(self):
        assert str(jantzen_quotient_formula(EVEN_GENERIC, P("1"))) == "(0,0)_1"
        assert str(jantzen_quotient_formula(EVEN_GENERIC, P("inf"))) == "(1,0)_0"
        assert str(jantzen_quotient_formula(EVEN_GENERIC, P("2"))) == "(3,0)_1/2"

    def test_limit_ray_fixture(self):
        fam = make_family(1, cpoly(-1))
        assert str(jantzen_quotient_formula(fam, P("3"))) == "(-1,1)_1/3"

    def test_matches_composition_factor(self):
        fam = make_family(-1, cpoly(-1, 0, -4))
        pt = P("1/2")
        jq = jantzen_quotient_formula(fam, pt)
        assert str(jq) == "(-2,1)_2"
        assert jq == factor_containing_m(evaluate_fiber(fam, pt), -1)

    @pytest.mark.parametrize(
        "fam",
        [
            EVEN_GENERIC,
            make_family(1, cpoly(-1, 0, -1)),
            RAY,
            make_family(0, cpoly(-1, 0, 3)),
            make_family(-3, cpoly(3)),
            make_family(1, cpoly(-1, 0, 8)),
        ],
    )
    @pytest.mark.parametrize("pt", ["1", "-1", "2", "-1/2", "3", "inf"])
    def test_agrees_with_direct_decomposition(self, fam, pt):
        point = P(pt)
        jq = jantzen_quotient_formula(fam, point)
        direct = factor_containing_m(evaluate_fiber(fam, point), fam.m)
        assert jq == direct, (str(fam), pt)

    def test_rejections(self):
        with pytest.raises(ValueError, match="outside the chart at infinity"):
            jantzen_quotient_formula(EVEN_GENERIC, P("0"))
        with pytest.raises(ValueError, match="does not extend"):
            jantzen_quotient_formula(make_family(0, cpoly(-1, 1, 1)), P("1"))
        with pytest.raises(ValueError, match="real points"):
            jantzen_quotient_formula(EVEN_GENERIC, ProjectivePoint.from_r(GR(0, 1)))


# what in_tilde_class answers a table row, and the start of its one refusal
TILDE_REASONS = {
    "discrete ladder families always extend",
    "c(r) = c2*r^2 - 1 on the full even ladder",
    "limit ray with c(r) = -1",
    "c(r) = c2*r^2 - 1 on the full odd ladder",
}
TILDE_REFUSAL = "extension requires c(r) = c2*r^2 - 1, got c(r) = "


class TestValidatedSweep:
    def test_table_rows_need_no_off_table_branch(self):
        """On every family of the sweep: in_tilde_class gives one of its five
        reasons; a constant c(r) cuts none of its K-types' edges, so its locus
        has no finite point and is complete; and the cut edges split the
        K-types into segments that partition them, each of a dual's shape."""
        families = fibers = constants = 0
        for fam in validated_families():
            families += 1
            ok, reason = in_tilde_class(fam)
            assert (reason in TILDE_REASONS) if ok else reason == TILDE_REFUSAL + str(fam.casimir)
            if fam.casimir.is_constant:
                constants += 1
                assert wall_edges(fam.ktypes, wall_index(fam.c0)) == (), str(fam)
                if intertwiner_exists(fam):
                    loc = reducibility_points(fam)
                    assert loc.complete and loc.walls == (), str(fam)
                    assert all(q.is_infinity for q in loc.points), str(fam)
            for p in sweep_points(fam):
                fib = evaluate_fiber(fam, p)
                factors = composition_factors(fib).factors
                for n in fam.ktypes.members(*fib.window):
                    assert sum(n in f.ktypes for f in factors) == 1, (str(fam), str(p), n)
                fibers += 1
        assert families > 150 and constants > 50 and fibers > 1000
