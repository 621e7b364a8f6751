"""Level-affine correspondences between admissible duals: equivalence,
temperedness, the minimal-K-type extension map, and its characterization."""

import sys
from collections import Counter
from fractions import Fraction
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2family import cli, duals, fibers
from sl2family.duals import (
    characterize_bijections,
    dual_classes,
    eta,
    eta_inverse,
    is_tempered,
    params_equivalent,
    verify_conjecture1,
    vogan_map,
)
from sl2family.cli import cmd_tables
from sl2family.families import KTypeSet, make_family, pinned_level
from sl2family.fibers import (
    DualParam,
    composition_factors,
    dual_ktypes,
    evaluate_fiber,
    factor_containing_m,
    scalar_to_json,
    vogan_level,
)
from sl2family.scalars import GaussianRational as GR
from sl2family.scalars import Poly
from sl2family.sheaf import ProjectivePoint
import langlands
import mackey
from conjecture1_reference import reference_verify_conjecture1
from test_breaks import BREAKS

GRID = tuple(
    GR.of(v) for v in (0, 1, -1, 2, -2, 4, -4, Fraction(-9, 4), 3, 8, 15)
)


def g(level, m, R=1) -> DualParam:
    return DualParam(GR.of(level), m, GR.of(R))


def mo(level, m) -> DualParam:
    return DualParam.motion(GR.of(level), m)


# Levels from Q(i), chart coordinates of both signs, and minimal K-types
# beyond the free |m| <= 1 rows, where both duals pin the level.
LEVELS = st.builds(
    lambda a, b, d: GR(Fraction(a, d), Fraction(b, d)),
    st.integers(-40, 40), st.integers(-40, 40), st.integers(1, 12),
)
CHART_R = st.builds(
    lambda sign, n, d: GR(Fraction(sign * n, d)),
    st.sampled_from((1, -1)), st.integers(1, 15), st.integers(1, 15),
)
KTYPES = st.integers(-9, 9)


def ktype_equivalent(a: DualParam, b: DualParam) -> bool:
    """Equivalence by its definition, independent of ``canonical()``: two
    parameters of one dual name the same module when they have the same level
    and either the same minimal K-type or the same K-type set."""
    return a.level == b.level and (a.m == b.m or dual_ktypes(a) == dual_ktypes(b))


class TestEquivalence:
    def test_interior_levels_identify_the_pair(self):
        assert params_equivalent(g(5, 1), g(5, -1))
        assert params_equivalent(g(3, 1), g(3, -1))
        assert params_equivalent(mo(5, 1), mo(5, -1))

    def test_boundary_levels_stay_distinct(self):
        assert not params_equivalent(g(-1, 1), g(-1, -1))
        assert not params_equivalent(mo(0, 1), mo(0, -1))

    def test_reflexive_and_unequal_levels(self):
        assert params_equivalent(g(5, 1), g(5, 1))
        assert not params_equivalent(g(5, 1), g(3, 1))
        assert not params_equivalent(g(5, 1), g(5, 0))

    def test_cross_dual_comparisons_rejected(self):
        for a, b in ((g(5, 1), mo(5, 1)), (g(5, 1), g(5, 1, 2)),
                     (DualParam(5, 1, None), g(5, 1)), (mo(0, 3), g(3, 3))):
            for x, y in ((a, b), (b, a)):
                with pytest.raises(ValueError, match="chart coordinate mismatch"):
                    params_equivalent(x, y)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_the_ktype_definition(self, data):
        flavor = data.draw(st.sampled_from(("group", "motion")))
        R = data.draw(CHART_R) if flavor == "group" else GR(0)
        # the boundary levels -1 and 0, the wall level 3 = 1*(1+2), and Q(i)
        levels = st.one_of(st.sampled_from((GR(-1), GR(0), GR(3))), LEVELS)
        shared = data.draw(levels)

        def param() -> DualParam:
            m = data.draw(st.integers(-3, 3))
            if abs(m) > 1:
                return DualParam(pinned_level(m) if flavor == "group" else 0, m, R)
            return DualParam(data.draw(st.one_of(st.just(shared), levels)), m, R)

        a, b = param(), param()
        assert params_equivalent(a, b) == ktype_equivalent(a, b), (str(a), str(b))

    def test_oracle_sees_both_verdicts_at_each_boundary(self):
        for p, q, same in ((g(-1, 1), g(-1, -1), False), (g(3, 1), g(3, -1), True),
                           (mo(0, 1), mo(0, -1), False), (mo(GR(0, 1), 1), mo(GR(0, 1), -1), True)):
            assert ktype_equivalent(p, q) == params_equivalent(p, q) == same


class TestTempered:
    def test_group_flavor(self):
        assert is_tempered(g(-4, 0))
        assert is_tempered(g(-1, 1))
        assert is_tempered(g(-1, -1))
        assert not is_tempered(g(3, 0))
        assert not is_tempered(g(0, 0))
        assert is_tempered(g(3, 3))  # discrete parameters are tempered
        assert is_tempered(g(8, -4))

    def test_motion_flavor(self):
        assert is_tempered(mo(0, 5))
        assert is_tempered(mo(0, 0))
        assert is_tempered(mo(-4, 0))
        assert not is_tempered(mo(3, 0))

    def test_non_real_levels(self):
        assert not is_tempered(DualParam(GR(0, 1), 0, GR(1)))
        assert not is_tempered(DualParam.motion(GR(-1, 2), 1))


class TestVoganMap:
    def test_small_ktypes_go_to_boundary(self):
        assert str(vogan_map(0, GR(1))) == "(-1,0)_1"
        assert str(vogan_map(1, GR(2))) == "(-1,1)_2"
        assert str(vogan_map(-1, GR(1))) == "(-1,-1)_1"

    def test_discrete_ktypes_are_fixed_levels(self):
        assert str(vogan_map(3, GR(1))) == "(3,3)_1"
        assert str(vogan_map(-2, GR(1))) == "(0,-2)_1"
        assert str(vogan_map(5, GR(7))) == "(15,5)_7"


class TestEta:
    def test_affine_on_small_ktypes(self):
        assert str(eta(mo(0, 0), GR(1))) == "(-1,0)_1"
        assert str(eta(mo(-4, 0), GR(1))) == "(-5,0)_1"
        assert str(eta(mo(-4, 0), GR(2))) == "(-2,0)_2"
        assert str(eta(mo(8, 1), GR(1))) == "(7,1)_1"

    def test_vogan_branch_on_discrete_ktypes(self):
        assert str(eta(mo(0, 3), GR(1))) == "(3,3)_1"
        assert str(eta(mo(0, -4), GR(3))) == "(8,-4)_3"

    def test_group_parameter_is_refused(self):
        with pytest.raises(ValueError, match="^eta maps motion-flavor parameters$"):
            eta(g(3, 0), GR(1))

    def test_inverse_fixtures(self):
        assert str(eta_inverse(g(-1, 0))) == "(0,0)_0"
        assert str(eta_inverse(g(-5, 0))) == "(-4,0)_0"
        assert str(eta_inverse(g(3, 3))) == "(0,3)_0"
        assert str(eta_inverse(g(-2, 0, 2))) == "(-4,0)_0"

    def test_inverse_chart_coordinate_handling(self):
        # the parameter's own R is the chart coordinate of the inverse
        assert str(eta_inverse(g(3, 0, 2))) == "(16,0)_0"
        assert str(eta_inverse(g(3, 0, -2))) == "(16,0)_0"
        with pytest.raises(ValueError, match="carries no chart coordinate"):
            eta_inverse(DualParam(GR(3), 0, None))

    @pytest.mark.parametrize("R", [GR(1), GR(2), GR(Fraction(1, 2)), GR(3)])
    def test_round_trip_from_motion_side(self, R):
        for p in dual_classes(0, 6, GRID):
            q = eta(p, R)
            assert q.flavor == "group" and q.R == R
            assert eta_inverse(q) == p, (str(p), str(R))

    @pytest.mark.parametrize("R", [GR(1), GR(2), GR(Fraction(1, 2)), GR(3)])
    def test_round_trip_from_group_side(self, R):
        for q in dual_classes(R, 6, GRID):
            p = eta_inverse(q)
            assert p.flavor == "motion"
            assert eta(p, R) == q, (str(q), str(R))

    def test_consistency_with_fiber_factors(self):
        """The map carries the motion-fiber factor through the minimal
        K-type to the group-fiber factor at the reciprocal point."""
        fams = [
            make_family(0, Poly((GR(-1), GR(0), GR.of(c2)), "r"))
            for c2 in (1, -4, 3, 0)
        ] + [make_family(2, Poly((GR(0),), "r"))]
        for fam in fams:
            p_inf = factor_containing_m(
                evaluate_fiber(fam, ProjectivePoint.parse("inf")), fam.m
            )
            for R in (GR(1), GR(2), GR(Fraction(1, 2)), GR(-3)):
                pt = ProjectivePoint.parse(f"R={R.re}")
                p_fin = factor_containing_m(evaluate_fiber(fam, pt), fam.m)
                assert eta(p_inf, R) == p_fin, (str(fam), str(R))


@st.composite
def motion_params(draw):
    m = draw(KTYPES)
    return mo(draw(LEVELS) if abs(m) <= 1 else 0, m)


@st.composite
def group_params_and_R(draw):
    m, R = draw(KTYPES), draw(CHART_R)
    return g(draw(LEVELS) if abs(m) <= 1 else pinned_level(m), m, R), R


class TestEtaProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(motion_params(), CHART_R)
    def test_inverse_after_eta_is_identity(self, p, R):
        q = eta(p, R)
        assert q.flavor == "group" and q.R == R
        assert eta_inverse(q) == p

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(group_params_and_R())
    def test_eta_after_inverse_is_identity(self, qR):
        q, R = qR
        p = eta_inverse(q)
        assert p.flavor == "motion"
        assert eta(p, R) == q

    @pytest.mark.parametrize("call,args", [
        (eta, (mo(2, 1), 0)), (eta, (mo(0, 4), GR(0))), (eta, (mo(2, 0), GR(0, 1))),
        (vogan_map, (3, 0)), (vogan_map, (0, GR(0))),
        (eta_inverse, (mo(2, 1),)), (eta_inverse, (DualParam(0, 0, GR(0, 1)),)),
    ])
    def test_public_maps_reject_a_zero_or_non_real_R(self, call, args):
        # only verify_conjecture1, having checked R once, calls the unchecked
        # steps; eta_inverse reads R off its parameter
        with pytest.raises(ValueError, match="nonzero real rational"):
            call(*args)


@st.composite
def level_grids(draw):
    """Grids that repeat levels and mix the boundary levels -1 and 0 with
    levels from Q(i)."""
    levels = draw(st.lists(st.one_of(st.sampled_from((GR(-1), GR(0), GR(1))), LEVELS),
                           min_size=1, max_size=6))
    return tuple(levels + draw(st.lists(st.sampled_from(levels), max_size=3)))


def enumerated_params(R, M, grid):
    """Every parameter of the dual at R with |m| <= M, before reduction to
    classes: the free levels on the grid for |m| <= 1, read off the tables
    otherwise (R = 0 is the motion dual)."""
    params = []
    for m in range(-M, M + 1):
        levels = grid if abs(m) <= 1 else [0 if R == 0 else pinned_level(m)]
        params.extend(DualParam(z, m, R) for z in levels)
    return params


class TestDualAtlas:
    """``dual_classes``: one fiber's admissible dual, one representative a class."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(level_grids(), st.integers(0, 4), CHART_R)
    def test_classes_are_the_canonical_params_without_repeats(self, grid, M, R):
        for R in (GR(0), R):
            expected = []
            for p in enumerated_params(R, M, grid):
                if p.canonical() not in expected:
                    expected.append(p.canonical())
            assert dual_classes(R, M, grid) == expected

    def test_sizes(self):
        assert len(enumerated_params(GR(1), 6, GRID)) == 43
        assert len(dual_classes(GR(1), 6, GRID)) == 33
        assert len(dual_classes(0, 6, GRID)) == 33
        assert {p.flavor for p in dual_classes(Fraction(0), 6, GRID)} == {"motion"}

    def test_classes_are_canonical_and_distinct(self):
        classes = dual_classes(GR(2), 4, GRID)
        assert len(set(classes)) == len(classes)
        for p in classes:
            assert p.canonical() == p

    def test_validation(self):
        with pytest.raises(ValueError, match="nonzero real rational"):
            dual_classes(GR(0, 1), 6, GRID)
        with pytest.raises(TypeError, match="not an exact rational"):
            dual_classes(None, 6, GRID)  # the fiber at r = 0 has no coordinate R
        with pytest.raises(ValueError, match="M must be >= 0"):
            dual_classes(0, -1, GRID)

    def test_vogan_level_is_the_table_rule(self):
        for m in range(-9, 10):
            # the discrete series or limit with lowest K-type |m| > 0 has level (|m|-1)^2 - 1
            group = -1 if m == 0 else (abs(m) - 1) ** 2 - 1
            assert (vogan_level("group", m), vogan_level("motion", m)) == (group, 0)
            if abs(m) > 1:
                assert DualParam(group, m, 1).level == group
                with pytest.raises(ValueError, match=f"fixes the motion level to 0, got 1"):
                    DualParam.motion(1, m)


class TestConjectureOne:
    @pytest.mark.parametrize("R", [GR(1), GR(2), GR(Fraction(1, 2)), GR(3)])
    def test_holds_on_the_reference_grid(self, R):
        ok, report = verify_conjecture1(R, 6, GRID)
        assert ok
        assert len(report) == 53
        assert all(entry["pass"] for entry in report)
        checks = {entry["check"] for entry in report}
        assert checks == {
            "injectivity",
            "surjectivity",
            "vogan-extension",
            "tempered",
            "well-defined",
            "affine-form",
            "equivalence-convention",
        }

    def test_reports_carry_instances(self):
        _, report = verify_conjecture1(GR(1), 3, GRID[:4])
        for entry in report:
            assert set(entry) == {"check", "instance", "pass", "detail"}

    def test_injectivity_grouping_matches_pairwise_scan(self, monkeypatch):
        # A broken eta that sends z and -z to one level and m = 0 to m = -1,
        # so images collide within one m, across m = +-1 away from the
        # boundary level, and at the boundary level -1, where (-1,1) and
        # (-1,-1) stay distinct.  The reference is the pairwise scan, judged
        # by the K-type definition of equivalence.
        def folded(p, R):
            if abs(p.m) > 1:
                return vogan_map(p.m, R)
            return DualParam(p.level * p.level - 1, -1 if p.m == 0 else p.m, R)

        # verify_conjecture1 builds every image through the checked-R step
        monkeypatch.setattr(duals, "_eta", folded)
        R = GR(1)
        levels = GRID + (GR(0, 1), GR(0, -1))
        for k in range(len(levels)):
            grid = levels[k:] + levels[:k]
            classes = dual_classes(0, 3, grid)
            images = [folded(q, R) for q in classes]
            pairs = [
                (classes[i], classes[j])
                for i in range(len(classes))
                for j in range(i + 1, len(classes))
                if ktype_equivalent(images[i], images[j])
            ]
            assert len(pairs) > 3
            ok, report = verify_conjecture1(R, 3, grid)
            (entry,) = [e for e in report if e["check"] == "injectivity"]
            assert not ok and not entry["pass"]
            assert entry["detail"] == "image collisions: " + "; ".join(
                f"{a} and {b}" for a, b in pairs[:3]
            )

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            verify_conjecture1(GR(1), 6, ())

    @pytest.mark.parametrize("grid", [(0,), (1, 1), (GR(Fraction(1, 2)), Fraction(2, 4), "1/2")])
    def test_one_level_grid_rejected(self, grid):
        # one level cannot determine the affine level map
        with pytest.raises(ValueError, match="two distinct levels"):
            verify_conjecture1(GR(1), 2, grid)


# Grids of two to seven levels with at least two distinct ones: the boundary
# levels, 0 (on some grids, off others), the non-real 1+i, and levels from Q(i).
CHECK_GRIDS = st.lists(st.one_of(st.sampled_from((GR(0), GR(-1), GR(1), GR(1, 1))), LEVELS),
                       min_size=2, max_size=7).filter(lambda grid: len(set(grid)) >= 2)


# the breaks of verify_conjecture1's check kinds: (kind, name in duals, stand-in)
DUALS_BREAKS = [(kind, name, broken) for kind, _, module, name, broken in BREAKS
                if module is duals]


class TestConjectureOneReference:
    """``verify_conjecture1`` against ``conjecture1_reference``, which rebuilds
    each round-trip image and writes each string where an entry shows it."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(0, 6), CHART_R, CHECK_GRIDS)
    def test_matches_the_reference(self, M, R, grid):
        assert verify_conjecture1(R, M, grid) == reference_verify_conjecture1(R, M, grid)

    @pytest.mark.parametrize("R", [GR(1), GR(-2), GR(Fraction(5, 3)), GR(Fraction(-3, 4))])
    @pytest.mark.parametrize("grid", [
        (0, -1, Fraction(1, 3), Fraction(-9, 4)),
        (-1, Fraction(1, 3), Fraction(-9, 4), 5),
        (GR(1, 1), 0, 2),
        (GR(1, 1), GR(-1, 2), -1),
    ], ids=["with-0", "without-0", "nonreal-with-0", "nonreal-without-0"])
    def test_matches_the_reference_on_fixed_grids(self, R, grid):
        for M in range(7):
            ok, report = verify_conjecture1(R, M, grid)
            assert ok and (ok, report) == reference_verify_conjecture1(R, M, grid)

    @pytest.mark.parametrize("grid", ["0,-1,1/2,3", "-1,1/2,3"], ids=["with-0", "without-0"])
    @pytest.mark.parametrize("kind,name,broken", DUALS_BREAKS, ids=[b[0] for b in DUALS_BREAKS])
    def test_matches_the_reference_when_a_check_fails(self, monkeypatch, kind, name, broken,
                                                     grid):
        monkeypatch.setattr(duals, name, broken(getattr(duals, name)))
        for R in (GR(Fraction(3, 2)), GR(-2)):
            got = verify_conjecture1(R, 4, grid.split(","))
            assert not got[0] and got == reference_verify_conjecture1(R, 4, grid.split(","))


class TestCharacterization:
    @staticmethod
    def constant_candidate(a, b):
        pair = (GR.of(a), GR.of(b))
        return {0: pair, 1: pair, -1: pair}

    @pytest.mark.parametrize(
        "a,R", [(1, 1), (Fraction(1, 4), 2), (4, Fraction(1, 2))]
    )
    def test_accepts_reciprocal_square_scales(self, a, R):
        res = characterize_bijections(self.constant_candidate(a, -1))
        assert res.matches == GR.of(R)
        assert res.violated is None
        assert "level-affine bijection" in res.detail

    def test_rejects_wrong_offset(self):
        res = characterize_bijections(self.constant_candidate(1, 0))
        assert res.matches is None
        assert res.violated == "vogan-extension"

    def test_rejects_negative_scale(self):
        res = characterize_bijections(self.constant_candidate(-1, -1))
        assert res.matches is None
        assert res.violated == "tempered-preservation"

    def test_rejects_mismatched_scales(self):
        cand = {
            0: (GR(1), GR(-1)),
            1: (GR(4), GR(-1)),
            -1: (GR(1), GR(-1)),
        }
        res = characterize_bijections(cand)
        assert res.matches is None
        assert res.violated == "cross-m-consistency"

    def test_irrational_scale_is_inconclusive(self):
        res = characterize_bijections(self.constant_candidate(2, -1))
        assert res.matches is None and res.violated is None
        assert "irrational" in res.detail

    def test_missing_component_rejected(self):
        with pytest.raises(ValueError, match="m = 1"):
            characterize_bijections({0: (GR(1), GR(-1))})

    def test_pinned_component_rejected(self):
        # no eta^R moves the level a K-type |m| > 1 fixes, so no map for it is read
        with pytest.raises(ValueError, match="for m = 0, 1, -1 only"):
            characterize_bijections({**self.constant_candidate(1, -1), 2: (GR(1), GR(1))})

    def test_json_form(self):
        res = characterize_bijections(self.constant_candidate(Fraction(1, 4), -1))
        assert res.to_json() == {
            "matches": 2,
            "violated": None,
            "detail": "candidate coincides with the level-affine bijection at R = 2",
        }


class TestMackeyOracle:
    """The motion dual against orbits in p* and their stabilizers (``mackey``).

    The tables' level is the value of the rescaled Casimir R^2 * Casimir at
    R = 0, which is 4 Y X there; a unitary orbit has level -4 |xi(X)|^2, so
    the tempered levels are the real z <= 0.
    """

    SPAN = range(-20, 21)
    MS = range(-4, 5)

    def test_level_normalization(self):
        assert mackey.real_form_swaps_ladders()
        assert mackey.CASIMIR_XY == 4
        assert mackey.WEIGHTS == {"X": 2, "Y": -2}
        assert mackey.stabilizer_order(mackey.orbit_point(3)) == 2
        assert mackey.stabilizer_order(mackey.orbit_point(0)) == 0

    def params(self):
        """(parameter, oracle module) for every (level, m) the oracle names."""
        for z in mackey.LEVEL_GRID:
            for m in self.MS:
                mod = mackey.module_named(z, m)
                if mod is not None:
                    yield mo(z, m), mod

    def test_ktypes(self):
        for p, mod in self.params():
            kt = dual_ktypes(p)
            assert kt.is_finite == mod.is_finite, str(p)
            assert [n for n in self.SPAN if n in kt] == [n for n in self.SPAN if mod.has_ktype(n)]

    def test_levels_off_every_orbit_are_refused(self):
        # a minimal K-type |m| > 1 occurs only at the zero orbit
        for z in mackey.LEVEL_GRID:
            for m in self.MS:
                if mackey.module_named(z, m) is None:
                    assert abs(m) > 1 and z != 0
                    with pytest.raises(ValueError):
                        mo(z, m)

    def test_equivalence(self):
        params = list(self.params())
        verdicts = set()
        for p, a in params:
            for q, b in params:
                same = a.key() == b.key()
                assert params_equivalent(p, q) == same, (str(p), str(q))
                if {p.m, q.m} == {1, -1} and p.level == q.level:
                    verdicts.add((bool(p.level), same))
        # (c, 1) ~ (c, -1) for c != 0, and the two characters stay apart at 0
        assert verdicts == {(True, True), (False, False)}

    def test_tempered(self):
        seen = set()
        for p, mod in self.params():
            assert is_tempered(p) == mod.is_tempered(), str(p)
            seen.add(mod.is_tempered())
        assert seen == {True, False}

    def test_table3(self):
        doc = cmd_tables(3, 8, mackey.LEVEL_GRID)
        listed, expected = [], []
        for m in range(-8, 9):
            if any(m in mod.minimal_ktypes() for mod in mackey.modules_at(1)):
                expected.append((m, "c≠0", mackey.module_named(1, m)))
            expected.append((m, 0, mackey.module_named(0, m)))
        for z in mackey.LEVEL_GRID:
            if not z:
                continue  # the level-0 rows are listed already
            for m in range(-8, 9):
                mod = mackey.module_named(z, m)
                if mod is not None:
                    expected.append((m, scalar_to_json(GR.of(z)), mod))
        for row in doc["rows"]:
            kt = KTypeSet.from_json(row["ktypes"])
            listed.append((row["m"], row["level"], [n for n in self.SPAN if n in kt]))
        assert listed == [(m, level, [n for n in self.SPAN if mod.has_ktype(n)])
                          for m, level, mod in expected]


def _knapp_key(kt: Optional[KTypeSet]) -> Optional[tuple]:
    """A library K-type set in the form of ``langlands.Module`` (None for none)."""
    return None if kt is None else (kt.parity, *kt.bounds)


class TestLanglandsOracle:
    """The group dual against Knapp's classification (``langlands``).

    The grid holds every wall n^2 - 1 for n <= 9, and levels off the walls:
    positive, between -1 and 0, negative and non-real."""

    GRID = [n * n - 1 for n in range(10)] + [Fraction(1, 3), 2, Fraction(-1, 2), -5,
                                             Fraction(-9, 4), GR(1, 1)]

    def test_level_normalization(self):
        assert [langlands.finite_dimensional_level(n) for n in range(1, 6)] == [0, 3, 8, 15, 24]

    @pytest.mark.parametrize("R", [2, Fraction(-3, 2)])
    def test_dual_classes_are_the_irreducibles(self, R):
        listed = Counter((q.level, _knapp_key(dual_ktypes(q)), is_tempered(q))
                         for q in dual_classes(R, 7, self.GRID))
        knapp = Counter((mod.level, (mod.parity, mod.least, mod.greatest), mod.tempered)
                        for mod in langlands.group_dual(7, self.GRID))
        assert set(listed.values()) == set(knapp.values()) == {1}  # one to one
        assert listed == knapp
        assert len(listed) == 45 and {t for *_, t in listed} == {True, False}

    def test_fibers_of_full_parity_families(self):
        """Each fiber of c(r) = c2*r^2 - 1 on a full ladder is a principal series,
        and its factors are Knapp's composition series.  (c2 = 0 puts m = +-1 on a
        limit ray, not on the full odd ladder, so it is taken with m = 0 only.)"""
        checked = reducible = 0
        for c2 in (0, 1, 4, Fraction(1, 4), 9, -1, GR(1, 1)):
            for m in ((0, 1, -1) if c2 else (0,)):
                fam = make_family(m, Poly((GR(-1), GR(0), GR.of(c2)), "r"))
                assert fam.ktypes.bounds == (None, None), str(fam)
                for r in (0, 1, 2, 3, Fraction(1, 2), Fraction(-3, 2), GR(1, 1)):
                    p = ProjectivePoint.from_r(r)
                    dec = composition_factors(evaluate_fiber(fam, p))
                    got = Counter((f.param.level, _knapp_key(f.ktypes), is_tempered(f.param),
                                   abs(f.param.m)) for f in dec.factors)
                    want = Counter((mod.level, (mod.parity, mod.least, mod.greatest),
                                    mod.tempered, mod.lowest())
                                   for mod in langlands.principal_series(fam.casimir.eval(p.r),
                                                                         fam.ktypes.parity))
                    assert dec.complete and got == want, (str(fam), str(p))
                    checked += 1
                    reducible += len(want) > 1
        assert checked == 133 and reducible > 20


# The Vogan level broken in every module that binds it, each break with an
# oracle check that must then fail; neither oracle reads the rule.
RULE_BREAKS = [
    # the group boundary 0, not -1: (-1, 1) and (-1, -1) merge, (0, +-1) stay apart
    ("group-boundary-0",
     lambda orig: lambda flavor, m: 0 if flavor == "group" and abs(m) == 1 else orig(flavor, m),
     lambda: TestLanglandsOracle().test_dual_classes_are_the_irreducibles(2)),
    # the group level of m = +-3 off by one
    ("group-level-3",
     lambda orig: lambda flavor, m: orig(flavor, m) + (flavor == "group" and abs(m) == 3),
     lambda: TestLanglandsOracle().test_dual_classes_are_the_irreducibles(Fraction(-3, 2))),
    # the motion level a minimal K-type |m| > 1 fixes set to 1, not 0
    ("motion-fixed-1",
     lambda orig: lambda flavor, m: 1 if flavor == "motion" and abs(m) > 1 else orig(flavor, m),
     lambda: TestMackeyOracle().test_table3()),
]
RULE_HOMES = (fibers, duals, cli)


class TestVoganLevelBreaks:
    def test_every_module_binding_the_rule_is_patched(self):
        bound = {mod for name, mod in sys.modules.items()
                 if name.startswith("sl2family.") and getattr(mod, "vogan_level", None)
                 is fibers.vogan_level}
        assert bound == set(RULE_HOMES)

    @pytest.mark.parametrize("broken,check", [b[1:] for b in RULE_BREAKS],
                             ids=[b[0] for b in RULE_BREAKS])
    def test_an_oracle_fails(self, monkeypatch, broken, check):
        check()
        rule = broken(fibers.vogan_level)
        for module in RULE_HOMES:
            monkeypatch.setattr(module, "vogan_level", rule)
        with pytest.raises(AssertionError):
            check()
