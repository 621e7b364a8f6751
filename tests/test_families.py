"""Classification of algebraic families: K-type sets, the row table,
ladder coefficients, and infinitesimal characters."""

import random
import sys
from fractions import Fraction

import pytest

from sl2family import families
from sl2family.families import (
    ALL_EVEN,
    ALL_ODD,
    RAY_DOWN,
    RAY_UP,
    SINGLETON,
    WINDOW,
    FamilyValidationError,
    KTypeSet,
    ModuleFamily,
    family_from_json,
    in_tilde_class,
    infer_ktypes,
    infinitesimal_character,
    intertwiner_exists,
    ladder_action,
    make_family,
    wall_index,
)
from sl2family.fibers import DualParam, dual_ktypes
from sl2family.scalars import GaussianRational as GR
from sl2family.scalars import Poly
from polys import chart_substitute


def cpoly(*coeffs) -> Poly:
    """Casimir polynomial in r, constant term first."""
    return Poly(tuple(GR.of(c) for c in coeffs), "r")


class TestKTypeSet:
    def test_string_forms(self):
        assert str(KTypeSet.all_even()) == "2Z"
        assert str(KTypeSet.all_odd()) == "2Z+1"
        assert str(KTypeSet.window(0)) == "0..0"
        assert str(KTypeSet.window(3)) == "-3..3"
        assert str(KTypeSet.ray_up(3)) == "3,5,..."
        assert str(KTypeSet.ray_down(-5)) == "-5,-7,..."
        assert str(KTypeSet.singleton(2)) == "{2}"

    def test_members_and_bounds(self):
        assert list(KTypeSet.window(2).members(-10, 10)) == [-2, 0, 2]
        assert list(KTypeSet.all_even().members(-4, 4)) == [-4, -2, 0, 2, 4]
        assert list(KTypeSet.all_odd().members(-3, 3)) == [-3, -1, 1, 3]
        assert list(KTypeSet.ray_up(3).members(-10, 7)) == [3, 5, 7]
        assert list(KTypeSet.ray_down(-1).members(-6, 10)) == [-5, -3, -1]
        assert list(KTypeSet.singleton(4).members(-10, 10)) == [4]

    def test_finiteness_and_edges(self):
        assert KTypeSet.window(2).is_finite
        assert KTypeSet.singleton(0).is_finite
        assert not KTypeSet.all_even().is_finite
        assert not KTypeSet.ray_up(1).is_finite
        assert KTypeSet.window(2).has_edge
        assert not KTypeSet.window(0).has_edge
        assert not KTypeSet.singleton(4).has_edge
        assert KTypeSet.all_even().has_edge
        assert KTypeSet.ray_down(-3).has_edge

    def test_minimal_prefers_positive(self):
        assert KTypeSet.all_even().minimal() == 0
        assert KTypeSet.all_odd().minimal() == 1
        assert KTypeSet.window(3).minimal() == 1
        assert KTypeSet.window(2).minimal() == 0
        assert KTypeSet.ray_up(5).minimal() == 5
        assert KTypeSet.ray_down(-5).minimal() == -5
        assert KTypeSet.singleton(-2).minimal() == -2

    def test_closed_forms_match_a_scan(self):
        # membership read off the table of shapes, independent of KTypeSet
        def member(kind, p, n):
            if kind in (ALL_EVEN, ALL_ODD):
                return n % 2 == (kind == ALL_ODD)
            if n % 2 != p % 2:
                return False
            return {WINDOW: abs(n) <= p, RAY_UP: n >= p, RAY_DOWN: n <= p, SINGLETON: n == p}[kind]

        shapes = [(ALL_EVEN, None), (ALL_ODD, None)] + [(WINDOW, p) for p in range(13)] + [
            (kind, p) for kind in (RAY_UP, RAY_DOWN, SINGLETON) for p in range(-12, 13)]
        for kind, p in shapes:
            kt = KTypeSet(kind, p)
            near = sorted(range(-14, 15), key=lambda n: (abs(n), -n))
            assert kt.minimal() == next(n for n in near if member(kind, p, n)), kt
            for lo in range(-17, 18, 3):
                for hi in range(lo - 4, 19, 5):
                    scan = [n for n in range(lo, hi + 1) if member(kind, p, n)]
                    assert list(kt.members(lo, hi)) == scan, (kt, lo, hi)

    def test_contains(self):
        assert KTypeSet.all_even().contains(-6)
        assert not KTypeSet.all_even().contains(3)
        assert KTypeSet.window(3).contains(-1)
        assert not KTypeSet.window(3).contains(5)
        assert KTypeSet.ray_up(3).contains(11)
        assert not KTypeSet.ray_up(3).contains(1)

    def test_json_round_trip(self):
        sets = [
            KTypeSet.all_even(),
            KTypeSet.all_odd(),
            KTypeSet.window(0),
            KTypeSet.window(4),
            KTypeSet.ray_up(1),
            KTypeSet.ray_down(-3),
            KTypeSet.singleton(2),
        ]
        objects = [{"kind": "all_even"}, {"kind": "all_odd"}, {"kind": "window", "param": 0},
                   {"kind": "window", "param": 4}, {"kind": "ray_up", "param": 1},
                   {"kind": "ray_down", "param": -3}, {"kind": "singleton", "param": 2}]
        for obj, s in zip(objects, sets):
            assert KTypeSet.from_json(obj) == s
        # the printed forms parse back too
        for s in sets:
            assert KTypeSet.from_json(str(s)) == s

    def test_json_kind_aliases(self):
        assert KTypeSet.from_json({"kind": "allEven"}) == KTypeSet.all_even()
        assert KTypeSet.from_json({"kind": "allOdd"}) == KTypeSet.all_odd()
        assert KTypeSet.from_json({"kind": "rayUp", "param": 3}) == KTypeSet.ray_up(3)
        assert KTypeSet.from_json({"kind": "rayDown", "param": -1}) == KTypeSet.ray_down(-1)
        assert KTypeSet.from_json("allEven") == KTypeSet.all_even()
        assert KTypeSet.from_json("2Z+1") == KTypeSet.all_odd()
        assert KTypeSet.from_json({"kind": "ray_up", "param": 3}) == KTypeSet.ray_up(3)
        assert KTypeSet.from_json(" all_odd ") == KTypeSet.all_odd()
        assert KTypeSet.from_json("5,3,1,...") == KTypeSet.ray_down(5)

    @pytest.mark.parametrize("text,message", [
        ("3,...", "cannot parse K-type set '3,...'"),
        ("1,2,...", "cannot parse K-type set '1,2,...'"),
        ("1,3,99,...", "cannot parse K-type set '1,3,99,...'"),
        ("-2..3", "window must be symmetric, got '-2..3'"),
        ("rayUp", "cannot parse K-type set 'rayUp'"),
        # malformed numbers and shapes name the input, not int() or unpacking
        ("a..b", "cannot parse K-type set 'a..b'"),
        ("-2..0..2", "cannot parse K-type set '-2..0..2'"),
        ("{x}", "cannot parse K-type set '{x}'"),
        ("1,x,...", "cannot parse K-type set '1,x,...'"),
    ])
    def test_malformed_strings(self, text, message):
        with pytest.raises(ValueError) as exc:
            KTypeSet.from_json(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("obj", [5, None, [], ["2Z"], True, {"param": 2}, {"kind": ["x"]},
                                     {"kind": 7, "param": 2}])
    def test_neither_string_nor_kind_object(self, obj):
        with pytest.raises(ValueError) as exc:
            KTypeSet.from_json(obj)
        assert str(exc.value) == f"cannot parse K-type set {obj!r}"

    @pytest.mark.parametrize("obj,start", [
        ({"kind": "x" * 20_000}, "unknown K-type set kind 'xxx"),
        (",".join(["1"] * 10_000), "cannot parse K-type set '1,1,1"),
        ("-1.." + "1" * 4000, "window must be symmetric, got '-1..111"),
        ("{" + "x" * 20_000 + "}", "cannot parse K-type set '{xxx"),
        ({"kind": ["x"] * 10_000}, "cannot parse K-type set {'kind': ['x'"),
    ], ids=["unknown-kind", "long-list", "asymmetric-window", "long-singleton", "long-object"])
    def test_error_quotes_a_bounded_prefix(self, obj, start):
        # the message used to quote the whole value
        with pytest.raises(ValueError) as exc:
            KTypeSet.from_json(obj)
        message = str(exc.value)
        assert message.startswith(start) and "..." in message and len(message) <= 120


class TestWallIndex:
    @pytest.mark.parametrize(
        "value,expected",
        [(0, 0), (3, 1), (-1, -1), (8, 2), (15, 3), (24, 4), (35, 5), (48, 6)],
    )
    def test_walls(self, value, expected):
        assert wall_index(GR(value)) == expected
        assert expected * (expected + 2) == value

    @pytest.mark.parametrize("value", [5, 7, -2, Fraction(5, 4), GR(0, 1), GR(-1, 1)])
    def test_non_walls(self, value):
        assert wall_index(GR.of(value)) is None


# -- independent row table ---------------------------------------------------
#
# Re-derive the classification table from scratch so the validator is
# checked against a second, structurally different encoding.


def _independent_members(kind: str, param: int):
    if kind == ALL_EVEN:
        return lambda n: n % 2 == 0
    if kind == ALL_ODD:
        return lambda n: n % 2 != 0
    if kind == WINDOW:
        return lambda n: abs(n) <= param and (n - param) % 2 == 0
    if kind == RAY_UP:
        return lambda n: n >= param and (n - param) % 2 == 0
    if kind == RAY_DOWN:
        return lambda n: n <= param and (n - param) % 2 == 0
    return lambda n: n == param


def _independent_wall(value) -> "int | None":
    for k in range(-1, 40):
        if GR.of(k * (k + 2)) == value:
            return k
    return None


def _row_is_valid(m: int, kind: str, param: int, casimir: Poly) -> bool:
    if kind == SINGLETON:
        return False
    member = _independent_members(kind, param)
    if not member(m):
        return False
    cv = casimir.coeff(0) if casimir.is_constant else None
    wall = _independent_wall(cv) if cv is not None else None
    if kind == ALL_EVEN:
        return m == 0 and not (wall is not None and wall >= 0 and wall % 2 == 0)
    if kind == ALL_ODD:
        return m in (1, -1) and not (wall is not None and wall % 2 == 1)
    if kind == WINDOW:
        if param % 2 == 0 and m != 0:
            return False
        if param % 2 == 1 and m not in (1, -1):
            return False
        return cv is not None and cv == GR.of(param * (param + 2))
    if kind == RAY_UP:
        if m != param or param < 1:
            return False
        want = -1 if param == 1 else param * (param - 2)
        return cv is not None and cv == GR.of(want)
    if m != param or param > -1:
        return False
    want = -1 if param == -1 else param * (param + 2)
    return cv is not None and cv == GR.of(want)


def _bare(m, casimir, ktypes=None) -> ModuleFamily:
    """The dataclass constructor, called with make_family's arguments."""
    return ModuleFamily(m, ktypes, casimir)


def _outcome(build, *args):
    """True for an accepted triple, else the (code, detail) of its refusal."""
    try:
        build(*args)
    except FamilyValidationError as exc:
        return exc.code, exc.detail
    return True


class TestMakeFamily:
    def test_standard_rows_accepted(self):
        rows = [
            (0, cpoly(-1, 0, 1), KTypeSet.all_even()),
            (0, cpoly(5), KTypeSet.all_even()),
            (1, cpoly(-1, 0, 2), KTypeSet.all_odd()),
            (-1, cpoly(0, 1), KTypeSet.all_odd()),
            (0, cpoly(8), KTypeSet.window(2)),
            (0, cpoly(0), KTypeSet.window(0)),
            (1, cpoly(3), KTypeSet.window(1)),
            (-1, cpoly(15), KTypeSet.window(3)),
            (1, cpoly(-1), KTypeSet.ray_up(1)),
            (-1, cpoly(-1), KTypeSet.ray_down(-1)),
            (3, cpoly(3), KTypeSet.ray_up(3)),
            (-4, cpoly(8), KTypeSet.ray_down(-4)),
        ]
        for m, c, kt in rows:
            fam = make_family(m, c, kt)
            assert fam.ktypes == kt and fam.m == m

    def test_inference(self):
        assert make_family(0, cpoly(-1, 0, 1)).ktypes == KTypeSet.all_even()
        assert make_family(0, cpoly(8)).ktypes == KTypeSet.window(2)
        assert make_family(0, cpoly(0)).ktypes == KTypeSet.window(0)
        assert make_family(1, cpoly(-1)).ktypes == KTypeSet.ray_up(1)
        assert make_family(-1, cpoly(-1)).ktypes == KTypeSet.ray_down(-1)
        assert make_family(1, cpoly(3)).ktypes == KTypeSet.window(1)
        assert make_family(1, cpoly(5)).ktypes == KTypeSet.all_odd()
        assert make_family(3, cpoly(3)).ktypes == KTypeSet.ray_up(3)
        assert make_family(-6, cpoly(24)).ktypes == KTypeSet.ray_down(-6)
        assert infer_ktypes(-1, cpoly(15)) == KTypeSet.window(3)

    def test_casimir_coercion(self):
        fam = make_family(0, [-1, 0, 1])
        assert fam.casimir == cpoly(-1, 0, 1)
        assert fam.c2 == 1 and fam.c1 == 0 and fam.c0 == -1
        assert fam.casimir_value() is None
        assert make_family(0, 5).casimir_value() == GR(5)

    # each builder takes a constructor with make_family's signature
    @pytest.mark.parametrize(
        "code,builder",
        [
            ("casimir-degree", lambda make: make(0, [0, 0, 0, 1])),
            ("casimir-variable", lambda make: make(0, Poly((GR(1),), "R"))),
            ("parity-mismatch", lambda make: make(1, cpoly(8), KTypeSet.window(2))),
            ("minimal-ktype-missing", lambda make: make(3, cpoly(5), KTypeSet.ray_up(5))),
            ("minimal-ktype-mismatch", lambda make: make(2, cpoly(8), KTypeSet.window(2))),
            ("row-mismatch", lambda make: make(2, cpoly(1))),
            ("row-mismatch", lambda make: make(0, cpoly(8), KTypeSet.all_even())),
            ("row-mismatch", lambda make: make(0, cpoly(-1, 0, 1), KTypeSet.window(2))),
            ("singleton-not-a-family", lambda make: make(2, cpoly(0), KTypeSet.singleton(2))),
        ],
    )
    def test_rejection_codes(self, code, builder):
        """make_family and the bare ModuleFamily constructor refuse alike."""
        errors = []
        for make in (make_family, _bare):
            with pytest.raises(FamilyValidationError) as exc:
                builder(make)
            errors.append((exc.value.code, exc.value.detail))
        assert errors[0][0] == code and errors[0][1]
        assert errors[1] == errors[0]

    # int("7" * 4000), int("9" * 4400) and int("5" * 4400), built without int()
    # of a string, which is itself over the interpreter's default limit
    @pytest.mark.parametrize("code,builder,start", [
        ("row-mismatch", lambda: make_family(7 * (10**4000 - 1) // 9, 0), "minimal K-type 777"),
        ("row-mismatch", lambda: make_family(0, 10**5000, KTypeSet.window(2)),
         "window -2..2 requires c(r) = 8 constantly, got 1000"),
        ("parity-mismatch", lambda: make_family(0, 3, KTypeSet.window(10**4400 - 1)),
         "minimal K-type 0 has different parity than -999"),
        ("row-mismatch", lambda: make_family(5 * (10**4400 - 1) // 9, 0,
                                             KTypeSet.ray_up(5 * (10**4400 - 1) // 9)),
         "upward ray from 555"),
    ], ids=["inferred", "casimir", "window", "ray"])
    def test_long_numbers_in_details_under_the_default_limit(self, code, builder, start):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter has no int/str digit limit")
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(FamilyValidationError) as exc:
                builder()
            assert sys.get_int_max_str_digits() == 4300  # restored after the detail
        finally:
            sys.set_int_max_str_digits(before)
        detail = exc.value.detail
        assert exc.value.code == code and str(exc.value) == f"{code}: {detail}"
        assert detail.startswith(start) and detail.endswith("...") and len(detail) == 303

    @pytest.mark.parametrize("ktypes", [None, KTypeSet.all_even()])
    def test_casimir_validated_once(self, monkeypatch, ktypes):
        calls = []
        real = families._as_casimir
        monkeypatch.setattr(families, "_as_casimir", lambda c: calls.append(c) or real(c))
        assert make_family(0, [-1, 0, 1], ktypes).ktypes == KTypeSet.all_even()
        assert len(calls) == 1

    @pytest.mark.parametrize("m,casimir,message", [
        (0, [0, 0, 0, 1],
         "casimir-degree: casimir acts by a polynomial of degree <= 2, got degree 3"),
        (0, Poly((GR(1),), "R"), "casimir-variable: casimir must be a polynomial in r, got R"),
        (2, cpoly(1), "row-mismatch: minimal K-type 2 forces c(r) = 0 constantly, got 1"),
        (2, [1, 0, 1], "row-mismatch: minimal K-type 2 forces c(r) = 0 constantly, got r^2 + 1"),
    ], ids=["degree", "variable", "constant-row", "quadratic-row"])
    def test_inferred_rejections(self, m, casimir, message):
        for build in (make_family, _bare, infer_ktypes):
            with pytest.raises(FamilyValidationError) as exc:
                build(m, casimir)
            assert str(exc.value) == message

    def test_validator_against_independent_table(self):
        constants = [GR(-4), GR(-1), GR(0), GR(1), GR(3), GR(5), GR(8), GR(15), GR(24)]
        casimirs = [cpoly(v) for v in constants]
        casimirs.append(cpoly(-1, 0, 1))
        casimirs.append(cpoly(0, 1))
        kinds = [(ALL_EVEN, 0), (ALL_ODD, 0)]
        kinds += [(WINDOW, k) for k in range(0, 7)]
        kinds += [(RAY_UP, d) for d in range(1, 7)]
        kinds += [(RAY_DOWN, -d) for d in range(1, 7)]
        kinds += [(SINGLETON, 2)]
        builders = {
            ALL_EVEN: lambda p: KTypeSet.all_even(),
            ALL_ODD: lambda p: KTypeSet.all_odd(),
            WINDOW: KTypeSet.window,
            RAY_UP: KTypeSet.ray_up,
            RAY_DOWN: KTypeSet.ray_down,
            SINGLETON: KTypeSet.singleton,
        }
        checked = accepted = 0
        for m in range(-6, 7):
            for c in casimirs:
                rows = []
                for kind, param in kinds:
                    kt = builders[kind](param)
                    expected = _row_is_valid(m, kind, param, c)
                    outcome = _outcome(make_family, m, c, kt)
                    got = outcome is True
                    assert got == expected, (m, kind, param, str(c))
                    # the bare constructor accepts and refuses exactly alike
                    assert _outcome(_bare, m, c, kt) == outcome, (m, kind, param, str(c))
                    checked += 1
                    accepted += got
                    if expected:
                        rows.append(kt)
                # inference finds the one accepted row, and a constant c(r) = z
                # gives the K-types of the group-dual parameter (z, m)
                assert len(rows) <= 1, (m, str(c))
                if rows:
                    assert infer_ktypes(m, c) == rows[0], (m, str(c))
                else:
                    with pytest.raises(FamilyValidationError):
                        infer_ktypes(m, c)
                if c.is_constant:
                    z = c.coeff(0)
                    if rows:
                        assert dual_ktypes(DualParam.group(z, m, 1)) == rows[0], (m, z)
                    else:
                        with pytest.raises(ValueError):
                            DualParam.group(z, m, 1)
        # 8 even-ladder rows, 16 odd-ladder rows, 7 windows, 12 rays
        assert checked == 3146 and accepted == 43

    def test_string_form(self):
        fam = make_family(0, cpoly(-1, 0, 1))
        assert str(fam) == "family(m=0, I=2Z, c(r)=r^2 - 1)"


class TestFamilyJson:
    def test_round_trip(self):
        fams = [
            make_family(0, cpoly(-1, 0, 1)),
            make_family(1, cpoly(-1)),
            make_family(-4, cpoly(8)),
            make_family(0, cpoly(8)),
            make_family(3, cpoly(3)),
            make_family(-1, cpoly(-1), KTypeSet.ray_down(-1)),
            make_family(1, cpoly(GR(Fraction(1, 2), -3), Fraction(-2, 7), GR(0, 1))),
        ]
        for fam in fams:
            assert family_from_json(fam.to_json()) == fam

    def test_to_json_is_the_descriptor_the_cli_prints(self):
        from sl2family.cli import cmd_classify

        fam = make_family(1, cpoly(GR(Fraction(1, 2), -3), Fraction(-2, 7), GR(0, 1)))
        assert fam.to_json() == {"m": 1, "ktypes": "2Z+1", "casimir": [
            {"re": "1/2", "im": "-3"}, "-2/7", {"re": "0", "im": "1"}]}
        assert make_family(-4, cpoly(8)).to_json() == {"m": -4, "ktypes": "-4,-6,...",
                                                       "casimir": [8, 0, 0]}
        for obj in (fam.to_json(), {"m": 0, "casimir": "-1/3"}):
            assert cmd_classify(obj)[0]["family"] == family_from_json(obj).to_json()

    def test_descriptor_forms(self):
        fam = family_from_json({"m": 1, "casimir": [-1, 0, 0], "ktypes": "rayUp"})
        assert fam.ktypes == KTypeSet.ray_up(1)
        fam2 = family_from_json({"m": -1, "casimir": [-1], "ktypes": "rayDown"})
        assert fam2.ktypes == KTypeSet.ray_down(-1)
        fam3 = family_from_json({"m": 0, "casimir": ["-1", 0, "1/2"]})
        assert fam3.c2 == GR(Fraction(1, 2))

    @pytest.mark.parametrize("desc,start", [
        ({"m": 0, "casimir": [8], "k" * 20_000: 1}, "unknown descriptor key 'kkk"),
        ({"m": 0, "casimir": {"coeffs": [8], "var": "r", "k" * 20_000: 1}},
         """unknown "casimir" key 'kkk"""),
        ({"m": 0, "casimir": [8], "ktypes": {"kind": "2Z", "k" * 20_000: 1}},
         """unknown "ktypes" key 'kkk"""),
    ], ids=["descriptor", "casimir", "ktypes"])
    def test_unknown_key_quotes_a_bounded_prefix(self, desc, start):
        # the detail used to quote the whole key
        with pytest.raises(FamilyValidationError) as exc:
            family_from_json(desc)
        detail = exc.value.detail
        assert exc.value.code == "descriptor-bad-field"
        assert detail.startswith(start) and detail.endswith("...") and len(detail) <= 120

    def test_descriptor_errors(self):
        with pytest.raises(FamilyValidationError) as exc:
            family_from_json({"casimir": [0]})
        assert exc.value.code == "descriptor-missing-field"
        with pytest.raises(FamilyValidationError) as exc:
            family_from_json({"m": 0, "casimir": [0], "ktypes": {"kind": "spiral"}})
        assert exc.value.code == "descriptor-bad-field"
        # a misspelled "ktypes" must not fall back to inferred K-types
        with pytest.raises(FamilyValidationError) as exc:
            family_from_json({"m": 0, "casimir": [8], "ktype": "2Z"})
        assert exc.value.code == "descriptor-bad-field"
        assert exc.value.detail == "unknown descriptor key 'ktype'"
        # so must a misspelled key inside the "casimir" or "ktypes" object
        for desc, detail in (
            ({"m": 0, "casimir": {"coeffs": [8], "var": "r", "cofs": [3]}},
             """unknown "casimir" key 'cofs'"""),
            ({"m": 0, "casimir": [8], "ktypes": {"kind": "window", "param": 2, "parity": 1}},
             """unknown "ktypes" key 'parity'"""),
        ):
            with pytest.raises(FamilyValidationError) as exc:
                family_from_json(desc)
            assert (exc.value.code, exc.value.detail) == ("descriptor-bad-field", detail)
        # a "ktypes" value that is neither a string nor an object with a string
        # "kind" names the input, not a Python error
        for kt in (5, [], True, {"param": 2}, {"kind": ["x"]}):
            with pytest.raises(FamilyValidationError) as exc:
                family_from_json({"m": 0, "casimir": [8], "ktypes": kt})
            assert (exc.value.code, exc.value.detail) == (
                "descriptor-bad-field", f'cannot read "ktypes": cannot parse K-type set {kt!r}')
        # exponent notation is refused at once, however large the exponent
        with pytest.raises(FamilyValidationError) as exc:
            family_from_json({"m": 0, "casimir": "1e-999999999"})
        assert (exc.value.code, exc.value.detail) == (
            "descriptor-bad-field",
            "cannot read scalar from '1e-999999999' (exponent notation is not read)")


class TestTildeClass:
    def test_generic_even_family_extends(self):
        ok, why = in_tilde_class(make_family(0, cpoly(-1, 0, 1)))
        assert ok and "full even ladder" in why

    def test_shifted_casimir_does_not_extend(self):
        ok, why = in_tilde_class(make_family(0, cpoly(-1, 1, 1)))
        assert not ok and "c2*r^2 - 1" in why

    def test_odd_families(self):
        assert in_tilde_class(make_family(1, cpoly(-1, 0, 2)))[0]
        assert not in_tilde_class(make_family(1, cpoly(0, 0, -1)))[0]

    def test_discrete_rays_always_extend(self):
        assert in_tilde_class(make_family(2, cpoly(0)))[0]
        assert in_tilde_class(make_family(-5, cpoly(15)))[0]


class TestLadderAction:
    def test_finite_chart_fixtures(self):
        la = ladder_action(make_family(0, cpoly(-1, 0, 1)))
        assert la.var == "r"
        assert la.up(-2) == cpoly(Fraction(-1, 4), 0, Fraction(1, 4))
        assert la.up(0) == cpoly(1)
        assert la.down(2) == cpoly(Fraction(-1, 4), 0, Fraction(1, 4))
        assert la.down(0) == cpoly(1)

    def test_infinity_chart_fixtures(self):
        la = ladder_action(make_family(0, cpoly(-1, 0, 1)), "Xinf")
        assert la.var == "R"
        assert la.up(-2) == Poly((GR(Fraction(1, 4)), GR(0), GR(Fraction(-1, 4))), "R")
        assert la.up(0) == Poly((GR(1),), "R")

    def test_ray_fixture(self):
        la = ladder_action(make_family(2, cpoly(0)))
        d4 = la.down(4)
        assert d4 == cpoly(-2)
        assert la.up(2) == cpoly(1)

    @pytest.mark.parametrize(
        "fam",
        [
            make_family(0, cpoly(-1, 0, 1)),
            make_family(0, cpoly(3, -2, 1)),
            make_family(1, cpoly(-1, 0, 2)),
            make_family(2, cpoly(0)),
            make_family(-3, cpoly(3)),
            make_family(0, cpoly(8)),
            make_family(1, cpoly(15)),
            make_family(0, cpoly(48)),
        ],
    )
    def test_bracket_and_casimir_identities(self, fam):
        """On every K-type the ladder coefficients satisfy the bracket
        relation and reproduce the Casimir polynomial, in both charts."""
        ns = list(fam.ktypes.members(-8, 8))
        la = ladder_action(fam)
        one = Poly((GR(1),), "r")
        c_fin = fam.casimir
        for n in ns:
            bracket = la.down(n) * la.up(n - 2) - la.up(n) * la.down(n + 2)
            assert bracket == one * n, ("X0 bracket", n)
            cas = la.up(n) * la.down(n + 2) * 4 + one * (n * n + 2 * n)
            assert cas == c_fin, ("X0 casimir", n)
        li = ladder_action(fam, "Xinf")
        tau = Poly((GR(0), GR(0), GR(1)), "R")
        c_inf, pole = chart_substitute(c_fin)
        if pole < 2:
            c_inf = c_inf * Poly([GR(0)] * (2 - pole) + [GR(1)], "R")
        for n in ns:
            bracket = li.down(n) * li.up(n - 2) - li.up(n) * li.down(n + 2)
            assert bracket == tau * n, ("Xinf bracket", n)
            cas = li.up(n) * li.down(n + 2) * 4 + tau * (n * n + 2 * n)
            assert cas == c_inf, ("Xinf casimir", n)

    def test_unknown_chart_rejected(self):
        with pytest.raises(ValueError):
            ladder_action(make_family(0, cpoly(5)), "X2")


class TestInfinitesimalCharacter:
    def test_constant_compact(self):
        ic = infinitesimal_character(make_family(3, cpoly(3)), "compact")
        assert ic.exists and ic.in_field
        assert ic.alpha0 == GR(2) and ic.alpha1 == GR(0)

    def test_compact_needs_constant_casimir(self):
        ic = infinitesimal_character(make_family(0, cpoly(-1, 0, -4)), "compact")
        assert not ic.exists

    def test_split_linear_character(self):
        ic = infinitesimal_character(make_family(0, cpoly(-1, 0, -4)), "split")
        assert ic.exists and ic.in_field
        assert ic.alpha1 == GR(0, 2) and ic.alpha0 == GR(0)

    def test_split_exists_outside_field(self):
        ic = infinitesimal_character(make_family(0, cpoly(-1, 0, 2)), "split")
        assert ic.exists and not ic.in_field
        assert ic.alpha0 is None and ic.alpha1 is None

    def test_split_obstructed(self):
        ic = infinitesimal_character(make_family(0, cpoly(-1, 1, 1)), "split")
        assert not ic.exists

    def test_unknown_cartan_rejected(self):
        with pytest.raises(ValueError):
            infinitesimal_character(make_family(0, cpoly(5)), "diagonal")


class TestIntertwiner:
    def test_real_coefficients(self):
        assert intertwiner_exists(make_family(0, cpoly(-1, 0, 1)))
        assert intertwiner_exists(make_family(2, cpoly(0)))

    def test_complex_coefficients(self):
        fam = make_family(0, Poly((GR(-1), GR(0, 1)), "r"))
        assert not intertwiner_exists(fam)
        fam2 = make_family(0, Poly((GR(0, 1), GR(0), GR(1)), "r"))
        assert not intertwiner_exists(fam2)
