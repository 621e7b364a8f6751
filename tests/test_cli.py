"""Command-line interface: table generation, analysis pipelines,
verification suites, exit codes, and deterministic rendering."""

import contextlib
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from family_sweep import sweep_points, validated_families
from sl2family import cli, fibers, sheaf
from sl2family.cli import _load_object, cmd_analyze, cmd_classify, cmd_verify, main, render_json
from sl2family.fibers import DualParam, evaluate_fiber, factor_containing_m
from sl2family.scalars import GaussianRational as GR
from sl2family.sheaf import ProjectivePoint

FIXTURES = Path(__file__).parent / "fixtures"

# Descriptors covering every K-type set shape, |m| <= 6 and casimirs on and
# off the wall levels, with the K-type set given or left to inference.
GRID_KTYPES = (
    ["2Z", "2Z+1"]
    + [f"{-k}..{k}" for k in range(7)]
    + [f"{d},{d + step},..." for d in (*range(-6, 0), *range(1, 7)) for step in (2, -2)]
    + ["{2}", None]
)
GRID_CASIMIRS = ([-1], [0], [3], [8], [15], [24], [5], [-1, 0, 1], [0, 1])


def stdlib_json(doc) -> str:
    """The rendering render_json must match byte for byte."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def classify_grid():
    for m in range(-6, 7):
        for kt in GRID_KTYPES:
            for c in GRID_CASIMIRS:
                desc = {"m": m, "casimir": c}
                if kt is not None:
                    desc["ktypes"] = kt
                yield desc


def run(capsys, *argv) -> "tuple[int, str]":
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def usage_error(capsys, argv) -> str:
    """The last stderr line of main(argv), which must exit 2 and print nothing."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err.splitlines()[-1]


class TestTableFixtures:
    def test_fixture_shapes(self):
        table1 = json.loads((FIXTURES / "table1_M6.json").read_text())
        table2 = json.loads((FIXTURES / "table2_M6.json").read_text())
        table3 = json.loads((FIXTURES / "table3_M6.json").read_text())
        assert len(table1["rows"]) == 25
        assert len(table2["rows"]) == 25
        assert len(table3["rows"]) == 16
        assert {r["m"] for r in table1["rows"]} == set(range(-6, 7))


class TestTableContents:
    def test_table1_minimal_bound_lists_the_even_rows(self, capsys):
        code, doc = run_json(capsys, "tables", "1", "--M", "0")
        assert code == 0
        assert doc["rows"] == [
            {"casimir": "c(r)≠k(k+2), 0≤k even", "ktypes": "2Z", "m": 0},
            {"casimir": 0, "ktypes": "0..0", "m": 0},
        ]

    def test_table3_lists_generic_and_discrete_rows(self, capsys):
        code, doc = run_json(capsys, "tables", "3", "--M", "2")
        assert code == 0
        assert {"m": 0, "level": "c≠0", "ktypes": "2Z"} in doc["rows"]
        assert {"m": 2, "level": 0, "ktypes": "{2}"} in doc["rows"]

    def test_table2_grid_includes_both_limits(self, capsys):
        code, doc = run_json(capsys, "tables", "2", "--M", "1", "--grid", "-1")
        assert code == 0
        assert {"ktypes": "1,3,...", "level": -1, "m": 1} in doc["rows"]
        assert {"ktypes": "-1,-3,...", "level": -1, "m": -1} in doc["rows"]

    def test_table1_grid_appends_instances(self, capsys):
        code, doc = run_json(capsys, "tables", "1", "--M", "2", "--grid", "0,8")
        assert code == 0
        assert doc["grid"] == [0, 8]
        assert {"casimir": 8, "ktypes": "-2..2", "m": 0} in doc["rows"]


    @pytest.mark.parametrize("which", ["1", "2", "3"])
    def test_negative_bound_is_usage_error(self, capsys, which):
        assert "M must be >= 0" in usage_error(capsys, ["tables", which, "--M", "-3"])


class TestDeterminism:
    def test_repeated_runs_are_identical(self, capsys):
        _, first = run(capsys, "tables", "2", "--M", "4")
        _, second = run(capsys, "tables", "2", "--M", "4")
        assert first == second

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        _, streamed = run(capsys, "tables", "1", "--M", "3")
        target = tmp_path / "t.json"
        code, silent = run(capsys, "tables", "1", "--M", "3", "--out", str(target))
        assert code == 0 and silent == ""
        assert target.read_text(encoding="utf-8") == streamed

    def test_json_rendering_is_ascii_sorted_and_terminated(self, capsys):
        _, out = run(capsys, "classify", "--family", '{"m": 2, "casimir": [0]}')
        assert out.endswith("\n")
        assert out == out.encode("ascii", "strict").decode("ascii")
        doc = json.loads(out)
        assert list(doc) == sorted(doc)


# JSON trees with every leaf render_json takes, empty containers at every depth,
# and strings that need escapes: quotes, backslashes, control, non-ASCII and
# astral characters, and lone surrogates
_json_text = st.text(st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\ud800\udfff\U0001f600'),
    st.characters()), max_size=6)
_json_tree = st.recursive(
    st.one_of(st.none(), st.booleans(), _json_text, st.integers(),
              st.integers(2**64, 2**200), st.integers(-2**200, -2**64)),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(_json_text, children, max_size=4)),
    max_leaves=40)


class TestRenderJson:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(doc=_json_tree)
    def test_matches_the_stdlib_rendering(self, doc):
        assert render_json(doc) == stdlib_json(doc)

    def test_float_leaf_is_refused(self):
        with pytest.raises(TypeError):
            render_json({"a": [1, {"b": 0.5}]})

    def test_int_key_is_refused(self):
        with pytest.raises(TypeError):
            render_json({"a": {1: "x"}})

    # A dict is written from a plan kept per (indent, keys); these write one
    # shape in ways a plan must not carry from one dict to the next.

    def test_one_key_set_in_two_insertion_orders(self):
        for doc in ({"b": 1, "a": "x", "c": None}, {"c": None, "a": "x", "b": 1},
                    [{"b": 2, "a": "y"}, {"a": "z", "b": 3}]):
            assert render_json(doc) == stdlib_json(doc)

    def test_one_shape_at_two_depths(self):
        inner = {"re": "1", "im": "0"}
        for doc in (inner, {"x": inner}, [inner, [inner]], {"x": [{"y": inner}], "re": inner}):
            assert render_json(doc) == stdlib_json(doc)

    def test_one_shape_with_leaves_then_containers(self):
        for doc in ({"a": 1, "b": "s"}, {"a": {"a": 1, "b": "s"}, "b": [1, "s"]},
                    {"a": {}, "b": []}, {"a": [{}], "b": {"a": [], "b": None}}):
            assert render_json(doc) == stdlib_json(doc)

    def test_true_and_one_under_one_shape(self):
        for doc in ({"k": True}, {"k": 1}, {"k": False}, {"k": 0}, {"k": None},
                    [True, 1, False, 0], {"k": [1, True]}):
            assert render_json(doc) == stdlib_json(doc)

    @pytest.mark.parametrize("bad, good", [
        ({"a": 0.5, "b": "x"}, {"a": 1, "b": "x"}),
        ({"a": {1: "x", 2: "y"}}, {"a": {"1": "x", "2": "y"}}),
        ({"a": (1, 2), "b": "x"}, {"a": [1, 2], "b": "x"}),
    ], ids=["float-leaf", "int-key", "tuple-value"])
    def test_a_refused_doc_leaves_no_plan_behind(self, bad, good):
        with pytest.raises(TypeError):
            render_json(bad)
        assert render_json(good) == stdlib_json(good)
        with pytest.raises(TypeError):
            render_json(bad)

    def test_the_plan_table_stays_at_its_bound(self):
        bound = cli._dict_plan.cache_info().maxsize
        docs = [{f"k{i}": i, "v": [{"re": str(i)}]} for i in range(bound + 40)]
        for doc in docs:
            assert render_json(doc) == stdlib_json(doc)
        assert cli._dict_plan.cache_info().currsize == bound
        assert render_json(docs[0]) == stdlib_json(docs[0])


class TestClassify:
    def test_valid_family(self, capsys):
        code, doc = run_json(
            capsys, "classify", "--family", '{"m": 0, "casimir": [-1, 0, 1]}'
        )
        assert code == 0
        assert doc["valid"] and doc["error"] is None
        assert doc["family"] == {"casimir": [-1, 0, 1], "ktypes": "2Z", "m": 0}
        assert doc["tilde"]["member"] is True
        assert doc["characters"]["split"]["exists"] is True
        assert doc["characters"]["compact"]["exists"] is False

    def test_invalid_family_exits_one(self, capsys):
        code, doc = run_json(capsys, "classify", "--family", '{"m": 2, "casimir": [5]}')
        assert code == 1
        assert not doc["valid"]
        assert doc["error"] == "row-mismatch"
        assert "forces c(r) = 0" in doc["detail"]

    def test_alias_kind_descriptor(self, capsys):
        code, doc = run_json(
            capsys,
            "classify",
            "--family",
            '{"m": 1, "casimir": [-1, 0, 0], "ktypes": "rayUp"}',
        )
        assert code == 0
        assert doc["family"]["ktypes"] == "1,3,..."

    def test_family_from_file(self, capsys, tmp_path):
        src = tmp_path / "family.json"
        src.write_text('{"m": 0, "casimir": [-1, 0, 1]}')
        code, doc = run_json(capsys, "classify", "--family", str(src))
        assert code == 0 and doc["valid"]


    def test_grid_is_byte_identical_to_golden(self):
        # recorded with the classification written out per K-type shape,
        # before it moved into one lookup table; "results" holds, per
        # descriptor in grid order, the exit code and an index into the
        # distinct "outputs"
        golden = json.loads((FIXTURES / "classify_grid.json").read_text(encoding="utf-8"))
        assert golden["grid"] == {
            "m": [-6, 6], "ktypes": GRID_KTYPES, "casimirs": list(GRID_CASIMIRS)
        }
        descs = list(classify_grid())
        assert len(golden["results"]) == len(descs) == 4095
        for (code, idx), desc in zip(golden["results"], descs):
            doc, got = cmd_classify(desc)
            assert got == code, desc
            assert render_json(doc) == stdlib_json(golden["outputs"][idx]), desc


    @pytest.mark.parametrize(
        "casimir",
        [{"var": "r"}, {"coeffs": [0]}, {"var": "r", "coeffs": [{"re": 0.5}]},
         {"var": "r", "coeffs": [-1, 0, 1.0]}, {"var": "r", "coeffs": [{"im": 1}]}],
    )
    def test_malformed_casimir_object_is_a_bad_field(self, capsys, casimir):
        desc = json.dumps({"m": 0, "casimir": casimir})
        code, doc = run_json(capsys, "classify", "--family", desc)
        assert code == 1
        assert doc["error"] == "descriptor-bad-field"
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--family", desc, "--point", "r=1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "descriptor-bad-field" in err and "Traceback" not in err

    def test_unknown_key_is_a_bad_field(self, capsys):
        # without "ktypes" this descriptor is a valid family with inferred K-types
        desc = json.dumps({"m": 0, "casimir": [8], "ktype": "2Z"})
        code, doc = run_json(capsys, "classify", "--family", desc)
        assert code == 1
        assert doc["error"] == "descriptor-bad-field"
        assert doc["detail"] == "unknown descriptor key 'ktype'"
        assert usage_error(capsys, ["analyze", "--family", desc, "--point", "r=1"]) == (
            "sl2family: error: --family: descriptor-bad-field: unknown descriptor key 'ktype'")

    @pytest.mark.parametrize("desc,detail", [
        ({"m": 0, "casimir": {"coeffs": [8], "var": "r", "cofs": [3]}},
         """unknown "casimir" key 'cofs'"""),
        ({"m": 0, "casimir": [8], "ktypes": {"kind": "window", "param": 2, "parity": 1}},
         """unknown "ktypes" key 'parity'"""),
    ], ids=["casimir", "ktypes"])
    def test_unknown_nested_key_is_a_bad_field(self, capsys, desc, detail):
        # without the extra key each descriptor is a valid family
        code, doc = run_json(capsys, "classify", "--family", json.dumps(desc))
        assert code == 1
        assert doc["error"] == "descriptor-bad-field" and doc["detail"] == detail

    @pytest.mark.parametrize("param", [2.0, True])
    def test_non_integer_ktypes_param_is_a_bad_field(self, capsys, param):
        desc = json.dumps(
            {"m": 0, "casimir": [8], "ktypes": {"kind": "window", "param": param}}
        )
        code, doc = run_json(capsys, "classify", "--family", desc)
        assert code == 1
        assert doc["error"] == "descriptor-bad-field"
        assert doc["detail"] == 'cannot read "ktypes": window needs an integer parameter'

    @pytest.mark.parametrize("casimir", ["1e-999999999", [-1, 0, "1E3"], [{"re": 0, "im": "2e5"}]])
    def test_exponent_notation_is_a_bad_field(self, capsys, casimir):
        # before exponents were refused, "1e-999999999" kept classify busy for minutes
        code, doc = run_json(capsys, "classify", "--family", json.dumps({"m": 0, "casimir": casimir}))
        assert code == 1
        assert doc["error"] == "descriptor-bad-field"
        assert doc["detail"].endswith("' (exponent notation is not read)")

    @pytest.mark.parametrize("casimir,start", [
        ([[1] * 200_000], "cannot read scalar from [1, 1, "),
        (["1" * 5000 + "/3"], "cannot read scalar from '1111"),
        ([{"re": 1, "im": "x" * 10_000}], "cannot read scalar from 'xxxx"),
        ([{"re": 1, "k" * 10_000: 1}], "unknown scalar key 'kkkk"),
        (["1e5" + "0" * 10_000], "cannot read scalar from '1e50000"),
    ], ids=["long-list", "5000-digit-ratio", "long-string", "long-key", "long-exponent"])
    def test_scalar_detail_is_bounded(self, capsys, casimir, start):
        # the detail used to quote the whole value: 600 KB for the long list
        code, doc = run_json(capsys, "classify", "--family", json.dumps({"m": 0, "casimir": casimir}))
        assert code == 1
        assert doc["error"] == "descriptor-bad-field"
        assert doc["detail"].startswith(start) and len(doc["detail"]) <= 120

    @pytest.mark.parametrize("ktypes", [5, [], True, {"param": 2}, {"kind": ["x"]}])
    def test_non_set_ktypes_value_is_a_bad_field(self, capsys, ktypes):
        code, doc = run_json(capsys, "classify", "--family",
                             json.dumps({"m": 0, "casimir": [8], "ktypes": ktypes}))
        assert code == 1
        assert doc["error"] == "descriptor-bad-field"
        assert doc["detail"] == f'cannot read "ktypes": cannot parse K-type set {ktypes!r}'

    @pytest.mark.parametrize("ktypes", ["a..b", "-2..0..2", "{x}", "1,x,..."])
    def test_malformed_ktypes_string_is_a_bad_field(self, capsys, ktypes):
        desc = json.dumps({"m": 0, "casimir": [8], "ktypes": ktypes})
        code, doc = run_json(capsys, "classify", "--family", desc)
        assert code == 1
        assert doc["error"] == "descriptor-bad-field"
        assert doc["detail"] == f'cannot read "ktypes": cannot parse K-type set {ktypes!r}'


class TestAnalyze:
    def test_limit_ray_point(self, capsys):
        code, doc = run_json(
            capsys,
            "analyze",
            "--family",
            '{"m": 1, "casimir": [-1, 0, 0], "ktypes": "rayUp"}',
            "--point",
            "r=7",
        )
        assert code == 0 and doc["pass"]
        (entry,) = doc["points"]
        assert entry["point"] == "r=7"
        assert entry["level"] == -1
        assert not entry["reducible"]
        assert entry["agree"] is True
        assert entry["formula"] == {
            "R": "1/7", "flavor": "group", "level": -1, "m": 1,
        }

    def test_huge_minimal_ktype(self):
        # minimal() and members() follow the set's bounds, not every integer up to m
        m = 10**12
        doc, code = cmd_analyze({"m": m, "casimir": [m * (m - 2)]}, [ProjectivePoint.parse("r=1")])
        assert code == 0 and doc["pass"]
        (entry,) = doc["points"]
        assert [f["ktypes"] for f in entry["factors"]] == ["1000000000000,1000000000002,..."]

    def test_huge_window(self):
        # the cut edges come from the wall index of the level, not a K-type walk
        k = 10**12
        doc, code = cmd_analyze({"m": 0, "casimir": k * (k + 2)}, [ProjectivePoint.parse("r=1")])
        assert code == 0 and doc["pass"]
        (entry,) = doc["points"]
        assert not entry["reducible"] and entry["complete"]
        assert [f["ktypes"] for f in entry["factors"]] == [f"{-k}..{k}"]
        assert entry["containing_m"] == {
            "R": 1, "flavor": "group", "level": k * (k + 2), "m": 0,
        }

    def test_generic_family_over_grid(self, capsys):
        code, doc = run_json(
            capsys,
            "analyze",
            "--family",
            '{"m": 0, "casimir": [-1, 0, 1]}',
            "--grid",
            "r=1,r=2,inf",
        )
        assert code == 0 and doc["pass"]
        by_point = {e["point"]: e for e in doc["points"]}
        assert by_point["r=1"]["reducible"] and len(by_point["r=1"]["factors"]) == 3
        assert by_point["r=1"]["containing_m"]["level"] == 0
        assert not by_point["r=2"]["reducible"]
        assert by_point["inf"]["flavor"] == "motion"
        assert all(e["agree"] for e in doc["points"])

    def test_non_real_points_match_golden(self):
        # r=1+i and R=-1/2+i in the forms GaussianRational writes, in both charts
        doc = json.loads((FIXTURES / "analyze_m1_nonreal_grid.json").read_bytes())
        assert [p["point"] for p in doc["points"]] == ["r=1+i", "r=-2/5-(4/5)i", "inf"]
        assert doc["points"][0]["level"] == {"re": "-1", "im": "4"}

    def test_containing_m_is_read_off_one_decomposition(self, monkeypatch):
        """On every family and point of the validated sweep, analyze
        decomposes each fiber once, and the factor it reports as containing
        m is factor_containing_m's."""
        calls = []
        real = fibers.composition_factors

        def counted(fib):
            calls.append(fib)
            return real(fib)

        monkeypatch.setattr(cli, "composition_factors", counted)
        monkeypatch.setattr(fibers, "composition_factors", counted)
        checked = 0
        for fam in validated_families():
            pts = sweep_points(fam)
            calls.clear()
            doc, _ = cmd_analyze(fam.to_json(), pts)
            assert len(calls) == len(pts), str(fam)
            for p, entry in zip(pts, doc["points"]):
                want = factor_containing_m(evaluate_fiber(fam, p))
                assert entry["containing_m"] == want.to_json(), (str(fam), str(p))
                checked += 1
        assert checked > 1000

    def test_disagreeing_closed_form_fails_the_run(self, capsys, monkeypatch):
        wrong = DualParam(12345, 0, None)
        monkeypatch.setattr(cli, "jantzen_quotient_formula", lambda fam, p: wrong)
        code, doc = run_json(capsys, "analyze", "--family", '{"m": 0, "casimir": [-1, 0, 1]}',
                             "--grid", "r=1,r=2,inf")
        assert code == 1 and doc["pass"] is False
        assert [(e["formula"], e["agree"]) for e in doc["points"]] == [(wrong.to_json(), False)] * 3

    def test_origin_has_no_formula(self, capsys):
        code, doc = run_json(
            capsys,
            "analyze",
            "--family",
            '{"m": 0, "casimir": [-1, 0, 1]}',
            "--point",
            "r=0",
        )
        assert code == 0 and doc["pass"]
        (entry,) = doc["points"]
        assert entry["formula"] is None and entry["agree"] is None
        assert "outside the chart at infinity" in entry["note"]

    def test_family_outside_tilde_class(self, capsys):
        code, doc = run_json(
            capsys,
            "analyze",
            "--family",
            '{"m": 0, "casimir": [-1, 1, 1]}',
            "--point",
            "r=1",
        )
        assert code == 0 and doc["pass"]
        (entry,) = doc["points"]
        assert entry["formula"] is None
        assert "no closed-form quotient" in entry["note"]

    def test_non_real_casimir_has_no_locus_but_every_point(self, capsys):
        # c(r) = i*r meets the wall level 0 at r = 0: that fiber splits in three
        fam = '{"m": 0, "casimir": [0, {"re": 0, "im": 1}]}'
        code, doc = run_json(capsys, "analyze", "--family", fam, "--grid", "r=0,r=1,inf")
        assert code == 0 and doc["pass"] and doc["locus"] is None
        origin, one, inf = doc["points"]
        assert origin["reducible"] and origin["level"] == 0
        assert [(f["m"], f["ktypes"]) for f in origin["factors"]] == [
            (-2, "-2,-4,..."), (0, "0..0"), (2, "2,4,...")]
        assert all(f["R"] is None and f["level"] == 0 for f in origin["factors"])
        assert not one["reducible"] and one["level"] == {"re": "0", "im": "1"}
        assert inf["flavor"] == "motion" and inf["reducible"]  # c2 = 0 cuts every edge

    def test_requires_points(self, capsys):
        usage_error(capsys, ["analyze", "--family", '{"m": 0, "casimir": [-1, 0, 1]}'])

    def test_invalid_family_is_usage_error(self, capsys):
        usage_error(capsys, ["analyze", "--family", '{"m": 2, "casimir": [5]}', "--point", "r=1"])


class TestBijection:
    def test_small_verification(self, capsys):
        code, doc = run_json(
            capsys, "bijection", "--R", "1,2", "--M", "3", "--grid", "0,1,-1,3"
        )
        assert code == 0 and doc["pass"]
        assert [rep["R"] for rep in doc["reports"]] == [1, 2]
        assert all(rep["pass"] for rep in doc["reports"])
        assert doc["characterization"] is None

    def test_candidate_characterization(self, capsys):
        code, doc = run_json(
            capsys,
            "bijection",
            "--R",
            "2",
            "--M",
            "2",
            "--grid",
            "0,1,-1,3",
            "--candidate",
            '{"0": ["1/4", -1], "1": ["1/4", -1], "-1": ["1/4", -1]}',
        )
        assert code == 0 and doc["pass"]
        assert doc["characterization"]["matches"] == 2
        assert doc["characterization"]["violated"] is None

    def test_no_chart_coordinate_fails(self):
        # --R is never empty, but a library run that checked no R has shown nothing
        doc, code = cli.cmd_bijection([], 3, [0, 1])
        assert (code, doc["pass"], doc["reports"]) == (1, False, [])

    def test_rejected_candidate_is_reported(self, capsys):
        # the exit code reflects the bijection verification; the verdict on
        # the candidate lives in the payload
        code, doc = run_json(
            capsys,
            "bijection",
            "--R",
            "1",
            "--M",
            "2",
            "--grid",
            "0,1",
            "--candidate",
            '{"0": [1, 0], "1": [1, 0], "-1": [1, 0]}',
        )
        assert code == 0 and doc["pass"]
        assert doc["characterization"]["matches"] is None
        assert doc["characterization"]["violated"] == "vogan-extension"

    @pytest.mark.parametrize("argv", [["bijection", "--R", "1", "--M", "3", "--grid", "1,1"],
                                      ["verify", "bijection", "--grid", "0"]])
    def test_one_level_grid_is_usage_error(self, capsys, argv):
        assert usage_error(capsys, argv) == (
            "sl2family: error: the level grid needs at least two distinct levels")

    def test_non_real_levels_are_read(self, capsys):
        one_plus_i = {"im": "1", "re": "1"}
        code, doc = run_json(capsys, "tables", "2", "--M", "2", "--grid", "1+i")
        assert code == 0 and doc["grid"] == [one_plus_i]
        assert {"m": 0, "level": one_plus_i, "ktypes": "2Z"} in doc["rows"]
        code, doc = run_json(capsys, "verify", "conjecture2", "--M", "1", "--grid", "1+i")
        assert code == 0 and doc["pass"]
        assert all("c2=1+i" in e["instance"] for e in doc["entries"])

    def test_each_distinct_R_is_checked_once(self, capsys):
        # the first occurrence of each value stays, as with the levels of tables --grid
        code, doc = run_json(capsys, "bijection", "--R", "1,1,2/2", "--M", "0", "--grid", "0,1")
        assert code == 0 and doc == run_json(capsys, "bijection", "--R", "1", "--M", "0",
                                             "--grid", "0,1")[1]
        code, doc = run_json(capsys, "bijection", "--R", "2,1,4/2", "--M", "0", "--grid", "0,1")
        assert code == 0 and [rep["R"] for rep in doc["reports"]] == [2, 1]
        code, doc = run_json(capsys, "verify", "bijection", "--R", "1,1", "--M", "0", "--grid", "0,1")
        assert code == 0 and doc["counts"] == {"pass": 7, "fail": 0}
        assert doc == run_json(capsys, "verify", "bijection", "--R", "1", "--M", "0",
                               "--grid", "0,1")[1]

    @pytest.mark.parametrize("argv", [["bijection", "--R", "1,0", "--M", "300"],
                                      ["verify", "bijection", "--R", "1,0"],
                                      ["bijection", "--R", "1,1+i", "--M", "300"]])
    def test_every_R_is_checked_before_any_check_runs(self, capsys, monkeypatch, argv):
        calls = []
        monkeypatch.setattr(cli, "verify_conjecture1", lambda *args: calls.append(args))
        assert usage_error(capsys, argv) == (
            "sl2family: error: the chart coordinate R must be a nonzero real rational")
        assert calls == []

    def test_float_in_candidate_is_usage_error(self, capsys):
        assert usage_error(capsys, [
            "bijection", "--R", "1", "--M", "1", "--grid", "0,1",
            "--candidate", '{"0": [0.5, -1], "1": [1, -1], "-1": [1, -1]}']) == (
            "sl2family: error: candidate entry for m=0: "
            "cannot read scalar from 0.5 (floats are not exact)")


class TestVerify:
    def test_regularity_decomposes_each_power_once(self, monkeypatch):
        # center_membership and both gamma_family calls share one decomposition
        calls = []

        def counted(orig):
            return lambda s: calls.append(s) or orig(s)

        for owner in (cli, sheaf):
            monkeypatch.setattr(owner, "center_decompose", counted(owner.center_decompose))
        doc, code = cmd_verify("regularity", M=5)
        assert code == 0 and doc["counts"] == {"fail": 0, "pass": 17}
        assert len(calls) == 5

    # the golden files verify_bijection_default.json and conjecture2_default.json
    # hold the other two suites' default runs
    @pytest.mark.parametrize("suite", ["appendix", "regularity"])
    def test_every_suite_passes_on_its_defaults(self, capsys, suite):
        code, doc = run_json(capsys, "verify", suite)
        assert code == 0
        assert doc["pass"] and doc["profile"] == "default"
        assert doc["suite"] == suite
        assert doc["counts"]["fail"] == 0
        assert doc["counts"]["pass"] == len(doc["entries"])
        assert all(e["pass"] for e in doc["entries"])

    def test_default_bijection_grid_meets_the_four_level_cells(self, capsys):
        # canonical, is_tempered and eta see a free level z only through z = 0,
        # whether z is real, and whether z <= 0: a grid meeting all four cells
        # (real z < 0, z = 0, real z > 0, non-real z) decides them for every level
        code, doc = run_json(capsys, "bijection")
        cells = {"non-real" if not z.is_real else "0" if z == 0 else "<0" if z.re < 0 else ">0"
                 for z in map(GR.from_json, doc["grid"])}
        assert code == 0 and cells == {"<0", "0", ">0", "non-real"}

    def test_size_override(self, capsys):
        code, doc = run_json(capsys, "verify", "appendix", "--M", "1")
        assert code == 0
        default_code, default_doc = run_json(capsys, "verify", "appendix")
        assert default_code == 0
        assert doc["counts"]["pass"] < default_doc["counts"]["pass"]

    @pytest.mark.parametrize("value", ["quick", "bogus"])
    def test_profile_variable_is_not_read(self, capsys, monkeypatch, value):
        # SL2FAMILY_PROFILE once chose a smaller "quick" grid; it no longer has an effect
        monkeypatch.delenv("SL2FAMILY_PROFILE", raising=False)
        unset = run(capsys, "verify", "appendix")
        monkeypatch.setenv("SL2FAMILY_PROFILE", value)
        assert run(capsys, "verify", "appendix") == unset

    @pytest.mark.parametrize("suite,M", [("appendix", "0")])
    def test_suite_with_no_checks_fails(self, capsys, suite, M):
        code, doc = run_json(capsys, "verify", suite, "--M", M)
        assert code == 1
        assert doc["entries"] == [] and doc["pass"] is False

    def test_conjecture2_with_no_checks_fails(self):
        # M = 0 with an empty level grid leaves conjecture2 no family to check
        doc, code = cmd_verify("conjecture2", M=0, grid=[])
        assert code == 1
        assert doc["entries"] == [] and doc["pass"] is False

    @pytest.mark.parametrize("suite", ["conjecture2", "bijection", "appendix", "regularity"])
    def test_negative_bound_is_usage_error(self, capsys, suite):
        assert usage_error(capsys, ["verify", suite, "--M", "-1"]).endswith("bound M must be >= 0")

    def test_unknown_suite_is_usage_error(self, capsys):
        usage_error(capsys, ["verify", "balance"])


FAMILY = '{"m": 0, "casimir": [-1, 0, 1]}'
SMALL_BIJECTION = ["bijection", "--R", "1", "--M", "1", "--grid", "0,1"]
NO_SUCH_FILE = "[Errno 2] No such file or directory: "
NOT_JSON = "Expecting value: line 1 column 1 (char 0)"
NOT_OBJECT = "family descriptor must be a JSON object"

# (id, argv, last stderr line after "sl2family: error: ");
# {tmp} is a directory holding missing.json (absent), nonjson.txt, nonobj.json and
# deep.json (a descriptor whose "casimir" nests 5,000 lists deep)
USAGE_ERRORS = [
    ("classify-missing-file", ["classify", "--family", "{tmp}/missing.json"],
     f"--family: {NO_SUCH_FILE}'{{tmp}}/missing.json'"),
    ("classify-non-json", ["classify", "--family", "{tmp}/nonjson.txt"],
     f"--family: {NOT_JSON}"),
    ("classify-non-object", ["classify", "--family", "{tmp}/nonobj.json"],
     f"--family: {NOT_OBJECT}"),
    ("classify-deep-nesting", ["classify", "--family", "{tmp}/deep.json"],
     "--family: family descriptor nests too deeply to read"),
    ("analyze-missing-file",
     ["analyze", "--family", "{tmp}/missing.json", "--point", "r=1"],
     f"--family: {NO_SUCH_FILE}'{{tmp}}/missing.json'"),
    ("analyze-non-json", ["analyze", "--family", "{tmp}/nonjson.txt", "--point", "r=1"],
     f"--family: {NOT_JSON}"),
    ("analyze-non-object",
     ["analyze", "--family", "{tmp}/nonobj.json", "--point", "r=1"], f"--family: {NOT_OBJECT}"),
    ("analyze-no-points", ["analyze", "--family", FAMILY],
     "analyze needs at least one --point or --grid"),
    ("analyze-unknown-casimir-key",
     ["analyze", "--family", '{"m": 0, "casimir": {"coeffs": [8], "var": "r", "cofs": [3]}}',
      "--point", "r=1"],
     """--family: descriptor-bad-field: unknown "casimir" key 'cofs'"""),
    ("analyze-unknown-ktypes-key",
     ["analyze", "--family",
      '{"m": 0, "casimir": [8], "ktypes": {"kind": "window", "param": 2, "parity": 1}}',
      "--point", "r=1"],
     """--family: descriptor-bad-field: unknown "ktypes" key 'parity'"""),
    ("analyze-unknown-scalar-key",
     ["analyze", "--family", '{"m": 0, "casimir": [{"re": 8, "imag": 3}]}', "--point", "r=1"],
     "--family: descriptor-bad-field: unknown scalar key 'imag'"),
    ("analyze-one-sided-ray",
     ["analyze", "--family", '{"m": 3, "casimir": [3], "ktypes": "3,..."}', "--point", "r=1"],
     """--family: descriptor-bad-field: cannot read "ktypes": cannot parse K-type set '3,...'"""),
    ("candidate-missing-file", SMALL_BIJECTION + ["--candidate", "{tmp}/missing.json"],
     f"--candidate: {NO_SUCH_FILE}'{{tmp}}/missing.json'"),
    ("candidate-non-json", SMALL_BIJECTION + ["--candidate", "{tmp}/nonjson.txt"],
     f"--candidate: {NOT_JSON}"),
    ("candidate-non-object", SMALL_BIJECTION + ["--candidate", "{tmp}/nonobj.json"],
     "--candidate: candidate must be a JSON object"),
    ("candidate-deep-nesting", SMALL_BIJECTION + ["--candidate", "{tmp}/deep.json"],
     "--candidate: candidate nests too deeply to read"),
    ("candidate-empty", SMALL_BIJECTION + ["--candidate", ""],
     f"--candidate: {NO_SUCH_FILE}''"),
    ("candidate-float",
     SMALL_BIJECTION + ["--candidate", '{"0": [0.5, -1], "1": [1, -1], "-1": [1, -1]}'],
     "candidate entry for m=0: cannot read scalar from 0.5 (floats are not exact)"),
    ("candidate-unknown-scalar-key",
     SMALL_BIJECTION + ["--candidate", '{"0": [{"re": 1, "imag": 1}, -1]}'],
     "candidate entry for m=0: unknown scalar key 'imag'"),
    ("candidate-boolean", SMALL_BIJECTION + ["--candidate", '{"0": [1, true]}'],
     "candidate entry for m=0: booleans are not scalars"),
    ("candidate-without-m0",
     SMALL_BIJECTION + ["--candidate", '{"1": [1, -1], "-1": [1, -1]}'],
     "candidate must supply an affine map for m = 0"),
    ("candidate-pinned-key",
     SMALL_BIJECTION + ["--candidate", '{"0": [1, -1], "1": [1, -1], "-1": [1, -1], "2": [1, 1]}'],
     "candidate may supply affine maps for m = 0, 1, -1 only; "
     "no eta^R moves the level a K-type |m| > 1 fixes"),
    ("candidate-non-integer-key", SMALL_BIJECTION + ["--candidate", '{"x": [1, -1]}'],
     "candidate key 'x' is not an integer m"),
    ("bijection-zero-R", ["bijection", "--R", "0"],
     "the chart coordinate R must be a nonzero real rational"),
    ("verify-bijection-zero-R", ["verify", "bijection", "--R", "0"],
     "the chart coordinate R must be a nonzero real rational"),
    ("out-missing-directory",
     ["tables", "1", "--M", "0", "--out", "{tmp}/no-such-dir/x.json"],
     f"--out: {NO_SUCH_FILE}'{{tmp}}/no-such-dir/x.json'"),
    ("tables-negative-M", ["tables", "1", "--M", "-1"],
     "the K-type bound M must be >= 0"),
    ("bijection-negative-M", ["bijection", "--M", "-1"],
     "the K-type bound M must be >= 0"),
    ("conjecture2-negative-M", ["verify", "conjecture2", "--M", "-1"],
     "the K-type bound M must be >= 0"),
    ("verify-bijection-negative-M", ["verify", "bijection", "--M", "-1"],
     "the K-type bound M must be >= 0"),
    ("appendix-negative-M", ["verify", "appendix", "--M", "-1"],
     "the Casimir power bound M must be >= 0"),
    ("regularity-negative-M", ["verify", "regularity", "--M", "-1"],
     "the Casimir power bound M must be >= 0"),
    ("bijection-one-level-grid", ["bijection", "--R", "1", "--M", "3", "--grid", "1,1"],
     "the level grid needs at least two distinct levels"),
    ("verify-bijection-one-level-grid", ["verify", "bijection", "--grid", "0"],
     "the level grid needs at least two distinct levels"),
    # exponent notation, which names numbers of any length, in a descriptor and a candidate
    ("analyze-exponent-casimir",
     ["analyze", "--family", '{"m": 0, "casimir": "1e-999999999"}', "--point", "r=1"],
     "--family: descriptor-bad-field: cannot read scalar from '1e-999999999' "
     "(exponent notation is not read)"),
    ("candidate-exponent",
     SMALL_BIJECTION + ["--candidate", '{"0": ["1e-999999999", -1], "1": [1, -1], "-1": [1, -1]}'],
     "candidate entry for m=0: cannot read scalar from '1e-999999999' "
     "(exponent notation is not read)"),
    # a flag the suite does not read
    ("conjecture2-R", ["verify", "conjecture2", "--R", "1"],
     "verify conjecture2 takes no --R"),
    ("appendix-R", ["verify", "appendix", "--R", "2"], "verify appendix takes no --R"),
    ("appendix-grid", ["verify", "appendix", "--grid", "1,2"],
     "verify appendix takes no --grid"),
    ("regularity-R", ["verify", "regularity", "--R", "2"],
     "verify regularity takes no --R"),
    ("regularity-grid", ["verify", "regularity", "--grid", "1,2"],
     "verify regularity takes no --grid"),
]


# (id, argv, last stderr line): exponent notation in a flag value, which argparse
# reports under the subcommand's name
EXPONENT_FLAGS = [
    ("tables-grid", ["tables", "1", "--grid", "1e-999999999,1"],
     "sl2family tables: error: argument --grid: not an exact scalar: '1e-999999999' "
     "(cannot read scalar from '1e-999999999' (exponent notation is not read))"),
    ("bijection-grid", ["bijection", "--grid", "1e-999999999,1"],
     "sl2family bijection: error: argument --grid: not an exact scalar: '1e-999999999' "
     "(cannot read scalar from '1e-999999999' (exponent notation is not read))"),
    ("bijection-R", ["bijection", "--R", "1,2E999999999"],
     "sl2family bijection: error: argument --R: not an exact scalar: '2E999999999' "
     "(cannot read scalar from '2E999999999' (exponent notation is not read))"),
    ("verify-bijection-grid", ["verify", "bijection", "--grid", "0,1e3"],
     "sl2family verify: error: argument --grid: not an exact scalar: '1e3' "
     "(cannot read scalar from '1e3' (exponent notation is not read))"),
    ("analyze-point", ["analyze", "--family", FAMILY, "--point", "r=1e-999999999"],
     "sl2family analyze: error: argument --point: not a base point: 'r=1e-999999999' "
     "(cannot read scalar from '1e-999999999' (exponent notation is not read))"),
    ("analyze-grid", ["analyze", "--family", FAMILY, "--grid", "r=1,R=1e9"],
     "sl2family analyze: error: argument --grid: not a base point: 'R=1e9' "
     "(cannot read scalar from '1e9' (exponent notation is not read))"),
]

# (id, argv, last stderr line): other unreadable flag values, each with the reader's reason
UNREADABLE_FLAGS = [
    ("bijection-grid", ["bijection", "--grid", "0,zz"],
     "sl2family bijection: error: argument --grid: not an exact scalar: 'zz' "
     "(cannot read scalar from 'zz')"),
    ("bijection-R", ["bijection", "--R", "1/0"],
     "sl2family bijection: error: argument --R: not an exact scalar: '1/0' "
     "(cannot read scalar from '1/0')"),
    ("analyze-point", ["analyze", "--family", FAMILY, "--point", "r=1+2j"],
     "sl2family analyze: error: argument --point: not a base point: 'r=1+2j' "
     "(cannot read scalar from '1+2j')"),
    ("bijection-empty-grid", ["bijection", "--grid", ","],
     "sl2family bijection: error: argument --grid: empty list"),
    ("bijection-M", ["bijection", "--M", "abc"],
     "sl2family bijection: error: argument --M: not an integer: 'abc' "
     "(cannot read an integer from 'abc')"),
    ("tables-which", ["tables", "one"],
     "sl2family tables: error: argument which: not an integer: 'one' "
     "(cannot read an integer from 'one')"),
]


LONG = "x" * 20_000

# (id, argv, start of the last stderr line): a 20,000-character value, of which
# the message quotes a bounded prefix
LONG_VALUES = [
    ("candidate-key", SMALL_BIJECTION + ["--candidate", json.dumps({LONG: [1, -1]})],
     "sl2family: error: candidate key 'xxx"),
    ("tables-grid", ["tables", "1", "--grid", "0," + LONG],
     "sl2family tables: error: argument --grid: not an exact scalar: 'xxx"),
    ("bijection-grid", ["bijection", "--grid", "0," + "1" * 20_000],
     "sl2family bijection: error: argument --grid: not an exact scalar: '111"),
    ("bijection-R", ["bijection", "--R", LONG],
     "sl2family bijection: error: argument --R: not an exact scalar: 'xxx"),
    ("analyze-point", ["analyze", "--family", FAMILY, "--point", "r=" + LONG],
     "sl2family analyze: error: argument --point: not a base point: 'r=xxx"),
]


DIGITS = "1" * 5000

# (id, argv, start of the last stderr line): an integer flag, a choice, a
# subcommand or a stray argument of 5,000 digits or 20,000 characters, which
# argparse's own messages used to echo whole
LONG_ARGUMENTS = [
    ("tables-M-digits", ["tables", "1", "--M", DIGITS],
     "sl2family tables: error: argument --M: not an integer: '111"),
    ("tables-M", ["tables", "1", "--M", LONG],
     "sl2family tables: error: argument --M: not an integer: 'xxx"),
    ("bijection-M", ["bijection", "--M", LONG],
     "sl2family bijection: error: argument --M: not an integer: 'xxx"),
    ("verify-M", ["verify", "appendix", "--M", "1" * 20_000],
     "sl2family verify: error: argument --M: not an integer: '111"),
    ("tables-which", ["tables", DIGITS],
     "sl2family tables: error: argument which: not an integer: '111"),
    ("tables-which-int", ["tables", "1" * 4000],
     "sl2family tables: error: argument which: invalid choice: 111"),
    ("verify-suite", ["verify", LONG],
     "sl2family verify: error: argument suite: invalid choice: 'xxx"),
    ("format", ["tables", "1", "--format", LONG],
     "sl2family tables: error: argument --format: invalid choice: 'xxx"),
    ("command", [LONG], "sl2family: error: argument command: invalid choice: 'xxx"),
    ("stray-argument", ["tables", "1", LONG], "sl2family: error: unrecognized arguments: xxx"),
    ("stray-flag", ["verify", "appendix", "--" + LONG],
     "sl2family: error: unrecognized arguments: --xxx"),
]


OVER = "1" * 4301  # one digit past the limit


def _analyze(desc: str, point: str = "2") -> list:
    return ["analyze", "--family", desc, "--point", point]


# (id, argv): every place that reads integer text, given a run of 4,301 digits
DIGIT_READERS = [
    ("json-int", _analyze('{"m": 0, "casimir": ' + OVER + "}")),
    ("casimir-ratio", _analyze('{"m": 0, "casimir": "' + OVER + '/3"}')),
    ("ktypes-singleton", _analyze('{"m": 0, "casimir": 0, "ktypes": "{' + OVER + '}"}')),
    ("ktypes-window", _analyze('{"m": 0, "casimir": 0, "ktypes": "-' + OVER + ".." + OVER + '"}')),
    ("ktypes-ray", _analyze('{"m": 1, "casimir": -1, "ktypes": "' + OVER + "," + OVER + ',..."}')),
    ("ktypes-param", _analyze('{"m": 0, "casimir": 0, "ktypes": {"kind": "window", "param": '
                              + OVER + "}}")),
    ("candidate-key", SMALL_BIJECTION + ["--candidate", '{"' + OVER + '": [1, -1]}']),
    ("candidate-entry", SMALL_BIJECTION + ["--candidate", '{"0": ["' + OVER + '", -1]}']),
    ("M", ["tables", "1", "--M", OVER]),
    ("grid", ["bijection", "--grid", "0," + OVER]),
    ("point", _analyze('{"m": 0, "casimir": [-1, 0, 1]}', "r=" + OVER)),
    ("table-number", ["tables", OVER]),
]


class TestUsageErrors:
    @pytest.mark.parametrize("argv,message", [case[1:] for case in EXPONENT_FLAGS],
                             ids=[case[0] for case in EXPONENT_FLAGS])
    def test_exponent_notation_in_a_flag(self, argv, message):
        # before exponents were refused, "1e-999999999" kept the parser busy for
        # minutes: the entry point must refuse it within 20 s
        proc = subprocess.run([sys.executable, "-m", "sl2family", *argv],
                              capture_output=True, text=True, timeout=20)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.splitlines()[-1] == message

    @pytest.mark.parametrize("argv,message", [case[1:] for case in UNREADABLE_FLAGS],
                             ids=[case[0] for case in UNREADABLE_FLAGS])
    def test_unreadable_flag_value_gives_the_reason(self, capsys, argv, message):
        assert usage_error(capsys, argv) == message

    @pytest.mark.parametrize("argv,start", [case[1:] for case in LONG_VALUES],
                             ids=[case[0] for case in LONG_VALUES])
    def test_long_value_is_quoted_by_a_bounded_prefix(self, capsys, argv, start):
        # the message used to quote the whole value: about 20 KB of stderr
        line = usage_error(capsys, argv)
        assert line.startswith(start) and "..." in line and len(line) <= 300

    @pytest.mark.parametrize("argv,start", [case[1:] for case in LONG_ARGUMENTS],
                             ids=[case[0] for case in LONG_ARGUMENTS])
    def test_long_argument_is_not_echoed_whole(self, capsys, argv, start):
        # argparse's "invalid int value" and "invalid choice" quoted all of it: 20 KB
        line = usage_error(capsys, argv)
        assert line.startswith(start) and "..." in line and len(line) <= 400

    def test_more_than_the_digit_limit_names_the_limit(self, capsys):
        line = usage_error(capsys, ["verify", "regularity", "--M", DIGITS])
        assert line.endswith("... (more than 4300 digits))")

    @pytest.mark.parametrize("argv", [case[1] for case in DIGIT_READERS],
                             ids=[case[0] for case in DIGIT_READERS])
    def test_every_reader_names_the_digit_limit(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        line = err.splitlines()[-1]
        assert "more than 4300 digits" in line and len(line.encode()) <= 400
        assert len(err.encode()) <= 1000  # the usage lines and that one

    @pytest.mark.parametrize("argv", [
        ["classify", "--family", '{"m": 0, "casimir": ' + DIGITS + "}"],
        ["analyze", "--family", '{"m": 0, "casimir": [-1, 0, ' + DIGITS + "]}", "--point", "2"],
        SMALL_BIJECTION + ["--candidate", '{"0": [' + DIGITS + ", 1]}"],
    ], ids=["classify", "analyze", "candidate"])
    def test_long_json_int_names_the_digit_limit(self, capsys, argv):
        # Python's own message here was "... use sys.set_int_max_str_digits() ..."
        flag = "--candidate" if "--candidate" in argv else "--family"
        assert usage_error(capsys, argv) == (
            f"sl2family: error: {flag}: cannot read an integer from '{DIGITS[:59]}... "
            "(more than 4300 digits)")

    def test_json_int_at_the_digit_limit_reads(self):
        digits = "7" * 4300
        assert _load_object('{"m": -' + digits + "}", "x") == {"m": -int(digits)}

    @pytest.mark.parametrize("argv,message", [case[1:] for case in USAGE_ERRORS],
                             ids=[case[0] for case in USAGE_ERRORS])
    def test_exit_two_with_one_line(self, capsys, tmp_path, argv, message):
        (tmp_path / "nonjson.txt").write_text("not json", encoding="utf-8")
        (tmp_path / "nonobj.json").write_text("[1, 2]", encoding="utf-8")
        deep = '{"m": 0, "casimir": ' + "[" * 5000 + "1" + "]" * 5000 + "}"
        (tmp_path / "deep.json").write_text(deep, encoding="utf-8")
        assert usage_error(capsys, [a.replace("{tmp}", str(tmp_path)) for a in argv]) == (
            "sl2family: error: " + message.replace("{tmp}", str(tmp_path)))


class TestTextFormat:
    def test_text_rendering(self, capsys):
        code, out = run(capsys, "tables", "3", "--M", "1", "--format", "text")
        assert code == 0
        assert out.startswith("M: 1\n")
        assert "ktypes: 2Z+1" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_text_and_json_agree_on_pass(self, capsys):
        code, out = run(capsys, "verify", "regularity", "--format", "text")
        assert code == 0
        assert "pass: true" in out


class TestEntryPoint:
    def test_module_execution(self):
        proc = subprocess.run([sys.executable, "-m", "sl2family", "tables", "1", "--M", "0"],
                              capture_output=True, text=True)
        assert proc.returncode == 0 and len(json.loads(proc.stdout)["rows"]) == 2

    def test_output_integers_pass_the_interpreter_limit(self):
        # D^3 + D has 8,998 digits, past the interpreter's bound on int -> str;
        # with D = 10^2999 its decimal text is written out without that conversion
        d = "1" + "0" * 2999
        proc = subprocess.run(
            [sys.executable, "-m", "sl2family", "analyze", "--family",
             f'{{"m": 0, "casimir": [{d}, 0, {d}]}}', "--point", f"r={d}"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        (entry,) = json.loads(proc.stdout, parse_int=str)["points"]
        assert entry["level"] == "1" + "0" * 5997 + "1" + "0" * 2999

    def test_usage_error_exit_code(self):
        proc = subprocess.run([sys.executable, "-m", "sl2family", "tables", "9"],
                              capture_output=True)
        assert proc.returncode == 2

    def test_interrupt_exits_130_with_one_line(self, monkeypatch, capsys):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_verify", interrupted)
        assert main(["verify", "bijection"]) == 130
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "sl2family: interrupted\n"

    def test_out_of_memory_exits_2_with_one_line(self, monkeypatch, capsys):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_tables", exhausted)
        assert main(["tables", "3", "--M", "6"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "sl2family: out of memory\n"

    def test_reader_closing_early_exits_quietly(self, capsys, monkeypatch):
        # some 600 KB of rows, more than a pipe holds: the reader takes the
        # first bytes and closes its end while main is still writing
        read_end, write_end = os.pipe()
        reader = threading.Thread(target=lambda: (os.read(read_end, 100), os.close(read_end)))
        reader.start()
        with open(write_end, "w", encoding="utf-8") as pipe:
            monkeypatch.setattr(sys, "stdout", pipe)
            status = main(["tables", "3", "--M", "4000"])
            monkeypatch.undo()
        reader.join()
        assert status == 0 and capsys.readouterr().err == ""

    def test_closed_pipe_exits_quietly(self):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the child writes
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "sl2family", "analyze", "--family",
                 '{"m": 0, "casimir": [-1, 0, 1]}', "--point", "r=1", "--point", "inf"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr
        assert proc.stderr == ""
        assert proc.returncode == 0  # the command's own status


# -- fuzzing the JSON inputs --------------------------------------------------

_json_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(-20, 20), st.floats(allow_nan=False, width=16),
    st.sampled_from(["1/2", "-3", "0", "x", "1/0", "", "2Z", "-2..2", "3,5,...", "{2}",
                     "3,...", "1,2,..."]),
)
_json_value = st.recursive(
    _json_leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["re", "im", "var", "coeffs", "kind", "param",
                                         "cofs", "parity", "imag"]),
                        inner, max_size=3),
    ),
    max_leaves=8,
)
# a scalar object, valid but for an optional unknown key
_scalar_object = st.fixed_dictionaries(
    {"re": st.integers(-20, 20)}, optional={"im": st.integers(-2, 2), "imag": _json_value})
# mostly valid families, but for an optional unknown key inside an object
_nested_descriptor = st.fixed_dictionaries(
    {"m": st.integers(-1, 1),
     "casimir": st.fixed_dictionaries(
         {"coeffs": st.lists(st.one_of(st.integers(-20, 20), _scalar_object), max_size=3),
          "var": st.just("r")},
         optional={"cofs": _json_value})},
    optional={"ktypes": st.fixed_dictionaries(
        {"kind": st.sampled_from(["allEven", "allOdd"])}, optional={"parity": _json_value})},
)
_descriptor = st.one_of(st.fixed_dictionaries(
    {},
    optional={
        "m": st.one_of(st.integers(-4, 4), st.integers(-10**12, 10**12), _json_leaf),
        "casimir": _json_value,
        "ktypes": _json_value,
        "ktype": _json_value,  # unknown keys are rejected
    },
), _nested_descriptor)
_pair = st.lists(st.one_of(st.integers(-3, 3), _scalar_object), min_size=2, max_size=2)
_candidate = st.one_of(st.dictionaries(
    st.sampled_from(["0", "1", "-1", "2", "x"]),
    st.one_of(st.lists(_json_value, min_size=2, max_size=2), _json_value),
    max_size=4,
), st.fixed_dictionaries({"0": _pair, "1": _pair, "-1": _pair}))  # mostly valid


def _unknown_nested_key(desc) -> bool:
    """Whether the "casimir" or "ktypes" object, or a scalar object among
    the Casimir coefficients, has a key it does not read."""
    known = {"casimir": {"coeffs", "var"}, "ktypes": {"kind", "param"}}
    if any(isinstance(desc.get(key), dict) and not set(desc[key]) <= keys
           for key, keys in known.items()):
        return True
    cas = desc.get("casimir")
    return _unknown_scalar_key(cas.get("coeffs") if isinstance(cas, dict) else cas)


def _unknown_scalar_key(values) -> bool:
    """Whether the list values holds a scalar object with a key other than re/im."""
    return isinstance(values, list) and any(
        isinstance(x, dict) and not set(x) <= {"re", "im"} for x in values)


def _exit_code(argv) -> int:
    """main's exit status with its output swallowed; other exceptions escape."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


class TestJsonFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(desc=_descriptor)
    def test_descriptors_never_raise(self, desc):
        text = json.dumps(desc)
        classify = _exit_code(["classify", "--family", text])
        analyze = _exit_code(["analyze", "--family", text, "--point", "r=1", "--point", "inf"])
        assert classify in (0, 1, 2) and analyze in (0, 1, 2)
        if "ktype" in desc or _unknown_nested_key(desc):
            assert (classify, analyze) == (1, 2)

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(candidate=_candidate)
    def test_candidates_never_raise(self, candidate):
        argv = ["bijection", "--R", "1", "--M", "1", "--grid", "0,1",
                "--candidate", json.dumps(candidate)]
        code = _exit_code(argv)
        assert code in (0, 1, 2)
        if any(_unknown_scalar_key(pair) for pair in candidate.values()):
            assert code == 2


# -- size-hostile inputs --------------------------------------------------------
#
# Digit runs on both sides of the 4,300-digit limit, lists of up to 10^4 items
# and nesting up to 5,000 deep, in every JSON field and every flag.  A run
# succeeds, or exits 2 with one error line, or (classify) exits 1 with a
# report whose detail is bounded.  Analysis stays at finite points: the motion
# fiber of a window family still lists every K-type of the window.

_RUN = st.builds(lambda digit, n: digit * n, st.sampled_from("179"),
                 st.one_of(st.integers(1, 5000), st.sampled_from([4300, 4301])))
_SIGNED = st.builds(str.__add__, st.sampled_from(["", "-"]), _RUN)
# a number or K-type text around a digit run, as JSON
_NUMBER = st.builds(lambda form, r: form.replace("@", r), st.sampled_from(
    ["@", '"@"', '"1/@"', '"@/7"', '{"re": 1, "im": @}', '{"re": "@"}']), _SIGNED)
# K-type set strings around a run of ones: "@1,@3,..." is the ray from 11...1
_KTYPE_TEXT = st.builds(lambda form, r: form.replace("@", r), st.sampled_from(
    ['"{@}"', '"-@..@"', '"-@..1"', '"@1,@3,..."', '"-@1,-@3,..."']),
    st.integers(1, 5000).map("1".__mul__))
_LIST = st.builds(lambda item, n: "[" + ",".join([item] * n) + "]",
                  st.sampled_from(["1", '"1/2"', "[]", "{}", '"2Z"', '{"re": 1}']),
                  st.integers(0, 10_000))
_NESTED = st.builds(lambda ends, depth: ends[0] * depth + "1" + ends[1] * depth,
                    st.sampled_from([("[", "]"), ('{"re": ', "}"), ('{"kind": ', "}")]),
                    st.integers(1, 5000))
_HOSTILE = st.one_of(_NUMBER, _KTYPE_TEXT, _LIST, _NESTED)

# @ marks the field that gets the hostile value
_FAMILY_FIELDS = ['{"m": @, "casimir": [-1, 0, 1]}', '{"m": 0, "casimir": @}',
                  '{"m": 0, "casimir": [1, @]}', '{"m": 0, "casimir": {"coeffs": @, "var": "r"}}',
                  '{"m": 0, "casimir": [8], "ktypes": @}',
                  '{"m": 0, "casimir": [8], "ktypes": {"kind": "window", "param": @}}']
_CANDIDATE_FIELDS = ['{"0": @, "1": [1, -1], "-1": [1, -1]}',
                     '{"0": [@, -1], "1": [1, -1], "-1": [1, -1]}',
                     '{"0": [1, -1], "1": [1, {"re": @}], "-1": [1, -1]}']

_FLAG_TOKEN = st.one_of(_SIGNED, st.builds("{}/{}".format, _SIGNED, _RUN),
                        st.builds("1/{}".format, _RUN), st.sampled_from(["0", "1", "x"]))
# a short token repeated up to 10^4 times, then one flag token
_FLAG_LIST = st.builds(lambda item, n, last: ",".join([item] * n + [last]),
                       st.sampled_from(["0", "1", "-3", "1/2", "x", ""]), st.integers(0, 10_000),
                       _FLAG_TOKEN)
# argv with a hostile flag value; --M and the table number read no valid huge value,
# which would only ask for that much work
_FLAG_ARGV = st.one_of(
    st.builds(lambda m: ["tables", "1", "--M=" + m],
              st.one_of(_SIGNED.map("-{}".format), _RUN.filter(lambda r: len(r) > 4300),
                        _RUN.map("{}x".format))),
    st.builds(lambda which: ["tables", which], _SIGNED),
    st.builds(lambda R: ["bijection", "--R=" + R, "--M", "0", "--grid", "0,1"], _FLAG_LIST),
    st.builds(lambda grid: ["bijection", "--R", "1", "--M", "0", "--grid=" + grid], _FLAG_LIST),
    st.builds(lambda which, grid: ["tables", which, "--M", "0", "--grid=" + grid],
              st.sampled_from("123"), _FLAG_LIST),
    st.builds(lambda point: ["analyze", "--family", '{"m": 0, "casimir": [-1, 0, 1]}',
                             "--point=" + point],
              st.builds(str.__add__, st.sampled_from(["", "r=", "R="]), _FLAG_TOKEN)),
)


def _bounded_run(argv) -> int:
    """main(argv)'s status, asserting a bounded error line (exit 2) or detail (exit 1)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert [line for line in lines if "error:" in line] == lines[-1:]
        assert len(lines[-1].encode()) <= 400 and len(err.getvalue().encode()) <= 1000
    elif code == 1 and argv[0] == "classify":
        assert len(json.loads(out.getvalue())["detail"]) <= 400
    return code


class TestSizeHostileFuzz:
    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(field=st.sampled_from(_FAMILY_FIELDS), value=_HOSTILE)
    def test_family_fields(self, field, value):
        text = field.replace("@", value)
        _bounded_run(["classify", "--family", text])
        _bounded_run(["analyze", "--family", text, "--point", "r=1"])

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(field=st.sampled_from(_CANDIDATE_FIELDS), value=_HOSTILE, key=_SIGNED,
           keys=st.integers(0, 10_000), which=st.integers(0, 2))
    def test_candidate_keys_and_entries(self, field, value, key, keys, which):
        text = [field.replace("@", value), '{"' + key + '": [1, -1]}',
                "{" + ",".join(f'"{i}": [1, -1]' for i in range(keys)) + "}"][which]
        _bounded_run(["bijection", "--R", "1", "--M", "1", "--grid", "0,1", "--candidate", text])

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(argv=_FLAG_ARGV)
    def test_flags(self, argv):
        _bounded_run(argv)

    def test_long_minimal_ktype_detail_is_bounded(self, capsys):
        # the row-mismatch detail used to name m and its pinned level whole: 12 KB
        desc = '{"m": ' + "7" * 4000 + ', "casimir": 0}'
        code, doc = run_json(capsys, "classify", "--family", desc)
        assert code == 1 and doc["error"] == "row-mismatch"
        assert doc["detail"] == "minimal K-type " + "7" * 285 + "..."
