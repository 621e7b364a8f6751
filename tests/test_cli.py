"""Command-line interface: table generation, analysis pipelines,
verification suites, exit codes, and deterministic rendering."""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sl2family.cli import cmd_analyze, cmd_classify, main, render_json
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


class TestTableFixtures:
    @pytest.mark.parametrize("which", ["1", "2", "3"])
    def test_byte_identical_to_committed_fixture(self, capsys, which):
        code, out = run(capsys, "tables", which, "--M", "6")
        assert code == 0
        expected = (FIXTURES / f"table{which}_M6.json").read_text(encoding="utf-8")
        assert out == expected

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
        with pytest.raises(SystemExit) as exc:
            main(["tables", which, "--M", "-3"])
        assert exc.value.code == 2
        assert "M must be >= 0" in capsys.readouterr().err


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
            assert render_json(doc) == render_json(golden["outputs"][idx]), desc


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

    @pytest.mark.parametrize("param", [2.0, True])
    def test_non_integer_ktypes_param_is_a_bad_field(self, capsys, param):
        desc = json.dumps(
            {"m": 0, "casimir": [8], "ktypes": {"kind": "window", "param": param}}
        )
        code, doc = run_json(capsys, "classify", "--family", desc)
        assert code == 1
        assert doc["error"] == "descriptor-bad-field"
        assert doc["detail"] == 'cannot read "ktypes": window needs an integer parameter'


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

    def test_requires_points(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--family", '{"m": 0, "casimir": [-1, 0, 1]}'])
        assert exc.value.code == 2

    def test_invalid_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--family", '{"m": 2, "casimir": [5]}', "--point", "r=1"])
        assert exc.value.code == 2


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


    def test_float_in_candidate_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bijection", "--R", "1", "--M", "1", "--grid", "0,1",
                  "--candidate", '{"0": [0.5, -1], "1": [1, -1], "-1": [1, -1]}'])
        assert exc.value.code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1] == ("sl2family: error: candidate entry for m=0: "
                           "cannot read scalar from 0.5 (floats are not exact)")


class TestVerify:
    @pytest.mark.parametrize("suite", ["conjecture2", "bijection", "appendix", "regularity"])
    def test_quick_profile_suites(self, capsys, monkeypatch, suite):
        monkeypatch.setenv("SL2FAMILY_PROFILE", "quick")
        code, doc = run_json(capsys, "verify", suite)
        assert code == 0
        assert doc["pass"] and doc["profile"] == "quick"
        assert doc["suite"] == suite
        assert doc["counts"]["fail"] == 0
        assert doc["counts"]["pass"] == len(doc["entries"])
        assert all(e["pass"] for e in doc["entries"])

    def test_default_profile_conjecture2(self, capsys):
        code, doc = run_json(capsys, "verify", "conjecture2")
        assert code == 0
        assert doc["profile"] == "default"
        assert doc["counts"] == {"fail": 0, "pass": 243}

    def test_size_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SL2FAMILY_PROFILE", "quick")
        code, doc = run_json(capsys, "verify", "appendix", "--M", "1")
        assert code == 0
        quick_code, quick_doc = run_json(capsys, "verify", "appendix")
        assert quick_code == 0
        assert doc["counts"]["pass"] < quick_doc["counts"]["pass"]

    @pytest.mark.parametrize("suite,M", [("appendix", "0"), ("conjecture2", "-1")])
    def test_suite_with_no_checks_fails(self, capsys, suite, M):
        code, doc = run_json(capsys, "verify", suite, "--M", M)
        assert code == 1
        assert doc["entries"] == [] and doc["pass"] is False

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "balance"])
        assert exc.value.code == 2

    def test_unknown_profile_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("SL2FAMILY_PROFILE", "bogus")
        with pytest.raises(SystemExit) as exc:
            main(["verify", "conjecture2"])
        assert exc.value.code == 2


class TestTextFormat:
    def test_text_rendering(self, capsys):
        code, out = run(capsys, "tables", "3", "--M", "1", "--format", "text")
        assert code == 0
        assert out.startswith("M: 1\n")
        assert "ktypes: 2Z+1" in out
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_text_and_json_agree_on_pass(self, capsys, monkeypatch):
        monkeypatch.setenv("SL2FAMILY_PROFILE", "quick")
        code, out = run(capsys, "verify", "regularity", "--format", "text")
        assert code == 0
        assert "pass: true" in out


class TestEntryPoint:
    def test_module_execution(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sl2family", "tables", "1", "--M", "0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert len(doc["rows"]) == 2

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sl2family", "tables", "9"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2


# -- fuzzing the JSON inputs --------------------------------------------------

_json_leaf = st.one_of(
    st.none(), st.booleans(), st.integers(-20, 20), st.floats(allow_nan=False, width=16),
    st.sampled_from(["1/2", "-3", "0", "x", "1/0", "", "2Z", "-2..2", "3,5,...", "{2}"]),
)
_json_value = st.recursive(
    _json_leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["re", "im", "var", "coeffs", "kind", "param"]),
                        inner, max_size=3),
    ),
    max_leaves=8,
)
_descriptor = st.fixed_dictionaries(
    {},
    optional={
        "m": st.one_of(st.integers(-4, 4), _json_leaf),
        "casimir": _json_value,
        "ktypes": _json_value,
    },
)
_candidate = st.dictionaries(
    st.sampled_from(["0", "1", "-1", "2", "x"]),
    st.one_of(st.lists(_json_value, min_size=2, max_size=2), _json_value),
    max_size=4,
)


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
        assert _exit_code(["classify", "--family", text]) in (0, 1, 2)
        assert _exit_code(["analyze", "--family", text, "--point", "r=1",
                           "--point", "inf"]) in (0, 1, 2)

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(candidate=_candidate)
    def test_candidates_never_raise(self, candidate):
        argv = ["bijection", "--R", "1", "--M", "1", "--grid", "0,1",
                "--candidate", json.dumps(candidate)]
        assert _exit_code(argv) in (0, 1, 2)
