"""python -m sl2family as a subprocess.  Each file in tests/fixtures but
classify_grid.json (a grid of 4,095 classify calls, which tests/test_cli.py
compares) has one command that writes it byte for byte, under two hash seeds,
through --out and to stdout.  Other documents are held to json.dumps of
their own text, and the largest appendix run to a time bound."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"
LEVEL_GRID = "--grid=0,1,-1,-4,3,8,1/2,0,15"  # level 0 twice, walls 0, -1, 3, 8, 15 and off-wall levels

# (golden file, sl2family argv), each file once; the comment says when or why
# the file was recorded
GOLDEN = [
    # the rows of tables 1-3, recorded with the first code
    ("table1_M6.json", ["tables", "1", "--M", "6"]),
    ("table2_M6.json", ["tables", "2", "--M", "6"]),
    ("table3_M6.json", ["tables", "3", "--M", "6"]),
    # recorded before tables 1-3 shared one row builder
    ("table1_grid_M6.json", ["tables", "1", "--M", "6", LEVEL_GRID]),
    ("table2_grid_M6.json", ["tables", "2", "--M", "6", LEVEL_GRID]),
    ("table3_grid_M6.json", ["tables", "3", "--M", "6", LEVEL_GRID]),
    # recorded before the boundary level, reducibility_points' settings and the
    # chart names each got one home: irrational walls and the motion fiber
    ("analyze_m0_r2_grid.json", ["analyze", "--family", '{"m": 0, "casimir": [0, 0, 1]}',
                                 "--grid", "r=0,r=2,r=-1/2,inf"]),
    # points in the forms GaussianRational writes, in both charts
    ("analyze_m1_nonreal_grid.json", ["analyze", "--family", '{"m": 1, "casimir": [-1, 0, 2]}',
                                      "--grid", "r=1+i,R=-1/2+i,inf"]),
    # c(r) = 15 on the window -3..3, at a group point, at the origin, and at
    # the motion fiber, where each K-type is its own factor
    ("analyze_m1_window3_grid.json", ["analyze", "--family", '{"m": 1, "casimir": 15}',
                                      "--grid", "r=1,r=0,inf"]),
    # constant c(r) on a lowest-weight ray: the motion fiber lists a window of
    # its infinitely many one-K-type factors
    ("analyze_m3_ray_grid.json", ["analyze", "--family", '{"m": 3, "casimir": 3}',
                                  "--grid", "r=2,inf"]),
    # recorded before each class's image was built once per R
    ("bijection_M12.json", ["bijection", "--R", "1,-3/2,2", "--M", "12",
                            "--grid", "0,-1,1,1/2,-9/4,3"]),
    # recorded before DualParam hashed without a Fraction and before the
    # vogan-extension check reused the images of the level-0 classes
    ("bijection_M32_frac.json", ["bijection", "--R", "3/2,-5/4", "--M", "32",
                                 "--grid", "0,-1,1/3,-9/4,7/2,5"]),
    # recorded before DualParam set each field once and verify_conjecture1
    # wrote each string once; with 0 off the grid the vogan-extension entries
    # of |m| <= 1 build and write their own images
    ("bijection_no0_negR.json", ["bijection", "--R=-2,5/3", "--M", "40",
                                 "--grid=-1,1/3,-9/4,7/2,5"]),
    # recorded from the library call cmd_bijection([2], 6, [0, -1, 1+i, -9/4]),
    # before the command line read Q(i) levels
    ("bijection_nonreal_grid.json", ["bijection", "--R", "2", "--M", "6",
                                     "--grid", "0,-1,1+i,-9/4"]),
    # the 212 checks on the default grid of four level cells, which CI had
    # run for their exit status alone
    ("verify_bijection_default.json", ["verify", "bijection"]),
    # recorded before change_basis ran on Gaussian-integer term maps
    ("appendix_M12.json", ["verify", "appendix", "--M", "12"]),
    # recorded before normal_multiply and change_basis's sum ran on Gaussian
    # integers, and before hc_projection read a relabelled central element
    ("appendix_M16.json", ["verify", "appendix", "--M", "16"]),
    # recorded before weight-zero elements were multiplied in closed form and
    # k_order read the leading symbol
    ("appendix_M24.json", ["verify", "appendix", "--M", "24"]),
    # recorded before section products and center_decompose ran on Gaussian integers
    ("regularity_M24.json", ["verify", "regularity", "--M", "24"]),
    # Casimir-section powers up to degree 80, recorded before centrality was
    # read off the weight-zero recurrence
    ("regularity_M40.json", ["verify", "regularity", "--M", "40"]),
    # recorded before the boundary level and the Q(i) coercion each got one home
    ("conjecture2_default.json", ["verify", "conjecture2"]),
]


# the documents no golden file holds: analyze --point, classify, and
# bijection's characterization key
JSON_DUMPS = [
    ["analyze", "--family", '{"m": 0, "casimir": [-1, 0, 1]}', "--point", "inf"],
    ["classify", "--family", '{"m": 0, "casimir": [-1, 0, 1]}'],
    ["bijection", "--candidate", '{"0":[1,-1],"1":[1,-1],"-1":[1,-1]}'],
]


def entry_point(argv, seed="0", timeout=None) -> subprocess.CompletedProcess:
    """python -m sl2family argv under PYTHONHASHSEED=seed, its output captured."""
    return subprocess.run([sys.executable, "-m", "sl2family", *argv], capture_output=True,
                          env={**os.environ, "PYTHONHASHSEED": seed}, timeout=timeout)


def is_json_dumps(text: str) -> bool:
    """Whether text is exactly json.dumps of its own document, plus a newline."""
    return text == json.dumps(json.loads(text), sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def test_every_golden_file_has_one_row():
    files = sorted(p.name for p in FIXTURES.iterdir() if p.name != "classify_grid.json")
    assert sorted(name for name, _ in GOLDEN) == files


# a hash seed could reorder the sets and dicts of Q(i) values behind a report
@pytest.mark.parametrize("seed,through_out", [("0", True), ("1", False)],
                         ids=["seed0-out", "seed1-stdout"])
@pytest.mark.parametrize("name,argv", GOLDEN, ids=[name for name, _ in GOLDEN])
def test_entry_point_writes_the_golden_file(tmp_path, name, argv, seed, through_out):
    golden = (FIXTURES / name).read_bytes()
    assert is_json_dumps(golden.decode("ascii"))
    out = tmp_path / name
    proc = entry_point([*argv, *(["--out", str(out)] if through_out else [])], seed)
    assert (proc.returncode, proc.stderr) == (0, b"")
    if through_out:
        assert proc.stdout == b""
    assert (out.read_bytes() if through_out else proc.stdout) == golden


@pytest.mark.parametrize("argv", JSON_DUMPS, ids=[argv[0] for argv in JSON_DUMPS])
def test_output_is_json_dumps_of_its_document(argv):
    proc = entry_point(argv)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert is_json_dumps(proc.stdout.decode("ascii"))


def test_casimir_48_through_both_cartans_within_two_minutes():
    assert entry_point(["verify", "appendix", "--M", "48"], timeout=120).returncode == 0
