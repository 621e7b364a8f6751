"""The package's public surface (``from sl2family import *``), its import on
the standard library alone, and the private names no other module imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import sl2family

SRC = Path(__file__).resolve().parent.parent / "src"
# the modules whose private names no other module imports
OWNERS = ("pbw", "sheaf", "families", "fibers", "duals")

STAR_EXPORTS = {
    "CHART_FINITE", "CHART_INFINITY", "COMPACT", "CartanSection", "CharacterizationResult",
    "Decomposition", "DualParam", "Factor", "FamilySection",
    "FamilyValidationError", "FiberModule", "GR_ONE", "GR_ZERO", "GaussianRational",
    "InfChar", "KTypeSet", "LadderAction", "Laurent", "ModuleFamily", "NotCentralError",
    "Poly", "ProjectivePoint", "ReducibilityLocus", "SPLIT", "Sl2Basis", "UEAElement",
    "WallRecord", "__version__", "casimir", "casimir_section", "center_decompose",
    "center_membership", "change_basis", "characterize_bijections",
    "composition_factors", "dual_classes", "dual_ktypes", "eta", "eta_inverse",
    "evaluate_fiber", "factor_containing_m", "family_from_json", "gamma_family",
    "has_gaussian_sqrt", "hc_projection", "in_tilde_class",
    "infinitesimal_character", "intertwiner_exists", "is_reducible",
    "is_tempered", "jantzen_quotient_formula", "k_order", "ktypes_at", "ladder_action",
    "make_family", "normal_multiply", "params_equivalent", "pinned_level", "rational_sqrt",
    "reducibility_points", "scalar_to_json", "section_from_constant", "to_finite_chart",
    "to_infinity_chart", "verify_conjecture1", "vogan_level", "vogan_map", "wall_index",
}


def test_star_import_exports_the_public_names():
    namespace: dict = {}
    exec("from sl2family import *", namespace)
    namespace.pop("__builtins__")
    assert len(STAR_EXPORTS) == 68
    assert set(namespace) == STAR_EXPORTS
    assert len(sl2family.__all__) == len(STAR_EXPORTS)  # no name listed twice


def test_readme_quick_tour_prints_what_its_comments_say():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick tour", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("# ", 1)[1] for line in block.splitlines()
                if line.startswith("print(")]
    printed = []
    exec(block, {"print": lambda *args: printed.append(" ".join(map(str, args)))})
    assert len(expected) >= 4 and printed == expected


def test_imports_with_the_standard_library_alone_and_no_warning():
    # -S keeps site-packages off the path; -W error turns any warning into a failure
    proc = subprocess.run(
        [sys.executable, "-S", "-W", "error", "-c", "import sl2family; from sl2family import *"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert (proc.returncode, proc.stderr) == (0, "")


def test_no_module_imports_a_private_name_of_an_owner():
    sources = {(m, 1) for m in OWNERS} | {(f"sl2family.{m}", 0) for m in OWNERS}
    bad = [f"{path.name}:{node.lineno}: {alias.name}"
           for path in sorted((SRC / "sl2family").glob("*.py"))
           for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
           if isinstance(node, ast.ImportFrom) and (node.module, node.level) in sources
           for alias in node.names if alias.name.startswith("_")]
    assert bad == []
