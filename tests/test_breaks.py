"""Every check kind the verify suites report, but the constant
equivalence-convention, has one break under which only that kind fails."""

import json
import types

import pytest

from sl2family import cli, duals
from sl2family.cli import cmd_verify, main
from sl2family.fibers import DualParam
from sl2family.scalars import GaussianRational as GR
from sl2family.sheaf import ProjectivePoint

# verify_conjecture1's kinds, on a grid with the level 0 and on one without it
BIJECTION = [["bijection", "--R", "3/2", "--M", "3", "--grid=" + grid]
             for grid in ("0,-1,1/2,3", "-1,1/2,3")]

# (check kind, the argvs that report it, the module and the name there that
# the check reads at call time, the broken stand-in built from the original)
BREAKS = [
    # every motion class listed twice, so each image collides with its copy
    ("injectivity", BIJECTION, duals, "dual_classes",
     lambda orig: lambda R, *args: orig(R, *args) * (2 if R == 0 else 1)),
    # every group class pulled back to one motion class of another K-type
    ("surjectivity", BIJECTION, duals, "eta_inverse",
     lambda orig: lambda q: DualParam.motion(GR(0), 7)),
    # minimal-K-type representatives taken at 2R
    ("vogan-extension", BIJECTION, duals, "_vogan", lambda orig: lambda m, R: orig(m, 2 * R)),
    # every motion parameter tempered, no group parameter
    ("tempered", BIJECTION, duals, "is_tempered", lambda orig: lambda p: p.flavor == "motion"),
    # group parameters with different m never equivalent
    ("well-defined", BIJECTION, duals, "params_equivalent",
     lambda orig: lambda a, b: orig(a, b) and (a.flavor == "motion" or a.m == b.m)),
    # the expected scale 2/R^2 in place of 1/R^2
    ("affine-form", BIJECTION, duals, "GR_ONE", lambda orig: GR(2)),
    # every k-order one too low: Casimir^n no longer has order 2n
    ("order-equality", [["verify", "appendix"]], cli, "k_order",
     lambda orig: lambda u: orig(u) - 1),
    # the projection of u^2 in place of u: the split image has order 4n
    ("order-inequality", [["verify", "appendix"]], cli, "hc_projection",
     lambda orig: lambda u, cartan: orig(u * u, cartan)),
    # the same step in the regularity suite: the Casimir projects to (h^2 - 1)^2
    ("cartan-projection", [["verify", "regularity"]], cli, "hc_projection",
     lambda orig: lambda u, cartan: orig(u * u, cartan)),
    # every membership verdict inverted
    ("center-membership", [["verify", "regularity"]], cli, "center_membership",
     lambda orig: lambda *args: not orig(*args)),
    # regularity judged at r = 0, where R^2 has a pole, in place of infinity
    ("regular-at-infinity", [["verify", "regularity"]], cli, "ProjectivePoint",
     lambda orig: types.SimpleNamespace(infinity=lambda: orig.from_r(0))),
    # the closed form read at the motion fiber whatever the point
    ("jantzen-quotient", [["verify", "conjecture2"]], cli, "jantzen_quotient_formula",
     lambda orig: lambda fam, p: orig(fam, ProjectivePoint.infinity())),
]


def failing_kinds(capsys, argv) -> "tuple[int, set]":
    """main's exit status on argv, and the kinds of the entries that fail."""
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    entries = doc.get("entries") or [e for rep in doc["reports"] for e in rep["entries"]]
    assert doc["pass"] == (code == 0)
    return code, {e["check"] for e in entries if not e["pass"]}


@pytest.mark.parametrize("kind,argv,module,name,broken",
                         [(kind, argv, *rest) for kind, argvs, *rest in BREAKS for argv in argvs],
                         ids=[f"{kind}-{argv[-1].removeprefix('--grid=')}"
                              for kind, argvs, *_ in BREAKS for argv in argvs])
def test_only_the_broken_kind_fails(monkeypatch, capsys, kind, argv, module, name, broken):
    assert failing_kinds(capsys, argv) == (0, set())
    monkeypatch.setattr(module, name, broken(getattr(module, name)))
    assert failing_kinds(capsys, argv) == (1, {kind})


def test_every_kind_but_the_convention_has_one_break():
    kinds = {e["check"] for suite in cli._SUITES for e in cmd_verify(suite)[0]["entries"]}
    broken = [b[0] for b in BREAKS]
    assert len(broken) == len(set(broken)) == 12
    assert kinds - {"equivalence-convention"} == set(broken)
