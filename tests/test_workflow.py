"""The CI workflow runs the ROADMAP's tier-1 command and holds no check of
its own: every check lives in the tests, where tier-1 runs it."""

import re
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def test_workflow_runs_tier1_and_no_check_of_its_own():
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`",
                      (ROOT / "ROADMAP.md").read_text(encoding="utf-8")).group(1)
    doc = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    steps = [step.get("uses") or step["run"] for job in doc["jobs"].values()
             for step in job["steps"]]
    # checkout, setup-python, the source line count, the install, tier-1 and
    # perfbench/selftest.py
    assert len(steps) == 6 and tier1 in steps
    assert not [s for s in steps if re.search(r"python -m sl2family|\bcmp\b|<<|\|", s)]
