"""The CI workflow parses as YAML and installs PyYAML, which this test reads
it with."""

from pathlib import Path

import yaml

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def test_workflow_parses_and_installs_pyyaml():
    doc = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    steps = [step for job in doc["jobs"].values() for step in job["steps"]]
    assert any("pyyaml" in step.get("run", "").split() for step in steps)
