"""The CI workflow parses as YAML, and every golden file it compares with exists."""

import re
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def cmp_fixtures(run: str):
    """Each tests/fixtures path on a cmp line of a run script, with ${w} taken
    over 1, 2 and 3 (the table loop); a cmp line that names none is a failure."""
    for line in run.splitlines():
        if re.search(r"\bcmp\b", line):
            paths = re.findall(r"tests/fixtures/[^\s\"']+", line)
            assert paths, line
            for path in paths:
                yield from dict.fromkeys(path.replace("${w}", w) for w in "123")


def test_workflow_parses_and_its_golden_files_exist():
    doc = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))
    steps = [step for job in doc["jobs"].values() for step in job["steps"]]
    fixtures = [path for step in steps for path in cmp_fixtures(step.get("run", ""))]
    assert len(fixtures) == 13
    assert [p for p in fixtures if "$" in p or not (ROOT / p).is_file()] == []
    assert "tests/fixtures/analyze_m1_nonreal_grid.json" in fixtures
    assert any("pyyaml" in step.get("run", "").split() for step in steps)
