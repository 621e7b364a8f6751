"""Record the SHA-256 of every pool task's rendered output into digests.json.

Run from the repository root, once, on the commit whose outputs are the
reference, optionally naming the workloads to re-record:

    PYTHONPATH=src python3 perfbench/record_digests.py [WORKLOAD ...]

Every task must pass its oracle first; a task that fails is reported and
nothing is written.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402


def main(argv) -> int:
    path = HERE / "digests.json"
    digests = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    bad = 0
    for workload in argv or W.WORKLOADS:
        tasks = W.build(workload, None)
        digests[workload] = {}
        for task in tasks:
            text = task.run()
            error = task.check(json.loads(text))
            if error is not None:
                print(f"{workload} {task.key}: {error}", file=sys.stderr)
                bad += 1
            digests[workload][task.key] = hashlib.sha256(text.encode()).hexdigest()
        print(f"{workload}: {len(tasks)} tasks", file=sys.stderr)
    if bad:
        return 1
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
