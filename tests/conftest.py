"""Put the in-tree package on PYTHONPATH for the CLI subprocesses the tests
start, so a bare ``python -m pytest`` needs no install and no environment."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *_paths])
