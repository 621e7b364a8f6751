"""Benchmark of the sl2family library: one workload, one seed, one JSON result.

Run from the repository root:

    python3 perfbench/run.py --workload projection --seed 1 --seconds 26 --trace 0

Every measurement runs in a fresh child process, so this process never
imports the library:

* ``setup_s``: ``import sl2family`` timed inside fresh interpreters, half
  of them before the workload and half after it, median of all, each
  scaled to the reference host speed by probes in the same interpreter;
* the table check: ``python -m sl2family tables 1|2|3 --M 6`` must match
  ``tests/fixtures/table*_M6.json`` byte for byte (untimed);
* the workload itself, in ``worker.py``, which also reports ``peak_rss_mb``
  of its own process.

Human-readable lines name every metric with its unit; the last line of
standard output is the JSON result.  The exit status is 0 when a result was
produced (``correct`` says whether every output was right) and 1 when the
benchmark could not run.

Times are reported at a reference host speed: see ``hostspeed.py``.  The
human-readable lines also give the host's measured speed and the wall time
of the import.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostspeed import REF_S  # noqa: E402

ROOT = Path.cwd()
SETUP_RUNS = 8  # fresh imports before the workload, and as many after it
WORKER_TIMEOUT_S = 170
CHILD_TIMEOUT_S = 60
PROBES_AFTER_IMPORT = 9
# times the import, then probes the host's speed (hostspeed.py) in the same
# interpreter; fractions is imported by the library first, so the probe's
# own imports do not shorten the timed import
IMPORT_TIMER = (
    "import sys, time; t = time.perf_counter(); import sl2family; "
    "t = time.perf_counter() - t; "
    f"sys.path.insert(0, {str(HERE)!r}); import statistics, hostspeed; "
    f"p = statistics.median(hostspeed.probe() for _ in range({PROBES_AFTER_IMPORT})); "
    "print(t, t * hostspeed.REF_S / p)"
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _child(args, timeout):
    # a fixed hash seed gives every child the same dict and set layouts
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[:2]} did not finish in {timeout} s") from exc
    return proc


def time_imports(runs):
    """``import sl2family`` times (s) in ``runs`` fresh interpreters:
    [(wall time, time at the reference speed)]."""
    times = []
    for _ in range(runs):
        proc = _child(["-c", IMPORT_TIMER], CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError("cannot import sl2family: " + proc.stderr.decode(errors="replace"))
        wall, scaled = map(float, proc.stdout.split())
        times.append((wall, scaled))
    return times


def check_tables():
    """Failures among the three golden-table runs (each a fresh CLI process)."""
    failed = []
    for which in (1, 2, 3):
        proc = _child(["-m", "sl2family", "tables", str(which), "--M", "6"], CHILD_TIMEOUT_S)
        fixture = (ROOT / "tests" / "fixtures" / f"table{which}_M6.json").read_bytes()
        if proc.returncode != 0 or proc.stdout != fixture:
            failed.append(f"tables {which} differs from tests/fixtures/table{which}_M6.json")
    return failed


def run_worker(workload, seed, seconds, trace):
    args = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = _child(args, WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("worker failed: " + proc.stderr.decode(errors="replace"))
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def load_spec():
    """Metric name -> unit, for the end-to-end and for the per-layer metrics."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[group]} for group in ("end_to_end", "per_layer"))


def main(argv=None):
    parser = argparse.ArgumentParser(description="sl2family benchmark (one workload)")
    parser.add_argument("--workload", required=True,
                        choices=("projection", "center", "fibers", "duals"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    e2e_units, layer_units = load_spec()
    time_imports(1)  # fills the bytecode cache
    imports = time_imports(SETUP_RUNS)
    table_failures = check_tables()
    res = run_worker(args.workload, args.seed, args.seconds, args.trace)
    imports += time_imports(SETUP_RUNS)
    setup_s = statistics.median(scaled for _wall, scaled in imports)

    attempted = res["attempted"] + 3
    failed = res["failed"] + len(table_failures)
    e2e = dict(res["end_to_end"], setup_s=setup_s)
    print(f"workload {args.workload}, seed {args.seed}: {res['passes']} untraced passes of "
          f"{res['tasks_per_pass']} tasks; tail = latency at p{res['tail_percentile']:.2f}, "
          f"with {res['tail_beyond']} tasks per pass beyond it")
    for key, error in res["failures"]:
        print(f"FAILED {key}: {error}")
    for error in table_failures:
        print(f"FAILED {error}")
    print(f"error_rate {failed / attempted:.6g} fraction ({failed} of {attempted} tasks)")
    print(f"host probe median {res['probe_us']:.4g} us against {1e6 * REF_S:.4g} us at the "
          f"reference speed; import sl2family median {statistics.median(w for w, _ in imports):.4g} "
          "s of wall time")
    for name, unit in e2e_units.items():
        print(f"{name} {e2e[name]:.6g} {unit}")
    if args.trace:
        print(f"per-layer metrics from the traced passes (spans in {res['spans_file']}; "
              f"counts repeat across traced passes: {res['counts_repeat']})")
        for name, unit in layer_units.items():
            print(f"{name} {res['per_layer'][name]:.6g} {unit}")
        metrics = {n: {"value": res["per_layer"][n], "unit": u} for n, u in layer_units.items()}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in e2e_units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        sys.exit(1)
