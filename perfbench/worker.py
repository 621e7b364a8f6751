"""Run one workload in this process and print its measurements as one JSON line.

The loop is closed and single-threaded: each task starts when the previous
one has returned, as a library caller would issue them.  A pass runs the
workload's whole task list; passes repeat while the next one, as long as
the last, still fits in ``--seconds`` (at least one pass runs).
Every task latency is scaled to the reference host speed by the probes of
``hostspeed.py`` around it.  Throughput, p50 and the tail are taken over
the scaled latencies of all untraced passes together.

Untraced mode reports the end-to-end metrics.  Traced mode alternates
untraced and traced passes, at least two of each: the untraced ones give
the reference time for the tracing overhead (both sides scaled), the
traced ones the per-layer self times (wall time, not scaled), and the first traced pass the counts, which must
repeat exactly in every later one.
Started by ``run.py``; it can also be run directly from the repository root:

    PYTHONPATH=src python3 perfbench/worker.py --workload center --seed 1 --seconds 5 --trace 0
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed as H  # noqa: E402
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

TAIL_BEYOND = 10  # tasks per pass that lie beyond the tail percentile

SPAN_METRICS = {
    "pbw.normal_multiply": ("calls", "self_s"),
    "pbw.change_basis": ("calls", "self_s"),
    "pbw.hc_projection": ("self_s",),
    "sheaf.section_mul": ("calls", "self_s"),
    "sheaf.center_decompose": ("calls", "self_s"),
    "sheaf.gamma_family": ("self_s",),
    "sheaf.chart_transport": ("self_s",),
    "families.make_family": ("calls", "self_s"),
    "families.ladder": ("calls", "self_s"),
    "families.in_tilde_class": ("self_s",),
    "families.infinitesimal_character": ("self_s",),
    "fibers.evaluate_fiber": ("calls", "self_s"),
    "fibers.composition_factors": ("self_s",),
    "fibers.reducibility_points": ("self_s",),
    "fibers.jantzen": ("self_s",),
    "duals.verify_conjecture1": ("calls", "self_s"),
    "duals.characterize": ("self_s",),
    "cli.cmd": ("self_s",),
    "cli.render_json": ("self_s",),
}
COUNT_METRICS = (
    "scalars.gr_mul.calls", "scalars.gr_add.calls", "scalars.gr_div.calls",
    "scalars.gr_eq.calls", "scalars.poly_eval.calls", "pbw.times_generator.calls",
    "pbw.terms_out", "sheaf.laurent_mul.calls", "fibers.edges_tabulated",
    "duals.params_equivalent.calls", "duals.eta.calls", "duals.checks", "cli.bytes_out",
)
# per-op timing metric -> the counter whose sampled operands it replays
OP_TIMINGS = {
    "scalars.mul_ns": "scalars.gr_mul.calls",
    "scalars.add_ns": "scalars.gr_add.calls",
    "scalars.eq_ns": "scalars.gr_eq.calls",
    "scalars.poly_eval_ns": "scalars.poly_eval.calls",
}
OPS_PER_TIMING = 4000


def load_digests(workload: str) -> dict:
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        return json.load(fh)[workload]


def run_pass(tasks, digests, tracer=None, verdicts=None):
    """One closed-loop pass: (latencies at the reference speed in s,
    [(key, error)], off-table tally, host probes in s).

    A host probe runs before the first task and after every task, untimed.
    """
    latencies = []
    failures = []
    off_table = [0, 0]  # [descriptors, rejected with the expected code]
    gc.collect()
    probes = [H.probe()]
    for i, task in enumerate(tasks):
        error = None
        t0 = time.perf_counter()
        try:
            text = task.run() if tracer is None else tracer.run_task(i, task.kind, task.run)
        except Exception as exc:  # a raising task is a failed request, not a crashed run
            text, error = None, f"raised {exc!r}"
        latencies.append(time.perf_counter() - t0)
        probes.append(H.probe())
        if text is not None:
            error = check(task, text, digests, verdicts)
        if task.off_table_code is not None:
            off_table[0] += 1
            off_table[1] += error is None
        if error is not None:
            failures.append((task.key, error))
    return H.scaled(latencies, probes), failures, off_table, probes


def check(task, text, digests, verdicts=None):
    """The oracle's verdict, then the byte-for-byte digest recorded at the seed.

    Identical bytes get an identical verdict, so a run checks each distinct
    output once (``verdicts`` maps (key, sha256) to the verdict).
    """
    sha = hashlib.sha256(text.encode()).hexdigest()
    if verdicts is not None and (task.key, sha) in verdicts:
        return verdicts[(task.key, sha)]
    try:
        error = task.check(json.loads(text))
    except Exception as exc:  # a malformed result is a wrong result
        error = f"check raised {exc!r}"
    if error is None and sha != digests.get(task.key):
        error = "rendered output differs from the recorded digest"
    if verdicts is not None:
        verdicts[(task.key, sha)] = error
    return error


def end_to_end(passes):
    """Rate and latency percentiles from the latencies at the reference speed.

    The rate and the median pool every task of every untraced pass.  The
    tail is each pass's latency with ``TAIL_BEYOND`` tasks beyond it, median
    over passes: in the pooled latencies the same rank would be the slowest
    run of one task, so one slow run of it would set the figure.
    """
    pooled = sorted(t for latencies in passes for t in latencies)
    return {
        "tasks_per_s": len(pooled) / sum(pooled),
        "task_p50_ms": 1e3 * statistics.median(pooled),
        "task_tail_ms": 1e3 * statistics.median(
            sorted(latencies)[-1 - TAIL_BEYOND] for latencies in passes),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_timings(tracer):
    """ns per public scalar op, replaying operands the workload produced.

    An op that the workload never reached (no Poly.eval outside the fibers
    workload, say) reports 0, like every other layer a workload does not reach.
    """
    out = {}
    for metric, counter in OP_TIMINGS.items():
        sample = list(tracer.samples.get(counter, ()))
        if not sample:
            out[metric] = 0.0
            continue
        reps = max(1, OPS_PER_TIMING // len(sample))
        runs = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(reps):
                for op, a, b in sample:
                    op(a, b)
            runs.append((time.perf_counter() - t0) / (reps * len(sample)))
        out[metric] = 1e9 * statistics.median(runs)
    return out


def layer_metrics(counts, self_s, overhead, ops, off_table):
    out = {}
    for name, kinds in SPAN_METRICS.items():
        if "calls" in kinds:
            out[f"{name}.calls"] = counts.get(f"span:{name}", 0)
        if "self_s" in kinds:
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in COUNT_METRICS:
        out[name] = counts.get(name, 0)
    out.update(ops)
    descriptors, rejected = off_table
    out["families.rejected_ratio"] = rejected / descriptors if descriptors else 0.0
    out["trace.overhead_ratio"] = overhead
    return out


def run(workload, seed, seconds, trace):
    tasks = W.build(workload, seed)
    digests = load_digests(workload)
    attempted = failed = 0
    failures = []
    untraced, traced_walls, traced_self, first_counts = [], [], [], None
    host_probes = []
    rss = None
    off_table = (0, 0)
    counts_repeat = True
    verdicts = {}
    tracer = T.Tracer() if trace else None
    start = round_start = time.perf_counter()
    while True:
        latencies, fails, off_table, probes = run_pass(tasks, digests, verdicts=verdicts)
        host_probes.extend(probes)
        attempted += len(tasks)
        failed += len(fails)
        failures.extend(fails)
        untraced.append(latencies)
        if rss is None:
            rss = peak_rss_mb()
        if trace:
            tracer.reset()
            tracer.install()
            try:
                latencies, fails, _, _ = run_pass(tasks, digests, tracer, verdicts)
            finally:
                tracer.uninstall()
            attempted += len(tasks)
            failed += len(fails)
            failures.extend(fails)
            traced_walls.append(sum(latencies))
            times = tracer.self_times()
            traced_self.append({name: s for name, (s, _n) in times.items()})
            counts = dict(tracer.counts)
            counts.update({f"span:{name}": n for name, (_s, n) in times.items()})
            if first_counts is None:
                first_counts = counts
            counts_repeat = counts_repeat and counts == first_counts
        # Run whole rounds only while the next one, as long as the last, fits in
        # --seconds; a traced run makes two, so that its counts can be compared.
        now = time.perf_counter()
        if len(untraced) >= 1 + trace and (now - start) + (now - round_start) > seconds:
            break
        round_start = now

    result = {
        "workload": workload,
        "seed": seed,
        "passes": len(untraced),
        "tasks_per_pass": len(tasks),
        "tail_percentile": 100.0 * (len(tasks) - TAIL_BEYOND) / len(tasks),
        "tail_beyond": TAIL_BEYOND,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:10],
        "end_to_end": dict(end_to_end(untraced), peak_rss_mb=rss),
        "probe_us": 1e6 * statistics.median(host_probes),
    }
    if trace:
        names = {name for d in traced_self for name in d}
        self_s = {n: statistics.median(d.get(n, 0.0) for d in traced_self) for n in names}
        overhead = statistics.median(traced_walls) / statistics.median(sum(l) for l in untraced)
        ops = op_timings(tracer)
        result["per_layer"] = layer_metrics(first_counts, self_s, overhead, ops, off_table)
        result["counts_repeat"] = counts_repeat
        result["spans_file"] = write_spans(tracer, workload, seed)
    return result


def write_spans(tracer, workload, seed):
    """Write the last traced pass's spans as JSON lines:
    [name, start_s, end_s, parent span index (-1 for a task), task index]."""
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload}-{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for record in tracer.spans:
            fh.write(json.dumps(record) + "\n")
    return str(path.relative_to(HERE.parent))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
