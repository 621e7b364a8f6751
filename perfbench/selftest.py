"""Tests of the benchmark itself (not collected by the library's own test run).

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed as H  # noqa: E402
import oracles as O  # noqa: E402
import tracer as T  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402


def _light(tasks):
    """Drop the largest Casimir power's split tasks, which take most of a second each."""
    heavy = {f"fixed:{kind}:{W.PROJECTION_MAX_N}" for kind in ("change_basis", "hc_split")}
    return [t for t in tasks if t.key not in heavy]


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_other_seed_keeps_task_count_and_kinds(workload):
    first, second = W.build(workload, 1), W.build(workload, 2)
    assert Counter(t.kind for t in first) == Counter(t.kind for t in second)
    assert [t.key for t in first] != [t.key for t in second]
    assert len({t.key for t in first}) == len(first)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_every_task_has_a_recorded_digest(workload):
    digests = worker.load_digests(workload)
    assert all(t.key in digests for t in W.build(workload, 7))


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    tasks = _light(W.build(workload, 3))
    digests = worker.load_digests(workload)
    counts = []
    for _ in range(2):
        tracer = T.Tracer()
        tracer.install()
        try:
            _lat, failures, _off, _probes = worker.run_pass(tasks, digests, tracer)
        finally:
            tracer.uninstall()
        assert failures == []
        spans = {name: n for name, (_s, n) in tracer.self_times().items()}
        counts.append((dict(tracer.counts), spans))
    assert counts[0] == counts[1]
    assert sum(counts[0][0].values()) > 0


def _rank_mod_p(rows, p=(1 << 61) - 1):
    """Rank over Z/p of integer row vectors given as dicts; full rank mod p implies full rank over Q."""
    pivots = {}  # column -> reduced row with a 1 there
    rank = 0
    for row in rows:
        row = {k: int(v) % p for k, v in row.items() if int(v) % p}
        while row:
            col = min(row)
            if col not in pivots:
                inv = pow(row[col], p - 2, p)
                pivots[col] = {k: v * inv % p for k, v in row.items()}
                rank += 1
                break
            factor = row[col]
            for k, v in pivots[col].items():
                row[k] = (row.get(k, 0) - factor * v) % p
                if not row[k]:
                    del row[k]
    return rank


@pytest.mark.parametrize("deg", (6, 16))
def test_irrep_check_is_faithful_up_to_its_degree(deg):
    """On O.rep_dims(deg), the PBW monomials of degree <= deg have independent images.

    So an element of degree <= deg is fixed by its images there: the product
    checks (degree 6) and the Casimir-power checks (degree up to 16) cannot
    pass a wrong element of bounded degree.  A monomial Y^a X^c H^b maps
    entry (i, j) to i - j = a - c, so each such shift is its own block.
    """
    blocks = {}
    for a in range(deg + 1):
        for c in range(deg + 1 - a):
            for b in range(deg + 1 - a - c):
                image = {}
                for d in O.rep_dims(deg):
                    for (i, j), f in O.represent({(a, b, c): {0: O.gr(1)}}, d).items():
                        image[(d, i, j)] = f[0][0]
                blocks.setdefault(a - c, []).append(image)
    for rows in blocks.values():
        assert _rank_mod_p(rows) == len(rows)


def test_unreached_scalar_op_reports_zero():
    assert set(worker.op_timings(T.Tracer()).values()) == {0.0}


def test_tracer_restores_the_library():
    import sl2family
    from sl2family import cli, pbw

    before = (sl2family.hc_projection, pbw.normal_multiply, cli.render_json,
              sl2family.GaussianRational.__mul__)
    tracer = T.Tracer()
    tracer.install()
    assert pbw.normal_multiply is not before[1]
    tracer.uninstall()
    after = (sl2family.hc_projection, pbw.normal_multiply, cli.render_json,
             sl2family.GaussianRational.__mul__)
    assert after == before


def test_wrong_result_counts_as_an_error(monkeypatch):
    import sl2family
    from sl2family import duals

    real = duals.characterize_bijections

    def off_by_one(candidate, *args):
        res = real(candidate, *args)
        if res.matches is None:
            return res
        return duals.CharacterizationResult(res.matches + 1, None, res.detail)

    monkeypatch.setattr(sl2family, "characterize_bijections", off_by_one)
    result = worker.run("duals", 1, seconds=0, trace=0)
    realizable = W.DUALS_PER_CANDIDATE
    assert result["failed"] == realizable and result["attempted"] == len(W.build("duals", 1))
    assert all("matched" in error for _key, error in result["failures"])


def test_changed_bytes_count_as_an_error(monkeypatch):
    from sl2family import cli

    real = cli.render_json
    monkeypatch.setattr(cli, "render_json", lambda doc: real(doc).replace("\n", "\r\n"))
    tasks = W.build("fibers", 1)[:20]
    _lat, failures, _off, _probes = worker.run_pass(tasks, worker.load_digests("fibers"))
    assert len(failures) == len(tasks)
    assert all("digest" in error for _key, error in failures)


def test_raising_task_counts_as_an_error(monkeypatch):
    from sl2family import pbw

    def broken(*args):
        raise ArithmeticError("corrupted")

    tasks = [t for t in W.build("projection", 1) if t.kind == "product"]
    monkeypatch.setattr(pbw, "times_generator", broken)
    _lat, failures, _off, _probes = worker.run_pass(tasks, worker.load_digests("projection"))
    assert len(failures) == len(tasks)


def test_one_command_prints_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "center", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert any(line.split()[:1] == [metric["name"]] and line.endswith(" " + metric["unit"])
                   for line in lines), metric["name"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_latencies_are_scaled_by_the_probes_around_them():
    ref = H.REF_S
    assert H.scaled([1.0, 1.0], [ref, ref, ref]) == [1.0, 1.0]
    # a host at half speed doubles the probe and the task alike
    assert H.scaled([2.0, 3.0], [2 * ref, 2 * ref, 4 * ref]) == [1.0, 1.0]
