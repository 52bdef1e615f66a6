"""Tests of the benchmark itself, on tiny job lists.

    python3 -m pytest bench -q
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import pytest

import child
from refclock import NOMINAL_S, RefClock

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

child.import_jfkernel()

import jfkernel.construct as construct  # noqa: E402
import jfkernel.verify as verify  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _spec(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join("bench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _check_printed(proc, expected):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and unit in line.split() for line in lines[:-1]), name
    return result


@pytest.mark.parametrize("workload", ["verify-all", "kernel-deep", "weil-deep"])
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--tiny")
    result = _check_printed(proc, _spec("end_to_end"))
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_layer_metric_is_printed_with_its_unit():
    proc = _bench("--workload", "kernel-deep", "--seed", "3", "--seconds", "1", "--trace", "1", "--tiny")
    result = _check_printed(proc, _spec("per_layer"))
    assert result["metrics"]["series.mul.calls"]["value"] > 0


def test_a_wrong_result_fails_its_exact_check(monkeypatch):
    real = construct.xi_hat
    monkeypatch.setattr(construct, "xi_hat", lambda order: real(order) * 3)
    out = child.run_repeat("kernel-deep", 1, tiny=True)
    assert len(out["failed"]) == 1
    assert "eta^6 vs -2 xi_hat" in out["errors"][0]


def test_a_changed_output_fails_the_digest_gate():
    clean = child.run_repeat("weil-deep", 2, tiny=True)
    assert clean["failed"] == []
    n = child.DIGEST_HEX
    other = "0" * n if clean["digests"][n:2 * n] != "0" * n else "1" * n
    recorded = clean["digests"][:n] + other + clean["digests"][2 * n:]
    out = child.run_repeat("weil-deep", 2, tiny=True, recorded=recorded)
    assert out["failed"] == [1]
    assert "digest differs" in out["errors"][0]


def test_reference_clock_samples_during_jobs_and_leaves_itself_out():
    def spin():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        return []

    clock = RefClock(interval=0.02)
    results, wall, ref_wall = workloads.run_jobs([("spin", spin)], clock=clock)
    assert len(clock.durations) >= 10
    # the job spun for 300 ms of wall time, of which the samples took about 20 ms
    assert 200 < results[0].ms < 295
    # scaled by the loop timed during the job, at nominal speed it is the wall time
    scale = NOMINAL_S / statistics.fmean(clock.durations)
    assert ref_wall == pytest.approx(wall * scale, rel=0.2)


def _traced(tmp_path, name):
    path = tmp_path / name
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), "--workload", "kernel-deep",
           "--seed", "5", "--tiny", "--trace-out", str(path)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), path


def test_traced_counts_repeat_exactly_and_self_times_add_up(tmp_path):
    a, path = _traced(tmp_path, "a.jsonl")
    b, _ = _traced(tmp_path, "b.jsonl")

    def counts_of(run):  # counts and the ratios of counts; trace.* are timings
        return {k: v for k, (v, unit) in run["layers"].items()
                if unit in ("count", "ratio") and not k.startswith("trace.")}

    counts = counts_of(a)
    assert counts == counts_of(b)
    assert counts["cyclotomic.mul.calls"] > 0 and counts["jacobi.mul.calls"] > 0
    assert counts["weil.matmul.calls"] == 0  # kernel-deep never touches weil
    assert 0.97 < a["layers"]["trace.accounted_share"][0] < 1.03

    with open(path) as fh:
        head = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    assert head["span_fields"] == ["name", "start", "end", "parent", "job"]
    for nid, t0, t1, parent, job in spans:
        assert t0 <= t1 and job >= 0
        if parent >= 0:
            p = spans[parent]
            assert p[1] <= t0 and t1 <= p[2] and p[4] == job


def test_tracer_rebinds_every_holder_and_restores_them():
    original = construct.lambda2_inv
    tracer = Tracer().install()
    try:
        assert construct.lambda2_inv is not original
        assert verify.lambda2_inv is construct.lambda2_inv
    finally:
        tracer.uninstall()
    assert construct.lambda2_inv is original and verify.lambda2_inv is original


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "kernel-deep", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
