"""The jfkernel benchmark.

    python3 bench/run.py --workload verify-all --seed 7 --seconds 30 --trace 0

Run from the root of a checkout; jfkernel is imported from its ``src/``.
Every repeat of the workload's job list runs in a fresh interpreter, one at
a time, because every ``jfkernel`` command starts cold.  Repeats continue
until ``--seconds`` is used up, in whole cycles of ``child_seeds``.

``--trace 0`` prints the end-to-end metrics: median time of the job list,
median and 90th percentile job latency over every job of every repeat,
interpreter start to ``import jfkernel`` done (median of several starts),
and median peak resident memory.  Times are in reference seconds, wall time
scaled by the machine's speed at the moment (``refclock.py``), because this
kind of machine drifts in speed by more than the bounds; the raw wall times
are printed next to them.  ``--trace 1`` runs one repeat with the per-layer
tracer of ``tracer.py``, the rest untraced, and prints the per-layer
metrics, the tracing overhead and the trace file's path.

Each job is checked exactly, and for seeds in ``digests.json`` its output
must hash to the recorded digest; ``attempted`` and ``failed`` in the last
line count jobs over all repeats.  The last line of output is one JSON
object; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from refclock import scale_around
from tracer import LAYERS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("verify-all", "kernel-deep", "weil-deep")
SETUP_STARTS = 21
DEADLINE_MARGIN_S = 140  # past --seconds, for set-up and the last repeat
VERIFY_SEEDS = 4


def child_seeds(workload, seed):
    """The seeds that a run's repeats pass to the child, used in turn.

    A verify-all repeat is one ``jfkernel verify`` command, whose cost
    changes with its own seed (it draws random words and series); a run
    cycles through four such seeds, disjoint between benchmark seeds, so
    that one seed does not set the run's figures.  The other workloads
    repeat one job list.
    """
    if workload == "verify-all":
        return [10 * seed + i for i in range(VERIFY_SEEDS)]
    return [seed]


class BenchError(RuntimeError):
    pass


def _run(cmd, deadline):
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before the last repeat")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(cmd[1:3])} did not finish before the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return proc.stdout


def measure_setup(deadline, starts=SETUP_STARTS):
    """Median time from interpreter start to ``import jfkernel`` done, in
    wall and in reference seconds."""
    cmd = [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); import jfkernel"]
    _run(cmd, deadline)  # compiles the bytecode cache once, as an install does
    times = [scale_around(lambda: _run(cmd, deadline)) for _ in range(starts)]
    return tuple(statistics.median(t) for t in zip(*times))


def child_cmd(workload, seed, *extra):
    return [sys.executable, os.path.join(BENCH, "child.py"), "--workload", workload,
            "--seed", str(seed), *extra]


def run_repeats(args, deadline, budget_s, extra=()):
    """Untraced repeats until ``budget_s`` is spent or the next repeat would
    pass the deadline, in whole cycles of the child seeds, at least one."""
    seeds = child_seeds(args.workload, args.seed)
    reps = []
    t_start = time.perf_counter()
    while True:
        cmd = child_cmd(args.workload, seeds[len(reps) % len(seeds)], *extra)
        reps.append(json.loads(_run(cmd, deadline).splitlines()[-1]))
        now = time.perf_counter()
        next_end = now + (now - t_start) / len(reps)
        if len(reps) % len(seeds) == 0 and (next_end - t_start > budget_s or next_end > deadline):
            return reps


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def report_failures(reps):
    attempted = sum(len(r["ms"]) for r in reps)
    failed = sum(len(r["failed"]) for r in reps)
    for r in reps:
        for line in r["errors"]:
            print(f"FAILED {line}")
    return attempted, failed


def end_to_end(args, deadline, extra):
    setup_wall, setup_ref = measure_setup(deadline)
    reps = run_repeats(args, deadline, args.seconds, extra)
    ms = [x for r in reps for x in r["ref_ms"]]
    wall_ms = [x for r in reps for x in r["ms"]]
    metrics = {
        "wall_s": (statistics.median(r["ref_wall_s"] for r in reps), "s"),
        "job_p50_ms": (statistics.median(ms), "ms"),
        "job_p90_ms": (percentile(ms, 90), "ms"),
        "setup_s": (setup_ref, "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in reps), "MB"),
    }
    wall = statistics.median(r["wall_s"] for r in reps)
    notes = {
        "wall_s": f"median of {len(reps)} repeats of {len(reps[0]['ms'])} jobs; wall {wall:.4g} s",
        "job_p50_ms": f"{len(ms)} job latencies; wall {statistics.median(wall_ms):.4g} ms",
        "job_p90_ms": f"{len(ms) - int(0.9 * len(ms))} of them beyond p90; "
                      f"wall {percentile(wall_ms, 90):.4g} ms",
        "setup_s": f"median of {SETUP_STARTS} interpreter starts; wall {setup_wall:.4g} s",
        "peak_rss_mb": f"median of {len(reps)} repeats",
    }
    return metrics, notes, reps


def traced(args, deadline, extra):
    os.makedirs(OUT, exist_ok=True)
    trace_file = os.path.join(OUT, f"{args.workload}-seed{args.seed}.trace.jsonl")
    t0 = time.perf_counter()
    cmd = child_cmd(args.workload, child_seeds(args.workload, args.seed)[0],
                    "--trace-out", trace_file, *extra)
    tr = json.loads(_run(cmd, deadline).splitlines()[-1])
    budget = max(args.seconds - (time.perf_counter() - t0), 0)
    reps = run_repeats(args, deadline, budget, extra)
    seeds = child_seeds(args.workload, args.seed)
    # untraced repeats on the same inputs as the traced one
    untraced_wall = statistics.median(r["wall_s"] for r in reps[::len(seeds)])
    metrics = {k: tuple(v) for k, v in tr["layers"].items()}
    metrics["trace.overhead_s"] = (tr["wall_s"] - untraced_wall, "s")

    print(f"trace written to {os.path.relpath(trace_file, ROOT)}")
    print(f"{'layer':<12}{'self_s':>10}{'share':>8}")
    layer_self = {layer: metrics[f"{layer}.self_s"][0] for layer in LAYERS + ("bench",)}
    layer_self["(tracer)"] = metrics["trace.bookkeeping_s"][0]
    for layer, s in sorted(layer_self.items(), key=lambda kv: -kv[1]):
        print(f"{layer:<12}{s:>10.4f}{s / tr['wall_s']:>8.1%}")
    total = sum(layer_self.values())
    print(f"self times + tracer = {total:.4f} s of traced wall {tr['wall_s']:.4f} s; "
          f"untraced wall {untraced_wall:.4f} s (median), "
          f"overhead {tr['wall_s'] - untraced_wall:.4f} s")
    return metrics, {}, [tr] + reps


def main(argv=None):
    p = argparse.ArgumentParser(description="jfkernel benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny job lists and no digest check, for the benchmark's own tests")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "jfkernel", "__init__.py")):
        print(f"error: no jfkernel sources under {SRC}; run from a jfkernel checkout",
              file=sys.stderr)
        return 2
    deadline = time.perf_counter() + args.seconds + DEADLINE_MARGIN_S
    extra = ["--tiny"] if args.tiny else []
    try:
        if args.trace:
            metrics, notes, reps = traced(args, deadline, extra)
        else:
            metrics, notes, reps = end_to_end(args, deadline, extra)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = report_failures(reps)
    print(f"workload {args.workload}, seed {args.seed}")
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"  {name:<36} {value:>14.6g} {unit:<6}" + (f"  ({note})" if note else ""))
    print(f"  {'fail_frac':<36} {failed / attempted:>14.6g} {'ratio':<6}"
          f"  ({failed} failed of {attempted} jobs attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
