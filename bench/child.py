"""One repeat of a workload, in a fresh interpreter.

    python3 bench/child.py --workload kernel-deep --seed 3 [--tiny]
                           [--trace-out FILE]

Imports jfkernel from ``src/`` of the checkout this file sits in, runs the
workload's job list once, and prints one JSON line: wall time, peak
resident memory, each job's latency, the failed jobs, the output digest
and, with ``--trace-out``, the per-layer metrics (spans go to FILE).
Untraced, times are given in wall and in reference seconds (``refclock.py``);
traced, the tracer's own cost would distort the scaling, so only wall times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys

from refclock import RefClock

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
DIGESTS = os.path.join(BENCH, "digests.json")
DIGEST_HEX = 8  # hex digits kept per job


def import_jfkernel():
    """Import jfkernel from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import jfkernel

    if not os.path.abspath(jfkernel.__file__).startswith(SRC + os.sep):
        raise ImportError(f"jfkernel imported from {jfkernel.__file__}, not from {SRC}")
    return jfkernel


def _encode(obj) -> str:
    if isinstance(obj, str):
        return obj
    data = obj.to_json()
    if isinstance(data, dict):
        data.pop("meta", None)  # provenance labels are not results
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def job_digest(outputs) -> str:
    text = "\n".join(_encode(o) for o in outputs)
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_HEX]


def recorded_digests(workload, seed):
    """The per-job digests recorded for this workload and seed, or None."""
    with open(DIGESTS) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def run_repeat(workload, seed, tiny=False, tracer=None, recorded=None):
    """Run the job list once; a job fails on an exception, a failed check, or
    an output digest that differs from ``recorded`` (a hex string holding
    DIGEST_HEX digits per job, or None to skip the comparison)."""
    import workloads

    jobs = workloads.build(workload, seed, tiny)
    on_job = None
    if tracer:
        tracer.install()
        on_job = lambda i: tracer.begin_job(i) if i is not None else tracer.end_job()
    clock = None if tracer else RefClock()
    results, wall, ref_wall = workloads.run_jobs(jobs, on_job, clock)
    if tracer:
        tracer.uninstall()  # digests below are the benchmark's work, not traced

    digests = "".join(job_digest(r.outputs) for r in results)
    if recorded is not None:
        if len(recorded) != len(digests):
            for r in results:
                r.error = r.error or f"{len(results)} jobs, {len(recorded) // DIGEST_HEX} recorded"
        for i, r in enumerate(results):
            span = slice(i * DIGEST_HEX, (i + 1) * DIGEST_HEX)
            if r.error is None and digests[span] != recorded[span]:
                r.error = "output digest differs from the recorded one"
    failed = [i for i, r in enumerate(results) if r.error]
    return {
        "wall_s": wall,
        "ref_wall_s": ref_wall,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ms": [r.ms for r in results],
        "ref_ms": [r.ref_ms for r in results],
        "failed": failed,
        "errors": [f"job {i} ({results[i].label}): {results[i].error}" for i in failed[:5]],
        "digests": digests,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--trace-out", default=None)
    args = p.parse_args(argv)

    import_jfkernel()
    recorded = None
    if not args.tiny:
        recorded = recorded_digests(args.workload, args.seed)
    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
    out = run_repeat(args.workload, args.seed, args.tiny, tracer, recorded)
    if tracer:
        out["layers"] = tracer.layer_metrics(out["wall_s"])
        tracer.write(args.trace_out)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
