"""Record the per-job output digests that the benchmark checks against.

    python3 bench/record_digests.py --workload weil-deep --seeds 0-19

Runs the workload once for each seed a run with these benchmark seeds
passes to jfkernel (see ``run.child_seeds``), with the exact checks but
without the digest comparison, and stores the jobs' digests in
``digests.json`` under that seed.  Refuses to record a seed on which any
job failed.  Record only from a commit whose outputs are known to be right:
later runs on these seeds must reproduce every byte.
"""

from __future__ import annotations

import argparse
import json
import sys

import child
from run import WORKLOADS, child_seeds


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seeds", required=True, help="benchmark seeds first-last, e.g. 0-19")
    args = p.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))

    child.import_jfkernel()
    with open(child.DIGESTS) as fh:
        table = json.load(fh)
    for seed in (s for b in range(first, last + 1) for s in child_seeds(args.workload, b)):
        rep = child.run_repeat(args.workload, seed)
        if rep["failed"]:
            sys.exit(f"seed {seed}: {len(rep['failed'])} jobs failed: {rep['errors']}")
        table.setdefault(args.workload, {})[str(seed)] = rep["digests"]
        print(f"{args.workload} seed {seed}: {len(rep['ms'])} jobs recorded", flush=True)
    with open(child.DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
