"""Regenerate reference.json: one untraced run per workload and seed.

Usage, from the root of a checkout: python3 perfbench/make_reference.py

The stored values are what the checks in workloads.check compare
against for these seeds; other seeds are checked for invariants only.
Regenerate only from a commit whose outputs are trusted.
"""

import json
import os
import shutil
import sys

import workloads
from run import HERE, Runner

SEEDS = (0, 1)  # the default seed and one held-out seed


def main():
    work_dir = os.path.abspath(os.path.join(".perfbench_work", "reference"))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    runner = Runner(work_dir, threads=min(2, len(os.sched_getaffinity(0))))
    ref = {}
    for name in workloads.NAMES:
        ref[name] = {}
        for seed in SEEDS:
            doc = workloads.make_config(name, seed)
            result, out = runner.child(doc, trace=False)
            if result is None or result["exit_code"] != 0:
                sys.exit(f"{name} seed {seed} failed")
            errors = workloads.check(name, doc, out)
            if errors:
                sys.exit(f"{name} seed {seed}: {errors}")
            ref[name][str(seed)] = workloads.reference_values(name, out)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
