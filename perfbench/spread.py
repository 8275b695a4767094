"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload theory_sweep --seeds 0-9 \\
        --seconds 20

Runs the benchmark once per seed (untraced) and prints, for each metric,
the median, the quartile spread (q3 - q1) / median, and that spread as a
share of the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from stats import relative_iqr

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9",
                        help="inclusive range, e.g. 0-9")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    lo, hi = (int(x) for x in args.seeds.split("-"))
    values = {}
    for seed in range(lo, hi + 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"], capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} failed runs")
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
            flush=True)
    for key, vals in values.items():
        spread = relative_iqr(vals)
        print(f"{args.workload} {key}: median {statistics.median(vals):.5g}"
              f" spread {spread:.4f} = {spread / bounds[key]:.2f} of bound "
              f"{bounds[key]}")


if __name__ == "__main__":
    main()
