"""kernelshift benchmark: CLI workloads timed end to end, plus a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload theory_sweep --seed 0 \\
        --seconds 30 --trace 0

`--workload all` runs every workload untraced and traced.

Load shape: a closed loop with one client.  Each run is a fresh Python
process (perfbench/child.py) that imports kernelshift from ./src with
BLAS pinned to one thread and calls `kernelshift.cli.main` with
`--threads min(2, nproc)`.  Runs repeat until the next one would end
after `--seconds`, with at least MIN_RUNS of them, and every metric is
the median over the runs.  Every run's artifacts are checked
(workloads.check); a run that exits nonzero or fails a check counts in
`failed` and its times are dropped.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json.
`--trace 1` alternates untraced and traced runs and reports the
per-layer metrics of the traced ones (tracer.py), plus the tracing
overhead: median traced run_s minus median untraced run_s.

The last line of standard output is the result as one JSON object.
Scratch files go to .perfbench_work/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_RUNS = 3
CHILD_TIMEOUT_S = 60
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def declared_units():
    """Metric units by trace mode, as BENCHMARK.json declares them."""
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    return {trace: {m["name"]: m["unit"] for m in bench[key]}
            for trace, key in ((0, "end_to_end"), (1, "per_layer"))}


def machine_facts(threads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk("src")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(path.encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": BLAS_THREADS,
        "cli_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class Runner:
    """Starts child runs of one workload and collects their results."""

    def __init__(self, work_dir, threads):
        self.work_dir = work_dir
        self.threads = threads
        self.env = dict(os.environ, TMPDIR=work_dir,
                        **{v: str(BLAS_THREADS) for v in BLAS_VARS})
        self.count = 0

    def child(self, doc, trace):
        """One CLI run of config doc; returns (result or None, out_dir)."""
        self.count += 1
        tag = os.path.join(self.work_dir, f"run{self.count:03d}")
        config, out, res = tag + ".config.json", tag + ".out", tag + ".json"
        with open(config, "w") as fh:
            json.dump(doc, fh)
        job = {"src": "src", "config": config, "out": out,
               "threads": self.threads, "trace": bool(trace),
               "result": res}
        with open(tag + ".job.json", "w") as fh:
            json.dump(job, fh)
        try:
            proc = subprocess.run([sys.executable,
                                   os.path.join(HERE, "child.py"),
                                   tag + ".job.json"],
                                  env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            sys.stderr.write(f"perfbench: {tag} timed out\n")
            return None, out
        if proc.returncode != 0 or not os.path.exists(res):
            sys.stderr.write(proc.stderr[-2000:])
            return None, out
        with open(res) as fh:
            return json.load(fh), out


def measure(name, seed, seconds, trace, runner, ref):
    """Run the closed loop for one workload; returns the report dict."""
    doc = workloads.make_config(name, seed)
    runs, traced, failures = [], [], []
    attempted, last_out = 0, None
    t_start = time.monotonic()
    while True:
        is_traced = bool(trace) and attempted % 2 == 1
        result, out = runner.child(doc, is_traced)
        attempted += 1
        if result is None:
            errors = ["child process failed"]
        elif result["exit_code"]:
            errors = [f"exit code {result['exit_code']}"]
        else:
            errors = workloads.check(name, doc, out, ref)
        if errors:
            failures.append(errors)
        else:
            result["units"] = workloads.work_units(name, out)
            (traced if is_traced else runs).append(result)
            last_out = out
        elapsed = time.monotonic() - t_start
        enough = len(runs) >= MIN_RUNS and \
            (not trace or len(traced) >= MIN_RUNS)
        # Stop before a run that would end past the window; past three
        # windows, stop even without MIN_RUNS successful runs.
        if elapsed * (attempted + 1) / attempted > seconds and \
                (enough or elapsed > 3 * seconds):
            break
    report = {"attempted": attempted, "failed": len(failures),
              "failures": failures[:5], "runs": runs, "traced": traced,
              "diagnostics": {}}
    if name == "mc_curve" and last_out:
        report["diagnostics"].update(theory_gap(doc, last_out, runner))
    return report


def theory_gap(doc, mc_out, runner):
    """Theory against Monte Carlo on the mc_curve problem, untimed.

    compare_report's max |z| is reported but not gated: the rbf theory
    is known to sit below simulation at larger P.
    """
    theory, theory_out = runner.child(workloads.theory_config(doc), False)
    if theory is None:
        return {"theory_mc_max_abs_z": None}
    compare = {"command": "compare",
               "compare": {"theory_csv": os.path.join(theory_out,
                                                      "theory_curve.csv"),
                           "empirical_csv": os.path.join(
                               mc_out, "empirical_curve.csv"),
                           "band": workloads.Z_BAND}}
    result, out = runner.child(compare, False)
    if result is None:
        return {"theory_mc_max_abs_z": None}
    with open(os.path.join(out, "compare.json")) as fh:
        report = json.load(fh)
    return {"theory_mc_max_abs_z": report["max_abs_z"],
            "theory_mc_fraction_within": report["fraction_within"]}


def median_of(results, key):
    return statistics.median(r[key] for r in results)


def metrics_of(report, trace):
    runs = report["runs"]
    if not trace:
        return {
            "setup_s": median_of(runs, "setup_s"),
            "run_s": median_of(runs, "run_s"),
            "work_per_s": statistics.median(r["units"] / r["run_s"]
                                            for r in runs),
            "peak_rss_mb": median_of(runs, "peak_rss_mb"),
        }
    traced = report["traced"]
    # The low median keeps counts whole numbers.
    out = {k: statistics.median_low(r["layers"][k] for r in traced)
           for k in traced[0]["layers"]}
    out["trace.run_s"] = median_of(traced, "run_s")
    out["trace.overhead_s"] = out["trace.run_s"] - median_of(runs, "run_s")
    return out


def run_workload(name, seed, seconds, trace, threads):
    work_dir = os.path.abspath(os.path.join(
        ".perfbench_work", f"{name}-seed{seed}-trace{trace}"))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    runner = Runner(work_dir, threads)
    # Compile bytecode and warm the file cache before anything is timed.
    subprocess.run([sys.executable, "-c", "import kernelshift.cli"],
                   env=dict(runner.env, PYTHONPATH="src"), check=True,
                   timeout=CHILD_TIMEOUT_S)
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)[name].get(str(seed))
    report = measure(name, seed, seconds, trace, runner, ref)
    report["reference"] = "stored" if ref else "invariants only"
    good = report["runs"] and (report["traced"] or not trace)
    report["metrics"] = metrics_of(report, trace) if good else {}
    with open(os.path.join(work_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    return report


def print_report(name, report, units):
    print(f"# {name}: {report['attempted']} attempted, {report['failed']} "
          f"failed (fail_frac {report['failed'] / report['attempted']:.3f});"
          f" medians over {len(report['runs'])} untraced and "
          f"{len(report['traced'])} traced runs; correctness against "
          f"{report['reference']}")
    for errors in report["failures"]:
        print(f"#   failure: {'; '.join(errors)[:300]}")
    for key, value in report["diagnostics"].items():
        print(f"#   diagnostic (not gated) {key} = {value}")
    for key, value in report["metrics"].items():
        print(f"{name} {key} {value} {units[key]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "kernelshift", "cli.py")):
        print("perfbench: run from a kernelshift checkout (src/kernelshift "
              "not found)", file=sys.stderr)
        return 2

    units = declared_units()
    threads = min(2, len(os.sched_getaffinity(0)))
    print("# machine " + json.dumps(machine_facts(threads), sort_keys=True))
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        for trace in modes:
            report = run_workload(name, args.seed, args.seconds, trace,
                                  threads)
            print_report(name, report, units[trace])
            attempted += report["attempted"]
            failed += report["failed"]
            if not report["metrics"]:
                print(f"perfbench: no successful run of {name}",
                      file=sys.stderr)
                return 1
            if report["metrics"].keys() != units[trace].keys():
                print("perfbench: metrics differ from BENCHMARK.json",
                      file=sys.stderr)
                return 1
            prefix = f"{name}." if args.workload == "all" else ""
            for key, value in report["metrics"].items():
                metrics[prefix + key] = {"value": value,
                                         "unit": units[trace][key]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
