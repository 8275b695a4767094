"""One kernelshift CLI run in a fresh process, timed from outside the CLI.

Usage: python3 perfbench/child.py JOB.json

The job names the config, output directory, thread count, whether to
trace, and where to write the result.  The BLAS thread variables must be
set by the caller, before numpy loads.  The result holds the set-up time
(importing kernelshift.cli plus parsing the config), the wall time of
cli.main, its exit code and the process's peak RSS; a traced run adds
the per-layer metrics and writes its spans next to the result.
"""

import json
import os
import resource
import sys
import time


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    src = os.path.abspath(job["src"])
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import kernelshift.cli as cli
    from kernelshift.config import parse_config
    parse_config(job["config"])
    setup_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported {cli.__file__}, not the code in {src}")

    argv = ["--config", job["config"], "--out", job["out"],
            "--threads", str(job["threads"])]
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    t1 = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        run_s = time.perf_counter() - t1
        if tracer is not None:
            tracer.uninstall()

    result = {
        "setup_s": setup_s,
        "run_s": run_s,
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        from tracer import layer_metrics, leftover_wrappers
        steps = 0
        summary = os.path.join(job["out"], "optimize.json")
        if os.path.exists(summary):
            with open(summary) as fh:
                steps = json.load(fh)["steps_accepted"]
        result["layers"] = layer_metrics(tracer.spans, job["threads"], steps)
        result["leftover_wrappers"] = leftover_wrappers()
        with open(job["result"] + ".spans.json", "w") as fh:
            json.dump([{"id": s[0], "name": s[1], "start": s[2],
                        "end": s[3], "parent": s[4], "thread": s[5],
                        "work": s[6]} for s in tracer.spans], fh)
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
