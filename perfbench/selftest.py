"""Self-test of the benchmark on tiny sizes.

Usage, from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

Not part of the repository's test suite: it checks the benchmark's own
helpers, the tracer's coverage and clean-up, and the correctness checks.
"""

import os
import shutil
import sys

import pytest

import run
import workloads
from stats import percentile, timing_summary
from tracer import Tracer, layer_metrics, leftover_wrappers

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Layers each workload must reach, by the span names the tracer reports.
COMMON = ("config.parse_config", "config.build_dataset", "cli.main",
          "kernels.gram", "io.write", "measures.from_logits")
EXPECTED = {
    "theory_sweep": COMMON + ("spectral.overlap", "spectral.project_target",
                              "spectral.mercer_decompose",
                              "theory.residual_moments",
                              "theory.predict_Eg_dataset",
                              "theory.predict_Eg", "theory.solve_kappa"),
    "train_opt": COMMON + ("spectral.overlap", "spectral.project_target",
                           "spectral.mercer_decompose",
                           "theory.predict_Eg_dataset", "theory.predict_Eg",
                           "theory.solve_kappa", "optimizer.fd_gradient"),
    "mc_curve": COMMON + ("empirical.discrete_trial_error",
                          "empirical.krr_solve"),
}
# Self times are reported for these names, call counts for the others.
SELF_ONLY = ("config.parse_config", "config.build_dataset", "cli.main")


def test_percentile_interpolates():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([1, 2, 3, 4, 5], 100) == 5
    assert percentile([7], 99) == 7


def test_timing_summary_keeps_ten_samples_beyond_the_tail():
    s = timing_summary(list(range(1, 56)))          # 55 samples -> p80
    assert (s["n"], s["p50"], s["tail_pct"]) == (55, 28, 80.0)
    assert s["tail"] == pytest.approx(44.2)
    assert timing_summary(list(range(600)))["tail_pct"] == 98.0
    assert timing_summary(list(range(1000)))["tail_pct"] == 99.0
    small = timing_summary([3.0, 1.0, 2.0])         # too few for a tail
    assert (small["tail_pct"], small["tail"], small["p50"]) == (50.0, 2.0,
                                                                2.0)
    assert timing_summary([])["n"] == 0


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [(0, "optimizer.fd_gradient", 0.0, 10.0, None, 1, 0),
             (1, "theory.predict_Eg_dataset", 1.0, 5.0, 0, 2, 0),
             (2, "theory.predict_Eg_dataset", 3.0, 8.0, 0, 3, 0)]
    m = layer_metrics(spans, threads=2, steps_accepted=0)
    assert m["optimizer.fd_gradient.self_s"] == pytest.approx(3.0)
    assert m["optimizer.fd_evals"] == 2
    assert m["optimizer.pool_busy_frac"] == pytest.approx(9.0 / 20.0)


def test_tracer_swaps_every_import_site_and_restores_it():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import kernelshift.cli  # loads every layer
        import kernelshift.figures as figures
        import kernelshift.optimizer as optimizer
        import kernelshift.theory as theory
        before = {name: dict(vars(m)) for name, m in sys.modules.items()
                  if name.startswith("kernelshift")}
        tracer = Tracer()
        tracer.install()
        try:
            assert theory.overlap.__perfbench_span__ == "spectral.overlap"
            assert figures.mercer_decompose.__perfbench_span__ == \
                "spectral.mercer_decompose"
            assert optimizer.gram.__perfbench_span__ == "kernels.gram"
            assert kernelshift.cli.main.__perfbench_span__ == "cli.main"
        finally:
            tracer.uninstall()
        assert leftover_wrappers() == []
        for name, namespace in before.items():
            now = vars(sys.modules[name])
            assert all(now[k] is v for k, v in namespace.items()), name
    finally:
        sys.path.remove(os.path.join(ROOT, "src"))


@pytest.fixture(scope="module")
def runner():
    work_dir = os.path.join(ROOT, ".perfbench_work", "selftest")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        yield run.Runner(work_dir, threads=2)
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_reaches_every_listed_layer(runner, name):
    doc = workloads.make_config(name, seed=5, size="tiny")
    result, out = runner.child(doc, trace=True)
    assert result is not None and result["exit_code"] == 0
    assert workloads.check(name, doc, out) == []
    assert result["leftover_wrappers"] == []
    layers = result["layers"]
    for span in EXPECTED[name]:
        key = f"{span}.self_s" if span in SELF_ONLY else f"{span}.calls"
        assert layers[key] > 0, key
    if name == "mc_curve":
        for key, value in layers.items():
            if key.startswith(("spectral.", "theory.")) and \
                    key.endswith(".calls"):
                assert value == 0, key
    if name == "train_opt":
        assert layers["optimizer.fd_evals"] == 4 * 12
        assert layers["optimizer.steps_accepted"] == 2
        assert layers["optimizer.accept_ratio"] > 0


def test_check_rejects_tampered_artifacts(runner):
    doc = workloads.make_config("theory_sweep", seed=5, size="tiny")
    result, out = runner.child(doc, trace=False)
    assert result["exit_code"] == 0
    path = os.path.join(out, "theory_curve.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    row[header.index("Eg")] = repr(float(row[header.index("Eg")]) * 1.01)
    with open(path, "w") as fh:
        fh.write("\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n")
    errors = workloads.check("theory_sweep", doc, out)
    assert any("Eg != bias + variance" in e for e in errors)
    ref = workloads.reference_values("theory_sweep", out)
    ref["kappa"][0] *= 1.0 + 1e-5
    assert any("kappa differs" in e
               for e in workloads.check("theory_sweep", doc, out, ref))
