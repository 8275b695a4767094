"""Configuration-driven command line front end.

One command per process. Each run validates its JSON config against the
published schema, executes, and leaves a self-describing artifact
directory: output CSV/JSON files, the materialized config echo, and a
manifest with the config hash, seed and library versions. Identical
config and seed produce byte-identical artifacts whatever the thread
count.

Exit codes: 0 success, 2 configuration or validation error, 3 numerical
divergence that prevents the requested computation.
"""

from __future__ import annotations

import argparse
import copy
import logging
import os
import sys

import numpy as np

from .closedform import (dot_product_kernel_spectrum, gaussian_linear_Eg,
                         general_linear_Eg, ntk_sphere_Eg)
from .config import (ConfigError, RunConfig, build_dataset, build_kernel,
                     build_measure, parse_config, validate_document)
from .empirical import (EMPIRICAL_COLUMNS, EmpiricalPoint, compare_report,
                        run_learning_curve)
from .figures import FIGURES
from .io import ArtifactDir, read_csv_columns
from .kernels import KernelSpec, gram
from .measures import from_logits
from .optimizer import (OptimizerConfig, fd_gradient, optimize_test_measure,
                        optimize_train_measure, richardson_check)
from .spectral import (decomposition_cache_key, load_decomposition,
                       mercer_decompose, save_decomposition)
from .theory import (CURVE_COLUMNS, DivergenceError, _rows,
                     predict_Eg_curve, predict_Eg_dataset,
                     predict_Eg_train_grad, prediction_row)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3

TRACE_COLUMNS = ("step", "Eg", "participation_ratio")

log = logging.getLogger(__name__)


def _decomposition(K, measure, rank_threshold, cache_dir):
    """Decompose, going through the on-disk cache when one is given.

    An unreadable entry (bad magic, truncated payload, failed checksum)
    counts as a miss: it is recomputed and overwritten.
    """
    if not cache_dir:
        return mercer_decompose(K, measure, rank_threshold)
    key = decomposition_cache_key(K, measure, rank_threshold)
    path = os.path.join(cache_dir, f"{key}.bin")
    if os.path.exists(path):
        try:
            return load_decomposition(path)
        except ValueError as exc:
            log.warning("recomputing unreadable cache entry %s: %s",
                        path, exc)
    dec = mercer_decompose(K, measure, rank_threshold)
    os.makedirs(cache_dir, exist_ok=True)
    save_decomposition(path, dec)
    return dec


def _dataset_problem(rc):
    ds = build_dataset(rc.section("dataset"), rc.seed)
    spec = build_kernel(rc.section("kernel"))
    K = gram(spec, ds.X)
    measures = rc.doc["measures"]
    p = build_measure(measures["train"], ds.M)
    pt = build_measure(measures["test"], ds.M)
    return ds, spec, K, p, pt


def _rank_threshold(rc):
    return float(rc.doc["theory"]["rank_threshold"])


def cmd_decompose(rc, art, threads, cache_dir):
    ds, spec, K, p, _ = _dataset_problem(rc)
    dec = _decomposition(K, p, _rank_threshold(rc), cache_dir)
    # per-mode power inside the collapsed (numerically null) eigenspace
    # depends on the basis the eigensolver picks; only its sum is defined
    abar, R = _rows(dec, ds.Y)
    power = np.sum(abar**2, axis=1)
    collapsed = float(np.sum(dec.measure.masses @ R**2))
    total = float(power.sum()) + collapsed
    cum = np.cumsum(power) / total if total > 0 else np.zeros_like(power)
    rows = [(float(i), dec.eigenvalues[i], power[i], cum[i])
            for i in range(dec.rank)]
    art.write_csv("eigenvalues.csv",
                  ("index", "eta", "target_power", "cumulative_fraction"),
                  rows)
    art.write_json("decomposition.json", {
        "points": int(ds.M),
        "support_size": int(dec.support.shape[0]),
        "rank": int(dec.rank),
        "collapsed": int(dec.n_collapsed),
        "collapsed_target_power": collapsed,
        "rank_threshold": dec.rank_threshold,
        "kernel": spec.kind,
    })
    return EXIT_OK


def cmd_theory_curve(rc, art, threads, cache_dir):
    ds, _, K, p, pt = _dataset_problem(rc)
    sec = rc.section("theory")
    if "P_grid" not in sec:
        raise ConfigError("theory-curve needs a P grid", "/theory/P_grid")
    dec = _decomposition(K, p, _rank_threshold(rc), cache_dir)
    preds = predict_Eg_curve(dec, ds.Y, pt, sec["P_grid"], sec["lambda"],
                             sec["noise"])
    return _write_curve(art, "theory_curve.csv", sec["P_grid"], preds)


def _write_curve(art, name, P_grid, preds):
    """Write a prediction curve; EXIT_DIVERGENCE if every point diverged."""
    art.write_csv(name, CURVE_COLUMNS,
                  [prediction_row(P, pred) for P, pred in zip(P_grid, preds)])
    if all(pred.state.diverged for pred in preds):
        print("kernelshift: every grid point diverged (1 - gamma below "
              "tolerance)", file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


def cmd_empirical_curve(rc, art, threads, cache_dir):
    ds, _, K, p, pt = _dataset_problem(rc)
    sec = rc.section("empirical")
    if "P_grid" not in sec:
        raise ConfigError("empirical-curve needs a P grid",
                          "/empirical/P_grid")
    points = run_learning_curve(K, ds.Y, p, pt, sec["P_grid"],
                                sec["lambda"], sec["noise"], sec["trials"],
                                rc.seed, threads=threads)
    art.write_csv("empirical_curve.csv", EMPIRICAL_COLUMNS,
                  [(pt_.P, pt_.Eg_mean, pt_.Eg_std, pt_.Eg_stderr,
                    pt_.trials) for pt_ in points])
    return EXIT_OK


def _optimizer_config(sec, **steps):
    """The optimizer section's problem settings; only optimize-train passes
    the step settings."""
    return OptimizerConfig(P_budget=int(sec["P_budget"]),
                           lam=float(sec["lambda"]), noise=float(sec["noise"]),
                           mode=sec["mode"], **steps)


def _write_trace(art, trace):
    rows = [(float(i), trace.Eg[i], trace.participation[i])
            for i in range(len(trace.Eg))]
    art.write_csv("trace.csv", TRACE_COLUMNS, rows)
    masses = trace.final_measure.masses
    art.write_json("final_measure.json",
                   {str(i): float(m) for i, m in enumerate(masses)})
    order = np.argsort(-masses, kind="stable")
    art.write_csv("sorted_measure.csv", ("rank", "id", "mass"),
                  [(float(r), float(i), masses[i])
                   for r, i in enumerate(order)])
    art.write_json("optimize.json", {
        "converged": bool(trace.converged),
        "message": trace.message,
        "steps_accepted": int(len(trace.Eg) - 1),
        "Eg_initial": float(trace.Eg[0]),
        "Eg_final": float(trace.Eg[-1]),
        "participation_final": float(trace.participation[-1]),
    })


def cmd_optimize_train(rc, art, threads, cache_dir):
    ds, _, K, _, pt = _dataset_problem(rc)
    sec = rc.section("optimizer")
    cfg = _optimizer_config(sec, learning_rate=float(sec["learning_rate"]),
                            steps=int(sec["steps"]),
                            convergence_tol=float(sec["convergence_tol"]))
    trace = optimize_train_measure(K, ds.Y, pt, cfg,
                                   rank_threshold=_rank_threshold(rc))
    _write_trace(art, trace)
    return EXIT_OK


def cmd_optimize_test(rc, art, threads, cache_dir):
    ds, _, K, p, _ = _dataset_problem(rc)
    cfg = _optimizer_config(rc.section("optimizer"))
    dec = _decomposition(K, p, _rank_threshold(rc), cache_dir)
    trace = optimize_test_measure(dec, ds.Y, cfg)
    _write_trace(art, trace)
    return EXIT_OK


def _closed_form_results(sec):
    model = sec["model"]
    if "P_grid" not in sec:
        raise ConfigError("closed-form needs a P grid",
                          "/closed_form/P_grid")
    P_grid = sec["P_grid"]
    lam = float(sec["lambda"])
    noise = float(sec["noise"])

    def need(*keys):
        for key in keys:
            if key not in sec:
                raise ConfigError(f"model '{model}' needs '{key}'",
                                  f"/closed_form/{key}")

    if model == "gaussian_linear":
        need("beta", "covariance", "covariance_tilde")
        beta = np.asarray(sec["beta"], dtype=float)
        C = np.asarray(sec["covariance"], dtype=float)
        Ct = np.asarray(sec["covariance_tilde"], dtype=float)
        return P_grid, [gaussian_linear_Eg(beta, C, Ct, P, lam, noise)
                        for P in P_grid]
    if model == "general_linear":
        need("beta", "M", "M_r", "M_s")
        beta = np.asarray(sec["beta"], dtype=float)
        return P_grid, [
            general_linear_Eg(P, int(sec["M"]), int(sec["M_r"]),
                              int(sec["M_s"]), beta, sec["sigma2"],
                              sec["sigma2_tilde"], lam, noise)
            for P in P_grid]
    if model == "ntk_sphere":
        need("D", "depth", "k_max", "abar_sq")
        k_max = int(sec["k_max"])
        if len(sec["abar_sq"]) > k_max + 1:
            raise ConfigError(f"{len(sec['abar_sq'])} degrees given for "
                              f"k_max {k_max}", "/closed_form/abar_sq")
        k_stage = sec.get("k_stage")
        if k_stage is not None and k_stage > k_max:
            raise ConfigError(f"k_stage {k_stage} above k_max {k_max}",
                              "/closed_form/k_stage")
        depth = int(sec["depth"])
        eta, degen = dot_product_kernel_spectrum(
            KernelSpec("ntk_relu", depth=depth), int(sec["D"]), k_max)
        return P_grid, [
            ntk_sphere_Eg(P, depth, eta, degen, sec["abar_sq"], lam, noise,
                          radius_train=float(sec["radius_train"]),
                          radius_test=float(sec["radius_test"]),
                          k_stage=None if k_stage is None else int(k_stage))
            for P in P_grid]
    raise ConfigError(f"unknown closed-form model '{model}'",
                      "/closed_form/model")


def cmd_closed_form(rc, art, threads, cache_dir):
    return _write_curve(art, "closed_form_curve.csv",
                        *_closed_form_results(rc.section("closed_form")))


def cmd_spectrum(rc, art, threads, cache_dir):
    spec = build_kernel(rc.section("kernel"))
    sec = rc.section("spectrum")
    eta, degen = dot_product_kernel_spectrum(spec, int(sec["D"]),
                                             int(sec["k_max"]),
                                             n_quad=int(sec["n_quad"]))
    art.write_csv("spectrum.csv", ("k", "eta", "degeneracy"),
                  [(float(k), eta[k], degen[k])
                   for k in range(len(eta))])
    return EXIT_OK


def _compare_columns(sec, key, required):
    """Read one compare input, or a ConfigError naming its path."""
    path, pointer = sec[key], f"/compare/{key}"
    try:
        cols = read_csv_columns(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}", pointer)
    missing = [name for name in required if name not in cols]
    if missing:
        raise ConfigError(f"{path} lacks column(s) {missing}", pointer)
    return cols


def cmd_compare(rc, art, threads, cache_dir):
    sec = rc.section("compare")
    theory = _compare_columns(sec, "theory_csv", ("P", "Eg"))
    empirical = _compare_columns(sec, "empirical_csv", EMPIRICAL_COLUMNS)
    points = [EmpiricalPoint(P=int(P), Eg_mean=m, Eg_std=s, Eg_stderr=se,
                             trials=int(t))
              for P, m, s, se, t in zip(*(empirical[name]
                                          for name in EMPIRICAL_COLUMNS))]
    report = compare_report(list(theory["Eg"]), points,
                            band=float(sec["band"]),
                            theory_P=list(theory["P"]))
    art.write_json("compare.json", report)
    return EXIT_OK


def cmd_gradcheck(rc, art, threads, cache_dir):
    ds, _, K, _, pt = _dataset_problem(rc)
    sec = rc.section("optimizer")
    P = int(sec["P_budget"])
    lam = float(sec["lambda"])
    noise = float(sec["noise"])
    h = float(sec["fd_step"])
    thr = _rank_threshold(rc)

    def train_loss(z):
        return predict_Eg_dataset(K, ds.Y, from_logits(z), pt, P, lam,
                                  noise, rank_threshold=thr).Eg

    z0 = np.zeros(ds.M)
    g1 = fd_gradient(train_loss, z0, h)
    rich = richardson_check(train_loss, z0, h=h, g1=g1)
    masses0 = from_logits(z0).masses
    _, pbar = predict_Eg_train_grad(K, ds.Y, masses0, pt, P, lam, noise,
                                    rank_threshold=thr)
    analytic = masses0 * (pbar - np.dot(masses0, pbar))
    train_rel = float(np.max(np.abs(g1 - analytic))
                      / (float(np.max(np.abs(analytic))) or 1.0))

    art.write_json("gradcheck.json", {
        "train_fd_richardson": {"rel_err": rich, "tolerance": 1e-4,
                                "ok": bool(rich < 1e-4)},
        "train_analytic": {"rel_err": train_rel, "tolerance": 1e-6,
                           "ok": bool(train_rel < 1e-6)},
    })
    return EXIT_OK


def cmd_reproduce(rc, art, threads, cache_dir):
    figure = rc.figure
    summary = FIGURES[figure](art, rc.seed, threads=threads)
    art.write_json("summary.json", summary)
    return EXIT_OK


_HANDLERS = {
    "decompose": cmd_decompose,
    "theory-curve": cmd_theory_curve,
    "empirical-curve": cmd_empirical_curve,
    "optimize-train": cmd_optimize_train,
    "optimize-test": cmd_optimize_test,
    "closed-form": cmd_closed_form,
    "spectrum": cmd_spectrum,
    "compare": cmd_compare,
    "gradcheck": cmd_gradcheck,
    "reproduce": cmd_reproduce,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="kernelshift",
        description="Learning-curve theory and measure optimization for "
                    "kernel regression under train/test distribution "
                    "shift.")
    parser.add_argument("--config", required=True,
                        help="path to a JSON run configuration")
    parser.add_argument("--out", default=None,
                        help="artifact output directory (default: the "
                             "config's out, else ./out)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads for Monte Carlo trials "
                             "(does not change results)")
    parser.add_argument("--cache", default=None,
                        help="directory for reusable decompositions")
    args = parser.parse_args(argv)

    try:
        rc = parse_config(args.config)
        if args.seed is not None:
            doc = copy.deepcopy(rc.doc)
            doc["seed"] = int(args.seed)
            validate_document(doc)
            rc = RunConfig(doc)
        threads = args.threads if args.threads is not None else rc.threads
        art = ArtifactDir(args.out or rc.doc.get("out", "out"))
        code = EXIT_OK
        try:
            code = _HANDLERS[rc.command](rc, art, threads, args.cache)
        except DivergenceError as exc:
            print(f"kernelshift: numerical divergence: {exc}",
                  file=sys.stderr)
            code = EXIT_DIVERGENCE
        art.echo_config(rc)
        art.write_manifest(rc)
        return code
    except ConfigError as exc:
        print(f"kernelshift: config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"kernelshift: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
