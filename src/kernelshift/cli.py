"""Configuration-driven command line front end.

One command per process. Each run checks its JSON config (config.py
decides every check and default that needs only the document, before any
data is built), executes, and leaves a self-describing artifact
directory: output CSV/JSON files, the materialized config echo, and a
manifest with the config hash, seed and library versions. Identical
config and seed produce byte-identical artifacts whatever the thread
count.

Exit codes: 0 success, 2 configuration or validation error, 3 numerical
divergence that prevents the requested computation.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .closedform import (dot_product_kernel_spectrum, gaussian_linear_Eg,
                         general_linear_Eg, ntk_sphere_Eg)
from .config import (_COMMANDS, ConfigError, build_dataset, build_kernel,
                     build_measure, parse_config)
from .empirical import (EMPIRICAL_COLUMNS, EmpiricalPoint,
                        _CompareInputError, compare_report,
                        run_learning_curve)
from .figures import FIGURES
from .io import ArtifactDir, read_csv_columns
from .kernels import KernelSpec, gram
from .measures import from_logits
from .optimizer import (OptimizerConfig, _softmax_chain, fd_gradient,
                        optimize_test_measure, optimize_train_measure,
                        richardson_check)
from .spectral import cached_decompose
from .theory import (CURVE_COLUMNS, DivergenceError, _rows,
                     predict_Eg_curve, predict_Eg_dataset,
                     predict_Eg_train_grad)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3

TRACE_COLUMNS = ("step", "Eg", "participation_ratio")


def _dataset_problem(rc):
    """Dataset, kernel spec and, by side, the measures the command reads.

    No Gram is built here. decompose, theory-curve and optimize-test
    decompose through spectral.cached_decompose, which builds only the
    kernel on the training support and the off-support rows against it,
    and nothing on a cache hit; the commands that need the full M x M
    Gram (empirical-curve, optimize-train, gradcheck) build it with
    kernels.gram.
    """
    ds = build_dataset(rc.doc["dataset"], rc.seed)
    measures = {side: build_measure(rc.doc["measures"][side], ds.M)
                for side in _COMMANDS[rc.command]["measures"]}
    spec = build_kernel(rc.doc["kernel"])
    return ds, spec, measures


def cmd_decompose(rc, art, threads, cache_dir):
    ds, spec, measures = _dataset_problem(rc)
    dec = cached_decompose(spec, ds.X, measures["train"],
                           rc.doc["theory"]["rank_threshold"], cache_dir)
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
    ds, spec, measures = _dataset_problem(rc)
    sec = rc.doc["theory"]
    dec = cached_decompose(spec, ds.X, measures["train"],
                           sec["rank_threshold"], cache_dir)
    preds = predict_Eg_curve(dec, ds.Y, measures["test"], sec["P_grid"],
                             sec["lambda"], sec["noise"])
    return _write_curve(art, "theory_curve.csv", preds)


def _write_curve(art, name, preds):
    """Write a prediction curve; EXIT_DIVERGENCE if every point diverged."""
    art.write_csv(name, CURVE_COLUMNS, map(dataclasses.astuple, preds))
    if all(pred.diverged for pred in preds):
        print("kernelshift: every grid point diverged (1 - gamma below "
              "tolerance)", file=sys.stderr)
        return EXIT_DIVERGENCE
    return EXIT_OK


def cmd_empirical_curve(rc, art, threads, cache_dir):
    ds, spec, measures = _dataset_problem(rc)
    K = gram(spec, ds.X, threads=threads)
    sec = rc.doc["empirical"]
    points = run_learning_curve(K, ds.Y, measures["train"], measures["test"],
                                sec["P_grid"], sec["lambda"], sec["noise"],
                                sec["trials"], rc.seed, threads=threads)
    art.write_csv("empirical_curve.csv", EMPIRICAL_COLUMNS,
                  map(dataclasses.astuple, points))
    return EXIT_OK


def _optimizer_config(sec, *steps):
    """The optimizer section's problem settings; only optimize-train names
    the step settings."""
    return OptimizerConfig(P_budget=sec["P_budget"], lam=sec["lambda"],
                           noise=sec["noise"], mode=sec["mode"],
                           **{key: sec[key] for key in steps})


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
    ds, spec, measures = _dataset_problem(rc)
    K = gram(spec, ds.X)
    sec = rc.doc["optimizer"]
    cfg = _optimizer_config(sec, "learning_rate", "steps", "convergence_tol")
    trace = optimize_train_measure(
        K, ds.Y, measures["test"], cfg,
        rank_threshold=rc.doc["theory"]["rank_threshold"])
    _write_trace(art, trace)
    return EXIT_OK


def cmd_optimize_test(rc, art, threads, cache_dir):
    ds, spec, measures = _dataset_problem(rc)
    cfg = _optimizer_config(rc.doc["optimizer"])
    dec = cached_decompose(spec, ds.X, measures["train"],
                           rc.doc["theory"]["rank_threshold"], cache_dir)
    trace = optimize_test_measure(dec, ds.Y, cfg)
    _write_trace(art, trace)
    return EXIT_OK


def cmd_closed_form(rc, art, threads, cache_dir):
    sec = rc.doc["closed_form"]
    P_grid, lam, noise = sec["P_grid"], sec["lambda"], sec["noise"]
    if sec["model"] == "gaussian_linear":
        preds = [gaussian_linear_Eg(sec["beta"], sec["covariance"],
                                    sec["covariance_tilde"], P, lam, noise)
                 for P in P_grid]
    elif sec["model"] == "general_linear":
        preds = [general_linear_Eg(P, sec["M"], sec["M_r"], sec["M_s"],
                                   sec["beta"], sec["sigma2"],
                                   sec["sigma2_tilde"], lam, noise)
                 for P in P_grid]
    else:   # ntk_sphere
        eta, degen = dot_product_kernel_spectrum(
            KernelSpec("ntk_relu", depth=sec["depth"]), sec["D"],
            sec["k_max"])
        preds = [ntk_sphere_Eg(P, sec["depth"], eta, degen, sec["abar_sq"],
                               lam, noise, radius_train=sec["radius_train"],
                               radius_test=sec["radius_test"],
                               k_stage=sec.get("k_stage"))
                 for P in P_grid]
    return _write_curve(art, "closed_form_curve.csv", preds)


def cmd_spectrum(rc, art, threads, cache_dir):
    spec = build_kernel(rc.doc["kernel"])
    sec = rc.doc["spectrum"]
    eta, degen = dot_product_kernel_spectrum(spec, sec["D"], sec["k_max"],
                                             n_quad=sec["n_quad"])
    art.write_csv("spectrum.csv", ("k", "eta", "degeneracy"),
                  [(float(k), eta[k], degen[k])
                   for k in range(len(eta))])
    return EXIT_OK


def _compare_columns(sec, key, required):
    """Read one compare input, or a ConfigError naming its path when it
    cannot be read or lacks a required column."""
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
    sec = rc.doc["compare"]
    theory = _compare_columns(sec, "theory_csv", ("P", "Eg"))
    empirical = _compare_columns(sec, "empirical_csv", EMPIRICAL_COLUMNS)
    points = [EmpiricalPoint(*row)
              for row in zip(*(empirical[name] for name in EMPIRICAL_COLUMNS))]
    try:
        report = compare_report(list(theory["Eg"]), points, band=sec["band"],
                                theory_P=list(theory["P"]))
    except _CompareInputError as exc:
        # compare_report holds the column rules; name the file at fault
        key = f"{exc.source}_csv"
        raise ConfigError(f"{sec[key]} column {exc.column} must hold "
                          f"{exc.rule}, got {exc.value!r}", f"/compare/{key}")
    art.write_json("compare.json", report)
    return EXIT_OK


def cmd_gradcheck(rc, art, threads, cache_dir):
    ds, spec, measures = _dataset_problem(rc)
    K = gram(spec, ds.X)
    sec = rc.doc["optimizer"]
    P, lam, noise, h = (sec["P_budget"], sec["lambda"], sec["noise"],
                        sec["fd_step"])
    thr = rc.doc["theory"]["rank_threshold"]
    pt = measures["test"]

    def train_loss(z):
        return predict_Eg_dataset(K, ds.Y, from_logits(z), pt, P, lam,
                                  noise, rank_threshold=thr).Eg

    z0 = np.zeros(ds.M)
    g1 = fd_gradient(train_loss, z0, h)
    rich = richardson_check(train_loss, z0, h=h, g1=g1)
    masses0 = from_logits(z0).masses
    _, pbar = predict_Eg_train_grad(K, ds.Y, masses0, pt, P, lam, noise,
                                    rank_threshold=thr)
    analytic = _softmax_chain(masses0, pbar)
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
    summary = FIGURES[rc.doc["figure"]](art, rc.seed, threads=threads)
    art.write_json("summary.json", summary)
    return EXIT_OK


# command "x-y" runs cmd_x_y
_HANDLERS = {command: globals()["cmd_" + command.replace("-", "_")]
             for command in _COMMANDS}


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
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for Monte Carlo trials "
                             "and their Gram (does not change results)")
    parser.add_argument("--cache", default=None,
                        help="directory for reusable decompositions")
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"argument --threads: must be at least 1, got "
                     f"{args.threads}")

    try:
        rc = parse_config(args.config, seed=args.seed)
        art = ArtifactDir(args.out or rc.doc.get("out", "out"))
        try:
            code = _HANDLERS[rc.command](rc, art, args.threads, args.cache)
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
    except (ValueError, OSError) as exc:
        print(f"kernelshift: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
