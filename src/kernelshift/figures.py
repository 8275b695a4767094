"""Reference experiments bundled with the package.

Each function reproduces one named study end to end: closed-form or
dataset-pipeline predictions, a Monte Carlo counterpart where one is
meaningful, CSV artifacts, and a summary dict with the headline checks.
All randomness is derived from the run seed, so reruns are identical.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np

from ._rng import rng_from
from .closedform import (_gegenbauer_sum, _ntk_tail,
                         dot_product_kernel_spectrum, general_linear_Eg,
                         ntk_sphere_Eg, optimal_ridge)
from .empirical import (EMPIRICAL_COLUMNS, compare_report,
                        run_continuous_curve, run_learning_curve)
from .kernels import KernelSpec, gram
from .measures import DiscreteMeasure
from .spectral import DEFAULT_RANK_THRESHOLD, cached_decompose
from .theory import CURVE_COLUMNS, predict_Eg_curve

__all__ = ["FIGURES", "reproduce_fig3a", "reproduce_fig3b",
           "reproduce_figSI3", "reproduce_figSI4", "reproduce_figSI5"]

def _child_seed(seed, label):
    """Independent integer seed derived from the run seed and a label."""
    return int(rng_from(seed, label).integers(2**32))


# atoms per measure in figSI3's sampled cloud, and grid points of figSI5
_SI3_ATOMS = 3000
_SI5_GRID = 401


def _write_panels(art, fig, tag_name, panels):
    """Write theory_<fig>.csv and empirical_<fig>.csv; return each tag's
    compare_report.

    panels maps a tag, the first column of both files, to its theory
    predictions and the Monte Carlo points. Each tag's report compares
    the theory at the Monte Carlo P values with those points.
    """
    theory_rows, empirical_rows, reports = [], [], {}
    for tag, (results, points) in panels.items():
        theory_rows += [(tag,) + astuple(r) for r in results]
        empirical_rows += [(tag,) + astuple(pt) for pt in points]
        Eg = {r.P: r.Eg for r in results}
        reports[tag] = compare_report([Eg[pt.P] for pt in points], points,
                                      band=3.0)
    art.write_csv(f"theory_{fig}.csv", (tag_name,) + CURVE_COLUMNS,
                  theory_rows)
    art.write_csv(f"empirical_{fig}.csv", (tag_name,) + EMPIRICAL_COLUMNS,
                  empirical_rows)
    return reports


def _rank_limited_problem(beta, M_r, D):
    """(sample_train, target, test_error) of the linear kernel, training
    inputs standard normal on the first M_r of D coordinates. The fit is
    x . w, w = X^T coef / D, with exact error ||w - beta||^2 under an
    isotropic unit-variance test measure."""
    def sample_train(rng, n):
        X = np.zeros((n, D))
        X[:, :M_r] = rng.standard_normal((n, M_r))
        return X

    def test_error(X, coef):
        w = X.T @ coef[:, 0] / D
        return float(np.sum((w - beta) ** 2))

    return sample_train, lambda X: X @ beta, test_error


def reproduce_fig3a(art, seed, trials=30, threads=1):
    """Rank-limited training measures against a full-rank test measure.

    Linear kernel in D = 120 dimensions, training inputs confined to the
    first M_r coordinates, isotropic test inputs. Closed-form curves per
    M_r next to 30-trial ridge-regression averages with the test error
    integrated exactly. Training ranks that leave target power
    unexplored produce an error plateau.
    """
    D = 120
    lam = 1e-3
    M_r_list = [30, 40, 60, 120]
    P_grid = [5, 10, 20, 40, 80, 160, 320, 640]

    rng = rng_from(seed, "fig3a-beta")
    beta = np.zeros(D)
    beta[:40] = rng.standard_normal(40)
    beta[40:59] = 0.1 * rng.standard_normal(19)

    panels = {}
    for M_r in M_r_list:
        results = [general_linear_Eg(P, D, M_r, D, beta, 1.0, 1.0, lam)
                   for P in P_grid]
        points = run_continuous_curve(
            KernelSpec("linear"), *_rank_limited_problem(beta, M_r, D),
            P_grid, lam, 0.0, trials, _child_seed(seed, f"fig3a-mc-{M_r}"),
            threads=threads)
        panels[M_r] = (results, points)
    reports = _write_panels(art, "fig3a", "M_r", panels)
    fractions = {m: reports[m]["fraction_within"] for m in M_r_list}
    irreducible = {m: panels[m][0][0].irreducible for m in M_r_list}
    n_points = len(M_r_list) * len(P_grid)
    overall = sum(fractions[m] * len(P_grid) for m in M_r_list) / n_points
    return {
        "P_grid": P_grid,
        "M_r": M_r_list,
        "trials": trials,
        "fraction_within": {str(m): fractions[m] for m in M_r_list},
        "fraction_overall": overall,
        "max_abs_z": max(rep["max_abs_z"] for rep in reports.values()),
        "irreducible": {str(m): irreducible[m] for m in M_r_list},
        "plateau": {str(m): bool(irreducible[m] > 1e-6) for m in M_r_list},
    }


def reproduce_fig3b(art, seed, trials=30, threads=1):
    """Ridge sweep around the error-optimal regularization.

    Same geometry as the rank-limited study at M_r = 40, D = 120, label
    noise 0.1, unit in-support target power, test error integrated
    exactly. The ridge M_r * noise / D minimizes the predicted error at
    every sample size; the ridgeless curve diverges where samples match
    the training rank.
    """
    D, M_r = 120, 40
    noise = 0.1
    rng = rng_from(seed, "fig3b-beta")
    beta = np.zeros(D)
    b = rng.standard_normal(M_r)
    beta[:M_r] = b / np.linalg.norm(b)

    lam_star = optimal_ridge(M_r, D, noise, target_power=1.0)
    lam_grid = [0.0, 1e-3, lam_star, 0.3]
    P_theory = list(range(4, 201, 4))
    P_mc = [8, 16, 24, 32, 40, 48, 64, 96, 128, 196]

    panels = {}
    curves = {}
    diverged_points = []
    for lam in lam_grid:
        results = [general_linear_Eg(P, D, M_r, D, beta, 1.0, 1.0, lam,
                                     noise) for P in P_theory]
        curves[lam] = [r.Eg for r in results]
        diverged_points += [{"lam": lam, "P": P}
                            for P, r in zip(P_theory, results)
                            if r.diverged]
        points = run_continuous_curve(
            KernelSpec("linear"), *_rank_limited_problem(beta, M_r, D),
            P_mc, lam, noise, trials, _child_seed(seed, f"fig3b-mc-{lam}"),
            threads=threads)
        panels[lam] = (results, points)
    reports = _write_panels(art, "fig3b", "lambda", panels)

    # diverged points are inf, so they never beat the optimal ridge
    star = np.array(curves[lam_star])
    pointwise = all(np.all(star <= np.array(curves[lam]) + 1e-12)
                    for lam in lam_grid)
    return {
        "lambda_star": lam_star,
        "lambda_grid": lam_grid,
        "P_grid": P_theory,
        "pointwise_optimal": bool(pointwise),
        "diverged_points": diverged_points,
        "fraction_within": {f"{lam:.17g}": reports[lam]["fraction_within"]
                            for lam in lam_grid},
    }


def _discretized_crosscheck(seed, label, M, M_r, M_s, beta, lam, noise,
                            P_values):
    """Closed form vs the generic pipeline on a sampled atom cloud.

    Draws _SI3_ATOMS training and _SI3_ATOMS test inputs from the two
    Gaussian densities, runs the spectral pipeline on the union with
    the appropriate masses, and reports both predictions per P.  The
    decomposition builds the kernel on the training atoms and the test
    atoms' rows against them, never the Gram of the union.
    """
    rng = rng_from(seed, label)
    dim = max(M, M_r, M_s)
    Z_train = np.zeros((_SI3_ATOMS, dim))
    Z_train[:, :M_r] = rng.standard_normal((_SI3_ATOMS, M_r))
    Z_test = np.zeros((_SI3_ATOMS, dim))
    Z_test[:, :M_s] = rng.standard_normal((_SI3_ATOMS, M_s))
    Z = np.vstack([Z_train, Z_test])
    Y = Z @ np.asarray(beta)[:dim]
    masses_p = np.concatenate([np.full(_SI3_ATOMS, 1.0 / _SI3_ATOMS),
                               np.zeros(_SI3_ATOMS)])
    masses_pt = np.concatenate([np.zeros(_SI3_ATOMS),
                                np.full(_SI3_ATOMS, 1.0 / _SI3_ATOMS)])
    dec = cached_decompose(KernelSpec("linear"), Z[:, :M], masses_p,
                           DEFAULT_RANK_THRESHOLD, None)
    preds = predict_Eg_curve(dec, Y, masses_pt, P_values, lam, noise)
    rows = []
    for P, pred in zip(P_values, preds):
        closed = general_linear_Eg(P, M, M_r, M_s, beta, 1.0, 1.0, lam,
                                   noise).Eg
        rel = abs(pred.Eg - closed) / abs(closed) if closed else np.inf
        rows.append((float(P), closed, pred.Eg, rel))
    return rows


def reproduce_figSI3(art, seed, threads=1):
    """Kernel rank below the data rank: peak without noise, decay to zero.

    Panel a: a 20-direction kernel learning 30-direction data shows a
    sample-wise error peak at P = 20 even with noiseless labels, because
    unexpressed target power acts as effective noise. Panel b: when the
    test measure stays within 15 expressed-and-trained directions the
    error decays to zero despite the same unexpressed power. Both closed
    forms are cross-checked against the dataset pipeline on a sampled
    discretization of the two measures. It runs no Monte Carlo, so
    threads is unused.
    """
    M, M_r = 20, 30
    lam = 1e-2
    rng = rng_from(seed, "figSI3-beta")
    b = rng.standard_normal(M_r)
    beta = b / np.linalg.norm(b)

    P_a = sorted(set(list(range(2, 41, 2)) + [50, 60, 80, 120, 200, 400]))
    P_b = P_a + [1000, 4000]
    # a Q-atom cloud resolves the continuum only for P well below Q, so
    # the pipeline comparison stops at Q/50
    P_cross = [p for p in (2, 6, 10, 14, 20, 28, 40, 60, 100)
               if p <= _SI3_ATOMS // 50]

    panels = {"a": {"M_s": 30, "P": P_a}, "b": {"M_s": 15, "P": P_b}}
    summary = {}
    for name, cfg in panels.items():
        M_s = cfg["M_s"]
        results = [general_linear_Eg(P, M, M_r, M_s, beta, 1.0, 1.0, lam)
                   for P in cfg["P"]]
        art.write_csv(f"theory_figSI3{name}.csv", CURVE_COLUMNS,
                      map(astuple, results))
        cross = _discretized_crosscheck(
            seed, f"figSI3-cloud-{name}", M, M_r, M_s, beta, lam, 0.0,
            P_cross)
        art.write_csv(f"pipeline_figSI3{name}.csv",
                      ("P", "Eg_closed", "Eg_pipeline", "rel_err"), cross)
        Eg = {P: r.Eg for P, r in zip(cfg["P"], results)}
        summary[name] = {
            "M_s": M_s,
            "Eg_peak": Eg[20],
            "peak": bool(Eg[20] > Eg[10] and Eg[20] > Eg[40]),
            "Eg_tail": Eg[cfg["P"][-1]],
            "max_rel_err": max(r[3] for r in cross),
        }
    summary["b"]["decays_to_zero"] = bool(
        summary["b"]["Eg_tail"] < 1e-2 * summary["b"]["Eg_peak"])
    return summary


def reproduce_figSI4(art, seed, trials=30, threads=1):
    """Neural-tangent kernel on concentric spheres.

    Depth-2 ReLU tangent kernel, training inputs on the unit sphere in
    10 dimensions, linear target. Testing on a sphere of half the
    radius rescales every mode overlap by the squared radius ratio, so
    that curve sits strictly below the matched-radius one. Both theory
    curves are checked against 30-trial Monte Carlo averages. The kernel
    is homogeneous of degree 1 in each argument, so by Funk-Hecke a fit
    has the exact error r^2 [c^T A c - 2 eta_1 c^T X beta + |beta|^2/D]
    on the radius-r sphere, A_ij = sum_k eta_k^2 N_k G_k(x_i.x_j)/G_k(1).
    """
    D = 10
    depth = 2
    lam = 0.01
    noise = 0.05
    k_max = 30
    radii = [1.0, 0.5]
    P_grid = [5, 10, 20, 40, 80, 160, 320]

    spec = KernelSpec("ntk_relu", depth=depth)
    eta, degen = dot_product_kernel_spectrum(spec, D, k_max)
    trace, tail_eta = _ntk_tail(depth, eta, degen)
    abar_sq = [0.0, 1.0]   # all target power in degree one

    art.write_csv("spectrum_figSI4.csv", ("k", "eta", "degeneracy"),
                  [(float(k), eta[k], degen[k]) for k in range(k_max + 1)])

    rng = rng_from(seed, "figSI4-beta")
    b = rng.standard_normal(D)
    beta = b / np.linalg.norm(b) * np.sqrt(D)

    def sample_train(rng, n):
        g = rng.standard_normal((n, D))
        return g / np.linalg.norm(g, axis=1, keepdims=True)

    def sphere_error(X, coef, r2):
        c = coef[:, 0]
        A = _gegenbauer_sum(eta**2 * degen, D, X @ X.T)
        return float(r2 * (c @ A @ c - 2.0 * eta[1] * (c @ (X @ beta))
                           + beta @ beta / D))

    panels = {}
    for radius in radii:
        results = [ntk_sphere_Eg(P, depth, eta, degen, abar_sq, lam, noise,
                                 radius_test=radius) for P in P_grid]
        points = run_continuous_curve(
            spec, sample_train, lambda X: X @ beta,
            lambda X, coef: sphere_error(X, coef, radius**2), P_grid, lam,
            noise, trials, _child_seed(seed, f"figSI4-mc-{radius}"),
            threads=threads)
        panels[radius] = (results, points)
    reports = _write_panels(art, "figSI4", "radius", panels)
    curves = {r: np.array([res.Eg for res in panels[r][0]]) for r in radii}
    below = bool(np.all(curves[0.5] < curves[1.0]))
    return {
        "P_grid": P_grid,
        "radii": radii,
        "below_everywhere": below,
        "fraction_within": {f"{r:g}": reports[r]["fraction_within"]
                            for r in radii},
        "max_abs_z": max(rep["max_abs_z"] for rep in reports.values()),
        "kernel_trace": trace,
        "tail_eta": tail_eta,
    }


def reproduce_figSI5(art, seed, trials=30, threads=1):
    """Band-limited kernel under interval versus Gaussian training densities.

    A kernel spanning sixteen Fourier modes on [-1, 1] is trained once on
    a narrow uniform interval and once on a Gaussian of the same variance,
    both tested uniformly on the full interval. Restriction to the narrow
    interval makes the high-frequency modes numerically dependent, so the
    spectral rank drops and unreachable target power becomes an error
    floor; the Gaussian density keeps all sixteen modes resolvable.
    """
    n_modes = 8
    rank = 2 * n_modes
    half_width = 0.3
    sigma = half_width / np.sqrt(3.0)
    lam = 1e-4
    P_grid = [2, 4, 8, 16, 32, 64, 128]

    x = np.linspace(-1.0, 1.0, _SI5_GRID)
    X = x[:, None]
    spec = KernelSpec("fourier_bandlimited", n_modes=n_modes)
    K = gram(spec, X)

    rng = rng_from(seed, "figSI5-target")
    c = rng.standard_normal(n_modes)
    s = rng.standard_normal(n_modes)
    Y = np.zeros(_SI5_GRID)
    for k in range(1, n_modes + 1):
        Y += c[k - 1] * np.cos(k * np.pi * x) + s[k - 1] * np.sin(k * np.pi * x)
    Y /= np.sqrt(np.mean(Y**2))

    rect = np.where(np.abs(x) <= half_width, 1.0, 0.0)
    gauss = np.exp(-x**2 / (2.0 * sigma**2))
    train_measures = {
        "rect": DiscreteMeasure(rect / rect.sum()),
        "gauss": DiscreteMeasure(gauss / gauss.sum()),
    }
    pt = DiscreteMeasure(np.full(_SI5_GRID, 1.0 / _SI5_GRID))

    panels = {}
    eig_rows = []
    summary = {}
    for name, p in train_measures.items():
        dec = cached_decompose(spec, X, p, DEFAULT_RANK_THRESHOLD, None)
        eig_rows += [(name, float(i), val)
                     for i, val in enumerate(dec.eigenvalues)]
        preds = predict_Eg_curve(dec, Y, pt, P_grid, lam, 0.0)
        points = run_learning_curve(K, Y, p, pt, P_grid, lam, 0.0, trials,
                                    _child_seed(seed, f"figSI5-mc-{name}"),
                                    threads=threads)
        panels[name] = (preds, points)
        summary[name] = {
            "kernel_rank": rank,
            "resolved_modes": int(dec.rank),
            "support_size": int(dec.n_modes),
            "irreducible": preds[-1].irreducible,
            "Eg_floor_mc": points[-1].Eg_mean,
        }

    _write_panels(art, "figSI5", "measure", panels)
    art.write_csv("eigenvalues_figSI5.csv", ("measure", "index", "eta"),
                  eig_rows)
    summary["rect"]["collapsed_within_kernel"] = bool(
        summary["rect"]["resolved_modes"] < rank)
    summary["gauss"]["collapsed_within_kernel"] = bool(
        summary["gauss"]["resolved_modes"] < rank)
    return summary


FIGURES = {
    "fig3a": reproduce_fig3a,
    "fig3b": reproduce_fig3b,
    "figSI3": reproduce_figSI3,
    "figSI4": reproduce_figSI4,
    "figSI5": reproduce_figSI5,
}
