"""Reference experiments bundled with the package.

Each function reproduces one named study end to end: closed-form or
dataset-pipeline predictions, a Monte Carlo counterpart where one is
meaningful, CSV artifacts, and a summary dict with the headline checks.
All randomness is derived from the run seed, so reruns are identical.
"""

from __future__ import annotations

import numpy as np

from ._rng import rng_from
from .closedform import (dot_product_kernel_spectrum, general_linear_Eg,
                         mode_spectrum_Eg, optimal_ridge)
from .empirical import (EMPIRICAL_COLUMNS, _fit_fresh_gram, _run_trials,
                        compare_report, run_continuous_curve,
                        run_learning_curve)
from .kernels import KernelSpec, gram, ntk_relu_eval
from .measures import DiscreteMeasure
from .spectral import mercer_decompose
from .theory import CURVE_COLUMNS, predict_Eg_curve, prediction_row

__all__ = ["FIGURES", "reproduce_fig3a", "reproduce_fig3b",
           "reproduce_figSI3", "reproduce_figSI4", "reproduce_figSI5"]

def _child_seed(seed, label):
    """Independent integer seed derived from the run seed and a label."""
    return int(rng_from(seed, label).integers(2**32))


def _empirical_rows(tag, points):
    return [(tag, pt.P, pt.Eg_mean, pt.Eg_std, pt.Eg_stderr, pt.trials)
            for pt in points]


def _isotropic_linear_curve(beta, M_r, D, P_values, lam, noise, trials,
                            seed, threads=1):
    """Learning curve with the test-measure integral done in closed form.

    For the linear kernel the fitted function is x . w, so its error
    under an isotropic unit-variance test measure is exactly
    ||w - beta||^2. Averaging that over training draws leaves training
    randomness as the only noise source in the trial statistics.
    """
    spec = KernelSpec("linear")

    def task(P, t):
        rng = rng_from(seed, "trial", P, t)
        X = np.zeros((int(P), D))
        X[:, :M_r] = rng.standard_normal((int(P), M_r))
        y = (X @ beta)[:, None]
        if noise > 0:
            y = y + np.sqrt(noise) * rng.standard_normal(y.shape)
        coef = _fit_fresh_gram(gram(spec, X), y, lam)
        w = X.T @ coef[:, 0] / D
        return float(np.sum((w - beta) ** 2))

    return _run_trials(task, P_values, trials, threads)


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

    theory_rows = []
    empirical_rows = []
    fractions = {}
    irreducible = {}
    max_abs_z = 0.0
    for M_r in M_r_list:
        results = [general_linear_Eg(P, D, M_r, D, beta, 1.0, 1.0, lam)
                   for P in P_grid]
        theory_rows += [(float(M_r),) + prediction_row(P, r)
                        for P, r in zip(P_grid, results)]
        irreducible[M_r] = results[0].irreducible

        points = _isotropic_linear_curve(
            beta, M_r, D, P_grid, lam, 0.0, trials,
            _child_seed(seed, f"fig3a-mc-{M_r}"), threads=threads)
        empirical_rows += _empirical_rows(float(M_r), points)
        rep = compare_report([r.Eg for r in results], points, band=3.0,
                             theory_P=P_grid)
        fractions[M_r] = rep["fraction_within"]
        max_abs_z = max(max_abs_z, rep["max_abs_z"])

    art.write_csv("theory_fig3a.csv", ("M_r",) + CURVE_COLUMNS, theory_rows)
    art.write_csv("empirical_fig3a.csv", ("M_r",) + EMPIRICAL_COLUMNS,
                  empirical_rows)
    n_points = len(M_r_list) * len(P_grid)
    overall = sum(fractions[m] * len(P_grid) for m in M_r_list) / n_points
    return {
        "P_grid": P_grid,
        "M_r": M_r_list,
        "trials": trials,
        "fraction_within": {str(m): fractions[m] for m in M_r_list},
        "fraction_overall": overall,
        "max_abs_z": max_abs_z,
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

    theory_rows = []
    empirical_rows = []
    curves = {}
    diverged_points = []
    compare_frac = {}
    for lam in lam_grid:
        results = [general_linear_Eg(P, D, M_r, D, beta, 1.0, 1.0, lam,
                                     noise) for P in P_theory]
        curves[lam] = [r.Eg for r in results]
        theory_rows += [(lam,) + prediction_row(P, r)
                        for P, r in zip(P_theory, results)]
        diverged_points += [{"lam": lam, "P": P}
                            for P, r in zip(P_theory, results)
                            if r.state.diverged]
        points = _isotropic_linear_curve(
            beta, M_r, D, P_mc, lam, noise, trials,
            _child_seed(seed, f"fig3b-mc-{lam}"), threads=threads)
        empirical_rows += _empirical_rows(lam, points)
        idx = [P_theory.index(P) for P in P_mc]
        rep = compare_report([curves[lam][i] for i in idx], points,
                             band=3.0, theory_P=P_mc)
        compare_frac[lam] = rep["fraction_within"]

    art.write_csv("theory_fig3b.csv", ("lambda",) + CURVE_COLUMNS,
                  theory_rows)
    art.write_csv("empirical_fig3b.csv", ("lambda",) + EMPIRICAL_COLUMNS,
                  empirical_rows)

    star = np.array(curves[lam_star])
    pointwise = True
    for lam in lam_grid:
        if lam == lam_star:
            continue
        other = np.array(curves[lam])
        other = np.where(np.isfinite(other), other, np.inf)
        if not np.all(star <= other + 1e-12):
            pointwise = False
    return {
        "lambda_star": lam_star,
        "lambda_grid": lam_grid,
        "P_grid": P_theory,
        "pointwise_optimal": bool(pointwise),
        "diverged_points": diverged_points,
        "fraction_within": {f"{lam:.17g}": compare_frac[lam]
                            for lam in lam_grid},
    }


def _discretized_crosscheck(seed, label, M, M_r, M_s, beta, lam, noise,
                            P_values, n_atoms):
    """Closed form vs the generic pipeline on a sampled atom cloud.

    Draws n_atoms training and n_atoms test inputs from the two
    Gaussian densities, runs the spectral pipeline on the union with
    the appropriate masses, and reports both predictions per P.
    """
    rng = rng_from(seed, label)
    dim = max(M, M_r, M_s)
    Z_train = np.zeros((n_atoms, dim))
    Z_train[:, :M_r] = rng.standard_normal((n_atoms, M_r))
    Z_test = np.zeros((n_atoms, dim))
    Z_test[:, :M_s] = rng.standard_normal((n_atoms, M_s))
    Z = np.vstack([Z_train, Z_test])
    K = gram(KernelSpec("linear"), Z[:, :M])
    Y = Z @ np.asarray(beta)[:dim]
    masses_p = np.concatenate([np.full(n_atoms, 1.0 / n_atoms),
                               np.zeros(n_atoms)])
    masses_pt = np.concatenate([np.zeros(n_atoms),
                                np.full(n_atoms, 1.0 / n_atoms)])
    p = DiscreteMeasure(masses_p)
    pt = DiscreteMeasure(masses_pt)
    preds = predict_Eg_curve(mercer_decompose(K, p), Y, pt, P_values, lam,
                             noise)
    rows = []
    for P, pred in zip(P_values, preds):
        closed = general_linear_Eg(P, M, M_r, M_s, beta, 1.0, 1.0, lam,
                                   noise).Eg
        rel = abs(pred.Eg - closed) / abs(closed) if closed else np.inf
        rows.append((float(P), closed, pred.Eg, rel))
    return rows


def reproduce_figSI3(art, seed, trials=30, threads=1, n_atoms=3000):
    """Kernel rank below the data rank: peak without noise, decay to zero.

    Panel a: a 20-direction kernel learning 30-direction data shows a
    sample-wise error peak at P = 20 even with noiseless labels, because
    unexpressed target power acts as effective noise. Panel b: when the
    test measure stays within 15 expressed-and-trained directions the
    error decays to zero despite the same unexpressed power. Both closed
    forms are cross-checked against the dataset pipeline on a sampled
    discretization of the two measures.
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
               if p <= n_atoms // 50]

    panels = {"a": {"M_s": 30, "P": P_a}, "b": {"M_s": 15, "P": P_b}}
    summary = {}
    for name, cfg in panels.items():
        M_s = cfg["M_s"]
        results = [general_linear_Eg(P, M, M_r, M_s, beta, 1.0, 1.0, lam)
                   for P in cfg["P"]]
        art.write_csv(f"theory_figSI3{name}.csv", CURVE_COLUMNS,
                      [prediction_row(P, r)
                       for P, r in zip(cfg["P"], results)])
        cross = _discretized_crosscheck(
            seed, f"figSI3-cloud-{name}", M, M_r, M_s, beta, lam, 0.0,
            P_cross, n_atoms)
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


def reproduce_figSI4(art, seed, trials=30, threads=1, test_points=10000):
    """Neural-tangent kernel on concentric spheres.

    Depth-2 ReLU tangent kernel, training inputs on the unit sphere in
    10 dimensions, linear target. Testing on a sphere of half the
    radius rescales every mode overlap by the squared radius ratio, so
    that curve sits strictly below the matched-radius one. Both theory
    curves are checked against 30-trial Monte Carlo averages.
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
    trace = float(ntk_relu_eval(depth, np.array(1.0), np.array(1.0),
                                np.array(1.0)))
    tail_eta = max(trace - float(np.sum(eta * degen)), 0.0)
    abar_sq = np.zeros(k_max + 1)
    abar_sq[1] = 1.0

    art.write_csv("spectrum_figSI4.csv", ("k", "eta", "degeneracy"),
                  [(float(k), eta[k], degen[k]) for k in range(k_max + 1)])

    rng = rng_from(seed, "figSI4-beta")
    b = rng.standard_normal(D)
    beta = b / np.linalg.norm(b) * np.sqrt(D)

    def target(X):
        return X @ beta

    def sample_train(rng, n):
        g = rng.standard_normal((n, D))
        return g / np.linalg.norm(g, axis=1, keepdims=True)

    theory_rows = []
    empirical_rows = []
    curves = {}
    fractions = {}
    max_abs_z = 0.0
    for radius in radii:
        results = [mode_spectrum_Eg(eta, degen, abar_sq, P, lam, noise,
                                    overlap_scale=radius**2,
                                    tail_eta=tail_eta) for P in P_grid]
        curves[radius] = [r.Eg for r in results]
        theory_rows += [(radius,) + prediction_row(P, r)
                        for P, r in zip(P_grid, results)]
        g = rng_from(seed, "figSI4-test", round(10 * radius)) \
            .standard_normal((test_points, D))
        test_X = radius * g / np.linalg.norm(g, axis=1, keepdims=True)
        points = run_continuous_curve(
            spec, sample_train, target, test_X, P_grid, lam, noise, trials,
            _child_seed(seed, f"figSI4-mc-{radius}"), threads=threads)
        empirical_rows += _empirical_rows(radius, points)
        rep = compare_report(curves[radius], points, band=3.0,
                             theory_P=P_grid)
        fractions[radius] = rep["fraction_within"]
        max_abs_z = max(max_abs_z, rep["max_abs_z"])

    art.write_csv("theory_figSI4.csv", ("radius",) + CURVE_COLUMNS,
                  theory_rows)
    art.write_csv("empirical_figSI4.csv", ("radius",) + EMPIRICAL_COLUMNS,
                  empirical_rows)
    below = bool(np.all(np.array(curves[0.5]) < np.array(curves[1.0])))
    return {
        "P_grid": P_grid,
        "radii": radii,
        "below_everywhere": below,
        "fraction_within": {f"{r:g}": fractions[r] for r in radii},
        "max_abs_z": max_abs_z,
        "kernel_trace": trace,
        "tail_eta": tail_eta,
    }


def reproduce_figSI5(art, seed, trials=30, threads=1, grid_points=401):
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

    x = np.linspace(-1.0, 1.0, grid_points)
    X = x[:, None]
    spec = KernelSpec("fourier_bandlimited", n_modes=n_modes)
    K = gram(spec, X)

    rng = rng_from(seed, "figSI5-target")
    c = rng.standard_normal(n_modes)
    s = rng.standard_normal(n_modes)
    Y = np.zeros(grid_points)
    for k in range(1, n_modes + 1):
        Y += c[k - 1] * np.cos(k * np.pi * x) + s[k - 1] * np.sin(k * np.pi * x)
    Y /= np.sqrt(np.mean(Y**2))

    rect = np.where(np.abs(x) <= half_width, 1.0, 0.0)
    gauss = np.exp(-x**2 / (2.0 * sigma**2))
    train_measures = {
        "rect": DiscreteMeasure(rect / rect.sum()),
        "gauss": DiscreteMeasure(gauss / gauss.sum()),
    }
    pt = DiscreteMeasure(np.full(grid_points, 1.0 / grid_points))

    theory_rows = []
    empirical_rows = []
    eig_rows = []
    summary = {}
    for name, p in train_measures.items():
        dec = mercer_decompose(K, p)
        eig_rows += [(name, float(i), val)
                     for i, val in enumerate(dec.eigenvalues)]
        preds = predict_Eg_curve(dec, Y, pt, P_grid, lam, 0.0)
        theory_rows += [(name,) + prediction_row(P, pr)
                        for P, pr in zip(P_grid, preds)]
        points = run_learning_curve(K, Y[:, None], p, pt, P_grid, lam, 0.0,
                                    trials,
                                    _child_seed(seed, f"figSI5-mc-{name}"),
                                    threads=threads)
        empirical_rows += _empirical_rows(name, points)
        summary[name] = {
            "kernel_rank": rank,
            "resolved_modes": int(dec.rank),
            "support_size": int(dec.n_modes),
            "irreducible": preds[-1].irreducible,
            "Eg_floor_mc": points[-1].Eg_mean,
        }

    art.write_csv("theory_figSI5.csv", ("measure",) + CURVE_COLUMNS,
                  theory_rows)
    art.write_csv("empirical_figSI5.csv", ("measure",) + EMPIRICAL_COLUMNS,
                  empirical_rows)
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
