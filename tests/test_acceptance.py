"""End-to-end acceptance gate.

Each test exercises one headline requirement, prints a single
ACCEPTANCE line with the measured numbers, and then asserts. The
figure-level tests run the bundled reference experiments at seed 0.
"""

import json
import os
import time

import numpy as np

from kernelshift.cli import main
from kernelshift.empirical import run_learning_curve
from kernelshift.figures import (reproduce_fig3a, reproduce_fig3b,
                                 reproduce_figSI3, reproduce_figSI4,
                                 reproduce_figSI5)
from kernelshift.io import ArtifactDir
from kernelshift.kernels import KernelSpec, gram
from kernelshift.measures import from_logits, uniform_measure
from kernelshift.optimizer import (OptimizerConfig, optimize_test_measure,
                                   optimize_train_measure, richardson_check)
from kernelshift.spectral import mercer_decompose
from kernelshift.theory import (pointwise_error_density, predict_Eg_curve,
                                predict_Eg_dataset, solve_kappa)
from test_closedform import kappa_prime_flat
from test_spectral import cross_overlap_diagnostics


def _line(n, ok, detail):
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"acceptance {n}: {detail}"


def test_acceptance_01_rank_limited_curves(tmp_path):
    art = ArtifactDir(str(tmp_path / "fig3a"))
    t0 = time.monotonic()
    s = reproduce_fig3a(art, seed=0)
    elapsed = time.monotonic() - t0
    frac = s["fraction_overall"]
    plateau = s["plateau"]
    ok = (frac >= 0.9
          and plateau["30"] and plateau["40"]
          and not plateau["60"] and not plateau["120"]
          and elapsed < 300.0)
    _line(1, ok,
          f"theory within 3 SE at {frac:.0%} of grid points "
          f"(max |z| {s['max_abs_z']:.2f}), plateau flags "
          f"{{30: {plateau['30']}, 40: {plateau['40']}, "
          f"60: {plateau['60']}, 120: {plateau['120']}}}, "
          f"{elapsed:.1f}s")


def test_acceptance_02_optimal_ridge_sweep(tmp_path):
    art = ArtifactDir(str(tmp_path / "fig3b"))
    s = reproduce_fig3b(art, seed=0)
    ridgeless_at_rank = any(d["lam"] == 0.0 and d["P"] == 40
                            for d in s["diverged_points"])
    ok = (abs(s["lambda_star"] - 1.0 / 30.0) < 1e-12
          and s["pointwise_optimal"]
          and ridgeless_at_rank)
    _line(2, ok,
          f"lambda*={s['lambda_star']:.6g} pointwise optimal="
          f"{s['pointwise_optimal']}, ridgeless divergence at P=40="
          f"{ridgeless_at_rank}")


def test_acceptance_03_matched_measure_reduction():
    rng = np.random.default_rng(30)
    kinds = ("linear", "rbf", "laplace")
    worst = 0.0
    for i in range(50):
        M = int(rng.integers(5, 101))
        D = int(rng.integers(2, 6))
        X = rng.standard_normal((M, D))
        Y = np.tanh(X @ rng.standard_normal(D))[:, None]
        spec = KernelSpec(kinds[i % 3], lengthscale=1.0 + rng.random()) \
            if kinds[i % 3] != "linear" else KernelSpec("linear")
        K = gram(spec, X)
        p = from_logits(0.5 * rng.standard_normal(M))
        P = int(rng.integers(1, 2 * M))
        pred = predict_Eg_dataset(K, Y, p, p, P, lam=0.1 + rng.random(),
                                  noise=0.05)
        worst = max(worst, abs(pred.Eg - pred.Eg_matched))
    ok = worst < 1e-10
    _line(3, ok, f"identity-overlap reduction max |Eg - Eg_matched| = "
                 f"{worst:.2e} over 50 instances (tol 1e-10)")


def test_acceptance_04_kappa_residual_and_closed_form():
    rng = np.random.default_rng(40)
    worst_res = 0.0
    for _ in range(30):
        n = int(rng.integers(3, 60))
        eta = 10.0 ** rng.uniform(-4, 0, n)
        P = float(10.0 ** rng.uniform(0, 3))
        lam = float(rng.choice([0.0, 0.01, 0.3]))
        sol = solve_kappa(eta, P, lam)
        if sol.kappa > 0:
            worst_res = max(worst_res, sol.residual)
    D, M_r, sigma2 = 120, 40, 1.0
    unit = sigma2 * M_r / D
    eta = np.full(M_r, sigma2 / D)
    worst_cf = 0.0
    for alpha in np.geomspace(0.1, 10.0, 13):
        for lam_tilde in (0.0, 0.1, 1.0):
            kappa = solve_kappa(eta, alpha * M_r, lam_tilde * unit).kappa
            ref = kappa_prime_flat(alpha, lam_tilde)
            worst_cf = max(worst_cf, abs(kappa / unit - ref))
    ok = worst_res < 1e-12 and worst_cf < 1e-10
    _line(4, ok, f"kappa fixed-point residual {worst_res:.2e} (tol 1e-12); "
                 f"flat-spectrum closed form deviation {worst_cf:.2e} "
                 f"(tol 1e-10)")


def test_acceptance_05_cross_overlap_identities():
    rng = np.random.default_rng(50)
    worst = 0.0
    for _ in range(20):
        M = int(rng.integers(4, 21))
        X = rng.standard_normal((M, 3))
        K = gram(KernelSpec("rbf", lengthscale=1.0 + rng.random()), X)
        p = from_logits(0.5 * rng.standard_normal(M))
        pt = from_logits(0.5 * rng.standard_normal(M))
        d = cross_overlap_diagnostics(K, p, pt)
        worst = max(worst, d.resid_inverse, d.resid_overlap,
                    d.resid_eigenvalues)
    ok = worst < 1e-7
    _line(5, ok, f"inverse/overlap/eigenvalue identities max residual "
                 f"{worst:.2e} over 20 instances (tol 1e-7)")


def test_acceptance_06_test_measure_structure():
    rng = np.random.default_rng(60)
    # linearity of the error in the test masses
    worst_lin = 0.0
    for _ in range(5):
        M = int(rng.integers(6, 25))
        X = rng.standard_normal((M, 3))
        Y = np.sign(X[:, :1]) + 0.1 * rng.standard_normal((M, 1))
        K = gram(KernelSpec("rbf", lengthscale=1.3), X)
        p = from_logits(0.3 * rng.standard_normal(M))
        dec = mercer_decompose(K, p)
        c = pointwise_error_density(dec, Y, P=M // 2, lam=0.05,
                                    noise=0.02)
        for _ in range(3):
            pt = from_logits(rng.standard_normal(M))
            direct = predict_Eg_curve(dec, Y, pt, [M // 2], 0.05,
                                      0.02)[0].Eg
            worst_lin = max(worst_lin, abs(direct - pt.masses @ c))

    # the exact optimum is a Dirac on the density argmin (argmax for
    # ascent); distinct densities leave no tie
    cfg = dict(P_budget=c.shape[0] // 2, lam=0.05, noise=0.02)
    down = optimize_test_measure(dec, Y, OptimizerConfig(**cfg))
    up = optimize_test_measure(
        dec, Y, OptimizerConfig(**dict(cfg, mode="ascent")))
    mass_on_argmin = float(down.final_measure.masses[np.argmin(c)])
    mass_on_argmax = float(up.final_measure.masses[np.argmax(c)])
    matched = predict_Eg_curve(dec, Y, p, [c.shape[0] // 2], 0.05,
                               0.02)[0].Eg
    ordered = down.Eg[-1] <= matched <= up.Eg[-1]

    ok = (worst_lin < 1e-10 and mass_on_argmin == 1.0
          and mass_on_argmax == 1.0 and ordered)
    _line(6, ok,
          f"linearity {worst_lin:.2e} (tol 1e-10), argmin mass "
          f"{mass_on_argmin!r} and argmax mass {mass_on_argmax!r} (== 1), "
          f"beneficial {down.Eg[-1]:.4f} <= matched {matched:.4f} <= "
          f"detrimental {up.Eg[-1]:.4f}: {ordered}")


def test_acceptance_07_train_measure_optimization():
    # two Gaussian clusters in four dimensions, 180 + 20 points with
    # labels +-1, uniform test measure over all 200 points
    rng = np.random.default_rng(212)
    nA, nB, D = 180, 20, 4
    XA = rng.standard_normal((nA, D))
    XA[:, 0] += 2.0
    XB = rng.standard_normal((nB, D))
    XB[:, 0] -= 2.0
    X = np.vstack([XA, XB])
    Y = np.concatenate([np.ones(nA), -np.ones(nB)])[:, None]
    K = gram(KernelSpec("rbf", lengthscale=2.0), X)
    M, P, lam = 200, 30, 1e-3
    pt = uniform_measure(M)

    base = predict_Eg_dataset(K, Y, pt, pt, P, lam, 0.0).Eg
    cfg = OptimizerConfig(P_budget=P, lam=lam, steps=15, learning_rate=3.0)
    trace = optimize_train_measure(K, Y, pt, cfg)
    gain = 1.0 - trace.Eg[-1] / base

    unif = run_learning_curve(K, Y, pt, pt, [P], lam, 0.0, trials=30,
                              seed=77)[0]
    opt = run_learning_curve(K, Y, trace.final_measure, pt, [P], lam, 0.0,
                             trials=30, seed=77)[0]
    se = float(np.hypot(unif.Eg_stderr, opt.Eg_stderr))
    confirmed = opt.Eg_mean <= unif.Eg_mean + 2.0 * se

    rich = richardson_check(
        lambda z: predict_Eg_dataset(K, Y, from_logits(z), pt, P, lam,
                                     0.0).Eg,
        np.zeros(M), h=1e-4)

    ok = gain >= 0.10 and confirmed and rich < 1e-4
    _line(7, ok,
          f"theory gain {gain:.1%} (>=10%), Monte Carlo optimized "
          f"{opt.Eg_mean:.4f} vs uniform {unif.Eg_mean:.4f} "
          f"(2 SE = {2 * se:.4f}, ordering confirmed={confirmed}), "
          f"Richardson {rich:.2e} (tol 1e-4)")


def test_acceptance_08_under_expressive_kernel(tmp_path):
    art = ArtifactDir(str(tmp_path / "figSI3"))
    s = reproduce_figSI3(art, seed=0)
    rel = max(s["a"]["max_rel_err"], s["b"]["max_rel_err"])
    ok = (s["a"]["peak"] and s["b"]["decays_to_zero"] and rel < 0.03)
    _line(8, ok,
          f"noiseless double-descent peak={s['a']['peak']}, error at "
          f"P=4000 decays to {s['b']['Eg_tail']:.2e}, pipeline "
          f"crosscheck max rel err {rel:.1%} (tol 3%)")


def test_acceptance_09_ntk_sphere_radii(tmp_path):
    art = ArtifactDir(str(tmp_path / "figSI4"))
    s = reproduce_figSI4(art, seed=0)
    fr = s["fraction_within"]
    ok = (s["below_everywhere"] and fr["1"] == 1.0 and fr["0.5"] == 1.0)
    _line(9, ok,
          f"half-radius curve below everywhere={s['below_everywhere']}, "
          f"all points within 3 SE (fractions {fr['1']:.2f}, "
          f"{fr['0.5']:.2f}), max |z| {s['max_abs_z']:.2f}")


def test_acceptance_10_spectral_collapse_flags(tmp_path):
    art = ArtifactDir(str(tmp_path / "figSI5"))
    s = reproduce_figSI5(art, seed=0)
    rect, gauss = s["rect"], s["gauss"]
    ok = (rect["collapsed_within_kernel"] and rect["irreducible"] > 0.0
          and not gauss["collapsed_within_kernel"]
          and gauss["irreducible"] < 1e-8)
    _line(10, ok,
          f"narrow interval: {rect['resolved_modes']}/"
          f"{rect['kernel_rank']} modes resolved, irreducible "
          f"{rect['irreducible']:.3e} > 0; Gaussian: "
          f"{gauss['resolved_modes']}/{gauss['kernel_rank']} resolved, "
          f"irreducible {gauss['irreducible']:.1e} < 1e-8")


def _acceptance_cli_docs(workdir):
    base = {
        "dataset": {"synthetic": {"kind": "gaussian_diag", "n": 10,
                                  "variances": [1.0, 1.0, 0.5],
                                  "beta": [1.0, -0.5, 0.25]}},
        "kernel": {"kind": "rbf", "lengthscale": 1.5},
    }
    docs = {
        "decompose": dict(base, command="decompose"),
        "theory-curve": dict(base, command="theory-curve",
                             theory={"P_grid": [2, 4], "lambda": 0.1,
                                     "noise": 0.01}),
        "empirical-curve": dict(base, command="empirical-curve",
                                theory={"lambda": 0.1, "noise": 0.01},
                                empirical={"P_grid": [2, 4], "trials": 8}),
        "optimize-train": dict(base, command="optimize-train",
                               optimizer={"P_budget": 3, "lambda": 0.1,
                                          "steps": 3}),
        "optimize-test": dict(base, command="optimize-test",
                              optimizer={"P_budget": 3, "lambda": 0.1,
                                         "steps": 10}),
        "closed-form": {"command": "closed-form",
                        "closed_form": {"model": "general_linear",
                                        "M": 10, "M_r": 4, "M_s": 10,
                                        "beta": [1.0] * 10,
                                        "lambda": 0.05, "noise": 0.1,
                                        "P_grid": [2, 5, 20]}},
        "spectrum": {"command": "spectrum",
                     "kernel": {"kind": "ntk_relu", "depth": 2},
                     "spectrum": {"D": 10, "k_max": 4}},
        "compare": {"command": "compare",
                    "compare": {"theory_csv": os.path.join(
                                    workdir, "theory-curve-a",
                                    "theory_curve.csv"),
                                "empirical_csv": os.path.join(
                                    workdir, "empirical-curve-a",
                                    "empirical_curve.csv")}},
        "gradcheck": dict(base, command="gradcheck",
                          optimizer={"P_budget": 3, "lambda": 0.1,
                                     "noise": 0.01}),
        "reproduce": {"command": "reproduce", "figure": "figSI5"},
    }
    return docs


def _read_dir(out_dir):
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            files[name] = fh.read()
    return files


def test_acceptance_11_cli_determinism(tmp_path):
    workdir = str(tmp_path)
    docs = _acceptance_cli_docs(workdir)
    threaded = ("empirical-curve", "optimize-train", "gradcheck",
                "reproduce")
    mismatched = []
    # compare consumes the first theory/empirical outputs, so ordering
    # of the dict matters and those two commands run before it
    for cmd, doc in docs.items():
        cfg = os.path.join(workdir, f"{cmd}.json")
        with open(cfg, "w") as fh:
            json.dump(doc, fh)
        out_a = os.path.join(workdir, f"{cmd}-a")
        out_b = os.path.join(workdir, f"{cmd}-b")
        code_a = main(["--config", cfg, "--out", out_a])
        code_b = main(["--config", cfg, "--out", out_b])
        same = _read_dir(out_a) == _read_dir(out_b)
        if not (code_a == code_b == 0 and same):
            mismatched.append(f"{cmd} (exit {code_a}/{code_b}, "
                              f"identical={same})")
        if cmd in threaded:
            out_t = os.path.join(workdir, f"{cmd}-t")
            code_t = main(["--config", cfg, "--out", out_t,
                           "--threads", "4"])
            if not (code_t == 0 and _read_dir(out_a) == _read_dir(out_t)):
                mismatched.append(f"{cmd} --threads 4")
    ok = not mismatched
    _line(11, ok,
          f"all {len(docs)} commands rerun byte-identical, thread count "
          f"varied for {len(threaded)}"
          + (f"; mismatches: {', '.join(mismatched)}" if mismatched else ""))
