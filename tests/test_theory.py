"""The error predictor: fixed-point solver, reductions, and Monte Carlo
certification at small and asymptotic scales."""

import itertools
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from kernelshift import theory
from kernelshift._rng import rng_from
from kernelshift.closedform import gaussian_linear_Eg
from kernelshift.empirical import krr_solve, run_learning_curve
from kernelshift.kernels import KernelSpec, gram
from kernelshift.measures import DiscreteMeasure, from_logits, uniform_measure
from kernelshift.spectral import mercer_decompose, project_target
from kernelshift.theory import (KAPPA_RTOL, DivergenceError,
                                pointwise_error_density, predict_Eg_curve,
                                predict_Eg_dataset, solve_kappa)
from test_optimizer import _instance as _optimizer_instance


# ----------------------------------------------------------------------
# kappa fixed point
# ----------------------------------------------------------------------

def test_kappa_golden_single_mode():
    # kappa = 1 + kappa/(1 + kappa) has the golden ratio as its root
    sol = solve_kappa(np.array([1.0]), P=1.0, lam=1.0)
    assert sol.kappa == pytest.approx((1.0 + np.sqrt(5.0)) / 2.0, abs=1e-12)
    assert sol.residual < 1e-12


def test_kappa_limits():
    eta = np.array([0.5, 0.3, 0.2])
    assert solve_kappa(eta, P=0.0, lam=0.25).kappa == pytest.approx(1.25)
    sol = solve_kappa(eta, P=3.0, lam=0.0)
    assert sol.kappa == 0.0
    # below the mode count the ridgeless kappa stays positive
    sol = solve_kappa(eta, P=2.0, lam=0.0)
    assert sol.kappa > 0.0


def test_kappa_residual_on_random_spectra():
    rng = np.random.default_rng(0)
    for _ in range(30):
        m = rng.integers(1, 60)
        eta = rng.exponential(1.0, m)
        P = float(rng.integers(1, 200))
        lam = float(rng.uniform(0.0, 2.0))
        sol = solve_kappa(eta, P, lam)
        assert sol.residual < 1e-12


def test_kappa_spectrum_below_ridge_resolution():
    # lam + sum(eta) rounds to lam, so the bracket's upper end is the root
    sol = solve_kappa(np.full(10, 1e-17), P=5, lam=1.0)
    assert np.isfinite(sol.kappa)
    assert sol.residual <= KAPPA_RTOL
    # a kernel that small learns nothing: the error is the target power
    rng = np.random.default_rng(16)
    X = rng.standard_normal((12, 3))
    Y = np.tanh(X[:, :1])
    K = 1e-14 * gram(KernelSpec("rbf", lengthscale=1.5), X)
    ptilde = from_logits(rng.standard_normal(12))
    pred = predict_Eg_dataset(K, Y, uniform_measure(12), ptilde, 5, 1.0, 0.0)
    assert pred.Eg == pytest.approx(float(ptilde.masses @ Y[:, 0]**2),
                                    rel=1e-9)


def _kappa_brent(eta, P, lam, weights=None):
    """Oracle: bracketed Brent root of the fixed point (of kappa = lam +
    sum(...) for lam > 0, of sum w eta/(P eta + kappa) = 1 for lam = 0)."""
    w = np.ones_like(eta) if weights is None else weights
    pos = eta > 0
    eta, w = eta[pos], w[pos]
    total = float(np.dot(w, eta))
    if lam == 0.0:
        return brentq(lambda k: float(np.dot(w, eta / (P * eta + k))) - 1.0,
                      0.0, total, xtol=1e-300, rtol=8.9e-16, maxiter=500)

    def g(k):
        return k - lam - float(np.dot(w, k * eta / (P * eta + k)))

    hi = lam + total
    return hi if g(hi) <= 0 else brentq(g, lam, hi, xtol=1e-300,
                                        rtol=8.9e-16, maxiter=500)


def _kappa_ode(eta, P, lam):
    """Oracle: relax dkappa/ds = lam + sum(...) - kappa from lam + sum(eta)
    to its fixed point."""
    def rhs(_, y):
        return [lam + float(np.sum(y[0] * eta / (P * eta + y[0]))) - y[0]]

    sol = solve_ivp(rhs, (0.0, 400.0), [lam + float(eta.sum())], rtol=1e-12,
                    atol=1e-14)
    assert sol.success, sol.message
    return float(sol.y[0, -1])


def test_kappa_brent_vs_ode():
    # two independent oracles, the Brent root and the relaxation's end
    # point, bracket the Newton solve
    rng = np.random.default_rng(1)
    for _ in range(10):
        eta = rng.exponential(1.0, 20)
        P, lam = float(rng.integers(1, 50)), float(rng.uniform(0.01, 1.0))
        kappa = solve_kappa(eta, P, lam).kappa
        assert kappa == pytest.approx(_kappa_brent(eta, P, lam), rel=1e-13)
        assert _kappa_ode(eta, P, lam) == pytest.approx(kappa, rel=1e-8)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("regime", ["ridged", "ridgeless", "near_divergence"])
def test_kappa_newton_matches_brent_oracle(regime, weighted):
    # random spectra over 12 decades; near divergence is lam = 0 with P
    # just below the number of positive modes, where the root is small
    rng = np.random.default_rng([3, len(regime), weighted])
    for _ in range(40):
        m = int(rng.integers(1, 80))
        eta = 10.0 ** rng.uniform(-12.0, 0.0, m)
        eta[rng.random(m) < 0.1] = 0.0  # zero modes count for nothing
        w = rng.integers(1, 5, m).astype(float) if weighted else None
        n_pos = float(np.sum((np.ones(m) if w is None else w)[eta > 0]))
        if n_pos == 0:
            continue
        if regime == "ridged":
            P = float(rng.uniform(0.5, 3.0) * n_pos)
            lam = float(10.0 ** rng.uniform(-12.0, 1.0))
        elif regime == "ridgeless":
            P, lam = float(rng.uniform(0.05, 0.95) * n_pos), 0.0
        else:
            P, lam = n_pos - float(rng.uniform(0.05, 0.5)), 0.0
        if P <= 0:
            continue
        sol = solve_kappa(eta, P, lam, weights=w)
        assert sol.kappa > 0.0
        assert sol.residual <= KAPPA_RTOL
        want = _kappa_brent(eta, P, lam, w)
        assert sol.kappa == pytest.approx(want, rel=1e-13)
    tiny = np.full(10, 1e-17)
    assert solve_kappa(tiny, 5, 1.0).kappa == _kappa_brent(tiny, 5, 1.0)


def test_kappa_stall_raises(monkeypatch):
    # a solve cut short by the iteration cap must raise, not return the
    # last iterate: with and without a ridge these need more than two
    # Newton steps
    monkeypatch.setattr(theory, "KAPPA_MAXITER", 2)
    eta = 10.0 ** -np.arange(8.0)
    for P, lam in ((4.0, 1e-6), (4.0, 0.0)):
        with pytest.raises(RuntimeError, match="stalled"):
            solve_kappa(eta, P, lam)
    monkeypatch.undo()
    for P, lam in ((4.0, 1e-6), (4.0, 0.0)):
        assert solve_kappa(eta, P, lam).residual <= KAPPA_RTOL


def test_kappa_weights_equal_repetition():
    eta = np.array([0.7, 0.2])
    w = np.array([3.0, 5.0])
    a = solve_kappa(eta, P=4.0, lam=0.1, weights=w).kappa
    b = solve_kappa(np.repeat(eta, [3, 5]), P=4.0, lam=0.1).kappa
    assert a == pytest.approx(b, abs=1e-12)


def test_kappa_validation():
    with pytest.raises(ValueError):
        solve_kappa(np.array([-1.0]), 1, 0.1)
    with pytest.raises(ValueError):
        solve_kappa(np.array([1.0]), -1, 0.1)
    with pytest.raises(ValueError):
        solve_kappa(np.array([1.0]), 1, -0.1)
    with pytest.raises(ValueError):
        solve_kappa(np.zeros(0), 1, 0.1)


def test_state_gamma_formula_and_divergence():
    eta = np.array([0.6, 0.4])

    def row(P, lam):
        (pred,), _, _ = theory._spectrum_prediction(
            eta, [P], lam, 0.0, np.ones(2), np.ones(2))
        return pred

    pred = row(3.0, 0.2)
    k = pred.kappa
    want = np.sum(3.0 * eta**2 / (3.0 * eta + k) ** 2)
    assert pred.gamma == pytest.approx(want, abs=1e-14)
    assert not pred.diverged
    pred0 = row(2.0, 0.0)
    assert pred0.diverged
    assert pred0.gamma == pytest.approx(1.0)
    # a diverged row keeps inf errors, a live one gets finite ones
    assert np.isfinite(pred.Eg) and np.isfinite(pred.bias)
    assert pred0.Eg == pred0.bias == pred0.irreducible == np.inf


@pytest.mark.parametrize("leading", [False, True])
def test_irreducible_error_reads_the_collapsed_run_without_a_copy(leading):
    # a run of eta = 0 modes, trailing as in a decomposition or leading as
    # in a covariance eigenbasis, is read as a view of Ct, with the value
    # of the gathered block
    s = 600
    rng = np.random.default_rng(5)
    A = rng.standard_normal((s, s)) / np.sqrt(s)
    Ct = A @ A.T
    eta = np.zeros(s)
    eta[slice(s - 5, s) if leading else slice(0, 5)] = rng.random(5) + 0.5
    b = rng.standard_normal((s, 2))
    out = eta == 0
    want = np.sum(np.einsum("oc,oc->c", b[out],
                            Ct[np.ix_(out, out)] @ b[out]))
    tracemalloc.start()
    try:
        (pred,), _, _ = theory._spectrum_prediction(eta, [20.0], 1e-3, 0.0,
                                                    b, Ct)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pred.irreducible == float(want)
    assert peak < 0.2 * Ct.nbytes


# ----------------------------------------------------------------------
# structural reductions
# ----------------------------------------------------------------------

def _random_problem(seed, M=25, D=4, kind="rbf"):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((M, D))
    K = gram(KernelSpec(kind, lengthscale=1.5) if kind == "rbf"
             else KernelSpec(kind), X)
    Y = rng.standard_normal((M, 1))
    p = from_logits(0.4 * rng.standard_normal(M))
    pt = from_logits(0.4 * rng.standard_normal(M))
    return K, Y, p, pt


def test_matched_measure_reduction():
    for seed in range(8):
        K, Y, p, _ = _random_problem(seed)
        pred = predict_Eg_dataset(K, Y, p, p, P=7, lam=0.1, noise=0.05)
        assert abs(pred.Eg - pred.Eg_matched) < 1e-10
        assert abs(pred.delta) < 1e-10


def test_bias_variance_splits_sum_to_Eg():
    K, Y, p, pt = _random_problem(3)
    pred = predict_Eg_dataset(K, Y, p, pt, P=9, lam=0.2, noise=0.1)
    assert pred.bias + pred.variance == pytest.approx(pred.Eg, rel=1e-12)
    assert pred.delta == pytest.approx(pred.Eg - pred.Eg_matched, abs=1e-14)


def _explicit_overlap_prediction(K, Y, p, pt, rank, P, lam, noise):
    """Oracle for the curve's per-point rows: the spectrum core fed the
    explicit overlap O = Phi^T diag(pt) Phi of a complete basis on the
    training support, solved here with numpy, modes past `rank` at
    eta = 0.  Collapsed modes have no values off the support, so pt must
    lie on it."""
    sup = np.flatnonzero(p.masses > 0)
    assert not np.any(pt.masses[p.masses == 0] > 0)
    a = np.sqrt(p.masses[sup])
    eta, V = np.linalg.eigh(a[:, None] * K[np.ix_(sup, sup)] * a[None, :])
    eta, V = np.clip(eta[::-1], 0.0, None), V[:, ::-1]
    eta[rank:] = 0.0
    Phi = V / a[:, None]
    O = Phi.T @ (pt.masses[sup, None] * Phi)
    (pred,), _, _ = theory._spectrum_prediction(
        eta, [P], lam, noise, V.T @ (a[:, None] * Y[sup]), O)
    return pred


def test_residual_route_equals_matrix_route():
    # low-rank linear kernel: collapsed modes carry target weight, but the
    # test measure stays on the support so the explicit overlap exists too
    rng = np.random.default_rng(4)
    X = rng.standard_normal((18, 3))
    K = gram(KernelSpec("linear"), X)
    Y = rng.standard_normal((18, 1))
    p = from_logits(0.3 * rng.standard_normal(18))
    pt = from_logits(0.3 * rng.standard_normal(18))
    dec = mercer_decompose(K, p)
    assert dec.n_collapsed > 0
    via_matrix = _explicit_overlap_prediction(K, Y, p, pt, dec.rank, P=6,
                                              lam=0.1, noise=0.02)
    (via_residual,) = predict_Eg_curve(dec, Y, pt, [6], lam=0.1, noise=0.02)
    assert via_residual.Eg == pytest.approx(via_matrix.Eg, abs=1e-10)
    assert via_residual.irreducible == pytest.approx(
        via_matrix.irreducible, abs=1e-10)


def test_divergence_flag_and_row():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((12, 3))
    K = gram(KernelSpec("linear"), X)
    Y = rng.standard_normal((12, 1))
    p = uniform_measure(12)
    pred = predict_Eg_dataset(K, Y, p, p, P=3, lam=0.0, noise=0.1)
    assert pred.diverged
    assert np.isinf(pred.Eg)
    row = astuple(pred)
    assert row[-1] == 1
    assert np.isinf(row[4])


def test_multi_output_sums_columns():
    K, Y, p, pt = _random_problem(7)
    Y2 = np.hstack([Y, 2.0 * Y])
    a = predict_Eg_dataset(K, Y, p, pt, P=8, lam=0.1, noise=0.0)
    b = predict_Eg_dataset(K, Y2, p, pt, P=8, lam=0.1, noise=0.0)
    assert b.Eg == pytest.approx(5.0 * a.Eg, rel=1e-10)


# ----------------------------------------------------------------------
# learning curve: P-independent quantities built once
# ----------------------------------------------------------------------

def _rebuilt_per_P_rows(K, Y, p, pt, P_grid, lam, noise):
    """Rows with the decomposition rebuilt anew at every P."""
    return [astuple(predict_Eg_dataset(K, Y, p, pt, P, lam, noise))
            for P in P_grid]


def _curve_case(name):
    rng = np.random.default_rng(40)
    M = 16
    X = rng.standard_normal((M, 3))
    Y = np.tanh(X @ rng.standard_normal(3))[:, None] \
        + 0.1 * rng.standard_normal((M, 1))
    pt = from_logits(0.5 * rng.standard_normal(M))
    grid = [1, 2, 3, 5, 8, 20, 100]
    if name in ("reversed_grid", "repeated_P", "P_zero"):
        # the full_overlap problem on grids that reorder, repeat or start
        # the curve at P = 0: no row may depend on the rest of its grid
        grid = {"reversed_grid": grid[::-1], "repeated_P": [5, 1, 5, 20, 5],
                "P_zero": [0, 1, 0, 8]}[name]
        return (gram(KernelSpec("linear"), X), Y,
                from_logits(0.3 * rng.standard_normal(M)), pt, grid, 0.05,
                0.01)
    if name == "ridgeless_straddle":
        # the ridgeless rank-3 kernel at P on both sides of the rank:
        # kappa > 0 below it, kappa = 0 above
        return (gram(KernelSpec("linear"), X), Y,
                from_logits(0.3 * rng.standard_normal(M)), pt,
                [100, 1, 4, 2, 5], 0.0, 0.01)
    if name == "full_overlap":
        # collapsed modes, test mass on the training support
        return (gram(KernelSpec("linear"), X), Y,
                from_logits(0.3 * rng.standard_normal(M)), pt, grid, 0.05,
                0.01)
    if name == "off_support":
        # collapsed modes and test mass off the training support
        masses = np.zeros(M)
        masses[:10] = rng.random(10) + 0.1
        return (gram(KernelSpec("linear"), X), Y,
                DiscreteMeasure(masses / masses.sum()), pt, grid, 0.05, 0.01)
    if name == "full_rank":
        return (gram(KernelSpec("rbf", lengthscale=1.5), X), Y,
                from_logits(0.3 * rng.standard_normal(M)), pt, grid, 0.05,
                0.01)
    # ridgeless linear kernel of rank 3: the curve diverges at P = 3
    return (gram(KernelSpec("linear"), X), Y,
            from_logits(0.3 * rng.standard_normal(M)), pt, grid, 0.0, 0.01)


@pytest.mark.parametrize("name", ["full_overlap", "off_support",
                                  "full_rank", "diverged_point",
                                  "reversed_grid", "repeated_P", "P_zero",
                                  "ridgeless_straddle"])
def test_curve_equals_rebuilt_per_P_loop(name):
    K, Y, p, pt, grid, lam, noise = _curve_case(name)
    dec = mercer_decompose(K, p)
    # only off_support puts test mass where collapsed modes have no values
    assert (dec.n_collapsed > 0 and np.any(pt.masses[p.masses == 0] > 0)) \
        == (name == "off_support")
    assert (dec.rank == dec.n_modes) == (name == "full_rank")
    curve = [astuple(pred)
             for pred in predict_Eg_curve(dec, Y, pt, grid, lam, noise)]
    assert curve == _rebuilt_per_P_rows(K, Y, p, pt, grid, lam, noise)
    assert curve == [astuple(predict_Eg_curve(dec, Y, pt, [P], lam,
                                              noise)[0]) for P in grid]
    diverged = [row[-1] for row in curve]
    if name == "diverged_point":
        assert dec.rank == 3 and diverged == [0, 0, 1, 0, 0, 0, 0]
    else:
        assert not any(diverged)


def test_curve_rows_do_not_depend_on_the_P_block(monkeypatch):
    # blocks of one P up to the whole grid, in the kappa solve and the
    # curve alike, give every row the same bits
    K, Y, p, pt, grid, lam, noise = _curve_case("off_support")
    dec = mercer_decompose(K, p)
    want = [astuple(pred)
            for pred in predict_Eg_curve(dec, Y, pt, grid, lam, noise)]
    for block in (1, 2 * dec.n_modes, 3 * dec.n_modes):
        monkeypatch.setattr(theory, "_BLOCK", block)
        assert [astuple(pred) for pred in predict_Eg_curve(
            dec, Y, pt, grid, lam, noise)] == want


@pytest.mark.parametrize("weighted", [False, True])
def test_solve_kappa_is_the_grid_solvers_one_P_case(weighted, monkeypatch):
    rng = np.random.default_rng([41, weighted])
    eta = 10.0 ** rng.uniform(-12.0, 0.0, 40)
    eta[rng.random(40) < 0.1] = 0.0
    w = rng.integers(1, 5, 40).astype(float) if weighted else np.ones(40)
    pos = eta > 0
    n_pos = float(w[pos].sum())
    grid = np.array([0.0, 0.5, 3.0, n_pos - 0.25, n_pos, n_pos + 1.0, 1e4,
                     3.0])
    for block in (theory._BLOCK, 1):
        monkeypatch.setattr(theory, "_BLOCK", block)
        for lam in (0.0, 1e-6, 0.3):
            kappa, residual = theory._kappa_grid(eta[pos], w[pos], grid, lam)
            for i, P in enumerate(grid):
                sol = solve_kappa(eta, P, lam,
                                  weights=w if weighted else None)
                assert (sol.kappa, sol.residual) == (kappa[i], residual[i])
    # a stall anywhere in the grid raises, with the cap read at call time
    monkeypatch.setattr(theory, "KAPPA_MAXITER", 2)
    with pytest.raises(RuntimeError, match="stalled"):
        theory._kappa_grid(eta[pos], w[pos], grid, 1e-6)


# ----------------------------------------------------------------------
# pointwise error density
# ----------------------------------------------------------------------

def test_density_linearity_and_nonnegativity():
    K, Y, p, pt = _random_problem(8)
    dec = mercer_decompose(K, p)
    c = pointwise_error_density(dec, Y, P=6, lam=0.15, noise=0.05)
    assert np.all(c >= 0.0)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        q = from_logits(0.7 * rng.standard_normal(K.shape[0]))
        pred = predict_Eg_dataset(K, Y, p, q, P=6, lam=0.15, noise=0.05)
        assert float(np.dot(q.masses, c)) == pytest.approx(pred.Eg,
                                                           abs=1e-10)


def test_density_matches_dirac_predictions():
    K, Y, p, _ = _random_problem(9, M=12)
    dec = mercer_decompose(K, p)
    c = pointwise_error_density(dec, Y, P=5, lam=0.1, noise=0.02)
    for mu in (0, 4, 11):
        e = np.zeros(12)
        e[mu] = 1.0
        pred = predict_Eg_dataset(K, Y, p, DiscreteMeasure(e), P=5, lam=0.1,
                                  noise=0.02)
        assert c[mu] == pytest.approx(pred.Eg, abs=1e-10)


def test_density_diverged_raises():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((8, 2))
    K = gram(KernelSpec("linear"), X)
    dec = mercer_decompose(K, uniform_measure(8))
    with pytest.raises(DivergenceError, match="diverges"):
        pointwise_error_density(dec, rng.standard_normal((8, 1)), P=2,
                                lam=0.0, noise=0.0)


# ----------------------------------------------------------------------
# Monte Carlo certification
# ----------------------------------------------------------------------

def _exact_enumeration_Eg(K, Y, p, pt, P, lam, noise):
    """Average test error over every size-P atom tuple (tractable P <= 2)."""
    M = K.shape[0]
    total = 0.0
    for idx in itertools.product(range(M), repeat=P):
        idx = list(idx)
        w = float(np.prod(p.masses[idx]))
        G = np.linalg.inv(K[np.ix_(idx, idx)] + lam * np.eye(P))
        A = K[:, idx] @ G
        mean_pred = A @ Y[idx]
        bias = float(np.sum(pt.masses[:, None] * (mean_pred - Y) ** 2))
        var = noise * float(np.sum(pt.masses * np.sum(A * A, axis=1)))
        total += w * (bias + var)
    return total


def test_exact_enumeration_certifies_harness_and_bounds_theory():
    rng = np.random.default_rng(7)
    M, D = 30, 5
    X = rng.standard_normal((M, D))
    K = gram(KernelSpec("linear"), X)
    beta = rng.standard_normal(D)
    Y = (X @ beta / np.sqrt(D))[:, None]
    p = from_logits(0.5 * rng.standard_normal(M))
    pt = from_logits(0.5 * rng.standard_normal(M))
    lam, noise = 0.05, 0.1
    for P in (1, 2):
        exact = _exact_enumeration_Eg(K, Y, p, pt, P, lam, noise)
        point = run_learning_curve(K, Y, p, pt, [P], lam, noise,
                                   trials=1500, seed=9)[0]
        z = (point.Eg_mean - exact) / point.Eg_stderr
        assert abs(z) < 3.0
        pred = predict_Eg_dataset(K, Y, p, pt, P, lam, noise)
        # the prediction is asymptotic; at P of order one it must still
        # land within a few percent of the enumerated truth
        assert pred.Eg == pytest.approx(exact, rel=0.05)


def test_off_support_error_matches_monte_carlo():
    # a full-rank kernel has no collapsed mode, yet the error at an atom
    # off the training support is measured against its label, not against
    # the extension of the projected target
    _, Y, K = _optimizer_instance()
    masses, dirac = np.full(8, 1.0 / 7.0), np.zeros(8)
    masses[3], dirac[3] = 0.0, 1.0
    p, pt = DiscreteMeasure(masses), DiscreteMeasure(dirac)
    assert mercer_decompose(K, p).n_collapsed == 0
    for P in (80, 160):
        point = run_learning_curve(K, Y, p, pt, [P], 0.1, 0.0, trials=1000,
                                   seed=12)[0]
        pred = predict_Eg_dataset(K, Y, p, pt, P, 0.1, 0.0)
        assert abs(point.Eg_mean - pred.Eg) <= 3.0 * point.Eg_stderr
        assert pred.Eg == pytest.approx(point.Eg_mean, rel=0.01)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["rbf", "linear"]), seed=st.integers(0, 10**6),
       M=st.integers(6, 10), P=st.sampled_from([3, 10, 40]),
       lam=st.sampled_from([1e-3, 0.1]))
def test_prediction_continuous_as_a_training_mass_vanishes(kind, seed, M, P,
                                                           lam):
    # an atom at zero training mass predicts what it does at a mass of
    # order e^-30, where it is still on the support
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((M, 3))
    Y = np.tanh(X @ rng.standard_normal(3))[:, None] \
        + 0.1 * rng.standard_normal((M, 1))
    K = gram(KernelSpec("rbf", lengthscale=1.5) if kind == "rbf"
             else KernelSpec("linear"), X)
    z = 0.3 * rng.standard_normal(M)
    pt = from_logits(rng.standard_normal(M))
    j = int(rng.integers(M))
    zero = from_logits(z).masses.copy()
    zero[j] = 0.0
    low = z.copy()
    low[j] -= 30.0
    at_zero = predict_Eg_dataset(K, Y, DiscreteMeasure(zero / zero.sum()),
                                 pt, P, lam, 0.01)
    at_low = predict_Eg_dataset(K, Y, from_logits(low), pt, P, lam, 0.01)
    assert at_zero.Eg == pytest.approx(at_low.Eg, rel=1e-6)


def test_prediction_within_two_stderr_on_frozen_atomic_instance():
    # Finite-size corrections on 30-atom problems depend on the instance,
    # so this pins one representative draw and trial stream; the engine's
    # asymptotic correctness is certified by the enumeration and the
    # continuous Gaussian test.
    rng = np.random.default_rng(1008)
    M, D = 30, 4
    X = rng.standard_normal((M, D))
    beta = rng.standard_normal(D)
    Y = (X @ beta / np.sqrt(D))[:, None]
    p = from_logits(0.3 * rng.standard_normal(M))
    pt = from_logits(0.3 * rng.standard_normal(M))
    K = gram(KernelSpec("linear"), X)
    lam, noise = 0.5, 0.25
    points = run_learning_curve(K, Y, p, pt, [2, 5, 10, 20], lam, noise,
                                trials=2000, seed=81)
    for point in points:
        pred = predict_Eg_dataset(K, Y, p, pt, point.P, lam, noise)
        z = (point.Eg_mean - pred.Eg) / point.Eg_stderr
        assert abs(z) <= 2.0


def test_prediction_matches_continuous_gaussian_linear():
    # D = 40 isotropic Gaussian inputs: the regime the prediction is exact
    # in. The test integral is evaluated in closed form (the kernel is
    # linear), so the only randomness is the training draw.
    D = 40
    rng = np.random.default_rng(100)
    beta = rng.standard_normal(D) / np.sqrt(D)
    lam, noise = 0.5, 0.25
    trials = 2000

    def mc(P, seed):
        errs = np.empty(trials)
        for t in range(trials):
            r = rng_from(seed, "trial", P, t)
            X = r.standard_normal((P, D))
            y = X @ beta + np.sqrt(noise) * r.standard_normal(P)
            sol = krr_solve(gram(KernelSpec("linear"), X), y, lam)
            w = X.T @ sol.coef[:, 0] / D
            errs[t] = float(np.sum((w - beta) ** 2))
        return errs.mean(), errs.std(ddof=1) / np.sqrt(trials)

    # exact test integration leaves only the training-draw fluctuation in
    # the stderr, which exposes the O(1/D) mean-field bias of the
    # prediction (about 1% here); bound the relative error directly
    eye = np.eye(D)
    P_grid = (10, 30, 60, 120)
    for P, pred in zip(P_grid, gaussian_linear_Eg(beta, eye, eye, P_grid,
                                                  lam, noise)):
        th = pred.Eg
        mean, se = mc(P, seed=41)
        assert abs(mean - th) / th < 0.02
        assert abs(mean - th) / se < 4.0


# ----------------------------------------------------------------------
# property suite
# ----------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    M=st.integers(3, 12),
    P=st.integers(1, 50),
    lam=st.floats(1e-3, 2.0),
    noise=st.floats(0.0, 1.0),
)
def test_prediction_invariants(seed, M, P, lam, noise):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((M, M + 2))
    K = A @ A.T / (M + 2)
    Y = rng.standard_normal((M, 1))
    p = from_logits(np.clip(rng.standard_normal(M), -2, 2))
    pt = from_logits(np.clip(rng.standard_normal(M), -2, 2))
    pred = predict_Eg_dataset(K, Y, p, pt, P, lam, noise)
    assert pred.kappa >= lam - 1e-12
    if pred.diverged:
        assert np.isinf(pred.Eg)
        return
    assert 0.0 <= pred.gamma < 1.0
    assert np.isfinite(pred.Eg)
    assert pred.Eg >= -1e-10
    assert pred.variance >= -1e-12
    assert pred.irreducible >= -1e-12
    assert pred.bias + pred.variance == pytest.approx(pred.Eg, rel=1e-9,
                                                      abs=1e-12)
    matched = predict_Eg_dataset(K, Y, p, p, P, lam, noise)
    assert abs(matched.Eg - matched.Eg_matched) < 1e-9


EDGE_REGIMES = ("ridgeless", "all_collapsed_target", "off_support_linear",
                "off_support_rbf", "identity_kernel", "zero_kernel")


@settings(max_examples=60, deadline=None)
@given(
    regime=st.sampled_from(EDGE_REGIMES),
    seed=st.integers(0, 10**6),
    M=st.integers(6, 10),
    lam=st.sampled_from([0.0, 1e-3]),
    noise=st.sampled_from([0.0, 0.05]),
)
def test_curve_edge_regimes_finite_or_flagged(regime, seed, M, lam, noise):
    # ridgeless interpolation at P = rank - 1, rank, rank + 1, collapsed
    # modes, test mass wholly off the training support, degenerate and
    # zero spectra: every row is finite, or inf with diverged = 1, and
    # equals the explicit-overlap prediction wherever the test mass lies on
    # the training support (off it, the curve's residual rows cover the
    # target's part outside the RKHS, which that oracle leaves out)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((M, 2))
    Y = rng.standard_normal((M, 1))
    p = from_logits(0.3 * rng.standard_normal(M))
    pt = from_logits(0.3 * rng.standard_normal(M))
    K = gram(KernelSpec("rbf", lengthscale=1.5) if regime == "off_support_rbf"
             else KernelSpec("linear"), X)
    if regime == "ridgeless":
        lam = 0.0
    elif regime == "all_collapsed_target":
        dec = mercer_decompose(K, p)
        Y = Y - dec.Phi @ project_target(dec, Y)
    elif regime.startswith("off_support"):
        off = rng.permutation(M)[:M // 2]
        masses, test = p.masses.copy(), np.zeros(M)
        masses[off] = 0.0
        test[off] = pt.masses[off]
        p = DiscreteMeasure(masses / masses.sum())
        pt = DiscreteMeasure(test / test.sum())
    elif regime == "identity_kernel":
        K, p = np.eye(M), uniform_measure(M)  # all M eigenvalues equal
    elif regime == "zero_kernel":
        K = np.zeros((M, M))
    dec = mercer_decompose(K, p)
    grid = sorted({1, max(dec.rank - 1, 1), max(dec.rank, 1), dec.rank + 1,
                   3 * M})
    rows = [astuple(pred)
            for pred in predict_Eg_curve(dec, Y, pt, grid, lam, noise)]
    for row in rows:
        assert not np.any(np.isnan(row))
        if row[-1]:
            assert np.isinf(row[4])
        else:
            assert np.all(np.isfinite(row))
    if np.any(pt.masses[p.masses == 0] > 0):
        assert regime.startswith("off_support")
        return
    for P, row in zip(grid, rows):
        ref = astuple(_explicit_overlap_prediction(
            K, Y, p, pt, dec.rank, P, lam, noise))
        assert row[-1] == ref[-1]
        np.testing.assert_allclose(row, ref, rtol=1e-9, atol=1e-12)


DENSITY_REGIMES = ("ridgeless", "collapsed", "off_support", "near_divergence")


@settings(max_examples=40, deadline=None)
@given(
    regime=st.sampled_from(DENSITY_REGIMES),
    seed=st.integers(0, 10**6),
    M=st.integers(6, 10),
    noise=st.sampled_from([0.0, 0.05]),
)
def test_density_edge_regimes_finite_or_typed(regime, seed, M, noise):
    # ridgeless interpolation around P = rank, collapsed modes carrying
    # target weight, test mass off the training support and P within
    # 1e-6 of the threshold: the density is finite, >= 0 and contracts
    # to the curve's error, or it raises DivergenceError where the curve
    # flags divergence
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((M, 2))
    Y = rng.standard_normal((M, 1))
    p = from_logits(0.3 * rng.standard_normal(M))
    pt = from_logits(0.3 * rng.standard_normal(M))
    K = gram(KernelSpec("rbf", lengthscale=1.5) if regime == "ridgeless"
             else KernelSpec("linear"), X)
    if regime == "off_support":
        masses = p.masses.copy()
        masses[rng.permutation(M)[:M // 2]] = 0.0
        p = DiscreteMeasure(masses / masses.sum())
    dec = mercer_decompose(K, p)
    r = dec.rank
    lam, grid = 1e-3, [1, r, 3 * M]
    if regime == "ridgeless":
        lam, grid = 0.0, sorted({max(r - 1, 1), r, r + 1})
    elif regime == "near_divergence":
        lam, grid = 0.0, [r - 1e-6, r + 1e-6]
    for P in grid:
        pred = predict_Eg_curve(dec, Y, pt, [P], lam, noise)[0]
        if pred.diverged:
            with pytest.raises(DivergenceError):
                pointwise_error_density(dec, Y, P, lam, noise)
            continue
        c = pointwise_error_density(dec, Y, P, lam, noise)
        assert np.all(np.isfinite(c))
        assert np.all(c >= 0.0)
        assert float(pt.masses @ c) == pytest.approx(pred.Eg, rel=1e-9,
                                                     abs=1e-12)
