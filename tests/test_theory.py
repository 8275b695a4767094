"""The error predictor: fixed-point solver, reductions, and Monte Carlo
certification at small and asymptotic scales."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelshift._rng import rng_from
from kernelshift.closedform import gaussian_linear_Eg
from kernelshift.empirical import krr_solve, run_learning_curve
from kernelshift.kernels import KernelSpec, gram
from kernelshift.measures import DiscreteMeasure, from_logits, uniform_measure
from kernelshift.spectral import mercer_decompose, overlap, project_target
from kernelshift.theory import (KAPPA_RTOL, DivergenceError, compute_state,
                                expected_estimator, pointwise_error_density,
                                predict_Eg, predict_Eg_curve,
                                predict_Eg_dataset, prediction_row,
                                solve_kappa)


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
    assert sol.ridgeless
    # below the mode count the ridgeless kappa stays positive
    sol = solve_kappa(eta, P=2.0, lam=0.0)
    assert sol.kappa > 0.0
    assert not sol.ridgeless


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


def test_kappa_brent_vs_ode():
    rng = np.random.default_rng(1)
    for _ in range(10):
        eta = rng.exponential(1.0, 20)
        P, lam = float(rng.integers(1, 50)), float(rng.uniform(0.01, 1.0))
        a = solve_kappa(eta, P, lam, method="brent").kappa
        b = solve_kappa(eta, P, lam, method="ode").kappa
        assert b == pytest.approx(a, rel=1e-8)


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
    st_ = compute_state(eta, P=3.0, lam=0.2)
    k = st_.kappa
    want = np.sum(3.0 * eta**2 / (3.0 * eta + k) ** 2)
    assert st_.gamma == pytest.approx(want, abs=1e-14)
    assert not st_.diverged
    st0 = compute_state(eta, P=2.0, lam=0.0)
    assert st0.diverged
    assert st0.gamma == pytest.approx(1.0)


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
    abar = project_target(dec, Y)
    via_matrix = predict_Eg(dec, abar, overlap(dec, pt), P=6, lam=0.1,
                            noise=0.02)
    (via_residual,) = predict_Eg_curve(K, Y, p, pt, [6], lam=0.1, noise=0.02,
                                       dec=dec)
    assert via_residual.Eg == pytest.approx(via_matrix.Eg, abs=1e-10)
    assert via_residual.irreducible == pytest.approx(
        via_matrix.irreducible, abs=1e-10)


def test_collapsed_weight_without_residual_raises():
    # the explicit-overlap route needs the collapsed block too: an in-RKHS
    # block alone cannot give the cross and irreducible terms
    rng = np.random.default_rng(5)
    X = rng.standard_normal((10, 2))
    K = gram(KernelSpec("linear"), X)
    Y = rng.standard_normal((10, 1))
    dec = mercer_decompose(K, uniform_measure(10))
    abar = project_target(dec, Y)
    with pytest.raises(ValueError, match="overlap must be"):
        predict_Eg(dec, abar, np.eye(dec.rank), P=4, lam=0.1, noise=0.0)


def test_divergence_flag_and_row():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((12, 3))
    K = gram(KernelSpec("linear"), X)
    Y = rng.standard_normal((12, 1))
    p = uniform_measure(12)
    pred = predict_Eg_dataset(K, Y, p, p, P=3, lam=0.0, noise=0.1)
    assert pred.state.diverged
    assert np.isinf(pred.Eg)
    row = prediction_row(3, pred)
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
    return [prediction_row(P, predict_Eg_dataset(K, Y, p, pt, P, lam, noise))
            for P in P_grid]


def _curve_case(name):
    rng = np.random.default_rng(40)
    M = 16
    X = rng.standard_normal((M, 3))
    Y = np.tanh(X @ rng.standard_normal(3))[:, None] \
        + 0.1 * rng.standard_normal((M, 1))
    pt = from_logits(0.5 * rng.standard_normal(M))
    grid = [1, 2, 3, 5, 8, 20, 100]
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
                                  "full_rank", "diverged_point"])
def test_curve_equals_rebuilt_per_P_loop(name):
    K, Y, p, pt, grid, lam, noise = _curve_case(name)
    dec = mercer_decompose(K, p)
    if name == "off_support":
        with pytest.raises(ValueError, match="collapsed"):
            overlap(dec, pt)
    else:
        overlap(dec, pt)
    assert (dec.rank == dec.n_modes) == (name == "full_rank")
    curve = [prediction_row(P, pred) for P, pred in
             zip(grid, predict_Eg_curve(K, Y, p, pt, grid, lam, noise))]
    assert curve == _rebuilt_per_P_rows(K, Y, p, pt, grid, lam, noise)
    assert curve == [prediction_row(P, predict_Eg_dataset(
        K, Y, p, pt, P, lam, noise, dec=dec)) for P in grid]
    diverged = [row[-1] for row in curve]
    if name == "diverged_point":
        assert dec.rank == 3 and diverged == [0, 0, 1, 0, 0, 0, 0]
    else:
        assert not any(diverged)


def test_O_shifted_on_access():
    K, Y, p, pt, _, lam, noise = _curve_case("full_overlap")
    dec = mercer_decompose(K, p)
    abar = project_target(dec, Y)
    O = overlap(dec, pt)
    pred = predict_Eg(dec, abar, O, 5, lam, noise)
    s = pred.state
    expected = O.O - ((1.0 - s.gamma_prime) / (1.0 - s.gamma)) \
        * np.eye(dec.n_modes)
    assert np.array_equal(pred.O_shifted, expected)
    # the learning curve builds no overlap, so it has none to shift
    (inner,) = predict_Eg_curve(K, Y, p, pt, [5], lam, noise, dec=dec)
    assert inner.O_shifted is None
    diverged = predict_Eg(dec, abar, O, dec.rank, 0.0, noise)
    assert diverged.state.diverged and diverged.O_shifted is None


# ----------------------------------------------------------------------
# pointwise error density
# ----------------------------------------------------------------------

def test_density_linearity_and_nonnegativity():
    K, Y, p, pt = _random_problem(8)
    dec = mercer_decompose(K, p)
    abar = project_target(dec, Y)
    c = pointwise_error_density(dec, abar, P=6, lam=0.15, noise=0.05, Y=Y)
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
    abar = project_target(dec, Y)
    c = pointwise_error_density(dec, abar, P=5, lam=0.1, noise=0.02, Y=Y)
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
    abar = project_target(dec, rng.standard_normal((8, 1)))
    with pytest.raises(DivergenceError, match="diverges"):
        pointwise_error_density(dec, abar, P=2, lam=0.0, noise=0.0,
                                Y=rng.standard_normal((8, 1)))


def test_expected_estimator_limits():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((20, 3))
    K = gram(KernelSpec("linear"), X)
    Y = rng.standard_normal((20, 1))
    p = from_logits(0.3 * rng.standard_normal(20))
    dec = mercer_decompose(K, p)
    assert dec.n_collapsed > 0
    abar = project_target(dec, Y)
    big = expected_estimator(dec, abar, P=10**9, lam=0.1)
    assert np.max(np.abs(big[:dec.rank] - abar[:dec.rank])) < 1e-6
    # collapsed modes are never learned at any sample size
    assert np.max(np.abs(big[dec.rank:])) == 0.0
    zero = expected_estimator(dec, abar, P=0, lam=0.1)
    assert np.max(np.abs(zero)) < 1e-12


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
    for P in (10, 30, 60, 120):
        th = gaussian_linear_Eg(beta, eye, eye, P, lam, noise).Eg
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
    st_ = pred.state
    assert st_.kappa >= lam - 1e-12
    if st_.diverged:
        assert np.isinf(pred.Eg)
        return
    assert 0.0 <= st_.gamma < 1.0
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
    # equals the explicit-overlap prediction wherever the overlap exists
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
        Y = Y - dec.Phi[:, :dec.rank] @ project_target(dec, Y)[:dec.rank]
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
    rows = [prediction_row(P, pred) for P, pred in
            zip(grid, predict_Eg_curve(K, Y, p, pt, grid, lam, noise))]
    for row in rows:
        assert not np.any(np.isnan(row))
        if row[-1]:
            assert np.isinf(row[4])
        else:
            assert np.all(np.isfinite(row))
    try:
        O = overlap(dec, pt)
    except ValueError:
        assert dec.n_collapsed > 0 and regime == "off_support_linear"
        return
    abar = project_target(dec, Y)
    for P, row in zip(grid, rows):
        ref = prediction_row(P, predict_Eg(dec, abar, O, P, lam, noise))
        assert row[-1] == ref[-1]
        np.testing.assert_allclose(row, ref, rtol=1e-9, atol=1e-12)
