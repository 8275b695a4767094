"""Measure optimization: finite-difference machinery, the analytic
training-measure gradient and its step loop, and the exact test-measure
optimum."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelshift import optimizer, theory
from kernelshift.kernels import KernelSpec, gram
from kernelshift.measures import DiscreteMeasure, from_logits, uniform_measure
from kernelshift.optimizer import (OptimizerConfig, _iterate, fd_gradient,
                                   optimize_test_measure,
                                   optimize_train_measure,
                                   participation_ratio, richardson_check)
from kernelshift.spectral import mercer_decompose, project_target
from kernelshift.theory import (DivergenceError, SupportError,
                                pointwise_error_density, predict_Eg_dataset,
                                predict_Eg_train_grad)


def _instance(M=8, D=3, seed=4, kind="rbf"):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((M, D))
    Y = np.tanh(X @ rng.standard_normal(D))[:, None]
    K = gram(KernelSpec(kind, lengthscale=1.5), X) if kind == "rbf" \
        else gram(KernelSpec(kind), X)
    return X, Y, K


def test_optimizer_config_validation():
    good = dict(P_budget=5, lam=0.1)
    OptimizerConfig(**good)
    for bad in (dict(P_budget=0), dict(lam=-0.1), dict(noise=-1.0),
                dict(learning_rate=0.0), dict(steps=0),
                dict(convergence_tol=0.0), dict(mode="sideways")):
        with pytest.raises(ValueError):
            OptimizerConfig(**{**good, **bad})


def test_participation_ratio_golden():
    assert participation_ratio(uniform_measure(7)) == pytest.approx(7.0)
    assert participation_ratio(np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0)
    assert participation_ratio(np.array([0.5, 0.5])) == pytest.approx(2.0)


def _uniform_test_loss(z, K, Y, lam, P, noise=0.0):
    """Predicted error for training logits z under the uniform test
    measure on the same atoms."""
    return predict_Eg_dataset(K, Y, from_logits(z), uniform_measure(len(z)),
                              P, lam, noise).Eg


def test_uniform_test_loss_matches_explicit_overlap():
    X, Y, K = _instance()
    rng = np.random.default_rng(0)
    z = 0.4 * rng.standard_normal(8)
    val = _uniform_test_loss(z, K, Y, lam=0.05, P=4, noise=0.02)
    # the spectrum core fed the explicit overlap Phi^T diag(ptilde) Phi
    dec = mercer_decompose(K, from_logits(z))
    O = dec.Phi.T @ (uniform_measure(8).masses[:, None] * dec.Phi)
    (pred,), _, _ = theory._spectrum_prediction(
        theory._masked_eta(dec), [4], 0.05, 0.02, project_target(dec, Y), O)
    assert val == pytest.approx(pred.Eg, rel=1e-12)


def test_uniform_test_loss_permutation_invariant():
    X, Y, K = _instance(M=6, seed=9)
    rng = np.random.default_rng(1)
    z = 0.3 * rng.standard_normal(6)
    perm = rng.permutation(6)
    a = _uniform_test_loss(z, K, Y, lam=0.1, P=3)
    b = _uniform_test_loss(z[perm], K[np.ix_(perm, perm)], Y[perm], lam=0.1,
                           P=3)
    assert a == pytest.approx(b, rel=1e-8)


def test_uniform_test_loss_divergence_is_inf():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((8, 8))
    Y = X[:, :1].copy()
    K = gram(KernelSpec("linear"), X)
    assert np.isinf(_uniform_test_loss(np.zeros(8), K, Y, lam=0.0, P=8))


def test_fd_gradient_exact_on_quadratic():
    a = np.array([0.3, -1.2, 0.7])
    b = np.array([1.5, 0.4, -0.8])

    def loss(z):
        return float(np.dot(a, z) + np.dot(b, z * z))

    z = np.array([0.2, -0.5, 1.1])
    exact = a + 2.0 * b * z
    central = fd_gradient(loss, z, h=1e-3)
    np.testing.assert_allclose(central, exact, atol=1e-9)


def test_richardson_check_separates_smooth_from_kinked():
    def smooth(z):
        return float(np.sin(z[0]) + 0.5 * z[1] ** 2)

    def kinked(z):
        return float(abs(z[0] - 0.5e-4))

    z = np.array([0.3, -0.2])
    assert richardson_check(smooth, z, h=1e-4) < 1e-7
    assert richardson_check(kinked, np.zeros(1), h=1e-4) > 1e-2


def test_richardson_check_on_prediction_loss():
    X, Y, K = _instance(M=6, seed=5)

    def loss(z):
        return _uniform_test_loss(z, K, Y, lam=0.1, P=3, noise=0.01)

    assert richardson_check(loss, np.zeros(6), h=1e-4) < 1e-5


def _density_setup(seed=6, M=7, P=4, lam=0.05, noise=0.02):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((M, 3))
    Y = np.sign(X[:, :1]) + 0.1 * rng.standard_normal((M, 1))
    K = gram(KernelSpec("rbf", lengthscale=1.2), X)
    dec = mercer_decompose(K, uniform_measure(M))
    c = pointwise_error_density(dec, Y, P, lam, noise)
    return dec, c, Y


def _simplex_grid(M, n):
    """Every measure on M atoms with masses in multiples of 1/n."""
    for bars in itertools.combinations(range(n + M - 1), M - 1):
        cuts = np.diff([-1, *bars, n + M - 1]) - 1
        yield cuts / n


@pytest.mark.parametrize("seed,M", [(6, 3), (8, 5), (9, 6)])
def test_exact_optimum_beats_every_grid_measure(seed, M):
    dec, c, Y = _density_setup(seed=seed, M=M, P=3)
    grid = np.array(list(_simplex_grid(M, 8)))
    values = grid @ c
    for mode, worse in (("descent", np.greater_equal),
                        ("ascent", np.less_equal)):
        trace = optimize_test_measure(
            dec, Y, OptimizerConfig(P_budget=3, lam=0.05, noise=0.02,
                                    mode=mode))
        assert np.all(worse(values, trace.Eg[-1]))
        assert trace.Eg[-1] == pytest.approx(
            trace.final_measure.masses @ c, rel=1e-15)


def test_optimize_test_measure_concentrates_on_extremes():
    dec, c, Y = _density_setup()
    assert np.unique(np.round(c, 12)).size == c.size  # distinct density
    cfg = dict(P_budget=4, lam=0.05, noise=0.02)
    down = optimize_test_measure(dec, Y, OptimizerConfig(**cfg))
    up = optimize_test_measure(dec, Y,
                               OptimizerConfig(**cfg, mode="ascent"))
    for trace, best in ((down, np.argmin(c)), (up, np.argmax(c))):
        assert trace.final_measure.masses[best] == 1.0
        assert trace.Eg[-1] == c[best]
        assert trace.participation[-1] == 1.0
    assert down.Eg[-1] < float(np.mean(c)) < up.Eg[-1]


def test_optimize_test_measure_trace_semantics():
    dec, c, Y = _density_setup(seed=8)
    cfg = OptimizerConfig(P_budget=4, lam=0.05, noise=0.02)
    trace = optimize_test_measure(dec, Y, cfg)
    assert trace.logits.shape == (2, c.shape[0])
    assert trace.Eg.shape == trace.participation.shape == (2,)
    np.testing.assert_array_equal(trace.logits[0], 0.0)
    assert trace.Eg[0] == pytest.approx(float(np.mean(c)), rel=1e-12)
    assert trace.Eg[1] < trace.Eg[0]
    # the optimum's logits are its log masses, -inf off the argmin
    assert trace.logits[1, np.argmin(c)] == 0.0
    assert np.sum(np.isneginf(trace.logits[1])) == c.shape[0] - 1
    np.testing.assert_array_equal(trace.final_measure.masses,
                                  from_logits(trace.logits[-1]).masses)
    assert trace.converged
    assert trace.message.startswith("exact optimum")
    # the step settings of the training route are not read
    other = optimize_test_measure(dec, Y, OptimizerConfig(
        P_budget=4, lam=0.05, noise=0.02, steps=1, learning_rate=1e-3,
        convergence_tol=1.0))
    np.testing.assert_array_equal(other.logits, trace.logits)
    np.testing.assert_array_equal(other.Eg, trace.Eg)


def test_optimize_train_measure_improves_skewed_test():
    # the test measure concentrates on two atoms, so shifting training
    # mass toward them must beat the uniform start
    rng = np.random.default_rng(10)
    X = rng.standard_normal((9, 3))
    Y = np.tanh(X @ rng.standard_normal(3))[:, None]
    masses = np.full(9, 0.02)
    masses[0] = masses[1] = 0.42
    ptilde = DiscreteMeasure(masses / masses.sum())
    cfg = OptimizerConfig(P_budget=5, lam=0.05, noise=0.01, steps=40,
                          learning_rate=2.0)
    K = gram(KernelSpec("rbf", lengthscale=1.5), X)
    trace = optimize_train_measure(K, Y, ptilde, cfg)
    assert trace.Eg[-1] < trace.Eg[0]
    assert np.all(np.diff(trace.Eg) < 0)
    start = from_logits(np.zeros(9)).masses
    np.testing.assert_allclose(from_logits(trace.logits[0]).masses, start,
                               atol=0)


def test_optimize_train_measure_ascent_finds_detrimental():
    rng = np.random.default_rng(11)
    X = rng.standard_normal((7, 3))
    Y = (X @ rng.standard_normal(3))[:, None]
    cfg = OptimizerConfig(P_budget=4, lam=0.1, steps=25, mode="ascent",
                          learning_rate=2.0)
    K = gram(KernelSpec("rbf", lengthscale=1.0), X)
    trace = optimize_train_measure(K, Y, uniform_measure(7), cfg)
    assert trace.Eg[-1] > trace.Eg[0]
    assert np.all(np.diff(trace.Eg) > 0)


def test_optimize_train_measure_divergent_start_raises():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((8, 8))
    Y = X[:, :1].copy()
    cfg = OptimizerConfig(P_budget=8, lam=0.0, steps=5)
    with pytest.raises(ValueError, match="diverge"):
        optimize_train_measure(gram(KernelSpec("linear"), X), Y,
                               uniform_measure(8), cfg)


def test_diverging_trial_is_rejected_not_raised(monkeypatch):
    # every trial away from the uniform start diverges, so the line
    # search must reject them all and end the run at the start
    X, Y, K = _instance()
    real = optimizer.predict_Eg_train_grad

    def diverge_off_start(K, Y, p, *args, **kwargs):
        if np.ptp(p.masses) > 0:
            raise DivergenceError("trial diverges")
        return real(K, Y, p, *args, **kwargs)

    monkeypatch.setattr(optimizer, "predict_Eg_train_grad",
                        diverge_off_start)
    for mode in ("descent", "ascent"):
        cfg = OptimizerConfig(P_budget=4, lam=0.05, steps=5, mode=mode)
        trace = optimize_train_measure(K, Y, uniform_measure(8), cfg)
        assert trace.logits.shape[0] == 1
        assert trace.message == "no improving step within backtracking budget"


def test_underflowed_training_mass_raises_typed_error():
    # logits 800 apart underflow the softmax mass to exactly 0
    X, Y, K = _instance()
    z = np.zeros(8)
    z[3] = -800.0
    p = from_logits(z)
    assert p.masses[3] == 0.0
    with pytest.raises(SupportError, match="full support"):
        predict_Eg_train_grad(K, Y, p, uniform_measure(8), 4, 0.05, 0.0)


@pytest.mark.filterwarnings("error")
def test_underflowing_trial_is_rejected_not_raised():
    # the first trial step spreads the logits far past 745, so its
    # softmax underflows; the line search must back off, not raise
    X, Y, K = _instance()
    ptilde = from_logits(np.random.default_rng(14).standard_normal(8))
    p0 = uniform_measure(8).masses
    _, pbar = predict_Eg_train_grad(K, Y, p0, ptilde, 4, 0.05, 0.0)
    rate = 1e6
    assert np.ptp(rate * p0 * (pbar - np.dot(p0, pbar))) > 800.0
    for mode in ("descent", "ascent"):
        cfg = OptimizerConfig(P_budget=4, lam=0.05, steps=3, mode=mode,
                              learning_rate=rate)
        trace = optimize_train_measure(K, Y, ptilde, cfg)
        assert trace.logits.shape[0] > 1
        assert np.all(trace.final_measure.masses > 0.0)
        assert np.all(np.isfinite(trace.Eg))


def test_train_trace_equals_dataset_prediction():
    # the trace holds the gradient call's error; it must be the
    # per-point prediction at every accepted iterate
    rng = np.random.default_rng(15)
    X, Y, K = _instance(M=9, seed=15)
    ptilde = from_logits(rng.standard_normal(9))
    cfg = OptimizerConfig(P_budget=5, lam=0.05, noise=0.01, steps=6,
                          learning_rate=2.0)
    trace = optimize_train_measure(K, Y, ptilde, cfg)
    assert trace.logits.shape[0] > 2
    for z, eg in zip(trace.logits, trace.Eg):
        ref = predict_Eg_dataset(K, Y, from_logits(z), ptilde, 5, 0.05,
                                 0.01).Eg
        assert eg == pytest.approx(ref, rel=1e-12, abs=0)


def test_zero_gradient_stops_at_start():
    # a swap-symmetric two-atom problem has a constant error density, so
    # both atoms tie and the optimum is the uniform start in either mode
    K = np.array([[1.0, 0.3], [0.3, 1.0]])
    Y = np.array([[1.0], [-1.0]])
    dec = mercer_decompose(K, uniform_measure(2))
    for mode in ("descent", "ascent"):
        cfg = OptimizerConfig(P_budget=2, lam=0.1, mode=mode)
        trace = optimize_test_measure(dec, Y, cfg)
        np.testing.assert_array_equal(trace.final_measure.masses, 0.5)
        assert trace.Eg[-1] == trace.Eg[0]
        assert trace.participation[-1] == 2.0


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["rbf", "linear"]), C=st.sampled_from([1, 2]),
       tilted=st.booleans(), noise=st.sampled_from([0.0, 0.01]),
       regime=st.sampled_from(["lam0_below_rank", "ridgeless", 1e-3, 0.1]),
       duplicates=st.booleans(), offset=st.integers(1, 3),
       seed=st.integers(0, 2**16))
def test_analytic_train_gradient_matches_fd(kind, C, tilted, noise, regime,
                                            duplicates, offset, seed):
    # the linear kernel has rank D < M; duplicated inputs add exactly
    # degenerate zero eigenvalues, and their labels differ so the
    # collapsed modes carry target weight
    rng = np.random.default_rng(seed)
    M, D = 10, 4
    X = rng.standard_normal((M, D))
    if duplicates:
        X[-2:] = X[:2]
    Y = np.tanh(X @ rng.standard_normal((D, C))) \
        + 0.3 * rng.standard_normal((M, C))
    spec = KernelSpec("rbf", lengthscale=1.5) if kind == "rbf" \
        else KernelSpec("linear")
    K = gram(spec, X)
    ptilde = from_logits(rng.standard_normal(M) if tilted else np.zeros(M))
    z = 0.3 * rng.standard_normal(M)
    rank = mercer_decompose(K, from_logits(z)).rank
    if regime == "lam0_below_rank":
        lam, P = 0.0, max(rank - offset, 1)
    elif regime == "ridgeless":
        lam, P = 0.0, rank + offset
    else:
        lam, P = regime, rank + offset - 2

    def loss(zz):
        return predict_Eg_dataset(K, Y, from_logits(zz), ptilde, P, lam,
                                  noise).Eg

    pred = predict_Eg_dataset(K, Y, from_logits(z), ptilde, P, lam, noise)
    assert (pred.kappa == 0.0) == (regime == "ridgeless")
    p = from_logits(z).masses
    Eg, pbar = predict_Eg_train_grad(K, Y, p, ptilde, P, lam, noise)
    g = p * (pbar - np.dot(p, pbar))
    assert Eg == pytest.approx(pred.Eg, rel=1e-12, abs=0)
    assert np.all(np.isfinite(g))
    fd = fd_gradient(loss, z, 1e-5)
    # both are exactly zero when every mode is learned without noise
    assert np.max(np.abs(g - fd)) <= 1e-6 * np.max(np.abs(fd))


def test_train_optimizer_analytic_matches_fd_run():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((9, 3))
    Y = np.tanh(X @ rng.standard_normal(3))[:, None]
    ptilde = from_logits(rng.standard_normal(9))
    K = gram(KernelSpec("rbf", lengthscale=1.5), X)
    cfg = OptimizerConfig(P_budget=5, lam=0.05, noise=0.01, steps=10,
                          learning_rate=2.0)
    trace = optimize_train_measure(K, Y, ptilde, cfg)

    def loss(z):
        return predict_Eg_dataset(K, Y, from_logits(z), ptilde, 5, 0.05,
                                  0.01).Eg

    ref = _iterate(np.zeros(9),
                   lambda z: (loss(z), fd_gradient(loss, z, 1e-5)), cfg)
    assert trace.Eg.shape == ref.Eg.shape
    assert trace.Eg[-1] < trace.Eg[0]
    assert trace.Eg[-1] == pytest.approx(ref.Eg[-1], rel=1e-6)


def test_divergence_raises_typed_error():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((8, 8))
    Y = X[:, :1].copy()
    K = gram(KernelSpec("linear"), X)
    with pytest.raises(DivergenceError, match="diverge"):
        predict_Eg_train_grad(K, Y, uniform_measure(8), uniform_measure(8),
                              8, 0.0, 0.0)


def test_rank_threshold_reaches_loss_and_gradient():
    X, Y, K = _instance()
    ptilde = from_logits(np.random.default_rng(13).standard_normal(8))
    thr = 0.045  # inside the gap between the 7th and 8th eigenvalue
    assert mercer_decompose(K, uniform_measure(8), thr).rank == 7
    assert mercer_decompose(K, uniform_measure(8)).rank == 8
    cfg = OptimizerConfig(P_budget=5, lam=0.05, noise=0.01, steps=3)

    def loss(z):
        return predict_Eg_dataset(K, Y, from_logits(z), ptilde, 5, 0.05,
                                  0.01, rank_threshold=thr).Eg

    trace = optimize_train_measure(K, Y, ptilde, cfg, rank_threshold=thr)
    default = optimize_train_measure(K, Y, ptilde, cfg)
    assert trace.Eg[0] == predict_Eg_train_grad(
        K, Y, from_logits(np.zeros(8)), ptilde, 5, 0.05, 0.01,
        rank_threshold=thr)[0]
    assert trace.Eg[0] != default.Eg[0]

    z = 0.2 * np.random.default_rng(14).standard_normal(8)
    p = from_logits(z).masses
    Eg, pbar = predict_Eg_train_grad(K, Y, p, ptilde, 5, 0.05, 0.01,
                                     rank_threshold=thr)
    assert Eg == pytest.approx(loss(z), rel=1e-12, abs=0)
    fd = fd_gradient(loss, z, 1e-5)
    g = p * (pbar - np.dot(p, pbar))
    assert np.max(np.abs(g - fd)) <= 1e-6 * np.max(np.abs(fd))
    _, pbar_default = predict_Eg_train_grad(K, Y, p, ptilde, 5, 0.05, 0.01)
    g_default = p * (pbar_default - np.dot(p, pbar_default))
    assert np.max(np.abs(g_default - fd)) > 1e-3 * np.max(np.abs(fd))


def _train_gradient_peak(kind):
    """tracemalloc peak of one M = 1000 gradient, in units of K.nbytes."""
    M = 1000
    X, Y, K = _instance(M=M, D=5, seed=2, kind=kind)
    p = from_logits(0.3 * np.random.default_rng(3).standard_normal(M))
    pt = from_logits(0.3 * np.random.default_rng(4).standard_normal(M))
    predict_Eg_train_grad(K[:10, :10], Y[:10], uniform_measure(10),
                          uniform_measure(10), 5, 1e-3, 0.01)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        predict_Eg_train_grad(K, Y, p, pt, 200, 1e-3, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - entry) / K.nbytes


def test_train_gradient_peak_memory_is_a_few_grams():
    # beside K: B and V during the eigensolve, then V, the one (s, s)
    # buffer and one product temporary
    assert _train_gradient_peak("rbf") <= 4.5


def test_train_gradient_peak_memory_on_a_low_rank_kernel():
    # rank 5 of 1000: the irreducible error of the forward pass covers a
    # 995 x 995 block of the overlap, which must not be copied
    assert _train_gradient_peak("linear") <= 4.5


@pytest.mark.parametrize("C", [1, 3])
def test_train_gradient_row_blocks_agree(monkeypatch, C):
    # collapsed modes (a rank-3 linear kernel) fall inside and across the
    # row blocks of the adjoint
    M = 13
    rng = np.random.default_rng(21)
    X = rng.standard_normal((M, 3))
    Y = X @ rng.standard_normal((3, C)) + 0.2 * rng.standard_normal((M, C))
    K = gram(KernelSpec("linear"), X)
    p = from_logits(0.3 * rng.standard_normal(M))
    pt = from_logits(0.3 * rng.standard_normal(M))
    assert mercer_decompose(K, p).rank == 3
    want = predict_Eg_train_grad(K, Y, p, pt, 5, 0.05, 0.01)
    for rows in (1, 2, 5):
        monkeypatch.setattr(theory, "_BLOCK", rows * M)
        Eg, pbar = predict_Eg_train_grad(K, Y, p, pt, 5, 0.05, 0.01)
        assert Eg == want[0]
        assert np.max(np.abs(pbar - want[1])) \
            <= 1e-14 * np.max(np.abs(want[1]))


TRAIN_GRAD_REGIMES = ("ridgeless", "collapsed", "off_support",
                      "near_divergence")


@settings(max_examples=40, deadline=None)
@given(
    regime=st.sampled_from(TRAIN_GRAD_REGIMES),
    seed=st.integers(0, 10**6),
    M=st.integers(6, 10),
    noise=st.sampled_from([0.0, 0.05]),
)
def test_train_gradient_edge_regimes_finite_or_typed(regime, seed, M, noise):
    # ridgeless interpolation around P = rank, collapsed modes, test mass
    # off the training support and P within 1e-6 of the threshold: the
    # error and its gradient are finite, or the call raises a typed
    # error, DivergenceError where the prediction diverges and
    # SupportError where a training mass is 0
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((M, 2))
    Y = rng.standard_normal((M, 1))
    p = from_logits(0.3 * rng.standard_normal(M))
    pt = from_logits(0.3 * rng.standard_normal(M))
    K = gram(KernelSpec("rbf", lengthscale=1.5) if regime == "ridgeless"
             else KernelSpec("linear"), X)
    if regime == "off_support":
        masses, test = p.masses.copy(), np.zeros(M)
        off = rng.permutation(M)[:M // 2]
        masses[off] = 0.0
        test[off] = pt.masses[off]
        p = DiscreteMeasure(masses / masses.sum())
        pt = DiscreteMeasure(test / test.sum())
    r = mercer_decompose(K, p).rank
    lam, grid = 1e-3, [1, r, 3 * M]
    if regime == "ridgeless":
        lam, grid = 0.0, sorted({max(r - 1, 1), r, r + 1})
    elif regime == "near_divergence":
        lam, grid = 0.0, [r - 1e-6, r + 1e-6]
    for P in grid:
        if regime == "off_support":
            with pytest.raises(SupportError):
                predict_Eg_train_grad(K, Y, p, pt, P, lam, noise)
            continue
        pred = predict_Eg_dataset(K, Y, p, pt, P, lam, noise)
        if pred.diverged:
            with pytest.raises(DivergenceError):
                predict_Eg_train_grad(K, Y, p, pt, P, lam, noise)
            continue
        Eg, pbar = predict_Eg_train_grad(K, Y, p, pt, P, lam, noise)
        assert np.isfinite(Eg)
        assert np.all(np.isfinite(pbar))
        assert Eg == pytest.approx(pred.Eg, rel=1e-9)
