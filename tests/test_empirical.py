"""Monte Carlo kernel ridge regression harness: solver correctness,
trial determinism, and the comparison report."""

import tracemalloc

import numpy as np
import pytest

from kernelshift import empirical
from kernelshift.empirical import (EMPIRICAL_COLUMNS, EmpiricalPoint,
                                   _atom_block, _curve_from_errors,
                                   _fit_atoms,
                                   _fit_fresh_gram, compare_report,
                                   discrete_trial_error, krr_solve,
                                   run_continuous_curve, run_learning_curve)
from kernelshift.kernels import KernelSpec, gram
from kernelshift.measures import Dataset, DiscreteMeasure, uniform_measure


def _toy_problem(M=12, D=3, seed=5):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((M, D))
    Y = (X @ rng.standard_normal(D) / np.sqrt(D))[:, None]
    ds = Dataset(X, Y)
    K = gram(KernelSpec("linear"), X)
    return ds, K


def test_krr_solve_scalar_golden():
    sol = krr_solve(np.array([[1.0]]), np.array([[1.0]]), lam=1.0)
    assert sol.coef[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert sol.rank == 1
    assert sol.residual < 1e-14


def test_ridgeless_interpolates():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, 6))
    K = gram(KernelSpec("rbf", lengthscale=1.0), X)
    y = rng.standard_normal((6, 1))
    sol = krr_solve(K, y, lam=0.0)
    np.testing.assert_allclose(K @ sol.coef, y, atol=1e-8)
    assert sol.rank == 6


def test_ridgeless_duplicate_rows_minimum_norm():
    # duplicating a training point must not change the fitted function
    rng = np.random.default_rng(1)
    X = rng.standard_normal((5, 2))
    Xdup = np.vstack([X, X[2:3]])
    ydup = np.vstack([rng.standard_normal((5, 1)),
                      np.zeros((1, 1))])
    ydup[5, 0] = ydup[2, 0]
    spec = KernelSpec("rbf", lengthscale=1.3)
    Kdup = gram(spec, Xdup)
    sol = krr_solve(Kdup, ydup, lam=0.0)
    assert sol.rank < 6
    Xq = rng.standard_normal((7, 2))
    preds_dup = gram(spec, Xq, Xdup) @ sol.coef
    K = gram(spec, X)
    sol_single = krr_solve(K, ydup[:5], lam=0.0)
    preds = gram(spec, Xq, X) @ sol_single.coef
    np.testing.assert_allclose(preds_dup, preds, atol=1e-8)


def test_krr_solve_validation():
    with pytest.raises(ValueError):
        krr_solve(np.ones((2, 3)), np.ones((2, 1)), 0.1)
    with pytest.raises(ValueError):
        krr_solve(np.eye(2), np.ones((3, 1)), 0.1)
    with pytest.raises(ValueError):
        krr_solve(np.eye(2), np.ones((2, 1)), -0.1)


def test_gram_size_guard():
    # a broadcast view reports the logical nbytes without owning the
    # buffer, so the budget check is exercised without allocating
    n = 20000
    K = np.broadcast_to(np.float64(0.0), (n, n))
    with pytest.raises(ValueError, match="Gram"):
        krr_solve(K, np.zeros((n, 1)), 0.1)


def test_discrete_trial_reproducible():
    ds, K = _toy_problem()
    p = uniform_measure(12)
    pt = uniform_measure(12)
    e1 = discrete_trial_error(K, ds.Y, p, pt, P=5, lam=0.1, noise=0.04,
                              rng=np.random.default_rng(33))
    e2 = discrete_trial_error(K, ds.Y, p, pt, P=5, lam=0.1, noise=0.04,
                              rng=np.random.default_rng(33))
    assert e1 == e2
    assert e1 >= 0.0


def test_discrete_trial_error_deterministic_and_respects_support():
    # with K = I a trial predicts 0 on every atom it did not draw, so
    # the error of a Dirac test measure on the zero-mass atom is its
    # squared label exactly when that atom is never drawn
    K, Y = np.eye(3), np.array([[1.0], [2.0], [3.0]])
    p = DiscreteMeasure(np.array([0.5, 0.0, 0.5]))
    dirac = DiscreteMeasure(np.array([0.0, 1.0, 0.0]))
    for seed in range(20):
        err = discrete_trial_error(K, Y, p, dirac, 200, 0.1, 0.0,
                                   np.random.default_rng(seed))
        assert err == 4.0
    with pytest.raises(ValueError):
        discrete_trial_error(K, Y, p, dirac, -1, 0.1, 0.0,
                             np.random.default_rng(0))
    ds, K = _toy_problem()
    p, pt = uniform_measure(12), uniform_measure(12)

    def curve(seed):
        return [pt_.Eg_mean for pt_ in run_learning_curve(
            K, ds.Y, p, pt, [3, 5], 0.1, 0.04, trials=4, seed=seed)]

    assert curve(4) == curve(4)
    assert curve(4) != curve(5)


def _p_space_trial_error(K, Y, train_measure, test_measure, P, lam, noise,
                         rng):
    """The trial on all P draws: the same rng stream, then the P x P fit."""
    idx = rng.choice(K.shape[0], size=P, replace=True,
                     p=train_measure.masses)
    labels = Y[idx]
    if noise > 0:
        labels = labels + np.sqrt(noise) * rng.standard_normal(labels.shape)
    coef = krr_solve(K[np.ix_(idx, idx)], labels, lam).coef
    preds = K[:, idx] @ coef
    return float(np.sum(test_measure.masses[:, None] * (preds - Y) ** 2))


@pytest.mark.parametrize("noise", [0.0, 0.04])
@pytest.mark.parametrize("C", [1, 2])
@pytest.mark.parametrize("lam", [0.0, 1e-3, 0.5])
@pytest.mark.parametrize("kind", ["linear", "rbf"])
def test_distinct_atom_trial_matches_p_space_fit(kind, lam, C, noise):
    # linear on D=3 is rank-deficient once more than 3 atoms are drawn;
    # M=6, P=40 draws every atom many times; the half-zero training
    # measure leaves atoms that are tested but never drawn
    spec = KernelSpec("linear") if kind == "linear" else \
        KernelSpec("rbf", lengthscale=1.0)
    for M, P, zero_mass in ((30, 20, False), (30, 60, False), (6, 40, False),
                            (30, 25, True)):
        rng = np.random.default_rng([M, P, C])
        X = rng.standard_normal((M, 3))
        Y = X @ rng.standard_normal((3, C)) + 0.3 * np.sin(X[:, :C])
        K = gram(spec, X)
        masses = np.ones(M)
        if zero_mass:
            masses[::2] = 0.0
        p = DiscreteMeasure(masses / masses.sum())
        pt = DiscreteMeasure(rng.dirichlet(np.ones(M)))
        # a noiseless ridgeless rbf fit that draws every atom is exact,
        # so both errors are rounding noise (~1e-30) and only the floor,
        # a squared error 1e-12 of the label scale, can compare them
        floor = 1e-24 * float(np.sum(pt.masses[:, None] * Y**2))
        for seed in range(6):
            got = discrete_trial_error(K, Y, p, pt, P, lam, noise,
                                       np.random.default_rng(seed))
            want = _p_space_trial_error(K, Y, p, pt, P, lam, noise,
                                        np.random.default_rng(seed))
            assert got == pytest.approx(want, rel=1e-9, abs=floor)


def _atom_trial_error_via_krr_solve(K, Y, train_measure, test_measure, P,
                                    lam, noise, rng):
    """The distinct-atom trial with its fit made by public krr_solve on
    the C-ordered weighted block, and one gemv for the prediction.

    Returns the error, the atoms, counts and label sums, and krr_solve's
    coefficients."""
    idx = rng.choice(K.shape[0], size=P, replace=True,
                     p=train_measure.masses)
    labels = Y[idx]
    if noise > 0:
        labels = labels + np.sqrt(noise) * rng.standard_normal(labels.shape)
    atoms, inv, counts = np.unique(idx, return_inverse=True,
                                   return_counts=True)
    sums = np.zeros((atoms.size, labels.shape[1]))
    np.add.at(sums, inv, labels)
    w = np.sqrt(counts)
    A = K[np.ix_(atoms, atoms)] * w[:, None] * w[None, :]
    A_before = A.copy()
    coef = krr_solve(A, sums / w[:, None], lam).coef
    assert np.array_equal(A, A_before)
    preds = K[atoms].T @ (w[:, None] * coef)
    err = float(np.sum(test_measure.masses[:, None] * (preds - Y) ** 2))
    return err, atoms, counts, sums, coef


@pytest.mark.parametrize("lam", [0.0, 0.1])
@pytest.mark.parametrize("kind", ["linear", "rbf"])
def test_in_place_trial_fit_equals_krr_solve_bit_for_bit(kind, lam,
                                                         monkeypatch):
    # the trial gathers K_uu through a buffer of a few rows of K, which
    # must give the block's exact bits, and its fit on that block is
    # krr_solve's, bit for bit. The prediction sums row blocks, so the
    # error agrees to rounding only, for buffers of 1, 3 and all n rows
    spec = KernelSpec("linear") if kind == "linear" else \
        KernelSpec("rbf", lengthscale=1.0)
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40, 3))
    Y = X @ rng.standard_normal((3, 2)) + 0.3 * np.sin(X[:, :2])
    K = gram(spec, X)
    p = DiscreteMeasure(rng.dirichlet(np.ones(40)))
    pt = DiscreteMeasure(rng.dirichlet(np.ones(40)))
    for seed in range(5):
        for P in (7, 30, 90):
            want, atoms, counts, sums, coef = \
                _atom_trial_error_via_krr_solve(
                    K, Y, p, pt, P, lam, 0.04, np.random.default_rng(seed))
            for rows in (1, 3, atoms.size):
                monkeypatch.setattr(empirical, "_ROW_BLOCK", 40 * rows)
                got = discrete_trial_error(K, Y, p, pt, P, lam, 0.04,
                                           np.random.default_rng(seed))
                assert got == pytest.approx(want, rel=1e-12)
                block = _atom_block(K, atoms, np.empty((rows, 40)))
                assert block.flags.f_contiguous
                assert np.array_equal(block, K[np.ix_(atoms, atoms)])
            beta = _fit_atoms(block, counts, sums, lam)
            assert np.array_equal(beta, np.sqrt(counts)[:, None] * coef)


@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_fresh_gram_fit_equals_krr_solve_bit_for_bit(lam):
    # the continuous trials factor the Gram's transpose in place, which
    # is krr_solve's Fortran copy exactly when gram is exactly symmetric
    rng = np.random.default_rng(4)
    X = rng.standard_normal((25, 3))
    y = rng.standard_normal((25, 1))
    for spec in (KernelSpec("linear"), KernelSpec("rbf", lengthscale=1.0),
                 KernelSpec("laplace", lengthscale=1.0),
                 KernelSpec("ntk_relu", depth=2)):
        want = krr_solve(gram(spec, X), y, lam).coef
        assert np.array_equal(_fit_fresh_gram(gram(spec, X), y, lam), want)


def test_trial_block_above_the_gram_budget_raises(monkeypatch):
    # 30 draws from 30 atoms hit at least 2, a 32-byte block
    ds, K = _toy_problem(M=30)
    p = uniform_measure(30)
    monkeypatch.setattr(empirical, "MAX_GRAM_BYTES", 24)
    with pytest.raises(ValueError, match="Gram"):
        discrete_trial_error(K, ds.Y, p, p, 30, 0.1, 0.0,
                             np.random.default_rng(0))


def test_trial_peak_memory_is_about_one_block():
    # the trial holds its n x n block, a row buffer and vectors of length
    # M; the n x M rows of the draws are never alive at once
    X = np.random.default_rng(2).standard_normal((3000, 5))
    K = gram(KernelSpec("rbf", lengthscale=1.5), X)
    Y = np.sin(X[:, :1])
    p = uniform_measure(3000)
    discrete_trial_error(K, Y, p, p, 20, 1e-3, 0.01,
                         np.random.default_rng(0))
    rng = np.random.default_rng(1)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        discrete_trial_error(K, Y, p, p, 600, 1e-3, 0.01, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = np.unique(np.random.default_rng(1).choice(
        3000, size=600, replace=True, p=p.masses)).size
    assert peak - entry <= 1.5 * 8 * n * n


def test_learning_curve_determinism_and_threads():
    ds, K = _toy_problem()
    X = np.random.default_rng(8).standard_normal((6, 2))
    # the rbf problem draws up to 40 times from 6 atoms, so its trials
    # solve on a handful of weighted atoms
    problems = [(K, ds.Y, [2, 4, 8]),
                (gram(KernelSpec("rbf", lengthscale=1.0), X),
                 np.sin(X[:, :1]), [3, 12, 40])]
    for K, Y, P_values in problems:
        p = uniform_measure(K.shape[0])
        pt = uniform_measure(K.shape[0])
        kwargs = dict(P_values=P_values, lam=0.1, noise=0.01, trials=16,
                      seed=7)
        a = run_learning_curve(K, Y, p, pt, **kwargs)
        b = run_learning_curve(K, Y, p, pt, **kwargs)
        c = run_learning_curve(K, Y, p, pt, threads=4, **kwargs)
        assert a == b
        assert a == c  # thread count cannot change the sample streams
        assert [pt_.P for pt_ in a] == P_values
        for point in a:
            assert point.trials == 16
            assert point.Eg_stderr == pytest.approx(
                point.Eg_std / np.sqrt(16), abs=1e-15)


def test_learning_curve_accepts_raw_mass_arrays():
    ds, K = _toy_problem()
    p = uniform_measure(12)
    a = run_learning_curve(K, ds.Y, p, p, P_values=[3], lam=0.2, noise=0.0,
                           trials=4, seed=1)
    b = run_learning_curve(K, ds.Y, p.masses, p.masses, P_values=[3],
                           lam=0.2, noise=0.0, trials=4, seed=1)
    assert a == b


def test_learning_curve_concentrates():
    ds, K = _toy_problem(M=30, seed=11)
    p = uniform_measure(30)
    curve = run_learning_curve(K, ds.Y, p, p, P_values=[2, 20], lam=0.5,
                               noise=0.0, trials=200, seed=3)
    assert curve[1].Eg_mean < curve[0].Eg_mean
    assert curve[1].Eg_std < curve[0].Eg_std


def test_curve_point_statistics():
    pt = _curve_from_errors(4, [1.0, 2.0, 3.0])
    assert pt == EmpiricalPoint(P=4, Eg_mean=2.0, Eg_std=1.0,
                                Eg_stderr=1.0 / np.sqrt(3.0), trials=3)
    single = _curve_from_errors(2, [0.7])
    assert single.Eg_std == 0.0 and single.Eg_stderr == 0.0
    assert len(EMPIRICAL_COLUMNS) == 5


def test_continuous_curve_deterministic():
    beta = np.array([0.7, 0.0, 0.0, 0.0])

    def sample_train(rng, n):
        return rng.standard_normal((n, 4))

    def target(X):
        return X @ beta

    def test_error(X, coef):
        # the linear-kernel fit is x . w, w = X^T coef / D, so its error
        # under the isotropic unit-variance test measure is |w - beta|^2
        return float(np.sum((X.T @ coef[:, 0] / 4 - beta) ** 2))

    spec = KernelSpec("linear")
    kwargs = dict(P_values=[3, 6], lam=0.2, noise=0.0, trials=10, seed=5)
    a = run_continuous_curve(spec, sample_train, target, test_error,
                             **kwargs)
    b = run_continuous_curve(spec, sample_train, target, test_error,
                             **kwargs | dict(threads=2))
    assert a == b
    assert all(np.isfinite(p.Eg_mean) for p in a)
    assert a[1].Eg_mean < a[0].Eg_mean
    with pytest.raises(ValueError, match="ridge must be nonnegative"):
        run_continuous_curve(spec, sample_train, target, test_error,
                             **(kwargs | dict(lam=-0.1)))


def test_compare_report_alignment_and_z():
    emp = [EmpiricalPoint(2, 1.1, 0.2, 0.05, 16),
           EmpiricalPoint(4, 0.5, 0.1, 0.0, 16)]
    rep = compare_report([1.0, 0.5], emp, band=3.0, theory_P=[2, 4])
    assert len(rep["rows"]) == 2
    assert rep["rows"][0]["z"] == pytest.approx(-2.0)
    assert rep["rows"][1]["z"] == 0.0  # zero stderr but exact agreement
    assert rep["fraction_within"] == 1.0
    assert rep["max_abs_z"] == pytest.approx(2.0)
    assert rep["all_within"]

    emp_off = [EmpiricalPoint(2, 1.1, 0.2, 0.0, 16),
               EmpiricalPoint(4, 0.5, 0.1, 0.0, 16)]
    rep2 = compare_report([1.0, 0.5], emp_off, band=3.0)
    assert np.isinf(rep2["rows"][0]["z"])
    assert not rep2["rows"][0]["within"]
    assert rep2["fraction_within"] == 0.5
    assert np.isinf(rep2["max_abs_z"])
    assert not rep2["all_within"]


def test_compare_report_skips_divergent_theory():
    emp = [EmpiricalPoint(2, 9.9, 1.0, 0.3, 16),
           EmpiricalPoint(4, 0.5, 0.1, 0.05, 16)]
    rep = compare_report([np.inf, 0.5], emp, band=3.0)
    assert len(rep["rows"]) == 2
    assert not rep["rows"][0]["within"]
    assert rep["fraction_within"] == 1.0  # over the one finite prediction
    assert rep["all_within"]


def test_compare_report_validation():
    emp = [EmpiricalPoint(2, 1.0, 0.1, 0.05, 16)]
    with pytest.raises(ValueError):
        compare_report([1.0, 0.5], emp)
    with pytest.raises(ValueError, match="grids"):
        compare_report([1.0], emp, theory_P=[3])
