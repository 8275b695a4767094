"""Monte Carlo kernel ridge regression harness: solver correctness,
trial determinism, and the comparison report."""

import tracemalloc

import numpy as np
import pytest
from scipy import linalg

from kernelshift import empirical
from kernelshift.empirical import (EMPIRICAL_COLUMNS, EmpiricalPoint,
                                   _ROW_BLOCK, _atom_block,
                                   _curve_from_errors, _fit_atoms,
                                   _solve_in_place,
                                   compare_report,
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
    # the training measure fixes M, so a K of another size is named first
    for train, test, message in (
            (uniform_measure(4), dirac, r"^K must be \(4, 4\)"),
            (p, uniform_measure(2), "one mass per point of K")):
        with pytest.raises(ValueError, match=message):
            discrete_trial_error(K, Y, train, test, 5, 0.1, 0.0,
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
    the C-ordered weighted block, its lower triangle mirrored, and one
    gemv for the prediction. The block is symmetric only to rounding, and
    krr_solve fits the symmetric part of what it is given, so it gets the
    symmetric matrix whose lower triangle the trial's Cholesky factor
    reads.

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
    A = np.tril(A) + np.tril(A, -1).T
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
    # the trial gathers and weights K_uu through a buffer of a few rows of
    # K, which must give the weighted block's exact bits, and its fit on
    # that block is krr_solve's, bit for bit. The prediction sums row
    # blocks, so the error agrees to rounding only, for buffers of 1, 3
    # and all n rows
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
                w = np.sqrt(counts)
                block = _atom_block(K, atoms, w, np.empty((rows, 40)))
                assert block.flags.f_contiguous
                assert np.array_equal(block, K[np.ix_(atoms, atoms)]
                                      * w[:, None] * w[None, :])
            raw = K[np.ix_(atoms, atoms)] * w[:, None] * w[None, :]
            beta = _fit_atoms(block, w, sums, lam)
            if lam > 0:
                assert np.array_equal(beta, w[:, None] * coef)
            else:
                # the pseudoinverse reads the whole block: it is lstsq's
                # on the trial's own block, and krr_solve's on the
                # mirrored one to rounding
                ref = np.linalg.lstsq(raw, sums / w[:, None],
                                      rcond=empirical.RIDGELESS_RCOND)[0]
                assert np.array_equal(beta, w[:, None] * ref)
                assert np.allclose(beta, w[:, None] * coef, rtol=1e-9,
                                   atol=1e-9 * np.abs(beta).max())


# training masses with zero-mass atoms first, inside and last, and a
# one-atom support
_DRAW_MASSES = [np.array([0.0, 0.2, 0.0, 0.0, 0.5, 0.3, 0.0]),
                np.array([0.0, 0.0, 1.0, 0.0])]


@pytest.mark.parametrize("masses", _DRAW_MASSES)
def test_cdf_draw_is_generator_choice(masses):
    # the trial draws by the algorithm of Generator.choice(p=...), which
    # gives its indices and leaves the generator where choice leaves it
    cdf = masses.cumsum()
    cdf /= cdf[-1]
    for seed in range(5):
        for P in (1, 9, 400):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            want = a.choice(masses.size, size=P, replace=True, p=masses)
            got = cdf.searchsorted(b.random(P), side="right")
            assert np.array_equal(got, want)
            assert np.all(masses[got] > 0)
            assert np.array_equal(b.standard_normal(3),
                                  a.standard_normal(3))


def test_bincount_sums_have_add_at_bits():
    # per-atom label sums from np.bincount add each column's draws in
    # the order np.add.at does over the draws of np.unique's inverse
    rng = np.random.default_rng(11)
    M, P = 30, 200
    Y = rng.standard_normal((M, 2)) * 1e3
    idx = rng.integers(0, M - 4, size=P)
    labels = Y[idx] + np.sqrt(0.04) * rng.standard_normal((P, 2))
    atoms, inv, counts = np.unique(idx, return_inverse=True,
                                   return_counts=True)
    want = np.zeros((atoms.size, 2))
    np.add.at(want, inv, labels)
    got_counts = np.bincount(idx, minlength=M)
    assert np.array_equal(np.flatnonzero(got_counts), atoms)
    assert np.array_equal(got_counts[atoms], counts)
    for c in range(2):
        got = np.bincount(idx, weights=labels[:, c], minlength=M)[atoms]
        assert np.array_equal(got, want[:, c])


def _choice_trial_error(K, Y, train_measure, test_measure, P, lam, noise,
                        rng):
    """The trial with Generator.choice, np.unique and np.add.at, its
    K_uu block gathered whole and then weighted, and its prediction
    summed over the trial's row blocks."""
    M = K.shape[0]
    idx = rng.choice(M, size=P, replace=True, p=train_measure.masses)
    labels = Y[idx]
    if noise > 0:
        labels = labels + np.sqrt(noise) * rng.standard_normal(labels.shape)
    atoms, inv, counts = np.unique(idx, return_inverse=True,
                                   return_counts=True)
    sums = np.zeros((atoms.size, labels.shape[1]))
    np.add.at(sums, inv, labels)
    w = np.sqrt(counts)
    A = K[np.ix_(atoms, atoms)].T
    A *= w[:, None]
    A *= w
    beta = w[:, None] * _solve_in_place(A, sums / w[:, None], lam)[0]
    rows = max(1, min(atoms.size, _ROW_BLOCK // M))
    preds = np.zeros((M, beta.shape[1]))
    for lo in range(0, atoms.size, rows):
        preds += K[atoms[lo:lo + rows]].T @ beta[lo:lo + rows]
    return float(np.sum(test_measure.masses[:, None] * (preds - Y) ** 2))


@pytest.mark.parametrize("noise", [0.0, 0.04])
@pytest.mark.parametrize("lam", [0.0, 0.1])
@pytest.mark.parametrize("masses", _DRAW_MASSES)
def test_trial_has_the_bits_of_the_choice_trial(masses, lam, noise):
    # the CDF draw, the bincount sums and the weighting of each gathered
    # row block keep every bit of the error and the generator's state
    rng = np.random.default_rng(12)
    M = masses.size
    X = rng.standard_normal((M, 3))
    Y = np.column_stack([np.sin(X[:, 0]), X[:, 1] * X[:, 2]])
    K = gram(KernelSpec("rbf", lengthscale=1.2), X)
    p = DiscreteMeasure(masses)
    pt = DiscreteMeasure(rng.dirichlet(np.ones(M)))
    for seed in range(4):
        for P in (1, 5, 60):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            want = _choice_trial_error(K, Y, p, pt, P, lam, noise, a)
            assert discrete_trial_error(K, Y, p, pt, P, lam, noise, b) \
                == want
            assert np.array_equal(b.standard_normal(3),
                                  a.standard_normal(3))


@pytest.mark.parametrize("threads", [1, 3])
def test_grid_points_equal_one_p_runs(threads):
    # trials go trial-major through the pool and are regrouped by P
    X = np.random.default_rng(13).standard_normal((50, 3))
    K = gram(KernelSpec("rbf", lengthscale=1.5), X)
    Y = np.sin(X[:, :1])
    p = DiscreteMeasure(np.random.default_rng(14).dirichlet(np.ones(50)))
    pt = uniform_measure(50)
    kwargs = dict(lam=1e-2, noise=0.01, trials=5, seed=3, threads=threads)
    P_values = [40, 3, 12, 3]
    grid = run_learning_curve(K, Y, p, pt, P_values, **kwargs)
    assert grid == [run_learning_curve(K, Y, p, pt, [P], **kwargs)[0]
                    for P in P_values]


@pytest.mark.parametrize("P", [10**400, 2**40])
def test_monte_carlo_p_beyond_the_draw_budget_raises_before_any_draw(
        P, monkeypatch):
    # 10**400 overflows a C long in the draw and 2**40 draws need 8 TB;
    # both are refused, naming P, before any trial draws
    def no_draw(*args):
        raise AssertionError("a trial drew before the P check")

    monkeypatch.setattr(empirical, "rng_from", no_draw)
    ds, K = _toy_problem()
    p = uniform_measure(12)
    with pytest.raises(ValueError, match=f"P = {str(P)[:10]}"):
        run_learning_curve(K, ds.Y, p, p, P_values=[3, P], lam=0.1,
                           noise=0.0, trials=2, seed=0)
    with pytest.raises(ValueError, match="P = "):
        run_continuous_curve(KernelSpec("linear"),
                             lambda rng, n: rng.standard_normal((n, 2)),
                             lambda X: X[:, 0], lambda X, coef: 0.0,
                             P_values=[P], lam=0.1, noise=0.0, trials=2,
                             seed=0)


@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_continuous_trial_fit_equals_krr_solve_bit_for_bit(lam):
    # the continuous trials factor the Gram's transpose in place, which
    # is krr_solve's Fortran copy exactly when gram is exactly symmetric
    rng = np.random.default_rng(4)
    X = rng.standard_normal((25, 3))
    y = rng.standard_normal((25, 1))
    for spec in (KernelSpec("linear"), KernelSpec("rbf", lengthscale=1.0),
                 KernelSpec("laplace", lengthscale=1.0),
                 KernelSpec("ntk_relu", depth=2)):
        want = krr_solve(gram(spec, X), y, lam).coef
        fits = []
        run_continuous_curve(spec, lambda rng, n: X, lambda X: y,
                             lambda X, coef: fits.append(coef) or 0.0,
                             P_values=[25], lam=lam, noise=0.0, trials=1,
                             seed=0)
        assert np.array_equal(fits[0], want)


@pytest.mark.parametrize("C", [1, 3])
@pytest.mark.parametrize("n", [1, 2, 100, 655])
def test_ridge_solve_equals_scipy_cholesky_bit_for_bit(n, C):
    # the ctypes dpotrf and dpotrs calls are the LAPACK routines scipy's
    # cho_factor(lower=True) and cho_solve call, on the same arguments
    rng = np.random.default_rng([n, C])
    K = gram(KernelSpec("rbf", lengthscale=1.5), rng.standard_normal((n, 4)))
    y = rng.standard_normal((n, C))
    A = np.array(K, order="F")
    A.flat[::n + 1] += 1e-3
    want = linalg.cho_solve(linalg.cho_factor(A, lower=True,
                                              check_finite=False),
                            y, check_finite=False)
    got, rank = _solve_in_place(np.array(K, order="F"), y, 1e-3)
    assert rank == n
    assert np.array_equal(got, want)


def test_ridge_solve_edge_cases():
    with pytest.raises(np.linalg.LinAlgError):
        krr_solve(np.diag([1.0, -1.0]), np.ones((2, 1)), 0.1)
    assert krr_solve(np.zeros((0, 0)), np.zeros((0, 3)), 0.1).coef.shape \
        == (0, 3)
    # a layout LAPACK would misread is refused before the ridge is added
    K = gram(KernelSpec("rbf", lengthscale=1.0),
             np.random.default_rng(6).standard_normal((5, 2)))
    for A in (np.ascontiguousarray(K), np.asfortranarray(K, np.float32)):
        before = A.copy()
        with pytest.raises(ValueError, match="Fortran-ordered float64"):
            _solve_in_place(A, np.ones((5, 1)), 0.1)
        assert np.array_equal(A, before)


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


def test_threads_give_equal_points_on_blocks_of_hundreds_of_atoms():
    # 400 draws from 600 atoms hit about 290 distinct ones, so two threads
    # factor blocks of that size at the same time
    X = np.random.default_rng(9).standard_normal((600, 3))
    K = gram(KernelSpec("rbf", lengthscale=1.5), X)
    Y = np.sin(X[:, :1])
    p = uniform_measure(600)
    kwargs = dict(P_values=[400], lam=1e-3, noise=0.01, trials=8, seed=2)
    one = run_learning_curve(K, Y, p, p, **kwargs)
    assert run_learning_curve(K, Y, p, p, threads=2, **kwargs) == one


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
    # 7 trials do not split evenly over 2 or 3 threads
    kwargs = dict(P_values=[3, 6], lam=0.2, noise=0.0, trials=7, seed=5)
    a = run_continuous_curve(spec, sample_train, target, test_error,
                             **kwargs)
    for threads in (2, 3):
        assert run_continuous_curve(spec, sample_train, target, test_error,
                                    **kwargs | dict(threads=threads)) == a
    assert all(np.isfinite(p.Eg_mean) for p in a)
    assert a[1].Eg_mean < a[0].Eg_mean
    with pytest.raises(ValueError, match="ridge must be nonnegative"):
        run_continuous_curve(spec, sample_train, target, test_error,
                             **(kwargs | dict(lam=-0.1)))


def test_continuous_trial_checks_the_gram_budget_before_building_it(
        monkeypatch):
    def no_gram(*args):
        raise AssertionError("the Gram was built before the budget check")

    monkeypatch.setattr(empirical, "MAX_GRAM_BYTES", 8 * 5 * 5)
    monkeypatch.setattr(empirical, "gram", no_gram)
    with pytest.raises(ValueError, match="budget"):
        run_continuous_curve(KernelSpec("linear"),
                             lambda rng, n: rng.standard_normal((n, 2)),
                             lambda X: X[:, 0], lambda X, coef: 0.0,
                             P_values=[6], lam=0.1, noise=0.0, trials=2,
                             seed=0)


@pytest.mark.parametrize("threads", [0, -1, 1.5, None])
def test_thread_count_must_be_a_positive_integer(threads):
    ds, K = _toy_problem()
    p = uniform_measure(12)
    with pytest.raises(ValueError, match="threads must be a positive"):
        run_learning_curve(K, ds.Y, p, p, P_values=[3], lam=0.1, noise=0.0,
                           trials=2, seed=0, threads=threads)
    with pytest.raises(ValueError, match="threads must be a positive"):
        run_continuous_curve(KernelSpec("linear"),
                             lambda rng, n: rng.standard_normal((n, 2)),
                             lambda X: X[:, 0], lambda X, coef: 0.0,
                             P_values=[3], lam=0.1, noise=0.0, trials=2,
                             seed=0, threads=threads)


@pytest.mark.parametrize("trials", [0, -1, 2.0, None])
def test_trial_count_must_be_a_positive_integer(trials):
    # zero trials would average nothing into a silent NaN
    ds, K = _toy_problem()
    p = uniform_measure(12)
    with pytest.raises(ValueError, match="trials must be a positive"):
        run_learning_curve(K, ds.Y, p, p, P_values=[3], lam=0.1, noise=0.0,
                           trials=trials, seed=0)


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


def test_compare_report_without_finite_theory_has_no_summary():
    emp = [EmpiricalPoint(2, 9.9, 1.0, 0.3, 16),
           EmpiricalPoint(4, 0.5, 0.1, 0.05, 16)]
    rep = compare_report([np.inf, np.inf], emp, band=3.0)
    assert all(np.isinf(row["z"]) for row in rep["rows"])
    assert np.isnan(rep["max_abs_z"]) and np.isnan(rep["fraction_within"])
    assert not rep["all_within"]


def test_monte_carlo_curves_reject_negative_noise():
    ds, K = _toy_problem()
    p = uniform_measure(ds.M)
    for noise in (-1.0, np.nan):
        with pytest.raises(ValueError, match="noise"):
            run_learning_curve(K, ds.Y, p, p, P_values=[3], lam=0.1,
                               noise=noise, trials=2, seed=0)
        with pytest.raises(ValueError, match="noise"):
            run_continuous_curve(KernelSpec("linear"),
                                 lambda rng, n: rng.standard_normal((n, 2)),
                                 lambda X: X[:, 0], lambda X, coef: 0.0,
                                 P_values=[3], lam=0.1, noise=noise,
                                 trials=2, seed=0)


def test_compare_report_validation():
    emp = [EmpiricalPoint(2, 1.0, 0.1, 0.05, 16)]
    with pytest.raises(ValueError):
        compare_report([1.0, 0.5], emp)
    with pytest.raises(ValueError, match="grids"):
        compare_report([1.0], emp, theory_P=[3])


@pytest.mark.parametrize("bad, name", [
    (dict(theory_P=[np.inf, 4]), "theory_P"),
    (dict(theory_P=[np.nan, 4]), "theory_P"),
    (dict(theory_P=[2.5, 4]), "theory_P"),
    (dict(theory_P=[0, 4]), "theory_P"),
    (dict(theory_Eg=[np.nan, 0.5]), "theory_Eg"),
    (dict(theory_Eg=[-np.inf, 0.5]), "theory_Eg"),
    (dict(Eg_mean=np.nan), "empirical_points Eg_mean"),
    (dict(Eg_stderr=np.inf), "empirical_points Eg_stderr"),
    (dict(P=np.inf), "empirical_points P"),
])
def test_compare_report_refuses_values_outside_the_column_rules(bad, name):
    # theory P = inf ended in an OverflowError, and a NaN mean gave a NaN z
    theory_Eg = bad.get("theory_Eg", [np.inf, 0.5])  # +inf: a diverged row
    theory_P = bad.get("theory_P", [2.0, 4])         # 2.0 is an integer
    first = {"P": 2, "Eg_mean": 1.1, "Eg_std": 0.2, "Eg_stderr": 0.05,
             "trials": 16}
    first.update((k, v) for k, v in bad.items() if k in first)
    emp = [EmpiricalPoint(**first), EmpiricalPoint(4, 0.5, 0.1, 0.05, 16)]
    with pytest.raises(ValueError, match=f"^{name} must hold "):
        compare_report(theory_Eg, emp, theory_P=theory_P)
    rep = compare_report([np.inf, 0.5],
                         [EmpiricalPoint(2, 1.1, 0.2, 0.05, 16), emp[1]],
                         theory_P=[2.0, 4])
    assert [row["P"] for row in rep["rows"]] == [2, 4]
