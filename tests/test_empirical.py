"""Monte Carlo kernel ridge regression harness: solver correctness,
trial determinism, and the comparison report."""

import tracemalloc

import numpy as np
import pytest
from scipy import linalg

from kernelshift import empirical
from kernelshift._rng import rng_from
from kernelshift.empirical import (EMPIRICAL_COLUMNS, RIDGELESS_RCOND,
                                   EmpiricalPoint, _ROW_BLOCK, _atom_block,
                                   _check_gram_size, _curve_from_errors,
                                   _fit_atoms,
                                   _solve_in_place, compare_report,
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


def _trial(K, Y, train_measure, test_measure, P, lam, noise, seed):
    """The error of the one trial of a one-trial learning curve at P,
    which draws from rng_from(seed, "trial", P, 0): the Eg_mean of one
    trial is that trial's error, exactly."""
    (point,) = run_learning_curve(K, Y, train_measure, test_measure, [P],
                                  lam, noise, trials=1, seed=seed)
    assert point.trials == 1
    return point.Eg_mean


def _trial_rng(seed, P):
    """The generator `_trial` draws from."""
    return rng_from(seed, "trial", P, 0)


def _reference_fit(A, y, lam):
    """Coefficients solving (A + lam I) coef = y for a symmetric A,
    solved in the test: scipy's cho_factor(lower=True) and cho_solve for
    lam > 0, the routines, arguments and library `_solve_in_place` calls,
    and numpy's lstsq with the package's cutoff for lam = 0."""
    if lam > 0:
        A = A + lam * np.eye(A.shape[0])
        return linalg.cho_solve(linalg.cho_factor(A, lower=True,
                                                  check_finite=False),
                                y, check_finite=False)
    return np.linalg.lstsq(A, y, rcond=RIDGELESS_RCOND)[0]


def test_ridge_solve_scalar_golden():
    coef = _solve_in_place(np.array([[1.0]], order="F"), np.array([[1.0]]),
                           1.0)
    assert coef[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_gram_size_guard():
    # at the default budget a 20000-point Gram (3.2 GB) is refused by the
    # size rule alone, before anything of that size is allocated
    with pytest.raises(ValueError, match="Gram"):
        _check_gram_size(20000)
    _check_gram_size(1000)


def test_ridgeless_interpolates():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((6, 6))
    K = gram(KernelSpec("rbf", lengthscale=1.0), X)
    y = rng.standard_normal((6, 1))
    coef = _solve_in_place(np.array(K, order="F"), y, 0.0)
    np.testing.assert_allclose(K @ coef, y, atol=1e-8)


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
    assert np.linalg.matrix_rank(Kdup) < 6
    coef_dup = _solve_in_place(np.array(Kdup, order="F"), ydup, 0.0)
    Xq = rng.standard_normal((7, 2))
    preds_dup = gram(spec, Xq, Xdup) @ coef_dup
    K = gram(spec, X)
    coef = _solve_in_place(np.array(K, order="F"), ydup[:5], 0.0)
    preds = gram(spec, Xq, X) @ coef
    np.testing.assert_allclose(preds_dup, preds, atol=1e-8)


def test_discrete_trial_reproducible():
    ds, K = _toy_problem()
    p = uniform_measure(12)
    pt = uniform_measure(12)
    e1 = _trial(K, ds.Y, p, pt, P=5, lam=0.1, noise=0.04, seed=33)
    e2 = _trial(K, ds.Y, p, pt, P=5, lam=0.1, noise=0.04, seed=33)
    assert e1 == e2
    assert e1 >= 0.0


def test_discrete_trial_deterministic_and_respects_support():
    # with K = I a trial predicts 0 on every atom it did not draw, so
    # the error of a Dirac test measure on the zero-mass atom is its
    # squared label exactly when that atom is never drawn
    K, Y = np.eye(3), np.array([[1.0], [2.0], [3.0]])
    p = DiscreteMeasure(np.array([0.5, 0.0, 0.5]))
    dirac = DiscreteMeasure(np.array([0.0, 1.0, 0.0]))
    for seed in range(20):
        assert _trial(K, Y, p, dirac, 200, 0.1, 0.0, seed) == 4.0
    with pytest.raises(ValueError):
        _trial(K, Y, p, dirac, -1, 0.1, 0.0, 0)
    # the training measure fixes M, so a K of another size is named first
    for train, test, message in (
            (uniform_measure(4), dirac, r"^K must be \(4, 4\)"),
            (p, uniform_measure(2), "one mass per point of K")):
        with pytest.raises(ValueError, match=message):
            _trial(K, Y, train, test, 5, 0.1, 0.0, 0)
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
    coef = _reference_fit(K[np.ix_(idx, idx)], labels, lam)
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
            got = _trial(K, Y, p, pt, P, lam, noise, seed)
            want = _p_space_trial_error(K, Y, p, pt, P, lam, noise,
                                        _trial_rng(seed, P))
            assert got == pytest.approx(want, rel=1e-9, abs=floor)


def _atom_trial_error_via_reference_fit(K, Y, train_measure, test_measure,
                                        P, lam, noise, rng):
    """The distinct-atom trial with its fit made by `_reference_fit` on
    the C-ordered weighted block, its lower triangle mirrored, and one
    gemv for the prediction. The block is symmetric only to rounding, so
    the reference fit gets the symmetric matrix whose lower triangle the
    trial's Cholesky factor reads.

    Returns the error, the atoms, counts and label sums, and the
    reference coefficients."""
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
    coef = _reference_fit(A, sums / w[:, None], lam)
    preds = K[atoms].T @ (w[:, None] * coef)
    err = float(np.sum(test_measure.masses[:, None] * (preds - Y) ** 2))
    return err, atoms, counts, sums, coef


@pytest.mark.parametrize("lam", [0.0, 0.1])
@pytest.mark.parametrize("kind", ["linear", "rbf"])
def test_in_place_trial_fit_equals_reference_fit_bit_for_bit(kind, lam,
                                                             monkeypatch):
    # the trial gathers and weights K_uu through a buffer of a few rows of
    # K, which must give the weighted block's exact bits, and its ridge
    # fit on that block is scipy's Cholesky fit, bit for bit. The
    # prediction sums row
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
                _atom_trial_error_via_reference_fit(
                    K, Y, p, pt, P, lam, 0.04, _trial_rng(seed, P))
            for rows in (1, 3, atoms.size):
                monkeypatch.setattr(empirical, "_ROW_BLOCK", 40 * rows)
                got = _trial(K, Y, p, pt, P, lam, 0.04, seed)
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
                # on the trial's own block, and on the mirrored one to
                # rounding
                ref = np.linalg.lstsq(raw, sums / w[:, None],
                                      rcond=RIDGELESS_RCOND)[0]
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
    beta = w[:, None] * _solve_in_place(A, sums / w[:, None], lam)
    rows = max(1, min(atoms.size, _ROW_BLOCK // M))
    preds = np.zeros((M, beta.shape[1]))
    for lo in range(0, atoms.size, rows):
        preds += K[atoms[lo:lo + rows]].T @ beta[lo:lo + rows]
    return float(np.sum(test_measure.masses[:, None] * (preds - Y) ** 2))


@pytest.mark.parametrize("noise", [0.0, 0.04])
@pytest.mark.parametrize("lam", [0.0, 0.1])
@pytest.mark.parametrize("masses", _DRAW_MASSES)
def test_trial_has_the_bits_of_the_choice_trial(masses, lam, noise,
                                               monkeypatch):
    # the CDF draw, the bincount sums and the weighting of each gathered
    # row block keep every bit of the error and the generator's state
    drawn = []

    def recorded(*key):
        drawn.append(rng_from(*key))
        return drawn[-1]

    monkeypatch.setattr(empirical, "rng_from", recorded)
    rng = np.random.default_rng(12)
    M = masses.size
    X = rng.standard_normal((M, 3))
    Y = np.column_stack([np.sin(X[:, 0]), X[:, 1] * X[:, 2]])
    K = gram(KernelSpec("rbf", lengthscale=1.2), X)
    p = DiscreteMeasure(masses)
    pt = DiscreteMeasure(rng.dirichlet(np.ones(M)))
    for seed in range(4):
        for P in (1, 5, 60):
            a = _trial_rng(seed, P)
            want = _choice_trial_error(K, Y, p, pt, P, lam, noise, a)
            assert _trial(K, Y, p, pt, P, lam, noise, seed) == want
            assert np.array_equal(drawn[-1].standard_normal(3),
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
def test_continuous_trial_fit_equals_reference_fit_bit_for_bit(lam):
    # the continuous trials factor the Gram's transpose in place, which
    # is the Gram itself when gram is exactly symmetric
    rng = np.random.default_rng(4)
    X = rng.standard_normal((25, 3))
    y = rng.standard_normal((25, 1))
    for spec in (KernelSpec("linear"), KernelSpec("rbf", lengthscale=1.0),
                 KernelSpec("laplace", lengthscale=1.0),
                 KernelSpec("ntk_relu", depth=2)):
        want = _reference_fit(gram(spec, X), y, lam)
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
    got = _solve_in_place(np.array(K, order="F"), y, 1e-3)
    assert np.array_equal(got, want)


def test_ridge_solve_edge_cases():
    with pytest.raises(np.linalg.LinAlgError):
        _solve_in_place(np.asfortranarray(np.diag([1.0, -1.0])),
                        np.ones((2, 1)), 0.1)
    assert _solve_in_place(np.zeros((0, 0), order="F"), np.zeros((0, 3)),
                           0.1).shape == (0, 3)
    # a layout LAPACK would misread is refused before the ridge is added
    K = gram(KernelSpec("rbf", lengthscale=1.0),
             np.random.default_rng(6).standard_normal((5, 2)))
    for A in (np.ascontiguousarray(K), np.asfortranarray(K, np.float32)):
        before = A.copy()
        with pytest.raises(ValueError, match="Fortran-ordered float64"):
            _solve_in_place(A, np.ones((5, 1)), 0.1)
        assert np.array_equal(A, before)


def _bad_ridge_system(kind):
    """(A, y) that the ridge solve refuses, named by kind."""
    K = gram(KernelSpec("rbf", lengthscale=1.0),
             np.random.default_rng(7).standard_normal((4, 2)))
    A, y = np.array(K, order="F"), np.ones((4, 1))
    if kind == "non-square":
        return np.asfortranarray(K[:, :3]), y
    if kind == "1-D":
        return np.asfortranarray(K[0]), y
    if kind == "read-only":
        A.flags.writeable = False
        return A, y
    if kind == "1-D labels":
        return A, np.ones(4)
    return A, np.ones((3, 1))   # wrong label rows


@pytest.mark.parametrize("kind", ["non-square", "1-D", "read-only",
                                  "1-D labels", "wrong label rows"])
def test_ridge_solve_validation(kind):
    # a system that is not square, not writeable, or whose labels are not
    # one row per training point is refused before the ridge is added
    A, y = _bad_ridge_system(kind)
    before = A.copy()
    with pytest.raises(ValueError,
                       match="Fortran-ordered float64|one row per"):
        _solve_in_place(A, y, 0.1)
    assert np.array_equal(A, before)


def test_trial_block_above_the_gram_budget_raises(monkeypatch):
    # the curve's P check passes the 30 draws at 8 bytes a draw, but the
    # block of their n distinct atoms needs 8 n^2 bytes
    ds, K = _toy_problem(M=30)
    p = uniform_measure(30)
    n = np.unique(_trial_rng(0, 30).choice(30, size=30, p=p.masses)).size
    assert 8 * n * n > 8 * 30
    monkeypatch.setattr(empirical, "MAX_GRAM_BYTES", 8 * 30)
    with pytest.raises(ValueError, match="Gram"):
        _trial(K, ds.Y, p, p, 30, 0.1, 0.0, 0)


def test_trial_peak_memory_is_about_one_block():
    # the trial holds its n x n block, a row buffer and vectors of length
    # M; the n x M rows of the draws are never alive at once
    X = np.random.default_rng(2).standard_normal((3000, 5))
    K = gram(KernelSpec("rbf", lengthscale=1.5), X)
    Y = np.sin(X[:, :1])
    p = uniform_measure(3000)
    _trial(K, Y, p, p, 20, 1e-3, 0.01, 0)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        _trial(K, Y, p, p, 600, 1e-3, 0.01, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = np.unique(_trial_rng(1, 600).choice(
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


def test_ridgeless_continuous_curve_matches_the_exact_wishart_error():
    # at lam = 0 and P > D the linear-kernel fit on x ~ N(0, C) is least
    # squares through lstsq's pseudoinverse, and its error under a test
    # covariance Ct, integrated exactly as (w - beta)^T Ct (w - beta), has
    # the mean noise tr(Ct C^-1)/(P - D - 1) (the inverse-Wishart mean).
    # Every P is above D + 3, where the error's variance is finite
    D, noise = 10, 0.1
    rng = np.random.default_rng(23)
    c = np.linspace(2.0, 0.1, D)
    ct = rng.uniform(0.2, 2.0, D)
    beta = rng.standard_normal(D)

    def test_error(X, coef):
        d = X.T @ coef[:, 0] / D - beta
        return float(d @ (ct * d))

    curve = run_continuous_curve(
        KernelSpec("linear"), lambda r, n: r.standard_normal((n, D)) *
        np.sqrt(c), lambda X: X @ beta, test_error, P_values=[20, 40, 100],
        lam=0.0, noise=noise, trials=400, seed=0)
    for point in curve:
        exact = noise * np.sum(ct / c) / (point.P - D - 1)
        assert abs(point.Eg_mean - exact) < 3 * point.Eg_stderr


def test_ridgeless_overparameterized_curve_matches_the_exact_error():
    # at lam = 0 and P < D the linear-kernel fit on x ~ N(0, I_D) is the
    # minimum-norm interpolator through lstsq's pseudoinverse, whose exact
    # error under the same measure is |beta|^2 (1 - P/D) + noise P/(D - P - 1)
    # (Hastie, Montanari, Rosset and Tibshirani, Ann. Statist. 2022).
    # Every P is well below D - 3, where the error's variance is finite.
    # With |beta| = 1 the noise term counts: at P = 30 the theory's
    # noise P/(D - P) lies about 4 standard errors below the mean
    D, noise = 40, 0.1
    beta = np.random.default_rng(29).standard_normal(D)
    beta /= np.linalg.norm(beta)

    def test_error(X, coef):
        d = X.T @ coef[:, 0] / D - beta
        return float(d @ d)

    curve = run_continuous_curve(
        KernelSpec("linear"), lambda r, n: r.standard_normal((n, D)),
        lambda X: X @ beta, test_error, P_values=[10, 20, 30], lam=0.0,
        noise=noise, trials=400, seed=0)
    for point in curve:
        P = point.P
        exact = beta @ beta * (1 - P / D) + noise * P / (D - P - 1)
        assert abs(point.Eg_mean - exact) < 3 * point.Eg_stderr


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
