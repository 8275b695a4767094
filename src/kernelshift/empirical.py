"""Monte Carlo kernel ridge regression against which theory is checked.

Two experiment styles are supported: discrete problems where train and
test measures live on the atoms of one dataset, and continuous problems
where fresh inputs are drawn each trial and the test error of each fit
is integrated exactly over the test measure. Either way every (P, trial)
task of a curve, trial-major, goes through one thread-pool map, and each
curve point becomes one CSV row of EMPIRICAL_COLUMNS.
"""

from __future__ import annotations

import ctypes
import math
import reprlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from ._lapack import _dpotrf, _dpotrs
from ._rng import rng_from
from .kernels import gram
from .measures import (as_measure, kernel_matrix, nonnegative, points,
                       positive_int, target_columns)

__all__ = [
    "EmpiricalPoint",
    "run_learning_curve",
    "run_continuous_curve",
    "compare_report",
    "EMPIRICAL_COLUMNS",
]

RIDGELESS_RCOND = 1e-10
MAX_GRAM_BYTES = 2**31
# entries of the buffer a discrete trial reads rows of K through
_ROW_BLOCK = 1 << 16


@dataclass(frozen=True)
class EmpiricalPoint:
    P: int
    Eg_mean: float
    Eg_std: float
    Eg_stderr: float
    trials: int


# the empirical CSV header; a row is dataclasses.astuple(point)
EMPIRICAL_COLUMNS = tuple(f.name for f in fields(EmpiricalPoint))


def _check_gram_size(P):
    nbytes = 8 * P * P
    if nbytes > MAX_GRAM_BYTES:
        raise ValueError(
            f"training Gram matrix needs {nbytes / 1e9:.1f} GB, "
            f"above the {MAX_GRAM_BYTES / 1e9:.1f} GB budget")


def _solve_in_place(A, y, lam):
    """Coefficients coef (P, C) solving (A + lam I) coef = y, for the
    labels y (P, C) and the matrix A, which it overwrites.

    A must be a writeable, Fortran-ordered float64 square array. Positive
    lam adds the ridge to A's diagonal, factors A in place with LAPACK
    dpotrf (lower triangle) and solves on a Fortran copy of y with dpotrs:
    the routines, arguments and library of scipy.linalg's own Cholesky
    factor and solve, so the coefficients keep their bits. Both are
    called through ctypes, which releases the GIL, so trial threads
    factor at the same time. lam = 0 takes numpy's lstsq (the
    pseudoinverse, so that duplicate sample points give the minimum-norm
    interpolant), which holds the GIL. scipy's dgelsd, called the same
    way, would release it, but it runs in scipy's OpenBLAS, not numpy's:
    with one BLAS thread it gives lstsq's bits, with two it did not at
    n = 300 and 600.
    """
    if not (A.dtype == np.float64 and A.ndim == 2
            and A.shape[0] == A.shape[1] and A.flags.f_contiguous
            and A.flags.writeable):
        raise ValueError("the ridge system must be a writeable square "
                         "Fortran-ordered float64 array")
    P = A.shape[0]
    if lam > 0:
        coef = np.array(y, dtype=np.float64, order="F")
        if coef.ndim != 2 or coef.shape[0] != P:
            raise ValueError("labels must be one row per training point")
        A.flat[::P + 1] += lam
        if P:
            n, info = ctypes.c_int(P), ctypes.c_int()
            _dpotrf(b"L", n, A.ctypes.data, n, info)
            if info.value > 0:
                raise np.linalg.LinAlgError(
                    f"{info.value}-th leading minor of the ridge system "
                    "is not positive definite")
            _dpotrs(b"L", n, ctypes.c_int(coef.shape[1]), A.ctypes.data, n,
                    coef.ctypes.data, n, info)
        return coef
    return np.linalg.lstsq(A, y, rcond=RIDGELESS_RCOND)[0]


def _row_blocks(K, atoms, buf):
    """(lo, hi, K[atoms[lo:hi]]) for consecutive blocks of len(buf)
    rows, each read into buf."""
    b = buf.shape[0]
    for lo in range(0, atoms.size, b):
        hi = min(lo + b, atoms.size)
        yield lo, hi, np.take(K, atoms[lo:hi], axis=0, out=buf[:hi - lo],
                              mode="clip")


def _atom_block(K, atoms, w, buf):
    """The Fortran-ordered block w_i K[u_i, u_j] w_j of the atoms u,
    read through buf.

    It is the transpose of the row-gathered block, as K is symmetric.
    Each gathered row block is weighted while it is in cache, and the
    entry (i, j) of the result is rounded as (K[u_i, u_j] w_i) w_j.
    """
    block = np.empty((atoms.size, atoms.size))
    for lo, hi, rows in _row_blocks(K, atoms, buf):
        out = block[lo:hi]
        np.take(rows, atoms, axis=1, out=out, mode="clip")
        out *= w
        out *= w[lo:hi, None]
    return block.T


def _fit_atoms(A, w, sums, lam):
    """Coefficients beta on the distinct atoms, prediction K[:, u] beta.

    A is the weighted block of `_atom_block`, which the fit overwrites:
    coef solves (w_i K_uu w_j + lam I) coef = s / w and beta = w coef.
    """
    return w[:, None] * _solve_in_place(A, sums / w[:, None], lam)


def _discrete_trials(K, Y, train_measure, test_measure, lam, noise):
    """error(P, rng): one KRR draw of P points on a discrete problem, and
    its test-measure error, after the checks and set-up that every trial
    of a curve shares.

    A draw is cdf.searchsorted(rng.random(P), side="right") on the
    normalized cumulative training masses: the algorithm of
    Generator.choice(M, size=P, p=masses), so it gives choice's indices
    and leaves rng in the same state. The P draws are fitted on their
    distinct atoms u, each weighted by w = sqrt(c) of its count c, with
    s the per-atom label sums (see `_fit_atoms`). Counts and sums come
    from np.bincount, which adds the draws in the order np.add.at does.
    This is the P-space estimator for every lam >= 0: at lam = 0 both
    are the minimum-norm least-squares fit, and the two matrices share
    their nonzero eigenvalues, so the pseudoinverse cuts the same modes.
    Rows of K are read a few at a time into one buffer, for the K_uu
    block and again for the prediction, so a trial holds its n x n block
    and never the n x M rows of its draws. Rows K[u] stand in for
    columns K[:, u]: K goes through measures.kernel_matrix once, here,
    which refuses a K that is not (M, M) for the training measure's M,
    finite and symmetric within SYMMETRY_RTOL, and symmetrizes one that
    is symmetric only within it.
    """
    train_measure = as_measure(train_measure)
    test_measure = as_measure(test_measure)
    M = train_measure.M
    K = kernel_matrix(K, M)
    Y = target_columns(Y, M)
    noise = nonnegative(noise, "noise")
    nonnegative(lam, "ridge")
    if test_measure.M != M:
        raise ValueError(f"train and test measures need one mass per "
                         f"point of K ({M}), got {train_measure.M} and "
                         f"{test_measure.M}")
    cdf = train_measure.masses.cumsum()
    cdf /= cdf[-1]
    test_masses = test_measure.masses[:, None]
    rows = max(1, _ROW_BLOCK // M)

    def error(P, rng):
        idx = cdf.searchsorted(rng.random(P), side="right")
        labels = Y[idx]
        if noise > 0:
            labels = labels + np.sqrt(noise) * rng.standard_normal(
                labels.shape)
        counts = np.bincount(idx, minlength=M)
        atoms = np.flatnonzero(counts)
        _check_gram_size(atoms.size)
        w = np.sqrt(counts[atoms])
        sums = np.empty((atoms.size, labels.shape[1]))
        for c in range(labels.shape[1]):
            sums[:, c] = np.bincount(idx, weights=labels[:, c],
                                     minlength=M)[atoms]
        buf = np.empty((max(1, min(atoms.size, rows)), M))
        beta = _fit_atoms(_atom_block(K, atoms, w, buf), w, sums, lam)
        preds = np.zeros((M, beta.shape[1]))
        for lo, hi, rows_u in _row_blocks(K, atoms, buf):
            preds += rows_u.T @ beta[lo:hi]
        return float(np.sum(test_masses * (preds - Y) ** 2))

    return error


def _curve_from_errors(P, errs):
    errs = np.asarray(errs, dtype=np.float64)
    n = errs.shape[0]
    std = float(errs.std(ddof=1)) if n > 1 else 0.0
    return EmpiricalPoint(P=int(P), Eg_mean=float(errs.mean()), Eg_std=std,
                          Eg_stderr=std / np.sqrt(n) if n > 1 else 0.0,
                          trials=n)


def _run_trials(task, P_values, trials, threads, noise):
    """One EmpiricalPoint per P from the errors task(P, t) of its trials,
    after the curve's sample sizes, trial count, thread count and noise
    are checked.

    A P whose draws need more than MAX_GRAM_BYTES, at 8 bytes a draw, is
    refused before any trial draws. Every (P, t) task of the curve goes
    through one map on a pool of `threads` workers, trial-major (every P
    of trial 0, then of trial 1, ...), so the small fits, which hold the
    GIL, overlap the large ones' factorizations, which release it. Each
    task draws from its own key, so the points do not depend on the
    thread count or the scheduling.
    """
    threads = positive_int(threads, "threads")
    trials = positive_int(trials, "trials")
    nonnegative(noise, "noise")
    P_values = [positive_int(P, "P") for P in P_values]
    for P in P_values:
        if 8 * P > MAX_GRAM_BYTES:
            raise ValueError(
                f"P = {reprlib.repr(P)} needs more than the "
                f"{MAX_GRAM_BYTES / 1e9:.1f} GB budget for its draws, at "
                f"8 bytes a draw")
    keys = [(P, t) for t in range(trials) for P in P_values]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        errs = list(pool.map(lambda key: task(*key), keys))
    return [_curve_from_errors(P, errs[i::len(P_values)])
            for i, P in enumerate(P_values)]


def run_learning_curve(K, Y, train_measure, test_measure, P_values, lam,
                       noise, trials, seed, threads=1):
    """Monte Carlo learning curve on a discrete problem.

    K goes through measures.kernel_matrix once per curve (see
    `_discrete_trials`): it must be (M, M) for the measures' M, finite
    and symmetric within SYMMETRY_RTOL. Every trial draws its own
    generator from (seed, P, trial index), so results are identical
    whatever the thread count or evaluation order.
    """
    error = _discrete_trials(K, Y, train_measure, test_measure, lam, noise)

    def task(P, t):
        return error(P, rng_from(seed, "trial", P, t))

    return _run_trials(task, P_values, trials, threads, noise)


def run_continuous_curve(kernel_spec, sample_train, target_fn, test_error,
                         P_values, lam, noise, trials, seed, threads=1):
    """Monte Carlo learning curve with fresh inputs every trial.

    sample_train(rng, n) must return an (n, D) array of training inputs,
    which goes through measures.points; target_fn maps an input array to
    noiseless labels. test_error(X, coef) must return the test-measure
    error of the fit with dual coefficients coef (P, C) on X, integrated
    exactly, so that training draws are the only noise in the trial
    statistics. The fit checks its labels, ridge and Gram budget before
    it builds the Gram, then factors the Gram in place: `kernels.gram`
    makes it exactly symmetric, so its transpose is the same matrix in
    Fortran order.
    """
    def task(P, t):
        rng = rng_from(seed, "trial", P, t)
        X = points(sample_train(rng, P), P)
        y = target_columns(target_fn(X), X.shape[0])
        if noise > 0:
            y = y + np.sqrt(noise) * rng.standard_normal(y.shape)
        nonnegative(lam, "ridge")
        _check_gram_size(X.shape[0])
        G = gram(kernel_spec, X)
        return test_error(X, _solve_in_place(G.T, y, lam))

    return _run_trials(task, P_values, trials, threads, noise)


# the compare inputs' column rules: a test of one value each
_COMPARE_RULES = {
    "integers >= 1": lambda v: math.isfinite(v) and v >= 1 and v == int(v),
    "finite values": math.isfinite,
    "finite values or +inf": lambda v: math.isfinite(v) or v == math.inf,
}


class _CompareInputError(ValueError):
    """A compare input value outside its column's rule. source is
    "theory" or "empirical", column the column's name in that input."""

    def __init__(self, name, source, column, rule, value):
        super().__init__(f"{name} must hold {rule}, got {value!r}")
        self.source, self.column, self.rule, self.value = \
            source, column, rule, value


def _compare_inputs(theory_Eg, empirical_points, theory_P):
    """(source, column, argument name, values, rule) of each compare
    input, theory first."""
    columns = [("theory", "Eg", "theory_Eg", theory_Eg,
                "finite values or +inf")]
    if theory_P is not None:
        columns.insert(0, ("theory", "P", "theory_P", theory_P,
                           "integers >= 1"))
    for f in fields(EmpiricalPoint):
        columns.append((
            "empirical", f.name, f"empirical_points {f.name}",
            [getattr(pt, f.name) for pt in empirical_points],
            "integers >= 1" if f.name in ("P", "trials")
            else "finite values"))
    return columns


def compare_report(theory_Eg, empirical_points, band=3.0, theory_P=None):
    """Per-P z-scores of theory values against Monte Carlo means.

    z = (theory - mean) / stderr per grid point. Returns a dict with the
    rows, max |z|, the fraction of finite-theory points within the band,
    and an overall verdict. Divergent predictions (theory +inf) are
    excluded from max |z| and the fraction, which are NaN when no theory
    point is finite, but kept in the rows. A stderr of zero with a
    mismatch is flagged as an infinite z.

    theory_P and the points' P and trials must be integers >= 1 (2.0 is
    one), the points' means, stds and stderrs finite, and each theory
    value finite or +inf; a value outside its rule raises ValueError
    naming it.
    """
    theory_Eg = list(theory_Eg)
    empirical_points = list(empirical_points)
    theory_P = None if theory_P is None else list(theory_P)
    for source, column, name, values, rule in _compare_inputs(
            theory_Eg, empirical_points, theory_P):
        for value in map(float, values):
            if not _COMPARE_RULES[rule](value):
                raise _CompareInputError(name, source, column, rule, value)
    if len(theory_Eg) != len(empirical_points):
        raise ValueError("theory and empirical grids have different sizes")
    if theory_P is not None:
        tp = [int(p) for p in theory_P]
        ep = [int(pt.P) for pt in empirical_points]
        if tp != ep:
            raise ValueError(f"P grids differ: theory {tp} vs empirical {ep}")
    rows = []
    n_ok = 0
    n_finite = 0
    max_abs = 0.0
    for th, pt in zip(theory_Eg, empirical_points):
        if pt.Eg_stderr > 0:
            z = (th - pt.Eg_mean) / pt.Eg_stderr
        else:
            z = 0.0 if pt.Eg_mean == th else np.inf
        within = bool(np.isfinite(th) and np.isfinite(z) and abs(z) <= band)
        rows.append({
            "P": int(pt.P),
            "Eg_theory": float(th),
            "Eg_mean": pt.Eg_mean,
            "Eg_stderr": pt.Eg_stderr,
            "z": float(z),
            "within": within,
        })
        if np.isfinite(th):
            n_finite += 1
            n_ok += within
            if np.isfinite(z):
                max_abs = max(max_abs, abs(z))
            else:
                max_abs = np.inf
    frac = n_ok / n_finite if n_finite else float("nan")
    return {
        "band": float(band),
        "rows": rows,
        "max_abs_z": float(max_abs) if n_finite else float("nan"),
        "fraction_within": float(frac),
        "all_within": bool(n_finite > 0 and n_ok == n_finite),
    }
