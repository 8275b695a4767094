"""Monte Carlo kernel ridge regression against which theory is checked.

Two experiment styles are supported: discrete problems where train and
test measures live on the atoms of one dataset, and continuous problems
where fresh inputs are drawn each trial and the test error of each fit
is integrated exactly over the test measure.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from ._rng import rng_from
from .kernels import gram
from .measures import DiscreteMeasure

__all__ = [
    "KRRSolution",
    "EmpiricalPoint",
    "krr_solve",
    "discrete_trial_error",
    "run_learning_curve",
    "run_continuous_curve",
    "compare_report",
    "EMPIRICAL_COLUMNS",
]

EMPIRICAL_COLUMNS = ("P", "Eg_mean", "Eg_std", "Eg_stderr", "trials")

RIDGELESS_RCOND = 1e-10
MAX_GRAM_BYTES = 2**31
# entries of the buffer a discrete trial reads rows of K through
_ROW_BLOCK = 1 << 16


@dataclass(frozen=True)
class KRRSolution:
    """Dual coefficients of one fit plus conditioning diagnostics."""

    coef: np.ndarray               # (P, C)
    rank: int                      # effective rank used by the solver
    residual: float                # max |(K + lam I) coef - y| over entries


@dataclass(frozen=True)
class EmpiricalPoint:
    P: int
    Eg_mean: float
    Eg_std: float
    Eg_stderr: float
    trials: int


def krr_solve(K_train, y_train, lam):
    """Fit kernel ridge regression.

    Solves (K_train + lam I) coef = y_train. Positive lam uses a
    Cholesky factorization; lam = 0 falls back to a pseudoinverse so
    that duplicate sample points (kernel matrices of deficient rank)
    yield the minimum-norm interpolant, with the rank reported.
    """
    K_train = np.asarray(K_train, dtype=np.float64)
    y = np.asarray(y_train, dtype=np.float64)
    y2 = y[:, None] if y.ndim == 1 else y
    P = K_train.shape[0]
    if K_train.shape != (P, P):
        raise ValueError("training kernel matrix must be square")
    _check_fit(P, y2, lam)
    coef, rank = _solve_in_place(np.array(K_train, order="F"), y2, lam)
    resid = float(np.max(np.abs(K_train @ coef + lam * coef - y2))) \
        if P else 0.0
    return KRRSolution(coef=coef, rank=int(rank), residual=resid)


def _check_fit(P, y2, lam):
    """krr_solve's checks of the labels, the ridge and the Gram size."""
    if y2.shape[0] != P:
        raise ValueError("label count must match kernel size")
    if lam < 0:
        raise ValueError("ridge must be nonnegative")
    nbytes = 8 * P * P
    if nbytes > MAX_GRAM_BYTES:
        raise ValueError(
            f"training Gram matrix needs {nbytes / 1e9:.1f} GB, "
            f"above the {MAX_GRAM_BYTES / 1e9:.1f} GB budget")


def _solve_in_place(A, y, lam):
    """krr_solve's (coef, rank) for the matrix A, which it overwrites.

    A Fortran-ordered A is factored in its own buffer; any other layout
    costs scipy a copy.
    """
    P = A.shape[0]
    if lam > 0:
        A.flat[::P + 1] += lam
        c, low = linalg.cho_factor(A, lower=True, overwrite_a=True,
                                   check_finite=False)
        return linalg.cho_solve((c, low), y, check_finite=False), P
    coef, _, rank, _ = np.linalg.lstsq(A, y, rcond=RIDGELESS_RCOND)
    return coef, rank


def _fit_fresh_gram(G, y, lam):
    """krr_solve's coef on a Gram built for this fit alone, which it
    overwrites. G must be exactly symmetric, as `kernels.gram` makes it,
    so G.T is the same matrix in Fortran order."""
    _check_fit(G.shape[0], y, lam)
    return _solve_in_place(G.T, y, lam)[0]


def _row_blocks(K, atoms, buf):
    """(lo, hi, K[atoms[lo:hi]]) for consecutive blocks of len(buf)
    rows, each read into buf."""
    b = buf.shape[0]
    for lo in range(0, atoms.size, b):
        hi = min(lo + b, atoms.size)
        yield lo, hi, np.take(K, atoms[lo:hi], axis=0, out=buf[:hi - lo],
                              mode="clip")


def _atom_block(K, atoms, buf):
    """K[np.ix_(atoms, atoms)] in Fortran order, read through buf.

    The transpose of the row-gathered block is the same matrix, as K is
    symmetric."""
    block = np.empty((atoms.size, atoms.size))
    for lo, hi, rows in _row_blocks(K, atoms, buf):
        np.take(rows, atoms, axis=1, out=block[lo:hi], mode="clip")
    return block.T


def _fit_atoms(A, counts, sums, lam):
    """Coefficients beta on the distinct atoms, prediction K[:, u] beta.

    A is the Fortran-ordered K_uu block, which the fit overwrites. With
    w = sqrt(c), coef solves (w_i K_uu w_j + lam I) coef = s / w and
    beta = w coef.
    """
    w = np.sqrt(counts)
    A *= w[:, None]
    A *= w
    coef, _ = _solve_in_place(A, sums / w[:, None], lam)
    return w[:, None] * coef


def discrete_trial_error(K, Y, train_measure, test_measure, P, lam, noise,
                         rng):
    """One KRR draw on a discrete problem; returns the test-measure error.

    The P draws are fitted on their distinct atoms u, each weighted by
    its count c, with s the per-atom label sums (see `_fit_atoms`).
    This is the P-space estimator for every lam >= 0: at lam = 0 both
    are the minimum-norm least-squares fit, and the two matrices share
    their nonzero eigenvalues, so the pseudoinverse cuts the same modes.
    Rows of K are read a few at a time into one buffer, for the K_uu
    block and again for the prediction, so a trial holds its n x n block
    and never the n x M rows of its draws. K must be a symmetric float64
    array, as `kernels.gram` makes it, because rows K[u] stand in for
    columns K[:, u].
    """
    M = K.shape[0]
    Y2 = Y[:, None] if Y.ndim == 1 else Y
    idx = rng.choice(M, size=P, replace=True, p=train_measure.masses)
    labels = Y2[idx]
    if noise > 0:
        labels = labels + np.sqrt(noise) * rng.standard_normal(labels.shape)
    atoms, inv, counts = np.unique(idx, return_inverse=True,
                                   return_counts=True)
    n = atoms.size
    sums = np.zeros((n, labels.shape[1]))
    np.add.at(sums, inv, labels)
    _check_fit(n, sums, lam)
    buf = np.empty((max(1, min(n, _ROW_BLOCK // M)), M))
    beta = _fit_atoms(_atom_block(K, atoms, buf), counts, sums, lam)
    preds = np.zeros((M, beta.shape[1]))
    for lo, hi, rows in _row_blocks(K, atoms, buf):
        preds += rows.T @ beta[lo:hi]
    return float(np.sum(test_measure.masses[:, None] * (preds - Y2) ** 2))


def _curve_from_errors(P, errs):
    errs = np.asarray(errs, dtype=np.float64)
    n = errs.shape[0]
    std = float(errs.std(ddof=1)) if n > 1 else 0.0
    return EmpiricalPoint(P=int(P), Eg_mean=float(errs.mean()), Eg_std=std,
                          Eg_stderr=std / np.sqrt(n) if n > 1 else 0.0,
                          trials=n)


def _run_trials(task, P_values, trials, threads):
    """task(P, t) -> float, keyed so results are independent of scheduling."""
    out = []
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for P in P_values:
                errs = list(pool.map(lambda t: task(P, t), range(trials)))
                out.append(_curve_from_errors(P, errs))
    else:
        for P in P_values:
            errs = [task(P, t) for t in range(trials)]
            out.append(_curve_from_errors(P, errs))
    return out


def run_learning_curve(K, Y, train_measure, test_measure, P_values, lam,
                       noise, trials, seed, threads=1):
    """Monte Carlo learning curve on a discrete problem.

    K must be symmetric, as `kernels.gram` makes it (see
    `discrete_trial_error`). Every trial draws its own generator from
    (seed, P, trial index), so results are identical whatever the thread
    count or evaluation order.
    """
    K = np.asarray(K, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if not isinstance(train_measure, DiscreteMeasure):
        train_measure = DiscreteMeasure(np.asarray(train_measure, float))
    if not isinstance(test_measure, DiscreteMeasure):
        test_measure = DiscreteMeasure(np.asarray(test_measure, float))

    def task(P, t):
        rng = rng_from(seed, "trial", P, t)
        return discrete_trial_error(K, Y, train_measure, test_measure,
                                    int(P), lam, noise, rng)

    return _run_trials(task, P_values, trials, threads)


def run_continuous_curve(kernel_spec, sample_train, target_fn, test_error,
                         P_values, lam, noise, trials, seed, threads=1):
    """Monte Carlo learning curve with fresh inputs every trial.

    sample_train(rng, n) must return an (n, D) array of training inputs;
    target_fn maps an input array to noiseless labels. test_error(X, coef)
    must return the test-measure error of the fit with dual coefficients
    coef (P, C) on X, integrated exactly, so that training draws are the
    only noise in the trial statistics.
    """
    def task(P, t):
        rng = rng_from(seed, "trial", P, t)
        X = sample_train(rng, int(P))
        y = np.asarray(target_fn(X), dtype=np.float64)
        y = y[:, None] if y.ndim == 1 else y
        if noise > 0:
            y = y + np.sqrt(noise) * rng.standard_normal(y.shape)
        return test_error(X, _fit_fresh_gram(gram(kernel_spec, X), y, lam))

    return _run_trials(task, P_values, trials, threads)


def compare_report(theory_Eg, empirical_points, band=3.0, theory_P=None):
    """Per-P z-scores of theory values against Monte Carlo means.

    z = (theory - mean) / stderr per grid point. Returns a dict with the
    rows, max |z|, the fraction of finite-theory points within the band,
    and an overall verdict. Divergent predictions (non-finite theory)
    are excluded from the fraction but kept in the rows. A stderr of
    zero with a mismatch is flagged as an infinite z.
    """
    theory_Eg = list(theory_Eg)
    empirical_points = list(empirical_points)
    if len(theory_Eg) != len(empirical_points):
        raise ValueError("theory and empirical grids have different sizes")
    if theory_P is not None:
        tp = [int(p) for p in theory_P]
        ep = [pt.P for pt in empirical_points]
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
            "P": pt.P,
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
        "max_abs_z": float(max_abs),
        "fraction_within": float(frac),
        "all_within": bool(n_finite > 0 and n_ok == n_finite),
    }
