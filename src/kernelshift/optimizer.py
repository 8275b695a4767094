"""Gradient optimization of training and test measures against theory.

Both measures are softmax-parameterized and both gradients are analytic.
The training measure enters the error prediction through the spectral
decomposition; theory.predict_Eg_train_grad gives the error and its
gradient through the resolvent from one decomposition and O(M^3) matmuls
per iterate. On rank-deficient kernels that is the gradient of the
thresholded prediction, which is not smooth where a mode crosses the rank
threshold. The test measure enters linearly through the pointwise error
density.

fd_gradient and richardson_check are the finite-difference oracle the
analytic gradients are checked against.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .measures import DiscreteMeasure, Dataset, from_logits
from .kernels import gram
from .theory import (DivergenceError, SupportError, pointwise_error_density,
                     predict_Eg_train_grad)

__all__ = [
    "OptimizerConfig",
    "OptimizationTrace",
    "participation_ratio",
    "fd_gradient",
    "richardson_check",
    "optimize_train_measure",
    "optimize_test_measure",
]

MAX_BACKTRACKS = 20


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for measure optimization.

    P_budget is the sample size the error is predicted at; mode picks
    gradient descent (beneficial measures) or ascent (detrimental ones).
    """

    P_budget: int
    lam: float
    noise: float = 0.0
    learning_rate: float = 1.0
    steps: int = 2000
    mode: str = "descent"
    convergence_tol: float = 1e-6

    def __post_init__(self):
        if self.P_budget < 1:
            raise ValueError("P_budget must be at least 1")
        if self.lam < 0 or self.noise < 0:
            raise ValueError("ridge and noise must be nonnegative")
        if self.learning_rate <= 0 or self.steps < 1:
            raise ValueError("learning_rate and steps must be positive")
        if self.convergence_tol <= 0:
            raise ValueError("convergence_tol must be positive")
        if self.mode not in ("descent", "ascent"):
            raise ValueError("mode must be 'descent' or 'ascent'")


@dataclass
class OptimizationTrace:
    """Accepted iterates of one optimization run."""

    logits: np.ndarray              # (n_accepted + 1, M) including start
    Eg: np.ndarray                  # (n_accepted + 1,)
    participation: np.ndarray       # (n_accepted + 1,)
    final_measure: DiscreteMeasure
    converged: bool
    message: str = ""


def participation_ratio(measure):
    """Effective number of atoms carrying mass, 1 / sum p^2, in [1, M]."""
    masses = measure.masses if isinstance(measure, DiscreteMeasure) \
        else np.asarray(measure, dtype=np.float64)
    return float(1.0 / np.sum(masses**2))


def fd_gradient(loss, z, h, threads=1):
    """Central-difference gradient (L(z+h e_i) - L(z-h e_i)) / 2h of a
    scalar loss over logits.

    Probes are independent and may be evaluated by a thread pool; the
    assembled gradient does not depend on scheduling.
    """
    z = np.asarray(z, dtype=np.float64)
    probes = []
    for i in range(z.shape[0]):
        zp = z.copy(); zp[i] += h
        zm = z.copy(); zm[i] -= h
        probes.extend((zp, zm))
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            vals = list(pool.map(loss, probes))
    else:
        vals = [loss(zp) for zp in probes]
    vals = np.asarray(vals, dtype=np.float64)
    return (vals[0::2] - vals[1::2]) / (2.0 * h)


def richardson_check(loss, z, h=1e-4, threads=1, g1=None):
    """Step-halving consistency of the central-difference gradient.

    Compares the h/2 gradient with its Richardson extrapolation from
    the h and h/2 stencils; a small relative deviation certifies the
    stencil operates in its convergent regime rather than being
    dominated by roundoff or nonsmoothness. g1 is the step-h central
    gradient when the caller has already computed it.
    """
    if g1 is None:
        g1 = fd_gradient(loss, z, h, threads=threads)
    g2 = fd_gradient(loss, z, h / 2.0, threads=threads)
    extrap = (4.0 * g2 - g1) / 3.0
    scale = float(np.max(np.abs(extrap)))
    dev = float(np.max(np.abs(g2 - extrap)))
    return dev / scale if scale > 0 else dev


def _iterate(z0, objective, config):
    """Shared step loop: gradient steps with backtracking.

    objective(z) returns (Eg, dEg/dz); a trial that returns a non-finite
    Eg is rejected. The gradient of each accepted trial is kept for the
    next step, so no point is evaluated twice.
    """
    sign = 1.0 if config.mode == "descent" else -1.0
    z = np.asarray(z0, dtype=np.float64).copy()
    current, g = objective(z)
    if not np.isfinite(current):
        raise DivergenceError("starting point already diverges")
    zs, egs = [z.copy()], [current]
    converged = False
    message = "step budget exhausted"
    for _ in range(config.steps):
        rate = config.learning_rate
        accepted = False
        for _ in range(MAX_BACKTRACKS + 1):
            z_new = z - sign * rate * g
            val, g_new = objective(z_new)
            better = (val < current) if config.mode == "descent" \
                else (np.isfinite(val) and val > current)
            if better:
                accepted = True
                break
            rate *= 0.5
        if not accepted:
            message = "no improving step within backtracking budget"
            break
        step_size = float(np.max(np.abs(z_new - z)))
        z, current, g = z_new, val, g_new
        zs.append(z.copy())
        egs.append(current)
        if step_size < config.convergence_tol:
            converged = True
            message = "step size below convergence tolerance"
            break
    logits = np.asarray(zs)
    egs = np.asarray(egs)
    parts = np.array([participation_ratio(from_logits(zz)) for zz in logits])
    return OptimizationTrace(
        logits=logits, Eg=egs, participation=parts,
        final_measure=from_logits(logits[-1]), converged=converged,
        message=message)


def optimize_train_measure(dataset, kernel_spec, test_measure, config,
                           K=None, rank_threshold=None):
    """Optimize the training measure of a discrete problem.

    dataset may be a Dataset or a plain (X, Y) pair; a precomputed Gram
    matrix can be passed to skip the kernel evaluation. The test measure
    stays fixed; logits start at zero (uniform measure).

    The gradient is analytic (theory.predict_Eg_train_grad) and costs one
    decomposition and O(M^3) matmuls per iterate, chained through the
    softmax as zbar = p o (pbar - <p, pbar>). On rank-deficient kernels it
    is the gradient of the thresholded prediction, which is not smooth
    where a mode crosses the rank threshold. The same call gives the
    error the line search and the trace use, so each iterate decomposes
    once, at rank_threshold (DEFAULT_RANK_THRESHOLD when None). A trial
    whose prediction diverges, or whose softmax underflows a mass to 0,
    is rejected; a diverging start raises DivergenceError.
    """
    if isinstance(dataset, Dataset):
        X, Y = dataset.X, dataset.Y
    else:
        X, Y = dataset
    K = gram(kernel_spec, X) if K is None else np.asarray(K, float)
    Y = np.asarray(Y, dtype=np.float64)
    M = K.shape[0]
    if not isinstance(test_measure, DiscreteMeasure):
        test_measure = DiscreteMeasure(np.asarray(test_measure, float))

    def objective(z):
        p = from_logits(z)
        try:
            Eg, pbar = predict_Eg_train_grad(K, Y, p, test_measure,
                                             config.P_budget, config.lam,
                                             config.noise,
                                             rank_threshold=rank_threshold)
        except (DivergenceError, SupportError):
            return math.inf, None
        return Eg, p.masses * (pbar - np.dot(p.masses, pbar))

    return _iterate(np.zeros(M), objective, config)


def optimize_test_measure(dec, abar, config, Y=None):
    """Optimize the test measure with the training side held fixed.

    The error is linear in the test masses with coefficients given by
    the pointwise error density, so the softmax gradient is analytic:
    d Eg / d z_nu = p_nu (c_nu - sum_mu p_mu c_mu). Descent piles mass
    onto the smallest density value, ascent onto the largest; ties give
    convex mixtures of the tied atoms.
    """
    c = pointwise_error_density(dec, abar, config.P_budget, config.lam,
                                config.noise, Y=Y)

    def objective(z):
        p = from_logits(z).masses
        Eg = float(np.dot(p, c))
        return Eg, p * (c - Eg)

    return _iterate(np.zeros(c.shape[0]), objective, config)
