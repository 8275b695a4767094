"""Optimization of training and test measures against theory.

The training measure is softmax-parameterized and descended with its
analytic gradient. It enters the error prediction through the spectral
decomposition; theory.predict_Eg_train_grad gives the error and its
gradient through the resolvent from one decomposition and O(M^3) matmuls
per iterate. On rank-deficient kernels that is the gradient of the
thresholded prediction, which is not smooth where a mode crosses the rank
threshold. The test measure enters linearly through the pointwise error
density, so its optimum is solved exactly, with no iteration.

fd_gradient and richardson_check are the finite-difference oracle the
analytic training gradient is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import (DiscreteMeasure, as_measure, from_logits,
                       kernel_matrix, nonnegative, positive_int)
from .spectral import DEFAULT_RANK_THRESHOLD
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
TIE_RTOL = 1e-12  # density ties of the test optimum, relative to max c


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings for measure optimization.

    P_budget is the sample size the error is predicted at; mode picks
    descent (beneficial measures) or ascent (detrimental ones). The step
    settings apply to optimize_train_measure only.
    """

    P_budget: int
    lam: float
    noise: float = 0.0
    learning_rate: float = 1.0
    steps: int = 2000
    mode: str = "descent"
    convergence_tol: float = 1e-6

    def __post_init__(self):
        positive_int(self.P_budget, "P_budget")
        positive_int(self.steps, "steps")
        nonnegative(self.lam, "ridge")
        nonnegative(self.noise, "noise")
        for name in ("learning_rate", "convergence_tol"):
            if not nonnegative(getattr(self, name), name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.mode not in ("descent", "ascent"):
            raise ValueError("mode must be 'descent' or 'ascent'")


@dataclass
class OptimizationTrace:
    """Accepted iterates of one run; for optimize_test_measure, the start
    and the exact optimum."""

    logits: np.ndarray              # (n_accepted + 1, M) including start
    Eg: np.ndarray                  # (n_accepted + 1,)
    participation: np.ndarray       # (n_accepted + 1,)
    final_measure: DiscreteMeasure
    converged: bool
    message: str = ""


def participation_ratio(measure):
    """Effective number of atoms carrying mass, 1 / sum p^2, in [1, M]."""
    return float(1.0 / np.sum(as_measure(measure).masses**2))


def fd_gradient(loss, z, h):
    """Central-difference gradient (L(z+h e_i) - L(z-h e_i)) / 2h of a
    scalar loss over logits."""
    z = np.asarray(z, dtype=np.float64)
    grad = np.empty_like(z)
    for i in range(z.shape[0]):
        zp = z.copy(); zp[i] += h
        zm = z.copy(); zm[i] -= h
        grad[i] = (float(loss(zp)) - float(loss(zm))) / (2.0 * h)
    return grad


def richardson_check(loss, z, h=1e-4, g1=None):
    """Step-halving consistency of the central-difference gradient.

    Compares the h/2 gradient with its Richardson extrapolation from
    the h and h/2 stencils; a small relative deviation certifies the
    stencil operates in its convergent regime rather than being
    dominated by roundoff or nonsmoothness. g1 is the step-h central
    gradient when the caller has already computed it.
    """
    if g1 is None:
        g1 = fd_gradient(loss, z, h)
    g2 = fd_gradient(loss, z, h / 2.0)
    extrap = (4.0 * g2 - g1) / 3.0
    scale = float(np.max(np.abs(extrap)))
    dev = float(np.max(np.abs(g2 - extrap)))
    return dev / scale if scale > 0 else dev


def _softmax_chain(masses, pbar):
    """dEg/dz from the mass gradient pbar = dEg/dp at p = softmax(z)."""
    return masses * (pbar - np.dot(masses, pbar))


def _iterate(z0, objective, config):
    """Step loop of optimize_train_measure, with backtracking.

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
    return _trace(zs, egs, converged, message)


def _trace(zs, egs, converged, message):
    logits = np.asarray(zs)
    egs = np.asarray(egs)
    parts = np.array([participation_ratio(from_logits(zz)) for zz in logits])
    return OptimizationTrace(
        logits=logits, Eg=egs, participation=parts,
        final_measure=from_logits(logits[-1]), converged=converged,
        message=message)


def optimize_train_measure(K, Y, test_measure, config,
                           rank_threshold=DEFAULT_RANK_THRESHOLD):
    """Optimize the training measure of a discrete problem with Gram K and
    targets Y. K goes through measures.kernel_matrix, (M, M) for the test
    measure's M. The test measure stays fixed; logits start at zero
    (uniform measure).

    The gradient is analytic (theory.predict_Eg_train_grad) and costs one
    decomposition and O(M^3) matmuls per iterate, chained through the
    softmax as zbar = p o (pbar - <p, pbar>). On rank-deficient kernels it
    is the gradient of the thresholded prediction, which is not smooth
    where a mode crosses the rank threshold. The same call gives the
    error the line search and the trace use, so each iterate decomposes
    once, at rank_threshold. A trial whose prediction diverges, or whose
    softmax underflows a mass to 0, is rejected; a diverging start raises
    DivergenceError.
    """
    test_measure = as_measure(test_measure)
    M = test_measure.M
    K = kernel_matrix(K, M)

    def objective(z):
        p = from_logits(z)
        try:
            Eg, pbar = predict_Eg_train_grad(K, Y, p, test_measure,
                                             config.P_budget, config.lam,
                                             config.noise,
                                             rank_threshold=rank_threshold)
        except (DivergenceError, SupportError):
            return math.inf, None
        return Eg, _softmax_chain(p.masses, pbar)

    return _iterate(np.zeros(M), objective, config)


def optimize_test_measure(dec, Y, config):
    """Best (descent) or worst (ascent) test measure, solved exactly: the
    error ptilde . c is linear in the test masses (c is the pointwise error
    density), so the optimum is uniform on the atoms whose c is within
    TIE_RTOL * max c of min c (max c for ascent). The trace holds the
    uniform start and the optimum, whose logits are its log masses."""
    c = pointwise_error_density(dec, Y, config.P_budget, config.lam,
                                config.noise)
    extreme = np.min(c) if config.mode == "descent" else np.max(c)
    tied = np.abs(c - extreme) <= TIE_RTOL * np.max(c)
    masses = tied / np.count_nonzero(tied)
    z = np.zeros((2, c.shape[0]))
    with np.errstate(divide="ignore"):
        z[1] = np.log(masses)
    return _trace(z, [float(np.dot(from_logits(z[0]).masses, c)),
                      float(np.dot(masses, c))], True,
                  f"exact optimum: uniform on {np.count_nonzero(tied)} "
                  f"of {c.shape[0]} atoms")
