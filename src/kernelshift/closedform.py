"""Closed-form error predictions for linear and dot-product kernel models.

These are analytic special cases of the general prediction in ``theory``,
and all their arithmetic lives here: ``gaussian_linear_Eg`` for Gaussian
measures and a linear kernel, ``general_linear_Eg`` for a rank-limited
kernel and measures, ``ntk_sphere_Eg`` for the relu NTK on concentric
spheres, kernel trace and tail included. Each writes down its spectrum,
target coefficients and test covariance in closed form, with no matrix
diagonalization beyond the covariance's own, and the one spectrum core in
``theory`` turns them into one ``TheoryPrediction`` per P of the
``P_grid`` each takes, as ``predict_Eg_curve`` does. They are therefore not
independent of the dataset theory; the flat two-block formula kept in
``tests/test_closedform.py`` is their oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import KernelSpec, ntk_relu_eval
from .measures import nonnegative, positive_int
from .spectral import DEFAULT_RANK_THRESHOLD
from .theory import _spectrum_prediction

__all__ = [
    "gaussian_linear_Eg",
    "general_linear_Eg",
    "optimal_ridge",
    "hyperspherical_degeneracy",
    "dot_product_kernel_spectrum",
    "mode_spectrum_Eg",
    "ntk_sphere_Eg",
]


def gaussian_linear_Eg(beta, C, C_tilde, P_grid, lam, noise=0.0):
    """Error of linear-kernel regression between two Gaussian measures.

    Training inputs x ~ N(0, C), test inputs x ~ N(0, C_tilde), target
    f(x) = beta . x, kernel x . x' / D. Covariances may be singular and
    need not commute. The modes are C's eigendirections u: eigenvalue
    sigma^2/D, training power sigma^2, target coefficient u . beta and test
    covariance U^T C_tilde U. Eigenvalues of C at or below
    DEFAULT_RANK_THRESHOLD times the largest count as 0.
    """
    beta = np.asarray(beta, dtype=float)
    C = np.asarray(C, dtype=float)
    Ct = np.asarray(C_tilde, dtype=float)
    D = beta.shape[0]
    if C.shape != (D, D) or Ct.shape != (D, D):
        raise ValueError("covariance shapes must match beta dimension")
    sig2, U = np.linalg.eigh(C)
    sig2[sig2 <= DEFAULT_RANK_THRESHOLD * max(sig2[-1], 0.0)] = 0.0
    return _spectrum_prediction(sig2 / D, P_grid, lam, noise, U.T @ beta,
                                U.T @ Ct @ U, power=sig2)[0]


def general_linear_Eg(P_grid, M, M_r, M_s, beta, sigma2, sigma2_tilde, lam,
                      noise=0.0):
    """Rank-limited kernel, train and test measures of arbitrary rank.

    The kernel expresses the first M of D directions, the training
    measure has variance sigma2 on its first M_r directions, the test
    measure sigma2_tilde on its first M_s. Learning is paced by
    N_r = min(M, M_r); only N_rs = min(M, M_r, M_s) directions ever
    contribute reducible test error. Target power on trained directions
    the kernel cannot express acts as extra label noise, and target
    power on tested-but-never-learned directions is an error floor.
    """
    n = max(M_r, M_s)
    i = np.arange(n)
    b = np.zeros(n)
    beta = np.asarray(beta, dtype=float)[:n]
    b[:beta.shape[0]] = beta
    eta = np.where(i < min(M, M_r), sigma2 / M, 0.0)
    power = np.where(i < M_r, float(sigma2), 0.0)
    return _spectrum_prediction(eta, P_grid, lam, noise, b,
                                np.where(i < M_s, float(sigma2_tilde), 0.0),
                                power)[0]


def optimal_ridge(M_r, D, noise, target_power=1.0):
    """Ridge minimizing the isotropic rank-limited error at every P.

    Equals the Bayes-optimal ridge for a target whose power lies inside
    the trained directions; target_power is that in-support power. The
    optimum does not depend on P, the training variance, or the test
    measure.
    """
    return M_r * noise / (D * target_power)


def hyperspherical_degeneracy(D, k):
    """Number of degree-k spherical harmonics on the sphere in R^D."""
    if D < 2:
        raise ValueError("need ambient dimension D >= 2")
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if k == 0:
        return 1
    return (2 * k + D - 2) * math.comb(k + D - 3, k - 1) // k


def dot_product_kernel_spectrum(spec, D, k_max, n_quad=400):
    """Spectrum of a dot-product kernel on the unit sphere in R^D.

    spec may be a KernelSpec of kind "ntk_relu" or a callable k(t) on
    [-1, 1]. Returns (eta, degeneracy) for degrees 0..k_max, where eta
    are per-mode eigenvalues so that sum(degeneracy * eta) equals the
    mean of k(1) over the sphere, i.e. the kernel trace.
    """
    # imported here, not at module level, so that CLI start-up, which
    # every command pays for, leaves out this slow import
    from scipy import special

    if D < 3:
        raise ValueError("quadrature form requires D >= 3")
    k_max = positive_int(k_max, "k_max", low=0)
    if isinstance(spec, KernelSpec):
        if spec.kind != "ntk_relu":
            raise ValueError("only ntk_relu KernelSpec has a generic "
                             "dot-product form on the sphere")
        depth = spec.depth
        def kfun(t):
            return ntk_relu_eval(depth, t, np.ones_like(t), np.ones_like(t))
    else:
        kfun = spec
    a = (D - 3) / 2.0
    nodes, weights = special.roots_jacobi(n_quad, a, a)
    kv = kfun(nodes)
    nu = (D - 2) / 2.0
    ratio = special.gamma(D / 2.0) / (np.sqrt(np.pi)
                                      * special.gamma((D - 1) / 2.0))
    eta = np.empty(k_max + 1)
    for k in range(k_max + 1):
        geg = special.eval_gegenbauer(k, nu, nodes)
        geg1 = special.eval_gegenbauer(k, nu, 1.0)
        eta[k] = ratio * np.sum(weights * kv * geg / geg1)
    eta = np.clip(eta, 0.0, None)
    degeneracy = np.array([hyperspherical_degeneracy(D, k)
                           for k in range(k_max + 1)], dtype=float)
    return eta, degeneracy


def _gegenbauer_sum(c, D, t):
    """sum_k c_k G_k(t)/G_k(1) elementwise in the float array t, for the
    Gegenbauer polynomials G_k of the sphere in R^D and at least two
    coefficients c, by the three-term recurrence of P_k = G_k/G_k(1).

    Each step computes ((2k + D - 4) t P_{k-1} - (k - 1) P_{k-2}) / (k + D - 3)
    in place, in that order, in the buffer of the dead P_{k-2}."""
    prev, cur, free = np.ones_like(t), t.copy(), np.empty_like(t)
    out = c[0] + c[1] * t
    for k in range(2, len(c)):
        np.multiply(t, 2 * k + D - 4, out=free)
        free *= cur
        prev *= k - 1
        free -= prev
        free /= k + D - 3
        prev, cur, free = cur, free, prev
        np.multiply(cur, c[k], out=free)
        out += free
    return out


def mode_spectrum_Eg(eta, degeneracy, abar_sq, P_grid, lam, noise=0.0,
                     overlap_scale=1.0, tail_eta=0.0, tail_abar_sq=0.0):
    """General prediction for a degeneracy-weighted mode spectrum.

    eta are per-mode eigenvalues, degeneracy the multiplicity of each
    entry, abar_sq the total target power in each degenerate block. A
    scalar overlap (test measure rescaling every mode by overlap_scale)
    covers concentric spheres. Spectral mass beyond the last resolved
    degree enters as tail_eta (eigenvalue mass, absorbed into the ridge
    since it is unlearnable at these sample sizes) and tail_abar_sq
    (target power there, acting as label noise plus an error floor). The
    tail is one eta = 0 block, and so is every degree whose eigenvalue is
    0, so target power on such a degree counts in the floor as well.
    """
    eta = np.append(np.asarray(eta, dtype=float), 0.0)
    b = np.sqrt(nonnegative(np.append(abar_sq, tail_abar_sq), "abar_sq"))
    Ct = np.full(eta.shape, nonnegative(overlap_scale, "overlap_scale"))
    return _spectrum_prediction(
        eta, P_grid,
        nonnegative(lam, "ridge") + nonnegative(tail_eta, "tail_eta"), noise,
        b, Ct, weights=np.append(np.asarray(degeneracy, dtype=float), 1.0))[0]


def _ntk_tail(depth, eta, degeneracy):
    """(trace, tail) of the depth-`depth` relu NTK on the unit sphere: the
    trace k(1) is the eigenvalue mass of all degrees, the tail the part of
    it that the given degrees do not carry."""
    trace = float(ntk_relu_eval(depth, 1.0, 1.0, 1.0))
    return trace, max(trace - float(np.sum(eta * degeneracy)), 0.0)


def ntk_sphere_Eg(P_grid, depth, eta, degeneracy, abar_sq, lam, noise=0.0,
                  radius_train=1.0, radius_test=1.0, k_stage=None):
    """Relu neural tangent kernel of depth `depth` on concentric spheres.

    eta and degeneracy are the per-mode eigenvalues and multiplicities of
    degrees 0..k_max on the unit sphere, from dot_product_kernel_spectrum
    once per curve; abar_sq[k] is the target power in degree k (none past
    its end). Training inputs lie on radius radius_train, test inputs on
    radius_test: by degree-one homogeneity in each argument the
    eigenvalues scale by radius_train^2 and the overlap by
    (radius_test/radius_train)^2. Without k_stage every degree is a mode
    block. With k_stage only that degree is (the stage law of Bordelon,
    Canatar and Pehlevan, ICML 2020: lower degrees are learned, higher
    ones frozen). Either way the kernel trace not carried by the modelled
    and lower degrees enters the ridge, so the result does not depend on
    k_max beyond them, and target power above them is noise and floor.
    """
    eta = np.asarray(eta, dtype=float)
    degeneracy = np.asarray(degeneracy, dtype=float)
    b2 = np.zeros(eta.shape[0])
    given = nonnegative(abar_sq, "abar_sq")
    if given.shape[0] > b2.shape[0]:
        raise ValueError("abar_sq has more degrees than the spectrum")
    b2[:given.shape[0]] = given
    top = eta.shape[0] - 1 if k_stage is None else k_stage
    if not 0 <= top < eta.shape[0]:
        raise ValueError("k_stage outside spectrum range")
    block = slice(0 if k_stage is None else top, top + 1)
    _, tail = _ntk_tail(depth, eta[:top + 1], degeneracy[:top + 1])
    if not min(nonnegative(radius_train, "radius_train"),
               nonnegative(radius_test, "radius_test")) > 0:
        raise ValueError("radius_train and radius_test must be nonzero")
    R2 = radius_train**2
    return mode_spectrum_Eg(
        R2 * eta[block], degeneracy[block], b2[block], P_grid, lam, noise,
        overlap_scale=(radius_test / radius_train)**2, tail_eta=tail * R2,
        tail_abar_sq=float(np.sum(b2[top + 1:])))
