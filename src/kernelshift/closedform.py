"""Closed-form error predictions for linear and dot-product kernel models.

These are analytic special cases of the general discrete prediction in
``theory``: Gaussian input measures with a linear kernel, and uniform
measures on hyperspheres with dot-product kernels. They serve both as
fast predictors and as independent oracles for the general machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .kernels import KernelSpec, ntk_relu_eval
from .theory import DIVERGENCE_TOL, compute_state, solve_kappa

__all__ = [
    "ClosedFormResult",
    "kappa_prime_flat",
    "gaussian_linear_Eg",
    "diagonal_linear_Eg",
    "general_linear_Eg",
    "optimal_ridge",
    "hyperspherical_degeneracy",
    "dot_product_kernel_spectrum",
    "mode_spectrum_Eg",
    "ntk_sphere_Eg",
]


@dataclass(frozen=True)
class ClosedFormResult:
    """Prediction from one of the analytic models.

    Eg            predicted error under the test measure
    Eg_matched    same-measure baseline (test measure = training measure)
    kappa         implicit regularization at this sample size
    gamma         trace factor controlling variance amplification
    gamma_prime   overlap-weighted trace factor
    irreducible   error floor from target power the estimator cannot reach
    diverged      True when 1 - gamma fell below the divergence tolerance
    """

    Eg: float
    Eg_matched: float
    kappa: float
    gamma: float
    gamma_prime: float
    irreducible: float
    diverged: bool


def kappa_prime_flat(alpha, lam_tilde):
    """Dimensionless kappa for a flat spectrum of identical eigenvalues.

    alpha is samples per nonzero mode, lam_tilde the ridge in units of a
    single eigenvalue times the number of modes. Solves
    kappa' = lam_tilde + kappa' / (alpha + kappa') in closed form.
    """
    alpha = float(alpha)
    lam_tilde = float(lam_tilde)
    if alpha < 0 or lam_tilde < 0:
        raise ValueError("alpha and lam_tilde must be nonnegative")
    # kappa' is the positive root of k^2 - b k - lam_tilde alpha = 0
    b = 1.0 + lam_tilde - alpha
    root = np.sqrt(b * b + 4.0 * alpha * lam_tilde)
    if b < 0:
        # b + root cancels; the product of the roots gives it stably
        return 2.0 * lam_tilde * alpha / (root - b)
    return 0.5 * (b + root)


def _finish(Eg_core, Eg_matched, kappa, gamma, gamma_prime, irreducible):
    diverged = (1.0 - gamma) <= DIVERGENCE_TOL
    if diverged:
        return ClosedFormResult(np.inf, np.inf, kappa, gamma, gamma_prime,
                                irreducible, True)
    return ClosedFormResult(Eg_core, Eg_matched, kappa, gamma, gamma_prime,
                            irreducible, False)


def gaussian_linear_Eg(beta, C, C_tilde, P, lam, noise=0.0):
    """Error of linear-kernel regression between two Gaussian measures.

    Training inputs x ~ N(0, C), test inputs x ~ N(0, C_tilde), target
    f(x) = beta . x, kernel x . x' / D. Covariances may be singular and
    need not commute.
    """
    beta = np.asarray(beta, dtype=float)
    C = np.asarray(C, dtype=float)
    Ct = np.asarray(C_tilde, dtype=float)
    D = beta.shape[0]
    if C.shape != (D, D) or Ct.shape != (D, D):
        raise ValueError("covariance shapes must match beta dimension")
    sig2, U = np.linalg.eigh(C)
    sig2 = np.clip(sig2, 0.0, None)
    eta = sig2 / D
    kappa = solve_kappa(eta, P, lam).kappa
    denom = P * sig2 + kappa * D          # eigenvalues of P C + kappa D I
    Ct_u = U.T @ Ct @ U
    gamma = P * np.sum(sig2**2 / denom**2)
    gamma_prime = P * np.sum(np.diag(Ct_u) * sig2 / denom**2)
    b_u = U.T @ beta
    g = b_u / denom                        # (P C + kappa D I)^{-1} beta
    if (1.0 - gamma) <= DIVERGENCE_TOL:
        return _finish(np.inf, np.inf, kappa, gamma, gamma_prime, 0.0)
    Eg0 = gamma / (1.0 - gamma) * noise \
        + (kappa * D) ** 2 / (1.0 - gamma) * np.sum(sig2 * g**2)
    shift = Ct_u - (1.0 - gamma_prime) / (1.0 - gamma) * np.diag(sig2)
    Eg = Eg0 + (gamma_prime - gamma) / (1.0 - gamma) * noise \
        + (kappa * D) ** 2 * (g @ shift @ g)
    return _finish(Eg, Eg0, kappa, gamma, gamma_prime, 0.0)


def diagonal_linear_Eg(P, D, M_r, beta, sigma2, sigma2_tilde, lam, noise=0.0):
    """Isotropic test measure against a rank-limited isotropic train measure.

    Training covariance is sigma2 on the first M_r of D directions and
    zero elsewhere; test covariance is sigma2_tilde on all D directions.
    beta holds the target coefficients (trailing zeros implied). This is
    general_linear_Eg with a kernel and test measure of full rank D.
    """
    if not 1 <= M_r <= D:
        raise ValueError("need 1 <= M_r <= D")
    beta = np.asarray(beta, dtype=float)
    if beta.shape[0] > D:
        raise ValueError("beta longer than ambient dimension")
    return general_linear_Eg(P, D, M_r, D, beta, sigma2, sigma2_tilde, lam,
                             noise)


def general_linear_Eg(P, M, M_r, M_s, beta, sigma2, sigma2_tilde, lam,
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
    beta = np.asarray(beta, dtype=float)
    N_r = min(M, M_r)
    N_rs = min(M, M_r, M_s)
    alpha = P / N_r
    lam_tilde = lam / (sigma2 * N_r / M)
    kp = kappa_prime_flat(alpha, lam_tilde)
    kappa = kp * sigma2 * N_r / M
    gamma = alpha / (kp + alpha) ** 2
    gamma_prime = (sigma2_tilde / sigma2) * (N_rs / N_r) * gamma
    b2 = beta**2
    learned = np.sum(b2[:N_r])
    noise_like = np.sum(b2[N_r:M_r])
    tested_learned = np.sum(b2[:N_rs])
    floor = np.sum(b2[N_rs:M_s])
    irreducible = sigma2_tilde * floor
    if (1.0 - gamma) <= DIVERGENCE_TOL:
        return _finish(np.inf, np.inf, kappa, gamma, gamma_prime, irreducible)
    qsq = kp**2 / (alpha + kp) ** 2
    bracket = (sigma2_tilde / sigma2 * noise
               + sigma2_tilde * qsq * learned
               + sigma2_tilde * noise_like)
    Eg = (N_rs / N_r) * gamma / (1.0 - gamma) * bracket \
        + sigma2_tilde * qsq * tested_learned + irreducible
    bracket0 = noise + sigma2 * qsq * learned + sigma2 * noise_like
    Eg0 = gamma / (1.0 - gamma) * bracket0 \
        + sigma2 * qsq * learned + sigma2 * noise_like
    return _finish(Eg, Eg0, kappa, gamma, gamma_prime, irreducible)


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
    return round((2 * k + D - 2) / k * special.comb(k + D - 3, k - 1))


def dot_product_kernel_spectrum(spec, D, k_max, n_quad=400):
    """Spectrum of a dot-product kernel on the unit sphere in R^D.

    spec may be a KernelSpec of kind "ntk_relu" or a callable k(t) on
    [-1, 1]. Returns (eta, degeneracy) for degrees 0..k_max, where eta
    are per-mode eigenvalues so that sum(degeneracy * eta) equals the
    mean of k(1) over the sphere, i.e. the kernel trace.
    """
    if D < 3:
        raise ValueError("quadrature form requires D >= 3")
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


def mode_spectrum_Eg(eta, degeneracy, abar_sq, P, lam, noise=0.0,
                     overlap_scale=1.0, tail_eta=0.0, tail_abar_sq=0.0):
    """General prediction for a degeneracy-weighted mode spectrum.

    eta are per-mode eigenvalues, degeneracy the multiplicity of each
    entry, abar_sq the total target power in each degenerate block. A
    scalar overlap (test measure rescaling every mode by overlap_scale)
    covers concentric spheres. Spectral mass beyond the last resolved
    degree enters as tail_eta (eigenvalue mass, absorbed into the ridge
    since it is unlearnable at these sample sizes) and tail_abar_sq
    (target power there, acting as label noise plus an error floor).
    """
    eta = np.asarray(eta, dtype=float)
    degeneracy = np.asarray(degeneracy, dtype=float)
    abar_sq = np.asarray(abar_sq, dtype=float)
    lam_eff = lam + tail_eta
    kappa = solve_kappa(eta, P, lam_eff, weights=degeneracy).kappa
    st = compute_state(eta, P, lam_eff, kappa=kappa, weights=degeneracy)
    gamma = st.gamma
    gamma_prime = overlap_scale * gamma
    irreducible = overlap_scale * tail_abar_sq
    if (1.0 - gamma) <= DIVERGENCE_TOL:
        return _finish(np.inf, np.inf, kappa, gamma, gamma_prime, irreducible)
    q = np.ones_like(eta)
    pos = eta > 0
    q[pos] = kappa / (P * eta[pos] + kappa)
    Wsq = np.sum(q**2 * abar_sq)
    variance = gamma_prime / (1.0 - gamma) * (noise + Wsq + tail_abar_sq)
    Eg = variance + overlap_scale * Wsq + irreducible
    var0 = gamma / (1.0 - gamma) * (noise + Wsq + tail_abar_sq)
    Eg0 = var0 + Wsq + tail_abar_sq
    return _finish(Eg, Eg0, kappa, gamma, gamma_prime, irreducible)


def ntk_sphere_Eg(P, D, k_stage, eta_bar, abar_sq, lam, noise=0.0,
                  radius_train=1.0, radius_test=1.0):
    """Stage description of dot-product kernel learning on spheres.

    At sample sizes P comparable to the degeneracy of degree k_stage,
    all lower degrees are already learned, higher degrees are frozen,
    and the error obeys a flat-spectrum law in alpha = P / N(D, k).
    eta_bar[k] is the degeneracy-weighted eigenvalue mass of degree k
    on the unit sphere and abar_sq[k] the target power there. Training
    inputs live on a sphere of radius radius_train, test inputs on
    radius_test; degree-one homogeneity of the kernel in each argument
    makes the overlap a uniform rescaling by (radius_test/radius_train)^2.
    This is mode_spectrum_Eg on the single degree-k_stage block, with the
    higher degrees as its tail.
    """
    eta_bar = np.asarray(eta_bar, dtype=float)
    abar_sq = np.asarray(abar_sq, dtype=float)
    if not 0 <= k_stage < eta_bar.shape[0]:
        raise ValueError("k_stage outside spectrum range")
    R2 = radius_train**2
    N_k = hyperspherical_degeneracy(D, k_stage)
    return mode_spectrum_Eg(
        [R2 * eta_bar[k_stage] / N_k], [N_k], [abar_sq[k_stage]], P, lam,
        noise, overlap_scale=radius_test**2 / R2,
        tail_eta=R2 * float(np.sum(eta_bar[k_stage + 1:])),
        tail_abar_sq=float(np.sum(abar_sq[k_stage + 1:])))
