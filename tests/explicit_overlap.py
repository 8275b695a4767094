"""The replica prediction written out in numpy on an explicit test overlap,
the oracle the prediction core is checked against: it shares only the
kappa solve with the package."""

import numpy as np

from kernelshift.theory import DIVERGENCE_TOL, TheoryPrediction, solve_kappa


def explicit_overlap_prediction(eta, P, lam, noise, b, O):
    """The TheoryPrediction at one P of orthonormal modes with eigenvalues
    eta (0 on collapsed modes), target coefficients b (modes x outputs)
    and test overlap O: q = kappa/(P eta + kappa), 1 on collapsed modes,
    W = q b, bias = sum_c W_c^T O W_c, gamma' = sum_r O_rr P eta_r^2 /
    (P eta_r + kappa)^2 and the irreducible error the bias form on the
    collapsed block."""
    b = np.asarray(b, dtype=float).reshape(len(eta), -1)
    kappa = solve_kappa(eta, P, lam).kappa
    pos = eta > 0
    q = np.ones_like(eta)
    frac = np.zeros_like(eta)
    q[pos] = kappa / (P * eta[pos] + kappa)
    frac[pos] = P * eta[pos] ** 2 / (P * eta[pos] + kappa) ** 2
    gamma = float(np.sum(frac))
    gamma_prime = float(np.diag(O) @ frac)
    if 1.0 - gamma < DIVERGENCE_TOL:
        return TheoryPrediction(P, kappa, gamma, gamma_prime, diverged=True)
    W = q[:, None] * b
    n_eff = b.shape[1] * noise + float(np.sum(W * W))
    bias = float(np.einsum("rc,rs,sc->", W, O, W))
    variance = gamma_prime / (1.0 - gamma) * n_eff
    Eg = bias + variance
    Eg_matched = gamma / (1.0 - gamma) * n_eff + float(np.sum(W * W))
    out = ~pos
    irreducible = float(np.einsum("rc,rs,sc->", b[out],
                                  O[np.ix_(out, out)], b[out]))
    return TheoryPrediction(P, kappa, gamma, gamma_prime, Eg, bias, variance,
                            Eg_matched, Eg - Eg_matched, irreducible)
