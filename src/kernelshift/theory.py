"""Replica prediction of the generalization error under distribution shift.

Given the Mercer spectrum (eta_rho, phi_rho) of the kernel under the
training measure, target coefficients abar, and the overlap matrix O of the
eigenfunctions under the test measure, the dataset-averaged test error of
kernel ridge regression with P samples is predicted by

    kappa = lam + sum_rho kappa eta_rho / (P eta_rho + kappa)
    gamma = sum_rho P eta_rho^2 / (P eta_rho + kappa)^2
    gamma' = sum_rho O_rho_rho P eta_rho^2 / (P eta_rho + kappa)^2

    variance = gamma'/(1-gamma) (eps_eff^2 + sum_in (kappa abar/(P eta + kappa))^2)
    bias     = kappa^2 u^T O u over in-RKHS modes
               + 2 kappa sum_{out,in} O abar abar/(P eta + kappa)
               + sum_{out,out} O abar abar                      (irreducible)

with u = abar/(P eta + kappa) and the effective noise
eps_eff^2 = eps^2 + sum_out abar^2 absorbing target weight on zero-eigenvalue
(out-of-RKHS) modes.  All of this is the eta -> 0 limit of the full-rank
expressions, so a single code path covers both cases.  When the overlap's
out-of-RKHS block is not evaluable (test mass outside the training support),
the same cross/irreducible terms are computed from the residual
r = f - sum_in abar_rho phi_rho via `residual_moments`.

Everything is per output column and summed over columns; the noise level is
a scalar shared by all outputs.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .measures import DiscreteMeasure
from .spectral import (DEFAULT_RANK_THRESHOLD, OverlapMatrix, identity_overlap,
                       mercer_decompose, overlap, project_target)

KAPPA_RTOL = 1e-12
DIVERGENCE_TOL = 1e-10


class DivergenceError(ValueError):
    """The requested computation sits in the diverging regime."""


@dataclass(frozen=True)
class KappaSolution:
    kappa: float
    residual: float
    ridgeless: bool = False


@dataclass(frozen=True)
class TheoryState:
    P: float
    lam: float
    kappa: float
    gamma: float
    gamma_prime: float
    diverged: bool
    ridgeless: bool = False


@dataclass(frozen=True)
class TheoryPrediction:
    """Predicted error and its split at one P.

    `overlap` is the full (n_modes, n_modes) overlap the prediction used,
    or None when only the in-RKHS block was given or the error diverged.
    """

    Eg: float
    bias: float
    variance: float
    Eg_matched: float
    delta: float
    irreducible: float
    state: TheoryState
    diagnostic: str = ""
    overlap: np.ndarray = field(default=None, repr=False, compare=False)

    @property
    def O_shifted(self):
        """O - (1 - gamma')/(1 - gamma) I, built on access; None without
        a full overlap."""
        if self.overlap is None:
            return None
        s = self.state
        shift = (1.0 - s.gamma_prime) / (1.0 - s.gamma)
        return self.overlap - shift * np.eye(self.overlap.shape[0])


@dataclass(frozen=True)
class ResidualMoments:
    """Test-measure moments of the out-of-RKHS target residual.

    second: (C,) with <r_c^2>_ptilde
    cross:  (rank, C) with <r_c phi_gamma>_ptilde over in-RKHS modes
    """

    second: np.ndarray
    cross: np.ndarray


def _validated_spectrum(eigenvalues, weights):
    eta = np.asarray(eigenvalues, dtype=np.float64)
    if eta.ndim != 1 or eta.size == 0:
        raise ValueError("eigenvalues must be a nonempty 1-D array")
    if np.any(eta < 0) or not np.all(np.isfinite(eta)):
        raise ValueError("eigenvalues must be finite and nonnegative")
    if weights is None:
        w = np.ones_like(eta)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != eta.shape or np.any(w < 0):
            raise ValueError("weights must match eigenvalues and be nonnegative")
    return eta, w


def solve_kappa(eigenvalues, P, lam, method="brent", weights=None):
    """Solve kappa = lam + sum_rho kappa eta_rho / (P eta_rho + kappa).

    `weights` are optional mode multiplicities (for degenerate spectra).
    The fixed point is unique for lam > 0; for lam = 0 with P at or above
    the number of positive modes the solution is kappa = 0, reported with
    ridgeless=True.  method="ode" integrates the relaxation
    dkappa/ds = lam + sum(...) - kappa instead (cross-check path).
    """
    eta, w = _validated_spectrum(eigenvalues, weights)
    P = float(P)
    lam = float(lam)
    if P < 0 or lam < 0:
        raise ValueError("P and lam must be nonnegative")
    pos = eta > 0
    n_pos = float(w[pos].sum())
    total = float(np.dot(w, eta))
    if total == 0.0:
        return KappaSolution(kappa=lam, residual=0.0)
    if P == 0.0:
        return KappaSolution(kappa=lam + total, residual=0.0)

    def sum_term(kappa):
        return float(np.dot(w[pos], kappa * eta[pos] / (P * eta[pos] + kappa)))

    def g(kappa):
        return kappa - lam - sum_term(kappa)

    if method == "ode":
        kappa = _solve_kappa_ode(eta[pos], w[pos], P, lam, total)
        ridgeless = lam == 0.0 and P >= n_pos
    elif lam == 0.0:
        if P >= n_pos:
            return KappaSolution(kappa=0.0, residual=0.0, ridgeless=True)

        def f(kappa):
            return float(np.dot(w[pos], eta[pos] / (P * eta[pos] + kappa))) - 1.0

        kappa = brentq(f, 0.0, total, xtol=1e-300, rtol=8.9e-16, maxiter=200)
        ridgeless = False
    else:
        kappa = brentq(g, lam, lam + total, xtol=1e-300, rtol=8.9e-16, maxiter=200)
        ridgeless = False

    # Newton polish; the derivative 1 - gamma(kappa) is positive at the root
    for _ in range(3):
        gp = 1.0 - float(np.dot(w[pos], P * eta[pos] ** 2 / (P * eta[pos] + kappa) ** 2))
        if gp <= 1e-3:
            break
        step = g(kappa) / gp
        if kappa - step <= 0:
            break
        kappa -= step
    residual = abs(g(kappa)) / max(kappa, 1e-300)
    if residual > KAPPA_RTOL and method != "ode":
        raise RuntimeError(f"kappa solver stalled at relative residual {residual:.2e}")
    return KappaSolution(kappa=float(kappa), residual=float(residual), ridgeless=ridgeless)


def _solve_kappa_ode(eta, w, P, lam, total):
    def rhs(_, y):
        kappa = y[0]
        return [lam + float(np.dot(w, kappa * eta / (P * eta + kappa))) - kappa]

    sol = solve_ivp(rhs, (0.0, 400.0), [lam + total], rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"kappa ODE integration failed: {sol.message}")
    return float(sol.y[0, -1])


def compute_state(eigenvalues, P, lam, O_diag=None, kappa=None, weights=None):
    """gamma, gamma' and the divergence flag at the self-consistent kappa."""
    eta, w = _validated_spectrum(eigenvalues, weights)
    if kappa is None:
        sol = solve_kappa(eta, P, lam, weights=weights)
        kappa, ridgeless = sol.kappa, sol.ridgeless
    elif isinstance(kappa, KappaSolution):
        kappa, ridgeless = kappa.kappa, kappa.ridgeless
    else:
        ridgeless = False
    P = float(P)
    denom = P * eta + kappa
    frac = np.zeros_like(eta)
    ok = denom > 0
    frac[ok] = P * eta[ok] ** 2 / denom[ok] ** 2
    gamma = float(np.dot(w, frac))
    if O_diag is None:
        gamma_prime = gamma
    else:
        O_diag = np.asarray(O_diag, dtype=np.float64)
        if O_diag.shape != eta.shape:
            raise ValueError("O_diag must match eigenvalues")
        gamma_prime = float(np.dot(w, O_diag * frac))
    return TheoryState(
        P=P,
        lam=float(lam),
        kappa=float(kappa),
        gamma=gamma,
        gamma_prime=gamma_prime,
        diverged=bool(1.0 - gamma < DIVERGENCE_TOL),
        ridgeless=ridgeless,
    )


def _as_columns(abar, n_modes):
    abar = np.asarray(abar, dtype=np.float64)
    if abar.ndim == 1:
        abar = abar[:, None]
    if abar.shape[0] != n_modes:
        raise ValueError(f"abar must have {n_modes} rows, got {abar.shape}")
    return abar


def residual_moments(dec, abar, Y, ptilde):
    """Moments of r = Y - sum_in abar phi under the test measure.

    Y provides target values at every dataset point, so this works even when
    ptilde has mass outside the training support (collapsed modes are never
    evaluated there).
    """
    if not isinstance(ptilde, DiscreteMeasure):
        ptilde = DiscreteMeasure(ptilde)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    abar = _as_columns(abar, dec.n_modes)
    rank = dec.rank
    Phi_in = dec.Phi[:, :rank]
    R = Y - Phi_in @ abar[:rank]
    wts = ptilde.masses[:, None]
    second = np.einsum("mc,mc->c", wts * R, R)
    cross = Phi_in.T @ (wts * R)
    return ResidualMoments(second=second, cross=cross)


def _diverged_prediction(state, diagnostic):
    inf = math.inf
    return TheoryPrediction(
        Eg=inf,
        bias=inf,
        variance=inf,
        Eg_matched=inf,
        delta=inf,
        irreducible=inf,
        state=state,
        diagnostic=diagnostic,
    )


def predict_Eg(dec, abar, O, P, lam, noise, residual=None, kappa_method="brent"):
    """Predicted test error, bias/variance split, and matched-measure baseline.

    O may be an OverlapMatrix or a raw (n_modes, n_modes) array.  If the
    overlap's collapsed block is undefined, pass `residual` from
    residual_moments; without it target weight on collapsed modes raises.
    noise is the label noise variance eps^2.
    """
    eta = dec.eigenvalues.copy()
    rank = dec.rank
    m = dec.n_modes
    eta[rank:] = 0.0  # collapsed modes are treated as exactly out-of-RKHS
    abar = _as_columns(abar, m)
    if isinstance(O, OverlapMatrix):
        Omat = O.O
        collapsed_undefined = O.collapsed_undefined
    else:
        Omat = np.asarray(O, dtype=np.float64)
        collapsed_undefined = False
    if Omat.shape not in ((m, m), (rank, rank)):
        raise ValueError(f"overlap must be ({m},{m}) or ({rank},{rank}), got {Omat.shape}")
    if float(noise) < 0:
        raise ValueError("noise variance must be nonnegative")

    sol = solve_kappa(eta, P, lam, method=kappa_method)
    kappa = sol.kappa
    # collapsed modes have eta = 0 and never contribute to gamma', so the
    # padding value of their O diagonal is irrelevant
    O_diag = np.ones(m)
    if rank:
        O_diag[:rank] = np.diag(Omat)[:rank]
    state = compute_state(eta, P, lam, O_diag=O_diag, kappa=sol)

    if state.diverged:
        return _diverged_prediction(
            state,
            f"1 - gamma = {1.0 - state.gamma:.3e} < {DIVERGENCE_TOL}: "
            "predicted error diverges (interpolation threshold)",
        )

    denom = P * eta + kappa
    # q = kappa / (P eta + kappa); equals 1 on out-of-RKHS modes even in the
    # ridgeless limit kappa -> 0
    q = np.ones(m)
    ok = denom > 0
    q[ok] = kappa / denom[ok]
    q[eta == 0] = 1.0
    W = q[:, None] * abar  # kappa * abar / (P eta + kappa), exact at eta = 0

    out_power = np.einsum("rc,rc->c", abar[rank:], abar[rank:])
    eps_eff = float(noise) + out_power  # per output
    in_sq = np.einsum("rc,rc->c", W[:rank], W[:rank])

    one_minus = 1.0 - state.gamma
    variance_c = state.gamma_prime / one_minus * (eps_eff + in_sq)

    O_in = Omat[:rank, :rank]
    bias_in_c = np.einsum("rc,rg,gc->c", W[:rank], O_in, W[:rank])
    if rank == m or not np.any(out_power > 0):
        cross_c = np.zeros_like(eps_eff)
        irr_c = np.zeros_like(eps_eff)
    elif Omat.shape == (m, m) and not collapsed_undefined:
        O_cross = Omat[rank:, :rank]
        O_out = Omat[rank:, rank:]
        cross_c = 2.0 * np.einsum("oc,or,rc->c", abar[rank:], O_cross, W[:rank])
        irr_c = np.einsum("oc,og,gc->c", abar[rank:], O_out, abar[rank:])
    elif residual is not None:
        cross_c = 2.0 * np.einsum("rc,rc->c", residual.cross, W[:rank])
        irr_c = np.asarray(residual.second, dtype=np.float64)
    else:
        raise ValueError(
            "target has weight on collapsed modes but the overlap's "
            "out-of-RKHS block is undefined; pass residual=residual_moments(...)"
        )

    bias_c = bias_in_c + cross_c + irr_c
    Eg = float(np.sum(variance_c + bias_c))
    bias = float(np.sum(bias_c))
    variance = float(np.sum(variance_c))

    # matched-measure baseline: O = identity
    matched_c = (
        state.gamma / one_minus * (eps_eff + in_sq) + in_sq + out_power
    )
    Eg_matched = float(np.sum(matched_c))

    return TheoryPrediction(
        Eg=Eg,
        bias=bias,
        variance=variance,
        Eg_matched=Eg_matched,
        delta=Eg - Eg_matched,
        irreducible=float(np.sum(irr_c)),
        state=state,
        overlap=Omat if Omat.shape == (m, m) else None,
    )


def expected_estimator(dec, abar, P, lam, kappa=None):
    """Dataset-averaged estimator coefficients P eta abar / (P eta + kappa)."""
    eta = dec.eigenvalues.copy()
    eta[dec.rank:] = 0.0
    abar = _as_columns(abar, dec.n_modes)
    if kappa is None:
        kappa = solve_kappa(eta, P, lam).kappa
    elif isinstance(kappa, KappaSolution):
        kappa = kappa.kappa
    denom = float(P) * eta + kappa
    lr = np.zeros_like(eta)
    ok = denom > 0
    lr[ok] = float(P) * eta[ok] / denom[ok]
    return lr[:, None] * abar


def pointwise_error_density(dec, abar, P, lam, noise, Y=None, kappa_method="brent"):
    """Per-point error density c with Eg(ptilde) = sum_mu ptilde_mu c_mu.

    The predicted error is linear in the test measure; c_mu is the error of
    a Dirac test measure at point mu.  Y is required when collapsed modes
    carry target weight and the dataset has points outside the training
    support (the residual is then Y - projection).  All entries are >= 0.
    """
    eta = dec.eigenvalues.copy()
    rank = dec.rank
    m = dec.n_modes
    eta[rank:] = 0.0
    abar = _as_columns(abar, m)
    sol = solve_kappa(eta, P, lam, method=kappa_method)
    kappa = sol.kappa
    state = compute_state(eta, P, lam, kappa=sol)
    if state.diverged:
        raise DivergenceError(
            "pointwise density undefined: predicted error diverges "
            f"(1 - gamma = {1.0 - state.gamma:.3e})"
        )
    denom = P * eta + kappa
    q = np.ones(m)
    ok = denom > 0
    q[ok] = kappa / denom[ok]
    q[eta == 0] = 1.0
    W = q[:, None] * abar

    out_power = np.einsum("rc,rc->c", abar[rank:], abar[rank:])
    eps_eff = float(noise) + out_power
    in_sq = np.einsum("rc,rc->c", W[:rank], W[:rank])

    Phi_in = dec.Phi[:, :rank]
    frac = P * eta[:rank] ** 2 / denom[:rank] ** 2 if rank else np.zeros(0)
    gamma_mu = Phi_in**2 @ frac  # per-point gamma'

    if np.any(out_power > 0):
        if dec.offsupport.size and Y is None:
            raise ValueError(
                "target has weight on collapsed modes and the dataset has "
                "off-support points; pass Y to evaluate residuals there"
            )
        if Y is not None:
            Yc = np.asarray(Y, dtype=np.float64)
            if Yc.ndim == 1:
                Yc = Yc[:, None]
            R = Yc - Phi_in @ abar[:rank]
        else:
            R = dec.Phi[:, rank:] @ abar[rank:]
    else:
        R = np.zeros((dec.Phi.shape[0], abar.shape[1]))

    mean_part = Phi_in @ W[:rank] + R  # (M, C): estimator shortfall at each point
    c = gamma_mu / (1.0 - state.gamma) * np.sum(eps_eff + in_sq) + np.einsum(
        "mc,mc->m", mean_part, mean_part
    )
    return c


def predict_Eg_curve(
    K,
    Y,
    p,
    ptilde,
    P_grid,
    lam,
    noise,
    rank_threshold=None,
    dec=None,
    kappa_method="brent",
):
    """End-to-end learning curve on a discrete dataset, one prediction per P.

    The target projection, the overlap and (when the test measure leaves
    the training support while collapsed modes exist) the residual moments
    depend only on the kernel and the two measures, so they are built once;
    each P then costs one kappa solve and O(n_modes^2) work in predict_Eg.
    """
    if not isinstance(p, DiscreteMeasure):
        p = DiscreteMeasure(p)
    if not isinstance(ptilde, DiscreteMeasure):
        ptilde = DiscreteMeasure(ptilde)
    if dec is None:
        thr = DEFAULT_RANK_THRESHOLD if rank_threshold is None else rank_threshold
        dec = mercer_decompose(K, p, thr)
    abar = project_target(dec, Y)
    O = overlap(dec, ptilde)
    residual = None
    if O.collapsed_undefined:
        residual = residual_moments(dec, abar, Y, ptilde)
    return [
        predict_Eg(dec, abar, O, P, lam, noise, residual=residual,
                   kappa_method=kappa_method)
        for P in P_grid
    ]


def predict_Eg_dataset(
    K,
    Y,
    p,
    ptilde,
    P,
    lam,
    noise,
    rank_threshold=None,
    dec=None,
    kappa_method="brent",
):
    """End-to-end prediction at one P: predict_Eg_curve on a one-point grid."""
    return predict_Eg_curve(K, Y, p, ptilde, [P], lam, noise, rank_threshold,
                            dec, kappa_method)[0]


def predict_Eg_train_grad(K, Y, p, ptilde, P, lam, noise, rank_threshold=None):
    """Predicted error on a discrete dataset and its gradient in the training masses.

    Returns (Eg, dEg_dp) with Eg equal to predict_Eg_dataset(...).Eg and
    dEg_dp[mu] the partial derivative in p_mu, all masses varied
    independently.  One decomposition and O(M^3) matmuls, by reverse mode
    through the resolvent.  With a = sqrt(p), B = (a a^T) o K (eta zeroed on
    collapsed modes) and u_c = a o Y_c, in the eigenbasis of B

        q = kappa/(P eta + kappa),  e = eta/(P eta + kappa)   (q = 1, e = 0 collapsed)
        W = q o abar,  abar = V^T u,  O = V^T diag(ptilde/p) V
        gamma = P sum e^2,  gamma' = P sum O_rr e^2
        Eg = sum_c W_c^T O W_c + gamma'/(1-gamma) (C eps^2 + |W|^2)

    Eg depends on B only through Q = V diag(q) V^T, so its adjoint needs
    only the divided differences of q(eta), which are products of bounded
    factors and have no 1/(eta_i - eta_j) terms; kappa enters by the
    implicit function theorem, dkappa/deta = q^2/(1 - gamma).  In the
    ridgeless regime (lam = 0, P above the rank) kappa = 0 identically and
    every factor stays finite.  Collapsed modes are held at eta = 0, so on
    rank-deficient kernels this is the gradient of the thresholded
    prediction, which is not smooth where a mode crosses the rank
    threshold (DEFAULT_RANK_THRESHOLD unless rank_threshold is given, as
    in predict_Eg_dataset).

    The training measure must have full support.  A diverged prediction
    (1 - gamma below DIVERGENCE_TOL) raises DivergenceError.
    """
    if not isinstance(p, DiscreteMeasure):
        p = DiscreteMeasure(p)
    if not isinstance(ptilde, DiscreteMeasure):
        ptilde = DiscreteMeasure(ptilde)
    if p.support().size != p.M:
        raise ValueError("the training-mass gradient needs full support")
    if ptilde.M != p.M:
        raise ValueError("test measure must cover the same dataset")
    if float(noise) < 0:
        raise ValueError("noise variance must be nonnegative")
    thr = DEFAULT_RANK_THRESHOLD if rank_threshold is None else rank_threshold
    dec = mercer_decompose(K, p, thr)
    K = np.asarray(K, dtype=np.float64)
    K = 0.5 * (K + K.T)
    Y = np.asarray(Y, dtype=np.float64)
    Y = Y[:, None] if Y.ndim == 1 else Y
    P = float(P)
    rank = dec.rank
    a = np.sqrt(p.masses)
    V = a[:, None] * dec.Phi  # orthonormal eigenvectors of B
    abar = project_target(dec, Y)
    O = overlap(dec, ptilde).O

    eta = dec.eigenvalues.copy()
    eta[rank:] = 0.0
    sol = solve_kappa(eta, P, lam)
    state = compute_state(eta, P, lam, O_diag=np.diag(O), kappa=sol)
    one_minus = 1.0 - state.gamma
    if state.diverged:
        raise DivergenceError(
            f"1 - gamma = {one_minus:.3e} < {DIVERGENCE_TOL}: predicted "
            "error diverges, so it has no gradient")
    gamma_p = state.gamma_prime
    kappa = sol.kappa
    d = np.zeros_like(eta)  # 1/(P eta + kappa) on in-RKHS modes
    d[:rank] = 1.0 / (P * eta[:rank] + kappa)
    q = np.ones_like(eta)
    q[:rank] = kappa * d[:rank]
    e = eta * d
    rho = gamma_p / one_minus
    W = q[:, None] * abar
    OW = O @ W
    N = Y.shape[1] * float(noise) + float(np.sum(W * W))
    Eg = float(np.sum(W * OW)) + rho * N

    # adjoint of Q (eigenbasis); gamma and gamma' depend on Q via S = I - Q
    H = OW + rho * W
    Qbar = H @ abar.T
    Qbar += Qbar.T
    Qbar -= (N / one_minus) * (e[:, None] * O + O * e[None, :])
    Qbar[np.diag_indices_from(Qbar)] -= 2.0 * N * gamma_p / one_minus**2 * e
    # divided differences of q(eta): -P kappa d_i d_j between in-RKHS modes,
    # (q_i - 1)/(eta_i - eta_j) = -P d_i eta_i/(eta_i - eta_j) between
    # in-RKHS mode i and collapsed mode j (at its true eigenvalue, which a
    # large rank threshold leaves above 0), 0 among collapsed
    r = P * d
    F = -(np.outer(r, q) + np.outer(q, r))
    F[:rank, :rank] *= 0.5
    F[:rank, rank:] *= eta[:rank, None] / (
        eta[:rank, None] - dec.eigenvalues[None, rank:])
    F[rank:, :rank] = F[:rank, rank:].T
    Bbar = F * Qbar
    kappa_bar = float(np.dot(np.diag(Qbar), P * eta * d * d))  # dq/dkappa
    inr = np.arange(rank)
    Bbar[inr, inr] += kappa_bar / one_minus * q[:rank] ** 2
    Bbar = V @ Bbar @ V.T

    # chain B = (a a^T) o K, u = a o Y and T = diag(ptilde/p) back to p
    Tbar = np.sum((V @ W) ** 2, axis=1) + (N * P / one_minus) * (V**2 @ (e * e))
    Ubar = V @ (2.0 * q[:, None] * H)
    a_bar = 2.0 * ((Bbar * K) @ a) + np.sum(Ubar * Y, axis=1)
    return Eg, a_bar / (2.0 * a) - Tbar * ptilde.masses / p.masses**2


CURVE_COLUMNS = (
    "P",
    "kappa",
    "gamma",
    "gamma_prime",
    "Eg",
    "bias",
    "variance",
    "Eg_matched",
    "delta",
    "irreducible",
    "diverged",
)


def prediction_row(P, pred):
    """One learning-curve CSV row (see CURVE_COLUMNS) from a prediction."""
    s = pred.state
    return (
        float(P),
        s.kappa,
        s.gamma,
        s.gamma_prime,
        pred.Eg,
        pred.bias,
        pred.variance,
        pred.Eg_matched,
        pred.delta,
        pred.irreducible,
        int(s.diverged),
    )
