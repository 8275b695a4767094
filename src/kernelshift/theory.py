"""Replica prediction of the generalization error under distribution shift.

Given the Mercer spectrum (eta_rho, phi_rho) of the kernel under the
training measure, target coefficients abar, and the overlap matrix O of the
eigenfunctions under the test measure, the dataset-averaged test error of
kernel ridge regression with P samples is predicted by

    kappa = lam + sum_rho kappa eta_rho / (P eta_rho + kappa)
    gamma = sum_rho P eta_rho^2 / (P eta_rho + kappa)^2
    gamma' = sum_rho O_rho_rho P eta_rho^2 / (P eta_rho + kappa)^2

    variance = gamma'/(1-gamma) (eps_eff^2 + sum_in (kappa abar/(P eta + kappa))^2)
    bias     = W^T O W,   W = q abar,   q = kappa/(P eta + kappa)

with q = 1 on zero-eigenvalue (out-of-RKHS, "collapsed") modes, so the
bias holds the in-RKHS term, twice the in/out cross term and the
irreducible sum_{out,out} O abar abar.  The effective noise
eps_eff^2 = eps^2 + sum_out abar^2 absorbs target weight on collapsed
modes.  All of this is the eta -> 0 limit of the full-rank expressions, so
a single code path covers both cases.

The error is linear in the test measure: Eg = sum_mu ptilde_mu c_mu.  On a
dataset every curve quantity is therefore a ptilde-weighted sum over points
of rows built from the in-RKHS eigenfunction values Phi_in and the residual
R = Y - Phi_in abar_in, which is the collapsed modes' part of the target
and is defined even where the test measure leaves the training support
(collapsed modes cannot be evaluated there).  `predict_Eg_curve` and
`pointwise_error_density` use these rows; `predict_Eg` takes an explicit
overlap matrix instead.

Everything is per output column and summed over columns; the noise level is
a scalar shared by all outputs.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .measures import DiscreteMeasure
from .spectral import (DEFAULT_RANK_THRESHOLD, OverlapMatrix, mercer_decompose,
                       overlap, project_target)

KAPPA_RTOL = 1e-12
KAPPA_MAXITER = 200
DIVERGENCE_TOL = 1e-10


class DivergenceError(ValueError):
    """The requested computation sits in the diverging regime."""


class SupportError(ValueError):
    """A training mass is 0, or too small for a finite result, where every
    atom needs mass, as when a softmax underflows (logits about 745 apart)."""


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

    `overlap` is the (n_modes, n_modes) overlap predict_Eg used, or None
    for a curve prediction (which builds none) or a diverged one.
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


def solve_kappa(eigenvalues, P, lam, weights=None):
    """Solve kappa = lam + sum_rho kappa eta_rho / (P eta_rho + kappa).

    `weights` are optional mode multiplicities (for degenerate spectra).
    The fixed point is unique for lam > 0; for lam = 0 with P at or above
    the number of positive modes the solution is kappa = 0, reported with
    ridgeless=True.

    The root comes from one monotone Newton iteration on g(kappa) = kappa
    - lam - sum w kappa eta/(P eta + kappa), started from the upper bound
    lam + sum w eta.  g is convex, positive at that bound and negative
    just above 0 (g(0) = -lam, or g'(0) = 1 - n/P < 0 when lam = 0 and P
    is below the number n of positive modes), so Newton decreases to the
    positive root without overshooting it.  A spectrum too small to
    register against the ridge makes no step below the bound, which is
    then the root.  A solve that ends above relative residual KAPPA_RTOL,
    after at most KAPPA_MAXITER steps, raises RuntimeError.
    """
    eta, w = _validated_spectrum(eigenvalues, weights)
    P = float(P)
    lam = float(lam)
    if P < 0 or lam < 0:
        raise ValueError("P and lam must be nonnegative")
    pos = eta > 0
    eta, w = eta[pos], w[pos]
    n_pos = float(w.sum())
    total = float(np.dot(w, eta))
    if total == 0.0:
        return KappaSolution(kappa=lam, residual=0.0)
    if P == 0.0:
        return KappaSolution(kappa=lam + total, residual=0.0)
    if lam == 0.0 and P >= n_pos:
        return KappaSolution(kappa=0.0, residual=0.0, ridgeless=True)
    Peta = P * eta
    kappa = lam + total
    for _ in range(KAPPA_MAXITER):
        # the Newton step kappa - g/g' as (kappa g' - g)/g', since
        # kappa g' - g = lam + kappa^2 sum w eta/(P eta + kappa)^2 has no
        # cancellation when the root is far below kappa
        d = 1.0 / (Peta + kappa)
        e = eta * d
        gp = 1.0 - P * float(np.dot(w, e * e))
        if gp <= 0.0:
            break
        nxt = (lam + kappa * kappa * float(np.dot(w, e * d))) / gp
        if not nxt < kappa:
            break
        kappa = nxt

    sum_term = float(np.dot(w, kappa * eta / (Peta + kappa)))
    residual = abs(kappa - lam - sum_term) / max(kappa, 1e-300)
    if residual > KAPPA_RTOL:
        raise RuntimeError(f"kappa solver stalled at relative residual {residual:.2e}")
    return KappaSolution(kappa=float(kappa), residual=float(residual))


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


class _PerP(NamedTuple):
    """kappa and the mode weights at one P, shared by every error route."""

    state: TheoryState
    d: np.ndarray    # 1/(P eta + kappa) on in-RKHS modes, 0 on collapsed ones
    q: np.ndarray    # kappa/(P eta + kappa), 1 on collapsed modes
    W: np.ndarray    # q o abar, (n_modes, C)
    wsq: np.ndarray  # |W_c|^2 = in-RKHS power + collapsed target power, (C,)


def _per_P(dec, abar, P, lam, O_diag_in=None):
    """Solve kappa at P and weight the modes.

    O_diag_in is the test-measure overlap diagonal over the in-RKHS modes
    (gamma' = gamma without it).  Collapsed modes are treated as exactly
    out-of-RKHS (eta = 0), so q = 1 there even in the ridgeless limit
    kappa -> 0.  noise + wsq is eps_eff^2 + |W_in|^2 per output.
    """
    eta = dec.eigenvalues.copy()
    rank = dec.rank
    eta[rank:] = 0.0
    sol = solve_kappa(eta, P, lam)
    O_diag = None
    if O_diag_in is not None:
        # collapsed modes have eta = 0 and never contribute to gamma'
        O_diag = np.zeros_like(eta)
        O_diag[:rank] = O_diag_in
    state = compute_state(eta, P, lam, O_diag=O_diag, kappa=sol)
    d = np.zeros_like(eta)
    d[:rank] = 1.0 / (float(P) * eta[:rank] + sol.kappa)
    q = np.ones_like(eta)
    q[:rank] = sol.kappa * d[:rank]
    W = q[:, None] * abar
    return _PerP(state, d, q, W, np.einsum("rc,rc->c", W, W))


def _rows(dec, abar, Y):
    """Phi_in (M, rank) and the residual R = Y - Phi_in abar_in (M, C).

    R is the collapsed modes' part of the target and is 0 when they carry
    no target power.  Without Y it is taken from the stored collapsed
    eigenfunction values, which exist only on the training support.
    """
    rank = dec.rank
    Phi_in = dec.Phi[:, :rank]
    M, C = dec.Phi.shape[0], abar.shape[1]
    if not np.any(np.einsum("rc,rc->c", abar[rank:], abar[rank:]) > 0):
        return Phi_in, np.zeros((M, C))
    if Y is None:
        if dec.offsupport.size:
            raise ValueError(
                "target has weight on collapsed modes and the dataset has "
                "off-support points; pass Y to evaluate residuals there")
        return Phi_in, dec.Phi[:, rank:] @ abar[rank:]
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    if Y.shape != (M, C):
        raise ValueError(f"Y must be ({M}, {C}), got {Y.shape}")
    return Phi_in, Y - Phi_in @ abar[:rank]


def _diverged_prediction(state):
    inf = math.inf
    return TheoryPrediction(
        Eg=inf,
        bias=inf,
        variance=inf,
        Eg_matched=inf,
        delta=inf,
        irreducible=inf,
        state=state,
        diagnostic=f"1 - gamma = {1.0 - state.gamma:.3e} < {DIVERGENCE_TOL}: "
        "predicted error diverges (interpolation threshold)",
    )


def _prediction(core, noise, bias_c, irr_c, overlap=None):
    """Variance and matched baseline from the per-P core, bias given."""
    s = core.state
    one_minus = 1.0 - s.gamma
    n_eff = float(noise) + core.wsq
    variance_c = s.gamma_prime / one_minus * n_eff
    Eg = float(np.sum(variance_c + bias_c))
    # matched-measure baseline: O = identity
    Eg_matched = float(np.sum(s.gamma / one_minus * n_eff + core.wsq))
    return TheoryPrediction(
        Eg=Eg,
        bias=float(np.sum(bias_c)),
        variance=float(np.sum(variance_c)),
        Eg_matched=Eg_matched,
        delta=Eg - Eg_matched,
        irreducible=float(np.sum(irr_c)),
        state=s,
        overlap=overlap,
    )


def _check_noise(noise):
    if float(noise) < 0:
        raise ValueError("noise variance must be nonnegative")


def predict_Eg(dec, abar, O, P, lam, noise):
    """Predicted test error, bias/variance split, and matched-measure baseline
    from an explicit overlap.

    O is an OverlapMatrix or a raw (n_modes, n_modes) array; the bias is
    the quadratic form sum_c W_c^T O W_c.  noise is the label noise
    variance eps^2.
    """
    m = dec.n_modes
    rank = dec.rank
    abar = _as_columns(abar, m)
    Omat = O.O if isinstance(O, OverlapMatrix) else np.asarray(O, dtype=np.float64)
    if Omat.shape != (m, m):
        raise ValueError(f"overlap must be ({m},{m}), got {Omat.shape}")
    _check_noise(noise)
    core = _per_P(dec, abar, P, lam, np.diag(Omat)[:rank])
    if core.state.diverged:
        return _diverged_prediction(core.state)
    W = core.W
    bias_c = np.einsum("rc,rc->c", W, Omat @ W)
    out = abar[rank:]
    irr_c = np.einsum("oc,oc->c", out, Omat[rank:, rank:] @ out)
    return _prediction(core, noise, bias_c, irr_c, overlap=Omat)


def pointwise_error_density(dec, abar, P, lam, noise, Y=None):
    """Per-point error density c with Eg(ptilde) = sum_mu ptilde_mu c_mu.

    The predicted error is linear in the test measure; c_mu is the error of
    a Dirac test measure at point mu, and predict_Eg_curve contracts the
    same rows with ptilde.  Y is required when collapsed modes carry target
    weight and the dataset has points outside the training support (the
    residual is then Y - projection).  All entries are >= 0.
    """
    abar = _as_columns(abar, dec.n_modes)
    _check_noise(noise)
    Phi_in, R = _rows(dec, abar, Y)
    core = _per_P(dec, abar, P, lam)
    s = core.state
    if s.diverged:
        raise DivergenceError(
            "pointwise density undefined: predicted error diverges "
            f"(1 - gamma = {1.0 - s.gamma:.3e})"
        )
    e = dec.eigenvalues[:dec.rank] * core.d[:dec.rank]
    gamma_mu = Phi_in**2 @ (float(P) * e * e)  # per-point gamma'
    mean = Phi_in @ core.W[:dec.rank] + R  # estimator shortfall at each point
    return gamma_mu / (1.0 - s.gamma) * float(np.sum(float(noise) + core.wsq)) \
        + np.einsum("mc,mc->m", mean, mean)


def predict_Eg_curve(K, Y, p, ptilde, P_grid, lam, noise, rank_threshold=None,
                     dec=None):
    """End-to-end learning curve on a discrete dataset, one prediction per P.

    The decomposition, the target projection, the test-measure weights of
    Phi_in^2 (gamma' per mode) and of the squared residual (the
    irreducible error) depend only on the kernel and the two measures, so
    they are built once.  Each P then costs one kappa solve and one
    (M, rank) product: the bias is ptilde . |Phi_in W_in + R|^2, the
    pointwise density's rows contracted with the test measure.  No overlap
    matrix is built, so test mass off the training support is covered
    whether or not collapsed modes exist.
    """
    if not isinstance(p, DiscreteMeasure):
        p = DiscreteMeasure(p)
    if not isinstance(ptilde, DiscreteMeasure):
        ptilde = DiscreteMeasure(ptilde)
    if dec is None:
        thr = DEFAULT_RANK_THRESHOLD if rank_threshold is None else rank_threshold
        dec = mercer_decompose(K, p, thr)
    if ptilde.M != dec.Phi.shape[0]:
        raise ValueError("test measure must cover the same dataset")
    _check_noise(noise)
    abar = project_target(dec, Y)
    Phi_in, R = _rows(dec, abar, Y)
    w = ptilde.masses
    O_diag_in = w @ Phi_in**2
    irr_c = w @ R**2
    preds = []
    for P in P_grid:
        core = _per_P(dec, abar, P, lam, O_diag_in)
        if core.state.diverged:
            preds.append(_diverged_prediction(core.state))
            continue
        mean = Phi_in @ core.W[:dec.rank] + R
        preds.append(_prediction(core, noise, w @ mean**2, irr_c))
    return preds


def predict_Eg_dataset(K, Y, p, ptilde, P, lam, noise, rank_threshold=None,
                       dec=None):
    """End-to-end prediction at one P: predict_Eg_curve on a one-point grid."""
    return predict_Eg_curve(K, Y, p, ptilde, [P], lam, noise, rank_threshold,
                            dec)[0]


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

    A training measure without full support, or with masses so small that
    the gradient overflows, raises SupportError.  A diverged prediction
    (1 - gamma below DIVERGENCE_TOL) raises DivergenceError.
    """
    if not isinstance(p, DiscreteMeasure):
        p = DiscreteMeasure(p)
    if not isinstance(ptilde, DiscreteMeasure):
        ptilde = DiscreteMeasure(ptilde)
    if p.support().size != p.M:
        raise SupportError("the training-mass gradient needs full support")
    if ptilde.M != p.M:
        raise ValueError("test measure must cover the same dataset")
    _check_noise(noise)
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

    core = _per_P(dec, abar, P, lam, np.diag(O)[:rank])
    state = core.state
    one_minus = 1.0 - state.gamma
    if state.diverged:
        raise DivergenceError(
            f"1 - gamma = {one_minus:.3e} < {DIVERGENCE_TOL}: predicted "
            "error diverges, so it has no gradient")
    gamma_p = state.gamma_prime
    eta = dec.eigenvalues  # d = 0 masks the collapsed ones wherever it enters
    d, q, W = core.d, core.q, core.W
    e = eta * d
    rho = gamma_p / one_minus
    OW = O @ W
    N = float(np.sum(float(noise) + core.wsq))
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
        eta[:rank, None] - eta[None, rank:])
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
    grad = a_bar / (2.0 * a) - Tbar * ptilde.masses / p.masses**2
    if not (math.isfinite(Eg) and np.all(np.isfinite(grad))):
        raise SupportError(
            f"training masses down to {p.masses.min():.1e} are too small "
            "for a finite training-mass gradient")
    return Eg, grad


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
