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
of rows built from the in-RKHS eigenfunction values Phi and the residual
R = Y - Phi abar, the target's part outside the RKHS, on every point: on
the training support it is the collapsed modes' part of the target, and
off it the label minus the extension of its projection.  The collapsed
modes' power is sum_out abar^2 = p . R^2.  `predict_Eg_curve`, the one
dataset prediction route, `pointwise_error_density` and the error of
`predict_Eg_train_grad` use these rows and build no overlap matrix; the
analytic models in `closedform` go through a spectrum core that takes the
test covariance of their modes instead.

Everything is per output column and summed over columns; the noise level is
a scalar shared by all outputs.  The result at each P is one flat
`TheoryPrediction`, whose fields are the learning-curve CSV columns
(CURVE_COLUMNS), so `dataclasses.astuple(pred)` is the row; past the
interpolation threshold its error fields are inf.
"""

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .measures import DiscreteMeasure
from .spectral import (_BLOCK, DEFAULT_RANK_THRESHOLD, _decompose_gram,
                       _overlap_matrix, mercer_decompose, project_target)

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


@dataclass(frozen=True)
class TheoryPrediction:
    """One learning-curve row: the order parameters at sample size P and
    the predicted error with its split, from predict_Eg_curve or a closed
    form.  The fields are CURVE_COLUMNS in order, so a CSV row is
    dataclasses.astuple(pred); a diverged prediction keeps inf in every
    error field."""

    P: float
    kappa: float
    gamma: float
    gamma_prime: float
    Eg: float = math.inf
    bias: float = math.inf
    variance: float = math.inf
    Eg_matched: float = math.inf
    delta: float = math.inf
    irreducible: float = math.inf
    diverged: bool = False


CURVE_COLUMNS = tuple(f.name for f in fields(TheoryPrediction))


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
    the number of positive modes the solution is exactly kappa = 0.

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
        return KappaSolution(kappa=0.0, residual=0.0)
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


def _as_columns(abar, n_modes):
    abar = np.asarray(abar, dtype=np.float64)
    if abar.ndim == 1:
        abar = abar[:, None]
    if abar.shape[0] != n_modes:
        raise ValueError(f"abar must have {n_modes} rows, got {abar.shape}")
    return abar


def _per_P(eta, P, lam, weights=None, O_diag=None):
    """Solve kappa at P and weight the modes: (pred, d, q).

    eta = 0 marks a mode out of the RKHS or off the training support, so
    q = 1 and d = 0 there even in the ridgeless limit kappa -> 0;
    elsewhere d = 1/(P eta + kappa) and q = kappa d.  pred holds kappa,
    gamma = sum w P eta^2/(P eta + kappa)^2, gamma', the same sum
    weighted by O_diag, the test-overlap diagonal (gamma' = gamma without
    it), the divergence flag and inf errors, so it is already the
    diverged prediction.  weights are mode multiplicities.
    """
    eta, w = _validated_spectrum(eta, weights)
    sol = solve_kappa(eta, P, lam, weights=w)
    P = float(P)
    pos = eta > 0
    denom = P * eta[pos] + sol.kappa
    d = np.zeros_like(eta)
    d[pos] = 1.0 / denom
    q = np.ones_like(eta)
    q[pos] = sol.kappa * d[pos]
    frac = np.zeros_like(eta)
    frac[pos] = P * eta[pos] ** 2 / denom ** 2
    gamma = float(np.dot(w, frac))
    # eta = 0 modes never weigh in gamma', even where O_diag is not finite
    gamma_prime = gamma if O_diag is None else \
        float(np.dot(w, np.where(pos, O_diag, 0.0) * frac))
    pred = TheoryPrediction(P=P, kappa=float(sol.kappa), gamma=gamma,
                            gamma_prime=gamma_prime,
                            diverged=bool(1.0 - gamma < DIVERGENCE_TOL))
    return pred, d, q


def _masked_eta(dec):
    """Eigenvalues with the collapsed modes set to exactly 0."""
    eta = dec.eigenvalues.copy()
    eta[dec.rank:] = 0.0
    return eta


def _rows(dec, Y):
    """The in-RKHS coefficients abar (rank, C) and the residual
    R = Y - Phi abar (M, C) on every point.

    Where the rank equals the support size the basis is complete on the
    support, so R is exactly 0 there.
    """
    Y = np.asarray(Y, dtype=np.float64)
    abar = project_target(dec, Y)
    R = (Y[:, None] if Y.ndim == 1 else Y) - dec.Phi @ abar
    if dec.rank == dec.support.size:
        R[dec.support] = 0.0
    return abar, R


def _prediction(pred, noise, wsq, bias_c, irr_c):
    """_per_P's prediction with the errors filled in, bias given.

    wsq is |W_c|^2 under the training measure, so noise + wsq is
    eps_eff^2 + |W_in|^2 per output.
    """
    one_minus = 1.0 - pred.gamma
    n_eff = float(noise) + wsq
    variance_c = pred.gamma_prime / one_minus * n_eff
    Eg = float(np.sum(variance_c + bias_c))
    # matched-measure baseline: O = identity
    Eg_matched = float(np.sum(pred.gamma / one_minus * n_eff + wsq))
    return replace(pred, Eg=Eg, bias=float(np.sum(bias_c)),
                   variance=float(np.sum(variance_c)), Eg_matched=Eg_matched,
                   delta=Eg - Eg_matched, irreducible=float(np.sum(irr_c)))


def _spectrum_prediction(eta, P, lam, noise, b, Ct, power=None, weights=None):
    """Prediction at one P from a spectrum and the test covariance of its
    modes, the one core under every closed form.

    Mode r has eigenvalue eta_r (0 out of the RKHS or off the training
    support), training power power_r, its mean square under the training
    measure (1 when omitted), and target coefficients b_r, one column per
    output.  Ct is the test covariance of the modes, full or as its
    diagonal; the test overlap of the normalized modes has diagonal
    Ct_rr/power_r, which weights gamma'.  weights are mode multiplicities.
    With W = q o b the bias is W^T Ct W and the irreducible error is the
    same form on the eta = 0 block.
    """
    b = _as_columns(b, eta.shape[0])
    Ct = np.asarray(Ct, dtype=np.float64)
    if Ct.ndim == 1:
        Ct = np.diag(Ct)
    O_diag = np.diag(Ct)
    if power is not None:
        O_diag = np.divide(O_diag, power, out=np.zeros_like(O_diag),
                           where=power > 0)
    pred, _, q = _per_P(eta, P, lam, weights, O_diag)
    if pred.diverged:
        return pred
    W = q[:, None] * b
    PW = W if power is None else power[:, None] * W
    out = eta == 0
    b_out = b[out]
    return _prediction(pred, noise, np.einsum("rc,rc->c", W, PW),
                       np.einsum("rc,rc->c", W, Ct @ W),
                       np.einsum("oc,oc->c", b_out,
                                 Ct[np.ix_(out, out)] @ b_out))


def _check_noise(noise):
    if float(noise) < 0:
        raise ValueError("noise variance must be nonnegative")


def pointwise_error_density(dec, Y, P, lam, noise):
    """Per-point error density c with Eg(ptilde) = sum_mu ptilde_mu c_mu.

    The predicted error is linear in the test measure; c_mu is the error of
    a Dirac test measure at point mu, and predict_Eg_curve contracts the
    same rows with ptilde.  All entries are >= 0.
    """
    _check_noise(noise)
    abar, R = _rows(dec, Y)
    pred, d, q = _per_P(_masked_eta(dec), P, lam)
    if pred.diverged:
        raise DivergenceError(
            "pointwise density undefined: predicted error diverges "
            f"(1 - gamma = {1.0 - pred.gamma:.3e})"
        )
    W = q[:dec.rank, None] * abar
    e = dec.eigenvalues[:dec.rank] * d[:dec.rank]
    gamma_mu = dec.Phi**2 @ (float(P) * e * e)  # per-point gamma'
    mean = dec.Phi @ W + R  # estimator shortfall at each point
    wsq = np.einsum("rc,rc->c", W, W) + dec.measure.masses @ R**2
    return gamma_mu / (1.0 - pred.gamma) * float(np.sum(float(noise) + wsq)) \
        + np.einsum("mc,mc->m", mean, mean)


def predict_Eg_curve(dec, Y, ptilde, P_grid, lam, noise):
    """End-to-end learning curve on a discrete dataset, one prediction per P.

    dec is the Mercer decomposition under the training measure.  The rows
    abar and R, the test-measure weights of Phi^2 (gamma' per mode) and of
    R^2 (the irreducible error) and the collapsed power p . R^2 depend
    only on the decomposition and the test measure, so they are built
    once.  Each P then costs one kappa solve and one (M, rank) product:
    the bias is ptilde . |Phi W + R|^2, the pointwise density's rows
    contracted with the test measure.  No overlap matrix is built, so test
    mass off the training support is covered whether or not collapsed
    modes exist.
    """
    return [pred for pred, _, _ in _curve(dec, Y, ptilde, P_grid, lam,
                                          noise)]


def _curve(dec, Y, ptilde, P_grid, lam, noise):
    """predict_Eg_curve's (prediction, d, q) per P, from one _per_P call."""
    if not isinstance(ptilde, DiscreteMeasure):
        ptilde = DiscreteMeasure(ptilde)
    if ptilde.M != dec.Phi.shape[0]:
        raise ValueError("test measure must cover the same dataset")
    _check_noise(noise)
    abar, R = _rows(dec, Y)
    w = ptilde.masses
    eta = _masked_eta(dec)
    O_diag = np.zeros_like(eta)
    O_diag[:dec.rank] = np.einsum("m,mr,mr->r", w, dec.Phi, dec.Phi)
    irr_c = w @ R**2
    out_c = dec.measure.masses @ R**2
    for P in P_grid:
        pred, d, q = _per_P(eta, P, lam, O_diag=O_diag)
        if pred.diverged:
            yield pred, d, q
            continue
        W = q[:dec.rank, None] * abar
        mean = dec.Phi @ W + R
        yield _prediction(pred, noise, np.einsum("rc,rc->c", W, W) + out_c,
                          w @ mean**2, irr_c), d, q


def predict_Eg_dataset(K, Y, p, ptilde, P, lam, noise,
                       rank_threshold=DEFAULT_RANK_THRESHOLD):
    """Prediction at one P from the Gram and the training measure:
    predict_Eg_curve on their decomposition (at rank_threshold) and a
    one-point grid."""
    return predict_Eg_curve(mercer_decompose(K, p, rank_threshold), Y,
                            ptilde, [P], lam, noise)[0]


def _adjoint_rows(X, H, abar, e, r, q, eta, rank, n_sym, n_diag):
    """Turn the test overlap O, held in X, into F o Qbar in place, a
    block of rows at a time, and return the diagonal of Qbar.

    Qbar, the adjoint of Q in the eigenbasis, is H abar^T + abar H^T
    - n_sym (e_i + e_j) O_ij, less n_diag e_i on the diagonal.  F holds
    the divided differences of q(eta): -P kappa d_i d_j between in-RKHS
    modes, (q_i - 1)/(eta_i - eta_j) = -P d_i eta_i/(eta_i - eta_j)
    between in-RKHS mode i and collapsed mode j (at its true eigenvalue,
    which a large rank threshold leaves above 0), 0 among collapsed; with
    r = P d it is -(r_i q_j + q_i r_j), halved between in-RKHS modes.
    Row block I of both needs only row block I of O.
    """
    s = X.shape[0]
    Qbar_diag = np.empty(s)
    b = max(1, _BLOCK // s)
    for lo in range(0, s, b):
        hi = min(lo + b, s)
        O = X[lo:hi]
        Q = H[lo:hi] @ abar.T
        Q += abar[lo:hi] @ H.T
        Q -= n_sym * (e[lo:hi, None] * O + O * e)
        diag = (np.arange(hi - lo), np.arange(lo, hi))
        Q[diag] -= n_diag * e[lo:hi]
        Qbar_diag[lo:hi] = Q[diag]
        F = -(np.outer(r[lo:hi], q) + np.outer(q[lo:hi], r))
        inr = min(hi, rank) - lo
        if inr > 0:
            F[:inr, :rank] *= 0.5
            F[:inr, rank:] *= eta[lo:lo + inr, None] / (
                eta[lo:lo + inr, None] - eta[rank:])
        if inr < hi - lo:
            out = max(inr, 0)
            F[out:, :rank] *= eta[:rank] / (
                eta[:rank] - eta[lo + out:hi, None])
        np.multiply(F, Q, out=O)
    return Qbar_diag


def predict_Eg_train_grad(K, Y, p, ptilde, P, lam, noise,
                          rank_threshold=DEFAULT_RANK_THRESHOLD):
    """Predicted error on a discrete dataset and its gradient in the training masses.

    Returns (Eg, dEg_dp): Eg is predict_Eg_curve's error on the same
    decomposition, and dEg_dp[mu] the partial derivative in p_mu, all
    masses varied independently.  One decomposition and O(M^3) matmuls, by
    reverse mode through the resolvent.  With a = sqrt(p), B = (a a^T) o K
    (eta zeroed on collapsed modes) and u_c = a o Y_c, in the eigenbasis V
    of B

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
    threshold.

    Of (s, s) arrays it holds V, one buffer that is in turn the test
    overlap O, F o Qbar and Bbar (F o Qbar a block of rows at a time),
    and at most one product temporary: about three Grams at its peak,
    Phi being freed after the forward pass.

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
    dec, V, K = _decompose_gram(K, p, rank_threshold)
    Y = np.asarray(Y, dtype=np.float64)
    Y = Y[:, None] if Y.ndim == 1 else Y
    P = float(P)
    rank = dec.rank
    # tiny masses overflow on the way; the check below turns a non-finite
    # result into SupportError
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        pred, d, q = next(_curve(dec, Y, ptilde, [P], lam, noise))
        one_minus = 1.0 - pred.gamma
        if pred.diverged:
            raise DivergenceError(
                f"1 - gamma = {one_minus:.3e} < {DIVERGENCE_TOL}: predicted "
                "error diverges, so it has no gradient")
        eta = dec.eigenvalues  # d = 0 masks the collapsed ones
        del dec  # Phi; the adjoint works in the eigenbasis
        a = np.sqrt(p.masses)
        abar = V.T @ (a[:, None] * Y)
        # X is the one (s, s) buffer: O, then F o Qbar, then Bbar
        X = _overlap_matrix(V, ptilde.masses / p.masses)
        gamma_p = pred.gamma_prime
        W = q[:, None] * abar
        e = eta * d
        rho = gamma_p / one_minus
        N = float(np.sum(float(noise) + np.einsum("rc,rc->c", W, W)))
        # adjoint of Q (eigenbasis); gamma and gamma' depend on Q via
        # S = I - Q
        H = X @ W + rho * W
        r = P * d
        Qbar_diag = _adjoint_rows(X, H, abar, e, r, q, eta, rank,
                                  N / one_minus,
                                  2.0 * N * gamma_p / one_minus**2)
        kappa_bar = float(np.dot(Qbar_diag, P * eta * d * d))  # dq/dkappa
        inr = np.arange(rank)
        X[inr, inr] += kappa_bar / one_minus * q[:rank] ** 2
        VX = V @ X
        np.matmul(VX, V.T, out=X)
        del VX

        # chain B = (a a^T) o K, u = a o Y and T = diag(ptilde/p) back to p
        Tbar = np.sum((V @ W) ** 2, axis=1) \
            + (N * P / one_minus) * np.einsum("ij,ij,j->i", V, V, e * e)
        Ubar = V @ (2.0 * q[:, None] * H)
        X *= K
        a_bar = 2.0 * (X @ a) + np.sum(Ubar * Y, axis=1)
        grad = a_bar / (2.0 * a) - Tbar * ptilde.masses / p.masses**2
    if not (math.isfinite(pred.Eg) and np.all(np.isfinite(grad))):
        raise SupportError(
            f"training masses down to {p.masses.min():.1e} are too small "
            "for a finite training-mass gradient")
    return pred.Eg, grad

