"""Analytic linear and dot-product kernel models: reductions to the
general engine, limits, and the sphere spectrum quadrature."""

import itertools
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from kernelshift.closedform import (_gegenbauer_sum,
                                    dot_product_kernel_spectrum,
                                    gaussian_linear_Eg, general_linear_Eg,
                                    hyperspherical_degeneracy,
                                    mode_spectrum_Eg, ntk_sphere_Eg,
                                    optimal_ridge)
from kernelshift.kernels import KernelSpec, gram, ntk_relu_eval
from kernelshift.theory import DIVERGENCE_TOL, KAPPA_RTOL, solve_kappa


def kappa_prime_flat(alpha, lam_tilde):
    """Dimensionless kappa for a flat spectrum of identical eigenvalues.

    alpha is samples per nonzero mode, lam_tilde the ridge in units of a
    single eigenvalue times the number of modes. Solves
    kappa' = lam_tilde + kappa' / (alpha + kappa') in closed form. It is
    the solver-free oracle for solve_kappa here and in acceptance 04.
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


def _flat_oracle(P, M, M_r, M_s, beta, sigma2, sigma2_tilde, lam, noise):
    """The rank-limited linear model in closed form, on two flat blocks.

    Learning is paced by N_r = min(M, M_r) identical eigenvalues
    sigma2/M, so kappa comes from kappa_prime_flat and every sum is a
    block count; general_linear_Eg must agree with it through the
    one prediction core.
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
    irreducible = sigma2_tilde * np.sum(b2[N_rs:M_s])
    out = dict(kappa=kappa, gamma=gamma, gamma_prime=gamma_prime,
               irreducible=irreducible,
               diverged=(1.0 - gamma) <= DIVERGENCE_TOL)
    if out["diverged"]:
        return out
    qsq = kp**2 / (alpha + kp) ** 2
    bracket = (sigma2_tilde / sigma2 * noise
               + sigma2_tilde * qsq * learned
               + sigma2_tilde * noise_like)
    out["Eg"] = (N_rs / N_r) * gamma / (1.0 - gamma) * bracket \
        + sigma2_tilde * qsq * tested_learned + irreducible
    bracket0 = noise + sigma2 * qsq * learned + sigma2 * noise_like
    out["Eg_matched"] = gamma / (1.0 - gamma) * bracket0 \
        + sigma2 * qsq * learned + sigma2 * noise_like
    return out


def test_kappa_prime_flat_solves_fixed_point():
    for alpha in (0.1, 0.5, 1.0, 2.0, 10.0):
        for lt in (0.0, 0.1, 1.0):
            kp = kappa_prime_flat(alpha, lt)
            assert kp == pytest.approx(lt + kp / (alpha + kp), abs=1e-12)
    with pytest.raises(ValueError):
        kappa_prime_flat(-1.0, 0.0)


def test_kappa_prime_matches_general_solver_on_flat_spectrum():
    # M_r identical eigenvalues sigma2/D each: the dimensionless kappa
    # must match the general fixed-point solver across the alpha sweep
    D, M_r, sigma2 = 120, 40, 1.3
    eta = np.full(M_r, sigma2 / D)
    unit = sigma2 * M_r / D
    for alpha in np.geomspace(0.1, 10.0, 13):
        P = alpha * M_r
        for lam_tilde in (0.0, 0.1, 1.0):
            lam = lam_tilde * unit
            kappa = solve_kappa(eta, P, lam).kappa
            assert kappa / unit == pytest.approx(
                kappa_prime_flat(alpha, lam_tilde), abs=1e-10)


def test_kappa_prime_flat_within_solver_tolerance():
    # relative agreement, so the ridgeless zero above the threshold must
    # come out exactly 0, not as the rounding left by b + sqrt(disc)
    for N, eta in ((40, 1.3 / 120), (7, 2.0), (300, 1e-3)):
        unit = eta * N
        for alpha in np.append(np.geomspace(0.05, 50.0, 41), 1.0):
            P = alpha * N
            for lam_tilde in (0.0, 1e-6, 1e-3, 0.1, 1.0, 10.0):
                want = solve_kappa(np.full(N, eta), P,
                                   lam_tilde * unit).kappa / unit
                got = kappa_prime_flat(P / N, lam_tilde)
                assert abs(got - want) <= KAPPA_RTOL * max(abs(got),
                                                           abs(want))


def test_ridgeless_above_threshold_is_exactly_zero():
    (r,) = general_linear_Eg([11], 10, 10, 10, np.ones(10), 1, 1, lam=0)
    assert r.kappa == 0.0
    assert r.Eg == 0.0
    assert not r.diverged


def test_general_linear_matches_flat_oracle():
    # the prediction core against the two-block closed form, across ranks,
    # ridges from ridgeless up, and P below, at and above every rank
    beta = np.random.default_rng(5).standard_normal(30)
    fields = ("Eg", "Eg_matched", "kappa", "gamma", "gamma_prime",
              "irreducible")
    for M, M_r, M_s, lam, P, (s2, s2t) in itertools.product(
            (5, 10, 20), (5, 10, 30), (3, 10, 30), (0.0, 1e-6, 1e-2, 0.5),
            (1, 3, 5, 9, 10, 11, 20, 31, 100, 1e5), ((1.0, 1.0), (1.3, 0.6))):
        (r,) = general_linear_Eg([P], M, M_r, M_s, beta, s2, s2t, lam, 0.05)
        want = _flat_oracle(P, M, M_r, M_s, beta, s2, s2t, lam, 0.05)
        case = (M, M_r, M_s, lam, P, s2, s2t)
        assert r.diverged == want["diverged"], case
        if want["diverged"]:
            continue
        got = dict(Eg=r.Eg, Eg_matched=r.Eg_matched, kappa=r.kappa,
                   gamma=r.gamma, gamma_prime=r.gamma_prime,
                   irreducible=r.irreducible)
        for f in fields:
            assert abs(got[f] - want[f]) <= 1e-10 * max(abs(got[f]),
                                                         abs(want[f])), \
                (case, f, got[f], want[f])


def test_gaussian_reduces_to_diagonal():
    rng = np.random.default_rng(0)
    D, M_r = 12, 7
    beta = rng.standard_normal(D)
    sigma2, sigma2_tilde = 1.4, 0.6
    C = np.zeros((D, D))
    C[:M_r, :M_r] = sigma2 * np.eye(M_r)
    Ct = sigma2_tilde * np.eye(D)
    P_grid = (3, 7, 15, 40)
    for a, b in zip(gaussian_linear_Eg(beta, C, Ct, P_grid, lam=0.05,
                                       noise=0.1),
                    general_linear_Eg(P_grid, D, M_r, D, beta, sigma2,
                                      sigma2_tilde, lam=0.05, noise=0.1)):
        assert a.Eg == pytest.approx(b.Eg, abs=1e-12)
        assert a.Eg_matched == pytest.approx(b.Eg_matched, abs=1e-12)
        assert a.kappa == pytest.approx(b.kappa, abs=1e-12)
        assert a.irreducible == pytest.approx(b.irreducible, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_gaussian_ridgeless_singular_matches_diagonal():
    # a training covariance of rank M_r with no ridge: C's null directions
    # are out of the RKHS (q = 1 there), so P above the rank gives the
    # lam -> 0 limit and P at the rank diverges, never a NaN
    D = 9
    beta = np.random.default_rng(6).standard_normal(D)
    for M_r in (2, 5):
        C = np.diag((np.arange(D) < M_r).astype(float))
        P_grid = (M_r - 1, M_r, M_r + 1, 4 * M_r)
        for P, a, b in zip(P_grid,
                           gaussian_linear_Eg(beta, C, np.eye(D), P_grid,
                                              lam=0.0, noise=0.05),
                           general_linear_Eg(P_grid, D, M_r, D, beta, 1.0,
                                             1.0, lam=0.0, noise=0.05)):
            assert a.diverged == b.diverged == (P == M_r)
            for f in ("Eg", "Eg_matched", "bias", "variance",
                      "irreducible", "kappa", "gamma", "gamma_prime"):
                assert getattr(a, f) == pytest.approx(getattr(b, f),
                                                      rel=1e-12, abs=1e-12)
    (r,) = gaussian_linear_Eg(np.ones(3), np.diag([1.0, 0.5, 0.0]),
                              np.eye(3), [5], lam=0.0, noise=0.05)
    assert r.Eg == pytest.approx(1.05, rel=1e-12)
    assert r.irreducible == pytest.approx(1.0, rel=1e-12)


def test_ridgeless_gaussian_linear_is_the_wishart_error_with_p_minus_d():
    # at lam = 0 and P > D + 1 least squares on x ~ N(0, C) has the exact
    # error noise tr(Ct C^-1)/(P - D - 1) under any test covariance Ct
    # (the inverse-Wishart mean); the theory puts P - D in place of
    # P - D - 1, so its ratio to the exact value is (P - D - 1)/(P - D)
    D, noise = 20, 0.1
    rng = np.random.default_rng(19)
    C = np.diag(np.linspace(2.0, 0.1, D))
    Ct = np.diag(rng.uniform(0.2, 2.0, D))
    beta = rng.standard_normal(D)
    P_grid = [25, 30, 40, 80, 320]
    trace = noise * np.trace(Ct @ np.linalg.inv(C))
    preds = gaussian_linear_Eg(beta, C, Ct, P_grid, lam=0.0, noise=noise)
    assert len(preds) == len(P_grid)
    for P, pred in zip(P_grid, preds):
        ratio = pred.Eg / (trace / (P - D - 1))
        assert abs(ratio - (P - D - 1) / (P - D)) <= 1e-12


def test_gaussian_singular_rotation_invariant():
    # a rotation of both covariances and beta leaves the error unchanged;
    # eigh leaves the rotated C's null eigenvalues at about 1e-16, which
    # must count as 0, not as modes with huge test-to-train ratios
    rng = np.random.default_rng(7)
    D, r = 6, 3
    C = np.diag([2.0, 1.0, 0.5, 0.0, 0.0, 0.0])
    Ct = np.diag(rng.uniform(0.5, 1.5, D))
    beta = rng.standard_normal(D)
    Q = np.linalg.qr(rng.standard_normal((D, D)))[0]
    P_grid = (r - 1, r, r + 1, 3 * r)
    for lam in (0.0, 1e-3):
        for a, b in zip(gaussian_linear_Eg(beta, C, Ct, P_grid, lam,
                                           noise=0.05),
                        gaussian_linear_Eg(Q @ beta, Q @ C @ Q.T,
                                           Q @ Ct @ Q.T, P_grid, lam,
                                           noise=0.05)):
            assert a.diverged == b.diverged
            assert a.Eg == pytest.approx(b.Eg, rel=1e-9)
            assert a.irreducible == pytest.approx(b.irreducible, rel=1e-9)


def test_gaussian_matched_equals_baseline():
    rng = np.random.default_rng(2)
    D = 8
    beta = rng.standard_normal(D)
    A = rng.standard_normal((D, D))
    C = A @ A.T / D
    (r,) = gaussian_linear_Eg(beta, C, C, P_grid=[10], lam=0.1, noise=0.05)
    assert r.Eg == pytest.approx(r.Eg_matched, abs=1e-12)


def test_gaussian_noncommuting_covariances_run():
    rng = np.random.default_rng(3)
    D = 6
    beta = rng.standard_normal(D)
    A = rng.standard_normal((D, D))
    B = rng.standard_normal((D, D))
    (r,) = gaussian_linear_Eg(beta, A @ A.T, B @ B.T, P_grid=[12], lam=0.3,
                              noise=0.0)
    assert np.isfinite(r.Eg) and r.Eg > 0


def test_double_descent_peak_under_expressive_kernel():
    # the kernel spans M = 20 of the trained M_r = 30 directions, so the
    # unexpressed target power acts as label noise and the noiseless
    # ridgeless curve still peaks at the interpolation threshold P = M
    beta = np.ones(30) / np.sqrt(30)
    lam, noise = 1e-4, 0.0
    P_grid = (10, 20, 40)
    Egs = {P: r.Eg for P, r in zip(P_grid, general_linear_Eg(
        P_grid, M=20, M_r=30, M_s=30, beta=beta, sigma2=1.0,
        sigma2_tilde=1.0, lam=lam, noise=noise))}
    assert Egs[20] > Egs[10]
    assert Egs[20] > Egs[40]


def test_error_vanishes_when_test_support_is_learnable():
    # M_s <= min(M, M_r): everything the test measure weights is learned
    beta = np.ones(30) / np.sqrt(30)
    (r,) = general_linear_Eg([100000], M=20, M_r=30, M_s=15, beta=beta,
                             sigma2=1.0, sigma2_tilde=1.0, lam=1e-2,
                             noise=0.0)
    assert r.irreducible == 0.0
    assert r.Eg < 1e-3
    # while M_s > M leaves a floor
    (r2,) = general_linear_Eg([100000], M=20, M_r=30, M_s=30, beta=beta,
                              sigma2=1.0, sigma2_tilde=1.0, lam=1e-2,
                              noise=0.0)
    assert r2.irreducible == pytest.approx(np.sum(beta[20:30] ** 2), rel=1e-12)
    assert r2.Eg > r2.irreducible * 0.99


def test_divergence_at_interpolation_threshold():
    beta = np.ones(10)
    (r,) = general_linear_Eg([10], M=10, M_r=10, M_s=10, beta=beta,
                             sigma2=1.0, sigma2_tilde=1.0, lam=0.0, noise=0.1)
    assert r.diverged
    assert np.isinf(r.Eg)


def test_optimal_ridge_value_and_stationarity():
    assert optimal_ridge(40, 120, 0.1) == pytest.approx(1.0 / 30.0)
    D, M_r, noise = 120, 40, 0.1
    rng = np.random.default_rng(4)
    beta = rng.standard_normal(D)
    beta[M_r:] = 0.0
    beta /= np.linalg.norm(beta)  # unit in-support target power
    star = optimal_ridge(M_r, D, noise, target_power=1.0)
    P_grid = (10, 40, 90)
    at = [r.Eg for r in general_linear_Eg(P_grid, D, M_r, D, beta, 1.0, 1.0,
                                          star, noise)]
    for delta in (-0.3 * star, 0.3 * star):
        other = [r.Eg for r in general_linear_Eg(P_grid, D, M_r, D, beta,
                                                 1.0, 1.0, star + delta,
                                                 noise)]
        assert all(a <= o + 1e-12 for a, o in zip(at, other))


def test_optimal_ridge_curve_is_monotone():
    D, M_r, noise = 120, 40, 0.1
    beta = np.zeros(D)
    beta[:M_r] = 1.0 / np.sqrt(M_r)
    star = optimal_ridge(M_r, D, noise)
    curve = [r.Eg for r in general_linear_Eg(list(range(2, 200, 4)), D, M_r,
                                             D, beta, 1.0, 1.0, star, noise)]
    assert np.all(np.diff(curve) < 0)


def test_hyperspherical_degeneracies():
    assert [hyperspherical_degeneracy(3, k) for k in range(5)] == \
        [1, 3, 5, 7, 9]
    assert [hyperspherical_degeneracy(4, k) for k in range(4)] == \
        [1, 4, 9, 16]
    for D in (3, 5, 10):
        assert hyperspherical_degeneracy(D, 0) == 1
        assert hyperspherical_degeneracy(D, 1) == D
    with pytest.raises(ValueError):
        hyperspherical_degeneracy(1, 2)
    with pytest.raises(ValueError):
        hyperspherical_degeneracy(5, -1)


def test_hyperspherical_degeneracy_degree_two():
    # N(D, 2) = (D + 2)(D - 1) / 2: traceless symmetric D x D matrices
    for D in (2, 3, 4, 5, 10, 17, 100, 784):
        assert hyperspherical_degeneracy(D, 2) == (D + 2) * (D - 1) // 2


def test_spectrum_of_plain_dot_product():
    # k(t) = t has all its mass in degree one: eta_1 = 1/D
    D = 6
    eta, degen = dot_product_kernel_spectrum(lambda t: t, D, k_max=5)
    assert eta[1] == pytest.approx(1.0 / D, abs=1e-10)
    others = np.delete(eta, 1)
    assert np.max(np.abs(others)) < 1e-12
    assert degen[1] == D


def test_spectrum_of_squared_dot_product():
    # k(t) = t^2: the degree-0 eigenvalue is the sphere average of t^2
    D = 7
    eta, _ = dot_product_kernel_spectrum(lambda t: t * t, D, k_max=4)
    assert eta[0] == pytest.approx(1.0 / D, abs=1e-10)
    assert eta[1] < 1e-12
    assert eta[3] < 1e-12


def test_ntk_spectrum_trace_identity():
    D, depth = 10, 2
    eta, degen = dot_product_kernel_spectrum(KernelSpec("ntk_relu",
                                                        depth=depth),
                                             D, k_max=40)
    trace = float(ntk_relu_eval(depth, 1.0, 1.0, 1.0))
    partial = float(np.sum(eta * degen))
    assert partial < trace + 1e-9
    assert trace - partial < 5e-2  # the k_max = 40 tail is small
    assert np.all(eta >= 0.0)
    # with a shorter cut the captured mass can only shrink
    eta8, degen8 = dot_product_kernel_spectrum(KernelSpec("ntk_relu",
                                                          depth=depth),
                                               D, k_max=8)
    assert float(np.sum(eta8 * degen8)) <= partial + 1e-9


def _unit_rows(rng, n, D):
    g = rng.standard_normal((n, D))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def test_gegenbauer_sum_gives_sphere_moments_of_polynomial_kernels():
    # over the unit sphere E_u[k(u.a) k(u.b)] is (a.b)/D for k(t) = t and
    # the fourth moment (1 + 2 (a.b)^2)/(D (D + 2)) for k(t) = t^2
    D = 6
    T = np.clip(_unit_rows(np.random.default_rng(4), 9, D) @
                _unit_rows(np.random.default_rng(5), 9, D).T, -1.0, 1.0)
    eta, degen = dot_product_kernel_spectrum(lambda t: t, D, k_max=8)
    got = _gegenbauer_sum(eta**2 * degen, D, T)
    for r in (1.0, 0.5):
        # x.a is homogeneous of degree 1, so the radius-r sphere scales
        # the moment by r^2
        assert np.max(np.abs(r**2 * got - r**2 * T / D)) < 1e-12
    eta, degen = dot_product_kernel_spectrum(lambda t: t * t, D, k_max=8)
    fourth = (1 + 2 * T**2) / (D * (D + 2))
    assert np.max(np.abs(_gegenbauer_sum(eta**2 * degen, D, T)
                         - fourth)) < 1e-12


def test_ntk_exact_sphere_error_matches_sampled_test_error():
    # the exact test error of one fit on the radius-r sphere, as
    # reproduce_figSI4 integrates it, against a 200k-point sample
    D, depth, lam, r = 10, 2, 0.01, 0.5
    spec = KernelSpec("ntk_relu", depth=depth)
    rng = np.random.default_rng(21)
    beta = rng.standard_normal(D)
    beta *= np.sqrt(D) / np.linalg.norm(beta)
    X = _unit_rows(rng, 40, D)
    y = X @ beta + np.sqrt(0.05) * rng.standard_normal(40)
    G = gram(spec, X)
    G.flat[::G.shape[0] + 1] += lam
    c = linalg.cho_solve(linalg.cho_factor(G, lower=True), y)
    eta, degen = dot_product_kernel_spectrum(spec, D, k_max=30)
    A = _gegenbauer_sum(eta**2 * degen, D, X @ X.T)
    exact = r**2 * (c @ A @ c - 2.0 * eta[1] * (c @ (X @ beta))
                    + beta @ beta / D)
    errs = np.concatenate([
        (gram(spec, Z, X) @ c - Z @ beta) ** 2
        for Z in np.split(r * _unit_rows(rng, 200_000, D), 8)])
    se = errs.std(ddof=1) / np.sqrt(errs.size)
    assert abs(errs.mean() - exact) < 4 * se

def test_mode_spectrum_matched_baseline_and_scaling():
    eta = np.array([0.5, 0.1, 0.01])
    degen = np.array([1.0, 10.0, 54.0])
    abar = np.array([0.2, 1.0, 0.3])
    (base,) = mode_spectrum_Eg(eta, degen, abar, P_grid=[30], lam=0.01,
                               noise=0.05)
    assert base.Eg == pytest.approx(base.Eg_matched, abs=1e-12)
    # a uniform overlap rescaling multiplies the shifted error exactly
    for s in (0.25, 4.0):
        (r,) = mode_spectrum_Eg(eta, degen, abar, P_grid=[30], lam=0.01,
                                noise=0.05, overlap_scale=s)
        assert r.Eg == pytest.approx(s * base.Eg, rel=1e-12)
    # tail target power sets the irreducible floor
    (r,) = mode_spectrum_Eg(eta, degen, abar, P_grid=[30], lam=0.01,
                            noise=0.05, overlap_scale=0.5, tail_abar_sq=0.3)
    assert r.irreducible == pytest.approx(0.15, abs=1e-14)


def test_mode_spectrum_agrees_with_general_kappa():
    eta = np.array([0.4, 0.05])
    degen = np.array([3.0, 12.0])
    abar = np.array([1.0, 0.5])
    (r,) = mode_spectrum_Eg(eta, degen, abar, P_grid=[9], lam=0.02)
    kappa = solve_kappa(np.repeat(eta, degen.astype(int)), 9, 0.02).kappa
    assert r.kappa == pytest.approx(kappa, abs=1e-12)


def test_ntk_sphere_radius_scaling_and_limits():
    D, depth, k_max = 10, 2, 20
    eta, degen = dot_product_kernel_spectrum(KernelSpec("ntk_relu",
                                                        depth=depth),
                                             D, k_max=k_max)
    abar_sq = [0.0, 1.0]
    for k_stage in (1, None):
        (base,) = ntk_sphere_Eg([40], depth, eta, degen, abar_sq, lam=0.01,
                                noise=0.05, k_stage=k_stage)
        (half,) = ntk_sphere_Eg([40], depth, eta, degen, abar_sq, lam=0.01,
                                noise=0.05, radius_test=0.5, k_stage=k_stage)
        assert half.Eg == pytest.approx(0.25 * base.Eg, rel=1e-12)
        assert half.Eg < base.Eg
        # far past the stage the degree is fully learned and only the
        # higher spectral mass (not carried by this target) limits the
        # error
        (big,) = ntk_sphere_Eg([10**7], depth, eta, degen, abar_sq, lam=1e-6,
                               noise=0.0, k_stage=k_stage)
        assert big.Eg < 1e-4
    with pytest.raises(ValueError):
        ntk_sphere_Eg(10, depth, eta, degen, abar_sq, lam=0.01,
                      k_stage=k_max + 1)
    with pytest.raises(ValueError):
        ntk_sphere_Eg(10, depth, eta, degen, np.ones(k_max + 2), lam=0.01)


def test_ntk_stage_does_not_depend_on_k_max():
    # every eigenvalue mass above the stage degree is in the ridge, from
    # the kernel trace, whatever degree the spectrum was resolved to
    spec = KernelSpec("ntk_relu", depth=2)
    curves = []
    for k_max in (1, 3, 30):
        eta, degen = dot_product_kernel_spectrum(spec, 10, k_max)
        curves.append(ntk_sphere_Eg([5, 40, 320], 2, eta, degen, [0.0, 1.0],
                                    0.01, 0.05, radius_test=0.5, k_stage=1))
    for curve in curves[1:]:
        for a, b in zip(curves[0], curve):
            assert (a.Eg, a.kappa) == (b.Eg, b.kappa)
    assert curves[0][1].Eg == 0.25 * 0.04476272802717626


@pytest.mark.filterwarnings("error")
def test_mode_spectrum_zero_eigenvalue_block_ridgeless():
    # a lone degree of eigenvalue 0 with no ridge and no tail: kappa is 0,
    # nothing is learned, and the error is the degree's target power
    eta, degen = dot_product_kernel_spectrum(KernelSpec("ntk_relu", depth=2),
                                             5, 3)
    assert eta[3] == 0.0
    for r in mode_spectrum_Eg(eta[3:], degen[3:], [0.2], [5, 20, 80],
                              lam=0.0):
        assert r.kappa == 0.0
        assert not r.diverged
        assert r.Eg == pytest.approx(0.2, rel=1e-12)


def _spd(rng, D, rank):
    A = rng.standard_normal((D, rank))
    return A @ A.T


@settings(max_examples=60, deadline=None)
@given(
    model=st.sampled_from(("gaussian_linear", "general_linear",
                           "mode_spectrum")),
    seed=st.integers(0, 10**6),
    lam=st.sampled_from([0.0, 1e-3]),
    noise=st.sampled_from([0.0, 0.05]),
)
def test_closed_form_edge_regimes_finite_or_flagged(model, seed, lam, noise):
    # ridgeless fits, singular and non-commuting covariances, degrees of
    # eigenvalue 0, and P below, at and above every rank: each field is
    # finite, or inf with state.diverged, and never NaN
    rng = np.random.default_rng(seed)
    if model == "gaussian_linear":
        D = int(rng.integers(2, 7))
        r, rt = (int(k) for k in rng.integers(0, D + 1, size=2))
        beta = rng.standard_normal(D)
        C, Ct = _spd(rng, D, r), _spd(rng, D, rt)
        ranks = (r, rt, D)

        def predict(P_grid):
            return gaussian_linear_Eg(beta, C, Ct, P_grid, lam, noise)
    elif model == "general_linear":
        M, M_r, M_s = (int(k) for k in rng.integers(1, 9, size=3))
        beta = rng.standard_normal(int(rng.integers(1, 12)))
        s2, s2t = rng.uniform(0.2, 2.0, size=2)
        ranks = (M, M_r, M_s)

        def predict(P_grid):
            return general_linear_Eg(P_grid, M, M_r, M_s, beta, s2, s2t, lam,
                                     noise)
    else:
        # on the 5-sphere the depth-two relu NTK has eigenvalue 0 at
        # degrees 3, 5 and 7
        eta, degen = dot_product_kernel_spectrum(
            KernelSpec("ntk_relu", depth=2), 5, k_max=7)
        assert eta[3] == 0.0
        abar_sq = rng.uniform(0.0, 1.0, size=8) * (rng.random(8) < 0.6)
        scale = float(rng.choice([0.25, 1.0, 3.0]))
        tail_eta = float(rng.choice([0.0, 1e-3]))
        tail_abar_sq = float(rng.choice([0.0, 0.2]))
        pos = eta > 0
        ranks = (int(degen[pos].sum()), int(degen[pos][:2].sum()))

        def predict(P_grid):
            return mode_spectrum_Eg(eta, degen, abar_sq, P_grid, lam, noise,
                                    overlap_scale=scale, tail_eta=tail_eta,
                                    tail_abar_sq=tail_abar_sq)
    grid = sorted({max(P, 1) for k in ranks for P in (k - 1, k, k + 1)}
                  | {3 * max(ranks) + 5})
    for P, pred in zip(grid, predict(grid)):
        values = np.array([pred.Eg, pred.Eg_matched, pred.bias,
                           pred.variance, pred.delta, pred.irreducible,
                           pred.kappa, pred.gamma, pred.gamma_prime])
        assert not np.any(np.isnan(values)), (P, values)
        if pred.diverged:
            assert np.isinf(pred.Eg)
        else:
            assert np.all(np.isfinite(values)), (P, values)


def _grid_case(model):
    """A ridgeless closed form as a function of its P grid, and the P at
    which it diverges."""
    if model == "gaussian_linear":
        rng = np.random.default_rng(8)
        beta = rng.standard_normal(5)
        C, Ct = _spd(rng, 5, 3), _spd(rng, 5, 5)
        return (lambda P_grid: gaussian_linear_Eg(beta, C, Ct, P_grid, 0.0,
                                                  0.05)), 3
    if model == "general_linear":
        beta = np.random.default_rng(9).standard_normal(8)
        return (lambda P_grid: general_linear_Eg(P_grid, 6, 8, 5, beta, 1.3,
                                                 0.6, 0.0, 0.05)), 6
    if model == "mode_spectrum":
        eta, degen = [0.5, 0.1, 0.0, 0.02], [1.0, 3.0, 5.0, 4.0]
        return (lambda P_grid: mode_spectrum_Eg(
            eta, degen, [0.2, 1.0, 0.3, 0.1], P_grid, 0.0, 0.05,
            overlap_scale=0.7, tail_abar_sq=0.1)), 8
    # depth 1 has kernel trace 1, all of it in these degrees, so no tail
    # enters the ridge
    return (lambda P_grid: ntk_sphere_Eg(P_grid, 1, [0.5, 0.25], [1.0, 2.0],
                                         [0.2, 1.0], 0.0, 0.05,
                                         radius_test=0.5)), 3


@pytest.mark.parametrize("model", ["gaussian_linear", "general_linear",
                                   "mode_spectrum", "ntk_sphere"])
def test_grid_rows_equal_one_point_rows(model):
    # a descending grid with a repeated P and a diverged one: no row may
    # depend on the rest of its grid
    predict, rank = _grid_case(model)
    grid = [4 * rank, 2 * rank, 2 * rank, rank + 1, rank, rank - 1, 1]
    rows = [astuple(pred) for pred in predict(grid)]
    assert rows == [astuple(predict([P])[0]) for P in grid]
    assert rows == [astuple(pred) for pred in predict(grid[::-1])][::-1]
    assert [row[-1] for row in rows] == [P == rank for P in grid]


def test_closed_form_validation():
    with pytest.raises(ValueError):
        gaussian_linear_Eg(np.ones(3), np.eye(2), np.eye(3), 5, 0.1)
    for noise in (-1.0, np.nan):
        with pytest.raises(ValueError, match="noise"):
            general_linear_Eg(10, 6, 6, 6, np.ones(6), 1.0, 1.0, 0.1,
                              noise=noise)
    with pytest.raises(ValueError, match="noise"):
        gaussian_linear_Eg(np.ones(3), np.eye(3), np.eye(3), 5, 0.1,
                           noise=-1)
    eta, degen = np.array([1.0, 0.1]), np.array([1.0, 3.0])
    with pytest.raises(ValueError, match="noise"):
        mode_spectrum_Eg(eta, degen, [1.0, 0.5], 10, 0.1, noise=-1)
    for abar_sq in ([1.0, -0.5], [1.0, np.nan]):
        with pytest.raises(ValueError, match="abar_sq"):
            mode_spectrum_Eg(eta, degen, abar_sq, 10, 0.1)
        with pytest.raises(ValueError, match="abar_sq"):
            ntk_sphere_Eg(10, 2, eta, degen, abar_sq, 0.1)
    with pytest.raises(ValueError, match="abar_sq"):
        mode_spectrum_Eg(eta, degen, [1.0, 0.5], 10, 0.1, tail_abar_sq=-1)
    with pytest.raises(ValueError):
        dot_product_kernel_spectrum(KernelSpec("ntk_relu", depth=2), 2, 5)
    with pytest.raises(ValueError):
        dot_product_kernel_spectrum(KernelSpec("rbf"), 5, 5)


# an invalid covariance pair for gaussian_linear_Eg, and the one it names
_BAD_COVARIANCES = {
    # Eg was -0.0112
    "negative test": ([[1.0, 0.0], [0.0, 0.5]], -np.eye(2),
                      "covariance_tilde is not positive semidefinite"),
    # eigh read one triangle, so this ran as the identity
    "asymmetric": ([[1.0, 5.0], [0.0, 1.0]], np.eye(2),
                   "covariance is not symmetric"),
    # the negative eigenvalue was zeroed as a collapsed mode
    "negative train": (np.diag([1.0, -0.5]), np.eye(2),
                       "covariance is not positive semidefinite"),
    # Eg was NaN
    "nan": (np.eye(2), [[1.0, np.nan], [np.nan, 1.0]],
            "covariance_tilde contains non-finite entries"),
}


@pytest.mark.parametrize("case", sorted(_BAD_COVARIANCES))
def test_gaussian_linear_refuses_an_invalid_covariance(case):
    C, Ct, message = _BAD_COVARIANCES[case]
    with pytest.raises(ValueError, match=f"^{message}"):
        gaussian_linear_Eg([1.0, 0.5], C, Ct, [4], 0.1)


def test_gaussian_linear_takes_a_covariance_symmetric_to_rounding():
    # an asymmetry within SYMMETRY_RTOL is the symmetrized matrix's
    C = np.array([[1.0, 0.3], [0.3, 0.5]])
    C_off = C + np.array([[0.0, 1e-12], [0.0, 0.0]])
    C_sym = (C_off + C_off.T) / 2
    assert [astuple(r) for r in gaussian_linear_Eg([1.0, 0.5], C_off, C_off,
                                                   [4], 0.1)] == \
        [astuple(r) for r in gaussian_linear_Eg([1.0, 0.5], C_sym, C_sym,
                                                [4], 0.1)]


def test_ridgeless_overparameterized_gaussian_linear_is_hastie_with_d_minus_p():
    # at lam = 0, C = Ct = I_D and P <= D - 2 the exact error of the
    # minimum-norm interpolator is |beta|^2 (1 - P/D) + eps^2 P/(D - P - 1)
    # (Hastie, Montanari, Rosset and Tibshirani, Ann. Statist. 2022); the
    # theory puts D - P in place of D - P - 1 in the noise term
    D, noise = 40, 0.3
    beta = np.random.default_rng(31).standard_normal(D)
    P_grid = [2, 5, 10, 20, 30, 38]
    preds = gaussian_linear_Eg(beta, np.eye(D), np.eye(D), P_grid, lam=0.0,
                               noise=noise)
    for P, pred in zip(P_grid, preds):
        signal = beta @ beta * (1 - P / D)
        assert abs((pred.Eg - signal) / (noise * P / (D - P)) - 1.0) <= 1e-12


def test_sampled_cloud_pipeline_matches_diagonal_closed_form():
    # a 3000-atom i.i.d. discretization of the training Gaussian, pushed
    # through the generic spectral + prediction path, reproduces the
    # rank-limited closed form within 3% for P up to a tenth of the cloud
    # size. The bound is statistical in the cloud draw (shot noise of
    # the sampled spectrum and of the test average is 1-2% at this
    # size), so generic frozen instances are pinned here. The
    # decomposition builds the kernel on the training atoms and the test
    # atoms' rows against them, as the figSI3 cross-check does, never the
    # Gram of the union.
    from kernelshift.measures import DiscreteMeasure, uniform_measure
    from kernelshift.spectral import DEFAULT_RANK_THRESHOLD, cached_decompose
    from kernelshift.theory import predict_Eg_curve

    Q = 3000
    P_grid = (2, 10, 30, 100, 300)

    # shifted: rank-8 training Gaussian, full-rank wider test Gaussian
    rng = np.random.default_rng(1)
    D, M_r, s2t, lam, noise = 12, 8, 1.2, 0.1, 0.1
    beta = rng.standard_normal(D)
    beta /= np.linalg.norm(beta)
    Ztr = np.zeros((Q, D))
    Ztr[:, :M_r] = rng.standard_normal((Q, M_r))
    Zte = np.sqrt(s2t) * rng.standard_normal((Q, D))
    Z = np.vstack([Ztr, Zte])
    Y = (Z @ beta)[:, None]
    p = DiscreteMeasure(np.concatenate([np.full(Q, 1.0 / Q), np.zeros(Q)]))
    pt = DiscreteMeasure(np.concatenate([np.zeros(Q), np.full(Q, 1.0 / Q)]))
    dec = cached_decompose(KernelSpec("linear"), Z, p, DEFAULT_RANK_THRESHOLD,
                           None)
    for pipe, closed in zip(predict_Eg_curve(dec, Y, pt, P_grid, lam, noise),
                            general_linear_Eg(P_grid, D, M_r, D, beta, 1.0,
                                              s2t, lam, noise)):
        assert abs(pipe.Eg - closed.Eg) / closed.Eg < 0.03

    # matched: full-rank cloud reused as its own test measure
    rng = np.random.default_rng(1)
    D, lam, noise = 30, 0.01, 0.1
    beta = rng.standard_normal(D)
    beta /= np.linalg.norm(beta)
    Ztr = rng.standard_normal((Q, D))
    Y = (Ztr @ beta)[:, None]
    p = uniform_measure(Q)
    dec = cached_decompose(KernelSpec("linear"), Ztr, p,
                           DEFAULT_RANK_THRESHOLD, None)
    for pipe, closed in zip(predict_Eg_curve(dec, Y, p, P_grid, lam, noise),
                            general_linear_Eg(P_grid, D, D, D, beta, 1.0, 1.0,
                                              lam, noise)):
        assert abs(pipe.Eg - closed.Eg) / closed.Eg < 0.03
