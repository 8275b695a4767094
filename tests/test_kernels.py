"""Kernel families: golden values, invariances, and a finite-width check
of the analytic NTK against sampled network Jacobians."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernelshift import kernels
from kernelshift.kernels import (_DIST_BLOCK, KernelSpec, arccos_kappa0,
                                 arccos_kappa1, gram, ntk_relu_eval)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("polynomial")
    with pytest.raises(ValueError):
        KernelSpec("rbf", lengthscale=0.0)
    with pytest.raises(ValueError):
        KernelSpec("fourier_bandlimited")
    with pytest.raises(ValueError):
        KernelSpec("ntk_relu")
    assert KernelSpec("fourier_bandlimited", n_modes=3).n_modes == 3
    assert KernelSpec("ntk_relu", depth=2).depth == 2


def test_linear_gram_divides_by_dimension():
    X = np.eye(2)
    K = gram(KernelSpec("linear"), X)
    assert np.allclose(K, [[0.5, 0.0], [0.0, 0.5]], atol=1e-15)
    X2 = np.array([[1.0, 2.0, 3.0]])
    assert gram(KernelSpec("linear"), X2)[0, 0] == pytest.approx(14.0 / 3.0)


def test_rbf_and_laplace_golden():
    X = np.array([[0.0], [2.0]])
    K = gram(KernelSpec("rbf", lengthscale=2.0), X)
    assert K[0, 0] == pytest.approx(1.0)
    assert K[0, 1] == pytest.approx(np.exp(-4.0 / 8.0))
    K = gram(KernelSpec("laplace", lengthscale=0.5), X)
    assert K[0, 1] == pytest.approx(np.exp(-4.0))


def test_fourier_bandlimited_golden_and_shape_rules():
    spec = KernelSpec("fourier_bandlimited", n_modes=4)
    X = np.array([[0.3], [0.3]])
    K = gram(spec, X)
    assert K[0, 1] == pytest.approx(4.0)  # sum of cos(0) over 4 modes
    x, xp = 0.1, 0.7
    want = sum(np.cos(k * np.pi * (x - xp)) for k in range(1, 5))
    K = gram(spec, np.array([[x]]), np.array([[xp]]))
    assert K[0, 0] == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        gram(spec, np.zeros((3, 2)))


def test_fourier_translation_invariance():
    spec = KernelSpec("fourier_bandlimited", n_modes=6)
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, (8, 1))
    K1 = gram(spec, x)
    K2 = gram(spec, x + 0.37)
    assert np.max(np.abs(K1 - K2)) < 1e-12


@pytest.mark.parametrize("kind,kw", [
    ("linear", {}),
    ("rbf", {"lengthscale": 1.3}),
    ("laplace", {"lengthscale": 0.8}),
    ("ntk_relu", {"depth": 3}),
    ("fourier_bandlimited", {"n_modes": 5}),
])
def test_gram_bitwise_symmetric_and_psd(kind, kw):
    # the Monte Carlo trial gathers rows of K in place of its columns
    rng = np.random.default_rng(5)
    X = rng.standard_normal((12, 1 if kind == "fourier_bandlimited" else 4))
    K = gram(KernelSpec(kind, **kw), X)
    assert np.array_equal(K, K.T)
    w = np.linalg.eigvalsh(K)
    assert w.min() > -1e-9 * max(abs(w).max(), 1.0)


def _cdist_gram(spec, X1, X2=None):
    # the rbf and laplace kernels through scipy's cdist
    from scipy.spatial.distance import cdist
    square = X2 is None
    X2 = X1 if square else X2
    if spec.kind == "rbf":
        d2 = cdist(X1, X2, "sqeuclidean")
        K = np.exp(-d2 / (2.0 * spec.lengthscale**2))
    else:
        K = np.exp(-cdist(X1, X2, "euclidean") / spec.lengthscale)
    return 0.5 * (K + K.T) if square else K


@pytest.mark.parametrize("D", [1, 5, 8, 20])
def test_distance_kernels_match_cdist_bitwise(D):
    rng = np.random.default_rng(D)
    n2 = 37
    rows = _DIST_BLOCK // n2  # X1 rows per block against n2 columns
    X1 = 1.7 * rng.standard_normal((2 * rows + 3, D))
    X1[5] = X1[2]
    X1[rows] = X1[rows - 1]  # a duplicate pair split by a block boundary
    X2 = rng.standard_normal((n2, D))
    X2[4] = X1[2]
    # square Grams of more than sqrt(_DIST_BLOCK) rows span several blocks
    n_sq = int(np.sqrt(_DIST_BLOCK)) + 20
    for spec in (KernelSpec("rbf", lengthscale=1.3),
                 KernelSpec("laplace", lengthscale=0.8)):
        for n1 in (1, rows - 1, rows, rows + 1, 2 * rows + 3):
            K = gram(spec, X1[:n1], X2)
            assert np.array_equal(K, _cdist_gram(spec, X1[:n1], X2))
        assert K[2, 4] == K[5, 4] == 1.0
        assert np.array_equal(K[rows - 1], K[rows])
        for n in (1, 7, n_sq):
            K = gram(spec, X1[:n])
            assert np.array_equal(K, _cdist_gram(spec, X1[:n]))
            assert np.all(np.diag(K) == 1.0)
        assert K[2, 5] == K[5, 2] == 1.0


STRIP = 4  # strip height of the threaded square-Gram tests


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("n", [1, STRIP - 1, STRIP, STRIP + 1,
                               2 * STRIP + 3])
def test_half_triangle_gram_has_the_cross_grams_bits(n, threads,
                                                     monkeypatch):
    # the square case computes strips of STRIP rows from the diagonal on,
    # on `threads` workers, and mirrors them; the cross case (cdist's
    # bits) computes every entry
    monkeypatch.setattr(kernels, "_DIST_BLOCK", STRIP * n)
    rng = np.random.default_rng(n)
    X = 1.7 * rng.standard_normal((n, 5))
    if n > STRIP:
        X[STRIP] = X[STRIP - 1]  # a duplicate pair split by a strip edge
    for spec in (KernelSpec("rbf", lengthscale=1.3),
                 KernelSpec("laplace", lengthscale=0.8)):
        K = gram(spec, X, threads=threads)
        assert np.array_equal(K, gram(spec, X, X))
        assert np.array_equal(K, K.T)


def test_one_thread_gram_starts_no_pool(monkeypatch):
    # pool start-up costs more than a small Gram, which the optimizer and
    # the continuous trials build many times
    def no_pool(*args, **kwargs):
        raise AssertionError("started a thread pool")

    monkeypatch.setattr(kernels, "ThreadPoolExecutor", no_pool)
    X = np.random.default_rng(0).standard_normal((400, 3))
    spec = KernelSpec("rbf", lengthscale=1.0)
    assert 400 > _DIST_BLOCK // 400  # several strips
    gram(spec, X)
    gram(spec, X, threads=1)
    with pytest.raises(AssertionError, match="thread pool"):
        gram(spec, X, threads=2)


@pytest.mark.parametrize("threads", [0, -1, 1.5, None])
def test_gram_thread_count_must_be_a_positive_integer(threads):
    with pytest.raises(ValueError, match="threads must be a positive"):
        gram(KernelSpec("rbf"), np.zeros((3, 2)), threads=threads)


def test_cross_gram_matches_square_case():
    # for the entry-wise kinds every block of a Gram has the bits of the
    # Gram of its points, at odd and even D and across the distance
    # accumulator's row blocks, so a decomposition can read its blocks
    # without the whole Gram. The BLAS kinds agree to rounding, which the
    # relu tangent kernel's arccos amplifies to ~sqrt(eps) near the
    # diagonal
    rng = np.random.default_rng(6)
    for kind, kw, tol in [("linear", {}, 1e-13), ("rbf", {}, None),
                          ("laplace", {}, None),
                          ("ntk_relu", {"depth": 2}, 1e-7),
                          ("fourier_bandlimited", {"n_modes": 4}, None)]:
        spec = KernelSpec(kind, **kw)
        if tol is None:
            same = np.array_equal
        else:
            def same(a, b, tol=tol):
                return np.allclose(a, b, rtol=tol, atol=tol)
        for M, D in [(7, 3), (40, 8), (333, 5), (90, 41)]:
            X = rng.standard_normal((M, 1 if kind == "fourier_bandlimited"
                                     else D))
            K = gram(spec, X)
            assert same(K, gram(spec, X, X))
            for _ in range(3):
                r = np.sort(rng.permutation(M)[:rng.integers(1, M + 1)])
                c = np.sort(rng.permutation(M)[:rng.integers(1, M + 1)])
                assert same(gram(spec, X[r], X[c]),
                            K[np.ix_(r, c)]), (kind, M, D)


def test_ntk_golden_values():
    # depth 1 is the raw dot product
    assert ntk_relu_eval(1, 0.3, 1.0, 1.0) == pytest.approx(0.3)
    # unit-norm inputs, depth 2: orthogonal pair gives 1/pi, aligned gives 2
    assert ntk_relu_eval(2, 0.0, 1.0, 1.0) == pytest.approx(1.0 / np.pi)
    assert ntk_relu_eval(2, 1.0, 1.0, 1.0) == pytest.approx(2.0)
    # diagonal at any depth d is d |x|^2
    for depth in range(1, 6):
        assert ntk_relu_eval(depth, 4.0, 2.0, 2.0) == pytest.approx(4.0 * depth)
    # zero-norm input maps to 0
    assert ntk_relu_eval(3, 0.0, 0.0, 1.0) == 0.0


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_ntk_square_gram_diagonal_is_depth_times_squared_norm(depth):
    # the square Gram's diagonal dot products are the norms' products, so
    # the cosine is exactly 1 there, at any norm and at D below and above
    # BLAS's blocking, and the zero row stays 0
    rng = np.random.default_rng(depth)
    for M, D in [(9, 2), (60, 7), (40, 300)]:
        X = rng.standard_normal((M, D)) * rng.uniform(0.1, 30.0, (M, 1))
        X[0] = 0.0
        K = gram(KernelSpec("ntk_relu", depth=depth), X)
        assert np.array_equal(np.diag(K),
                              depth * np.linalg.norm(X, axis=1) ** 2)


def test_arccos_maps_endpoints():
    assert arccos_kappa0(1.0) == pytest.approx(1.0)
    assert arccos_kappa0(-1.0) == pytest.approx(0.0)
    assert arccos_kappa1(1.0) == pytest.approx(1.0)
    assert arccos_kappa1(-1.0) == pytest.approx(0.0)
    assert arccos_kappa1(0.0) == pytest.approx(1.0 / np.pi)


@settings(max_examples=40, deadline=None)
@given(
    t=st.floats(-1.0, 1.0),
    k1=st.integers(-4, 4),
    k2=st.integers(-4, 4),
    depth=st.integers(1, 4),
)
@example(t=0.9999999999999999, k1=2, k2=2, depth=2)
@example(t=5e-324, k1=-4, k2=-4, depth=3)
def test_ntk_homogeneity(t, k1, k2, depth):
    # power-of-two scales make c1*c2*t / (c1*c2) give back t exactly, so
    # the kernel sees the same cosine and every value scales exactly; an
    # arbitrary scale can move the cosine one ulp, which sqrt(1 - t^2)
    # amplifies about a thousandfold near t = 1
    c1, c2 = 2.0**k1, 2.0**k2
    base = ntk_relu_eval(depth, t, 1.0, 1.0)
    scaled = ntk_relu_eval(depth, c1 * c2 * t, c1, c2)
    assert scaled == c1 * c2 * base


def _finite_width_ntk(depth, x1, x2, width, seed):
    """Empirical NTK of a bias-free ReLU net, f = sqrt(2/n) v.relu(W x).

    Parameters draw from the infinite-width scaling that makes the
    layer-0 covariance the raw dot product. Only depth 2 is sampled;
    deeper analytic values follow from the recursion, which the golden
    and homogeneity tests pin separately.
    """
    assert depth == 2
    rng = np.random.default_rng(seed)
    D = x1.shape[0]
    W = rng.standard_normal((width, D))
    v = rng.standard_normal(width)
    h1, h2 = W @ x1, W @ x2
    r1, r2 = np.maximum(h1, 0.0), np.maximum(h2, 0.0)
    s1, s2 = (h1 > 0).astype(float), (h2 > 0).astype(float)
    # d f / d v contributes relu products, d f / d W contributes the
    # step-gated input dot product
    grad_v = (2.0 / width) * np.dot(r1, r2)
    grad_W = (2.0 / width) * np.sum(v**2 * s1 * s2) * np.dot(x1, x2)
    return grad_v + grad_W


def test_ntk_matches_finite_width_jacobian():
    rng = np.random.default_rng(99)
    pairs = []
    for _ in range(3):
        x1 = rng.standard_normal(3)
        x2 = rng.standard_normal(3)
        pairs.append((x1, x2))
    pairs.append((pairs[0][0], pairs[0][0]))  # diagonal entry
    width, n_seeds = 16384, 20
    for x1, x2 in pairs:
        analytic = float(ntk_relu_eval(2, np.dot(x1, x2),
                                       np.linalg.norm(x1),
                                       np.linalg.norm(x2)))
        est = np.mean([_finite_width_ntk(2, x1, x2, width, s)
                       for s in range(n_seeds)])
        assert est == pytest.approx(analytic, rel=0.02)
