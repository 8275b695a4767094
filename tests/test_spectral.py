"""Mercer decomposition, orthonormality, Nystrom extension, and the
cache."""

import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from kernelshift import measures, spectral
from kernelshift.kernels import KernelSpec, gram
from kernelshift.measures import (SYMMETRY_RTOL, DiscreteMeasure,
                                  from_logits, kernel_matrix, uniform_measure)
from kernelshift.spectral import (DEFAULT_RANK_THRESHOLD,
                                  SpectralDecomposition, _overlap_matrix,
                                  cached_decompose, decomposition_cache_key,
                                  load_decomposition, mercer_decompose,
                                  project_target, save_decomposition)
from kernelshift.theory import predict_Eg_curve

from archive_forgery import claim_rows, flip_first_sign


def _instance(seed, M=20, D=4, kind="rbf", tilt=0.4):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((M, D))
    K = gram(KernelSpec(kind, lengthscale=1.5) if kind == "rbf"
             else KernelSpec(kind), X)
    Y = rng.standard_normal((M, 1))
    p = from_logits(tilt * rng.standard_normal(M))
    pt = from_logits(tilt * rng.standard_normal(M))
    return K, Y, p, pt


def test_two_point_golden():
    K = np.array([[2.0, 1.0], [1.0, 2.0]])
    dec = mercer_decompose(K, uniform_measure(2))
    assert np.allclose(dec.eigenvalues, [1.5, 0.5], atol=1e-14)
    # sign convention: the largest-magnitude support value is positive,
    # first index breaking ties
    assert np.allclose(dec.Phi, [[1.0, 1.0], [1.0, -1.0]], atol=1e-14)
    assert dec.rank == 2 and dec.n_collapsed == 0


def test_orthonormality_and_trace():
    for seed in range(6):
        K, _, p, _ = _instance(seed)
        dec = mercer_decompose(K, p)
        G = dec.Phi.T @ (p.masses[:, None] * dec.Phi)
        assert np.max(np.abs(G - np.eye(dec.rank))) < 1e-8
        assert np.sum(dec.eigenvalues) == pytest.approx(
            float(np.dot(p.masses, np.diag(K))), abs=1e-10)


def test_mercer_reconstruction():
    K, _, p, _ = _instance(3)
    dec = mercer_decompose(K, p)
    K_hat = (dec.Phi * dec.eigenvalues[None, :dec.rank]) @ dec.Phi.T
    assert np.max(np.abs(K_hat - K)) < 1e-8 * np.abs(K).max()


def test_eigenvalues_sorted_descending():
    K, _, p, _ = _instance(4)
    dec = mercer_decompose(K, p)
    assert np.all(np.diff(dec.eigenvalues) <= 1e-15)


def test_sign_convention_reproducible():
    K, _, p, _ = _instance(5)
    a = mercer_decompose(K, p)
    b = mercer_decompose(K, p)
    assert np.array_equal(a.Phi, b.Phi)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_rank_deficiency_from_duplicates():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((10, 3))
    X[5] = X[2]  # duplicated point collapses one mode
    K = gram(KernelSpec("rbf"), X)
    dec = mercer_decompose(K, uniform_measure(10))
    assert dec.n_modes == 10
    assert dec.rank == 9
    assert dec.n_collapsed == 1
    assert dec.eigenvalues[-1] < 1e-12 * dec.eigenvalues[0]


def test_low_rank_linear_kernel():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((15, 3))
    K = gram(KernelSpec("linear"), X)
    dec = mercer_decompose(K, uniform_measure(15))
    assert dec.rank == 3
    assert dec.n_collapsed == 12


def test_symmetry_check_returns_symmetric_input_itself():
    K, _, _, _ = _instance(0)
    assert kernel_matrix(K, 20) is K
    A = K.copy()
    A[3, 5] += 0.5 * SYMMETRY_RTOL
    got = kernel_matrix(A, 20)
    assert got is not A and A[3, 5] != A[5, 3]
    assert np.array_equal(got, 0.5 * (A + A.T))
    assert np.array_equal(got, got.T)


@pytest.mark.parametrize("where", [(0, 0), (1, 8), (8, 1), (9, 9), (4, 7)])
def test_symmetry_check_reads_every_tile_pair(where, monkeypatch):
    # 3 x 3 tiles on a 10 x 10 Gram: a fault in any tile, above or below
    # the diagonal, is found, and a non-finite entry wins over an
    # asymmetry found in an earlier tile pair
    monkeypatch.setattr(measures, "_CHECK_TILE", 3)
    rng = np.random.default_rng(22)
    K = gram(KernelSpec("rbf", lengthscale=1.5), rng.standard_normal((10, 2)))
    assert kernel_matrix(K) is K
    i, j = where
    A = K.copy()
    A[i, j] += 1.0 if i != j else np.nan
    with pytest.raises(ValueError,
                       match="not symmetric" if i != j else "non-finite"):
        kernel_matrix(A)
    A = K.copy()
    A[0, 1] += 1.0
    A[i, j] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        kernel_matrix(A)
    A = K.copy()
    A[i, j] += 0.5 * SYMMETRY_RTOL
    assert np.array_equal(kernel_matrix(A), 0.5 * (A + A.T))


def test_decomposition_peak_memory_is_about_two_grams():
    # B and its eigenvectors V are each one Gram in size; nothing else of
    # that size may be alive at once. The laplace Gram keeps full rank
    # (1000 of 1000), so there Phi is a whole Gram too
    rng = np.random.default_rng(0)
    X = rng.standard_normal((1000, 3))
    p = uniform_measure(1000)
    mercer_decompose(np.eye(10), uniform_measure(10))
    for kind in ("rbf", "laplace"):
        K = gram(KernelSpec(kind, lengthscale=1.5), X)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            mercer_decompose(K, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - entry <= 2.1 * K.nbytes, kind


def test_partial_support_peak_memory_is_eigensolve_or_V_and_Phi():
    # off full support the peak is the larger of B beside its
    # eigenvectors (2 s^2) and V beside Phi (s^2 + M rank): Phi is built
    # in row blocks, with no (s, s) or off x s temporary
    M = 1500
    rng = np.random.default_rng(1)
    K = gram(KernelSpec("rbf", lengthscale=1.5),
             rng.standard_normal((M, 5)))
    masses = np.zeros(M)
    masses[rng.permutation(M)[:int(0.7 * M)]] = 1.0
    p = DiscreteMeasure(masses / masses.sum())
    s = p.support().size
    mercer_decompose(np.eye(10), uniform_measure(10))
    for threshold in (1e-8, 1e-12):
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            dec = mercer_decompose(K, p, threshold)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (dec.rank < s) == (threshold == 1e-8)
        assert peak - entry <= 1.1 * 8 * max(2 * s * s, s * s + M * dec.rank)


def test_curve_peak_memory_stays_below_the_decomposition_peak():
    # a learning curve over 50 P on a partial-support decomposition with
    # collapsed modes holds blocks of P and of Phi rows, never an (s, s)
    # or a P x Phi array, so it adds nothing to a theory-curve's peak
    M = 1500
    rng = np.random.default_rng(1)
    X = rng.standard_normal((M, 5))
    K = gram(KernelSpec("rbf", lengthscale=1.5), X)
    masses = np.zeros(M)
    masses[rng.permutation(M)[:int(0.7 * M)]] = 1.0
    p = DiscreteMeasure(masses / masses.sum())
    Y = np.tanh(X @ rng.standard_normal(5))
    pt = from_logits(0.5 * rng.standard_normal(M))
    grid = np.unique(np.round(np.geomspace(2, 2 * M, 55)))
    mercer_decompose(np.eye(10), uniform_measure(10))
    peaks = []
    tracemalloc.start()
    try:
        for step in ("decompose", "curve"):
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            if step == "decompose":
                dec = mercer_decompose(K, p, 1e-8)
            else:
                preds = predict_Eg_curve(dec, Y, pt, grid, 1e-3, 0.01)
            peaks.append(tracemalloc.get_traced_memory()[1] - entry)
    finally:
        tracemalloc.stop()
    assert 0 < dec.rank < dec.n_modes and len(preds) == grid.size
    assert peaks[1] < peaks[0]


def test_project_target_copies_no_rows_of_phi():
    # off-support rows carry mass 0, so the projection sums over all M
    # rows of Phi in place and holds vectors of length M, never the
    # s x rank support rows of Phi
    M = 1500
    rng = np.random.default_rng(1)
    X = rng.standard_normal((M, 5))
    masses = np.zeros(M)
    masses[rng.permutation(M)[:int(0.7 * M)]] = 1.0
    p = DiscreteMeasure(masses / masses.sum())
    dec = mercer_decompose(gram(KernelSpec("rbf", lengthscale=1.5), X), p,
                           1e-8)
    Y = np.column_stack([np.tanh(X[:, 0]), X[:, 1] * X[:, 2]])
    sup = dec.support
    want = dec.Phi[sup].T @ (p.masses[sup, None] * Y[sup])
    project_target(dec, Y)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        abar = project_target(dec, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < dec.rank < sup.size < M
    assert np.max(np.abs(abar - want)) <= 1e-12 * np.max(np.abs(want))
    assert peak - entry <= 4 * Y.nbytes


def test_blocked_nystrom_rows_equal_one_shot_product(monkeypatch):
    # collapsed modes (a rank-6 linear kernel) and test points off the
    # training support, with blocks of a few rows and columns
    M = 90
    rng = np.random.default_rng(6)
    K = gram(KernelSpec("linear"), rng.standard_normal((M, 6)))
    masses = np.zeros(M)
    masses[:55] = rng.random(55) + 0.1
    p = DiscreteMeasure(masses / masses.sum())
    want = mercer_decompose(K, p)
    assert want.rank == 6 and want.n_collapsed == 49
    sup, off = want.support, np.flatnonzero(masses == 0)
    Phi_s = want.Phi[sup]
    one_shot = K[np.ix_(off, sup)] @ (Phi_s * p.masses[sup, None]) \
        / want.eigenvalues[:6]
    for block in (1, 7 * M, 1 << 16):
        monkeypatch.setattr(spectral, "_BLOCK", block)
        dec = mercer_decompose(K, p)
        assert np.array_equal(dec.eigenvalues, want.eigenvalues)
        assert np.array_equal(dec.Phi[sup], Phi_s)
        assert np.max(np.abs(dec.Phi[off] - one_shot)) \
            <= 1e-13 * np.max(np.abs(one_shot))


def test_validation_errors():
    with pytest.raises(ValueError, match="symmetric"):
        mercer_decompose(np.array([[1.0, 0.5], [0.0, 1.0]]),
                         uniform_measure(2))
    with pytest.raises(ValueError, match="positive semidefinite"):
        mercer_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]),
                         uniform_measure(2))
    with pytest.raises(ValueError, match="must be"):
        mercer_decompose(np.eye(3), uniform_measure(2))


def test_zero_mass_points_solved_on_support():
    K, Y, _, _ = _instance(9, M=12)
    masses = np.full(12, 1.0 / 10.0)
    masses[3] = masses[8] = 0.0
    p = DiscreteMeasure(masses)
    dec = mercer_decompose(K, p)
    assert dec.n_modes == 10
    assert dec.support.tolist() == [i for i in range(12) if i not in (3, 8)]
    # off-support rows satisfy the eigenfunction identity for resolved modes
    sup = dec.support
    off = [3, 8]
    p_s = p.masses[sup]
    lhs = K[np.ix_(off, sup)] @ (p_s[:, None] * dec.Phi[sup])
    rhs = dec.Phi[off] * dec.eigenvalues[:dec.rank]
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_nystrom_matches_analytic_linear_eigenfunctions():
    # for the linear kernel the off-support rows must be the exact linear
    # map x -> x . w_rho / (eta_rho D), w_rho the weighted feature average
    rng = np.random.default_rng(11)
    X = rng.standard_normal((30, 4))
    p = from_logits(0.3 * rng.standard_normal(30))
    X_new = rng.standard_normal((12, 4))
    K = gram(KernelSpec("linear"), np.vstack([X, X_new]))
    dec = mercer_decompose(K, DiscreteMeasure(
        np.concatenate([p.masses, np.zeros(12)])))
    assert dec.support.tolist() == list(range(30))
    assert dec.Phi.shape == (42, dec.rank) and dec.rank == 4
    ext = dec.Phi[30:]
    w = X.T @ (p.masses[:, None] * dec.Phi[:30])
    analytic = X_new @ w / (4.0 * dec.eigenvalues[:dec.rank])
    assert np.max(np.abs(ext - analytic)) < 1e-6


def test_project_target_parseval():
    K, Y, p, _ = _instance(12)
    dec = mercer_decompose(K, p)
    abar = project_target(dec, Y)
    assert dec.rank == dec.n_modes and abar.shape == (dec.rank, 1)
    # full-rank RBF basis is complete on the support
    assert np.sum(abar**2) == pytest.approx(
        float(np.dot(p.masses, Y[:, 0] ** 2)), rel=1e-8)


def test_overlap_matched_is_identity():
    # Phi^T diag(p) Phi = I: the eigenfunctions are orthonormal under the
    # training measure
    K, _, p, _ = _instance(13)
    dec = mercer_decompose(K, p)
    O = dec.Phi.T @ (p.masses[:, None] * dec.Phi)
    assert np.max(np.abs(O - np.eye(dec.rank))) < 1e-8


def test_degenerate_block_rotation_invariance():
    # exactly degenerate pair: four points at the vertices of a square,
    # linear kernel, uniform measure -> two equal nonzero eigenvalues
    X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    K = gram(KernelSpec("linear"), X)
    p = uniform_measure(4)
    dec = mercer_decompose(K, p)
    assert dec.eigenvalues[0] == pytest.approx(dec.eigenvalues[1])
    rng = np.random.default_rng(15)
    Y = rng.standard_normal((4, 1))
    pt = from_logits(0.5 * rng.standard_normal(4))
    (base,) = predict_Eg_curve(dec, Y, pt, [3], lam=0.1, noise=0.05)

    theta = 0.7
    R = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    Phi_rot = dec.Phi.copy()
    Phi_rot[:, :2] = dec.Phi[:, :2] @ R
    dec_rot = SpectralDecomposition(
        eigenvalues=dec.eigenvalues, Phi=Phi_rot, measure=dec.measure,
        support=dec.support, rank=dec.rank,
        rank_threshold=dec.rank_threshold)
    (pred,) = predict_Eg_curve(dec_rot, Y, pt, [3], lam=0.1, noise=0.05)
    assert pred.Eg == pytest.approx(base.Eg, abs=1e-10)
    assert pred.Eg_matched == pytest.approx(base.Eg_matched, abs=1e-10)


@dataclass(frozen=True)
class CrossOverlapDiagnostics:
    """Change-of-basis checks between decompositions under p and ptilde.

    A[rho, gam]  = <phi_rho, phitilde_gam>_p
    At[rho, gam] = <phitilde_rho, phi_gam>_ptilde

    In exact arithmetic At A = A At = I, the overlap matrix factors as
    O = At^T At, and At Lambda At^T reproduces the test-measure eigenvalues
    as a diagonal matrix.
    """

    A: np.ndarray
    At: np.ndarray
    resid_inverse: float
    resid_overlap: float
    resid_eigenvalues: float


def cross_overlap_diagnostics(K, p, ptilde,
                              rank_threshold=DEFAULT_RANK_THRESHOLD):
    if not isinstance(p, DiscreteMeasure):
        p = DiscreteMeasure(p)
    if not isinstance(ptilde, DiscreteMeasure):
        ptilde = DiscreteMeasure(ptilde)
    if p.support().size != p.M or ptilde.support().size != ptilde.M:
        raise ValueError("cross-overlap diagnostics need full-support "
                         "measures")
    dec = mercer_decompose(K, p, rank_threshold)
    dect = mercer_decompose(K, ptilde, rank_threshold)
    if dec.rank < dec.n_modes or dect.rank < dect.n_modes:
        raise ValueError("cross-overlap diagnostics need strictly positive "
                         "spectra")
    Phi, Phit = dec.Phi, dect.Phi
    A = Phi.T @ (p.masses[:, None] * Phit)
    At = Phit.T @ (ptilde.masses[:, None] * Phi)
    eye = np.eye(dec.n_modes)
    resid_inverse = max(
        np.abs(At @ A - eye).max(),
        np.abs(A @ At - eye).max(),
    )
    O = _overlap_matrix(Phi, ptilde.masses)
    resid_overlap = np.abs(O - At.T @ At).max()
    Lt = (At * dec.eigenvalues[None, :]) @ At.T
    resid_eigenvalues = np.abs(Lt - np.diag(dect.eigenvalues)).max()
    return CrossOverlapDiagnostics(
        A=A,
        At=At,
        resid_inverse=float(resid_inverse),
        resid_overlap=float(resid_overlap),
        resid_eigenvalues=float(resid_eigenvalues),
    )


def test_cross_overlap_identities():
    for seed in range(5):
        K, _, p, pt = _instance(seed + 40, M=15)
        diag = cross_overlap_diagnostics(K, p, pt)
        assert diag.resid_inverse < 1e-7
        assert diag.resid_overlap < 1e-7
        assert diag.resid_eigenvalues < 1e-7


def test_cross_overlap_requires_full_support():
    K, _, _, pt = _instance(16, M=6)
    masses = np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="full-support"):
        cross_overlap_diagnostics(K, DiscreteMeasure(masses), pt)


def _linear_off_support(M=12, D=3, n_off=4):
    # rank D < support size: collapsed modes, and atoms off the support
    rng = np.random.default_rng(20)
    K = gram(KernelSpec("linear"), rng.standard_normal((M, D)))
    masses = rng.random(M) + 0.1
    masses[rng.permutation(M)[:n_off]] = 0.0
    return K, DiscreteMeasure(masses / masses.sum())


def test_cache_key_and_roundtrip(tmp_path):
    rng = np.random.default_rng(17)
    X = rng.standard_normal((20, 4))
    spec = KernelSpec("rbf", lengthscale=1.5)
    p = from_logits(0.4 * rng.standard_normal(20))
    pt = from_logits(0.4 * rng.standard_normal(20))
    k1 = decomposition_cache_key(spec, X, p)
    assert k1 == decomposition_cache_key(KernelSpec("rbf", 1.5), X.copy(), p)
    X_moved = X.copy()
    X_moved[3, 1] += 1e-9
    others = [
        decomposition_cache_key(spec, X, pt),
        decomposition_cache_key(spec, X_moved, p),
        # the same bytes in another shape
        decomposition_cache_key(spec, X.reshape(40, 2),
                                from_logits(np.zeros(40))),
        decomposition_cache_key(spec, X, p, rank_threshold=1e-10),
    ]
    # points that do not fit the measure have no key
    with pytest.raises(ValueError, match="X has 40 rows"):
        decomposition_cache_key(spec, X.reshape(40, 2), p)
    # every field of the spec
    others += [decomposition_cache_key(other, X, p) for other in (
        KernelSpec("laplace", lengthscale=1.5),
        KernelSpec("rbf", lengthscale=1.25),
        KernelSpec("rbf", lengthscale=1.5, n_modes=3),
        KernelSpec("rbf", lengthscale=1.5, depth=2))]
    assert len({k1, *others}) == len(others) + 1

    K = gram(spec, X)
    K_off, p_off = _linear_off_support()
    for idx, dec in enumerate((mercer_decompose(K, p),
                               mercer_decompose(K_off, p_off))):
        path = tmp_path / f"dec{idx}.npz"
        save_decomposition(str(path), dec)
        back = load_decomposition(str(path))
        assert back.Phi.shape == (dec.measure.M, dec.rank)
        assert np.array_equal(back.eigenvalues, dec.eigenvalues)
        assert np.array_equal(back.Phi, dec.Phi)
        assert np.array_equal(back.measure.masses, dec.measure.masses)
        assert np.array_equal(back.support, dec.support)
        assert back.rank == dec.rank
        assert back.rank_threshold == dec.rank_threshold
    assert dec.rank == 3 and dec.n_modes == 8 and dec.Phi.shape == (12, 3)


def test_save_is_atomic_and_damaged_entries_raise(tmp_path):
    K, _, p, _ = _instance(19)
    dec = mercer_decompose(K, p)
    path = tmp_path / "dec.npz"
    path.write_bytes(b"stale")
    save_decomposition(str(path), dec)
    assert [f.name for f in tmp_path.iterdir()] == ["dec.npz"]
    good = path.read_bytes()
    # a zip archive tolerates bytes after its end
    path.write_bytes(good + b"\0" * 8)
    assert np.array_equal(load_decomposition(str(path)).Phi, dec.Phi)

    huge = claim_rows(good, "Phi.npy", 2**40)
    for damaged in (good[:-8], b"X" + good[1:],
                    flip_first_sign(good, "Phi.npy")):
        path.write_bytes(damaged)
        with pytest.raises(ValueError, match="unreadable .npz archive"):
            load_decomposition(str(path))
    # the header fails its CRC before the 2^40-row array is allocated
    path.write_bytes(huge)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="corrupt member 'Phi.npy'"):
            load_decomposition(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 1024


def test_cached_decompose_misses_once_then_loads(tmp_path, monkeypatch):
    rng = np.random.default_rng(20)
    X = rng.standard_normal((20, 4))
    spec = KernelSpec("rbf", lengthscale=1.5)
    p = from_logits(0.4 * rng.standard_normal(20))
    calls = []

    def counted(*args):
        calls.append(args)
        return decompose(*args)

    # looked up by its module-global name, so a wrapper there sees every
    # decomposition
    decompose = spectral._decompose
    monkeypatch.setattr(spectral, "_decompose", counted)
    cache = tmp_path / "cache"
    cold = cached_decompose(spec, X, p, 1e-10, str(cache))
    hot = cached_decompose(spec, X, p, 1e-10, str(cache))
    assert len(calls) == 1
    assert [f.name for f in cache.iterdir()] == \
        [decomposition_cache_key(spec, X, p, 1e-10) + ".npz"]
    assert np.array_equal(hot.Phi, cold.Phi)
    assert np.array_equal(hot.eigenvalues, cold.eigenvalues)
    assert hot.rank_threshold == cold.rank_threshold == 1e-10
    cached_decompose(spec, X, p, 1e-10, None)
    assert len(calls) == 2


_ALL_KINDS = (KernelSpec("linear"), KernelSpec("rbf", lengthscale=1.5),
              KernelSpec("laplace", lengthscale=2.0),
              KernelSpec("fourier_bandlimited", n_modes=3),
              KernelSpec("ntk_relu", depth=3))


@pytest.mark.parametrize("spec", _ALL_KINDS, ids=lambda k: k.kind)
@pytest.mark.parametrize("support", ["full", "partial"])
def test_cached_decompose_has_the_bits_of_the_gram_route(spec, support):
    # with atoms off the support the threshold also collapses modes, so
    # the Nystrom rows read only the in-RKHS columns. The BLAS kinds'
    # blocks differ from the Gram's slices by rounding, so for them the
    # two routes agree to rounding only
    M = 70
    rng = np.random.default_rng(21)
    D = 1 if spec.kind == "fourier_bandlimited" else 6
    X = rng.standard_normal((M, D))
    masses = rng.random(M) + 0.1
    threshold = DEFAULT_RANK_THRESHOLD
    if support == "partial":
        masses[rng.permutation(M)[:23]] = 0.0
        threshold = 1e-2
    p = DiscreteMeasure(masses / masses.sum())
    want = mercer_decompose(gram(spec, X), p, threshold)
    got = cached_decompose(spec, X, p, threshold, None)
    if support == "partial":
        assert 0 < want.rank < want.n_modes < M
    assert got.rank == want.rank
    assert np.array_equal(got.support, want.support)
    if spec.kind in ("linear", "ntk_relu"):
        scale = want.eigenvalues[0]
        assert np.allclose(got.eigenvalues, want.eigenvalues, rtol=0,
                           atol=1e-12 * scale)
        assert np.allclose(got.Phi, want.Phi, rtol=0, atol=1e-8)
    else:
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        assert np.array_equal(got.Phi, want.Phi)


def test_cached_decompose_never_builds_the_full_gram():
    # the peak is that of the eigensolve on the support (2 s^2) or of V
    # beside Phi (s^2 + M rank), kernel blocks included: no M x M array
    M = 1500
    rng = np.random.default_rng(1)
    X = rng.standard_normal((M, 5))
    spec = KernelSpec("rbf", lengthscale=1.5)
    masses = np.zeros(M)
    masses[rng.permutation(M)[:int(0.7 * M)]] = 1.0
    p = DiscreteMeasure(masses / masses.sum())
    s = p.support().size
    cached_decompose(spec, X[:10], uniform_measure(10), 1e-8, None)
    for threshold in (1e-8, 1e-4):
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            dec = cached_decompose(spec, X, p, threshold, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dec.rank < s
        # an M x M array beside B alone would be M^2 + s^2 > 1.4 M^2
        assert peak - entry < 1.1 * 8 * max(2 * s * s, s * s + M * dec.rank)


def test_cached_decomposition_predicts_identically(tmp_path):
    K, Y, p, pt = _instance(18)
    dec = mercer_decompose(K, p)
    path = tmp_path / "dec.npz"
    save_decomposition(str(path), dec)
    back = load_decomposition(str(path))
    (a,) = predict_Eg_curve(dec, Y, pt, [6], lam=0.1, noise=0.02)
    (b,) = predict_Eg_curve(back, Y, pt, [6], lam=0.1, noise=0.02)
    assert a.Eg == b.Eg
    assert a.kappa == b.kappa
