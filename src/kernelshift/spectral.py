"""Mercer decomposition of a kernel with respect to a discrete measure.

For masses p over M points, the eigenproblem

    K diag(p) Phi = Phi diag(eta),   Phi^T diag(p) Phi = I

is solved through the symmetric matrix B = diag(sqrt p) K diag(sqrt p),
whose eigenvectors v give eigenfunction values phi = v / sqrt(p) on the
support of p.  Off-support points get eigenfunction values by Nystrom
extension, which only exists for modes with eta > 0; modes at (numerically)
zero eigenvalue are "collapsed" and live outside the RKHS, so only their
eigenvalues are kept.
"""

import hashlib
import logging
import os
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .io import read_npz, write_npz_atomic
from .kernels import gram
from .measures import (DiscreteMeasure, as_measure, kernel_matrix, points,
                       target_columns)

DEFAULT_RANK_THRESHOLD = 1e-12

log = logging.getLogger(__name__)

# negative-eigenvalue tolerance, relative to scale
PSD_RTOL = 1e-8
# entries of the blocks that V is reordered in and that Phi and the
# gradient's adjoint are built in
_BLOCK = 1 << 16


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (descending) and in-RKHS eigenfunction values at all
    dataset points.

    The eigenproblem runs on the support of the measure (size s), so there
    are s eigenvalues, of which the first `rank` are resolved.  Phi has
    shape (M, rank): support rows come from the eigensolve, off-support
    rows from Nystrom extension.  The s - rank collapsed modes have no
    values off the support; the theory takes their part of a target from
    the target itself, as Y - Phi abar.
    """

    eigenvalues: np.ndarray
    Phi: np.ndarray
    measure: DiscreteMeasure
    support: np.ndarray
    rank: int
    rank_threshold: float

    @property
    def n_modes(self):
        return self.eigenvalues.shape[0]

    @property
    def n_collapsed(self):
        return self.n_modes - self.rank


def mercer_decompose(K, measure, rank_threshold=DEFAULT_RANK_THRESHOLD):
    """Diagonalize the kernel with respect to the measure.

    Eigenvalues come back sorted descending and clipped at zero (a negative
    eigenvalue beyond -PSD_RTOL * scale raises).  The sign of each
    eigenfunction is fixed so its largest-magnitude value on the support is
    positive, first index winning ties, which makes results reproducible up
    to genuinely degenerate eigenspaces.
    """
    measure = as_measure(measure)
    K = kernel_matrix(K, measure.M)
    sup = measure.support()
    return _decompose(lambda: K[np.ix_(sup, sup)],
                      lambda rows: K[np.ix_(rows, sup)], measure,
                      rank_threshold)


def _decompose_spec(spec, X, measure, rank_threshold):
    """_decompose building its blocks from the kernel spec and the
    checked points X (M, D), each block checked finite; the M x M Gram is
    never built.  The support block is the square Gram of the support
    points, which computes each entry once and mirrors it.  Where
    kernels.gram computes every entry on its own (rbf, laplace,
    fourier_bandlimited) that is the Gram's block, and the decomposition
    has the bits of mercer_decompose(gram(spec, X), ...).  The BLAS kinds'
    blocks agree with that Gram's slices to rounding, as products of
    other shapes."""
    sup = measure.support()
    X_sup = X[sup]
    return _decompose(lambda: _finite(gram(spec, X_sup)),
                      lambda rows: _finite(gram(spec, X[rows], X_sup)),
                      measure, rank_threshold)


def _decompose(support_block, kernel_rows, measure, rank_threshold):
    """The decomposition, reading the kernel only through two callables.

    support_block() is a new symmetric array K[sup, sup], which
    _eigensolve turns into B and frees; kernel_rows(rows) then is a new
    array K[rows, sup] of the given off-support rows against the
    support, read a block of at most _BLOCK entries at a time.  So it
    holds at most two (s, s)-sized arrays at once, B beside its
    eigenvectors V during the eigensolve and then V beside Phi, and
    otherwise only temporaries of up to _BLOCK entries: V is reordered,
    signed and scaled in place, and Phi's off-support rows are built a
    block at a time.
    """
    M = measure.M
    sup = measure.support()
    s = sup.size
    if s == 0:
        raise ValueError("measure has empty support")
    p_s = measure.masses[sup]
    sqrt_p = np.sqrt(p_s)
    eta, V, rank = _eigensolve(support_block, sqrt_p, rank_threshold)
    # V's first rank columns become Phi_s = V / sqrt(p), then diag(p)
    # Phi_s, the right factor of the Nystrom extension K[off, sup] diag(p)
    # Phi_s / eta.  Extending the stored Phi_s keeps the off-support
    # residual consistent with the projection abar, which also reads it
    Phi = np.empty((M, rank))
    Vr = V[:, :rank]
    Vr /= sqrt_p[:, None]
    Phi[sup] = Vr
    off = np.flatnonzero(measure.masses == 0)
    if off.size:
        Vr *= p_s[:, None]
        b = max(1, _BLOCK // M)
        for lo in range(0, off.size, b):
            rows = off[lo:lo + b]
            Phi[rows] = kernel_rows(rows) @ Vr / eta[:rank]

    return SpectralDecomposition(
        eigenvalues=eta,
        Phi=Phi,
        measure=measure,
        support=sup,
        rank=rank,
        rank_threshold=float(rank_threshold),
    )


def _eigensolve(support_block, sqrt_p, rank_threshold):
    """(eta, V, rank) of B = diag(sqrt_p) K diag(sqrt_p), K being
    support_block(), a new symmetric array that becomes B and is freed.

    eta are B's eigenvalues, descending and clipped at zero (one below
    -PSD_RTOL * scale raises ValueError); rank counts those above
    rank_threshold times the largest.  V's orthonormal eigenvectors are
    Fortran-ordered, in eta's order with _order_and_sign's signs.
    """
    # B is built and diagonalized in its own buffer: B.T is the same
    # symmetric matrix in Fortran order, which eigh overwrites instead of
    # copying, and of which it reads one triangle, so the scaled halves
    # need not agree to the last bit
    B = support_block()
    B *= sqrt_p[:, None]
    B *= sqrt_p
    w, V = _lapack.eigh(B.T)
    del B
    w = w[::-1]

    eta = _psd_clipped(w, "kernel under this measure")
    rank = int(np.count_nonzero(eta > rank_threshold * eta[0])) if eta[0] > 0 else 0
    _order_and_sign(V, sqrt_p)
    return eta, V, rank


def _psd_clipped(w, name):
    """The eigenvalues w of a symmetric matrix clipped at zero; one below
    -PSD_RTOL times the largest magnitude raises ValueError naming it."""
    lo = w.min()
    scale = max(abs(lo), abs(w.max()), 1e-300)
    if lo < -PSD_RTOL * scale:
        raise ValueError(f"{name} is not positive semidefinite (min "
                         f"eigenvalue {lo:.3e} at scale {scale:.3e})")
    return np.clip(w, 0.0, None)


def _finite(block):
    if not np.all(np.isfinite(block)):
        raise ValueError("kernel matrix contains non-finite entries")
    return block


def _order_and_sign(V, sqrt_p):
    """Put the eigenvectors V (ascending, as LAPACK returns them) in
    descending order and give each its sign, in place and a block of
    columns at a time, so V stays Fortran-ordered: the gradient's
    products need it so to keep their bits.  The sign convention: each
    column's largest |V|/sqrt(p) entry is positive, first index winning
    ties."""
    s = V.shape[1]
    b = max(1, _BLOCK // s)
    for lo in range(0, s // 2, b):
        hi = min(lo + b, s // 2)
        left = V[:, lo:hi].copy()
        V[:, lo:hi] = V[:, s - hi:s - lo][:, ::-1]
        V[:, s - hi:s - lo] = left[:, ::-1]
    for lo in range(0, s, b):
        cols = V[:, lo:lo + b]
        mag = np.abs(cols)
        mag /= sqrt_p[:, None]
        signs = np.sign(cols[np.argmax(mag, axis=0), np.arange(cols.shape[1])])
        signs[signs == 0] = 1.0
        cols *= signs


def project_target(dec, Y):
    """In-RKHS coefficients abar = Phi^T diag(p) Y, shape (rank, C).

    With a complete basis (rank = M at full support) this satisfies the
    Parseval identity sum_rho abar_rho^2 = <Y^2>_p per output. The sum
    runs over all M rows, as off-support rows have mass 0, so Phi is read
    in place.
    """
    Y = target_columns(Y, dec.Phi.shape[0])
    return dec.Phi.T @ (dec.measure.masses[:, None] * Y)


def _overlap_matrix(Phi, ptilde):
    """Test-measure Gram matrix of the eigenfunctions,
    O[rho, gam] = sum_mu ptilde_mu phi_rho(x_mu) phi_gam(x_mu), symmetrized.
    """
    O = Phi.T @ (ptilde[:, None] * Phi)
    O += O.T
    O *= 0.5
    return O


# ---------------------------------------------------------------------------
# Decomposition cache: one .npz archive per entry, named by a content hash.
# ---------------------------------------------------------------------------

# Bump when the stored layout, the key's inputs, the sign/rank
# conventions or the bits a decomposition is computed with (kernels.gram's
# or B's) change, so old entries stop matching instead of being silently
# reused: the key hashes the spec and the points, not the kernel values.
CACHE_FORMAT_VERSION = 7


def decomposition_cache_key(spec, X, measure,
                            rank_threshold=DEFAULT_RANK_THRESHOLD):
    """Content hash of (format version, kernel spec, points X with their
    shape, masses, threshold): everything the decomposition is computed
    from, so a hit needs no Gram. X goes through measures.points."""
    X = np.ascontiguousarray(points(X, measure.M), dtype="<f8")
    h = hashlib.sha256(f"kernelshift-decomposition-v{CACHE_FORMAT_VERSION}"
                       .encode())
    h.update(repr((spec.kind, float(spec.lengthscale), spec.n_modes,
                   spec.depth, X.shape)).encode())
    h.update(X.tobytes())
    h.update(np.ascontiguousarray(measure.masses, dtype="<f8").tobytes())
    h.update(np.float64(rank_threshold).tobytes())
    return h.hexdigest()


def cached_decompose(spec, X, measure, rank_threshold, cache_dir):
    """The decomposition of kernel `spec` on the points X (M, D), checked
    by measures.points, under the measure, with the bits of
    mercer_decompose(gram(spec, X), measure, rank_threshold) but without
    the M x M Gram: only the support block and the off-support rows
    against the support are built.  It goes through the entry <key>.npz
    in cache_dir when one is given, and a hit builds no kernel block at
    all.

    An unreadable entry counts as a miss: it is recomputed and overwritten.
    """
    measure = as_measure(measure)
    X = points(X, measure.M)
    if not cache_dir:
        return _decompose_spec(spec, X, measure, rank_threshold)
    key = decomposition_cache_key(spec, X, measure, rank_threshold)
    path = os.path.join(cache_dir, f"{key}.npz")
    if os.path.exists(path):
        try:
            return load_decomposition(path)
        except ValueError as exc:
            log.warning("recomputing unreadable cache entry %s: %s",
                        path, exc)
    dec = _decompose_spec(spec, X, measure, rank_threshold)
    save_decomposition(path, dec)
    return dec


def save_decomposition(path, dec):
    """Write an .npz archive via a temporary file and rename, so a killed
    writer never leaves a partial entry at `path`."""
    write_npz_atomic(path, eigenvalues=dec.eigenvalues, Phi=dec.Phi,
                     masses=dec.measure.masses,
                     rank_threshold=dec.rank_threshold)


def load_decomposition(path):
    """Read an entry save_decomposition wrote; damage raises ValueError,
    before any array is allocated when a member fails its CRC (see
    io.read_npz)."""
    eta, Phi, masses, rank_threshold = read_npz(
        path, ("eigenvalues", "Phi", "masses", "rank_threshold"))
    measure = DiscreteMeasure(masses)
    support = measure.support()
    if (eta.ndim != 1 or Phi.ndim != 2 or Phi.shape[0] != measure.M
            or eta.shape[0] != support.size or Phi.shape[1] > eta.shape[0]):
        raise ValueError("decomposition arrays do not fit together")
    return SpectralDecomposition(
        eigenvalues=eta,
        Phi=Phi,
        measure=measure,
        support=support,
        rank=Phi.shape[1],
        rank_threshold=float(rank_threshold),
    )
