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
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .io import atomic_open
from .measures import BINARY_MAGIC, DiscreteMeasure

DEFAULT_RANK_THRESHOLD = 1e-12

# |K - K.T| tolerance and negative-eigenvalue tolerance, relative to scale
SYMMETRY_RTOL = 1e-8
PSD_RTOL = 1e-8


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


def _check_square_symmetric(K, M):
    K = np.asarray(K, dtype=np.float64)
    if K.shape != (M, M):
        raise ValueError(f"kernel matrix must be ({M}, {M}), got {K.shape}")
    if not np.all(np.isfinite(K)):
        raise ValueError("kernel matrix contains non-finite entries")
    # K itself when exactly symmetric, where (K + K^T)/2 has the same bits
    if np.array_equal(K, K.T):
        return K
    scale = np.abs(K).max() or 1.0
    if np.abs(K - K.T).max() > SYMMETRY_RTOL * scale:
        raise ValueError("kernel matrix is not symmetric")
    return 0.5 * (K + K.T)


def mercer_decompose(K, measure, rank_threshold=DEFAULT_RANK_THRESHOLD):
    """Diagonalize the kernel with respect to the measure.

    Eigenvalues come back sorted descending and clipped at zero (a negative
    eigenvalue beyond -PSD_RTOL * scale raises).  The sign of each
    eigenfunction is fixed so its largest-magnitude value on the support is
    positive, first index winning ties, which makes results reproducible up
    to genuinely degenerate eigenspaces.
    """
    return _decompose(K, measure, rank_threshold)[0]


def _decompose(K, measure, rank_threshold):
    """mercer_decompose, also returning the orthonormal eigenvectors V
    (s, s) of B, columns in the decomposition's order and signs, and the
    checked, symmetric K."""
    if not isinstance(measure, DiscreteMeasure):
        measure = DiscreteMeasure(measure)
    M = measure.M
    K = _check_square_symmetric(K, M)
    sup = measure.support()
    s = sup.size
    if s == 0:
        raise ValueError("measure has empty support")
    p_s = measure.masses[sup]
    sqrt_p = np.sqrt(p_s)
    # B is built, symmetrized and diagonalized in its own buffer (numpy
    # buffers B.T where it overlaps the output of B += B.T): B.T is the
    # same symmetric matrix in Fortran order, which eigh overwrites
    # instead of copying
    B = K[np.ix_(sup, sup)]
    B *= sqrt_p[:, None]
    B *= sqrt_p
    B += B.T
    B *= 0.5
    w, V = scipy.linalg.eigh(B.T, overwrite_a=True, check_finite=False)
    del B
    w = w[::-1]
    V = V[:, ::-1]

    scale = max(abs(w[0]), abs(w[-1]), 1e-300)
    if w[-1] < -PSD_RTOL * scale:
        raise ValueError(
            f"kernel is not positive semidefinite under this measure "
            f"(min eigenvalue {w[-1]:.3e} at scale {scale:.3e})"
        )
    eta = np.clip(w, 0.0, None)

    # sign convention: largest-|value| entry on the support is positive
    mag = np.abs(V)
    mag /= sqrt_p[:, None]
    anchor = np.argmax(mag, axis=0)
    del mag
    signs = np.sign(V[anchor, np.arange(s)])
    signs[signs == 0] = 1.0
    # a new array, not V *= signs: the gradient's products with V must see
    # it in Fortran order, not as the reversed view, to keep their bits
    V = V * signs

    rank = int(np.count_nonzero(eta > rank_threshold * eta[0])) if eta[0] > 0 else 0
    if s == M:
        Phi = np.divide(V[:, :rank], sqrt_p[:, None], order="C")
    else:
        Phi_s = V[:, :rank] / sqrt_p[:, None]
        Phi = np.zeros((M, rank))
        Phi[sup] = Phi_s
        if rank:
            Phi_s *= p_s[:, None]
            off = np.flatnonzero(measure.masses == 0)
            Phi[off] = K[np.ix_(off, sup)] @ Phi_s / eta[:rank]

    return SpectralDecomposition(
        eigenvalues=eta,
        Phi=Phi,
        measure=measure,
        support=sup,
        rank=rank,
        rank_threshold=float(rank_threshold),
    ), V, K


def project_target(dec, Y):
    """In-RKHS coefficients abar = Phi^T diag(p) Y, shape (rank, C).

    With a complete basis (rank = M at full support) this satisfies the
    Parseval identity sum_rho abar_rho^2 = <Y^2>_p per output.
    """
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    if Y.shape[0] != dec.Phi.shape[0]:
        raise ValueError("Y must have one row per dataset point")
    sup = dec.support
    p_s = dec.measure.masses[sup]
    return dec.Phi[sup].T @ (p_s[:, None] * Y[sup])


def _overlap_matrix(Phi, ptilde):
    """Test-measure Gram matrix of the eigenfunctions,
    O[rho, gam] = sum_mu ptilde_mu phi_rho(x_mu) phi_gam(x_mu), symmetrized.
    """
    O = Phi.T @ (ptilde[:, None] * Phi)
    return 0.5 * (O + O.T)


# ---------------------------------------------------------------------------
# Binary cache.  Same header convention as datasets: magic, little-endian
# uint64 dimensions, float64 payload.
# ---------------------------------------------------------------------------

# Bump when the stored layout or the sign/rank conventions change, so old
# entries stop matching instead of being silently reused.
CACHE_FORMAT_VERSION = 3

_HEADER_BYTES = 3 * 8
_DIGEST_BYTES = hashlib.sha256().digest_size


def decomposition_cache_key(K, measure, rank_threshold=DEFAULT_RANK_THRESHOLD):
    """Content hash of (format version, Gram matrix, masses, threshold)."""
    h = hashlib.sha256(f"kernelshift-decomposition-v{CACHE_FORMAT_VERSION}"
                       .encode())
    h.update(np.ascontiguousarray(K, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(measure.masses, dtype="<f8").tobytes())
    h.update(np.float64(rank_threshold).tobytes())
    return h.hexdigest()


def save_decomposition(path, dec):
    """Write via a temporary file and rename, so a killed writer never
    leaves a partial entry at `path`.  A sha256 of everything after the
    magic closes the file, so damage of any size is caught on load."""
    M = dec.Phi.shape[0]
    parts = (np.asarray([M, dec.n_modes, dec.rank], dtype="<u8"),
             np.asarray([dec.rank_threshold], dtype="<f8"),
             np.ascontiguousarray(dec.eigenvalues, dtype="<f8"),
             np.ascontiguousarray(dec.Phi, dtype="<f8"),
             np.ascontiguousarray(dec.measure.masses, dtype="<f8"))
    digest = hashlib.sha256()
    with atomic_open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        for part in parts:
            part.tofile(fh)
            digest.update(part)
        fh.write(digest.digest())


def load_decomposition(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != BINARY_MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {BINARY_MAGIC!r}")
        header = fh.read(_HEADER_BYTES)
        if len(header) != _HEADER_BYTES:
            raise ValueError("truncated decomposition header")
        M, m, rank = (int(v) for v in np.frombuffer(header, dtype="<u8"))
        # check the size before reading, so a corrupt header cannot ask
        # for a huge allocation
        n_values = 1 + m + M * rank + M
        expected = len(BINARY_MAGIC) + _HEADER_BYTES + 8 * n_values \
            + _DIGEST_BYTES
        if os.fstat(fh.fileno()).st_size != expected or rank > m:
            raise ValueError("truncated or corrupt decomposition payload")
        body = bytearray(8 * n_values)
        fh.readinto(body)
        stored = fh.read(_DIGEST_BYTES)
    digest = hashlib.sha256(header)
    digest.update(body)
    if digest.digest() != stored:
        raise ValueError("corrupt decomposition payload: checksum mismatch")
    values = np.frombuffer(body, dtype="<f8")
    eta = values[1:1 + m]
    Phi = values[1 + m:1 + m + M * rank].reshape(M, rank)
    measure = DiscreteMeasure(values[1 + m + M * rank:])
    return SpectralDecomposition(
        eigenvalues=eta,
        Phi=Phi,
        measure=measure,
        support=measure.support(),
        rank=rank,
        rank_threshold=float(values[0]),
    )
