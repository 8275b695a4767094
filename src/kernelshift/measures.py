"""Datasets, discrete probability measures, and synthetic samplers.

A dataset is a fixed collection of M points with D input features and C
target columns.  Train and test distributions over the same dataset are
represented as discrete measures (nonnegative masses summing to one), which
is all the downstream theory needs: expectations become mass-weighted sums.
"""

import numbers
import os
import reprlib
from dataclasses import dataclass

import numpy as np

from ._rng import rng_from
from .io import read_csv_columns, read_npz, write_csv_atomic, write_npz_atomic

MASS_TOL = 1e-12
# |K - K.T| tolerance, relative to the largest |K| entry
SYMMETRY_RTOL = 1e-8
# side of the square tiles kernel_matrix checks K in: a tile and its
# mirror, 512 KB each, stay in a core's L2 cache
_CHECK_TILE = 256

_NPZ_MAGIC = b"PK\x03\x04"  # an .npz file is a zip archive
_DATASET_FORMATS = ("an .npz archive with arrays X (M, D) and Y (M, C) or "
                    "(M,), or a CSV file with header f0..f{D-1},y0..y{C-1}")


def target_columns(Y, M):
    """Targets as a float64 (M, C) array, a 1-D Y being one output; any
    other shape, row count or a non-finite entry raises ValueError."""
    Y = np.asarray(Y, dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    if Y.ndim != 2:
        raise ValueError(f"Y must be 2-D (M, C) or 1-D (M,), got shape "
                         f"{Y.shape}")
    if Y.shape[0] != M:
        raise ValueError(f"Y has {Y.shape[0]} rows, not one per point ({M})")
    if not np.all(np.isfinite(Y)):
        raise ValueError("Y contains non-finite entries")
    return Y


def points(X, M=None):
    """Points as a float64, C-contiguous (M, D) array, with M rows when M
    is given; any other shape or a non-finite entry raises ValueError."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D (M, D), got shape {X.shape}")
    if M is not None and X.shape[0] != M:
        raise ValueError(f"X has {X.shape[0]} rows, not one per point ({M})")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains non-finite entries")
    return X


def kernel_matrix(K, M=None):
    """A Gram matrix as a float64 (M, M) array, square when M is None,
    that is finite and symmetric within SYMMETRY_RTOL of its largest
    entry: K itself when exactly symmetric, where (K + K^T)/2 has the
    same bits, and (K + K^T)/2 otherwise. Anything else raises
    ValueError."""
    K = np.asarray(K, dtype=np.float64)
    if (K.ndim != 2 or K.shape[0] != K.shape[1]
            or M not in (None, K.shape[0])):
        raise ValueError(f"K must be {'square' if M is None else (M, M)}, "
                         f"got shape {K.shape}")
    # a tile pair at a time, so no temporary is larger than a tile
    exact = True
    for upper, lower in _mirror_tiles(K):
        if not (np.all(np.isfinite(upper)) and np.all(np.isfinite(lower))):
            raise ValueError("K contains non-finite entries")
        exact = exact and np.array_equal(upper, lower.T)
    if exact:
        return K
    scale = asymmetry = 0.0
    for upper, lower in _mirror_tiles(K):
        scale = max(scale, np.abs(upper).max(), np.abs(lower).max())
        asymmetry = max(asymmetry, np.abs(upper - lower.T).max())
    if asymmetry > SYMMETRY_RTOL * (scale or 1.0):
        raise ValueError("K is not symmetric")
    K = K + K.T
    K *= 0.5
    return K


def _mirror_tiles(K):
    """The square tiles of K on and above its diagonal, each with its
    mirror image below it: (K[I, J], K[J, I]) for tile ranges I <= J."""
    n = K.shape[0]
    for i in range(0, n, _CHECK_TILE):
        for j in range(i, n, _CHECK_TILE):
            yield (K[i:i + _CHECK_TILE, j:j + _CHECK_TILE],
                   K[j:j + _CHECK_TILE, i:i + _CHECK_TILE])


def nonnegative(value, name):
    """value as a float, or a float64 array if it has a shape, when every
    entry is finite and >= 0 (a ridge, a noise, a theory P, a spectrum)."""
    try:
        x = np.asarray(value, dtype=np.float64)
        ok = x.size == 0 or (x.min() >= 0 and x.max() < np.inf)  # NaN fails
    except (TypeError, ValueError, OverflowError):  # None, 10**400, "a"
        ok = False
    if not ok:
        raise ValueError(f"{name} must be nonnegative and finite, got "
                         f"{reprlib.repr(value)}")
    return float(x) if x.ndim == 0 else x


def positive_int(value, name, low=1):
    """value as an int if it is an integer >= low, 1 unless given (a
    count); 2.0 is not."""
    if not isinstance(value, numbers.Integral) or value < low:
        want = "a positive integer" if low == 1 else f"an integer >= {low}"
        raise ValueError(f"{name} must be {want}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Dataset:
    """Points X (M, D) and targets Y (M, C); a point is its row index."""

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = points(self.X)
        Y = np.ascontiguousarray(target_columns(self.Y, X.shape[0]))
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def M(self):
        return self.X.shape[0]

    @property
    def D(self):
        return self.X.shape[1]

    @property
    def C(self):
        return self.Y.shape[1]


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability masses over the M dataset points.

    Masses must be nonnegative and sum to one within MASS_TOL.  Tiny masses
    are kept as-is; nothing is truncated, so softmax-parameterized measures
    keep full support.
    """

    masses: np.ndarray

    def __post_init__(self):
        p = nonnegative(self.masses, "masses")
        if np.ndim(p) != 1:
            raise ValueError("masses must be a 1-D vector")
        total = p.sum()
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"masses sum to {total!r}, not 1 within {MASS_TOL}")
        object.__setattr__(self, "masses", np.ascontiguousarray(p))

    @property
    def M(self):
        return self.masses.shape[0]

    def support(self):
        """Indices with strictly positive mass."""
        return np.flatnonzero(self.masses > 0.0)


def as_measure(measure):
    """measure itself when it is a DiscreteMeasure, else the
    DiscreteMeasure of these masses."""
    if isinstance(measure, DiscreteMeasure):
        return measure
    return DiscreteMeasure(measure)


def uniform_measure(M):
    M = positive_int(M, "M")
    return DiscreteMeasure(np.full(M, 1.0 / M))


def from_logits(z):
    """Softmax of a logit vector; invariant to a constant shift of z. A
    logit of -inf is a zero mass; NaN and +inf raise ValueError."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError("logits must be a 1-D vector")
    top = z.max() if z.size else np.nan
    if not np.isfinite(top):   # a NaN or +inf logit, or none finite
        raise ValueError(f"logits must be finite or -inf, one of them "
                         f"finite, got {reprlib.repr(z)}")
    w = np.exp(z - top)
    return DiscreteMeasure(w / w.sum())


@dataclass(frozen=True)
class SyntheticSpec:
    """Synthetic input distributions.

    kind = "gaussian_diag": independent centered Gaussians, per-feature
        variances `variances` (length D).
    kind = "sphere": uniform on the sphere of radius `radius` in `dim`
        dimensions; every sampled row has Euclidean norm exactly `radius`.
    kind = "rectangular": independent uniform features on
        [-sqrt(3) sigma_a, +sqrt(3) sigma_a], so feature a has variance
        sigma_a^2 (length-D vector `sigmas`).
    """

    kind: str
    variances: tuple = None
    radius: float = None
    dim: int = None
    sigmas: tuple = None

    def __post_init__(self):
        if self.kind == "gaussian_diag":
            if self.variances is None:
                raise ValueError("gaussian_diag needs per-feature variances")
            object.__setattr__(self, "variances", tuple(
                nonnegative(self.variances, "variances").tolist()))
        elif self.kind == "sphere":
            if self.radius is None or self.dim is None:
                raise ValueError("sphere needs radius and dim")
            radius = nonnegative(self.radius, "radius")
            if not radius > 0:
                raise ValueError("sphere needs radius > 0")
            object.__setattr__(self, "radius", radius)
            object.__setattr__(self, "dim", positive_int(self.dim, "dim"))
        elif self.kind == "rectangular":
            if self.sigmas is None:
                raise ValueError("rectangular needs per-feature sigmas")
            object.__setattr__(self, "sigmas", tuple(
                nonnegative(self.sigmas, "sigmas").tolist()))
        else:
            raise ValueError(f"unknown synthetic kind {self.kind!r}")

    @property
    def D(self):
        if self.kind == "gaussian_diag":
            return len(self.variances)
        if self.kind == "sphere":
            return self.dim
        return len(self.sigmas)


def synth_sample(spec, n, seed, label="synth"):
    """Sample n rows from a SyntheticSpec. Returns an (n, D) array."""
    rng = rng_from(seed, label)
    if spec.kind == "gaussian_diag":
        sd = np.sqrt(np.asarray(spec.variances))
        return rng.standard_normal((n, spec.D)) * sd
    if spec.kind == "sphere":
        g = rng.standard_normal((n, spec.dim))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        # resample the (measure-zero) degenerate rows rather than dividing by ~0
        bad = np.flatnonzero(norms[:, 0] < 1e-12)
        while bad.size:
            g[bad] = rng.standard_normal((bad.size, spec.dim))
            norms[bad] = np.linalg.norm(g[bad], axis=1, keepdims=True)
            bad = np.flatnonzero(norms[:, 0] < 1e-12)
        return spec.radius * (g / norms)
    if spec.kind == "rectangular":
        half = np.sqrt(3.0) * np.asarray(spec.sigmas)
        return rng.uniform(-1.0, 1.0, size=(n, spec.D)) * half
    raise ValueError(f"unknown synthetic kind {spec.kind!r}")


def _standardized(X):
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd > 0, sd, 1.0)
    return (X - mu) / sd


def load_dataset(path, standardize=False):
    """Load a dataset from an .npz archive (see io.read_npz), or from CSV
    when the file does not start with the zip magic; row index becomes
    the id.

    standardize=True applies per-feature (X - mean) / std using the file's
    own statistics; the default leaves data exactly as stored. A file that
    cannot be read raises ValueError naming the path and the formats.
    """
    try:
        with open(path, "rb") as fh:
            head = fh.read(4)
        if head == _NPZ_MAGIC:
            ds = Dataset(*read_npz(path, ("X", "Y")))
        else:
            ds = _load_csv(path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read dataset {os.fspath(path)!r}: {exc}. "
                         f"Accepted formats: {_DATASET_FORMATS}") from exc
    if standardize:
        ds = Dataset(_standardized(ds.X), ds.Y)
    return ds


def _load_csv(path):
    cols = read_csv_columns(path)
    names = list(cols)
    D = sum(name.startswith("f") for name in names)
    expected = ([f"f{j}" for j in range(D)]
                + [f"y{j}" for j in range(len(names) - D)])
    if names != expected or D in (0, len(names)):
        raise ValueError(
            f"CSV header must be f0..f{{D-1}},y0..y{{C-1}}, got {names!r}")
    data = np.column_stack(list(cols.values()))
    if data.shape[0] == 0:
        raise ValueError("CSV file has no data rows")
    return Dataset(data[:, :D], data[:, D:])


def save_dataset(path, dataset):
    """Write a dataset as CSV for a .csv path and as an .npz archive
    otherwise, via a temporary file and rename."""
    if os.path.splitext(path)[1].lower() == ".csv":
        header = ([f"f{j}" for j in range(dataset.D)]
                  + [f"y{j}" for j in range(dataset.C)])
        write_csv_atomic(path, header, np.hstack([dataset.X, dataset.Y]))
    else:
        write_npz_atomic(path, X=dataset.X, Y=dataset.Y)
