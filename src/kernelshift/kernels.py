"""Kernel families and Gram matrices.

Supported kernels:

- linear:  K(x, x') = x.x' / D
- rbf:     K(x, x') = exp(-|x - x'|^2 / (2 ls^2))
- laplace: K(x, x') = exp(-|x - x'| / ls)         (Euclidean distance)
- fourier_bandlimited: 1-D band-limited kernel
           K(x, x') = sum_{k=1..n_modes} cos(k pi (x - x'))
- ntk_relu: analytic NTK of a bias-free fully connected ReLU network.

NTK convention (pinned by golden values in the tests): depth counts weight
layers, so depth 1 is the plain dot product.  Layer covariances use the
He-style factor-2 ReLU moments, which makes the diagonal exactly |x|^2 at
every layer and the kernel homogeneous of degree 2 in the inputs:

    kappa0(t) = (pi - arccos t) / pi
    kappa1(t) = (t (pi - arccos t) + sqrt(1 - t^2)) / pi
    S_1 = x.x',  Theta_1 = S_1
    S_l = |x||x'| kappa1(t_{l-1}),  Theta_l = S_l + Theta_{l-1} kappa0(t_{l-1})

with t_l = S_l / (|x||x'|) clamped to [-1, 1].  Golden values at unit norms:
depth 2, cos(theta)=0 gives 1/pi; depth 2, cos(theta)=1 gives 2.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .measures import nonnegative, points, positive_int

KERNEL_KINDS = ("linear", "rbf", "laplace", "fourier_bandlimited", "ntk_relu")
# the kinds whose Gram entries are computed each on its own, not by BLAS
_ENTRYWISE_KINDS = ("rbf", "laplace", "fourier_bandlimited")


@dataclass(frozen=True)
class KernelSpec:
    kind: str
    lengthscale: float = 1.0
    n_modes: int = None
    depth: int = None

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        lengthscale = nonnegative(self.lengthscale, "lengthscale")
        if not lengthscale > 0:
            raise ValueError("lengthscale must be positive")
        object.__setattr__(self, "lengthscale", lengthscale)
        if self.kind == "fourier_bandlimited":
            object.__setattr__(self, "n_modes",
                               positive_int(self.n_modes, "n_modes"))
        if self.kind == "ntk_relu":
            object.__setattr__(self, "depth",
                               positive_int(self.depth, "depth"))


def arccos_kappa0(t):
    t = np.clip(t, -1.0, 1.0)
    return (np.pi - np.arccos(t)) / np.pi


def arccos_kappa1(t):
    t = np.clip(t, -1.0, 1.0)
    return (t * (np.pi - np.arccos(t)) + np.sqrt(np.maximum(0.0, 1.0 - t * t))) / np.pi


def ntk_relu_eval(depth, dot, n1, n2):
    """NTK value(s) from raw dot products and the two input norms.

    Broadcasts over arrays.  Homogeneous of degree 2: scaling the norms by
    (c1, c2) and the dot by c1*c2 scales the result by c1*c2.  Zero-norm
    inputs give 0 (a ReLU network with no bias vanishes at the origin).
    """
    dot = np.asarray(dot, dtype=np.float64)
    n1 = np.asarray(n1, dtype=np.float64)
    n2 = np.asarray(n2, dtype=np.float64)
    scale = n1 * n2
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.where(scale > 0, dot / np.where(scale > 0, scale, 1.0), 0.0)
    t = np.clip(t, -1.0, 1.0)
    S = scale * t
    theta = S.copy()
    for _ in range(positive_int(depth, "depth") - 1):
        k0 = arccos_kappa0(t)
        S = scale * arccos_kappa1(t)
        theta = S + theta * k0
        with np.errstate(invalid="ignore", divide="ignore"):
            t = np.where(scale > 0, S / np.where(scale > 0, scale, 1.0), 0.0)
        t = np.clip(t, -1.0, 1.0)
    return np.where(scale > 0, theta, 0.0)


# entries of one strip of the distance accumulator: with its scratch
# block, 2 x 256 KB, which stays in a typical L2 cache
_DIST_BLOCK = 1 << 15


def _radial_gram(spec, X1, X2, threads):
    """The rbf or laplace Gram of X1 and X2, or of X1 with itself when X2
    is None.

    Squared distances are summed one feature at a time from k = 0. This
    is the order scipy's cdist sums in, so they are bit-identical to
    cdist(X1, X2, "sqeuclidean"), and their square root to "euclidean".
    The expanded form |x|^2 + |y|^2 - 2 x.y would be faster but loses
    accuracy near the diagonal, worst under the laplace kernel's square
    root. Rows go in strips so the accumulator stays in cache, and each
    strip is turned into kernel values in place: the same roundings as
    exp(-d2 / (2 ls^2)) and exp(-d / ls). The square case computes each
    strip from its diagonal on, the upper triangle, and mirrors it into
    the lower one; (x - y)^2 == (y - x)^2, so that is the full Gram's
    bits. Strips go to a pool of `threads` workers, or run inline at 1.
    """
    square = X2 is None
    n1, D = X1.shape
    X1T = np.ascontiguousarray(X1.T)
    X2T = X1T if square else np.ascontiguousarray(X2.T)
    n2 = X2T.shape[1]
    K = np.empty((n1, n2))
    rows = max(1, _DIST_BLOCK // max(1, n2))
    scale = -2.0 * spec.lengthscale**2 if spec.kind == "rbf" \
        else -spec.lengthscale

    def strip(lo):
        hi = min(lo + rows, n1)
        first = lo if square else 0
        # contiguous buffers: numpy is about twice as fast on them as on
        # the strided rows of K
        acc = np.zeros((hi - lo, n2 - first))
        diff = np.empty_like(acc)
        for k in range(D):
            np.subtract(X1T[k, lo:hi, None], X2T[k, first:], out=diff)
            np.multiply(diff, diff, out=diff)
            acc += diff
        if spec.kind == "laplace":
            np.sqrt(acc, out=acc)
        acc /= scale
        np.exp(acc, out=K[lo:hi, first:])
        if square:
            K[hi:, lo:hi] = K[lo:hi, hi:].T

    starts = range(0, n1, rows)
    if threads == 1 or len(starts) == 1:
        for lo in starts:
            strip(lo)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(strip, starts))
    return K


def gram(spec, X1, X2=None, threads=1):
    """Gram matrix K[i, j] = K(X1[i], X2[j]); X2=None means X2 = X1.
    Both point sets go through measures.points, and must have the same
    number of features.

    The square case is bit-identically symmetric. The rbf, laplace and
    fourier_bandlimited kinds are computed entry by entry (K[i, j] depends
    on X1[i] and X2[j] alone, and is the same with the two swapped), so
    for them any block of a Gram also has the bits of the Gram of the
    block's points, gram(spec, X)[np.ix_(r, c)] == gram(spec, X[r], X[c]).
    The linear and ntk_relu dot products come from BLAS, whose roundings
    depend on the shapes around an entry; their square case is
    symmetrized as (K + K.T)/2, and ntk_relu's takes its diagonal dot
    products from the norms, so its diagonal is exactly depth |x|^2.
    `threads` workers share the rbf and laplace distance strips; the
    result does not depend on it.
    """
    threads = positive_int(threads, "threads")
    X1 = points(X1)
    square = X2 is None
    X2 = X1 if square else points(X2)
    if X1.shape[1] != X2.shape[1]:
        raise ValueError(f"X1 has {X1.shape[1]} features and X2 has "
                         f"{X2.shape[1]}")

    if spec.kind == "linear":
        K = X1 @ X2.T / X1.shape[1]
    elif spec.kind in ("rbf", "laplace"):
        K = _radial_gram(spec, X1, None if square else X2, threads)
    elif spec.kind == "fourier_bandlimited":
        if X1.shape[1] != 1:
            raise ValueError("fourier_bandlimited is defined for 1-D inputs only")
        # |x - x'|, so swapping the two inputs keeps every bit
        delta = np.abs(np.pi * (X1 - X2.T))  # (n1, n2)
        K = np.zeros_like(delta)
        for k in range(1, spec.n_modes + 1):
            K += np.cos(k * delta)
    elif spec.kind == "ntk_relu":
        dots = X1 @ X2.T
        norms1 = np.linalg.norm(X1, axis=1)
        norms2 = np.linalg.norm(X2, axis=1)
        if square:  # the cosine's own divisors, so t = 1 exactly there
            np.fill_diagonal(dots, norms1 * norms2)
        K = ntk_relu_eval(spec.depth, dots, norms1[:, None], norms2[None, :])
    else:  # pragma: no cover - guarded by KernelSpec
        raise ValueError(f"unknown kernel kind {spec.kind!r}")

    if square and spec.kind not in _ENTRYWISE_KINDS:
        K = 0.5 * (K + K.T)
    return K
