"""Deterministic RNG streams.

Every stochastic routine in the package draws from a Generator derived from
(seed, call-site label, *indices).  Labels keep independent call sites from
sharing a stream, and indexing by e.g. (P, trial) makes results independent
of execution order, so parallel and serial runs agree bit for bit.
"""

import zlib

import numpy as np
# numpy loads numpy.random on first use; loading it here keeps that cost
# in start-up, not in the first run that draws
import numpy.random  # noqa: F401

_MASK64 = (1 << 64) - 1


def seed_words(seed, label, *indices):
    """Entropy tuple for a SeedSequence: (seed, crc32(label), *indices)."""
    words = [int(seed) & _MASK64, zlib.crc32(label.encode("utf-8"))]
    words.extend(int(i) & _MASK64 for i in indices)
    return tuple(words)


def rng_from(seed, label, *indices):
    """A fresh PCG64 Generator keyed by (seed, label, *indices)."""
    return np.random.default_rng(np.random.SeedSequence(seed_words(seed, label, *indices)))
