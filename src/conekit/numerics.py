"""Deterministic random streams and small linear-algebra kernels.

All Monte Carlo code in this package draws from :class:`SeededStream`, a
counter-based stream built on numpy's Philox generator.  Sample ``i`` of a
stream is generated from the 128-bit key ``(master_seed, counter + i)`` and
therefore depends only on the stream identity and the sample index, never on
the order in which samples are drawn.  Independent child streams are derived
by hashing the parent identity, so distinct estimator calls never share keys.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SeededStream",
    "svd",
    "haar_orthogonal",
    "gaussian_vector",
    "row_projection",
    "block_ranges",
]

# Fixed block size for bulk sampling.  Block b of a stream is keyed by
# counter + b, so the sample -> key map is static and order-insensitive.
BLOCK = 1024

_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    """One round of the SplitMix64 finalizer (used to derive child seeds)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class SeededStream:
    """Counter-based random stream.

    Parameters
    ----------
    master_seed : int
        64-bit stream identity.
    counter : int
        Base offset into the stream's key space.  Sample ``i`` uses the
        Philox key ``(master_seed, counter + i)``.
    """

    master_seed: int
    counter: int = 0

    def __post_init__(self):
        object.__setattr__(self, "master_seed", int(self.master_seed) & _MASK64)
        object.__setattr__(self, "counter", int(self.counter) & _MASK64)

    def gen(self, index: int = 0) -> np.random.Generator:
        """Generator for sample ``index``; draws within a sample are sequential."""
        key = np.array([self.master_seed, (self.counter + index) & _MASK64],
                       dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "SeededStream":
        """Independent substream ``index``, for handing to a nested consumer."""
        seed = _splitmix64(_splitmix64(_splitmix64(self.master_seed) + self.counter) + index + 1)
        return SeededStream(seed, 0)

    def normal_block(self, block: int, rows: int, cols: int) -> np.ndarray:
        """Standard-normal ``(rows, cols)`` array for block ``block``."""
        return self.gen(block).standard_normal((rows, cols))


def block_ranges(total: int, block: int = BLOCK):
    """Yield ``(block_index, start, count)`` covering ``range(total)``."""
    b = 0
    start = 0
    while start < total:
        count = min(block, total - start)
        yield b, start, count
        b += 1
        start += count


def svd(M: np.ndarray):
    """Singular value decomposition ``M = U @ diag(s) @ Vt``.

    Returns
    -------
    U : ndarray, shape (m, k)
    s : ndarray, shape (k,)
        Singular values in nonincreasing order, k = min(m, n).
    Vt : ndarray, shape (k, n)

    Raises
    ------
    ValueError
        If ``M`` is not a finite 2-d real array.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("svd expects a 2-d array")
    if not np.all(np.isfinite(M)):
        raise ValueError("svd expects finite entries")
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    return U, s, Vt


def haar_orthogonal(n: int, stream: SeededStream, index: int = 0) -> np.ndarray:
    """Haar-distributed orthogonal matrix from O(n).

    QR of a standard Gaussian matrix, with the columns of Q rescaled by the
    signs of diag(R).  Without the sign fix the QR factorization is not
    unique and the result is not Haar distributed.
    """
    if n < 1:
        raise ValueError("n must be positive")
    rng = stream.gen(index) if isinstance(stream, SeededStream) else stream
    return haar_from_rng(n, rng)


def haar_from_rng(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar orthogonal matrix drawn from an already-positioned generator."""
    G = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    d = np.sign(np.diag(R))
    d[d == 0] = 1.0
    return Q * d


def gaussian_vector(n: int, stream: SeededStream, index: int = 0) -> np.ndarray:
    """Standard Gaussian vector in R^n (sample ``index`` of the stream)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = stream.gen(index) if isinstance(stream, SeededStream) else stream
    return rng.standard_normal(n)


def row_projection(m: int, n: int) -> np.ndarray:
    """The m x n coordinate projection [I_m 0] onto the first m coordinates."""
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    P = np.zeros((m, n))
    P[:, :m] = np.eye(m)
    return P
