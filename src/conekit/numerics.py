"""Deterministic random streams and small linear-algebra kernels.

All Monte Carlo code in this package draws from :class:`SeededStream`, a
counter-based stream built on numpy's Philox generator.  Sample ``i`` of a
stream is generated from the 128-bit key ``(master_seed, counter + i)`` and
therefore depends only on the stream identity and the sample index, never on
the order in which samples are drawn.  Independent child streams are derived
by hashing the parent identity, so distinct estimator calls never share keys.

The key map has two consumers.  ``gen(i)`` returns a fresh generator for
sample i, for callers that keep it and draw a variable amount.  ``normals``
draws fixed-shape Gaussians for a run of samples at once; it and every
fixed-shape draw built on it (``normal_block``, ``haar_orthogonal``,
``gaussian_vector``) use one Philox per thread, built once and moved to
each sample's key in turn.  Row i equals what ``gen(start + i)`` gives,
bit for bit, since a keyed counter-based generator at a new key is the
stream a fresh one would give.  The Philox is per thread so that two
threads' draws never interleave.

Haar rotations are sign-fixed QR factors of Gaussian matrices
(:func:`haar_stack`): closed form in the plane, one stacked LAPACK QR
otherwise, with one matrix and a stack of them computed alike.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SeededStream",
    "svd",
    "haar_orthogonal",
    "haar_stack",
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


_THREAD = threading.local()


def _keyed_philox():
    """This thread's Philox, its ``standard_normal``, a state dict of
    Python ints (counter 0, empty buffer) and the dict's key list, which
    :meth:`SeededStream.normals` sets before assigning the dict.  Built on
    the thread's first draw, so importing this module loads no generator."""
    try:
        return _THREAD.philox
    except AttributeError:
        bits = np.random.Philox(0)
        key = [0, 0]
        state = {"bit_generator": "Philox",
                 "state": {"counter": [0, 0, 0, 0], "key": key},
                 "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                 "has_uint32": 0, "uinteger": 0}
        _THREAD.philox = (bits, np.random.Generator(bits).standard_normal,
                          state, key)
        return _THREAD.philox


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
        return np.random.Generator(np.random.Philox(key=self._key(index)))

    def normals(self, start: int, count: int, *shapes) -> list[np.ndarray]:
        """Standard normals of samples ``start .. start + count - 1``: one
        array of shape ``(count, *shape)`` per shape, whose row i holds
        what ``gen(start + i).standard_normal(shape)`` gives, drawn in the
        order of ``shapes``.  One Philox per thread serves every call; it
        is moved to each sample's key with a fresh counter and an empty
        buffer, and draws all of the sample's normals at once (draws within
        a sample are sequential, so splitting them by shape gives the same
        values)."""
        sizes = [math.prod(shape) for shape in shapes]
        flat = np.empty((count, sum(sizes)))
        bits, draw, state, key = _keyed_philox()
        key[0] = self.master_seed
        base = self.counter + int(start)
        for i in range(count):
            key[1] = (base + i) & _MASK64
            bits.state = state
            draw(out=flat[i])
        out, a = [], 0
        for shape, n in zip(shapes, sizes):
            out.append(np.ascontiguousarray(flat[:, a:a + n])
                       .reshape(count, *shape))
            a += n
        return out

    def _key(self, index: int) -> np.ndarray:
        return np.array([self.master_seed,
                         (self.counter + int(index)) & _MASK64],
                        dtype=np.uint64)

    def child(self, index: int) -> "SeededStream":
        """Independent substream ``index``, for handing to a nested consumer."""
        seed = _splitmix64(_splitmix64(_splitmix64(self.master_seed) + self.counter) + index + 1)
        return SeededStream(seed, 0)

    def normal_block(self, block: int, rows: int, cols: int) -> np.ndarray:
        """Standard-normal ``(rows, cols)`` array for block ``block``."""
        return self.normals(block, 1, (rows, cols))[0][0]


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
    """Haar-distributed orthogonal matrix from O(n), sample ``index`` of
    the stream; see :func:`haar_stack`."""
    if n < 1:
        raise ValueError("n must be positive")
    return haar_stack(stream.normals(index, 1, (n, n))[0][0])


def haar_from_rng(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar orthogonal matrix drawn from an already-positioned generator."""
    return haar_stack(rng.standard_normal((n, n)))


def haar_stack(G: np.ndarray) -> np.ndarray:
    """Haar orthogonal matrices from standard Gaussian ones, G of shape
    (n, n) or stacked (N, n, n): the Q of G = QR with the columns of Q
    rescaled by the signs of diag(R) (a zero sign counts as 1).  Without
    the sign fix the factorization is not unique and Q is not Haar
    distributed.

    For n = 2 the sign-fixed Q is closed form: with (u, v) the unit first
    column of G ((1, 0) when it is zero) and sigma the sign of
    u G_11 - v G_01 (1 at 0), Q = [[u, -sigma v], [v, sigma u]].  Other n
    take one stacked LAPACK QR.  The same elementwise arithmetic serves
    one matrix and a stack, so each matrix of a stack equals the
    one-matrix result bit for bit.
    """
    if G.shape[-1] == 2:
        a, b = G[..., 0, 0], G[..., 0, 1]
        c, d = G[..., 1, 0], G[..., 1, 1]
        r = np.sqrt(a * a + c * c)
        if not r.all():
            zero = r == 0
            a, r = np.where(zero, 1.0, a), np.where(zero, 1.0, r)
        u, v = a / r, c / r
        sigma = np.where(u * d < v * b, -1.0, 1.0)
        Q = np.empty(G.shape)
        Q[..., 0, 0], Q[..., 1, 0] = u, v
        Q[..., 0, 1], Q[..., 1, 1] = -sigma * v, sigma * u
        return Q
    Q, R = np.linalg.qr(G)
    d = np.sign(np.diagonal(R, axis1=-2, axis2=-1))
    d[d == 0] = 1.0
    return Q * d[..., None, :]


def gaussian_vector(n: int, stream: SeededStream, index: int = 0) -> np.ndarray:
    """Standard Gaussian vector in R^n (sample ``index`` of the stream)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return stream.normals(index, 1, (n,))[0][0]


def row_projection(m: int, n: int) -> np.ndarray:
    """The m x n coordinate projection [I_m 0] onto the first m coordinates."""
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    P = np.zeros((m, n))
    P[:, :m] = np.eye(m)
    return P
