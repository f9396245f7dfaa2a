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
(:func:`haar_stack`): closed form in the plane (on Python floats for one
matrix), Gram-Schmidt applied twice for n = 3 and 4, and one stacked
LAPACK QR otherwise or for a nearly dependent matrix.  One matrix and a
stack of them are computed alike, to the bit.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, fields

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

# Smallest normal float: a squared column norm below it lost digits to
# underflow.
_TINY = float(np.finfo(float).tiny)


class Record:
    """Base of the package's result dataclasses.  ``to_dict`` gives every
    init field by name, an array as its ``tolist()`` and a dict, list or
    tuple copied (a tuple as a list), so a record's JSON form follows from
    its fields alone."""

    def to_dict(self) -> dict:
        out = {}
        for name in (f.name for f in fields(self) if f.init):
            v = getattr(self, name)
            out[name] = (v.tolist() if isinstance(v, np.ndarray) else
                         dict(v) if isinstance(v, dict) else
                         list(v) if isinstance(v, (list, tuple)) else v)
        return out


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
        if len(shapes) == 1:
            return [flat.reshape(count, *shapes[0])]
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
    distributed.  The path depends only on the shape of G:

    * n = 2 is closed form: with (u, v) the unit first column of G and
      sigma the sign of u G_11 - v G_01 (1 at 0),
      Q = [[u, -sigma v], [v, sigma u]].  One matrix evaluates it on
      Python floats, a stack with numpy ops; each step is one correctly
      rounded operation, so both give the same bits.
    * n = 3 and 4 take classical Gram-Schmidt applied twice (see
      :func:`_gram_schmidt`), whose R diagonal is positive, which is the
      sign fix.
    * Other n take one stacked LAPACK QR.

    A matrix that the first two cannot normalise takes the LAPACK QR
    alone: a first column (n = 2) whose squared norm is zero, below the
    smallest normal float or overflows, or a column that Gram-Schmidt
    finds nearly dependent.  So each matrix of a stack equals its
    one-matrix result bit for bit, and no path warns on a zero, dependent
    or badly scaled column.
    """
    if G.shape == (2, 2):
        (a, b), (c, d) = G.tolist()
        rr = a * a + c * c
        if not _TINY <= rr < math.inf:
            return _sign_fixed_qr(G)
        r = math.sqrt(rr)
        u, v = a / r, c / r
        sigma = -1.0 if u * d < v * b else 1.0
        return np.array([[u, -sigma * v], [v, sigma * u]])
    n = G.shape[-1]
    if n == 2:
        a, b = G[..., 0, 0], G[..., 0, 1]
        c, d = G[..., 1, 0], G[..., 1, 1]
        with np.errstate(all="ignore"):
            rr = a * a + c * c
            r = np.sqrt(rr)
            u, v = a / r, c / r
            sigma = np.where(u * d < v * b, -1.0, 1.0)
            good = (rr >= _TINY) & (rr < np.inf)
        Q = np.empty(G.shape)
        Q[..., 0, 0], Q[..., 1, 0] = u, v
        Q[..., 0, 1], Q[..., 1, 1] = -sigma * v, sigma * u
        if not good.all():
            Q[~good] = _sign_fixed_qr(G[~good])
        return Q
    if n in (3, 4):
        return _gram_schmidt(G)
    return _sign_fixed_qr(G)


def _sign_fixed_qr(G: np.ndarray) -> np.ndarray:
    """The Q of one stacked LAPACK QR, its columns rescaled by the signs
    of diag(R) (a zero sign counts as 1)."""
    Q, R = np.linalg.qr(G)
    d = np.sign(np.diagonal(R, axis1=-2, axis2=-1))
    d[d == 0] = 1.0
    return Q * d[..., None, :]


def _gram_schmidt(G: np.ndarray) -> np.ndarray:
    """Sign-fixed Q of G (n, n) or (N, n, n) for small n, column by
    column: subtract the projection onto the previous columns of Q twice,
    then normalise.  The second pass keeps Q orthogonal to rounding level
    (Giraud, Langou & Rozloznik 2005).  The stack is laid out column,
    entry, matrix, so every step is one elementwise op over the matrices
    and each matrix takes the arithmetic it takes alone.

    A matrix with a column whose remaining squared norm is at most 1e-16
    of the column's own (a zero or dependent column, or a condition
    number beyond about 1e8), or below the smallest normal float, takes
    :func:`_sign_fixed_qr` alone; so does one that overflows.
    """
    n = G.shape[-1]
    S = G.reshape(-1, n, n)
    X = np.ascontiguousarray(S.transpose(2, 1, 0))  # X[j, k]: G[:, k, j]
    Q = np.empty(X.shape)

    def sums(P):                    # sum over the entry axis, in order
        s = P[..., 0, :]
        for k in range(1, n):
            s = s + P[..., k, :]
        return s

    pivots = np.empty((n, len(S)))
    with np.errstate(all="ignore"):
        for j in range(n):
            x, B = X[j], Q[:j]
            for _ in range(2 if j else 0):
                for p in sums(B * x)[:, None] * B:
                    x = x - p
            pivots[j] = sums(x * x)
            Q[j] = x / np.sqrt(pivots[j])
        good = (pivots > 1e-16 * sums(X * X) + _TINY).all(axis=0)
    Q = np.ascontiguousarray(Q.transpose(2, 1, 0))
    if not good.all():
        Q[~good] = _sign_fixed_qr(S[~good])
    return Q.reshape(G.shape)


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
