"""Closed convex cone representations with Euclidean projections.

Every representation projects a batch of rows (``project_point`` is row 0
of a one-row batch), classifies the face whose relative interior holds
each projection, and has a polar.  Structural rules, where exact:

* generated and inequality cones are each other's polars, and a generic
  polar swaps the inner cone's generators and normals;
* a generated cone takes outer normals from its facets (:func:`_facets`);
  l1 subdifferential cones, subspaces, isometric images and products of
  cones with normals carry normals too, so all count as inequality cones
  where normals are needed, and intersections stack them;
* images of generated cones are generated cones; images of inequality
  cones under square invertible maps are inequality cones (A^{-T} W, or
  Q W for a rotation), and under tall maps A = QR of full column rank the
  isometric image Q of one (R^{-T} W); any other image of K is cone(A V),
  V the generators of K (an inequality cone's from the facets of cone(W)),
  or is priced (an l1 subdifferential cone, :func:`_generators`);
* planar generated and inequality cones, and stacks of one 2-row matrix
  per row, project by closed-form wedge arithmetic;
* one face rule serves every cone (:func:`_face_span`): the active
  normals where a cone has normals, else the positive generators.

Otherwise generated and inequality cones and images project by a batched
Lawson-Hanson NNLS active set; these projections and face rules are module
functions that also take one matrix per row.  ``project_batch(X,
faces=False)`` returns the same points and flags with ``face_dims`` None,
skipping face classification.  The one batched iterative fallback,
Dykstra's alternating projections, serves intersections with a side that
has no normals (a non-isometric image, or a generated cone over
``EXACT_MAX_PAIRS`` facet subsets).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .solvers import _chunk_rows, _nnls_batch
from .numerics import Record, svd

__all__ = [
    "ProjectionResult",
    "Cone",
    "Subspace",
    "NonnegOrthant",
    "GeneratorCone",
    "InequalityCone",
    "L1SubdiffCone",
    "LinearImage",
    "PolarCone",
    "ProductCone",
    "IntersectionCone",
    "project",
    "polar",
    "linear_image",
    "generators_of",
    "preimage_cone",
    "intersect",
    "rotate",
    "zero_cone",
    "full_space",
    "cone_from_dict",
]

# Relative tolerance for active-set / face classification.
FACE_TOL = 1e-10
# Dykstra alternating projections.
DYKSTRA_TOL = 1e-9
DYKSTRA_MAX_SWEEPS = 10_000
# Subsets above which the facet and support enumerations give up.
EXACT_MAX_PAIRS = 10_000

_TWO_PI = 2.0 * math.pi


@dataclass
class ProjectionResult(Record):
    """Projection of a point onto a cone.

    ``face_dim`` is the dimension of the face whose relative interior
    contains the projection (None when the representation cannot classify
    faces).  ``iterations`` counts inner solver iterations; closed forms
    report 0.
    """

    point: np.ndarray
    face_dim: int | None
    iterations: int
    converged: bool


class _Batch(tuple):
    """``(points, face_dims, converged)`` of :meth:`Cone.project_batch`,
    carrying the per-row inner solver iterations in ``iterations``."""

    def __new__(cls, P, fd, conv, iterations):
        out = super().__new__(cls, (P, fd, conv))
        out.iterations = iterations
        return out


def _closed_form(P: np.ndarray, fd):
    """The batch of an exact projection: all rows converged, 0 iterations."""
    N = P.shape[0]
    return _Batch(P, fd, np.ones(N, dtype=bool), np.zeros(N, dtype=np.int64))


# ---------------------------------------------------------------------------
# small linear-algebra helpers
# ---------------------------------------------------------------------------

def _orth(M: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Orthonormal basis of the column span of M."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return np.zeros((M.shape[0], 0))
    U, s, _ = svd(M)
    r = int(np.sum(s > tol * max(1.0, s[0] if s.size else 1.0)))
    return U[:, :r]


def _orth_complement(B: np.ndarray, n: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of span(B) in R^n."""
    if B.shape[1] == 0:
        return np.eye(n)
    U, s, _ = np.linalg.svd(B, full_matrices=True)
    r = int(np.sum(s > 1e-12 * max(1.0, s[0])))
    return U[:, r:]


def _null_basis(M: np.ndarray, n: int, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the null space of M (rows act on R^n)."""
    if M.shape[0] == 0:
        return np.eye(n)
    _, s, Vt = np.linalg.svd(M, full_matrices=True)
    r = int(np.sum(s > tol * max(1.0, s[0] if s.size else 1.0)))
    return Vt[r:].T


def _masked_ranks(M: np.ndarray, mask: np.ndarray):
    """Rank of the columns M[:, mask] for a 1-d mask, or for each row of a
    2-d mask (one chunked, batched svd), where M is one n x k matrix or one
    per row (N x n x k); singular values count above 1e-10 * max(1,
    largest)."""
    masks = np.atleast_2d(mask)
    ranks = np.empty(masks.shape[0], dtype=np.int64)
    step = _chunk_rows(M.shape[-2] * M.shape[-1])
    for a in range(0, masks.shape[0], step):
        Ma = M if M.ndim == 2 else M[a:a + step]
        s = np.linalg.svd(Ma * masks[a:a + step, None, :], compute_uv=False)
        ranks[a:a + step] = (s > 1e-10 * np.maximum(1.0, s[:, :1])).sum(axis=1)
    return ranks if mask.ndim == 2 else ranks[0]


def _rows_times(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Row i of X times M, or times M[i] when M holds one matrix per row."""
    return X @ M if M.ndim == 2 else np.matmul(X[:, None, :], M)[:, 0, :]


def _transpose(M: np.ndarray) -> np.ndarray:
    return np.swapaxes(M, -1, -2)


def _coef_face_dims(V: np.ndarray, coef: np.ndarray):
    """Face dimension of V c: the rank of the generators with positive
    coefficients.  coef is one vector or one per row, V is shared or one
    matrix per row."""
    ctol = FACE_TOL * np.maximum(
        1.0, np.max(coef, axis=-1, keepdims=True, initial=0.0))
    return _masked_ranks(V, coef > ctol)


def _active_normals(W: np.ndarray, p: np.ndarray, atol=None):
    """Normals of {x : W^T x <= 0} active at p, one mask per point when p
    holds rows; W is shared or one matrix per row."""
    wn = np.linalg.norm(W, axis=-2)
    base = atol if atol is not None else FACE_TOL
    tol = base * np.maximum(wn, 1.0) * np.maximum(
        1.0, np.linalg.norm(p, axis=-1, keepdims=True))
    return np.abs(_rows_times(p, W)) <= tol


def _normal_face_dims(W: np.ndarray, p: np.ndarray):
    """Face dimension at p of {x : W^T x <= 0}: n minus the rank of the
    active normals."""
    return W.shape[-2] - _masked_ranks(W, _active_normals(W, p))


def _project_generated(V: np.ndarray, X: np.ndarray, G=None, faces=True):
    """Project each row of X onto cone(V) by the batched NNLS kernel, with V
    (n x k) shared or one per row (N x n x k); G is the Gram matrix V^T V,
    computed when not given.  Returns (P, face_dims, converged), face_dims
    None when ``faces`` is false.  One 2-row V per row takes its exact
    wedge form instead (:func:`_planar_rows`): 0 iterations, converged."""
    if V.ndim == 3 and V.shape[1] == 2:
        P, fd = _planar_project(_planar_rows(V), X)
        return _closed_form(P, fd if faces else None)
    if G is None:
        G = _transpose(V) @ V
    coef, iters, ok = _nnls_batch(G, _rows_times(X, V))
    fd = _coef_face_dims(V, coef) if faces else None
    return _Batch(_rows_times(coef, _transpose(V)), fd, ok, iters)


def _project_normals(W: np.ndarray, X: np.ndarray, G=None, faces=True):
    """Project each row of X onto {x : W^T x <= 0} by Moreau, subtracting
    the NNLS projection onto the polar cone(W); W is shared or one matrix
    per row, as in :func:`_project_generated`; one 2-row W per row
    projects onto the polars of its wedge forms."""
    if W.ndim == 3 and W.shape[1] == 2:
        P, fd = _planar_project(_planar_polar_rows(*_planar_rows(W)), X)
        return _closed_form(P, fd if faces else None)
    if G is None:
        G = _transpose(W) @ W
    coef, iters, ok = _nnls_batch(G, _rows_times(X, W))
    P = X - _rows_times(coef, _transpose(W))
    return _Batch(P, _normal_face_dims(W, P) if faces else None, ok, iters)


def _orthonormal_columns(A: np.ndarray) -> bool:
    """Whether A^T A is the identity to 1e-10 (an isometric embedding)."""
    return A.shape[0] >= A.shape[1] and bool(
        np.allclose(A.T @ A, np.eye(A.shape[1]), atol=1e-10))


def _span_intersection_dim(Ba: np.ndarray, Bb: np.ndarray) -> int:
    """dim(span Ba ∩ span Bb) for orthonormal bases Ba, Bb."""
    ka, kb = Ba.shape[1], Bb.shape[1]
    if ka == 0 or kb == 0:
        return 0
    s = np.linalg.svd(np.hstack([Ba, Bb]), compute_uv=False)
    r = int(np.sum(s > 1e-8 * max(1.0, s[0])))
    return ka + kb - r


def _directions(V):
    """Unit columns of V, with zero columns and columns within 1e-12 of the
    direction of an earlier one dropped; None when V is None."""
    if V is None:
        return None
    norms = np.linalg.norm(V, axis=0)
    keep = norms > 1e-14 * max(1.0, norms.max(initial=0.0))
    U = V[:, keep] / norms[keep]
    i = np.arange(U.shape[1])
    return U[:, ~((U.T @ U > 1.0 - 1e-12) & (i[:, None] < i)).any(axis=0)]


def _supports(U, size):
    """(S, Q, R^{-1}) for the linearly independent size-subsets S of the
    unit columns of U, each U[:, S] = Q R, stacked."""
    S = np.array(list(itertools.combinations(range(U.shape[1]), size)),
                 dtype=np.intp).reshape(math.comb(U.shape[1], size), size)
    B = np.swapaxes(U.T[S], 1, 2)
    if size <= 1:
        return S, B, np.ones((len(S), size, size))
    Q, R = np.linalg.qr(B)
    ok = (np.abs(np.diagonal(R, axis1=1, axis2=2)) > 1e-10).all(axis=1)
    return S[ok], Q[ok], np.linalg.inv(R[ok])


def _facets(V: np.ndarray) -> np.ndarray | None:
    """Outer normals W with cone(V) = {x : W^T x <= 0} (a double-description
    step), or None above ``EXACT_MAX_PAIRS`` subsets.

    With r = rank V and B an orthonormal basis of span(V), each facet of
    cone(V) in span(V) spans the hyperplane of r - 1 independent unit
    generators Y = B^T U (:func:`_directions`).  Each such hyperplane's
    unit normal a is kept, as a or -a, when every generator lies behind it
    (Y^T a <= FACE_TOL); the kept ones, duplicates dropped, are mapped back
    by B, and plus and minus a basis of span(V)^perp appended."""
    U = _directions(V)
    B = _orth(U)
    r = B.shape[1]
    A = np.zeros((r, 0))
    if r:
        if math.comb(U.shape[1], r - 1) > EXACT_MAX_PAIRS:
            return None
        Y = B.T @ U
        a = np.linalg.svd(_supports(Y, r - 1)[1])[0][:, :, -1]
        a = np.vstack([a, -a])
        A = _directions(a[(a @ Y <= FACE_TOL).all(axis=1)].T)
    N = _orth_complement(B, V.shape[0])
    return np.hstack([B @ A, N, -N])


# ---------------------------------------------------------------------------
# planar (ambient dimension 2) cone forms
#
# A planar form is a tuple:
#   ("zero",) | ("full",) | ("line", a) | ("ray", a) |
#   ("arc", a, w)  with 0 < w <= pi  (w == pi is a halfplane)
# where the cone is { r*(cos t, sin t) : r >= 0, t in [a, a+w] }.
# Per-row forms are arrays (kind, a, w), kind indexing _KINDS; a and w are
# read only where the form has them.
# ---------------------------------------------------------------------------

_ANG_TOL = 1e-12
_KINDS = ("zero", "full", "line", "ray", "arc")
_ZERO, _FULL, _LINE, _RAY, _ARC = range(5)


def _unit(a: float) -> np.ndarray:
    return np.array([math.cos(a), math.sin(a)])


def _planar_from_generators(V: np.ndarray):
    """Planar form of cone(V) for V with 2 rows; every such V has one.

    A planar cone has few generators, so its columns are scanned as Python
    floats, with one numpy call for their angles."""
    xs, ys = V.tolist()
    norms = [math.sqrt(x * x + y * y) for x, y in zip(xs, ys)]
    cut = 1e-14 * max(1.0, max(norms, default=0.0))
    keep = [i for i, r in enumerate(norms) if r > cut]
    if not keep:
        return ("zero",)
    ang = sorted(np.mod(np.arctan2([ys[i] for i in keep],
                                   [xs[i] for i in keep]), _TWO_PI).tolist())
    gaps = [b - a for a, b in zip(ang, ang[1:] + [ang[0] + _TWO_PI])]
    gmax = max(gaps)
    j = gaps.index(gmax)
    if gmax < math.pi - 1e-9:
        return ("full",)
    lo = ang[(j + 1) % len(ang)]
    w = _TWO_PI - gmax
    if w <= 1e-12:
        return ("ray", lo % _TWO_PI)
    if abs(gmax - math.pi) <= 1e-9:
        # generators span a closed halfplane; antipodal-only sets are a line
        rel = [(a - lo) % _TWO_PI for a in ang]
        if all(r < 1e-9 or abs(r - math.pi) < 1e-9 for r in rel):
            return ("line", lo % _TWO_PI)
        return ("arc", lo % _TWO_PI, math.pi)
    return ("arc", lo % _TWO_PI, w)


def _planar_rows(V: np.ndarray):
    """Per-row forms of cone(V[i]) for a stack V of 2-row matrices
    (N x 2 x k): the array form of :func:`_planar_from_generators`, which
    it equals row for row.  Dropped columns sort last, at an angle of
    4 pi, and row i's wrap-around gap follows its last kept angle."""
    N, _, k = V.shape
    if k == 0:
        return np.zeros(N, dtype=np.int64), np.zeros(N), np.zeros(N)
    x, y = np.ascontiguousarray(V[:, 0]), np.ascontiguousarray(V[:, 1])
    norms = np.sqrt(x * x + y * y)
    cut = 1e-14 * np.maximum(1.0, norms.max(axis=1))
    keep = norms > cut[:, None]
    c = keep.sum(axis=1)
    ang = np.where(keep, np.mod(np.arctan2(y, x), _TWO_PI), 2 * _TWO_PI)
    ang.sort(axis=1)
    j = np.arange(k)
    valid = j < c[:, None]
    nxt = np.where(j == (c - 1)[:, None], ang[:, :1] + _TWO_PI,
                   np.roll(ang, -1, axis=1))
    gaps = np.where(valid, nxt - ang, -1.0)
    top = gaps.argmax(axis=1)
    rows = np.arange(N)
    gmax = gaps[rows, top]
    lo = ang[rows, np.where(top + 1 < c, top + 1, 0)]
    span = _TWO_PI - gmax
    rel = np.mod(ang - lo[:, None], _TWO_PI)
    antipodal = ((rel < 1e-9) | (np.abs(rel - math.pi) < 1e-9)
                 | ~valid).all(axis=1)
    half = np.abs(gmax - math.pi) <= 1e-9
    kind = np.select([c == 0, gmax < math.pi - 1e-9, span <= 1e-12,
                      half & antipodal], [_ZERO, _FULL, _RAY, _LINE], _ARC)
    return kind, np.mod(lo, _TWO_PI), np.where(half, math.pi, span)


def _planar_polar(form):
    kind = form[0]
    if kind == "zero":
        return ("full",)
    if kind == "full":
        return ("zero",)
    if kind == "line":
        return ("line", (form[1] + math.pi / 2) % _TWO_PI)
    if kind == "ray":
        return ("arc", (form[1] + math.pi / 2) % _TWO_PI, math.pi)
    a, w = form[1], form[2]
    if abs(w - math.pi) <= 1e-12:
        return ("ray", (a - math.pi / 2) % _TWO_PI)
    return ("arc", (a + w + math.pi / 2) % _TWO_PI, math.pi - w)


def _planar_polar_rows(kind, a, w):
    """Row-wise :func:`_planar_polar` of per-row forms (kind, a, w)."""
    half = (kind == _ARC) & (np.abs(w - math.pi) <= 1e-12)
    arc = (kind == _ARC) & ~half
    pkind = np.array([_FULL, _ZERO, _LINE, _ARC, _ARC])[kind]
    pkind[half] = _RAY
    pa = np.select([half, arc], [np.mod(a - math.pi / 2, _TWO_PI),
                                 np.mod(a + w + math.pi / 2, _TWO_PI)],
                   np.mod(a + math.pi / 2, _TWO_PI))
    pw = np.select([kind == _RAY, arc], [math.pi, math.pi - w], 0.0)
    return pkind, pa, pw


def _planar_project(form, X: np.ndarray):
    """Vectorized projection of the rows of X onto a planar form, or of
    row i onto form i of per-row forms (kind, a, w).  A shared form takes a
    shortcut per kind; per-row forms run the wedge arithmetic on every row,
    with a ray or a line as a wedge's first edge.

    Returns (P, face_dims).
    """
    N = X.shape[0]
    kind = form[0]
    rows = not isinstance(kind, str)
    if rows:
        kind, a, w = form
        ua = np.column_stack([np.cos(a), np.sin(a)])
        ub = np.column_stack([np.cos(a + w), np.sin(a + w)])
        line = kind == _LINE
    else:
        if kind == "zero":
            return np.zeros_like(X), np.zeros(N, dtype=np.int64)
        if kind == "full":
            return X.copy(), np.full(N, 2, dtype=np.int64)
        if kind == "line":
            u = _unit(form[1])
            t = X @ u
            return np.outer(t, u), np.ones(N, dtype=np.int64)
        if kind == "ray":
            u = _unit(form[1])
            t = np.maximum(X @ u, 0.0)
            fd = (t > FACE_TOL * (1.0 + np.abs(X).max(axis=1))).astype(
                np.int64)
            return np.outer(t, u), fd
        a, w = form[1], form[2]
        ua, ub = _unit(a), _unit(a + w)
    phi = np.mod(np.arctan2(X[:, 1], X[:, 0]) - a, _TWO_PI)
    inside = phi <= w
    on_b = (phi > w) & (phi <= w + math.pi / 2)
    on_a = phi >= 3 * math.pi / 2
    # halfplane: the boundary line is a 1-face containing 0 in its
    # relative interior, so clipped hits keep face dimension 1
    one = abs(w - math.pi) <= 1e-12
    if rows:
        arc = kind == _ARC
        inside = inside & arc | (kind == _FULL)
        on_b &= arc
        on_a = on_a & arc | line | (kind == _RAY)
        one = one | line
    P = np.where(inside[:, None], X, 0.0)
    fd = np.where(inside, 2, 0)
    for edge, u in ((on_b, ub), (on_a, ua)):
        if not edge.any():
            continue
        Xe = X[edge]
        if rows:
            u = u[edge]
            t = np.einsum("ij,ij->i", Xe, u)
            t = np.where(line[edge], t, np.maximum(t, 0.0))
        else:
            t = np.maximum(Xe @ u, 0.0)
        P[edge] = t[:, None] * u
        fd[edge] = t > FACE_TOL * (1.0 + np.abs(Xe).max(axis=1))
    if rows or one:
        fd[(on_a | on_b) & one] = 1
    return P, fd


# ---------------------------------------------------------------------------
# cone representations
# ---------------------------------------------------------------------------

class Cone:
    """Base class: a closed convex cone in R^n.

    A subclass defines one of :meth:`project_batch` and
    :meth:`project_point`; each default runs the other.  The span of a
    face, which only an intersection reads, comes from one module rule over
    the normals or generators (:func:`_face_span`), not from a method.
    """

    n: int

    def project_point(self, x: np.ndarray) -> ProjectionResult:
        """Project one point: row 0 of ``project_batch(x[None, :])``, with
        a face dimension of -1 read as None."""
        P, fd, conv = batch = self.project_batch(x[None, :])
        return ProjectionResult(P[0], None if fd[0] < 0 else int(fd[0]),
                                int(batch.iterations[0]), bool(conv[0]))

    def project_batch(self, X: np.ndarray, faces: bool = True):
        """Project the rows of X.  Returns (P, face_dims, converged), a
        tuple whose ``iterations`` holds each row's inner solver
        iterations (0 for closed forms).

        face_dims uses -1 for projections the representation cannot
        classify; face_dims is None when ``faces=False``, which leaves P
        and converged unchanged and skips the face classification.  The
        default loops over :meth:`project_point`, for representations that
        project one point at a time.
        """
        rs = [self.project_point(x) for x in X]
        P = np.array([r.point for r in rs], dtype=float).reshape(X.shape)
        fd = np.array([-1 if r.face_dim is None else r.face_dim for r in rs],
                      dtype=np.int64)
        return _Batch(P, fd if faces else None,
                      np.array([r.converged for r in rs], dtype=bool),
                      np.array([r.iterations for r in rs], dtype=np.int64))

    def to_dict(self) -> dict:
        raise NotImplementedError


class Subspace(Cone):
    """A linear subspace, stored as an orthonormal basis (n x d).

    The zero cone is the d = 0 case.
    """

    def __init__(self, basis: np.ndarray):
        B = np.asarray(basis, dtype=float)
        if B.ndim != 2:
            raise ValueError("basis must be a 2-d array (n x d)")
        if B.shape[1] > 0:
            G = B.T @ B
            if not np.allclose(G, np.eye(B.shape[1]), atol=1e-8):
                raise ValueError("basis columns must be orthonormal "
                                 "(use Subspace.span to orthonormalize)")
        self.basis = B
        self.n = B.shape[0]
        self.dim = B.shape[1]

    @classmethod
    def span(cls, M: np.ndarray) -> "Subspace":
        """Subspace spanned by the columns of M (orthonormalized)."""
        M = np.asarray(M, dtype=float)
        return cls(_orth(M))

    def project_batch(self, X, faces=True):
        P = (X @ self.basis) @ self.basis.T
        fd = np.full(X.shape[0], self.dim, dtype=np.int64) if faces else None
        return _closed_form(P, fd)

    def to_dict(self):
        return {"variant": "subspace", "basis": self.basis.tolist()}


class NonnegOrthant(Cone):
    """The nonnegative orthant in R^n."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = int(n)

    def project_batch(self, X, faces=True):
        P = np.maximum(X, 0.0)
        fd = None
        if faces:
            atol = FACE_TOL * np.maximum(1.0, np.abs(X).max(axis=1))
            fd = (P > atol[:, None]).sum(axis=1).astype(np.int64)
        return _closed_form(P, fd)

    def to_dict(self):
        return {"variant": "nonneg_orthant", "n": self.n}


class GeneratorCone(Cone):
    """Finitely generated cone {V c : c >= 0} with generators as columns."""

    def __init__(self, V: np.ndarray):
        V = np.asarray(V, dtype=float)
        if V.ndim != 2:
            raise ValueError("V must be 2-d (n x k)")
        if not np.isfinite(V).all():
            raise ValueError("generators must be finite")
        self.V = V
        self.n, self.k = V.shape
        self._gram = V.T @ V if self.n != 2 else None

    @functools.cached_property
    def _planar(self):
        """Wedge form of a planar cone, built when first read; None off
        the plane."""
        return _planar_from_generators(self.V) if self.n == 2 else None

    @functools.cached_property
    def _normals(self):
        """Outer normals from :func:`_facets`, built when first read."""
        return _facets(self.V)

    def project_batch(self, X, faces=True):
        if self._planar is not None:
            P, fd = _planar_project(self._planar, X)
            return _closed_form(P, fd if faces else None)
        return _project_generated(self.V, X, self._gram, faces)

    def to_dict(self):
        return {"variant": "generator_cone", "V": self.V.tolist()}


class InequalityCone(Cone):
    """Polyhedral cone {x : W^T x <= 0} with outer normals as columns of W."""

    def __init__(self, W: np.ndarray):
        W = np.asarray(W, dtype=float)
        if W.ndim != 2:
            raise ValueError("W must be 2-d (n x r)")
        if not np.isfinite(W).all():
            raise ValueError("normals must be finite")
        self.W = W
        self.n, self.r = W.shape
        self._gram = W.T @ W if self.n != 2 else None

    @functools.cached_property
    def _planar(self):
        """Wedge form of a planar cone, the polar of cone(W), built when
        first read; None off the plane."""
        return (_planar_polar(_planar_from_generators(self.W))
                if self.n == 2 else None)

    @functools.cached_property
    def _generators(self):
        """Generators from :func:`_facets` of cone(W), whose polar this
        cone is, built when first read."""
        return _facets(self.W)

    def project_batch(self, X, faces=True):
        if self._planar is not None:
            P, fd = _planar_project(self._planar, X)
            return _closed_form(P, fd if faces else None)
        return _project_normals(self.W, X, self._gram, faces)

    def to_dict(self):
        return {"variant": "inequality_cone", "W": self.W.tolist()}


class L1SubdiffCone(Cone):
    """Cone over the weighted l1-norm subdifferential at a sign pattern.

    With support I, signs sigma and positive weights w, this is
    ``{z : z_i = t*sigma_i*w_i (i in I), |z_j| <= t*w_j (j not in I), t >= 0}``.
    Projection reduces to an exact one-dimensional piecewise-quadratic
    minimization over t, solved in closed form.
    """

    def __init__(self, ambient: int, support, signs,
                 weights: np.ndarray | None = None):
        if ambient < 1:
            raise ValueError("ambient dimension must be positive")
        support = np.asarray(support, dtype=np.int64)
        signs = np.asarray(signs, dtype=float)
        if support.ndim != 1 or signs.shape != support.shape:
            raise ValueError("support and signs must be 1-d of equal length")
        if support.size == 0:
            raise ValueError("support must be nonempty")
        if np.unique(support).size != support.size or \
                support.min() < 0 or support.max() >= ambient:
            raise ValueError("support must be distinct indices in [0, ambient)")
        if not np.all(np.abs(signs) == 1.0):
            raise ValueError("signs must be +-1")
        w = np.ones(ambient) if weights is None else \
            np.asarray(weights, dtype=float)
        if w.shape != (ambient,) or not np.all(w > 0):
            raise ValueError("weights must be positive, length = ambient")
        self.n = int(ambient)
        self.support = support
        self.signs = signs
        self.weights = w
        self._off = np.setdiff1d(np.arange(ambient), support)
        self._su = np.zeros(ambient)
        self._su[support] = signs * w[support]   # support direction of the ray
        self._Wsum = float(np.sum(w[support] ** 2))

    def project_batch(self, X, faces=True):
        N = X.shape[0]
        off = self._off
        wI = self.weights[self.support]
        b = (X[:, self.support] * (self.signs * wI)).sum(axis=1)
        if off.size:
            wO = self.weights[off]
            a = np.abs(X[:, off])
            tau = a / wO
            order = np.argsort(-tau, axis=1)
            tau_s = np.take_along_axis(tau, order, axis=1)
            wa_s = np.take_along_axis(a * wO, order, axis=1)
            w2_s = np.take_along_axis(
                np.broadcast_to(wO * wO, a.shape), order, axis=1)
            S1 = np.concatenate([np.zeros((N, 1)), np.cumsum(wa_s, axis=1)], axis=1)
            S2 = np.concatenate([np.zeros((N, 1)), np.cumsum(w2_s, axis=1)], axis=1)
            roots = (b[:, None] + S1) / (self._Wsum + S2)
            hi = np.concatenate([np.full((N, 1), np.inf), tau_s], axis=1)
            lo = np.concatenate([tau_s, np.zeros((N, 1))], axis=1)
            valid = (roots <= hi) & (roots >= lo)
            # phi' is increasing, so exactly one segment holds the root
            idx = np.argmax(valid, axis=1)
            t = np.where(valid.any(axis=1), roots[np.arange(N), idx], 0.0)
        else:
            t = b / self._Wsum
        t = np.maximum(t, 0.0)
        P = np.zeros_like(X)
        P[:, self.support] = t[:, None] * (self.signs * wI)
        cap = t[:, None] * self.weights[off]
        P[:, off] = np.clip(X[:, off], -cap, cap)
        if not faces:
            return _closed_form(P, None)
        scale = np.maximum(1.0, np.abs(X).max(axis=1))
        pos = t > FACE_TOL * scale
        free = np.abs(X[:, off]) < cap - (FACE_TOL * scale)[:, None]
        fd = np.where(pos, 1 + free.sum(axis=1), 0).astype(np.int64)
        return _closed_form(P, fd)

    def to_dict(self):
        return {"variant": "l1_subdiff_cone", "ambient": self.n,
                "support": self.support.tolist(),
                "signs": self.signs.tolist(),
                "weights": self.weights.tolist()}


class LinearImage(Cone):
    """Image cone {A v : v in inner}, projected exactly.

    When A has orthonormal columns the image is an isometric embedding, so
    projection and face classification reduce exactly to the inner cone;
    otherwise it projects onto cone(A V) or over priced generators (see
    :func:`_generators`).  Construct through :func:`linear_image` to pick
    up further structural simplifications; instantiate directly to force
    this representation.
    """

    def __init__(self, A: np.ndarray, inner: Cone):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[1] != inner.n:
            raise ValueError("A must map the inner cone's space")
        self.A = A
        self.inner = inner
        self.n = A.shape[0]
        self._isometric = _orthonormal_columns(A)

    def project_batch(self, X, faces=True):
        if self._isometric:
            P, fd, conv = batch = self.inner.project_batch(X @ self.A, faces)
            return _Batch(P @ self.A.T, fd, conv, batch.iterations)
        g = _generators(self.inner)
        if g is None:
            raise ValueError(f"{type(self.inner).__name__} has no pricing "
                             "oracle and no generators within EXACT_MAX_PAIRS"
                             f" = {EXACT_MAX_PAIRS} facet subsets")
        if callable(g):
            return _project_priced(self.A, g, X, faces)
        return _project_generated(self.A @ g, X, faces=faces)

    def to_dict(self):
        return {"variant": "linear_image", "A": self.A.tolist(),
                "inner": self.inner.to_dict()}


class PolarCone(Cone):
    """Generic polar wrapper, projected via the Moreau decomposition."""

    def __init__(self, inner: Cone):
        self.inner = inner
        self.n = inner.n

    def project_batch(self, X, faces=True):
        P, fd, conv = batch = self.inner.project_batch(X, faces)
        if faces:
            fd = np.where(fd >= 0, self.n - fd, -1)
        return _Batch(X - P, fd, conv, batch.iterations)

    def to_dict(self):
        return {"variant": "polar", "inner": self.inner.to_dict()}


class ProductCone(Cone):
    """Direct product of cones, living in the concatenated space."""

    def __init__(self, parts: list[Cone]):
        if not parts:
            raise ValueError("product of zero cones is not defined")
        self.parts = list(parts)
        self.n = sum(p.n for p in parts)
        self._slices = []
        off = 0
        for p in parts:
            self._slices.append(slice(off, off + p.n))
            off += p.n

    def project_batch(self, X, faces=True):
        N = X.shape[0]
        P = np.empty_like(X)
        fd = np.zeros(N, dtype=np.int64)
        conv = np.ones(N, dtype=bool)
        iters = np.zeros(N, dtype=np.int64)
        bad = np.zeros(N, dtype=bool)
        for part, sl in zip(self.parts, self._slices):
            P[:, sl], fp, cp = batch = part.project_batch(X[:, sl], faces)
            conv &= cp
            iters += batch.iterations
            if faces:
                bad |= fp < 0
                fd += np.where(fp < 0, 0, fp)
        fd[bad] = -1
        return _Batch(P, fd if faces else None, conv, iters)

    def to_dict(self):
        return {"variant": "product",
                "parts": [p.to_dict() for p in self.parts]}


class IntersectionCone(Cone):
    """Intersection of two cones, projected by Dykstra's alternating scheme
    on all rows in lockstep; faces come row by row from both sides, each
    side's face span by the one rule :func:`_face_span`."""

    def __init__(self, left: Cone, right: Cone):
        if left.n != right.n:
            raise ValueError("ambient dimensions must match")
        self.left = left
        self.right = right
        self.n = left.n

    def project_batch(self, X, faces=True):
        P, sweeps, conv, Ya = _dykstra(self.left, self.right, X)
        fd = np.array([self._face_dim(*row) for row in zip(X, Ya, P)],
                      dtype=np.int64) if faces else None
        return _Batch(P, fd, conv, sweeps)

    def _face_dim(self, x, pa, pb):
        atol = max(100 * DYKSTRA_TOL, FACE_TOL) * (1.0 + float(np.linalg.norm(x)))
        if np.linalg.norm(pb) <= atol:
            return 0
        Ba = _face_span(self.left, pa, atol)
        Bb = _face_span(self.right, pb, atol)
        return -1 if Ba is None or Bb is None else _span_intersection_dim(Ba, Bb)

    def to_dict(self):
        return {"variant": "intersection", "left": self.left.to_dict(),
                "right": self.right.to_dict()}


# ---------------------------------------------------------------------------
# constructors and structural operations
# ---------------------------------------------------------------------------

def zero_cone(n: int) -> Subspace:
    return Subspace(np.zeros((n, 0)))


def full_space(n: int) -> Subspace:
    return Subspace(np.eye(n))


def polar(cone: Cone) -> Cone:
    """Polar cone {z : <z, x> <= 0 for all x in the cone}.

    Structural where exact: generated <-> inequality representations swap,
    subspaces map to orthogonal complements, double polars unwrap.
    """
    if isinstance(cone, Subspace):
        return Subspace(_orth_complement(cone.basis, cone.n))
    if isinstance(cone, NonnegOrthant):
        return InequalityCone(np.eye(cone.n))
    if isinstance(cone, GeneratorCone):
        return InequalityCone(cone.V)
    if isinstance(cone, InequalityCone):
        return GeneratorCone(cone.W)
    if isinstance(cone, PolarCone):
        return cone.inner
    if isinstance(cone, ProductCone):
        return ProductCone([polar(p) for p in cone.parts])
    return PolarCone(cone)


def generators_of(cone: Cone) -> np.ndarray | None:
    """Generator matrix V with cone = {V c : c >= 0}, when available.

    The generators of a :class:`PolarCone` are the outer normals of its
    inner cone (see :func:`_inequality_matrix`).
    """
    if isinstance(cone, NonnegOrthant):
        return np.eye(cone.n)
    if isinstance(cone, GeneratorCone):
        return cone.V
    if isinstance(cone, Subspace):
        return np.hstack([cone.basis, -cone.basis])
    if isinstance(cone, PolarCone):
        return _inequality_matrix(cone.inner)
    if isinstance(cone, ProductCone):
        return _block_diagonal(cone, [generators_of(p) for p in cone.parts])
    return None


def _block_diagonal(cone: ProductCone, blocks) -> np.ndarray | None:
    """The column blocks of a product's parts placed on its coordinate
    slices, or None when a part has no block."""
    if any(B is None for B in blocks):
        return None
    out = np.zeros((cone.n, sum(B.shape[1] for B in blocks)))
    col = 0
    for sl, B in zip(cone._slices, blocks):
        out[sl, col:col + B.shape[1]] = B
        col += B.shape[1]
    return out


def linear_image(A: np.ndarray, inner: Cone) -> Cone:
    """The image cone A(inner), simplified structurally when exact.

    Exact rules, in order: subspaces map to the span of the mapped basis;
    cones with generators V map to ``GeneratorCone(A V)``; an l1
    subdifferential cone, or its polar, under an A with orthonormal
    columns stays a :class:`LinearImage`, whose isometric projection is the
    inner closed form; an inequality cone {x : W^T x <= 0} (see
    :func:`_inequality_matrix`) under a square invertible A (smallest
    singular value above 1e-12 times the largest) maps to
    ``InequalityCone(A^{-T} W)``, which for a rotation Q is
    ``InequalityCone(Q W)``; under a tall A of full column rank, A = QR
    with min |diag R| above 1e-12 times the largest, it maps to
    ``LinearImage(Q, InequalityCone(R^{-T} W))``, projected isometrically.
    Every other pair, such as an inequality or l1 subdifferential cone
    under a wide or singular map, returns a :class:`LinearImage`.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[1] != inner.n:
        raise ValueError("A must map the inner cone's space")
    if isinstance(inner, Subspace):
        return Subspace.span(A @ inner.basis)
    closed_form = inner.inner if isinstance(inner, PolarCone) else inner
    if isinstance(closed_form, L1SubdiffCone) and _orthonormal_columns(A):
        return LinearImage(A, inner)
    V = generators_of(inner)
    if V is not None:
        return GeneratorCone(A @ V)
    W = _inequality_matrix(inner)
    if W is not None and A.shape[0] == A.shape[1]:
        s = np.linalg.svd(A, compute_uv=False)
        if s[-1] > 1e-12 * s[0]:
            return InequalityCone(np.linalg.solve(A.T, W))
    if W is not None and A.shape[0] > A.shape[1]:
        Q, R = np.linalg.qr(A)
        d = np.abs(np.diag(R))
        if d.min() > 1e-12 * d.max():
            return LinearImage(Q, InequalityCone(np.linalg.solve(R.T, W)))
    return LinearImage(A, inner)


def rotate(cone: Cone, Q: np.ndarray) -> Cone:
    """Image of the cone under an orthogonal map Q, which must be n x n
    with max |Q^T Q - I| <= 1e-10 (ValueError otherwise).  An inequality
    cone {x : W^T x <= 0} maps to ``InequalityCone(Q W)``, since
    Q^{-T} = Q; every other cone goes through :func:`linear_image`."""
    Q = np.asarray(Q, dtype=float)
    n = cone.n
    if Q.shape != (n, n) or not np.abs(Q.T @ Q - np.eye(n)).max() <= 1e-10:
        raise ValueError("Q must be an n x n orthogonal matrix")
    if isinstance(cone, InequalityCone):
        return InequalityCone(Q @ cone.W)
    return linear_image(Q, cone)


def preimage_cone(A: np.ndarray, D: Cone) -> Cone:
    """The preimage A^{-1}(D°) = (A^T D)°, represented through the polar of
    the image cone."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != D.n:
        raise ValueError("A must map into the space of D")
    return polar(linear_image(A.T, D))


def _inequality_matrix(cone: Cone) -> np.ndarray | None:
    """Outer-normal matrix W with cone = {x : W^T x <= 0}, when available.

    A generated cone has the normals of its facets (:func:`_facets`, None
    above ``EXACT_MAX_PAIRS`` subsets), a :class:`PolarCone` the generators
    of its inner cone, else the facets of the inner cone's normals, and an
    isometric :class:`LinearImage` {A v : W^T v <= 0} has [A W, N, -N], N
    a basis of (range A)^perp.
    An l1 subdifferential cone with support I, signs sigma and weights w
    has u = sigma w on I (zero elsewhere) and t = <u, x>/|u|^2; its
    normals are e_j - w_j u/|u|^2 and -e_j - w_j u/|u|^2 for each j off
    I (|x_j| <= t w_j), plus and minus a basis of the complement of u
    within the coordinates of I (x_I parallel to u_I), and -u/|u|^2 when
    I is everything (t >= 0): 2(n - |I|) + 2(|I| - 1) columns, plus one.
    A :class:`Subspace` has plus and minus an orthonormal basis of its
    complement (the zero subspace +-I, the full space no columns), and a
    :class:`ProductCone` the block-diagonal normals of its parts, or None
    when a part has none.
    """
    if isinstance(cone, InequalityCone):
        return cone.W
    if isinstance(cone, NonnegOrthant):
        return -np.eye(cone.n)
    if isinstance(cone, GeneratorCone):
        return cone._normals
    if isinstance(cone, PolarCone):
        V = generators_of(cone.inner)
        W = _inequality_matrix(cone.inner) if V is None else None
        return V if W is None else _facets(W)
    if isinstance(cone, LinearImage) and cone._isometric:
        W = _inequality_matrix(cone.inner)
        if W is not None:
            N = _orth_complement(cone.A, cone.n)
            return np.hstack([cone.A @ W, N, -N])
    if isinstance(cone, L1SubdiffCone):
        return _l1_normals(cone)
    if isinstance(cone, Subspace):
        N = _orth_complement(cone.basis, cone.n)
        return np.hstack([N, -N])
    if isinstance(cone, ProductCone):
        return _block_diagonal(cone, [_inequality_matrix(p)
                                      for p in cone.parts])
    return None


def _l1_normals(cone: L1SubdiffCone) -> np.ndarray:
    """Outer normals of an l1 subdifferential cone; see
    :func:`_inequality_matrix`."""
    n, I, off = cone.n, cone.support, cone._off
    t = cone._su / cone._Wsum                  # <t, x> = u^T x / |u|^2
    E = np.zeros((n, off.size))
    E[off, np.arange(off.size)] = 1.0
    caps = cone.weights[off] * t[:, None]
    flat = np.zeros((n, I.size - 1))
    flat[I] = _orth_complement(cone._su[I, None], I.size)
    cols = [E - caps, -E - caps, flat, -flat]
    if off.size == 0:
        cols.append(-t[:, None])
    return np.hstack(cols)


def _generators(cone: Cone):
    """The cone's generators for its images: a matrix V (as
    :func:`generators_of` gives, an inequality cone's facets of cone(W), a
    product's or an image's from its parts), or a pricing oracle price(C)
    giving, per row c of C, a generator u maximizing <u, c>; None for a
    part with neither.  An l1 subdifferential cone is generated by u(s) =
    sigma w on its support and s w off it, s in {-1, 1}^off, so the best
    has s = sign(c_off), ties going to +1."""
    if isinstance(cone, L1SubdiffCone):
        off, w = cone._off, cone.weights[cone._off]

        def price(C):
            U = np.tile(cone._su, (len(C), 1))
            U[:, off] = np.where(C[:, off] < 0, -w, w)
            return U
        return price
    if isinstance(cone, InequalityCone):
        return cone._generators
    if isinstance(cone, LinearImage):       # A u for the inner cone's u
        g = _generators(cone.inner)
        if callable(g):
            return lambda C: g(C @ cone.A) @ cone.A.T
        return None if g is None else cone.A @ g
    if not isinstance(cone, ProductCone):
        return generators_of(cone)
    parts = [_generators(p) for p in cone.parts]
    if not any(map(callable, parts)):
        return _block_diagonal(cone, parts)
    if any(g is None for g in parts):
        return None
    prices = [g if callable(g) else (   # a zero column serves empty parts
        lambda C, V=np.hstack([g, np.zeros((len(g), 1))]):
        V.T[np.argmax(C @ V, axis=1)]) for g in parts]

    def price(C):        # the best of the parts' best, each on its slice
        U = np.zeros((len(parts),) + C.shape)
        for Ui, f, sl in zip(U, prices, cone._slices):
            Ui[:, sl] = f(C[:, sl])
        best = np.einsum("pij,ij->pi", U, C).argmax(axis=0)
        return U[best, np.arange(len(C))]
    return price


def _face_span(cone: Cone, p: np.ndarray, atol: float) -> np.ndarray | None:
    """Orthonormal basis of the span of the face of the cone whose relative
    interior holds p, a point of the cone, or None without a rule: the null
    space of the normals active at p (:func:`_inequality_matrix`), else the
    span of the listed generators (:func:`_generators`, images included)
    whose NNLS coefficients for p exceed atol max(1, largest), as
    :func:`_normal_face_dims` and :func:`_coef_face_dims` count; else a
    product's parts on their slices, or an isometric image A's inner cone
    at A^T p, mapped by A."""
    W = _inequality_matrix(cone)
    if W is not None:
        return _null_basis(W[:, _active_normals(W, p, atol)].T, cone.n)
    V = _generators(cone)
    if V is not None and not callable(V):
        coef = _nnls_batch(V.T @ V, (V.T @ p)[None, :])[0][0]
        return _orth(V[:, coef > atol * max(1.0, coef.max(initial=0.0))])
    if isinstance(cone, ProductCone):
        return _block_diagonal(cone, [_face_span(part, p[sl], atol) for
                                      part, sl in zip(cone.parts,
                                                      cone._slices)])
    if isinstance(cone, LinearImage) and cone._isometric:
        B = _face_span(cone.inner, cone.A.T @ p, atol)
        return None if B is None else cone.A @ B
    return None


def intersect(C: Cone, D: Cone) -> Cone:
    """Intersection C ∩ D.

    Exact rules, in order: subspace pairs and subspace sections of cones
    with normals reduce to exact lower-dimensional representations; two
    cones with normals (:func:`_inequality_matrix`, which covers every
    generated cone under the facet cap) give ``InequalityCone([W_C
    W_D])``, projected in closed form in the plane.  Every other pair, such
    as one with a non-isometric :class:`LinearImage` side, returns an
    :class:`IntersectionCone` projected by Dykstra's algorithm.
    """
    if C.n != D.n:
        raise ValueError("ambient dimensions must match")
    if isinstance(C, Subspace) and isinstance(D, Subspace):
        stacked = np.hstack([C.basis, -D.basis])
        if stacked.shape[1] == 0:
            return zero_cone(C.n)
        _, s, Vt = np.linalg.svd(stacked, full_matrices=True)
        r = int(np.sum(s > 1e-12 * max(1.0, s[0] if s.size else 1.0)))
        N = Vt[r:].T  # null-space pairs (a; b) with C.basis a = D.basis b
        return Subspace.span(C.basis @ N[:C.dim])
    for L, other in ((C, D), (D, C)):
        if isinstance(L, Subspace):
            W = _inequality_matrix(other)
            if W is not None:
                if L.dim == 0:
                    return zero_cone(C.n)
                section = L.basis.T @ W
                return LinearImage(L.basis, InequalityCone(section))
    WC, WD = _inequality_matrix(C), _inequality_matrix(D)
    if WC is not None and WD is not None:
        return InequalityCone(np.hstack([WC, WD]))
    return IntersectionCone(C, D)


# ---------------------------------------------------------------------------
# projection entry point
# ---------------------------------------------------------------------------

def project(cone: Cone, x: np.ndarray) -> ProjectionResult:
    """Project x onto the cone by ``cone.project_point``.

    x must have shape (n,) and finite entries, else ValueError.  The zero
    input (signed zeros included) maps to the zero point with face_dim 0
    by convention, without reaching the cone.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (cone.n,):
        raise ValueError(f"point has shape {x.shape}, expected ({cone.n},)")
    if not np.isfinite(x).all():
        raise ValueError("point must be finite")
    if not x.any():
        return ProjectionResult(np.zeros(cone.n), 0, 0, True)
    return cone.project_point(x)


# ---------------------------------------------------------------------------
# iterative kernels
# ---------------------------------------------------------------------------

def _dykstra(Ca: Cone, Cb: Cone, X: np.ndarray):
    """Dykstra's alternating projections of the rows of X onto Ca ∩ Cb, in
    lockstep: one ``project_batch(faces=False)`` call per side per sweep on
    the running rows.  A row stops at the first sweep after the first where
    |ya - yb| and the change of yb are within DYKSTRA_TOL (1 + |x|); after
    DYKSTRA_MAX_SWEEPS it returns its last yb, unconverged.

    Returns (points, sweeps, converged, last points in Ca), one row each.
    """
    tol = DYKSTRA_TOL * (1.0 + np.linalg.norm(X, axis=1))
    P, Ya = X.copy(), np.empty_like(X)
    Qa, Qb = np.zeros_like(X), np.zeros_like(X)
    sweeps = np.zeros(X.shape[0], dtype=np.int64)
    live = np.arange(X.shape[0])
    for sweep in range(1, DYKSTRA_MAX_SWEEPS + 1):
        if not live.size:
            break
        p = P[live]
        v = p + Qa[live]
        Ya[live] = ya = Ca.project_batch(v, faces=False)[0]
        Qa[live] = v - ya
        v = ya + Qb[live]
        P[live] = yb = Cb.project_batch(v, faces=False)[0]
        Qb[live] = v - yb
        done = (sweep > 1) & (np.linalg.norm(ya - yb, axis=1) <= tol[live]) \
            & (np.linalg.norm(yb - p, axis=1) <= tol[live])
        sweeps[live[done]] = sweep
        live = live[~done]
    conv = sweeps > 0
    return P, np.where(conv, sweeps, DYKSTRA_MAX_SWEEPS), conv, Ya


def _project_priced(A: np.ndarray, price, X: np.ndarray, faces=True):
    """Project each row x of X onto cone(A K), K given by its pricing
    oracle (:func:`_generators`), by Lawson-Hanson over priced columns.

    A row keeps m + 1 column slots: its passive columns and one entering.
    Each round prices u = price(A^T r) at the residual r, so that A u has
    the largest gradient <A u, r>; above the row's dual tolerance, 1e-10
    max(1, that gradient at r = x), A u takes a free slot and
    ``_nnls_batch`` continues from the row's coefficients.  A row stops
    converged within its tolerance or when a round did not decrease |r|,
    unconverged when a solve did not converge or after 3 m + 30 rounds
    (the kernel's step cap, m for k).  Faces follow the coefficient rule."""
    N, m = X.shape
    B, coef = np.zeros((N, m, m + 1)), np.zeros((N, m + 1))
    obj, iters = np.full(N, np.inf), np.zeros(N, dtype=np.int64)
    conv, live = np.zeros(N, dtype=bool), np.arange(N)
    for rnd in range(3 * m + 30):
        r = X[live] - _rows_times(coef[live], _transpose(B[live]))
        b = price(r @ A) @ A.T
        gain, res = np.einsum("ij,ij->i", b, r), np.einsum("ij,ij->i", r, r)
        tol = 1e-10 * np.maximum(1.0, gain) if rnd == 0 else tol
        done = (gain <= tol[live]) | (res >= obj[live])
        conv[live[done]], obj[live] = True, res
        live, b = live[~done], b[~done]
        if not live.size:
            break
        slot = coef[live].argmin(axis=1)
        coef[live, slot], B[live, :, slot] = 0.0, b
        Bl = B[live]
        c, it, ok = _nnls_batch(_transpose(Bl) @ Bl,
                                _rows_times(X[live], Bl), coef[live])
        B[live], coef[live] = Bl * (c > 0)[:, None, :], c
        iters[live] += it
        live = live[ok]
    P = _rows_times(coef, _transpose(B))
    return _Batch(P, _coef_face_dims(B, coef) if faces else None, conv, iters)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def cone_from_dict(d: dict) -> Cone:
    """Rebuild a cone from its ``to_dict`` form."""
    v = d.get("variant")
    if v == "subspace":
        return Subspace(np.asarray(d["basis"], dtype=float))
    if v == "nonneg_orthant":
        return NonnegOrthant(int(d["n"]))
    if v == "generator_cone":
        return GeneratorCone(np.asarray(d["V"], dtype=float))
    if v == "inequality_cone":
        return InequalityCone(np.asarray(d["W"], dtype=float))
    if v == "l1_subdiff_cone":
        w = d.get("weights")
        return L1SubdiffCone(int(d["ambient"]), d["support"], d["signs"],
                             None if w is None else np.asarray(w, dtype=float))
    if v == "linear_image":
        return linear_image(np.asarray(d["A"], dtype=float),
                            cone_from_dict(d["inner"]))
    if v == "polar":
        return PolarCone(cone_from_dict(d["inner"]))
    if v == "product":
        return ProductCone([cone_from_dict(p) for p in d["parts"]])
    if v == "intersection":
        return intersect(cone_from_dict(d["left"]),
                         cone_from_dict(d["right"]))
    raise ValueError(f"unknown cone variant: {v!r}")
