"""Closed convex cone representations with Euclidean projections.

Every representation knows how to project a point, classify the face whose
relative interior contains the projection (used by intrinsic-volume
estimators), and produce its polar.  Structural simplifications are applied
where they are exact:

* polars of finitely generated cones become inequality cones and back;
* linear images of generated cones become generated cones;
* images of inequality cones under square invertible maps (rotations
  included) become inequality cones, A{x : W^T x <= 0} = {y : (A^{-T}W)^T y
  <= 0};
* intersections of two inequality cones stack their outer normals, and a
  generated cone with square invertible V counts as the inequality cone
  {x : V^{-1} x >= 0};
* planar cones reduce to closed-form wedge arithmetic.

Generated and inequality cones project by a Lawson-Hanson NNLS active set.
Two iterative fallbacks cover what remains: Dykstra's alternating
projections for intersections with a side that has no inequality matrix
(e.g. a generated cone with more generators than dimensions), and
accelerated projected gradient for images under non-square or singular
maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solvers import _nnls_gram
from .numerics import svd

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
# Accelerated projected gradient for linear-image projections.
FISTA_TOL = 1e-9
FISTA_MAX_ITER = 50_000

_TWO_PI = 2.0 * math.pi


@dataclass
class ProjectionResult:
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


def _span_intersection_dim(Ba: np.ndarray, Bb: np.ndarray) -> int:
    """dim(span Ba ∩ span Bb) for orthonormal bases Ba, Bb."""
    ka, kb = Ba.shape[1], Bb.shape[1]
    if ka == 0 or kb == 0:
        return 0
    s = np.linalg.svd(np.hstack([Ba, Bb]), compute_uv=False)
    r = int(np.sum(s > 1e-8 * max(1.0, s[0])))
    return ka + kb - r


# ---------------------------------------------------------------------------
# planar (ambient dimension 2) cone forms
#
# A planar form is a tuple:
#   ("zero",) | ("full",) | ("line", a) | ("ray", a) |
#   ("arc", a, w)  with 0 < w <= pi  (w == pi is a halfplane)
# where the cone is { r*(cos t, sin t) : r >= 0, t in [a, a+w] }.
# ---------------------------------------------------------------------------

_ANG_TOL = 1e-12


def _unit(a: float) -> np.ndarray:
    return np.array([math.cos(a), math.sin(a)])


def _planar_from_generators(V: np.ndarray):
    """Planar form of cone(V) for V with 2 rows; None if not representable."""
    norms = np.linalg.norm(V, axis=0)
    keep = norms > 1e-14 * max(1.0, norms.max(initial=0.0))
    if not keep.any():
        return ("zero",)
    ang = np.sort(np.mod(np.arctan2(V[1, keep], V[0, keep]), _TWO_PI))
    gaps = np.diff(np.concatenate([ang, [ang[0] + _TWO_PI]]))
    j = int(np.argmax(gaps))
    gmax = float(gaps[j])
    if gmax < math.pi - 1e-9:
        return ("full",)
    lo = float(ang[(j + 1) % len(ang)])
    w = _TWO_PI - gmax
    if w <= 1e-12:
        return ("ray", lo % _TWO_PI)
    if abs(gmax - math.pi) <= 1e-9:
        # generators span a closed halfplane; antipodal-only sets are a line
        rel = np.mod(ang - lo, _TWO_PI)
        if np.all((rel < 1e-9) | (np.abs(rel - math.pi) < 1e-9)):
            return ("line", lo % _TWO_PI)
        return ("arc", lo % _TWO_PI, math.pi)
    return ("arc", lo % _TWO_PI, w)


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


def _planar_intersect(f1, f2):
    """Exact intersection of two planar forms.

    Total for the forms this module builds: every arc has width w <= pi
    (``_planar_from_generators`` gives exactly pi or less than
    pi - 1e-9, ``_planar_polar`` gives pi - w), so the overlap lies
    inside the first arc and is at most a halfplane.  The overlap splits
    into two pieces only when w1 + w2 >= 2 pi - 2e-12, that is, for two
    halfplanes with opposite boundaries, which meet in a line.
    """
    for f, g in ((f1, f2), (f2, f1)):
        if f[0] == "zero":
            return ("zero",)
        if f[0] == "full":
            return g
    if f1[0] == "line" or f2[0] == "line":
        line, other = (f1, f2) if f1[0] == "line" else (f2, f1)
        hits = [a for a in (line[1], line[1] + math.pi)
                if _planar_contains(other, a)]
        if len(hits) == 2:
            return line
        if len(hits) == 1:
            return ("ray", hits[0] % _TWO_PI)
        return ("zero",)
    lo1, w1 = (f1[1], 0.0) if f1[0] == "ray" else (f1[1], f1[2])
    lo2, w2 = (f2[1], 0.0) if f2[0] == "ray" else (f2[1], f2[2])
    pieces = []
    for k in (-1, 0, 1):
        lo = max(lo1, lo2 + k * _TWO_PI)
        hi = min(lo1 + w1, lo2 + w2 + k * _TWO_PI)
        if hi >= lo - 1e-12:
            pieces.append((lo, max(hi, lo)))
    merged = []
    for lo, hi in sorted(pieces):
        if merged and lo <= merged[-1][1] + 1e-12:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    if not merged:
        return ("zero",)
    if len(merged) > 1:
        # two halfplanes touching in two antipodal degenerate pieces
        return ("line", merged[0][0] % _TWO_PI)
    lo, hi = merged[0]
    w = hi - lo
    if w <= 1e-12:
        return ("ray", lo % _TWO_PI)
    return ("arc", lo % _TWO_PI, min(w, math.pi))


def _planar_contains(form, angle: float, tol: float = 1e-9) -> bool:
    kind = form[0]
    if kind == "zero":
        return False
    if kind == "full":
        return True
    if kind == "line":
        return min((angle - form[1]) % math.pi,
                   math.pi - (angle - form[1]) % math.pi) <= tol
    w = 0.0 if kind == "ray" else form[2]
    rel = (angle - form[1]) % _TWO_PI
    return rel <= w + tol or rel >= _TWO_PI - tol


def _planar_project(form, X: np.ndarray):
    """Vectorized projection of rows of X onto a planar form.

    Returns (P, face_dims).
    """
    N = X.shape[0]
    kind = form[0]
    if kind == "zero":
        return np.zeros_like(X), np.zeros(N, dtype=np.int64)
    if kind == "full":
        return X.copy(), np.full(N, 2, dtype=np.int64)
    if kind == "line":
        u = _unit(form[1])
        t = X @ u
        return np.outer(t, u), np.ones(N, dtype=np.int64)
    scale = 1.0 + np.abs(X).max(axis=1)
    if kind == "ray":
        u = _unit(form[1])
        t = np.maximum(X @ u, 0.0)
        fd = (t > FACE_TOL * scale).astype(np.int64)
        return np.outer(t, u), fd
    a, w = form[1], form[2]
    ua, ub = _unit(a), _unit(a + w)
    phi = np.mod(np.arctan2(X[:, 1], X[:, 0]) - a, _TWO_PI)
    P = np.zeros_like(X)
    fd = np.zeros(N, dtype=np.int64)
    inside = phi <= w
    P[inside] = X[inside]
    fd[inside] = 2
    on_b = (phi > w) & (phi <= w + math.pi / 2)
    tb = np.maximum(X[on_b] @ ub, 0.0)
    P[on_b] = np.outer(tb, ub)
    fd[on_b] = (tb > FACE_TOL * scale[on_b]).astype(np.int64)
    on_a = phi >= 3 * math.pi / 2
    ta = np.maximum(X[on_a] @ ua, 0.0)
    P[on_a] = np.outer(ta, ua)
    fd[on_a] = (ta > FACE_TOL * scale[on_a]).astype(np.int64)
    if abs(w - math.pi) <= 1e-12:
        # halfplane: the boundary line is a 1-face containing 0 in its
        # relative interior, so clipped hits keep face dimension 1
        fd[on_a | on_b] = 1
    return P, fd


def _planar_face_basis(form, p: np.ndarray, atol: float) -> np.ndarray:
    kind = form[0]
    if kind == "zero":
        return np.zeros((2, 0))
    if kind == "full":
        return np.eye(2)
    if kind == "line":
        return _unit(form[1]).reshape(2, 1)
    if np.linalg.norm(p) <= atol:
        if kind == "arc" and abs(form[2] - math.pi) <= 1e-12:
            return _unit(form[1]).reshape(2, 1)
        return np.zeros((2, 0))
    if kind == "ray":
        return _unit(form[1]).reshape(2, 1)
    a, w = form[1], form[2]
    rel = np.mod(math.atan2(p[1], p[0]) - a, _TWO_PI)
    ang_tol = atol / max(np.linalg.norm(p), atol)
    if rel <= ang_tol or rel >= _TWO_PI - ang_tol:
        return _unit(a).reshape(2, 1)
    if abs(rel - w) <= ang_tol:
        return _unit(a + w).reshape(2, 1)
    return np.eye(2)


def _planar_generator_matrix(form) -> np.ndarray:
    kind = form[0]
    if kind == "zero":
        return np.zeros((2, 0))
    if kind == "full":
        return np.column_stack([_unit(0.0), _unit(2 * math.pi / 3),
                                _unit(4 * math.pi / 3)])
    if kind == "line":
        return np.column_stack([_unit(form[1]), -_unit(form[1])])
    if kind == "ray":
        return _unit(form[1]).reshape(2, 1)
    a, w = form[1], form[2]
    if abs(w - math.pi) <= 1e-12:
        return np.column_stack([_unit(a), _unit(a + w / 2), _unit(a + w)])
    return np.column_stack([_unit(a), _unit(a + w)])


# ---------------------------------------------------------------------------
# cone representations
# ---------------------------------------------------------------------------

class Cone:
    """Base class: a closed convex cone in R^n."""

    n: int

    def project_point(self, x: np.ndarray) -> ProjectionResult:
        raise NotImplementedError

    def project_batch(self, X: np.ndarray):
        """Project the rows of X.  Returns (P, face_dims, converged).

        face_dims uses -1 for projections the representation cannot
        classify.  The default implementation loops over project_point.
        """
        P = np.empty_like(X)
        fd = np.empty(X.shape[0], dtype=np.int64)
        conv = np.empty(X.shape[0], dtype=bool)
        for i in range(X.shape[0]):
            r = self.project_point(X[i])
            P[i] = r.point
            fd[i] = -1 if r.face_dim is None else r.face_dim
            conv[i] = r.converged
        return P, fd, conv

    def face_basis(self, p: np.ndarray, atol: float | None = None):
        """Orthonormal basis of the span of the smallest face containing p.

        p must lie (numerically) in the cone.  Returns None when the
        representation cannot classify faces.
        """
        return None

    def to_dict(self) -> dict:
        raise NotImplementedError

    def _planar_form(self):
        """Planar form for 2-dimensional ambient spaces, else None."""
        return None


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

    def project_point(self, x):
        p = self.basis @ (self.basis.T @ x)
        return ProjectionResult(p, self.dim, 0, True)

    def project_batch(self, X):
        P = (X @ self.basis) @ self.basis.T
        fd = np.full(X.shape[0], self.dim, dtype=np.int64)
        return P, fd, np.ones(X.shape[0], dtype=bool)

    def face_basis(self, p, atol=None):
        return self.basis

    def to_dict(self):
        return {"variant": "subspace", "basis": self.basis.tolist()}

    def _planar_form(self):
        if self.n != 2:
            return None
        if self.dim == 0:
            return ("zero",)
        if self.dim == 2:
            return ("full",)
        b = self.basis[:, 0]
        return ("line", math.atan2(b[1], b[0]) % _TWO_PI)


class NonnegOrthant(Cone):
    """The nonnegative orthant in R^n."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = int(n)

    def project_point(self, x):
        p = np.maximum(x, 0.0)
        atol = FACE_TOL * max(1.0, float(np.max(np.abs(x))))
        return ProjectionResult(p, int(np.sum(p > atol)), 0, True)

    def project_batch(self, X):
        P = np.maximum(X, 0.0)
        atol = FACE_TOL * np.maximum(1.0, np.abs(X).max(axis=1))
        fd = (P > atol[:, None]).sum(axis=1).astype(np.int64)
        return P, fd, np.ones(X.shape[0], dtype=bool)

    def face_basis(self, p, atol=None):
        if atol is None:
            atol = FACE_TOL * max(1.0, float(np.max(np.abs(p), initial=0.0)))
        return np.eye(self.n)[:, p > atol]

    def to_dict(self):
        return {"variant": "nonneg_orthant", "n": self.n}

    def _planar_form(self):
        return ("arc", 0.0, math.pi / 2) if self.n == 2 else None


class GeneratorCone(Cone):
    """Finitely generated cone {V c : c >= 0} with generators as columns."""

    def __init__(self, V: np.ndarray):
        V = np.asarray(V, dtype=float)
        if V.ndim != 2:
            raise ValueError("V must be 2-d (n x k)")
        if not np.all(np.isfinite(V)):
            raise ValueError("generators must be finite")
        self.V = V
        self.n, self.k = V.shape
        self._gram = V.T @ V
        self._planar = _planar_from_generators(V) if self.n == 2 else None

    def project_point(self, x):
        if self._planar is not None:
            P, fd = _planar_project(self._planar, x[None, :])
            return ProjectionResult(P[0], int(fd[0]), 0, True)
        if self.k == 0:
            return ProjectionResult(np.zeros(self.n), 0, 0, True)
        coef, iters, ok = _nnls_gram(self._gram, self.V.T @ x)
        p = self.V @ coef
        return ProjectionResult(p, self._face_dim_from_coef(coef, x), iters, ok)

    def project_batch(self, X):
        if self._planar is not None:
            P, fd = _planar_project(self._planar, X)
            return P, fd, np.ones(X.shape[0], dtype=bool)
        return super().project_batch(X)

    def _face_dim_from_coef(self, coef, x):
        ctol = FACE_TOL * max(1.0, float(np.max(coef, initial=0.0)))
        S = coef > ctol
        if not S.any():
            return 0
        s = np.linalg.svd(self.V[:, S], compute_uv=False)
        return int(np.sum(s > 1e-10 * max(1.0, s[0])))

    def face_basis(self, p, atol=None):
        if self._planar is not None:
            if atol is None:
                atol = FACE_TOL * max(1.0, float(np.linalg.norm(p)))
            return _planar_face_basis(self._planar, p, atol)
        if self.k == 0:
            return np.zeros((self.n, 0))
        coef, _, _ = _nnls_gram(self._gram, self.V.T @ p)
        ctol = (atol if atol is not None else FACE_TOL) * \
            max(1.0, float(np.max(coef, initial=0.0)))
        S = coef > ctol
        return _orth(self.V[:, S]) if S.any() else np.zeros((self.n, 0))

    def to_dict(self):
        return {"variant": "generator_cone", "V": self.V.tolist()}

    def _planar_form(self):
        return self._planar


class InequalityCone(Cone):
    """Polyhedral cone {x : W^T x <= 0} with outer normals as columns of W."""

    def __init__(self, W: np.ndarray):
        W = np.asarray(W, dtype=float)
        if W.ndim != 2:
            raise ValueError("W must be 2-d (n x r)")
        if not np.all(np.isfinite(W)):
            raise ValueError("normals must be finite")
        self.W = W
        self.n, self.r = W.shape
        self._gram = W.T @ W
        self._planar = (_planar_polar(_planar_from_generators(W))
                        if self.n == 2 else None)

    def project_point(self, x):
        if self._planar is not None:
            P, fd = _planar_project(self._planar, x[None, :])
            return ProjectionResult(P[0], int(fd[0]), 0, True)
        if self.r == 0:
            return ProjectionResult(x.copy(), self.n, 0, True)
        # Moreau: subtract the projection onto the polar cone cone(W)
        coef, iters, ok = _nnls_gram(self._gram, self.W.T @ x)
        p = x - self.W @ coef
        return ProjectionResult(p, self._face_dim_at(p), iters, ok)

    def project_batch(self, X):
        if self._planar is not None:
            P, fd = _planar_project(self._planar, X)
            return P, fd, np.ones(X.shape[0], dtype=bool)
        return super().project_batch(X)

    def _active(self, p, atol=None):
        wn = np.linalg.norm(self.W, axis=0)
        base = atol if atol is not None else FACE_TOL
        tol = base * np.maximum(wn, 1.0) * max(1.0, float(np.linalg.norm(p)))
        return np.abs(self.W.T @ p) <= tol

    def _face_dim_at(self, p, atol=None):
        J = self._active(p, atol)
        if not J.any():
            return self.n
        s = np.linalg.svd(self.W[:, J].T, compute_uv=False)
        return self.n - int(np.sum(s > 1e-10 * max(1.0, s[0])))

    def face_basis(self, p, atol=None):
        if self._planar is not None:
            a = atol if atol is not None else \
                FACE_TOL * max(1.0, float(np.linalg.norm(p)))
            return _planar_face_basis(self._planar, p, a)
        J = self._active(p, atol)
        if not J.any():
            return np.eye(self.n)
        return _null_basis(self.W[:, J].T, self.n)

    def to_dict(self):
        return {"variant": "inequality_cone", "W": self.W.tolist()}

    def _planar_form(self):
        return self._planar


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

    def project_point(self, x):
        P, fd, _ = self.project_batch(x[None, :])
        return ProjectionResult(P[0], int(fd[0]), 0, True)

    def project_batch(self, X):
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
        scale = np.maximum(1.0, np.abs(X).max(axis=1))
        fd = np.zeros(N, dtype=np.int64)
        pos = t > FACE_TOL * scale
        if off.size:
            cap = t[:, None] * self.weights[off]
            P[:, off] = np.clip(X[:, off], -cap, cap)
            free = np.abs(X[:, off]) < cap - (FACE_TOL * scale)[:, None]
            fd = np.where(pos, 1 + free.sum(axis=1), 0).astype(np.int64)
        else:
            fd = pos.astype(np.int64)
        return P, fd, np.ones(N, dtype=bool)

    def face_basis(self, p, atol=None):
        scale = max(1.0, float(np.max(np.abs(p), initial=0.0)))
        a = atol if atol is not None else FACE_TOL * scale
        tI = p[self.support] / (self.signs * self.weights[self.support])
        t = float(np.mean(tI))
        if t <= a:
            return np.zeros((self.n, 0))
        u = self._su.copy()
        free = []
        for j in self._off:
            cap = t * self.weights[j]
            if abs(p[j]) >= cap - a:
                u[j] = math.copysign(self.weights[j], p[j]) if p[j] != 0 else \
                    self.weights[j]
            else:
                free.append(j)
        cols = [u / np.linalg.norm(u)]
        for j in free:
            e = np.zeros(self.n)
            e[j] = 1.0
            cols.append(e)
        return np.column_stack(cols)

    def to_dict(self):
        return {"variant": "l1_subdiff_cone", "ambient": self.n,
                "support": self.support.tolist(),
                "signs": self.signs.tolist(),
                "weights": self.weights.tolist()}


class LinearImage(Cone):
    """Image cone {A v : v in inner}, projected by accelerated projected
    gradient on the lifted least-squares problem.

    When A has orthonormal columns the image is an isometric embedding, so
    projection and face classification reduce exactly to the inner cone.
    Construct through :func:`linear_image` to pick up further structural
    simplifications; instantiate directly to force this representation.
    """

    def __init__(self, A: np.ndarray, inner: Cone):
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[1] != inner.n:
            raise ValueError("A must map the inner cone's space")
        self.A = A
        self.inner = inner
        self.n = A.shape[0]
        s = np.linalg.svd(A, compute_uv=False)
        self._lip = float(s[0] ** 2) if s.size else 1.0
        self._isometric = A.shape[0] >= A.shape[1] and bool(
            np.allclose(A.T @ A, np.eye(A.shape[1]), atol=1e-10))

    def project_point(self, x):
        if self._isometric:
            r = self.inner.project_point(self.A.T @ x)
            return ProjectionResult(self.A @ r.point, r.face_dim,
                                    r.iterations, r.converged)
        P, _, conv, iters = _fista_image(self.A, self.inner, x[None, :],
                                         self._lip)
        return ProjectionResult(P[0], None, iters, bool(conv[0]))

    def project_batch(self, X):
        if self._isometric:
            P, fd, conv = self.inner.project_batch(X @ self.A)
            return P @ self.A.T, fd, conv
        P, _, conv, _ = _fista_image(self.A, self.inner, X, self._lip)
        return P, np.full(X.shape[0], -1, dtype=np.int64), conv

    def face_basis(self, p, atol=None):
        if not self._isometric:
            return None
        B = self.inner.face_basis(self.A.T @ p, atol)
        return None if B is None else self.A @ B

    def to_dict(self):
        return {"variant": "linear_image", "A": self.A.tolist(),
                "inner": self.inner.to_dict()}


class PolarCone(Cone):
    """Generic polar wrapper, projected via the Moreau decomposition."""

    def __init__(self, inner: Cone):
        self.inner = inner
        self.n = inner.n

    def project_point(self, x):
        r = self.inner.project_point(x)
        fd = None if r.face_dim is None else self.n - r.face_dim
        return ProjectionResult(x - r.point, fd, r.iterations, r.converged)

    def project_batch(self, X):
        P, fd, conv = self.inner.project_batch(X)
        fd_out = np.where(fd >= 0, self.n - fd, -1)
        return X - P, fd_out, conv

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

    def project_point(self, x):
        p = np.empty_like(x)
        fd: int | None = 0
        iters = 0
        conv = True
        for part, sl in zip(self.parts, self._slices):
            r = part.project_point(x[sl])
            p[sl] = r.point
            fd = None if (fd is None or r.face_dim is None) else fd + r.face_dim
            iters += r.iterations
            conv &= r.converged
        return ProjectionResult(p, fd, iters, conv)

    def project_batch(self, X):
        P = np.empty_like(X)
        fd = np.zeros(X.shape[0], dtype=np.int64)
        conv = np.ones(X.shape[0], dtype=bool)
        bad = np.zeros(X.shape[0], dtype=bool)
        for part, sl in zip(self.parts, self._slices):
            Pp, fp, cp = part.project_batch(X[:, sl])
            P[:, sl] = Pp
            bad |= fp < 0
            fd += np.where(fp < 0, 0, fp)
            conv &= cp
        fd[bad] = -1
        return P, fd, conv

    def face_basis(self, p, atol=None):
        blocks = []
        for part, sl in zip(self.parts, self._slices):
            B = part.face_basis(p[sl], atol)
            if B is None:
                return None
            blocks.append(B)
        total = sum(B.shape[1] for B in blocks)
        out = np.zeros((self.n, total))
        col = 0
        for (part, sl), B in zip(zip(self.parts, self._slices), blocks):
            out[sl, col:col + B.shape[1]] = B
            col += B.shape[1]
        return out

    def to_dict(self):
        return {"variant": "product",
                "parts": [p.to_dict() for p in self.parts]}


class IntersectionCone(Cone):
    """Intersection of two cones, projected by Dykstra's alternating scheme."""

    def __init__(self, left: Cone, right: Cone):
        if left.n != right.n:
            raise ValueError("ambient dimensions must match")
        self.left = left
        self.right = right
        self.n = left.n

    def project_point(self, x):
        p, sweeps, conv, ya = _dykstra(self.left, self.right, x)
        atol = max(100 * DYKSTRA_TOL, FACE_TOL) * (1.0 + float(np.linalg.norm(x)))
        fd = self._face_dim(ya, p, atol)
        return ProjectionResult(p, fd, sweeps, conv)

    def _face_dim(self, pa, pb, atol):
        if np.linalg.norm(pb) <= atol:
            return 0
        Ba = self.left.face_basis(pa, atol)
        Bb = self.right.face_basis(pb, atol)
        if Ba is None or Bb is None:
            return None
        return _span_intersection_dim(Ba, Bb)

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
    """Generator matrix V with cone = {V c : c >= 0}, when available."""
    if isinstance(cone, NonnegOrthant):
        return np.eye(cone.n)
    if isinstance(cone, GeneratorCone):
        return cone.V
    if isinstance(cone, Subspace):
        return np.hstack([cone.basis, -cone.basis])
    if isinstance(cone, ProductCone):
        parts = [generators_of(p) for p in cone.parts]
        if any(g is None for g in parts):
            return None
        total = sum(g.shape[1] for g in parts)
        V = np.zeros((cone.n, total))
        col = 0
        for (sl, g) in zip(cone._slices, parts):
            V[sl, col:col + g.shape[1]] = g
            col += g.shape[1]
        return V
    return None


def linear_image(A: np.ndarray, inner: Cone) -> Cone:
    """The image cone A(inner), simplified structurally when exact.

    Exact rules, in order: subspaces map to the span of the mapped basis;
    cones with generators V map to ``GeneratorCone(A V)``; inequality
    cones {x : W^T x <= 0} under a square invertible A (smallest singular
    value above 1e-12 times the largest) map to ``InequalityCone(A^{-T} W)``,
    which for a rotation Q is ``InequalityCone(Q W)``.  Every other pair,
    including inequality cones under non-square or singular maps, returns a
    :class:`LinearImage`.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[1] != inner.n:
        raise ValueError("A must map the inner cone's space")
    if isinstance(inner, Subspace):
        return Subspace.span(A @ inner.basis)
    V = generators_of(inner)
    if V is not None:
        return GeneratorCone(A @ V)
    W = _inequality_matrix(inner)
    if W is not None and A.shape[0] == A.shape[1]:
        s = np.linalg.svd(A, compute_uv=False)
        if s[-1] > 1e-12 * s[0]:
            return InequalityCone(np.linalg.solve(A.T, W))
    return LinearImage(A, inner)


def rotate(cone: Cone, Q: np.ndarray) -> Cone:
    """Image of the cone under an orthogonal map."""
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

    A generated cone with a square invertible V (smallest singular value
    above 1e-12 times the largest, as in :func:`linear_image`) is
    {x : V^{-1} x >= 0}, so W = -V^{-T}.
    """
    if isinstance(cone, InequalityCone):
        return cone.W
    if isinstance(cone, NonnegOrthant):
        return -np.eye(cone.n)
    if isinstance(cone, GeneratorCone) and cone.n == cone.k:
        s = np.linalg.svd(cone.V, compute_uv=False)
        if s[-1] > 1e-12 * s[0]:
            return -np.linalg.inv(cone.V).T
    return None


def intersect(C: Cone, D: Cone) -> Cone:
    """Intersection C ∩ D.

    Exact rules, in order: two cones in the plane that both have a planar
    form always resolve through angle arithmetic (:func:`_planar_intersect`
    is total); subspace pairs and subspace sections of
    inequality-representable cones reduce to exact lower-dimensional
    representations; two inequality cones {x : W_C^T x <= 0} and
    {x : W_D^T x <= 0} give
    ``InequalityCone([W_C W_D])``, where a generated cone with square
    invertible V has W = -V^{-T}.  Every other pair, such as one with a
    generated cone of more generators than dimensions, an l1
    subdifferential cone or a :class:`LinearImage` on either side, returns
    an :class:`IntersectionCone` projected by Dykstra's algorithm.
    """
    if C.n != D.n:
        raise ValueError("ambient dimensions must match")
    if C.n == 2:
        f1, f2 = C._planar_form(), D._planar_form()
        if f1 is not None and f2 is not None:
            return _cone_from_planar(_planar_intersect(f1, f2))
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


def _cone_from_planar(form) -> Cone:
    if form[0] == "zero":
        return zero_cone(2)
    if form[0] == "full":
        return full_space(2)
    if form[0] == "line":
        return Subspace(_unit(form[1]).reshape(2, 1))
    return GeneratorCone(_planar_generator_matrix(form))


# ---------------------------------------------------------------------------
# projection entry point
# ---------------------------------------------------------------------------

def project(cone: Cone, x: np.ndarray) -> ProjectionResult:
    """Project x onto the cone.

    The zero input maps to the zero point with face_dim 0 by convention.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (cone.n,):
        raise ValueError(f"point has shape {x.shape}, expected ({cone.n},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("point must be finite")
    if np.all(x == 0.0):
        return ProjectionResult(np.zeros(cone.n), 0, 0, True)
    return cone.project_point(x)


# ---------------------------------------------------------------------------
# iterative kernels
# ---------------------------------------------------------------------------

def _dykstra(Ca: Cone, Cb: Cone, x: np.ndarray,
             tol: float = DYKSTRA_TOL, max_sweeps: int = DYKSTRA_MAX_SWEEPS):
    """Dykstra's alternating projections onto Ca ∩ Cb.

    Returns (point, sweeps, converged, last_point_in_Ca).
    """
    scale = 1.0 + float(np.linalg.norm(x))
    p = x.copy()
    qa = np.zeros_like(x)
    qb = np.zeros_like(x)
    prev = None
    ya = p
    for sweep in range(1, max_sweeps + 1):
        ya = Ca.project_point(p + qa).point
        qa = p + qa - ya
        yb = Cb.project_point(ya + qb).point
        qb = ya + qb - yb
        if prev is not None and \
                np.linalg.norm(ya - yb) <= tol * scale and \
                np.linalg.norm(yb - prev) <= tol * scale:
            return yb, sweep, True, ya
        prev = yb
        p = yb
    return prev if prev is not None else p, max_sweeps, False, ya


def _fista_image(A: np.ndarray, inner: Cone, X: np.ndarray, lip: float,
                 tol: float = FISTA_TOL, max_iter: int = FISTA_MAX_ITER):
    """Accelerated projected gradient for min_{v in inner} ||x - A v||^2.

    Batched over the rows of X with per-row adaptive restart; returns
    (P, V, converged, iterations) with P = V A^T the projected points.
    """
    N, k = X.shape[0], A.shape[1]
    if lip <= 0:
        P = np.zeros((N, A.shape[0]))
        return P, np.zeros((N, k)), np.ones(N, dtype=bool), 0
    V = np.zeros((N, k))
    Y = V.copy()
    t = np.ones(N)
    scale = 1.0 + np.linalg.norm(X, axis=1)
    conv = np.zeros(N, dtype=bool)
    it = 0
    for it in range(1, max_iter + 1):
        G = (Y @ A.T - X) @ A
        Vn = inner.project_batch(Y - G / lip)[0]
        step = Vn - V
        # adaptive restart: drop momentum on rows moving against the step
        bad = np.einsum("ij,ij->i", Y - Vn, step) > 0
        res = lip * np.linalg.norm(Y - Vn, axis=1)
        conv = res <= tol * scale
        if conv.all():
            V = Vn
            break
        tn = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / tn
        beta[bad] = 0.0
        tn[bad] = 1.0
        Y = Vn + beta[:, None] * step
        V = Vn
        t = tn
    return V @ A.T, V, conv, it


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
        return LinearImage(np.asarray(d["A"], dtype=float),
                           cone_from_dict(d["inner"]))
    if v == "polar":
        return PolarCone(cone_from_dict(d["inner"]))
    if v == "product":
        return ProductCone([cone_from_dict(p) for p in d["parts"]])
    if v == "intersection":
        return IntersectionCone(cone_from_dict(d["left"]),
                                cone_from_dict(d["right"]))
    raise ValueError(f"unknown cone variant: {v!r}")
