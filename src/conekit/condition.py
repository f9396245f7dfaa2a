"""Restricted norms, condition numbers, and feasibility classification.

The restricted norm of A between cones C and D is the extreme value of
||Proj_D(A x)|| over unit vectors x in C; the restricted singular value is
the min counterpart.  These drive the Renegar-style condition number
(operator norm over distance to infeasibility), feasibility classification
of the pair (C, D), minimal perturbations into primal feasibility, and the
projected condition number with its Gordon-type bound.

Extrema over a sphere-cone section are nonconvex.  ``exact`` takes the
closed form of a subspace pair or enumerates the supports of the optimum
(polyhedral pairs of moderate size); ``multistart`` runs projected
gradient with spherical retraction from starts advancing in lockstep (a
certificate, not certified); ``auto`` takes the first that applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import (EXACT_MAX_PAIRS, Cone, Subspace, _directions,
                    _inequality_matrix, _supports, generators_of)
from .numerics import Record, SeededStream, haar_from_rng, haar_stack
from .solvers import _chunk_rows
from .statdim import Estimate, mc_estimate

__all__ = [
    "RestrictedValue",
    "ConditionReport",
    "Feasibility",
    "GordonReport",
    "restricted_norm",
    "restricted_sv",
    "renegar",
    "renegar_single",
    "condition_report",
    "classify_feasibility",
    "min_perturbation_to_primal",
    "kappa_bar",
    "gordon_kappa_bound",
    "empirical_gordon_check",
]

METHODS = ("auto", "exact", "multistart")
MULTISTART_DEFAULT = 50
MULTISTART_TOL = 1e-9
_DEFAULT_STREAM = SeededStream(1_000_003, 0)


@dataclass
class RestrictedValue(Record):
    """Extreme value of ||Proj_D(A x)|| over x in C with |x| = 1.

    heuristic is True for a multistart bound, False for an exact value.
    """

    value: float
    certificate: np.ndarray
    method: str
    heuristic: bool


@dataclass
class ConditionReport(Record):
    """Condition summary of A relative to the cone pair (C, D).

    ``method`` is the method that computed ``sigma_CD`` and
    ``method_dual`` the one that computed ``sigma_DC_transposed``; under
    ``auto`` the two sides may differ.
    """

    op_norm: float
    sigma_CD: float
    sigma_DC_transposed: float
    renegar_R: float
    kappa: float
    method: str
    method_dual: str
    certificate_primal: np.ndarray
    certificate_dual: np.ndarray

    def feasibility(self, tol: float | None = None) -> Feasibility:
        """Classify the pair by sigma_CD and sigma_DC_transposed (see
        :func:`classify_feasibility`); tol defaults to 1e-8 max(||A||, 1)."""
        if tol is None:
            tol = 1e-8 * max(self.op_norm, 1.0)
        if self.op_norm <= tol:
            status = "IllPosed"
        elif self.sigma_CD <= tol:
            status = "PrimalFeasible"
        elif self.sigma_DC_transposed <= tol:
            status = "DualFeasible"
        else:
            status = "Ambiguous"
        # 0.0 - sigma keeps a zero dual margin +0
        return Feasibility(status, tol, self.sigma_CD,
                           0.0 - self.sigma_DC_transposed, self.method,
                           self.method_dual)


@dataclass
class Feasibility(Record):
    """Feasibility label of the pair (C, D) at a matrix A.

    status is one of PrimalFeasible, DualFeasible, IllPosed, Ambiguous.
    primal_margin is sigma_CD(A) and dual_margin is -sigma_DC(-A^T), each
    the distance of A to ill-posedness when the other is zero; a margin
    within tol of zero certifies its side.  ``method`` and ``method_dual``
    name the methods of the two values, as in :class:`ConditionReport`.
    """

    status: str
    tol: float
    primal_margin: float
    dual_margin: float
    method: str
    method_dual: str


# ---------------------------------------------------------------------------
# restricted extrema
# ---------------------------------------------------------------------------

def _subspace_pair(A, C, D, sense):
    """Closed-form extreme value of a pair of subspaces."""
    K = D.basis.T @ A @ C.basis
    if C.dim == 0:
        raise ValueError("C is the zero cone; no unit vectors")
    if D.dim == 0:
        return RestrictedValue(0.0, C.basis[:, 0], "exact", False)
    U, s, Vt = np.linalg.svd(K, full_matrices=True)
    if sense > 0:
        return RestrictedValue(float(s[0]), C.basis @ Vt[0], "exact", False)
    if K.shape[1] > K.shape[0]:
        return RestrictedValue(0.0, C.basis @ Vt[-1], "exact", False)
    return RestrictedValue(float(s[-1]), C.basis @ Vt[len(s) - 1], "exact",
                           False)


def _support_count(k, n, smallest):
    """Number of subsets of k columns in R^n with smallest..n members."""
    return sum(math.comb(k, s) for s in range(smallest, min(n, k) + 1))


def _padded_supports(U, smallest):
    """(Q, R^{-1}) of :func:`_supports` for every size from ``smallest``
    up, padded with zeros to the largest size, as one stack."""
    n, width = U.shape[0], min(U.shape)
    parts = [_supports(U, size)[1:] for size in range(smallest, width + 1)]
    total = sum(len(Q) for Q, _ in parts)
    Q2, R2inv = np.zeros((total, n, width)), np.zeros((total, width, width))
    a = 0
    for size, (Q, Rinv) in enumerate(parts, smallest):
        Q2[a:a + len(Q), :, :size] = Q
        R2inv[a:a + len(Q), :size, :size] = Rinv
        a += len(Q)
    return Q2, R2inv


def _nonneg(v):
    """Whether each stacked column of v is >= 0 to 1e-9 of its max."""
    scale = np.abs(v).max(axis=-2, keepdims=True, initial=0.0)
    return (v >= -1e-9 * scale).all(axis=-2)


def _stationary_points(AQ, R1inv, UJ, Q2, R2inv, sense):
    """Unit candidate rows of :func:`_support_enumeration` for supports J
    of one size (A Q1, R1^{-1}, U_J^T) against padded sets of D."""
    T = np.swapaxes(Q2, 1, 2)[:, None] @ AQ
    if sense < 0:
        M = AQ - Q2[:, None] @ T
        _, Y = np.linalg.eigh(np.swapaxes(M, 2, 3) @ M)
        c, side = R1inv @ Y, R2inv[:, None] @ T @ Y
    else:
        Wd, _, Vt = np.linalg.svd(T, full_matrices=False)
        c, side = R1inv @ np.swapaxes(Vt, 2, 3), R2inv[:, None] @ Wd
    flip = np.where(c.sum(axis=2, keepdims=True) < 0, -1.0, 1.0)
    i, j, e = np.nonzero(_nonneg(flip * c) & _nonneg(flip * side))
    coef = np.maximum(flip[i, j, 0, e][:, None] * c[i, j, :, e], 0.0)
    Z = np.einsum("ks,ksn->kn", coef, UJ[j])
    return Z / np.linalg.norm(Z, axis=1, keepdims=True)


def _support_enumeration(A, C, D, sense):
    """Exact extreme value by enumerating supports, or None when a needed
    representation is missing or there are over ``EXACT_MAX_PAIRS`` pairs.

    The candidates are the unit generators of C and, for each independent
    set J of two or more of them, U_J = Q1 R1: for the min, per independent
    set L of unit normals of D (empty included), each eigenvector y of
    M^T M, M = (I - P_L) A Q1, with c = R1^{-1} y and W_L^+ A Q1 y >= 0 up
    to one joint sign; for the max, per independent set K of unit
    generators of D, U_K = Q2 R2, each singular triplet (v, u) of
    Q2^T A Q1 with c = R1^{-1} v and R2^{-1} u >= 0 up to one joint sign.
    By Caratheodory the optimum lies in such a pair of supports, where it
    is one of these stationary points.  Each candidate U_J max(c, 0),
    normalized, lies in C; one ``D.project_batch(faces=False)`` call
    scores all, and only that score counts, since a candidate's own value
    bounds ||Proj_D(A x)|| from one side only.  A C whose generators span
    one line needs no representation of D; a generated D has the normals
    of its facets.
    """
    U = _directions(generators_of(C))
    if U is None:
        return None
    if U.shape[1] == 0:
        raise ValueError("C is the zero cone; no unit vectors")
    X = [U.T]
    if not (np.abs(U.T @ U[:, 0]) > 1.0 - 1e-12).all():
        other = _directions(_inequality_matrix(D) if sense < 0
                            else generators_of(D))
        if other is None or (
                _support_count(U.shape[1], C.n, 2) *
                _support_count(other.shape[1], D.n, int(sense > 0))
                > EXACT_MAX_PAIRS):
            return None
        Q2, R2inv = _padded_supports(other, int(sense > 0))
        for size in range(2, min(C.n, U.shape[1]) + 1):
            S, Q1, R1inv = _supports(U, size)
            AQ, UJ = A @ Q1, U.T[S]
            step = _chunk_rows(len(S) * D.n * size)
            X += [_stationary_points(AQ, R1inv, UJ, Q2[a:a + step],
                                     R2inv[a:a + step], sense)
                  for a in range(0, len(Q2), step)]
    X = np.concatenate(X)
    P = D.project_batch(X @ A.T, faces=False)[0]
    vals = np.linalg.norm(P, axis=1)
    j = int(np.argmax(vals) if sense > 0 else np.argmin(vals))
    return RestrictedValue(float(np.linalg.norm(P[j])), X[j], "exact", False)


def _multistart_extremum(A, C, D, sense, stream):
    """Projected gradient ascent (sense +1) or descent (sense -1) of
    ||Proj_D(A x)||^2 over unit x in C, from ``MULTISTART_DEFAULT`` starts.

    The starts are Vt[0], Vt[-1] of the svd of A, then the normals of
    ``stream.gen(0)``; a start whose first retraction collapses is dropped.
    A step from x along the gradient 2 A^T Proj_D(A x) with length eta is
    retracted to the sphere through Proj_C; it collapses when the
    projection is at most 1e-9 times the trial point.  A step is accepted
    when it does not worsen the objective by more than 1e-18; then eta
    grows by 1.25 (at most 1e3 times eta0 = 1/(2||A||^2)) and the gradient
    is recomputed, else eta halves.  A start stops at a collapse, after 40
    rejections in a row, after an accepted move of at most
    ``MULTISTART_TOL`` or after 500 accepted steps.

    The starts advance in lockstep as the rows of one state: each round
    retracts every running row's trial point with one ``C.project_batch``
    and evaluates the rows that did not collapse with one
    ``D.project_batch``.  The result is the first strictly best start.
    """
    s = np.linalg.svd(A, compute_uv=False)
    lip = 2.0 * float(s[0] ** 2) if s.size else 1.0
    eta0 = 1.0 / max(lip, 1e-300)

    def retract(Y):
        # unit rows of Proj_C(Y) and the mask of rows that did not collapse;
        # only the points are read, so no face is classified
        P = C.project_batch(Y, faces=False)[0]
        norm = np.linalg.norm(P, axis=1)
        ok = norm > 1e-9 * np.linalg.norm(Y, axis=1)
        return P[ok] / norm[ok, None], ok

    def f(X):
        # the objective and the projection its gradient reuses
        P = D.project_batch(X @ A.T, faces=False)[0]
        return np.linalg.norm(P, axis=1) ** 2, P

    _, _, Vt = np.linalg.svd(A)
    starts = np.vstack([Vt[0], Vt[-1], stream.gen(0).standard_normal(
        (MULTISTART_DEFAULT - 2, C.n))])
    X, _ = retract(starts)
    if not len(X):
        raise ValueError("all starts collapsed to the apex; is C trivial?")
    F, P = f(X)
    G = 2.0 * (P @ A)
    eta = np.full(len(X), eta0)
    steps = np.zeros(len(X), dtype=np.int64)
    rejects = np.zeros(len(X), dtype=np.int64)
    run = np.ones(len(X), dtype=bool)
    while run.any():
        live = np.flatnonzero(run)
        Xn, ok = retract(X[live] + (sense * eta[live])[:, None] * G[live])
        run[live[~ok]] = False
        rows = live[ok]
        if not len(rows):
            continue
        Fn, Pn = f(Xn)
        up = sense * (Fn - F[rows]) >= -1e-18
        a, r = rows[up], rows[~up]
        moved = np.linalg.norm(Xn[up] - X[a], axis=1)
        X[a], F[a] = Xn[up], Fn[up]
        G[a] = 2.0 * (Pn[up] @ A)
        eta[a] = np.minimum(eta[a] * 1.25, 1e3 * eta0)
        steps[a] += 1
        rejects[a] = 0
        run[a[(moved <= MULTISTART_TOL) | (steps[a] >= 500)]] = False
        eta[r] *= 0.5
        rejects[r] += 1
        run[r[rejects[r] >= 40]] = False
    vals = np.sqrt(np.maximum(F, 0.0))
    j = int(np.argmax(vals) if sense > 0 else np.argmin(vals))
    return RestrictedValue(float(vals[j]), X[j], "multistart", True)


def _restricted_extremum(A, C, D, sense, method="auto", stream=None):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape != (D.n, C.n):
        raise ValueError(f"A must be {D.n} x {C.n} for these cones")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method != "multistart":
        res = (_subspace_pair(A, C, D, sense)
               if isinstance(C, Subspace) and isinstance(D, Subspace)
               else _support_enumeration(A, C, D, sense))
        if res is not None:
            return res
        if method == "exact":
            raise ValueError("no exact method for this cone pair (C needs "
                             "generators, D normals or generators, at most "
                             f"{EXACT_MAX_PAIRS} support pairs)")
    return _multistart_extremum(A, C, D, sense,
                                stream if stream is not None
                                else _DEFAULT_STREAM)


def restricted_norm(A, C: Cone, D: Cone, method: str = "auto",
                    stream: SeededStream | None = None) -> RestrictedValue:
    """max ||Proj_D(A x)|| over unit x in C (a lower bound for multistart)."""
    return _restricted_extremum(A, C, D, +1, method, stream)


def restricted_sv(A, C: Cone, D: Cone, method: str = "auto",
                  stream: SeededStream | None = None) -> RestrictedValue:
    """min ||Proj_D(A x)|| over unit x in C (an upper bound for multistart)."""
    return _restricted_extremum(A, C, D, -1, method, stream)


# ---------------------------------------------------------------------------
# Renegar condition numbers
# ---------------------------------------------------------------------------

def renegar(A, C: Cone, D: Cone, method: str = "auto",
            stream: SeededStream | None = None) -> float:
    """||A|| divided by the distance to the ill-posed set,
    max{sigma_{C->D}(A), sigma_{D->C}(-A^T)}; inf when both vanish."""
    return condition_report(A, C, D, method, stream).renegar_R


def renegar_single(A, C: Cone, method: str = "auto",
                   stream: SeededStream | None = None) -> float:
    """Single-cone condition number R_C(A) with D the full target space."""
    A = np.asarray(A, dtype=float)
    return renegar(A, C, Subspace(np.eye(A.shape[0])), method, stream)


def condition_report(A, C: Cone, D: Cone, method: str = "auto",
                     stream: SeededStream | None = None) -> ConditionReport:
    """Assemble the restricted quantities and condition numbers of A."""
    A = np.asarray(A, dtype=float)
    rp = restricted_sv(A, C, D, method, stream)   # validates the shapes
    rd = restricted_sv(-A.T, D, C, method, stream)
    s = np.linalg.svd(A, compute_uv=False)
    op = float(s[0])
    smin = float(s[min(A.shape) - 1])
    kappa = op / smin if smin > 1e-300 else math.inf
    dist = max(rp.value, rd.value)
    R = op / dist if dist > 1e-15 * max(op, 1.0) else math.inf
    return ConditionReport(op, rp.value, rd.value, R, kappa, rp.method,
                           rd.method, rp.certificate, rd.certificate)


# ---------------------------------------------------------------------------
# feasibility classification
# ---------------------------------------------------------------------------

def classify_feasibility(A, C: Cone, D: Cone, tol: float | None = None,
                         method: str = "auto",
                         stream: SeededStream | None = None) -> Feasibility:
    """Classify the homogeneous feasibility pair at A by its distances to
    ill-posedness, the restricted singular values of
    :func:`condition_report` at the requested method.

    PrimalFeasible: sigma_CD(A) <= tol, so some nonzero x in C has A x in
    the polar of D.  DualFeasible: otherwise sigma_DC(-A^T) <= tol, so
    some nonzero y in D has -A^T y in the polar of C.  IllPosed: ||A|| <=
    tol.  Ambiguous: neither value is within tol of zero.

    Over ``EXACT_MAX_PAIRS`` support pairs ``auto`` runs multistart on that
    side, as for any pair.  That is slow (about 0.3 s per matrix for a
    generated cone of 20 generators in R^6 against the orthant, against
    about 1 ms for an exact pair of orthants in R^3), and its upper bound
    on a sigma can miss a zero.
    """
    return condition_report(A, C, D, method, stream).feasibility(tol)


def min_perturbation_to_primal(A, C: Cone, D: Cone, method: str = "auto",
                               stream: SeededStream | None = None):
    """Smallest-norm perturbation dA making the pair primal feasible.

    Built from the minimizing direction x0 of the restricted singular value
    and the unit residual direction y0 = Proj_D(A x0)/sigma: the rank-one
    update -y0 y0^T A is used when its norm matches sigma (it always does at
    an interior stationary minimizer); otherwise the equally feasible
    rank-one form -sigma y0 x0^T, whose norm is sigma by construction.
    Returns (dA, RestrictedValue of sigma).
    """
    A = np.asarray(A, dtype=float)
    rv = restricted_sv(A, C, D, method, stream)
    sigma = rv.value
    op = float(np.linalg.svd(A, compute_uv=False)[0])
    if sigma <= 1e-12 * max(op, 1.0):
        return np.zeros_like(A), rv
    x0 = rv.certificate
    y0 = D.project_point(A @ x0).point
    y0 = y0 / np.linalg.norm(y0)
    dA = -np.outer(y0, y0 @ A)
    if abs(np.linalg.norm(y0 @ A) - sigma) > 1e-6 * max(op, 1.0):
        dA = -sigma * np.outer(y0, x0)
    return dA, rv


# ---------------------------------------------------------------------------
# projected condition numbers and the Gordon bound
# ---------------------------------------------------------------------------

def kappa_bar(A, m: int, samples: int, stream: SeededStream) -> Estimate:
    """Monte Carlo estimate of E_Q[kappa((Q A)[:m])^2] over Haar Q.

    A must be square and full rank, m <= n.  Sample i's rotation comes from
    the first n x n Gaussian matrix of ``stream.gen(i)``; a block of
    samples draws its matrices with one ``stream.normals`` call and takes
    one :func:`haar_stack` call and one stacked svd.  Draws with numerically
    rank-deficient compressions (a probability-zero event) are resampled
    from the following matrices of ``stream.gen(i)``.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    sA = np.linalg.svd(A, compute_uv=False)
    if sA[-1] <= 1e-12 * sA[0]:
        raise ValueError("A must be full rank")
    if samples < 2:
        raise ValueError("need at least 2 samples")
    vals = np.empty(samples)
    resampled = 0
    step = _chunk_rows(n * n)
    for a in range(0, samples, step):
        G, = stream.normals(a, min(step, samples - a), (n, n))
        S = np.linalg.svd((haar_stack(G) @ A)[:, :m], compute_uv=False)
        for i in np.flatnonzero(~(S[:, -1] > 1e-13 * S[:, 0])):
            rng = stream.gen(a + i)
            rng.standard_normal((n, n))     # the matrix the stack drew
            s = S[i]
            while not s[-1] > 1e-13 * s[0]:
                resampled += 1
                if resampled > max(10, samples // 100):
                    raise RuntimeError("rank-deficient compressions keep "
                                       f"appearing ({resampled} resamples)")
                Q = haar_from_rng(n, rng)
                s = np.linalg.svd((Q @ A)[:m], compute_uv=False)
            S[i] = s
        vals[a:a + len(S)] = (S[:, 0] / S[:, -1]) ** 2
    return mc_estimate(vals, np.ones(samples, dtype=bool), stream.master_seed)


def gordon_kappa_bound(A, m: int) -> float:
    """Deterministic bound (||A||_F + sqrt(m)||A||) / (||A||_F - sqrt(m)||A||)
    on the expected condition number of an m-dimensional Gaussian image."""
    A = np.asarray(A, dtype=float)
    fro = float(np.linalg.norm(A, "fro"))
    op = float(np.linalg.svd(A, compute_uv=False)[0])
    root = math.sqrt(m) * op
    if fro <= root:
        raise ValueError(
            f"bound vacuous: ||A||_F = {fro:.6g} <= sqrt(m)||A|| = {root:.6g}")
    return (fro + root) / (fro - root)


@dataclass
class GordonReport(Record):
    """Monte Carlo check of the Gaussian extreme-singular-value bounds."""

    smin_mean: float
    smin_stderr: float
    smax_mean: float
    smax_stderr: float
    fro_norm: float
    smin_lower: float
    smax_upper: float
    smin_ok: bool
    smax_ok: bool
    trials: int
    seed: int


def empirical_gordon_check(sigma, m: int, trials: int,
                           stream: SeededStream) -> GordonReport:
    """Check E[s_min(Sigma G)] >= ||Sigma||_F - sqrt(m) and
    E[s_max(Sigma G)] <= ||Sigma||_F + sqrt(m) for diagonal Sigma with
    ||Sigma|| <= 1 and G standard Gaussian n x m.

    Trial i's G is the first draw of ``stream.gen(i)``; a block of trials
    draws its matrices with one ``stream.normals`` call and takes one
    stacked ``eigvalsh`` of the min(n, m)-square Gram matrices of Sigma G,
    (Sigma G)^T (Sigma G) when m <= n and (Sigma G)(Sigma G)^T otherwise:
    s_max = sqrt(lambda_max) and s_min = sqrt(max(lambda_min, 0)).  The
    Gram squares the condition number, so a nearly singular Sigma G loses
    digits in s_min: its absolute error is at worst about
    sqrt(eps) * s_max.  A zero Sigma gives exact zeros."""
    sig = np.asarray(sigma, dtype=float)
    if sig.ndim == 2:
        if not np.allclose(sig, np.diag(np.diag(sig))):
            raise ValueError("Sigma must be diagonal")
        sig = np.diag(sig)
    if sig.ndim != 1:
        raise ValueError("Sigma must be a vector of diagonal entries")
    if not np.max(np.abs(sig), initial=0.0) <= 1.0 + 1e-12:
        raise ValueError("need ||Sigma|| <= 1")
    n = len(sig)
    if not 1 <= m:
        raise ValueError("m must be positive")
    if trials < 2:
        raise ValueError("need at least 2 trials")
    smin = np.empty(trials)
    smax = np.empty(trials)
    step = _chunk_rows(n * m)
    for a in range(0, trials, step):
        G, = stream.normals(a, min(step, trials - a), (n, m))
        M = sig[:, None] * G
        Mt = np.swapaxes(M, 1, 2)
        lam = np.linalg.eigvalsh(Mt @ M if m <= n else M @ Mt)
        smax[a:a + len(M)] = np.sqrt(lam[:, -1])
        smin[a:a + len(M)] = np.sqrt(np.maximum(lam[:, 0], 0.0))
    fro = float(np.linalg.norm(sig))
    root = math.sqrt(m)
    ok = np.ones(trials, dtype=bool)
    lo = mc_estimate(smin, ok, stream.master_seed)
    hi = mc_estimate(smax, ok, stream.master_seed)
    return GordonReport(
        smin_mean=lo.mean, smin_stderr=lo.stderr, smax_mean=hi.mean,
        smax_stderr=hi.stderr, fro_norm=fro, smin_lower=fro - root,
        smax_upper=fro + root,
        smin_ok=lo.mean >= (fro - root) - 3 * lo.stderr,
        smax_ok=hi.mean <= (fro + root) + 3 * hi.stderr,
        trials=trials, seed=stream.master_seed)
