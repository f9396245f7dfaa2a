"""Restricted norms, condition numbers, and feasibility classification.

The restricted norm of A between cones C and D is the extreme value of
||Proj_D(A x)|| over unit vectors x in C; the restricted singular value is
the min counterpart.  These drive the Renegar-style condition number
(operator norm over distance to infeasibility), feasibility classification
of the pair (C, D), minimal perturbations into primal feasibility, and the
projected condition number with its Gordon-type bound.

Extrema over a sphere-cone section are nonconvex, so three methods are
offered: closed forms when C (and D) are subspaces or C is a single ray,
multistart projected gradient with spherical retraction (certificate, not
certified), and an exhaustive angular grid for ambient dimension <= 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import (Cone, GeneratorCone, InequalityCone, NonnegOrthant,
                    Subspace, generators_of)
from .numerics import SeededStream, haar_from_rng
from .solvers import LPStandardForm, lp_solve_standard
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

MULTISTART_DEFAULT = 50
MULTISTART_TOL = 1e-9
GRID_RESOLUTION = 1e-3
_DEFAULT_STREAM = SeededStream(1_000_003, 0)


@dataclass
class RestrictedValue:
    """Extreme value of ||Proj_D(A x)|| over x in C with |x| = 1.

    heuristic is True when the value is a multistart bound rather than an
    exact or exhaustively searched quantity.
    """

    value: float
    certificate: np.ndarray
    method: str
    heuristic: bool

    def to_dict(self) -> dict:
        return {"value": self.value, "certificate": self.certificate.tolist(),
                "method": self.method, "heuristic": self.heuristic}


@dataclass
class ConditionReport:
    """Condition summary of A relative to the cone pair (C, D)."""

    op_norm: float
    sigma_CD: float
    sigma_DC_transposed: float
    renegar_R: float
    kappa: float
    method: str
    certificate_primal: np.ndarray
    certificate_dual: np.ndarray

    def to_dict(self) -> dict:
        return {"op_norm": self.op_norm, "sigma_CD": self.sigma_CD,
                "sigma_DC_transposed": self.sigma_DC_transposed,
                "renegar_R": self.renegar_R, "kappa": self.kappa,
                "method": self.method,
                "certificate_primal": self.certificate_primal.tolist(),
                "certificate_dual": self.certificate_dual.tolist()}


@dataclass
class Feasibility:
    """Feasibility label of the pair (C, D) at a matrix A.

    status is one of PrimalFeasible, DualFeasible, IllPosed, Ambiguous.
    primal_margin <= 0 certifies a primal-feasible direction; dual_margin
    >= 0 certifies a dual one (margins are in operator-norm units).
    """

    status: str
    tol: float
    primal_margin: float
    dual_margin: float

    def to_dict(self) -> dict:
        return {"status": self.status, "tol": self.tol,
                "primal_margin": self.primal_margin,
                "dual_margin": self.dual_margin}


# ---------------------------------------------------------------------------
# restricted extrema
# ---------------------------------------------------------------------------

def _single_ray_direction(C: Cone):
    """Unit direction u with C = {t u : t >= 0}, or None."""
    V = generators_of(C)
    if V is None or V.shape[1] == 0:
        return None
    norms = np.linalg.norm(V, axis=0)
    keep = norms > 1e-14 * max(1.0, norms.max())
    if not keep.any():
        return None
    U = V[:, keep] / norms[keep]
    u = U[:, 0]
    if np.all(U.T @ u > 1.0 - 1e-12):
        return u
    return None


def _exact_restricted(A, C, D, sense):
    """Closed-form extreme value when available, else None."""
    u = _single_ray_direction(C)
    if u is not None:
        p = D.project_point(A @ u).point
        return RestrictedValue(float(np.linalg.norm(p)), u, "exact", False)
    if isinstance(C, Subspace) and isinstance(D, Subspace):
        K = D.basis.T @ A @ C.basis
        if C.dim == 0:
            raise ValueError("C is the zero cone; no unit vectors")
        if D.dim == 0:
            return RestrictedValue(0.0, C.basis[:, 0], "exact", False)
        U, s, Vt = np.linalg.svd(K, full_matrices=True)
        if sense > 0:
            return RestrictedValue(float(s[0]), C.basis @ Vt[0], "exact",
                                   False)
        if K.shape[1] > K.shape[0]:
            return RestrictedValue(0.0, C.basis @ Vt[-1], "exact", False)
        return RestrictedValue(float(s[-1]), C.basis @ Vt[len(s) - 1],
                               "exact", False)
    return None


def _objective_batch(A, D, U):
    """||Proj_D(A u)|| for each row u of U."""
    Y = U @ A.T
    P, _, _ = D.project_batch(Y)
    return np.linalg.norm(P, axis=1)


def _membership_mask(C: Cone, U: np.ndarray, tol: float = 1e-9):
    """Vectorized cone membership for unit rows of U."""
    if isinstance(C, Subspace):
        R = U - (U @ C.basis) @ C.basis.T
        return np.linalg.norm(R, axis=1) <= tol
    if isinstance(C, NonnegOrthant):
        return U.min(axis=1) >= -tol
    if isinstance(C, InequalityCone):
        wn = np.maximum(np.linalg.norm(C.W, axis=0), 1.0)
        return (U @ C.W <= tol * wn).all(axis=1)
    if isinstance(C, GeneratorCone):
        if C._planar is not None:
            P, _, _ = C.project_batch(U)
            return np.linalg.norm(U - P, axis=1) <= tol
        if C.k == C.n:
            try:
                coef = np.linalg.solve(C.V, U.T)
            except np.linalg.LinAlgError:
                pass
            else:
                return (coef >= -tol).all(axis=0)
    P, _, _ = C.project_batch(U)
    return np.linalg.norm(U - P, axis=1) <= tol


def _sphere_grid(n: int, resolution: float):
    """Quasi-uniform unit vectors at the requested angular resolution."""
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        ang = np.arange(0.0, 2 * math.pi, resolution)
        return np.column_stack([np.cos(ang), np.sin(ang)])
    if n == 3:
        N = int(math.ceil(4 * math.pi / resolution ** 2))
        i = np.arange(N)
        z = 1.0 - (2.0 * i + 1.0) / N
        r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        phi = i * (math.pi * (3.0 - math.sqrt(5.0)))
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    raise ValueError("grid oracle supports ambient dimension <= 3")


def _grid_extremum(A, C, D, sense, resolution=GRID_RESOLUTION):
    n = C.n
    U = _sphere_grid(n, resolution)
    best_val = -math.inf if sense > 0 else math.inf
    best_u = None
    chunk = 1_000_000
    for start in range(0, U.shape[0], chunk):
        Uc = U[start:start + chunk]
        mask = _membership_mask(C, Uc)
        if not mask.any():
            continue
        Uf = Uc[mask]
        vals = _objective_batch(A, D, Uf)
        j = int(np.argmax(vals)) if sense > 0 else int(np.argmin(vals))
        if (sense > 0 and vals[j] > best_val) or \
                (sense < 0 and vals[j] < best_val):
            best_val = float(vals[j])
            best_u = Uf[j].copy()
    if best_u is None:
        raise ValueError("no grid direction lies in C; is C the zero cone?")
    return RestrictedValue(best_val, best_u, "grid_oracle", False)


def _multistart_extremum(A, C, D, sense, stream, starts=MULTISTART_DEFAULT,
                         tol=MULTISTART_TOL, max_iter=500):
    n = C.n
    s = np.linalg.svd(A, compute_uv=False)
    lip = 2.0 * float(s[0] ** 2) if s.size else 1.0
    eta0 = 1.0 / max(lip, 1e-300)

    def f(x):
        return float(np.linalg.norm(D.project_point(A @ x).point) ** 2)

    def retract(y):
        p = C.project_point(y).point
        norm = np.linalg.norm(p)
        return (p / norm, norm) if norm > 1e-14 else (None, 0.0)

    _, _, Vt = np.linalg.svd(A)
    seeds = [Vt[0], Vt[-1]]
    gen = stream.gen(0)
    while len(seeds) < starts:
        seeds.append(gen.standard_normal(n))
    best_val = -math.inf if sense > 0 else math.inf
    best_x = None
    for x0 in seeds:
        x, _ = retract(np.asarray(x0, dtype=float))
        if x is None:
            continue
        fx = f(x)
        eta = eta0
        for _ in range(max_iter):
            g = 2.0 * (A.T @ D.project_point(A @ x).point)
            improved = False
            moved = math.inf
            for _ in range(40):
                xn, norm = retract(x + sense * eta * g)
                if xn is None:
                    break
                fn = f(xn)
                if sense * (fn - fx) >= -1e-18:
                    moved = float(np.linalg.norm(xn - x))
                    x, fx = xn, fn
                    eta = min(eta * 1.25, 1e3 * eta0)
                    improved = True
                    break
                eta *= 0.5
            if not improved or moved <= tol:
                break
        val = math.sqrt(max(fx, 0.0))
        if (sense > 0 and val > best_val) or (sense < 0 and val < best_val):
            best_val, best_x = val, x
    if best_x is None:
        raise ValueError("all starts collapsed to the apex; is C trivial?")
    return RestrictedValue(best_val, best_x, "multistart", True)


def _restricted_extremum(A, C, D, sense, method="auto", stream=None,
                         starts=MULTISTART_DEFAULT,
                         resolution=GRID_RESOLUTION):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape != (D.n, C.n):
        raise ValueError(f"A must be {D.n} x {C.n} for these cones")
    if method not in ("auto", "exact", "multistart", "grid_oracle"):
        raise ValueError(f"unknown method {method!r}")
    if method in ("auto", "exact"):
        res = _exact_restricted(A, C, D, sense)
        if res is not None:
            return res
        if method == "exact":
            raise ValueError("no exact form for this cone pair; "
                             "use multistart or grid_oracle")
    if method == "grid_oracle":
        return _grid_extremum(A, C, D, sense, resolution)
    return _multistart_extremum(A, C, D, sense,
                                stream if stream is not None
                                else _DEFAULT_STREAM, starts)


def restricted_norm(A, C: Cone, D: Cone, method: str = "auto",
                    stream: SeededStream | None = None,
                    starts: int = MULTISTART_DEFAULT,
                    resolution: float = GRID_RESOLUTION) -> RestrictedValue:
    """max ||Proj_D(A x)|| over unit x in C (a lower bound for multistart)."""
    return _restricted_extremum(A, C, D, +1, method, stream, starts,
                                resolution)


def restricted_sv(A, C: Cone, D: Cone, method: str = "auto",
                  stream: SeededStream | None = None,
                  starts: int = MULTISTART_DEFAULT,
                  resolution: float = GRID_RESOLUTION) -> RestrictedValue:
    """min ||Proj_D(A x)|| over unit x in C (an upper bound for multistart)."""
    return _restricted_extremum(A, C, D, -1, method, stream, starts,
                                resolution)


# ---------------------------------------------------------------------------
# Renegar condition numbers
# ---------------------------------------------------------------------------

def renegar(A, C: Cone, D: Cone, method: str = "auto",
            stream: SeededStream | None = None) -> float:
    """||A|| divided by the distance to the ill-posed set,
    max{sigma_{C->D}(A), sigma_{D->C}(-A^T)}; inf when both vanish."""
    A = np.asarray(A, dtype=float)
    op = float(np.linalg.svd(A, compute_uv=False)[0]) if A.size else 0.0
    sp = restricted_sv(A, C, D, method, stream).value
    sd = restricted_sv(-A.T, D, C, method, stream).value
    dist = max(sp, sd)
    if dist <= 1e-15 * max(op, 1.0):
        return math.inf
    return op / dist


def renegar_single(A, C: Cone, method: str = "auto",
                   stream: SeededStream | None = None) -> float:
    """Single-cone condition number R_C(A) with D the full target space."""
    A = np.asarray(A, dtype=float)
    return renegar(A, C, Subspace(np.eye(A.shape[0])), method, stream)


def condition_report(A, C: Cone, D: Cone, method: str = "auto",
                     stream: SeededStream | None = None) -> ConditionReport:
    """Assemble the restricted quantities and condition numbers of A."""
    A = np.asarray(A, dtype=float)
    s = np.linalg.svd(A, compute_uv=False)
    op = float(s[0])
    smin = float(s[min(A.shape) - 1])
    kappa = op / smin if smin > 1e-300 else math.inf
    rp = restricted_sv(A, C, D, method, stream)
    rd = restricted_sv(-A.T, D, C, method, stream)
    dist = max(rp.value, rd.value)
    R = op / dist if dist > 1e-15 * max(op, 1.0) else math.inf
    return ConditionReport(op, rp.value, rd.value, R, kappa, rp.method,
                           rp.certificate, rd.certificate)


# ---------------------------------------------------------------------------
# feasibility classification
# ---------------------------------------------------------------------------

def _feasibility_margin(M: np.ndarray, side: str) -> float:
    """Optimal margin of the feasibility alternative encoded by M.

    side 'primal': min t with M lam <= t, lam in the simplex (<= 0 means
    some nonzero x in C has A x in the polar of D).
    side 'dual':   max t with M^T mu >= t, mu in the simplex.
    """
    K = M if side == "primal" else -M.T
    r, k = K.shape
    # variables: lam (k), slack (r), t+ , t-
    E = np.zeros((r + 1, k + r + 2))
    E[:r, :k] = K
    E[:r, k:k + r] = np.eye(r)
    E[:r, k + r] = -1.0
    E[:r, k + r + 1] = 1.0
    E[r, :k] = 1.0
    b = np.zeros(r + 1)
    b[r] = 1.0
    c = np.zeros(k + r + 2)
    # the 1e-9 offsets keep the t+/t- split bounded (pure +-1 costs on an
    # exactly mirrored column pair leave the dual without interior points)
    c[k + r] = 1.0 + 1e-9
    c[k + r + 1] = -1.0 + 1e-9
    res = lp_solve_standard(LPStandardForm(c=c, A=E, b=b))
    if res.status != "optimal":
        raise RuntimeError(f"feasibility margin LP did not solve: {res.status}")
    t = float(res.x[k + r] - res.x[k + r + 1])
    return t if side == "primal" else -t


def classify_feasibility(A, C: Cone, D: Cone, tol: float | None = None,
                         method: str = "auto",
                         stream: SeededStream | None = None) -> Feasibility:
    """Classify the homogeneous feasibility pair at A.

    PrimalFeasible: some nonzero x in C has A x in the polar of D.
    DualFeasible: some nonzero y in D has -A^T y in the polar of C
    (strictly, beyond tol).  IllPosed: degenerate zero-scale instance.
    Ambiguous: the margins contradict each other beyond tol.

    Polyhedral pairs (both cones carry generator matrices) are classified
    exactly by a pair of margin linear programs; otherwise restricted
    singular values at the requested method decide.
    """
    A = np.asarray(A, dtype=float)
    op = float(np.linalg.svd(A, compute_uv=False)[0]) if A.size else 0.0
    if tol is None:
        tol = 1e-8 * max(op, 1.0)
    if op <= tol:
        return Feasibility("IllPosed", tol, 0.0, 0.0)
    VC = generators_of(C)
    VD = generators_of(D)
    if VC is not None and VD is not None and VC.size and VD.size:
        VCn = VC / np.maximum(np.linalg.norm(VC, axis=0), 1e-300)
        VDn = VD / np.maximum(np.linalg.norm(VD, axis=0), 1e-300)
        M = VDn.T @ A @ VCn
        tp = _feasibility_margin(M, "primal")
        td = _feasibility_margin(M, "dual")
    else:
        tp = restricted_sv(A, C, D, method, stream).value
        td = -restricted_sv(-A.T, D, C, method, stream).value
    if tp <= tol and td <= tol:
        return Feasibility("PrimalFeasible", tol, tp, td)
    if tp <= tol:  # td > tol: strict dual evidence
        if tp < -tol:
            return Feasibility("Ambiguous", tol, tp, td)
        return Feasibility("DualFeasible", tol, tp, td)
    if td >= -tol:
        return Feasibility("DualFeasible", tol, tp, td)
    return Feasibility("Ambiguous", tol, tp, td)


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

    A must be square and full rank, m <= n.  Draws with numerically
    rank-deficient compressions (a probability-zero event) are resampled.
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
    for i in range(samples):
        rng = stream.gen(i)
        while True:
            Q = haar_from_rng(n, rng)
            s = np.linalg.svd((Q @ A)[:m], compute_uv=False)
            if s[-1] > 1e-13 * s[0]:
                break
            resampled += 1
            if resampled > max(10, samples // 100):
                raise RuntimeError("rank-deficient compressions keep "
                                   f"appearing ({resampled} resamples)")
        vals[i] = (s[0] / s[-1]) ** 2
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
class GordonReport:
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

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in
                ("smin_mean", "smin_stderr", "smax_mean", "smax_stderr",
                 "fro_norm", "smin_lower", "smax_upper", "smin_ok",
                 "smax_ok", "trials", "seed")}


def empirical_gordon_check(sigma, m: int, trials: int,
                           stream: SeededStream) -> GordonReport:
    """Check E[s_min(Sigma G)] >= ||Sigma||_F - sqrt(m) and
    E[s_max(Sigma G)] <= ||Sigma||_F + sqrt(m) for diagonal Sigma with
    ||Sigma|| <= 1 and G standard Gaussian n x m."""
    sig = np.asarray(sigma, dtype=float)
    if sig.ndim == 2:
        if not np.allclose(sig, np.diag(np.diag(sig))):
            raise ValueError("Sigma must be diagonal")
        sig = np.diag(sig)
    if sig.ndim != 1:
        raise ValueError("Sigma must be a vector of diagonal entries")
    if np.max(np.abs(sig), initial=0.0) > 1.0 + 1e-12:
        raise ValueError("need ||Sigma|| <= 1")
    n = len(sig)
    if not 1 <= m:
        raise ValueError("m must be positive")
    if trials < 2:
        raise ValueError("need at least 2 trials")
    smin = np.empty(trials)
    smax = np.empty(trials)
    for i in range(trials):
        G = stream.gen(i).standard_normal((n, m))
        s = np.linalg.svd(sig[:, None] * G, compute_uv=False)
        smax[i] = s[0]
        smin[i] = s[min(n, m) - 1]
    fro = float(np.linalg.norm(sig))
    root = math.sqrt(m)
    mn, sn = float(smin.mean()), float(smin.std(ddof=1) / math.sqrt(trials))
    mx, sx = float(smax.mean()), float(smax.std(ddof=1) / math.sqrt(trials))
    return GordonReport(
        smin_mean=mn, smin_stderr=sn, smax_mean=mx, smax_stderr=sx,
        fro_norm=fro, smin_lower=fro - root, smax_upper=fro + root,
        smin_ok=mn >= (fro - root) - 3 * sn, smax_ok=mx <= (fro + root) + 3 * sx,
        trials=trials, seed=stream.master_seed)
