"""Optimization kernels: nonnegative least squares, golden-section search,
a dense primal-dual interior-point LP solver, basis-pursuit recovery, and
phase-transition experiments.

The NNLS routine is the projection kernel for finitely generated cones; the
LP solver backs basis-pursuit recovery and polyhedral feasibility tests.
Both are deterministic given their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import SeededStream

__all__ = [
    "NNLSResult",
    "nnls",
    "golden_section_min",
    "LPStandardForm",
    "LPResult",
    "lp_solve_standard",
    "solve_bp_analysis",
    "RecoveryOutcome",
    "PhaseRow",
    "phase_transition_experiment",
    "wilson_interval",
    "crossing_from_rows",
]


# ---------------------------------------------------------------------------
# Nonnegative least squares (Lawson-Hanson active set)
# ---------------------------------------------------------------------------

@dataclass
class NNLSResult:
    """Solution of ``min ||A c - y||`` subject to ``c >= 0``."""

    coef: np.ndarray
    residual: float
    iterations: int
    converged: bool
    kkt_residual: float


def nnls(A: np.ndarray, y: np.ndarray, tol: float | None = None,
         max_iter: int | None = None) -> NNLSResult:
    """Solve ``min ||A c - y||_2`` subject to ``c >= 0``.

    Active-set method of Lawson and Hanson working on the normal equations.
    At the solution the KKT conditions hold: the gradient ``A^T(Ac - y)`` is
    ~0 on the passive set and >= -tol elsewhere.

    Parameters
    ----------
    A : ndarray, shape (m, k)
    y : ndarray, shape (m,)
    tol : float, optional
        Dual feasibility tolerance.  Defaults to ``1e-10 * max(1, |A^T y|_inf)``.
    max_iter : int, optional
        Cap on active-set changes; defaults to ``3 * k + 30``.

    Raises
    ------
    ValueError
        On shape mismatch or non-finite input.
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    if A.ndim != 2 or y.ndim != 1 or A.shape[0] != y.shape[0]:
        raise ValueError("nnls expects A (m,k) and y (m,)")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(y))):
        raise ValueError("nnls expects finite input")
    G = A.T @ A
    w0 = A.T @ y
    coef, iters, converged = _nnls_gram(G, w0, tol=tol, max_iter=max_iter)
    r = A @ coef - y
    grad = G @ coef - w0
    kkt = _kkt_residual(coef, grad)
    return NNLSResult(coef, float(np.linalg.norm(r)), iters, converged, kkt)


def _kkt_residual(c: np.ndarray, grad: np.ndarray) -> float:
    """KKT residual: |grad| on the support plus negative part elsewhere."""
    on = c > 0
    res = 0.0
    if on.any():
        res = float(np.max(np.abs(grad[on])))
    if (~on).any():
        res = max(res, float(max(0.0, -np.min(grad[~on]))))
    return res


def _nnls_gram(G: np.ndarray, w0: np.ndarray, tol: float | None = None,
               max_iter: int | None = None):
    """Lawson-Hanson on precomputed Gram matrix G = A^T A and w0 = A^T y."""
    k = G.shape[0]
    if k == 0:
        return np.zeros(0), 0, True
    if tol is None:
        tol = 1e-10 * max(1.0, float(np.max(np.abs(w0))) if k else 1.0)
    if max_iter is None:
        max_iter = 3 * k + 30
    passive = np.zeros(k, dtype=bool)
    c = np.zeros(k)
    it = 0
    while it < max_iter:
        grad = w0 - G @ c
        cand = ~passive & (grad > tol)
        if not cand.any():
            return c, it, True
        j = int(np.argmax(np.where(cand, grad, -np.inf)))
        passive[j] = True
        # inner loop: restore feasibility of the passive-set LS solution
        for _ in range(k + 1):
            it += 1
            idx = np.flatnonzero(passive)
            Gpp = G[np.ix_(idx, idx)]
            try:
                z = np.linalg.solve(Gpp, w0[idx])
            except np.linalg.LinAlgError:
                z = np.linalg.lstsq(Gpp, w0[idx], rcond=None)[0]
            if np.all(z > 0):
                c = np.zeros(k)
                c[idx] = z
                break
            cur = c[idx]
            neg = z <= 0
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(neg, cur / (cur - z), np.inf)
            alpha = float(np.min(ratios))
            alpha = min(max(alpha, 0.0), 1.0)
            cur = cur + alpha * (z - cur)
            c = np.zeros(k)
            c[idx] = np.maximum(cur, 0.0)
            drop = passive & (c <= 0)
            drop[idx[np.argmin(ratios)]] = True
            passive &= ~drop
            c[~passive] = 0.0
            if not passive.any():
                break
    grad = w0 - G @ c
    ok = not ((~passive) & (grad > 10 * tol)).any()
    return c, it, ok


# ---------------------------------------------------------------------------
# Golden-section minimization
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(f, a: float, b: float, tol: float = 1e-10,
                       max_iter: int = 200):
    """Minimize a unimodal function on [a, b] by golden-section search.

    Returns ``(x_min, f_min)``.  The bracket shrinks by the inverse golden
    ratio each step, so ``max_iter`` of 200 covers any practical tolerance.
    """
    if b < a:
        a, b = b, a
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
    xm = 0.5 * (a + b)
    return xm, f(xm)


# ---------------------------------------------------------------------------
# Dense primal-dual interior point LP (Mehrotra predictor-corrector)
# ---------------------------------------------------------------------------

@dataclass
class LPStandardForm:
    """min c^T x  subject to  A x = b, x >= 0."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        m, n = self.A.shape
        if self.c.shape != (n,) or self.b.shape != (m,):
            raise ValueError("inconsistent LP dimensions")


@dataclass
class LPResult:
    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    status: str               # optimal | max_iter | numerical
    iterations: int
    primal_obj: float
    primal_residual: float
    dual_residual: float
    rel_gap: float

    @property
    def converged(self) -> bool:
        return self.status == "optimal"


LP_TOL = 1e-8       # relative residual and duality-gap target
LP_MAX_ITER = 200   # interior-point iterations before giving up
LP_STALL = 1e3      # primal-residual growth over its best that marks a stall
LP_STALL_ITER = 30  # stalled iterations in a row that end the solve


def lp_solve_standard(lp: LPStandardForm) -> LPResult:
    """Solve a standard-form LP with Mehrotra's predictor-corrector method.

    Dense normal-equations implementation with Ruiz equilibration of the
    constraint matrix.  Convergence requires relative primal/dual
    residuals and the relative duality gap all below ``LP_TOL`` within
    ``LP_MAX_ITER`` iterations; the reported residuals refer to the
    original (unscaled) data.  A diverging or stalled iteration ends
    ``numerical`` and returns the best iterate seen.
    """
    A0, b0, c0 = lp.A, lp.b, lp.c
    m, n = A0.shape

    # Ruiz row/column equilibration: iterates toward unit max-entry rows
    # and columns, which keeps the normal matrix sanely scaled
    R = np.ones(m)
    Cs = np.ones(n)
    A = A0.copy()
    for _ in range(6):
        rmax = np.sqrt(np.maximum(np.abs(A).max(axis=1), 1e-30))
        A /= rmax[:, None]
        R /= rmax
        cmax = np.sqrt(np.maximum(np.abs(A).max(axis=0), 1e-30))
        A /= cmax[None, :]
        Cs /= cmax
    b = R * b0
    c = Cs * c0

    # starting point: least-squares primal/dual shifted into the interior
    reg = 1e-12 * max(1.0, float(np.trace(A @ A.T)) / max(m, 1))
    AAt = A @ A.T + reg * np.eye(m)
    x = A.T @ _solve_sym(AAt, b)
    y = _solve_sym(AAt, A @ c)
    s = c - A.T @ y
    dx = max(-1.5 * float(x.min(initial=0.0)), 0.0)
    ds = max(-1.5 * float(s.min(initial=0.0)), 0.0)
    x = x + dx
    s = s + ds
    xs = float(x @ s)
    dhx = 0.5 * xs / max(float(s.sum()), 1e-300)
    dhs = 0.5 * xs / max(float(x.sum()), 1e-300)
    x = x + dhx + 1e-10
    s = s + dhs + 1e-10

    nb = 1.0 + np.linalg.norm(b)
    nc = 1.0 + np.linalg.norm(c)
    status = "max_iter"
    it = 0
    best_merit = math.inf
    best_pres = math.inf
    prev_gap = math.inf
    stalled = 0
    best_xys = None
    for it in range(1, LP_MAX_ITER + 1):
        rp = A @ x - b
        rd = A.T @ y + s - c
        gap = float(x @ s)
        pobj = float(c @ x)
        dobj = float(b @ y)
        relgap = abs(pobj - dobj) / (1.0 + abs(pobj))
        pres = np.linalg.norm(rp) / nb
        dres = np.linalg.norm(rd) / nc
        merit = pres + dres + relgap
        if merit < best_merit:
            best_merit = merit
            best_xys = (x.copy(), y.copy(), s.copy())
        if pres <= LP_TOL and dres <= LP_TOL and relgap <= LP_TOL:
            status = "optimal"
            break
        # bail out (and fall back to the best iterate) once the iteration
        # demonstrably diverges instead of polishing a blown-up point
        if not math.isfinite(merit) or merit > max(1e8, 1e4 * best_merit):
            status = "numerical"
            break
        # ... or once it stalls: the primal residual stays above the
        # tolerance and LP_STALL times its best value while the gap keeps
        # shrinking, for LP_STALL_ITER iterations in a row.  x and s then
        # shrink by orders of magnitude per step toward underflow, and the
        # iterate does not regain feasibility
        best_pres = min(best_pres, pres)
        if pres > max(LP_TOL, LP_STALL * best_pres) and gap < prev_gap:
            stalled += 1
            if stalled == LP_STALL_ITER:
                status = "numerical"
                break
        else:
            stalled = 0
        prev_gap = gap

        d = x / s
        M = (A * d) @ A.T
        # static floor plus an adaptive term so near-rank-deficient normal
        # matrices (d spanning many orders of magnitude) stay solvable
        M[np.diag_indices_from(M)] += reg + 1e-14 * float(
            M.diagonal().max(initial=0.0))
        try:
            # predictor (affine scaling) direction
            r_xs = x * s
            rhs = -rp + A @ ((r_xs - x * rd) / s)
            dy = _solve_sym(M, rhs)
            ds_ = -rd - A.T @ dy
            dx_ = (-r_xs - x * ds_) / s
            a_p = _step_to_boundary(x, dx_)
            a_d = _step_to_boundary(s, ds_)
            mu = gap / n
            mu_aff = float((x + a_p * dx_) @ (s + a_d * ds_)) / n
            sigma = (max(mu_aff, 0.0) / mu) ** 3 if mu > 0 else 0.0
            # corrector
            r_xs = x * s + dx_ * ds_ - sigma * mu
            rhs = -rp + A @ ((r_xs - x * rd) / s)
            dy = _solve_sym(M, rhs)
            ds_ = -rd - A.T @ dy
            dx_ = (-r_xs - x * ds_) / s
        except np.linalg.LinAlgError:
            status = "numerical"
            break
        a_p = min(1.0, 0.99995 * _step_to_boundary(x, dx_))
        a_d = min(1.0, 0.99995 * _step_to_boundary(s, ds_))
        if min(a_p, a_d) < 1e-3:
            # the second-order corrector can misfire near a degenerate
            # face; retry with a pure centering direction before giving up
            sigma_c = max(sigma, 0.8)
            r_xs = x * s - sigma_c * mu
            rhs = -rp + A @ ((r_xs - x * rd) / s)
            dy2 = _solve_sym(M, rhs)
            ds2 = -rd - A.T @ dy2
            dx2 = (-r_xs - x * ds2) / s
            a_p2 = min(1.0, 0.99995 * _step_to_boundary(x, dx2))
            a_d2 = min(1.0, 0.99995 * _step_to_boundary(s, ds2))
            if min(a_p2, a_d2) > min(a_p, a_d):
                dx_, dy, ds_, a_p, a_d = dx2, dy2, ds2, a_p2, a_d2
        if a_p <= 1e-14 and a_d <= 1e-14:
            status = "numerical"
            break
        x = x + a_p * dx_
        y = y + a_d * dy
        s = s + a_d * ds_

    if status != "optimal" and best_xys is not None:
        x, y, s = best_xys
    x = Cs * x
    y = R * y
    s = s / Cs
    rp = A0 @ x - b0
    rd = A0.T @ y + s - c0
    pobj = float(c0 @ x)
    dobj = float(b0 @ y)
    return LPResult(
        x=x, y=y, s=s, status=status, iterations=it,
        primal_obj=pobj,
        primal_residual=float(np.linalg.norm(rp) / (1.0 + np.linalg.norm(b0))),
        dual_residual=float(np.linalg.norm(rd) / (1.0 + np.linalg.norm(c0))),
        rel_gap=abs(pobj - dobj) / (1.0 + abs(pobj)),
    )


def _solve_sym(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    try:
        out = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        return np.linalg.lstsq(M, rhs, rcond=None)[0]
    # one step of iterative refinement; the systems here are small but
    # can be extremely ill-conditioned late in an interior-point run
    try:
        return out + np.linalg.solve(M, rhs - M @ out)
    except np.linalg.LinAlgError:
        return out


def _step_to_boundary(v: np.ndarray, dv: np.ndarray) -> float:
    neg = dv < 0
    if not neg.any():
        return 1.0
    return float(min(1.0, np.min(-v[neg] / dv[neg])))


# ---------------------------------------------------------------------------
# Basis pursuit with an analysis operator
# ---------------------------------------------------------------------------

@dataclass
class RecoveryOutcome:
    x_hat: np.ndarray
    success: bool
    linf_error: float
    solver_status: str
    objective: float


def solve_bp_analysis(D: np.ndarray, A: np.ndarray, b: np.ndarray) -> LPResult:
    """Solve ``min ||D x||_1  subject to  A x = b`` for square invertible D.

    With z = D x this is the split LP ``min 1^T (z+ + z-)`` subject to
    ``(A D^{-1}) (z+ - z-) = b`` and ``z+, z- >= 0``: m rows, 2n columns,
    unit costs.  The returned LPResult carries (z+, z-), so its
    ``primal_obj`` is ``||D x_hat||_1``; use :func:`bp_extract` for x_hat.
    Raises ValueError unless D is n x n with n = ``A.shape[1]`` and
    invertible.
    """
    D = np.asarray(D, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or D.shape != (A.shape[1], A.shape[1]):
        raise ValueError("D must be n x n for A with n columns")
    if b.shape != (A.shape[0],):
        raise ValueError("b length must match rows of A")
    try:
        M = np.linalg.solve(D.T, A.T).T
    except np.linalg.LinAlgError:
        raise ValueError("D must be invertible") from None
    return lp_solve_standard(
        LPStandardForm(np.ones(2 * M.shape[1]), np.hstack([M, -M]), b))


def bp_extract(res: LPResult, D: np.ndarray) -> np.ndarray:
    """Recover ``x = D^{-1} (z+ - z-)`` from the basis-pursuit LP variables."""
    zp, zm = res.x.reshape(2, -1)
    return np.linalg.solve(D, zp - zm)


def recover(D: np.ndarray, A: np.ndarray, x0: np.ndarray) -> RecoveryOutcome:
    """Run basis pursuit on measurements ``b = A x0`` and grade the result.

    D must be square invertible (see :func:`solve_bp_analysis`).  Success
    means ``||x_hat - x0||_inf <= 1e-4 * max(1, ||x0||_inf)``; solver
    non-convergence is flagged separately and never counts as a
    successful recovery.
    """
    x0 = np.asarray(x0, dtype=float)
    b = A @ x0
    res = solve_bp_analysis(D, A, b)
    x_hat = bp_extract(res, D)
    err = float(np.max(np.abs(x_hat - x0))) if x0.size else 0.0
    thresh = 1e-4 * max(1.0, float(np.max(np.abs(x0))) if x0.size else 1.0)
    ok = res.converged and err <= thresh
    return RecoveryOutcome(
        x_hat=x_hat, success=ok, linf_error=err,
        solver_status=res.status,
        objective=res.primal_obj,
    )


# ---------------------------------------------------------------------------
# Phase-transition experiment
# ---------------------------------------------------------------------------

def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        return 0.0, 1.0
    ph = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (ph + z2 / (2 * trials)) / denom
    half = z * math.sqrt(ph * (1 - ph) / trials + z2 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass
class PhaseRow:
    m: int
    trials: int
    successes: int
    solver_failures: int
    rate: float
    wilson_lo: float
    wilson_hi: float


def phase_transition_experiment(n: int, s: int, m_values, trials: int,
                                stream: SeededStream,
                                D: np.ndarray | None = None) -> list[PhaseRow]:
    """Empirical recovery rates of basis pursuit across measurement counts.

    For each m, ``trials`` independent instances are drawn: a Gaussian
    measurement matrix and a signal whose sparsity structure lives in the
    analysis domain (s nonzero entries of D x0 when D is given, of x0
    itself otherwise, with +-1 values on a uniformly random support).
    D must be n x n and invertible; a :func:`recover` solve that does not
    end ``optimal`` counts in the row's ``solver_failures``.
    """
    if not 0 < s <= n:
        raise ValueError("need 0 < s <= n")
    D_eff = np.eye(n) if D is None else np.asarray(D, dtype=float)
    if D_eff.shape != (n, n):
        raise ValueError("analysis signals need an n x n invertible D")
    rows = []
    for mi, m in enumerate(m_values):
        m = int(m)
        if not 0 < m <= n:
            raise ValueError("each m must lie in (0, n]")
        sub = stream.child(mi)
        succ = 0
        fails = 0
        for t in range(trials):
            rng = sub.gen(t)
            x0 = _sparse_signal(n, s, rng, D_eff if D is not None else None)
            A = rng.standard_normal((m, n))
            out = recover(D_eff, A, x0)
            if not out.solver_status == "optimal":
                fails += 1
            if out.success:
                succ += 1
        lo, hi = wilson_interval(succ, trials)
        rows.append(PhaseRow(m, trials, succ, fails, succ / trials, lo, hi))
    return rows


def _sparse_signal(n: int, s: int, rng: np.random.Generator,
                   D: np.ndarray | None) -> np.ndarray:
    """Signal with an s-sparse +-1 pattern, in the analysis domain if D given."""
    idx = rng.choice(n, size=s, replace=False)
    y0 = np.zeros(n)
    y0[idx] = rng.choice([-1.0, 1.0], size=s)
    return y0 if D is None else np.linalg.solve(D, y0)


def crossing_from_rows(rows: list[PhaseRow], level: float = 0.5):
    """Interpolated m where the success rate first crosses ``level``.

    Returns None when the curve never reaches the level.
    """
    prev = None
    for row in sorted(rows, key=lambda r: r.m):
        if row.rate >= level:
            if prev is None or prev.rate == row.rate:
                return float(row.m)
            frac = (level - prev.rate) / (row.rate - prev.rate)
            return float(prev.m + frac * (row.m - prev.m))
        prev = row
    return None
