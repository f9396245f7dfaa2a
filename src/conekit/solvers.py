"""Optimization kernels: nonnegative least squares, golden-section search,
a dense primal-dual interior-point LP solver, basis-pursuit recovery, and
phase-transition experiments.

One batched Lawson-Hanson NNLS kernel, which advances every right-hand
side at once, projects onto generated and inequality cones; ``nnls`` runs
it on one row, and ``_sections`` on the stacked Gordan tests that decide
phase-transition trials.  The LP solver backs basis-pursuit recovery,
``recover`` and ``solve_bp_analysis``.  All are deterministic.
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


def nnls(A: np.ndarray, y: np.ndarray) -> NNLSResult:
    """Solve ``min ||A c - y||_2`` subject to ``c >= 0``.

    Active-set method of Lawson and Hanson working on the normal equations
    (:func:`_nnls_batch` on one row).  At the solution the KKT conditions
    hold: the gradient ``A^T(Ac - y)`` is ~0 on the passive set and >= -tol
    elsewhere, with the dual feasibility tolerance ``tol = 1e-10 * max(1,
    |A^T y|_inf)``.  Active-set changes are capped at ``3 * k + 30``.

    Parameters
    ----------
    A : ndarray, shape (m, k)
    y : ndarray, shape (m,)

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
    coef, iters, ok = (out[0] for out in _nnls_batch(G, w0[None, :]))
    r = A @ coef - y
    grad = G @ coef - w0
    kkt = _kkt_residual(coef, grad)
    return NNLSResult(coef, float(np.linalg.norm(r)), int(iters), bool(ok),
                      kkt)


def _kkt_residual(c: np.ndarray, grad: np.ndarray) -> float:
    """KKT residual: |grad| on the support plus negative part elsewhere."""
    on = c > 0
    res = 0.0
    if on.any():
        res = float(np.max(np.abs(grad[on])))
    if (~on).any():
        res = max(res, float(max(0.0, -np.min(grad[~on]))))
    return res


# Largest stacked array, in bytes, that the batched kernels build at once.
# Larger chunks raise peak memory for no speed; much smaller ones are slower.
CHUNK_BYTES = 256 * 1024


def _chunk_rows(per_row: int) -> int:
    """Rows per chunk when each row needs ``per_row`` float64 entries."""
    return max(1, CHUNK_BYTES // (8 * max(per_row, 1)))


def _nnls_batch(G: np.ndarray, W0: np.ndarray):
    """Lawson-Hanson NNLS on every row w0 = A^T y of W0 (N x k), given
    G = A^T A shared (k x k) or one per row (N x k x k).

    Each row keeps its own passive set, tolerance ``1e-10 max(1,
    |w0|_inf)``, caps of ``3 k + 30`` steps in all and ``k + 1`` per
    entering index, ``lstsq`` fallback and final convergence check.  A
    step advances every row still in its inner loop at once: the passive-set
    systems are solved by one stacked ``np.linalg.solve`` per chunk of rows
    (see :func:`_passive_solves`).  Returns (C, iterations, converged), one
    row, count and flag per row of W0.

    Every running row takes one inner step per loop, so one counter holds
    every row's iteration count.  The bookkeeping is kept small: ``E`` is
    W0 with ``-inf`` on the passive set, so the entering scan is one
    subtraction and one ``argmax``, and an index is passive exactly when
    its entry of ``E`` is ``-inf``.  Each running row lists its passive
    indices ascending in a row of ``L``, padded with the dead index k to
    the largest passive set; an entering index takes a dead slot and a
    drop turns slots dead, each followed by a sort.  A feasible solution
    is scattered straight into C, which is 0 off the passive set; only the
    few rows with a nonpositive passive coefficient step toward
    feasibility, on their lists.
    """
    N, k = W0.shape
    iters = np.zeros(N, dtype=np.int64)
    if k == 0:
        return np.zeros((N, 0)), iters, np.ones(N, dtype=bool)
    tol = 1e-10 * np.maximum(1.0, np.abs(W0).max(axis=1))
    max_iter = 3 * k + 30
    E = W0.copy()
    entered = np.zeros(N, dtype=np.int64)  # step at which the inner loop began
    live = np.arange(N)                    # rows still running
    outer = np.ones(N, dtype=bool)         # per live row: in the outer loop
    L = np.full((N, 0), k)                 # per live row: its passive list
    # C, G and W0 bordered by a zero column (and row) for the dead slot k
    Cb = np.zeros((N, k + 1))
    Gb = np.zeros(G.shape[:-2] + (k + 1, k + 1))
    Gb[..., :k, :k] = G
    Wb = np.zeros((N, k + 1))
    Wb[:, :k] = W0
    t = 0
    while live.size:
        # outer loop: pick the entering index, or stop
        rows = live[outer]
        if t >= max_iter:              # every live row has taken t steps
            iters[rows] = t
            live, L = live[~outer], L[~outer]
        else:
            grad = E[rows] - _gram_rows(G, Cb[rows, :k], rows)
            j = np.argmax(grad, axis=1)
            done = ~(grad[np.arange(rows.size), j] > tol[rows])
            if done.any():
                iters[rows[done]] = t
                keep = np.ones(live.size, dtype=bool)
                keep[np.flatnonzero(outer)[done]] = False
                live, L, outer = live[keep], L[keep], outer[keep]
                rows, j = rows[~done], j[~done]
            E[rows, j] = -np.inf
            entered[rows] = t
            L = np.concatenate([L, np.full((live.size, 1), k)], axis=1)
            L[outer, -1] = j
            L.sort(axis=1)
        if not live.size:
            break
        # inner loop: restore feasibility of the passive-set LS solution
        t += 1
        rows = live
        while not (L[:, -1] < k).any():  # trim to the largest passive set
            L = L[:, :-1]
        z = _passive_solves(Gb, Wb, rows, L)
        on = L < k
        feasible = outer = ((z > 0) | ~on).all(axis=1)
        idx = L
        if not feasible.all():
            pos = np.flatnonzero(~feasible)
            bad, ix, Z, on = rows[pos], L[pos], z[pos], on[pos]
            cur = Cb[bad[:, None], ix]  # dead slots read the zero column
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(on & (Z <= 0), cur / (cur - Z), np.inf)
            alpha = np.clip(ratios.min(axis=1), 0.0, 1.0)
            cur = np.where(on, np.maximum(cur + alpha[:, None] * (Z - cur),
                                          0.0), 0.0)
            drop = cur <= 0
            drop[np.arange(bad.size), ratios.argmin(axis=1)] = True
            drop &= on
            r, q = np.nonzero(drop)
            E[bad[r], ix[r, q]] = W0[bad[r], ix[r, q]]
            Cb[bad[:, None], ix] = np.where(drop, 0.0, cur)
            ix = np.where(drop, k, ix)
            ix.sort(axis=1)
            outer = feasible.copy()
            outer[pos] = (ix[:, 0] == k) | (t - entered[bad] == k + 1)
            L[pos] = ix
            rows, idx, z = rows[feasible], L[feasible], z[feasible]
        Cb[rows[:, None], idx] = z     # dead slots write the scratch column
    C = Cb[:, :k].copy()
    grad = E - _gram_rows(G, C, slice(None))
    ok = ~(grad > 10 * tol[:, None]).any(axis=1)
    return C, iters, ok


def _gram_rows(G: np.ndarray, C: np.ndarray, rows):
    """G[i] c for each row c of C, where i runs over ``rows`` when G holds
    one Gram matrix per row; a shared G multiplies every row."""
    if G.ndim == 2:
        return C @ G.T
    return np.matmul(G[rows], C[:, :, None])[:, :, 0]


def _passive_solves(Gb: np.ndarray, Wb: np.ndarray, rows: np.ndarray,
                    L: np.ndarray):
    """For each row i of ``rows`` and its passive list L[i], the solution z
    of G[p, p] z = w0[p], with G and w0 given bordered by a zero column and
    row (``Gb``: (k + 1) x (k + 1), shared, or one per row of W0; ``Wb``:
    N x (k + 1)).

    L is len(rows) x m: each row lists its passive indices ascending, then
    the dead index k, and z[i, q] is the coefficient of index L[i, q].
    Each stacked system is the passive block padded with the identity,
    gathered by one flat ``take`` from the bordered G, with ones put on the
    diagonal of the dead slots.  They are solved in chunks of rows of at
    most ``CHUNK_BYTES``.  A singular system falls back to ``lstsq`` on its
    passive block.
    """
    R, m = L.shape
    k1 = Wb.shape[1]
    rhs = Wb.take(rows[:, None] * k1 + L)
    z = np.empty((R, m))
    step = _chunk_rows(m * m)
    for a in range(0, R, step):
        ix, b = L[a:a + step], rhs[a:a + step]
        flat = ix[:, :, None] * k1 + ix[:, None, :]
        if Gb.ndim == 3:
            flat += (rows[a:a + step] * (k1 * k1))[:, None, None]
        M = Gb.take(flat)
        M.reshape(len(ix), m * m)[:, ::m + 1][ix == k1 - 1] = 1.0
        try:
            z[a:a + step] = np.linalg.solve(M, b[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            z[a:a + step] = 0.0
            for i, p in enumerate((ix < k1 - 1).sum(axis=1)):
                try:
                    z[a + i] = np.linalg.solve(M[i], b[i])
                except np.linalg.LinAlgError:
                    z[a + i, :p] = np.linalg.lstsq(M[i, :p, :p], b[i, :p],
                                                   rcond=None)[0]
    return z


_SECTION_TOL = 1e-9  # NNLS residual cutoff, relative to 1 + sum(lambda)


def _sections(A: np.ndarray, B: np.ndarray):
    """Whether {c : M^T c <= 0} != {0} for M = B^T A, and whether the NNLS
    that decided it converged, per draw of the stacks A (N x n x k) and
    B (N x n x d); either may be one shared matrix.

    By Gordan's alternative the set is {0} exactly when the columns of M
    positively span R^d: with zero columns zeroed and the rest scaled to
    unit length, giving U, when U has more than d kept columns, rank d,
    and -U 1 in cone(U), one batched NNLS with a residual within
    1e-9 (1 + sum lam) (scale-free when near-antipodal columns need a
    large lam)."""
    M = np.matmul(np.swapaxes(B, -1, -2), A)
    M = M.reshape((-1,) + M.shape[-2:])
    norms = np.linalg.norm(M, axis=1)
    keep = norms > 1e-12 * np.linalg.norm(A, axis=-2)
    U = np.divide(M, norms[:, None], out=np.zeros_like(M), where=keep[:, None])
    d = U.shape[1]
    test = (keep.sum(axis=1) > d) & (np.linalg.matrix_rank(U) == d)
    nontrivial, converged = ~test, np.ones(len(U), dtype=bool)
    if test.any():
        U = U[test]
        G = np.matmul(np.swapaxes(U, 1, 2), U)
        lam, _, converged[test] = _nnls_batch(G, -G.sum(axis=2))
        res = np.linalg.norm(U @ (lam + 1.0)[:, :, None], axis=(1, 2))
        nontrivial[test] = res > _SECTION_TOL * (1.0 + lam.sum(axis=1))
    return nontrivial, converged


# ---------------------------------------------------------------------------
# Golden-section minimization
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section_min(f, a: float, b: float, tol: float = 1e-10):
    """Minimize a unimodal function on [a, b] by golden-section search.

    Returns ``(x_min, f_min)``.  The bracket shrinks by the inverse golden
    ratio each step until it is at most ``tol`` wide, for at most 200 steps,
    which covers any practical tolerance.
    """
    if b < a:
        a, b = b, a
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(200):
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
            dx_, dy, ds_ = _newton(A, M, x, s, rp, rd, x * s)
            a_p = _step_to_boundary(x, dx_)
            a_d = _step_to_boundary(s, ds_)
            mu = gap / n
            mu_aff = float((x + a_p * dx_) @ (s + a_d * ds_)) / n
            sigma = (max(mu_aff, 0.0) / mu) ** 3 if mu > 0 else 0.0
            # corrector
            dx_, dy, ds_ = _newton(A, M, x, s, rp, rd,
                                   x * s + dx_ * ds_ - sigma * mu)
        except np.linalg.LinAlgError:
            status = "numerical"
            break
        a_p = min(1.0, 0.99995 * _step_to_boundary(x, dx_))
        a_d = min(1.0, 0.99995 * _step_to_boundary(s, ds_))
        if min(a_p, a_d) < 1e-3:
            # the second-order corrector can misfire near a degenerate
            # face; retry with a pure centering direction before giving up
            dx2, dy2, ds2 = _newton(A, M, x, s, rp, rd,
                                    x * s - max(sigma, 0.8) * mu)
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


def _newton(A, M, x, s, rp, rd, r_xs):
    """Step (dx, dy, ds) to complementarity r_xs; M = A diag(x / s) A^T."""
    dy = _solve_sym(M, -rp + A @ ((r_xs - x * rd) / s))
    ds = -rd - A.T @ dy
    return (-r_xs - x * ds) / s, dy, ds


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
    return RecoveryOutcome(x_hat=x_hat, success=ok, linf_error=err,
                           solver_status=res.status, objective=res.primal_obj)


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
    """One measurement count m of a phase scan: ``successes`` of ``trials``
    recovered, ``solver_failures`` trials whose NNLS did not converge
    (counted, never successes), and the ``rate`` with its 95% Wilson
    interval ``[wilson_lo, wilson_hi]``."""

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

    Trial t at ``m_values[i]`` draws from ``stream.child(i).gen(t)`` a
    uniform support of s entries, their +-1 signs, then a Gaussian m x n A;
    z0 = D x0 (x0 when D is None) is s-sparse, and D must be n x n and
    invertible.  Basis pursuit recovers x0 exactly when null(A D^{-1}) meets
    the l1 descent cone at z0 only at 0, which for a Gaussian A holds when
    range(D^{-T} A^T) meets the l1 subdifferential cone at z0 beyond 0
    (Amelunxen, Lotz, McCoy & Tropp, Fact 2.8): one :func:`_sections` test
    per trial, stacked in chunks of about ``CHUNK_BYTES``, with no LP.
    """
    from .cones import L1SubdiffCone, _inequality_matrix

    if not 0 < s <= n:
        raise ValueError("need 0 < s <= n")
    if D is not None:
        D = np.asarray(D, dtype=float)
        if D.shape != (n, n):
            raise ValueError("analysis signals need an n x n invertible D")
        if np.linalg.matrix_rank(D) < n:
            raise ValueError("D must be invertible")
    step = _chunk_rows(4 * n * n)  # k x k Gram matrices of k < 2n normals
    rows = []
    for mi, m in enumerate(m_values):
        m = int(m)
        if not 0 < m <= n:
            raise ValueError("each m must lie in (0, n]")
        sub = stream.child(mi)
        hit, ok = np.zeros((2, trials), dtype=bool)
        for a in range(0, trials, step):
            W, B = [], []
            for t in range(a, min(a + step, trials)):
                rng = sub.gen(t)
                idx = rng.choice(n, size=s, replace=False)
                signs = rng.choice([-1.0, 1.0], size=s)
                A = rng.standard_normal((m, n))
                W.append(_inequality_matrix(L1SubdiffCone(n, idx, signs)))
                B.append(A.T if D is None else np.linalg.solve(D.T, A.T))
            hit[a:a + len(W)], ok[a:a + len(W)] = _sections(
                np.stack(W), np.linalg.qr(np.stack(B))[0])
        succ = int((hit & ok).sum())
        lo, hi = wilson_interval(succ, trials)
        rows.append(PhaseRow(m, trials, succ, trials - int(ok.sum()),
                             succ / trials, lo, hi))
    return rows


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
