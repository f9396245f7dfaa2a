"""Condition-number bounds on statistical dimensions and recovery thresholds.

Three layers of upper bounds for the statistical dimension of a linear
image ``A C`` of a cone are evaluated here: the plain condition bound
``R^2 delta(C)`` with its matrix-condition sandwich, the interpolation
bound ``kappa^{-2} delta(C) + (1 - kappa^{-2}) n`` that can never exceed
the ambient dimension, and the randomized-projection bound
``kbar_m^2 delta(C) + (n - m) eta`` whose condition number refers to a
random m-dimensional compression of A.  The module also converts these
into sample-count thresholds for l1-analysis recovery and exposes the
classical success/failure window of the Gaussian phase transition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import Record, svd
from .regularizers import AnalysisInstance, build_BC_matrices
from .statdim import Estimate, a_eta, stojnic_recipe_l1


@dataclass
class BoundReport(Record):
    """A bound evaluation bundled with an optional Monte Carlo comparison.

    `inputs` records the raw ingredients (delta_c, kappa or kbar2, R,
    n, m, eta as applicable); `lower`/`upper` are the bound values, with
    None for sides the inputs do not determine.  When an MC estimate of
    the bounded quantity is attached, `z` is its distance from the
    violated side in standard errors (negative or zero when the bound
    holds).
    """

    inputs: dict
    lower: float | None
    upper: float | None
    valid: bool
    mc_mean: float | None = None
    mc_stderr: float | None = None
    z: float | None = None

    def __post_init__(self):
        if (self.lower is not None and self.upper is not None
                and self.lower > self.upper + 1e-12):
            raise ValueError("lower bound exceeds upper bound")

    def attach_mc(self, est: Estimate) -> "BoundReport":
        """Attach an MC estimate of the bounded quantity and score it."""
        self.mc_mean = est.mean
        self.mc_stderr = est.stderr
        z = -math.inf
        if self.upper is not None and est.stderr > 0:
            z = (est.mean - self.upper) / est.stderr
        if self.lower is not None and est.stderr > 0:
            z = max(z, (self.lower - est.mean) / est.stderr)
        self.z = None if z == -math.inf else float(z)
        return self


def sandwich_bounds(delta_c: float, renegar_R: float | None = None,
                    kappa: float | None = None):
    """Condition bounds on ``delta(A C)``: ``(lower, upper_R, upper_kappa)``.

    ``delta(A C) <= R^2 delta(C)`` for the cone-restricted condition
    number R of A, and for square full-rank A the matrix condition
    number sandwiches ``delta(C) / kappa^2 <= delta(A C) <= kappa^2
    delta(C)``.  Sides whose condition number is not supplied are None.

    Parameters
    ----------
    delta_c : float
        Statistical dimension of the source cone.
    renegar_R : float, optional
        Cone-restricted condition number, >= 1.
    kappa : float, optional
        Matrix condition number, >= 1 (square full-rank maps only).
    """
    if delta_c < 0:
        raise ValueError("delta_c must be nonnegative")
    if renegar_R is not None and renegar_R < 1.0:
        raise ValueError("condition numbers are >= 1")
    if kappa is not None and kappa < 1.0:
        raise ValueError("condition numbers are >= 1")
    lower = delta_c / kappa ** 2 if kappa is not None else None
    upper_R = renegar_R ** 2 * delta_c if renegar_R is not None else None
    upper_kappa = kappa ** 2 * delta_c if kappa is not None else None
    return lower, upper_R, upper_kappa


def interpolation_bound(delta_c: float, kappa: float, n: int) -> float:
    """Upper bound ``kappa^{-2} delta(C) + (1 - kappa^{-2}) n``.

    Interpolates between ``delta(C)`` (kappa = 1, orthogonal map) and
    the ambient dimension n (kappa -> inf); unlike ``kappa^2 delta(C)``
    it never exceeds n.  Valid for square full-rank maps.
    """
    if not 0 <= delta_c <= n:
        raise ValueError("need 0 <= delta_c <= n")
    if kappa < 1.0:
        raise ValueError("condition numbers are >= 1")
    w = kappa ** -2
    return w * delta_c + (1.0 - w) * n


def admissible_projection(delta_c: float, m: int, eta: float) -> bool:
    """Whether m satisfies ``m >= delta_c + 2 sqrt(log(2/eta) m)``.

    This is the margin under which a Haar-random m-dimensional
    compression preserves the statistical dimension up to ``(n - m)
    eta``; the constant is the kinematic flavor of ``a_eta``.
    """
    return m >= delta_c + a_eta(eta, "kinematic") * math.sqrt(m)


def min_admissible_m(delta_c: float, eta: float) -> float:
    """Smallest real m with ``m >= delta_c + 2 sqrt(log(2/eta) m)``."""
    a = a_eta(eta, "kinematic")
    root = (a + math.sqrt(a * a + 4.0 * delta_c)) / 2.0
    return root * root


def projected_condition_bound(delta_c: float, kbar2: float, n: int, m: int,
                              eta: float) -> float:
    """Randomized upper bound ``kbar2 * delta(C) + (n - m) eta``.

    `kbar2` is the mean squared condition number of a random
    m-dimensional compression of the map (:func:`conekit.condition.kappa_bar`
    squared, or the cone-restricted analogue).  Requires the projection
    dimension to be admissible for eta; at ``m = n`` the slack term
    vanishes and the bound reduces to ``kbar2 * delta_c``.

    Raises
    ------
    ValueError
        If ``m > n``, eta is outside (0, 1), or m is below the
        admissibility threshold of :func:`admissible_projection`.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    if not admissible_projection(delta_c, m, eta):
        raise ValueError(
            f"m = {m} is below the admissible threshold "
            f"{min_admissible_m(delta_c, eta):.2f} for eta = {eta}")
    return kbar2 * delta_c + (n - m) * eta


def optimal_m_search(delta_c: float, n: int, eta: float, kbar2_estimator,
                     m_grid=None, require_admissible: bool = True):
    """Minimize the randomized bound over admissible projection dimensions.

    Parameters
    ----------
    kbar2_estimator : callable
        ``kbar2_estimator(m) -> Estimate`` for the mean squared
        condition number of the random compression at dimension m.
    m_grid : iterable of int, optional
        Candidate dimensions; defaults to every integer from the
        admissibility threshold up to n.
    require_admissible : bool, optional
        When True (default) raise if no grid point is admissible;
        when False return ``(None, nan, rows)`` instead so callers can
        report the flagged rows.

    Returns
    -------
    m_star : int or None
        Grid argmin of ``kbar2(m) delta_c + (n - m) eta``.
    bound_star : float
        The minimized bound value.
    rows : list of dict
        Per-m records (m, kbar2, kbar2_stderr, bound, admissible); the
        inadmissible rows carry NaN bounds and are excluded from the
        argmin.
    """
    if m_grid is None:
        m_grid = range(int(math.ceil(min_admissible_m(delta_c, eta))), n + 1)
    rows = []
    m_star, bound_star = None, math.inf
    for m in m_grid:
        m = int(m)
        ok = 1 <= m <= n and admissible_projection(delta_c, m, eta)
        if not ok:
            rows.append({"m": m, "kbar2": math.nan, "kbar2_stderr": math.nan,
                         "bound": math.nan, "admissible": False})
            continue
        est = kbar2_estimator(m)
        bound = est.mean * delta_c + (n - m) * eta
        rows.append({"m": m, "kbar2": est.mean, "kbar2_stderr": est.stderr,
                     "bound": bound, "admissible": True})
        if bound < bound_star:
            m_star, bound_star = m, bound
    if m_star is None:
        if require_admissible:
            raise ValueError("no admissible m in the grid")
        bound_star = math.nan
    return m_star, bound_star, rows


# ---------------------------------------------------------------------------
# l1-analysis thresholds
# ---------------------------------------------------------------------------

def analysis_statdim_bound(inst: AnalysisInstance,
                           delta_l1: float | None = None) -> float:
    """Upper bound on the descent-cone statdim of ``||D .||_1`` at ``x0``.

    Combines polarity with the condition sandwich in the reduced frame:
    with C the compression matrix of :func:`build_BC_matrices` and
    ``delta_l1`` the statistical dimension of the l1 descent cone at
    ``D x0``,

        kappa(C)^{-2} delta_l1 + (1 - (p/n) kappa(C)^{-2}) n.

    The bound is increasing in ``delta_l1``, so substituting the
    closed-form recipe value (itself an upper bound) keeps it valid;
    that is the default when `delta_l1` is not given.
    """
    _, C = build_BC_matrices(inst)
    sv = svd(C)[1]
    if sv[-1] <= 1e-14 * sv[0]:
        raise ValueError("compression matrix is rank deficient")
    kappa = float(sv[0] / sv[-1])
    if delta_l1 is None:
        delta_l1 = stojnic_recipe_l1(inst.p, inst.s).mean
    w = kappa ** -2
    p, n = inst.p, inst.n
    return w * delta_l1 + (1.0 - (p / n) * w) * n


@dataclass
class ThresholdReport(Record):
    """A sample-count threshold, clipped into [0, n] when vacuous."""

    m_required: float
    raw: float
    clipped: bool
    details: dict


def l1_analysis_threshold(inst: AnalysisInstance, eta: float,
                          delta_l1: float | None = None) -> ThresholdReport:
    """Measurements sufficient for l1-analysis recovery at level 1 - eta.

    The threshold is the statdim bound of :func:`analysis_statdim_bound`
    plus the phase-transition margin ``a_eta sqrt(n)`` with the edge
    flavor of the constant.  For ``D = I`` the compression is orthogonal
    and this reduces to ``delta_l1 + a_eta sqrt(n)``.  Values outside
    [0, n] are clipped and flagged: the bound can be vacuous when the
    analysis operator is badly conditioned.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    n = inst.n
    base = analysis_statdim_bound(inst, delta_l1=delta_l1)
    raw = base + a_eta(eta, "edge") * math.sqrt(n)
    m_req = min(max(raw, 0.0), float(n))
    return ThresholdReport(
        m_required=m_req, raw=raw, clipped=(m_req != raw),
        details={"statdim_bound": base, "eta": eta, "n": n, "p": inst.p,
                 "s": inst.s})


@dataclass
class EdgeWindow(Record):
    """Success/failure thresholds ``delta +- a_eta sqrt(n)``, clipped."""

    m_succeed: float
    m_fail: float
    clipped_high: bool
    clipped_low: bool


def edge_thresholds(delta: float, n: int, eta: float) -> EdgeWindow:
    """Phase-transition window for Gaussian measurements.

    Recovery succeeds with probability at least ``1 - eta`` once
    ``m >= delta + a_eta sqrt(n)`` and fails with probability at least
    ``1 - eta`` once ``m <= delta - a_eta sqrt(n)``, with
    ``a_eta = 4 sqrt(log(4/eta))``.  Ends outside [0, n] are clipped
    and flagged.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    a = a_eta(eta, "edge") * math.sqrt(n)
    hi_raw, lo_raw = delta + a, delta - a
    hi = min(max(hi_raw, 0.0), float(n))
    lo = min(max(lo_raw, 0.0), float(n))
    return EdgeWindow(m_succeed=hi, m_fail=lo,
                      clipped_high=(hi != hi_raw), clipped_low=(lo != lo_raw))


def difference_gordon_limit(rho: float):
    """Large-n limit of the Gordon ratio for the difference operator.

    With ``m = rho n`` the bound ``(||D||_F + sqrt(m) ||D||) /
    (||D||_F - sqrt(m) ||D||)`` tends to ``(sqrt(2) + 2 sqrt(rho)) /
    (sqrt(2) - 2 sqrt(rho))`` since ``||D||_F^2 = 2n - 1`` and
    ``||D|| < 2``.  Returns ``(ratio, ratio**2)``: the squared form also
    circulates for this limit, and neither is asserted over the other
    here.  Only meaningful for ``rho < 1/2``, where the denominator is
    positive.
    """
    if not 0.0 < rho < 0.5:
        raise ValueError("the limit requires 0 < rho < 1/2")
    r = (1.0 + math.sqrt(2.0 * rho)) / (1.0 - math.sqrt(2.0 * rho))
    return r, r * r
