"""Condition-number bounds on projected statistical dimensions."""

import math

import numpy as np
import pytest

from conftest import combined_stderr, planar_wedge, stream

from conekit.bounds import (BoundReport, admissible_projection,
                            analysis_statdim_bound, difference_gordon_limit,
                            edge_thresholds, interpolation_bound,
                            l1_analysis_threshold, min_admissible_m,
                            optimal_m_search, projected_condition_bound,
                            sandwich_bounds)
from conekit.cones import GeneratorCone
from conekit.regularizers import (AnalysisInstance, descent_statdim_analysis,
                                  finite_difference_matrix)
from conekit.statdim import (Estimate, a_eta, estimate_moment,
                             estimate_statdim, stojnic_recipe_l1)


# ---------------------------------------------------------------------------
# condition sandwich
# ---------------------------------------------------------------------------

def test_sandwich_orthogonal_map_is_tight():
    lower, upper_R, upper_kappa = sandwich_bounds(7.0, renegar_R=1.0,
                                                  kappa=1.0)
    assert lower == upper_R == upper_kappa == 7.0


def test_sandwich_formula_values():
    lower, upper_R, upper_kappa = sandwich_bounds(20.0, renegar_R=1.5)
    assert upper_R == 45.0
    assert lower is None and upper_kappa is None
    lower, _, upper_kappa = sandwich_bounds(20.0, kappa=2.0)
    assert lower == 5.0 and upper_kappa == 80.0


def test_sandwich_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sandwich_bounds(-1.0, kappa=2.0)
    with pytest.raises(ValueError):
        sandwich_bounds(5.0, kappa=0.5)
    with pytest.raises(ValueError):
        sandwich_bounds(5.0, renegar_R=0.9)


def test_sandwich_holds_on_mapped_wedge():
    # quarter-plane wedge mapped by diag(2, 1): the image statdim stays
    # inside [delta/kappa^2, kappa^2 delta] up to MC error
    A = np.diag([2.0, 1.0])
    W = planar_wedge(math.pi / 2, 0.3)
    G = np.column_stack([np.array([math.cos(t), math.sin(t)])
                         for t in (0.3, 0.3 + math.pi / 2)])
    AW = GeneratorCone(A @ G)
    d = estimate_statdim(W, 40000, stream(500))
    dA = estimate_statdim(AW, 40000, stream(501))
    kappa2 = 4.0
    se = 3 * combined_stderr(d, dA)
    assert dA.mean >= d.mean / kappa2 - se
    assert dA.mean <= kappa2 * d.mean + se


def test_moment_bound_under_linear_maps():
    # E||Proj_{AC} g||^r <= R^r E||Proj_C g||^r for the restricted
    # condition number R of A; with ||A|| <= 1 the plain operator norm
    # bound R <= kappa applies with the image cone built exactly
    rng = np.random.default_rng(1)
    A = np.diag([1.0, 0.4])
    G = rng.standard_normal((2, 3))
    C = GeneratorCone(G)
    AC = GeneratorCone(A @ G)
    kappa = 1.0 / 0.4
    for i, r in enumerate((1.0, 2.0, 4.0)):
        a = estimate_moment(C, r, 30000, stream(502, i))
        b = estimate_moment(AC, r, 30000, stream(503, i))
        se = 3 * combined_stderr(a, b)
        assert b.mean <= kappa ** r * a.mean + se


# ---------------------------------------------------------------------------
# interpolation bound
# ---------------------------------------------------------------------------

def test_interpolation_pinned_value():
    assert abs(interpolation_bound(20.0, 2.0, 400) - 305.0) <= 1e-12


def test_interpolation_endpoints():
    assert interpolation_bound(20.0, 1.0, 400) == 20.0
    assert abs(interpolation_bound(20.0, 1e9, 400) - 400.0) <= 1e-6


def test_interpolation_never_exceeds_ambient():
    for kappa in (1.0, 1.5, 4.0, 100.0):
        for dc in (0.0, 10.0, 399.0):
            assert interpolation_bound(dc, kappa, 400) <= 400.0 + 1e-12


# ---------------------------------------------------------------------------
# randomized projection bound
# ---------------------------------------------------------------------------

def test_projected_bound_pinned_value():
    # 1.5 * 20 + (400 - 100) * 0.05 = 45
    assert abs(projected_condition_bound(20.0, 1.5, 400, 100, 0.05)
               - 45.0) <= 1e-12
    assert admissible_projection(20.0, 100, 0.05)
    assert min_admissible_m(20.0, 0.05) <= 100


def test_projected_bound_precondition():
    # m = 30 < 20 + 2 sqrt(log(40) * 30) ~ 41 violates the margin
    assert not admissible_projection(20.0, 30, 0.05)
    with pytest.raises(ValueError):
        projected_condition_bound(20.0, 1.5, 400, 30, 0.05)
    with pytest.raises(ValueError):
        projected_condition_bound(20.0, 1.5, 400, 500, 0.05)
    with pytest.raises(ValueError):
        projected_condition_bound(20.0, 1.5, 400, 100, 1.5)


def test_projected_bound_full_m_has_no_slack():
    assert abs(projected_condition_bound(10.0, 2.5, 50, 50, 0.3)
               - 25.0) <= 1e-12


def test_min_admissible_m_is_the_fixed_point():
    for dc, eta in ((20.0, 0.05), (5.0, 0.5), (0.0, 0.1)):
        mstar = min_admissible_m(dc, eta)
        assert mstar >= dc
        assert abs(mstar - (dc + 2 * math.sqrt(math.log(2 / eta) * mstar))) \
            <= 1e-6 * max(mstar, 1.0)
        assert admissible_projection(dc, int(math.ceil(mstar)), eta)
        assert not admissible_projection(dc, int(mstar) - 1, eta)


def test_optimal_m_search_synthetic_estimator():
    # kbar2(m) = 1 + 100 / m trades against the slack (n - m) eta
    def est(m):
        return Estimate(1.0 + 100.0 / m, 0.0, 1, 0)

    m_star, bound, rows = optimal_m_search(10.0, 200, 0.1, est)
    ms = [r["m"] for r in rows]
    bounds = [r["bound"] for r in rows if r["admissible"]]
    assert m_star in ms
    assert abs(bound - min(bounds)) <= 1e-12
    direct = [projected_condition_bound(10.0, 1 + 100.0 / m, 200, m, 0.1)
              for m in ms if admissible_projection(10.0, m, 0.1)]
    assert abs(min(direct) - bound) <= 1e-12


def test_optimal_m_search_eta_shift():
    def est(m):
        return Estimate(1.0 + 100.0 / m, 0.0, 1, 0)

    m_low, _, _ = optimal_m_search(10.0, 200, 0.5, est)
    m_high, _, _ = optimal_m_search(10.0, 200, 0.05, est)
    # smaller slack penalty (low eta) favors smaller m
    assert m_high <= m_low


def test_optimal_m_search_infeasible_grid():
    def est(m):
        return Estimate(1.0, 0.0, 1, 0)

    with pytest.raises(ValueError):
        optimal_m_search(90.0, 100, 0.05, est, m_grid=[91, 95])
    m_star, bound, rows = optimal_m_search(90.0, 100, 0.05, est,
                                           m_grid=[91, 95],
                                           require_admissible=False)
    assert m_star is None and math.isnan(bound)
    assert all(not r["admissible"] for r in rows)


def test_constant_kbar2_minimizes_slack_at_full_m():
    # with a constant first term the bound decreases through (n - m) eta
    # alone, so the argmin sits at m = n where the slack vanishes
    def est(m):
        return Estimate(1.0, 0.0, 1, 0)

    m_star, bound, rows = optimal_m_search(10.0, 200, 0.1, est)
    assert m_star == 200
    assert abs(bound - 10.0) <= 1e-12


def test_flat_bound_breaks_ties_at_smallest_m():
    # estimator engineered so every admissible m gives exactly the same
    # bound (dyadic constants keep the float arithmetic tie exact)
    n, dc, eta = 200, 8.0, 0.125

    def est(m):
        return Estimate(1.0 - (n - m) * eta / dc, 0.0, 1, 0)

    m_star, bound, rows = optimal_m_search(dc, n, eta, est)
    admissible = [r["m"] for r in rows if r["admissible"]]
    assert bound == dc
    assert m_star == min(admissible)


# ---------------------------------------------------------------------------
# analysis recovery thresholds
# ---------------------------------------------------------------------------

def test_analysis_bound_identity_operator():
    inst = AnalysisInstance(np.eye(8), np.array([1.0] * 2 + [0.0] * 6))
    delta = 3.7
    assert abs(analysis_statdim_bound(inst, delta_l1=delta) - delta) <= 1e-9


def test_threshold_identity_pinned_value():
    # delta bound 20 in n = 400 with eta = 0.1:
    # 20 + 4 sqrt(log 40) * 20 ~ 173.65
    n = 400
    inst = AnalysisInstance(np.eye(n),
                            np.concatenate([np.ones(5), np.zeros(n - 5)]))
    rep = l1_analysis_threshold(inst, 0.1, delta_l1=20.0)
    expect = 20.0 + a_eta(0.1, "edge") * math.sqrt(n)
    assert abs(rep.m_required - expect) <= 1e-9
    assert abs(rep.m_required - 173.7) <= 0.1
    assert not rep.clipped


def test_threshold_clipping_flagged():
    n = 30
    inst = AnalysisInstance(np.eye(n),
                            np.concatenate([np.ones(25), np.zeros(n - 25)]))
    rep = l1_analysis_threshold(inst, 0.01, delta_l1=float(n - 1))
    assert rep.clipped
    assert rep.m_required == n
    with pytest.raises(ValueError):
        l1_analysis_threshold(inst, 0.0)


def test_threshold_tv_pipeline_runs():
    D = finite_difference_matrix(50)
    x0 = np.concatenate([np.zeros(20), np.ones(10), np.zeros(20)])
    inst = AnalysisInstance(D, x0)
    rep = l1_analysis_threshold(inst, 0.1)
    assert 0.0 <= rep.m_required <= 50.0
    assert rep.details["s"] == inst.s


def test_analysis_bound_upper_bounds_mc_on_tv():
    D = finite_difference_matrix(30)
    x0 = np.concatenate([np.zeros(15), np.ones(15)])
    inst = AnalysisInstance(D, x0)
    recipe = stojnic_recipe_l1(inst.p, inst.s).mean
    bound = analysis_statdim_bound(inst, delta_l1=recipe)
    mc = descent_statdim_analysis(inst, 20000, stream(504))
    assert mc.mean <= bound + 3 * mc.stderr


# ---------------------------------------------------------------------------
# edge window
# ---------------------------------------------------------------------------

def test_edge_window_pinned_values():
    win = edge_thresholds(20.0, 400, 0.1)
    expect = 20.0 + a_eta(0.1, "edge") * math.sqrt(400)
    assert abs(win.m_succeed - expect) <= 1e-9
    assert win.m_fail == 0.0
    assert win.clipped_low and not win.clipped_high


def test_edge_window_narrows_as_eta_grows():
    widths = []
    for eta in (0.05, 0.2, 0.6, 0.95):
        win = edge_thresholds(200.0, 400, eta)
        widths.append(win.m_succeed - win.m_fail)
    assert all(a > b for a, b in zip(widths, widths[1:]))


def test_edge_window_symmetric_at_half_n():
    win = edge_thresholds(200.0, 400, 0.5)
    assert abs((win.m_succeed - 200.0) - (200.0 - win.m_fail)) <= 1e-9


# ---------------------------------------------------------------------------
# difference operator Gordon limit
# ---------------------------------------------------------------------------

def test_difference_gordon_limit_value():
    r, r2 = difference_gordon_limit(0.2)
    expect = (1 + math.sqrt(0.4)) / (1 - math.sqrt(0.4))
    assert abs(r - expect) <= 1e-12
    assert abs(r - 4.4415) <= 1e-3
    assert abs(r2 - r * r) <= 1e-12


def test_difference_gordon_limit_domain():
    for rho in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            difference_gordon_limit(rho)


# ---------------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------------

def test_bound_report_validation_and_scoring():
    # delta(R^3_+) = 1.5 sits inside [1, 10]: the report scores z <= 0
    rep = BoundReport({"delta_c": 1.5}, 1.0, 10.0, True)
    est = estimate_statdim(GeneratorCone(np.eye(3)), 1000, stream(505))
    rep.attach_mc(est)
    assert rep.mc_mean == est.mean
    assert rep.z is not None and rep.z <= 0.0
    # a violated lower bound scores positive standard errors
    bad = BoundReport({"delta_c": 1.5}, 3.0, 10.0, True)
    bad.attach_mc(est)
    assert bad.z > 3.0
    with pytest.raises(ValueError):
        BoundReport({}, 5.0, 1.0, True)
