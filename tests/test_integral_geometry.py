"""Kinematic, Crofton, and projection identities under random rotations."""

import math

import numpy as np
import pytest

from conftest import combined_stderr, stream

from conekit.cones import (GeneratorCone, InequalityCone, NonnegOrthant,
                           ProductCone, Subspace, _inequality_matrix,
                           full_space, generators_of, polar)
from conekit.integral_geometry import (IDENTITY_SUITES, _line_hits_cone,
                                       _section_nontrivial,
                                       crofton_probability,
                                       eta_for_projection_margin,
                                       projected_statdim, run_identity_suite,
                                       verify_kinematic,
                                       verify_projection_formula, verify_tqc)
from conekit.numerics import haar_from_rng, row_projection
from conekit.statdim import (estimate_intrinsic_volumes, estimate_statdim,
                             tails)


def subspace_dim(n, k):
    return Subspace(np.eye(n)[:, :k])


# ---------------------------------------------------------------------------
# kinematic intersections
# ---------------------------------------------------------------------------

def test_kinematic_orthant_pair_top_bin():
    # C = D = R^2_+: E[v_2(C cap QD)] = v_4(C x D) = (1/4)^2 = 1/16
    rep = verify_kinematic(NonnegOrthant(2), NonnegOrthant(2), 20000,
                           stream(300))
    assert rep.verdict
    k2 = rep.ks.index(2)
    assert abs(rep.lhs[k2] - 1.0 / 16.0) <= 3 * rep.lhs_stderr[k2]
    assert abs(rep.rhs[k2] - 1.0 / 16.0) <= 3 * rep.rhs_stderr[k2]


def test_kinematic_with_subspace_shifts_profile():
    # intersecting with a random 2-plane in R^3 shifts indices by one
    C = NonnegOrthant(3)
    L = subspace_dim(3, 2)
    rep = verify_kinematic(C, L, 20000, stream(301))
    assert rep.verdict
    profC = estimate_intrinsic_volumes(C, 20000, stream(302))
    for k in (1, 2):
        i = rep.ks.index(k)
        se = 3 * combined_stderr_pair(rep.lhs_stderr[i], profC.stderr[k + 1])
        assert abs(rep.lhs[i] - profC.v[k + 1]) <= se


def combined_stderr_pair(a, b):
    return math.hypot(float(a), float(b))


def test_kinematic_transversal_subspaces():
    # two random subspaces with dim_1 + dim_2 < n meet only at the origin
    rep = verify_kinematic(subspace_dim(4, 2), subspace_dim(4, 1), 2000,
                           stream(303))
    i0 = rep.ks.index(0)
    assert rep.lhs[i0] == 1.0
    assert all(rep.lhs[rep.ks.index(k)] == 0.0 for k in (1, 2, 3, 4))


def test_kinematic_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        verify_kinematic(NonnegOrthant(2), NonnegOrthant(3), 1000,
                         stream(304))


def test_polar_kinematic_sum_via_polarity():
    # E[v_{n-k}(C + QD)] = v_{n-k}(C x D) follows by taking polars:
    # (C + QD)polar = Cpolar cap Q Dpolar; check top and bottom bins
    # for C = D = R^2_+ where the product profile is the squared binomial
    C = NonnegOrthant(2)
    rep = verify_kinematic(polar(C), polar(C), 20000, stream(305))
    assert rep.verdict
    assert rep.failures == 0
    # v_0(C° cap QC°) corresponds to v_4(C + QC) mass: the sum is full
    # whenever the polar intersection is trivial; rhs bins are the
    # convolution tail sums
    i0 = rep.ks.index(0)
    i2 = rep.ks.index(2)
    assert abs(rep.lhs[i2] - 1.0 / 16.0) <= 3 * rep.lhs_stderr[i2]
    assert abs(rep.lhs[i0] - 11.0 / 16.0) <= 3 * rep.lhs_stderr[i0]


def test_product_profile_convolution_normalizes():
    rng = np.random.default_rng(1)
    C = GeneratorCone(rng.standard_normal((3, 4)))
    D = NonnegOrthant(3)
    P = ProductCone([C, D])
    prof = estimate_intrinsic_volumes(P, 20000, stream(306))
    assert abs(prof.v.sum() - 1.0) <= 1e-12
    profC = estimate_intrinsic_volumes(C, 20000, stream(307))
    profD = estimate_intrinsic_volumes(D, 20000, stream(308))
    conv = np.convolve(profC.v, profD.v)
    se = 3 * (float(np.linalg.norm(prof.stderr)) +
              float(np.linalg.norm(profC.stderr)) +
              float(np.linalg.norm(profD.stderr)))
    assert np.all(np.abs(prof.v - conv) <= se + 1e-12)


# ---------------------------------------------------------------------------
# Crofton hit probabilities
# ---------------------------------------------------------------------------

def test_crofton_orthant_line_in_plane():
    rep = crofton_probability(NonnegOrthant(2), 1, 20000, stream(309))
    assert abs(rep.hit_rate - 0.5) <= 3 * rep.stderr
    assert rep.verdict
    assert abs(rep.z) <= 3.0


def test_crofton_orthant_line_in_space():
    # random line against R^3_+: h_3 = 2 v_3 = 1/4
    rep = crofton_probability(NonnegOrthant(3), 2, 20000, stream(310))
    assert abs(rep.hit_rate - 0.25) <= 3 * rep.stderr
    assert rep.verdict


def test_crofton_target_matches_half_tail():
    C = NonnegOrthant(3)
    prof = estimate_intrinsic_volumes(C, 20000, stream(311))
    t, h = tails(prof)
    rep = crofton_probability(C, 1, 20000, stream(312))
    se = 3 * math.hypot(rep.stderr, 2 * float(np.linalg.norm(prof.stderr)))
    assert abs(rep.hit_rate - h[2]) <= se


def test_crofton_inequality_cone_without_generators():
    # the negative orthant in R^4 is an InequalityCone with no generator
    # form; a random 3-plane hits it with probability h_2 = 14/16
    rep = crofton_probability(polar(NonnegOrthant(4)), 1, 2000, stream(314))
    assert abs(rep.hit_rate - 0.875) <= 3 * rep.stderr
    assert rep.verdict


def test_crofton_product_with_line_is_not_always_hit():
    # R^3_+ x R contains the line 0 x R, yet a random plane in R^4 hits it
    # only with probability h_3 = 2 v_3 = 2 (3/8) = 3/4
    C = ProductCone([NonnegOrthant(3), full_space(1)])
    rep = crofton_probability(C, 2, 2000, stream(4))
    assert abs(rep.hit_rate - 0.75) <= 3 * rep.stderr
    assert rep.verdict


# a generated cone in R^3 with five generators and no inequality matrix
V_3X5 = np.random.default_rng(0).standard_normal((3, 5))


def test_crofton_generated_cone_with_more_generators_than_dimensions():
    C = GeneratorCone(V_3X5)
    assert _inequality_matrix(C) is None and generators_of(C) is not None
    rep = crofton_probability(C, 1, 2000, stream(325))
    assert rep.verdict


def _routes(C, Q, d):
    """Hit answers of the inequality route and the generator route that C
    carries, for the subspace span(Q[:, :d])."""
    W, V = _inequality_matrix(C), generators_of(C)
    out = []
    if W is not None:
        out.append(_section_nontrivial(W, Q[:, :d]))
    if V is not None:
        out.append(not _section_nontrivial(V, Q[:, d:]))
    return out


def test_section_test_matches_line_projection():
    # at d = 1 projecting +-u onto C is an independent oracle for every
    # route a cone carries, including generators with a +- pair
    rng = np.random.default_rng(3)
    cones = [NonnegOrthant(3), polar(NonnegOrthant(4)),
             GeneratorCone(rng.standard_normal((3, 3))),
             GeneratorCone(V_3X5),
             InequalityCone(-np.abs(rng.standard_normal((3, 5)))),
             ProductCone([NonnegOrthant(2), full_space(1)])]
    for j, C in enumerate(cones):
        st = stream(326, j)
        hits = 0
        for i in range(300):
            Q = haar_from_rng(C.n, st.gen(i))
            oracle = _line_hits_cone(C, Q[:, 0])
            routes = _routes(C, Q, 1)
            assert routes and all(r == oracle for r in routes)
            hits += oracle
        assert 0 < hits < 300


def test_section_test_inequality_route_matches_generator_route():
    rng = np.random.default_rng(4)
    for j, C in enumerate([NonnegOrthant(5),
                           GeneratorCone(rng.standard_normal((5, 5)))]):
        for d in range(1, C.n):
            st = stream(327, 10 * j + d)
            for i in range(200):
                Q = haar_from_rng(C.n, st.gen(i))
                w_route, v_route = _routes(C, Q, d)
                assert w_route == v_route


@pytest.mark.parametrize("deg", [0.003, 0.0003])
def test_section_test_near_antipodal_columns(deg):
    # columns at 0, 90 and 180 + deg degrees positively span the plane, so
    # the section is trivial; lam = O(1/deg) lifts the NNLS residual above
    # an absolute 1e-9 cutoff.  Mirrored to 180 - deg, the three leave a
    # thin wedge free and the section is nontrivial.
    e = math.radians(deg)
    Q = haar_from_rng(3, np.random.default_rng(5))
    for sign, nontrivial in ((1.0, False), (-1.0, True)):
        M = np.array([[1.0, 0.0], [-math.cos(e), -sign * math.sin(e)],
                      [0.0, 1.0]]).T
        assert _section_nontrivial(M, np.eye(2)) is nontrivial
        # the same columns inside a random plane of R^3
        assert _section_nontrivial(Q[:, :2] @ M, Q[:, :2]) is nontrivial


def test_crofton_rejects_subspaces():
    with pytest.raises(ValueError):
        crofton_probability(subspace_dim(3, 1), 1, 1000, stream(313))


# ---------------------------------------------------------------------------
# random projections
# ---------------------------------------------------------------------------

def test_projection_formula_orthant():
    # project R^4_+ to m = 2 dimensions: low bins keep their intrinsic
    # volumes, the top bin absorbs the tail t_2 = 11/16
    rep = verify_projection_formula(NonnegOrthant(4), 2, 20000, stream(314))
    assert rep.verdict
    i1 = rep.ks.index(1)
    i2 = rep.ks.index(2)
    assert abs(rep.lhs[i1] - 4.0 / 16.0) <= 3 * rep.lhs_stderr[i1]
    assert abs(rep.lhs[i2] - 11.0 / 16.0) <= 3 * rep.lhs_stderr[i2]


def test_projection_of_line_stays_line():
    rep = verify_projection_formula(subspace_dim(4, 1), 2, 2000, stream(315))
    i1 = rep.ks.index(1)
    assert rep.lhs[i1] == 1.0


def test_tqc_row_projection_reduces_to_projection_formula():
    P = row_projection(2, 4)
    rep1 = verify_tqc(P, NonnegOrthant(4), 15000, stream(316))
    rep2 = verify_projection_formula(NonnegOrthant(4), 2, 15000, stream(316))
    assert rep1.verdict and rep2.verdict
    for k in rep1.ks:
        a = rep1.lhs[rep1.ks.index(k)]
        b = rep2.lhs[rep2.ks.index(k)]
        se = 3 * math.hypot(rep1.lhs_stderr[rep1.ks.index(k)],
                            rep2.lhs_stderr[rep2.ks.index(k)])
        assert abs(a - b) <= se


def test_tqc_scaling_does_not_change_face_counts():
    # T = diag(1, 2) composed with a coordinate projection of R^3_+:
    # E[v_1(TQC)] = v_1(R^3_+) + extra mass from the tail; the pinned
    # value for the middle bin is 3/8
    T = np.diag([1.0, 2.0]) @ row_projection(2, 3)
    rep = verify_tqc(T, NonnegOrthant(3), 20000, stream(317))
    assert rep.verdict
    i1 = rep.ks.index(1)
    assert abs(rep.lhs[i1] - 3.0 / 8.0) <= 3 * rep.lhs_stderr[i1]


def test_tqc_nearly_singular_scaling_same_distribution():
    T = np.diag([1.0, 1e-6]) @ row_projection(2, 3)
    rep = verify_tqc(T, NonnegOrthant(3), 20000, stream(318))
    assert rep.verdict
    i1 = rep.ks.index(1)
    assert abs(rep.lhs[i1] - 3.0 / 8.0) <= 3 * rep.lhs_stderr[i1]


def test_tqc_rejects_rank_deficient():
    T = np.zeros((2, 4))
    with pytest.raises(ValueError):
        verify_tqc(T, NonnegOrthant(4), 1000, stream(319))


# ---------------------------------------------------------------------------
# statistical dimension under projection
# ---------------------------------------------------------------------------

def test_projected_statdim_subspace_preserved():
    est = projected_statdim(subspace_dim(40, 5), 20, 3000, stream(320))
    assert abs(est.mean - 5.0) <= 3 * est.stderr


def test_projected_statdim_orthant_window():
    # delta(R^20_+ in R^40) = 10; at m = 25 the projected estimate obeys
    # delta - 15 eta <= E <= delta with eta = 2 exp(-(m - delta)^2 / 4m)
    C = ProductCone([NonnegOrthant(20), Subspace(np.zeros((20, 0)))])
    assert C.n == 40
    delta = 10.0
    m = 25
    eta = eta_for_projection_margin(delta, m)
    assert abs(eta - 2 * math.exp(-2.25)) <= 1e-12
    est = projected_statdim(C, m, 20000, stream(321))
    assert est.mean <= delta + 3 * est.stderr
    assert est.mean >= delta - 15 * eta - 3 * est.stderr


def test_projected_statdim_full_m_recovers_statdim():
    rng = np.random.default_rng(2)
    C = GeneratorCone(rng.standard_normal((6, 8)))
    a = projected_statdim(C, 6, 20000, stream(322))
    b = estimate_statdim(C, 20000, stream(323))
    assert abs(a.mean - b.mean) <= 3 * combined_stderr(a, b)


def test_eta_margin_monotone_in_m():
    vals = [eta_for_projection_margin(10.0, m) for m in (15, 20, 30, 40)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# packaged identity suites
# ---------------------------------------------------------------------------

def test_identity_suite_names_stable():
    assert sorted(IDENTITY_SUITES) == ["crofton", "kinematic-planar",
                                       "kinematic-subspace", "projection",
                                       "tqc"]


def test_identity_suites_pass_at_moderate_samples():
    for i, name in enumerate(sorted(IDENTITY_SUITES)):
        rep = run_identity_suite(name, 8000, stream(324, i))
        assert rep.verdict, f"{name}: max |z| = {np.max(np.abs(rep.z))}"
