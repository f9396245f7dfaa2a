"""Statistical dimension, intrinsic volumes, tails, and closed forms."""

import math

import numpy as np
import pytest

from conftest import (combined_stderr, planar_wedge, random_generator_cone,
                      stream)

from conekit.cones import (GeneratorCone, InequalityCone, L1SubdiffCone,
                           NonnegOrthant, ProductCone, Subspace, polar,
                           rotate, zero_cone)
from conekit.numerics import haar_orthogonal
from conekit.statdim import (a_eta, concentration_bound, descent_statdim_l1,
                             estimate_intrinsic_volumes, estimate_moment,
                             estimate_statdim, estimate_width,
                             stojnic_recipe_l1, tails)


def subspace_dim(n, k):
    return Subspace(np.eye(n)[:, :k])


# ---------------------------------------------------------------------------
# statistical dimension: closed forms
# ---------------------------------------------------------------------------

def test_subspace_statdim_exact():
    est = estimate_statdim(subspace_dim(9, 5), 2000, stream(100))
    assert abs(est.mean - 5.0) <= 3 * est.stderr
    assert est.stderr < 0.2


def test_orthant_statdim_half_n():
    est = estimate_statdim(NonnegOrthant(10), 20000, stream(101))
    assert abs(est.mean - 5.0) <= 3 * est.stderr


def test_wedge_statdim_closed_form():
    # planar cone of angle alpha: delta = alpha/(2*pi) * 2 + ... = 1/2 + alpha/(2*pi)*2?
    # For angle alpha in the plane: delta = alpha/pi + ... use alpha = pi/3:
    # v = (ang(polar)/2pi, 1/2, alpha/2pi) so delta = 1/2 + 2*alpha/(2pi) = 1/2 + alpha/pi
    W = planar_wedge(math.pi / 3)
    est = estimate_statdim(W, 40000, stream(102))
    assert abs(est.mean - (0.5 + 1.0 / 3.0)) <= 3 * est.stderr


def test_zero_cone_statdim_and_width():
    Z = zero_cone(4)
    est = estimate_statdim(Z, 500, stream(103))
    w = estimate_width(Z, 500, stream(104))
    assert est.mean == 0.0
    assert w.mean == 0.0


def test_moment_full_plane_first_moment():
    # E||g|| in R^2 = sqrt(pi/2)
    est = estimate_moment(Subspace(np.eye(2)), 1, 40000, stream(105))
    assert abs(est.mean - math.sqrt(math.pi / 2)) <= 3 * est.stderr


def test_moment_ray_second_moment():
    # single ray: E (g_1)_+^2 = 1/2
    R = GeneratorCone(np.array([[1.0], [0.0]]))
    est = estimate_moment(R, 2, 40000, stream(106))
    assert abs(est.mean - 0.5) <= 3 * est.stderr


def test_width_of_line_and_width_squared_bracket():
    # one-dimensional subspace: w = E|g| = sqrt(2/pi)
    est = estimate_width(subspace_dim(3, 1), 40000, stream(107))
    assert abs(est.mean - math.sqrt(2 / math.pi)) <= 3 * est.stderr


def test_statdim_dominates_width_squared():
    rng = np.random.default_rng(1)
    for i in range(20):
        C = random_generator_cone(rng, 4, 6)
        d = estimate_statdim(C, 4000, stream(108, i))
        w = estimate_width(C, 4000, stream(109, i))
        se = 3 * combined_stderr(d, w) + 6 * w.mean * w.stderr
        assert w.mean ** 2 <= d.mean + se
        assert d.mean <= w.mean ** 2 + 1.0 + se


def test_validation_rejects_tiny_sample_budget():
    with pytest.raises(ValueError):
        estimate_statdim(NonnegOrthant(3), 50, stream(110))
    with pytest.raises(ValueError):
        estimate_moment(NonnegOrthant(3), 0.5, 1000, stream(110))


# ---------------------------------------------------------------------------
# intrinsic volume profiles
# ---------------------------------------------------------------------------

def test_orthant_profile_is_binomial():
    prof = estimate_intrinsic_volumes(NonnegOrthant(10), 40000, stream(111))
    expect = np.array([math.comb(10, k) for k in range(11)]) / 2.0 ** 10
    assert np.all(np.abs(prof.v - expect) <= 3 * prof.stderr + 1e-12)


def test_subspace_profile_is_point_mass():
    prof = estimate_intrinsic_volumes(subspace_dim(5, 3), 500, stream(112))
    assert prof.v[3] == 1.0
    assert prof.v.sum() == 1.0


def test_chamber_cone_profile():
    # {x : x_1 <= x_2 <= x_3} has volumes (1/3, 1/2, 1/6) at dims 1..3
    W = InequalityCone(np.array([[1.0, -1.0, 0.0],
                                 [0.0, 1.0, -1.0]]).T)
    prof = estimate_intrinsic_volumes(W, 60000, stream(113))
    expect = np.array([0.0, 1 / 3, 1 / 2, 1 / 6])
    assert np.all(np.abs(prof.v - expect) <= 3 * prof.stderr + 1e-12)


def test_profile_statdim_matches_moment_estimator():
    rng = np.random.default_rng(2)
    C = random_generator_cone(rng, 5, 7)
    prof = estimate_intrinsic_volumes(C, 30000, stream(114))
    d = estimate_statdim(C, 30000, stream(115))
    k = np.arange(prof.n + 1)
    from_profile = float(k @ prof.v)
    se = 3 * math.hypot(float(np.linalg.norm(k * prof.stderr)), d.stderr)
    assert abs(from_profile - d.mean) <= se
    assert abs(prof.statdim() - from_profile) <= 1e-12


def test_profile_csv_shape():
    prof = estimate_intrinsic_volumes(NonnegOrthant(3), 500, stream(116))
    txt = prof.to_csv()
    lines = [l for l in txt.strip().splitlines() if not l.startswith("#")]
    assert lines[0].split(",")[0] == "k"
    assert len(lines) == 1 + 4


def test_gauss_bonnet_alternating_sum():
    rng = np.random.default_rng(3)
    for i in range(5):
        C = random_generator_cone(rng, 4, 6)
        prof = estimate_intrinsic_volumes(C, 20000, stream(117, i))
        signs = (-1.0) ** np.arange(prof.n + 1)
        val = float(signs @ prof.v)
        se = 3 * float(np.linalg.norm(prof.stderr))
        assert abs(val) <= se + 1e-12


# ---------------------------------------------------------------------------
# tails and half-tails
# ---------------------------------------------------------------------------

def test_orthant_tail_example():
    prof = estimate_intrinsic_volumes(NonnegOrthant(2), 40000, stream(118))
    t, h = tails(prof)
    # exact profile (1/4, 1/2, 1/4): t_1 = 3/4
    assert abs(t[1] - 0.75) <= 3 * float(np.linalg.norm(prof.stderr))
    assert abs(t[0] - 1.0) <= 1e-12


def proper_random_cone(rng, n, k):
    # generators confined to a halfspace so the cone is never all of R^n
    G = rng.standard_normal((n, k))
    G[0] = np.abs(G[0])
    return GeneratorCone(G)


def test_half_tail_normalization():
    rng = np.random.default_rng(4)
    for i in range(5):
        C = proper_random_cone(rng, 4, 7)
        prof = estimate_intrinsic_volumes(C, 20000, stream(119, i))
        t, h = tails(prof)
        se = 3 * 2 * float(np.linalg.norm(prof.stderr))
        # h_0 = h_1 = 1 for any cone that is not a subspace
        assert abs(h[0] - 1.0) <= se
        assert abs(h[1] - 1.0) <= se


def test_subspace_tails_are_step_functions():
    prof = estimate_intrinsic_volumes(subspace_dim(6, 3), 500, stream(120))
    t, h = tails(prof)
    assert np.allclose(t[:4], 1.0)
    assert np.allclose(t[4:], 0.0)


def test_tails_reconstruct_volumes():
    rng = np.random.default_rng(5)
    C = random_generator_cone(rng, 5, 8)
    prof = estimate_intrinsic_volumes(C, 5000, stream(121))
    t, h = tails(prof)
    hpad = np.concatenate([h, [0.0, 0.0]])
    recon = (hpad[:-2] - hpad[2:]) / 2.0
    assert np.allclose(recon, prof.v, atol=1e-12)


def test_interleaving_of_tails():
    # each half-tail is sandwiched between the neighbouring tails:
    # t_{k+1} <= h_{k+1} <= t_k, equivalent to h being nonincreasing
    # since 2 t_k = h_k + h_{k+1} holds as an algebraic identity
    rng = np.random.default_rng(6)
    for i in range(5):
        C = proper_random_cone(rng, 4, 6)
        prof = estimate_intrinsic_volumes(C, 20000, stream(122, i))
        t, h = tails(prof)
        se = 3 * 2 * float(np.linalg.norm(prof.stderr))
        hpad = np.concatenate([h, [0.0]])
        assert np.allclose(2 * t, h + hpad[1:], atol=1e-12)
        for k in range(prof.n):
            assert t[k + 1] <= h[k + 1] + se
            assert h[k + 1] <= t[k] + se


# ---------------------------------------------------------------------------
# concentration and window widths
# ---------------------------------------------------------------------------

def test_concentration_at_zero_is_two():
    assert concentration_bound(5.0, 5.0, 0.0) == 2.0


def test_concentration_pinned_value():
    val = concentration_bound(20.0, 380.0, 10.0)
    assert abs(val - 0.685037) <= 2e-3
    expect = 2.0 * math.exp(-(100.0 / 4.0) / (20.0 + 10.0 / 3.0))
    assert abs(val - expect) <= 1e-12


def test_concentration_monotone_in_lambda():
    vals = [concentration_bound(20.0, 380.0, lam)
            for lam in (0.0, 1.0, 5.0, 10.0, 50.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_a_eta_values_and_domain():
    assert abs(a_eta(0.1) - 2 * math.sqrt(math.log(20.0))) <= 1e-12
    assert abs(a_eta(0.1) - 3.4616) <= 1e-4
    assert abs(a_eta(0.1, "edge") - 4 * math.sqrt(math.log(40.0))) <= 1e-12
    assert abs(a_eta(0.1, "edge") - 7.6837) <= 1.5e-3
    for bad in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            a_eta(bad)
    with pytest.raises(ValueError):
        a_eta(0.1, "other")


# ---------------------------------------------------------------------------
# l1 descent cones and the sparse recovery recipe
# ---------------------------------------------------------------------------

def test_descent_statdim_trivial_support():
    est = descent_statdim_l1(1, [0], [1.0], 2000, stream(123))
    assert abs(est.mean - 0.5) <= 3 * est.stderr


def test_descent_statdim_matches_subdifferential_complement():
    n, sup, sg = 6, [1, 4], [1.0, -1.0]
    d = descent_statdim_l1(n, sup, sg, 30000, stream(124))
    sub = estimate_statdim(L1SubdiffCone(n, sup, sg), 30000, stream(125))
    assert abs(d.mean - (n - sub.mean)) <= 3 * combined_stderr(d, sub)


def test_descent_statdim_monotone_in_sparsity():
    n = 40
    d2 = descent_statdim_l1(n, list(range(2)), [1.0] * 2, 20000, stream(126))
    d8 = descent_statdim_l1(n, list(range(8)), [1.0] * 8, 20000, stream(127))
    assert d2.mean + 3 * combined_stderr(d2, d8) < d8.mean


def test_stojnic_recipe_saturates_at_full_support():
    est = stojnic_recipe_l1(12, 12)
    assert est.mean == 12.0


def test_stojnic_recipe_modes_agree():
    cf = stojnic_recipe_l1(100, 10, mode="closed_form")
    mc = stojnic_recipe_l1(100, 10, mode="monte_carlo", samples=40000,
                           stream=stream(128))
    assert abs(cf.mean - mc.mean) <= 3 * max(mc.stderr, 1e-12) + 0.05


def test_recipe_upper_bounds_descent_estimate():
    n, s = 40, 4
    recipe = stojnic_recipe_l1(n, s)
    mc = descent_statdim_l1(n, list(range(s)), [1.0] * s, 30000, stream(129))
    assert mc.mean <= recipe.mean + 3 * mc.stderr


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------

def test_complementarity_over_random_cones():
    rng = np.random.default_rng(7)
    for i in range(5):
        n = int(rng.integers(2, 8))
        C = random_generator_cone(rng, n, n + 2)
        d = estimate_statdim(C, 20000, stream(130, i))
        dp = estimate_statdim(polar(C), 20000, stream(131, i))
        assert abs(d.mean + dp.mean - n) <= 3 * combined_stderr(d, dp)


def test_statdim_additivity_on_products():
    rng = np.random.default_rng(8)
    A = random_generator_cone(rng, 3, 5)
    B = NonnegOrthant(4)
    P = ProductCone([A, B])
    dp = estimate_statdim(P, 20000, stream(132))
    da = estimate_statdim(A, 20000, stream(133))
    db = estimate_statdim(B, 20000, stream(134))
    assert abs(dp.mean - da.mean - db.mean) <= 3 * combined_stderr(dp, da, db)


def test_statdim_orthogonal_invariance():
    rng = np.random.default_rng(9)
    C = random_generator_cone(rng, 4, 6)
    Q = haar_orthogonal(4, stream(135))
    d1 = estimate_statdim(C, 30000, stream(136))
    d2 = estimate_statdim(rotate(C, Q), 30000, stream(137))
    assert abs(d1.mean - d2.mean) <= 3 * combined_stderr(d1, d2)


def test_statdim_monotone_under_inclusion():
    ray = planar_wedge(0.0)
    wedge = planar_wedge(math.pi / 3)
    half = planar_wedge(math.pi)
    ests = [estimate_statdim(C, 20000, stream(138, i))
            for i, C in enumerate((ray, wedge, half))]
    for a, b in zip(ests, ests[1:]):
        assert a.mean <= b.mean + 3 * combined_stderr(a, b)


def test_estimate_metadata_roundtrip():
    est = estimate_statdim(NonnegOrthant(3), 500, stream(139))
    d = est.to_dict()
    assert d["samples"] == 500
    assert d["mean"] == est.mean
    assert d["stderr"] == est.stderr


# ---------------------------------------------------------------------------
# failure accounting: non-converged samples are dropped, then refused
# ---------------------------------------------------------------------------

class FailingOrthant(NonnegOrthant):
    """Orthant whose batch projection marks its first k rows as not
    converged and fills them with points that would spoil any estimate."""

    def __init__(self, n, k):
        super().__init__(n)
        self.k = k

    def project_batch(self, X):
        P, fd, conv = super().project_batch(X)
        P[:self.k] = 1e6
        fd[:self.k] = self.n
        conv[:self.k] = False
        return P, fd, conv


def test_estimators_drop_unconverged_rows():
    n, samples, k = 4, 1000, 10  # one block; k is 1% of the request
    st = stream(140)
    G = st.normal_block(0, samples, n)[k:]
    vals = (np.maximum(G, 0.0) ** 2).sum(axis=1)
    est = estimate_statdim(FailingOrthant(n, k), samples, st)
    assert est.samples == samples - k
    assert est.mean == pytest.approx(vals.mean(), rel=1e-12)
    assert est.stderr == pytest.approx(
        vals.std(ddof=1) / math.sqrt(samples - k), rel=1e-12)
    prof = estimate_intrinsic_volumes(FailingOrthant(n, k), samples, st)
    assert prof.samples == samples - k
    want = np.bincount((G > 0).sum(axis=1), minlength=n + 1) / (samples - k)
    assert np.array_equal(prof.v, want)


def test_estimators_raise_above_failure_limit():
    n, samples, k = 4, 1000, 11
    with pytest.raises(RuntimeError, match="11/1000"):
        estimate_statdim(FailingOrthant(n, k), samples, stream(141))
    with pytest.raises(RuntimeError, match="11/1000"):
        estimate_intrinsic_volumes(FailingOrthant(n, k), samples,
                                   stream(141))
