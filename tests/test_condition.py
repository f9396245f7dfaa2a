"""Restricted singular values, Renegar condition numbers, feasibility."""

import math

import numpy as np
import pytest

from conftest import planar_wedge, stream
from multistart_oracle import _multistart_extremum as multistart_oracle

from conekit.condition import (classify_feasibility, condition_report,
                               empirical_gordon_check, gordon_kappa_bound,
                               kappa_bar, min_perturbation_to_primal,
                               renegar, renegar_single, restricted_norm,
                               restricted_sv)
from conekit.cones import (GeneratorCone, InequalityCone, LinearImage,
                           NonnegOrthant, PolarCone, Subspace, full_space,
                           polar, project)
from conekit import cli, condition, solvers
from conekit.numerics import SeededStream, haar_from_rng, haar_orthogonal
from conekit.regularizers import finite_difference_matrix
from conekit.statdim import mc_estimate


def grid_restricted(A, C, D, which, resolution=1e-3):
    """Planar brute-force oracle for n = 2 source cones.

    Scans unit vectors of C at the given angular resolution and returns
    the max (which='norm') or min (which='sv') of ||Proj_D(Ax)||.
    """
    thetas = np.arange(0.0, 2 * math.pi, resolution)
    X = np.column_stack([np.cos(thetas), np.sin(thetas)])
    P, _, _ = C.project_batch(X)
    keep = np.linalg.norm(P - X, axis=1) < 1e-9
    X = X[keep]
    img = X @ A.T
    PD, _, _ = D.project_batch(img)
    vals = np.linalg.norm(PD, axis=1)
    return float(vals.max() if which == "norm" else vals.min())


# ---------------------------------------------------------------------------
# restricted norm
# ---------------------------------------------------------------------------

def test_restricted_norm_full_spaces_is_operator_norm():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 3))
    out = restricted_norm(A, full_space(3), full_space(4))
    assert abs(out.value - np.linalg.norm(A, 2)) <= 1e-9
    assert out.method == "exact"


def test_restricted_norm_single_ray():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((4, 3))
    C = Subspace(np.eye(3)[:, :1])
    out = restricted_norm(A, C, full_space(4))
    assert abs(out.value - np.linalg.norm(A[:, 0])) <= 1e-9


def test_restricted_norm_matches_grid_on_wedges():
    rng = np.random.default_rng(2)
    for i in range(4):
        A = rng.standard_normal((2, 2))
        C = planar_wedge(0.4 + 0.5 * i, 0.3 * i)
        D = planar_wedge(0.9, 0.2 + 0.4 * i)
        out = restricted_norm(A, C, D, stream=stream(200, i))
        ref = grid_restricted(A, C, D, "norm")
        assert out.method == "exact" and not out.heuristic
        assert ref - 1e-12 <= out.value <= ref + 1e-3


def test_restricted_norm_certificate_attains_value():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 3))
    C = NonnegOrthant(3)
    D = NonnegOrthant(3)
    out = restricted_norm(A, C, D, stream=stream(201))
    x = np.asarray(out.certificate)
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-8
    attained = np.linalg.norm(project(D, A @ x).point)
    assert attained <= out.value + 1e-8
    assert attained >= out.value - 1e-6


# ---------------------------------------------------------------------------
# restricted minimum singular value
# ---------------------------------------------------------------------------

def test_restricted_sv_full_spaces_is_smallest_singular_value():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((4, 3))
    out = restricted_sv(A, full_space(3), full_space(4))
    assert abs(out.value - np.linalg.svd(A, compute_uv=False)[-1]) <= 1e-9


def test_restricted_sv_single_ray():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 3))
    C = GeneratorCone(np.eye(3)[:, :1])
    D = NonnegOrthant(3)
    out = restricted_sv(A, C, D)
    expect = np.linalg.norm(np.maximum(A[:, 0], 0.0))
    assert abs(out.value - expect) <= 1e-8


def test_restricted_sv_vanishes_on_constructed_instance():
    # send the cone's edge direction into the polar of D so the minimum is 0
    C = planar_wedge(math.pi / 4, 0.0)          # edge at angle 0 is e1
    D = NonnegOrthant(2)
    A = np.array([[-1.0, 0.3], [-0.5, 0.2]])    # A e1 < 0 componentwise
    out = restricted_sv(A, C, D, stream=stream(202))
    assert out.value <= 1e-6
    assert grid_restricted(A, C, D, "sv") <= 1e-6


def test_restricted_sv_matches_grid_on_wedges():
    rng = np.random.default_rng(6)
    for i in range(4):
        A = rng.standard_normal((2, 2))
        C = planar_wedge(0.5 + 0.4 * i, 0.25 * i)
        D = planar_wedge(1.1, 0.15 * i)
        out = restricted_sv(A, C, D, stream=stream(203, i))
        ref = grid_restricted(A, C, D, "sv")
        assert out.method == "exact" and not out.heuristic
        assert ref - 1e-3 <= out.value <= ref + 1e-12


# ---------------------------------------------------------------------------
# the support enumeration
# ---------------------------------------------------------------------------

def _polyhedral_cone(rng, n):
    pick = int(rng.integers(5))
    if pick == 0:
        return NonnegOrthant(n)
    if pick == 4:
        return polar(GeneratorCone(rng.standard_normal((n, n))))
    return GeneratorCone(rng.standard_normal((n, n + (0, 0, 1, 3)[pick])))


def _assert_certifies(out, A, C, D):
    x = out.certificate
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
    assert np.linalg.norm(project(C, x).point - x) <= 1e-12
    assert (abs(np.linalg.norm(project(D, A @ x).point) - out.value)
            <= 1e-12 * max(1.0, out.value))


def test_support_enumeration_never_loses_to_multistart():
    # random pairs in R^2..R^4 whose needed representations exist: the
    # exact value is never worse than the multistart search, and its
    # certificate is a unit vector of C that attains it
    rng = np.random.default_rng(2026)
    done = 0
    while done < 24:
        n, m = (int(d) for d in rng.integers(2, 5, size=2))
        C, D = _polyhedral_cone(rng, n), _polyhedral_cone(rng, m)
        A = rng.standard_normal((m, n))
        scale = 1e-9 * max(1.0, np.linalg.norm(A, 2))
        for sense in (1, -1):
            out = condition._support_enumeration(A, C, D, sense)
            if out is None:
                continue
            done += 1
            assert out.method == "exact" and not out.heuristic
            _assert_certifies(out, A, C, D)
            ms = condition._multistart_extremum(A, C, D, sense,
                                                stream(425, done))
            assert sense * (ms.value - out.value) <= scale


def test_support_enumeration_is_chunk_invariant(monkeypatch):
    rng = np.random.default_rng(430)
    C = GeneratorCone(rng.standard_normal((4, 6)))
    D = InequalityCone(-np.abs(rng.standard_normal((4, 5))))
    A = rng.standard_normal((4, 4))
    one = [condition._support_enumeration(A, C, K, sense)
           for K, sense in ((D, -1), (C, 1))]
    monkeypatch.setattr(solvers, "CHUNK_BYTES", 8 * 50)
    many = [condition._support_enumeration(A, C, K, sense)
            for K, sense in ((D, -1), (C, 1))]
    for a, b in zip(one, many):
        assert a.value == b.value
        assert np.array_equal(a.certificate, b.certificate)


def test_generated_pairs_are_exact_on_both_sides():
    # generated cones with more generators than dimensions take their
    # normals from their facets, so both sides enumerate supports; the
    # exact minima stay below the multistart bounds, up to rounding
    for s in range(20):
        rng = np.random.default_rng(10000 + s)
        C = GeneratorCone(rng.standard_normal((4, 6)))
        D = GeneratorCone(rng.standard_normal((4, 5)))
        A = rng.standard_normal((4, 4))
        rep = condition_report(A, C, D)
        assert (rep.method, rep.method_dual) == ("exact", "exact")
        ms = condition_report(A, C, D, method="multistart",
                              stream=stream(440, s))
        for exact, bound in ((rep.sigma_CD, ms.sigma_CD),
                             (rep.sigma_DC_transposed,
                              ms.sigma_DC_transposed)):
            assert -1e-12 <= bound - exact <= 1e-8


def _suite_pair(seed):
    """A, C and D of the condition suite of ``verify --seed seed``."""
    st = SeededStream(seed, 0).child(sorted(cli._VERIFY_SUITES).index(
        "condition"))
    A = st.gen(0).standard_normal((2, 2))
    return A, GeneratorCone(np.eye(2)), NonnegOrthant(2), st


def test_exact_matches_multistart_on_the_verify_pair():
    # the grid read 0.871939 at seed 132; the minimum, 0.869664, sits on
    # the edge e2 of the quadrant
    A, C, D, _ = _suite_pair(132)
    out = restricted_sv(A, C, D, method="exact")
    assert abs(out.value - 0.869664) <= 1e-6
    assert np.array_equal(out.certificate, [0.0, 1.0])
    for seed in range(1, 201):
        A, C, D, st = _suite_pair(seed)
        out = restricted_sv(A, C, D, method="exact")
        ms = restricted_sv(A, C, D, method="multistart", stream=st.child(2))
        assert (abs(out.value - ms.value)
                <= 1e-9 * max(1.0, np.linalg.norm(A, 2))), seed


def test_single_rays_and_subspace_pairs_keep_their_closed_forms():
    # a single ray needs no representation of D, not even under a FISTA
    # image; subspace pairs take the svd of the compressed matrix
    rng = np.random.default_rng(426)
    u = rng.standard_normal(3)
    C = GeneratorCone(np.column_stack([u, 2.0 * u]))
    D = LinearImage(rng.standard_normal((4, 6)), NonnegOrthant(6))
    A = rng.standard_normal((4, 3))
    ray = u / np.linalg.norm(u)
    want = float(np.linalg.norm(D.project_point(A @ ray).point))
    for rv in (restricted_sv(A, C, D, method="exact"),
               restricted_norm(A, C, D)):
        assert rv.method == "exact" and not rv.heuristic
        assert rv.value == want and np.array_equal(rv.certificate, ray)
    Cs, Ds = Subspace.span(rng.standard_normal((3, 2))), full_space(4)
    _, s, Vt = np.linalg.svd(Ds.basis.T @ A @ Cs.basis)
    lo, hi = restricted_sv(A, Cs, Ds), restricted_norm(A, Cs, Ds)
    assert (lo.value, hi.value) == (s[-1], s[0])
    assert np.array_equal(lo.certificate, Cs.basis @ Vt[-1])
    assert np.array_equal(hi.certificate, Cs.basis @ Vt[0])


def test_lines_are_exact_for_every_target():
    rng = np.random.default_rng(427)
    u = rng.standard_normal(3)
    C = GeneratorCone(np.column_stack([u, -u]))
    D = InequalityCone(rng.standard_normal((3, 2)))   # no generators
    A = rng.standard_normal((3, 3))
    ray = u / np.linalg.norm(u)
    vals = [np.linalg.norm(project(D, A @ x).point) for x in (ray, -ray)]
    assert min(vals) > 0.1
    hi, lo = restricted_norm(A, C, D), restricted_sv(A, C, D, method="exact")
    assert abs(hi.value - max(vals)) <= 1e-12
    assert abs(lo.value - min(vals)) <= 1e-12
    assert np.abs(np.abs(hi.certificate @ lo.certificate) - 1.0) <= 1e-15
    assert np.abs(np.abs(hi.certificate @ ray) - 1.0) <= 1e-15


@pytest.mark.parametrize("method", ["auto", "exact"])
def test_zero_cone_with_generators_raises(method):
    with pytest.raises(ValueError, match="zero cone"):
        restricted_sv(np.eye(3), GeneratorCone(np.zeros((3, 2))),
                      NonnegOrthant(3), method=method)


def test_pairs_over_the_cap_run_multistart(monkeypatch):
    # one support pair of the quadrant (e1, e2) times 4 sets of normals
    A, C, D, _ = _suite_pair(1)
    monkeypatch.setattr(condition, "EXACT_MAX_PAIRS", 4)
    assert restricted_sv(A, C, D).method == "exact"
    monkeypatch.setattr(condition, "EXACT_MAX_PAIRS", 3)
    out = restricted_sv(A, C, D)
    assert out.method == "multistart" and out.heuristic
    with pytest.raises(ValueError, match="no exact method"):
        restricted_sv(A, C, D, method="exact")


def test_exact_needs_the_representations():
    # an inequality cone in R^3 has no generators yet; the max needs the
    # generators of D as well
    rng = np.random.default_rng(428)
    A = rng.standard_normal((3, 3))
    with pytest.raises(ValueError, match="no exact method"):
        restricted_sv(A, InequalityCone(rng.standard_normal((3, 2))),
                      NonnegOrthant(3), method="exact")
    D = InequalityCone(rng.standard_normal((3, 2)))
    with pytest.raises(ValueError, match="no exact method"):
        restricted_norm(A, NonnegOrthant(3), D, method="exact")
    assert restricted_sv(A, NonnegOrthant(3), D).method == "exact"
    assert restricted_norm(A, NonnegOrthant(3), D,
                           stream=stream(429)).method == "multistart"


# ---------------------------------------------------------------------------
# lockstep multistart against the per-start oracle
# ---------------------------------------------------------------------------

def _closed_form_cone(rng, n):
    pick = int(rng.integers(3 if n == 2 else 2))
    if pick == 0:
        return NonnegOrthant(n)
    if pick == 1:
        return PolarCone(NonnegOrthant(n))
    return planar_wedge(rng.uniform(0.2, 3.0), rng.uniform(0.0, 2 * math.pi))


def _nnls_cone(rng):
    # at most 3 normals, so an inequality cone in R^3 is never {0}
    if rng.random() < 0.5:
        return GeneratorCone(rng.standard_normal((3, int(rng.integers(2, 6)))))
    return InequalityCone(rng.standard_normal((3, int(rng.integers(1, 4)))))


def test_lockstep_multistart_matches_oracle_on_closed_forms():
    rng = np.random.default_rng(420)
    for t in range(40):
        n, m = (int(d) for d in rng.integers(2, 4, size=2))
        C, D = _closed_form_cone(rng, n), _closed_form_cone(rng, m)
        A = rng.standard_normal((m, n))
        for sense in (1, -1):
            got = condition._multistart_extremum(A, C, D, sense, stream(421, t))
            want = multistart_oracle(A, C, D, sense, stream(421, t))
            assert abs(got.value - want.value) <= 1e-15
            assert np.abs(got.certificate - want.certificate).max() <= 1e-6


def test_lockstep_multistart_matches_oracle_on_nnls_cones():
    # batched NNLS rows round differently from one-row calls, so the two
    # searches may part at rounding level; a certificate must still be a
    # unit vector of C that attains its value.  Values are compared on the
    # scale of ||A||, since minima at 0 read about 1e-17 on both sides.
    rng = np.random.default_rng(424)
    apart = []
    for t in range(8):
        C, D = _nnls_cone(rng), _nnls_cone(rng)
        A = rng.standard_normal((3, 3))
        for sense in (1, -1):
            got = condition._multistart_extremum(A, C, D, sense, stream(423, t))
            x = got.certificate
            assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
            assert np.linalg.norm(project(C, x).point - x) <= 1e-12
            assert (abs(np.linalg.norm(project(D, A @ x).point) - got.value)
                    <= 1e-12 * max(1.0, got.value))
            want = multistart_oracle(A, C, D, sense, stream(423, t))
            if abs(got.value - want.value) > 1e-9 * np.linalg.norm(A, 2):
                apart.append(got.value - want.value)
    assert len(apart) <= 1, apart


def test_lockstep_multistart_batches_its_projections(monkeypatch):
    # the per-start search made 860 project_batch calls here
    calls = []
    for cls in (GeneratorCone, NonnegOrthant):
        def counted(self, *args, _orig=cls.project_batch, **kwargs):
            calls.append(type(self))
            return _orig(self, *args, **kwargs)
        monkeypatch.setattr(cls, "project_batch", counted)
    rng = np.random.default_rng(5)
    V = rng.standard_normal((3, 5))
    A = rng.standard_normal((3, 3))
    restricted_sv(A, GeneratorCone(V), NonnegOrthant(3), method="multistart")
    assert len(calls) < 100


@pytest.mark.parametrize("seed", [11, 19])
def test_multistart_on_zero_cone_raises(seed):
    # cone(W) is all of R^3, so {x : W^T x <= 0} is {0}; the NNLS residual
    # of a projection onto it is no unit vector of C
    rng = np.random.default_rng(seed)
    C = InequalityCone(rng.standard_normal((3, 4)))
    A = rng.standard_normal((3, 3))
    P, _, _ = C.project_batch(rng.standard_normal((20, 3)), faces=False)
    assert np.abs(P).max() <= 1e-9
    with pytest.raises(ValueError, match="all starts collapsed"):
        restricted_sv(A, C, NonnegOrthant(3), method="multistart")

def test_complementary_split_of_image_norm():
    # ||Ax||^2 = ||Proj_D(Ax)||^2 + ||Proj_polar(D)(Ax)||^2 pointwise, so at
    # a full source space the restricted pieces cannot both vanish unless A=0
    rng = np.random.default_rng(7)
    A = rng.standard_normal((3, 3))
    D = NonnegOrthant(3)
    x = rng.standard_normal(3)
    x /= np.linalg.norm(x)
    y = A @ x
    a = np.linalg.norm(project(D, y).point)
    b = np.linalg.norm(project(polar(D), y).point)
    assert abs(a * a + b * b - y @ y) <= 1e-10


def test_monotonicity_in_both_cones():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((2, 2))
    C_small = planar_wedge(0.4, 0.1)
    C_big = planar_wedge(1.2, 0.0)     # contains C_small
    D_small = planar_wedge(0.5, 0.3)
    D_big = planar_wedge(1.4, 0.0)     # contains D_small
    # growing the source cone can only lower the restricted minimum
    s_small = grid_restricted(A, C_small, D_small, "sv")
    s_big = grid_restricted(A, C_big, D_small, "sv")
    assert s_big <= s_small + 1e-9
    # growing the target cone can only raise it
    s_dbig = grid_restricted(A, C_small, D_big, "sv")
    assert s_dbig >= s_small - 1e-9
    # the library values agree with the oracle on all four combinations
    for C in (C_small, C_big):
        for D in (D_small, D_big):
            out = restricted_sv(A, C, D, stream=stream(204))
            assert abs(out.value - grid_restricted(A, C, D, "sv")) <= 1e-3


def test_lower_bound_certifies_membership_scaling():
    # sigma_{C->D}(A) > 0 certifies ||Proj_D(Ax)|| >= sigma ||x|| on C
    rng = np.random.default_rng(9)
    A = np.eye(2) + 0.1 * rng.standard_normal((2, 2))
    C = planar_wedge(0.8, 0.2)
    D = planar_wedge(1.2, 0.1)
    out = restricted_sv(A, C, D, stream=stream(205))
    for _ in range(500):
        x = rng.standard_normal(2)
        p = project(C, x).point
        if np.linalg.norm(p) < 1e-12:
            continue
        lhs = np.linalg.norm(project(D, A @ p).point)
        assert lhs >= (out.value - 1e-6) * np.linalg.norm(p)


# ---------------------------------------------------------------------------
# Renegar condition number
# ---------------------------------------------------------------------------

def test_renegar_full_spaces_is_matrix_condition_number():
    rng = np.random.default_rng(10)
    A = rng.standard_normal((3, 3))
    R = renegar(A, full_space(3), full_space(3))
    assert abs(R - np.linalg.cond(A, 2)) <= 1e-8


def test_renegar_orthogonal_matrix_is_one():
    Q = haar_orthogonal(4, stream(206))
    R = renegar(Q, full_space(4), full_space(4))
    assert abs(R - 1.0) <= 1e-9


def test_renegar_pair_at_least_one():
    rng = np.random.default_rng(11)
    for i in range(5):
        A = rng.standard_normal((2, 2))
        C = planar_wedge(0.7, 0.2 * i)
        D = planar_wedge(1.0, 0.1 * i)
        R = renegar(A, C, D, stream=stream(207, i))
        assert R >= 1.0 - 1e-9


def test_renegar_rejects_empty_matrix():
    # the cone shapes are checked before the svd, which has nothing to index
    with pytest.raises(ValueError):
        renegar(np.zeros((0, 2)), NonnegOrthant(2), NonnegOrthant(1))


def test_renegar_single_cone_below_matrix_condition():
    # restricting the minimum to a cone can only raise it, so the
    # single-cone condition number never exceeds the classical one
    rng = np.random.default_rng(24)
    for i in range(5):
        A = rng.standard_normal((3, 3))
        C = GeneratorCone(np.abs(rng.standard_normal((3, 4))))
        R = renegar_single(A, C, stream=stream(230, i))
        assert 1.0 - 1e-9 <= R <= np.linalg.cond(A, 2) + 1e-6


# ---------------------------------------------------------------------------
# feasibility classification
# ---------------------------------------------------------------------------

def test_zero_matrix_is_ill_posed():
    out = classify_feasibility(np.zeros((3, 3)), NonnegOrthant(3),
                               NonnegOrthant(3))
    assert out.status == "IllPosed"


def test_gaussian_instances_never_ill_posed():
    rng = np.random.default_rng(12)
    C = NonnegOrthant(3)
    D = NonnegOrthant(3)
    statuses = []
    for _ in range(1000):
        A = rng.standard_normal((3, 3))
        statuses.append(classify_feasibility(A, C, D).status)
    counts = {s: statuses.count(s) for s in set(statuses)}
    assert counts.get("IllPosed", 0) == 0
    assert set(counts) <= {"PrimalFeasible", "DualFeasible", "Ambiguous"}
    assert counts.get("Ambiguous", 0) == 0


@pytest.mark.parametrize("seed,status", [(518, "DualFeasible"),
                                         (752, "DualFeasible"),
                                         (1555, "PrimalFeasible"),
                                         (712, "DualFeasible"),
                                         (753, "PrimalFeasible")])
def test_polyhedral_classification_by_restricted_values(seed, status):
    # the margins are the exact sigma_CD(A) and -sigma_DC(-A^T), and one of
    # them is far from zero: sigma_CD = 0.1303 at 712, sigma_DC = 0.2536 at
    # 753
    A = np.random.default_rng(seed).standard_normal((3, 3))
    C = D = NonnegOrthant(3)
    out = classify_feasibility(A, C, D)
    assert out.status == status
    assert out.primal_margin == restricted_sv(A, C, D, method="exact").value
    assert out.dual_margin == -restricted_sv(-A.T, D, C, method="exact").value
    assert (out.method, out.method_dual) == ("exact", "exact")
    assert max(out.primal_margin, -out.dual_margin) > 1e-3


@pytest.mark.parametrize("seed,sigma", [(24, 0.6809), (41, 0.1103)])
def test_full_space_pairs_are_ambiguous(seed, sigma):
    # both generated cones are all of R^4 and A is invertible, so neither
    # problem has a nonzero solution: sigma_CD = sigma_DC = sigma_min(A)
    rng = np.random.default_rng(10000 + seed)
    C = GeneratorCone(rng.standard_normal((4, 6)))
    D = GeneratorCone(rng.standard_normal((4, 5)))
    A = rng.standard_normal((4, 4))
    out = classify_feasibility(A, C, D)
    smin = np.linalg.svd(A, compute_uv=False)[-1]
    assert out.status == "Ambiguous"
    assert smin == pytest.approx(sigma, abs=5e-5)
    assert out.primal_margin == pytest.approx(smin, abs=1e-12)
    assert out.dual_margin == pytest.approx(-smin, abs=1e-12)


def test_over_the_cap_classification_runs_multistart():
    # 20 generators in R^6 give over EXACT_MAX_PAIRS supports on the primal
    # side and over EXACT_MAX_PAIRS facet subsets, so no normals, on the
    # dual side
    rng = np.random.default_rng(20000)
    C = GeneratorCone(rng.standard_normal((6, 20)))
    A = rng.standard_normal((6, 6))
    out = classify_feasibility(A, C, NonnegOrthant(6), stream=stream(232))
    assert (out.method, out.method_dual) == ("multistart", "multistart")
    assert out.status == "PrimalFeasible"
    assert out.to_dict()["method_dual"] == "multistart"


def test_classification_matches_grid_oracle():
    # primal feasible <=> some x >= 0 on the unit arc has A x <= 0
    rng = np.random.default_rng(13)
    C = NonnegOrthant(2)
    D = NonnegOrthant(2)
    thetas = np.linspace(0.0, math.pi / 2, 4001)
    X = np.column_stack([np.cos(thetas), np.sin(thetas)])
    for _ in range(50):
        A = rng.standard_normal((2, 2))
        out = classify_feasibility(A, C, D)
        primal_hit = bool(np.any(np.all(X @ A.T <= 1e-9, axis=1)))
        dual_hit = bool(np.any(np.all(X @ (-A) <= 1e-9, axis=1)))
        if primal_hit:
            assert out.status == "PrimalFeasible"
            assert out.primal_margin <= out.tol
        elif dual_hit:
            assert out.status == "DualFeasible"
        assert out.status in ("PrimalFeasible", "DualFeasible")


# ---------------------------------------------------------------------------
# minimal perturbation to primal feasibility
# ---------------------------------------------------------------------------

def test_perturbation_zero_when_already_feasible():
    # -I maps the orthant into the nonpositive orthant = polar of D
    A = -np.eye(2)
    dA, info = min_perturbation_to_primal(A, NonnegOrthant(2),
                                          NonnegOrthant(2))
    assert np.linalg.norm(dA, 2) <= 1e-9


def test_perturbation_norm_matches_restricted_sv():
    A = np.diag([2.0, 1.0])
    dA, info = min_perturbation_to_primal(A, full_space(2), full_space(2))
    assert abs(np.linalg.norm(dA, 2) - 1.0) <= 1e-8
    s = np.linalg.svd(A + dA, compute_uv=False)
    assert s[-1] <= 1e-8


def test_perturbation_on_wedges_lands_on_boundary():
    rng = np.random.default_rng(14)
    A = np.eye(2) + 0.2 * rng.standard_normal((2, 2))
    C = planar_wedge(0.9, 0.1)
    D = planar_wedge(1.1, 0.3)
    sv = restricted_sv(A, C, D, stream=stream(208))
    dA, info = min_perturbation_to_primal(A, C, D, stream=stream(209))
    assert abs(np.linalg.norm(dA, 2) - sv.value) <= 1e-6
    assert grid_restricted(A + dA, C, D, "sv") <= 1e-3


# ---------------------------------------------------------------------------
# randomized condition functionals
# ---------------------------------------------------------------------------

def test_kappa_bar_identity_is_one():
    est = kappa_bar(np.eye(5), 3, 200, stream(210))
    assert abs(est.mean - 1.0) <= 1e-12
    assert est.stderr <= 1e-12


def test_kappa_bar_square_case_is_deterministic():
    A = np.diag([3.0, 1.0])
    est = kappa_bar(A, 2, 150, stream(211))
    assert abs(est.mean - 9.0) <= 1e-10
    assert est.stderr <= 1e-10


def test_kappa_bar_row_subsampling_beats_full_condition():
    D = finite_difference_matrix(50)
    A = np.linalg.inv(D)
    full_kappa2 = np.linalg.cond(D, 2) ** 2
    est = kappa_bar(A, 25, 400, stream(212))
    assert math.isfinite(est.mean)
    assert est.mean + 3 * est.stderr < 0.5 * full_kappa2


def _kappa_bar_loop(A, m, samples, st, skip=()):
    # one Haar rotation per sample from its own generator; a sample in
    # skip passes over its first matrix, as a failed rank test does
    n = A.shape[0]
    vals = np.empty(samples)
    for i in range(samples):
        rng = st.gen(i)
        if i in skip:
            rng.standard_normal((n, n))
        while True:
            s = np.linalg.svd((haar_from_rng(n, rng) @ A)[:m],
                              compute_uv=False)
            if s[-1] > 1e-13 * s[0]:
                break
        vals[i] = (s[0] / s[-1]) ** 2
    return mc_estimate(vals, np.ones(samples, dtype=bool), st.master_seed)


def _same_estimate(a, b):
    return (a.mean, a.stderr, a.samples) == (b.mean, b.stderr, b.samples)


def test_kappa_bar_matches_per_sample_loop(monkeypatch):
    rng = np.random.default_rng(220)
    cases = [(np.linalg.inv(finite_difference_matrix(12)), 5, 60),
             (rng.standard_normal((7, 7)), 7, 40),
             (np.diag([3.0, 1.0]), 1, 30)]
    want = [_kappa_bar_loop(A, m, k, stream(221, i))
            for i, (A, m, k) in enumerate(cases)]
    for chunk_bytes in (solvers.CHUNK_BYTES, 8 * 3 * 49):
        monkeypatch.setattr(solvers, "CHUNK_BYTES", chunk_bytes)
        for i, (A, m, k) in enumerate(cases):
            assert _same_estimate(kappa_bar(A, m, k, stream(221, i)), want[i])


def _rank_deficient_at(monkeypatch, st, n, samples):
    """Make the stacked rotations of samples ``samples`` of st give
    rank-deficient compressions (rows 0 and 1 of Q equal): a
    probability-zero event that no input reaches."""
    first = {st.gen(i).standard_normal((n, n))[0, 0] for i in samples}
    haar_stack = condition.haar_stack

    def degenerate(G):
        Q = haar_stack(G)
        for j in np.flatnonzero(np.isin(G[:, 0, 0], list(first))):
            Q[j, 1] = Q[j, 0]
        return Q
    monkeypatch.setattr(condition, "haar_stack", degenerate)


def test_kappa_bar_resamples_rank_deficient_draws(monkeypatch):
    A = np.linalg.inv(finite_difference_matrix(6))
    st = stream(222)
    bad = {0, 3, 4, 17, 29}
    want = _kappa_bar_loop(A, 3, 30, st, skip=bad)
    _rank_deficient_at(monkeypatch, st, 6, bad)
    for chunk_bytes in (solvers.CHUNK_BYTES, 8 * 4 * 36):
        monkeypatch.setattr(solvers, "CHUNK_BYTES", chunk_bytes)
        assert _same_estimate(kappa_bar(A, 3, 30, st), want)


def test_kappa_bar_caps_resamples(monkeypatch):
    st = stream(223)
    _rank_deficient_at(monkeypatch, st, 4, range(11))
    with pytest.raises(RuntimeError, match=r"\(11 resamples\)"):
        kappa_bar(np.eye(4), 2, 30, st)


def _gordon_loop(sig, m, trials, st):
    # per trial, the eigenvalues of the min(n, m)-square Gram of Sigma G;
    # also returns the per-trial svd values they stand for
    smin, smax = np.empty(trials), np.empty(trials)
    svd = np.empty((trials, 2))
    for i in range(trials):
        M = sig[:, None] * st.gen(i).standard_normal((len(sig), m))
        lam = np.linalg.eigvalsh(M.T @ M if m <= len(sig) else M @ M.T)
        smax[i], smin[i] = np.sqrt(lam[-1]), np.sqrt(max(lam[0], 0.0))
        s = np.linalg.svd(M, compute_uv=False)
        svd[i] = s[min(len(sig), m) - 1], s[0]
    return smin, smax, svd


def test_empirical_gordon_matches_per_trial_loop(monkeypatch):
    rng = np.random.default_rng(224)
    cases = []
    for i, (n, m) in enumerate([(12, 4), (30, 6), (5, 9), (100, 25)]):
        sig = rng.uniform(0.1, 1.0, size=n)
        sig[0] = 1.0
        cases.append((sig, m, 40 + 7 * i, stream(225, i)))
    want = []
    for sig, m, trials, st in cases:
        smin, smax, svd = _gordon_loop(sig, m, trials, st)
        assert np.all(np.abs(np.column_stack([smin, smax]) - svd)
                      <= 1e-13 * svd)
        ok = np.ones(trials, dtype=bool)
        want.append((mc_estimate(smin, ok, st.master_seed),
                     mc_estimate(smax, ok, st.master_seed)))
    for chunk_bytes in (solvers.CHUNK_BYTES, 8 * 3 * 12 * 4):
        monkeypatch.setattr(solvers, "CHUNK_BYTES", chunk_bytes)
        for (sig, m, trials, st), (lo, hi) in zip(cases, want):
            rep = empirical_gordon_check(sig, m, trials, st)
            assert (rep.smin_mean, rep.smin_stderr) == (lo.mean, lo.stderr)
            assert (rep.smax_mean, rep.smax_stderr) == (hi.mean, hi.stderr)


def test_gordon_bound_identity_case():
    assert abs(gordon_kappa_bound(np.eye(100), 25) - 3.0) <= 1e-12


def test_gordon_bound_domain():
    with pytest.raises(ValueError):
        gordon_kappa_bound(np.eye(4), 4)


def test_empirical_gordon_identity_covariance():
    rep = empirical_gordon_check(np.ones(100), 25, 200, stream(213))
    assert rep.smin_mean >= 5.0
    assert rep.smin_ok and rep.smax_ok
    assert rep.smax_mean <= rep.smax_upper


def test_empirical_gordon_zero_covariance():
    rep = empirical_gordon_check(np.zeros(10), 3, 100, stream(214))
    assert rep.smin_mean == 0.0
    assert rep.smax_mean == 0.0


def test_empirical_gordon_random_spectra():
    # diagonal factors are normalized to ||Sigma|| <= 1 as required
    rng = np.random.default_rng(15)
    for i in range(10):
        sigma = rng.uniform(0.05, 1.0, size=30)
        sigma[rng.integers(0, 30)] = 1.0
        m = 6
        rep = empirical_gordon_check(sigma, m, 150, stream(215, i))
        fro = np.linalg.norm(sigma)
        assert rep.smax_mean <= fro + math.sqrt(m) + 3 * rep.smax_stderr
        assert rep.smax_ok


def test_empirical_gordon_rejects_unnormalized_spectrum():
    with pytest.raises(ValueError):
        empirical_gordon_check(np.full(10, 2.0), 3, 100, stream(217))
    # a NaN entry has no norm to compare, so it fails the same check
    with pytest.raises(ValueError):
        empirical_gordon_check(np.r_[np.nan, np.full(9, 0.5)], 3, 100,
                               stream(217))


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

def test_condition_report_consistency():
    rng = np.random.default_rng(16)
    A = rng.standard_normal((2, 2))
    C = planar_wedge(0.8, 0.0)
    D = planar_wedge(1.0, 0.2)
    rep = condition_report(A, C, D, stream=stream(216))
    assert abs(rep.op_norm - np.linalg.norm(A, 2)) <= 1e-9
    assert rep.renegar_R >= 1.0 - 1e-9
    denom = max(rep.sigma_CD, rep.sigma_DC_transposed)
    assert abs(rep.renegar_R - rep.op_norm / denom) <= 1e-6 * rep.renegar_R
    assert abs(rep.kappa - np.linalg.cond(A, 2)) <= 1e-8


def test_condition_report_names_the_method_of_each_side():
    # the enumeration serves the primal side, but an inequality cone in R^3
    # has no generators, so the dual side runs multistart
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 3))
    C, D = NonnegOrthant(3), InequalityCone(rng.standard_normal((3, 2)))
    rep = condition_report(A, C, D, stream=stream(218))
    assert (rep.method, rep.method_dual) == ("exact", "multistart")
    assert rep.method == restricted_sv(A, C, D).method
    assert rep.method_dual == restricted_sv(-A.T, D, C,
                                            stream=stream(218)).method
    assert rep.to_dict()["method_dual"] == "multistart"
