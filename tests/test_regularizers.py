"""Sparsity regularizers: subdifferential cones, TV operators, reductions."""

import math

import numpy as np
import pytest

from conftest import combined_stderr, stream

from conekit import condition, cones, integral_geometry
from conekit.cli import main
from conekit.cones import (GeneratorCone, InequalityCone, L1SubdiffCone,
                           LinearImage, PolarCone, polar, preimage_cone,
                           project)
from conekit.integral_geometry import crofton_probability
from conekit.regularizers import (AnalysisInstance, analysis_subdiff_cone,
                                  build_BC_matrices,
                                  descent_statdim_analysis,
                                  finite_difference_matrix,
                                  reduced_analysis_cone, reduced_subdiff_cone,
                                  tv_singular_values)
from conekit.numerics import SeededStream
from conekit.statdim import (descent_statdim_l1, estimate_intrinsic_volumes,
                             estimate_statdim)


# ---------------------------------------------------------------------------
# subdifferential cones of the (weighted) l1 norm
# ---------------------------------------------------------------------------

def test_subdiff_full_support_is_a_ray():
    sgn = np.array([1.0, -1.0, 1.0])
    C = L1SubdiffCone(3, [0, 1, 2], sgn)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(3)
        p = project(C, x).point
        t = max((x @ sgn) / 3.0, 0.0)
        assert np.allclose(p, t * sgn, atol=1e-10)


def test_zero_anchor_rejected():
    with pytest.raises(ValueError):
        L1SubdiffCone(3, [], [])
    with pytest.raises(ValueError):
        AnalysisInstance(np.eye(3), np.zeros(3))


def test_weights_one_match_plain_l1():
    rng = np.random.default_rng(1)
    plain = L1SubdiffCone(4, [0, 2], [1.0, -1.0])
    weighted = L1SubdiffCone(4, [0, 2], [1.0, -1.0], np.ones(4))
    for _ in range(200):
        g = rng.standard_normal(4)
        assert np.allclose(project(plain, g).point,
                           project(weighted, g).point, atol=1e-12)


def test_descent_subdiff_duality_small_n():
    rng = np.random.default_rng(2)
    for n, sup in ((3, [0]), (5, [1, 3]), (6, [0, 2, 5])):
        signs = [1.0 if i % 2 == 0 else -1.0 for i in range(len(sup))]
        d = descent_statdim_l1(n, sup, signs, 20000, stream(400, n))
        sub = estimate_statdim(L1SubdiffCone(n, sup, signs), 20000,
                               stream(401, n))
        assert abs(d.mean + sub.mean - n) <= 3 * combined_stderr(d, sub)


# ---------------------------------------------------------------------------
# analysis instances
# ---------------------------------------------------------------------------

def test_analysis_instance_support_extraction():
    D = finite_difference_matrix(5)
    x0 = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
    inst = AnalysisInstance(D, x0)
    assert inst.p == 5 and inst.n == 5 and inst.s == 2
    assert np.array_equal(np.sort(inst.support), [1, 4])


def test_analysis_identity_reduces_to_plain_subdiff():
    x0 = np.array([0.0, 2.0, 0.0, -1.0])
    inst = AnalysisInstance(np.eye(4), x0)
    C1 = analysis_subdiff_cone(inst)
    C2 = L1SubdiffCone(4, [1, 3], [1.0, -1.0])
    rng = np.random.default_rng(3)
    for _ in range(100):
        g = rng.standard_normal(4)
        assert np.allclose(project(C1, g).point, project(C2, g).point,
                           atol=1e-8)


def test_analysis_complementarity_invertible_D():
    rng = np.random.default_rng(4)
    D = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    x0 = np.array([1.0, 0.0, 0.0, 2.0])
    inst = AnalysisInstance(D, x0)
    sub = estimate_statdim(analysis_subdiff_cone(inst), 20000, stream(402))
    desc = descent_statdim_analysis(inst, 20000, stream(403))
    assert abs(desc.mean - (4 - sub.mean)) <= 3 * combined_stderr(desc, sub)


def test_analysis_descent_via_polar_preimage():
    # for invertible D the descent cone is the preimage under D of the
    # polar of the l1 subdifferential cone; preimage_cone(D, K) builds
    # {x : D x in polar(K)} directly from K
    rng = np.random.default_rng(5)
    D = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    x0 = np.array([0.0, 1.0, 0.0])
    inst = AnalysisInstance(D, x0)
    pre = preimage_cone(D, L1SubdiffCone(3, inst.support, inst.signs))
    d1 = estimate_statdim(pre, 20000, stream(404))
    d2 = descent_statdim_analysis(inst, 20000, stream(405))
    assert abs(d1.mean - d2.mean) <= 3 * combined_stderr(d1, d2)


def test_tv_one_jump_lower_bound():
    # one jump in n = 20: the analysis statdim is finite and at least the
    # plain sparse statdim divided by the squared condition number of D
    n = 20
    D = finite_difference_matrix(n)
    x0 = np.concatenate([np.zeros(10), np.ones(10)])
    inst = AnalysisInstance(D, x0)
    assert inst.s == 2
    desc = descent_statdim_analysis(inst, 20000, stream(406))
    plain = descent_statdim_l1(n, list(inst.support),
                               list(inst.signs), 20000, stream(407))
    kappa2 = np.linalg.cond(D, 2) ** 2
    assert math.isfinite(desc.mean)
    assert desc.mean >= plain.mean / kappa2 - 3 * combined_stderr(desc, plain)


def test_analysis_instance_json_roundtrip():
    D = finite_difference_matrix(4)
    x0 = np.array([0.0, 1.0, 1.0, 0.0])
    inst = AnalysisInstance(D, x0)
    d = inst.to_dict()
    inst2 = AnalysisInstance.from_dict(d)
    assert np.array_equal(inst2.D, inst.D)
    assert np.array_equal(inst2.support, inst.support)


def test_analysis_instance_tv_shorthand():
    inst = AnalysisInstance.from_dict(
        {"D": "tv_square(6)", "x0": [0, 0, 1, 1, 1, 1]})
    assert np.array_equal(inst.D, finite_difference_matrix(6))
    with pytest.raises(ValueError):
        AnalysisInstance.from_dict({"D": "dct(6)", "x0": [1] * 6})


def test_from_support_prescribes_pattern():
    D = finite_difference_matrix(5)
    inst = AnalysisInstance.from_support(D, [1, 3], [1.0, -1.0])
    assert np.array_equal(np.sort(inst.support), [1, 3])
    i1 = list(inst.support).index(1)
    i3 = list(inst.support).index(3)
    assert inst.signs[i1] == 1.0 and inst.signs[i3] == -1.0


# ---------------------------------------------------------------------------
# finite difference operators and their spectra
# ---------------------------------------------------------------------------

def test_square_bidiagonal_matrix_entries():
    D = finite_difference_matrix(2)
    assert np.array_equal(D, [[-1.0, 1.0], [0.0, -1.0]])
    D3 = finite_difference_matrix(3)
    assert np.array_equal(np.diag(D3), -np.ones(3))
    assert np.array_equal(np.diag(D3, 1), np.ones(2))


def test_rect_variant_annihilates_constants():
    D = finite_difference_matrix(3, "rect")
    assert np.array_equal(D, [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
    assert np.allclose(D @ np.ones(3), 0.0)
    with pytest.raises(ValueError):
        finite_difference_matrix(3, "circulant")


def test_tv_spectrum_exact_formula():
    # svd of the square bidiagonal operator matches
    # sqrt(2 - 2 cos((2k-1) pi / (2n+1))) for every n up to 200
    for n in (2, 3, 17, 200):
        spec = tv_singular_values(n)
        k = np.arange(1, n + 1)
        expect = np.sqrt(2.0 - 2.0 * np.cos((2 * k - 1) * math.pi
                                            / (2 * n + 1)))
        assert spec.max_mismatch_mixed <= 1e-8
        assert np.max(np.abs(np.sort(spec.singular_values)
                             - np.sort(expect))) <= 1e-8


def test_tv_spectrum_n2_values():
    spec = tv_singular_values(2)
    golden = (1 + math.sqrt(5)) / 2
    assert np.allclose(np.sort(spec.singular_values),
                       [golden - 1, golden], atol=1e-4)
    # the second-difference closed form does not describe this operator
    assert np.allclose(np.sort(spec.dirichlet_formula),
                       [1.0, math.sqrt(3.0)], atol=1e-4)
    assert spec.max_mismatch_dirichlet > 0.1


def test_tv_spectrum_n3_dirichlet_values():
    spec = tv_singular_values(3)
    assert np.allclose(np.sort(spec.dirichlet_formula),
                       [0.7654, 1.4142, 1.8478], atol=1e-4)


def test_tv_spectrum_energy_accounting():
    # the operator's squared Frobenius norm is 2n - 1; the trigonometric
    # sum behind the second-difference family gives 2n; both are reported
    for n in (2, 5, 50):
        spec = tv_singular_values(n)
        assert abs(spec.fro_sq - (2 * n - 1)) <= 1e-9
        assert abs(spec.dirichlet_sum_sq - 2 * n) <= 1e-9
        assert abs(np.sum(np.square(spec.singular_values))
                   - spec.fro_sq) <= 1e-9


# ---------------------------------------------------------------------------
# orthonormal reduction
# ---------------------------------------------------------------------------

def test_build_BC_identity_case():
    inst = AnalysisInstance(np.eye(4), np.array([0.0, 0.0, 0.0, 3.0]))
    B, C = build_BC_matrices(inst)
    assert B.shape == (4, 4) and C.shape == (4, 4)
    assert np.allclose(C, np.eye(4), atol=1e-12)
    assert np.linalg.cond(C) <= 1.0 + 1e-12


def test_build_BC_orthonormal_columns():
    D = finite_difference_matrix(8)
    x0 = np.concatenate([np.zeros(3), np.ones(2), np.full(3, -1.0)])
    inst = AnalysisInstance(D, x0)
    B, C = build_BC_matrices(inst)
    assert B.shape == (8, 8 - inst.s + 1)
    assert np.max(np.abs(B.T @ B - np.eye(B.shape[1]))) <= 1e-12
    assert np.allclose(C, D.T @ B, atol=1e-14)


def test_build_BC_sign_flip_changes_last_column_only():
    D = finite_difference_matrix(6)
    inst = AnalysisInstance.from_support(D, [1, 4], [1.0, 1.0])
    inst2 = AnalysisInstance.from_support(D, [1, 4], [1.0, -1.0])
    B1, C1 = build_BC_matrices(inst)
    B2, C2 = build_BC_matrices(inst2)
    assert np.allclose(B1[:, :-1], B2[:, :-1], atol=1e-15)
    assert not np.allclose(B1[:, -1], B2[:, -1])
    d4 = D.T[:, 4]
    sqrt_s = math.sqrt(2.0)
    assert np.allclose(C1[:, -1] - C2[:, -1], 2.0 * d4 / sqrt_s, atol=1e-12)


def test_build_BC_requires_enough_support():
    # rank-n square D forces s >= p - n + 1 = 1; a wide D is rejected
    with pytest.raises(ValueError):
        build_BC_matrices(AnalysisInstance(np.ones((2, 3)), np.ones(3)))


def test_reduced_statdim_matches_plain_route():
    D = finite_difference_matrix(10)
    x0 = np.concatenate([np.zeros(5), np.ones(5)])
    inst = AnalysisInstance(D, x0)
    a = descent_statdim_analysis(inst, 20000, stream(408))
    b = estimate_statdim(reduced_analysis_cone(inst), 20000, stream(409))
    assert abs(a.mean - (inst.n - b.mean)) <= 3 * combined_stderr(a, b)


def test_reduced_subdiff_cone_dimensions():
    D = finite_difference_matrix(7)
    x0 = np.concatenate([np.zeros(4), np.ones(3)])
    inst = AnalysisInstance(D, x0)
    R = reduced_subdiff_cone(inst)
    assert R.n == inst.p - inst.s + 1


# ---------------------------------------------------------------------------
# exact route for TV analysis cones
# ---------------------------------------------------------------------------

def tv_grid_instances(n, seed):
    """The tv-statdim command's instances: s = 1..6 on the square
    bidiagonal D, support and signs drawn from SeededStream(seed, 0)."""
    D = finite_difference_matrix(n, "square_bidiagonal")
    out = []
    for s in range(1, 7):
        rng = SeededStream(seed, 0).child(s).gen(0)
        support = np.sort(rng.choice(n, size=s, replace=False))
        signs = rng.choice([-1.0, 1.0], size=s)
        out.append(AnalysisInstance.from_support(D, support, signs))
    return out


def cone_tree(C):
    """C and every cone nested inside it."""
    yield C
    for attr in ("inner", "left", "right"):
        if hasattr(C, attr):
            yield from cone_tree(getattr(C, attr))
    for part in getattr(C, "parts", ()):
        yield from cone_tree(part)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tv_cones_never_reach_fista(seed):
    # accelerated projected gradient serves only wide or singular images;
    # every TV cone of the tv-statdim grid has an exact route
    for inst in tv_grid_instances(30, seed):
        for C in (reduced_analysis_cone(inst), analysis_subdiff_cone(inst)):
            assert not any(isinstance(K, LinearImage) and not K._isometric
                           for K in cone_tree(C))


def test_norm_only_callers_never_rank_faces(monkeypatch, tmp_path):
    # statdim, Moreau, support-enumeration, multistart, line-hit and FISTA
    # projections read only the points, so the batched rank svd of the faces must not run;
    # the intrinsic-volume profile inside crofton_probability reads faces
    ranks = cones._masked_ranks
    reading = []

    def guarded(*args):
        assert reading, "faces ranked for a caller that reads only points"
        return ranks(*args)

    def profile(*args):
        reading.append(True)
        try:
            return estimate_intrinsic_volumes(*args)
        finally:
            reading.pop()

    monkeypatch.setattr(cones, "_masked_ranks", guarded)
    monkeypatch.setattr(integral_geometry, "estimate_intrinsic_volumes",
                        profile)
    for inst in tv_grid_instances(30, 1):
        est = estimate_statdim(reduced_analysis_cone(inst), 200, stream(413))
        assert est.samples == 200
    rng = np.random.default_rng(414)
    C = GeneratorCone(rng.standard_normal((5, 7)))
    for K in (C, polar(C)):
        assert estimate_statdim(K, 200, stream(415)).samples == 200
    for suite in ("cones", "condition"):
        assert main(["verify", "--suite", suite, "--seed", "42", "--samples",
                     "400", "--out", str(tmp_path / f"{suite}.txt")]) == 0
    # the condition suite's cones are planar; the support enumeration on
    # cones in R^3 scores its candidates by NNLS
    rv = condition.restricted_sv(
        rng.standard_normal((3, 3)), GeneratorCone(rng.standard_normal((3, 4))),
        InequalityCone(rng.standard_normal((3, 4))), method="exact")
    assert rv.method == "exact"
    # multistart reads only the projected points of its iterates
    ms = np.random.default_rng(418)
    rv = condition.restricted_sv(
        ms.standard_normal((4, 5)), GeneratorCone(ms.standard_normal((5, 7))),
        InequalityCone(ms.standard_normal((4, 6))), method="multistart")
    assert rv.method == "multistart"
    # a line in R^4 (m = 3), so the hit test projects by NNLS
    rep = crofton_probability(GeneratorCone(rng.standard_normal((4, 3))), 3,
                              400, stream(416))
    assert rep.samples == 400
    image = LinearImage(rng.standard_normal((3, 5)),
                        InequalityCone(rng.standard_normal((5, 7))))
    _, fd, conv = image.project_batch(rng.standard_normal((20, 3)))
    assert conv.all() and (fd == -1).all()


def test_reduced_tv_cone_matches_fista_oracle():
    rng = np.random.default_rng(410)
    for inst in tv_grid_instances(12, 4)[:4]:
        C = reduced_analysis_cone(inst)
        if inst.s == 1:
            assert isinstance(C, InequalityCone)
        else:
            assert isinstance(C, LinearImage) and C._isometric
            assert isinstance(C.inner, InequalityCone)
        _, Cmat = build_BC_matrices(inst)
        oracle = LinearImage(Cmat, reduced_subdiff_cone(inst))
        for x in rng.standard_normal((8, inst.n)):
            want = oracle.project_point(x)
            assert want.converged
            assert (np.linalg.norm(project(C, x).point - want.point)
                    <= 1e-6 * (1.0 + np.linalg.norm(x)))


def test_tv_reduced_cone_intrinsic_volumes_match_statdim():
    inst = tv_grid_instances(30, 1)[2]
    C = reduced_analysis_cone(inst)
    prof = estimate_intrinsic_volumes(C, 2000, stream(411))
    est = estimate_statdim(C, 2000, stream(412))
    k = np.arange(prof.v.size)
    mean = prof.statdim()
    se = math.sqrt((k * k @ prof.v - mean ** 2) / prof.samples)
    assert abs(mean - est.mean) <= 3 * math.hypot(se, est.stderr)


def test_square_analysis_cone_and_its_preimage_are_exact():
    inst = tv_grid_instances(12, 5)[1]
    assert isinstance(analysis_subdiff_cone(inst), InequalityCone)
    pre = preimage_cone(inst.D, L1SubdiffCone(inst.p, inst.support,
                                              inst.signs))
    assert not isinstance(pre, PolarCone)
