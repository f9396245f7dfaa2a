"""Kinematic, Crofton, and projection identities under random rotations."""

import math
from dataclasses import astuple

import numpy as np
import pytest

from conftest import combined_stderr, stream
from per_draw_oracle import _faces_per_draw

import conekit.cones as cone_module
import conekit.integral_geometry as ig_module
import conekit.numerics as numerics_module
from conekit import solvers
from conekit.cli import main
from conekit.cones import (GeneratorCone, InequalityCone, L1SubdiffCone,
                           LinearImage, NonnegOrthant, ProductCone, Subspace,
                           _inequality_matrix, full_space, generators_of,
                           intersect, linear_image, polar, project, rotate,
                           zero_cone)
from conekit.integral_geometry import (IDENTITY_SUITES, IdentityCheckReport,
                                       _compression_faces,
                                       _crofton_hits, _kinematic_faces,
                                       _line_hits_cone,
                                       crofton_probability,
                                       eta_for_projection_margin,
                                       projected_statdim, run_identity_suite,
                                       verify_kinematic,
                                       verify_projection_formula, verify_tqc)
from conekit.numerics import (SeededStream, haar_from_rng, haar_stack,
                              row_projection)
from conekit.solvers import _sections
from conekit.statdim import (estimate_intrinsic_volumes, estimate_statdim,
                             mc_estimate, tails)


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


L1_4 = L1SubdiffCone(4, [0], [1.0])
L1_6 = L1SubdiffCone(6, [1, 4], [1.0, -1.0])


@pytest.mark.parametrize("C,m", [
    pytest.param(C, m, id=f"{name}-n{K.n}-m{m}")
    for K, ms in ((L1_4, (1, 2)), (L1_6, (1, 2, 3, 4)))
    for name, C in (("l1", K), ("descent", polar(K))) for m in ms])
def test_crofton_l1_subdiff_cones_and_their_polars(C, m):
    # the l1 subdifferential cone has normals and its polar, the l1
    # descent cone, has them as generators, so every d >= 2 is decided
    rep = crofton_probability(C, m, 1000, stream(7))
    assert rep.verdict


# a generated cone in R^3 with five generators and four facets
V_3X5 = np.random.default_rng(0).standard_normal((3, 5))


def test_crofton_generated_cone_with_more_generators_than_dimensions():
    # its facets give it normals, so both hit routes exist and agree
    C = GeneratorCone(V_3X5)
    st = stream(325, 1)
    for i in range(200):
        w_route, v_route = _routes(C, haar_from_rng(3, st.gen(i)), 2)
        assert w_route == v_route
    rep = crofton_probability(C, 1, 2000, stream(325))
    assert rep.verdict


def _routes(C, Q, d):
    """Hit answers of the inequality route and the generator route that C
    carries, for the subspace span(Q[:, :d])."""
    W, V = _inequality_matrix(C), generators_of(C)
    out = []
    if W is not None:
        out.append(bool(_sections(W, Q[:, :d])[0][0]))
    if V is not None:
        out.append(not _sections(V, Q[:, d:])[0][0])
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
    # the product carries both routes: generators and block normals
    assert len(_routes(cones[-1], np.eye(3), 1)) == 2
    for j, C in enumerate(cones):
        st = stream(326, j)
        hits = 0
        for i in range(300):
            Q = haar_from_rng(C.n, st.gen(i))
            hit, converged = _line_hits_cone(C, Q[None, :, 0])
            assert converged[0]
            oracle = bool(hit[0])
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
        assert bool(_sections(M, np.eye(2))[0][0]) is nontrivial
        # the same columns inside a random plane of R^3
        assert bool(_sections(Q[:, :2] @ M, Q[:, :2])[0][0]) is nontrivial


def test_crofton_sections_make_one_nnls_call_per_block(monkeypatch):
    # d >= 2 decides a block of draws by one stacked section test, on the
    # normals of the orthant and on the generators of a cone over the
    # facet cap; the one-row nnls is never called
    calls, blocks = [], []
    batch, draws = solvers._nnls_batch, ig_module._rotation_draws

    def count_calls(G, W0):
        calls.append(len(W0))
        return batch(G, W0)

    def count_blocks(*args):
        for block in draws(*args):
            blocks.append(len(block[1]))
            yield block

    def refuse(*args):
        raise AssertionError("one-row nnls reached")

    monkeypatch.setattr(solvers, "_nnls_batch", count_calls)
    monkeypatch.setattr(solvers, "nnls", refuse)
    monkeypatch.setattr(ig_module, "_rotation_draws", count_blocks)
    # blocks of 40 draws for the orthant, of 1 draw for the 5 x 40 cone
    monkeypatch.setattr(solvers, "CHUNK_BYTES", 8 * 16 * 40)
    V = np.random.default_rng(6).standard_normal((5, 40))
    over_cap = GeneratorCone(V)
    assert _inequality_matrix(over_cap) is None
    for C in (NonnegOrthant(4), over_cap):
        calls.clear()
        blocks.clear()
        _crofton_hits(C, 2, 120, stream(328))
        assert len(blocks) > 1 and calls == blocks


@pytest.mark.parametrize("C,m", [(GeneratorCone(V_3X5), 2),
                                 (NonnegOrthant(4), 2)],
                         ids=["lines", "sections"])
def test_crofton_counts_unconverged_decisions(monkeypatch, C, m):
    # a draw decided by an unconverged NNLS (a line's projection or a
    # stacked section test) is dropped and counted in ``failures``, the
    # rate is taken over the rest, and more than MAX_FAILURE_FRACTION of
    # them raise
    samples, batch = 2000, solvers._nnls_batch
    want, ok = _crofton_hits(C, C.n - m, samples, stream(339))
    assert ok.all()

    def unconverged_rows(every):
        def wrapped(G, W0):
            coef, iters, conv = batch(G, W0)
            conv = conv.copy()
            conv[::every] = False
            return coef, iters, conv
        for module in (solvers, cone_module):
            monkeypatch.setattr(module, "_nnls_batch", wrapped)

    unconverged_rows(300)
    hits, ok = _crofton_hits(C, C.n - m, samples, stream(339))
    failures = int(samples - ok.sum())
    assert 0 < failures <= 0.01 * samples
    assert np.array_equal(hits[ok], want[ok])
    rep = crofton_probability(C, m, samples, stream(339))
    assert (rep.failures, rep.samples) == (failures, samples - failures)
    assert rep.hit_rate == want[ok].sum() / (samples - failures)
    assert rep.to_dict()["failures"] == failures
    # the profile is never reached: the hits raise first
    unconverged_rows(20)
    monkeypatch.setattr(ig_module, "estimate_intrinsic_volumes", None)
    with pytest.raises(RuntimeError, match="converge"):
        crofton_probability(C, m, samples, stream(339))


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


def _projected_statdim_per_draw(C, m, samples, stream):
    """The per-draw loop of projected_statdim: one cone P Q C per draw."""
    P = row_projection(m, C.n)
    vals = np.zeros(samples)
    ok = np.zeros(samples, dtype=bool)
    for i in range(samples):
        gen = stream.gen(i)
        K = linear_image(P @ haar_from_rng(C.n, gen), C)
        r = project(K, gen.standard_normal(m))
        vals[i], ok[i] = r.point @ r.point, r.converged
    return mc_estimate(vals, ok, stream.master_seed)


@pytest.mark.parametrize("C,m,exact", [
    (ProductCone([NonnegOrthant(20), Subspace(np.zeros((20, 0)))]), 25,
     True),
    (GeneratorCone(np.random.default_rng(2).standard_normal((6, 8))), 6,
     True),
    (InequalityCone(np.random.default_rng(4).standard_normal((5, 7))), 5,
     True),
    (L1SubdiffCone(5, [1, 3], [1.0, -1.0]), 5, True),
    (L1SubdiffCone(4, [1], [1.0]), 3, True),
    # the loop projects subspace images orthogonally, and planar images by
    # wedge arithmetic, where the stacked draws run NNLS
    (subspace_dim(40, 5), 20, False),
    (GeneratorCone(np.random.default_rng(3).standard_normal((5, 7))), 2,
     False),
], ids=["orthant-window", "generated", "square-normals", "l1-rotation",
        "l1-fista-loop", "subspace", "planar"])
def test_projected_statdim_matches_per_draw_loop(C, m, exact):
    samples = 20 if m < C.n and generators_of(C) is None else 300
    got = projected_statdim(C, m, samples, stream(334))
    want = _projected_statdim_per_draw(C, m, samples, stream(334))
    assert got.samples == want.samples == samples
    if exact:
        assert (got.mean, got.stderr) == (want.mean, want.stderr)
    else:
        assert got.mean == pytest.approx(want.mean, rel=1e-13)
        assert got.stderr == pytest.approx(want.stderr, rel=1e-12)


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


# ---------------------------------------------------------------------------
# stacked rotation draws against the per-draw oracle
# ---------------------------------------------------------------------------

def test_stacked_haar_is_bit_identical_to_one_matrix_draws():
    st = stream(330)
    for n in range(2, 7):
        G = np.stack([st.gen(i).standard_normal((n, n)) for i in range(200)])
        Q = haar_stack(G)
        for i in range(200):
            assert np.array_equal(Q[i], haar_from_rng(n, st.gen(i)))


def _suite_draws(name):
    """(stacked, oracle) per-draw results of one identity suite, on the
    draws of run_identity_suite at the stream the benchmark uses."""
    st = SeededStream(1303, 0).child(sorted(IDENTITY_SUITES).index(name))
    st = st.child(0)
    if name == "crofton":
        C = NonnegOrthant(3)
        oracle = np.array([
            any(np.linalg.norm(project(C, s).point - s) <= 1e-9
                for s in (Q[:, 0], -Q[:, 0]))
            for Q in (haar_from_rng(3, st.gen(i)) for i in range(1000))])
        return _crofton_hits(C, 1, 1000, st), oracle
    if name.startswith("kinematic"):
        C, D = ((NonnegOrthant(2), NonnegOrthant(2))
                if name == "kinematic-planar"
                else (NonnegOrthant(3), subspace_dim(3, 2)))
        return (_kinematic_faces(C, D, 1000, st),
                _faces_per_draw(1000, st,
                                lambda Q: intersect(C, rotate(D, Q)), C.n))
    if name == "projection":
        T, C = row_projection(2, 4), NonnegOrthant(4)
    else:
        T, C = np.diag([1.0, 2.0]) @ row_projection(2, 3), NonnegOrthant(3)
    return (_compression_faces(T, C, 1000, st),
            _faces_per_draw(1000, st, lambda Q: linear_image(T @ Q, C), C.n))


@pytest.mark.parametrize("name", sorted(IDENTITY_SUITES))
def test_stacked_suite_draws_match_per_draw_cones(name):
    got, want = _suite_draws(name)
    if name == "crofton":
        hits, ok = got
        assert ok.all()
        assert np.array_equal(hits, want) and 0 < hits.sum() < 1000
        return
    assert want[1].all()
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_stacked_polar_quadrant_draws_match_per_draw_cones():
    Pq = polar(NonnegOrthant(2))
    st = SeededStream(1303, 0).child(0)
    fd, ok, _ = _kinematic_faces(Pq, Pq, 1000, st)
    want = _faces_per_draw(1000, st, lambda Q: intersect(Pq, rotate(Pq, Q)),
                           2)
    assert np.array_equal(fd, want[0]) and np.array_equal(ok, want[1])
    assert ok.all() and set(fd) == {0, 1, 2}


@pytest.mark.parametrize("C,D", [
    (L1SubdiffCone(3, [0], [1.0]), NonnegOrthant(3)),
    (ProductCone([NonnegOrthant(2), full_space(1)]), subspace_dim(3, 1)),
    (subspace_dim(4, 2), subspace_dim(4, 1)),
    (polar(GeneratorCone(V_3X5)), InequalityCone(np.eye(3)[:, :2])),
], ids=["l1-orthant", "product-line", "transversal", "generated-polar"])
def test_stacked_kinematic_draws_match_per_draw_cones(C, D):
    st = stream(331)
    got = _kinematic_faces(C, D, 300, st)
    want = _faces_per_draw(300, st, lambda Q: intersect(C, rotate(D, Q)),
                           C.n)
    assert want[1].all()
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("side", ["C", "D"])
@pytest.mark.parametrize("n,d", [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2),
                                 (4, 3)])
def test_subspace_sections_match_per_draw_cones(monkeypatch, n, d, side):
    # a subspace side projects each draw in its section frame, by the
    # wedge form of its section normals at d = 2
    K, L = polar(GeneratorCone(np.eye(n) + 0.5)), subspace_dim(n, d)
    C, D = (L, K) if side == "C" else (K, L)
    st = stream(336, 10 * n + d)
    want = _faces_per_draw(300, st, lambda Q: intersect(C, rotate(D, Q)), n)
    assert want[1].all()
    for chunk in (solvers.CHUNK_BYTES, 8 * 25 * 3):
        monkeypatch.setattr(solvers, "CHUNK_BYTES", chunk)
        fd, ok, retried = _kinematic_faces(C, D, 300, st)
        assert np.array_equal(fd, want[0]) and np.array_equal(ok, want[1])
        assert retried == 0


def test_retried_counts_the_draws_reprojected_per_draw(monkeypatch):
    # rows marked unconverged by the stacked projection are projected onto
    # their own cones: the report is unchanged apart from ``retried``
    def run():
        return [verify_kinematic(NonnegOrthant(3), NonnegOrthant(3), 300,
                                 stream(337)),
                verify_tqc(np.diag([1.0, 2.0]) @ row_projection(2, 3),
                           NonnegOrthant(3), 300, stream(338))]

    for i, name in enumerate(sorted(IDENTITY_SUITES)):
        rep = run_identity_suite(name, 1000, SeededStream(1303, 0).child(i))
        assert not isinstance(rep, IdentityCheckReport) or rep.retried == 0
    want = run()
    marked = []

    def unconverged_rows(project):
        def wrapped(M, X, *args, **kwargs):
            P, fd, ok = project(M, X, *args, **kwargs)
            ok = ok.copy()
            ok[::7] = False
            marked.append(len(ok[::7]))
            return P, fd, ok
        return wrapped

    for name in ("_project_generated", "_project_normals"):
        monkeypatch.setattr(ig_module, name,
                            unconverged_rows(getattr(ig_module, name)))
    got = run()
    assert marked == [43, 43]
    for g, w in zip(got, want):
        assert (w.retried, g.retried, g.to_dict()["retried"]) == (0, 43, 43)
        assert np.array_equal(g.lhs, w.lhs) and g.failures == w.failures


@pytest.mark.parametrize("T,C", [
    (np.diag([1.0, 2.0, 0.5]), polar(NonnegOrthant(3))),
    (np.eye(3), L1SubdiffCone(3, [0], [1.0])),
    (row_projection(2, 3), GeneratorCone(V_3X5)),
    (row_projection(3, 4), ProductCone([NonnegOrthant(2), full_space(2)])),
    (row_projection(2, 4), subspace_dim(4, 1)),
], ids=["square-normals", "l1-rotation", "generated", "product", "line"])
def test_stacked_compression_draws_match_per_draw_cones(T, C):
    st = stream(332)
    got = _compression_faces(T, C, 300, st)
    want = _faces_per_draw(300, st, lambda Q: linear_image(T @ Q, C), C.n)
    assert want[1].all()
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_per_draw_cones_take_the_stacked_draws(monkeypatch):
    # a side without a stacked form (a rotated generated orthant whose
    # C(3, 2) = 3 facet subsets exceed the cap has neither generators nor
    # normals) projects each draw onto its own cone inside _stacked_draws,
    # with the draws of the per-draw oracle
    monkeypatch.setattr(cone_module, "EXACT_MAX_PAIRS", 2)
    st = stream(335)
    C = LinearImage(haar_from_rng(3, np.random.default_rng(3)),
                    GeneratorCone(np.eye(3)))
    assert _inequality_matrix(C) is None and generators_of(C) is None
    L = subspace_dim(3, 2)
    got = _kinematic_faces(C, L, 20, st)
    want = _faces_per_draw(20, st, lambda Q: intersect(C, rotate(L, Q)), 3)
    assert want[1].all()
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    got = _compression_faces(np.eye(3), C, 300, st)
    want = _faces_per_draw(300, st, lambda Q: linear_image(Q, C), 3)
    assert want[1].all() and len(set(want[0])) == 4
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("C,m", [
    (polar(NonnegOrthant(4)), 2),
    (L1SubdiffCone(4, [0], [1.0]), 2),
    (L1SubdiffCone(8, [1, 4], [1.0, -1.0]), 4),
], ids=["polar-orthant", "l1", "l1-n8"])
def test_wide_compressions_of_normals_only_cones_classify_faces(C, m):
    # under a wide T a cone with only normals maps to a non-isometric
    # LinearImage, projected exactly over the images of its facet or
    # priced generators, so every draw classifies its face
    T = np.random.default_rng(28).standard_normal((m + 1, C.n))
    for rep in (verify_projection_formula(C, m, 400, SeededStream(28, 1)),
                verify_tqc(T, C, 400, SeededStream(28, 2))):
        assert rep.failures == 0 and rep.samples == 400 and rep.verdict


def test_ill_conditioned_compression_loses_no_draw():
    # T = diag(1, 1e-6) P squeezes the generators of each image of R^3_+
    # to within about 1e-6 rad of a line, where Lawson-Hanson would need
    # coefficients of 1e6 and more.  The stacked draws take the exact
    # wedge form of each 2-row image, as the per-draw cones do, so every
    # draw converges and agrees with its per-draw cone.
    T = np.diag([1.0, 1e-6]) @ row_projection(2, 3)
    C = NonnegOrthant(3)
    st = stream(318).child(0)
    fd, ok, _ = _compression_faces(T, C, 20000, st)
    want = _faces_per_draw(20000, st, lambda Q: linear_image(T @ Q, C), 3)
    assert ok.all() and want[1].all()
    assert np.count_nonzero(fd != want[0]) == 0


def test_kinematic_l1_cone_runs_stacked():
    # the rotated l1 cone keeps its closed form in intersect, which sent
    # every draw through Dykstra; its normals make the draws exact
    rep = verify_kinematic(NonnegOrthant(3), L1SubdiffCone(3, [0], [1.0]),
                           200, SeededStream(3, 0))
    assert rep.failures == 0 and rep.samples == 200
    assert rep.verdict


def _forbid(monkeypatch, *names):
    def boom(*args, **kwargs):
        raise AssertionError("per-draw fallback reached")

    for name in names:
        monkeypatch.setattr(cone_module, name, boom)
    for cls in [cone_module.Cone] + cone_module.Cone.__subclasses__():
        if "project_point" in vars(cls):
            monkeypatch.setattr(cls, "project_point", boom)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kinematic_generated_cone_with_more_generators_runs_stacked(
        monkeypatch, seed):
    # its facets stack the draws; through Dykstra seed 2 left 5 of 300
    # draws unconverged and raised
    _forbid(monkeypatch, "_dykstra")
    rep = verify_kinematic(GeneratorCone(V_3X5), NonnegOrthant(3), 300,
                           SeededStream(seed, 2))
    assert rep.failures == 0 and rep.samples == 300
    assert rep.verdict


def test_identity_suites_never_take_the_per_draw_loop(monkeypatch):
    # the five suites and the l1 kinematic check run stacked: no Dykstra,
    # no projection onto a non-isometric image, no per-point projection
    _forbid(monkeypatch, "_dykstra", "_generators")
    for i, name in enumerate(sorted(IDENTITY_SUITES)):
        for st in (SeededStream(1303, 0).child(i), stream(333, i)):
            assert run_identity_suite(name, 1000, st).verdict
    verify_kinematic(NonnegOrthant(3), L1SubdiffCone(3, [0], [1.0]), 200,
                     SeededStream(3, 0))


def test_two_row_stacks_never_reach_nnls(monkeypatch):
    # every stack the suites project is made of 2-row matrices: the planar
    # intersections of kinematic-planar, the compressions of projection
    # and tqc, and the 2-dimensional sections of kinematic-subspace.  They
    # take their exact wedge forms, so no suite runs Lawson-Hanson
    seen = []

    def watch(project):
        def wrapped(M, X, *args, **kwargs):
            seen.append(M.ndim == 3 and M.shape[1] == 2)
            return project(M, X, *args, **kwargs)
        return wrapped

    def nnls(G, W0):
        raise AssertionError("an identity suite reached NNLS")

    for module in (cone_module, solvers):
        monkeypatch.setattr(module, "_nnls_batch", nnls)
    for name in ("_project_generated", "_project_normals"):
        monkeypatch.setattr(ig_module, name, watch(getattr(ig_module, name)))
    for i, name in enumerate(sorted(IDENTITY_SUITES)):
        run_identity_suite(name, 1000, SeededStream(1303, 0).child(i))
    assert seen and all(seen)


def test_identity_checks_reach_no_lapack_qr_or_svd(monkeypatch, capsys):
    # the suites' rotations have n <= 4: closed forms in the plane and
    # Gram-Schmidt for n = 3 and 4, so none takes LAPACK's QR; the Gordon
    # suite takes Gram eigenvalues, so it takes no svd
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"reached np.linalg.{name}")
        return call

    monkeypatch.setattr(numerics_module.np.linalg, "qr", refuse("qr"))
    for i, name in enumerate(sorted(IDENTITY_SUITES)):
        run_identity_suite(name, 1000, SeededStream(1303, 0).child(i))
    monkeypatch.setattr(np.linalg, "svd", refuse("svd"))
    assert main(["verify", "--suite", "gordon", "--samples", "1000",
                 "--seed", "1303"]) == 0
    assert "[pass] gordon/" in capsys.readouterr().out


def test_stacked_draws_are_chunk_invariant(monkeypatch):
    T = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])

    def run():
        st = stream(334)
        return [_kinematic_faces(NonnegOrthant(3), subspace_dim(3, 2), 500,
                                 st),
                _kinematic_faces(NonnegOrthant(2), NonnegOrthant(2), 500, st),
                _compression_faces(T, NonnegOrthant(3), 500, st),
                _crofton_hits(NonnegOrthant(3), 1, 500, st),
                _crofton_hits(NonnegOrthant(4), 2, 100, st),
                projected(GeneratorCone(V_3X5), 2, st),
                projected(ProductCone([NonnegOrthant(3), zero_cone(2)]), 4,
                          st),
                [np.array(astuple(row)) for row in
                 solvers.phase_transition_experiment(12, 2, [3, 6, 12], 9,
                                                     st)]]

    def projected(C, m, st):
        est = projected_statdim(C, m, 300, st)
        return (np.array([est.mean, est.stderr, est.samples]),)

    one = run()
    # a few draws per block, per NNLS chunk and per face-rank chunk
    monkeypatch.setattr(solvers, "CHUNK_BYTES", 8 * 25 * 3)
    many = run()
    for a, b in zip(one, many):
        for u, v in zip(a, b):
            assert np.array_equal(u, v)
