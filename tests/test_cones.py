"""Cone representations, projections, polarity, and serialization."""

import math
from functools import partial

import numpy as np
import pytest

from conftest import planar_wedge, random_generator_cone
from dykstra_oracle import _dykstra_point
from nnls_oracle import _nnls_gram

from conekit import cones, solvers
from conekit.cones import (GeneratorCone, InequalityCone, IntersectionCone,
                           L1SubdiffCone, LinearImage, NonnegOrthant,
                           PolarCone, ProductCone, Subspace,
                           _inequality_matrix, cone_from_dict, full_space,
                           generators_of, intersect, linear_image, polar,
                           preimage_cone, project, rotate, zero_cone)
from conekit.numerics import SeededStream, haar_orthogonal, row_projection
from conekit.regularizers import (AnalysisInstance, finite_difference_matrix,
                                  reduced_analysis_cone)
from conekit.solvers import _nnls_batch


ALL_SAMPLE_CONES = None


def sample_cones():
    global ALL_SAMPLE_CONES
    if ALL_SAMPLE_CONES is None:
        rng = np.random.default_rng(0)
        ALL_SAMPLE_CONES = [
            NonnegOrthant(4),
            Subspace(np.linalg.qr(rng.standard_normal((5, 2)))[0]),
            GeneratorCone(rng.standard_normal((4, 6))),
            InequalityCone(rng.standard_normal((4, 3))),
            L1SubdiffCone(4, [1, 3], [1.0, -1.0]),
            LinearImage(rng.standard_normal((4, 3)), NonnegOrthant(3)),
            ProductCone([NonnegOrthant(2), zero_cone(2)]),
            polar(GeneratorCone(rng.standard_normal((3, 5)))),
            intersect(NonnegOrthant(3),
                      GeneratorCone(rng.standard_normal((3, 4)))),
        ]
    return ALL_SAMPLE_CONES


# ---------------------------------------------------------------------------
# projection examples
# ---------------------------------------------------------------------------

def test_orthant_projection_and_face_dim():
    res = project(NonnegOrthant(3), np.array([1.0, -2.0, 3.0]))
    assert np.array_equal(res.point, [1.0, 0.0, 3.0])
    assert res.face_dim == 2


def test_subspace_projection():
    C = Subspace(np.array([[1.0], [0.0]]))
    res = project(C, np.array([2.0, 5.0]))
    assert np.allclose(res.point, [2.0, 0.0])
    assert res.face_dim == 1


def test_generator_cone_nearest_ray():
    C = GeneratorCone(np.array([[1.0, 1.0], [0.0, 1.0]]))
    res = project(C, np.array([0.0, 1.0]))
    assert np.allclose(res.point, [0.5, 0.5], atol=1e-10)
    assert res.face_dim == 1


def test_zero_input_is_apex():
    for C in sample_cones():
        res = project(C, np.zeros(C.n))
        assert np.allclose(res.point, 0.0)
        assert res.face_dim == 0


def test_wedge_projection_cases():
    # wedge between 45 and 90 degrees; (1, 0) lands on the lower edge
    W = planar_wedge(math.pi / 4, math.pi / 4)
    res = project(W, np.array([1.0, 0.0]))
    r = math.sqrt(2) / 2
    assert np.allclose(res.point, [r * math.cos(math.pi / 4),
                                   r * math.sin(math.pi / 4)], atol=1e-12)
    # interior point is fixed
    res = project(W, np.array([0.1, 0.9]))
    assert np.allclose(res.point, [0.1, 0.9], atol=1e-12)
    assert res.face_dim == 2
    # polar direction maps to the apex
    res = project(W, np.array([0.5, -1.0]))
    assert np.allclose(res.point, [0.0, 0.0], atol=1e-12)
    assert res.face_dim == 0


# ---------------------------------------------------------------------------
# polarity
# ---------------------------------------------------------------------------

def test_polar_orthant_is_nonpositive():
    P = polar(NonnegOrthant(3))
    res = project(P, np.array([-1.0, 2.0, -3.0]))
    assert np.allclose(res.point, [-1.0, 0.0, -3.0])


def test_polar_subspace_is_orthocomplement():
    P = polar(Subspace(np.eye(3)[:, :1]))
    for v in np.eye(3).T:
        res = project(P, v)
        expect = v.copy()
        expect[0] = 0.0
        assert np.allclose(res.point, expect, atol=1e-12)


def test_moreau_decomposition_random_cone():
    rng = np.random.default_rng(7)
    C = random_generator_cone(rng, 4, 6)
    P = polar(C)
    for _ in range(1000):
        x = rng.standard_normal(4)
        p = project(C, x).point
        q = project(P, x).point
        assert np.linalg.norm(p + q - x) <= 1e-8 * (1.0 + np.linalg.norm(x))
        assert abs(p @ q) <= 1e-8 * max(1.0, x @ x)


def test_double_polar_matches_original():
    rng = np.random.default_rng(8)
    for C in sample_cones():
        CC = polar(polar(C))
        for _ in range(25):
            x = rng.standard_normal(C.n)
            assert np.allclose(project(C, x).point, project(CC, x).point,
                               atol=1e-7)


# ---------------------------------------------------------------------------
# Moreau / idempotence / nonexpansiveness across variants
# ---------------------------------------------------------------------------

def test_moreau_all_variants():
    rng = np.random.default_rng(9)
    for C in sample_cones():
        P = polar(C)
        for _ in range(40):
            x = rng.standard_normal(C.n)
            p = project(C, x).point
            q = project(P, x).point
            assert np.linalg.norm(p + q - x) <= 1e-8 * (1 + np.linalg.norm(x))
            assert abs(p @ q) <= 1e-8 * max(1.0, x @ x)


def test_projection_idempotent():
    rng = np.random.default_rng(10)
    for C in sample_cones():
        for _ in range(20):
            x = rng.standard_normal(C.n)
            p = project(C, x).point
            pp = project(C, p).point
            assert np.linalg.norm(pp - p) <= 1e-8 * (1 + np.linalg.norm(p))


def test_projection_nonexpansive():
    rng = np.random.default_rng(11)
    for C in sample_cones():
        for _ in range(20):
            x = rng.standard_normal(C.n)
            y = rng.standard_normal(C.n)
            px = project(C, x).point
            py = project(C, y).point
            assert (np.linalg.norm(px - py)
                    <= np.linalg.norm(x - y) + 1e-10)


def test_orthant_face_dim_counts_positive_coordinates():
    rng = np.random.default_rng(12)
    C = NonnegOrthant(6)
    for _ in range(200):
        x = rng.standard_normal(6)
        res = project(C, x)
        assert res.face_dim == int(np.sum(x > 0))


# ---------------------------------------------------------------------------
# constructors on top of projections
# ---------------------------------------------------------------------------

def test_preimage_identity_is_polar():
    rng = np.random.default_rng(13)
    D = GeneratorCone(rng.standard_normal((3, 4)))
    P1 = preimage_cone(np.eye(3), D)
    P2 = polar(D)
    for _ in range(100):
        x = rng.standard_normal(3)
        assert np.allclose(project(P1, x).point, project(P2, x).point,
                           atol=1e-8)


def test_preimage_of_zero_cone_is_everything():
    rng = np.random.default_rng(14)
    P = preimage_cone(rng.standard_normal((3, 4)), zero_cone(3))
    x = rng.standard_normal(4)
    assert np.allclose(project(P, x).point, x, atol=1e-9)


def test_preimage_halfspace_geometry():
    # A = [[1, 0]], D = R_+ in R^1: the preimage of D polar is {x : x_1 <= 0}
    P = preimage_cone(np.array([[1.0, 0.0]]), NonnegOrthant(1))
    res = project(P, np.array([3.0, 4.0]))
    assert np.allclose(res.point, [0.0, 4.0], atol=1e-9)


def test_intersect_with_self():
    C = intersect(NonnegOrthant(2), NonnegOrthant(2))
    res = project(C, np.array([1.0, -1.0]))
    assert np.allclose(res.point, [1.0, 0.0], atol=1e-9)


def test_intersect_rotated_orthants_is_wedge():
    Q = np.array([[math.cos(math.pi / 4), -math.sin(math.pi / 4)],
                  [math.sin(math.pi / 4), math.cos(math.pi / 4)]])
    C = intersect(NonnegOrthant(2), rotate(NonnegOrthant(2), Q))
    res = project(C, np.array([1.0, 0.0]))
    assert np.allclose(res.point, [0.5, 0.5], atol=1e-8)


def test_intersect_cone_with_polar_is_zero():
    rng = np.random.default_rng(15)
    C = random_generator_cone(rng, 3, 4)
    Z = intersect(C, polar(C))
    for _ in range(20):
        x = rng.standard_normal(3)
        assert np.linalg.norm(project(Z, x).point) <= 1e-6


# ---------------------------------------------------------------------------
# exact H-representation rules against the iterative oracles
# ---------------------------------------------------------------------------

def hrep_pairs():
    """Seeded pairs of inequality-representable cones in R^3 to R^5."""
    rng = np.random.default_rng(20)
    rng_gen = np.random.default_rng(23)
    pairs = []
    for n in (3, 4, 5):
        Q = haar_orthogonal(n, SeededStream(20, n))
        P = polar(NonnegOrthant(n))
        K = InequalityCone(rng.standard_normal((n, n)))
        pairs += [
            (P, rotate(P, Q)),
            (NonnegOrthant(n), InequalityCone(rng.standard_normal((n, 3)))),
            (InequalityCone(rng.standard_normal((n, 2))),
             rotate(InequalityCone(rng.standard_normal((n, n - 1))), Q)),
            (K, K),
            # generated cones with square invertible V
            (NonnegOrthant(n), rotate(NonnegOrthant(n), Q)),
            (GeneratorCone(rng_gen.standard_normal((n, n))),
             InequalityCone(rng_gen.standard_normal((n, 2)))),
        ]
    return pairs


def assert_matches_dykstra(L, R, points):
    """intersect(L, R) is an InequalityCone agreeing with Dykstra's
    projection and face dimension wherever Dykstra converged; returns the
    number of converged points."""
    C = intersect(L, R)
    assert isinstance(C, InequalityCone)
    want, want_fd, want_ok = IntersectionCone(L, R).project_batch(points)
    converged = 0
    for x, p, fd, ok in zip(points, want, want_fd, want_ok):
        got = project(C, x)
        if not ok:
            continue
        converged += 1
        assert got.converged
        assert (np.linalg.norm(got.point - p)
                <= 1e-6 * (1.0 + np.linalg.norm(x)))
        assert got.face_dim == fd
    return converged


def test_hrep_intersection_matches_dykstra():
    rng = np.random.default_rng(21)
    converged = total = 0
    for L, R in hrep_pairs():
        points = rng.standard_normal((50, L.n))
        converged += assert_matches_dykstra(L, R, points)
        total += len(points)
    assert converged >= 0.95 * total


# ---------------------------------------------------------------------------
# lockstep Dykstra against the point-by-point oracle
# ---------------------------------------------------------------------------

def assert_matches_point_oracle(L, R, X, tol, rows=slice(None)):
    """IntersectionCone(L, R).project_batch(X) agrees on X[rows] with
    Dykstra one point at a time: sweeps, flags and face dims equal (the
    face dim of the oracle's last points), points within tol (1 + |x|).
    Returns the batch's flags."""
    C = IntersectionCone(L, R)
    P, fd, ok = batch = C.project_batch(X)
    for i in range(len(X))[rows]:
        p, n_sweeps, conv, ya = _dykstra_point(L, R, X[i])
        assert ok[i] == conv
        assert fd[i] == C._face_dim(X[i], ya, p)
        assert (np.linalg.norm(P[i] - p)
                <= tol * (1.0 + np.linalg.norm(X[i])))
        assert batch.iterations[i] == n_sweeps
    return ok


def test_lockstep_dykstra_matches_point_oracle():
    # the points of test_hrep_intersection_matches_dykstra, all converged
    # (up to 6,339 sweeps); every tenth row is checked against the oracle
    rng = np.random.default_rng(21)
    for L, R in hrep_pairs():
        X = rng.standard_normal((50, L.n))
        assert assert_matches_point_oracle(L, R, X, 1e-12,
                                           rows=slice(None, None, 10)).all()


def test_lockstep_dykstra_with_fista_side_matches_point_oracle():
    # batched accelerated projected gradient stops each row once it
    # converges, so its rows take their one-row steps and the same sweeps
    rng = np.random.default_rng(28)
    L = LinearImage(rng.standard_normal((3, 4)), NonnegOrthant(4))
    R = InequalityCone(rng.standard_normal((3, 2)))
    assert_matches_point_oracle(L, R, rng.standard_normal((5, 3)), 1e-9)


def test_fista_image_rows_are_independent():
    rng = np.random.default_rng(29)
    C = LinearImage(rng.standard_normal((3, 4)), NonnegOrthant(4))
    X = rng.standard_normal((20, 3)) * rng.uniform(0.1, 10.0, (20, 1))
    P, _, ok = batch = C.project_batch(X)
    assert ok.all() and len(set(batch.iterations)) > 1
    for i, x in enumerate(X):
        p, _, o = alone = C.project_batch(x[None])
        assert (np.linalg.norm(p[0] - P[i])
                <= 1e-12 * (1.0 + np.linalg.norm(x)))
        assert (o[0], alone.iterations[0]) == (ok[i], batch.iterations[i])


def test_lockstep_dykstra_rows_are_independent():
    rng = np.random.default_rng(28)
    C = IntersectionCone(NonnegOrthant(3),
                         GeneratorCone(rng.standard_normal((3, 5))))
    X = rng.standard_normal((30, 3)) * rng.uniform(0.1, 10.0, (30, 1))
    P, fd, ok = batch = C.project_batch(X)
    scale = 1.0 + np.linalg.norm(X, axis=1)
    assert ok.all()
    for i, x in enumerate(X):
        p, f, o = alone = C.project_batch(x[None])
        assert np.linalg.norm(p[0] - P[i]) <= 1e-12 * scale[i]
        assert (f[0], o[0], alone.iterations[0]) == \
            (fd[i], ok[i], batch.iterations[i])
    perm = rng.permutation(len(X))
    Pp, fdp, okp = permuted = C.project_batch(X[perm])
    assert np.all(np.linalg.norm(Pp - P[perm], axis=1) <= 1e-12 * scale[perm])
    assert np.array_equal(fdp, fd[perm]) and np.array_equal(okp, ok[perm])
    assert np.array_equal(permuted.iterations, batch.iterations[perm])
    Pn, fdn, okn = C.project_batch(X, faces=False)
    assert fdn is None
    assert np.array_equal(Pn, P) and np.array_equal(okn, ok)


def test_only_the_base_cone_projects_point_by_point():
    classes = [c for c in vars(cones).values()
               if isinstance(c, type) and issubclass(c, cones.Cone)]
    assert cones.IntersectionCone in classes
    assert [c for c in classes if "project_point" in vars(c)] == [cones.Cone]


# ---------------------------------------------------------------------------
# batched Lawson-Hanson kernel against the scalar one
# ---------------------------------------------------------------------------

def kernel_generators():
    """Generator matrices in R^3 to R^10 with fewer and more generators
    than dimensions, one with duplicate, zero and antipodal columns, and
    the outer normals of two reduced TV analysis cones at n = 30 (k = 2(d -
    1) normals in R^d, the shape the tv-statdim computation projects on)."""
    rng = np.random.default_rng(30)
    mats = [rng.standard_normal((n, k)) for n in range(3, 11)
            for k in (max(1, n - 2), n + 3, 2 * n)]
    V = rng.standard_normal((5, 4))
    mats.append(np.hstack([V, V[:, :2], np.zeros((5, 2)), -V[:, 1:3]]))
    D = finite_difference_matrix(30, "square_bidiagonal")
    for support, signs in (([12], [1.0]), ([3, 9, 17, 24], [1.0, -1.0, -1.0, 1.0])):
        C = reduced_analysis_cone(AnalysisInstance.from_support(D, support,
                                                                signs))
        mats.append(C.W if isinstance(C, InequalityCone) else C.inner.W)
    return mats


def test_batched_nnls_matches_scalar_kernel():
    rng = np.random.default_rng(31)
    reentered = 0      # rows that drop a passive index and enter it again
    for V in kernel_generators():
        G = V.T @ V
        # the polar projects by Moreau through the same NNLS on V
        for C in (GeneratorCone(V), polar(GeneratorCone(V))):
            X = rng.standard_normal((40, C.n))
            XV = X @ V
            _, iters, ok = _nnls_batch(G, XV)
            P, fd, conv = C.project_batch(X)
            for i, x in enumerate(X):
                entering = []
                _, it, converged = _nnls_gram(G, XV[i], entering)
                reentered += len(entering) > len(set(entering))
                want = C.project_point(x)
                assert (iters[i], ok[i]) == (it, converged)
                assert conv[i] == want.converged
                assert (np.linalg.norm(P[i] - want.point)
                        <= 1e-10 * (1.0 + np.linalg.norm(x)))
                assert fd[i] == want.face_dim
    assert reentered


def test_per_row_gram_nnls_matches_scalar_kernel(monkeypatch):
    # one Gram matrix per row, from rotated generators of mixed shapes and
    # one singular block (e1, e2, e1 + e2) that reaches lstsq
    calls = []
    lstsq = np.linalg.lstsq

    def counting_lstsq(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    rng = np.random.default_rng(32)
    singular = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    reentered = 0      # rows that drop a passive index and enter it again
    for V in kernel_generators()[::4] + [singular]:
        n = V.shape[0]
        Vs = np.stack([haar_orthogonal(n, SeededStream(32, i)) @ V
                       for i in range(30)])
        W0 = np.einsum("nik,ni->nk", Vs, rng.standard_normal((30, n)))
        if V is singular:
            Vs[0], W0[0] = V, [1.0, 0.5, 1.2]
            calls.clear()
        G = np.swapaxes(Vs, 1, 2) @ Vs
        coef, iters, ok = _nnls_batch(G, W0)
        assert calls or V is not singular
        for i in range(30):
            entering = []
            c, it, converged = _nnls_gram(G[i], W0[i], entering)
            reentered += len(entering) > len(set(entering))
            assert (iters[i], ok[i]) == (it, converged)
            assert np.abs(coef[i] - c).max() <= 1e-12 * (1.0 + np.abs(c).max())
    assert reentered


def test_per_row_gram_nnls_matches_scalar_kernel_at_iteration_cap():
    # T = diag(1, 1e-6) P squeezes the rotated generators of R^3_+ to within
    # about 1e-6 rad of a line; a few percent of the rows cycle to the
    # iteration cap, some of them still in the inner loop
    T = np.diag([1.0, 1e-6]) @ row_projection(2, 3)
    Vs = np.stack([T @ haar_orthogonal(3, SeededStream(35, i))
                   for i in range(200)])
    W0 = np.einsum("nik,ni->nk", Vs,
                   np.random.default_rng(35).standard_normal((200, 2)))
    G = np.swapaxes(Vs, 1, 2) @ Vs
    coef, iters, ok = _nnls_batch(G, W0)
    assert (iters > 3 * 3 + 30).any()
    for i in range(200):
        c, it, converged = _nnls_gram(G[i], W0[i])
        assert (iters[i], ok[i]) == (it, converged)
        assert np.abs(coef[i] - c).max() <= 1e-12 * (1.0 + np.abs(c).max())


def test_batched_nnls_singular_system_falls_back_to_lstsq(monkeypatch):
    # passive set {0, 1, 2} of the Gram matrix of e1, e2, e1 + e2 is
    # singular, so both kernels reach lstsq from the third step on
    calls = []
    lstsq = np.linalg.lstsq

    def counting_lstsq(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    V = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    G = V.T @ V
    W0 = np.array([[1.0, 0.5, 1.2], [0.3, 1.0, 0.2], [2.0, 2.0, 4.0]])
    coef, iters, ok = _nnls_batch(G, W0)
    assert calls
    for i, w0 in enumerate(W0):
        c, it, converged = _nnls_gram(G, w0)
        assert (iters[i], ok[i]) == (it, converged)
        assert np.abs(coef[i] - c).max() <= 1e-10 * (1.0 + np.abs(c).max())


def test_batched_kernels_are_chunk_invariant(monkeypatch):
    rng = np.random.default_rng(33)
    cones = [GeneratorCone(rng.standard_normal((6, 11))),
             InequalityCone(rng.standard_normal((7, 12)))]
    X = rng.standard_normal((50, 6))
    Y = rng.standard_normal((50, 7))
    # one Gram matrix per row, from rotated generators; some rows drop an
    # index, so they take more steps than they keep passive indices
    V = rng.standard_normal((5, 12))
    Vs = np.stack([haar_orthogonal(5, SeededStream(33, i)) @ V
                   for i in range(50)])
    G = np.swapaxes(Vs, 1, 2) @ Vs
    W0 = np.einsum("nik,ni->nk", Vs, rng.standard_normal((50, 5)))
    # the outer normals of the two reduced TV analysis cones, projected on
    # by the tv-statdim computation
    tv = [InequalityCone(W) for W in kernel_generators()[-2:]]
    T = [rng.standard_normal((50, C.n)) for C in tv]

    solves = []                   # stacked passive-set solves per call
    solve = np.linalg.solve

    def counting_solve(M, b):
        solves[-1] += M.ndim == 3
        return solve(M, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    calls = [partial(C.project_batch, Z)
             for C, Z in zip(cones + tv, [X, Y] + T)] + [
        partial(_nnls_batch, G, W0)]

    def run():
        solves.clear()
        out = []
        for call in calls:
            solves.append(0)
            out.append(call())
        return out, list(solves)

    one, whole = run()
    coef, iters, _ = one[-1]
    assert (iters > (coef > 0).sum(axis=1)).any()
    # a few rows per chunk, for the NNLS solves and the face-dimension svd
    monkeypatch.setattr(solvers, "CHUNK_BYTES", 8 * 7 * 12 * 3)
    many, split = run()
    # the same steps in more stacked solves: each call split some step's
    # rows across chunks
    assert all(a > b for a, b in zip(split, whole))
    for a, b in zip(one, many):
        for u, v in zip(a, b):
            assert np.array_equal(u, v)


def faces_flag_cones():
    """One cone per project_batch implementation, with planar and n > 2
    cases of the generated and inequality forms."""
    rng = np.random.default_rng(34)
    Q = np.linalg.qr(rng.standard_normal((6, 4)))[0]
    return [
        pytest.param(NonnegOrthant(4), id="orthant"),
        pytest.param(Subspace(Q[:5, :0]), id="zero-subspace"),
        pytest.param(Subspace(Q[:, :2]), id="subspace"),
        pytest.param(L1SubdiffCone(5, [1, 3], [1.0, -1.0]), id="l1"),
        pytest.param(L1SubdiffCone(3, [0, 1, 2], [1.0, -1.0, 1.0]),
                     id="l1-full-support"),
        pytest.param(planar_wedge(1.1, 0.3), id="planar-generated"),
        pytest.param(InequalityCone(rng.standard_normal((2, 3))),
                     id="planar-inequality"),
        pytest.param(GeneratorCone(rng.standard_normal((5, 8))),
                     id="generated"),
        pytest.param(InequalityCone(rng.standard_normal((5, 7))),
                     id="inequality"),
        pytest.param(PolarCone(GeneratorCone(rng.standard_normal((4, 6)))),
                     id="polar"),
        pytest.param(ProductCone([NonnegOrthant(2),
                                  GeneratorCone(rng.standard_normal((3, 4))),
                                  LinearImage(rng.standard_normal((2, 3)),
                                              NonnegOrthant(3))]),
                     id="product"),
        pytest.param(LinearImage(Q, InequalityCone(
            rng.standard_normal((4, 6)))), id="isometric-image"),
        pytest.param(LinearImage(rng.standard_normal((3, 5)), InequalityCone(
            rng.standard_normal((5, 7)))), id="fista-image"),
        pytest.param(IntersectionCone(NonnegOrthant(3), GeneratorCone(
            rng.standard_normal((3, 4)))), id="intersection-loop"),
    ]


@pytest.mark.parametrize("C", faces_flag_cones())
def test_project_batch_without_faces_matches_default(C):
    X = np.random.default_rng(35).standard_normal((40, C.n))
    X[0] = 0.0
    P, fd, conv = C.project_batch(X)
    Pn, fdn, convn = C.project_batch(X, faces=False)
    assert fd.shape == (40,) and fdn is None
    assert np.array_equal(P, Pn) and np.array_equal(conv, convn)


def _oracle_iterations(C, x):
    """Iterations of the scalar kernel on the NNLS system that projects x
    onto C, or None when C does not project by NNLS."""
    if isinstance(C, PolarCone):
        return _oracle_iterations(C.inner, x)
    if isinstance(C, LinearImage) and C._isometric:
        return _oracle_iterations(C.inner, x @ C.A)
    if isinstance(C, (GeneratorCone, InequalityCone)) and C._planar is None:
        M = C.V if isinstance(C, GeneratorCone) else C.W
        return _nnls_gram(M.T @ M, x @ M)[1]
    return None


@pytest.mark.parametrize("C", faces_flag_cones())
def test_project_point_is_row_zero_of_project_batch(C):
    rng = np.random.default_rng(36)
    for x in rng.standard_normal((6, C.n)) * [[1e-3], [0.1], [1], [1], [10],
                                              [1e3]]:
        r = project(C, x)
        P, fd, conv = batch = C.project_batch(x[None])
        assert np.array_equal(r.point, P[0])
        assert r.face_dim == (None if fd[0] < 0 else fd[0])
        assert r.converged == conv[0]
        assert r.iterations == batch.iterations[0]
        want = _oracle_iterations(C, x)
        assert want is None or r.iterations == want


# ---------------------------------------------------------------------------
# H-representations of l1 subdifferential cones and polars
# ---------------------------------------------------------------------------

L1_CONES = [
    L1SubdiffCone(4, [0], [1.0]),
    L1SubdiffCone(6, [1, 4], [1.0, -1.0]),
    L1SubdiffCone(5, [0, 1, 2, 3, 4], [1.0, -1.0, 1.0, 1.0, -1.0]),
    L1SubdiffCone(7, [2, 3, 6], [1.0, 1.0, -1.0],
                  np.array([0.5, 1.0, 2.0, 0.7, 1.3, 1.0, 3.0])),
]


@pytest.mark.parametrize("K", L1_CONES)
def test_l1_subdiff_inequality_matrix_matches_closed_form(K):
    W = _inequality_matrix(K)
    s = K.support.size
    assert W.shape == (K.n, 2 * (K.n - s) + 2 * (s - 1) + (s == K.n))
    X = np.random.default_rng(34).standard_normal((300, K.n))
    for C, H in ((K, InequalityCone(W)), (polar(K), GeneratorCone(W))):
        P, fd, _ = C.project_batch(X)
        Ph, fdh, ok = H.project_batch(X)
        assert ok.all()
        assert np.abs(P - Ph).max() <= 1e-10
        assert np.array_equal(fd, fdh)


def test_polar_cone_swaps_representations():
    K = L1_CONES[1]
    P = polar(K)
    assert isinstance(P, PolarCone)
    assert np.array_equal(generators_of(P), _inequality_matrix(K))
    assert _inequality_matrix(P) is None       # K has no generators
    V = np.random.default_rng(35).standard_normal((3, 3))
    assert np.array_equal(_inequality_matrix(PolarCone(GeneratorCone(V))), V)


NORMAL_RULE_CONES = [
    zero_cone(3),
    full_space(3),
    Subspace(np.linalg.qr(np.random.default_rng(36).standard_normal(
        (4, 2)))[0]),
    ProductCone([NonnegOrthant(2), full_space(1)]),
    ProductCone([polar(NonnegOrthant(2)), Subspace(np.eye(2)[:, :1]),
                 L1SubdiffCone(3, [0], [1.0])]),
    ProductCone([zero_cone(1), InequalityCone(
        np.random.default_rng(37).standard_normal((3, 4)))]),
    # isometric images: a rotation and a tall map with orthonormal columns
    LinearImage(haar_orthogonal(3, SeededStream(38)),
                L1SubdiffCone(3, [0], [1.0])),
    LinearImage(np.linalg.qr(np.random.default_rng(39).standard_normal(
        (5, 3)))[0], InequalityCone(
            np.random.default_rng(40).standard_normal((3, 4)))),
]


@pytest.mark.parametrize("C", NORMAL_RULE_CONES,
                         ids=lambda C: type(C).__name__)
def test_subspace_and_product_normals_match_own_projection(C):
    W = _inequality_matrix(C)
    if isinstance(C, Subspace):
        assert W.shape == (C.n, 2 * (C.n - C.dim))
    X = np.random.default_rng(38).standard_normal((200, C.n))
    P, fd, _ = C.project_batch(X)
    Ph, fdh, ok = InequalityCone(W).project_batch(X)
    assert ok.all()
    assert np.abs(P - Ph).max() <= 1e-10
    assert np.array_equal(fd, fdh)


def test_product_with_a_part_without_normals_has_none():
    # a non-isometric image has no normals
    C = ProductCone([NonnegOrthant(2), LinearImage(
        np.random.default_rng(39).standard_normal((3, 5)), NonnegOrthant(5))])
    assert _inequality_matrix(C) is None


def test_intersect_product_cones_matches_dykstra():
    rng = np.random.default_rng(40)
    Q = haar_orthogonal(4, SeededStream(41))
    L = ProductCone([NonnegOrthant(2), full_space(2)])
    R = rotate(ProductCone([polar(NonnegOrthant(3)), full_space(1)]), Q)
    points = rng.standard_normal((40, 4))
    assert assert_matches_dykstra(L, R, points) >= 38


def test_opposite_halfplanes_meet_in_a_line():
    rng = np.random.default_rng(22)
    for a in rng.uniform(0.0, 2 * math.pi, 8):
        u = np.array([[math.cos(a)], [math.sin(a)]])
        H, G = InequalityCone(u), InequalityCone(-u)
        L = intersect(H, G)
        points = rng.standard_normal((10, 2))
        want, want_fd, want_ok = IntersectionCone(H, G).project_batch(points)
        assert want_ok.all()
        for x, p, fd in zip(points, want, want_fd):
            got = project(L, x)
            assert np.allclose(got.point, p, atol=1e-6)
            assert got.face_dim == fd


def _unit_columns(angles):
    return np.vstack([np.cos(angles), np.sin(angles)])


def planar_cone_families(rng):
    """One random cone in the plane from each family that intersect
    resolves exactly."""
    a = rng.uniform(0.0, 2 * math.pi)
    w = rng.uniform(0.1, math.pi - 0.1)
    Q = haar_orthogonal(2, SeededStream(int(rng.integers(1 << 30)), 0))
    return [
        NonnegOrthant(2),
        rotate(NonnegOrthant(2), Q),
        InequalityCone(rng.standard_normal((2, int(rng.integers(1, 4))))),
        GeneratorCone(rng.standard_normal((2, int(rng.integers(1, 5))))),
        # a ray and pointed wedges spanned by 3 and 4 generators
        GeneratorCone(_unit_columns(np.array([a + w]))),
        GeneratorCone(_unit_columns(a + w * np.array([0.0, 0.3, 1.0]))),
        GeneratorCone(_unit_columns(a + w * np.array([0.0, 0.5, 0.7, 1.0]))),
        # a halfplane from 3 generators, a thin and a near-pi arc
        GeneratorCone(_unit_columns(a + np.array([0.0, w, math.pi]))),
        planar_wedge(1e-2, a),
        planar_wedge(math.pi - 1e-2, a),
        Subspace(_unit_columns(rng.uniform(0.0, math.pi, 1))),
        zero_cone(2),
        full_space(2),
        polar(GeneratorCone(rng.standard_normal((2, 3)))),
        polar(InequalityCone(rng.standard_normal((2, 2)))),
    ]


def test_planar_intersections_are_exact():
    rng = np.random.default_rng(25)
    converged = total = 0
    for _ in range(3):
        family = planar_cone_families(rng)
        for i, L in enumerate(family):
            for R in family[i:]:
                C = intersect(L, R)
                assert not isinstance(C, IntersectionCone)
                points = rng.standard_normal((2, 2))
                want, want_fd, want_ok = IntersectionCone(L, R).project_batch(
                    points)
                for x, p, fd, ok in zip(points, want, want_fd, want_ok):
                    total += 1
                    got = project(C, x)
                    if not ok:
                        continue
                    converged += 1
                    assert got.converged
                    assert (np.linalg.norm(got.point - p)
                            <= 1e-6 * (1.0 + np.linalg.norm(x)))
                    assert got.face_dim == fd
    assert converged >= 0.95 * total


@pytest.mark.parametrize("angles", [[0.4, 1.1, 0.4 + math.pi],
                                    [-0.3, 0.2, 0.6, 1.2], [0.4],
                                    [0.4, 0.4 + math.pi], [],
                                    [0.0, 2.0, 4.0]])
def test_planar_generated_cone_has_inequality_matrix(angles):
    # generators of unequal lengths: a halfplane from 3, a wedge from 4, a
    # ray, a line, the zero cone and the full plane
    G = GeneratorCone(_unit_columns(np.array(angles))
                      * np.arange(1.0, len(angles) + 1.0))
    H = InequalityCone(_inequality_matrix(G))
    rng = np.random.default_rng(26)
    for x in rng.standard_normal((40, 2)):
        got, want = project(H, x), project(G, x)
        assert np.allclose(got.point, want.point, atol=1e-12, rtol=0.0)
        assert got.face_dim == want.face_dim


def facet_rule_generators():
    """Generator matrices with k < n, k = n and k > n in R^2 to R^6, and
    degenerate ones: rank-deficient, containing a line, with duplicated,
    parallel or zero columns, only zero columns, and the full space."""
    rng = np.random.default_rng(50)
    mats = [rng.standard_normal((n, k)) for n in range(2, 7)
            for k in (n - 1, n, n + 2)]
    V = rng.standard_normal((3, 4))
    u = rng.standard_normal(4)
    mats += [
        rng.standard_normal((5, 2)) @ np.abs(rng.standard_normal((2, 6))),
        rng.standard_normal((5, 3)) @ np.abs(rng.standard_normal((3, 6))),
        np.column_stack([u, -u, rng.standard_normal((4, 3))]),
        np.column_stack([V, V[:, 0], 3.0 * V[:, 1]]),
        np.column_stack([rng.standard_normal((4, 5)), np.zeros(4)]),
        np.zeros((3, 2)),
        np.column_stack([np.eye(4), -np.ones(4)]),
    ]
    return mats


@pytest.mark.parametrize("V", facet_rule_generators(),
                         ids=lambda V: "x".join(map(str, V.shape)))
def test_facet_rule_matches_nnls_projection(V):
    # wherever NNLS converges on cone(V), the inequality cone of its facets
    # projects to the same point with the same face dimension
    G = GeneratorCone(V)
    W = _inequality_matrix(G)
    assert W is _inequality_matrix(G)               # computed once
    X = np.random.default_rng(51).standard_normal((300, G.n))
    P, fd, ok = G.project_batch(X)
    Ph, fdh, okh = InequalityCone(W).project_batch(X)
    both = ok & okh
    assert both.mean() >= 0.95
    scale = 1.0 + np.linalg.norm(X, axis=1)
    assert np.all(np.linalg.norm(P - Ph, axis=1)[both] <= 1e-9 * scale[both])
    assert np.array_equal(fd[both], fdh[both])


def test_facet_rule_returns_none_above_the_cap(monkeypatch):
    # a 3 x 5 V has C(5, 2) = 10 subsets of r - 1 = 2 generators
    V = np.random.default_rng(52).standard_normal((3, 5))
    assert isinstance(intersect(NonnegOrthant(3), GeneratorCone(V)),
                      InequalityCone)
    monkeypatch.setattr(cones, "EXACT_MAX_PAIRS", 9)
    assert _inequality_matrix(GeneratorCone(V)) is None
    assert isinstance(intersect(NonnegOrthant(3), GeneratorCone(V)),
                      IntersectionCone)


def numpy_planar_from_generators(V):
    """The array form of ``cones._planar_from_generators``, the oracle of
    its float scan."""
    two_pi = 2.0 * math.pi
    norms = np.linalg.norm(V, axis=0)
    keep = norms > 1e-14 * max(1.0, norms.max(initial=0.0))
    if not keep.any():
        return ("zero",)
    ang = np.sort(np.mod(np.arctan2(V[1, keep], V[0, keep]), two_pi))
    gaps = np.diff(np.concatenate([ang, [ang[0] + two_pi]]))
    j = int(np.argmax(gaps))
    gmax = float(gaps[j])
    if gmax < math.pi - 1e-9:
        return ("full",)
    lo = float(ang[(j + 1) % len(ang)])
    w = two_pi - gmax
    if w <= 1e-12:
        return ("ray", lo % two_pi)
    if abs(gmax - math.pi) <= 1e-9:
        rel = np.mod(ang - lo, two_pi)
        if np.all((rel < 1e-9) | (np.abs(rel - math.pi) < 1e-9)):
            return ("line", lo % two_pi)
        return ("arc", lo % two_pi, math.pi)
    return ("arc", lo % two_pi, w)


def planar_boundary_cases(rng):
    """Generator matrices within a factor of 3 of each tolerance of the
    planar scan: zero columns, rays, lines and the full plane."""
    a = rng.uniform(0.0, 2 * math.pi)
    for d in (3e-13, 3e-12, 3e-10, 3e-9):
        yield _unit_columns(a + np.array([0.0, d]))
        yield _unit_columns(a + np.array([0.0, math.pi + d]))
        yield _unit_columns(a + np.array([0.0, math.pi - d, 1.5 * math.pi]))
    for r in (3e-15, 3e-14):
        yield _unit_columns(a + np.array([0.0, 2.0])) * [1.0, r]


def planar_test_matrices(rng):
    """400 random 2 x k generator matrices, k < 6, with zero, integer and
    antipodal columns, then 20 rounds of :func:`planar_boundary_cases`."""
    for _ in range(400):
        k = int(rng.integers(0, 6))
        V = (rng.integers(-2, 3, (2, k)).astype(float) if rng.random() < 0.4
             else rng.standard_normal((2, k)))
        if k and rng.random() < 0.3:
            V[:, rng.integers(k)] = 0.0
        if k > 1 and rng.random() < 0.3:
            V[:, 1] = -rng.uniform(0.5, 2.0) * V[:, 0]
        yield V
    for _ in range(20):
        yield from planar_boundary_cases(rng)


def test_planar_forms_match_array_oracle():
    kinds = set()
    for V in planar_test_matrices(np.random.default_rng(27)):
        want = numpy_planar_from_generators(V)
        assert cones._planar_from_generators(V) == want
        kinds.add(want[0])
    assert kinds == {"zero", "full", "line", "ray", "arc"}


def _stacks_by_width(mats):
    """The matrices grouped by column count, each group as one stack."""
    groups = {}
    for V in mats:
        groups.setdefault(V.shape[1], []).append(V)
    return [np.stack(group) for group in groups.values()]


def _form_of_row(forms, i):
    """Row i of per-row forms (kind, a, w) as a planar form tuple."""
    kind, a, w = (int(forms[0][i]), float(forms[1][i]), float(forms[2][i]))
    name = cones._KINDS[kind]
    return (name,) + ((a,) if name in ("line", "ray") else
                      (a, w) if name == "arc" else ())


def test_row_wise_planar_forms_match_float_scan():
    stacks = _stacks_by_width(planar_test_matrices(np.random.default_rng(27)))
    for S in stacks:
        forms = cones._planar_rows(S)
        polars = cones._planar_polar_rows(*forms)
        for i, V in enumerate(S):
            want = cones._planar_from_generators(V)
            assert _form_of_row(forms, i) == want
            assert _form_of_row(polars, i) == cones._planar_polar(want)


def test_stacked_planar_projections_match_per_row_cones():
    # generator stacks and normal stacks of every planar kind, against the
    # closed forms of per-row GeneratorCone and InequalityCone
    rng = np.random.default_rng(28)
    mats = list(planar_test_matrices(rng))
    mats += [_unit_columns(rng.uniform(0, 2 * math.pi, k))
             * rng.uniform(0.5, 2.0, k)
             for k in (1, 2, 3, 6) for _ in range(50)]
    for S in _stacks_by_width(mats):
        X = rng.standard_normal((len(S), 2)) * \
            rng.choice([1e-3, 1.0, 1e3], size=(len(S), 1))
        for stacked, make in ((cones._project_generated, GeneratorCone),
                              (cones._project_normals, InequalityCone)):
            P, fd, ok = batch = stacked(S, X)
            assert ok.all() and not batch.iterations.any()
            assert np.array_equal(stacked(S, X, faces=False)[0], P)
            for i, V in enumerate(S):
                want = project(make(V), X[i])
                assert (np.abs(P[i] - want.point).max()
                        <= 1e-15 * (1.0 + np.linalg.norm(X[i])))
                assert fd[i] == want.face_dim


def test_rotated_inequality_cone_matches_linear_image():
    rng = np.random.default_rng(23)
    for n in (2, 3, 4, 5):
        W = rng.standard_normal((n, n + 1))
        Q = haar_orthogonal(n, SeededStream(23, n))
        R = rotate(InequalityCone(W), Q)
        assert isinstance(R, InequalityCone) and np.array_equal(R.W, Q @ W)
        oracle = LinearImage(Q, InequalityCone(W))
        for x in rng.standard_normal((20, n)):
            assert np.allclose(project(R, x).point, project(oracle, x).point,
                               atol=1e-10, rtol=0.0)


def test_planar_wedge_forms_are_built_on_first_use(monkeypatch):
    # a rotated planar cone that is only intersected builds no wedge form;
    # a planar cone builds its form when first projected, and only once
    calls = []

    def counting(V):
        calls.append(V.shape)
        return planar_from_generators(V)

    planar_from_generators = cones._planar_from_generators
    monkeypatch.setattr(cones, "_planar_from_generators", counting)
    quadrant = polar(NonnegOrthant(2))
    Q = haar_orthogonal(2, SeededStream(48))
    K = intersect(quadrant, rotate(quadrant, Q))
    G = GeneratorCone(Q)
    assert isinstance(K, InequalityCone) and not calls
    X = np.random.default_rng(48).standard_normal((5, 2))
    for x in X:
        assert project(K, x).face_dim is not None
    assert calls == [(2, 4)]
    G.project_batch(X)
    G.project_batch(X)
    assert calls == [(2, 4), (2, 2)]


@pytest.mark.parametrize("Q", [
    1.5 * haar_orthogonal(3, SeededStream(30, 0)),
    haar_orthogonal(3, SeededStream(30, 0)) + 1e-8,
    np.eye(3)[:, :2],
    np.eye(2),
    np.full((3, 3), np.nan),
], ids=["scaled", "perturbed", "tall", "wrong-size", "nan"])
def test_rotate_rejects_non_orthogonal_q(Q):
    for C in (InequalityCone(np.eye(3)), NonnegOrthant(3)):
        with pytest.raises(ValueError):
            rotate(C, Q)


def test_invertible_image_matches_fista():
    rng = np.random.default_rng(24)
    A = rng.standard_normal((4, 4))
    W = rng.standard_normal((4, 3))
    C = linear_image(A, InequalityCone(W))
    assert isinstance(C, InequalityCone)
    oracle = LinearImage(A, InequalityCone(W))
    for x in rng.standard_normal((30, 4)):
        want = oracle.project_point(x)
        assert want.converged
        assert (np.linalg.norm(project(C, x).point - want.point)
                <= 1e-6 * (1.0 + np.linalg.norm(x)))


def test_singular_image_stays_linear_image():
    A = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]])
    C = linear_image(A, InequalityCone(np.eye(3)))
    assert type(C) is LinearImage
    for inner in (InequalityCone(np.eye(3)), L1SubdiffCone(3, [1], [1.0])):
        C = linear_image(np.ones((2, 3)), inner)
        assert type(C) is LinearImage and not C._isometric


def test_full_column_rank_image_is_isometric_over_inequality_cone():
    rng = np.random.default_rng(25)
    A = rng.standard_normal((6, 4))
    W = rng.standard_normal((4, 7))
    C = linear_image(A, InequalityCone(W))
    assert isinstance(C, LinearImage) and C._isometric
    assert isinstance(C.inner, InequalityCone)
    oracle = LinearImage(A, InequalityCone(W))
    for x in rng.standard_normal((20, 6)):
        want = oracle.project_point(x)
        assert want.converged
        assert (np.linalg.norm(project(C, x).point - want.point)
                <= 1e-6 * (1.0 + np.linalg.norm(x)))


def test_rotated_l1_cones_keep_closed_form():
    Q = haar_orthogonal(6, SeededStream(26, 0))
    for K in (L1_CONES[1], polar(L1_CONES[1])):
        R = rotate(K, Q)
        assert type(R) is LinearImage and R._isometric and R.inner is K


def test_linear_image_isometric_fast_path():
    rng = np.random.default_rng(16)
    Q = haar_orthogonal(4, SeededStream(0, 0))
    C = LinearImage(Q, NonnegOrthant(4))
    for _ in range(20):
        x = rng.standard_normal(4)
        expect = Q @ np.maximum(Q.T @ x, 0.0)
        assert np.allclose(project(C, x).point, expect, atol=1e-9)


def test_rotate_commutes_with_projection():
    rng = np.random.default_rng(17)
    C = random_generator_cone(rng, 3, 5)
    Q = haar_orthogonal(3, SeededStream(1, 0))
    R = rotate(C, Q)
    for _ in range(20):
        x = rng.standard_normal(3)
        assert np.allclose(project(R, Q @ x).point,
                           Q @ project(C, x).point, atol=1e-8)


def test_product_cone_blocks():
    C = ProductCone([NonnegOrthant(2), Subspace(np.eye(2)[:, :1])])
    res = project(C, np.array([1.0, -2.0, 3.0, 4.0]))
    assert np.allclose(res.point, [1.0, 0.0, 3.0, 0.0])
    assert res.face_dim == 2


def test_l1_subdiff_cone_example():
    # ambient 2, support {0}, positive sign: minimize (0-t)^2 + (2-t)_+^2
    C = L1SubdiffCone(2, [0], [1.0])
    res = project(C, np.array([0.0, 2.0]))
    assert np.allclose(res.point, [1.0, 1.0], atol=1e-10)


def test_full_space_and_zero_cone():
    x = np.array([1.0, -2.0])
    assert np.allclose(project(full_space(2), x).point, x)
    assert np.allclose(project(zero_cone(2), x).point, 0.0)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_serialization_roundtrip():
    rng = np.random.default_rng(18)
    for C in sample_cones():
        d = C.to_dict()
        C2 = cone_from_dict(d)
        for _ in range(10):
            x = rng.standard_normal(C.n)
            assert np.allclose(project(C, x).point, project(C2, x).point,
                               atol=1e-9)


def test_cone_from_dict_rejects_unknown_variant():
    with pytest.raises((KeyError, ValueError)):
        cone_from_dict({"variant": "no_such_cone", "n": 3})


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        project(NonnegOrthant(3), np.array([1.0, 2.0]))
