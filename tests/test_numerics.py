"""Randomness plumbing, Haar sampling, and the svd wrapper."""

import numpy as np
import pytest

from conekit.numerics import (SeededStream, block_ranges, gaussian_vector,
                              haar_orthogonal, row_projection, svd)


def test_stream_reproducible_across_instances():
    a = SeededStream(123, 0).gen(7).standard_normal(50)
    b = SeededStream(123, 0).gen(7).standard_normal(50)
    assert np.array_equal(a, b)


def test_stream_children_distinct():
    s = SeededStream(5, 0)
    a = s.child(0).gen(0).standard_normal(20)
    b = s.child(1).gen(0).standard_normal(20)
    assert not np.allclose(a, b)


def test_block_ranges_cover_exactly():
    for total in (1, 17, 1024, 2049):
        ranges = list(block_ranges(total, block=1024))
        assert ranges[0][1] == 0
        assert ranges[-1][1] + ranges[-1][2] == total
        assert [b for b, _, _ in ranges] == list(range(len(ranges)))
        for (_, s0, c0), (_, s1, _) in zip(ranges, ranges[1:]):
            assert s0 + c0 == s1


def test_svd_diagonal_and_bidiagonal():
    _, sigma, _ = svd(np.diag([3.0, 1.0]))
    assert np.allclose(sigma, [3.0, 1.0])
    # eigenvalues of [[1,-1],[-1,2]] are (3 +- sqrt(5))/2
    D = np.array([[-1.0, 1.0], [0.0, -1.0]])
    _, sigma, _ = svd(D)
    assert np.allclose(sigma, [1.6180339887, 0.6180339887], atol=1e-9)


def test_svd_rank_one_has_zero_min():
    M = np.outer([1.0, 2.0], [3.0, 4.0])
    _, sigma, _ = svd(M)
    assert sigma[-1] <= 1e-12


def test_svd_reconstruction_100_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        m, n = rng.integers(1, 101, size=2)
        M = rng.standard_normal((m, n))
        U, sigma, Vt = svd(M)
        res = np.linalg.norm(U @ np.diag(sigma) @ Vt - M)
        assert res <= 1e-10 * max(1.0, np.linalg.norm(M))
        assert np.all(np.diff(sigma) <= 1e-14)


def test_svd_rejects_nonfinite():
    with pytest.raises(ValueError):
        svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_haar_orthogonality_and_det():
    s = SeededStream(11, 0)
    for i in range(20):
        Q = haar_orthogonal(6, s, i)
        assert np.max(np.abs(Q.T @ Q - np.eye(6))) <= 1e-12
        assert abs(abs(np.linalg.det(Q)) - 1.0) <= 1e-10


def test_haar_n1_sign_frequency():
    s = SeededStream(3, 0)
    draws = np.array([haar_orthogonal(1, s, i)[0, 0] for i in range(10000)])
    assert set(np.unique(draws)) <= {-1.0, 1.0}
    assert abs(np.mean(draws > 0) - 0.5) <= 0.02


def test_haar_first_entry_second_moment():
    # E[Q_11^2] = 1/n for a Haar row
    s = SeededStream(21, 0)
    vals = np.array([haar_orthogonal(10, s, i)[0, 0] ** 2
                     for i in range(20000)])
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean() - 0.1) <= 3 * se


def test_gaussian_vector_moments():
    s = SeededStream(8, 0)
    X = np.array([gaussian_vector(5, s, i) for i in range(20000)])
    assert np.max(np.abs(X.mean(axis=0))) <= 0.03
    assert np.max(np.abs(X.var(axis=0) - 1.0)) <= 0.04
    sq = np.array([gaussian_vector(7, s, 10 ** 6 + i) @
                   gaussian_vector(7, s, 10 ** 6 + i) for i in range(5000)])
    se = sq.std(ddof=1) / np.sqrt(len(sq))
    assert abs(sq.mean() - 7.0) <= 3 * se


def test_row_projection():
    assert np.array_equal(row_projection(2, 2), np.eye(2))
    P = row_projection(1, 3)
    assert np.array_equal(P @ np.array([4.0, 5.0, 6.0]), [4.0])
    P = row_projection(3, 5)
    assert np.allclose(P @ P.T, np.eye(3))
    with pytest.raises(ValueError):
        row_projection(6, 5)
