"""NNLS, the interior-point LP kernel, basis pursuit, and phase scans."""

import itertools
import math

import numpy as np
import pytest

from conekit import solvers
from conekit.numerics import SeededStream
from conekit.regularizers import finite_difference_matrix
from conekit.solvers import (LPStandardForm, bp_extract, crossing_from_rows,
                             golden_section_min, lp_solve_standard, nnls,
                             phase_transition_experiment, recover,
                             solve_bp_analysis, wilson_interval)
from conekit.solvers import _nnls_batch


# ---------------------------------------------------------------------------
# nonnegative least squares
# ---------------------------------------------------------------------------

def nnls_enumeration_oracle(A, y):
    """Best feasible restricted least-squares point over all supports."""
    n = A.shape[1]
    best, best_res = np.zeros(n), np.linalg.norm(y)
    for r in range(1, n + 1):
        for S in itertools.combinations(range(n), r):
            coef, *_ = np.linalg.lstsq(A[:, S], y, rcond=None)
            if np.all(coef >= -1e-12):
                x = np.zeros(n)
                x[list(S)] = coef
                res = np.linalg.norm(A @ x - y)
                if res < best_res - 1e-12:
                    best, best_res = x, res
    return best, best_res


def test_nnls_identity_clamp():
    res = nnls(np.eye(2), np.array([1.0, -2.0]))
    assert np.allclose(res.coef, [1.0, 0.0])
    assert abs(res.residual - 2.0) <= 1e-12


def test_nnls_interior_point_zero_residual():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((6, 4))
    coef = rng.uniform(0.5, 2.0, size=4)
    res = nnls(A, A @ coef)
    assert res.residual <= 1e-10
    assert np.allclose(res.coef, coef, atol=1e-8)


def test_batched_nnls_on_nearly_collinear_generators():
    # five generators within eps of one direction and two random ones in
    # R^3: every row the kernel flags converged is the projection found by
    # a search over supports of at most 3 generators (Caratheodory); rows
    # flagged unconverged are counted and allowed (none above eps = 1e-8,
    # 56 at 1e-8)
    rng = np.random.default_rng(5)
    unconverged = []
    for eps in 10.0 ** -np.arange(3, 9):
        d = rng.standard_normal(3)
        V = np.hstack([(d / np.linalg.norm(d))[:, None]
                       + eps * rng.standard_normal((3, 5)),
                       rng.standard_normal((3, 2))])
        X = rng.standard_normal((1000, 3))
        coef, _, ok = _nnls_batch(V.T @ V, X @ V)
        best, dist = np.zeros_like(X), np.linalg.norm(X, axis=1)
        for S in itertools.chain.from_iterable(
                itertools.combinations(range(7), r) for r in (1, 2, 3)):
            C = np.linalg.lstsq(V[:, S], X.T, rcond=None)[0]
            P = (V[:, S] @ C).T
            d_S = np.linalg.norm(X - P, axis=1)
            better = (C >= -1e-12 * np.maximum(1.0, np.abs(C).max(axis=0))
                      ).all(axis=0) & (d_S < dist)
            best[better], dist[better] = P[better], d_S[better]
        err = np.linalg.norm(coef @ V.T - best, axis=1)
        assert np.all(err[ok] <= 1e-5 * (1.0 + np.linalg.norm(X[ok], axis=1)))
        unconverged.append(int(np.count_nonzero(~ok)))
    assert sum(unconverged) < 100


def test_nnls_matches_enumeration_oracle():
    rng = np.random.default_rng(2)
    for _ in range(30):
        A = rng.standard_normal((5, 3))
        y = rng.standard_normal(5)
        res = nnls(A, y)
        _, oracle_res = nnls_enumeration_oracle(A, y)
        assert res.residual <= oracle_res + 1e-8
        assert res.residual >= oracle_res - 1e-8
        assert np.all(res.coef >= -1e-12)


# ---------------------------------------------------------------------------
# LP kernel
# ---------------------------------------------------------------------------

def lp_vertex_oracle(c, A, b):
    """Optimal value by enumerating basic feasible solutions."""
    m, k = A.shape
    best = math.inf
    for B in itertools.combinations(range(k), m):
        AB = A[:, B]
        if abs(np.linalg.det(AB)) < 1e-10:
            continue
        xB = np.linalg.solve(AB, b)
        if np.all(xB >= -1e-9):
            best = min(best, float(c[list(B)] @ xB))
    return best


def test_lp_matches_vertex_enumeration():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m, k = 3, 7
        A = rng.standard_normal((m, k))
        b = A @ rng.uniform(0.5, 1.5, size=k)
        # dual-feasible construction keeps the problem bounded
        c = A.T @ rng.standard_normal(m) + rng.uniform(0.0, 1.0, size=k)
        res = lp_solve_standard(LPStandardForm(c, A, b))
        oracle = lp_vertex_oracle(c, A, b)
        assert res.status == "optimal"
        assert abs(res.primal_obj - oracle) <= 1e-6 * (1.0 + abs(oracle))


def test_lp_reports_residuals():
    A = np.array([[1.0, 1.0]])
    res = lp_solve_standard(LPStandardForm(np.array([1.0, 2.0]), A,
                                           np.array([1.0])))
    assert res.status == "optimal"
    assert abs(res.primal_obj - 1.0) <= 1e-8
    assert res.primal_residual <= 1e-8
    assert res.rel_gap <= 1e-8


# ---------------------------------------------------------------------------
# golden section
# ---------------------------------------------------------------------------

def test_golden_section_quadratic():
    t, f = golden_section_min(lambda t: (t - 2.0) ** 2, 0.0, 5.0)
    assert abs(t - 2.0) <= 1e-8


def test_golden_section_kink():
    t, f = golden_section_min(lambda t: abs(t - 1.0), 0.0, 3.0, tol=1e-8)
    assert abs(t - 1.0) <= 1e-6


# ---------------------------------------------------------------------------
# basis pursuit
# ---------------------------------------------------------------------------

def test_bp_zero_rhs_gives_zero():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((5, 8))
    res = solve_bp_analysis(np.eye(8), A, np.zeros(5))
    assert res.status == "optimal"
    assert np.max(np.abs(bp_extract(res, np.eye(8)))) <= 1e-8


def test_bp_square_invertible_recovers_unique_point():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((6, 6))
    x = rng.standard_normal(6)
    res = solve_bp_analysis(np.eye(6), A, A @ x)
    assert res.status == "optimal"
    assert np.max(np.abs(bp_extract(res, np.eye(6)) - x)) <= 1e-6


def test_bp_square_systems_all_converge():
    # a square A pins x, which leaves only the z+/z- split free: the
    # degenerate case where the interior-point path is most likely to stall
    rng = np.random.default_rng(0)
    n = 20
    x0 = np.zeros(n)
    x0[:2] = [1.0, -1.0]
    for _ in range(20):
        A = rng.standard_normal((n, n))
        res = solve_bp_analysis(np.eye(n), A, A @ x0)
        assert res.status == "optimal"
        assert np.max(np.abs(bp_extract(res, np.eye(n)) - x0)) <= 1e-6


def test_bp_analysis_operator_recovers_signal():
    # a piecewise-constant signal is 2-sparse under the square difference
    # operator, and the LP objective is ||D x_hat||_1
    rng = np.random.default_rng(8)
    n = 10
    D = finite_difference_matrix(n, "square_bidiagonal")
    x0 = np.linalg.solve(D, np.eye(n)[0] - np.eye(n)[6])
    A = rng.standard_normal((8, n))
    res = solve_bp_analysis(D, A, A @ x0)
    x_hat = bp_extract(res, D)
    assert res.status == "optimal"
    assert np.max(np.abs(x_hat - x0)) <= 1e-6
    assert abs(res.primal_obj - np.abs(D @ x_hat).sum()) <= 1e-8
    assert recover(D, A, x0).success


def test_bp_rejects_d_that_is_not_square_invertible():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((4, 6))
    b = rng.standard_normal(4)
    singular = np.eye(6)
    singular[5] = singular[4]
    for D in (np.ones((4, 6)), np.eye(8), singular):
        with pytest.raises(ValueError):
            solve_bp_analysis(D, A, b)


def test_bp_one_sparse_recovery_rate():
    rng = np.random.default_rng(6)
    x0 = np.zeros(8)
    x0[0] = 1.0
    hits = 0
    for _ in range(100):
        A = rng.standard_normal((6, 8))
        out = recover(np.eye(8), A, x0)
        hits += out.success
    assert hits >= 95


def test_recover_reports_failure_below_threshold():
    rng = np.random.default_rng(7)
    x0 = np.zeros(12)
    x0[:6] = 1.0
    fails = 0
    for _ in range(20):
        A = rng.standard_normal((3, 12))    # far too few measurements
        fails += not recover(np.eye(12), A, x0).success
    assert fails >= 18


# ---------------------------------------------------------------------------
# phase transition scaffolding
# ---------------------------------------------------------------------------

def test_wilson_interval_values():
    lo, hi = wilson_interval(0, 20)
    assert lo == 0.0 and 0.0 < hi < 0.2
    lo, hi = wilson_interval(20, 20)
    assert hi == 1.0 and 0.8 < lo < 1.0
    lo, hi = wilson_interval(10, 20)
    assert lo < 0.5 < hi


def test_phase_experiment_full_measurements_always_succeed():
    rows = phase_transition_experiment(10, 2, [10], trials=10,
                                       stream=SeededStream(1, 0))
    assert rows[0].rate == 1.0
    assert rows[0].solver_failures == 0


def test_phase_experiment_solves_every_instance():
    # criterion 11's instances at m <= 12; an earlier 5-block form of the
    # LP stopped at its iteration cap on 5 or 6 of these 180 solves
    rows = phase_transition_experiment(60, 6, list(range(2, 14, 2)),
                                       trials=30, stream=SeededStream(1018, 0))
    assert [r.solver_failures for r in rows] == [0] * 6


def test_phase_experiment_rejects_zero_m():
    with pytest.raises(ValueError):
        phase_transition_experiment(10, 2, [0], trials=2,
                                    stream=SeededStream(1, 0))


def _forbid(monkeypatch, target, *names):
    def boom(*args, **kwargs):
        raise AssertionError(f"reached {names}")

    for name in names:
        monkeypatch.setattr(target, name, boom)


def test_phase_experiment_rejects_d_of_wrong_shape(monkeypatch):
    # each D is rejected before any trial draws
    _forbid(monkeypatch, SeededStream, "gen")
    singular = np.eye(10)
    singular[9] = singular[8]
    for D in (np.eye(12), np.ones((10, 12)), singular):
        with pytest.raises(ValueError) as err:
            phase_transition_experiment(10, 2, [4], trials=2,
                                        stream=SeededStream(1, 0), D=D)
    assert str(err.value) == "D must be invertible"


@pytest.mark.parametrize("D", [None, finite_difference_matrix(
    20, "square_bidiagonal")], ids=["l1", "tv_square"])
def test_phase_experiment_matches_basis_pursuit_lp(monkeypatch, D):
    # the section test decides each trial as the LP solve of recover does,
    # on the same draws: the support, its signs, then A
    n, s, trials, st = 20, 3, 20, SeededStream(1019, 0)
    ms = list(range(4, n + 1, 2))
    D_eff = np.eye(n) if D is None else D
    want = []
    for i, m in enumerate(ms):
        wins = 0
        for t in range(trials):
            rng = st.child(i).gen(t)
            idx = rng.choice(n, size=s, replace=False)
            z0 = np.zeros(n)
            z0[idx] = rng.choice([-1.0, 1.0], size=s)
            A = rng.standard_normal((m, n))
            wins += recover(D_eff, A, np.linalg.solve(D_eff, z0)).success
        want.append(wins)
    assert 0 < sum(want) < len(ms) * trials
    _forbid(monkeypatch, solvers, "lp_solve_standard")
    rows = phase_transition_experiment(n, s, ms, trials, st, D=D)
    assert [r.successes for r in rows] == want
    assert [r.solver_failures for r in rows] == [0] * len(ms)


def test_crossing_interpolation():
    rows = phase_transition_experiment(12, 1, [2, 4, 6, 8, 10, 12], trials=12,
                                       stream=SeededStream(2, 0))
    rates = [r.rate for r in rows]
    assert rates[-1] == 1.0
    m_half = crossing_from_rows(rows)
    assert 2.0 <= m_half <= 12.0
