"""Empirical verification of conic integral-geometry identities.

Each checker estimates the left side of an identity by Monte Carlo over
random rotations (one Gaussian per rotation keeps the composed estimator
unbiased), pairs it with the right side computed from intrinsic-volume
profiles, and reports per-index z-scores.  A check passes when every
|z| <= 3.

Identities covered: the kinematic intersection formula and its subspace
(Crofton) specialization, hit probabilities against half-tails, the
projection formula for random compressions, its full-rank generalization,
and the projected statistical dimension with its concentration bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import (Cone, Subspace, _inequality_matrix, generators_of,
                    intersect, linear_image, project, rotate)
from .numerics import SeededStream, haar_from_rng, row_projection
from .statdim import (Estimate, estimate_intrinsic_volumes, face_histogram,
                      mc_estimate, tails)
from .solvers import nnls

__all__ = [
    "IdentityCheckReport",
    "CroftonReport",
    "verify_kinematic",
    "crofton_probability",
    "verify_projection_formula",
    "verify_tqc",
    "projected_statdim",
    "eta_for_projection_margin",
    "IDENTITY_SUITES",
    "run_identity_suite",
]


@dataclass
class IdentityCheckReport:
    """Per-index comparison of an identity's two sides."""

    name: str
    ks: list
    lhs: np.ndarray
    lhs_stderr: np.ndarray
    rhs: np.ndarray
    rhs_stderr: np.ndarray
    z: np.ndarray
    samples: int
    failures: int
    verdict: bool

    def to_dict(self) -> dict:
        return {"name": self.name, "ks": list(self.ks),
                "lhs": self.lhs.tolist(),
                "lhs_stderr": self.lhs_stderr.tolist(),
                "rhs": self.rhs.tolist(),
                "rhs_stderr": self.rhs_stderr.tolist(),
                "z": self.z.tolist(), "samples": self.samples,
                "failures": self.failures, "verdict": self.verdict}


@dataclass
class CroftonReport:
    """Hit-probability estimate against the half-tail target."""

    hit_rate: float
    stderr: float
    target: float
    target_stderr: float
    z: float
    samples: int
    seed: int
    verdict: bool

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in
                ("hit_rate", "stderr", "target", "target_stderr", "z",
                 "samples", "seed", "verdict")}


def _zscores(lhs, lse, rhs, rse):
    diff = lhs - rhs
    se = np.sqrt(lse ** 2 + rse ** 2)
    z = np.zeros_like(diff)
    nz = se > 0
    z[nz] = diff[nz] / se[nz]
    z[~nz] = np.where(np.abs(diff[~nz]) <= 1e-12, 0.0, np.inf)
    return z


def _face_histogram_over_rotations(samples, stream, n_hist, make_cone,
                                   ambient):
    """Histogram of face dims of Proj_{K(Q)}(g) over rotations Q.

    make_cone(Q) builds the random cone; one Gaussian is drawn per rotation
    from the same substream.
    """
    fd = np.zeros(samples, dtype=np.int64)
    ok = np.zeros(samples, dtype=bool)
    for i in range(samples):
        gen = stream.gen(i)
        K = make_cone(haar_from_rng(ambient, gen))
        r = project(K, gen.standard_normal(K.n))
        if r.converged and r.face_dim is not None:
            fd[i], ok[i] = r.face_dim, True
    return face_histogram(fd, ok, n_hist)


def verify_kinematic(C: Cone, D: Cone, samples: int,
                     stream: SeededStream) -> IdentityCheckReport:
    """Check E[v_k(C cap QD)] = v_{k+n}(C x D) for k >= 1 (with the v_0 bin
    fixed by normalization) against the convolved product profile."""
    if C.n != D.n:
        raise ValueError("C and D must share an ambient dimension")
    n = C.n
    profC = estimate_intrinsic_volumes(C, samples, stream.child(1))
    profD = estimate_intrinsic_volumes(D, samples, stream.child(2))
    conv = np.convolve(profC.v, profD.v)
    conv_var = np.zeros(2 * n + 1)
    for j in range(2 * n + 1):
        i = np.arange(max(0, j - n), min(n, j) + 1)
        conv_var[j] = float(np.sum(
            profC.v[i] ** 2 * profD.stderr[j - i] ** 2 +
            profC.stderr[i] ** 2 * profD.v[j - i] ** 2))
    rhs = np.empty(n + 1)
    rse = np.empty(n + 1)
    rhs[1:] = conv[n + 1:]
    rse[1:] = np.sqrt(conv_var[n + 1:])
    rhs[0] = conv[:n + 1].sum()
    rse[0] = math.sqrt(conv_var[:n + 1].sum())

    lhs, lse, n_eff, failures = _face_histogram_over_rotations(
        samples, stream.child(0), n, lambda Q: intersect(C, rotate(D, Q)),
        n)
    z = _zscores(lhs, lse, rhs, rse)
    return IdentityCheckReport(
        "kinematic", list(range(n + 1)), lhs, lse, rhs, rse, z, n_eff,
        failures, bool(np.all(np.abs(z) <= 3.0)))


_LINE_TOL = 1e-9    # distance at which a projected line point counts as in C
_SECTION_TOL = 1e-9  # NNLS residual cutoff, relative to 1 + sum(lambda)


def _line_hits_cone(C: Cone, u: np.ndarray) -> bool:
    """Whether span{u} meets C beyond the origin."""
    for s in (u, -u):
        p = C.project_point(s).point
        if np.linalg.norm(p - s) <= _LINE_TOL:
            return True
    return False


def _section_nontrivial(A: np.ndarray, B: np.ndarray) -> bool:
    """Whether {c : M^T c <= 0} != {0} for M = B^T A, with d = B.shape[1].

    By Gordan's alternative the set is {0} exactly when the columns of M
    positively span R^d: more than d of them, rank M = d, and M lam = 0
    for some lam > 0.  With zero columns dropped and the rest scaled to
    unit length, the last condition is -M 1 in cone(M), one NNLS solve.
    Its residual is judged against 1e-9 (1 + sum lam), which stays
    scale-free when near-antipodal columns need a large lam.
    """
    M = B.T @ A
    norms = np.linalg.norm(M, axis=0)
    keep = norms > 1e-12 * np.linalg.norm(A, axis=0)
    M = M[:, keep] / norms[keep]
    d = B.shape[1]
    if M.shape[1] <= d or np.linalg.matrix_rank(M) < d:
        return True
    res = nnls(M, -M.sum(axis=1))
    return res.residual > _SECTION_TOL * (1.0 + float(res.coef.sum()))


def _subspace_hits_cone(C: Cone, Q: np.ndarray, d: int) -> bool:
    """Whether C cap span(Q[:, :d]) != {0}, for a rotation Q drawn from the
    Haar measure."""
    W = _inequality_matrix(C)
    if W is not None:
        return _section_nontrivial(W, Q[:, :d])
    V = generators_of(C)
    if V is None:
        raise ValueError("hit detection needs a generator or inequality "
                         "representation")
    # conic alternative: a Haar subspace L is in general position with
    # probability 1, so C meets L exactly when the polar meets L^perp
    # only at 0
    return not _section_nontrivial(V, Q[:, d:])


def crofton_probability(C: Cone, m: int, samples: int,
                        stream: SeededStream) -> CroftonReport:
    """Estimate P{C cap QL != {0}} for a random subspace L of codimension m
    and compare against the half-tail h_{m+1}(C).

    Each draw decides its hit exactly.  A line (d = n - m = 1) hits C when
    u or -u projects onto C at distance <= 1e-9; this serves every cone.
    For d >= 2 the hit is one section test (Gordan's alternative, one NNLS
    solve): a cone with an inequality matrix W hits when its section
    {c : (B^T W)^T c <= 0}, B = Q[:, :d], is nontrivial; a cone with only
    generators V hits when the section of its polar {y : V^T y <= 0} by
    L^perp = span(Q[:, d:]) is trivial.  A cone with neither
    representation raises ValueError for d >= 2.
    """
    n = C.n
    if not 1 <= m <= n - 1:
        raise ValueError("need 1 <= m <= n-1")
    if isinstance(C, Subspace):
        raise ValueError("C must not be a linear subspace")
    d = n - m

    hits = 0
    for i in range(samples):
        Q = haar_from_rng(n, stream.gen(i))
        if d == 1:
            hits += _line_hits_cone(C, Q[:, 0])
        else:
            hits += _subspace_hits_cone(C, Q, d)
    rate = hits / samples
    se = math.sqrt(rate * (1 - rate) / samples)
    prof = estimate_intrinsic_volumes(C, samples, stream.child(1))
    _, h = tails(prof)
    target = float(h[m + 1])
    tse = 2.0 * math.sqrt(float(np.sum(prof.stderr[m + 1::2] ** 2)))
    denom = math.sqrt(se ** 2 + tse ** 2)
    z = (rate - target) / denom if denom > 0 else 0.0
    return CroftonReport(rate, se, target, tse, z, samples,
                         stream.master_seed, abs(z) <= 3.0)


def _compression_report(name, C, m, samples, stream, make_map):
    """Shared core of the projection-formula and full-rank checks:
    E[v_k(T Q C)] = v_k(C) for k < m and E[v_m(T Q C)] = t_m(C)."""
    n = C.n
    prof = estimate_intrinsic_volumes(C, samples, stream.child(1))
    t, _ = tails(prof)
    rhs = np.empty(m + 1)
    rse = np.empty(m + 1)
    rhs[:m] = prof.v[:m]
    rse[:m] = prof.stderr[:m]
    rhs[m] = t[m]
    rse[m] = math.sqrt(float(np.sum(prof.stderr[m:] ** 2)))
    lhs, lse, n_eff, failures = _face_histogram_over_rotations(
        samples, stream.child(0), m, lambda Q: linear_image(make_map(Q), C),
        n)
    z = _zscores(lhs, lse, rhs, rse)
    return IdentityCheckReport(
        name, list(range(m + 1)), lhs, lse, rhs, rse, z, n_eff, failures,
        bool(np.all(np.abs(z) <= 3.0)))


def verify_projection_formula(C: Cone, m: int, samples: int,
                              stream: SeededStream) -> IdentityCheckReport:
    """Check the random-compression identity with an orthogonal projection
    onto the first m coordinates."""
    n = C.n
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    P = row_projection(m, n)
    return _compression_report("projection", C, m, samples, stream,
                               lambda Q: P @ Q)


def verify_tqc(T, C: Cone, samples: int,
               stream: SeededStream) -> IdentityCheckReport:
    """Check the full-rank compression identity E[v_k(TQC)] = v_k(C),
    k < m, and E[v_m(TQC)] = t_m(C)."""
    T = np.asarray(T, dtype=float)
    m, n = T.shape
    if n != C.n:
        raise ValueError("T must act on the ambient space of C")
    if m > n:
        raise ValueError("T must have at most ambient-many rows")
    s = np.linalg.svd(T, compute_uv=False)
    if s[-1] <= 1e-14 * s[0]:
        raise ValueError("T must be of full rank")
    return _compression_report("tqc", C, m, samples, stream,
                               lambda Q: T @ Q)


def projected_statdim(C: Cone, m: int, samples: int,
                      stream: SeededStream) -> Estimate:
    """Estimate E_Q[delta(P Q C)] for the projection onto the first m
    coordinates, with one Gaussian per rotation."""
    n = C.n
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    P = row_projection(m, n)
    vals = np.zeros(samples)
    ok = np.zeros(samples, dtype=bool)
    for i in range(samples):
        gen = stream.gen(i)
        K = linear_image(P @ haar_from_rng(n, gen), C)
        r = project(K, gen.standard_normal(m))
        vals[i], ok[i] = r.point @ r.point, r.converged
    return mc_estimate(vals, ok, stream.master_seed)


def eta_for_projection_margin(delta: float, m: int) -> float:
    """The failure level eta implied by the margin m - delta = a_eta sqrt(m),
    inverted from a_eta = 2 sqrt(log(2/eta)).  Requires m > delta."""
    if m <= delta:
        raise ValueError("need m > delta for a positive margin")
    a = (m - delta) / math.sqrt(m)
    return 2.0 * math.exp(-a * a / 4.0)


# ---------------------------------------------------------------------------
# named suites for the CLI
# ---------------------------------------------------------------------------

def _suite_kinematic_planar(samples, stream):
    from .cones import NonnegOrthant
    return verify_kinematic(NonnegOrthant(2), NonnegOrthant(2), samples,
                            stream)


def _suite_kinematic_subspace(samples, stream):
    from .cones import NonnegOrthant
    L = Subspace(np.eye(3)[:, :2])
    return verify_kinematic(NonnegOrthant(3), L, samples, stream)


def _suite_crofton(samples, stream):
    from .cones import NonnegOrthant
    return crofton_probability(NonnegOrthant(3), 2, samples, stream)


def _suite_projection(samples, stream):
    from .cones import NonnegOrthant
    return verify_projection_formula(NonnegOrthant(4), 2, samples, stream)


def _suite_tqc(samples, stream):
    from .cones import NonnegOrthant
    T = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    return verify_tqc(T, NonnegOrthant(3), samples, stream)


IDENTITY_SUITES = {
    "kinematic-planar": _suite_kinematic_planar,
    "kinematic-subspace": _suite_kinematic_subspace,
    "crofton": _suite_crofton,
    "projection": _suite_projection,
    "tqc": _suite_tqc,
}


def run_identity_suite(name: str, samples: int, stream: SeededStream):
    """Run one named identity suite and return its report."""
    if name not in IDENTITY_SUITES:
        raise ValueError(f"unknown suite {name!r}; "
                         f"choose from {sorted(IDENTITY_SUITES)}")
    return IDENTITY_SUITES[name](samples, stream)
