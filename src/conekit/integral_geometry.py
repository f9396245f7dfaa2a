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

The rotation checks run stacked.  Sample i draws its Gaussian matrix and
then its Gaussian point from key i of the stream.  A block of draws comes
from one ``stream.normals`` call, its rotations from one stacked QR (a
closed form in the plane), and each draw's cone is a per-draw matrix:
normals [W_C, Q_i W_D] for the kinematic formula, or, with a subspace
side, the other side's normals in the subspace's section frame; generators
M_i V or normals M_i^{-T} W for a compression M_i = T Q_i.  One batched
Lawson-Hanson call, with one Gram matrix per draw, projects the block; a
block of 2-row matrices (planar cones and 2-dimensional sections) takes
each draw's exact wedge form instead.  A Crofton block decides its hits
at once: lines by one projection call, larger subspaces by one stacked
Gordan section test.  A draw whose stacked projection did not converge is
projected onto its own cone and counted in the report's ``retried``.  A
kinematic side without normals (a non-isometric
:class:`~conekit.cones.LinearImage`, a generated cone over the facet cap)
projects each draw onto its own cone ``intersect(C, rotate(D, Q_i))``.  A
compression of a cone without generators under a wide or singular T
raises ValueError, since its images classify no faces;
``projected_statdim`` projects them by FISTA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cones import (Cone, NonnegOrthant, Subspace, _inequality_matrix,
                    _orthonormal_columns, _project_generated,
                    _project_normals, _rows_times, _transpose, generators_of,
                    intersect, linear_image, project, rotate)
from .numerics import Record, SeededStream, haar_stack, row_projection
from .statdim import (Estimate, _check_failures, estimate_intrinsic_volumes,
                      face_histogram, mc_estimate, tails)
from .solvers import _chunk_rows, _sections

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
class IdentityCheckReport(Record):
    """Per-index comparison of an identity's two sides.  ``failures``
    counts the draws dropped as unconverged or unclassified, and
    ``retried`` the draws whose stacked projection did not converge and
    that were projected again onto their own cone."""

    name: str
    ks: list
    lhs: np.ndarray
    lhs_stderr: np.ndarray
    rhs: np.ndarray
    rhs_stderr: np.ndarray
    z: np.ndarray
    samples: int
    failures: int
    retried: int
    verdict: bool


@dataclass
class CroftonReport(Record):
    """Hit-probability estimate against the half-tail target.  ``failures``
    counts the draws whose decision rests on an unconverged projection or
    NNLS; they are dropped, and ``samples`` counts the rest."""

    hit_rate: float
    stderr: float
    target: float
    target_stderr: float
    z: float
    samples: int
    failures: int
    seed: int
    verdict: bool


def _zscores(lhs, lse, rhs, rse):
    diff = lhs - rhs
    se = np.sqrt(lse ** 2 + rse ** 2)
    z = np.zeros_like(diff)
    nz = se > 0
    z[nz] = diff[nz] / se[nz]
    z[~nz] = np.where(np.abs(diff[~nz]) <= 1e-12, 0.0, np.inf)
    return z


def _rotation_draws(samples, stream, n, m, width):
    """Blocks (start, Q, g) of rotation draws: sample i takes its n x n
    Gaussian matrix and then its Gaussian point in R^m, the draws of
    ``stream.gen(i)``, from one ``stream.normals`` call per block, and the
    block's rotations come from one ``haar_stack`` call, bit-identical to
    ``haar_from_rng(n, stream.gen(i))``.  A block holds as many samples as
    fit ``width`` floats each (at least n^2) into ``CHUNK_BYTES``."""
    step = _chunk_rows(max(n * n, width))
    for a in range(0, samples, step):
        G, g = stream.normals(a, min(step, samples - a), (n, n), (m,))
        yield a, haar_stack(G), g


def _stacked_draws(samples, stream, n, m, width, decide_block, decide_one):
    """Value and flag of every draw of :func:`_rotation_draws`, and the
    number of draws retried.  decide_block(Q, g) decides a block at once,
    flagging False a draw whose projection or NNLS did not converge; such
    a draw is retried alone by decide_one(Q_i, g_i) when that is given.
    With decide_block None every draw takes decide_one, unretried."""
    vals, oks, retried = [], [], 0
    for _, Q, g in _rotation_draws(samples, stream, n, m, width):
        if decide_block is None:
            v, ok = map(np.array, zip(*map(decide_one, Q, g)))
        else:
            v, ok = decide_block(Q, g)
            if decide_one is not None:
                bad = np.flatnonzero(~ok)
                retried += len(bad)
                for i in bad:
                    v[i], ok[i] = decide_one(Q[i], g[i])
        vals.append(v)
        oks.append(ok)
    return np.concatenate(vals), np.concatenate(oks), retried


def _faces_of(make_cone):
    """decide_one of :func:`_stacked_draws`: the face dim of
    Proj_{make_cone(Q)}(g), flagged False when unconverged or unclassified."""
    def decide_one(Q, g):
        r = project(make_cone(Q), g)
        ok = r.converged and r.face_dim is not None
        return (r.face_dim if ok else 0), ok
    return decide_one


def _kinematic_faces(C: Cone, D: Cone, samples: int, stream: SeededStream):
    """Per-draw face dims, flags and retry count of Proj_{C cap QD}(g),
    stacked when both sides have an inequality matrix, as every generated
    cone under the facet cap has.

    A :class:`~conekit.cones.Subspace` side L with orthonormal basis B
    projects in its section frame, as ``intersect`` does: draw i has the
    section basis B_i = Q_i B when L is D and B when L is C, the section
    normals S_i = B_i^T W_i (d x k) of the other side's normals W_i
    (W_C, or Q_i W_D) and the point B_i^T g_i.  The isometry keeps face
    dimensions, and a 2-dimensional section projects by its wedge form.
    Any other pair stacks the normals [W_C, Q_i W_D] in R^n."""
    n = C.n
    WC, WD = _inequality_matrix(C), _inequality_matrix(D)

    def make_cone(Q):
        return intersect(C, rotate(D, Q))

    if WC is None or WD is None:
        return _stacked_draws(samples, stream, n, n, 0, None,
                              _faces_of(make_cone))
    if isinstance(C, Subspace) or isinstance(D, Subspace):
        rotated = not isinstance(C, Subspace)
        B, W = (D.basis, WC) if rotated else (C.basis, WD)
        k = W.shape[1]

        def project_block(Q, g):
            Bs = Q @ B if rotated else B
            Ws = W if rotated else Q @ W
            return _project_normals(_transpose(Bs) @ Ws,
                                    _rows_times(g, Bs))[1:]
    else:
        k = WC.shape[1] + WD.shape[1]

        def project_block(Q, g):
            WCs = np.broadcast_to(WC, (len(g),) + WC.shape)
            return _project_normals(np.concatenate([WCs, Q @ WD], axis=2),
                                    g)[1:]

    return _stacked_draws(samples, stream, n, n, max(n, k) * k,
                          project_block, _faces_of(make_cone))


def verify_kinematic(C: Cone, D: Cone, samples: int,
                     stream: SeededStream) -> IdentityCheckReport:
    """Check E[v_k(C cap QD)] = v_{k+n}(C x D) for k >= 1 (with the v_0 bin
    fixed by normalization) against the convolved product profile.

    When both C and D have an inequality matrix (see
    :func:`~conekit.cones._inequality_matrix`), all draws are stacked: g is
    projected onto {x : W^T x <= 0}, W = [W_C, Q W_D], by Moreau, or in
    the plane by the exact wedge form of each draw's W.  A subspace side
    of dimension d projects in its section frame instead, onto the
    section normals of the other side in R^d (a wedge form at d = 2).
    A side without normals (a non-isometric image, a generated cone over
    the facet cap) projects each draw onto ``intersect(C, rotate(D, Q))``
    by Dykstra."""
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

    fd, ok, retried = _kinematic_faces(C, D, samples, stream.child(0))
    lhs, lse, n_eff, failures = face_histogram(fd, ok, n)
    z = _zscores(lhs, lse, rhs, rse)
    return IdentityCheckReport(
        "kinematic", list(range(n + 1)), lhs, lse, rhs, rse, z, n_eff,
        failures, retried, bool(np.all(np.abs(z) <= 3.0)))


_LINE_TOL = 1e-9    # distance at which a projected line point counts as in C


def _line_hits_cone(C: Cone, U: np.ndarray):
    """Whether span{u} meets C beyond the origin, for each row u of U, and
    whether both projections that decided it converged (one
    ``project_batch`` call on [U; -U])."""
    S = np.vstack([U, -U])
    P, _, conv = C.project_batch(S, faces=False)
    hit = np.linalg.norm(P - S, axis=1) <= _LINE_TOL
    return hit.reshape(2, -1).any(axis=0), conv.reshape(2, -1).all(axis=0)


def _crofton_hits(C: Cone, d: int, samples: int, stream: SeededStream):
    """Whether C meets span(Q[:, :d]) beyond 0, for each rotation draw, and
    whether the projections or NNLS that decided it converged."""
    if d == 1:
        def decide_block(Q, _):
            return _line_hits_cone(C, Q[:, :, 0])
        width = 0
    else:
        W = _inequality_matrix(C)
        A = generators_of(C) if W is None else W
        if A is None:
            raise ValueError("hit detection needs a generator or inequality "
                             "representation")

        def decide_block(Q, _):
            if W is not None:
                return _sections(A, Q[:, :, :d])
            # conic alternative: a Haar subspace L is in general position
            # with probability 1, so C meets L exactly when the polar
            # meets L^perp only at 0
            nontrivial, converged = _sections(A, Q[:, :, d:])
            return ~nontrivial, converged
        width = max(C.n, A.shape[1]) * A.shape[1]
    return _stacked_draws(samples, stream, C.n, 0, width, decide_block,
                          None)[:2]


def crofton_probability(C: Cone, m: int, samples: int,
                        stream: SeededStream) -> CroftonReport:
    """Estimate P{C cap QL != {0}} for a random subspace L of codimension m
    and compare against the half-tail h_{m+1}(C).

    Each draw decides its hit exactly; the rotations of a block of draws
    come from one stacked QR.  A draw whose decision rests on an
    unconverged projection or NNLS is dropped and counted in
    ``failures``; more than ``MAX_FAILURE_FRACTION`` of them raise
    ``RuntimeError``.  A line (d = n - m = 1) hits C when u or -u
    projects onto C at distance <= 1e-9, with one ``project_batch`` call
    for the whole block; this serves every cone.  For d >= 2 a block makes
    one stacked section test (Gordan's alternative, one batched NNLS call,
    see ``solvers._sections``): a cone with an inequality matrix W hits
    when its section {c : (B^T W)^T c <= 0}, B = Q[:, :d], is nontrivial;
    a cone with only generators V hits when the section of its polar
    {y : V^T y <= 0} by L^perp = span(Q[:, d:]) is trivial.  A cone with
    neither representation raises ValueError for d >= 2.
    """
    n = C.n
    if not 1 <= m <= n - 1:
        raise ValueError("need 1 <= m <= n-1")
    if isinstance(C, Subspace):
        raise ValueError("C must not be a linear subspace")
    d = n - m

    hits, ok = _crofton_hits(C, d, samples, stream)
    failures = _check_failures(ok)
    n_eff = samples - failures
    rate = int(hits[ok].sum()) / n_eff
    se = math.sqrt(rate * (1 - rate) / n_eff)
    prof = estimate_intrinsic_volumes(C, samples, stream.child(1))
    _, h = tails(prof)
    target = float(h[m + 1])
    tse = 2.0 * math.sqrt(float(np.sum(prof.stderr[m + 1::2] ** 2)))
    denom = math.sqrt(se ** 2 + tse ** 2)
    z = (rate - target) / denom if denom > 0 else 0.0
    return CroftonReport(rate, se, target, tse, z, n_eff, failures,
                         stream.master_seed, abs(z) <= 3.0)


def _compression_block(T: np.ndarray, C: Cone, faces=True):
    """(decide_block, width) for :func:`_stacked_draws` on the cones
    T Q C, whose values are face dims, or squared projection norms when
    ``faces`` is false; or None for a cone with only normals under a wide
    or singular T, whose ``linear_image(T Q, C)`` is not exact."""
    m, n = T.shape
    V = generators_of(C)
    if V is not None:
        def project_block(Q, g):
            return _project_generated((T @ Q) @ V, g, faces=faces)
        k = V.shape[1]
    else:
        W = _inequality_matrix(C)
        s = np.linalg.svd(T, compute_uv=False)
        if W is None or m != n or s[-1] <= 1e-12 * s[0]:
            return None

        def project_block(Q, g):
            return _project_normals(
                np.linalg.solve(np.swapaxes(T @ Q, 1, 2), W), g, faces=faces)
        k = W.shape[1]

    def decide_block(Q, g):
        P, fd, ok = project_block(Q, g)
        return (fd if faces else np.array([v @ v for v in P])), ok
    return decide_block, max(m, k) * k


def _compression_faces(T: np.ndarray, C: Cone, samples: int,
                       stream: SeededStream):
    """Per-draw face dims, flags and retry count of Proj_{T Q C}(g),
    stacked where ``linear_image(T Q, C)`` is exact; see
    :func:`_compression_report`."""
    m, n = T.shape

    def make_cone(Q):
        return linear_image(T @ Q, C)

    decide_block, width = _compression_block(T, C) or (None, 0)
    if decide_block is None and not _orthonormal_columns(T):
        raise ValueError(f"{type(C).__name__} has no generators: FISTA "
                         "would project its images, classifying no faces")
    return _stacked_draws(samples, stream, n, m, width, decide_block,
                          _faces_of(make_cone))


def _compression_report(name, C, T, samples, stream):
    """Shared core of the projection-formula and full-rank checks:
    E[v_k(T Q C)] = v_k(C) for k < m and E[v_m(T Q C)] = t_m(C).

    Where ``linear_image(T Q, C)`` is exact the draws run stacked: a cone
    with generators V is projected onto cone(M_i V), M_i = T Q_i, and one
    with only normals W under a square invertible T onto
    {x : (M_i^{-T} W)^T x <= 0}; at m = 2 each image is a wedge, projected
    in closed form.  A cone without generators under a wide or singular,
    non-orthogonal T raises ValueError before any draw, since FISTA would
    project its images and cannot classify their faces."""
    m, n = T.shape
    fd, ok, retried = _compression_faces(T, C, samples, stream.child(0))
    prof = estimate_intrinsic_volumes(C, samples, stream.child(1))
    t, _ = tails(prof)
    rhs = np.empty(m + 1)
    rse = np.empty(m + 1)
    rhs[:m] = prof.v[:m]
    rse[:m] = prof.stderr[:m]
    rhs[m] = t[m]
    rse[m] = math.sqrt(float(np.sum(prof.stderr[m:] ** 2)))
    lhs, lse, n_eff, failures = face_histogram(fd, ok, m)
    z = _zscores(lhs, lse, rhs, rse)
    return IdentityCheckReport(
        name, list(range(m + 1)), lhs, lse, rhs, rse, z, n_eff, failures,
        retried, bool(np.all(np.abs(z) <= 3.0)))


def verify_projection_formula(C: Cone, m: int, samples: int,
                              stream: SeededStream) -> IdentityCheckReport:
    """Check the random-compression identity with an orthogonal projection
    onto the first m coordinates."""
    n = C.n
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    return _compression_report("projection", C, row_projection(m, n),
                               samples, stream)


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
    return _compression_report("tqc", C, T, samples, stream)


def projected_statdim(C: Cone, m: int, samples: int,
                      stream: SeededStream) -> Estimate:
    """Estimate E_Q[delta(P Q C)] for the projection onto the first m
    coordinates, with one Gaussian per rotation.

    The draws are those of :func:`_rotation_draws`, stacked as in
    :func:`_compression_report`; at m = 2 they are exact wedge forms.  A
    draw whose stacked projection did not converge (in R^3 and up), and
    every draw of a cone with only normals at m < n, is
    projected onto its own cone ``linear_image(P Q, C)`` (by FISTA for the
    latter); a draw is dropped when that projection did not converge.
    """
    n = C.n
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    P = row_projection(m, n)
    decide_block, width = _compression_block(P, C, faces=False) or (None, 0)

    def decide_one(Q, g):
        r = project(linear_image(P @ Q, C), g)
        return r.point @ r.point, r.converged

    vals, ok, _ = _stacked_draws(samples, stream, n, m, width, decide_block,
                                 decide_one)
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
    return verify_kinematic(NonnegOrthant(2), NonnegOrthant(2), samples,
                            stream)


def _suite_kinematic_subspace(samples, stream):
    L = Subspace(np.eye(3)[:, :2])
    return verify_kinematic(NonnegOrthant(3), L, samples, stream)


def _suite_crofton(samples, stream):
    return crofton_probability(NonnegOrthant(3), 2, samples, stream)


def _suite_projection(samples, stream):
    return verify_projection_formula(NonnegOrthant(4), 2, samples, stream)


def _suite_tqc(samples, stream):
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
