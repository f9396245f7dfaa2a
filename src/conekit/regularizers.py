"""Subdifferential cones of l1-type regularizers and difference operators.

The regularizers covered are the l1 norm, the weighted l1 norm, and the
l1-analysis (cosparse) form ``x -> ||D x||_1``.  At an anchor point the
subdifferential of each is a face of a (weighted) hypercube; the convex
cone it generates is the polar of the descent cone, which is the object
that controls recovery from random linear measurements.

The plain and weighted l1 cones are
``conekit.cones.L1SubdiffCone(n, support, signs, weights)``.  This module
builds the analysis cone ``analysis_subdiff_cone(AnalysisInstance(D, x0))``,
the finite-difference operators used as analysis maps, and the
orthonormal reduction that compresses the analysis cone into its
spanning subspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cones import Cone, L1SubdiffCone, linear_image
from .numerics import Record, SeededStream, svd
from .statdim import Estimate, estimate_statdim

# Relative magnitude below which an anchor coordinate counts as zero.
SUPPORT_RELTOL = 1e-10


def _support_pattern(y: np.ndarray):
    """Support indices and signs of y, with a relative zero threshold."""
    y = np.asarray(y, dtype=float)
    scale = float(np.max(np.abs(y))) if y.size else 0.0
    if scale <= 0.0:
        return np.array([], dtype=int), np.array([])
    mask = np.abs(y) >= SUPPORT_RELTOL * scale
    idx = np.flatnonzero(mask)
    return idx, np.sign(y[idx])


@dataclass
class AnalysisInstance(Record):
    """An analysis regularizer ``x -> ||D x||_1`` anchored at a signal.

    Attributes
    ----------
    D : ndarray, shape (p, n)
        Analysis operator.
    x0 : ndarray, shape (n,)
        Anchor signal.
    y0 : ndarray, shape (p,)
        ``D @ x0``; its sign pattern determines the subdifferential.
    support : ndarray of int
        Indices where ``y0`` is nonzero (relative threshold
        ``1e-10 * ||y0||_inf``).
    signs : ndarray
        Signs of ``y0`` on the support.
    """

    D: np.ndarray
    x0: np.ndarray
    y0: np.ndarray = field(init=False)
    support: np.ndarray = field(init=False)
    signs: np.ndarray = field(init=False)

    def __post_init__(self):
        self.D = np.asarray(self.D, dtype=float)
        self.x0 = np.asarray(self.x0, dtype=float).ravel()
        if self.D.ndim != 2 or self.D.shape[1] != self.x0.size:
            raise ValueError("D must be p x n with n = len(x0)")
        self.y0 = self.D @ self.x0
        self.support, self.signs = _support_pattern(self.y0)
        if self.support.size == 0:
            raise ValueError("D x0 = 0: the regularizer is minimal at x0")

    @property
    def p(self) -> int:
        return self.D.shape[0]

    @property
    def n(self) -> int:
        return self.D.shape[1]

    @property
    def s(self) -> int:
        return int(self.support.size)

    @classmethod
    def from_dict(cls, d: dict) -> "AnalysisInstance":
        D = d["D"]
        if isinstance(D, str):
            D = _operator_shorthand(D)
        return cls(np.asarray(D, dtype=float), np.asarray(d["x0"], dtype=float))

    @classmethod
    def from_support(cls, D, support, signs) -> "AnalysisInstance":
        """Instance with prescribed sign pattern of ``D x0``.

        Solves for a signal ``x0`` with ``D x0`` equal to the +-1 vector
        of the pattern; requires square invertible D (the least-squares
        solution is validated to reproduce the pattern exactly).
        """
        D = np.asarray(D, dtype=float)
        p = D.shape[0]
        support = np.asarray(support, dtype=int).ravel()
        signs = np.asarray(signs, dtype=float).ravel()
        y0 = np.zeros(p)
        y0[support] = signs
        x0, *_ = np.linalg.lstsq(D, y0, rcond=None)
        if not np.allclose(D @ x0, y0, atol=1e-8):
            raise ValueError("the sign pattern is not realizable as D x0")
        return cls(D, x0)


def _operator_shorthand(text: str) -> np.ndarray:
    """The matrix that ``tv_square(n)`` names; ValueError for other names."""
    name, _, arg = text.partition("(")
    if name != "tv_square" or not arg.endswith(")"):
        raise ValueError(f"unknown operator shorthand {text!r}")
    return finite_difference_matrix(int(arg[:-1]), "square_bidiagonal")


def analysis_subdiff_cone(inst: AnalysisInstance) -> Cone:
    """Cone generated by the subdifferential of ``||D .||_1`` at ``inst.x0``.

    By the chain rule the subdifferential is ``D^T`` applied to the l1
    subdifferential at ``y0 = D x0``, so the generated cone is the image
    under ``D^T`` of the l1 subdifferential cone.  When ``D`` is the
    identity the inner cone is returned directly; otherwise
    :func:`~conekit.cones.linear_image` represents the image, as an
    inequality cone for square invertible ``D``, else as a
    :class:`~conekit.cones.LinearImage` projected over priced generators.
    """
    inner = L1SubdiffCone(inst.p, inst.support, inst.signs)
    if inst.p == inst.n and np.array_equal(inst.D, np.eye(inst.n)):
        return inner
    return linear_image(inst.D.T, inner)


def reduced_subdiff_cone(inst: AnalysisInstance) -> L1SubdiffCone:
    """The l1 subdifferential cone at ``y0`` rotated into its span.

    The cone lives in the (p - s + 1)-dimensional subspace spanned by
    the off-support coordinate vectors together with the normalized
    sign-weighted indicator of the support.  In the orthonormal basis of
    :func:`build_BC_matrices` it becomes another subdifferential cone:
    support on the last coordinate with weight ``sqrt(s)``, free
    coordinates with weight one.  Statistical dimensions agree by
    orthogonal invariance.
    """
    d = inst.p - inst.s + 1
    w = np.ones(d)
    w[-1] = math.sqrt(inst.s)
    return L1SubdiffCone(d, [d - 1], [1.0], w)


def build_BC_matrices(inst: AnalysisInstance):
    """Orthonormal reduction basis B and its compression C = D^T B.

    B has p rows and ``p - s + 1`` columns: the coordinate vectors on
    the complement of the support (in increasing order) followed by the
    unit vector carrying ``sign_j / sqrt(s)`` on the support.  Its
    columns form an orthonormal basis of the span of the l1
    subdifferential cone at ``y0``, so ``C = D^T B`` maps the reduced
    cone onto the subdifferential cone of the analysis regularizer.
    Flipping one anchor sign flips that coordinate's contribution to the
    last column and nothing else.

    Returns
    -------
    B : ndarray, shape (p, p - s + 1)
        Orthonormal columns (`B.T @ B` is the identity to 1e-12).
    C : ndarray, shape (n, p - s + 1)
        ``D^T B``: the off-support columns of ``D^T`` and the normalized
        signed sum of the support columns.

    Raises
    ------
    ValueError
        If ``p < n``; the reduction targets overdetermined analysis
        operators (rank-n D forces ``s >= p - n + 1``, which is also
        validated).
    """
    p, n = inst.D.shape
    if p < n:
        raise ValueError("the reduction requires p >= n")
    s = inst.s
    if not np.all(np.isfinite(inst.D)):
        raise ValueError("D must be finite")
    if s < p - n + 1:              # else the rank condition cannot fire
        sv = np.linalg.svd(inst.D, compute_uv=False)
        if sv[-1] > 1e-12 * sv[0]:
            raise ValueError("rank-n D forces at least p - n + 1 nonzeros "
                             f"in D x0; got s = {s}")
    comp = np.setdiff1d(np.arange(p), inst.support)
    B = np.zeros((p, p - s + 1))
    B[comp, np.arange(p - s)] = 1.0
    B[inst.support, -1] = inst.signs / math.sqrt(s)
    C = inst.D.T @ B
    return B, C


def reduced_analysis_cone(inst: AnalysisInstance) -> Cone:
    """The analysis subdifferential cone via the low-dimensional route.

    Identical as a set to :func:`analysis_subdiff_cone` but represented
    as ``C`` applied to the reduced cone in dimension ``p - s + 1``,
    which is cheaper to project onto when the support is large.  When
    ``C`` has full column rank (always for square invertible ``D``) the
    image is exact: an inequality cone for square ``C``, else the
    isometric image ``Q`` of one, with ``C = QR``.
    """
    _, C = build_BC_matrices(inst)
    return linear_image(C, reduced_subdiff_cone(inst))


def descent_statdim_analysis(inst: AnalysisInstance, samples: int,
                             stream: SeededStream) -> Estimate:
    """Monte Carlo statistical dimension of the descent cone of ``||D .||_1``.

    Uses polarity: the descent cone at ``x0`` is polar to the
    subdifferential cone, and statistical dimensions of polar pairs add
    up to the ambient dimension.  The returned estimate is therefore
    ``n - delta_hat(analysis_subdiff_cone(inst))`` with the same standard
    error.  The cone is projected through ``D^T`` directly, which works
    for every D; :func:`reduced_analysis_cone` is the same set in the
    frame of :func:`build_BC_matrices` and gives the same estimate to
    Monte Carlo error.
    """
    est = estimate_statdim(analysis_subdiff_cone(inst), samples, stream)
    return Estimate(mean=inst.n - est.mean, stderr=est.stderr,
                    samples=est.samples, seed=est.seed)


# ---------------------------------------------------------------------------
# Difference operators and their spectra
# ---------------------------------------------------------------------------

def finite_difference_matrix(n: int, variant: str = "square_bidiagonal"):
    """First-order difference operator with exact integer entries.

    ``square_bidiagonal`` is n x n with -1 on the diagonal and +1 on the
    superdiagonal (last row ends in a lone -1); ``rect`` is the
    (n-1) x n row-difference matrix, which annihilates constants.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if variant == "square_bidiagonal":
        D = -np.eye(n)
        D[np.arange(n - 1), np.arange(1, n)] = 1.0
        return D
    if variant == "rect":
        D = np.zeros((n - 1, n))
        D[np.arange(n - 1), np.arange(n - 1)] = -1.0
        D[np.arange(n - 1), np.arange(1, n)] = 1.0
        return D
    raise ValueError(f"unknown variant {variant!r}")


@dataclass
class TVSpectrum(Record):
    """Spectrum report for the square bidiagonal difference matrix.

    ``D^T D`` is the second-difference matrix with a free boundary at
    the first coordinate and a fixed one at the last, whose eigenvalues
    are ``2 - 2 cos((2k-1) pi / (2n+1))``; the square roots are stored
    ascending in `mixed_formula` and match `singular_values` (the svd,
    the ground truth here).  The pure-Dirichlet formula
    ``sqrt(2 - 2 cos(k pi / (n+1)))`` is often quoted for this operator
    but belongs to the tridiagonal (-1, 2, -1) matrix; it is evaluated
    in `dirichlet_formula` for comparison, along with its exact
    sum-of-squares ``2n`` against the true Frobenius mass ``2n - 1``.
    """

    n: int
    singular_values: np.ndarray
    mixed_formula: np.ndarray
    dirichlet_formula: np.ndarray
    max_mismatch_mixed: float
    max_mismatch_dirichlet: float
    fro_sq: float
    dirichlet_sum_sq: float


def tv_singular_values(n: int) -> TVSpectrum:
    """Singular values of the square bidiagonal difference matrix.

    Returns both closed forms alongside the svd; see :class:`TVSpectrum`
    for which one is exact.
    """
    D = finite_difference_matrix(n, "square_bidiagonal")
    sv = np.sort(svd(D)[1])
    k = np.arange(1, n + 1)
    mixed = np.sqrt(2.0 - 2.0 * np.cos((2 * k - 1) * np.pi / (2 * n + 1)))
    dirichlet = np.sqrt(2.0 - 2.0 * np.cos(k * np.pi / (n + 1)))
    return TVSpectrum(
        n=n,
        singular_values=sv,
        mixed_formula=mixed,
        dirichlet_formula=dirichlet,
        max_mismatch_mixed=float(np.max(np.abs(sv - mixed))),
        max_mismatch_dirichlet=float(np.max(np.abs(sv - dirichlet))),
        fro_sq=float(np.sum(sv ** 2)),
        dirichlet_sum_sq=float(np.sum(dirichlet ** 2)),
    )
