"""Accelerated projected gradient (FISTA) for linear images, kept as an
independent test oracle of the exact image projections of
``conekit.cones.LinearImage``.

It needs only the inner cone's own projection, so it checks the image
kernels against a method that shares none of their generators, facets or
pricing.  Its stop, a step below ``FISTA_TOL``, does not bound the error:
on ill-conditioned images a row can stop "converged" up to about 1e-6
(1 + |x|) from the projection, so comparisons use 1e-6.
"""

import numpy as np

from conekit.cones import Cone, _Batch

FISTA_TOL = 1e-9
FISTA_MAX_ITER = 50_000


def _fista_image(A, inner, X, lip):
    """Accelerated projected gradient for min_{v in inner} ||x - A v||^2,
    with step 1 / lip, lip = ||A||^2.

    Batched over the rows of X with per-row adaptive restart; a row stops
    once it converges, so it takes the steps it would take alone.  Returns
    (P, V, converged, iterations), one row each, with P = V A^T.
    """
    N, k = X.shape[0], A.shape[1]
    V, it = np.zeros((N, k)), np.zeros(N, dtype=np.int64)
    conv = np.zeros(N, dtype=bool) if lip > 0 else np.ones(N, dtype=bool)
    live = np.flatnonzero(~conv)
    x, v, y, t = X[live], V[live], V[live], np.ones(live.size)
    tol = FISTA_TOL * (1.0 + np.linalg.norm(x, axis=1))
    for i in range(1, FISTA_MAX_ITER + 1):
        if not live.size:
            break
        vn = inner.project_batch(y - (y @ A.T - x) @ A / lip, faces=False)[0]
        step = vn - v
        # adaptive restart: drop momentum on rows moving against the step
        bad = np.einsum("ij,ij->i", y - vn, step) > 0
        done = lip * np.linalg.norm(y - vn, axis=1) <= tol
        V[live], it[live], conv[live] = vn, i, done
        tn = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = np.where(bad, 0.0, (t - 1.0) / tn)
        y = (vn + beta[:, None] * step)[~done]
        live, x, v, tol = live[~done], x[~done], vn[~done], tol[~done]
        t = np.where(bad, 1.0, tn)[~done]
    return V @ A.T, V, conv, it


class FistaImage(Cone):
    """The image cone A(inner) projected by :func:`_fista_image`, which
    classifies no faces (face dims -1)."""

    def __init__(self, A, inner):
        self.A = np.asarray(A, dtype=float)
        self.inner = inner
        self.n = self.A.shape[0]
        self._lip = float(np.linalg.svd(self.A, compute_uv=False)[0] ** 2)

    def project_batch(self, X, faces=True):
        P, _, conv, it = _fista_image(self.A, self.inner, X, self._lip)
        fd = np.full(X.shape[0], -1, dtype=np.int64) if faces else None
        return _Batch(P, fd, conv, it)

