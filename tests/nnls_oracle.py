"""The scalar Lawson-Hanson kernel, kept as the test oracle of the batched
kernel ``conekit.solvers._nnls_batch``.

The contract: row for row, the batched kernel takes the same steps, so it
returns the same iteration counts and convergence flags, and the same
coefficients up to rounding.  The tests assert equal counts and flags,
and coefficients within 1e-12 relative to 1 + the largest coefficient
(1e-10 where a singular block reaches ``lstsq``, and projected points
within 1e-10 where they compare cones), not equal bits: the batched
kernel solves each passive block padded with the identity to the largest
passive set of its step, in one stacked solve, and forms the gradients of
all rows in one product, so its last bits may differ.  On the inputs of
``test_batched_nnls_matches_scalar_kernel``, given the same rows w0, 26 of
the 1,080 generated-cone rows and 33 of the 1,080 polar rows differ in
bits.
"""

import numpy as np


def _nnls_gram(G: np.ndarray, w0: np.ndarray, entering=None):
    """Lawson-Hanson on precomputed Gram matrix G = A^T A and w0 = A^T y.

    A list passed as ``entering`` receives each entering index in turn, so
    an index listed twice was dropped and later entered again."""
    k = G.shape[0]
    if k == 0:
        return np.zeros(0), 0, True
    tol = 1e-10 * max(1.0, float(np.max(np.abs(w0))))
    max_iter = 3 * k + 30
    passive = np.zeros(k, dtype=bool)
    c = np.zeros(k)
    it = 0
    while it < max_iter:
        grad = w0 - G @ c
        cand = ~passive & (grad > tol)
        if not cand.any():
            return c, it, True
        j = int(np.argmax(np.where(cand, grad, -np.inf)))
        if entering is not None:
            entering.append(j)
        passive[j] = True
        # inner loop: restore feasibility of the passive-set LS solution
        for _ in range(k + 1):
            it += 1
            idx = np.flatnonzero(passive)
            Gpp = G[np.ix_(idx, idx)]
            try:
                z = np.linalg.solve(Gpp, w0[idx])
            except np.linalg.LinAlgError:
                z = np.linalg.lstsq(Gpp, w0[idx], rcond=None)[0]
            if np.all(z > 0):
                c = np.zeros(k)
                c[idx] = z
                break
            cur = c[idx]
            neg = z <= 0
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(neg, cur / (cur - z), np.inf)
            alpha = float(np.min(ratios))
            alpha = min(max(alpha, 0.0), 1.0)
            cur = cur + alpha * (z - cur)
            c = np.zeros(k)
            c[idx] = np.maximum(cur, 0.0)
            drop = passive & (c <= 0)
            drop[idx[np.argmin(ratios)]] = True
            passive &= ~drop
            c[~passive] = 0.0
            if not passive.any():
                break
    grad = w0 - G @ c
    ok = not ((~passive) & (grad > 10 * tol)).any()
    return c, it, ok
