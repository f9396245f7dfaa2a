"""The per-start multistart search, kept as the test oracle of the lockstep
search ``conekit.condition._multistart_extremum``: both take the same starts
and apply the same step, acceptance and stopping rules, one start at a
time here and all starts as the rows of one state there.
"""

import math

import numpy as np

from conekit.condition import (MULTISTART_DEFAULT, MULTISTART_TOL,
                               RestrictedValue)


def _multistart_extremum(A, C, D, sense, stream):
    n = C.n
    s = np.linalg.svd(A, compute_uv=False)
    lip = 2.0 * float(s[0] ** 2) if s.size else 1.0
    eta0 = 1.0 / max(lip, 1e-300)

    def proj(K, y):
        # only the point is read, so no face is classified
        return K.project_batch(y[None], faces=False)[0][0]

    def f(x):
        # the objective and the projection its gradient reuses
        p = proj(D, A @ x)
        return float(np.linalg.norm(p) ** 2), p

    def retract(y):
        p = proj(C, y)
        norm = np.linalg.norm(p)
        return (p / norm, norm) if norm > 1e-14 else (None, 0.0)

    _, _, Vt = np.linalg.svd(A)
    seeds = [Vt[0], Vt[-1]]
    gen = stream.gen(0)
    while len(seeds) < MULTISTART_DEFAULT:
        seeds.append(gen.standard_normal(n))
    best_val = -math.inf if sense > 0 else math.inf
    best_x = None
    for x0 in seeds:
        x, _ = retract(np.asarray(x0, dtype=float))
        if x is None:
            continue
        fx, px = f(x)
        eta = eta0
        for _ in range(500):
            g = 2.0 * (A.T @ px)
            improved = False
            moved = math.inf
            for _ in range(40):
                xn, norm = retract(x + sense * eta * g)
                if xn is None:
                    break
                fn, pn = f(xn)
                if sense * (fn - fx) >= -1e-18:
                    moved = float(np.linalg.norm(xn - x))
                    x, fx, px = xn, fn, pn
                    eta = min(eta * 1.25, 1e3 * eta0)
                    improved = True
                    break
                eta *= 0.5
            if not improved or moved <= MULTISTART_TOL:
                break
        val = math.sqrt(max(fx, 0.0))
        if (sense > 0 and val > best_val) or (sense < 0 and val < best_val):
            best_val, best_x = val, x
    if best_x is None:
        raise ValueError("all starts collapsed to the apex; is C trivial?")
    return RestrictedValue(best_val, best_x, "multistart", True)
