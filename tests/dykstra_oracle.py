"""Dykstra's alternating projections one point at a time, kept as the test
oracle of the lockstep kernel ``conekit.cones._dykstra``.

The contract: row for row, the lockstep kernel takes the same sweeps, so
it returns the same sweep counts and convergence flags, and the same
points up to rounding: its sides project all running rows in one
``project_batch`` call, whose last bits may differ from a one-row call.
"""

import numpy as np

from conekit.cones import DYKSTRA_MAX_SWEEPS, DYKSTRA_TOL


def _dykstra_point(Ca, Cb, x):
    """Dykstra's alternating projections of one point onto Ca ∩ Cb.

    Returns (point, sweeps, converged, last_point_in_Ca).
    """
    scale = 1.0 + float(np.linalg.norm(x))
    p = x.copy()
    qa = np.zeros_like(x)
    qb = np.zeros_like(x)
    prev = None
    ya = p
    for sweep in range(1, DYKSTRA_MAX_SWEEPS + 1):
        ya = Ca.project_point(p + qa).point
        qa = p + qa - ya
        yb = Cb.project_point(ya + qb).point
        qb = ya + qb - yb
        if prev is not None and \
                np.linalg.norm(ya - yb) <= DYKSTRA_TOL * scale and \
                np.linalg.norm(yb - prev) <= DYKSTRA_TOL * scale:
            return yb, sweep, True, ya
        prev = yb
        p = yb
    return prev if prev is not None else p, DYKSTRA_MAX_SWEEPS, False, ya

