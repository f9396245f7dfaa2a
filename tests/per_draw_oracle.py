"""The per-draw rotation loop, kept as the test oracle of the stacked draws
of ``conekit.integral_geometry``: draw for draw, the stacked checks must
return the same face dimensions and flags as one cone per rotation.
"""

import numpy as np

from conekit.cones import project
from conekit.numerics import haar_from_rng


def _faces_per_draw(samples, stream, make_cone, ambient):
    """Face dims of Proj_{K(Q)}(g) and their flags, one rotation at a time.

    make_cone(Q) builds the random cone; one Gaussian is drawn per rotation
    from the same substream.  A draw is flagged when its projection did not
    converge or could not be classified.
    """
    fd = np.zeros(samples, dtype=np.int64)
    ok = np.zeros(samples, dtype=bool)
    for i in range(samples):
        gen = stream.gen(i)
        K = make_cone(haar_from_rng(ambient, gen))
        r = project(K, gen.standard_normal(K.n))
        if r.converged and r.face_dim is not None:
            fd[i], ok[i] = r.face_dim, True
    return fd, ok

