"""The d = 2 line walk one matrix at a time, in Python floats.

``dynamics.line_coordinates`` folds runs of matrices into products and
carries the direction across chunks of them by prefix products.  This
reference does neither: it pushes the unit vector through every matrix
on its own and renormalizes after each, so the tests hold the package's
walk to it.
"""

import math

import numpy as np

from flagdim import circle


def stepwise_line_coordinates(mats, start, every):
    """Angles of the line R e_1 after ``start`` steps and every ``every``
    steps after, while the matrices (N, 2, 2) last."""
    v0, v1 = 1.0, 0.0
    out = []
    for step, (a, b, c, d) in enumerate(
            np.reshape(mats, (-1, 4)).tolist(), start=1):
        v0, v1 = a * v0 + b * v1, c * v0 + d * v1
        norm = math.hypot(v0, v1)
        v0 /= norm
        v1 /= norm
        if step >= start and (step - start) % every == 0:
            out.append(math.atan2(v1, v0))
    return circle.wrap(np.array(out))
