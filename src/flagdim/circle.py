"""Angle arithmetic on the fiber circle.

The fiber over an incomplete flag is identified with the circle of
circumference pi: a coordinate is an angle in [0, pi) labelling a line in a
fixed 2-plane, and the distance between two coordinates is the angle between
the lines, min(|a-b|, pi-|a-b|) in [0, pi/2].  This is arc length on the
unit circle scaled by one half, so diameters match projective angles.
"""

import numpy as np

HALF_TURN = np.pi  # circumference of the fiber circle


def wrap(theta):
    """Reduce an angle (or array of angles) to the fundamental domain [0, pi)."""
    # np.mod(-eps, pi) rounds up to pi itself for eps below one ulp
    out = np.mod(theta, HALF_TURN)
    return np.where(out >= HALF_TURN, 0.0, out) if np.ndim(out) else \
        (0.0 if out >= HALF_TURN else float(out))


def distance(a, b):
    """Circle distance between coordinates, in [0, pi/2]."""
    d = np.abs(np.mod(a - b, HALF_TURN))
    return np.minimum(d, HALF_TURN - d)


def unit_vector(theta):
    """Unit plane vector (cos theta, sin theta) for a fiber coordinate."""
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)
