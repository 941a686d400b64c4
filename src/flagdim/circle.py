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
    """Reduce an angle (or array of angles) to the fundamental domain [0, pi).

    An array whose angles all lie in [-pi, pi], as every atan2 output does,
    is reduced as where(theta < 0, theta + pi, theta) + 0.0: there fmod is
    exact, so that is np.mod(theta, pi) bit for bit, -0.0 going to 0.0,
    at a fraction of its cost.  Any other input takes np.mod.
    """
    # np.mod(-eps, pi) rounds up to pi itself for eps below one ulp, and
    # so does -eps + pi
    if np.ndim(theta) == 0:
        out = np.mod(theta, HALF_TURN)
        return 0.0 if out >= HALF_TURN else float(out)
    theta = np.asarray(theta)
    # a NaN fails both comparisons and takes np.mod
    if -HALF_TURN <= theta.min(initial=0.0) and \
            theta.max(initial=0.0) <= HALF_TURN:
        out = np.where(theta < 0.0, theta + HALF_TURN, theta) + 0.0
    else:
        out = np.mod(theta, HALF_TURN)
    out[out >= HALF_TURN] = 0.0
    return out


def distance(a, b):
    """Circle distance between coordinates, in [0, pi/2]."""
    d = np.abs(np.mod(a - b, HALF_TURN))
    return np.minimum(d, HALF_TURN - d)


def unit_vector(theta):
    """Unit plane vector (cos theta, sin theta) for a fiber coordinate."""
    return np.stack([np.cos(theta), np.sin(theta)], axis=-1)
