"""Conditional independence of a fiber coordinate's past and future.

The fiber entropy estimators pin the recent past of a realization and
resample its remote past, which is sound when the fiber coordinate, given
the pinned past, carries no information about the future.  This check
reads that directly: replicas share one pinned recent past but draw
independent remote pasts and independent futures, and the correlation
between the past-determined coordinate x and the future-determined
stable coordinate y should then be small.
"""

import numpy as np

from flagdim.dynamics import (_draws, forward_orbit, push_flags,
                              stable_coordinates, stationary_flag_pool)
from flagdim.entropy import TAIL_BURNIN


def conditional_independence_diagnostic(spec, fiber_index, pin_length,
                                        replicas, sampler, future_steps):
    """Largest absolute correlation between the doubled-angle embeddings
    of x and y over the replicas, with the pin on ``sampler.child(0)``,
    the remote pasts on ``child(1)`` and the futures on ``child(2)``.
    """
    pinned = _draws(spec, sampler.child(0), pin_length, 1)[:, 0]
    pool = stationary_flag_pool(spec, replicas, TAIL_BURNIN, sampler.child(1))
    # the coordinates at time 0, the start of a window into the futures,
    # and the stable line pulled back to it from the window's end
    trace = forward_orbit(spec, push_flags(pinned, pool, spec), future_steps,
                          sampler.child(2), fiber_index=fiber_index)
    # no certificate: the correlation is read whatever the resolution
    y, _ = stable_coordinates(trace)
    xs, ys = trace.x[:, 0], y[:, 0]
    ex = np.stack([np.cos(2 * xs), np.sin(2 * xs)])
    ey = np.stack([np.cos(2 * ys), np.sin(2 * ys)])
    rho = 0.0
    for a in ex:
        for b in ey:
            if a.std() > 1e-12 and b.std() > 1e-12:
                rho = max(rho, abs(float(np.corrcoef(a, b)[0, 1])))
    return rho
