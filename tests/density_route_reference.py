"""Two-pass reference for the pinned density route.

``kappa_density_estimator`` makes one ``kernel_sums`` pass per kernel half
over x_1 and every held-out candidate, gates on the pass's counts and
reads each score off the pass's sums.  This module keeps the loop it
replaced: per realization, a count-only screen of every candidate
against both halves, then a second pass that scores only the queries
drawn from those that pass.  Both draw the same queries on the same
stream and read the same per-query sums, so the route must equal this
reference bit for bit.  It also pushes each realization's pool through
its own pin with ``push_flags`` and reads it with ``fiber_coordinates``,
one pin at a time, where the route folds every realization's pin in one
chain first (``pin_folds``), so the chain is held to per-pin pushes too.
"""

import numpy as np

from flagdim.dynamics import push_flags
from flagdim.entropy import (EVAL_POINTS, KDE_MIN_NEIGHBORS, PIN_LENGTH,
                             BandwidthTooSmall, KappaEstimate, _atomic_gate,
                             fiber_map_image, kernel_sums, stationary_orbit)
from flagdim.flagcore import fiber_coordinates
from flagdim.measures import EmpiricalCircleMeasure, wasserstein_circle


def _pushed(spec, pinned, pool, frame, i):
    """Fiber-i coordinates of the whole pool pushed through one pin."""
    return fiber_coordinates(push_flags(pinned, pool, spec), frame, i)


def density_route_reference(spec, fiber_index, pools, sampler,
                            orbit_samples=100, bandwidth=0.05,
                            realization_burnin=1000):
    """``kappa_density_estimator`` with a screen pass and a score pass."""
    if orbit_samples < 2:
        raise ValueError(f"orbit_samples must be at least 2, got {orbit_samples}")
    pin_length = 0 if spec.dim == 2 else PIN_LENGTH
    i = fiber_index
    pool0, pool1 = pools
    stream = sampler.child(10)
    trace = stationary_orbit(spec, i, pin_length + 1, realization_burnin,
                             stream, t_end=1, replicas=orbit_samples,
                             times=(0,))
    mats = trace.matrices
    kappas = []
    skipped = 0
    diag = None
    for r in range(orbit_samples):
        pin0 = mats[r, :pin_length]
        pin1 = mats[r, 1:]
        frame0, frame1 = trace.frames[r, -2:]
        x1 = float(trace.x[r, -1])
        coords0 = _pushed(spec, pin0, pool0, frame0, i)
        coords1 = _pushed(spec, pin1, pool1, frame1, i)
        if r == 0:
            _atomic_gate(coords1, f"{spec.name} fiber {i}")
            half = _pushed(spec, pin1[len(pin1) // 2:], pool1, frame1, i)
            diag = wasserstein_circle(
                EmpiricalCircleMeasure.from_samples(coords1),
                EmpiricalCircleMeasure.from_samples(half))
        pushed_all = fiber_map_image(trace.maps[r, -1], coords0)
        halves = (pushed_all[::2], coords1[::2])
        candidates = np.concatenate([[x1], pushed_all[1::2]])
        # the screen: counts only, every candidate against both halves
        ok = np.minimum(*(kernel_sums(half, candidates, bandwidth)[1][:, 0]
                          for half in halves)) >= KDE_MIN_NEIGHBORS
        if not ok[0]:
            skipped += 1
            continue
        held_out = candidates[1:][ok[1:]]
        take = min(EVAL_POINTS, len(held_out))
        queries = np.concatenate(
            [[x1], stream.rng.choice(held_out, size=take, replace=False)]
        ) if take else np.array([x1])
        # the score: a second pass over the drawn queries alone
        pushed, target = (kernel_sums(half, queries, bandwidth)[0][:, 0]
                          / len(half) for half in halves)
        kappas.append(np.mean(np.log(pushed) - np.log(target)))
    if skipped > 0.1 * orbit_samples or not kappas:
        raise BandwidthTooSmall(
            f"{skipped} of {orbit_samples} realizations put x_1 where "
            f"fewer than {KDE_MIN_NEIGHBORS} of {len(pool1) // 2} samples "
            f"sit within bandwidth {bandwidth:g}")
    kappas = np.asarray(kappas)
    return KappaEstimate(
        kappa=float(kappas.mean()),
        stderr=float(kappas.std(ddof=1) / np.sqrt(len(kappas))),
        method="density", fiber_index=i,
        diagnostics={"effective_samples": len(kappas),
                     "undersampled_skips": skipped,
                     "eval_points": EVAL_POINTS, "bandwidth": bandwidth,
                     "pin_length": pin_length, "tail_replicas": len(pool1),
                     "pin_diagnostic": diag})
