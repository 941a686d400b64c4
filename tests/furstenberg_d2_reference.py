"""Per-matrix reference for the d = 2 density route.

``furstenberg_entropy_d2`` scores each distinct drawn matrix once: one
pushed stationary sample and one kernel pass serve every draw of that
matrix.  This module keeps the plain loop it replaced, in which every
draw pushes the whole sample and makes its own kernel pass, reducing in
matrix order.  Both read the same streams and the same per-query sums, so
the route must equal this reference bit for bit.
"""

import numpy as np

from flagdim.entropy import (JACKKNIFE_GROUPS, KDE_MIN_NEIGHBORS,
                             TAIL_BURNIN, BandwidthTooSmall, KappaEstimate,
                             _atomic_gate, fiber_map_image, kernel_sums,
                             sample_batch, stationary_lines)


def furstenberg_d2_reference(spec, sampler, tail_replicas=10_000,
                             orbit_samples=200, bandwidth=0.05):
    """``furstenberg_entropy_d2`` with one push and one kernel call per draw."""
    x = stationary_lines(spec, tail_replicas, TAIL_BURNIN, tail_replicas,
                         sampler.child(1))
    _atomic_gate(x, f"{spec.name} stationary measure")
    mats = sample_batch(spec, sampler.child(2), orbit_samples)
    owner = np.arange(len(x)) % orbit_samples
    n_groups = min(JACKKNIFE_GROUPS, orbit_samples)
    group = owner % n_groups
    h = float(bandwidth)
    asked = [np.flatnonzero(owner == r) for r in range(orbit_samples)]
    images = [fiber_map_image(a, x[rows]) for a, rows in zip(mats, asked)]
    st, ct = kernel_sums(x, np.concatenate(images), h, labels=group,
                         n_labels=n_groups, exclude=np.concatenate(asked))
    ct = ct.sum(1) - ct.max(1)
    cuts = np.cumsum([len(rows) for rows in asked])[:-1]
    owners = []
    full = []
    left_out = []
    queries = len(x)
    dropped = 0
    for r, (a, rows, image, st_r, ct_r) in enumerate(zip(
            mats, asked, images, np.split(st, cuts), np.split(ct, cuts))):
        sp, cp = kernel_sums(fiber_map_image(a, x), image, h, labels=group,
                             n_labels=n_groups, exclude=rows)
        ok = np.minimum(cp.sum(1) - cp.max(1), ct_r) >= KDE_MIN_NEIGHBORS
        dropped += int(np.count_nonzero(~ok))
        if not ok.any():
            continue
        sp, st_r = sp[ok], st_r[ok]
        tp, tt = sp.sum(1), st_r.sum(1)
        owners.append(r % n_groups)
        full.append(np.mean(np.log(tp) - np.log(tt)))
        left_out.append(np.mean(np.log(tp[:, None] - sp)
                                - np.log(tt[:, None] - st_r), axis=0))
    if dropped > 0.1 * queries:
        raise BandwidthTooSmall(
            f"{dropped} of {queries} queries have fewer than "
            f"{KDE_MIN_NEIGHBORS} of {tail_replicas} samples within "
            f"bandwidth {h:g}")
    owners = np.array(owners)
    left_out = np.array(left_out)
    jack = np.array([left_out[owners != g, g].mean()
                     for g in range(n_groups)])
    var_jack = (n_groups - 1) / n_groups * np.sum((jack - jack.mean()) ** 2)
    return KappaEstimate(
        kappa=float(np.mean(full)),
        stderr=float(np.sqrt(var_jack)),
        method="furstenberg_d2", fiber_index=1,
        diagnostics={"effective_samples": queries - dropped,
                     "dropped_queries": dropped,
                     "jackknife_groups": n_groups,
                     "bandwidth": h, "burnin": TAIL_BURNIN,
                     "tail_replicas": tail_replicas})
