"""Fiber entropy estimation and the two theorem-level reports.

The fiber entropy kappa_i is the mean log density of the pushed conditional
fiber measure against the conditional measure at the image flag.  Neither
measure has a closed form, so the density route and the conditional
samples realize both empirically: pin the recent past of a realization
(the start of its orbit window), resample the remote past from a pool of
stationary flags, and read off where each resampled history puts the
missing subspace inside the reference fiber.  The density route reports
convergence in the pin length as a diagnostic (Wasserstein distance
between full- and half-pin versions of one conditional), not an
assumption; the conditional samples behind the dimension fits
(``conditional_fiber_sample``) carry no such check.

Two independent estimators must agree:

- density route: push the time-0 conditional sample through one more
  matrix and compare kernel densities against the time-1 conditional at
  points of the pushed sample (the realized coordinate x_1 is one of
  them; the others have the same conditional law and shrink the variance).
- interval route: pull the stationary interval at time -n forward and
  compare its mass under unpinned stationary pools at both ends; replicas
  whose interval carries less than half the mass at time -n are filtered
  out, and that acceptance rate is part of the result.

A fiber sample is an array of coordinates in draw order.  Only code that
counts arc masses (the atomic gate, the half-pin distance and the
dimension fits) builds an EmpiricalCircleMeasure from it; the density
route reads each kernel half once (``kernel_sums``) at every query it may
score, gates and scores on those sums, and the dimension
fits pick their points by index into the sample, so no pick depends on
the completion frame that labels the fiber circle.

Estimators refuse (rather than return noise) when fibers are atomic or
when the stable line needed by the interval route cannot be certified
on a non-isometric system.

Pin length matters in both directions: too short and the reference fiber
is not pinned down across tails, too long and the resampled coordinate
collapses below the working resolution (the fiber synchronizes at rate
gap_i, so gap_i * M should stay around one while the other gaps pin the
base).  M is PIN_LENGTH steps, which suits the benchmark ensembles, and
0 when d = 2.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import circle
from .dynamics import (DEGENERATE_DISTANCE, INTERVAL_STABLE_TOL, Arc,
                       forward_orbit, pinned_samples, pull_forward,
                       stable_coordinates, stationary_interval,
                       stationary_lines, stationary_orbit)
from .ensemble import sample_batch
from .errors import (AtomicFiber, BandwidthTooSmall, HypothesisNotMet,
                     NoAcceptedReplicas)
from .flagcore import (fiber_coordinates, fiber_map_derivative,
                       fiber_map_image)
from .measures import (KDE_MIN_NEIGHBORS, EmpiricalCircleMeasure,
                       kernel_sums, local_slopes, max_cluster_weight,
                       pool_mass, wasserstein_circle)

ATOM_RESOLUTION = 1e-6
ATOM_THRESHOLD = 0.5
JACKKNIFE_GROUPS = 20
TAIL_BURNIN = 300        # steps from the standard flag to a stationary tail flag
EVAL_POINTS = 64         # held-out queries per orbit sample of the density route
BASE_POINTS = 200        # dimension fits: sample points, shared by the samples
SIGNIFICANCE = 2.0       # gap and kappa must exceed this many stderrs
PIN_LENGTH = 60          # d >= 3: pinned steps M of every realization


def _atomic_gate(coords, context):
    """Refuse when half and full samples agree on a dominant atom."""
    full = EmpiricalCircleMeasure.from_samples(coords)
    half = EmpiricalCircleMeasure.from_samples(coords[: max(2, len(coords) // 2)])
    wf = max_cluster_weight(full, ATOM_RESOLUTION)
    wh = max_cluster_weight(half, ATOM_RESOLUTION)
    if wf > ATOM_THRESHOLD and wh > ATOM_THRESHOLD:
        raise AtomicFiber(
            f"{context}: cluster of weight {wf:.3f} at resolution "
            f"{ATOM_RESOLUTION:g} persists across sample sizes")


def conditional_fiber_sample(spec, fiber_index, pools, sampler,
                             realization_burnin=1000):
    """Conditional fiber samples over pinned pasts, one array per pool.

    ``pools`` holds one pool of tail flags (samples of the stationary
    measure, full flags or at least their ``fiber_index`` leading columns)
    per realization.  The ``len(pools)`` pinned pasts are one stack on one
    stream (``sampler.child(0)``): each burns in ``realization_burnin``
    steps from the standard flag and then runs a window of its M pinned
    steps (PIN_LENGTH, and 0 when d = 2: a trivial partial flag needs no
    pin); the fiber frame at the window's end, the one time it reads, is
    its reference.  Realization r pushes the r-th pool through its pin
    (``pinned_samples`` over [-M, 0]): the pool shares that pinned recent
    past, differs in the remote past, and is read in the reference's
    fiber frame.  Returns one array of fiber coordinates per realization,
    in pool order, so a pick by index follows the draws rather than the
    frame; each equals the pool pushed through its own pin by
    ``push_flags``, bit for bit.
    """
    pin_length = 0 if spec.dim == 2 else PIN_LENGTH
    # the burn-in before the pin approximates a stationary start
    trace = stationary_orbit(spec, fiber_index, pin_length, realization_burnin,
                             sampler.child(0), replicas=len(pools))
    # the tail replicas carry their own flags; reading them all in the one
    # reference frame makes them one conditional sample
    return list(pinned_samples(trace, pools, fiber_index, -pin_length, 0))


@dataclass(frozen=True, eq=False)
class KappaEstimate:
    kappa: float
    stderr: float
    method: str
    fiber_index: int
    diagnostics: dict = field(default_factory=dict)

    def summary(self):
        extra = ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in sorted(self.diagnostics.items()))
        return (f"kappa[{self.fiber_index}] = {self.kappa:.5f} "
                f"+- {self.stderr:.5f} ({self.method}; {extra})")


def kappa_density_estimator(spec, fiber_index, pools, sampler,
                            orbit_samples=100, bandwidth=0.05,
                            realization_burnin=1000):
    """Entropy via kernel density ratios of pushed conditional samples.

    The ``orbit_samples`` realizations are one stack on one stream: each
    burns in ``realization_burnin`` steps and runs a window over times
    [-M, 1], whose first M steps are its pinned past at time 0 (and steps
    1..M its pin at time 1).  The window names times 0 and 1, the times
    whose frames, coordinate and one-step fiber map it reads, so its last
    fold is that step alone (``forward_orbit``).  Per realization: build the conditional
    measures at times 0 and 1 from two independent tail pools, push the
    time-0 sample through the realized matrix, and average the log density
    ratio at points of the pushed sample (x_1 together with held-out
    pushed points, which share its conditional law).  Each density is
    built from half the points and evaluated on the other half, so no
    query sits on its own kernel.  Independence of the two pools matters:
    with a shared pool the pushed and target samples coincide pointwise
    and the ratio degenerates to one.

    Each half makes one ``kernel_sums`` pass over x_1 and every held-out
    candidate.  A query is scored only where both halves hold at least
    KDE_MIN_NEIGHBORS points within the bandwidth (the passes' counts),
    and its score reads the passes' sums.  Up to EVAL_POINTS held-out
    queries are drawn from the candidates that pass, in pool order; none
    is drawn when none passes.  x_1 is itself one more draw from the
    conditional, so a small fraction of realizations put it where the
    sample is too thin for that gate (tail mass of order the gate count
    over the pool size).  Those realizations are skipped and counted;
    when more than a tenth of them skip, the bandwidth undersamples the
    ensemble as such and the estimator raises BandwidthTooSmall instead
    of censoring its way to a number.  Fewer than two realizations give
    no stderr and are refused with ValueError before anything is drawn.

    ``pools`` is the pair (pool0, pool1) of the times 0 and 1, pools of
    tail flags (samples of the stationary measure, full flags or at least
    their i leading columns); the diagnostics report their size as
    ``tail_replicas``.  The conditionals at times 0 and 1 are
    ``pinned_samples`` over [-M, 0] and [1 - M, 1], each realization's
    pools pushed through its own pins one pool at a time.

    M is PIN_LENGTH, and 0 when d = 2: a trivial partial flag means the
    conditional measure is the stationary measure itself and any pin
    would condition on more than the flag.  The half-pin diagnostic
    (``pin_diagnostic``), the distance between the first realization's
    time-1 sample and one over the later M - M // 2 steps of its pin, is
    reported, not enforced.
    """
    if orbit_samples < 2:
        raise ValueError(f"orbit_samples must be at least 2, got {orbit_samples}")
    pin_length = 0 if spec.dim == 2 else PIN_LENGTH
    i = fiber_index
    pool0, pool1 = pools
    # every realization's window [-M, 1]; the held-out queries are drawn
    # on the same stream after it
    stream = sampler.child(10)
    trace = stationary_orbit(spec, i, pin_length + 1, realization_burnin,
                             stream, t_end=1, replicas=orbit_samples,
                             times=(0,))
    samples0 = pinned_samples(trace, [pool0] * orbit_samples, i,
                              -pin_length, 0)
    samples1 = pinned_samples(trace, [pool1] * orbit_samples, i,
                              1 - pin_length, 1)
    kappas = []
    skipped = 0
    diag = None
    for r, (coords0, coords1) in enumerate(zip(samples0, samples1)):
        x1 = float(trace.x[r, -1])
        if r == 0:
            _atomic_gate(coords1, f"{spec.name} fiber {i}")
            (half,) = pinned_samples(trace.select([0]), [pool1], i,
                                     1 - (pin_length - pin_length // 2), 1)
            diag = wasserstein_circle(
                EmpiricalCircleMeasure.from_samples(coords1),
                EmpiricalCircleMeasure.from_samples(half))
        pushed_all = fiber_map_image(trace.maps[r, -1], coords0)
        halves = (pushed_all[::2], coords1[::2])
        candidates = np.concatenate([[x1], pushed_all[1::2]])
        (sp, cp), (st, ct) = (kernel_sums(half, candidates, bandwidth)
                              for half in halves)
        ok = np.minimum(cp[:, 0], ct[:, 0]) >= KDE_MIN_NEIGHBORS
        if not ok[0]:
            skipped += 1
            continue
        passing = np.flatnonzero(ok[1:])
        take = min(EVAL_POINTS, len(passing))
        # x_1, then the held-out queries in the order they are drawn
        rows = np.concatenate(
            [[0], 1 + stream.rng.choice(passing, size=take, replace=False)]
        ) if take else np.array([0])
        pushed, target = (sums[rows, 0] / len(half)
                          for sums, half in zip((sp, st), halves))
        kappas.append(np.mean(np.log(pushed) - np.log(target)))
    if skipped > 0.1 * orbit_samples or not kappas:
        raise BandwidthTooSmall(
            f"{skipped} of {orbit_samples} realizations put x_1 where "
            f"fewer than {KDE_MIN_NEIGHBORS} of {len(halves[1])} samples "
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


def _isometric_fiber_action(trace, ahead):
    """Per replica: True when every fold map of the trace and of its
    continuation ``ahead`` has unit metric derivative at its start
    coordinate, which is the product of its steps' derivatives there."""
    logs = [np.abs(np.log(fiber_map_derivative(t.maps, t.x[:, :-1])))
            for t in (trace, ahead)]
    return np.max(np.concatenate(logs, axis=1), axis=1, initial=0.0) < 1e-9


def kappa_interval_estimator(spec, fiber_index, pools, sampler, n=100,
                             replicas=100, realization_burnin=1000,
                             lookahead=600):
    """Entropy via pool masses of pulled-forward stationary intervals.

    kappa_r = (log mass_{-n}(I_{-n}) - log mass_0(J_n)) / n over replicas
    whose interval carries at least half the pool mass at time -n.  A mass
    is the share of a pool's flags whose fiber coordinate, read in the
    replica's frame, lies on the arc (``pool_mass``; no pool is sorted).
    The masses at the two times use independent tail pools (a shared pool
    would make the two masses equal by construction).  Replicas whose
    image interval captures no tail sample are dropped and reported; when
    many are, the expected count R exp(-kappa n) is too small and n
    should shrink.

    The pools are read in each replica's fiber frames with no pin.  A
    time-0 pin of M steps would overlap the measurement window, and along
    the overlap the shared composed fiber map cancels between the image
    interval and the pushed pool, so the estimate would read roughly
    kappa (n - M) / n (measured: M = 60 recovers about half of the M = 0
    value at n = 100).  With no pin the image interval probes the
    unconditioned fiber-coordinate measure, assumed to scale like the
    conditionals do at the interval's scale; the residual bias is then the
    O(1/n) local-density offset shared with every interval method.  The
    assumption fails on separated d = 3 pairs, whose conditionals are
    point masses: there the estimate reads about log 2 where kappa is 0.  The
    replicas are one stack on one stream: each burns in
    ``realization_burnin`` steps, runs its window [-n, 0], which names
    only its ends and so keeps its flags at fold ends alone
    (``forward_orbit``), and continues it ``lookahead`` steps on the same
    stream.  The stable line is pulled back from the two axes u and w of
    the completion frame at the continuation's end, through its fold maps
    and then the window's (``stable_coordinates``); the arcs are pushed
    from -n to 0 through the window's fold maps (``pull_forward``).

    Isometric fiber actions have no stable line; there any fixed arc is
    mass-preserved in law, so one anchored at x substitutes and the
    estimator correctly reads ~0; a replica is isometric when every fold
    map, the window's and the continuation's, is
    (``_isometric_fiber_action``).  Non-isometric replicas whose lookahead
    cannot certify the stable line to INTERVAL_STABLE_TOL are dropped and
    counted; the certificate depends only on maps after time 0, so the
    drop is independent of the masses measured on [-n, 0].  The
    atomic gate reads the first replica that survives these drops.  An
    estimate needs a spread: fewer than two accepted replicas raise
    NoAcceptedReplicas.

    ``pools`` is the pair (pool_a, pool_b) of the times -n and 0, pools of
    tail flags (samples of the stationary measure, full flags or at least
    their i leading columns).
    """
    i = fiber_index
    pool_a, pool_b = pools
    stream = sampler.child(10)
    trace = stationary_orbit(spec, i, n, realization_burnin, stream,
                             replicas=replicas)
    ahead = forward_orbit(spec, trace.bases[:, -1], lookahead, stream, i)
    y, resolution = stable_coordinates(trace, ahead)
    x, y = trace.x[:, 0], y[:, 0]
    resolved = resolution <= INTERVAL_STABLE_TOL
    lost = ~resolved & ~_isometric_fiber_action(trace, ahead)
    coincide = resolved & (circle.distance(x, y) < DEGENERATE_DISTANCE)
    rows = np.flatnonzero(~lost & ~coincide)
    # the isometric substitute arc, replaced where the line is certified
    lo = np.full(len(rows), -0.4 * circle.HALF_TURN)
    hi = np.full(len(rows), 0.4 * circle.HALF_TURN)
    certified = resolved[rows]
    if certified.any():
        arc = stationary_interval(trace.select(rows[certified]), -n,
                                  y=y[rows[certified]])
        lo[certified], hi[certified] = arc.lo, arc.hi
    intervals = Arc(anchor=x[rows], lo=lo, hi=hi)
    images = pull_forward(trace.select(rows), intervals, -n)
    accepted = []
    rejected = 0
    zero_mass = 0
    for j, r in enumerate(rows):
        coords_minus = fiber_coordinates(pool_a, trace.frames[r, 0], i)
        if j == 0:
            _atomic_gate(coords_minus, f"{spec.name} fiber {i}")
        mass_i = pool_mass(coords_minus, x[r] + lo[j], hi[j] - lo[j])
        if mass_i < 0.5:
            rejected += 1
            continue
        mass_j = pool_mass(fiber_coordinates(pool_b, trace.frames[r, -1], i),
                           images.anchor[j] + images.lo[j],
                           images.hi[j] - images.lo[j])
        if mass_j == 0:
            zero_mass += 1
            continue
        accepted.append((np.log(mass_i) - np.log(mass_j)) / n)
    degenerate = int(np.count_nonzero(coincide))
    unresolved = int(np.count_nonzero(lost))
    if len(accepted) < 2:
        raise NoAcceptedReplicas(
            f"{len(accepted)} of {replicas} replicas accepted, fewer than "
            f"the two a stderr needs (mass filter {rejected}, "
            f"empty image {zero_mass}, degenerate {degenerate}, "
            f"unresolved stable line {unresolved})")
    accepted = np.asarray(accepted)
    return KappaEstimate(
        kappa=float(accepted.mean()),
        stderr=float(accepted.std(ddof=1) / np.sqrt(len(accepted))),
        method="interval", fiber_index=i,
        diagnostics={"effective_samples": len(accepted), "n": n,
                     "acceptance_rate": len(accepted) / replicas,
                     "mass_filter_rejections": rejected,
                     "empty_image_replicas": zero_mass,
                     "degenerate_replicas": degenerate,
                     "unresolved_replicas": unresolved})


def furstenberg_entropy_d2(spec, sampler, tail_replicas=10_000,
                           orbit_samples=200, bandwidth=0.05):
    """d = 2 specialization: kappa = E_a KL(a_* nu || nu), nu stationary.

    The partial flag is trivial for d = 2, so the fiber measure is the
    stationary measure nu on the projective line itself.

    Stationary sample: ``tail_replicas`` independent replicas, each run
    TAIL_BURNIN steps from e_1 and read once (``stationary_lines``).
    Points of one long orbit would not do: on bern2 the transfer operator
    has eigenvalue -0.917 on the 4 theta mode, so orbit points stay
    correlated for tens of steps, kernels built from one part of an orbit
    are not independent of queries taken from the rest, and the estimate
    runs low.

    Scoring: ``orbit_samples`` matrices are drawn, whatever the kind of
    ensemble, and each scores its own block of replicas, so every replica
    is a query once.  The image a x of a query x is scored by the log
    ratio of two kernel densities, a_* nu from the images of the other
    replicas and nu from the other replicas themselves, so no query is
    scored against a kernel it helped build; kappa is the mean over the
    matrices of their blocks' mean log ratios.  One kernel pass reads nu
    at every block's images.  Draws of one matrix (equal bit for bit, as
    a finite-support ensemble repeats its atoms) share one pushed sample
    a_* nu and one kernel pass over all their blocks, so a finite-support
    ensemble pushes the sample once per atom drawn and a Haar ensemble
    once per draw; each query's sums are its own (``kernel_sums``), and
    the blocks are reduced in matrix order, so the grouping moves no
    value.  Queries with fewer than
    KDE_MIN_NEIGHBORS kernel neighbors under either density (also with
    any jackknife group left out) are dropped and counted; when more than
    a tenth drop, the bandwidth undersamples nu and BandwidthTooSmall is
    raised.

    Stderr: delete-a-group jackknife over JACKKNIFE_GROUPS groups (fewer
    when fewer matrices are drawn); a group holds a share of the matrices
    together with the replicas their blocks query.  Leaving a group out
    removes its replicas from every kernel sum and its matrices from the
    average, so the stderr covers the error of the shared stationary
    sample, which dominates, as well as the sampling of queries and
    matrices.  It errs high: a query and a kernel center near it interact,
    and the jackknife counts the variance of those pair terms twice; on
    bern2 it reads 1.3-1.4 times the seed-to-seed spread.  Neither the
    burn-in bias nor the kernel smoothing bias is covered.
    dimension_formula_report's significance gate reads this stderr.
    """
    if spec.dim != 2:
        raise ValueError("the shortcut applies to d = 2 only")
    if not 2 <= orbit_samples <= tail_replicas:
        raise ValueError("orbit_samples must lie between 2 and tail_replicas")
    # one read of every replica: only the line of each flag is used
    x = stationary_lines(spec, tail_replicas, TAIL_BURNIN, tail_replicas,
                         sampler.child(1))
    _atomic_gate(x, f"{spec.name} stationary measure")
    mats = sample_batch(spec, sampler.child(2), orbit_samples)
    owner = np.arange(len(x)) % orbit_samples
    n_groups = min(JACKKNIFE_GROUPS, orbit_samples)
    group = owner % n_groups
    h = float(bandwidth)
    # matrix r scores the images of its own block of replicas; every
    # block reads the one stationary sample x in a single call, in matrix
    # order, and each query leaves its own replica out of both kernel sums
    asked = [np.flatnonzero(owner == r) for r in range(orbit_samples)]
    images = [fiber_map_image(a, x[rows]) for a, rows in zip(mats, asked)]
    st, ct = kernel_sums(x, np.concatenate(images), h, labels=group,
                         n_labels=n_groups, exclude=np.concatenate(asked))
    # of the counts, keep the fewest neighbors left with one group out
    ct = ct.sum(1) - ct.max(1)
    cuts = np.cumsum([len(rows) for rows in asked])[:-1]
    st, ct = np.split(st, cuts), np.split(ct, cuts)
    # draws of one matrix share one pushed sample a_* nu and one kernel
    # pass over all their queries; keyed by bytes, a group's draws are
    # equal bit for bit (np.unique would merge -0.0 with 0.0, and it
    # imports numpy.ma on first use)
    draws = {}
    for r, a in enumerate(mats):
        draws.setdefault(a.tobytes(), []).append(r)
    # per-matrix mean log ratios: with every replica, and with each
    # jackknife group's replicas left out of the kernel sums
    scores = {}
    queries = len(x)
    dropped = 0
    for same in draws.values():
        sp, cp = kernel_sums(
            fiber_map_image(mats[same[0]], x),
            np.concatenate([images[r] for r in same]), h, labels=group,
            n_labels=n_groups, exclude=np.concatenate([asked[r] for r in same]))
        cp = cp.sum(1) - cp.max(1)
        split = np.cumsum([len(asked[r]) for r in same])[:-1]
        for r, sp_r, cp_r in zip(same, np.split(sp, split),
                                 np.split(cp, split)):
            ok = np.minimum(cp_r, ct[r]) >= KDE_MIN_NEIGHBORS
            dropped += int(np.count_nonzero(~ok))
            if not ok.any():
                continue
            sp_r, st_r = sp_r[ok], st[r][ok]
            tp, tt = sp_r.sum(1), st_r.sum(1)
            scores[r] = (np.mean(np.log(tp) - np.log(tt)),
                         np.mean(np.log(tp[:, None] - sp_r)
                                 - np.log(tt[:, None] - st_r), axis=0))
    if dropped > 0.1 * queries:
        raise BandwidthTooSmall(
            f"{dropped} of {queries} queries have fewer than "
            f"{KDE_MIN_NEIGHBORS} of {tail_replicas} samples within "
            f"bandwidth {h:g}")
    # reduced in matrix order, as the draws came
    kept = sorted(scores)
    owners = np.array([r % n_groups for r in kept])
    full = [scores[r][0] for r in kept]
    left_out = np.array([scores[r][1] for r in kept])
    # group g's estimate drops its own matrices and reads the others'
    # log ratios with its replicas out of the kernels
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


@dataclass(frozen=True, eq=False)
class GapRow:
    fiber_index: int
    method: str
    kappa: float
    kappa_stderr: float
    gap: float
    gap_stderr: float

    @property
    def bound_satisfied(self):
        slack = SIGNIFICANCE * float(np.hypot(self.kappa_stderr,
                                              self.gap_stderr))
        return self.kappa <= self.gap + slack

    @property
    def zero_consistent(self):
        return abs(self.kappa) <= SIGNIFICANCE * self.kappa_stderr

    def line(self):
        verdict = "ok" if self.bound_satisfied else "VIOLATED"
        zero = " (consistent with invariance, kappa ~ 0)" if self.zero_consistent else ""
        return (f"fiber {self.fiber_index} ({self.method}): "
                f"kappa = {self.kappa:.5f} "
                f"+- {self.kappa_stderr:.5f} <= gap = {self.gap:.5f} "
                f"+- {self.gap_stderr:.5f}: {verdict}{zero}")


@dataclass(frozen=True, eq=False)
class DimensionReport:
    spec_name: str
    fiber_index: int
    kappa: float
    kappa_stderr: float
    gap: float
    predicted: float      # kappa / gap
    mean_slope: float
    slope_iqr: float
    n_points: int
    skipped_points: int

    @property
    def relative_error(self):
        return abs(self.mean_slope - self.predicted) / max(abs(self.predicted), 1e-12)

    def lines(self):
        return [
            f"dimension of fiber measures on {self.spec_name}, fiber {self.fiber_index}:",
            f"  predicted kappa/gap = {self.kappa:.5f}/{self.gap:.5f} = {self.predicted:.4f}",
            f"  measured mean local slope = {self.mean_slope:.4f} "
            f"(IQR {self.slope_iqr:.4f}, {self.n_points} points, "
            f"{self.skipped_points} skipped)",
            f"  relative error {self.relative_error:.1%}",
        ]


def _slope_distribution(sample, rng, base_points):
    """Local slopes at up to ``base_points`` points of a sample, and the skips.

    The points are drawn without replacement from ``rng`` as indices into
    the sample in draw order, so a rotated frame picks the same points;
    their slopes come from one batched fit (``local_slopes``) on the
    sample's measure, which agrees with ``local_dimension`` point by
    point.  A point ``local_dimension`` would refuse with InsufficientMass
    is skipped and counted.
    """
    idx = rng.choice(len(sample), size=min(base_points, len(sample)),
                     replace=False)
    slopes = local_slopes(EmpiricalCircleMeasure.from_samples(sample),
                          sample[idx])
    fitted = ~np.isnan(slopes)
    return slopes[fitted], int(np.count_nonzero(~fitted))


def _quartiles(values):
    """``np.percentile(values, [25, 75])`` by one sort, bit for bit.

    Each quartile interpolates linearly between the order statistics
    around (n - 1) q, as numpy's default method does, from the lower one
    when the fraction g is under one half and from the upper one
    otherwise.  np.percentile imports numpy.ma on first use, about 9 ms
    of a cold run.
    """
    ordered = np.sort(values)
    out = []
    for q in (0.25, 0.75):
        pos = (len(ordered) - 1) * q
        lo = math.floor(pos)
        g = pos - lo
        a, b = ordered[lo], ordered[min(lo + 1, len(ordered) - 1)]
        out.append(a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g))
    return out


def dimension_formula_report(spec, fiber_index, spectrum, kappa, samples,
                             sampler):
    """Local dimension of the fiber measures against kappa over gap.

    ``spectrum`` (a SpectrumEstimate) gives the gap, ``kappa`` (a
    KappaEstimate of fiber ``fiber_index``) the entropy, and ``samples``
    (arrays of fiber coordinates in draw order) the fiber's conditional
    measures; the report samples and estimates none of them, it gates and
    fits.  It refuses (HypothesisNotMet) when gap <= SIGNIFICANCE * its
    stderr, and then when kappa <= SIGNIFICANCE * its stderr; a dimension
    number under a failed hypothesis would be noise with a confident
    face.  The gap gate comes first: an isometric ensemble has gap exactly
    0, so its estimate is rounding noise of either sign, and kappa over it
    means nothing whatever kappa reads.  Each gate reads the stderr its
    estimate carries, so it is only as sound as that stderr.

    The slopes are fitted on the default radius grid at BASE_POINTS
    sample points in all, shared evenly between the samples (at least 8
    each), as ``local_dimension`` fits them, in one batched pass per
    sample (``_slope_distribution``).  The points are drawn on
    ``sampler.child(400, fiber_index)`` by index into each sample, so the
    fit does not depend on the completion frame that labels the circle.
    """
    i = fiber_index
    gap, gap_stderr = spectrum.gap(i), spectrum.gap_stderr(i)
    if gap <= SIGNIFICANCE * gap_stderr:
        raise HypothesisNotMet(
            f"gap[{i}] = {gap:.3g} +- {gap_stderr:.3g} is not significantly "
            "positive (an isometric ensemble has gap exactly 0); the "
            "dimension formula does not apply")
    if kappa.kappa <= SIGNIFICANCE * kappa.stderr:
        raise HypothesisNotMet(
            f"kappa[{i}] = {kappa.kappa:.5f} +- {kappa.stderr:.5f} is not "
            "significantly positive; the dimension formula does not apply")
    rng = sampler.child(400, i).rng
    per = max(8, BASE_POINTS // len(samples))
    slopes = []
    skipped = 0
    for sample in samples:
        s, sk = _slope_distribution(sample, rng, per)
        slopes.append(s)
        skipped += sk
    slopes = np.concatenate(slopes)
    if len(slopes) < 8:
        raise HypothesisNotMet(
            f"only {len(slopes)} usable dimension fits (needed 8)")
    q25, q75 = _quartiles(slopes)
    return DimensionReport(
        spec_name=spec.name, fiber_index=i,
        kappa=kappa.kappa, kappa_stderr=kappa.stderr, gap=gap,
        predicted=kappa.kappa / gap,
        mean_slope=float(slopes.mean()), slope_iqr=float(q75 - q25),
        n_points=int(len(slopes)), skipped_points=int(skipped))
