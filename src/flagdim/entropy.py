"""Fiber entropy estimation and the two theorem-level reports.

The fiber entropy kappa_i is the mean log density of the pushed conditional
fiber measure against the conditional measure at the image flag.  Neither
measure has a closed form, so the density route and the conditional
samples realize both empirically: pin the recent past of a realization
(the start of its orbit window), resample the remote past from a pool of
stationary flags, and read off where each resampled history puts the
missing subspace inside the reference fiber.  Convergence in the pin
length is a reported diagnostic (Wasserstein distance between full- and
half-pin versions), not an assumption.

Two independent estimators must agree:

- density route: push the time-0 conditional sample through one more
  matrix and compare kernel densities against the time-1 conditional at
  points of the pushed sample (the realized coordinate x_1 is one of
  them; the others have the same conditional law and shrink the variance).
- interval route: pull the stationary interval at time -n forward and
  compare its mass under unpinned stationary pools at both ends; replicas
  whose interval carries less than half the mass at time -n are filtered
  out, and that acceptance rate is part of the result.

Estimators refuse (rather than return noise) when fibers are atomic or
when the stable line needed by the interval route cannot be certified
on a non-isometric system.

Pin length matters in both directions: too short and the reference fiber
is not pinned down across tails, too long and the resampled coordinate
collapses below the working resolution (the fiber synchronizes at rate
gap_i, so gap_i * M should stay around one while the other gaps pin the
base).  The defaults suit the benchmark ensembles; M is a parameter of
every pinned estimator.
"""

from dataclasses import dataclass, field

import numpy as np

from . import circle
from .dynamics import (DEGENERATE_DISTANCE, Arc, forward_orbit,
                       pull_forward, push_flags, stable_coordinates,
                       stationary_flag_pool, stationary_interval,
                       stationary_lines, stationary_orbit)
from .ensemble import SeededSampler, sample_batch
from .errors import (AtomicFiber, BandwidthTooSmall, GapTooSmall,
                     HypothesisNotMet, NoAcceptedReplicas)
from .flagcore import (fiber_coordinates, fiber_map_derivative,
                       fiber_map_image)
from .measures import (KDE_MIN_NEIGHBORS, EmpiricalCircleMeasure,
                       kde_density, kernel_sums, local_slopes,
                       max_cluster_weight, neighbor_counts, wasserstein_circle)

ATOM_RESOLUTION = 1e-6
ATOM_THRESHOLD = 0.5
JACKKNIFE_GROUPS = 20
TAIL_BURNIN = 300        # steps from the standard flag to a stationary tail flag
EVAL_POINTS = 64         # held-out queries per orbit sample of the density route
LINE_REPLICAS = 1000     # d = 2 dimension sample: independent replicas read
PIN_REALIZATIONS = 6     # d >= 3 dimension fits: pinned pasts sampled
SIGNIFICANCE = 2.0       # kappa must exceed this many stderrs for a dimension


def _screened(candidates, measures, bandwidth):
    """Candidates with enough neighbors under every measure to query a KDE.

    Held-out query points are a variance reduction device; isolated tail
    points would trip the kernel's neighbor gate without adding signal,
    so they are dropped up front.  Mandatory queries are never screened.
    """
    ok = np.ones(len(candidates), dtype=bool)
    for m in measures:
        ok &= neighbor_counts(m, candidates, bandwidth) >= KDE_MIN_NEIGHBORS
    return candidates[ok]


def _default_pin(spec, pin_length):
    """Resolve a None pin length: 0 when the partial flag is trivial.

    For d = 2 the partial flag carries no data, the disintegration is the
    stationary measure itself, and a pin would condition the fiber on a
    recent past the definition does not condition on.
    """
    if pin_length is not None:
        return int(pin_length)
    return 0 if spec.dim == 2 else 60


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


def _half_pin_diagnostic(pinned, pool, frame, i, coords, convergence_tol=None):
    """Wasserstein distance between the full- and half-pin fiber samples.

    ``coords`` is the pool pushed through the whole pin and read in
    ``frame``; the half-pin sample keeps only the pin's later half.  When
    ``convergence_tol`` is given a larger distance raises GapTooSmall.
    """
    half = fiber_coordinates(push_flags(pinned[len(pinned) // 2:], pool),
                             frame, i)
    diag = wasserstein_circle(EmpiricalCircleMeasure.from_samples(coords),
                              EmpiricalCircleMeasure.from_samples(half))
    if convergence_tol is not None and diag > convergence_tol:
        raise GapTooSmall(
            f"half-pin diagnostic {diag:.4f} exceeds {convergence_tol:g}; "
            f"pin length {len(pinned)} does not determine the fiber measure")
    return float(diag)


@dataclass(frozen=True, eq=False)
class ConditionalFiberSample:
    fiber_index: int
    pin_length: int
    tail_replicas: int
    measure: EmpiricalCircleMeasure
    diagnostic: float   # Wasserstein distance between full- and half-pin versions


def conditional_fiber_sample(spec, fiber_index, pin_length=None,
                             tail_replicas=10_000, sampler=None,
                             realization_burnin=1000, convergence_tol=None):
    """Empirical conditional measure on the fiber over one partial flag.

    One realization runs ``realization_burnin`` steps from the standard
    flag and then a window of its ``pin_length`` pinned steps; the fiber
    frame at the window's end is the reference.  All ``tail_replicas``
    tail flags (each TAIL_BURNIN steps from the standard flag) share that
    pinned recent past and differ in the remote past, and each is read in
    the reference's fiber frame.  ``pin_length=None`` resolves to 0 when
    d = 2 and 60 otherwise (a trivial partial flag needs no pin).

    The diagnostic is always reported; when ``convergence_tol`` is given
    a diagnostic above it raises GapTooSmall (the pin did not determine
    the fiber measure).
    """
    sampler = sampler or SeededSampler(0)
    pin_length = _default_pin(spec, pin_length)
    # the burn-in before the pin approximates a stationary start
    trace = stationary_orbit(spec, fiber_index, pin_length, realization_burnin,
                             sampler.child(0))
    pinned, frame = trace.matrices[0], trace.frames[0, -1]
    pool = stationary_flag_pool(spec, tail_replicas, TAIL_BURNIN,
                                sampler.child(1))
    # the tail replicas carry their own full flags; reading them all in
    # the one reference frame makes them one empirical measure
    coords = fiber_coordinates(push_flags(pinned, pool), frame, fiber_index)
    diag = _half_pin_diagnostic(pinned, pool, frame, fiber_index, coords,
                                convergence_tol)
    return ConditionalFiberSample(
        fiber_index=fiber_index, pin_length=int(len(pinned)),
        tail_replicas=len(pool),
        measure=EmpiricalCircleMeasure.from_samples(coords),
        diagnostic=diag)


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


def kappa_density_estimator(spec, fiber_index, pin_length=None,
                            tail_replicas=10_000, orbit_samples=100,
                            bandwidth=0.05, sampler=None,
                            realization_burnin=1000, convergence_tol=None):
    """Entropy via kernel density ratios of pushed conditional samples.

    The ``orbit_samples`` realizations are one stack on one stream: each
    burns in ``realization_burnin`` steps and runs a window over times
    [-M, 1], whose first M steps are its pinned past at time 0 (and steps
    1..M its pin at time 1).  Per realization: build the conditional
    measures at times 0 and 1 from two independent tail pools, push the
    time-0 sample through the realized matrix, and average the log density
    ratio at points of the pushed sample (x_1 together with held-out
    pushed points, which share its conditional law).  Each density is
    built from half the points and evaluated on the other half, so no
    query sits on its own kernel.  Independence of the two pools matters:
    with a shared pool the pushed and target samples coincide pointwise
    and the ratio degenerates to one.

    x_1 is itself one more draw from the conditional, so a small fraction
    of realizations put it where the sample is too thin for the kernel's
    neighbor gate (tail mass of order the gate count over the pool size).
    Those realizations are skipped and counted; when more than a tenth of
    them skip, the bandwidth undersamples the ensemble as such and the
    estimator raises BandwidthTooSmall instead of censoring its way to a
    number.

    ``pin_length=None`` resolves to 0 when d = 2 and 60 otherwise: a
    trivial partial flag means the conditional measure is the stationary
    measure itself and any pin would condition on more than the flag.
    """
    sampler = sampler or SeededSampler(0)
    pin_length = _default_pin(spec, pin_length)
    i = fiber_index
    pool0 = stationary_flag_pool(spec, tail_replicas, TAIL_BURNIN, sampler.child(1))
    pool1 = stationary_flag_pool(spec, tail_replicas, TAIL_BURNIN, sampler.child(2))
    # every realization's window [-M, 1]; the held-out queries are drawn
    # on the same stream after it
    stream = sampler.child(10)
    trace = stationary_orbit(spec, i, pin_length + 1, realization_burnin,
                             stream, t_end=1, replicas=orbit_samples)
    kappas = []
    skipped = 0
    diag = None
    for r in range(orbit_samples):
        pin0 = trace.matrices[r, :pin_length]
        pin1 = trace.matrices[r, 1:]
        frame0, frame1 = trace.frames[r, -2:]
        x1 = float(trace.x[r, -1])
        coords0 = fiber_coordinates(push_flags(pin0, pool0), frame0, i)
        coords1 = fiber_coordinates(push_flags(pin1, pool1), frame1, i)
        if r == 0:
            _atomic_gate(coords1, f"{spec.name} fiber {i}")
            diag = _half_pin_diagnostic(pin1, pool1, frame1, i, coords1,
                                        convergence_tol)
        pushed_all = fiber_map_image(trace.maps[r, -1], coords0)
        pushed = EmpiricalCircleMeasure.from_samples(pushed_all[::2])
        target = EmpiricalCircleMeasure.from_samples(coords1[::2])
        if len(_screened(np.array([x1]), (pushed, target), bandwidth)) == 0:
            skipped += 1
            continue
        held_out = _screened(pushed_all[1::2], (pushed, target), bandwidth)
        take = min(EVAL_POINTS, len(held_out))
        queries = np.concatenate(
            [[x1], stream.rng.choice(held_out, size=take, replace=False)]
        ) if take else np.array([x1])
        vals = (np.log(kde_density(pushed, queries, bandwidth))
                - np.log(kde_density(target, queries, bandwidth)))
        kappas.append(vals.mean())
    if skipped > 0.1 * orbit_samples or not kappas:
        raise BandwidthTooSmall(
            f"{skipped} of {orbit_samples} realizations put x_1 where "
            f"fewer than {KDE_MIN_NEIGHBORS} of {tail_replicas // 2} samples "
            f"sit within bandwidth {bandwidth:g}")
    kappas = np.asarray(kappas)
    return KappaEstimate(
        kappa=float(kappas.mean()),
        stderr=float(kappas.std(ddof=1) / np.sqrt(len(kappas))),
        method="density", fiber_index=i,
        diagnostics={"effective_samples": len(kappas),
                     "undersampled_skips": skipped,
                     "eval_points": EVAL_POINTS, "bandwidth": bandwidth,
                     "pin_length": pin_length, "tail_replicas": tail_replicas,
                     "pin_diagnostic": diag})


def _isometric_fiber_action(trace):
    """Per replica: True when every step's fiber map has unit metric derivative."""
    logs = np.abs(np.log(fiber_map_derivative(trace.maps, trace.x[:, :-1])))
    return np.max(logs, axis=1) < 1e-9


def kappa_interval_estimator(spec, fiber_index, n=100, replicas=100,
                             sampler=None, tail_replicas=10_000,
                             realization_burnin=1000, lookahead=600,
                             stable_tol=0.05):
    """Entropy via pool masses of pulled-forward stationary intervals.

    kappa_r = (log mass_{-n}(I_{-n}) - log mass_0(J_n)) / n over replicas
    whose interval carries at least half the pool mass at time -n.
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
    unconditioned fiber-coordinate measure, which scales like the
    conditionals do at the interval's scale; the residual bias is the
    O(1/n) local-density offset shared with every interval method.  The
    replicas are one stack on one stream: each burns in
    ``realization_burnin`` steps and runs its window [-n, lookahead].

    Isometric fiber actions have no stable line; there any fixed arc is
    mass-preserved in law, so one anchored at x substitutes and the
    estimator correctly reads ~0.  Non-isometric replicas whose future
    window cannot certify the stable line are dropped and counted; the
    certificate depends only on maps after time 0, so the drop is
    independent of the masses measured on [-n, 0].  The atomic gate reads
    the first replica that survives these drops.
    """
    sampler = sampler or SeededSampler(0)
    i = fiber_index
    pool_a = stationary_flag_pool(spec, tail_replicas, TAIL_BURNIN, sampler.child(1))
    pool_b = stationary_flag_pool(spec, tail_replicas, TAIL_BURNIN, sampler.child(2))
    trace = stationary_orbit(spec, i, n + lookahead, realization_burnin,
                             sampler.child(10), t_end=lookahead,
                             replicas=replicas)
    _, y, resolution = stable_coordinates(trace, lookahead=lookahead)
    x, y = trace.x[:, 0], y[:, 0]
    resolved = resolution <= stable_tol
    lost = ~resolved & ~_isometric_fiber_action(trace)
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
        m_minus = EmpiricalCircleMeasure.from_samples(coords_minus)
        mass_i = m_minus.arc_mass(x[r] + lo[j], hi[j] - lo[j])
        if mass_i < 0.5:
            rejected += 1
            continue
        coords_zero = fiber_coordinates(pool_b, trace.frames[r, n], i)
        m_zero = EmpiricalCircleMeasure.from_samples(coords_zero)
        mass_j = m_zero.arc_mass(images.anchor[j] + images.lo[j],
                                 images.hi[j] - images.lo[j])
        if mass_j <= 0:
            zero_mass += 1
            continue
        accepted.append((np.log(mass_i) - np.log(mass_j)) / n)
    degenerate = int(np.count_nonzero(coincide))
    unresolved = int(np.count_nonzero(lost))
    if not accepted:
        raise NoAcceptedReplicas(
            f"all {replicas} replicas rejected (mass filter {rejected}, "
            f"empty image {zero_mass}, degenerate {degenerate}, "
            f"unresolved stable line {unresolved})")
    accepted = np.asarray(accepted)
    stderr = (float(accepted.std(ddof=1) / np.sqrt(len(accepted)))
              if len(accepted) > 1 else float("inf"))
    return KappaEstimate(
        kappa=float(accepted.mean()), stderr=stderr,
        method="interval", fiber_index=i,
        diagnostics={"effective_samples": len(accepted), "n": n,
                     "acceptance_rate": len(accepted) / replicas,
                     "mass_filter_rejections": rejected,
                     "empty_image_replicas": zero_mass,
                     "degenerate_replicas": degenerate,
                     "unresolved_replicas": unresolved})


def furstenberg_entropy_d2(spec, tail_replicas=10_000, orbit_samples=200,
                           bandwidth=0.05, sampler=None):
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
    matrices of their blocks' mean log ratios.  Queries with fewer than
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
    sampler = sampler or SeededSampler(0)
    # one read of every replica: only the line of each flag is used
    x = stationary_lines(spec, tail_replicas, TAIL_BURNIN, tail_replicas,
                         sampler.child(1))
    _atomic_gate(x, f"{spec.name} stationary measure")
    if not 2 <= orbit_samples <= tail_replicas:
        raise ValueError("orbit_samples must lie between 2 and tail_replicas")
    mats = sample_batch(spec, sampler.child(2), orbit_samples)
    owner = np.arange(len(x)) % orbit_samples
    n_groups = min(JACKKNIFE_GROUPS, orbit_samples)
    group = owner % n_groups
    h = float(bandwidth)
    # per-matrix mean log ratios: with every replica, and with each
    # jackknife group's replicas left out of the kernel sums
    owners = []
    full = []
    left_out = []
    queries = 0
    dropped = 0
    for r, a in enumerate(mats):
        image = fiber_map_image(a, x)
        asked = np.flatnonzero(owner == r)
        # each query's own replica is left out of both kernel sums
        sp, cp = kernel_sums(image, image[asked], h, labels=group,
                             n_labels=n_groups, exclude=asked)
        st, ct = kernel_sums(x, image[asked], h, labels=group,
                             n_labels=n_groups, exclude=asked)
        ok = np.minimum(cp.sum(1) - cp.max(1),
                        ct.sum(1) - ct.max(1)) >= KDE_MIN_NEIGHBORS
        queries += len(asked)
        dropped += int(np.count_nonzero(~ok))
        if not ok.any():
            continue
        sp, st = sp[ok], st[ok]
        tp, tt = sp.sum(1), st.sum(1)
        owners.append(r % n_groups)
        full.append(np.mean(np.log(tp) - np.log(tt)))
        left_out.append(np.mean(np.log(tp[:, None] - sp)
                                - np.log(tt[:, None] - st), axis=0))
    if dropped > 0.1 * queries:
        raise BandwidthTooSmall(
            f"{dropped} of {queries} queries have fewer than "
            f"{KDE_MIN_NEIGHBORS} of {tail_replicas} samples within "
            f"bandwidth {h:g}")
    owners = np.array(owners)
    left_out = np.array(left_out)
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


def conditional_independence_diagnostic(spec, fiber_index, pin_length=50,
                                        replicas=200, sampler=None,
                                        future_steps=400):
    """Correlation between past-determined x and future-determined y.

    Replicas share the pinned recent past (pinning the reference fiber)
    but draw independent remote pasts and independent futures.  Under the
    conditional independence statement the correlation between the two
    fiber coordinates drops as the pin grows; reported as the largest
    absolute correlation between the doubled-angle embeddings.
    """
    sampler = sampler or SeededSampler(0)
    i = fiber_index
    pinned = sample_batch(spec, sampler.child(0), pin_length)
    pool = stationary_flag_pool(spec, replicas, TAIL_BURNIN, sampler.child(1))
    trace = forward_orbit(spec, push_flags(pinned, pool), future_steps,
                          sampler.child(2), fiber_index=i)
    # no certificate: the correlation is read whatever the resolution
    _, y, _ = stable_coordinates(trace, lookahead=future_steps)
    xs, ys = trace.x[:, 0], y[:, 0]
    ex = np.stack([np.cos(2 * xs), np.sin(2 * xs)])
    ey = np.stack([np.cos(2 * ys), np.sin(2 * ys)])
    rho = 0.0
    for a in ex:
        for b in ey:
            if a.std() > 1e-12 and b.std() > 1e-12:
                rho = max(rho, abs(float(np.corrcoef(a, b)[0, 1])))
    return {"pin_length": pin_length, "replicas": replicas,
            "max_abs_corr": rho}


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
        slack = 2.0 * float(np.hypot(self.kappa_stderr, self.gap_stderr))
        return self.kappa <= self.gap + slack

    @property
    def zero_consistent(self):
        return abs(self.kappa) <= 2.0 * self.kappa_stderr

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


def _slope_distribution(measure, rng, base_points):
    """Local slopes at up to ``base_points`` sample points, and the skips.

    The points are drawn without replacement from ``rng``; their slopes
    come from one batched fit (``local_slopes``), which agrees with
    ``local_dimension`` point by point.  A point ``local_dimension`` would
    refuse with InsufficientMass is skipped and counted.
    """
    idx = rng.choice(len(measure.points),
                     size=min(base_points, len(measure.points)), replace=False)
    slopes = local_slopes(measure, measure.points[idx])
    fitted = ~np.isnan(slopes)
    return slopes[fitted], int(np.count_nonzero(~fitted))


def dimension_formula_report(spec, fiber_index, spectrum, kappa, sampler=None,
                             base_points=200, stationary_samples=100_000,
                             pin_length=None, tail_replicas=10_000,
                             burnin=1000):
    """Local dimension of the fiber measures against kappa over gap.

    ``spectrum`` (a SpectrumEstimate) gives the gap and ``kappa`` (a
    KappaEstimate of fiber ``fiber_index``) the entropy; the report does
    not estimate either.  It refuses (HypothesisNotMet) when kappa <=
    SIGNIFICANCE * stderr; a dimension number under a failed hypothesis
    would be noise with a confident face.  The gate reads the stderr the
    kappa estimate carries, so it is only as sound as that stderr.

    The slopes are fitted on the default radius grid at up to
    ``base_points`` sample points, as ``local_dimension`` fits them, in one
    batched pass per measure (``_slope_distribution``).

    d = 2: the fiber measure is the stationary measure itself.  The
    slopes are fitted on ``stationary_samples`` angles read off
    LINE_REPLICAS independent replicas (``stationary_lines``), each read
    after ``burnin`` steps and then every THINNING steps.  Independent
    replicas rather than one orbit: on bern2 the 4 theta mode barely
    mixes (cos 4 theta has autocorrelation -0.64 at lag 5 along one
    orbit), so the points of one thinned orbit sample nu poorly, while
    reads of different replicas are independent.

    d >= 3: the slopes are taken on PIN_REALIZATIONS conditional samples
    (``conditional_fiber_sample`` with ``pin_length``, ``tail_replicas``
    and ``burnin`` as its realization burn-in), each over its own pinned
    past.
    """
    sampler = sampler or SeededSampler(0)
    i = fiber_index
    if kappa.kappa <= SIGNIFICANCE * kappa.stderr:
        raise HypothesisNotMet(
            f"kappa[{i}] = {kappa.kappa:.5f} +- {kappa.stderr:.5f} is not "
            "significantly positive; the dimension formula does not apply")
    gap = spectrum.gap(i)
    if gap <= 0:
        raise HypothesisNotMet(f"exponent gap at fiber {i} is not positive")
    rng = sampler.child(400, i).rng
    if spec.dim == 2:
        measure = EmpiricalCircleMeasure.from_samples(stationary_lines(
            spec, LINE_REPLICAS, burnin, stationary_samples,
            sampler.child(500)))
        slopes, skipped = _slope_distribution(measure, rng, base_points)
    else:
        slopes = []
        skipped = 0
        per = max(8, base_points // PIN_REALIZATIONS)
        for k in range(PIN_REALIZATIONS):
            cs = conditional_fiber_sample(
                spec, i, pin_length=pin_length, tail_replicas=tail_replicas,
                sampler=sampler.child(600, i, k), realization_burnin=burnin)
            s, sk = _slope_distribution(cs.measure, rng, per)
            slopes.append(s)
            skipped += sk
        slopes = np.concatenate(slopes)
    if len(slopes) < 8:
        raise HypothesisNotMet(
            f"only {len(slopes)} usable dimension fits (needed 8)")
    q25, q75 = np.percentile(slopes, [25, 75])
    return DimensionReport(
        spec_name=spec.name, fiber_index=i,
        kappa=kappa.kappa, kappa_stderr=kappa.stderr, gap=gap,
        predicted=kappa.kappa / gap,
        mean_slope=float(slopes.mean()), slope_iqr=float(q75 - q25),
        n_points=int(len(slopes)), skipped_points=int(skipped))
