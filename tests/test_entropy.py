from dataclasses import replace

import numpy as np
import pytest

from flagdim import circle, entropy, harness, measures
from flagdim.ensemble import (SeededSampler, bern2, diag3eps, finite_support,
                              iso2, iso3, rot2)
from flagdim.entropy import (KappaEstimate, conditional_fiber_sample,
                             dimension_formula_report, furstenberg_entropy_d2,
                             kappa_density_estimator, kappa_interval_estimator)
from flagdim.errors import (AtomicFiber, BandwidthTooSmall, HypothesisNotMet,
                            InsufficientMass, NoAcceptedReplicas)
from flagdim.dynamics import (SpectrumEstimate, forward_orbit,
                              lyapunov_spectrum, push_flags,
                              stable_coordinates, stationary_flag_pool,
                              stationary_lines, stationary_orbit)
from flagdim.flagcore import fiber_coordinates, fiber_map_derivative
from flagdim.measures import (EmpiricalCircleMeasure, ball_mass,
                              default_radius_grid, local_dimension,
                              local_slopes)

from density_route_reference import density_route_reference
from furstenberg_d2_reference import furstenberg_d2_reference
from independence_reference import conditional_independence_diagnostic
from test_cli import diag4eps


def _pools(spec, size, *streams):
    """One pool of ``size`` tail flags per stream, as the harness draws
    its banks; a stream named twice draws its pools in turn."""
    return [stationary_flag_pool(spec, size, entropy.TAIL_BURNIN, s)
            for s in streams]


def _pair(spec, size, sampler):
    """The pool pair of the density and interval routes, on
    ``sampler.child(1)`` and ``sampler.child(2)``."""
    return _pools(spec, size, sampler.child(1), sampler.child(2))


def _report_samples(spec, fiber, sampler, size=None):
    """The samples the harness hands the report of ``fiber`` at the
    default burn-in and pin, ``sampler`` being the report's stream: for
    d >= 3 over PIN_REALIZATIONS pools of ``size`` tail flags, drawn in
    turn on ``sampler.child(600, fiber).child(1)``."""
    cfg = harness.load_config(None, {"seed": 0}, environ={})
    return harness._dimension_samples(
        cfg, spec, fiber, sampler, lambda: _pools(
            spec, size,
            *[sampler.child(600, fiber, 1)] * harness.PIN_REALIZATIONS))


def test_rot2_density_kappa_zero():
    s = SeededSampler(30)
    est = kappa_density_estimator(rot2(), 1, _pair(rot2(), 4000, s), s,
                                  orbit_samples=50, bandwidth=0.08)
    assert abs(est.kappa) <= max(2.5 * est.stderr, 0.01)
    assert est.method == "density"
    assert est.diagnostics["pin_length"] == 0
    assert est.diagnostics["undersampled_skips"] <= 5


def test_rot2_interval_kappa_zero():
    s = SeededSampler(31)
    est = kappa_interval_estimator(rot2(), 1, _pair(rot2(), 4000, s), s,
                                   n=60, replicas=40, lookahead=100)
    assert abs(est.kappa) <= max(3 * est.stderr, 5e-3)
    assert est.diagnostics["acceptance_rate"] > 0.8


def _window_and_lookahead(spec):
    """An interval leg's window over [-40, 0] and its 300-step
    continuation, both kept at fold ends."""
    stream = SeededSampler(43)
    trace = stationary_orbit(spec, 1, 40, 100, stream, replicas=4)
    return trace, forward_orbit(spec, trace.bases[:, -1], 300, stream)


def test_isometry_check_reads_the_lookahead_folds():
    trace, ahead = _window_and_lookahead(rot2())
    assert entropy._isometric_fiber_action(trace, ahead).all()
    assert not entropy._isometric_fiber_action(
        *_window_and_lookahead(bern2())).any()
    # behind an isometric window, one fold map of replica 1's continuation
    # made to stretch by 1 + 1e-6 at its start coordinate: it fixes that
    # direction u and scales its normal
    theta = ahead.x[1, 2]
    u = circle.unit_vector(theta)
    frame = np.column_stack([u, [-u[1], u[0]]])
    bent = ahead.maps.copy()
    bent[1, 2] = bent[1, 2] @ frame @ np.diag([1.0, 1.0 + 1e-6]) @ frame.T
    assert fiber_map_derivative(bent[1, 2], theta) == pytest.approx(
        1.0 + 1e-6, rel=1e-9)
    assert entropy._isometric_fiber_action(
        trace, replace(ahead, maps=bent)).tolist() == [True, False, True, True]


def test_bern2_conditional_is_stationary_measure():
    # d = 2 has a trivial partial flag, so the conditional sample with no
    # pin reproduces the stationary fiber-coordinate measure
    from flagdim.measures import EmpiricalCircleMeasure, wasserstein_circle
    spec = bern2()
    s = SeededSampler(32)
    (cond,) = conditional_fiber_sample(
        spec, 1, _pools(spec, 4000, s.child(1)), s)
    pool = stationary_flag_pool(spec, 4000, 300, SeededSampler(33))
    ang = np.mod(np.arctan2(pool[:, 1, 0], pool[:, 0, 0]), circle.HALF_TURN)
    direct = EmpiricalCircleMeasure.from_samples(ang)
    assert wasserstein_circle(EmpiricalCircleMeasure.from_samples(cond),
                              direct) < 0.03


def test_pin_length_defaults(monkeypatch):
    # both pinned estimators pin PIN_LENGTH = 60 steps when d >= 3 and
    # none when d = 2, whose partial flag is trivial; the density route's
    # window runs one step past its pin
    steps = []

    class Drawn(Exception):
        pass

    def spy(spec, i, n_steps, *args, **kwargs):
        steps.append(n_steps)
        raise Drawn
    monkeypatch.setattr(entropy, "stationary_orbit", spy)
    for spec in (bern2(), diag3eps()):
        for estimator in (conditional_fiber_sample, kappa_density_estimator):
            with pytest.raises(Drawn):
                estimator(spec, 1, [None, None], SeededSampler(0))
    assert entropy.PIN_LENGTH == 60
    assert steps == [0, 1, 60, 61]


def test_rot2_conditional_uniform():
    # Haar rotations leave the uniform measure invariant on the fiber
    s = SeededSampler(36)
    (cond,) = conditional_fiber_sample(
        rot2(), 1, _pools(rot2(), 8000, s.child(1)), s)
    pts = np.sort(cond)
    n = len(pts)
    grid = (np.arange(n) + 0.5) / n * circle.HALF_TURN
    ks = np.max(np.abs(pts - grid)) / circle.HALF_TURN
    assert ks < 0.025


def test_atomic_fiber_gate():
    # a single hyperbolic atom collapses the conditional to a point mass
    one = finite_support("one", [np.diag([2.0, 0.5])], [1.0])
    s = SeededSampler(37)
    (cond,) = conditional_fiber_sample(one, 1, _pools(one, 200, s.child(1)),
                                       s)
    assert np.ptp(cond) == 0.0
    s = SeededSampler(38)
    with pytest.raises(AtomicFiber):
        kappa_density_estimator(one, 1, _pair(one, 200, s), s,
                                orbit_samples=5)
    # tilt the axes so the stable line certifies and the gate is reached
    c, s = np.cos(0.3), np.sin(0.3)
    q = np.array([[c, -s], [s, c]])
    tilted = finite_support("tilted", [q @ np.diag([2.0, 0.5]) @ q.T], [1.0])
    s = SeededSampler(39)
    with pytest.raises(AtomicFiber):
        kappa_interval_estimator(tilted, 1, _pair(tilted, 200, s), s, n=20,
                                 replicas=5, lookahead=40)


@pytest.mark.parametrize("realizations", [3, 1])
@pytest.mark.parametrize("spec, i", [
    (diag3eps(), 1), (diag3eps(), 2), (iso3(), 2), (diag4eps(), 2),
    (diag4eps(), 3),
], ids=["1", "2", "iso3-2", "diag4eps-2", "diag4eps-3"])
def test_conditional_fiber_sample_streams(spec, i, realizations):
    # one stack of pinned pasts on child(0), one per pool; realization r
    # reads the r-th pool, in pool order, and one realization runs the
    # same stack alone.  The pins fold in one chain; each sample equals
    # its pool pushed through its own pin alone (push_flags), and a fiber
    # pushes only the columns it reads, bit for bit the pushed full flags
    burnin, tails = 200, 300
    s = SeededSampler(44)
    pools = _pools(spec, tails, *[s.child(1)] * realizations)
    got = conditional_fiber_sample(spec, i, pools, s,
                                   realization_burnin=burnin)
    trace = stationary_orbit(spec, i, 60, burnin, s.child(0),
                             replicas=realizations)
    assert len(got) == realizations
    for r, (sample, pool) in enumerate(zip(got, pools)):
        want = fiber_coordinates(push_flags(trace.draws[r], pool, spec),
                                 trace.frames[r, -1], i)
        assert np.array_equal(sample, want)


def test_density_route_reports_the_pools_it_read():
    # the pools' size is read off the pools, not a parameter
    spec, s = bern2(), SeededSampler(40)
    pools = _pair(spec, 300, s)
    est = kappa_density_estimator(spec, 1, pools, s, orbit_samples=8,
                                  bandwidth=0.3)
    assert est.diagnostics["tail_replicas"] == 300
    with pytest.raises(BandwidthTooSmall, match="of 150 samples"):
        kappa_density_estimator(spec, 1, pools, s, orbit_samples=8,
                                bandwidth=1e-6)


def test_density_refusal_counts_the_kernel_half_of_an_odd_pool():
    # a kernel half is every other pushed flag: 101 of a pool of 201, in
    # the route and in its two-pass reference alike
    spec, s = diag3eps(), SeededSampler(40)
    pools = _pair(spec, 201, s)
    size = dict(orbit_samples=4, bandwidth=1e-6, realization_burnin=50)
    for route in (kappa_density_estimator, density_route_reference):
        with pytest.raises(BandwidthTooSmall, match="of 101 samples"):
            route(spec, 1, pools, s, **size)


@pytest.mark.parametrize("fiber", [1, 2])
def test_dimension_report_d3_slopes_read_one(fiber):
    # diag3eps's conditional fiber measures have dimension 1 at the
    # report's scales: over seeds 1-40 the mean slopes read 0.953-1.034
    # on both fibers with 186-198 fitted points.  A fixed kappa keeps
    # the significance gate out of the way.
    spectrum = SpectrumEstimate(
        chi=np.array([0.0, -0.03500, -0.06389]), stderr=np.zeros(3),
        n_steps=1, burnin=0, replicas=2,
        gap_stderrs=np.array([0.0001, 0.00009]))
    kappa = KappaEstimate(kappa=1.0, stderr=0.0, method="density",
                          fiber_index=fiber)
    spec, s = diag3eps(), SeededSampler(3)
    rep = dimension_formula_report(spec, fiber, spectrum, kappa,
                                   _report_samples(spec, fiber, s, 2000), s)
    assert abs(rep.mean_slope - 1) < 0.1
    assert rep.n_points >= 150


@pytest.mark.parametrize("c", [0.3, 1.1])
def test_dimension_picks_do_not_depend_on_the_frame(c, rng):
    # a completion frame rotated by a constant moves every coordinate by
    # c; the report's fit points and the curves' centers are indices into
    # the samples in draw order, so the same points are picked
    samples = [circle.wrap(np.concatenate([rng.normal(0.2, 0.3, 1500),
                                           rng.uniform(0, np.pi, 500)]))
               for _ in range(2)]
    rotated = [circle.wrap(x + c) for x in samples]
    spectrum = SpectrumEstimate(
        chi=np.array([0.0, -0.02]), stderr=np.zeros(2), n_steps=1,
        burnin=0, replicas=2, gap_stderrs=np.array([0.0001]))
    kappa = KappaEstimate(kappa=1.0, stderr=0.0, method="density",
                          fiber_index=1)
    base, turned = (dimension_formula_report(bern2(), 1, spectrum, kappa, x,
                                             SeededSampler(3))
                    for x in (samples, rotated))
    assert abs(base.mean_slope - turned.mean_slope) < 1e-12
    assert abs(base.slope_iqr - turned.slope_iqr) < 1e-12
    assert base.n_points == turned.n_points
    assert base.skipped_points == turned.skipped_points
    curves = [harness._ball_curves(1, x[0], SeededSampler(4))
              for x in (samples, rotated)]
    for (_, _, _, mass), (_, _, _, turned_mass) in zip(*curves):
        assert np.array_equal(mass, turned_mass)


def test_bandwidth_gate():
    s = SeededSampler(40)
    with pytest.raises(BandwidthTooSmall):
        kappa_density_estimator(bern2(), 1, _pair(bern2(), 400, s), s,
                                orbit_samples=10, bandwidth=1e-6)


@pytest.mark.parametrize("orbit_samples", [1, 301])
def test_d2_route_checks_orbit_samples_before_sampling(orbit_samples,
                                                       monkeypatch):
    # a bad count is refused before the stationary sample is drawn
    def drawn(*args):
        raise AssertionError("stationary sample drawn")
    monkeypatch.setattr(entropy, "stationary_lines", drawn)
    with pytest.raises(ValueError, match="orbit_samples must lie between"):
        furstenberg_entropy_d2(bern2(), SeededSampler(40), tail_replicas=300,
                               orbit_samples=orbit_samples)


@pytest.mark.parametrize("orbit_samples", [0, 1])
def test_density_route_checks_orbit_samples_before_sampling(orbit_samples,
                                                            monkeypatch):
    # one realization has no spread, and its NaN stderr would pass the
    # dimension report's significance gate; refused before any draw
    spec, s = diag3eps(), SeededSampler(5)
    pools = _pair(spec, 200, s)

    def drawn(*args, **kwargs):
        raise AssertionError("realizations drawn")
    monkeypatch.setattr(entropy, "stationary_orbit", drawn)
    # the message states the one check made, a lower bound: the count of
    # realizations is not tied to the pools' size
    with pytest.raises(ValueError) as refused:
        kappa_density_estimator(spec, 1, pools, s,
                                orbit_samples=orbit_samples)
    assert str(refused.value) == (
        f"orbit_samples must be at least 2, got {orbit_samples}")


def test_scaling_invariance():
    # multiplying every atom by a positive constant changes no flag and
    # no fiber map, so the estimate is bit-identical at equal seeds
    spec = bern2()
    scaled = finite_support("scaled", [3.0 * a for a in spec.params["atoms"]],
                            spec.params["probs"])
    s = SeededSampler(41)
    a = kappa_density_estimator(spec, 1, _pair(spec, 1500, s), s,
                                orbit_samples=20, bandwidth=0.06)
    b = kappa_density_estimator(scaled, 1, _pair(scaled, 1500, s), s,
                                orbit_samples=20, bandwidth=0.06)
    assert a.kappa == pytest.approx(b.kappa, rel=1e-9, abs=1e-12)
    assert a.stderr == pytest.approx(b.stderr, rel=1e-9, abs=1e-12)


def _three_atoms():
    """bern2's two atoms and a third with its own stretch and turn."""
    c, s = np.cos(2.0), np.sin(2.0)
    third = np.array([[c, -s], [s, c]]) @ np.diag([np.exp(0.25),
                                                   np.exp(-0.25)])
    return finite_support("three2", [*bern2().params["atoms"], third],
                          [0.4, 0.4, 0.2])


@pytest.mark.parametrize("spec, size, passes", [
    (bern2(), (2000, 40, 0.01), 3),       # 132 queries dropped
    (bern2(), (1000, 500, 0.02), 3),      # two matrices drop every query
    (iso2(), (800, 24, 0.05), 25),        # Haar draws are all distinct
    (_three_atoms(), (2000, 40, 0.01), 4),
], ids=["bern2", "bern2-empty-blocks", "iso2", "three-atoms"])
def test_d2_route_equals_the_per_matrix_reference(spec, size, passes,
                                                  monkeypatch):
    # the route scores each distinct matrix with one pushed sample and
    # one kernel pass; the per-matrix loop it replaced reads the same
    # per-query sums and reduces in the same order, so nothing moves
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return measures.kernel_sums(*args, **kwargs)
    monkeypatch.setattr(entropy, "kernel_sums", counted)
    got = furstenberg_entropy_d2(spec, SeededSampler(7), *size)
    want = furstenberg_d2_reference(spec, SeededSampler(7), *size)
    assert got.kappa == want.kappa
    assert got.stderr == want.stderr
    assert got.diagnostics == want.diagnostics
    # one pass for nu, then one per distinct matrix; each replica is
    # queried once in each
    assert len(calls) == passes
    assert calls[0] == sum(calls[1:]) == size[0]


@pytest.mark.parametrize("spec, fiber", [
    (diag3eps(), 1), (diag3eps(), 2), (bern2(), 1), (iso3(), 1),
    (diag4eps(), 2), (diag4eps(), 3),
], ids=["diag3eps-1", "diag3eps-2", "bern2-pin0", "iso3-1", "diag4eps-2",
        "diag4eps-3"])
def test_density_route_equals_the_two_pass_reference(spec, fiber,
                                                     monkeypatch):
    # one kernel pass per half over x_1 and every held-out candidate both
    # gates and scores; the screen-then-score loop it replaced draws the
    # same queries and reads the same per-query sums, so nothing moves.
    # The route folds all pins in one chain, the reference pushes each
    # pool through its own pin (push_flags), and the pools are full flags
    # where the route pushes their leading columns
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return measures.kernel_sums(*args, **kwargs)
    monkeypatch.setattr(entropy, "kernel_sums", counted)
    s = SeededSampler(7)
    pools = _pair(spec, 1000, s)
    size = dict(orbit_samples=12, bandwidth=0.1, realization_burnin=200)
    got = kappa_density_estimator(spec, fiber, pools, s, **size)
    want = density_route_reference(spec, fiber, pools, s, **size)
    assert got.kappa == want.kappa
    assert got.stderr == want.stderr
    assert got.diagnostics == want.diagnostics
    assert got.diagnostics["effective_samples"] >= 10
    # two passes per realization, each over x_1 and the 500 candidates
    assert calls == [501] * 2 * 12


def test_d2_route_reads_the_iso2_entropy():
    # iso2 is Haar times diag(e^0.15, e^-0.15): nu is uniform and kappa
    # is the gap, 2 log cosh 0.15, exactly.  At this budget (the default
    # verify's) seeds 1-16 read a mean of 0.02151, each within 1.7 stderr
    est = furstenberg_entropy_d2(iso2(), SeededSampler(7).child(2, 1),
                                 tail_replicas=10_000, orbit_samples=100,
                                 bandwidth=0.05)
    exact = 2 * np.log(np.cosh(0.15))
    assert abs(est.kappa - exact) < 3 * est.stderr


def test_furstenberg_matches_density_route_d2():
    spec = bern2()
    fur = furstenberg_entropy_d2(spec, SeededSampler(42), tail_replicas=8000,
                                 orbit_samples=300, bandwidth=0.03)
    s = SeededSampler(43)
    den = kappa_density_estimator(spec, 1, _pair(spec, 8000, s), s,
                                  orbit_samples=60, bandwidth=0.03)
    assert fur.kappa > 0
    assert den.kappa > 0
    scale = max(fur.kappa, den.kappa)
    assert abs(fur.kappa - den.kappa) < max(0.25 * scale,
                                            3 * np.hypot(fur.stderr, den.stderr))


def test_diag3eps_density_respects_gap_bound():
    spec = diag3eps()
    spectrum = lyapunov_spectrum(spec, 8000, replicas=32,
                                 sampler=SeededSampler(44))
    s = SeededSampler(45)
    est = kappa_density_estimator(spec, 1, _pair(spec, 3000, s), s,
                                  orbit_samples=30, bandwidth=0.03)
    bound = spectrum.gap(1) + 2 * np.hypot(est.stderr, spectrum.gap_stderr(1))
    assert est.kappa <= bound
    assert est.kappa >= -2 * est.stderr


def test_interval_estimator_diag3eps_positive():
    spec = diag3eps()
    s = SeededSampler(46)
    est = kappa_interval_estimator(spec, 2, _pair(spec, 2500, s), s, n=80,
                                   replicas=30, lookahead=900)
    assert est.kappa > 4 * est.stderr
    # measured gap at fiber 2 is about 0.029; the estimate should sit on
    # that scale, not an order off
    assert 0.012 < est.kappa < 0.05
    assert est.diagnostics["acceptance_rate"] > 0.5


def _interval_resolutions(spec, sampler, replicas, n, lookahead,
                          realization_burnin):
    """The trace and stable-line resolutions of the replicas of
    ``kappa_interval_estimator`` on ``sampler``, drawn as it draws them: a
    window of n steps and its lookahead on ``sampler.child(10)``."""
    stream = sampler.child(10)
    trace = stationary_orbit(spec, 1, n, realization_burnin, stream,
                             replicas=replicas)
    ahead = forward_orbit(spec, trace.bases[:, -1], lookahead, stream, 1)
    return trace, stable_coordinates(trace, ahead)[1]


def _between(resolutions, k):
    """A stable-line tolerance that certifies the k best-resolved
    replicas alone: midway between the k-th and (k + 1)-th resolution."""
    return float(np.mean(np.sort(resolutions)[k - 1: k + 1]))


def test_interval_estimator_gates_on_first_surviving_replica(monkeypatch):
    # the first replica's stable line stays unresolved at a tolerance
    # between its resolution and the next better one, on the first seed
    # from 3 whose first replica two others resolve better; the atomic
    # gate moves to the first replica that resolves
    kwargs = dict(n=20, lookahead=200, realization_burnin=100)
    for seed in range(3, 23):
        trace, res = _interval_resolutions(bern2(), SeededSampler(seed), 6,
                                           **kwargs)
        rank = int(np.count_nonzero(res < res[0]))
        if rank >= 2:
            break
    assert rank >= 2, "no seed in 3..22 resolves two replicas better"
    monkeypatch.setattr(entropy, "INTERVAL_STABLE_TOL", _between(res, rank))
    gated = []
    real_gate = entropy._atomic_gate

    def gate(coords, context):
        gated.append(coords)
        real_gate(coords, context)
    monkeypatch.setattr(entropy, "_atomic_gate", gate)
    s = SeededSampler(seed)
    pools = _pair(bern2(), 300, s)
    est = kappa_interval_estimator(bern2(), 1, pools, s, replicas=6,
                                   **kwargs)
    assert est.diagnostics["unresolved_replicas"] >= 1
    assert "pin_diagnostic" not in est.diagnostics
    assert np.isfinite(est.kappa)
    first = int(np.argmax(res < res[0]))
    assert len(gated) == 1 and np.array_equal(
        gated[0], fiber_coordinates(pools[0], trace.frames[first, 0], 1))


def test_interval_pool_mass_matches_arc_mass(rng):
    # the interval route counts its pools unsorted; arcs of every length
    # from starts on both sides of the circle, wrapping ones included, and
    # arcs from one sample point to another, whose ends sit on points
    coords = rng.uniform(0, np.pi, 3000)
    m = EmpiricalCircleMeasure.from_samples(coords)
    ends = rng.choice(coords, size=(2, 3000))
    starts = np.concatenate([rng.uniform(-np.pi, 2 * np.pi, 200), ends[0]])
    lengths = np.concatenate([rng.uniform(0, 1.2 * np.pi, 200),
                              circle.wrap(ends[1] - ends[0])])
    assert np.count_nonzero(circle.wrap(starts) + lengths >= np.pi) > 1000
    on_points = np.isin(circle.wrap(starts) + lengths,
                        np.concatenate([coords, coords + np.pi]))
    assert np.count_nonzero(on_points) > 1000
    masses = m.arc_mass(starts, lengths)
    for start, length, mass in zip(starts, lengths, masses):
        assert measures.pool_mass(coords, start, length) == mass


def test_interval_estimator_refuses_an_estimate_from_one_replica(
        monkeypatch):
    # one accepted replica has no spread, so no stderr; it is refused
    # rather than reported with an infinite stderr.  The tolerance sits
    # between the replicas' own resolutions: of two replicas, one leaves
    # its stable line unresolved; of three, two are kept
    s = SeededSampler(6)
    args = (bern2(), 1, _pair(bern2(), 300, s), s)
    kwargs = dict(n=20, lookahead=200, realization_burnin=100)

    def certify(replicas, kept):
        _, res = _interval_resolutions(bern2(), s, replicas, **kwargs)
        monkeypatch.setattr(entropy, "INTERVAL_STABLE_TOL",
                            _between(res, kept))
    certify(3, 2)
    est = kappa_interval_estimator(*args, replicas=3, **kwargs)
    assert est.diagnostics["effective_samples"] == 2
    assert est.diagnostics["unresolved_replicas"] == 1
    certify(2, 1)
    with pytest.raises(NoAcceptedReplicas, match="1 of 2 replicas accepted"):
        kappa_interval_estimator(*args, replicas=2, **kwargs)


def test_interval_estimator_rejects_unresolvable_depth():
    # at n = 800 the image interval is ~1e-8 of the circle, far below the
    # resolution of a 150-point pool, so every replica lands empty
    with pytest.raises(NoAcceptedReplicas):
        s = SeededSampler(47)
        kappa_interval_estimator(bern2(), 1, _pair(bern2(), 150, s), s,
                                 n=800, replicas=4, lookahead=600)


def test_conditional_independence_bern2():
    rho = conditional_independence_diagnostic(bern2(), 1, pin_length=50,
                                              replicas=2000, future_steps=150,
                                              sampler=SeededSampler(48))
    assert rho < 0.07


def test_conditional_independence_diag3eps():
    rho = conditional_independence_diagnostic(diag3eps(), 1, pin_length=50,
                                              replicas=1200, future_steps=150,
                                              sampler=SeededSampler(49))
    assert rho < 0.09


def test_gap_inequality_report_lines():
    cfg = harness.load_config(None, dict(
        ensemble="bern2", seed=50, spectrum_steps=6000, tail_replicas=2000,
        orbit_samples=25, bandwidth=0.04, interval_n=60, replicas=40),
        environ={})
    rep = harness.run(cfg, "entropy")
    assert all(r.bound_satisfied for r in rep.gap_rows)
    assert 1 in rep.agreement
    text = "\n".join(rep.summary_lines())
    assert "fiber 1" in text and "relative difference" in text


def _report_inputs(spec, seed, spectrum_steps, **density):
    # the spectrum and kappa the report once estimated itself, on its
    # streams 100 and 200
    sampler = SeededSampler(seed)
    spectrum = lyapunov_spectrum(spec, spectrum_steps,
                                 sampler=sampler.child(100))
    kappa = furstenberg_entropy_d2(spec, sampler.child(200), **density)
    return sampler, spectrum, kappa


@pytest.mark.parametrize("kappa_stderr", [(1.0, 0.0), (0.0, 1.0)],
                         ids=["kappa-significant", "kappa-zero"])
@pytest.mark.parametrize("sign", [1, -1], ids=["above", "below"])
def test_dimension_report_refuses_a_gap_within_its_noise(sign, kappa_stderr):
    # an isometric ensemble's gap is exactly 0, and its estimate is
    # rounding noise of either sign; the gap gate reads that noise's
    # stderr and comes before the kappa gate, whichever way that would go
    spectrum = SpectrumEstimate(
        chi=np.array([sign * 1e-19, 0.0]), stderr=np.zeros(2), n_steps=1,
        burnin=0, replicas=2, gap_stderrs=np.array([1e-18]))
    kappa = KappaEstimate(kappa=kappa_stderr[0], stderr=kappa_stderr[1],
                          method="density", fiber_index=1)
    with pytest.raises(HypothesisNotMet, match=r"^gap\[1\] = "):
        dimension_formula_report(rot2(), 1, spectrum, kappa, None,
                                 SeededSampler(3))


@pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
def test_quartiles_are_numpy_percentiles(rng, tied):
    # every length from 1 to 60, odd and even, with and without ties: the
    # quartiles read np.percentile's values bit for bit.  Magnitudes from
    # 1e-3 to 1e3 make the two sides of numpy's interpolation round
    # differently at some quartiles, so each side is checked
    for n in range(1, 61):
        values = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
        if tied:
            values = np.round(values, 1)
        want = np.percentile(values, [25, 75])
        assert np.array_equal(entropy._quartiles(values), want)


def test_dimension_report_refuses_zero_kappa():
    sampler, spectrum, kappa = _report_inputs(
        rot2(), 51, 4000, tail_replicas=2000, orbit_samples=25,
        bandwidth=0.08)
    # the gate refuses before any measure is read
    with pytest.raises(HypothesisNotMet):
        dimension_formula_report(rot2(), 1, spectrum, kappa, None, sampler)


def test_dimension_report_bern2_smoke():
    sampler, spectrum, kappa = _report_inputs(
        bern2(), 52, 8000, tail_replicas=6000, orbit_samples=60,
        bandwidth=0.03)
    rep = dimension_formula_report(bern2(), 1, spectrum, kappa,
                                   _report_samples(bern2(), 1, sampler),
                                   sampler)
    assert 0 < rep.predicted < 1.5
    assert rep.mean_slope > 0
    assert rep.relative_error < 0.5
    assert rep.n_points > 40


def per_point_slopes(sample, rng, base_points):
    """The report's fits one ``local_dimension`` call per point: the slopes
    in draw order and the count of InsufficientMass skips."""
    measure = EmpiricalCircleMeasure.from_samples(sample)
    slopes, skipped = [], 0
    for k in rng.choice(len(sample), size=min(base_points, len(sample)),
                        replace=False):
        try:
            slopes.append(local_dimension(measure, float(sample[k])).slope)
        except InsufficientMass:
            skipped += 1
    return np.asarray(slopes), skipped


def test_batched_slope_fits_match_local_dimension():
    # bern2's measure as the d = 2 report builds it at the default budget
    n = 100_000
    samples = [stationary_lines(bern2(), harness.LINE_REPLICAS, 1000, n,
                                SeededSampler(500))]
    rng = np.random.default_rng(42)
    # an atom of weight 0.95 alone in every ball around it, and a thin rest
    samples.append(np.concatenate([np.full(950, 0.3),
                                   rng.uniform(1.5, 2.5, 50)]))
    # so few points that most levels fall under the mass floor
    samples.append(rng.uniform(0, np.pi, 30))
    stationary, atom, small = map(EmpiricalCircleMeasure.from_samples, samples)
    assert len(stationary) == n
    near_ends = np.concatenate([stationary.points[:100],
                                stationary.points[-100:]])
    assert np.all(circle.distance(near_ends, 0.0) < np.pi / 8)
    grid = default_radius_grid()
    fits = flat = refused = 0
    for m, x in ((stationary, stationary.points[rng.choice(n, 200, replace=False)]),
                 (stationary, near_ends),
                 (atom, atom.points[945:]), (small, small.points)):
        masses = ball_mass(m, x, grid)
        slopes = local_slopes(m, x)
        for p, point in enumerate(x):
            assert np.array_equal(masses[p], ball_mass(m, point, grid))
            try:
                want = local_dimension(m, point).slope
            except InsufficientMass:
                assert np.isnan(slopes[p])
                refused += 1
                continue
            assert abs(slopes[p] - want) < 1e-12
            fits += 1
            flat += slopes[p] == 0.0
    assert fits > 400 and flat >= 1 and refused >= 30
    # the report's draw: the same points, slopes and skip count
    for sample in samples:
        got, skipped = entropy._slope_distribution(sample, SeededSampler(43).rng,
                                                   200)
        want, want_skipped = per_point_slopes(sample, SeededSampler(43).rng,
                                              200)
        assert skipped == want_skipped
        assert len(got) == len(want)
        assert np.max(np.abs(got - want), initial=0.0) < 1e-12
