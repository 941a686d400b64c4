import numpy as np
import pytest

from flagdim import circle, entropy, harness, measures
from flagdim.ensemble import SeededSampler, bern2, diag3eps, finite_support, rot2
from flagdim.entropy import (LINE_REPLICAS, conditional_fiber_sample,
                             conditional_independence_diagnostic,
                             dimension_formula_report, furstenberg_entropy_d2,
                             kappa_density_estimator, kappa_interval_estimator)
from flagdim.errors import (AtomicFiber, BandwidthTooSmall, HypothesisNotMet,
                            InsufficientMass, NoAcceptedReplicas)
from flagdim.dynamics import (lyapunov_spectrum, stationary_flag_pool,
                              stationary_lines)
from flagdim.measures import (EmpiricalCircleMeasure, ball_mass,
                              default_radius_grid, local_dimension,
                              local_slopes)


def test_rot2_density_kappa_zero():
    est = kappa_density_estimator(rot2(), 1, tail_replicas=4000,
                                  orbit_samples=50, bandwidth=0.08,
                                  sampler=SeededSampler(30))
    assert abs(est.kappa) <= max(2.5 * est.stderr, 0.01)
    assert est.method == "density"
    assert est.diagnostics["pin_length"] == 0
    assert est.diagnostics["undersampled_skips"] <= 5


def test_rot2_interval_kappa_zero():
    est = kappa_interval_estimator(rot2(), 1, n=60, replicas=40,
                                   tail_replicas=4000, lookahead=100,
                                   sampler=SeededSampler(31))
    assert abs(est.kappa) <= max(3 * est.stderr, 5e-3)
    assert est.diagnostics["acceptance_rate"] > 0.8


def test_bern2_conditional_is_stationary_measure():
    # d = 2 has a trivial partial flag, so the conditional sample with no
    # pin reproduces the stationary fiber-coordinate measure
    from flagdim.measures import EmpiricalCircleMeasure, wasserstein_circle
    spec = bern2()
    cond = conditional_fiber_sample(spec, 1, tail_replicas=4000,
                                    sampler=SeededSampler(32))
    assert cond.pin_length == 0
    pool = stationary_flag_pool(spec, 4000, 300, SeededSampler(33))
    ang = np.mod(np.arctan2(pool[:, 1, 0], pool[:, 0, 0]), circle.HALF_TURN)
    direct = EmpiricalCircleMeasure.from_samples(ang)
    assert wasserstein_circle(cond.measure, direct) < 0.03
    assert cond.diagnostic < 0.03


def test_pin_length_defaults():
    c2 = conditional_fiber_sample(bern2(), 1, tail_replicas=64,
                                  sampler=SeededSampler(34))
    assert c2.pin_length == 0
    c3 = conditional_fiber_sample(diag3eps(), 1, tail_replicas=64,
                                  sampler=SeededSampler(35))
    assert c3.pin_length == 60


def test_rot2_conditional_uniform():
    # Haar rotations leave the uniform measure invariant on the fiber
    cond = conditional_fiber_sample(rot2(), 1, tail_replicas=8000,
                                    sampler=SeededSampler(36))
    pts = np.sort(cond.measure.points)
    n = len(pts)
    grid = (np.arange(n) + 0.5) / n * circle.HALF_TURN
    ks = np.max(np.abs(pts - grid)) / circle.HALF_TURN
    assert ks < 0.025


def test_atomic_fiber_gate():
    # a single hyperbolic atom collapses the conditional to a point mass
    one = finite_support("one", [np.diag([2.0, 0.5])], [1.0])
    cond = conditional_fiber_sample(one, 1, tail_replicas=200,
                                    sampler=SeededSampler(37))
    assert np.ptp(cond.measure.points) == 0.0
    with pytest.raises(AtomicFiber):
        kappa_density_estimator(one, 1, tail_replicas=200, orbit_samples=5,
                                sampler=SeededSampler(38))
    # tilt the axes so the stable line certifies and the gate is reached
    c, s = np.cos(0.3), np.sin(0.3)
    q = np.array([[c, -s], [s, c]])
    tilted = finite_support("tilted", [q @ np.diag([2.0, 0.5]) @ q.T], [1.0])
    with pytest.raises(AtomicFiber):
        kappa_interval_estimator(tilted, 1, n=20, replicas=5,
                                 tail_replicas=200, lookahead=40,
                                 sampler=SeededSampler(39))


def test_bandwidth_gate():
    with pytest.raises(BandwidthTooSmall):
        kappa_density_estimator(bern2(), 1, tail_replicas=400,
                                orbit_samples=10, bandwidth=1e-6,
                                sampler=SeededSampler(40))


def test_scaling_invariance():
    # multiplying every atom by a positive constant changes no flag and
    # no fiber map, so the estimate is bit-identical at equal seeds
    spec = bern2()
    scaled = finite_support("scaled", [3.0 * a for a in spec.params["atoms"]],
                            spec.params["probs"])
    a = kappa_density_estimator(spec, 1, tail_replicas=1500, orbit_samples=20,
                                bandwidth=0.06, sampler=SeededSampler(41))
    b = kappa_density_estimator(scaled, 1, tail_replicas=1500, orbit_samples=20,
                                bandwidth=0.06, sampler=SeededSampler(41))
    assert a.kappa == pytest.approx(b.kappa, rel=1e-9, abs=1e-12)
    assert a.stderr == pytest.approx(b.stderr, rel=1e-9, abs=1e-12)


def test_furstenberg_matches_density_route_d2():
    spec = bern2()
    fur = furstenberg_entropy_d2(spec, tail_replicas=8000, orbit_samples=300,
                                 bandwidth=0.03, sampler=SeededSampler(42))
    den = kappa_density_estimator(spec, 1, tail_replicas=8000,
                                  orbit_samples=60, bandwidth=0.03,
                                  sampler=SeededSampler(43))
    assert fur.kappa > 0
    assert den.kappa > 0
    scale = max(fur.kappa, den.kappa)
    assert abs(fur.kappa - den.kappa) < max(0.25 * scale,
                                            3 * np.hypot(fur.stderr, den.stderr))


def test_diag3eps_density_respects_gap_bound():
    spec = diag3eps()
    spectrum = lyapunov_spectrum(spec, 8000, replicas=32,
                                 sampler=SeededSampler(44))
    est = kappa_density_estimator(spec, 1, tail_replicas=3000,
                                  orbit_samples=30, bandwidth=0.03,
                                  sampler=SeededSampler(45))
    bound = spectrum.gap(1) + 2 * np.hypot(est.stderr, spectrum.gap_stderr(1))
    assert est.kappa <= bound
    assert est.kappa >= -2 * est.stderr


def test_interval_estimator_diag3eps_positive():
    spec = diag3eps()
    est = kappa_interval_estimator(spec, 2, n=80, replicas=30,
                                   tail_replicas=2500, lookahead=900,
                                   sampler=SeededSampler(46))
    assert est.kappa > 4 * est.stderr
    # measured gap at fiber 2 is about 0.029; the estimate should sit on
    # that scale, not an order off
    assert 0.012 < est.kappa < 0.05
    assert est.diagnostics["acceptance_rate"] > 0.5


def test_interval_estimator_gates_on_first_surviving_replica():
    # the first replica's stable line stays unresolved at this tolerance;
    # the atomic gate moves to the next replica
    est = kappa_interval_estimator(bern2(), 1, n=20, replicas=6,
                                   tail_replicas=300, lookahead=200,
                                   stable_tol=0.02, realization_burnin=100,
                                   sampler=SeededSampler(3))
    assert est.diagnostics["unresolved_replicas"] >= 1
    assert "pin_diagnostic" not in est.diagnostics
    assert np.isfinite(est.kappa)


def test_interval_estimator_rejects_unresolvable_depth():
    # at n = 800 the image interval is ~1e-8 of the circle, far below the
    # resolution of a 150-point pool, so every replica lands empty
    with pytest.raises(NoAcceptedReplicas):
        kappa_interval_estimator(bern2(), 1, n=800, replicas=4,
                                 tail_replicas=150, lookahead=600,
                                 sampler=SeededSampler(47))


def test_conditional_independence_bern2():
    out = conditional_independence_diagnostic(bern2(), 1, pin_length=50,
                                              replicas=2000, future_steps=150,
                                              sampler=SeededSampler(48))
    assert out["max_abs_corr"] < 0.07


def test_conditional_independence_diag3eps():
    out = conditional_independence_diagnostic(diag3eps(), 1, pin_length=50,
                                              replicas=1200, future_steps=150,
                                              sampler=SeededSampler(49))
    assert out["max_abs_corr"] < 0.09


def test_gap_inequality_report_lines():
    cfg = harness.load_config(None, dict(
        ensemble="bern2", seed=50, spectrum_steps=6000, tail_replicas=2000,
        orbit_samples=25, bandwidth=0.04, interval_n=60, replicas=40),
        environ={})
    rep = harness.run_entropy(cfg)
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
    kappa = furstenberg_entropy_d2(spec, sampler=sampler.child(200), **density)
    return sampler, spectrum, kappa


def test_dimension_report_refuses_zero_kappa():
    sampler, spectrum, kappa = _report_inputs(
        rot2(), 51, 4000, tail_replicas=2000, orbit_samples=25,
        bandwidth=0.08)
    with pytest.raises(HypothesisNotMet):
        dimension_formula_report(rot2(), 1, spectrum, kappa, sampler=sampler,
                                 stationary_samples=4000, base_points=20)


def test_dimension_report_bern2_smoke():
    sampler, spectrum, kappa = _report_inputs(
        bern2(), 52, 8000, tail_replicas=6000, orbit_samples=60,
        bandwidth=0.03)
    rep = dimension_formula_report(bern2(), 1, spectrum, kappa,
                                   sampler=sampler,
                                   stationary_samples=30_000, base_points=60)
    assert 0 < rep.predicted < 1.5
    assert rep.mean_slope > 0
    assert rep.relative_error < 0.5
    assert rep.n_points > 40


def per_point_slopes(measure, rng, base_points):
    """The report's fits one ``local_dimension`` call per point: the slopes
    in draw order and the count of InsufficientMass skips."""
    slopes, skipped = [], 0
    for k in rng.choice(len(measure.points),
                        size=min(base_points, len(measure.points)),
                        replace=False):
        try:
            slopes.append(local_dimension(measure, float(measure.points[k])).slope)
        except InsufficientMass:
            skipped += 1
    return np.asarray(slopes), skipped


def test_batched_slope_fits_match_local_dimension():
    # bern2's measure as the d = 2 report builds it at the default budget
    n = 100_000
    stationary = EmpiricalCircleMeasure.from_samples(stationary_lines(
        bern2(), LINE_REPLICAS, 1000, n, SeededSampler(500)))
    assert len(stationary) == n
    rng = np.random.default_rng(42)
    # an atom of weight 0.95 alone in every ball around it, and a thin rest
    atom = EmpiricalCircleMeasure.from_samples(np.concatenate(
        [np.full(950, 0.3), rng.uniform(1.5, 2.5, 50)]))
    # so few points that most levels fall under the mass floor
    small = EmpiricalCircleMeasure.from_samples(rng.uniform(0, np.pi, 30))
    near_ends = np.concatenate([stationary.points[:100],
                                stationary.points[-100:]])
    assert np.all(circle.distance(near_ends, 0.0) < np.pi / 8)
    grid = default_radius_grid()
    fits = flat = refused = 0
    for m, x in ((stationary, stationary.points[rng.choice(n, 200, replace=False)]),
                 (stationary, near_ends),
                 (atom, atom.points[945:]), (small, small.points)):
        masses = measures._ball_masses(m, x, grid)
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
    for m in (stationary, atom, small):
        got, skipped = entropy._slope_distribution(m, SeededSampler(43).rng, 200)
        want, want_skipped = per_point_slopes(m, SeededSampler(43).rng, 200)
        assert skipped == want_skipped
        assert len(got) == len(want)
        assert np.max(np.abs(got - want), initial=0.0) < 1e-12
