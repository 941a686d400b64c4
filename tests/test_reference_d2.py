"""The d = 2 estimators against the deterministic Ulam reference."""

import numpy as np
import pytest

from flagdim.dynamics import lyapunov_spectrum, stationary_lines
from flagdim.ensemble import SeededSampler, bern2, finite_support
from flagdim.entropy import LINE_REPLICAS, furstenberg_entropy_d2
from flagdim.harness import BALL_CURVE_SAMPLE

from ulam_reference import ulam_reference


@pytest.fixture(scope="module")
def bern2_reference():
    return ulam_reference(bern2(), n_cells=1024)


def _rotation(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def test_ulam_reference_rotations_are_uniform_and_flat():
    # rotations preserve the uniform measure and every vector's length
    spec = finite_support("rotations", [_rotation(0.8), _rotation(-1.3)],
                          [0.3, 0.7])
    ref = ulam_reference(spec, n_cells=256)
    assert np.allclose(ref.density, 1.0 / np.pi, rtol=1e-9)
    assert abs(ref.chi1) < 1e-12
    assert np.all(np.abs(ref.kl_levels) < 1e-12)


def test_ulam_reference_bern2_converged(bern2_reference):
    ref = bern2_reference
    # partition KL cannot decrease under refinement
    assert np.all(np.diff(ref.kl_levels) >= -1e-12)
    coarse = ulam_reference(bern2(), n_cells=512)
    assert coarse.kappa == pytest.approx(ref.kappa, abs=1e-6)
    assert coarse.gap == pytest.approx(ref.gap, abs=1e-6)
    # nu has a density bounded away from zero, so its dimension is one and
    # dim = kappa / gap puts kappa at the gap: two independent routes
    # through the fixed point (Furstenberg's integral and partition KL)
    assert ref.density.min() > 0.25
    assert ref.kappa == pytest.approx(ref.gap, rel=1e-3)


def test_d2_kappa_matches_ulam_reference(bern2_reference):
    # the dimension report's d = 2 budget
    est = furstenberg_entropy_d2(bern2(), tail_replicas=6000, orbit_samples=60,
                                 bandwidth=0.03, sampler=SeededSampler(60))
    assert abs(est.kappa - bern2_reference.kappa) <= 3 * est.stderr


def test_spectrum_gap_matches_ulam_reference(bern2_reference):
    spectrum = lyapunov_spectrum(bern2(), 8000, sampler=SeededSampler(61))
    assert (abs(spectrum.gap(1) - bern2_reference.gap)
            <= 3 * spectrum.gap_stderr(1))


@pytest.mark.parametrize("count", [100_000, BALL_CURVE_SAMPLE])
def test_d2_dimension_sample_matches_ulam_measure(bern2_reference, count):
    # the dimension report's sample (and the ball curves') at the default
    # burn-in, in Kolmogorov distance from the oracle's piecewise-linear
    # CDF.  Reads of one replica are correlated, so the bound is DKW at 1%
    # on the effective size count / tau: tau is the batch-means variance
    # ratio of the indicator below each quartile of the reference CDF,
    # each replica's reads one batch, at its largest and at least 1
    raw = stationary_lines(bern2(), LINE_REPLICAS, 1000, count,
                           SeededSampler(62).child(500))
    masses = bern2_reference.masses
    edges = np.arange(len(masses) + 1) * np.pi / len(masses)
    levels = np.concatenate([[0.0], np.cumsum(masses)])
    # the reads come a round of every replica at a time
    below = raw[None, :] <= np.interp([0.25, 0.5, 0.75], levels, edges)[:, None]
    batches = below.reshape(3, -1, LINE_REPLICAS).mean(axis=1)
    ratio = (count // LINE_REPLICAS) * batches.var(axis=1, ddof=1) / below.var(axis=1)
    tau = max(1.0, float(ratio.max()))
    x = np.sort(raw)
    cdf = np.interp(x, edges, levels)
    steps = np.arange(1, count + 1) / count
    distance = max(np.max(steps - cdf), np.max(cdf - (steps - 1 / count)))
    assert len(x) == count
    assert distance <= np.sqrt(np.log(2 / 0.01) * tau / (2 * count))
