import numpy as np
import pytest

from flagdim import circle, measures
from flagdim.dynamics import stationary_flag_pool
from flagdim.ensemble import SeededSampler, bern2
from flagdim.errors import InsufficientMass
from flagdim.measures import (MASS_FLOOR_COUNT, EmpiricalCircleMeasure,
                              ball_mass, default_radius_grid, kernel_sums,
                              local_dimension, max_cluster_weight,
                              wasserstein_circle)


def uniform_measure(n, rng):
    return EmpiricalCircleMeasure.from_samples(rng.uniform(0, np.pi, n))


def cantor_measure(depth):
    """Left endpoints of the level-``depth`` middle-thirds cells on [0, pi/2).

    Every level-j ball at 0 with radius (pi/2) 3^-j then carries mass
    exactly 2^-j, so the log-log slope is log 2 / log 3 with no noise.
    """
    idx = np.arange(2 ** depth)
    bits = (idx[:, None] >> np.arange(depth)[None, :]) & 1
    pts = (bits * 2.0 / 3.0 ** np.arange(1, depth + 1)).sum(axis=1)
    return EmpiricalCircleMeasure.from_samples(pts * (np.pi / 2))


def test_measure_construction_sorts_and_checks():
    m = EmpiricalCircleMeasure(np.array([2.0, 0.5]))
    assert np.array_equal(m.points, [0.5, 2.0])
    with pytest.raises(ValueError):
        EmpiricalCircleMeasure(np.array([]))


def test_arc_holding_the_floor_count_reads_it_exactly(rng):
    # every arc that holds exactly k of the n points, wrapping ones too,
    # reads mass k/n, so the dimension fits' floor decides on the count
    n, k = 2000, MASS_FLOOR_COUNT
    m = uniform_measure(n, rng)
    pts = np.concatenate([m.points, m.points[:k + 1] + np.pi])
    gaps = np.concatenate([[m.points[0] + np.pi - m.points[-1]], np.diff(pts)])
    # from midway before point j to midway after point j + k - 1
    start = pts[:n] - gaps[:n] / 2
    length = pts[k - 1:n + k - 1] - start + gaps[k:n + k] / 2
    assert np.count_nonzero(circle.wrap(start) + length >= np.pi) >= k
    masses = [m.arc_mass(a, b) for a, b in zip(start, length)]
    assert np.all(np.array(masses) == k / n)
    assert np.all(m.arc_mass(start, length) == k / n)


def test_arc_mass_closed_and_wrapping():
    m = EmpiricalCircleMeasure.from_samples(np.array([0.0, 1.0, 3.0]))
    third = 1 / 3
    assert m.arc_mass(0.0, 1.0) == pytest.approx(2 * third, abs=1e-14)
    assert m.arc_mass(2.9, 0.3) == pytest.approx(2 * third, abs=1e-14)
    assert m.arc_mass(0.0, np.pi) == 1.0


def test_ball_mass_trivials(rng):
    m = uniform_measure(500, rng)
    assert ball_mass(m, 1.0, np.pi / 2) == 1.0
    # a (points x radii) batch reads the per-point masses, and a ball of
    # radius pi/2 inside it covers the circle
    x = np.concatenate([m.points[:3], rng.uniform(0, np.pi, 4)])
    radii = np.array([0.0, 0.01, 0.3, np.pi / 2, 1.2])
    batch = ball_mass(m, x, radii)
    assert batch.shape == (len(x), len(radii))
    for p, point in enumerate(x):
        assert np.array_equal(batch[p], ball_mass(m, point, radii))
    assert np.all(batch[:, 3] == 1.0)
    atom = EmpiricalCircleMeasure.from_samples(np.array([0.4, 0.9]))
    # closed balls: an atom at exactly distance r is inside
    assert ball_mass(atom, 0.4, 0.5) == 1.0
    assert ball_mass(atom, 0.4, 0.5 - 1e-12) == 0.5
    assert ball_mass(atom, 0.4, 0.0) == 0.5


def test_ball_mass_wraps():
    m = EmpiricalCircleMeasure.from_samples(np.array([np.pi - 0.02, 0.5]))
    assert ball_mass(m, 0.01, 0.05) == 0.5


def test_ball_mass_monotone_and_binomial(rng):
    m = uniform_measure(100_000, rng)
    radii = np.sort(rng.uniform(0.001, 1.4, 30))
    masses = ball_mass(m, 2.0, radii)
    assert np.all(np.diff(masses) >= 0)
    for r in (0.1, 0.5, 1.0):
        p = 2 * r / np.pi
        sigma = np.sqrt(p * (1 - p) / len(m))
        assert abs(ball_mass(m, 2.0, r) - p) < 5 * sigma


def test_ball_mass_right_continuous(rng):
    m = uniform_measure(1000, rng)
    for r in (0.05, 0.3, 1.0):
        assert ball_mass(m, 1.0, r + 1e-12) - ball_mass(m, 1.0, r) \
            <= 2 / len(m)


def test_cantor_dimension():
    m = cantor_measure(14)
    grid = (np.pi / 2) / 3.0 ** np.arange(1, 11)
    est = local_dimension(m, 0.0, r_grid=grid)
    want = np.log(2) / np.log(3)
    assert est.slope == pytest.approx(want, abs=1e-9)
    assert abs(est.slope - want) < 0.03
    assert est.residual < 1e-9
    # the level masses themselves are exact powers of two
    assert ball_mass(m, 0.0, grid[3]) == pytest.approx(2.0 ** -4, abs=1e-15)


def test_uniform_dimension_near_one(rng):
    m = uniform_measure(40_000, rng)
    est = local_dimension(m, 1.0)
    assert abs(est.slope - 1.0) < 0.05
    assert est.levels_used >= 4


def test_point_mass_dimension_zero():
    m = EmpiricalCircleMeasure.from_samples(np.full(200, 2.2))
    est = local_dimension(m, 2.2)
    assert est.slope == 0.0
    assert est.residual == 0.0


def test_atom_pair_dimension_zero():
    pts = np.concatenate([np.full(400, 0.3), np.full(400, 2.0)])
    est = local_dimension(EmpiricalCircleMeasure.from_samples(pts), 0.3)
    assert abs(est.slope) < 1e-12


def test_local_dimension_refuses_thin_mass(rng):
    m = EmpiricalCircleMeasure.from_samples(rng.uniform(0, np.pi, 30))
    with pytest.raises(InsufficientMass):
        local_dimension(m, 1.0)


def test_local_dimension_rejects_bad_grid(rng):
    m = uniform_measure(1000, rng)
    with pytest.raises(ValueError):
        local_dimension(m, 1.0, r_grid=np.array([0.1, 0.05, 0.03]))
    with pytest.raises(ValueError):
        local_dimension(m, 1.0, r_grid=np.linspace(0.01, 0.2, 12))


def test_default_radius_grid_geometric():
    g = default_radius_grid()
    assert len(g) == 12
    assert g[0] == pytest.approx(np.pi / 8)
    assert np.allclose(g[:-1] / g[1:], 2.0, rtol=1e-12)


def test_max_cluster_weight_uniform_grid():
    n, eps = 10_000, 0.2
    m = EmpiricalCircleMeasure.from_samples(np.arange(n) * np.pi / n)
    got = max_cluster_weight(m, eps)
    assert got == pytest.approx(eps / np.pi, abs=2 / n)
    assert max_cluster_weight(m, np.pi) == 1.0


def test_max_cluster_weight_detects_cluster(rng):
    pts = np.concatenate([rng.uniform(0, np.pi, 500),
                          rng.normal(1.0, 1e-5, 500) % np.pi])
    m = EmpiricalCircleMeasure.from_samples(pts)
    assert max_cluster_weight(m, 1e-3) > 0.45


def cluster_weights(measures):
    """Heaviest 1e-3 arc of each measure, in order of growing sample size."""
    return [max_cluster_weight(m, 1e-3) for m in measures]


def decreasing(weights):
    return all(b <= a * 1.05 + 1e-12 for a, b in zip(weights, weights[1:]))


def test_nonatomicity_uniform_vs_atom(rng):
    sizes = (1000, 10_000, 100_000)
    uni = cluster_weights([uniform_measure(n, rng) for n in sizes])
    assert decreasing(uni)
    assert uni[-1] < 0.01
    atom = cluster_weights(
        [EmpiricalCircleMeasure.from_samples(np.full(n, 1.0))
         for n in sizes])
    assert atom[-1] == 1.0


def test_nonatomicity_bern2_stationary():
    sizes = (1000, 10_000, 100_000)
    spec = bern2()
    ms = []
    for k, n in enumerate(sizes):
        pool = stationary_flag_pool(spec, n, 300, SeededSampler(90 + k))
        ang = np.mod(np.arctan2(pool[:, 1, 0], pool[:, 0, 0]), np.pi)
        ms.append(EmpiricalCircleMeasure.from_samples(ang))
    weights = cluster_weights(ms)
    assert decreasing(weights)
    assert weights[-1] < 0.01


def kde(points, x, bandwidth):
    """Wrapped triangular kernel density of the points at x, as the
    density routes read it: the kernel sums over the sample size."""
    return kernel_sums(points, x, bandwidth)[0][:, 0] / len(points)


def test_kernel_density_integrates_to_one(rng):
    pts = rng.uniform(0, np.pi, 2000)
    grid = np.linspace(0, np.pi, 2048, endpoint=False)
    vals = kde(pts, grid, 0.3)
    assert np.mean(vals) * np.pi == pytest.approx(1.0, abs=1e-3)


def test_window_counts_match_the_gate(rng):
    # the count both density routes gate on, the kernel sums', is the
    # points strictly within h, across the wrap: points on both sides of
    # 0 = pi, queries at 0 and within h of pi
    h = 0.05
    pts = np.concatenate([rng.uniform(0, np.pi, 500),
                          rng.uniform(0, h, 20),
                          rng.uniform(np.pi - h, np.pi, 20)])
    xs = np.concatenate([[0.0, np.pi - 0.01, np.pi - 0.04],
                         rng.uniform(0, np.pi, 40)])
    want = [int(np.count_nonzero(circle.distance(pts, x) < h)) for x in xs]
    assert np.array_equal(kernel_sums(pts, xs, h)[1][:, 0], want)
    assert min(want[:3]) >= 20


def kernel_reference(points, x, h, labels=None, n_labels=1, exclude=None):
    """``kernel_sums`` by brute force: every (query, point) pair in turn."""
    points = circle.wrap(np.asarray(points, dtype=float))
    labels = np.zeros(len(points), dtype=int) if labels is None else labels
    sums = np.zeros((len(x), n_labels))
    counts = np.zeros((len(x), n_labels), dtype=int)
    for j, q in enumerate(x):
        for k, p in enumerate(points):
            d = min(abs(p - q), np.pi - abs(p - q))
            if d < h and (exclude is None or exclude[j] != k):
                sums[j, labels[k]] += (1.0 - d / h) / h
                counts[j, labels[k]] += 1
    return sums, counts


def _kernel_case(name, rng):
    """(points, queries, bandwidth, keyword arguments) of a named case."""
    h = 0.05
    wrap = np.concatenate([rng.uniform(0, np.pi, 200),
                           rng.uniform(0, h, 15),
                           rng.uniform(np.pi - h, np.pi, 15)])
    edge = np.array([0.0, np.pi - 0.01, np.pi - 0.04, np.pi - h / 2])
    if name == "wrap":
        return wrap, np.concatenate([edge, rng.uniform(0, np.pi, 30)]), h, {}
    if name == "labels":
        # 20 labels, label 7 empty; every query leaves a point out, most
        # of them inside its window, some across the wrap
        labels = rng.choice(np.delete(np.arange(20), 7), size=len(wrap))
        exclude = rng.integers(0, len(wrap), 60)
        xs = circle.wrap(wrap[exclude] + rng.uniform(-1.5 * h, 1.5 * h, 60))
        return wrap, np.concatenate([edge, xs]), h, {
            "labels": labels, "n_labels": 20,
            "exclude": np.concatenate([[200, 215, 0, 229], exclude])}
    if name == "cluster":
        # 40 points within 1e-6 of 1, queries on it and at the window's edge
        pts = np.concatenate([1.0 + rng.uniform(0, 1e-6, 40),
                              rng.uniform(0, np.pi, 100)])
        xs = 1.0 + np.array([0.0, 5e-7, -h + 4e-7, h + 6e-7, 2e-6, -0.02])
        return pts, xs, h, {}
    if name == "ties":
        # points on a grid of step h: every window's ends fall on points,
        # which lie at distance exactly h and are not counted
        grid = np.arange(40) / 16
        return np.concatenate([grid, rng.uniform(0, np.pi, 40)]), \
            np.concatenate([grid[1:-1], grid[1:-1] + 1 / 32]), 1 / 16, {}
    # a bandwidth near pi/2: the window all but covers the circle
    return wrap, np.concatenate([edge, rng.uniform(0, np.pi, 20)]), \
        np.pi / 2 - 1e-3, {}


@pytest.mark.parametrize("case",
                         ["wrap", "labels", "cluster", "ties", "wide"])
def test_kernel_sums_match_brute_force(case, rng):
    pts, xs, h, kw = _kernel_case(case, rng)
    sums, counts = kernel_sums(pts, xs, h, **kw)
    want_sums, want_counts = kernel_reference(pts, xs, h, **kw)
    assert np.array_equal(counts, want_counts)
    # the gate's count, with every label in one sample and no point left
    # out
    assert np.array_equal(kernel_sums(pts, xs, h)[1][:, 0],
                          kernel_reference(pts, xs, h)[1][:, 0])
    # a prefix-sum difference carries the rounding of the running sums, so
    # a sum near zero (one neighbor at the window's edge) is held to the
    # scale of the largest sum rather than to its own
    assert np.allclose(sums, want_sums, rtol=1e-12,
                       atol=1e-12 * want_sums.max())
    if case == "labels":
        assert not counts[:, 7].any() and not sums[:, 7].any()
        # the excluded point was inside most windows
        assert np.sum(circle.distance(pts[kw["exclude"]], xs) < h) > 40
    if case == "cluster":
        assert counts[0, 0] >= 40 and 0 < counts[2, 0] < counts[0, 0]


def test_kernel_sums_score_each_query_on_its_own(rng):
    # one call over concatenated query blocks equals one call per block
    # bit for bit, labels and exclusions included, so a caller may batch
    # queries: each reads its own binary searches and its own left-out point
    pts, xs, h, kw = _kernel_case("labels", rng)
    labels, exclude = kw["labels"], kw["exclude"]
    # queries within one bandwidth of 0 and of pi, each leaving out its
    # nearest point across the wrap (points 200-214 lie in [0, h), points
    # 215-229 in [pi - h, pi)); the last repeats a query of the second
    # block with another point left out
    near = np.array([h / 3, 1e-9, np.pi - h / 3, np.pi - 1e-9, xs[10]])
    across = [215 + np.argmin(circle.distance(pts[215:230], q))
              for q in near[:2]]
    across += [200 + np.argmin(circle.distance(pts[200:215], q))
               for q in near[2:4]]
    blocks = [(xs[:4], exclude[:4]), (xs[4:40], exclude[4:40]),
              (xs[40:], exclude[40:]), (near, across + [3])]
    parts = [kernel_sums(pts, q, h, labels=labels, n_labels=20, exclude=e)
             for q, e in blocks]
    sums, counts = kernel_sums(
        pts, np.concatenate([q for q, _ in blocks]), h, labels=labels,
        n_labels=20, exclude=np.concatenate([e for _, e in blocks]))
    assert np.array_equal(sums, np.concatenate([s for s, _ in parts]))
    assert np.array_equal(counts, np.concatenate([c for _, c in parts]))
    left_out = pts[np.concatenate([e for _, e in blocks])]
    inside = circle.distance(left_out, np.concatenate([q for q, _ in blocks]))
    assert np.sum(inside < h) > 40 and np.all(inside[-5:-1] < h)


def test_kernel_sums_check_the_bandwidth(rng):
    pts = rng.uniform(0, np.pi, 10)
    for h in (0.0, -0.1, np.pi / 2, 2.0):
        with pytest.raises(ValueError, match="bandwidth"):
            kernel_sums(pts, [0.5], h)


def test_density_ratio_of_identical_measure(rng):
    pts = rng.uniform(0, np.pi, 5000)
    for x in (0.2, 1.0, 2.8):
        ratio = kde(pts, x, 0.1)[0] / kde(pts, x, 0.1)[0]
        assert ratio == pytest.approx(1.0, abs=1e-12)


def test_density_ratio_uniform_pair(rng):
    p, q = rng.uniform(0, np.pi, 20_000), rng.uniform(0, np.pi, 20_000)
    for x in np.linspace(0.1, 3.0, 7):
        assert 0.8 < kde(p, x, 0.1)[0] / kde(q, x, 0.1)[0] < 1.25


def test_density_ratio_sees_pushforward_jacobian(rng):
    # push uniform samples through the projective action of diag(2, 1/2);
    # the image density at T(x) is 1/T'(x) times the source density
    theta = rng.uniform(0, np.pi, 40_000)
    image = np.mod(np.arctan2(0.5 * np.sin(theta), 2.0 * np.cos(theta)),
                   np.pi)
    base = rng.uniform(0, np.pi, 40_000)
    for x0 in (0.6, 1.2, 2.0):
        deriv = 1.0 / (4 * np.cos(x0) ** 2 + 0.25 * np.sin(x0) ** 2)
        y = float(np.mod(np.arctan2(0.5 * np.sin(x0), 2.0 * np.cos(x0)),
                         np.pi))
        ratio = kde(image, y, 0.05)[0] / kde(base, y, 0.05)[0]
        assert ratio == pytest.approx(1.0 / deriv, rel=0.10)


def test_wasserstein_point_masses():
    d1 = EmpiricalCircleMeasure.from_samples(np.array([0.0]))
    d2 = EmpiricalCircleMeasure.from_samples(np.array([0.3]))
    d3 = EmpiricalCircleMeasure.from_samples(np.array([np.pi - 0.2]))
    assert wasserstein_circle(d1, d2) == pytest.approx(0.3, abs=1e-12)
    # optimal transport goes the short way around
    assert wasserstein_circle(d1, d3) == pytest.approx(0.2, abs=1e-12)
    assert wasserstein_circle(d1, d1) == 0.0


def test_wasserstein_symmetry_and_triangle(rng):
    ms = [uniform_measure(300, rng) for _ in range(3)]
    d01 = wasserstein_circle(ms[0], ms[1])
    d10 = wasserstein_circle(ms[1], ms[0])
    assert d01 == pytest.approx(d10, abs=1e-12)
    d02 = wasserstein_circle(ms[0], ms[2])
    d12 = wasserstein_circle(ms[1], ms[2])
    assert d02 <= d01 + d12 + 1e-12


@pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
@pytest.mark.parametrize("sizes", [(1, 1), (4, 7), (10, 10), (33, 64)],
                         ids=str)
def test_sorted_union_is_union1d(rng, tied, sizes):
    # odd and even totals, ties within and between the two arrays, and
    # signed zeros, which compare equal
    for _ in range(20):
        a, b = (rng.uniform(0, np.pi, n) for n in sizes)
        if tied:
            a, b = (np.round(v * 2) / 2 * rng.choice([-1.0, 1.0], len(v))
                    for v in (a, b))
        want = np.union1d(a, b)
        got = measures._sorted_union(a, b)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_wasserstein_rotation_of_grid():
    n = 500
    grid = np.arange(n) * np.pi / n
    m1 = EmpiricalCircleMeasure.from_samples(grid)
    m2 = EmpiricalCircleMeasure.from_samples(
        np.mod(grid + 5 * np.pi / n, np.pi))
    assert wasserstein_circle(m1, m2) == pytest.approx(0.0, abs=1e-12)


def uniform_cdf_distance(m):
    """Sup distance between the CDF of m and the uniform CDF on [0, pi),
    read off the mass of [0, t] on both sides of each atom t."""
    t = m.points
    cdf = m.arc_mass(0.0, t)
    above = np.abs(cdf - t / circle.HALF_TURN)
    below = np.abs((cdf - 1 / len(m)) - t / circle.HALF_TURN)
    return float(max(above.max(), below.max()))


def test_kolmogorov_distance_examples(rng):
    n = 2000
    mid = EmpiricalCircleMeasure.from_samples(
        (np.arange(n) + 0.5) * np.pi / n)
    assert uniform_cdf_distance(mid) < 1.0 / n + 1e-12
    atom = EmpiricalCircleMeasure.from_samples(np.array([0.0]))
    assert uniform_cdf_distance(atom) == pytest.approx(1.0, abs=1e-12)
    half = EmpiricalCircleMeasure.from_samples(
        rng.uniform(0, np.pi / 2, 20_000))
    assert uniform_cdf_distance(half) == pytest.approx(0.5, abs=0.02)
