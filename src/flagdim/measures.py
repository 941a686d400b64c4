"""Empirical measures on the fiber circle and their regularity queries.

A fiber sample is an array of coordinates in [0, pi) in draw order; only
code that counts arc masses builds an empirical measure from it, a
sorted list of the coordinates, each of mass 1/n.  Every mass is a count
over n, neither binned nor rounded, by one rule (``arc_mass``): the
closed arc from lo = wrap(start) to hi = lo + length holds the points
with lo <= p <= hi plus those with p <= hi - pi, and an arc of length pi
or more holds them all.  No branch splits a wrapping arc: hi - pi counts
nothing below pi and is exact from pi to 2 pi (Sterbenz's lemma).  Kernel
sums, with the neighbor counts that gate them, lay the points out sorted
on three turns with their running sums (``kernel_sums``), so a query
costs a few binary searches whatever its neighbor count.

Local dimension is reported as a least-squares slope of log mass against
log radius over a geometric radius grid; the liminf in the definition is
not estimable from finitely many samples, but when the underlying measure
is exact dimensional a single slope is the honest summary and the fit
residual plus the spread over base points quantify how believable it is.
"""

from dataclasses import dataclass

import numpy as np

from . import circle
from .errors import InsufficientMass

MASS_FLOOR_COUNT = 10   # minimum expected sample count per usable radius level
MASS_CEILING = 0.9      # saturated balls carry no scaling information
MIN_FIT_LEVELS = 4
KDE_MIN_NEIGHBORS = 5


@dataclass(frozen=True, eq=False)
class EmpiricalCircleMeasure:
    """Sorted samples on the circle of circumference pi, each of mass 1/n."""

    points: np.ndarray

    def __post_init__(self):
        pts = circle.wrap(np.asarray(self.points, dtype=float))
        if np.ndim(pts) != 1 or len(pts) == 0:
            raise ValueError("points must be a nonempty vector")
        pts = np.sort(pts)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @staticmethod
    def from_samples(samples):
        return EmpiricalCircleMeasure(np.ravel(samples))

    def __len__(self):
        return len(self.points)

    def arc_mass(self, start, length):
        """Mass of the closed arc from ``start`` running ``length`` forward.

        Broadcasts over starts and lengths.  The one closed-arc count:
        with lo = wrap(start) and hi = lo + length, the points in
        [lo, hi] plus the points in [0, hi - pi], and every point for a
        length of pi or more.  hi - pi is negative for an arc that stays
        below pi and exact for one that passes it (hi lies in [pi, 2 pi),
        Sterbenz's lemma), so no branch splits a wrapping arc.
        """
        pts = self.points
        lo = circle.wrap(start)
        hi = lo + length
        count = (np.searchsorted(pts, hi, side="right")
                 - np.searchsorted(pts, lo, side="left")
                 + np.searchsorted(pts, hi - circle.HALF_TURN, side="right"))
        return np.where(length >= circle.HALF_TURN, len(pts), count) / len(pts)


def pool_mass(coords, start, length):
    """``EmpiricalCircleMeasure(coords).arc_mass(start, length)`` for one
    arc, counted over unsorted coordinates in [0, pi) with the same
    comparisons, so a pool is never sorted."""
    if length >= circle.HALF_TURN:
        return 1.0
    lo = circle.wrap(start)
    hi = lo + length
    count = (np.count_nonzero((lo <= coords) & (coords <= hi))
             + np.count_nonzero(coords <= hi - circle.HALF_TURN))
    return count / len(coords)


def ball_mass(m, x, r):
    """Mass of the closed ball of radius r around x; monotone in r.

    Broadcasts to shape x.shape + r.shape; balls of radius >= pi/2 cover
    the circle.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    return m.arc_mass(np.subtract.outer(x, r), 2.0 * r)


def default_radius_grid():
    """Twelve geometric radii from pi/8 down, each half the last."""
    return np.pi / 8 / 2.0 ** np.arange(12)


@dataclass(frozen=True, eq=False)
class DimensionEstimate:
    point: float
    slope: float
    r_range: tuple
    residual: float
    mass_floor_hit: bool
    levels_used: int


def local_dimension(m, x, r_grid=None):
    """Least-squares slope of log ball mass against log radius at x.

    Levels whose ball holds MASS_FLOOR_COUNT = 10 sample points or fewer
    are dropped (small-count masses are binomial noise; a mass is a count
    over n, so the floor compares counts exactly), as are levels whose
    ball already holds nearly all the mass (saturation flattens the
    slope); fewer than four surviving levels is an InsufficientMass
    error, not a number.
    """
    if r_grid is None:
        r_grid = default_radius_grid()
    r_grid = np.asarray(r_grid, dtype=float)
    if len(r_grid) < 8:
        raise ValueError("radius grid needs at least 8 levels")
    ratios = r_grid[:-1] / r_grid[1:]
    if np.any(r_grid <= 0) or np.ptp(ratios) > 1e-9 * ratios[0]:
        raise ValueError("radius grid must be geometric and positive")
    masses = ball_mass(m, x, r_grid)
    floor = MASS_FLOOR_COUNT / len(m)
    keep = (masses > floor) & (masses <= MASS_CEILING)
    if keep.sum() < MIN_FIT_LEVELS:
        if np.all(masses > MASS_CEILING) and np.ptp(masses) < 1e-12:
            # every ball holds the same near-total mass: an atom cluster at
            # x swallowing the whole grid, and a flat mass curve has slope 0
            return DimensionEstimate(
                point=float(circle.wrap(x)), slope=0.0,
                r_range=(float(r_grid.min()), float(r_grid.max())),
                residual=0.0, mass_floor_hit=False, levels_used=int(len(r_grid)))
        raise InsufficientMass(
            f"only {int(keep.sum())} of {len(r_grid)} levels between mass floor "
            f"{floor:.2e} and ceiling {MASS_CEILING}")
    lr = np.log(r_grid[keep])
    lm = np.log(masses[keep])
    slope, intercept = np.polyfit(lr, lm, 1)
    fit = slope * lr + intercept
    residual = float(np.sqrt(np.mean((lm - fit) ** 2)))
    return DimensionEstimate(
        point=float(circle.wrap(x)),
        slope=float(slope),
        r_range=(float(r_grid[keep].min()), float(r_grid[keep].max())),
        residual=residual,
        mass_floor_hit=bool((masses <= floor).any()),
        levels_used=int(keep.sum()),
    )


def local_slopes(m, x):
    """``local_dimension``'s slope at every point of ``x``, on the default grid.

    One ``ball_mass`` call reads the whole (point x radius) grid.  Each
    point keeps the levels ``local_dimension`` keeps and gets the
    closed-form least-squares slope of log mass against log radius over
    them; a point whose every ball holds the same near-total mass gets
    slope 0, and a point where ``local_dimension`` raises InsufficientMass
    gets NaN.
    """
    r = default_radius_grid()
    masses = ball_mass(m, x, r)
    keep = (masses > MASS_FLOOR_COUNT / len(m)) & (masses <= MASS_CEILING)
    levels = keep.sum(axis=1)
    slopes = np.full(len(masses), np.nan)
    slopes[np.all(masses > MASS_CEILING, axis=1)
           & (np.ptp(masses, axis=1) < 1e-12)] = 0.0
    fit = levels >= MIN_FIT_LEVELS
    keep = keep[fit]
    lr = np.where(keep, np.log(r), 0.0)
    lm = np.log(np.where(keep, masses[fit], 1.0))
    n = levels[fit]
    dr = np.where(keep, lr - (lr.sum(axis=1) / n)[:, None], 0.0)
    dm = lm - (lm.sum(axis=1) / n)[:, None]
    slopes[fit] = np.sum(dr * dm, axis=1) / np.sum(dr * dr, axis=1)
    return slopes


def max_cluster_weight(m, eps):
    """Largest mass carried by any closed arc of length eps.

    For an empirical measure the supremum over arcs is attained by an arc
    whose left endpoint is a sample point, so the sweep is exact.
    """
    return float(m.arc_mass(m.points, eps).max())


def _checked_bandwidth(bandwidth):
    h = float(bandwidth)
    if not 0 < h < circle.HALF_TURN / 2:
        raise ValueError("bandwidth must lie in (0, pi/2)")
    return h


@dataclass(frozen=True, eq=False)
class CircleTurns:
    """``kernel_sums``' layout of a circle sample: sorted and laid out on
    three turns, with running sums.

    ``ext`` holds the sorted points shifted by -pi, 0 and pi, and
    ``run[k]`` is the sum of ``ext[:k]``.  A window shorter than pi around
    a query in [0, pi) meets each point at most once, and the distance to
    that copy is the circle distance, so binary searches at the window's
    ends and at the query count the points on either side of it and read
    their coordinate sums off ``run``.
    """

    ext: np.ndarray
    run: np.ndarray

    @staticmethod
    def of(points):
        pts = np.sort(circle.wrap(np.asarray(points, dtype=float)))
        ext = np.concatenate([pts - circle.HALF_TURN, pts,
                              pts + circle.HALF_TURN])
        return CircleTurns(ext, np.concatenate([[0.0], np.cumsum(ext)]))

    def _window_sums(self, q, h):
        """h^2 times the kernel sum, and the count, at each query q.

        The n_L copies in (q - h, q] add (h - q) n_L + S_L, the n_R copies
        in (q, q + h) add (h + q) n_R - S_R, where S is a coordinate sum.
        """
        lo = np.searchsorted(self.ext, q - h, side="right")
        mid = np.searchsorted(self.ext, q, side="right")
        hi = np.searchsorted(self.ext, q + h, side="left")
        left, right = mid - lo, hi - mid
        return ((h - q) * left + (self.run[mid] - self.run[lo])
                + (h + q) * right - (self.run[hi] - self.run[mid]), hi - lo)


def kernel_sums(points, x, bandwidth, labels=None, n_labels=1, exclude=None):
    """Wrapped triangular kernel sums at each query, split by point label.

    Returns (sums, counts), each of shape (len(x), n_labels): sums[q, l]
    adds (1 - d/h) / h over the points labelled l at circle distance
    d < h from x[q], and counts[q, l] is how many such points there are.
    A single label is the default; ``exclude`` names, per query, the
    index of one point to leave out (a leave-one-out density).  Each
    label's points are sorted on their own (``CircleTurns``), so a query
    costs three binary searches per label whatever its neighbor count;
    per-label sums let a caller drop one label's points from a density
    without recomputing it.  Queries are independent: each row reads its
    own searches and its own excluded point, so one call over
    concatenated query blocks returns the per-block calls' rows bit for
    bit, and a caller may batch queries against one sample.  Both density
    routes gate a query on its counts (at KDE_MIN_NEIGHBORS) and score it
    on its sums from the same call.
    """
    h = _checked_bandwidth(bandwidth)
    q = circle.wrap(np.atleast_1d(np.asarray(x, dtype=float)))
    pts = np.asarray(points, dtype=float)
    lab = (np.zeros(len(pts), dtype=int) if labels is None
           else np.asarray(labels))
    sizes = np.bincount(lab, minlength=n_labels)
    tables = [CircleTurns.of(part) for part in np.split(
        pts[np.argsort(lab, kind="stable")], np.cumsum(sizes)[:-1])]
    # one sort of the queries serves every label's searches
    order = np.argsort(q)
    scaled = np.empty((len(q), len(tables)))
    counts = np.empty((len(q), len(tables)), dtype=int)
    for label, table in enumerate(tables):
        scaled[order, label], counts[order, label] = table._window_sums(
            q[order], h)
    if exclude is not None:
        # the excluded point's copies as the tables lay them out; at most
        # one lies inside the window, where the searches counted it
        rows, cols = np.arange(len(q)), lab[exclude]
        copies = (circle.wrap(pts[exclude])[:, None]
                  + np.array([-circle.HALF_TURN, 0.0, circle.HALF_TURN]))
        inside = ((copies > (q - h)[:, None]) & (copies < (q + h)[:, None]))
        scaled[rows, cols] -= np.sum(
            np.where(inside, h - np.abs(copies - q[:, None]), 0.0), axis=1)
        counts[rows, cols] -= np.count_nonzero(inside, axis=1)
    # in place: no second queries x labels array
    scaled /= h * h
    return scaled, counts


def _sorted_union(a, b):
    """``np.union1d(a, b)`` by one sort: the distinct values, ascending.

    np.union1d imports numpy.ma on first use, about 9 ms of a cold run.
    """
    values = np.sort(np.concatenate([a, b]))
    distinct = np.ones(len(values), dtype=bool)
    distinct[1:] = values[1:] != values[:-1]
    return values[distinct]


def wasserstein_circle(m1, m2):
    """Exact 1-Wasserstein distance between two circle measures.

    On the circle the optimal transport shifts the CDF difference by its
    length-weighted median; the distance is the integral of the recentered
    difference.
    """
    grid = _sorted_union(m1.points, m2.points)
    seg = np.diff(np.concatenate([grid, [grid[0] + circle.HALF_TURN]]))
    d = m1.arc_mass(0.0, grid) - m2.arc_mass(0.0, grid)
    order = np.argsort(d, kind="stable")
    csum = np.cumsum(seg[order])
    k = min(int(np.searchsorted(csum, csum[-1] / 2.0)), len(grid) - 1)
    median = d[order][k]
    return float(np.sum(seg * np.abs(d - median)))
