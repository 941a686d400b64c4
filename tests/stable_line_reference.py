"""Stable line of a trace's first replica by forward singular vectors.

The package reads stable-line coordinates with ``stable_coordinates``,
which pulls two transverse directions back from the end of a window.
This reference reaches the same line from the other side: it composes the
2x2 fiber maps forward from a time and takes the most contracted right
singular direction of the product.  The two methods share no arithmetic,
so the tests hold ``stable_coordinates`` against this one, and feed its
coordinate to the interval functions where a test needs a single stable
line at a single time.
"""

from dataclasses import dataclass

import numpy as np

from flagdim import circle
from flagdim.errors import GapTooSmall

CONFORMAL_TOL = 1e-8      # singular values closer than this share no order
# stop composing once the singular values are this far apart: further
# steps move the contracted direction by less than their ratio, far below
# any tolerance the tests hold it to, while the smaller singular value
# still sits a million times above the rounding floor (eps times the
# larger) of the normalized product
RESOLVED_COND = 1e10


@dataclass(frozen=True)
class StableLine:
    coordinate: float
    shift: float       # coordinate change between half and full lookahead
    lookahead: int


def _contracted_direction(maps, start, lookahead):
    """Most contracted source direction of maps[start .. start+lookahead).

    Returns the direction's coordinate, the steps used, and whether the
    product's singular values are apart at all: a conformal product
    contracts no direction, and its singular vectors are rounding noise.
    """
    p = np.eye(2)
    used = 0
    for k in range(start, start + lookahead):
        p = maps[k] @ p
        p = p / np.linalg.norm(p)
        used += 1
        sv = np.linalg.svd(p, compute_uv=False)
        if sv[0] > RESOLVED_COND * sv[-1]:
            break  # direction resolved to working precision
    _, sv, vt = np.linalg.svd(p)
    v = vt[-1]
    return (float(circle.wrap(np.arctan2(v[1], v[0]))), used,
            sv[0] - sv[-1] > CONFORMAL_TOL * sv[0])


def oseledets_stable_line(trace, t, lookahead=None, tol=1e-2):
    """Fiber coordinate of the first replica's slow line at time t.

    The slow (stable) line of the quotient cocycle is the most contracted
    right singular direction of the composed 2x2 fiber maps looking
    forward from t.  The reported shift compares half against full
    lookahead and decays like exp(-gap * lookahead / 2), so mild-gap
    ensembles need long windows; when the full window cannot pin the
    direction down to ``tol`` the gap is too small to trust the downstream
    interval machinery.  A window that composes to a conformal map (an
    isometric action) contracts no direction and is refused the same way,
    whatever its rounding makes of the shift.  ``tol=None`` skips both
    checks and reports the shift as-is.
    """
    k = trace.index(t)
    maps = trace.maps[0]
    avail = len(maps) - k
    if lookahead is None:
        lookahead = avail
    if lookahead < 2 or lookahead > avail:
        raise ValueError(f"lookahead {lookahead} outside 2..{avail}")
    full, used, contracts = _contracted_direction(maps, k, lookahead)
    half, _, _ = _contracted_direction(maps, k, max(1, lookahead // 2))
    shift = float(circle.distance(full, half))
    if tol is not None and not contracts:
        raise GapTooSmall(
            f"the fiber maps over {lookahead} steps compose to a conformal "
            "map, which contracts no direction")
    if tol is not None and shift > tol:
        raise GapTooSmall(
            f"stable line moved {shift:.2e} between lookaheads {lookahead // 2} "
            f"and {lookahead} (tolerance {tol:g})")
    return StableLine(coordinate=full, shift=shift, lookahead=used)
