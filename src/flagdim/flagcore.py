"""Linear algebra of flags and their one-dimensional fiber circles.

A complete flag in R^d is a nested chain of subspaces S_1 c ... c S_d with
dim S_i = i, stored as a single orthonormal matrix whose first i columns span
S_i.  Removing the i-dimensional subspace leaves a partial flag whose
compatible completions form a circle: the candidate S_i are the lines in the
2-plane between S_{i-1} and S_{i+1}, parameterized by an angle in [0, pi).
The angle is read in the plane's completion frame (u, w), built by one
rule (``completion_frames``) from a standard axis close to the plane, with
w the quarter turn of u, so the frame is as well conditioned as the basis.

The key closed form is ``flag_jacobian``: the density at AF of the rotation
invariant fiber measure pushed through A, against the rotation invariant
measure on the image fiber,

    det_{S_i}(A)^2 / (det_{S_{i-1}}(A) * det_{S_{i+1}}(A)).

The metric derivative of the induced circle map at the coordinate of F is the
reciprocal of this value (pushing a measure forward divides its density by
the map's expansion rate).  ``CircleMap.derivative`` returns the metric
derivative; ``flag_jacobian`` returns the density.
"""

from dataclasses import dataclass, field

import numpy as np

from . import circle
from .errors import DegenerateBasis

COND_CAP = 1e12          # invertibility threshold for maps and bases
ORTHO_TOL = 1e-10        # allowed deviation of basis^T basis from identity


def orthonormalize(basis):
    """QR-orthonormalize columns, preserving every leading span.

    The triangular factor's diagonal is made positive, which pins the result
    uniquely; without a sign convention Q is only determined up to column
    flips and tests become gauge-dependent.
    """
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
        raise DegenerateBasis(f"expected a square matrix, got shape {basis.shape}")
    if not np.all(np.isfinite(basis)):
        raise DegenerateBasis("basis contains non-finite entries")
    # cond of any leading column block is bounded by cond of the full matrix,
    # so one check covers every nested span.
    if np.linalg.cond(basis) > COND_CAP:
        raise DegenerateBasis(f"basis condition number exceeds {COND_CAP:g}")
    q, r = np.linalg.qr(basis)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


@dataclass(frozen=True, eq=False)
class LinearMap:
    """An invertible d x d real matrix."""

    entries: np.ndarray
    cond_cap: float = COND_CAP

    def __post_init__(self):
        entries = np.array(self.entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DegenerateBasis(f"expected a square matrix, got shape {entries.shape}")
        if entries.shape[0] < 2:
            raise DegenerateBasis("dimension must be at least 2")
        if not np.all(np.isfinite(entries)):
            raise DegenerateBasis("matrix contains non-finite entries")
        if np.linalg.cond(entries) > self.cond_cap:
            raise DegenerateBasis(f"matrix condition number exceeds {self.cond_cap:g}")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self):
        return self.entries.shape[0]

    def __matmul__(self, other):
        if isinstance(other, LinearMap):
            return LinearMap(self.entries @ other.entries)
        return NotImplemented

    def inverse(self):
        return LinearMap(np.linalg.inv(self.entries))


@dataclass(frozen=True, eq=False)
class Flag:
    """A complete flag: orthonormal columns, first i of which span S_i."""

    basis: np.ndarray

    def __post_init__(self):
        basis = np.array(self.basis, dtype=float)
        d = basis.shape[0]
        if basis.ndim != 2 or basis.shape != (d, d):
            raise DegenerateBasis(f"expected a square basis, got shape {basis.shape}")
        err = np.max(np.abs(basis.T @ basis - np.eye(d)))
        if not err < ORTHO_TOL:
            raise DegenerateBasis(f"basis is not orthonormal (deviation {err:.3e})")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self):
        return self.basis.shape[0]

    @staticmethod
    def standard(d):
        return Flag(np.eye(d))

    @staticmethod
    def from_matrix(m):
        """Flag spanned by the leading column blocks of an arbitrary basis."""
        return Flag(orthonormalize(m))


def act_flag(a, f):
    """Image flag with subspaces A(S_i)."""
    return Flag(orthonormalize(a.entries @ f.basis))


def det_on_subspace(a, f, i):
    """Volume scaling |det| of A restricted to S_i; 1 for i = 0."""
    if not 0 <= i <= f.dim:
        raise ValueError(f"subspace index {i} outside 0..{f.dim}")
    if i == 0:
        return 1.0
    r = np.linalg.qr(a.entries @ f.basis[:, :i], mode="r")
    return float(np.prod(np.abs(np.diag(r))))


def flag_jacobian(a, f, i):
    """Density at AF of the pushed fiber measure over the i-th partial flag.

    Equals det_{S_i}(A)^2 / (det_{S_{i-1}}(A) * det_{S_{i+1}}(A)), which
    telescopes to the ratio |r_i| / |r_{i+1}| of consecutive diagonal entries
    of the triangular factor of A * basis.
    """
    if not 1 <= i <= f.dim - 1:
        raise ValueError(f"fiber index {i} outside 1..{f.dim - 1}")
    r = np.abs(np.diag(np.linalg.qr(a.entries @ f.basis, mode="r")))
    return float(r[i - 1] / r[i])


def completion_frames(planes):
    """Frames (u, w) of a stack of 2-planes, (..., d, 2) -> (..., d, 2).

    For a plane with orthonormal basis P, u is the normalized projection
    P P^T e_j of the first axis e_j with |P^T e_j|^2 >= 1/d (the squared
    rows of P sum to 2, so one exists, and no step divides by a small
    number).  w is u turned a quarter inside the plane, P (-a_1, a_0) for
    a = P^T u, with its first component of w_k^2 >= 1/d made positive.
    The frame depends only on the plane, so fiber coordinates agree across
    bases and code paths.  For d = 2 every basis gets (e_1, e_2), and a
    plane of the standard flag gets (e_i, e_{i+1}).
    """
    planes = np.asarray(planes, dtype=float)
    d = planes.shape[-2]
    close = np.sum(planes * planes, axis=-1) >= 1.0 / d
    if not np.all(np.any(close, axis=-1)):
        raise DegenerateBasis("completion rule found no axis near the plane")
    # P^T e_j is row j of P, so a = P^T u is that row normalized
    row = np.take_along_axis(planes, np.argmax(close, axis=-1)[..., None, None],
                             axis=-2)
    a = row / np.linalg.norm(row, axis=-1, keepdims=True)
    p, q = planes[..., 0], planes[..., 1]
    u = p * a[..., 0] + q * a[..., 1]
    w = q * a[..., 0] - p * a[..., 1]
    # a unit vector has a component of w_k^2 >= 1/d; when rounding leaves
    # none, every component is that large and the first one serves
    k = np.argmax(w * w >= 1.0 / d, axis=-1)
    lead = np.take_along_axis(w, k[..., None], axis=-1)
    return np.stack([u, np.where(lead < 0, -w, w)], axis=-1)


def fiber_coordinates(bases, frames, i):
    """Coordinate of each basis's S_i in a fiber frame, in [0, pi).

    ``bases`` (..., d, d) and ``frames`` (..., d, 2) broadcast, so one
    reference frame can read a whole stack of flags.
    """
    b = np.asarray(bases)[..., :, i - 1]
    return circle.wrap(np.arctan2(np.sum(b * frames[..., 1], axis=-1),
                                  np.sum(b * frames[..., 0], axis=-1)))


def det2(b):
    """Determinants of a stack of 2x2 matrices (..., 2, 2)."""
    return b[..., 0, 0] * b[..., 1, 1] - b[..., 0, 1] * b[..., 1, 0]


def fiber_map_image(b, theta):
    """Images of fiber coordinates under 2x2 fiber maps, broadcasting.

    ``b`` (..., 2, 2) acts in the completion frames: theta goes to the
    angle of B (cos theta, sin theta), in [0, pi).
    """
    y = np.einsum("...ij,...j->...i", b, circle.unit_vector(theta))
    return circle.wrap(np.arctan2(y[..., 1], y[..., 0]))


def fiber_map_derivative(b, theta):
    """Metric derivatives |T'(theta)| = |det B| / |B (cos, sin)|^2, broadcasting."""
    y = np.einsum("...ij,...j->...i", b, circle.unit_vector(theta))
    return np.abs(det2(b)) / np.sum(y * y, axis=-1)


@dataclass(frozen=True, eq=False)
class PartialFlag:
    """A complete flag with its i-dimensional subspace removed.

    Columns [0, i-1) of ``basis`` span the surviving chain S_1 .. S_{i-1},
    columns i-1 and i are the completion frame (u, w) of the fiber plane
    inside S_{i+1}, and the remaining columns continue S_{i+2} .. S_d.
    ``missing`` is the 1-based dimension i of the removed subspace.
    """

    missing: int
    basis: np.ndarray

    def __post_init__(self):
        basis = np.array(self.basis, dtype=float)
        d = basis.shape[0]
        if not 1 <= self.missing <= d - 1:
            raise DegenerateBasis(f"missing index {self.missing} outside 1..{d - 1}")
        err = np.max(np.abs(basis.T @ basis - np.eye(d)))
        if not err < ORTHO_TOL:
            raise DegenerateBasis(f"basis is not orthonormal (deviation {err:.3e})")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self):
        return self.basis.shape[0]

    @property
    def frame(self):
        """The (u, w) frame of the fiber plane, as two d-vectors."""
        i = self.missing
        return self.basis[:, i - 1], self.basis[:, i]


def partial_flag(f, i):
    """Forget the i-dimensional subspace of a complete flag."""
    if not 1 <= i <= f.dim - 1:
        raise ValueError(f"fiber index {i} outside 1..{f.dim - 1}")
    u, w = completion_frames(f.basis[:, i - 1 : i + 1]).T
    basis = np.column_stack([f.basis[:, : i - 1], u, w, f.basis[:, i + 1 :]])
    return PartialFlag(missing=i, basis=basis)


def fiber_embed(fi, theta):
    """Complete a partial flag with S_i at fiber coordinate theta."""
    u, w = fi.frame
    c, s = np.cos(theta), np.sin(theta)
    v = c * u + s * w
    vperp = -s * u + c * w
    i = fi.missing
    basis = np.column_stack([fi.basis[:, : i - 1], v, vperp, fi.basis[:, i + 1 :]])
    return Flag(basis)


def act_partial(a, fi):
    """Image partial flag with subspaces A(S_j), j != missing."""
    return partial_flag(act_flag(a, Flag(fi.basis)), fi.missing)


@dataclass(frozen=True, eq=False)
class CircleMap:
    """The circle diffeomorphism a matrix induces between two fibers.

    In the source and target completion frames the map is projectivization
    of an invertible 2x2 matrix: theta apply-> angle of B (cos, sin).
    """

    source: PartialFlag
    target: PartialFlag
    matrix: np.ndarray
    _det: float = field(init=False, repr=False)
    _cond: float = field(init=False, repr=False)

    def __post_init__(self):
        b = np.array(self.matrix, dtype=float)
        det = float(det2(b))
        if det == 0.0 or not np.isfinite(det):
            raise DegenerateBasis("induced fiber map is singular")
        b.setflags(write=False)
        object.__setattr__(self, "matrix", b)
        object.__setattr__(self, "_det", det)
        object.__setattr__(self, "_cond", float(np.linalg.cond(b)))

    def __call__(self, theta):
        out = fiber_map_image(self.matrix, theta)
        return float(out) if np.isscalar(theta) else out

    def derivative(self, theta):
        """Metric derivative |T'(theta)|; reciprocal of the fiber density."""
        out = fiber_map_derivative(self.matrix, theta)
        return float(out) if np.isscalar(theta) else out

    def map_offset(self, anchor, delta):
        """Signed image offset T(anchor + delta) - T(anchor), fully resolved.

        Returns the lift of the image displacement, so magnitudes below the
        angle resolution of the anchor's image survive (needed when interval
        lengths shrink like e^{-gap * n}).  The two-term closed form

            atan2(sin(d) det B, cos(d) |Bv|^2 + sin(d) <Bv, B v_perp>)

        is exact for any |d| < pi: the image of v + d has cross product
        det B sin(d) with Bv, so its sign never leaves the atan2 branch.
        This per-object reference still cuts d into pieces, with the
        worst-case expansion rate cond(B) bounding each piece, so that it
        checks the one-atan2 pushes of ``dynamics`` independently.
        """
        delta = float(delta)
        steps = int(np.ceil(abs(delta) * self._cond / 1.0)) + 1
        sub = delta / steps
        total = 0.0
        theta = float(anchor)
        for _ in range(steps):
            u = np.array([np.cos(theta), np.sin(theta)])
            bu = self.matrix @ u
            bup = self.matrix @ np.array([-u[1], u[0]])
            c, s = np.cos(sub), np.sin(sub)
            total += np.arctan2(s * self._det, c * (bu @ bu) + s * (bu @ bup))
            theta += sub
        return total

    def inverse(self):
        return CircleMap(
            source=self.target,
            target=self.source,
            matrix=np.linalg.inv(self.matrix),
        )


def induced_circle_map(a, fi):
    """Circle map of A from the fiber over Fi to the fiber over A(Fi)."""
    target = act_partial(a, fi)
    su, sw = fi.frame
    tu, tw = target.frame
    au, aw = a.entries @ su, a.entries @ sw
    matrix = np.array([[tu @ au, tu @ aw], [tw @ au, tw @ aw]])
    return CircleMap(source=fi, target=target, matrix=matrix)
