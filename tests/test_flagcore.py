import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flagdim import circle
from flagdim.errors import DegenerateBasis
from flagdim.flagcore import (CircleMap, Flag, LinearMap, act_flag,
                              completion_frames, det_on_subspace,
                              fiber_coordinates, fiber_embed, flag_jacobian,
                              induced_circle_map, orthonormalize,
                              partial_flag)

from conftest import random_invertible


def random_flag(rng, d):
    return Flag.from_matrix(random_invertible(rng, d))


def test_orthonormalize_identity():
    assert np.array_equal(orthonormalize(np.eye(3)), np.eye(3))


def test_orthonormalize_shear():
    got = orthonormalize(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert np.allclose(got, np.eye(2), atol=1e-14)


def test_orthonormalize_preserves_leading_spans(rng):
    for _ in range(20):
        b = random_invertible(rng, 5)
        q = orthonormalize(b)
        assert np.max(np.abs(q.T @ q - np.eye(5))) < 1e-10
        for i in range(1, 6):
            # projector comparison against the pseudoinverse factorization
            pb = b[:, :i] @ np.linalg.pinv(b[:, :i])
            pq = q[:, :i] @ q[:, :i].T
            assert np.max(np.abs(pb - pq)) < 1e-8


def test_orthonormalize_positive_diagonal(rng):
    b = random_invertible(rng, 4)
    q = orthonormalize(b)
    r = q.T @ b
    assert np.all(np.diag(r) > 0)


def test_orthonormalize_rejects_dependent_columns():
    b = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(DegenerateBasis):
        orthonormalize(b)


def test_linear_map_rejects_singular():
    with pytest.raises(DegenerateBasis):
        LinearMap(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(DegenerateBasis):
        LinearMap(np.array([[1.0]]))


def test_act_flag_identity(rng):
    f = random_flag(rng, 3)
    g = act_flag(LinearMap(np.eye(3)), f)
    assert np.allclose(g.basis, f.basis, atol=1e-12)


def test_act_flag_orthogonal_on_standard(rng):
    q = orthonormalize(random_invertible(rng, 4))
    g = act_flag(LinearMap(q), Flag.standard(4))
    assert np.allclose(g.basis, q, atol=1e-12)


def test_act_flag_diagonal_line():
    f = Flag.from_matrix(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2))
    g = act_flag(LinearMap(np.diag([2.0, 0.5])), f)
    want = np.array([2.0, 0.5]) / np.hypot(2.0, 0.5)
    assert np.allclose(np.abs(g.basis[:, 0]), np.abs(want), atol=1e-12)


def test_act_flag_maps_subspaces(rng):
    a = random_invertible(rng, 4)
    f = random_flag(rng, 4)
    g = act_flag(LinearMap(a), f)
    for i in range(1, 5):
        img = a @ f.basis[:, :i]
        p_img = img @ np.linalg.pinv(img)
        p_got = g.basis[:, :i] @ g.basis[:, :i].T
        assert np.max(np.abs(p_img - p_got)) < 1e-8


def test_det_on_subspace_values(rng):
    a = LinearMap(np.diag([2.0, 0.5]))
    f = Flag.standard(2)
    assert det_on_subspace(a, f, 0) == 1.0
    assert np.isclose(det_on_subspace(a, f, 1), 2.0, rtol=1e-14)
    assert np.isclose(det_on_subspace(a, f, 2), 1.0, rtol=1e-12)


def test_det_on_subspace_is_restricted_volume(rng):
    for _ in range(10):
        d = int(rng.integers(2, 5))
        a = random_invertible(rng, d)
        f = random_flag(rng, d)
        for i in range(1, d + 1):
            sv = np.linalg.svd(a @ f.basis[:, :i], compute_uv=False)
            got = det_on_subspace(LinearMap(a), f, i)
            assert np.isclose(got, np.prod(sv), rtol=1e-10)
        assert np.isclose(det_on_subspace(LinearMap(a), f, 1),
                          np.linalg.norm(a @ f.basis[:, 0]), rtol=1e-12)


def test_det_multiplicativity(rng):
    for _ in range(20):
        d = int(rng.integers(2, 5))
        a, b = random_invertible(rng, d), random_invertible(rng, d)
        f = random_flag(rng, d)
        fb = act_flag(LinearMap(b), f)
        for i in range(d + 1):
            lhs = det_on_subspace(LinearMap(a @ b), f, i)
            rhs = (det_on_subspace(LinearMap(a), fb, i)
                   * det_on_subspace(LinearMap(b), f, i))
            assert np.isclose(lhs, rhs, rtol=1e-8)


def test_flag_jacobian_diagonal_d2():
    got = flag_jacobian(LinearMap(np.diag([2.0, 0.5])), Flag.standard(2), 1)
    assert np.isclose(got, 4.0, rtol=1e-12)


def test_flag_jacobian_diagonal_d3():
    got = flag_jacobian(LinearMap(np.diag([3.0, 1.0, 1 / 3.0])),
                        Flag.standard(3), 1)
    assert np.isclose(got, 3.0, rtol=1e-12)


def test_flag_jacobian_orthogonal_neutrality(rng):
    for _ in range(10):
        d = int(rng.integers(2, 5))
        q = LinearMap(orthonormalize(random_invertible(rng, d)))
        f = random_flag(rng, d)
        for i in range(1, d):
            assert np.isclose(flag_jacobian(q, f, i), 1.0, atol=1e-10)
        for i in range(d + 1):
            assert np.isclose(det_on_subspace(q, f, i), 1.0, atol=1e-10)


def test_flag_jacobian_is_det_ratio(rng):
    # the defining formula in terms of restricted determinants
    for _ in range(10):
        d = int(rng.integers(2, 5))
        a = LinearMap(random_invertible(rng, d))
        f = random_flag(rng, d)
        for i in range(1, d):
            want = (det_on_subspace(a, f, i) ** 2
                    / (det_on_subspace(a, f, i - 1)
                       * det_on_subspace(a, f, i + 1)))
            assert np.isclose(flag_jacobian(a, f, i), want, rtol=1e-10)


def test_flag_jacobian_cocycle(rng):
    for _ in range(30):
        d = int(rng.integers(2, 5))
        a, b = random_invertible(rng, d), random_invertible(rng, d)
        f = random_flag(rng, d)
        i = int(rng.integers(1, d))
        lhs = flag_jacobian(LinearMap(a @ b), f, i)
        rhs = (flag_jacobian(LinearMap(a), act_flag(LinearMap(b), f), i)
               * flag_jacobian(LinearMap(b), f, i))
        assert np.isclose(lhs, rhs, rtol=1e-8)


def test_fiber_embed_conventions(rng):
    f = random_flag(rng, 3)
    fi = partial_flag(f, 1)
    u, w = fi.frame
    at0 = fiber_embed(fi, 0.0)
    assert np.allclose(np.abs(at0.basis[:, 0] @ u), 1.0, atol=1e-10)
    at_half = fiber_embed(fi, np.pi / 2)
    assert np.allclose(np.abs(at_half.basis[:, 0] @ w), 1.0, atol=1e-10)


def test_fiber_round_trip(rng):
    for _ in range(25):
        d = int(rng.integers(2, 5))
        f = random_flag(rng, d)
        i = int(rng.integers(1, d))
        fi = partial_flag(f, i)
        theta = float(rng.uniform(0, np.pi))
        g = fiber_embed(fi, theta)
        back = fiber_coordinates(g.basis, np.column_stack(
            partial_flag(g, i).frame), i)
        assert circle.distance(back, theta) < 1e-10


def test_fiber_embed_keeps_other_subspaces(rng):
    f = random_flag(rng, 4)
    fi = partial_flag(f, 2)
    g = fiber_embed(fi, 1.1)
    for i in (1, 3, 4):
        pf = f.basis[:, :i] @ f.basis[:, :i].T
        pg = g.basis[:, :i] @ g.basis[:, :i].T
        assert np.max(np.abs(pf - pg)) < 1e-10


def test_fiber_coordinate_is_isometry(rng):
    # half-scaled circle distance matches the projective angle
    f = random_flag(rng, 3)
    fi = partial_flag(f, 1)
    t1, t2 = 0.3, 2.1
    g1, g2 = fiber_embed(fi, t1), fiber_embed(fi, t2)
    # angle between the two unit lines
    ang = np.arccos(min(abs(g1.basis[:, 0] @ g2.basis[:, 0]), 1.0))
    assert np.isclose(circle.distance(t1, t2), ang, atol=1e-10)


def test_completion_rule_deterministic(rng):
    f = random_flag(rng, 4)
    a, b = partial_flag(f, 2), partial_flag(f, 2)
    assert np.array_equal(a.frame[0], b.frame[0])
    assert np.array_equal(a.frame[1], b.frame[1])
    u, w = a.frame
    assert abs(u @ u - 1) < 1e-12 and abs(w @ w - 1) < 1e-12
    assert abs(u @ w) < 1e-12


def completion_pair(plane):
    """The completion rule for one plane, step by step as it is stated.

    u is the normalized projection of the first axis e_j whose projection
    has squared length at least 1/d; w is u turned a quarter inside the
    plane, with its first component of square at least 1/d positive.
    """
    d = plane.shape[0]
    projector = plane @ plane.T
    j = next(j for j in range(d) if projector[:, j] @ projector[:, j] >= 1 / d)
    u = projector[:, j] / np.linalg.norm(projector[:, j])
    a = plane.T @ u
    w = plane @ np.array([-a[1], a[0]])
    k = next((k for k in range(d) if w[k] ** 2 >= 1 / d), 0)
    return u, (-w if w[k] < 0 else w)


def test_completion_frames_match_scalar_rule(rng):
    # random planes, and planes on coordinate axes, where projections of
    # whole basis vectors vanish and the rule must skip them
    for d in (2, 3, 4, 5):
        planes = [random_flag(rng, d).basis[:, 1:3] if d > 2
                  else random_flag(rng, d).basis for _ in range(50)]
        e = np.eye(d)
        for a in range(d):
            for b in range(a + 1, d):
                axes = e[:, [a, b]]
                planes += [axes, axes[:, ::-1], -axes,
                           np.column_stack([axes @ [1, 1], axes @ [1, -1]])
                           / np.sqrt(2)]
        got = completion_frames(np.stack(planes))
        for plane, frame in zip(planes, got):
            u, w = completion_pair(plane)
            assert np.max(np.abs(frame - np.column_stack([u, w]))) < 1e-12


@pytest.mark.parametrize("reach", [1e-3, 1e-5, 1e-7])
def test_completion_frames_of_a_near_axis_plane_move_with_its_basis(rng,
                                                                    reach):
    # the plane's normal leans off e_1 by ``reach``, so e_1 projects onto
    # it with that length; a second basis, the first moved by rounding-sized
    # noise and orthonormalized again, must get a frame as close, however
    # short that projection is
    phi = rng.uniform(0, 2 * np.pi)
    normal = np.array([np.sqrt(1 - reach ** 2), reach * np.cos(phi),
                       reach * np.sin(phi)])
    q, _ = np.linalg.qr(np.column_stack([normal, rng.standard_normal((3, 2))]))
    plane = q[:, 1:]
    assert np.isclose(np.linalg.norm(plane[0]), reach, rtol=1e-6)
    q, r = np.linalg.qr(plane + 1e-15 * rng.standard_normal((3, 2)))
    moved = q * np.sign(np.diag(r))
    assert 0 < np.max(np.abs(moved - plane)) < 1e-14
    frames = completion_frames(np.stack([plane, moved]))
    assert np.max(np.abs(frames[0] - frames[1])) < 1e-13


def test_completion_frame_of_the_whole_plane_is_the_standard_one(rng):
    # for d = 2 the fiber plane is R^2 itself, whichever basis carries it
    angles = np.concatenate([rng.uniform(0, 2 * np.pi, 200),
                             np.arange(8) * np.pi / 4])
    c, s = np.cos(angles), np.sin(angles)
    rotations = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    bases = np.concatenate([rotations, rotations * [1.0, -1.0]])
    frames = completion_frames(bases)
    assert np.max(np.abs(frames - np.eye(2))) <= 1e-15


def test_induced_circle_map_identity(rng):
    fi = partial_flag(random_flag(rng, 3), 2)
    t = induced_circle_map(LinearMap(np.eye(3)), fi)
    for theta in (0.0, 0.7, 2.9):
        assert circle.distance(t(theta), theta) < 1e-10
        assert np.isclose(t.derivative(theta), 1.0, atol=1e-10)


def test_induced_circle_map_orthogonal_isometry(rng):
    q = LinearMap(orthonormalize(random_invertible(rng, 3)))
    fi = partial_flag(random_flag(rng, 3), 1)
    t = induced_circle_map(q, fi)
    thetas = rng.uniform(0, np.pi, 8)
    for th in thetas:
        assert np.isclose(t.derivative(th), 1.0, atol=1e-9)
    d0 = circle.distance(thetas[0], thetas[1])
    assert np.isclose(circle.distance(t(thetas[0]), t(thetas[1])), d0,
                      atol=1e-9)


def test_induced_map_matches_jacobian(rng):
    for _ in range(10):
        d = int(rng.integers(2, 5))
        a = random_invertible(rng, d)
        f = random_flag(rng, d)
        i = int(rng.integers(1, d))
        fi = partial_flag(f, i)
        theta = fiber_coordinates(f.basis, np.column_stack(fi.frame), i)
        t = induced_circle_map(LinearMap(a), fi)
        deriv = t.derivative(theta)
        dens = flag_jacobian(LinearMap(a), f, i)
        assert np.isclose(deriv * dens, 1.0, rtol=1e-8)


def test_induced_map_derivative_finite_difference(rng):
    # independent oracle: symmetric difference quotient of the map itself
    for _ in range(15):
        d = int(rng.integers(2, 5))
        a = random_invertible(rng, d)
        fi = partial_flag(random_flag(rng, d), int(rng.integers(1, d)))
        t = induced_circle_map(LinearMap(a), fi)
        theta = float(rng.uniform(0, np.pi))
        h = 1e-6
        # the step between the images, taken the short way round the circle
        step = np.mod(t(theta + h) - t(theta - h) + np.pi / 2, np.pi)
        fd = (step - np.pi / 2) / (2 * h)
        assert np.isclose(abs(fd), t.derivative(theta), rtol=1e-6)


def test_derivative_integrates_to_one(rng):
    # change of variables: the pushed measure of the whole circle is 1;
    # periodic trapezoid rule converges far below the 1e-6 target
    for _ in range(5):
        d = int(rng.integers(2, 5))
        a = random_invertible(rng, d)
        fi = partial_flag(random_flag(rng, d), int(rng.integers(1, d)))
        t = induced_circle_map(LinearMap(a), fi)
        grid = np.linspace(0.0, np.pi, 4096, endpoint=False)
        vals = np.array([t.derivative(th) for th in grid])
        assert np.isclose(vals.mean(), 1.0, atol=1e-6)


def test_circle_map_inverse(rng):
    a = random_invertible(rng, 3)
    fi = partial_flag(random_flag(rng, 3), 1)
    t = induced_circle_map(LinearMap(a), fi)
    tinv = t.inverse()
    for theta in (0.1, 1.0, 2.5):
        assert circle.distance(tinv(t(theta)), theta) < 1e-9
        assert np.isclose(t.derivative(theta) * tinv.derivative(t(theta)),
                          1.0, rtol=1e-9)


def test_rotated_completion_rule_gives_same_map(rng):
    # coordinates are a gauge choice: a frame rotated by alpha must induce
    # the same circle map up to the alpha shift, with equal derivatives
    from flagdim.flagcore import PartialFlag
    alpha = 0.6
    a = LinearMap(random_invertible(rng, 3))
    fi = partial_flag(random_flag(rng, 3), 1)
    u, w = fi.frame
    basis2 = fi.basis.copy()
    basis2[:, 0] = np.cos(alpha) * u + np.sin(alpha) * w
    basis2[:, 1] = -np.sin(alpha) * u + np.cos(alpha) * w
    fi2 = PartialFlag(missing=1, basis=basis2)
    t, t2 = induced_circle_map(a, fi), induced_circle_map(a, fi2)
    for theta in (0.0, 0.9, 1.7, 2.8):
        assert circle.distance(t2(theta - alpha), t(theta)) < 1e-9
        assert np.isclose(t2.derivative(circle.wrap(theta - alpha)),
                          t.derivative(theta), rtol=1e-9)


def angle_between_lines(a, b):
    """Angle between the lines R a and R b of the plane: the circle distance
    of the fiber coordinates of the flags they start."""
    flags = [Flag.from_matrix(np.column_stack([v, [-v[1], v[0]]]))
             for v in (a, b)]
    coords = [fiber_coordinates(f.basis, np.column_stack(
        partial_flag(f, 1).frame), 1) for f in flags]
    return float(circle.distance(*coords))


def test_angle_between_lines_examples():
    e1, e2 = np.eye(2)
    assert np.isclose(angle_between_lines(e1, e2), np.pi / 2, atol=1e-14)
    assert angle_between_lines(e1, e1) == 0.0
    assert np.isclose(angle_between_lines(e1, e1 + e2), np.pi / 4, atol=1e-12)
    # sign of either vector is irrelevant for lines
    assert np.isclose(angle_between_lines(e1, -(e1 + e2)), np.pi / 4,
                      atol=1e-12)
    with pytest.raises(DegenerateBasis):
        angle_between_lines(e1, np.zeros(2))


@given(st.floats(0, np.pi, exclude_max=True),
       st.floats(0, np.pi, exclude_max=True))
def test_circle_distance_bounds(a, b):
    d = circle.distance(a, b)
    assert 0 <= d <= np.pi / 2 + 1e-12
    assert np.isclose(d, circle.distance(b, a), atol=1e-12)


@given(st.floats(-50, 50))
def test_circle_wrap_range(theta):
    w = circle.wrap(theta)
    assert 0 <= w < np.pi
    assert np.isclose(np.tan(w), np.tan(theta), atol=1e-6) or \
        abs(np.cos(theta)) < 1e-3


def test_circle_wrap_equals_np_mod_bit_for_bit(rng):
    # inputs in [-pi, pi] skip np.mod; the result is np.mod's bit for bit,
    # signed zeros, a tiny negative rounding up to pi and NaN included
    tiny = np.nextafter(0.0, -1.0)
    edges = np.array([0.0, -0.0, np.pi, -np.pi, np.nextafter(np.pi, 0.0),
                      -np.nextafter(np.pi, 0.0), tiny, -1e-17, -1e-300,
                      1e-300])
    beyond = np.array([3.2, -3.2, 7.0, -1e6, 4 * np.pi, -np.inf, np.nan])
    atan2 = np.arctan2(rng.standard_normal(10 ** 5),
                       rng.standard_normal(10 ** 5))
    atan2[:4] = np.arctan2([0.0, -0.0, 0.0, -0.0], [1.0, 1.0, -1.0, -1.0])

    def mod(theta):
        out = np.mod(theta, np.pi)
        return np.where(out >= np.pi, 0.0, out)
    with np.errstate(invalid="ignore"):
        for theta in (edges, beyond, np.concatenate([edges, beyond]), atan2,
                      atan2.reshape(100, 1000), np.empty(0)):
            assert circle.wrap(theta).tobytes() == mod(theta).tobytes()
        for theta in np.concatenate([edges, beyond]):
            assert np.float64(circle.wrap(theta)).tobytes() == \
                mod(theta).tobytes()


IDENTITY_FIBER_MAP = induced_circle_map(LinearMap(np.eye(2)),
                                        partial_flag(Flag.standard(2), 1))


@given(st.floats(0, np.pi, exclude_max=True),
       st.floats(-1.5, 1.5))
@settings(max_examples=60)
def test_signed_difference_recovers_offset(base, off):
    # the identity's signed image offset is the offset itself, up to a turn
    got = IDENTITY_FIBER_MAP.map_offset(base, off)
    assert abs(circle.wrap(base + got) - circle.wrap(base + off)) < 1e-9 or \
        np.isclose(circle.distance(base + got, base + off), 0.0, atol=1e-9)
