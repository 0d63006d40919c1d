"""Pose geometry tests.

The forward projection is pinned with hand-computed pixel values; pose
estimation is then checked as a round trip through that forward oracle.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from airshield import geometry as g


def pose(rotation, translation):
    return g.MarkerPose(rotation=np.asarray(rotation, dtype=float),
                        translation=np.asarray(translation, dtype=float))


IDENTITY = np.eye(3)


# --- project ---------------------------------------------------------------

def test_project_unit_depth(cam, marker):
    obs = g.project(pose(IDENTITY, [0, 0, 1.0]), marker, cam)
    # half side 0.05 m at 1 m with f=600 -> +/-30 px around the principal point
    expected = [(290, 270), (350, 270), (350, 210), (290, 210)]
    assert np.allclose(obs.corners, expected)


def test_project_double_depth_halves_offsets(cam, marker):
    obs = g.project(pose(IDENTITY, [0, 0, 2.0]), marker, cam)
    expected = [(305, 255), (335, 255), (335, 225), (305, 225)]
    assert np.allclose(obs.corners, expected)


def test_project_behind_camera(cam, marker):
    with pytest.raises(g.CornerBehindCamera):
        g.project(pose(IDENTITY, [0, 0, -1.0]), marker, cam)


def test_observe_adds_seeded_noise(cam, marker):
    p = pose(IDENTITY, [0, 0, 1.0])
    clean = g.project(p, marker, cam)
    noisy = g.observe(p, marker, cam, noise_px=0.5, rng=np.random.default_rng(1))
    assert not np.allclose(noisy.corners, clean.corners)
    assert np.abs(noisy.corners - clean.corners).max() < 3.0
    again = g.observe(p, marker, cam, noise_px=0.5, rng=np.random.default_rng(1))
    assert np.array_equal(noisy.corners, again.corners)


# --- estimate_pose ---------------------------------------------------------

def test_estimate_recovers_canonical_pose(cam, marker):
    obs = g.TagObservation(corners=np.array([(290, 270), (350, 270), (350, 210), (290, 210)],
                                            dtype=float))
    est = g.estimate_pose(obs, marker, cam)
    assert g.rotation_geodesic_rad(est.rotation, IDENTITY) <= 1e-6
    assert np.linalg.norm(est.translation - [0, 0, 1.0]) <= 1e-6


def test_noiseless_round_trip_random_poses(cam, marker):
    rng = np.random.default_rng(123)
    for _ in range(300):
        p = g.random_facing_pose(rng)
        est = g.estimate_pose(g.project(p, marker, cam), marker, cam)
        assert g.rotation_geodesic_rad(est.rotation, p.rotation) <= 1e-6
        assert np.linalg.norm(est.translation - p.translation) <= 1e-6


def test_estimated_rotation_is_orthonormal(cam, marker):
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = g.random_facing_pose(rng)
        est = g.estimate_pose(g.observe(p, marker, cam, noise_px=1.0, rng=rng), marker, cam)
        r = est.rotation
        assert np.linalg.norm(r.T @ r - np.eye(3)) <= 1e-9
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-9)
        assert est.translation[2] > 0


@pytest.mark.parametrize("noise_px", [0.5, 2.0])
def test_polished_rotation_is_orthonormal_to_rounding(cam, marker, noise_px):
    # The polish never projects onto SO(3): only its exact Rodrigues steps
    # keep the rotation orthonormal. Seed 0's pose 35 (counting from 0) at 0.5 px
    # is one that runs to the 25-step cap.
    rng = np.random.default_rng(0)
    for _ in range(200):
        p = g.random_facing_pose(rng)
        r = g.estimate_pose(g.observe(p, marker, cam, noise_px, rng), marker, cam).rotation
        assert np.linalg.norm(r.T @ r - np.eye(3)) <= 1e-12
        assert abs(np.linalg.det(r) - 1.0) <= 1e-12


def test_collinear_corners_degenerate(cam, marker):
    obs = g.TagObservation(corners=np.array([(100, 100), (150, 150), (200, 200), (250, 250)],
                                            dtype=float))
    with pytest.raises(g.DegenerateObservation):
        g.estimate_pose(obs, marker, cam)


def test_concave_quad_degenerate(cam, marker):
    obs = g.TagObservation(corners=np.array([(100, 100), (300, 100), (150, 150), (300, 300)],
                                            dtype=float))
    with pytest.raises(g.DegenerateObservation):
        g.estimate_pose(obs, marker, cam)


def test_noise_robustness_patch_tag(cam):
    # Patch-scale tag (0.15 m) at 1 m: the tracking capability check.
    marker = g.MarkerSpec(side_len=0.15)
    rng = np.random.default_rng(21)
    errs = []
    for _ in range(400):
        p = g.random_facing_pose(rng, z_range=(1.0, 1.0))
        est = g.estimate_pose(g.observe(p, marker, cam, noise_px=0.5, rng=rng), marker, cam)
        errs.append(np.linalg.norm(est.translation - p.translation))
    assert np.median(errs) <= 0.005


# --- properties of estimate_pose ---------------------------------------------

seeds = st.integers(0, 2**32 - 1)


@st.composite
def corner_sets(draw):
    """Finite corners: anywhere on a wide plane, or a projected tag moved a bit."""
    if draw(st.booleans()):
        xy = draw(st.lists(st.floats(-1e4, 1e4), min_size=8, max_size=8))
        return np.array(xy).reshape(4, 2)
    rng = np.random.default_rng(draw(seeds))
    obs = g.project(g.random_facing_pose(rng), g.MarkerSpec(side_len=0.10), g.CameraIntrinsics())
    scale = draw(st.sampled_from([0.0, 1e-12, 1e-6, 0.5, 5.0, 50.0]))
    return obs.corners + scale * rng.standard_normal((4, 2))


def reprojection(pose, spec, k, uv):
    """Residual (8,) and its Jacobian (8, 6) over a left so(3) perturbation
    and a translation, built one corner at a time."""
    resid, jac = np.zeros(8), np.zeros((8, 6))
    for i, p in enumerate(g.marker_corners(spec)):
        rp = pose.rotation @ p
        x, y, z = rp + pose.translation
        du = np.array([k.fx / z, 0.0, -k.fx * x / z**2])
        dv = np.array([0.0, k.fy / z, -k.fy * y / z**2])
        skew = np.array([[0.0, -rp[2], rp[1]], [rp[2], 0.0, -rp[0]], [-rp[1], rp[0], 0.0]])
        resid[i], resid[4 + i] = k.fx * x / z + k.cx - uv[i, 0], k.fy * y / z + k.cy - uv[i, 1]
        jac[i] = np.concatenate([-du @ skew, du])
        jac[4 + i] = np.concatenate([-dv @ skew, dv])
    return resid, jac


@given(corner_sets())
# A Gauss-Newton step takes this start from t_z = 8.95 m to t_z = -0.26 m.
@example(np.array([[0.0, 0.0], [0.0, 1.0], [0.015625, 1.0], [30.0, 0.0]]))
# A sliver whose smallest turn is 1.03 times the collinearity tolerance: an
# edge-on tag, found after 7 steps.
@example(np.array([[0.0, 240.0], [640.0, 240.0], [480.0, 240.00000033], [160.0, 240.00000033]]))
# A quad 2e4 px wide: a tag 3 mm from the lens, polished for all 25 steps.
@example(np.array([[-1e4, 1e4], [1e4, 1e4], [1e4, -1e4], [-1e4, -9999.0]]))
# Corners about 1e80 px out: the polish's Gram product overflows, so its
# squared error is not finite.
@example(np.array([[-7.570152622082312e+78, 2.0211439504395986e+79],
                   [6.941719367070081e+79, -7.583697508984092e+79],
                   [1.4209820223119162e+80, 7.26093788947765e+79],
                   [8.43732662303268e+79, 1.1648639811110282e+80]]))
def test_any_finite_corners_give_a_pose_or_degenerate(corners):
    obs, marker = g.TagObservation(corners=corners), g.MarkerSpec(side_len=0.10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            est = g.estimate_pose(obs, marker, g.CameraIntrinsics())
        except g.DegenerateObservation:
            return
    assert isinstance(est, g.MarkerPose)
    depths = (g.marker_corners(marker) @ est.rotation.T + est.translation)[:, 2]
    assert depths.min() > 0.0


@given(seeds)
def test_noise_free_round_trip_is_exact(seed):
    cam, marker = g.CameraIntrinsics(), g.MarkerSpec(side_len=0.10)
    p = g.random_facing_pose(np.random.default_rng(seed))
    est = g.estimate_pose(g.project(p, marker, cam), marker, cam)
    assert np.abs(est.rotation - p.rotation).max() <= 1e-9
    assert np.abs(est.translation - p.translation).max() <= 1e-9


@given(seeds, st.sampled_from([0.5, 2.0]))
def test_estimate_is_a_stationary_point_of_the_reprojection_error(seed, noise_px):
    # Most estimates sit near 1e-13. A few poses converge slowly and stop at
    # the 25-step cap: up to 7.5e-4 over seeds 0-12 999 at both noise levels,
    # and 1.8e-3 at seed 0's pose 35 at 0.5 px. The bound leaves room.
    cam, marker = g.CameraIntrinsics(), g.MarkerSpec(side_len=0.10)
    rng = np.random.default_rng(seed)
    obs = g.observe(g.random_facing_pose(rng), marker, cam, noise_px=noise_px, rng=rng)
    resid, jac = reprojection(g.estimate_pose(obs, marker, cam), marker, cam, obs.corners)
    assert np.linalg.norm(jac.T @ resid) <= 1e-2 * np.linalg.norm(jac) * np.linalg.norm(resid)


# --- distance --------------------------------------------------------------

def test_distance_axis_aligned(cam):
    p = pose(IDENTITY, [0.1, 0.0, 0.5])
    tcp = g.TcpPoint(position=np.array([0.1, 0.0, 0.85]))
    assert g.marker_to_tcp_distance(p, tcp) == pytest.approx(0.35, abs=1e-12)


def test_distance_zero_when_coincident():
    p = pose(IDENTITY, [0.2, -0.1, 0.7])
    tcp = g.TcpPoint(position=np.array([0.2, -0.1, 0.7]))
    assert g.marker_to_tcp_distance(p, tcp) == 0.0


def test_distance_pythagorean():
    p = pose(IDENTITY, [0, 0, 1.0])
    tcp = g.TcpPoint(position=np.array([0.3, 0.4, 1.0]))
    assert g.marker_to_tcp_distance(p, tcp) == pytest.approx(0.5, abs=1e-12)


def test_distance_symmetric_and_nonnegative():
    rng = np.random.default_rng(17)
    for _ in range(100):
        a = rng.uniform(-1, 1, 3)
        b = rng.uniform(-1, 1, 3)
        a[2] = abs(a[2]) + 0.1
        b[2] = abs(b[2]) + 0.1
        d_ab = g.marker_to_tcp_distance(pose(IDENTITY, a), g.TcpPoint(position=b))
        d_ba = g.marker_to_tcp_distance(pose(IDENTITY, b), g.TcpPoint(position=a))
        assert d_ab == pytest.approx(d_ba, abs=1e-15)
        assert d_ab >= 0.0


# --- type validation -------------------------------------------------------

def test_marker_pose_rejects_non_rotation():
    with pytest.raises(ValueError):
        g.MarkerPose(rotation=np.eye(3) * 1.01, translation=np.zeros(3))
    with pytest.raises(ValueError):
        g.MarkerPose(rotation=np.diag([1.0, 1.0, -1.0]), translation=np.zeros(3))


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        g.CameraIntrinsics(fx=-1.0)
    with pytest.raises(ValueError):
        g.CameraIntrinsics(cx=700.0)


def test_observation_shape_validation():
    with pytest.raises(ValueError):
        g.TagObservation(corners=np.zeros((3, 2)))
