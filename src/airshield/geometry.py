"""Pinhole camera model and planar-marker pose recovery.

Coordinate conventions:
    camera frame: x right, y down, z forward into the scene (meters)
    pixel frame:  u right, v down, origin at the top-left corner
    marker frame: origin at the tag center, z out of the tag face; the
        corner template is ordered counter-clockwise as seen in the image,
        starting at the bottom-left corner of an upright fronto-parallel tag.

Pose recovery runs a normalized direct linear transform on the four
corner correspondences, decomposes the resulting plane homography into a
rotation and translation, projects the rotation onto SO(3), and polishes
the result with a few Gauss-Newton steps on the pixel reprojection error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CornerBehindCamera",
    "DegenerateObservation",
    "CameraIntrinsics",
    "MarkerSpec",
    "TagObservation",
    "MarkerPose",
    "TcpPoint",
    "marker_corners",
    "project",
    "observe",
    "random_facing_pose",
    "estimate_pose",
    "marker_to_tcp_distance",
    "rotation_geodesic_rad",
]


class CornerBehindCamera(ValueError):
    pass


class DegenerateObservation(ValueError):
    pass


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float = 600.0
    fy: float = 600.0
    cx: float = 320.0
    cy: float = 240.0
    image_w: int = 640
    image_h: int = 480

    def __post_init__(self) -> None:
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise ValueError("focal lengths must be positive")
        if not (0.0 < self.cx < self.image_w and 0.0 < self.cy < self.image_h):
            raise ValueError("principal point must lie inside the image")

    def matrix(self) -> np.ndarray:
        return np.array([[self.fx, 0.0, self.cx],
                         [0.0, self.fy, self.cy],
                         [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class MarkerSpec:
    side_len: float = 0.05
    id: int = 0

    def __post_init__(self) -> None:
        if self.side_len <= 0.0:
            raise ValueError(f"marker side length must be positive, got {self.side_len}")


@dataclass(frozen=True, eq=False)
class TagObservation:
    corners: np.ndarray  # (4, 2) pixel coordinates, counter-clockwise from bottom-left
    id: int = 0
    timestamp_ms: float = 0.0

    def __post_init__(self) -> None:
        c = np.asarray(self.corners, dtype=float)
        if c.shape != (4, 2):
            raise ValueError(f"corners must be a 4x2 array, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("corner coordinates must be finite")
        object.__setattr__(self, "corners", c)


@dataclass(frozen=True, eq=False)
class MarkerPose:
    rotation: np.ndarray  # (3, 3), orthonormal, det = +1
    translation: np.ndarray  # (3,), meters, camera frame

    def __post_init__(self) -> None:
        r = np.asarray(self.rotation, dtype=float)
        t = np.asarray(self.translation, dtype=float).reshape(3)
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got shape {r.shape}")
        if not np.all(np.isfinite(r)) or not np.all(np.isfinite(t)):
            raise ValueError("pose entries must be finite")
        defect = np.linalg.norm(r.T @ r - np.eye(3))
        if defect > 1e-9:
            raise ValueError(f"rotation is not orthonormal (defect {defect:.2e})")
        if np.linalg.det(r) < 0.0:
            raise ValueError("rotation must be proper (det = +1)")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)


@dataclass(frozen=True)
class TcpPoint:
    position: np.ndarray  # (3,), meters, camera frame
    timestamp_ms: float = 0.0

    def __post_init__(self) -> None:
        p = np.asarray(self.position, dtype=float).reshape(3)
        if not np.all(np.isfinite(p)):
            raise ValueError("TCP position must be finite")
        object.__setattr__(self, "position", p)


# Unit square corner template, scaled by the side length. +y points toward
# the tag's lower edge so the projected order is counter-clockwise in image
# coordinates (where v grows downward) starting at the bottom-left.
_CORNER_TEMPLATE = np.array([
    [-0.5, 0.5, 0.0],
    [0.5, 0.5, 0.0],
    [0.5, -0.5, 0.0],
    [-0.5, -0.5, 0.0],
])


def marker_corners(spec: MarkerSpec) -> np.ndarray:
    """Tag corner coordinates in the marker frame, shape (4, 3)."""
    return _CORNER_TEMPLATE * spec.side_len


def project(pose: MarkerPose, spec: MarkerSpec, k: CameraIntrinsics) -> TagObservation:
    """Project the four tag corners through the pinhole model."""
    pts = marker_corners(spec) @ pose.rotation.T + pose.translation
    z = pts[:, 2]
    if np.any(z <= 0.0):
        raise CornerBehindCamera(f"corner depth must be positive, got min z = {z.min():.4f}")
    uv = np.empty((4, 2))
    uv[:, 0] = k.fx * pts[:, 0] / z + k.cx
    uv[:, 1] = k.fy * pts[:, 1] / z + k.cy
    return TagObservation(corners=uv, id=spec.id)


def observe(pose: MarkerPose, spec: MarkerSpec, k: CameraIntrinsics,
            noise_px: float = 0.0, rng: np.random.Generator | None = None,
            timestamp_ms: float = 0.0) -> TagObservation:
    """Synthetic detector output: projected corners plus i.i.d. pixel noise."""
    obs = project(pose, spec, k)
    corners = obs.corners
    if noise_px > 0.0:
        if rng is None:
            rng = np.random.default_rng()
        corners = corners + noise_px * rng.standard_normal((4, 2))
    return TagObservation(corners=corners, id=spec.id, timestamp_ms=timestamp_ms)


def random_facing_pose(rng: np.random.Generator,
                       z_range: tuple[float, float] = (0.3, 2.0),
                       max_tilt_rad: float = 0.6) -> MarkerPose:
    """Marker pose facing the camera with bounded tilt, inside a generous
    viewing frustum: the test and ``posecheck`` pose distribution."""
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, max_tilt_rad)
    k = _skew(axis)
    rot = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
    z = rng.uniform(*z_range)
    t = np.array([rng.uniform(-0.3, 0.3) * z, rng.uniform(-0.25, 0.25) * z, z])
    return MarkerPose(rotation=rot, translation=t)


def _check_convex(corners: np.ndarray) -> None:
    crosses = []
    for i in range(4):
        a = corners[(i + 1) % 4] - corners[i]
        b = corners[(i + 2) % 4] - corners[(i + 1) % 4]
        crosses.append(a[0] * b[1] - a[1] * b[0])
    span = np.abs(corners - corners.mean(axis=0)).max()
    tol = 1e-9 * max(span * span, 1.0)
    if any(abs(c) <= tol for c in crosses):
        raise DegenerateObservation("corners are collinear or coincident")
    if not (all(c > 0 for c in crosses) or all(c < 0 for c in crosses)):
        raise DegenerateObservation("corners do not form a convex quadrilateral")


def _normalizing_transform(pts: np.ndarray) -> np.ndarray:
    """Similarity moving the centroid to the origin, mean radius to sqrt(2)."""
    centroid = pts.mean(axis=0)
    mean_dist = np.mean(np.linalg.norm(pts - centroid, axis=1))
    if mean_dist <= 0.0:
        raise DegenerateObservation("all points coincide")
    s = math.sqrt(2.0) / mean_dist
    return np.array([[s, 0.0, -s * centroid[0]],
                     [0.0, s, -s * centroid[1]],
                     [0.0, 0.0, 1.0]])


def _homography_dlt(src_xy: np.ndarray, dst_uv: np.ndarray) -> np.ndarray:
    """Exact homography through four correspondences, Hartley-normalized."""
    t_src = _normalizing_transform(src_xy)
    t_dst = _normalizing_transform(dst_uv)
    ones = np.ones((4, 1))
    src_h = (np.hstack([src_xy, ones]) @ t_src.T)
    dst_h = (np.hstack([dst_uv, ones]) @ t_dst.T)
    a = np.zeros((8, 9))
    for i in range(4):
        x, y = src_h[i, 0], src_h[i, 1]
        u, v = dst_h[i, 0], dst_h[i, 1]
        a[2 * i] = [-x, -y, -1.0, 0.0, 0.0, 0.0, u * x, u * y, u]
        a[2 * i + 1] = [0.0, 0.0, 0.0, -x, -y, -1.0, v * x, v * y, v]
    _, s, vt = np.linalg.svd(a)
    if s[-1] < 1e-10 * s[0]:
        raise DegenerateObservation("homography system is rank-deficient")
    h_norm = vt[-1].reshape(3, 3)
    h = np.linalg.inv(t_dst) @ h_norm @ t_src
    return h / h[2, 2] if abs(h[2, 2]) > 1e-30 else h


def _nearest_rotation(m: np.ndarray) -> np.ndarray:
    u, _, vt = np.linalg.svd(m)
    d = np.sign(np.linalg.det(u @ vt))
    return u @ np.diag([1.0, 1.0, d]) @ vt


def _pose_from_homography(h: np.ndarray, k: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    k_inv = np.array([[1.0 / k.fx, 0.0, -k.cx / k.fx],
                      [0.0, 1.0 / k.fy, -k.cy / k.fy],
                      [0.0, 0.0, 1.0]])
    m = k_inv @ h
    if m[2, 2] < 0.0:  # fix the projective sign so the marker sits in front
        m = -m
    n1, n2 = np.linalg.norm(m[:, 0]), np.linalg.norm(m[:, 1])
    if n1 <= 0.0 or n2 <= 0.0:
        raise DegenerateObservation("homography decomposition collapsed")
    lam = math.sqrt(n1 * n2)
    r1, r2 = m[:, 0] / lam, m[:, 1] / lam
    t = m[:, 2] / lam
    r = _nearest_rotation(np.column_stack([r1, r2, np.cross(r1, r2)]))
    return r, t


def _so3_exp(w: np.ndarray) -> np.ndarray:
    theta = np.linalg.norm(w)
    if theta < 1e-12:
        wx = _skew(w)
        return np.eye(3) + wx + 0.5 * wx @ wx
    axis = w / theta
    wx = _skew(axis)
    return np.eye(3) + math.sin(theta) * wx + (1.0 - math.cos(theta)) * (wx @ wx)


def _skew(w: np.ndarray) -> np.ndarray:
    return np.array([[0.0, -w[2], w[1]],
                     [w[2], 0.0, -w[0]],
                     [-w[1], w[0], 0.0]])


def _refine_pose(r: np.ndarray, t: np.ndarray, obj_pts: np.ndarray,
                 uv: np.ndarray, k: CameraIntrinsics,
                 max_iter: int = 25) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Newton on reprojection error over (rotation, translation)."""
    for _ in range(max_iter):
        cam = obj_pts @ r.T + t
        z = cam[:, 2]
        if np.any(z <= 0.0):
            break
        pred_u = k.fx * cam[:, 0] / z + k.cx
        pred_v = k.fy * cam[:, 1] / z + k.cy
        resid = np.concatenate([pred_u - uv[:, 0], pred_v - uv[:, 1]])
        jac = np.zeros((8, 6))
        for i in range(4):
            x, y, zz = cam[i]
            # d(pixel)/d(camera point)
            du = np.array([k.fx / zz, 0.0, -k.fx * x / (zz * zz)])
            dv = np.array([0.0, k.fy / zz, -k.fy * y / (zz * zz)])
            # left-multiplicative so(3) perturbation: d(cam)/d(omega) = -[R p]x
            dcam_dw = -_skew(obj_pts[i] @ r.T)
            jac[i, :3] = du @ dcam_dw
            jac[i, 3:] = du
            jac[4 + i, :3] = dv @ dcam_dw
            jac[4 + i, 3:] = dv
        jtj = jac.T @ jac
        jtr = jac.T @ resid
        try:
            delta = np.linalg.solve(jtj + 1e-12 * np.eye(6), -jtr)
        except np.linalg.LinAlgError:
            break
        r = _so3_exp(delta[:3]) @ r
        t = t + delta[3:]
        if np.linalg.norm(delta) < 1e-14:
            break
    return _nearest_rotation(r), t


def estimate_pose(obs: TagObservation, spec: MarkerSpec, k: CameraIntrinsics) -> MarkerPose:
    """Recover the marker pose that minimizes corner reprojection error.

    Raises DegenerateObservation when the corners are collinear, concave,
    or otherwise leave the homography under-determined.
    """
    _check_convex(obs.corners)
    obj = marker_corners(spec)
    h = _homography_dlt(obj[:, :2], obs.corners)
    r, t = _pose_from_homography(h, k)
    if t[2] <= 0.0:
        raise DegenerateObservation("decomposed pose places the marker behind the camera")
    r, t = _refine_pose(r, t, obj, obs.corners, k)
    return MarkerPose(rotation=r, translation=t)


def marker_to_tcp_distance(pose: MarkerPose, tcp: TcpPoint) -> float:
    """Euclidean separation between the marker center and the tool point."""
    d = pose.translation - tcp.position
    return float(math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]))


def rotation_geodesic_rad(ra: np.ndarray, rb: np.ndarray) -> float:
    """Angle of the relative rotation between two orthonormal matrices."""
    c = (np.trace(ra @ rb.T) - 1.0) / 2.0
    return math.acos(min(max(c, -1.0), 1.0))
