"""Pinhole camera model and planar-marker pose recovery.

Coordinate conventions:
    camera frame: x right, y down, z forward into the scene (meters)
    pixel frame:  u right, v down, origin at the top-left corner
    marker frame: origin at the tag center, z out of the tag face; the
        corner template is ordered counter-clockwise as seen in the image,
        starting at the bottom-left corner of an upright fronto-parallel tag.

Pose recovery maps the unit square onto the four normalized corners with
the closed-form square-to-quad homography, decomposes that plane homography
into a rotation and translation, and projects the rotation onto SO(3), the
only such projection. Gauss-Newton steps on the pixel reprojection error
polish the result on plain floats, one Gram product and one 6x6 solve each.
The polish stops on a relative test: once a step lowers the squared error
by no more than 1e-13 of that error. A rise does not stop it.
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


@dataclass(frozen=True)
class MarkerSpec:
    side_len: float = 0.05

    def __post_init__(self) -> None:
        if self.side_len <= 0.0:
            raise ValueError(f"marker side length must be positive, got {self.side_len}")


@dataclass(frozen=True, eq=False)
class TagObservation:
    corners: np.ndarray  # (4, 2) pixel coordinates, counter-clockwise from bottom-left

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
    return TagObservation(corners=uv)


def observe(pose: MarkerPose, spec: MarkerSpec, k: CameraIntrinsics,
            noise_px: float, rng: np.random.Generator) -> TagObservation:
    """Synthetic detector output: projected corners plus i.i.d. pixel noise."""
    obs = project(pose, spec, k)
    corners = obs.corners
    if noise_px > 0.0:
        corners = corners + noise_px * rng.standard_normal((4, 2))
    return TagObservation(corners=corners)


def random_facing_pose(rng: np.random.Generator,
                       z_range: tuple[float, float] = (0.3, 2.0)) -> MarkerPose:
    """Marker pose facing the camera, tilted by at most 0.6 rad, inside a
    generous viewing frustum: the test and ``posecheck`` pose distribution."""
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, 0.6)
    k = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    rot = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
    z = rng.uniform(*z_range)
    t = np.array([rng.uniform(-0.3, 0.3) * z, rng.uniform(-0.25, 0.25) * z, z])
    return MarkerPose(rotation=rot, translation=t)


def _check_convex(corners: np.ndarray) -> None:
    pts = corners.tolist()
    crosses = []
    for i in range(4):
        (x0, y0), (x1, y1), (x2, y2) = pts[i], pts[(i + 1) % 4], pts[(i + 2) % 4]
        crosses.append((x1 - x0) * (y2 - y1) - (y1 - y0) * (x2 - x1))
    mx, my = sum(p[0] for p in pts) / 4.0, sum(p[1] for p in pts) / 4.0
    span = max(max(abs(x - mx), abs(y - my)) for x, y in pts)
    tol = 1e-9 * max(span * span, 1.0)
    if any(abs(c) <= tol for c in crosses):
        raise DegenerateObservation("corners are collinear or coincident")
    if not (all(c > 0 for c in crosses) or all(c < 0 for c in crosses)):
        raise DegenerateObservation("corners do not form a convex quadrilateral")


def _square_to_quad(quad: list[tuple[float, float]]) -> np.ndarray:
    """Homography taking the unit square's corners (0,0), (1,0), (1,1), (0,1)
    to the four points of ``quad`` in order, in closed form (Heckbert 1989).
    Four points fix a homography exactly, so nothing is fitted."""
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = quad
    sx, sy = x0 - x1 + x2 - x3, y0 - y1 + y2 - y3
    dx1, dx2, dy1, dy2 = x1 - x2, x3 - x2, y1 - y2, y3 - y2
    den = dx1 * dy2 - dx2 * dy1
    if den == 0.0:
        raise DegenerateObservation("corners admit no square-to-quad homography")
    g = (sx * dy2 - dx2 * sy) / den
    h = (dx1 * sy - sx * dy1) / den
    return np.array([[x1 - x0 + g * x1, x3 - x0 + h * x3, x0],
                     [y1 - y0 + g * y1, y3 - y0 + h * y3, y0],
                     [g, h, 1.0]])


def _pose_from_homography(m: np.ndarray) -> tuple[list[list[float]], list[float]]:
    """Rotation rows and translation from a homography taking the marker
    plane to normalized image coordinates."""
    if m[2, 2] < 0.0:  # fix the projective sign so the marker sits in front
        m = -m
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = m.tolist()
    n1, n2 = math.hypot(a1, b1, c1), math.hypot(a2, b2, c2)
    if n1 <= 0.0 or n2 <= 0.0:
        raise DegenerateObservation("homography decomposition collapsed")
    lam = math.sqrt(n1 * n2)
    (x1, y1, z1), (x2, y2, z2) = (a1 / lam, b1 / lam, c1 / lam), (a2 / lam, b2 / lam, c2 / lam)
    # the nearest rotation to [r1 r2 r1 x r2], the weakest axis flipped if need be
    u, _, vt = np.linalg.svd(np.array([[x1, x2, y1 * z2 - z1 * y2],
                                       [y1, y2, z1 * x2 - x1 * z2],
                                       [z1, z2, x1 * y2 - y1 * x2]]))
    if np.linalg.det(u @ vt) < 0.0:
        vt[2] = -vt[2]
    return (u @ vt).tolist(), [a3 / lam, b3 / lam, c3 / lam]


def _refine_pose(r: list[list[float]], t: list[float], corners: list[tuple[float, ...]],
                 k: CameraIntrinsics) -> tuple[list[list[float]], list[float]]:
    """Gauss-Newton on reprojection error over (rotation rows, translation),
    on plain floats; each corner is (x, y, u - cx, v - cy).

    A step builds the eight rows of [J | r] in one pass over the corners.
    One Gram product gives JᵀJ, Jᵀr and the squared error, one 6x6 solve the
    step. The rotation takes a left-multiplicative so(3) step by an exact
    Rodrigues rotation, so it stays orthonormal to rounding. The loop stops
    once the squared error falls by no more than 1e-13 of itself; a rise
    does not stop it, because a later step may still lead downhill. It also
    stops at an error below 1e-20 px^2, where an exact observation leaves
    only rounding noise that no step can reduce. It takes at most 25 steps.
    A squared error that is not finite raises DegenerateObservation.
    """
    fx, fy = k.fx, k.fy
    ridge = 1e-12 * np.eye(6)
    prev_cost = math.inf
    for _ in range(25):
        (r00, r01, _), (r10, r11, _), (r20, r21, _) = r
        tx, ty, tz = t
        rows = []
        for px, py, du, dv in corners:
            ax, ay, az = r00 * px + r01 * py, r10 * px + r11 * py, r20 * px + r21 * py  # R p
            z = az + tz
            if z <= 0.0:
                return r, t
            fu, fv = fx / z, fy / z
            pu, pv = fu * (ax + tx), fv * (ay + ty)
            gu, gv = -pu / z, -pv / z
            # [a x g, g, residual], g = d(pixel)/d(camera point) = (fu, 0, gu), (0, fv, gv)
            rows.append((ay * gu, az * fu - ax * gu, -ay * fu, fu, 0.0, gu, pu - du))
            rows.append((ay * gv - az * fv, -ax * gv, ax * fv, 0.0, fv, gv, pv - dv))
        j = np.array(rows)
        gram = j.T @ j
        cost = gram[6, 6]
        if not cost < math.inf:
            raise DegenerateObservation("reprojection error overflows")
        if cost <= 1e-20 or 0.0 <= prev_cost - cost <= 1e-13 * cost:
            break
        prev_cost = cost
        try:
            delta = np.linalg.solve(gram[:6, :6] + ridge, -gram[:6, 6])
        except np.linalg.LinAlgError:
            break
        wx, wy, wz, dx, dy, dz = delta.tolist()
        theta = math.sqrt(wx * wx + wy * wy + wz * wz)
        # Rodrigues: exp([w]x) = I + a [w]x + b [w]x^2, [w]x^2 = w w^T - theta^2 I
        a = math.sin(theta) / theta if theta else 1.0
        b = 0.5 * (math.sin(0.5 * theta) / (0.5 * theta)) ** 2 if theta else 0.5
        c = 1.0 - b * theta * theta
        step = ((c + b * wx * wx, b * wx * wy - a * wz, b * wx * wz + a * wy),
                (b * wx * wy + a * wz, c + b * wy * wy, b * wy * wz - a * wx),
                (b * wx * wz - a * wy, b * wy * wz + a * wx, c + b * wz * wz))
        r = [[s0 * c0 + s1 * c1 + s2 * c2 for c0, c1, c2 in zip(*r)] for s0, s1, s2 in step]
        t = [tx + dx, ty + dy, tz + dz]
    return r, t


def estimate_pose(obs: TagObservation, spec: MarkerSpec, k: CameraIntrinsics) -> MarkerPose:
    """Recover the marker pose that minimizes corner reprojection error.

    Raises DegenerateObservation when the corners are collinear, concave,
    or otherwise leave the homography under-determined, and when the pose
    found puts any tag corner at or behind the camera plane.
    """
    _check_convex(obs.corners)
    corners = [(px, py, u - k.cx, v - k.cy)
               for (px, py, _), (u, v) in zip(marker_corners(spec).tolist(), obs.corners.tolist())]
    normalized = [(du / k.fx, dv / k.fy) for _, _, du, dv in corners]
    s = spec.side_len
    # marker plane (x, y) -> unit square (x/s + 1/2, 1/2 - y/s) -> normalized image
    m = _square_to_quad(normalized) @ np.array([[1.0 / s, 0.0, 0.5],
                                                [0.0, -1.0 / s, 0.5],
                                                [0.0, 0.0, 1.0]])
    r, t = _pose_from_homography(m)
    with np.errstate(over="ignore", invalid="ignore"):  # the polish checks its error
        r, t = _refine_pose(r, t, corners, k)
    # The tag centre is the corners' mean, so a start with t_z <= 0 also
    # ends here: refinement stops at once on a corner with z <= 0.
    if min(r[2][0] * px + r[2][1] * py for px, py, _, _ in corners) + t[2] <= 0.0:
        raise DegenerateObservation("estimated pose places the marker behind the camera")
    return MarkerPose(rotation=r, translation=t)


def marker_to_tcp_distance(pose: MarkerPose, tcp: TcpPoint) -> float:
    """Euclidean separation between the marker center and the tool point."""
    d = pose.translation - tcp.position
    return float(math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]))


def rotation_geodesic_rad(ra: np.ndarray, rb: np.ndarray) -> float:
    """Angle of the relative rotation between two orthonormal matrices."""
    c = (np.trace(ra @ rb.T) - 1.0) / 2.0
    return math.acos(min(max(c, -1.0), 1.0))
