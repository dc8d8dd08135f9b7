"""Small vector/quaternion toolkit shared by the whole engine.

Conventions used everywhere:
  * positions are numpy float64 arrays of shape (3,), y is up, units are meters
  * quaternions are numpy arrays [w, x, y, z], unit norm
  * yaw is a rotation about +y; yaw 0 faces +z, positive yaw turns +z toward +x

The per-tick kernels (cross, quat_rotate, quat_mul, quat_conj) take numpy
inputs and return numpy arrays, but do their arithmetic on plain Python
floats: numpy's per-call overhead on a 3-element vector (np.cross spends most
of its time on axis bookkeeping) costs far more than the arithmetic. Results
must stay bit-identical to the numpy formulation, because a replayed
transcript has to rebuild a byte-identical report. The rule for a kernel:

  * elementwise arithmetic may move to plain floats, written as numpy's
    operations in numpy's order (np.cross computes a1*b2 - a2*b1, then
    a2*b0 - a0*b2, then a0*b1 - a1*b0; a*b + c is a product, then a sum);
  * reductions (norm, normalized, quat_normalize, every np.dot) stay on
    numpy. A small-vector np.dot runs in BLAS, which fuses multiply-adds: a
    plain Python sum of squares differs from it in the last bit for about 25%
    of random 4-vectors (and a third of general dot products), and Python
    before 3.13 has no math.fma to reproduce it;
  * `norm` is the one vector norm. It is numpy's own formula for a 1-D
    float64 vector (np.linalg.norm computes sqrt(x.dot(x))), so it has the
    same bits without np.linalg.norm's per-call overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

UP = np.array([0.0, 1.0, 0.0])
FORWARD = np.array([0.0, 0.0, 1.0])

_EPS = 1e-12


def vec3(x: float, y: float, z: float) -> np.ndarray:
    return np.array([float(x), float(y), float(z)])


def norm(v) -> float:
    v = np.asarray(v, dtype=float)
    return float(math.sqrt(float(np.dot(v, v))))


def normalized(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = norm(v)
    if n < _EPS:
        raise ValueError("cannot normalize a near-zero vector")
    return v / n


def horizontal(v) -> np.ndarray:
    """Projection of v onto the ground plane (y zeroed)."""
    v = np.asarray(v, dtype=float)
    return np.array([v[0], 0.0, v[2]])


def horizontal_distance(a, b) -> float:
    dx = float(a[0]) - float(b[0])
    dz = float(a[2]) - float(b[2])
    return math.hypot(dx, dz)


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.fmod(a, 2.0 * math.pi)
    if a <= -math.pi:
        a += 2.0 * math.pi
    elif a > math.pi:
        a -= 2.0 * math.pi
    return a


def wrap_angle_positive(a: float) -> float:
    """Wrap an angle to [0, 2*pi)."""
    a = math.fmod(a, 2.0 * math.pi)
    if a < 0.0:
        a += 2.0 * math.pi
    if a >= 2.0 * math.pi:  # fmod of a tiny negative can round back up to 2*pi
        a = 0.0
    return a


def _floats(a) -> list[float]:
    return np.asarray(a, dtype=float).tolist()


def cross(a, b) -> np.ndarray:
    """Cross product of two 3-vectors; the same bits as np.cross."""
    ax, ay, az = _floats(a)
    bx, by, bz = _floats(b)
    return np.array([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx])


def angle_between(a, b) -> float:
    """Unsigned angle in radians between two nonzero vectors."""
    d = float(np.dot(normalized(a), normalized(b)))
    return math.acos(max(-1.0, min(1.0, d)))


# --- quaternions ------------------------------------------------------------

QUAT_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def quat(w: float, x: float, y: float, z: float) -> np.ndarray:
    return np.array([float(w), float(x), float(y), float(z)])


def quat_normalize(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = norm(q)
    if n < _EPS:
        raise ValueError("cannot normalize a near-zero quaternion")
    return q / n


def quat_is_unit(q, tol: float = 1e-6) -> bool:
    return abs(norm(q) - 1.0) <= tol


def quat_mul(a, b) -> np.ndarray:
    aw, ax, ay, az = _floats(a)
    bw, bx, by, bz = _floats(b)
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_conj(q) -> np.ndarray:
    w, x, y, z = _floats(q)
    return np.array([w, -x, -y, -z])


def quat_rotate(q, v) -> np.ndarray:
    """Rotate vector v by unit quaternion q: v + w*t + qv x t with
    t = 2 * (qv x v), where qv is q's vector part."""
    w, qx, qy, qz = _floats(q)
    vx, vy, vz = _floats(v)
    tx = 2.0 * (qy * vz - qz * vy)
    ty = 2.0 * (qz * vx - qx * vz)
    tz = 2.0 * (qx * vy - qy * vx)
    return np.array([
        vx + w * tx + (qy * tz - qz * ty),
        vy + w * ty + (qz * tx - qx * tz),
        vz + w * tz + (qx * ty - qy * tx),
    ])


def quat_from_axis_angle(axis, angle: float) -> np.ndarray:
    axis = normalized(axis)
    h = 0.5 * float(angle)
    s = math.sin(h)
    return np.array([math.cos(h), axis[0] * s, axis[1] * s, axis[2] * s])


def quat_from_yaw(yaw: float) -> np.ndarray:
    h = 0.5 * float(yaw)
    return np.array([math.cos(h), 0.0, math.sin(h), 0.0])


def yaw_of(q) -> float:
    """Yaw of the rotated forward axis, in [0, 2*pi)."""
    f = quat_rotate(q, FORWARD)
    if abs(f[0]) < _EPS and abs(f[2]) < _EPS:
        return 0.0
    return wrap_angle_positive(math.atan2(float(f[0]), float(f[2])))


def quat_between(a, b) -> np.ndarray:
    """Shortest-arc rotation taking unit vector a onto unit vector b."""
    a = normalized(a)
    b = normalized(b)
    d = float(np.dot(a, b))
    if d > 1.0 - 1e-12:
        return QUAT_IDENTITY.copy()
    if d < -1.0 + 1e-12:
        axis = _any_perpendicular(a)
        return quat_from_axis_angle(axis, math.pi)
    axis = cross(a, b)
    w = 1.0 + d
    return quat_normalize(np.array([w, axis[0], axis[1], axis[2]]))


def look_rotation(forward, up=UP) -> np.ndarray:
    """Rotation mapping +z to `forward` with +y as close to `up` as possible."""
    f = normalized(forward)
    u = np.asarray(up, dtype=float)
    right = cross(u, f)
    if norm(right) < 1e-9:
        # forward parallel to up: pick a deterministic right axis
        right = cross(np.array([0.0, 0.0, 1.0]), f)
        if norm(right) < 1e-9:
            right = np.array([1.0, 0.0, 0.0])
    right = normalized(right)
    u = cross(f, right)
    m = np.column_stack([right, u, f])
    return _quat_from_matrix(m)


def _quat_from_matrix(m: np.ndarray) -> np.ndarray:
    t = float(m[0, 0] + m[1, 1] + m[2, 2])
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        w = 0.25 * s
        x = (m[2, 1] - m[1, 2]) / s
        y = (m[0, 2] - m[2, 0]) / s
        z = (m[1, 0] - m[0, 1]) / s
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        w = (m[2, 1] - m[1, 2]) / s
        x = 0.25 * s
        y = (m[0, 1] + m[1, 0]) / s
        z = (m[0, 2] + m[2, 0]) / s
    elif m[1, 1] > m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        w = (m[0, 2] - m[2, 0]) / s
        x = (m[0, 1] + m[1, 0]) / s
        y = 0.25 * s
        z = (m[1, 2] + m[2, 1]) / s
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        w = (m[1, 0] - m[0, 1]) / s
        x = (m[0, 2] + m[2, 0]) / s
        y = (m[1, 2] + m[2, 1]) / s
        z = 0.25 * s
    return quat_normalize(np.array([w, x, y, z]))


def _any_perpendicular(v) -> np.ndarray:
    v = normalized(v)
    if abs(v[0]) <= abs(v[1]) and abs(v[0]) <= abs(v[2]):
        other = np.array([1.0, 0.0, 0.0])
    elif abs(v[1]) <= abs(v[2]):
        other = np.array([0.0, 1.0, 0.0])
    else:
        other = np.array([0.0, 0.0, 1.0])
    return normalized(cross(v, other))


def slerp_vec(a, b, t: float) -> np.ndarray:
    """Great-circle interpolation between two unit vectors.

    t=0 returns a, t=1 returns b, constant angular speed in t. Antipodal
    inputs rotate through a deterministic perpendicular axis.
    """
    a = normalized(a)
    b = normalized(b)
    d = float(np.dot(a, b))
    if d > 1.0 - 1e-12:
        return normalized(a + (b - a) * t)
    if d < -1.0 + 1e-12:
        axis = _any_perpendicular(a)
        return quat_rotate(quat_from_axis_angle(axis, math.pi * t), a)
    omega = math.acos(max(-1.0, min(1.0, d)))
    so = math.sin(omega)
    return (math.sin((1.0 - t) * omega) / so) * a + (math.sin(t * omega) / so) * b


def point_to_line_distance(point, origin, direction) -> float:
    """Distance from a point to the infinite line through origin along direction."""
    d = normalized(direction)
    rel = np.asarray(point, dtype=float) - np.asarray(origin, dtype=float)
    return norm(rel - float(np.dot(rel, d)) * d)


@dataclass(frozen=True)
class Transform:
    """Position + orientation pair. Used both for world poses and for
    root-relative offsets; which one is contextual."""

    position: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "orientation", np.asarray(self.orientation, dtype=float))

    def apply(self, local_point) -> np.ndarray:
        """Map a point from this frame into the parent frame."""
        return self.position + quat_rotate(self.orientation, local_point)

    def compose(self, child: "Transform") -> "Transform":
        """This transform applied after `child` (child expressed locally)."""
        return Transform(
            position=self.apply(child.position),
            orientation=quat_mul(self.orientation, child.orientation),
        )

    def inverse_apply(self, world_point) -> np.ndarray:
        """Map a point from the parent frame into this frame."""
        w, x, y, z = self.orientation.tolist()
        px, py, pz = self.position.tolist()
        qx, qy, qz = _floats(world_point)
        return quat_rotate((w, -x, -y, -z), (qx - px, qy - py, qz - pz))

    def forward(self) -> np.ndarray:
        return quat_rotate(self.orientation, FORWARD)


IDENTITY_TRANSFORM = Transform(np.zeros(3), QUAT_IDENTITY.copy())
