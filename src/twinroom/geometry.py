"""Small vector/quaternion toolkit shared by the whole engine.

Conventions used everywhere:
  * positions are float 3-tuples (x, y, z), y is up, units are meters
  * quaternions are float 4-tuples (w, x, y, z), unit norm
  * yaw is a rotation about +y; yaw 0 faces +z, positive yaw turns +z toward +x

Every kernel here takes and returns plain Python floats in tuples, and the
per-tick path (pose quantization, states, the avatar host, retarget) holds
nothing else. numpy's per-call overhead on a 3-element vector costs far more
than the arithmetic, and, more importantly, the tick path must give the same
bits on every machine: a recorded transcript replays to a byte-identical
report only if both peers, and the replaying host, round every operation
alike. The rules:

  * elementwise arithmetic is written out in a fixed operation order
    (a cross product computes a1*b2 - a2*b1, then a2*b0 - a0*b2, then
    a0*b1 - a1*b0; a*b + c is a product, then a sum). CPython never fuses a
    multiply-add, and IEEE 754 rounds each +, -, *, / and sqrt correctly, so
    these bits are the same on every CPU;
  * a batched kernel repeats its scalar kernel's operations, in the same
    order, for each element: ``Transform.apply_all`` maps several points
    with exactly ``apply``'s arithmetic (``quat_rotate`` written out once
    per point, then the position's sum), and ``inverse_apply_all`` with
    exactly ``inverse_apply``'s, so a point gets the same bits through
    either;
  * every reduction is summed left to right on floats: ``dot`` is
    a0*b0 + a1*b1 + a2*b2 (+ a3*b3), and ``norm`` is ``math.sqrt`` of it.
    numpy's ``np.dot`` (and ``np.linalg``, ``np.matmul``, ``@``) runs in a
    BLAS kernel chosen for the CPU at run time, whose summation order and
    fused multiply-adds differ between kernels, so the engine calls none of
    them;
  * numpy remains at the boundary (trace snapshots hold arrays, converted
    with ``.tolist()`` at each read: per peer tick the head's up to twice
    and each hand's up to three times, in pose quantization,
    ``EffectorSample.ray`` and ``acquire_targets``) and in the placement
    search's broadcasts, which use only elementwise ``+ - * /``, ``np.sqrt`` and
    comparisons, all correctly rounded on every SIMD path. numpy's
    transcendentals (``np.sin``, ``np.exp``, ...) are not used: the engine
    calls ``math``'s once per value instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

UP = (0.0, 1.0, 0.0)
FORWARD = (0.0, 0.0, 1.0)

_EPS = 1e-12


def vec3(x: float, y: float, z: float) -> tuple[float, float, float]:
    return (float(x), float(y), float(z))


def dot(a, b) -> float:
    """Dot product of two 3- or 4-vectors, summed left to right."""
    if len(a) == 3:
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def sub(a, b) -> tuple[float, float, float]:
    """Difference a - b of two 3-vectors."""
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def norm(v) -> float:
    """Euclidean norm of a 3- or 4-vector: sqrt(x*x + y*y + z*z), summed
    left to right (w*w first for a quaternion)."""
    if len(v) == 3:
        x, y, z = v
        return math.sqrt(x * x + y * y + z * z)
    w, x, y, z = v
    return math.sqrt(w * w + x * x + y * y + z * z)


def normalized(v) -> tuple[float, float, float]:
    x, y, z = v
    n = math.sqrt(x * x + y * y + z * z)
    if n < _EPS:
        raise ValueError("cannot normalize a near-zero vector")
    return (x / n, y / n, z / n)


def wrap_angle_positive(a: float) -> float:
    """Wrap an angle to [0, 2*pi)."""
    a = math.fmod(a, 2.0 * math.pi)
    if a < 0.0:
        a += 2.0 * math.pi
    if a >= 2.0 * math.pi:  # fmod of a tiny negative can round back up to 2*pi
        a = 0.0
    return a


def cross(a, b) -> tuple[float, float, float]:
    """Cross product of two 3-vectors."""
    ax, ay, az = a
    bx, by, bz = b
    return (ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx)


# --- quaternions ------------------------------------------------------------

QUAT_IDENTITY = (1.0, 0.0, 0.0, 0.0)


def quat_normalize(q) -> tuple[float, float, float, float]:
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n < _EPS:
        raise ValueError("cannot normalize a near-zero quaternion")
    return (w / n, x / n, y / n, z / n)


def quat_mul(a, b) -> tuple[float, float, float, float]:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def quat_conj(q) -> tuple[float, float, float, float]:
    w, x, y, z = q
    return (w, -x, -y, -z)


def quat_rotate(q, v) -> tuple[float, float, float]:
    """Rotate vector v by unit quaternion q: v + w*t + qv x t with
    t = 2 * (qv x v), where qv is q's vector part."""
    w, qx, qy, qz = q
    vx, vy, vz = v
    tx = 2.0 * (qy * vz - qz * vy)
    ty = 2.0 * (qz * vx - qx * vz)
    tz = 2.0 * (qx * vy - qy * vx)
    return (
        vx + w * tx + (qy * tz - qz * ty),
        vy + w * ty + (qz * tx - qx * tz),
        vz + w * tz + (qx * ty - qy * tx),
    )


def quat_from_axis_angle(axis, angle: float) -> tuple[float, float, float, float]:
    ax, ay, az = normalized(axis)
    h = 0.5 * float(angle)
    s = math.sin(h)
    return (math.cos(h), ax * s, ay * s, az * s)


def quat_from_yaw(yaw: float) -> tuple[float, float, float, float]:
    h = 0.5 * float(yaw)
    return (math.cos(h), 0.0, math.sin(h), 0.0)


def yaw_of(q) -> float:
    """Yaw of the rotated forward axis, in [0, 2*pi)."""
    fx, _, fz = quat_rotate(q, FORWARD)
    if abs(fx) < _EPS and abs(fz) < _EPS:
        return 0.0
    return wrap_angle_positive(math.atan2(fx, fz))


def quat_between(a, b) -> tuple[float, float, float, float]:
    """Shortest-arc rotation taking unit vector a onto unit vector b."""
    a = normalized(a)
    b = normalized(b)
    d = dot(a, b)
    if d > 1.0 - 1e-12:
        return QUAT_IDENTITY
    if d < -1.0 + 1e-12:
        return quat_from_axis_angle(_any_perpendicular(a), math.pi)
    x, y, z = cross(a, b)
    return quat_normalize((1.0 + d, x, y, z))


def look_rotation(forward, up=UP) -> tuple[float, float, float, float]:
    """Rotation mapping +z to `forward` with +y as close to `up` as possible."""
    f = normalized(forward)
    right = cross(up, f)
    if norm(right) < 1e-9:
        # forward parallel to up: pick a deterministic right axis
        right = cross((0.0, 0.0, 1.0), f)
        if norm(right) < 1e-9:
            right = (1.0, 0.0, 0.0)
    right = normalized(right)
    return _quat_from_basis(right, cross(f, right), f)


def _quat_from_basis(r, u, f) -> tuple[float, float, float, float]:
    """Quaternion of the rotation matrix whose columns are r, u, f, so that
    m[i][j] is column j's component i."""
    m00, m10, m20 = r
    m01, m11, m21 = u
    m02, m12, m22 = f
    t = m00 + m11 + m22
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        w = 0.25 * s
        x = (m21 - m12) / s
        y = (m02 - m20) / s
        z = (m10 - m01) / s
    elif m00 > m11 and m00 > m22:
        s = math.sqrt(1.0 + m00 - m11 - m22) * 2.0
        w = (m21 - m12) / s
        x = 0.25 * s
        y = (m01 + m10) / s
        z = (m02 + m20) / s
    elif m11 > m22:
        s = math.sqrt(1.0 + m11 - m00 - m22) * 2.0
        w = (m02 - m20) / s
        x = (m01 + m10) / s
        y = 0.25 * s
        z = (m12 + m21) / s
    else:
        s = math.sqrt(1.0 + m22 - m00 - m11) * 2.0
        w = (m10 - m01) / s
        x = (m02 + m20) / s
        y = (m12 + m21) / s
        z = 0.25 * s
    return quat_normalize((w, x, y, z))


def _any_perpendicular(v) -> tuple[float, float, float]:
    v = normalized(v)
    if abs(v[0]) <= abs(v[1]) and abs(v[0]) <= abs(v[2]):
        other = (1.0, 0.0, 0.0)
    elif abs(v[1]) <= abs(v[2]):
        other = (0.0, 1.0, 0.0)
    else:
        other = (0.0, 0.0, 1.0)
    return normalized(cross(v, other))


def slerp_vec(a, b, t: float) -> tuple[float, float, float]:
    """Great-circle interpolation between two unit vectors.

    t=0 returns a, t=1 returns b, constant angular speed in t. Antipodal
    inputs rotate through a deterministic perpendicular axis.
    """
    ax, ay, az = a = normalized(a)
    bx, by, bz = b = normalized(b)
    d = dot(a, b)
    if d > 1.0 - 1e-12:
        return normalized((ax + (bx - ax) * t, ay + (by - ay) * t, az + (bz - az) * t))
    if d < -1.0 + 1e-12:
        return quat_rotate(quat_from_axis_angle(_any_perpendicular(a), math.pi * t), a)
    omega = math.acos(max(-1.0, min(1.0, d)))
    so = math.sin(omega)
    ka = math.sin((1.0 - t) * omega) / so
    kb = math.sin(t * omega) / so
    return (ka * ax + kb * bx, ka * ay + kb * by, ka * az + kb * bz)


def point_to_line_distance(point, origin, direction) -> float:
    """Distance from a point to the infinite line through origin along direction."""
    dx, dy, dz = d = normalized(direction)
    rel = sub(point, origin)
    p = dot(rel, d)
    return norm((rel[0] - p * dx, rel[1] - p * dy, rel[2] - p * dz))


def float_tuple(v) -> tuple:
    """A tuple as it is; any other sequence (a list, a numpy array) as a
    tuple of floats. Types that hold vectors convert their inputs with it
    once, at construction."""
    return v if type(v) is tuple else tuple(map(float, v))


@dataclass(frozen=True, slots=True)
class Transform:
    """Position + orientation pair. Used both for world poses and for
    root-relative offsets; which one is contextual. Any other sequence
    given to the constructor is converted to a tuple of floats."""

    position: tuple[float, float, float]
    orientation: tuple[float, float, float, float]

    def __post_init__(self):
        if type(self.position) is not tuple or type(self.orientation) is not tuple:
            object.__setattr__(self, "position", float_tuple(self.position))
            object.__setattr__(self, "orientation", float_tuple(self.orientation))

    def apply(self, local_point) -> tuple[float, float, float]:
        """Map a point from this frame into the parent frame."""
        px, py, pz = self.position
        rx, ry, rz = quat_rotate(self.orientation, local_point)
        return (px + rx, py + ry, pz + rz)

    def apply_all(self, local_points) -> list[tuple[float, float, float]]:
        """`apply` of each point, in one call: `quat_rotate`'s operations,
        then the position's sum, each in `apply`'s order, so every point
        gets the same bits."""
        px, py, pz = self.position
        w, qx, qy, qz = self.orientation
        out = []
        for vx, vy, vz in local_points:
            tx = 2.0 * (qy * vz - qz * vy)
            ty = 2.0 * (qz * vx - qx * vz)
            tz = 2.0 * (qx * vy - qy * vx)
            out.append((
                px + (vx + w * tx + (qy * tz - qz * ty)),
                py + (vy + w * ty + (qz * tx - qx * tz)),
                pz + (vz + w * tz + (qx * ty - qy * tx)),
            ))
        return out

    def compose(self, child: "Transform") -> "Transform":
        """This transform applied after `child` (child expressed locally)."""
        return Transform(
            position=self.apply(child.position),
            orientation=quat_mul(self.orientation, child.orientation),
        )

    def inverse_apply(self, world_point) -> tuple[float, float, float]:
        """Map a point from the parent frame into this frame."""
        w, x, y, z = self.orientation
        px, py, pz = self.position
        qx, qy, qz = world_point
        return quat_rotate((w, -x, -y, -z), (qx - px, qy - py, qz - pz))

    def inverse_apply_all(self, world_points) -> list[tuple[float, float, float]]:
        """`inverse_apply` of each point, in one call: the position's
        difference, then `quat_rotate`'s operations by the conjugate, each in
        `inverse_apply`'s order, so every point gets the same bits."""
        px, py, pz = self.position
        w, x, y, z = self.orientation
        qx, qy, qz = -x, -y, -z
        out = []
        for ax, ay, az in world_points:
            vx = ax - px
            vy = ay - py
            vz = az - pz
            tx = 2.0 * (qy * vz - qz * vy)
            ty = 2.0 * (qz * vx - qx * vz)
            tz = 2.0 * (qx * vy - qy * vx)
            out.append((
                vx + w * tx + (qy * tz - qz * ty),
                vy + w * ty + (qz * tx - qx * tz),
                vz + w * tz + (qx * ty - qy * tx),
            ))
        return out

    def forward(self) -> tuple[float, float, float]:
        return quat_rotate(self.orientation, FORWARD)
