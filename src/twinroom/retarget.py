"""Avatar posing: mimicry IK, walk-in-place, and pointing retargeting.

The avatar's body is a fixed-length skeleton posed analytically: arms and
legs by two-bone IK toward root-relative targets, the head by a look-at from
the neck. In the solo state the goals are the user's tracked effectors, so
the avatar mirrors them. During locomotion the root is pinned at a given
world root (the host freezes the avatar's root when walking starts) while
the limbs keep mimicking, which reads as walking in place. In the
interaction state the pointing arm is decoupled from mimicry: the wrist goal
is placed on the ray from the avatar's shoulder toward the retargeted world
point, at the user's shoulder-to-wrist distance so the elbow stays equally
bent, and head/hand motion blends toward the new aim over a short
interpolation. The user's body that pointing reads is the goals themselves:
the user's hand is the root-relative goal hand, so the user's shoulder and
the avatar's are one point, mapped with the hand in one call. A pointing
solution carries the point it aims at and the user's hand up vector, which
an easing hand reuses.

Every avatar tick solves the head joint once: one neck length from the top
of the spine toward the head goal, where the head is drawn. It is the
avatar's one eye. Gaze aims from it, pointing targets are lifted as seen
from it (`vertical_compensation`), and the body solve reuses it. Each
avatar's `InterpState` remembers the last pose it solved, and a new aim
transition starts from it: the head from its forward direction, a hand from
its wrist and shoulder-to-wrist direction. A placement starts a fresh
`InterpState` that remembers no pose; a transition starting then starts from
the unadjusted (mirrored) body, solved as well on that tick.
`AvatarPose.joints` is a 14-tuple indexed by `Joint`; orientations, targets,
pointing solutions and transitions are 3-tuples indexed by `Effector`
(head, left hand, right hand). `IkGoals` holds the root `Transform` and two
5-tuples in the wire pose's effector order: the root-relative positions and
the unit quaternions of the head and hands, by `Effector`, then of the
`LEFT_FOOT` and `RIGHT_FOOT`. The avatar host slices them straight from the
wire pose, and the tick path edits copies of the tables, building a
``Transform`` only for a pointing hand. The skeleton's rest offsets are
built once, and a full-body solve maps them and the limb goals, eight
root-relative points, into the world with one ``Transform.apply_all`` call,
which gives each point the bits ``Transform.apply`` would. Joints, goals and
pointing solutions are float tuples, computed with the ``geometry`` kernels
and their fixed-order reductions (see that module); the rotation arithmetic
lives only there, and `solve_two_bone` writes out ``norm`` and ``dot`` in
their order.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import IntEnum

from .geometry import (
    FORWARD,
    QUAT_IDENTITY,
    UP,
    Transform,
    cross,
    dot,
    look_rotation,
    norm,
    normalized,
    quat_conj,
    quat_mul,
    quat_rotate,
    slerp_vec,
    sub,
)
from .scene import require_fields
from .states import Effector, UserState


class DegenerateTarget(ValueError):
    pass


_SIDES = {"left": 0, "right": 1}  # offset of a side's entry in `Skeleton._rest`


@dataclass(frozen=True)
class Skeleton:
    """Bone lengths in meters plus root-relative rest offsets.

    Offsets are for the right-hand side; the left side mirrors x. The root
    sits at the pelvis.
    """

    spine: float = 0.50
    neck: float = 0.12
    upper_arm: float = 0.28
    forearm: float = 0.26
    hand: float = 0.18
    thigh: float = 0.44
    shin: float = 0.42
    shoulder_offset: tuple[float, float, float] = (0.18, 0.48, 0.0)
    hip_offset: tuple[float, float, float] = (0.09, 0.0, 0.0)

    def __post_init__(self):
        for name in ("spine", "neck", "upper_arm", "forearm", "hand", "thigh", "shin"):
            if not getattr(self, name) > 0.0:  # NaN fails every comparison
                raise ValueError(f"bone length {name} must be positive")
        # root-relative rest offsets, built once and shared by every solve:
        # the neck base, the left and right shoulders, the left and right hips
        sx, sy, sz = map(float, self.shoulder_offset)
        hx, hy, hz = map(float, self.hip_offset)
        rest = ((0.0, float(self.spine), 0.0), (-sx, sy, sz), (sx, sy, sz), (-hx, hy, hz), (hx, hy, hz))
        object.__setattr__(self, "_rest", rest)

    @property
    def arm_reach(self) -> float:
        return self.upper_arm + self.forearm

    @property
    def neck_local(self) -> tuple[float, float, float]:
        """Top of the spine, where the neck starts."""
        return self._rest[0]

    def shoulder_local(self, side: str) -> tuple[float, float, float]:
        return self._rest[1 + _SIDES[side]]

    def hip_local(self, side: str) -> tuple[float, float, float]:
        return self._rest[3 + _SIDES[side]]

    def to_floats(self) -> tuple[float, ...]:
        return (
            self.spine, self.neck, self.upper_arm, self.forearm, self.hand,
            self.thigh, self.shin, *self.shoulder_offset, *self.hip_offset,
        )

    @classmethod
    def from_floats(cls, vals) -> "Skeleton":
        vals = tuple(float(v) for v in vals)
        if len(vals) != 13:
            raise ValueError(f"skeleton needs 13 floats, got {len(vals)}")
        return cls(
            spine=vals[0], neck=vals[1], upper_arm=vals[2], forearm=vals[3],
            hand=vals[4], thigh=vals[5], shin=vals[6],
            shoulder_offset=vals[7:10], hip_offset=vals[10:13],
        )


# the feet's entries in `IkGoals`' tables, after the head and hands by `Effector`
LEFT_FOOT, RIGHT_FOOT = len(Effector), len(Effector) + 1


@dataclass(frozen=True)
class IkGoals:
    """Root pose in world space; effector goals relative to the root, as
    two tables in the wire pose's order: the head, left hand and right hand
    indexed by `Effector`, then `LEFT_FOOT` and `RIGHT_FOOT`. Positions are
    float 3-tuples and orientations unit quaternions."""

    root: Transform
    positions: tuple[tuple[float, float, float], ...]
    orientations: tuple[tuple[float, float, float, float], ...]
    fingers: bytes = b""


# the index of each joint in `AvatarPose.joints`; the neck joint is the top of the spine
Joint = IntEnum("Joint", [
    "Neck", "Head", "LeftShoulder", "LeftElbow", "LeftWrist", "RightShoulder", "RightElbow", "RightWrist",
    "LeftHip", "LeftKnee", "LeftAnkle", "RightHip", "RightKnee", "RightAnkle",
], start=0)


# each hand's `Effector`, its side, and its arm's shoulder and wrist
_ARMS = (
    (Effector.LeftHand, "left", Joint.LeftShoulder, Joint.LeftWrist),
    (Effector.RightHand, "right", Joint.RightShoulder, Joint.RightWrist),
)
HANDS = tuple(arm[:2] for arm in _ARMS)  # (`Effector`, side) of each hand


@dataclass(frozen=True)
class AvatarPose:
    root: Transform
    joints: tuple[tuple[float, float, float], ...]               # world positions, by `Joint`
    orientations: tuple[tuple[float, float, float, float], ...]  # world quaternions, by `Effector`
    fingers: bytes = b""


@dataclass(frozen=True)
class RetargetConfig:
    elevation_offset: float = 0.0          # radians; perceived-pointing lift, off by default
    interp_speed: float = 2.0              # 1/s; full aim transition in 0.5 s
    elbow_hint: tuple[float, float, float] = (0.0, -1.0, -0.35)
    knee_hint: tuple[float, float, float] = (0.0, 0.2, 1.0)
    calibration_ratio: float = 1.0         # avatar limb length / user limb length

    def __post_init__(self):
        require_fields(self)
        if not self.elevation_offset >= 0.0:
            raise ValueError("elevation_offset must be >= 0")
        if not self.interp_speed > 0.0:
            raise ValueError("interp_speed must be positive")
        if not self.calibration_ratio > 0.0:
            raise ValueError("calibration_ratio must be positive")


_DEFAULT_RETARGET = RetargetConfig()


# --- core solvers -----------------------------------------------------------

def solve_two_bone(shoulder, upper: float, fore: float, target, hint) -> tuple[tuple, tuple]:
    """Analytic two-segment IK.

    Puts the wrist at the target when reachable, else clamps it to the reach
    annulus [|upper-fore|, upper+fore] along the shoulder-to-target ray. The
    elbow lies in the half-plane spanned by that ray and the hint direction.
    Segment lengths are preserved exactly by construction.
    """
    if upper <= 0.0 or fore <= 0.0:
        raise ValueError("segment lengths must be positive")
    sx, sy, sz = shoulder
    # `norm` and `dot` written out, each in its order
    vx, vy, vz = target[0] - sx, target[1] - sy, target[2] - sz
    d = math.sqrt(vx * vx + vy * vy + vz * vz)
    if d < 1e-9:
        dx, dy, dz = normalized(hint)
    else:
        dx, dy, dz = vx / d, vy / d, vz / d
    d_eff = min(max(d, abs(upper - fore)), upper + fore)
    wrist = (sx + dx * d_eff, sy + dy * d_eff, sz + dz * d_eff)

    if d_eff < 1e-12:
        # equal segments folded fully back: wrist at the shoulder, elbow at
        # the d -> 0 limit of the law of cosines (perpendicular to the ray)
        cos_a, sin_a = 0.0, 1.0
    else:
        cos_a = (upper * upper + d_eff * d_eff - fore * fore) / (2.0 * upper * d_eff)
        cos_a = max(-1.0, min(1.0, cos_a))
        sin_a = math.sqrt(max(0.0, 1.0 - cos_a * cos_a))
    hx, hy, hz = hint
    h = hx * dx + hy * dy + hz * dz
    vx, vy, vz = hx - h * dx, hy - h * dy, hz - h * dz
    pn = math.sqrt(vx * vx + vy * vy + vz * vz)
    if pn < 1e-9:
        px, py, pz = _fallback_perpendicular((dx, dy, dz))
    else:
        px, py, pz = vx / pn, vy / pn, vz / pn
    elbow = (
        sx + upper * (cos_a * dx + sin_a * px),
        sy + upper * (cos_a * dy + sin_a * py),
        sz + upper * (cos_a * dz + sin_a * pz),
    )
    return elbow, wrist


def _fallback_perpendicular(direction) -> tuple[float, float, float]:
    axis = (0.0, 1.0, 0.0)
    if abs(dot(axis, direction)) > 0.9:
        axis = (1.0, 0.0, 0.0)
    return normalized(cross(direction, axis))


def solve_full_body(skeleton: Skeleton, goals: IkGoals, cfg: RetargetConfig | None = None,
                    neck_head=None) -> AvatarPose:
    """Pose the whole skeleton against root-relative goals.

    Hands and feet use two-bone IK with the hint planes of `cfg` (elbow and
    knee hints, root-relative); the head is placed one neck length from the
    top of the spine toward its goal (or at `neck_head`, the `_neck_and_head`
    a caller solved for this root and head goal) and keeps the goal's
    orientation. Finger data passes through untouched.
    """
    if cfg is None:
        cfg = _DEFAULT_RETARGET
    root = goals.root
    q = root.orientation
    head_goal, *limb_goals = goals.positions
    if neck_head is None:
        neck_head = _neck_and_head(skeleton, root, head_goal)
    # the eight root-relative points in one call: the rest offsets, then the
    # hand and foot goals
    (l_shoulder, r_shoulder, l_hip, r_hip, l_hand, r_hand, l_foot, r_foot) = root.apply_all(
        (*skeleton._rest[1:], *limb_goals))
    # one hint direction serves both arms, another both legs
    hint = quat_rotate(q, cfg.elbow_hint)
    l_elbow, l_wrist = solve_two_bone(l_shoulder, skeleton.upper_arm, skeleton.forearm, l_hand, hint)
    r_elbow, r_wrist = solve_two_bone(r_shoulder, skeleton.upper_arm, skeleton.forearm, r_hand, hint)
    hint = quat_rotate(q, cfg.knee_hint)
    l_knee, l_ankle = solve_two_bone(l_hip, skeleton.thigh, skeleton.shin, l_foot, hint)
    r_knee, r_ankle = solve_two_bone(r_hip, skeleton.thigh, skeleton.shin, r_foot, hint)
    joints = (*neck_head, l_shoulder, l_elbow, l_wrist, r_shoulder, r_elbow, r_wrist,
              l_hip, l_knee, l_ankle, r_hip, r_knee, r_ankle)
    head_q, l_hand_q, r_hand_q, _, _ = goals.orientations
    orientations = (quat_mul(q, head_q), quat_mul(q, l_hand_q), quat_mul(q, r_hand_q))
    return AvatarPose(root=root, joints=joints, orientations=orientations, fingers=goals.fingers)


def _neck_and_head(skeleton: Skeleton, root: Transform, head_goal) -> tuple[tuple, tuple]:
    """World neck base and head joint for the root-relative head goal: the
    head sits one neck length from the top of the spine toward its goal
    (straight up the spine when the goal is on the neck base)."""
    neck_base, head_world = root.apply_all((skeleton.neck_local, head_goal))
    nx, ny, nz = neck_base
    head_dir = sub(head_world, neck_base)
    if norm(head_dir) < 1e-9:
        head_dir = quat_rotate(root.orientation, UP)
    ux, uy, uz = normalized(head_dir)
    neck = skeleton.neck
    return neck_base, (nx + neck * ux, ny + neck * uy, nz + neck * uz)


def rest_goals(skeleton: Skeleton, root: Transform | None = None) -> IkGoals:
    """Neutral goals: arms hanging, legs straight down, head atop the spine."""
    if root is None:
        stand = skeleton.thigh + skeleton.shin + 0.04
        root = Transform((0.0, stand, 0.0), QUAT_IDENTITY)
    arm = skeleton.upper_arm + skeleton.forearm
    leg = skeleton.thigh + skeleton.shin

    def below(offset, drop):
        return (offset[0], offset[1] - drop, offset[2])

    positions = (
        (0.0, skeleton.spine + skeleton.neck, 0.0),
        below(skeleton.shoulder_local("left"), arm),
        below(skeleton.shoulder_local("right"), arm),
        below(skeleton.hip_local("left"), leg),
        below(skeleton.hip_local("right"), leg),
    )
    return IkGoals(root, positions, (QUAT_IDENTITY,) * len(positions))


def walk_in_place(
    skeleton: Skeleton,
    goals: IkGoals,
    root: Transform,
    cfg: RetargetConfig | None = None,
) -> AvatarPose:
    """Locomotion pose: the root pinned at `root`, limbs mimicking.

    The goals' own root, and with it the user's translation and turning, is
    discarded entirely; only the root-relative limb goals come through, so a
    walking user yields arm and leg swing around a stationary root.
    """
    pinned = IkGoals(root, goals.positions, goals.orientations, goals.fingers)
    return solve_full_body(skeleton, pinned, cfg)


# --- pointing ---------------------------------------------------------------

def vertical_compensation(target_point, eye, cfg: RetargetConfig) -> tuple[float, float, float]:
    """Raise a pointing target as seen from the eye by the configured angle.

    People tend to read pointing as indicating lower than intended, so the
    aim point is elevated by a fixed visual angle. The horizontal position is
    kept; only the height changes (by horizontal_distance * tan(offset) for a
    level target). Targets at the zenith cannot be raised further and pass
    through; offset 0 is the identity.
    """
    tx, ty, tz = target_point
    if cfg.elevation_offset == 0.0:
        return (tx, ty, tz)
    ex, ey, ez = eye
    h = math.hypot(tx - ex, tz - ez)
    if h < 1e-9:
        return (tx, ty, tz)
    pitch = math.atan2(ty - ey, h)
    pitch = min(pitch + cfg.elevation_offset, 0.5 * math.pi - 1e-3)
    return (tx, ey + h * math.tan(pitch), tz)


@dataclass(frozen=True)
class PointingSolution:
    """Desired end state for one pointing arm."""

    target: tuple[float, float, float]      # the aimed world point
    shoulder: tuple[float, float, float]    # avatar shoulder, world
    wrist: tuple[float, float, float]       # desired wrist, world
    aim: tuple[float, float, float]         # unit shoulder->target
    hand_orientation: tuple[float, float, float, float]  # world quaternion at completion
    reach: float                            # shoulder-to-wrist distance in use
    hand_up: tuple[float, float, float]     # the user's hand up vector, world


def retarget_pointing(
    skeleton: Skeleton,
    root: Transform,
    hand: Transform,
    target_point,
    side: str,
    cfg: RetargetConfig | None = None,
) -> PointingSolution:
    """Aim the avatar's arm so its shoulder-to-wrist ray passes through the
    target while copying the user's elbow flexion.

    `root` is the avatar's world root and `hand` the user's hand relative to
    it, as in `IkGoals`; the avatar shoulder and the user's wrist come from
    one `Transform.apply_all` call. The wrist lands on the shoulder-to-target
    ray at the user's shoulder-to-wrist distance (scaled by the calibration
    ratio and clamped to the reach sphere), so a half-extended user arm stays
    half-extended. The hand faces along the aim with its up vector taken from
    the user's hand.
    """
    if cfg is None:
        cfg = _DEFAULT_RETARGET
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    shoulder, (hx, hy, hz) = root.apply_all((skeleton.shoulder_local(side), hand.position))
    sx, sy, sz = shoulder
    reach = norm((hx - sx, hy - sy, hz - sz)) * cfg.calibration_ratio
    reach = min(max(reach, 1e-6), skeleton.arm_reach)

    v = sub(target_point, shoulder)
    dist = norm(v)
    if dist < 1e-9:
        raise DegenerateTarget("pointing target coincides with the avatar shoulder")
    ax, ay, az = aim = (v[0] / dist, v[1] / dist, v[2] / dist)

    hand_up = quat_rotate(quat_mul(root.orientation, hand.orientation), UP)
    return PointingSolution(
        target=target_point,
        shoulder=shoulder,
        wrist=(sx + ax * reach, sy + ay * reach, sz + az * reach),
        aim=aim,
        hand_orientation=look_rotation(aim, hand_up),
        reach=reach,
        hand_up=hand_up,
    )


# --- interpolation ----------------------------------------------------------

def interp_hand(current_pos, current_forward, desired_pos, desired_forward, t: float) -> tuple[float, float, float]:
    """Cubic Bezier hand path whose end tangents follow the two forwards.

    Control distance is a third of the chord, so collinear forwards along the
    chord degenerate to a straight constant-speed segment.
    """
    k = norm(sub(desired_pos, current_pos)) / 3.0
    u = 1.0 - t
    c0, c1, c2, c3 = u * u * u, 3.0 * u * u * t, 3.0 * u * t * t, t * t * t
    return tuple(
        c0 * p0 + c1 * (p0 + k * f0) + c2 * (p3 - k * f3) + c3 * p3
        for p0, f0, p3, f3 in zip(current_pos, current_forward, desired_pos, desired_forward)
    )


@dataclass
class EffectorInterp:
    """One effector's aim transition, running iff `start_fwd` is set."""

    t: float = 1.0
    start_pos: tuple[float, float, float] | None = None
    start_fwd: tuple[float, float, float] | None = None

    def reset(self) -> None:
        self.t = 1.0
        self.start_pos = None
        self.start_fwd = None


@dataclass
class InterpState:
    """Per-effector aim transitions for one avatar, indexed by
    `Effector`, and the last pose it solved, from which each new
    transition starts."""

    transitions: tuple[EffectorInterp, ...] = field(
        default_factory=lambda: tuple(EffectorInterp() for _ in Effector))
    last: AvatarPose | None = None

    def reset_transitions(self) -> None:
        for st in self.transitions:
            st.reset()


_NO_POINTING = (None,) * len(Effector)


@dataclass(frozen=True)
class AvatarTickResult:
    pose: AvatarPose
    # by `Effector`: (aim completion in [0,1], solution) for a hand that pointed, else None
    pointing: tuple[tuple[float, PointingSolution] | None, ...] = _NO_POINTING


def avatar_tick(
    skeleton: Skeleton,
    mode: UserState,
    goals: IkGoals,
    pinned_root: Transform | None,
    targets: Sequence[tuple[float, float, float] | None],
    interp: InterpState,
    dt: float,
    cfg: RetargetConfig | None = None,
) -> AvatarTickResult:
    """One avatar frame for the given user state.

    Solo mirrors the goals. Locomotion pins the root at `pinned_root` via
    walk_in_place; no other state reads it, so it may be None then.
    Interaction re-aims the head and the pointing arm(s) at the world-space
    targets, easing from the previous pose; target points may move every
    tick and the aim follows them in real time.

    `targets` holds a world point or None per effector, by `Effector`.
    The head joint is solved once and is the eye: the head aims from it,
    each hand at its target lifted as seen from it (`vertical_compensation`),
    and the final solve reuses it. A pointing arm reads the elbow flexion
    and hand up of its goal hand, so the goals are the only body the tick
    reads. Each transition advances by `dt * cfg.interp_speed` per tick and
    starts from `interp.last`, which every tick sets to the pose it returns;
    with no pose remembered, it starts from the unadjusted body.
    """
    if cfg is None:
        cfg = _DEFAULT_RETARGET

    if mode is not UserState.Interaction or all(point is None for point in targets):
        if mode is UserState.Locomotion:
            pose = walk_in_place(skeleton, goals, pinned_root, cfg)
        else:
            pose = solve_full_body(skeleton, goals, cfg)
        interp.reset_transitions()
        interp.last = pose
        return AvatarTickResult(pose)

    root = goals.root
    inv_root_q = quat_conj(root.orientation)
    neck_head = _neck_and_head(skeleton, root, goals.positions[Effector.Head])
    eye = neck_head[1]
    # the goal tables as the tick adjusts them
    positions = list(goals.positions)
    orientations = list(goals.orientations)
    pointing = list(_NO_POINTING)
    # where transitions start: the remembered pose, or the unadjusted body,
    # solved only when a transition starts with nothing remembered
    start = interp.last

    head = Effector.Head
    st = interp.transitions[head]
    if targets[head] is None:
        st.reset()
    else:
        desired_fwd = _safe_direction(sub(targets[head], eye), root)
        if st.start_fwd is None:
            if start is None:
                start = solve_full_body(skeleton, goals, cfg, neck_head=neck_head)
            st.t = 0.0
            st.start_fwd = quat_rotate(start.orientations[head], FORWARD)
        st.t = min(1.0, st.t + dt * cfg.interp_speed)
        fwd = slerp_vec(st.start_fwd, desired_fwd, st.t) if st.t < 1.0 else desired_fwd
        orientations[head] = quat_mul(inv_root_q, look_rotation(fwd, UP))

    for i, side, shoulder, wrist in _ARMS:
        st = interp.transitions[i]
        if targets[i] is None:
            st.reset()
            continue
        point = vertical_compensation(targets[i], eye, cfg)
        sol = retarget_pointing(skeleton, root, Transform(positions[i], orientations[i]), point, side, cfg)
        if st.start_fwd is None:
            if start is None:
                start = solve_full_body(skeleton, goals, cfg, neck_head=neck_head)
            st.t = 0.0
            st.start_pos = start.joints[wrist]
            st.start_fwd = _safe_direction(sub(start.joints[wrist], start.joints[shoulder]), start.root)
        st.t = min(1.0, st.t + dt * cfg.interp_speed)
        if st.t < 1.0:
            wrist_w = interp_hand(st.start_pos, st.start_fwd, sol.wrist, sol.aim, st.t)
            fwd_t = slerp_vec(st.start_fwd, sol.aim, st.t)
            hand_q_w = look_rotation(fwd_t, sol.hand_up)
        else:
            wrist_w = sol.wrist
            hand_q_w = sol.hand_orientation
        positions[i] = quat_rotate(inv_root_q, sub(wrist_w, root.position))
        orientations[i] = quat_mul(inv_root_q, hand_q_w)
        pointing[i] = (st.t, sol)

    adjusted = IkGoals(root, tuple(positions), tuple(orientations), goals.fingers)
    pose = solve_full_body(skeleton, adjusted, cfg, neck_head=neck_head)
    interp.last = pose
    return AvatarTickResult(pose, tuple(pointing))


def _safe_direction(v, root: Transform) -> tuple[float, float, float]:
    n = norm(v)
    if n < 1e-9:
        return root.forward()
    return (v[0] / n, v[1] / n, v[2] / n)

