"""Avatar posing: mimicry IK, walk-in-place, and pointing retargeting.

The avatar's body is a fixed-length skeleton posed analytically: arms and
legs by two-bone IK toward root-relative targets, the head by a look-at from
the neck. In the solo state the goals are the user's tracked effectors, so
the avatar mirrors them. During locomotion the root is pinned at the frozen
placement while the limbs keep mimicking, which reads as walking in place.
In the interaction state the pointing arm is decoupled from mimicry: the
wrist goal is placed on the ray from the avatar's shoulder toward the
retargeted world point, at the user's shoulder-to-wrist distance so the
elbow stays equally bent, and head/hand motion blends toward the new aim
over a short interpolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import (
    FORWARD,
    UP,
    Transform,
    cross,
    look_rotation,
    normalized,
    quat_conj,
    quat_from_yaw,
    quat_mul,
    quat_rotate,
    slerp_vec,
)
from .placement import Placement


class DegenerateTarget(ValueError):
    pass


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
            if getattr(self, name) <= 0.0:
                raise ValueError(f"bone length {name} must be positive")

    @property
    def arm_reach(self) -> float:
        return self.upper_arm + self.forearm

    def shoulder_local(self, side: str) -> np.ndarray:
        sx, sy, sz = self.shoulder_offset
        return np.array([sx if side == "right" else -sx, sy, sz])

    def hip_local(self, side: str) -> np.ndarray:
        hx, hy, hz = self.hip_offset
        return np.array([hx if side == "right" else -hx, hy, hz])

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


@dataclass(frozen=True)
class IkGoals:
    """Root pose in world space; effector targets relative to the root."""

    root: Transform
    head: Transform
    left_hand: Transform
    right_hand: Transform
    left_foot: Transform
    right_foot: Transform
    fingers: bytes = b""


@dataclass(frozen=True)
class AvatarPose:
    root: Transform
    joints: dict[str, np.ndarray]          # world positions
    orientations: dict[str, np.ndarray]    # world quaternions: head, hands
    fingers: bytes = b""

    def bone_vector(self, a: str, b: str) -> np.ndarray:
        return self.joints[b] - self.joints[a]


@dataclass(frozen=True)
class RetargetConfig:
    elevation_offset: float = 0.0          # radians; perceived-pointing lift, off by default
    interp_speed: float = 2.0              # 1/s; full aim transition in 0.5 s
    elbow_hint: tuple[float, float, float] = (0.0, -1.0, -0.35)
    knee_hint: tuple[float, float, float] = (0.0, 0.2, 1.0)
    calibration_ratio: float = 1.0         # avatar limb length / user limb length

    def __post_init__(self):
        if self.elevation_offset < 0.0:
            raise ValueError("elevation_offset must be >= 0")
        if self.interp_speed <= 0.0:
            raise ValueError("interp_speed must be positive")


_DEFAULT_RETARGET = RetargetConfig()


# --- core solvers -----------------------------------------------------------

def solve_two_bone(shoulder, upper: float, fore: float, target, hint) -> tuple[np.ndarray, np.ndarray]:
    """Analytic two-segment IK.

    Puts the wrist at the target when reachable, else clamps it to the reach
    annulus [|upper-fore|, upper+fore] along the shoulder-to-target ray. The
    elbow lies in the half-plane spanned by that ray and the hint direction.
    Segment lengths are preserved exactly by construction.
    """
    if upper <= 0.0 or fore <= 0.0:
        raise ValueError("segment lengths must be positive")
    shoulder = np.asarray(shoulder, dtype=float)
    to_target = np.asarray(target, dtype=float) - shoulder
    d = float(np.linalg.norm(to_target))
    if d < 1e-9:
        direction = normalized(hint)
    else:
        direction = to_target / d
    d_eff = min(max(d, abs(upper - fore)), upper + fore)
    wrist = shoulder + direction * d_eff

    if d_eff < 1e-12:
        # equal segments folded fully back: wrist at the shoulder, elbow at
        # the d -> 0 limit of the law of cosines (perpendicular to the ray)
        cos_a, sin_a = 0.0, 1.0
    else:
        cos_a = (upper * upper + d_eff * d_eff - fore * fore) / (2.0 * upper * d_eff)
        cos_a = max(-1.0, min(1.0, cos_a))
        sin_a = math.sqrt(max(0.0, 1.0 - cos_a * cos_a))
    perp = np.asarray(hint, dtype=float) - float(np.dot(hint, direction)) * direction
    pn = float(np.linalg.norm(perp))
    if pn < 1e-9:
        perp = _fallback_perpendicular(direction)
    else:
        perp = perp / pn
    elbow = shoulder + upper * (cos_a * direction + sin_a * perp)
    return elbow, wrist


def _fallback_perpendicular(direction: np.ndarray) -> np.ndarray:
    axis = np.array([0.0, 1.0, 0.0])
    if abs(float(np.dot(axis, direction))) > 0.9:
        axis = np.array([1.0, 0.0, 0.0])
    return normalized(cross(direction, axis))


def solve_full_body(skeleton: Skeleton, goals: IkGoals, cfg: RetargetConfig | None = None) -> AvatarPose:
    """Pose the whole skeleton against root-relative goals.

    Hands and feet use two-bone IK with the hint planes of `cfg` (elbow and
    knee hints, root-relative); the head is placed one neck length from the
    top of the spine toward its goal and keeps the goal's orientation. Finger
    data passes through untouched.
    """
    if cfg is None:
        cfg = _DEFAULT_RETARGET
    root = goals.root
    joints: dict[str, np.ndarray] = {}
    orientations: dict[str, np.ndarray] = {}

    neck_base = root.apply(np.array([0.0, skeleton.spine, 0.0]))
    joints["neck"] = neck_base
    head_goal = root.apply(goals.head.position)
    head_dir = head_goal - neck_base
    if float(np.linalg.norm(head_dir)) < 1e-9:
        head_dir = quat_rotate(root.orientation, np.array([0.0, 1.0, 0.0]))
    joints["head"] = neck_base + skeleton.neck * normalized(head_dir)
    orientations["head"] = quat_mul(root.orientation, goals.head.orientation)

    for side, hand_goal in (("left", goals.left_hand), ("right", goals.right_hand)):
        shoulder = root.apply(skeleton.shoulder_local(side))
        target = root.apply(hand_goal.position)
        hint = quat_rotate(root.orientation, cfg.elbow_hint)
        elbow, wrist = solve_two_bone(shoulder, skeleton.upper_arm, skeleton.forearm, target, hint)
        joints[f"{side[0]}_shoulder"] = shoulder
        joints[f"{side[0]}_elbow"] = elbow
        joints[f"{side[0]}_wrist"] = wrist
        orientations[f"{side}_hand"] = quat_mul(root.orientation, hand_goal.orientation)

    for side, foot_goal in (("left", goals.left_foot), ("right", goals.right_foot)):
        hip = root.apply(skeleton.hip_local(side))
        target = root.apply(foot_goal.position)
        hint = quat_rotate(root.orientation, cfg.knee_hint)
        knee, ankle = solve_two_bone(hip, skeleton.thigh, skeleton.shin, target, hint)
        joints[f"{side[0]}_hip"] = hip
        joints[f"{side[0]}_knee"] = knee
        joints[f"{side[0]}_ankle"] = ankle

    return AvatarPose(root=root, joints=joints, orientations=orientations, fingers=goals.fingers)


def rest_goals(skeleton: Skeleton, root: Transform | None = None) -> IkGoals:
    """Neutral goals: arms hanging, legs straight down, head atop the spine."""
    if root is None:
        stand = skeleton.thigh + skeleton.shin + 0.04
        root = Transform(np.array([0.0, stand, 0.0]), np.array([1.0, 0.0, 0.0, 0.0]))
    ident = np.array([1.0, 0.0, 0.0, 0.0])
    sh = skeleton.shoulder_local("right")
    hip = skeleton.hip_local("right")
    arm_drop = np.array([0.0, -(skeleton.upper_arm + skeleton.forearm), 0.0])
    leg_drop = np.array([0.0, -(skeleton.thigh + skeleton.shin), 0.0])
    mirror = np.array([-1.0, 1.0, 1.0])
    return IkGoals(
        root=root,
        head=Transform(np.array([0.0, skeleton.spine + skeleton.neck, 0.0]), ident),
        left_hand=Transform(sh * mirror + arm_drop, ident),
        right_hand=Transform(sh + arm_drop, ident),
        left_foot=Transform(hip * mirror + leg_drop, ident),
        right_foot=Transform(hip + leg_drop, ident),
    )


def walk_in_place(
    skeleton: Skeleton,
    goals: IkGoals,
    frozen_placement: Placement,
    root_height: float,
    cfg: RetargetConfig | None = None,
) -> AvatarPose:
    """Locomotion pose: root pinned at the frozen placement, limbs mimicking.

    The user's root translation and turning are discarded entirely; only the
    root-relative limb goals come through, so a walking user yields arm and
    leg swing around a stationary root.
    """
    frozen_root = Transform(
        np.array([frozen_placement.x, root_height, frozen_placement.z]),
        quat_from_yaw(frozen_placement.yaw),
    )
    return solve_full_body(skeleton, replace(goals, root=frozen_root), cfg)


# --- pointing ---------------------------------------------------------------

def vertical_compensation(target_point, eye, cfg: RetargetConfig) -> np.ndarray:
    """Raise a pointing target as seen from the eye by the configured angle.

    People tend to read pointing as indicating lower than intended, so the
    aim point is elevated by a fixed visual angle. The horizontal position is
    kept; only the height changes (by horizontal_distance * tan(offset) for a
    level target). Targets at the zenith cannot be raised further and pass
    through; offset 0 is the identity.
    """
    target = np.asarray(target_point, dtype=float).copy()
    if cfg.elevation_offset == 0.0:
        return target
    eye = np.asarray(eye, dtype=float)
    dx = float(target[0] - eye[0])
    dz = float(target[2] - eye[2])
    h = math.hypot(dx, dz)
    if h < 1e-9:
        return target
    pitch = math.atan2(float(target[1] - eye[1]), h)
    pitch = min(pitch + cfg.elevation_offset, 0.5 * math.pi - 1e-3)
    target[1] = float(eye[1]) + h * math.tan(pitch)
    return target


@dataclass(frozen=True)
class PointingSolution:
    """Desired end state for one pointing arm."""

    shoulder: np.ndarray        # avatar shoulder, world
    wrist: np.ndarray           # desired wrist, world
    aim: np.ndarray             # unit shoulder->target
    hand_orientation: np.ndarray  # world quaternion at completion
    reach: float                # shoulder-to-wrist distance in use


def retarget_pointing(
    skeleton: Skeleton,
    snapshot,
    avatar_root: Transform,
    target_point,
    side: str,
    cfg: RetargetConfig | None = None,
) -> PointingSolution:
    """Aim the avatar's arm so its shoulder-to-wrist ray passes through the
    target while copying the user's elbow flexion.

    The wrist lands on the shoulder-to-target ray at the user's current
    shoulder-to-wrist distance (scaled by the calibration ratio and clamped
    to the reach sphere), so a half-extended user arm stays half-extended.
    The hand faces along the aim with its up vector taken from the user's
    hand.
    """
    if cfg is None:
        cfg = _DEFAULT_RETARGET
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    hand = snapshot.left_hand if side == "left" else snapshot.right_hand

    user_shoulder = snapshot.root.position + quat_rotate(
        snapshot.root.orientation, skeleton.shoulder_local(side)
    )
    reach = float(np.linalg.norm(hand.position - user_shoulder)) * cfg.calibration_ratio
    reach = min(max(reach, 1e-6), skeleton.arm_reach)

    shoulder = avatar_root.apply(skeleton.shoulder_local(side))
    v = np.asarray(target_point, dtype=float) - shoulder
    dist = float(np.linalg.norm(v))
    if dist < 1e-9:
        raise DegenerateTarget("pointing target coincides with the avatar shoulder")
    aim = v / dist

    user_up = quat_rotate(hand.orientation, UP)
    hand_orientation = look_rotation(aim, user_up)
    return PointingSolution(
        shoulder=shoulder,
        wrist=shoulder + aim * reach,
        aim=aim,
        hand_orientation=hand_orientation,
        reach=reach,
    )


# --- interpolation ----------------------------------------------------------

def interp_head(current_forward, desired_forward, t: float) -> np.ndarray:
    """Great-circle blend of the head's forward direction; t in [0,1]."""
    return slerp_vec(current_forward, desired_forward, t)


def interp_hand(current_pos, current_forward, desired_pos, desired_forward, t: float) -> np.ndarray:
    """Cubic Bezier hand path whose end tangents follow the two forwards.

    Control distance is a third of the chord, so collinear forwards along the
    chord degenerate to a straight constant-speed segment.
    """
    p0 = np.asarray(current_pos, dtype=float)
    p3 = np.asarray(desired_pos, dtype=float)
    k = float(np.linalg.norm(p3 - p0)) / 3.0
    p1 = p0 + k * np.asarray(current_forward, dtype=float)
    p2 = p3 - k * np.asarray(desired_forward, dtype=float)
    u = 1.0 - t
    return (u * u * u) * p0 + (3.0 * u * u * t) * p1 + (3.0 * u * t * t) * p2 + (t * t * t) * p3


@dataclass
class EffectorInterp:
    key: str | None = None
    t: float = 1.0
    start_pos: np.ndarray | None = None
    start_fwd: np.ndarray | None = None

    def reset(self) -> None:
        self.key = None
        self.t = 1.0
        self.start_pos = None
        self.start_fwd = None


@dataclass
class InterpState:
    """Per-effector aim transitions for one avatar."""

    speed: float = 2.0
    head: EffectorInterp = field(default_factory=EffectorInterp)
    left: EffectorInterp = field(default_factory=EffectorInterp)
    right: EffectorInterp = field(default_factory=EffectorInterp)
    # last solved pose data, the capture source for new transitions
    last_head_fwd: np.ndarray | None = None
    last_wrist: dict[str, np.ndarray] = field(default_factory=dict)
    last_arm_fwd: dict[str, np.ndarray] = field(default_factory=dict)

    def hand(self, side: str) -> EffectorInterp:
        return self.left if side == "left" else self.right

    def reset_transitions(self) -> None:
        self.head.reset()
        self.left.reset()
        self.right.reset()


@dataclass(frozen=True)
class AvatarTickResult:
    pose: AvatarPose
    # per-side (aim completion in [0,1], solution) for hands that pointed
    pointing: dict[str, tuple[float, PointingSolution]]


def avatar_tick(
    skeleton: Skeleton,
    mode,
    goals: IkGoals,
    placement: Placement,
    placement_root_height: float,
    targets: dict[str, np.ndarray | None],
    head_target: np.ndarray | None,
    interp: InterpState,
    dt: float,
    cfg: RetargetConfig | None = None,
    snapshot=None,
) -> AvatarTickResult:
    """One avatar frame for the given user state.

    Solo mirrors the goals. Locomotion pins the root via walk_in_place.
    Interaction re-aims the pointing arm(s) and head at the (already
    retargeted) world-space targets, easing from the previous pose; target
    points may move every tick and the aim follows them in real time.

    `targets` maps "left"/"right" to world aim points (already compensated);
    `snapshot` carries the user's live pose for elbow flexion and hand up.
    """
    from .states import UserState  # local import: avoid cycle at module load

    if cfg is None:
        cfg = _DEFAULT_RETARGET

    if mode is UserState.Locomotion:
        pose = walk_in_place(skeleton, goals, placement, placement_root_height, cfg)
        interp.reset_transitions()
        _remember(interp, skeleton, pose)
        return AvatarTickResult(pose=pose, pointing={})

    if mode is not UserState.Interaction or (
        head_target is None and all(v is None for v in targets.values())
    ):
        pose = solve_full_body(skeleton, goals, cfg)
        interp.reset_transitions()
        _remember(interp, skeleton, pose)
        return AvatarTickResult(pose=pose, pointing={})

    base = solve_full_body(skeleton, goals, cfg)
    adjusted = goals
    root = goals.root
    inv_root_q = quat_conj(root.orientation)
    pointing: dict[str, tuple[float, PointingSolution]] = {}

    if head_target is not None:
        desired_fwd = _safe_direction(head_target - base.joints["head"], root)
        st = interp.head
        if st.key != "head-target":
            st.key = "head-target"
            st.t = 0.0
            st.start_fwd = (
                interp.last_head_fwd
                if interp.last_head_fwd is not None
                else quat_rotate(base.orientations["head"], FORWARD)
            )
        st.t = min(1.0, st.t + dt * interp.speed)
        fwd = interp_head(st.start_fwd, desired_fwd, st.t) if st.t < 1.0 else desired_fwd
        head_world_q = look_rotation(fwd, UP)
        adjusted = replace(
            adjusted, head=replace(goals.head, orientation=quat_mul(inv_root_q, head_world_q))
        )
    else:
        interp.head.reset()

    for side in ("left", "right"):
        point = targets.get(side)
        st = interp.hand(side)
        if point is None:
            st.reset()
            continue
        sol = retarget_pointing(skeleton, snapshot, root, point, side, cfg)
        key = f"{side}-aim"
        if st.key != key:
            st.key = key
            st.t = 0.0
            st.start_pos = interp.last_wrist.get(side, base.joints[f"{side[0]}_wrist"]).copy()
            prev_fwd = interp.last_arm_fwd.get(side)
            if prev_fwd is None:
                prev_fwd = _safe_direction(
                    base.joints[f"{side[0]}_wrist"] - base.joints[f"{side[0]}_shoulder"], root
                )
            st.start_fwd = prev_fwd.copy()
        st.t = min(1.0, st.t + dt * interp.speed)
        if st.t < 1.0:
            wrist_w = interp_hand(st.start_pos, st.start_fwd, sol.wrist, sol.aim, st.t)
            fwd_t = slerp_vec(st.start_fwd, sol.aim, st.t)
            hand_q_w = look_rotation(fwd_t, quat_rotate(_hand_of(snapshot, side).orientation, UP))
        else:
            wrist_w = sol.wrist
            hand_q_w = sol.hand_orientation
        goal_field = "left_hand" if side == "left" else "right_hand"
        adjusted = replace(
            adjusted,
            **{
                goal_field: Transform(
                    position=quat_rotate(inv_root_q, wrist_w - root.position),
                    orientation=quat_mul(inv_root_q, hand_q_w),
                )
            },
        )
        pointing[side] = (st.t, sol)

    pose = solve_full_body(skeleton, adjusted, cfg)
    _remember(interp, skeleton, pose)
    return AvatarTickResult(pose=pose, pointing=pointing)


def _hand_of(snapshot, side: str):
    return snapshot.left_hand if side == "left" else snapshot.right_hand


def _safe_direction(v: np.ndarray, root: Transform) -> np.ndarray:
    n = float(np.linalg.norm(v))
    if n < 1e-9:
        return root.forward()
    return v / n


def _remember(interp: InterpState, skeleton: Skeleton, pose: AvatarPose) -> None:
    interp.last_head_fwd = quat_rotate(pose.orientations["head"], FORWARD)
    for side in ("left", "right"):
        wrist = pose.joints[f"{side[0]}_wrist"]
        shoulder = pose.joints[f"{side[0]}_shoulder"]
        interp.last_wrist[side] = wrist
        v = wrist - shoulder
        n = float(np.linalg.norm(v))
        interp.last_arm_fwd[side] = v / n if n > 1e-9 else pose.root.forward()
