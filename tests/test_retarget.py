from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinroom.geometry import (
    FORWARD,
    Transform,
    UP,
    normalized,
    quat_between,
    quat_from_yaw,
    quat_rotate,
)
from twinroom.placement import Placement, PlacementPose
from twinroom.retarget import (
    AvatarPose,
    DegenerateTarget,
    IkGoals,
    InterpState,
    RetargetConfig,
    Skeleton,
    avatar_tick,
    interp_hand,
    interp_head,
    rest_goals,
    retarget_pointing,
    solve_full_body,
    solve_two_bone,
    vertical_compensation,
    walk_in_place,
)
from twinroom.states import EffectorSample, UserSnapshot, UserState

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])
HINT = np.array([0.0, -1.0, -0.35])

coords = st.floats(-3, 3)
vec3 = st.tuples(coords, coords, coords)
seg_lengths = st.floats(0.1, 0.6)


# --- two-bone solver ----------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(shoulder=vec3, upper=seg_lengths, fore=seg_lengths, target=vec3)
def test_two_bone_preserves_segment_lengths(shoulder, upper, fore, target):
    elbow, wrist = solve_two_bone(shoulder, upper, fore, target, HINT)
    s = np.asarray(shoulder, dtype=float)
    assert np.linalg.norm(elbow - s) == pytest.approx(upper, abs=1e-12)
    assert np.linalg.norm(wrist - elbow) == pytest.approx(fore, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    shoulder=vec3,
    upper=seg_lengths,
    fore=seg_lengths,
    direction=vec3,
    frac=st.floats(0.01, 0.99),
)
def test_two_bone_reaches_reachable_targets_exactly(
    shoulder, upper, fore, direction, frac
):
    d = np.asarray(direction, dtype=float)
    n = np.linalg.norm(d)
    if n < 1e-3:
        return
    lo, hi = abs(upper - fore), upper + fore
    dist = lo + frac * (hi - lo)
    if dist < 1e-6:
        return
    target = np.asarray(shoulder, dtype=float) + (d / n) * dist
    _, wrist = solve_two_bone(shoulder, upper, fore, target, HINT)
    np.testing.assert_allclose(wrist, target, atol=1e-9)


def test_two_bone_clamps_to_reach_annulus():
    shoulder = np.zeros(3)
    far = np.array([5.0, 0.0, 0.0])
    _, wrist = solve_two_bone(shoulder, 0.3, 0.25, far, HINT)
    np.testing.assert_allclose(wrist, [0.55, 0, 0], atol=1e-12)

    near = np.array([0.01, 0.0, 0.0])
    _, wrist = solve_two_bone(shoulder, 0.3, 0.25, near, HINT)
    np.testing.assert_allclose(wrist, [0.05, 0, 0], atol=1e-12)  # |upper-fore|


def test_two_bone_elbow_lies_in_hint_half_plane():
    shoulder = np.zeros(3)
    target = np.array([0.0, 0.0, 0.4])
    elbow, _ = solve_two_bone(shoulder, 0.3, 0.25, target, HINT)
    direction = np.array([0.0, 0.0, 1.0])
    perp = HINT - np.dot(HINT, direction) * direction
    perp = perp / np.linalg.norm(perp)
    e = elbow - shoulder
    assert np.dot(e, perp) > 0  # bends toward the hint
    assert abs(np.dot(e, np.cross(direction, perp))) < 1e-12  # stays in plane


def test_two_bone_degenerate_cases():
    # coincident target, unequal segments: wrist sits on the inner annulus
    # along the hint direction
    elbow, wrist = solve_two_bone(np.zeros(3), 0.3, 0.25, np.zeros(3), HINT)
    np.testing.assert_allclose(wrist, 0.05 * normalized(HINT), atol=1e-12)
    assert np.linalg.norm(elbow) == pytest.approx(0.3, abs=1e-12)

    # coincident target, equal segments: the arm folds fully back
    elbow, wrist = solve_two_bone(np.zeros(3), 0.3, 0.3, np.zeros(3), HINT)
    np.testing.assert_allclose(wrist, np.zeros(3), atol=1e-12)
    assert np.linalg.norm(elbow) == pytest.approx(0.3, abs=1e-12)

    with pytest.raises(ValueError):
        solve_two_bone(np.zeros(3), 0.0, 0.3, np.ones(3), HINT)


# --- full body ----------------------------------------------------------------


def random_goals(rng, skeleton):
    def t(scale=0.6):
        return Transform(rng.uniform(-scale, scale, 3), IDENTITY)

    root = Transform(
        np.array([rng.uniform(-2, 2), 0.9, rng.uniform(-2, 2)]),
        quat_from_yaw(rng.uniform(0, 2 * math.pi)),
    )
    return IkGoals(
        root=root,
        head=Transform(
            np.array([0, skeleton.spine + skeleton.neck, 0]) + rng.uniform(-0.05, 0.05, 3),
            IDENTITY,
        ),
        left_hand=t(),
        right_hand=t(),
        left_foot=Transform(rng.uniform(-0.9, -0.3, 3) * np.array([0, 1, 0]), IDENTITY),
        right_foot=Transform(rng.uniform(-0.9, -0.3, 3) * np.array([0, 1, 0]), IDENTITY),
        fingers=b"\x01\x02",
    )


def bone_lengths(skeleton, pose: AvatarPose):
    return {
        "l_upper": np.linalg.norm(pose.bone_vector("l_shoulder", "l_elbow")),
        "l_fore": np.linalg.norm(pose.bone_vector("l_elbow", "l_wrist")),
        "r_upper": np.linalg.norm(pose.bone_vector("r_shoulder", "r_elbow")),
        "r_fore": np.linalg.norm(pose.bone_vector("r_elbow", "r_wrist")),
        "l_thigh": np.linalg.norm(pose.bone_vector("l_hip", "l_knee")),
        "l_shin": np.linalg.norm(pose.bone_vector("l_knee", "l_ankle")),
        "r_thigh": np.linalg.norm(pose.bone_vector("r_hip", "r_knee")),
        "r_shin": np.linalg.norm(pose.bone_vector("r_knee", "r_ankle")),
        "neck": np.linalg.norm(pose.bone_vector("neck", "head")),
    }


def test_full_body_preserves_all_bone_lengths():
    skeleton = Skeleton()
    rng = np.random.default_rng(7)
    want = {
        "l_upper": skeleton.upper_arm, "l_fore": skeleton.forearm,
        "r_upper": skeleton.upper_arm, "r_fore": skeleton.forearm,
        "l_thigh": skeleton.thigh, "l_shin": skeleton.shin,
        "r_thigh": skeleton.thigh, "r_shin": skeleton.shin,
        "neck": skeleton.neck,
    }
    for _ in range(50):
        pose = solve_full_body(skeleton, random_goals(rng, skeleton))
        got = bone_lengths(skeleton, pose)
        for name, length in want.items():
            assert got[name] == pytest.approx(length, abs=1e-12), name


def test_full_body_passes_fingers_through():
    skeleton = Skeleton()
    goals = rest_goals(skeleton)
    blob = b"\x00\xffopaque"
    pose = solve_full_body(skeleton, IkGoals(**{**goals.__dict__, "fingers": blob}))
    assert pose.fingers == blob


def test_rest_pose_hangs_arms_straight_down():
    skeleton = Skeleton()
    pose = solve_full_body(skeleton, rest_goals(skeleton))
    for side in "lr":
        shoulder = pose.joints[f"{side}_shoulder"]
        wrist = pose.joints[f"{side}_wrist"]
        np.testing.assert_allclose(
            wrist, shoulder + [0, -skeleton.arm_reach, 0], atol=1e-9
        )
        ankle = pose.joints[f"{side}_ankle"]
        assert ankle[1] == pytest.approx(0.04, abs=1e-9)  # rest root clearance


def test_skeleton_float_round_trip():
    sk = Skeleton(spine=0.55, shoulder_offset=(0.2, 0.5, 0.01))
    assert Skeleton.from_floats(sk.to_floats()) == sk
    with pytest.raises(ValueError):
        Skeleton.from_floats((1.0,) * 12)
    with pytest.raises(ValueError):
        Skeleton(upper_arm=0.0)


def test_full_body_uses_configured_hints():
    skeleton = Skeleton()
    root = Transform(np.array([0.5, 0.9, -1.0]), quat_from_yaw(0.4))
    bend = np.array([0.0, -0.35, 0.1])  # hands and feet within reach: elbows and knees bend
    goals = replace(
        rest_goals(skeleton, root),
        left_hand=Transform(skeleton.shoulder_local("left") + bend, IDENTITY),
        right_hand=Transform(skeleton.shoulder_local("right") + bend, IDENTITY),
        left_foot=Transform(skeleton.hip_local("left") + 2.0 * bend, IDENTITY),
        right_foot=Transform(skeleton.hip_local("right") + 2.0 * bend, IDENTITY),
    )
    default = solve_full_body(skeleton, goals)
    same = solve_full_body(skeleton, goals, RetargetConfig())
    for joint, p in default.joints.items():
        assert np.array_equal(same.joints[joint], p), joint

    # elbows and knees pushed out to the +x side
    cfg = RetargetConfig(elbow_hint=(1.0, -0.2, 0.0), knee_hint=(1.0, 0.0, 0.2))
    moved = solve_full_body(skeleton, goals, cfg)
    for side in "lr":
        assert not np.allclose(moved.joints[f"{side}_elbow"], default.joints[f"{side}_elbow"])
        np.testing.assert_allclose(moved.joints[f"{side}_wrist"], default.joints[f"{side}_wrist"], atol=0)
        elbow, _ = solve_two_bone(
            moved.joints[f"{side}_shoulder"], skeleton.upper_arm, skeleton.forearm,
            moved.joints[f"{side}_wrist"], quat_rotate(goals.root.orientation, cfg.elbow_hint),
        )
        np.testing.assert_allclose(moved.joints[f"{side}_elbow"], elbow, atol=1e-12)
        assert not np.allclose(moved.joints[f"{side}_knee"], default.joints[f"{side}_knee"])

    # the config reaches the solver through walk_in_place and avatar_tick too
    placement = Placement(x=0.5, z=-1.0, yaw=0.3, pose=PlacementPose.Standing)
    walking = walk_in_place(skeleton, goals, placement, 0.9, cfg)
    frozen = replace(goals, root=walking.root)
    assert np.array_equal(walking.joints["r_elbow"], solve_full_body(skeleton, frozen, cfg).joints["r_elbow"])
    solo = avatar_tick(
        skeleton, UserState.Solo, goals, placement, 0.9, {"left": None, "right": None}, None,
        InterpState(), 1 / 60, cfg, snapshot=user_snapshot(),
    )
    assert np.array_equal(solo.pose.joints["l_elbow"], moved.joints["l_elbow"])


# --- walk in place --------------------------------------------------------


def test_walk_in_place_pins_root_and_mimics_limbs():
    skeleton = Skeleton()
    placement = Placement(x=1.5, z=2.5, yaw=0.7, pose=PlacementPose.Standing)
    rng = np.random.default_rng(3)
    for _ in range(20):
        goals = random_goals(rng, skeleton)  # root wanders; it must not matter
        pose = walk_in_place(skeleton, goals, placement, root_height=0.9)
        np.testing.assert_allclose(pose.root.position, [1.5, 0.9, 2.5], atol=0)
        np.testing.assert_allclose(
            pose.root.orientation, quat_from_yaw(0.7), atol=1e-12
        )
        # limbs follow the root-relative goals exactly
        want = pose.root.apply(goals.right_hand.position)
        _, wrist = solve_two_bone(
            pose.root.apply(skeleton.shoulder_local("right")),
            skeleton.upper_arm, skeleton.forearm, want,
            quat_rotate(pose.root.orientation, HINT),
        )
        np.testing.assert_allclose(pose.joints["r_wrist"], wrist, atol=1e-9)


# --- pointing compensation --------------------------------------------------


def test_vertical_compensation_disabled_is_identity():
    cfg = RetargetConfig(elevation_offset=0.0)
    target = np.array([1.0, 1.3, 4.0])
    np.testing.assert_array_equal(
        vertical_compensation(target, np.array([0, 1.6, 0]), cfg), target
    )


def test_vertical_compensation_raises_level_target_by_tangent():
    offset = math.radians(8)
    cfg = RetargetConfig(elevation_offset=offset)
    eye = np.array([0.0, 1.6, 0.0])
    target = np.array([0.0, 1.6, 3.0])  # level: pitch 0, horizontal dist 3
    out = vertical_compensation(target, eye, cfg)
    assert out[0] == 0.0 and out[2] == 3.0  # horizontal position kept
    assert out[1] == pytest.approx(1.6 + 3.0 * math.tan(offset), abs=1e-12)


def test_vertical_compensation_zenith_passthrough_and_clamp():
    cfg = RetargetConfig(elevation_offset=math.radians(8))
    eye = np.array([0.0, 1.6, 0.0])
    above = np.array([0.0, 3.0, 0.0])  # no horizontal component
    np.testing.assert_array_equal(vertical_compensation(above, eye, cfg), above)

    steep = np.array([0.0, 1.6 + 100.0, 0.01])  # nearly vertical already
    out = vertical_compensation(steep, eye, cfg)
    want = 1.6 + 0.01 * math.tan(0.5 * math.pi - 1e-3)
    assert out[1] == pytest.approx(want, rel=1e-9)


def test_retarget_config_validation():
    with pytest.raises(ValueError):
        RetargetConfig(elevation_offset=-0.1)
    with pytest.raises(ValueError):
        RetargetConfig(interp_speed=0.0)


# --- pointing solution --------------------------------------------------------


def user_snapshot(root_pos=(0, 0.9, 0), right_hand_pos=(0.3, 1.2, 0.3)):
    def s(p, q=IDENTITY, lifted=False):
        return EffectorSample(
            position=np.asarray(p, dtype=float), orientation=q, lifted=lifted
        )

    return UserSnapshot(
        tick=0,
        root=s(root_pos),
        head=s((0, 1.6, 0)),
        left_hand=s((-0.3, 1.0, 0.1), lifted=True),
        right_hand=s(right_hand_pos, lifted=True),
        left_foot=s((0.1, 0, 0)),
        right_foot=s((-0.1, 0, 0)),
    )


def test_pointing_ray_passes_through_target():
    skeleton = Skeleton()
    snap = user_snapshot()
    avatar_root = Transform(np.array([2.0, 0.9, 1.0]), quat_from_yaw(0.4))
    target = np.array([3.0, 1.8, 4.0])
    sol = retarget_pointing(skeleton, snap, avatar_root, target, "right")
    to_target = normalized(target - sol.shoulder)
    np.testing.assert_allclose(sol.aim, to_target, atol=1e-12)
    np.testing.assert_allclose(
        sol.wrist, sol.shoulder + sol.aim * sol.reach, atol=1e-12
    )
    np.testing.assert_allclose(
        sol.shoulder, avatar_root.apply(skeleton.shoulder_local("right")), atol=1e-12
    )


def test_pointing_preserves_elbow_flexion():
    skeleton = Skeleton()
    avatar_root = Transform(np.array([0.0, 0.9, 0.0]), IDENTITY)
    target = np.array([0.0, 1.5, 3.0])

    user_shoulder = np.array([0.18, 0.9 + 0.48, 0.0])
    half = user_snapshot(right_hand_pos=user_shoulder + [0, 0, 0.25])
    sol = retarget_pointing(skeleton, half, avatar_root, target, "right")
    assert sol.reach == pytest.approx(0.25, abs=1e-12)

    stretched = user_snapshot(right_hand_pos=user_shoulder + [0, 0, 2.0])
    sol = retarget_pointing(skeleton, stretched, avatar_root, target, "right")
    assert sol.reach == pytest.approx(skeleton.arm_reach, abs=1e-12)


def test_pointing_calibration_ratio_scales_reach():
    skeleton = Skeleton()
    avatar_root = Transform(np.array([0.0, 0.9, 0.0]), IDENTITY)
    user_shoulder = np.array([0.18, 1.38, 0.0])
    snap = user_snapshot(right_hand_pos=user_shoulder + [0, 0, 0.2])
    cfg = RetargetConfig(calibration_ratio=1.5)
    sol = retarget_pointing(
        skeleton, snap, avatar_root, np.array([0, 1.5, 3.0]), "right", cfg
    )
    assert sol.reach == pytest.approx(0.3, abs=1e-12)


def test_pointing_rejects_degenerate_input():
    skeleton = Skeleton()
    snap = user_snapshot()
    avatar_root = Transform(np.array([0.0, 0.9, 0.0]), IDENTITY)
    shoulder = avatar_root.apply(skeleton.shoulder_local("right"))
    with pytest.raises(DegenerateTarget):
        retarget_pointing(skeleton, snap, avatar_root, shoulder, "right")
    with pytest.raises(ValueError):
        retarget_pointing(skeleton, snap, avatar_root, np.ones(3), "up")


# --- interpolation ------------------------------------------------------------


def test_interp_head_blends_along_great_circle():
    a = np.array([0.0, 0.0, 1.0])
    b = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(interp_head(a, b, 0.0), a, atol=1e-12)
    np.testing.assert_allclose(interp_head(a, b, 1.0), b, atol=1e-12)
    mid = interp_head(a, b, 0.5)
    s = math.sqrt(0.5)
    np.testing.assert_allclose(mid, [s, 0, s], atol=1e-9)


def test_interp_hand_endpoints_and_straight_line():
    p0 = np.array([0.0, 1.0, 0.0])
    p3 = np.array([0.0, 1.0, 3.0])
    fwd = np.array([0.0, 0.0, 1.0])  # both tangents along the chord
    np.testing.assert_allclose(interp_hand(p0, fwd, p3, fwd, 0.0), p0, atol=1e-12)
    np.testing.assert_allclose(interp_hand(p0, fwd, p3, fwd, 1.0), p3, atol=1e-12)
    for t in (0.25, 0.5, 0.75):
        np.testing.assert_allclose(
            interp_hand(p0, fwd, p3, fwd, t), p0 + t * (p3 - p0), atol=1e-9
        )


@settings(max_examples=80, deadline=None)
@given(p0=vec3, p3=vec3, f0=vec3, f3=vec3, t=st.floats(0, 1))
def test_interp_hand_matches_bezier_closed_form(p0, p3, f0, f3, t):
    p0 = np.asarray(p0, dtype=float)
    p3 = np.asarray(p3, dtype=float)
    k = np.linalg.norm(p3 - p0) / 3.0
    p1 = p0 + k * np.asarray(f0, dtype=float)
    p2 = p3 - k * np.asarray(f3, dtype=float)
    u = 1.0 - t
    want = u**3 * p0 + 3 * u**2 * t * p1 + 3 * u * t**2 * p2 + t**3 * p3
    np.testing.assert_allclose(interp_hand(p0, f0, p3, f3, t), want, atol=1e-9)


# --- avatar tick ----------------------------------------------------------


def standing_setup():
    skeleton = Skeleton()
    root = Transform(np.array([0.0, 0.9, 0.0]), IDENTITY)
    goals = rest_goals(skeleton, root)
    placement = Placement(x=0.0, z=0.0, yaw=0.0, pose=PlacementPose.Standing)
    return skeleton, goals, placement


def test_avatar_tick_solo_mirrors_goals():
    skeleton, goals, placement = standing_setup()
    interp = InterpState()
    result = avatar_tick(
        skeleton, UserState.Solo, goals, placement, 0.9,
        {"left": None, "right": None}, None, interp, 1 / 60,
        snapshot=user_snapshot(),
    )
    mirror = solve_full_body(skeleton, goals)
    for joint, p in mirror.joints.items():
        np.testing.assert_allclose(result.pose.joints[joint], p, atol=0)
    assert result.pointing == {}


def test_avatar_tick_locomotion_root_is_constant():
    skeleton, goals, _ = standing_setup()
    placement = Placement(x=2.0, z=1.0, yaw=1.2, pose=PlacementPose.Standing)
    interp = InterpState()
    rng = np.random.default_rng(11)
    roots = []
    for _ in range(30):
        moving = random_goals(rng, skeleton)
        result = avatar_tick(
            skeleton, UserState.Locomotion, moving, placement, 0.9,
            {"left": None, "right": None}, None, interp, 1 / 60,
            snapshot=user_snapshot(),
        )
        roots.append(result.pose.root.position.copy())
    for r in roots[1:]:
        np.testing.assert_array_equal(r, roots[0])
    np.testing.assert_allclose(roots[0], [2.0, 0.9, 1.0], atol=0)


def test_avatar_tick_aim_converges_onto_target_ray():
    skeleton, goals, placement = standing_setup()
    interp = InterpState(speed=2.0)
    target = np.array([1.0, 1.5, 2.5])
    snap = user_snapshot()
    completions = []
    result = None
    for _ in range(40):  # 40 ticks at speed 2 > the 0.5 s transition
        result = avatar_tick(
            skeleton, UserState.Interaction, goals, placement, 0.9,
            {"left": None, "right": target}, target, interp, 1 / 60,
            snapshot=snap,
        )
        completions.append(result.pointing["right"][0])
    assert completions[0] == pytest.approx(2.0 / 60, abs=1e-12)
    assert completions[-1] == 1.0
    assert all(b >= a for a, b in zip(completions, completions[1:]))

    t, sol = result.pointing["right"]
    wrist = result.pose.joints["r_wrist"]
    shoulder = result.pose.joints["r_shoulder"]
    np.testing.assert_allclose(wrist, sol.wrist, atol=1e-9)
    aim = normalized(wrist - shoulder)
    np.testing.assert_allclose(aim, normalized(target - shoulder), atol=1e-9)
    # the head looks at its target once its own transition finishes
    head_fwd = quat_rotate(result.pose.orientations["head"], FORWARD)
    want = normalized(target - result.pose.joints["head"])
    np.testing.assert_allclose(head_fwd, want, atol=1e-6)


def test_avatar_tick_dropping_target_returns_to_mirror():
    skeleton, goals, placement = standing_setup()
    interp = InterpState()
    snap = user_snapshot()
    target = np.array([1.0, 1.5, 2.5])
    for _ in range(5):
        avatar_tick(
            skeleton, UserState.Interaction, goals, placement, 0.9,
            {"left": None, "right": target}, None, interp, 1 / 60, snapshot=snap,
        )
    assert interp.right.key == "right-aim"
    result = avatar_tick(
        skeleton, UserState.Interaction, goals, placement, 0.9,
        {"left": None, "right": None}, None, interp, 1 / 60, snapshot=snap,
    )
    assert interp.right.key is None
    mirror = solve_full_body(skeleton, goals)
    np.testing.assert_allclose(
        result.pose.joints["r_wrist"], mirror.joints["r_wrist"], atol=1e-12
    )


def test_avatar_tick_eases_from_previous_pose():
    skeleton, goals, placement = standing_setup()
    interp = InterpState(speed=2.0)
    snap = user_snapshot()
    target = np.array([1.0, 1.5, 2.5])
    result = avatar_tick(
        skeleton, UserState.Interaction, goals, placement, 0.9,
        {"left": None, "right": target}, None, interp, 1 / 60, snapshot=snap,
    )
    t, sol = result.pointing["right"]
    assert 0 < t < 1
    wrist = result.pose.joints["r_wrist"]
    rest_wrist = solve_full_body(skeleton, goals).joints["r_wrist"]
    # early in the transition the wrist is still near its rest position
    assert np.linalg.norm(wrist - rest_wrist) < np.linalg.norm(sol.wrist - rest_wrist)
