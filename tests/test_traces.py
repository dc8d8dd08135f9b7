"""Motion trace save/load and the scripted TraceBuilder primitives."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twinroom.geometry import FORWARD, quat_rotate
from twinroom.retarget import Skeleton
from twinroom.states import (
    StateConfig,
    StateEvent,
    TickWindow,
    UserState,
    hand_lifted,
    pelvis_speed,
    step_locomotion,
)
from twinroom.traces import MalformedTrace, MotionTrace, TraceBuilder, load_trace, save_trace


def point_to_ray_distance(point, origin, direction) -> float:
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    off = np.asarray(point, dtype=float) - np.asarray(origin, dtype=float)
    return float(np.linalg.norm(off - d * float(off @ d)))


def assert_traces_equal(a: MotionTrace, b: MotionTrace) -> None:
    assert a.tick_rate == b.tick_rate
    assert a.skeleton.to_floats() == b.skeleton.to_floats()
    assert len(a) == len(b)
    fields = ("root", "head", "left_hand", "right_hand", "left_foot", "right_foot")
    for sa, sb in zip(a.snapshots, b.snapshots):
        assert sa.tick == sb.tick
        assert sa.fingers == sb.fingers
        for name in fields:
            ea, eb = getattr(sa, name), getattr(sb, name)
            np.testing.assert_array_equal(ea.position, eb.position)
            np.testing.assert_array_equal(ea.orientation, eb.orientation)
            assert ea.lifted == eb.lifted


# --- persistence -------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    # json serializes floats via repr, so the reload is bit-exact
    b = TraceBuilder(start=(0.5, -0.25), yaw=0.3)
    b.fingers = bytes([1, 2, 250])
    b.hold(0.1).walk_to(1.5, 1.0, speed=1.2).point_at([2.0, 1.4, 3.0]).lower_hands()
    trace = b.build()
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    assert_traces_equal(load_trace(path), trace)


def _reference_trace_text(trace: MotionTrace) -> str:
    """The trace encoder that took every effector value through float()."""
    import json

    lines = [json.dumps({"tick_rate": trace.tick_rate, "skeleton": list(trace.skeleton.to_floats())},
                        sort_keys=True)]
    for snap in trace.snapshots:
        doc = {"tick": snap.tick, "fingers": snap.fingers.hex()}
        lifted = [n for n in ("left_hand", "right_hand") if getattr(snap, n).lifted]
        if lifted:
            doc["lifted"] = lifted
        for name in ("root", "head", "left_hand", "right_hand", "left_foot", "right_foot"):
            s = getattr(snap, name)
            doc[name] = [float(v) for v in s.position] + [float(v) for v in s.orientation]
        lines.append(json.dumps(doc, sort_keys=True))
    return "\n".join(lines) + "\n"


def test_saved_bytes_match_the_per_value_encoder(tmp_path):
    b = TraceBuilder(start=(0.5, -0.25), yaw=0.3)
    b.fingers = bytes([1, 2, 250])
    b.hold(0.1).walk_to(1.5, 1.0, speed=1.2).point_at([2.0, 1.4, 3.0]).sit().lower_hands()
    built = b.build()
    path = tmp_path / "built.jsonl"
    save_trace(built, path)
    assert path.read_bytes() == _reference_trace_text(built).encode()
    # a loaded trace holds each row's values as views of one float array
    loaded = load_trace(path)
    again = tmp_path / "loaded.jsonl"
    save_trace(loaded, again)
    assert again.read_bytes() == _reference_trace_text(loaded).encode() == path.read_bytes()


def test_load_accepts_inline_text(tmp_path):
    trace = TraceBuilder().hold(0.05).build()
    path = tmp_path / "t.jsonl"
    save_trace(trace, path)
    assert_traces_equal(load_trace(path.read_text()), trace)


def test_load_passes_through_existing_trace():
    trace = TraceBuilder().hold(0.05).build()
    assert load_trace(trace) is trace


def test_lifted_flag_survives_round_trip(tmp_path):
    # the simulator trusts snapshot.lifted, so the file must carry it
    b = TraceBuilder()
    b.hold(0.1).point_at([1.0, 1.5, 2.0], side="right", hold_s=0.2)
    trace = b.build()
    assert trace.snapshots[-1].right_hand.lifted
    assert not trace.snapshots[-1].left_hand.lifted
    assert not trace.snapshots[0].right_hand.lifted
    path = tmp_path / "lift.jsonl"
    save_trace(trace, path)
    loaded = load_trace(path)
    got = [(s.left_hand.lifted, s.right_hand.lifted) for s in loaded.snapshots]
    want = [(s.left_hand.lifted, s.right_hand.lifted) for s in trace.snapshots]
    assert got == want


def test_custom_skeleton_survives_round_trip(tmp_path):
    sk = Skeleton.from_floats([v * 1.07 for v in Skeleton().to_floats()])
    trace = TraceBuilder(skeleton=sk, tick_rate=30.0).hold(0.2).build()
    path = tmp_path / "sk.jsonl"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded.tick_rate == 30.0
    assert loaded.skeleton.to_floats() == sk.to_floats()


def test_load_missing_file_raises():
    with pytest.raises(MalformedTrace, match="not found"):
        load_trace("/nonexistent/trace.jsonl")


def test_load_rejects_garbage(tmp_path):
    with pytest.raises(MalformedTrace):
        load_trace("{not valid json")
    empty = tmp_path / "empty.jsonl"
    empty.write_text("   \n  \n")
    with pytest.raises(MalformedTrace, match="empty"):
        load_trace(empty)


def test_load_rejects_missing_effector(tmp_path):
    trace = TraceBuilder().hold(0.05).build()
    path = tmp_path / "t.jsonl"
    save_trace(trace, path)
    lines = path.read_text().splitlines()
    import json

    row = json.loads(lines[1])
    del row["head"]
    broken = "\n".join([lines[0], json.dumps(row)] + lines[2:])
    with pytest.raises(MalformedTrace):
        load_trace(broken)


def test_load_rejects_short_effector(tmp_path):
    trace = TraceBuilder().hold(0.05).build()
    path = tmp_path / "t.jsonl"
    save_trace(trace, path)
    lines = path.read_text().splitlines()
    import json

    row = json.loads(lines[1])
    row["root"] = row["root"][:6]
    with pytest.raises(MalformedTrace, match="7 floats"):
        load_trace("\n".join([lines[0], json.dumps(row)] + lines[2:]))


_POSE = [0.0, 0.92, 0.0, 1.0, 0.0, 0.0, 0.0]


@pytest.mark.parametrize(
    "line, field, value",
    [(0, "tick_rate", True), (0, "tick_rate", "60"), (1, "tick", 1.7), (1, "tick", True),
     (0, "skeleton", [*Skeleton().to_floats()[:12], "0.5"]),
     (0, "skeleton", [True, *Skeleton().to_floats()[1:]]),
     (1, "root", ["0.0", *_POSE[1:]]),
     (1, "head", [0.0, math.nan, *_POSE[2:]]),
     (1, "left_foot", [*_POSE[:6], True]),
     (1, "right_hand", [*_POSE[:3], 1e400, *_POSE[4:]]),
     (1, "left_hand", [*_POSE[:6], 10**400]),
     (1, "lifted", "right_hand"),
     (1, "lifted", ["right_hand", "tail"])],
)
def test_load_rejects_mistyped_numbers(tmp_path, line, field, value):
    import json

    path = tmp_path / "t.jsonl"
    save_trace(TraceBuilder().hold(0.05).build(), path)
    lines = path.read_text().splitlines()
    doc = json.loads(lines[line])
    doc[field] = value
    lines[line] = json.dumps(doc)
    # each row error names its tick, unless the tick itself is the error
    where = "tick 1: " if line and field != "tick" else ""
    with pytest.raises(MalformedTrace, match=f"^{where}{field} must be"):
        load_trace("\n".join(lines))


def test_trace_rejects_tick_gap():
    base = TraceBuilder().hold(0.1).build()
    snaps = list(base.snapshots)
    del snaps[2]
    with pytest.raises(MalformedTrace, match="contiguous"):
        MotionTrace(tick_rate=60.0, skeleton=base.skeleton, snapshots=tuple(snaps))


def test_a_trace_without_snapshots_is_refused(tmp_path):
    # a trace file holding only its header line loads as no trace at all
    path = tmp_path / "empty.jsonl"
    save_trace(TraceBuilder().hold(0.05).build(), path)
    path.write_text(path.read_text().splitlines()[0] + "\n")
    with pytest.raises(MalformedTrace, match="^trace has no snapshots$"):
        load_trace(path)
    with pytest.raises(MalformedTrace, match="^trace has no snapshots$"):
        MotionTrace(tick_rate=60.0, skeleton=Skeleton(), snapshots=())


def test_trace_rejects_bad_tick_rate():
    for rate in (0.0, math.nan, math.inf):
        with pytest.raises(MalformedTrace, match="tick rate"):
            MotionTrace(tick_rate=rate, skeleton=Skeleton(), snapshots=())


# --- builder primitives ------------------------------------------------------


def test_hold_emits_contiguous_static_snapshots():
    trace = TraceBuilder(start=(1.0, 2.0), yaw=0.5).hold(1.0).build()
    assert len(trace) == 60
    assert [s.tick for s in trace.snapshots] == list(range(1, 61))
    first = trace.snapshots[0]
    for snap in trace.snapshots:
        np.testing.assert_array_equal(snap.root.position, first.root.position)
        np.testing.assert_array_equal(snap.head.position, first.head.position)
    np.testing.assert_allclose(first.root.position, [1.0, 0.92, 2.0])


def test_hold_zero_seconds_still_emits_one_tick():
    assert len(TraceBuilder().hold(0.0).build()) == 1


def test_walk_to_arrives_and_faces_travel_direction():
    b = TraceBuilder()
    b.walk_to(2.0, 1.0, speed=1.3)
    trace = b.build()
    last = trace.snapshots[-1]
    np.testing.assert_allclose(
        [last.root.position[0], last.root.position[2]], [2.0, 1.0], atol=1e-12
    )
    fwd = quat_rotate(last.root.orientation, FORWARD)
    np.testing.assert_allclose(fwd, np.array([2.0, 0.0, 1.0]) / math.hypot(2.0, 1.0), atol=1e-9)


def test_walk_to_moves_at_constant_speed():
    speed = 1.25
    trace = TraceBuilder().walk_to(3.0, 0.0, speed=speed).build()
    snaps = trace.snapshots
    # every step except the final partial one covers exactly speed*dt
    for prev, cur in zip(snaps[:-2], snaps[1:-1]):
        step = np.linalg.norm(cur.root.position - prev.root.position)
        assert step == pytest.approx(speed / 60.0, rel=1e-9)


@settings(deadline=None, max_examples=25)
@given(
    x=st.floats(-4.0, 4.0),
    z=st.floats(-4.0, 4.0),
    speed=st.floats(0.3, 2.5),
)
def test_walk_to_always_lands_on_target(x, z, speed):
    # hold() first: walking to the spot we already occupy emits nothing
    trace = TraceBuilder().hold(0.0).walk_to(x, z, speed=speed).build()
    last = trace.snapshots[-1].root.position
    assert math.hypot(last[0] - x, last[2] - z) < 1e-9


def test_walk_then_stop_drives_locomotion_state_machine():
    # a scripted stroll must produce one clean locomotion episode when fed
    # through the same window/threshold machinery the simulator runs
    b = TraceBuilder()
    b.hold(0.3).walk_to(2.5, 0.0, speed=1.0).hold(0.6)
    trace = b.build()

    cfg = StateConfig()
    window = TickWindow(trace.tick_rate, cfg.speed_window)
    state = UserState.Solo
    events: list[StateEvent | None] = []
    walking_states = []
    for snap in trace.snapshots:
        x, _, z = snap.root.position.tolist()
        window.push(snap.tick, x, z)
        speed = pelvis_speed(window) if len(window) >= 2 else 0.0
        state, ev = step_locomotion(state, speed, cfg)
        events.append(ev)
        walking_states.append(state)

    assert events.count(StateEvent.StartWIP) == 1
    assert events.count(StateEvent.RequestPlacement) == 1
    assert events.count(None) == len(events) - 2
    mid = len(trace.snapshots) // 2
    assert walking_states[mid] is UserState.Locomotion
    assert walking_states[-1] is UserState.Solo


def test_turn_to_reaches_requested_yaw():
    trace = TraceBuilder(yaw=0.0).turn_to(1.1).build()
    last = trace.snapshots[-1]
    fwd = quat_rotate(last.root.orientation, FORWARD)
    np.testing.assert_allclose(fwd, [math.sin(1.1), 0.0, math.cos(1.1)], atol=1e-9)
    # turning in place never moves the pelvis
    for snap in trace.snapshots:
        np.testing.assert_allclose(snap.root.position, [0.0, 0.92, 0.0], atol=1e-12)


def test_gaze_at_points_head_through_target():
    target = np.array([1.5, 1.2, 3.0])
    trace = TraceBuilder().gaze_at(target, seconds=0.5).build()
    last = trace.snapshots[-1]
    fwd = quat_rotate(last.head.orientation, FORWARD)
    assert point_to_ray_distance(target, last.head.position, fwd) < 1e-9
    # the dwell tail keeps the head still
    np.testing.assert_array_equal(
        trace.snapshots[-1].head.orientation, trace.snapshots[-10].head.orientation
    )


def test_point_at_ray_passes_through_target():
    target = np.array([0.8, 1.3, 2.4])
    trace = TraceBuilder().point_at(target, side="right", reach=0.4).build()
    last = trace.snapshots[-1]
    hand = last.right_hand
    assert hand.lifted
    assert not last.left_hand.lifted
    fwd = quat_rotate(hand.orientation, FORWARD)
    assert point_to_ray_distance(target, hand.position, fwd) < 1e-9
    # the hand sits at the requested reach from the shoulder
    sk = trace.skeleton
    shoulder = last.root.position + quat_rotate(last.root.orientation, sk.shoulder_local("right"))
    assert np.linalg.norm(hand.position - shoulder) == pytest.approx(0.4, abs=1e-9)


def test_point_at_clamps_reach_to_arm_length():
    sk = Skeleton()
    trace = TraceBuilder().point_at([0.5, 1.4, 3.0], reach=9.0).build()
    last = trace.snapshots[-1]
    shoulder = last.root.position + quat_rotate(last.root.orientation, sk.shoulder_local("right"))
    assert np.linalg.norm(last.right_hand.position - shoulder) == pytest.approx(
        sk.arm_reach, abs=1e-9
    )


def test_point_at_raise_shrinks_distance_and_angle_monotonically():
    # target acquisition keys on both signals falling, so the scripted raise
    # has to deliver that shape
    target = np.array([0.6, 1.4, 2.0])
    b = TraceBuilder()
    raise_ticks = b._ticks(0.4)
    b.point_at(target, raise_s=0.4, hold_s=0.0)
    trace = b.build()
    dists, angles = [], []
    for snap in trace.snapshots[:raise_ticks]:
        hand = snap.right_hand
        dists.append(float(np.linalg.norm(target - hand.position)))
        fwd = quat_rotate(hand.orientation, FORWARD)
        to_target = target - hand.position
        cosang = float(fwd @ to_target) / float(np.linalg.norm(to_target))
        angles.append(math.acos(max(-1.0, min(1.0, cosang))))
    assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
    assert angles[-1] < angles[0]
    assert angles[-1] < 1e-6


def test_lower_hands_restores_rest_pose():
    b = TraceBuilder()
    b.hold(0.02).point_at([1.0, 1.5, 2.0]).lower_hands().hold(0.02)
    trace = b.build()
    first, last = trace.snapshots[0], trace.snapshots[-1]
    assert not last.right_hand.lifted
    np.testing.assert_allclose(last.right_hand.position, first.right_hand.position, atol=1e-9)
    np.testing.assert_allclose(last.left_hand.position, first.left_hand.position, atol=1e-9)


def test_sit_and_stand_move_only_root_height():
    b = TraceBuilder()
    b.sit(root_height=0.55, seconds=0.5)
    seated = b.snapshots[-1]
    b.stand(seconds=0.5)
    trace = b.build()
    assert seated.root.position[1] == pytest.approx(0.55)
    assert trace.snapshots[-1].root.position[1] == pytest.approx(0.92)
    heights = [s.root.position[1] for s in trace.snapshots[: len(trace) // 2]]
    assert all(b <= a for a, b in zip(heights, heights[1:]))
    for snap in trace.snapshots:
        np.testing.assert_allclose(
            [snap.root.position[0], snap.root.position[2]], [0.0, 0.0], atol=1e-12
        )


def test_builder_lift_flags_match_predicate():
    cfg = StateConfig()
    trace = TraceBuilder().hold(0.05).point_at([0.5, 1.5, 2.0], side="left").build()
    for snap in trace.snapshots:
        for name in ("left_hand", "right_hand"):
            hand = getattr(snap, name)
            assert hand.lifted == hand_lifted(snap.root, hand, cfg)
