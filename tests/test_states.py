from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinroom.geometry import FORWARD, norm, quat_between, quat_from_yaw, quat_rotate
from twinroom.scene import ObjectCategory, Ray, Room, SceneObject, load_room
from twinroom.states import (
    Effector,
    EffectorSample,
    FixationTracker,
    InsufficientSamples,
    StateConfig,
    StateEvent,
    TickWindow,
    UserSnapshot,
    UserState,
    acquire_targets,
    check_angle_condition,
    check_distance_condition,
    classify_state,
    hand_lifted,
    pelvis_speed,
    step_locomotion,
    update_fixation,
)

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])
TICK_RATE = 60.0
DT = 1.0 / TICK_RATE


def sample(pos, orientation=None, lifted=False):
    return EffectorSample(
        position=np.asarray(pos, dtype=float),
        orientation=IDENTITY if orientation is None else orientation,
        lifted=lifted,
    )


def aim_at(origin, target):
    """Orientation whose forward axis points from origin toward target."""
    d = np.asarray(target, dtype=float) - np.asarray(origin, dtype=float)
    return quat_between(FORWARD, d / np.linalg.norm(d))


def snapshot(tick, root=(0, 0.9, 0), head=(0, 1.6, 0), left=None, right=None):
    root_s = sample(root)
    head_s = sample(head)
    rest = sample((0, 0.9, 0))
    return UserSnapshot(
        tick=tick,
        root=root_s,
        head=head_s,
        left_hand=left if left is not None else rest,
        right_hand=right if right is not None else rest,
        left_foot=sample((0.1, 0, 0)),
        right_foot=sample((-0.1, 0, 0)),
    )


def fixation_room():
    return load_room(
        {
            "id": "r",
            "extents": {"min": [-5, -5], "max": [5, 5]},
            "objects": [
                {
                    "id": "screen", "category": "Screen", "position": [0, 1.5, 3],
                    "yaw": 0.0, "size": [2.0, 1.2, 0.1], "pair_id": "screen_b",
                },
                {
                    "id": "desk", "category": "Table", "position": [-3, 0.4, 3],
                    "yaw": 0.0, "size": [1.2, 0.8, 0.6], "pair_id": "desk_b",
                },
                {
                    "id": "wall", "category": "Wall", "position": [3, 1.5, 4],
                    "yaw": 0.0, "size": [3.0, 3.0, 0.2],
                },
            ],
        }
    )


# --- pelvis speed ---------------------------------------------------------


def test_pelvis_speed_matches_constant_velocity():
    win = TickWindow(TICK_RATE, 0.166)
    v = 1.3
    for t in range(12):
        win.push(t, v * t * DT, 0.0)
    assert pelvis_speed(win) == pytest.approx(v, rel=1e-12)


def test_pelvis_speed_is_displacement_not_path_length():
    # a full circle inside the window returns to its start: near-zero speed
    win = TickWindow(TICK_RATE, 0.166)
    n = win.span_ticks
    for t in range(n + 1):
        a = 2 * math.pi * t / n
        win.push(t, 0.5 * math.cos(a), 0.5 * math.sin(a))
    assert pelvis_speed(win) < 1e-9


def test_pelvis_speed_needs_two_samples():
    win = TickWindow(TICK_RATE, 0.166)
    with pytest.raises(InsufficientSamples):
        pelvis_speed(win)
    win.push(0, 0.0, 0.0)
    with pytest.raises(InsufficientSamples):
        pelvis_speed(win)


def test_speed_window_trims_to_span():
    win = TickWindow(TICK_RATE, 0.166)
    for t in range(100):
        win.push(t, 0.01 * t, 0.0)
    assert win.last[0] - win.first[0] == win.span_ticks
    assert win.span_ticks == round(0.166 * TICK_RATE)


@settings(max_examples=50, deadline=None)
@given(
    speed=st.floats(0.0, 3.0),
    heading=st.floats(0, 2 * math.pi),
    start=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
)
def test_pelvis_speed_recovers_any_straight_walk(speed, heading, start):
    win = TickWindow(TICK_RATE, 0.166)
    dx = speed * math.cos(heading) * DT
    dz = speed * math.sin(heading) * DT
    for t in range(15):
        win.push(t, start[0] + dx * t, start[1] + dz * t)
    assert pelvis_speed(win) == pytest.approx(speed, abs=1e-9)


# --- lifted predicate -------------------------------------------------------


def test_hand_lifted_by_height():
    cfg = StateConfig()
    root = sample((0, 0.9, 0))
    down = quat_between(FORWARD, np.array([0.0, -1.0, 0.0]))
    assert hand_lifted(root, sample((0, 0.9 + cfg.lift_height, 0), down), cfg)
    assert not hand_lifted(root, sample((0, 1.0, 0), down), cfg)


def test_hand_lifted_by_pitch():
    cfg = StateConfig()
    root = sample((0, 0.9, 0))
    level = sample((0, 1.0, 0))  # forward pitch 0 >= -30 degrees
    assert hand_lifted(root, level, cfg)
    hanging = quat_between(
        FORWARD, np.array([0.0, math.sin(-0.6), math.cos(-0.6)])
    )
    assert not hand_lifted(root, sample((0, 1.0, 0), hanging), cfg)


# --- locomotion hysteresis ----------------------------------------------


def test_step_locomotion_transitions_and_events():
    cfg = StateConfig()
    state, ev = step_locomotion(UserState.Solo, 0.41, cfg)
    assert state is UserState.Locomotion and ev is StateEvent.StartWIP
    state, ev = step_locomotion(UserState.Locomotion, 0.14, cfg)
    assert state is UserState.Solo and ev is StateEvent.RequestPlacement


def test_step_locomotion_band_is_inert():
    cfg = StateConfig()
    for speed in (cfg.stop_threshold, 0.2, 0.3, cfg.locomotion_threshold):
        for st0 in (UserState.Solo, UserState.Locomotion):
            state, ev = step_locomotion(st0, speed, cfg)
            assert state is st0 and ev is None


def test_interaction_state_obeys_same_thresholds():
    cfg = StateConfig()
    state, ev = step_locomotion(UserState.Interaction, 0.5, cfg)
    assert state is UserState.Locomotion and ev is StateEvent.StartWIP
    state, ev = step_locomotion(UserState.Interaction, 0.1, cfg)
    assert state is UserState.Interaction and ev is None


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0, 1.2), min_size=1, max_size=300))
def test_locomotion_events_pair_up(speeds):
    cfg = StateConfig()
    state = UserState.Solo
    events = []
    for s in speeds:
        state, ev = step_locomotion(state, s, cfg)
        if ev is not None:
            events.append(ev)
    starts = events.count(StateEvent.StartWIP)
    stops = events.count(StateEvent.RequestPlacement)
    assert starts + stops == len(events)
    assert starts - stops == (1 if state is UserState.Locomotion else 0)
    # every stop follows a start: scan for ordering violations
    depth = 0
    for e in events:
        if e is StateEvent.StartWIP:
            assert depth == 0
            depth = 1
        else:
            assert depth == 1
            depth = 0


# --- convergence window -----------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.floats(-10, 10), min_size=19, max_size=40),
    start=st.integers(0, 1000),
)
def test_window_slope_matches_polyfit(values, start):
    win = TickWindow(TICK_RATE, 0.3)
    for i, v in enumerate(values):
        win.push(start + i, v, -v)
    kept = values[-(win.span_ticks + 1):]
    ts = np.arange(len(kept)) / TICK_RATE
    want = np.polyfit(ts, kept, 1)[0]
    if abs(want) > 1e6:
        return  # ill-conditioned fit, both sides lose precision
    assert win.slope(1) == pytest.approx(want, rel=1e-6, abs=1e-6)
    assert win.slope(2) == pytest.approx(-want, rel=1e-6, abs=1e-6)


def test_window_requires_full_period():
    win = TickWindow(TICK_RATE, 0.3)
    for t in range(win.span_ticks):  # one short of spanning
        win.push(t, 1.0, 1.0)
    assert not win.spans_period()
    with pytest.raises(InsufficientSamples):
        win.slope(1)
    win.push(win.span_ticks, 1.0, 1.0)
    assert win.spans_period()


def test_window_gap_discards_history():
    win = TickWindow(TICK_RATE, 0.3)
    for t in range(25):
        win.push(t, 1.0, 1.0)
    win.push(40, 1.0, 1.0)  # non-contiguous tick
    assert len(win) == 1


def test_conditions_against_known_rates():
    cfg = StateConfig()
    fast = TickWindow(TICK_RATE, cfg.condition_period)
    slow = TickWindow(TICK_RATE, cfg.condition_period)
    for t in range(fast.span_ticks + 1):
        fast.push(t, 2.0 - 0.5 * t * DT, 1.0 - math.radians(30) * t * DT)
        slow.push(t, 2.0 - 0.1 * t * DT, 1.0 - math.radians(10) * t * DT)
    assert check_distance_condition(fast, cfg)
    assert check_angle_condition(fast, cfg)
    assert not check_distance_condition(slow, cfg)
    assert not check_angle_condition(slow, cfg)


# --- fixation ---------------------------------------------------------------


def gaze_ray(origin=(0, 1.5, 0)):
    return Ray(origin=np.asarray(origin, dtype=float), direction=FORWARD)


def test_fixation_registers_after_dwell_threshold():
    room = fixation_room()
    cfg = StateConfig()
    tracker = FixationTracker(TICK_RATE, cfg)
    head = tracker.channels[Effector.Head].fixation
    need = math.ceil(cfg.fixation_threshold / DT)
    first = None
    for i in range(need + 1):
        update_fixation(tracker, Effector.Head, gaze_ray(), room, DT, cfg)
        if first is None and head.target is not None:
            first = i + 1
    # float dwell accumulation may cross the threshold one tick late
    assert first in (need, need + 1)
    assert head.target is not None
    oid, _, world = head.target
    assert oid == "screen"
    np.testing.assert_allclose(world, [0, 1.5, 2.95], atol=1e-9)


def test_fixation_ignores_unpaired_objects():
    room = fixation_room()
    cfg = StateConfig()
    tracker = FixationTracker(TICK_RATE, cfg)
    head = tracker.channels[Effector.Head].fixation
    for _ in range(60):
        update_fixation(tracker, Effector.Head, gaze_ray((3, 1.5, 0)), room, DT, cfg)
    assert head.candidate is None and head.target is None


def test_fixation_candidate_switch_restarts_dwell():
    room = fixation_room()
    cfg = StateConfig()
    tracker = FixationTracker(TICK_RATE, cfg)
    head = tracker.channels[Effector.Head].fixation
    desk_ray = Ray(
        origin=np.array([-3.0, 0.4, 0.0]), direction=FORWARD
    )
    for _ in range(20):
        update_fixation(tracker, Effector.Head, gaze_ray(), room, DT, cfg)
    assert head.candidate == "screen"
    update_fixation(tracker, Effector.Head, desk_ray, room, DT, cfg)
    assert head.candidate == "desk"
    assert head.accumulated == pytest.approx(DT)
    assert head.target is None


def test_fixation_miss_clears_everything():
    room = fixation_room()
    cfg = StateConfig()
    tracker = FixationTracker(TICK_RATE, cfg)
    head = tracker.channels[Effector.Head].fixation
    for _ in range(40):
        update_fixation(tracker, Effector.Head, gaze_ray(), room, DT, cfg)
    assert head.target is not None
    up = Ray(origin=np.array([0.0, 1.5, 0.0]), direction=np.array([0.0, 1.0, 0.0]))
    update_fixation(tracker, Effector.Head, up, room, DT, cfg)
    assert head.candidate is None and head.target is None


def test_fixation_target_tracks_a_sliding_gaze():
    room = fixation_room()
    cfg = StateConfig()
    tracker = FixationTracker(TICK_RATE, cfg)
    head = tracker.channels[Effector.Head].fixation
    for i in range(40):
        x = -0.5 + i * 0.02  # pan across the screen face
        ray = Ray(origin=np.array([x, 1.5, 0.0]), direction=FORWARD)
        update_fixation(tracker, Effector.Head, ray, room, DT, cfg)
    assert head.target is not None
    assert head.target[2][0] == pytest.approx(-0.5 + 39 * 0.02)


def test_hand_fixation_needs_lift():
    room = fixation_room()
    cfg = StateConfig()
    tracker = FixationTracker(TICK_RATE, cfg)
    for _ in range(40):
        update_fixation(
            tracker, Effector.LeftHand, gaze_ray(), room, DT, cfg, lifted=True
        )
    assert tracker.channels[Effector.LeftHand].fixation.target is not None
    update_fixation(
        tracker, Effector.LeftHand, gaze_ray(), room, DT, cfg, lifted=False
    )
    assert tracker.channels[Effector.LeftHand].fixation.target is None


def test_update_fixation_needs_a_ray_only_from_the_head_and_a_lifted_hand():
    room = fixation_room()
    cfg = StateConfig()
    tracker = FixationTracker(TICK_RATE, cfg)
    for _ in range(40):
        update_fixation(tracker, Effector.LeftHand, gaze_ray(), room, DT, cfg, lifted=True)
    fixation = tracker.channels[Effector.LeftHand].fixation
    assert fixation.target is not None
    update_fixation(tracker, Effector.LeftHand, None, room, DT, cfg, lifted=False)
    assert (fixation.candidate, fixation.accumulated, fixation.target) == (None, 0.0, None)
    for effector, lifted in ((Effector.Head, True), (Effector.Head, False), (Effector.LeftHand, True),
                             (Effector.RightHand, True)):
        with pytest.raises(ValueError, match="needs a ray"):
            update_fixation(tracker, effector, None, room, DT, cfg, lifted=lifted)


def test_update_fixation_rejects_bad_dt():
    tracker = FixationTracker(TICK_RATE, StateConfig())
    with pytest.raises(ValueError):
        update_fixation(
            tracker, Effector.Head, gaze_ray(), fixation_room(), 0.0, StateConfig()
        )


# --- target acquisition ---------------------------------------------------


def converge_hand_onto_gaze(stop_after=None):
    """Drive a hand toward a registered gaze target; returns per-tick outputs."""
    room = fixation_room()
    cfg = StateConfig()
    tracker = FixationTracker(TICK_RATE, cfg)
    target = np.array([0.0, 1.5, 2.95])
    results = []
    for t in range(120):
        update_fixation(tracker, Effector.Head, gaze_ray(), room, DT, cfg)
        if stop_after is not None and t >= stop_after:
            pos = stop_pos = np.array([0.0, 1.2, 1.0])
            hand = sample(stop_pos, aim_at(stop_pos, target), lifted=True)
        else:
            # close at 0.6 m/s while the aim error shrinks at 40 deg/s
            pos = np.array([0.0, 1.2, 0.2 + 0.6 * t * DT])
            err = max(0.0, 0.6 - math.radians(40) * t * DT)
            aim = quat_between(
                FORWARD,
                np.array([math.sin(err), 0.0, math.cos(err)]),
            )
            to_t = target - pos
            base = quat_between(FORWARD, to_t / np.linalg.norm(to_t))
            hand = sample(pos, base if err == 0 else aim, lifted=True)
        snap = snapshot(t, right=hand)
        results.append(acquire_targets(tracker, snap, cfg))
    return tracker, results


def test_hand_inherits_gaze_target_after_convergence():
    tracker, results = converge_hand_onto_gaze()
    head_first = next(
        i for i, r in enumerate(results) if r[Effector.Head] is not None
    )
    assert results[head_first][Effector.Head][0] == "screen"
    hand_first = next(
        i for i, r in enumerate(results) if r[Effector.RightHand] is not None
    )
    assert results[hand_first][Effector.RightHand][0] == "screen"
    # convergence needs the full condition period after the gaze registers
    span = tracker.channels[Effector.RightHand].window.span_ticks
    assert hand_first >= head_first + span
    # and it latches for every later tick of the run
    assert all(
        r[Effector.RightHand] is not None for r in results[hand_first:]
    )


def test_converged_assignment_survives_hand_stopping():
    # hand freezes mid-reach after 80 ticks: rates go flat but the latch holds
    _, results = converge_hand_onto_gaze(stop_after=80)
    assert results[-1][Effector.RightHand] is not None
    assert results[-1][Effector.RightHand][0] == "screen"


def test_lowering_the_hand_drops_the_assignment():
    cfg = StateConfig()
    tracker, results = converge_hand_onto_gaze()
    assert results[-1][Effector.RightHand] is not None
    snap = snapshot(len(results), right=sample((0, 0.8, 0.5)))  # lifted=False
    out = acquire_targets(tracker, snap, cfg)
    assert out[Effector.RightHand] is None
    assert tracker.channels[Effector.RightHand].converged_to is None


def test_losing_the_gaze_target_drops_the_assignment():
    room = fixation_room()
    cfg = StateConfig()
    tracker, results = converge_hand_onto_gaze()
    up = Ray(origin=np.array([0.0, 1.5, 0.0]), direction=np.array([0.0, 1.0, 0.0]))
    update_fixation(tracker, Effector.Head, up, room, DT, cfg)
    t = len(results)
    hand = sample((0, 1.2, 1.0), IDENTITY, lifted=True)
    out = acquire_targets(tracker, snapshot(t, right=hand), cfg)
    assert out[Effector.Head] is None
    assert out[Effector.RightHand] is None


def test_slow_drift_never_converges():
    room = fixation_room()
    cfg = StateConfig()
    tracker = FixationTracker(TICK_RATE, cfg)
    target = np.array([0.0, 1.5, 2.95])
    for t in range(200):
        update_fixation(tracker, Effector.Head, gaze_ray(), room, DT, cfg)
        # closes at only 0.05 m/s with a fixed 0.3 rad aim error
        pos = np.array([0.0, 1.2, 0.2 + 0.05 * t * DT])
        aim = quat_between(
            FORWARD, np.array([math.sin(0.3), 0.0, math.cos(0.3)])
        )
        out = acquire_targets(
            tracker, snapshot(t, right=sample(pos, aim, lifted=True)), cfg
        )
        assert out[Effector.RightHand] is None


def test_hands_own_fixation_wins_without_convergence():
    room = fixation_room()
    cfg = StateConfig()
    tracker = FixationTracker(TICK_RATE, cfg)
    desk_ray = Ray(origin=np.array([-3.0, 0.4, 0.0]), direction=FORWARD)
    for t in range(40):
        update_fixation(tracker, Effector.Head, gaze_ray(), room, DT, cfg)
        update_fixation(
            tracker, Effector.LeftHand, desk_ray, room, DT, cfg, lifted=True
        )
    hand = sample((-3, 1.2, 0), aim_at((-3, 1.2, 0), (-3, 0.4, 2.7)), lifted=True)
    out = acquire_targets(tracker, snapshot(40, left=hand), cfg)
    assert out[Effector.Head][0] == "screen"
    assert out[Effector.LeftHand][0] == "desk"  # own fixation, not the gaze


# --- overall classification -----------------------------------------------


def test_classify_state_priorities():
    nothing = [None] * len(Effector)
    assert classify_state(UserState.Solo, nothing) is UserState.Solo
    assert classify_state(UserState.Locomotion, nothing) is UserState.Locomotion
    with_target = list(nothing)
    with_target[Effector.Head] = ("screen", None)
    assert classify_state(UserState.Solo, with_target) is UserState.Interaction
    assert classify_state(UserState.Locomotion, with_target) is UserState.Locomotion


def test_state_config_validation():
    with pytest.raises(ValueError):
        StateConfig(locomotion_threshold=0.1, stop_threshold=0.2)
    with pytest.raises(ValueError):
        StateConfig(fixation_threshold=0.0)
    with pytest.raises(ValueError):
        StateConfig(v_threshold=0.1)
    with pytest.raises(ValueError):
        StateConfig(omega_threshold=0.5)


def checked_ray(s: EffectorSample) -> Ray:
    """`EffectorSample.ray` through `Ray`'s converting and checking constructor."""
    fx, fy, fz = f = quat_rotate(s.orientation.tolist(), FORWARD)
    n = norm(f)
    return Ray(origin=tuple(s.position.tolist()), direction=(fx / n, fy / n, fz / n))


def ray_outcome(make):
    try:
        ray = make()
    except Exception as e:  # the same exception, type and message, from both
        return type(e), str(e)
    assert type(ray) is Ray and all(type(c) is float for c in ray.origin + ray.direction)
    return struct.pack("<6d", *ray.origin, *ray.direction)


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=400, deadline=None)
@given(
    position=st.tuples(finite, finite, finite),
    q=st.tuples(finite, finite, finite, finite).filter(any),
)
@example(position=(0.0, 1.6, 0.0), q=(1e100, 0.0, 2e100, 0.0))  # forward's square overflows
@example(position=(-0.0, 1.6, 0.0), q=(1e160, 1e160, 0.0, 0.0))  # forward is not finite
@example(position=(0.0, 1.6, 0.0), q=(3e-161, 0.5, 0.5, 3e-161))  # forward's square is subnormal
@example(position=(0.0, 1.6, 0.0), q=(1e-200, 0.5, 0.5, 1e-200))  # forward's square underflows to 0
@example(position=(0.0, 1.6, 0.0), q=(0.0, 0.7071067811865476, 0.0, 0.0))  # forward's norm is 2e-16
@example(position=(5.0, 1.6, -1e300), q=(0.3, -0.2, 0.9, 0.1))
def test_effector_ray_is_the_checked_ray(position, q):
    s = EffectorSample(position=np.array(position), orientation=np.array(q))
    assert ray_outcome(s.ray) == ray_outcome(lambda: checked_ray(s))
