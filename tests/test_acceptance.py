"""Release gate: nine numbered criteria, each with a pinned tolerance.

Every test prints exactly one PASS/FAIL line with its measured values
(visible with `pytest tests/test_acceptance.py -v -s`) and then asserts.
"""
from __future__ import annotations

import math
import statistics

import numpy as np
import pytest

from test_placement import exhaustive_best, per_category, random_room, random_target
from test_retarget import bone_lengths

from twinroom.geometry import QUAT_IDENTITY, Transform, float_tuple, quat_from_yaw
from twinroom.placement import (
    ACCOMMODATION_CELLS,
    DefaultScorer,
    FeatureVector,
    GridConfig,
    NoFeasiblePlacement,
    Placement,
    PlacementPose,
    extract_features,
    find_placement,
    grid_axes,
    grid_search,
    pso_refine,
)
from twinroom.protocol import (
    Bye,
    FeaturePacket,
    Hello,
    PlacementAnnounce,
    PoseUpdate,
    StateChange,
    TargetUpdate,
    decode_all,
    encode_frame,
    f32,
)
from twinroom.retarget import (
    LEFT_FOOT,
    RIGHT_FOOT,
    IkGoals,
    InterpState,
    Joint,
    RetargetConfig,
    Skeleton,
    avatar_tick,
    solve_full_body,
)
from twinroom.scene import ObjectCategory, denormalize_hit, load_room
from twinroom.sim import SimConfig, pose_update_from_snapshot, replay, run
from twinroom.sim import AvatarHost
from twinroom.states import (
    Effector,
    StateConfig,
    StateEvent,
    TickWindow,
    UserState,
    check_angle_condition,
    check_distance_condition,
    step_locomotion,
)
from twinroom.traces import TraceBuilder


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"\n{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# --- 1: placement search latency ---------------------------------------------


def budget_room() -> dict:
    # 5 m x 4 m, six objects
    return {
        "id": "budget",
        "extents": {"min": [-2.5, -2.0], "max": [2.5, 2.0]},
        "objects": [
            {"id": "screen", "category": "Screen", "position": [0.0, 1.4, 1.9],
             "yaw": math.pi, "size": [1.8, 1.0, 0.1]},
            {"id": "desk", "category": "Table", "position": [1.5, 0.37, 1.3],
             "yaw": 0.0, "size": [1.4, 0.74, 0.7]},
            {"id": "chair", "category": "Chair", "position": [-1.5, 0.3, 1.0],
             "yaw": 0.4, "size": [0.7, 0.6, 0.7], "sittable": True, "sit_height": 0.45},
            {"id": "sofa", "category": "Sofa", "position": [-1.4, 0.35, -1.3],
             "yaw": 0.0, "size": [1.8, 0.7, 0.8], "sittable": True, "sit_height": 0.4},
            {"id": "shelf", "category": "Other", "position": [2.2, 0.9, -0.5],
             "yaw": 0.0, "size": [0.4, 1.8, 1.0]},
            {"id": "rug", "category": "Floor", "position": [0.3, 0.015, -0.4],
             "yaw": 0.0, "size": [2.0, 0.03, 1.4]},
        ],
    }


def feature_source() -> FeatureVector:
    room = load_room({
        "id": "source",
        "extents": {"min": [-2.0, -1.5], "max": [2.0, 1.5]},
        "objects": [
            {"id": "tv", "category": "Screen", "position": [0.0, 1.2, 1.4],
             "yaw": math.pi, "size": [1.2, 0.7, 0.08]},
            {"id": "table", "category": "Table", "position": [0.9, 0.35, 0.4],
             "yaw": 0.2, "size": [1.0, 0.7, 0.6]},
        ],
    })
    return extract_features(room, Placement(-0.4, 0.1, 0.5, PlacementPose.Standing), None)


def test_01_placement_latency_budget():
    room = load_room(budget_room())
    features = feature_source()
    scorer = DefaultScorer()
    grid_ms, pso_ms = [], []
    for rep in range(10):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([11, rep])))
        res = find_placement(room, features, scorer, None, rng=rng)
        grid_ms.append(res.grid_time_s * 1e3)
        pso_ms.append(res.pso_time_s * 1e3)
    total = statistics.median(g + p for g, p in zip(grid_ms, pso_ms))
    detail = (
        f"median total {total:.1f} ms over 10 runs, budget 400 ms; "
        f"grid median {statistics.median(grid_ms):.1f} ms, "
        f"refine median {statistics.median(pso_ms):.1f} ms"
    )
    verdict("criterion 1 placement latency", total <= 400.0, detail)


# --- 2: candidate grid enumeration --------------------------------------------


def test_02_grid_enumeration():
    room = load_room({
        "id": "bare",
        "extents": {"min": [-2.0, -1.5], "max": [2.0, 1.5]},
        "objects": [],
    })
    xs, zs, yaws = grid_axes(room.extents)
    features = extract_features(room, Placement(0.0, 0.0, 0.0, PlacementPose.Standing), None)
    result = grid_search(room, features)
    counts = (len(xs), len(zs), len(yaws))
    ok = counts == (16, 12, 24) and result.candidates_per_pose == 16 * 12 * 24
    verdict(
        "criterion 2 grid enumeration",
        ok,
        f"4 m x 3 m grid enumerates {counts[0]}*{counts[1]}*{counts[2]} "
        f"= {result.candidates_per_pose} (x, z, yaw) tuples per pose",
    )


# --- 3: search optimality oracle ----------------------------------------------


def test_03_optimizer_matches_exhaustive_oracle():
    rng = np.random.default_rng(2024)
    scorer = DefaultScorer()
    config = GridConfig()
    rooms_checked = 0
    pso_wins = 0
    while rooms_checked < 20:
        room = random_room(rng)
        target = random_target(rng, room, None)
        ref_placement, ref_score, _ = exhaustive_best(room, target, scorer.config, None, config)
        if ref_placement is None:
            with pytest.raises(NoFeasiblePlacement):
                grid_search(room, target, scorer, None, config=config)
            continue  # does not count toward the 20 scored rooms
        got = grid_search(room, target, scorer, None, config=config)
        assert got.placement == ref_placement, "placement diverged"
        assert got.score == ref_score, "score diverged"
        refined = pso_refine(
            room, target, ref_placement, scorer, None,
            rng=np.random.default_rng(rooms_checked),
        )
        assert refined.score >= ref_score
        pso_wins += 1
        rooms_checked += 1
    verdict(
        "criterion 3 optimizer oracle",
        rooms_checked == 20 and pso_wins == 20,
        f"grid == exhaustive on {rooms_checked}/20 random rooms; "
        f"swarm >= grid in {pso_wins}/{rooms_checked}",
    )


# --- 4: deictic retargeting across screen sizes --------------------------------


def test_04_pointing_lands_on_remote_screen():
    local_room = load_room({
        "id": "studio",
        "extents": {"min": [-2.5, -2.0], "max": [2.5, 2.0]},
        "objects": [
            {"id": "screen_local", "category": "Screen", "position": [0.0, 1.3, 1.9],
             "yaw": math.pi, "size": [2.0, 1.2, 0.1], "pair_id": "screen_remote"},
        ],
    })
    remote_room = load_room({
        "id": "hall",
        "extents": {"min": [-3.0, -2.5], "max": [3.0, 2.5]},
        "objects": [
            {"id": "screen_remote", "category": "Screen", "position": [0.0, 1.5, 2.4],
             "yaw": math.pi, "size": [4.0, 2.0, 0.12], "pair_id": "screen_local"},
        ],
    })
    config = SimConfig(retarget=RetargetConfig(elevation_offset=0.0))  # no aim lift
    host = AvatarHost(remote_room, config, owner_code=0)

    uvw = (0.25, 0.5, 0.0)
    local_obj = local_room.by_id["screen_local"]
    aim_point = denormalize_hit(local_obj, uvw)
    trace = (
        TraceBuilder(start=(0.0, -1.0), yaw=0.0)
        .hold(0.1)
        .point_at(aim_point, side="right", raise_s=0.3, hold_s=2.0)
        .build()
    )
    features = extract_features(
        local_room, Placement(0.0, -1.0, 0.0, PlacementPose.Standing), None
    )

    host.handle(Hello(app_version=1, room_hash=0, skeleton=trace.skeleton.to_floats()), 0, None)
    host.handle(pose_update_from_snapshot(trace.snapshots[0], 1), 1, None)
    host.handle(FeaturePacket(tick=1, features=features), 1, None)
    host.handle(StateChange(tick=1, state=UserState.Interaction), 1, None)
    host.handle(
        TargetUpdate(
            tick=1, effector=Effector.RightHand, active=True,
            object_id="screen_local", uvw=uvw,
        ),
        1, None,
    )
    dt = 1.0 / 60.0
    for t in range(1, len(trace) + 1):
        host.handle(pose_update_from_snapshot(trace.snapshots[t - 1], t), t, None)
        host.tick_avatar(t, None, dt)
    host.flush_pointing()

    rows = [r for r in host.pointing_rows if r["object"] == "screen_local"]
    ok = bool(rows) and rows[0]["samples"] > 0 and rows[0]["max_miss"] <= 1e-3
    miss = rows[0]["max_miss"] if rows else float("nan")
    verdict(
        "criterion 4 deictic retargeting",
        ok,
        f"2 m -> 4 m screen at (0.25, 0.5): shoulder-to-wrist ray misses the "
        f"rescaled surface point by {miss:.2e} m at completion (tolerance 1e-3), "
        f"compensation disabled",
    )


# --- 5: convergence gating -----------------------------------------------------


def test_05_convergence_trigger_and_false_positives():
    cfg = StateConfig()
    rate = 60.0

    # a hand closing at -0.5 m/s while its aim error shrinks at -30 deg/s
    win = TickWindow(rate, cfg.condition_period)
    trigger = None
    for t in range(1, 121):
        elapsed = (t - 1) / rate
        win.push(t, 3.0 - 0.5 * elapsed, 1.2 - math.radians(30.0) * elapsed)
        if win.spans_period() and check_distance_condition(win, cfg) and check_angle_condition(win, cfg):
            trigger = t
            break
    budget_ticks = win.span_ticks + 1
    ramp_ok = trigger is not None and (trigger - 1) <= budget_ticks

    # constant or gently oscillating trajectories must never fire
    rng = np.random.default_rng(55)
    ticks = 0
    false_positives = 0
    while ticks < 10_000:
        length = int(rng.integers(40, 200))
        base_d = rng.uniform(0.5, 3.0)
        base_a = rng.uniform(0.1, 1.2)
        amp_d = rng.uniform(0.0, 0.01)
        amp_a = rng.uniform(0.0, math.radians(1.0))
        omega = rng.uniform(1.0, 12.0)
        phase = rng.uniform(0.0, math.tau)
        fuzz = TickWindow(rate, cfg.condition_period)
        for t in range(1, length + 1):
            s = omega * t / rate + phase
            fuzz.push(t, base_d + amp_d * math.sin(s), base_a + amp_a * math.cos(s))
            ticks += 1
            if fuzz.spans_period() and check_distance_condition(fuzz, cfg) and check_angle_condition(fuzz, cfg):
                false_positives += 1
    ok = ramp_ok and false_positives == 0
    verdict(
        "criterion 5 convergence gating",
        ok,
        f"ramp triggered after {((trigger or 0) - 1)} ticks "
        f"(budget {budget_ticks}); {false_positives} false positives over {ticks} fuzz ticks",
    )


# --- 6: locomotion state machine -----------------------------------------------


def random_speed_trace(rng, cfg: StateConfig) -> list[float]:
    speeds: list[float] = []
    for _ in range(int(rng.integers(3, 8))):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            v = float(rng.uniform(0.0, cfg.stop_threshold * 0.95))
        elif kind == 1:
            v = float(rng.uniform(cfg.stop_threshold, cfg.locomotion_threshold))
        else:
            v = float(rng.uniform(cfg.locomotion_threshold * 1.01, 2.5))
        speeds.extend([v] * int(rng.integers(5, 40)))
    speeds.extend([0.0] * 5)  # close any open walking episode
    return speeds


def test_06_locomotion_invariants():
    rng = np.random.default_rng(66)
    cfg = StateConfig()
    sk = Skeleton()
    root_checks = 0
    episodes_total = 0
    for _ in range(1000):
        speeds = random_speed_trace(rng, cfg)
        state = UserState.Solo
        starts = requests = 0
        expecting_start = True
        intervals: list[tuple[int, int]] = []
        opened = None
        for i, v in enumerate(speeds):
            prev = state
            state, ev = step_locomotion(state, v, cfg)
            # a transition emits its event; no other tick emits one
            assert (ev is not None) == (state is not prev)
            if state is not prev:
                # hysteresis: transitions never happen strictly inside the band
                assert not (cfg.stop_threshold < v < cfg.locomotion_threshold), v
            if ev is StateEvent.StartWIP:
                assert expecting_start
                expecting_start = False
                starts += 1
                opened = i
            elif ev is StateEvent.RequestPlacement:
                assert not expecting_start
                expecting_start = True
                requests += 1
                intervals.append((opened, i))
                opened = None
        assert state is UserState.Solo
        assert starts == requests, "every walking episode ends in exactly one placement request"
        episodes_total += starts

        # while walking, the avatar root must hold the frozen placement
        for lo, hi in intervals[:2]:
            locked = Placement(
                x=float(rng.uniform(-2, 2)), z=float(rng.uniform(-2, 2)),
                yaw=float(rng.uniform(0, math.tau)), pose=PlacementPose.Standing,
            )
            locked_y = 0.91
            pinned = Transform((locked.x, locked_y, locked.z), quat_from_yaw(locked.yaw))
            for _ in range(2):
                goals = wandering_goals(rng, sk)
                result = avatar_tick(
                    sk, UserState.Locomotion, goals, pinned, (None, None, None), InterpState(),
                    1.0 / 60.0, RetargetConfig(),
                )
                np.testing.assert_allclose(
                    result.pose.root.position, [locked.x, locked_y, locked.z], atol=1e-12
                )
                np.testing.assert_allclose(
                    result.pose.root.orientation, quat_from_yaw(locked.yaw), atol=1e-12
                )
                root_checks += 1
    verdict(
        "criterion 6 locomotion invariants",
        True,
        f"1000 speed traces, {episodes_total} episodes, one placement request each, "
        f"zero in-band transitions, root pinned in {root_checks} walking frames",
    )


def goal_tables(root: Transform, positions) -> IkGoals:
    """Goals at the given root-relative positions, every orientation the
    identity."""
    return IkGoals(root, tuple(map(float_tuple, positions)), (QUAT_IDENTITY,) * 5)


def wandering_goals(rng, sk: Skeleton) -> IkGoals:
    def t(scale):
        return rng.uniform(-scale, scale, 3)

    root = Transform(
        np.array([rng.uniform(-3, 3), rng.uniform(0.7, 1.0), rng.uniform(-3, 3)]),
        quat_from_yaw(rng.uniform(0, math.tau)),
    )
    return goal_tables(root, (
        (0.0, sk.spine + sk.neck, 0.0),
        t(0.5),
        t(0.5),
        (-0.1, -rng.uniform(0.5, 0.9), 0.0),
        (0.1, -rng.uniform(0.5, 0.9), 0.0),
    ))


# --- 7: inverse kinematics -----------------------------------------------------


def reachable_goals(rng, sk: Skeleton) -> IkGoals:
    def arm(side: str):
        inner = abs(sk.upper_arm - sk.forearm)
        r = rng.uniform(inner + 1e-3, sk.arm_reach - 1e-3)
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        return sk.shoulder_local(side) + r * d

    def leg(side: str):
        inner = abs(sk.thigh - sk.shin)
        r = rng.uniform(inner + 1e-3, sk.thigh + sk.shin - 1e-3)
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        return sk.hip_local(side) + r * d

    root = Transform(
        np.array([rng.uniform(-2, 2), 0.9, rng.uniform(-2, 2)]),
        quat_from_yaw(rng.uniform(0, math.tau)),
    )
    return goal_tables(root, ((0.0, sk.spine + sk.neck, 0.0), arm("left"), arm("right"), leg("left"), leg("right")))


def test_07_ik_properties():
    rng = np.random.default_rng(77)
    sk = Skeleton()
    nominal = {
        "l_upper": sk.upper_arm, "l_fore": sk.forearm,
        "r_upper": sk.upper_arm, "r_fore": sk.forearm,
        "l_thigh": sk.thigh, "l_shin": sk.shin,
        "r_thigh": sk.thigh, "r_shin": sk.shin,
        "neck": sk.neck,
    }
    worst_error = 0.0
    worst_drift = 0.0
    for _ in range(1000):
        goals = reachable_goals(rng, sk)
        pose = solve_full_body(sk, goals)
        for joint, goal in (
            (Joint.LeftWrist, Effector.LeftHand), (Joint.RightWrist, Effector.RightHand),
            (Joint.LeftAnkle, LEFT_FOOT), (Joint.RightAnkle, RIGHT_FOOT),
        ):
            target = goals.root.apply(goals.positions[goal])
            worst_error = max(worst_error, float(np.linalg.norm(np.subtract(pose.joints[joint], target))))
        measured = bone_lengths(sk, pose)
        for name, want in nominal.items():
            worst_drift = max(worst_drift, abs(measured[name] - want))

    worst_sphere = 0.0
    for _ in range(1000):
        root = Transform(
            np.array([rng.uniform(-2, 2), 0.9, rng.uniform(-2, 2)]),
            quat_from_yaw(rng.uniform(0, math.tau)),
        )
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        far = sk.shoulder_local("right") + rng.uniform(sk.arm_reach * 1.01, 5.0) * d
        goals = reachable_goals(rng, sk)
        positions = goals.positions
        goals = IkGoals(root, (*positions[:2], float_tuple(far), *positions[3:]), goals.orientations)
        pose = solve_full_body(sk, goals)
        stretched = np.linalg.norm(np.subtract(pose.joints[Joint.RightWrist], pose.joints[Joint.RightShoulder]))
        worst_sphere = max(worst_sphere, abs(float(stretched) - sk.arm_reach))

    ok = worst_error <= 1e-4 and worst_drift <= 1e-12 and worst_sphere <= 1e-9
    verdict(
        "criterion 7 ik properties",
        ok,
        f"1000 reachable goals: max effector error {worst_error:.2e} m (<= 1e-4), "
        f"max bone drift {worst_drift:.2e} m (<= 1e-12); 1000 unreachable goals: "
        f"wrist off the reach sphere by at most {worst_sphere:.2e} m (<= 1e-9)",
    )


# --- 8: protocol ---------------------------------------------------------------


def random_message(rng):
    def rf(lo=-100.0, hi=100.0):
        return f32(float(rng.uniform(lo, hi)))

    def transform():
        return (rf(), rf(), rf(), rf(-1, 1), rf(-1, 1), rf(-1, 1), rf(-1, 1))

    def accommodation():
        return [rf(0.0, 2.0) for _ in range(ACCOMMODATION_CELLS)]

    def categories():
        picks = [c for c in ObjectCategory if rng.random() < 0.4]
        return per_category({c: rf(0.0, 5.0) for c in picks})

    kind = rng.random()
    tick = int(rng.integers(0, 2**31))
    if kind < 0.40:
        return PoseUpdate(
            tick=tick, values=sum((transform() for _ in range(6)), ()),
            fingers=bytes(rng.integers(0, 256, size=int(rng.integers(0, 9)), dtype=np.uint8)),
        )
    if kind < 0.55:
        return TargetUpdate(
            tick=tick,
            effector=list(Effector)[int(rng.integers(0, 3))],
            active=bool(rng.random() < 0.7),
            object_id="obj-" + str(int(rng.integers(0, 10_000))),
            uvw=(rf(0, 1), rf(0, 1), rf(0, 1)),
        )
    if kind < 0.67:
        return StateChange(tick=tick, state=list(UserState)[int(rng.integers(0, 3))])
    if kind < 0.79:
        return PlacementAnnounce(
            tick=tick, x=rf(), z=rf(), yaw=rf(0, math.tau),
            pose=list(PlacementPose)[int(rng.integers(0, 2))],
        )
    if kind < 0.89:
        return Hello(
            app_version=int(rng.integers(0, 2**16)),
            room_hash=int(rng.integers(0, 2**63)),
            skeleton=tuple(rf(0.05, 1.0) for _ in range(13)),
        )
    if kind < 0.96:
        inter = None if rng.random() < 0.4 else (rf(), rf(), rf(0, math.tau))
        return FeaturePacket(
            tick=tick,
            features=FeatureVector(
                interpersonal=inter,
                pose_accommodation=accommodation(),
                visual_attention=categories(),
                spatial=categories(),
            ),
        )
    return Bye()


def test_08_protocol_round_trip_and_live_rate():
    rng = np.random.default_rng(88)
    total = 100_000
    mismatches = 0
    batch: list = []
    buf = bytearray()
    done = 0
    while done < total:
        msg = random_message(rng)
        batch.append(msg)
        buf.extend(encode_frame(msg))
        done += 1
        if len(batch) == 500 or done == total:
            decoded = decode_all(bytes(buf))
            for a, b in zip(batch, decoded):
                if a != b:
                    mismatches += 1
            batch.clear()
            buf.clear()

    # sixty ticks of live session = sixty pose updates each way
    trace = TraceBuilder().hold(1.0).build()
    assert len(trace) == 60
    result = run(
        load_room(budget_room()),
        load_room({
            "id": "bare2",
            "extents": {"min": [-2.0, -1.5], "max": [2.0, 1.5]},
            "objects": [],
        }),
        trace, trace,
    )
    poses = {
        peer: result.report["protocol"][peer]["sent"]["PoseUpdate"] for peer in ("a", "b")
    }
    replayed = replay(result.transcript, budget_room(), {
        "id": "bare2",
        "extents": {"min": [-2.0, -1.5], "max": [2.0, 1.5]},
        "objects": [],
    })
    ok = mismatches == 0 and poses == {"a": 60, "b": 60} and replayed == result.report
    verdict(
        "criterion 8 protocol",
        ok,
        f"{total} codec round-trips with {mismatches} mismatches; "
        f"60 live ticks sent {poses['a']}/{poses['b']} pose updates; "
        f"replay report identical: {replayed == result.report}",
    )


# --- 9: end-to-end determinism --------------------------------------------------


def office_room() -> dict:
    return {
        "id": "office",
        "extents": {"min": [-2.5, -2.0], "max": [2.5, 2.0]},
        "objects": [
            {"id": "desk_office", "category": "Table", "position": [1.5, 0.37, 1.3],
             "yaw": 0.0, "size": [1.4, 0.74, 0.7], "pair_id": "coffee_living"},
            {"id": "chair_office", "category": "Chair", "position": [1.3, 0.3, 0.5],
             "yaw": math.pi, "size": [0.6, 0.6, 0.6], "sittable": True,
             "sit_height": 0.46, "pair_id": "armchair_living"},
            {"id": "screen_office", "category": "Screen", "position": [-0.3, 1.4, 1.92],
             "yaw": math.pi, "size": [1.6, 0.9, 0.08], "pair_id": "tv_living"},
            {"id": "shelf_office", "category": "Other", "position": [-2.2, 0.9, -0.6],
             "yaw": 0.0, "size": [0.4, 1.8, 1.2]},
            {"id": "plant_office", "category": "Other", "position": [2.2, 0.5, -1.6],
             "yaw": 0.0, "size": [0.4, 1.0, 0.4]},
        ],
    }


def living_room() -> dict:
    return {
        "id": "living",
        "extents": {"min": [-2.25, -1.75], "max": [2.25, 1.75]},
        "objects": [
            {"id": "tv_living", "category": "Screen", "position": [0.2, 1.1, 1.68],
             "yaw": math.pi, "size": [1.3, 0.75, 0.08], "pair_id": "screen_office"},
            {"id": "coffee_living", "category": "Table", "position": [0.1, 0.21, 0.5],
             "yaw": 0.15, "size": [0.9, 0.42, 0.5], "pair_id": "desk_office"},
            {"id": "armchair_living", "category": "Chair", "position": [-1.4, 0.3, 0.6],
             "yaw": 1.9, "size": [0.75, 0.6, 0.75], "sittable": True,
             "sit_height": 0.43, "pair_id": "chair_office"},
            {"id": "sofa_living", "category": "Sofa", "position": [1.2, 0.35, -1.2],
             "yaw": 0.0, "size": [1.9, 0.7, 0.85], "sittable": True, "sit_height": 0.41},
        ],
    }


def office_traces():
    a = TraceBuilder(start=(-1.5, -1.2), yaw=0.2)
    a.hold(0.2).walk_to(0.6, 0.4, speed=1.3).hold(0.5)
    a.gaze_at([-0.3, 1.4, 1.88], seconds=1.0)
    a.point_at([-0.3, 1.4, 1.88], side="right", raise_s=0.4, hold_s=1.0)
    a.lower_hands().walk_to(-0.8, -0.6, speed=1.2).hold(0.6)

    b = TraceBuilder(start=(0.6, -1.0), yaw=-0.3)
    b.hold(0.3).walk_to(-0.7, 0.1, speed=1.4).hold(0.4)
    b.gaze_at([0.2, 1.1, 1.64], seconds=1.0)
    b.sit(root_height=0.55, seconds=0.5).hold(1.0)
    return a.build(), b.build()


def test_09_end_to_end_determinism():
    trace_a, trace_b = office_traces()
    config = SimConfig(seed=42)
    first = run(office_room(), living_room(), trace_a, trace_b, config=config)
    second = run(office_room(), living_room(), trace_a, trace_b, config=config)
    ok = first.transcript == second.transcript and first.report_json == second.report_json
    episodes = sum(len(v) for v in first.report["episodes"].values())
    verdict(
        "criterion 9 end-to-end determinism",
        ok,
        f"office scenario run twice with seed 42: transcripts byte-identical "
        f"({len(first.transcript)} bytes, {episodes} placement episodes), "
        f"reports byte-identical ({len(first.report_json)} bytes)",
    )
