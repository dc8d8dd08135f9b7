"""Lockstep two-peer runs: determinism, transcripts, replay, and the CLI."""
from __future__ import annotations

import json
import math
import struct
from collections import Counter
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinroom import placement as placement_module
from twinroom import retarget as retarget_module
from twinroom import scene as scene_module
from twinroom import sim as sim_module
from twinroom import states as states_module
from twinroom.geometry import (
    Transform,
    normalized,
    point_to_line_distance,
    quat_conj,
    quat_from_yaw,
    quat_mul,
    quat_normalize,
    quat_rotate,
    sub,
    wrap_angle_positive,
    yaw_of,
)
from twinroom.placement import (
    GridConfig,
    Placement,
    PlacementPose,
    PsoConfig,
    ScorerConfig,
    extract_features,
    feasible,
    scorer_config_from_json,
)
from twinroom.protocol import (
    POSE,
    FeaturePacket,
    Hello,
    PoseUpdate,
    ProtocolError,
    Session,
    StateChange,
    decode_all,
    encode_frame,
    f32,
)
from twinroom.retarget import Joint, RetargetConfig, Skeleton, vertical_compensation
from twinroom.scene import ObjectCategory, PairingError, Room, SceneError, SceneObject, load_room, room_hash
from twinroom.sim import (
    PARTNER_HEAD_ID,
    AvatarDriver,
    AvatarHost,
    PeerRuntime,
    ReplayDivergence,
    SimConfig,
    _frames_line,
    _jsonl,
    canonical_report_json,
    main,
    pose_update_from_snapshot,
    replay,
    run,
)
from twinroom.states import Effector, EffectorSample, StateConfig, UserSnapshot, UserState
from twinroom.traces import MalformedTrace, MotionTrace, TraceBuilder, save_trace

from test_retarget import _bits, _tick_bits, reference_solve_full_body
from test_scene import ungated_raycast


def room_a_doc() -> dict:
    return {
        "id": "alpha",
        "extents": {"min": [-2.5, -2.0], "max": [2.5, 2.0]},
        "objects": [
            {
                "id": "screen_a",
                "category": "Screen",
                "position": [0.0, 1.4, 1.9],
                "yaw": math.pi,
                "size": [1.8, 1.0, 0.1],
                "pair_id": "screen_b",
            },
            {
                "id": "desk_a",
                "category": "Table",
                "position": [1.6, 0.37, 1.4],
                "yaw": 0.0,
                "size": [1.4, 0.74, 0.7],
                "pair_id": "desk_b",
            },
            {
                "id": "chair_a",
                "category": "Chair",
                "position": [-1.6, 0.3, 1.0],
                "yaw": 0.3,
                "size": [0.7, 0.6, 0.7],
                "sittable": True,
                "sit_height": 0.45,
                "pair_id": "chair_b",
            },
            {
                "id": "sofa_a",
                "category": "Sofa",
                "position": [-1.5, 0.35, -1.3],
                "yaw": 0.0,
                "size": [1.8, 0.7, 0.8],
                "sittable": True,
                "sit_height": 0.4,
            },
        ],
    }


def room_b_doc() -> dict:
    return {
        "id": "beta",
        "extents": {"min": [-2.0, -2.0], "max": [2.0, 2.0]},
        "objects": [
            {
                "id": "screen_b",
                "category": "Screen",
                "position": [1.85, 1.3, 0.0],
                "yaw": math.pi / 2,
                "size": [2.4, 1.2, 0.1],
                "pair_id": "screen_a",
            },
            {
                "id": "desk_b",
                "category": "Table",
                "position": [1.3, 0.36, 1.3],
                "yaw": -0.4,
                "size": [1.2, 0.72, 0.6],
                "pair_id": "desk_a",
            },
            {
                "id": "chair_b",
                "category": "Chair",
                "position": [-1.2, 0.28, 1.2],
                "yaw": 2.0,
                "size": [0.65, 0.56, 0.65],
                "sittable": True,
                "sit_height": 0.42,
                "pair_id": "chair_a",
            },
            {
                "id": "plant_b",
                "category": "Other",
                "position": [-1.7, 0.5, -1.7],
                "yaw": 0.0,
                "size": [0.4, 1.0, 0.4],
            },
        ],
    }


# coarse search keeps each placement episode around a millisecond
def quick_config(**overrides) -> SimConfig:
    return SimConfig(
        grid=GridConfig(cell=0.5, yaw_count=8),
        pso=PsoConfig(particles=8, iterations=5),
        **overrides,
    )


SCREEN_POINT = [0.3, 1.4, 1.85]  # on screen_a's front face


def trace_a_script() -> "TraceBuilder":
    b = TraceBuilder(start=(-0.5, -1.2), yaw=0.0)
    b.hold(0.2).walk_to(0.6, -0.8, speed=1.4).hold(0.5)
    b.gaze_at(SCREEN_POINT, seconds=1.0)
    b.point_at(SCREEN_POINT, side="right", raise_s=0.4, hold_s=1.0)
    b.lower_hands().hold(0.5)
    return b


def trace_b_script() -> "TraceBuilder":
    b = TraceBuilder(start=(0.3, -0.9), yaw=0.5)
    b.hold(0.1).walk_to(-0.6, -0.3, speed=1.5).hold(2.0)
    return b


@pytest.fixture(scope="module")
def base_result():
    return run(
        room_a_doc(), room_b_doc(), trace_a_script().build(), trace_b_script().build(),
        config=quick_config(),
    )


def test_run_twice_is_byte_identical(base_result):
    again = run(
        room_a_doc(), room_b_doc(), trace_a_script().build(), trace_b_script().build(),
        config=quick_config(),
    )
    assert again.transcript == base_result.transcript
    assert again.report_json == base_result.report_json


def test_transcript_structure(base_result):
    lines = [json.loads(ln) for ln in base_result.transcript.splitlines()]
    header, frames = lines[0], lines[1:]
    assert header["type"] == "header"
    assert header["rooms"]["a"] == f"{room_hash(load_room(room_a_doc())):016x}"
    assert header["rooms"]["b"] == f"{room_hash(load_room(room_b_doc())):016x}"
    assert header["ticks"] == base_result.report["ticks"]
    assert all(doc["type"] == "frames" for doc in frames)
    assert all(doc["dir"] in ("a>b", "b>a") for doc in frames)
    # every blob is a whole number of frames
    for doc in frames:
        decode_all(bytes.fromhex(doc["data"]))


def test_one_pose_update_per_live_tick(base_result):
    n = base_result.report["ticks"]
    for peer in ("a", "b"):
        assert base_result.report["protocol"][peer]["sent"]["PoseUpdate"] == n
    blobs = [
        bytes.fromhex(doc["data"])
        for doc in map(json.loads, base_result.transcript.splitlines()[1:])
        if doc["dir"] == "a>b"
    ]
    poses = [m for m in decode_all(b"".join(blobs)) if isinstance(m, PoseUpdate)]
    assert [p.tick for p in poses] == list(range(1, n + 1))


def test_every_reported_placement_is_feasible(base_result):
    report = base_result.report
    hosting = {"a": load_room(room_b_doc()), "b": load_room(room_a_doc())}
    for owner, room in hosting.items():
        episodes = report["episodes"][owner]
        assert len(episodes) == 1  # one walk per trace
        for ep in episodes:
            placement = Placement(
                x=ep["x"], z=ep["z"], yaw=ep["yaw"], pose=PlacementPose[ep["pose"]]
            )
            assert feasible(room, placement)
    # the hosting peer announces the placements it computed
    assert report["protocol"]["b"]["sent"]["PlacementAnnounce"] == len(report["episodes"]["a"])
    assert report["protocol"]["a"]["sent"]["PlacementAnnounce"] == len(report["episodes"]["b"])


def test_pointing_at_screen_is_reported(base_result):
    rows = base_result.report["pointing"]["a"]
    assert rows, "the scripted point at the screen must leave accuracy rows"
    row = rows[0]
    assert row["object"] == "screen_a"
    assert row["samples"] >= 1
    assert row["max_miss"] < 1e-6


def test_state_transitions_cover_the_walk(base_result):
    names = [t["state"] for t in base_result.report["transitions"]["a"]]
    assert "Locomotion" in names
    assert "Interaction" in names


def test_replay_reproduces_report(base_result):
    got = replay(base_result.transcript, room_a_doc(), room_b_doc())
    assert got == base_result.report
    assert canonical_report_json(got) == base_result.report_json


def test_run_and_replay_admit_decoded_batches(monkeypatch):
    # a live run decodes each batch once where it records it, as a replay
    # does where it reads it: no session reads a byte stream
    def no_stream(session, data):
        raise AssertionError("a session was fed bytes")

    monkeypatch.setattr(Session, "feed", no_stream)
    live = run(
        room_a_doc(), room_b_doc(), trace_a_script().build(), trace_b_script().build(),
        config=quick_config(),
    )
    assert all(p["phase"] == "Closed" for p in live.report["protocol"].values())
    assert replay(live.transcript, room_a_doc(), room_b_doc()) == live.report


def test_replay_rebuilds_every_avatar_tick(monkeypatch):
    # the report pins no solved body, so compare the avatar motion itself:
    # each hosted avatar's per-tick pose and pointing, live and replayed
    def motion(session):
        ticks, hosting = {}, []
        tick_avatar, solve = AvatarHost.tick_avatar, sim_module.avatar_tick

        def hosted(host, t, me, dt):
            hosting.append((host.owner_code, t))
            try:
                return tick_avatar(host, t, me, dt)
            finally:
                hosting.pop()

        def recorded(*args, **kwargs):
            result = solve(*args, **kwargs)
            owner, t = hosting[-1]
            ticks.setdefault(owner, []).append((t, any(result.pointing), _tick_bits(result)))
            return result

        with monkeypatch.context() as m:
            m.setattr(AvatarHost, "tick_avatar", hosted)
            m.setattr(sim_module, "avatar_tick", recorded)
            out = session()
        return out, ticks

    live, live_ticks = motion(lambda: run(
        room_a_doc(), room_b_doc(), trace_a_script().build(), trace_b_script().build(),
        config=quick_config(),
    ))
    report, replayed_ticks = motion(lambda: replay(live.transcript, room_a_doc(), room_b_doc()))
    assert report == live.report
    assert sorted(live_ticks) == [0, 1]
    assert any(pointed for ticks in live_ticks.values() for _, pointed, _ in ticks)
    assert replayed_ticks == live_ticks


def test_every_avatar_tick_equals_the_per_point_solve(monkeypatch):
    # the full-body solve maps its points in one call: each hosted avatar
    # tick, live and replayed, keeps the bits of the per-point solve
    def motion(session):
        ticks, tick = [], sim_module.avatar_tick

        def recorded(*args, **kwargs):
            result = tick(*args, **kwargs)
            ticks.append((args[1], _tick_bits(result)))
            return result

        with monkeypatch.context() as m:
            m.setattr(sim_module, "avatar_tick", recorded)
            out = session()
        return out, ticks

    def both():
        # B walks again once placed, so A's host also walks B's avatar in place
        trace_b = trace_b_script().walk_to(0.4, 0.5, speed=1.5).hold(0.5)
        live, live_ticks = motion(lambda: run(room_a_doc(), room_b_doc(), trace_a_script().build(),
                                              trace_b.build(), config=quick_config()))
        _, replayed = motion(lambda: replay(live.transcript, room_a_doc(), room_b_doc()))
        return live, live_ticks, replayed

    live, live_ticks, replayed = both()
    solves = []

    def reference(*args, **kwargs):
        solves.append(1)
        return reference_solve_full_body(*args, **kwargs)

    monkeypatch.setattr(retarget_module, "solve_full_body", reference)
    ref_live, ref_ticks, ref_replayed = both()
    assert len(solves) >= len(ref_ticks) + len(ref_replayed)
    assert {mode for mode, _ in ref_ticks} == set(UserState)
    assert live_ticks == ref_ticks and replayed == ref_replayed
    assert live.transcript == ref_live.transcript and live.report == ref_live.report


def test_a_walking_host_holds_the_root_it_froze(monkeypatch):
    # between two state changes every Locomotion tick of a host solves one
    # root, bit for bit: the avatar root's position at the freeze, facing
    # its yaw wrapped to [0, 2*pi)
    def segments(session):
        out, hosting = {}, []
        handle, tick_avatar, solve = AvatarHost.handle, AvatarHost.tick_avatar, sim_module.avatar_tick

        def handled(host, msg, tick, me):
            if isinstance(msg, StateChange):
                at = None if host.goals is None else host.goals.root
                out.setdefault(host.owner_code, []).append((msg.state, at, []))
            return handle(host, msg, tick, me)

        def hosted(host, t, me, dt):
            hosting.append(host.owner_code)
            try:
                return tick_avatar(host, t, me, dt)
            finally:
                hosting.pop()

        def recorded(*args, **kwargs):
            result = solve(*args, **kwargs)
            if args[1] is UserState.Locomotion:
                root = result.pose.root
                out[hosting[-1]][-1][2].append(_bits(root.position) + _bits(root.orientation))
            return result

        with monkeypatch.context() as m:
            m.setattr(AvatarHost, "handle", handled)
            m.setattr(AvatarHost, "tick_avatar", hosted)
            m.setattr(sim_module, "avatar_tick", recorded)
            return session(), out

    # B walks again once placed, so A's host freezes B's avatar mid-session
    trace_b = trace_b_script().walk_to(0.4, 0.5, speed=1.5).hold(0.5)
    live, live_segments = segments(lambda: run(room_a_doc(), room_b_doc(), trace_a_script().build(),
                                               trace_b.build(), config=quick_config()))
    _, replayed = segments(lambda: replay(live.transcript, room_a_doc(), room_b_doc()))
    assert replayed == live_segments
    frozen = 0
    for state, at, roots in (seg for segs in live_segments.values() for seg in segs):
        if state is UserState.Locomotion and at is not None:
            yaw = wrap_angle_positive(yaw_of(at.orientation))
            assert roots and set(roots) == {_bits(at.position) + _bits(quat_from_yaw(yaw))}
            frozen += len(roots)
    assert frozen >= 10



def test_each_hosted_room_builds_its_grid_tables_once(monkeypatch):
    # two walks per user, so each hosted room is searched at least twice
    trace_a = (TraceBuilder(start=(-0.5, -1.2)).hold(0.2).walk_to(0.6, -0.8, speed=1.4).hold(1.0)
               .walk_to(-0.5, 0.5, speed=1.4).hold(1.0).build())
    trace_b = (TraceBuilder(start=(0.3, -0.9), yaw=0.5).hold(0.1).walk_to(-0.6, -0.3, speed=1.5).hold(1.0)
               .walk_to(0.5, 0.6, speed=1.5).hold(1.0).build())
    built = []
    build = placement_module._build_grid_tables

    def counted(room, config):
        built.append(room.id)
        return build(room, config)

    monkeypatch.setattr(placement_module, "_build_grid_tables", counted)
    searched = ["alpha", "beta"]  # both hosted rooms, once each

    # room documents make new Rooms in every session, which build their own
    def session(rooms):
        return run(*rooms, trace_a, trace_b, config=quick_config())

    documents = room_a_doc(), room_b_doc()
    live = session(documents)
    assert all(len(episodes) >= 2 for episodes in live.report["episodes"].values())
    assert sorted(built) == searched
    built.clear()
    assert replay(live.transcript, *documents) == live.report
    assert sorted(built) == searched
    built.clear()
    assert session(documents).report_json == live.report_json
    assert sorted(built) == searched

    # the same Rooms build them once, for a run, its replay and another run
    built.clear()
    rooms = load_room(room_a_doc()), load_room(room_b_doc())
    kept = session(rooms)
    assert replay(kept.transcript, *rooms) == live.report
    again = session(rooms)
    assert sorted(built) == searched
    for result in (kept, again):
        assert result.report_json == live.report_json
        assert result.transcript == live.transcript


def test_replay_with_latency():
    config = quick_config(latency_ticks=3)
    result = run(
        room_a_doc(), room_b_doc(), trace_a_script().build(), trace_b_script().build(),
        config=config,
    )
    n = result.report["ticks"]
    # hellos land 1+latency ticks after tick 0, delaying Live by the latency
    for peer in ("a", "b"):
        assert result.report["protocol"][peer]["sent"]["PoseUpdate"] == n - 3
    assert replay(result.transcript, room_a_doc(), room_b_doc()) == result.report


@pytest.mark.parametrize("latency", [0, 3])
def test_reported_sends_and_transitions_match_the_transcript(latency):
    # read off the recorded frames alone, whatever builds the report
    result = run(
        room_a_doc(), room_b_doc(), trace_a_script().build(), trace_b_script().build(),
        config=quick_config(latency_ticks=latency),
    )
    sent = {"a": Counter(), "b": Counter()}
    transitions = {"a": [], "b": []}
    for line in result.transcript.splitlines()[1:]:
        doc = json.loads(line)
        sender = doc["dir"][0]
        for msg in decode_all(bytes.fromhex(doc["data"])):
            sent[sender][type(msg).__name__] += 1
            if isinstance(msg, StateChange):
                transitions[sender].append({"tick": msg.tick, "state": msg.state.name})
    assert sent["a"]["FeaturePacket"] and sent["b"]["PlacementAnnounce"] and transitions["a"]
    replayed = replay(result.transcript, room_a_doc(), room_b_doc())
    for mode, report in (("run", result.report), ("replay", replayed)):
        assert {p: report["protocol"][p]["sent"] for p in ("a", "b")} == sent, mode
        assert report["transitions"] == transitions, mode


def test_replay_rejects_swapped_rooms(base_result):
    with pytest.raises(ReplayDivergence, match="hash"):
        replay(base_result.transcript, room_b_doc(), room_a_doc())


def test_replay_rejects_missing_hello(base_result):
    lines = base_result.transcript.splitlines()
    pruned = [
        ln for ln in lines
        if not (json.loads(ln).get("tick") == 0 and json.loads(ln).get("dir") == "a>b")
    ]
    with pytest.raises(ReplayDivergence, match="hello"):
        replay("\n".join(pruned), room_a_doc(), room_b_doc())


def test_replay_rejects_tampered_announce(base_result):
    # rerouting one frames line through the tampered coordinates must be caught
    lines = base_result.transcript.splitlines()
    target = None
    for i, ln in enumerate(lines):
        doc = json.loads(ln)
        if doc.get("type") != "frames":
            continue
        blob = bytes.fromhex(doc["data"])
        msgs = decode_all(blob)
        if any(type(m).__name__ == "PlacementAnnounce" for m in msgs):
            target = (i, doc)
            break
    assert target is not None
    i, doc = target
    from twinroom.protocol import PlacementAnnounce

    rebuilt = b""
    for m in decode_all(bytes.fromhex(doc["data"])):
        if isinstance(m, PlacementAnnounce):
            m = PlacementAnnounce(tick=m.tick, x=m.x + 0.25, z=m.z, yaw=m.yaw, pose=m.pose)
        rebuilt += encode_frame(m)
    doc["data"] = rebuilt.hex()
    lines[i] = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    with pytest.raises(ReplayDivergence, match="placement"):
        replay("\n".join(lines), room_a_doc(), room_b_doc())


def test_hello_app_version_mismatch_raises():
    config = quick_config()
    peer = PeerRuntime(
        "a", load_room(room_a_doc()), load_room(room_b_doc()),
        trace_a_script().build(), config,
    )
    peer.begin_tick(1)
    wrong = Hello(
        app_version=config.app_version + 1,
        room_hash=room_hash(load_room(room_b_doc())),
        skeleton=Skeleton().to_floats(),
    )
    peer.driver.post(0, [wrong])
    with pytest.raises(ProtocolError, match="app version"):
        peer.driver.step(1, peer.my_pose)


def test_hello_room_hash_mismatch_raises():
    config = quick_config()
    peer = PeerRuntime(
        "a", load_room(room_a_doc()), load_room(room_b_doc()),
        trace_a_script().build(), config,
    )
    peer.begin_tick(1)
    wrong = Hello(
        app_version=config.app_version,
        room_hash=room_hash(load_room(room_a_doc())),  # its own room, not the peer's
        skeleton=Skeleton().to_floats(),
    )
    peer.driver.post(0, [wrong])
    with pytest.raises(PairingError, match="room hash"):
        peer.driver.step(1, peer.my_pose)


def test_shorter_trace_is_padded_to_lockstep():
    trace_a = trace_a_script().build()
    trace_b = TraceBuilder(start=(0.3, -0.9)).hold(0.3).build()  # far shorter
    result = run(room_a_doc(), room_b_doc(), trace_a, trace_b, config=quick_config())
    n = result.report["ticks"]
    assert n == len(trace_a)
    assert result.report["protocol"]["b"]["sent"]["PoseUpdate"] == n


def test_trace_tick_rate_mismatch_raises():
    trace_a = TraceBuilder(tick_rate=60.0).hold(0.2).build()
    trace_b = TraceBuilder(tick_rate=30.0).hold(0.2).build()
    with pytest.raises(ValueError, match="tick rate"):
        run(room_a_doc(), room_b_doc(), trace_a, trace_b)


def test_config_tick_rate_must_match_traces():
    trace = TraceBuilder(tick_rate=60.0).hold(0.2).build()
    with pytest.raises(ValueError, match="tick rate"):
        run(room_a_doc(), room_b_doc(), trace, trace, config=SimConfig(tick_rate=90.0))


def test_pointing_at_partner_head():
    # pass 1 discovers where the partner's avatar lands; pass 2 points at it
    first = run(
        room_a_doc(), room_b_doc(), trace_a_script().build(), trace_b_script().build(),
        config=quick_config(),
    )
    ep = first.report["episodes"]["b"][0]  # B's avatar hosted in room A
    sk = Skeleton()
    head = [ep["x"], 0.92 + sk.spine + sk.neck, ep["z"]]

    b = TraceBuilder(start=(-0.5, -1.2), yaw=0.0)
    b.hold(0.2).walk_to(0.6, -0.8, speed=1.4).hold(0.5)  # same walk keeps ep stable
    b.gaze_at(head, seconds=1.0)
    b.point_at(head, side="right", raise_s=0.4, hold_s=1.0)
    b.hold(0.3)
    second = run(
        room_a_doc(), room_b_doc(), b.build(), trace_b_script().build(),
        config=quick_config(),
    )
    assert second.report["episodes"]["b"][0] == ep
    rows = [r for r in second.report["pointing"]["a"] if r["object"] == PARTNER_HEAD_ID]
    assert rows, "pointing at the avatar's head must resolve to the partner-head target"
    assert rows[0]["max_miss"] < 1e-6
    assert replay(second.transcript, room_a_doc(), room_b_doc()) == second.report


def test_pointing_is_raised_as_seen_from_the_solved_head_joint(base_result, monkeypatch):
    # with an elevation offset, every completed pointing solution aims
    # through its target raised as seen from that tick's solved head joint
    config = quick_config(retarget=RetargetConfig(elevation_offset=0.1))
    seen, tick = [], sim_module.avatar_tick

    def recorded(*args):
        result = tick(*args)
        seen.append((args[2], args[4], result))
        return result

    def session():
        return run(room_a_doc(), room_b_doc(), trace_a_script().build(), trace_b_script().build(), config=config)

    with monkeypatch.context() as m:
        m.setattr(sim_module, "avatar_tick", recorded)
        lifted = session()
    completed = from_goal = 0
    for goals, targets, result in seen:
        eye = result.pose.joints[Joint.Head]
        for i, shoulder, wrist in ((Effector.LeftHand.value, Joint.LeftShoulder, Joint.LeftWrist),
                                   (Effector.RightHand.value, Joint.RightShoulder, Joint.RightWrist)):
            if result.pointing[i] is None:
                continue
            t, solution = result.pointing[i]
            raised = vertical_compensation(targets[i], eye, config.retarget)
            assert solution.target == raised and raised[1] > targets[i][1]
            from_goal += raised != vertical_compensation(
                targets[i], goals.root.apply(goals.positions[Effector.Head]), config.retarget)
            if t == 1.0:
                completed += 1
                arm = sub(result.pose.joints[wrist], result.pose.joints[shoulder])
                assert point_to_line_distance(raised, result.pose.joints[shoulder], normalized(arm)) < 1e-9
    assert completed > 0 and from_goal > 0  # the head goal would have been another eye
    assert all(row["max_miss"] < 1e-9 for row in lifted.report["pointing"]["a"])
    again = session()
    assert again.transcript == lifted.transcript and again.report_json == lifted.report_json
    assert replay(lifted.transcript, room_a_doc(), room_b_doc()) == lifted.report
    # the lift moves the avatar's arm, not what either user sends
    assert lifted.transcript.splitlines()[1:] == base_result.transcript.splitlines()[1:]


def test_fixation_room_is_rebuilt_only_when_the_partner_head_moves(monkeypatch):
    # A gazes and points at B's avatar head while B sits down and stands up
    # again, so the head both holds still and moves while it is a target
    ep = run(room_a_doc(), room_b_doc(), trace_a_script().build(), trace_b_script().build(),
             config=quick_config()).report["episodes"]["b"][0]
    sk = Skeleton()
    head = [ep["x"], 0.92 + sk.spine + sk.neck, ep["z"]]
    a = TraceBuilder(start=(-0.5, -1.2), yaw=0.0)
    a.hold(0.2).walk_to(0.6, -0.8, speed=1.4).hold(0.5)
    a.gaze_at(head, seconds=2.0).point_at(head, side="right", raise_s=0.4, hold_s=1.0).hold(0.3)
    b = TraceBuilder(start=(0.3, -0.9), yaw=0.5)
    b.hold(0.1).walk_to(-0.6, -0.3, speed=1.5).hold(1.0)
    b.sit(root_height=0.8, seconds=0.3).hold(0.5).stand(seconds=0.3).hold(2.0)

    def rebuilt_every_tick(peer):
        head = peer.host.avatar_head_world()
        if head is None:
            return peer.room
        box = SceneObject(id=PARTNER_HEAD_ID, category=ObjectCategory.Other, position=head, yaw=0.0,
                          size=(0.25, 0.25, 0.25), pair_id=PARTNER_HEAD_ID)
        return peer.room.with_extra([box])

    def session(fixation_room):
        ticks, builds = [], []
        step_local, with_extra = PeerRuntime.step_local, Room.with_extra

        def recorded(peer, t):
            step_local(peer, t)
            fx = [ch.fixation for ch in peer.tracker.channels]
            ticks.append((peer.name, t, list(peer.targets),
                          [(f.candidate, f.accumulated, f.target) for f in fx]))

        def counted(room, extra):
            builds.append(list(extra[0].position))
            return with_extra(room, extra)

        with monkeypatch.context() as m:
            m.setattr(PeerRuntime, "step_local", recorded)
            m.setattr(PeerRuntime, "_fixation_room", fixation_room)
            m.setattr(Room, "with_extra", counted)
            result = run(room_a_doc(), room_b_doc(), a.build(), b.build(), config=quick_config())
        return result, ticks, builds

    cached, cached_ticks, cached_builds = session(PeerRuntime._fixation_room)
    fresh, fresh_ticks, fresh_builds = session(rebuilt_every_tick)
    assert any(r["object"] == PARTNER_HEAD_ID for r in cached.report["pointing"]["a"])
    assert cached_ticks == fresh_ticks
    assert cached.report_json == fresh.report_json
    assert cached.transcript == fresh.transcript
    # one build per distinct head position in a row, never two for the same
    assert 1 < len(cached_builds) < len(fresh_builds) / 5
    assert all(p != q for p, q in zip(cached_builds, cached_builds[1:]))


def test_partner_head_box_sits_at_the_drawn_head_while_the_partner_walks(monkeypatch):
    # B is placed, then walks again: A's host draws the avatar walking in
    # place at the frozen root while its head goal moves on, and A's gaze
    # must find the head where it is drawn
    b = TraceBuilder(start=(0.3, -0.9), yaw=0.5)
    b.hold(0.1).walk_to(-0.6, -0.3, speed=1.5).hold(1.0).walk_to(0.5, -0.1, speed=1.2).hold(1.0)
    fixation_room, seen = PeerRuntime._fixation_room, []

    def recorded(peer):
        room = fixation_room(peer)
        host = peer.host
        box = room.by_id.get(PARTNER_HEAD_ID)
        drawn = None if host.interp.last is None else host.interp.last.joints[Joint.Head]
        goal = None if host.goals is None else host.goals.root.apply(host.goals.positions[Effector.Head])
        seen.append((host.state, None if box is None else box.position, drawn, goal))
        return room

    with monkeypatch.context() as m:
        m.setattr(PeerRuntime, "_fixation_room", recorded)
        result = run(room_a_doc(), room_b_doc(), trace_a_script().build(), b.build(), config=quick_config())
    assert len(result.report["episodes"]["b"]) == 2
    assert all(box == drawn for _, box, drawn, _ in seen)
    walking = [(drawn, goal) for state, _, drawn, goal in seen if state is UserState.Locomotion and drawn]
    assert sum(math.dist(drawn, goal) > 0.1 for drawn, goal in walking) > 10
    assert replay(result.transcript, room_a_doc(), room_b_doc()) == result.report


@pytest.mark.parametrize("latency", [30, 10**5])
def test_drain_delivers_only_the_ticks_something_arrives_at(monkeypatch, latency):
    config = quick_config(latency_ticks=latency)
    deliver, drain = AvatarDriver._deliver, AvatarDriver.drain
    drains, draining = [], None  # per drain: (arrival ticks in the inbox, deliveries)

    def counted_drain(driver):
        nonlocal draining
        draining = [len(driver.inbox), 0]
        placed = drain(driver)
        drains.append(tuple(draining))
        draining = None
        return placed

    def counted_deliver(driver, t, pose):
        if draining is not None:
            draining[1] += 1
        return deliver(driver, t, pose)

    def every_tick(driver):
        # every tick up to the last arrival, empty ones included
        placed = []
        if driver.inbox:
            for t in range(min(driver.inbox), max(driver.inbox) + 1):
                placed += deliver(driver, t, None)
        driver.host.flush_pointing()
        return placed

    def session():
        return run(room_a_doc(), room_b_doc(), trace_a_script().build(), trace_b_script().build(), config=config)

    with monkeypatch.context() as m:
        m.setattr(AvatarDriver, "drain", counted_drain)
        m.setattr(AvatarDriver, "_deliver", counted_deliver)
        result = session()
        replayed = replay(result.transcript, room_a_doc(), room_b_doc())
    assert len(drains) == 4  # both peers, in the run and in the replay
    assert all(0 < delivered <= held for held, delivered in drains), drains
    assert replayed == result.report
    with monkeypatch.context() as m:
        m.setattr(AvatarDriver, "drain", every_tick)
        stepped = session()
    assert stepped.report_json == result.report_json
    assert stepped.transcript == result.transcript


def test_version_1_transcript_is_refused_not_reported_as_tampered(base_result):
    lines = base_result.transcript.splitlines()
    header = json.loads(lines[0])
    assert header["version"] == 4
    for old in (1, 2, 3):
        header["version"] = old
        lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
        with pytest.raises(ReplayDivergence) as err:
            replay("\n".join(lines) + "\n", room_a_doc(), room_b_doc())
        assert str(err.value) == f"unsupported transcript version {old}"


@pytest.mark.parametrize("case", ["ticks + 1", "ticks - 1", "negative ticks", "inflated ticks",
                                  "frames after the last tick", "config without seed", "config not an object"])
def test_replay_refuses_a_header_its_frames_do_not_bear_out(base_result, case):
    # `run` writes both byes at the header's tick count, so a replay runs
    # exactly as many ticks as the frames reach, and a header it cannot
    # read is a divergence naming its line
    lines = [json.loads(line) for line in base_result.transcript.splitlines()]
    header, n, last = lines[0], lines[0]["ticks"], len(lines)
    assert lines[-1]["tick"] == lines[-2]["tick"] == n
    first_at_n = 1 + next(i for i, line in enumerate(lines) if line.get("tick") == n)
    if case == "ticks + 1":
        header["ticks"] = n + 1
        want = f"line {last}: the last frames are at tick {n}, not the header's {n + 1}"
    elif case == "ticks - 1":
        header["ticks"] = n - 1
        want = f"line {first_at_n}: frames need dir a>b or b>a, an int tick in 0..{n - 1} and hex data"
    elif case == "negative ticks":
        header["ticks"] = -3
        want = "line 2: frames need dir a>b or b>a, an int tick in 0..-3 and hex data"
    elif case == "inflated ticks":
        header["ticks"] = n + 200_000
        want = f"line {last}: the last frames are at tick {n}, not the header's {n + 200_000}"
    elif case == "frames after the last tick":
        lines[-1]["tick"] = n + 1
        want = f"line {last}: frames need dir a>b or b>a, an int tick in 0..{n} and hex data"
    elif case == "config without seed":
        del header["config"]["seed"]
        want = f"line 1: the header's config: SimConfig needs exactly the keys {sorted([*header['config'], 'seed'])}"
    else:
        header["config"] = [1]
        want = "line 1: the header's config: SimConfig must be an object, got [1]"
    with pytest.raises(ReplayDivergence) as err:
        replay("\n".join(map(json.dumps, lines)) + "\n", room_a_doc(), room_b_doc())
    assert str(err.value).startswith(want)


DEMO_ROOMS = Path(__file__).resolve().parents[1] / "demos" / "rooms"


@pytest.mark.parametrize("latency", [0, 2])
def test_replay_matches_live_when_a_search_lands_in_the_drain(latency):
    # A stops walking 9 ticks before the end, so B's driver answers A's
    # placement request after the last live tick; the search must still see
    # B's last pose on the wire as the interpersonal reference
    office = load_room(DEMO_ROOMS / "office_a.json")
    loft = load_room(DEMO_ROOMS / "loft_b.json")
    trace_a = TraceBuilder(start=(-0.8, -1.2)).hold(0.5).walk_to(0.3, 0.8).hold(9 / 60).build()
    trace_b = TraceBuilder(start=(2.0, 1.6)).hold(0.5).walk_to(1.0, 0.9).hold(1.0).build()
    result = run(office, loft, trace_a, trace_b, SimConfig(seed=3, latency_ticks=latency))
    n = result.report["ticks"]
    assert [ep["tick"] > n for ep in result.report["episodes"]["a"]] == [True]
    got = replay(result.transcript, office, loft)
    assert got == result.report
    assert canonical_report_json(got) == result.report_json


def test_replay_is_byte_identical_for_int_valued_float_config():
    config = quick_config(tick_rate=60, sitting_root_height=1)
    result = run(
        room_a_doc(), room_b_doc(), trace_a_script().build(), trace_b_script().build(),
        config=config,
    )
    assert json.loads(result.report_json) == result.report
    got = replay(result.transcript, room_a_doc(), room_b_doc())
    assert canonical_report_json(got) == result.report_json


def test_config_dict_round_trip_and_strict_keys():
    config = SimConfig(
        tick_rate=90.0, latency_ticks=2, seed=7, sitting_root_height=0.7,
        scorer=ScorerConfig(weights=(0.4, 0.3, 0.2, 0.1)),
        grid=GridConfig(cell=0.5, yaw_count=8),
        retarget=RetargetConfig(elbow_hint=(0.1, -1.0, 0.0)),
    )
    doc = json.loads(json.dumps(config.to_dict()))
    assert doc["scorer"]["weights"] == [0.4, 0.3, 0.2, 0.1]
    assert SimConfig.from_dict(doc) == config
    del doc["grid"]["cell"]
    with pytest.raises(ValueError, match="GridConfig"):
        SimConfig.from_dict(doc)
    doc = config.to_dict()
    doc["jitter"] = 1
    with pytest.raises(ValueError, match="SimConfig"):
        SimConfig.from_dict(doc)


@pytest.mark.parametrize("path, value", [
    ("pso.particles", 64.0),
    ("pso.particles", True),
    ("pso.iterations", 30.0),
    ("grid.yaw_count", 24.0),
    ("latency_ticks", 2.0),
    ("seed", 1.0),
    ("app_version", "1"),
    ("tick_rate", "60"),
    ("tick_rate", True),
    ("scorer.weights", [0.25, 0.25, 0.5]),
    ("scorer.weights", [0.25, 0.25, 0.25, "0.25"]),
    ("retarget.elbow_hint", 1.0),
    ("state", 1.0),
])
def test_config_from_dict_rejects_a_value_of_the_wrong_type(path, value):
    doc = SimConfig().to_dict()
    *owners, name = path.split(".")
    section = doc
    for owner in owners:
        section = section[owner]
    section[name] = value
    with pytest.raises(ValueError, match=f"^{path}"):
        SimConfig.from_dict(doc)


@pytest.mark.parametrize("make, field, value", [
    (PsoConfig, "particles", 2.5),
    (PsoConfig, "particles", True),
    (PsoConfig, "iterations", 30.0),
    (GridConfig, "yaw_count", 24.0),
    (SimConfig, "latency_ticks", 2.0),
    (SimConfig, "seed", 1.0),
    (SimConfig, "app_version", False),
])
def test_config_counts_and_seeds_must_be_ints(make, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an int"):
        make(**{field: value})


NAN = float("nan")


@pytest.mark.parametrize("make, field, value", [
    (SimConfig, "tick_rate", NAN),
    (SimConfig, "sitting_root_height", NAN),
    (ScorerConfig, "sigma_offset", NAN),
    (ScorerConfig, "sigma_facing", NAN),
    (ScorerConfig, "sigma_height", NAN),
    (ScorerConfig, "distance_falloff", NAN),
    (ScorerConfig, "weights", (NAN, 0.25, 0.25, 0.25)),
    (ScorerConfig, "weights", (0.25, 0.25, 0.25, NAN)),
    (GridConfig, "cell", NAN),
    (PsoConfig, "position_radius", NAN),
    (PsoConfig, "yaw_radius", NAN),
    (PsoConfig, "cognitive", NAN),
    (PsoConfig, "social", NAN),
    (RetargetConfig, "elevation_offset", NAN),
    (RetargetConfig, "interp_speed", NAN),
    (RetargetConfig, "calibration_ratio", 0.0),
    (RetargetConfig, "calibration_ratio", -1.0),
    (RetargetConfig, "calibration_ratio", NAN),
    (RetargetConfig, "calibration_ratio", math.inf),
    (RetargetConfig, "elbow_hint", (NAN, 0.0, 0.0)),
    (RetargetConfig, "knee_hint", (0.0, math.inf, 0.0)),
    (StateConfig, "fixation_threshold", NAN),
    (StateConfig, "condition_period", NAN),
    (StateConfig, "speed_window", NAN),
    (Skeleton, "spine", NAN),
])
def test_config_range_checks_reject_nan(make, field, value):
    make()  # the defaults pass
    with pytest.raises(ValueError):
        make(**{field: value})


def _float_fields(cls, path=""):
    """The dotted path of every float field of a config, nested configs included."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        if is_dataclass(hints[f.name]):
            yield from _float_fields(hints[f.name], f"{path}{f.name}.")
        elif hints[f.name] is float:
            yield path + f.name


def _with_field(config, path: str, value):
    owner, _, rest = path.partition(".")
    if not rest:
        return replace(config, **{owner: value})
    return replace(config, **{owner: _with_field(getattr(config, owner), rest, value)})


@pytest.mark.parametrize("value", [math.inf, NAN])
@pytest.mark.parametrize("path", list(_float_fields(SimConfig)))
def test_run_refuses_every_config_that_replay_refuses(path, value):
    # a config is refused where it is built, or else by `run` with the
    # message `replay` gives for the same value in a transcript header
    try:
        config = _with_field(SimConfig(), path, value)
    except ValueError:
        return
    doc = config.to_dict()
    with pytest.raises(ValueError, match=f"^{path} must be finite") as refused:
        SimConfig.from_dict(doc)
    trace = TraceBuilder().hold(0.05).build()
    with pytest.raises(ValueError) as err:
        run(room_a_doc(), room_b_doc(), trace, trace, config=config)
    assert str(err.value) == str(refused.value)


def test_every_config_refuses_a_non_finite_float_where_it_is_built():
    # what `config_from_dict` refuses in a document, each config refuses in
    # code: inf and NaN in every float field, and in every entry of a tuple
    cases = []
    for cls in (SimConfig, StateConfig, ScorerConfig, GridConfig, PsoConfig, RetargetConfig):
        defaults = cls()  # the defaults pass
        hints = get_type_hints(cls)
        for f in fields(cls):
            default = getattr(defaults, f.name)
            for bad in (math.inf, -math.inf, NAN):
                if hints[f.name] is float:
                    cases.append((cls, f.name, bad))
                elif isinstance(default, tuple):
                    cases += [(cls, f.name, default[:i] + (bad,) + default[i + 1:]) for i in range(len(default))]
    accepted = []
    for cls, name, value in cases:
        try:
            cls(**{name: value})
        except ValueError as e:
            assert str(e).startswith(f"{name} must be finite"), (cls.__name__, name, str(e))
        else:
            accepted.append((cls.__name__, name, value))
    assert len(cases) > 100 and accepted == []


def test_a_config_refuses_a_nested_config_of_another_class():
    with pytest.raises(ValueError, match="^state must be a StateConfig"):
        SimConfig(state=PsoConfig())
    with pytest.raises(ValueError, match="^retarget must be a RetargetConfig"):
        SimConfig(retarget=None)


def test_nan_weight_from_json_or_a_transcript_header_is_rejected():
    # Python's json reads NaN, as in --scorer-config or a transcript header
    with pytest.raises(ValueError, match="weights"):
        scorer_config_from_json('{"weights": [NaN, 0.25, 0.25, 0.25]}')
    doc = json.loads(json.dumps(SimConfig().to_dict()).replace("0.25", "NaN", 1))
    assert math.isnan(doc["scorer"]["weights"][0])
    with pytest.raises(ValueError, match="weights"):
        SimConfig.from_dict(doc)


def test_avatar_host_converts_wire_poses_only_once_placed(monkeypatch):
    """Before a placement the host keeps the raw wire pose; after it, each
    inbound pose is converted once and its root anchored at arrival."""
    handle = AvatarHost.handle
    seen = {"raw": 0, "anchored": 0}

    def checked(host, msg, tick, me):
        out = handle(host, msg, tick, me)
        if isinstance(msg, PoseUpdate):
            assert host.pose is msg
            if host.placement is None:
                assert host.goals is None
                seen["raw"] += 1
            else:
                user_pos = np.array(msg.values[0:3], dtype=float)
                user_q = quat_normalize(np.array(msg.values[3:7], dtype=float))
                pos = np.asarray(host._anchor_avatar_pos) + np.asarray(
                    quat_rotate(host._delta_q, user_pos - host._anchor_user_pos))
                assert np.asarray(host.goals.root.position).tobytes() == pos.tobytes()
                assert (np.asarray(host.goals.root.orientation).tobytes()
                        == np.asarray(quat_mul(host._delta_q, user_q)).tobytes())
                goals = host.goals
                assert goals.positions == tuple(msg.values[i:i + 3] for i in range(7, 42, 7))
                assert goals.orientations == tuple(quat_normalize(msg.values[i + 3:i + 7]) for i in range(7, 42, 7))
                assert goals.fingers is msg.fingers
                seen["anchored"] += 1
        return out

    monkeypatch.setattr(AvatarHost, "handle", checked)
    run(room_a_doc(), room_b_doc(), trace_a_script().build(), trace_b_script().build(),
        config=quick_config())
    assert seen["raw"] > 0 and seen["anchored"] > 0


@pytest.mark.parametrize("offset", range(3, 42, 7),
                         ids=["root", "head", "left_hand", "right_hand", "left_foot", "right_foot"])
def test_a_placed_avatar_host_refuses_a_zero_quaternion(offset):
    # once placed, the host normalizes every quaternion of each inbound pose:
    # a zero one anywhere is quat_normalize's ValueError, and the goals stay
    # those of the last pose it accepted
    host = AvatarHost(load_room(room_a_doc()), quick_config(), owner_code=0)
    trace = trace_b_script().build()
    pose = pose_update_from_snapshot(trace.snapshots[0], 1)
    here = Placement(0.3, -0.9, 0.5, PlacementPose.Standing)
    host.handle(Hello(app_version=1, room_hash=0, skeleton=trace.skeleton.to_floats()), 0, None)
    host.handle(pose, 1, None)
    host.handle(FeaturePacket(tick=1, features=extract_features(load_room(room_b_doc()), here, None)), 1, None)
    assert host.placement is not None
    goals = host.goals
    values = list(pose.values)
    values[offset:offset + 4] = (0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="cannot normalize a near-zero quaternion"):
        host.handle(PoseUpdate(tick=2, values=values), 2, None)
    assert host.goals is goals
    assert host.pose is pose


@pytest.mark.parametrize("offset", range(3, 42, 7),
                         ids=["root", "head", "left_hand", "right_hand", "left_foot", "right_foot"])
def test_a_held_zero_quaternion_is_refused_before_the_search(monkeypatch, offset):
    # an unplaced host only holds the latest pose; the feature packet that
    # places the avatar refuses a zero quaternion in it before searching
    searches, find = [], sim_module.find_placement

    def counted(room, *args, **kwargs):
        searches.append(room.id)
        return find(room, *args, **kwargs)

    monkeypatch.setattr(sim_module, "find_placement", counted)
    host = AvatarHost(load_room(room_a_doc()), quick_config(), owner_code=0)
    trace = trace_b_script().build()
    values = list(pose_update_from_snapshot(trace.snapshots[0], 1).values)
    values[offset:offset + 4] = (0.0, 0.0, 0.0, 0.0)
    here = Placement(0.3, -0.9, 0.5, PlacementPose.Standing)
    host.handle(Hello(app_version=1, room_hash=0, skeleton=trace.skeleton.to_floats()), 0, None)
    host.handle(PoseUpdate(tick=1, values=values), 1, None)
    with pytest.raises(ValueError, match="cannot normalize a near-zero quaternion"):
        host.handle(FeaturePacket(tick=1, features=extract_features(load_room(room_b_doc()), here, None)), 1, None)
    assert searches == []
    assert host.placement is None and host.goals is None


def test_rays_are_cast_only_for_the_head_and_lifted_hands(monkeypatch):
    # every effector still goes through update_fixation, but an unlifted
    # hand's ray, which it would not read, is never built
    calls, fixation = [], sim_module.update_fixation

    def recorded(tracker, effector, ray, room, dt, cfg, lifted=True):
        calls.append((effector, ray is not None, lifted))
        fixation(tracker, effector, ray, room, dt, cfg, lifted=lifted)

    monkeypatch.setattr(sim_module, "update_fixation", recorded)
    run(room_a_doc(), room_b_doc(), trace_a_script().build(), trace_b_script().build(), config=quick_config())
    assert all(has_ray == (effector is Effector.Head or lifted) for effector, has_ray, lifted in calls)
    hands = Counter((effector, lifted) for effector, _, lifted in calls if effector is not Effector.Head)
    assert hands[Effector.RightHand, True] > 0 and hands[Effector.LeftHand, False] > 0
    assert Counter(effector for effector, _, _ in calls) == {e: len(calls) // 3 for e in Effector}


def test_a_hand_without_a_unit_ray_ends_the_session_only_while_lifted():
    # A's left hand never lifts; its forward's square is subnormal from the
    # last walk on, so `EffectorSample.ray` refuses it. Unlifted, its ray is
    # never built and the session runs as it would with a sound hand.
    bad_q = np.array([3e-161, 0.5, 0.5, 3e-161])
    trace = trace_a_script().build()
    with pytest.raises(SceneError):
        EffectorSample(position=np.zeros(3), orientation=bad_q).ray()

    def with_left_hand(lifted_at):
        snaps = []
        for snap in trace.snapshots:
            hand = snap.left_hand
            if snap.tick > len(trace) // 2:
                hand = EffectorSample(hand.position, bad_q, lifted=snap.tick == lifted_at)
            snaps.append(replace(snap, left_hand=hand))
        return MotionTrace(trace.tick_rate, trace.skeleton, tuple(snaps))

    sound = run(room_a_doc(), room_b_doc(), trace, trace_b_script().build(), config=quick_config())
    odd = run(room_a_doc(), room_b_doc(), with_left_hand(None), trace_b_script().build(), config=quick_config())
    assert odd.report == sound.report
    with pytest.raises(SceneError):
        run(room_a_doc(), room_b_doc(), with_left_hand(len(trace)), trace_b_script().build(), config=quick_config())


def test_replay_checks_the_inbound_hello(base_result):
    # A's hello claims B's room: replay raises as the live peer would
    lines = base_result.transcript.splitlines()
    for i, ln in enumerate(lines):
        doc = json.loads(ln)
        if doc.get("tick") == 0 and doc.get("dir") == "a>b":
            (hello,) = decode_all(bytes.fromhex(doc["data"]))
            wrong = Hello(app_version=hello.app_version,
                          room_hash=room_hash(load_room(room_b_doc())), skeleton=hello.skeleton)
            doc["data"] = encode_frame(wrong).hex()
            lines[i] = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    with pytest.raises(PairingError, match="room hash"):
        replay("\n".join(lines), room_a_doc(), room_b_doc())


def test_tick_hooks_seen_by_the_benchmark(monkeypatch):
    # the benchmark times live ticks from PeerRuntime.begin_tick and replayed
    # ticks from runs of consecutive AvatarHost.tick_avatar calls per host
    begins, animated = [], []

    def clock(cls, name, calls, key):
        original = cls.__dict__[name]

        def wrapper(obj, *args):
            calls.append(key(obj, *args))
            return original(obj, *args)

        monkeypatch.setattr(cls, name, wrapper)

    clock(PeerRuntime, "begin_tick", begins, lambda peer, t: (t, peer.name))
    clock(AvatarHost, "tick_avatar", animated, lambda host, t, me, dt: (host, t))
    result = run(
        room_a_doc(), room_b_doc(), trace_a_script().build(), trace_b_script().build(),
        config=quick_config(latency_ticks=2),
    )
    n = result.report["ticks"]
    assert begins == [(t, name) for t in range(1, n + 1) for name in ("a", "b")]

    animated.clear()
    replay(result.transcript, room_a_doc(), room_b_doc())
    hosts = list(dict.fromkeys(host for host, _ in animated))
    assert len(hosts) == 2
    assert animated == [(host, t) for host in hosts for t in range(1, n + 1)]


# --- command line -------------------------------------------------------------


def write_fixtures(tmp_path):
    paths = {
        "room_a": tmp_path / "room_a.json",
        "room_b": tmp_path / "room_b.json",
        "trace_a": tmp_path / "trace_a.jsonl",
        "trace_b": tmp_path / "trace_b.jsonl",
    }
    paths["room_a"].write_text(json.dumps(room_a_doc()))
    paths["room_b"].write_text(json.dumps(room_b_doc()))
    save_trace(trace_a_script().build(), paths["trace_a"])
    save_trace(trace_b_script().build(), paths["trace_b"])
    return paths


def test_cli_run_then_replay_matches(tmp_path, capsys):
    paths = write_fixtures(tmp_path)
    report_1 = tmp_path / "report.json"
    transcript = tmp_path / "transcript.jsonl"
    rc = main([
        "--room-a", str(paths["room_a"]),
        "--room-b", str(paths["room_b"]),
        "--trace-a", str(paths["trace_a"]),
        "--trace-b", str(paths["trace_b"]),
        "--seed", "3",
        "--report", str(report_1),
        "--transcript", str(transcript),
    ])
    assert rc == 0
    report = json.loads(report_1.read_text())
    assert report["config"]["seed"] == 3

    report_2 = tmp_path / "replayed.json"
    rc = main([
        "--room-a", str(paths["room_a"]),
        "--room-b", str(paths["room_b"]),
        "--replay", str(transcript),
        "--report", str(report_2),
    ])
    assert rc == 0
    assert report_2.read_bytes() == report_1.read_bytes()


def blocked_room_b_doc() -> dict:
    """Room b with one box filling it and no seat: no avatar fits."""
    doc = room_b_doc()
    for o in doc["objects"]:
        o.pop("sittable", None)
        o.pop("sit_height", None)
    doc["objects"].append({"id": "fill", "category": "Other", "position": [0.0, 0.5, 0.0], "yaw": 0.0,
                           "size": [4.0, 1.0, 4.0]})
    return doc


def test_cli_reports_errors_with_exit_code(tmp_path, capsys, base_result):
    def cli(paths):
        return main([
            "--room-a", str(paths["room_a"]),
            "--room-b", str(paths["room_b"]),
            "--trace-a", str(paths["trace_a"]),
            "--trace-b", str(paths["trace_b"]),
        ])

    paths = write_fixtures(tmp_path)
    slow = TraceBuilder(tick_rate=30.0).hold(0.2).build()
    save_trace(slow, paths["trace_b"])
    assert cli(paths) == 1
    assert "error:" in capsys.readouterr().err

    paths = write_fixtures(tmp_path)
    paths["room_b"].write_text(json.dumps(blocked_room_b_doc()))
    assert cli(paths) == 1
    assert "error: room 'beta': none of the" in capsys.readouterr().err

    # a misspelled scorer-config key is refused, not silently dropped
    paths = write_fixtures(tmp_path)
    misspelled = json.dumps({"sigma_ofset": 2.0, "weigths": [1, 0, 0, 0]})
    assert main([
        "--room-a", str(paths["room_a"]),
        "--room-b", str(paths["room_b"]),
        "--trace-a", str(paths["trace_a"]),
        "--trace-b", str(paths["trace_b"]),
        "--scorer-config", misspelled,
    ]) == 1
    assert "error: unknown scorer config keys: 'sigma_ofset', 'weigths'" in capsys.readouterr().err

    # a mistyped value in a transcript header's config is refused before any
    # tick, naming the header's line
    header, rest = base_result.transcript.split("\n", 1)
    for path, value, message in ((("pso", "particles"), 64.0, "pso.particles must be an int, got 64.0"),
                                 (("tick_rate",), "60", "tick_rate must be a number, got '60'")):
        doc = json.loads(header)
        *owners, name = path
        section = doc["config"]
        for owner in owners:
            section = section[owner]
        section[name] = value
        transcript = tmp_path / "mistyped.jsonl"
        transcript.write_text(json.dumps(doc) + "\n" + rest)
        assert main(["--room-a", str(paths["room_a"]), "--room-b", str(paths["room_b"]),
                     "--replay", str(transcript)]) == 1
        assert capsys.readouterr().err == f"error: line 1: the header's config: {message}\n"


BROKEN_TRANSCRIPTS = ("header without ticks", "frames without dir", "header is an array",
                      "header with a tick too many", "config is not an object")


def broken_transcript(transcript: str, case: str) -> str:
    """`transcript` with its header or its first frames line broken as
    `case` (one of BROKEN_TRANSCRIPTS) says."""
    header, frames, rest = transcript.split("\n", 2)
    header, frames = json.loads(header), json.loads(frames)
    if case == "header without ticks":
        del header["ticks"]
    elif case == "frames without dir":
        del frames["dir"]
    elif case == "header is an array":
        header = [header]
    elif case == "header with a tick too many":
        header["ticks"] += 1
    elif case == "config is not an object":
        header["config"] = 5
    return "\n".join([json.dumps(header), json.dumps(frames), rest])


@pytest.mark.parametrize("flag, value", [
    *((flag, value) for flag in ("--room-a", "--trace-a", "--replay", "--scorer-config")
      for value in ("missing file", "directory", "{not json")),
    ("--scorer-config", '{"sigma_height": "0.5"}'),
    ("--scorer-config", '{"sigma_height": true}'),
    *(("--replay", case) for case in BROKEN_TRANSCRIPTS),
    ("--report", "missing directory"),
    ("--report", "directory"),
])
def test_cli_reports_every_input_and_output_file_error(flag, value, tmp_path, capsys, base_result):
    paths = write_fixtures(tmp_path)
    transcript = tmp_path / "session.jsonl"
    transcript.write_text(broken_transcript(base_result.transcript, value) if value in BROKEN_TRANSCRIPTS
                          else base_result.transcript)
    args = {"--room-a": paths["room_a"], "--room-b": paths["room_b"]}
    if flag in ("--replay", "--report"):
        args["--replay"] = transcript
    else:
        args.update({"--trace-a": paths["trace_a"], "--trace-b": paths["trace_b"]})
    if value not in BROKEN_TRANSCRIPTS:
        args[flag] = {"missing file": tmp_path / "absent.json", "directory": tmp_path,
                      "missing directory": tmp_path / "absent" / "report.json"}.get(value, value)
    assert main([str(part) for item in args.items() for part in item]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


def _objects(index, **fields):
    """A room-a edit that updates object `index` with `fields`."""
    return lambda doc: doc["objects"][index].update(fields)


@pytest.mark.parametrize("flag, edit, message", [
    pytest.param("--room-a", lambda doc: doc.update(id=5), "room id must be a string, got 5", id="room id"),
    pytest.param("--room-a", _objects(3, id=None), "object None: id must be a string", id="object id"),
    pytest.param("--room-a", _objects(3, pair_id={"a": 1}), "object 'sofa_a': pair_id must be a string",
                 id="pair_id"),
    pytest.param("--room-a", _objects(0, category=["Screen"]), "object 'screen_a': category must be one of",
                 id="category"),
    pytest.param("--room-a", lambda doc: doc["objects"].append(7), "objects entry must be an object, got 7",
                 id="objects entry"),
    pytest.param("--room-a", lambda doc: doc["extents"]["min"].append(99),
                 "room 'alpha': extents min must be a list of 2 numbers", id="extents min"),
    pytest.param("--room-a", lambda doc: doc["extents"]["max"].append("junk"),
                 "room 'alpha': extents max must be a list of 2 numbers", id="extents max"),
    pytest.param("--room-a", lambda doc: doc["extents"].update(min={"x": -2.5, "z": -2.0}),
                 "room 'alpha': extents min must be a list of 2 numbers", id="extents corner object"),
    pytest.param("--scorer-config", '{"sigma_height": Infinity}', "sigma_height must be finite, got inf",
                 id="scorer Infinity"),
    pytest.param("--scorer-config", '{"distance_falloff": 1e400}', "distance_falloff must be finite, got inf",
                 id="scorer 1e400"),
    pytest.param("--replay", math.inf, "tick_rate must be finite, got inf", id="header tick_rate"),
    pytest.param("--room-a", lambda doc: doc.update(extents=[[-2.5, -2.0], [2.5, 2.0]]),
                 "room 'alpha': extents must be an object with min and max", id="extents list"),
    pytest.param("--room-a", lambda doc: doc.update(objects=5), "room 'alpha': objects must be a list, got 5",
                 id="objects number"),
    pytest.param("--trace-a", lambda lines: lines.__setitem__(0, "[60.0]"),
                 "trace header must be an object, got list", id="trace header list"),
    pytest.param("--trace-a", lambda lines: lines.__setitem__(3, "[3]"),
                 "trace row 3 must be an object, got list", id="trace row list"),
])
def test_cli_names_each_mistyped_field(flag, edit, message, tmp_path, capsys, base_result):
    paths = write_fixtures(tmp_path)
    args = {"--room-a": paths["room_a"], "--room-b": paths["room_b"],
            "--trace-a": paths["trace_a"], "--trace-b": paths["trace_b"]}
    if flag == "--room-a":
        doc = room_a_doc()
        edit(doc)
        paths["room_a"].write_text(json.dumps(doc))
    elif flag == "--scorer-config":
        args[flag] = edit
    elif flag == "--trace-a":
        lines = paths["trace_a"].read_text().splitlines()
        edit(lines)
        paths["trace_a"].write_text("\n".join(lines) + "\n")
    else:
        header, rest = base_result.transcript.split("\n", 1)
        header = json.loads(header)
        header["config"]["tick_rate"] = edit
        args = {"--room-a": paths["room_a"], "--room-b": paths["room_b"], "--replay": tmp_path / "t.jsonl"}
        args["--replay"].write_text(json.dumps(header) + "\n" + rest)
    assert main([str(part) for item in args.items() for part in item]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err


def test_out_of_range_trace_coordinate_is_a_reported_error(tmp_path, capsys):
    trace = trace_b_script().build()
    snaps = list(trace.snapshots)
    root = snaps[5].root
    far = EffectorSample(np.array([1e39, *root.position[1:]]), root.orientation)
    trace = replace(trace, snapshots=(*snaps[:5], replace(snaps[5], root=far), *snaps[6:]))
    with pytest.raises(MalformedTrace, match="tick 6"):
        run(room_a_doc(), room_b_doc(), trace_a_script().build(), trace, config=quick_config())

    paths = write_fixtures(tmp_path)
    save_trace(trace, paths["trace_b"])
    rc = main([
        "--room-a", str(paths["room_a"]),
        "--room-b", str(paths["room_b"]),
        "--trace-a", str(paths["trace_a"]),
        "--trace-b", str(paths["trace_b"]),
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_requires_traces_unless_replaying(tmp_path):
    paths = write_fixtures(tmp_path)
    with pytest.raises(SystemExit):
        main(["--room-a", str(paths["room_a"]), "--room-b", str(paths["room_b"])])


def per_float_pose_update(snap, tick: int) -> PoseUpdate:
    """The wire pose quantized one float at a time through ``f32``."""
    root_q = quat_normalize(snap.root.orientation)
    root = Transform(position=np.asarray(snap.root.position, dtype=float), orientation=root_q)

    values = [*root.position, *root_q]
    for sample in (snap.head, snap.left_hand, snap.right_hand, snap.left_foot, snap.right_foot):
        values += root.inverse_apply(sample.position)
        values += quat_mul(quat_conj(root_q), quat_normalize(sample.orientation))
    return PoseUpdate(tick=tick, values=tuple(f32(float(c)) for c in values), fingers=snap.fingers)


def pose_bits(pose: PoseUpdate) -> list[str]:
    return [float.hex(v) for v in pose.values]


def test_batched_pose_quantization_matches_per_float_f32():
    def odd(p, q):
        return EffectorSample(np.array(p), np.array(q))

    snaps = list(trace_a_script().build().snapshots[::40])
    # off-unit quaternions, far-away and tiny coordinates, values beyond f32 precision
    snaps.append(UserSnapshot(
        tick=1,
        root=odd([1234.5678901, 0.9, -1e-7], [2.0, 0.1, -3.0, 0.5]),
        head=odd([0.1, 1.7, 0.2], [0.3, 0.0, 0.0, -0.1]),
        left_hand=odd([1e5, -2.0, 3.3333333333], [1.0, 1.0, 1.0, 1.0]),
        right_hand=odd([-0.0, 0.0, 1e-40], [1e-3, 0.0, 1.0, 0.0]),
        left_foot=odd([0.7, 0.0, 0.1], [0.0, 0.0, 0.0, 5.0]),
        right_foot=odd([1.0 / 3.0, 2.0 / 3.0, 0.1], [-1.0, 0.2, 0.0, 0.0]),
        fingers=b"\x05",
    ))
    assert len(snaps) >= 4
    for tick, snap in enumerate(snaps):
        got, want = pose_update_from_snapshot(snap, tick), per_float_pose_update(snap, tick)
        assert got == want
        assert pose_bits(got) == pose_bits(want)


def transform_pose_update(snap, tick: int) -> PoseUpdate:
    """Pose quantization one `Transform.inverse_apply` per effector, through
    `PoseUpdate`'s checking constructor."""
    root_q = quat_normalize(snap.root.orientation.tolist())
    root = Transform(position=tuple(snap.root.position.tolist()), orientation=root_q)
    inv_q = quat_conj(root_q)
    floats = [*root.position, *root_q]
    for sample in (snap.head, snap.left_hand, snap.right_hand, snap.left_foot, snap.right_foot):
        floats += root.inverse_apply(sample.position.tolist())
        floats += quat_mul(inv_q, quat_normalize(sample.orientation.tolist()))
    try:
        packed = POSE.pack(tick, *floats, 0)
    except (struct.error, OverflowError) as e:
        raise MalformedTrace(f"snapshot at tick {tick} does not fit the wire pose: {e}") from None
    w = POSE.unpack(packed)
    return PoseUpdate(tick=tick, values=w[1:-1], fingers=snap.fingers)


def pose_outcome(make):
    try:
        pose = make()
    except Exception as e:  # the same exception, type and message, from both
        return type(e), str(e)
    assert type(pose) is PoseUpdate and type(pose.values) is tuple and len(pose.values) == 42
    return pose.tick, struct.pack("<42d", *pose.values), pose.fingers


F32_MAX = 3.4028234663852886e38
wire_floats = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from((-0.0, 0.0, 1e-45, -1e-40, F32_MAX, -F32_MAX, 3.4028235e38, 3.5e38)),
    st.floats(3e38, 3.5e38).map(lambda v: v if v % 2 else -v),
    st.floats(allow_nan=False, allow_infinity=False),
)
non_unit_quats = st.one_of(
    st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    st.tuples(wire_floats, wire_floats, wire_floats, wire_floats),
)


@st.composite
def wire_snapshots(draw):
    def part():
        p = draw(st.tuples(wire_floats, wire_floats, wire_floats))
        return EffectorSample(np.array(p), np.array(draw(non_unit_quats)))

    return UserSnapshot(tick=1, root=part(), head=part(), left_hand=part(), right_hand=part(),
                        left_foot=part(), right_foot=part(), fingers=draw(st.binary(max_size=4)))


@settings(max_examples=400, deadline=None)
@given(snap=wire_snapshots(), tick=st.one_of(st.integers(0, 2**32 - 1), st.just(2**32)))
@example(snap=trace_a_script().build().snapshots[100], tick=7)
def test_pose_quantization_is_the_per_effector_transform_version(snap, tick):
    assert pose_outcome(lambda: pose_update_from_snapshot(snap, tick)) == \
        pose_outcome(lambda: transform_pose_update(snap, tick))


@pytest.mark.parametrize("tick, blob", [(0, b""), (3, bytes(range(256)) * 40), (2**32 - 1, b"\x00"),
                                        (10**15, b"TD\x02")])
def test_frames_line_is_the_json_line(tick, blob):
    for src, dst in (("a", "b"), ("b", "a")):
        want = _jsonl({"type": "frames", "tick": tick, "dir": f"{src}>{dst}", "data": blob.hex()})
        assert _frames_line(tick, src, dst, blob) == want


def test_the_raycast_gate_skips_most_boxes_and_changes_no_report(monkeypatch):
    office = load_room(DEMO_ROOMS / "office_a.json")
    loft = load_room(DEMO_ROOMS / "loft_b.json")
    screen_a, screen_b = [-0.4, 1.4, 1.88], [2.84, 1.5, 0.3]
    a = TraceBuilder(start=(0.5, -1.0)).hold(0.2).walk_to(0.0, 0.2).hold(0.3)
    a.gaze_at(screen_a, seconds=1.0).point_at(screen_a, side="right", raise_s=0.4, hold_s=1.0)
    b = TraceBuilder(start=(-1.0, 0.5)).hold(0.2).walk_to(0.8, 0.3).hold(0.3)
    b.gaze_at(screen_b, seconds=1.0).point_at(screen_b, side="left", raise_s=0.4, hold_s=1.0)
    traces = a.build(), b.build()
    pairs, slabs = [], []
    gated, slab = states_module.raycast, scene_module._ray_box_distance

    def counted_raycast(room, ray):
        pairs.append(len(room.objects))
        return gated(room, ray)

    def counted_slab(obj, origin, direction):
        slabs.append(obj.id)
        return slab(obj, origin, direction)

    with monkeypatch.context() as m:
        m.setattr(states_module, "raycast", counted_raycast)
        m.setattr(scene_module, "_ray_box_distance", counted_slab)
        result = run(office, loft, *traces, quick_config())
    with monkeypatch.context() as m:
        m.setattr(states_module, "raycast", ungated_raycast)
        ungated = run(office, loft, *traces, quick_config())
    assert len(pairs) > 200 and len(slabs) < sum(pairs) / 3
    assert {r["object"] for name in ("a", "b") for r in result.report["pointing"][name]} >= {
        "wall_screen", "projector_wall"}
    assert result.report_json == ungated.report_json
    assert result.transcript == ungated.transcript
