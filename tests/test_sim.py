"""Lockstep two-peer runs: determinism, transcripts, replay, and the CLI."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from twinroom.geometry import Transform, quat_conj, quat_mul, quat_normalize
from twinroom.placement import (
    GridConfig,
    Placement,
    PlacementPose,
    PsoConfig,
    extract_features,
    feasible,
    feature_to_json,
)
from twinroom.protocol import Hello, PoseUpdate, ProtocolError, WireTransform, decode_all, f32
from twinroom.retarget import Skeleton
from twinroom.scene import PairingError, load_room, room_hash
from twinroom.sim import (
    PARTNER_HEAD_ID,
    PeerRuntime,
    ReplayDivergence,
    SimConfig,
    bench_main,
    canonical_report_json,
    main,
    pose_update_from_snapshot,
    replay,
    run,
)
from twinroom.states import EffectorSample, UserSnapshot
from twinroom.traces import TraceBuilder, save_trace


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
    from twinroom.protocol import PlacementAnnounce, encode_frame

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
        trace_a_script().build(), config, None,
    )
    peer.begin_tick(1)
    wrong = Hello(
        app_version=config.app_version + 1,
        room_hash=room_hash(load_room(room_b_doc())),
        skeleton=Skeleton().to_floats(),
    )
    with pytest.raises(ProtocolError, match="app version"):
        peer.handle_inbound([wrong], 1)


def test_hello_room_hash_mismatch_raises():
    config = quick_config()
    peer = PeerRuntime(
        "a", load_room(room_a_doc()), load_room(room_b_doc()),
        trace_a_script().build(), config, None,
    )
    peer.begin_tick(1)
    wrong = Hello(
        app_version=config.app_version,
        room_hash=room_hash(load_room(room_a_doc())),  # its own room, not the peer's
        skeleton=Skeleton().to_floats(),
    )
    with pytest.raises(PairingError, match="room hash"):
        peer.handle_inbound([wrong], 1)


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


def test_cli_reports_errors_with_exit_code(tmp_path, capsys):
    paths = write_fixtures(tmp_path)
    slow = TraceBuilder(tick_rate=30.0).hold(0.2).build()
    save_trace(slow, paths["trace_b"])
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


def test_bench_cli_prints_split_timings(tmp_path, capsys):
    room = load_room(room_a_doc())
    features = extract_features(
        room, Placement(x=0.0, z=0.0, yaw=0.0, pose=PlacementPose.Standing), None
    )
    feature_path = tmp_path / "features.json"
    feature_path.write_text(json.dumps(feature_to_json(features)))
    room_path = tmp_path / "room.json"
    room_path.write_text(json.dumps(room_a_doc()))
    rc = bench_main([
        "--room", str(room_path),
        "--features", str(feature_path),
        "--reps", "2",
        "--seed", "1",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "grid" in out and "refine" in out and "best:" in out


def test_bench_cli_rejects_zero_reps(tmp_path, capsys):
    room = load_room(room_a_doc())
    features = extract_features(
        room, Placement(x=0.0, z=0.0, yaw=0.0, pose=PlacementPose.Standing), None
    )
    feature_path = tmp_path / "features.json"
    feature_path.write_text(json.dumps(feature_to_json(features)))
    room_path = tmp_path / "room.json"
    room_path.write_text(json.dumps(room_a_doc()))
    rc = bench_main([
        "--room", str(room_path), "--features", str(feature_path), "--reps", "0",
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def per_float_pose_update(snap, tick: int) -> PoseUpdate:
    """The wire pose quantized one float at a time through ``f32``."""
    root_q = quat_normalize(snap.root.orientation)
    root = Transform(position=np.asarray(snap.root.position, dtype=float), orientation=root_q)

    def wire(p, q) -> WireTransform:
        return WireTransform(position=tuple(f32(float(c)) for c in p), orientation=tuple(f32(float(c)) for c in q))

    def rel(sample) -> WireTransform:
        return wire(root.inverse_apply(sample.position),
                    quat_mul(quat_conj(root_q), quat_normalize(sample.orientation)))

    return PoseUpdate(
        tick=tick,
        root=wire(root.position, root_q),
        head=rel(snap.head),
        left_hand=rel(snap.left_hand),
        right_hand=rel(snap.right_hand),
        left_foot=rel(snap.left_foot),
        right_foot=rel(snap.right_foot),
        fingers=snap.fingers,
    )


def pose_bits(pose: PoseUpdate) -> list[str]:
    parts = (pose.root, pose.head, pose.left_hand, pose.right_hand, pose.left_foot, pose.right_foot)
    return [float.hex(v) for wt in parts for v in (*wt.position, *wt.orientation)]


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
