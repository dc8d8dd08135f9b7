"""Two-peer lockstep session: wire both users together and host each one's
avatar in the other's room.

Each simulated tick runs the same fixed pipeline on both peers:

1. read the local motion-trace snapshot and quantize it into this tick's
   outbound pose update;
2. deliver whatever the peer sent `1 + latency_ticks` ago and react to it
   (placement requests run the search here, against this room);
3. advance the local locomotion/fixation machinery on the raw snapshot;
4. emit the outbound batch (pose, plus deduplicated state/target changes and
   any queued feature or placement messages);
5. animate the partner's avatar from its latest wire state.

Everything on the avatar side of that split is derived exclusively from wire
bytes, the local room, and the run config. That discipline is what makes
`replay` work: given only the transcript and the two rooms it rebuilds the
full report, placement searches included, bit for bit.
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
from collections import Counter, deque
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .geometry import (
    Transform,
    point_to_line_distance,
    quat_conj,
    quat_from_yaw,
    quat_mul,
    quat_normalize,
    quat_rotate,
    yaw_of,
)
from .placement import (
    DefaultScorer,
    FeatureVector,
    GridConfig,
    PartnerPose,
    Placement,
    PlacementPose,
    PsoConfig,
    ScorerConfig,
    extract_features,
    feature_from_json,
    find_placement,
    scorer_config_from_json,
)
from .protocol import (
    FeaturePacket,
    Hello,
    Phase,
    PlacementAnnounce,
    PoseUpdate,
    ProtocolError,
    Session,
    StateChange,
    TargetUpdate,
    WireTransform,
    decode_all,
    f32,
)
from .retarget import (
    IkGoals,
    InterpState,
    RetargetConfig,
    Skeleton,
    avatar_tick,
    vertical_compensation,
)
from .scene import (
    ObjectCategory,
    PairingError,
    SceneError,
    SceneObject,
    denormalize_hit,
    load_room,
    room_hash,
    validate_pairing,
)
from .states import (
    Effector,
    FixationTracker,
    SpeedWindow,
    StateConfig,
    StateEvent,
    UserState,
    acquire_targets,
    classify_state,
    pelvis_speed,
    step_locomotion,
    update_fixation,
)
from .traces import MalformedTrace, MotionTrace, load_trace

# Reserved target id: the hosted avatar's head, gazeable/pointable like any
# paired object but resolved by the receiver to its *own* user's live head.
PARTNER_HEAD_ID = "@partner-head"

_PEER_CODE = {"a": 0, "b": 1}
_OTHER = {"a": "b", "b": "a"}
TRANSCRIPT_VERSION = 1
REPORT_VERSION = 1


class ReplayDivergence(RuntimeError):
    """A transcript and the rooms/config no longer agree with each other."""


class EmptyBenchmark(ValueError):
    """Benchmark asked to run zero repetitions."""


# --- configuration -----------------------------------------------------------

@dataclass(frozen=True)
class SimConfig:
    """Everything that shapes a run besides the rooms and traces themselves.

    The whole config is embedded in transcripts and reports, so a replay
    needs nothing else to reproduce a run.
    """

    tick_rate: float = 60.0
    latency_ticks: int = 0
    seed: int = 0
    app_version: int = 1
    # root height below which a placement request asks for a seated avatar
    sitting_root_height: float = 0.8
    state: StateConfig = field(default_factory=StateConfig)
    scorer: ScorerConfig = field(default_factory=ScorerConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    pso: PsoConfig = field(default_factory=PsoConfig)
    retarget: RetargetConfig = field(default_factory=RetargetConfig)

    def __post_init__(self):
        if self.tick_rate <= 0.0:
            raise ValueError("tick_rate must be positive")
        if self.latency_ticks < 0:
            raise ValueError("latency_ticks must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 0 <= self.app_version <= 0xFFFF:
            raise ValueError("app_version must fit in 16 bits")
        if self.sitting_root_height <= 0.0:
            raise ValueError("sitting_root_height must be positive")

    def to_dict(self) -> dict:
        s, sc, g, p, r = self.state, self.scorer, self.grid, self.pso, self.retarget
        return {
            "app_version": self.app_version,
            "latency_ticks": self.latency_ticks,
            "seed": self.seed,
            "sitting_root_height": self.sitting_root_height,
            "tick_rate": self.tick_rate,
            "state": {
                "locomotion_threshold": s.locomotion_threshold,
                "stop_threshold": s.stop_threshold,
                "fixation_threshold": s.fixation_threshold,
                "v_threshold": s.v_threshold,
                "omega_threshold": s.omega_threshold,
                "condition_period": s.condition_period,
                "speed_window": s.speed_window,
                "lift_height": s.lift_height,
                "lift_pitch": s.lift_pitch,
            },
            "scorer": {
                "sigma_offset": sc.sigma_offset,
                "sigma_facing": sc.sigma_facing,
                "sigma_height": sc.sigma_height,
                "distance_falloff": sc.distance_falloff,
                "weights": list(sc.weights),
            },
            "grid": {"cell": g.cell, "yaw_count": g.yaw_count},
            "pso": {
                "particles": p.particles,
                "iterations": p.iterations,
                "inertia": p.inertia,
                "cognitive": p.cognitive,
                "social": p.social,
                "position_radius": p.position_radius,
                "yaw_radius": p.yaw_radius,
            },
            "retarget": {
                "elevation_offset": r.elevation_offset,
                "interp_speed": r.interp_speed,
                "calibration_ratio": r.calibration_ratio,
                "elbow_hint": list(r.elbow_hint),
                "knee_hint": list(r.knee_hint),
            },
        }

    @staticmethod
    def from_dict(doc: dict) -> "SimConfig":
        scorer = dict(doc["scorer"])
        scorer["weights"] = tuple(scorer["weights"])
        retarget = dict(doc["retarget"])
        retarget["elbow_hint"] = tuple(retarget["elbow_hint"])
        retarget["knee_hint"] = tuple(retarget["knee_hint"])
        return SimConfig(
            tick_rate=float(doc["tick_rate"]),
            latency_ticks=int(doc["latency_ticks"]),
            seed=int(doc["seed"]),
            app_version=int(doc["app_version"]),
            sitting_root_height=float(doc["sitting_root_height"]),
            state=StateConfig(**doc["state"]),
            scorer=ScorerConfig(**scorer),
            grid=GridConfig(**doc["grid"]),
            pso=PsoConfig(**doc["pso"]),
            retarget=RetargetConfig(**retarget),
        )


# --- wire/pose plumbing --------------------------------------------------------

def _wire_to_transform(wt: WireTransform) -> Transform:
    return Transform(
        position=np.array(wt.position, dtype=float),
        orientation=quat_normalize(np.array(wt.orientation, dtype=float)),
    )


# root then the five effectors, each position (3) + orientation (4)
_POSE_F32 = struct.Struct("<42f")


def pose_update_from_snapshot(snap, tick: int) -> PoseUpdate:
    """Quantize a trace snapshot into the wire pose: world root plus five
    root-relative effectors, every float already rounded to 32 bits so the
    sender computes with exactly what the receiver will see. One pack and
    unpack of all 42 floats rounds each exactly as `f32` does."""
    root_q = quat_normalize(snap.root.orientation)
    root = Transform(position=np.asarray(snap.root.position, dtype=float), orientation=root_q)
    inv_q = quat_conj(root_q)
    floats = root.position.tolist() + root_q.tolist()
    for sample in (snap.head, snap.left_hand, snap.right_hand, snap.left_foot, snap.right_foot):
        floats += root.inverse_apply(sample.position).tolist()
        floats += quat_mul(inv_q, quat_normalize(sample.orientation)).tolist()
    w = _POSE_F32.unpack(_POSE_F32.pack(*floats))
    root_w, head, left_hand, right_hand, left_foot, right_foot = (
        WireTransform(position=w[i:i + 3], orientation=w[i + 3:i + 7]) for i in range(0, 42, 7)
    )
    return PoseUpdate(tick=tick, root=root_w, head=head, left_hand=left_hand, right_hand=right_hand,
                      left_foot=left_foot, right_foot=right_foot, fingers=snap.fingers)


@dataclass(frozen=True)
class AnchoredBody:
    """The remote user's root and hands mapped into the local room. Rigid, so
    distances and relative orientations match the user's body exactly."""

    root: Transform
    left_hand: Transform
    right_hand: Transform


# --- avatar hosting -----------------------------------------------------------

class AvatarHost:
    """Run the remote user's avatar inside the local room.

    State here is fed only by wire messages plus the local user's own
    (wire-quantized) pose updates; no raw trace data may leak in, or replays
    would diverge from the live run.
    """

    def __init__(self, room, config: SimConfig, scorer, owner_code: int):
        self.room = room
        self.cfg = config
        self.scorer = scorer if scorer is not None else DefaultScorer(config.scorer)
        self.owner_code = owner_code  # seeds the per-episode search rng
        self.skeleton: Skeleton | None = None
        self.pose: PoseUpdate | None = None
        self.state: UserState = UserState.Solo
        self.hand_targets: dict[str, tuple[str, tuple[float, float, float]] | None] = {
            "left": None,
            "right": None,
        }
        self.head_target: tuple[str, tuple[float, float, float]] | None = None
        self.placement: Placement | None = None
        self.frozen: tuple[Placement, float] | None = None  # walk-in-place lock
        self.interp = InterpState(speed=config.retarget.interp_speed)
        self._anchor_user_pos = np.zeros(3)
        self._anchor_avatar_pos = np.zeros(3)
        self._delta_q = quat_from_yaw(0.0)
        # remote object id -> the local counterpart it is paired with
        self._pair_of = {o.pair_id: o for o in room.objects if o.pair_id is not None}
        self.episodes: list[dict] = []
        self.search: list[dict] = []
        self.pointing_rows: list[dict] = []
        self._open: dict[str, dict | None] = {"left": None, "right": None}
        self.timings: list[dict] = []

    # -- inbound message handling

    def handle(self, msg, tick: int, my_pose: PoseUpdate | None) -> Placement | None:
        """Apply one inbound message; returns the new placement when the
        message was a feature packet that triggered a search."""
        if isinstance(msg, Hello):
            self.skeleton = Skeleton.from_floats(msg.skeleton)
        elif isinstance(msg, PoseUpdate):
            self.pose = msg
        elif isinstance(msg, StateChange):
            self._on_state(msg.state)
        elif isinstance(msg, TargetUpdate):
            entry = (msg.object_id, msg.uvw) if msg.active else None
            if msg.effector is Effector.Head:
                self.head_target = entry
            elif msg.effector is Effector.LeftHand:
                self.hand_targets["left"] = entry
            else:
                self.hand_targets["right"] = entry
        elif isinstance(msg, FeaturePacket):
            return self._place(msg.features, tick, my_pose)
        return None  # PlacementAnnounce / Bye carry no avatar-side state

    def _on_state(self, new: UserState) -> None:
        if new is UserState.Locomotion:
            root = self.avatar_root()
            if root is not None:
                locked = Placement(
                    x=float(root.position[0]),
                    z=float(root.position[2]),
                    yaw=yaw_of(root.orientation),
                    pose=self.placement.pose,
                )
                self.frozen = (locked, float(root.position[1]))
        else:
            self.frozen = None
        self.state = new

    def _place(self, features: FeatureVector, tick: int, my_pose: PoseUpdate | None) -> Placement:
        partner = None
        if my_pose is not None:
            rt = _wire_to_transform(my_pose.root)
            partner = PartnerPose(
                x=float(rt.position[0]), z=float(rt.position[2]), yaw=yaw_of(rt.orientation)
            )
        episode = len(self.episodes)
        seq = np.random.SeedSequence([self.cfg.seed, self.owner_code, episode])
        result = find_placement(
            self.room,
            features,
            self.scorer,
            partner,
            grid_config=self.cfg.grid,
            pso_config=self.cfg.pso,
            rng=np.random.Generator(np.random.PCG64(seq)),
        )
        # quantize before anchoring so the avatar stands exactly where the
        # wire announcement says it does
        q = Placement(
            x=f32(result.placement.x),
            z=f32(result.placement.z),
            yaw=f32(result.placement.yaw),
            pose=result.placement.pose,
        )
        rt = _wire_to_transform(self.pose.root)  # batches lead with the pose
        self._anchor_user_pos = rt.position.copy()
        self._anchor_avatar_pos = np.array([q.x, float(rt.position[1]), q.z])
        self._delta_q = quat_from_yaw(q.yaw - yaw_of(rt.orientation))
        self.placement = q
        self.frozen = None
        # aim transitions must not bridge a teleport
        self.interp = InterpState(speed=self.cfg.retarget.interp_speed)
        self.episodes.append(
            {
                "episode": episode,
                "tick": tick,
                "x": q.x,
                "z": q.z,
                "yaw": q.yaw,
                "pose": q.pose.name,
            }
        )
        self.search.append(
            {
                "episode": episode,
                "score": float(result.score),
                "grid_score": float(result.grid_score),
                "candidates_per_pose": result.grid_candidates_per_pose,
                "grid_evaluated": result.grid_evaluated,
                "pso_evaluated": result.pso_evaluated,
            }
        )
        self.timings.append(
            {
                "episode": episode,
                "tick": tick,
                "grid_ms": result.grid_time_s * 1e3,
                "pso_ms": result.pso_time_s * 1e3,
            }
        )
        return q

    # -- anchored frame

    def avatar_root(self) -> Transform | None:
        """Remote root mapped through the placement anchor, or None while the
        avatar has nowhere to stand yet."""
        if self.placement is None or self.pose is None:
            return None
        rt = _wire_to_transform(self.pose.root)
        pos = self._anchor_avatar_pos + quat_rotate(self._delta_q, rt.position - self._anchor_user_pos)
        return Transform(position=pos, orientation=quat_mul(self._delta_q, rt.orientation))

    def avatar_head_world(self) -> np.ndarray | None:
        root = self.avatar_root()
        if root is None:
            return None
        return root.apply(np.array(self.pose.head.position, dtype=float))

    def partner_pose(self) -> PartnerPose | None:
        """The hosted avatar as an interpersonal reference for the local
        user's own feature extraction."""
        root = self.avatar_root()
        if root is None:
            return None
        return PartnerPose(
            x=float(root.position[0]), z=float(root.position[2]), yaw=yaw_of(root.orientation)
        )

    # -- per-tick animation

    def tick_avatar(self, tick: int, my_pose: PoseUpdate | None, dt: float) -> None:
        if self.placement is None or self.pose is None or self.skeleton is None:
            return
        root = self.avatar_root()
        goals = IkGoals(
            root=root,
            head=_wire_to_transform(self.pose.head),
            left_hand=_wire_to_transform(self.pose.left_hand),
            right_hand=_wire_to_transform(self.pose.right_hand),
            left_foot=_wire_to_transform(self.pose.left_foot),
            right_foot=_wire_to_transform(self.pose.right_foot),
            fingers=self.pose.fingers,
        )
        rcfg = self.cfg.retarget
        eye = root.apply(np.array(self.pose.head.position, dtype=float))
        resolved: dict[str, np.ndarray | None] = {}
        for side in ("left", "right"):
            point = self._resolve(self.hand_targets[side], my_pose)
            resolved[side] = None if point is None else vertical_compensation(point, eye, rcfg)
        head_point = self._resolve(self.head_target, my_pose)  # gaze is never re-pitched

        if self.frozen is not None:
            locked, locked_y = self.frozen
        else:
            locked, locked_y = self.placement, float(root.position[1])
        body = AnchoredBody(
            root=root,
            left_hand=_world_of(root, self.pose.left_hand),
            right_hand=_world_of(root, self.pose.right_hand),
        )
        result = avatar_tick(
            self.skeleton,
            self.state,
            goals,
            locked,
            locked_y,
            resolved,
            head_point,
            self.interp,
            dt,
            rcfg,
            snapshot=body,
        )
        self._sample_pointing(tick, result, resolved)

    def _resolve(self, entry, my_pose: PoseUpdate | None) -> np.ndarray | None:
        """Wire target -> world point in this room: the paired counterpart's
        corresponding surface spot, or the local user's live head."""
        if entry is None:
            return None
        oid, uvw = entry
        if oid == PARTNER_HEAD_ID:
            if my_pose is None:
                return None
            rt = _wire_to_transform(my_pose.root)
            return rt.apply(np.array(my_pose.head.position, dtype=float))
        obj = self._pair_of.get(oid)
        if obj is None:
            return None
        return denormalize_hit(obj, uvw)

    def _sample_pointing(self, tick: int, result, resolved) -> None:
        for side in ("left", "right"):
            entry = self.hand_targets[side]
            oid = entry[0] if entry is not None else None
            row = self._open[side]
            if row is not None and row["object"] != oid:
                self._close(side)
                row = None
            if oid is None:
                continue
            got = result.pointing.get(side)
            if got is None:
                continue
            t, solution = got
            if t < 1.0:  # arm still easing toward the aim
                continue
            miss = point_to_line_distance(resolved[side], solution.shoulder, solution.aim)
            if row is None:
                row = {
                    "side": side,
                    "object": oid,
                    "first_tick": tick,
                    "last_tick": tick,
                    "samples": 0,
                    "max_miss": 0.0,
                    "_sum": 0.0,
                }
                self._open[side] = row
            row["samples"] += 1
            row["last_tick"] = tick
            row["_sum"] += miss
            if miss > row["max_miss"]:
                row["max_miss"] = miss

    def _close(self, side: str) -> None:
        row = self._open[side]
        if row is None:
            return
        total = row.pop("_sum")
        row["mean_miss"] = total / row["samples"] if row["samples"] else 0.0
        self.pointing_rows.append(row)
        self._open[side] = None

    def flush_pointing(self) -> None:
        for side in ("left", "right"):
            self._close(side)


def _world_of(root: Transform, wt: WireTransform) -> Transform:
    rel = _wire_to_transform(wt)
    return Transform(
        position=root.apply(rel.position),
        orientation=quat_mul(root.orientation, rel.orientation),
    )


# --- live peer ------------------------------------------------------------------

class PeerRuntime:
    """One live endpoint: trace in, wire frames out, partner avatar hosted."""

    def __init__(self, name: str, room, remote_room, trace: MotionTrace, config: SimConfig, scorer):
        self.name = name
        self.room = room
        self.expected_remote_hash = room_hash(remote_room)
        self.trace = trace
        self.cfg = config
        self.dt = 1.0 / config.tick_rate
        self.session = Session(config.app_version, room_hash(room), trace.skeleton.to_floats())
        self.host = AvatarHost(room, config, scorer, owner_code=1 - _PEER_CODE[name])
        self.window = SpeedWindow(config.tick_rate, config.state.speed_window)
        self.tracker = FixationTracker(config.tick_rate, config.state)
        self.loco = UserState.Solo
        self.reported = UserState.Solo
        self.state_now = UserState.Solo
        self.transitions: list[dict] = []
        self.pending_features: deque[FeatureVector] = deque()
        self.pending_announce: deque[Placement] = deque()
        self.snap = None
        self.my_pose: PoseUpdate | None = None
        self.emitted_pose: PoseUpdate | None = None
        self.targets = {Effector.Head: None, Effector.LeftHand: None, Effector.RightHand: None}

    def begin_tick(self, t: int) -> None:
        snap = self.trace.snapshots[t - 1]
        if snap.tick != t:
            raise MalformedTrace(f"trace {self.name!r} snapshot {snap.tick} at slot {t}")
        self.snap = snap
        self.my_pose = pose_update_from_snapshot(snap, t)
        self.emitted_pose = None

    def handle_inbound(self, msgs, t: int) -> None:
        for msg in msgs:
            if isinstance(msg, Hello):
                if msg.app_version != self.cfg.app_version:
                    raise ProtocolError(
                        f"peer runs app version {msg.app_version}, expected {self.cfg.app_version}"
                    )
                if msg.room_hash != self.expected_remote_hash:
                    raise PairingError(
                        f"peer announces room hash {msg.room_hash:016x}, which is not the "
                        f"room this peer's pairing table was built against"
                    )
            placed = self.host.handle(msg, t, self.my_pose)
            if placed is not None:
                self.pending_announce.append(placed)

    def step_local(self, t: int) -> None:
        snap = self.snap
        self.window.push(t, snap.root.position)
        if self.session.phase is not Phase.Live:
            return  # warm the speed window, but stay silent until both hellos
        speed = pelvis_speed(self.window) if len(self.window) >= 2 else 0.0
        self.loco, events = step_locomotion(self.loco, speed, self.cfg.state)
        for ev in events:
            if ev is StateEvent.StartWIP:
                self.tracker.clear_all()
            elif ev is StateEvent.RequestPlacement:
                self.pending_features.append(self._request_features())
            # Teleport completes when the peer's placement answer re-anchors

        room = self._fixation_room()
        if self.loco is not UserState.Locomotion:
            update_fixation(self.tracker, Effector.Head, snap.head.ray(), room, self.dt, self.cfg.state)
            for side in (Effector.LeftHand, Effector.RightHand):
                hand = snap.hand(side)
                update_fixation(
                    self.tracker, side, hand.ray(), room, self.dt, self.cfg.state, lifted=hand.lifted
                )
        self.targets = acquire_targets(self.tracker, snap, room, self.cfg.state)
        self.state_now = classify_state(self.loco, self.targets)
        if self.state_now is not self.reported:
            self.transitions.append({"tick": t, "state": self.state_now.name})
            self.reported = self.state_now

    def _request_features(self) -> FeatureVector:
        pos = self.snap.root.position
        pose = (
            PlacementPose.Sitting
            if float(pos[1]) < self.cfg.sitting_root_height
            else PlacementPose.Standing
        )
        here = Placement(
            x=float(pos[0]), z=float(pos[2]), yaw=yaw_of(self.snap.root.orientation), pose=pose
        )
        return extract_features(self.room, here, self.host.partner_pose())

    def _fixation_room(self):
        head = self.host.avatar_head_world()
        if head is None:
            return self.room
        box = SceneObject(
            id=PARTNER_HEAD_ID,
            category=ObjectCategory.Other,
            position=head,
            yaw=0.0,
            size=np.array([0.25, 0.25, 0.25]),
            pair_id=PARTNER_HEAD_ID,
        )
        return self.room.with_extra([box])

    def emit(self, t: int) -> bytes | None:
        if self.session.phase is not Phase.Live:
            return None
        wire_targets = {
            eff: ((entry[0], entry[1].uvw) if entry is not None else None)
            for eff, entry in self.targets.items()
        }
        features = self.pending_features.popleft() if self.pending_features else None
        announce = None
        if self.pending_announce:
            q = self.pending_announce.popleft()
            announce = PlacementAnnounce(tick=t, x=q.x, z=q.z, yaw=f32(q.yaw), pose=q.pose)
        frames = self.session.tick(
            t, self.my_pose, self.state_now, targets=wire_targets, features=features, placement=announce
        )
        self.emitted_pose = self.my_pose
        return b"".join(frames)


# --- running --------------------------------------------------------------------

@dataclass(frozen=True)
class SimResult:
    report: dict
    report_json: str
    transcript: str
    timings: tuple[dict, ...]  # wall-clock search times; deliberately not in the report


def canonical_report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def _jsonl(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _header_line(config: SimConfig, room_a, room_b, ticks: int) -> str:
    return _jsonl(
        {
            "type": "header",
            "version": TRANSCRIPT_VERSION,
            "config": config.to_dict(),
            "rooms": {"a": f"{room_hash(room_a):016x}", "b": f"{room_hash(room_b):016x}"},
            "ticks": ticks,
        }
    )


def _frames_line(tick: int, src: str, dst: str, blob: bytes) -> str:
    return _jsonl({"type": "frames", "tick": tick, "dir": f"{src}>{dst}", "data": blob.hex()})


def _room_summary(room) -> dict:
    return {"id": room.id, "hash": f"{room_hash(room):016x}", "objects": len(room.objects)}


def _assemble_report(config, room_a, room_b, ticks, episodes, search, pointing, transitions, protocol) -> dict:
    return {
        "version": REPORT_VERSION,
        "ticks": ticks,
        "config": config.to_dict(),
        "rooms": {"a": _room_summary(room_a), "b": _room_summary(room_b)},
        "episodes": episodes,
        "search": search,
        "pointing": pointing,
        "transitions": transitions,
        "protocol": protocol,
    }


def _pad_trace(trace: MotionTrace, n: int) -> MotionTrace:
    if len(trace) >= n:
        return trace
    snaps = list(trace.snapshots)
    last = snaps[-1]
    for t in range(len(snaps) + 1, n + 1):
        snaps.append(replace(last, tick=t))
    return MotionTrace(tick_rate=trace.tick_rate, skeleton=trace.skeleton, snapshots=tuple(snaps))


def run(room_a, room_b, trace_a, trace_b, config: SimConfig | None = None, scorer=None) -> SimResult:
    """Simulate both peers in lockstep over the full traces.

    The shorter trace is padded by holding its final snapshot so the peers
    stay in lockstep. Returns the canonical report, the wire transcript, and
    per-search wall-clock timings.
    """
    room_a = load_room(room_a)
    room_b = load_room(room_b)
    trace_a = load_trace(trace_a)
    trace_b = load_trace(trace_b)
    if trace_a.tick_rate != trace_b.tick_rate:
        raise ValueError(
            f"traces disagree on tick rate: {trace_a.tick_rate} vs {trace_b.tick_rate}"
        )
    if config is None:
        config = SimConfig(tick_rate=trace_a.tick_rate)
    elif config.tick_rate != trace_a.tick_rate:
        raise ValueError(
            f"config tick rate {config.tick_rate} does not match traces ({trace_a.tick_rate})"
        )
    validate_pairing(room_a, room_b)

    n = max(len(trace_a), len(trace_b))
    trace_a = _pad_trace(trace_a, n)
    trace_b = _pad_trace(trace_b, n)

    peers = {
        "a": PeerRuntime("a", room_a, room_b, trace_a, config, scorer),
        "b": PeerRuntime("b", room_b, room_a, trace_b, config, scorer),
    }
    latency = config.latency_ticks
    lines = [_header_line(config, room_a, room_b, n)]
    inbox: dict[str, dict[int, bytearray]] = {"a": {}, "b": {}}

    def post(src: str, tick: int, blob: bytes) -> None:
        lines.append(_frames_line(tick, src, _OTHER[src], blob))
        inbox[_OTHER[src]].setdefault(tick + 1 + latency, bytearray()).extend(blob)

    for name in ("a", "b"):
        post(name, 0, peers[name].session.hello_frame())

    for t in range(1, n + 1):
        for name in ("a", "b"):
            peers[name].begin_tick(t)
        for name in ("a", "b"):
            data = bytes(inbox[name].pop(t, b""))
            if data:
                peers[name].handle_inbound(peers[name].session.feed(data), t)
        for name in ("a", "b"):
            peers[name].step_local(t)
        for name in ("a", "b"):
            blob = peers[name].emit(t) or b""
            if t == n:
                blob += peers[name].session.bye_frame()
            if blob:
                post(name, t, blob)
        for name in ("a", "b"):
            p = peers[name]
            p.host.tick_avatar(t, p.emitted_pose, p.dt)

    # drain: everything already on the wire still arrives, nothing new moves
    for t in range(n + 1, n + 2 + latency):
        for name in ("a", "b"):
            data = bytes(inbox[name].pop(t, b""))
            if data:
                peers[name].handle_inbound(peers[name].session.feed(data), t)

    for name in ("a", "b"):
        peers[name].host.flush_pointing()

    report = _assemble_report(
        config,
        room_a,
        room_b,
        n,
        episodes={"a": peers["b"].host.episodes, "b": peers["a"].host.episodes},
        search={"a": peers["b"].host.search, "b": peers["a"].host.search},
        pointing={"a": peers["b"].host.pointing_rows, "b": peers["a"].host.pointing_rows},
        transitions={"a": peers["a"].transitions, "b": peers["b"].transitions},
        protocol={
            name: {
                "sent": dict(peers[name].session.sent),
                "received": dict(peers[name].session.received),
                "phase": peers[name].session.phase.name,
            }
            for name in ("a", "b")
        },
    )
    timings = tuple(
        {"peer": name, **row} for name in ("a", "b") for row in peers[name].host.timings
    )
    return SimResult(
        report=report,
        report_json=canonical_report_json(report),
        transcript="\n".join(lines) + "\n",
        timings=timings,
    )


# --- replay ----------------------------------------------------------------------

def replay(transcript, room_a, room_b) -> dict:
    """Rebuild the full run report from a transcript and the two rooms.

    Placement searches are re-run from the wire feature packets with the
    seeds recorded in the embedded config, and cross-checked against the
    announcements actually sent; any disagreement raises ReplayDivergence.
    """
    rooms = {"a": load_room(room_a), "b": load_room(room_b)}
    text = transcript
    if isinstance(transcript, Path):
        text = transcript.read_text()
    elif isinstance(transcript, str) and not transcript.lstrip().startswith("{"):
        p = Path(transcript)
        if not p.exists():
            raise ReplayDivergence(f"transcript file not found: {transcript}")
        text = p.read_text()
    lines = [json.loads(ln) for ln in str(text).splitlines() if ln.strip()]
    if not lines or lines[0].get("type") != "header":
        raise ReplayDivergence("transcript does not start with a header line")
    header = lines[0]
    if header.get("version") != TRANSCRIPT_VERSION:
        raise ReplayDivergence(f"unsupported transcript version {header.get('version')!r}")
    config = SimConfig.from_dict(header["config"])
    n = int(header["ticks"])
    for name in ("a", "b"):
        have = f"{room_hash(rooms[name]):016x}"
        if header["rooms"][name] != have:
            raise ReplayDivergence(
                f"room {name!r} hash {have} does not match transcript {header['rooms'][name]}"
            )

    sends: dict[str, dict[int, bytearray]] = {"a": {}, "b": {}}  # keyed by sender
    for doc in lines[1:]:
        if doc.get("type") != "frames":
            raise ReplayDivergence(f"unexpected transcript entry type {doc.get('type')!r}")
        src = doc["dir"].split(">", 1)[0]
        if src not in sends:
            raise ReplayDivergence(f"unknown direction {doc['dir']!r}")
        sends[src].setdefault(int(doc["tick"]), bytearray()).extend(bytes.fromhex(doc["data"]))

    sections = {name: _replay_peer(name, rooms[name], config, sends, n) for name in ("a", "b")}

    return _assemble_report(
        config,
        rooms["a"],
        rooms["b"],
        n,
        episodes={"a": sections["b"]["host"].episodes, "b": sections["a"]["host"].episodes},
        search={"a": sections["b"]["host"].search, "b": sections["a"]["host"].search},
        pointing={"a": sections["b"]["host"].pointing_rows, "b": sections["a"]["host"].pointing_rows},
        transitions={name: sections[name]["transitions"] for name in ("a", "b")},
        protocol={
            name: {
                "sent": dict(sections[name]["sent"]),
                "received": dict(sections[name]["session"].received),
                "phase": sections[name]["session"].phase.name,
            }
            for name in ("a", "b")
        },
    )


def _replay_peer(name: str, my_room, config: SimConfig, sends, n: int) -> dict:
    other = _OTHER[name]
    sent: Counter = Counter()
    poses: dict[int, PoseUpdate] = {}
    transitions: list[dict] = []
    announced: list[PlacementAnnounce] = []
    my_hello: Hello | None = None
    for tick in sorted(sends[name]):
        for msg in decode_all(bytes(sends[name][tick])):
            sent[type(msg).__name__] += 1
            if isinstance(msg, PoseUpdate):
                poses[msg.tick] = msg
            elif isinstance(msg, StateChange):
                transitions.append({"tick": msg.tick, "state": msg.state.name})
            elif isinstance(msg, PlacementAnnounce):
                announced.append(msg)
            elif isinstance(msg, Hello):
                my_hello = msg
    if my_hello is None:
        raise ReplayDivergence(f"peer {name!r} sent no hello in the transcript")

    session = Session(config.app_version, room_hash(my_room), my_hello.skeleton)
    session.hello_frame()  # mirror the live handshake; the bytes are already on record
    host = AvatarHost(my_room, config, None, owner_code=_PEER_CODE[other])

    deliver = {
        tick + 1 + config.latency_ticks: bytes(blob) for tick, blob in sends[other].items()
    }
    dt = 1.0 / config.tick_rate
    recomputed: list[Placement] = []
    for t in range(1, n + 2 + config.latency_ticks):
        my_pose = poses.get(t)
        data = deliver.get(t)
        if data:
            for msg in session.feed(data):
                q = host.handle(msg, t, my_pose)
                if q is not None:
                    recomputed.append(q)
        if t <= n:
            host.tick_avatar(t, my_pose, dt)
    host.flush_pointing()

    # announcements are emitted in computation order; features that were
    # answered after the last outbound tick never made it onto the wire
    if len(announced) > len(recomputed):
        raise ReplayDivergence(
            f"peer {name!r} announced {len(announced)} placements but only "
            f"{len(recomputed)} searches reproduce"
        )
    for i, (ann, q) in enumerate(zip(announced, recomputed)):
        if (ann.x, ann.z, ann.yaw, ann.pose) != (q.x, q.z, f32(q.yaw), q.pose):
            raise ReplayDivergence(
                f"peer {name!r} placement {i} replays to "
                f"({q.x}, {q.z}, {f32(q.yaw)}, {q.pose.name}) but the transcript says "
                f"({ann.x}, {ann.z}, {ann.yaw}, {ann.pose.name})"
            )

    return {"sent": sent, "poses": poses, "transitions": transitions, "session": session, "host": host}


# --- benchmark --------------------------------------------------------------------

@dataclass(frozen=True)
class BenchResult:
    reps: int
    grid_ms: tuple[float, float, float]  # mean, min, max
    refine_ms: tuple[float, float, float]
    total_ms: tuple[float, float, float]
    placement: Placement
    score: float


def run_benchmark(
    room,
    features: FeatureVector,
    *,
    partner: PartnerPose | None = None,
    scorer=None,
    reps: int = 10,
    seed: int = 0,
    grid_config: GridConfig | None = None,
    pso_config: PsoConfig | None = None,
) -> BenchResult:
    if reps < 1:
        raise EmptyBenchmark("need at least one repetition to measure anything")
    room = load_room(room)
    grid_t: list[float] = []
    refine_t: list[float] = []
    last = None
    for rep in range(reps):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, rep])))
        last = find_placement(
            room, features, scorer, partner, grid_config=grid_config, pso_config=pso_config, rng=rng
        )
        grid_t.append(last.grid_time_s * 1e3)
        refine_t.append(last.pso_time_s * 1e3)
    total = [g + r for g, r in zip(grid_t, refine_t)]

    def stats(v: list[float]) -> tuple[float, float, float]:
        return (sum(v) / len(v), min(v), max(v))

    return BenchResult(
        reps=reps,
        grid_ms=stats(grid_t),
        refine_ms=stats(refine_t),
        total_ms=stats(total),
        placement=last.placement,
        score=float(last.score),
    )


# --- command line -----------------------------------------------------------------

def _write_out(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="twinroom-sim",
        description="Run (or replay) a two-peer lockstep avatar session over motion traces.",
    )
    parser.add_argument("--room-a", required=True, help="room JSON for peer A")
    parser.add_argument("--room-b", required=True, help="room JSON for peer B")
    parser.add_argument("--trace-a", help="motion trace JSONL for peer A")
    parser.add_argument("--trace-b", help="motion trace JSONL for peer B")
    parser.add_argument("--seed", type=int, default=0, help="run seed for the placement searches")
    parser.add_argument("--scorer-config", help="JSON overriding similarity weights and scales")
    parser.add_argument("--report", help="write the report JSON here (default: stdout)")
    parser.add_argument("--transcript", help="write the wire transcript JSONL here")
    parser.add_argument("--latency-ticks", type=int, default=0, help="one-way delivery delay")
    parser.add_argument("--tick-rate", type=float, default=None, help="must match the traces; defaults to theirs")
    parser.add_argument(
        "--replay",
        metavar="TRANSCRIPT",
        help="rebuild the report from a previous transcript instead of simulating "
        "(run settings come from the transcript header)",
    )
    args = parser.parse_args(argv)

    try:
        if args.replay:
            report = replay(args.replay, args.room_a, args.room_b)
            _write_out(args.report, canonical_report_json(report))
            return 0
        if not args.trace_a or not args.trace_b:
            parser.error("--trace-a and --trace-b are required unless --replay is given")
        trace_a = load_trace(args.trace_a)
        trace_b = load_trace(args.trace_b)
        rate = args.tick_rate if args.tick_rate is not None else trace_a.tick_rate
        scorer_cfg = (
            scorer_config_from_json(args.scorer_config) if args.scorer_config else ScorerConfig()
        )
        config = SimConfig(
            tick_rate=rate, latency_ticks=args.latency_ticks, seed=args.seed, scorer=scorer_cfg
        )
        result = run(args.room_a, args.room_b, trace_a, trace_b, config)
        if args.transcript:
            Path(args.transcript).write_text(result.transcript)
        _write_out(args.report, result.report_json)
        for row in result.timings:
            print(
                f"[{row['peer']}] episode {row['episode']} tick {row['tick']}: "
                f"grid {row['grid_ms']:.1f} ms, refine {row['pso_ms']:.1f} ms",
                file=sys.stderr,
            )
        return 0
    except (ProtocolError, SceneError, MalformedTrace, ReplayDivergence, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def bench_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="twinroom-bench",
        description="Time the placement search for one room against a saved feature vector.",
    )
    parser.add_argument("--room", required=True, help="room JSON to search")
    parser.add_argument("--features", required=True, help="feature vector JSON file")
    parser.add_argument(
        "--partner", nargs=3, type=float, metavar=("X", "Z", "YAW"), help="local partner pose"
    )
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scorer-config", help="JSON overriding similarity weights and scales")
    args = parser.parse_args(argv)

    try:
        features = feature_from_json(json.loads(Path(args.features).read_text()))
        partner = PartnerPose(*args.partner) if args.partner else None
        scorer = (
            DefaultScorer(scorer_config_from_json(args.scorer_config))
            if args.scorer_config
            else None
        )
        res = run_benchmark(
            args.room, features, partner=partner, scorer=scorer, reps=args.reps, seed=args.seed
        )
    except (EmptyBenchmark, SceneError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    for label, (mean, lo, hi) in (
        ("grid", res.grid_ms),
        ("refine", res.refine_ms),
        ("total", res.total_ms),
    ):
        print(f"{label:>6}: mean {mean:7.1f} ms   min {lo:7.1f}   max {hi:7.1f}   ({res.reps} reps)")
    p = res.placement
    print(f"  best: x={p.x:.3f} z={p.z:.3f} yaw={p.yaw:.3f} {p.pose.name} score={res.score:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
