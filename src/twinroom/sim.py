"""Two-peer lockstep session: wire both users together and host each one's
avatar in the other's room.

Each simulated tick runs the same fixed pipeline on each peer:

1. read the local motion-trace snapshot and quantize it into this tick's
   outbound pose update;
2. step the peer's `AvatarDriver`: deliver whatever the partner sent
   `1 + latency_ticks` ago, react to it (placement requests run the search
   here, against this room) and animate the partner's avatar;
3. advance the local locomotion/fixation machinery on the raw snapshot;
4. emit the outbound batch (pose, plus deduplicated state/target changes and
   any queued feature or placement messages).

After the last tick each driver drains what is still on the wire.

The driver sees only the wire, the local room, the run config and the local
user's pose as it goes on the wire. `run` decodes each batch once where it
records it, `replay` where it reads it, and the receiving session admits the
messages with `Session.receive`. `replay` steps the very same driver, one
peer after the other, with that pose decoded from the peer's recorded sends,
so given only the transcript and the two rooms it rebuilds the full report,
placement searches included, bit for bit. In both modes each user's part of
the report comes from the partner's driver: the one that admitted that
user's messages and hosts their avatar.
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property
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
    sub,
    wrap_angle_positive,
    yaw_of,
)
from .placement import (
    DefaultScorer,
    FeatureVector,
    GridConfig,
    NoFeasiblePlacement,
    PartnerPose,
    Placement,
    PlacementPose,
    PsoConfig,
    ScorerConfig,
    config_from_dict,
    config_to_dict,
    extract_features,
    find_placement,
    scorer_config_from_json,
)
from .protocol import (
    POSE,
    FeaturePacket,
    Hello,
    Message,
    Phase,
    PlacementAnnounce,
    PoseUpdate,
    ProtocolError,
    Session,
    StateChange,
    TargetUpdate,
    decode_all,
    f32,
)
from .retarget import HANDS, IkGoals, InterpState, Joint, RetargetConfig, Skeleton, avatar_tick
from .scene import (
    ObjectCategory,
    PairingError,
    SceneObject,
    denormalize_hit,
    load_room,
    read_document,
    require_fields,
    require_int,
    room_hash,
    validate_pairing,
)
from .states import (
    Effector,
    FixationTracker,
    StateConfig,
    StateEvent,
    TickWindow,
    UserState,
    WireTarget,
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
_SENDER = {"a>b": "a", "b>a": "b"}  # a frames line's direction to its sender
# 2: every reduction on the tick path is summed in a fixed order on floats,
# which changed the last bits of some results; a version-1 transcript was
# recorded with BLAS dot products and would not replay to the same report.
# 3: wire version 2, whose FeaturePackets carry the 81 accommodation heights
# 4: the search measures every distance as sqrt(dx * dx + dz * dz), which
# moved the last bits of some scores, and the partner-head gaze box sits at
# the avatar's solved head joint, which moved fixations while it walks
TRANSCRIPT_VERSION = 4
REPORT_VERSION = 1


class ReplayDivergence(RuntimeError):
    """A transcript and the rooms/config no longer agree with each other."""


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
        require_fields(self)
        if not self.tick_rate > 0.0:
            raise ValueError("tick_rate must be positive")
        if self.latency_ticks < 0:
            raise ValueError("latency_ticks must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 0 <= self.app_version <= 0xFFFF:
            raise ValueError("app_version must fit in 16 bits")
        if not self.sitting_root_height > 0.0:
            raise ValueError("sitting_root_height must be positive")

    def to_dict(self) -> dict:
        """Plain-JSON form (`config_to_dict`), which `from_dict` restores."""
        return config_to_dict(self)

    @staticmethod
    def from_dict(doc: dict) -> "SimConfig":
        return config_from_dict(SimConfig, doc)


# --- wire/pose plumbing --------------------------------------------------------

def pose_update_from_snapshot(snap, tick: int) -> PoseUpdate:
    """Quantize a trace snapshot into the wire pose: world root plus five
    root-relative effectors, every float already rounded to 32 bits so the
    sender computes with exactly what the receiver will see. Each of the
    snapshot's twelve arrays is read once into floats, and the five
    effector positions are mapped into the root frame in one
    `Transform.inverse_apply_all` call. One pack and unpack through the
    wire's pose layout rounds each of the 42 floats exactly as `f32` does,
    and the message is built from the unpacked tuple as the decoder builds
    it. A value beyond the f32 range is a `MalformedTrace` naming the tick;
    a zero quaternion is `quat_normalize`'s ValueError."""
    root_q = quat_normalize(snap.root.orientation.tolist())
    root = Transform(position=tuple(snap.root.position.tolist()), orientation=root_q)
    samples = (snap.head, snap.left_hand, snap.right_hand, snap.left_foot, snap.right_foot)
    points = root.inverse_apply_all([sample.position.tolist() for sample in samples])
    inv_q = quat_conj(root_q)
    floats = [*root.position, *root_q]
    for point, sample in zip(points, samples):
        floats += point
        floats += quat_mul(inv_q, quat_normalize(sample.orientation.tolist()))
    try:
        packed = POSE.pack(tick, *floats, 0)
    except (struct.error, OverflowError) as e:
        raise MalformedTrace(f"snapshot at tick {tick} does not fit the wire pose: {e}") from None
    return PoseUpdate.from_layout(POSE.unpack(packed), snap.fingers)


class LocalUser:
    """The local user's latest pose on the wire, as the avatar host uses it.
    Few ticks need it (a search, a target on the partner's head), so its
    root is converted on first use, and only once."""

    def __init__(self, pose: PoseUpdate):
        self.pose = pose

    @cached_property
    def root(self) -> Transform:
        values = self.pose.values
        return Transform(values[0:3], quat_normalize(values[3:7]))

    def head(self) -> tuple[float, float, float]:
        """World head position: what `PARTNER_HEAD_ID` resolves to."""
        return self.root.apply(self.pose.values[7:10])


def _goal_tables(pose: PoseUpdate):
    """A wire pose's root quaternion and `IkGoals`' two tables, every quaternion
    normalized: a near-zero one anywhere is `quat_normalize`'s ValueError."""
    v = pose.values
    return (quat_normalize(v[3:7]), (v[7:10], v[14:17], v[21:24], v[28:31], v[35:38]),
            (quat_normalize(v[10:14]), quat_normalize(v[17:21]), quat_normalize(v[24:28]),
             quat_normalize(v[31:35]), quat_normalize(v[38:42])))


def _partner_at(root: Transform) -> PartnerPose:
    """A root on the floor plane, as the search's interpersonal reference."""
    return PartnerPose(x=root.position[0], z=root.position[2], yaw=yaw_of(root.orientation))


# --- avatar hosting -----------------------------------------------------------

class AvatarHost:
    """Run the remote user's avatar inside the local room.

    State here is fed only by wire messages plus the local user's own
    pose as it went on the wire (`LocalUser`); no raw trace data may leak
    in, or replays would diverge from the live run. What it records (the
    remote user's episodes, searches, pointing and state transitions) is
    that user's part of the report, in `run` and `replay` alike.
    """

    def __init__(self, room, config: SimConfig, owner_code: int):
        self.room = room
        self.cfg = config
        self.scorer = DefaultScorer(config.scorer)
        self.owner_code = owner_code  # seeds the per-episode search rng
        self.skeleton: Skeleton | None = None
        # the latest wire pose stays raw until the avatar is placed; from then
        # on each one is converted on arrival into the avatar's goals, its
        # root mapped through the placement anchor
        self.pose: PoseUpdate | None = None
        self.goals: IkGoals | None = None
        self.state: UserState = UserState.Solo
        # (object id, uvw) or None per effector, indexed by `Effector`
        self.targets: list[WireTarget | None] = [None] * len(Effector)
        self.placement: Placement | None = None
        self.frozen: Transform | None = None  # walk-in-place root, pinned when walking starts
        self.interp = InterpState()
        self._anchor_user_pos = (0.0, 0.0, 0.0)
        self._anchor_avatar_pos = (0.0, 0.0, 0.0)
        self._delta_q = quat_from_yaw(0.0)
        self._placement_q = quat_from_yaw(0.0)  # the placement's facing
        # remote object id -> the local counterpart it is paired with
        self._pair_of = {o.pair_id: o for o in room.objects if o.pair_id is not None}
        self.episodes: list[dict] = []
        self.search: list[dict] = []
        self.transitions: list[dict] = []
        self.pointing_rows: list[dict] = []
        self._open: list[dict | None] = [None] * len(Effector)  # a hand's open row, by `Effector`
        self.timings: list[dict] = []

    # -- inbound message handling

    def handle(self, msg, tick: int, me: LocalUser | None) -> Placement | None:
        """Apply one inbound message; returns the new placement when the
        message was a feature packet that triggered a search."""
        if isinstance(msg, Hello):
            self.skeleton = Skeleton.from_floats(msg.skeleton)
        elif isinstance(msg, PoseUpdate):
            if self.placement is not None:
                self._anchor_goals(msg, _goal_tables(msg))
            self.pose = msg  # accepted: a refused pose raised above
        elif isinstance(msg, StateChange):
            self.transitions.append({"tick": msg.tick, "state": msg.state.name})
            self._on_state(msg.state)
        elif isinstance(msg, TargetUpdate):
            self.targets[msg.effector] = (msg.object_id, msg.uvw) if msg.active else None
        elif isinstance(msg, FeaturePacket):
            return self._place(msg.features, tick, me)
        return None  # PlacementAnnounce / Bye carry no avatar-side state

    def _on_state(self, new: UserState) -> None:
        if new is not UserState.Locomotion:
            self.frozen = None
        elif self.goals is not None:
            root = self.goals.root
            self.frozen = Transform(root.position, quat_from_yaw(wrap_angle_positive(yaw_of(root.orientation))))
        self.state = new

    def _place(self, features: FeatureVector, tick: int, me: LocalUser | None) -> Placement:
        held = _goal_tables(self.pose)  # batches lead with the pose; refused before any search
        partner = None if me is None else _partner_at(me.root)
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
        self._anchor_user_pos = position = self.pose.values[0:3]
        self._anchor_avatar_pos = (q.x, position[1], q.z)
        self._delta_q = quat_from_yaw(q.yaw - yaw_of(held[0]))
        self._placement_q = quat_from_yaw(q.yaw)
        self.placement = q
        self._anchor_goals(self.pose, held)
        self.frozen = None
        # aim transitions must not bridge a teleport
        self.interp = InterpState()
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

    def _anchor_goals(self, pose: PoseUpdate, tables) -> None:
        """The avatar's goals from `pose` and its `_goal_tables`, the root mapped
        through the placement anchor; once per inbound pose and re-anchoring."""
        orientation, positions, orientations = tables
        ax, ay, az = self._anchor_avatar_pos
        dx, dy, dz = quat_rotate(self._delta_q, sub(pose.values[0:3], self._anchor_user_pos))
        root = Transform((ax + dx, ay + dy, az + dz), quat_mul(self._delta_q, orientation))
        self.goals = IkGoals(root, positions, orientations, pose.fingers)

    def avatar_head_world(self) -> tuple[float, float, float] | None:
        """The avatar's head joint as last solved, where it is drawn in this
        room and the local user's gaze finds the partner's head, or None
        until the avatar is first solved at its current placement."""
        last = self.interp.last
        return None if last is None else last.joints[Joint.Head]

    def partner_pose(self) -> PartnerPose | None:
        """The hosted avatar as an interpersonal reference for the local
        user's own feature extraction."""
        return None if self.goals is None else _partner_at(self.goals.root)

    # -- per-tick animation

    def tick_avatar(self, tick: int, me: LocalUser | None, dt: float) -> None:
        goals = self.goals
        if goals is None or self.skeleton is None:
            return
        pinned = self.frozen  # None unless walking
        if pinned is None and self.state is UserState.Locomotion:
            # walking since before this placement: its spot, at the live root height
            pinned = Transform((self.placement.x, goals.root.position[1], self.placement.z), self._placement_q)
        targets = [self._resolve(entry, me) for entry in self.targets]
        result = avatar_tick(self.skeleton, self.state, goals, pinned, targets, self.interp, dt, self.cfg.retarget)
        self._sample_pointing(tick, result)

    def _resolve(self, entry, me: LocalUser | None) -> tuple[float, float, float] | None:
        """Wire target -> world point in this room: the paired counterpart's
        corresponding surface spot, or the local user's live head."""
        if entry is None:
            return None
        oid, uvw = entry
        if oid == PARTNER_HEAD_ID:
            if me is None:
                return None
            return me.head()
        obj = self._pair_of.get(oid)
        if obj is None:
            return None
        return denormalize_hit(obj, uvw)

    def _sample_pointing(self, tick: int, result) -> None:
        for i, side in HANDS:
            entry = self.targets[i]
            oid = entry[0] if entry is not None else None
            row = self._open[i]
            if row is not None and row["object"] != oid:
                self._close(i)
                row = None
            got = result.pointing[i]
            if oid is None or got is None:
                continue
            t, solution = got
            if t < 1.0:  # arm still easing toward the aim
                continue
            miss = point_to_line_distance(solution.target, solution.shoulder, solution.aim)
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
                self._open[i] = row
            row["samples"] += 1
            row["last_tick"] = tick
            row["_sum"] += miss
            if miss > row["max_miss"]:
                row["max_miss"] = miss

    def _close(self, i: int) -> None:
        row = self._open[i]
        if row is None:
            return
        total = row.pop("_sum")
        row["mean_miss"] = total / row["samples"] if row["samples"] else 0.0
        self.pointing_rows.append(row)
        self._open[i] = None

    def flush_pointing(self) -> None:
        for i, _ in HANDS:
            self._close(i)


# --- the avatar-host driver -------------------------------------------------------

class AvatarDriver:
    """One peer's wire-facing half: the link session and the partner's avatar.

    `run` steps it inside the lockstep tick and `replay` steps it through a
    transcript, so both compute the avatar side with the same code, from the
    same decoded batches. What the partner sends at tick `s` arrives at
    `s + 1 + latency_ticks`; after the last live tick, `drain` delivers the
    rest, up to the partner's Bye, and animates nothing.
    """

    def __init__(self, name: str, room, remote_room, skeleton: tuple[float, ...], config: SimConfig):
        self.cfg = config
        self.dt = 1.0 / config.tick_rate
        self.session = Session(config.app_version, room_hash(room), skeleton)
        self.expected_remote_hash = room_hash(remote_room)
        self.host = AvatarHost(room, config, owner_code=_PEER_CODE[_OTHER[name]])
        self.inbox: dict[int, list[Message]] = {}
        self.me: LocalUser | None = None

    def post(self, sent_tick: int, msgs: list[Message]) -> None:
        """Put the messages the partner sent at `sent_tick`, decoded from
        their recorded frames, on the wire."""
        self.inbox.setdefault(sent_tick + 1 + self.cfg.latency_ticks, []).extend(msgs)

    def step(self, t: int, pose: PoseUpdate | None) -> list[Placement]:
        """Live tick `t`: deliver, then animate. `pose` is the local user's
        tick-`t` pose, which goes on the wire iff the session is live.
        Returns the placements computed for the partner, to announce."""
        placed = self._deliver(t, pose)
        self.host.tick_avatar(t, self.me, self.dt)
        return placed

    def drain(self) -> list[Placement]:
        """After the last live tick: what is already on the wire still
        arrives, tick by tick, searched against the last pose the local user
        sent, but nothing is animated or sent any more. Only the ticks
        something arrives at are delivered; an empty one changes nothing."""
        placed = []
        for t in sorted(self.inbox):
            placed += self._deliver(t, None)
        self.host.flush_pointing()
        return placed

    def _deliver(self, t: int, pose: PoseUpdate | None) -> list[Placement]:
        msgs = self.session.receive(self.inbox.pop(t, ()))
        if pose is not None and self.session.phase is Phase.Live:
            self.me = LocalUser(pose)
        placed = []
        for msg in msgs:
            if isinstance(msg, Hello):
                self._check_hello(msg)
            q = self.host.handle(msg, t, self.me)
            if q is not None:
                placed.append(q)
        return placed

    def _check_hello(self, msg: Hello) -> None:
        if msg.app_version != self.cfg.app_version:
            raise ProtocolError(
                f"peer runs app version {msg.app_version}, expected {self.cfg.app_version}"
            )
        if msg.room_hash != self.expected_remote_hash:
            raise PairingError(
                f"peer announces room hash {msg.room_hash:016x}, which is not the "
                f"room this peer's pairing table was built against"
            )


# --- live peer ------------------------------------------------------------------

class PeerRuntime:
    """One live endpoint: trace in, wire frames out, partner avatar hosted."""

    def __init__(self, name: str, room, remote_room, trace: MotionTrace, config: SimConfig):
        self.name = name
        self.room = room
        self.trace = trace
        self.cfg = config
        self.dt = 1.0 / config.tick_rate
        self.driver = AvatarDriver(name, room, remote_room, trace.skeleton.to_floats(), config)
        self.session = self.driver.session
        self.host = self.driver.host
        self.window = TickWindow(config.tick_rate, config.state.speed_window)
        self.tracker = FixationTracker(config.tick_rate, config.state)
        self.loco = UserState.Solo
        self.state_now = UserState.Solo
        self.pending_features: deque[FeatureVector] = deque()
        self.pending_announce: deque[Placement] = deque()
        self.snap = None
        self.my_pose: PoseUpdate | None = None
        self.targets: list[WireTarget | None] = [None] * len(Effector)
        # the room with the partner's head as a gaze target, and where that
        # head was when it was built
        self._head_room = None
        self._head_at: tuple[float, float, float] | None = None

    def tick(self, t: int) -> bytes:
        """One lockstep tick; returns the outbound bytes."""
        self.begin_tick(t)
        self.pending_announce.extend(self.driver.step(t, self.my_pose))
        self.step_local(t)
        return self.emit(t)

    def begin_tick(self, t: int) -> None:
        snap = self.trace.snapshots[t - 1]
        if snap.tick != t:
            raise MalformedTrace(f"trace {self.name!r} snapshot {snap.tick} at slot {t}")
        self.snap = snap
        self.my_pose = pose_update_from_snapshot(snap, t)

    def step_local(self, t: int) -> None:
        snap = self.snap
        x, _, z = snap.root.position.tolist()
        self.window.push(t, x, z)
        if self.session.phase is not Phase.Live:
            return  # warm the speed window, but stay silent until both hellos
        speed = pelvis_speed(self.window) if len(self.window) >= 2 else 0.0
        self.loco, event = step_locomotion(self.loco, speed, self.cfg.state)
        if event is StateEvent.StartWIP:
            self.tracker.clear_all()
        elif event is StateEvent.RequestPlacement:
            self.pending_features.append(self._request_features())

        room = self._fixation_room()
        if self.loco is not UserState.Locomotion:
            # an unlifted hand fixates nothing, so it casts no ray
            for effector, sample in zip(Effector, snap.effectors):
                lifted = sample.lifted
                ray = sample.ray() if lifted or effector is Effector.Head else None
                update_fixation(self.tracker, effector, ray, room, self.dt, self.cfg.state, lifted=lifted)
        self.targets = acquire_targets(self.tracker, snap, self.cfg.state)
        self.state_now = classify_state(self.loco, self.targets)

    def _request_features(self) -> FeatureVector:
        x, y, z = self.snap.root.position.tolist()
        pose = PlacementPose.Sitting if y < self.cfg.sitting_root_height else PlacementPose.Standing
        here = Placement(x=x, z=z, yaw=yaw_of(self.snap.root.orientation.tolist()), pose=pose)
        return extract_features(self.room, here, self.host.partner_pose())

    def _fixation_room(self):
        """The local room plus the partner's head as a gaze target, rebuilt
        only when the head has moved since the last tick that built it."""
        head = self.host.avatar_head_world()
        if head is None:
            return self.room
        if head != self._head_at:
            box = SceneObject(
                id=PARTNER_HEAD_ID,
                category=ObjectCategory.Other,
                position=head,
                yaw=0.0,
                size=(0.25, 0.25, 0.25),
                pair_id=PARTNER_HEAD_ID,
            )
            self._head_room = self.room.with_extra([box])
            self._head_at = head
        return self._head_room

    def emit(self, t: int) -> bytes:
        if self.session.phase is not Phase.Live:
            return b""
        features = self.pending_features.popleft() if self.pending_features else None
        announce = None
        if self.pending_announce:
            q = self.pending_announce.popleft()
            announce = PlacementAnnounce(tick=t, x=q.x, z=q.z, yaw=f32(q.yaw), pose=q.pose)
        frames = self.session.tick(
            t, self.my_pose, self.state_now, targets=self.targets, features=features, placement=announce
        )
        return b"".join(frames)


# --- running --------------------------------------------------------------------

@dataclass(frozen=True)
class SimResult:
    report: dict
    report_json: str
    transcript: str
    timings: tuple[dict, ...]  # wall-clock search times; deliberately not in the report


def _jsonl(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def canonical_report_json(report: dict) -> str:
    """A report's canonical JSON: one line formatted as `_jsonl` formats
    transcript lines, and a newline."""
    return _jsonl(report) + "\n"


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
    """`_jsonl` of a frames line, written out: its four keys sorted, and
    values that JSON writes as they are (an int tick, peer names "a" and
    "b", hex digits)."""
    return f'{{"data":"{blob.hex()}","dir":"{src}>{dst}","tick":{tick},"type":"frames"}}'


def _room_summary(room) -> dict:
    return {"id": room.id, "hash": f"{room_hash(room):016x}", "objects": len(room.objects)}


def _assemble_report(config, rooms, ticks, drivers) -> dict:
    """The run report. Each user's part (episodes, search, pointing,
    transitions and sent counts) comes from the partner's driver, which
    admitted that user's messages and hosts their avatar."""
    partners = {name: drivers[_OTHER[name]] for name in ("a", "b")}
    hosts = {name: partners[name].host for name in ("a", "b")}
    return {
        "version": REPORT_VERSION,
        "ticks": ticks,
        "config": config.to_dict(),
        "rooms": {name: _room_summary(rooms[name]) for name in ("a", "b")},
        "episodes": {name: hosts[name].episodes for name in ("a", "b")},
        "search": {name: hosts[name].search for name in ("a", "b")},
        "pointing": {name: hosts[name].pointing_rows for name in ("a", "b")},
        "transitions": {name: hosts[name].transitions for name in ("a", "b")},
        "protocol": {
            name: {
                "sent": dict(partners[name].session.received),
                "received": dict(drivers[name].session.received),
                "phase": drivers[name].session.phase.name,
            }
            for name in ("a", "b")
        },
    }


def _pad_trace(trace: MotionTrace, n: int) -> MotionTrace:
    if len(trace) >= n:
        return trace
    snaps = list(trace.snapshots)
    last = snaps[-1]
    for t in range(len(snaps) + 1, n + 1):
        snaps.append(replace(last, tick=t))
    return MotionTrace(tick_rate=trace.tick_rate, skeleton=trace.skeleton, snapshots=tuple(snaps))


def run(room_a, room_b, trace_a, trace_b, config: SimConfig | None = None) -> SimResult:
    """Simulate both peers in lockstep over the full traces.

    Searches score with `DefaultScorer(config.scorer)`, as `replay` does:
    the config is the one recorded way to change scoring. The shorter trace
    is padded by holding its final snapshot so the peers stay in lockstep.
    A config that `replay` would refuse in a transcript header cannot be
    built: each config's own checks are the decoder's (`scene.require_fields`).
    Returns the canonical report, the wire transcript, and per-search
    wall-clock timings.
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
    rooms = {"a": room_a, "b": room_b}
    traces = {"a": _pad_trace(trace_a, n), "b": _pad_trace(trace_b, n)}
    peers = {
        name: PeerRuntime(name, rooms[name], rooms[_OTHER[name]], traces[name], config)
        for name in ("a", "b")
    }
    lines = [_header_line(config, room_a, room_b, n)]

    def post(src: str, tick: int, blob: bytes) -> None:
        # what the recorded bytes decode to, never the sender's unquantized messages
        lines.append(_frames_line(tick, src, _OTHER[src], blob))
        peers[_OTHER[src]].driver.post(tick, decode_all(blob))

    for name in ("a", "b"):
        post(name, 0, peers[name].session.hello_frame())
    # what a peer sends at tick t arrives at t + 1 at the earliest, so the
    # peers may take their turns one after the other
    for t in range(1, n + 1):
        for name in ("a", "b"):
            blob = peers[name].tick(t)
            if t == n:
                blob += peers[name].session.bye_frame()
            if blob:
                post(name, t, blob)
    for name in ("a", "b"):
        peers[name].driver.drain()  # too late to announce: nothing is sent after tick n

    report = _assemble_report(config, rooms, n, {name: peers[name].driver for name in ("a", "b")})
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

    The transcript is JSONL read by `scene.read_document` (inline if it
    starts with '{' or '[', else a file path). Placement searches are re-run
    from the wire feature packets with the seeds recorded in the embedded
    config, and cross-checked against the announcements actually sent; any
    disagreement (such as a header's `ticks` that is not its last frames
    line's tick), or a malformed line, raises ReplayDivergence.
    """
    rooms = {"a": load_room(room_a), "b": load_room(room_b)}
    # parsed one line at a time, and each tick's bytes are dropped once
    # decoded: both peers' decoded messages are held until the end, so no
    # other copy of the transcript is held with them
    lines = enumerate(read_document(transcript, ReplayDivergence).splitlines(), 1)
    docs = ((number, _transcript_entry(number, line)) for number, line in lines if line.strip())
    number, header = next(docs, (0, None))
    if header is None or header.get("type") != "header":
        raise ReplayDivergence("transcript does not start with a header line")
    if header.get("version") != TRANSCRIPT_VERSION:
        raise ReplayDivergence(f"unsupported transcript version {header.get('version')!r}")
    try:
        config = SimConfig.from_dict(header.get("config"))
    except ValueError as e:
        raise ReplayDivergence(f"line {number}: the header's config: {e}") from None
    n = require_int(header.get("ticks"), "the transcript header's ticks", ReplayDivergence)
    recorded = header.get("rooms")
    if not isinstance(recorded, dict) or not {"a", "b"} <= recorded.keys():
        raise ReplayDivergence(f"line {number}: the header needs rooms a and b")
    for name in ("a", "b"):
        have = f"{room_hash(rooms[name]):016x}"
        if recorded[name] != have:
            raise ReplayDivergence(
                f"room {name!r} hash {have} does not match transcript {recorded[name]}"
            )

    sends: dict[str, dict[int, bytearray]] = {"a": {}, "b": {}}  # keyed by sender
    tick = None  # `run` writes both byes at tick `ticks`: the last frames line's tick
    for number, doc in docs:
        if doc.get("type") != "frames":
            raise ReplayDivergence(f"line {number}: unexpected transcript entry type {doc.get('type')!r}")
        src = _SENDER.get(str(doc.get("dir")))
        try:
            tick = require_int(doc.get("tick"), "tick", ValueError)
            blob = bytes.fromhex(doc.get("data"))  # a TypeError unless a str
        except (TypeError, ValueError):
            src = None
        if src is None or not 0 <= tick <= n:
            raise ReplayDivergence(f"line {number}: frames need dir a>b or b>a, an int tick in 0..{n} and hex data")
        sends[src].setdefault(tick, bytearray()).extend(blob)
    if tick != n:
        raise ReplayDivergence(f"line {number}: the last frames are at tick {tick}, not the header's {n}")

    # each recorded frame is decoded once: its sender's replay reads the
    # local user's poses and the sent messages from it, and the receiving
    # session admits it
    decoded = {name: {tick: decode_all(bytes(sends[name].pop(tick))) for tick in sorted(sends[name])}
               for name in ("a", "b")}
    drivers = {name: _replay_peer(name, rooms, config, decoded, n) for name in ("a", "b")}
    return _assemble_report(config, rooms, n, drivers)


def _transcript_entry(number: int, line: str) -> dict:
    """Transcript line `number` as a JSON object, or a ReplayDivergence."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError:
        doc = None
    if not isinstance(doc, dict):
        raise ReplayDivergence(f"line {number}: not a JSON object")
    return doc


def _replay_peer(name: str, rooms, config: SimConfig, decoded, n: int) -> AvatarDriver:
    """Step one peer's driver through every tick, with the local user's pose
    taken from what the peer sent, and check the placements it announced;
    returns the driver. `decoded` holds each peer's sent messages per tick."""
    poses: dict[int, PoseUpdate] = {}
    announced: list[PlacementAnnounce] = []
    my_hello: Hello | None = None
    for msgs in decoded[name].values():
        for msg in msgs:
            if isinstance(msg, PoseUpdate):
                poses[msg.tick] = msg
            elif isinstance(msg, PlacementAnnounce):
                announced.append(msg)
            elif isinstance(msg, Hello):
                my_hello = msg
    if my_hello is None:
        raise ReplayDivergence(f"peer {name!r} sent no hello in the transcript")

    driver = AvatarDriver(name, rooms[name], rooms[_OTHER[name]], my_hello.skeleton, config)
    driver.session.hello_frame()  # mirror the live handshake; the bytes are already on record
    for tick, msgs in decoded[_OTHER[name]].items():
        driver.post(tick, msgs)
    recomputed: list[Placement] = []
    for t in range(1, n + 1):
        recomputed += driver.step(t, poses.get(t))
    recomputed += driver.drain()

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

    return driver


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
        config = SimConfig(tick_rate=trace_a.tick_rate, latency_ticks=args.latency_ticks, seed=args.seed,
                           scorer=scorer_config_from_json(args.scorer_config or {}))
        result = run(args.room_a, args.room_b, trace_a, trace_b, config)
        if args.transcript:
            _write_out(args.transcript, result.transcript)
        _write_out(args.report, result.report_json)
        for row in result.timings:
            print(
                f"[{row['peer']}] episode {row['episode']} tick {row['tick']}: "
                f"grid {row['grid_ms']:.1f} ms, refine {row['pso_ms']:.1f} ms",
                file=sys.stderr,
            )
        return 0
    # ProtocolError, SceneError and MalformedTrace are ValueErrors; an OSError
    # can only come from writing --report or --transcript
    except (ValueError, ReplayDivergence, NoFeasiblePlacement, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
