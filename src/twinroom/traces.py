"""Motion traces: recorded user movement fed into the simulator.

A trace is a JSONL file. The first line is a header with the tick rate and
the user's avatar skeleton (13 floats); every following line is one tick's
snapshot with world-space transforms for the root and the five tracked
effectors, the names of any lifted hands, and opaque finger bytes. Ticks
start at 1 (tick 0 is the handshake) and must be contiguous.

TraceBuilder composes traces from motion primitives (walk somewhere, look at
a point, point at a point, sit down) so scenarios and tests can script
deterministic sessions without recorded data.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import (
    FORWARD,
    Transform,
    look_rotation,
    normalized,
    quat_conj,
    quat_from_yaw,
    quat_mul,
    quat_rotate,
    slerp_vec,
    sub,
)
from .retarget import Skeleton
from .scene import read_document, require_int, require_number, require_numbers
from .states import EffectorSample, StateConfig, UserSnapshot, hand_lifted


class MalformedTrace(ValueError):
    pass


_EFFECTOR_FIELDS = ("root", "head", "left_hand", "right_hand", "left_foot", "right_foot")
_HANDS = ("left_hand", "right_hand")


@dataclass(frozen=True)
class MotionTrace:
    tick_rate: float
    skeleton: Skeleton
    snapshots: tuple[UserSnapshot, ...]

    def __post_init__(self):
        if not 0.0 < self.tick_rate < math.inf:  # NaN fails too
            raise MalformedTrace(f"tick rate must be positive and finite, got {self.tick_rate}")
        for i, snap in enumerate(self.snapshots):
            if snap.tick != i + 1:
                raise MalformedTrace(
                    f"snapshot ticks must be contiguous from 1, got {snap.tick} at index {i}"
                )

    def __len__(self) -> int:
        return len(self.snapshots)


def _sample_to_list(s: EffectorSample) -> list[float]:
    return s.position.tolist() + s.orientation.tolist()


def save_trace(trace: MotionTrace, path) -> None:
    lines = [json.dumps(
        {"tick_rate": trace.tick_rate, "skeleton": list(trace.skeleton.to_floats())},
        sort_keys=True,
    )]
    for snap in trace.snapshots:
        doc = {"tick": snap.tick, "fingers": snap.fingers.hex()}
        lifted = [n for n in ("left_hand", "right_hand") if getattr(snap, n).lifted]
        if lifted:
            doc["lifted"] = lifted
        for name in _EFFECTOR_FIELDS:
            doc[name] = _sample_to_list(getattr(snap, name))
        lines.append(json.dumps(doc, sort_keys=True))
    Path(path).write_text("\n".join(lines) + "\n")


def load_trace(document) -> MotionTrace:
    """Load a trace from itself or from JSONL read by `scene.read_document`
    (inline if it starts with '{' or '[', else a file path)."""
    if isinstance(document, MotionTrace):
        return document
    lines = [ln for ln in read_document(document, MalformedTrace).splitlines() if ln.strip()]
    if not lines:
        raise MalformedTrace("trace is empty")
    try:
        header = json.loads(lines[0])
        if not isinstance(header, dict):
            raise MalformedTrace(f"trace header must be an object, got {type(header).__name__}")
        skeleton = Skeleton.from_floats(require_numbers(header["skeleton"], 13, "skeleton", MalformedTrace))
        tick_rate = require_number(header["tick_rate"], "tick_rate", MalformedTrace)
        snaps = []
        for row, ln in enumerate(lines[1:], 1):
            doc = json.loads(ln)
            if not isinstance(doc, dict):
                raise MalformedTrace(f"trace row {row} must be an object, got {type(doc).__name__}")
            tick = require_int(doc["tick"], "tick", MalformedTrace)
            lifted = doc.get("lifted", [])
            if type(lifted) is not list or not all(name in _HANDS for name in lifted):
                raise MalformedTrace(f"tick {tick}: lifted must be a list of hand names, got {lifted!r}")
            try:
                lists = [require_numbers(doc.get(name), 7, name, MalformedTrace) for name in _EFFECTOR_FIELDS]
            except MalformedTrace as e:
                raise MalformedTrace(f"tick {tick}: {e}") from None
            parts = {
                name: EffectorSample(position=row[0:3], orientation=row[3:7], lifted=name in lifted)
                for name, row in zip(_EFFECTOR_FIELDS, np.array(lists, dtype=float))
            }
            snaps.append(UserSnapshot(tick=tick, fingers=bytes.fromhex(doc.get("fingers", "")), **parts))
    except (KeyError, ValueError, TypeError, AttributeError) as e:
        if isinstance(e, MalformedTrace):
            raise
        raise MalformedTrace(f"bad trace document: {e}") from None
    return MotionTrace(tick_rate=float(tick_rate), skeleton=skeleton, snapshots=tuple(snaps))


# --- scripted motion --------------------------------------------------------

class TraceBuilder:
    """Compose a deterministic motion trace from primitives.

    The builder tracks the root in world space and every effector as a
    root-relative offset; primitives animate either side. Hands rest by the
    hips pointing steeply down, which keeps them below the lifted thresholds
    until point_at raises one.
    """

    def __init__(
        self,
        tick_rate: float = 60.0,
        skeleton: Skeleton | None = None,
        start=(0.0, 0.0),
        yaw: float = 0.0,
        root_height: float = 0.92,
    ):
        self.tick_rate = float(tick_rate)
        self.dt = 1.0 / self.tick_rate
        self.skeleton = skeleton if skeleton is not None else Skeleton()
        self.cfg = StateConfig()
        self.stand_height = float(root_height)
        self.root = Transform(
            (float(start[0]), float(root_height), float(start[1])),
            quat_from_yaw(yaw),
        )
        sk = self.skeleton
        ident = (1.0, 0.0, 0.0, 0.0)
        down = look_rotation(normalized((0.0, -1.0, 0.35)))
        hip_x = float(sk.hip_offset[0])
        self.rel: dict[str, Transform] = {
            "head": Transform((0.0, float(sk.spine + sk.neck), 0.0), ident),
            "left_hand": Transform((-0.24, -0.12, 0.08), down),
            "right_hand": Transform((0.24, -0.12, 0.08), down),
            "left_foot": Transform((-hip_x, -self.stand_height, 0.0), ident),
            "right_foot": Transform((hip_x, -self.stand_height, 0.0), ident),
        }
        self._rest_hands = {k: self.rel[k] for k in ("left_hand", "right_hand")}
        self.fingers = b""
        self.snapshots: list[UserSnapshot] = []

    # -- snapshot emission

    def _world(self, name: str) -> Transform:
        rel = self.rel[name]
        return Transform(
            self.root.apply(rel.position),
            quat_mul(self.root.orientation, rel.orientation),
        )

    def _sample(self, name: str, lifted: bool = False) -> EffectorSample:
        w = self._world(name)
        return EffectorSample(position=w.position, orientation=w.orientation, lifted=lifted)

    def _emit(self) -> None:
        tick = len(self.snapshots) + 1
        root = EffectorSample(position=self.root.position, orientation=self.root.orientation)
        hands = {}
        for name in ("left_hand", "right_hand"):
            w = self._world(name)
            sample = EffectorSample(position=w.position, orientation=w.orientation)
            hands[name] = EffectorSample(
                position=w.position,
                orientation=w.orientation,
                lifted=hand_lifted(root, sample, self.cfg),
            )
        self.snapshots.append(UserSnapshot(
            tick=tick,
            root=root,
            head=self._sample("head"),
            left_hand=hands["left_hand"],
            right_hand=hands["right_hand"],
            left_foot=self._sample("left_foot"),
            right_foot=self._sample("right_foot"),
            fingers=self.fingers,
        ))

    def _ticks(self, seconds: float) -> int:
        return max(1, round(seconds * self.tick_rate))

    # -- primitives

    def hold(self, seconds: float) -> "TraceBuilder":
        for _ in range(self._ticks(seconds)):
            self._emit()
        return self

    def turn_to(self, yaw: float, seconds: float = 0.2) -> "TraceBuilder":
        """Rotate the root in place; pelvis position stays put."""
        start_fwd = self.root.forward()
        end_fwd = (math.sin(yaw), 0.0, math.cos(yaw))
        n = self._ticks(seconds)
        for i in range(1, n + 1):
            fwd = slerp_vec(start_fwd, end_fwd, i / n)
            self.root = Transform(self.root.position, look_rotation(fwd))
            self._emit()
        return self

    def walk_to(self, x: float, z: float, speed: float = 1.0) -> "TraceBuilder":
        """Walk in a straight line at constant speed, facing the direction
        of travel; limbs ride along rigidly."""
        if speed <= 0.0:
            raise ValueError("walking speed must be positive")
        start = self.root.position
        delta = sub((float(x), start[1], float(z)), start)
        dist = math.hypot(delta[0], delta[2])
        if dist < 1e-9:
            return self
        yaw_q = look_rotation((delta[0] / dist, 0.0, delta[2] / dist))
        n = max(1, math.ceil(dist / (speed * self.dt)))
        for i in range(1, n + 1):
            frac = min(1.0, i * speed * self.dt / dist)
            self.root = Transform(tuple(s + d * frac for s, d in zip(start, delta)), yaw_q)
            self._emit()
        return self

    def gaze_at(self, point, seconds: float = 1.0, turn_s: float = 0.15) -> "TraceBuilder":
        """Turn the head toward a world point, then dwell on it."""
        point = tuple(map(float, point))
        inv_q = quat_conj(self.root.orientation)
        n_turn = self._ticks(turn_s)
        start_fwd = quat_rotate(self._world("head").orientation, FORWARD)
        for i in range(1, n_turn + 1):
            head_pos = self._world("head").position
            desired = normalized(sub(point, head_pos))
            fwd = slerp_vec(start_fwd, desired, i / n_turn)
            world_q = look_rotation(fwd)
            self.rel["head"] = Transform(self.rel["head"].position, quat_mul(inv_q, world_q))
            self._emit()
        remaining = self._ticks(seconds) - n_turn
        for _ in range(max(0, remaining)):
            self._emit()
        return self

    def point_at(self, point, side: str = "right", raise_s: float = 0.4,
                 hold_s: float = 1.0, reach: float = 0.45) -> "TraceBuilder":
        """Raise a hand so its aim ray passes through a world point.

        The raise is animated, which is what lets the target acquisition see
        the hand closing in on the gaze target (distance and aim angle both
        shrink while the arm comes up).
        """
        point = tuple(map(float, point))
        name = f"{side}_hand"
        sk = self.skeleton
        shoulder_world = self.root.apply(sk.shoulder_local(side))
        aim = normalized(sub(point, shoulder_world))
        length = min(reach, sk.arm_reach)
        end_pos_world = tuple(s + a * length for s, a in zip(shoulder_world, aim))
        end_fwd_world = normalized(sub(point, end_pos_world))

        start = self.rel[name]
        start_pos_world = self.root.apply(start.position)
        start_fwd_world = quat_rotate(quat_mul(self.root.orientation, start.orientation), FORWARD)
        inv_q = quat_conj(self.root.orientation)
        n = self._ticks(raise_s)
        for i in range(1, n + 1):
            t = i / n
            pos_w = _lerp(start_pos_world, end_pos_world, t)
            fwd_w = slerp_vec(start_fwd_world, end_fwd_world, t)
            self.rel[name] = Transform(
                self.root.inverse_apply(pos_w),
                quat_mul(inv_q, look_rotation(fwd_w)),
            )
            self._emit()
        for _ in range(self._ticks(hold_s)):
            self._emit()
        return self

    def lower_hands(self, seconds: float = 0.3) -> "TraceBuilder":
        """Ease both hands back to their resting pose by the hips."""
        starts = {k: self.rel[k] for k in ("left_hand", "right_hand")}
        n = self._ticks(seconds)
        for i in range(1, n + 1):
            t = i / n
            for name, rest in self._rest_hands.items():
                s = starts[name]
                pos = _lerp(s.position, rest.position, t)
                fwd_s = quat_rotate(s.orientation, FORWARD)
                fwd_r = quat_rotate(rest.orientation, FORWARD)
                self.rel[name] = Transform(pos, look_rotation(slerp_vec(fwd_s, fwd_r, t)))
            self._emit()
        for name, rest in self._rest_hands.items():
            self.rel[name] = rest
        return self

    def sit(self, root_height: float = 0.55, seconds: float = 0.5) -> "TraceBuilder":
        """Lower the pelvis to seated height (no horizontal motion)."""
        x, y0, z = self.root.position
        n = self._ticks(seconds)
        for i in range(1, n + 1):
            y = y0 + (root_height - y0) * (i / n)
            self.root = Transform((x, y, z), self.root.orientation)
            self._emit()
        return self

    def stand(self, seconds: float = 0.5) -> "TraceBuilder":
        return self.sit(root_height=self.stand_height, seconds=seconds)

    def build(self) -> MotionTrace:
        return MotionTrace(
            tick_rate=self.tick_rate,
            skeleton=self.skeleton,
            snapshots=tuple(self.snapshots),
        )


def _lerp(a, b, t: float) -> tuple[float, float, float]:
    return tuple(x + (y - x) * t for x, y in zip(a, b))
