"""Per-tick user classification: solo, locomotion, or interaction.

Locomotion is driven by pelvis speed with hysteresis (separate start and stop
thresholds, no transition inside the band). Interaction is driven by gaze and
hand fixation: a raycast that keeps hitting the same paired object past a
dwell threshold registers that object as the effector's target. A lifted hand
that has no own fixation can additionally inherit the gaze target when its
motion converges on it, i.e. when both the hand-to-target distance and the
hand-aim angle shrink fast enough over a trailing window. Pelvis speed and
hand convergence read the same kind of window, a `TickWindow` of
tick-contiguous samples, and a locomotion transition emits one event:
StartWIP when walking starts, RequestPlacement when it stops.

Everything here is a pure function of the snapshot stream and configuration;
identical inputs produce identical state and event streams. Snapshots hold
numpy arrays as traces load them; each is read into float tuples where it is
used, and everything computed from it is a float tuple.
Every per-effector table (a snapshot's `effectors`, the tracker's `channels`,
the wire targets `acquire_targets` returns) is indexed by `Effector`.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum, IntEnum

import numpy as np

from .geometry import FORWARD, dot, norm, quat_rotate
from .scene import Ray, Room, normalize_hit, raycast, require_fields


class InsufficientSamples(ValueError):
    pass


class UserState(Enum):
    Solo = 0
    Locomotion = 1
    Interaction = 2


class Effector(IntEnum):
    Head = 0
    LeftHand = 1
    RightHand = 2


class StateEvent(Enum):
    StartWIP = "StartWIP"
    RequestPlacement = "RequestPlacement"


@dataclass(frozen=True)
class EffectorSample:
    """One tracked body part in a snapshot. `lifted` is meaningful for hands
    only and is carried by whoever produced the snapshot (see hand_lifted)."""

    position: np.ndarray
    orientation: np.ndarray
    lifted: bool = False

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "orientation", np.asarray(self.orientation, dtype=float))

    def forward(self) -> tuple[float, float, float]:
        return quat_rotate(self.orientation.tolist(), FORWARD)

    def ray(self) -> Ray:
        """The ray along `forward`, divided by its norm. While that norm lies
        in (1e-150, 1e150) its square is a normal float, so the quotients
        are floats of unit norm to a few ulp and `Ray`'s conversion and
        unit check cannot fail: the ray is built without them. A norm
        outside that range goes through the checking constructor, which
        refuses what the division cannot make unit: a forward whose square
        overflows (components beyond about 1e77), is subnormal (a
        quaternion of squared norm 1/2 turning the axis about 180 degrees,
        off by 1e-160), or is not finite."""
        fx, fy, fz = f = self.forward()
        n = norm(f)
        origin = tuple(self.position.tolist())
        direction = (fx / n, fy / n, fz / n)
        if not 1e-150 < n < 1e150:
            return Ray(origin=origin, direction=direction)
        ray = object.__new__(Ray)
        ray.__dict__.update(origin=origin, direction=direction)
        return ray


@dataclass(frozen=True)
class UserSnapshot:
    tick: int
    root: EffectorSample
    head: EffectorSample
    left_hand: EffectorSample
    right_hand: EffectorSample
    left_foot: EffectorSample
    right_foot: EffectorSample
    fingers: bytes = b""

    @property
    def effectors(self) -> tuple[EffectorSample, EffectorSample, EffectorSample]:
        """Head, left hand and right hand, indexed by `Effector`."""
        return (self.head, self.left_hand, self.right_hand)


@dataclass(frozen=True)
class StateConfig:
    locomotion_threshold: float = 0.4      # m/s, speed above which walking starts
    stop_threshold: float = 0.15           # m/s, speed below which walking ends
    fixation_threshold: float = 0.5        # s of sustained hit to register a target
    v_threshold: float = -0.2              # m/s, required mean closing rate (negative)
    omega_threshold: float = -math.radians(20.0)  # rad/s, required aim-angle rate
    condition_period: float = 0.3          # s, trailing window for the two rates
    speed_window: float = 0.166            # s, pelvis displacement window
    lift_height: float = 0.35              # m above root for the lifted predicate
    lift_pitch: float = -math.radians(30.0)  # hand forward pitch above this counts too

    def __post_init__(self):
        require_fields(self)
        if not (self.locomotion_threshold > self.stop_threshold > 0.0):
            raise ValueError(
                "locomotion_threshold must exceed stop_threshold and both be positive, "
                f"got {self.locomotion_threshold} / {self.stop_threshold}"
            )
        if not (self.fixation_threshold > 0.0 and self.condition_period > 0.0 and self.speed_window > 0.0):
            raise ValueError("time windows must be positive")
        if not (self.v_threshold < 0.0 and self.omega_threshold < 0.0):
            raise ValueError("convergence thresholds must be negative rates")


def hand_lifted(root: EffectorSample, hand: EffectorSample, cfg: StateConfig) -> bool:
    """A hand counts as lifted when it is raised well above the pelvis or is
    aimed at or above slightly-below-horizontal (a hanging arm points down)."""
    if float(hand.position[1]) - float(root.position[1]) >= cfg.lift_height:
        return True
    f = hand.forward()
    pitch = math.asin(max(-1.0, min(1.0, f[1])))
    return pitch >= cfg.lift_pitch


# --- trailing windows ------------------------------------------------------

class TickWindow:
    """Trailing window of (tick, a, b) samples: a pelvis pushes its root x
    and z, a hand its distance and aim angle to the gaze target.

    Samples must be tick-contiguous; a gap discards the history. The window
    keeps its newest sample and those at most `span_ticks` (the period in
    ticks, at least 1) older, and spans the period once newest - oldest >=
    span_ticks.
    """

    def __init__(self, tick_rate: float, period: float):
        if not (tick_rate > 0.0 and period > 0.0):
            raise ValueError("tick_rate and period must be positive")
        self.tick_rate = float(tick_rate)
        self.span_ticks = max(1, round(period * tick_rate))
        self._samples: deque[tuple[int, float, float]] = deque()

    def push(self, tick: int, a: float, b: float) -> None:
        if self._samples and tick != self._samples[-1][0] + 1:
            self._samples.clear()
        self._samples.append((tick, a, b))
        while self._samples[-1][0] - self._samples[0][0] > self.span_ticks:
            self._samples.popleft()

    def __len__(self) -> int:
        return len(self._samples)

    def clear(self) -> None:
        self._samples.clear()

    def spans_period(self) -> bool:
        return bool(self._samples) and self._samples[-1][0] - self._samples[0][0] >= self.span_ticks

    @property
    def first(self) -> tuple[int, float, float]:
        return self._samples[0]

    @property
    def last(self) -> tuple[int, float, float]:
        return self._samples[-1]

    def slope(self, index: int) -> float:
        """Least-squares slope of sample column `index` (1 for a, 2 for b)
        against time in seconds, once the window spans the period."""
        if not self.spans_period():
            raise InsufficientSamples("window does not span its period yet")
        n = len(self._samples)
        t0 = self._samples[0][0]
        ts = [(s[0] - t0) / self.tick_rate for s in self._samples]
        vs = [s[index] for s in self._samples]
        t_mean = sum(ts) / n
        v_mean = sum(vs) / n
        num = 0.0
        den = 0.0
        for t, v in zip(ts, vs):
            tc = t - t_mean
            num += tc * (v - v_mean)
            den += tc * tc
        return num / den


# --- pelvis speed -----------------------------------------------------------

def pelvis_speed(window: TickWindow) -> float:
    """Horizontal displacement speed between the window's endpoints.

    Deliberately displacement-based: a path that returns to its start within
    the window reads as (near) zero speed.
    """
    if len(window) < 2:
        raise InsufficientSamples("speed needs at least two samples")
    t0, x0, z0 = window.first
    t1, x1, z1 = window.last
    dt = (t1 - t0) / window.tick_rate
    return math.hypot(x1 - x0, z1 - z0) / dt


# --- locomotion state -------------------------------------------------------

def step_locomotion(state: UserState, speed: float, cfg: StateConfig) -> tuple[UserState, StateEvent | None]:
    """Advance the walking aspect of the state machine by one tick, with the
    transition's event, if any.

    Entering locomotion freezes the avatar in place (StartWIP); leaving it
    requests a fresh placement (RequestPlacement), and the avatar moves
    there when the peer's answer arrives. Speeds inside the open band
    (stop_threshold, locomotion_threshold) never cause a transition.
    """
    if state is UserState.Locomotion:
        if speed < cfg.stop_threshold:
            return UserState.Solo, StateEvent.RequestPlacement
        return state, None
    if speed > cfg.locomotion_threshold:
        return UserState.Locomotion, StateEvent.StartWIP
    return state, None


# --- fixation ---------------------------------------------------------------

RegisteredTarget = tuple[str, tuple[float, float, float], tuple[float, float, float]]  # id, uvw, world point
WireTarget = tuple[str, tuple[float, float, float]]  # id and uvw, as a `TargetUpdate` carries them


@dataclass
class EffectorFixation:
    candidate: str | None = None
    accumulated: float = 0.0
    target: RegisteredTarget | None = None

    def clear(self) -> None:
        self.candidate = None
        self.accumulated = 0.0
        self.target = None


def check_distance_condition(window: TickWindow, cfg: StateConfig) -> bool:
    """True iff the hand-to-target distance (a) shrinks faster than
    v_threshold on average over the whole window."""
    return window.slope(1) < cfg.v_threshold


def check_angle_condition(window: TickWindow, cfg: StateConfig) -> bool:
    """True iff the angle between the hand's aim and the target direction (b)
    closes faster than omega_threshold on average over the whole window."""
    return window.slope(2) < cfg.omega_threshold


@dataclass
class Channel:
    """An effector's fixation and a hand's convergence on the gaze target."""

    fixation: EffectorFixation
    window: TickWindow
    window_target: str | None = None
    converged_to: str | None = None


@dataclass
class FixationTracker:
    """One `Channel` per effector, indexed by `Effector`."""

    tick_rate: float
    cfg: StateConfig
    channels: tuple[Channel, ...] = field(init=False)

    def __post_init__(self):
        self.clear_all()

    def clear_all(self) -> None:
        """Fresh channels: no fixation, no window, nothing converged."""
        self.channels = tuple(
            Channel(EffectorFixation(), TickWindow(self.tick_rate, self.cfg.condition_period))
            for _ in Effector
        )


def _interaction_candidate(room: Room, object_id: str) -> bool:
    # only paired objects are legitimate targets; everything else (walls,
    # unpaired clutter) merely occludes
    return room.by_id[object_id].pair_id is not None


def update_fixation(
    tracker: FixationTracker,
    effector: Effector,
    ray: Ray | None,
    room: Room,
    dt: float,
    cfg: StateConfig,
    lifted: bool = True,
) -> None:
    """Accumulate dwell time on whatever paired object the ray keeps hitting.

    The registered target refreshes its hit point every tick while fixation
    holds, so a gaze sliding along a screen keeps the target current. Hands
    accumulate only while lifted, and an unlifted hand's ray is not read, so
    it may be None; the head and a lifted hand need one. A miss, an unpaired
    hit, or a candidate switch restarts the clock and drops any registered
    target.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    fx = tracker.channels[effector].fixation
    if effector is not Effector.Head and not lifted:
        fx.clear()
        return
    if ray is None:
        raise ValueError(f"{effector.name} fixation needs a ray")

    hit = raycast(room, ray)
    if hit is None or not _interaction_candidate(room, hit.object_id):
        fx.clear()
        return
    if hit.object_id != fx.candidate:
        fx.candidate = hit.object_id
        fx.accumulated = 0.0
        fx.target = None
    fx.accumulated += dt
    if fx.accumulated >= cfg.fixation_threshold:
        obj = room.by_id[hit.object_id]
        fx.target = (hit.object_id, normalize_hit(obj, hit.world_point).uvw, hit.world_point)


def acquire_targets(
    tracker: FixationTracker,
    snapshot: UserSnapshot,
    cfg: StateConfig,
) -> list[WireTarget | None]:
    """Resolve this tick's interaction targets, indexed by `Effector`.

    The head's target is its own fixation. Each lifted hand first takes its
    own fixation; additionally, while the head holds a target the hand's
    motion is tracked against it, and once both the distance and the angle
    conditions hold, the gaze target is assigned to the hand. That assignment
    latches: it survives the hand slowing down at the end of its reach, and
    drops when the gaze target changes or the hand lowers. Head and hands may
    end up with different targets.
    """
    head_target = tracker.channels[Effector.Head].fixation.target
    out: list[WireTarget | None] = [head_target[:2] if head_target else None]

    for ch, hand in zip(tracker.channels[1:], snapshot.effectors[1:]):
        if not hand.lifted:
            ch.converged_to = None
            ch.window.clear()
            ch.window_target = None
            out.append(None)
            continue

        if ch.converged_to is not None and (
            head_target is None or head_target[0] != ch.converged_to
        ):
            ch.converged_to = None

        if head_target is None:
            ch.window.clear()
            ch.window_target = None
        else:
            if ch.window_target != head_target[0]:
                ch.window.clear()
                ch.window_target = head_target[0]
            hx, hy, hz = hand.position.tolist()
            tx, ty, tz = head_target[2]
            to_target = (tx - hx, ty - hy, tz - hz)
            d = norm(to_target)
            if d < 1e-9:
                angle = 0.0
            else:
                f = hand.forward()
                cos_a = dot(f, to_target) / (norm(f) * d)
                angle = math.acos(max(-1.0, min(1.0, cos_a)))
            ch.window.push(snapshot.tick, d, angle)

        # converged_to is now None or the gaze target's id, which it latches
        own = ch.fixation.target
        if (head_target is not None and ch.converged_to is None and ch.window.spans_period()
                and (own is None or own[0] != head_target[0])
                and check_distance_condition(ch.window, cfg) and check_angle_condition(ch.window, cfg)):
            ch.converged_to = head_target[0]
        chosen = head_target if ch.converged_to is not None else own
        out.append(chosen[:2] if chosen is not None else None)
    return out


def classify_state(
    locomotion_state: UserState,
    targets: list[WireTarget | None],
) -> UserState:
    """Locomotion dominates; otherwise any registered target means
    interaction; otherwise solo."""
    if locomotion_state is UserState.Locomotion:
        return UserState.Locomotion
    if any(v is not None for v in targets):
        return UserState.Interaction
    return UserState.Solo
