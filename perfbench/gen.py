"""Seeded input generator for the benchmark.

Everything here is a pure function of the seed: the same seed gives the same
traces. The session rooms are the paired demo rooms, read through
``scene.load_room`` and checked with ``scene.validate_pairing``; every spot
a user stands at passes ``placement.feasible``; motion is scripted only with
``traces.TraceBuilder`` primitives. Every input is one the program accepts
from a user.

The generator is stratified rather than free-running: the spots a user
visits and the order of the visits belong to the room, the session shape
and its timing are fixed, and the seed only picks the details. That keeps the amount of
work per run nearly independent of the seed, which is what lets one seed's
run be compared with another's.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from twinroom import placement as P
from twinroom import scene as S
from twinroom import traces as T

DEMO_ROOMS = Path(__file__).resolve().parent.parent / "demos" / "rooms"

STAND_ROOT = 0.92   # TraceBuilder's default pelvis height
SEAT_ROOT = 0.5     # pelvis height while seated; below SimConfig.sitting_root_height
EYE_ABOVE_ROOT = 0.62  # default skeleton spine + neck
# Every user walks, gazes and points for the same time, so the mix of tick
# kinds, and with it the per-tick cost, is the same for every seed.
WALK_SPEED = 1.05   # m/s
GAZE_S = 0.9
POINT_HOLD_S = 1.5


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, *key])))


def standing_spot(rng, room: S.Room, margin: float = 0.3, tries: int = 400) -> tuple[float, float]:
    ext = room.extents
    for _ in range(tries):
        x = float(rng.uniform(ext.min_x + margin, ext.max_x - margin))
        z = float(rng.uniform(ext.min_z + margin, ext.max_z - margin))
        if P.feasible(room, P.Placement(x, z, 0.0, P.PlacementPose.Standing)):
            return x, z
    raise RuntimeError(f"room {room.id!r}: no free floor found")


def session_rooms() -> tuple[S.Room, S.Room]:
    a = S.load_room(DEMO_ROOMS / "office_a.json")
    b = S.load_room(DEMO_ROOMS / "loft_b.json")
    S.validate_pairing(a, b)
    return a, b


def _sees(room: S.Room, eye: np.ndarray, point: np.ndarray, oid: str) -> bool:
    d = point - eye
    n = float(np.linalg.norm(d))
    if n < 1e-6:
        return False
    hit = S.raycast(room, S.Ray(eye, d / n))
    return hit is not None and hit.object_id == oid


def _aim_point(rng, obj: S.SceneObject) -> np.ndarray:
    uvw = (float(rng.uniform(0.3, 0.7)), float(rng.uniform(0.4, 0.8)), 0.5)
    return S.denormalize_hit(obj, uvw)


def _viewpoint(rng, room: S.Room, obj: S.SceneObject, away_from, tries: int = 300):
    """A free standing spot 1.0-2.0 m from the object, at least 1.2 m from
    every point in ``away_from``, with a clear line of sight to its center.
    Falls back to the last free spot found when no candidate qualifies."""
    ext = room.extents
    center = np.asarray(obj.position, dtype=float)
    spot = None
    for _ in range(tries):
        ang = float(rng.uniform(-math.pi, math.pi))
        r = float(rng.uniform(1.0, 2.0))
        x = float(center[0]) + r * math.sin(ang)
        z = float(center[2]) + r * math.cos(ang)
        if not (ext.min_x + 0.4 < x < ext.max_x - 0.4 and ext.min_z + 0.4 < z < ext.max_z - 0.4):
            continue
        if not P.feasible(room, P.Placement(x, z, 0.0, P.PlacementPose.Standing)):
            continue
        spot = (x, z)
        if away_from and min(math.hypot(x - ax, z - az) for ax, az in away_from) < 1.2:
            continue
        if _sees(room, np.array([x, STAND_ROOT + EYE_ABOVE_ROOT, z]), center, obj.id):
            return spot
    if spot is None:
        spot = standing_spot(rng, room)
    return spot


def routine_spots(room: S.Room) -> tuple[tuple[float, float], dict[str, tuple[float, float]]]:
    """Where a user of this session room starts and where they stand or sit
    for each paired object. The routine belongs to the room, not to the seed
    (a fixed generator draws it), which keeps the placement searches of one
    seed's sessions comparable with another's; seeds jitter these spots."""
    rng = rng_for(0, 4)
    paired = [o for o in room.objects if o.pair_id is not None]
    spots = {o.id: (float(o.position[0]), float(o.position[2])) for o in paired if o.sittable}
    for o in paired:
        if not o.sittable:
            spots[o.id] = _viewpoint(rng, room, o, list(spots.values()))
    start = _viewpoint(rng, room, paired[0], list(spots.values()) + [
        (float(o.position[0]), float(o.position[2])) for o in paired])
    return start, spots


def _jitter(rng, room: S.Room, spot, radius: float = 0.15):
    for _ in range(20):
        x = spot[0] + float(rng.uniform(-radius, radius))
        z = spot[1] + float(rng.uniform(-radius, radius))
        if P.feasible(room, P.Placement(x, z, 0.0, P.PlacementPose.Standing)):
            return x, z
    return spot


def _yaw_towards(x: float, z: float, point) -> float:
    return math.atan2(float(point[0]) - x, float(point[2]) - z)


def _gaze_and_point(rng, b: T.TraceBuilder, x: float, z: float, point) -> None:
    side = "left" if rng.integers(2) else "right"
    b.turn_to(_yaw_towards(x, z, point), seconds=0.25)
    b.gaze_at(point, seconds=GAZE_S)
    b.point_at(point, side=side, hold_s=POINT_HOLD_S)
    b.lower_hands()


def user_script(rng, room: S.Room, blocks: int, seconds: float) -> T.TraceBuilder:
    """One user's session of ``seconds``: ``blocks`` interaction blocks,
    then a hold to the full length. Each block walks to the routine spot of
    a paired object (ending the walk asks the partner for a placement),
    gazes at it and points at it. At a sittable object the user sits down
    first, quickly enough that the placement request asks for a seat, and
    gazes and points at another paired object from there. The seed picks the
    order of the objects, jitters the standing spots and varies timing,
    hands and aim points."""
    start, spots = routine_spots(room)
    paired = [o for o in room.objects if o.pair_id is not None]
    x, z = _jitter(rng, room, start)
    b = T.TraceBuilder(start=(x, z), yaw=float(rng.uniform(-math.pi, math.pi)))
    b.hold(0.3)
    order = paired
    for i in range(blocks):
        obj = order[i % len(order)]
        if obj.sittable:
            x, z = spots[obj.id]
            b.walk_to(x, z, speed=WALK_SPEED)
            b.sit(root_height=SEAT_ROOT, seconds=0.3).hold(0.2)
            _gaze_and_point(rng, b, x, z, _aim_point(rng, order[(i + 1) % len(order)]))
            b.stand(seconds=0.4)
        else:
            x, z = _jitter(rng, room, spots[obj.id])
            b.walk_to(x, z, speed=WALK_SPEED).hold(0.3)
            _gaze_and_point(rng, b, x, z, _aim_point(rng, obj))
        b.hold(0.2)
    left = seconds - len(b.snapshots) / b.tick_rate
    if left > 0:
        b.hold(left)
    return b


def session_traces(seed: int, rooms, blocks: int) -> tuple[T.MotionTrace, T.MotionTrace, int]:
    """Both users' traces for one session, padded to a common length of
    6.5 s per block, plus the session's run seed."""
    rng = rng_for(seed, 3)
    seconds = 0.5 + 6.5 * blocks
    a = user_script(rng, rooms[0], blocks, seconds).build()
    b = user_script(rng, rooms[1], blocks, seconds).build()
    return a, b, int(rng.integers(2**31))
