"""Room model: labeled oriented boxes with raycasts and spatial queries.

A room is a flat rectangle of floor space plus a list of box-shaped objects
(chairs, tables, screens, walls...). Boxes rotate about the vertical axis
only. Objects may carry a ``pair_id`` naming their counterpart in the other
room; a surface point on one object transfers to its pair through normalized
[0,1]^3 local coordinates, so "a third of the way across my screen" lands a
third of the way across the partner's screen whatever its actual size.

All queries are pure functions of immutable data and are safe to call from
parallel placement workers. Scene objects hold numpy arrays as rooms load
them; per-tick queries (raycasts, surface coordinates) read their plain-float
mirrors (`ObjectScalars`) and return float tuples.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .geometry import float_tuple, norm

_EPS = 1e-9


class SceneError(ValueError):
    """Base for room-model validation and query errors."""


class MalformedRoom(SceneError):
    pass


class NonPositiveExtent(SceneError):
    pass


class DuplicateId(SceneError):
    pass


class OutOfRange(SceneError):
    pass


class PairingError(SceneError):
    pass


class ObjectCategory(Enum):
    Chair = 0
    Sofa = 1
    Table = 2
    Screen = 3
    Wall = 4
    Floor = 5
    Other = 6


@dataclass(frozen=True)
class SceneObject:
    """One oriented box. position is the box center; size is full extents."""

    id: str
    category: ObjectCategory
    position: np.ndarray
    yaw: float
    size: np.ndarray
    sittable: bool = False
    sit_height: float | None = None
    pair_id: str | None = None

    # cached trig, filled in __post_init__
    cos_yaw: float = field(init=False, repr=False, compare=False, default=1.0)
    sin_yaw: float = field(init=False, repr=False, compare=False, default=0.0)

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "size", np.asarray(self.size, dtype=float))
        if self.position.shape != (3,) or self.size.shape != (3,):
            raise MalformedRoom(f"object {self.id!r}: position/size must be 3-vectors")
        if not (np.all(np.isfinite(self.position)) and np.all(np.isfinite(self.size))):
            raise MalformedRoom(f"object {self.id!r}: non-finite position or size")
        if np.any(self.size <= 0.0):
            raise NonPositiveExtent(
                f"object {self.id!r}: size must be positive, got {self.size.tolist()}"
            )
        if self.sittable:
            if self.sit_height is None:
                raise MalformedRoom(f"object {self.id!r}: sittable requires sit_height")
            if not (0.2 <= self.sit_height <= 0.8):
                raise MalformedRoom(
                    f"object {self.id!r}: sit_height {self.sit_height} outside [0.2, 0.8]"
                )
        object.__setattr__(self, "cos_yaw", math.cos(self.yaw))
        object.__setattr__(self, "sin_yaw", math.sin(self.yaw))

    @property
    def support_height(self) -> float:
        """Height of the surface this object offers: seat height for sittable
        objects (a chair's backrest does not count), box top otherwise."""
        if self.sittable:
            return float(self.sit_height)
        return float(self.position[1]) + float(self.size[1]) * 0.5

    def to_local(self, world_point) -> tuple[float, float, float]:
        """World point -> box-local frame (center origin, yaw removed)."""
        x, y, z = world_point
        px, py, pz = self.position.tolist()
        dx = x - px
        dz = z - pz
        c, s = self.cos_yaw, self.sin_yaw
        return (dx * c - dz * s, y - py, dx * s + dz * c)

    def to_world(self, local_point) -> tuple[float, float, float]:
        lx, ly, lz = local_point
        px, py, pz = self.position.tolist()
        c, s = self.cos_yaw, self.sin_yaw
        return (px + lx * c + lz * s, py + ly, pz - lx * s + lz * c)

    def footprint_corners(self) -> list[tuple[float, float]]:
        hx = float(self.size[0]) * 0.5
        hz = float(self.size[2]) * 0.5
        c, s = self.cos_yaw, self.sin_yaw
        out = []
        for lx, lz in ((-hx, -hz), (-hx, hz), (hx, -hz), (hx, hz)):
            out.append(
                (
                    float(self.position[0]) + lx * c + lz * s,
                    float(self.position[2]) - lx * s + lz * c,
                )
            )
        return out


class ObjectScalars:
    """Plain-float mirror of one SceneObject for hot query loops.

    Attribute access on numpy scalars dominates the placement search budget
    otherwise; these are ordinary Python floats.
    """

    __slots__ = (
        "id", "category", "px", "py", "pz", "cos", "sin",
        "hx", "hy", "hz", "support", "sittable", "sit_height",
    )

    def __init__(self, o: SceneObject):
        self.id = o.id
        self.category = o.category
        self.px = float(o.position[0])
        self.py = float(o.position[1])
        self.pz = float(o.position[2])
        self.cos = o.cos_yaw
        self.sin = o.sin_yaw
        self.hx = float(o.size[0]) * 0.5
        self.hy = float(o.size[1]) * 0.5
        self.hz = float(o.size[2]) * 0.5
        self.support = o.support_height
        self.sittable = o.sittable
        self.sit_height = float(o.sit_height) if o.sit_height is not None else None


class RoomArrays:
    """Per-object columns as (count, 1) numpy arrays, for vectorized
    footprint tests against a row of points."""

    _COLUMNS = ("px", "pz", "cos", "sin", "hx_tol", "hz_tol", "support", "reach_x", "reach_z")
    __slots__ = _COLUMNS + ("count",)

    def __init__(self, objects: tuple[SceneObject, ...]):
        def column(values) -> np.ndarray:
            return np.array(values, dtype=float).reshape(-1, 1)

        self.count = len(objects)
        self.px = column([float(o.position[0]) for o in objects])
        self.pz = column([float(o.position[2]) for o in objects])
        self.cos = column([o.cos_yaw for o in objects])
        self.sin = column([o.sin_yaw for o in objects])
        # footprint half extents with the containment tolerance
        self.hx_tol = column([float(o.size[0]) * 0.5 for o in objects]) + _EPS
        self.hz_tol = column([float(o.size[2]) * 0.5 for o in objects]) + _EPS
        self.support = column([o.support_height for o in objects])
        # half extents of the tolerant footprint's axis-aligned bounding box,
        # padded far beyond the rounding of the rotated footprint test and
        # of the box test in `reaching`
        ax, az = np.abs(self.cos), np.abs(self.sin)
        self.reach_x = self.hx_tol * ax + self.hz_tol * az
        self.reach_z = self.hx_tol * az + self.hz_tol * ax
        pad = 1e-9 * (1.0 + np.abs(self.px) + np.abs(self.pz) + self.reach_x + self.reach_z)
        self.reach_x += pad
        self.reach_z += pad

    def reaching(self, min_x: float, min_z: float, max_x: float, max_z: float) -> "RoomArrays":
        """The objects whose footprint can cover a point of the box
        [min_x, max_x] x [min_z, max_z]. The others cover none of its
        points, so ``support_heights`` on points inside the box is
        bit-identical with the subset."""
        keep = (
            (self.px - self.reach_x <= max_x) & (self.px + self.reach_x >= min_x)
            & (self.pz - self.reach_z <= max_z) & (self.pz + self.reach_z >= min_z)
        ).reshape(-1)
        subset = object.__new__(RoomArrays)
        for name in RoomArrays._COLUMNS:
            setattr(subset, name, getattr(self, name)[keep])
        subset.count = int(keep.sum())
        return subset

    def support_heights(self, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """Max support height among these objects covering each point
        (xs[i], zs[i]), 0 for bare floor; the result has the shape of
        ``xs``. One broadcast against every object."""
        if self.count == 0:
            return np.zeros(xs.shape)
        # objects along the first axis, points along the long, contiguous last one
        dx = xs.reshape(1, -1) - self.px
        dz = zs.reshape(1, -1) - self.pz
        lx = dx * self.cos - dz * self.sin
        lz = dx * self.sin + dz * self.cos
        covered = (np.abs(lx) <= self.hx_tol) & (np.abs(lz) <= self.hz_tol)
        heights = np.where(covered, self.support, 0.0).max(axis=0)
        return np.maximum(heights, 0.0).reshape(xs.shape)


@dataclass(frozen=True)
class Extents:
    min_x: float
    min_z: float
    max_x: float
    max_z: float

    def __post_init__(self):
        if not (self.max_x > self.min_x and self.max_z > self.min_z):
            raise NonPositiveExtent(
                f"extents must span a positive area, got "
                f"[{self.min_x},{self.min_z}]..[{self.max_x},{self.max_z}]"
            )

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def depth(self) -> float:
        return self.max_z - self.min_z

    def contains(self, x: float, z: float, tol: float = 1e-6) -> bool:
        return (
            self.min_x - tol <= x <= self.max_x + tol
            and self.min_z - tol <= z <= self.max_z + tol
        )


@dataclass(frozen=True)
class Room:
    id: str
    extents: Extents
    objects: tuple[SceneObject, ...]
    by_id: dict[str, SceneObject] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        index: dict[str, SceneObject] = {}
        for o in self.objects:
            if o.id in index:
                raise DuplicateId(f"room {self.id!r}: duplicate object id {o.id!r}")
            index[o.id] = o
        object.__setattr__(self, "by_id", index)
        for o in self.objects:
            for cx, cz in o.footprint_corners():
                if not self.extents.contains(cx, cz):
                    raise MalformedRoom(
                        f"room {self.id!r}: object {o.id!r} extends outside room extents"
                    )

    @property
    def scalars(self) -> tuple[ObjectScalars, ...]:
        cached = getattr(self, "_scalars", None)
        if cached is None:
            cached = tuple(ObjectScalars(o) for o in self.objects)
            object.__setattr__(self, "_scalars", cached)
        return cached

    @property
    def arrays(self) -> RoomArrays:
        cached = getattr(self, "_arrays", None)
        if cached is None:
            cached = RoomArrays(self.objects)
            object.__setattr__(self, "_arrays", cached)
        return cached

    def object(self, object_id: str) -> SceneObject:
        try:
            return self.by_id[object_id]
        except KeyError:
            raise OutOfRange(f"room {self.id!r} has no object {object_id!r}") from None

    def with_extra(self, extra: list[SceneObject]) -> "Room":
        """Room view with transient objects appended (e.g. the partner's head
        as a gaze candidate). Skips the containment check: transient objects
        track a live pose and may brush the walls."""
        r = object.__new__(Room)
        object.__setattr__(r, "id", self.id)
        object.__setattr__(r, "extents", self.extents)
        object.__setattr__(r, "objects", self.objects + tuple(extra))
        index = dict(self.by_id)
        for o in extra:
            if o.id in index:
                raise DuplicateId(f"room {self.id!r}: duplicate object id {o.id!r}")
            index[o.id] = o
        object.__setattr__(r, "by_id", index)
        object.__setattr__(r, "_scalars", self.scalars + tuple(ObjectScalars(o) for o in extra))
        return r


@dataclass(frozen=True)
class Ray:
    origin: tuple[float, float, float]
    direction: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "origin", float_tuple(self.origin))
        object.__setattr__(self, "direction", float_tuple(self.direction))
        n = norm(self.direction)
        if abs(n - 1.0) > 1e-6:
            raise SceneError(f"ray direction must be unit length, |d|={n}")


@dataclass(frozen=True)
class RayHit:
    object_id: str
    world_point: tuple[float, float, float]
    distance: float


@dataclass(frozen=True)
class NormalizedHit:
    """Surface point in an object's size-relative coordinates.

    (u, v, w) are offsets from the box's minimum corner divided by its
    extents, each in [0,1]. The same triple applied to the paired object
    lands on the geometrically corresponding spot of that object.
    """

    object_id: str
    u: float
    v: float
    w: float

    def __post_init__(self):
        for name, c in (("u", self.u), ("v", self.v), ("w", self.w)):
            if not (0.0 <= c <= 1.0):
                raise OutOfRange(f"normalized coordinate {name}={c} outside [0,1]")

    @property
    def uvw(self) -> tuple[float, float, float]:
        return (self.u, self.v, self.w)


@dataclass(frozen=True)
class HeightMap:
    """Square grid of support heights sampled at cell centers around a point.

    The grid spans (2n+1) x (2n+1) cells with n = floor(radius / cell_size);
    a cell is valid iff its center lies within `radius` of `center`. Each
    valid cell holds the maximum support height among objects whose footprint
    covers the cell center, 0 for bare floor. Invalid cells hold 0.
    """

    center: np.ndarray
    radius: float
    cell_size: float
    heights: np.ndarray
    valid: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, HeightMap):
            return NotImplemented
        return (
            np.array_equal(self.center, other.center)
            and self.radius == other.radius
            and self.cell_size == other.cell_size
            and np.array_equal(self.heights, other.heights)
            and np.array_equal(self.valid, other.valid)
        )

    @property
    def half_n(self) -> int:
        return (self.heights.shape[0] - 1) // 2


# --- loading ----------------------------------------------------------------

_CATEGORY_BY_NAME = {c.name: c for c in ObjectCategory}


def _parse_object(doc: dict) -> SceneObject:
    try:
        cat_name = doc["category"]
        cat = _CATEGORY_BY_NAME.get(cat_name)
        if cat is None:
            raise MalformedRoom(f"unknown category {cat_name!r}")
        return SceneObject(
            id=str(doc["id"]),
            category=cat,
            position=np.array(doc["position"], dtype=float),
            yaw=float(doc["yaw"]),
            size=np.array(doc["size"], dtype=float),
            sittable=bool(doc.get("sittable", False)),
            sit_height=(float(doc["sit_height"]) if doc.get("sit_height") is not None else None),
            pair_id=(str(doc["pair_id"]) if doc.get("pair_id") is not None else None),
        )
    except KeyError as e:
        raise MalformedRoom(f"object document missing field {e.args[0]!r}") from None


def load_room(document) -> Room:
    """Build a validated Room from a JSON file path, JSON text, or dict.

    Pairing references are not resolved here; they name objects in the other
    room and are checked against it at session start (validate_pairing).
    """
    if isinstance(document, Room):
        return document
    if isinstance(document, (str, Path)):
        # inline JSON starts with '{'; anything else is treated as a path
        if isinstance(document, str) and document.lstrip().startswith("{"):
            text = document
        else:
            p = Path(document)
            if not p.exists():
                raise MalformedRoom(f"room file not found: {document}")
            text = p.read_text()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise MalformedRoom(f"room document is not valid JSON: {e}") from None
    elif isinstance(document, dict):
        doc = document
    else:
        raise MalformedRoom(f"unsupported room document type {type(document).__name__}")

    try:
        ext = doc["extents"]
        extents = Extents(
            min_x=float(ext["min"][0]),
            min_z=float(ext["min"][1]),
            max_x=float(ext["max"][0]),
            max_z=float(ext["max"][1]),
        )
        objects = tuple(_parse_object(o) for o in doc.get("objects", []))
        return Room(id=str(doc["id"]), extents=extents, objects=objects)
    except KeyError as e:
        raise MalformedRoom(f"room document missing field {e.args[0]!r}") from None
    except (TypeError, IndexError) as e:
        raise MalformedRoom(f"room document malformed: {e}") from None


def validate_pairing(local: Room, remote: Room) -> None:
    """Check every pair_id in either room names a same-category object in the
    other room. Raises PairingError listing all problems at once."""
    problems: list[str] = []
    for here, there in ((local, remote), (remote, local)):
        for o in here.objects:
            if o.pair_id is None:
                continue
            partner = there.by_id.get(o.pair_id)
            if partner is None:
                problems.append(
                    f"{here.id}/{o.id} pairs to {o.pair_id!r} which is absent from {there.id}"
                )
            elif partner.category is not o.category:
                problems.append(
                    f"{here.id}/{o.id} ({o.category.name}) pairs to "
                    f"{there.id}/{o.pair_id} ({partner.category.name})"
                )
    if problems:
        raise PairingError("; ".join(problems))


def room_hash(room: Room) -> int:
    """Stable 64-bit content hash of a room (FNV-1a over a canonical form)."""
    parts = [
        room.id,
        repr((room.extents.min_x, room.extents.min_z, room.extents.max_x, room.extents.max_z)),
    ]
    for o in sorted(room.objects, key=lambda o: o.id):
        parts.append(
            "|".join(
                (
                    o.id,
                    o.category.name,
                    repr(tuple(o.position.tolist())),
                    repr(o.yaw),
                    repr(tuple(o.size.tolist())),
                    repr(o.sittable),
                    repr(o.sit_height),
                    repr(o.pair_id),
                )
            )
        )
    data = "\n".join(parts).encode()
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


# --- raycast ----------------------------------------------------------------

def _ray_box_distance(obj: ObjectScalars, origin, direction) -> float | None:
    """Slab test in the box's local frame. Returns the hit distance, or None.

    A ray starting inside the box hits its exit surface.
    """
    c, s = obj.cos, obj.sin
    dx = origin[0] - obj.px
    dz = origin[2] - obj.pz
    o = (dx * c - dz * s, origin[1] - obj.py, dx * s + dz * c)
    d = (
        direction[0] * c - direction[2] * s,
        direction[1],
        direction[0] * s + direction[2] * c,
    )
    half = (obj.hx, obj.hy, obj.hz)
    t_near = -math.inf
    t_far = math.inf
    for axis in range(3):
        if abs(d[axis]) < 1e-12:
            if abs(o[axis]) > half[axis]:
                return None
            continue
        t1 = (-half[axis] - o[axis]) / d[axis]
        t2 = (half[axis] - o[axis]) / d[axis]
        if t1 > t2:
            t1, t2 = t2, t1
        t_near = max(t_near, t1)
        t_far = min(t_far, t2)
        if t_near > t_far:
            return None
    if t_far < 0.0:
        return None
    return t_near if t_near >= 0.0 else t_far


def raycast(room: Room, ray: Ray) -> RayHit | None:
    """Nearest oriented-box intersection, or None. Exact distance ties go to
    the lexicographically smaller object id."""
    best: tuple[float, str] | None = None
    for obj in room.scalars:
        t = _ray_box_distance(obj, ray.origin, ray.direction)
        if t is None:
            continue
        key = (t, obj.id)
        if best is None or key < best:
            best = key
    if best is None:
        return None
    t, oid = best
    (ox, oy, oz), (dx, dy, dz) = ray.origin, ray.direction
    return RayHit(object_id=oid, world_point=(ox + dx * t, oy + dy * t, oz + dz * t), distance=t)


# --- normalized coordinates -------------------------------------------------

def normalize_hit(obj: SceneObject, world_point) -> NormalizedHit:
    """World surface/interior point -> size-relative (u,v,w) in [0,1].

    The point must lie within the box (tolerance 1e-4 m); coordinates are
    clamped into [0,1] so that boundary points survive float round-off.
    """
    local = obj.to_local(world_point)
    size = obj.size.tolist()
    for axis in range(3):
        if abs(local[axis]) > size[axis] * 0.5 + 1e-4:
            raise OutOfRange(f"point {list(world_point)} outside object {obj.id!r}")
    u, v, w = (min(1.0, max(0.0, (local[a] + size[a] * 0.5) / size[a])) for a in range(3))
    return NormalizedHit(object_id=obj.id, u=u, v=v, w=w)


def denormalize_hit(obj: SceneObject, hit: NormalizedHit | tuple[float, float, float]) -> tuple[float, float, float]:
    """Size-relative (u,v,w) -> world point on/in the given object."""
    uvw = hit.uvw if isinstance(hit, NormalizedHit) else tuple(hit)
    for name, c in zip("uvw", uvw):
        if not (0.0 <= c <= 1.0):
            raise OutOfRange(f"normalized coordinate {name}={c} outside [0,1]")
    return obj.to_world([(c - 0.5) * extent for c, extent in zip(uvw, obj.size.tolist())])


# --- spatial queries --------------------------------------------------------

def objects_in_fov(room: Room, eye, forward, half_angle: float) -> list[tuple[str, float]]:
    """Objects whose center lies in the view cone, as (id, eye-to-center
    distance) sorted by distance (ties by id)."""
    ex, ey, ez = float(eye[0]), float(eye[1]), float(eye[2])
    fx, fy, fz = float(forward[0]), float(forward[1]), float(forward[2])
    cos_half = math.cos(half_angle)
    out: list[tuple[float, str]] = []
    for o in room.scalars:
        vx = o.px - ex
        vy = o.py - ey
        vz = o.pz - ez
        dist = math.sqrt(vx * vx + vy * vy + vz * vz)
        if dist < _EPS:
            out.append((dist, o.id))  # coincident with the eye: inside any cone
            continue
        if vx * fx + vy * fy + vz * fz >= cos_half * dist:
            out.append((dist, o.id))
    out.sort()
    return [(oid, dist) for dist, oid in out]


def objects_in_radius(room: Room, center, radius: float) -> list[tuple[str, float]]:
    """Objects within horizontal center-to-center distance, sorted ascending."""
    if radius <= 0.0:
        raise OutOfRange(f"radius must be positive, got {radius}")
    cx = float(center[0])
    cz = float(center[2])
    out: list[tuple[float, str]] = []
    for o in room.scalars:
        d = math.hypot(o.px - cx, o.pz - cz)
        if d <= radius:
            out.append((d, o.id))
    out.sort()
    return [(oid, d) for d, oid in out]


def support_height_at(room: Room, x: float, z: float) -> float:
    """Max support height among objects covering (x, z); 0 for bare floor.
    Never negative: a surface below the floor cannot be stood on."""
    h = 0.0
    for o in room.scalars:
        dx = x - o.px
        dz = z - o.pz
        lx = dx * o.cos - dz * o.sin
        lz = dx * o.sin + dz * o.cos
        if abs(lx) <= o.hx + _EPS and abs(lz) <= o.hz + _EPS:
            if o.support > h:
                h = o.support
    return h


def support_heights(room: Room, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Max support height among objects covering each point (xs[i], zs[i]),
    0 for bare floor; the result has the shape of ``xs``.

    The batched form of the footprint test behind height maps and standing
    feasibility, against every object of the room; a search confined to a
    box calls ``room.arrays.reaching(...).support_heights`` instead.
    """
    return room.arrays.support_heights(xs, zs)


def height_map_grid(radius: float, cell_size: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A height map's validity mask and its valid cells' (x, z) offsets from
    the center, in row-major order."""
    n = int(math.floor(radius / cell_size + _EPS))
    side = 2 * n + 1
    offs = (np.arange(side) - n) * cell_size
    valid = np.sqrt(offs[:, None] ** 2 + offs[None, :] ** 2) <= radius + _EPS
    flat_valid = valid.reshape(-1)
    ox = offs[:, None].repeat(side, axis=1).reshape(-1)[flat_valid]
    oz = offs[None, :].repeat(side, axis=0).reshape(-1)[flat_valid]
    return valid, ox, oz


def height_map(room: Room, center, radius: float, cell_size: float) -> HeightMap:
    """The height map around ``center`` (x, y, z); invalid cells are never
    sampled."""
    if not (radius > 0.0 and cell_size > 0.0):
        raise OutOfRange(f"radius and cell_size must be positive, got {radius}, {cell_size}")
    radius, cell_size = float(radius), float(cell_size)
    center = np.asarray(center, dtype=float).reshape(3)
    valid, ox, oz = height_map_grid(radius, cell_size)
    heights = np.zeros(valid.shape)
    heights[valid] = support_heights(room, center[0] + ox, center[2] + oz)
    return HeightMap(center=center, radius=radius, cell_size=cell_size, heights=heights, valid=valid)
