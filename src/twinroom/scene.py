"""Room model: labeled oriented boxes with raycasts and spatial queries.

A room is a flat rectangle of floor space plus a list of box-shaped objects
(chairs, tables, screens, walls...). Boxes rotate about the vertical axis
only. Objects may carry a ``pair_id`` naming their counterpart in the other
room; a surface point on one object transfers to its pair through normalized
[0,1]^3 local coordinates, so "a third of the way across my screen" lands a
third of the way across the partner's screen whatever its actual size.

All queries are pure functions of immutable data. A room holds its objects
in two forms. Each `SceneObject` holds plain floats (float tuples for
position and size) and the values derived from them once; the per-point
queries (raycasts, surface coordinates, fields of view, support heights)
loop over `Room.objects` and return float tuples. A raycast runs the exact
slab test only on the boxes whose padded bounding sphere the ray meets in
front of its origin; the pad grows with the distance, so the gate never
skips a box the slab test hits (see `raycast`). `RoomArrays`, built once
per room, holds the same objects in category order as numpy columns for the
placement search's broadcasts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, is_dataclass
from enum import Enum
from functools import cache, cached_property
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .geometry import float_tuple, norm

_EPS = 1e-9
# how far a point may lie outside a room's extents and still count as inside
_EXTENTS_TOL = 1e-6


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


@dataclass(frozen=True, slots=True)
class SceneObject:
    """One oriented box. position is the box center; size is full extents.

    position, size, yaw and sit_height hold Python floats, whatever numbers
    they were given. The values every query reads are derived once here:
    the yaw's cosine and sine, the half extents, the bounding sphere's
    radius (the half extents' norm) and the support height.
    """

    id: str
    category: ObjectCategory
    position: tuple[float, float, float]
    yaw: float
    size: tuple[float, float, float]
    sittable: bool = False
    sit_height: float | None = None
    pair_id: str | None = None

    cos_yaw: float = field(init=False, repr=False, compare=False)
    sin_yaw: float = field(init=False, repr=False, compare=False)
    half_size: tuple[float, float, float] = field(init=False, repr=False, compare=False)
    # radius of the sphere about `position` that holds the whole box
    radius: float = field(init=False, repr=False, compare=False)
    # height of the surface this object offers: seat height for sittable
    # objects (a chair's backrest does not count), box top otherwise
    support_height: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            oid = require_str(self.id, "id", MalformedRoom)
            pair_id = self.pair_id if self.pair_id is None else require_str(self.pair_id, "pair_id", MalformedRoom)
            if type(self.sittable) is not bool:
                raise MalformedRoom(f"sittable must be true or false, got {self.sittable!r}")
            position = tuple(map(float, require_numbers(self.position, 3, "position", MalformedRoom)))
            size = tuple(map(float, require_numbers(self.size, 3, "size", MalformedRoom)))
            yaw = float(require_number(self.yaw, "yaw", MalformedRoom))
            sit_height = self.sit_height
            if sit_height is not None:
                sit_height = float(require_number(sit_height, "sit_height", MalformedRoom))
            if self.sittable and sit_height is None:
                raise MalformedRoom("sittable requires sit_height")
            if self.sittable and not 0.2 <= sit_height <= 0.8:
                raise MalformedRoom(f"sit_height {sit_height} outside [0.2, 0.8]")
        except MalformedRoom as e:
            raise MalformedRoom(f"object {self.id!r}: {e}") from None
        if not all(v > 0.0 for v in size):
            raise NonPositiveExtent(f"object {self.id!r}: size must be positive, got {list(size)}")
        half = (size[0] * 0.5, size[1] * 0.5, size[2] * 0.5)
        put = object.__setattr__
        put(self, "id", oid)
        put(self, "pair_id", pair_id)
        put(self, "position", position)
        put(self, "size", size)
        put(self, "yaw", yaw)
        put(self, "sit_height", sit_height)
        put(self, "cos_yaw", math.cos(yaw))
        put(self, "sin_yaw", math.sin(yaw))
        put(self, "half_size", half)
        put(self, "radius", norm(half))
        put(self, "support_height", sit_height if self.sittable else position[1] + half[1])

    def to_local(self, world_point) -> tuple[float, float, float]:
        """World point -> box-local frame (center origin, yaw removed)."""
        x, y, z = world_point
        px, py, pz = self.position
        dx = x - px
        dz = z - pz
        c, s = self.cos_yaw, self.sin_yaw
        return (dx * c - dz * s, y - py, dx * s + dz * c)

    def to_world(self, local_point) -> tuple[float, float, float]:
        lx, ly, lz = local_point
        px, py, pz = self.position
        c, s = self.cos_yaw, self.sin_yaw
        return (px + lx * c + lz * s, py + ly, pz - lx * s + lz * c)

    def footprint_corners(self) -> list[tuple[float, float]]:
        px, _, pz = self.position
        hx, _, hz = self.half_size
        c, s = self.cos_yaw, self.sin_yaw
        return [
            (px + lx * c + lz * s, pz - lx * s + lz * c)
            for lx, lz in ((-hx, -hz), (-hx, hz), (hx, -hz), (hx, hz))
        ]


class RoomArrays:
    """A room's objects in category order, with per-object columns as
    (count, 1) numpy arrays for broadcasts against a row of points.

    ``codes`` holds each object's category code; ``starts`` and
    ``run_codes`` hold where each present category's run of objects starts
    and its code. Maxima and minima over these columns, per category or
    not, do not depend on the order of the objects.
    """

    __slots__ = (
        "objects", "count", "codes", "starts", "run_codes",
        "px", "py", "pz", "cos", "sin", "hx_tol", "hz_tol", "support", "reach_x", "reach_z",
    )

    def __init__(self, objects: tuple[SceneObject, ...]):
        def column(values) -> np.ndarray:
            return np.array(values, dtype=float).reshape(-1, 1)

        objects = tuple(sorted(objects, key=lambda o: o.category.value))
        self.objects = objects
        self.count = len(objects)
        self.codes = tuple(o.category.value for o in objects)
        starts = [i for i, code in enumerate(self.codes) if i == 0 or code != self.codes[i - 1]]
        self.starts = np.array(starts, dtype=np.intp)
        self.run_codes = np.array([self.codes[i] for i in starts], dtype=np.intp)
        self.px = column([o.position[0] for o in objects])
        self.py = column([o.position[1] for o in objects])
        self.pz = column([o.position[2] for o in objects])
        self.cos = column([o.cos_yaw for o in objects])
        self.sin = column([o.sin_yaw for o in objects])
        # footprint half extents with the containment tolerance
        self.hx_tol = column([o.half_size[0] for o in objects]) + _EPS
        self.hz_tol = column([o.half_size[2] for o in objects]) + _EPS
        # support heights clamped at the floor, as `support_height_at` reads
        # them: a surface below the floor cannot be stood on
        self.support = np.maximum(column([o.support_height for o in objects]), 0.0)
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
        ).reshape(-1).tolist()
        return RoomArrays(tuple(o for o, k in zip(self.objects, keep) if k))

    def support_heights(self, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """Max support height among these objects covering each point
        (xs[i], zs[i]), 0 for bare floor; the result has the shape of
        ``xs``. One broadcast against every object, computed in place."""
        if self.count == 0:
            return np.zeros(xs.shape)
        # objects along the first axis, points along the long, contiguous last one
        dx = xs.reshape(1, -1) - self.px
        dz = zs.reshape(1, -1) - self.pz
        lx = dx * self.cos
        lx -= dz * self.sin
        lz = np.multiply(dx, self.sin, out=dx)
        lz += np.multiply(dz, self.cos, out=dz)
        covered = np.abs(lx, out=lx) <= self.hx_tol
        covered &= np.abs(lz, out=lz) <= self.hz_tol
        heights = np.where(covered, self.support, 0.0)
        return (heights[0] if self.count == 1 else heights.max(axis=0)).reshape(xs.shape)


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

    def contains(self, x: float, z: float) -> bool:
        return (
            self.min_x - _EXTENTS_TOL <= x <= self.max_x + _EXTENTS_TOL
            and self.min_z - _EXTENTS_TOL <= z <= self.max_z + _EXTENTS_TOL
        )

    def contains_all(self, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
        """``contains`` of each point (xs[i], zs[i]), with the same comparisons."""
        return (
            (self.min_x - _EXTENTS_TOL <= xs) & (xs <= self.max_x + _EXTENTS_TOL)
            & (self.min_z - _EXTENTS_TOL <= zs) & (zs <= self.max_z + _EXTENTS_TOL)
        )


@dataclass(frozen=True)
class Room:
    id: str
    extents: Extents
    objects: tuple[SceneObject, ...]
    by_id: dict[str, SceneObject] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "id", require_str(self.id, "room id", MalformedRoom))
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

    @cached_property
    def arrays(self) -> RoomArrays:
        return RoomArrays(self.objects)

    @cached_property
    def content_hash(self) -> int:
        """`room_hash`: FNV-1a over a canonical form, objects by id. A
        `with_extra` view is another `Room` and hashes its own objects."""
        parts = [
            self.id,
            repr((self.extents.min_x, self.extents.min_z, self.extents.max_x, self.extents.max_z)),
        ]
        for o in sorted(self.objects, key=lambda o: o.id):
            parts.append(
                "|".join(
                    (
                        o.id,
                        o.category.name,
                        repr(o.position),
                        repr(o.yaw),
                        repr(o.size),
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


# --- loading ----------------------------------------------------------------

_CATEGORY_BY_NAME = {c.name: c for c in ObjectCategory}


def _parse_object(doc) -> SceneObject:
    if not isinstance(doc, dict):
        raise MalformedRoom(f"objects entry must be an object, got {doc!r}")
    try:
        category = doc["category"]
        if not isinstance(category, str) or category not in _CATEGORY_BY_NAME:
            raise MalformedRoom(f"object {doc.get('id')!r}: category must be one of "
                                f"{', '.join(_CATEGORY_BY_NAME)}, got {category!r}")
        return SceneObject(
            id=doc["id"],
            category=_CATEGORY_BY_NAME[category],
            position=doc["position"],
            yaw=doc["yaw"],
            size=doc["size"],
            sittable=doc.get("sittable", False),
            sit_height=doc.get("sit_height"),
            pair_id=doc.get("pair_id"),
        )
    except KeyError as e:
        raise MalformedRoom(f"object document missing field {e.args[0]!r}") from None


# Every loader takes its document's fields through these four checks. Each
# returns the value it checked, or raises ``error`` naming the field.

_NUMBER_TYPES = (int, float, np.integer, np.floating)  # np.bool_ is neither
_JSON_NUMBERS = frozenset((int, float))


def require_number(value, name: str, error: type[Exception]):
    """A finite int or float, numpy scalars included; never a bool or a string."""
    if type(value) is bool or not isinstance(value, _NUMBER_TYPES):
        raise error(f"{name} must be a number, got {value!r}")
    try:
        if math.isfinite(value):
            return value
    except OverflowError:  # an int beyond the float range
        pass
    raise error(f"{name} must be finite, got {value!r}")


def require_numbers(values, count: int, name: str, error: type[Exception]):
    """A list (or, built in code, a tuple or numpy vector) of exactly
    ``count`` values, each a `require_number`."""
    if not isinstance(values, (list, tuple, np.ndarray)) or len(values) != count:
        raise error(f"{name} must be a list of {count} floats, got {values!r}")
    try:  # a JSON list of ints and floats passes in one C-level pass
        if set(map(type, values)) <= _JSON_NUMBERS and all(map(math.isfinite, values)):
            return values
    except OverflowError:
        pass
    for v in values:  # numpy scalars pass here; anything else is named
        require_number(v, name, error)
    return values


def require_int(value, name: str, error: type[Exception]):
    """An int, never a bool: a count, a seed or a tick is not a float that
    happens to be whole."""
    if type(value) is bool or not isinstance(value, int):
        raise error(f"{name} must be an int, got {value!r}")
    return value


def require_str(value, name: str, error: type[Exception]) -> str:
    """A string, as a plain str (a numpy string too): an id is never another
    JSON value made into one."""
    if not isinstance(value, str):
        raise error(f"{name} must be a string, got {value!r}")
    return str(value)


def require_field(hint, value, name: str, error: type[Exception]):
    """A value for a config field annotated ``hint``: a `require_numbers` of a
    tuple's length (as a tuple), a `require_int` or a `require_number`."""
    if get_origin(hint) is tuple:
        return tuple(require_numbers(value, len(get_args(hint)), name, error))
    return (require_int if hint is int else require_number)(value, name, error)


_field_hints = cache(get_type_hints)  # a config class's resolved field annotations


def require_fields(config) -> None:
    """Each field of a config dataclass as `require_field` takes it, a nested
    config an instance of its class: what `placement.config_from_dict` asks
    of a document, asked first by each config's ``__post_init__``."""
    for name, hint in _field_hints(type(config)).items():
        value = getattr(config, name)
        if not is_dataclass(hint):
            require_field(hint, value, name, ValueError)
        elif type(value) is not hint:
            raise ValueError(f"{name} must be a {hint.__name__}, got {value!r}")


def read_document(document, error: type[Exception]) -> str:
    """The text of a JSON or JSONL document, given inline or by file.

    A str whose first non-blank character is '{' or '[' is the document
    itself; any other str, or a Path, names a file. A file that cannot be
    read, or an argument of any other type, raises ``error`` naming it.
    """
    if isinstance(document, str) and document.lstrip()[:1] in ("{", "["):
        return document
    if not isinstance(document, (str, Path)):
        raise error(f"unsupported document type {type(document).__name__}")
    try:
        return Path(document).read_text()
    except FileNotFoundError:
        raise error(f"file not found: {document}") from None
    except (OSError, ValueError) as e:  # ValueError: not UTF-8, or a NUL in the path
        raise error(f"cannot read {document}: {getattr(e, 'strerror', None) or e}") from None


def load_room(document) -> Room:
    """Build a validated Room from itself, a dict, or JSON read by
    `read_document` (inline if it starts with '{' or '[', else a file path).

    Pairing references are not resolved here; they name objects in the other
    room and are checked against it at session start (validate_pairing).
    """
    if isinstance(document, Room):
        return document
    doc = document
    if not isinstance(doc, dict):
        try:
            doc = json.loads(read_document(document, MalformedRoom))
        except json.JSONDecodeError as e:
            raise MalformedRoom(f"room document is not valid JSON: {e}") from None

    if not isinstance(doc, dict):
        raise MalformedRoom(f"room document must be an object, got {type(doc).__name__}")
    try:
        ext, owner = doc["extents"], f"room {doc.get('id')!r}"
        if not isinstance(ext, dict):
            raise MalformedRoom(f"{owner}: extents must be an object with min and max, got {ext!r}")
        corners = {end: ext[end] for end in ("min", "max")}
        for end, xz in corners.items():
            if not isinstance(xz, list) or len(xz) != 2:
                raise MalformedRoom(f"{owner}: extents {end} must be a list of 2 numbers, got {xz!r}")
        extents = Extents(*(float(require_number(v, f"{owner}: extents {end}_{axis}", MalformedRoom))
                            for end, xz in corners.items() for axis, v in zip("xz", xz)))
        objects = doc.get("objects", [])
        if not isinstance(objects, list):
            raise MalformedRoom(f"{owner}: objects must be a list, got {objects!r}")
        objects = tuple(_parse_object(o) for o in objects)
        return Room(id=doc["id"], extents=extents, objects=objects)
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
    """Stable 64-bit content hash of a room (FNV-1a over a canonical form),
    computed once per `Room` (see `Room.content_hash`)."""
    return room.content_hash


# --- raycast ----------------------------------------------------------------

def _ray_box_distance(obj: SceneObject, origin, direction) -> float | None:
    """Slab test in the box's local frame. Returns the hit distance, or None.

    A ray starting inside the box hits its exit surface.
    """
    c, s = obj.cos_yaw, obj.sin_yaw
    px, py, pz = obj.position
    dx = origin[0] - px
    dz = origin[2] - pz
    o = (dx * c - dz * s, origin[1] - py, dx * s + dz * c)
    d = (
        direction[0] * c - direction[2] * s,
        direction[1],
        direction[0] * s + direction[2] * c,
    )
    half = obj.half_size
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
    the lexicographically smaller object id.

    A bounding-sphere gate (Kay & Kajiya, 1986) runs before each box's slab
    test. With ``v`` the vector from the ray's origin to the box centre,
    ``tc = v . d`` and the closest-point vector ``w = v - tc * d``, the box
    is skipped when ``tc < -reach`` (the sphere lies wholly behind the
    origin) or ``|w| > reach`` (the ray's line passes outside it), where
    ``reach = radius + 1e-5 * (1 + radius + |tc|)``. It never skips a box
    the slab test hits: every point of the box lies within ``radius`` of
    its centre, and the pad, which grows with the distance, is orders of
    magnitude above everything that separates the slab test's floats from
    exact geometry at any coordinate: the rounding of both tests (about
    1e-15 of the distances), the slab test's 1e-12 cut-off for axes the ray
    runs along, and the 1e-6 by which a `Ray` direction may miss unit length
    (at most 2e-6 ``|tc|`` on ``|w|``). A ray with a non-finite coordinate
    makes both comparisons false, so the gate skips nothing for it.
    """
    (ox, oy, oz), (dx, dy, dz) = ray.origin, ray.direction
    best: tuple[float, str] | None = None
    for obj in room.objects:
        px, py, pz = obj.position
        vx = px - ox
        vy = py - oy
        vz = pz - oz
        tc = vx * dx + vy * dy + vz * dz
        r = obj.radius
        reach = r + 1e-5 * (1.0 + r + abs(tc))
        if tc < -reach:
            continue
        wx = vx - tc * dx
        wy = vy - tc * dy
        wz = vz - tc * dz
        if wx * wx + wy * wy + wz * wz > reach * reach:
            continue
        t = _ray_box_distance(obj, ray.origin, ray.direction)
        if t is None:
            continue
        key = (t, obj.id)
        if best is None or key < best:
            best = key
    if best is None:
        return None
    t, oid = best
    return RayHit(object_id=oid, world_point=(ox + dx * t, oy + dy * t, oz + dz * t), distance=t)


# --- normalized coordinates -------------------------------------------------

def normalize_hit(obj: SceneObject, world_point) -> NormalizedHit:
    """World surface/interior point -> size-relative (u,v,w) in [0,1].

    The point must lie within the box (tolerance 1e-4 m); coordinates are
    clamped into [0,1] so that boundary points survive float round-off.
    """
    local = obj.to_local(world_point)
    size = obj.size
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
    return obj.to_world([(c - 0.5) * extent for c, extent in zip(uvw, obj.size)])


# --- spatial queries --------------------------------------------------------

def objects_in_fov(room: Room, eye, forward, half_angle: float) -> list[tuple[str, float]]:
    """Objects whose center lies in the view cone, as (id, eye-to-center
    distance) sorted by distance (ties by id)."""
    ex, ey, ez = float(eye[0]), float(eye[1]), float(eye[2])
    fx, fy, fz = float(forward[0]), float(forward[1]), float(forward[2])
    cos_half = math.cos(half_angle)
    out: list[tuple[float, str]] = []
    for o in room.objects:
        px, py, pz = o.position
        vx = px - ex
        vy = py - ey
        vz = pz - ez
        dist = math.sqrt(vx * vx + vy * vy + vz * vz)
        if dist < _EPS:
            out.append((dist, o.id))  # coincident with the eye: inside any cone
            continue
        if vx * fx + vy * fy + vz * fz >= cos_half * dist:
            out.append((dist, o.id))
    out.sort()
    return [(oid, dist) for dist, oid in out]


def objects_in_radius(room: Room, center, radius: float) -> list[tuple[str, float]]:
    """Objects within horizontal center-to-center distance, sorted ascending.
    The distance is ``sqrt(dx * dx + dz * dz)``, the placement search's."""
    if radius <= 0.0:
        raise OutOfRange(f"radius must be positive, got {radius}")
    cx = float(center[0])
    cz = float(center[2])
    out: list[tuple[float, str]] = []
    for o in room.objects:
        px, _, pz = o.position
        dx = px - cx
        dz = pz - cz
        d = math.sqrt(dx * dx + dz * dz)
        if d <= radius:
            out.append((d, o.id))
    out.sort()
    return [(oid, d) for d, oid in out]


def support_height_at(room: Room, x: float, z: float) -> float:
    """Max support height among objects covering (x, z); 0 for bare floor.
    Never negative: a surface below the floor cannot be stood on."""
    h = 0.0
    for o in room.objects:
        px, _, pz = o.position
        hx, _, hz = o.half_size
        dx = x - px
        dz = z - pz
        lx = dx * o.cos_yaw - dz * o.sin_yaw
        lz = dx * o.sin_yaw + dz * o.cos_yaw
        if abs(lx) <= hx + _EPS and abs(lz) <= hz + _EPS:
            if o.support_height > h:
                h = o.support_height
    return h


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
    heights[valid] = room.arrays.support_heights(center[0] + ox, center[2] + oz)
    return HeightMap(center=center, radius=radius, cell_size=cell_size, heights=heights, valid=valid)
