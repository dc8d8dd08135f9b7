from __future__ import annotations

import dataclasses
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twinroom import scene as scene_module
from twinroom.scene import (
    DuplicateId,
    MalformedRoom,
    NonPositiveExtent,
    NormalizedHit,
    ObjectCategory,
    OutOfRange,
    PairingError,
    Ray,
    RayHit,
    Room,
    SceneError,
    SceneObject,
    denormalize_hit,
    height_map,
    load_room,
    normalize_hit,
    objects_in_fov,
    objects_in_radius,
    raycast,
    room_hash,
    support_height_at,
    validate_pairing,
)


ROOMS = Path(__file__).resolve().parents[1] / "demos" / "rooms"


def box(oid, pos, size, yaw=0.0, category=ObjectCategory.Table, **kw):
    return SceneObject(
        id=oid, category=category, position=np.array(pos, dtype=float),
        yaw=yaw, size=np.array(size, dtype=float), **kw,
    )


def make_room(objects, half=10.0, rid="r"):
    doc = {
        "id": rid,
        "extents": {"min": [-half, -half], "max": [half, half]},
        "objects": [],
    }
    room = load_room(doc)
    return Room(id=room.id, extents=room.extents, objects=tuple(objects))


# bounded so generated boxes always fit inside the 10m test extents
positions = st.tuples(
    st.floats(-7, 7), st.floats(0.1, 2.5), st.floats(-7, 7)
)
sizes = st.tuples(st.floats(0.2, 3), st.floats(0.2, 3), st.floats(0.2, 3))
yaws = st.floats(-math.pi, math.pi)


@st.composite
def rooms(draw, max_objects=5):
    n = draw(st.integers(1, max_objects))
    objs = []
    for i in range(n):
        objs.append(
            box(
                f"o{i}",
                draw(positions),
                draw(sizes),
                yaw=draw(yaws),
                category=draw(st.sampled_from(list(ObjectCategory))),
            )
        )
    return make_room(objs)


# --- raycast ------------------------------------------------------------


def penetration_depths(room, points):
    """Per-point depth inside the nearest-surface box, <= 0 when outside.

    Independent of the slab test: computes local coordinates for every
    (point, object) pair and takes min over axes of half - |local|.
    """
    pts = np.asarray(points, dtype=float)
    best = np.full(len(pts), -np.inf)
    for o in room.objects:
        dx = pts[:, 0] - o.position[0]
        dy = pts[:, 1] - o.position[1]
        dz = pts[:, 2] - o.position[2]
        lx = dx * o.cos_yaw - dz * o.sin_yaw
        lz = dx * o.sin_yaw + dz * o.cos_yaw
        half = np.asarray(o.size) * 0.5
        depth = np.minimum(
            np.minimum(half[0] - np.abs(lx), half[1] - np.abs(dy)),
            half[2] - np.abs(lz),
        )
        best = np.maximum(best, depth)
    return best


def on_surface(obj, point, tol=1e-6):
    local = obj.to_local(point)
    half = np.asarray(obj.size) * 0.5
    inside = all(abs(local[a]) <= half[a] + tol for a in range(3))
    touching = any(abs(abs(local[a]) - half[a]) <= tol for a in range(3))
    return inside and touching


def test_raycast_axis_aligned_known():
    room = make_room([box("b", (0, 0.5, 0), (1, 1, 1))])
    hit = raycast(room, Ray(origin=(-5, 0.5, 0), direction=(1, 0, 0)))
    assert hit is not None and hit.object_id == "b"
    assert hit.distance == pytest.approx(4.5, abs=1e-12)
    np.testing.assert_allclose(hit.world_point, [-0.5, 0.5, 0], atol=1e-12)


def test_raycast_rotated_known():
    # square of half-extent 1 rotated 45 degrees presents a corner at
    # distance sqrt(2) from its center toward the incoming ray
    room = make_room([box("b", (0, 0.5, 0), (2, 1, 2), yaw=math.pi / 4)])
    hit = raycast(room, Ray(origin=(-5, 0.5, 0), direction=(1, 0, 0)))
    assert hit is not None
    assert hit.distance == pytest.approx(5 - math.sqrt(2), abs=1e-9)


def test_raycast_from_inside_hits_exit_surface():
    room = make_room([box("b", (0, 1, 0), (2, 2, 2))])
    hit = raycast(room, Ray(origin=(0, 1, 0), direction=(1, 0, 0)))
    assert hit is not None
    assert hit.distance == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(hit.world_point, [1, 1, 0], atol=1e-12)


def test_raycast_miss_returns_none():
    room = make_room([box("b", (0, 0.5, 0), (1, 1, 1))])
    assert raycast(room, Ray(origin=(-5, 5.0, 0), direction=(1, 0, 0))) is None


def test_raycast_distance_tie_breaks_by_id():
    # two coincident boxes: both faces at exactly the same distance
    room = make_room(
        [box("zz", (0, 0.5, 0), (1, 1, 1)), box("aa", (0, 0.5, 0), (1, 1, 1))]
    )
    hit = raycast(room, Ray(origin=(-5, 0.5, 0), direction=(1, 0, 0)))
    assert hit.object_id == "aa"


def test_ray_requires_unit_direction():
    with pytest.raises(SceneError):
        Ray(origin=(0, 0, 0), direction=(1, 1, 0))


@settings(max_examples=60, deadline=None)
@given(
    room=rooms(),
    origin=st.tuples(st.floats(-9, 9), st.floats(0, 4), st.floats(-9, 9)),
    direction=st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)),
)
def test_raycast_against_marching_oracle(room, origin, direction):
    d = np.array(direction)
    n = np.linalg.norm(d)
    if n < 1e-3:
        return
    d = d / n
    o = np.asarray(origin, dtype=float)
    if penetration_depths(room, o[None, :])[0] > 0:
        return  # oracle below assumes an exterior start
    ray = Ray(origin=o, direction=d)
    hit = raycast(room, ray)

    step = 1e-3
    if hit is None:
        ts = np.arange(step, 30.0, step)
        # a graze shallower than half a step can legitimately be missed by
        # the march, so only penetrations beyond one step count as a miss
        samples = o[None, :] + ts[:, None] * d[None, :]
        assert penetration_depths(room, samples).max() <= step
    else:
        assert on_surface(room.object(hit.object_id), hit.world_point)
        assert hit.distance == pytest.approx(
            float(np.linalg.norm(hit.world_point - o)), abs=1e-9
        )
        if hit.distance > 2 * step:
            ts = np.arange(step, hit.distance - step, step)
            samples = o[None, :] + ts[:, None] * d[None, :]
            assert penetration_depths(room, samples).max() <= step


def ungated_raycast(room, ray):
    """`raycast` without its bounding-sphere gate: the slab test on every box."""
    best = None
    for obj in room.objects:
        t = scene_module._ray_box_distance(obj, ray.origin, ray.direction)
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


def hit_bits(hit):
    return None if hit is None else (hit.object_id, struct.pack("<4d", *hit.world_point, hit.distance))


def unit_or_x(v):
    n = math.sqrt(v[0] * v[0] + v[1] * v[1] + v[2] * v[2])
    return (1.0, 0.0, 0.0) if n < 1e-9 else (v[0] / n, v[1] / n, v[2] / n)


unit = st.floats(-1.0, 1.0)
unit_vectors = st.tuples(unit, unit, unit).map(unit_or_x)
GATE_CASES = ("outside", "inside", "far", "axis", "corner", "tangent", "tie")


@st.composite
def gate_cases(draw):
    """A room and a ray of one of GATE_CASES, aimed at a box or anywhere."""
    room = draw(rooms())
    obj = draw(st.sampled_from(room.objects))
    kind = draw(st.sampled_from(GATE_CASES))
    if kind == "tie":  # a coincident twin whose id sorts first
        room = make_room(room.objects + (box("a" + obj.id, obj.position, obj.size, yaw=obj.yaw),))
    hx, hy, hz = obj.half_size
    if kind in ("corner", "tangent"):
        target = obj.to_world(tuple(draw(st.sampled_from((-h, h))) for h in (hx, hy, hz)))
    else:
        target = obj.to_world((draw(unit) * hx, draw(unit) * hy, draw(unit) * hz))
    if kind in ("axis", "tangent"):
        if kind == "axis":  # along a box axis: the slab test's parallel branch
            c, s = obj.cos_yaw, obj.sin_yaw
            direction = draw(st.sampled_from(((c, 0.0, -s), (s, 0.0, c), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0))))
            direction = tuple(draw(st.sampled_from((1.0, -1.0))) * v for v in direction)
        else:  # through a corner, square to its radius: the sphere's tangent there
            rx, ry, rz = (t - p for t, p in zip(target, obj.position))
            ux, uy, uz = draw(unit_vectors)
            direction = unit_or_x((ry * uz - rz * uy, rz * ux - rx * uz, rx * uy - ry * ux))
        back = draw(st.floats(0.0, 20.0))
        origin = tuple(t - back * d for t, d in zip(target, direction))
    else:
        if kind == "inside":
            origin = obj.to_world((draw(unit) * hx, draw(unit) * hy, draw(unit) * hz))
        elif kind == "far":
            away = draw(st.floats(1.0, 1e6))
            origin = tuple(p + away * u for p, u in zip(obj.position, draw(unit_vectors)))
        else:
            origin = draw(st.tuples(st.floats(-9, 9), st.floats(-1, 5), st.floats(-9, 9)))
        aimed = kind in ("corner", "tie") or draw(st.booleans())
        direction = unit_or_x(tuple(t - o for t, o in zip(target, origin))) if aimed else draw(unit_vectors)
    # a Ray's direction may miss unit length by up to 1e-6
    stretch = draw(st.sampled_from((0.0, 0.0, 9.9e-7, -9.9e-7)))
    direction = tuple(d * (1.0 + stretch) for d in direction)
    return room, Ray(origin=origin, direction=direction)


@settings(max_examples=600, deadline=None)
@given(case=gate_cases())
@example(case=(make_room([box("b", (0, 0.5, 0), (1, 1, 1))]), Ray(origin=(-5, 0.5, 0.5), direction=(1, 0, 0))))
def test_gated_raycast_gives_the_ungated_hit(case):
    room, ray = case
    assert hit_bits(raycast(room, ray)) == hit_bits(ungated_raycast(room, ray))


def test_gated_raycast_cases_hit_and_miss():
    # the gate cases reach both outcomes and every ungated path often enough
    # for the equivalence above to mean something
    outcomes = []

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=gate_cases())
    def collect(case):
        room, ray = case
        outcomes.append(ungated_raycast(room, ray) is not None)

    collect()
    assert 0.3 < sum(outcomes) / len(outcomes) < 0.95


# --- normalized coordinates ---------------------------------------------


def test_normalize_rotated_known_values():
    # yaw pi/2 turns the local x axis onto world -z; walk one corner through
    obj = box("b", (2, 1, 3), (2, 1, 4), yaw=math.pi / 2)
    world = denormalize_hit(obj, (1.0, 0.5, 0.0))
    np.testing.assert_allclose(world, [0, 1, 2], atol=1e-12)
    hit = normalize_hit(obj, world)
    assert hit.uvw == pytest.approx((1.0, 0.5, 0.0), abs=1e-12)


def test_same_uvw_lands_proportionally_on_paired_sizes():
    a = box("a", (0, 0.5, 0), (1, 1, 1))
    b = box("b", (10, 1, 10), (4, 2, 2), yaw=0.3)
    uvw = (0.25, 0.75, 0.5)
    pa = a.to_local(denormalize_hit(a, uvw))
    pb = b.to_local(denormalize_hit(b, uvw))
    np.testing.assert_allclose(pa / np.asarray(a.size), pb / np.asarray(b.size), atol=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    pos=positions,
    size=sizes,
    yaw=yaws,
    uvw=st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)),
)
def test_normalize_denormalize_round_trip(pos, size, yaw, uvw):
    obj = box("b", pos, size, yaw=yaw)
    world = denormalize_hit(obj, uvw)
    back = normalize_hit(obj, world)
    np.testing.assert_allclose(back.uvw, uvw, atol=1e-9)
    np.testing.assert_allclose(denormalize_hit(obj, back), world, atol=1e-9)


def test_normalize_rejects_point_outside_tolerance():
    obj = box("b", (0, 0.5, 0), (1, 1, 1))
    with pytest.raises(OutOfRange):
        normalize_hit(obj, (0.51, 0.5, 0))  # 1cm out, tolerance is 0.1mm
    hit = normalize_hit(obj, (0.50005, 0.5, 0))  # inside tolerance: clamped
    assert hit.u == 1.0


def test_normalized_hit_validates_range():
    with pytest.raises(OutOfRange):
        NormalizedHit(object_id="b", u=1.2, v=0.5, w=0.5)
    with pytest.raises(OutOfRange):
        denormalize_hit(box("b", (0, 0.5, 0), (1, 1, 1)), (-0.1, 0.5, 0.5))


# --- support heights and height maps ------------------------------------


def test_support_height_prefers_seat_over_box_top():
    chair = box(
        "c", (0, 0.5, 0), (0.5, 1.0, 0.5), category=ObjectCategory.Chair,
        sittable=True, sit_height=0.45,
    )
    assert chair.support_height == 0.45  # backrest top (1.0) must not win
    table = box("t", (0, 0.4, 0), (1, 0.8, 1))
    assert table.support_height == pytest.approx(0.8)


def test_support_height_at_known_room():
    room = make_room(
        [
            box("t", (0, 0.4, 0), (1, 0.8, 1)),
            box(
                "c", (0.2, 0.5, 0), (0.5, 1.0, 0.5), category=ObjectCategory.Chair,
                sittable=True, sit_height=0.45,
            ),
            box("sunken", (5, -2.0, 5), (1, 1, 1)),
        ]
    )
    assert support_height_at(room, 0.0, 0.0) == pytest.approx(0.8)  # overlap: max
    assert support_height_at(room, 0.4, 0.0) == pytest.approx(0.8)
    assert support_height_at(room, 3.0, 3.0) == 0.0
    assert support_height_at(room, 5.0, 5.0) == 0.0  # below-floor top clamps to 0


@settings(max_examples=60, deadline=None)
@given(
    room=rooms(),
    cx=st.floats(-8, 8),
    cz=st.floats(-8, 8),
    radius=st.floats(0.3, 2.5),
    cell=st.floats(0.05, 0.4),
)
def test_height_map_matches_pointwise_oracle(room, cx, cz, radius, cell):
    hm = height_map(room, (cx, 0, cz), radius, cell)
    n = int(math.floor(radius / cell + 1e-9))
    assert hm.heights.shape == (2 * n + 1, 2 * n + 1)
    for i in range(2 * n + 1):
        for j in range(2 * n + 1):
            ox = (i - n) * cell
            oz = (j - n) * cell
            inside = math.hypot(ox, oz) <= radius + 1e-9
            assert bool(hm.valid[i, j]) == inside
            if inside:
                want = support_height_at(room, cx + ox, cz + oz)
                assert hm.heights[i, j] == pytest.approx(want, abs=1e-12)
            else:
                assert hm.heights[i, j] == 0.0


def full_room_heights(room, xs, zs):
    """The footprint broadcast against every object of the room, written
    out from the scene objects."""
    if not room.objects:
        return np.zeros(xs.shape)

    def column(values):
        return np.array(values, dtype=float).reshape(-1, 1)

    objs = room.objects
    dx = xs.reshape(1, -1) - column([o.position[0] for o in objs])
    dz = zs.reshape(1, -1) - column([o.position[2] for o in objs])
    c, s = column([o.cos_yaw for o in objs]), column([o.sin_yaw for o in objs])
    lx = dx * c - dz * s
    lz = dx * s + dz * c
    covered = ((np.abs(lx) <= column([o.size[0] * 0.5 for o in objs]) + 1e-9)
               & (np.abs(lz) <= column([o.size[2] * 0.5 for o in objs]) + 1e-9))
    heights = np.where(covered, column([o.support_height for o in objs]), 0.0).max(axis=0)
    return np.maximum(heights, 0.0).reshape(xs.shape)


def footprint_edge_points(obj, inset=0.0):
    """Points within 3e-9 of the edges and corners of the object's footprint
    shrunk by ``inset`` on every side, on both sides of the edge and of the
    containment tolerance."""
    hx, hz = obj.size[0] * 0.5 - inset, obj.size[2] * 0.5 - inset
    out = []
    for d in (-3e-9, -1e-9, 0.0, 5e-10, 1e-9, 1.5e-9, 3e-9):
        for t in (-1.0, -0.5, 0.0, 0.7, 1.0):
            for sign in (-1.0, 1.0):
                out.append(obj.to_world((sign * (hx + d), 0.0, t * (hz + d))))
                out.append(obj.to_world((t * (hx + d), 0.0, sign * (hz + d))))
    return [(x, z) for x, _, z in out]


@settings(max_examples=60, deadline=None)
@given(room=rooms(max_objects=6), seed=st.integers(0, 2**32 - 1))
def test_cropped_footprint_broadcast_changes_no_height(room, seed):
    rng = np.random.default_rng(seed)
    edges = [p for o in room.objects for p in footprint_edge_points(o)]
    boxes = []
    for _ in range(4):  # a random box, and boxes with an edge point on their border or corner
        lo = rng.uniform(-9.0, 7.0, 2)
        boxes.append((*lo, *(lo + rng.uniform(0.05, 3.0, 2))))
        ex, ez = edges[int(rng.integers(len(edges)))]
        a, b = rng.choice([0.0, 0.3, 1.0], 2), rng.choice([0.0, 0.3, 1.0], 2)
        boxes.append((ex - a[0], ez - a[1], ex + b[0], ez + b[1]))
    for min_x, min_z, max_x, max_z in boxes:
        points = [p for p in edges if min_x <= p[0] <= max_x and min_z <= p[1] <= max_z]
        points += [(min_x, min_z), (min_x, max_z), (max_x, min_z), (max_x, max_z)]
        points += list(zip(rng.uniform(min_x, max_x, 50), rng.uniform(min_z, max_z, 50)))
        xs, zs = np.array(points).T
        subset = room.arrays.reaching(min_x, min_z, max_x, max_z)
        assert subset.count <= len(room.objects)
        got = subset.support_heights(xs, zs)
        assert got.tobytes() == full_room_heights(room, xs, zs).tobytes()
        assert room.arrays.support_heights(xs, zs).tobytes() == got.tobytes()


def test_box_that_no_footprint_reaches_keeps_no_object():
    room = make_room([box("b", (-8.0, 0.5, -8.0), (1.0, 1.0, 1.0), yaw=0.6),
                      box("seat", (-6.0, 0.25, -8.0), (0.8, 0.5, 0.8), sittable=True, sit_height=0.45)])
    subset = room.arrays.reaching(0.0, 0.0, 2.0, 1.0)
    assert subset.count == 0
    xs, zs = np.meshgrid(np.linspace(0.0, 2.0, 7), np.linspace(0.0, 1.0, 5))
    heights = subset.support_heights(xs, zs)
    assert heights.shape == xs.shape and not heights.any()
    assert room.arrays.reaching(-7.5, -9.0, 0.0, 0.0).count == 2  # a box both reach keeps both


def test_height_map_rejects_bad_geometry():
    room = make_room([box("b", (0, 0.5, 0), (1, 1, 1))])
    with pytest.raises(OutOfRange):
        height_map(room, (0, 0, 0), -1.0, 0.1)
    with pytest.raises(OutOfRange):
        height_map(room, (0, 0, 0), 1.0, 0.0)


# --- spatial queries ------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    room=rooms(),
    eye=st.tuples(st.floats(-9, 9), st.floats(0, 3), st.floats(-9, 9)),
    fwd=st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)),
    half_angle=st.floats(0.1, 3.0),
)
def test_objects_in_fov_matches_angle_oracle(room, eye, fwd, half_angle):
    f = np.array(fwd)
    n = np.linalg.norm(f)
    if n < 1e-3:
        return
    f = f / n
    got = objects_in_fov(room, eye, f, half_angle)

    expected = {}
    for o in room.objects:
        v = o.position - np.asarray(eye, dtype=float)
        dist = float(np.linalg.norm(v))
        if dist < 1e-9:
            expected[o.id] = dist
            continue
        cosang = float(np.dot(v, f)) / dist
        if abs(cosang - math.cos(half_angle)) < 1e-9:
            return  # boundary case: either answer is defensible
        if math.acos(max(-1.0, min(1.0, cosang))) <= half_angle:
            expected[o.id] = dist

    assert {oid for oid, _ in got} == set(expected)
    dists = [d for _, d in got]
    assert dists == sorted(dists)
    for oid, d in got:
        assert d == pytest.approx(expected[oid], abs=1e-9)


def test_objects_in_radius_known_and_sorted():
    room = make_room(
        [
            box("near", (1, 0.5, 0), (0.5, 1, 0.5)),
            box("mid", (0, 3.0, 2), (0.5, 1, 0.5)),  # height is ignored
            box("far", (6, 0.5, 6), (0.5, 1, 0.5)),
        ]
    )
    got = objects_in_radius(room, (0, 0, 0), 2.5)
    assert [oid for oid, _ in got] == ["near", "mid"]
    assert got[0][1] == pytest.approx(1.0)
    assert got[1][1] == pytest.approx(2.0)
    with pytest.raises(OutOfRange):
        objects_in_radius(room, (0, 0, 0), 0.0)


# --- hashing ---------------------------------------------------------------


def test_room_hash_ignores_object_order():
    a = box("a", (1, 0.5, 1), (1, 1, 1))
    b = box("b", (-1, 0.5, -1), (1, 1, 1), yaw=0.4)
    assert room_hash(make_room([a, b])) == room_hash(make_room([b, a]))


def test_room_hash_sensitive_to_content():
    base = make_room([box("a", (1, 0.5, 1), (1, 1, 1))])
    h = room_hash(base)
    assert h != room_hash(make_room([box("a", (1, 0.5, 1.0000001), (1, 1, 1))]))
    assert h != room_hash(make_room([box("a", (1, 0.5, 1), (1, 1, 1), pair_id="x")]))
    assert h != room_hash(make_room([box("b", (1, 0.5, 1), (1, 1, 1))]))
    assert h != room_hash(
        make_room(
            [box("a", (1, 0.5, 1), (1, 1, 1), sittable=True, sit_height=0.5)]
        )
    )


def test_room_hash_stable_across_loads():
    doc = {
        "id": "r",
        "extents": {"min": [0, 0], "max": [4, 3]},
        "objects": [
            {
                "id": "desk", "category": "Table", "position": [2, 0.4, 1],
                "yaw": 0.0, "size": [1.2, 0.8, 0.6],
            }
        ],
    }
    assert room_hash(load_room(doc)) == room_hash(load_room(json.dumps(doc)))


def test_room_hash_is_pinned():
    # Hello and every transcript header carry it: these values must not move
    assert room_hash(load_room(ROOMS / "office_a.json")) == 0xA08BB210621BFECB
    assert room_hash(load_room(ROOMS / "loft_b.json")) == 0x0308BBE9C8680E70
    integer_coordinates = {
        "id": "r",
        "extents": {"min": [0, 0], "max": [4, 3]},
        "objects": [
            {
                "id": "desk", "category": "Table", "position": [2, 0.4, 1], "yaw": 0,
                "size": [1, 1, 1], "sittable": False,
            }
        ],
    }
    assert room_hash(load_room(integer_coordinates)) == 0x3EB02E0B65FB4A41


def test_room_hash_is_computed_once_per_room():
    # every run and replay asks for both rooms' hashes several times
    for name, want in (("office_a.json", 0xA08BB210621BFECB), ("loft_b.json", 0x0308BBE9C8680E70)):
        room = load_room(ROOMS / name)
        assert "content_hash" not in vars(room)
        assert room_hash(room) == want
        assert vars(room)["content_hash"] == want
        assert room_hash(room) == want
    # a view with extra objects is another room and gets its own hash, the
    # same as a room that holds those objects from the start
    base = make_room([box("a", (1, 0.5, 1), (1, 1, 1))])
    h = room_hash(base)
    extra = base.with_extra([box("b", (-1, 0.5, -1), (1, 1, 1))])
    assert room_hash(extra) != h
    assert room_hash(extra) == room_hash(make_room([box("a", (1, 0.5, 1), (1, 1, 1)),
                                                    box("b", (-1, 0.5, -1), (1, 1, 1))]))
    assert room_hash(base) == h


def test_rooms_and_objects_compare_by_value_and_hash():
    a = load_room(ROOMS / "office_a.json")
    b = load_room(ROOMS / "office_a.json")
    assert a == b and a.objects == b.objects
    assert hash(a.objects[0]) == hash(b.objects[0])
    assert len(set(a.objects + b.objects)) == len(a.objects)
    first = a.objects[0]
    px, py, pz = first.position
    moved = dataclasses.replace(first, position=(px + 0.01, py, pz))
    assert moved != first
    assert Room(id=a.id, extents=a.extents, objects=(moved, *a.objects[1:])) != a


# --- loading and validation -------------------------------------------------


def room_doc(**over):
    doc = {
        "id": "r",
        "extents": {"min": [0, 0], "max": [5, 4]},
        "objects": [
            {
                "id": "desk", "category": "Table", "position": [2, 0.4, 1],
                "yaw": 0.0, "size": [1.2, 0.8, 0.6],
            }
        ],
    }
    doc.update(over)
    return doc


def test_load_room_round_trips_fields():
    room = load_room(room_doc())
    assert room.id == "r"
    assert room.extents.width == 5 and room.extents.depth == 4
    desk = room.object("desk")
    assert desk.category is ObjectCategory.Table
    assert desk.pair_id is None and not desk.sittable
    assert load_room(room) is room


def test_load_room_rejects_duplicate_ids():
    doc = room_doc()
    doc["objects"].append(dict(doc["objects"][0]))
    with pytest.raises(DuplicateId):
        load_room(doc)


def test_load_room_rejects_object_outside_extents():
    doc = room_doc()
    doc["objects"][0]["position"] = [4.9, 0.4, 1]  # corner pokes past x=5
    with pytest.raises(MalformedRoom):
        load_room(doc)


def test_load_room_rejects_bad_objects():
    for patch, err, match in [
        ({"size": [0, 1, 1]}, NonPositiveExtent, None),
        ({"category": "Spaceship"}, MalformedRoom, None),
        ({"sittable": True}, MalformedRoom, None),  # sittable without sit_height
        ({"sittable": True, "sit_height": 1.5}, MalformedRoom, None),
        ({"position": [1, 2]}, MalformedRoom, None),
        ({"yaw": math.inf}, MalformedRoom, "'desk': yaw"),
        ({"yaw": math.nan}, MalformedRoom, "'desk': yaw"),
        ({"sit_height": math.nan}, MalformedRoom, "'desk': sit_height"),
        ({"sittable": True, "sit_height": -math.inf}, MalformedRoom, "'desk': sit_height"),
        ({"position": [1, math.nan, 1]}, MalformedRoom, "'desk': position"),
        ({"size": [1, 1, math.inf]}, MalformedRoom, "'desk': size"),
        ({"sittable": "false", "sit_height": 0.45}, MalformedRoom, "'desk': sittable must be"),
        ({"sittable": 0}, MalformedRoom, "'desk': sittable must be"),
        ({"sittable": 1, "sit_height": 0.45}, MalformedRoom, "'desk': sittable must be"),
        ({"position": ["1.5", 0.4, 1]}, MalformedRoom, "'desk': position must be a number"),
        ({"size": [1.2, True, 0.6]}, MalformedRoom, "'desk': size must be a number"),
        ({"yaw": "0"}, MalformedRoom, "'desk': yaw must be a number"),
        ({"yaw": True}, MalformedRoom, "'desk': yaw must be a number"),
        ({"sittable": True, "sit_height": "0.45"}, MalformedRoom, "'desk': sit_height must be a number"),
    ]:
        doc = room_doc()
        doc["objects"][0].update(patch)
        with pytest.raises(err, match=match):
            load_room(doc)
    doc = json.dumps(room_doc()).replace('"yaw": 0.0', '"yaw": Infinity')
    with pytest.raises(MalformedRoom, match="'desk': yaw"):
        load_room(doc)


def test_load_room_rejects_degenerate_extents():
    with pytest.raises(NonPositiveExtent):
        load_room(room_doc(extents={"min": [0, 0], "max": [0, 4]}, objects=[]))


@pytest.mark.parametrize("end, index, value", [
    ("min", 0, "0"), ("max", 1, "4.0"), ("max", 0, True), ("min", 1, math.nan), ("max", 1, math.inf),
])
def test_load_room_rejects_mistyped_extents(end, index, value):
    ext = {"min": [0, 0], "max": [5, 4]}
    ext[end][index] = value
    field = f"{end}_{'xz'[index]}"
    with pytest.raises(MalformedRoom, match=f"room 'r': extents {field} must be"):
        load_room(room_doc(extents=ext))


def test_ints_and_numpy_scalars_are_room_numbers():
    desk = SceneObject(id="d", category=ObjectCategory.Table, position=(np.float32(2.0), np.int64(0), 1),
                       yaw=np.float64(0.5), size=(1, np.float32(0.5), 0.25))
    assert desk.position == (2.0, 0.0, 1.0) and desk.size == (1.0, 0.5, 0.25) and desk.yaw == 0.5
    assert all(type(v) is float for v in (*desk.position, *desk.size, desk.yaw))
    with pytest.raises(MalformedRoom, match="'d': yaw must be a number"):
        SceneObject(id="d", category=ObjectCategory.Table, position=(2, 0, 1), yaw=np.bool_(True),
                    size=(1, 1, 1))


def test_load_room_rejects_missing_fields_and_bad_sources():
    with pytest.raises(MalformedRoom):
        load_room({"extents": {"min": [0, 0], "max": [1, 1]}})  # no id
    with pytest.raises(MalformedRoom):
        load_room("{not json")
    with pytest.raises(MalformedRoom):
        load_room("/nonexistent/room.json")
    with pytest.raises(MalformedRoom):
        load_room(42)


def test_validate_pairing_checks_both_directions():
    local = load_room(room_doc())
    remote_doc = {
        "id": "q",
        "extents": {"min": [0, 0], "max": [5, 4]},
        "objects": [
            {
                "id": "desk_q", "category": "Table", "position": [1, 0.4, 1],
                "yaw": 0.0, "size": [1.0, 0.8, 0.6], "pair_id": "desk",
            }
        ],
    }
    remote = load_room(remote_doc)
    validate_pairing(local, remote)  # one-sided reference is fine

    dangling = dict(remote_doc)
    dangling["objects"] = [dict(remote_doc["objects"][0], pair_id="ghost")]
    with pytest.raises(PairingError, match="ghost"):
        validate_pairing(local, load_room(dangling))

    doc = room_doc()
    doc["objects"][0]["pair_id"] = "desk_q"
    doc["objects"][0]["category"] = "Screen"
    with pytest.raises(PairingError):
        validate_pairing(load_room(doc), remote)


def test_with_extra_adds_transient_objects():
    room = load_room(room_doc())
    head = box("@partner-head", (20, 1.6, 20), (0.25, 0.25, 0.25))
    view = room.with_extra([head])
    assert view.object("@partner-head") is head  # outside extents is allowed
    assert len(view.objects) == len(room.objects) + 1
    assert len(room.objects) == 1  # original untouched
    with pytest.raises(DuplicateId):
        view2 = room.with_extra([box("desk", (1, 0.5, 1), (1, 1, 1))])
        del view2
