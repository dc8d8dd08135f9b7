from __future__ import annotations

import gc
import json
import math
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinroom import placement as placement_module
from twinroom.geometry import wrap_angle
from twinroom.placement import (
    ACCOMMODATION_CELL,
    ACCOMMODATION_CELLS,
    ACCOMMODATION_RADIUS,
    ATTENTION_HALF_ANGLE,
    BODY_RADIUS,
    EYE_HEIGHT_SITTING,
    EYE_HEIGHT_STANDING,
    SPATIAL_RADIUS,
    STAND_CLEARANCE,
    DefaultScorer,
    FeatureVector,
    GridConfig,
    NoFeasiblePlacement,
    PartnerPose,
    Placement,
    PlacementPose,
    PsoConfig,
    ScorerConfig,
    default_similarity,
    extract_features,
    feasible,
    find_placement,
    grid_axes,
    grid_search,
    grid_tables,
    pso_refine,
    scorer_config_from_json,
)
from twinroom.scene import (
    ObjectCategory,
    Room,
    RoomArrays,
    height_map,
    load_room,
    objects_in_fov,
    objects_in_radius,
    support_height_at,
)

from test_scene import footprint_edge_points


def exhaustive_best(room, target, scorer, partner, config):
    """Reference search: score every grid candidate one by one, in index
    order, keeping the first best. Shares nothing with the production scan
    except the public feasibility/feature/score functions."""
    xs, zs, yaws = grid_axes(room.extents, config.cell, config.yaw_count)
    best_score = -math.inf
    best = None
    evaluated = 0
    for x in xs:
        for z in zs:
            for yaw in yaws:
                for pose in (PlacementPose.Standing, PlacementPose.Sitting):
                    p = Placement(x, z, yaw, pose)
                    if not feasible(room, p):
                        continue
                    score = scorer.score(target, extract_features(room, p, partner))
                    evaluated += 1
                    if score > best_score:
                        best_score = score
                        best = p
    return best, best_score, evaluated


def reference_pso(room, target, seed, scorer, partner, config, rng):
    """Reference swarm: the update rule of pso_refine, with every particle
    checked and scored one by one through the public functions."""
    rng = np.random.Generator(np.random.PCG64(rng))

    def evaluate(point):
        p = Placement(point[0], point[1], point[2], seed.pose)
        if not feasible(room, p):
            return -math.inf, p
        return scorer.score(target, extract_features(room, p, partner)), p

    ext = room.extents
    lo = np.array([max(seed.x - config.position_radius, ext.min_x),
                   max(seed.z - config.position_radius, ext.min_z), seed.yaw - config.yaw_radius])
    hi = np.array([min(seed.x + config.position_radius, ext.max_x),
                   min(seed.z + config.position_radius, ext.max_z), seed.yaw + config.yaw_radius])
    n = config.particles
    pos = np.empty((n, 3))
    pos[0] = (seed.x, seed.z, seed.yaw)
    pos[1:] = rng.uniform(lo, hi, (n - 1, 3))
    vel = np.zeros((n, 3))
    pbest = np.array([evaluate(p)[0] for p in pos])
    pbest_pos = pos.copy()
    gbest_pos = pbest_pos[int(np.argmax(pbest))].copy()
    gbest = float(pbest.max())
    for _ in range(config.iterations):
        r1 = rng.uniform(size=(n, 3))
        r2 = rng.uniform(size=(n, 3))
        vel = (config.inertia * vel + config.cognitive * r1 * (pbest_pos - pos)
               + config.social * r2 * (gbest_pos[None, :] - pos))
        pos = np.clip(pos + vel, lo, hi)
        for i, p in enumerate(pos):
            score = evaluate(p)[0]
            if score > pbest[i]:
                pbest[i] = score
                pbest_pos[i] = p
        g = int(np.argmax(pbest))
        if float(pbest[g]) > gbest:
            gbest = float(pbest[g])
            gbest_pos = pbest_pos[g].copy()
    score, placement = evaluate(gbest_pos)
    return placement, score


def random_room(rng, max_side=4.0):
    w = rng.uniform(1.6, max_side)
    d = rng.uniform(1.6, max_side)
    objects = []
    for i in range(rng.integers(1, 4)):
        sx, sy, sz = rng.uniform(0.3, 1.0, 3)
        # keep the whole rotated footprint inside the room
        r = math.hypot(sx, sz) / 2
        if w - 2 * r <= 0.1 or d - 2 * r <= 0.1:
            continue
        objects.append(
            {
                "id": f"obj{i}",
                "category": rng.choice(["Table", "Screen", "Chair", "Other"]),
                "position": [rng.uniform(r, w - r), sy / 2, rng.uniform(r, d - r)],
                "yaw": rng.uniform(0, 2 * math.pi),
                "size": [sx, sy, sz],
            }
        )
    if rng.random() < 0.5 and w > 1.8 and d > 1.8:
        objects.append(
            {
                "id": "bench",
                "category": "Sofa",
                "position": [w / 2, 0.25, d / 2],
                "yaw": float(rng.uniform(0, 2 * math.pi)),
                "size": [0.7, 0.5, 0.7],
                "sittable": True,
                "sit_height": 0.45,
            }
        )
    return load_room(
        {"id": "rand", "extents": {"min": [0, 0], "max": [w, d]}, "objects": objects}
    )


def random_target(rng, room, partner):
    p = Placement(
        x=rng.uniform(room.extents.min_x, room.extents.max_x),
        z=rng.uniform(room.extents.min_z, room.extents.max_z),
        yaw=rng.uniform(0, 2 * math.pi),
        pose=PlacementPose.Standing,
    )
    return extract_features(room, p, partner)


# --- search equivalence -------------------------------------------------------


def test_grid_search_equals_exhaustive():
    config = GridConfig(cell=0.4, yaw_count=6)  # coarse: this checks logic
    scorer = DefaultScorer()
    for case in range(8):
        rng = np.random.default_rng(100 + case)
        room = random_room(rng)
        partner = (
            PartnerPose(rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 6))
            if rng.random() < 0.5
            else None
        )
        target = random_target(rng, room, partner)
        want, want_score, want_evaluated = exhaustive_best(
            room, target, scorer, partner, config
        )
        if want is None:
            with pytest.raises(NoFeasiblePlacement):
                grid_search(room, target, scorer, partner, config=config)
            continue
        got = grid_search(room, target, scorer, partner, config=config)
        assert got.placement == want, f"case {case}"
        assert got.score == want_score
        assert got.evaluated == want_evaluated


class Unbounded:
    """A scorer that cannot bound: every bound is inf, so the grid scores
    every feasible candidate in scan order and the swarm every feasible
    particle, as an exhaustive search does."""

    def score_bound(self, target, accommodation, spatial, **given):
        return np.full(len(accommodation), np.inf)


class PerCandidate(Unbounded):
    """The default score, one ``score`` call per candidate, with no bound:
    the unbatched, exhaustive oracle."""

    def __init__(self):
        self.inner = DefaultScorer()

    def score_batch(self, target, candidates):
        return [self.inner.score(target, c) for c in candidates]


def demo_rooms():
    rooms = Path(__file__).resolve().parents[1] / "demos" / "rooms"
    return [load_room(rooms / f"{name}.json") for name in ("office_a", "loft_b")]


def sitting_seed(room):
    """A feasible Sitting placement at a seat center, or None."""
    for o in room.objects:
        p = Placement(float(o.position[0]), float(o.position[2]), 0.3, PlacementPose.Sitting)
        if o.sittable and feasible(room, p):
            return p
    return None


def test_batched_search_equals_per_candidate_fallback():
    batched, fallback = DefaultScorer(), PerCandidate()
    rooms = [random_room(np.random.default_rng(700 + i)) for i in range(3)] + demo_rooms()
    sat = 0
    for case, room in enumerate(rooms):
        rng = np.random.default_rng(800 + case)
        for partner in (None, PartnerPose(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0, 6))):
            target = random_target(rng, room, partner)
            grid = grid_search(room, target, batched, partner)
            assert grid == grid_search(room, target, fallback, partner), f"room {case}"
            g = grid.placement
            seeds = [Placement(g.x, g.z, g.yaw, PlacementPose.Standing), sitting_seed(room)]
            for seed in (s for s in seeds if s is not None):
                sat += seed.pose is PlacementPose.Sitting
                got = pso_refine(room, target, seed, batched, partner, rng=case)
                assert got == pso_refine(room, target, seed, fallback, partner, rng=case)
                assert got.evaluated == 64 * 31 + 1
    assert sat >= 4  # the sitting swarm ran in the demo rooms, with and without partner


def test_pso_equals_per_particle_reference():
    rooms = [random_room(np.random.default_rng(750 + i)) for i in range(3)] + demo_rooms()
    # the wide yaw range sends particles below 0 and past 2*pi, where the
    # partner's relative facing must use the wrapped yaw, as Placement does
    for wide, config in enumerate((PsoConfig(), PsoConfig(yaw_radius=math.pi))):
        for case, room in enumerate(rooms):
            rng = np.random.default_rng(850 + case)
            partner = PartnerPose(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(0, 6))
            if not (wide or case % 2):
                partner = None
            target = random_target(rng, room, partner)
            grid = grid_search(room, target, partner=partner, config=GridConfig(cell=0.5, yaw_count=8))
            for seed in (s for s in (grid.placement, sitting_seed(room)) if s is not None):
                got = pso_refine(room, target, seed, partner=partner, config=config, rng=case)
                want = reference_pso(room, target, seed, DefaultScorer(), partner, config, case)
                assert (got.placement, got.score) == want, f"room {case}, {seed.pose}"


def test_find_placement_refuses_a_score_only_scorer():
    class ScoreOnly:
        def score(self, target, candidate):
            return 1.0

    office, loft = demo_rooms()
    target = extract_features(office, Placement(1.35, 0.55, math.pi, PlacementPose.Sitting))
    with pytest.raises(AttributeError, match="score_bound"):
        find_placement(loft, target, ScoreOnly(), grid_config=GridConfig(cell=0.5, yaw_count=8))


def test_score_batch_is_score_per_candidate():
    rng = np.random.default_rng(11)
    room = random_room(rng)
    partner = PartnerPose(0.5, 0.5, 1.0)
    target = random_target(rng, room, partner)
    hm = extract_features(room, Placement(1, 1, 0, PlacementPose.Standing)).pose_accommodation
    candidates = [random_target(rng, room, partner if i % 2 else None) for i in range(6)]
    # shared height maps and attention tables, as in a grid cell
    candidates += [FeatureVector(c.interpersonal, hm, candidates[0].visual_attention, c.spatial)
                   for c in candidates]
    # rows equal in content that are distinct objects, and rows that differ
    # from them only in the sign of their zero heights
    for c in candidates[:6]:
        candidates.append(FeatureVector(c.interpersonal, hm.copy(), c.visual_attention, c.spatial))
        candidates.append(FeatureVector(c.interpersonal, np.where(hm == 0.0, -0.0, hm), c.visual_attention,
                                        c.spatial))
    assert (hm == 0.0).any() and (hm != 0.0).any()
    assert candidates[-1].pose_accommodation.tobytes() != hm.tobytes()
    scorer = DefaultScorer(ScorerConfig(weights=(0.1, 0.2, 0.3, 0.4)))
    assert scorer.score_batch(target, candidates) == [scorer.score(target, c) for c in candidates]
    assert scorer.score_batch(target, []) == []


# --- bounded grid -------------------------------------------------------------


class NoBound(Unbounded):
    """A scorer's ``score_batch`` with infinite bounds in place of its
    ``score_bound``: the exhaustive search with the same scores."""

    def __init__(self, inner):
        self.inner = inner

    def score_batch(self, target, candidates):
        return self.inner.score_batch(target, candidates)


class Quantized:
    """The default score rounded down to a quarter and the default bound
    rounded up to one, which stays admissible: ties between cells, and
    bounds equal to the best score, are the rule, so the grid's tie-break
    and its stopping test are what decide."""

    def __init__(self, config):
        self.inner = DefaultScorer(config)

    def score_batch(self, target, candidates):
        return [math.floor(s * 4.0) / 4.0 for s in self.inner.score_batch(target, candidates)]

    def score_bound(self, target, accommodation, spatial, **given):
        return np.ceil(self.inner.score_bound(target, accommodation, spatial, **given) * 4.0) / 4.0


def random_partner(rng, room):
    ext = room.extents
    return PartnerPose(rng.uniform(ext.min_x - 0.5, ext.max_x + 0.5),
                       rng.uniform(ext.min_z - 0.5, ext.max_z + 0.5), rng.uniform(0, 2 * math.pi))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    furnished=st.booleans(),
    same_room=st.booleans(),
    partner_here=st.booleans(),
    partner_there=st.booleans(),
    coarse=st.booleans(),
    sigma_offset=st.sampled_from([1.0, 0.05, 1e-6]),
    quantized=st.booleans(),
)
def test_pruned_grid_equals_the_exhaustive_scan(seed, furnished, same_room, partner_here, partner_there,
                                                coarse, sigma_offset, quantized):
    rng = np.random.default_rng(seed)
    room = random_room(rng) if furnished else empty_room(rng.uniform(0.8, 2.0))
    source = room if same_room else random_room(rng)
    partner = random_partner(rng, room) if partner_here else None
    target = random_target(rng, source, random_partner(rng, source) if partner_there else None)
    weights = rng.dirichlet(np.ones(4))
    config = ScorerConfig(sigma_offset=sigma_offset, weights=tuple(weights / weights.sum()))
    scorer = Quantized(config) if quantized else DefaultScorer(config)
    grid = GridConfig(cell=0.4, yaw_count=6) if coarse else GridConfig()
    # one room's cached tables serve its searches for any target, with the
    # result of an equal room's own fresh tables
    other_target = random_target(rng, source, None)
    try:
        want = grid_search(room, target, NoBound(scorer), partner, config=grid)
    except NoFeasiblePlacement:
        for search_target in (target, other_target):
            for searched in (room, Room(room.id, room.extents, room.objects)):
                with pytest.raises(NoFeasiblePlacement):
                    grid_search(searched, search_target, scorer, partner, config=grid)
        return
    got = grid_search(room, target, scorer, partner, config=grid)
    assert got.placement == want.placement
    assert got.score.hex() == want.score.hex()
    assert got.evaluated == want.evaluated == want.scored
    assert got.scored <= got.evaluated
    for search_target in (target, other_target):
        fresh = grid_search(Room(room.id, room.extents, room.objects), search_target, scorer, partner, config=grid)
        reused = grid_search(room, search_target, scorer, partner, config=grid)
        assert reused.placement == fresh.placement
        assert reused.score.hex() == fresh.score.hex()
        assert (reused.evaluated, reused.scored) == (fresh.evaluated, fresh.scored)


def test_grid_tables_are_built_once_per_room_object_and_config():
    room = random_room(np.random.default_rng(7))
    coarse = GridConfig(cell=0.4, yaw_count=6)
    tables = grid_tables(room, coarse)
    assert grid_tables(room, GridConfig(cell=0.4, yaw_count=6)) is tables
    assert grid_tables(room) is grid_tables(room, GridConfig()) is not tables
    # an equal room is another object: it builds tables of its own, equal to these
    twin = grid_tables(Room(room.id, room.extents, room.objects), coarse)
    assert twin is not tables
    assert (twin.xs, twin.zs, twin.poses, twin.spatial) == (tables.xs, tables.zs, tables.poses, tables.spatial)
    assert np.array_equal(twin.rows, tables.rows) and np.array_equal(twin.nearest, tables.nearest)
    # every search of the room shares them, so none may write into them
    for array in (tables.rows, tables.nearest):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 1.0
    # they hold no reference to their room, and go with it
    gone = weakref.ref(tables)
    del room, tables, twin
    gc.collect()
    assert gone() is None


class Flat:
    """Every candidate scores 0.5, and a cell's bound is 0.5 plus its
    partner distance."""

    def score_batch(self, target, candidates):
        return [0.5] * len(candidates)

    def score_bound(self, target, accommodation, spatial, *, partner_distance):
        return 0.5 + partner_distance


def test_grid_ties_go_to_the_first_cell_in_scan_order():
    # with the partner on the scan-first cell, cells are visited far to
    # near, and that cell comes last, with a bound equal to the best score
    room = empty_room(1.0)
    xs, zs, yaws = grid_axes(room.extents)
    target = extract_features(room, Placement(0.0, 0.0, 0.0, PlacementPose.Standing))
    got = grid_search(room, target, Flat(), PartnerPose(xs[0], zs[0], 0.0))
    assert got.placement == Placement(xs[0], zs[0], yaws[0], PlacementPose.Standing)
    assert got.score == 0.5
    assert got.scored == got.evaluated


def cell_candidates(room, x, z, partner):
    """Every feasible (yaw, pose) candidate of a default grid cell, each
    extracted on its own."""
    _, _, yaws = grid_axes(room.extents)
    placements = [Placement(x, z, yaw, pose) for yaw in yaws for pose in PlacementPose]
    return [extract_features(room, p, partner) for p in placements if feasible(room, p)]


def test_score_bound_is_admissible():
    configs = [ScorerConfig(), ScorerConfig(sigma_offset=1e-6),
               ScorerConfig(sigma_offset=0.05, weights=(0.7, 0.1, 0.1, 0.1))]
    rooms = demo_rooms() + [random_room(np.random.default_rng(900 + i)) for i in range(3)]
    tight = 0
    for case, room in enumerate(rooms):
        rng = np.random.default_rng(950 + case)
        xs, zs, _ = grid_axes(room.extents)
        cells = [(x, z) for x in xs for z in zs
                 if feasible(room, Placement(x, z, 0.0, PlacementPose.Standing))]
        for k in rng.choice(len(cells), 4, replace=False):
            x, z = cells[k]
            for partner in (None, PartnerPose(x, z, 1.0), random_partner(rng, room)):  # |b| = 0 on the cell
                candidates = cell_candidates(room, x, z, partner)
                distance = None if partner is None else math.hypot(partner.x - x, partner.z - z)
                own = candidates[int(rng.integers(len(candidates)))]
                other = random_target(rng, room, random_partner(rng, room))
                targets = [
                    own,  # the cell's own features: some candidate scores the bound's 1
                    other,
                    random_target(rng, room, None),  # no partner on the target's side
                    FeatureVector((0.0, 0.0, 0.3), other.pose_accommodation,  # zero-length offset
                                  other.visual_attention, other.spatial),
                ]
                # one cell of the grid's batched call
                rows = candidates[0].pose_accommodation[None, :]
                nearest = np.array([[math.inf if d is None else d] for d in candidates[0].spatial])
                distances = None if distance is None else np.array([distance])
                for target in targets:
                    for config in configs:
                        scorer = DefaultScorer(config)
                        bound = scorer.score_bound(target, rows, nearest, partner_distance=distances)[0]
                        scores = scorer.score_batch(target, candidates)
                        assert bound >= max(scores), (room.id, x, z, partner, target.interpersonal, config)
                        tight += bound == max(scores)
    assert tight >= len(rooms) * 4 * 3  # at least the own-feature target under the default config


# offsets of SPATIAL_RADIUS from an object centre, as nearly as floats hold it
_RING = ((SPATIAL_RADIUS, 0.0), (-SPATIAL_RADIUS, 0.0), (0.0, SPATIAL_RADIUS), (1.8, 2.4), (-2.4, -1.8))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    demo=st.booleans(),
    partner_here=st.booleans(),
    partner_there=st.booleans(),
    sigma_offset=st.sampled_from([1.0, 0.05, 1e-6]),
)
def test_batched_score_bound_is_admissible(seed, demo, partner_here, partner_there, sigma_offset):
    """The default bound, called as the swarm calls it, is at least each
    particle's float score, particles at SPATIAL_RADIUS from an object
    centre included, and called as the grid calls it, at least the score at
    every yaw of each cell, for yaws far outside [0, 2 pi) too."""
    rng = np.random.default_rng(seed)
    room = demo_rooms()[int(rng.integers(2))] if demo else random_room(rng)
    partner = random_partner(rng, room) if partner_here else None
    target = random_target(rng, room, random_partner(rng, room) if partner_there else None)
    weights = rng.dirichlet(np.ones(4))
    scorer = DefaultScorer(ScorerConfig(sigma_offset=sigma_offset, weights=tuple(weights / weights.sum())))
    pose = PlacementPose.Standing if rng.random() < 0.5 else PlacementPose.Sitting
    ext = room.extents
    ring = [(o.position[0] + dx, o.position[2] + dz) for o in room.objects for dx, dz in _RING]
    xs = rng.uniform(ext.min_x, ext.max_x, 12).tolist() + [x for x, _ in ring]
    zs = rng.uniform(ext.min_z, ext.max_z, 12).tolist() + [z for _, z in ring]
    cx, cz = np.array(xs), np.array(zs)
    rows = placement_module._accommodation_at(room.arrays, cx, cz)
    nearest = placement_module._spatial_at(room.arrays, cx, cz)
    yaws = rng.uniform(-3.0 * math.pi, 5.0 * math.pi, (len(xs), 4))
    scores = np.array([[scorer.score(target, extract_features(room, Placement(x, z, yaw, pose), partner))
                        for yaw in row.tolist()] for x, z, row in zip(xs, zs, yaws)])

    # the swarm: each particle at its first yaw, with its exact interpersonal
    # features and spatial table
    offsets = None if partner is None else np.array([
        extract_features(room, Placement(x, z, yaw, pose), partner).interpersonal
        for x, z, yaw in zip(xs, zs, yaws[:, 0].tolist())])
    bounds = scorer.score_bound(target, rows, nearest, interpersonal=offsets)
    assert (bounds >= scores[:, 0]).all()

    # the grid: each position a cell, with its exact spatial table
    dx, dz = (0.0, 0.0) if partner is None else (partner.x - cx, partner.z - cz)
    distance = None if partner is None else np.sqrt(dx * dx + dz * dz)
    bounds = scorer.score_bound(target, rows, nearest, partner_distance=distance)
    assert (bounds >= scores.max(axis=1)).all()


def test_grid_prunes_most_candidates_with_the_default_scorer():
    """A session's search: each user at their room's counterpart of the same
    paired object, the local user's avatar placed in the other room first,
    then the other user's search with both partners known."""
    office, loft = demo_rooms()
    standing, sitting = PlacementPose.Standing, PlacementPose.Sitting
    spots = [  # (office spot, loft spot): the paired chairs, the paired screens
        (Placement(1.35, 0.55, 0.0, sitting), Placement(-0.9, -1.35, 2.4 - math.pi, sitting)),
        (Placement(-0.4, 1.0, 0.0, standing), Placement(2.2, 0.3, math.pi / 2, standing)),
    ]
    for office_spot, loft_spot in spots:
        for room, user, other_room, local in ((office, office_spot, loft, loft_spot),
                                               (loft, loft_spot, office, office_spot)):
            avatar = grid_search(room, extract_features(other_room, local), DefaultScorer(),
                                 PartnerPose(user.x, user.z, user.yaw)).placement
            target = extract_features(room, user, PartnerPose(avatar.x, avatar.z, avatar.yaw))
            partner = PartnerPose(local.x, local.z, local.yaw)
            pruned = grid_search(other_room, target, DefaultScorer(), partner)
            full = grid_search(other_room, target, PerCandidate(), partner)
            assert pruned.scored < 0.1 * pruned.evaluated, (other_room.id, pruned.scored, pruned.evaluated)
            assert full.scored == full.evaluated == pruned.evaluated
            assert (pruned.placement, pruned.score) == (full.placement, full.score)


def test_swarm_crop_changes_no_feature_or_feasibility(monkeypatch):
    # the table's footprint starts 0.35 m beyond the box the particles stay
    # in, so only accommodation cells of particles near its edge reach it
    room = load_room({"id": "crop", "extents": {"min": [-2, -2], "max": [2, 2]}, "objects": [
        {"id": "table", "category": "Table", "position": [1.05, 0.375, 0.0], "yaw": 0.0,
         "size": [0.4, 0.75, 0.4]},
        {"id": "far", "category": "Other", "position": [-1.7, 0.5, -1.7], "yaw": 0.4,
         "size": [0.3, 1.0, 0.3]},
    ]})
    seed = Placement(0.0, 0.0, 0.0, PlacementPose.Standing)
    target = extract_features(room, Placement(0.5, 0.0, 1.0, PlacementPose.Standing))
    feasible_rows = placement_module._feasible_rows

    def swarm(crop):
        """The swarm's feasibility calls (objects sampled, indices, rows) and
        scored batches, with the crop or against every object."""
        calls = []

        def recorded(room, arrays, xs, zs, pose):
            keep, rows = feasible_rows(room, arrays, xs, zs, pose)
            calls.append((arrays.count, keep, rows.tobytes()))
            return keep, rows

        with monkeypatch.context() as m:
            m.setattr(placement_module, "_feasible_rows", recorded)
            if not crop:
                m.setattr(RoomArrays, "reaching", lambda self, *box: self)
            recorder = Recorder()
            result = pso_refine(room, target, seed, recorder, rng=5)
        return result, calls, recorder.batches

    cropped, cropped_calls, cropped_batches = swarm(crop=True)
    full, full_calls, full_batches = swarm(crop=False)
    assert {count for count, _, _ in cropped_calls} == {1}
    assert {count for count, _, _ in full_calls} == {2}
    assert [call[1:] for call in cropped_calls] == [call[1:] for call in full_calls]
    assert cropped_batches == full_batches
    assert cropped == full
    assert any(f.pose_accommodation.any() for batch in cropped_batches for f in batch)


def test_foot_cells_are_accommodation_cells():
    offsets = list(zip(placement_module._ACCOMMODATION_OX.tolist(), placement_module._ACCOMMODATION_OZ.tolist()))
    columns = placement_module._FOOT_COLUMNS
    assert len(columns) == len(placement_module._FOOT_CELLS) == 13
    for (ox, oz), k in zip(placement_module._FOOT_CELLS, columns):
        assert (ox.hex(), oz.hex()) == (offsets[k][0].hex(), offsets[k][1].hex())
    assert columns == [21, 29, 30, 31, 38, 39, 40, 41, 42, 49, 50, 51, 59]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_foot_columns_give_the_standing_footprint_test(seed):
    """Standing feasibility read off the accommodation rows' foot columns
    equals the support at each foot cell, one point at a time, for points
    whose foot cells land within 3e-9 of a footprint's edges and corners."""
    rng = np.random.default_rng(seed)
    room = random_room(rng)
    edges = [p for o in room.objects for p in footprint_edge_points(o)]
    foot = placement_module._FOOT_CELLS
    picked = rng.choice(len(edges), 40)
    xs = [edges[k][0] - foot[f][0] for k in picked for f in range(len(foot))]
    zs = [edges[k][1] - foot[f][1] for k in picked for f in range(len(foot))]
    ext = room.extents
    xs += rng.uniform(ext.min_x, ext.max_x, 100).tolist()
    zs += rng.uniform(ext.min_z, ext.max_z, 100).tolist()
    want = [
        i for i, (x, z) in enumerate(zip(xs, zs))
        if ext.contains(x, z)
        and all(support_height_at(room, x + ox, z + oz) <= STAND_CLEARANCE + 1e-9 for ox, oz in foot)
    ]
    keep, rows = placement_module._feasible_rows(room, room.arrays, xs, zs, PlacementPose.Standing)
    assert keep == want
    assert 0 < len(keep) < len(xs)
    # the feasible points keep their accommodation rows
    each = [height_map(room, (xs[i], 0.0, zs[i]), ACCOMMODATION_RADIUS, ACCOMMODATION_CELL) for i in keep]
    assert rows.tobytes() == np.array([hm.heights[hm.valid] for hm in each]).tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_seat_broadcast_gives_the_sitting_test_per_point(seed):
    """Sitting feasibility from the seat broadcast equals each seat's local
    coverage test, one point at a time, for points within 3e-9 of a seat's
    edges shrunk by BODY_RADIUS, and for random points."""
    rng = np.random.default_rng(seed)
    room = random_room(rng)
    seats = [o for o in room.objects if o.sittable]
    edges = [p for o in seats for p in footprint_edge_points(o, BODY_RADIUS)]
    ext = room.extents
    xs = [x for x, _ in edges] + rng.uniform(ext.min_x, ext.max_x, 100).tolist()
    zs = [z for _, z in edges] + rng.uniform(ext.min_z, ext.max_z, 100).tolist()

    def seated(x, z):
        for o in seats:
            lx, _, lz = o.to_local((x, 0.0, z))
            if abs(lx) <= o.half_size[0] - BODY_RADIUS + 1e-9 and abs(lz) <= o.half_size[2] - BODY_RADIUS + 1e-9:
                return True
        return False

    want = [i for i, (x, z) in enumerate(zip(xs, zs)) if ext.contains(x, z) and seated(x, z)]
    keep, rows = placement_module._feasible_rows(room, room.arrays, xs, zs, PlacementPose.Sitting)
    assert keep == want
    assert bool(seats) == (0 < len(keep) < len(xs))
    each = [height_map(room, (xs[i], 0.0, zs[i]), ACCOMMODATION_RADIUS, ACCOMMODATION_CELL) for i in keep]
    assert rows.tobytes() == b"".join(hm.heights[hm.valid].tobytes() for hm in each)


def test_pso_never_scores_below_its_grid_seed():
    config = GridConfig(cell=0.4, yaw_count=6)
    pso_cfg = PsoConfig(particles=12, iterations=8)
    scorer = DefaultScorer()
    for case in range(6):
        rng = np.random.default_rng(300 + case)
        room = random_room(rng)
        target = random_target(rng, room, None)
        grid = grid_search(room, target, scorer, config=config)
        pso = pso_refine(
            room, target, grid.placement, scorer, config=pso_cfg, rng=case
        )
        assert pso.score >= grid.score
        assert feasible(room, pso.placement)


def test_pso_zero_iterations_returns_seed():
    rng = np.random.default_rng(1)
    room = random_room(rng)
    target = random_target(rng, room, None)
    grid = grid_search(room, target, config=GridConfig(cell=0.4, yaw_count=6))
    pso = pso_refine(
        room, target, grid.placement, config=PsoConfig(iterations=0)
    )
    assert pso.placement == grid.placement
    assert pso.score == grid.score
    assert pso.evaluated == 1


def test_pso_is_deterministic_for_a_seed():
    rng = np.random.default_rng(2)
    room = random_room(rng)
    target = random_target(rng, room, None)
    grid = grid_search(room, target, config=GridConfig(cell=0.4, yaw_count=6))
    cfg = PsoConfig(particles=10, iterations=6)
    a = pso_refine(room, target, grid.placement, config=cfg, rng=42)
    b = pso_refine(room, target, grid.placement, config=cfg, rng=42)
    c = pso_refine(room, target, grid.placement, config=cfg, rng=43)
    assert a.placement == b.placement and a.score == b.score
    assert a.evaluated == b.evaluated
    del c  # may or may not differ; only stability is contractual


def test_find_placement_combines_and_reports_consistently():
    rng = np.random.default_rng(5)
    room = random_room(rng)
    target = random_target(rng, room, None)
    result = find_placement(
        room,
        target,
        grid_config=GridConfig(cell=0.4, yaw_count=6),
        pso_config=PsoConfig(particles=10, iterations=6),
        rng=7,
    )
    assert result.score >= result.grid_score
    assert result.grid_time_s >= 0 and result.pso_time_s >= 0
    again = find_placement(
        room,
        target,
        grid_config=GridConfig(cell=0.4, yaw_count=6),
        pso_config=PsoConfig(particles=10, iterations=6),
        rng=7,
    )
    assert again.placement == result.placement and again.score == result.score


# --- grid axes ------------------------------------------------------------


def test_grid_axes_counts_and_spacing():
    room = load_room(
        {"id": "r", "extents": {"min": [0, 0], "max": [4, 3]}, "objects": []}
    )
    xs, zs, yaws = grid_axes(room.extents)
    assert len(xs) == 16 and len(zs) == 12 and len(yaws) == 24
    assert xs[0] == pytest.approx(0.125) and xs[-1] == pytest.approx(3.875)
    assert yaws[0] == 0.0
    assert yaws[1] == pytest.approx(math.tau / 24)
    grid = grid_search(
        room,
        extract_features(room, Placement(2, 1.5, 0, PlacementPose.Standing)),
    )
    assert grid.candidates_per_pose == 16 * 12 * 24


def test_grid_axes_floor_partial_cells():
    room = load_room(
        {"id": "r", "extents": {"min": [0, 0], "max": [4.1, 2.9]}, "objects": []}
    )
    xs, zs, _ = grid_axes(room.extents)
    assert len(xs) == 16 and len(zs) == 11


def test_grid_config_validation():
    with pytest.raises(ValueError):
        GridConfig(cell=0.0)
    with pytest.raises(ValueError):
        GridConfig(yaw_count=0)


# --- feasibility ------------------------------------------------------------


def empty_room(half=5.0):
    return load_room(
        {"id": "e", "extents": {"min": [-half, -half], "max": [half, half]}, "objects": []}
    )


def test_standing_feasible_everywhere_in_empty_room():
    room = empty_room()
    assert feasible(room, Placement(0, 0, 0, PlacementPose.Standing))
    assert feasible(room, Placement(4.9, -4.9, 1, PlacementPose.Standing))
    assert not feasible(room, Placement(5.2, 0, 0, PlacementPose.Standing))
    assert not feasible(room, Placement(0, 0, 0, PlacementPose.Sitting))


def test_standing_blocked_by_body_margin_around_tall_objects():
    room = load_room(
        {
            "id": "r",
            "extents": {"min": [-5, -5], "max": [5, 5]},
            "objects": [
                {
                    "id": "t", "category": "Table", "position": [0, 0.5, 0],
                    "yaw": 0.0, "size": [1.0, 1.0, 0.5],
                }
            ],
        }
    )
    # table half width 0.5 plus 0.2 of body cells: blocked through x = 0.7
    assert not feasible(room, Placement(0, 0, 0, PlacementPose.Standing))
    assert not feasible(room, Placement(0.69, 0, 0, PlacementPose.Standing))
    assert feasible(room, Placement(0.71, 0, 0, PlacementPose.Standing))


def test_standing_allowed_over_floor_level_clutter():
    room = load_room(
        {
            "id": "r",
            "extents": {"min": [-5, -5], "max": [5, 5]},
            "objects": [
                {
                    "id": "rug", "category": "Other", "position": [0, 0.02, 0],
                    "yaw": 0.0, "size": [2.0, 0.04, 2.0],
                }
            ],
        }
    )
    assert feasible(room, Placement(0, 0, 0, PlacementPose.Standing))


def sitting_room(yaw=0.0):
    return load_room(
        {
            "id": "r",
            "extents": {"min": [-5, -5], "max": [5, 5]},
            "objects": [
                {
                    "id": "bench", "category": "Sofa", "position": [0, 0.25, 0],
                    "yaw": yaw, "size": [1.0, 0.5, 0.6],
                    "sittable": True, "sit_height": 0.45,
                }
            ],
        }
    )


def test_sitting_needs_the_body_disc_on_the_seat():
    room = sitting_room()
    assert feasible(room, Placement(0, 0, 0, PlacementPose.Sitting))
    assert feasible(room, Placement(0.29, 0, 0, PlacementPose.Sitting))
    assert not feasible(room, Placement(0.31, 0, 0, PlacementPose.Sitting))
    assert feasible(room, Placement(0, 0.09, 0, PlacementPose.Sitting))
    assert not feasible(room, Placement(0, 0.11, 0, PlacementPose.Sitting))


def test_sitting_respects_seat_rotation():
    room = sitting_room(yaw=math.pi / 2)  # long axis now along z
    assert feasible(room, Placement(0, 0.29, 0, PlacementPose.Sitting))
    assert not feasible(room, Placement(0.11, 0, 0, PlacementPose.Sitting))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_no_point_admits_both_poses(seed):
    """A seat under the whole body disc also covers the center foot cell, at
    a sit_height of at least 0.2, above STAND_CLEARANCE; so a grid cell has
    at most one pose."""
    rng = np.random.default_rng(seed)
    w, d = rng.uniform(2.5, 4.0, 2)
    objects = [{"id": "rug", "category": "Other", "position": [w / 2, 0.02, d / 2], "yaw": 0.0,
                "size": [w, 0.04, d]}]
    for i in range(rng.integers(1, 4)):
        sx, sz = rng.uniform(0.45, 1.2, 2)
        r = math.hypot(sx, sz) / 2
        objects.append({
            "id": f"seat{i}", "category": "Sofa", "yaw": rng.uniform(0, 2 * math.pi),
            "position": [rng.uniform(r, w - r), 0.25, rng.uniform(r, d - r)], "size": [sx, 0.5, sz],
            "sittable": True, "sit_height": 0.2 if rng.random() < 0.5 else rng.uniform(0.2, 0.8),
        })
    room = load_room({"id": "seats", "extents": {"min": [0, 0], "max": [w, d]}, "objects": objects})
    # within 3e-9 of the edges of the region where the body disc fits on a seat
    points = [p for o in room.objects if o.sittable for p in footprint_edge_points(o, BODY_RADIUS)]
    points += zip(rng.uniform(0, w, 100).tolist(), rng.uniform(0, d, 100).tolist())
    seated = standing = 0
    for x, z in points:
        sit = feasible(room, Placement(x, z, 0.0, PlacementPose.Sitting))
        stand = feasible(room, Placement(x, z, 0.0, PlacementPose.Standing))
        assert not (sit and stand), (x, z)
        seated += sit
        standing += stand
    assert seated and standing


def test_fully_blocked_room_raises_and_sittable_platform_rescues():
    blocked = load_room(
        {
            "id": "r",
            "extents": {"min": [-2, -2], "max": [2, 2]},
            "objects": [
                {
                    "id": "slab", "category": "Table", "position": [0, 0.5, 0],
                    "yaw": 0.0, "size": [3.99, 1.0, 3.99],
                }
            ],
        }
    )
    target = random_target(np.random.default_rng(0), blocked, None)
    config = GridConfig(cell=0.5, yaw_count=4)
    with pytest.raises(NoFeasiblePlacement):
        grid_search(blocked, target, config=config)

    seat = load_room(
        {
            "id": "r",
            "extents": {"min": [-2, -2], "max": [2, 2]},
            "objects": [
                {
                    "id": "slab", "category": "Sofa", "position": [0, 0.25, 0],
                    "yaw": 0.0, "size": [3.99, 0.5, 3.99],
                    "sittable": True, "sit_height": 0.45,
                }
            ],
        }
    )
    grid = grid_search(seat, target, config=config)
    assert grid.placement.pose is PlacementPose.Sitting


def test_a_target_nothing_scores_against_is_not_reported_as_infeasible():
    """A NaN in the target's partner offset makes every grid score NaN. The
    search still raises, but says how many candidates were feasible."""
    office, loft = demo_rooms()
    partner = PartnerPose(1.0, 0.5, 0.0)
    target = replace(extract_features(office, Placement(-0.4, 1.0, 0.0, PlacementPose.Standing), partner),
                     interpersonal=(math.inf, math.nan, 0.0))
    tables = grid_tables(loft)
    assert len(tables.xs) * len(tables.yaws) == 7560
    with pytest.raises(NoFeasiblePlacement, match="7560 of the 20736 grid candidates are feasible, "
                                                  "but none of them scored a number"):
        grid_search(loft, target, DefaultScorer(), partner)


# --- scorer ------------------------------------------------------------------


def per_category(table: dict) -> tuple:
    """A category table as FeatureVector holds it, from a mapping of
    categories to distances: one entry per category, None where absent."""
    return tuple(table.get(cat) for cat in ObjectCategory)


def fv(inter=None, heights=None, attention=None, spatial=None):
    """A FeatureVector whose category tables may be given as mappings."""
    return FeatureVector(
        interpersonal=inter,
        pose_accommodation=np.zeros(ACCOMMODATION_CELLS) if heights is None else heights,
        visual_attention=attention if isinstance(attention, tuple) else per_category(attention or {}),
        spatial=spatial if isinstance(spatial, tuple) else per_category(spatial or {}),
    )


def test_identical_features_score_one():
    a = fv(
        inter=(1.0, 2.0, 0.5),
        heights=np.linspace(0.1, 0.4, ACCOMMODATION_CELLS),
        attention={ObjectCategory.Screen: 2.0},
        spatial={ObjectCategory.Table: 1.0},
    )
    assert default_similarity(a, a) == pytest.approx(1.0, abs=1e-12)


def test_interpersonal_term_closed_forms():
    cfg = ScorerConfig()
    both_none = default_similarity(fv(), fv(), cfg)
    assert both_none == pytest.approx(1.0, abs=1e-12)

    one_none = default_similarity(fv(inter=(0, 0, 0)), fv(), cfg)
    assert one_none == pytest.approx(0.75, abs=1e-12)  # 0 for that quarter

    offset = default_similarity(fv(inter=(1.0, 0, 0)), fv(inter=(0, 0, 0)), cfg)
    assert offset == pytest.approx(0.75 + 0.25 * math.exp(-1.0), abs=1e-12)

    facing = default_similarity(
        fv(inter=(0, 0, math.pi / 2)), fv(inter=(0, 0, 0)), cfg
    )
    assert facing == pytest.approx(0.75 + 0.25 * math.exp(-1.0), abs=1e-12)

    # facing delta wraps: 2*pi - 0.1 vs 0 is a 0.1 rad difference
    wrapped = default_similarity(
        fv(inter=(0, 0, 2 * math.pi - 0.1)), fv(inter=(0, 0, 0)), cfg
    )
    assert wrapped == pytest.approx(
        0.75 + 0.25 * math.exp(-0.1 / (math.pi / 2)), abs=1e-12
    )


def test_height_term_is_rms_based():
    cfg = ScorerConfig()
    a = fv(heights=np.zeros(ACCOMMODATION_CELLS))
    b = fv(heights=np.full(ACCOMMODATION_CELLS, 0.3))
    # rms difference 0.3 with sigma 0.3: that quarter contributes exp(-1)
    assert default_similarity(a, b, cfg) == pytest.approx(
        0.75 + 0.25 * math.exp(-1.0), abs=1e-12
    )


def test_wrong_length_accommodation_vector_is_rejected():
    assert fv(heights=[0.5] * ACCOMMODATION_CELLS).pose_accommodation.dtype == np.float64
    for bad in ([], np.zeros(ACCOMMODATION_CELLS - 1), np.zeros(ACCOMMODATION_CELLS + 1), np.zeros((9, 9))):
        with pytest.raises(ValueError, match=f"{ACCOMMODATION_CELLS} heights"):
            fv(heights=bad)


def test_category_term_closed_forms():
    cfg = ScorerConfig()
    same = fv(attention={ObjectCategory.Chair: 1.0})
    far = fv(attention={ObjectCategory.Chair: 2.0})
    assert default_similarity(same, far, cfg) == pytest.approx(
        0.75 + 0.25 * math.exp(-1.0), abs=1e-12
    )

    missing = default_similarity(same, fv(), cfg)
    assert missing == pytest.approx(0.75, abs=1e-12)  # one-sided category: 0

    partial = default_similarity(
        fv(attention={ObjectCategory.Chair: 1.0, ObjectCategory.Table: 2.0}),
        fv(attention={ObjectCategory.Chair: 1.0}),
        cfg,
    )
    assert partial == pytest.approx(0.75 + 0.25 * 0.5, abs=1e-12)


def test_scorer_weights_reweight_terms():
    cfg = ScorerConfig(weights=(1.0, 0.0, 0.0, 0.0))
    a = fv(inter=(1.0, 0, 0), attention={ObjectCategory.Chair: 1.0})
    b = fv(inter=(0.0, 0, 0))  # attention mismatch scores 0 but has weight 0
    assert default_similarity(a, b, cfg) == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_scorer_config_validation_and_json():
    with pytest.raises(ValueError):
        ScorerConfig(sigma_offset=0.0)
    with pytest.raises(ValueError):
        ScorerConfig(weights=(0.5, 0.5, 0.5, 0.5))
    with pytest.raises(ValueError):
        ScorerConfig(weights=(-0.5, 0.5, 0.5, 0.5))
    cfg = scorer_config_from_json(
        {"sigma_offset": 2.0, "weights": [0.4, 0.2, 0.2, 0.2]}
    )
    assert cfg.sigma_offset == 2.0 and cfg.weights == (0.4, 0.2, 0.2, 0.2)
    assert scorer_config_from_json(json.dumps({"sigma_height": 0.5})).sigma_height == 0.5
    assert scorer_config_from_json(cfg) is cfg
    with pytest.raises(ValueError):
        scorer_config_from_json("[1, 2]")


def test_scorer_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown scorer config keys: 'sigma_ofset', 'weigths'"):
        scorer_config_from_json({"sigma_ofset": 2.0, "weigths": [1, 0, 0, 0]})
    with pytest.raises(ValueError, match="'sigma_ofset'"):
        scorer_config_from_json(json.dumps({"sigma_height": 0.5, "sigma_ofset": 2.0}))
    # a partial override keeps every other default
    cfg = scorer_config_from_json({"sigma_facing": 1.0})
    assert cfg == replace(ScorerConfig(), sigma_facing=1.0)


# --- interpersonal extraction ----------------------------------------------


def test_interpersonal_feature_is_partner_in_local_frame():
    room = empty_room()
    partner = PartnerPose(x=1.0, z=2.0, yaw=1.0)
    me = Placement(1.0, 1.0, 0.0, PlacementPose.Standing)
    f = extract_features(room, me, partner)
    assert f.interpersonal == pytest.approx((0.0, 1.0, 1.0), abs=1e-12)

    # quarter turn: the partner one meter ahead moves to the local left
    me = Placement(1.0, 1.0, math.pi / 2, PlacementPose.Standing)
    f = extract_features(room, me, partner)
    assert f.interpersonal[0] == pytest.approx(-1.0, abs=1e-12)
    assert f.interpersonal[1] == pytest.approx(0.0, abs=1e-12)
    assert f.interpersonal[2] == pytest.approx(1.0 - math.pi / 2, abs=1e-12)


def test_attention_uses_pose_eye_height():
    room = load_room(
        {
            "id": "r",
            "extents": {"min": [-5, -5], "max": [5, 5]},
            "objects": [
                {
                    "id": "tv", "category": "Screen", "position": [0, 1.6, 3],
                    "yaw": 0.0, "size": [1.0, 0.6, 0.1], "pair_id": "x",
                }
            ],
        }
    )
    standing = extract_features(room, Placement(0, 0, 0, PlacementPose.Standing))
    sitting = extract_features(room, Placement(0, 0, 0, PlacementPose.Sitting))
    assert standing.visual_attention[ObjectCategory.Screen.value] == pytest.approx(3.0)
    # seated eye is 0.4 lower: the same screen center is farther away
    assert sitting.visual_attention[ObjectCategory.Screen.value] == pytest.approx(
        math.hypot(3.0, 0.4)
    )


def test_attention_is_nearest_per_category_in_the_fov():
    """extract_features' attention against the scene's cone query."""
    for case in range(20):
        rng = np.random.default_rng(900 + case)
        room = random_room(rng)
        for pose in PlacementPose:
            p = Placement(rng.uniform(0, 4), rng.uniform(0, 4), rng.uniform(-7, 7), pose)
            eye_h = 1.6 if pose is PlacementPose.Standing else 1.2
            want = {}
            forward = (math.sin(p.yaw), 0.0, math.cos(p.yaw))
            for oid, dist in objects_in_fov(room, (p.x, eye_h, p.z), forward, math.radians(20.0)):
                want.setdefault(room.by_id[oid].category, dist)
            assert extract_features(room, p).visual_attention == FeatureVector(
                None, np.zeros(ACCOMMODATION_CELLS), per_category(want), per_category({})).visual_attention


def test_category_tables_are_per_category_vectors():
    f = fv(attention={ObjectCategory.Table: 2.0}, spatial={})
    assert f.visual_attention == (None, None, 2.0, None, None, None, None)
    assert f.spatial == (None,) * len(ObjectCategory)
    assert f == fv(attention=f.visual_attention, spatial=f.spatial)
    with pytest.raises(ValueError):
        fv(attention=(1.0,))
    with pytest.raises(ValueError):  # a mapping is not converted
        FeatureVector(None, np.zeros(ACCOMMODATION_CELLS), {ObjectCategory.Table: 2.0}, f.spatial)


# --- batched features against a per-placement oracle -----------------------------

# C is a grid cell center (cell 0.25 from 0): a lamp sits exactly at its
# seated eye, two screens are equally far from it, and a table is exactly
# SPATIAL_RADIUS away
C = 2.125


def oracle_room():
    def box(oid, category, position, size, **extra):
        return {"id": oid, "category": category, "position": position, "yaw": 0.0, "size": size,
                **extra}

    return load_room({"id": "oracle", "extents": {"min": [0, 0], "max": [6, 6]}, "objects": [
        box("sofa", "Sofa", [C, 0.225, C], [1.0, 0.45, 1.0], sittable=True, sit_height=0.45),
        box("lamp", "Other", [C, EYE_HEIGHT_SITTING, C], [0.1, 0.1, 0.1]),
        box("screen_l", "Screen", [C - 0.5, EYE_HEIGHT_SITTING, C + 1.5], [0.4, 0.3, 0.05]),
        box("screen_r", "Screen", [C + 0.5, EYE_HEIGHT_SITTING, C + 1.5], [0.4, 0.3, 0.05]),
        box("table", "Table", [C + SPATIAL_RADIUS, 0.375, C], [0.6, 0.75, 0.6]),
        box("wall", "Wall", [3.0, 1.25, 5.9], [6.0, 2.5, 0.1]),
    ]})


def oracle_features(room, x, z, yaw, pose, partner):
    """Features of one placement from the scene's own queries."""
    eye = EYE_HEIGHT_STANDING if pose is PlacementPose.Standing else EYE_HEIGHT_SITTING
    forward = (math.sin(yaw), 0.0, math.cos(yaw))
    attention, spatial = {}, {}
    for oid, dist in objects_in_fov(room, (x, eye, z), forward, ATTENTION_HALF_ANGLE):
        attention.setdefault(room.by_id[oid].category, dist)
    for oid, dist in objects_in_radius(room, (x, 0.0, z), SPATIAL_RADIUS):
        spatial.setdefault(room.by_id[oid].category, dist)
    inter = None
    if partner is not None:
        dx, dz = partner.x - x, partner.z - z
        c, s = math.cos(yaw), math.sin(yaw)
        inter = (dx * c - dz * s, dx * s + dz * c, wrap_angle(partner.yaw - yaw))
    hm = height_map(room, (x, 0.0, z), ACCOMMODATION_RADIUS, ACCOMMODATION_CELL)
    return FeatureVector(inter, hm.heights[hm.valid], per_category(attention), per_category(spatial))


def edge_positions():
    """Positions whose offset from the oracle room's table is SPATIAL_RADIUS,
    as nearly as floats hold it, each with its neighbours one ulp either
    side along x."""
    tx, _, tz = oracle_room().by_id["table"].position
    out = []
    for dx, dz in ((SPATIAL_RADIUS, 0.0), (1.8, -2.4)):
        x, z = tx - dx, tz - dz
        out += [(float(np.nextafter(x, -math.inf)), z), (x, z), (float(np.nextafter(x, math.inf)), z)]
    return out


def assert_same_features(got, want, where):
    assert got == want, where
    assert got.pose_accommodation.tobytes() == want.pose_accommodation.tobytes(), where
    for table in (got.visual_attention, got.spatial):
        assert all(d is None or type(d) is float for d in table), where


class Recorder(Unbounded):
    """Keeps every batch the exhaustive search scores."""

    def __init__(self):
        self.inner = DefaultScorer()
        self.batches = []

    def score_batch(self, target, candidates):
        self.batches.append(list(candidates))
        return self.inner.score_batch(target, candidates)


def test_bounds_change_no_result_for_a_target_a_peer_may_send():
    """A target with inf or NaN entries, which the wire carries as they
    are, gets the grid and swarm results of the unbounded search: each bound
    is NaN or at least the score, and a NaN bound skips nothing."""
    office, loft = demo_rooms()
    base = extract_features(office, Placement(-0.4, 1.0, 0.0, PlacementPose.Standing), PartnerPose(1.0, 0.5, 2.0))
    partner = PartnerPose(2.2, 0.3, math.pi / 2)
    targets = []
    for c in range(len(ObjectCategory)):
        for v in (math.inf, math.nan):
            spatial = base.spatial[:c] + (v,) + base.spatial[c + 1:]
            targets.append(FeatureVector(base.interpersonal, base.pose_accommodation, base.visual_attention, spatial))
    for inter in ((math.inf, math.nan, 0.0), (math.inf, 0.0, 0.0), (0.0, 0.0, math.nan)):
        targets.append(FeatureVector(inter, base.pose_accommodation, base.visual_attention, base.spatial))
    heights = base.pose_accommodation.copy()
    heights[5] = math.inf
    targets.append(FeatureVector(base.interpersonal, heights, base.visual_attention, base.spatial))

    def outcome(search):
        try:
            result = search()
        except NoFeasiblePlacement:
            return "none"
        return result.placement, repr(result.score), result.evaluated  # repr: NaN equals NaN

    seed = Placement(-0.5, 0.5, 1.0, PlacementPose.Standing)
    config = PsoConfig(particles=32, iterations=12)
    for target in targets:
        for scorer in (DefaultScorer(), NoBound(DefaultScorer())):
            got = (outcome(lambda: grid_search(loft, target, scorer, partner)),
                   outcome(lambda: pso_refine(loft, target, seed, scorer, partner, config, rng=1)))
            if isinstance(scorer, NoBound):
                assert got == bounded, (target.interpersonal, target.spatial)
            bounded = got


class Screened(Recorder):
    """A ``Recorder`` that forwards ``score_bound`` and counts the positions
    it bounds."""

    def __init__(self):
        super().__init__()
        self.bounded = 0

    def score_bound(self, target, accommodation, spatial, **given):
        self.bounded += len(accommodation)
        return self.inner.score_bound(target, accommodation, spatial, **given)


def test_the_swarm_screen_skips_most_particles_and_changes_no_result():
    """Session searches, as in the pruned-grid test: after its first
    iteration the screened swarm scores under half of its feasible
    particles, with the result of the unscreened one."""
    office, loft = demo_rooms()
    standing, sitting = PlacementPose.Standing, PlacementPose.Sitting
    spots = [  # (office spot, loft spot): the paired chairs, the paired screens
        (Placement(1.35, 0.55, 0.0, sitting), Placement(-0.9, -1.35, 2.4 - math.pi, sitting)),
        (Placement(-0.4, 1.0, 0.0, standing), Placement(2.2, 0.3, math.pi / 2, standing)),
    ]
    exact = bounded = 0
    for case, (office_spot, loft_spot) in enumerate(spots):
        for room, user, other_room, local in ((office, office_spot, loft, loft_spot),
                                               (loft, loft_spot, office, office_spot)):
            avatar = grid_search(room, extract_features(other_room, local), DefaultScorer(),
                                 PartnerPose(user.x, user.z, user.yaw)).placement
            target = extract_features(room, user, PartnerPose(avatar.x, avatar.z, avatar.yaw))
            partner = PartnerPose(local.x, local.z, local.yaw)
            seed = grid_search(other_room, target, partner=partner).placement
            screened = Screened()
            got = pso_refine(other_room, target, seed, screened, partner, rng=case)
            assert got == pso_refine(other_room, target, seed, NoBound(DefaultScorer()), partner, rng=case)
            # the first batch is the swarm's start and the last its result;
            # the others are the particles that passed the screen
            exact += sum(len(batch) for batch in screened.batches[1:-1])
            bounded += screened.bounded
    assert 0 < exact < 0.5 * bounded, (exact, bounded)


def test_grid_features_equal_the_per_placement_oracle():
    room = oracle_room()
    partner = PartnerPose(1.0, 4.0, 0.7)
    config = GridConfig()
    target = extract_features(room, Placement(C, C, 0.0, PlacementPose.Sitting), partner)
    # and three furnished rooms, each with a bench whose seat holds grid cells
    furnished = [random_room(np.random.default_rng(seed)) for seed in (5, 6, 8)]
    seen = set()
    for k, other in enumerate([room] + furnished):
        xs, zs, yaws = grid_axes(other.extents, config.cell, config.yaw_count)
        recorder = Recorder()
        grid_search(other, target, recorder, partner, config=config)
        # one batch per cell that admits a pose, in scan order
        cells = [(x, z, poses) for x in xs for z in zs
                 if (poses := [pose for pose in PlacementPose if feasible(other, Placement(x, z, 0.0, pose))])]
        assert len(recorder.batches) == len(cells)
        assert any(poses == [PlacementPose.Sitting] for _, _, poses in cells), k
        for batch, (x, z, poses) in zip(recorder.batches, cells):
            want = [(yaw, pose) for yaw in yaws for pose in poses]
            assert len(batch) == len(want)
            for got, (yaw, pose) in zip(batch, want):
                where = (k, x, z, yaw, pose)
                assert_same_features(got, oracle_features(other, x, z, yaw, pose, partner), where)
                seen.add(where)
    # the cell at C was searched seated, facing the screens
    sitting = target.visual_attention
    assert (0, C, C, 0.0, PlacementPose.Sitting) in seen
    assert sitting[ObjectCategory.Other.value] == 0.0  # the lamp at the eye
    assert sitting[ObjectCategory.Screen.value] == math.sqrt(0.5 * 0.5 + 1.5 * 1.5)
    assert target.spatial[ObjectCategory.Table.value] == SPATIAL_RADIUS


def test_swarm_batch_features_equal_the_per_placement_oracle():
    room = oracle_room()
    rng = np.random.default_rng(4)
    edges = edge_positions()
    xs = [C] + rng.uniform(0, 6, 40).tolist() + [x for x, _ in edges]
    zs = [C] + rng.uniform(0, 6, 40).tolist() + [z for _, z in edges]
    yaws = [0.0] + rng.uniform(0, 2 * math.pi, 40).tolist() + [0.0] * len(edges)
    cx, cz = np.array(xs), np.array(zs)
    rows = placement_module._accommodation_at(room.arrays, cx, cz)
    spatial = placement_module._tables(placement_module._spatial_at(room.arrays, cx, cz))
    # the table drops out one ulp beyond the radius and stays one ulp inside
    table = [row[ObjectCategory.Table.value] for row in spatial[-len(edges):]]
    assert table[:3] == [None, SPATIAL_RADIUS, float(np.nextafter(SPATIAL_RADIUS, 0.0))]
    sins, coss = placement_module._turns(yaws)
    for partner in (None, PartnerPose(4.5, 1.0, 5.0)):
        offsets = placement_module._interpersonal_at(partner, cx, cz, np.array(yaws), sins, coss)
        for pose in PlacementPose:
            batch = placement_module._features_at(room, cx, cz, sins, coss, pose, offsets, rows, spatial)
            assert len(batch) == len(xs)
            for got, x, z, yaw in zip(batch, xs, zs, yaws):
                where = (x, z, yaw, pose)
                assert_same_features(got, oracle_features(room, x, z, yaw, pose, partner), where)
