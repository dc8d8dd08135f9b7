"""Avatar placement search: feature extraction, similarity scoring, and a
coarse-grid plus particle-swarm optimizer.

Each time a user stops walking, their avatar must be re-seated in the remote
room at a spot that preserves the social and spatial context of where the
user actually stands. Context is captured as a four-part feature vector:

* interpersonal: the partner's offset and relative facing in the subject's
  local frame, or absent when there is no placed partner,
* pose accommodation: a 0.5 m-radius height map of standable/sittable
  support around the subject,
* visual attention: nearest distance per object category inside a 40 degree
  view cone at eye height,
* spatial context: nearest distance per object category within 3 m.

The default scorer turns feature differences into a similarity in [0, 1]
(identical features score exactly 1). The search scores every cell of a
0.25 m x 15-degree grid over the remote room, then refines the best cell
with a small particle swarm confined to that cell's neighborhood. Scorers
are pluggable: anything with a ``score(target, candidate) -> float`` method
can replace the default, including learned models.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Protocol

import numpy as np

from .geometry import wrap_angle, wrap_angle_positive
from .scene import (
    HeightMap,
    ObjectCategory,
    OutOfRange,
    Room,
    height_map,
    objects_in_fov,
    objects_in_radius,
)

_EPS = 1e-9

# Fixed extraction geometry. Candidate features are only comparable to the
# partner's features if both ends use the same constants, so these are part
# of the exchange contract rather than per-run configuration.
EYE_HEIGHT_STANDING = 1.6
EYE_HEIGHT_SITTING = 1.2
ATTENTION_HALF_ANGLE = math.radians(20.0)
ACCOMMODATION_RADIUS = 0.5
ACCOMMODATION_CELL = 0.1
SPATIAL_RADIUS = 3.0

# Body clearance for feasibility checks.
BODY_RADIUS = 0.2
STAND_CLEARANCE = 0.05

GRID_CELL = 0.25
GRID_YAW_COUNT = 24


class NoFeasiblePlacement(RuntimeError):
    """No candidate in the searched room admits the requested poses."""


class PlacementPose(Enum):
    Standing = 0
    Sitting = 1


@dataclass(frozen=True)
class Placement:
    """An avatar pose anchor: floor position, facing, and body pose."""

    x: float
    z: float
    yaw: float
    pose: PlacementPose

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "z", float(self.z))
        object.__setattr__(self, "yaw", wrap_angle_positive(float(self.yaw)))


@dataclass(frozen=True)
class PartnerPose:
    """Where the other person (or their avatar) stands in the same room."""

    x: float
    z: float
    yaw: float


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """Context descriptor for one (position, yaw, pose) in one room.

    `visual_attention` and `spatial` map object categories to the nearest
    matching object's distance; absent categories mean no such object was in
    range. `interpersonal` is (local_x, local_z, relative_yaw) of the
    partner, None when no partner is placed.
    """

    interpersonal: tuple[float, float, float] | None
    pose_accommodation: HeightMap
    visual_attention: dict[ObjectCategory, float]
    spatial: dict[ObjectCategory, float]

    @property
    def valid_heights(self) -> np.ndarray:
        """Heights at valid cells, flattened; cached for repeated scoring."""
        cached = getattr(self, "_valid_heights", None)
        if cached is None:
            hm = self.pose_accommodation
            cached = hm.heights[hm.valid]
            object.__setattr__(self, "_valid_heights", cached)
        return cached

    def __eq__(self, other):
        if not isinstance(other, FeatureVector):
            return NotImplemented
        return (
            self.interpersonal == other.interpersonal
            and self.pose_accommodation == other.pose_accommodation
            and self.visual_attention == other.visual_attention
            and self.spatial == other.spatial
        )


@dataclass(frozen=True)
class ScorerConfig:
    """Falloff scales and term weights for the default similarity."""

    sigma_offset: float = 1.0
    sigma_facing: float = math.pi / 2.0
    sigma_height: float = 0.3
    distance_falloff: float = 1.0
    weights: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)

    def __post_init__(self):
        for name in ("sigma_offset", "sigma_facing", "sigma_height", "distance_falloff"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        w = tuple(float(v) for v in self.weights)
        if len(w) != 4 or any(v < 0.0 for v in w):
            raise ValueError("weights must be four non-negative numbers")
        if abs(sum(w) - 1.0) > 1e-6:
            raise ValueError("weights must sum to 1 so identical features score 1")
        object.__setattr__(self, "weights", w)


def scorer_config_from_json(document) -> ScorerConfig:
    """Load a ScorerConfig from a JSON file path, JSON text, or dict."""
    if isinstance(document, ScorerConfig):
        return document
    if isinstance(document, (str, Path)):
        # inline JSON starts with '{' or '['; anything else is a path
        if isinstance(document, str) and document.lstrip()[:1] in ("{", "["):
            text = document
        else:
            p = Path(document)
            if not p.exists():
                raise ValueError(f"scorer config file not found: {document}")
            text = p.read_text()
        document = json.loads(text)
    if not isinstance(document, dict):
        raise ValueError(f"scorer config must be a JSON object, got {type(document).__name__}")
    kwargs = {}
    for key in ("sigma_offset", "sigma_facing", "sigma_height", "distance_falloff"):
        if key in document:
            kwargs[key] = float(document[key])
    if "weights" in document:
        kwargs["weights"] = tuple(float(v) for v in document["weights"])
    return ScorerConfig(**kwargs)


class SimilarityScorer(Protocol):
    def score(self, target: FeatureVector, candidate: FeatureVector) -> float:
        """Similarity in [0, 1]; identical features must score 1."""
        ...


def default_similarity(a: FeatureVector, b: FeatureVector, cfg: ScorerConfig | None = None) -> float:
    """Heuristic feature similarity in [0, 1].

    Four terms, each 1 for a perfect match and decaying exponentially with
    the feature distance:

    * interpersonal: offset distance plus absolute wrapped facing delta.
      Both absent counts as a perfect match (neither end has a partner);
      exactly one absent scores 0.
    * accommodation: RMS height difference over valid cells.
    * attention and spatial: per-category ``exp(-|d_a - d_b| / falloff)``
      averaged over the union of categories; a category present on only one
      side contributes 0. An empty union scores 1.
    """
    if cfg is None:
        cfg = ScorerConfig()

    if a.interpersonal is None and b.interpersonal is None:
        s_inter = 1.0
    elif a.interpersonal is None or b.interpersonal is None:
        s_inter = 0.0
    else:
        dx = a.interpersonal[0] - b.interpersonal[0]
        dz = a.interpersonal[1] - b.interpersonal[1]
        dfacing = abs(wrap_angle(a.interpersonal[2] - b.interpersonal[2]))
        s_inter = math.exp(-(math.hypot(dx, dz) / cfg.sigma_offset + dfacing / cfg.sigma_facing))

    ha = a.valid_heights
    hb = b.valid_heights
    if ha.shape != hb.shape:
        raise OutOfRange(
            f"height maps are not comparable: {ha.shape[0]} vs {hb.shape[0]} valid cells"
        )
    if ha.size == 0:
        s_height = 1.0
    else:
        diff = ha - hb
        rms = math.sqrt(float(np.dot(diff, diff)) / diff.size)
        s_height = math.exp(-rms / cfg.sigma_height)

    s_attention = _category_term(a.visual_attention, b.visual_attention, cfg.distance_falloff)
    s_spatial = _category_term(a.spatial, b.spatial, cfg.distance_falloff)

    w = cfg.weights
    return w[0] * s_inter + w[1] * s_height + w[2] * s_attention + w[3] * s_spatial


_CATEGORY_ORDER = tuple(sorted(ObjectCategory, key=lambda c: c.value))


def _category_term(da: dict, db: dict, falloff: float) -> float:
    total = 0.0
    union = 0
    # fixed iteration order: category hash order varies between processes
    for cat in _CATEGORY_ORDER:
        a = da.get(cat)
        b = db.get(cat)
        if a is not None:
            if b is not None:
                union += 1
                total += math.exp(-abs(a - b) / falloff)
            else:
                union += 1
        elif b is not None:
            union += 1
    if union == 0:
        return 1.0
    return total / union


@dataclass(frozen=True)
class DefaultScorer:
    config: ScorerConfig = field(default_factory=ScorerConfig)

    def score(self, target: FeatureVector, candidate: FeatureVector) -> float:
        return default_similarity(target, candidate, self.config)


# --- feature extraction -----------------------------------------------------

def _interpersonal(x: float, z: float, yaw: float, partner: PartnerPose | None):
    if partner is None:
        return None
    dx = partner.x - x
    dz = partner.z - z
    c = math.cos(yaw)
    s = math.sin(yaw)
    return (dx * c - dz * s, dx * s + dz * c, wrap_angle(partner.yaw - yaw))


def _attention(room: Room, x: float, z: float, yaw: float, pose: PlacementPose):
    eye_h = EYE_HEIGHT_STANDING if pose is PlacementPose.Standing else EYE_HEIGHT_SITTING
    forward = (math.sin(yaw), 0.0, math.cos(yaw))
    out: dict[ObjectCategory, float] = {}
    for oid, dist in objects_in_fov(room, (x, eye_h, z), forward, ATTENTION_HALF_ANGLE):
        cat = room.by_id[oid].category
        if cat not in out:  # results are distance-sorted: first hit is nearest
            out[cat] = dist
    return out


def _spatial(room: Room, x: float, z: float):
    out: dict[ObjectCategory, float] = {}
    for oid, dist in objects_in_radius(room, (x, 0.0, z), SPATIAL_RADIUS):
        cat = room.by_id[oid].category
        if cat not in out:
            out[cat] = dist
    return out


def _accommodation(room: Room, x: float, z: float) -> HeightMap:
    return height_map(room, (x, 0.0, z), ACCOMMODATION_RADIUS, ACCOMMODATION_CELL)


def extract_features(
    room: Room,
    placement: Placement,
    partner: PartnerPose | None = None,
) -> FeatureVector:
    """Describe the context of a placement in its room.

    The eye used for the attention cone sits at the placement position at
    1.6 m (standing) or 1.2 m (sitting) and looks level along the facing.
    """
    return FeatureVector(
        interpersonal=_interpersonal(placement.x, placement.z, placement.yaw, partner),
        pose_accommodation=_accommodation(room, placement.x, placement.z),
        visual_attention=_attention(room, placement.x, placement.z, placement.yaw, placement.pose),
        spatial=_spatial(room, placement.x, placement.z),
    )


# --- feasibility ------------------------------------------------------------

def _foot_cells() -> tuple[tuple[float, float], ...]:
    cells = []
    for i in range(5):
        for j in range(5):
            ox = (i - 2) * 0.1
            oz = (j - 2) * 0.1
            if math.hypot(ox, oz) <= BODY_RADIUS + _EPS:
                cells.append((ox, oz))
    return tuple(cells)


_FOOT_CELLS = _foot_cells()
_FOOT_OX = np.array([c[0] for c in _FOOT_CELLS])
_FOOT_OZ = np.array([c[1] for c in _FOOT_CELLS])


def _blocking_columns(room: Room):
    """Columns for objects tall enough to block standing, cached per room."""
    cached = getattr(room, "_stand_blocking", None)
    if cached is None:
        arr = room.arrays
        blocking = arr.support > STAND_CLEARANCE + _EPS
        if not bool(blocking.any()):
            cached = ()
        else:
            cached = (
                arr.px[None, blocking], arr.pz[None, blocking],
                arr.cos[None, blocking], arr.sin[None, blocking],
                arr.hx[None, blocking] + _EPS, arr.hz[None, blocking] + _EPS,
            )
        object.__setattr__(room, "_stand_blocking", cached)
    return cached


def _standing_feasible(room: Room, x: float, z: float) -> bool:
    """True when every sample cell of the body footprint is near floor level.

    Equivalent to checking support_height_at <= STAND_CLEARANCE at each cell:
    an object taller than the clearance must not cover any cell.
    """
    cols = _blocking_columns(room)
    if not cols:
        return True
    px, pz, cos, sin, hx_tol, hz_tol = cols
    dx = (x + _FOOT_OX)[:, None] - px
    dz = (z + _FOOT_OZ)[:, None] - pz
    lx = dx * cos - dz * sin
    lz = dx * sin + dz * cos
    covered = (np.abs(lx) <= hx_tol) & (np.abs(lz) <= hz_tol)
    return not bool(covered.any())


def _sitting_feasible(room: Room, x: float, z: float) -> bool:
    """True when some sittable object's seat covers the whole body disc."""
    for o in room.scalars:
        if not o.sittable:
            continue
        dx = x - o.px
        dz = z - o.pz
        lx = dx * o.cos - dz * o.sin
        lz = dx * o.sin + dz * o.cos
        if abs(lx) <= o.hx - BODY_RADIUS + _EPS and abs(lz) <= o.hz - BODY_RADIUS + _EPS:
            return True
    return False


def feasible(room: Room, placement: Placement) -> bool:
    """Whether an avatar can actually hold this placement in this room."""
    if not room.extents.contains(placement.x, placement.z):
        return False
    if placement.pose is PlacementPose.Standing:
        return _standing_feasible(room, placement.x, placement.z)
    return _sitting_feasible(room, placement.x, placement.z)


# --- grid search ------------------------------------------------------------

@dataclass(frozen=True)
class GridConfig:
    cell: float = GRID_CELL
    yaw_count: int = GRID_YAW_COUNT

    def __post_init__(self):
        if self.cell <= 0.0:
            raise ValueError("grid cell must be positive")
        if self.yaw_count < 1:
            raise ValueError("yaw_count must be at least 1")


def grid_axes(
    extents, cell: float = GRID_CELL, yaw_count: int = GRID_YAW_COUNT
) -> tuple[list[float], list[float], list[float]]:
    """Cell-center x/z coordinates and yaw samples covering the extents.

    Axes hold floor(span / cell) cells per dimension, centered in their
    cells, so a 4 m span at 0.25 m yields 16 samples.
    """
    nx = int(math.floor(extents.width / cell + _EPS))
    nz = int(math.floor(extents.depth / cell + _EPS))
    xs = [extents.min_x + (i + 0.5) * cell for i in range(nx)]
    zs = [extents.min_z + (j + 0.5) * cell for j in range(nz)]
    yaws = [k * (math.tau / yaw_count) for k in range(yaw_count)]
    return xs, zs, yaws


@dataclass(frozen=True)
class GridResult:
    placement: Placement
    score: float
    candidates_per_pose: int    # grid size, including infeasible cells
    evaluated: int              # candidates that passed feasibility and were scored


class _PositionEval:
    """Per-position work shared by all yaws and poses at one grid cell."""

    __slots__ = ("accommodation", "spatial", "standing_ok", "sitting_ok")

    def __init__(self, room: Room, x: float, z: float):
        self.standing_ok = _standing_feasible(room, x, z)
        self.sitting_ok = _sitting_feasible(room, x, z)
        if self.standing_ok or self.sitting_ok:
            self.accommodation = _accommodation(room, x, z)
            self.spatial = _spatial(room, x, z)


_POSES = (PlacementPose.Standing, PlacementPose.Sitting)


def grid_search(
    room: Room,
    target: FeatureVector,
    scorer: SimilarityScorer | None = None,
    partner: PartnerPose | None = None,
    *,
    config: GridConfig | None = None,
) -> GridResult:
    """Exhaustively score the placement grid and return the best candidate.

    Candidates are every (cell center, yaw, pose) triple; infeasible ones
    are skipped. Ties resolve to the lowest (x, z, yaw, pose) grid index,
    with Standing before Sitting: the first best in scan order wins.
    """
    if scorer is None:
        scorer = DefaultScorer()
    if config is None:
        config = GridConfig()

    xs, zs, yaws = grid_axes(room.extents, config.cell, config.yaw_count)
    per_pose = len(xs) * len(zs) * len(yaws)
    best_score = -math.inf
    best_placement = None
    evaluated = 0
    for x in xs:
        for z in zs:
            pos = _PositionEval(room, x, z)
            if not (pos.standing_ok or pos.sitting_ok):
                continue
            for yaw in yaws:
                inter = _interpersonal(x, z, yaw, partner)
                for pose in _POSES:
                    ok = pos.standing_ok if pose is PlacementPose.Standing else pos.sitting_ok
                    if not ok:
                        continue
                    candidate = FeatureVector(
                        interpersonal=inter,
                        pose_accommodation=pos.accommodation,
                        visual_attention=_attention(room, x, z, yaw, pose),
                        spatial=pos.spatial,
                    )
                    score = scorer.score(target, candidate)
                    evaluated += 1
                    if score > best_score:
                        best_score = score
                        best_placement = Placement(x, z, yaw, pose)

    if best_placement is None:
        raise NoFeasiblePlacement(
            f"room {room.id!r}: no feasible candidate among {per_pose * 2} grid cells"
        )
    return GridResult(
        placement=best_placement, score=best_score, candidates_per_pose=per_pose, evaluated=evaluated
    )


# --- particle swarm refinement ----------------------------------------------

@dataclass(frozen=True)
class PsoConfig:
    """Swarm parameters for local refinement around a grid seed."""

    particles: int = 64
    iterations: int = 30
    inertia: float = 0.72
    cognitive: float = 1.49
    social: float = 1.49
    position_radius: float = 0.5
    yaw_radius: float = math.radians(30.0)

    def __post_init__(self):
        if self.particles < 1:
            raise ValueError("particles must be at least 1")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if not (0.0 <= self.inertia <= 1.0):
            raise ValueError("inertia must be within [0, 1]")
        if self.cognitive < 0.0 or self.social < 0.0:
            raise ValueError("acceleration coefficients must be non-negative")
        if self.position_radius <= 0.0 or self.yaw_radius <= 0.0:
            raise ValueError("search radii must be positive")


@dataclass(frozen=True)
class PsoResult:
    placement: Placement
    score: float
    evaluated: int


def pso_refine(
    room: Room,
    target: FeatureVector,
    seed: Placement,
    scorer: SimilarityScorer | None = None,
    partner: PartnerPose | None = None,
    config: PsoConfig | None = None,
    rng: np.random.Generator | int = 0,
) -> PsoResult:
    """Polish a placement inside its grid cell's neighborhood.

    Global-best particle swarm over (x, z, yaw) with the pose held fixed.
    Particle 0 starts exactly at the seed, so the result never scores below
    it; infeasible points score -inf and are never adopted. Zero iterations
    returns the seed unchanged.
    """
    if scorer is None:
        scorer = DefaultScorer()
    if config is None:
        config = PsoConfig()
    if not isinstance(rng, np.random.Generator):
        rng = np.random.Generator(np.random.PCG64(rng))

    pose = seed.pose

    def evaluate(x: float, z: float, yaw: float) -> tuple[float, Placement]:
        p = Placement(x, z, yaw, pose)
        if not feasible(room, p):
            return -math.inf, p
        return scorer.score(target, extract_features(room, p, partner)), p

    if config.iterations == 0:
        score, p = evaluate(seed.x, seed.z, seed.yaw)
        return PsoResult(placement=p, score=score, evaluated=1)

    ext = room.extents
    lo = np.array([
        max(seed.x - config.position_radius, ext.min_x),
        max(seed.z - config.position_radius, ext.min_z),
        seed.yaw - config.yaw_radius,
    ])
    hi = np.array([
        min(seed.x + config.position_radius, ext.max_x),
        min(seed.z + config.position_radius, ext.max_z),
        seed.yaw + config.yaw_radius,
    ])

    n = config.particles
    pos = np.empty((n, 3))
    pos[0] = (seed.x, seed.z, seed.yaw)
    if n > 1:
        pos[1:] = rng.uniform(lo, hi, (n - 1, 3))
    vel = np.zeros((n, 3))

    def evaluate_all(points: np.ndarray) -> np.ndarray:
        return np.array([evaluate(p[0], p[1], p[2])[0] for p in points])

    scores = evaluate_all(pos)
    evaluated = n
    pbest = scores.copy()
    pbest_pos = pos.copy()
    g = int(np.argmax(pbest))
    gbest = float(pbest[g])
    gbest_pos = pbest_pos[g].copy()

    for _ in range(config.iterations):
        r1 = rng.uniform(size=(n, 3))
        r2 = rng.uniform(size=(n, 3))
        vel = (
            config.inertia * vel
            + config.cognitive * r1 * (pbest_pos - pos)
            + config.social * r2 * (gbest_pos[None, :] - pos)
        )
        pos = np.clip(pos + vel, lo, hi)
        scores = evaluate_all(pos)
        evaluated += n
        improved = scores > pbest
        pbest[improved] = scores[improved]
        pbest_pos[improved] = pos[improved]
        g = int(np.argmax(pbest))
        if float(pbest[g]) > gbest:
            gbest = float(pbest[g])
            gbest_pos = pbest_pos[g].copy()

    final_score, final_placement = evaluate(gbest_pos[0], gbest_pos[1], gbest_pos[2])
    return PsoResult(placement=final_placement, score=final_score, evaluated=evaluated + 1)


# --- combined search --------------------------------------------------------

@dataclass(frozen=True)
class PlacementResult:
    placement: Placement
    score: float
    grid_placement: Placement
    grid_score: float
    grid_candidates_per_pose: int
    grid_evaluated: int
    pso_evaluated: int
    grid_time_s: float
    pso_time_s: float

    @property
    def total_time_s(self) -> float:
        return self.grid_time_s + self.pso_time_s


def find_placement(
    room: Room,
    target: FeatureVector,
    scorer: SimilarityScorer | None = None,
    partner: PartnerPose | None = None,
    *,
    grid_config: GridConfig | None = None,
    pso_config: PsoConfig | None = None,
    rng: np.random.Generator | int = 0,
) -> PlacementResult:
    """Grid search followed by swarm refinement; the full placement query."""
    if scorer is None:
        scorer = DefaultScorer()
    t0 = time.perf_counter()
    grid = grid_search(room, target, scorer, partner, config=grid_config)
    t1 = time.perf_counter()
    pso = pso_refine(room, target, grid.placement, scorer, partner, pso_config, rng)
    t2 = time.perf_counter()
    # the swarm starts at the grid seed, so it can only match or beat it
    return PlacementResult(
        placement=pso.placement,
        score=pso.score,
        grid_placement=grid.placement,
        grid_score=grid.score,
        grid_candidates_per_pose=grid.candidates_per_pose,
        grid_evaluated=grid.evaluated,
        pso_evaluated=pso.evaluated,
        grid_time_s=t1 - t0,
        pso_time_s=t2 - t1,
    )


# --- serialization ----------------------------------------------------------

def feature_to_json(fv: FeatureVector) -> dict:
    """Plain-JSON form of a feature vector (for fixtures and benchmarks)."""
    hm = fv.pose_accommodation
    return {
        "interpersonal": list(fv.interpersonal) if fv.interpersonal is not None else None,
        "pose_accommodation": {
            "center": [float(v) for v in hm.center],
            "radius": hm.radius,
            "cell_size": hm.cell_size,
            "heights": hm.heights.tolist(),
            "valid": hm.valid.astype(int).tolist(),
        },
        "visual_attention": {cat.name: d for cat, d in sorted(
            fv.visual_attention.items(), key=lambda kv: kv[0].value)},
        "spatial": {cat.name: d for cat, d in sorted(
            fv.spatial.items(), key=lambda kv: kv[0].value)},
    }


def feature_from_json(document) -> FeatureVector:
    if isinstance(document, (str, Path)):
        # inline JSON starts with '{'; anything else is treated as a path
        if isinstance(document, str) and document.lstrip().startswith("{"):
            text = document
        else:
            p = Path(document)
            if not p.exists():
                raise ValueError(f"feature file not found: {document}")
            text = p.read_text()
        document = json.loads(text)
    hm_doc = document["pose_accommodation"]
    hm = HeightMap(
        center=np.array(hm_doc["center"], dtype=float),
        radius=float(hm_doc["radius"]),
        cell_size=float(hm_doc["cell_size"]),
        heights=np.array(hm_doc["heights"], dtype=float),
        valid=np.array(hm_doc["valid"], dtype=bool),
    )
    inter = document.get("interpersonal")
    by_name = {c.name: c for c in ObjectCategory}
    return FeatureVector(
        interpersonal=tuple(float(v) for v in inter) if inter is not None else None,
        pose_accommodation=hm,
        visual_attention={by_name[k]: float(v) for k, v in document["visual_attention"].items()},
        spatial={by_name[k]: float(v) for k, v in document["spatial"].items()},
    )
