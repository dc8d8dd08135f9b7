"""Avatar placement search: feature extraction, similarity scoring, and a
coarse-grid plus particle-swarm optimizer.

Each time a user stops walking, their avatar must be re-seated in the remote
room at a spot that preserves the social and spatial context of where the
user actually stands. Context is captured as a four-part feature vector:

* interpersonal: the partner's offset and relative facing in the subject's
  local frame, or absent when there is no placed partner,
* pose accommodation: the support heights at the 81 cells of a 0.1 m grid
  whose centers lie within 0.5 m of the subject (the valid cells of
  ``scene.height_map``'s grid, in row-major order), as a float64 array of
  exactly ``ACCOMMODATION_CELLS`` entries; on the wire it is 81 f32, so a
  feature from any other grid cannot be built or sent,
* visual attention: nearest distance per object category inside a 40 degree
  view cone at eye height,
* spatial context: nearest distance per object category within 3 m.

A ``FeatureVector`` holds both per-category features as tuples indexed by
``ObjectCategory.value``, None where no object of the category is in range.
Only ``extract_features`` builds one: the search holds its candidates in the
arrays a scorer takes (see ``SimilarityScorer``).

The default scorer turns feature differences into a similarity in [0, 1];
identical features score its weights summed in order. The search finds the
best cell of a 0.25 m x 15-degree grid over the remote room, then refines it
with a small particle swarm confined to that cell's neighborhood.

A placement is feasible inside the room's extents when nothing under the
feet rises above STAND_CLEARANCE (standing) or a sittable object's seat
covers the whole body disc (sitting). The standing test reads the 13 foot
cells off the point's accommodation row (each foot cell is an accommodation
cell, offset for offset, bit for bit), so one broadcast gives a point both
its feasibility and its row. No point admits both poses: a seat under the
body disc also covers the center foot cell, at a sit_height of at least 0.2.

The grid is a bounded best-first scan with the result of an exhaustive one.
Its room-only phase, ``grid_tables``, takes one grid column at a time and
decides feasibility as ``feasible`` and the swarm do: ``_feasible_rows``,
once per pose, gives the column's cells that admit the pose and their
accommodation rows. A last broadcast gives the feasible cells' spatial
tables. Nothing in it depends on the target, so it runs once per ``Room``
object and ``GridConfig``, whose later searches read its tables. Each
feasible cell holds one pose, and one ``score_bound`` call over all of them
gives each cell an upper bound on its yaw candidates' scores (their height
and spatial terms do not depend on yaw, attention is at most 1, and the
partner offset has the same length at every yaw). The search then visits
cells by descending bound, scores a cell's candidates together, and stops
once no bound can reach the best score. A visited cell's candidates share
its accommodation row and spatial table, which ``score_batch`` gets as
read-only views of the cell's, repeated over its yaws; the height term's
memo sums that row once.
A standing swarm iteration is one accommodation broadcast over every
particle, which gives both their feasibility and their rows; a sitting
iteration tests the seats first, in one broadcast per sittable object, and
samples only the feasible particles. Every feasible particle is then scored
in one ``score_batch`` call, with its attention and spatial tables from one
broadcast each; the swarm bounds nothing.
A swarm's accommodation broadcasts run only against the objects whose
footprint reaches the box its samples lie in, which drops only objects that
cover none of them.
The broadcasts read the room's ``scene.RoomArrays``, whose columns hold the
objects in category order, so an attention or spatial table is one
``np.minimum`` reduction per category run; the seat test runs over the
sittable objects of the same room, one broadcast each.
Batching, bounding and cropping change no result: every feature and score
is computed with the same floating-point operations as for a single
placement (a category's attention entry is the least distance in the cone,
which is the nearest hit), every horizontal distance is
``sqrt(dx * dx + dz * dz)``, as ``geometry.norm`` computes a length on the
tick path, and ``math.sin``, ``math.cos``, ``math.exp`` and the height term
still run on the same inputs (the height term's only dedupe is one memo
lookup per row, by the row's bytes: the memo keeps the terms of the rows
scored against the last target row, which a grid cell's yaws repeat and a
swarm's particles keep landing on from one iteration to the next, so an
equal row gets the same value). The broadcasts use only elementwise
arithmetic, ``np.sqrt``, ``np.fmod`` and comparisons, which are correctly
rounded on every CPU, and the height term sums its squared differences with
``math.fsum``, which is correctly rounded too, so a search gives the same
bits on every machine. A bound only decides what is skipped, never a score.

Scorers are pluggable: anything with ``score_batch`` and ``score_bound``
(see ``SimilarityScorer``) can replace the default, including learned
models. The search has one path for every scorer: the grid always bounds,
then scores the cells it visits, and the swarm scores every feasible
particle. A scorer that cannot bound returns infinite bounds, and then the
grid scores every feasible candidate in scan order.
"""

from __future__ import annotations

import json
import math
import numbers
import time
import weakref
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from typing import Protocol, get_type_hints

import numpy as np

from .geometry import wrap_angle_positive
from .scene import (
    ObjectCategory, Room, RoomArrays, height_map_grid, read_document, require_field, require_fields,
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

_COS_HALF_ATTENTION = math.cos(ATTENTION_HALF_ANGLE)
_CATEGORY_COUNT = len(ObjectCategory)
# offsets of the accommodation grid's valid cells from the subject
_, _ACCOMMODATION_OX, _ACCOMMODATION_OZ = height_map_grid(ACCOMMODATION_RADIUS, ACCOMMODATION_CELL)
ACCOMMODATION_CELLS = len(_ACCOMMODATION_OX)  # 81


def config_to_dict(config) -> dict:
    """A config dataclass in plain JSON: one key per field, nested configs as
    objects, tuples as lists. Values keep their type, so `config_from_dict`
    restores a config that serializes to the same bytes."""
    doc = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            value = config_to_dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        doc[f.name] = value
    return doc


def config_from_dict(cls, doc: dict, path: str = ""):
    """A config from its `config_to_dict` form. Every value must have its field's
    annotated type, as `scene.require_field` takes it: an int field takes an
    int, a float field a finite int or float, a tuple field a list of as many
    such values and a nested config an object; anything else is a ValueError
    naming the field by its full path."""
    if not isinstance(doc, dict):
        raise ValueError(f"{path or cls.__name__} must be an object, got {doc!r}")
    names = [f.name for f in fields(cls)]
    if sorted(doc) != sorted(names):
        raise ValueError(f"{cls.__name__} needs exactly the keys {sorted(names)}, got {sorted(doc)}")
    types = get_type_hints(cls)
    return cls(**{name: _json_value(types[name], doc[name], path + name) for name in names})


def _json_value(hint, value, path: str):
    if is_dataclass(hint):
        return config_from_dict(hint, value, path + ".")
    return require_field(hint, value, path, ValueError)


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


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True, eq=False)
class FeatureVector:
    """Context descriptor for one (position, yaw, pose) in one room.

    `pose_accommodation` holds the support heights at the accommodation
    grid's ``ACCOMMODATION_CELLS`` valid cells in row-major order; any
    sequence of that length is copied into a read-only float64 array.
    `visual_attention` and `spatial` hold, per object category (indexed by
    ``ObjectCategory.value``), the nearest matching object's distance, or
    None when no such object was in range, in a tuple of one entry per
    category. `interpersonal` is (local_x, local_z, relative_yaw) of the
    partner, None when no partner is placed. Any other value (a bool is not
    a number here) is a ValueError naming the field. A scorer reads the
    read-only array form built here: `tables`, both category tables in one
    array, inf for None; `held`, the entries not None (an inf or NaN from a
    peer is held); `offset`, `interpersonal` as an array or None.
    """

    interpersonal: tuple[float, float, float] | None
    pose_accommodation: np.ndarray
    visual_attention: tuple[float | None, ...]
    spatial: tuple[float | None, ...]
    tables: np.ndarray = field(init=False, repr=False)
    held: np.ndarray = field(init=False, repr=False)
    offset: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        heights = np.array(self.pose_accommodation, dtype=float)
        if heights.shape != (ACCOMMODATION_CELLS,):
            raise ValueError(
                f"pose_accommodation needs {ACCOMMODATION_CELLS} heights, got shape {heights.shape}"
            )
        inter = self.interpersonal
        if inter is not None and not (type(inter) is tuple and len(inter) == 3 and all(map(_is_real, inter))):
            raise ValueError(f"interpersonal needs None or a tuple of 3 real numbers, got {inter!r}")
        for name in ("visual_attention", "spatial"):
            table = getattr(self, name)
            if (type(table) is not tuple or len(table) != _CATEGORY_COUNT
                    or not all(d is None or _is_real(d) for d in table)):
                raise ValueError(f"{name} needs a tuple of {_CATEGORY_COUNT} entries, each None or a real number, "
                                 f"got {table!r}")
        entries = self.visual_attention + self.spatial
        for name, array in (("pose_accommodation", heights),
                            ("tables", np.array([math.inf if d is None else d for d in entries], dtype=float)),
                            ("held", np.array([d is not None for d in entries])),
                            ("offset", None if inter is None else np.array(inter, dtype=float))):
            if array is not None:
                array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __eq__(self, other):
        if not isinstance(other, FeatureVector):
            return NotImplemented
        return (
            self.interpersonal == other.interpersonal
            and np.array_equal(self.pose_accommodation, other.pose_accommodation)
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
        require_fields(self)
        for name in ("sigma_offset", "sigma_facing", "sigma_height", "distance_falloff"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        w = tuple(float(v) for v in self.weights)
        if not all(v >= 0.0 for v in w):
            raise ValueError("weights must be non-negative")
        if not abs(sum(w) - 1.0) <= 1e-6:
            raise ValueError("weights must sum to 1 within 1e-6: identical features score the weights summed in order")
        object.__setattr__(self, "weights", w)


def scorer_config_from_json(document) -> ScorerConfig:
    """A ScorerConfig from itself, a dict, or JSON read by `scene.read_document`
    (inline if it starts with '{' or '[', else a file path), typed as a
    transcript header's ``scorer`` is. Fields left out keep their defaults;
    an unknown key raises ValueError."""
    if isinstance(document, ScorerConfig):
        return document
    if not isinstance(document, dict):
        try:
            document = json.loads(read_document(document, ValueError))
        except json.JSONDecodeError as e:
            raise ValueError(f"scorer config is not valid JSON: {e}") from None
    if not isinstance(document, dict):
        raise ValueError(f"scorer config must be a JSON object, got {type(document).__name__}")
    defaults = config_to_dict(ScorerConfig())
    unknown = [key for key in document if key not in defaults]
    if unknown:
        raise ValueError(f"unknown scorer config keys: {', '.join(map(repr, unknown))}")
    return config_from_dict(ScorerConfig, {**defaults, **document})


class SimilarityScorer(Protocol):
    """What the search needs of a scorer: ``score_batch`` and ``score_bound``,
    which it calls for every scorer. Both take a batch of n candidates in one
    layout: ``accommodation`` is an ``(n, ACCOMMODATION_CELLS)`` array of
    rows, ``attention`` and ``spatial`` are ``(categories, n)`` arrays of
    tables, inf where no object of a category is in range, and
    ``interpersonal`` is an ``(n, 3)`` array of partner offsets, None without
    a partner. The arrays may be read-only views, and so is the target
    ``FeatureVector``'s array form, which needs no conversion per call. Each
    method returns one float per candidate.

    ``score_batch`` scores candidates. The grid hands it each visited cell's
    candidates, whose row and spatial table are the cell's, and the swarm
    every feasible particle of an iteration, in one call each.

    ``score_bound`` is the grid's per-cell bound: one float per cell, each at
    least the float score of the cell's candidate at every yaw. The grid
    calls it once over all of a room's feasible cells and passes
    ``partner_distance``, the length of the partner's offset from each cell,
    or None without a partner. It skips the cells whose bound is below the
    best score found. A scorer that cannot bound returns
    ``np.full(len(accommodation), np.inf)``, and then every cell is scored.
    """

    def score_batch(self, target: FeatureVector, accommodation: np.ndarray, attention: np.ndarray,
                    spatial: np.ndarray, *, interpersonal: np.ndarray | None = None) -> np.ndarray:
        """One similarity in [0, 1] per candidate; identical features must
        score 1, up to rounding."""
        ...

    def score_bound(self, target: FeatureVector, accommodation: np.ndarray, spatial: np.ndarray, *,
                    partner_distance: np.ndarray | None = None) -> np.ndarray:
        """An upper bound on the scores of each candidate position."""
        ...


def _checked(values, n: int, method: str) -> np.ndarray:
    """What a scorer's ``method`` returned as a float array of n entries."""
    values = np.asarray(values, dtype=float)
    if values.shape != (n,):
        raise ValueError(f"{method} returned shape {values.shape} for {n} candidates")
    return values


def _height_term(ha: np.ndarray, hb: np.ndarray, sigma: float) -> float:
    """The height term: ``exp(-rms / sigma)`` of the RMS height difference,
    its squares summed by ``math.fsum``."""
    diff = ha - hb
    rms = math.sqrt(math.fsum((diff * diff).tolist()) / ACCOMMODATION_CELLS)
    return math.exp(-rms / sigma)


@dataclass(frozen=True)
class DefaultScorer:
    """Heuristic feature similarity in [0, 1].

    Four terms, each 1 for a perfect match and decaying exponentially with
    the feature distance, weighted by ``ScorerConfig.weights`` and summed in
    that order:

    * interpersonal: offset distance plus absolute wrapped facing delta.
      Both absent counts as a perfect match (neither end has a partner);
      exactly one absent scores 0.
    * accommodation: RMS height difference over the accommodation cells.
    * attention and spatial: per-category ``exp(-|d_a - d_b| / falloff)``
      averaged over the union of categories; a category present on only one
      side contributes 0. An empty union scores 1."""

    config: ScorerConfig = field(default_factory=ScorerConfig)

    def score(self, target: FeatureVector, candidate: FeatureVector) -> float:
        """``score_batch`` of a one-candidate batch, whose layout reads inf as
        an absent category: an inf or NaN candidate distance is refused."""
        bad = candidate.held & ~np.isfinite(candidate.tables)
        if bad.any():
            table = ("visual_attention", "spatial")[int(bad.argmax()) // _CATEGORY_COUNT]
            raise ValueError(f"the candidate's {table} table holds an inf or NaN distance")
        return self.score_batch(target, candidate.pose_accommodation[None], *candidate.tables.reshape(2, -1, 1),
                                interpersonal=None if candidate.offset is None else candidate.offset[None]).item()

    def score_batch(self, target: FeatureVector, accommodation: np.ndarray, attention: np.ndarray,
                    spatial: np.ndarray, *, interpersonal: np.ndarray | None = None) -> np.ndarray:
        """Each candidate's score, whatever else the batch holds: each term
        over the batch (``math.exp`` of each exponent, the height term from
        one memo lookup per row), summed in the order above. An infinite
        relative facing raises the ``ValueError`` that ``math.fmod`` raises
        there."""
        cfg = self.config
        w0, w1, w2, w3 = cfg.weights
        s_attention, s_spatial = _category_means(target, np.concatenate((attention, spatial)),
                                                 lambda gap, b: _exps(-gap / cfg.distance_falloff))
        return (
            w0 * _interpersonal_terms(target.offset, interpersonal, cfg)
            + w1 * _height_terms(target.pose_accommodation, accommodation, cfg.sigma_height)
            + w2 * s_attention
            + w3 * s_spatial
        )

    def score_bound(self, target: FeatureVector, accommodation: np.ndarray, spatial: np.ndarray, *,
                    partner_distance: np.ndarray | None = None) -> np.ndarray:
        """The grid's per-cell bound: the score's sum with attention at its
        maximum 1 and every other term at a bound that holds at every yaw, in
        the same order: each addend is at least the score's, so the rounded
        sum is too.

        The spatial term's distances are the candidates' own, so its union
        is the same, each category's term, lowered by a pad, is at least its
        exact one, and they are summed in the same order. The pad grows with
        the gap, so a target distance of inf, which a peer may send, bounds
        its term by the table's last entry (the term is 0), and NaN gives NaN
        only where the term is NaN."""
        cfg = self.config
        w0, w1, w2, w3 = cfg.weights
        return (
            w0 * _interpersonal_bound(target.offset, partner_distance, cfg)
            + w1 * _height_bound(target.pose_accommodation, accommodation, cfg.sigma_height)
            + w2 * 1.0
            + w3 * _category_means(target, spatial, lambda gap, b: _exp_upper(
                (gap * (1.0 - 1e-9) - 1e-9 * (1.0 + 2.0 * b)) / cfg.distance_falloff))[0]
        )


def default_similarity(a: FeatureVector, b: FeatureVector, cfg: ScorerConfig = ScorerConfig()) -> float:
    """``DefaultScorer(cfg).score(a, b)``; ``perfbench/tracing.py`` wraps it by name."""
    return DefaultScorer(cfg).score(a, b)


# exp(-x) at x = 0, 1/32, ..., 40, from math.exp. exp(-x) is convex, so the
# chords np.interp draws between these points lie above it
_EXP_XS = np.arange(1281) / 32.0
_EXP_TABLE = np.array([math.exp(-x) for x in _EXP_XS.tolist()])


def _exp_upper(x: np.ndarray) -> np.ndarray:
    """At least ``math.exp(-y)`` for every float y >= 0 that is at least x,
    elementwise: the table's chord at x less a pad far beyond the rounding of
    ``math.exp``, of the table and of the chord; 1 at or below 0, and the
    last entry past the table's end. A NaN stays NaN."""
    return np.interp(x * (1.0 - 1e-9) - 1e-9, _EXP_XS, _EXP_TABLE)


def _wrap_angles(a: np.ndarray) -> np.ndarray:
    """Each entry wrapped to (-pi, pi], in place: its ``fmod`` by 2 pi, plus
    2 pi where that is at most -pi, less 2 pi where it is above pi. An entry
    moved by one step lands where the other step's test is false, so the two
    run one after the other."""
    a = np.fmod(a, 2.0 * math.pi)
    np.add(a, 2.0 * math.pi, out=a, where=a <= -math.pi)
    return np.subtract(a, 2.0 * math.pi, out=a, where=a > math.pi)


def _wrap_angles_positive(a: np.ndarray) -> np.ndarray:
    """``geometry.wrap_angle_positive`` of each entry, with the same
    operations, in place."""
    a = np.fmod(a, 2.0 * math.pi)
    np.add(a, 2.0 * math.pi, out=a, where=a < 0.0)
    a[a >= 2.0 * math.pi] = 0.0
    return a


def _exps(x: np.ndarray) -> np.ndarray:
    """``math.exp`` of each entry, as ``score`` takes each exponential."""
    return np.fromiter(map(math.exp, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _interpersonal_terms(a: np.ndarray | None, b: np.ndarray | None, cfg: ScorerConfig):
    """The interpersonal term of target offset a against each row of b
    (None: no partner). An infinite facing delta raises the
    ``ValueError`` that ``math.fmod`` raises there."""
    if a is None or b is None:
        return 1.0 if a is b else 0.0
    dx, dz, dyaw = (a - b).T
    if np.isinf(dyaw).any():
        raise ValueError("math domain error")
    offset = np.sqrt(dx * dx + dz * dz)
    return _exps(-(offset / cfg.sigma_offset + np.abs(_wrap_angles(dyaw)) / cfg.sigma_facing))


def _interpersonal_bound(a: np.ndarray | None, partner_distance: np.ndarray | None, cfg: ScorerConfig):
    """At least the interpersonal term of target offset a at every yaw, for
    each candidate b given the length of its partner offset: | |a| - |b| | never
    exceeds |a - b| (the reverse triangle inequality), the facing term only
    lowers the term, and the gap is lowered far beyond the rounding of the
    rotated offset and the lengths (by a pad that |a| cannot exceed, so an
    infinite |a| gives an infinite gap, not NaN)."""
    if a is None or partner_distance is None:
        return 1.0 if a is None and partner_distance is None else 0.0
    gap = np.abs(math.sqrt(a[0] * a[0] + a[1] * a[1]) - partner_distance)
    return _exp_upper((gap * (1.0 - 1e-9) - 1e-9 * (1.0 + 2.0 * partner_distance)) / cfg.sigma_offset)


# Height terms already computed against one target row under one sigma, by
# the candidate row's bytes: the height term's only dedupe. A grid cell's yaws
# repeat its row, and a swarm's particles keep landing on the same few rows
# from one iteration to the next; the memo holds one target row and sigma and
# at most _KNOWN_HEIGHT_ROWS rows, plus the rest of the batch that fills it.
_KNOWN_HEIGHT_TERMS: dict[tuple[bytes, float], dict[bytes, float]] = {}
_KNOWN_HEIGHT_ROWS = 1024


def _known_height_terms(ha: np.ndarray, sigma: float) -> dict[bytes, float]:
    """The memo of height terms against ``ha`` under ``sigma``. It replaces
    any other target row's or sigma's, and starts empty again when full."""
    key = (ha.tobytes(), sigma)
    known = _KNOWN_HEIGHT_TERMS.get(key)
    if known is None or len(known) >= _KNOWN_HEIGHT_ROWS:
        _KNOWN_HEIGHT_TERMS.clear()
        known = _KNOWN_HEIGHT_TERMS[key] = {}
    return known


def _height_terms(ha: np.ndarray, rows: np.ndarray, sigma: float) -> np.ndarray:
    """``_height_term(ha, row, sigma)`` for each row, in batch order: a row
    whose bytes the memo knows takes its term from there, and any other row's
    term is computed and remembered. A batch never sums a row twice, as the
    memo only clears before one."""
    known = _known_height_terms(ha, sigma)
    terms = []
    for row in np.asarray(rows, dtype=float):
        key = row.tobytes()
        term = known.get(key)
        if term is None:
            term = known[key] = _height_term(ha, row, sigma)
        terms.append(term)
    return np.array(terms)


def _height_bound(ha: np.ndarray, rows: np.ndarray, sigma: float) -> np.ndarray:
    """At least ``_height_term(ha, row, sigma)`` for each row: the squares'
    numpy sum differs from ``math.fsum``'s only by rounding, far below the
    pad."""
    diff = rows - ha
    rms = np.sqrt((diff * diff).sum(axis=1) / ACCOMMODATION_CELLS)
    return _exp_upper(rms * (1.0 - 1e-9) / sigma)


def _category_means(target: FeatureVector, nearest: np.ndarray, term) -> np.ndarray:
    """The category terms' means of the target's last k tables (attention
    and spatial, or spatial) against the candidates' ``(k * categories,
    batch)`` tables, stacked the same way. ``term(gap, b)`` gives each
    category present on both sides its term from the gap ``|a - b|`` and the
    candidate's distance b; a category on one side only adds 0. The terms
    are added in category order, and an empty union gives 1."""
    a, held = target.tables[-len(nearest):], target.held[-len(nearest):]
    there = nearest < math.inf
    both = held[:, None] & there
    b = nearest[both]
    terms = np.zeros(nearest.shape)
    terms[both] = term(np.abs(np.broadcast_to(a[:, None], nearest.shape)[both] - b), b)
    shape = (len(a) // _CATEGORY_COUNT, _CATEGORY_COUNT, nearest.shape[1])
    total = np.add.accumulate(terms.reshape(shape), axis=1)[:, -1]
    union = (held[:, None] | there).reshape(shape).sum(axis=1)
    return np.where(union == 0, 1.0, total / np.maximum(union, 1))


# --- feature extraction -----------------------------------------------------

def _relative_facing(partner: PartnerPose | None, yaws: np.ndarray) -> np.ndarray | None:
    """The partner's facing relative to each yaw, wrapped, or None without a
    partner."""
    return None if partner is None else _wrap_angles(partner.yaw - yaws)


def _interpersonal_at(partner: PartnerPose | None, xs, zs, sins: np.ndarray, coss: np.ndarray,
                      facing: np.ndarray | None) -> np.ndarray | None:
    """The partner's (local_x, local_z, relative_yaw) from each placement
    (xs[i], zs[i]) with the given yaw sines and cosines and
    ``_relative_facing``, one row each, or None without a partner. Positions
    may be one float for all."""
    if partner is None:
        return None
    dx = partner.x - xs
    dz = partner.z - zs
    return np.array((dx * coss - dz * sins, dx * sins + dz * coss, facing)).T


def _least_per_category(arrays: RoomArrays, dist: np.ndarray) -> np.ndarray:
    """The least of an (objects, batch) array of distances per category run
    of ``arrays``, as a (categories, batch) array, inf where a category has
    no object or none at a finite distance."""
    nearest = np.full((_CATEGORY_COUNT, dist.shape[1]), math.inf)
    if len(arrays.starts) < arrays.count:  # some category has several objects
        dist = np.minimum.reduceat(dist, arrays.starts, axis=0)
    nearest[arrays.run_codes] = dist
    return nearest


def _attention_at(arrays: RoomArrays, xs: np.ndarray, zs: np.ndarray, fxs: np.ndarray, fzs: np.ndarray,
                  eye_height: float) -> np.ndarray:
    """Visual attention tables of a batch of eyes at ``eye_height`` above
    (xs, zs), looking level along (fxs, 0, fzs) = (sin yaw, 0, cos yaw), as a
    (categories, batch) array, inf where no object of a category is in the
    cone. The four arrays or floats broadcast against each other.

    One broadcast against every object of ``arrays`` computes
    ``scene.objects_in_fov``'s distances and cone test; a category's entry
    is the least distance among its objects in the cone, which is its first
    hit in ``objects_in_fov``'s (distance, id) order.
    """
    vx = arrays.px - xs  # objects along the first axis, the batch along the last
    vy = arrays.py - eye_height
    vz = arrays.pz - zs
    dist = np.sqrt(vx * vx + vy * vy + vz * vz)
    # an object coincident with the eye is inside any cone. The gaze is level,
    # so the dot product has no y term: vy * 0 only adds a signed zero, and
    # no comparison tells -0.0 from 0.0
    inside = (dist < _EPS) | (vx * fxs + vz * fzs >= _COS_HALF_ATTENTION * dist)
    return _least_per_category(arrays, np.where(inside, dist, math.inf))


def _spatial_at(arrays: RoomArrays, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Spatial tables of a batch of positions (xs[i], zs[i]) as a
    (categories, batch) array: per category, the nearest horizontal center
    distance within SPATIAL_RADIUS, inf where there is none, each distance
    ``sqrt(dx * dx + dz * dz)`` of the center offset, as
    ``scene.objects_in_radius`` computes it."""
    dx = arrays.px - xs
    dz = arrays.pz - zs
    dist = np.sqrt(dx * dx + dz * dz)
    return _least_per_category(arrays, np.where(dist <= SPATIAL_RADIUS, dist, math.inf))


def _eye_height(pose: PlacementPose) -> float:
    return EYE_HEIGHT_STANDING if pose is PlacementPose.Standing else EYE_HEIGHT_SITTING


def _accommodation_at(arrays: RoomArrays, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """One accommodation row per position (xs[i], zs[i]), in one broadcast."""
    return arrays.support_heights(xs[:, None] + _ACCOMMODATION_OX, zs[:, None] + _ACCOMMODATION_OZ)


def _turns(yaws: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """``math.sin`` and ``math.cos`` of each yaw."""
    return np.fromiter(map(math.sin, yaws), float, len(yaws)), np.fromiter(map(math.cos, yaws), float, len(yaws))


def extract_features(
    room: Room,
    placement: Placement,
    partner: PartnerPose | None = None,
) -> FeatureVector:
    """Describe the context of a placement in its room.

    The eye used for the attention cone sits at the placement position at
    1.6 m (standing) or 1.2 m (sitting) and looks level along the facing.
    """
    p = placement
    arrays = room.arrays
    cx, cz, yaw = np.array([p.x]), np.array([p.z]), np.array([p.yaw])
    sins, coss = _turns([p.yaw])
    offsets = _interpersonal_at(partner, cx, cz, sins, coss, _relative_facing(partner, yaw))
    tables = (_attention_at(arrays, cx, cz, sins, coss, _eye_height(p.pose)), _spatial_at(arrays, cx, cz))
    return FeatureVector(None if offsets is None else tuple(offsets[0].tolist()), _accommodation_at(arrays, cx, cz)[0],
                         *(tuple(None if d == math.inf else d for d in t[:, 0].tolist()) for t in tables))


# --- feasibility ------------------------------------------------------------

def _foot_cells() -> tuple[tuple[float, float], ...]:
    cells = []
    for i in range(5):
        for j in range(5):
            ox = (i - 2) * 0.1
            oz = (j - 2) * 0.1
            if math.sqrt(ox * ox + oz * oz) <= BODY_RADIUS + _EPS:
                cells.append((ox, oz))
    return tuple(cells)


_FOOT_CELLS = _foot_cells()
# the foot cells are accommodation cells, offset for offset bit for bit, so a
# point's accommodation row holds its footprint's support heights too
_FOOT_COLUMNS = np.array([
    list(zip(_ACCOMMODATION_OX.tolist(), _ACCOMMODATION_OZ.tolist())).index(cell) for cell in _FOOT_CELLS
])


def _standing_clear(rows: np.ndarray) -> np.ndarray:
    """Per accommodation row, whether every sample cell of the body footprint
    (the row's foot columns) is near floor level: support at most
    STAND_CLEARANCE."""
    return ~(rows[:, _FOOT_COLUMNS] > STAND_CLEARANCE + _EPS).any(axis=1)


def _seated(room: Room, xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """Per position (xs[i], zs[i]), whether some sittable object's seat
    covers the whole body disc."""
    covered = np.zeros(len(xs), dtype=bool)
    for o in room.objects:
        if not o.sittable:
            continue
        px, _, pz = o.position
        hx, _, hz = o.half_size
        dx = xs - px
        dz = zs - pz
        lx = dx * o.cos_yaw - dz * o.sin_yaw
        lz = dx * o.sin_yaw + dz * o.cos_yaw
        covered |= (np.abs(lx) <= hx - BODY_RADIUS + _EPS) & (np.abs(lz) <= hz - BODY_RADIUS + _EPS)
    return covered


def _feasible_rows(room: Room, arrays: RoomArrays, xs, zs, pose: PlacementPose) -> tuple[np.ndarray, np.ndarray]:
    """The positions (xs[i], zs[i]) that admit ``pose``, by index, and their
    accommodation rows, sampled from ``arrays`` (the room's objects, or those
    whose footprint reaches the positions' cells). Standing, one broadcast
    over every position gives the rows, and feasibility is read off their
    foot columns; sitting, the seats are tested first and only the feasible
    positions' rows are broadcast."""
    cx, cz = np.asarray(xs, dtype=float), np.asarray(zs, dtype=float)
    inside = room.extents.contains_all(cx, cz)
    if pose is PlacementPose.Standing:
        rows = _accommodation_at(arrays, cx, cz)
        keep = np.flatnonzero(_standing_clear(rows) & inside)
        return keep, rows if len(keep) == len(rows) else rows[keep]
    keep = np.flatnonzero(_seated(room, cx, cz) & inside)
    return keep, _accommodation_at(arrays, cx[keep], cz[keep])


def feasible(room: Room, placement: Placement) -> bool:
    """Whether an avatar can actually hold this placement in this room."""
    return len(_feasible_rows(room, room.arrays, [placement.x], [placement.z], placement.pose)[0]) == 1


# --- grid search ------------------------------------------------------------

@dataclass(frozen=True)
class GridConfig:
    cell: float = GRID_CELL
    yaw_count: int = GRID_YAW_COUNT

    def __post_init__(self):
        require_fields(self)
        if not self.cell > 0.0:
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


@dataclass(frozen=True, eq=False)
class GridTables:
    """The room-only phase of a grid search: every grid cell that admits a
    pose, in scan order, with its pose, its accommodation row (a row of
    ``rows``, one ``(cells, ACCOMMODATION_CELLS)`` array) and its spatial
    table (a column of ``nearest``, one ``(categories, cells)`` array).
    Nothing here depends on the target, the partner or the scorer, so every
    search of one room under one config shares them, and both arrays are
    read-only."""

    yaws: tuple[float, ...]
    candidates_per_pose: int    # grid size, including infeasible cells
    xs: tuple[float, ...]
    zs: tuple[float, ...]
    poses: tuple[PlacementPose, ...]
    rows: np.ndarray
    nearest: np.ndarray


_GRID_TABLES: dict[tuple[int, GridConfig], GridTables] = {}


def grid_tables(room: Room, config: GridConfig = GridConfig()) -> GridTables:
    """The grid's feasible cells and their room-only features, built on a
    ``Room`` object's first search under ``config`` and returned to its later
    ones. They are kept by the object's identity, without a reference to it,
    so an equal room builds its own and they are dropped with the room."""
    key = (id(room), config)
    tables = _GRID_TABLES.get(key)
    if tables is None:
        tables = _GRID_TABLES[key] = _build_grid_tables(room, config)
        weakref.finalize(room, _GRID_TABLES.pop, key)
    return tables


def _build_grid_tables(room: Room, config: GridConfig) -> GridTables:
    """The tables ``grid_tables`` keeps. One grid column (one x) at a time,
    ``_feasible_rows`` gives the cells that admit each pose and their
    accommodation rows; no cell admits both poses, so sorting the cells by
    grid index puts them in scan order. The feasible cells' spatial tables
    come from one more broadcast over all of them."""
    arrays = room.arrays
    xs, zs, yaws = grid_axes(room.extents, config.cell, config.yaw_count)
    column_zs = np.array(zs)
    cells, rows = [], []
    for j, x in enumerate(xs):
        column_xs = np.full(len(zs), x)
        for pose in PlacementPose:
            keep, pose_rows = _feasible_rows(room, arrays, column_xs, column_zs, pose)
            cells += [(j, i, pose) for i in keep.tolist()]
            rows.append(pose_rows)
    order = sorted(range(len(cells)), key=lambda k: cells[k][:2])
    cells = [cells[k] for k in order]
    cell_xs = [xs[j] for j, _, _ in cells]
    cell_zs = [zs[i] for _, i, _ in cells]
    nearest = _spatial_at(arrays, np.array(cell_xs, dtype=float), np.array(cell_zs, dtype=float))
    rows = np.concatenate(rows)[order] if rows else np.empty((0, ACCOMMODATION_CELLS))
    rows.flags.writeable = nearest.flags.writeable = False
    return GridTables(
        yaws=tuple(yaws),
        candidates_per_pose=len(xs) * len(zs) * len(yaws),
        xs=tuple(cell_xs),
        zs=tuple(cell_zs),
        poses=tuple(pose for _, _, pose in cells),
        rows=rows,
        nearest=nearest,
    )


@dataclass(frozen=True)
class GridResult:
    placement: Placement
    score: float
    candidates_per_pose: int    # grid size, including infeasible cells
    evaluated: int              # candidates that passed feasibility, scored or not
    # candidates actually scored; a diagnostic, left out of comparisons
    scored: int = field(compare=False)


def grid_search(
    room: Room,
    target: FeatureVector,
    scorer: SimilarityScorer = DefaultScorer(),
    partner: PartnerPose | None = None,
    *,
    config: GridConfig = GridConfig(),
) -> GridResult:
    """The best candidate of the placement grid, as an exhaustive scan finds it.

    Candidates are every (cell center, yaw, pose) triple; infeasible ones
    are skipped, and a cell admits at most one pose. Ties resolve to the
    lowest (x, z, yaw) grid index: the first best in scan order wins.

    The room-only phase is ``grid_tables(room, config)``: the feasible
    cells, each with its one pose, accommodation row and spatial table,
    built once per ``Room`` object and ``GridConfig`` and dropped with the
    room, so a later search of the room skips it with the same result.

    One ``score_bound`` call gives every feasible cell a bound on its
    candidates. Cells are visited by descending bound, scan order among
    equal bounds: a cell's candidates are its yaws, all holding the cell's
    row and spatial table, with their attention tables from one broadcast
    and their partner offsets from another, and they are scored as one
    batch. The visit stops at the first bound strictly below the best
    score, since no candidate left can beat or tie it. Infinite bounds have
    every cell visited in scan order.
    """
    tables = grid_tables(room, config)
    cells = len(tables.xs)
    distance = None
    if partner is not None:
        dx = partner.x - np.array(tables.xs, dtype=float)
        dz = partner.z - np.array(tables.zs, dtype=float)
        distance = np.sqrt(dx * dx + dz * dz)
    bounds = _checked(scorer.score_bound(target, tables.rows, tables.nearest, partner_distance=distance), cells,
                      "score_bound")

    yaws = np.array(tables.yaws)
    n = len(yaws)
    sins, coss = _turns(tables.yaws)
    facing = _relative_facing(partner, yaws)
    best_score = -math.inf
    best_cell = -1
    best_placement = None
    scored = 0
    # a stable sort keeps scan order among equal bounds and puts NaN last
    for k in np.argsort(-bounds, kind="stable").tolist():
        if bounds[k] < best_score:
            break
        x, z, pose = tables.xs[k], tables.zs[k], tables.poses[k]
        attention = _attention_at(room.arrays, x, z, sins, coss, _eye_height(pose))
        # the cell's row and spatial table, shared by its yaws as read-only
        # views; the height term's memo sums the row once
        rows = np.broadcast_to(tables.rows[k], (n, ACCOMMODATION_CELLS))
        nearest = np.broadcast_to(tables.nearest[:, k:k + 1], (_CATEGORY_COUNT, n))
        scores = _checked(scorer.score_batch(target, rows, attention, nearest,
                                             interpersonal=_interpersonal_at(partner, x, z, sins, coss, facing)),
                          n, "score_batch")
        scored += n
        for score, yaw in zip(scores.tolist(), tables.yaws):
            # within a cell the first best wins; across cells the lower scan index
            if score > best_score or (score == best_score and k < best_cell):
                best_score = score
                best_cell = k
                best_placement = Placement(x, z, yaw, pose)

    if best_placement is None:
        total = tables.candidates_per_pose * 2
        if not cells:
            raise NoFeasiblePlacement(f"room {room.id!r}: none of the {total} grid candidates is feasible")
        raise NoFeasiblePlacement(
            f"room {room.id!r}: {n * cells} of the {total} grid candidates are feasible, "
            f"but none of them scored a number"
        )
    return GridResult(placement=best_placement, score=best_score, candidates_per_pose=tables.candidates_per_pose,
                      evaluated=n * cells, scored=scored)


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
        require_fields(self)
        if self.particles < 1:
            raise ValueError("particles must be at least 1")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if not (0.0 <= self.inertia <= 1.0):
            raise ValueError("inertia must be within [0, 1]")
        if not (self.cognitive >= 0.0 and self.social >= 0.0):
            raise ValueError("acceleration coefficients must be non-negative")
        if not (self.position_radius > 0.0 and self.yaw_radius > 0.0):
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
    scorer: SimilarityScorer = DefaultScorer(),
    partner: PartnerPose | None = None,
    config: PsoConfig = PsoConfig(),
    rng: np.random.Generator | int = 0,
) -> PsoResult:
    """Polish a placement inside its grid cell's neighborhood.

    Global-best particle swarm over (x, z, yaw) with the pose held fixed.
    Particle 0 starts exactly at the seed, so the result never scores below
    it; infeasible points score -inf and are never adopted. Zero iterations
    returns the seed unchanged.

    Each iteration is one pass: ``_feasible_rows`` gives the feasible
    particles and their accommodation rows (standing, from one broadcast
    over every particle), one broadcast each their attention and spatial
    tables, and one ``score_batch`` call scores all of them, where the
    default scorer looks each row's height term up in its memo, which keeps
    the rows of earlier iterations. The swarm never calls ``score_bound``.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.Generator(np.random.PCG64(rng))

    pose = seed.pose
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
    # every point evaluated is the seed or clipped into [lo, hi]; the
    # accommodation cells, and the foot cells inside them, lie within
    # ACCOMMODATION_RADIUS of it
    span_x = (seed.x, lo[0], hi[0])
    span_z = (seed.z, lo[1], hi[1])
    r = ACCOMMODATION_RADIUS
    arrays = room.arrays.reaching(min(span_x) - r, min(span_z) - r, max(span_x) + r, max(span_z) + r)

    def evaluate(points: np.ndarray) -> np.ndarray:
        """Scores of a batch of (x, z, yaw) rows, the feasible ones scored as
        one batch; infeasible points score -inf."""
        keep, rows = _feasible_rows(room, arrays, points[:, 0], points[:, 1], pose)
        scores = np.full(len(points), -math.inf)
        if not len(keep):
            return scores
        kxs, kzs, kyaws = points[keep].T
        # features at the wrapped yaw, as ``Placement`` holds it
        kyaws = _wrap_angles_positive(kyaws)
        sins, coss = _turns(kyaws.tolist())
        scores[keep] = _checked(scorer.score_batch(
            target, rows, _attention_at(room.arrays, kxs, kzs, sins, coss, _eye_height(pose)),
            _spatial_at(room.arrays, kxs, kzs),
            interpersonal=_interpersonal_at(partner, kxs, kzs, sins, coss, _relative_facing(partner, kyaws))),
            len(keep), "score_batch")
        return scores

    def finish(point: np.ndarray, evaluated: int) -> PsoResult:
        score = float(evaluate(point[None, :])[0])
        placement = Placement(point[0], point[1], point[2], pose)
        return PsoResult(placement=placement, score=score, evaluated=evaluated + 1)

    if config.iterations == 0:
        return finish(np.array([seed.x, seed.z, seed.yaw]), 0)

    n = config.particles
    pos = np.empty((n, 3))
    pos[0] = (seed.x, seed.z, seed.yaw)
    if n > 1:
        pos[1:] = rng.uniform(lo, hi, (n - 1, 3))
    vel = np.zeros((n, 3))

    scores = evaluate(pos)
    evaluated = n
    pbest = scores.copy()
    pbest_pos = pos.copy()
    g = int(np.argmax(pbest))
    gbest = float(pbest[g])
    gbest_pos = pbest_pos[g].copy()

    for _ in range(config.iterations):
        # r1 then r2, as two draws of (n, 3) give them
        r1, r2 = rng.uniform(size=(2, n, 3))
        # vel = inertia * vel + cognitive * r1 * (pbest_pos - pos)
        #       + social * r2 * (gbest_pos - pos), in that order, in place
        vel *= config.inertia
        r1 *= config.cognitive
        r1 *= pbest_pos - pos
        vel += r1
        r2 *= config.social
        r2 *= gbest_pos - pos
        vel += r2
        pos += vel
        np.clip(pos, lo, hi, out=pos)
        scores = evaluate(pos)
        evaluated += n
        improved = scores > pbest
        np.copyto(pbest, scores, where=improved)
        np.copyto(pbest_pos, pos, where=improved[:, None])
        g = int(np.argmax(pbest))
        if float(pbest[g]) > gbest:
            gbest = float(pbest[g])
            gbest_pos = pbest_pos[g].copy()

    return finish(gbest_pos, evaluated)


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


def find_placement(
    room: Room,
    target: FeatureVector,
    scorer: SimilarityScorer = DefaultScorer(),
    partner: PartnerPose | None = None,
    *,
    grid_config: GridConfig = GridConfig(),
    pso_config: PsoConfig = PsoConfig(),
    rng: np.random.Generator | int = 0,
) -> PlacementResult:
    """Grid search followed by swarm refinement; the full placement query.
    The grid's room-only phase runs on the room's first search under
    ``grid_config`` only (``grid_search``), so a caller searching one room
    again pays for it once."""
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
