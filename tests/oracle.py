"""The default similarity rule one pair at a time: the tests' reference for
``DefaultScorer``, which scores every candidate, one or many, through
``score_batch``. Each term is computed on its own, from the FeatureVectors'
tuples and heights, with ``math`` on Python floats; the tests compare the engine's
scores with it ``float.hex`` for ``float.hex``. ``wrap_angle`` is the scalar
facing wrap that the engine's ``_wrap_angles`` applies to each entry."""

from __future__ import annotations

import math

from twinroom.placement import ACCOMMODATION_CELLS, FeatureVector, ScorerConfig


def reference_similarity(a: FeatureVector, b: FeatureVector, cfg: ScorerConfig = ScorerConfig()) -> float:
    """Heuristic feature similarity in [0, 1].

    Four terms, each 1 for a perfect match and decaying exponentially with
    the feature distance:

    * interpersonal: offset distance plus absolute wrapped facing delta.
      Both absent counts as a perfect match (neither end has a partner);
      exactly one absent scores 0.
    * accommodation: RMS height difference over the accommodation cells.
    * attention and spatial: per-category ``exp(-|d_a - d_b| / falloff)``
      averaged over the union of categories; a category present on only one
      side contributes 0. An empty union scores 1.
    """
    w = cfg.weights
    return (
        w[0] * _interpersonal_term(a.interpersonal, b.interpersonal, cfg)
        + w[1] * _height_term(a.pose_accommodation, b.pose_accommodation, cfg.sigma_height)
        + w[2] * _category_term(a.visual_attention, b.visual_attention, cfg.distance_falloff)
        + w[3] * _category_term(a.spatial, b.spatial, cfg.distance_falloff)
    )


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    a = math.fmod(a, 2.0 * math.pi)
    if a <= -math.pi:
        a += 2.0 * math.pi
    elif a > math.pi:
        a -= 2.0 * math.pi
    return a


def _interpersonal_term(a, b, cfg: ScorerConfig) -> float:
    if a is None or b is None:
        return 1.0 if a is b else 0.0
    dx = a[0] - b[0]
    dz = a[1] - b[1]
    dfacing = abs(wrap_angle(a[2] - b[2]))
    return math.exp(-(math.sqrt(dx * dx + dz * dz) / cfg.sigma_offset + dfacing / cfg.sigma_facing))


def _height_term(ha, hb, sigma: float) -> float:
    squares = [(a - b) * (a - b) for a, b in zip(ha.tolist(), hb.tolist())]
    rms = math.sqrt(math.fsum(squares) / ACCOMMODATION_CELLS)
    return math.exp(-rms / sigma)


def _category_term(ta: tuple, tb: tuple, falloff: float) -> float:
    total = 0.0
    union = 0
    for a, b in zip(ta, tb):
        if a is None:
            if b is not None:
                union += 1
        elif b is None:
            union += 1
        else:
            union += 1
            total += math.exp(-abs(a - b) / falloff)
    if union == 0:
        return 1.0
    return total / union
