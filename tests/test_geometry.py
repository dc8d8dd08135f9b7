from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinroom.geometry import (
    FORWARD,
    UP,
    Transform,
    cross,
    dot,
    look_rotation,
    norm,
    normalized,
    point_to_line_distance,
    quat_between,
    quat_conj,
    quat_from_axis_angle,
    quat_from_yaw,
    quat_mul,
    quat_normalize,
    quat_rotate,
    slerp_vec,
    vec3,
    wrap_angle_positive,
    yaw_of,
)

from oracle import wrap_angle

angles = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def is_unit(q) -> bool:
    return abs(norm(q) - 1.0) <= 1e-6


def angle(a, b) -> float:
    return math.acos(max(-1.0, min(1.0, dot(normalized(a), normalized(b)))))


@given(angles)
def test_wrap_angle_range_and_equivalence(a):
    w = wrap_angle(a)
    assert -math.pi < w <= math.pi
    # same angle modulo a full turn
    assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)
    assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)


@given(angles)
def test_wrap_angle_positive_is_idempotent(a):
    w = wrap_angle_positive(a)
    assert 0.0 <= w < 2.0 * math.pi
    assert wrap_angle_positive(w) == w


@given(angles)
def test_yaw_quaternion_round_trip(a):
    q = quat_from_yaw(a)
    assert is_unit(q)
    assert math.isclose(yaw_of(q), wrap_angle(a), abs_tol=1e-9) or math.isclose(
        abs(yaw_of(q)) + abs(wrap_angle(a)), 2 * math.pi, abs_tol=1e-9
    )


def test_yaw_zero_faces_forward():
    np.testing.assert_allclose(quat_rotate(quat_from_yaw(0.0), FORWARD), FORWARD, atol=1e-12)
    # positive yaw turns toward +x
    f = quat_rotate(quat_from_yaw(math.pi / 2), FORWARD)
    np.testing.assert_allclose(f, [1.0, 0.0, 0.0], atol=1e-12)


@given(st.tuples(coords, coords, coords), angles, angles)
def test_rotation_preserves_length(v, yaw, pitch):
    q = quat_mul(quat_from_yaw(yaw), quat_from_axis_angle(np.array([1.0, 0.0, 0.0]), pitch))
    r = quat_rotate(q, vec3(*v))
    assert math.isclose(norm(r), norm(vec3(*v)), rel_tol=1e-12, abs_tol=1e-12)


@given(st.tuples(coords, coords, coords), st.tuples(coords, coords, coords))
def test_quat_between_aligns(u, v):
    a, b = vec3(*u), vec3(*v)
    if norm(a) < 1e-6 or norm(b) < 1e-6:
        return
    q = quat_between(a, b)
    got = quat_rotate(q, normalized(a))
    # nearly parallel inputs snap to the identity, so the error can reach the
    # snap threshold angle (~1.4e-6 rad) but never exceed it
    np.testing.assert_allclose(got, normalized(b), atol=2e-6)


def test_look_rotation_is_orthonormal_and_aims():
    fwd = normalized(vec3(0.3, -0.4, 0.86))
    q = look_rotation(fwd, UP)
    assert is_unit(q)
    np.testing.assert_allclose(quat_rotate(q, FORWARD), fwd, atol=1e-12)
    # the rotated up stays in the plane spanned by world up and forward
    up = quat_rotate(q, UP)
    assert up[1] > 0.0
    assert abs(dot(up, fwd)) < 1e-9


def test_look_rotation_degenerate_forward_near_up():
    q = look_rotation(vec3(0.0, 1.0, 0.0), UP)
    assert is_unit(q)
    np.testing.assert_allclose(quat_rotate(q, FORWARD), [0.0, 1.0, 0.0], atol=1e-9)


@given(angles, angles)
def test_quat_mul_composes(y1, y2):
    q = quat_mul(quat_from_yaw(y1), quat_from_yaw(y2))
    np.testing.assert_allclose(q, quat_normalize(quat_from_yaw(y1 + y2)), atol=1e-9)


def test_quat_conj_inverts_rotation():
    q = quat_mul(quat_from_yaw(0.7), quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), -0.3))
    v = vec3(1.0, 2.0, 3.0)
    np.testing.assert_allclose(quat_rotate(quat_conj(q), quat_rotate(q, v)), v, atol=1e-12)


def test_slerp_vec_endpoints_and_midpoint():
    a = vec3(1.0, 0.0, 0.0)
    b = vec3(0.0, 0.0, 1.0)
    np.testing.assert_allclose(slerp_vec(a, b, 0.0), a, atol=1e-12)
    np.testing.assert_allclose(slerp_vec(a, b, 1.0), b, atol=1e-12)
    mid = slerp_vec(a, b, 0.5)
    np.testing.assert_allclose(mid, normalized(vec3(1.0, 0.0, 1.0)), atol=1e-12)
    # constant angular speed
    assert math.isclose(angle(a, mid), angle(mid, b), abs_tol=1e-12)


class TestTransform:
    def test_apply_then_inverse(self):
        t = Transform(position=vec3(1.0, 2.0, 3.0), orientation=quat_from_yaw(1.1))
        p = vec3(-0.4, 0.9, 2.2)
        np.testing.assert_allclose(t.inverse_apply(t.apply(p)), p, atol=1e-12)

    def test_compose_matches_sequential_apply(self):
        a = Transform(position=vec3(1.0, 0.0, -1.0), orientation=quat_from_yaw(0.6))
        b = Transform(position=vec3(0.0, 2.0, 0.5), orientation=quat_from_yaw(-1.9))
        p = vec3(0.3, 0.1, -0.7)
        np.testing.assert_allclose(a.compose(b).apply(p), a.apply(b.apply(p)), atol=1e-12)

    def test_forward_matches_rotated_axis(self):
        t = Transform(position=vec3(0, 0, 0), orientation=quat_from_yaw(2.0))
        np.testing.assert_allclose(t.forward(), quat_rotate(t.orientation, FORWARD), atol=1e-15)


def test_point_to_line_distance_closed_form():
    origin = vec3(0.0, 0.0, 0.0)
    direction = vec3(1.0, 0.0, 0.0)
    assert math.isclose(point_to_line_distance(vec3(5.0, 3.0, 4.0), origin, direction), 5.0)
    assert point_to_line_distance(vec3(7.0, 0.0, 0.0), origin, direction) == 0.0


@given(st.tuples(coords, coords, coords), st.tuples(coords, coords, coords), angles)
@settings(max_examples=60)
def test_point_to_line_distance_invariant_under_sliding(p, o, s):
    direction = normalized(vec3(0.2, 0.5, -0.8))
    d1 = point_to_line_distance(vec3(*p), vec3(*o), direction)
    d2 = point_to_line_distance(vec3(*p), np.asarray(vec3(*o)) + s * np.asarray(direction), direction)
    assert math.isclose(d1, d2, rel_tol=1e-7, abs_tol=1e-7)


def test_quat_normalize_rejects_zero():
    with pytest.raises(ValueError):
        quat_normalize(np.zeros(4))


# --- bit-exact plain-float kernels --------------------------------------------
# The kernels compute on plain floats in a fixed order. Elementwise kernels
# keep numpy's bits (these numpy formulations are what they replaced);
# reductions are summed left to right, never by BLAS, so a replayed
# transcript rebuilds a byte-identical report on any CPU.


def ref_quat_rotate(q, v):
    qv = np.array([float(q[1]), float(q[2]), float(q[3])])
    w = float(q[0])
    v = np.asarray(v, dtype=float)
    t = 2.0 * np.cross(qv, v)
    return v + w * t + np.cross(qv, t)


def ref_quat_mul(a, b):
    aw, ax, ay, az = (float(c) for c in a)
    bw, bx, by, bz = (float(c) for c in b)
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def ref_quat_conj(q):
    return np.array([float(q[0]), -float(q[1]), -float(q[2]), -float(q[3])])


def same_bits(got, want) -> bool:
    """Equal dtype, shape and bytes: stricter than np.array_equal, it also
    tells -0.0 from 0.0 and compares NaNs (from overflow) bit for bit."""
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


# unit-range, tiny, huge and arbitrary finite components; products of the
# large ones overflow to inf and then NaN, which must match too
component = st.one_of(
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.floats(min_value=1e150, max_value=1e300),
    st.floats(allow_nan=False, allow_infinity=False),
)
vec3s = st.tuples(component, component, component)
quats = st.tuples(component, component, component, component)


overflow_ok = pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the numpy references warn


@overflow_ok
@given(quats, vec3s)
@settings(max_examples=300)
def test_quat_rotate_matches_numpy_bit_for_bit(q, v):
    assert same_bits(quat_rotate(np.array(q), np.array(v)), ref_quat_rotate(np.array(q), np.array(v)))
    assert same_bits(quat_rotate(q, v), ref_quat_rotate(q, v))  # tuples in, same bits out


@overflow_ok
@given(quats, quats)
@settings(max_examples=300)
def test_quat_mul_matches_numpy_bit_for_bit(a, b):
    assert same_bits(quat_mul(np.array(a), np.array(b)), ref_quat_mul(a, b))


@overflow_ok
@given(vec3s, vec3s)
@settings(max_examples=300)
def test_cross_matches_numpy_bit_for_bit(a, b):
    assert same_bits(cross(np.array(a), np.array(b)), np.cross(np.array(a), np.array(b)))


@overflow_ok
@given(vec3s, quats)
@settings(max_examples=300)
def test_norm_and_dot_sum_left_to_right(v, q):
    x, y, z = v
    assert same_bits(norm(v), math.sqrt((x * x + y * y) + z * z))
    w, a, b, c = q
    assert same_bits(norm(q), math.sqrt(((w * w + a * a) + b * b) + c * c))
    assert same_bits(dot(v, q[1:]), (x * a + y * b) + z * c)
    assert same_bits(dot(q, q), ((w * w + a * a) + b * b) + c * c)
    # the same bits from numpy arrays and lists: no BLAS reduction anywhere
    assert same_bits(norm(np.array(v)), norm(v)) and same_bits(norm(list(q)), norm(q))


@overflow_ok
@given(quats, vec3s, vec3s)
@settings(max_examples=300)
def test_transform_matches_numpy_bit_for_bit(q, p, x):
    t = Transform(position=np.array(p), orientation=np.array(q))
    assert same_bits(quat_conj(t.orientation), ref_quat_conj(t.orientation))
    assert same_bits(t.apply(np.array(x)), t.position + ref_quat_rotate(t.orientation, x))
    assert same_bits(
        t.inverse_apply(np.array(x)),
        ref_quat_rotate(ref_quat_conj(t.orientation), np.array(x) - t.position),
    )


def test_kernels_return_float_tuples_for_lists_and_arrays():
    q, v = (0.5, 0.25, -0.75, 1.5), (5.0, -6.0, 7.0)
    for q_in, v_in in ((list(q), list(v)), (np.array(q), np.array(v))):
        assert same_bits(quat_rotate(q_in, v_in), quat_rotate(q, v))
        assert same_bits(quat_mul(q_in, q_in), quat_mul(q, q))
        assert same_bits(cross(v_in, v_in[::-1]), cross(v, v[::-1]))
    for out in (quat_rotate(q, v), quat_mul(q, q), cross(v, UP), normalized(v), quat_normalize(q),
                Transform(np.array(v), list(q)).apply(v)):
        assert type(out) is tuple and all(type(c) is float for c in out)


@overflow_ok
@given(quats, vec3s, st.lists(vec3s, max_size=12))
@settings(max_examples=150, derandomize=True)
def test_apply_all_is_apply_of_each_point(q, p, points):
    t = Transform(position=p, orientation=q)
    got = t.apply_all(points)
    assert len(got) == len(points)
    for out, x in zip(got, points):
        assert type(out) is tuple and all(type(c) is float for c in out)
        assert same_bits(out, t.apply(x))


@overflow_ok
@given(quats, vec3s, st.lists(vec3s, max_size=12))
@settings(max_examples=150, derandomize=True)
def test_inverse_apply_all_is_inverse_apply_of_each_point(q, p, points):
    t = Transform(position=p, orientation=q)
    got = t.inverse_apply_all(points)
    assert len(got) == len(points)
    for out, x in zip(got, points):
        assert type(out) is tuple and all(type(c) is float for c in out)
        assert same_bits(out, t.inverse_apply(x))
    # the lists a snapshot's arrays read into give the same bits
    assert all(same_bits(a, b) for a, b in zip(t.inverse_apply_all([list(x) for x in points]), got))


def test_batched_kernels_match_per_point_on_full_mantissas():
    # normal draws fill every mantissa bit, so a regrouped sum shows, which
    # the hypothesis draws above rarely reveal
    rng = np.random.default_rng(5)
    for _ in range(200):
        t = Transform(position=rng.normal(0.0, 3.0, 3).tolist(), orientation=rng.normal(0.0, 1.0, 4).tolist())
        points = rng.normal(0.0, 3.0, (5, 3)).tolist()
        assert all(same_bits(a, t.inverse_apply(x)) for a, x in zip(t.inverse_apply_all(points), points))
        assert all(same_bits(a, t.apply(x)) for a, x in zip(t.apply_all(points), points))
