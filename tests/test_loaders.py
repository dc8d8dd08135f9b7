"""The shared input decoder: `scene.require_number`, `require_numbers`,
`require_int` and `require_str`, and every loader that reads its document
fields through them."""

from __future__ import annotations

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinroom.retarget import Skeleton
from twinroom.scene import (
    MalformedRoom,
    load_room,
    require_int,
    require_number,
    require_numbers,
    require_str,
)
from twinroom.traces import MalformedTrace, load_trace


class Refused(ValueError):
    pass


@pytest.mark.parametrize("value", [0, -3, 2.5, 10**30, np.float32(0.5), np.int64(7), np.float64(-1.0)])
def test_a_number_is_a_finite_int_or_float(value):
    assert require_number(value, "x", Refused) is value


@pytest.mark.parametrize("value", [True, np.bool_(False), "1.5", None, [1.0], math.inf, -math.inf, math.nan,
                                   10**400])
def test_anything_else_is_not_a_number(value):
    with pytest.raises(Refused, match="^x must be"):
        require_number(value, "x", Refused)


def test_a_list_holds_exactly_its_count_of_numbers():
    values = [1, 2.5, np.float32(3.0)]
    assert require_numbers(values, 3, "v", Refused) is values
    assert require_numbers((1.0, 2.0), 2, "v", Refused) == (1.0, 2.0)
    for bad, match in [([1.0, 2.0], "a list of 3 floats"), ([1.0, 2.0, 3.0, 4.0], "a list of 3 floats"),
                       ("1.0", "a list of 3 floats"), ({"x": 1.0}, "a list of 3 floats"),
                       ([1.0, "2.0", 3.0], "a number, got '2.0'"), ([1.0, True, 3.0], "a number, got True"),
                       ([1.0, math.nan, 3.0], "finite"), ([1.0, 10**400, 3.0], "finite")]:
        with pytest.raises(Refused, match=f"^v must be {match}"):
            require_numbers(bad, 3, "v", Refused)


def test_an_int_is_never_a_bool_or_a_float():
    assert require_int(3, "n", Refused) == 3
    for bad in (True, 3.0, "3", None):
        with pytest.raises(Refused, match="^n must be an int"):
            require_int(bad, "n", Refused)


def test_an_id_is_a_string():
    assert require_str("desk", "id", Refused) == "desk"
    assert type(require_str(np.str_("desk"), "id", Refused)) is str
    for bad in (5, 3.5, None, True, {"a": 1}, ["desk"]):
        with pytest.raises(Refused, match="^id must be a string"):
            require_str(bad, "id", Refused)


# --- one wrong-typed leaf in a valid document --------------------------------

ROOM = {
    "id": "r",
    "extents": {"min": [-3.0, -2.0], "max": [3, 2.0]},
    "objects": [
        {"id": "desk", "category": "Table", "position": [1.0, 0.37, 1.0], "yaw": 0.5,
         "size": [1.2, 0.74, 0.6], "pair_id": "desk_b"},
        {"id": "chair", "category": "Chair", "position": [-1, 0.3, 0.5], "yaw": 0,
         "size": [0.6, 0.6, 0.6], "sittable": True, "sit_height": 0.45},
    ],
}
_POSE = [0.0, 0.92, 0.0, 1.0, 0.0, 0.0, 0.0]
_EFFECTORS = ("root", "head", "left_hand", "right_hand", "left_foot", "right_foot")
TRACE = [{"tick_rate": 60.0, "skeleton": list(Skeleton().to_floats())},
         *({"tick": t, "fingers": "", **{name: list(_POSE) for name in _EFFECTORS}} for t in (1, 2))]

# (document, path to the leaf, kind)
LEAVES = [
    ("room", ("id",), "id"),
    ("room", ("extents", "min"), "numbers"),
    ("room", ("extents", "max", 1), "number"),
    *(("room", ("objects", 0, key), "id") for key in ("id", "category")),
    ("room", ("objects", 0, "pair_id"), "optional id"),
    ("room", ("objects", 0, "yaw"), "number"),
    *(("room", ("objects", i, key), "numbers") for i, key in ((0, "position"), (1, "size"))),
    *(("room", ("objects", i, key, axis), "number") for i, key, axis in ((0, "size", 2), (1, "position", 0))),
    ("room", ("objects", 1, "sit_height"), "optional number"),
    ("trace", (0, "tick_rate"), "number"),
    ("trace", (0, "skeleton"), "numbers"),
    ("trace", (0, "skeleton", 12), "number"),
    ("trace", (2, "tick"), "int"),
    *(("trace", (row, name), "numbers") for row, name in ((1, "root"), (2, "head"))),
    *(("trace", (row, name, k), "number") for row, name, k in ((1, "right_hand", 3), (2, "left_foot", 6))),
]

# each wrong value: the leaf kinds it applies to, and a strategy for it given
# the leaf's valid value; null is valid in the optional fields
WRONG = {
    "numeric string": (("number", "optional number", "int", "numbers"),
                       lambda v: st.one_of(st.integers(-9, 9).map(str), st.floats(-10, 10).map(repr))),
    "bool": (("id", "optional id", "number", "optional number", "int", "numbers"), lambda v: st.booleans()),
    "null": (("id", "number", "int", "numbers"), lambda v: st.none()),
    "nested list": (("id", "optional id", "number", "optional number", "int"), lambda v: st.just([v])),
    "nested entry": (("numbers",), lambda v: st.just([*v[:-1], [v[-1]]])),
    "non-finite": (("id", "optional id", "number", "optional number", "int", "numbers"),
                   lambda v: st.sampled_from([math.inf, -math.inf, math.nan])),
    "one entry too long": (("numbers",), lambda v: st.just([*v, v[0]])),
    "number for an id": (("id", "optional id"), lambda v: st.one_of(st.integers(-9, 9), st.floats(-10, 10))),
    "whole float for an int": (("int",), lambda v: st.just(float(v))),
}


def _leaf(document, path):
    for key in path:
        document = document[key]
    return document


@st.composite
def wrong_leaves(draw):
    """A valid document's name, a path to one of its leaves and a wrong value for it."""
    kinds, values = WRONG[draw(st.sampled_from(sorted(WRONG)))]
    document, path, _ = draw(st.sampled_from([leaf for leaf in LEAVES if leaf[2] in kinds]))
    return document, path, draw(values(_leaf(ROOM if document == "room" else TRACE, path)))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(wrong_leaves())
def test_a_wrong_typed_leaf_is_the_loaders_own_error(case):
    document, (*parents, key), value = case
    doc = copy.deepcopy(ROOM if document == "room" else TRACE)
    _leaf(doc, parents)[key] = value
    if document == "room":
        with pytest.raises(MalformedRoom):
            load_room(json.dumps(doc))
    else:
        with pytest.raises(MalformedTrace):
            load_trace("\n".join(map(json.dumps, doc)))


def test_the_unedited_documents_load():
    assert [o.id for o in load_room(json.dumps(ROOM)).objects] == ["desk", "chair"]
    assert len(load_trace("\n".join(map(json.dumps, TRACE)))) == 2


# --- a container of the wrong JSON type ----------------------------------------

@pytest.mark.parametrize("document, edit, message", [
    pytest.param("room", lambda d: d.update(extents=[[0, 0], [1, 1]]),
                 "room 'r': extents must be an object with min and max", id="extents list"),
    pytest.param("room", lambda d: d.update(extents="min max"),
                 "room 'r': extents must be an object with min and max", id="extents string"),
    pytest.param("room", lambda d: d.update(objects=5), "room 'r': objects must be a list, got 5",
                 id="objects number"),
    pytest.param("room", lambda d: d.update(objects={"desk": ROOM["objects"][0]}),
                 "room 'r': objects must be a list", id="objects object"),
    pytest.param("trace", lambda d: d.__setitem__(0, [60.0, list(Skeleton().to_floats())]),
                 "trace header must be an object, got list", id="trace header list"),
    pytest.param("trace", lambda d: d.__setitem__(2, [2, "", *([_POSE] * 6)]),
                 "trace row 2 must be an object, got list", id="trace row list"),
])
def test_a_wrong_typed_container_is_named(document, edit, message):
    doc = copy.deepcopy(ROOM if document == "room" else TRACE)
    edit(doc)
    if document == "room":
        with pytest.raises(MalformedRoom, match=f"^{message}"):
            load_room(json.dumps(doc))
    else:
        with pytest.raises(MalformedTrace, match=f"^{message}"):
            load_trace("\n".join(map(json.dumps, doc)))


@pytest.mark.parametrize("text", ["[]", "[1, 2]", '["r"]'])
def test_a_room_document_is_an_object(text):
    with pytest.raises(MalformedRoom, match="^room document must be an object, got list"):
        load_room(text)
