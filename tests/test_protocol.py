from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_placement import per_category
from twinroom.placement import ACCOMMODATION_CELLS, FeatureVector, PlacementPose
from twinroom.protocol import (
    HEADER,
    Bye,
    FeaturePacket,
    Hello,
    MsgType,
    Phase,
    PlacementAnnounce,
    PoseUpdate,
    ProtocolError,
    Session,
    StateChange,
    TargetUpdate,
    TickRegression,
    Truncated,
    decode_all,
    decode_frame,
    encode_frame,
    f32,
)
from twinroom.scene import ObjectCategory
from twinroom.states import Effector, UserState

# every float here is drawn as an exact float32 so decode == encode input
wire_floats = st.floats(
    width=32, allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
)
vec3 = st.tuples(wire_floats, wire_floats, wire_floats)
ticks = st.integers(0, 2**32 - 1)
pose_values = st.tuples(*([wire_floats] * 42))
accommodations = st.lists(wire_floats, min_size=ACCOMMODATION_CELLS, max_size=ACCOMMODATION_CELLS)


category_tables = st.dictionaries(
    st.sampled_from(list(ObjectCategory)), wire_floats, max_size=len(ObjectCategory)
).map(per_category)


@st.composite
def feature_vectors(draw):
    return FeatureVector(
        interpersonal=draw(st.one_of(st.none(), vec3)),
        pose_accommodation=draw(accommodations),
        visual_attention=draw(category_tables),
        spatial=draw(category_tables),
    )


messages = st.one_of(
    st.builds(
        Hello,
        app_version=st.integers(0, 0xFFFF),
        room_hash=st.integers(0, 2**64 - 1),
        skeleton=st.tuples(*([wire_floats] * 13)),
    ),
    st.builds(PoseUpdate, tick=ticks, values=pose_values, fingers=st.binary(max_size=64)),
    st.builds(StateChange, tick=ticks, state=st.sampled_from(list(UserState))),
    st.builds(
        TargetUpdate,
        tick=ticks,
        effector=st.sampled_from(list(Effector)),
        active=st.booleans(),
        object_id=st.text(max_size=40),
        uvw=vec3,
    ),
    st.builds(
        PlacementAnnounce,
        tick=ticks,
        x=wire_floats,
        z=wire_floats,
        yaw=wire_floats,
        pose=st.sampled_from(list(PlacementPose)),
    ),
    st.builds(FeaturePacket, tick=ticks, features=feature_vectors()),
    st.just(Bye()),
)


# --- codec ---------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(messages)
def test_codec_round_trip(msg):
    data = encode_frame(msg)
    decoded, end = decode_frame(data)
    assert end == len(data)
    assert decoded == msg
    assert encode_frame(decoded) == data  # stable re-encode


@settings(max_examples=40, deadline=None)
@given(st.lists(messages, min_size=1, max_size=6), st.data())
def test_stream_decodes_across_arbitrary_splits(msgs, data):
    stream = b"".join(encode_frame(m) for m in msgs)
    cut = data.draw(st.integers(0, len(stream)))
    collected = []
    buf = bytearray(stream[:cut])
    for chunk in (stream[cut:],):
        buf.extend(chunk)
    offset = 0
    while True:
        try:
            msg, offset = decode_frame(buf, offset)
        except Truncated:
            break
        collected.append(msg)
    assert collected == msgs
    assert decode_all(stream) == msgs


def test_every_truncation_point_raises_truncated():
    msg = TargetUpdate(
        tick=7, effector=Effector.RightHand, active=True,
        object_id="screen", uvw=(0.25, 0.5, 0.0),
    )
    data = encode_frame(msg)
    for cut in range(len(data)):
        with pytest.raises(Truncated):
            decode_frame(data[:cut])


def test_corrupted_frames_are_rejected():
    data = bytearray(encode_frame(StateChange(tick=1, state=UserState.Solo)))
    bad_magic = bytes([data[0] ^ 0xFF]) + bytes(data[1:])
    with pytest.raises(ProtocolError, match="magic"):
        decode_frame(bad_magic)

    bad_version = bytes(data[:2]) + bytes([99]) + bytes(data[3:])
    with pytest.raises(ProtocolError, match="version"):
        decode_frame(bad_version)

    bad_type = bytes(data[:3]) + bytes([0xEE]) + bytes(data[4:])
    with pytest.raises(ProtocolError, match="message type"):
        decode_frame(bad_type)

    bad_state = bytes(data[:-1]) + bytes([9])
    with pytest.raises(ProtocolError, match="state code"):
        decode_frame(bad_state)


def test_non_canonical_category_tables_are_rejected():
    msg = FeaturePacket(tick=3, features=FeatureVector(
        interpersonal=None, pose_accommodation=np.zeros(ACCOMMODATION_CELLS), visual_attention=per_category({}),
        spatial=per_category({ObjectCategory.Sofa: 1.0, ObjectCategory.Table: 2.0}),
    ))
    data = encode_frame(msg)
    assert decode_frame(data)[0] == msg
    # the frame ends with the spatial table: count, then (u8 code, f32) pairs
    assert data[-10:-9] == bytes([ObjectCategory.Sofa.value])
    assert data[-5:-4] == bytes([ObjectCategory.Table.value])
    for second in (ObjectCategory.Sofa, ObjectCategory.Chair):  # repeated, descending
        forged = data[:-5] + bytes([second.value]) + data[-4:]
        with pytest.raises(ProtocolError, match="ascending"):
            decode_frame(forged)
    unknown = data[:-5] + bytes([len(ObjectCategory)]) + data[-4:]
    with pytest.raises(ProtocolError, match="unknown object category"):
        decode_frame(unknown)


def test_oversized_payload_is_rejected():
    inner = encode_frame(Bye())
    padded = inner + b"\x00"
    # fix up the declared length so the extra byte lands inside the payload
    magic, version, code, _ = struct.unpack_from("<2sBBI", padded)
    forged = struct.pack("<2sBBI", magic, version, code, 1) + b"\x00"
    with pytest.raises(ProtocolError, match="unread"):
        decode_frame(forged)


def test_decode_all_rejects_trailing_garbage():
    stream = encode_frame(Bye()) + b"T"
    with pytest.raises(Truncated):
        decode_all(stream)


# One fixed message of each type and its frame. The first six were pinned
# under wire version 1 and differ from it only in the version byte; any
# layout change must edit these bytes and bump WIRE_VERSION together.
GOLDEN_FRAMES = [
    (Hello(app_version=1, room_hash=0x0123456789ABCDEF, skeleton=tuple(i * 0.125 for i in range(13))),
     "544402013e0000000100efcdab8967452301000000000000003e0000803e0000c03e0000003f"
     "0000203f0000403f0000603f0000803f0000903f0000a03f0000b03f0000c03f"),
    (PoseUpdate(tick=42, values=sum(((i + 0.5, -i * 0.25, 1.0 + i, 1.0, 0.0, -0.5 * (i % 2), 0.125 * i)
                                     for i in range(6)), ()), fingers=b"\x01\x02"),
     "54440202b00000002a000000"
     "0000003f000000000000803f0000803f0000000000000080"
     "00000000" "0000c03f000080be000000400000803f00000000000000bf0000003e"
     "00002040000000bf000040400000803f0000000000000080"
     "0000803e" "00006040000040bf000080400000803f00000000000000bf0000c03e"
     "00009040000080bf0000a0400000803f0000000000000080"
     "0000003f" "0000b0400000a0bf0000c0400000803f00000000000000bf0000203f"
     "02000102"),
    (StateChange(tick=7, state=UserState.Interaction), "54440203050000000700000002"),
    (TargetUpdate(tick=9, effector=Effector.LeftHand, active=True, object_id="screen", uvw=(0.25, 0.5, 0.75)),
     "544402041a000000090000000101060073637265656e0000803e0000003f0000403f"),
    (PlacementAnnounce(tick=11, x=1.5, z=-2.25, yaw=0.5, pose=PlacementPose.Sitting),
     "54440205110000000b0000000000c03f000010c00000003f01"),
    (Bye(), "5444020700000000"),
    (FeaturePacket(tick=13, features=FeatureVector(
        interpersonal=(1.0, -0.5, 0.25),
        pose_accommodation=[0.0] * 40 + [0.5] + [0.0] * 40,
        visual_attention=per_category({ObjectCategory.Screen: 2.0}),
        spatial=per_category({ObjectCategory.Chair: 0.75, ObjectCategory.Table: 1.5}),
    )),
     "54440206660100000d00000001" "0000803f000000bf0000803e"  # tick, interpersonal
     + "00000000" * 40 + "0000003f" + "00000000" * 40  # the 81 accommodation heights
     + "01" "0300000040"  # attention: Screen 2.0
     + "02" "000000403f" "020000c03f"),  # spatial: Chair 0.75, Table 1.5
]


@pytest.mark.parametrize("msg, frame", GOLDEN_FRAMES, ids=[type(m).__name__ for m, _ in GOLDEN_FRAMES])
def test_golden_frame_bytes(msg, frame):
    assert encode_frame(msg).hex() == frame
    assert decode_frame(bytes.fromhex(frame)) == (msg, len(frame) // 2)


def test_payload_ending_inside_a_field_is_malformed_not_truncated():
    for msg, frame in GOLDEN_FRAMES:
        if isinstance(msg, Bye):
            continue
        data = bytearray.fromhex(frame)
        struct.pack_into("<I", data, 4, len(data) - HEADER.size - 1)
        with pytest.raises(ProtocolError) as err:
            decode_frame(data)  # the declared frame is complete, its last field is not
        assert not isinstance(err.value, Truncated)


@settings(max_examples=400, deadline=None)
@given(messages, st.data())
def test_forged_frames_decode_or_raise_protocol_error(msg, data):
    """Valid frames of every type with flipped bytes and forged lengths:
    decoding gives a message or a ProtocolError, Truncated only while the
    declared frame runs past the buffer, and a live session closes on every
    rejection."""
    frame = encode_frame(msg)
    for cut in range(len(frame)):  # only a buffer prefix is truncated
        with pytest.raises(Truncated):
            decode_frame(frame[:cut])
    payload = len(frame) - HEADER.size
    length = data.draw(st.one_of(st.none(), st.integers(0, payload + 4), st.integers(0, 2**32 - 1)))
    flips = data.draw(st.lists(st.tuples(st.integers(0, len(frame) - 1), st.integers(1, 255)), max_size=3))
    forged = bytearray(frame)
    if length is not None:
        struct.pack_into("<I", forged, 4, length)
    for i, mask in flips:
        forged[i] ^= mask
    forged = bytes(forged)
    declared_end = HEADER.size + HEADER.unpack_from(forged)[3]
    decoded = None
    try:
        decoded, end = decode_frame(forged)
    except Truncated:
        assert declared_end > len(forged)
        outcome = "wait"
    except ProtocolError:
        outcome = "reject"
    else:
        assert end == declared_end <= len(forged)
        outcome = "decoded"

    _, session = linked_pair()
    try:
        got = session.feed(forged)
    except ProtocolError as err:
        assert outcome != "wait" and not isinstance(err, Truncated)
        assert session.phase is Phase.Closed
    else:
        assert outcome != "reject"
        assert got == ([] if outcome == "wait" else [decoded])
        assert session.phase is (Phase.Closed if isinstance(decoded, Bye) else Phase.Live)


def test_f32_quantization_contract():
    assert f32(0.1) == 0.10000000149011612
    assert f32(f32(0.1)) == f32(0.1)
    assert f32(1.5) == 1.5  # exactly representable values pass through


def test_hello_validates_skeleton_length():
    with pytest.raises(ProtocolError):
        Hello(app_version=1, room_hash=0, skeleton=(1.0,) * 12)
    for n in (0, 6, 7, 41, 43):
        with pytest.raises(ProtocolError):
            PoseUpdate(tick=0, values=(1.0,) * n)


# --- session --------------------------------------------------------------


SKELETON = tuple(float(i) for i in range(13))


def pose_at(tick):
    return PoseUpdate(tick=tick, values=(0.0, 0.9, 0.0, 1.0, 0.0, 0.0, 0.0) * 6)


def linked_pair():
    a = Session(app_version=1, room_hash=0xA, skeleton=SKELETON)
    b = Session(app_version=1, room_hash=0xB, skeleton=SKELETON)
    b.feed(a.hello_frame())
    a.feed(b.hello_frame())
    return a, b


def test_handshake_reaches_live_in_both_orders():
    a = Session(1, 0xA, SKELETON)
    b = Session(1, 0xB, SKELETON)
    ha = a.hello_frame()
    assert a.phase is Phase.Handshake  # local hello alone is not enough
    got = b.feed(ha)
    assert isinstance(got[0], Hello) and got[0].room_hash == 0xA
    assert b.phase is Phase.Handshake  # remote hello alone is not enough
    a.feed(b.hello_frame())
    assert a.phase is Phase.Live and b.phase is Phase.Live


def test_hello_can_only_be_sent_once():
    a = Session(1, 0xA, SKELETON)
    a.hello_frame()
    with pytest.raises(ProtocolError):
        a.hello_frame()


def test_duplicate_inbound_hello_closes():
    a, b = linked_pair()
    rogue = encode_frame(Hello(app_version=1, room_hash=0xB, skeleton=SKELETON))
    with pytest.raises(ProtocolError, match="duplicate"):
        a.feed(rogue)
    assert a.phase is Phase.Closed


def test_tick_requires_live_phase():
    a = Session(1, 0xA, SKELETON)
    with pytest.raises(ProtocolError):
        a.tick(0, pose_at(0), UserState.Solo)


def test_tick_emits_exactly_one_pose_and_dedups_state():
    a, b = linked_pair()
    frames = a.tick(0, pose_at(0), UserState.Solo)
    assert len(frames) == 1  # Solo is the assumed initial state: no change
    frames = a.tick(1, pose_at(1), UserState.Solo)
    assert len(frames) == 1
    frames = a.tick(2, pose_at(2), UserState.Locomotion)
    assert len(frames) == 2
    frames = a.tick(3, pose_at(3), UserState.Locomotion)
    assert len(frames) == 1  # unchanged state is not repeated


def test_target_updates_dedup_at_f32_resolution():
    a, b = linked_pair()
    t0 = [("screen", (0.1, 0.5, 0.0)), None, None]  # head, left hand, right hand
    frames = a.tick(0, pose_at(0), UserState.Solo, targets=t0)
    assert len(frames) == 2  # pose + one activation
    # same point, but computed with double rounding noise below f32 steps
    t1 = [("screen", (f32(0.1), 0.5, 0.0)), None, None]
    frames = a.tick(1, pose_at(1), UserState.Solo, targets=t1)
    assert len(frames) == 1  # deduplicated
    t2 = [None, None, None]
    frames = a.tick(2, pose_at(2), UserState.Solo, targets=t2)
    assert len(frames) == 2  # explicit drop
    drop = decode_all(frames[1])[0]
    assert isinstance(drop, TargetUpdate) and not drop.active


def test_target_updates_follow_effector_order():
    a, _ = linked_pair()
    targets = [("screen", (0.1, 0.5, 0.0)), ("desk", (0.5, 1.0, 0.5)), ("screen", (0.9, 0.5, 0.0))]
    frames = a.tick(0, pose_at(0), UserState.Solo, targets=targets)
    updates = [decode_all(frame)[0] for frame in frames[1:]]
    assert [(u.effector, u.object_id) for u in updates] == [
        (Effector.Head, "screen"), (Effector.LeftHand, "desk"), (Effector.RightHand, "screen")]


@pytest.mark.parametrize("targets", [[None, None], [None] * 4, [("desk", (0.5, 1.0, 0.5))] * 4])
def test_a_target_table_of_the_wrong_length_is_refused(targets):
    a, _ = linked_pair()
    with pytest.raises(ValueError):
        a.tick(0, pose_at(0), UserState.Locomotion, targets=targets)
    # the refusal changed nothing: the same tick, sent right, gives what a
    # fresh session sends
    table = [("screen", (0.1, 0.5, 0.0)), None, ("desk", (0.5, 1.0, 0.5))]
    fresh, _ = linked_pair()
    want = fresh.tick(0, pose_at(0), UserState.Locomotion, targets=table)
    assert a.tick(0, pose_at(0), UserState.Locomotion, targets=table) == want
    assert len(want) == 4  # the pose, the state change and two targets


@pytest.mark.parametrize("state", [UserState.Interaction, UserState.Solo])
def test_a_tick_whose_frames_cannot_be_encoded_changes_nothing(state):
    # the table's length is right, but a uvw beyond the f32 range fails only
    # while the frames are encoded, after the state change's frame is made
    a, _ = linked_pair()
    a.tick(1, pose_at(1), UserState.Solo, targets=[("screen", (0.2, 0.2, 0.2)), None, None])
    bad = [("desk", (1e39, 0.0, 0.0)), None, ("screen", (0.5, 0.5, 0.5))]
    with pytest.raises(OverflowError):
        a.tick(2, pose_at(2), state, targets=bad)
    table = [None, ("desk", (0.5, 1.0, 0.5)), ("screen", (0.5, 0.5, 0.5))]
    fresh, _ = linked_pair()
    fresh.tick(1, pose_at(1), UserState.Solo, targets=[("screen", (0.2, 0.2, 0.2)), None, None])
    want = fresh.tick(2, pose_at(2), state, targets=table)
    assert a.tick(2, pose_at(2), state, targets=table) == want
    # the pose, the head's drop and two hand targets, and the state change
    # when there is one
    assert len(want) == (5 if state is UserState.Interaction else 4)


def test_outbound_ticks_must_increase():
    a, _ = linked_pair()
    a.tick(5, pose_at(5), UserState.Solo)
    with pytest.raises(ProtocolError, match="not after"):
        a.tick(5, pose_at(5), UserState.Solo)
    with pytest.raises(ProtocolError, match="pose update tick"):
        a.tick(6, pose_at(7), UserState.Solo)


def test_placement_announce_tick_must_match():
    a, _ = linked_pair()
    with pytest.raises(ProtocolError, match="placement tick"):
        a.tick(
            0, pose_at(0), UserState.Solo,
            placement=PlacementAnnounce(
                tick=3, x=0.0, z=0.0, yaw=0.0, pose=PlacementPose.Standing
            ),
        )


def test_inbound_batch_rules():
    a, b = linked_pair()
    # a batch must lead with its pose update
    rogue = encode_frame(StateChange(tick=0, state=UserState.Locomotion))
    with pytest.raises(ProtocolError, match="lead with its pose"):
        b.feed(rogue)
    assert b.phase is Phase.Closed

    a2, b2 = linked_pair()
    frames = a2.tick(4, pose_at(4), UserState.Locomotion)
    got = b2.feed(b"".join(frames))
    assert [type(m) for m in got] == [PoseUpdate, StateChange]
    regress = encode_frame(pose_at(3))
    with pytest.raises(TickRegression):
        b2.feed(regress)
    assert b2.phase is Phase.Closed
    assert b2.feed(b"x") == []  # closed sessions ignore input


def test_message_before_hello_is_rejected():
    a = Session(1, 0xA, SKELETON)
    a.hello_frame()
    with pytest.raises(ProtocolError, match="before hello"):
        a.feed(encode_frame(pose_at(0)))


def test_partial_frames_are_buffered_across_feeds():
    a, b = linked_pair()
    frame = a.tick(0, pose_at(0), UserState.Solo)[0]
    assert b.feed(frame[:10]) == []
    got = b.feed(frame[10:])
    assert len(got) == 1 and isinstance(got[0], PoseUpdate)


def test_bye_keeps_sender_open_until_the_peer_answers():
    a, b = linked_pair()
    a.tick(0, pose_at(0), UserState.Solo)
    bye = a.bye_frame()
    assert a.phase is Phase.Live  # still reading the peer's in-flight frames
    with pytest.raises(ProtocolError, match="after bye"):
        a.tick(1, pose_at(1), UserState.Solo)

    got = b.feed(bye)
    assert isinstance(got[-1], Bye)
    assert b.phase is Phase.Closed
    a.feed(b.bye_frame())
    assert a.phase is Phase.Closed


def test_frame_declared_one_byte_short_closes_the_session():
    a, b = linked_pair()
    pose = bytearray(a.tick(0, pose_at(0), UserState.Solo)[0])
    struct.pack_into("<I", pose, 4, len(pose) - HEADER.size - 1)
    with pytest.raises(ProtocolError) as err:
        b.feed(bytes(pose) + a.bye_frame())
    assert not isinstance(err.value, Truncated)
    assert b.phase is Phase.Closed


def test_target_object_id_that_is_not_utf8_closes_the_session():
    a, b = linked_pair()
    b.feed(a.tick(0, pose_at(0), UserState.Solo)[0])
    frame = bytearray(encode_frame(TargetUpdate(tick=0, effector=Effector.Head, active=True, object_id="ab")))
    at = HEADER.size + 8  # tick, effector, active, id length
    assert frame[at:at + 2] == b"ab"
    frame[at:at + 2] = b"\xff\xfe"
    with pytest.raises(ProtocolError, match="UTF-8"):
        b.feed(bytes(frame))
    assert b.phase is Phase.Closed


def test_received_counters_track_messages():
    a, b = linked_pair()
    frames = a.tick(0, pose_at(0), UserState.Locomotion)
    b.feed(b"".join(frames))
    assert b.received["PoseUpdate"] == 1
    assert b.received["StateChange"] == 1
    assert b.received["Hello"] == 1


def outcome(call):
    try:
        return call()
    except ProtocolError as err:
        return type(err), str(err)


def test_receive_admits_decoded_messages_as_feed_admits_bytes():
    state = encode_frame(StateChange(tick=0, state=UserState.Locomotion))
    pose = [encode_frame(pose_at(t)) for t in range(3)]
    hello = encode_frame(Hello(app_version=1, room_hash=0xA, skeleton=SKELETON))
    streams = [
        [pose[0] + state, pose[1], pose[1] + pose[2]],
        [pose[2], pose[1], pose[2]],  # a tick regression closes the session
        [state],  # a batch that does not lead with its pose
        [pose[0] + encode_frame(Bye()) + pose[1], pose[2]],  # nothing after a bye
        [pose[0], hello],  # a second hello
    ]
    for chunks in streams:
        fed, received = linked_pair()[1], linked_pair()[1]
        for chunk in chunks:
            want = outcome(lambda: fed.feed(chunk))
            assert outcome(lambda: received.receive(decode_all(chunk))) == want
        assert (received.phase, received.received) == (fed.phase, fed.received)
    # a bye ends the stream: the frames after it are not admitted
    bye_stream = streams[3]
    session = linked_pair()[1]
    assert [type(m) for m in session.receive(decode_all(bye_stream[0]))] == [PoseUpdate, Bye]
    assert session.receive(decode_all(bye_stream[1])) == []
    assert session.phase is Phase.Closed and session.received["PoseUpdate"] == 1
