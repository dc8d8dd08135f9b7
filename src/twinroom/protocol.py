"""Wire protocol and session rules for the two-peer avatar link.

Framing: every message travels as ``b"TD"``, version byte, type byte, and a
little-endian u32 payload length, followed by the payload. All floats on the
wire are little-endian f32; integers are little-endian. Peers exchange a
Hello first (app version, room hash, avatar skeleton), then stream per-tick
batches. A batch is all messages sharing one tick and always leads with the
PoseUpdate; exactly one PoseUpdate exists per live tick. State and target
messages are sent only when their content changes. Ticks never decrease; a
regression closes the session.

Every message has one fixed layout. Each payload starts with a fixed part,
packed with one precompiled ``struct.Struct``; a blob is a u16 length and
that many bytes, and a category table is a u8 count and that many
(u8 category code, f32 distance) pairs in strictly ascending code order.

=================  ==========================================  ==============
message            payload fields, in order                    struct format
=================  ==========================================  ==============
Hello              app version u16, room hash u64, 13          ``<HQ13f``
                   skeleton floats
PoseUpdate         tick u32, 42 pose floats, finger blob       ``<I42fH`` +
                   length u16; then the finger bytes           bytes
StateChange        tick u32, user state code u8                ``<IB``
TargetUpdate       tick u32, effector code u8, active u8,      ``<IBBH`` +
                   object id length u16; then the UTF-8        bytes + ``<3f``
                   object id and u, v, w
PlacementAnnounce  tick u32, x, z, yaw, placement pose u8      ``<I3fB``
FeaturePacket      tick u32, has-interpersonal u8; then (if    ``<IB`` +
                   set) local x, local z, relative yaw; the    [``<3f``] +
                   81 accommodation heights; the attention     ``<81f`` + two
                   table; the spatial table                    tables
Bye                (empty)
=================  ==========================================  ==============

The pose is root (world), head, left hand, right hand, left foot, right
foot (root-relative), each as x, y, z, qw, qx, qy, qz. The accommodation
heights are ``placement``'s fixed-grid vector, so a packet cannot describe
any other grid. Decoding reads only inside the declared payload: a payload
that ends inside a field, leaves bytes unread, or holds an unknown code or
invalid UTF-8 is a ProtocolError, and only a buffer that ends before the
frame's declared end raises Truncated.

Messages carry plain Python floats, tuples, and bytes so equality and
hashing behave normally; the one structured payload is FeaturePacket, which
carries a placement FeatureVector. Values are rounded to f32 on encode, so
a decoded message equals the original exactly when the original was built
from f32-representable values.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .placement import ACCOMMODATION_CELLS, FeatureVector, PlacementPose
from .scene import ObjectCategory
from .states import Effector, UserState, WireTarget

MAGIC = b"TD"
# 2: a FeaturePacket carries the accommodation feature as its 81 heights
# instead of a whole height map
WIRE_VERSION = 2
HEADER = struct.Struct("<2sBBI")

SKELETON_FLOATS = 13
POSE_FLOATS = 42

# the fixed part of each payload; POSE also quantizes the sender's pose
POSE = struct.Struct(f"<I{POSE_FLOATS}fH")
_HELLO = struct.Struct(f"<HQ{SKELETON_FLOATS}f")
_STATE = struct.Struct("<IB")
_TARGET = struct.Struct("<IBBH")
_ANNOUNCE = struct.Struct("<I3fB")
_FEATURE = struct.Struct("<IB")
_VEC3 = struct.Struct("<3f")
_HEIGHTS = struct.Struct(f"<{ACCOMMODATION_CELLS}f")
_COUNT = struct.Struct("<B")
_CATEGORY = struct.Struct("<Bf")


class ProtocolError(ValueError):
    pass


class Truncated(ProtocolError):
    """The buffer ended before the frame's declared end."""


class TickRegression(ProtocolError):
    """An inbound message carried a tick lower than one already seen."""


def f32(value: float) -> float:
    """The nearest single-precision value, as a Python float.

    Anything that crosses the wire should be quantized with this before
    local use, so both peers compute from identical numbers.
    """
    return struct.unpack("<f", struct.pack("<f", value))[0]


class MsgType(Enum):
    Hello = 1
    PoseUpdate = 2
    StateChange = 3
    TargetUpdate = 4
    PlacementAnnounce = 5
    FeaturePacket = 6
    Bye = 7


@dataclass(frozen=True)
class Hello:
    app_version: int
    room_hash: int
    skeleton: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "skeleton", tuple(float(v) for v in self.skeleton))
        if len(self.skeleton) != SKELETON_FLOATS:
            raise ProtocolError(f"skeleton must be {SKELETON_FLOATS} floats")


@dataclass(frozen=True)
class PoseUpdate:
    """One tick of tracked motion: 42 floats, the world root and then the
    head, left hand, right hand, left foot and right foot relative to the
    root, each as x, y, z, qw, qx, qy, qz."""

    tick: int
    values: tuple[float, ...]
    fingers: bytes = b""

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != POSE_FLOATS:
            raise ProtocolError(f"pose must be {POSE_FLOATS} floats, got {len(self.values)}")

    @staticmethod
    def from_layout(v: tuple, fingers: bytes) -> "PoseUpdate":
        """The message of one `POSE` unpack `v` (tick, the 42 floats, the
        finger blob's length) and its finger bytes. The layout yields exactly
        POSE_FLOATS values as a tuple, so the message is built without
        __post_init__'s copy and length check."""
        msg = object.__new__(PoseUpdate)
        msg.__dict__.update(tick=v[0], values=v[1:-1], fingers=fingers)
        return msg


@dataclass(frozen=True)
class StateChange:
    tick: int
    state: UserState


@dataclass(frozen=True)
class TargetUpdate:
    """An effector acquired (active) or dropped (not active) a target."""

    tick: int
    effector: Effector
    active: bool
    object_id: str = ""
    uvw: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "uvw", tuple(float(v) for v in self.uvw))


@dataclass(frozen=True)
class PlacementAnnounce:
    tick: int
    x: float
    z: float
    yaw: float
    pose: PlacementPose


@dataclass(frozen=True)
class FeaturePacket:
    """Placement request: the sender's context features, to be matched in
    the receiver's room."""

    tick: int
    features: FeatureVector


@dataclass(frozen=True)
class Bye:
    pass


Message = Hello | PoseUpdate | StateChange | TargetUpdate | PlacementAnnounce | FeaturePacket | Bye


# --- encoding ---------------------------------------------------------------

def _blob(data: bytes) -> bytes:
    if len(data) > 0xFFFF:
        raise ProtocolError(f"blob too long for u16 length: {len(data)}")
    return data


def _encode_categories(table: tuple[float | None, ...]) -> bytes:
    present = [(code, dist) for code, dist in enumerate(table) if dist is not None]
    return _COUNT.pack(len(present)) + b"".join(_CATEGORY.pack(code, dist) for code, dist in present)


def encode_frame(msg: Message) -> bytes:
    if isinstance(msg, PoseUpdate):
        code = MsgType.PoseUpdate
        fingers = _blob(msg.fingers)
        payload = POSE.pack(msg.tick, *msg.values, len(fingers)) + fingers
    elif isinstance(msg, Hello):
        code = MsgType.Hello
        payload = _HELLO.pack(msg.app_version, msg.room_hash, *msg.skeleton)
    elif isinstance(msg, StateChange):
        code = MsgType.StateChange
        payload = _STATE.pack(msg.tick, msg.state.value)
    elif isinstance(msg, TargetUpdate):
        code = MsgType.TargetUpdate
        oid = _blob(msg.object_id.encode("utf-8"))
        payload = (_TARGET.pack(msg.tick, msg.effector.value, 1 if msg.active else 0, len(oid))
                   + oid + _VEC3.pack(*msg.uvw))
    elif isinstance(msg, PlacementAnnounce):
        code = MsgType.PlacementAnnounce
        payload = _ANNOUNCE.pack(msg.tick, msg.x, msg.z, msg.yaw, msg.pose.value)
    elif isinstance(msg, FeaturePacket):
        code = MsgType.FeaturePacket
        fv = msg.features
        inter = fv.interpersonal
        payload = b"".join((
            _FEATURE.pack(msg.tick, 0 if inter is None else 1),
            b"" if inter is None else _VEC3.pack(*inter),
            _HEIGHTS.pack(*fv.pose_accommodation.tolist()),
            _encode_categories(fv.visual_attention),
            _encode_categories(fv.spatial),
        ))
    elif isinstance(msg, Bye):
        code = MsgType.Bye
        payload = b""
    else:
        raise ProtocolError(f"cannot encode {type(msg).__name__}")
    return HEADER.pack(MAGIC, WIRE_VERSION, code.value, len(payload)) + payload


# --- decoding ---------------------------------------------------------------

def _enum(cls, code: int, what: str):
    try:
        return cls(code)
    except ValueError:
        raise ProtocolError(f"unknown {what} code {code}") from None


def _bytes(p, at: int, n: int) -> bytes:
    if at + n > len(p):
        raise ProtocolError(f"a {n}-byte blob at offset {at} overruns the {len(p)}-byte payload")
    return bytes(p[at:at + n])


def _decode_categories(p, at: int) -> tuple[tuple[float | None, ...], int]:
    """A category table and the offset after it; codes must be known and
    strictly ascending, so each table has exactly one encoding."""
    out: list[float | None] = [None] * len(ObjectCategory)
    (count,) = _COUNT.unpack_from(p, at)
    at += _COUNT.size
    last = -1
    for _ in range(count):
        code, dist = _CATEGORY.unpack_from(p, at)
        at += _CATEGORY.size
        if code >= len(out):
            raise ProtocolError(f"unknown object category code {code}")
        if code <= last:
            raise ProtocolError(f"category code {code} after {last}: codes must be strictly ascending")
        last = code
        out[code] = dist
    return tuple(out), at


def _decode_payload(mtype: MsgType, p) -> tuple[Message, int]:
    """The message in payload `p` and the number of bytes it used."""
    if mtype is MsgType.PoseUpdate:
        v = POSE.unpack_from(p)
        n = v[-1]
        return PoseUpdate.from_layout(v, _bytes(p, POSE.size, n)), POSE.size + n
    if mtype is MsgType.Hello:
        v = _HELLO.unpack_from(p)
        return Hello(app_version=v[0], room_hash=v[1], skeleton=v[2:]), _HELLO.size
    if mtype is MsgType.StateChange:
        tick, code = _STATE.unpack_from(p)
        return StateChange(tick=tick, state=_enum(UserState, code, "user state")), _STATE.size
    if mtype is MsgType.TargetUpdate:
        tick, eff_code, active, n = _TARGET.unpack_from(p)
        effector = _enum(Effector, eff_code, "effector")
        try:
            object_id = _bytes(p, _TARGET.size, n).decode("utf-8")
        except UnicodeDecodeError:
            raise ProtocolError("target object id is not valid UTF-8") from None
        at = _TARGET.size + n
        return TargetUpdate(tick=tick, effector=effector, active=active != 0, object_id=object_id,
                            uvw=_VEC3.unpack_from(p, at)), at + _VEC3.size
    if mtype is MsgType.PlacementAnnounce:
        tick, x, z, yaw, code = _ANNOUNCE.unpack_from(p)
        pose = _enum(PlacementPose, code, "pose")
        return PlacementAnnounce(tick=tick, x=x, z=z, yaw=yaw, pose=pose), _ANNOUNCE.size
    if mtype is MsgType.FeaturePacket:
        tick, has_inter = _FEATURE.unpack_from(p)
        at = _FEATURE.size
        inter = None
        if has_inter:
            inter = _VEC3.unpack_from(p, at)
            at += _VEC3.size
        heights = _HEIGHTS.unpack_from(p, at)
        attention, at = _decode_categories(p, at + _HEIGHTS.size)
        spatial, at = _decode_categories(p, at)
        return FeaturePacket(tick=tick, features=FeatureVector(
            interpersonal=inter, pose_accommodation=heights,
            visual_attention=attention, spatial=spatial,
        )), at
    return Bye(), 0


_MSG_TYPES = {mtype.value: mtype for mtype in MsgType}


def decode_frame(buf, offset: int = 0) -> tuple[Message, int]:
    """Decode one frame; returns (message, offset just past the frame).

    Raises Truncated when the buffer ends before the frame's declared end,
    and ProtocolError for malformed content (bad magic, version or type, a
    payload that does not match its message's layout).
    """
    if offset + HEADER.size > len(buf):
        raise Truncated(f"frame header needs {HEADER.size} bytes at offset {offset}")
    magic, version, type_code, length = HEADER.unpack_from(buf, offset)
    if magic != MAGIC:
        raise ProtocolError(f"bad frame magic {magic!r}")
    if version != WIRE_VERSION:
        raise ProtocolError(f"unsupported wire version {version}")
    start = offset + HEADER.size
    end = start + length
    if end > len(buf):
        raise Truncated(f"frame payload needs {length} bytes at offset {start}")
    mtype = _MSG_TYPES.get(type_code)
    if mtype is None:
        raise ProtocolError(f"unknown message type code {type_code}")
    try:
        msg, used = _decode_payload(mtype, buf[start:end])
    except struct.error:
        raise ProtocolError(f"{mtype.name} payload of {length} bytes ends inside a field") from None
    if used != length:
        raise ProtocolError(f"{mtype.name} payload has {length - used} unread bytes")
    return msg, end


# --- session ----------------------------------------------------------------

class Phase(Enum):
    Handshake = 0
    Live = 1
    Closed = 2


_TICKED = (PoseUpdate, StateChange, TargetUpdate, PlacementAnnounce, FeaturePacket)


class Session:
    """One peer's view of the link: framing, ordering, and change dedup.

    The session starts in Handshake; it becomes Live once the local Hello
    was emitted (hello_frame) and the remote Hello arrived. Every live tick
    emits exactly one PoseUpdate; state changes and target updates are
    emitted only when they differ from the last sent values, so a quiet
    user costs one message per tick. Inbound streams are validated: Hello
    first, batches led by their PoseUpdate, ticks never decreasing.
    """

    def __init__(self, app_version: int, room_hash: int, skeleton: tuple[float, ...]):
        self.local_hello = Hello(app_version=app_version, room_hash=room_hash, skeleton=skeleton)
        self.remote_hello: Hello | None = None
        self.phase = Phase.Handshake
        self.received = Counter()
        self._hello_sent = False
        self._bye_sent = False
        self._rx = bytearray()
        self._last_in_tick: int | None = None
        self._last_out_tick: int | None = None
        # receivers assume Solo and no targets until told otherwise
        self._sent_state = UserState.Solo
        self._sent_targets: list[WireTarget | None] = [None] * len(Effector)

    # -- outbound

    def hello_frame(self) -> bytes:
        if self._hello_sent:
            raise ProtocolError("hello already sent")
        self._hello_sent = True
        if self.remote_hello is not None:
            self.phase = Phase.Live
        return encode_frame(self.local_hello)

    def tick(
        self,
        tick: int,
        pose: PoseUpdate,
        state: UserState,
        targets: list[WireTarget | None] | None = None,
        features: FeatureVector | None = None,
        placement: PlacementAnnounce | None = None,
    ) -> list[bytes]:
        """Emit one tick's outbound batch, deduplicating unchanged content.

        `targets` is the complete current target table indexed by `Effector`
        ((object id, normalized uvw) or None each, as `acquire_targets` gives
        it; any other length is a ValueError). The session diffs it, in
        `Effector` order, against what the peer already knows. `features`
        and `placement` are event-like and sent whenever given. Every frame
        is encoded before the session records the tick, its state and its
        targets as sent, so a refused batch (a bad argument, or a value
        that does not fit its wire field) changes nothing and the tick can
        be sent again.
        """
        if self.phase is not Phase.Live:
            raise ProtocolError(f"cannot send ticks in phase {self.phase.name}")
        if self._bye_sent:
            raise ProtocolError("cannot send ticks after bye")
        if self._last_out_tick is not None and tick <= self._last_out_tick:
            raise ProtocolError(
                f"outbound tick {tick} not after {self._last_out_tick}; "
                f"one pose update per tick"
            )
        if pose.tick != tick:
            raise ProtocolError(f"pose update tick {pose.tick} != batch tick {tick}")
        if targets is not None and len(targets) != len(Effector):
            raise ValueError(f"a target table holds {len(Effector)} entries, got {len(targets)}")
        if placement is not None and placement.tick != tick:
            raise ProtocolError(f"placement tick {placement.tick} != batch tick {tick}")
        frames = [encode_frame(pose)]

        if state is not self._sent_state:
            frames.append(encode_frame(StateChange(tick=tick, state=state)))

        sent_targets = self._sent_targets
        if targets is not None:
            sent_targets = sent_targets.copy()
            for eff, entry in zip(Effector, targets):
                quantized = None
                if entry is not None:
                    oid, uvw = entry
                    quantized = (oid, (f32(uvw[0]), f32(uvw[1]), f32(uvw[2])))
                if quantized == sent_targets[eff]:
                    continue
                sent_targets[eff] = quantized
                if quantized is None:
                    upd = TargetUpdate(tick=tick, effector=eff, active=False)
                else:
                    upd = TargetUpdate(tick=tick, effector=eff, active=True,
                                       object_id=quantized[0], uvw=quantized[1])
                frames.append(encode_frame(upd))

        if features is not None:
            frames.append(encode_frame(FeaturePacket(tick=tick, features=features)))

        if placement is not None:
            frames.append(encode_frame(placement))

        # every frame is encoded: only now is the batch recorded as sent
        self._last_out_tick = tick
        self._sent_state = state
        self._sent_targets = sent_targets
        return frames

    def bye_frame(self) -> bytes:
        # Outbound side is done, but the peer's in-flight frames (up to and
        # including its own bye) are still read; only an inbound Bye closes.
        self._bye_sent = True
        return encode_frame(Bye())

    # -- inbound

    def feed(self, data: bytes) -> list[Message]:
        """Consume stream bytes; returns the complete messages they finish.

        Partial frames are buffered for the next call. A malformed frame or
        a contract violation raises ProtocolError (TickRegression for
        backwards ticks) and closes the session.
        """
        if self.phase is Phase.Closed:
            return []
        self._rx.extend(data)
        return self.receive(self._frames())

    def receive(self, msgs) -> list[Message]:
        """Admit messages in stream order, as ``feed`` admits the ones it
        decodes, up to and including a Bye; returns those admitted. A
        contract violation raises ProtocolError and closes the session."""
        if self.phase is Phase.Closed:
            return []
        out: list[Message] = []
        try:
            for msg in msgs:
                self._admit(msg)
                out.append(msg)
                if isinstance(msg, Bye):
                    break
        except ProtocolError:
            self.phase = Phase.Closed
            raise
        return out

    def _frames(self):
        """The buffered frames' messages, each decoded as the one before it
        is admitted; a partial last frame stays buffered."""
        offset = 0
        while True:
            try:
                msg, offset = decode_frame(self._rx, offset)
            except Truncated:
                del self._rx[:offset]
                return
            yield msg

    def _admit(self, msg: Message) -> None:
        self.received[type(msg).__name__] += 1
        if isinstance(msg, Hello):
            if self.remote_hello is not None:
                raise ProtocolError("duplicate hello")
            self.remote_hello = msg
            if self._hello_sent:
                self.phase = Phase.Live
            return
        if isinstance(msg, Bye):
            self.phase = Phase.Closed
            return
        if self.remote_hello is None:
            raise ProtocolError(f"{type(msg).__name__} before hello")
        if isinstance(msg, _TICKED):
            last = self._last_in_tick
            if last is not None and msg.tick < last:
                raise TickRegression(f"tick {msg.tick} after tick {last}")
            if (last is None or msg.tick > last) and not isinstance(msg, PoseUpdate):
                raise ProtocolError(
                    f"tick {msg.tick} batch must lead with its pose update, "
                    f"got {type(msg).__name__}"
                )
            self._last_in_tick = msg.tick


def decode_all(data: bytes) -> list[Message]:
    """Decode a byte string holding whole frames; raises if any byte is
    left over or malformed."""
    out = []
    offset = 0
    while offset < len(data):
        msg, offset = decode_frame(data, offset)
        out.append(msg)
    return out
