"""Wire protocol and session rules for the two-peer avatar link.

Framing: every message travels as ``b"TD"``, version byte, type byte, and a
little-endian u32 payload length, followed by the payload. All floats on the
wire are little-endian f32; integers are little-endian. Peers exchange a
Hello first (app version, room hash, avatar skeleton), then stream per-tick
batches. A batch is all messages sharing one tick and always leads with the
PoseUpdate; exactly one PoseUpdate exists per live tick. State and target
messages are sent only when their content changes. Ticks never decrease; a
regression closes the session.

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

import numpy as np

from .placement import FeatureVector, PlacementPose
from .scene import HeightMap, ObjectCategory
from .states import Effector, UserState

MAGIC = b"TD"
WIRE_VERSION = 1
HEADER = struct.Struct("<2sBBI")

SKELETON_FLOATS = 13


class ProtocolError(ValueError):
    pass


class Truncated(ProtocolError):
    """A frame or payload ended before its declared content."""


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
class WireTransform:
    position: tuple[float, float, float]
    orientation: tuple[float, float, float, float]

    def __post_init__(self):
        try:
            px, py, pz = self.position
            qw, qx, qy, qz = self.orientation
        except ValueError:
            raise ProtocolError("transform needs 3 position and 4 orientation floats") from None
        object.__setattr__(self, "position", (float(px), float(py), float(pz)))
        object.__setattr__(self, "orientation", (float(qw), float(qx), float(qy), float(qz)))


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
    """One tick of tracked motion: world root, root-relative effectors."""

    tick: int
    root: WireTransform
    head: WireTransform
    left_hand: WireTransform
    right_hand: WireTransform
    left_foot: WireTransform
    right_foot: WireTransform
    fingers: bytes = b""


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

class _Writer:
    __slots__ = ("parts",)

    def __init__(self):
        self.parts: list[bytes] = []

    def u8(self, v: int):
        self.parts.append(struct.pack("<B", v))

    def u16(self, v: int):
        self.parts.append(struct.pack("<H", v))

    def u32(self, v: int):
        self.parts.append(struct.pack("<I", v))

    def u64(self, v: int):
        self.parts.append(struct.pack("<Q", v))

    def f(self, *vals: float):
        self.parts.append(struct.pack(f"<{len(vals)}f", *vals))

    def blob(self, data: bytes):
        if len(data) > 0xFFFF:
            raise ProtocolError(f"blob too long for u16 length: {len(data)}")
        self.u16(len(data))
        self.parts.append(bytes(data))

    def text(self, s: str):
        self.blob(s.encode("utf-8"))

    def transform(self, t: WireTransform):
        self.f(*t.position, *t.orientation)

    def payload(self) -> bytes:
        return b"".join(self.parts)


class _Reader:
    __slots__ = ("buf", "pos", "end")

    def __init__(self, buf, pos: int, end: int):
        self.buf = buf
        self.pos = pos
        self.end = end

    def _take(self, n: int) -> int:
        p = self.pos
        if p + n > self.end:
            raise Truncated(f"payload needs {n} more bytes at offset {p}")
        self.pos = p + n
        return p

    def u8(self) -> int:
        return self.buf[self._take(1)]

    def u16(self) -> int:
        p = self._take(2)
        return struct.unpack_from("<H", self.buf, p)[0]

    def u32(self) -> int:
        p = self._take(4)
        return struct.unpack_from("<I", self.buf, p)[0]

    def u64(self) -> int:
        p = self._take(8)
        return struct.unpack_from("<Q", self.buf, p)[0]

    def f(self, n: int) -> tuple[float, ...]:
        p = self._take(4 * n)
        return struct.unpack_from(f"<{n}f", self.buf, p)

    def blob(self) -> bytes:
        n = self.u16()
        p = self._take(n)
        return bytes(self.buf[p:p + n])

    def text(self) -> str:
        return self.blob().decode("utf-8")

    def transform(self) -> WireTransform:
        vals = self.f(7)
        return WireTransform(position=vals[0:3], orientation=vals[3:7])

    def done(self) -> bool:
        return self.pos == self.end


def _encode_heightmap(w: _Writer, hm: HeightMap) -> None:
    half_n = hm.half_n
    if half_n > 0xFF:
        raise ProtocolError(f"height map too large for the wire: half_n={half_n}")
    w.f(float(hm.center[0]), float(hm.center[1]), float(hm.center[2]))
    w.f(hm.radius, hm.cell_size)
    w.u8(half_n)
    # the cell count cannot be re-derived from f32 radius/cell (rounding can
    # change floor(radius/cell)), so the grid size and validity travel too
    side = 2 * half_n + 1
    flat_valid = np.asarray(hm.valid, dtype=bool).reshape(-1)
    bitmap = bytearray((side * side + 7) // 8)
    for i, v in enumerate(flat_valid):
        if v:
            bitmap[i >> 3] |= 1 << (i & 7)
    w.parts.append(bytes(bitmap))
    w.f(*(float(h) for h in np.asarray(hm.heights, dtype=float).reshape(-1)))


def _decode_heightmap(r: _Reader) -> HeightMap:
    cx, cy, cz = r.f(3)
    radius, cell = r.f(2)
    half_n = r.u8()
    side = 2 * half_n + 1
    count = side * side
    nbytes = (count + 7) // 8
    p = r._take(nbytes)
    bitmap = r.buf[p:p + nbytes]
    valid = np.array(
        [bool(bitmap[i >> 3] & (1 << (i & 7))) for i in range(count)], dtype=bool
    ).reshape(side, side)
    heights = np.array(r.f(count), dtype=float).reshape(side, side)
    return HeightMap(
        center=np.array([cx, cy, cz]), radius=radius, cell_size=cell,
        heights=heights, valid=valid,
    )


def _encode_categories(w: _Writer, table: tuple[float | None, ...]) -> None:
    present = [(code, dist) for code, dist in enumerate(table) if dist is not None]
    w.u8(len(present))
    for code, dist in present:
        w.u8(code)
        w.f(float(dist))


def _decode_categories(r: _Reader) -> tuple[float | None, ...]:
    """A category table; codes must be known and strictly ascending, so each
    table has exactly one encoding."""
    out: list[float | None] = [None] * len(ObjectCategory)
    last = -1
    for _ in range(r.u8()):
        code = r.u8()
        if code >= len(out):
            raise ProtocolError(f"unknown object category code {code}")
        if code <= last:
            raise ProtocolError(f"category code {code} after {last}: codes must be strictly ascending")
        last = code
        out[code] = r.f(1)[0]
    return tuple(out)


def encode_frame(msg: Message) -> bytes:
    w = _Writer()
    if isinstance(msg, Hello):
        code = MsgType.Hello
        w.u16(msg.app_version)
        w.u64(msg.room_hash)
        w.f(*msg.skeleton)
    elif isinstance(msg, PoseUpdate):
        code = MsgType.PoseUpdate
        w.u32(msg.tick)
        for t in (msg.root, msg.head, msg.left_hand, msg.right_hand,
                  msg.left_foot, msg.right_foot):
            w.transform(t)
        w.blob(msg.fingers)
    elif isinstance(msg, StateChange):
        code = MsgType.StateChange
        w.u32(msg.tick)
        w.u8(msg.state.value)
    elif isinstance(msg, TargetUpdate):
        code = MsgType.TargetUpdate
        w.u32(msg.tick)
        w.u8(msg.effector.value)
        w.u8(1 if msg.active else 0)
        w.text(msg.object_id)
        w.f(*msg.uvw)
    elif isinstance(msg, PlacementAnnounce):
        code = MsgType.PlacementAnnounce
        w.u32(msg.tick)
        w.f(msg.x, msg.z, msg.yaw)
        w.u8(msg.pose.value)
    elif isinstance(msg, FeaturePacket):
        code = MsgType.FeaturePacket
        w.u32(msg.tick)
        fv = msg.features
        if fv.interpersonal is None:
            w.u8(0)
        else:
            w.u8(1)
            w.f(*fv.interpersonal)
        _encode_heightmap(w, fv.pose_accommodation)
        _encode_categories(w, fv.visual_attention)
        _encode_categories(w, fv.spatial)
    elif isinstance(msg, Bye):
        code = MsgType.Bye
    else:
        raise ProtocolError(f"cannot encode {type(msg).__name__}")
    payload = w.payload()
    return HEADER.pack(MAGIC, WIRE_VERSION, code.value, len(payload)) + payload


def decode_frame(buf, offset: int = 0) -> tuple[Message, int]:
    """Decode one frame; returns (message, offset just past the frame).

    Raises Truncated when the buffer ends mid-frame and ProtocolError for
    malformed content (bad magic, unknown type, payload size mismatch).
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
    try:
        mtype = MsgType(type_code)
    except ValueError:
        raise ProtocolError(f"unknown message type {type_code}") from None

    r = _Reader(buf, start, end)
    msg: Message
    if mtype is MsgType.Hello:
        app_version = r.u16()
        room_hash = r.u64()
        msg = Hello(app_version=app_version, room_hash=room_hash, skeleton=r.f(SKELETON_FLOATS))
    elif mtype is MsgType.PoseUpdate:
        tick = r.u32()
        parts = [r.transform() for _ in range(6)]
        msg = PoseUpdate(tick, *parts, fingers=r.blob())
    elif mtype is MsgType.StateChange:
        tick = r.u32()
        code = r.u8()
        try:
            state = UserState(code)
        except ValueError:
            raise ProtocolError(f"unknown user state code {code}") from None
        msg = StateChange(tick=tick, state=state)
    elif mtype is MsgType.TargetUpdate:
        tick = r.u32()
        eff_code = r.u8()
        try:
            eff = Effector(eff_code)
        except ValueError:
            raise ProtocolError(f"unknown effector code {eff_code}") from None
        active = r.u8() != 0
        object_id = r.text()
        msg = TargetUpdate(tick=tick, effector=eff, active=active,
                           object_id=object_id, uvw=r.f(3))
    elif mtype is MsgType.PlacementAnnounce:
        tick = r.u32()
        x, z, yaw = r.f(3)
        pose_code = r.u8()
        try:
            pose = PlacementPose(pose_code)
        except ValueError:
            raise ProtocolError(f"unknown pose code {pose_code}") from None
        msg = PlacementAnnounce(tick=tick, x=x, z=z, yaw=yaw, pose=pose)
    elif mtype is MsgType.FeaturePacket:
        tick = r.u32()
        inter = tuple(r.f(3)) if r.u8() else None
        hm = _decode_heightmap(r)
        attention = _decode_categories(r)
        spatial = _decode_categories(r)
        msg = FeaturePacket(tick=tick, features=FeatureVector(
            interpersonal=inter, pose_accommodation=hm,
            visual_attention=attention, spatial=spatial,
        ))
    else:
        msg = Bye()
    if not r.done():
        raise ProtocolError(
            f"{mtype.name} payload has {end - r.pos} unread bytes"
        )
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
        self.sent = Counter()
        self.received = Counter()
        self._hello_sent = False
        self._bye_sent = False
        self._rx = bytearray()
        self._last_in_tick: int | None = None
        self._last_out_tick: int | None = None
        # receivers assume Solo and no targets until told otherwise
        self._sent_state = UserState.Solo
        self._sent_targets: dict[Effector, tuple | None] = {e: None for e in Effector}

    # -- outbound

    def hello_frame(self) -> bytes:
        if self._hello_sent:
            raise ProtocolError("hello already sent")
        self._hello_sent = True
        self.sent[MsgType.Hello.name] += 1
        if self.remote_hello is not None:
            self.phase = Phase.Live
        return encode_frame(self.local_hello)

    def tick(
        self,
        tick: int,
        pose: PoseUpdate,
        state: UserState,
        targets: dict[Effector, tuple[str, tuple[float, float, float]] | None] | None = None,
        features: FeatureVector | None = None,
        placement: PlacementAnnounce | None = None,
    ) -> list[bytes]:
        """Emit one tick's outbound batch, deduplicating unchanged content.

        `targets` is the complete current target map (effector to (object
        id, normalized uvw) or None); the session diffs it against what the
        peer already knows. `features` and `placement` are event-like and
        sent whenever given.
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
        self._last_out_tick = tick

        frames = [encode_frame(pose)]
        self.sent[MsgType.PoseUpdate.name] += 1

        if state is not self._sent_state:
            frames.append(encode_frame(StateChange(tick=tick, state=state)))
            self.sent[MsgType.StateChange.name] += 1
            self._sent_state = state

        if targets is not None:
            for eff in sorted(targets, key=lambda e: e.value):
                entry = targets[eff]
                quantized = None
                if entry is not None:
                    oid, uvw = entry
                    quantized = (oid, (f32(uvw[0]), f32(uvw[1]), f32(uvw[2])))
                if quantized == self._sent_targets.get(eff):
                    continue
                self._sent_targets[eff] = quantized
                if quantized is None:
                    upd = TargetUpdate(tick=tick, effector=eff, active=False)
                else:
                    upd = TargetUpdate(tick=tick, effector=eff, active=True,
                                       object_id=quantized[0], uvw=quantized[1])
                frames.append(encode_frame(upd))
                self.sent[MsgType.TargetUpdate.name] += 1

        if features is not None:
            frames.append(encode_frame(FeaturePacket(tick=tick, features=features)))
            self.sent[MsgType.FeaturePacket.name] += 1

        if placement is not None:
            if placement.tick != tick:
                raise ProtocolError(
                    f"placement tick {placement.tick} != batch tick {tick}"
                )
            frames.append(encode_frame(placement))
            self.sent[MsgType.PlacementAnnounce.name] += 1

        return frames

    def bye_frame(self) -> bytes:
        # Outbound side is done, but the peer's in-flight frames (up to and
        # including its own bye) are still read; only an inbound Bye closes.
        self._bye_sent = True
        self.sent[MsgType.Bye.name] += 1
        return encode_frame(Bye())

    # -- inbound

    def feed(self, data: bytes) -> list[Message]:
        """Consume stream bytes; returns the complete messages they finish.

        Partial frames are buffered for the next call. Contract violations
        raise (TickRegression for backwards ticks) and close the session.
        """
        if self.phase is Phase.Closed:
            return []
        self._rx.extend(data)
        out: list[Message] = []
        offset = 0
        try:
            while True:
                try:
                    msg, offset = decode_frame(self._rx, offset)
                except Truncated:
                    break
                self._admit(msg)
                out.append(msg)
                if isinstance(msg, Bye):
                    break
        except ProtocolError:
            self.phase = Phase.Closed
            raise
        finally:
            del self._rx[:offset]
        return out

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
