"""Framed binary control protocol between controller and reader.

A reduced reader-control vocabulary over one simple framing:

    offset  size  field
    0       1     protocol version, always 1
    1       2     message type, big-endian
    3       4     message id, big-endian
    7       4     frame length in bytes including this 11-byte header
    11      ...   payload, length - 11 bytes

All integers are big-endian, EPCs travel as 12 raw bytes, strings as a
u16 byte length followed by UTF-8.  RSSI values travel as signed
milli-dBm so frames round-trip bit-exactly.  The full payload layouts
live in docs/wire-format.md, which is the normative description; the
codec here and the golden fixtures in the test suite follow it.

``decode`` is total: any byte string either yields a message or raises
``DecodeError`` with a specific kind, never anything else.
"""

from __future__ import annotations

import enum
import functools
import struct
from dataclasses import dataclass, replace
from typing import ClassVar

from .gen2 import AccessResult

PROTOCOL_VERSION = 1
HEADER_LEN = 11
MAX_PAYLOAD = 2**32 - 12  # largest payload whose frame length fits in u32
#: Longest frame a FrameStream buffers; a longer declared length ends the
#: connection.  The largest frames tpcbed sends belong to a reprogram that
#: writes the whole 64 KiB address span one word per op: 229,411 bytes of
#: ADD_ACCESSSPEC, and 720,911 bytes of RO_ACCESS_REPORT in reply.
MAX_FRAME_LEN = 1 << 20
EPC_LEN = 12


class MsgType(enum.IntEnum):
    GET_CAPABILITIES = 1
    CAPABILITIES_RESPONSE = 2
    ADD_ROSPEC = 3
    ADD_ACCESSSPEC = 4
    START_ROSPEC = 5
    STOP_ROSPEC = 6
    RO_ACCESS_REPORT = 7
    KEEPALIVE = 8
    KEEPALIVE_ACK = 9
    ERROR = 10
    SUCCESS = 11


class ErrorCode(enum.IntEnum):
    MALFORMED = 1
    UNKNOWN_ROSPEC = 2
    UNKNOWN_ACCESSSPEC = 3
    BUSY = 4
    BAD_STATE = 5
    UNKNOWN_ANTENNA = 6


class DecodeErrorKind(enum.Enum):
    SHORT_HEADER = "short-header"
    BAD_VERSION = "bad-version"
    LENGTH_MISMATCH = "length-mismatch"
    UNKNOWN_TYPE = "unknown-type"
    MALFORMED_PAYLOAD = "malformed-payload"


class DecodeError(ValueError):
    def __init__(self, kind: DecodeErrorKind, detail: str = ""):
        super().__init__(f"{kind.value}: {detail}" if detail else kind.value)
        self.kind = kind


class EncodeError(ValueError):
    pass


# -- access operation payloads ------------------------------------------


class OpKind(enum.IntEnum):
    READ = 0
    BLOCK_WRITE = 1
    GOTO_BIOS = 2
    CHECKSUM = 3
    COMMIT = 4


#: Each op kind's name, as access results and event lines carry it.
OP_KIND_NAMES = {
    OpKind.READ: "read",
    OpKind.BLOCK_WRITE: "block-write",
    OpKind.GOTO_BIOS: "goto-bios",
    OpKind.CHECKSUM: "checksum",
    OpKind.COMMIT: "commit",
}
_OP_CODES = {name: int(kind) for kind, name in OP_KIND_NAMES.items()}
# The codes as plain ints for the codec's per-op loops, where reading an
# enum member costs several times the comparison it feeds.
_READ, _BLOCK_WRITE, _GOTO_BIOS, _CHECKSUM, _COMMIT = (int(k) for k in OpKind)


@dataclass(frozen=True)
class ReadOp:
    kind: ClassVar[str] = OP_KIND_NAMES[OpKind.READ]
    start_address: int
    word_count: int


# Not frozen, like AccessResult and for the same reason: one is built per
# word chunk on each side of the wire.  No code mutates or hashes one.
@dataclass(slots=True)
class BlockWriteOp:
    kind: ClassVar[str] = OP_KIND_NAMES[OpKind.BLOCK_WRITE]
    start_address: int
    words: tuple[int, ...]


@dataclass(frozen=True)
class GotoBiosOp:
    kind: ClassVar[str] = OP_KIND_NAMES[OpKind.GOTO_BIOS]


@dataclass(frozen=True)
class ChecksumOp:
    kind: ClassVar[str] = OP_KIND_NAMES[OpKind.CHECKSUM]
    start_address: int
    byte_length: int


@dataclass(frozen=True)
class CommitOp:
    """Activates a staged image: per-segment checksums plus behavior flags."""

    kind: ClassVar[str] = OP_KIND_NAMES[OpKind.COMMIT]
    segments: tuple[tuple[int, int, int], ...]  # (start, byte_length, checksum)
    obeys_goto_bios: bool = True
    responds_to_inventory: bool = True


AccessOp = ReadOp | BlockWriteOp | GotoBiosOp | ChecksumOp | CommitOp


# -- messages -------------------------------------------------------------


@dataclass(frozen=True)
class GetCapabilities:
    msg_id: int


@dataclass(frozen=True)
class CapabilitiesResponse:
    msg_id: int
    model: str
    antenna_ids: tuple[int, ...]


@dataclass(frozen=True)
class AddROSpec:
    msg_id: int
    rospec_id: int
    antenna_ids: tuple[int, ...]
    duration_ms: int
    report_trigger: str = "end"  # "end" | "periodic"
    report_interval_ms: int = 0


@dataclass(frozen=True)
class AddAccessSpec:
    msg_id: int
    accessspec_id: int
    target_epc: bytes
    antenna_ids: tuple[int, ...]  # empty means pick the best link
    max_retries: int
    ops: tuple[AccessOp, ...]


@dataclass(frozen=True)
class StartROSpec:
    msg_id: int
    rospec_id: int


@dataclass(frozen=True)
class StopROSpec:
    msg_id: int
    rospec_id: int


@dataclass(frozen=True)
class TagReportEntry:
    epc: bytes
    antenna_id: int
    read_count: int
    mean_rssi_mdbm: int
    last_rssi_mdbm: int
    first_seen_ms: int
    last_seen_ms: int


@dataclass(frozen=True)
class ROAccessReport:
    msg_id: int
    tag_reports: tuple[TagReportEntry, ...] = ()
    access_results: tuple[AccessResult, ...] = ()


@dataclass(frozen=True)
class Keepalive:
    msg_id: int


@dataclass(frozen=True)
class KeepaliveAck:
    msg_id: int


@dataclass(frozen=True)
class ErrorMessage:
    msg_id: int
    code: int
    text: str


@dataclass(frozen=True)
class SuccessMessage:
    msg_id: int


Message = (
    GetCapabilities
    | CapabilitiesResponse
    | AddROSpec
    | AddAccessSpec
    | StartROSpec
    | StopROSpec
    | ROAccessReport
    | Keepalive
    | KeepaliveAck
    | ErrorMessage
    | SuccessMessage
)


# -- encoding --------------------------------------------------------------

# Precompiled layouts.  ">" is big-endian with no padding, so a composite
# layout packs exactly the bytes of its fields written one after another.
_U8 = struct.Struct(">B")
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_HEADER = struct.Struct(">BHII")
_U16_PAIR = struct.Struct(">HH")
_ROSPEC_TAIL = struct.Struct(">IBI")  # duration, trigger, interval
_OP_HEAD = struct.Struct(">BHH")  # kind, address, word count or byte length
_COMMIT_HEAD = struct.Struct(">BBH")  # kind, flags, segment count
_SEGMENT = struct.Struct(">HHH")  # start, byte length, checksum
_TAG_REPORT = struct.Struct(">12sBIiiQQ")
_RESULT_HEAD = struct.Struct(">B12sBIH")  # kind, epc, success, attempts, words
# The head and the detail length that follows it when there are no words:
# the whole of a result with neither words nor detail.
_BARE_RESULT = struct.Struct(">B12sBIHH")


@functools.lru_cache(maxsize=64)
def _words(count: int) -> struct.Struct:
    """The layout of ``count`` u16 words."""
    return struct.Struct(f">{count}H")


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise EncodeError("string too long for u16 length prefix")
    return _U16.pack(len(raw)) + raw


def _pack_epc(epc: bytes) -> bytes:
    if len(epc) != EPC_LEN:
        raise EncodeError(f"EPC must be {EPC_LEN} bytes, got {len(epc)}")
    return bytes(epc)


def _pack_antennas(ids: tuple[int, ...]) -> bytes:
    if len(ids) > 0xFF:
        raise EncodeError("too many antenna ids")
    return _U8.pack(len(ids)) + bytes(ids)


def _pack_op(op: AccessOp, out: list[bytes]) -> None:
    if isinstance(op, BlockWriteOp):
        n = len(op.words)
        out.append(_OP_HEAD.pack(_BLOCK_WRITE, op.start_address, n))
        out.append(_words(n).pack(*op.words))
    elif isinstance(op, ReadOp):
        out.append(_OP_HEAD.pack(_READ, op.start_address, op.word_count))
    elif isinstance(op, GotoBiosOp):
        out.append(_U8.pack(_GOTO_BIOS))
    elif isinstance(op, ChecksumOp):
        out.append(_OP_HEAD.pack(_CHECKSUM, op.start_address, op.byte_length))
    elif isinstance(op, CommitOp):
        flags = (1 if op.obeys_goto_bios else 0) | (
            2 if op.responds_to_inventory else 0
        )
        out.append(_COMMIT_HEAD.pack(_COMMIT, flags, len(op.segments)))
        for start, length, checksum in op.segments:
            out.append(_SEGMENT.pack(start, length, checksum))
    else:
        raise EncodeError(f"unknown access op {op!r}")


def _pack_payload(msg: Message, out: list[bytes]) -> MsgType:
    """Append the payload of ``msg`` to ``out``; return its message type."""
    if isinstance(msg, GetCapabilities):
        return MsgType.GET_CAPABILITIES
    if isinstance(msg, CapabilitiesResponse):
        out.append(_pack_antennas(msg.antenna_ids))
        out.append(_pack_str(msg.model))
        return MsgType.CAPABILITIES_RESPONSE
    if isinstance(msg, AddROSpec):
        trigger = {"end": 0, "periodic": 1}.get(msg.report_trigger)
        if trigger is None:
            raise EncodeError(f"unknown report trigger {msg.report_trigger!r}")
        out.append(_U32.pack(msg.rospec_id))
        out.append(_pack_antennas(msg.antenna_ids))
        out.append(
            _ROSPEC_TAIL.pack(msg.duration_ms, trigger, msg.report_interval_ms)
        )
        return MsgType.ADD_ROSPEC
    if isinstance(msg, AddAccessSpec):
        out.append(_U32.pack(msg.accessspec_id))
        out.append(_pack_epc(msg.target_epc))
        out.append(_pack_antennas(msg.antenna_ids))
        if not 0 <= msg.max_retries <= 0xFFFF:
            raise EncodeError("max_retries must fit in u16")
        out.append(_U16_PAIR.pack(msg.max_retries, len(msg.ops)))
        for op in msg.ops:
            _pack_op(op, out)
        return MsgType.ADD_ACCESSSPEC
    if isinstance(msg, StartROSpec):
        out.append(_U32.pack(msg.rospec_id))
        return MsgType.START_ROSPEC
    if isinstance(msg, StopROSpec):
        out.append(_U32.pack(msg.rospec_id))
        return MsgType.STOP_ROSPEC
    if isinstance(msg, ROAccessReport):
        out.append(_U16.pack(len(msg.tag_reports)))
        for entry in msg.tag_reports:
            out.append(
                _TAG_REPORT.pack(
                    _pack_epc(entry.epc),
                    entry.antenna_id,
                    entry.read_count,
                    entry.mean_rssi_mdbm,
                    entry.last_rssi_mdbm,
                    entry.first_seen_ms,
                    entry.last_seen_ms,
                )
            )
        out.append(_U16.pack(len(msg.access_results)))
        # Every result of one access call names the same target, so an
        # EPC is checked and packed only when it differs from the last.
        target = epc = None
        for result in msg.access_results:
            code = _OP_CODES.get(result.kind)
            if code is None:
                raise EncodeError(f"unknown access op kind {result.kind!r}")
            if epc is None or result.target_epc != target:
                target = result.target_epc
                epc = _pack_epc(target)
            success = 1 if result.success else 0
            attempts = result.attempts
            data = result.data
            if not data and not result.detail:
                out.append(_BARE_RESULT.pack(code, epc, success, attempts, 0, 0))
                continue
            out.append(_RESULT_HEAD.pack(code, epc, success, attempts, len(data)))
            out.append(_words(len(data)).pack(*data))
            out.append(_pack_str(result.detail or ""))  # None travels as ""
        return MsgType.RO_ACCESS_REPORT
    if isinstance(msg, Keepalive):
        return MsgType.KEEPALIVE
    if isinstance(msg, KeepaliveAck):
        return MsgType.KEEPALIVE_ACK
    if isinstance(msg, ErrorMessage):
        out.append(_U16.pack(msg.code))
        out.append(_pack_str(msg.text))
        return MsgType.ERROR
    if isinstance(msg, SuccessMessage):
        return MsgType.SUCCESS
    raise EncodeError(f"cannot encode {type(msg).__name__}")


def encode(msg: Message) -> bytes:
    """Serialize a message to one frame.  Deterministic: same message, same bytes."""
    parts = [b""]  # the header, once the payload length is known
    msg_type = _pack_payload(msg, parts)
    payload_len = sum(map(len, parts))
    if payload_len > MAX_PAYLOAD:
        raise EncodeError("payload too large for the u32 frame length")
    if not 0 <= msg.msg_id <= 0xFFFFFFFF:
        raise EncodeError("msg_id must fit in u32")
    parts[0] = _HEADER.pack(
        PROTOCOL_VERSION, msg_type, msg.msg_id, HEADER_LEN + payload_len
    )
    return b"".join(parts)


def encode_frames(msg: Message) -> list[bytes]:
    """``msg`` as frames of at most MAX_FRAME_LEN bytes, where it can be split.

    Only an access report is ever split: its results are spread over
    several reports, in order, and a reply may carry any number of
    reports before its terminal message.  Anything else is one frame.
    """
    frame = encode(msg)
    if (
        len(frame) <= MAX_FRAME_LEN
        or not isinstance(msg, ROAccessReport)
        or msg.tag_reports
        or len(msg.access_results) < 2
    ):
        return [frame]
    half = len(msg.access_results) // 2
    first = replace(msg, access_results=msg.access_results[:half])
    rest = replace(msg, access_results=msg.access_results[half:])
    return encode_frames(first) + encode_frames(rest)


# -- decoding --------------------------------------------------------------


def _truncated() -> DecodeError:
    return DecodeError(DecodeErrorKind.MALFORMED_PAYLOAD, "payload truncated")


class _Cursor:
    """Forward-only reader over one frame's payload, which runs from
    ``pos`` to the end of ``data``; ``decode`` turns a read past the end
    or bad UTF-8 into MALFORMED_PAYLOAD."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int):
        self.data = data
        self.pos = pos

    def read(self, layout: struct.Struct) -> tuple:
        fields = layout.unpack_from(self.data, self.pos)
        self.pos += layout.size
        return fields

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise _truncated()
        out = self.data[self.pos : end]
        self.pos = end
        return out

    def u16(self) -> int:
        return self.read(_U16)[0]

    def u32(self) -> int:
        return self.read(_U32)[0]

    def text(self) -> str:
        return self.take(self.u16()).decode("utf-8")

    def antennas(self) -> tuple[int, ...]:
        (count,) = self.read(_U8)
        return tuple(self.take(count))

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise DecodeError(
                DecodeErrorKind.MALFORMED_PAYLOAD,
                f"{len(self.data) - self.pos} trailing payload bytes",
            )


# The two loops below run once per access op or result, so they read with
# precompiled layouts at a local offset rather than through the cursor.


def _parse_ops(data: bytes, pos: int, count: int) -> tuple[tuple[AccessOp, ...], int]:
    """``count`` access ops from ``pos`` on, and the offset after them."""
    ops: list[AccessOp] = []
    append = ops.append
    pair = _U16_PAIR.unpack_from
    for _ in range(count):
        kind = data[pos]
        if kind == _BLOCK_WRITE:
            start, n = pair(data, pos + 1)
            append(BlockWriteOp(start, _words(n).unpack_from(data, pos + 5)))
            pos += 5 + 2 * n
        elif kind == _READ:
            append(ReadOp(*pair(data, pos + 1)))
            pos += 5
        elif kind == _GOTO_BIOS:
            append(GotoBiosOp())
            pos += 1
        elif kind == _CHECKSUM:
            append(ChecksumOp(*pair(data, pos + 1)))
            pos += 5
        elif kind == _COMMIT:
            _, flags, n = _COMMIT_HEAD.unpack_from(data, pos)
            pos += _COMMIT_HEAD.size
            segments = tuple(
                _SEGMENT.unpack_from(data, pos + 6 * i) for i in range(n)
            )
            pos += 6 * n
            append(CommitOp(segments, bool(flags & 1), bool(flags & 2)))
        else:
            raise DecodeError(
                DecodeErrorKind.MALFORMED_PAYLOAD, f"unknown op kind {kind}"
            )
    return tuple(ops), pos


def _parse_results(
    data: bytes, pos: int, count: int
) -> tuple[tuple[AccessResult, ...], int]:
    """``count`` access results from ``pos`` on, and the offset after them."""
    results: list[AccessResult] = []
    append = results.append
    for _ in range(count):
        # Read as a bare result first: one with words has its first word
        # where a bare one has its detail length.
        code, epc, success, attempts, n, size = _BARE_RESULT.unpack_from(data, pos)
        kind = OP_KIND_NAMES.get(code)
        if kind is None:
            raise DecodeError(
                DecodeErrorKind.MALFORMED_PAYLOAD, f"unknown op kind {code}"
            )
        pos += _RESULT_HEAD.size
        words = ()
        if n:
            words = _words(n).unpack_from(data, pos)
            (size,) = _U16.unpack_from(data, pos + 2 * n)
            pos += 2 * n
        pos += 2  # the detail length
        detail = None
        if size:
            if pos + size > len(data):
                raise _truncated()
            detail = data[pos : pos + size].decode("utf-8")
            pos += size
        append(AccessResult(kind, epc, success != 0, attempts, detail, words))
    return tuple(results), pos


def _parse_payload(msg_type: int, msg_id: int, cur: _Cursor) -> Message:
    if msg_type == MsgType.GET_CAPABILITIES:
        return GetCapabilities(msg_id)
    if msg_type == MsgType.CAPABILITIES_RESPONSE:
        return CapabilitiesResponse(msg_id, antenna_ids=cur.antennas(), model=cur.text())
    if msg_type == MsgType.ADD_ROSPEC:
        rospec_id = cur.u32()
        antenna_ids = cur.antennas()
        duration, trigger, interval = cur.read(_ROSPEC_TAIL)
        if trigger not in (0, 1):
            raise DecodeError(
                DecodeErrorKind.MALFORMED_PAYLOAD, f"unknown trigger {trigger}"
            )
        return AddROSpec(
            msg_id,
            rospec_id,
            antenna_ids,
            duration,
            "end" if trigger == 0 else "periodic",
            interval,
        )
    if msg_type == MsgType.ADD_ACCESSSPEC:
        spec_id = cur.u32()
        epc = cur.take(EPC_LEN)
        antenna_ids = cur.antennas()
        max_retries, op_count = cur.read(_U16_PAIR)
        ops, cur.pos = _parse_ops(cur.data, cur.pos, op_count)
        return AddAccessSpec(msg_id, spec_id, epc, antenna_ids, max_retries, ops)
    if msg_type == MsgType.START_ROSPEC:
        return StartROSpec(msg_id, cur.u32())
    if msg_type == MsgType.STOP_ROSPEC:
        return StopROSpec(msg_id, cur.u32())
    if msg_type == MsgType.RO_ACCESS_REPORT:
        tag_reports = tuple(
            TagReportEntry(*cur.read(_TAG_REPORT)) for _ in range(cur.u16())
        )
        result_count = cur.u16()
        access_results, cur.pos = _parse_results(cur.data, cur.pos, result_count)
        return ROAccessReport(msg_id, tag_reports, access_results)
    if msg_type == MsgType.KEEPALIVE:
        return Keepalive(msg_id)
    if msg_type == MsgType.KEEPALIVE_ACK:
        return KeepaliveAck(msg_id)
    if msg_type == MsgType.ERROR:
        return ErrorMessage(msg_id, code=cur.u16(), text=cur.text())
    if msg_type == MsgType.SUCCESS:
        return SuccessMessage(msg_id)
    raise DecodeError(DecodeErrorKind.UNKNOWN_TYPE, f"message type {msg_type}")


def _parse_header(data: bytes) -> tuple[int, int, int]:
    """Returns (msg_type, msg_id, frame_length) after version/shape checks."""
    if len(data) < HEADER_LEN:
        raise DecodeError(
            DecodeErrorKind.SHORT_HEADER, f"{len(data)} bytes, need {HEADER_LEN}"
        )
    version, msg_type, msg_id, length = _HEADER.unpack_from(data)
    if version != PROTOCOL_VERSION:
        raise DecodeError(DecodeErrorKind.BAD_VERSION, f"version {version}")
    if length < HEADER_LEN:
        raise DecodeError(
            DecodeErrorKind.LENGTH_MISMATCH, f"declared length {length} < header"
        )
    return msg_type, msg_id, length


def decode(data: bytes) -> Message:
    """Decode exactly one frame; the declared length must match the input.

    Error kinds, in checking order: short-header, bad-version,
    length-mismatch, unknown-type, malformed-payload.
    """
    msg_type, msg_id, length = _parse_header(data)
    if length != len(data):
        raise DecodeError(
            DecodeErrorKind.LENGTH_MISMATCH,
            f"declared {length}, got {len(data)} bytes",
        )
    if msg_type not in MsgType._value2member_map_:
        raise DecodeError(DecodeErrorKind.UNKNOWN_TYPE, f"message type {msg_type}")
    cur = _Cursor(data, HEADER_LEN)
    try:
        msg = _parse_payload(msg_type, msg_id, cur)
    except (struct.error, IndexError):  # a read past the end of the payload
        raise _truncated() from None
    except UnicodeDecodeError:
        raise DecodeError(DecodeErrorKind.MALFORMED_PAYLOAD, "bad utf-8") from None
    cur.finish()
    return msg


class FrameStream:
    """Incremental decoder for back-to-back frames on a byte stream.

    ``feed`` buffers bytes and returns everything that completed: decoded
    messages, or DecodeError instances for frames that were well-framed
    but undecodable (unknown type, bad payload) so a server can answer
    them and keep the connection.  Framing-level corruption (bad version,
    impossible length, a length over MAX_FRAME_LEN) raises, because frame
    boundaries are lost then.
    """

    def __init__(self) -> None:
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[Message | DecodeError]:
        self._buf.extend(data)
        out: list[Message | DecodeError] = []
        while len(self._buf) >= HEADER_LEN:
            _, _, length = _parse_header(self._buf)
            if length > MAX_FRAME_LEN:
                raise DecodeError(
                    DecodeErrorKind.LENGTH_MISMATCH,
                    f"declared length {length} > {MAX_FRAME_LEN}",
                )
            if len(self._buf) < length:
                break
            frame = bytes(self._buf[:length])
            del self._buf[:length]  # consume exactly the declared frame
            try:
                out.append(decode(frame))
            except DecodeError as err:
                out.append(err)
        return out

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)
