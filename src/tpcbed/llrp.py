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
from dataclasses import astuple, dataclass, replace

from .gen2 import (
    AccessOp,
    AccessResult,
    BlockWriteOp,
    ChecksumOp,
    CommitOp,
    GotoBiosOp,
    ReadOp,
)
from .tag import EPC_LEN

PROTOCOL_VERSION = 1
HEADER_LEN = 11
MAX_PAYLOAD = 2**32 - 12  # largest payload whose frame length fits in u32
#: Longest frame a FrameStream buffers; a longer declared length ends the
#: connection.  The largest frames tpcbed sends belong to a reprogram that
#: writes the whole 64 KiB address span one word per op: 229,411 bytes of
#: ADD_ACCESSSPEC, and 720,911 bytes of RO_ACCESS_REPORT in reply.
MAX_FRAME_LEN = 1 << 20


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


# -- access op wire codes -----------------------------------------------


#: Each op type by its wire code.
_OP_TYPES = (ReadOp, BlockWriteOp, GotoBiosOp, ChecksumOp, CommitOp)
# The same codes as plain ints: the codec's per-op loops compare them, where
# reading an enum member costs several times the comparison.
_READ, _BLOCK_WRITE, _GOTO_BIOS, _CHECKSUM, _COMMIT = range(len(_OP_TYPES))
#: Each op kind's name by its wire code, as results and event lines carry it.
OP_KIND_NAMES = {code: op_type.kind for code, op_type in enumerate(_OP_TYPES)}
_OP_CODES = {name: code for code, name in OP_KIND_NAMES.items()}


class WriteRunMemo:
    """The ops, and their packed bytes, of the last spec made of block
    writes (``gen2.BlockWriteOp``) alone that one end of a connection
    packed or read.

    ``encode`` reuses ``packed`` for a spec whose ops are the tuple
    ``ops`` itself, ``decode`` reuses ``ops`` for a spec of as many ops
    whose op bytes start with ``packed``: the bytes and ops are those of
    packing or reading afresh.
    """

    __slots__ = ("ops", "packed")

    def __init__(self) -> None:
        self.ops: tuple[BlockWriteOp, ...] = ()
        self.packed = b""


# -- messages -------------------------------------------------------------


@dataclass(frozen=True)
class GetCapabilities:
    msg_id: int


@dataclass(frozen=True)
class CapabilitiesResponse:
    msg_id: int
    model: str
    antenna_ids: tuple[int, ...]


#: ADD_ROSPEC's report triggers by wire code.
_TRIGGERS = ("end", "periodic")


@dataclass(frozen=True)
class AddROSpec:
    msg_id: int
    rospec_id: int
    antenna_ids: tuple[int, ...]
    duration_ms: int
    report_trigger: str = "end"  # one of _TRIGGERS
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

#: Each message class by its wire type.
_MESSAGE_CLASSES: dict[int, type] = {
    MsgType.GET_CAPABILITIES: GetCapabilities,
    MsgType.CAPABILITIES_RESPONSE: CapabilitiesResponse,
    MsgType.ADD_ROSPEC: AddROSpec,
    MsgType.ADD_ACCESSSPEC: AddAccessSpec,
    MsgType.START_ROSPEC: StartROSpec,
    MsgType.STOP_ROSPEC: StopROSpec,
    MsgType.RO_ACCESS_REPORT: ROAccessReport,
    MsgType.KEEPALIVE: Keepalive,
    MsgType.KEEPALIVE_ACK: KeepaliveAck,
    MsgType.ERROR: ErrorMessage,
    MsgType.SUCCESS: SuccessMessage,
}
_WIRE_TYPES = {cls: msg_type for msg_type, cls in _MESSAGE_CLASSES.items()}


# -- encoding --------------------------------------------------------------

# Precompiled layouts.  ">" is big-endian with no padding, so a composite
# layout packs exactly the bytes of its fields written one after another.
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_HEADER = struct.Struct(">BHII")
_U16_PAIR = struct.Struct(">HH")
_ROSPEC_TAIL = struct.Struct(">IBI")  # duration, trigger, interval
_SPEC_HEAD = struct.Struct(">I12s")  # access spec id, target EPC
_OP_HEAD = struct.Struct(">BHH")  # kind, address, word count or byte length
_COMMIT_HEAD = struct.Struct(">BBH")  # kind, flags, segment count
_SEGMENT = struct.Struct(">HHH")  # start, byte length, checksum
_TAG_REPORT = struct.Struct(">12sBIiiQQ")  # TagReportEntry's fields in order
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
    return bytes((len(ids), *ids))


def _pack_op(op: AccessOp, out: list[bytes]) -> None:
    """Append the bytes of ``op`` to ``out``."""
    if isinstance(op, BlockWriteOp):
        words = op.words
        out.append(_OP_HEAD.pack(_BLOCK_WRITE, op.start_address, len(words)))
        out.append(_words(len(words)).pack(*words))
    elif isinstance(op, ReadOp):
        out.append(_OP_HEAD.pack(_READ, op.start_address, op.word_count))
    elif isinstance(op, GotoBiosOp):
        out.append(bytes((_GOTO_BIOS,)))
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


def _pack_payload(msg: Message, out: list[bytes], memo: WriteRunMemo | None) -> None:
    """Append the payload of ``msg``, one of _MESSAGE_CLASSES, to ``out``."""
    if isinstance(msg, CapabilitiesResponse):
        out.append(_pack_antennas(msg.antenna_ids))
        out.append(_pack_str(msg.model))
    elif isinstance(msg, AddROSpec):
        if msg.report_trigger not in _TRIGGERS:
            raise EncodeError(f"unknown report trigger {msg.report_trigger!r}")
        trigger = _TRIGGERS.index(msg.report_trigger)
        out.append(_U32.pack(msg.rospec_id))
        out.append(_pack_antennas(msg.antenna_ids))
        out.append(
            _ROSPEC_TAIL.pack(msg.duration_ms, trigger, msg.report_interval_ms)
        )
    elif isinstance(msg, AddAccessSpec):
        out.append(_SPEC_HEAD.pack(msg.accessspec_id, _pack_epc(msg.target_epc)))
        out.append(_pack_antennas(msg.antenna_ids))
        if not 0 <= msg.max_retries <= 0xFFFF:
            raise EncodeError("max_retries must fit in u16")
        ops = msg.ops
        out.append(_U16_PAIR.pack(msg.max_retries, len(ops)))
        if memo is not None and ops is memo.ops:
            out.append(memo.packed)
            return
        first = len(out)
        for op in ops:
            _pack_op(op, out)
        if memo is not None and type(ops) is tuple:
            if all(isinstance(op, BlockWriteOp) for op in ops):
                memo.ops, memo.packed = ops, b"".join(out[first:])
    elif isinstance(msg, (StartROSpec, StopROSpec)):
        out.append(_U32.pack(msg.rospec_id))
    elif isinstance(msg, ROAccessReport):
        out.append(_U16.pack(len(msg.tag_reports)))
        for entry in msg.tag_reports:
            _pack_epc(entry.epc)  # "12s" would pad or cut a wrong length
            out.append(_TAG_REPORT.pack(*astuple(entry)))
        out.append(_U16.pack(len(msg.access_results)))
        # Each distinct result object is packed once, keyed by identity:
        # the report holds every result until the frame is built.
        packed: dict[int, bytes] = {}
        for result in msg.access_results:
            raw = packed.get(id(result))
            if raw is None:
                code = _OP_CODES.get(result.kind)
                if code is None:
                    raise EncodeError(f"unknown access op kind {result.kind!r}")
                epc = _pack_epc(result.target_epc)
                success = 1 if result.success else 0
                attempts = result.attempts
                data = result.data
                if not data and not result.detail:
                    raw = _BARE_RESULT.pack(code, epc, success, attempts, 0, 0)
                else:
                    raw = (
                        _RESULT_HEAD.pack(code, epc, success, attempts, len(data))
                        + _words(len(data)).pack(*data)
                        + _pack_str(result.detail or "")  # None travels as ""
                    )
                packed[id(result)] = raw
            out.append(raw)
    elif isinstance(msg, ErrorMessage):
        out.append(_U16.pack(msg.code))
        out.append(_pack_str(msg.text))
    # the other four messages have an empty payload


def encode(msg: Message, memo: WriteRunMemo | None = None) -> bytes:
    """Serialize a message to one frame.  Deterministic: same message, same bytes.

    A field that does not fit its wire width raises EncodeError, as does
    anything else the frame cannot carry.  With a ``memo``, an
    ADD_ACCESSSPEC made only of block writes keeps its packed ops there,
    and the next spec carrying the same ops tuple reuses them.
    """
    msg_type = _WIRE_TYPES.get(type(msg))
    if msg_type is None:
        raise EncodeError(f"cannot encode {type(msg).__name__}")
    parts = [b""]  # the header, once the payload length is known
    try:
        _pack_payload(msg, parts, memo)
    except EncodeError:
        raise
    except (struct.error, ValueError) as exc:  # a field out of its range
        raise EncodeError(f"cannot encode {type(msg).__name__}: {exc}") from None
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


# Each parser below takes the frame and the offset of a field in its
# payload, and returns the field and the offset after it.  ``decode``
# turns a read past the end or bad UTF-8 into MALFORMED_PAYLOAD.


def _parse_antennas(data: bytes, pos: int) -> tuple[tuple[int, ...], int]:
    """A u8 count and that many antenna ids."""
    end = pos + 1 + data[pos]
    if end > len(data):
        raise _truncated()
    return tuple(data[pos + 1 : end]), end


def _parse_str(data: bytes, pos: int) -> tuple[str, int]:
    """A u16 byte length and that many bytes of UTF-8."""
    end = pos + 2 + _U16.unpack_from(data, pos)[0]
    if end > len(data):
        raise _truncated()
    return data[pos + 2 : end].decode("utf-8"), end


def _parse_ops(
    data: bytes, pos: int, count: int, memo: WriteRunMemo
) -> tuple[tuple[AccessOp, ...], int]:
    """``count`` access ops from ``pos`` on, and the offset after them.

    ``memo.ops`` when there are as many of them and the bytes from
    ``pos`` on start with ``memo.packed``; otherwise each op is read in
    turn, and ops that are block writes alone are kept in ``memo``.
    """
    if count == len(memo.ops) and data.startswith(memo.packed, pos):
        return memo.ops, pos + len(memo.packed)
    first = pos
    ops: list[AccessOp] = []
    append = ops.append
    pair = _U16_PAIR.unpack_from
    writes_only = True
    for _ in range(count):
        kind = data[pos]
        if kind == _BLOCK_WRITE:
            start, n = pair(data, pos + 1)
            append(BlockWriteOp(start, _words(n).unpack_from(data, pos + 5)))
            pos += 5 + 2 * n
            continue
        writes_only = False
        if kind == _READ:
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
    read = tuple(ops)
    if writes_only:
        memo.ops, memo.packed = read, data[first:pos]
    return read, pos


def _parse_results(
    data: bytes, pos: int, count: int
) -> tuple[tuple[AccessResult, ...], int]:
    """``count`` access results from ``pos`` on, and the offset after them.

    A bare result, with neither words nor detail, is read with every bare
    result that follows it, up to the first result of another shape, in
    one ``iter_unpack``.  Equal bare results of the call share one
    AccessResult; the table of them lives only as long as the call, so
    nothing in it outgrows one frame.
    """
    results: list[AccessResult] = []
    append = results.append
    names = OP_KIND_NAMES
    made: dict[tuple, AccessResult] = {}  # by bare row
    while len(results) < count:
        # Read as a bare result first: one with words has its first word
        # where a bare one has its detail length.
        code, epc, success, attempts, n, size = _BARE_RESULT.unpack_from(data, pos)
        kind = names.get(code)
        if kind is None:
            raise DecodeError(
                DecodeErrorKind.MALFORMED_PAYLOAD, f"unknown op kind {code}"
            )
        if not (n or size):
            # A run of bare results: at most the results left, each whole
            # within ``data``, up to the first without a known op kind and
            # zero bytes for the word count and the detail length.
            bare = _BARE_RESULT.size
            end = pos + bare * min(count - len(results), (len(data) - pos) // bare)
            columns = [(0, bytes(names))]
            columns += [(at, b"\0") for at in range(_RESULT_HEAD.size - 2, bare)]
            for offset, allowed in columns:
                column = data[pos + offset : end : bare]
                end = min(end, pos + bare * (len(column) - len(column.lstrip(allowed))))
            for row in _BARE_RESULT.iter_unpack(data[pos:end]):
                result = made.get(row)
                if result is None:
                    code, epc, success, attempts, _, _ = row
                    result = made[row] = AccessResult(
                        names[code], epc, success != 0, attempts, None, ()
                    )
                append(result)
            pos = end
            continue
        pos += _RESULT_HEAD.size
        words = ()
        if n:
            words = _words(n).unpack_from(data, pos)
            (size,) = _U16.unpack_from(data, pos + 2 * n)
            pos += 2 * n
        if size:
            detail, pos = _parse_str(data, pos)
        else:
            detail = None
            pos += 2  # the empty detail's length
        append(AccessResult(kind, epc, success != 0, attempts, detail, words))
    return tuple(results), pos


def _parse_payload(
    cls: type, msg_id: int, data: bytes, pos: int, memo: WriteRunMemo
) -> tuple[Message, int]:
    """The message of class ``cls`` whose payload starts at ``pos``."""
    if cls is CapabilitiesResponse:
        antenna_ids, pos = _parse_antennas(data, pos)
        model, pos = _parse_str(data, pos)
        return CapabilitiesResponse(msg_id, model, antenna_ids), pos
    if cls is AddROSpec:
        (rospec_id,) = _U32.unpack_from(data, pos)
        antenna_ids, pos = _parse_antennas(data, pos + 4)
        duration, trigger, interval = _ROSPEC_TAIL.unpack_from(data, pos)
        if trigger >= len(_TRIGGERS):
            raise DecodeError(
                DecodeErrorKind.MALFORMED_PAYLOAD, f"unknown trigger {trigger}"
            )
        msg = AddROSpec(
            msg_id, rospec_id, antenna_ids, duration, _TRIGGERS[trigger], interval
        )
        return msg, pos + _ROSPEC_TAIL.size
    if cls is AddAccessSpec:
        spec_id, epc = _SPEC_HEAD.unpack_from(data, pos)
        antenna_ids, pos = _parse_antennas(data, pos + _SPEC_HEAD.size)
        max_retries, op_count = _U16_PAIR.unpack_from(data, pos)
        ops, pos = _parse_ops(data, pos + 4, op_count, memo)
        return AddAccessSpec(msg_id, spec_id, epc, antenna_ids, max_retries, ops), pos
    if cls is StartROSpec or cls is StopROSpec:
        (rospec_id,) = _U32.unpack_from(data, pos)
        return cls(msg_id, rospec_id), pos + 4
    if cls is ROAccessReport:
        (count,) = _U16.unpack_from(data, pos)
        end = pos + 2 + _TAG_REPORT.size * count
        tag_reports = tuple(
            TagReportEntry(*_TAG_REPORT.unpack_from(data, at))
            for at in range(pos + 2, end, _TAG_REPORT.size)
        )
        (count,) = _U16.unpack_from(data, end)
        access_results, pos = _parse_results(data, end + 2, count)
        return ROAccessReport(msg_id, tag_reports, access_results), pos
    if cls is ErrorMessage:
        (code,) = _U16.unpack_from(data, pos)
        text, pos = _parse_str(data, pos + 2)
        return ErrorMessage(msg_id, code, text), pos
    return cls(msg_id), pos  # the four messages with an empty payload


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


def decode(data: bytes, memo: WriteRunMemo | None = None) -> Message:
    """Decode exactly one frame; the declared length must match the input.

    Error kinds, in checking order: short-header, bad-version,
    length-mismatch, unknown-type, malformed-payload.  With a ``memo``, an
    ADD_ACCESSSPEC made only of block writes keeps its ops there, and the
    next spec of as many ops whose op bytes start with theirs reuses them.
    """
    msg_type, msg_id, length = _parse_header(data)
    if length != len(data):
        raise DecodeError(
            DecodeErrorKind.LENGTH_MISMATCH,
            f"declared {length}, got {len(data)} bytes",
        )
    cls = _MESSAGE_CLASSES.get(msg_type)
    if cls is None:
        raise DecodeError(DecodeErrorKind.UNKNOWN_TYPE, f"message type {msg_type}")
    try:
        msg, pos = _parse_payload(
            cls, msg_id, data, HEADER_LEN, memo or WriteRunMemo()
        )
    except (struct.error, IndexError):  # a read past the end of the payload
        raise _truncated() from None
    except UnicodeDecodeError:
        raise DecodeError(DecodeErrorKind.MALFORMED_PAYLOAD, "bad utf-8") from None
    if pos != len(data):
        raise DecodeError(
            DecodeErrorKind.MALFORMED_PAYLOAD,
            f"{len(data) - pos} trailing payload bytes",
        )
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
        self._runs = WriteRunMemo()  # what this stream last read

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
                out.append(decode(frame, self._runs))
            except DecodeError as err:
                out.append(err)
        return out

    @property
    def pending_bytes(self) -> int:
        return len(self._buf)
