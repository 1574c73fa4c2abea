"""Wire protocol tests: golden frames, round-trips, error taxonomy, framing."""

import dataclasses
import socket
import struct
import threading
from dataclasses import replace

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oracles import pack_ops_oracle, parse_ops_oracle, parse_results_oracle
from tpcbed import llrp
from tpcbed.gen2 import AccessResult
from tpcbed.llrp import (
    AddAccessSpec,
    AddROSpec,
    BlockWriteOp,
    CapabilitiesResponse,
    ChecksumOp,
    CommitOp,
    DecodeError,
    DecodeErrorKind,
    EncodeError,
    ErrorCode,
    ErrorMessage,
    FrameStream,
    GetCapabilities,
    GotoBiosOp,
    HEADER_LEN,
    MAX_FRAME_LEN,
    Keepalive,
    KeepaliveAck,
    MsgType,
    OP_KIND_NAMES,
    PROTOCOL_VERSION,
    ROAccessReport,
    ReadOp,
    StartROSpec,
    StopROSpec,
    SuccessMessage,
    TagReportEntry,
    decode,
    encode,
    encode_frames,
)
from tpcbed.reader import ReaderClient

EPC = bytes.fromhex("e20000000000000000000001")
EVERY_OP = (
    ReadOp(0x4400, 2),
    BlockWriteOp(0x4400, (0x1234,)),
    BlockWriteOp(0x4402, (0xABCD, 0x0001, 0xFFFF)),
    GotoBiosOp(),
    ChecksumOp(0x4400, 8),
    CommitOp(((0x4400, 8, 0xBEEF), (0xFFFE, 2, 0x4400)), True, False),
)

# Golden frames, written out by hand from the header/payload layout.
# If any of these change, every deployed peer breaks - that is the point
# of pinning the exact bytes.
GOLDEN = [
    (Keepalive(7), "010008000000070000000b"),
    (SuccessMessage(0x01020304), "01000b010203040000000b"),
    (
        ErrorMessage(5, int(ErrorCode.UNKNOWN_ROSPEC), "unknown-rospec"),
        "01000a000000050000001d0002000e756e6b6e6f776e2d726f73706563",
    ),
    (
        AddROSpec(9, 1, (2,), 30000, "end", 0),
        "010003000000090000001a000000010102000075300000000000",
    ),
    (
        CapabilitiesResponse(2, "tpcbed-sim", (1, 2, 3)),
        "010002000000020000001b03010203000a7470636265642d73696d",
    ),
    # One op of every kind, first letting the reader pick the antenna.
    (
        AddAccessSpec(12, 34, EPC, (), 16, EVERY_OP),
        "0100040000000c0000004d00000022e200000000000000000000010000100006"
        "0044000002014400000112340144020003abcd0001ffff020344000008040100"
        "0244000008beeffffe00024400",
    ),
    (
        AddAccessSpec(13, 35, EPC, (1, 2, 3), 0xFFFF, EVERY_OP),
        "0100040000000d0000005000000023e200000000000000000000010301020"
        "3ffff00060044000002014400000112340144020003abcd0001ffff0203440000"
        "080401000244000008beeffffe00024400",
    ),
    # Access reports: a bare success, data words, a refusal, and a detail
    # that is not ASCII.  No detail travels as the empty string.
    (
        ROAccessReport(14, access_results=(AccessResult("goto-bios", EPC, True, 1),)),
        "0100070000000e000000250000000102e200000000000000000000010100000001"
        "00000000",
    ),
    (
        ROAccessReport(
            15,
            access_results=(
                AccessResult("read", EPC, True, 3, None, (0x1234, 0xABCD)),
            ),
        ),
        "0100070000000f000000290000000100e200000000000000000000010100000003"
        "00021234abcd0000",
    ),
    (
        ROAccessReport(
            16,
            access_results=(
                AccessResult("commit", EPC, False, 1, "checksum-mismatch"),
            ),
        ),
        "01000700000010000000360000000104e200000000000000000000010000000001"
        "00000011636865636b73756d2d6d69736d61746368",
    ),
    (
        ROAccessReport(
            17,
            access_results=(
                AccessResult("checksum", EPC, False, 2**32 - 1, "r\u00e9gion \u2716"),
            ),
        ),
        "01000700000011000000300000000103e2000000000000000000000100ffffffff"
        "0000000b72c3a967696f6e20e29c96",
    ),
    (
        ROAccessReport(
            18, tag_reports=(TagReportEntry(EPC, 2, 17, -52345, -50001, 150, 9825),)
        ),
        "01000700000012000000380001e2000000000000000000000102000000"
        "11ffff3387ffff3caf000000000000009600000000000026610000",
    ),
]


class TestGoldenFrames:
    @pytest.mark.parametrize("msg,want_hex", GOLDEN, ids=lambda v: str(v)[:30])
    def test_encode(self, msg, want_hex):
        assert encode(msg).hex() == want_hex

    @pytest.mark.parametrize("msg,want_hex", GOLDEN, ids=lambda v: str(v)[:30])
    def test_decode(self, msg, want_hex):
        assert decode(bytes.fromhex(want_hex)) == msg

    def test_header_layout(self):
        frame = encode(Keepalive(0xDEADBEEF))
        assert frame[0] == PROTOCOL_VERSION
        assert struct.unpack(">H", frame[1:3])[0] == int(MsgType.KEEPALIVE)
        assert struct.unpack(">I", frame[3:7])[0] == 0xDEADBEEF
        assert struct.unpack(">I", frame[7:11])[0] == len(frame) == HEADER_LEN


def op_strategy():
    words = st.lists(
        st.integers(min_value=0, max_value=0xFFFF), min_size=0, max_size=8
    ).map(tuple)
    address = st.integers(min_value=0, max_value=0xFFFF)
    length16 = st.integers(min_value=0, max_value=0xFFFF)
    return st.one_of(
        st.builds(ReadOp, address, length16),
        st.builds(BlockWriteOp, address, words),
        st.just(GotoBiosOp()),
        st.builds(ChecksumOp, address, length16),
        st.builds(
            CommitOp,
            st.lists(
                st.tuples(address, length16, length16), max_size=4
            ).map(tuple),
            st.booleans(),
            st.booleans(),
        ),
    )


MSG_ID = st.integers(min_value=0, max_value=0xFFFFFFFF)
U32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
EPCS = st.binary(min_size=12, max_size=12)
ANTENNAS = st.lists(st.integers(min_value=0, max_value=255), max_size=4).map(tuple)
TEXT = st.text(max_size=40)


def access_spec_strategy():
    return st.builds(
        AddAccessSpec,
        MSG_ID,
        U32,
        EPCS,
        ANTENNAS,
        st.integers(min_value=0, max_value=0xFFFF),
        st.lists(op_strategy(), max_size=5).map(tuple),
    )


def access_result_strategy():
    return st.builds(
        AccessResult,
        kind=st.sampled_from(sorted(OP_KIND_NAMES.values())),
        target_epc=EPCS,
        success=st.booleans(),
        attempts=U32,
        data=st.lists(
            st.integers(min_value=0, max_value=0xFFFF), max_size=6
        ).map(tuple),
        detail=TEXT.map(lambda t: t or None),
    )


def access_report_strategy(min_results=0):
    u64 = st.integers(min_value=0, max_value=2**64 - 1)
    i32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
    tag_entry = st.builds(
        TagReportEntry,
        epc=EPCS,
        antenna_id=st.integers(min_value=0, max_value=255),
        read_count=U32,
        mean_rssi_mdbm=i32,
        last_rssi_mdbm=i32,
        first_seen_ms=u64,
        last_seen_ms=u64,
    )
    return st.builds(
        ROAccessReport,
        MSG_ID,
        st.lists(tag_entry, max_size=3).map(tuple),
        st.lists(access_result_strategy(), min_size=min_results, max_size=3).map(
            tuple
        ),
    )


def message_strategy():
    trigger = st.sampled_from(["end", "periodic"])
    return st.one_of(
        st.builds(GetCapabilities, MSG_ID),
        st.builds(CapabilitiesResponse, MSG_ID, TEXT, ANTENNAS),
        st.builds(AddROSpec, MSG_ID, U32, ANTENNAS, U32, trigger, U32),
        access_spec_strategy(),
        st.builds(StartROSpec, MSG_ID, U32),
        st.builds(StopROSpec, MSG_ID, U32),
        access_report_strategy(),
        st.builds(Keepalive, MSG_ID),
        st.builds(KeepaliveAck, MSG_ID),
        st.builds(
            ErrorMessage, MSG_ID, st.integers(min_value=0, max_value=0xFFFF), TEXT
        ),
        st.builds(SuccessMessage, MSG_ID),
    )


class TestRoundTrip:
    @settings(max_examples=400)
    @given(message_strategy())
    def test_encode_decode_identity(self, msg):
        assert decode(encode(msg)) == msg

    @settings(max_examples=100)
    @given(message_strategy())
    def test_length_field_is_exact(self, msg):
        frame = encode(msg)
        declared = struct.unpack(">I", frame[7:11])[0]
        assert declared == len(frame)


U8_RANGE, U16_RANGE, U32_RANGE = (0, 0xFF), (0, 0xFFFF), (0, 0xFFFFFFFF)
I32_RANGE, U64_RANGE = (-(2**31), 2**31 - 1), (0, 2**64 - 1)


def _spec(*ops, spec_id=1, antennas=(), max_retries=0):
    return AddAccessSpec(1, spec_id, EPC, antennas, max_retries, ops)


def _tag_report(**fields):
    entry = TagReportEntry(EPC, 1, 1, 0, 0, 0, 0)
    return ROAccessReport(1, (replace(entry, **fields),))


def _result(**fields):
    result = AccessResult("read", EPC, True, 1, None, ())
    return ROAccessReport(1, (), (replace(result, **fields),))


#: Every integer field the codec packs: a message built around one value
#: of the field, and the field's range on the wire.
PACKED_FIELDS = {
    "msg_id": (lambda v: Keepalive(v), U32_RANGE),
    "capabilities antenna": (
        lambda v: CapabilitiesResponse(1, "m", (v,)),
        U8_RANGE,
    ),
    "rospec_id": (lambda v: AddROSpec(1, v, (1,), 1, "end", 0), U32_RANGE),
    "rospec antenna": (lambda v: AddROSpec(1, 1, (v,), 1, "end", 0), U8_RANGE),
    "duration_ms": (lambda v: AddROSpec(1, 1, (1,), v, "end", 0), U32_RANGE),
    "report_interval_ms": (
        lambda v: AddROSpec(1, 1, (1,), 1, "periodic", v),
        U32_RANGE,
    ),
    "accessspec_id": (lambda v: _spec(spec_id=v), U32_RANGE),
    "access antenna": (lambda v: _spec(antennas=(v,)), U8_RANGE),
    "max_retries": (lambda v: _spec(max_retries=v), U16_RANGE),
    "read start": (lambda v: _spec(ReadOp(v, 1)), U16_RANGE),
    "read word_count": (lambda v: _spec(ReadOp(1, v)), U16_RANGE),
    "write start": (lambda v: _spec(BlockWriteOp(v, (1, 2))), U16_RANGE),
    "write word": (lambda v: _spec(BlockWriteOp(2, (3, v))), U16_RANGE),
    "write word in a run": (
        lambda v: _spec(BlockWriteOp(0, (1,)), BlockWriteOp(2, (v,))),
        U16_RANGE,
    ),
    "checksum start": (lambda v: _spec(ChecksumOp(v, 2)), U16_RANGE),
    "checksum byte_length": (lambda v: _spec(ChecksumOp(2, v)), U16_RANGE),
    "segment start": (lambda v: _spec(CommitOp(((v, 2, 3),))), U16_RANGE),
    "segment byte_length": (lambda v: _spec(CommitOp(((1, v, 3),))), U16_RANGE),
    "segment checksum": (lambda v: _spec(CommitOp(((1, 2, v),))), U16_RANGE),
    "start rospec_id": (lambda v: StartROSpec(1, v), U32_RANGE),
    "stop rospec_id": (lambda v: StopROSpec(1, v), U32_RANGE),
    "report antenna_id": (lambda v: _tag_report(antenna_id=v), U8_RANGE),
    "report read_count": (lambda v: _tag_report(read_count=v), U32_RANGE),
    "report mean_rssi": (lambda v: _tag_report(mean_rssi_mdbm=v), I32_RANGE),
    "report last_rssi": (lambda v: _tag_report(last_rssi_mdbm=v), I32_RANGE),
    "report first_seen": (lambda v: _tag_report(first_seen_ms=v), U64_RANGE),
    "report last_seen": (lambda v: _tag_report(last_seen_ms=v), U64_RANGE),
    "result attempts": (lambda v: _result(attempts=v), U32_RANGE),
    "result word": (lambda v: _result(data=(1, v)), U16_RANGE),
    "error code": (lambda v: ErrorMessage(1, v, "x"), U16_RANGE),
}


class TestEncodeErrors:
    def test_msg_id_out_of_range(self):
        with pytest.raises(EncodeError):
            encode(Keepalive(2**32))
        with pytest.raises(EncodeError):
            encode(Keepalive(-1))

    def test_bad_epc_length(self):
        with pytest.raises(EncodeError):
            encode(AddAccessSpec(1, 1, b"\x01\x02", (), 0, ()))

    def test_bad_epc_after_a_good_one_in_a_report(self):
        # A report packs an EPC only when it differs from the previous
        # result's; the check must still run on every new one.
        good = AccessResult("read", bytes(12), True, 1, None, ())
        bad = replace(good, target_epc=bytes(11))
        with pytest.raises(EncodeError):
            encode(ROAccessReport(1, (), (good, bad)))
        other = replace(good, target_epc=b"\x01" * 12)
        report = ROAccessReport(1, (), (good, good, other, good))
        assert decode(encode(report)) == report

    def test_bad_trigger(self):
        with pytest.raises(EncodeError):
            encode(AddROSpec(1, 1, (), 0, "sometimes", 0))

    @settings(max_examples=300)
    @given(st.sampled_from(sorted(PACKED_FIELDS)), st.data())
    def test_every_field_out_of_range_is_an_encode_error(self, name, data):
        build, (low, high) = PACKED_FIELDS[name]
        for edge in (low, high):
            assert decode(encode(build(edge))) == build(edge)
        value = data.draw(
            st.one_of(st.integers(max_value=low - 1), st.integers(min_value=high + 1))
        )
        msg = build(value)
        with pytest.raises(EncodeError) as err:
            encode(msg)
        # a hand-checked field keeps its own text, wrapped once at most
        text = str(err.value)
        assert text.count("cannot encode") <= 1
        if text.startswith("cannot encode"):
            assert text.startswith(f"cannot encode {type(msg).__name__}: ")


class TestDecodeTaxonomy:
    def test_short_header(self):
        with pytest.raises(DecodeError) as err:
            decode(b"\x01\x00\x08")
        assert err.value.kind is DecodeErrorKind.SHORT_HEADER

    def test_bad_version(self):
        frame = bytearray(encode(Keepalive(1)))
        frame[0] = 2
        with pytest.raises(DecodeError) as err:
            decode(bytes(frame))
        assert err.value.kind is DecodeErrorKind.BAD_VERSION

    def test_version_checked_before_length(self):
        # corrupt both: version must win, per the documented order
        frame = bytearray(encode(Keepalive(1)))
        frame[0] = 9
        frame[10] = 99
        with pytest.raises(DecodeError) as err:
            decode(bytes(frame))
        assert err.value.kind is DecodeErrorKind.BAD_VERSION

    def test_length_mismatch_too_long(self):
        frame = encode(Keepalive(1)) + b"\x00"
        with pytest.raises(DecodeError) as err:
            decode(frame)
        assert err.value.kind is DecodeErrorKind.LENGTH_MISMATCH

    def test_length_mismatch_declared_below_header(self):
        frame = bytearray(encode(Keepalive(1)))
        struct.pack_into(">I", frame, 7, 5)
        with pytest.raises(DecodeError) as err:
            decode(bytes(frame))
        assert err.value.kind is DecodeErrorKind.LENGTH_MISMATCH

    def test_unknown_type(self):
        frame = bytearray(encode(Keepalive(1)))
        struct.pack_into(">H", frame, 1, 999)
        with pytest.raises(DecodeError) as err:
            decode(bytes(frame))
        assert err.value.kind is DecodeErrorKind.UNKNOWN_TYPE

    def test_malformed_truncated_payload(self):
        good = encode(StartROSpec(1, 7))
        bad = bytearray(good[:-2])  # drop payload bytes, fix the length
        struct.pack_into(">I", bad, 7, len(bad))
        with pytest.raises(DecodeError) as err:
            decode(bytes(bad))
        assert err.value.kind is DecodeErrorKind.MALFORMED_PAYLOAD

    def test_malformed_trailing_bytes(self):
        good = encode(StartROSpec(1, 7))
        bad = bytearray(good + b"\xee")
        struct.pack_into(">I", bad, 7, len(bad))
        with pytest.raises(DecodeError) as err:
            decode(bytes(bad))
        assert err.value.kind is DecodeErrorKind.MALFORMED_PAYLOAD

    def test_malformed_bad_op_kind(self):
        good = bytearray(encode(AddAccessSpec(1, 1, EPC, (), 0, (GotoBiosOp(),))))
        good[-1] = 77  # the op kind byte of the single op
        with pytest.raises(DecodeError) as err:
            decode(bytes(good))
        assert err.value.kind is DecodeErrorKind.MALFORMED_PAYLOAD

    def test_malformed_bad_trigger(self):
        good = bytearray(encode(AddROSpec(1, 1, (), 0, "end", 0)))
        good[-5] = 9  # trigger byte
        with pytest.raises(DecodeError) as err:
            decode(bytes(good))
        assert err.value.kind is DecodeErrorKind.MALFORMED_PAYLOAD

    def test_malformed_non_utf8_text(self):
        good = bytearray(encode(ErrorMessage(1, 1, "ab")))
        good[-1] = 0xFF
        good[-2] = 0xFE
        with pytest.raises(DecodeError) as err:
            decode(bytes(good))
        assert err.value.kind is DecodeErrorKind.MALFORMED_PAYLOAD

    @settings(max_examples=300)
    @given(st.binary(max_size=64))
    def test_random_bytes_never_crash_the_decoder(self, blob):
        try:
            decode(blob)
        except DecodeError:
            pass  # every failure must be a classified DecodeError


def _cut(frame: bytes, length: int) -> bytes:
    """The first ``length`` bytes of ``frame``, its header saying so."""
    cut = bytearray(frame[:length])
    struct.pack_into(">I", cut, 7, length)
    return bytes(cut)


class TestAccessFramesAreTotal:
    """Access specs and reports have their own decode loops: a short or
    corrupt one must still be a malformed payload, never anything else."""

    @settings(max_examples=150)
    @given(st.one_of(access_spec_strategy(), access_report_strategy()))
    def test_every_cut_of_the_payload_is_malformed(self, msg):
        frame = encode(msg)
        for length in range(HEADER_LEN, len(frame)):
            with pytest.raises(DecodeError) as err:
                decode(_cut(frame, length))
            assert err.value.kind is DecodeErrorKind.MALFORMED_PAYLOAD

    @settings(max_examples=150)
    @given(access_report_strategy(min_results=1), st.integers(5, 255), st.data())
    def test_unknown_op_kind_in_a_result_is_malformed(self, report, code, data):
        index = data.draw(st.integers(0, len(report.access_results) - 1))
        before = replace(report, access_results=report.access_results[:index])
        frame = bytearray(encode(report))
        frame[len(encode(before))] = code  # the result's op kind byte
        with pytest.raises(DecodeError) as err:
            decode(bytes(frame))
        assert err.value.kind is DecodeErrorKind.MALFORMED_PAYLOAD

    @pytest.mark.parametrize("code", [5, 9, 255])
    def test_client_refuses_a_report_with_an_unknown_op_kind(self, code):
        result = AccessResult("goto-bios", EPC, True, 1)
        report = bytearray(encode(ROAccessReport(3, access_results=(result,))))
        report[HEADER_LEN + 4] = code  # no tag reports, one result
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(10.0)

        def serve() -> None:
            conn, _ = listener.accept()
            with conn:
                stream = FrameStream()
                while chunk := conn.recv(65536):
                    for msg in stream.feed(chunk):
                        if isinstance(msg, StartROSpec):
                            conn.sendall(bytes(report))
                        conn.sendall(encode(SuccessMessage(msg.msg_id)))

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        try:
            with ReaderClient(*listener.getsockname()[:2], timeout_s=10.0) as client:
                with pytest.raises(DecodeError) as err:
                    client.execute_access([GotoBiosOp()], EPC)
            assert err.value.kind is DecodeErrorKind.MALFORMED_PAYLOAD
            server.join(timeout=10.0)
            assert not server.is_alive()
        finally:
            listener.close()


def op_runs_strategy():
    """Op lists made of runs of block writes of one word count, broken by
    ops of every kind, multi-word writes among them."""
    address = st.integers(min_value=0, max_value=0xFFFF)
    word = st.integers(min_value=0, max_value=0xFFFF)

    def run(count):
        words = st.lists(word, min_size=count, max_size=count).map(tuple)
        writes = st.builds(BlockWriteOp, address, words)
        return st.lists(writes, min_size=1, max_size=12)

    piece = st.one_of(
        st.integers(0, 3).flatmap(run), op_strategy().map(lambda op: [op])
    )
    return st.lists(piece, max_size=6).map(lambda pieces: sum(pieces, []))


def result_runs_strategy():
    """Result lists made of runs of bare results, broken by results with
    words or a detail."""
    bare = st.builds(
        AccessResult,
        kind=st.sampled_from(sorted(OP_KIND_NAMES.values())),
        target_epc=st.sampled_from((EPC, bytes(12))),
        success=st.booleans(),
        attempts=U32,
    )
    piece = st.one_of(
        st.lists(bare, min_size=1, max_size=12),
        access_result_strategy().map(lambda result: [result]),
    )
    return st.lists(piece, max_size=6).map(lambda pieces: sum(pieces, []))


def _outcome(frame: bytes):
    try:
        return decode(frame)
    except DecodeError as err:
        return err.kind, str(err)


class TestRunsMatchTheReference:
    """Runs of uniform records are packed and read whole; the bytes, and
    every decode or decode error, are those of the one-record-at-a-time
    reference in ``oracles``."""

    @settings(max_examples=200)
    @given(op_runs_strategy())
    def test_ops_encode_as_the_reference(self, ops):
        spec = AddAccessSpec(1, 2, EPC, (1,), 3, tuple(ops))
        head = len(encode(replace(spec, ops=())))
        assert encode(spec)[head:] == pack_ops_oracle(ops)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            op_runs_strategy().map(
                lambda ops: AddAccessSpec(1, 2, EPC, (1,), 3, tuple(ops))
            ),
            result_runs_strategy().map(
                lambda results: ROAccessReport(1, (), tuple(results))
            ),
        ),
        st.data(),
    )
    def test_every_cut_decodes_as_the_reference(self, msg, data):
        if isinstance(msg, AddAccessSpec):
            field, records = "ops", msg.ops
            # a record's kind, and a block write's word count
            shape = (0, 3, 4)
        else:
            field, records = "access_results", msg.access_results
            # a result's code, word count and detail length
            shape = (0, 18, 19, 20, 21)
        frame = bytearray(encode(msg))
        corruption = data.draw(st.sampled_from(("none", "shape", "count", "byte")))
        if corruption == "shape" and records:
            # Another shape, or an unknown kind, in a run or at its edge.
            index = data.draw(st.integers(0, len(records) - 1))
            at = len(encode(replace(msg, **{field: records[:index]})))
            at += data.draw(st.sampled_from(shape))
            if at < len(frame):
                frame[at] = data.draw(st.integers(0, 255))
        elif corruption == "count":
            # Fewer records than the frame holds: a run must stop at the
            # count, and the rest are trailing bytes.
            at = len(encode(replace(msg, **{field: ()}))) - 2
            count = data.draw(st.integers(0, len(records)))
            frame[at : at + 2] = count.to_bytes(2, "big")
        elif corruption == "byte" and len(frame) > HEADER_LEN:
            at = data.draw(st.integers(HEADER_LEN, len(frame) - 1))
            frame[at] = data.draw(st.integers(0, 255))
        cuts = [_cut(bytes(frame), n) for n in range(HEADER_LEN, len(frame) + 1)]
        with mock.patch.multiple(
            llrp, _parse_ops=parse_ops_oracle, _parse_results=parse_results_oracle
        ):
            expected = [_outcome(cut) for cut in cuts]
        assert [_outcome(cut) for cut in cuts] == expected


@st.composite
def write_run_frames(draw):
    """ADD_ACCESSSPEC frames around one run of block writes: the run, one
    of its prefixes, the run less one write or with one changed, the run
    with another op before or after it, some cut or corrupted, several
    at the run's edges."""
    n = draw(st.integers(0, 3))
    word = st.integers(0, 0xFFFF)
    write = st.builds(
        BlockWriteOp,
        st.integers(0, 0xFFFF),
        st.lists(word, min_size=n, max_size=n).map(tuple),
    )
    run = tuple(draw(st.lists(write, min_size=1, max_size=8)))
    index = st.integers(0, len(run) - 1)
    variant = st.one_of(
        st.just(run),
        index.map(lambda k: run[:k]),
        index.map(lambda k: run[:k] + run[k + 1 :]),
        # one write replaced
        st.tuples(index, write).map(
            lambda kw: run[: kw[0]] + kw[1:] + run[kw[0] + 1 :]
        ),
        op_strategy().map(lambda op: run + (op,)),
        op_strategy().map(lambda op: (op,) + run),
    )
    frames = []
    for spec_id, ops in enumerate(draw(st.lists(variant, min_size=1, max_size=6))):
        spec = AddAccessSpec(spec_id, spec_id, EPC, (), 0, ops)
        frame = bytearray(encode(spec))
        corruption = draw(st.sampled_from(("none", "none", "edge", "byte", "cut")))
        if corruption == "edge" and ops:
            # a record's kind or word count, at a write or at the end of one
            at = len(encode(replace(spec, ops=ops[: draw(st.integers(0, len(ops)))])))
            at += draw(st.sampled_from((0, 3, 4)))
            if at < len(frame):
                frame[at] = draw(st.integers(0, 255))
        elif corruption == "byte":
            at = draw(st.integers(HEADER_LEN, len(frame) - 1))
            frame[at] = draw(st.integers(0, 255))
        elif corruption == "cut":
            frame = _cut(bytes(frame), draw(st.integers(HEADER_LEN, len(frame))))
        frames.append(bytes(frame))
    return frames


def _item(item):
    if isinstance(item, DecodeError):
        return item.kind, str(item)
    return item


RUN_OF_FOUR = tuple(BlockWriteOp(0x4400 + 2 * i, (i,)) for i in range(4))


class TestWriteRunMemo:
    """Each end of a connection keeps the last spec of block writes alone
    it packed or read; reusing it changes no byte, message or error."""

    @settings(max_examples=300, deadline=None)
    @given(write_run_frames())
    def test_a_warm_stream_decodes_as_fresh_decodes(self, frames):
        warm = FrameStream().feed(b"".join(frames))
        assert [_item(item) for item in warm] == [_outcome(f) for f in frames]

    @settings(max_examples=300)
    @given(
        st.integers(1, 4).flatmap(
            lambda k: st.lists(
                st.one_of(
                    # writes alone, all of one length
                    st.lists(
                        st.builds(BlockWriteOp, st.integers(0, 3), st.just((1,))),
                        min_size=k,
                        max_size=k,
                    ),
                    op_runs_strategy(),
                ).map(tuple),
                min_size=1,
                max_size=3,
            )
        ),
        st.lists(st.tuples(st.integers(0, 2), st.booleans()), min_size=1, max_size=8),
    )
    def test_an_encode_that_reuses_packed_bytes_equals_a_fresh_one(
        self, op_lists, picks
    ):
        memo = llrp.WriteRunMemo()
        for spec_id, (pick, copy) in enumerate(picks):
            # one of a few op tuples again, or an equal copy of it
            ops = op_lists[pick % len(op_lists)]
            ops = tuple(list(ops)) if copy else ops
            spec = AddAccessSpec(spec_id, spec_id, EPC, (1,), 3, ops)
            assert encode(spec, memo) == encode(spec)

    def test_only_a_spec_of_writes_alone_is_kept_and_then_reused(self):
        memo = llrp.WriteRunMemo()
        run = tuple(BlockWriteOp(0x4400 + 2 * i, (i,)) for i in range(4))
        frame = encode(AddAccessSpec(1, 1, EPC, (), 0, run), memo)
        packed = memo.packed
        assert memo.ops is run and frame.endswith(packed) and len(packed) == 4 * 7
        encode(_spec(GotoBiosOp(), *run), memo)  # another op: not kept
        assert memo.ops is run and memo.packed is packed
        with pytest.raises(EncodeError):
            encode(_spec(BlockWriteOp(0x4400, (0x10000,))), memo)
        assert memo.ops is run
        spec = AddAccessSpec(9, 8, EPC, (2,), 7, run)
        assert encode(spec, memo) == encode(spec)

    def test_a_stream_reads_a_repeated_run_into_the_same_ops(self):
        run = RUN_OF_FOUR
        stream = FrameStream()
        mixed = encode(_spec(GotoBiosOp(), *run, spec_id=3))
        first, second, other = stream.feed(
            encode(_spec(*run, spec_id=1)) + encode(_spec(*run, spec_id=2)) + mixed
        )
        assert first.ops == run and second.ops is first.ops
        assert other == decode(mixed)

    @pytest.mark.parametrize(
        "ops",
        [
            # the memo's bytes, then one write more
            RUN_OF_FOUR + (BlockWriteOp(0x4408, (4,)),),
            # as many ops, one word changed
            RUN_OF_FOUR[:3] + (BlockWriteOp(0x4406, (9,)),),
        ],
        ids=["one-more-op", "one-word-changed"],
    )
    def test_a_spec_that_misses_either_key_is_read_afresh(self, ops):
        stream = FrameStream()
        frame = encode(_spec(*ops, spec_id=2))
        first, second = stream.feed(encode(_spec(*RUN_OF_FOUR, spec_id=1)) + frame)
        assert first.ops == RUN_OF_FOUR
        assert second == decode(frame) and second.ops == ops

    def test_block_write_op_is_frozen(self):
        op = BlockWriteOp(0x4400, (1, 2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.words = (3,)
        assert hash(op) == hash(BlockWriteOp(0x4400, (1, 2)))


class TestFrameStream:
    def test_multiple_frames_one_feed(self):
        stream = FrameStream()
        blob = encode(Keepalive(1)) + encode(SuccessMessage(2)) + encode(Keepalive(3))
        items = stream.feed(blob)
        assert items == [Keepalive(1), SuccessMessage(2), Keepalive(3)]

    def test_byte_at_a_time(self):
        stream = FrameStream()
        blob = encode(StartROSpec(4, 9)) + encode(KeepaliveAck(5))
        collected = []
        for i in range(len(blob)):
            collected.extend(stream.feed(blob[i : i + 1]))
        assert collected == [StartROSpec(4, 9), KeepaliveAck(5)]

    def test_partial_frame_is_held_back(self):
        stream = FrameStream()
        frame = encode(Keepalive(1))
        assert stream.feed(frame[:7]) == []
        assert stream.feed(frame[7:]) == [Keepalive(1)]

    def test_recoverable_error_keeps_the_stream_usable(self):
        # unknown type is well-framed: report it, keep going
        bad = bytearray(encode(Keepalive(1)))
        struct.pack_into(">H", bad, 1, 999)
        stream = FrameStream()
        items = stream.feed(bytes(bad) + encode(Keepalive(2)))
        assert isinstance(items[0], DecodeError)
        assert items[0].kind is DecodeErrorKind.UNKNOWN_TYPE
        assert items[1] == Keepalive(2)

    def test_bad_version_is_fatal(self):
        stream = FrameStream()
        with pytest.raises(DecodeError):
            stream.feed(b"\x09" + encode(Keepalive(1))[1:])

    def test_absurd_length_is_fatal(self):
        frame = bytearray(encode(Keepalive(1)))
        struct.pack_into(">I", frame, 7, 3)
        stream = FrameStream()
        with pytest.raises(DecodeError):
            stream.feed(bytes(frame))

    @staticmethod
    def _header(length):
        return struct.pack(">BHII", PROTOCOL_VERSION, MsgType.KEEPALIVE, 1, length)

    def test_frame_at_the_cap_is_buffered(self):
        stream = FrameStream()
        assert stream.feed(self._header(MAX_FRAME_LEN)) == []
        assert stream.pending_bytes == HEADER_LEN

    @pytest.mark.parametrize("length", [MAX_FRAME_LEN + 1, 2**32 - 1])
    def test_frame_over_the_cap_is_fatal_at_its_header(self, length):
        with pytest.raises(DecodeError) as err:
            FrameStream().feed(self._header(length))
        assert err.value.kind is DecodeErrorKind.LENGTH_MISMATCH

    def test_largest_reprogram_frames_fit_under_the_cap(self):
        # Writing the whole 64 KiB span one word per op, and its report.
        words = 0x10000 // 2
        spec = AddAccessSpec(
            1,
            2,
            EPC,
            (1, 2, 3),
            0xFFFF,
            tuple(BlockWriteOp(2 * i, (0xFFFF,)) for i in range(words)),
        )
        report = ROAccessReport(
            3,
            access_results=tuple(
                AccessResult("block-write", EPC, True, 0xFFFFFFFF)
                for _ in range(words)
            ),
        )
        frames = encode(spec) + encode(report)
        assert max(len(encode(spec)), len(encode(report))) < MAX_FRAME_LEN
        assert FrameStream().feed(frames) == [spec, report]


class TestEncodeFrames:
    def test_everything_within_the_cap_is_one_frame(self):
        entries = (AccessResult("read", EPC, True, 3, "é", (1, 2)),) * 3
        for msg in (ROAccessReport(5, access_results=entries), Keepalive(1)):
            assert encode_frames(msg) == [encode(msg)]

    def test_access_results_over_the_cap_are_spread_over_reports(self):
        # Twenty reads of 56 KiB each come to about 1.1 MiB of results.
        entries = tuple(
            AccessResult(
                "read", EPC, True, i, "é" * i or None, tuple(range(0x7000 + i))
            )
            for i in range(20)
        )
        frames = encode_frames(ROAccessReport(5, access_results=entries))
        assert len(frames) > 1
        assert all(len(frame) <= MAX_FRAME_LEN for frame in frames)
        reports = FrameStream().feed(b"".join(frames))
        assert all(r.msg_id == 5 and not r.tag_reports for r in reports)
        assert sum((r.access_results for r in reports), ()) == entries


def _copies(results):
    """Distinct instances equal to ``results``, one per entry."""
    return tuple(replace(result) for result in results)


class TestSharedResults:
    """Equal results of one report may be one object on either end; no
    byte on the wire changes."""

    @settings(max_examples=200, deadline=None)
    @given(result_runs_strategy())
    def test_equal_bare_rows_of_one_frame_decode_to_one_object(self, results):
        frame = encode(ROAccessReport(1, (), tuple(results)))
        decoded = decode(frame).access_results
        with mock.patch.object(llrp, "_parse_results", parse_results_oracle):
            assert decoded == decode(frame).access_results
        first = {}
        for result in decoded:
            if not result.data and not result.detail:
                assert first.setdefault(result, result) is result

    def test_rows_split_by_another_shape_share_and_frames_do_not(self):
        bare = AccessResult("block-write", EPC, True, 2)
        read = AccessResult("read", EPC, True, 1, None, (7,))
        report = ROAccessReport(1, (), (bare, bare, read, bare))
        one, two = FrameStream().feed(encode(report) * 2)
        assert one == two == report
        a, b, _, c = one.access_results
        assert a is b is c
        assert two.access_results[0] is not a  # the table is per decode

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(access_result_strategy(), min_size=1, max_size=4),
        st.lists(st.integers(0, 3), max_size=12),
    )
    def test_a_repeated_instance_encodes_as_equal_distinct_ones(self, pool, picks):
        shared = tuple(pool[i % len(pool)] for i in picks)
        frame = encode(ROAccessReport(1, (), shared))
        assert frame == encode(ROAccessReport(1, (), _copies(shared)))
        assert decode(frame).access_results == shared

    def test_a_split_report_of_repeated_instances_encodes_as_distinct_ones(self):
        pool = [
            AccessResult("read", EPC, True, i, "é" * i or None, tuple(range(0x7000)))
            for i in range(3)
        ]
        shared = tuple(pool[i % 3] for i in range(24))
        frames = encode_frames(ROAccessReport(5, access_results=shared))
        assert len(frames) > 1
        assert frames == encode_frames(ROAccessReport(5, access_results=_copies(shared)))
        reports = FrameStream().feed(b"".join(frames))
        assert sum((r.access_results for r in reports), ()) == shared
