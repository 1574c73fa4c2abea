"""Firmware format and transfer logic tests.

The transfer tests drive `reprogram` with a scripted fake session, so
every outcome branch is reachable without any RF simulation; the
end-to-end paths against a real reader live in test_reader and the
acceptance suite.
"""

import json
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from tpcbed.llrp import (
    AddAccessSpec,
    BlockWriteOp,
    ChecksumOp,
    CommitOp,
    EncodeError,
    GotoBiosOp,
    encode,
)
from tpcbed.config import ConfigError
from tpcbed.gen2 import AccessResult
from tpcbed.rfchannel import LinkBudgetParams, default_geometry
from tpcbed.tag import MemoryMap, ones_complement_sum16
from tpcbed.wisent import (
    FirmwareImage,
    FirmwareSegment,
    TiTxtError,
    TransferPolicy,
    behavior_sidecar_path,
    choose_antennas,
    load_firmware,
    parse_ti_txt,
    reprogram,
    serialize_ti_txt,
    validate_regions,
)

SAMPLE = """@4400
00 01 02 03 04 05 06 07 08 09 0A 0B 0C 0D 0E 0F
10 11
@5000
AA BB CC
q
"""


class TestTiTxtParsing:
    def test_sample(self):
        image = parse_ti_txt(SAMPLE)
        assert len(image.segments) == 2
        assert image.segments[0].start_address == 0x4400
        assert image.segments[0].data == bytes(range(18))
        assert image.segments[1].start_address == 0x5000
        assert image.segments[1].data == b"\xaa\xbb\xcc"

    def test_round_trip_is_fixed_point(self):
        image = parse_ti_txt(SAMPLE)
        canonical = serialize_ti_txt(image)
        assert parse_ti_txt(canonical) == image
        assert serialize_ti_txt(parse_ti_txt(canonical)) == canonical

    def test_serializer_shape(self):
        text = serialize_ti_txt(parse_ti_txt(SAMPLE))
        lines = text.splitlines()
        assert lines[0] == "@4400"
        assert lines[1] == "00 01 02 03 04 05 06 07 08 09 0A 0B 0C 0D 0E 0F"
        assert lines[-1] == "q"
        assert text.endswith("q\n")

    def test_lowercase_and_blank_lines_accepted(self):
        image = parse_ti_txt("@4400\n\nab cd\n\nq\n")
        assert image.segments[0].data == b"\xab\xcd"

    @pytest.mark.parametrize(
        "text,line,fragment",
        [
            ("@4400\nGG\nq\n", 2, "byte token"),
            ("@4400\n0A0B\nq\n", 2, "byte token"),
            ("@zz\n00\nq\n", 1, "address"),
            ("00 11\nq\n", 1, "before any"),
            ("@4400\n00\n", 3, "terminator"),
            ("@4400\nq\n", 2, "no data"),
            ("@4400\n00\nq\nextra\n", 4, "after terminator"),
            ("@FFFF\n00 11\nq\n", 3, "address space"),
            ("@10000\n00\nq\n", 1, "out of range"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line, fragment):
        with pytest.raises(TiTxtError) as err:
            parse_ti_txt(text)
        assert err.value.line_number == line
        assert fragment in str(err.value)

    def test_overlapping_sections_rejected(self):
        with pytest.raises(TiTxtError):
            parse_ti_txt("@4400\n00 11 22\n@4401\n33\nq\n")

    def test_sections_sorted_by_address(self):
        image = parse_ti_txt("@5000\nAA\n@4400\nBB\nq\n")
        starts = [seg.start_address for seg in image.segments]
        assert starts == sorted(starts)


class TestImage:
    def test_word_alignment_pads_with_erased_flash(self):
        image = FirmwareImage((FirmwareSegment(0x4400, b"\x01\x02\x03"),))
        padded = image.word_aligned()
        assert padded.segments[0].data == b"\x01\x02\x03\xff"
        # already-even segments are untouched
        assert padded.word_aligned() == padded

    def test_byte_count(self):
        assert parse_ti_txt(SAMPLE).byte_count == 21

    def test_write_ops_are_built_once_per_chunk_size(self):
        # An even image is its own word-aligned form, so every transfer
        # of it reuses the block writes the first one built.
        image = FirmwareImage((FirmwareSegment(0x4400, bytes(range(10))),))
        assert image.word_aligned() is image
        ops = image.write_ops(2)
        assert ops == (
            (
                BlockWriteOp(0x4400, (0x0100, 0x0302)),
                BlockWriteOp(0x4404, (0x0504, 0x0706)),
                BlockWriteOp(0x4408, (0x0908,)),
            ),
        )
        assert image.write_ops(2) is ops
        assert [len(op.words) for op in image.write_ops(4)[0]] == [4, 1]
        copy = replace(image, obeys_goto_bios=False)
        assert copy == replace(image, obeys_goto_bios=False)
        assert copy.write_ops(2) == ops and copy.write_ops(2) is not ops

    def test_overlap_rejected_at_construction(self):
        with pytest.raises(ValueError):
            FirmwareImage(
                (
                    FirmwareSegment(0x4400, b"\x00\x01"),
                    FirmwareSegment(0x4401, b"\x02"),
                )
            )

    def test_sidecar_loading(self, tmp_path):
        fw = tmp_path / "app.txt"
        fw.write_text(SAMPLE)
        assert load_firmware(fw).obeys_goto_bios  # no sidecar: defaults
        behavior_sidecar_path(fw).write_text(
            json.dumps({"obeys_goto_bios": False})
        )
        image = load_firmware(fw)
        assert not image.obeys_goto_bios
        assert image.responds_to_inventory  # unspecified key keeps default

    @pytest.mark.parametrize(
        "text, error",
        [
            ('{"obeys_goto_bios": "false"}', "bad obeys_goto_bios in "),
            ('{"responds_to_inventory": 0}', "bad responds_to_inventory in "),
            ('{"obeys_goto_bios": null}', "bad obeys_goto_bios in "),
            ("[false]", "expected a JSON object"),
            ('{"obeys_goto_bios": fals', "Expecting value"),
        ],
    )
    def test_sidecar_flags_must_be_json_booleans(self, tmp_path, text, error):
        # "false" is truthy text: read with bool() it loaded as True.
        fw = tmp_path / "app.txt"
        fw.write_text(SAMPLE)
        sidecar = behavior_sidecar_path(fw)
        sidecar.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(error)) as refusal:
            load_firmware(fw)
        assert str(sidecar) in str(refusal.value)

    def test_shipped_stuck_image_loads_its_sidecar(self):
        firmware = Path(__file__).resolve().parent.parent / "firmware"
        stuck = load_firmware(firmware / "stuck_app.txt")
        assert not stuck.obeys_goto_bios and stuck.responds_to_inventory
        demo = load_firmware(firmware / "demo_app.txt")
        assert demo.obeys_goto_bios and demo.responds_to_inventory


class TestRegionValidation:
    def test_clean_image(self):
        assert validate_regions(parse_ti_txt(SAMPLE), MemoryMap()) == ()

    @pytest.mark.parametrize(
        "start,size",
        [
            (0xFC00, 2),    # bootloader proper
            (0xFBFF, 2),    # one byte over the top edge
            (0x4000, 16),   # below the application region
            (0x43FF, 2),    # straddles the low edge
        ],
    )
    def test_out_of_region_segments_reported(self, start, size):
        image = FirmwareImage((FirmwareSegment(start, bytes(size)),))
        assert validate_regions(image, MemoryMap()) == ((start, start + size - 1),)


class TestAntennaChoice:
    GEOMETRY = default_geometry()
    PARAMS = LinkBudgetParams()

    def test_frozen_choices(self):
        # distance rail: first four tags belong to the head-on antenna,
        # the far corner flips to the angled one, and tag 4 sits within
        # the 3 dB tie window of both.
        want = {
            0: (2,),
            1: (2,),
            2: (2,),
            3: (2,),
            4: (2, 3),
            5: (3,),
            6: (1,),
        }
        for tag_id, antennas in want.items():
            assert choose_antennas(self.GEOMETRY, self.PARAMS, tag_id) == antennas

    def test_frozen_choices_reversed_preset(self):
        # tag 0 is aligned with the angled antenna; tags 2 and 3 see both
        # within the 3 dB tie window
        geometry = default_geometry("reversed")
        want = {0: (3,), 1: (2,), 2: (2, 3), 3: (2, 3), 4: (3,), 5: (3,), 6: (1,)}
        for tag_id, antennas in want.items():
            assert choose_antennas(geometry, self.PARAMS, tag_id) == antennas

    def test_tie_window_zero_picks_single_best(self):
        assert choose_antennas(self.GEOMETRY, self.PARAMS, 4, tie_db=0.0) == (3,)

    def test_floor_links_never_chosen(self):
        # tag 0 is nulled for the angle antenna; only the head-on one
        # qualifies no matter how wide the window.
        assert choose_antennas(self.GEOMETRY, self.PARAMS, 0, tie_db=60.0) == (2,)


# -- scripted transfer ---------------------------------------------------


@dataclass
class FakeSession:
    """Scripted reader session: pops canned per-op results in order."""

    script: list
    slot_duration_ms: float = 75.0
    calls: list = field(default_factory=list)

    def execute_access(self, ops, target_epc, antennas, max_retries):
        self.calls.append((tuple(ops), bytes(target_epc), antennas, max_retries))
        results = []
        for op in ops:
            if not self.script:
                raise AssertionError("script exhausted")
            entry = self.script.pop(0)
            results.append(
                AccessResult(
                    kind="scripted",
                    target_epc=target_epc,
                    success=entry.get("success", True),
                    attempts=entry.get("attempts", 1),
                    detail=entry.get("detail"),
                    data=tuple(entry.get("data", ())),
                )
            )
            if not results[-1].success:
                break
        return results


EPC = bytes.fromhex("e20000000000000000000001")


def small_image() -> FirmwareImage:
    return FirmwareImage((FirmwareSegment(0x4400, b"\x01\x02\x03\x04"),))


def checksum_of(image: FirmwareImage) -> int:
    return ones_complement_sum16(image.segments[0].data)


class TestReprogram:
    def test_success_path_and_frame_accounting(self):
        image = small_image()
        session = FakeSession(
            script=[
                {"attempts": 3},                 # goto bios
                {"attempts": 1},                 # write word 1
                {"attempts": 2},                 # write word 2
                {"attempts": 1, "data": (checksum_of(image),)},
                {"attempts": 4},                 # commit
            ]
        )
        stats = reprogram(EPC, image, session, TransferPolicy(), tag_id=1)
        assert stats.outcome == "success"
        assert stats.messages_sent == 3 + 1 + 2 + 1 + 4
        assert stats.messages_retried == 2 + 0 + 1 + 0 + 3
        assert stats.virtual_duration_s == pytest.approx(
            stats.messages_sent * 75.0 / 1000.0
        )

    def test_op_sequence_shape(self):
        image = small_image()
        session = FakeSession(
            script=[
                {},
                {},
                {},
                {"data": (checksum_of(image),)},
                {},
            ]
        )
        reprogram(EPC, image, session, TransferPolicy(chunk_words=1), tag_id=1)
        flat_ops = [op for call in session.calls for op in call[0]]
        assert isinstance(flat_ops[0], GotoBiosOp)
        assert [type(op) for op in flat_ops[1:3]] == [BlockWriteOp, BlockWriteOp]
        assert flat_ops[1].start_address == 0x4400
        assert flat_ops[2].start_address == 0x4402
        assert isinstance(flat_ops[3], ChecksumOp)
        commit = flat_ops[4]
        assert isinstance(commit, CommitOp)
        assert commit.segments == ((0x4400, 4, checksum_of(image)),)

    def test_every_transfer_of_an_image_sends_the_same_writes(self):
        image = small_image()
        calls = []
        for _ in range(2):
            script = [{}, {}, {}, {"data": (checksum_of(image),)}, {}]
            session = FakeSession(script=script)
            reprogram(EPC, image, session, TransferPolicy(), tag_id=1)
            calls.append(session.calls)
        first, second = (session_calls[1][0] for session_calls in calls)
        assert first is second
        writes = (BlockWriteOp(0x4400, (0x0201,)), BlockWriteOp(0x4402, (0x0403,)))
        assert first == writes

    def test_chunking_respects_policy(self):
        image = FirmwareImage((FirmwareSegment(0x4400, bytes(range(16))),))
        session = FakeSession(
            script=[{}] * 3
            + [{"data": (ones_complement_sum16(bytes(range(16))),)}, {}]
        )
        reprogram(EPC, image, session, TransferPolicy(chunk_words=4), tag_id=0)
        writes = [
            op
            for call in session.calls
            for op in call[0]
            if isinstance(op, BlockWriteOp)
        ]
        assert [len(w.words) for w in writes] == [4, 4]
        assert [w.start_address for w in writes] == [0x4400, 0x4408]

    def test_goto_bios_budget_comes_from_abort_timeout(self):
        session = FakeSession(
            script=[{"success": False, "attempts": 400}],
            slot_duration_ms=75.0,
        )
        policy = TransferPolicy(abort_timeout_ms=30_000.0)
        stats = reprogram(EPC, small_image(), session, policy, tag_id=1)
        assert stats.outcome == "abort-timeout"
        # ceil(30000 / 75) = 400 attempts -> max_retries 399
        assert session.calls[0][3] == 399
        assert stats.messages_sent == 400

    def test_region_violation_costs_zero_airtime(self):
        bad = FirmwareImage((FirmwareSegment(0xFC00, b"\x00\x00"),))
        session = FakeSession(script=[])
        stats = reprogram(EPC, bad, session, TransferPolicy(), tag_id=2)
        assert stats.outcome == "region-violation"
        assert stats.messages_sent == 0
        assert stats.virtual_duration_s == 0.0
        assert session.calls == []  # nothing ever went on the air

    def test_verify_failed_on_checksum_disagreement(self):
        image = small_image()
        session = FakeSession(
            script=[{}, {}, {}, {"data": (checksum_of(image) ^ 0xFFFF,)}]
        )
        stats = reprogram(EPC, image, session, TransferPolicy(), tag_id=1)
        assert stats.outcome == "verify-failed"

    def test_verify_failed_on_commit_nack(self):
        image = small_image()
        session = FakeSession(
            script=[
                {},
                {},
                {},
                {"data": (checksum_of(image),)},
                {"success": False, "detail": "checksum-mismatch"},
            ]
        )
        stats = reprogram(EPC, image, session, TransferPolicy(), tag_id=1)
        assert stats.outcome == "verify-failed"

    def test_write_exhaustion_aborts(self):
        image = small_image()
        session = FakeSession(
            script=[{}, {"success": False, "attempts": 256}]
        )
        stats = reprogram(EPC, image, session, TransferPolicy(max_retries=255), tag_id=1)
        assert stats.outcome == "abort-timeout"
        assert stats.messages_sent == 1 + 256

    def test_active_region_nack_reported_as_region_violation(self):
        # pre-flight passed (host map says ok) but the tag disagrees
        image = small_image()
        session = FakeSession(
            script=[{}, {"success": False, "attempts": 1, "detail": "region-violation"}]
        )
        stats = reprogram(EPC, image, session, TransferPolicy(), tag_id=1)
        assert stats.outcome == "region-violation"

    def test_odd_length_segment_padded_before_transfer(self):
        image = FirmwareImage((FirmwareSegment(0x4400, b"\x01\x02\x03"),))
        padded = b"\x01\x02\x03\xff"
        session = FakeSession(
            script=[{}, {}, {}, {"data": (ones_complement_sum16(padded),)}, {}]
        )
        stats = reprogram(EPC, image, session, TransferPolicy(), tag_id=1)
        assert stats.outcome == "success"
        writes = [
            op
            for call in session.calls
            for op in call[0]
            if isinstance(op, BlockWriteOp)
        ]
        assert writes[-1].words[-1] == 0xFF03  # little-endian pad byte on top

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TransferPolicy(chunk_words=0).validate()
        with pytest.raises(ValueError):
            TransferPolicy(abort_timeout_ms=0).validate()
        with pytest.raises(ValueError):
            TransferPolicy(max_retries=-1).validate()

    def test_policy_retries_bounded_to_the_wire_u16(self):
        TransferPolicy(max_retries=0xFFFF).validate()
        with pytest.raises(ValueError, match="max_retries"):
            TransferPolicy(max_retries=0x10000).validate()

    @pytest.mark.parametrize("max_retries", [-1, 0x10000])
    def test_encode_rejects_retries_outside_u16(self, max_retries):
        spec = AddAccessSpec(1, 1, bytes(12), (), max_retries, (GotoBiosOp(),))
        with pytest.raises(EncodeError, match="max_retries"):
            encode(spec)
        encode(replace(spec, max_retries=0xFFFF))  # the largest legal value


@given(st.binary(min_size=1, max_size=600))
def test_parse_serialize_round_trip_any_payload(data):
    image = FirmwareImage((FirmwareSegment(0x4400, data),))
    assert parse_ti_txt(serialize_ti_txt(image)) == image
