"""Tag model tests: memory protocol, checksums, energy, brownout."""

import math

import pytest
from hypothesis import given, strategies as st

from tpcbed.tag import (
    ACK,
    ApplicationBehavior,
    CrfidTag,
    EnergyParams,
    MemoryAccessError,
    MemoryLayoutError,
    MemoryMap,
    MemoryRegion,
    TagMode,
    default_epc,
    ones_complement_sum16,
)

from oracles import checksum_oracle, write_words_oracle


def make_tag(**kwargs) -> CrfidTag:
    defaults = dict(
        tag_id=0,
        epc=default_epc(0),
        energy=EnergyParams(),
        behavior=ApplicationBehavior(),
    )
    defaults.update(kwargs)
    tag = CrfidTag(**defaults)
    tag.energy_uj = tag.energy_params.capacity_uj  # start charged
    return tag


def bios_tag(**kwargs) -> CrfidTag:
    tag = make_tag(**kwargs)
    assert tag.on_goto_bios() is ACK
    return tag


class TestChecksum:
    @pytest.mark.parametrize(
        "data,want",
        [
            (b"", 0),
            (b"\x00\x00\x00", 0),
            (b"\x01", 1),
            (b"\xff", 0xFF),
            (b"\xff" * 2, 0x1FE),
            (bytes(range(256)) * 300, None),  # big enough to force carry folds
        ],
    )
    def test_known_and_oracle_values(self, data, want):
        got = ones_complement_sum16(data)
        assert got == checksum_oracle(data)
        if want is not None:
            assert got == want

    @given(st.binary(max_size=4096))
    def test_matches_oracle(self, data):
        assert ones_complement_sum16(data) == checksum_oracle(data)

    @given(st.binary(max_size=512))
    def test_result_fits_sixteen_bits(self, data):
        assert 0 <= ones_complement_sum16(data) <= 0xFFFF


class TestMemoryMap:
    def test_default_regions(self):
        memory = MemoryMap()
        assert memory.bootloader.start == 0xFC00
        assert memory.bootloader.end == 0xFFFF
        assert memory.application.start == 0x4400
        assert memory.application.end == 0xFBFF
        assert len(memory.contents) == 0x10000
        assert set(memory.contents) == {0xFF}  # erased flash

    def test_rejects_overlapping_regions(self):
        with pytest.raises(MemoryLayoutError):
            MemoryMap(
                bootloader=MemoryRegion(0xF000, 0xFFFF),
                application=MemoryRegion(0x4400, 0xF800),
            )

    def test_read_bounds(self):
        memory = MemoryMap()
        assert memory.read(0xFFFE, 2) == b"\xff\xff"
        with pytest.raises(MemoryAccessError):
            memory.read(0xFFFF, 2)
        with pytest.raises(MemoryAccessError):
            memory.read(-1, 1)

    def test_region_helpers(self):
        region = MemoryRegion(0x10, 0x1F)
        assert region.size == 16
        assert region.contains(0x10) and region.contains(0x1F)
        assert not region.contains(0x20)
        assert region.overlaps(0x00, 0x10)
        assert not region.overlaps(0x20, 0x30)


class TestWriteProtocol:
    def test_write_requires_bios_mode(self):
        tag = make_tag()
        ack = tag.on_write_words(0x4400, [0x1234])
        assert not ack.ok and ack.reason == "wrong-mode"
        assert tag.read_bytes(0x4400, 2) == b"\xff\xff"

    def test_write_little_endian(self):
        tag = bios_tag()
        assert tag.on_write_words(0x4400, [0x1234, 0xABCD]).ok
        assert tag.read_bytes(0x4400, 4) == b"\x34\x12\xcd\xab"

    @pytest.mark.parametrize(
        "start,words",
        [
            (0xFC00, [0]),          # squarely in the bootloader
            (0xFBFE, [0, 0]),       # straddles the boundary
            (0x4300, [0] * 200),    # starts below the application region
            (0x43FE, [0, 0]),       # straddles the low edge
            (0xFFFE, [0, 0]),       # runs off the end of memory
        ],
    )
    def test_bootloader_and_out_of_region_writes_refused(self, start, words):
        tag = bios_tag()
        before = bytes(tag.memory.contents)
        ack = tag.on_write_words(start, words)
        assert not ack.ok and ack.reason == "region-violation"
        assert bytes(tag.memory.contents) == before  # nothing changed

    def test_rejected_write_is_atomic(self):
        tag = bios_tag()
        # starts legal, runs into the bootloader: no partial effect
        start = 0xFBFC
        ack = tag.on_write_words(start, [0x1111, 0x2222, 0x3333])
        assert not ack.ok
        assert tag.read_bytes(start, 6) == b"\xff" * 6

    def test_bad_word_value_is_atomic_too(self):
        tag = bios_tag()
        ack = tag.on_write_words(0x4400, [0x1111, 0x10000])
        assert not ack.ok
        assert tag.read_bytes(0x4400, 4) == b"\xff" * 4

    def test_empty_write_acks(self):
        assert bios_tag().on_write_words(0x4400, []).ok

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=0xFFFF),
                st.lists(st.integers(min_value=0, max_value=0xFFFF), max_size=16),
            ),
            max_size=30,
        )
    )
    def test_no_write_sequence_ever_touches_the_bootloader(self, writes):
        tag = bios_tag()
        canary = bytes(tag.memory.contents[0xFC00:0x10000])
        for start, words in writes:
            tag.on_write_words(start, words)
        assert bytes(tag.memory.contents[0xFC00:0x10000]) == canary


    @given(
        bootloader=st.sampled_from([(0xFC00, 0xFFFF), (0x0000, 0x03FF), (0x8000, 0x80FF)]),
        application=st.sampled_from(
            [(0x4400, 0x7FFF), (0x0400, 0x43FF), (0x8100, 0xFBFF), (0x4400, 0xFFFF)]
        ),
        in_bios=st.booleans(),
        writes=st.lists(
            st.tuples(
                st.one_of(
                    st.integers(min_value=-4, max_value=0x10004),
                    st.sampled_from(
                        [0, 0x03FE, 0x0400, 0x43FE, 0x7FFE, 0x8000, 0x80FE, 0xFBFE, 0xFC00]
                    ),
                ),
                st.lists(
                    st.one_of(
                        st.integers(min_value=0, max_value=0xFFFF),
                        st.sampled_from([-1, 0x10000, 0xFFFF, 0]),
                    ),
                    max_size=6,
                ),
            ),
            max_size=10,
        ),
    )
    def test_same_refusals_and_flash_as_the_reference(
        self, bootloader, application, in_bios, writes
    ):
        def tag():
            # Regions set after construction skip MemoryMap's overlap check,
            # so the write path's own bootloader check is exercised too.
            memory = MemoryMap()
            memory.bootloader = MemoryRegion(*bootloader)
            memory.application = MemoryRegion(*application)
            made = make_tag(memory=memory)
            if in_bios:
                made.on_goto_bios()
            return made

        fast, reference = tag(), tag()
        for start, words in writes:
            ack = fast.on_write_words(start, words)
            assert (ack.ok, ack.reason) == write_words_oracle(reference, start, words)
            assert fast.memory.contents == reference.memory.contents


class TestModeProtocol:
    def test_goto_bios_flips_mode(self):
        tag = make_tag()
        assert tag.mode is TagMode.APPLICATION
        assert tag.on_goto_bios() is ACK
        assert tag.mode is TagMode.BIOS

    def test_goto_bios_idempotent(self):
        tag = bios_tag()
        assert tag.on_goto_bios() is ACK
        assert tag.mode is TagMode.BIOS

    def test_disobedient_application_stays_silent(self):
        tag = make_tag(behavior=ApplicationBehavior(obeys_goto_bios=False))
        assert tag.on_goto_bios() is None
        assert tag.mode is TagMode.APPLICATION

    def test_commit_requires_bios(self):
        tag = make_tag()
        ack = tag.commit_firmware([(0x4400, 2, 0)], ApplicationBehavior())
        assert not ack.ok and ack.reason == "wrong-mode"

    def test_commit_verifies_checksums(self):
        tag = bios_tag()
        tag.on_write_words(0x4400, [0x0201])
        good = ones_complement_sum16(b"\x01\x02")
        ack = tag.commit_firmware([(0x4400, 2, good ^ 1)], ApplicationBehavior())
        assert not ack.ok and ack.reason == "checksum-mismatch"
        assert tag.mode is TagMode.BIOS  # refused commit leaves bios active

    def test_commit_swaps_behavior_and_returns_to_application(self):
        tag = bios_tag()
        tag.on_write_words(0x4400, [0x0201])
        good = ones_complement_sum16(b"\x01\x02")
        new_behavior = ApplicationBehavior(obeys_goto_bios=False)
        ack = tag.commit_firmware([(0x4400, 2, good)], new_behavior)
        assert ack.ok
        assert tag.mode is TagMode.APPLICATION
        assert tag.behavior == new_behavior
        # the new application ignores the yield command
        assert tag.on_goto_bios() is None

    def test_commit_checksum_over_unwritable_range_refused(self):
        tag = bios_tag()
        ack = tag.commit_firmware([(0xFFFF, 4, 0)], ApplicationBehavior())
        assert not ack.ok and ack.reason == "checksum-mismatch"


class TestEnergy:
    def test_harvest_charges_linearly(self):
        tag = make_tag()
        tag.energy_uj = 0.0
        # 0 dBm incident = 1 mW; 30% efficiency for 10 ms = 3 uJ
        tag.harvest_step(0.0, 10.0)
        assert tag.energy_uj == pytest.approx(3.0)

    def test_harvest_respects_capacity(self):
        tag = make_tag()
        tag.harvest_step(20.0, 1000.0)
        assert tag.energy_uj == tag.energy_params.capacity_uj

    def test_below_threshold_drains(self):
        tag = make_tag()
        tag.energy_uj = 1.0
        tag.harvest_step(-50.0, 10.0)  # idle draw 0.01 mW for 10 ms = 0.1 uJ
        assert tag.energy_uj == pytest.approx(0.9)

    def test_brownout_resets_volatile_state(self):
        tag = bios_tag()
        tag.energy_uj = 0.05
        tag.harvest_step(-50.0, 100.0)
        assert tag.energy_uj == 0.0
        assert tag.mode is TagMode.APPLICATION  # bios does not survive power loss
        assert tag.brownout_count == 1

    def test_brownout_counted_once_per_crossing(self):
        tag = make_tag()
        tag.energy_uj = 0.05
        tag.harvest_step(-50.0, 100.0)
        tag.harvest_step(-50.0, 100.0)
        tag.harvest_step(-50.0, 100.0)
        assert tag.brownout_count == 1

    def test_brownout_survives_flash_but_not_mode(self):
        tag = bios_tag()
        tag.on_write_words(0x4400, [0xBEEF])
        tag.energy_uj = 0.01
        tag.harvest_step(-50.0, 100.0)
        assert tag.read_bytes(0x4400, 2) == b"\xef\xbe"  # flash is non-volatile

    @pytest.mark.parametrize(
        "energy_uj, incident_dbm, dt_ms",
        [
            (50.0, 5.0, math.nan),
            (50.0, -30.0, math.nan),
            (math.nan, 5.0, 1.0),
            (math.nan, -30.0, 1.0),
            (-0.0, -30.0, 0.0),
            (-0.0, 5.0, 0.0),
            (100.0, 5.0, 0.0),
            (1.0, -30.0, 1e9),
        ],
    )
    def test_energy_clamps_as_min_and_max(self, energy_uj, incident_dbm, dt_ms):
        tag = make_tag()
        tag.energy_uj = energy_uj
        params = tag.energy_params
        if incident_dbm >= params.harvest_threshold_dbm:
            gained = params.harvest_efficiency * 10.0 ** (incident_dbm / 10.0) * dt_ms
            expected = min(params.capacity_uj, energy_uj + gained)
        else:
            expected = max(0.0, energy_uj - params.idle_draw_mw * dt_ms)
        tag.harvest_step(incident_dbm, dt_ms)
        assert repr(tag.energy_uj) == repr(expected)  # NaN and -0.0 alike

    def test_unpowered_tag_is_unresponsive(self):
        tag = make_tag()
        tag.energy_uj = 0.0
        assert not tag.powered
        assert not tag.responsive

    def test_quiet_application_responds_only_in_bios(self):
        tag = make_tag(behavior=ApplicationBehavior(responds_to_inventory=False))
        assert not tag.responsive
        tag.mode = TagMode.BIOS
        assert tag.responsive


class TestEpc:
    def test_default_epc_shape(self):
        epc = default_epc(5)
        assert len(epc) == 12
        assert epc[0] == 0xE2
        assert epc[-1] == 5

    def test_tag_rejects_bad_epc_length(self):
        with pytest.raises(ValueError):
            make_tag(epc=b"\xe2\x00")
