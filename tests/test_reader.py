"""Reader behavior: inventory scheduling, access retries, and the TCP path."""

import itertools
import json
import math
import socket
import threading
import time
import typing

from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    entry_to_observation,
    execute_access_oracle,
    run_inventory_oracle,
    singulation_distribution,
)
import tpcbed.reader as reader_module
from tpcbed.config import TagProfile, default_config
from tpcbed.llrp import (
    AccessOp,
    AddAccessSpec,
    AddROSpec,
    BlockWriteOp,
    ChecksumOp,
    CommitOp,
    ErrorCode,
    ErrorMessage,
    GetCapabilities,
    GotoBiosOp,
    HEADER_LEN,
    Keepalive,
    KeepaliveAck,
    OP_KIND_NAMES,
    ReadOp,
    StartROSpec,
    StopROSpec,
    SuccessMessage,
    decode,
    encode,
    encode_frames,
)
from tpcbed.reader import (
    MAX_DURATION_S,
    MAX_STORED_SPECS,
    Reader,
    ReaderClient,
    ReaderError,
    ReaderServer,
    RemoteReaderSession,
    SINK_LINES,
    access_line,
    observation_to_entry,
    round_line,
)
from tpcbed.rfchannel import (
    AntennaPort,
    GeometryError,
    TagPlacement,
    TestbedGeometry as Geometry,  # alias dodges pytest class collection
)
from tpcbed.tag import (
    ApplicationBehavior,
    EnergyParams,
    TagMode,
    default_epc,
    ones_complement_sum16,
)
from tpcbed.wisent import TransferPolicy, choose_antennas, parse_ti_txt, reprogram
from tpcbed.world import World


def make_reader(seed=0, config=None, event_sink=None):
    return Reader(World(config or default_config(), seed=seed), event_sink=event_sink)


def charge_all(world):
    for tag in world.tags.values():
        tag.energy_uj = tag.energy_params.capacity_uj


class TestInventory:
    def test_zero_duration_runs_no_rounds(self):
        events = []
        reader = make_reader(event_sink=events.extend)
        batches = reader.run_inventory((2,), 0.0)
        assert batches == [[]]
        assert events == []
        assert reader.world.clock.now_ms == 0.0

    def test_single_round_duration_follows_q(self):
        reader = make_reader()
        # q_initial=4 -> first round is 16 slots; one round crosses any
        # duration shorter than it.
        slot = reader.slot_duration_ms
        reader.run_inventory((2,), 1.0)
        assert reader.world.clock.now_ms == pytest.approx(16 * slot)

    def test_end_trigger_single_batch(self):
        reader = make_reader(seed=3)
        batches = reader.run_inventory((2,), 10_000.0)
        assert len(batches) == 1
        rows = batches[0]
        assert rows  # the rail tags are close enough to show up
        assert all(r.antenna_id == 2 for r in rows)
        assert rows == sorted(rows, key=lambda r: (r.antenna_id, r.epc))
        for row in rows:
            assert row.read_count >= 1
            assert row.first_seen_ms <= row.last_seen_ms

    def test_periodic_trigger_batches(self):
        r_end = make_reader(seed=7)
        end_rows = r_end.run_inventory((2,), 6_000.0)[0]

        r_per = make_reader(seed=7)
        batches = r_per.run_inventory(
            (2,), 6_000.0, report_trigger="periodic", report_interval_ms=1_500.0
        )
        assert len(batches) >= 3
        # interval batches partition the same reads the end trigger sees
        per_tag: dict[bytes, int] = {}
        for batch in batches:
            for row in batch:
                per_tag[row.epc] = per_tag.get(row.epc, 0) + row.read_count
        assert per_tag == {r.epc: r.read_count for r in end_rows}

    def test_bad_trigger_rejected(self):
        reader = make_reader()
        with pytest.raises(ValueError):
            reader.run_inventory((2,), 100.0, report_trigger="sometimes")
        with pytest.raises(ValueError):
            reader.run_inventory((2,), 100.0, report_trigger="periodic")

    def test_unknown_antenna_rejected(self):
        reader = make_reader()
        with pytest.raises(GeometryError):
            reader.run_inventory((9,), 100.0)

    def test_same_seed_same_batches(self):
        a = make_reader(seed=11).run_inventory((2, 3), 8_000.0)
        b = make_reader(seed=11).run_inventory((2, 3), 8_000.0)
        assert a == b

    def test_different_seeds_diverge(self):
        a = make_reader(seed=1).run_inventory((2,), 8_000.0)
        b = make_reader(seed=2).run_inventory((2,), 8_000.0)
        assert a != b

    def test_antennas_alternate_round_by_round(self):
        events = []
        reader = make_reader(
            event_sink=lambda lines: events.extend(map(json.loads, lines))
        )
        reader.run_inventory((2, 3), 5_000.0)
        rounds = [e for e in events if e["event"] == "round"]
        assert len(rounds) >= 2
        assert [e["antenna"] for e in rounds[:4]] == [2, 3, 2, 3][: len(rounds[:4])]

    def test_a_long_survey_hands_the_sink_at_most_the_cap_per_call(self):
        calls = []
        reader = make_reader(event_sink=calls.append)
        reader.run_inventory((1,), 3_600_000.0)
        sizes = [len(lines) for lines in calls]
        assert len(sizes) > 2
        assert sizes[:-1] == [SINK_LINES] * (len(sizes) - 1)
        assert 0 < sizes[-1] <= SINK_LINES

    def test_round_events_carry_virtual_time(self):
        events = []
        reader = make_reader(
            event_sink=lambda lines: events.extend(map(json.loads, lines))
        )
        reader.run_inventory((2,), 2_000.0)
        rounds = [e for e in events if e["event"] == "round"]
        assert rounds[0]["t"].startswith("2016-04-02T00:00:")
        assert rounds[0]["t"].endswith("Z")
        assert rounds[0]["slots"] == 16

    def test_null_link_tag_never_reported(self):
        # the head-on tag sits in the angled antenna's pattern null
        reader = make_reader(seed=5)
        rows = reader.run_inventory((3,), 20_000.0)[0]
        assert all(r.tag_id != 0 for r in rows)


class TestExecuteAccess:
    def test_goto_bios_flips_mode(self):
        reader = make_reader()
        charge_all(reader.world)
        epc = default_epc(1)
        results = reader.execute_access([GotoBiosOp()], epc, antennas=(2,))
        assert len(results) == 1
        assert results[0].success
        assert results[0].kind == "goto-bios"
        assert reader.world.tag(1).mode is TagMode.BIOS

    def test_attempts_counted_and_clock_advanced(self):
        reader = make_reader()
        epc = default_epc(1)
        before = reader.world.clock.now_ms
        results = reader.execute_access([GotoBiosOp()], epc, antennas=(2,))
        elapsed = reader.world.clock.now_ms - before
        assert elapsed == pytest.approx(results[0].attempts * reader.slot_duration_ms)

    def test_silent_tag_burns_full_budget(self):
        config = default_config()
        config.tag_profiles[1] = TagProfile(obeys_goto_bios=False)
        reader = make_reader(config=config)
        epc = default_epc(1)
        results = reader.execute_access([GotoBiosOp()], epc, antennas=(2,), max_retries=12)
        assert not results[0].success
        assert results[0].attempts == 13
        assert results[0].detail is None

    def test_active_refusal_not_retried(self):
        reader = make_reader()
        charge_all(reader.world)
        epc = default_epc(1)
        # write while still in application mode: the tag answers with a
        # nack immediately, so one delivered attempt settles it.
        results = reader.execute_access(
            [BlockWriteOp(0x4400, (0x1234,))], epc, antennas=(2,), max_retries=50
        )
        assert not results[0].success
        assert results[0].detail == "wrong-mode"
        assert results[0].attempts < 10  # a few link misses allowed, no nack retries

    def test_sequence_stops_after_failure(self):
        reader = make_reader()
        charge_all(reader.world)
        epc = default_epc(1)
        results = reader.execute_access(
            [BlockWriteOp(0x4400, (0x1234,)), GotoBiosOp()],
            epc,
            antennas=(2,),
        )
        assert len(results) == 1  # the goto-bios op never went out

    def test_equal_outcomes_of_one_call_are_one_object(self):
        reader = make_reader()
        charge_all(reader.world)
        reader.world.tag(1).mode = TagMode.BIOS
        writes = [BlockWriteOp(0x4400 + 2 * i, (i,)) for i in range(40)]
        ops = writes + [ReadOp(0x4400, 2)] * 6
        results = reader.execute_access(ops, default_epc(1), (2,), 40)
        assert len(results) == len(ops) and all(r.success for r in results)
        first = {}
        for result in results:
            assert first.setdefault(result, result) is result
        assert len(first) < len(results)
        # The table is the call's own: a second call shares nothing.
        again = reader.execute_access(ops, default_epc(1), (2,), 40)
        assert set(again) & set(results)
        assert not {id(r) for r in again} & {id(r) for r in results}

    def test_every_op_type_has_one_kind_and_a_handler(self):
        op_types = typing.get_args(AccessOp)
        kinds = [op_type.kind for op_type in op_types]
        assert sorted(kinds) == sorted(OP_KIND_NAMES.values())  # one to one
        assert all(callable(getattr(op_type, "apply", None)) for op_type in op_types)

    def test_a_non_op_is_refused_when_its_turn_comes(self):
        events = []
        reader = make_reader(event_sink=events.extend)
        charge_all(reader.world)
        with pytest.raises(TypeError, match="not an access op: object"):
            reader.execute_access([object()], default_epc(1), (2,), 8)
        assert events == [] and reader.world.clock.now_ms == 0.0
        # the ops before it ran and were logged
        with pytest.raises(TypeError, match="not an access op: object"):
            reader.execute_access(
                [ReadOp(0x4400, 1), object()], default_epc(1), (2,), 100
            )
        assert [json.loads(line)["op"] for line in events] == ["read"]

    def test_one_sink_call_per_call_and_never_an_empty_one(self):
        calls = []
        reader = make_reader(event_sink=calls.append)
        charge_all(reader.world)
        reader.world.tag(1).mode = TagMode.BIOS
        ops = [BlockWriteOp(0x4400 + 2 * i, (i,)) for i in range(40)]
        results = reader.execute_access(ops, default_epc(1), (2,), 40)
        assert len(calls) == 1
        events = [json.loads(line) for line in calls[0]]
        assert [e["attempts"] for e in events] == [r.attempts for r in results]
        assert len(results) == 40 and all(r.success for r in results)
        # outcomes rendered once still carry each op's own stamp
        stamps = [e["t"] for e in events]
        assert stamps == sorted(set(stamps))
        reader.execute_access([], default_epc(1), (2,), 8)
        with pytest.raises(TypeError):
            reader.execute_access([object()], default_epc(1), (2,), 8)
        assert len(calls) == 1

    def test_read_returns_flash_words(self):
        reader = make_reader()
        charge_all(reader.world)
        tag = reader.world.tag(1)
        tag.mode = TagMode.BIOS
        assert tag.on_write_words(0x4400, [0x2211, 0x4433]).ok
        results = reader.execute_access(
            [ReadOp(0x4400, 2)], default_epc(1), antennas=(2,), max_retries=100
        )
        assert results[0].success
        assert results[0].data == (0x2211, 0x4433)

    def test_checksum_requires_bios_mode(self):
        reader = make_reader()
        charge_all(reader.world)
        results = reader.execute_access(
            [ChecksumOp(0x4400, 4)], default_epc(1), antennas=(2,)
        )
        assert not results[0].success
        assert results[0].detail == "wrong-mode"

    def test_checksum_matches_local_computation(self):
        reader = make_reader()
        charge_all(reader.world)
        tag = reader.world.tag(1)
        tag.mode = TagMode.BIOS
        payload = bytes([1, 2, 3, 4, 5, 6])
        assert tag.on_write_words(
            0x4400,
            [payload[i] | (payload[i + 1] << 8) for i in range(0, 6, 2)],
        ).ok
        results = reader.execute_access(
            [ChecksumOp(0x4400, 6)], default_epc(1), antennas=(2,), max_retries=100
        )
        assert results[0].success
        assert results[0].data == (ones_complement_sum16(payload),)

    def test_unknown_epc_exhausts_budget(self):
        reader = make_reader()
        ghost = bytes(12)
        results = reader.execute_access([GotoBiosOp()], ghost, max_retries=3)
        assert not results[0].success
        assert results[0].attempts == 4

    def test_default_antenna_is_best_link(self):
        reader = make_reader()
        charge_all(reader.world)
        events = []
        reader._sink = lambda lines: events.extend(map(json.loads, lines))
        reader.execute_access([GotoBiosOp()], default_epc(5))
        assert events[-1]["antennas"] == [3]  # far corner belongs to the angled antenna

    def test_dual_antennas_alternate(self):
        config = default_config()
        config.tag_profiles[4] = TagProfile(obeys_goto_bios=False)  # force a long retry run
        reader = make_reader(config=config)
        epc = default_epc(4)
        results = reader.execute_access(
            [GotoBiosOp()], epc, antennas=(2, 3), max_retries=7
        )
        assert results[0].attempts == 8  # both antennas shared the budget

    def test_explicit_unknown_antenna_rejected(self):
        reader = make_reader()
        with pytest.raises(GeometryError):
            reader.execute_access([GotoBiosOp()], default_epc(1), antennas=(42,))


class TestAccessAttempts:
    """The retry loop's budget and its square law, on ``execute_access``."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        tag_id=st.integers(min_value=0, max_value=6),
        antenna_id=st.sampled_from((1, 2, 3)),
        max_retries=st.integers(min_value=0, max_value=50),
        charged=st.booleans(),
    )
    def test_attempts_always_within_budget(
        self, seed, tag_id, antenna_id, max_retries, charged
    ):
        reader = make_reader(seed=seed)
        if charged:
            charge_all(reader.world)
        (result,) = reader.execute_access(
            [GotoBiosOp()], default_epc(tag_id), (antenna_id,), max_retries
        )
        assert 1 <= result.attempts <= max_retries + 1
        if not result.success:  # a go-to-bios is never refused
            assert result.attempts == max_retries + 1

    def test_dead_link_exhausts_budget(self):
        # antenna 2 has no placement for the lone tag: no draw, no delivery
        reader = make_reader()
        charge_all(reader.world)
        rng_state = reader.world.rng.getstate()
        (result,) = reader.execute_access(
            [GotoBiosOp()], default_epc(6), (2,), max_retries=7
        )
        assert not result.success and result.attempts == 8
        assert reader.world.rng.getstate() == rng_state

    def test_zero_retries_means_single_attempt(self):
        # antenna 3's null sits on tag 0: a link that delivers nothing
        reader = make_reader()
        charge_all(reader.world)
        (result,) = reader.execute_access(
            [GotoBiosOp()], default_epc(0), (3,), max_retries=0
        )
        assert not result.success and result.attempts == 1

    def test_perfect_link_takes_one_attempt(self):
        reader = make_reader()
        charge_all(reader.world)
        reader.world.rng.random = lambda: 0.0  # the first draw lands
        (result,) = reader.execute_access(
            [GotoBiosOp()], default_epc(1), (2,), max_retries=16
        )
        assert result.success and result.attempts == 1

    def test_mean_attempts_tracks_square_law(self):
        # Tag 2 stays charged under antenna 2, so each attempt is one draw
        # that lands with q = p², and the attempts A of one op are
        # geometric cut off at M + 1: P(A >= k) = (1 - q)^(k - 1).  The
        # mean over n seeds must be within 4 standard errors of E[A].
        max_retries, n = 3, 1500
        p = World(default_config()).link(2, 2).delivery_probability
        miss = 1.0 - p * p
        tail = [miss ** (k - 1) for k in range(1, max_retries + 2)]
        mean = sum(tail)
        variance = sum((2 * k - 1) * t for k, t in enumerate(tail, 1)) - mean**2
        total = 0
        for seed in range(n):
            reader = make_reader(seed=seed)
            charge_all(reader.world)
            (result,) = reader.execute_access(
                [GotoBiosOp()], default_epc(2), (2,), max_retries
            )
            assert reader.world.tag(2).brownout_count == 0
            total += result.attempts
        assert abs(total / n - mean) < 4.0 * math.sqrt(variance / n)


#: The antenna ``execute_access`` takes for each tag when given none.
DEFAULT_ANTENNA = {
    "default": {0: (2,), 1: (2,), 2: (2,), 3: (2,), 4: (3,), 5: (3,), 6: (1,)},
    "reversed": {0: (3,), 1: (2,), 2: (2,), 3: (3,), 4: (3,), 5: (3,), 6: (1,)},
}


class TestDefaultAntenna:
    @staticmethod
    def antennas_used(reader, epc):
        events = []
        reader._sink = lambda lines: events.extend(map(json.loads, lines))
        reader.execute_access([GotoBiosOp()], epc, max_retries=0)
        return tuple(events[-1]["antennas"])

    @pytest.mark.parametrize("angle_preset", sorted(DEFAULT_ANTENNA))
    def test_best_link_per_tag(self, angle_preset):
        reader = make_reader(config=default_config(angle_preset))
        got = {
            tag_id: self.antennas_used(reader, default_epc(tag_id))
            for tag_id in range(7)
        }
        assert got == DEFAULT_ANTENNA[angle_preset]

    def test_unknown_epc_gets_every_antenna(self):
        assert self.antennas_used(make_reader(), bytes(12)) == (1, 2, 3)

    def test_exact_tie_goes_to_the_lowest_antenna_id(self):
        # Antennas listed out of id order, one tag placed alike before both.
        geometry = Geometry(
            antennas=(AntennaPort(3), AntennaPort(2)),
            tags=(TagPlacement(0, {3: (0.2, 0.0), 2: (0.2, 0.0)}),),
        )
        config = replace(default_config(), geometry=geometry)
        assert choose_antennas(geometry, config.link, 0, tie_db=0.0) == (2, 3)
        assert self.antennas_used(make_reader(config=config), default_epc(0)) == (2,)


# The shape of VirtualClock.iso() text, ASCII digits only (years are unpadded)
ISO_TEXT = st.from_regex(
    r"[0-9]{1,4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}\.[0-9]{3}Z",
    fullmatch=True,
)
ANTENNA_LISTS = st.lists(st.integers(), min_size=1, max_size=2).map(tuple)
DETAILS = st.one_of(
    st.none(),
    st.sampled_from(
        ["wrong-mode", 'say "no"', "back\\slash", "\x00\x1f\x7f\n\t", "énergie ⚡ 𝄞"]
    ),
    st.text(),
)


class TestEventLines:
    """The rendered lines are what json.dumps(..., sort_keys=True) gives."""

    @given(
        t=ISO_TEXT,
        antenna=st.integers(),
        slots=st.integers(min_value=0),
        singulated=st.integers(min_value=0),
        collisions=st.integers(min_value=0),
    )
    def test_round_line(self, t, antenna, slots, singulated, collisions):
        event = {
            "event": "round",
            "t": t,
            "antenna": antenna,
            "slots": slots,
            "singulated": singulated,
            "collisions": collisions,
        }
        line = round_line(t, json.dumps(antenna), slots, singulated, collisions)
        assert line == json.dumps(event, sort_keys=True)

    @given(
        t=ISO_TEXT,
        op=st.sampled_from(sorted(OP_KIND_NAMES.values())),
        target=st.binary(max_size=16),
        antennas=ANTENNA_LISTS,
        attempts=st.integers(min_value=0),
        success=st.booleans(),
        detail=DETAILS,
    )
    def test_access_line(self, t, op, target, antennas, attempts, success, detail):
        event = {
            "event": "access",
            "t": t,
            "op": op,
            "target": target.hex(),
            "antennas": list(antennas),
            "attempts": attempts,
            "success": success,
            "detail": detail,
        }
        line = access_line(
            t, op, target.hex(), json.dumps(list(antennas)), attempts, success, detail
        )
        assert line == json.dumps(event, sort_keys=True)


APP = 0x4400  # start of the default application region
ACCESS_OPS = [
    GotoBiosOp(),
    BlockWriteOp(APP, (0x0201, 0x0403, 0x0605)),
    BlockWriteOp(0xFC00, (0xFFFF,)),  # the bootloader: region-violation
    ChecksumOp(APP, 6),
    ReadOp(APP, 3),
    ReadOp(0xFFFE, 4),  # past the address span: region-violation
    CommitOp(((APP, 6, ones_complement_sum16(bytes(range(1, 7)))),)),
    # erased flash checks out, and the new application ignores inventory:
    # the tag stops answering after the commit
    CommitOp(((0x8000, 4, ones_complement_sum16(b"\xff" * 4)),), responds_to_inventory=False),
    CommitOp(((APP, 6, 0xBEEF),), obeys_goto_bios=False),  # checksum-mismatch
]
TAG_IDS = tuple(sorted(t.tag_id for t in default_config().geometry.tags))


def bench_state(world):
    return [
        (
            tag.energy_uj,
            tag.mode,
            tag.brownout_count,
            tag.behavior,
            bytes(tag.memory.contents),
        )
        for _, tag in sorted(world.tags.items())
    ]


@st.composite
def access_calls(draw):
    ops = draw(st.lists(st.sampled_from(ACCESS_OPS), min_size=1, max_size=4))
    target = draw(st.one_of(st.sampled_from(TAG_IDS).map(default_epc), st.just(bytes(12))))
    antennas = draw(
        st.sampled_from([(1,), (2,), (3,), (2, 3), (3, 2), (1, 3), (1, 2, 3)])
    )
    return ops, target, antennas, draw(st.integers(min_value=0, max_value=30))


class TestExecuteAccessMatchesReference:
    """The reader's retry loop skips harvests on a quiet antenna and reads
    ``responsive`` only when it can have changed; the reference loop does
    neither, and both must agree on everything they leave behind."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        # small stores and large idle draws brown tags out within a call;
        # thresholds across the bench's incident powers (the RSSI floor to
        # about +19 dBm) make a tag charge on one antenna and drain on
        # another
        capacity_uj=st.floats(min_value=0.5, max_value=60.0),
        efficiency=st.floats(min_value=0.0, max_value=0.5),
        threshold_dbm=st.floats(min_value=-40.0, max_value=25.0),
        idle_draw_mw=st.floats(min_value=0.0, max_value=0.5),
        operate_min_uj=st.floats(min_value=0.0, max_value=5.0),
        start=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.booleans(),  # in bios
                st.booleans(),  # obeys goto-bios
                st.booleans(),  # answers inventory
            ),
            min_size=len(TAG_IDS),
            max_size=len(TAG_IDS),
        ),
        calls=st.lists(access_calls(), min_size=1, max_size=3),
    )
    def test_same_results_clock_draws_and_tags(
        self,
        seed,
        capacity_uj,
        efficiency,
        threshold_dbm,
        idle_draw_mw,
        operate_min_uj,
        start,
        calls,
    ):
        energy = EnergyParams(
            capacity_uj=capacity_uj,
            harvest_efficiency=efficiency,
            harvest_threshold_dbm=threshold_dbm,
            idle_draw_mw=idle_draw_mw,
            operate_min_uj=operate_min_uj,
        )
        config = replace(default_config(), energy=energy)
        lines = []
        fast = make_reader(seed, config, event_sink=lines.extend)
        reference = make_reader(seed, config)
        for world in (fast.world, reference.world):
            for tag_id, (share, bios, obeys, answers) in zip(TAG_IDS, start):
                tag = world.tags[tag_id]
                # full stores and empty ones sit at fixed points
                if share < 0.2:
                    tag.energy_uj = 0.0
                elif share > 0.8:
                    tag.energy_uj = capacity_uj
                else:
                    tag.energy_uj = share * capacity_uj
                tag.mode = TagMode.BIOS if bios else TagMode.APPLICATION
                tag.behavior = ApplicationBehavior(obeys, answers)

        expected_events = []
        for ops, target, antennas, max_retries in calls:
            results = fast.execute_access(ops, target, antennas, max_retries)
            expected, events = execute_access_oracle(
                reference, ops, target, antennas, max_retries
            )
            expected_events.extend(events)
            assert results == expected
            assert fast.world.clock.now_ms == reference.world.clock.now_ms
            assert fast.world.rng.getstate() == reference.world.rng.getstate()
            assert bench_state(fast.world) == bench_state(reference.world)
        assert lines == [json.dumps(e, sort_keys=True) for e in expected_events]

    @staticmethod
    def settled_bench_writes(config, seed=7):
        """Tag 4 takes 40 one-word writes on antennas (2, 3) from a settled
        bench (every store full, tag 6, which neither antenna reaches,
        empty), in the reader and in the reference.  Returns the reader's
        World and how many harvests it ran."""
        readers = [make_reader(seed, config), make_reader(seed, config)]
        for reader in readers:
            charge_all(reader.world)
            reader.world.tags[6].energy_uj = 0.0
            reader.world.tags[4].mode = TagMode.BIOS
        world = readers[0].world
        harvests = []
        harvest_all = world.harvest_all
        world.harvest_all = lambda *args: harvests.append(args) or harvest_all(*args)
        ops = [BlockWriteOp(0x4400 + 2 * i, (i,)) for i in range(40)]
        results = readers[0].execute_access(ops, default_epc(4), (2, 3), 40)
        expected, _ = execute_access_oracle(readers[1], ops, default_epc(4), (2, 3), 40)
        assert results == expected
        assert world.clock.now_ms == readers[1].world.clock.now_ms
        assert world.rng.getstate() == readers[1].world.rng.getstate()
        assert bench_state(world) == bench_state(readers[1].world)
        assert sum(r.attempts for r in results) > 200
        return world, len(harvests)

    def test_two_antenna_orbit_is_replayed(self):
        # Tag 0 drains under antenna 3 and refills under antenna 2, so the
        # bench never goes quiet; it alternates between two energy states,
        # and the reader harvests each (turn, state) once.
        world, harvests = self.settled_bench_writes(default_config())
        assert world.tags[0].energy_uj == 100.0
        assert harvests <= 4

    def test_a_brownout_every_cycle_is_never_replayed(self):
        # A 0.5 uJ store: antenna 2 fills tag 0 and one slot on antenna 3
        # drains it through zero, a brownout every cycle.  Replaying the
        # energy writes alone would stop the count.
        energy = EnergyParams(capacity_uj=0.5, operate_min_uj=0.1)
        world, _ = self.settled_bench_writes(replace(default_config(), energy=energy))
        assert world.tags[0].brownout_count > 100

    def test_target_powered_on_one_turn_of_the_orbit_only(self):
        # Tag 4 hears antenna 2 at 7.34 dBm and antenna 3 at 7.94 dBm.  A
        # 7.5 dBm threshold makes it drain one slot's idle draw (0.75 uJ)
        # under antenna 2 and refill under antenna 3, and an operate floor
        # halfway between powers it after antenna 3's turns only, although
        # both links deliver.
        energy = EnergyParams(harvest_threshold_dbm=7.5, operate_min_uj=99.625)
        config = replace(default_config(), energy=energy)
        world = make_reader(0, config).world
        charge_all(world)
        slot_ms = config.inventory.slot_duration_ms
        world.harvest_all(2, slot_ms)
        assert world.tags[4].energy_uj == 99.25 and not world.tags[4].powered
        world.harvest_all(3, slot_ms)
        assert world.tags[4].energy_uj == 100.0 and world.tags[4].powered
        readers = [make_reader(7, config), make_reader(7, config)]
        for reader in readers:
            charge_all(reader.world)
            reader.world.tags[6].energy_uj = 0.0
            reader.world.tags[4].mode = TagMode.BIOS
        ops = [BlockWriteOp(0x4400 + 2 * i, (i,)) for i in range(20)]
        results = readers[0].execute_access(ops, default_epc(4), (2, 3), 200)
        expected, _ = execute_access_oracle(readers[1], ops, default_epc(4), (2, 3), 200)
        assert results == expected
        assert all(r.success and r.attempts % 2 == 0 for r in results)
        fast, reference = readers[0].world, readers[1].world
        assert fast.clock.now_ms == reference.clock.now_ms
        assert fast.rng.getstate() == reference.rng.getstate()
        assert bench_state(fast) == bench_state(reference)

    @pytest.mark.parametrize(
        "energy",
        [EnergyParams(), EnergyParams(capacity_uj=0.5, operate_min_uj=0.1)],
        ids=["orbit", "brownout-every-cycle"],
    )
    def test_a_non_op_mid_list_leaves_the_state_of_the_ops_before_it(self, energy):
        # The clock and the energies live in locals between write-backs; the
        # raise must find them written back, modes and brownouts included.
        config = replace(default_config(), energy=energy)
        readers = [make_reader(5, config), make_reader(5, config)]
        for reader in readers:
            charge_all(reader.world)
            reader.world.tags[6].energy_uj = 0.0
            reader.world.tags[4].mode = TagMode.BIOS
        ops = [BlockWriteOp(0x4400 + 2 * i, (i,)) for i in range(6)]
        with pytest.raises(TypeError, match="not an access op: str"):
            readers[0].execute_access(ops + ["write"] + ops, default_epc(4), (2, 3), 40)
        expected, _ = execute_access_oracle(readers[1], ops, default_epc(4), (2, 3), 40)
        assert all(r.success for r in expected)
        fast, reference = readers[0].world, readers[1].world
        assert fast.clock.now_ms == reference.clock.now_ms
        assert fast.rng.getstate() == reference.rng.getstate()
        assert bench_state(fast) == bench_state(reference)

    def test_commit_that_ignores_inventory_silences_a_quiet_bench(self):
        # Every tag at a fixed point on antenna 2, so no harvest in the call
        # steps a tag: only the dispatch itself can tell the loop that the
        # committed application stopped answering.
        readers = [make_reader(3), make_reader(3)]
        for reader in readers:
            for tag, incident_dbm in reader.world._harvest_plan[2]:
                params = tag.energy_params
                charging = incident_dbm >= params.harvest_threshold_dbm
                tag.energy_uj = params.capacity_uj if charging else 0.0
            reader.world.tags[1].mode = TagMode.BIOS
        deaf_commit = CommitOp(
            ((0x8000, 4, ones_complement_sum16(b"\xff" * 4)),),
            responds_to_inventory=False,
        )
        ops = [deaf_commit, GotoBiosOp()]
        results = readers[0].execute_access(ops, default_epc(1), (2,), 5)
        expected, _ = execute_access_oracle(readers[1], ops, default_epc(1), (2,), 5)
        assert results == expected
        assert [r.success for r in results] == [True, False]
        assert results[1].attempts == 6


@st.composite
def inventory_calls(draw):
    # Orders with repeats, such as (2, 3, 3), let an antenna go quiet and
    # another then step the tags it sees.
    antennas = tuple(
        draw(st.lists(st.sampled_from((1, 2, 3)), min_size=1, max_size=4))
    )
    duration_ms = draw(
        st.one_of(st.just(0.0), st.floats(min_value=1_000.0, max_value=20_000.0))
    )
    trigger, interval_ms = draw(
        st.one_of(
            st.just(("end", 0.0)),
            st.tuples(
                st.just("periodic"), st.floats(min_value=75.0, max_value=5_000.0)
            ),
        )
    )
    # a write to one tag's fields before the call, as a caller or a
    # reprogram between two surveys would make
    write = draw(
        st.one_of(
            st.none(),
            st.tuples(
                st.sampled_from(TAG_IDS),
                st.sampled_from(["empty", "full", "bios", "deaf", "hearing"]),
            ),
        )
    )
    return antennas, duration_ms, trigger, interval_ms, write


def write_tag(tag, what):
    if what == "empty":
        tag.energy_uj = 0.0
    elif what == "full":
        tag.energy_uj = tag.energy_params.capacity_uj
    elif what == "bios":
        tag.mode = TagMode.BIOS
    else:
        tag.behavior = ApplicationBehavior(responds_to_inventory=what == "hearing")


class TestRunInventoryMatchesReference:
    """The reader's inventory loop skips the harvest and the reachable list
    of a quiet antenna; the reference loop does neither, and both must
    agree on everything they leave behind."""

    # Antenna 2 fills every rail tag and goes quiet on its second turn;
    # antenna 3 then drains tag 0, so antenna 2 must harvest again.
    @example(
        seed=79,
        capacity_uj=55.0,
        efficiency=0.01,
        threshold_dbm=-5.0,
        idle_draw_mw=0.01,
        operate_min_uj=1.0,
        start=[(0.0, False, True)] * len(TAG_IDS),
        calls=[((2, 2, 3), 10_000.0, "end", 0.0, None)],
    )
    # Antenna 2 goes quiet in the first call; the second must see that
    # tag 1 was emptied in between.
    @example(
        seed=0,
        capacity_uj=50.0,
        efficiency=0.3,
        threshold_dbm=-10.0,
        idle_draw_mw=0.01,
        operate_min_uj=1.0,
        start=[(0.0, False, True)] * len(TAG_IDS),
        calls=[
            ((2,), 10_000.0, "end", 0.0, None),
            ((2,), 5_000.0, "end", 0.0, (1, "empty")),
        ],
    )
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        # small stores, weak harvesting and large idle draws make tags
        # charge over several rounds on one antenna, drain on another and
        # brown out within a run; thresholds span the bench's incident
        # powers (the RSSI floor to about +19 dBm)
        capacity_uj=st.floats(min_value=0.5, max_value=60.0),
        efficiency=st.one_of(
            st.just(0.0),
            st.floats(min_value=-4.0, max_value=-0.5).map(lambda e: 10.0**e),
        ),
        threshold_dbm=st.floats(min_value=-40.0, max_value=25.0),
        idle_draw_mw=st.floats(min_value=0.0, max_value=0.5),
        operate_min_uj=st.floats(min_value=0.0, max_value=5.0),
        start=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.booleans(),  # in bios
                st.booleans(),  # answers inventory
            ),
            min_size=len(TAG_IDS),
            max_size=len(TAG_IDS),
        ),
        calls=st.lists(inventory_calls(), min_size=1, max_size=3),
    )
    def test_same_batches_lines_clock_draws_and_tags(
        self,
        seed,
        capacity_uj,
        efficiency,
        threshold_dbm,
        idle_draw_mw,
        operate_min_uj,
        start,
        calls,
    ):
        energy = EnergyParams(
            capacity_uj=capacity_uj,
            harvest_efficiency=efficiency,
            harvest_threshold_dbm=threshold_dbm,
            idle_draw_mw=idle_draw_mw,
            operate_min_uj=operate_min_uj,
        )
        config = replace(default_config(), energy=energy)
        lines = []
        fast = make_reader(seed, config, event_sink=lines.extend)
        reference = make_reader(seed, config)
        for world in (fast.world, reference.world):
            for tag_id, (share, bios, answers) in zip(TAG_IDS, start):
                tag = world.tags[tag_id]
                # full stores and empty ones sit at fixed points
                if share < 0.2:
                    tag.energy_uj = 0.0
                elif share > 0.8:
                    tag.energy_uj = capacity_uj
                else:
                    tag.energy_uj = share * capacity_uj
                tag.mode = TagMode.BIOS if bios else TagMode.APPLICATION
                tag.behavior = ApplicationBehavior(responds_to_inventory=answers)

        expected_events = []
        for antennas, duration_ms, trigger, interval_ms, write in calls:
            if write is not None:
                for world in (fast.world, reference.world):
                    write_tag(world.tags[write[0]], write[1])
            batches = fast.run_inventory(antennas, duration_ms, trigger, interval_ms)
            expected, events = run_inventory_oracle(
                reference, antennas, duration_ms, trigger, interval_ms
            )
            expected_events.extend(events)
            assert batches == expected
            assert fast.world.clock.now_ms == reference.world.clock.now_ms
            assert fast.world.rng.getstate() == reference.world.rng.getstate()
            assert bench_state(fast.world) == bench_state(reference.world)
        assert lines == [json.dumps(e, sort_keys=True) for e in expected_events]


class TestChargingClosedForm:
    def test_cold_tag_answers_from_the_round_its_charge_time_is_reached(
        self, monkeypatch
    ):
        # harvest_step is linear in incident mW, so a cold tag on one
        # antenna is powered once the rounds harvested so far add up to
        # operate_min_uj / (harvest_efficiency * 10^(P/10)) ms.  A weak
        # harvester takes about 2.3 s, many rounds, on the desk antenna.
        energy = EnergyParams(harvest_efficiency=5e-6)
        config = replace(default_config(), energy=energy)
        lines = []
        reader = make_reader(seed=9, config=config, event_sink=lines.extend)
        world = reader.world
        incident_dbm = world.links[(1, 6)].incident_power_dbm
        charge_ms = energy.operate_min_uj / (
            energy.harvest_efficiency * 10.0 ** (incident_dbm / 10.0)
        )

        reachable_ids = []
        traced = reader_module.run_inventory_round

        def recording_round(reachable_tags, *args, **kwargs):
            reachable_ids.append([t.tag_id for t in reachable_tags])
            return traced(reachable_tags, *args, **kwargs)

        monkeypatch.setattr(reader_module, "run_inventory_round", recording_round)
        rows = reader.run_inventory((1,), 5_000.0)[0]

        # Each round harvests for its own length before it runs.
        slot_ms = reader.slot_duration_ms
        round_ms = [json.loads(line)["slots"] * slot_ms for line in lines]
        harvested_ms = list(itertools.accumulate(round_ms))
        # the closed form is not within rounding of a round boundary
        assert all(abs(h - charge_ms) > 1e-6 * charge_ms for h in harvested_ms)
        first = next(i for i, h in enumerate(harvested_ms) if h >= charge_ms)
        assert 5 <= first < len(round_ms) - 5

        assert len(reachable_ids) == len(round_ms)
        assert all(ids == [] for ids in reachable_ids[:first])
        assert all(ids == [6] for ids in reachable_ids[first:])
        [row] = rows
        assert row.tag_id == 6
        assert row.first_seen_ms >= sum(round_ms[:first])


class TestReadRatesClosedForm:
    """Per-tag read counts of a long fixed-Q survey.  With no Q step and
    every tag kept powered, each round is an independent frame of
    N = 2^Q slots: tag i is read when it replies (p_i) and no other tag
    replies in the slot it drew, so per round
    P_i = p_i * prod over j != i of (1 - p_j / N), and its read count
    over R rounds is Binomial(R, P_i)."""

    ROUNDS = 20_000

    @staticmethod
    def read_probabilities(probabilities, n_slots):
        rates = []
        for i, p_i in enumerate(probabilities):
            others = probabilities[:i] + probabilities[i + 1 :]
            rates.append(p_i * math.prod(1.0 - p_j / n_slots for p_j in others))
        return rates

    def test_closed_form_sums_to_the_exact_round_mean(self):
        # Summed over tags, P_i is the mean singulations per round, which
        # the brute-force law of one round gives exactly.
        probabilities = [0.31, 0.82, 0.59, 0.38]
        for n_slots in (1, 2, 4):
            law = singulation_distribution(n_slots, probabilities)
            mean = sum(count * weight for count, weight in law.items())
            rates = self.read_probabilities(probabilities, n_slots)
            assert sum(rates) == pytest.approx(mean, rel=1e-12)

    @pytest.mark.parametrize("q", [0, 2])
    def test_read_counts_are_within_4_sigma_of_the_closed_form(self, q):
        config = default_config()
        config = replace(
            config,
            inventory=replace(config.inventory, q_initial=q, q_fp_step=0.0),
            energy=replace(config.energy, idle_draw_mw=0.0),
        )
        lines = []
        reader = make_reader(seed=17, config=config, event_sink=lines.extend)
        charge_all(reader.world)  # nothing drains, so every tag stays powered
        reachable = reader.world.reachable(2)
        assert len(reachable) == 6
        n_slots = 1 << q
        [rows] = reader.run_inventory(
            (2,), self.ROUNDS * n_slots * reader.slot_duration_ms
        )
        assert len(lines) == self.ROUNDS
        assert reader.world.reachable(2) == reachable
        assert all(tag.brownout_count == 0 for tag in reader.world.tags.values())

        counts = {row.tag_id: row.read_count for row in rows}
        rates = self.read_probabilities(
            [tag.delivery_probability for tag in reachable], n_slots
        )
        for tag, rate in zip(reachable, rates):
            expected = self.ROUNDS * rate
            sigma = math.sqrt(self.ROUNDS * rate * (1.0 - rate))
            assert abs(counts[tag.tag_id] - expected) <= 4.0 * sigma, tag.tag_id


class TestGotoBiosBudgetFitsTheWire:
    """``abort_timeout_ms`` sets the go-to-bios retries, which the reader
    protocol carries as a u16: local and remote sessions refuse the same
    budgets, before any frame."""

    image = parse_ti_txt("@4400\n01 02 03 04\nq\n")
    # 66,667 attempts of 75 ms
    too_long = TransferPolicy(abort_timeout_ms=5e6)

    def test_local_session_refuses_before_the_first_frame(self):
        reader = make_reader(seed=3)
        with pytest.raises(ValueError, match="abort_timeout_ms"):
            reprogram(default_epc(1), self.image, reader, self.too_long, tag_id=1)
        assert reader.world.clock.now_ms == 0.0

    def test_remote_session_refuses_the_same_budget(self):
        reader = make_reader(seed=3)
        with ReaderServer(reader) as server:
            with ReaderClient(server.host, server.port) as client:
                session = RemoteReaderSession(client, reader.slot_duration_ms)
                with pytest.raises(ValueError, match="abort_timeout_ms"):
                    reprogram(
                        default_epc(1), self.image, session, self.too_long, tag_id=1
                    )
        assert reader.world.clock.now_ms == 0.0

    def test_largest_budget_is_65535_retries(self):
        slot_ms = 75.0
        largest = TransferPolicy(abort_timeout_ms=65_536 * slot_ms)
        assert largest.bios_retries(slot_ms) == 0xFFFF
        encode(AddAccessSpec(1, 1, bytes(12), (2,), 0xFFFF, (GotoBiosOp(),)))
        with pytest.raises(ValueError, match="abort_timeout_ms"):
            replace(largest, abort_timeout_ms=65_536 * slot_ms + 1).bios_retries(
                slot_ms
            )

    def test_config_validation_uses_the_same_check(self):
        config = replace(default_config(), transfer=self.too_long)
        with pytest.raises(ValueError, match="abort_timeout_ms"):
            config.validate()
        # 100 ms slots: 50,000 attempts fit
        slower = replace(config.inventory, slot_duration_ms=100.0)
        replace(config, inventory=slower).validate()


class TestLocalAndRemoteRefuseTheSameInputs:
    """What the wire cannot carry, the in-process reader refuses too, with
    the same text and before the first attempt."""

    @pytest.mark.parametrize(
        "target, max_retries",
        [(default_epc(1), -3), (default_epc(1), 70_000), (default_epc(1)[:5], 16)],
        ids=["negative-retries", "retries-over-u16", "5-byte-epc"],
    )
    def test_refused_before_any_attempt_on_both_paths(self, target, max_retries):
        errors = []
        for remote in (False, True):
            reader = make_reader(seed=3)
            rng = reader.world.rng.getstate()
            with ReaderServer(reader) as server:
                with ReaderClient(server.host, server.port) as client:
                    session = client if remote else reader
                    with pytest.raises(ValueError) as err:
                        session.execute_access(
                            [GotoBiosOp()], target, (2,), max_retries
                        )
            errors.append(str(err.value))
            assert reader.world.clock.now_ms == 0.0
            assert reader.world.rng.getstate() == rng
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("max_retries", [0, 0xFFFF])
    def test_the_edges_of_the_range_give_the_same_results(self, max_retries):
        ops = [GotoBiosOp(), ReadOp(0x4400, 2)]
        local = make_reader(seed=3).execute_access(
            ops, default_epc(1), (2,), max_retries
        )
        with ReaderServer(make_reader(seed=3)) as server:
            with ReaderClient(server.host, server.port) as client:
                remote = client.execute_access(ops, default_epc(1), (2,), max_retries)
        assert remote == local


class TestOneConnectionReusesAWriteRun:
    def test_an_image_sent_to_three_tags_is_packed_and_read_once(self):
        image = parse_ti_txt(
            "@4400\n" + " ".join(f"{b:02x}" for b in range(48)) + "\nq\n"
        )
        policy = default_config().transfer
        reader = make_reader(seed=7)
        server = ReaderServer(reader)
        handle = server._handle
        read = []  # the write runs the server decoded

        def spy(msg):
            if isinstance(msg, AddAccessSpec) and isinstance(msg.ops[0], BlockWriteOp):
                read.append(msg.ops)
            return handle(msg)

        server._handle = spy
        packed = []  # the client's packed run after each transfer
        with server:
            with ReaderClient(server.host, server.port) as client:
                session = RemoteReaderSession(client, reader.slot_duration_ms)
                for tag_id in (0, 1, 2):
                    antennas = choose_antennas(
                        reader.world.config.geometry,
                        reader.world.config.link,
                        tag_id,
                        tie_db=policy.antenna_tie_db,
                    )
                    stats = reprogram(
                        default_epc(tag_id), image, session, policy,
                        antennas=antennas, tag_id=tag_id,
                    )
                    assert stats.outcome == "success"
                    packed.append(client._sent.packed)
        (run,) = image.write_ops(policy.chunk_words)
        assert len(read) == 3 and all(ops is read[0] for ops in read)
        assert read[0] == run
        assert len(packed[0]) == 7 * len(run)
        assert all(p is packed[0] for p in packed)


class _RecordingConn:
    """A socket that records what each ``sendall`` was given."""

    def __init__(self, sock):
        self.sock = sock
        self.writes = []

    def sendall(self, data):
        self.writes.append(bytes(data))
        self.sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self.sock, name)


class TestOneWritePerRequest:
    def test_each_requests_replies_go_out_in_one_write(self):
        requests = [
            GetCapabilities(1),
            AddAccessSpec(
                2, 7, default_epc(1), (2,), 64, (GotoBiosOp(), ReadOp(0x4400, 2))
            ),
            StartROSpec(3, 7),
            AddROSpec(4, 8, (2,), 2_000),
            StartROSpec(5, 8),
            StartROSpec(6, 8),  # consumed: an error
            Keepalive(7),
        ]
        twin = ReaderServer(make_reader(seed=2))
        expected = [
            b"".join(
                frame for reply in twin._handle(msg) for frame in encode_frames(reply)
            )
            for msg in requests
        ]
        twin._sock.close()
        server = ReaderServer(make_reader(seed=2))
        server_end, client_end = socket.socketpair()
        conn = _RecordingConn(server_end)
        server._busy.acquire()  # as _admit would
        serving = threading.Thread(target=server._serve, args=(conn,))
        serving.start()
        with client_end:
            client_end.sendall(b"".join(encode(msg) for msg in requests))
            client_end.shutdown(socket.SHUT_WR)
            received = b""
            while chunk := client_end.recv(65536):
                received += chunk
        serving.join(timeout=10.0)
        server._sock.close()
        assert not serving.is_alive()
        assert conn.writes == expected
        assert received == b"".join(expected)


class TestWireConversions:
    def test_observation_round_trip(self):
        from tpcbed.reader import TagObservation

        row = TagObservation(
            antenna_id=2,
            tag_id=3,
            epc=default_epc(3),
            read_count=17,
            mean_rssi_dbm=-41.24838,
            last_rssi_dbm=-40.75,
            first_seen_ms=1200.0,
            last_seen_ms=9825.0,
        )
        back = entry_to_observation(observation_to_entry(row), tag_id=3)
        assert back.read_count == row.read_count
        assert back.mean_rssi_dbm == pytest.approx(row.mean_rssi_dbm, abs=5e-4)
        assert back.first_seen_ms == row.first_seen_ms


class TestServerClient:
    @pytest.mark.parametrize("door", ["reader", "control"])
    def test_closing_a_server_never_started_frees_its_port(self, door):
        from tpcbed.controller import ControlServer

        if door == "reader":
            server = ReaderServer(make_reader(), "127.0.0.1", 0)
        else:
            server = ControlServer(default_config(), "127.0.0.1", 0)
        server.close()
        socket.create_server((server.host, server.port)).close()

    def test_capabilities(self):
        with ReaderServer(make_reader()) as server:
            with ReaderClient(server.host, server.port) as client:
                caps = client.capabilities()
                assert caps.model == "tpcbed-sim"
                assert caps.antenna_ids == (1, 2, 3)

    def test_keepalive(self):
        with ReaderServer(make_reader()) as server:
            with ReaderClient(server.host, server.port) as client:
                client.keepalive()  # raises on anything but an ack

    def test_second_client_refused_busy(self):
        with ReaderServer(make_reader()) as server:
            with ReaderClient(server.host, server.port) as first:
                first.keepalive()
                started = time.perf_counter()
                with ReaderClient(server.host, server.port) as second:
                    with pytest.raises(ReaderError) as err:
                        second.keepalive()
                    assert err.value.error.code == 4
                # refused at once, not after a wait for the first client
                assert time.perf_counter() - started < 0.5
                first.keepalive()
            # the slot frees once the first client disconnects
            deadline = time.time() + 5.0
            while time.time() < deadline:
                try:
                    with ReaderClient(server.host, server.port) as third:
                        third.keepalive()
                    break
                except (ReaderError, ConnectionError):
                    time.sleep(0.02)
            else:
                pytest.fail("server never released the busy slot")

    def test_a_client_that_reconnects_after_closing_is_served(self):
        # Each new client connects right after the last one's close
        # returned, before that connection's thread need have seen it.
        with ReaderServer(make_reader()) as server:
            for _ in range(100):
                with ReaderClient(server.host, server.port) as client:
                    client.keepalive()

    def test_a_client_that_closes_mid_request_can_reconnect_once_it_ends(self):
        # The first client sends two requests, reads the first reply and
        # closes while the reader still works on the second.
        server = ReaderServer(make_reader())
        handle = server._handle

        def slow_handle(msg):
            if msg.msg_id == 2:
                time.sleep(0.3)
            return handle(msg)

        server._handle = slow_handle
        with server:
            with socket.create_connection((server.host, server.port)) as first:
                first.sendall(encode(Keepalive(1)) + encode(Keepalive(2)))
                reply = b""
                while len(reply) < HEADER_LEN:
                    reply += first.recv(HEADER_LEN - len(reply))
                assert decode(reply) == KeepaliveAck(1)
            with ReaderClient(server.host, server.port) as second:
                second.keepalive()

    def test_remote_inventory_matches_local(self):
        local = make_reader(seed=21).run_inventory((2,), 5_000.0)
        with ReaderServer(make_reader(seed=21)) as server:
            with ReaderClient(server.host, server.port) as client:
                remote = client.run_inventory((2,), 5_000)
        assert len(remote) == len(local) == 1
        got = [entry_to_observation(e) for e in remote[0]]
        want = local[0]
        assert [(r.epc, r.read_count) for r in got] == [
            (r.epc, r.read_count) for r in want
        ]
        for g, w in zip(got, want):
            assert g.mean_rssi_dbm == pytest.approx(w.mean_rssi_dbm, abs=5e-4)

    def test_remote_access_path(self):
        reader = make_reader(seed=2)
        with ReaderServer(reader) as server:
            with ReaderClient(server.host, server.port) as client:
                session = RemoteReaderSession(client, reader.slot_duration_ms)
                results = session.execute_access(
                    [GotoBiosOp()], default_epc(1), antennas=(2,), max_retries=64
                )
        assert len(results) == 1
        assert results[0].success
        assert results[0].kind == "goto-bios"
        assert reader.world.tag(1).mode is TagMode.BIOS

    def test_access_reply_over_the_frame_cap_arrives_whole(self):
        # Twenty 56 KiB reads make a reply longer than one frame may be.
        ops = [ReadOp(0x0000, 0x7000)] * 20

        def charged_reader():
            reader = make_reader(seed=4)
            reader.world.harvest_all(1, 10_000.0)
            return reader

        local = charged_reader().execute_access(ops, default_epc(6), (1,), 100)
        with ReaderServer(charged_reader()) as server:
            with ReaderClient(server.host, server.port) as client:
                remote = client.execute_access(ops, default_epc(6), (1,), 100)
        assert all(r.success for r in local)
        assert remote == local

    def test_unknown_rospec_is_an_error(self):
        with ReaderServer(make_reader()) as server:
            with ReaderClient(server.host, server.port) as client:
                with pytest.raises(ReaderError) as err:
                    client.request(StartROSpec(client._take_id(), 404))
                assert err.value.error.code == 2

    def test_started_specs_are_consumed(self):
        reader = make_reader(seed=2)
        with ReaderServer(reader) as server:
            with ReaderClient(server.host, server.port) as client:
                for _ in range(3):
                    client.execute_access([GotoBiosOp()], default_epc(1), (2,), 8)
                client.run_inventory((2,), 1_000)
                assert server.accessspecs == {} and server.rospecs == {}
                for spec_id, spec in (
                    (7, AddROSpec(client._take_id(), 7, (2,), 0, "end", 0)),
                    (8, AddAccessSpec(client._take_id(), 8, bytes(12), (), 0, ())),
                ):
                    client.request(spec)
                    client.request(StartROSpec(client._take_id(), spec_id))
                    with pytest.raises(ReaderError) as err:
                        client.request(StartROSpec(client._take_id(), spec_id))
                    assert err.value.error.code == 2

    def test_stored_specs_are_capped(self):
        # Specs added and never started are held by the server; past the
        # cap an ADD of a new id is refused and stores nothing, while the
        # connection keeps serving.
        assert MAX_STORED_SPECS == 16
        with ReaderServer(make_reader()) as server:
            with ReaderClient(server.host, server.port) as client:

                def add_access(spec_id, ops=(BlockWriteOp(0x4400, (1, 2)),)):
                    mid = client._take_id()
                    return client.request(
                        AddAccessSpec(mid, spec_id, bytes(12), (), 0, ops)
                    )

                client.request(AddROSpec(client._take_id(), 1, (2,), 0, "end", 0))
                for spec_id in range(2, 17):
                    add_access(spec_id)
                for add_17th in (
                    lambda: add_access(99),
                    lambda: client.request(
                        AddROSpec(client._take_id(), 99, (2,), 0, "end", 0)
                    ),
                ):
                    with pytest.raises(ReaderError) as err:
                        add_17th()
                    assert err.value.error.code == ErrorCode.BAD_STATE
                assert 99 not in server.accessspecs and 99 not in server.rospecs
                client.keepalive()  # the connection still answers
                # Replacing a stored id still succeeds, and starting a spec
                # frees its place.
                add_access(2, ops=())
                assert server.accessspecs[2].ops == ()
                client.request(StartROSpec(client._take_id(), 2))
                add_access(99)
                assert len(server.rospecs) + len(server.accessspecs) == 16

    def test_stored_specs_end_with_their_connection(self):
        # Specs a client abandons must not count against the next client.
        with ReaderServer(make_reader()) as server:
            with ReaderClient(server.host, server.port) as first:
                for spec_id in range(1, MAX_STORED_SPECS + 1):
                    first.request(
                        AddROSpec(first._take_id(), spec_id, (2,), 0, "end", 0)
                    )
            deadline = time.time() + 5.0
            while True:
                try:
                    with ReaderClient(server.host, server.port) as second:
                        second.keepalive()
                        second.request(
                            AddROSpec(second._take_id(), 99, (2,), 0, "end", 0)
                        )
                        assert list(server.rospecs) == [99]
                        with pytest.raises(ReaderError) as err:
                            second.request(StartROSpec(second._take_id(), 1))
                        assert err.value.error.code == 2
                    break
                except ReaderError as exc:
                    if exc.error.code != ErrorCode.BUSY or time.time() > deadline:
                        raise
                    time.sleep(0.02)

    def test_stop_rospec_known_and_unknown(self):
        with ReaderServer(make_reader()) as server:
            with ReaderClient(server.host, server.port) as client:
                client.request(AddROSpec(client._take_id(), 7, (2,), 0, "end", 0))
                _, reply = client.request(StopROSpec(client._take_id(), 7))
                assert isinstance(reply, SuccessMessage)
                with pytest.raises(ReaderError):
                    client.request(StopROSpec(client._take_id(), 8))

    @pytest.mark.parametrize(
        "trigger, duration_ms, interval_ms",
        [
            ("periodic", 1_000, 0),  # START could not pace its reports
            ("periodic", 2**32 - 1, 1),  # 49.7 virtual days
            ("end", int(MAX_DURATION_S * 1000) + 1, 0),
        ],
    )
    def test_rospec_start_cannot_serve_is_refused_at_add(
        self, trigger, duration_ms, interval_ms
    ):
        with ReaderServer(make_reader()) as server:
            with ReaderClient(server.host, server.port) as client:
                spec = AddROSpec(
                    client._take_id(), 3, (2,), duration_ms, trigger, interval_ms
                )
                with pytest.raises(ReaderError) as err:
                    client.request(spec)
                assert err.value.error.code == ErrorCode.MALFORMED
                assert server.rospecs == {}
                client.keepalive()  # the connection still answers
                with pytest.raises(ReaderError) as err:
                    client.request(StartROSpec(client._take_id(), 3))
                assert err.value.error.code == ErrorCode.UNKNOWN_ROSPEC

    def test_longest_survey_is_accepted(self):
        with ReaderServer(make_reader()) as server:
            with ReaderClient(server.host, server.port) as client:
                longest = int(MAX_DURATION_S * 1000)
                client.request(
                    AddROSpec(client._take_id(), 3, (2,), longest, "periodic", 1)
                )
                assert server.rospecs[3].duration_ms == longest

    def test_unknown_antenna_in_rospec(self):
        with ReaderServer(make_reader()) as server:
            with ReaderClient(server.host, server.port) as client:
                with pytest.raises(ReaderError) as err:
                    client.request(
                        AddROSpec(client._take_id(), 1, (2, 99), 1000, "end", 0)
                    )
                assert err.value.error.code == 6

    @settings(max_examples=60, deadline=None)
    @given(
        antennas=st.lists(st.sampled_from((0, 1, 2, 3, 4, 255)), max_size=4),
        duration_ms=st.one_of(
            st.integers(0, 1_500),
            st.integers(int(MAX_DURATION_S * 1000) + 1, 2**32 - 1),
        ),
        trigger=st.sampled_from(("end", "periodic")),
        interval_ms=st.sampled_from((0, 1, 250, 2**32 - 1)),
    )
    @example(antennas=[], duration_ms=1_000, trigger="end", interval_ms=0)
    def test_every_rospec_exchange_is_answered(
        self, antennas, duration_ms, trigger, interval_ms
    ):
        # A refusal is an answer; a dropped connection or a missing
        # reply is not.  START runs exactly the specs that ADD accepted.
        with ReaderServer(make_reader()) as server:
            with ReaderClient(server.host, server.port) as client:
                add = AddROSpec(
                    client._take_id(),
                    1,
                    tuple(antennas),
                    duration_ms,
                    trigger,
                    interval_ms,
                )
                try:
                    client.request(add)
                    added = True
                except ReaderError:
                    added = False
                    assert server.rospecs == {}
                client.keepalive()
                try:
                    client.request(StartROSpec(client._take_id(), 1))
                    started = True
                except ReaderError as exc:
                    assert exc.error.code == ErrorCode.UNKNOWN_ROSPEC
                    started = False
                assert started == added
                client.keepalive()

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        target=st.sampled_from((1, 4, 6, None)),  # a tag, or an unknown EPC
        antennas=st.lists(st.sampled_from((0, 1, 2, 3, 4, 255)), max_size=3),
        max_retries=st.integers(0, 8),
        ops=st.lists(
            st.one_of(
                st.just(GotoBiosOp()),
                st.builds(
                    BlockWriteOp,
                    st.sampled_from((0x4400, 0x4402, 0xFBFE, 0xFC00, 0xFFFE)),
                    st.lists(st.integers(0, 0xFFFF), max_size=3).map(tuple),
                ),
                st.builds(
                    ReadOp,
                    st.sampled_from((0x4400, 0xFC00, 0xFFFE)),
                    st.sampled_from((0, 1, 2, 0xFFFF)),
                ),
                st.builds(
                    ChecksumOp,
                    st.sampled_from((0x4400, 0xFC00, 0xFFFF)),
                    st.sampled_from((0, 1, 4, 0xFFFF)),
                ),
                st.builds(
                    CommitOp,
                    st.lists(
                        st.tuples(
                            st.sampled_from((0x4400, 0xFFFE)),
                            st.sampled_from((0, 2, 0xFFFF)),
                            st.integers(0, 0xFFFF),
                        ),
                        max_size=2,
                    ).map(tuple),
                    st.booleans(),
                    st.booleans(),
                ),
            ),
            max_size=6,
        ),
    )
    def test_every_accessspec_exchange_is_answered(
        self, seed, target, antennas, max_retries, ops
    ):
        # Every frame gets a reply, and START runs what ADD accepted just
        # as the reader does in process on a World with the same seed.
        epc = bytes(12) if target is None else default_epc(target)
        with ReaderServer(make_reader(seed=seed)) as server:
            with ReaderClient(server.host, server.port) as client:
                add = AddAccessSpec(
                    client._take_id(), 1, epc, tuple(antennas), max_retries, tuple(ops)
                )
                try:
                    client.request(add)
                    added = True
                except ReaderError as exc:
                    assert exc.error.code == ErrorCode.UNKNOWN_ANTENNA
                    assert server.accessspecs == {}
                    added = False
                client.keepalive()
                try:
                    reports, _ = client.request(StartROSpec(client._take_id(), 1))
                    started = True
                except ReaderError as exc:
                    assert exc.error.code == ErrorCode.UNKNOWN_ROSPEC
                    started = False
                assert started == added
                client.keepalive()
        if added:
            local = make_reader(seed=seed).execute_access(
                ops, epc, tuple(antennas), max_retries
            )
            assert [r for report in reports for r in report.access_results] == local

    def test_rospec_without_antennas_is_refused(self):
        with ReaderServer(make_reader()) as server:
            with ReaderClient(server.host, server.port) as client:
                with pytest.raises(ReaderError) as err:
                    client.run_inventory((), 1_000)
                assert err.value.error.code == ErrorCode.MALFORMED
                assert server.rospecs == {}
                client.keepalive()
        with pytest.raises(ValueError, match="at least one antenna"):
            make_reader().run_inventory((), 1_000.0)

    def test_server_rejects_client_to_client_messages(self):
        with ReaderServer(make_reader()) as server:
            with ReaderClient(server.host, server.port) as client:
                with pytest.raises(ReaderError) as err:
                    client.request(SuccessMessage(5))
                assert err.value.error.code == 5

    def test_recoverable_decode_error_keeps_connection(self):
        with ReaderServer(make_reader()) as server:
            raw = socket.create_connection((server.host, server.port), timeout=5.0)
            try:
                # well-framed frame with an unknown type: reply + survive
                bogus = bytes([1]) + (0x7777).to_bytes(2, "big") + bytes(4) + (11).to_bytes(4, "big")
                raw.sendall(bogus)
                header = raw.recv(65536)
                assert header[1:3] == (10).to_bytes(2, "big")  # error message

                raw.sendall(encode(Keepalive(9)))
                data = raw.recv(65536)
                assert data[1:3] == (9).to_bytes(2, "big")  # keepalive ack
            finally:
                raw.close()

    def test_fatal_framing_error_closes_connection(self):
        with ReaderServer(make_reader()) as server:
            raw = socket.create_connection((server.host, server.port), timeout=5.0)
            try:
                raw.sendall(b"\x07garbage-that-is-not-a-frame")
                chunks = []
                while True:
                    piece = raw.recv(65536)
                    if not piece:
                        break
                    chunks.append(piece)
                reply = b"".join(chunks)
                assert reply[1:3] == (10).to_bytes(2, "big")
            finally:
                raw.close()

    def test_oversized_frame_is_refused_at_its_header(self):
        # A 4 GiB declared length must not be buffered while the peer
        # trickles bytes: the header alone gets MALFORMED and a close.
        with ReaderServer(make_reader()) as server:
            raw = socket.create_connection((server.host, server.port), timeout=5.0)
            try:
                header = bytes([1]) + (8).to_bytes(2, "big") + bytes(4)
                raw.sendall(header + (2**32 - 1).to_bytes(4, "big"))
                chunks = []
                while piece := raw.recv(65536):
                    chunks.append(piece)
                reply = decode(b"".join(chunks))
                assert reply == ErrorMessage(
                    0, int(ErrorCode.MALFORMED), "length-mismatch"
                )
            finally:
                raw.close()

    def test_oversized_frame_reply_arrives_before_a_clean_close(self):
        # The body that follows a refused header is read and dropped
        # before the close, so the client's writes all land and it reads
        # the reply and then end of stream: never a reset.
        header = bytes([1]) + (4).to_bytes(2, "big") + bytes(4)
        header += (2 << 20).to_bytes(4, "big")
        for _ in range(3):
            with ReaderServer(make_reader()) as server:
                address = (server.host, server.port)
                with socket.create_connection(address, timeout=10.0) as raw:
                    raw.sendall(header)
                    for _ in range(48):  # 3 MiB of body
                        raw.sendall(bytes(64 << 10))
                    chunks = []
                    while piece := raw.recv(65536):
                        chunks.append(piece)
                reply = decode(b"".join(chunks))
                assert reply == ErrorMessage(
                    0, int(ErrorCode.MALFORMED), "length-mismatch"
                )

    def test_error_replies_echo_msg_id_zero_for_broken_frames(self):
        # decode failures have no trustworthy msg id, so the server uses 0
        with ReaderServer(make_reader()) as server:
            raw = socket.create_connection((server.host, server.port), timeout=5.0)
            try:
                bogus = bytes([1]) + (0x7777).to_bytes(2, "big") + (0xAB).to_bytes(4, "big") + (11).to_bytes(4, "big")
                raw.sendall(bogus)
                frame = raw.recv(65536)
                assert frame[3:7] == bytes(4)
            finally:
                raw.close()


class TestGetCapabilitiesMessage:
    def test_capabilities_message_encodes(self):
        # regression guard: the handshake message stays a fixed 11 bytes
        assert len(encode(GetCapabilities(1))) == 11


class TestWireLatency:
    """A START_ROSPEC reply is a report frame and then a terminal frame.
    With Nagle's algorithm on, the second write waits for the client's
    delayed ACK, about 40 ms per access on Linux loopback."""

    def test_both_ends_disable_nagle(self):
        server = ReaderServer(make_reader())
        server_side = []
        serve = server._serve

        def spy(conn):
            server_side.append(
                conn.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            )
            serve(conn)

        server._serve = spy
        with server:
            with ReaderClient(server.host, server.port) as client:
                client.keepalive()
                assert client._sock.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
        assert server_side and server_side[0]

    def test_two_frame_replies_do_not_stall(self):
        reader = make_reader(seed=2)
        with ReaderServer(reader) as server:
            with ReaderClient(server.host, server.port) as client:
                started = time.perf_counter()
                for _ in range(50):
                    results = client.execute_access(
                        [GotoBiosOp()], default_epc(1), antennas=(2,), max_retries=64
                    )
                    assert results[0].success
                elapsed = time.perf_counter() - started
        # about 0.03 s without the stall, about 2.2 s with it
        assert elapsed < 1.0, f"50 access round trips took {elapsed:.2f} s"
