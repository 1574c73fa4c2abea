"""Slotted-inventory MAC tests.

The statistical checks here are deliberately small; the full
distribution comparison against brute-force enumeration lives in the
acceptance suite.
"""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from tpcbed.gen2 import (
    AccessResult,
    Q_MAX,
    Q_MIN,
    InventoryConfig,
    MacConfigError,
    ReachableTag,
    SlotKind,
    adjust_q,
    rounded_q,
    run_inventory_round,
)

from oracles import inventory_round_oracle, singulation_distribution, total_variation


def make_tags(probabilities):
    return [
        ReachableTag(
            tag_id=i,
            epc=bytes([0xE2] + [0] * 10 + [i]),
            rssi_dbm=-40.0,
            delivery_probability=p,
        )
        for i, p in enumerate(probabilities)
    ]


class TestQArithmetic:
    def test_half_up_not_bankers(self):
        # round() would send 0.5 -> 0 and 1.5 -> 2; the MAC wants the
        # same direction on every half step.
        assert rounded_q(0.5) == 1
        assert rounded_q(1.5) == 2
        assert rounded_q(2.5) == 3
        assert rounded_q(2.49) == 2
        assert rounded_q(0.0) == 0

    def test_adjust_directions(self):
        assert adjust_q(4.0, SlotKind.COLLISION) == 4.5
        assert adjust_q(4.0, SlotKind.EMPTY) == 3.5
        assert adjust_q(4.0, SlotKind.SINGULATED) == 4.0

    def test_adjust_clamps(self):
        assert adjust_q(0.0, SlotKind.EMPTY) == 0.0
        assert adjust_q(15.0, SlotKind.COLLISION) == 15.0

    @given(
        st.floats(min_value=0.0, max_value=15.0),
        st.lists(st.sampled_from(list(SlotKind)), max_size=200),
    )
    def test_q_stays_in_range_forever(self, q_fp, outcomes):
        for kind in outcomes:
            q_fp = adjust_q(q_fp, kind)
            assert 0.0 <= q_fp <= 15.0
            assert 0 <= rounded_q(q_fp) <= 15


class TestAccessResult:
    def test_is_frozen(self):
        # Calls and decoded reports share one instance among equal results.
        result = AccessResult("read", bytes(12), True, 1, None, (1, 2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.attempts = 2
        assert hash(result) == hash(AccessResult("read", bytes(12), True, 1, None, (1, 2)))


class TestConfig:
    def test_defaults_valid(self):
        InventoryConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"q_initial": -1},
            {"q_initial": 16},
            {"q_fp_step": -0.5},
            {"slot_duration_ms": 0.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(MacConfigError):
            InventoryConfig(**kwargs).validate()


class TestInventoryRound:
    def test_slot_count_is_fixed_at_round_start(self):
        config = InventoryConfig(q_initial=3)
        result = run_inventory_round(make_tags([0.5] * 4), config, random.Random(1))
        assert len(result.outcomes) == 8
        assert result.duration_ms == 8 * config.slot_duration_ms

    def test_perfect_link_single_tag_always_singulates(self):
        config = InventoryConfig(q_initial=0)
        for seed in range(50):
            result = run_inventory_round(
                make_tags([1.0]), config, random.Random(seed)
            )
            assert [o.kind for o in result.outcomes] == [SlotKind.SINGULATED]
            assert result.outcomes[0].tag_id == 0

    def test_two_perfect_tags_one_slot_always_collide(self):
        config = InventoryConfig(q_initial=0)
        for seed in range(50):
            result = run_inventory_round(
                make_tags([1.0, 1.0]), config, random.Random(seed)
            )
            assert result.outcomes[0].kind is SlotKind.COLLISION
            assert set(result.outcomes[0].tag_ids) == {0, 1}

    def test_dead_link_never_singulates(self):
        config = InventoryConfig(q_initial=2)
        for seed in range(20):
            result = run_inventory_round(
                make_tags([0.0, 0.0]), config, random.Random(seed)
            )
            assert all(o.kind is SlotKind.EMPTY for o in result.outcomes)

    def test_deterministic_given_seed(self):
        config = InventoryConfig()
        a = run_inventory_round(make_tags([0.3, 0.7, 0.5]), config, random.Random(9))
        b = run_inventory_round(make_tags([0.3, 0.7, 0.5]), config, random.Random(9))
        assert a == b

    def test_timestamps_step_by_slot(self):
        config = InventoryConfig(q_initial=2, slot_duration_ms=75.0)
        result = run_inventory_round(
            make_tags([0.5]), config, random.Random(3), start_time_ms=1000.0
        )
        stamps = [o.timestamp_ms for o in result.outcomes]
        assert stamps == [1000.0, 1075.0, 1150.0, 1225.0]

    def test_empty_reachable_set_just_burns_slots(self):
        config = InventoryConfig(q_initial=1)
        result = run_inventory_round([], config, random.Random(0))
        assert all(o.kind is SlotKind.EMPTY for o in result.outcomes)
        assert result.q_fp_after == 0.0  # two empties from q_fp=1.0, clamped

    def test_singulated_lists_each_tag_at_most_once(self):
        config = InventoryConfig(q_initial=2)
        for seed in range(30):
            result = run_inventory_round(
                make_tags([0.9] * 5), config, random.Random(seed)
            )
            seen = [o.tag_id for o in result.outcomes if o.tag_id is not None]
            assert len(seen) == len(set(seen))

    def test_distribution_close_to_enumeration(self):
        # Spot check: 2 tags, 2 slots.  The acceptance suite sweeps the
        # full grid with tighter sampling.
        probabilities = [0.8, 0.5]
        config = InventoryConfig(q_initial=1, q_fp_step=0.0)
        rng = random.Random(42)
        counts: dict[int, int] = {}
        rounds = 4000
        for _ in range(rounds):
            result = run_inventory_round(make_tags(probabilities), config, rng)
            k = sum(1 for o in result.outcomes if o.kind is SlotKind.SINGULATED)
            counts[k] = counts.get(k, 0) + 1
        simulated = {k: v / rounds for k, v in counts.items()}
        exact = singulation_distribution(2, probabilities)
        assert total_variation(simulated, exact) < 0.03


    @pytest.mark.parametrize("q", range(Q_MIN, Q_MAX + 1))
    def test_slot_draws_are_randranges_draws(self, q):
        # The round draws each slot as Random._randbelow does inside
        # randrange(2**Q); the reference calls randrange itself.  A Python
        # whose randrange draws differently fails here, not in a digest.
        tags = make_tags([0.5] * 24)
        config = InventoryConfig()
        for seed in range(3):
            rng, reference_rng = random.Random(seed), random.Random(seed)
            result = run_inventory_round(tags, config, rng, q_fp=float(q))
            outcomes, _, _ = inventory_round_oracle(
                tags, config, reference_rng, float(q)
            )
            assert rng.getstate() == reference_rng.getstate()
            assert result.outcomes == outcomes


class TestReachableTag:
    def test_rejects_probability_out_of_range(self):
        with pytest.raises(ValueError):
            ReachableTag(0, b"\x00" * 12, -40.0, 1.5)
        with pytest.raises(ValueError):
            ReachableTag(0, b"\x00" * 12, -40.0, -0.1)


class TestRoundMatchesPerSlotReference:
    """The round visits only occupied slots; the per-slot loop it replaced
    is the reference for every output and for the RNG state after it."""

    @settings(max_examples=300, deadline=None)
    @given(
        tags=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=255),
                st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                st.floats(min_value=-90.0, max_value=0.0),
            ),
            max_size=12,
            unique_by=lambda row: row[0],
        ),
        q_fp=st.one_of(
            st.integers(min_value=0, max_value=10).map(float),
            st.floats(min_value=0.0, max_value=10.0),
        ),
        step=st.one_of(
            st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=3.0)
        ),
        slot_ms=st.floats(min_value=0.01, max_value=500.0),
        start_ms=st.floats(min_value=0.0, max_value=1e9),
        seed=st.integers(min_value=0, max_value=2**64),
    )
    def test_same_outcomes_q_and_rng_state(
        self, tags, q_fp, step, slot_ms, start_ms, seed
    ):
        reachable = [
            ReachableTag(tag_id, bytes(11) + bytes([tag_id]), rssi, p)
            for tag_id, p, rssi in tags
        ]
        config = InventoryConfig(q_fp_step=step, slot_duration_ms=slot_ms)
        rng, reference_rng = random.Random(seed), random.Random(seed)

        result = run_inventory_round(
            reachable, config, rng, q_fp=q_fp, start_time_ms=start_ms
        )
        outcomes, q_fp_after, duration_ms = inventory_round_oracle(
            reachable, config, reference_rng, q_fp, start_ms
        )

        assert result.outcomes == outcomes
        assert result.q_fp_after == q_fp_after
        assert result.duration_ms == duration_ms
        assert rng.getstate() == reference_rng.getstate()
        assert result.slots == len(outcomes)
        assert [i for i, _ in result.singulations] == [
            o.slot_index for o in outcomes if o.kind is SlotKind.SINGULATED
        ]
        assert [i for i, _ in result.collisions] == [
            o.slot_index for o in outcomes if o.kind is SlotKind.COLLISION
        ]

    @pytest.mark.parametrize(
        "q_fp, step, probabilities",
        [
            (-0.0, 0.0, []),
            (-0.0, 0.5, [1.0]),
            (0.0, math.nan, []),
            (3.0, math.nan, [1.0, 1.0, 0.0]),
            (15.0, math.inf, [1.0, 1.0]),
        ],
    )
    def test_q_clamp_edges_as_the_reference(self, q_fp, step, probabilities):
        # The reference clamps with min/max; NaN and -0.0 must come out alike.
        config = InventoryConfig(q_fp_step=step)
        tags = make_tags(probabilities)
        result = run_inventory_round(tags, config, random.Random(5), q_fp=q_fp)
        _, q_fp_after, _ = inventory_round_oracle(
            tags, config, random.Random(5), q_fp
        )
        assert repr(result.q_fp_after) == repr(q_fp_after)
