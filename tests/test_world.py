"""World-level state updates: harvesting across the whole bench."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from tpcbed.config import default_config
from tpcbed.tag import EnergyParams, TagMode
from tpcbed.world import World


def tag_state(world):
    return [
        (tag.energy_uj, tag.mode, tag.brownout_count)
        for _, tag in sorted(world.tags.items())
    ]


def naive_harvest_all(world, antenna_id, dt_ms):
    """Reference: step every tag, fixed point or not."""
    for tag, incident_dbm in world._harvest_plan[antenna_id]:
        tag.harvest_step(incident_dbm, dt_ms)


@settings(deadline=None)
@given(
    # the bench's tags see from the RSSI floor up to about +19 dBm, so this
    # range puts some above the threshold and some below it
    threshold_dbm=st.floats(min_value=-40.0, max_value=25.0),
    capacity_uj=st.floats(min_value=0.5, max_value=200.0),
    efficiency=st.floats(min_value=0.0, max_value=1.0),
    idle_draw_mw=st.floats(min_value=0.0, max_value=1.0),
    steps=st.lists(
        st.tuples(
            st.sampled_from((1, 2, 3)),
            st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=50.0)),
        ),
        max_size=60,
    ),
)
def test_fixed_point_skip_matches_stepping_every_tag(
    threshold_dbm, capacity_uj, efficiency, idle_draw_mw, steps
):
    energy = EnergyParams(
        capacity_uj=capacity_uj,
        harvest_efficiency=efficiency,
        harvest_threshold_dbm=threshold_dbm,
        idle_draw_mw=idle_draw_mw,
    )
    config = replace(default_config(), energy=energy)
    fast, naive = World(config), World(config)
    for world in (fast, naive):
        for tag in world.tags.values():
            tag.mode = TagMode.BIOS  # a brownout drops this, so it shows
    for antenna_id, dt_ms in steps:
        fast.harvest_all(antenna_id, dt_ms)
        naive_harvest_all(naive, antenna_id, dt_ms)
        assert tag_state(fast) == tag_state(naive)


def test_negative_interval_rejected_even_at_fixed_points():
    world = World(default_config())
    world.harvest_all(1, 0.0)  # every tag is empty; nothing moves
    with pytest.raises(ValueError, match="dt_ms"):
        world.harvest_all(1, -1.0)
