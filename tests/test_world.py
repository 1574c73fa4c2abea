"""World-level state: harvesting across the bench, who can answer an
antenna, and the virtual clock's timestamps."""

from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from tpcbed.config import DEFAULT_EPOCH, ControllerSettings, default_config
from tpcbed.gen2 import ReachableTag
from tpcbed.rfchannel import GeometryError, link_quality
from tpcbed.tag import ApplicationBehavior, EnergyParams, TagMode
from tpcbed.world import VirtualClock, World

TAG_IDS = tuple(sorted(t.tag_id for t in default_config().geometry.tags))


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


@pytest.mark.parametrize("angle_preset", ["default", "reversed"])
def test_harvest_plan_is_each_links_incident_power(angle_preset):
    config = default_config(angle_preset)
    world = World(config)
    for antenna_id in (1, 2, 3):
        for tag, incident_dbm in world._harvest_plan[antenna_id]:
            try:
                quality = link_quality(
                    config.geometry, config.link, antenna_id, tag.tag_id
                )
            except GeometryError:
                assert incident_dbm == config.link.rssi_floor_dbm
            else:
                assert incident_dbm == quality.incident_power_dbm
                assert world.link(antenna_id, tag.tag_id) == quality


@pytest.mark.parametrize(
    "antenna_id, tag_id",
    [(2, 6), (1, 0), (9, 0), (2, 42), (9, 42)],  # unplaced pairs, unknown ids
)
def test_link_without_a_placement_raises(antenna_id, tag_id):
    with pytest.raises(GeometryError):
        World(default_config()).link(antenna_id, tag_id)


def fresh_reachable(world, antenna_id):
    """Reference: every link computed anew, every row built anew."""
    rows = []
    for tag_id in sorted(world.tags):
        tag = world.tags[tag_id]
        if not tag.responsive:
            continue
        try:
            quality = link_quality(
                world.config.geometry, world.config.link, antenna_id, tag_id
            )
        except GeometryError:
            continue
        if quality.delivery_probability <= 0.0:
            continue
        rows.append(
            ReachableTag(
                tag_id, tag.epc, quality.rssi_dbm, quality.delivery_probability
            )
        )
    return rows


def commit_app(tag, responds_to_inventory):
    tag.mode = TagMode.BIOS
    ack = tag.commit_firmware(
        [], ApplicationBehavior(responds_to_inventory=responds_to_inventory)
    )
    assert ack.ok


def assert_reachable_fresh(world):
    for antenna_id in (1, 2, 3, 9):  # 9 is not on the bench
        assert world.reachable(antenna_id) == fresh_reachable(world, antenna_id)


def test_reachable_follows_brownout_and_commit():
    world = World(default_config())
    assert_reachable_fresh(world)  # every tag empty: nobody answers
    world.harvest_all(1, 1_000.0)
    assert [row.tag_id for row in world.reachable(1)] == [6]
    # antenna 2 does not reach tag 6, which drains through zero
    world.harvest_all(2, 20_000.0)
    assert world.tags[6].brownout_count == 1
    assert world.reachable(1) == []
    assert_reachable_fresh(world)
    world.harvest_all(1, 1_000.0)
    commit_app(world.tags[6], responds_to_inventory=False)
    assert world.reachable(1) == []
    assert_reachable_fresh(world)
    commit_app(world.tags[6], responds_to_inventory=True)
    assert [row.tag_id for row in world.reachable(1)] == [6]


@settings(deadline=None)
@given(
    idle_draw_mw=st.floats(min_value=0.0, max_value=1.0),
    steps=st.lists(
        st.one_of(
            st.tuples(
                st.just("harvest"),
                st.sampled_from((1, 2, 3)),
                st.floats(min_value=0.0, max_value=20_000.0),
            ),
            st.tuples(st.just("bios"), st.sampled_from(TAG_IDS)),
            st.tuples(st.just("commit"), st.sampled_from(TAG_IDS), st.booleans()),
        ),
        max_size=40,
    ),
)
def test_cached_reachable_matches_fresh_computation(idle_draw_mw, steps):
    config = replace(
        default_config(), energy=EnergyParams(idle_draw_mw=idle_draw_mw)
    )
    world = World(config)
    for step in steps:
        if step[0] == "harvest":
            world.harvest_all(step[1], step[2])
        elif step[0] == "bios":
            world.tags[step[1]].mode = TagMode.BIOS
        else:
            commit_app(world.tags[step[1]], responds_to_inventory=step[2])
        assert_reachable_fresh(world)


def iso_reference(epoch, now_ms):
    moment = epoch + timedelta(milliseconds=now_ms)
    millis = moment.microsecond // 1000
    return f"{moment.strftime('%Y-%m-%dT%H:%M:%S')}.{millis:03d}Z"


# Offsets that land on, just before and just after a millisecond or a
# second boundary, where rounding to microseconds decides the digits.
near_boundaries = st.builds(
    lambda whole, nudge: whole + nudge,
    st.integers(min_value=0, max_value=10**10),
    st.sampled_from([0.0, 1e-9, -1e-9, 0.0004999, 0.0005, 0.0005001, 0.9995, 0.9999]),
).filter(lambda ms: ms >= 0.0)


@settings(max_examples=300, deadline=None)
@given(
    epoch=st.one_of(
        st.sampled_from(
            [
                ControllerSettings(epoch_utc=text).epoch_datetime()
                for text in (
                    DEFAULT_EPOCH,
                    "0999-12-31T23:59:59.999Z",  # %Y renders this year "999"
                    "0001-01-01T00:00:00Z",
                )
            ]
        ),
        st.datetimes(
            min_value=datetime(1, 1, 1),
            max_value=datetime(9000, 1, 1),
            timezones=st.just(timezone.utc),
        ),
    ),
    offsets=st.lists(
        st.one_of(near_boundaries, st.floats(min_value=0.0, max_value=1e10)),
        min_size=1,
        max_size=30,
    ),
)
def test_iso_matches_strftime_rendering(epoch, offsets):
    # One clock through all offsets, forwards and backwards, so a cached
    # second that no longer applies would show.
    clock = VirtualClock(epoch=epoch)
    for now_ms in offsets:
        clock.now_ms = now_ms
        assert clock.iso() == iso_reference(epoch, now_ms)


@pytest.mark.parametrize(
    "now_ms, error",
    [(float("nan"), ValueError), (float("inf"), OverflowError), (1e300, OverflowError)],
)
def test_iso_refuses_offsets_timedelta_refuses(now_ms, error):
    clock = VirtualClock(epoch=ControllerSettings().epoch_datetime())
    with pytest.raises(error):
        timedelta(milliseconds=now_ms)
    clock.now_ms = now_ms
    with pytest.raises(error):
        clock.iso()


@settings(max_examples=200, deadline=None)
@given(whole_ms=st.integers(min_value=0, max_value=250_000_000_000_000))
def test_whole_millisecond_offsets_match_strftime_up_to_year_9999(whole_ms):
    # iso() renders these without timedelta
    epoch = ControllerSettings().epoch_datetime()
    clock = VirtualClock(epoch=epoch)
    clock.now_ms = float(whole_ms)
    assert clock.iso() == iso_reference(epoch, float(whole_ms))


@pytest.mark.parametrize(
    "epoch_text",
    ["2016-04-02T23:59:58Z", "2016-12-31T23:59:58.9995Z", "0999-12-31T23:59:58.25Z"],
)
def test_iso_caches_no_stale_second_across_rollovers(epoch_text):
    # Whole-ms stamps reuse the text of their second; fractional stamps
    # in the same second, a new second, a new day (and year) and a step
    # back must each render afresh.
    epoch = ControllerSettings(epoch_utc=epoch_text).epoch_datetime()
    clock = VirtualClock(epoch=epoch)
    offsets = [
        0.0, 0.4, 1.0, 999.0, 999.6, 999.9996, 1000.0, 1000.5, 1001.0,
        1999.0, 1999.9996, 2000.0, 2000.25, 2001.0, 2999.0, 3000.0,
        86_402_000.0, 86_402_000.5, 86_402_001.0, 2000.0, 999.0, 1999.0,
    ]
    for now_ms in offsets:
        clock.now_ms = now_ms
        assert clock.iso() == iso_reference(epoch, now_ms), now_ms
