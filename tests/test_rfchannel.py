"""Channel model tests: frozen reference numbers plus invariants."""

import math

import pytest
from hypothesis import given, strategies as st

from tpcbed.rfchannel import (
    AntennaPort,
    ChannelDomainError,
    GeometryError,
    LinkBudgetParams,
    TagPlacement,
    TestbedGeometry as Geometry,  # alias dodges pytest class collection
    backscatter_rssi_dbm,
    default_geometry,
    delivery_probability,
    dipole_angle_loss_db,
    free_space_path_loss_db,
    incident_power_dbm,
    link_quality,
    neighbor_count,
    resolve_placement,
)

from oracles import incident_oracle, logistic_oracle, rssi_oracle

PARAMS = LinkBudgetParams()

# Values frozen from the reference desk setup.  Computed once with the
# independent linear-domain oracle and pinned; any model drift that
# moves a link by more than a hundredth of a dB fails loudly.
FROZEN_LINKS = {
    # (antenna, tag): (rssi_dbm, delivery_p, incident_dbm)
    (1, 6): (-23.39361003298393, 0.8988397005357659, 19.303194983508035),
    (2, 0): (-41.35241020642468, 0.30816011768432744, 9.32379489678766),
    (2, 1): (-27.39361003298393, 0.8202042132720597, 15.303194983508035),
    (2, 2): (-34.437260395211176, 0.5851108484919277, 11.781369802394412),
    (2, 3): (-39.43480985954317, 0.38009736622734924, 9.282595070228414),
    (2, 4): (-43.31121037986543, 0.24320241804536655, 7.344394810067286),
    (2, 5): (-44.478460221770426, 0.2092018179436507, 7.760769889114787),
    (3, 0): (-90.0, 0.0, -90.0),
    (3, 1): (-64.85045119474715, 0.008792060873104074, -3.425225597373574),
    (3, 2): (-53.07519300939048, 0.05938277012597841, 2.462403495304759),
    (3, 3): (-46.47846022177042, 0.1593494183079218, 5.7607698891147905),
    (3, 4): (-42.11456052511378, 0.2817575802054512, 7.9427197374431096),
    (3, 5): (-37.067101733070395, 0.47638833631645877, 11.4664491334648),
}


@pytest.fixture(scope="module")
def geometry():
    return default_geometry()


class TestFrozenLinkTable:
    @pytest.mark.parametrize("key", sorted(FROZEN_LINKS))
    def test_pinned_values(self, geometry, key):
        antenna_id, tag_id = key
        want_rssi, want_p, want_incident = FROZEN_LINKS[key]
        got = link_quality(geometry, PARAMS, antenna_id, tag_id)
        assert got.rssi_dbm == pytest.approx(want_rssi, abs=1e-9)
        assert got.delivery_probability == pytest.approx(want_p, abs=1e-12)
        assert got.incident_power_dbm == pytest.approx(want_incident, abs=1e-9)

    @pytest.mark.parametrize("key", sorted(FROZEN_LINKS))
    def test_matches_independent_oracle(self, geometry, key):
        antenna_id, tag_id = key
        distance, angle = resolve_placement(geometry, antenna_id, tag_id)
        neighbors = neighbor_count(geometry, tag_id, PARAMS.coupling_radius_m)
        want = rssi_oracle(distance, angle, neighbors=neighbors)
        got = link_quality(geometry, PARAMS, antenna_id, tag_id)
        assert got.rssi_dbm == pytest.approx(want, abs=1e-9)
        assert got.incident_power_dbm == pytest.approx(
            incident_oracle(distance, angle, neighbors=neighbors), abs=1e-9
        )

    def test_distance_rail_strictly_ordered(self, geometry):
        rssis = [
            link_quality(geometry, PARAMS, 2, tag).rssi_dbm for tag in range(1, 6)
        ]
        assert all(a > b for a, b in zip(rssis, rssis[1:]))

    def test_closest_rail_tag_reads_worse_than_its_distance_suggests(self, geometry):
        # 0.10 m sits inside the reactive near-field region, so the
        # closest tag loses to tags 1-3 despite the shortest path.
        tag0 = link_quality(geometry, PARAMS, 2, 0).rssi_dbm
        assert tag0 < link_quality(geometry, PARAMS, 2, 3).rssi_dbm
        assert tag0 > link_quality(geometry, PARAMS, 2, 4).rssi_dbm

    def test_angle_rail_ordered_and_nulled(self, geometry):
        assert link_quality(geometry, PARAMS, 3, 0).rssi_dbm == PARAMS.rssi_floor_dbm
        assert link_quality(geometry, PARAMS, 3, 0).delivery_probability == 0.0
        rssis = [
            link_quality(geometry, PARAMS, 3, tag).rssi_dbm for tag in range(1, 6)
        ]
        assert all(a < b for a, b in zip(rssis, rssis[1:]))

    def test_best_link_overall_is_the_lone_tag(self, geometry):
        best = max(v[0] for v in FROZEN_LINKS.values())
        assert best == FROZEN_LINKS[(1, 6)][0]


class TestGeometry:
    def test_default_shape(self, geometry):
        assert geometry.antenna_ids() == (1, 2, 3)
        assert geometry.tag_ids() == (0, 1, 2, 3, 4, 5, 6)
        geometry.validate()

    def test_pairs_without_line_of_sight(self, geometry):
        with pytest.raises(GeometryError):
            resolve_placement(geometry, 1, 0)
        with pytest.raises(GeometryError):
            resolve_placement(geometry, 2, 6)

    def test_unknown_ids(self, geometry):
        with pytest.raises(GeometryError):
            geometry.antenna(9)
        with pytest.raises(GeometryError):
            geometry.tag(42)

    def test_rail_spacing(self, geometry):
        for tag_id in range(6):
            distance, angle = resolve_placement(geometry, 2, tag_id)
            assert distance == pytest.approx(0.10 * (tag_id + 1))
            assert angle == 0.0

    def test_angle_antenna_fixed_distance(self, geometry):
        for tag_id in range(6):
            distance, angle = resolve_placement(geometry, 3, tag_id)
            assert distance == pytest.approx(0.30)
            assert angle == pytest.approx(90.0 - 10.0 * tag_id)

    def test_reversed_preset_mirrors_angles_only(self, geometry):
        reversed_geometry = default_geometry("reversed")
        for tag_id in range(6):
            assert (
                resolve_placement(reversed_geometry, 2, tag_id)
                == resolve_placement(geometry, 2, tag_id)
            )
            _, angle = resolve_placement(reversed_geometry, 3, tag_id)
            assert angle == pytest.approx(10.0 * tag_id)

    def test_neighbor_counts(self, geometry):
        # 0.10 m pitch, 0.15 m radius: ends couple to one neighbor,
        # interior tags to two, the lone tag to none.
        assert neighbor_count(geometry, 0, 0.15) == 1
        assert neighbor_count(geometry, 5, 0.15) == 1
        for tag_id in (1, 2, 3, 4):
            assert neighbor_count(geometry, tag_id, 0.15) == 2
        assert neighbor_count(geometry, 6, 0.15) == 0

    def test_validation_rejects_duplicates(self):
        bad = Geometry(
            antennas=(AntennaPort(1), AntennaPort(1)),
            tags=(TagPlacement(0, {1: (1.0, 0.0)}),),
        )
        with pytest.raises(GeometryError):
            bad.validate()

    def test_validation_rejects_bad_domain(self):
        bad = Geometry(
            antennas=(AntennaPort(1),),
            tags=(TagPlacement(0, {1: (-1.0, 0.0)}),),
        )
        with pytest.raises(ChannelDomainError):
            bad.validate()
        bad = Geometry(
            antennas=(AntennaPort(1),),
            tags=(TagPlacement(0, {1: (1.0, 120.0)}),),
        )
        with pytest.raises(ChannelDomainError):
            bad.validate()

    def test_unknown_preset(self):
        with pytest.raises(GeometryError):
            default_geometry("sideways")


class TestChannelFunctions:
    def test_half_wavelength(self):
        assert PARAMS.wavelength_m == pytest.approx(0.32764, abs=1e-5)

    def test_fspl_reference_point(self):
        # one wavelength of separation: 20*log10(4*pi) ~ 21.98 dB
        wl = PARAMS.wavelength_m
        assert free_space_path_loss_db(wl, wl) == pytest.approx(21.984, abs=1e-3)

    def test_fspl_rejects_nonpositive(self):
        with pytest.raises(ChannelDomainError):
            free_space_path_loss_db(0.0, 0.3)
        with pytest.raises(ChannelDomainError):
            free_space_path_loss_db(1.0, -0.3)

    def test_angle_loss_endpoints(self):
        assert dipole_angle_loss_db(0.0) == 0.0
        assert dipole_angle_loss_db(90.0) == math.inf
        assert dipole_angle_loss_db(60.0) == pytest.approx(6.0206, abs=1e-4)

    def test_floor_is_exactly_zero_probability(self):
        assert delivery_probability(PARAMS, PARAMS.rssi_floor_dbm) == 0.0
        assert delivery_probability(PARAMS, PARAMS.rssi_floor_dbm - 5.0) == 0.0
        assert delivery_probability(PARAMS, PARAMS.rssi_floor_dbm + 1e-6) > 0.0

    def test_logistic_shape(self):
        mid = PARAMS.delivery_midpoint_dbm
        assert delivery_probability(PARAMS, mid) == pytest.approx(0.5)
        for rssi in (-60.0, -45.0, -30.0, -20.0):
            assert delivery_probability(PARAMS, rssi) == pytest.approx(
                logistic_oracle(rssi, mid, PARAMS.delivery_slope_db)
            )

    def test_steep_slope_far_below_midpoint_is_zero_not_an_overflow(self):
        # 0.01 dB slope: 15 dB under the midpoint, exp(-x) is exp(1500)
        steep = LinkBudgetParams(delivery_slope_db=0.01)
        mid = steep.delivery_midpoint_dbm
        assert delivery_probability(steep, mid - 15.0) == 0.0
        assert delivery_probability(steep, mid + 15.0) == 1.0
        # up to where exp overflows, the logistic is computed as before
        for rssi in (mid - 7.0, mid - 1.0, mid, mid + 1.0):
            assert delivery_probability(steep, rssi) == logistic_oracle(
                rssi, mid, steep.delivery_slope_db
            )

    def test_doubling_far_field_distance_costs_12db(self):
        lo = backscatter_rssi_dbm(PARAMS, 0.2, 0.0, gain_dbi=8.0)
        hi = backscatter_rssi_dbm(PARAMS, 0.4, 0.0, gain_dbi=8.0)
        assert lo - hi == pytest.approx(40.0 * math.log10(2.0), abs=1e-9)

    def test_coupling_charged_once_per_link(self):
        # Each neighbor costs the link exactly its per-neighbor penalty,
        # not double; the return traversal does not re-charge it.
        base = backscatter_rssi_dbm(PARAMS, 0.2, 0.0, neighbors=0, gain_dbi=8.0)
        one = backscatter_rssi_dbm(PARAMS, 0.2, 0.0, neighbors=1, gain_dbi=8.0)
        two = backscatter_rssi_dbm(PARAMS, 0.2, 0.0, neighbors=2, gain_dbi=8.0)
        assert base - one == pytest.approx(PARAMS.coupling_penalty_per_neighbor_db)
        assert one - two == pytest.approx(PARAMS.coupling_penalty_per_neighbor_db)

    def test_near_field_penalty_charged_both_traversals(self):
        just_inside = backscatter_rssi_dbm(PARAMS, 0.149999, 0.0, gain_dbi=8.0)
        just_outside = backscatter_rssi_dbm(PARAMS, 0.150001, 0.0, gain_dbi=8.0)
        step = (just_outside - just_inside) + 40.0 * math.log10(0.149999 / 0.150001)
        assert step == pytest.approx(2.0 * PARAMS.near_field_penalty_db, abs=1e-3)

    def test_validate_rejects_bad_params(self):
        with pytest.raises(ChannelDomainError):
            LinkBudgetParams(carrier_frequency_hz=0.0).validate()
        with pytest.raises(ChannelDomainError):
            LinkBudgetParams(delivery_slope_db=0.0).validate()
        with pytest.raises(ChannelDomainError):
            LinkBudgetParams(near_field_penalty_db=-1.0).validate()


class TestInvariants:
    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_fspl_monotone(self, distance):
        wl = PARAMS.wavelength_m
        assert free_space_path_loss_db(distance, wl) < free_space_path_loss_db(
            distance * 1.5, wl
        )

    @given(st.floats(min_value=0.0, max_value=89.0))
    def test_angle_loss_nonnegative_and_monotone(self, angle):
        loss = dipole_angle_loss_db(angle)
        assert loss >= 0.0
        assert loss <= dipole_angle_loss_db(min(angle + 1.0, 89.9))

    @given(
        st.floats(min_value=0.02, max_value=50.0),
        st.floats(min_value=0.0, max_value=90.0),
        st.integers(min_value=0, max_value=5),
    )
    def test_rssi_never_exceeds_incident_and_stays_above_floor(
        self, distance, angle, neighbors
    ):
        incident = incident_power_dbm(PARAMS, distance, angle, neighbors, gain_dbi=8.0)
        rssi = backscatter_rssi_dbm(PARAMS, distance, angle, neighbors, gain_dbi=8.0)
        assert rssi >= PARAMS.rssi_floor_dbm
        assert incident >= PARAMS.rssi_floor_dbm
        assert rssi <= incident  # two extra traversal losses

    @given(st.floats(min_value=-120.0, max_value=0.0))
    def test_delivery_probability_in_unit_interval(self, rssi):
        p = delivery_probability(PARAMS, rssi)
        assert 0.0 <= p < 1.0

    @given(
        st.floats(min_value=-89.9, max_value=-10.0),
        st.floats(min_value=0.01, max_value=10.0),
    )
    def test_delivery_probability_monotone_in_rssi(self, rssi, bump):
        assert delivery_probability(PARAMS, rssi + bump) >= delivery_probability(
            PARAMS, rssi
        )
