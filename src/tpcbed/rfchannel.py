"""Geometry and link-budget model for the desk-scale backscatter testbed.

Three reader antennas face battery-free tags: antenna 1 covers a lone
tag on its own desk, antennas 2 and 3 cover a shared rail of six tags
that antenna 2 sees end-on at increasing distance and antenna 3 sees
side-on at a fixed distance but increasing polarization angle.

Every antenna/tag pair reduces to a (distance, angle) pair, and the
channel model turns that into three figures:

  incident_power_dbm   RF power arriving at the tag (energy harvesting)
  backscatter_rssi_dbm reflected power back at the reader (reporting)
  delivery_probability chance one framed message crosses the link

All functions here are pure: identical inputs give identical outputs,
and nothing below this module draws randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SPEED_OF_LIGHT_M_S = 299_792_458.0

#: Id used for the lone tag parked in front of antenna 1.
SINGLE_TAG_ID = 6

#: Tag ids living on the shared rail seen by antennas 2 and 3.
RAIL_TAG_IDS = (0, 1, 2, 3, 4, 5)


class GeometryError(LookupError):
    """Unknown antenna or tag id, or a pair with no defined placement."""


class ChannelDomainError(ValueError):
    """Physically meaningless channel input, e.g. a non-positive distance."""


@dataclass(frozen=True)
class AntennaPort:
    """One reader antenna port.

    The default gain matches the circularly polarized patch antennas the
    testbed ships with (8 dBic).
    """

    antenna_id: int
    gain_dbi: float = 8.0
    label: str = ""


@dataclass(frozen=True)
class TagPlacement:
    """Where one tag sits relative to each antenna that can see it.

    ``links`` maps antenna id to ``(distance_m, angle_deg)``.  The angle
    is between the tag dipole and the antenna polarization plane; 0 is
    perfectly aligned, 90 is fully crossed.  ``rail_position_m`` is the
    coordinate along the shared tag rail and feeds the inter-tag
    coupling count; the lone tag has no rail coordinate.
    """

    tag_id: int
    links: dict[int, tuple[float, float]]
    rail_position_m: float | None = None

    def placement(self, antenna_id: int) -> tuple[float, float]:
        try:
            return self.links[antenna_id]
        except KeyError:
            raise GeometryError(
                f"tag {self.tag_id} has no placement for antenna {antenna_id}"
            ) from None


@dataclass(frozen=True)
class TestbedGeometry:
    """Full antenna/tag floor plan."""

    antennas: tuple[AntennaPort, ...]
    tags: tuple[TagPlacement, ...]

    def antenna(self, antenna_id: int) -> AntennaPort:
        for port in self.antennas:
            if port.antenna_id == antenna_id:
                return port
        raise GeometryError(f"unknown antenna id {antenna_id}")

    def tag(self, tag_id: int) -> TagPlacement:
        for tag in self.tags:
            if tag.tag_id == tag_id:
                return tag
        raise GeometryError(f"unknown tag id {tag_id}")

    def antenna_ids(self) -> tuple[int, ...]:
        return tuple(port.antenna_id for port in self.antennas)

    def tag_ids(self) -> tuple[int, ...]:
        return tuple(tag.tag_id for tag in self.tags)

    def validate(self) -> None:
        """Raise if ids collide or any placement is out of domain."""
        ant_ids = self.antenna_ids()
        if len(set(ant_ids)) != len(ant_ids):
            raise GeometryError("duplicate antenna ids")
        tag_ids = self.tag_ids()
        if len(set(tag_ids)) != len(tag_ids):
            raise GeometryError("duplicate tag ids")
        for tag in self.tags:
            for antenna_id, (distance, angle) in tag.links.items():
                if antenna_id not in ant_ids:
                    raise GeometryError(
                        f"tag {tag.tag_id} references unknown antenna {antenna_id}"
                    )
                if distance <= 0.0:
                    raise ChannelDomainError(
                        f"tag {tag.tag_id}/antenna {antenna_id}: distance must be > 0"
                    )
                if not 0.0 <= angle <= 90.0:
                    raise ChannelDomainError(
                        f"tag {tag.tag_id}/antenna {antenna_id}: angle must be in [0, 90]"
                    )


@dataclass(frozen=True)
class LinkBudgetParams:
    """Knobs of the free-space budget.

    Distances below ``far_field_boundary_m`` are charged
    ``near_field_penalty_db`` per traversal: harvesters tuned for
    far-field operation lose efficiency when parked deep inside the
    reactive region, which is why the closest rail tag reads worse than
    its 10 cm head start suggests.  ``coupling_penalty_per_neighbor_db``
    is charged once per link for every other tag parked within
    ``coupling_radius_m`` on the rail.
    """

    tx_power_dbm: float = 30.0
    carrier_frequency_hz: float = 915e6
    tag_gain_dbi: float = 2.0
    backscatter_loss_db: float = 30.0
    polarization_mismatch_db: float = 3.0
    far_field_boundary_m: float = 0.15
    near_field_penalty_db: float = 14.0
    coupling_radius_m: float = 0.15
    coupling_penalty_per_neighbor_db: float = 2.0
    ambient_noise_db: float = 0.0
    rssi_floor_dbm: float = -90.0
    delivery_midpoint_dbm: float = -36.5
    delivery_slope_db: float = 6.0

    def validate(self) -> None:
        if self.carrier_frequency_hz <= 0.0:
            raise ChannelDomainError("carrier frequency must be > 0")
        if self.far_field_boundary_m <= 0.0:
            raise ChannelDomainError("far-field boundary must be > 0")
        if self.near_field_penalty_db < 0.0:
            raise ChannelDomainError("near-field penalty must be >= 0")
        if self.coupling_radius_m < 0.0:
            raise ChannelDomainError("coupling radius must be >= 0")
        if self.coupling_penalty_per_neighbor_db < 0.0:
            raise ChannelDomainError("coupling penalty must be >= 0")
        if self.delivery_slope_db <= 0.0:
            raise ChannelDomainError("delivery slope must be > 0")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_S / self.carrier_frequency_hz


@dataclass(frozen=True)
class LinkQuality:
    """Computed channel figures for one antenna/tag pair."""

    incident_power_dbm: float
    rssi_dbm: float
    delivery_probability: float


def free_space_path_loss_db(distance_m: float, wavelength_m: float) -> float:
    """One-way free-space path loss, 20*log10(4*pi*d / lambda).

    Args:
        distance_m: separation in meters, must be positive.
        wavelength_m: carrier wavelength in meters.
    """
    if distance_m <= 0.0:
        raise ChannelDomainError("distance must be > 0")
    if wavelength_m <= 0.0:
        raise ChannelDomainError("wavelength must be > 0")
    return 20.0 * math.log10(4.0 * math.pi * distance_m / wavelength_m)


def dipole_angle_loss_db(angle_deg: float) -> float:
    """Loss from dipole/polarization misalignment, -10*log10(cos^2 angle).

    Symmetric in the sign of the angle.  Returns ``math.inf`` at 90
    degrees where the dipole pattern has its null.
    """
    cos_sq = math.cos(math.radians(angle_deg)) ** 2
    if cos_sq < 1e-30:
        return math.inf
    return -10.0 * math.log10(cos_sq)


def resolve_placement(
    geometry: TestbedGeometry, antenna_id: int, tag_id: int
) -> tuple[float, float]:
    """Look up the (distance_m, angle_deg) pair for antenna/tag.

    Raises GeometryError for unknown ids or pairs that cannot see each
    other at all (tags only appear in the environments they belong to).
    """
    geometry.antenna(antenna_id)
    return geometry.tag(tag_id).placement(antenna_id)


def neighbor_count(
    geometry: TestbedGeometry, tag_id: int, coupling_radius_m: float
) -> int:
    """Number of other rail tags within the coupling radius.

    Tags without a rail coordinate (the lone tag of the single-tag desk)
    neither couple nor count as neighbors.
    """
    me = geometry.tag(tag_id)
    if me.rail_position_m is None:
        return 0
    count = 0
    for other in geometry.tags:
        if other.tag_id == tag_id or other.rail_position_m is None:
            continue
        if abs(other.rail_position_m - me.rail_position_m) <= coupling_radius_m:
            count += 1
    return count


def _near_field_penalty(params: LinkBudgetParams, distance_m: float) -> float:
    if distance_m < params.far_field_boundary_m:
        return params.near_field_penalty_db
    return 0.0


def incident_power_dbm(
    params: LinkBudgetParams,
    distance_m: float,
    angle_deg: float,
    neighbors: int = 0,
    *,
    gain_dbi: float,
) -> float:
    """Forward-path power arriving at the tag, clamped at the RSSI floor.

    Budget: tx power + antenna gain + tag gain - path loss
    - polarization mismatch - dipole angle loss - near-field penalty
    - coupling penalty.  A value at the floor means no power worth
    speaking of reaches the tag.  ``gain_dbi`` is the antenna port's gain.
    """
    level = (
        params.tx_power_dbm
        + gain_dbi
        + params.tag_gain_dbi
        - free_space_path_loss_db(distance_m, params.wavelength_m)
        - params.polarization_mismatch_db
        - dipole_angle_loss_db(angle_deg)
        - _near_field_penalty(params, distance_m)
        - params.coupling_penalty_per_neighbor_db * neighbors
    )
    return max(level, params.rssi_floor_dbm)


def backscatter_rssi_dbm(
    params: LinkBudgetParams,
    distance_m: float,
    angle_deg: float,
    neighbors: int = 0,
    *,
    gain_dbi: float,
) -> float:
    """Reflected power back at the reader port, clamped at the RSSI floor.

    The return traversal repeats the path, polarization, angle and
    near-field terms and adds the antenna gain once more on receive, so
    doubling a far-field distance costs exactly 40*log10(2) dB overall.
    The inter-tag coupling penalty is charged once per link, on the
    forward path only; see incident_power_dbm.
    """
    incident = incident_power_dbm(
        params, distance_m, angle_deg, neighbors, gain_dbi=gain_dbi
    )
    if incident <= params.rssi_floor_dbm:
        return params.rssi_floor_dbm
    level = (
        incident
        - params.backscatter_loss_db
        - free_space_path_loss_db(distance_m, params.wavelength_m)
        - params.polarization_mismatch_db
        - dipole_angle_loss_db(angle_deg)
        - _near_field_penalty(params, distance_m)
        + gain_dbi
        - params.ambient_noise_db
    )
    return max(level, params.rssi_floor_dbm)


def delivery_probability(params: LinkBudgetParams, rssi_dbm: float) -> float:
    """Probability one framed message survives the link at this RSSI.

    Logistic in the RSSI with the configured midpoint and slope, except
    exactly zero at (or below) the floor: a link at the floor carries
    nothing, ever.  Far enough below the midpoint on a steep slope,
    exp(-x) exceeds the largest float; the logistic there is under
    6e-309, and is taken as zero.
    """
    if rssi_dbm <= params.rssi_floor_dbm:
        return 0.0
    x = (rssi_dbm - params.delivery_midpoint_dbm) / params.delivery_slope_db
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:
        return 0.0


def link_quality(
    geometry: TestbedGeometry,
    params: LinkBudgetParams,
    antenna_id: int,
    tag_id: int,
) -> LinkQuality:
    """Convenience wrapper: full channel figures for one antenna/tag pair."""
    distance, angle = resolve_placement(geometry, antenna_id, tag_id)
    gain = geometry.antenna(antenna_id).gain_dbi
    neighbors = neighbor_count(geometry, tag_id, params.coupling_radius_m)
    incident = incident_power_dbm(params, distance, angle, neighbors, gain_dbi=gain)
    rssi = backscatter_rssi_dbm(params, distance, angle, neighbors, gain_dbi=gain)
    return LinkQuality(incident, rssi, delivery_probability(params, rssi))


#: Angle presets for antenna 3.  The default points the null at tag 0
#: and relaxes by 10 degrees per tag; "reversed" runs the other way so
#: tag 0 is aligned and tag 5 sits near the null.
ANGLE_PRESETS = ("default", "reversed")


def default_geometry(angle_preset: str = "default") -> TestbedGeometry:
    """The shipped three-antenna floor plan.

    Antenna 1: lone tag 20 cm away, aligned.  Antenna 2: rail tags at
    10*(y+1) cm, all aligned.  Antenna 3: rail tags all at 30 cm with
    angles of 90 - 10*y degrees (or 10*y with the "reversed" preset).
    """
    if angle_preset not in ANGLE_PRESETS:
        raise GeometryError(f"unknown angle preset {angle_preset!r}")
    antennas = (
        AntennaPort(1, 8.0, "single-tag desk"),
        AntennaPort(2, 8.0, "rail, end-on"),
        AntennaPort(3, 8.0, "rail, side-on"),
    )
    tags = []
    for y in RAIL_TAG_IDS:
        if angle_preset == "default":
            angle3 = 90.0 - 10.0 * y
        else:
            angle3 = 10.0 * y
        tags.append(
            TagPlacement(
                tag_id=y,
                links={
                    2: (0.10 * (y + 1), 0.0),
                    3: (0.30, angle3),
                },
                rail_position_m=0.10 * y,
            )
        )
    tags.append(TagPlacement(SINGLE_TAG_ID, {1: (0.20, 0.0)}, None))
    geometry = TestbedGeometry(antennas=antennas, tags=tuple(tags))
    geometry.validate()
    return geometry
