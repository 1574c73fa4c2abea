"""Simulation state shared by the reader and the controller.

A World wires the static pieces (geometry, link budget) to the mutable
ones (tag charge, tag mode, the RNG, the clock).  Build two Worlds from
the same configuration and seed and they evolve identically; that is
the property every repeatability guarantee in the package rests on.

Time is virtual.  The clock starts at a fixed UTC epoch and advances
only when the reader spends a slot, so run wall time has no influence
on any logged timestamp.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta

from .config import TestbedConfig
from .gen2 import ReachableTag
from .rfchannel import (
    GeometryError,
    LinkQuality,
    incident_power_dbm,
    link_quality,
    neighbor_count,
    resolve_placement,
)
from .tag import ApplicationBehavior, CrfidTag, default_epc


@dataclass
class VirtualClock:
    """Discrete-event clock pinned to a UTC epoch.

    now_ms is the offset from the epoch.  iso() renders with exactly
    three fractional digits so logs compare byte-for-byte across runs.
    """

    epoch: datetime
    now_ms: float = 0.0
    # iso() is called once per inventory round, many rounds a second:
    # the strftime part is kept for the whole second it belongs to.
    _second: datetime | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _second_text: str = field(default="", init=False, repr=False, compare=False)

    def advance(self, dt_ms: float) -> None:
        if dt_ms < 0:
            raise ValueError("clock cannot run backwards")
        self.now_ms += dt_ms

    def utc(self) -> datetime:
        return self.epoch + timedelta(milliseconds=self.now_ms)

    def iso(self) -> str:
        moment = self.utc()
        second = moment.replace(microsecond=0)
        if second != self._second:
            self._second = second
            self._second_text = second.strftime("%Y-%m-%dT%H:%M:%S")
        return f"{self._second_text}.{moment.microsecond // 1000:03d}Z"


class World:
    """All mutable testbed state for one (configuration, seed) pair."""

    def __init__(self, config: TestbedConfig, seed: int = 0):
        config.validate()
        self.config = config
        self.seed = seed
        self.rng = random.Random(seed)
        self.clock = VirtualClock(epoch=config.controller.epoch_datetime())
        self.tags: dict[int, CrfidTag] = {}
        for placement in config.geometry.tags:
            profile = config.tag_profiles.get(placement.tag_id)
            behavior = ApplicationBehavior()
            epc = default_epc(placement.tag_id)
            if profile is not None:
                behavior = ApplicationBehavior(
                    obeys_goto_bios=profile.obeys_goto_bios,
                    responds_to_inventory=profile.responds_to_inventory,
                )
                override = profile.epc_bytes()
                if override is not None:
                    epc = override
            self.tags[placement.tag_id] = CrfidTag(
                tag_id=placement.tag_id,
                epc=epc,
                energy=config.energy,
                behavior=behavior,
            )
        self._links: dict[tuple[int, int], LinkQuality] = {}
        self._reachable_rows: dict[int, list[tuple[CrfidTag, ReachableTag]]] = {}
        self._harvest_plan = self._build_harvest_plan()

    # Incident power never changes during a run (placements are static),
    # so the per-antenna illumination table is computed once.
    def _build_harvest_plan(self) -> dict[int, list[tuple[CrfidTag, float]]]:
        geometry = self.config.geometry
        params = self.config.link
        plan: dict[int, list[tuple[CrfidTag, float]]] = {}
        for port in geometry.antennas:
            rows = []
            for placement in geometry.tags:
                tag = self.tags[placement.tag_id]
                try:
                    distance, angle = resolve_placement(
                        geometry, port.antenna_id, placement.tag_id
                    )
                except GeometryError:
                    rows.append((tag, params.rssi_floor_dbm))
                    continue
                neighbors = neighbor_count(
                    geometry, placement.tag_id, params.coupling_radius_m
                )
                rows.append(
                    (
                        tag,
                        incident_power_dbm(
                            params,
                            distance,
                            angle,
                            neighbors,
                            antenna_gain_dbi=port.gain_dbi,
                        ),
                    )
                )
            plan[port.antenna_id] = rows
        return plan

    def tag(self, tag_id: int) -> CrfidTag:
        return self.tags[tag_id]

    def tag_by_epc(self, epc: bytes) -> CrfidTag | None:
        for tag in self.tags.values():
            if tag.epc == epc:
                return tag
        return None

    def link(self, antenna_id: int, tag_id: int) -> LinkQuality:
        key = (antenna_id, tag_id)
        cached = self._links.get(key)
        if cached is None:
            cached = link_quality(
                self.config.geometry, self.config.link, antenna_id, tag_id
            )
            self._links[key] = cached
        return cached

    def harvest_all(self, antenna_id: int, dt_ms: float) -> None:
        """One illumination interval: the active antenna charges every
        tag it can see; tags it cannot see run down their stores.

        A tag at a fixed point is skipped: full and charging stays full,
        empty and draining stays empty, and neither browns out.  Its
        ``harvest_step`` would leave every field as it was.
        """
        if dt_ms < 0.0:
            raise ValueError("dt_ms must be >= 0")
        for tag, incident_dbm in self._harvest_plan[antenna_id]:
            params = tag.energy_params
            if incident_dbm >= params.harvest_threshold_dbm:
                if tag.energy_uj == params.capacity_uj:
                    continue
            elif tag.energy_uj == 0.0:
                continue
            tag.harvest_step(incident_dbm, dt_ms)

    def reachable(self, antenna_id: int) -> list[ReachableTag]:
        """Tags that could answer this antenna right now, id order.

        A tag is excluded when its link sits at the noise floor, when
        it is out of energy, or when its application ignores inventory.
        """
        rows = self._reachable_rows.get(antenna_id)
        if rows is None:
            rows = self._reachable_rows[antenna_id] = self._link_rows(antenna_id)
        return [row for tag, row in rows if tag.responsive]

    # Links and EPCs are fixed for a run; only responsiveness changes from
    # round to round, so each antenna's candidate rows are built once.
    def _link_rows(self, antenna_id: int) -> list[tuple[CrfidTag, ReachableTag]]:
        rows = []
        for tag_id in sorted(self.tags):
            try:
                quality = self.link(antenna_id, tag_id)
            except GeometryError:
                continue
            if quality.delivery_probability <= 0.0:
                continue
            tag = self.tags[tag_id]
            rows.append(
                (
                    tag,
                    ReachableTag(
                        tag_id=tag_id,
                        epc=tag.epc,
                        rssi_dbm=quality.rssi_dbm,
                        delivery_probability=quality.delivery_probability,
                    ),
                )
            )
        return rows
