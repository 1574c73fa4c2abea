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

from .config import TagProfile, TestbedConfig
from .gen2 import ReachableTag
from .rfchannel import LinkQuality, link_quality, resolve_placement
from .tag import ApplicationBehavior, CrfidTag, default_epc

# Zero-padded digits by lookup: a format spec costs more than the rest of
# iso() put together.
_TWO_DIGITS = tuple(f"{i:02d}" for i in range(60))
_THREE_DIGITS = tuple(f"{i:03d}" for i in range(1000))


@dataclass
class VirtualClock:
    """Discrete-event clock pinned to a UTC epoch.

    now_ms is the offset from the epoch.  iso() renders with exactly
    three fractional digits so logs compare byte-for-byte across runs.
    """

    epoch: datetime
    now_ms: float = 0.0
    # iso() runs once per logged event and many events share a second, so
    # the text up to the second's "." is cached, as is the date text; a
    # stamp adds only its milliseconds.  Time of day is integer arithmetic
    # on microseconds since the epoch's midnight.  The epoch is fixed for
    # the clock's life.
    _epoch_us: int = field(init=False, repr=False, compare=False)
    _day: int | None = field(default=None, init=False, repr=False, compare=False)
    _day_text: str = field(default="", init=False, repr=False, compare=False)
    _second: int | None = field(default=None, init=False, repr=False, compare=False)
    _second_text: str = field(default="", init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        epoch = self.epoch
        self._epoch_us = (
            epoch.hour * 3600 + epoch.minute * 60 + epoch.second
        ) * 1_000_000 + epoch.microsecond

    def iso(self) -> str:
        now_ms = self.now_ms
        # int() raises on NaN and infinity, as timedelta does.
        whole_ms = int(now_ms)
        if whole_ms == now_ms:
            # Whole milliseconds (every stamp with whole-ms slots) are
            # whole microseconds; timedelta would only get there slower.
            us = whole_ms * 1000
        else:
            # timedelta rounds the float milliseconds to whole microseconds,
            # exactly as epoch + timedelta would.
            offset = timedelta(milliseconds=now_ms)
            seconds = offset.days * 86_400 + offset.seconds
            us = seconds * 1_000_000 + offset.microseconds
        second, us = divmod(us + self._epoch_us, 1_000_000)
        if second != self._second:
            day, second_of_day = divmod(second, 86_400)
            if day != self._day:
                midnight = self.epoch.replace(hour=0, minute=0, second=0, microsecond=0)
                # strftime, not isoformat: %Y leaves years below 1000 unpadded
                self._day_text = (midnight + timedelta(days=day)).strftime("%Y-%m-%dT")
                self._day = day
            minutes, seconds = divmod(second_of_day, 60)
            hours, minutes = divmod(minutes, 60)
            self._second_text = (
                f"{self._day_text}{_TWO_DIGITS[hours]}:"
                f"{_TWO_DIGITS[minutes]}:{_TWO_DIGITS[seconds]}."
            )
            self._second = second
        return f"{self._second_text}{_THREE_DIGITS[us // 1000]}Z"


class World:
    """All mutable testbed state for one (configuration, seed) pair."""

    def __init__(self, config: TestbedConfig, seed: int = 0):
        config.validate()
        self.config = config
        self.rng = random.Random(seed)
        self.clock = VirtualClock(epoch=config.controller.epoch_datetime())
        self.tags: dict[int, CrfidTag] = {}
        for placement in config.geometry.tags:
            profile = config.tag_profiles.get(placement.tag_id, TagProfile())
            self.tags[placement.tag_id] = CrfidTag(
                tag_id=placement.tag_id,
                epc=profile.epc_bytes() or default_epc(placement.tag_id),
                energy=config.energy,
                behavior=ApplicationBehavior(
                    obeys_goto_bios=profile.obeys_goto_bios,
                    responds_to_inventory=profile.responds_to_inventory,
                ),
            )
        # Placements are static, so every placed (antenna, tag) link is
        # computed once, here.  Each antenna's harvest plan (the floor for
        # a tag with no placement) and the tags it can hear come from it.
        geometry = config.geometry
        self.links: dict[tuple[int, int], LinkQuality] = {
            (antenna_id, placement.tag_id): link_quality(
                geometry, config.link, antenna_id, placement.tag_id
            )
            for placement in geometry.tags
            for antenna_id in placement.links
        }
        self._harvest_plan: dict[int, list[tuple[CrfidTag, float]]] = {}
        self._reachable_rows: dict[int, list[tuple[CrfidTag, ReachableTag]]] = {}
        for antenna_id in geometry.antenna_ids():
            plan = self._harvest_plan[antenna_id] = []
            rows = self._reachable_rows[antenna_id] = []
            for tag_id, tag in sorted(self.tags.items()):
                quality = self.links.get((antenna_id, tag_id))
                if quality is None:
                    plan.append((tag, config.link.rssi_floor_dbm))
                    continue
                plan.append((tag, quality.incident_power_dbm))
                if quality.delivery_probability > 0.0:
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

    def tag(self, tag_id: int) -> CrfidTag:
        return self.tags[tag_id]

    def tag_by_epc(self, epc: bytes) -> CrfidTag | None:
        for tag in self.tags.values():
            if tag.epc == epc:
                return tag
        return None

    def link(self, antenna_id: int, tag_id: int) -> LinkQuality:
        quality = self.links.get((antenna_id, tag_id))
        if quality is None:
            # Every placed pair is in the table, so the geometry raises
            # the GeometryError naming the unknown id or missing placement.
            resolve_placement(self.config.geometry, antenna_id, tag_id)
        return quality

    def harvest_all(self, antenna_id: int, dt_ms: float) -> bool:
        """One illumination interval: the active antenna charges every
        tag it can see; tags it cannot see run down their stores.

        A tag at a fixed point is skipped: full and charging stays full,
        empty and draining stays empty, and neither browns out.  Its
        ``harvest_step`` would leave every field as it was.  Returns
        whether any tag was stepped.  When none was, nothing changed, and
        the same call steps none until some tag's energy changes another
        way; whether a tag sits at a fixed point does not depend on
        ``dt_ms``.

        The reader's loops rest on this.  Within one reader call only
        harvests change a tag's energy (and, by a brownout, its mode), and
        only a delivered command changes its mode or behaviour; inventory
        delivers none.  A harvest's effect depends only on the antenna,
        ``dt_ms`` and the energies it starts from, never on modes.  So:

        - once an antenna's harvest steps no tag, the antenna stays quiet:
          harvesting it again, and rebuilding its ``reachable`` list, can
          be skipped until some harvest steps a tag;
        - more generally, a harvest on the same antenna for the same
          ``dt_ms`` from bit-identical energies ends in the energies it
          ended in before, so its outcome can be replayed instead, unless
          it browned a tag out (energy 0.0 from above), which also reset
          that tag's mode and counted a brownout;
        - a replayed outcome need not reach the tags at once.  The reader
          carries the energies and the clock in locals and writes them
          back only before something reads them: a delivered command, a
          fresh harvest, a log line and the end of each op.  So a raise,
          a break or a return leaves the World as the harvests would.

        The state is kept per call, never on the World, because a write
        to a tag's fields between calls would go unseen.
        """
        if dt_ms < 0.0:
            raise ValueError("dt_ms must be >= 0")
        stepped = False
        for tag, incident_dbm in self._harvest_plan[antenna_id]:
            params = tag.energy_params
            if incident_dbm >= params.harvest_threshold_dbm:
                if tag.energy_uj == params.capacity_uj:
                    continue
            elif tag.energy_uj == 0.0:
                continue
            tag.harvest_step(incident_dbm, dt_ms)
            stepped = True
        return stepped

    def reachable(self, antenna_id: int) -> list[ReachableTag]:
        """Tags that could answer this antenna right now, id order.

        A tag is excluded when its link sits at the noise floor, when
        it is out of energy, or when its application ignores inventory.
        """
        rows = self._reachable_rows.get(antenna_id, ())
        return [row for tag, row in rows if tag.responsive]
