"""Run configuration: one immutable tree, optionally overlaid from YAML.

Defaults reproduce the reference desk setup, so ``default_config()``
with no file is a complete, runnable testbed.  A YAML file supplies
sparse overrides section by section; unknown keys are rejected loudly
because a silently ignored typo in, say, ``tx_power_dbm`` would skew
every downstream number.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Mapping

import yaml

from .gen2 import InventoryConfig
from .rfchannel import (
    ANGLE_PRESETS,
    AntennaPort,
    LinkBudgetParams,
    TagPlacement,
    TestbedGeometry,
    default_geometry,
)
from .tag import EnergyParams
from .wisent import TransferPolicy


class ConfigError(ValueError):
    pass


#: All simulated timestamps are offsets from this instant.
DEFAULT_EPOCH = "2016-04-02T00:00:00Z"


@dataclass(frozen=True)
class ControllerSettings:
    """Settings for the multi-user front door and the reader endpoint."""

    lease_timeout_s: float = 300.0
    epoch_utc: str = DEFAULT_EPOCH
    host: str = "127.0.0.1"
    control_port: int = 5085
    reader_port: int = 5084

    def epoch_datetime(self) -> datetime:
        text = self.epoch_utc
        if text.endswith("Z"):
            text = text[:-1] + "+00:00"
        moment = datetime.fromisoformat(text)
        if moment.tzinfo is None:
            moment = moment.replace(tzinfo=timezone.utc)
        return moment.astimezone(timezone.utc)

    def validate(self) -> None:
        if self.lease_timeout_s <= 0:
            raise ConfigError("lease_timeout_s must be > 0")
        try:
            self.epoch_datetime()
        except ValueError as exc:
            raise ConfigError(f"bad epoch_utc: {exc}") from exc


@dataclass(frozen=True)
class TagProfile:
    """Per-tag overrides: EPC and what its current application does."""

    epc_hex: str | None = None
    obeys_goto_bios: bool = True
    responds_to_inventory: bool = True

    def epc_bytes(self) -> bytes | None:
        if self.epc_hex is None:
            return None
        try:
            raw = bytes.fromhex(self.epc_hex)
        except ValueError as exc:
            raise ConfigError(f"bad epc_hex {self.epc_hex!r}") from exc
        if len(raw) != 12:
            raise ConfigError("epc_hex must encode exactly 12 bytes")
        return raw


@dataclass(frozen=True)
class TestbedConfig:
    geometry: TestbedGeometry
    link: LinkBudgetParams = field(default_factory=LinkBudgetParams)
    energy: EnergyParams = field(default_factory=EnergyParams)
    inventory: InventoryConfig = field(default_factory=InventoryConfig)
    transfer: TransferPolicy = field(default_factory=TransferPolicy)
    controller: ControllerSettings = field(default_factory=ControllerSettings)
    tag_profiles: Mapping[int, TagProfile] = field(default_factory=dict)

    def validate(self) -> None:
        self.geometry.validate()
        self.link.validate()
        self.energy.validate()
        self.inventory.validate()
        self.transfer.validate()
        self.transfer.bios_retries(self.inventory.slot_duration_ms)
        self.controller.validate()
        for tag_id, profile in self.tag_profiles.items():
            if tag_id not in self.geometry.tag_ids():
                raise ConfigError(f"tag profile for unknown tag {tag_id}")
            profile.epc_bytes()


def default_config(angle_preset: str = "default") -> TestbedConfig:
    cfg = TestbedConfig(geometry=default_geometry(angle_preset))
    cfg.validate()
    return cfg


# -- YAML overlay ---------------------------------------------------------


def _overlay(instance: Any, section: Mapping[str, Any], name: str) -> Any:
    """Apply a flat mapping onto a dataclass, rejecting unknown keys.

    Values are coerced to the type of the default they replace, so a
    YAML `30` lands as 30.0 where a float lives and a quoted number is
    caught here instead of failing arithmetic much later.
    """
    known = {f.name: getattr(instance, f.name) for f in dataclasses.fields(instance)}
    unknown = set(section) - set(known)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    coerced = {}
    for key, value in section.items():
        current = known[key]
        try:
            if isinstance(current, bool):
                if not isinstance(value, bool):
                    raise TypeError("expected a boolean")
                coerced[key] = value
            elif isinstance(current, float):
                if isinstance(value, str):
                    raise TypeError("expected a number")
                coerced[key] = float(value)
            elif isinstance(current, int):
                if isinstance(value, str) or value != int(value):
                    raise TypeError("expected an integer")
                coerced[key] = int(value)
            else:
                coerced[key] = value
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad {name}.{key}: {exc}") from exc
    return dataclasses.replace(instance, **coerced)


def _require_mapping(value: Any, name: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{name} section must be a mapping")
    return value


def _geometry_from(section: Mapping[str, Any]) -> TestbedGeometry:
    section = dict(section)
    preset = section.pop("angle_preset", "default")
    if preset not in ANGLE_PRESETS:
        raise ConfigError(
            f"angle_preset must be one of {ANGLE_PRESETS}, got {preset!r}"
        )
    geometry = default_geometry(preset)

    if "wall_clearance_m" in section:
        geometry = dataclasses.replace(
            geometry, wall_clearance_m=float(section.pop("wall_clearance_m"))
        )
    if "antennas" in section:
        ports = []
        for entry in section.pop("antennas"):
            entry = dict(_require_mapping(entry, "antenna"))
            ports.append(
                AntennaPort(
                    antenna_id=int(entry.pop("antenna_id")),
                    gain_dbi=float(entry.pop("gain_dbi", 8.0)),
                    label=str(entry.pop("label", "")),
                )
            )
            if entry:
                raise ConfigError(f"unknown antenna keys: {sorted(entry)}")
        geometry = dataclasses.replace(geometry, antennas=tuple(ports))
    if "tags" in section:
        placements = []
        for entry in section.pop("tags"):
            entry = dict(_require_mapping(entry, "tag"))
            links = {
                int(antenna_id): (float(pair[0]), float(pair[1]))
                for antenna_id, pair in _require_mapping(
                    entry.pop("links"), "links"
                ).items()
            }
            rail = entry.pop("rail_position_m", None)
            placements.append(
                TagPlacement(
                    tag_id=int(entry.pop("tag_id")),
                    links=links,
                    rail_position_m=None if rail is None else float(rail),
                )
            )
            if entry:
                raise ConfigError(f"unknown tag keys: {sorted(entry)}")
        geometry = dataclasses.replace(geometry, tags=tuple(placements))
    if section:
        raise ConfigError(f"unknown geometry keys: {sorted(section)}")
    return geometry


def config_from_mapping(raw: Mapping[str, Any]) -> TestbedConfig:
    raw = dict(raw)
    geometry_section = _require_mapping(raw.pop("geometry", {}), "geometry")
    cfg = TestbedConfig(geometry=_geometry_from(geometry_section))

    for name, current in (
        ("link", cfg.link),
        ("energy", cfg.energy),
        ("inventory", cfg.inventory),
        ("transfer", cfg.transfer),
        ("controller", cfg.controller),
    ):
        if name in raw:
            section = _require_mapping(raw.pop(name), name)
            cfg = dataclasses.replace(
                cfg, **{name: _overlay(current, section, name)}
            )

    if "tags" in raw:
        profiles = {}
        for key, entry in _require_mapping(raw.pop("tags"), "tags").items():
            profiles[int(key)] = _overlay(
                TagProfile(), _require_mapping(entry, f"tags[{key}]"), "tag profile"
            )
        cfg = dataclasses.replace(cfg, tag_profiles=profiles)

    if raw:
        raise ConfigError(f"unknown top-level keys: {sorted(raw)}")
    cfg.validate()
    return cfg


def load_config(path: str | Path | None = None) -> TestbedConfig:
    """Build the run configuration, overlaying a YAML file if given."""
    if path is None:
        return default_config()
    text = Path(path).read_text()
    raw = yaml.safe_load(text)
    if raw is None:
        return default_config()
    if not isinstance(raw, Mapping):
        raise ConfigError("configuration root must be a mapping")
    return config_from_mapping(raw)
