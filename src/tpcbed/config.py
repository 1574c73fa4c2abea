"""Run configuration: one immutable tree, optionally overlaid from YAML.

Defaults reproduce the reference desk setup, so ``default_config()``
with no file is a complete, runnable testbed.  A YAML file supplies
sparse overrides section by section; unknown keys are rejected loudly
because a silently ignored typo in, say, ``tx_power_dbm`` would skew
every downstream number.
"""

from __future__ import annotations

import dataclasses
import sys
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
from .tag import EPC_LEN, EnergyParams
from .wisent import TransferPolicy


class ConfigError(ValueError):
    pass


#: All simulated timestamps are offsets from this instant.
DEFAULT_EPOCH = "2016-04-02T00:00:00Z"


def check_port(name: str, port: int) -> None:
    """Refuse a TCP port outside 0..65535, whichever door it comes in by."""
    if not 0 <= port <= 0xFFFF:
        raise ConfigError(f"{name} must be in 0..65535")


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
        for name in ("control_port", "reader_port"):
            check_port(name, getattr(self, name))
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
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad epc_hex {self.epc_hex!r}") from exc
        if len(raw) != EPC_LEN:
            raise ConfigError(f"epc_hex must encode exactly {EPC_LEN} bytes")
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
        try:
            self.geometry.validate()
            self.link.validate()
            self.energy.validate()
            self.inventory.validate()
            self.transfer.validate()
            self.transfer.bios_retries(self.inventory.slot_duration_ms)
            self.controller.validate()
        except ConfigError:
            raise
        except ValueError as exc:  # a section's own range check
            raise ConfigError(str(exc)) from exc
        for tag_id, profile in self.tag_profiles.items():
            if tag_id not in self.geometry.tag_ids():
                raise ConfigError(f"tag profile for unknown tag {tag_id}")
            profile.epc_bytes()


def default_config(angle_preset: str = "default") -> TestbedConfig:
    cfg = TestbedConfig(geometry=default_geometry(angle_preset))
    cfg.validate()
    return cfg


# -- YAML overlay ---------------------------------------------------------


def _coerce(value: Any, default: Any, path: str) -> Any:
    """``value`` as the type of ``default``, or a ConfigError naming ``path``.

    A YAML `30` lands as 30.0 where a float lives; `true` is no number and
    a quoted `"6"` no number either, so both are caught here instead of
    skewing arithmetic much later.  So are `.nan`, `.inf` and integers
    past the float range where a float lives, which no range check would
    refuse.  A default of None takes any value.
    """
    kind = type(default)
    if kind in (int, float):
        ok = type(value) is int or (
            type(value) is float and (kind is float or value.is_integer())
        )
        if ok and kind is float and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"bad {path}: expected a finite float, got {value!r}")
    elif kind in (bool, str):
        ok = type(value) is kind
    else:
        return value
    if not ok:
        raise ConfigError(f"bad {path}: expected {kind.__name__}, got {value!r}")
    return kind(value)


def _id_key(key: Any, path: str) -> int:
    """A mapping key naming an antenna or tag: an int, or the text of one
    (JSON keys are text), or a ConfigError naming ``path``."""
    if type(key) is str:
        try:
            return int(key)
        except ValueError:
            raise ConfigError(f"bad {path}: expected an integer id") from None
    return _coerce(key, 0, path)


def _overlay(instance: Any, section: Mapping[str, Any], name: str) -> Any:
    """Apply a flat mapping onto a dataclass, rejecting unknown keys and
    values of the wrong type."""
    known = {f.name: getattr(instance, f.name) for f in dataclasses.fields(instance)}
    unknown = set(section) - set(known)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
    return dataclasses.replace(
        instance,
        **{k: _coerce(v, known[k], f"{name}.{k}") for k, v in section.items()},
    )


def _require_mapping(value: Any, name: str, *keys: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise ConfigError(f"{name} section must be a mapping")
    missing = [key for key in keys if key not in value]
    if missing:
        raise ConfigError(f"{name} needs {missing}")
    return value


def _entries(section: dict, key: str, *required: str):
    """Each mapping listed under ``geometry.<key>``, with its key path."""
    entries = section.pop(key)
    if not isinstance(entries, (list, tuple)):
        raise ConfigError(f"geometry.{key} must be a list")
    for i, entry in enumerate(entries):
        path = f"geometry.{key}[{i}]"
        yield path, dict(_require_mapping(entry, path, *required))


def _link(pair: Any, path: str) -> tuple[float, float]:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ConfigError(f"bad {path}: expected [distance_m, angle_deg]")
    return _coerce(pair[0], 0.0, path), _coerce(pair[1], 0.0, path)


def _geometry_from(section: Mapping[str, Any]) -> TestbedGeometry:
    section = dict(section)
    preset = section.pop("angle_preset", "default")
    if preset not in ANGLE_PRESETS:
        raise ConfigError(
            f"angle_preset must be one of {ANGLE_PRESETS}, got {preset!r}"
        )
    geometry = default_geometry(preset)

    if "antennas" in section:
        ports = tuple(
            _overlay(AntennaPort(0), entry, path)
            for path, entry in _entries(section, "antennas", "antenna_id")
        )
        geometry = dataclasses.replace(geometry, antennas=ports)
    if "tags" in section:
        placements = []
        for path, entry in _entries(section, "tags", "tag_id", "links"):
            where = f"{path}.links"
            entry["links"] = {
                _id_key(key, f"{where}.{key}"): _link(pair, f"{where}.{key}")
                for key, pair in _require_mapping(entry["links"], where).items()
            }
            if entry.get("rail_position_m") is not None:
                entry["rail_position_m"] = _coerce(
                    entry["rail_position_m"], 0.0, f"{path}.rail_position_m"
                )
            placements.append(_overlay(TagPlacement(0, {}), entry, path))
        geometry = dataclasses.replace(geometry, tags=tuple(placements))
    if section:
        raise ConfigError(f"unknown geometry keys: {sorted(section)}")
    return geometry


def config_from_mapping(raw: Mapping[str, Any]) -> TestbedConfig:
    raw = dict(raw)
    geometry_section = _require_mapping(raw.pop("geometry", {}), "geometry")
    cfg = TestbedConfig(geometry=_geometry_from(geometry_section))

    for name in ("link", "energy", "inventory", "transfer", "controller"):
        if name in raw:
            section = _require_mapping(raw.pop(name), name)
            cfg = dataclasses.replace(
                cfg, **{name: _overlay(getattr(cfg, name), section, name)}
            )

    if "tags" in raw:
        profiles = {}
        for key, entry in _require_mapping(raw.pop("tags"), "tags").items():
            path = f"tags.{key}"
            profiles[_id_key(key, path)] = _overlay(
                TagProfile(), _require_mapping(entry, path), path
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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        problem = f"not UTF-8 text at line {line}: {exc.reason}"
        raise ConfigError(f"{path}: {problem}") from None
    try:
        raw = yaml.safe_load(text)
    except RecursionError:
        raise ConfigError(f"{path}: YAML nested too deep") from None
    except ValueError as exc:  # a scalar PyYAML cannot build, as 2016-02-30
        raise ConfigError(f"{path}: bad YAML value: {exc}") from None
    except yaml.YAMLError as exc:
        # one line: the parser's own text spans several
        mark = getattr(exc, "problem_mark", None)
        where = "" if mark is None else f" at line {mark.line + 1}"
        problem = getattr(exc, "problem", None) or exc
        raise ConfigError(f"{path}: bad YAML{where}: {problem}") from exc
    if raw is None:
        return default_config()
    if not isinstance(raw, Mapping):
        raise ConfigError("configuration root must be a mapping")
    return config_from_mapping(raw)
