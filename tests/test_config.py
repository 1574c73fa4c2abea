"""Configuration tree: defaults, YAML overlay, and validation errors."""

import dataclasses
import re
from datetime import datetime, timezone
from pathlib import Path

import pytest
import yaml

from tpcbed.config import (
    ConfigError,
    ControllerSettings,
    TagProfile,
    TestbedConfig as Config,
    config_from_mapping,
    default_config,
    load_config,
)
from tpcbed.rfchannel import AntennaPort, TagPlacement, default_geometry

SHIPPED = Path(__file__).resolve().parent.parent / "configs" / "default.yaml"
ANTENNA = {"antenna_id": 1, "gain_dbi": 6.0}
TAG = {"tag_id": 0, "links": {1: [0.3, 0.0]}}


def _geometry(antenna=ANTENNA, tag=TAG):
    return {"geometry": {"antennas": [antenna], "tags": [tag]}}


class TestDefaults:
    def test_default_config_is_valid_and_complete(self):
        cfg = default_config()
        cfg.validate()
        assert cfg.link.tx_power_dbm == 30.0
        assert cfg.inventory.slot_duration_ms == 75.0
        assert cfg.transfer.chunk_words == 1
        assert cfg.controller.lease_timeout_s == 300.0
        assert cfg.tag_profiles == {}
        assert cfg.geometry.antenna_ids() == (1, 2, 3)

    def test_angle_preset_passthrough(self):
        cfg = default_config("reversed")
        assert cfg.geometry == default_geometry("reversed")

    def test_epoch_parses_to_utc(self):
        settings = ControllerSettings()
        assert settings.epoch_datetime() == datetime(
            2016, 4, 2, tzinfo=timezone.utc
        )

    def test_epoch_accepts_explicit_offset(self):
        settings = ControllerSettings(epoch_utc="2016-04-02T02:00:00+02:00")
        assert settings.epoch_datetime() == datetime(
            2016, 4, 2, tzinfo=timezone.utc
        )

    def test_bad_epoch_rejected(self):
        with pytest.raises(ConfigError):
            ControllerSettings(epoch_utc="last tuesday").validate()

    def test_nonpositive_lease_rejected(self):
        with pytest.raises(ConfigError):
            ControllerSettings(lease_timeout_s=0.0).validate()


class TestOverlay:
    def test_empty_mapping_equals_defaults(self):
        assert config_from_mapping({}) == default_config()

    def test_scalar_overrides(self):
        cfg = config_from_mapping(
            {
                "link": {"tx_power_dbm": 27.5},
                "inventory": {"q_initial": 2},
                "transfer": {"chunk_words": 8},
                "controller": {"lease_timeout_s": 60},
            }
        )
        assert cfg.link.tx_power_dbm == 27.5
        assert cfg.inventory.q_initial == 2
        assert cfg.transfer.chunk_words == 8
        # YAML integers land as floats where the default is a float
        assert cfg.controller.lease_timeout_s == 60.0
        assert isinstance(cfg.controller.lease_timeout_s, float)

    def test_unknown_keys_rejected_everywhere(self):
        for raw in (
            {"flux_capacitor": {}},
            {"link": {"tx_power": 30}},
            {"inventory": {"slot_ms": 5}},
            {"geometry": {"wall_distance": 0.5}},
            {"tags": {"1": {"surname": "tag"}}},
        ):
            with pytest.raises(ConfigError):
                config_from_mapping(raw)

    def test_type_errors_are_loud(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"link": {"tx_power_dbm": "loud"}})
        with pytest.raises(ConfigError):
            config_from_mapping({"inventory": {"q_initial": 2.5}})
        with pytest.raises(ConfigError):
            config_from_mapping({"tags": {"1": {"obeys_goto_bios": "no"}}})

    @pytest.mark.parametrize(
        "raw, path",
        [
            ({"inventory": {"q_initial": True}}, "inventory.q_initial"),
            ({"link": {"tx_power_dbm": True}}, "link.tx_power_dbm"),
            ({"transfer": {"max_retries": float("nan")}}, "transfer.max_retries"),
            ({"controller": {"host": 127}}, "controller.host"),
            ({"tags": {1: {"obeys_goto_bios": 1}}}, "tags.1.obeys_goto_bios"),
            (_geometry({**ANTENNA, "antenna_id": 1.7}), "antennas[0].antenna_id"),
            (_geometry({**ANTENNA, "gain_dbi": "6"}), "antennas[0].gain_dbi"),
            (_geometry({**ANTENNA, "label": 5}), "antennas[0].label"),
            (_geometry({"gain_dbi": 6.0}), "geometry.antennas[0] needs ['antenna_id']"),
            (_geometry(tag={**TAG, "tag_id": True}), "geometry.tags[0].tag_id"),
            (_geometry(tag={**TAG, "links": {1: ["0.3", 0]}}), "tags[0].links.1"),
            (_geometry(tag={**TAG, "links": {1: [0.3]}}), "geometry.tags[0].links.1"),
            (_geometry(tag={**TAG, "links": [0.3, 0]}), "geometry.tags[0].links"),
            (
                _geometry(tag={**TAG, "rail_position_m": "0.1"}),
                "geometry.tags[0].rail_position_m",
            ),
            (_geometry(tag={"tag_id": 0}), "geometry.tags[0] needs ['links']"),
            ({"geometry": {"antennas": ANTENNA}}, "geometry.antennas must be a list"),
        ],
    )
    def test_wrong_types_are_refused_with_their_key_path(self, raw, path):
        # One rule for every value: booleans are not numbers, numbers and
        # quoted numbers are not each other, and a missing id is no KeyError.
        with pytest.raises(ConfigError, match=re.escape(path)):
            config_from_mapping(raw)

    @pytest.mark.parametrize(
        "raw, path",
        [
            ({"tags": {"abc": {}}}, "tags.abc: expected an integer id"),
            ({"tags": {True: {}}}, "tags.True: expected int"),
            ({"tags": {1.5: {}}}, "tags.1.5: expected int"),
            (
                _geometry(tag={**TAG, "links": {"x": [0.3, 0]}}),
                "geometry.tags[0].links.x: expected an integer id",
            ),
            (
                _geometry(tag={**TAG, "links": {None: [0.3, 0]}}),
                "geometry.tags[0].links.None: expected int",
            ),
        ],
    )
    def test_id_keys_are_refused_with_their_key_path(self, raw, path):
        with pytest.raises(ConfigError, match=re.escape(path)):
            config_from_mapping(raw)

    def test_id_keys_may_be_text_or_whole_numbers(self):
        cfg = config_from_mapping({"tags": {"1": {"obeys_goto_bios": False}, 2.0: {}}})
        assert set(cfg.tag_profiles) == {1, 2}
        assert not cfg.tag_profiles[1].obeys_goto_bios
        cfg = config_from_mapping(_geometry(tag={**TAG, "links": {"1": [0.3, 0]}}))
        assert cfg.geometry.tags[0].links == {1: (0.3, 0.0)}

    def test_geometry_numbers_land_as_their_types(self):
        cfg = config_from_mapping(
            _geometry(
                {"antenna_id": 1, "gain_dbi": 6},
                {**TAG, "links": {1: [1, 0]}, "rail_position_m": 0},
            )
        )
        (port,), (tag,) = cfg.geometry.antennas, cfg.geometry.tags
        assert port == AntennaPort(1, 6.0) and type(port.gain_dbi) is float
        assert tag == TagPlacement(0, {1: (1.0, 0.0)}, 0.0)
        assert [type(v) for v in (*tag.links[1], tag.rail_position_m)] == [float] * 3

    def test_section_must_be_mapping(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"link": [1, 2]})

    def test_tag_profiles(self):
        cfg = config_from_mapping(
            {
                "tags": {
                    "1": {"obeys_goto_bios": False},
                    "4": {"epc_hex": "ab" * 12},
                }
            }
        )
        assert cfg.tag_profiles[1].obeys_goto_bios is False
        assert cfg.tag_profiles[4].epc_bytes() == b"\xab" * 12

    def test_profile_for_unknown_tag_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"tags": {"66": {"obeys_goto_bios": False}}})

    def test_bad_epc_hex_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"tags": {"1": {"epc_hex": "zz"}}})
        with pytest.raises(ConfigError):
            config_from_mapping({"tags": {"1": {"epc_hex": "abcd"}}})

    def test_geometry_overrides(self):
        cfg = config_from_mapping(
            {
                "geometry": {
                    "angle_preset": "reversed",
                    "tags": [
                        {"tag_id": 0, "links": {"1": [0.2, 0.0]}},
                        {
                            "tag_id": 1,
                            "links": {"1": [0.4, 15.0]},
                            "rail_position_m": 0.4,
                        },
                    ],
                }
            }
        )
        assert cfg.geometry.tag_ids() == (0, 1)
        assert cfg.geometry.tags[1].links[1] == (0.4, 15.0)

    def test_unknown_angle_preset_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping({"geometry": {"angle_preset": "upside-down"}})

    def test_geometry_antenna_override(self):
        cfg = config_from_mapping(
            {
                "geometry": {
                    "antennas": [
                        {"antenna_id": 1, "gain_dbi": 6.0, "label": "bench"}
                    ],
                    "tags": [{"tag_id": 0, "links": {"1": [0.3, 0.0]}}],
                }
            }
        )
        assert cfg.geometry.antenna_ids() == (1,)
        assert cfg.geometry.antennas[0].gain_dbi == 6.0


class TestLoadConfig:
    def test_no_path_gives_defaults(self):
        assert load_config() == default_config()

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert load_config(path) == default_config()

    def test_yaml_overlay(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(
            "link:\n"
            "  tx_power_dbm: 28.0\n"
            "inventory:\n"
            "  q_initial: 3\n"
            "tags:\n"
            "  2:\n"
            "    responds_to_inventory: false\n"
        )
        cfg = load_config(path)
        assert cfg.link.tx_power_dbm == 28.0
        assert cfg.inventory.q_initial == 3
        assert cfg.tag_profiles[2].responds_to_inventory is False

    def test_non_mapping_root_rejected(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_shipped_default_file_matches_builtins(self):
        # the example file in configs/ spells out every default; drift
        # between it and the dataclass defaults would mislead users
        assert load_config(SHIPPED) == default_config()
        raw = yaml.safe_load(SHIPPED.read_text())
        cfg = default_config()
        for name in ("link", "energy", "inventory", "transfer", "controller"):
            fields = {f.name for f in dataclasses.fields(getattr(cfg, name))}
            assert set(raw[name]) == fields, name

    @pytest.mark.parametrize(
        "text",
        ["link:\n  antenna_gain_dbi: 8.0\n", "geometry:\n  wall_clearance_m: 0.7\n"],
    )
    def test_retired_keys_are_refused(self, tmp_path, text):
        # Neither key ever changed a run: the gain of each antenna is its
        # port's gain_dbi, and no term of the model read the clearance.
        path = tmp_path / "old.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match="unknown"):
            load_config(path)


class TestValidation:
    def test_validate_catches_bad_subsections(self):
        import dataclasses

        cfg = default_config()
        broken = dataclasses.replace(
            cfg, controller=ControllerSettings(lease_timeout_s=-5.0)
        )
        with pytest.raises(ConfigError):
            broken.validate()

    @pytest.mark.parametrize("field", ["harvest_efficiency", "idle_draw_mw"])
    def test_negative_energy_rates_rejected(self, field):
        import dataclasses

        cfg = default_config()
        energy = dataclasses.replace(cfg.energy, **{field: -0.01})
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(cfg, energy=energy).validate()

    def test_profile_validation_happens_at_config_level(self):
        cfg = Config(
            geometry=default_geometry(),
            tag_profiles={3: TagProfile(epc_hex="f00d")},
        )
        with pytest.raises(ConfigError):
            cfg.validate()
