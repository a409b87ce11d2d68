"""Configuration document parsing and atomic output."""

import os
from importlib import resources

import pytest

from fearsim.configio import (
    ConfigError,
    atomic_write,
    load_osd_calibration_doc,
    load_scenario_config,
    load_sweep_rows,
)


def shipped(name):
    return resources.files("fearsim.data").joinpath(name).read_text(encoding="utf-8")


def test_replay_config_parses():
    config = load_scenario_config(shipped("replay_close_gap_low_speed.cfg"))
    assert config.separation == 1.0
    assert config.ticks == 1200
    assert config.world.tick_seconds == 2.0
    assert config.fear_threshold == 0.05
    assert config.eeec_agent_enabled


def test_sweep_configs_parse_with_expected_rows():
    rows, settings = load_sweep_rows(shipped("sweep_close_gap.cfg"))
    assert len(rows) == 6
    assert settings == {"repetitions": 50, "ticks": 100, "base_seed": 1000}
    assert [r.world.min_velocity for r in rows] == [10, 10, 60, 60, 90, 90]
    assert [r.bullet_decel for r in rows] == [0.03, 0.06, 0.03, 0.06, 0.03, 0.06]

    rows, settings = load_sweep_rows(shipped("sweep_spaced_gap.cfg"))
    assert len(rows) == 5
    assert [r.separation for r in rows] == [5, 9, 13, 13, 17]


def test_scenario_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        load_scenario_config("[scenario]\nwarp_factor = 9\n")


def test_scenario_rejects_bad_value():
    with pytest.raises(ConfigError, match="bad value"):
        load_scenario_config("[scenario]\nseparation = lots\n")


@pytest.mark.parametrize("section,key,raw", [
    ("scenario", "separation", "nan"),
    ("world", "tick_seconds", "nan"),
    ("scenario", "separation", "inf"),
    ("world", "max_velocity", "inf"),
])
def test_scenario_rejects_non_finite_value(section, key, raw):
    with pytest.raises(ConfigError, match=f"'{key}' must be a finite number"):
        load_scenario_config(f"[{section}]\n{key} = {raw}\n")


@pytest.mark.parametrize("key,raw,message", [
    ("min_velocity", "-1", "min_velocity must be non-negative"),
    ("max_velocity", "0", "max_velocity must be positive"),
    ("osd_accel", "0", "osd_accel must be positive"),
    ("osd_spacing", "-5", "osd_spacing must be non-negative"),
])
def test_scenario_rejects_values_that_would_fail_at_tick_0(key, raw, message):
    text = f"[scenario]\nkind = overtaking\n{key} = {raw}\n"
    with pytest.raises(ConfigError, match=f"mine.cfg: {message}"):
        load_scenario_config(text, source="mine.cfg")
    with pytest.raises(ConfigError, match=rf"mine.cfg \[scenario.1\]: {message}"):
        load_sweep_rows(f"{text}[scenario.1]\n", source="mine.cfg")


def test_scenario_domain_errors_carry_source():
    with pytest.raises(ConfigError, match="myfile.cfg"):
        load_scenario_config("[scenario]\nseparation = -1\n", source="myfile.cfg")


def test_sweep_without_row_sections_is_single_row():
    rows, _ = load_sweep_rows("[scenario]\nseparation = 4\n")
    assert len(rows) == 1
    assert rows[0].separation == 4


@pytest.mark.parametrize("section", ["world", "scenario", "scenario.1"])
@pytest.mark.parametrize("key,setting", [("ticks", "ticks"), ("seed", "base_seed")])
def test_sweep_rejects_per_run_keys_in_scenario_sections(section, key, setting):
    text = f"[sweep]\nticks = 7\n[{section}]\n{key} = 42\n"
    with pytest.raises(ConfigError, match=rf"'{key}' in \[{section}\].*'{setting}' in \[sweep\]"):
        load_sweep_rows(text, source="mine.cfg")


def test_osd_calibration_parses_both_profiles():
    calibration = load_osd_calibration_doc(shipped("calibration.cfg"))
    assert set(calibration.anchors) == {"eeec_agent", "human"}
    assert calibration.reaction_time == {"human": 1.0}
    for rows in calibration.anchors.values():
        assert [speed for speed, _, _ in rows] == [25.0, 50.0]


def test_osd_calibration_rejects_malformed_row():
    with pytest.raises(ConfigError, match="speed spacing accel"):
        load_osd_calibration_doc("[osd human]\nrow.1 = 25 5\n")


@pytest.mark.parametrize("key,value,raw", [
    ("reaction_time", "nan", "nan"),
    ("reaction_time", "inf", "inf"),
    ("row.1", "25 nan 19", "nan"),
    ("row.1", "-inf 5 19", "-inf"),
])
def test_osd_calibration_rejects_non_finite_value(key, value, raw):
    text = f"[osd human]\nrow.9 = 25 5 19\n{key} = {value}\n"
    with pytest.raises(ConfigError, match=rf"cal.cfg \[osd human\]: '{key}' must be a finite number, got '{raw}'"):
        load_osd_calibration_doc(text, source="cal.cfg")


@pytest.mark.parametrize("key,value,raw", [
    ("reaction_time", "fast", "fast"),
    ("row.1", "25 five 19", "five"),
])
def test_osd_calibration_rejects_non_number(key, value, raw):
    text = f"[osd human]\nrow.9 = 25 5 19\n{key} = {value}\n"
    with pytest.raises(ConfigError, match=rf"cal.cfg \[osd human\]: bad value for '{key}': '{raw}'"):
        load_osd_calibration_doc(text, source="cal.cfg")


@pytest.mark.parametrize("key,raw", [
    ("repetitions", "0"),
    ("repetitions", "-3"),
    ("ticks", "-1"),
])
def test_sweep_rejects_out_of_range_settings(key, raw):
    with pytest.raises(ConfigError, match=rf"mine.cfg: '{key}' in \[sweep\] must be at least"):
        load_sweep_rows(f"[sweep]\n{key} = {raw}\n", source="mine.cfg")


def test_sweep_accepts_smallest_settings():
    _, settings = load_sweep_rows("[sweep]\nrepetitions = 1\nticks = 0\n")
    assert settings["repetitions"] == 1
    assert settings["ticks"] == 0


def test_atomic_write_replaces_whole_file(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write(path, "first\n")
    atomic_write(path, "second\n")
    assert path.read_text() == "second\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_atomic_write_failure_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"

    real_replace = os.replace

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        atomic_write(path, "data")
    monkeypatch.setattr(os, "replace", real_replace)
    assert list(tmp_path.iterdir()) == []
