"""Plain-text configuration documents and atomic file output.

Scenario and sweep documents are INI files.  A scenario document carries
``[world]``, ``[scenario]`` and ``[emotion]`` sections; a sweep document
adds ``[sweep]`` plus numbered ``[scenario.N]`` sections whose keys
override the shared sections row by row.  The calibration document holds
the overtaking-study parameters.
"""

from __future__ import annotations

import configparser
import math
import os
import tempfile
from dataclasses import fields

from .experiments import OsdCalibration, SweepSpec
from .sim import ScenarioConfig, WorldConfig

__all__ = [
    "ConfigError",
    "load_scenario_config",
    "load_sweep_rows",
    "load_osd_calibration_doc",
    "atomic_write",
]


class ConfigError(ValueError):
    """A configuration document failed to parse or validate."""


# Every key a scenario document may set, with its type.  Any of them may
# appear in any of the [world], [scenario], [emotion] and [scenario.N]
# sections; the section names only group keys for the reader.
_KEYS = {
    "tick_seconds": float,
    "patch_scale": float,
    "extent_min": float,
    "extent_max": float,
    "min_velocity": float,
    "max_velocity": float,
    "kind": str,
    "separation": float,
    "ticks": int,
    "eeec_agent": bool,
    "bullet_acceleration": float,
    "bullet_deceleration": float,
    "target_acceleration": float,
    "target_deceleration": float,
    "target_phase_ticks": int,
    "phase_jitter_ticks": int,
    "seed": int,
    "reaction_profile": str,
    "osd_spacing": float,
    "osd_accel": float,
    "undesirability": float,
    "ig": float,
    "fear_threshold": float,
}

# [sweep] keys and their defaults, as SweepSpec declares them.
_SWEEP_DEFAULTS = {f.name: f.default for f in fields(SweepSpec) if f.name != "rows"}
# Smallest value of each bounded [sweep] key that SweepSpec accepts.
_SWEEP_MINIMUM = {"repetitions": 1, "ticks": 0}


def _read_ini(text: str, source: str) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"{source}: {exc}") from None
    return parser


def _coerce(key: str, raw: str, source: str):
    kind = _KEYS[key]
    if kind is float:
        return _finite(key, raw, source)
    try:
        if kind is bool:
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{source}: bad value for {key!r}: {raw!r}") from None


def _finite(key: str, raw: str, source: str) -> float:
    """``raw`` as a finite float; a ConfigError naming source and key otherwise."""
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{source}: bad value for {key!r}: {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{source}: {key!r} must be a finite number, got {raw!r}")
    return value


def _collect(parser: configparser.ConfigParser, sections: list[str], source: str) -> dict:
    values: dict = {}
    for section in sections:
        if not parser.has_section(section):
            continue
        for key, raw in parser.items(section):
            if key not in _KEYS:
                raise ConfigError(f"{source}: unknown key {key!r} in [{section}]")
            values[key] = _coerce(key, raw, source)
    return values


def _build_scenario(values: dict, source: str) -> ScenarioConfig:
    world_kwargs = {}
    if "extent_min" in values or "extent_max" in values:
        lo, hi = WorldConfig().extent
        world_kwargs["extent"] = (values.pop("extent_min", lo), values.pop("extent_max", hi))
    for key in ("tick_seconds", "patch_scale", "min_velocity", "max_velocity"):
        if key in values:
            world_kwargs[key] = values.pop(key)
    rename = {
        "eeec_agent": "eeec_agent_enabled",
        "bullet_acceleration": "bullet_accel",
        "bullet_deceleration": "bullet_decel",
        "target_acceleration": "target_accel",
        "target_deceleration": "target_decel",
    }
    scenario_kwargs = {rename.get(k, k): v for k, v in values.items()}
    try:
        return ScenarioConfig(world=WorldConfig(**world_kwargs), **scenario_kwargs)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def load_scenario_config(text: str, source: str = "<config>") -> ScenarioConfig:
    """Parse a scenario document into a ScenarioConfig."""
    parser = _read_ini(text, source)
    values = _collect(parser, ["world", "scenario", "emotion"], source)
    return _build_scenario(values, source)


def load_sweep_rows(text: str, source: str = "<config>") -> tuple[list[ScenarioConfig], dict]:
    """Parse a sweep document into scenario rows plus sweep settings.

    Returns (rows, settings) where settings carries ``repetitions``,
    ``ticks`` and ``base_seed`` from the [sweep] section.  The sweep sets
    every run's ticks and seed, so a scenario section that sets either is
    rejected rather than silently overridden.
    """
    parser = _read_ini(text, source)
    row_sections = sorted(
        (s for s in parser.sections() if s.startswith("scenario.")),
        key=lambda s: int(s.split(".", 1)[1]),
    )
    for section in ["world", "scenario", "emotion", *row_sections]:
        for key, setting in (("ticks", "ticks"), ("seed", "base_seed")):
            if parser.has_option(section, key):
                raise ConfigError(f"{source}: {key!r} in [{section}] is set per run by the sweep; "
                                  f"use {setting!r} in [sweep]")
    shared = _collect(parser, ["world", "scenario", "emotion"], source)

    rows = []
    if row_sections:
        for section in row_sections:
            values = dict(shared)
            values.update(_collect(parser, [section], source))
            rows.append(_build_scenario(values, f"{source} [{section}]"))
    else:
        rows.append(_build_scenario(dict(shared), source))

    settings = dict(_SWEEP_DEFAULTS)
    if parser.has_section("sweep"):
        for key, raw in parser.items("sweep"):
            if key not in settings:
                raise ConfigError(f"{source}: unknown key {key!r} in [sweep]")
            try:
                settings[key] = int(raw)
            except ValueError:
                raise ConfigError(f"{source}: bad value for {key!r}: {raw!r}") from None
            if key in _SWEEP_MINIMUM and settings[key] < _SWEEP_MINIMUM[key]:
                raise ConfigError(f"{source}: {key!r} in [sweep] must be at least "
                                  f"{_SWEEP_MINIMUM[key]}, got {raw!r}")
    return rows, settings


def load_osd_calibration_doc(text: str, source: str = "<calibration>"):
    """Parse the overtaking calibration from a calibration document.

    Sections are ``[osd <profile>]`` with an optional ``reaction_time``
    and ``row.N = speed_mph spacing_ft accel_ftps2`` entries.
    """
    parser = _read_ini(text, source)
    reaction_time: dict[str, float] = {}
    anchors: dict[str, tuple] = {}
    for section in parser.sections():
        if not section.startswith("osd "):
            continue
        profile = section[4:].strip()
        where = f"{source} [{section}]"
        rows = []
        for key, raw in parser.items(section):
            if key == "reaction_time":
                reaction_time[profile] = _finite(key, raw, where)
            elif key.startswith("row."):
                parts = raw.split()
                if len(parts) != 3:
                    raise ConfigError(f"{where}: {key} needs 'speed spacing accel', got {raw!r}")
                rows.append(tuple(_finite(key, p, where) for p in parts))
            else:
                raise ConfigError(f"{source}: unknown key {key!r} in [{section}]")
        if rows:
            anchors[profile] = tuple(sorted(rows))
    if not anchors:
        raise ConfigError(f"{source}: no [osd <profile>] sections found")
    return OsdCalibration(reaction_time=reaction_time, anchors=anchors)


def atomic_write(path, data: str) -> None:
    """Write a file via a temp sibling and rename, so output is all or nothing."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
