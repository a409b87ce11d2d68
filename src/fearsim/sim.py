"""Tick-based two-vehicle simulation.

A fear-controlled *bullet* vehicle follows a *target* vehicle along a
single lane.  Each tick the bullet senses the gap, computes an accident
likelihood from (gap, speed), runs the fear pipeline, and picks a
maneuver from the resulting fear level; the target follows a fixed
alternating accelerate/decelerate schedule.  Positions live in
simulation units (``world.patch_scale`` feet each, 100 by default),
speeds in mph.

Runs are deterministic: the only randomness is an optional seeded jitter
of the target's schedule phase, used by sweep repetitions.
"""

from __future__ import annotations

import io
import random
from dataclasses import dataclass, field
from functools import lru_cache

from .emotion import (
    EmotionInputs,
    FearLevel,
    classify_level,
    compute_likelihood,
    fear_intensity,
    fear_potential,
)
from .sight import (
    FEET_PER_SIM_UNIT,
    MPH_TO_FPS,
    OsdParams,
    SsdParams,
    overtaking_sight_distance,
    profile_by_name,
    stopping_sight_distance,
)

__all__ = [
    "WorldConfig",
    "VehicleState",
    "ScenarioConfig",
    "TickRecord",
    "Trace",
    "CollisionError",
    "decide_maneuver",
    "step",
    "run_scenario",
    "import_simconnector",
    "trace_to_csv",
    "trace_from_csv",
]

TRACE_HEADER = "tick,ssd,distance,fear_display,fear_level,bullet_speed,target_speed"


class CollisionError(Exception):
    """Gap closed to zero; the run terminates with a collision-marked trace."""

    def __init__(self, tick: int, gap: float):
        super().__init__(f"collision at tick {tick} (gap {gap})")
        self.tick = tick
        self.gap = gap


@dataclass(frozen=True)
class WorldConfig:
    extent: tuple[float, float] = (-25.0, 25.0)
    patch_scale: float = FEET_PER_SIM_UNIT
    tick_seconds: float = 0.1
    min_velocity: float = 10.0          # mph
    max_velocity: float = 100.0         # mph

    def __post_init__(self):
        if self.patch_scale <= 0:
            raise ValueError("patch_scale must be positive")
        if self.tick_seconds <= 0:
            raise ValueError("tick_seconds must be positive")
        if self.min_velocity > self.max_velocity:
            raise ValueError("min_velocity must not exceed max_velocity")
        if self.extent[0] >= self.extent[1]:
            raise ValueError("world extent must be a non-empty interval")

    @property
    def span(self) -> float:
        return self.extent[1] - self.extent[0]


@dataclass(frozen=True)
class VehicleState:
    position: float                     # sim units along the lane
    speed: float                        # mph
    accel: float                        # mph gained per accelerating tick
    decel: float                        # mph shed per decelerating tick


@dataclass(frozen=True)
class ScenarioConfig:
    world: WorldConfig = field(default_factory=WorldConfig)
    kind: str = "rear_end"              # rear_end | overtaking
    separation: float = 1.0             # initial gap, sim units
    ticks: int = 100
    eeec_agent_enabled: bool = True
    bullet_accel: float = 0.06
    bullet_decel: float = 0.03
    target_accel: float = 0.03
    target_decel: float = 0.03
    target_phase_ticks: int = 25        # length of each accel/decel phase
    phase_jitter_ticks: int = 0         # sweep repetitions jitter the phase offset
    seed: int = 0
    undesirability: float = 1.0
    ig: float = 1.0
    fear_threshold: float = 0.0
    reaction_profile: str = "eeec_agent"
    osd_spacing: float = 5.0            # feet, overtaking scenarios only
    osd_accel: float = 19.0             # ft/s^2, overtaking scenarios only
    emotion_records: tuple[EmotionInputs, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("rear_end", "overtaking"):
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.separation <= 0:
            raise ValueError("separation must be positive")
        if self.ticks < 0:
            raise ValueError("ticks must be non-negative")
        if self.target_phase_ticks < 1:
            raise ValueError("target_phase_ticks must be at least 1")
        if self.phase_jitter_ticks < 0:
            raise ValueError("phase_jitter_ticks must be non-negative")
        for fname in ("undesirability", "ig", "fear_threshold"):
            v = getattr(self, fname)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{fname}={v} outside [0, 1]")
        profile_by_name(self.reaction_profile)

    def phase_offset(self) -> int:
        """Deterministic target-schedule offset for this config's seed."""
        if self.phase_jitter_ticks == 0:
            return 0
        return _phase_offset(self.seed, self.phase_jitter_ticks)


@lru_cache(maxsize=256)
def _phase_offset(seed: int, jitter_ticks: int) -> int:
    # Called once per tick with the same pair for a whole run; seeding a
    # Random every time would cost more than the schedule step itself.
    return random.Random(seed).randrange(jitter_ticks + 1)


@dataclass(frozen=True)
class TickRecord:
    tick: int
    ssd: float                          # required sight distance, sim units
    distance: float                     # gap, sim units
    fear_display: int
    fear_level: FearLevel
    bullet_speed: float
    target_speed: float


@dataclass(frozen=True)
class Trace:
    config: ScenarioConfig
    records: tuple[TickRecord, ...]
    collision: bool = False
    collision_tick: int | None = None


def _clamp_speed(speed: float, world: WorldConfig) -> float:
    return min(max(speed, world.min_velocity), world.max_velocity)


def decide_maneuver(level: FearLevel, state: VehicleState, world: WorldConfig) -> float:
    """Signed speed change (mph per tick) for the bullet at this fear level.

    High fear brakes, low fear accelerates, medium holds; the command is
    pre-clamped so applying it never leaves [min, max] velocity.
    """
    if level in (FearLevel.HIGH, FearLevel.VERY_HIGH):
        command = -state.decel
    elif level in (FearLevel.VERY_LOW, FearLevel.LOW):
        command = state.accel
    else:
        command = 0.0
    return _clamp_speed(state.speed + command, world) - state.speed


def _target_schedule_command(config: ScenarioConfig, state: VehicleState, tick: int) -> float:
    phase = ((tick + config.phase_offset()) // config.target_phase_ticks) % 2
    command = state.accel if phase == 0 else -state.decel
    return _clamp_speed(state.speed + command, config.world) - state.speed


def _required_sight_distance(config: ScenarioConfig, speed_mph: float) -> float:
    """Sight distance the bullet needs at this speed, in sim units."""
    t = profile_by_name(config.reaction_profile).reaction_time
    if config.kind == "overtaking":
        feet = overtaking_sight_distance(OsdParams(
            speed_fps=speed_mph * MPH_TO_FPS,
            reaction_time=t,
            spacing=config.osd_spacing,
            acceleration=config.osd_accel,
        ))
    else:
        feet = stopping_sight_distance(SsdParams(speed_mph=speed_mph, reaction_time=t))
    return feet / config.world.patch_scale


def step(config: ScenarioConfig, bullet: VehicleState, target: VehicleState,
         tick: int) -> tuple[VehicleState, VehicleState, TickRecord]:
    """Advance one tick; returns new states plus the record for this tick.

    Order per tick: sense gap, compute required sight distance, compute
    likelihood, run the fear pipeline, apply maneuvers, advance positions.
    Raises CollisionError when the gap is no longer positive.
    """
    world = config.world
    gap = target.position - bullet.position
    if gap <= 0:
        raise CollisionError(tick, gap)

    ssd = _required_sight_distance(config, bullet.speed)

    override = None
    if config.emotion_records:
        override = config.emotion_records[min(tick, len(config.emotion_records) - 1)]
    undesirability = override.undesirability if override else config.undesirability
    ig = override.ig if override else config.ig
    if override is not None and override.likelihood is not None:
        likelihood = override.likelihood
    else:
        likelihood = compute_likelihood(
            min(gap / world.span, 1.0), bullet.speed / world.max_velocity
        )
    potential = fear_potential(EmotionInputs(undesirability, likelihood, ig))
    intensity = fear_intensity(potential, config.fear_threshold)
    level, display = classify_level(intensity)

    record = TickRecord(
        tick=tick,
        ssd=ssd,
        distance=gap,
        fear_display=display,
        fear_level=level,
        bullet_speed=bullet.speed,
        target_speed=target.speed,
    )

    if config.eeec_agent_enabled:
        bullet_cmd = decide_maneuver(level, bullet, world)
    else:
        # Baseline without the fear controller: keep accelerating.
        bullet_cmd = _clamp_speed(bullet.speed + bullet.accel, world) - bullet.speed
    target_cmd = _target_schedule_command(config, target, tick)

    new_bullet_speed = bullet.speed + bullet_cmd
    new_target_speed = target.speed + target_cmd
    su_per_mph_tick = world.tick_seconds * MPH_TO_FPS / world.patch_scale
    new_bullet = VehicleState(
        position=bullet.position + new_bullet_speed * su_per_mph_tick,
        speed=new_bullet_speed,
        accel=bullet.accel,
        decel=bullet.decel,
    )
    new_target = VehicleState(
        position=target.position + new_target_speed * su_per_mph_tick,
        speed=new_target_speed,
        accel=target.accel,
        decel=target.decel,
    )
    return new_bullet, new_target, record


def initial_states(config: ScenarioConfig) -> tuple[VehicleState, VehicleState]:
    world = config.world
    bullet = VehicleState(
        position=0.0, speed=world.min_velocity,
        accel=config.bullet_accel, decel=config.bullet_decel,
    )
    target = VehicleState(
        position=config.separation, speed=world.min_velocity,
        accel=config.target_accel, decel=config.target_decel,
    )
    return bullet, target


def run_scenario(config: ScenarioConfig) -> Trace:
    """Run a scenario to completion; deterministic for a given config."""
    bullet, target = initial_states(config)
    records: list[TickRecord] = []
    collision = False
    collision_tick = None
    for tick in range(config.ticks):
        try:
            bullet, target, record = step(config, bullet, target, tick)
        except CollisionError as exc:
            collision = True
            collision_tick = exc.tick
            break
        records.append(record)
    return Trace(config=config, records=tuple(records),
                 collision=collision, collision_tick=collision_tick)


# ---------------------------------------------------------------------------
# Emotion record stream (the fuzzy stage -> simulator bridge)
# ---------------------------------------------------------------------------

def import_simconnector(stream) -> list[EmotionInputs]:
    """Parse `undesirability,likelihood,ig` CSV lines into emotion records.

    Accepts a string or a line iterable.  The first non-blank, non-comment
    line is skipped as a header when its first field is not numeric.  The
    likelihood field may be left empty to mean "compute per tick"; when
    present it overrides the per-tick value on replay.  Values outside
    [0, 1] or malformed lines raise ValueError with the offending line
    number.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    records: list[EmotionInputs] = []
    first = True
    for lineno, raw in enumerate(stream, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 3:
            raise ValueError(f"line {lineno}: expected 3 comma-separated fields, got {len(fields)}")
        if first:
            first = False
            if not _is_float(fields[0]):
                continue  # header
        undesirability = _parse_unit(fields[0], "undesirability", lineno)
        likelihood = None if fields[1] == "" else _parse_unit(fields[1], "likelihood", lineno)
        ig = _parse_unit(fields[2], "ig", lineno)
        records.append(EmotionInputs(undesirability, likelihood, ig))
    return records


def _is_float(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def _parse_unit(text: str, name: str, lineno: int) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"line {lineno}: {name} is not a number: {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"line {lineno}: {name}={value} outside [0, 1]")
    return value


# ---------------------------------------------------------------------------
# Trace CSV round trip
# ---------------------------------------------------------------------------

def trace_to_csv(trace: Trace) -> str:
    lines = [TRACE_HEADER]
    for r in trace.records:
        lines.append(
            f"{r.tick},{r.ssd!r},{r.distance!r},{r.fear_display},"
            f"{r.fear_level},{r.bullet_speed!r},{r.target_speed!r}"
        )
    if trace.collision:
        lines.append(f"# collision at tick {trace.collision_tick}")
    return "\n".join(lines) + "\n"


def trace_from_csv(text: str, config: ScenarioConfig | None = None) -> Trace:
    """Rebuild a trace from its CSV form (for the validate command)."""
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines or lines[0] != TRACE_HEADER:
        raise ValueError(f"trace CSV must start with header {TRACE_HEADER!r}")
    collision = False
    collision_tick = None
    records = []
    for line in lines[1:]:
        if line.startswith("#"):
            if "collision at tick" in line:
                collision = True
                collision_tick = int(line.rsplit(" ", 1)[1])
            continue
        fields = line.split(",")
        if len(fields) != 7:
            raise ValueError(f"bad trace row: {line!r}")
        records.append(TickRecord(
            tick=int(fields[0]),
            ssd=float(fields[1]),
            distance=float(fields[2]),
            fear_display=int(fields[3]),
            fear_level=FearLevel.from_name(fields[4]),
            bullet_speed=float(fields[5]),
            target_speed=float(fields[6]),
        ))
    return Trace(config=config if config is not None else ScenarioConfig(),
                 records=tuple(records), collision=collision, collision_tick=collision_tick)
