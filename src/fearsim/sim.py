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

``step`` advances one run by one tick, on a tuple of both positions and
speeds, and is the reference; both runners give its traces byte for byte.
``run_scenario`` (one run, ``fearsim simulate``) infers the fear of a
window of ticks per batch, up to the first change of the bullet's command.
``run_lockstep`` (sweeps) advances many runs together, one tick at a time,
with one array entry per live run: controller runs change command every
few ticks, so windows would not pay.
"""

from __future__ import annotations

import io
import random
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .emotion import (
    _PLATEAUS,
    DISPLAY_PLATEAUS,
    EmotionInputs,
    FearLevel,
    _plateaus_with_slack,
    classify_level,
    compute_likelihood,
    fear_intensity,
    fear_potential,
    fear_rulebase,
    likelihood_rulebase,
)
from .fuzzy import _additive_batch
from .sight import (
    DEFAULT_DECELERATION_FTPS2,
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
    "ScenarioConfig",
    "TickRecord",
    "Trace",
    "CollisionError",
    "step",
    "run_scenario",
    "run_lockstep",
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
        if self.min_velocity < 0:
            raise ValueError("min_velocity must be non-negative")
        if self.max_velocity <= 0:
            raise ValueError("max_velocity must be positive")
        if self.min_velocity > self.max_velocity:
            raise ValueError("min_velocity must not exceed max_velocity")
        if self.extent[0] >= self.extent[1]:
            raise ValueError("world extent must be a non-empty interval")

    @property
    def span(self) -> float:
        return self.extent[1] - self.extent[0]


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
        if self.osd_spacing < 0:
            raise ValueError("osd_spacing must be non-negative")
        if self.osd_accel <= 0:
            raise ValueError("osd_accel must be positive")
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


# One tick of a run: the required sight distance and the gap in sim units,
# the fear display and level, and both speeds in mph.
TickRecord = namedtuple("TickRecord",
                        "tick ssd distance fear_display fear_level bullet_speed target_speed")
# A trace's ticks as one tuple per ``TickRecord`` field.
TraceColumns = namedtuple("TraceColumns", TickRecord._fields)


@dataclass(frozen=True)
class Trace:
    """One run: its config, its ticks as columns and how it ended.

    ``records`` is built from the columns on first use and kept.
    """

    config: ScenarioConfig
    columns: TraceColumns
    collision: bool = False
    collision_tick: int | None = None

    @cached_property
    def records(self) -> tuple[TickRecord, ...]:
        return tuple(map(TickRecord, *self.columns))


def _clamp_speed(speed: float, world: WorldConfig) -> float:
    return min(max(speed, world.min_velocity), world.max_velocity)


# The maneuver policy, per fear level: accelerate (1), hold (0) or brake (-1).
_COMMAND_SIGN = {
    FearLevel.VERY_LOW: 1, FearLevel.LOW: 1, FearLevel.MEDIUM: 0,
    FearLevel.HIGH: -1, FearLevel.VERY_HIGH: -1,
}


# The same policy and the display per plateau index of the quantizer
# table, and the level per display.
_PLATEAU_SIGN = np.array([_COMMAND_SIGN[level] for level, _ in _PLATEAUS])
_DISPLAY = np.array(DISPLAY_PLATEAUS)
_LEVEL = {display: level for level, display in _PLATEAUS}


def _speed_command(sign: int, accel: float, decel: float) -> float:
    """The speed change a policy sign asks for: accelerate, brake or hold."""
    if sign < 0:
        return -decel
    return accel if sign > 0 else 0.0


def _target_sign(config: ScenarioConfig, tick: int) -> int:
    """The target's schedule: accelerate in even phases, brake in odd ones."""
    return -1 if ((tick + config.phase_offset()) // config.target_phase_ticks) % 2 else 1


def _kinematics(world: WorldConfig, state: tuple, bullet_command: float,
                target_command: float) -> tuple[float, float, float, float]:
    """Both vehicles one tick on, in ``step``'s operations and order.

    ``state`` is (bullet position, bullet speed, target position, target
    speed).  Each speed command is clamped so the speed stays in the
    world's range; then the speed and the position advance.
    """
    bullet_position, bullet_speed, target_position, target_speed = state
    su_per_mph_tick = world.tick_seconds * MPH_TO_FPS / world.patch_scale
    bullet_speed = bullet_speed + (_clamp_speed(bullet_speed + bullet_command, world) - bullet_speed)
    target_speed = target_speed + (_clamp_speed(target_speed + target_command, world) - target_speed)
    return (bullet_position + bullet_speed * su_per_mph_tick, bullet_speed,
            target_position + target_speed * su_per_mph_tick, target_speed)


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


def step(config: ScenarioConfig, state: tuple, tick: int) -> tuple[tuple, TickRecord]:
    """Advance one tick; returns the new state plus the record for this tick.

    ``state`` is (bullet position, bullet speed, target position, target
    speed), as ``_kinematics`` takes it; the rates come from ``config``.
    Order per tick: sense gap, compute required sight distance, compute
    likelihood, run the fear pipeline, apply maneuvers, advance positions.
    Raises CollisionError when the gap is no longer positive.
    """
    world = config.world
    bullet_position, bullet_speed, target_position, target_speed = state
    gap = target_position - bullet_position
    if gap <= 0:
        raise CollisionError(tick, gap)

    ssd = _required_sight_distance(config, bullet_speed)

    override = None
    if config.emotion_records:
        override = config.emotion_records[min(tick, len(config.emotion_records) - 1)]
    undesirability = override.undesirability if override else config.undesirability
    ig = override.ig if override else config.ig
    if override is not None and override.likelihood is not None:
        likelihood = override.likelihood
    else:
        likelihood = compute_likelihood(
            min(gap / world.span, 1.0), bullet_speed / world.max_velocity
        )
    potential = fear_potential(EmotionInputs(undesirability, likelihood, ig))
    intensity = fear_intensity(potential, config.fear_threshold)
    level, display = classify_level(intensity)

    record = TickRecord(tick, ssd, gap, display, level, bullet_speed, target_speed)

    # Without the fear controller the bullet keeps accelerating.
    sign = _COMMAND_SIGN[level] if config.eeec_agent_enabled else 1
    state = _kinematics(
        world, state, _speed_command(sign, config.bullet_accel, config.bullet_decel),
        _speed_command(_target_sign(config, tick), config.target_accel, config.target_decel))
    return state, record


# Most ticks one window of ``run_scenario`` steps ahead.  A window without
# a command change doubles the next one up to this; a change restarts it
# at a quarter of this.  One batch costs about as much as ten of its
# ticks, so windows that restart at one tick cost more in batches than
# they save in dropped ticks (on the shipped replay, 71 batches over 1,568
# points against 35 over 1,448).
_WINDOW = 64


def run_scenario(config: ScenarioConfig) -> Trace:
    """Run a scenario to completion; deterministic for a given config.

    Equal to calling ``step`` from (0, floor speed, separation, floor
    speed) until the ticks run out or a collision.  The plateau reaches
    the kinematics only through the bullet's command sign, so the
    kinematics run a window of ticks ahead as if the last kept tick's sign
    held, stopping before a closed gap, and the window's fear inference is
    one batch.  The ticks up to and including the first one whose sign
    differs are kept, and the next state is stepped from that tick under
    its own sign, so every kept tick is the one ``step`` gives.  The
    speculative ticks past it are dropped.
    """
    world = config.world
    appraisal = _appraisal_table([config], config.ticks)
    knots = _knot_table(appraisal)[:, :, 0]
    appraisal = appraisal[:, :, 0]
    # Without the fear controller the bullet keeps accelerating.
    signs = _PLATEAU_SIGN if config.eeec_agent_enabled else np.ones_like(_PLATEAU_SIGN)
    # Speeds are floats from the first tick, even for an integer floor.
    v0 = float(world.min_velocity)
    state = 0.0, v0, config.separation, v0
    # What each kept tick records, as in ``_run_group``: the gap and both
    # speeds, and the plateau index.
    recorded = np.zeros((3, config.ticks, 1))
    plateaus = np.zeros((config.ticks, 1), dtype=np.int8)
    # The last kept tick's sign.  The first window is the first tick alone,
    # so the sign it starts from steps nothing.
    held = 0
    width = 1
    tick = 0
    while tick < config.ticks and state[2] - state[0] > 0:
        window = [state]
        command = _speed_command(held, config.bullet_accel, config.bullet_decel)
        for t in range(tick + 1, min(tick + width, config.ticks)):
            ahead = _kinematics(world, window[-1], command, _speed_command(
                _target_sign(config, t - 1), config.target_accel, config.target_decel))
            if ahead[2] - ahead[0] <= 0:
                break
            window.append(ahead)
        bullet_position, bullet_speed, target_position, target_speed = np.array(window).T
        gap = target_position - bullet_position
        rows = np.minimum(np.arange(tick, tick + len(window)), appraisal.shape[1] - 1)
        plateau = _fear_plateaus(gap, bullet_speed, world.span, world.max_velocity,
                                 appraisal[:, rows], knots[:, rows], config.fear_threshold)
        changed = np.flatnonzero(signs[plateau] != held)
        keep = int(changed[0]) + 1 if changed.size else len(window)
        recorded[:, tick:tick + keep, 0] = gap[:keep], bullet_speed[:keep], target_speed[:keep]
        plateaus[tick:tick + keep, 0] = plateau[:keep]
        held = int(signs[plateau[keep - 1]])
        tick += keep
        state = _kinematics(world, window[keep - 1],
                            _speed_command(held, config.bullet_accel, config.bullet_decel),
                            _speed_command(_target_sign(config, tick - 1), config.target_accel,
                                           config.target_decel))
        width = _WINDOW // 4 if changed.size else min(2 * width, _WINDOW)
    return _traces([config], [tick], recorded[:, :tick], plateaus[:tick])[0]


# ---------------------------------------------------------------------------
# Lock-step runs
# ---------------------------------------------------------------------------

# Most runs advanced together.  The working arrays hold one entry per run
# of a group (the emotion-record table one per run and record), so their
# size does not grow with the number of runs in a sweep.
_LOCKSTEP_GROUP = 256


def run_lockstep(configs) -> list[Trace]:
    """``run_scenario`` of every config, advanced together one tick at a time.

    Equal to ``[run_scenario(c) for c in configs]`` byte for byte: every
    tick applies the same floating-point operations, in the same order, to
    arrays with one entry per live run.  Runs that collide or finish drop
    out.  The ticks are written into (ticks, runs) tables, and each trace
    takes its columns from them.
    """
    traces = []
    for start in range(0, len(configs), _LOCKSTEP_GROUP):
        traces += _run_group(configs[start:start + _LOCKSTEP_GROUP])
    return traces


def _clamp_speeds(speed: np.ndarray, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """``_clamp_speed`` elementwise, keeping min/max's choice on ties."""
    speed = np.where(low > speed, low, speed)
    return np.where(high < speed, high, speed)


# A display closer than this to a plateau midpoint is decided by the exact
# pipeline (derived at ``_fear_plateaus``).
_PLATEAU_MARGIN = 1e-6


def _fear_plateaus(gap: np.ndarray, speed: np.ndarray, span, max_velocity,
                   appraisal: np.ndarray, knots: np.ndarray, threshold) -> np.ndarray:
    """``step``'s fear pipeline at many points, as plateau indices.

    ``appraisal`` holds undesirability, likelihood and ig per point; a NaN
    likelihood is computed from the gap and bullet speed.  ``knots`` holds
    each point's column of ``_knot_table``.  The world's span and maximum
    velocity and the fear threshold are per point or shared.

    Only the plateau is kept, so neither rule base runs exactly.  A
    computed likelihood comes from the closed form
    (``RuleBase._mamdani_closed_batch``), within eps = 1e-10 of
    ``compute_likelihood``'s.  The fear rules have strong input partitions
    and one rule per cell (``RuleBase._peaks``), so at fixed undesirability
    and ig their exact multilinear potential M is linear in the likelihood
    between adjacent peaks of its terms, with a slope of at most the
    consequents' centroid range over the smallest peak gap, below 1/0.19:
    M moves by less than 5.3 eps between the two likelihoods.  Each knot is
    ``_additive_batch``'s value at a peak, within 3e-14 of M there, and
    ``_knot_potential`` rounds a few units in the last place more, so the
    interpolated potential lies within 3.1e-14 of M, as
    ``_additive_batch``'s value at the exact likelihood does.  The
    threshold and the x100 add a few units in the last place, so
    100*intensity moves by less than 100 (5.3 eps + 1e-13) < 6e-8 between
    the pipelines.  A point whose 100*intensity lies ``_PLATEAU_MARGIN`` or
    more from every midpoint therefore has the exact pipeline's plateau.
    The others, and those without a proven bound or without knots, go
    through ``_mamdani_batch`` (where the likelihood is computed) and
    ``_plateaus`` as one batch.
    """
    undesirability, likelihood, ig = appraisal
    rulebase = likelihood_rulebase()
    inputs = {"distance": np.minimum(gap / span, 1.0), "speed": speed / max_velocity}
    missing = np.isnan(likelihood)
    if missing.all():
        likelihood = rulebase._mamdani_closed_batch(inputs)
    elif missing.any():
        likelihood = likelihood.copy()
        likelihood[missing] = rulebase._mamdani_closed_batch(
            {name: value[missing] for name, value in inputs.items()})
    potential = _knot_potential(knots, likelihood)
    unproven = np.isnan(potential)
    if unproven.any():
        potential = np.where(unproven, 0.0, potential)
    plateau, slack = _plateaus_with_slack(potential, threshold)
    redo = ((slack < _PLATEAU_MARGIN) | unproven).nonzero()[0]
    if redo.size:
        exact = appraisal[1, redo]
        computed = np.isnan(exact)
        if computed.any():
            exact[computed] = rulebase._mamdani_batch(
                {name: value[redo[computed]] for name, value in inputs.items()})[0]
        plateau[redo] = _plateaus(undesirability[redo], exact, ig[redo],
                                  np.broadcast_to(threshold, plateau.shape)[redo])[0]
    return plateau


def _knot_potential(knots: np.ndarray, likelihood: np.ndarray) -> np.ndarray:
    """The fear potential at each likelihood, interpolated between the
    knots at the likelihood peaks around it; NaN for a NaN likelihood, and
    everywhere when there are no knots."""
    if not len(knots):
        return np.full(likelihood.shape, np.nan)
    peaks = fear_rulebase()._peaks["likelihood"]
    upper = np.minimum(peaks.searchsorted(likelihood, side="right"), len(peaks) - 1)
    low, high = peaks[upper - 1], peaks[upper]
    columns = np.arange(len(likelihood))
    below, above = knots[upper - 1, columns], knots[upper, columns]
    return below + (likelihood - low) / (high - low) * (above - below)


def _plateaus(undesirability, likelihood, ig, threshold) -> tuple[np.ndarray, np.ndarray]:
    """Plateau indices and slack (``_plateaus_with_slack``) of appraisals."""
    potential = _additive_batch(fear_rulebase(), {
        "undesirability": undesirability, "likelihood": likelihood, "ig": ig,
    })
    return _plateaus_with_slack(potential, threshold)


def _knot_table(appraisal: np.ndarray) -> np.ndarray:
    """(peaks, width, runs): the fear potential at each peak of the fear
    rules' likelihood terms (``RuleBase._peaks``), under each row of
    ``_appraisal_table``'s undesirability and ig.

    Each distinct (undesirability, ig) goes through ``_additive_batch``
    once, all in one batch.  The table is empty, so every point takes the
    exact pipeline, when the fear rules have no peaks.
    """
    rulebase = fear_rulebase()
    peaks = rulebase._peaks
    if peaks is None:
        return np.empty((0, *appraisal.shape[1:]))
    peaks = peaks["likelihood"]
    pairs, inverse = np.unique(appraisal[[0, 2]].reshape(2, -1), axis=1, return_inverse=True)
    potential = _additive_batch(rulebase, {
        "undesirability": np.tile(pairs[0], len(peaks)),
        "likelihood": np.repeat(peaks, pairs.shape[1]),
        "ig": np.tile(pairs[1], len(peaks)),
    }).reshape(len(peaks), -1)
    return potential[:, inverse.reshape(-1)].reshape(len(peaks), *appraisal.shape[1:])


def _appraisal_table(configs, ticks: int) -> np.ndarray:
    """(3, width, runs): undesirability, likelihood and ig per record and run.

    Row j is what ``step`` reads at tick j (the last row stands for every
    later tick).  A run without records repeats its scenario constants with
    a likelihood of NaN, meaning "compute it from gap and speed".
    """
    rows = []
    for c in configs:
        if c.emotion_records:
            rows.append([(r.undesirability, np.nan if r.likelihood is None else r.likelihood, r.ig)
                         for r in c.emotion_records[:max(ticks, 1)]])
        else:
            rows.append([(c.undesirability, np.nan, c.ig)])
    width = max(len(row) for row in rows)
    return np.array([row + row[-1:] * (width - len(row)) for row in rows]).transpose(2, 1, 0)


def _sight_distances(configs, speed: np.ndarray) -> np.ndarray:
    """``_required_sight_distance`` of a (ticks, runs) table of bullet speeds.

    ``v ** 2`` is CPython's float power (libm ``pow``): numpy's square
    differs from it in the last bit on some speeds.  The other operations
    are elementwise and in the scalar formulas' order.
    """
    t = np.array([profile_by_name(c.reaction_profile).reaction_time for c in configs])
    spacing = np.array([c.osd_spacing for c in configs], dtype=float)
    root = np.sqrt(4.0 * spacing / np.array([c.osd_accel for c in configs], dtype=float))
    square = np.array([v ** 2 for v in speed.ravel().tolist()]).reshape(speed.shape)
    stopping = 1.47 * speed * t + 1.075 * square / DEFAULT_DECELERATION_FTPS2
    fps = speed * MPH_TO_FPS
    overtaking = np.where(fps == 0, 2.0 * spacing, fps * t + 2.0 * spacing + fps * root)
    feet = np.where([c.kind == "overtaking" for c in configs], overtaking, stopping)
    return feet / np.array([c.world.patch_scale for c in configs], dtype=float)


def _run_group(configs) -> list[Trace]:
    n = len(configs)
    worlds = [c.world for c in configs]
    ticks = np.array([c.ticks for c in configs])
    total_ticks = int(ticks.max(initial=0))
    appraisal = _appraisal_table(configs, total_ticks)
    # Per-run constants and state; entries of runs that drop out are removed.
    run = {
        "index": np.arange(n),
        "ticks": ticks,
        "enabled": np.array([c.eeec_agent_enabled for c in configs]),
        "fear_threshold": np.array([c.fear_threshold for c in configs], dtype=float),
        "phase_offset": np.array([c.phase_offset() for c in configs]),
        "phase_ticks": np.array([c.target_phase_ticks for c in configs]),
        "bullet_accel": np.array([c.bullet_accel for c in configs], dtype=float),
        "bullet_decel": np.array([c.bullet_decel for c in configs], dtype=float),
        "target_accel": np.array([c.target_accel for c in configs], dtype=float),
        "target_decel": np.array([c.target_decel for c in configs], dtype=float),
        "min_velocity": np.array([w.min_velocity for w in worlds], dtype=float),
        "max_velocity": np.array([w.max_velocity for w in worlds], dtype=float),
        "span": np.array([w.span for w in worlds], dtype=float),
        "su_per_mph_tick": np.array([w.tick_seconds * MPH_TO_FPS / w.patch_scale for w in worlds]),
        "appraisal": appraisal,
        "knots": _knot_table(appraisal),
        "bullet_position": np.zeros(n),
        "target_position": np.array([c.separation for c in configs], dtype=float),
        "bullet_speed": np.array([w.min_velocity for w in worlds], dtype=float),
        "target_speed": np.array([w.min_velocity for w in worlds], dtype=float),
    }
    # What each tick records, one row per tick and one column per run: the
    # gap and both speeds, and the plateau index.
    recorded = np.zeros((3, total_ticks, n))
    plateau = np.zeros((total_ticks, n), dtype=np.int8)
    length = ticks.copy()
    where = slice(None)  # the live runs' columns

    for tick in range(total_ticks):
        gap = run["target_position"] - run["bullet_position"]
        live = (gap > 0) & (tick < run["ticks"])
        if not live.all():
            collided = run["index"][(gap <= 0) & (tick < run["ticks"])]
            length[collided] = tick
            run = {key: value[..., live] for key, value in run.items()}
            gap = gap[live]
            where = run["index"]
            if not where.size:
                break
        bullet_speed, target_speed = run["bullet_speed"], run["target_speed"]

        row = min(tick, appraisal.shape[1] - 1)
        level = _fear_plateaus(gap, bullet_speed, run["span"], run["max_velocity"],
                               run["appraisal"][:, row], run["knots"][:, row], run["fear_threshold"])
        recorded[:, tick, where] = gap, bullet_speed, target_speed
        plateau[tick, where] = level

        sign = _PLATEAU_SIGN[level]
        command = np.where(sign > 0, run["bullet_accel"],
                           np.where(sign < 0, -run["bullet_decel"], 0.0))
        command = np.where(run["enabled"], command, run["bullet_accel"])
        low, high = run["min_velocity"], run["max_velocity"]
        bullet_cmd = _clamp_speeds(bullet_speed + command, low, high) - bullet_speed
        phase = ((tick + run["phase_offset"]) // run["phase_ticks"]) % 2
        command = np.where(phase == 0, run["target_accel"], -run["target_decel"])
        target_cmd = _clamp_speeds(target_speed + command, low, high) - target_speed

        run["bullet_speed"] = bullet_speed = bullet_speed + bullet_cmd
        run["target_speed"] = target_speed = target_speed + target_cmd
        run["bullet_position"] = run["bullet_position"] + bullet_speed * run["su_per_mph_tick"]
        run["target_position"] = run["target_position"] + target_speed * run["su_per_mph_tick"]

    return _traces(configs, length.tolist(), recorded, plateau)


def _traces(configs, length: list[int], recorded: np.ndarray, plateau: np.ndarray) -> list[Trace]:
    """Each run's trace from (ticks, runs) tables of its ticks.

    ``recorded`` holds the gap and both speeds, ``plateau`` the plateau
    index.  Run i ran ``length[i]`` ticks, fewer than its config's after a
    collision.
    """
    gaps, bullet_speeds, target_speeds = recorded
    tables = (_sight_distances(configs, bullet_speeds), gaps, _DISPLAY[plateau],
              bullet_speeds, target_speeds)
    traces = []
    # Each run's column of every table, cut to the ticks it ran.
    for config, n_ticks, *rows in zip(configs, length, *(t.T.tolist() for t in tables)):
        ssd, distance, display, bullet, target = (tuple(row[:n_ticks]) for row in rows)
        columns = TraceColumns(tuple(range(n_ticks)), ssd, distance, display,
                               tuple(map(_LEVEL.__getitem__, display)), bullet, target)
        collision = n_ticks < config.ticks
        traces.append(Trace(config, columns, collision, n_ticks if collision else None))
    return traces


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
    # ``_value_`` is the level's value without the ``value`` property's call.
    lines = [TRACE_HEADER]
    lines += [f"{tick},{ssd!r},{gap!r},{display},{level._value_},{bullet!r},{target!r}"
              for tick, ssd, gap, display, level, bullet, target in zip(*trace.columns)]
    if trace.collision:
        lines.append(f"# collision at tick {trace.collision_tick}")
    return "\n".join(lines) + "\n"


_NOT_A = {int: "is not an integer", float: "is not a number"}


def _csv_fields(line: str, parsers, names, lineno: int) -> list:
    """One CSV row through one parser per column.

    A wrong field count or a field its parser rejects is a ValueError that
    names the line (``lineno``, counted from 1) and the column.
    """
    fields = line.split(",")
    if len(fields) != len(parsers):
        raise ValueError(f"line {lineno}: expected {len(parsers)} comma-separated fields, "
                         f"got {len(fields)}")
    values = []
    for parse, name, text in zip(parsers, names, fields):
        try:
            values.append(parse(text))
        except ValueError as exc:
            reason = f" {_NOT_A[parse]}: {text!r}" if parse in _NOT_A else f": {exc}"
            raise ValueError(f"line {lineno}: {name}{reason}") from None
    return values


def _numbered_lines(text: str) -> list[tuple[int, str]]:
    """The non-blank lines of ``text`` with their line numbers, from 1."""
    return [(lineno, line) for lineno, line in enumerate(text.splitlines(), 1) if line.strip()]


_TRACE_PARSERS = (int, float, float, int, FearLevel.from_name, float, float)


def trace_from_csv(text: str, config: ScenarioConfig | None = None) -> Trace:
    """Rebuild a trace from its CSV form (for the validate command).

    A malformed row or collision comment is a ValueError naming its line.
    """
    lines = _numbered_lines(text)
    if not lines or lines[0][1] != TRACE_HEADER:
        raise ValueError(f"trace CSV must start with header {TRACE_HEADER!r}")
    collision = False
    collision_tick = None
    rows = []
    for lineno, line in lines[1:]:
        if line.startswith("#"):
            if "collision at tick" in line:
                collision = True
                collision_tick, = _csv_fields(line.rsplit(" ", 1)[1], (int,), ("collision tick",), lineno)
            continue
        rows.append(_csv_fields(line, _TRACE_PARSERS, TraceColumns._fields, lineno))
    columns = TraceColumns._make(map(tuple, zip(*rows))) if rows else TraceColumns(*[()] * 7)
    return Trace(config if config is not None else ScenarioConfig(), columns, collision, collision_tick)
