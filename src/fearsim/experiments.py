"""Sweep runner and sight-distance comparison studies.

``run_sweep`` executes a grid of scenario rows with repetitions, all runs
advancing together one tick at a time and runs with the same dynamics
simulated once, attaches the overlay monitors to every distinct trace,
and aggregates summaries.
``compare_ssd`` / ``compare_osd`` build agent-vs-human comparison tables:
each row carries the closed-form distance for both profiles next to a
distance measured by integrating the avoidance maneuver kinematics, and a
success flag saying the simulated maneuver actually avoided contact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache as _cache

import numpy as np

from . import monitors
from .sight import (
    DEFAULT_DECELERATION_FTPS2,
    MPH_TO_FPS,
    OsdParams,
    ReactionProfile,
    SsdParams,
    AGENT_PROFILE,
    HUMAN_PROFILE,
    overtaking_sight_distance,
    stopping_sight_distance,
)
from .sim import ScenarioConfig, Trace, _csv_fields, _numbered_lines, run_lockstep, trace_to_csv
# Not called here: sweeps run in lock-step.  The name stays in this
# module's namespace because perfbench/tracer.py wraps it at this site.
from .sim import run_scenario  # noqa: F401

__all__ = [
    "SweepSpec",
    "RunResult",
    "SweepDataset",
    "run_sweep",
    "write_sweep_dir",
    "ComparisonRow",
    "ComparisonTable",
    "OsdCalibration",
    "default_osd_calibration",
    "compare_ssd",
    "compare_osd",
    "measured_stopping_distance",
    "measured_overtaking_distance",
]


# ---------------------------------------------------------------------------
# Behaviour-space sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    rows: tuple[ScenarioConfig, ...]
    repetitions: int = 50
    ticks: int = 100
    base_seed: int = 0

    def __post_init__(self):
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if self.ticks < 0:
            raise ValueError("ticks must be non-negative")


@dataclass(frozen=True)
class RunResult:
    row_index: int
    repetition: int
    seed: int
    trace: Trace
    mean_display: float
    min_gap: float
    reports: tuple[monitors.InvariantReport, ...]


@dataclass(frozen=True)
class SweepDataset:
    spec: SweepSpec
    runs: tuple[RunResult, ...]

    def all_ok(self) -> bool:
        return all(rep.ok for run in self.runs for rep in run.reports)

    def serialize(self) -> bytes:
        """Canonical byte form of the whole dataset, for determinism checks."""
        parts = []
        for run, csv in zip(self.runs, _trace_csvs(self.runs)):
            parts.append(f"## run {run.row_index} {run.repetition} seed={run.seed}\n")
            parts.append(csv)
            parts.append(f"mean_display={run.mean_display!r} min_gap={run.min_gap!r}\n")
            for rep in run.reports:
                parts.append(f"{rep.invariant_id}={rep.verdict}\n")
        return "".join(parts).encode()

    def aggregate_csv(self) -> str:
        lines = ["row,repetition,seed,ticks,mean_display,min_gap,collision"]
        for run in self.runs:
            lines.append(
                f"{run.row_index},{run.repetition},{run.seed},{len(run.trace.columns.tick)},"
                f"{run.mean_display!r},{run.min_gap!r},{str(run.trace.collision).lower()}"
            )
        return "\n".join(lines) + "\n"

    def invariants_csv(self) -> str:
        lines = ["row,repetition,invariant,verdict,evidence_count"]
        for run in self.runs:
            for rep in run.reports:
                lines.append(f"{run.row_index},{run.repetition},{rep.invariant_id},"
                             f"{rep.verdict},{len(rep.evidence)}")
        return "\n".join(lines) + "\n"


def _trace_csvs(runs):
    """``trace_to_csv`` of each run's trace, formatting traces that share columns once."""
    texts = {}
    for run in runs:
        trace = run.trace
        key = (id(trace.columns), trace.collision, trace.collision_tick)
        if key not in texts:
            texts[key] = trace_to_csv(trace)
        yield texts[key]


def run_sweep(spec: SweepSpec, very_small_gap: float = monitors.DEFAULT_VERY_SMALL_GAP) -> SweepDataset:
    """Run rows x repetitions, monitored; deterministic for a base seed.

    Every row, and ``very_small_gap``, is validated up front so a bad one
    rejects the whole sweep before any run starts.  Run seeds are
    base_seed + flat index, so the dataset is reproducible byte for byte.
    The runs advance together in lock-step (``sim.run_lockstep``), with
    the traces ``run_scenario`` gives.

    Runs whose configs differ only in the seed and draw the same phase
    offset (every repetition of a row without jitter) are simulated and
    monitored once; each gets a ``Trace`` with its own config over the
    shared columns.
    """
    very_small_gap = monitors._arming_gap(very_small_gap)
    configs = []
    firsts = {}  # dynamics key -> the first config with it
    for row_index, row in enumerate(spec.rows):
        # By repr, not ==: 0.0 == -0.0, but a -0.0 floor speed is
        # recorded as such.
        dynamics = repr(replace(row, ticks=spec.ticks, seed=0))
        for repetition in range(spec.repetitions):
            index = row_index * spec.repetitions + repetition
            config = replace(row, ticks=spec.ticks, seed=spec.base_seed + index)
            key = (dynamics, config.phase_offset())
            firsts.setdefault(key, config)
            configs.append((row_index, repetition, config, key))
    shared = {}
    for key, trace in zip(firsts, run_lockstep(list(firsts.values()))):
        displays, gaps = trace.columns.fear_display, trace.columns.distance
        shared[key] = (trace, tuple(monitors.check_trace_invariants(trace, very_small_gap)),
                       sum(displays) / len(displays) if displays else 0.0,
                       min(gaps) if gaps else float("nan"))
    runs = []
    for row_index, repetition, config, key in configs:
        trace, reports, mean_display, min_gap = shared[key]
        runs.append(RunResult(
            row_index=row_index,
            repetition=repetition,
            seed=config.seed,
            trace=replace(trace, config=config),
            mean_display=mean_display,
            min_gap=min_gap,
            reports=reports,
        ))
    return SweepDataset(spec=spec, runs=tuple(runs))


def write_sweep_dir(dataset: SweepDataset, out_dir) -> None:
    """Export per-run trace CSVs plus aggregate.csv and invariants.csv."""
    from .configio import atomic_write  # local import avoids a cycle
    import os

    os.makedirs(out_dir, exist_ok=True)
    for run, csv in zip(dataset.runs, _trace_csvs(dataset.runs)):
        path = os.path.join(out_dir, f"run_{run.row_index:02d}_{run.repetition:03d}.csv")
        atomic_write(path, csv)
    atomic_write(os.path.join(out_dir, "aggregate.csv"), dataset.aggregate_csv())
    atomic_write(os.path.join(out_dir, "invariants.csv"), dataset.invariants_csv())


# ---------------------------------------------------------------------------
# Sight-distance comparison studies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonRow:
    speed_mph: float
    agent_ft: float
    human_ft: float
    kind: str
    success: bool
    agent_measured_ft: float
    human_measured_ft: float


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[ComparisonRow, ...]

    def __post_init__(self):
        speeds = [r.speed_mph for r in self.rows]
        if any(b <= a for a, b in zip(speeds, speeds[1:])):
            raise ValueError("comparison table speeds must be strictly increasing")

    def to_csv(self) -> str:
        lines = [_TABLE_HEADER]
        for r in self.rows:
            lines.append(f"{r.speed_mph!r},{r.agent_ft!r},{r.human_ft!r},{r.kind},"
                         f"{str(r.success).lower()},{r.agent_measured_ft!r},{r.human_measured_ft!r}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "ComparisonTable":
        """Rebuild a table from ``to_csv``; a malformed row is a ValueError naming its line."""
        lines = _numbered_lines(text)
        if not lines or lines[0][1] != _TABLE_HEADER:
            raise ValueError("not a comparison table CSV")
        names = _TABLE_HEADER.split(",")
        return cls(tuple(ComparisonRow(*_csv_fields(line, _TABLE_PARSERS, names, lineno))
                         for lineno, line in lines[1:]))


def _parse_success(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


_TABLE_HEADER = "speed_mph,agent_ft,human_ft,kind,success,agent_measured_ft,human_measured_ft"
_TABLE_PARSERS = (float, float, float, str, _parse_success, float, float)


_DT = 1e-3  # integration step of the measured distances, seconds


def measured_stopping_distance(speed_mph: float, reaction_time: float,
                               deceleration: float = DEFAULT_DECELERATION_FTPS2) -> float:
    """Stopping distance in feet from explicit kinematic integration.

    Independent of the closed-form expression: travel at speed for the
    reaction time, then Euler-integrate constant braking until standstill.
    The steps of ``v = max(0, v - deceleration*dt)``, ``d += v*dt`` are
    taken with ``np.cumsum``, which adds in sequence, so every partial sum
    is the step-by-step loop's.
    """
    if deceleration <= 0:
        raise ValueError("deceleration must be positive")
    v = speed_mph * MPH_TO_FPS
    if not v > 0:
        return v * reaction_time
    steps = int(v / (deceleration * _DT)) + 2
    while True:
        speeds = np.cumsum(np.concatenate(([v], np.full(steps, -(deceleration * _DT)))))[1:]
        stopped = np.flatnonzero(speeds <= 0)
        if stopped.size:
            break
        steps *= 2
    speeds = speeds[:stopped[0] + 1]
    speeds[-1] = 0.0  # the step that reaches zero is clamped to standstill
    return float(np.cumsum(np.concatenate(([v * reaction_time], speeds * _DT)))[-1])


def measured_overtaking_distance(speed_mph: float, reaction_time: float,
                                 spacing: float, acceleration: float) -> float:
    """Overtaking distance in feet from explicit kinematic integration.

    Reaction travel, then the passing maneuver: time to cover twice the
    spacing under constant acceleration from rest, during which the
    overtaker keeps rolling at its own speed.  The Euler steps are
    sequential sums (``np.cumsum``), as in ``measured_stopping_distance``.
    """
    v = speed_mph * MPH_TO_FPS
    distance = v * reaction_time + 2.0 * spacing
    if spacing <= 0:
        return distance  # nothing to pass
    if acceleration <= 0:
        raise ValueError("acceleration must be positive")
    steps = int(math.sqrt(4.0 * spacing / acceleration) / _DT) + 2
    while True:
        lateral_v = np.cumsum(np.full(steps, acceleration * _DT))
        covered = np.flatnonzero(np.cumsum(lateral_v * _DT) >= 2.0 * spacing)
        if covered.size:
            break
        steps *= 2
    return float(np.cumsum(np.concatenate(([distance], np.full(covered[0] + 1, v * _DT))))[-1])


def compare_ssd(speeds_mph: list[float],
                profiles: tuple[ReactionProfile, ReactionProfile] = (AGENT_PROFILE, HUMAN_PROFILE)) -> ComparisonTable:
    """Agent-vs-human stopping distance per speed, formula beside measurement.

    A row is successful when the integrated braking maneuver stops within
    a small tolerance of the closed-form distance for both profiles.
    """
    if not speeds_mph:
        raise ValueError("speeds must be non-empty")
    agent, human = profiles
    rows = []
    for v in speeds_mph:
        agent_ft = stopping_sight_distance(SsdParams(v, agent.reaction_time))
        human_ft = stopping_sight_distance(SsdParams(v, human.reaction_time))
        agent_measured = measured_stopping_distance(v, agent.reaction_time)
        human_measured = measured_stopping_distance(v, human.reaction_time)
        success = (_close(agent_measured, agent_ft) and _close(human_measured, human_ft))
        rows.append(ComparisonRow(v, agent_ft, human_ft, "rear_end", success,
                                  agent_measured, human_measured))
    return ComparisonTable(tuple(rows))


def _close(measured: float, formula: float, rel: float = 0.02) -> bool:
    return abs(measured - formula) <= rel * max(formula, 1e-9)


@dataclass(frozen=True)
class OsdCalibration:
    """Per-profile overtaking parameters fitted to the published chart.

    ``anchors`` maps a profile name to (speed_mph, spacing_ft, accel)
    rows; spacing and acceleration interpolate linearly between anchor
    speeds and clamp beyond them.  ``reaction_time`` overrides the
    profile's brake reaction constant inside the overtaking formula.
    """

    reaction_time: dict[str, float] = field(default_factory=dict)
    anchors: dict[str, tuple[tuple[float, float, float], ...]] = field(default_factory=dict)

    def params_for(self, profile: ReactionProfile, speed_mph: float) -> OsdParams:
        t = self.reaction_time.get(profile.name, profile.reaction_time)
        rows = self.anchors.get(profile.name)
        if not rows:
            raise ValueError(f"no overtaking calibration for profile {profile.name!r}")
        spacing = _interp(speed_mph, [(s, sp) for s, sp, _ in rows])
        accel = _interp(speed_mph, [(s, a) for s, _, a in rows])
        return OsdParams(speed_fps=speed_mph * MPH_TO_FPS, reaction_time=t,
                         spacing=spacing, acceleration=accel)


def _interp(x: float, points: list[tuple[float, float]]) -> float:
    points = sorted(points)
    if x <= points[0][0]:
        return points[0][1]
    if x >= points[-1][0]:
        return points[-1][1]
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 <= x <= x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise AssertionError("unreachable")


@_cache
def default_osd_calibration() -> OsdCalibration:
    """The calibration shipped in data/calibration.cfg (cached)."""
    from importlib import resources
    from .configio import load_osd_calibration_doc

    text = resources.files("fearsim.data").joinpath("calibration.cfg").read_text(encoding="utf-8")
    return load_osd_calibration_doc(text, source="data/calibration.cfg")


def compare_osd(speeds_mph: list[float],
                profiles: tuple[ReactionProfile, ReactionProfile] = (AGENT_PROFILE, HUMAN_PROFILE),
                calibration: OsdCalibration | None = None) -> ComparisonTable:
    """Agent-vs-human overtaking distance per speed, formula beside measurement."""
    if not speeds_mph:
        raise ValueError("speeds must be non-empty")
    if calibration is None:
        calibration = default_osd_calibration()
    agent, human = profiles
    rows = []
    for v in speeds_mph:
        pa = calibration.params_for(agent, v)
        ph = calibration.params_for(human, v)
        agent_ft = overtaking_sight_distance(pa)
        human_ft = overtaking_sight_distance(ph)
        agent_measured = measured_overtaking_distance(v, pa.reaction_time, pa.spacing, pa.acceleration)
        human_measured = measured_overtaking_distance(v, ph.reaction_time, ph.spacing, ph.acceleration)
        success = (_close(agent_measured, agent_ft) and _close(human_measured, human_ft))
        rows.append(ComparisonRow(v, agent_ft, human_ft, "overtaking", success,
                                  agent_measured, human_measured))
    return ComparisonTable(tuple(rows))
