"""Stopping and overtaking sight distance calculators.

Distances are computed in feet; vehicle speed enters the stopping formula
in mph and the overtaking formula in ft/s.  ``to_sim_units`` converts feet
to simulation units at the default world scale of 100 feet per unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "MPH_TO_FPS",
    "FEET_PER_SIM_UNIT",
    "ReactionProfile",
    "AGENT_PROFILE",
    "HUMAN_PROFILE",
    "SsdParams",
    "OsdParams",
    "stopping_sight_distance",
    "overtaking_sight_distance",
    "to_sim_units",
]

MPH_TO_FPS = 1.46667
FEET_PER_SIM_UNIT = 100.0

DEFAULT_DECELERATION_FTPS2 = 11.2


@dataclass(frozen=True)
class ReactionProfile:
    """Named brake-reaction-time profile."""

    name: str
    reaction_time: float

    def __post_init__(self):
        if self.reaction_time <= 0:
            raise ValueError("reaction_time must be positive")


AGENT_PROFILE = ReactionProfile("eeec_agent", 0.4397)
HUMAN_PROFILE = ReactionProfile("human", 3.8085)

_PROFILES = {p.name: p for p in (AGENT_PROFILE, HUMAN_PROFILE)}


def profile_by_name(name: str) -> ReactionProfile:
    try:
        return _PROFILES[name]
    except KeyError:
        raise ValueError(f"unknown reaction profile {name!r}") from None


@dataclass(frozen=True)
class SsdParams:
    """Inputs to the stopping distance formula.

    speed_mph: design speed; reaction_time: seconds; deceleration:
    sustained braking rate in ft/s^2.
    """

    speed_mph: float
    reaction_time: float
    deceleration: float = DEFAULT_DECELERATION_FTPS2

    def __post_init__(self):
        if self.speed_mph < 0:
            raise ValueError("speed_mph must be non-negative")
        if self.reaction_time <= 0:
            raise ValueError("reaction_time must be positive")


@dataclass(frozen=True)
class OsdParams:
    """Inputs to the overtaking distance formula.

    speed_fps: overtaking vehicle velocity in ft/s; spacing: gap kept
    before and after the pass, feet; acceleration: peak rate available
    for the passing maneuver, ft/s^2.
    """

    speed_fps: float
    reaction_time: float
    spacing: float
    acceleration: float

    def __post_init__(self):
        if self.speed_fps < 0 or self.spacing < 0 or self.acceleration < 0:
            raise ValueError("overtaking parameters must be non-negative")
        if self.reaction_time <= 0:
            raise ValueError("reaction_time must be positive")
        if self.speed_fps > 0 and self.acceleration == 0:
            raise ValueError("acceleration must be positive for a moving overtaker")


def stopping_sight_distance(p: SsdParams) -> float:
    """Feet needed to stop: 1.47*V*t + 1.075*V^2/a with V in mph."""
    if p.deceleration <= 0:
        raise ZeroDivisionError("deceleration must be positive")
    return 1.47 * p.speed_mph * p.reaction_time + 1.075 * p.speed_mph ** 2 / p.deceleration


def overtaking_sight_distance(p: OsdParams) -> float:
    """Feet needed to overtake: Vb*t + 2s + Vb*sqrt(4s/a)."""
    if p.speed_fps == 0:
        return 2.0 * p.spacing
    return (
        p.speed_fps * p.reaction_time
        + 2.0 * p.spacing
        + p.speed_fps * math.sqrt(4.0 * p.spacing / p.acceleration)
    )


def to_sim_units(feet: float) -> float:
    """Convert a road distance in feet to simulation units (patches)."""
    if feet < 0:
        raise ValueError("feet must be non-negative")
    return feet / FEET_PER_SIM_UNIT
