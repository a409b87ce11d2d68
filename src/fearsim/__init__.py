"""fearsim: fear-driven two-vehicle collision avoidance simulation.

A fuzzy appraisal pipeline (accident likelihood -> fear potential ->
intensity -> level) drives the braking decisions of a following vehicle;
overlay monitors validate invariants over simulation traces, and sweep /
comparison experiments reproduce the published behaviour studies.
"""

from .emotion import (
    EmotionInputs,
    FearLevel,
    classify_level,
    compute_likelihood,
    fear_intensity,
    fear_potential,
)
from .fuzzy import (
    FuzzyRule,
    LinguisticVariable,
    RuleBase,
    TriangularMF,
    parse_rules,
)
from .monitors import InvariantReport, Verdict, check_comparison_invariants, check_trace_invariants
from .sight import OsdParams, ReactionProfile, SsdParams, overtaking_sight_distance, stopping_sight_distance, to_sim_units
from .sim import ScenarioConfig, TickRecord, Trace, WorldConfig, import_simconnector, run_scenario

__version__ = "0.1.0"

__all__ = [
    "EmotionInputs", "FearLevel", "classify_level",
    "compute_likelihood", "fear_intensity", "fear_potential",
    "FuzzyRule", "LinguisticVariable", "RuleBase", "TriangularMF",
    "parse_rules",
    "InvariantReport", "Verdict",
    "check_comparison_invariants", "check_trace_invariants",
    "OsdParams", "ReactionProfile", "SsdParams",
    "overtaking_sight_distance", "stopping_sight_distance", "to_sim_units",
    "ScenarioConfig", "TickRecord", "Trace", "WorldConfig",
    "import_simconnector", "run_scenario",
    "__version__",
]
