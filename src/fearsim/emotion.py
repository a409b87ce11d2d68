"""Fear appraisal pipeline.

Per tick the simulator feeds normalized gap and speed into a 25-rule fuzzy
system producing an accident *likelihood*; a second, 125-rule system combines
likelihood with two scenario constants (*undesirability* of the accident and
the global significance *ig*) into a fear *potential*.  Potential above a
threshold becomes *intensity*, which quantizes onto seven display plateaus
and five named levels.

Both rule bases ship as plain-text rule files under ``fearsim/data``, and
the module-level helpers always use them.  A custom rule base goes through
``RuleBase.evaluate``, ``evaluate_additive`` or ``fearsim fuzzy-eval --rules``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .fuzzy import RuleBase, evaluate_additive, parse_rules

__all__ = [
    "FearLevel",
    "EmotionInputs",
    "DISPLAY_PLATEAUS",
    "compute_likelihood",
    "fear_potential",
    "fear_intensity",
    "classify_level",
    "likelihood_rulebase",
    "fear_rulebase",
    "generate_fear_rules",
]


class FearLevel(enum.Enum):
    VERY_LOW = "VeryLow"
    LOW = "Low"
    MEDIUM = "Medium"
    HIGH = "High"
    VERY_HIGH = "VeryHigh"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def from_name(cls, name: str) -> "FearLevel":
        try:
            return _LEVEL_BY_NAME[name]
        except KeyError:
            raise ValueError(f"unknown fear level {name!r}") from None


_LEVEL_BY_NAME = {level.value: level for level in FearLevel}


# The quantizer table: display plateau (on the 0..100 scale) and level per
# plateau index.  Seven plateaus for five levels: 16 and 36 are
# transitional blends between adjacent levels.
_PLATEAUS: tuple[tuple[FearLevel, int], ...] = (
    (FearLevel.VERY_LOW, 6),
    (FearLevel.VERY_LOW, 16),
    (FearLevel.LOW, 26),
    (FearLevel.LOW, 36),
    (FearLevel.MEDIUM, 49),
    (FearLevel.HIGH, 66),
    (FearLevel.VERY_HIGH, 76),
)
DISPLAY_PLATEAUS: tuple[int, ...] = tuple(display for _, display in _PLATEAUS)
# 100*intensity at or above midpoint i falls on plateau i+1 or higher, so
# the nearest plateau wins and ties go to the higher one:
# (11, 21, 31, 42.5, 57.5, 71).
_MIDPOINTS = np.array([(low + high) / 2
                       for low, high in zip(DISPLAY_PLATEAUS, DISPLAY_PLATEAUS[1:])])


@dataclass(frozen=True)
class EmotionInputs:
    """Appraisal variables, all on [0, 1].

    ``likelihood`` may be None in records meant for replay: the simulator
    then computes it per tick from gap and speed.
    """

    undesirability: float
    likelihood: float | None
    ig: float

    def __post_init__(self):
        for fname in ("undesirability", "ig"):
            v = getattr(self, fname)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{fname}={v} outside [0, 1]")
        if self.likelihood is not None and not 0.0 <= self.likelihood <= 1.0:
            raise ValueError(f"likelihood={self.likelihood} outside [0, 1]")


def _load_rules(filename: str) -> RuleBase:
    text = resources.files("fearsim.data").joinpath(filename).read_text(encoding="utf-8")
    return parse_rules(text)


@lru_cache(maxsize=None)
def likelihood_rulebase() -> RuleBase:
    """The shipped 25-rule distance/speed -> likelihood system."""
    return _load_rules("likelihood.rules")


@lru_cache(maxsize=None)
def fear_rulebase() -> RuleBase:
    """The shipped 125-rule undesirability/likelihood/ig -> fear system."""
    return _load_rules("fear.rules")


def compute_likelihood(distance_norm: float, speed_norm: float) -> float:
    """Accident likelihood in [0, 1] from normalized gap and speed.

    Inputs are raw gap divided by the world span and raw speed divided by
    the maximum velocity; both must already be in [0, 1].
    """
    return likelihood_rulebase().evaluate({"distance": distance_norm, "speed": speed_norm})


def fear_potential(inputs: EmotionInputs) -> float:
    """Fear potential in [0, 1]; monotone non-decreasing in each input.

    Uses the additive inference variant: clip/max inference is not
    monotone for multi-input systems (a middle consequent can fade out
    against the strength cap without transferring its mass), and the fear
    stage must respond monotonically to its appraisal inputs.
    """
    if inputs.likelihood is None:
        raise ValueError("fear_potential needs a concrete likelihood value")
    return evaluate_additive(fear_rulebase(), {
        "undesirability": inputs.undesirability,
        "likelihood": inputs.likelihood,
        "ig": inputs.ig,
    })


def fear_intensity(potential: float, threshold: float) -> float:
    """potential - threshold when the potential exceeds the threshold, else 0."""
    if not 0.0 <= potential <= 1.0:
        raise ValueError(f"potential={potential} outside [0, 1]")
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold={threshold} outside [0, 1]")
    return potential - threshold if potential > threshold else 0.0


def classify_level(intensity: float) -> tuple[FearLevel, int]:
    """Quantize an intensity in [0, 1] onto (level, display).

    The display is the plateau nearest to 100*intensity (ties resolve to
    the higher plateau); the level follows from the plateau.  This is
    ``_plateau_indices`` of one point at threshold 0.
    """
    if not 0.0 <= intensity <= 1.0:
        raise ValueError(f"intensity={intensity} outside [0, 1]")
    return _PLATEAUS[_plateau_indices(np.array([intensity]), 0.0)[0]]


def _plateau_indices(potential: np.ndarray, threshold: np.ndarray) -> np.ndarray:
    """``classify_level(fear_intensity(p, t))`` of many runs, as plateau indices.

    The thresholds are scenario constants, already checked to lie in
    [0, 1]; the potentials are checked here.
    """
    return _plateaus_with_slack(potential, threshold)[0]


# The midpoints between an edge below the lowest plateau and one above the
# highest: plateau i spans _EDGES[i] to _EDGES[i + 1].
_EDGES = np.array([-np.inf, *_MIDPOINTS, np.inf])


def _plateaus_with_slack(potential: np.ndarray, threshold) -> tuple[np.ndarray, np.ndarray]:
    """``_plateau_indices``, and how far each 100*intensity lies from the
    nearest midpoint."""
    outside = ~((potential >= 0.0) & (potential <= 1.0))
    if outside.any():
        raise ValueError(f"potential={potential[outside][0]} outside [0, 1]")
    scaled = 100.0 * np.where(potential > threshold, potential - threshold, 0.0)
    plateau = _MIDPOINTS.searchsorted(scaled, side="right")
    return plateau, np.minimum(scaled - _EDGES[plateau], _EDGES[plateau + 1] - scaled)


# ---------------------------------------------------------------------------
# Generator for the shipped fear rule file.
# ---------------------------------------------------------------------------

# Input partitions are strong (Ruspini): supports run peak to peak, so
# memberships sum to 1 everywhere and inference mass transfers smoothly
# between consequents as an input moves.  Interior peaks sit at the band
# midpoints; the end terms shoulder the domain edges.
_INPUT_BREAKPOINTS = (
    (0.0, 0.0, 0.3),
    (0.0, 0.3, 0.49),
    (0.3, 0.49, 0.705),
    (0.49, 0.705, 1.0),
    (0.705, 1.0, 1.0),
)

# Output terms keep the published five-band supports; their clipped
# centroids are what the display quantization is calibrated against.
_OUTPUT_BREAKPOINTS = (
    (0.0, 0.0, 0.24),
    (0.1, 0.3, 0.5),
    (0.25, 0.49, 0.73),
    (0.51, 0.705, 0.9),
    (0.76, 1.0, 1.0),
)

_U_TOKENS = ("VLU", "LU", "MU", "HU", "VHU")
_L_TOKENS = ("VLL", "LL", "ML", "HL", "VHL")
_IG_TOKENS = ("VLI", "LI", "MI", "HI", "VHI")
_F_TOKENS = ("VLF", "LF", "MF", "HF", "VHF")


def _half_up(x: float) -> int:
    return math.floor(x + 0.5)


def _fear_consequent_index(u_i: int, l_i: int, ig_i: int) -> int:
    """Consequent index for one antecedent cell of the fear table.

    Likelihood is the per-tick driver and carries unit slope; the two
    scenario constants shift the whole response curve.  A very-low
    undesirability antecedent floors the cell: no fear arises from a
    prospect that is not undesirable.
    """
    if u_i == 0:
        return 0
    idx = l_i + _half_up((u_i + ig_i) / 2.0) - 3
    return max(0, min(4, idx))


def generate_fear_rules() -> str:
    """The full 125-rule fear document; data/fear.rules is this, verbatim."""
    lines = [
        "# Fear potential from (undesirability, likelihood, ig), all on [0, 1].",
        "# Generated by fearsim.emotion.generate_fear_rules; edit via override files.",
        "rulebase fear_potential",
        "input undesirability 0 1",
        "input likelihood 0 1",
        "input ig 0 1",
        "output fear 0 1",
    ]
    for var, tokens, breakpoints in (
        ("undesirability", _U_TOKENS, _INPUT_BREAKPOINTS),
        ("likelihood", _L_TOKENS, _INPUT_BREAKPOINTS),
        ("ig", _IG_TOKENS, _INPUT_BREAKPOINTS),
        ("fear", _F_TOKENS, _OUTPUT_BREAKPOINTS),
    ):
        for token, (a, b, c) in zip(tokens, breakpoints):
            lines.append(f"term {var} {token} {a:g} {b:g} {c:g}")
    for u_i, u_tok in enumerate(_U_TOKENS):
        for l_i, l_tok in enumerate(_L_TOKENS):
            for ig_i, ig_tok in enumerate(_IG_TOKENS):
                f_tok = _F_TOKENS[_fear_consequent_index(u_i, l_i, ig_i)]
                lines.append(
                    f"IF undesirability IS {u_tok} AND likelihood IS {l_tok} "
                    f"AND ig IS {ig_tok} THEN fear IS {f_tok}"
                )
    return "\n".join(lines) + "\n"
