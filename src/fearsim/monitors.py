"""Overlay invariant monitors.

Monitors are pure functions over completed traces and comparison tables:
they never mutate what they observe, so attaching them cannot perturb a
run.  Each invariant is a precondition/postcondition pair; a report says
whether the postcondition held everywhere the precondition armed, and a
``vacuous`` verdict records that the precondition never armed at all.

Invariants:

* Inv1A  - whenever the gap is very small, fear is High or VeryHigh.
* Inv1B  - while the gap strictly shrinks (bullet not slowing), the fear
           display never drops.
* Inv2   - on successful rear-end rows, the agent's stopping distance is
           smaller than the human's.
* Inv3   - same dominance for overtaking distances.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from operator import gt

from .emotion import FearLevel
from .sim import Trace

__all__ = [
    "Verdict",
    "InvariantReport",
    "check_trace_invariants",
    "check_comparison_invariants",
    "reports_to_csv",
    "summarize_reports",
]

DEFAULT_VERY_SMALL_GAP = 3.0  # sim units


class Verdict(enum.Enum):
    PASS = "pass"
    VIOLATED = "violated"
    VACUOUS = "vacuous"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class InvariantReport:
    invariant_id: str
    verdict: Verdict
    evidence: tuple[tuple[int, str], ...]   # (tick or row index, observation)
    parameters: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict is not Verdict.VIOLATED


def _verdict(evidence: list, armed: bool) -> Verdict:
    return Verdict.VIOLATED if evidence else (Verdict.PASS if armed else Verdict.VACUOUS)


def check_trace_invariants(trace: Trace,
                           very_small_gap: float = DEFAULT_VERY_SMALL_GAP) -> list[InvariantReport]:
    """Reports for Inv1A and Inv1B, in that order."""
    return [_check_inv1a(trace, _arming_gap(very_small_gap)), _check_inv1b(trace)]


def _arming_gap(very_small_gap: float) -> float:
    """Inv1A's arming gap as a float; nan or a gap of 0 or less would never arm it."""
    gap = float(very_small_gap)
    if not (math.isfinite(gap) and gap > 0):
        raise ValueError(f"very_small_gap={very_small_gap!r} is not a finite gap above 0")
    return gap


def _check_inv1a(trace: Trace, threshold: float) -> InvariantReport:
    c = trace.columns
    armed = [i for i, gap in enumerate(c.distance) if gap < threshold]
    evidence = [(c.tick[i], f"gap={c.distance[i]:.4f} fear={c.fear_level[i]}({c.fear_display[i]})")
                for i in armed if c.fear_level[i] not in (FearLevel.HIGH, FearLevel.VERY_HIGH)]
    return InvariantReport("Inv1A", _verdict(evidence, bool(armed)), tuple(evidence),
                           {"very_small_gap": threshold})


def _check_inv1b(trace: Trace) -> InvariantReport:
    """Closing steps: the gap strictly shrinks and the bullet speed does not drop.

    A window is a maximal run of consecutive closing steps.
    """
    c = trace.columns
    gap, speed, display = c.distance, c.bullet_speed, c.fear_display
    closing = [g1 < g0 and s1 >= s0 for g0, g1, s0, s1 in zip(gap, gap[1:], speed, speed[1:])]
    windows = sum(map(gt, closing, [False, *closing]))  # closing steps after a non-closing one
    evidence = [(c.tick[i + 1], f"display {display[i]}->{display[i + 1]} while gap "
                                f"{gap[i]:.4f}->{gap[i + 1]:.4f}")
                for i, step in enumerate(closing) if step and display[i + 1] < display[i]]
    return InvariantReport("Inv1B", _verdict(evidence, bool(windows)), tuple(evidence), {"windows": windows})


def check_comparison_invariants(table) -> list[InvariantReport]:
    """Reports for Inv2 (rear_end rows) and Inv3 (overtaking rows), in that order.

    Rows whose success flag is false are outside the precondition.
    """
    return [_check_dominance(table, "Inv2", "rear_end"), _check_dominance(table, "Inv3", "overtaking")]


def _check_dominance(table, invariant_id: str, kind: str) -> InvariantReport:
    armed = False
    evidence = []
    for idx, row in enumerate(table.rows):
        if row.kind != kind or not row.success:
            continue
        armed = True
        if not row.agent_ft < row.human_ft:
            evidence.append((idx, f"speed={row.speed_mph} agent={row.agent_ft:.3f} human={row.human_ft:.3f}"))
    return InvariantReport(invariant_id, _verdict(evidence, armed), tuple(evidence))


def reports_to_csv(reports: list[InvariantReport]) -> str:
    lines = ["invariant,verdict,evidence_count,first_evidence"]
    for rep in reports:
        first = rep.evidence[0] if rep.evidence else ""
        first_text = f"tick {first[0]}: {first[1]}" if first else ""
        lines.append(f'{rep.invariant_id},{rep.verdict},{len(rep.evidence)},"{first_text}"')
    return "\n".join(lines) + "\n"


def summarize_reports(reports: list[InvariantReport]) -> str:
    lines = []
    for rep in reports:
        lines.append(f"{rep.invariant_id}: {rep.verdict}")
        for idx, obs in rep.evidence[:5]:
            lines.append(f"  at {idx}: {obs}")
        if len(rep.evidence) > 5:
            lines.append(f"  ... {len(rep.evidence) - 5} more")
    return "\n".join(lines)
