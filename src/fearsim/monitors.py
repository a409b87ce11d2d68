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
from dataclasses import dataclass, field

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
    return [_check_inv1a(trace, float(very_small_gap)), _check_inv1b(trace)]


def _check_inv1a(trace: Trace, threshold: float) -> InvariantReport:
    armed = False
    evidence = []
    for r in trace.records:
        if r.distance < threshold:
            armed = True
            if r.fear_level not in (FearLevel.HIGH, FearLevel.VERY_HIGH):
                evidence.append((r.tick, f"gap={r.distance:.4f} fear={r.fear_level}({r.fear_display})"))
    return InvariantReport("Inv1A", _verdict(evidence, armed), tuple(evidence), {"very_small_gap": threshold})


def _closing_windows(trace: Trace) -> list[tuple[int, int]]:
    """Maximal index windows with strictly decreasing gap and non-decreasing bullet speed."""
    rs = trace.records
    windows = []
    start = None
    for i in range(1, len(rs)):
        closing = rs[i].distance < rs[i - 1].distance and rs[i].bullet_speed >= rs[i - 1].bullet_speed
        if closing and start is None:
            start = i - 1
        elif not closing and start is not None:
            windows.append((start, i - 1))
            start = None
    if start is not None:
        windows.append((start, len(rs) - 1))
    return windows


def _check_inv1b(trace: Trace) -> InvariantReport:
    windows = _closing_windows(trace)
    evidence = []
    for lo, hi in windows:
        for i in range(lo + 1, hi + 1):
            prev, cur = trace.records[i - 1], trace.records[i]
            if cur.fear_display < prev.fear_display:
                evidence.append((cur.tick, f"display {prev.fear_display}->{cur.fear_display} while gap "
                                           f"{prev.distance:.4f}->{cur.distance:.4f}"))
    return InvariantReport("Inv1B", _verdict(evidence, bool(windows)), tuple(evidence), {"windows": len(windows)})


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
