"""Invariant monitors: verdicts, evidence, and non-interference."""

import pytest
from hypothesis import given, settings, strategies as st

from fearsim.emotion import FearLevel
from fearsim.experiments import ComparisonRow, ComparisonTable
from fearsim.monitors import (
    Verdict,
    check_comparison_invariants,
    check_trace_invariants,
    reports_to_csv,
    summarize_reports,
)
from fearsim.sim import (ScenarioConfig, TickRecord, Trace, TraceColumns, WorldConfig, run_lockstep,
                         run_scenario, trace_to_csv)

LEVEL_DISPLAY = {
    FearLevel.VERY_LOW: 6,
    FearLevel.LOW: 26,
    FearLevel.MEDIUM: 49,
    FearLevel.HIGH: 66,
    FearLevel.VERY_HIGH: 76,
}


def synthetic_trace(rows):
    """rows: (gap, level) or (gap, level, bullet_speed) tuples."""
    records = []
    for tick, row in enumerate(rows):
        gap, level, *rest = row
        speed = rest[0] if rest else 10.0
        records.append(TickRecord(
            tick=tick, ssd=0.16, distance=gap,
            fear_display=LEVEL_DISPLAY[level], fear_level=level,
            bullet_speed=speed, target_speed=10.0,
        ))
    columns = TraceColumns._make(map(tuple, zip(*records))) if records else TraceColumns(*[()] * 7)
    return Trace(config=ScenarioConfig(), columns=columns)


def record_loop_reports(trace, threshold=3.0):
    """Inv1A and Inv1B walked record by record: the oracle for the column form."""
    rs = trace.records
    armed, evidence_a = False, []
    for r in rs:
        if r.distance < threshold:
            armed = True
            if r.fear_level not in (FearLevel.HIGH, FearLevel.VERY_HIGH):
                evidence_a.append((r.tick, f"gap={r.distance:.4f} fear={r.fear_level}({r.fear_display})"))
    windows, start = [], None
    for i in range(1, len(rs)):
        closing = rs[i].distance < rs[i - 1].distance and rs[i].bullet_speed >= rs[i - 1].bullet_speed
        if closing and start is None:
            start = i - 1
        elif not closing and start is not None:
            windows.append((start, i - 1))
            start = None
    if start is not None:
        windows.append((start, len(rs) - 1))
    evidence_b = [(rs[i].tick, f"display {rs[i - 1].fear_display}->{rs[i].fear_display} while gap "
                               f"{rs[i - 1].distance:.4f}->{rs[i].distance:.4f}")
                  for lo, hi in windows for i in range(lo + 1, hi + 1)
                  if rs[i].fear_display < rs[i - 1].fear_display]
    def verdict(evidence, armed):
        return Verdict.VIOLATED if evidence else Verdict.PASS if armed else Verdict.VACUOUS

    return [("Inv1A", verdict(evidence_a, armed), tuple(evidence_a), {"very_small_gap": threshold}),
            ("Inv1B", verdict(evidence_b, windows), tuple(evidence_b), {"windows": len(windows)})]


# Few distinct gaps and speeds, so equal neighbours (not closing) are common.
_rows = st.lists(st.tuples(st.sampled_from([0.5, 2.0, 2.9, 3.0, 4.0, 9.0]),
                           st.sampled_from(list(LEVEL_DISPLAY)),
                           st.sampled_from([10.0, 10.5, 11.0])), max_size=30)


@settings(max_examples=300, deadline=None)
@given(_rows)
def test_column_monitors_match_the_record_loop(rows):
    trace = synthetic_trace(rows)
    got = [(r.invariant_id, r.verdict, r.evidence, r.parameters) for r in check_trace_invariants(trace)]
    assert got == record_loop_reports(trace)


def test_column_monitors_match_the_record_loop_on_lockstep_runs():
    configs = [ScenarioConfig(ticks=200, separation=sep, phase_jitter_ticks=30, seed=seed,
                              undesirability=u, fear_threshold=thr)
               for sep in (1.0, 2.5, 6.0) for seed in range(4) for u, thr in ((1.0, 0.0), (0.5, 0.2))]
    for trace in run_lockstep(configs):
        got = [(r.invariant_id, r.verdict, r.evidence, r.parameters) for r in check_trace_invariants(trace)]
        assert got == record_loop_reports(trace)


# ---------------------------------------------------------------------------
# Inv1A
# ---------------------------------------------------------------------------

def test_inv1a_passes_when_close_gap_is_feared():
    trace = synthetic_trace([(2.9, FearLevel.HIGH), (2.5, FearLevel.VERY_HIGH)])
    report = check_trace_invariants(trace)[0]
    assert report.invariant_id == "Inv1A"
    assert report.verdict is Verdict.PASS
    assert report.evidence == ()


def test_inv1a_flags_low_fear_at_tiny_gap():
    trace = synthetic_trace([
        (5.0, FearLevel.MEDIUM),
        (0.5, FearLevel.VERY_LOW),   # violating tick 1
        (2.0, FearLevel.HIGH),
    ])
    report = check_trace_invariants(trace)[0]
    assert report.verdict is Verdict.VIOLATED
    assert [tick for tick, _ in report.evidence] == [1]


def test_inv1a_vacuous_when_gap_never_small():
    trace = synthetic_trace([(5.0, FearLevel.LOW), (9.0, FearLevel.VERY_LOW)])
    report = check_trace_invariants(trace)[0]
    assert report.verdict is Verdict.VACUOUS


def test_inv1a_threshold_is_configurable_and_recorded():
    trace = synthetic_trace([(5.0, FearLevel.LOW)])
    report = check_trace_invariants(trace, very_small_gap=6.0)[0]
    assert report.verdict is Verdict.VIOLATED
    assert report.parameters["very_small_gap"] == 6.0


@pytest.mark.parametrize("gap", [float("nan"), float("inf"), float("-inf"), 0, -0.0, -1])
def test_inv1a_rejects_a_gap_that_never_arms(gap):
    trace = synthetic_trace([(2.0, FearLevel.LOW)])
    with pytest.raises(ValueError, match=r"^very_small_gap=.* is not a finite gap above 0$"):
        check_trace_invariants(trace, very_small_gap=gap)


# ---------------------------------------------------------------------------
# Inv1B
# ---------------------------------------------------------------------------

def test_inv1b_passes_on_monotone_closing_witness():
    trace = synthetic_trace([
        (10.0, FearLevel.LOW),
        (9.0, FearLevel.LOW),
        (8.0, FearLevel.MEDIUM),
        (7.0, FearLevel.HIGH),
        (6.0, FearLevel.VERY_HIGH),
    ])
    report = check_trace_invariants(trace)[1]
    assert report.invariant_id == "Inv1B"
    assert report.verdict is Verdict.PASS


def test_inv1b_flags_display_drop_while_closing():
    trace = synthetic_trace([
        (10.0, FearLevel.MEDIUM),
        (9.0, FearLevel.HIGH),
        (8.0, FearLevel.LOW),     # drop at tick 2 inside a closing window
        (7.0, FearLevel.HIGH),
    ])
    report = check_trace_invariants(trace)[1]
    assert report.verdict is Verdict.VIOLATED
    assert [tick for tick, _ in report.evidence] == [2]


def test_inv1b_ignores_drops_while_gap_opens():
    trace = synthetic_trace([
        (5.0, FearLevel.HIGH),
        (6.0, FearLevel.MEDIUM),
        (7.0, FearLevel.LOW),
    ])
    report = check_trace_invariants(trace)[1]
    assert report.verdict is Verdict.VACUOUS


def test_inv1b_window_requires_non_decreasing_speed():
    # gap closes but the bullet is braking; the precondition never arms
    trace = synthetic_trace([
        (10.0, FearLevel.HIGH, 20.0),
        (9.0, FearLevel.MEDIUM, 19.0),
        (8.0, FearLevel.LOW, 18.0),
    ])
    report = check_trace_invariants(trace)[1]
    assert report.verdict is Verdict.VACUOUS


# The paper's rates and appraisal (accel 0.06, decel 0.03, undesirability
# = ig = 1, threshold 0) from a 30 mph floor.  The clip/max likelihood is
# not monotone in the gap, so while the gap closes at a constant speed the
# display chatters between 49 and 36, across the midpoint 42.5: Inv1B
# catches a weakness of the model with no planted fault.
_INV1B_WITNESS = ScenarioConfig(world=WorldConfig(min_velocity=30), separation=45, ticks=1000)


@pytest.mark.parametrize("runner", [run_scenario, lambda config: run_lockstep([config])[0]],
                         ids=["run_scenario", "run_lockstep"])
def test_the_papers_setting_violates_inv1b(runner):
    inv1a, inv1b = check_trace_invariants(runner(_INV1B_WITNESS))
    assert inv1a.verdict is Verdict.VACUOUS
    assert inv1b.verdict is Verdict.VIOLATED
    assert len(inv1b.evidence) == 6
    assert inv1b.evidence[0] == (352, "display 49->36 while gap 39.7565->39.7259")


def test_inv1b_violations_on_a_floor_and_separation_grid():
    # Only the longest runs reach the chattering gaps, at a 30 mph floor.
    for ticks, violated in ((100, []), (300, []),
                            (1000, [(30, 43, 0.03), (30, 43, 0.06), (30, 49, 0.03), (30, 49, 0.06)])):
        configs = [ScenarioConfig(world=WorldConfig(min_velocity=floor), separation=separation,
                                  bullet_decel=decel, ticks=ticks)
                   for floor in (10, 30, 50, 60, 70, 90) for separation in range(1, 50, 6)
                   for decel in (0.03, 0.06)]
        assert len(configs) == 108
        traces = run_lockstep(configs)
        assert not any(trace.collision for trace in traces)
        assert [(t.config.world.min_velocity, t.config.separation, t.config.bullet_decel)
                for t in traces if check_trace_invariants(t)[1].verdict is Verdict.VIOLATED] == violated


# ---------------------------------------------------------------------------
# comparison invariants
# ---------------------------------------------------------------------------

def comparison_table(rows):
    return ComparisonTable(tuple(
        ComparisonRow(speed, agent, human, kind, success, agent, human)
        for speed, agent, human, kind, success in rows
    ))


def test_inv2_passes_on_dominant_agent():
    table = comparison_table([(15.0, 31.73, 105.57, "rear_end", True)])
    reports = check_comparison_invariants(table)
    assert reports[0].invariant_id == "Inv2"
    assert reports[0].verdict is Verdict.PASS
    assert reports[1].verdict is Verdict.VACUOUS


def test_inv3_passes_on_dominant_agent():
    table = comparison_table([(25.0, 63.408, 85.0, "overtaking", True)])
    reports = check_comparison_invariants(table)
    assert reports[1].invariant_id == "Inv3"
    assert reports[1].verdict is Verdict.PASS


def test_inv2_flags_row_where_agent_needs_more():
    table = comparison_table([
        (15.0, 31.73, 105.57, "rear_end", True),
        (20.0, 120.0, 119.0, "rear_end", True),
    ])
    report = check_comparison_invariants(table)[0]
    assert report.verdict is Verdict.VIOLATED
    assert [idx for idx, _ in report.evidence] == [1]


def test_unsuccessful_rows_do_not_arm_the_invariant():
    table = comparison_table([(15.0, 200.0, 100.0, "rear_end", False)])
    report = check_comparison_invariants(table)[0]
    assert report.verdict is Verdict.VACUOUS


def test_empty_table_is_vacuous():
    reports = check_comparison_invariants(ComparisonTable(()))
    assert all(rep.verdict is Verdict.VACUOUS for rep in reports)


# ---------------------------------------------------------------------------
# overlay non-interference and reporting
# ---------------------------------------------------------------------------

def test_monitors_do_not_perturb_the_run():
    config = ScenarioConfig(ticks=150, separation=2.0)
    bare = trace_to_csv(run_scenario(config))
    monitored = run_scenario(config)
    check_trace_invariants(monitored)
    assert trace_to_csv(monitored) == bare


def test_report_csv_shape():
    trace = synthetic_trace([(0.5, FearLevel.VERY_LOW)])
    text = reports_to_csv(check_trace_invariants(trace))
    lines = text.splitlines()
    assert lines[0] == "invariant,verdict,evidence_count,first_evidence"
    assert lines[1].startswith("Inv1A,violated,1,")


def test_summary_mentions_each_invariant():
    trace = synthetic_trace([(0.5, FearLevel.VERY_LOW)])
    summary = summarize_reports(check_trace_invariants(trace))
    assert "Inv1A: violated" in summary
    assert "Inv1B:" in summary
