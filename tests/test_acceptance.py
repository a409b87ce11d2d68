"""Acceptance criteria, one test per criterion.

Each test prints a PASS line once its assertions hold (run with -s or -rA
to see them).  The two full behaviour sweeps are shared module fixtures so
the suite runs each exactly once.
"""

import time
from importlib import resources

import numpy as np
import pytest

from fearsim.configio import load_scenario_config, load_sweep_rows
from fearsim.emotion import (
    DISPLAY_PLATEAUS,
    EmotionInputs,
    FearLevel,
    classify_level,
    compute_likelihood,
    fear_intensity,
    fear_potential,
    likelihood_rulebase,
)
from fearsim.experiments import SweepSpec, compare_osd, compare_ssd, run_sweep
from fearsim.fuzzy import FuzzySet, TriangularMF, defuzzify_centroid, format_rules, parse_rules
from fearsim.monitors import Verdict, check_comparison_invariants, check_trace_invariants
from fearsim.sight import SsdParams, stopping_sight_distance, to_sim_units
from fearsim.sim import ScenarioConfig, TickRecord, Trace, TraceColumns, run_scenario, trace_to_csv


def _data_text(name):
    return resources.files("fearsim.data").joinpath(name).read_text(encoding="utf-8")


def _sweep_dataset(config_name):
    rows, settings = load_sweep_rows(_data_text(config_name), source=config_name)
    spec = SweepSpec(rows=tuple(rows), repetitions=settings["repetitions"],
                     ticks=settings["ticks"], base_seed=settings["base_seed"])
    start = time.perf_counter()
    dataset = run_sweep(spec)
    return dataset, time.perf_counter() - start


@pytest.fixture(scope="module")
def close_gap_sweep():
    return _sweep_dataset("sweep_close_gap.cfg")


@pytest.fixture(scope="module")
def spaced_gap_sweep():
    return _sweep_dataset("sweep_spaced_gap.cfg")


def test_criterion_1_ssd_column_replay():
    """Stopping distances at the four table speeds, scaled to sim units."""
    expected = {10: 0.16, 60: 3.83, 90: 8.34, 100: 10.23}
    for speed, want in expected.items():
        got = to_sim_units(stopping_sight_distance(SsdParams(speed, 0.4397, 11.2)))
        assert got == pytest.approx(want, abs=0.03), f"{speed} mph"
    print("ACCEPTANCE 1 (ssd column replay): PASS")


def test_criterion_2_stopping_comparison_reproduction():
    speeds = [15 + (50 - 15) * i / 11 for i in range(12)]
    start = time.perf_counter()
    table = compare_ssd(speeds)
    elapsed = time.perf_counter() - start
    assert len(table.rows) == 12
    endpoints = (
        (table.rows[0].agent_ft, 31.733),
        (table.rows[-1].agent_ft, 277.184),
        (table.rows[0].human_ft, 106.015),
        (table.rows[-1].human_ft, 524.790),
    )
    for got, want in endpoints:
        assert abs(got - want) / want <= 0.02, (got, want)
    inv2 = [r for r in check_comparison_invariants(table) if r.invariant_id == "Inv2"][0]
    assert inv2.verdict is Verdict.PASS
    for row in table.rows:
        assert row.agent_ft < row.human_ft
        assert row.success
    assert elapsed < 1.0
    print("ACCEPTANCE 2 (stopping comparison, 12 speeds): PASS")


def test_criterion_3_overtaking_comparison_reproduction():
    start = time.perf_counter()
    table = compare_osd([25.0, 50.0])
    elapsed = time.perf_counter() - start
    targets = (
        (table.rows[0].agent_ft, 63.408),
        (table.rows[0].human_ft, 85.0),
        (table.rows[1].agent_ft, 145.264),
        (table.rows[1].human_ft, 185.0),
    )
    for got, want in targets:
        assert abs(got - want) / want <= 0.02, (got, want)
    inv3 = [r for r in check_comparison_invariants(table) if r.invariant_id == "Inv3"][0]
    assert inv3.verdict is Verdict.PASS
    for row in table.rows:
        assert row.agent_ft < row.human_ft
        assert row.success
    assert elapsed < 1.0
    print("ACCEPTANCE 3 (overtaking comparison): PASS")


def _run_lengths(levels):
    runs = []
    for level in levels:
        if runs and runs[-1][0] is level:
            runs[-1][1] += 1
        else:
            runs.append([level, 1])
    return runs


def _contains_subsequence(sequence, pattern):
    it = iter(sequence)
    return all(any(item is want for item in it) for want in pattern)


def test_criterion_4_ordinal_fear_replay():
    """The close-gap low-speed replay walks High -> Medium -> High ->
    sustained VeryHigh, in that order."""
    config = load_scenario_config(_data_text("replay_close_gap_low_speed.cfg"))
    start = time.perf_counter()
    trace = run_scenario(config)
    elapsed = time.perf_counter() - start
    assert not trace.collision
    runs = _run_lengths([r.fear_level for r in trace.records])
    run_levels = [level for level, _ in runs]
    assert run_levels[0] is FearLevel.HIGH
    assert _contains_subsequence(
        run_levels, (FearLevel.HIGH, FearLevel.MEDIUM, FearLevel.HIGH, FearLevel.VERY_HIGH))
    vh_lengths = [n for level, n in runs if level is FearLevel.VERY_HIGH]
    assert vh_lengths and max(vh_lengths) >= 5, "VeryHigh must be sustained"
    assert runs[-1][0] is FearLevel.VERY_HIGH, "trace ends in the sustained VeryHigh phase"
    assert elapsed < 1.0
    print("ACCEPTANCE 4 (ordinal fear replay): PASS")


def _clipped_triangle_centroid(left, peak, right, clip):
    x1 = left + clip * (peak - left)
    x2 = right - clip * (right - peak)
    segments = []
    if x1 > left:
        segments.append((clip * (x1 - left) / 2.0, left + 2.0 * (x1 - left) / 3.0))
    if x2 > x1:
        segments.append((clip * (x2 - x1), (x1 + x2) / 2.0))
    if right > x2:
        segments.append((clip * (right - x2) / 2.0, x2 + (right - x2) / 3.0))
    mass = sum(m for m, _ in segments)
    return sum(m * c for m, c in segments) / mass


def test_criterion_5_fuzzy_property_suite():
    start = time.perf_counter()

    # membership degrees stay in [0, 1]
    rng = np.random.default_rng(123)
    for _ in range(2000):
        a, b, c = np.sort(rng.uniform(-1, 2, 3))
        x = rng.uniform(-1.5, 2.5)
        from fearsim.fuzzy import eval_trimf
        assert 0.0 <= eval_trimf(TriangularMF(a, b, c), float(x)) <= 1.0

    # centroid against the analytic integration oracle, 1000 random
    # clipped-triangle aggregates at 1e5 samples each
    xs = np.linspace(0.0, 1.0, 100_001)
    for _ in range(1000):
        a, b, c = np.sort(rng.uniform(0.0, 1.0, 3))
        if c - a < 1e-3:
            continue
        clip = rng.uniform(0.05, 1.0)
        samples = np.minimum(TriangularMF(a, b, c).sample(xs), clip)
        got = defuzzify_centroid(FuzzySet(0.0, 1.0, samples))
        want = _clipped_triangle_centroid(a, b, c, clip)
        assert abs(got - want) <= 1e-6, (a, b, c, clip)

    # ordinal monotonicity across the 25 term-peak pairs
    rb = likelihood_rulebase()
    d_peaks = [mf.peak for _, mf in rb.inputs[0].terms]
    s_peaks = [mf.peak for _, mf in rb.inputs[1].terms]
    table = [[compute_likelihood(d, s) for s in s_peaks] for d in d_peaks]
    for col in range(5):
        column = [table[row][col] for row in range(5)]
        assert all(b <= a + 1e-9 for a, b in zip(column, column[1:]))
    for row in range(5):
        assert all(b >= a - 1e-9 for a, b in zip(table[row], table[row][1:]))

    # rule-file round trip
    for name in ("likelihood.rules", "fear.rules"):
        parsed = parse_rules(_data_text(name))
        assert parse_rules(format_rules(parsed)) == parsed
    assert len(likelihood_rulebase().rules) == 25

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 5 (fuzzy property suite, {elapsed:.1f}s): PASS")


def test_criterion_6_pipeline_property_suite():
    start = time.perf_counter()

    # componentwise monotonicity of the fear potential on a 21^3 grid
    grid = np.linspace(0.0, 1.0, 21)
    values = np.empty((21, 21, 21))
    for i, u in enumerate(grid):
        for j, l in enumerate(grid):
            for k, g in enumerate(grid):
                values[i, j, k] = fear_potential(EmotionInputs(u, l, g))
    for axis in range(3):
        worst = float(np.diff(values, axis=axis).min())
        assert worst >= -1e-9, f"axis {axis} dips by {worst}"

    # the display plateau set is exactly the published seven values
    displays = {classify_level(i / 10_000.0)[1] for i in range(10_001)}
    assert displays == set(DISPLAY_PLATEAUS) == {6, 16, 26, 36, 49, 66, 76}

    # thresholding on 1e4 random pairs
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        potential = float(rng.uniform(0, 1))
        threshold = float(rng.uniform(0, 1))
        intensity = fear_intensity(potential, threshold)
        if potential > threshold:
            assert intensity == pytest.approx(potential - threshold)
        else:
            assert intensity == 0.0
        assert 0.0 <= intensity <= potential + 1e-12

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"ACCEPTANCE 6 (pipeline property suite, {elapsed:.1f}s): PASS")


def test_criterion_7_overlay_validation_suite(close_gap_sweep, spaced_gap_sweep):
    close_ds, close_time = close_gap_sweep
    spaced_ds, spaced_time = spaced_gap_sweep
    assert len(close_ds.runs) == 300
    assert len(spaced_ds.runs) == 250

    # no Inv1A / Inv1B violations anywhere in the 550 traces
    for dataset in (close_ds, spaced_ds):
        for run in dataset.runs:
            for report in run.reports:
                assert report.verdict is not Verdict.VIOLATED, (
                    run.row_index, run.repetition, report.invariant_id, report.evidence[:3])

    # each monitor flags a hand-built violating trace with the right ticks
    def record(tick, gap, level, display, speed=10.0):
        return TickRecord(tick, 0.16, gap, display, level, speed, 10.0)

    bad_1a = Trace(config=ScenarioConfig(), columns=TraceColumns(*zip(
        record(0, 5.0, FearLevel.MEDIUM, 49),
        record(1, 0.5, FearLevel.LOW, 26),
        record(2, 0.4, FearLevel.VERY_LOW, 6),
    )))
    report_1a = check_trace_invariants(bad_1a)[0]
    assert report_1a.verdict is Verdict.VIOLATED
    assert [tick for tick, _ in report_1a.evidence] == [1, 2]

    bad_1b = Trace(config=ScenarioConfig(), columns=TraceColumns(*zip(
        record(0, 10.0, FearLevel.MEDIUM, 49),
        record(1, 9.0, FearLevel.HIGH, 66),
        record(2, 8.0, FearLevel.MEDIUM, 49),
        record(3, 7.0, FearLevel.VERY_HIGH, 76),
    )))
    report_1b = check_trace_invariants(bad_1b)[1]
    assert report_1b.verdict is Verdict.VIOLATED
    assert [tick for tick, _ in report_1b.evidence] == [2]

    # overlay non-interference: a monitored run serializes identically to a bare one
    probe = ScenarioConfig(separation=1.0, ticks=100)
    bare_bytes = trace_to_csv(run_scenario(probe))
    monitored = run_scenario(probe)
    check_trace_invariants(monitored)
    assert trace_to_csv(monitored) == bare_bytes

    total = close_time + spaced_time
    assert total < 60.0, f"sweeps took {total:.1f}s"
    print(f"ACCEPTANCE 7 (overlay validation, 550 runs in {total:.1f}s): PASS")


def test_criterion_8_sweep_determinism():
    rows = (ScenarioConfig(separation=1.0, phase_jitter_ticks=9),
            ScenarioConfig(separation=9.0, phase_jitter_ticks=9))
    spec = SweepSpec(rows=rows, repetitions=5, ticks=60, base_seed=77)
    first = run_sweep(spec).serialize()
    second = run_sweep(spec).serialize()
    assert first == second
    print("ACCEPTANCE 8 (sweep determinism): PASS")
