"""Sweeps and sight-distance comparison studies."""

import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from fearsim.experiments import (
    ComparisonRow,
    ComparisonTable,
    OsdCalibration,
    SweepSpec,
    compare_osd,
    compare_ssd,
    default_osd_calibration,
    measured_overtaking_distance,
    measured_stopping_distance,
    run_sweep,
    write_sweep_dir,
)
from fearsim.emotion import EmotionInputs
from fearsim.monitors import Verdict
from fearsim.sight import AGENT_PROFILE, HUMAN_PROFILE, SsdParams, stopping_sight_distance
from fearsim.sim import ScenarioConfig, WorldConfig, run_scenario, trace_to_csv


def small_spec(rows=2, reps=3, ticks=40, base_seed=11):
    scenario_rows = tuple(
        ScenarioConfig(separation=1.0 + 2.0 * i, phase_jitter_ticks=10)
        for i in range(rows)
    )
    return SweepSpec(rows=scenario_rows, repetitions=reps, ticks=ticks, base_seed=base_seed)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_cardinality_is_rows_times_repetitions():
    dataset = run_sweep(small_spec(rows=3, reps=4))
    assert len(dataset.runs) == 12


def test_sweep_seeds_are_base_plus_index():
    dataset = run_sweep(small_spec(rows=2, reps=2, base_seed=100))
    assert [run.seed for run in dataset.runs] == [100, 101, 102, 103]


def test_sweep_determinism_bytes():
    spec = small_spec()
    assert run_sweep(spec).serialize() == run_sweep(spec).serialize()


def test_empty_spec_gives_empty_dataset():
    dataset = run_sweep(SweepSpec(rows=(), repetitions=5))
    assert dataset.runs == ()
    assert dataset.all_ok()


def test_sweep_rejects_bad_repetitions():
    with pytest.raises(ValueError):
        SweepSpec(rows=(ScenarioConfig(),), repetitions=0)


def test_sweep_attaches_reports_per_run():
    dataset = run_sweep(small_spec(rows=1, reps=2))
    for run in dataset.runs:
        assert {rep.invariant_id for rep in run.reports} == {"Inv1A", "Inv1B"}


def test_sweep_passes_very_small_gap_to_the_monitors():
    spec = SweepSpec(rows=(ScenarioConfig(separation=9.0),), repetitions=1, ticks=40)
    default = run_sweep(spec).runs[0].reports[0]
    wide = run_sweep(spec, very_small_gap=100.0).runs[0].reports[0]
    assert default.verdict is Verdict.VACUOUS
    assert wide.verdict is not Verdict.VACUOUS
    assert wide.parameters["very_small_gap"] == 100.0


def test_sweep_aggregates_recomputable_from_traces():
    dataset = run_sweep(small_spec(rows=1, reps=1))
    run = dataset.runs[0]
    displays = [r.fear_display for r in run.trace.records]
    gaps = [r.distance for r in run.trace.records]
    assert run.mean_display == pytest.approx(sum(displays) / len(displays))
    assert run.min_gap == pytest.approx(min(gaps))


def test_sweep_export_writes_all_files(tmp_path):
    dataset = run_sweep(small_spec(rows=2, reps=2))
    out = tmp_path / "dataset"
    write_sweep_dir(dataset, out)
    names = sorted(p.name for p in out.iterdir())
    assert "aggregate.csv" in names
    assert "invariants.csv" in names
    assert sum(1 for n in names if n.startswith("run_")) == 4


# ---------------------------------------------------------------------------
# lock-step sweeps against the scalar run
# ---------------------------------------------------------------------------

def assert_sweep_matches_scalar_runs(spec):
    """Every run of the sweep has the trace run_scenario gives its config."""
    dataset = run_sweep(spec)
    assert len(dataset.runs) == len(spec.rows) * spec.repetitions
    for run in dataset.runs:
        config = replace(spec.rows[run.row_index], ticks=spec.ticks, seed=run.seed)
        scalar = run_scenario(config)
        assert trace_to_csv(run.trace) == trace_to_csv(scalar)
        assert (run.trace.collision, run.trace.collision_tick) == \
            (scalar.collision, scalar.collision_tick)
    return dataset


_unit = st.floats(0.0, 1.0)
_records = st.builds(EmotionInputs, _unit, st.one_of(st.none(), _unit), _unit)


@st.composite
def worlds(draw):
    min_velocity = draw(st.floats(0.0, 60.0))
    half = draw(st.floats(1.0, 40.0))
    return WorldConfig(
        extent=(-half, draw(st.floats(1.0, 40.0))),
        patch_scale=draw(st.sampled_from([50.0, 100.0, 250.0])),
        tick_seconds=draw(st.sampled_from([0.1, 0.5, 1.0, 2.0, 10.0])),
        min_velocity=min_velocity,
        max_velocity=max(min_velocity + draw(st.floats(0.0, 60.0)), 1.0),
    )


@st.composite
def rows(draw):
    return ScenarioConfig(
        world=draw(worlds()),
        kind=draw(st.sampled_from(["rear_end", "overtaking"])),
        separation=draw(st.floats(0.01, 12.0)),
        eeec_agent_enabled=draw(st.booleans()),
        bullet_accel=draw(st.floats(0.0, 2.0)),
        bullet_decel=draw(st.floats(0.0, 2.0)),
        target_accel=draw(st.floats(0.0, 2.0)),
        target_decel=draw(st.floats(0.0, 2.0)),
        target_phase_ticks=draw(st.integers(1, 40)),
        phase_jitter_ticks=draw(st.integers(0, 30)),
        undesirability=draw(_unit),
        ig=draw(_unit),
        fear_threshold=draw(_unit),
        reaction_profile=draw(st.sampled_from(["eeec_agent", "human"])),
        osd_spacing=draw(st.floats(0.0, 20.0)),
        osd_accel=draw(st.floats(0.5, 30.0)),
        emotion_records=draw(st.one_of(st.none(), st.just(()),
                                       st.lists(_records, min_size=1, max_size=8).map(tuple))),
    )


@settings(max_examples=60, deadline=None)
@given(st.builds(SweepSpec, rows=st.lists(rows(), min_size=1, max_size=4).map(tuple),
                 repetitions=st.integers(1, 4), ticks=st.integers(0, 50),
                 base_seed=st.integers(0, 10**6)))
@example(SweepSpec(rows=(ScenarioConfig(), ScenarioConfig(kind="overtaking")),
                   repetitions=2, ticks=0))
def test_lockstep_sweep_matches_scalar_runs(spec):
    assert_sweep_matches_scalar_runs(spec)


def test_lockstep_sweep_across_a_group_boundary():
    """300 runs: one full group of 256 and a second one, with collisions.

    Most rows run without the controller, so the bullet speeds up every
    tick and the ssd column holds thousands of distinct speeds: about one
    in 1,300 gives a different last bit when ``v ** 2`` is taken with
    numpy instead of Python's float power.
    """
    rng = random.Random(7)
    scenario_rows = tuple(
        ScenarioConfig(
            world=WorldConfig(min_velocity=rng.uniform(5.0, 40.0), tick_seconds=rng.choice([0.5, 2.0])),
            kind=rng.choice(["rear_end", "rear_end", "overtaking"]),
            separation=rng.uniform(0.3, 6.0),
            eeec_agent_enabled=rng.random() < 0.2,
            bullet_accel=rng.uniform(0.02, 0.4),
            bullet_decel=rng.uniform(0.02, 0.4),
            target_accel=rng.uniform(0.0, 0.3),
            target_decel=rng.uniform(0.0, 0.3),
            target_phase_ticks=rng.randrange(3, 30),
            phase_jitter_ticks=rng.randrange(0, 20),
            fear_threshold=rng.choice([0.0, 0.05]),
        )
        for _ in range(300)
    )
    dataset = assert_sweep_matches_scalar_runs(
        SweepSpec(rows=scenario_rows, repetitions=1, ticks=40, base_seed=3))
    assert 0 < sum(run.trace.collision for run in dataset.runs) < 300


# ---------------------------------------------------------------------------
# stopping distance comparison
# ---------------------------------------------------------------------------

def test_compare_ssd_matches_formula_columns():
    table = compare_ssd([15.0, 30.0])
    for row in table.rows:
        assert row.agent_ft == pytest.approx(
            stopping_sight_distance(SsdParams(row.speed_mph, AGENT_PROFILE.reaction_time)))
        assert row.human_ft == pytest.approx(
            stopping_sight_distance(SsdParams(row.speed_mph, HUMAN_PROFILE.reaction_time)))
        assert row.kind == "rear_end"


def test_compare_ssd_measured_column_verifies_formula():
    table = compare_ssd([20.0, 45.0])
    for row in table.rows:
        assert row.success
        assert row.agent_measured_ft == pytest.approx(row.agent_ft, rel=0.01)
        assert row.human_measured_ft == pytest.approx(row.human_ft, rel=0.01)


def test_compare_ssd_identical_profiles_identical_columns():
    table = compare_ssd([15.0, 25.0], profiles=(AGENT_PROFILE, AGENT_PROFILE))
    for row in table.rows:
        assert row.agent_ft == row.human_ft


def test_compare_ssd_rejects_empty_speed_list():
    with pytest.raises(ValueError):
        compare_ssd([])


def test_measured_stopping_distance_close_to_formula():
    # explicit Euler integration against the closed form, sub-percent
    measured = measured_stopping_distance(40.0, 0.4397, 11.2)
    formula = stopping_sight_distance(SsdParams(40.0, 0.4397, 11.2))
    assert measured == pytest.approx(formula, rel=0.005)


# ---------------------------------------------------------------------------
# overtaking distance comparison
# ---------------------------------------------------------------------------

def test_compare_osd_hits_calibrated_anchor_values():
    table = compare_osd([25.0, 50.0])
    assert table.rows[0].agent_ft == pytest.approx(63.408, rel=1e-9)
    assert table.rows[0].human_ft == pytest.approx(85.0, rel=1e-9)
    assert table.rows[1].agent_ft == pytest.approx(145.264, rel=1e-9)
    assert table.rows[1].human_ft == pytest.approx(185.0, rel=1e-9)
    assert all(row.kind == "overtaking" for row in table.rows)


def test_compare_osd_measured_column_verifies_formula():
    table = compare_osd([25.0, 37.5, 50.0])
    for row in table.rows:
        assert row.success
        assert row.agent_measured_ft == pytest.approx(row.agent_ft, rel=0.01)


def test_compare_osd_interpolates_between_anchors():
    lo, mid, hi = compare_osd([25.0, 37.5, 50.0]).rows
    assert lo.agent_ft < mid.agent_ft < hi.agent_ft
    assert mid.agent_ft < mid.human_ft


def test_compare_osd_identical_profiles_identical_columns():
    calibration = default_osd_calibration()
    anchors = dict(calibration.anchors)
    anchors["human"] = anchors["eeec_agent"]
    same = OsdCalibration(reaction_time={"human": AGENT_PROFILE.reaction_time}, anchors=anchors)
    table = compare_osd([30.0, 40.0], calibration=same)
    for row in table.rows:
        assert row.agent_ft == pytest.approx(row.human_ft)


def test_measured_overtaking_distance_close_to_formula():
    from fearsim.sight import MPH_TO_FPS, OsdParams, overtaking_sight_distance

    measured = measured_overtaking_distance(30.0, 1.0, 5.0, 15.0)
    formula = overtaking_sight_distance(OsdParams(30.0 * MPH_TO_FPS, 1.0, 5.0, 15.0))
    assert measured == pytest.approx(formula, rel=0.005)


# ---------------------------------------------------------------------------
# table plumbing
# ---------------------------------------------------------------------------

def test_table_requires_increasing_speeds():
    row = ComparisonRow(30.0, 1.0, 2.0, "rear_end", True, 1.0, 2.0)
    with pytest.raises(ValueError):
        ComparisonTable((row, row))


def test_table_csv_round_trip():
    table = compare_ssd([15.0, 50.0])
    assert ComparisonTable.from_csv(table.to_csv()) == table
