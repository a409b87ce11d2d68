"""Sweeps and sight-distance comparison studies."""

import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from fearsim import experiments
from fearsim.experiments import (
    ComparisonRow,
    ComparisonTable,
    OsdCalibration,
    RunResult,
    SweepDataset,
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
from fearsim.monitors import Verdict, check_trace_invariants
from fearsim.sight import (
    AGENT_PROFILE, HUMAN_PROFILE, MPH_TO_FPS, SsdParams, stopping_sight_distance,
)
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


@pytest.mark.parametrize("rows", [(), (ScenarioConfig(),)])
def test_sweep_rejects_negative_ticks(rows):
    with pytest.raises(ValueError, match="ticks must be non-negative"):
        SweepSpec(rows=rows, ticks=-1)


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


@pytest.mark.parametrize("gap", [float("nan"), float("inf"), 0.0, -1.0])
def test_sweep_rejects_a_gap_that_never_arms_before_any_run(monkeypatch, gap):
    def unreachable(configs):
        pytest.fail("a sweep with a bad very_small_gap started its runs")

    monkeypatch.setattr(experiments, "run_lockstep", unreachable)
    spec = SweepSpec(rows=(ScenarioConfig(separation=2.0),), repetitions=1, ticks=5)
    with pytest.raises(ValueError, match=r"^very_small_gap=.* is not a finite gap above 0$"):
        run_sweep(spec, very_small_gap=gap)


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
# runs with the same dynamics, simulated and formatted once
# ---------------------------------------------------------------------------

def unshared_dataset(spec):
    """The dataset run_sweep gives, from every run's own run_scenario trace."""
    runs = []
    for row_index, row in enumerate(spec.rows):
        for repetition in range(spec.repetitions):
            seed = spec.base_seed + row_index * spec.repetitions + repetition
            trace = run_scenario(replace(row, ticks=spec.ticks, seed=seed))
            displays, gaps = trace.columns.fear_display, trace.columns.distance
            runs.append(RunResult(
                row_index, repetition, seed, trace,
                mean_display=sum(displays) / len(displays) if displays else 0.0,
                min_gap=min(gaps) if gaps else float("nan"),
                reports=tuple(check_trace_invariants(trace))))
    return SweepDataset(spec, tuple(runs))


def serialized(dataset):
    """``SweepDataset.serialize`` with one ``trace_to_csv`` call per run."""
    parts = []
    for run in dataset.runs:
        parts += [f"## run {run.row_index} {run.repetition} seed={run.seed}\n",
                  trace_to_csv(run.trace),
                  f"mean_display={run.mean_display!r} min_gap={run.min_gap!r}\n",
                  *(f"{rep.invariant_id}={rep.verdict}\n" for rep in run.reports)]
    return "".join(parts).encode()


def exported(dataset):
    """The files ``write_sweep_dir`` should write, with one ``trace_to_csv`` call per run."""
    files = {f"run_{run.row_index:02d}_{run.repetition:03d}.csv": trace_to_csv(run.trace)
             for run in dataset.runs}
    files.update({"aggregate.csv": dataset.aggregate_csv(), "invariants.csv": dataset.invariants_csv()})
    return {name: text.encode() for name, text in files.items()}


# Values that compare equal but differ in type or sign.  A -0.0 floor
# speed or OSD spacing is recorded as such, so rows with those may not
# share a trace with their +0.0 twins.
_TWIN_VALUES = {
    "fear_threshold": [0.0, -0.0],
    "bullet_accel": [0.0, -0.0, 1, 1.0],
    "bullet_decel": [0.0, -0.0, 1, 1.0],
    "target_accel": [0.0, -0.0, 1, 1.0],
    "target_decel": [0.0, -0.0, 1, 1.0],
    "separation": [1, 1.0],
    "osd_spacing": [0.0, -0.0],
}
_TWIN_MIN_VELOCITY = [0, 0.0, -0.0, 10, 10.0]


@st.composite
def sharing_specs(draw):
    """Sweeps whose rows repeat a few base rows, with jitter 0 or small
    jitter (so some repetitions share a phase offset and some do not), some
    fields set to equal values of another type or sign."""
    bases = [replace(row, phase_jitter_ticks=draw(st.sampled_from([0, 0, 1, 3])),
                     target_phase_ticks=draw(st.integers(1, 8)))
             for row in draw(st.lists(rows(), min_size=1, max_size=3))]
    spec_rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = draw(st.sampled_from(bases))
        changes = {name: draw(st.sampled_from(values))
                   for name, values in _TWIN_VALUES.items() if draw(st.booleans())}
        if draw(st.booleans()):
            min_velocity = draw(st.sampled_from(_TWIN_MIN_VELOCITY))
            changes["world"] = replace(row.world, min_velocity=min_velocity,
                                       max_velocity=max(row.world.max_velocity, min_velocity, 1.0))
        spec_rows.append(replace(row, **changes))
    return SweepSpec(rows=tuple(spec_rows), repetitions=draw(st.integers(1, 4)),
                     ticks=draw(st.integers(0, 30)), base_seed=draw(st.integers(0, 10**6)))


def dynamics_key(spec, run):
    return (repr(replace(spec.rows[run.row_index], ticks=spec.ticks, seed=0)),
            run.trace.config.phase_offset())


@settings(max_examples=60, deadline=None)
@given(sharing_specs())
@example(SweepSpec(rows=(ScenarioConfig(world=WorldConfig(min_velocity=0.0)),
                         ScenarioConfig(world=WorldConfig(min_velocity=-0.0)),
                         ScenarioConfig(world=WorldConfig(min_velocity=0)),
                         ScenarioConfig(world=WorldConfig(min_velocity=0), kind="overtaking",
                                        osd_spacing=-0.0)),
                   repetitions=3, ticks=5))
@example(SweepSpec(rows=(ScenarioConfig(phase_jitter_ticks=3, target_phase_ticks=2),) * 2,
                   repetitions=4, ticks=10))
def test_shared_runs_give_the_bytes_of_unshared_runs(tmp_path_factory, spec):
    shared, unshared = run_sweep(spec), unshared_dataset(spec)
    assert shared.serialize() == serialized(unshared)
    assert shared.aggregate_csv() == unshared.aggregate_csv()
    assert shared.invariants_csv() == unshared.invariants_csv()
    out_dir = tmp_path_factory.mktemp("sweep")
    write_sweep_dir(shared, out_dir)
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == exported(unshared)
    columns = {}
    for run in shared.runs:
        assert run.trace.config == replace(spec.rows[run.row_index], ticks=spec.ticks, seed=run.seed)
        assert run.trace.config.seed == run.seed
        # One columns object per key, and none shared between keys.
        assert columns.setdefault(dynamics_key(spec, run), run.trace.columns) is run.trace.columns
    assert len({id(c) for c in columns.values()}) == len(columns)


def test_repetitions_without_jitter_share_one_trace():
    spec = SweepSpec(rows=(ScenarioConfig(), ScenarioConfig(), ScenarioConfig(separation=3.0),
                           ScenarioConfig(phase_jitter_ticks=20)), repetitions=50, ticks=30)
    dataset = run_sweep(spec)
    by_row = [{id(run.trace.columns) for run in dataset.runs if run.row_index == i} for i in range(4)]
    # Equal rows share across rows too; the jittered row draws 21 offsets at most.
    assert by_row[0] == by_row[1] and len(by_row[0]) == 1
    assert len(by_row[2]) == 1 and by_row[2] != by_row[0]
    assert 1 < len(by_row[3]) <= 21
    assert [run.trace.config.seed for run in dataset.runs] == list(range(200))


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
# measured distances against the step-by-step Euler loops
# ---------------------------------------------------------------------------

def stopping_loop(speed_mph, reaction_time, deceleration=11.2):
    v = speed_mph * MPH_TO_FPS
    distance = v * reaction_time
    while v > 0:
        v = max(0.0, v - deceleration * 1e-3)
        distance += v * 1e-3
    return distance


def overtaking_loop(speed_mph, reaction_time, spacing, acceleration):
    v = speed_mph * MPH_TO_FPS
    distance = v * reaction_time + 2.0 * spacing
    covered = 0.0
    lateral_v = 0.0
    while covered < 2.0 * spacing:
        lateral_v += acceleration * 1e-3
        covered += lateral_v * 1e-3
        distance += v * 1e-3
    return distance


SPEED_GRID = [0.0, *range(1, 121), 0.5, 17.3, 33.3, 119.99]


def test_measured_stopping_distance_is_the_loop_bit_for_bit():
    for speed in SPEED_GRID:
        for profile in (AGENT_PROFILE, HUMAN_PROFILE):
            want = stopping_loop(speed, profile.reaction_time)
            assert repr(measured_stopping_distance(speed, profile.reaction_time)) == repr(want), \
                (speed, profile.name)
    for deceleration in (0.5, 3.4, 30.0):
        assert repr(measured_stopping_distance(57.0, 1.5, deceleration)) == \
            repr(stopping_loop(57.0, 1.5, deceleration))


def test_compare_ssd_measures_each_profile_as_measured_stopping_distance():
    # The study integrates each speed's braking once for both profiles.
    speeds = [15.0 + (50.0 - 15.0) / 11 * i for i in range(12)]  # compare-ssd's default 15:50:12
    for speed_list in (speeds, [0.0, 30.0]):
        for row in compare_ssd(speed_list).rows:
            assert repr(row.agent_measured_ft) == \
                repr(measured_stopping_distance(row.speed_mph, AGENT_PROFILE.reaction_time))
            assert repr(row.human_measured_ft) == \
                repr(measured_stopping_distance(row.speed_mph, HUMAN_PROFILE.reaction_time))
    times = (AGENT_PROFILE.reaction_time, HUMAN_PROFILE.reaction_time, 1.5)
    for speed in (0.0, 57.0):
        for deceleration in (0.5, 3.4, 30.0):
            got = experiments._stopping_distances(speed, times, deceleration)
            assert [repr(d) for d in got] == \
                [repr(measured_stopping_distance(speed, t, deceleration)) for t in times]


def test_measured_overtaking_distance_is_the_loop_bit_for_bit():
    calibration = default_osd_calibration()
    for profile in (AGENT_PROFILE, HUMAN_PROFILE):
        for speed in SPEED_GRID:
            p = calibration.params_for(profile, speed)
            want = overtaking_loop(speed, p.reaction_time, p.spacing, p.acceleration)
            got = measured_overtaking_distance(speed, p.reaction_time, p.spacing, p.acceleration)
            assert repr(got) == repr(want), (speed, profile.name)
        # Every calibration anchor as given, under both reaction times.
        for speed, spacing, acceleration in calibration.anchors[profile.name]:
            for t in (AGENT_PROFILE.reaction_time, HUMAN_PROFILE.reaction_time):
                assert repr(measured_overtaking_distance(speed, t, spacing, acceleration)) == \
                    repr(overtaking_loop(speed, t, spacing, acceleration)), (speed, spacing, acceleration)
    assert measured_overtaking_distance(40.0, 1.0, 0.0, 15.0) == overtaking_loop(40.0, 1.0, 0.0, 15.0)


def test_measured_distances_reject_a_maneuver_that_never_ends():
    # The step loops would never stop on these.
    with pytest.raises(ValueError, match="deceleration must be positive"):
        measured_stopping_distance(40.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="acceleration must be positive"):
        measured_overtaking_distance(40.0, 1.0, 5.0, 0.0)


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


_table_floats = st.floats(allow_nan=False)


@st.composite
def tables(draw):
    speeds = sorted(draw(st.lists(_table_floats, unique=True, max_size=8)))
    return ComparisonTable(tuple(
        ComparisonRow(v, draw(_table_floats), draw(_table_floats),
                      draw(st.sampled_from(["rear_end", "overtaking"])), draw(st.booleans()),
                      draw(_table_floats), draw(_table_floats))
        for v in speeds))


@settings(max_examples=200, deadline=None)
@given(tables())
def test_drawn_tables_round_trip_through_csv(table):
    text = table.to_csv()
    assert ComparisonTable.from_csv(text) == table
    assert ComparisonTable.from_csv(text).to_csv() == text
