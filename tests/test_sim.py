"""Simulator: maneuvers, stepping, scenarios, record import, trace CSV."""

import pytest
from hypothesis import given, settings, strategies as st

from fearsim.emotion import EmotionInputs, FearLevel
from fearsim.sight import MPH_TO_FPS
from fearsim.sim import (
    ScenarioConfig,
    TickRecord,
    Trace,
    VehicleState,
    WorldConfig,
    decide_maneuver,
    import_simconnector,
    initial_states,
    run_lockstep,
    run_scenario,
    step,
    trace_from_csv,
    trace_to_csv,
)

WORLD = WorldConfig()


def bullet_at(speed, accel=0.06, decel=0.03):
    return VehicleState(0.0, speed, accel, decel)


# ---------------------------------------------------------------------------
# maneuver selection
# ---------------------------------------------------------------------------

def test_high_fear_brakes():
    assert decide_maneuver(FearLevel.HIGH, bullet_at(10.5, decel=0.03), WORLD) == pytest.approx(-0.03)


def test_very_low_fear_accelerates():
    assert decide_maneuver(FearLevel.VERY_LOW, bullet_at(10), WORLD) == pytest.approx(0.06)


def test_acceleration_clamps_at_max():
    assert decide_maneuver(FearLevel.VERY_LOW, bullet_at(100.0), WORLD) == 0.0


def test_braking_clamps_at_min():
    assert decide_maneuver(FearLevel.VERY_HIGH, bullet_at(10.0), WORLD) == 0.0


def test_medium_fear_holds():
    assert decide_maneuver(FearLevel.MEDIUM, bullet_at(50), WORLD) == 0.0


def test_braking_unclamped_when_floor_below_speed():
    # with no velocity floor in the way the command is the raw rate
    free_world = WorldConfig(min_velocity=0.0)
    assert decide_maneuver(FearLevel.HIGH, bullet_at(10.0, decel=0.03), free_world) == pytest.approx(-0.03)


# ---------------------------------------------------------------------------
# stepping kinematics
# ---------------------------------------------------------------------------

def test_three_tick_hand_trace_matches_closed_form():
    """No fear control, zero target rates: positions follow v * k per tick."""
    config = ScenarioConfig(
        eeec_agent_enabled=False,
        bullet_accel=0.0, bullet_decel=0.0,
        target_accel=0.0, target_decel=0.0,
        separation=1.0, ticks=3,
    )
    bullet, target = initial_states(config)
    k = WORLD.tick_seconds * MPH_TO_FPS / WORLD.patch_scale
    for tick in range(3):
        bullet, target, record = step(config, bullet, target, tick)
        assert bullet.position == pytest.approx(10.0 * k * (tick + 1), abs=1e-12)
        assert target.position == pytest.approx(1.0 + 10.0 * k * (tick + 1), abs=1e-12)
        assert record.distance == pytest.approx(1.0)


def test_acceleration_adds_rate_each_tick():
    config = ScenarioConfig(
        eeec_agent_enabled=False,
        bullet_accel=0.06, bullet_decel=0.0,
        target_accel=0.0, target_decel=0.0,
        separation=5.0,
    )
    bullet, target = initial_states(config)
    bullet, target, _ = step(config, bullet, target, 0)
    assert bullet.speed == pytest.approx(10.06)
    bullet, target, _ = step(config, bullet, target, 1)
    assert bullet.speed == pytest.approx(10.12)


def test_deceleration_inverts_acceleration():
    config = ScenarioConfig(separation=1.0)
    state = bullet_at(10.06, decel=0.06)
    cmd = decide_maneuver(FearLevel.HIGH, state, config.world)
    assert state.speed + cmd == pytest.approx(10.0)


def test_records_snapshot_pre_step_state():
    config = ScenarioConfig(separation=1.0)
    bullet, target = initial_states(config)
    _, _, record = step(config, bullet, target, 0)
    assert record.bullet_speed == 10.0
    assert record.target_speed == 10.0
    assert record.distance == 1.0
    assert record.tick == 0


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def test_zero_ticks_gives_empty_trace():
    trace = run_scenario(ScenarioConfig(ticks=0))
    assert trace.records == ()
    assert not trace.collision


def test_run_is_deterministic():
    config = ScenarioConfig(ticks=200, seed=42, phase_jitter_ticks=7)
    assert trace_to_csv(run_scenario(config)) == trace_to_csv(run_scenario(config))


def test_jitter_zero_makes_repetitions_identical():
    a = run_scenario(ScenarioConfig(ticks=100, seed=1))
    b = run_scenario(ScenarioConfig(ticks=100, seed=99))
    assert trace_to_csv(a) == trace_to_csv(b)


def test_speeds_stay_inside_bounds():
    trace = run_scenario(ScenarioConfig(ticks=500, separation=8.0))
    for record in trace.records:
        assert WORLD.min_velocity <= record.bullet_speed <= WORLD.max_velocity
        assert WORLD.min_velocity <= record.target_speed <= WORLD.max_velocity


def test_collision_truncates_and_marks_trace():
    # disable the controller and let the bullet run the target down
    config = ScenarioConfig(
        eeec_agent_enabled=False,
        separation=0.05,
        bullet_accel=5.0, target_accel=0.0, target_decel=0.0,
        ticks=10_000,
        world=WorldConfig(tick_seconds=10.0),
    )
    trace = run_scenario(config)
    assert trace.collision
    assert trace.collision_tick is not None
    assert len(trace.records) < 10_000


def test_agent_disabled_keeps_accelerating():
    config = ScenarioConfig(eeec_agent_enabled=False, separation=20.0, ticks=50)
    trace = run_scenario(config)
    speeds = [r.bullet_speed for r in trace.records]
    assert speeds == sorted(speeds)
    assert speeds[-1] > speeds[0]


def test_close_gap_run_is_collision_free_and_fearful():
    """Separation 1 keeps the controller braking; the gap must stay open
    for the whole standard 100-tick run."""
    trace = run_scenario(ScenarioConfig(separation=1.0, ticks=100))
    assert not trace.collision
    assert all(r.distance > 0 for r in trace.records)
    assert all(r.fear_level in (FearLevel.HIGH, FearLevel.VERY_HIGH)
               for r in trace.records if r.distance < 3.0)


def test_emotion_record_override():
    records = (EmotionInputs(0.0, 0.0, 0.0),)
    config = ScenarioConfig(separation=1.0, ticks=5, emotion_records=records)
    trace = run_scenario(config)
    # zero undesirability floors fear; the controller then accelerates
    assert all(r.fear_level in (FearLevel.VERY_LOW, FearLevel.LOW) for r in trace.records)


def test_overtaking_kind_records_overtaking_distance():
    from fearsim.sight import OsdParams, overtaking_sight_distance, to_sim_units

    config = ScenarioConfig(kind="overtaking", separation=5.0, ticks=1,
                            osd_spacing=5.0, osd_accel=19.0)
    trace = run_scenario(config)
    want = to_sim_units(overtaking_sight_distance(
        OsdParams(10.0 * MPH_TO_FPS, 0.4397, 5.0, 19.0)))
    assert trace.records[0].ssd == pytest.approx(want)


@pytest.mark.parametrize("kind", ["rear_end", "overtaking"])
def test_ssd_is_in_the_world_patch_scale(kind):
    full = run_scenario(ScenarioConfig(kind=kind, ticks=1)).records[0]
    half = run_scenario(ScenarioConfig(kind=kind, ticks=1,
                                       world=WorldConfig(patch_scale=50.0))).records[0]
    assert half.bullet_speed == full.bullet_speed
    assert half.ssd == 2 * full.ssd


def test_lockstep_matches_scalar_runs_of_any_length():
    configs = [
        ScenarioConfig(ticks=0),
        ScenarioConfig(ticks=1, kind="overtaking"),
        ScenarioConfig(ticks=30, seed=5, phase_jitter_ticks=9),
        ScenarioConfig(ticks=500, eeec_agent_enabled=False, separation=0.05, bullet_accel=5.0,
                       target_accel=0.0, target_decel=0.0, world=WorldConfig(tick_seconds=10.0)),
        ScenarioConfig(ticks=7, world=WorldConfig(min_velocity=10, max_velocity=90)),
    ]
    traces = run_lockstep(configs)
    assert traces[3].collision
    for config, trace in zip(configs, traces):
        assert trace.config is config
        assert trace == run_scenario(config)
        assert trace_to_csv(trace) == trace_to_csv(run_scenario(config))


COLLIDING = ScenarioConfig(
    eeec_agent_enabled=False, separation=0.05, bullet_accel=5.0,
    target_accel=0.0, target_decel=0.0, ticks=500, world=WorldConfig(tick_seconds=10.0),
)


def test_lockstep_traces_round_trip_through_csv():
    configs = [ScenarioConfig(ticks=0), ScenarioConfig(ticks=40, separation=4.0),
               ScenarioConfig(ticks=60, kind="overtaking", seed=3, phase_jitter_ticks=7), COLLIDING]
    traces = run_lockstep(configs)
    assert traces[0].records == ()
    assert traces[3].collision
    for trace in traces:
        rebuilt = trace_from_csv(trace_to_csv(trace), trace.config)
        assert rebuilt.records == trace.records
        assert (rebuilt.collision, rebuilt.collision_tick) == (trace.collision, trace.collision_tick)
        # Built from columns or from records, equal traces are interchangeable.
        scalar = run_scenario(trace.config)
        assert rebuilt == trace == scalar
        assert hash(rebuilt) == hash(trace) == hash(scalar)
        assert trace.columns == scalar.columns


_floats = st.floats(allow_nan=False)


@st.composite
def traces(draw):
    """Any trace the CSV form can hold: every finite or infinite float,
    either sign of zero, any ints, with and without a collision."""
    records = draw(st.lists(st.builds(
        TickRecord, tick=st.integers(), ssd=_floats, distance=_floats,
        fear_display=st.integers(), fear_level=st.sampled_from(FearLevel),
        bullet_speed=_floats, target_speed=_floats), max_size=20))
    collision_tick = draw(st.one_of(st.none(), st.integers()))
    return Trace(ScenarioConfig(), records, collision=collision_tick is not None,
                 collision_tick=collision_tick)


@settings(max_examples=200, deadline=None)
@given(traces())
def test_drawn_traces_round_trip_through_csv(trace):
    text = trace_to_csv(trace)
    rebuilt = trace_from_csv(text)
    assert rebuilt == trace
    assert rebuilt.records == trace.records
    assert trace_to_csv(rebuilt) == text


def test_trace_records_are_built_once():
    lockstep, = run_lockstep([ScenarioConfig(ticks=20)])
    assert lockstep.records is lockstep.records
    assert all(isinstance(r, TickRecord) for r in lockstep.records)
    hash(lockstep.records)
    scalar = run_scenario(ScenarioConfig(ticks=20))
    assert scalar.records is scalar.records
    assert Trace(config=scalar.config, records=scalar.records).records is scalar.records


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        ScenarioConfig(separation=0.0)
    with pytest.raises(ValueError):
        ScenarioConfig(ticks=-1)
    with pytest.raises(ValueError):
        ScenarioConfig(undesirability=1.5)
    with pytest.raises(ValueError):
        ScenarioConfig(reaction_profile="nobody")
    with pytest.raises(ValueError):
        ScenarioConfig(kind="sideways")
    # Values that would otherwise fail only at tick 0, with another message.
    with pytest.raises(ValueError, match="min_velocity must be non-negative"):
        WorldConfig(min_velocity=-1.0)
    with pytest.raises(ValueError, match="max_velocity must be positive"):
        WorldConfig(min_velocity=0.0, max_velocity=0.0)
    with pytest.raises(ValueError, match="osd_accel must be positive"):
        ScenarioConfig(kind="overtaking", osd_accel=0.0)
    with pytest.raises(ValueError, match="osd_spacing must be non-negative"):
        ScenarioConfig(kind="overtaking", osd_spacing=-1.0)


# ---------------------------------------------------------------------------
# emotion record import
# ---------------------------------------------------------------------------

def test_import_plain_record():
    records = import_simconnector("0.9,0.8,0.7\n")
    assert records == [EmotionInputs(0.9, 0.8, 0.7)]


def test_import_skips_header():
    records = import_simconnector("undesirability,likelihood,ig\n0.5,0.5,0.5\n")
    assert records == [EmotionInputs(0.5, 0.5, 0.5)]


def test_import_skips_header_after_comment():
    records = import_simconnector("# exported\nundesirability,likelihood,ig\n0.5,0.5,0.5\n")
    assert records == [EmotionInputs(0.5, 0.5, 0.5)]


def test_import_blank_likelihood_means_computed():
    records = import_simconnector("0.9,,0.7\n")
    assert records[0].likelihood is None


def test_import_range_error_carries_line_number():
    with pytest.raises(ValueError, match="line 1"):
        import_simconnector("1.3,0.2,0.2\n")


def test_import_malformed_line():
    with pytest.raises(ValueError, match="line 2"):
        import_simconnector("0.1,0.2,0.3\n0.1,0.2\n")


def test_import_not_a_number():
    with pytest.raises(ValueError, match="line 2.*ig"):
        import_simconnector("0.1,0.2,0.3\n0.1,0.2,zebra\n")


# ---------------------------------------------------------------------------
# trace CSV round trip
# ---------------------------------------------------------------------------

def test_trace_csv_header():
    trace = run_scenario(ScenarioConfig(ticks=3))
    assert trace_to_csv(trace).splitlines()[0] == (
        "tick,ssd,distance,fear_display,fear_level,bullet_speed,target_speed"
    )


def test_trace_csv_round_trip():
    trace = run_scenario(ScenarioConfig(ticks=40, separation=4.0))
    rebuilt = trace_from_csv(trace_to_csv(trace), config=trace.config)
    assert rebuilt.records == trace.records
    assert rebuilt.collision == trace.collision


def test_trace_csv_round_trip_collision_marker():
    config = ScenarioConfig(
        eeec_agent_enabled=False, separation=0.05, bullet_accel=5.0,
        target_accel=0.0, target_decel=0.0, ticks=10_000,
        world=WorldConfig(tick_seconds=10.0),
    )
    trace = run_scenario(config)
    rebuilt = trace_from_csv(trace_to_csv(trace))
    assert rebuilt.collision
    assert rebuilt.collision_tick == trace.collision_tick


def test_trace_csv_rejects_foreign_text():
    with pytest.raises(ValueError):
        trace_from_csv("not,a,trace\n1,2,3\n")
