"""Simulator: maneuvers, stepping, scenarios, record import, trace CSV."""

import re
from collections import namedtuple
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fearsim import sim
from fearsim.configio import load_scenario_config, load_sweep_rows
from fearsim.emotion import (DISPLAY_PLATEAUS, EmotionInputs, FearLevel, _plateau_indices,
                             fear_rulebase, generate_fear_rules, likelihood_rulebase)
from fearsim.experiments import SweepSpec, run_sweep
from fearsim.fuzzy import _CENTROID_ERROR, RuleBase, _additive_batch, parse_rules
from fearsim.sight import MPH_TO_FPS
from fearsim.sim import (
    CollisionError,
    ScenarioConfig,
    TickRecord,
    Trace,
    TraceColumns,
    WorldConfig,
    _COMMAND_SIGN,
    _kinematics,
    _speed_command,
    import_simconnector,
    run_lockstep,
    run_scenario,
    step,
    trace_from_csv,
    trace_to_csv,
)

WORLD = WorldConfig()
Bullet = namedtuple("Bullet", "speed accel decel")


def bullet_at(speed, accel=0.06, decel=0.03):
    return Bullet(speed, accel, decel)


def speed_change(level, bullet, world=WORLD):
    """The bullet's speed change over one tick at this fear level, made as ``step`` makes it."""
    command = _speed_command(_COMMAND_SIGN[level], bullet.accel, bullet.decel)
    _, speed, _, _ = _kinematics(world, (0.0, bullet.speed, 0.0, bullet.speed), command, 0.0)
    return speed - bullet.speed


def start(config):
    """``run_scenario``'s start state: both at the speed floor, ``separation`` apart."""
    v0 = float(config.world.min_velocity)
    return 0.0, v0, config.separation, v0


def columns_of(records):
    """A trace's columns from its ticks as ``TickRecord``s."""
    return TraceColumns._make(map(tuple, zip(*records))) if records else TraceColumns(*[()] * 7)


# ---------------------------------------------------------------------------
# maneuver selection
# ---------------------------------------------------------------------------

def test_high_fear_brakes():
    assert speed_change(FearLevel.HIGH, bullet_at(10.5, decel=0.03)) == pytest.approx(-0.03)


def test_very_low_fear_accelerates():
    assert speed_change(FearLevel.VERY_LOW, bullet_at(10)) == pytest.approx(0.06)


def test_acceleration_clamps_at_max():
    assert speed_change(FearLevel.VERY_LOW, bullet_at(100.0)) == 0.0


def test_braking_clamps_at_min():
    assert speed_change(FearLevel.VERY_HIGH, bullet_at(10.0)) == 0.0


def test_medium_fear_holds():
    assert speed_change(FearLevel.MEDIUM, bullet_at(50)) == 0.0


def test_braking_unclamped_when_floor_below_speed():
    # with no velocity floor in the way the command is the raw rate
    free_world = WorldConfig(min_velocity=0.0)
    assert speed_change(FearLevel.HIGH, bullet_at(10.0, decel=0.03), free_world) == pytest.approx(-0.03)


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
    state = start(config)
    k = WORLD.tick_seconds * MPH_TO_FPS / WORLD.patch_scale
    for tick in range(3):
        state, record = step(config, state, tick)
        bullet_position, _, target_position, _ = state
        assert bullet_position == pytest.approx(10.0 * k * (tick + 1), abs=1e-12)
        assert target_position == pytest.approx(1.0 + 10.0 * k * (tick + 1), abs=1e-12)
        assert record.distance == pytest.approx(1.0)


def test_acceleration_adds_rate_each_tick():
    config = ScenarioConfig(
        eeec_agent_enabled=False,
        bullet_accel=0.06, bullet_decel=0.0,
        target_accel=0.0, target_decel=0.0,
        separation=5.0,
    )
    state, _ = step(config, start(config), 0)
    assert state[1] == pytest.approx(10.06)
    state, _ = step(config, state, 1)
    assert state[1] == pytest.approx(10.12)


def test_deceleration_inverts_acceleration():
    config = ScenarioConfig(separation=1.0)
    state = bullet_at(10.06, decel=0.06)
    assert state.speed + speed_change(FearLevel.HIGH, state, config.world) == pytest.approx(10.0)


def test_records_snapshot_pre_step_state():
    config = ScenarioConfig(separation=1.0)
    _, record = step(config, start(config), 0)
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
        # Read back from CSV or run by either runner, equal traces are interchangeable.
        scalar = run_scenario(trace.config)
        assert rebuilt == trace == scalar
        assert hash(rebuilt) == hash(trace) == hash(scalar)
        assert trace.columns == scalar.columns


def stepped(config):
    """The reference run: ``step`` from ``start`` until a collision."""
    state = start(config)
    records = []
    for tick in range(config.ticks):
        try:
            state, record = step(config, state, tick)
        except CollisionError as exc:
            return Trace(config, columns_of(records), collision=True, collision_tick=exc.tick)
        records.append(record)
    return Trace(config, columns_of(records))


_unit = st.floats(0.0, 1.0)


@st.composite
def scenarios(draw):
    """Single runs of every shape the windows must get right: both kinds,
    agent on and off, jitter, thresholds that make the plateau chatter,
    emotion records with and without a likelihood (shorter and longer than
    the run, changing every tick or in blocks), fast bullets that collide,
    and 0, 1 or up to 250 ticks."""
    ticks = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 250)))
    records = None
    if draw(st.booleans()):
        blocks = draw(st.lists(st.tuples(
            st.builds(EmotionInputs, undesirability=_unit, likelihood=st.none() | _unit, ig=_unit),
            st.integers(1, 40)), min_size=2, max_size=6))
        pattern = [record for record, repeat in blocks for _ in range(repeat)]
        length = draw(st.integers(1, 300))
        records = tuple(pattern * (length // len(pattern) + 1))[:length]
    low = draw(st.sampled_from([0, 0.0, 5.0, 10, 10.0, 22.5]))
    world = WorldConfig(tick_seconds=draw(st.sampled_from([0.1, 1.0, 2.0, 5.0, 10.0])),
                        min_velocity=low, max_velocity=low + draw(st.floats(1.0, 100.0)))
    return ScenarioConfig(
        world=world, kind=draw(st.sampled_from(["rear_end", "overtaking"])),
        separation=draw(st.floats(0.05, 3.0) | st.floats(0.05, 30.0)), ticks=ticks,
        eeec_agent_enabled=draw(st.booleans()),
        bullet_accel=draw(st.floats(0.0, 0.3) | st.floats(0.0, 5.0)),
        bullet_decel=draw(st.floats(0.0, 0.5)),
        target_accel=draw(st.floats(0.0, 1.0)), target_decel=draw(st.floats(0.0, 1.0)),
        target_phase_ticks=draw(st.integers(1, 100)), phase_jitter_ticks=draw(st.integers(0, 20)),
        seed=draw(st.integers(0, 1000)), undesirability=draw(_unit), ig=draw(_unit),
        fear_threshold=draw(st.floats(0.0, 0.6)), emotion_records=records,
    )


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_run_scenario_is_the_step_loop(config):
    trace, reference = run_scenario(config), stepped(config)
    assert trace == reference
    assert (trace.collision, trace.collision_tick) == (reference.collision, reference.collision_tick)
    assert trace_to_csv(trace) == trace_to_csv(reference)


_CALM, _AFRAID = EmotionInputs(0.0, None, 0.0), EmotionInputs(1.0, 1.0, 1.0)
_STILL_TARGET = dict(world=WorldConfig(tick_seconds=10.0), target_accel=0.0, target_decel=0.0)


def test_a_speculative_collision_is_dropped():
    # Accelerating from tick 5 would close the gap at tick 6; from tick 5
    # the records make the gap frightening, so the bullet brakes and never
    # collides.  (The likelihood comes from the gap, so a window that
    # stepped past the closed gap would infer it outside its domain.)
    config = ScenarioConfig(separation=5.0, ticks=20, bullet_accel=2.0, bullet_decel=8.0,
                            emotion_records=(_CALM,) * 5 + (EmotionInputs(1.0, None, 1.0),),
                            **_STILL_TARGET)
    reference = stepped(config)
    assert not reference.collision
    assert reference.columns.fear_level[4:6] == (FearLevel.VERY_LOW, FearLevel.VERY_HIGH)
    assert run_scenario(config) == reference


def test_a_collision_right_after_a_plateau_change():
    # Braking at the floor holds the gap for 30 ticks; tick 30 is calm, and
    # its acceleration closes the gap at tick 31.
    config = ScenarioConfig(separation=1.0, ticks=40, bullet_accel=8.0, bullet_decel=0.5,
                            emotion_records=(_AFRAID,) * 30 + (_CALM,), **_STILL_TARGET)
    reference = stepped(config)
    assert reference.collision_tick == 31
    assert reference.columns.fear_level[29:] == (FearLevel.VERY_HIGH, FearLevel.VERY_LOW)
    assert run_scenario(config) == reference


def test_a_command_change_ends_its_window(monkeypatch):
    # Calm ticks accelerate and afraid ones brake; tick 10 is the first
    # afraid one.  Its window keeps it, and the next window starts after it.
    config = ScenarioConfig(separation=8.0, ticks=20, bullet_accel=0.5, bullet_decel=0.5,
                            emotion_records=(_CALM,) * 10 + (_AFRAID,), **_STILL_TARGET)
    distance = stepped(config).columns.distance
    starts = []

    def recorded(gap, *args):
        starts.append(distance.index(gap[0]))
        return fear_plateaus(gap, *args)

    fear_plateaus = sim._fear_plateaus
    monkeypatch.setattr(sim, "_fear_plateaus", recorded)
    assert run_scenario(config).columns.distance == distance
    assert 11 in starts
    assert 10 not in starts


def shipped_replay():
    return load_scenario_config(resources.files("fearsim.data").joinpath(
        "replay_close_gap_low_speed.cfg").read_text())


def test_long_runs_with_changes_inside_windows():
    blocks = (_CALM,) * 70 + (_AFRAID,) * 3 + (_CALM,) * 90 + (_AFRAID,) * 41
    for config in (shipped_replay(), ScenarioConfig(separation=8.0, ticks=250, emotion_records=blocks)):
        reference = stepped(config)
        display = reference.columns.fear_display
        assert sum(a != b for a, b in zip(display[64:], display[65:])) >= 2
        trace = run_scenario(config)
        assert trace == reference
        assert trace_to_csv(trace) == trace_to_csv(reference)


def counted(calls, name, fn):
    """``fn``, counting its calls in ``calls[name]``."""
    def wrapper(*args):
        calls[name] += 1
        return fn(*args)
    return wrapper


def test_single_run_batches_its_inference(monkeypatch):
    config = shipped_replay()
    calls = {"likelihood": 0, "exact": 0, "potential": 0}
    monkeypatch.setattr(RuleBase, "_mamdani_closed_batch",
                        counted(calls, "likelihood", RuleBase._mamdani_closed_batch))
    monkeypatch.setattr(RuleBase, "_mamdani_batch", counted(calls, "exact", RuleBase._mamdani_batch))
    monkeypatch.setattr(sim, "_additive_batch", counted(calls, "potential", sim._additive_batch))
    for name in ("step", "compute_likelihood", "fear_potential", "classify_level"):
        monkeypatch.setattr(sim, name, None)
    trace = run_scenario(config)
    assert len(trace.columns.tick) == config.ticks == 1200
    assert 0 < calls["likelihood"] < config.ticks / 10
    assert calls["exact"] == 0
    # The knot table's; no tick infers the potential.
    assert calls["potential"] == 1


# ---------------------------------------------------------------------------
# plateaus from the closed-form likelihood
# ---------------------------------------------------------------------------

def exact_plateaus(gap, speed, span, max_velocity, appraisal, threshold):
    """``_fear_plateaus`` with every computed likelihood from ``_mamdani_batch``
    and every potential from ``_additive_batch``, under ``sim``'s fear rules."""
    undesirability, likelihood, ig = appraisal
    computed = likelihood_rulebase()._mamdani_batch(
        {"distance": np.minimum(gap / span, 1.0), "speed": speed / max_velocity})[0]
    potential = _additive_batch(sim.fear_rulebase(), {
        "undesirability": undesirability, "ig": ig,
        "likelihood": np.where(np.isnan(likelihood), computed, likelihood)})
    return _plateau_indices(potential, threshold)


def knots_of(appraisal):
    """The runners' knots (``sim._knot_table``) of one appraisal per point."""
    return sim._knot_table(appraisal[:, None])[:, 0]


_fear_points = st.lists(st.tuples(
    st.floats(0.0, 60.0, exclude_min=True),                      # gap
    st.floats(0.0, 100.0),                                       # bullet speed
    st.floats(0.0, 1.0),                                         # undesirability
    st.one_of(st.just(np.nan), st.floats(0.0, 1.0)),             # likelihood, NaN if computed
    st.floats(0.0, 1.0),                                         # ig
    st.floats(0.0, 1.0),                                         # fear threshold
), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(_fear_points, st.booleans())
def test_fear_plateaus_are_the_exact_pipelines(points, shared):
    gap, speed, undesirability, likelihood, ig, threshold = map(np.array, zip(*points))
    world = (WORLD.span, WORLD.max_velocity) if shared else (
        np.full(len(gap), WORLD.span), np.full(len(gap), WORLD.max_velocity))
    threshold = threshold[0] if shared else threshold
    appraisal = np.array([undesirability, likelihood, ig])
    assert sim._fear_plateaus(gap, speed, *world, appraisal, knots_of(appraisal), threshold).tolist() == \
        exact_plateaus(gap, speed, *world, appraisal, threshold).tolist()


def straddling_gaps():
    """Pairs of adjacent float gaps whose exact plateaus differ, at several
    speeds and appraisals: (gaps, speeds, appraisal, thresholds) with the
    pairs' low ends first and their high ends after, and the index of the
    midpoint each pair straddles."""
    span, max_velocity = WORLD.span, WORLD.max_velocity
    cases = [(speed, u, ig, threshold) for speed in (20.0, 50.0, 90.0) for u in (1.0, 0.5)
             for ig in (1.0, 0.5) for threshold in (0.0, 0.3)]

    def plateaus(gap, setting):
        speed, u, ig, threshold = setting
        return exact_plateaus(gap, speed, span, max_velocity,
                              np.array([u, np.full_like(u, np.nan), ig]), threshold)

    # A coarse scan over the gap finds where the plateau changes.
    scan = np.linspace(0.05, span, 200)
    found = []
    for setting in cases:
        plateau = plateaus(scan, np.repeat(np.array(setting)[:, None], len(scan), axis=1))
        found += [(scan[i], scan[i + 1], setting) for i in np.flatnonzero(np.diff(plateau))]
    low, high = np.array([(a, b) for a, b, _ in found]).T
    setting = np.array([s for _, _, s in found]).T
    below = plateaus(low, setting)
    # Bisect every change at once, keeping the low side's plateau, until
    # the two ends are adjacent floats.
    while (np.nextafter(low, high) != high).any():
        middle = low / 2 + high / 2
        same = plateaus(middle, setting) == below
        low, high = np.where(same, middle, low), np.where(same, high, middle)
    above = plateaus(high, setting)
    assert (above != below).all()
    speed, u, ig, threshold = np.concatenate([setting, setting], axis=1)
    return (np.concatenate([low, high]), speed, np.array([u, np.full_like(u, np.nan), ig]),
            threshold, np.minimum(below, above))


def test_points_next_to_every_plateau_edge_get_the_exact_plateau():
    gap, speed, appraisal, threshold, straddled = straddling_gaps()
    assert len(gap) >= 20
    assert set(straddled.tolist()) == set(range(len(DISPLAY_PLATEAUS) - 1))
    span, max_velocity = WORLD.span, WORLD.max_velocity
    exact = exact_plateaus(gap, speed, span, max_velocity, appraisal, threshold)
    assert sim._fear_plateaus(gap, speed, span, max_velocity, appraisal, knots_of(appraisal),
                              threshold).tolist() == exact.tolist()
    # The same points with their exact likelihoods given, as emotion
    # records give them, straddle the same midpoints.
    appraisal[1] = likelihood_rulebase()._mamdani_batch(
        {"distance": np.minimum(gap / span, 1.0), "speed": speed / max_velocity})[0]
    assert sim._fear_plateaus(gap, speed, span, max_velocity, appraisal, knots_of(appraisal),
                              threshold).tolist() == exact.tolist()


def test_plateau_margin_covers_the_likelihood_bound():
    # The premises of the margin's derivation at ``sim._fear_plateaus``:
    # strong partitions on every input of the fear rules, a rule in every
    # cell, and the potential's slope in the likelihood.
    rb = fear_rulebase()
    xs = np.linspace(0.0, 1.0, 10001)
    for variable in rb.inputs:
        assert np.allclose(sum(mf.sample(xs) for _, mf in variable.terms), 1.0, rtol=0, atol=1e-12)
    assert len(rb.rules) == np.prod([len(v.terms) for v in rb.inputs])
    assert all(len(rule.antecedents) == len(rb.inputs) for rule in rb.rules)
    likelihood = next(v for v in rb.inputs if v.name == "likelihood")
    peaks = [mf.peak for _, mf in likelihood.terms]
    slope = (max(rb._term_centroid) - min(rb._term_centroid)) / np.diff(peaks).min()
    assert slope < 1 / 0.19
    assert 100 * (slope * _CENTROID_ERROR + 1e-13) < 6e-8 < sim._PLATEAU_MARGIN / 10


def shipped_sweeps():
    data = resources.files("fearsim.data")
    for name in ("sweep_close_gap.cfg", "sweep_spaced_gap.cfg"):
        rows, sweep = load_sweep_rows(data.joinpath(name).read_text())
        yield SweepSpec(rows=tuple(rows), repetitions=sweep["repetitions"],
                        ticks=sweep["ticks"], base_seed=sweep["base_seed"])


def test_shipped_runs_never_take_the_exact_path(monkeypatch):
    def unreachable(self, inputs):
        pytest.fail("a shipped run computed a likelihood through _mamdani_batch")

    calls = {"group": 0, "potential": 0}
    monkeypatch.setattr(RuleBase, "_mamdani_batch", unreachable)
    monkeypatch.setattr(sim, "_run_group", counted(calls, "group", sim._run_group))
    monkeypatch.setattr(sim, "_additive_batch", counted(calls, "potential", sim._additive_batch))
    assert len(run_scenario(shipped_replay()).columns.tick) == 1200
    assert calls == {"group": 0, "potential": 1}
    assert [len(run_sweep(spec).runs) for spec in shipped_sweeps()] == [300, 250]
    # One knot table per lock-step group; no tick infers the potential.
    assert calls == {"group": 2, "potential": 3}


# ---------------------------------------------------------------------------
# potential knots
# ---------------------------------------------------------------------------

def fear_rules_with(likelihood_terms):
    """The shipped fear rules with other (left, peak, right) likelihood terms."""
    text = generate_fear_rules()
    for token, breakpoints in zip(("VLL", "LL", "ML", "HL", "VHL"), likelihood_terms):
        text = re.sub(rf"^term likelihood {token} .*$",
                      f"term likelihood {token} {' '.join(map(str, breakpoints))}", text, flags=re.M)
    return parse_rules(text)


# A strong likelihood partition on other peaks than the other inputs', and
# one whose LL term's right foot misses ML's peak.
_OTHER_PEAKS = ((0, 0, 0.2), (0, 0.2, 0.45), (0.2, 0.45, 0.8), (0.45, 0.8, 1), (0.8, 1, 1))
_NOT_STRONG = ((0, 0, 0.3), (0, 0.3, 0.5), (0.3, 0.49, 0.705), (0.49, 0.705, 1), (0.705, 1, 1))


def test_fear_rules_have_peaks_with_strong_partitions_and_every_cell():
    shipped = [0.0, 0.3, 0.49, 0.705, 1.0]
    assert {name: peaks.tolist() for name, peaks in fear_rulebase()._peaks.items()} == \
        {"undesirability": shipped, "likelihood": shipped, "ig": shipped}
    assert fear_rules_with(_OTHER_PEAKS)._peaks["likelihood"].tolist() == [0, 0.2, 0.45, 0.8, 1]
    assert fear_rules_with(_NOT_STRONG)._peaks is None
    text = generate_fear_rules()
    rule = next(line for line in text.splitlines() if line.startswith("IF "))
    # A cell without a rule, and a rule that leaves out an input.
    assert parse_rules(text.replace(rule + "\n", ""))._peaks is None
    assert parse_rules(text.replace(rule, rule.replace(" AND ig IS VLI", "")))._peaks is None


def drawn_appraisals(n, seed=21):
    """Undesirability, likelihood and ig of ``n`` points, with the extremes."""
    appraisal = np.random.default_rng(seed).random((3, n))
    appraisal[:, :4] = [[0.0, 1.0, 1.0, 0.5], [0.0, 1.0, 0.3, 0.49], [0.0, 1.0, 0.0, 1.0]]
    return appraisal


@pytest.mark.parametrize("terms", [None, _OTHER_PEAKS], ids=["shipped", "other_peaks"])
def test_knots_are_the_potential_at_the_likelihood_peaks(monkeypatch, terms):
    if terms is not None:
        monkeypatch.setattr(sim, "fear_rulebase", lambda rb=fear_rules_with(terms): rb)
    rb = sim.fear_rulebase()
    peaks = [mf.peak for _, mf in next(v for v in rb.inputs if v.name == "likelihood").terms]
    undesirability, likelihood, ig = appraisal = drawn_appraisals(2000)
    knots = knots_of(appraisal)

    def additive(likelihood):
        return _additive_batch(rb, {"undesirability": undesirability, "likelihood": likelihood,
                                    "ig": ig})

    # Bit for bit at the peaks, and a few units in the last place between.
    at_peaks = [additive(np.full_like(likelihood, peak)) for peak in peaks]
    assert knots.tolist() == np.array(at_peaks).tolist()
    for peak, potential in zip(peaks, at_peaks):
        assert sim._knot_potential(knots, np.full_like(likelihood, peak)).tolist() == potential.tolist()
    assert np.abs(sim._knot_potential(knots, likelihood) - additive(likelihood)).max() <= 1e-15


def test_fear_rules_without_peaks_take_the_exact_plateaus(monkeypatch):
    monkeypatch.setattr(sim, "fear_rulebase", lambda rb=fear_rules_with(_NOT_STRONG): rb)
    calls = {"exact": 0}
    plateaus = sim._plateaus

    def exact(undesirability, *args):
        calls["exact"] += len(undesirability)
        return plateaus(undesirability, *args)

    monkeypatch.setattr(sim, "_plateaus", exact)
    appraisal = drawn_appraisals(300)
    appraisal[1, ::2] = np.nan
    rng = np.random.default_rng(7)
    gap, speed, threshold = rng.uniform(0.01, 60.0, 300), rng.uniform(0.0, 100.0, 300), rng.random(300) / 2
    knots = knots_of(appraisal)
    assert knots.shape == (0, 300)
    assert sim._fear_plateaus(gap, speed, WORLD.span, WORLD.max_velocity, appraisal, knots,
                              threshold).tolist() == \
        exact_plateaus(gap, speed, WORLD.span, WORLD.max_velocity, appraisal, threshold).tolist()
    assert calls["exact"] == 300


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
    return Trace(ScenarioConfig(), columns_of(records), collision=collision_tick is not None,
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


def test_trace_csv_header_only_and_trailing_markers():
    header = sim.TRACE_HEADER + "\n"
    empty = trace_from_csv(header)
    assert empty.columns == TraceColumns(*[()] * 7)
    assert not empty.collision and empty.collision_tick is None
    marked = trace_from_csv(header + "\n# collision at tick 0\n")
    assert marked.columns == empty.columns
    assert marked.collision and marked.collision_tick == 0
    text = trace_to_csv(run_scenario(ScenarioConfig(ticks=5)))
    rebuilt = trace_from_csv(text + "# a note\n\n# collision at tick 4\n")
    assert rebuilt.columns == trace_from_csv(text).columns
    assert rebuilt.collision and rebuilt.collision_tick == 4
    with pytest.raises(ValueError, match="^line 3: collision tick is not an integer: '4.0'$"):
        trace_from_csv(header + "\n# collision at tick 4.0\n")


def test_trace_csv_rejects_foreign_text():
    with pytest.raises(ValueError):
        trace_from_csv("not,a,trace\n1,2,3\n")
