"""Fear pipeline: likelihood, potential, intensity, level classification."""

import numpy as np
import pytest
from importlib import resources

from fearsim.emotion import (
    DISPLAY_PLATEAUS,
    EmotionInputs,
    FearLevel,
    classify_level,
    compute_likelihood,
    fear_intensity,
    fear_potential,
    fear_rulebase,
    generate_fear_rules,
    likelihood_rulebase,
    _plateau_indices,
)

VERY_LOW_BAND = (0.0, 0.24)
MEDIUM_BAND = (0.25, 0.73)
VERY_HIGH_BAND = (0.76, 1.0)


def in_band(value, band):
    return band[0] <= value <= band[1]


# ---------------------------------------------------------------------------
# shipped rule files
# ---------------------------------------------------------------------------

def test_likelihood_base_has_25_rules():
    assert len(likelihood_rulebase().rules) == 25


def test_likelihood_base_first_table_row():
    rule = likelihood_rulebase().rules[0]
    assert rule.antecedents == (("distance", "VHD"), ("speed", "VHS"))
    assert rule.consequent == ("likelihood", "MLH")


def test_fear_rules_file_matches_generator():
    shipped = resources.files("fearsim.data").joinpath("fear.rules").read_text()
    assert shipped == generate_fear_rules()


def test_fear_base_has_125_rules():
    assert len(fear_rulebase().rules) == 125


def test_intensity_bands_are_the_published_five():
    published = [(0.0, 0.24), (0.1, 0.5), (0.25, 0.73), (0.51, 0.9), (0.76, 1.0)]
    for rulebase in (likelihood_rulebase(), fear_rulebase()):
        assert [(mf.left, mf.right) for _, mf in rulebase.output.terms] == published


# ---------------------------------------------------------------------------
# likelihood
# ---------------------------------------------------------------------------

def _peak(rulebase, var_name, token):
    for var in rulebase.inputs:
        if var.name == var_name:
            return var.term(token).peak
    raise KeyError(var_name)


def test_likelihood_low_distance_high_speed_is_very_high():
    rb = likelihood_rulebase()
    value = compute_likelihood(_peak(rb, "distance", "LD"), _peak(rb, "speed", "VHS"))
    assert in_band(value, VERY_HIGH_BAND)


def test_likelihood_medium_everything_is_medium():
    rb = likelihood_rulebase()
    value = compute_likelihood(_peak(rb, "distance", "MD"), _peak(rb, "speed", "MS"))
    assert in_band(value, MEDIUM_BAND)


def test_likelihood_high_distance_low_speed_is_very_low():
    rb = likelihood_rulebase()
    value = compute_likelihood(_peak(rb, "distance", "VHD"), _peak(rb, "speed", "LS"))
    assert in_band(value, VERY_LOW_BAND)


def test_likelihood_rejects_out_of_range():
    with pytest.raises(ValueError):
        compute_likelihood(1.2, 0.5)


def test_likelihood_peak_grid_ordinal_monotonicity():
    """Across the 25 term-peak pairs: non-increasing in distance,
    non-decreasing in speed."""
    rb = likelihood_rulebase()
    d_peaks = [mf.peak for _, mf in rb.inputs[0].terms]
    s_peaks = [mf.peak for _, mf in rb.inputs[1].terms]
    table = [[compute_likelihood(d, s) for s in s_peaks] for d in d_peaks]
    for col in range(len(s_peaks)):
        column = [table[row][col] for row in range(len(d_peaks))]
        assert all(b <= a + 1e-9 for a, b in zip(column, column[1:]))
    for row in range(len(d_peaks)):
        assert all(b >= a - 1e-9 for a, b in zip(table[row], table[row][1:]))


def test_likelihood_peak_steps_monotone_at_any_fixed_coordinate():
    """Peak-to-peak steps stay ordinal even when the other input sits
    anywhere in its domain, not just on a peak."""
    rb = likelihood_rulebase()
    d_peaks = [mf.peak for _, mf in rb.inputs[0].terms]
    s_peaks = [mf.peak for _, mf in rb.inputs[1].terms]
    for d in np.linspace(0, 1, 41):
        vals = [compute_likelihood(float(d), s) for s in s_peaks]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    for s in np.linspace(0, 1, 41):
        vals = [compute_likelihood(d, float(s)) for d in d_peaks]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# fear potential
# ---------------------------------------------------------------------------

def test_potential_all_high_lands_very_high():
    assert in_band(fear_potential(EmotionInputs(0.9, 0.9, 0.9)), VERY_HIGH_BAND)


def test_potential_zero_undesirability_floors_very_low():
    for likelihood, ig in ((0.0, 0.0), (0.5, 0.9), (1.0, 1.0)):
        assert in_band(fear_potential(EmotionInputs(0.0, likelihood, ig)), VERY_LOW_BAND)


def test_potential_all_middling_lands_medium():
    assert in_band(fear_potential(EmotionInputs(0.49, 0.49, 0.49)), MEDIUM_BAND)


def test_potential_requires_concrete_likelihood():
    with pytest.raises(ValueError):
        fear_potential(EmotionInputs(0.5, None, 0.5))


def test_potential_monotone_on_coarse_grid():
    grid = np.linspace(0, 1, 11)
    vals = np.empty((11, 11, 11))
    for i, u in enumerate(grid):
        for j, l in enumerate(grid):
            for k, g in enumerate(grid):
                vals[i, j, k] = fear_potential(EmotionInputs(u, l, g))
    for axis in range(3):
        assert float(np.diff(vals, axis=axis).min()) >= -1e-9


# ---------------------------------------------------------------------------
# intensity and level
# ---------------------------------------------------------------------------

def test_intensity_zero_threshold_is_identity():
    assert fear_intensity(0.8, 0.0) == pytest.approx(0.8)


def test_intensity_below_threshold_is_zero():
    assert fear_intensity(0.5, 0.6) == 0.0


def test_intensity_subtracts_threshold():
    assert fear_intensity(0.76, 0.10) == pytest.approx(0.66)


def test_intensity_validates_range():
    with pytest.raises(ValueError):
        fear_intensity(1.2, 0.0)
    with pytest.raises(ValueError):
        fear_intensity(0.5, -0.1)


@pytest.mark.parametrize("intensity,level,display", [
    (0.49, FearLevel.MEDIUM, 49),
    (0.76, FearLevel.VERY_HIGH, 76),
    (0.06, FearLevel.VERY_LOW, 6),
    (0.30, FearLevel.LOW, 26),
    (0.16, FearLevel.VERY_LOW, 16),
    (0.26, FearLevel.LOW, 26),
    (0.36, FearLevel.LOW, 36),
    (0.66, FearLevel.HIGH, 66),
])
def test_classify_level_examples(intensity, level, display):
    got_level, got_display = classify_level(intensity)
    assert got_level is level
    assert got_display == display


def test_classify_plateau_set_is_complete():
    displays = {classify_level(i / 10000.0)[1] for i in range(10001)}
    assert displays == set(DISPLAY_PLATEAUS)


def test_classify_is_monotone_step_function():
    previous = -1
    for i in range(10001):
        display = classify_level(i / 10000.0)[1]
        assert display >= previous
        previous = display


def test_classify_tie_goes_to_higher_plateau():
    # 0.11 sits exactly between the 6 and 16 plateaus
    assert classify_level(0.11)[1] == 16


# The quantizer as a loop over the plateaus, with its plateau -> level map:
# the oracle for the table form.
PLATEAU_LEVEL = {6: FearLevel.VERY_LOW, 16: FearLevel.VERY_LOW, 26: FearLevel.LOW,
                 36: FearLevel.LOW, 49: FearLevel.MEDIUM, 66: FearLevel.HIGH,
                 76: FearLevel.VERY_HIGH}


def nearest_plateau(intensity):
    scaled = 100.0 * intensity
    display = DISPLAY_PLATEAUS[0]
    best = abs(scaled - display)
    for plateau in DISPLAY_PLATEAUS[1:]:
        d = abs(scaled - plateau)
        if d <= best:  # ties go to the higher plateau
            best = d
            display = plateau
    return display


def quantizer_probes():
    """A dense grid over [0, 1] plus 2,000 ulps either side of every midpoint."""
    grid = np.linspace(0.0, 1.0, 100_001)
    midpoints = np.array([11.0, 21.0, 31.0, 42.5, 57.5, 71.0]) / 100.0
    near = [midpoints]
    for direction in (0.0, 1.0):
        x = midpoints
        for _ in range(2000):
            x = np.nextafter(x, direction)
            near.append(x)
    return np.concatenate([grid, *near])


def test_quantizer_table_matches_the_nearest_plateau_loop():
    probes = quantizer_probes()
    want = [nearest_plateau(x) for x in probes.tolist()]
    assert [classify_level(x) for x in probes.tolist()] == [(PLATEAU_LEVEL[d], d) for d in want]
    batch = _plateau_indices(probes, np.zeros_like(probes))
    assert [DISPLAY_PLATEAUS[i] for i in batch.tolist()] == want


def test_batch_quantizer_matches_scalar_with_thresholds():
    rng = np.random.default_rng(6)
    potential = np.concatenate([rng.random(20_000), quantizer_probes(), [0.0, 1.0]])
    threshold = np.concatenate([rng.random(20_000) * 0.3,
                                rng.choice([0.0, 0.05, 0.2], potential.size - 20_000)])
    batch = _plateau_indices(potential, threshold).tolist()
    for p, t, index in zip(potential.tolist(), threshold.tolist(), batch):
        assert classify_level(fear_intensity(p, t))[1] == DISPLAY_PLATEAUS[index]


def test_batch_quantizer_rejects_potential_outside_unit_interval():
    for bad in (1.2, -0.1, float("nan")):
        with pytest.raises(ValueError, match="potential=.* outside"):
            _plateau_indices(np.array([0.5, bad, 0.3]), np.zeros(3))


# ---------------------------------------------------------------------------
# pipeline coupling
# ---------------------------------------------------------------------------

def test_closing_gap_never_lowers_display():
    """With constants fixed, shrinking the gap at constant speed must not
    lower the displayed fear.

    Checked for normalized speeds from 0.1 up (the slowest any vehicle can
    drive is min_velocity, i.e. 0.1 of the speed scale); below that the
    clip/max likelihood surface has off-scale ripples.
    """
    for speed_norm in np.linspace(0.1, 1.0, 19):
        previous = -1
        for gap_norm in np.linspace(1.0, 0.0, 401):
            likelihood = compute_likelihood(float(gap_norm), float(speed_norm))
            potential = fear_potential(EmotionInputs(1.0, likelihood, 1.0))
            display = classify_level(potential)[1]
            assert display >= previous, (speed_norm, gap_norm)
            previous = display


def test_from_name_looks_up_each_level():
    for level in FearLevel:
        assert FearLevel.from_name(level.value) is level
    with pytest.raises(ValueError, match=r"^unknown fear level 'x'$"):
        FearLevel.from_name("x")
    with pytest.raises(ValueError, match=r"^unknown fear level 'VERY_LOW'$"):
        FearLevel.from_name("VERY_LOW")
