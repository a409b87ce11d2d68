"""Fuzzy engine: membership, parsing, inference, defuzzification."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fearsim.emotion import fear_rulebase, likelihood_rulebase
from fearsim.fuzzy import (
    _CENTROID_ERROR,
    DegenerateSetError,
    FuzzyRule,
    FuzzySet,
    InferenceResult,
    LinguisticVariable,
    RuleBase,
    RuleParseError,
    TriangularMF,
    defuzzify_centroid,
    eval_trimf,
    _additive_batch,
    evaluate_additive,
    format_rules,
    parse_rules,
)

# ---------------------------------------------------------------------------
# membership functions
# ---------------------------------------------------------------------------

def test_trimf_apex():
    assert eval_trimf(TriangularMF(0, 0.5, 1), 0.5) == 1.0


def test_trimf_left_slope():
    assert eval_trimf(TriangularMF(0, 0.5, 1), 0.25) == 0.5


def test_trimf_outside_support():
    assert eval_trimf(TriangularMF(0, 0.5, 1), 1.2) == 0.0
    assert eval_trimf(TriangularMF(0, 0.5, 1), -0.1) == 0.0


def test_trimf_degenerate_shoulders():
    left = TriangularMF(0, 0, 0.3)
    right = TriangularMF(0.7, 1, 1)
    assert eval_trimf(left, 0.0) == 1.0
    assert eval_trimf(right, 1.0) == 1.0
    assert eval_trimf(left, 0.15) == 0.5
    assert eval_trimf(right, 0.85) == 0.5


def test_trimf_rejects_disordered_breakpoints():
    with pytest.raises(ValueError):
        TriangularMF(0.5, 0.2, 1.0)


@given(
    st.floats(min_value=-2, max_value=2),
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=1),
)
def test_trimf_degree_always_in_unit_interval(x, a, b, c):
    lo, mid, hi = sorted((a, b, c))
    degree = eval_trimf(TriangularMF(lo, mid, hi), x)
    assert 0.0 <= degree <= 1.0


def test_trimf_sample_matches_scalar():
    mf = TriangularMF(0.1, 0.4, 0.9)
    xs = np.linspace(-0.2, 1.2, 357)
    sampled = mf.sample(xs)
    for x, got in zip(xs, sampled):
        assert got == pytest.approx(eval_trimf(mf, float(x)), abs=1e-12)


# ---------------------------------------------------------------------------
# linguistic variables
# ---------------------------------------------------------------------------

def _five_term_variable(name):
    return LinguisticVariable(name, (0.0, 1.0), (
        ("VL", TriangularMF(0.0, 0.0, 0.3)),
        ("L", TriangularMF(0.0, 0.3, 0.49)),
        ("M", TriangularMF(0.3, 0.49, 0.705)),
        ("H", TriangularMF(0.49, 0.705, 1.0)),
        ("VH", TriangularMF(0.705, 1.0, 1.0)),
    ))


def test_variable_rejects_duplicate_tokens():
    with pytest.raises(ValueError, match="duplicate"):
        LinguisticVariable("v", (0, 1), (
            ("A", TriangularMF(0, 0, 1)),
            ("A", TriangularMF(0, 1, 1)),
        ))


def test_variable_rejects_support_outside_domain():
    with pytest.raises(ValueError, match="support"):
        LinguisticVariable("v", (0, 1), (("A", TriangularMF(-0.5, 0, 1)),))


def test_variable_rejects_unordered_peaks():
    with pytest.raises(ValueError, match="ordered"):
        LinguisticVariable("v", (0, 1), (
            ("A", TriangularMF(0, 0.8, 1)),
            ("B", TriangularMF(0, 0.2, 1)),
        ))


# ---------------------------------------------------------------------------
# rule parsing
# ---------------------------------------------------------------------------

SMALL_DOC = """\
# two-rule toy system
rulebase toy
input x 0 1
output y 0 1
term x LOW 0 0 0.6
term x HIGH 0.4 1 1
term y SMALL 0 0.25 0.5
term y BIG 0.5 0.75 1
IF x IS LOW THEN y IS SMALL
IF x IS HIGH THEN y IS BIG
"""


def test_parse_small_document():
    rb = parse_rules(SMALL_DOC)
    assert rb.name == "toy"
    assert len(rb.rules) == 2
    assert rb.rules[0].antecedents == (("x", "LOW"),)
    assert rb.rules[0].consequent == ("y", "SMALL")


# A term this narrow falls between two grid samples and has no mass.
MASSLESS_DOC = SMALL_DOC.replace("term y BIG 0.5 0.75 1", "term y BIG 0.33333 0.33333 0.33333")


def test_rulebase_rejects_massless_output_term():
    rb = parse_rules(SMALL_DOC)
    thin = TriangularMF(0.33333, 0.33333, 0.33333)
    output = LinguisticVariable("y", (0.0, 1.0), (rb.output.terms[0], ("BIG", thin)))
    with pytest.raises(ValueError, match=r"output term y\.BIG has no mass"):
        RuleBase(name="toy", inputs=rb.inputs, output=output, rules=rb.rules)


def test_parse_reports_massless_output_term_at_its_line():
    with pytest.raises(RuleParseError, match=r"y\.BIG has no mass") as exc:
        parse_rules(MASSLESS_DOC)
    assert (exc.value.line, exc.value.column) == (8, 8)


# A declaration that LinguisticVariable refuses, and where the parser
# reports it: the term's token, or the domain's lower bound.
BAD_VARIABLE_DOCS = [
    (SMALL_DOC.replace("term x LOW 0 0 0.6\nterm x HIGH 0.4 1 1", "term x HIGH 0.4 1 1\nterm x LOW 0 0 0.6"),
     r"x: terms must be ordered by peak", (6, 8)),
    (SMALL_DOC.replace("term x HIGH 0.4 1 1", "term x HIGH 0.4 1 1.5"),
     r"x\.HIGH: support exceeds domain", (6, 8)),
    (SMALL_DOC.replace("term y SMALL 0 0.25 0.5", "term y SMALL -0.5 0.25 0.5"),
     r"y\.SMALL: support exceeds domain", (7, 8)),
    (SMALL_DOC.replace("input x 0 1", "input x 1 1"), r"x: empty domain", (3, 9)),
    (SMALL_DOC.replace("output y 0 1", "output y 1 0"), r"y: empty domain", (4, 10)),
]


@pytest.mark.parametrize("doc,message,where", BAD_VARIABLE_DOCS, ids=[
    "peak-order", "input-support", "output-support", "input-domain", "output-domain"])
def test_parse_reports_variable_errors_at_their_line(doc, message, where):
    with pytest.raises(RuleParseError, match=message) as exc:
        parse_rules(doc)
    assert (exc.value.line, exc.value.column) == where


def test_parse_rule_line_matches_clauses():
    rb = parse_rules(SMALL_DOC)
    assert rb.rules[1] == FuzzyRule(antecedents=(("x", "HIGH"),), consequent=("y", "BIG"))


def test_parse_rejects_bad_keyword_with_location():
    doc = SMALL_DOC.replace("IF x IS LOW", "IF x IZ LOW")
    with pytest.raises(RuleParseError) as err:
        parse_rules(doc)
    assert err.value.line == 9
    assert "IS" in str(err.value)


def test_parse_rejects_unknown_variable():
    doc = SMALL_DOC + "IF z IS LOW THEN y IS SMALL\n"
    with pytest.raises(RuleParseError, match="unknown variable 'z'"):
        parse_rules(doc)


def test_parse_rejects_unknown_term():
    doc = SMALL_DOC + "IF x IS MIDDLING THEN y IS SMALL\n"
    with pytest.raises(RuleParseError, match="unknown term x.MIDDLING"):
        parse_rules(doc)


def test_parse_rejects_duplicate_antecedents():
    doc = SMALL_DOC + "IF x IS LOW THEN y IS BIG\n"
    with pytest.raises(RuleParseError, match="duplicate antecedent"):
        parse_rules(doc)


def test_parse_reports_column_of_offending_token():
    with pytest.raises(RuleParseError) as err:
        parse_rules("rulebase t\ninput x 0 one\n")
    assert err.value.line == 2
    assert err.value.column == 11


def test_round_trip_identity():
    rb = parse_rules(SMALL_DOC)
    assert parse_rules(format_rules(rb)) == rb


def test_round_trip_shipped_files():
    from importlib import resources

    for name in ("likelihood.rules", "fear.rules"):
        text = resources.files("fearsim.data").joinpath(name).read_text()
        rb = parse_rules(text)
        assert parse_rules(format_rules(rb)) == rb


# ---------------------------------------------------------------------------
# defuzzification
# ---------------------------------------------------------------------------

def test_centroid_symmetric_triangle():
    xs = np.linspace(0, 1, 1001)
    samples = TriangularMF(0.25, 0.5, 0.75).sample(xs)
    assert defuzzify_centroid(FuzzySet(0, 1, samples)) == pytest.approx(0.5, abs=1e-12)


def test_centroid_uniform_mass():
    assert defuzzify_centroid(FuzzySet(0, 1, np.ones(1001))) == pytest.approx(0.5, abs=1e-12)


def test_centroid_all_zero_raises():
    with pytest.raises(DegenerateSetError):
        defuzzify_centroid(FuzzySet(0, 1, np.zeros(101)))


def clipped_triangle_centroid(left, peak, right, clip):
    """Closed-form centroid of a triangle clipped at a given height."""
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


def test_centroid_against_analytic_oracle_at_1e6_samples():
    left, peak, right, clip = 0.13, 0.52, 0.97, 0.6
    xs = np.linspace(0, 1, 1_000_001)
    samples = np.minimum(TriangularMF(left, peak, right).sample(xs), clip)
    got = defuzzify_centroid(FuzzySet(0, 1, samples))
    want = clipped_triangle_centroid(left, peak, right, clip)
    assert got == pytest.approx(want, abs=1e-6)


def test_centroid_within_nonzero_hull():
    rng = np.random.default_rng(7)
    xs = np.linspace(0, 1, 2001)
    for _ in range(50):
        a, b, c = np.sort(rng.uniform(0, 1, 3))
        clip = rng.uniform(0.05, 1.0)
        samples = np.minimum(TriangularMF(a, b, c).sample(xs), clip)
        if samples.sum() == 0:
            continue
        centroid = defuzzify_centroid(FuzzySet(0, 1, samples))
        nz = xs[samples > 0]
        assert nz.min() <= centroid <= nz.max()


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------

def _toy_rulebase():
    return parse_rules(SMALL_DOC)


# Every entry point into inference, called on one point.
_ENTRY_POINTS = pytest.mark.parametrize("infer", [
    lambda rb, inputs: rb.evaluate(inputs),
    evaluate_additive,
    lambda rb, inputs: rb._mamdani_batch({name: np.array([x]) for name, x in inputs.items()}),
], ids=["evaluate", "evaluate_additive", "mamdani_batch"])


@_ENTRY_POINTS
def test_evaluate_requires_every_input(infer):
    with pytest.raises(ValueError, match=r"^missing input variable 'x'$"):
        infer(_toy_rulebase(), {})
    with pytest.raises(ValueError, match=r"^unexpected input variables: \['zz'\]$"):
        infer(_toy_rulebase(), {"x": 0.5, "zz": 0.1})


@_ENTRY_POINTS
def test_evaluate_rejects_out_of_domain(infer):
    with pytest.raises(ValueError, match=r"^x=1\.4 outside domain \[0\.0, 1\.0\]$"):
        infer(_toy_rulebase(), {"x": 1.4})
    with pytest.raises(ValueError, match=r"^x=nan outside domain \[0\.0, 1\.0\]$"):
        infer(_toy_rulebase(), {"x": float("nan")})


def test_evaluate_rejects_unknown_input():
    with pytest.raises(ValueError, match="unexpected"):
        _toy_rulebase().evaluate({"x": 0.5, "zz": 0.1})


def test_no_rule_fires_returns_midpoint_flagged():
    doc = """\
rulebase gap
input x 0 1
output y 0 1
term x EDGE 0.8 0.9 1
term y ONLY 0 0.5 1
IF x IS EDGE THEN y IS ONLY
"""
    rb = parse_rules(doc)
    result = rb.evaluate_detailed({"x": 0.1})
    assert result.degenerate
    assert result.value == pytest.approx(0.5)


def test_equal_fire_lands_between_consequent_centroids():
    # x = 0.5 fires LOW and HIGH equally; the defuzzified value must sit
    # strictly between the two consequent term centroids.
    rb = _toy_rulebase()
    xs = np.linspace(0, 1, 200_001)
    small = np.minimum(TriangularMF(0, 0.25, 0.5).sample(xs), eval_trimf(TriangularMF(0, 0, 0.6), 0.5))
    big = np.minimum(TriangularMF(0.5, 0.75, 1).sample(xs), eval_trimf(TriangularMF(0.4, 1, 1), 0.5))
    agg = np.maximum(small, big)
    oracle = float((xs * agg).sum() / agg.sum())
    got = rb.evaluate({"x": 0.5})
    assert got == pytest.approx(oracle, abs=5e-4)
    small_centroid = 0.25
    big_centroid = 0.75
    assert small_centroid < got < big_centroid


def test_evaluate_is_pure():
    rb = _toy_rulebase()
    first = rb.evaluate({"x": 0.37})
    for _ in range(5):
        assert rb.evaluate({"x": 0.37}) == first


def test_additive_matches_consequent_centroid_at_peaks():
    rb = _toy_rulebase()
    # x at the LOW term peak fires only SMALL; the additive value is the
    # SMALL term centroid exactly.
    assert evaluate_additive(rb, {"x": 0.0}) == pytest.approx(0.25, abs=1e-9)
    assert evaluate_additive(rb, {"x": 1.0}) == pytest.approx(0.75, abs=1e-9)


def test_additive_is_monotone_for_monotone_table():
    rb = _toy_rulebase()
    values = [evaluate_additive(rb, {"x": x}) for x in np.linspace(0, 1, 101)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


@settings(max_examples=50)
@given(st.floats(min_value=0, max_value=1))
def test_evaluate_stays_in_output_domain(x):
    rb = _toy_rulebase()
    assert 0.0 <= rb.evaluate({"x": x}) <= 1.0


# ---------------------------------------------------------------------------
# single points against a full rule scan
# ---------------------------------------------------------------------------

def full_scan(rb, inputs):
    """Reference inference that visits every rule in order, by name.

    One point in plain Python floats: the min/max/centroid and
    product/centre-average arithmetic the batch evaluators must reproduce
    bit for bit.  Returns (Mamdani result, additive value).
    """
    degrees = {v.name: {t: eval_trimf(mf, float(inputs[v.name])) for t, mf in v.terms}
               for v in rb.inputs}
    output_index = {t: k for k, (t, _) in enumerate(rb.output.terms)}
    strongest = [0.0] * len(rb.output.terms)
    total_weight = 0.0
    total_moment = 0.0
    for rule in rb.rules:
        antecedent_degrees = [degrees[var][term] for var, term in rule.antecedents]
        consequent = output_index[rule.consequent[1]]
        strength = min(antecedent_degrees)
        if strength > strongest[consequent]:
            strongest[consequent] = strength
        w = 1.0
        for d in antecedent_degrees:
            w *= d
            if w == 0.0:
                break
        if w == 0.0:
            continue
        total_weight += w
        total_moment += w * rb._term_centroid[consequent]

    lo, hi = rb.output.domain
    if not any(strongest):
        mamdani = InferenceResult(value=(lo + hi) / 2.0, degenerate=True)
    else:
        grid = np.linspace(lo, hi, 1001)
        aggregate = np.zeros(1001)
        for (_, mf), strength in zip(rb.output.terms, strongest):
            if strength > 0.0:
                np.maximum(aggregate, np.minimum(mf.sample(grid), strength), out=aggregate)
        mamdani = InferenceResult(value=defuzzify_centroid(FuzzySet(lo, hi, aggregate)),
                                  degenerate=False)
    additive = (lo + hi) / 2.0 if total_weight == 0.0 else total_moment / total_weight
    return mamdani, additive


def assert_matches_full_scan(rb, inputs):
    mamdani, additive = full_scan(rb, inputs)
    assert repr(rb.evaluate_detailed(inputs)) == repr(mamdani)
    assert repr(rb.evaluate(inputs)) == repr(mamdani.value)
    assert repr(evaluate_additive(rb, inputs)) == repr(additive)


# Breakpoints on a coarse grid, so drawn inputs land exactly on peaks and
# support ends as well as between them.
_KNOTS = [i / 8 for i in range(9)]


@st.composite
def triangles(draw, min_width=0.0):
    a, b, c = sorted(draw(st.lists(st.sampled_from(_KNOTS), min_size=3, max_size=3)))
    if c - a < min_width:
        a, b, c = 0.0, 0.5, 1.0
    return TriangularMF(a, b, c)


def _variable(name, mfs):
    mfs = sorted(mfs, key=lambda mf: mf.peak)
    return LinguisticVariable(name, (0.0, 1.0), tuple((f"t{k}", mf) for k, mf in enumerate(mfs)))


@st.composite
def rulebases(draw, outputs=None):
    """Arbitrary rule bases: overlapping or gapped terms, rules over any
    subset of the inputs (an input may even appear twice in one rule), and
    rule tables with holes.  ``outputs`` draws the output variable."""
    n_inputs = draw(st.integers(1, 3))
    inputs = tuple(
        _variable(f"x{p}", draw(st.lists(triangles(), min_size=1, max_size=4)))
        for p in range(n_inputs)
    )
    if outputs is not None:
        output = draw(outputs)
    else:
        # Output terms keep some width so each has mass on the sampling grid.
        output = _variable("y", draw(st.lists(triangles(min_width=0.25), min_size=1, max_size=3)))
    clause = st.integers(0, n_inputs - 1).flatmap(
        lambda p: st.tuples(st.just(p), st.integers(0, len(inputs[p].terms) - 1)))
    rules, keys = [], set()
    for clauses in draw(st.lists(st.lists(clause, min_size=1, max_size=4, unique=True),
                                 min_size=1, max_size=16)):
        antecedents = tuple((inputs[p].name, inputs[p].terms[k][0]) for p, k in clauses)
        key = tuple(sorted(antecedents))
        if key in keys:
            continue
        keys.add(key)
        consequent = ("y", draw(st.sampled_from([t for t, _ in output.terms])))
        rules.append(FuzzyRule(antecedents=antecedents, consequent=consequent))
    return RuleBase(name="drawn", inputs=inputs, output=output, rules=tuple(rules))


_unit_inputs = st.one_of(st.sampled_from(_KNOTS), st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(rulebases(), st.data())
def test_drawn_rulebases_match_full_scan(rb, data):
    inputs = {v.name: data.draw(_unit_inputs) for v in rb.inputs}
    assert_matches_full_scan(rb, inputs)


@settings(max_examples=200, deadline=None)
@given(rulebases())
def test_drawn_rulebases_round_trip(rb):
    text = format_rules(rb)
    assert parse_rules(text) == rb
    assert format_rules(parse_rules(text)) == text


_shipped_knots = [0.0, 0.3, 0.49, 0.705, 1.0]
_shipped_inputs = st.one_of(st.sampled_from(_shipped_knots), st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(_shipped_inputs, _shipped_inputs)
def test_shipped_likelihood_rules_match_full_scan(distance, speed):
    assert_matches_full_scan(likelihood_rulebase(), {"distance": distance, "speed": speed})


@settings(max_examples=200, deadline=None)
@given(_shipped_inputs, _shipped_inputs, _shipped_inputs)
def test_shipped_fear_rules_match_full_scan(undesirability, likelihood, ig):
    assert_matches_full_scan(fear_rulebase(), {
        "undesirability": undesirability, "likelihood": likelihood, "ig": ig,
    })


# ---------------------------------------------------------------------------
# batch evaluators against the full rule scan
# ---------------------------------------------------------------------------

def assert_batch_matches_full_scan(rb, points):
    """The whole batch, and each point as a batch of one (numpy may sum a
    single column in another order than several), give the full scan's
    values, and flag as fired exactly the points it finds not degenerate."""
    for batch in (points, *([p] for p in points)):
        columns = {v.name: np.array([p[v.name] for p in batch]) for v in rb.inputs}
        scans = [full_scan(rb, p) for p in batch]
        values, fired = rb._mamdani_batch(columns)
        assert [repr(x) for x in values.tolist()] == [repr(m.value) for m, _ in scans]
        assert fired.tolist() == [not m.degenerate for m, _ in scans]
        assert [repr(x) for x in _additive_batch(rb, columns).tolist()] == \
            [repr(additive) for _, additive in scans]


@settings(max_examples=100, deadline=None)
@given(rulebases(), st.data())
def test_drawn_rulebases_batch_matches_scalar(rb, data):
    points = data.draw(st.lists(st.fixed_dictionaries({v.name: _unit_inputs for v in rb.inputs}),
                                min_size=1, max_size=12))
    assert_batch_matches_full_scan(rb, points)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(*[_shipped_inputs] * 3), min_size=1, max_size=40))
def test_shipped_rules_batch_matches_scalar(triples):
    assert_batch_matches_full_scan(likelihood_rulebase(),
                                   [{"distance": a, "speed": b} for a, b, _ in triples])
    assert_batch_matches_full_scan(fear_rulebase(), [
        {"undesirability": a, "likelihood": b, "ig": c} for a, b, c in triples])


# ---------------------------------------------------------------------------
# the closed-form Mamdani centroid
# ---------------------------------------------------------------------------

@st.composite
def pairwise_outputs(draw):
    """Output variables whose terms overlap at most in pairs: term k spans
    ends k to k + 2 of one increasing sequence, so it ends where term k + 2
    starts.  Peaks anywhere in the support, shoulders included."""
    lo, hi = draw(st.sampled_from([(0.0, 1.0), (-2.0, 3.0), (10.0, 20.0)]))
    steps = draw(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=7))
    ends = [lo + (hi - lo) * x for x in np.cumsum([0.0, *steps]) / sum(steps)]
    ends[-1] = hi
    terms, peak = [], lo
    for k in range(len(ends) - 2):
        where = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))
        peak = min(max(peak, ends[k] + where * (ends[k + 2] - ends[k])), ends[k + 2])
        terms.append((f"t{k}", TriangularMF(ends[k], peak, ends[k + 2])))
    return LinguisticVariable("y", (lo, hi), tuple(terms))


def covered_thrice(rb):
    """Whether some grid column lies under three or more used output terms."""
    used = [k for k, _, _ in rb._batch.group_spans]
    return bool(((rb._term_rows[used] > 0.0).sum(axis=0) > 2).any())


def table_pairs(rb):
    """The pair of strongest-firing rows that caps each closed-form table."""
    return list(zip(rb._closed.first.tolist(), rb._closed.second.tolist()))


@settings(max_examples=200, deadline=None)
@given(rulebases(outputs=pairwise_outputs()), st.data())
def test_closed_form_centroid_is_within_its_bound(rb, data):
    points = data.draw(st.lists(st.fixed_dictionaries({v.name: _unit_inputs for v in rb.inputs}),
                                min_size=1, max_size=12))
    columns = {v.name: np.array([p[v.name] for p in points]) for v in rb.inputs}
    closed = rb._mamdani_closed_batch(columns)
    if covered_thrice(rb):
        assert rb._closed is None
        assert np.isnan(closed).all()
        return
    exact, fired = rb._mamdani_batch(columns)
    lo, hi = rb.output.domain
    unproven = np.isnan(closed)
    # Only a total that may have underflowed leaves a point unproven.
    assert (rb._strongest(columns).max(axis=0)[unproven] < 1e-199).all()
    error = np.abs(closed - exact)[~unproven]
    assert (error <= _CENTROID_ERROR / 100 * max(abs(lo), abs(hi))).all()
    assert ((lo <= closed[~unproven]) & (closed[~unproven] <= hi)).all()
    assert closed[~fired].tolist() == exact[~fired].tolist()


def test_closed_form_tables_of_the_shipped_likelihood_rules():
    rb = likelihood_rulebase()
    # Five terms and four overlapping neighbours, each a table.
    assert table_pairs(rb) == [(k, k) for k in range(5)] + [(k, k + 1) for k in range(4)]
    rng = np.random.default_rng(7)
    columns = {"distance": rng.random(5000), "speed": rng.random(5000)}
    columns["distance"][:25] = np.repeat(_shipped_knots, 5)
    columns["speed"][:25] = np.tile(_shipped_knots, 5)
    closed = rb._mamdani_closed_batch(columns)
    assert np.abs(closed - rb._mamdani_batch(columns)[0]).max() <= _CENTROID_ERROR / 100


def test_a_column_under_three_terms_gets_no_tables():
    doc = SMALL_DOC.replace("term y SMALL 0 0.25 0.5",
                            "term y SMALL 0 0.25 0.6\nterm y MID 0.1 0.5 0.9")
    rb = parse_rules(doc + "IF x IS LOW AND x IS HIGH THEN y IS MID\n")
    assert covered_thrice(rb)
    assert rb._closed is None
    assert np.isnan(rb._mamdani_closed_batch({"x": np.array([0.0, 0.5, 1.0])})).all()
    # Unused terms do not count: without a rule for MID, SMALL and BIG
    # overlap in pairs.
    assert table_pairs(parse_rules(doc)) == [(0, 0), (1, 1), (0, 1)]


def test_closed_form_rejects_what_the_exact_path_rejects():
    rb = likelihood_rulebase()
    with pytest.raises(ValueError, match=r"speed=1\.5 outside domain"):
        rb._mamdani_closed_batch({"distance": np.array([0.5, 0.5]), "speed": np.array([0.5, 1.5])})
    with pytest.raises(ValueError, match=r"^missing input variable 'speed'$"):
        rb._mamdani_closed_batch({"distance": np.array([0.5])})


def test_batch_rejects_out_of_domain():
    rb = likelihood_rulebase()
    with pytest.raises(ValueError, match=r"speed=1\.5 outside domain"):
        rb._mamdani_batch({"distance": np.array([0.5, 0.5]), "speed": np.array([0.5, 1.5])})
    with pytest.raises(ValueError, match=r"distance=nan outside domain"):
        rb._mamdani_batch({"distance": np.array([np.nan]), "speed": np.array([0.5])})
