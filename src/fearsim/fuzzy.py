"""Mamdani fuzzy inference on triangular membership functions.

The engine is deliberately small: triangular MFs only.  Each rule base
compiles its rules once; Mamdani inference (min implication, max
aggregation, centroid) and the additive variant (product, centre-average)
share one validated fuzzification of the inputs.  That step also picks the
rules that can fire: a bitmask per (input, term) marks the rules naming
that term, so ANDing, over the inputs, the masks of the nonzero terms
(plus the rules that leave the input out) drops every rule with a
zero-degree antecedent.  Only those candidates are visited, in rule
order; on the strong partitions of the shipped rule bases that is at most
4 of 25 and 8 of 125 rules.  Batch evaluators, for many points at once,
run the same arithmetic over array tables compiled next to the bitmasks
and give the same values bit for bit.  Rule bases are parsed
from a line-oriented text format (see :func:`parse_rules`) so the shipped
rule files stay inspectable and editable without touching code.

All constructed objects are immutable; evaluation is a pure function and
safe to call concurrently from multiple threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TriangularMF",
    "LinguisticVariable",
    "FuzzyRule",
    "RuleBase",
    "FuzzySet",
    "InferenceResult",
    "RuleParseError",
    "DegenerateSetError",
    "eval_trimf",
    "defuzzify_centroid",
    "parse_rules",
    "format_rules",
]

_RESOLUTION = 1001  # output-domain samples for the centroid


class RuleParseError(ValueError):
    """Raised for any problem in a rule document, with source location."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class DegenerateSetError(ValueError):
    """Raised when a fuzzy set carries no mass (all samples zero)."""


class _MasslessTermError(ValueError):
    """An output term with no mass on the sampling grid; carries its token."""

    def __init__(self, variable: str, token: str):
        super().__init__(f"output term {variable}.{token} has no mass on the "
                         f"{_RESOLUTION}-point grid")
        self.token = token


@dataclass(frozen=True)
class TriangularMF:
    """Triangular membership function with support [left, right] and apex at peak.

    A degenerate side (left == peak or peak == right) makes a shoulder:
    the membership is 1.0 exactly at that point and falls off linearly on
    the non-degenerate side.
    """

    left: float
    peak: float
    right: float

    def __post_init__(self):
        if not (self.left <= self.peak <= self.right):
            raise ValueError(
                f"triangle breakpoints must be ordered: {self.left}, {self.peak}, {self.right}"
            )

    def __call__(self, x: float) -> float:
        return eval_trimf(self, x)

    def sample(self, xs: np.ndarray) -> np.ndarray:
        """Vectorised membership over an array of points."""
        out = np.zeros_like(xs, dtype=float)
        if self.peak > self.left:
            rising = (xs > self.left) & (xs <= self.peak)
            out[rising] = (xs[rising] - self.left) / (self.peak - self.left)
        if self.right > self.peak:
            falling = (xs > self.peak) & (xs < self.right)
            out[falling] = (self.right - xs[falling]) / (self.right - self.peak)
        out[xs == self.peak] = 1.0
        return out


def eval_trimf(mf: TriangularMF, x: float) -> float:
    """Membership degree of ``x`` under ``mf``; total on all reals."""
    if x == mf.peak:
        return 1.0
    if x <= mf.left or x >= mf.right:
        return 0.0
    if x < mf.peak:
        return (x - mf.left) / (mf.peak - mf.left)
    return (mf.right - x) / (mf.right - mf.peak)


@dataclass(frozen=True)
class LinguisticVariable:
    """A named variable over a closed real domain with ordered fuzzy terms."""

    name: str
    domain: tuple[float, float]
    terms: tuple[tuple[str, TriangularMF], ...]

    def __post_init__(self):
        lo, hi = self.domain
        if not lo < hi:
            raise ValueError(f"{self.name}: empty domain [{lo}, {hi}]")
        tokens = [t for t, _ in self.terms]
        if len(set(tokens)) != len(tokens):
            raise ValueError(f"{self.name}: duplicate term tokens")
        peaks = [mf.peak for _, mf in self.terms]
        if peaks != sorted(peaks):
            raise ValueError(f"{self.name}: terms must be ordered by peak")
        for token, mf in self.terms:
            if mf.left < lo or mf.right > hi:
                raise ValueError(f"{self.name}.{token}: support exceeds domain")

    def term(self, token: str) -> TriangularMF:
        for t, mf in self.terms:
            if t == token:
                return mf
        raise KeyError(f"{self.name}: unknown term {token!r}")


@dataclass(frozen=True)
class FuzzyRule:
    """IF <var> IS <term> [AND ...] THEN <var> IS <term>."""

    antecedents: tuple[tuple[str, str], ...]
    consequent: tuple[str, str]

    def antecedent_key(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted(self.antecedents))


class FuzzySet:
    """A membership function sampled on a uniform grid over some domain."""

    def __init__(self, lo: float, hi: float, samples: np.ndarray):
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 1 or samples.size < 2:
            raise ValueError("fuzzy set needs at least two samples")
        if samples.min() < 0.0 or samples.max() > 1.0:
            raise ValueError("membership degrees must lie in [0, 1]")
        self.lo = float(lo)
        self.hi = float(hi)
        self.samples = samples
        self.grid = np.linspace(self.lo, self.hi, samples.size)


@dataclass(frozen=True)
class InferenceResult:
    value: float
    degenerate: bool


@dataclass(frozen=True)
class _BatchTables:
    """Array form of a compiled rule base, for the batch evaluators."""

    domain_lo: np.ndarray           # input domains, (n_inputs, 1) each
    domain_hi: np.ndarray
    term_input: np.ndarray          # input position of each stacked term
    left: np.ndarray                # breakpoints, (n_terms, 1) each
    peak: np.ndarray
    right: np.ndarray
    rise: np.ndarray                # peak - left, 1 for a left shoulder
    fall: np.ndarray                # right - peak, 1 for a right shoulder
    antecedent_rows: np.ndarray     # (rules, width) degree rows, padded with the ones row
    by_consequent: np.ndarray       # rule order grouped by consequent term
    group_starts: np.ndarray        # start of each group in that order
    group_spans: tuple              # (output term, first, stop) nonzero columns per group
    rule_centroid: np.ndarray       # (rules, 1) centroid of each rule's consequent


@dataclass(frozen=True)
class RuleBase:
    """An immutable Mamdani system: input variables, one output, AND-rules."""

    name: str
    inputs: tuple[LinguisticVariable, ...]
    output: LinguisticVariable
    rules: tuple[FuzzyRule, ...]

    def __post_init__(self):
        position = {v.name: p for p, v in enumerate(self.inputs)}
        if self.output.name in position:
            raise ValueError(f"output variable {self.output.name!r} shadows an input")
        input_terms = [{t: k for k, (t, _) in enumerate(v.terms)} for v in self.inputs]
        output_index = {t: k for k, (t, _) in enumerate(self.output.terms)}
        # Each rule compiles to ((input position, term index), ...) plus the
        # consequent term index, so evaluation never looks up a name.  Bit i
        # of term_rules[p][k] marks rule i as naming term k of input p; bit i
        # of free[p] marks rule i as not mentioning input p at all.
        compiled = []
        all_rules = (1 << len(self.rules)) - 1
        term_rules = [[0] * len(v.terms) for v in self.inputs]
        free = [all_rules] * len(self.inputs)
        seen: dict[tuple, int] = {}
        for i, rule in enumerate(self.rules):
            antecedents = []
            for var, term in rule.antecedents:
                if var not in position:
                    raise ValueError(f"rule {i + 1}: unknown input variable {var!r}")
                p = position[var]
                if term not in input_terms[p]:
                    raise ValueError(f"rule {i + 1}: unknown term {var}.{term}")
                k = input_terms[p][term]
                antecedents.append((p, k))
                term_rules[p][k] |= 1 << i
                free[p] &= ~(1 << i)
            cvar, cterm = rule.consequent
            if cvar != self.output.name:
                raise ValueError(f"rule {i + 1}: consequent variable must be {self.output.name!r}")
            if cterm not in output_index:
                raise ValueError(f"rule {i + 1}: unknown output term {cterm!r}")
            key = rule.antecedent_key()
            if key in seen:
                raise ValueError(f"rule {i + 1}: duplicate antecedent set (same as rule {seen[key]})")
            seen[key] = i + 1
            compiled.append((tuple(antecedents), output_index[cterm]))
        # Per input: its name, domain, (left, peak, right) per term with the
        # term's rule mask, and the mask of rules free of that input.
        fuzzifiers = tuple(
            (v.name, *v.domain,
             tuple(((mf.left, mf.peak, mf.right), rules) for (_, mf), rules in zip(v.terms, masks)),
             free_p)
            for v, masks, free_p in zip(self.inputs, term_rules, free)
        )
        # Sampling grid and per-term output samples are pure functions of the
        # immutable fields; precompute once so evaluation stays cheap.  A
        # term without mass on the grid has no centroid, so it is refused.
        lo, hi = self.output.domain
        grid = np.linspace(lo, hi, _RESOLUTION)
        term_rows = np.vstack([mf.sample(grid) for _, mf in self.output.terms])
        masses = term_rows.sum(axis=1)
        for (token, _), mass in zip(self.output.terms, masses):
            if mass == 0.0:
                raise _MasslessTermError(self.output.name, token)
        centroids = (term_rows * grid).sum(axis=1) / masses
        object.__setattr__(self, "_compiled", tuple(compiled))
        object.__setattr__(self, "_fuzzifiers", fuzzifiers)
        object.__setattr__(self, "_all_rules", all_rules)
        object.__setattr__(self, "_grid", grid)
        object.__setattr__(self, "_term_rows", term_rows)
        object.__setattr__(self, "_term_centroid", tuple(float(c) for c in centroids))

        # Array tables for the batch evaluators.  Every input term becomes a
        # row of stacked breakpoints; row n_terms of the degree matrix is all
        # ones and pads the antecedent rows of shorter rules (min with 1 and
        # product with 1 are exact).  Rules are grouped by consequent, and
        # each output term keeps the column range where it is nonzero.
        first_row = np.cumsum([0] + [len(v.terms) for v in self.inputs])
        breakpoints = np.array([(mf.left, mf.peak, mf.right) for v in self.inputs
                                for _, mf in v.terms], dtype=float).reshape(-1, 3).T[:, :, None]
        left, peak, right = breakpoints
        width = max((len(antecedents) for antecedents, _ in compiled), default=1)
        antecedent_rows = np.full((len(compiled), width), first_row[-1])
        for i, (antecedents, _) in enumerate(compiled):
            antecedent_rows[i, :len(antecedents)] = [first_row[p] + k for p, k in antecedents]
        consequents = np.array([c for _, c in compiled], dtype=int)
        by_consequent = np.argsort(consequents, kind="stable")
        used_terms, group_starts = np.unique(consequents[by_consequent], return_index=True)
        nonzero = [np.flatnonzero(row) for row in term_rows]
        domains = np.array([v.domain for v in self.inputs], dtype=float)
        object.__setattr__(self, "_batch", _BatchTables(
            domain_lo=domains[:, :1],
            domain_hi=domains[:, 1:],
            term_input=np.repeat(np.arange(len(self.inputs)), np.diff(first_row)),
            left=left, peak=peak, right=right,
            # Divisors of the rising and falling sides; a shoulder's side is
            # never taken, so 1 stands in for its zero width.
            rise=np.where(peak > left, peak - left, 1.0),
            fall=np.where(right > peak, right - peak, 1.0),
            antecedent_rows=antecedent_rows,
            by_consequent=by_consequent,
            group_starts=group_starts,
            group_spans=tuple((int(k), int(nonzero[k][0]), int(nonzero[k][-1]) + 1)
                              for k in used_terms),
            rule_centroid=np.array(self._term_centroid)[consequents][:, None],
        ))

    def _fire(self, inputs: dict[str, float]) -> tuple[list[list[float]], list[tuple]]:
        """Fuzzify ``inputs``; return the degrees and the rules that can fire.

        The one validation path for both inference variants: ``inputs``
        must carry exactly one value per input variable, inside its domain.
        Degrees come per input variable, one per term.  A rule can fire only
        if, for every input it names, one of the terms it names there has a
        nonzero degree; every other rule has strength 0 under both min and
        product, so leaving it out changes no result.  The rules that can
        fire come back compiled, in rule order.
        """
        unknown = set(inputs) - {v.name for v in self.inputs}
        if unknown:
            raise ValueError(f"unexpected input variables: {sorted(unknown)}")
        memberships = []
        mask = self._all_rules
        for name, lo, hi, terms, allowed in self._fuzzifiers:
            if name not in inputs:
                raise ValueError(f"missing input variable {name!r}")
            x = float(inputs[name])
            if not lo <= x <= hi:
                raise ValueError(f"{name}={x} outside domain [{lo}, {hi}]")
            degrees = []
            for (left, peak, right), rules in terms:
                # eval_trimf inlined, with the same expressions.
                if x == peak:
                    degree = 1.0
                elif x <= left or x >= right:
                    degree = 0.0
                elif x < peak:
                    degree = (x - left) / (peak - left)
                else:
                    degree = (right - x) / (right - peak)
                degrees.append(degree)
                if degree:
                    allowed |= rules
            memberships.append(degrees)
            mask &= allowed
        compiled = self._compiled
        fired = []
        while mask:
            lowest = mask & -mask
            fired.append(compiled[lowest.bit_length() - 1])
            mask ^= lowest
        return memberships, fired

    def evaluate_detailed(self, inputs: dict[str, float]) -> InferenceResult:
        """Run fuzzification / min-implication / max-aggregation / centroid.

        ``inputs`` must carry exactly one crisp value per input variable,
        inside that variable's domain.  When no rule fires the result is
        the midpoint of the output domain, flagged degenerate.
        """
        memberships, fired = self._fire(inputs)

        # Strongest firing strength per consequent term; max-aggregation of
        # clipped identical terms collapses to a single clip at the max.
        strongest = [0.0] * len(self.output.terms)
        for antecedents, consequent in fired:
            strength = min(memberships[p][k] for p, k in antecedents)
            if strength > strongest[consequent]:
                strongest[consequent] = strength

        lo, hi = self.output.domain
        if not any(strongest):
            return InferenceResult(value=(lo + hi) / 2.0, degenerate=True)

        aggregate = np.zeros(_RESOLUTION)
        for row, strength in zip(self._term_rows, strongest):
            if strength > 0.0:
                np.maximum(aggregate, np.minimum(row, strength), out=aggregate)
        return InferenceResult(value=_centroid(self._grid, aggregate), degenerate=False)

    def evaluate(self, inputs: dict[str, float]) -> float:
        return self.evaluate_detailed(inputs).value

    def _degrees_batch(self, inputs: dict[str, np.ndarray]) -> np.ndarray:
        """Degrees of every input term for a batch of points, one column each.

        ``inputs`` maps each input variable to an array of values, checked
        against the domain as in ``_fire``.  Row ``n_terms`` is all ones.
        The expressions are ``eval_trimf``'s, so each degree equals the
        scalar one bit for bit.
        """
        t = self._batch
        x = np.array([inputs[name] for name, *_ in self._fuzzifiers], dtype=float)
        if not ((x >= t.domain_lo) & (x <= t.domain_hi)).all():
            for (name, lo, hi, _, _), values in zip(self._fuzzifiers, x):
                for value in values.tolist():
                    if not lo <= value <= hi:
                        raise ValueError(f"{name}={value} outside domain [{lo}, {hi}]")
        x = x[t.term_input]
        degrees = np.empty((len(x) + 1, x.shape[1]))
        degrees[-1] = 1.0
        body = degrees[:-1]
        np.copyto(body, np.where(x < t.peak, (x - t.left) / t.rise, (t.right - x) / t.fall))
        body[(x <= t.left) | (x >= t.right)] = 0.0
        body[x == t.peak] = 1.0
        return degrees

    def _mamdani_batch(self, inputs: dict[str, np.ndarray]) -> np.ndarray:
        """``evaluate`` over a batch of points; equal to it bit for bit.

        The strongest firing per consequent is a max over all rules of the
        min over their antecedents (rules that cannot fire add 0).  Each
        term is clipped and aggregated only on its nonzero columns, and the
        centroid sums run along contiguous rows of the (points, grid)
        aggregate, the same pairwise sums numpy takes for a single point.
        """
        t = self._batch
        degrees = self._degrees_batch(inputs)
        strength = degrees[t.antecedent_rows].min(axis=1)
        strongest = np.maximum.reduceat(strength[t.by_consequent], t.group_starts, axis=0)
        aggregate = np.zeros((degrees.shape[1], _RESOLUTION))
        for s, (k, start, stop) in zip(strongest, t.group_spans):
            # One view as input and output: numpy updates it in place
            # (two views of the same columns would make it copy first).
            span = aggregate[:, start:stop]
            np.maximum(span, np.minimum(self._term_rows[k, start:stop], s[:, None]), out=span)
        total = aggregate.sum(axis=1)
        # The moment reuses the aggregate's memory: a second (points, grid)
        # array per call costs more than the arithmetic.
        moment = np.multiply(aggregate, self._grid, out=aggregate).sum(axis=1)
        lo, hi = self.output.domain
        value = np.full(degrees.shape[1], (lo + hi) / 2.0)
        np.divide(moment, total, out=value, where=strongest.any(axis=0))
        return value


def evaluate_additive(rulebase: RuleBase, inputs: dict[str, float]) -> float:
    """Additive variant: product t-norm with center-average defuzzification.

    Each rule contributes its consequent term's centroid, weighted by the
    product of its antecedent memberships.  With strong input partitions
    this is an exact multilinear interpolation of the consequent table,
    so it is monotone whenever the rule table is monotone; clip/max
    inference is not (a middle consequent can fade against the strength
    cap without handing its mass to a neighbour).  The fear combination
    stage evaluates through this path.
    """
    memberships, fired = rulebase._fire(inputs)
    centroids = rulebase._term_centroid
    total_weight = 0.0
    total_moment = 0.0
    for antecedents, consequent in fired:
        w = 1.0
        for p, k in antecedents:
            w *= memberships[p][k]
            if w == 0.0:
                break
        if w == 0.0:
            continue
        total_weight += w
        total_moment += w * centroids[consequent]
    lo, hi = rulebase.output.domain
    if total_weight == 0.0:
        return (lo + hi) / 2.0
    return total_moment / total_weight


def _additive_batch(rulebase: RuleBase, inputs: dict[str, np.ndarray]) -> np.ndarray:
    """``evaluate_additive`` over a batch of points; equal to it bit for bit.

    Weights are products in antecedent order; weights and moments are
    summed in rule order (a cumulative sum, never a pairwise one), where
    the zero weights of rules that cannot fire add exactly nothing.
    """
    t = rulebase._batch
    degrees = rulebase._degrees_batch(inputs)
    lo, hi = rulebase.output.domain
    value = np.full(degrees.shape[1], (lo + hi) / 2.0)
    weight = degrees[t.antecedent_rows[:, 0]]
    for rows in t.antecedent_rows.T[1:]:
        weight = weight * degrees[rows]
    total_weight = np.cumsum(weight, axis=0)[-1]
    total_moment = np.cumsum(weight * t.rule_centroid, axis=0)[-1]
    np.divide(total_moment, total_weight, out=value, where=total_weight != 0.0)
    return value


def _centroid(grid: np.ndarray, samples: np.ndarray) -> float:
    """Centroid sum(x*mu)/sum(mu) of ``samples`` taken on ``grid``."""
    total = float(samples.sum())
    if total == 0.0:
        raise DegenerateSetError("cannot defuzzify an all-zero set")
    return float((grid * samples).sum() / total)


def defuzzify_centroid(fs: FuzzySet) -> float:
    """Centroid sum(x*mu)/sum(mu) over the sample grid."""
    return _centroid(fs.grid, fs.samples)


# ---------------------------------------------------------------------------
# Rule document format
#
#   rulebase <name>
#   input <var> <lo> <hi>
#   output <var> <lo> <hi>
#   term <var> <token> <left> <peak> <right>
#   IF <var> IS <term> [AND <var> IS <term>]* THEN <var> IS <term>
#
# One statement per line.  '#' starts a comment.  Directive keywords are
# lowercase, rule keywords uppercase.  Declarations may appear in any order
# but must all precede the first rule line.
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\S+")


def _tokenize(line: str) -> list[tuple[str, int]]:
    """Tokens with 1-based column positions; comments stripped."""
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return [(m.group(0), m.start() + 1) for m in _TOKEN_RE.finditer(line)]


def _parse_float(text: str, lineno: int, col: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise RuleParseError(f"expected a number, got {text!r}", lineno, col) from None


def parse_rules(text: str) -> RuleBase:
    """Parse a self-contained rule document into a RuleBase.

    Raises :class:`RuleParseError` with line/column on syntax errors,
    references to unknown variables or terms, duplicate antecedent sets and
    output terms without mass on the sampling grid.
    """
    name = "rulebase"
    var_kind: dict[str, str] = {}
    var_domain: dict[str, tuple[float, float]] = {}
    var_terms: dict[str, list[tuple[str, TriangularMF]]] = {}
    term_at: dict[tuple[str, str], tuple[int, int]] = {}
    var_order: list[str] = []
    rules: list[FuzzyRule] = []
    seen_antecedents: dict[tuple, int] = {}
    rules_started = False

    for lineno, raw in enumerate(text.splitlines(), 1):
        tokens = _tokenize(raw)
        if not tokens:
            continue
        head, head_col = tokens[0]

        if head == "rulebase":
            if len(tokens) != 2:
                raise RuleParseError("expected: rulebase <name>", lineno, head_col)
            name = tokens[1][0]

        elif head in ("input", "output"):
            if rules_started:
                raise RuleParseError("declarations must precede rules", lineno, head_col)
            if len(tokens) != 4:
                raise RuleParseError(f"expected: {head} <var> <lo> <hi>", lineno, head_col)
            vname = tokens[1][0]
            if vname in var_kind:
                raise RuleParseError(f"variable {vname!r} already declared", lineno, tokens[1][1])
            lo = _parse_float(tokens[2][0], lineno, tokens[2][1])
            hi = _parse_float(tokens[3][0], lineno, tokens[3][1])
            var_kind[vname] = head
            var_domain[vname] = (lo, hi)
            var_terms[vname] = []
            var_order.append(vname)

        elif head == "term":
            if rules_started:
                raise RuleParseError("declarations must precede rules", lineno, head_col)
            if len(tokens) != 6:
                raise RuleParseError("expected: term <var> <token> <left> <peak> <right>", lineno, head_col)
            vname, vcol = tokens[1]
            if vname not in var_kind:
                raise RuleParseError(f"term for undeclared variable {vname!r}", lineno, vcol)
            token = tokens[2][0]
            if any(t == token for t, _ in var_terms[vname]):
                raise RuleParseError(f"duplicate term {vname}.{token}", lineno, tokens[2][1])
            a = _parse_float(tokens[3][0], lineno, tokens[3][1])
            b = _parse_float(tokens[4][0], lineno, tokens[4][1])
            c = _parse_float(tokens[5][0], lineno, tokens[5][1])
            try:
                mf = TriangularMF(a, b, c)
            except ValueError as exc:
                raise RuleParseError(str(exc), lineno, tokens[3][1]) from None
            var_terms[vname].append((token, mf))
            term_at[vname, token] = (lineno, tokens[2][1])

        elif head == "IF":
            rules_started = True
            rule = _parse_rule_line(tokens, lineno, var_kind, var_terms)
            key = rule.antecedent_key()
            if key in seen_antecedents:
                raise RuleParseError(
                    f"duplicate antecedent set (same as rule on line {seen_antecedents[key]})",
                    lineno, head_col,
                )
            seen_antecedents[key] = lineno
            rules.append(rule)

        else:
            raise RuleParseError(f"unknown statement {head!r}", lineno, head_col)

    inputs = tuple(
        LinguisticVariable(v, var_domain[v], tuple(var_terms[v]))
        for v in var_order if var_kind[v] == "input"
    )
    outputs = [v for v in var_order if var_kind[v] == "output"]
    if not inputs or len(outputs) != 1:
        raise RuleParseError(
            f"need at least one input and exactly one output, got {len(inputs)} inputs / {len(outputs)} outputs",
            lineno if text else 1,
        )
    output = LinguisticVariable(outputs[0], var_domain[outputs[0]], tuple(var_terms[outputs[0]]))
    if not rules:
        raise RuleParseError("document contains no rules", lineno if text else 1)
    try:
        return RuleBase(name=name, inputs=inputs, output=output, rules=tuple(rules))
    except _MasslessTermError as exc:
        raise RuleParseError(str(exc), *term_at[output.name, exc.token]) from None


def _parse_rule_line(tokens, lineno, var_kind, var_terms) -> FuzzyRule:
    def expect(pos: int, keyword: str):
        if pos >= len(tokens) or tokens[pos][0] != keyword:
            got = tokens[pos][0] if pos < len(tokens) else "end of line"
            col = tokens[pos][1] if pos < len(tokens) else tokens[-1][1]
            raise RuleParseError(f"expected {keyword!r}, got {got!r}", lineno, col)

    def clause(pos: int, want_kind: str) -> tuple[tuple[str, str], int]:
        if pos + 2 >= len(tokens):
            raise RuleParseError("truncated rule", lineno, tokens[-1][1])
        vname, vcol = tokens[pos]
        if vname not in var_kind:
            raise RuleParseError(f"unknown variable {vname!r}", lineno, vcol)
        if var_kind[vname] != want_kind:
            raise RuleParseError(f"{vname!r} is not an {want_kind} variable", lineno, vcol)
        expect(pos + 1, "IS")
        term, tcol = tokens[pos + 2]
        if not any(t == term for t, _ in var_terms[vname]):
            raise RuleParseError(f"unknown term {vname}.{term}", lineno, tcol)
        return (vname, term), pos + 3

    antecedents = []
    first, pos = clause(1, "input")
    antecedents.append(first)
    while pos < len(tokens) and tokens[pos][0] == "AND":
        nxt, pos = clause(pos + 1, "input")
        antecedents.append(nxt)
    expect(pos, "THEN")
    consequent, pos = clause(pos + 1, "output")
    if pos != len(tokens):
        raise RuleParseError(f"trailing tokens after rule: {tokens[pos][0]!r}", lineno, tokens[pos][1])
    return FuzzyRule(antecedents=tuple(antecedents), consequent=consequent)


def format_rules(rulebase: RuleBase) -> str:
    """Serialize a RuleBase to the rule document format.

    ``parse_rules(format_rules(rb))`` reconstructs an equal rule base.
    """
    lines = [f"rulebase {rulebase.name}"]
    for var in rulebase.inputs:
        lines.append(f"input {var.name} {var.domain[0]:g} {var.domain[1]:g}")
    lines.append(f"output {rulebase.output.name} {rulebase.output.domain[0]:g} {rulebase.output.domain[1]:g}")
    for var in (*rulebase.inputs, rulebase.output):
        for token, mf in var.terms:
            lines.append(f"term {var.name} {token} {mf.left:g} {mf.peak:g} {mf.right:g}")
    for rule in rulebase.rules:
        parts = " AND ".join(f"{v} IS {t}" for v, t in rule.antecedents)
        cvar, cterm = rule.consequent
        lines.append(f"IF {parts} THEN {cvar} IS {cterm}")
    return "\n".join(lines) + "\n"
