"""Mamdani fuzzy inference on triangular membership functions.

The engine is deliberately small: triangular MFs only.  Each rule base
compiles its rules once into array tables: the breakpoints of every input
term, one row of term indices per rule, and the output terms sampled on a
grid.  Two batch evaluators run over those tables, many points at once:
Mamdani inference (min implication, max aggregation, centroid) and the
additive variant (product, centre-average).  Both share one validated
fuzzification of the inputs.  A single point goes through the same
evaluators as a batch of one, so there is one inference path.  Rule bases
are parsed from a line-oriented text format (see :func:`parse_rules`) so
the shipped rule files stay inspectable and editable without touching code.

All constructed objects are immutable; evaluation is a pure function and
safe to call concurrently from multiple threads.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

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
# How far the closed-form Mamdani centroid may lie from ``_mamdani_batch``'s,
# in units of the output domain's larger end (derived at
# ``RuleBase._mamdani_closed_batch``).
_CENTROID_ERROR = 1e-10
# A fired point whose aggregate sums to less than this has no proven bound:
# its products may underflow.  Under strong input partitions some rule
# fires at 0.5 or more, so the shipped rule bases never get near it.
_TINY_TOTAL = 1e-200


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


# Array form of a compiled rule base, for the batch evaluators.  (A
# namedtuple, as ``_ClosedTables`` below: a dataclass costs more at import.)
_BatchTables = namedtuple("_BatchTables", [
    "names",            # input variable names, in input order
    "domain_lo",        # input domains, (n_inputs, 1) each
    "domain_hi",
    "term_input",       # input position of each stacked term
    "left",             # breakpoints, (n_terms, 1) each
    "peak",
    "right",
    "rise",             # peak - left, 1 for a left shoulder
    "fall",             # right - peak, 1 for a right shoulder
    "antecedent_rows",  # (rules, width) degree rows, padded with the ones row
    "by_consequent",    # rule order grouped by consequent term
    "group_starts",     # start of each group in that order
    "group_spans",      # (output term, first, stop) nonzero columns per group
    "rule_centroid",    # (rules, 1) centroid of each rule's consequent
])


# Sorted-sample tables of the closed-form Mamdani centroid.  Table i is a
# row R of output samples: one used term's row, or the elementwise min of
# two overlapping ones.  It caps R at the smaller of the strongest firings
# in rows ``first[i]`` and ``second[i]`` of ``RuleBase._strongest`` (the
# same row for a term's own table).  Each table's nonzero samples are
# sorted, as int64 ``keys`` shifted by the table's ``offset``, and
# concatenated; column start_i + i + j of ``below`` holds, for the j
# smallest samples of table i, their sum and the sum of x times them, and
# the same column of ``above`` the count of the rest and their sum of x.
# An overlap's table enters the aggregate negated, so its columns are
# stored negated.  ``index`` is (tables, 1) i.  (A namedtuple: a dataclass
# costs more at import.)
_ClosedTables = namedtuple("_ClosedTables", "first second offset index keys below above")


# The bits of a nonnegative double order like the double, and for a double
# of at most 1 they read below 2**62.  Dropping the last 3 leaves 59, so
# table i's keys can start at i << 59 and 16 tables fit in int64; two
# values that share a key differ by at most 7 units in the last place.
_KEY_BITS = 59


def _sample_keys(values: np.ndarray) -> np.ndarray:
    """The int64 keys of a contiguous array of values in [0, 1], before any
    offset."""
    return values.view(np.int64) >> (62 - _KEY_BITS)


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
        # consequent term index, so the tables below never look up a name.
        compiled = []
        seen: dict[tuple, int] = {}
        for i, rule in enumerate(self.rules):
            antecedents = []
            for var, term in rule.antecedents:
                if var not in position:
                    raise ValueError(f"rule {i + 1}: unknown input variable {var!r}")
                p = position[var]
                if term not in input_terms[p]:
                    raise ValueError(f"rule {i + 1}: unknown term {var}.{term}")
                antecedents.append((p, input_terms[p][term]))
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
            names=tuple(position),
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

    def evaluate_detailed(self, inputs: dict[str, float]) -> InferenceResult:
        """Run fuzzification / min-implication / max-aggregation / centroid.

        ``inputs`` must carry exactly one crisp value per input variable,
        inside that variable's domain.  When no rule fires the result is
        the midpoint of the output domain, flagged degenerate.  The point
        goes through ``_mamdani_batch`` as a batch of one.
        """
        value, fired = self._mamdani_batch({name: (x,) for name, x in inputs.items()})
        return InferenceResult(value=value.item(), degenerate=not fired.item())

    def evaluate(self, inputs: dict[str, float]) -> float:
        return self.evaluate_detailed(inputs).value

    def _degrees_batch(self, inputs: dict[str, np.ndarray]) -> np.ndarray:
        """Degrees of every input term for a batch of points, one column each.

        The one validation path of every evaluator: ``inputs`` must map
        exactly the input variables to arrays of values inside their
        domains.  Row ``n_terms`` is all ones.  The expressions are
        ``eval_trimf``'s, so each degree equals its scalar value bit for bit.
        """
        t = self._batch
        if inputs.keys() != set(t.names):
            unknown = set(inputs) - set(t.names)
            if unknown:
                raise ValueError(f"unexpected input variables: {sorted(unknown)}")
            missing = next(name for name in t.names if name not in inputs)
            raise ValueError(f"missing input variable {missing!r}")
        x = np.array([inputs[name] for name in t.names], dtype=float)
        if not ((x >= t.domain_lo) & (x <= t.domain_hi)).all():
            for v, values in zip(self.inputs, x):
                lo, hi = v.domain
                for value in values.tolist():
                    if not lo <= value <= hi:
                        raise ValueError(f"{v.name}={value} outside domain [{lo}, {hi}]")
        x = x[t.term_input]
        degrees = np.empty((len(x) + 1, x.shape[1]))
        degrees[-1] = 1.0
        body = degrees[:-1]
        np.copyto(body, np.where(x < t.peak, (x - t.left) / t.rise, (t.right - x) / t.fall))
        body[(x <= t.left) | (x >= t.right)] = 0.0
        body[x == t.peak] = 1.0
        return degrees

    def _strongest(self, inputs: dict[str, np.ndarray]) -> np.ndarray:
        """The strongest firing of each used consequent term, (terms, points).

        A max over the term's rules of the min over their antecedents
        (rules that cannot fire add 0); rows follow ``group_spans``.
        """
        t = self._batch
        degrees = self._degrees_batch(inputs)
        strength = degrees[t.antecedent_rows].min(axis=1)
        return np.maximum.reduceat(strength[t.by_consequent], t.group_starts, axis=0)

    def _mamdani_batch(self, inputs: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Mamdani inference over a batch of points: values and "some rule fired".

        Each term is clipped at its strongest firing and aggregated only on
        its nonzero columns, and the centroid sums run along contiguous
        rows of the (points, grid) aggregate.  A point where no rule fired
        gets the midpoint of the output domain.
        """
        t = self._batch
        strongest = self._strongest(inputs)
        aggregate = np.zeros((strongest.shape[1], _RESOLUTION))
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
        value = np.full(strongest.shape[1], (lo + hi) / 2.0)
        fired = strongest.any(axis=0)
        np.divide(moment, total, out=value, where=fired)
        return value, fired

    @cached_property
    def _peaks(self) -> dict[str, np.ndarray] | None:
        """Each input's term peaks by name, built on first use, when the
        additive inference is the multilinear interpolation of the rule
        table between them; None otherwise.

        That takes a strong partition on every input (the end terms
        shoulder the domain's ends, and each term's feet are its
        neighbours' peaks, so the degrees sum to 1) and exactly one rule
        per antecedent cell, each naming every input.
        """
        for v in self.inputs:
            lo, hi = v.domain
            mfs = [mf for _, mf in v.terms]
            if (mfs[0].left, mfs[0].peak, mfs[-1].peak, mfs[-1].right) != (lo, lo, hi, hi):
                return None
            if any(a.peak >= b.peak or a.right != b.peak or b.left != a.peak
                   for a, b in zip(mfs, mfs[1:])):
                return None
        cells = {tuple(sorted(var for var, _ in rule.antecedents)) for rule in self.rules}
        if cells != {tuple(sorted(v.name for v in self.inputs))} \
                or len(self.rules) != np.prod([len(v.terms) for v in self.inputs]):
            return None
        return {v.name: np.array([mf.peak for _, mf in v.terms]) for v in self.inputs}

    @cached_property
    def _closed(self) -> _ClosedTables | None:
        """The closed form's tables, built on first use.  None when a grid
        column is covered by three or more used terms, or the tables would
        not fit their keys."""
        rows = self._term_rows[[k for k, _, _ in self._batch.group_spans]]
        if ((rows > 0.0).sum(axis=0) > 2).any():
            return None
        tables = [(a, a, rows[a]) for a in range(len(rows))]
        for a in range(len(rows)):
            for b in range(a + 1, len(rows)):
                overlap = np.minimum(rows[a], rows[b])
                if overlap.any():
                    tables.append((a, b, overlap))
        if len(tables) > 1 << (63 - _KEY_BITS):
            return None
        keys, below, above = [], [], []
        for i, (a, b, row) in enumerate(tables):
            nonzero = np.flatnonzero(row)
            order = np.argsort(row[nonzero], kind="stable")
            r, x = row[nonzero][order], self._grid[nonzero][order]
            sign = 1.0 if a == b else -1.0
            keys.append(_sample_keys(r) + (i << _KEY_BITS))
            below.append(sign * np.pad(np.cumsum([r, x * r], axis=1), ((0, 0), (1, 0))))
            above.append(sign * np.pad([np.arange(len(r), 0, -1), np.cumsum(x[::-1])[::-1]],
                                       ((0, 0), (0, 1))))
        count = len(tables)
        return _ClosedTables(
            first=np.array([a for a, _, _ in tables]),
            second=np.array([b for _, b, _ in tables]),
            offset=(np.arange(count, dtype=np.int64) << _KEY_BITS)[:, None],
            index=np.arange(count)[:, None],
            keys=np.concatenate(keys),
            below=np.concatenate(below, axis=1),
            above=np.concatenate(above, axis=1),
        )

    def _mamdani_closed_batch(self, inputs: dict[str, np.ndarray]) -> np.ndarray:
        """``_mamdani_batch``'s values to within ``_CENTROID_ERROR``, without
        the aggregate; NaN where no bound is proven.

        Where each grid column is covered by at most two used terms, the
        aggregate max_k min(T_k, s_k) is the sum over terms of min(T_k, s_k)
        less, over each overlapping pair, min(min(T_a, T_b), min(s_a, s_b)),
        as max(p, q) = p + q - min(p, q).  For a row R and a cap c, with m
        samples of R below c, sum_j min(R_j, c) is the sum of those m plus
        c times the count of the rest, and sum_j x_j min(R_j, c) the sum of
        x R over those m plus c times the rest's sum of x: lookups in
        ``_closed``, one ``searchsorted`` for all tables.  A rule base
        without tables gets NaN everywhere.

        The bound.  Let u = 2**-53, X the larger magnitude of the output
        domain's ends and n <= 1001 a table's samples.  A column's term
        mins add to at most twice its aggregate value and its overlap mins
        to at most once, so the tables' sums add to at most 3 times the
        total (3 X times it for the moment).  Each table's sum adds at most
        n + 1 nonnegative terms, one a product (all of them products of x
        and R for the moment): it is off by at most (n + 2) u of itself.  A
        sample that shares the cap's key differs from it by at most 7 units
        in the last place, 14 u of its min.  Signed sums of at most 16
        tables add 15 u.  So the total and the moment are within
        3 (n + 31) u < 3.5e-13 of the total (times X), and their quotient
        within 7e-13 X of the centroid; ``_mamdani_batch``'s pairwise sums
        of n products put its value within 2.3e-13 X of it.  The two differ
        by less than 1e-12 X, a hundredth of ``_CENTROID_ERROR`` X.  A fired
        point whose total is below ``_TINY_TOTAL`` may have underflowed and
        is NaN.  Values are clipped into the output domain, which holds the
        centroid.
        """
        strongest = self._strongest(inputs)
        lo, hi = self.output.domain
        ct = self._closed
        fired = strongest.any(axis=0)
        if ct is None:
            return np.full(fired.shape, np.nan)
        cap = np.minimum(strongest[ct.first], strongest[ct.second])
        at = np.searchsorted(ct.keys, _sample_keys(cap) + ct.offset) + ct.index
        # np.take gathers along an axis several times faster than ct.below[:, at].
        below, above = (np.take(table, at, axis=1) for table in (ct.below, ct.above))
        total, moment = (below + cap * above).sum(axis=1)
        value = np.where(fired, np.nan, (lo + hi) / 2.0)
        np.divide(moment, total, out=value, where=total >= _TINY_TOTAL)
        # np.clip costs more than both of these.
        return np.minimum(np.maximum(value, lo, out=value), hi, out=value)


def evaluate_additive(rulebase: RuleBase, inputs: dict[str, float]) -> float:
    """Additive variant: product t-norm with center-average defuzzification.

    Each rule contributes its consequent term's centroid, weighted by the
    product of its antecedent memberships.  With strong input partitions
    this is an exact multilinear interpolation of the consequent table,
    so it is monotone whenever the rule table is monotone; clip/max
    inference is not (a middle consequent can fade against the strength
    cap without handing its mass to a neighbour).  The fear combination
    stage evaluates through this path.  The point goes through
    ``_additive_batch`` as a batch of one.
    """
    return _additive_batch(rulebase, {name: (x,) for name, x in inputs.items()}).item()


def _additive_batch(rulebase: RuleBase, inputs: dict[str, np.ndarray]) -> np.ndarray:
    """Additive inference (``evaluate_additive``) over a batch of points.

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


def defuzzify_centroid(fs: FuzzySet) -> float:
    """Centroid sum(x*mu)/sum(mu) over the sample grid."""
    total = float(fs.samples.sum())
    if total == 0.0:
        raise DegenerateSetError("cannot defuzzify an all-zero set")
    return float((fs.grid * fs.samples).sum() / total)


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
    references to unknown variables or terms, empty domains, terms out of
    peak order or outside their domain, duplicate antecedent sets and
    output terms without mass on the sampling grid.
    """
    name = "rulebase"
    var_kind: dict[str, str] = {}
    variables: dict[str, LinguisticVariable] = {}  # in declaration order
    term_at: dict[tuple[str, str], tuple[int, int]] = {}
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
            variables[vname] = _variable(vname, (lo, hi), (), lineno, tokens[2][1])

        elif head == "term":
            if rules_started:
                raise RuleParseError("declarations must precede rules", lineno, head_col)
            if len(tokens) != 6:
                raise RuleParseError("expected: term <var> <token> <left> <peak> <right>", lineno, head_col)
            vname, vcol = tokens[1]
            if vname not in var_kind:
                raise RuleParseError(f"term for undeclared variable {vname!r}", lineno, vcol)
            token = tokens[2][0]
            var = variables[vname]
            if any(t == token for t, _ in var.terms):
                raise RuleParseError(f"duplicate term {vname}.{token}", lineno, tokens[2][1])
            a = _parse_float(tokens[3][0], lineno, tokens[3][1])
            b = _parse_float(tokens[4][0], lineno, tokens[4][1])
            c = _parse_float(tokens[5][0], lineno, tokens[5][1])
            try:
                mf = TriangularMF(a, b, c)
            except ValueError as exc:
                raise RuleParseError(str(exc), lineno, tokens[3][1]) from None
            term_at[vname, token] = (lineno, tokens[2][1])
            variables[vname] = _variable(vname, var.domain, (*var.terms, (token, mf)),
                                         lineno, tokens[2][1])

        elif head == "IF":
            rules_started = True
            rule = _parse_rule_line(tokens, lineno, var_kind, variables)
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

    inputs = tuple(variables[v] for v in variables if var_kind[v] == "input")
    outputs = [variables[v] for v in variables if var_kind[v] == "output"]
    if not inputs or len(outputs) != 1:
        raise RuleParseError(
            f"need at least one input and exactly one output, got {len(inputs)} inputs / {len(outputs)} outputs",
            lineno if text else 1,
        )
    output = outputs[0]
    if not rules:
        raise RuleParseError("document contains no rules", lineno if text else 1)
    try:
        return RuleBase(name=name, inputs=inputs, output=output, rules=tuple(rules))
    except _MasslessTermError as exc:
        raise RuleParseError(str(exc), *term_at[output.name, exc.token]) from None


def _variable(name: str, domain: tuple[float, float], terms: tuple, lineno: int,
              column: int) -> LinguisticVariable:
    """The variable as declared so far; its checks fail at the statement's location."""
    try:
        return LinguisticVariable(name, domain, terms)
    except ValueError as exc:
        raise RuleParseError(str(exc), lineno, column) from None


def _parse_rule_line(tokens, lineno, var_kind, variables) -> FuzzyRule:
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
        if not any(t == term for t, _ in variables[vname].terms):
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
