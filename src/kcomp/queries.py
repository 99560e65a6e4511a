"""Tractable tasks on certified circuits.

Counting-style tasks (model counts, weighted model counts, counts by
cardinality, the sampler's counts, best valuations) are one bottom-up
`_dag.fold` over a decomposable circuit whose OR gates are decision gates
(or whose determinism the caller vouches for with assume_deterministic,
e.g. after conditioning a decision circuit, which keeps determinism but not
the syntactic shape).  The circuit need not be smooth: the variables an OR
child misses, and those the output misses in the universe, are
unconstrained, so the fold multiplies in their contribution (a factor 2
each for counting, w(x) + w(not x) for WMC, max(w(x), w(not x)) for the
best valuation).

The exact folds run on ints.  With Fraction weights, WMC over RATIONAL and
the best valuation scale the weights of each variable x by d_x, the lcm of
their denominators: a node over V holds its value times the product of d_x
over V, as does every padded child of an OR gate (so their sums and
comparisons are exact), and one division ends the call.  Counts by
cardinality pack each polynomial in z into one int.  Floats appear only
with a float semiring or float weights.

Witnesses, samples and best valuations share one top-down descent that
picks one child per OR gate; the variables it leaves unassigned are filled
afterwards (0, fair bits, the heavier literal).  Enumeration walks the
same choices from an explicit stack (`_dag.answers`, shared with relational
circuits), taking every child of each OR gate in turn and expanding the
variables a child misses over both values.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Any, Callable, Iterator, Optional

import numpy as np

from ._dag import Intervals, answers, branch_values, fold, truth_values
from .circuits import BoolCircuit, DNFFormula, Valuation, core_flags
from .errors import (IncompleteWeightMap, NotDNNF, NotSmoothDeterministicDNNF,
                     Unsatisfiable)


@dataclass(frozen=True)
class Semiring:
    zero: Any
    one: Any
    plus: Callable[[Any, Any], Any]
    times: Callable[[Any, Any], Any]
    name: str = ""


COUNTING = Semiring(0, 1, operator.add, operator.mul, "counting")
RATIONAL = Semiring(Fraction(0), Fraction(1), operator.add, operator.mul, "rational")
FLOAT = Semiring(0.0, 1.0, operator.add, operator.mul, "float")
MAX_TIMES = Semiring(Fraction(0), Fraction(1), max, operator.mul, "max-times")


class WeightMap:
    """Total map from literals to semiring elements."""

    def __init__(self, weights: dict):
        # keys (var, polarity); polarity True for the positive literal
        self.weights = dict(weights)

    def __getitem__(self, key):
        return self.weights[key]

    @staticmethod
    def constant(variables, value) -> 'WeightMap':
        w = {}
        for v in variables:
            w[(v, True)] = value
            w[(v, False)] = value
        return WeightMap(w)

    @staticmethod
    def from_probabilities(probs: dict) -> 'WeightMap':
        """Weight p for the positive literal and 1-p for the negative one."""
        w = {}
        for v, p in probs.items():
            w[(v, True)] = p
            w[(v, False)] = 1 - p
        return WeightMap(w)

    def check_covers(self, variables) -> None:
        missing = [v for v in variables
                   if (v, True) not in self.weights or (v, False) not in self.weights]
        if missing:
            raise IncompleteWeightMap(f"no weights for variables {sorted(missing)}")


@dataclass(frozen=True)
class ApproxParams:
    epsilon: float
    delta: float
    seed: int

    def __post_init__(self):
        if not (0 < self.epsilon < 1 and 0 < self.delta < 1):
            raise ValueError("epsilon and delta must lie in (0, 1)")


# -- certification helpers ----------------------------------------------------

def _require_dnnf(circuit: BoolCircuit) -> tuple:
    flags = core_flags(circuit)
    if not (flags[0] and flags[1]):
        raise NotDNNF("operation needs a decomposable NNF circuit")
    return flags


def _require_deterministic(circuit: BoolCircuit, assume_deterministic: bool) -> tuple:
    flags = _require_dnnf(circuit)
    if not flags[2] and not assume_deterministic:
        raise NotSmoothDeterministicDNNF(
            "OR gates are not decision-shaped; pass assume_deterministic=True "
            "only if determinism is certified elsewhere")
    return flags


def _fold(circuit: BoolCircuit, literal, one, zero, times, plus, pad) -> tuple:
    """`fold` with literal((var, positive)) on inputs and one/zero on the
    constants."""
    return fold(circuit.nodes, circuit.varsets(),
                lambda rec: (literal(rec[1:]) if rec[0] == 'L'
                             else one if rec[0] == 'T' else zero),
                times, plus, pad, circuit.output, circuit.full_mask)


def _weighted_fold(circuit: BoolCircuit, weights: WeightMap, one, zero,
                   times, plus, gap) -> tuple:
    """(values, output value, pad) of the fold of literal weights, where a
    missing variable x weighs gap(w(x), w(not x)), taken from products over
    shared segment-tree pieces of the sorted universe."""
    weights.check_covers(circuit.universe)
    pieces = Intervals(circuit.sorted_vars(),
                       lambda v: gap(weights[(v, True)], weights[(v, False)]),
                       times).pieces

    def pad(value, gate, child):
        if value == zero:               # zero times anything is zero
            return value
        for piece in pieces(gate & ~child):
            value = times(value, piece)
        return value

    return _fold(circuit, weights.__getitem__, one, zero, times, plus, pad) + (pad,)


def _scaled(circuit: BoolCircuit, weights: WeightMap) -> Optional[tuple]:
    """(the weights of each x times d_x, the product of the d_x), d_x the lcm
    of the denominators of x's weights; None unless all are Fractions."""
    weights.check_covers(circuit.universe)
    ints = {}
    denominator = 1
    for v in circuit.universe:
        pos, neg = weights[(v, True)], weights[(v, False)]
        if not (isinstance(pos, Fraction) and isinstance(neg, Fraction)):
            return None
        d = math.lcm(pos.denominator, neg.denominator)
        ints[(v, True)] = pos.numerator * (d // pos.denominator)
        ints[(v, False)] = neg.numerator * (d // neg.denominator)
        denominator *= d
    return WeightMap(ints), denominator


def _descend(circuit: BoolCircuit, pick, fill) -> Valuation:
    """A model from one top-down walk through every AND child and the child
    pick(gate, children) names at each OR gate; the variables the walk
    leaves unassigned then take fill(var), in sorted order."""
    val = {}
    stack = [circuit.output]
    while stack:
        nid = stack.pop()
        rec = circuit.nodes[nid]
        kind = rec[0]
        if kind == 'L':
            val[rec[1]] = 1 if rec[2] else 0
        elif kind == 'A':
            stack.extend(rec[1])
        elif kind == 'O':
            stack.append(pick(nid, rec[1]))
    for v in sorted(circuit.universe - val.keys()):
        val[v] = fill(v)
    return val


# -- SAT and witness ----------------------------------------------------------

def _sat_flags(circuit: BoolCircuit) -> list:
    return truth_values(circuit.nodes, lambda var, positive: True)


def satisfiable(circuit: BoolCircuit) -> bool:
    """One bottom-up pass; sound thanks to decomposability."""
    _require_dnnf(circuit)
    return _sat_flags(circuit)[circuit.output]


def witness(circuit: BoolCircuit) -> Optional[Valuation]:
    """A satisfying valuation, or None; unassigned variables default to 0."""
    _require_dnnf(circuit)
    flags = _sat_flags(circuit)
    if not flags[circuit.output]:
        return None
    val = _descend(circuit, lambda nid, kids: next(c for c in kids if flags[c]),
                   lambda var: 0)
    assert circuit.evaluate(val) == 1
    return val


# -- counting ------------------------------------------------------------------

def _shift(count: int, gate: int, child: int) -> int:
    return count << (gate & ~child).bit_count()


def _gate_counts(circuit: BoolCircuit) -> tuple:
    """(model count of every node over its own variables, model count over
    the universe), cached on the circuit."""
    if circuit._counts is None:
        circuit._counts = _fold(circuit, lambda key: 1, 1, 0,
                                operator.mul, operator.add, _shift)
    return circuit._counts


def model_count(circuit: BoolCircuit, assume_deterministic: bool = False) -> int:
    """Exact number of satisfying valuations over the variable universe."""
    _require_deterministic(circuit, assume_deterministic)
    return _gate_counts(circuit)[1]


def wmc(circuit: BoolCircuit, weights: WeightMap, semiring: Semiring = RATIONAL,
        assume_deterministic: bool = False):
    """Semiring sum over satisfying valuations of literal weight products
    (over RATIONAL with Fraction weights, on `_scaled` numerators)."""
    _require_deterministic(circuit, assume_deterministic)
    scaled = _scaled(circuit, weights) if semiring is RATIONAL else None
    if scaled is not None:
        top = _weighted_fold(circuit, scaled[0], 1, 0, operator.mul,
                             operator.add, operator.add)[1]
        return Fraction(top, scaled[1])
    return _weighted_fold(circuit, weights, semiring.one, semiring.zero,
                          semiring.times, semiring.plus, semiring.plus)[1]


def count_by_cardinality(circuit: BoolCircuit,
                         assume_deterministic: bool = False) -> list:
    """Vector c with c[k] = number of satisfying valuations of weight k.

    The fold over polynomials in z, valued at z = 2^B: a positive literal
    is z, a negative one 1, AND multiplies, OR adds and k missing variables
    multiply by (z + 1)^k.  The output's coefficients are nonnegative and
    add up to the model count, below 2^B, so they are its base-2^B digits.
    """
    _require_deterministic(circuit, assume_deterministic)
    width = _gate_counts(circuit)[1].bit_length() // 8 + 1     # bytes per digit
    z = 1 << 8 * width
    rows = {}

    def pad(value: int, gate: int, child: int) -> int:
        k = (gate & ~child).bit_count()
        row = rows.get(k) if value else 1       # no row for a child without models
        if row is None:
            row = rows[k] = (z + 1) ** k
        return value * row

    _, top = _fold(circuit, lambda key: z if key[1] else 1, 1, 0,
                   operator.mul, operator.add, pad)
    digits = top.to_bytes(width * (len(circuit.universe) + 1), 'little')
    return [int.from_bytes(digits[i:i + width], 'little')
            for i in range(0, len(digits), width)]


# -- enumeration ----------------------------------------------------------------

def _gen_conditioning(circuit: BoolCircuit) -> Iterator[Valuation]:
    """Lexicographic DFS over variables with a SAT test per branch.

    Works on any DNNF; each test is one bottom-up pass, so the delay is
    O(n |C|) and no duplicates can occur.  The assignment is the stack: it
    holds the smallest variables in order, and bit is the next value to try
    for the first variable it lacks.
    """
    svars = circuit.sorted_vars()
    assignment = {}

    def literal(var, positive) -> bool:
        bit = assignment.get(var)
        return bit is None or bool(bit) == positive

    if not satisfiable(circuit):
        return
    bit = 0
    while True:
        depth = len(assignment)
        if depth == len(svars):
            yield dict(assignment)
        elif bit < 2:
            assignment[svars[depth]] = bit
            if truth_values(circuit.nodes, literal)[circuit.output]:
                bit = 0
            else:
                bit = assignment.popitem()[1] + 1
            continue
        if not assignment:
            return
        bit = assignment.popitem()[1] + 1


def enumerate_models(circuit: BoolCircuit) -> Iterator[Valuation]:
    """All satisfying valuations over the universe, each exactly once.

    Decision-only circuits take the fast path, the stack-based
    `_dag.answers` walk shared with relational circuits: it takes each
    child of an OR gate in turn and expands the variables that child
    misses, in memory linear in the circuit whatever its depth.  Other
    DNNFs fall back to conditioning, whose delay also does not grow with
    the number of answers already produced.
    """
    flags = _require_dnnf(circuit)
    if flags[2]:
        for model in answers(circuit.nodes, circuit.varsets(),
                             lambda rec: (rec[1], 1 if rec[2] else 0),
                             lambda var: (0, 1), circuit.output,
                             circuit.full_mask, circuit.sorted_vars()):
            yield model.copy()
    else:
        yield from _gen_conditioning(circuit)


# -- sampling -------------------------------------------------------------------

def sample_uniform(circuit: BoolCircuit, rng: random.Random,
                   assume_deterministic: bool = False) -> Valuation:
    """One satisfying valuation, exactly uniform.

    Gate counts are cached on first use; each sample is a top-down descent
    choosing OR children proportionally to their counts over the gate's
    variables, with the variables it leaves unassigned drawn as fair bits
    (in sorted order, for reproducibility).
    """
    _require_deterministic(circuit, assume_deterministic)
    counts, total = _gate_counts(circuit)
    if total == 0:
        raise Unsatisfiable("cannot sample from an unsatisfiable circuit")
    sets = circuit.varsets()

    def pick(nid: int, kids: tuple) -> int:
        weights = branch_values(counts, sets, _shift, nid, kids)
        r = rng.randrange(sum(weights))
        for c, w in zip(kids, weights):
            if r < w:
                return c
            r -= w

    return _descend(circuit, pick, lambda var: rng.randrange(2))


# -- best valuation ----------------------------------------------------------------

def _times_or_none(a, b):
    return None if a is None or b is None else a * b


def _max_or_none(a, b):
    return a if b is None or (a is not None and a >= b) else b


def best_valuation(circuit: BoolCircuit, weights: WeightMap,
                   assume_deterministic: bool = False):
    """Satisfying valuation of maximal literal-weight product, with that
    product.

    The max-times fold, where None stands for "no valuation" and 0 is an
    ordinary weight, on `_scaled` numerators for Fraction weights.  Ties at
    an OR gate break toward the lowest-indexed child, and a variable the
    descent leaves unassigned takes its heavier literal, value 0 on a tie
    between its two weights.
    """
    _require_deterministic(circuit, assume_deterministic)
    ints, denominator = _scaled(circuit, weights) or (weights, None)
    vals, top, pad = _weighted_fold(circuit, ints, 1, None,
                                    _times_or_none, _max_or_none, max)
    if top is None:
        raise Unsatisfiable("no satisfying valuation")
    sets = circuit.varsets()

    def pick(nid: int, kids: tuple) -> int:
        values = branch_values(vals, sets, pad, nid, kids)
        return kids[values.index(reduce(_max_or_none, values))]

    val = _descend(circuit, pick,
                   lambda v: 1 if weights[(v, True)] > weights[(v, False)] else 0)
    return val, top if denominator is None else Fraction(top, denominator)


# -- approximate DNF counting --------------------------------------------------

def karp_luby_sample_count(num_terms: int, params: ApproxParams) -> int:
    """Classical trial budget 3 m ln(2/delta) / epsilon^2."""
    return math.ceil(3 * num_terms * math.log(2 / params.delta)
                     / (params.epsilon ** 2))


def approx_count_dnf(dnf: DNFFormula, probs: dict, params: ApproxParams) -> Fraction:
    """Multiplicative (1 +- epsilon) estimate of the satisfaction probability.

    Monte Carlo over (term, assignment) pairs: draw a term proportionally
    to its probability, draw an assignment conditioned on the term, and
    score a success when the drawn term is the first satisfied one.  The
    estimate is the exact term-probability total times the success rate,
    clamped to [largest term probability, 1], and is deterministic for a
    fixed seed.
    """
    probs = {v: Fraction(p) for v, p in probs.items()}
    for v in range(dnf.num_vars):
        if v not in probs:
            raise IncompleteWeightMap(f"no probability for variable {v}")
    if not dnf.terms:
        return Fraction(0)
    term_probs = []
    for term in dnf.terms:
        p = Fraction(1)
        for var, pol in term:
            p *= probs[var] if pol else 1 - probs[var]
        term_probs.append(p)
    total = sum(term_probs)
    if total == 0:
        return Fraction(0)
    if len(dnf.terms) == 1:
        return term_probs[0]

    n = dnf.num_vars
    m = len(dnf.terms)
    trials = karp_luby_sample_count(m, params)
    rng = np.random.default_rng(params.seed)
    choice_p = np.array([float(p / total) for p in term_probs])
    choice_p = choice_p / choice_p.sum()
    chosen = rng.choice(m, size=trials, p=choice_p)

    base = np.array([float(probs[v]) for v in range(n)])
    per_term_p = np.tile(base, (m, 1))
    for j, term in enumerate(dnf.terms):
        for var, pol in term:
            per_term_p[j, var] = pol
    bits = rng.random((trials, n)) < per_term_p[chosen]

    first = np.full(trials, m, dtype=np.int64)
    for j, term in enumerate(dnf.terms):
        pos = np.array([var for var, pol in term if pol], dtype=np.intp)
        neg = np.array([var for var, pol in term if not pol], dtype=np.intp)
        sat = bits[:, pos].all(1) & ~bits[:, neg].any(1)
        first = np.where(sat & (first == m), j, first)
    estimate = total * Fraction(int(np.count_nonzero(first == chosen)), trials)
    # P(DNF) lies between its likeliest term and 1
    return min(max(estimate, max(term_probs)), Fraction(1))
