"""Tractable tasks on certified circuits.

Counting-style tasks need a smooth, decomposable circuit whose OR gates are
decision gates (or whose determinism the caller vouches for with
assume_deterministic, e.g. after conditioning a decision circuit, which
keeps determinism but not the syntactic shape).  Counting paths use exact
integer and Fraction arithmetic throughout; floats appear only when the
caller supplies a float semiring or float weights.

Variables of the universe that the output gate does not mention are
unconstrained: counts are scaled, enumeration expands them, sampling draws
them as fair bits.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterator, Optional

import numpy as np

from ._dag import truth_values
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


def _require_smooth_det(circuit: BoolCircuit, assume_deterministic: bool) -> tuple:
    flags = _require_dnnf(circuit)
    if not flags[3]:
        raise NotSmoothDeterministicDNNF("circuit is not smooth")
    if not flags[2] and not assume_deterministic:
        raise NotSmoothDeterministicDNNF(
            "OR gates are not decision-shaped; pass assume_deterministic=True "
            "only if determinism is certified elsewhere")
    return flags


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
    val = {v: 0 for v in circuit.universe}
    stack = [circuit.output]
    while stack:
        rec = circuit.nodes[stack.pop()]
        kind = rec[0]
        if kind == 'L':
            val[rec[1]] = 1 if rec[2] else 0
        elif kind == 'A':
            stack.extend(rec[1])
        elif kind == 'O':
            for c in rec[1]:
                if flags[c]:
                    stack.append(c)
                    break
    assert circuit.evaluate(val) == 1
    return val


# -- counting ------------------------------------------------------------------

def _gate_counts(circuit: BoolCircuit) -> list:
    if circuit._counts is not None:
        return circuit._counts
    counts = []
    for rec in circuit.nodes:
        kind = rec[0]
        if kind == 'T':
            counts.append(1)
        elif kind == 'F':
            counts.append(0)
        elif kind == 'L':
            counts.append(1)
        elif kind == 'A':
            prod = 1
            for c in rec[1]:
                prod *= counts[c]
            counts.append(prod)
        else:
            counts.append(sum(counts[c] for c in rec[1]))
    circuit._counts = counts
    return counts


def model_count(circuit: BoolCircuit, assume_deterministic: bool = False) -> int:
    """Exact number of satisfying valuations over the variable universe."""
    _require_smooth_det(circuit, assume_deterministic)
    counts = _gate_counts(circuit)
    free = len(circuit.universe) - len(circuit.varsets()[circuit.output])
    return counts[circuit.output] << free if counts[circuit.output] else 0


def wmc(circuit: BoolCircuit, weights: WeightMap, semiring: Semiring = RATIONAL,
        assume_deterministic: bool = False):
    """Semiring sum over satisfying valuations of literal weight products."""
    _require_smooth_det(circuit, assume_deterministic)
    weights.check_covers(circuit.universe)
    plus, times = semiring.plus, semiring.times
    vals = []
    for rec in circuit.nodes:
        kind = rec[0]
        if kind == 'T':
            vals.append(semiring.one)
        elif kind == 'F':
            vals.append(semiring.zero)
        elif kind == 'L':
            vals.append(weights[(rec[1], rec[2])])
        elif kind == 'A':
            acc = semiring.one
            for c in rec[1]:
                acc = times(acc, vals[c])
            vals.append(acc)
        else:
            kids = rec[1]
            acc = vals[kids[0]] if kids else semiring.zero
            for c in kids[1:]:
                acc = plus(acc, vals[c])
            vals.append(acc)
    result = vals[circuit.output]
    for v in circuit.universe - circuit.varsets()[circuit.output]:
        result = times(result, plus(weights[(v, True)], weights[(v, False)]))
    return result


def count_by_cardinality(circuit: BoolCircuit,
                         assume_deterministic: bool = False) -> list:
    """Vector c with c[k] = number of satisfying valuations of weight k.

    AND combines children by convolution, OR adds pointwise; unmentioned
    universe variables contribute a binomial factor.  A literal child of an
    AND is the polynomial z or 1, so it shifts the product instead.
    """
    _require_smooth_det(circuit, assume_deterministic)
    nodes = circuit.nodes
    vsets = circuit.varsets()
    vecs = []
    for nid, rec in enumerate(nodes):
        kind = rec[0]
        if kind == 'T':
            vecs.append([1])
        elif kind == 'F':
            vecs.append([0])
        elif kind == 'L':
            vecs.append([0, 1] if rec[2] else [1, 0])
        elif kind == 'A':
            acc = None
            positive = negative = 0
            for c in rec[1]:
                crec = nodes[c]
                if crec[0] == 'L':
                    if crec[2]:
                        positive += 1
                    else:
                        negative += 1
                    continue
                child = vecs[c]
                if acc is None:
                    acc = child
                    continue
                out = [0] * (len(acc) + len(child) - 1)
                for i, a in enumerate(acc):
                    if a:
                        for j, bv in enumerate(child):
                            if bv:
                                out[i + j] += a * bv
                acc = out
            # like the convolution it replaces, a negative literal (times 1)
            # still lengthens the vector by one
            vecs.append([0] * positive + (acc or [1]) + [0] * negative)
        else:
            width = len(vsets[nid]) + 1
            acc = [0] * width
            for c in rec[1]:
                for i, a in enumerate(vecs[c]):
                    acc[i] += a
            vecs.append(acc)
    result = vecs[circuit.output]
    free = len(circuit.universe) - len(vsets[circuit.output])
    if free:
        binom = [math.comb(free, k) for k in range(free + 1)]
        out = [0] * (len(result) + free)
        for i, a in enumerate(result):
            if a:
                for j, bv in enumerate(binom):
                    out[i + j] += a * bv
        result = out
    return result + [0] * (len(circuit.universe) + 1 - len(result))


# -- enumeration ----------------------------------------------------------------

def _expand_free(partial: dict, free_vars: list) -> Iterator[Valuation]:
    if not free_vars:
        yield dict(partial)
        return
    n = len(free_vars)
    for m in range(1 << n):
        out = dict(partial)
        for j, v in enumerate(free_vars):
            out[v] = (m >> (n - 1 - j)) & 1
        yield out


def _gen_decision(circuit: BoolCircuit, nid: int) -> Iterator[dict]:
    """Yield assignments over var(nid) for a decision-only circuit."""
    rec = circuit.nodes[nid]
    kind = rec[0]
    vsets = circuit.varsets()
    if kind == 'T':
        yield {}
    elif kind == 'F':
        return
    elif kind == 'L':
        yield {rec[1]: 1 if rec[2] else 0}
    elif kind == 'A':
        def product(idx: int, acc: dict) -> Iterator[dict]:
            if idx == len(rec[1]):
                yield acc
                return
            for part in _gen_decision(circuit, rec[1][idx]):
                merged = dict(acc)
                merged.update(part)
                yield from product(idx + 1, merged)
        yield from product(0, {})
    else:
        gate_vars = vsets[nid]
        for c in rec[1]:
            missing = sorted(gate_vars - vsets[c])
            for part in _gen_decision(circuit, c):
                yield from _expand_free(part, missing)


def _gen_conditioning(circuit: BoolCircuit) -> Iterator[Valuation]:
    """Lexicographic DFS over variables with a SAT test per branch.

    Works on any DNNF; each test is one bottom-up pass, so the delay is
    O(n |C|) and no duplicates can occur.
    """
    svars = circuit.sorted_vars()
    assignment = {}

    def literal(var, positive) -> bool:
        bit = assignment.get(var)
        return bit is None or bool(bit) == positive

    def descend(idx: int) -> Iterator[Valuation]:
        if idx == len(svars):
            yield dict(assignment)
            return
        var = svars[idx]
        for bit in (0, 1):
            assignment[var] = bit
            if truth_values(circuit.nodes, literal)[circuit.output]:
                yield from descend(idx + 1)
            del assignment[var]

    if satisfiable(circuit):
        yield from descend(0)


def enumerate_models(circuit: BoolCircuit) -> Iterator[Valuation]:
    """All satisfying valuations over the universe, each exactly once.

    Decision-only circuits take the fast path: constant memory between
    outputs and per-output work linear in the number of variables.  Other
    DNNFs fall back to conditioning, whose delay also does not grow with
    the number of answers already produced.
    """
    flags = _require_dnnf(circuit)
    if flags[2]:
        free = sorted(circuit.universe - circuit.varsets()[circuit.output])
        for part in _gen_decision(circuit, circuit.output):
            yield from _expand_free(part, free)
    else:
        yield from _gen_conditioning(circuit)


# -- sampling -------------------------------------------------------------------

def sample_uniform(circuit: BoolCircuit, rng: random.Random,
                   assume_deterministic: bool = False) -> Valuation:
    """One satisfying valuation, exactly uniform.

    Gate counts are cached on first use; each sample is a top-down descent
    choosing OR children proportionally to their counts, with unmentioned
    variables drawn as fair bits (in sorted order, for reproducibility).
    """
    _require_smooth_det(circuit, assume_deterministic)
    counts = _gate_counts(circuit)
    if counts[circuit.output] == 0:
        raise Unsatisfiable("cannot sample from an unsatisfiable circuit")
    val = {}
    stack = [circuit.output]
    while stack:
        rec = circuit.nodes[stack.pop()]
        kind = rec[0]
        if kind == 'L':
            val[rec[1]] = 1 if rec[2] else 0
        elif kind == 'A':
            stack.extend(rec[1])
        elif kind == 'O':
            r = rng.randrange(sum(counts[c] for c in rec[1]))
            for c in rec[1]:
                if r < counts[c]:
                    stack.append(c)
                    break
                r -= counts[c]
    for v in sorted(circuit.universe - set(val)):
        val[v] = rng.randrange(2)
    return val


# -- best valuation ----------------------------------------------------------------

def best_valuation(circuit: BoolCircuit, weights: WeightMap,
                   assume_deterministic: bool = False):
    """Satisfying valuation of maximal literal-weight product.

    Needs strictly positive weights; ties at an OR gate break toward the
    lowest-indexed child, and an unmentioned variable takes value 0 on a
    tie between its two weights.
    """
    _require_smooth_det(circuit, assume_deterministic)
    weights.check_covers(circuit.universe)
    best = []
    choice = []
    for rec in circuit.nodes:
        kind = rec[0]
        if kind == 'T':
            best.append(1)
            choice.append(None)
        elif kind == 'F':
            best.append(None)
            choice.append(None)
        elif kind == 'L':
            w = weights[(rec[1], rec[2])]
            if w <= 0:
                raise ValueError("best_valuation needs strictly positive weights")
            best.append(w)
            choice.append(None)
        elif kind == 'A':
            acc = 1
            for c in rec[1]:
                if best[c] is None:
                    acc = None
                    break
                acc = acc * best[c]
            best.append(acc)
            choice.append(None)
        else:
            top = None
            pick = None
            for i, c in enumerate(rec[1]):
                if best[c] is not None and (top is None or best[c] > top):
                    top = best[c]
                    pick = i
            best.append(top)
            choice.append(pick)
    if best[circuit.output] is None:
        raise Unsatisfiable("no satisfying valuation")
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
            stack.append(rec[1][choice[nid]])
    weight = best[circuit.output]
    for v in sorted(circuit.universe - set(val)):
        wpos, wneg = weights[(v, True)], weights[(v, False)]
        if wpos > wneg:
            val[v] = 1
            weight = weight * wpos
        else:
            val[v] = 0
            weight = weight * wneg
    return val, weight


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
    and is deterministic for a fixed seed.
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
    pos_mask = np.zeros(m, dtype=np.uint64)
    neg_mask = np.zeros(m, dtype=np.uint64)
    if n > 62:
        raise ValueError("sampler supports at most 62 variables")
    for j, term in enumerate(dnf.terms):
        for var, pol in term:
            per_term_p[j, var] = 1.0 if pol else 0.0
            if pol:
                pos_mask[j] |= np.uint64(1 << var)
            else:
                neg_mask[j] |= np.uint64(1 << var)

    draw_p = per_term_p[chosen]
    bits = rng.random((trials, n)) < draw_p
    powers = (1 << np.arange(n, dtype=np.uint64))
    packed = (bits * powers).sum(axis=1).astype(np.uint64)

    first = np.full(trials, m, dtype=np.int64)
    for j in range(m):
        sat = ((packed & pos_mask[j]) == pos_mask[j]) & ((packed & neg_mask[j]) == 0)
        first = np.where(sat & (first == m), j, first)
    successes = int(np.count_nonzero(first == chosen))
    return total * Fraction(successes, trials)
