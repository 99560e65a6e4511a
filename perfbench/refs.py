"""Reference answers computed without kcomp.

Each function here solves one task by a method that shares no code with the
library: hash joins, transfer matrices over bounded-width CNFs, bit-parallel
truth tables, closed forms for hierarchical queries, brute force over small
instances, and a bottom-up state-distribution pass for tree automata.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd

import numpy as np

# -- conjunctive queries ---------------------------------------------------------


def path_answers(rels: dict) -> list:
    """Answers (x, y, z) of R(x, y), S(y, z) by hash join."""
    s_by_y = defaultdict(list)
    for y, z in rels['S']:
        s_by_y[y].append(z)
    return [(x, y, z) for x, y in rels['R'] for z in s_by_y.get(y, ())]


def star_answers(rels: dict) -> list:
    """Answers (x, y) of R(x, y), S(y, z), T(y, w) by semijoin."""
    s_keys = {y for y, _ in rels['S']}
    t_keys = {y for y, _ in rels['T']}
    return [(x, y) for x, y in rels['R'] if y in s_keys and y in t_keys]


def lex_sorted(answers: list, head: tuple, attrs: tuple) -> list:
    """Answers as tuples over `attrs`, sorted lexicographically."""
    pos = [head.index(a) for a in attrs]
    return sorted(tuple(ans[p] for p in pos) for ans in answers)


# -- CNF: bit-parallel truth tables ------------------------------------------------


def _var_words(var: int, num_vars: int) -> np.ndarray:
    """Packed truth-table column of a variable: bit b of the table (bit
    b % 64 of word b // 64) is set iff bit `var` of b is."""
    words = max(1, (1 << num_vars) // 64)
    if var < 6:
        pattern = 0
        for b in range(64):
            if (b >> var) & 1:
                pattern |= 1 << b
        return np.full(words, pattern, dtype=np.uint64)
    on = (np.arange(words, dtype=np.uint64) >> np.uint64(var - 6)) & np.uint64(1)
    return on * np.uint64(0xFFFFFFFFFFFFFFFF)


def truth_table_models(num_vars: int, clauses: list) -> np.ndarray:
    """Sorted model indexes; model b sets 0-based variable v to bit v of b."""
    cols = [_var_words(v, num_vars) for v in range(num_vars)]
    sat = np.full_like(cols[0], 0xFFFFFFFFFFFFFFFF)
    for clause in clauses:
        acc = np.zeros_like(sat)
        for lit in clause:
            col = cols[abs(lit) - 1]
            acc |= col if lit > 0 else ~col
        sat &= acc
    bits = np.unpackbits(sat.view(np.uint8), bitorder='little')
    return np.flatnonzero(bits[:1 << num_vars])


def model_index(valuation: dict) -> int:
    return sum(1 << v for v, bit in valuation.items() if bit)


def satisfies(clauses: list, valuation: dict) -> bool:
    return all(any((valuation[abs(l) - 1] == 1) == (l > 0) for l in c)
               for c in clauses)


class ModelSet:
    """Exact answers for a small CNF from its full model list."""

    def __init__(self, num_vars: int, clauses: list, probs: dict):
        self.num_vars = num_vars
        models = truth_table_models(num_vars, clauses)
        self.models = set(models.tolist())
        self.count = len(models)
        self.cardinality = np.bincount(np.bitwise_count(models),
                                       minlength=num_vars + 1).tolist()
        # exact model weights as integers over the common denominator
        denom = 1
        for p in probs.values():
            denom = denom * p.denominator // gcd(denom, p.denominator)
        weights = np.ones(len(models), dtype=object)
        for v in range(num_vars):
            pos = int(probs[v] * denom)
            bit = ((models >> v) & 1).astype(bool)
            weights *= np.where(bit, pos, denom - pos).astype(object)
        total = denom ** num_vars
        self.wmc = Fraction(int(weights.sum()) if len(models) else 0, total)
        self.best = Fraction(int(weights.max()) if len(models) else 0, total)

    def count_with(self, fixed: dict) -> int:
        """Models agreeing with a partial assignment {var: bit}."""
        return sum(1 for m in self.models
                   if all(((m >> v) & 1) == bit for v, bit in fixed.items()))


class BandedAnswers:
    """Exact answers for a banded CNF by a transfer matrix.

    Variables are assigned in order; the state is the assignment of the
    last width-1 variables, and each clause is checked when its largest
    variable is assigned.  Tracks the model count, the weighted count under
    `probs`, the count under uniform weight 1/3 (to check the cardinality
    vector), the best model weight, and the count with variables 0 and 1
    fixed to 1 and 0.
    """

    def __init__(self, num_vars: int, clauses: list, probs: dict, width: int = 6):
        by_last = defaultdict(list)
        for c in clauses:
            by_last[max(abs(l) for l in c) - 1].append(c)
        keep = width - 1
        # state -> (count, weighted, third, best, conditioned)
        states = {(): (1, Fraction(1), 1, Fraction(1), 1)}
        for v in range(num_vars):
            nxt = {}
            for state, vals in states.items():
                for bit in (0, 1):
                    window = state + (bit,)
                    base = v - len(state)
                    ok = all(any((window[abs(l) - 1 - base] == 1) == (l > 0)
                                 for l in c) for c in by_last[v])
                    if not ok:
                        continue
                    p = probs[v] if bit else 1 - probs[v]
                    third = 1 if bit else 2
                    pinned = {0: 1, 1: 0}.get(v)
                    cond = vals[4] if pinned is None or pinned == bit else 0
                    new = (vals[0], vals[1] * p, vals[2] * third,
                           vals[3] * p, cond)
                    key = window[-keep:] if keep else ()
                    old = nxt.get(key)
                    if old is None:
                        nxt[key] = new
                    else:
                        nxt[key] = (old[0] + new[0], old[1] + new[1],
                                    old[2] + new[2], max(old[3], new[3]),
                                    old[4] + new[4])
            states = nxt
        self.num_vars = num_vars
        self.count = sum(s[0] for s in states.values())
        self.wmc = sum((s[1] for s in states.values()), Fraction(0))
        self.third_num = sum(s[2] for s in states.values())
        self.best = max((s[3] for s in states.values()), default=Fraction(0))
        self.cond_count = sum(s[4] for s in states.values())

    def cardinality_ok(self, card: list) -> bool:
        """The cardinality vector sums to the count and reproduces the
        uniform-1/3 weighted count: sum_k card[k] * 1^k * 2^(n-k)."""
        n = self.num_vars
        return (sum(card) == self.count
                and sum(c << (n - k) for k, c in enumerate(card)) == self.third_num)


# -- probabilistic databases -------------------------------------------------------


def hierarchical_answers(facts: list) -> tuple:
    """(probability, uniform reliability) of Q() :- R(x), S(x, y).

    P = 1 - prod_x (1 - p_R(x) (1 - prod_y (1 - p_S(x, y)))); subinstances
    failing the query choose, per R fact, either R absent (any S edges) or
    R present with no edge; S edges of x without an R fact are free.
    """
    r_prob = {vals[0]: p for rel, vals, p, _ in facts if rel == 'R'}
    edges = defaultdict(list)
    for rel, vals, p, _ in facts:
        if rel == 'S':
            edges[vals[0]].append(p)
    none = Fraction(1)
    failing = 1
    free = sum(len(ps) for x, ps in edges.items() if x not in r_prob)
    for x, pr in r_prob.items():
        no_edge = Fraction(1)
        for p in edges.get(x, ()):
            no_edge *= 1 - p
        none *= 1 - pr * (1 - no_edge)
        failing *= (1 << len(edges.get(x, ()))) + 1
    return 1 - none, (1 << len(facts)) - failing * (1 << free)


def holds_hierarchical(present: set) -> bool:
    xs = {vals[0] for rel, vals in present if rel == 'R'}
    return any(rel == 'S' and vals[0] in xs for rel, vals in present)


def shapley_brute(facts: list) -> dict:
    """Shapley value of each endogenous fact of Q() :- R(x), S(x, y), from
    the definition as an average over subsets of the other players."""
    exo = {(rel, vals) for rel, vals, _, kind in facts if kind == 'x'}
    endo = [(rel, vals) for rel, vals, _, kind in facts if kind == 'n']
    m = len(endo)
    out = {}
    for target in endo:
        others = [f for f in endo if f != target]
        total = Fraction(0)
        for k in range(m):
            coeff = Fraction(factorial(k) * factorial(m - 1 - k), factorial(m))
            for subset in combinations(others, k):
                base = exo | set(subset)
                gain = (holds_hierarchical(base | {target})
                        - holds_hierarchical(base))
                if gain:
                    total += coeff * gain
        out[target] = total
    return out


def shapley_efficiency(facts: list) -> Fraction:
    """Sum of all Shapley values: v(all facts) - v(exogenous facts)."""
    everything = {(rel, vals) for rel, vals, _, _ in facts}
    exo = {(rel, vals) for rel, vals, _, kind in facts if kind == 'x'}
    return Fraction(int(holds_hierarchical(everything))
                    - int(holds_hierarchical(exo)))


def component_probability(blocks: list) -> Fraction:
    """Exact probability of Q() :- R(x), S(x, y), T(y) over disjoint blocks:
    1 - prod_blocks (1 - P(block)), each block by brute force."""
    none = Fraction(1)
    for block in blocks:
        holds = Fraction(0)
        n = len(block)
        for mask in range(1 << n):
            present = [block[i] for i in range(n) if (mask >> i) & 1]
            xs = {v[0] for rel, v, _, _ in present if rel == 'R'}
            ys = {v[0] for rel, v, _, _ in present if rel == 'T'}
            if any(rel == 'S' and v[0] in xs and v[1] in ys
                   for rel, v, _, _ in present):
                w = Fraction(1)
                for i in range(n):
                    p = block[i][2]
                    w *= p if (mask >> i) & 1 else 1 - p
                holds += w
        none *= 1 - holds
    return 1 - none


# -- trees ------------------------------------------------------------------------------


def tree_probability(nodes: list, automaton: dict, default: str) -> Fraction:
    """Acceptance probability of a probabilistic tree: each node keeps its
    label with its probability, else reads `default`.  Children come after
    their parent in preorder, so a reverse scan is bottom-up."""
    leaf = automaton['leaf']
    step = {(s1, s2, label): t for s1, s2, label, t in automaton['internal']}
    states = automaton['states']
    dist = [None] * len(nodes)
    for i in range(len(nodes) - 1, -1, -1):
        label, p, left, right = nodes[i]
        d = defaultdict(Fraction)
        for lab, w in ((label, p), (default, 1 - p)):
            if not w:
                continue
            if left < 0:
                d[leaf[lab]] += w
            else:
                for s1 in states:
                    for s2 in states:
                        pl, pr = dist[left].get(s1), dist[right].get(s2)
                        if pl and pr:
                            d[step[(s1, s2, lab)]] += w * pl * pr
        dist[i] = d
        if left >= 0:
            dist[left] = dist[right] = None
    return sum((dist[0][s] for s in automaton['accepting'] if s in dist[0]),
               Fraction(0))
