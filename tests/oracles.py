"""Independent reference implementations used as test oracles.

These deliberately avoid the package's algorithmic paths: truth tables are
computed with bitmask arithmetic straight off the node records, joins by
backtracking over atoms, probabilities by explicit sums over subsets.  The
one exception, `shapley_by_conditioning`, keeps an older, slower route
through the package's circuit transformations as a reference at sizes the
subset sums cannot reach, and `smooth_per_variable` keeps the package's
older smoothing, with one padding edge per missing variable, as the
reference that the shared interval gadgets of `smooth` must agree with.
Likewise `enumerate_decision_recursive` and `enumerate_rel_recursive` keep
the package's older recursive enumerators, whose answer sequences the
stack-based `_dag.answers` must reproduce in order, and `var_sets` keeps
the package's older per-node frozensets of variables, which its variable
masks must decode to.  `split_flags`, `decision_var` and `decision_attr`
keep the package's older certification, one pass per flag and the
decision shape derived per gate, which the one-pass `_dag.certify` and
its recorded decision maps must agree with.  `compile_dpll_reference`
keeps the package's older DPLL compiler, which sorted every residual into
its cache key and swept it for components at every step; the incremental
search must build its circuit node for node, with the same statistics.
`cardinality_by_convolution`, `RATIONAL_GENERIC` and
`best_valuation_generic` keep the package's older exact folds, over lists
of coefficients and over Fractions, which its integer folds must match.
`check_determinism_semantic`, `verify_equivalence` and `structurally_equal`
are exhaustive checkers over 2^n valuations or whole node lists that no
library path calls.  `approx_count_dnf_dense` keeps the package's older
Karp-Luby counter, which drew every trial at once into dense trials x n
matrices; the chunked counter must give the same estimate for a seed.  `tree_acceptance_probability` sums state distributions
bottom-up over a tree of any depth, and `_recursion_limit_near_current_depth`
lets a test show that a library path does not recurse with its input.
"""

import operator
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from heapq import heappop, heappush
from math import comb, factorial
from typing import Optional

import numpy as np

from kcomp._dag import branch_values, components, trampoline, truth_values
from kcomp.circuits import CircuitBuilder
from kcomp.cnf import CompileStats
from kcomp.queries import (Semiring, _descend, _fold, _max_or_none,
                           _times_or_none, _weighted_fold, karp_luby_sample_count)


# -- Boolean circuits: truth tables as bit masks ------------------------------

def truth_table(circuit):
    """Bitmask of satisfying valuations over the sorted universe.

    Bit b encodes the valuation where variable j (j-th smallest) takes the
    bit (n-1-j) of b, i.e. the smallest variable is the most significant
    position, matching the bitstring notation x1 x2 ... xn.
    """
    svars = circuit.sorted_vars()
    n = len(svars)
    full = (1 << (1 << n)) - 1
    # mask for variable j: bit b is set iff bit (n-1-j) of b is 1, i.e.
    # alternating blocks of 2^(n-1-j) zeros then ones
    masks = {}
    for j, v in enumerate(svars):
        width = 1 << (n - 1 - j)
        unit = ((1 << width) - 1) << width
        m = 0
        for start in range(0, 1 << n, width * 2):
            m |= unit << start
        masks[v] = m
    vals = []
    for rec in circuit.nodes:
        kind = rec[0]
        if kind == 'T':
            vals.append(full)
        elif kind == 'F':
            vals.append(0)
        elif kind == 'L':
            m = masks[rec[1]]
            vals.append(m if rec[2] else full & ~m)
        elif kind == 'N':
            vals.append(full & ~vals[rec[1]])
        elif kind == 'A':
            acc = full
            for c in rec[1]:
                acc &= vals[c]
            vals.append(acc)
        else:
            acc = 0
            for c in rec[1]:
                acc |= vals[c]
            vals.append(acc)
    return vals[circuit.output]


def structurally_equal(a, b):
    """Same node list, output and universe."""
    return (a.nodes == b.nodes and a.output == b.output
            and a.universe == b.universe)


@dataclass
class DeterminismVerdict:
    status: str                      # 'deterministic' | 'notDeterministic' | 'unknown'
    witness: Optional[dict] = None


def check_determinism_semantic(circuit, max_vars=20):
    """Brute-force determinism check; 'unknown' above the variable cap.

    Valuations are scanned in lexicographic order (smallest variable is the
    most significant bit); the first valuation satisfying two children of
    one OR gate is returned as the witness.
    """
    svars = circuit.sorted_vars()
    n = len(svars)
    if n > max_vars:
        return DeterminismVerdict('unknown')
    or_gates = [(nid, rec[1]) for nid, rec in enumerate(circuit.nodes)
                if rec[0] == 'O' and len(rec[1]) > 1]
    if not or_gates:
        return DeterminismVerdict('deterministic')
    for m in range(1 << n):
        val = {svars[j]: (m >> (n - 1 - j)) & 1 for j in range(n)}
        vals = truth_values(circuit.nodes,
                            lambda var, positive: val[var] == positive)
        for nid, kids in or_gates:
            if sum(vals[c] for c in kids) >= 2:
                return DeterminismVerdict('notDeterministic', val)
    return DeterminismVerdict('deterministic')


def bit_to_valuation(bit_index, svars):
    n = len(svars)
    return {v: (bit_index >> (n - 1 - j)) & 1 for j, v in enumerate(svars)}


def models_of(circuit):
    """Set of satisfying valuations as bitstrings x1..xn."""
    table = truth_table(circuit)
    svars = circuit.sorted_vars()
    n = len(svars)
    out = set()
    for b in range(1 << n):
        if (table >> b) & 1:
            out.add(format(b, f'0{n}b') if n else '')
    return out


def var_sets(nodes):
    """Per node, the frozenset of the variables of the inputs below it (the
    attributes, for a relational circuit)."""
    sets = []
    for rec in nodes:
        kind = rec[0]
        if kind in ('L', 'I'):
            sets.append(frozenset((rec[1],)))
        elif kind == 'N':
            sets.append(sets[rec[1]])
        elif kind in ('A', 'O', 'J', 'U'):
            sets.append(frozenset().union(*(sets[c] for c in rec[1])))
        else:
            sets.append(frozenset())
    return tuple(sets)


def split_flags(nodes, sets):
    """(decomposable, smooth): the children of every AND/join gate have
    disjoint variables, so their popcounts add up to the gate's, and every
    child of an OR/union gate has the gate's variables."""
    decomposable = all(sum(sets[c].bit_count() for c in rec[1])
                       == sets[nid].bit_count()
                       for nid, rec in enumerate(nodes) if rec[0] in ('A', 'J'))
    smooth = all(sets[c] == sets[nid] for nid, rec in enumerate(nodes)
                 if rec[0] in ('O', 'U') for c in rec[1])
    return decomposable, smooth


def decision_var(circuit, gate):
    """Variable tested by a decision-shaped OR gate, else None.

    Shape: exactly two AND children, one holding a negative and the
    other a positive literal of the same variable as a direct input.
    """
    rec = circuit.nodes[gate]
    if rec[0] != 'O' or len(rec[1]) != 2:
        return None
    sides = []
    for c in rec[1]:
        crec = circuit.nodes[c]
        if crec[0] != 'A':
            return None
        lits = {}
        for g in crec[1]:
            grec = circuit.nodes[g]
            if grec[0] == 'L':
                lits.setdefault(grec[1], set()).add(grec[2])
        sides.append(lits)
    for var in sides[0]:
        if var in sides[1]:
            pols0, pols1 = sides[0][var], sides[1][var]
            if (False in pols0 and True in pols1 and True not in pols0
                    and False not in pols1):
                return var
            if (True in pols0 and False in pols1 and False not in pols0
                    and True not in pols1):
                return var
    return None


def decision_attr(circuit, nid):
    """Attribute tested by a decision-shaped union, else None.

    Each child must be a binary join of an input on one common attribute
    and a continuation not mentioning it, with pairwise distinct values.
    """
    rec = circuit.nodes[nid]
    if rec[0] != 'U' or not rec[1]:
        return None
    attrsets = circuit.attrsets()
    options = []
    for c in rec[1]:
        crec = circuit.nodes[c]
        if crec[0] != 'J' or len(crec[1]) != 2:
            return None
        cands = {}
        for inp in crec[1]:
            other = crec[1][0] if inp == crec[1][1] else crec[1][1]
            irec = circuit.nodes[inp]
            if irec[0] == 'I' and not attrsets[other] >> irec[1] & 1:
                cands.setdefault(irec[1], irec[2])
        if not cands:
            return None
        options.append(cands)
    shared = set(options[0])
    for cands in options[1:]:
        shared &= set(cands)
    for attr in sorted(shared):
        values = [cands[attr] for cands in options]
        if len(set(values)) == len(values):
            return attr
    return None


def smooth_per_variable(circuit):
    """Smoothing that conjoins one tautology gadget (x and 1) or (not x and
    1) per missing variable to each OR child, in sorted variable order;
    an already smooth circuit is returned as is."""
    from kcomp.circuits import CircuitBuilder, core_flags
    is_nnf, is_decomposable, _, is_smooth = core_flags(circuit)
    assert is_nnf and is_decomposable
    if is_smooth:
        return circuit
    vsets = var_sets(circuit.nodes)
    b = CircuitBuilder(circuit.universe)
    gadgets = {}

    def gadget(var):
        g = gadgets.get(var)
        if g is None:
            g = b.disj((b.conj((b.literal(var, True), b.true())),
                        b.conj((b.literal(var, False), b.true()))))
            gadgets[var] = g
        return g

    out = []
    for nid, rec in enumerate(circuit.nodes):
        kind = rec[0]
        if kind == 'T':
            out.append(b.true())
        elif kind == 'F':
            out.append(b.false())
        elif kind == 'L':
            out.append(b.literal(rec[1], rec[2]))
        elif kind == 'A':
            out.append(b.conj(tuple(out[c] for c in rec[1])))
        else:
            gate_vars = vsets[nid]
            new_children = []
            for c in rec[1]:
                missing = gate_vars - vsets[c]
                mapped = out[c]
                if missing:
                    pads = tuple(gadget(v) for v in sorted(missing))
                    if circuit.nodes[c][0] == 'A':
                        mapped = b.conj(tuple(b.children(mapped)) + pads)
                    else:
                        mapped = b.conj((mapped,) + pads)
                new_children.append(mapped)
            out.append(b.disj(tuple(new_children)))
    return b.finish(out[circuit.output], circuit.var_names)


def _expand_free(partial, free_vars):
    if not free_vars:
        yield dict(partial)
        return
    n = len(free_vars)
    for m in range(1 << n):
        out = dict(partial)
        for j, v in enumerate(free_vars):
            out[v] = (m >> (n - 1 - j)) & 1
        yield out


def _gen_decision(circuit, vsets, nid):
    """Assignments over var(nid) of a decision-only circuit whose nodes
    have the variable sets vsets."""
    rec = circuit.nodes[nid]
    kind = rec[0]
    if kind == 'T':
        yield {}
    elif kind == 'F':
        return
    elif kind == 'L':
        yield {rec[1]: 1 if rec[2] else 0}
    elif kind == 'A':
        def product(idx, acc):
            if idx == len(rec[1]):
                yield acc
                return
            for part in _gen_decision(circuit, vsets, rec[1][idx]):
                merged = dict(acc)
                merged.update(part)
                yield from product(idx + 1, merged)
        yield from product(0, {})
    else:
        gate_vars = vsets[nid]
        for c in rec[1]:
            missing = sorted(gate_vars - vsets[c])
            for part in _gen_decision(circuit, vsets, c):
                yield from _expand_free(part, missing)


def enumerate_decision_recursive(circuit):
    """Models of a decision-only DNNF in the order of the package's older
    recursive enumerator: the first AND child varies slowest, an OR's
    chosen child slower than the variables it misses, and those (like the
    variables outside the output) as binary numbers, smallest variable
    first."""
    vsets = var_sets(circuit.nodes)
    free = sorted(circuit.universe - vsets[circuit.output])
    for part in _gen_decision(circuit, vsets, circuit.output):
        yield from _expand_free(part, free)


def enumerate_rel_recursive(circuit):
    """Tuples of a decomposable relational circuit with disjoint unions, in
    the order of the package's older recursive enumerator (missing
    attributes expanded over their extended domains, in domain order)."""
    attrsets = var_sets(circuit.nodes)

    def expand(partial, missing):
        if not missing:
            yield dict(partial)
            return
        first, rest = missing[0], missing[1:]
        for value in circuit.ext_domain_values(first):
            partial[first] = value
            yield from expand(partial, rest)
        del partial[first]

    def gen(nid):
        rec = circuit.nodes[nid]
        kind = rec[0]
        if kind == 'I':
            yield {rec[1]: circuit.domains[rec[1]][rec[2]]}
        elif kind == '1':
            yield {}
        elif kind == '0':
            return
        elif kind == 'J':
            def product(idx, acc):
                if idx == len(rec[1]):
                    yield acc
                    return
                for part in gen(rec[1][idx]):
                    merged = dict(acc)
                    merged.update(part)
                    yield from product(idx + 1, merged)
            yield from product(0, {})
        else:
            gate = attrsets[nid]
            for c in rec[1]:
                missing = sorted(gate - attrsets[c])
                for part in gen(c):
                    yield from expand(part, missing)

    outside = sorted(set(range(len(circuit.attrs))) - attrsets[circuit.output])
    for part in gen(circuit.output):
        for full in expand(part, outside):
            yield {circuit.attrs[i]: v for i, v in full.items()}


def count_models(circuit):
    return truth_table(circuit).bit_count()


def weighted_sum(circuit, weights):
    """Sum over satisfying valuations of literal weight products."""
    svars = circuit.sorted_vars()
    n = len(svars)
    table = truth_table(circuit)
    total = Fraction(0)
    for b in range(1 << n):
        if (table >> b) & 1:
            w = Fraction(1)
            for j, v in enumerate(svars):
                bit = (b >> (n - 1 - j)) & 1
                w *= weights[(v, bool(bit))]
            total += w
    return total


# -- the generic folds that the integer folds replace --------------------------

# equal to RATIONAL but not the same object, so `wmc` takes the generic fold
RATIONAL_GENERIC = Semiring(Fraction(0), Fraction(1), operator.add,
                            operator.mul, "rational")


def _convolve(a, b):
    """Product of two polynomials in z, as coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def cardinality_by_convolution(circuit):
    """`count_by_cardinality` as the fold over coefficient lists: a node's
    list has one entry per weight 0..|var(node)|, AND convolves, OR adds,
    and k missing variables convolve with the binomial row (1 + z)^k."""
    def pad(vec, gate, child):
        k = (gate & ~child).bit_count()
        return _convolve(vec, [comb(k, j) for j in range(k + 1)])

    _, top = _fold(circuit, lambda key: [0, 1] if key[1] else [1, 0], [1], [0],
                   _convolve, lambda a, b: [x + y for x, y in zip(a, b)], pad)
    return top


def best_valuation_generic(circuit, weights):
    """`best_valuation` as the max-times fold on the weights as given, with
    the same descent and ties; None when the circuit has no model."""
    vals, top, pad = _weighted_fold(circuit, weights, 1, None,
                                    _times_or_none, _max_or_none, max)
    if top is None:
        return None
    sets = circuit.varsets()

    def pick(nid, kids):
        values = branch_values(vals, sets, pad, nid, kids)
        return kids[values.index(reduce(_max_or_none, values))]

    val = _descend(circuit, pick,
                   lambda v: 1 if weights[(v, True)] > weights[(v, False)] else 0)
    return val, top


def valuation_to_bits(val, svars):
    return ''.join(str(val[v]) for v in svars)


# -- CNF --------------------------------------------------------------------

def cnf_models(num_vars, clauses):
    """Set of satisfying bitstrings of a DIMACS-literal clause list."""
    out = set()
    for b in range(1 << num_vars):
        val = {j: (b >> (num_vars - 1 - j)) & 1 for j in range(num_vars)}
        ok = True
        for clause in clauses:
            if not any((val[abs(l) - 1] == 1) == (l > 0) for l in clause):
                ok = False
                break
        if ok:
            out.add(format(b, f'0{num_vars}b') if num_vars else '')
    return out


@dataclass
class EquivalenceVerdict:
    status: str                      # 'equivalent' | 'differs' | 'unknown'
    witness: Optional[dict] = None


def verify_equivalence(formula, circuit, max_vars=16):
    """Exhaustive formula/circuit comparison, capped by variable count."""
    n = formula.num_vars
    if n > max_vars:
        return EquivalenceVerdict('unknown')
    for m in range(1 << n):
        val = {j: (m >> (n - 1 - j)) & 1 for j in range(n)}
        f_val = all(any((val[abs(lit) - 1] == 1) == (lit > 0) for lit in c)
                    for c in formula.clauses)
        if int(f_val) != circuit.evaluate(val):
            return EquivalenceVerdict('differs', val)
    return EquivalenceVerdict('equivalent')


def clause_components(clauses):
    """Clause groups of the connected components of the variable graph, by
    union-find: groups in order of their first clause, clauses in order."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for clause in clauses:
        it = iter(clause)
        first = abs(next(it))
        parent.setdefault(first, first)
        for lit in it:
            v = abs(lit)
            parent.setdefault(v, v)
            ra, rb = find(first), find(v)
            if ra != rb:
                parent[ra] = rb
    groups = {}
    for clause in clauses:
        root = find(abs(next(iter(clause))))
        groups.setdefault(root, []).append(clause)
    return list(groups.values())


# -- DPLL ------------------------------------------------------------------------

def _reference_pick(clauses, masks, heuristic):
    if heuristic == 'first_unassigned':
        union = reduce(operator.or_, masks)
        return (union & -union).bit_length() - 1
    if heuristic == 'most_occurrences':
        occ = {}
        for clause in clauses:
            for lit in clause:
                occ[abs(lit)] = occ.get(abs(lit), 0) + 1
        best = max(occ.items(), key=lambda kv: (kv[1], -kv[0]))
        return best[0]
    if heuristic == 'min_cut_greedy':
        neigh = {}
        for clause in clauses:
            cvars = {abs(lit) for lit in clause}
            for v in cvars:
                neigh.setdefault(v, set()).update(cvars - {v})
        return min(neigh.items(), key=lambda kv: (len(kv[1]), kv[0]))[0]
    raise ValueError(f"unknown heuristic {heuristic!r}")


def compile_dpll_reference(formula, heuristic='first_unassigned', use_cache=True):
    """The package's older `compile_dpll`: every step copies the residual,
    sweeps it through `components` and sorts it into its cache key."""
    b = CircuitBuilder(formula.num_vars)
    stats = CompileStats()
    cache = {}
    clauses = [tuple(sorted(c)) for c in formula.clauses]
    occurs = [[] for _ in range(formula.num_vars + 1)]
    for cid, clause in enumerate(clauses):
        for var in {abs(lit) for lit in clause}:
            occurs[var].append(cid)

    def restrict(residual, lit):
        cur = dict(residual)
        units = [] if lit else [cid for cid, (c, _) in cur.items() if len(c) < 2]
        forced = []
        while True:
            var = abs(lit)
            for cid in occurs[var]:
                entry = cur.get(cid)
                if entry is None:
                    continue
                clause = entry[0]
                if lit in clause:
                    del cur[cid]
                    continue
                clause = tuple([x for x in clause if x != -lit])
                if not clause:
                    return forced, None
                cur[cid] = (clause, entry[1] ^ (1 << var))
                if len(clause) == 1:
                    heappush(units, cid)
            while units:
                entry = cur.get(heappop(units))
                if entry is not None:
                    break
            else:
                return forced, cur
            if not entry[0]:
                return forced, None
            lit = entry[0][0]
            forced.append(lit)

    def solve(residual):
        if not residual:
            return b.true()
        clauses, masks = zip(*residual.values())
        key = None
        if use_cache:
            key = tuple(sorted(clauses))
            hit = cache.get(key)
            if hit is not None:
                stats.cache_hits += 1
                return hit
        comps = components(list(residual), masks)
        if len(comps) > 1:
            stats.component_splits += 1
            parts = []
            for comp in comps:
                parts.append((yield solve({cid: residual[cid] for cid in comp})))
            node = b.conj(tuple(parts))
        else:
            var = _reference_pick(clauses, masks, heuristic)
            stats.decision_count += 1
            lo = yield branch(residual, -var)
            node = b.decision(var - 1, lo, (yield branch(residual, var)))
        if use_cache:
            cache[key] = node
        return node

    def branch(residual, lit):
        forced, residual = restrict(residual, lit)
        if residual is None:
            return b.false()
        node = yield solve(residual)
        for lit in reversed(forced):
            if lit > 0:
                node = b.decision(lit - 1, b.false(), node)
            else:
                node = b.decision(-lit - 1, node, b.false())
        return node

    masks = [0] * len(clauses)
    for cid, clause in enumerate(clauses):
        for lit in clause:
            masks[cid] |= 1 << abs(lit)
    root = trampoline(branch({cid: (c, masks[cid]) for cid, c in enumerate(clauses)}, 0))
    stats.peak_cache_entries = len(cache)
    return b.finish(root), stats


# -- DNF probability ----------------------------------------------------------

def dnf_probability(terms, probs):
    """Inclusion-exclusion over the terms; probs maps var -> Fraction."""
    m = len(terms)
    total = Fraction(0)
    for mask in range(1, 1 << m):
        merged = {}
        consistent = True
        for j in range(m):
            if (mask >> j) & 1:
                for var, pol in terms[j]:
                    if merged.setdefault(var, pol) != pol:
                        consistent = False
                        break
                if not consistent:
                    break
        if not consistent:
            continue
        p = Fraction(1)
        for var, pol in merged.items():
            p *= probs[var] if pol else 1 - probs[var]
        bits = bin(mask).count('1')
        total += p if bits % 2 == 1 else -p
    return total


def approx_count_dnf_dense(dnf, probs, params):
    """Karp-Luby as the package ran it before chunking: every trial's
    assignment drawn at once, from a trials x n matrix of per-term
    probabilities indexed by the chosen terms."""
    probs = {v: Fraction(p) for v, p in probs.items()}
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
    return min(max(estimate, max(term_probs)), Fraction(1))


# -- Conjunctive queries -------------------------------------------------------

def join_answers(head, atoms, facts_by_rel):
    """Backtracking evaluation; answers as tuples following the head order."""
    answers = set()

    def extend(idx, binding):
        if idx == len(atoms):
            answers.add(tuple(binding[v] for v in head))
            return
        rel, vars_ = atoms[idx]
        for fact in facts_by_rel.get(rel, ()):
            if len(fact) != len(vars_):
                continue
            new = dict(binding)
            ok = True
            for var, value in zip(vars_, fact):
                if new.setdefault(var, value) != value:
                    ok = False
                    break
            if ok:
                extend(idx + 1, new)

    extend(0, {})
    return answers


def hash_join_answers(head, atoms, facts_by_rel):
    """Left-deep hash join in atom order, dropping each variable once neither
    the head nor a later atom needs it; answers as tuples in head order.

    Unlike `join_answers` this stays fast at tens of thousands of facts.
    """
    rows = {()}
    bound = []
    for k, (rel, vars_) in enumerate(atoms):
        distinct = list(dict.fromkeys(vars_))
        shared = [v for v in distinct if v in bound]
        new = [v for v in distinct if v not in bound]
        table = {}
        for fact in facts_by_rel.get(rel, ()):
            if len(fact) != len(vars_):
                continue
            val = {}
            if all(val.setdefault(v, x) == x for v, x in zip(vars_, fact)):
                table.setdefault(tuple(val[v] for v in shared), []).append(
                    tuple(val[v] for v in new))
        probe = [bound.index(v) for v in shared]
        bound = bound + new
        needed = set(head).union(*(vs for _, vs in atoms[k + 1:]))
        keep = [i for i, v in enumerate(bound) if v in needed]
        rows = {tuple((row + ext)[i] for i in keep)
                for row in rows
                for ext in table.get(tuple(row[p] for p in probe), ())}
        bound = [bound[i] for i in keep]
    return {tuple(row[bound.index(v)] for v in head) for row in rows}


def query_true_on(head, atoms, facts):
    """Boolean satisfaction of the query treating all variables as bound."""
    by_rel = {}
    for rel, values in facts:
        by_rel.setdefault(rel, []).append(values)

    def extend(idx, binding):
        if idx == len(atoms):
            return True
        rel, vars_ = atoms[idx]
        for fact in by_rel.get(rel, ()):
            if len(fact) != len(vars_):
                continue
            new = dict(binding)
            ok = True
            for var, value in zip(vars_, fact):
                if new.setdefault(var, value) != value:
                    ok = False
                    break
            if ok and extend(idx + 1, new):
                return True
        return False

    return extend(0, {})


def provenance_sets(head, atoms, all_facts):
    """Subsets of the fact list (as frozensets) on which the query holds."""
    out = set()
    n = len(all_facts)
    for mask in range(1 << n):
        subset = [all_facts[j] for j in range(n) if (mask >> j) & 1]
        if query_true_on(head, atoms, subset):
            out.add(frozenset(subset))
    return out


def shapley_direct(players, value_fn, target):
    """Permutation-form Shapley value with exact rationals."""
    others = [p for p in players if p != target]
    n = len(players)
    total = Fraction(0)
    for k in range(len(others) + 1):
        coeff = Fraction(factorial(k) * factorial(n - 1 - k), factorial(n))
        for subset in _subsets_of_size(others, k):
            gain = value_fn(set(subset) | {target}) - value_fn(set(subset))
            total += coeff * gain
    return total


def _subsets_of_size(items, k):
    from itertools import combinations
    return combinations(items, k)


def shapley_by_conditioning(query, tid):
    """Shapley value of every endogenous fact of a hierarchical query, one
    fact at a time: condition the provenance decision diagram on the
    exogenous facts and on the target in and out, smooth both, and weigh
    their counts of satisfying endogenous subsets by size."""
    from kcomp.circuits import condition, smooth
    from kcomp.provenance import FactVar, provenance_read_once, read_once_to_obdd
    from kcomp.queries import count_by_cardinality
    fact_vars = FactVar(tid.db)
    obdd = read_once_to_obdd(provenance_read_once(query, tid.db), len(fact_vars))
    fixed = condition(obdd, {fact_vars.var_of[f]: 1 for f in tid.exogenous()})
    endo = tid.endogenous()
    m = len(endo)
    out = {}
    for target in endo:
        plus, minus = (
            count_by_cardinality(smooth(condition(fixed, {fact_vars.var_of[target]: bit})),
                                 assume_deterministic=True)
            for bit in (1, 0))
        out[target] = sum((Fraction(factorial(k) * factorial(m - 1 - k), factorial(m))
                           * (plus[k] - minus[k]) for k in range(m)), Fraction(0))
    return out


# -- Tree automata ---------------------------------------------------------------

def run_automaton_naive(leaf_trans, internal_trans, accepting, tree):
    """tree: ('leaf', label) or ('node', label, left, right)."""
    def state(t):
        if t[0] == 'leaf':
            return leaf_trans[t[1]]
        return internal_trans[(state(t[2]), state(t[3]), t[1])]
    return state(tree) in accepting


def tree_acceptance_probability(automaton, prob_tree):
    """Probability that a deterministic automaton accepts a random world of
    a probabilistic tree, from one distribution over states per node.

    Nodes are numbered in preorder from an explicit stack, so children come
    after their parent and a reverse scan is bottom-up at any depth.  Each
    node keeps its label with its probability, else reads the default.
    """
    recs = []                           # [node, left index, right index]
    stack = [(prob_tree.tree, -1, 0)]
    while stack:
        node, parent, side = stack.pop()
        if parent >= 0:
            recs[parent][side] = len(recs)
        recs.append([node, -1, -1])
        if node.left is not None:
            stack.append((node.right, len(recs) - 1, 2))
            stack.append((node.left, len(recs) - 1, 1))
    dist = [None] * len(recs)
    for i in range(len(recs) - 1, -1, -1):
        node, left, right = recs[i]
        p = Fraction(prob_tree.prob[i])
        d = {}
        for label, w in ((node.label, p), (prob_tree.default, 1 - p)):
            if not w:
                continue
            if left < 0:
                s = automaton.leaf_transition[label]
                d[s] = d.get(s, 0) + w
                continue
            for s1, p1 in dist[left].items():
                for s2, p2 in dist[right].items():
                    s = automaton.internal_transition[(s1, s2, label)]
                    d[s] = d.get(s, 0) + w * p1 * p2
        dist[i] = d
    return sum((w for s, w in dist[0].items() if s in automaton.accepting),
               Fraction(0))


# -- Depth ---------------------------------------------------------------------

@contextmanager
def _recursion_limit_near_current_depth(margin=150):
    """Lower Python's recursion limit to the caller's frame depth plus a
    margin, far below the depth of a deep input, and restore it after."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + margin)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)
