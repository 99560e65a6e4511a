"""Exhaustive DPLL compilation from CNF to decision-shaped circuits.

The compiler branches on a variable, compiles both restrictions, and joins
them under a decision gate; independent connected components of the
residual clause set are compiled separately and joined by a decomposable
AND.  Residual clause sets are cached after unit propagation by the
multiset of their sorted clauses, and hash-consing in the builder shares
identical subcircuits.

Unit propagations are recorded as decision gates with a constant branch so
the output is always decision-shaped.  Clauses use DIMACS literals (signed,
variables 1..n); circuit variable k corresponds to DIMACS variable k+1.

The search is written as two recursive generators, `solve` and `branch`,
run by `_dag.trampoline`, so its depth is bounded by memory, not by
Python's recursion limit.  A residual maps original clause ids to (sorted
literal tuple, variable mask).  Setting a literal visits only the clauses
of its variable, through occurrence lists built once per formula, and
propagation takes the unit clause of least id from a heap, as a scan in
clause order would.

A step costs the clauses it touches, not the residual:

- The cache key is an int.  Each distinct literal tuple is interned to an
  id, and the key is the sum over the residual's clauses of
  1 << (w * id), with w = len(clauses).bit_length().  A residual holds
  fewer than 2^w clauses, so a count never carries into the next digit and
  equal multisets, and only they, have equal keys.  After a restriction
  the key is updated once per clause whose variable was set, and only
  when the residual left is not empty, so a propagation that satisfies
  every clause pays nothing for it.
- The split test is local.  Let R be a connected residual and R' what is
  left after setting the literals A.  Every component of R' holds a
  variable of a clause of R that contained a variable of A, so R' is
  connected exactly when the still-live variables of those clauses, the
  seeds, lie in one component.  `_dag.spans` sweeps the residual's masks
  in clause order and stops as soon as one component holds every seed.
  The grouping of `_dag.components` runs only at the root and on an
  actual split, whose parts are connected by construction.
- Each residual carries the union of its masks: setting literals clears
  their variables, and a seed is cleared when no clause left holds it.
  `first_unassigned` reads its lowest bit.

What stays O(residual) per step: the C-level dict copy in `restrict`, the
scans of `most_occurrences` and `min_cut_greedy` at every decision, and
the split test when the seeds lie far apart in clause order.  Two costs
are left to a decomposition-guided compiler: keys on the context of a
decomposition rather than on the whole residual, and the forced suffix
that a chain without a unit clause wraps again in every `hi` branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from heapq import heappop, heappush
from operator import itemgetter, or_
from typing import Iterable

from ._dag import components, spans, trampoline
from .circuits import CircuitBuilder
from .errors import ClauseCountMismatch, LiteralOutOfRange, MalformedHeader


@dataclass(frozen=True)
class CNFFormula:
    num_vars: int
    clauses: tuple  # of frozensets of signed DIMACS literals

    @staticmethod
    def from_lists(num_vars: int, clauses: Iterable[Iterable[int]]) -> 'CNFFormula':
        out = []
        for clause in clauses:
            c = frozenset(clause)
            for lit in c:
                if lit == 0 or abs(lit) > num_vars:
                    raise LiteralOutOfRange(f"literal {lit} with {num_vars} variables")
            out.append(c)
        return CNFFormula(num_vars, tuple(out))


@dataclass
class CompileStats:
    decision_count: int = 0
    cache_hits: int = 0
    component_splits: int = 0
    peak_cache_entries: int = 0


def parse_dimacs(text: str) -> CNFFormula:
    num_vars = None
    num_clauses = None
    clauses = []
    pending = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith('c'):
            continue
        if line.startswith('p'):
            if num_vars is not None:
                raise MalformedHeader(f"line {lineno}: duplicate header")
            fields = line.split()
            if len(fields) != 4 or fields[1] != 'cnf':
                raise MalformedHeader(f"line {lineno}: expected 'p cnf n m'")
            try:
                num_vars, num_clauses = int(fields[2]), int(fields[3])
            except ValueError:
                raise MalformedHeader(f"line {lineno}: non-numeric header") from None
            if num_vars < 0 or num_clauses < 0:
                raise MalformedHeader(f"line {lineno}: negative header counts")
            continue
        if num_vars is None:
            raise MalformedHeader(f"line {lineno}: clause before header")
        try:
            lits = [int(tok) for tok in line.split()]
        except ValueError:
            raise MalformedHeader(f"line {lineno}: non-numeric literal") from None
        for lit in lits:
            if lit == 0:
                clauses.append(frozenset(pending))
                pending = []
            else:
                if abs(lit) > num_vars:
                    raise LiteralOutOfRange(
                        f"line {lineno}: literal {lit} exceeds {num_vars} variables")
                pending.append(lit)
    if num_vars is None:
        raise MalformedHeader("no DIMACS header found")
    if pending:
        clauses.append(frozenset(pending))
    if len(clauses) != num_clauses:
        raise ClauseCountMismatch(
            f"header declares {num_clauses} clauses, found {len(clauses)}")
    return CNFFormula(num_vars, tuple(clauses))


def _mask(clause) -> int:
    """Bit v set for each variable v of the clause."""
    m = 0
    for lit in clause:
        m |= 1 << abs(lit)
    return m


def _pick_variable(residual: dict, union: int, heuristic: str) -> int:
    if heuristic == 'first_unassigned':
        return (union & -union).bit_length() - 1
    if heuristic == 'most_occurrences':
        occ = {}
        for clause, _ in residual.values():
            for lit in clause:
                occ[abs(lit)] = occ.get(abs(lit), 0) + 1
        best = max(occ.items(), key=lambda kv: (kv[1], -kv[0]))
        return best[0]
    # min_cut_greedy: fewest distinct neighbours first, a cheap proxy for a
    # small cut
    neigh = {}
    for clause, _ in residual.values():
        cvars = {abs(lit) for lit in clause}
        for v in cvars:
            neigh.setdefault(v, set()).update(cvars - {v})
    return min(neigh.items(), key=lambda kv: (len(kv[1]), kv[0]))[0]


HEURISTICS = ('first_unassigned', 'most_occurrences', 'min_cut_greedy')


def compile_dpll(formula: CNFFormula, heuristic: str = 'first_unassigned',
                 use_cache: bool = True) -> tuple:
    """Compile to a decision-shaped decomposable circuit.

    Returns (circuit, stats).  Unsatisfiable input yields the false
    constant.  Raises ValueError for a heuristic outside `HEURISTICS`.
    """
    if heuristic not in HEURISTICS:
        raise ValueError(f"unknown heuristic {heuristic!r}")
    b = CircuitBuilder(formula.num_vars)
    stats = CompileStats()
    cache = {}
    clauses = [tuple(sorted(c)) for c in formula.clauses]
    occurs = [[] for _ in range(formula.num_vars + 1)]
    for cid, clause in enumerate(clauses):
        for var in {abs(lit) for lit in clause}:
            occurs[var].append(cid)
    # the cache key of a residual has one w-bit digit per interned clause,
    # counting its copies; a residual holds fewer than 2^w clauses
    w = len(clauses).bit_length()
    ids = {}

    def digit(clause: tuple) -> int:
        i = ids.get(clause)
        if i is None:
            i = ids[clause] = len(ids)
        return 1 << (w * i)

    def afresh(residual: dict) -> tuple:
        """(key, union) of a residual, summed over all its clauses."""
        key = sum(map(digit, map(itemgetter(0), residual.values()))) if use_cache else None
        return key, reduce(or_, map(itemgetter(1), residual.values()))

    def restrict(residual: dict, lit: int):
        """Set `lit` (0 at the root), then propagate the unit clause of
        least id until none is left.  Returns (forced literals, residual),
        the residual None on conflict."""
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

    def settle(residual: dict, key, union: int, cur: dict, lit: int, forced: list):
        """(key, union, seeds) of the non-empty residual `cur` that
        `restrict` left from the connected `residual` by setting `lit` and
        `forced`.  Only the clauses of those variables changed, so the key
        and the union are updated once per such clause.  Every component of
        `cur` holds one of their still-live variables, the seeds.  At the
        root (`lit` 0) the residual may fall apart anywhere, so the key is
        summed afresh and every variable is a seed."""
        if not lit:
            key, union = afresh(cur)
            return key, union, union
        done = seen = live = 0
        for var in (lit, *forced):
            var = abs(var)
            for cid in occurs[var]:
                old = residual.get(cid)
                if old is None or old[1] & done:
                    continue        # not in the residual, or already seen
                seen |= old[1]
                if use_cache:
                    key -= 1 << (w * ids[old[0]])
                new = cur.get(cid)
                if new is not None:
                    live |= new[1]
                    if use_cache:
                        key += digit(new[0])
            done |= 1 << var
        seeds = seen & ~done
        # a seed in no changed clause that is left is live if some
        # untouched clause holds it
        maybe = seeds & ~live
        while maybe:
            low = maybe & -maybe
            maybe ^= low
            for cid in occurs[low.bit_length() - 1]:
                if cid in cur:
                    break
            else:
                seeds ^= low
                union ^= low
        return key, union & ~done, seeds

    def solve(residual: dict, key, union: int, seeds: int):
        """Node of a non-empty propagated residual: a decomposable AND over
        its components, or a decision on one variable.  Every component
        holds a variable of `seeds`; 0 when the residual is connected."""
        if use_cache:
            hit = cache.get(key)
            if hit is not None:
                stats.cache_hits += 1
                return hit
        # with one seed or none the residual is connected
        if seeds & (seeds - 1) and not spans(map(itemgetter(1), residual.values()), seeds):
            comps = components(list(residual), [m for _, m in residual.values()])
            stats.component_splits += 1
            parts = []
            for comp in comps:
                part = {cid: residual[cid] for cid in comp}
                parts.append((yield solve(part, *afresh(part), 0)))
            node = b.conj(tuple(parts))
        else:
            var = _pick_variable(residual, union, heuristic)
            stats.decision_count += 1
            lo = yield branch(residual, key, union, -var)
            node = b.decision(var - 1, lo, (yield branch(residual, key, union, var)))
        if use_cache:
            cache[key] = node
        return node

    def branch(residual: dict, key, union: int, lit: int):
        """Node of the residual under `lit`, with the literals that
        propagation forces wrapped around it as decisions."""
        forced, cur = restrict(residual, lit)
        if cur is None:
            return b.false()
        if cur:
            node = yield solve(cur, *settle(residual, key, union, cur, lit, forced))
        else:
            node = b.true()
        for lit in reversed(forced):
            if lit > 0:
                node = b.decision(lit - 1, b.false(), node)
            else:
                node = b.decision(-lit - 1, node, b.false())
        return node

    root = {cid: (c, _mask(c)) for cid, c in enumerate(clauses)}
    root = trampoline(branch(root, None, 0, 0))
    stats.peak_cache_entries = len(cache)
    return b.finish(root), stats
