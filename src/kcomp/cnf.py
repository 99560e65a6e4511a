"""Exhaustive DPLL compilation from CNF to decision-shaped circuits.

The compiler branches on a variable, compiles both restrictions, and joins
them under a decision gate; independent connected components of the
residual clause set are compiled separately and joined by a decomposable
AND.  Residual clause sets are cached by their canonical form after unit
propagation, the sorted multiset of their sorted clauses, and hash-consing
in the builder shares identical subcircuits.

Unit propagations are recorded as decision gates with a constant branch so
the output is always decision-shaped.  Clauses use DIMACS literals (signed,
variables 1..n); circuit variable k corresponds to DIMACS variable k+1.

The search is written as two recursive generators, `solve` and `branch`,
run by `_dag.trampoline`, so its depth is bounded by memory, not by
Python's recursion limit.  A residual maps original clause ids to (sorted
literal tuple, variable mask).  Setting a literal visits only the clauses
of its variable, through occurrence lists built once per formula, and
propagation takes the unit clause of least id from a heap, as a scan in
clause order would.  Components come from `_dag.components`, one sweep
over the clause masks, and `first_unassigned` reads the lowest bit of
their union.  Each step still costs O(residual), since the residual is
copied, swept and sorted into its cache key, so an implication chain
without a unit clause, which decides once per variable, stays quadratic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from heapq import heappop, heappush
from operator import or_
from typing import Iterable

from ._dag import components, trampoline
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


def _pick_variable(clauses, masks, heuristic: str) -> int:
    if heuristic == 'first_unassigned':
        union = reduce(or_, masks)
        return (union & -union).bit_length() - 1
    if heuristic == 'most_occurrences':
        occ = {}
        for clause in clauses:
            for lit in clause:
                occ[abs(lit)] = occ.get(abs(lit), 0) + 1
        best = max(occ.items(), key=lambda kv: (kv[1], -kv[0]))
        return best[0]
    if heuristic == 'min_cut_greedy':
        # fewest distinct neighbours first: cheap proxy for a small cut
        neigh = {}
        for clause in clauses:
            cvars = {abs(lit) for lit in clause}
            for v in cvars:
                neigh.setdefault(v, set()).update(cvars - {v})
        return min(neigh.items(), key=lambda kv: (len(kv[1]), kv[0]))[0]
    raise ValueError(f"unknown heuristic {heuristic!r}")


HEURISTICS = ('first_unassigned', 'most_occurrences', 'min_cut_greedy')


def compile_dpll(formula: CNFFormula, heuristic: str = 'first_unassigned',
                 use_cache: bool = True) -> tuple:
    """Compile to a decision-shaped decomposable circuit.

    Returns (circuit, stats).  Unsatisfiable input yields the false
    constant.
    """
    b = CircuitBuilder(formula.num_vars)
    stats = CompileStats()
    cache = {}
    clauses = [tuple(sorted(c)) for c in formula.clauses]
    occurs = [[] for _ in range(formula.num_vars + 1)]
    for cid, clause in enumerate(clauses):
        for var in {abs(lit) for lit in clause}:
            occurs[var].append(cid)

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

    def solve(residual: dict):
        """Node of a propagated residual: a decomposable AND over its
        components, or a decision on one variable."""
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
            var = _pick_variable(clauses, masks, heuristic)
            stats.decision_count += 1
            lo = yield branch(residual, -var)
            node = b.decision(var - 1, lo, (yield branch(residual, var)))
        if use_cache:
            cache[key] = node
        return node

    def branch(residual: dict, lit: int):
        """Node of the residual under `lit`, with the literals that
        propagation forces wrapped around it as decisions."""
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

    root = trampoline(branch({cid: (c, _mask(c)) for cid, c in enumerate(clauses)}, 0))
    stats.peak_cache_entries = len(cache)
    return b.finish(root), stats
