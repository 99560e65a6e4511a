"""Exhaustive DPLL compilation from CNF to decision-shaped circuits.

The compiler branches on a variable, compiles both restrictions, and joins
them under a decision gate; independent connected components of the
residual clause set are compiled separately and joined by a decomposable
AND.  Residual clause sets are cached by their canonical form after unit
propagation, and hash-consing in the builder shares identical subcircuits.

Unit propagations are recorded as decision gates with a constant branch so
the output is always decision-shaped.  Clauses use DIMACS literals (signed,
variables 1..n); circuit variable k corresponds to DIMACS variable k+1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .circuits import BoolCircuit, CircuitBuilder, Valuation
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


def _unit_propagate(clauses):
    """Return (forced literals in propagation order, residual clauses);
    residual is None on conflict."""
    clauses = list(clauses)
    forced = []
    assigned = {}
    while True:
        unit = None
        for clause in clauses:
            if not clause:
                return forced, None
            if len(clause) == 1:
                unit = next(iter(clause))
                break
        if unit is None:
            return forced, clauses
        forced.append(unit)
        assigned[abs(unit)] = unit
        new_clauses = []
        for clause in clauses:
            if unit in clause:
                continue
            if -unit in clause:
                clause = clause - {-unit}
                if not clause:
                    return forced, None
            new_clauses.append(clause)
        clauses = new_clauses


def _condition_clauses(clauses, lit: int):
    out = []
    for clause in clauses:
        if lit in clause:
            continue
        if -lit in clause:
            clause = clause - {-lit}
        out.append(clause)
    return out


def _components(clauses):
    """Group clauses by connected components of the variable graph: one
    BFS over a variable -> clause index map, groups in order of their
    first clause, clauses in their given order."""
    occurs = {}
    for i, clause in enumerate(clauses):
        for lit in clause:
            occurs.setdefault(abs(lit), []).append(i)
    seen = [False] * len(clauses)
    groups = []
    for first in range(len(clauses)):
        if seen[first]:
            continue
        seen[first] = True
        group = [first]
        for i in group:            # the queue grows while it is read
            for lit in clauses[i]:
                for j in occurs.pop(abs(lit), ()):
                    if not seen[j]:
                        seen[j] = True
                        group.append(j)
        if len(group) == len(clauses):
            return [clauses]
        group.sort()
        groups.append([clauses[i] for i in group])
    return groups


def _pick_variable(clauses, heuristic: str) -> int:
    if heuristic == 'first_unassigned':
        return min(abs(lit) for clause in clauses for lit in clause)
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

    def wrap_units(forced, node: int) -> int:
        for lit in reversed(forced):
            var = abs(lit) - 1
            if lit > 0:
                node = b.decision(var, b.false(), node)
            else:
                node = b.decision(var, node, b.false())
        return node

    def recurse(clauses) -> int:
        forced, residual = _unit_propagate(clauses)
        if residual is None:
            return b.false()
        return wrap_units(forced, compile_residual(residual))

    def compile_residual(residual) -> int:
        if not residual:
            return b.true()
        key = None
        if use_cache:
            key = tuple(sorted(tuple(sorted(c)) for c in residual))
            hit = cache.get(key)
            if hit is not None:
                stats.cache_hits += 1
                return hit
        comps = _components(residual)
        if len(comps) > 1:
            stats.component_splits += 1
            node = b.conj(tuple(recurse(comp) for comp in comps))
        else:
            var = _pick_variable(residual, heuristic)
            stats.decision_count += 1
            lo = recurse(_condition_clauses(residual, -var))
            hi = recurse(_condition_clauses(residual, var))
            node = b.decision(var - 1, lo, hi)
        if use_cache:
            cache[key] = node
        return node

    root = recurse(list(formula.clauses))
    stats.peak_cache_entries = len(cache)
    return b.finish(root), stats


@dataclass
class EquivalenceVerdict:
    status: str                      # 'equivalent' | 'differs' | 'unknown'
    witness: Optional[Valuation] = None


def _clause_value(clause, val: Valuation) -> bool:
    return any((val[abs(lit) - 1] == 1) == (lit > 0) for lit in clause)


def verify_equivalence(formula: CNFFormula, circuit: BoolCircuit,
                       max_vars: int = 16) -> EquivalenceVerdict:
    """Exhaustive formula/circuit comparison, capped by variable count."""
    n = formula.num_vars
    if n > max_vars:
        return EquivalenceVerdict('unknown')
    for m in range(1 << n):
        val = {j: (m >> (n - 1 - j)) & 1 for j in range(n)}
        f_val = all(_clause_value(c, val) for c in formula.clauses)
        if int(f_val) != circuit.evaluate(val):
            return EquivalenceVerdict('differs', val)
    return EquivalenceVerdict('equivalent')
