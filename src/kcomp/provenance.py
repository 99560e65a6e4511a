"""Boolean provenance of conjunctive queries and the aggregation tasks on
top of it: query probability, uniform reliability, and Shapley values.

Provenance treats the query as Boolean (free variables are existentially
closed) and maps each fact of the database to one Boolean variable; a
valuation selects a subinstance and the provenance is true exactly on the
subinstances where the query holds.

Three representations are built here:

  * a decomposable circuit, extracted from a compiled lifted query where
    every fact carries a fresh identifier (works for any self-join-free
    query, generally not deterministic);
  * a monotone DNF read off the same compiled lifted query, with every
    variable free: one term per answer, the facts its identifier
    attributes name (any query, self-joins and unions included; feeds the
    approximation path and the negated lineage below);
  * a read-once tree for hierarchical self-join-free queries, read off the
    same compiled lifted query in one bottom-up pass (compiled in
    hierarchy order, its joins are independent ANDs and its unions
    independent ORs) and turned into an ordered decision diagram.

All three come from `compile_cq`; this module runs no join of its own.

Exact query probability, uniform reliability and Shapley values all read
one deterministic decomposable lineage circuit, chosen by the query: the
read-once decision diagram when the query is hierarchical and
self-join-free, otherwise the DPLL compilation of the negated lineage (one
clause of negative literals per DNF term), whose weighted count is the
complement of the query's.  The second route is exact for every query but
not always polynomial.  On either circuit the Shapley values of all
endogenous facts come from one bottom-up and one top-down derivative pass
over polynomials in a common presence probability t (Owen's multilinear-
extension identity), with no smoothing, conditioning or rebuilding per
fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from ._dag import rebuild
from .circuits import BoolCircuit, CircuitBuilder, DNFFormula
from .cnf import CNFFormula, compile_dpll
from .cq import (ConjunctiveQuery, Database, _check_relations, _compile_full,
                 compile_cq)
from .errors import (InputFormatError, NotHierarchical, SelfJoinPresent,
                     TargetExogenous)
from .queries import (ApproxParams, WeightMap, _fold, approx_count_dnf,
                      model_count, wmc)
from .relational import enumerate_rel


@dataclass(frozen=True)
class TID:
    """Tuple-independent database: per-fact probability and an
    exogenous/endogenous mark ('x' facts are always present)."""
    db: Database
    prob: dict              # (rel, values) -> Fraction in [0, 1]
    kind: dict              # (rel, values) -> 'x' | 'n'

    def __post_init__(self):
        for fact in self.db.facts():
            if fact not in self.prob:
                raise ValueError(f"fact {fact} has no probability")
            p = self.prob[fact]
            if not 0 <= p <= 1:
                raise ValueError(f"fact {fact} has probability {p} outside [0, 1]")
            if self.kind.get(fact, 'n') not in ('x', 'n'):
                raise ValueError(f"fact {fact} has unknown kind {self.kind[fact]!r}")

    def endogenous(self) -> list:
        return [f for f in self.db.facts() if self.kind.get(f, 'n') == 'n']

    def exogenous(self) -> list:
        return [f for f in self.db.facts() if self.kind.get(f, 'n') == 'x']

    @staticmethod
    def from_tsv(text: str) -> 'TID':
        """Fact lines extended with a probability and an x/n marker:
        `R<TAB>v1<TAB>...<TAB>p<TAB>n`."""
        relations = {}
        prob = {}
        kind = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.rstrip('\n')
            if not line.strip() or line.startswith('#'):
                continue
            parts = line.split('\t')
            if len(parts) < 4:
                raise InputFormatError(
                    f"line {lineno}: expected relation, values, probability, marker")
            rel, values, p_text, marker = parts[0], tuple(parts[1:-2]), parts[-2], parts[-1]
            try:
                p = Fraction(p_text)
            except (ValueError, ZeroDivisionError):
                raise InputFormatError(f"line {lineno}: bad probability {p_text!r}") from None
            if not 0 <= p <= 1:
                raise InputFormatError(f"line {lineno}: probability {p_text} outside [0, 1]")
            if marker not in ('x', 'n'):
                raise InputFormatError(f"line {lineno}: marker must be 'x' or 'n'")
            relations.setdefault(rel, set()).add(values)
            prob[(rel, values)] = p
            kind[(rel, values)] = marker
        return TID(Database(relations), prob, kind)

    @staticmethod
    def uniform(db: Database, p: Fraction = Fraction(1, 2)) -> 'TID':
        facts = db.facts()
        return TID(db, {f: p for f in facts}, {f: 'n' for f in facts})


class FactVar:
    """Bijection between the facts of a database and circuit variables."""

    def __init__(self, db: Database):
        self.facts = db.facts()
        self.var_of = {f: i for i, f in enumerate(self.facts)}

    def fact_of(self, var: int):
        return self.facts[var]

    def labels(self) -> tuple:
        return tuple(f"{rel}({','.join(str(v) for v in values)})"
                     for rel, values in self.facts)

    def __len__(self):
        return len(self.facts)


@dataclass(frozen=True)
class Lifted:
    query: ConjunctiveQuery        # one fresh identifier variable per atom
    db: Database                   # each fact extended with its identifier
    fact_vars: FactVar
    id_vars: tuple                 # the fresh variables, one per atom


def lift(query: ConjunctiveQuery, db: Database) -> Lifted:
    """Add per-atom identifier attributes and per-fact identifier values.

    The lifted query is projection-free; its answers are the original
    answers paired with the facts used, and acyclicity is preserved.
    """
    fact_vars = FactVar(db)
    taken = set(query.variables())
    id_vars = []
    for i in range(len(query.atoms)):
        name = f"_id{i}"
        while name in taken:
            name = "_" + name
        taken.add(name)
        id_vars.append(name)
    atoms = []
    head = []
    for (rel, vs), idv in zip(query.atoms, id_vars):
        atoms.append((rel + "*", tuple(vs) + (idv,)))
        for v in vs:
            if v not in head:
                head.append(v)
        head.append(idv)
    relations = {}
    for (rel, vs) in query.atoms:
        relations.setdefault(rel + "*", set())
    for fact in fact_vars.facts:
        rel, values = fact
        starred = rel + "*"
        if starred in relations:
            relations[starred].add(tuple(values) + (fact_vars.var_of[fact],))
    lifted_q = ConjunctiveQuery(tuple(head), tuple(atoms))
    return Lifted(lifted_q, Database(relations), fact_vars, tuple(id_vars))


def provenance_circuit_sjf(query: ConjunctiveQuery, db: Database) -> BoolCircuit:
    """Decomposable circuit over one variable per fact, true exactly on the
    subinstances where the (existentially closed) query holds.

    Compiles the lifted query, renames identifier inputs to fact variables,
    and projects the data attributes away; self-join-freeness keeps the
    join gates decomposable.  The result is generally not deterministic.
    """
    if not query.self_join_free:
        raise SelfJoinPresent(f"{query} repeats a relation name")
    lifted = lift(query, db)
    rel_circuit = compile_cq(lifted.query, lifted.db)
    id_attr_idx = {rel_circuit.attr_index[v] for v in lifted.id_vars
                   if v in rel_circuit.attr_index}
    b = CircuitBuilder(len(lifted.fact_vars))

    def leaf(rec) -> int:
        if rec[0] == 'I' and rec[1] in id_attr_idx:
            return b.literal(rel_circuit.domains[rec[1]][rec[2]], True)
        return b.false() if rec[0] == '0' else b.true()

    out = rebuild(rel_circuit.nodes, leaf, {'J': b.conj, 'U': b.disj})
    return b.finish(out[rel_circuit.output], var_names=lifted.fact_vars.labels())


def provenance_dnf(queries, db: Database) -> DNFFormula:
    """Monotone DNF with one term per homomorphism image.

    The lifted query, compiled with every variable free, has one answer
    per homomorphism; the identifier attributes of an answer name the
    facts of its term.  Accepts one query or an iterable of queries (a
    union); duplicate fact sets collapse to one term.  Every atom must
    name a relation of the database, with its arity.
    """
    if isinstance(queries, ConjunctiveQuery):
        queries = [queries]
    terms = set()
    for query in queries:
        _check_relations(query, db)
        lifted = lift(query, db)
        for tup in enumerate_rel(_compile_full(lifted.query, lifted.db)):
            terms.add(frozenset(tup[v] for v in lifted.id_vars))
    dnf_terms = sorted({frozenset((v, True) for v in t) for t in terms},
                       key=lambda t: sorted(v for v, _ in t))
    return DNFFormula(len(FactVar(db)), tuple(dnf_terms))


def is_hierarchical(query: ConjunctiveQuery) -> bool:
    """Atom sets of any two variables are nested or disjoint.

    Checked on the existentially closed query, matching the provenance
    semantics used here; requires self-join-freeness.
    """
    if not query.self_join_free:
        raise SelfJoinPresent(f"{query} repeats a relation name")
    occurs = {}
    for i, (_, vs) in enumerate(query.atoms):
        for v in vs:
            occurs.setdefault(v, set()).add(i)
    sets = list(occurs.values())
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            a, b = sets[i], sets[j]
            if a & b and not (a <= b or b <= a):
                return False
    return True


# -- read-once provenance ------------------------------------------------------------

@dataclass(frozen=True)
class ReadOnceTree:
    """Independent-AND/OR tree; leaves hold fact variables, each at most
    once, so child probabilities combine independently."""
    kind: str                # 'and' | 'or' | 'leaf'
    children: tuple = ()
    var: Optional[int] = None

    def variables(self) -> list:
        if self.kind == 'leaf':
            return [self.var]
        out = []
        for c in self.children:
            out.extend(c.variables())
        return out

    def evaluate(self, valuation: dict) -> bool:
        if self.kind == 'leaf':
            return bool(valuation[self.var])
        if self.kind == 'and':
            return all(c.evaluate(valuation) for c in self.children)
        return any(c.evaluate(valuation) for c in self.children)


def provenance_read_once(query: ConjunctiveQuery, db: Database) -> ReadOnceTree:
    """Read-once provenance tree for a hierarchical self-join-free query.

    The lifted query is compiled with every variable free, in hierarchy
    order: the query's variables by the number of atoms holding them, most
    first, then the identifiers.  Each connected residual then branches on
    a variable all of its atoms share, so the circuit is a tree whose
    joins are independent ANDs and whose unions are independent ORs; it is
    read off bottom-up, one atom's facts under one OR.  Facts that join
    with nothing are removed by the compiler's semijoin reduction and are
    absent.  Every atom must name a relation of the database, with its
    arity.
    """
    _check_relations(query, db)
    if not is_hierarchical(query):
        raise NotHierarchical(f"{query} is not hierarchical")
    lifted = lift(query, db)
    holders = {v: sum(v in vs for _, vs in query.atoms) for v in query.variables()}
    order = sorted(holders, key=holders.get, reverse=True) + list(lifted.id_vars)
    rel = compile_cq(lifted.query, lifted.db, order)
    id_attrs = {rel.attr_index[v] for v in lifted.id_vars}

    def leaf(rec) -> Optional[ReadOnceTree]:
        if rec[0] == 'I' and rec[1] in id_attrs:
            return ReadOnceTree('leaf', var=rel.domains[rec[1]][rec[2]])
        return ReadOnceTree('or', ()) if rec[0] == '0' else None

    def conj(kids: tuple) -> Optional[ReadOnceTree]:
        kids = tuple(k for k in kids if k is not None)
        return kids[0] if len(kids) == 1 else ReadOnceTree('and', kids)

    def disj(kids: tuple) -> ReadOnceTree:
        if all(k.kind == 'leaf' or k.kind == 'or' and
               all(c.kind == 'leaf' for c in k.children) for k in kids):
            kids = tuple(c for k in kids
                         for c in ((k,) if k.kind == 'leaf' else k.children))
        return ReadOnceTree('or', kids)

    tree = rebuild(rel.nodes, leaf, {'J': conj, 'U': disj})[rel.output]
    if tree is None:
        tree = ReadOnceTree('and', ())
    seen = tree.variables()
    assert len(seen) == len(set(seen)), "read-once extraction repeated a fact"
    return tree


def read_once_to_obdd(tree: ReadOnceTree, num_vars: int) -> BoolCircuit:
    """Ordered decision diagram along the tree's depth-first leaf order.

    Continuation composition: an AND chains its children on the true
    branch, an OR on the false branch, so each leaf becomes exactly one
    decision gate and the size stays linear in the number of leaves.
    """
    b = CircuitBuilder(num_vars)

    def build(node: ReadOnceTree, on_true: int, on_false: int) -> int:
        if node.kind == 'leaf':
            return b.decision(node.var, on_false, on_true)
        if node.kind == 'and':
            acc = on_true
            for child in reversed(node.children):
                acc = build(child, acc, on_false)
            return acc
        acc = on_false
        for child in reversed(node.children):
            acc = build(child, on_true, acc)
        return acc

    return b.finish(build(tree, b.true(), b.false()))


# -- aggregation tasks ------------------------------------------------------------------

def _hierarchical_obdd(query: ConjunctiveQuery, db: Database) -> BoolCircuit:
    tree = provenance_read_once(query, db)
    return read_once_to_obdd(tree, len(FactVar(db)))


def _lineage(query: ConjunctiveQuery, db: Database) -> tuple:
    """(circuit, negated): a deterministic decomposable circuit over one
    variable per fact, for the lineage or, when negated, its complement.

    A hierarchical self-join-free query gets its read-once decision
    diagram.  Any other query gets the negated lineage: one clause of
    negative literals per `provenance_dnf` term, compiled by DPLL branching
    on the fact in most terms first.  That route is exact but not always
    polynomial: some lineages have no small decision-DNNF.
    """
    if query.self_join_free and is_hierarchical(query):
        return _hierarchical_obdd(query, db), False
    dnf = provenance_dnf(query, db)
    clauses = [[-1 - v for v, _ in term] for term in dnf.terms]
    circuit, _ = compile_dpll(CNFFormula.from_lists(dnf.num_vars, clauses),
                              'most_occurrences')
    return circuit, True


def pqe(query: ConjunctiveQuery, tid: TID, mode: str = 'exact',
        params: Optional[ApproxParams] = None):
    """Probability that the query holds on the tuple-independent database.

    'exact' runs weighted counting with exact rationals on the lineage
    circuit of `_lineage`, so P(Q) is its WMC, or 1 minus that on the
    negated lineage; 'approx' runs the Monte Carlo DNF counter and needs
    ApproxParams.
    """
    fact_vars = FactVar(tid.db)
    probs = {fact_vars.var_of[f]: Fraction(tid.prob[f]) for f in fact_vars.facts}
    if mode == 'exact':
        circuit, negated = _lineage(query, tid.db)
        p = wmc(circuit, WeightMap.from_probabilities(probs))
        return 1 - p if negated else p
    if mode == 'approx':
        if params is None:
            raise ValueError("approx mode needs ApproxParams")
        dnf = provenance_dnf(query, tid.db)
        return approx_count_dnf(dnf, probs, params)
    raise ValueError(f"unknown mode {mode!r}")


def uniform_reliability(query: ConjunctiveQuery, db: Database) -> int:
    """Number of subinstances satisfying the query: the model count of the
    lineage circuit, or 2^n minus that of the negated lineage."""
    circuit, negated = _lineage(query, db)
    count = model_count(circuit)
    return (1 << len(circuit.universe)) - count if negated else count


def shapley(query: ConjunctiveQuery, tid: TID, target) -> Fraction:
    """Shapley value of an endogenous fact for making the query true.

    Exogenous facts are always present.  A lookup in the one derivative
    pass of `shapley_all`.
    """
    target = (target[0], tuple(target[1]))
    if tid.kind.get(target, 'n') != 'n':
        raise TargetExogenous(f"{target} is exogenous")
    if target not in tid.prob:
        raise ValueError(f"{target} is not a fact of the database")
    return shapley_all(query, tid)[target]


def shapley_all(query: ConjunctiveQuery, tid: TID) -> dict:
    """Shapley value of every endogenous fact, from one bottom-up and one
    top-down pass over the lineage circuit of `_lineage`, at a cost of
    O(|C| m^2) integer operations for a circuit C and m endogenous facts."""
    circuit, negated = _lineage(query, tid.db)
    return _shapley_by_derivative(circuit, -1 if negated else 1, tid)


def _shapley_by_derivative(circuit: BoolCircuit, sign: int, tid: TID) -> dict:
    """All Shapley values from a deterministic decomposable circuit over
    one variable per fact, scaled by sign.

    Owen's identity: with F(p) the probability that the circuit holds when
    each endogenous fact x is present with probability p_x and the
    exogenous facts always are, phi_x = integral over t in [0, 1] of
    dF/dp_x at p = (t, ..., t).  Node values are integer polynomials in t
    from one `queries._fold` (endogenous literals t and 1 - t, exogenous ones 1
    and 0), whose pad is the identity: an OR child's missing variables
    contribute w(x) + w(not x) = 1, so no smoothing is needed.  The
    top-down pass gives each node the derivative of F by its value; dF/dp_x
    is that of x's positive literal minus that of its negative one.
    Only determinism and decomposability are used, so any d-DNNF will do.
    Shapley values are linear and a constant game has none, so sign -1 on
    a circuit of the negated lineage gives the values of the query.
    """
    fact_vars = FactVar(tid.db)
    endo = tid.endogenous()
    endo_vars = {fact_vars.var_of[f] for f in endo}
    nodes = circuit.nodes
    one, zero = [1], []

    def literal(key) -> list:
        if key[0] in endo_vars:
            return [0, 1] if key[1] else [1, -1]
        return one if key[1] else zero

    vals, _ = _fold(circuit, literal, one, zero, _poly_mul, _poly_add,
                    lambda value, gate, child: value)

    adjoint = [zero] * len(nodes)
    adjoint[circuit.output] = one
    for nid in range(len(nodes) - 1, -1, -1):
        rec = nodes[nid]
        adj = adjoint[nid]
        if not adj or rec[0] not in ('A', 'O'):
            continue
        kids = rec[1]
        if rec[0] == 'O':
            for c in kids:
                adjoint[c] = _poly_add(adjoint[c], adj)
            continue
        # adj times the product of the other children, from prefix and
        # suffix products
        suffix = [one] * len(kids)
        for i in range(len(kids) - 1, 0, -1):
            suffix[i - 1] = _poly_mul(vals[kids[i]], suffix[i])
        prefix = adj
        for i, c in enumerate(kids):
            adjoint[c] = _poly_add(adjoint[c], _poly_mul(prefix, suffix[i]))
            if i + 1 < len(kids):
                prefix = _poly_mul(prefix, vals[c])

    # decomposability keeps the derivative of F by an endogenous literal
    # below degree m, so one denominator lcm(1..m) integrates every t^k
    m = len(endo)
    denom = lcm(*range(1, m + 1))
    weights = [denom // (k + 1) for k in range(m)]
    numer = dict.fromkeys(endo_vars, 0)
    for nid, rec in enumerate(nodes):
        if rec[0] == 'L' and rec[1] in endo_vars:
            area = sum(c * w for c, w in zip(adjoint[nid], weights))
            numer[rec[1]] += area if rec[2] else -area
    return {f: Fraction(sign * numer[fact_vars.var_of[f]], denom) for f in endo}


def _poly_add(a: list, b: list) -> list:
    """Sum of two coefficient lists, lowest degree first."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def _poly_mul(a: list, b: list) -> list:
    """Product of two coefficient lists, lowest degree first; [] is zero."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out

