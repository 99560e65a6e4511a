"""Conjunctive queries: parsing, acyclicity, and compilation to ordered
decision circuits over the query's free variables.

The compiler follows a total variable order with the free variables first.
Facts are rank-encoded (each value replaced by its position in the active
domain, sorted by `domain_sort_key`) and kept in per-atom sorted indexes, so
a residual state is one contiguous slice per atom.  At each step it
branches on the next variable, trying only values shared by every atom that
decides it: the values are found by a seek-based intersection in the style
of Leapfrog Triejoin, which steps through the narrowest slice and seeks a
monotone cursor forward in the others, so one branch point costs about
min-slice * log(slice) rather than the sum of the slices.  Independent
components of the residual query, split by `_dag.components` over each
atom's mask of undecided variables, compile separately under a join gate,
and residual states are cached.  Once all free variables of a component
are fixed, the remaining existential part reduces to a cached emptiness
test that stops at the first witness.  Both searches recurse as generators
run by `_dag.trampoline`, so their depth is bounded by memory, not by
Python's recursion limit.  With an order witnessing free-connex acyclicity
the circuit size, and the compile time up to a log factor, are linear in
the database, up to query-dependent factors.

A query that is not free-connex goes through the projection step of Bagan,
Durand and Grandjean: it is compiled with every variable free, its answers
are projected onto the head, and that set is compiled as the one atom of
the free-connex `Q(head) :- A(head)`, at the cost of the full join.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from ._dag import components, trampoline
from .errors import (ArityMismatch, NotFreeConnex, OrderMissingVariables,
                     QuerySyntaxError, UnboundHeadVariable, UnknownRelation)
from .relational import RelBuilder, RelCircuit, count_rel, direct_access, enumerate_rel


@dataclass(frozen=True)
class ConjunctiveQuery:
    head: tuple              # free variables, in head order
    atoms: tuple             # (relation name, variable tuple)

    @property
    def self_join_free(self) -> bool:
        rels = [rel for rel, _ in self.atoms]
        return len(rels) == len(set(rels))

    def variables(self) -> list:
        """All variables in first-appearance order, head first."""
        seen = []
        for v in self.head:
            if v not in seen:
                seen.append(v)
        for _, vs in self.atoms:
            for v in vs:
                if v not in seen:
                    seen.append(v)
        return seen

    def existential_variables(self) -> list:
        head = set(self.head)
        return [v for v in self.variables() if v not in head]

    def __str__(self):
        body = ", ".join(f"{rel}({', '.join(vs)})" for rel, vs in self.atoms)
        return f"Q({', '.join(self.head)}) :- {body}."


_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
_ATOM_RE = re.compile(rf"({_IDENT})\s*\(([^()]*)\)")


def domain_sort_key(value):
    """Total order over possibly mixed-type values (class name, then value)."""
    return (value.__class__.__name__, value)


def parse_cq(text: str) -> ConjunctiveQuery:
    """Parse `Q(x, y) :- R(x, y), S(y, z).`; the head may be empty."""
    text = text.strip()
    if text.endswith('.'):
        text = text[:-1]
    if ':-' not in text:
        raise QuerySyntaxError("expected `head :- body`")
    head_part, body_part = text.split(':-', 1)
    head_match = _ATOM_RE.fullmatch(head_part.strip())
    if head_match is None:
        raise QuerySyntaxError(f"bad head {head_part.strip()!r}")
    head = _split_vars(head_match.group(2))
    atoms = []
    body_part = body_part.strip()
    if body_part:
        pos = 0
        while pos < len(body_part):
            m = _ATOM_RE.match(body_part, pos)
            if m is None:
                raise QuerySyntaxError(f"bad atom near {body_part[pos:pos + 20]!r}")
            atoms.append((m.group(1), tuple(_split_vars(m.group(2)))))
            pos = m.end()
            rest = body_part[pos:].lstrip()
            if rest.startswith(','):
                rest = rest[1:].lstrip()
            elif rest:
                raise QuerySyntaxError(f"expected ',' near {rest[:20]!r}")
            pos = len(body_part) - len(rest)
    arities = {}
    for rel, vs in atoms:
        if arities.setdefault(rel, len(vs)) != len(vs):
            raise ArityMismatch(f"relation {rel} used with arities "
                                f"{arities[rel]} and {len(vs)}")
    body_vars = {v for _, vs in atoms for v in vs}
    unbound = [v for v in head if v not in body_vars]
    if unbound:
        raise UnboundHeadVariable(f"head variables {unbound} not in any atom")
    return ConjunctiveQuery(tuple(head), tuple(atoms))


def _split_vars(csv: str) -> list:
    csv = csv.strip()
    if not csv:
        return []
    out = []
    for tok in csv.split(','):
        tok = tok.strip()
        if not re.fullmatch(_IDENT, tok):
            raise QuerySyntaxError(f"bad variable name {tok!r}")
        out.append(tok)
    return out


class Database:
    """Per-relation fact sets over an ordered active domain."""

    def __init__(self, relations: dict):
        self.relations = {}
        self.arity = {}
        values = set()
        for rel, facts in relations.items():
            facts = {tuple(f) for f in facts}
            for f in facts:
                values.update(f)
                if self.arity.setdefault(rel, len(f)) != len(f):
                    raise ArityMismatch(f"relation {rel} has facts of "
                                        f"different arities")
            self.arity.setdefault(rel, None)
            self.relations[rel] = facts
        self.active_domain = sorted(values, key=domain_sort_key)

    @staticmethod
    def from_tsv(text: str) -> 'Database':
        """Combined format: one fact per line, `R<TAB>v1<TAB>v2...`."""
        relations = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.rstrip('\n')
            if not line.strip() or line.startswith('#'):
                continue
            parts = line.split('\t')
            if len(parts) < 2:
                raise QuerySyntaxError(
                    f"line {lineno}: expected relation and at least one value")
            relations.setdefault(parts[0], set()).add(tuple(parts[1:]))
        return Database(relations)

    @staticmethod
    def from_relation_texts(texts: dict) -> 'Database':
        """One text per relation, each line the tab-separated values of one
        fact (an empty text declares an empty relation)."""
        relations = {}
        for rel, text in texts.items():
            facts = set()
            for lineno, raw in enumerate(text.splitlines(), start=1):
                line = raw.rstrip('\n')
                if not line.strip() or line.startswith('#'):
                    continue
                facts.add(tuple(line.split('\t')))
            relations[rel] = facts
        return Database(relations)

    @staticmethod
    def from_tsv_dir(path) -> 'Database':
        """Directory with one `<relation>.tsv` file per relation."""
        import os
        texts = {}
        for name in sorted(os.listdir(path)):
            if not name.endswith('.tsv'):
                continue
            with open(os.path.join(path, name), 'r', encoding='utf-8') as handle:
                texts[name[:-4]] = handle.read()
        if not texts:
            raise QuerySyntaxError(f"no .tsv files under {path}")
        return Database.from_relation_texts(texts)

    def facts(self) -> list:
        """All facts as (relation, values), sorted for determinism."""
        return sorted((rel, f) for rel, fs in self.relations.items() for f in fs)


# -- hypergraph acyclicity -----------------------------------------------------

@dataclass
class JoinTree:
    root: int
    adjacency: dict          # atom id -> sorted list of neighbour ids

    def bfs_order(self) -> list:
        seen = {self.root}
        order = [self.root]
        queue = [self.root]
        while queue:
            node = queue.pop(0)
            for nxt in self.adjacency.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    order.append(nxt)
                    queue.append(nxt)
        return order


def _gyo(edges: list) -> Optional[dict]:
    """GYO ear reduction; returns parent links when acyclic, else None.

    edges: list of variable sets, indexed by atom id.
    """
    current = {i: set(vs) for i, vs in enumerate(edges)}
    parent = {}
    changed = True
    while changed and len(current) > 1:
        changed = False
        counts = {}
        for vs in current.values():
            for v in vs:
                counts[v] = counts.get(v, 0) + 1
        for i, vs in current.items():
            isolated = {v for v in vs if counts[v] == 1}
            if isolated:
                vs -= isolated
                changed = True
        ids = sorted(current)
        removed = None
        for i in ids:
            for j in ids:
                if i != j and current[i] <= current[j]:
                    parent[i] = j
                    removed = i
                    break
            if removed is not None:
                break
        if removed is not None:
            del current[removed]
            changed = True
    if len(current) > 1:
        return None
    if current:
        root = next(iter(current))
        parent[root] = None
    return parent


def is_acyclic(query: ConjunctiveQuery) -> bool:
    if not query.atoms:
        return True
    return _gyo([set(vs) for _, vs in query.atoms]) is not None


def join_tree(query: ConjunctiveQuery) -> Optional[JoinTree]:
    """A join tree with the running-intersection property, or None."""
    if not query.atoms:
        return None
    parent = _gyo([set(vs) for _, vs in query.atoms])
    if parent is None:
        return None
    adjacency = {i: [] for i in range(len(query.atoms))}
    root = None
    for child, par in parent.items():
        if par is None:
            root = child
        else:
            adjacency[child].append(par)
            adjacency[par].append(child)
    for nbrs in adjacency.values():
        nbrs.sort()
    tree = JoinTree(root, adjacency)
    _assert_running_intersection(query, tree)
    return tree


def _assert_running_intersection(query: ConjunctiveQuery, tree: JoinTree):
    order = tree.bfs_order()
    pos = {a: k for k, a in enumerate(order)}
    for var in {v for _, vs in query.atoms for v in vs}:
        holders = [i for i, (_, vs) in enumerate(query.atoms) if var in vs]
        # connectivity: every holder except the shallowest must have a
        # neighbour holder strictly closer to the root
        shallowest = min(holders, key=lambda a: pos[a])
        for a in holders:
            if a == shallowest:
                continue
            if not any(n in holders and pos[n] < pos[a]
                       for n in tree.adjacency[a]):
                raise AssertionError("join tree violates running intersection")


def _with_head_atom(query: ConjunctiveQuery) -> ConjunctiveQuery:
    head_atom = ('__head__', tuple(query.head))
    return ConjunctiveQuery(query.head, query.atoms + (head_atom,))


def is_free_connex(query: ConjunctiveQuery) -> bool:
    """Acyclic, and still acyclic with a virtual atom over the head."""
    return is_acyclic(query) and is_acyclic(_with_head_atom(query))


def elimination_order(query: ConjunctiveQuery) -> list:
    """Total variable order witnessing free-connexity, free variables first.

    Breadth-first over a join tree of the query extended with a virtual
    head atom, rooted at that atom; variables are listed by first visit.
    """
    if not is_free_connex(query):
        raise NotFreeConnex(f"{query} is not free-connex acyclic")
    if not query.atoms:
        return list(query.head)
    extended = _with_head_atom(query)
    tree = JoinTree(len(query.atoms), join_tree(extended).adjacency)
    return _first_visits(extended, tree)


def _first_visits(query: ConjunctiveQuery, tree: JoinTree) -> list:
    """The query's variables by first visit in a breadth-first walk of
    its join tree."""
    return list(dict.fromkeys(v for a in tree.bfs_order() for v in query.atoms[a][1]))


# -- per-atom fact indexes --------------------------------------------------------

class _AtomIndex:
    """Facts of one atom, sorted along the decision order.

    Variables of the atom are grouped in decision order; the key of a fact
    lists its values by group (a repeated variable contributes one group
    with several positions).  Values are rank-encoded: each is replaced by
    its int position in the database's active domain, which is sorted by
    `domain_sort_key`, so keys of mixed-type columns compare as ints and
    sort in domain order.  Narrowing by the next group's value keeps the
    consistent facts a contiguous slice.
    """

    def __init__(self, atom_id: int, rel: str, vars_: tuple, facts: Iterable[tuple],
                 rank: dict):
        self.atom_id = atom_id
        self.rel = rel
        self.vars = vars_
        groups = {}
        for pos, v in enumerate(vars_):
            groups.setdefault(v, []).append(pos)
        self.group_vars = sorted(groups, key=lambda v: rank[v])
        self.group_positions = [tuple(groups[v]) for v in self.group_vars]
        keys = []
        for f in facts:
            ok = True
            key = []
            for positions in self.group_positions:
                vals = {f[p] for p in positions}
                if len(vals) > 1:
                    ok = False
                    break
                key.append(f[positions[0]])
            if ok:
                keys.append(tuple(key))
        keys.sort()
        self.keys = keys
        # undecided[d]: mask (bit rank[v]) of the variables of groups d on
        self.undecided = [0] * (len(self.group_vars) + 1)
        for d in range(len(self.group_vars) - 1, -1, -1):
            self.undecided[d] = self.undecided[d + 1] | 1 << rank[self.group_vars[d]]

    def full_range(self) -> tuple:
        return (0, len(self.keys), 0)

    def next_var(self, state: tuple) -> Optional[str]:
        depth = state[2]
        if depth >= len(self.group_vars):
            return None
        return self.group_vars[depth]


def _lower_bound(keys, lo, hi, depth, value):
    while lo < hi:
        mid = (lo + hi) // 2
        if keys[mid][depth] < value:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _upper_bound(keys, lo, hi, depth, value):
    while lo < hi:
        mid = (lo + hi) // 2
        if keys[mid][depth] <= value:
            lo = mid + 1
        else:
            hi = mid
    return lo


# -- semijoin reduction --------------------------------------------------------------

def _semijoin(left_vars, left_facts, right_vars, right_facts):
    shared = sorted(set(left_vars) & set(right_vars))
    if not shared:
        return left_facts
    rpos = {v: right_vars.index(v) for v in shared}
    proj = {tuple(f[rpos[v]] for v in shared) for f in right_facts}
    lpos = {v: left_vars.index(v) for v in shared}
    return [f for f in left_facts
            if tuple(f[lpos[v]] for v in shared) in proj]


def _reduce_facts(query: ConjunctiveQuery, per_atom: list) -> list:
    """Yannakakis-style full reduction along a join tree (acyclic only)."""
    tree = join_tree(query)
    if tree is None:
        return per_atom
    order = tree.bfs_order()
    pos = {a: k for k, a in enumerate(order)}
    facts = list(per_atom)
    for a in reversed(order):           # leaves first
        for n in tree.adjacency[a]:
            if pos[n] > pos[a]:
                facts[a] = _semijoin(query.atoms[a][1], facts[a],
                                     query.atoms[n][1], facts[n])
    for a in order:                     # root first
        for n in tree.adjacency[a]:
            if pos[n] < pos[a]:
                facts[a] = _semijoin(query.atoms[a][1], facts[a],
                                     query.atoms[n][1], facts[n])
    return facts


# -- compilation -----------------------------------------------------------------------

def compile_cq(query: ConjunctiveQuery, db: Database,
               order: Optional[list] = None) -> RelCircuit:
    """Compile the answer relation into an ordered decision circuit.

    The order must cover every query variable with the free variables as a
    prefix; when omitted it is derived for free-connex queries.  Orders
    that do not witness free-connexity still give a correct circuit, only
    the linear size guarantee is lost.
    """
    _check_relations(query, db)
    if order is None:
        if is_free_connex(query):
            order = elimination_order(query)
        else:
            order = list(query.head) + query.existential_variables()
            warnings.warn(f"{query}: no free-connex witness order; "
                          "circuit size may not be linear in the database")
    all_vars = set(query.variables())
    if set(order) != all_vars:
        raise OrderMissingVariables(
            f"order {order} must cover exactly the query variables {sorted(all_vars)}")
    num_free = len(set(query.head))
    if set(order[:num_free]) != set(query.head):
        raise OrderMissingVariables("free variables must form a prefix of the order")
    rank = {v: i for i, v in enumerate(order)}

    # facts are rank-encoded: value i of the sorted active domain becomes i
    values = db.active_domain
    value_rank = {v: i for i, v in enumerate(values)}
    per_atom = [[tuple(value_rank[v] for v in f) for f in db.relations[rel]]
                for rel, _ in query.atoms]
    if is_acyclic(query):
        per_atom = _reduce_facts(query, per_atom)

    indexes = [_AtomIndex(i, rel, vs, per_atom[i], rank)
               for i, (rel, vs) in enumerate(query.atoms)]

    # per-attribute domains: values seen at any position of the variable
    domains = {}
    for v in query.head:
        seen = set()
        for idx in indexes:
            for gi, gv in enumerate(idx.group_vars):
                if gv == v:
                    seen.update(key[gi] for key in idx.keys)
        dummy = values[0] if values else '_'
        domains[v] = [values[r] for r in sorted(seen)] if seen else [dummy]

    b = RelBuilder(order[:num_free], domains)
    free_vars = set(query.head)

    circuit_cache = {}
    exists_cache = {}

    def state_key(atom_states: dict) -> tuple:
        return tuple(sorted((a,) + atom_states[a] for a in atom_states))

    def next_variable(atom_states: dict, atoms: list) -> Optional[str]:
        best = None
        for a in atoms:
            v = indexes[a].next_var(atom_states[a])
            if v is not None and (best is None or rank[v] < rank[best]):
                best = v
        return best

    def branches(atom_states: dict, atoms: list, var: str) -> Iterator[tuple]:
        """Yield (rank, narrowed states) for every value rank of `var`
        shared by all atoms deciding it, in ascending order.

        Seek-based intersection: step through the distinct values of the
        narrowest slice and seek a monotone cursor forward in each other
        slice; a miss moves the narrowest slice on to the value found.
        """
        deciding = sorted((a for a in atoms
                           if indexes[a].next_var(atom_states[a]) == var),
                          key=lambda a: atom_states[a][1] - atom_states[a][0])
        keys0 = indexes[deciding[0]].keys
        lo0, hi0, depth = atom_states[deciding[0]]
        others = [(a, indexes[a].keys) + atom_states[a][1:] for a in deciding[1:]]
        cursors = [atom_states[a][0] for a in deciding[1:]]
        while lo0 < hi0:
            value = keys0[lo0][depth]
            for j, (_, keys, hi, d) in enumerate(others):
                c = cursors[j] = _lower_bound(keys, cursors[j], hi, d, value)
                if c == hi:
                    return
                if keys[c][d] != value:
                    lo0 = _lower_bound(keys0, lo0, hi0, depth, keys[c][d])
                    break
            else:
                sub = dict(atom_states)
                end0 = _upper_bound(keys0, lo0, hi0, depth, value)
                sub[deciding[0]] = (lo0, end0, depth + 1)
                for j, (a, keys, hi, d) in enumerate(others):
                    c = cursors[j]
                    cursors[j] = _upper_bound(keys, c, hi, d, value)
                    sub[a] = (c, cursors[j], d + 1)
                yield value, sub
                lo0 = end0

    def exists(atom_states: dict, atoms: list):
        """Whether some assignment extends this residual; stops at the
        first witness."""
        atoms = [a for a in atoms
                 if indexes[a].next_var(atom_states[a]) is not None]
        if not atoms:
            return True
        key = state_key({a: atom_states[a] for a in atoms})
        hit = exists_cache.get(key)
        if hit is not None:
            return hit
        var = next_variable(atom_states, atoms)
        result = False
        for _, sub in branches(atom_states, atoms, var):
            if (yield exists(sub, atoms)):
                result = True
                break
        exists_cache[key] = result
        return result

    def compile_part(atom_states: dict):
        """Circuit node for the relation of this residual, or the empty
        node when no assignment survives."""
        live = {a: s for a, s in atom_states.items()
                if indexes[a].next_var(s) is not None}
        if not live:
            return b.unit()
        key = state_key(live)
        hit = circuit_cache.get(key)
        if hit is not None:
            return hit
        comps = components(list(live), [indexes[a].undecided[s[2]]
                                         for a, s in live.items()])
        if len(comps) > 1:
            parts = []
            for comp in comps:
                node = yield compile_part({a: live[a] for a in comp})
                if b.nodes[node] == ('0',):
                    circuit_cache[key] = b.empty()
                    return b.empty()
                if b.nodes[node] != ('1',):
                    parts.append(node)
            node = b.join(tuple(parts)) if len(parts) > 1 else (
                parts[0] if parts else b.unit())
        else:
            atoms = comps[0]
            var = next_variable(live, atoms)
            if var not in free_vars:
                node = b.unit() if (yield exists(live, atoms)) else b.empty()
            else:
                children = []
                for r, sub_states in branches(live, atoms, var):
                    sub = yield compile_part(sub_states)
                    if b.nodes[sub] == ('0',):
                        continue
                    children.append(b.join((b.input(var, values[r]), sub)))
                node = b.union(tuple(children)) if children else b.empty()
        circuit_cache[key] = node
        return node

    initial = {}
    for idx in indexes:
        state = idx.full_range()
        if state[1] == 0:
            return b.finish(b.empty())
        initial[idx.atom_id] = state
    return b.finish(trampoline(compile_part(initial)))


# -- answer wrappers ----------------------------------------------------------------------

def _check_relations(query: ConjunctiveQuery, db: Database) -> None:
    """Every atom names a relation of the database, with its arity."""
    for rel, vs in query.atoms:
        if rel not in db.relations:
            raise UnknownRelation(f"relation {rel} not in the database")
        arity = db.arity[rel]
        if arity is not None and arity != len(vs):
            raise ArityMismatch(f"relation {rel} has arity {arity}, "
                                f"the query uses it with {len(vs)}")


def _body_order(query: ConjunctiveQuery) -> list:
    """Every variable of the query, by `_first_visits` over the body's join
    tree, or in `variables()` order when the body is cyclic.  With every
    variable free, the first order witnesses free-connexity."""
    tree = join_tree(query)
    return query.variables() if tree is None else _first_visits(query, tree)


def _compile_full(query: ConjunctiveQuery, db: Database) -> RelCircuit:
    """Compile the query with every variable free, in `_body_order`."""
    order = _body_order(query)
    return compile_cq(ConjunctiveQuery(tuple(order), query.atoms), db, order)


def _answer_circuit(query: ConjunctiveQuery, db: Database) -> RelCircuit:
    """Ordered decision circuit of the answers, attributes in head order.

    A free-connex query compiles directly.  Any other query compiles with
    every variable free; its answers, projected onto the head, are then
    compiled as the one atom of `Q(head) :- A(head)`, which is free-connex.
    """
    if is_free_connex(query):
        return compile_cq(query, db)
    head = tuple(dict.fromkeys(query.head))
    rows = {tuple(t[v] for v in head) for t in enumerate_rel(_compile_full(query, db))}
    return compile_cq(ConjunctiveQuery(query.head, (('A', head),)),
                      Database({'A': rows}))


def answer_count(query: ConjunctiveQuery, db: Database) -> int:
    return count_rel(_answer_circuit(query, db))


def answer_enum(query: ConjunctiveQuery, db: Database) -> Iterator[dict]:
    """Answers as dicts over the head variables, in lexicographic order."""
    for tup in enumerate_rel(_answer_circuit(query, db)):
        yield {v: tup[v] for v in query.head}


def answer_access(query: ConjunctiveQuery, db: Database, index: int) -> dict:
    """The index-th answer (1-based) in the compiled lexicographic order."""
    tup = direct_access(_answer_circuit(query, db), index)
    return {v: tup[v] for v in query.head}
