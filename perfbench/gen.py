"""Seeded input generators.

Every generator takes a `random.Random` and returns the text a user would
hand to kcomp (TSV databases, DIMACS, JSON trees), plus the plain Python
structures the reference checks in `refs.py` read.  The same seed always
gives the same inputs.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# -- cq_db ------------------------------------------------------------------

PATH_QUERY = "Q(x, y, z) :- R(x, y), S(y, z)."
STAR_QUERY = "Q(x, y) :- R(x, y), S(y, z), T(y, w)."


def cq_database(rng, facts_per_rel: int) -> dict:
    """Binary relations R(x, y), S(y, z), T(y, w) with a skewed key y.

    Key k joins a share of each relation proportional to 1 / (k + 1)^0.7,
    over facts/4 keys, so a few keys join many facts and most join one or
    two.  The degree of each key is fixed by the size alone; the seed picks
    the other values, so the join work is the same for every seed.
    Returns the relations as sorted lists of value pairs.
    """
    keys = max(4, facts_per_rel // 4)
    weights = [1.0 / (k + 1) ** 0.7 for k in range(keys)]
    total = sum(weights)
    degrees = [max(1, int(facts_per_rel * w / total)) for w in weights]
    k = 0
    while sum(degrees) < facts_per_rel:
        degrees[k % keys] += 1
        k += 1
    spread = 8 * facts_per_rel
    rels = {}
    for rel, tag in (('R', 'a'), ('S', 'c'), ('T', 'd')):
        pairs = set()
        for key, degree in enumerate(degrees):
            name = f"k{key:05d}"
            others = set()
            while len(others) < degree:
                others.add(f"{tag}{rng.randrange(spread):06d}")
            pairs.update((o, name) if rel == 'R' else (name, o) for o in others)
        rels[rel] = sorted(pairs)
    return rels


def tsv(rels: dict) -> str:
    return "".join(f"{rel}\t{a}\t{b}\n" for rel, pairs in rels.items()
                   for a, b in pairs)


# -- cnf_kc -------------------------------------------------------------------

def banded_cnf(rng, num_vars: int, per_window: int = 2, width: int = 6) -> list:
    """3-CNF whose clauses each sit inside a window of `width` variables.

    `per_window` clauses start at every window position, so the formula
    has bounded path width and compiles to a deep, narrow circuit.
    Clauses are lists of signed 1-based literals.
    """
    clauses = []
    for start in range(num_vars - width + 1):
        for _ in range(per_window):
            picked = rng.sample(range(start, start + width), 3)
            clauses.append([v + 1 if rng.random() < 0.5 else -(v + 1)
                            for v in picked])
    return clauses


def random_cnf(rng, num_vars: int, num_clauses: int) -> list:
    """Uniform random 3-CNF."""
    return [[v + 1 if rng.random() < 0.5 else -(v + 1)
             for v in rng.sample(range(num_vars), 3)]
            for _ in range(num_clauses)]


def flip_signs(rng, clauses: list) -> list:
    """Negate every literal of a random half of the variables."""
    num_vars = max(abs(l) for c in clauses for l in c)
    flip = {v for v in range(1, num_vars + 1) if rng.random() < 0.5}
    return [[-l if abs(l) in flip else l for l in c] for c in clauses]


def dimacs(num_vars: int, clauses: list) -> str:
    body = "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
    return f"p cnf {num_vars} {len(clauses)}\n{body}"


def literal_probs(num_vars: int) -> dict:
    """Per-variable probabilities for weighted counting (0-based vars)."""
    return {v: Fraction(1 + v % 5, 7) for v in range(num_vars)}


def implication_chain(num_vars: int) -> list:
    """x1 -> x2 -> ... -> xn; exactly n + 1 models."""
    return [[-i, i + 1] for i in range(1, num_vars)]


# -- prov_tid -------------------------------------------------------------------

HIER_QUERY = "Q() :- R(x), S(x, y)."
NONHIER_QUERY = "Q() :- R(x), S(x, y), T(y)."


def _prob(rng) -> Fraction:
    return Fraction(rng.randint(1, 9), 10)


def hierarchical_tid(rng, num_facts: int) -> list:
    """Facts (rel, values, prob, kind) for Q() :- R(x), S(x, y).

    A third of the facts are R(x); the rest are S(x, y) edges dealt to the
    x values in turn, so the provenance shape is fixed by the size and the
    seed picks the y values and the probabilities.  One S fact in ten is
    exogenous (always present, probability 1), so the query never holds
    on the exogenous facts alone.
    """
    num_r = max(1, num_facts // 3)
    facts = [('R', (f"x{i:03d}",), _prob(rng), 'n') for i in range(num_r)]
    edges = set()
    for i in range(num_facts - num_r):
        x = f"x{i % num_r:03d}"
        while True:
            edge = (x, f"y{rng.randrange(2 * num_facts):03d}")
            if edge not in edges:
                edges.add(edge)
                break
    for k, edge in enumerate(sorted(edges)):
        if k % 10 == 9:
            facts.append(('S', edge, Fraction(1), 'x'))
        else:
            facts.append(('S', edge, _prob(rng), 'n'))
    return facts


def component_tid(rng, max_facts: int) -> list:
    """Facts for the non-hierarchical Q() :- R(x), S(x, y), T(y).

    The S graph is a union of disjoint blocks of two x and two y values
    with three or four edges each, so the exact probability factorises
    over blocks and a brute force per block gives it.  Returns a list of
    blocks, each a list of (rel, values, prob, kind).
    """
    blocks = []
    used = 0
    b = 0
    while True:
        xs = [f"x{b}_{i}" for i in range(2)]
        ys = [f"y{b}_{i}" for i in range(2)]
        edges = [(x, y) for x in xs for y in ys]
        rng.shuffle(edges)
        edges = sorted(edges[:rng.choice((3, 4))])
        block = ([('R', (x,), _prob(rng), 'n') for x in xs]
                 + [('S', e, _prob(rng), 'n') for e in edges]
                 + [('T', (y,), _prob(rng), 'n') for y in ys])
        if used + len(block) > max_facts:
            return blocks
        blocks.append(block)
        used += len(block)
        b += 1


def tid_text(facts) -> str:
    return "".join(f"{rel}\t" + "\t".join(vals) + f"\t{p}\t{kind}\n"
                   for rel, vals, p, kind in facts)


# -- trees ------------------------------------------------------------------------

TREE_LABELS = ('a', 'b')
TREE_DEFAULT = 'e'


def mod3_automaton() -> dict:
    """Counts 'a' labels modulo 3; accepts when the count is 0."""
    internal = []
    for s1 in range(3):
        for s2 in range(3):
            for label in ('a', 'b', 'e'):
                internal.append([s1, s2, label,
                                 (s1 + s2 + (label == 'a')) % 3])
    return {"states": [0, 1, 2], "accepting": [0],
            "leaf": {"a": 1, "b": 0, "e": 0}, "internal": internal}


def random_tree(rng, num_nodes: int) -> list:
    """Full binary tree as a preorder list of (label, prob, left, right)
    with child indexes (-1 on leaves); num_nodes is made odd.

    The shape is drawn from a stream fixed by the size and the seed picks
    labels and probabilities, so the cost does not follow the seed.
    """
    num_nodes |= 1
    shape = random.Random(num_nodes)
    nodes = []
    # explicit stack of (size, parent index, side)
    stack = [(num_nodes, -1, 0)]
    while stack:
        size, parent, side = stack.pop()
        idx = len(nodes)
        nodes.append([rng.choice(TREE_LABELS), _prob(rng), -1, -1])
        if parent >= 0:
            nodes[parent][2 + side] = idx
        if size > 1:
            left = 2 * shape.randrange((size - 1) // 2) + 1
            stack.append((size - 1 - left, idx, 1))
            stack.append((left, idx, 0))
    return [tuple(n) for n in nodes]


def caterpillar_tree(rng, depth: int) -> list:
    """Spine of `depth` internal nodes, each with a leaf as left child."""
    nodes = []
    for _ in range(depth):
        idx = len(nodes)
        nodes.append([rng.choice(TREE_LABELS), _prob(rng), idx + 1, idx + 2])
        nodes.append([rng.choice(TREE_LABELS), _prob(rng), -1, -1])
    nodes.append([rng.choice(TREE_LABELS), _prob(rng), -1, -1])
    return [tuple(n) for n in nodes]


def tree_json(nodes: list) -> str:
    """Nested JSON of a preorder node list (recursion depth = tree depth)."""
    def rec(i):
        label, prob, left, right = nodes[i]
        out = {"label": label, "prob": str(prob)}
        if left >= 0:
            out["children"] = [rec(left), rec(right)]
        return out
    return json.dumps({"default": TREE_DEFAULT, "root": rec(0)})
