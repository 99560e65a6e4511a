"""Property tests for the vtree certificates that classify and classify_rel
report: each reported witness must hold on the circuit it certifies."""

import random

from kcomp import (CircuitBuilder, VTree, classify, classify_rel, compile_dpll,
                   from_boolean, parse_dimacs)
from kcomp.circuits import respects_vtree, to_nnf


def random_decision_dag(rng, num_vars, steps, ordered):
    """Decision gates over a pool of earlier gates; with `ordered`, each
    gate tests a variable before every variable tested below it."""
    b = CircuitBuilder(num_vars)
    order = list(range(num_vars))
    rng.shuffle(order)
    pool = [(b.false(), num_vars), (b.true(), num_vars)]
    for _ in range(steps):
        lo, hi = rng.choice(pool), rng.choice(pool)
        first = min(lo[1], hi[1]) if ordered else num_vars
        if first == 0:
            continue
        pos = rng.randrange(first)
        pool.append((b.decision(order[pos], lo[0], hi[0]), pos))
    return b.finish(pool[-1][0])


def random_cnf(rng, num_vars, num_clauses):
    lines = [f"p cnf {num_vars} {num_clauses}"]
    for _ in range(num_clauses):
        vs = rng.sample(range(1, num_vars + 1), min(3, num_vars))
        lines.append(" ".join(str(v if rng.random() < 0.5 else -v) for v in vs) + " 0")
    return parse_dimacs("\n".join(lines) + "\n")


def random_dnnf(rng, num_vars):
    """Decomposable NNF: ANDs split their variables, ORs repeat them."""
    b = CircuitBuilder(num_vars)

    def build(vs, depth):
        if len(vs) == 1 or depth > 4 or rng.random() < 0.2:
            return b.literal(rng.choice(vs), rng.random() < 0.5)
        if rng.random() < 0.5:
            vs = rng.sample(vs, len(vs))
            k = rng.randint(1, len(vs) - 1)
            return b.conj((build(vs[:k], depth + 1), build(vs[k:], depth + 1)))
        return b.disj((build(vs, depth + 1), build(vs, depth + 1)))

    return b.finish(build(list(range(num_vars)), 0))


def random_nnf(rng, num_vars, size):
    b = CircuitBuilder(num_vars)
    pool = [b.literal(v, p) for v in range(num_vars) for p in (True, False)]
    for _ in range(size):
        kids = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
        pool.append(b.conj(kids) if rng.random() < 0.5 else b.disj(kids))
    return b.finish(pool[-1])


def test_detected_obdd_order_is_a_witness():
    rng = random.Random(41)
    circuits = []
    for _ in range(600):
        n = rng.randint(1, 8)
        circuits.append(random_decision_dag(rng, n, rng.randint(1, 20),
                                            ordered=rng.random() < 0.7))
    for _ in range(60):
        n = rng.randint(3, 12)
        circuits.append(compile_dpll(random_cnf(rng, n, rng.randint(1, 3 * n)))[0])
    detected = 0
    for c in circuits:
        report = classify(c)
        if report.obdd_order is None:
            continue
        detected += 1
        caterpillar = VTree.right_linear(report.obdd_order)
        assert respects_vtree(c, caterpillar)
        assert repr(report.structured_witness) == repr(caterpillar)
    assert detected > 300


def test_relational_structured_witness_holds_on_the_boolean_circuit():
    rng = random.Random(43)
    witnessed = 0
    for i in range(500):
        n = rng.randint(1, 7)
        c = random_dnnf(rng, n) if i % 2 else to_nnf(random_nnf(rng, n, rng.randint(1, 10)))
        if c.universe != frozenset(range(n)):
            continue
        # from_boolean names attribute i after variable i of range(n)
        vtree = classify_rel(from_boolean(c)).structured_witness
        if vtree is not None:
            witnessed += 1
            assert respects_vtree(c, vtree)
    assert witnessed > 100
