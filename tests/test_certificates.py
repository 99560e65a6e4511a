"""Property tests for the vtree certificates that classify and classify_rel
report: each reported witness must hold on the circuit it certifies."""

import random

from kcomp import (CircuitBuilder, VTree, classify, classify_rel, compile_dpll,
                   count_rel, direct_access, from_boolean, parse_dimacs)
from kcomp import circuits
from kcomp._dag import binary_splits
from kcomp.circuits import respects_vtree, to_nnf

from oracles import _recursion_limit_near_current_depth


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


def count_searches(monkeypatch):
    """Wrap circuits._synthesized_witness; returns the list of its calls."""
    calls = []
    search = circuits._synthesized_witness

    def counted(variables, splits):
        calls.append(variables)
        return search(variables, splits)

    monkeypatch.setattr(circuits, '_synthesized_witness', counted)
    return calls


def non_obdd_dnnf():
    """x0 AND (x1 OR NOT x2): decomposable, no OBDD order."""
    b = CircuitBuilder(3)
    return b.finish(b.conj((b.literal(0, True),
                            b.disj((b.literal(1, True), b.literal(2, False))))))


def test_classify_searches_for_the_witness_on_first_read_only(monkeypatch):
    calls = count_searches(monkeypatch)
    c = non_obdd_dnnf()
    report = classify(c)
    assert report.is_decomposable and report.obdd_order is None
    assert calls == []
    witness = report.structured_witness
    assert witness is not None and respects_vtree(c, witness)
    assert len(calls) == 1
    assert report.structured_witness is witness
    assert classify(c).structured_witness is witness
    assert len(calls) == 1


def test_hinted_classify_never_searches(monkeypatch):
    calls = count_searches(monkeypatch)
    good = VTree.right_linear([0, 1, 2])
    bad = VTree.internal(VTree.internal(VTree.leaf(0), VTree.leaf(1)),
                         VTree.leaf(2))
    assert classify(non_obdd_dnnf(), hint=good).structured_witness is good
    assert classify(non_obdd_dnnf(), hint=bad).structured_witness is None
    assert calls == []


def test_classify_rel_searches_for_the_witness_on_first_read_only(monkeypatch):
    calls = count_searches(monkeypatch)
    rc = from_boolean(non_obdd_dnnf())
    report = classify_rel(rc)
    assert report.decomposable
    assert calls == []
    witness = report.structured_witness
    assert witness is not None and respects_vtree(non_obdd_dnnf(), witness)
    assert len(calls) == 1
    assert report.structured_witness is witness
    assert classify_rel(rc).structured_witness is witness
    assert len(calls) == 1


def test_relational_queries_never_search(monkeypatch):
    calls = count_searches(monkeypatch)
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(1, 8)
        rc = from_boolean(random_decision_dag(rng, n, rng.randint(1, 20),
                                             ordered=True))
        if classify_rel(rc).ordered_witness is None:
            continue
        total = count_rel(rc)
        if total:
            direct_access(rc, rng.randint(1, total))
    assert calls == []


def lazy_and_direct_witnesses(rng):
    """(lazily read, directly searched) witness pairs, Boolean and
    relational, on seeded circuits whose report has to search."""
    cases = []
    for i in range(400):
        n = rng.randint(1, 8)
        kind = i % 4
        if kind == 0:
            c = random_dnnf(rng, n)
        elif kind == 1:
            c = to_nnf(random_nnf(rng, n, rng.randint(1, 10)))
        elif kind == 2:
            c = random_decision_dag(rng, n, rng.randint(1, 20),
                                    ordered=rng.random() < 0.5)
        else:
            n = rng.randint(3, 12)
            c = compile_dpll(random_cnf(rng, n, rng.randint(1, 2 * n)))[0]
        report = classify(c)
        if report._search is not None:
            direct = circuits._synthesized_witness(
                c.universe, list(binary_splits(c.nodes, c.varsets(), 'A',
                                               c.sorted_vars())))
            cases.append((report.structured_witness, direct))
        if c.universe == frozenset(range(n)):
            rc = from_boolean(c)
            rel = classify_rel(rc)
            if rel.decomposable:
                direct = circuits._synthesized_witness(
                    frozenset(range(len(rc.attrs))),
                    list(binary_splits(rc.nodes, rc.attrsets(), 'J',
                                       range(len(rc.attrs)))))
                cases.append((rel.structured_witness, direct))
    return cases


def test_lazy_witness_matches_a_direct_search():
    cases = lazy_and_direct_witnesses(random.Random(59))
    assert sum(lazy is not None for lazy, _ in cases) > 100
    assert sum(lazy is None for lazy, _ in cases) > 10
    for lazy, direct in cases:
        assert repr(lazy) == repr(direct)


def test_witness_synthesis_of_a_deep_vtree_does_not_recurse():
    # x1 -> x2 -> ... -> x150 compiles to a decision chain; classify_rel
    # synthesizes the vtree of its relational copy, one level per variable
    n = 150
    chain = "".join(f"-{i} {i + 1} 0\n" for i in range(1, n))
    circuit, _ = compile_dpll(parse_dimacs(f"p cnf {n} {n - 1}\n{chain}"))
    expected = classify_rel(from_boolean(circuit)).structured_witness
    with _recursion_limit_near_current_depth(margin=60):
        got = classify_rel(from_boolean(circuit)).structured_witness
    assert got is not None and repr(got) == repr(expected)
