"""Per-node variable masks decode to the reference frozensets of
`oracles.var_sets` on every node of Boolean and relational circuits, in
sorted order, with sparse variable ids and after conditioning."""

import random

from kcomp._dag import members
from kcomp.circuits import condition, varset
from kcomp.cnf import compile_dpll
from kcomp.cq import compile_cq

from oracles import var_sets
from test_certificates import random_cnf, random_dnnf
from test_cq import random_db_for, random_free_connex_query
from test_queries import random_decision_circuit
from test_smooth import relabel
from test_stress import random_zero_suppressed_circuit


def boolean_corpus(rng):
    for _ in range(40):
        n = rng.randint(1, 9)
        yield random_dnnf(rng, n)
        yield random_decision_circuit(rng, list(range(n)))
        compiled = compile_dpll(random_cnf(rng, n, rng.randint(1, 2 * n)))[0]
        yield compiled
        yield relabel(random_decision_circuit(rng, list(range(n))), rng)
        yield relabel(random_dnnf(rng, n), rng)
        pinned = rng.sample(sorted(compiled.universe), len(compiled.universe) // 2)
        yield condition(compiled, {v: rng.randint(0, 1) for v in pinned})


def relational_corpus(rng):
    for _ in range(40):
        k = rng.randint(1, 5)
        attrs = [f"a{i}" for i in range(k)]
        domains = {a: list(range(rng.randint(1, 3))) for a in attrs}
        yield random_zero_suppressed_circuit(rng, attrs, domains)
        q = random_free_connex_query(rng)
        yield compile_cq(q, random_db_for(q, rng, rng.randint(1, 15)))


def test_boolean_masks_decode_to_the_reference_sets():
    sparse = 0
    for c in boolean_corpus(random.Random(83)):
        order = c.sorted_vars()
        assert list(order) == sorted(c.universe)
        sparse += order != tuple(range(len(order)))
        masks = c.varsets()
        assert all(m >> len(order) == 0 for m in masks)
        for gate, expect in enumerate(var_sets(c.nodes)):
            assert members(masks[gate], order) == sorted(expect)
            assert varset(c, gate) == expect
    assert sparse > 40


def test_relational_masks_decode_to_the_reference_sets():
    for c in relational_corpus(random.Random(84)):
        every = range(len(c.attrs))
        masks = c.attrsets()
        assert all(m >> len(c.attrs) == 0 for m in masks)
        for gate, expect in enumerate(var_sets(c.nodes)):
            assert members(masks[gate], every) == sorted(expect)
