"""The stack-based enumerator against the older recursive ones, answer by
answer and in order, and at depths the recursion could not reach."""

import random
import time
from itertools import islice

from kcomp.circuits import CircuitBuilder, core_flags
from kcomp.cnf import compile_dpll
from kcomp.cq import compile_cq, is_free_connex, parse_cq
from kcomp.queries import enumerate_models, model_count
from kcomp.relational import (RelBuilder, direct_access, enumerate_rel,
                              from_boolean)
from kcomp.trees import TreeNode, answer_circuit

from oracles import enumerate_decision_recursive, enumerate_rel_recursive
from test_cnf import random_cnf
from test_cq import random_db_for, random_free_connex_query
from test_queries import random_decision_circuit
from test_relational import random_decision_relcircuit
from test_stress import random_zero_suppressed_circuit
from test_trees import annotated_singleton_automaton, random_automaton, random_tree


def assert_same_models(circuit):
    assert core_flags(circuit)[2]
    got = list(enumerate_models(circuit))
    assert got == list(enumerate_decision_recursive(circuit))
    assert len({tuple(sorted(m.items())) for m in got}) == len(got)


def assert_same_tuples(circuit, assume_disjoint=False):
    assert (list(enumerate_rel(circuit, assume_disjoint))
            == list(enumerate_rel_recursive(circuit)))


def chain_obdd(n):
    """OBDD of x0 -> x1 -> ... -> x(n-1), n + 1 models."""
    b = CircuitBuilder(n)
    free, ones = b.true(), b.true()
    for v in range(n - 1, -1, -1):
        free, ones = b.decision(v, free, ones), b.decision(v, b.false(), ones)
    return b.finish(free)


# -- Boolean decision circuits -------------------------------------------------

def test_random_decision_circuits_keep_the_recursive_order():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 9)
        assert_same_models(random_decision_circuit(rng, list(range(n))))


def test_dpll_circuits_keep_the_recursive_order():
    rng = random.Random(32)
    for _ in range(40):
        n = rng.randint(1, 9)
        for heuristic in ('first_unassigned', 'min_cut_greedy'):
            circuit, _ = compile_dpll(random_cnf(rng, n, rng.randint(0, 2 * n)),
                                      heuristic=heuristic)
            assert_same_models(circuit)


def test_constant_and_empty_boolean_circuits():
    for n in (0, 3):
        b = CircuitBuilder(n)
        assert_same_models(b.finish(b.true()))
        assert_same_models(b.finish(b.false()))
        assert_same_models(b.finish(b.conj(())))
        # an empty OR is no decision gate, so it takes the conditioning path
        assert list(enumerate_models(b.finish(b.disj(())))) == []
    b = CircuitBuilder(2)
    assert list(enumerate_models(b.finish(b.true()))) == [
        {0: 0, 1: 0}, {0: 0, 1: 1}, {0: 1, 1: 0}, {0: 1, 1: 1}]
    assert list(enumerate_models(b.finish(b.false()))) == []


def test_chain_obdd_keeps_the_recursive_order():
    assert_same_models(chain_obdd(40))


def test_first_answers_of_a_2000_variable_chain_obdd():
    circuit = chain_obdd(2000)
    first = list(islice(enumerate_models(circuit), 50))
    assert len(first) == 50
    assert all(circuit.evaluate(m) == 1 for m in first)
    assert len({tuple(sorted(m.items())) for m in first}) == 50


def test_count_and_first_answers_of_a_10000_variable_chain_obdd():
    n = 10_000
    circuit = chain_obdd(n)
    assert core_flags(circuit) == (True, True, True, False)
    assert model_count(circuit) == n + 1
    first = list(islice(enumerate_models(circuit), 50))
    # x0 -> x1 -> ...: the models are 0^(n-j) 1^j, fewest ones first
    assert first == [{v: int(v >= n - j) for v in range(n)} for j in range(50)]


def test_first_answer_of_a_1100_variable_conditioning_walk():
    # OR(x, not x) is no decision gate, so this takes the conditioning path
    n = 1100
    b = CircuitBuilder(n)
    circuit = b.finish(b.conj(tuple(b.disj((b.literal(v), b.literal(v, False)))
                                    for v in range(n))))
    assert not core_flags(circuit)[2]
    first = next(enumerate_models(circuit))
    assert len(first) == n and circuit.evaluate(first) == 1


# -- branches without a model ---------------------------------------------------

def complete_tree(depth):
    if depth == 0:
        return TreeNode('a')
    return TreeNode('e', complete_tree(depth - 1), complete_tree(depth - 1))


def caterpillar(spine):
    tree = TreeNode('a')
    for _ in range(spine):
        tree = TreeNode('e', TreeNode('a'), tree)
    return tree


def test_single_mark_answers_of_31_node_trees_skip_dead_branches():
    # most continuations of the counting automaton reject, so nearly every
    # branch of the answer circuit ends in false
    for tree in (complete_tree(4), caterpillar(15)):
        circuit, _ = answer_circuit(annotated_singleton_automaton(), tree)
        start = time.perf_counter()
        got = list(enumerate_models(circuit))
        assert time.perf_counter() - start < 1
        assert len(got) == 31
        assert len({tuple(sorted(m.items())) for m in got}) == 31
        assert all(sum(m.values()) == 1 for m in got)


def test_tree_answer_circuits_keep_the_recursive_order():
    rng = random.Random(37)
    labels = [(lab, bit) for lab in 'ae' for bit in (0, 1)]
    for _ in range(30):
        tree = random_tree(rng, 11)
        automaton = rng.choice((annotated_singleton_automaton(),
                                random_automaton(rng, 3, alphabet=labels)))
        assert_same_models(answer_circuit(automaton, tree)[0])


def test_unsatisfiable_conjunct_stops_enumeration_at_once():
    n = 20
    b = CircuitBuilder(n)
    chain = b.true()
    for v in range(n - 1, -1, -1):
        chain = b.decision(v, chain, chain)
    circuit = b.finish(b.conj((chain, b.false())))
    start = time.perf_counter()
    assert list(enumerate_models(circuit)) == []
    assert time.perf_counter() - start < 1


# -- relational circuits ---------------------------------------------------------

def test_random_relational_circuits_keep_the_recursive_order():
    rng = random.Random(33)
    for _ in range(60):
        n = rng.randint(1, 5)
        attrs = [f"a{i}" for i in range(n)]
        domains = {a: list(range(rng.randint(1, 3))) for a in attrs}
        assert_same_tuples(random_decision_relcircuit(rng, attrs, domains))


def test_zero_suppressed_circuits_keep_the_recursive_order():
    rng = random.Random(34)
    for _ in range(60):
        n = rng.randint(1, 5)
        attrs = [f"a{i}" for i in range(n)]
        domains = {a: list(range(rng.randint(1, 3))) for a in attrs}
        assert_same_tuples(random_zero_suppressed_circuit(rng, attrs, domains))


def test_cq_circuits_keep_the_recursive_order():
    rng = random.Random(35)
    for _ in range(30):
        q = random_free_connex_query(rng)
        assert_same_tuples(compile_cq(q, random_db_for(q, rng, rng.randint(1, 15))))
    q = parse_cq("Q(x, y, z) :- R(x, y), S(y, z).")
    assert is_free_connex(q)
    assert_same_tuples(compile_cq(q, random_db_for(q, rng, 40)))


def test_constant_and_empty_relational_circuits():
    for attrs in ([], ['x', 'y']):
        domains = {a: [0, 1, 2] for a in attrs}
        for defaults in (None, {a: 1 for a in attrs}):
            for make in ('unit', 'empty', 'join', 'union'):
                b = RelBuilder(attrs, domains, defaults)
                node = (getattr(b, make)(()) if make in ('join', 'union')
                        else getattr(b, make)())
                # an empty union is no decision gate
                assert_same_tuples(b.finish(node), assume_disjoint=True)


def test_first_tuples_of_a_2000_attribute_chain():
    circuit = chain_obdd(2000)
    first = list(islice(enumerate_rel(from_boolean(circuit)), 50))
    assert len(first) == 50
    assert all(circuit.evaluate({int(a[1:]): v for a, v in t.items()}) == 1
               for t in first)
    assert len({tuple(sorted(t.items())) for t in first}) == 50


def test_direct_access_on_a_2000_deep_join_chain():
    n = 2000
    names = [f"a{i:04d}" for i in range(n)]
    b = RelBuilder(names, {a: [0, 1] for a in names})
    top = b.unit()
    for a in reversed(names):
        either = b.union((b.join((b.input(a, 0), b.unit())),
                          b.join((b.input(a, 1), b.unit()))))
        top = b.join((either, top))
    # every tuple over {0, 1}: the k-th is k - 1 in binary, a0000 first
    k = 123456789
    got = direct_access(b.finish(top), k)
    assert [got[a] for a in names] == [((k - 1) >> (n - 1 - i)) & 1
                                        for i in range(n)]
