import random
from fractions import Fraction

import pytest

from kcomp import trees as trees_module
from kcomp.circuits import classify, respects_vtree, smooth
from kcomp.errors import (IncompleteTransition, InputFormatError,
                          NondeterministicAutomaton)
from kcomp.queries import enumerate_models, model_count
from kcomp.trees import (NondetTreeAutomaton, ProbTree, TreeAutomaton,
                         TreeNode, answer_circuit, automaton_from_json,
                         determinize, pqe_tree, provenance_tree, run,
                         tree_from_json)

from oracles import (_recursion_limit_near_current_depth, models_of,
                     run_automaton_naive, tree_acceptance_probability)
from test_cq import count_calls


def some_label_automaton(target='a', alphabet=('a', 'e')):
    """Accepts trees containing at least one node with the target label."""
    leaf = {lab: int(lab == target) for lab in alphabet}
    internal = {}
    for s1 in (0, 1):
        for s2 in (0, 1):
            for lab in alphabet:
                internal[(s1, s2, lab)] = int(s1 or s2 or lab == target)
    return TreeAutomaton((0, 1), frozenset({1}), leaf, internal)


def three_nodes(label='a'):
    return TreeNode(label, TreeNode(label), TreeNode(label))


def oracle_tree(node):
    if node.is_leaf():
        return ('leaf', node.label)
    return ('node', node.label, oracle_tree(node.left), oracle_tree(node.right))


# -- run ---------------------------------------------------------------------

def test_run_some_label():
    a = some_label_automaton()
    assert run(a, three_nodes('a'))
    assert not run(a, three_nodes('e'))


def test_run_incomplete_transition():
    a = TreeAutomaton((0,), frozenset({0}), {'a': 0}, {})
    with pytest.raises(IncompleteTransition):
        run(a, three_nodes('a'))


def random_tree(rng, max_nodes, alphabet=('a', 'e')):
    def build(budget):
        if budget < 3 or rng.random() < 0.35:
            return TreeNode(rng.choice(alphabet)), 1
        left, nl = build((budget - 1) // 2)
        right, nr = build(budget - 1 - nl)
        return TreeNode(rng.choice(alphabet), left, right), 1 + nl + nr
    return build(max_nodes)[0]


def random_automaton(rng, num_states, alphabet=('a', 'e')):
    states = tuple(range(num_states))
    leaf = {lab: rng.choice(states) for lab in alphabet}
    internal = {(s1, s2, lab): rng.choice(states)
                for s1 in states for s2 in states for lab in alphabet}
    accepting = frozenset(s for s in states if rng.random() < 0.5)
    return TreeAutomaton(states, accepting, leaf, internal)


def test_run_random_against_naive():
    rng = random.Random(3)
    for _ in range(50):
        a = random_automaton(rng, rng.randint(1, 4))
        t = random_tree(rng, 15)
        assert run(a, t) == run_automaton_naive(a.leaf_transition,
                                                a.internal_transition,
                                                a.accepting, oracle_tree(t))


def test_run_nondeterministic_subset_semantics():
    # one nondeterministic choice at the leaves
    nd = NondetTreeAutomaton((0, 1), frozenset({1}),
                             {'a': frozenset({0, 1}), 'e': frozenset({0})},
                             {(s1, s2, lab): frozenset({s1 | s2})
                              for s1 in (0, 1) for s2 in (0, 1)
                              for lab in ('a', 'e')})
    assert run(nd, three_nodes('a'))
    assert not run(nd, three_nodes('e'))
    det = determinize(nd, ('a', 'e'))
    for _ in range(10):
        t = random_tree(random.Random(_), 9)
        assert run(det, t) == run(nd, t)


# -- provenance circuits --------------------------------------------------------

def worlds_and_probability(automaton, prob_tree):
    """Brute force over the keep/revert worlds: (satisfying bitstrings,
    total accepted probability)."""
    nodes = []

    def collect(node):
        nodes.append(node)
        if not node.is_leaf():
            collect(node.left)
            collect(node.right)

    collect(prob_tree.tree)
    n = len(nodes)
    sats = set()
    total = Fraction(0)
    for mask in range(1 << n):
        keep = [(mask >> (n - 1 - j)) & 1 for j in range(n)]
        pos = [0]

        def relabel(node):
            idx = pos[0]
            pos[0] += 1
            label = node.label if keep[idx] else prob_tree.default
            if node.is_leaf():
                return ('leaf', label)
            return ('node', label, relabel(node.left), relabel(node.right))

        world = relabel(prob_tree.tree)
        if run_automaton_naive(automaton.leaf_transition,
                               automaton.internal_transition,
                               automaton.accepting, world):
            bits = format(mask, f'0{n}b')
            sats.add(bits)
            p = Fraction(1)
            for j in range(n):
                pj = prob_tree.prob[j]
                p *= pj if keep[j] else 1 - pj
            total += p
    return sats, total


def test_provenance_three_nodes_all_target():
    a = some_label_automaton()
    pt = ProbTree(three_nodes('a'), {i: Fraction(1, 2) for i in range(3)})
    circuit, vtree = provenance_tree(a, pt)
    assert models_of(circuit) == {format(m, '03b') for m in range(1, 8)}
    assert model_count(smooth(circuit)) == 7
    rep = classify(circuit)
    assert rep.is_decomposable and rep.all_or_decision
    assert respects_vtree(circuit, vtree)


def test_provenance_accept_everything():
    a = TreeAutomaton((0,), frozenset({0}), {'a': 0, 'e': 0},
                      {(0, 0, 'a'): 0, (0, 0, 'e'): 0})
    pt = ProbTree(three_nodes('a'), {i: Fraction(1, 3) for i in range(3)})
    circuit, _ = provenance_tree(a, pt)
    assert model_count(smooth(circuit)) == 8


def test_provenance_rejects_nondeterministic():
    nd = NondetTreeAutomaton((0,), frozenset({0}), {'a': frozenset({0})}, {})
    pt = ProbTree(TreeNode('a'), {0: Fraction(1)})
    with pytest.raises(NondeterministicAutomaton):
        provenance_tree(nd, pt)


def test_provenance_random_worlds():
    rng = random.Random(17)
    for _ in range(25):
        a = random_automaton(rng, rng.randint(1, 3))
        t = random_tree(rng, 9)
        n = t.node_count()
        pt = ProbTree(t, {i: Fraction(rng.randint(0, 4), 4) for i in range(n)})
        circuit, vtree = provenance_tree(a, pt)
        rep = classify(circuit)
        assert rep.is_decomposable and rep.all_or_decision
        assert respects_vtree(circuit, vtree)
        sats, prob = worlds_and_probability(a, pt)
        assert models_of(circuit) == sats
        assert pqe_tree(a, pt) == prob


def test_pqe_boundary_probabilities():
    a = some_label_automaton()
    t = TreeNode('a', TreeNode('e'), TreeNode('a'))
    n = 3
    keep_all = ProbTree(t, {i: Fraction(1) for i in range(n)})
    assert pqe_tree(a, keep_all) == 1
    drop_all = ProbTree(t, {i: Fraction(0) for i in range(n)})
    assert pqe_tree(a, drop_all) == 0   # the all-default world has no 'a'


def test_pqe_seven_eighths():
    a = some_label_automaton()
    pt = ProbTree(three_nodes('a'), {i: Fraction(1, 2) for i in range(3)})
    assert pqe_tree(a, pt) == Fraction(7, 8)


def test_provenance_tree_compiles_once_per_tree_and_automaton(monkeypatch):
    calls = count_calls(monkeypatch, trees_module, '_compile_decisions')
    rng = random.Random(23)
    a = random_automaton(rng, 3)
    t = random_tree(rng, 41)
    pt = ProbTree(t, {i: Fraction(rng.randint(0, 4), 4) for i in range(t.node_count())})
    first = provenance_tree(a, pt)
    assert provenance_tree(a, pt) is first
    assert pqe_tree(a, pt) == tree_acceptance_probability(a, pt)
    assert len(calls) == 1
    assert 'provenance' not in repr(pt)
    # equal content, other objects and insertion orders: a hit
    twin = TreeAutomaton(tuple(a.states), frozenset(a.accepting),
                         dict(reversed(a.leaf_transition.items())),
                         dict(reversed(a.internal_transition.items())))
    assert twin is not a and provenance_tree(twin, pt) is first
    assert len(calls) == 1
    # one transition changed: a miss, with its own correct probability
    key = next(iter(a.internal_transition))
    changed = dict(a.internal_transition)
    changed[key] = (changed[key] + 1) % 3
    other = TreeAutomaton(a.states, a.accepting, a.leaf_transition, changed)
    assert provenance_tree(other, pt) is not first
    assert len(calls) == 2
    assert pqe_tree(other, pt) == tree_acceptance_probability(other, pt)
    assert len(calls) == 2
    # the tree keeps the last automaton's circuit only
    assert provenance_tree(a, pt) is not first
    assert len(calls) == 3


def test_pqe_tree_on_one_tree_with_two_probability_maps():
    a = some_label_automaton()
    t = TreeNode('a', TreeNode('e'), TreeNode('a', TreeNode('a'), TreeNode('e')))
    half = ProbTree(t, {i: Fraction(1, 2) for i in range(5)})
    third = ProbTree(t, {i: Fraction(1, 3) for i in range(5)})
    assert half == ProbTree(t, dict(half.prob))
    assert pqe_tree(a, half) == 1 - Fraction(1, 2) ** 3
    assert pqe_tree(a, third) == 1 - Fraction(2, 3) ** 3
    assert provenance_tree(a, half)[0] is not provenance_tree(a, third)[0]


def test_circuit_size_linear_for_fixed_automaton():
    a = some_label_automaton()

    def chain(depth):
        node = TreeNode('a')
        for _ in range(depth):
            node = TreeNode('e', node, TreeNode('a'))
        return node

    sizes = []
    for depth in (8, 16, 32):
        t = chain(depth)
        pt = ProbTree(t, {i: Fraction(1, 2) for i in range(t.node_count())})
        circuit, _ = provenance_tree(a, pt)
        sizes.append(circuit.size)
    assert sizes[1] <= 2.5 * sizes[0]
    assert sizes[2] <= 2.5 * sizes[1]


# -- answer circuits ---------------------------------------------------------------

def annotated_automaton_exact_target(target='a'):
    """Accepts the annotation marking exactly the target-labeled nodes."""
    states = (0, 1)        # 1 = annotation consistent so far
    leaf = {}
    internal = {}
    for lab in ('a', 'e'):
        for bit in (0, 1):
            ok = int((lab == target) == bool(bit))
            leaf[(lab, bit)] = ok
            for s1 in states:
                for s2 in states:
                    internal[(s1, s2, (lab, bit))] = int(s1 and s2 and ok)
    return TreeAutomaton(states, frozenset({1}), leaf, internal)


def annotated_singleton_automaton():
    """Accepts annotations with exactly one marked node."""
    states = (0, 1, 2)     # count of marked nodes, saturating at 2
    leaf = {}
    internal = {}
    for lab in ('a', 'e'):
        for bit in (0, 1):
            leaf[(lab, bit)] = bit
            for s1 in states:
                for s2 in states:
                    internal[(s1, s2, (lab, bit))] = min(2, s1 + s2 + bit)
    return TreeAutomaton(states, frozenset({1}), leaf, internal)


def test_answer_circuit_exact_target_set():
    t = TreeNode('a', TreeNode('e'), TreeNode('a'))
    circuit, _ = answer_circuit(annotated_automaton_exact_target(), t)
    assert models_of(circuit) == {'101'}


def test_answer_circuit_all_annotations():
    a = TreeAutomaton((0,), frozenset({0}),
                      {(lab, bit): 0 for lab in 'ae' for bit in (0, 1)},
                      {(0, 0, (lab, bit)): 0 for lab in 'ae' for bit in (0, 1)})
    t = three_nodes('a')
    circuit, _ = answer_circuit(a, t)
    assert model_count(smooth(circuit)) == 8


def test_answer_circuit_singletons():
    rng = random.Random(9)
    t = random_tree(rng, 7)
    n = t.node_count()
    circuit, _ = answer_circuit(annotated_singleton_automaton(), t)
    got = [v for v in enumerate_models(circuit)]
    assert len(got) == n
    for val in got:
        assert sum(val.values()) == 1


def test_answer_circuit_random_against_annotation_oracle():
    rng = random.Random(23)
    for _ in range(15):
        base = random_automaton(rng, 2, alphabet=[(lab, bit) for lab in 'ae'
                                                  for bit in (0, 1)])
        t = random_tree(rng, 7)
        n = t.node_count()
        circuit, _ = answer_circuit(base, t)
        expect = set()
        for mask in range(1 << n):
            bits = [(mask >> (n - 1 - j)) & 1 for j in range(n)]
            pos = [0]

            def annotate(node):
                idx = pos[0]
                pos[0] += 1
                lab = (node.label, bits[idx])
                if node.is_leaf():
                    return ('leaf', lab)
                return ('node', lab, annotate(node.left), annotate(node.right))

            world = annotate(t)
            if run_automaton_naive(base.leaf_transition,
                                   base.internal_transition,
                                   base.accepting, world):
                expect.add(format(mask, f'0{n}b'))
        assert models_of(circuit) == expect


# -- text formats -------------------------------------------------------------------

def test_tree_json_round_trip():
    text = '''{"default": "e", "root":
      {"label": "a", "prob": "1/2", "children": [
        {"label": "e", "prob": "1/4", "children": []},
        {"label": "a", "prob": "0.75", "children": []}]}}'''
    pt = tree_from_json(text)
    assert pt.tree.label == 'a'
    assert pt.prob == {0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(3, 4)}
    assert pt.default == 'e'


def test_tree_json_rejects_malformed():
    with pytest.raises(InputFormatError):
        tree_from_json("{not json")
    with pytest.raises(InputFormatError):
        tree_from_json('{"label": "a", "children": [{"label": "b"}]}')
    with pytest.raises(InputFormatError):
        tree_from_json('{"label": "a", "prob": "x"}')


def test_automaton_json_deterministic():
    text = '''{"states": [0, 1], "accepting": [1],
               "leaf": {"a": 1, "e": 0},
               "internal": [[0, 0, "a", 1], [0, 0, "e", 0],
                            [0, 1, "a", 1], [0, 1, "e", 1],
                            [1, 0, "a", 1], [1, 0, "e", 1],
                            [1, 1, "a", 1], [1, 1, "e", 1]]}'''
    a = automaton_from_json(text)
    assert run(a, three_nodes('a'))
    assert not run(a, three_nodes('e'))


def test_automaton_json_annotated_labels():
    text = '''{"states": [0, 1], "accepting": [1],
               "leaf": [[["a", 1], 1], [["a", 0], 0]],
               "internal": [[0, 0, ["a", 1], 1]]}'''
    a = automaton_from_json(text)
    assert a.leaf_transition[('a', 1)] == 1
    assert a.internal_transition[(0, 0, ('a', 1))] == 1


def test_automaton_json_rejects_malformed():
    with pytest.raises(InputFormatError):
        automaton_from_json("[1, 2]")
    with pytest.raises(InputFormatError):
        automaton_from_json('{"states": [0], "accepting": [],'
                            ' "leaf": {}, "internal": [[0, 0, "a"]]}')


# -- depth -------------------------------------------------------------------
#
# Runs and compilation keep their own stacks, so a tree far deeper than the
# recursion limit, lowered here to the current frame depth plus a margin,
# needs no Python recursion.

def caterpillar(rng, depth, labels=('a', 'b', 'e')):
    """(root, spine labels bottom-up, leaf labels bottom-up): a spine of
    `depth` internal nodes, each with a leaf as its left child."""
    spine = [rng.choice(labels) for _ in range(depth)]
    leaves = [rng.choice(labels) for _ in range(depth + 1)]
    node = TreeNode(leaves[0])
    for label, leaf in zip(spine, leaves[1:]):
        node = TreeNode(label, TreeNode(leaf), node)
    return node, spine, leaves


def mod3_automaton():
    """Counts 'a' labels modulo 3; accepts when the count is 0."""
    states = (0, 1, 2)
    internal = {(s1, s2, lab): (s1 + s2 + (lab == 'a')) % 3
                for s1 in states for s2 in states for lab in ('a', 'b', 'e')}
    return TreeAutomaton(states, frozenset({0}),
                         {'a': 1, 'b': 0, 'e': 0}, internal)


def test_run_on_a_deep_caterpillar():
    det = mod3_automaton()

    def nd_step(s1, s2, lab):
        # a 'b' may also move to the sink state 3, which never accepts
        if 3 in (s1, s2):
            return frozenset({3})
        t = det.step(s1, s2, lab)
        return frozenset({t, 3} if lab == 'b' else {t})

    nd = NondetTreeAutomaton(
        det.states + (3,), det.accepting,
        {'a': frozenset({1}), 'b': frozenset({0, 3}), 'e': frozenset({0})},
        {(s1, s2, lab): nd_step(s1, s2, lab)
         for s1 in range(4) for s2 in range(4) for lab in ('a', 'b', 'e')})
    outcomes = set()
    for seed in range(4):
        tree, spine, leaves = caterpillar(random.Random(seed), 5000)
        state = det.leaf_state(leaves[0])
        reach = nd.leaf_transition[leaves[0]]
        for label, leaf in zip(spine, leaves[1:]):
            state = det.step(det.leaf_state(leaf), state, label)
            reach = frozenset(t for s1 in nd.leaf_transition[leaf] for s2 in reach
                              for t in nd.internal_transition[(s1, s2, label)])
        with _recursion_limit_near_current_depth():
            assert run(det, tree) == (state in det.accepting)
            assert run(nd, tree) == bool(reach & nd.accepting)
        assert len(reach) == 2
        outcomes.add(state in det.accepting)
    assert outcomes == {False, True}


def test_pqe_on_a_deep_caterpillar():
    # the shape of the deep_tree ceiling probe: 1200 levels, 2401 nodes
    rng = random.Random(12)
    tree, _, _ = caterpillar(rng, 1200)
    prob_tree = ProbTree(tree, {i: Fraction(rng.randint(0, 8), 8)
                                for i in range(2401)})
    with _recursion_limit_near_current_depth():
        got = pqe_tree(mod3_automaton(), prob_tree)
    assert got == tree_acceptance_probability(mod3_automaton(), prob_tree)
