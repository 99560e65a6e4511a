import random

import pytest

from kcomp.circuits import (CircuitBuilder, VTree, classify, condition,
                            respects_vtree, smooth, to_nnf, varset)
from kcomp.errors import NotDecomposable

from oracles import (bit_to_valuation, check_determinism_semantic, count_models,
                     models_of, structurally_equal, truth_table)


def demo_dnnf():
    """x2 and not(x1 and x3) over four variables, as a two-branch DNNF."""
    b = CircuitBuilder(4)
    left = b.conj((b.literal(0, False), b.literal(1, True)))
    right = b.conj((b.literal(1, True), b.literal(2, False)))
    return b.finish(b.disj((left, right)))


def demo_decision():
    """Same function in decision shape: test x2, then x1, then x3."""
    b = CircuitBuilder(4)
    d3 = b.decision(2, b.true(), b.false())
    d1 = b.decision(0, b.true(), d3)
    return b.finish(b.decision(1, b.false(), d1))


DEMO_ROWS = {'0100', '0101', '0110', '0111', '1100', '1101'}


def test_demo_circuits_compute_the_table():
    assert models_of(demo_dnnf()) == DEMO_ROWS
    assert models_of(demo_decision()) == DEMO_ROWS


def random_circuit(rng, num_vars, size):
    """Random circuit with negations allowed on internal gates."""
    b = CircuitBuilder(num_vars)
    pool = [b.true(), b.false()]
    for v in range(num_vars):
        pool.append(b.literal(v, True))
        pool.append(b.literal(v, False))
    for _ in range(size):
        kind = rng.choice('AON')
        if kind == 'N':
            pool.append(b.neg(rng.choice(pool)))
        else:
            kids = tuple(rng.choice(pool) for _ in range(rng.randint(2, 3)))
            pool.append(b.conj(kids) if kind == 'A' else b.disj(kids))
    return b.finish(pool[-1])


# -- to_nnf -------------------------------------------------------------------

def test_to_nnf_single_de_morgan_step():
    b = CircuitBuilder(2)
    c = b.finish(b.neg(b.conj((b.literal(0), b.literal(1)))))
    nnf = to_nnf(c)
    assert classify(nnf).is_nnf
    # (not x or not y)
    assert nnf.nodes[nnf.output][0] == 'O'
    assert models_of(nnf) == models_of(c)


def test_to_nnf_identity_on_nnf_input():
    c = demo_dnnf()
    assert structurally_equal(to_nnf(c), c)


def test_to_nnf_nested_negations():
    # not(not x or (y and not z)) == x and (not y or z)
    b = CircuitBuilder(3)
    inner = b.disj((b.literal(0, False),
                    b.conj((b.literal(1), b.literal(2, False)))))
    c = b.finish(b.neg(inner))
    nnf = to_nnf(c)
    assert classify(nnf).is_nnf
    assert truth_table(nnf) == truth_table(c)


def test_to_nnf_random_equivalence_and_size_bound():
    rng = random.Random(7)
    for _ in range(40):
        c = random_circuit(rng, rng.randint(1, 6), rng.randint(1, 15))
        nnf = to_nnf(c)
        assert classify(nnf).is_nnf
        assert truth_table(nnf) == truth_table(c)
        assert nnf.size <= 2 * c.size + len(c.nodes)


# -- varset ---------------------------------------------------------------------

def test_varset_basics():
    b = CircuitBuilder(3)
    lx = b.literal(0)
    inner = b.disj((b.literal(1), b.literal(2)))
    root = b.conj((lx, inner))
    t = b.true()
    c = b.finish(b.conj((root, t)))
    assert varset(c, c.output) == {0, 1, 2}
    lit_nodes = [i for i, r in enumerate(c.nodes) if r[0] == 'L' and r[1] == 0]
    assert varset(c, lit_nodes[0]) == {0}
    const_nodes = [i for i, r in enumerate(c.nodes) if r[0] == 'T']
    assert varset(c, const_nodes[0]) == set()
    with pytest.raises(ValueError):
        varset(c, 999)


# -- classify ---------------------------------------------------------------------

def test_classify_demo_dnnf():
    rep = classify(demo_dnnf())
    assert rep.is_nnf and rep.is_decomposable
    assert not rep.all_or_decision
    assert not rep.syntactic_deterministic


def test_classify_decision_gate_shape():
    b = CircuitBuilder(2)
    g0 = b.literal(1, False)
    g1 = b.literal(1, True)
    root = b.disj((b.conj((b.literal(0, False), g0)),
                   b.conj((b.literal(0, True), g1))))
    rep = classify(b.finish(root))
    assert rep.all_or_decision
    assert rep.syntactic_deterministic


def test_classify_shared_variable_not_decomposable():
    b = CircuitBuilder(1)
    c = b.finish(b.conj((b.literal(0), b.literal(0))))
    assert not classify(c).is_decomposable


def test_classify_obdd_order_on_decision_chain():
    rep = classify(demo_decision())
    assert rep.all_or_decision
    assert rep.obdd_order is not None
    assert rep.structured_witness is not None
    # decisions test x2 before x1 before x3
    order = list(rep.obdd_order)
    assert order.index(1) < order.index(0) < order.index(2)


def test_classify_hint_verification():
    c = demo_dnnf()
    good = VTree.right_linear([1, 0, 2, 3])
    rep = classify(c, hint=good)
    assert rep.structured_witness is good
    # (x0 or x1) and (x2 or x3) needs {0,1} and {2,3} on opposite sides;
    # a vtree interleaving them fails
    b = CircuitBuilder(4)
    pair = b.finish(b.conj((b.disj((b.literal(0), b.literal(1))),
                            b.disj((b.literal(2), b.literal(3))))))
    bad = VTree.internal(VTree.internal(VTree.leaf(0), VTree.leaf(2)),
                         VTree.internal(VTree.leaf(1), VTree.leaf(3)))
    assert classify(pair, hint=bad).structured_witness is None
    ok = VTree.internal(VTree.internal(VTree.leaf(0), VTree.leaf(1)),
                        VTree.internal(VTree.leaf(2), VTree.leaf(3)))
    assert classify(pair, hint=ok).structured_witness is ok


def test_right_linear_caterpillar():
    by_hand = VTree.internal(VTree.leaf(3),
                             VTree.internal(VTree.leaf(1), VTree.leaf(2)))
    caterpillar = VTree.right_linear([3, 1, 2])
    assert repr(caterpillar) == repr(by_hand) == "(v3 (v1 v2))"
    assert caterpillar.right.vars == frozenset({1, 2})
    assert caterpillar.vars == frozenset({1, 2, 3})
    with pytest.raises(ValueError, match="must not repeat variables"):
        VTree.right_linear([0, 1, 0])
    with pytest.raises(ValueError, match="must not repeat variables"):
        VTree.internal(VTree.leaf(0), VTree.internal(VTree.leaf(1), VTree.leaf(0)))
    # 10^4 leaves in a scrambled order, read back along the spine
    n = 10_000
    order = [7 * i % n for i in range(n)]
    tree = VTree.right_linear(order)
    spine, node = [], tree
    while not node.is_leaf():
        spine.append(node.left.var)
        node = node.right
    assert spine + [node.var] == order
    assert tree.vars == frozenset(range(n))
    assert tree.right.right.vars == frozenset(order[2:])
    # as a hint: an AND of the two deepest leaves fits the last spine node,
    # and an AND nesting the third-deepest with the deepest against the
    # second-deepest fits none
    b = CircuitBuilder(n)
    deep = b.conj((b.literal(order[-2], True), b.literal(order[-1], True)))
    assert classify(b.finish(deep), hint=tree).structured_witness is tree
    b = CircuitBuilder(n)
    outer = b.conj((b.conj((b.literal(order[-3], True), b.literal(order[-1], True))),
                    b.literal(order[-2], True)))
    assert classify(b.finish(outer), hint=tree).structured_witness is None


def test_vtree_repr():
    assert repr(VTree.leaf(5)) == "v5"
    balanced = VTree.internal(VTree.internal(VTree.leaf(0), VTree.leaf(1)),
                              VTree.internal(VTree.leaf(2), VTree.leaf(3)))
    assert repr(balanced) == "((v0 v1) (v2 v3))"
    left_linear = VTree.internal(VTree.internal(VTree.leaf('a'), VTree.leaf('b')),
                                 VTree.leaf('c'))
    assert repr(left_linear) == "((va vb) vc)"
    # far deeper than the recursion limit
    n = 10_000
    text = "".join(f"(v{i} " for i in range(n - 1)) + f"v{n - 1}" + ")" * (n - 1)
    assert repr(VTree.right_linear(range(n))) == text


def test_classify_vtree_synthesis_for_component_split():
    # (x0 or x1) and (x2 or x3): needs a non-linear split
    b = CircuitBuilder(4)
    left = b.disj((b.literal(0), b.literal(1)))
    right = b.disj((b.literal(2), b.literal(3)))
    c = b.finish(b.conj((left, right)))
    rep = classify(c)
    assert rep.is_decomposable
    assert rep.structured_witness is not None
    assert respects_vtree(c, rep.structured_witness)


def test_classify_lattice_monotone():
    for c in (demo_dnnf(), demo_decision()):
        rep = classify(c)
        if rep.obdd_order is not None:
            assert rep.all_or_decision
            assert rep.structured_witness is not None
        if rep.structured_witness is not None:
            assert rep.is_decomposable


# -- condition -----------------------------------------------------------------

def test_condition_demo_on_x2_false_unsatisfiable():
    c = demo_dnnf()
    conditioned = condition(c, {1: 0})
    assert truth_table(conditioned) == 0
    assert conditioned.universe == {0, 2, 3}


def test_condition_empty_is_identity_function():
    c = demo_dnnf()
    assert truth_table(condition(c, {})) == truth_table(c)


def test_condition_agrees_with_restriction():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 5)
        c = random_circuit(rng, n, rng.randint(2, 12))
        fixed = {v: rng.randint(0, 1) for v in range(n) if rng.random() < 0.5}
        cc = condition(c, fixed)
        rest = sorted(c.universe - set(fixed))
        for b in range(1 << len(rest)):
            mu = bit_to_valuation(b, rest)
            assert cc.evaluate(mu) == c.evaluate({**fixed, **mu})


def test_condition_outside_universe_rejected():
    with pytest.raises(ValueError):
        condition(demo_dnnf(), {9: 1})


def test_condition_rejects_values_other_than_0_and_1():
    b = CircuitBuilder(1)
    tautology = b.finish(b.disj((b.literal(0), b.literal(0, False))))
    for value in (2, -1, '1', None):
        with pytest.raises(ValueError):
            condition(tautology, {0: value})
    for value in (0, 1, False, True):
        assert truth_table(condition(tautology, {0: value})) == 1


# -- smooth ---------------------------------------------------------------------

def test_smooth_preserves_models_and_is_smooth():
    b = CircuitBuilder(3)
    c = b.finish(b.disj((b.literal(0),
                         b.conj((b.literal(1), b.literal(2))))))
    s = smooth(c)
    rep = classify(s)
    assert rep.is_smooth and rep.is_decomposable
    assert models_of(s) == models_of(c)
    assert count_models(s) == 5


def test_smooth_already_smooth_unchanged():
    b = CircuitBuilder(2)
    c = b.finish(b.disj((b.conj((b.literal(0, False), b.literal(1))),
                         b.conj((b.literal(0), b.literal(1, False))))))
    assert classify(c).is_smooth
    assert structurally_equal(smooth(c), c)


def test_smooth_returns_a_smooth_circuit_itself():
    s = smooth(demo_decision())
    assert classify(s).is_smooth
    assert smooth(s) is s


def test_builder_folds_not_over_inputs():
    b = CircuitBuilder(2)
    assert b.neg(b.literal(0)) == b.literal(0, False)
    assert b.neg(b.literal(1, False)) == b.literal(1)
    assert b.neg(b.true()) == b.false()
    assert b.neg(b.false()) == b.true()
    gate = b.conj((b.literal(0), b.literal(1)))
    assert b.kind(b.neg(gate)) == 'N'


def test_smooth_keeps_decision_shape():
    s = smooth(demo_decision())
    rep = classify(s)
    assert rep.is_smooth and rep.all_or_decision
    assert models_of(s) == DEMO_ROWS


def test_smooth_demo_dnnf_models_unchanged():
    assert models_of(smooth(demo_dnnf())) == DEMO_ROWS


def test_smooth_rejects_non_decomposable():
    b = CircuitBuilder(1)
    c = b.finish(b.conj((b.literal(0), b.literal(0))))
    with pytest.raises(NotDecomposable):
        smooth(c)


def test_smooth_size_bound():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 6)
        b = CircuitBuilder(n)
        kids = []
        for v in range(n):
            kids.append(b.literal(v, rng.random() < 0.5))
        c = b.finish(b.disj(tuple(kids)))
        s = smooth(c)
        assert models_of(s) == models_of(c)
        assert s.size <= 8 * c.size * max(1, len(c.universe))


# -- semantic determinism check ---------------------------------------------------

def test_determinism_demo_witness():
    verdict = check_determinism_semantic(demo_dnnf(), max_vars=10)
    assert verdict.status == 'notDeterministic'
    svars = demo_dnnf().sorted_vars()
    bits = ''.join(str(verdict.witness[v]) for v in svars)
    assert bits == '0100'


def test_determinism_decision_circuit():
    verdict = check_determinism_semantic(demo_decision(), max_vars=10)
    assert verdict.status == 'deterministic'


def test_determinism_cap():
    b = CircuitBuilder(40)
    c = b.finish(b.disj((b.literal(0), b.literal(1))))
    assert check_determinism_semantic(c, max_vars=20).status == 'unknown'


def test_decomposable_flag_sound_by_recomputation():
    rng = random.Random(51)
    for _ in range(20):
        c = random_circuit(rng, rng.randint(1, 5), rng.randint(1, 12))
        if not classify(c).is_decomposable:
            continue
        # recompute variable sets independently of the library cache
        sets = []
        for rec in c.nodes:
            if rec[0] == 'L':
                sets.append({rec[1]})
            elif rec[0] in ('T', 'F'):
                sets.append(set())
            elif rec[0] == 'N':
                sets.append(sets[rec[1]])
            else:
                acc = set()
                for child in rec[1]:
                    acc |= sets[child]
                sets.append(acc)
        for rec in c.nodes:
            if rec[0] != 'A':
                continue
            seen = set()
            for child in rec[1]:
                assert not (sets[child] & seen)
                seen |= sets[child]
