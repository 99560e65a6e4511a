"""The one-pass certifier and the freezing builder.

`_dag.certify` and the decision maps it records must agree with the older
per-flag passes and per-gate decision rules kept in `tests/oracles.py`, on
seeded random Boolean and relational circuits.  `Builder.prune` must hand
back the builder's own records when every node is reachable and renumber
otherwise.  Witness synthesis must not depend on the insertion order of the
variable sets it reads.
"""

import random

from kcomp import (CircuitBuilder, RelBuilder, classify, classify_rel,
                   compile_dpll, read_nnf, smooth, write_nnf)
from kcomp import _dag
from kcomp.circuits import core_flags
from kcomp.relational import decision_attr as recorded_attr

from oracles import decision_attr, decision_var, models_of, split_flags
from test_certificates import random_cnf, random_dnnf


# -- Boolean circuits -----------------------------------------------------------

def random_shaped_circuit(rng, num_vars):
    """A pool of gates over literals of both polarities: ANDs and ORs of
    1 to 3 children, NOTs, decision gadgets, gadgets with the decision
    literal second or with both polarities of it, and 3-ary decision-like
    ORs; the output is an OR over the last few gates."""
    b = CircuitBuilder(num_vars)
    pool = [b.true(), b.false()]
    pool += [b.literal(v, p) for v in range(num_vars) for p in (True, False)]

    def pick():
        return rng.choice(pool)

    for _ in range(rng.randint(1, 14)):
        x = rng.randrange(num_vars)
        pos, neg = b.literal(x, True), b.literal(x, False)
        shape = rng.randrange(8)
        if shape == 0:
            gate = b.conj(tuple(pick() for _ in range(rng.randint(1, 3))))
        elif shape == 1:
            gate = b.disj(tuple(pick() for _ in range(rng.randint(1, 3))))
        elif shape == 2:
            gate = b.neg(pick())
        elif shape == 3:
            gate = b.decision(x, pick(), pick())
        elif shape == 4:            # the decision literal second
            gate = b.disj((b.conj((pick(), neg)), b.conj((pos, pick()))))
        elif shape == 5:            # both polarities of x in one AND
            gate = b.disj((b.conj((neg, rng.choice((pos, neg)), pick())),
                           b.conj((pos, pick()))))
        elif shape == 6:            # three gadget-shaped children
            gate = b.disj(tuple(b.conj((rng.choice((pos, neg)), pick()))
                                for _ in range(3)))
        else:                       # same polarity on both sides
            lit = rng.choice((pos, neg))
            gate = b.disj((b.conj((lit, pick())), b.conj((lit, pick()))))
        pool.append(gate)
    top = pool[-rng.randint(1, 3):]
    return b.finish(top[0] if len(top) == 1 else b.disj(tuple(top)))


def reference_core_flags(c):
    """(core flags, decision map) from the older per-flag passes."""
    decomposable, smooth_ = split_flags(c.nodes, c.varsets())
    tested = {nid: decision_var(c, nid)
              for nid, rec in enumerate(c.nodes) if rec[0] == 'O'}
    flags = (not any(rec[0] == 'N' for rec in c.nodes), decomposable,
             all(v is not None for v in tested.values()), smooth_)
    return flags, {nid: v for nid, v in tested.items() if v is not None}


def test_certify_agrees_with_the_reference_on_random_circuits():
    rng = random.Random(2026)
    seen = set()
    for _ in range(1500):
        c = random_shaped_circuit(rng, rng.randint(1, 5))
        flags, decisions = reference_core_flags(c)
        assert core_flags(c) == flags
        assert c.decisions() == decisions
        for nid in range(len(c.nodes)):
            assert c.decision_var(nid) == decision_var(c, nid)
        seen.update(f"{name}={value}" for name, value
                    in zip(('nnf', 'decomposable', 'decision', 'smooth'), flags))
        seen.update(f"or{len(rec[1])}" for rec in c.nodes if rec[0] == 'O')
        seen.update(f"second{nid in decisions}" for nid, rec in enumerate(c.nodes)
                    if rec[0] == 'O' and len(rec[1]) == 2
                    and c.nodes[rec[1][0]][0] == 'A'
                    and c.nodes[rec[1][0]][1]
                    and c.nodes[c.nodes[rec[1][0]][1][-1]][0] == 'L')
    for flag in ('nnf', 'decomposable', 'decision', 'smooth'):
        assert {f"{flag}=True", f"{flag}=False"} <= seen
    assert {'or1', 'or2', 'or3', 'secondTrue', 'secondFalse'} <= seen


def test_certify_agrees_with_the_reference_on_compiled_and_smoothed_circuits():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 10)
        c = compile_dpll(random_cnf(rng, n, rng.randint(1, 2 * n)))[0]
        for circuit in (c, smooth(c), random_dnnf(rng, n)):
            flags, decisions = reference_core_flags(circuit)
            assert core_flags(circuit) == flags
            assert circuit.decisions() == decisions


def test_smoothing_can_make_an_or_a_decision_gate():
    # OR(x, AND(not x, y)) is no decision gate; smoothing pads its first
    # child into AND(x, pad_y), which is one, so the flags are the output's
    b = CircuitBuilder(2)
    x, nx, y = b.literal(0), b.literal(0, False), b.literal(1)
    c = b.finish(b.disj((x, b.conj((nx, y)))))
    s = smooth(c)
    assert not core_flags(c)[2]
    assert core_flags(s) == reference_core_flags(s)[0]
    assert core_flags(s)[2]


# -- relational circuits --------------------------------------------------------

ATTRS = ('a', 'b', 'c', 'd')


def random_rel_circuit(rng):
    """Inputs, unit and empty, joins and unions of 1 to 3 children, and
    decision-shaped unions whose values may repeat and whose input may come
    second in its join."""
    doms = {a: list(range(rng.randint(1, 3))) for a in ATTRS}
    b = RelBuilder(ATTRS, doms)
    pool = [b.unit(), b.empty()]
    pool += [b.input(a, v) for a in ATTRS for v in doms[a]]

    def pick():
        return rng.choice(pool)

    for _ in range(rng.randint(1, 12)):
        shape = rng.randrange(4)
        if shape == 0:
            gate = b.join(tuple(pick() for _ in range(rng.randint(1, 3))))
        elif shape == 1:
            gate = b.union(tuple(pick() for _ in range(rng.randint(1, 3))))
        else:
            attr = rng.choice(ATTRS)
            branches = []
            for _ in range(rng.randint(1, 3)):
                pair = [b.input(attr, rng.choice(doms[attr])), pick()]
                if rng.random() < 0.3:
                    pair.reverse()
                branches.append(b.join(tuple(pair)))
            gate = b.union(tuple(branches))
        pool.append(gate)
    return b.finish(pool[-1])


def test_classify_rel_agrees_with_the_reference_on_random_circuits():
    rng = random.Random(31)
    seen = set()
    for _ in range(1500):
        c = random_rel_circuit(rng)
        sets = c.attrsets()
        report = classify_rel(c)
        tested = {nid: decision_attr(c, nid)
                  for nid, rec in enumerate(c.nodes) if rec[0] == 'U'}
        decisions = {nid: a for nid, a in tested.items() if a is not None}
        decomposable, smooth_union = split_flags(c.nodes, sets)
        decision_only = all(a is not None for a in tested.values())
        in_order = all(sets[nid] & -sets[nid] == 1 << a
                       for nid, a in decisions.items())
        assert (report.decomposable, report.smooth_union,
                report.decision_only) == (decomposable, smooth_union, decision_only)
        assert report._decisions == decisions
        assert report.ordered_witness == (
            c.attrs if decision_only and decomposable and in_order else None)
        for nid in range(len(c.nodes)):
            assert recorded_attr(c, nid) == decision_attr(c, nid)
        seen.add(('decision_only', decision_only))
        seen.add(('ordered', report.ordered_witness is not None))
        seen.add(('decomposable', decomposable))
        seen.update(('repeated', len({c.nodes[c.nodes[k][1][0]][1:]
                                      for k in rec[1]}) < len(rec[1]))
                    for nid, rec in enumerate(c.nodes)
                    if rec[0] == 'U' and nid not in decisions and len(rec[1]) > 1
                    and all(c.nodes[k][0] == 'J' and len(c.nodes[k][1]) == 2
                            and c.nodes[c.nodes[k][1][0]][0] == 'I' for k in rec[1]))
    assert {(flag, value) for flag in ('decision_only', 'ordered', 'decomposable')
            for value in (True, False)} <= seen
    assert ('repeated', True) in seen


# -- freezing ---------------------------------------------------------------------

def reachable(nodes, output):
    seen = {output}
    stack = [output]
    while stack:
        for c in _dag.children(nodes[stack.pop()]):
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return seen


def test_finish_hands_back_the_records_when_all_are_reachable():
    b = CircuitBuilder(3)
    top = b.decision(0, b.literal(1), b.decision(2, b.false(), b.true()))
    records = list(b.nodes)
    c = b.finish(top)
    assert len(c.nodes) == len(records) and c.output == top
    assert all(got is rec for got, rec in zip(c.nodes, records))


def test_finish_renumbers_around_dead_nodes():
    b = CircuitBuilder(3)
    x, y, z = b.literal(0), b.literal(1), b.literal(2)
    b.conj((x, y, z))                       # dead, before the output
    top = b.disj((b.conj((x, y)), b.conj((b.literal(0, False), y))))
    b.disj((top, z))                        # dead, after the output
    c = b.finish(top)
    assert len(c.nodes) == len(b.nodes) - 3
    assert reachable(c.nodes, c.output) == set(range(len(c.nodes)))
    assert c.size == 6 == _dag.edge_count(c.nodes)
    assert len(models_of(c)) == 4           # y, with x and z free
    assert c.decision_var(c.output) == 0


def test_smooth_drops_the_and_children_it_pads(monkeypatch):
    frozen = []
    prune = _dag.Builder.prune

    def counted(self, output):
        nodes, out = prune(self, output)
        frozen.append((len(self.nodes), len(nodes)))
        return nodes, out

    monkeypatch.setattr(_dag.Builder, 'prune', counted)
    b = CircuitBuilder(4)
    left = b.conj((b.literal(0), b.literal(1)))
    right = b.conj((b.literal(2), b.literal(3, False)))
    c = b.finish(b.disj((left, right)))
    s = smooth(c)
    built, kept = frozen[-1]
    assert kept < built
    assert reachable(s.nodes, s.output) == set(range(len(s.nodes)))
    assert s.size == _dag.edge_count(s.nodes)
    assert core_flags(s)[3] and models_of(s) == models_of(c)


def test_write_read_write_is_byte_identical():
    rng = random.Random(12)
    for _ in range(80):
        n = rng.randint(1, 8)
        c = compile_dpll(random_cnf(rng, n, rng.randint(1, 2 * n)))[0]
        for circuit in (c, smooth(c), random_dnnf(rng, n)):
            text = write_nnf(circuit)
            again = read_nnf(text)
            assert write_nnf(again) == text
            assert again.decisions() == read_nnf(write_nnf(again)).decisions()


# -- witness synthesis ----------------------------------------------------------

def relabelled(circuit, names, universe_order):
    """The circuit over variables names[v], its universe inserted in the
    given order."""
    b = CircuitBuilder(universe_order)

    def leaf(rec):
        if rec[0] == 'L':
            return b.literal(names[rec[1]], rec[2])
        return b.true() if rec[0] == 'T' else b.false()

    out = _dag.rebuild(circuit.nodes, leaf, {'A': b.conj, 'O': b.disj})
    return b.finish(out[circuit.output])


def test_witness_does_not_depend_on_insertion_order():
    rng = random.Random(5)
    found = 0
    for _ in range(300):
        n = rng.randint(3, 8)
        c = random_dnnf(rng, n)
        names = rng.sample(range(4 * n * n), n)  # sparse ids that collide
        ascending = relabelled(c, names, sorted(names))
        witness = repr(classify(ascending).structured_witness)
        found += witness != 'None'
        for order in (sorted(names, reverse=True), rng.sample(names, n)):
            assert repr(classify(relabelled(c, names, order)).structured_witness) \
                == witness
    assert found > 100
