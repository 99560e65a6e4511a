import random
from itertools import product

import pytest

from kcomp.errors import (DomainViolation, NonBooleanDomain, NotCountable,
                          NotOrdered, OutOfRange)
from kcomp.queries import model_count
from kcomp.circuits import smooth
from kcomp.relational import (RelBuilder, classify_rel, count_rel,
                              decision_attr, direct_access, enumerate_rel,
                              eval_rel, from_boolean, project_away, to_boolean)

from oracles import models_of


def brute_tuples(circuit):
    """All tuples of the relation by exhaustive evaluation."""
    out = set()
    for values in product(*(circuit.domains[i] for i in range(len(circuit.attrs)))):
        tup = dict(zip(circuit.attrs, values))
        if eval_rel(circuit, tup):
            out.add(tuple(tup[a] for a in circuit.attrs))
    return out


def bool_domains(attrs):
    return {a: [0, 1] for a in attrs}


def decision(b, attr, branches):
    """Union of input x/d joined with each continuation."""
    return b.union(tuple(b.join((b.input(attr, d), cont))
                         for d, cont in branches))


def table_circuit():
    """Decision circuit over x,y,z,w for y=1 and not(x=1 and z=1)."""
    b = RelBuilder(['x', 'y', 'z', 'w'], bool_domains('xyzw'))
    dz = decision(b, 'z', [(0, b.unit()), (1, b.empty())])
    dx = decision(b, 'x', [(0, b.unit()), (1, dz)])
    root = decision(b, 'y', [(0, b.empty()), (1, dx)])
    return b.finish(root)


TABLE_ROWS = {(0, 1, 0, 0), (0, 1, 0, 1), (0, 1, 1, 0), (0, 1, 1, 1),
              (1, 1, 0, 0), (1, 1, 0, 1)}


# -- evaluation ----------------------------------------------------------------

def test_eval_free_attribute_extension():
    b = RelBuilder(['x', 'y'], bool_domains('xy'))
    c = b.finish(b.input('x', 1))
    assert eval_rel(c, {'x': 1, 'y': 0})
    assert eval_rel(c, {'x': 1, 'y': 1})
    assert not eval_rel(c, {'x': 0, 'y': 0})


def test_eval_contradictory_join_empty():
    b = RelBuilder(['x'], bool_domains('x'))
    c = b.finish(b.join((b.input('x', 1), b.input('x', 0))))
    assert not eval_rel(c, {'x': 0}) and not eval_rel(c, {'x': 1})


def test_eval_table_circuit_rows():
    c = table_circuit()
    assert eval_rel(c, {'x': 0, 'y': 1, 'z': 1, 'w': 0})
    assert not eval_rel(c, {'x': 1, 'y': 1, 'z': 1, 'w': 0})
    assert brute_tuples(c) == TABLE_ROWS


def test_eval_rejects_bad_tuples():
    c = table_circuit()
    with pytest.raises(DomainViolation):
        eval_rel(c, {'x': 0, 'y': 1, 'z': 1})
    with pytest.raises(DomainViolation):
        eval_rel(c, {'x': 7, 'y': 1, 'z': 1, 'w': 0})


def test_eval_zero_suppressed_extension():
    b = RelBuilder(['x', 'y'], {'x': [0, 1], 'y': [0, 1]},
                   defaults={'x': 0, 'y': 0})
    c = b.finish(b.input('x', 1))
    assert eval_rel(c, {'x': 1, 'y': 0})
    assert not eval_rel(c, {'x': 1, 'y': 1})   # y must sit at its default


# -- classification ---------------------------------------------------------------

def test_classify_decision_circuit():
    rep = classify_rel(table_circuit())
    assert rep.decomposable and rep.decision_only
    assert rep.ordered_witness == ('x', 'y', 'z', 'w') or rep.ordered_witness is None


def test_classify_join_shared_attribute():
    b = RelBuilder(['x'], bool_domains('x'))
    c = b.finish(b.join((b.input('x', 1), b.input('x', 1))))
    assert not classify_rel(c).decomposable


def test_classify_smooth_union():
    b = RelBuilder(['x'], bool_domains('x'))
    c = b.finish(b.union((b.input('x', 0), b.input('x', 1))))
    assert classify_rel(c).smooth_union


def test_decision_attr_shapes():
    b = RelBuilder(['x', 'y'], bool_domains('xy'))
    node = decision(b, 'x', [(0, b.input('y', 1)), (1, b.unit())])
    c = b.finish(node)
    assert decision_attr(c, c.output) == 0
    b2 = RelBuilder(['x'], bool_domains('x'))
    c2 = b2.finish(b2.union((b2.input('x', 0), b2.input('x', 1))))
    assert decision_attr(c2, c2.output) is None


# -- counting ---------------------------------------------------------------------

def test_count_table_circuit():
    c = table_circuit()
    assert count_rel(c) == 6


def test_count_unit_full_relation():
    b = RelBuilder(['x', 'y'], {'x': [0, 1], 'y': ['a', 'b', 'c']})
    c = b.finish(b.unit())
    assert count_rel(c) == 6


def test_count_requires_decision_or_certificate():
    b = RelBuilder(['x'], bool_domains('x'))
    c = b.finish(b.union((b.input('x', 0), b.input('x', 1))))
    with pytest.raises(NotCountable):
        count_rel(c)
    assert count_rel(c, assume_disjoint=True) == 2


def test_count_zero_suppressed():
    b = RelBuilder(['x', 'y'], bool_domains('xy'), defaults={'x': 0, 'y': 0})
    c = b.finish(b.input('x', 1))
    assert count_rel(c, assume_disjoint=True) == 1


# -- enumeration ---------------------------------------------------------------------

def test_enumerate_table_circuit():
    c = table_circuit()
    got = {tuple(t[a] for a in c.attrs) for t in enumerate_rel(c)}
    assert got == TABLE_ROWS


def test_enumerate_empty():
    b = RelBuilder(['x'], bool_domains('x'))
    assert list(enumerate_rel(b.finish(b.empty()))) == []


def random_decision_relcircuit(rng, attrs, domains):
    b = RelBuilder(attrs, domains)

    def build(attrs_left):
        if not attrs_left or rng.random() < 0.25:
            return b.unit() if rng.random() < 0.85 else b.empty()
        if len(attrs_left) >= 3 and rng.random() < 0.3:
            cut = rng.randint(1, len(attrs_left) - 1)
            return b.join((build(attrs_left[:cut]), build(attrs_left[cut:])))
        attr = attrs_left[0]
        values = rng.sample(domains[attr], rng.randint(1, len(domains[attr])))
        return b.union(tuple(b.join((b.input(attr, v), build(attrs_left[1:])))
                             for v in sorted(values)))

    return b.finish(build(list(attrs)))


def test_enumerate_random_against_brute_force():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 4)
        attrs = [f"a{i}" for i in range(n)]
        domains = {a: list(range(rng.randint(1, 3))) for a in attrs}
        c = random_decision_relcircuit(rng, attrs, domains)
        got = [tuple(t[a] for a in c.attrs) for t in enumerate_rel(c)]
        assert len(got) == len(set(got))
        assert set(got) == brute_tuples(c)
        assert count_rel(c) == len(got)


# -- direct access -----------------------------------------------------------------

def sorted_tuples(circuit):
    return sorted(brute_tuples(circuit))


def test_direct_access_three_tuples():
    # relation {00, 01, 10} over x < y
    b = RelBuilder(['x', 'y'], bool_domains('xy'))
    dy = decision(b, 'y', [(0, b.unit())])
    dall = decision(b, 'y', [(0, b.unit()), (1, b.unit())])
    c = b.finish(decision(b, 'x', [(0, dall), (1, dy)]))
    assert direct_access(c, 1) == {'x': 0, 'y': 0}
    assert direct_access(c, 3) == {'x': 1, 'y': 0}
    with pytest.raises(OutOfRange):
        direct_access(c, 4)
    with pytest.raises(OutOfRange):
        direct_access(c, 0)


def test_direct_access_interleaved_components():
    # join components over {a0, a2} and {a1}: ranks interleave attributes
    b = RelBuilder(['a0', 'a1', 'a2'],
                   {'a0': [0, 1], 'a1': [0, 1, 2], 'a2': [0, 1]})
    inner = decision(b, 'a2', [(0, b.unit()), (1, b.unit())])
    left = decision(b, 'a0', [(0, inner), (1, b.join((b.input('a2', 1), b.unit())))])
    right = decision(b, 'a1', [(0, b.unit()), (2, b.unit())])
    c = b.finish(b.join((left, right)))
    expect = sorted_tuples(c)
    got = [tuple(direct_access(c, i)[a] for a in c.attrs)
           for i in range(1, count_rel(c) + 1)]
    assert got == expect


def test_direct_access_matches_sorted_enumeration_randomly():
    rng = random.Random(12)
    for _ in range(25):
        n = rng.randint(1, 4)
        attrs = [f"a{i}" for i in range(n)]
        domains = {a: list(range(rng.randint(1, 3))) for a in attrs}
        c = random_decision_relcircuit(rng, attrs, domains)
        rep = classify_rel(c)
        if rep.ordered_witness is None:
            continue
        expect = sorted_tuples(c)
        got = [tuple(direct_access(c, i)[a] for a in c.attrs)
               for i in range(1, count_rel(c) + 1)]
        assert got == expect


def test_direct_access_requires_order():
    # decision on y nested under a decision on x, but y precedes x in the
    # attribute list, so the circuit is not ordered
    b = RelBuilder(['x', 'y'], bool_domains('xy'))
    dy = decision(b, 'x', [(0, b.unit()), (1, b.unit())])
    c = b.finish(decision(b, 'y', [(0, dy)]))
    with pytest.raises(NotOrdered):
        direct_access(c, 1)


def assert_access_scans_sorted_enumeration(c):
    """Every rank against the enumerated tuples sorted in domain order, and
    the exact messages for the ranks just outside."""
    pos = [{v: i for i, v in enumerate(dom)} for dom in c.domains]
    expect = sorted((tuple(t[a] for a in c.attrs) for t in enumerate_rel(c)),
                    key=lambda row: [pos[i][v] for i, v in enumerate(row)])
    total = len(expect)
    assert count_rel(c) == total
    got = [tuple(direct_access(c, i)[a] for a in c.attrs)
           for i in range(1, total + 1)]
    assert got == expect
    with pytest.raises(OutOfRange, match=r"^answer indexes are 1-based, got 0$"):
        direct_access(c, 0)
    with pytest.raises(OutOfRange,
                       match=rf"^relation has {total} tuples, asked for {total + 1}$"):
        direct_access(c, total + 1)
    return expect


def test_direct_access_zero_suppressed_defaults():
    # x=0 leaves z at its default, x=1 leaves y and z there, and the output
    # never mentions w
    attrs = ['w', 'x', 'y', 'z']
    domains = {a: [0, 1, 2] for a in attrs}
    b = RelBuilder(attrs, domains, {'w': 1, 'x': 0, 'y': 2, 'z': 1})
    dy = decision(b, 'y', [(0, b.unit()), (1, b.unit())])
    dz = decision(b, 'z', [(0, b.unit()), (2, b.unit())])
    c = b.finish(decision(b, 'x', [(0, dy), (1, b.unit()),
                                   (2, b.join((b.input('y', 2), dz)))]))
    assert classify_rel(c).ordered_witness is not None
    assert assert_access_scans_sorted_enumeration(c) == [
        (1, 0, 0, 1), (1, 0, 1, 1), (1, 1, 2, 1), (1, 2, 2, 0), (1, 2, 2, 2)]


def test_direct_access_output_misses_attributes():
    # the output decides b only; a and c range over their full domains
    b = RelBuilder(['a', 'b', 'c'], {'a': [0, 1, 2], 'b': [5, 6, 7], 'c': [0, 1]})
    c = b.finish(decision(b, 'b', [(5, b.unit()), (7, b.unit())]))
    rows = assert_access_scans_sorted_enumeration(c)
    assert rows == sorted(product([0, 1, 2], [5, 7], [0, 1]))


def test_direct_access_branches_leave_attributes_free():
    # x=0 leaves y and z free, x=1 leaves y free and fixes z, x=2 decides y
    # and leaves z free
    b = RelBuilder(['x', 'y', 'z'], {'x': [0, 1, 2], 'y': [0, 1, 2], 'z': [0, 1]})
    dy = decision(b, 'y', [(1, b.unit()), (2, b.unit())])
    c = b.finish(decision(b, 'x', [(0, b.unit()),
                                   (1, b.join((b.input('z', 1), b.unit()))),
                                   (2, dy)]))
    rows = assert_access_scans_sorted_enumeration(c)
    assert len(rows) == 6 + 3 + 4


@pytest.mark.parametrize('make', [
    lambda b: b.empty(),
    lambda b: decision(b, 'x', [(0, b.empty()), (1, b.empty())]),
], ids=['empty', 'all_branches_empty'])
def test_direct_access_empty_relation(make):
    b = RelBuilder(['x'], bool_domains('x'))
    c = b.finish(make(b))
    with pytest.raises(OutOfRange, match=r"^relation has 0 tuples, asked for 1$"):
        direct_access(c, 1)


@pytest.mark.parametrize('text', ["Q(x, y, z) :- R(x, y), S(y, z).",
                                  "Q(x, y) :- R(x, y), S(y, z), T(y, w)."],
                         ids=['path', 'star'])
def test_direct_access_after_file_round_trip_of_compiled_query(text):
    from kcomp.cq import Database, compile_cq, parse_cq
    from kcomp.relational import read_rel, write_rel
    rng = random.Random(31)
    rels = {rel: {(str(rng.randint(0, 30)), str(rng.randint(0, 5)))
                  if rel == 'R' else (str(rng.randint(0, 5)), str(rng.randint(0, 30)))
                  for _ in range(60)} for rel in 'RST'}
    compiled = compile_cq(parse_cq(text), Database(rels))
    c = read_rel(write_rel(compiled))
    rows = assert_access_scans_sorted_enumeration(c)
    assert len(rows) > 20
    assert rows == [tuple(str(v) for v in row)
                    for row in assert_access_scans_sorted_enumeration(compiled)]


# -- projection --------------------------------------------------------------------

def test_project_away_simple():
    b = RelBuilder(['x', 'y'], bool_domains('xy'))
    c = b.finish(b.union((b.join((b.input('x', 0), b.input('y', 1))),
                          b.join((b.input('x', 1), b.input('y', 1))))))
    p = project_away(c, ['x'])
    assert p.attrs == ('y',)
    assert brute_tuples(p) == {(1,)}


def test_project_nothing_is_identity():
    c = table_circuit()
    p = project_away(c, [])
    assert brute_tuples(p) == brute_tuples(c)


def test_project_matches_brute_force():
    rng = random.Random(9)
    for _ in range(15):
        attrs = ['a', 'b', 'c']
        domains = {x: list(range(2)) for x in attrs}
        c = random_decision_relcircuit(rng, attrs, domains)
        p = project_away(c, ['b'])
        expect = {(t[0], t[2]) for t in brute_tuples(c)}
        assert brute_tuples(p) == expect


# -- Boolean bridge -----------------------------------------------------------------

def test_to_boolean_table_circuit():
    bc = to_boolean(table_circuit())
    assert model_count(smooth(bc)) == 6


def test_to_boolean_empty_relation():
    b = RelBuilder(['x'], bool_domains('x'))
    bc = to_boolean(b.finish(b.empty()))
    assert bc.nodes[bc.output] == ('F',)


def test_to_boolean_requires_binary_domains():
    b = RelBuilder(['x'], {'x': [0, 1, 2]})
    with pytest.raises(NonBooleanDomain):
        to_boolean(b.finish(b.input('x', 1)))


def test_round_trip_boolean_relational():
    rng = random.Random(33)
    for _ in range(15):
        attrs = [f"a{i}" for i in range(rng.randint(1, 4))]
        c = random_decision_relcircuit(rng, attrs, {a: [0, 1] for a in attrs})
        bc = to_boolean(c)
        back = from_boolean(bc, attr_names=c.attrs)
        assert brute_tuples(back) == brute_tuples(c)
        rel_rows = {tuple(t) for t in brute_tuples(c)}
        bool_rows = {tuple(int(ch) for ch in row) for row in models_of(bc)}
        assert bool_rows == rel_rows


# -- text serialization --------------------------------------------------------------

def test_rel_serialization_round_trip():
    from kcomp.errors import InputFormatError
    from kcomp.relational import read_rel, write_rel
    rng = random.Random(41)
    for _ in range(10):
        attrs = [f"a{i}" for i in range(rng.randint(1, 4))]
        domains = {a: [f"v{j}" for j in range(rng.randint(1, 3))] for a in attrs}
        c = random_decision_relcircuit(rng, attrs, domains)
        text = write_rel(c)
        back = read_rel(text)
        assert write_rel(back) == text
        assert brute_tuples(back) == brute_tuples(c)


def test_rel_serialization_zero_suppressed_mode():
    from kcomp.relational import read_rel, write_rel
    b = RelBuilder(['x', 'y'], {'x': [0, 1], 'y': [0, 1]},
                   defaults={'x': 0, 'y': 0})
    c = b.finish(b.input('x', 1))
    text = write_rel(c)
    assert 'mode zero 0 0' in text
    back = read_rel(text)
    assert back.defaults == (0, 0)


def test_rel_serialization_rejects_malformed():
    from kcomp.errors import InputFormatError
    from kcomp.relational import read_rel
    with pytest.raises(InputFormatError):
        read_rel("not a header\n")
    with pytest.raises(InputFormatError):
        read_rel("rel 1 1 0\nattr x 2 0 1\nmode full\nI 0 5\n")
    with pytest.raises(InputFormatError):
        read_rel("rel 1 2 0\nattr x 2 0 1\nmode full\nI 0 0\n")


def test_cartesian_joins_sound_by_recomputation():
    rng = random.Random(61)
    for _ in range(15):
        attrs = [f"a{i}" for i in range(rng.randint(2, 4))]
        c = random_decision_relcircuit(rng, attrs, {a: [0, 1] for a in attrs})
        if not classify_rel(c).decomposable:
            continue
        sets = []
        for rec in c.nodes:
            if rec[0] == 'I':
                sets.append({rec[1]})
            elif rec[0] in ('1', '0'):
                sets.append(set())
            else:
                acc = set()
                for child in rec[1]:
                    acc |= sets[child]
                sets.append(acc)
        for rec in c.nodes:
            if rec[0] != 'J':
                continue
            seen = set()
            for child in rec[1]:
                assert not (sets[child] & seen)
                seen |= sets[child]


def test_project_compiled_query_circuit():
    from kcomp.cq import Database, compile_cq, parse_cq
    q = parse_cq("Q(x, y) :- R(x, y), S(y).")
    db = Database({'R': {('a', 'b'), ('a', 'c'), ('d', 'b'), ('e', 'e')},
                   'S': {('b',), ('c',)}})
    c = compile_cq(q, db)
    p = project_away(c, ['x'])
    expect = {(t[1],) for t in brute_tuples(c)}
    assert brute_tuples(p) == expect


def test_concurrent_reads_on_frozen_circuits():
    from concurrent.futures import ThreadPoolExecutor
    from kcomp.cq import Database, compile_cq, parse_cq
    q = parse_cq("Q(x, y) :- R(x, y), S(y).")
    rng = random.Random(3)
    rels = {'R': {(str(rng.randint(0, 20)), str(rng.randint(0, 6)))
                  for _ in range(200)},
            'S': {(str(y),) for y in range(0, 7, 2)}}
    c = compile_cq(q, Database(rels))
    n = count_rel(c)

    def probe(i):
        return tuple(direct_access(c, 1 + (i * 37) % n).items())

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(probe, range(64)))
    serial = [tuple(direct_access(c, 1 + (i * 37) % n).items())
              for i in range(64)]
    assert results == serial
