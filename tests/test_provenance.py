import random
from fractions import Fraction

import pytest

from kcomp.circuits import classify
from kcomp.cq import ConjunctiveQuery, Database, parse_cq
from kcomp.errors import (InputFormatError, NotHierarchical, SelfJoinPresent,
                          TargetExogenous, TooLargeForBruteForce)
from kcomp.provenance import (TID, FactVar, is_hierarchical, lift, pqe,
                              provenance_circuit_sjf, provenance_dnf,
                              provenance_read_once, read_once_to_obdd,
                              shapley, shapley_all, uniform_reliability)
from kcomp.queries import ApproxParams

from oracles import (dnf_probability, models_of, query_true_on,
                     shapley_by_conditioning, shapley_direct)


def toy_db():
    """Two facts in R, one in S."""
    return Database({'R': {('a',), ('a2',)}, 'S': {('b',)}})


def toy_query():
    return parse_cq("Q() :- R(x), S(y).")


def fact_bit_models(query, db):
    """Expected satisfying bitstrings over the canonical fact order."""
    fv = FactVar(db)
    expect = set()
    n = len(fv)
    for mask in range(1 << n):
        subset = [fv.facts[j] for j in range(n) if (mask >> (n - 1 - j)) & 1]
        if query_true_on(query.head, query.atoms, subset):
            expect.add(format(mask, f'0{n}b'))
    return expect


# -- lifting ------------------------------------------------------------------------

def test_lift_shapes():
    lifted = lift(toy_query(), toy_db())
    assert len(lifted.query.atoms) == 2
    assert all(len(vs) == 2 for _, vs in lifted.query.atoms)
    assert lifted.query.head == ('x', '_id0', 'y', '_id1')
    assert len(lifted.db.relations['R*']) == 2
    assert all(len(f) == 2 for f in lifted.db.relations['R*'])


def test_lift_preserves_acyclicity():
    from kcomp.cq import is_acyclic
    rng = random.Random(3)
    for _ in range(20):
        num_atoms = rng.randint(1, 3)
        atoms = tuple((f"R{i}",
                       tuple(rng.choice('xyzw') for _ in range(rng.randint(1, 3))))
                      for i in range(num_atoms))
        q = ConjunctiveQuery((), atoms)
        db = Database({rel: {tuple('a' * len(vs))} for rel, vs in atoms})
        lifted = lift(q, db)
        assert is_acyclic(q) == is_acyclic(lifted.query)


# -- provenance circuit ----------------------------------------------------------------

def test_provenance_circuit_toy_instance():
    c = provenance_circuit_sjf(toy_query(), toy_db())
    rep = classify(c)
    assert rep.is_nnf and rep.is_decomposable
    assert models_of(c) == fact_bit_models(toy_query(), toy_db())


def test_provenance_circuit_empty_db():
    c = provenance_circuit_sjf(toy_query(), Database({'R': set(), 'S': set()}))
    assert models_of(c) == set()


def test_provenance_circuit_rejects_self_joins():
    q = parse_cq("Q() :- R(x, y), R(y, z).")
    with pytest.raises(SelfJoinPresent):
        provenance_circuit_sjf(q, Database({'R': {('a', 'b')}}))


def random_sjf_query(rng, acyclic_only=True):
    from kcomp.cq import is_acyclic
    while True:
        num_atoms = rng.randint(1, 3)
        atoms = []
        for i in range(num_atoms):
            arity = rng.randint(1, 2)
            vs = tuple(rng.choice('xyz') for _ in range(arity))
            atoms.append((f"R{i}", vs))
        q = ConjunctiveQuery((), tuple(atoms))
        if not acyclic_only or is_acyclic(q):
            return q


def random_db_for(q, rng, max_facts=8):
    rels = {rel: set() for rel, _ in q.atoms}
    budget = rng.randint(1, max_facts)
    rel_list = [rel for rel, _ in q.atoms]
    arity = {rel: len(vs) for rel, vs in q.atoms}
    for _ in range(budget):
        rel = rng.choice(rel_list)
        rels[rel].add(tuple(rng.choice('ab') for _ in range(arity[rel])))
    return Database(rels)


def test_provenance_circuit_random_against_subinstances():
    rng = random.Random(11)
    for _ in range(20):
        q = random_sjf_query(rng)
        db = random_db_for(q, rng)
        c = provenance_circuit_sjf(q, db)
        assert classify(c).is_decomposable
        assert models_of(c) == fact_bit_models(q, db)


def test_provenance_monotone():
    rng = random.Random(19)
    for _ in range(10):
        q = random_sjf_query(rng)
        db = random_db_for(q, rng, max_facts=6)
        fv = FactVar(db)
        n = len(fv)
        sats = fact_bit_models(q, db)
        for bits in sats:
            # flipping any 0 to 1 keeps the query satisfied
            for j in range(n):
                if bits[j] == '0':
                    grown = bits[:j] + '1' + bits[j + 1:]
                    assert grown in sats


# -- provenance DNF --------------------------------------------------------------------

def test_provenance_dnf_toy():
    dnf = provenance_dnf(toy_query(), toy_db())
    fv = FactVar(toy_db())
    ra = fv.var_of[('R', ('a',))]
    ra2 = fv.var_of[('R', ('a2',))]
    sb = fv.var_of[('S', ('b',))]
    assert set(dnf.terms) == {frozenset({(ra, True), (sb, True)}),
                              frozenset({(ra2, True), (sb, True)})}


def test_provenance_dnf_unsatisfiable_empty():
    dnf = provenance_dnf(toy_query(), Database({'R': {('a',)}, 'S': set()}))
    assert dnf.terms == ()


def test_provenance_dnf_matches_circuit():
    rng = random.Random(7)
    for _ in range(15):
        q = random_sjf_query(rng)
        db = random_db_for(q, rng)
        dnf = provenance_dnf(q, db)
        expect = fact_bit_models(q, db)
        n = dnf.num_vars
        got = set()
        for mask in range(1 << n):
            val = {j: (mask >> (n - 1 - j)) & 1 for j in range(n)}
            if any(all(val[v] == int(pol) for v, pol in term) for term in dnf.terms):
                got.add(format(mask, f'0{n}b'))
        assert got == expect


def test_provenance_dnf_union_of_queries():
    db = Database({'R': {('a',)}, 'S': {('b',)}})
    q1 = parse_cq("Q() :- R(x).")
    q2 = parse_cq("Q() :- S(x).")
    dnf = provenance_dnf([q1, q2], db)
    assert len(dnf.terms) == 2


# -- hierarchy test ------------------------------------------------------------------------

def test_hierarchical_cases():
    assert is_hierarchical(parse_cq("Q() :- R(x), S(x, y)."))
    assert not is_hierarchical(parse_cq("Q() :- R(x), S(x, y), T(y)."))
    assert is_hierarchical(parse_cq("Q() :- R(x), S(y)."))
    with pytest.raises(SelfJoinPresent):
        is_hierarchical(parse_cq("Q() :- R(x), R(y)."))


# -- read-once provenance ---------------------------------------------------------------------

def test_read_once_toy_shape():
    tree = provenance_read_once(toy_query(), toy_db())
    assert tree.kind == 'and'
    kinds = sorted(c.kind for c in tree.children)
    assert kinds == ['or', 'or']
    assert sorted(tree.variables()) == [0, 1, 2]


def test_read_once_single_atom():
    q = parse_cq("Q() :- R(x).")
    db = Database({'R': {('a',), ('b',), ('c',)}})
    tree = provenance_read_once(q, db)
    assert tree.kind == 'or' and len(tree.children) == 3
    assert all(c.kind == 'leaf' for c in tree.children)


def test_read_once_rejects_non_hierarchical():
    q = parse_cq("Q() :- R(x), S(x, y), T(y).")
    db = Database({'R': {('a',)}, 'S': {('a', 'b')}, 'T': {('b',)}})
    with pytest.raises(NotHierarchical):
        provenance_read_once(q, db)


def random_hierarchical_query(rng):
    shapes = [
        "Q() :- R(x).",
        "Q() :- R(x), S(x, y).",
        "Q() :- R(x), S(x, y), T(x, y, z).",
        "Q() :- R(x), S(y).",
        "Q() :- R(x, y), S(x).",
        "Q() :- R(x), S(x), T(y).",
    ]
    return parse_cq(rng.choice(shapes))


def test_read_once_random_against_subinstances():
    rng = random.Random(29)
    for _ in range(20):
        q = random_hierarchical_query(rng)
        db = random_db_for(q, rng, max_facts=7)
        tree = provenance_read_once(q, db)
        fv = FactVar(db)
        n = len(fv)
        got = set()
        for mask in range(1 << n):
            val = {j: (mask >> (n - 1 - j)) & 1 for j in range(n)}
            if tree.evaluate(val):
                got.add(format(mask, f'0{n}b'))
        assert got == fact_bit_models(q, db)


# -- read-once to decision diagram --------------------------------------------------------------

def test_obdd_single_leaf():
    tree = ReadOnceTree = provenance_read_once(parse_cq("Q() :- R(x)."),
                                               Database({'R': {('a',)}}))
    c = read_once_to_obdd(tree, 1)
    rep = classify(c)
    assert rep.obdd_order is not None
    assert models_of(c) == {'1'}


def test_obdd_toy_model_count():
    from kcomp.circuits import smooth
    from kcomp.queries import model_count
    tree = provenance_read_once(toy_query(), toy_db())
    c = read_once_to_obdd(tree, 3)
    rep = classify(c)
    assert rep.all_or_decision and rep.obdd_order is not None
    assert model_count(smooth(c)) == 3


def test_obdd_size_linear_in_leaves():
    # and of two 2-leaf ors: one decision gadget per leaf
    q = parse_cq("Q() :- R(x), S(y).")
    db = Database({'R': {('a',), ('b',)}, 'S': {('c',), ('d',)}})
    tree = provenance_read_once(q, db)
    c = read_once_to_obdd(tree, 4)
    decisions = sum(1 for nid, rec in enumerate(c.nodes)
                    if rec[0] == 'O' and c.decision_var(nid) is not None)
    assert decisions == 4
    assert len(c.nodes) <= 5 * 4 + 2
    assert models_of(c) == fact_bit_models(q, db)


# -- aggregation: PQE, UR, Shapley ----------------------------------------------------------------

def test_pqe_exact_toy_half():
    tid = TID.uniform(toy_db())
    assert pqe(toy_query(), tid) == Fraction(3, 8)


def test_pqe_all_probabilities_one():
    tid = TID.uniform(toy_db(), Fraction(1))
    assert pqe(toy_query(), tid) == 1


def test_pqe_exact_random_against_subinstance_sum():
    rng = random.Random(37)
    for _ in range(15):
        q = random_hierarchical_query(rng)
        db = random_db_for(q, rng, max_facts=6)
        fv = FactVar(db)
        probs = {f: Fraction(rng.randint(0, 4), 4) for f in fv.facts}
        tid = TID(db, probs, {f: 'n' for f in fv.facts})
        expect = Fraction(0)
        n = len(fv)
        for mask in range(1 << n):
            keep = [fv.facts[j] for j in range(n) if (mask >> j) & 1]
            p = Fraction(1)
            for j, f in enumerate(fv.facts):
                p *= probs[f] if (mask >> j) & 1 else 1 - probs[f]
            if query_true_on(q.head, q.atoms, keep):
                expect += p
        assert pqe(q, tid) == expect


def test_pqe_exact_rejects_non_hierarchical():
    q = parse_cq("Q() :- R(x), S(x, y), T(y).")
    db = Database({'R': {('a',)}, 'S': {('a', 'b')}, 'T': {('b',)}})
    with pytest.raises(NotHierarchical):
        pqe(q, TID.uniform(db))


def test_pqe_approx_non_hierarchical_within_band():
    q = parse_cq("Q() :- R(x), S(x, y), T(y).")
    db = Database({'R': {('a',), ('c',)}, 'S': {('a', 'b'), ('c', 'b')},
                   'T': {('b',), ('d',)}})
    tid = TID.uniform(db)
    fv = FactVar(db)
    probs = {fv.var_of[f]: Fraction(1, 2) for f in fv.facts}
    dnf = provenance_dnf(q, db)
    exact = dnf_probability(dnf.terms, probs)
    est = pqe(q, tid, mode='approx', params=ApproxParams(0.1, Fraction(1, 3), 5))
    assert abs(est - exact) <= Fraction(1, 10) * exact


def test_uniform_reliability_toy():
    assert uniform_reliability(toy_query(), toy_db()) == 3


def test_uniform_reliability_no_atoms():
    q = ConjunctiveQuery((), ())
    db = toy_db()
    assert uniform_reliability(q, db) == 8


def test_uniform_reliability_single_fact():
    q = parse_cq("Q() :- R(x).")
    assert uniform_reliability(q, Database({'R': {('a',)}})) == 1


def test_uniform_reliability_brute_force_path_and_cap():
    q = parse_cq("Q() :- R(x), S(x, y), T(y).")
    db = Database({'R': {('a',)}, 'S': {('a', 'b')}, 'T': {('b',)}})
    assert uniform_reliability(q, db) == 1
    big = Database({'R': {(str(i),) for i in range(25)},
                    'S': {(str(i), 'b') for i in range(25)},
                    'T': {('b',)}})
    with pytest.raises(TooLargeForBruteForce):
        uniform_reliability(q, big)


def test_shapley_two_symmetric_facts():
    q = parse_cq("Q() :- R(x).")
    db = Database({'R': {('a',), ('b',)}})
    tid = TID.uniform(db)
    assert shapley(q, tid, ('R', ('a',))) == Fraction(1, 2)
    assert shapley(q, tid, ('R', ('b',))) == Fraction(1, 2)


def test_shapley_single_decisive_fact():
    q = parse_cq("Q() :- R(x), S(y).")
    db = Database({'R': {('a',)}, 'S': {('b',)}})
    facts = db.facts()
    tid = TID(db, {f: Fraction(1, 2) for f in facts},
              {('R', ('a',)): 'x', ('S', ('b',)): 'n'})
    assert shapley(q, tid, ('S', ('b',))) == 1


def test_shapley_rejects_exogenous_target():
    q = parse_cq("Q() :- R(x).")
    db = Database({'R': {('a',)}})
    tid = TID(db, {('R', ('a',)): Fraction(1)}, {('R', ('a',)): 'x'})
    with pytest.raises(TargetExogenous):
        shapley(q, tid, ('R', ('a',)))


def test_shapley_matches_permutation_oracle():
    rng = random.Random(41)
    for _ in range(15):
        q = random_hierarchical_query(rng)
        db = random_db_for(q, rng, max_facts=6)
        facts = db.facts()
        if not facts:
            continue
        kinds = {f: ('x' if rng.random() < 0.3 else 'n') for f in facts}
        if not any(k == 'n' for k in kinds.values()):
            kinds[facts[0]] = 'n'
        tid = TID(db, {f: Fraction(1, 2) for f in facts}, kinds)
        endo = tid.endogenous()
        exo = tid.exogenous()

        def value(subset):
            return 1 if query_true_on(q.head, q.atoms, exo + sorted(subset)) else 0

        for target in endo:
            assert shapley(q, tid, target) == shapley_direct(endo, value, target)


def test_shapley_efficiency():
    rng = random.Random(43)
    for _ in range(10):
        q = random_hierarchical_query(rng)
        db = random_db_for(q, rng, max_facts=6)
        facts = db.facts()
        if not facts:
            continue
        kinds = {f: ('x' if rng.random() < 0.2 else 'n') for f in facts}
        if not any(k == 'n' for k in kinds.values()):
            kinds[facts[0]] = 'n'
        tid = TID(db, {f: Fraction(1, 2) for f in facts}, kinds)
        total = sum(shapley_all(q, tid).values())
        full = 1 if query_true_on(q.head, q.atoms, facts) else 0
        base = 1 if query_true_on(q.head, q.atoms, tid.exogenous()) else 0
        assert total == full - base


def random_tid_for(q, rng, num_facts):
    """TID of num_facts facts for q.  Each position reuses a value already
    drawn for its variable three times in four, so the atoms join.  Facts
    of the first atom are endogenous and the others exogenous three times
    in ten, so the exogenous facts alone never satisfy the query."""
    seen = {v: [] for v in q.variables()}
    rels = {rel: set() for rel, _ in q.atoms}
    while sum(map(len, rels.values())) < num_facts:
        rel, vs = rng.choice(q.atoms)
        values = []
        for v in vs:
            if not seen[v] or rng.random() < 0.25:
                seen[v].append(f"{v}{len(seen[v])}")
            values.append(rng.choice(seen[v]))
        rels[rel].add(tuple(values))
    db = Database(rels)
    first = q.atoms[0][0]
    kinds = {f: ('x' if f[0] != first and rng.random() < 0.3 else 'n')
             for f in db.facts()}
    return TID(db, {f: Fraction(1, 2) for f in db.facts()}, kinds)


def test_shapley_all_matches_conditioning_up_to_80_facts():
    rng = random.Random(51)
    for num_facts in (10, 20, 40, 80):
        q = random_hierarchical_query(rng)
        tid = random_tid_for(q, rng, num_facts)
        values = shapley_all(q, tid)
        assert values == shapley_by_conditioning(q, tid)
        endo = tid.endogenous()
        for target in rng.sample(endo, 3):
            assert shapley(q, tid, target) == values[target]
        full = 1 if query_true_on(q.head, q.atoms, tid.db.facts()) else 0
        base = 1 if query_true_on(q.head, q.atoms, tid.exogenous()) else 0
        assert sum(values.values()) == full - base


# -- TID parsing ---------------------------------------------------------------------------------

def test_tid_tsv_round_trip():
    text = "R\ta\t1/2\tn\nR\ta2\t0.25\tn\nS\tb\t1\tx\n"
    tid = TID.from_tsv(text)
    assert tid.prob[('R', ('a',))] == Fraction(1, 2)
    assert tid.prob[('R', ('a2',))] == Fraction(1, 4)
    assert tid.kind[('S', ('b',))] == 'x'
    assert tid.endogenous() == [('R', ('a',)), ('R', ('a2',))]


def test_tid_tsv_rejects_malformed():
    with pytest.raises(InputFormatError):
        TID.from_tsv("R\ta\t0.5\n")        # missing marker
    with pytest.raises(InputFormatError):
        TID.from_tsv("R\ta\tnotp\tn\n")
    with pytest.raises(InputFormatError):
        TID.from_tsv("R\ta\t2\tn\n")
    with pytest.raises(InputFormatError):
        TID.from_tsv("R\ta\t0.5\tq\n")
