import random
import warnings
from fractions import Fraction

import pytest

from kcomp.circuits import classify
from kcomp.cq import ConjunctiveQuery, Database, parse_cq
from kcomp.errors import (InputFormatError, NotHierarchical, SelfJoinPresent,
                          TargetExogenous)
from kcomp.cnf import CNFFormula, compile_dpll
from kcomp.provenance import (TID, FactVar, _shapley_by_derivative,
                              is_hierarchical, lift, pqe,
                              provenance_circuit_sjf, provenance_dnf,
                              provenance_read_once, read_once_to_obdd,
                              shapley, shapley_all, uniform_reliability)
from kcomp.queries import ApproxParams, WeightMap, model_count, wmc

from oracles import (dnf_probability, models_of, provenance_sets,
                     query_true_on, shapley_by_conditioning, shapley_direct)


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


def holding_masks(query, facts):
    """Bitmasks over the facts of the subinstances where the query holds."""
    return [mask for mask in range(1 << len(facts))
            if query_true_on(query.head, query.atoms,
                             [f for j, f in enumerate(facts) if (mask >> j) & 1])]


def subset_probability(query, tid):
    """P(Q) as a sum over the subinstances of the TID where Q holds."""
    facts = tid.db.facts()
    total = Fraction(0)
    for mask in holding_masks(query, facts):
        p = Fraction(1)
        for j, f in enumerate(facts):
            p *= tid.prob[f] if (mask >> j) & 1 else 1 - tid.prob[f]
        total += p
    return total


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


def dnf_holding_sets(dnf, facts):
    """Subsets of the facts, as frozensets, on which some term holds."""
    terms = [frozenset(facts[v] for v, _ in term) for term in dnf.terms]
    subsets = (frozenset(f for j, f in enumerate(facts) if (mask >> j) & 1)
               for mask in range(1 << len(facts)))
    return {sub for sub in subsets if any(t <= sub for t in terms)}


PROVENANCE_CASES = (
    ("Q() :- R(x, y), R(y, z).",),
    ("Q() :- R(x, y), R(y, x).",),
    ("Q(x) :- R(x, x), R(x, y).",),
    ("Q() :- R(x, y), S(y, z), T(z, x).",),
    ("Q(x, z) :- R(x, y), S(y, z), T(z, x).",),
    ("Q() :- R(x, y), S(y, z).", "Q() :- T(x, x).", "Q() :- R(x, y), R(y, x)."),
    ("Q() :- R(x, y), U(y).",),
)


@pytest.mark.parametrize("texts", PROVENANCE_CASES)
def test_provenance_dnf_against_provenance_sets(texts):
    queries = [parse_cq(text) for text in texts]
    rng = random.Random(" ".join(texts))
    for size in (1, 3, 4):
        rels = {rel: {(rng.choice('abc'), rng.choice('abc')) for _ in range(size)}
                for rel in 'RST'}
        rels['U'] = set()
        db = Database(rels)
        facts = db.facts()
        expect = set().union(*(provenance_sets(q.head, q.atoms, facts)
                               for q in queries))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dnf = provenance_dnf(queries, db)
        assert dnf.num_vars == len(facts)
        assert dnf_holding_sets(dnf, facts) == expect
        # one term per homomorphism image, and no other
        images = {frozenset(t) for t in expect
                  if not any(frozenset(t) - {f} in expect for f in t)}
        assert images <= {frozenset(facts[v] for v, _ in t) for t in dnf.terms}


def test_provenance_dnf_on_tids_with_exogenous_facts():
    # exogenous facts are variables of the DNF like any other: conditioned
    # on all of them, it holds on the endogenous subsets where the query
    # holds together with the exogenous facts
    rng = random.Random(73)
    for text in LINEAGE_SHAPES:
        q = parse_cq(text)
        for _ in range(3):
            tid = random_lineage_tid(q, rng, 10)
            facts = tid.db.facts()
            exo = frozenset(tid.exogenous())
            sets = dnf_holding_sets(provenance_dnf(q, tid.db), facts)
            assert sets == provenance_sets(q.head, q.atoms, facts)
            endo = tid.endogenous()
            for mask in range(1 << len(endo)):
                sub = [f for j, f in enumerate(endo) if (mask >> j) & 1]
                assert ((exo | frozenset(sub)) in sets) == \
                    query_true_on(q.head, q.atoms, sorted(exo) + sub)


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


def tree_models(tree, n):
    """Satisfying bitstrings of a read-once tree over n facts, in the
    layout of fact_bit_models."""
    got = set()
    for mask in range(1 << n):
        val = {j: (mask >> (n - 1 - j)) & 1 for j in range(n)}
        if tree.evaluate(val):
            got.add(format(mask, f'0{n}b'))
    return got


def test_read_once_random_against_subinstances():
    rng = random.Random(29)
    for _ in range(20):
        q = random_hierarchical_query(rng)
        db = random_db_for(q, rng, max_facts=7)
        tree = provenance_read_once(q, db)
        assert tree_models(tree, len(FactVar(db))) == fact_bit_models(q, db)


# variables listed against the hierarchy, and a repeated variable
OUT_OF_ORDER_SHAPES = [
    "Q() :- R(y, x), S(x).",
    "Q() :- S(y, x), R(x), T(z, y, x).",
    "Q() :- R(x, x), S(x, y).",
]


def test_read_once_out_of_order_shapes_against_subinstances():
    rng = random.Random(41)
    for text in OUT_OF_ORDER_SHAPES:
        q = parse_cq(text)
        for _ in range(12):
            db = random_db_for(q, rng, max_facts=8)
            tree = provenance_read_once(q, db)
            assert tree_models(tree, len(FactVar(db))) == fact_bit_models(q, db)


DANGLING_QUERY = "Q() :- R(x), S(x, y), T(x, y, z)."


def dangling_db():
    """R(a) and S(a, a) join no T fact, and T(a, b, a) joins no S fact."""
    return Database({'R': {('a',), ('b',)}, 'S': {('a', 'a'), ('b', 'b')},
                     'T': {('a', 'b', 'a'), ('b', 'b', 'a')}})


def test_read_once_leaves_are_lineage_facts():
    """The tree holds exactly the facts of the lineage's terms: facts that
    join with nothing are no leaves."""
    q = parse_cq(DANGLING_QUERY)
    db = dangling_db()
    labels = FactVar(db).labels()
    tree = provenance_read_once(q, db)
    assert sorted(labels[v] for v in tree.variables()) == ['R(b)', 'S(b,b)', 'T(b,b,a)']
    rng = random.Random(43)
    cases = [(q, db)]
    for _ in range(40):
        q = parse_cq(rng.choice(OUT_OF_ORDER_SHAPES + [DANGLING_QUERY]))
        cases.append((q, random_db_for(q, rng, max_facts=10)))
        q = random_hierarchical_query(rng)
        cases.append((q, random_db_for(q, rng, max_facts=10)))
    for q, db in cases:
        terms = provenance_dnf(q, db).terms
        assert (sorted(provenance_read_once(q, db).variables())
                == sorted({v for term in terms for v, _ in term}))


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


def test_pqe_hierarchical_ten_thousand_facts_product_formula():
    """Exact PQE of Q() :- R(x), S(x, y) on 10^4 facts equals
    1 - prod_x (1 - p_R(x) (1 - prod_y (1 - p_S(x, y)))); some x values
    have an R fact and no S fact, others S facts and no R fact."""
    rng = random.Random(89)
    prob = {('R', (f"x{i}",)): Fraction(rng.randint(1, 9), 10) for i in range(2500)}
    for i in range(500, 3000):
        for j in rng.sample(range(100), 3):
            prob[('S', (f"x{i}", f"y{j}"))] = Fraction(rng.randint(1, 9), 10)
    assert len(prob) == 10_000
    relations = {'R': set(), 'S': set()}
    for rel, values in prob:
        relations[rel].add(values)
    tid = TID(Database(relations), prob, {f: 'n' for f in prob})
    no_s = {}
    for (rel, values), p in prob.items():
        if rel == 'S':
            no_s[values[0]] = no_s.get(values[0], 1) * (1 - p)
    fails = Fraction(1)
    for (rel, values), p in prob.items():
        if rel == 'R':
            fails *= 1 - p * (1 - no_s.get(values[0], 1))
    assert pqe(parse_cq("Q() :- R(x), S(x, y)."), tid) == 1 - fails


def test_pqe_exact_non_hierarchical_equals_subset_sum():
    q = parse_cq("Q() :- R(x), S(x, y), T(y).")
    db = Database({'R': {('a',)}, 'S': {('a', 'b')}, 'T': {('b',)}})
    tid = TID.uniform(db)
    assert pqe(q, tid) == subset_probability(q, tid) == Fraction(1, 8)


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


def test_pqe_approx_past_62_facts_within_band_of_exact():
    # ten blocks of two R, three or four S and two T facts: 75 variables
    rng = random.Random(80)
    relations = {'R': set(), 'S': set(), 'T': set()}
    for b in range(10):
        xs, ys = [f"x{b}_{i}" for i in range(2)], [f"y{b}_{i}" for i in range(2)]
        edges = [(x, y) for x in xs for y in ys]
        relations['R'] |= {(x,) for x in xs}
        relations['S'] |= set(rng.sample(edges, 3 if b % 2 else 4))
        relations['T'] |= {(y,) for y in ys}
    db = Database(relations)
    tid = TID(db, {f: Fraction(rng.randint(1, 4), 10) for f in db.facts()}, {})
    assert len(FactVar(db)) == 75
    q = parse_cq("Q() :- R(x), S(x, y), T(y).")
    exact = pqe(q, tid)
    assert 0 < exact < Fraction(1, 2)
    est = pqe(q, tid, mode='approx', params=ApproxParams(0.1, 0.05, 3))
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


def test_uniform_reliability_non_hierarchical_small_and_51_facts():
    q = parse_cq("Q() :- R(x), S(x, y), T(y).")
    db = Database({'R': {('a',)}, 'S': {('a', 'b')}, 'T': {('b',)}})
    assert uniform_reliability(q, db) == 1
    # Q holds when T(b) and some pair R(i), S(i, b) are present; the 25
    # pairs hold no complete one in 3^25 of their 4^25 subsets
    big = Database({'R': {(str(i),) for i in range(25)},
                    'S': {(str(i), 'b') for i in range(25)},
                    'T': {('b',)}})
    assert uniform_reliability(q, big) == 4 ** 25 - 3 ** 25


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


# -- one lineage route for every query ------------------------------------------------------

LINEAGE_SHAPES = (
    "Q() :- R(x), S(x, y), T(y).",
    "Q() :- R(x, y), R(y, z).",
    "Q() :- R(x, y), S(y, z), T(z, x).",
    "Q() :- R(x), S(x, y), R(y).",
    "Q() :- R(x), S(x, y).",
    "Q() :- R(x), S(y).",
)


def random_lineage_tid(q, rng, max_facts):
    """TID of 6 to max_facts facts (fewer if the relations have no room)
    over the relations of q, values drawn from {a, b, c} with a twice as
    likely, so the atoms join; about a quarter of the facts exogenous and
    probabilities in quarters, 0 and 1 included."""
    arity = {rel: len(vs) for rel, vs in q.atoms}
    rels = {rel: set() for rel in arity}
    target = min(rng.randint(6, max_facts), sum(3 ** k for k in arity.values()))
    while sum(map(len, rels.values())) < target:
        rel = rng.choice(sorted(arity))
        rels[rel].add(tuple(rng.choice('aabc') for _ in range(arity[rel])))
    db = Database(rels)
    facts = db.facts()
    return TID(db, {f: Fraction(rng.randint(0, 4), 4) for f in facts},
               {f: 'x' if rng.random() < 0.25 else 'n' for f in facts})


def negated_lineage(q, db):
    """The compiled negated lineage, built here from the DNF whatever the
    query, so hierarchical queries can check both routes."""
    dnf = provenance_dnf(q, db)
    formula = CNFFormula.from_lists(dnf.num_vars, [[-1 - v for v, _ in term]
                                                   for term in dnf.terms])
    return compile_dpll(formula, 'most_occurrences')[0]


def test_lineage_route_against_subsets_and_permutations():
    rng = random.Random(61)
    for text in LINEAGE_SHAPES:
        q = parse_cq(text)
        for _ in range(8):
            tid = random_lineage_tid(q, rng, 12)
            facts = tid.db.facts()
            n = len(facts)
            holds = holding_masks(q, facts)
            assert pqe(q, tid) == subset_probability(q, tid)
            assert uniform_reliability(q, tid.db) == len(holds)
            endo = tid.endogenous()
            exo = tid.exogenous()
            seen = {}

            def value(subset):
                key = frozenset(subset)
                if key not in seen:
                    seen[key] = int(query_true_on(q.head, q.atoms, exo + sorted(key)))
                return seen[key]

            values = shapley_all(q, tid)
            assert values == {f: shapley_direct(endo, value, f) for f in endo}
            for target in endo[:2]:
                assert shapley(q, tid, target) == values[target]
            full = int((1 << n) - 1 in holds)
            assert sum(values.values()) == full - value(())
            # the negated lineage gives the same answers on every query
            circuit = negated_lineage(q, tid.db)
            fv = FactVar(tid.db)
            probs = {fv.var_of[f]: tid.prob[f] for f in facts}
            assert 1 - wmc(circuit, WeightMap.from_probabilities(probs)) == pqe(q, tid)
            assert (1 << n) - model_count(circuit) == len(holds)
            assert {f: -v for f, v in _shapley_by_derivative(circuit, 1, tid).items()} == values


def block_tid(rng, num_blocks):
    """Blocks for Q() :- R(x), S(x, y), T(y), each two x and two y values
    joined by three or four S edges, so P(Q) and UR factorise over blocks;
    one fact in five exogenous."""
    blocks = []
    for b in range(num_blocks):
        xs, ys = (f"x{b}_0", f"x{b}_1"), (f"y{b}_0", f"y{b}_1")
        edges = rng.sample([(x, y) for x in xs for y in ys], rng.choice((3, 4)))
        blocks.append([('R', (x,)) for x in xs] + [('S', e) for e in edges]
                      + [('T', (y,)) for y in ys])
    facts = [f for block in blocks for f in block]
    rels = {'R': set(), 'S': set(), 'T': set()}
    for rel, values in facts:
        rels[rel].add(values)
    tid = TID(Database(rels), {f: Fraction(rng.randint(1, 3), 4) for f in facts},
              {f: 'x' if rng.random() < 0.2 else 'n' for f in facts})
    return tid, blocks


def test_lineage_route_on_a_400_fact_block_tid():
    q = parse_cq("Q() :- R(x), S(x, y), T(y).")
    tid, blocks = block_tid(random.Random(67), 50)
    n = len(tid.db.facts())
    assert 370 <= n <= 400
    miss = Fraction(1)
    ur_miss = 1
    for block in blocks:
        sub = TID(Database({rel: {v for r, v in block if r == rel} for rel in 'RST'}),
                  {f: tid.prob[f] for f in block}, {f: tid.kind[f] for f in block})
        miss *= 1 - subset_probability(q, sub)
        ur_miss *= (1 << len(block)) - len(holding_masks(q, block))
    assert pqe(q, tid) == 1 - miss
    assert uniform_reliability(q, tid.db) == (1 << n) - ur_miss

    tid, _ = block_tid(random.Random(71), 13)
    assert 90 <= len(tid.db.facts()) <= 104
    values = shapley_all(q, tid)
    base = query_true_on(q.head, q.atoms, tid.exogenous())
    assert sum(values.values()) == 1 - base


def test_provenance_dnf_on_a_ten_thousand_fact_block_tid():
    # the lineage of R(x), S(x, y), T(y) has one term per S edge
    tid, blocks = block_tid(random.Random(79), 1340)
    facts = tid.db.facts()
    assert 9800 <= len(facts) <= 10_200
    fv = FactVar(tid.db)
    expect = {frozenset({fv.var_of[('R', (x,))], fv.var_of[('S', (x, y))],
                         fv.var_of[('T', (y,))]})
              for block in blocks for rel, (x, *rest) in block if rel == 'S'
              for y in rest}
    dnf = provenance_dnf(parse_cq("Q() :- R(x), S(x, y), T(y)."), tid.db)
    assert dnf.num_vars == len(facts)
    assert {frozenset(v for v, _ in t) for t in dnf.terms} == expect
    assert all(pol for t in dnf.terms for _, pol in t)


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
