import random
import warnings

import pytest

from kcomp import cq as cq_module
from kcomp.cq import (ConjunctiveQuery, Database, answer_access, answer_count,
                      answer_enum, compile_cq, domain_sort_key,
                      elimination_order, is_acyclic, is_free_connex, join_tree,
                      parse_cq)
from kcomp.errors import (ArityMismatch, NotFreeConnex, OrderMissingVariables,
                          OutOfRange, QuerySyntaxError, UnboundHeadVariable,
                          UnknownRelation)
from kcomp.relational import (classify_rel, count_rel, direct_access,
                              enumerate_rel)

from oracles import _recursion_limit_near_current_depth, join_answers


# -- parsing ---------------------------------------------------------------------

def test_parse_simple():
    q = parse_cq("Q(x) :- R(x, y).")
    assert q.head == ('x',)
    assert q.atoms == (('R', ('x', 'y')),)


def test_parse_boolean_two_atoms():
    q = parse_cq("Q() :- R(x), S(y).")
    assert q.head == ()
    assert q.atoms == (('R', ('x',)), ('S', ('y',)))
    assert q.self_join_free


def test_parse_unbound_head():
    with pytest.raises(UnboundHeadVariable):
        parse_cq("Q(z) :- R(x).")


def test_parse_errors():
    with pytest.raises(QuerySyntaxError):
        parse_cq("R(x), S(y)")
    with pytest.raises(QuerySyntaxError):
        parse_cq("Q(x) :- R(x,, y).")
    with pytest.raises(ArityMismatch):
        parse_cq("Q() :- R(x), R(x, y).")


def test_parse_self_join_flag():
    assert not parse_cq("Q() :- R(x, y), R(y, z).").self_join_free


# -- acyclicity -------------------------------------------------------------------

def test_path_query_acyclic():
    assert is_acyclic(parse_cq("Q() :- R(x, y), S(y, z)."))


def test_triangle_cyclic():
    q = parse_cq("Q() :- R(x, y), S(y, z), T(z, x).")
    assert not is_acyclic(q)
    assert join_tree(q) is None


def test_single_atom_acyclic():
    q = parse_cq("Q(x) :- R(x, x).")
    assert is_acyclic(q)
    assert join_tree(q) is not None


def test_join_tree_running_intersection():
    q = parse_cq("Q() :- R(x, y), S(y, z), T(z, w), U(y).")
    tree = join_tree(q)
    assert tree is not None
    assert sorted(tree.bfs_order()) == [0, 1, 2, 3]


# -- free-connexity ------------------------------------------------------------------

def test_free_connex_cases():
    assert is_free_connex(parse_cq("Q(x, y) :- R(x, y), S(y)."))
    # acyclic, but the head atom over {x, z} closes a cycle
    assert not is_free_connex(parse_cq("Q(x, z) :- R(x, y), S(y, z)."))
    assert is_free_connex(parse_cq("Q() :- R(x, y), S(y, z)."))
    assert not is_free_connex(parse_cq("Q() :- R(x, y), S(y, z), T(z, x)."))


def test_elimination_order_free_prefix():
    q = parse_cq("Q(x, y) :- R(x, y), S(y, z).")
    order = elimination_order(q)
    assert order[:2] == ['x', 'y']
    assert set(order) == {'x', 'y', 'z'}


def test_elimination_order_not_free_connex():
    with pytest.raises(NotFreeConnex):
        elimination_order(parse_cq("Q(x, z) :- R(x, y), S(y, z)."))


# -- compilation ------------------------------------------------------------------------

def db_from(facts):
    rels = {}
    for rel, values in facts:
        rels.setdefault(rel, set()).add(tuple(values))
    return Database(rels)


def test_compile_basic_join():
    q = parse_cq("Q(x, y) :- R(x, y), S(y).")
    db = db_from([('R', 'ab'), ('R', 'ac'), ('S', 'b')])
    c = compile_cq(q, db)
    rep = classify_rel(c)
    assert rep.decision_only and rep.decomposable
    assert rep.ordered_witness is not None
    assert count_rel(c) == 1
    assert [t for t in enumerate_rel(c)] == [{'x': 'a', 'y': 'b'}]


def test_compile_empty_relation():
    q = parse_cq("Q(x, y) :- R(x, y), S(y).")
    db = Database({'R': set(), 'S': {('b',)}})
    c = compile_cq(q, db)
    assert count_rel(c) == 0


def test_compile_boolean_query():
    q = parse_cq("Q() :- R(x), S(y).")
    db = db_from([('R', 'a'), ('R', 'b'), ('S', 'c')])
    c = compile_cq(q, db)
    assert c.attrs == ()
    assert count_rel(c) == 1
    db2 = Database({'R': set(), 'S': {('c',)}})
    assert count_rel(compile_cq(q, db2)) == 0


def test_compile_unknown_relation():
    q = parse_cq("Q() :- R(x).")
    with pytest.raises(UnknownRelation):
        compile_cq(q, Database({'S': {('a',)}}))


def test_compile_order_validation():
    q = parse_cq("Q(x) :- R(x, y).")
    db = db_from([('R', 'ab')])
    with pytest.raises(OrderMissingVariables):
        compile_cq(q, db, order=['x'])
    with pytest.raises(OrderMissingVariables):
        compile_cq(q, db, order=['y', 'x'])


def test_compile_self_join():
    q = parse_cq("Q(x) :- R(x, y), R(y, x).")
    db = db_from([('R', 'ab'), ('R', 'ba'), ('R', 'ac')])
    c = compile_cq(q, db)
    answers = {t['x'] for t in enumerate_rel(c)}
    assert answers == {'a', 'b'}


def test_compile_repeated_variable_in_atom():
    q = parse_cq("Q(x) :- R(x, x).")
    db = db_from([('R', 'aa'), ('R', 'ab'), ('R', 'bb')])
    c = compile_cq(q, db)
    assert {t['x'] for t in enumerate_rel(c)} == {'a', 'b'}


def test_compile_non_free_connex_warns_but_correct():
    q = parse_cq("Q(x, z) :- R(x, y), S(y, z).")
    db = db_from([('R', 'ab'), ('R', 'cb'), ('S', 'bd'), ('S', 'be')])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        c = compile_cq(q, db)
    assert any("free-connex" in str(w.message) for w in caught)
    got = {(t['x'], t['z']) for t in enumerate_rel(c)}
    assert got == {('a', 'd'), ('a', 'e'), ('c', 'd'), ('c', 'e')}


# -- answers against the oracle ------------------------------------------------------------

def random_free_connex_query(rng):
    """Rejection-sample small queries that are free-connex acyclic."""
    while True:
        num_atoms = rng.randint(1, 3)
        pool = ['x', 'y', 'z', 'w', 'u']
        atoms = []
        used = []
        for i in range(num_atoms):
            arity = rng.randint(1, 3)
            vs = tuple(rng.choice(pool) for _ in range(arity))
            atoms.append((f"R{i}", vs))
            used.extend(vs)
        head_pool = sorted(set(used))
        head = tuple(v for v in head_pool if rng.random() < 0.5)
        q = ConjunctiveQuery(head, tuple(atoms))
        if is_free_connex(q):
            return q


def random_db_for(q, rng, size):
    rels = {}
    for rel, vs in q.atoms:
        rels.setdefault(rel, set())
        for _ in range(size):
            rels[rel].add(tuple(str(rng.randint(0, 4)) for _ in vs))
    return Database(rels)


def test_answers_match_oracle_randomly():
    rng = random.Random(77)
    for _ in range(30):
        q = random_free_connex_query(rng)
        db = random_db_for(q, rng, rng.randint(1, 15))
        facts_by_rel = {rel: sorted(fs) for rel, fs in db.relations.items()}
        expect = join_answers(q.head, q.atoms, facts_by_rel)
        got = {tuple(t[v] for v in q.head) for t in answer_enum(q, db)}
        assert got == expect
        assert answer_count(q, db) == len(expect)
        expect_sorted = sorted(expect)
        for i in (1, len(expect)):
            if expect:
                assert tuple(answer_access(q, db, i)[v] for v in q.head) \
                    == expect_sorted[i - 1]


def test_answer_access_full_scan_matches_sorted_oracle():
    rng = random.Random(5)
    q = parse_cq("Q(x, y) :- R(x, y), S(y).")
    rels = {'R': set(), 'S': set()}
    for _ in range(40):
        rels['R'].add((str(rng.randint(0, 8)), str(rng.randint(0, 5))))
    for _ in range(8):
        rels['S'].add((str(rng.randint(0, 5)),))
    db = Database(rels)
    expect = sorted(join_answers(q.head, q.atoms,
                                 {r: sorted(f) for r, f in db.relations.items()}))
    got = [tuple(answer_access(q, db, i)[v] for v in q.head)
           for i in range(1, answer_count(q, db) + 1)]
    assert got == expect
    with pytest.raises(OutOfRange):
        answer_access(q, db, len(expect) + 1)


def test_query_holds():
    q = parse_cq("Q() :- R(x), S(x, y).")
    assert answer_count(q, db_from([('R', 'a'), ('S', 'ab')])) == 1
    assert answer_count(q, db_from([('R', 'a'), ('S', 'cb')])) == 0


NOT_FREE_CONNEX = (
    "Q(x, z) :- R(x, y), S(y, z).",
    "Q(z, x) :- R(x, y), S(y, z).",
    "Q(x, y, z) :- R(x, y), S(y, z), T(z, x).",
    "Q(x) :- R(x, y), S(y, z), T(z, x).",
    "Q() :- R(x, y), S(y, z), T(z, x).",
    "Q(x, z, x) :- R(x, y), S(y, z).",
    "Q(y, y) :- R(x, y), S(y, z), T(z, x).",
    "Q(x, z) :- R(x, y), R(y, z).",
)


@pytest.mark.parametrize("text", NOT_FREE_CONNEX)
def test_answers_not_free_connex_match_oracle_in_order(text):
    q = parse_cq(text)
    assert not is_free_connex(q)
    rng = random.Random(text)
    for size in (0, 3, 8, 20):
        rels = {rel: {(rng.randrange(5), rng.randrange(5)) for _ in range(size)}
                for rel in 'RST'}
        db = Database(rels)
        expect = sorted_answers(q, db)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert answer_count(q, db) == len(expect)
            got = [tuple(a[v] for v in q.head) for a in answer_enum(q, db)]
            assert got == expect
            for i in range(1, len(expect) + 1):
                assert tuple(answer_access(q, db, i)[v] for v in q.head) == expect[i - 1]
        with pytest.raises(OutOfRange):
            answer_access(q, db, len(expect) + 1)
    # disjoint join keys: no answer at all
    db = Database({'R': {(0, 1)}, 'S': {(2, 3)}, 'T': {(3, 0)}})
    assert answer_count(q, db) == 0 and list(answer_enum(q, db)) == []


def test_compile_size_linear_for_path_query():
    q = parse_cq("Q(x, y) :- R(x, y), S(y).")
    rng = random.Random(123)
    sizes = []
    for n in (500, 1000, 2000):
        rels = {'R': set(), 'S': set()}
        while len(rels['R']) < n:
            rels['R'].add((f"k{rng.randint(0, n // 5)}", f"v{rng.randint(0, 40)}"))
        for y in range(0, 40, 2):
            rels['S'].add((f"v{y}",))
        c = compile_cq(q, Database(rels))
        sizes.append(c.size)
    assert sizes[1] <= 2.5 * sizes[0]
    assert sizes[2] <= 2.5 * sizes[1]


def test_database_tsv_round_trip():
    text = "R\ta\tb\nR\ta\tc\nS\tb\n"
    db = Database.from_tsv(text)
    assert db.relations['R'] == {('a', 'b'), ('a', 'c')}
    assert db.relations['S'] == {('b',)}
    assert db.active_domain == ['a', 'b', 'c']
    with pytest.raises(QuerySyntaxError):
        Database.from_tsv("justonefield\n")


def test_database_relations_are_read_only():
    db = Database({'R': {('a', 'b')}, 'S': [('b',)]})
    assert isinstance(db.relations['R'], frozenset)
    with pytest.raises(AttributeError):
        db.relations['R'].add(('c', 'd'))
    with pytest.raises(TypeError):
        db.relations['R'] = {('c', 'd')}
    with pytest.raises(TypeError):
        db.relations['T'] = frozenset()
    with pytest.raises(TypeError):
        db.arity['R'] = 3
    for name in ('relations', 'arity', 'active_domain', 'other'):
        with pytest.raises(AttributeError):
            setattr(db, name, {})
    with pytest.raises(AttributeError):
        del db.relations
    # the domain and fact lists handed out are copies
    db.active_domain.append('z')
    db.facts().append(('T', ('z',)))
    assert db.active_domain == ['a', 'b']
    assert db.facts() == [('R', ('a', 'b')), ('S', ('b',))]
    q = parse_cq("Q(x, y) :- R(x, y).")
    assert list(enumerate_rel(compile_cq(q, db))) == [{'x': 'a', 'y': 'b'}]


def count_calls(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that records the arguments of
    each call in the returned list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize('text, calls_per_compile', [
    ("Q(x, y) :- R(x, y), S(y, z).", 1),     # free-connex: compiled directly
    ("Q(x, z) :- R(x, y), S(y, z).", 2),     # full join, then the projection
], ids=['free_connex', 'projected'])
def test_one_compile_answers_circuit_serves_every_answer_task(monkeypatch, text,
                                                             calls_per_compile):
    q = parse_cq(text)
    db = Database({'R': {('a', 'b'), ('a', 'c'), ('d', 'b')},
                   'S': {('b', 'e'), ('c', 'e'), ('c', 'f')}})
    expect = sorted(join_answers(q.head, q.atoms, db.relations))
    calls = count_calls(monkeypatch, cq_module, 'compile_cq')
    circuit = cq_module.compile_answers(q, db)
    assert len(calls) == calls_per_compile
    assert count_rel(circuit) == len(expect)
    assert [tuple(t[v] for v in q.head) for t in enumerate_rel(circuit)] == expect
    assert [tuple(direct_access(circuit, i)[v] for v in q.head)
            for i in range(1, len(expect) + 1)] == expect
    assert len(calls) == calls_per_compile
    # the answer_* tasks agree, each compiling anew: the database caches nothing
    assert answer_count(q, db) == len(expect)
    assert [tuple(a[v] for v in q.head) for a in answer_enum(q, db)] == expect
    accessed = [answer_access(q, db, i) for i in range(1, len(expect) + 1)]
    assert [tuple(a[v] for v in q.head) for a in accessed] == expect
    assert len(calls) == (3 + len(expect)) * calls_per_compile


def test_compiled_circuits_always_certify():
    rng = random.Random(91)
    for _ in range(20):
        q = random_free_connex_query(rng)
        db = random_db_for(q, rng, rng.randint(1, 12))
        c = compile_cq(q, db)
        rep = classify_rel(c)
        assert rep.decomposable and rep.decision_only
        assert rep.ordered_witness is not None


def test_database_per_relation_files(tmp_path):
    (tmp_path / "R.tsv").write_text("a\tb\na\tc\n")
    (tmp_path / "S.tsv").write_text("b\n")
    (tmp_path / "Empty.tsv").write_text("")
    db = Database.from_tsv_dir(str(tmp_path))
    assert db.relations['R'] == {('a', 'b'), ('a', 'c')}
    assert db.relations['S'] == {('b',)}
    assert db.relations['Empty'] == set()
    q = parse_cq("Q(x, y) :- R(x, y), S(y).")
    assert answer_count(q, db) == 1
    empty_dir = tmp_path / "nothing"
    empty_dir.mkdir()
    with pytest.raises(QuerySyntaxError):
        Database.from_tsv_dir(str(empty_dir))


def test_elimination_order_gives_small_circuits():
    rng = random.Random(100)
    q = parse_cq("Q(x, y) :- R(x, y), S(y).")
    rels = {'R': set(), 'S': set()}
    while len(rels['R']) < 100:
        rels['R'].add((str(rng.randint(0, 20)), str(rng.randint(0, 9))))
    rels['S'] = {(str(y),) for y in range(0, 10, 2)}
    db = Database(rels)
    c = compile_cq(q, db, order=elimination_order(q))
    total_facts = sum(len(f) for f in db.relations.values())
    assert c.size <= 5 * (total_facts + 1)


# -- branch intersection and rank-encoded keys --------------------------------------------

def sorted_answers(q, db):
    """The backtracking join's answers, in lexicographic head order."""
    return sorted(join_answers(q.head, q.atoms, db.relations),
                  key=lambda t: tuple(domain_sort_key(v) for v in t))


def assert_matches_oracle(q, db, order=None):
    """Count, enumeration order and every rank agree with the backtracking join."""
    c = compile_cq(q, db, order)
    expect = sorted_answers(q, db)
    assert count_rel(c) == len(expect)
    assert [tuple(t[v] for v in q.head) for t in enumerate_rel(c)] == expect
    for i in range(1, len(expect) + 1):
        assert tuple(direct_access(c, i)[v] for v in q.head) == expect[i - 1]
    return c


def test_compile_mixed_type_values_match_materialize():
    db = Database({'R': {(1, 'a'), ('b', 'a')}, 'S': {('a', 1)}})
    c = assert_matches_oracle(parse_cq("Q(x, y, z) :- R(x, y), S(y, z)."), db)
    assert c.domains[0] == (1, 'b')
    rng = random.Random(8)
    pool = [0, 1, 2, 10, 'a', 'b', '10', 2.5]
    for _ in range(20):
        rels = {rel: {(rng.choice(pool), rng.choice(pool)) for _ in range(12)}
                for rel in 'RST'}
        db = Database(rels)
        for text in ("Q(x, y, z) :- R(x, y), S(y, z).",
                     "Q(x, y) :- R(x, y), S(y, z), T(y, w).",
                     "Q(y) :- R(x, y), S(y, y).",
                     "Q(x, y) :- R(x, y), S(y, z), T(z, x)."):
            assert_matches_oracle_in_order(text, db, 'derived')


def assert_matches_oracle_in_order(text, db, existentials):
    """`assert_matches_oracle` on the compile order made of the head, then
    the existential variables in the derived order (first appearance when
    the query is not free-connex), or by first appearance, reversed or
    rotated by one."""
    q = parse_cq(text)
    if existentials == 'derived' and is_free_connex(q):
        return assert_matches_oracle(q, db, elimination_order(q))
    rest = q.existential_variables()
    if existentials == 'reversed':
        rest = rest[::-1]
    elif existentials == 'rotated':
        rest = rest[1:] + rest[:1]
    return assert_matches_oracle(q, db, list(dict.fromkeys(q.head)) + rest)


# the orders move which atom decides each variable first and which slice is
# narrowest.  On acyclic queries the semijoin reduction equalises the key
# sets of the atoms before any seek can miss; the cyclic queries, which
# skip it, are the ones whose seeks miss
COMPILE_OPTIONS = [{'existentials': e}
                   for e in ('derived', 'appearance', 'reversed', 'rotated')]


@pytest.mark.parametrize("options", COMPILE_OPTIONS)
def test_intersection_three_atoms_narrowest_not_first(options):
    # T decides y with the narrowest slice at the root; after x is fixed,
    # R's slice is the narrowest of the three
    rng = random.Random(21)
    rels = {'R': {(rng.randrange(30), rng.randrange(60)) for _ in range(300)},
            'S': {(rng.randrange(60), rng.randrange(5)) for _ in range(120)},
            'T': {(y, 0) for y in range(0, 60, 7)}}
    db = Database(rels)
    for text in ("Q(y) :- R(x, y), S(y, z), T(y, w).",
                 "Q(x, y) :- R(x, y), S(y, z), T(y, w).",
                 "Q(y) :- R(x, y), S(y, z), T(z, w), R(w, x)."):
        assert_matches_oracle_in_order(text, db, **options)


@pytest.mark.parametrize("options", COMPILE_OPTIONS)
def test_intersection_random_slices(options):
    # key sets of different densities: a seek that misses often lands on a
    # value that the narrowest slice also holds
    rng = random.Random(33)
    for _ in range(40):
        rels = {rel: {(x, y) for x in range(3) for y in range(16)
                      if rng.random() < density}
                for rel, density in zip('RST', rng.sample([0.2, 0.5, 0.8], 3))}
        db = Database(rels)
        for text in ("Q(y) :- R(x, y), S(y, z), T(y, w).",
                     "Q(x, y) :- R(x, y), S(y, z), T(y, w).",
                     "Q(y, z) :- R(y, z), S(y, z), T(y, z).",
                     "Q(x) :- R(x, y), S(y, z), T(x, z).",
                     "Q() :- R(x, y), S(z, y), T(x, z)."):
            assert_matches_oracle_in_order(text, db, **options)


@pytest.mark.parametrize("options", COMPILE_OPTIONS)
def test_intersection_empty(options):
    # interleaved but disjoint join keys: every seek on y misses.  The
    # acyclic query is emptied by the semijoin reduction, the cyclic one
    # by the seeks of the intersection
    db = Database({'R': {(x, y) for x in range(3) for y in range(0, 40, 2)},
                   'S': {(y, 0) for y in range(1, 40, 2)},
                   'T': {(y, 0) for y in range(40)}})
    for text in ("Q(x, y) :- R(x, y), S(y, z), T(y, w).",
                 "Q(x, y) :- R(x, y), S(y, z), T(z, x)."):
        assert count_rel(assert_matches_oracle_in_order(text, db, **options)) == 0
    # each pair of atoms meets, the three never do
    db = Database({'R': {(0, y) for y in (1, 2)}, 'S': {(y, 0) for y in (2, 3)},
                   'T': {(y, 0) for y in (1, 3)}})
    text = "Q(x, y) :- R(x, y), S(y, z), T(y, w)."
    assert count_rel(assert_matches_oracle_in_order(text, db, **options)) == 0


@pytest.mark.parametrize("options", COMPILE_OPTIONS)
def test_intersection_repeated_variable(options):
    db = Database({'R': {(a, b) for a in range(6) for b in range(6)
                         if (a * b) % 4 != 1},
                   'S': {(a, a + 1) for a in range(0, 6, 2)} | {(3, 3)}})
    for text in ("Q(x) :- R(x, x).",
                 "Q(x, y) :- R(x, x), S(x, y).",
                 "Q(x) :- S(x, y), R(y, y).",
                 "Q(x) :- R(x, y), S(y, z), R(z, x)."):
        assert_matches_oracle_in_order(text, db, **options)


@pytest.mark.parametrize("reverse", [True, False])
def test_boolean_exists_stops_at_first_witness(reverse, monkeypatch):
    # whichever end of the path the existential test branches on first
    q = parse_cq("Q() :- R(x, y), S(y, z).")
    order = ['z', 'y', 'x'] if reverse else None
    db = Database({'R': {(x, 'k') for x in range(2000)},
                   'S': {('k', z) for z in range(2000)}})
    seeks = []
    upper = cq_module._upper_bound

    def counting_upper_bound(*args):
        seeks.append(args)
        return upper(*args)

    monkeypatch.setattr(cq_module, '_upper_bound', counting_upper_bound)
    c = compile_cq(q, db, order)
    assert count_rel(c) == 1
    assert len(seeks) < 10
    db = Database({'R': db.relations['R'], 'S': {('j', z) for z in range(2000)}})
    assert count_rel(compile_cq(q, db, order)) == 0


def test_long_path_query_compiles_without_recursion():
    # R(x0, x1), ..., R(x59, x60) over the cycle a -> b -> c -> a, with the
    # exit c -> d -> e: a walk leaves the cycle only in its last two steps
    n = 60
    edges = {('a', 'b'), ('b', 'c'), ('c', 'a'), ('c', 'd'), ('d', 'e')}
    db = Database({'R': edges})
    body = ", ".join(f"R(x{i}, x{i + 1})" for i in range(n))
    walks = {v: 1 for v in 'abcde'}     # walks of k edges from each vertex
    for _ in range(n):
        walks = {v: sum(walks[w] for u, w in edges if u == v) for v in 'abcde'}
    every = ", ".join(f"x{i}" for i in range(n + 1))
    with _recursion_limit_near_current_depth(margin=40):
        full = compile_cq(parse_cq(f"Q({every}) :- {body}."), db)
    with _recursion_limit_near_current_depth(margin=40):
        starts = compile_cq(parse_cq(f"Q(x0) :- {body}."), db)
    assert count_rel(full) == sum(walks.values())
    assert [t['x0'] for t in enumerate_rel(starts)] == [v for v in 'abcde' if walks[v]]
