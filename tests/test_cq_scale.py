"""Compiled CQ answers against a hash join at thousands of facts per relation.

The join key is Zipf-skewed, so a few keys join hundreds of facts in every
relation and the branch intersection meets slices of very different widths.
The queries that are not free-connex run on uniform random relations.
"""

import random
from itertools import accumulate

import pytest

from kcomp.cq import (Database, answer_access, answer_count, answer_enum,
                      compile_cq, parse_cq)
from kcomp.relational import count_rel, direct_access, enumerate_rel

from oracles import hash_join_answers

FACTS = 10_000


def zipf_database(rng, facts_per_rel, keys, skew=0.7):
    """R(x, y), S(y, z), T(y, w) whose key y is drawn with weight 1/(k+1)^skew."""
    cum = list(accumulate(1.0 / (k + 1) ** skew for k in range(keys)))
    rels = {}
    for rel in 'RST':
        facts = set()
        while len(facts) < facts_per_rel:
            key = rng.choices(range(keys), cum_weights=cum)[0]
            other = rng.randrange(8 * facts_per_rel)
            facts.add((other, key) if rel == 'R' else (key, other))
        rels[rel] = facts
    return Database(rels)


@pytest.fixture(scope="module")
def zipf_db():
    return zipf_database(random.Random(2024), FACTS, keys=FACTS // 2)


@pytest.mark.parametrize("text", ["Q(x, y, z) :- R(x, y), S(y, z).",
                                  "Q(x, y) :- R(x, y), S(y, z), T(y, w)."])
def test_zipf_queries_match_hash_join(zipf_db, text):
    q = parse_cq(text)
    c = compile_cq(q, zipf_db)
    assert c.attrs == q.head
    expect = sorted(hash_join_answers(q.head, q.atoms, zipf_db.relations))
    assert len(expect) > 5000
    assert count_rel(c) == len(expect)
    assert [tuple(t[v] for v in q.head) for t in enumerate_rel(c)] == expect
    rng = random.Random(len(expect))
    for rank in rng.sample(range(1, len(expect) + 1), 1000):
        assert tuple(direct_access(c, rank)[v] for v in q.head) == expect[rank - 1]


@pytest.fixture(scope="module")
def uniform_db():
    """R, S and T with 3000 random pairs each over 300 values."""
    rng = random.Random(3)
    rels = {}
    for rel in 'RST':
        facts = set()
        while len(facts) < 3000:
            facts.add((rng.randrange(300), rng.randrange(300)))
        rels[rel] = facts
    return Database(rels)


@pytest.mark.parametrize("text", ["Q(x, y, z) :- R(x, y), S(y, z), T(z, x).",
                                  "Q(x, z) :- R(x, y), S(y, z)."])
def test_not_free_connex_answers_match_hash_join(uniform_db, text):
    q = parse_cq(text)
    expect = sorted(hash_join_answers(q.head, q.atoms, uniform_db.relations))
    assert len(expect) > 200
    assert answer_count(q, uniform_db) == len(expect)
    assert [tuple(a[v] for v in q.head) for a in answer_enum(q, uniform_db)] == expect
    rank = len(expect) // 2
    assert tuple(answer_access(q, uniform_db, rank)[v] for v in q.head) \
        == expect[rank - 1]
