"""Compiled CQ answers against a hash join at ten thousand facts per relation.

The join key is Zipf-skewed, so a few keys join hundreds of facts in every
relation and the branch intersection meets slices of very different widths.
"""

import random
from itertools import accumulate

import pytest

from kcomp.cq import Database, compile_cq, parse_cq
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
