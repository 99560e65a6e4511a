import hashlib
import random
from fractions import Fraction

import pytest

import kcomp.cnf
from kcomp._dag import components
from kcomp.circuits import classify, smooth
from kcomp.cnf import (CNFFormula, compile_dpll, parse_dimacs, HEURISTICS,
                       _mask)
from kcomp.cq import Database, parse_cq
from kcomp.errors import (ClauseCountMismatch, LiteralOutOfRange,
                          MalformedHeader)
from kcomp.nnf_io import write_nnf
from kcomp.provenance import TID, pqe
from kcomp.queries import model_count

from oracles import (_recursion_limit_near_current_depth, clause_components,
                     cnf_models, compile_dpll_reference, models_of,
                     verify_equivalence)


def random_cnf(rng, num_vars, num_clauses):
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, 3)
        vs = rng.sample(range(1, num_vars + 1), min(width, num_vars))
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return CNFFormula.from_lists(num_vars, clauses)


# -- parsing -------------------------------------------------------------------

def test_parse_basic():
    f = parse_dimacs("p cnf 2 2\n1 2 0\n-1 2 0\n")
    assert f.num_vars == 2
    assert set(f.clauses) == {frozenset({1, 2}), frozenset({-1, 2})}


def test_parse_tautology_no_clauses():
    f = parse_dimacs("p cnf 1 0\n")
    assert f.num_vars == 1 and f.clauses == ()


def test_parse_clause_count_mismatch():
    with pytest.raises(ClauseCountMismatch):
        parse_dimacs("p cnf 3 3\n1 0\n2 0\n")


def test_parse_comments_and_multiline_clauses():
    f = parse_dimacs("c hello\np cnf 3 1\n1 2\n3 0\n")
    assert f.clauses == (frozenset({1, 2, 3}),)


def test_parse_bad_header_and_literals():
    with pytest.raises(MalformedHeader):
        parse_dimacs("p dnf 2 1\n1 0\n")
    with pytest.raises(MalformedHeader):
        parse_dimacs("1 2 0\n")
    with pytest.raises(LiteralOutOfRange):
        parse_dimacs("p cnf 2 1\n3 0\n")


# -- compilation ----------------------------------------------------------------

def test_compile_two_clauses():
    f = CNFFormula.from_lists(2, [[1, 2], [-1, 2]])
    circuit, _ = compile_dpll(f)
    rep = classify(circuit)
    assert rep.is_decomposable and rep.all_or_decision
    assert model_count(smooth(circuit)) == 2


def test_compile_contradiction_is_false_constant():
    f = CNFFormula.from_lists(1, [[1], [-1]])
    circuit, _ = compile_dpll(f)
    assert circuit.nodes == (('F',),)


def test_compile_component_split():
    f = CNFFormula.from_lists(4, [[1, 2], [3, 4]])
    circuit, stats = compile_dpll(f)
    assert stats.component_splits >= 1
    root = circuit.nodes[circuit.output]
    assert root[0] == 'A' and len(root[1]) == 2
    assert model_count(smooth(circuit)) == 9


def test_compile_output_always_certifies(subtests=None):
    rng = random.Random(2)
    for heuristic in HEURISTICS:
        for _ in range(10):
            f = random_cnf(rng, rng.randint(1, 8), rng.randint(1, 12))
            circuit, _ = compile_dpll(f, heuristic=heuristic)
            rep = classify(circuit)
            assert rep.is_decomposable and rep.all_or_decision
            assert models_of(circuit) == cnf_models(f.num_vars, f.clauses)


def test_compile_smoothed_count_matches_brute_force():
    rng = random.Random(8)
    for _ in range(15):
        f = random_cnf(rng, rng.randint(1, 10), rng.randint(1, 20))
        circuit, _ = compile_dpll(f)
        assert model_count(smooth(circuit)) == len(cnf_models(f.num_vars, f.clauses))


def test_cache_on_off_equivalent():
    rng = random.Random(21)
    for _ in range(10):
        f = random_cnf(rng, rng.randint(2, 8), rng.randint(2, 14))
        with_cache, stats = compile_dpll(f, use_cache=True)
        without, _ = compile_dpll(f, use_cache=False)
        assert models_of(with_cache) == models_of(without)
        assert stats.peak_cache_entries >= 0


@pytest.mark.parametrize('clauses', [[[1], [2]], [[1, 2]]])
def test_unknown_heuristic_is_refused_before_the_search(clauses):
    # the first formula propagates to the end and never reaches a decision
    with pytest.raises(ValueError, match='bogus'):
        compile_dpll(CNFFormula.from_lists(2, clauses), heuristic='bogus')


def test_unit_propagation_recorded_as_decisions():
    f = CNFFormula.from_lists(2, [[1], [1, 2]])
    circuit, stats = compile_dpll(f)
    rep = classify(circuit)
    assert rep.all_or_decision
    assert model_count(smooth(circuit)) == 2


# -- verification ------------------------------------------------------------------

def test_verify_compiled_circuits():
    rng = random.Random(4)
    for _ in range(10):
        f = random_cnf(rng, 8, rng.randint(4, 16))
        circuit, _ = compile_dpll(f)
        assert verify_equivalence(f, circuit).status == 'equivalent'


def test_verify_detects_corruption():
    f = CNFFormula.from_lists(2, [[1, 2]])
    wrong, _ = compile_dpll(CNFFormula.from_lists(2, [[1, -2]]))
    verdict = verify_equivalence(f, wrong)
    assert verdict.status == 'differs'
    assert verdict.witness is not None


def test_verify_cap():
    f = CNFFormula.from_lists(30, [[1]])
    circuit, _ = compile_dpll(f)
    assert verify_equivalence(f, circuit, max_vars=20).status == 'unknown'


def test_verify_zero_variables():
    f = CNFFormula.from_lists(0, [])
    circuit, _ = compile_dpll(f)
    assert verify_equivalence(f, circuit).status == 'equivalent'


def test_components_match_union_find_reference():
    rng = random.Random(47)
    several = 0
    for _ in range(400):
        # variable blocks of random sizes; each clause stays in one block
        # unless a rare bridge clause joins two of them
        num_vars = rng.randint(1, 40)
        order = rng.sample(range(1, num_vars + 1), num_vars)
        cuts = sorted(rng.sample(range(1, num_vars), rng.randint(0, min(5, num_vars - 1))))
        blocks = [order[a:b] for a, b in zip([0] + cuts, cuts + [num_vars])]
        clauses = []
        for _ in range(rng.randint(1, 3 * num_vars)):
            if len(blocks) > 1 and rng.random() < 0.03:
                vs = [rng.choice(blk) for blk in rng.sample(blocks, 2)]
            else:
                blk = rng.choice(blocks)
                vs = rng.sample(blk, rng.randint(1, min(3, len(blk))))
            clauses.append(frozenset(v if rng.random() < 0.5 else -v for v in vs))
        got = components(clauses, [_mask(c) for c in clauses])
        assert got == clause_components(clauses)
        several += len(got) > 1
    assert several > 200


# -- pinned output -----------------------------------------------------------------
#
# SHA-256 of `write_nnf` plus the four `CompileStats` fields, under every
# heuristic with the cache on and off, recorded before the compiler was
# rewritten as an explicit-stack search.  The same search must build the
# same circuit node for node.

def banded_cnf(rng, num_vars, per_window=2, width=6):
    clauses = []
    for start in range(1, num_vars - width + 2):
        for _ in range(per_window):
            vs = rng.sample(range(start, start + width), 3)
            clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return CNFFormula.from_lists(num_vars, clauses)


def _pinned_corpus():
    """Case name -> (formulas, cache settings); without the cache the
    search on a banded formula grows exponentially, so the 40-variable one
    runs with the cache only."""
    both = (True, False)
    rng = random.Random(31)
    randoms = [random_cnf(rng, rng.randint(1, 16), rng.randint(1, 40)) for _ in range(120)]
    return {
        'random': (randoms, both),
        'banded': ([banded_cnf(random.Random(5), 40)], (True,)),
        'banded_small': ([banded_cnf(random.Random(6), 18)], both),
        'empty': ([CNFFormula.from_lists(0, []), CNFFormula.from_lists(3, [])], both),
        'empty_clause': ([CNFFormula.from_lists(2, [[1, 2], []])], both),
        'unsat': ([CNFFormula.from_lists(1, [[1], [-1]]),
                   CNFFormula.from_lists(3, [[1, 2], [1, -2], [-1, 3], [-1, -3]])], both),
        'unit': ([CNFFormula.from_lists(3, [[2]]),
                  CNFFormula.from_lists(4, [[3, 4], [-1], [1, 2, -4], [2]])], both),
        'tautology': ([CNFFormula.from_lists(3, [[1, -1], [2, 3]]),
                       CNFFormula.from_lists(3, [[1, -1, 2], [-2, 3], [1, -3]])], both),
        # both branches on x1 leave the clause (2 3), once and twice
        'duplicates': ([CNFFormula.from_lists(4, [[1, 2, 3], [2, 3], [-1, 4]]),
                        CNFFormula.from_lists(3, [[1, 2], [1, 2], [-1, 3], [-1, 3]])], both),
    }


def _fingerprint(formulas, caches):
    h = hashlib.sha256()
    for heuristic in HEURISTICS:
        for use_cache in caches:
            for f in formulas:
                circuit, s = compile_dpll(f, heuristic=heuristic, use_cache=use_cache)
                h.update(write_nnf(circuit).encode())
                h.update(f"{s.decision_count} {s.cache_hits} {s.component_splits} "
                         f"{s.peak_cache_entries}\n".encode())
    return h.hexdigest()


PINNED = {
    'banded': '7ae4d854592af12b5c8635d91d75af26ed75f666616ce457c5692319d560f127',
    'banded_small': 'e1314dd0ba6b0f9c49fbd7aac314d19ca95eba7b9ac34cc1e0871026d707e57b',
    'duplicates': 'ff938670350151ae98d973d09b9781674000996ecdf4fbe2c3f98148af55d1e2',
    'empty': 'd93ac4f9cf5a80e9fd1b9282e4d291efb7ef3a95538bed4cc751bdf5de19cfd7',
    'empty_clause': '672e18f58cb8e19cff495aeaa986902e5f2a2b1b5fff3bfdee8f3ac038971962',
    'random': 'c86a28fd180d61396a423fa26b87b1abe86de5ad406cbf0e5b1428bb81d2e5e0',
    'tautology': 'beb9cee743726545aaac14be93f709fde80a91f6a393aa95c41962cdd865168f',
    'unit': '7722929c4943ddec9b99d521a1340660ae1441bd64f7fba6f2273858ba6f8ad6',
    'unsat': 'c40279b210675db6619524e75af104988db1e5c7b26a4140515729b745970d92',
}


@pytest.mark.parametrize('case', sorted(PINNED))
def test_compile_output_is_pinned(case):
    assert _fingerprint(*_pinned_corpus()[case]) == PINNED[case]


def test_duplicate_clauses_keep_the_cache_key_a_multiset():
    f = CNFFormula.from_lists(4, [[1, 2, 3], [2, 3], [-1, 4]])
    circuit, stats = compile_dpll(f)
    assert stats.cache_hits == 0 and stats.peak_cache_entries == 3
    assert model_count(smooth(circuit)) == len(cnf_models(f.num_vars, f.clauses))


# -- depth and scale ---------------------------------------------------------------
#
# The search keeps its own stack, so its depth is bounded by memory, not by
# Python's recursion limit.  The depth tests lower that limit to the current
# frame depth plus a margin, far below the decision depth of the input, with
# `_recursion_limit_near_current_depth` from the oracles module.

def implication_chain(n, unit_head=False):
    """x1 -> x2 -> ... -> xn, with the unit clause x1 when asked."""
    head = [[1]] if unit_head else []
    return CNFFormula.from_lists(n, head + [[-i, i + 1] for i in range(1, n)])


def test_compile_deep_implication_chain():
    n = 400
    with _recursion_limit_near_current_depth():
        circuit, stats = compile_dpll(implication_chain(n))
        assert model_count(circuit) == n + 1
    assert stats.decision_count == n - 1


def test_exact_pqe_of_a_self_join_path_query_on_a_long_path():
    # Q holds iff two consecutive edges of the path are both present
    n = 300
    probs = [Fraction(1 + i % 7, 9) for i in range(n)]
    facts = {('R', (f"a{i}", f"a{i + 1}")): p for i, p in enumerate(probs)}
    tid = TID(Database({'R': {vals for _, vals in facts}}), facts,
              {f: 'n' for f in facts})
    absent, present = Fraction(1), Fraction(0)
    for p in probs:
        absent, present = (absent + present) * (1 - p), absent * p
    with _recursion_limit_near_current_depth():
        got = pqe(parse_cq("Q() :- R(x, y), R(y, z)."), tid)
    assert got == 1 - absent - present


def test_unit_head_propagates_a_long_chain():
    n = 10 ** 4
    circuit, stats = compile_dpll(implication_chain(n, unit_head=True))
    assert model_count(circuit) == 1
    assert stats.decision_count == 0


# -- the incremental search against the older one ------------------------------------
#
# `compile_dpll_reference` sorts every residual into its cache key and sweeps
# it for components at every step.  The incremental key and the local split
# test must reproduce it node for node, with the same statistics.

def repeated_clause_cnf(rng, copies, extra):
    """One clause `copies` times among `extra` random clauses, some of which
    shorten to it once their other literal is set false."""
    n = rng.randint(3, 8)
    base = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 2)]
    clauses = [base] * copies
    free = [v for v in range(1, n + 1) if v not in map(abs, base)]
    for _ in range(extra):
        if rng.random() < 0.5:
            v = rng.choice(free)
            clauses.append(base + [v if rng.random() < 0.5 else -v])
        else:
            clauses.append(random_cnf(rng, n, 1).clauses[0])
    rng.shuffle(clauses)
    return CNFFormula.from_lists(n, clauses)


def _differential_corpus():
    """(formula, cache settings, heuristics) triples.  The uncached search
    runs only where it stays small, and on long bands only
    `first_unassigned` runs, since the other two heuristics cut across the
    band and their searches grow exponentially."""
    both, cached, first = (True, False), (True,), ('first_unassigned',)
    rng = random.Random(97)
    out = []
    for _ in range(170):
        out.append((random_cnf(rng, rng.randint(1, 16), rng.randint(1, 40)), both, HEURISTICS))
    for _ in range(40):
        out.append((random_cnf(rng, rng.randint(20, 40), rng.randint(10, 60)), cached,
                    HEURISTICS))
    for n in range(6, 15):
        out.append((banded_cnf(random.Random(n), n), both, HEURISTICS))
    for n in (20, 30, 40):
        out.append((banded_cnf(random.Random(n), n), cached, HEURISTICS))
        out.append((banded_cnf(random.Random(n), n, per_window=3, width=5), cached,
                    HEURISTICS))
    for n in (90, 200, 400):
        out.append((banded_cnf(random.Random(n), n), cached, first))
        out.append((banded_cnf(random.Random(n), n, per_window=3, width=5), cached, first))
    for n in (1, 2, 3, 8, 25, 60, 150):
        out.append((implication_chain(n), both, HEURISTICS))
        out.append((implication_chain(n, unit_head=True), both, HEURISTICS))
    for _ in range(25):
        # every clause one clause: the root holds m copies, the largest
        # count a digit of len(clauses).bit_length() bits must hold
        m = rng.choice([1, 2, 3, 7, 8, 15, 16, 31, 32, 63])
        out.append((repeated_clause_cnf(rng, m, 0), both, HEURISTICS))
        out.append((repeated_clause_cnf(rng, rng.randint(1, 12), rng.randint(1, 12)), both,
                    HEURISTICS))
    for j in range(1, 7):
        # x1 false leaves 2^j copies of (2 3), x1 true one (4 5), interned
        # next: a digit one bit narrower would carry into the next one and
        # give both residuals one key
        out.append((CNFFormula.from_lists(5, [[1, 2, 3]] * 2 ** j + [[-1, 4, 5]]), both,
                    HEURISTICS))
    for clauses in ([], [[1, 2], []], [[]], [[2]], [[2], [-2, 3], [1, 3]],
                    [[3, 4], [-1], [1, 2, -4], [2]], [[1], [-1]], [[1, -1], [2, 3]],
                    [[1, -1, 2], [-2, 3], [1, -3]], [[1, -1], [2, -2], [3, 4], [-3, 4]]):
        out.append((CNFFormula.from_lists(4, clauses), both, HEURISTICS))
    out.append((CNFFormula.from_lists(0, []), both, HEURISTICS))
    return out


def test_incremental_search_matches_the_reference_node_for_node():
    corpus = _differential_corpus()
    assert len(corpus) >= 300
    splits = hits = 0
    for formula, caches, heuristics in corpus:
        for heuristic in heuristics:
            for use_cache in caches:
                got, s = compile_dpll(formula, heuristic, use_cache)
                ref, r = compile_dpll_reference(formula, heuristic, use_cache)
                assert got.nodes == ref.nodes and got.output == ref.output
                assert (s.decision_count, s.cache_hits, s.component_splits,
                        s.peak_cache_entries) == (
                            r.decision_count, r.cache_hits, r.component_splits,
                            r.peak_cache_entries)
                splits += s.component_splits
                hits += s.cache_hits
    assert splits > 100 and hits > 1000


def test_component_grouping_runs_only_at_the_root_and_on_splits(monkeypatch):
    grouped = []

    def counting(items, masks):
        grouped.append(len(items))
        return components(items, masks)

    monkeypatch.setattr(kcomp.cnf, 'components', counting)
    circuit, stats = compile_dpll(banded_cnf(random.Random(400), 400))
    assert stats.decision_count > 1000
    assert len(grouped) <= stats.component_splits + 1
