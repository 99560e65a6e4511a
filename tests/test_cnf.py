import random

import pytest

from kcomp.circuits import classify, smooth
from kcomp.cnf import (CNFFormula, compile_dpll, parse_dimacs,
                       verify_equivalence, HEURISTICS, _components)
from kcomp.errors import (ClauseCountMismatch, LiteralOutOfRange,
                          MalformedHeader)
from kcomp.queries import model_count

from oracles import clause_components, cnf_models, models_of


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
        got = _components(clauses)
        assert got == clause_components(clauses)
        several += len(got) > 1
    assert several > 200
