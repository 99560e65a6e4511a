import random
from fractions import Fraction

import pytest

from kcomp.circuits import CircuitBuilder, DNFFormula, core_flags, smooth
from kcomp.errors import (IncompleteWeightMap, NotDNNF,
                          NotSmoothDeterministicDNNF, Unsatisfiable)
from kcomp.queries import (COUNTING, ApproxParams, WeightMap,
                           approx_count_dnf, best_valuation,
                           count_by_cardinality, enumerate_models, model_count,
                           sample_uniform, satisfiable, witness, wmc)

from oracles import (count_models, dnf_probability, models_of,
                     valuation_to_bits, weighted_sum)
from test_circuits import DEMO_ROWS, demo_decision, demo_dnnf


def provenance_demo_decision():
    """(x0 or x1) and x2 as a decision circuit over three variables."""
    b = CircuitBuilder(3)
    leaf = b.decision(2, b.false(), b.true())
    d1 = b.decision(1, b.false(), leaf)
    return b.finish(b.decision(0, d1, leaf))


def random_decision_circuit(rng, variables):
    b = CircuitBuilder(len(variables))

    def build(vars_left):
        if not vars_left or rng.random() < 0.2:
            return b.true() if rng.random() < 0.8 else b.false()
        if len(vars_left) >= 4 and rng.random() < 0.3:
            cut = rng.randint(1, len(vars_left) - 1)
            return b.conj((build(vars_left[:cut]), build(vars_left[cut:])))
        var = vars_left[0]
        rest = vars_left[1:]
        return b.decision(var, build(rest), build(rest))

    return b.finish(build(list(variables)))


# -- satisfiable / witness -----------------------------------------------------

def test_sat_and_witness_demo():
    c = demo_dnnf()
    assert satisfiable(c)
    w = witness(c)
    assert c.evaluate(w) == 1


def test_sat_constants():
    b = CircuitBuilder(0)
    assert not satisfiable(b.finish(b.false()))
    assert witness(b.finish(b.false())) is None
    b2 = CircuitBuilder(2)
    c = b2.finish(b2.disj((b2.false(), b2.false())))
    assert not satisfiable(c)


def test_witness_defaults_unassigned_to_zero():
    b = CircuitBuilder(3)
    c = b.finish(b.literal(1))
    w = witness(c)
    assert w == {0: 0, 1: 1, 2: 0}


def test_sat_requires_decomposability():
    b = CircuitBuilder(1)
    c = b.finish(b.conj((b.literal(0), b.literal(0, False))))
    with pytest.raises(NotDNNF):
        satisfiable(c)


# -- model_count -----------------------------------------------------------------

def test_model_count_demo():
    assert model_count(smooth(demo_decision())) == 6


def test_model_count_const_true_five_vars():
    b = CircuitBuilder(5)
    assert model_count(b.finish(b.true())) == 32


def test_model_count_provenance_demo():
    assert model_count(smooth(provenance_demo_decision())) == 3


def test_model_count_requires_smooth_and_decision():
    assert model_count(demo_decision()) == count_models(demo_decision())
    with pytest.raises(NotSmoothDeterministicDNNF):
        model_count(smooth(demo_dnnf()))    # smooth but not deterministic
    assert model_count(smooth(demo_dnnf()), assume_deterministic=True) >= 6


def test_model_count_random_against_oracle():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 9)
        c = smooth(random_decision_circuit(rng, range(n)))
        assert model_count(c) == count_models(c)


# -- wmc ---------------------------------------------------------------------------

def test_wmc_probability_of_provenance_demo():
    c = smooth(provenance_demo_decision())
    w = WeightMap.from_probabilities({v: Fraction(1, 2) for v in range(3)})
    assert wmc(c, w) == Fraction(3, 8)


def test_wmc_all_ones_equals_model_count():
    c = smooth(demo_decision())
    w = WeightMap.constant(c.universe, 1)
    assert wmc(c, w, COUNTING) == model_count(c)


def test_wmc_single_literal():
    b = CircuitBuilder(1)
    c = b.finish(b.literal(0))
    w = WeightMap({(0, True): Fraction(2, 7), (0, False): Fraction(9)})
    assert wmc(c, w) == Fraction(2, 7)


def test_wmc_incomplete_weights_rejected():
    c = smooth(demo_decision())
    with pytest.raises(IncompleteWeightMap):
        wmc(c, WeightMap({(0, True): 1}))


def test_wmc_random_against_oracle():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(1, 8)
        c = smooth(random_decision_circuit(rng, range(n)))
        weights = WeightMap({(v, pol): Fraction(rng.randint(1, 9), rng.randint(1, 9))
                             for v in range(n) for pol in (True, False)})
        assert wmc(c, weights) == weighted_sum(c, weights)


# -- enumeration ---------------------------------------------------------------------

def bits_of(circuit, val):
    return valuation_to_bits(val, circuit.sorted_vars())


def test_enumerate_demo_rows():
    for c in (demo_dnnf(), demo_decision()):
        got = [bits_of(c, v) for v in enumerate_models(c)]
        assert len(got) == len(set(got))
        assert set(got) == DEMO_ROWS


def test_enumerate_const_false_empty():
    b = CircuitBuilder(2)
    assert list(enumerate_models(b.finish(b.false()))) == []


def test_enumerate_random_against_oracle():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(1, 10)
        c = random_decision_circuit(rng, range(n))
        got = [bits_of(c, v) for v in enumerate_models(c)]
        assert len(got) == len(set(got))
        assert set(got) == models_of(c)


# -- sampling -------------------------------------------------------------------------

def test_sample_two_outcomes_balanced():
    # satisfying set {01, 10}
    b = CircuitBuilder(2)
    d_hi = b.decision(1, b.true(), b.false())
    d_lo = b.decision(1, b.false(), b.true())
    c = smooth(b.finish(b.decision(0, d_lo, d_hi)))
    rng = random.Random(42)
    freq = {'01': 0, '10': 0}
    for _ in range(10_000):
        freq[bits_of(c, sample_uniform(c, rng))] += 1
    assert 0.45 <= freq['01'] / 10_000 <= 0.55


def test_sample_single_model():
    b = CircuitBuilder(2)
    c = smooth(b.finish(b.conj((b.literal(0), b.literal(1, False)))))
    rng = random.Random(0)
    for _ in range(5):
        assert bits_of(c, sample_uniform(c, rng)) == '10'


def test_sample_reproducible_and_unsat_rejected():
    c = smooth(demo_decision())
    runs = []
    for _ in range(2):
        rng = random.Random(99)
        runs.append([bits_of(c, sample_uniform(c, rng)) for _ in range(50)])
    assert runs[0] == runs[1]
    b = CircuitBuilder(1)
    with pytest.raises(Unsatisfiable):
        sample_uniform(b.finish(b.false()), random.Random(1))


def test_sample_chi_square_six_outcomes():
    c = smooth(demo_decision())
    rng = random.Random(2024)
    draws = 60_000
    freq = {}
    for _ in range(draws):
        bits = bits_of(c, sample_uniform(c, rng))
        freq[bits] = freq.get(bits, 0) + 1
    assert set(freq) == DEMO_ROWS
    expected = draws / 6
    chi2 = sum((f - expected) ** 2 / expected for f in freq.values())
    # 0.99 quantile of chi-square with 5 degrees of freedom
    assert chi2 < 15.086


# -- cardinality counts ------------------------------------------------------------------

def test_cardinality_demo():
    assert count_by_cardinality(smooth(demo_decision())) == [0, 1, 3, 2, 0]


def test_cardinality_const_true_binomials():
    b = CircuitBuilder(3)
    assert count_by_cardinality(b.finish(b.true())) == [1, 3, 3, 1]


def test_cardinality_provenance_demo():
    assert count_by_cardinality(smooth(provenance_demo_decision())) == [0, 0, 2, 1]


def test_cardinality_sums_to_model_count():
    rng = random.Random(31)
    for _ in range(20):
        c = smooth(random_decision_circuit(rng, range(rng.randint(1, 8))))
        assert sum(count_by_cardinality(c)) == model_count(c)


# -- best valuation ------------------------------------------------------------------------

def test_best_single_literal():
    b = CircuitBuilder(1)
    c = b.finish(b.literal(0))
    val, weight = best_valuation(c, WeightMap.from_probabilities({0: Fraction(9, 10)}))
    assert val == {0: 1} and weight == Fraction(9, 10)


def test_best_provenance_demo():
    c = smooth(provenance_demo_decision())
    probs = {0: Fraction(9, 10), 1: Fraction(2, 10), 2: Fraction(8, 10)}
    val, weight = best_valuation(c, WeightMap.from_probabilities(probs))
    assert val == {0: 1, 1: 0, 2: 1}
    assert weight == Fraction(9, 10) * Fraction(8, 10) * Fraction(8, 10)


def test_best_uniform_weights():
    c = smooth(demo_decision())
    val, weight = best_valuation(
        c, WeightMap.from_probabilities({v: Fraction(1, 2) for v in range(4)}))
    assert weight == Fraction(1, 16)
    assert c.evaluate(val) == 1


def test_best_matches_enumeration_max():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 7)
        c = smooth(random_decision_circuit(rng, range(n)))
        if not satisfiable(c):
            continue
        weights = WeightMap({(v, pol): Fraction(rng.randint(1, 9), 10)
                             for v in range(n) for pol in (True, False)})
        val, weight = best_valuation(c, weights)
        assert c.evaluate(val) == 1
        best = max(weighted_product(weights, v, c.sorted_vars())
                   for v in enumerate_models(c))
        assert weight == best


def test_best_with_zero_one_weights_against_brute_force():
    rng = random.Random(71)
    for _ in range(60):
        n = rng.randint(1, 6)
        c = random_decision_circuit(rng, range(n))
        weights = WeightMap.from_probabilities(
            {v: Fraction(rng.randint(0, 1)) for v in range(n)})
        models = models_of(c)
        if not models:
            with pytest.raises(Unsatisfiable):
                best_valuation(c, weights)
            continue
        svars = c.sorted_vars()
        val, weight = best_valuation(c, weights)
        assert bits_of(c, val) in models
        assert weight == weighted_product(weights, val, svars)
        assert weight == max(
            weighted_product(weights, {v: int(m[j]) for j, v in enumerate(svars)}, svars)
            for m in models)


def weighted_product(weights, val, svars):
    p = Fraction(1)
    for v in svars:
        p *= weights[(v, bool(val[v]))]
    return p


def random_negated_decision_circuit(rng, num_vars):
    """Decomposable decision circuit in which every negative literal is
    built as a NOT over the positive one and every false leaf as NOT true."""
    b = CircuitBuilder(num_vars)

    def build(vars_left):
        if not vars_left or rng.random() < 0.2:
            if vars_left and rng.random() < 0.5:
                return b.neg(b.literal(vars_left[0]))
            return b.true() if rng.random() < 0.8 else b.neg(b.true())
        if len(vars_left) >= 3 and rng.random() < 0.3:
            cut = rng.randint(1, len(vars_left) - 1)
            return b.conj((build(vars_left[:cut]), build(vars_left[cut:])))
        var, rest = vars_left[0], vars_left[1:]
        return b.disj((b.conj((b.neg(b.literal(var)), build(rest))),
                       b.conj((b.literal(var), build(rest)))))

    return b.finish(build(list(range(num_vars))))


def test_counting_tasks_on_negated_literals_against_truth_tables():
    rng = random.Random(61)
    for _ in range(60):
        n = rng.randint(1, 6)
        c = random_negated_decision_circuit(rng, n)
        assert core_flags(c)[2]
        s = smooth(c)
        svars = c.sorted_vars()
        weights = WeightMap({(v, pol): Fraction(rng.randint(1, 9), 10)
                             for v in range(n) for pol in (True, False)})
        models = models_of(c)
        assert model_count(s) == len(models)
        assert wmc(s, weights) == weighted_sum(c, weights)
        assert count_by_cardinality(s) == [
            sum(1 for m in models if m.count('1') == k) for k in range(n + 1)]
        assert {bits_of(c, v) for v in enumerate_models(c)} == models
        if not models:
            with pytest.raises(Unsatisfiable):
                sample_uniform(s, rng)
            continue
        assert bits_of(c, sample_uniform(s, rng)) in models
        val, weight = best_valuation(s, weights)
        assert bits_of(c, val) in models
        assert weight == max(
            weighted_product(weights, {v: int(m[j]) for j, v in enumerate(svars)}, svars)
            for m in models)


# -- approximate DNF counting ------------------------------------------------------------------

def test_karp_luby_two_terms():
    dnf = DNFFormula.from_literal_lists(3, [[(0, True), (1, True)],
                                            [(1, True), (2, True)]])
    probs = {v: Fraction(1, 2) for v in range(3)}
    exact = dnf_probability(dnf.terms, probs)
    assert exact == Fraction(3, 8)
    est = approx_count_dnf(dnf, probs, ApproxParams(0.1, Fraction(1, 3), seed=7))
    assert Fraction(9, 10) * exact <= est <= Fraction(11, 10) * exact


def test_karp_luby_single_term_exact_any_seed():
    dnf = DNFFormula.from_literal_lists(1, [[(0, True)]])
    for seed in (1, 2, 3):
        est = approx_count_dnf(dnf, {0: Fraction(7, 10)},
                               ApproxParams(0.5, 0.5, seed=seed))
        assert est == Fraction(7, 10)


def test_karp_luby_empty_dnf_zero():
    dnf = DNFFormula.from_literal_lists(2, [])
    assert approx_count_dnf(dnf, {0: Fraction(1, 2), 1: Fraction(1, 2)},
                            ApproxParams(0.1, 0.1, seed=0)) == 0


def test_karp_luby_deterministic_per_seed():
    dnf = DNFFormula.from_literal_lists(4, [[(0, True), (1, False)],
                                            [(2, True)], [(3, False), (0, True)]])
    probs = {v: Fraction(1, 3) for v in range(4)}
    params = ApproxParams(0.2, 0.2, seed=11)
    assert approx_count_dnf(dnf, probs, params) == approx_count_dnf(dnf, probs, params)


def test_karp_luby_acceptance_band_statistics():
    dnf = DNFFormula.from_literal_lists(4, [[(0, True), (1, True)],
                                            [(1, True), (2, False)],
                                            [(3, True)]])
    probs = {v: Fraction(1, 2) for v in range(4)}
    exact = dnf_probability(dnf.terms, probs)
    hits = 0
    for seed in range(100):
        est = approx_count_dnf(dnf, probs, ApproxParams(0.1, Fraction(1, 3), seed))
        if abs(est - exact) <= Fraction(1, 10) * exact:
            hits += 1
    # slack 10 below the 1 - delta guarantee
    assert hits >= 100 * (1 - Fraction(1, 3)) - 10


def test_karp_luby_estimate_clamped_to_likeliest_term_and_one():
    # disjoint terms whose probabilities add up past 1: the total times the
    # success rate can overshoot 1, and no estimate may fall below a term
    terms = [[(2 * i, True), (2 * i + 1, True)] for i in range(35)]
    dnf = DNFFormula.from_literal_lists(70, terms)
    probs = {v: Fraction(1, 2) for v in range(70)}
    for seed in range(1, 6):
        est = approx_count_dnf(dnf, probs, ApproxParams(0.1, Fraction(1, 3), seed))
        assert Fraction(1, 4) <= est <= 1
    dnf = DNFFormula.from_literal_lists(4, [[(0, True), (1, True)], [(2, True)]])
    probs = {0: Fraction(1, 2), 1: Fraction(1, 2), 2: Fraction(9, 10), 3: Fraction(1, 2)}
    for seed in range(5):
        est = approx_count_dnf(dnf, probs, ApproxParams(0.5, 0.5, seed))
        assert Fraction(9, 10) <= est <= 1


def test_dnf_rejects_contradictory_term():
    with pytest.raises(ValueError):
        DNFFormula.from_literal_lists(1, [[(0, True), (0, False)]])


def test_semiring_laws_on_supplied_instances():
    from kcomp.queries import COUNTING, FLOAT, MAX_TIMES, RATIONAL
    samples = {
        COUNTING: [0, 1, 2, 7],
        RATIONAL: [Fraction(0), Fraction(1), Fraction(2, 3), Fraction(5, 4)],
        FLOAT: [0.0, 1.0, 0.25, 3.5],
        MAX_TIMES: [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(7, 2)],
    }
    for ring, values in samples.items():
        for a in values:
            assert ring.plus(ring.zero, a) == a
            assert ring.times(ring.one, a) == a
            assert ring.times(ring.zero, a) == ring.zero
        for a in values:
            for b in values:
                assert ring.plus(a, b) == ring.plus(b, a)
                assert ring.times(a, b) == ring.times(b, a)
                for c in values:
                    assert ring.times(a, ring.plus(b, c)) \
                        == ring.plus(ring.times(a, b), ring.times(a, c))


def test_max_times_wmc_equals_best_weight():
    from kcomp.queries import MAX_TIMES
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 6)
        c = smooth(random_decision_circuit(rng, range(n)))
        if not satisfiable(c):
            continue
        probs = {v: Fraction(rng.randint(1, 9), 10) for v in range(n)}
        wmap = WeightMap.from_probabilities(probs)
        top = wmc(c, wmap, MAX_TIMES)
        _, best = best_valuation(c, wmap)
        assert top == best


def random_literal_run_circuit(rng, num_vars):
    """Decision circuit whose AND gates hold several literals of both signs
    next to constants and subcircuits."""
    b = CircuitBuilder(num_vars)

    def build(vars_left):
        if not vars_left or rng.random() < 0.15:
            return b.true() if rng.random() < 0.85 else b.false()
        var, rest = vars_left[0], vars_left[1:]
        branches = []
        for pol in (False, True):
            k = rng.randint(0, min(3, len(rest)))
            kids = [b.literal(var, pol)]
            kids += [b.literal(v, rng.random() < 0.5) for v in rest[:k]]
            kids.insert(rng.randrange(len(kids) + 1), build(rest[k:]))
            branches.append(b.conj(tuple(kids)))
        return b.disj(tuple(branches))

    return b.finish(build(list(range(num_vars))))


def test_cardinality_with_literal_children_against_truth_tables():
    from kcomp import compile_dpll
    from test_certificates import random_cnf
    rng = random.Random(67)
    for _ in range(60):
        n = rng.randint(1, 9)
        for c in (random_literal_run_circuit(rng, n),
                  compile_dpll(random_cnf(rng, n, rng.randint(1, 2 * n)))[0]):
            models = models_of(c)
            assert count_by_cardinality(smooth(c)) == [
                sum(1 for m in models if m.count('1') == k) for k in range(n + 1)]
