"""The integer folds of `wmc`, `best_valuation` and `count_by_cardinality`
against the older Fraction and coefficient-list folds kept in `oracles`,
and at sizes where the older folds took seconds."""

import math
import random
from fractions import Fraction

import pytest

from kcomp import compile_dpll
from kcomp.circuits import CircuitBuilder, condition, core_flags, smooth
from kcomp.errors import Unsatisfiable
from kcomp.queries import (FLOAT, WeightMap, best_valuation,
                           count_by_cardinality, model_count, wmc)

from oracles import (RATIONAL_GENERIC, best_valuation_generic,
                     cardinality_by_convolution)
from test_certificates import random_cnf, random_dnnf
from test_enumeration import chain_obdd


def corpus(rng):
    """(circuit, assume_deterministic) pairs: compiled CNFs, smoothed or not,
    conditioned ones, constants over empty and nonempty universes, and
    DNNFs whose OR gates need not be deterministic."""
    out = []
    for n in (0, 1, 3):
        b = CircuitBuilder(n)
        out += [(b.finish(b.true()), False), (b.finish(b.false()), False)]
    for _ in range(40):
        n = rng.randint(1, 9)
        circuit = compile_dpll(random_cnf(rng, n, rng.randint(0, 2 * n)))[0]
        out += [(circuit, False), (smooth(circuit), False)]
        pinned = {v: rng.randint(0, 1)
                  for v in rng.sample(sorted(circuit.universe), rng.randint(1, n))}
        out.append((condition(circuit, pinned), True))
    for _ in range(20):
        circuit = random_dnnf(rng, rng.randint(1, 7))
        out.append((circuit, True))
    assert any(not core_flags(c)[2] for c, _ in out[-20:])
    return out


def weight_maps(rng, universe):
    """Probabilities with zeros among them, and pairs of Fractions with
    unrelated denominators that need not add up to 1."""
    probs = {v: Fraction(rng.choice((0, 0, 1, 2, 3)), rng.choice((1, 3, 4)))
             for v in universe}
    yield WeightMap.from_probabilities({v: min(p, Fraction(1)) for v, p in probs.items()})
    yield WeightMap({(v, pol): Fraction(rng.randint(0, 9), rng.randint(1, 12))
                     for v in universe for pol in (True, False)})


def test_integer_folds_match_the_generic_folds():
    rng = random.Random(2024)
    for circuit, assume in corpus(rng):
        card = count_by_cardinality(circuit, assume_deterministic=assume)
        old = cardinality_by_convolution(circuit)
        assert card == old and all(type(c) is int for c in card)
        assert len(card) == len(circuit.universe) + 1
        assert sum(card) == model_count(circuit, assume_deterministic=assume)
        for weights in weight_maps(rng, circuit.universe):
            got = wmc(circuit, weights, assume_deterministic=assume)
            want = wmc(circuit, weights, RATIONAL_GENERIC, assume_deterministic=assume)
            assert got == want and type(got) is type(want) is Fraction
            old = best_valuation_generic(circuit, weights)
            if old is None:
                with pytest.raises(Unsatisfiable):
                    best_valuation(circuit, weights, assume_deterministic=assume)
                continue
            val, weight = best_valuation(circuit, weights, assume_deterministic=assume)
            assert val == old[0] and weight == old[1] and type(weight) is Fraction


def test_int_and_float_weights_keep_the_generic_fold():
    rng = random.Random(7)
    for circuit, assume in corpus(rng):
        ints = WeightMap({(v, pol): rng.randint(0, 3)
                          for v in circuit.universe for pol in (True, False)})
        got = wmc(circuit, ints, assume_deterministic=assume)
        want = wmc(circuit, ints, RATIONAL_GENERIC, assume_deterministic=assume)
        assert got == want and type(got) is type(want)
        old = best_valuation_generic(circuit, ints)
        if old is not None:
            assert best_valuation(circuit, ints, assume_deterministic=assume) == old
            assert type(old[1]) is int
        probs = {v: Fraction(rng.randint(0, 4), 4) for v in circuit.universe}
        exact = wmc(circuit, WeightMap.from_probabilities(probs),
                    assume_deterministic=assume)
        floats = WeightMap.from_probabilities({v: float(p) for v, p in probs.items()})
        approx = wmc(circuit, floats, FLOAT, assume_deterministic=assume)
        assert type(approx) is float and math.isclose(approx, exact, abs_tol=1e-12)


def test_best_weight_is_a_fraction_when_no_weight_is_read():
    b = CircuitBuilder(0)
    val, weight = best_valuation(b.finish(b.true()), WeightMap({}))
    assert val == {} and weight == 1 and type(weight) is Fraction


def test_exact_folds_on_a_10000_variable_chain_obdd():
    n = 10_000
    circuit = chain_obdd(n)
    # x0 -> x1 -> ...: the models are 0^(n-j) 1^j, one per weight j
    assert count_by_cardinality(circuit) == [1] * (n + 1)

    # P(x) = a/7 with a = 1 + v % 5; over numerators of 7^(v+1), `zeros`
    # weighs the all-zero prefix and `ones` the prefixes 0*1+
    num = [1 + v % 5 for v in range(n)]
    zeros, ones = 1, 0
    best_zeros, best_ones = 1, 0
    for a in num:
        zeros, ones = zeros * (7 - a), (zeros + ones) * a
        best_zeros, best_ones = best_zeros * (7 - a), max(best_zeros, best_ones) * a
    weights = WeightMap.from_probabilities({v: Fraction(a, 7) for v, a in enumerate(num)})
    assert wmc(circuit, weights) == Fraction(zeros + ones, 7 ** n)

    val, weight = best_valuation(circuit, weights)
    assert weight == Fraction(max(best_zeros, best_ones), 7 ** n)
    assert circuit.evaluate(val) == 1
    assert math.prod(a if val[v] else 7 - a for v, a in enumerate(num)) \
        == max(best_zeros, best_ones)
