"""Smoothing on shared interval gadgets against the per-variable reference:
same answers from every counting task, the same samples, the same flags,
and O(log n) padding edges per run of missing variables.  The counting
tasks give the same answers on a circuit as on its smoothed copy."""

import math
import random
from fractions import Fraction

from kcomp import compile_dpll
from kcomp.circuits import BoolCircuit, CircuitBuilder, core_flags, smooth
from kcomp.queries import (WeightMap, best_valuation, count_by_cardinality,
                           model_count, sample_uniform, wmc)

from oracles import models_of, smooth_per_variable
from test_certificates import random_cnf, random_dnnf
from test_queries import bits_of, random_decision_circuit, weighted_product


def relabel(circuit, rng):
    """The same circuit over a shuffled, sparse set of variable ids, so that
    sorted order and node order disagree."""
    ids = rng.sample(range(3 * len(circuit.universe)), len(circuit.universe))
    new = dict(zip(sorted(circuit.universe), ids))
    nodes = tuple(('L', new[rec[1]], rec[2]) if rec[0] == 'L' else rec
                  for rec in circuit.nodes)
    return BoolCircuit(nodes, circuit.output,
                       frozenset(new[v] for v in circuit.universe))


def corpus(seed):
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(1, 9)
        yield random_decision_circuit(rng, list(range(n))), False
        yield random_dnnf(rng, n), True
        formula = random_cnf(rng, n, rng.randint(1, 2 * n))
        yield compile_dpll(formula)[0], False
    for _ in range(20):
        n = rng.randint(2, 9)
        yield relabel(random_decision_circuit(rng, list(range(n))), rng), False
        yield relabel(random_dnnf(rng, n), rng), True


def answers(circuit, weights, seed, assume):
    out = [model_count(circuit, assume_deterministic=assume),
           wmc(circuit, weights, assume_deterministic=assume),
           count_by_cardinality(circuit, assume_deterministic=assume),
           core_flags(circuit)]
    if out[0]:
        out.append(best_valuation(circuit, weights, assume_deterministic=assume))
        rng = random.Random(seed)
        out.append([sample_uniform(circuit, rng, assume_deterministic=assume)
                    for _ in range(6)])
    return out


def test_smooth_agrees_with_per_variable_smoothing():
    rng = random.Random(83)
    for c, assume in corpus(83):
        s, ref = smooth(c), smooth_per_variable(c)
        assert models_of(s) == models_of(c)
        weights = WeightMap({(v, pol): Fraction(rng.randint(1, 9), 10)
                             for v in c.universe for pol in (True, False)})
        seed = rng.randrange(1 << 30)
        assert answers(s, weights, seed, assume) == answers(ref, weights, seed, assume)


def test_smooth_pads_a_shared_run_in_log_edges():
    # k OR gates over x_0..x_{n-1} and y_0..y_{m-1}; the second child of
    # each is an AND over the y's only, so each misses the same run of the
    # n x's in sorted order
    n, k = 512, 64
    m = (k - 1).bit_length()
    b = CircuitBuilder(n + m)
    xs = b.conj(tuple(b.literal(v) for v in range(n)))
    ys = b.conj(tuple(b.literal(n + j) for j in range(m)))
    full = b.conj((xs, ys))
    gates = [b.disj((full, b.conj(tuple(b.literal(n + j, bool(i >> j & 1))
                                       for j in range(m)))))
             for i in range(k)]
    c = b.finish(b.disj(tuple(gates)))
    s = smooth(c)
    assert core_flags(s) == (True, True, False, True)
    assert model_count(s, assume_deterministic=True) == model_count(
        smooth_per_variable(c), assume_deterministic=True)
    # every leaf gadget costs 6 edges and every inner segment 2, each built
    # once; each padded child gains at most 2 ceil(log2 N) pieces
    log_n = math.ceil(math.log2(len(c.universe)))
    assert s.size - c.size <= 8 * n + 2 * k * log_n
    assert smooth_per_variable(c).size - c.size >= k * n


def test_queries_on_unsmoothed_circuits_agree_with_smoothed():
    rng = random.Random(89)
    for c, assume in corpus(89):
        s = smooth(c)
        # independent literal weights, so w(x) + w(not x) is rarely 1, and
        # some of them are 0
        weights = WeightMap({(v, pol): Fraction(rng.randint(0, 9), rng.randint(1, 9))
                             for v in c.universe for pol in (True, False)})
        for task in (model_count, count_by_cardinality):
            assert task(c, assume_deterministic=assume) == task(
                s, assume_deterministic=assume)
        assert wmc(c, weights, assume_deterministic=assume) == wmc(
            s, weights, assume_deterministic=assume)
        models = models_of(c)
        if not models:
            continue
        val, weight = best_valuation(c, weights, assume_deterministic=assume)
        assert weight == best_valuation(s, weights, assume_deterministic=assume)[1]
        assert bits_of(c, val) in models
        assert weight == weighted_product(weights, val, c.sorted_vars())
        draws = random.Random(rng.randrange(1 << 30))
        for _ in range(6):
            assert bits_of(c, sample_uniform(c, draws, assume_deterministic=assume)) in models


def test_sampling_unsmoothed_circuits_is_uniform():
    rng = random.Random(97)
    checked = 0
    while checked < 6:
        n = rng.randint(3, 4)
        c = random_decision_circuit(rng, list(range(n)))
        models = models_of(c)
        if core_flags(c)[3] or len(models) < 2:
            continue
        checked += 1
        draws = 3000
        draw = random.Random(rng.randrange(1 << 30))
        freq = dict.fromkeys(models, 0)
        for _ in range(draws):
            freq[bits_of(c, sample_uniform(c, draw))] += 1
        p = 1 / len(models)
        sigma = math.sqrt(draws * p * (1 - p))
        assert all(abs(f - draws * p) <= 5 * sigma for f in freq.values())
