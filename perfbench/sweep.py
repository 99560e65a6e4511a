"""Scaling sweep for the traced run.

Each series times one layer on its main input at 1/4, 1/2 and 1 times the
workload size and fits the log-log slope, the form in which the source
paper states its complexity claims.  The 2x size is left out: at the seed
the tree and CQ inputs need several GB or tens of seconds there.
"""

from __future__ import annotations

import gc
import json
import math
import random
from time import perf_counter

from kcomp import (TID, Database, TreeNode, ProbTree, WeightMap,
                   automaton_from_json, compile_cq, compile_dpll, parse_cq,
                   parse_dimacs, provenance_tree, read_nnf, shapley_all, smooth,
                   wmc, write_nnf)

import gen
from workloads import CnfKc, CqDb, ProvTid

FRACTIONS = (0.25, 0.5, 1.0)
REPEATS = 2


def fit_exponent(sizes, times):
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def _best(t, name, fn, *args):
    """Fastest of REPEATS timed calls, with a collection before each."""
    best = None
    for _ in range(REPEATS):
        gc.collect()
        start = perf_counter()
        t.call(name, fn, *args)
        elapsed = perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def build_tree(nodes: list) -> ProbTree:
    """ProbTree from a preorder node list, built bottom-up without recursion."""
    built = [None] * len(nodes)
    for i in range(len(nodes) - 1, -1, -1):
        label, _, left, right = nodes[i]
        built[i] = (TreeNode(label) if left < 0
                    else TreeNode(label, built[left], built[right]))
    return ProbTree(built[0], {i: n[1] for i, n in enumerate(nodes)},
                    default=gen.TREE_DEFAULT)


def run(t, seed: int, scale: float) -> dict:
    """Fitted exponents keyed by per-layer metric name."""
    series = {name: ([], []) for name in (
        'cq.compile_exp', 'circuits.varsets_exp', 'queries.wmc_exp',
        'provenance.shapley_exp', 'trees.compile_exp')}

    def add(name, size, seconds):
        series[name][0].append(size)
        series[name][1].append(max(seconds, 1e-9))

    path = parse_cq(gen.PATH_QUERY)
    hier = parse_cq(gen.HIER_QUERY)
    automaton = automaton_from_json(json.dumps(gen.mod3_automaton()))
    for frac in FRACTIONS:
        rng = random.Random(seed)
        size = max(8, int(CqDb.FACTS * scale * frac))
        db = Database.from_tsv(gen.tsv(gen.cq_database(rng, size)))
        add('cq.compile_exp', size, _best(t, 'cq.compile', compile_cq, path, db))

        nvars = max(8, int(CnfKc.BANDED[1] * scale * frac))
        formula = parse_dimacs(gen.dimacs(nvars, gen.banded_cnf(rng, nvars)))
        text = write_nnf(compile_dpll(formula)[0])
        vs = []
        for _ in range(REPEATS):
            fresh = read_nnf(text)
            gc.collect()
            start = perf_counter()
            t.call('circuits.varsets', fresh.varsets)
            vs.append(perf_counter() - start)
        add('circuits.varsets_exp', nvars, min(vs))
        smoothed = smooth(read_nnf(text))
        weights = WeightMap.from_probabilities(gen.literal_probs(nvars))
        add('queries.wmc_exp', nvars, _best(t, 'queries.wmc', wmc, smoothed, weights))

        nfacts = max(6, int(ProvTid.FACTS * scale * frac))
        tid = TID.from_tsv(gen.tid_text(gen.hierarchical_tid(rng, nfacts)))
        add('provenance.shapley_exp', nfacts,
            _best(t, 'provenance.shapley_all', shapley_all, hier, tid))

        nodes = gen.random_tree(rng, max(5, int(ProvTid.TREE_NODES * scale * frac)))
        tree = build_tree(nodes)
        add('trees.compile_exp', len(nodes),
            _best(t, 'trees.compile', provenance_tree, automaton, tree))
    return {name: fit_exponent(sizes, times)
            for name, (sizes, times) in series.items()}
