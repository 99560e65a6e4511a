"""Ceiling probes: inputs just past limits measured on the seed.

Each probe is one operation that fails today through a recursion limit or
a hidden width ceiling.  A later change that removes the ceiling makes the
probe pass, and its answer is then checked against a reference.  The
probes run after every timing is taken, under an address-space limit, so a
probe that passes its ceiling but still grows quadratically stops with
MemoryError instead of exhausting a shared machine.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import traceback

from kcomp import (TID, CircuitBuilder, automaton_from_json, compile_dpll,
                   enumerate_models, model_count, parse_cq, parse_dimacs, pqe,
                   pqe_tree, smooth)
from kcomp.queries import ApproxParams

import gen
import refs
from sweep import build_tree

HEADROOM_BYTES = 1536 << 20


def chain_cnf(t, rng):
    """compile_dpll on a 500-variable implication chain (n + 1 models)."""
    n = 500
    formula = t.call('cnf.parse', parse_dimacs, gen.dimacs(n, gen.implication_chain(n)))
    circuit, _ = t.call('cnf.compile', compile_dpll, formula)
    return t.call('queries.count', model_count, smooth(circuit)) == n + 1


def obdd_enum(t, rng):
    """enumerate_models on a 300-variable OBDD of x0 -> x1 -> ... -> x299."""
    n = 300
    b = CircuitBuilder(n)
    free, ones = b.true(), b.true()
    for v in range(n - 1, -1, -1):
        free, ones = b.decision(v, free, ones), b.decision(v, b.false(), ones)
    models = t.call('queries.enum', lambda: list(enumerate_models(b.finish(free))))
    seen = {refs.model_index(m) for m in models}
    clauses = gen.implication_chain(n)
    return (len(models) == len(seen) == n + 1
            and all(refs.satisfies(clauses, m) for m in models))


def approx_wide(t, rng):
    """Approximate PQE of a non-hierarchical query on more than 62 facts."""
    blocks = gen.component_tid(rng, 80)
    facts = [f for b in blocks for f in b]
    tid = t.call('provenance.parse', TID.from_tsv, gen.tid_text(facts))
    params = ApproxParams(0.1, 0.05, rng.randrange(1 << 30))
    est = t.call('provenance.pqe_approx', pqe, parse_cq(gen.NONHIER_QUERY), tid,
                 mode='approx', params=params)
    exact = refs.component_probability(blocks)
    return abs(est - exact) <= exact / 10


def deep_tree(t, rng):
    """pqe_tree on a caterpillar 1200 levels deep (2401 nodes)."""
    nodes = gen.caterpillar_tree(rng, 1200)
    automaton = gen.mod3_automaton()
    got = t.call('trees.pqe_tree', pqe_tree,
                 automaton_from_json(json.dumps(automaton)), build_tree(nodes))
    return got == refs.tree_probability(nodes, automaton, gen.TREE_DEFAULT)


PROBES = (chain_cnf, obdd_enum, approx_wide, deep_tree)


def limit_address_space() -> None:
    """Cap this process's address space at its current size plus headroom."""
    with open('/proc/self/statm', encoding='ascii') as fh:
        pages = int(fh.read().split()[0])
    limit = pages * os.sysconf('SC_PAGE_SIZE') + HEADROOM_BYTES
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def run(t, rng) -> list:
    """(probe name, outcome) per probe; outcome is 'ok', 'wrong' or the
    exception type."""
    out = []
    for probe in PROBES:
        gc.collect()
        try:
            outcome = 'ok' if probe(t, rng) else 'wrong'
        except Exception as exc:
            # RecursionError and MemoryError are the expected ceilings;
            # an error outside a kcomp call is a benchmark defect
            outcome = type(exc).__name__
            if not getattr(exc, 'counted', False):
                traceback.print_exc(file=sys.stderr)
        out.append((probe.__name__, outcome))
    return out
