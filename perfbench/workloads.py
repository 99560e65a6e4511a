"""The three workloads: seeded inputs with reference answers, one timed
pass over the full user pipeline, and the traced extras.

A pass has three phases, each timed as a whole with a `gc.collect()` before
it: `compile` (text in to certified, queryable circuits), `query` (the
workload's query batch) and `enum` (an enumeration batch).  Answers are
collected inside the phases and checked against the references after them,
so checking costs no measured time.  Every pass compiles fresh circuits,
because kcomp caches counts, reports and access indexes on circuit objects.
"""

from __future__ import annotations

import contextlib
import gc
import io
import itertools
import json
import os
import random
import sys
import traceback
from collections import Counter
from fractions import Fraction
from math import factorial
from time import perf_counter

from kcomp import (TID, ApproxParams, Database, FactVar, WeightMap,
                   approx_count_dnf, automaton_from_json, best_valuation,
                   classify, classify_rel, compile_cq, compile_dpll, condition,
                   count_by_cardinality, count_rel, direct_access,
                   enumerate_models, enumerate_rel, model_count, parse_cq,
                   parse_dimacs, pqe, pqe_tree, provenance_dnf,
                   provenance_read_once, provenance_tree, read_nnf, read_rel,
                   read_once_to_obdd, sample_uniform, shapley_all, smooth,
                   tree_from_json, uniform_reliability, wmc, write_nnf,
                   write_rel)
from kcomp.cli import main as cli_main
from kcomp.queries import karp_luby_sample_count

import gen
import refs


class PassResult:
    def __init__(self):
        self.phase_s = Counter()       # compile / query / enum -> seconds
        self.enum_items = 0
        self.edges = 0
        self.counts = Counter()        # exact per-pass counters
        self.delays = {}               # enum call name -> per-item delays

    @contextlib.contextmanager
    def phase(self, t, name):
        gc.collect()
        with t.section(name):
            start = perf_counter()
            try:
                yield
            finally:
                self.phase_s[name] += perf_counter() - start


def guard(t, fn, *args):
    """Run one item of a phase; an exception skips the rest of the item.

    kcomp errors are already counted by the tracer; anything else is a
    benchmark defect, counted too and reported on stderr.
    """
    try:
        return fn(*args)
    except Exception as exc:
        if getattr(exc, 'counted', False):
            return None
        t.errors['perfbench'] += 1
        traceback.print_exc(file=sys.stderr)
        return None


def drain(make_iter, limit, delays):
    """Consume up to `limit` items; with a `delays` list, record the time
    between consecutive items."""
    out = []
    it = make_iter()
    if delays is None:
        out.extend(itertools.islice(it, limit))
        return out
    last = perf_counter()
    for item in itertools.islice(it, limit):
        now = perf_counter()
        delays.append(now - last)
        last = now
        out.append(item)
    return out


# -- cq_db --------------------------------------------------------------------------

class CqDb:
    name = 'cq_db'
    FACTS = 3000
    ACCESS = 100000

    def prepare(self, rng, scale):
        rels = gen.cq_database(rng, max(8, int(self.FACTS * scale)))
        self.text = gen.tsv(rels)
        self.num_facts = sum(len(v) for v in rels.values())
        self.queries = []
        for qtext, head, answers in (
                (gen.PATH_QUERY, ('x', 'y', 'z'), refs.path_answers(rels)),
                (gen.STAR_QUERY, ('x', 'y'), refs.star_answers(rels))):
            ranks = [rng.randrange(1, len(answers) + 1)
                     for _ in range(max(1, int(self.ACCESS * scale) // 2))]
            self.queries.append({'text': qtext, 'head': head, 'answers': answers,
                                 'ranks': ranks, 'sorted': {}})

    def ref_sorted(self, q, attrs):
        if attrs not in q['sorted']:
            q['sorted'][attrs] = refs.lex_sorted(q['answers'], q['head'], attrs)
        return q['sorted'][attrs]

    def run_pass(self, t, trace, workdir):
        res = PassResult()
        circuits = []
        with res.phase(t, 'compile'):
            db = guard(t, t.call, 'cq.db_parse', Database.from_tsv, self.text)
            for q in self.queries:
                circuits.append(guard(t, self._compile, t, q, db, res))
        got = [{} for _ in self.queries]
        with res.phase(t, 'query'):
            for q, g, c in zip(self.queries, got, circuits):
                if c is not None:
                    g['count'] = guard(t, t.call, 'relational.count', count_rel, c)
                    g['access'] = guard(t, self._access, t, c, q['ranks'])
        with res.phase(t, 'enum'):
            for g, c in zip(got, circuits):
                if c is not None:
                    delays = [] if trace else None
                    g['enum'] = guard(t, t.call, 'relational.enum', drain,
                                      lambda c=c: enumerate_rel(c), None, delays)
                    if g['enum'] is not None:
                        res.enum_items += len(g['enum'])
                        res.delays.setdefault('relational.enum', []).append(delays)
        for q, c, g in zip(self.queries, circuits, got):
            if c is not None:
                self._check(t, q, c, g)
        res.counts['cq.edges_per_fact'] = res.edges / self.num_facts
        return res

    def _compile(self, t, q, db, res):
        query = t.call('cq.parse', parse_cq, q['text'])
        compiled = t.call('cq.compile', compile_cq, query, db)
        report = t.call('relational.classify', classify_rel, compiled)
        t.check('relational.classify', report.ordered_witness is not None)
        text = t.call('relational.io', write_rel, compiled)
        circuit = t.call('relational.io', read_rel, text)
        t.check('relational.io', circuit.size == compiled.size)
        res.edges += compiled.size
        rank = q['ranks'][0]
        first = t.call('relational.access_index', direct_access, circuit, rank)
        attrs = tuple(circuit.attrs)
        t.check('relational.access_index', set(attrs) == set(q['head']) and
                tuple(first[a] for a in attrs) == _at(self.ref_sorted(q, attrs), rank - 1, None))
        return circuit

    @staticmethod
    def _access(t, circuit, ranks):
        return [t.call('relational.access', direct_access, circuit, r) for r in ranks]

    def _check(self, t, q, circuit, got):
        attrs = tuple(circuit.attrs)
        expect = self.ref_sorted(q, attrs)
        if got.get('count') is not None:
            t.check('relational.count', got['count'] == len(expect))
        if got.get('access') is not None:
            bad = sum(tuple(a[x] for x in attrs) != _at(expect, r - 1, None)
                      for r, a in zip(q['ranks'], got['access']))
            t.check('relational.access', bad == 0)
        if got.get('enum') is not None:
            t.check('relational.enum',
                    sorted(tuple(a[x] for x in attrs) for a in got['enum']) == expect)


# -- cnf_kc -----------------------------------------------------------------------------

class CnfKc:
    name = 'cnf_kc'
    BANDED = (4, 200)        # instances, variables
    RANDOM = (12, 24, 2.5)   # instances, variables, clause ratio
    SAMPLES = 8
    ENUM_LIMIT = 3000
    PINNED = {0: 1, 1: 0}

    def prepare(self, rng, scale):
        # formulas come from a stream fixed by the size and the seed flips
        # the sign of each variable: that changes every answer but keeps
        # the circuit shape, so the cost does not follow the seed.  The
        # first random formula, on half the variables and so a small share
        # of the work, is drawn from the seed alone, so one shape varies.
        self.instances = []
        nb, vb = self.BANDED
        n = max(8, int(vb * scale))
        shapes = random.Random(n)
        probs = gen.literal_probs(n)
        for _ in range(max(1, round(nb * min(1.0, scale * 4)))):
            clauses = gen.flip_signs(rng, gen.banded_cnf(shapes, n))
            self._add(n, clauses, probs, refs.BandedAnswers(n, clauses, probs))
        nr, vr, ratio = self.RANDOM
        n = max(6, min(vr, int(vr * scale ** 0.25)))
        shapes = random.Random(n)
        probs = gen.literal_probs(n)
        for i in range(max(1, round(nr * min(1.0, scale * 4)))):
            size = n // 2 if i == 0 else n
            while True:
                clauses = gen.flip_signs(rng, gen.random_cnf(
                    rng if i == 0 else shapes, size, int(ratio * size)))
                ref = refs.ModelSet(size, clauses, probs)
                if ref.count:
                    break
            self._add(size, clauses, probs, ref)
        self.sample_seed = rng.randrange(1 << 30)

    def _add(self, n, clauses, probs, ref):
        self.instances.append({
            'n': n, 'clauses': clauses, 'text': gen.dimacs(n, clauses),
            'banded': isinstance(ref, refs.BandedAnswers), 'ref': ref,
            'weights': WeightMap.from_probabilities(probs)})

    def run_pass(self, t, trace, workdir):
        res = PassResult()
        built = []
        with res.phase(t, 'compile'):
            for inst in self.instances:
                built.append(guard(t, self._compile, t, inst, res))
            path = os.path.join(workdir, 'cnf0.nnf')
            if built[0] is not None:
                with open(path, 'w', encoding='utf-8') as out:
                    out.write(built[0][2])
        got = [{} for _ in self.instances]
        rng = random.Random(self.sample_seed)
        with res.phase(t, 'query'):
            for inst, b, g in zip(self.instances, built, got):
                if b is not None:
                    guard(t, self._query, t, inst, b[1], g, rng)
            if built[0] is not None:
                got[0]['cli'] = guard(t, t.call, 'cli.count', _run_cli,
                                      ['count', '--nnf', path])
        with res.phase(t, 'enum'):
            for inst, b, g in zip(self.instances, built, got):
                if b is not None and not inst['banded']:
                    delays = [] if trace else None
                    g['enum'] = guard(t, t.call, 'queries.enum', drain,
                                      lambda c=b[0]: enumerate_models(c),
                                      self.ENUM_LIMIT, delays)
                    if g['enum'] is not None:
                        res.enum_items += len(g['enum'])
                        res.delays.setdefault('queries.enum', []).append(delays)
        for inst, g in zip(self.instances, got):
            self._check(t, inst, g)
        return res

    def _compile(self, t, inst, res):
        formula = t.call('cnf.parse', parse_dimacs, inst['text'])
        compiled, stats = t.call('cnf.compile', compile_dpll, formula)
        text = t.call('nnf_io.write', write_nnf, compiled)
        circuit = t.call('nnf_io.read', read_nnf, text)
        t.check('nnf_io.read', circuit.size == compiled.size)
        t.call('circuits.varsets', circuit.varsets)
        report = t.call('circuits.classify', classify, circuit)
        t.check('circuits.classify', report.is_nnf and report.is_decomposable
                and report.all_or_decision)
        smoothed = t.call('circuits.smooth', smooth, circuit)
        res.edges += compiled.size
        res.counts['circuits.smooth_edges_added'] += smoothed.size - circuit.size
        res.counts['cnf.decisions'] += stats.decision_count
        res.counts['cnf.component_splits'] += stats.component_splits
        res.counts['cnf.cache_hits'] += stats.cache_hits
        res.counts['cnf.cache_lookups'] += stats.cache_hits + stats.peak_cache_entries
        return circuit, smoothed, text

    def _query(self, t, inst, s, g, rng):
        g['count'] = t.call('queries.count', model_count, s)
        g['wmc'] = t.call('queries.wmc', wmc, s, inst['weights'])
        g['card'] = t.call('queries.cardinality', count_by_cardinality, s)
        g['best'] = t.call('queries.best', best_valuation, s, inst['weights'])
        g['samples'] = [t.call('queries.sample', sample_uniform, s, rng)
                        for _ in range(self.SAMPLES)]
        cond = t.call('circuits.condition', condition, s, self.PINNED)
        g['cond'] = t.call('queries.count', model_count, cond,
                           assume_deterministic=True)

    def _check(self, t, inst, g):
        ref, clauses, n, banded = inst['ref'], inst['clauses'], inst['n'], inst['banded']
        if 'count' in g:
            t.check('queries.count', g['count'] == ref.count)
        if 'wmc' in g:
            t.check('queries.wmc', g['wmc'] == ref.wmc)
        if 'card' in g:
            card = list(g['card']) + [0] * (n + 1 - len(g['card']))
            t.check('queries.cardinality', ref.cardinality_ok(card) if banded
                    else card == ref.cardinality)
        if 'best' in g:
            val, weight = g['best']
            w = Fraction(1)
            for v in range(n):
                w *= inst['weights'][(v, bool(val[v]))]
            t.check('queries.best', weight == ref.best and w == weight
                    and refs.satisfies(clauses, val))
        if 'samples' in g:
            t.check('queries.sample', all(refs.satisfies(clauses, s)
                                          for s in g['samples']))
        if 'cond' in g:
            expect = ref.cond_count if banded else ref.count_with(self.PINNED)
            t.check('circuits.condition', g['cond'] == expect)
        if g.get('cli') is not None:
            code, out = g['cli']
            t.check('cli.count', code == 0 and out.strip() == str(ref.count))
        if g.get('enum') is not None:
            models = g['enum']
            idx = {refs.model_index(m) for m in models}
            t.check('queries.enum', len(idx) == len(models)
                    == min(self.ENUM_LIMIT, ref.count)
                    and all(len(m) == n for m in models) and idx <= ref.models)


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


# -- prov_tid ------------------------------------------------------------------------------

class ProvTid:
    name = 'prov_tid'
    FACTS = 70
    SMALL_FACTS = 10
    APPROX_FACTS = 62
    APPROX_TIDS = 2
    TREE_NODES = 1001
    ENUM_LIMIT = 20000
    EPSILON, DELTA = 0.1, 0.05

    def prepare(self, rng, scale):
        self.facts = gen.hierarchical_tid(rng, max(6, int(self.FACTS * scale)))
        self.tid_text = gen.tid_text(self.facts)
        self.pqe_ref, self.ur_ref = refs.hierarchical_answers(self.facts)
        self.efficiency = refs.shapley_efficiency(self.facts)
        self.small = gen.hierarchical_tid(rng, self.SMALL_FACTS)
        self.small_text = gen.tid_text(self.small)
        self.small_ref = refs.shapley_brute(self.small)
        self.approx = []
        for _ in range(self.APPROX_TIDS):
            blocks = gen.component_tid(rng, max(8, int(self.APPROX_FACTS * scale)))
            self.approx.append({
                'text': gen.tid_text([f for b in blocks for f in b]),
                'exact': refs.component_probability(blocks),
                'params': ApproxParams(self.EPSILON, self.DELTA,
                                       rng.randrange(1 << 30))})
        self.automaton = gen.mod3_automaton()
        self.automaton_text = json.dumps(self.automaton)
        self.tree = gen.random_tree(rng, max(5, int(self.TREE_NODES * scale)))
        self.tree_text = gen.tree_json(self.tree)
        self.tree_ref = refs.tree_probability(self.tree, self.automaton,
                                              gen.TREE_DEFAULT)
        self.fact_order = sorted((rel, vals) for rel, vals, _, _ in self.facts)

    def run_pass(self, t, trace, workdir):
        res = PassResult()
        got = {}
        with res.phase(t, 'compile'):
            guard(t, self._compile, t, got, res)
        with res.phase(t, 'query'):
            guard(t, self._query, t, got)
        with res.phase(t, 'enum'):
            if got.get('obdd') is not None:
                delays = [] if trace else None
                got['enum'] = guard(t, t.call, 'queries.enum', drain,
                                    lambda: enumerate_models(got['obdd']),
                                    self.ENUM_LIMIT, delays)
                if got['enum'] is not None:
                    res.enum_items += len(got['enum'])
                    res.delays['queries.enum'] = [delays]
        if trace:
            with t.section('stages'):
                guard(t, self._stages, t, got, res)
        self._check(t, got)
        return res

    def _compile(self, t, got, res):
        got['tid'] = t.call('provenance.parse', TID.from_tsv, self.tid_text)
        got['small'] = t.call('provenance.parse', TID.from_tsv, self.small_text)
        got['approx'] = [t.call('provenance.parse', TID.from_tsv, a['text'])
                         for a in self.approx]
        got['q'] = t.call('cq.parse', parse_cq, gen.HIER_QUERY)
        got['qn'] = t.call('cq.parse', parse_cq, gen.NONHIER_QUERY)
        got['tree'] = t.call('trees.parse', tree_from_json, self.tree_text)
        got['aut'] = t.call('trees.parse', automaton_from_json, self.automaton_text)
        ro = t.call('provenance.read_once', provenance_read_once, got['q'], got['tid'].db)
        obdd = t.call('provenance.obdd', read_once_to_obdd, ro, len(self.facts))
        report = t.call('circuits.classify', classify, obdd)
        t.check('circuits.classify', report.obdd_order is not None)
        tree_circuit, _ = t.call('trees.compile', provenance_tree, got['aut'], got['tree'])
        report = t.call('circuits.classify', classify, tree_circuit)
        t.check('circuits.classify', report.is_decomposable and report.all_or_decision)
        res.edges += obdd.size + tree_circuit.size
        res.counts['trees.circuit_edges'] = tree_circuit.size
        got['obdd'] = obdd

    def _query(self, t, got):
        got['pqe'] = t.call('provenance.pqe', pqe, got['q'], got['tid'])
        got['ur'] = t.call('provenance.ur', uniform_reliability, got['q'], got['tid'].db)
        got['shapley'] = t.call('provenance.shapley_all', shapley_all, got['q'], got['tid'])
        got['small_shapley'] = t.call('provenance.shapley_all', shapley_all,
                                      got['q'], got['small'])
        got['approx_est'] = [
            t.call('provenance.pqe_approx', pqe, got['qn'], tid, mode='approx',
                   params=a['params'])
            for tid, a in zip(got['approx'], self.approx)]
        got['tree_pqe'] = t.call('trees.pqe_tree', pqe_tree, got['aut'], got['tree'])

    def _stages(self, t, got, res):
        """The composite calls of the query phase, one public stage at a
        time, so each module's self time is measured from outside."""
        q, tid = got['q'], got['tid']
        fv = FactVar(tid.db)
        n = len(fv)
        weights = WeightMap.from_probabilities(
            {fv.var_of[f]: Fraction(tid.prob[f]) for f in fv.facts})
        ro = t.call('provenance.read_once', provenance_read_once, q, tid.db)
        obdd = t.call('provenance.obdd', read_once_to_obdd, ro, n)
        smoothed = t.call('circuits.smooth', smooth, obdd)
        res.counts['circuits.smooth_edges_added'] += smoothed.size - obdd.size
        t.check('queries.wmc', t.call('queries.wmc', wmc, smoothed, weights) == self.pqe_ref)
        t.check('queries.count', t.call('queries.count', model_count, smoothed) == self.ur_ref)

        # shapley_all: per endogenous fact, rebuild, fix the exogenous facts,
        # then count subsets by size with the target in and out
        endo = tid.endogenous()
        exo = {fv.var_of[f]: 1 for f in tid.exogenous()}
        m = len(endo)
        total = Fraction(0)
        for target in endo:
            ro = t.call('provenance.read_once', provenance_read_once, q, tid.db)
            obdd = t.call('provenance.obdd', read_once_to_obdd, ro, n)
            fixed = t.call('circuits.condition', condition, obdd, exo)
            vecs = []
            for bit in (1, 0):
                part = t.call('circuits.condition', condition, fixed,
                              {fv.var_of[target]: bit})
                part = t.call('circuits.smooth', smooth, part)
                vecs.append(t.call('queries.cardinality', count_by_cardinality,
                                   part, assume_deterministic=True))
            value = sum((Fraction(factorial(k) * factorial(m - 1 - k), factorial(m))
                         * (_at(vecs[0], k) - _at(vecs[1], k)) for k in range(m)),
                        Fraction(0))
            total += value
            t.check('provenance.shapley_all', got.get('shapley', {}).get(target) == value)
        t.check('queries.cardinality', total == self.efficiency)

        for a, ctid in zip(self.approx, got['approx']):
            dnf = t.call('provenance.dnf', provenance_dnf, got['qn'], ctid.db)
            res.counts['provenance.dnf_terms'] += len(dnf.terms)
            res.counts['queries.approx_trials'] += t.call(
                'queries.approx', karp_luby_sample_count, len(dnf.terms), a['params'])
            cfv = FactVar(ctid.db)
            probs = {cfv.var_of[f]: Fraction(ctid.prob[f]) for f in cfv.facts}
            est = t.call('queries.approx', approx_count_dnf, dnf, probs, a['params'])
            t.check('queries.approx', est in got.get('approx_est', ()))

        circuit, _ = t.call('trees.compile', provenance_tree, got['aut'], got['tree'])
        t.call('circuits.varsets', circuit.varsets)
        smoothed = t.call('circuits.smooth', smooth, circuit)
        res.counts['circuits.smooth_edges_added'] += smoothed.size - circuit.size
        tprobs = {i: Fraction(got['tree'].prob[i]) for i in range(len(circuit.universe))}
        value = t.call('queries.wmc', wmc, smoothed, WeightMap.from_probabilities(tprobs))
        t.check('queries.wmc', value == self.tree_ref)

    def _check(self, t, got):
        if 'pqe' in got:
            t.check('provenance.pqe', got['pqe'] == self.pqe_ref)
        if 'ur' in got:
            t.check('provenance.ur', got['ur'] == self.ur_ref)
        if 'shapley' in got:
            t.check('provenance.shapley_all',
                    sum(got['shapley'].values(), Fraction(0)) == self.efficiency)
        if 'small_shapley' in got:
            t.check('provenance.shapley_all', got['small_shapley'] == self.small_ref)
        for est, a in zip(got.get('approx_est', ()), self.approx):
            t.check('provenance.pqe_approx',
                    abs(est - a['exact']) <= Fraction(self.EPSILON) * a['exact'])
        if 'tree_pqe' in got:
            t.check('trees.pqe_tree', got['tree_pqe'] == self.tree_ref)
        if got.get('enum') is not None:
            worlds = got['enum']
            keys = {refs.model_index(w) for w in worlds}
            ok = len(keys) == len(worlds) and all(
                self._holds(w) for w in worlds)
            t.check('queries.enum', ok)

    def _holds(self, world):
        present = {self.fact_order[v] for v, bit in world.items() if bit}
        return refs.holds_hierarchical(present)


def _at(seq, k, default=0):
    """seq[k], or `default` past its end."""
    return seq[k] if k < len(seq) else default


WORKLOADS = {w.name: w for w in (CqDb, CnfKc, ProvTid)}
