"""Acceptance criteria, one test per criterion.

Each test prints a `criterion N PASS` line (visible with pytest -s) and
enforces its runtime budget.  Oracles come from tests/oracles.py and are
independent of the library's algorithmic paths.
"""

import gc
import math
import random
import time
from fractions import Fraction

from kcomp.circuits import (BoolCircuit, CircuitBuilder, classify,
                            respects_vtree, smooth)
from kcomp.cli import main as cli_main
from kcomp.cnf import compile_dpll
from kcomp.cq import (ConjunctiveQuery, Database, answer_access, answer_count,
                      answer_enum, compile_cq, is_free_connex, parse_cq)
from kcomp.nnf_io import read_nnf, write_nnf
from kcomp.provenance import (TID, FactVar, pqe, provenance_circuit_sjf,
                              shapley, shapley_all, uniform_reliability)
from kcomp.queries import (FLOAT, ApproxParams, WeightMap, approx_count_dnf,
                           best_valuation, count_by_cardinality,
                           enumerate_models, model_count, sample_uniform,
                           satisfiable, wmc)
from kcomp.circuits import DNFFormula
from kcomp.trees import ProbTree, pqe_tree, provenance_tree

from oracles import (count_models, dnf_probability, join_answers, models_of,
                     query_true_on, run_automaton_naive, shapley_direct,
                     truth_table, valuation_to_bits, weighted_sum)
from test_circuits import DEMO_ROWS, demo_decision, demo_dnnf
from test_queries import random_decision_circuit
from test_cnf import random_cnf
from test_trees import random_automaton, random_tree


def report(num, text):
    print(f"\ncriterion {num} PASS: {text}")


def test_criterion_1_demo_table_fixed_point():
    start = time.perf_counter()
    dnnf = demo_dnnf()
    decision = demo_decision()
    enumerated = {valuation_to_bits(v, dnnf.sorted_vars())
                  for v in enumerate_models(dnnf)}
    assert enumerated == DEMO_ROWS
    enumerated_dec = {valuation_to_bits(v, decision.sorted_vars())
                      for v in enumerate_models(decision)}
    assert enumerated_dec == DEMO_ROWS
    smoothed = smooth(decision)
    assert model_count(smoothed) == 6
    assert count_by_cardinality(smoothed) == [0, 1, 3, 2, 0]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"6 rows, count 6, weights [0,1,3,2,0] in {elapsed:.3f}s")


def test_criterion_2_provenance_fixed_point():
    start = time.perf_counter()
    query = parse_cq("Q() :- R(x), S(y).")
    db = Database({'R': {('a',), ('a2',)}, 'S': {('b',)}})
    circuit = provenance_circuit_sjf(query, db)
    # reference function (Ra or Ra2) and Sb over the canonical fact order
    fv = FactVar(db)
    ra, ra2, sb = (fv.var_of[('R', ('a',))], fv.var_of[('R', ('a2',))],
                   fv.var_of[('S', ('b',))])
    b = CircuitBuilder(3)
    reference = b.finish(b.conj((b.disj((b.literal(ra), b.literal(ra2))),
                                 b.literal(sb))))
    assert truth_table(circuit) == truth_table(reference)
    assert uniform_reliability(query, db) == 3
    tid = TID.uniform(db)
    assert pqe(query, tid) == Fraction(3, 8)
    values = shapley_all(query, tid)
    assert values[('R', ('a',))] == values[('R', ('a2',))]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"provenance equivalent, UR=3, PQE=3/8, symmetric Shapley "
              f"in {elapsed:.3f}s")


def test_criterion_3_circuit_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(2024)
    checked = 0
    for case in range(200):
        if case % 2 == 0:
            n = rng.randint(3, 8)
            formula = random_cnf(rng, n, rng.randint(2, 2 * n))
            circuit, _ = compile_dpll(formula)
            if not circuit.universe:
                circuit = CircuitBuilder(n).finish(CircuitBuilder(n).true())
        else:
            n = rng.randint(3, 12) if rng.random() < 0.2 else rng.randint(3, 8)
            circuit = random_decision_circuit(rng, range(n))
        smoothed = smooth(circuit)
        assert model_count(smoothed) == count_models(circuit)
        weights = WeightMap({(v, pol): Fraction(rng.randint(1, 9), rng.randint(1, 9))
                             for v in circuit.universe for pol in (True, False)})
        assert wmc(smoothed, weights) == weighted_sum(circuit, weights)
        got = [valuation_to_bits(v, circuit.sorted_vars())
               for v in enumerate_models(circuit)]
        assert len(got) == len(set(got))
        assert set(got) == models_of(circuit)
        if satisfiable(smoothed):
            probs = {v: Fraction(rng.randint(1, 9), 10) for v in circuit.universe}
            wmap = WeightMap.from_probabilities(probs)
            val, weight = best_valuation(smoothed, wmap)
            best = max((math.prod((probs[v] if bits[j] == '1' else 1 - probs[v])
                                  for j, v in enumerate(circuit.sorted_vars())))
                       for bits in models_of(circuit))
            assert weight == best
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 200
    assert elapsed < 30.0
    report(3, f"200 circuits agree with truth-table oracles in {elapsed:.1f}s")


def _random_free_connex(rng):
    pool = ['x', 'y', 'z', 'w']
    while True:
        atoms = []
        for i in range(rng.randint(1, 3)):
            arity = rng.randint(1, 3)
            atoms.append((f"R{i}", tuple(rng.choice(pool) for _ in range(arity))))
        used = sorted({v for _, vs in atoms for v in vs})
        head = tuple(v for v in used if rng.random() < 0.6)
        q = ConjunctiveQuery(head, tuple(atoms))
        if is_free_connex(q):
            return q


def test_criterion_4_cq_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(4242)
    case = 0
    while case < 100:
        q = _random_free_connex(rng)
        if case < 90:
            per_rel = rng.randint(1, 25)
            alphabet = 5
        else:
            per_rel = rng.randint(200, 1200)
            alphabet = 30
        rels = {}
        for rel, vs in q.atoms:
            rels.setdefault(rel, set())
            for _ in range(per_rel):
                rels[rel].add(tuple(str(rng.randint(0, alphabet))
                                    for _ in vs))
        db = Database(rels)
        expect = join_answers(q.head, q.atoms,
                              {r: sorted(f) for r, f in db.relations.items()})
        if len(expect) > 100_000:
            continue
        case += 1
        got = {tuple(t[v] for v in q.head) for t in answer_enum(q, db)}
        assert got == expect
        count = answer_count(q, db)
        assert count == len(expect)
        expect_sorted = sorted(expect)
        if count:
            probes = {1, count, max(1, count // 2)}
            if count > 3:
                probes.add(rng.randint(1, count))
            for i in probes:
                assert tuple(answer_access(q, db, i)[v] for v in q.head) \
                    == expect_sorted[i - 1]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(4, f"100 queries agree with the nested-loop oracle in {elapsed:.1f}s")


def test_criterion_5_compiled_size_scales_linearly():
    start = time.perf_counter()
    q = parse_cq("Q(x, y) :- R(x, y), S(y).")
    rng = random.Random(99)
    sizes = []
    for n in (1000, 2000, 4000):
        rels = {'R': set(), 'S': set()}
        while len(rels['R']) < n:
            rels['R'].add((f"k{rng.randint(0, n // 5)}",
                           f"v{rng.randint(0, 49):02d}"))
        rels['S'] = {(f"v{y:02d}",) for y in range(0, 50, 2)}
        circuit = compile_cq(q, Database(rels))
        sizes.append(circuit.size)
    assert sizes[1] <= 2.5 * sizes[0], sizes
    assert sizes[2] <= 2.5 * sizes[1], sizes
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(5, f"sizes {sizes} for 1000/2000/4000 facts in {elapsed:.1f}s")


def _block_circuit(blocks):
    """Decomposable AND of independent two-model decision blocks."""
    b = CircuitBuilder(2 * blocks)
    parts = []
    for i in range(2 * blocks - 1, 0, -2):
        inner = b.decision(i, b.true(), b.false())
        outer = b.decision(i - 1, inner, _flip(b, inner, i))
        parts.append(outer)
    return b.finish(b.conj(tuple(parts)))


def _flip(b, _inner, var):
    return b.decision(var, b.false(), b.true())


def _fit_exponent(sizes, times):
    n = len(sizes)
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    num = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    den = sum((x - mean_x) ** 2 for x in xs)
    return num / den


def _seconds_per_call(cases, window=0.02):
    """Mean time of run(fresh()) for each (run, fresh) case, fresh() not
    timed, over as many calls as it takes for each case's timed calls to
    add up to `window` seconds.  The case with the least time so far runs
    next, so that a slow spell of a shared machine falls on all cases
    alike; the garbage collector is off during timed calls, as in timeit."""
    totals = [0.0] * len(cases)
    calls = [0] * len(cases)
    while min(totals) < window:
        i = totals.index(min(totals))
        run, fresh = cases[i]
        arg = fresh()
        gc.disable()
        try:
            t0 = time.perf_counter()
            run(arg)
            totals[i] += time.perf_counter() - t0
        finally:
            gc.enable()
        calls[i] += 1
    return [total / n for total, n in zip(totals, calls)]


def _uncounted_copy(circuit):
    """model_count caches its counts in the circuit; a copy smoothed like
    the original has its flags cached but no counts."""
    return smooth(BoolCircuit(circuit.nodes, circuit.output, circuit.universe))


def _wmc_call(weights):
    return lambda circuit: wmc(circuit, weights, FLOAT)


def test_criterion_6_complexity_smoke():
    # every size is timed over about 20 ms of calls, interleaved with the
    # other sizes, so that neither one disturbed call nor a slow spell of
    # the machine can move the fitted exponent
    block_counts = (40, 80, 160, 320, 400)
    circuits = [smooth(_block_circuit(k)) for k in block_counts]
    sizes = [circuit.size for circuit in circuits]
    cases = ([(model_count, lambda c=c: _uncounted_copy(c)) for c in circuits]
             + [(_wmc_call(WeightMap.constant(c.universe, 0.5)), lambda c=c: c)
                for c in circuits])
    best = [float('inf')] * len(cases)
    for _ in range(3):
        best = list(map(min, best, _seconds_per_call(cases)))
    count_times = best[:len(circuits)]
    wmc_times = best[len(circuits):]
    count_exp = _fit_exponent(sizes, count_times)
    wmc_exp = _fit_exponent(sizes, wmc_times)
    assert count_exp <= 1.2, (sizes, count_times, count_exp)
    assert wmc_exp <= 1.2, (sizes, wmc_times, wmc_exp)

    # per-answer delay must not grow with the number already emitted
    chain = random_chain_circuit(16)
    deltas = []
    last = time.perf_counter()
    for _ in enumerate_models(chain):
        now = time.perf_counter()
        deltas.append(now - last)
        last = now
    decile = len(deltas) // 10
    first = sum(deltas[:decile]) / decile
    tail = sum(deltas[-decile:]) / decile
    assert tail <= 3 * first, (first, tail)
    report(6, f"count exponent {count_exp:.2f}, weighted {wmc_exp:.2f}, "
              f"delay ratio {tail / first:.2f}")


def random_chain_circuit(n):
    """Decision chain over n variables accepting everything."""
    b = CircuitBuilder(n)
    node = b.true()
    for var in range(n - 1, -1, -1):
        node = b.decision(var, node, node)
    return b.finish(node)


def _fixed_dnfs(rng):
    cases = []
    while len(cases) < 20:
        n = rng.randint(3, 8)
        m = rng.randint(2, 5)
        terms = []
        for _ in range(m):
            width = rng.randint(1, 3)
            vs = rng.sample(range(n), min(width, n))
            terms.append(frozenset((v, rng.random() < 0.7) for v in vs))
        try:
            dnf = DNFFormula(n, tuple(terms))
        except ValueError:
            continue
        probs = {v: rng.choice([Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)])
                 for v in range(n)}
        exact = dnf_probability(dnf.terms, probs)
        if exact == 0:
            continue
        cases.append((dnf, probs, exact))
    return cases


def test_criterion_7_karp_luby_band():
    start = time.perf_counter()
    rng = random.Random(777)
    for dnf, probs, exact in _fixed_dnfs(rng):
        hits = 0
        for seed in range(100):
            estimate = approx_count_dnf(dnf, probs,
                                        ApproxParams(0.1, Fraction(1, 3), seed))
            if abs(estimate - exact) <= Fraction(1, 10) * exact:
                hits += 1
        assert hits >= 80, (dnf.terms, exact, hits)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(7, f"20 formulas, every one with at least 80/100 runs in band, "
              f"in {elapsed:.1f}s")


def test_criterion_8_sampling_uniformity():
    circuit = smooth(demo_decision())
    rng = random.Random(31337)
    draws = 60_000
    freq = {}
    for _ in range(draws):
        bits = valuation_to_bits(sample_uniform(circuit, rng),
                                 circuit.sorted_vars())
        freq[bits] = freq.get(bits, 0) + 1
    assert set(freq) == DEMO_ROWS
    expected = draws / 6
    chi2 = sum((f - expected) ** 2 / expected for f in freq.values())
    assert chi2 < 15.086     # 0.99 quantile, 5 degrees of freedom
    report(8, f"chi-square {chi2:.2f} over 6 outcomes with {draws} draws")


def test_criterion_9_tree_provenance():
    start = time.perf_counter()
    rng = random.Random(55)
    for _ in range(50):
        automaton = random_automaton(rng, rng.randint(1, 3))
        tree = random_tree(rng, rng.randint(3, 12))
        n = tree.node_count()
        prob_tree = ProbTree(tree, {i: Fraction(rng.randint(0, 4), 4)
                                    for i in range(n)})
        circuit, vtree = provenance_tree(automaton, prob_tree)
        rep = classify(circuit)
        assert rep.is_decomposable and rep.all_or_decision
        assert respects_vtree(circuit, vtree)
        expect = Fraction(0)
        for mask in range(1 << n):
            keep = [(mask >> (n - 1 - j)) & 1 for j in range(n)]
            pos = [0]

            def relabel(node):
                idx = pos[0]
                pos[0] += 1
                label = node.label if keep[idx] else prob_tree.default
                if node.is_leaf():
                    return ('leaf', label)
                return ('node', label, relabel(node.left), relabel(node.right))

            world = relabel(tree)
            p = Fraction(1)
            for j in range(n):
                pj = prob_tree.prob[j]
                p *= pj if keep[j] else 1 - pj
            if run_automaton_naive(automaton.leaf_transition,
                                   automaton.internal_transition,
                                   automaton.accepting, world):
                expect += p
        assert pqe_tree(automaton, prob_tree) == expect
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(9, f"50 automaton/tree pairs exact, all circuits certified, "
              f"in {elapsed:.1f}s")


def _random_hierarchical_instance(rng):
    shapes = [
        "Q() :- R(x).",
        "Q() :- R(x), S(x, y).",
        "Q() :- R(x), S(x, y), T(x, y, z).",
        "Q() :- R(x), S(y).",
        "Q() :- R(x, y), S(x).",
        "Q() :- R(x), S(x), T(y).",
    ]
    q = parse_cq(rng.choice(shapes))
    rels = {rel: set() for rel, _ in q.atoms}
    arity = {rel: len(vs) for rel, vs in q.atoms}
    for _ in range(rng.randint(1, 8)):
        rel = rng.choice(list(rels))
        rels[rel].add(tuple(rng.choice('ab') for _ in range(arity[rel])))
    db = Database(rels)
    facts = db.facts()
    kinds = {f: ('x' if rng.random() < 0.25 else 'n') for f in facts}
    endo = [f for f in facts if kinds[f] == 'n']
    if len(endo) > 8:
        for f in endo[8:]:
            kinds[f] = 'x'
    if not any(k == 'n' for k in kinds.values()):
        kinds[facts[0]] = 'n'
    tid = TID(db, {f: Fraction(1, 2) for f in facts}, kinds)
    return q, tid


def test_criterion_10_shapley():
    rng = random.Random(606)
    checked = 0
    while checked < 50:
        q, tid = _random_hierarchical_instance(rng)
        endo = tid.endogenous()
        exo = tid.exogenous()
        if not endo:
            continue

        def value(subset):
            return 1 if query_true_on(q.head, q.atoms, exo + sorted(subset)) else 0

        total = Fraction(0)
        for target in endo:
            got = shapley(q, tid, target)
            assert got == shapley_direct(endo, value, target)
            total += got
        all_facts = tid.db.facts()
        full = 1 if query_true_on(q.head, q.atoms, all_facts) else 0
        base = 1 if query_true_on(q.head, q.atoms, exo) else 0
        assert total == full - base
        checked += 1
    report(10, "50 instances match the permutation oracle with efficiency")


def test_criterion_11_format_fidelity(tmp_path, capsys):
    rng = random.Random(8)
    circuits = [demo_dnnf(), demo_decision()]
    for _ in range(10):
        formula = random_cnf(rng, rng.randint(1, 8), rng.randint(1, 12))
        circuits.append(compile_dpll(formula)[0])
    for circuit in circuits:
        first = write_nnf(circuit)
        second = write_nnf(read_nnf(first))
        assert first == second

    q_path = tmp_path / "q.cq"
    q_path.write_text("Q() :- R(x).\n")
    bad_dimacs = [
        "p cnf 2 3\n1 0\n",                # clause count mismatch
        "p cnf 1 1\n2 0\n",                # literal out of range
        "p qbf 1 1\n1 0\n",                # malformed header
    ]
    for text in bad_dimacs:
        path = tmp_path / "bad.cnf"
        path.write_text(text)
        assert cli_main(['compile-cnf', '--cnf', str(path)]) == 2
    bad_tsv = ["norelation\n", "R\n"]
    for text in bad_tsv:
        path = tmp_path / "bad.tsv"
        path.write_text(text)
        assert cli_main(['cq-count', '--query', str(q_path),
                         '--db', str(path)]) == 2
    bad_tid = ["R\ta\t0.5\n", "R\ta\ttwo\tn\n", "R\ta\t0.5\tz\n"]
    for text in bad_tid:
        path = tmp_path / "bad_tid.tsv"
        path.write_text(text)
        assert cli_main(['pqe', '--query', str(q_path),
                         '--tid', str(path)]) == 2
    capsys.readouterr()
    report(11, "byte-identical round trips; malformed inputs exit 2")
