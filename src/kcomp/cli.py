"""Command-line entry point.

One subcommand per pipeline; results go to stdout one per line, diagnostics
to stderr.  Exit codes: 0 on success, 1 on domain errors (a well-formed
request the engine cannot serve), 2 on usage errors including malformed
input files.  Rationals print as fractions in lowest terms; --format json
emits one JSON object per line with numerator/denominator fields for exact
values.  --seed pins every randomized path.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import cnf as cnf_mod
from . import cq as cq_mod
from . import nnf_io, relational, trees
from .circuits import classify
from .errors import InputFormatError, KcompError
from .provenance import (TID, provenance_circuit_sjf, provenance_dnf,
                         provenance_read_once, pqe, shapley, shapley_all,
                         uniform_reliability)
from .queries import (ApproxParams, FLOAT, WeightMap, approx_count_dnf,
                      best_valuation, enumerate_models, model_count,
                      sample_uniform, wmc)


def _read(path: str) -> str:
    with open(path, 'r', encoding='utf-8') as handle:
        return handle.read()


def _write(path: str, text: str) -> None:
    with open(path, 'w', encoding='utf-8') as handle:
        handle.write(text)


def _emit(args, text_value, json_obj) -> None:
    if args.format == 'json':
        print(json.dumps(json_obj, sort_keys=True))
    else:
        print(text_value)


def _rational_json(value) -> dict:
    f = Fraction(value)
    return {"numerator": f.numerator, "denominator": f.denominator}


def _bits(circuit, valuation) -> str:
    return ''.join(str(valuation[v]) for v in circuit.sorted_vars())


def _load_probs(args, universe) -> dict:
    """Per-variable probabilities from --prob-file (1-based ids) or --p."""
    if getattr(args, 'prob_file', None):
        probs = {}
        for lineno, raw in enumerate(_read(args.prob_file).splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith('#'):
                continue
            parts = line.replace('\t', ' ').split()
            if len(parts) != 2:
                raise InputFormatError(f"prob file line {lineno}: expected "
                                       "`var probability`")
            try:
                var = int(parts[0]) - 1
                p = Fraction(parts[1])
            except (ValueError, ZeroDivisionError):
                raise InputFormatError(f"prob file line {lineno}: bad entry") from None
            probs[var] = _probability(p, f"prob file line {lineno}")
        missing = [v + 1 for v in universe if v not in probs]
        if missing:
            raise InputFormatError(f"prob file misses variables {missing}")
        return probs
    try:
        p = Fraction(str(args.p))
    except (ValueError, ZeroDivisionError):
        raise InputFormatError(f"--p: bad probability {args.p!r}") from None
    p = _probability(p, "--p")
    return {v: p for v in universe}


def _probability(p: Fraction, where: str) -> Fraction:
    if not 0 <= p <= 1:
        raise InputFormatError(f"{where}: probability {p} outside [0, 1]")
    return p


# -- Boolean circuit commands ---------------------------------------------------

def cmd_compile_cnf(args) -> int:
    formula = cnf_mod.parse_dimacs(_read(args.cnf))
    circuit, stats = cnf_mod.compile_dpll(formula, heuristic=args.heuristic)
    text = nnf_io.write_nnf(circuit)
    stats_line = (f"nodes={len(circuit.nodes)} edges={circuit.size} "
                  f"decisions={stats.decision_count} "
                  f"cache_hits={stats.cache_hits} "
                  f"component_splits={stats.component_splits}")
    if args.out:
        _write(args.out, text)
        _emit(args, stats_line,
              {"nodes": len(circuit.nodes), "edges": circuit.size,
               "decisions": stats.decision_count,
               "cache_hits": stats.cache_hits,
               "component_splits": stats.component_splits})
    else:
        sys.stdout.write(text)
        print(stats_line, file=sys.stderr)
    return 0


def cmd_check_class(args) -> int:
    circuit = nnf_io.read_nnf(_read(args.nnf))
    report = classify(circuit)
    order = ('-' if report.obdd_order is None
             else ','.join(str(v + 1) for v in report.obdd_order))
    flags = {
        "nnf": report.is_nnf,
        "decomposable": report.is_decomposable,
        "decision": report.all_or_decision,
        "deterministic": report.syntactic_deterministic,
        "smooth": report.is_smooth,
        "structured": report.structured_witness is not None,
        "obdd_order": order,
    }
    if args.format == 'json':
        print(json.dumps(flags, sort_keys=True))
    else:
        for key, value in flags.items():
            rendered = str(value).lower() if isinstance(value, bool) else value
            print(f"{key}={rendered}")
    return 0


def cmd_count(args) -> int:
    circuit = nnf_io.read_nnf(_read(args.nnf))
    count = model_count(circuit)
    _emit(args, str(count), {"count": count})
    return 0


def cmd_wmc(args) -> int:
    circuit = nnf_io.read_nnf(_read(args.nnf))
    probs = _load_probs(args, circuit.universe)
    weights = WeightMap.from_probabilities(probs)
    if args.float:
        value = wmc(circuit, WeightMap.from_probabilities(
            {v: float(p) for v, p in probs.items()}), FLOAT)
        _emit(args, repr(value), {"value": value})
    else:
        value = wmc(circuit, weights)
        _emit(args, str(value), _rational_json(value))
    return 0


def cmd_enum(args) -> int:
    circuit = nnf_io.read_nnf(_read(args.nnf))
    for i, valuation in enumerate(enumerate_models(circuit)):
        if args.limit is not None and i >= args.limit:
            break
        bits = _bits(circuit, valuation)
        _emit(args, bits, {"valuation": bits})
    return 0


def cmd_sample(args) -> int:
    circuit = nnf_io.read_nnf(_read(args.nnf))
    rng = random.Random(args.seed)
    for _ in range(args.count):
        bits = _bits(circuit, sample_uniform(circuit, rng))
        _emit(args, bits, {"valuation": bits})
    return 0


def cmd_best(args) -> int:
    circuit = nnf_io.read_nnf(_read(args.nnf))
    probs = _load_probs(args, circuit.universe)
    valuation, weight = best_valuation(circuit, WeightMap.from_probabilities(probs))
    bits = _bits(circuit, valuation)
    _emit(args, f"{bits}\t{weight}",
          {"valuation": bits, **_rational_json(weight)})
    return 0


def cmd_approx_dnf(args) -> int:
    from .circuits import DNFFormula
    terms = []
    max_var = 0
    for lineno, raw in enumerate(_read(args.dnf).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith('c'):
            continue
        try:
            lits = [int(t) for t in line.split()]
        except ValueError:
            raise InputFormatError(f"dnf line {lineno}: non-numeric literal") from None
        if 0 in lits:
            raise InputFormatError(f"dnf line {lineno}: zero literal")
        terms.append(frozenset((abs(l) - 1, l > 0) for l in lits))
        max_var = max([max_var] + [abs(l) for l in lits])
    dnf = DNFFormula(max_var, tuple(terms))
    probs = _load_probs(args, range(max_var))
    params = ApproxParams(args.epsilon, args.delta, args.seed)
    estimate = approx_count_dnf(dnf, probs, params)
    _emit(args, str(estimate), _rational_json(estimate))
    return 0


# -- conjunctive query commands ----------------------------------------------------

def _load_query(args):
    return cq_mod.parse_cq(_read(args.query))


def _load_db(args):
    import os
    if os.path.isdir(args.db):
        return cq_mod.Database.from_tsv_dir(args.db)
    return cq_mod.Database.from_tsv(_read(args.db))


def cmd_cq_compile(args) -> int:
    circuit = cq_mod.compile_cq(_load_query(args), _load_db(args))
    text = relational.write_rel(circuit)
    stats = f"nodes={len(circuit.nodes)} edges={circuit.size}"
    if args.out:
        _write(args.out, text)
        _emit(args, stats, {"nodes": len(circuit.nodes), "edges": circuit.size})
    else:
        sys.stdout.write(text)
        print(stats, file=sys.stderr)
    return 0


def cmd_cq_count(args) -> int:
    count = cq_mod.answer_count(_load_query(args), _load_db(args))
    _emit(args, str(count), {"count": count})
    return 0


def _answer_line(query, answer: dict) -> str:
    if not query.head:
        return "()"
    return "\t".join(str(answer[v]) for v in query.head)


def cmd_cq_enum(args) -> int:
    query = _load_query(args)
    db = _load_db(args)
    for i, answer in enumerate(cq_mod.answer_enum(query, db)):
        if args.limit is not None and i >= args.limit:
            break
        _emit(args, _answer_line(query, answer),
              {"answer": {v: answer[v] for v in query.head}})
    return 0


def cmd_cq_access(args) -> int:
    query = _load_query(args)
    answer = cq_mod.answer_access(query, _load_db(args), args.index)
    _emit(args, _answer_line(query, answer),
          {"answer": {v: answer[v] for v in query.head}})
    return 0


# -- provenance commands --------------------------------------------------------------

def _fact_label(fact) -> str:
    rel, values = fact
    return f"{rel}({','.join(str(v) for v in values)})"


def cmd_prov(args) -> int:
    query = _load_query(args)
    db = _load_db(args)
    if args.kind == 'circuit':
        circuit = provenance_circuit_sjf(query, db)
        text = nnf_io.write_nnf(circuit)
        if args.out:
            _write(args.out, text)
            _emit(args, f"nodes={len(circuit.nodes)} edges={circuit.size}",
                  {"nodes": len(circuit.nodes), "edges": circuit.size})
        else:
            sys.stdout.write(text)
        return 0
    from .provenance import FactVar
    fact_vars = FactVar(db)
    if args.kind == 'dnf':
        dnf = provenance_dnf(query, db)
        for term in dnf.terms:
            labels = sorted(_fact_label(fact_vars.fact_of(v)) for v, _ in term)
            _emit(args, " & ".join(labels), {"term": labels})
        return 0
    tree = provenance_read_once(query, db)

    def render(node) -> str:
        if node.kind == 'leaf':
            return _fact_label(fact_vars.fact_of(node.var))
        inner = " ".join(render(c) for c in node.children)
        return f"({node.kind} {inner})"

    _emit(args, render(tree), {"read_once": render(tree)})
    return 0


def cmd_pqe(args) -> int:
    query = _load_query(args)
    tid = TID.from_tsv(_read(args.tid))
    if args.mode == 'exact':
        value = pqe(query, tid, 'exact')
    else:
        params = ApproxParams(args.epsilon, args.delta, args.seed)
        value = pqe(query, tid, 'approx', params)
    _emit(args, str(value), _rational_json(value))
    return 0


def cmd_ur(args) -> int:
    query = _load_query(args)
    if args.tid:
        db = TID.from_tsv(_read(args.tid)).db
    else:
        db = cq_mod.Database.from_tsv(_read(args.db))
    count = uniform_reliability(query, db)
    _emit(args, str(count), {"count": count})
    return 0


def cmd_shapley(args) -> int:
    query = _load_query(args)
    tid = TID.from_tsv(_read(args.tid))
    if args.fact:
        parts = args.fact.split()
        target = (parts[0], tuple(parts[1:]))
        value = shapley(query, tid, target)
        _emit(args, f"{_fact_label(target)}\t{value}",
              {"fact": _fact_label(target), **_rational_json(value)})
    else:
        for fact, value in shapley_all(query, tid).items():
            _emit(args, f"{_fact_label(fact)}\t{value}",
                  {"fact": _fact_label(fact), **_rational_json(value)})
    return 0


# -- tree commands ----------------------------------------------------------------------

def cmd_tree_pqe(args) -> int:
    prob_tree = trees.tree_from_json(_read(args.tree))
    automaton = trees.automaton_from_json(_read(args.automaton))
    if isinstance(automaton, trees.NondetTreeAutomaton):
        alphabet = {prob_tree.default}
        alphabet.update(n.label for n in prob_tree.tree.preorder())
        automaton = trees.determinize(automaton, sorted(alphabet, key=str))
    value = trees.pqe_tree(automaton, prob_tree)
    _emit(args, str(value), _rational_json(value))
    return 0


def cmd_tree_enum(args) -> int:
    prob_tree = trees.tree_from_json(_read(args.tree))
    automaton = trees.automaton_from_json(_read(args.automaton))
    if isinstance(automaton, trees.NondetTreeAutomaton):
        alphabet = {(n.label, bit) for n in prob_tree.tree.preorder()
                    for bit in (0, 1)}
        automaton = trees.determinize(automaton, sorted(alphabet, key=str))
    circuit, _ = trees.answer_circuit(automaton, prob_tree.tree)
    for i, valuation in enumerate(enumerate_models(circuit)):
        if args.limit is not None and i >= args.limit:
            break
        bits = _bits(circuit, valuation)
        _emit(args, bits, {"answer": bits})
    return 0


# -- parser ------------------------------------------------------------------------------

def _positive_index(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("indexes are 1-based")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog='kcomp',
        description="compile, certify, and query tractable circuits")
    sub = parser.add_subparsers(dest='command', required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument('--format', choices=('text', 'json'), default='text')
        p.set_defaults(func=func)
        return p

    p = add('compile-cnf', cmd_compile_cnf, help="DIMACS CNF to a decision circuit")
    p.add_argument('--cnf', required=True)
    p.add_argument('--heuristic', choices=cnf_mod.HEURISTICS,
                   default='first_unassigned')
    p.add_argument('--out')

    p = add('check-class', cmd_check_class, help="certify circuit classes")
    p.add_argument('--nnf', required=True)

    p = add('count', cmd_count, help="exact model count")
    p.add_argument('--nnf', required=True)

    p = add('wmc', cmd_wmc, help="weighted model count with probabilities")
    p.add_argument('--nnf', required=True)
    p.add_argument('--prob-file')
    p.add_argument('--p', default='1/2')
    p.add_argument('--float', action='store_true')

    p = add('enum', cmd_enum, help="enumerate satisfying valuations")
    p.add_argument('--nnf', required=True)
    p.add_argument('--limit', type=int)

    p = add('sample', cmd_sample, help="uniform satisfying valuations")
    p.add_argument('--nnf', required=True)
    p.add_argument('--seed', type=int, required=True)
    p.add_argument('--count', type=int, default=1)

    p = add('best', cmd_best, help="most probable satisfying valuation")
    p.add_argument('--nnf', required=True)
    p.add_argument('--prob-file')
    p.add_argument('--p', default='1/2')

    p = add('approx-dnf', cmd_approx_dnf, help="Monte Carlo DNF probability")
    p.add_argument('--dnf', required=True)
    p.add_argument('--epsilon', type=float, default=0.1)
    p.add_argument('--delta', type=float, default=1 / 3)
    p.add_argument('--seed', type=int, required=True)
    p.add_argument('--prob-file')
    p.add_argument('--p', default='1/2')

    p = add('cq-compile', cmd_cq_compile, help="compile a query to a circuit")
    p.add_argument('--query', required=True)
    p.add_argument('--db', required=True)
    p.add_argument('--out')

    p = add('cq-count', cmd_cq_count, help="number of query answers")
    p.add_argument('--query', required=True)
    p.add_argument('--db', required=True)

    p = add('cq-enum', cmd_cq_enum, help="enumerate query answers")
    p.add_argument('--query', required=True)
    p.add_argument('--db', required=True)
    p.add_argument('--limit', type=int)

    p = add('cq-access', cmd_cq_access, help="the i-th answer in sorted order")
    p.add_argument('--query', required=True)
    p.add_argument('--db', required=True)
    p.add_argument('--index', type=_positive_index, required=True)

    p = add('prov', cmd_prov, help="provenance of a query on a database")
    p.add_argument('--query', required=True)
    p.add_argument('--db', required=True)
    p.add_argument('--kind', choices=('circuit', 'dnf', 'read-once'),
                   default='circuit')
    p.add_argument('--out')

    p = add('pqe', cmd_pqe, help="query probability on a TID")
    p.add_argument('--query', required=True)
    p.add_argument('--tid', required=True)
    p.add_argument('--mode', choices=('exact', 'approx'), default='exact')
    p.add_argument('--epsilon', type=float, default=0.1)
    p.add_argument('--delta', type=float, default=1 / 3)
    p.add_argument('--seed', type=int, default=0)

    p = add('ur', cmd_ur, help="count satisfying subinstances")
    p.add_argument('--query', required=True)
    p.add_argument('--db')
    p.add_argument('--tid')

    p = add('shapley', cmd_shapley, help="Shapley values of endogenous facts")
    p.add_argument('--query', required=True)
    p.add_argument('--tid', required=True)
    p.add_argument('--fact', help="target as `R v1 v2 ...`; default all")

    p = add('tree-pqe', cmd_tree_pqe, help="query probability on a random tree")
    p.add_argument('--tree', required=True)
    p.add_argument('--automaton', required=True)

    p = add('tree-enum', cmd_tree_enum, help="enumerate accepted annotations")
    p.add_argument('--tree', required=True)
    p.add_argument('--automaton', required=True)
    p.add_argument('--limit', type=int)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.func is cmd_ur and not (args.db or args.tid):
        print("ur: one of --db or --tid is required", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KcompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError as exc:
        print(f"error: input nested too deeply to process: {exc}",
              file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == '__main__':
    sys.exit(main())
