"""Tractable Boolean and relational circuits for counting, enumeration,
sampling, and query provenance."""

from .circuits import (BoolCircuit, CircuitBuilder, ClassReport, DNFFormula,
                       VTree, classify, condition, smooth, to_nnf, varset)
from .nnf_io import read_nnf, write_nnf
from .queries import (COUNTING, FLOAT, MAX_TIMES, RATIONAL, ApproxParams,
                      Semiring, WeightMap, approx_count_dnf, best_valuation,
                      count_by_cardinality, enumerate_models, model_count,
                      sample_uniform, satisfiable, witness, wmc)
from .cnf import CNFFormula, CompileStats, compile_dpll, parse_dimacs
from .relational import (RelBuilder, RelCircuit, classify_rel, count_rel,
                         direct_access, enumerate_rel, eval_rel, from_boolean,
                         project_away, read_rel, to_boolean, write_rel)
from .cq import (ConjunctiveQuery, Database, answer_access, answer_count,
                 answer_enum, compile_cq, elimination_order, is_acyclic,
                 is_free_connex, join_tree, parse_cq)
from .provenance import (TID, FactVar, ReadOnceTree, is_hierarchical, lift,
                         pqe, provenance_circuit_sjf, provenance_dnf,
                         provenance_read_once, read_once_to_obdd, shapley,
                         shapley_all, uniform_reliability)
from .trees import (NondetTreeAutomaton, ProbTree, TreeAutomaton, TreeNode,
                    answer_circuit, automaton_from_json, determinize,
                    pqe_tree, provenance_tree, run, tree_from_json)

__all__ = [name for name in dir() if not name.startswith('_')]
