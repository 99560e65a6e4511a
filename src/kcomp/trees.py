"""Bottom-up tree automata over full binary labeled trees, and decision
circuits for their provenance on probabilistic trees.

A probabilistic tree keeps each node's label independently with the node's
probability, or reverts it to the default label.  The provenance circuit
has one variable per tree node (true means the label is kept), built as
one decision per node along the preorder: at every step the remaining
acceptance condition is captured by a continuation table mapping the
current subtree's possible states to the circuit for the rest of the tree.
Continuations are hash-consed, so for automata whose state reachability
stays small the circuit grows linearly with the tree.  The construction and
`run` recurse on the tree as generators run by `_dag.trampoline`, so a
tree's depth is bounded by memory, not by Python's recursion limit.

The same construction, reading the node variable as membership in a set
annotation instead of keep-versus-revert, yields the circuit of a query's
answer sets over an alphabet of (label, bit) pairs.

A probabilistic tree keeps the provenance circuit of the last automaton
asked, keyed by the automaton's content, until another automaton replaces
it or the tree is freed, so `pqe_tree` after `provenance_tree` compiles
nothing.  `answer_circuit` takes a bare tree and is not cached.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from ._dag import Memo, trampoline
from .circuits import CircuitBuilder, VTree
from .errors import (IncompleteTransition, InputFormatError,
                     NondeterministicAutomaton)


@dataclass(frozen=True)
class TreeNode:
    """Full binary tree node: zero or two children."""
    label: object
    left: Optional['TreeNode'] = None
    right: Optional['TreeNode'] = None

    def __post_init__(self):
        if (self.left is None) != (self.right is None):
            raise ValueError("tree nodes have zero or two children")

    def is_leaf(self) -> bool:
        return self.left is None

    def preorder(self) -> list:
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            out.append(node)
            if not node.is_leaf():
                stack.append(node.right)
                stack.append(node.left)
        return out

    def node_count(self) -> int:
        return len(self.preorder())


DEFAULT_LABEL = 'e'


@dataclass(frozen=True)
class ProbTree:
    tree: TreeNode
    prob: dict               # preorder node index -> Fraction in [0, 1]
    default: object = DEFAULT_LABEL
    # provenance_tree's (circuit, vtree) for the last automaton content asked
    _provenance: Memo = field(default_factory=Memo, init=False,
                              compare=False, repr=False)

    def __post_init__(self):
        n = self.tree.node_count()
        for i in range(n):
            if i not in self.prob:
                raise ValueError(f"node {i} has no probability")
            if not 0 <= self.prob[i] <= 1:
                raise ValueError(f"node {i} has probability outside [0, 1]")


@dataclass(frozen=True)
class TreeAutomaton:
    """Deterministic bottom-up automaton; missing transitions raise."""
    states: tuple
    accepting: frozenset
    leaf_transition: dict         # label -> state
    internal_transition: dict     # (state, state, label) -> state

    def leaf_state(self, label):
        try:
            return self.leaf_transition[label]
        except KeyError:
            raise IncompleteTransition(f"no leaf transition for {label!r}") from None

    def step(self, s1, s2, label):
        try:
            return self.internal_transition[(s1, s2, label)]
        except KeyError:
            raise IncompleteTransition(
                f"no transition for ({s1!r}, {s2!r}, {label!r})") from None


@dataclass(frozen=True)
class NondetTreeAutomaton:
    """Nondeterministic variant: transitions map to state sets."""
    states: tuple
    accepting: frozenset
    leaf_transition: dict         # label -> frozenset of states
    internal_transition: dict     # (state, state, label) -> frozenset


def run(automaton, tree: TreeNode) -> bool:
    """Bottom-up evaluation; the nondeterministic variant runs its subset
    construction on the fly."""
    if isinstance(automaton, NondetTreeAutomaton):
        def states_of(node):
            if node.is_leaf():
                return frozenset(automaton.leaf_transition.get(node.label, frozenset()))
            left = yield states_of(node.left)
            right = yield states_of(node.right)
            acc = set()
            for s1 in left:
                for s2 in right:
                    acc |= automaton.internal_transition.get(
                        (s1, s2, node.label), frozenset())
            return frozenset(acc)
        return bool(trampoline(states_of(tree)) & automaton.accepting)

    def state_of(node):
        if node.is_leaf():
            return automaton.leaf_state(node.label)
        left = yield state_of(node.left)
        return automaton.step(left, (yield state_of(node.right)), node.label)
    return trampoline(state_of(tree)) in automaton.accepting


def determinize(automaton: NondetTreeAutomaton, alphabet,
                max_states: int = 4096) -> TreeAutomaton:
    """Subset construction over the given alphabet, capped in size."""
    leaf = {}
    subsets = set()
    for label in alphabet:
        s = frozenset(automaton.leaf_transition.get(label, frozenset()))
        leaf[label] = s
        subsets.add(s)
    internal = {}
    frontier = list(subsets)
    while frontier:
        if len(subsets) > max_states:
            raise NondeterministicAutomaton(
                f"subset construction exceeded {max_states} states")
        s1 = frontier.pop()
        for s2 in list(subsets):
            for pair in ((s1, s2), (s2, s1)):
                for label in alphabet:
                    key = (pair[0], pair[1], label)
                    if key in internal:
                        continue
                    acc = set()
                    for a in pair[0]:
                        for b in pair[1]:
                            acc |= automaton.internal_transition.get(
                                (a, b, label), frozenset())
                    target = frozenset(acc)
                    internal[key] = target
                    if target not in subsets:
                        subsets.add(target)
                        frontier.append(target)
    accepting = frozenset(s for s in subsets if s & automaton.accepting)
    return TreeAutomaton(tuple(sorted(subsets, key=sorted)), accepting,
                         leaf, internal)


# -- provenance construction ------------------------------------------------------------

def _indexed_nodes(tree: TreeNode) -> list:
    """Preorder array of (label, left_index, right_index); children are -1
    on leaves.  Positional, so shared subtree objects are handled."""
    nodes = []
    stack = [(tree, 0, 0)]              # node, parent record, child slot
    while stack:
        node, parent, slot = stack.pop()
        if slot:
            nodes[parent][slot] = len(nodes)
        nodes.append([node.label, -1, -1])
        if not node.is_leaf():
            stack.append((node.right, len(nodes) - 1, 2))
            stack.append((node.left, len(nodes) - 1, 1))
    return [tuple(rec) for rec in nodes]


def _compile_decisions(automaton: TreeAutomaton, tree: TreeNode,
                       branch_labels) -> tuple:
    """Decision circuit over the preorder node variables.

    branch_labels(label) gives the labels read when the node variable is
    true and false.  compile_node(idx, cont) returns the circuit for "the
    rest of the acceptance test", where cont maps each state the subtree at
    idx may reach to the circuit continuing with that state; continuations
    are tuples indexed like automaton.states and shared through the
    builder's hash-consing plus a memo table, read before each call.  An
    internal node compiles its right subtree once per state of the left
    one, then the left subtree on those circuits.
    """
    nodes = _indexed_nodes(tree)
    states = automaton.states
    state_pos = {s: i for i, s in enumerate(states)}
    b = CircuitBuilder(len(nodes))
    memo = {}

    def compile_node(idx: int, cont: tuple):
        label, left, right = nodes[idx]
        hi_lo = []
        for lab in branch_labels(label):
            if left < 0:
                hi_lo.append(cont[state_pos[automaton.leaf_state(lab)]])
                continue
            outer = []
            for s1 in states:
                inner = tuple(cont[state_pos[automaton.step(s1, s2, lab)]]
                              for s2 in states)
                hit = memo.get((right, inner))
                outer.append(hit if hit is not None
                             else (yield compile_node(right, inner)))
            outer = tuple(outer)
            hit = memo.get((left, outer))
            hi_lo.append(hit if hit is not None
                         else (yield compile_node(left, outer)))
        memo[(idx, cont)] = gate = b.decision(idx, hi_lo[1], hi_lo[0])
        return gate

    top = tuple(b.true() if s in automaton.accepting else b.false()
                for s in states)
    circuit = b.finish(trampoline(compile_node(0, top)))
    vtree = VTree.right_linear(range(len(nodes)))
    return circuit, vtree


def provenance_tree(automaton: TreeAutomaton, prob_tree: ProbTree) -> tuple:
    """Circuit over the tree's nodes: a variable is true when the node
    keeps its label, false when it reverts to the default; satisfying
    valuations are the accepted worlds.  Returns (circuit, vtree).

    The pair is cached on the probabilistic tree, keyed by the automaton's
    content (states, accepting states and both transition tables), not its
    identity; the tree keeps only the last automaton's pair.  The circuit
    does not read the probabilities, so trees that differ only in those
    compile separately.
    """
    _require_deterministic(automaton)
    key = (automaton.states, automaton.accepting,
           frozenset(automaton.leaf_transition.items()),
           frozenset(automaton.internal_transition.items()))
    default = prob_tree.default
    return prob_tree._provenance.get(key, lambda: _compile_decisions(
        automaton, prob_tree.tree, lambda label: (label, default)))


def _require_deterministic(automaton):
    if isinstance(automaton, NondetTreeAutomaton):
        raise NondeterministicAutomaton(
            "determinize the automaton first (see determinize)")


def pqe_tree(automaton: TreeAutomaton, prob_tree: ProbTree) -> Fraction:
    """Probability that a random world of the tree is accepted; exact.
    Reads the circuit `provenance_tree` cached on the tree, so after the
    first call only the weighted count is left."""
    from .queries import WeightMap, wmc
    circuit, _ = provenance_tree(automaton, prob_tree)
    probs = {i: Fraction(prob_tree.prob[i]) for i in range(len(circuit.universe))}
    return wmc(circuit, WeightMap.from_probabilities(probs))


def answer_circuit(automaton: TreeAutomaton, tree: TreeNode) -> tuple:
    """Circuit of the answer sets of an automaton over (label, bit) pairs.

    A variable is true when its node belongs to the answer set; satisfying
    valuations are exactly the accepted annotations.  Returns
    (circuit, vtree)."""
    _require_deterministic(automaton)
    return _compile_decisions(automaton, tree,
                              lambda label: ((label, 1), (label, 0)))


# -- text formats ---------------------------------------------------------------------------

def tree_from_json(text: str) -> ProbTree:
    """Nested records: {"label": ..., "prob": "1/2", "children": [l, r]}.

    Probabilities default to 1; the optional top-level form
    {"default": "e", "root": {...}} overrides the default label.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"bad tree JSON: {exc}") from None
    default = DEFAULT_LABEL
    if isinstance(data, dict) and 'root' in data:
        default = data.get('default', DEFAULT_LABEL)
        data = data['root']
    probs = []

    def build(rec) -> TreeNode:
        if not isinstance(rec, dict) or 'label' not in rec:
            raise InputFormatError("tree nodes need a 'label'")
        try:
            prob = Fraction(str(rec.get('prob', 1)))
        except (ValueError, ZeroDivisionError):
            raise InputFormatError(f"bad probability {rec.get('prob')!r}") from None
        probs.append(prob)
        children = rec.get('children', [])
        if children:
            if len(children) != 2:
                raise InputFormatError("tree nodes have zero or two children")
            left = build(children[0])
            right = build(children[1])
            return TreeNode(_label_key(rec['label']), left, right)
        return TreeNode(_label_key(rec['label']))

    root = build(data)
    # probs were appended in build order, which is preorder
    return ProbTree(root, {i: p for i, p in enumerate(probs)},
                    default=_label_key(default))


def _scalar(value, what: str):
    """A JSON scalar, usable as a dict key; lists and objects are rejected."""
    if isinstance(value, (list, dict)):
        raise InputFormatError(f"{what} {json.dumps(value)} is not a scalar")
    return value


def _label_key(label):
    """A scalar label, or a two-element array as a (base, bit) pair."""
    if isinstance(label, list) and len(label) == 2:
        return tuple(_scalar(part, "label part") for part in label)
    return _scalar(label, "label")


def automaton_from_json(text: str):
    """Explicit transition tables:

    {"states": [...], "accepting": [...],
     "leaf": {"a": s, ...} or [[label, s], ...],
     "internal": [[s1, s2, label, s], ...],
     "nondeterministic": false}

    Labels may be two-element arrays for annotated alphabets; transition
    targets are state lists in the nondeterministic variant.  States and
    label parts must be JSON scalars.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"bad automaton JSON: {exc}") from None
    try:
        states = tuple(_scalar(q, "state") for q in data['states'])
        accepting = frozenset(_scalar(q, "accepting state")
                              for q in data['accepting'])
        nondet = bool(data.get('nondeterministic', False))
        leaf_items = (data['leaf'].items() if isinstance(data['leaf'], dict)
                      else [(row[0], row[1]) for row in data['leaf']])
        internal_rows = data['internal']
    except (KeyError, TypeError, IndexError) as exc:
        raise InputFormatError(f"bad automaton JSON: {exc}") from None

    def target(value):
        if not nondet:
            return _scalar(value, "target")
        if not isinstance(value, list):
            raise InputFormatError(f"target {json.dumps(value)} is not a list")
        return frozenset(_scalar(q, "target") for q in value)

    leaf = {_label_key(l): target(s) for l, s in leaf_items}
    internal = {}
    for row in internal_rows:
        if not isinstance(row, list) or len(row) != 4:
            raise InputFormatError("internal rows are [s1, s2, label, target]")
        internal[(_scalar(row[0], "state"), _scalar(row[1], "state"),
                  _label_key(row[2]))] = target(row[3])
    if nondet:
        return NondetTreeAutomaton(states, accepting, leaf, internal)
    return TreeAutomaton(states, accepting, leaf, internal)
