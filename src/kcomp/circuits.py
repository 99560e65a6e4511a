"""Immutable Boolean circuits and their class certificates.

A circuit is a rooted DAG over variables 0..n-1 with input nodes (constants
and literals) and AND/OR/NOT gates.  Construction goes through
CircuitBuilder, which hash-conses nodes so that structurally identical
subcircuits share one id; finish() freezes the result, dropping the nodes
the output does not reach (and renumbering only when there are any).  All
transformations (NNF normalization, conditioning, smoothing) return new
circuits, each certified afresh when first asked.  The node model, builder
and DAG passes are shared with relational circuits and live in `_dag`.

Node records, children always before parents in the node list:

    ('T',)            constant true
    ('F',)            constant false
    ('L', var, pol)   literal, pol True for the positive literal
    ('A', children)   AND gate, children a tuple of node ids
    ('O', children)   OR gate
    ('N', child)      NOT gate over a gate (eliminated by to_nnf); the
                      builder folds a NOT over an input into an input

Size is the number of edges of the DAG.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ._dag import (Builder, Intervals, binary_splits, certify, components,
                   edge_count, members, rebuild, trampoline, truth_values,
                   var_masks)
from .errors import NotDecomposable

TRUE = ('T',)
FALSE = ('F',)

Valuation = dict  # var id -> 0/1, total over a circuit's variable universe
PartialValuation = dict


class VTree:
    """Full binary tree whose leaves are in bijection with a variable set.

    vars is the set of the variables below a node.  Nodes made by leaf and
    internal hold it from the start; the spine of a right_linear caterpillar
    gathers it on its first read and keeps it, so building one is linear.
    """

    __slots__ = ('var', 'left', 'right', '_vars')

    def __init__(self, var=None, left: 'VTree | None' = None,
                 right: 'VTree | None' = None):
        if (left is None) != (right is None):
            raise ValueError("internal vtree nodes need two children")
        self.var = var
        self.left = left
        self.right = right
        if left is None:
            self._vars = frozenset((var,))
        else:
            if left.vars & right.vars:
                raise ValueError("vtree leaves must not repeat variables")
            self._vars = left.vars | right.vars

    @property
    def vars(self) -> frozenset:
        if self._vars is None:
            found = []
            stack = [self]
            while stack:
                node = stack.pop()
                if node._vars is None:
                    stack += (node.left, node.right)
                else:
                    found += node._vars
            self._vars = frozenset(found)
        return self._vars

    @staticmethod
    def leaf(var: int) -> 'VTree':
        return VTree(var=var)

    @staticmethod
    def internal(left: 'VTree', right: 'VTree') -> 'VTree':
        return VTree(left=left, right=right)

    @staticmethod
    def right_linear(order: Iterable[int]) -> 'VTree':
        """Caterpillar vtree: x1, then x2, ... along the given order.  The
        leaves are checked distinct once, so the spine needs no per-node
        overlap test."""
        order = list(order)
        if not order:
            raise ValueError("empty variable order")
        if len(set(order)) != len(order):
            raise ValueError("vtree leaves must not repeat variables")
        node = VTree.leaf(order[-1])
        for v in reversed(order[:-1]):
            spine = object.__new__(VTree)
            spine.var, spine.left, spine.right, spine._vars = None, VTree.leaf(v), node, None
            node = spine
        return node

    def is_leaf(self) -> bool:
        return self.left is None

    def __repr__(self):
        """`v<var>` for a leaf, `(<left> <right>)` otherwise; a stack loop."""
        out, stack = [], [self]
        while stack:
            node = stack.pop()
            if node.__class__ is str:
                out.append(node)
            elif node.is_leaf():
                out.append(f"v{node.var}")
            else:
                out.append('(')
                stack += (')', node.right, ' ', node.left)
        return ''.join(out)


class _LazyWitness:
    """structured_witness for a report that holds either the witness or,
    in _search, the (variables, nodes, masks, gate kind, bit order) to search
    it from: the greedy vtree search runs on the first read and is kept."""

    @property
    def structured_witness(self) -> Optional[VTree]:
        search = self._search     # read once: concurrent readers may race
        if search is not None:
            variables, nodes, sets, kind, order = search
            self._witness = _synthesized_witness(
                variables, list(binary_splits(nodes, sets, kind, order)))
            self._search = None
        return self._witness


@dataclass
class ClassReport(_LazyWitness):
    """Syntactic class certificate for one circuit.

    syntactic_deterministic is exactly all_or_decision: decision gates are
    the checkable witness for determinism.  structured_witness is a hinted
    vtree that holds, the caterpillar of obdd_order, or else the result of
    a greedy vtree search that runs on its first read and is cached in the
    report.  A missing structured_witness means no vtree was found, not
    that none exists.
    """
    is_nnf: bool
    is_decomposable: bool
    all_or_decision: bool
    is_smooth: bool
    obdd_order: Optional[tuple] = None
    _witness: Optional[VTree] = field(default=None, repr=False, compare=False)
    _search: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def syntactic_deterministic(self) -> bool:
        return self.all_or_decision


@dataclass(frozen=True)
class DNFFormula:
    """Disjunction of terms; each term a frozenset of (var, polarity)."""
    num_vars: int
    terms: tuple

    def __post_init__(self):
        for t in self.terms:
            seen = {}
            for var, pol in t:
                if not 0 <= var < self.num_vars:
                    raise ValueError(f"literal on unknown variable {var}")
                if seen.setdefault(var, pol) != pol:
                    raise ValueError(f"term uses x{var} in both polarities")

    @staticmethod
    def from_literal_lists(num_vars: int, terms: Iterable[Iterable[tuple]]) -> 'DNFFormula':
        return DNFFormula(num_vars, tuple(frozenset(t) for t in terms))


class BoolCircuit:
    """Frozen circuit: node array, output id, variable universe.

    Instances are immutable; helper caches (variable sets, core flags and
    decision map, class report, model counts) are computed lazily and
    idempotently, so concurrent readers are safe.
    """

    def __init__(self, nodes: tuple, output: int, universe: frozenset,
                 var_names: Optional[tuple] = None):
        self.nodes = nodes
        self.output = output
        self.universe = universe
        self.var_names = var_names
        self._size = None
        self._order = None
        self._varsets = None
        self._core_flags = None
        self._decisions = None
        self._report = None
        self._counts = None

    # -- basic queries ------------------------------------------------------

    @property
    def size(self) -> int:
        """Edge count of the DAG."""
        if self._size is None:
            self._size = edge_count(self.nodes)
        return self._size

    def __len__(self) -> int:
        return len(self.nodes)

    def sorted_vars(self) -> tuple:
        """The universe, ascending, computed once; bit i of a variable mask
        stands for its i-th variable."""
        if self._order is None:
            self._order = tuple(sorted(self.universe))
        return self._order

    @property
    def full_mask(self) -> int:
        """The mask of the universe: every variable has its bit."""
        return (1 << len(self.universe)) - 1

    def varsets(self) -> tuple:
        """Per-node variable masks (int bitmasks over `sorted_vars`): the
        vars with a directed path to the node."""
        if self._varsets is None:
            bits = {v: 1 << i for i, v in enumerate(self.sorted_vars())}
            self._varsets = var_masks(self.nodes, bits.__getitem__)
        return self._varsets

    def evaluate(self, valuation: Valuation) -> int:
        """Evaluate under a valuation covering var(output); extra vars are
        ignored (they do not affect the computed function)."""
        def literal(var, positive):
            v = valuation.get(var)
            if v is None:
                raise ValueError(f"valuation misses variable {var}")
            return bool(v) == positive

        return int(truth_values(self.nodes, literal)[self.output])

    def decisions(self) -> dict:
        """Decision gate id -> the variable it tests, for every decision-
        shaped OR gate (`_decision_var`), recorded by `core_flags`."""
        if self._decisions is None:
            core_flags(self)
        return self._decisions

    def decision_var(self, gate: int) -> Optional[int]:
        """Variable tested by a decision-shaped OR gate, else None."""
        return self.decisions().get(gate)


def _decision_var(nodes, sets, kids) -> Optional[int]:
    """The Boolean decision rule: the variable an OR gate with these
    children tests, or None.

    Shape: exactly two AND children, one holding a negative and the other a
    positive literal of the same variable as a direct input, and neither
    the other polarity; of several such variables, the first of the first
    child.  sets are unused: the shape is read off the records alone.
    """
    if len(kids) != 2:
        return None
    lo, hi = nodes[kids[0]], nodes[kids[1]]
    if lo[0] != 'A' or hi[0] != 'A':
        return None
    # CircuitBuilder.decision's gadget: two (literal, continuation) ANDs
    if len(lo[1]) == 2 and len(hi[1]) == 2:
        a, b = nodes[lo[1][0]], nodes[hi[1][0]]
        if a[0] == 'L' and b[0] == 'L' and a[1] == b[1] and a[2] != b[2]:
            ca, cb = nodes[lo[1][1]], nodes[hi[1][1]]
            if not (ca[0] == 'L' and ca[1] == a[1] or cb[0] == 'L' and cb[1] == a[1]):
                return a[1]
    sides = []
    for crec in (lo, hi):
        lits = {}
        for g in crec[1]:
            grec = nodes[g]
            if grec[0] == 'L':
                lits.setdefault(grec[1], set()).add(grec[2])
        sides.append(lits)
    for var, pols0 in sides[0].items():
        pols1 = sides[1].get(var)
        if pols1 is not None and len(pols0) == len(pols1) == 1 and pols0 != pols1:
            return var
    return None


class CircuitBuilder(Builder):
    """Mutable constructor with hash-consing; finish() freezes."""

    def __init__(self, universe: Iterable[int] | int):
        super().__init__()
        if isinstance(universe, int):
            universe = range(universe)
        self.universe = frozenset(universe)

    def true(self) -> int:
        return self._add(TRUE)

    def false(self) -> int:
        return self._add(FALSE)

    def literal(self, var: int, positive: bool = True) -> int:
        if var not in self.universe:
            raise ValueError(f"variable {var} outside the declared universe")
        return self._add(('L', var, bool(positive)))

    def conj(self, children: Iterable[int]) -> int:
        return self._add(('A', tuple(children)))

    def disj(self, children: Iterable[int]) -> int:
        return self._add(('O', tuple(children)))

    def neg(self, child: int) -> int:
        """NOT gate; over a literal or a constant it is the opposite one."""
        rec = self.nodes[child]
        if rec[0] == 'L':
            return self._add(('L', rec[1], not rec[2]))
        if rec[0] in ('T', 'F'):
            return self._add(FALSE if rec[0] == 'T' else TRUE)
        return self._add(('N', child))

    def decision(self, var: int, if_false: int, if_true: int) -> int:
        """(not x and if_false) or (x and if_true)."""
        lo = self.conj((self.literal(var, False), if_false))
        hi = self.conj((self.literal(var, True), if_true))
        return self.disj((lo, hi))

    def kind(self, nid: int) -> str:
        return self.nodes[nid][0]

    def children(self, nid: int):
        return self.nodes[nid][1]

    def finish(self, output: int, var_names: Optional[tuple] = None) -> BoolCircuit:
        """Freeze, keeping only nodes reachable from the output (`prune`)."""
        nodes, output = self.prune(output)
        return BoolCircuit(nodes, output, self.universe, var_names)


def varset(circuit: BoolCircuit, gate: int) -> frozenset:
    """Variables with a directed path to the gate."""
    if not 0 <= gate < len(circuit.nodes):
        raise ValueError(f"invalid node id {gate}")
    return frozenset(members(circuit.varsets()[gate], circuit.sorted_vars()))


# -- NNF normalization -------------------------------------------------------

def to_nnf(circuit: BoolCircuit) -> BoolCircuit:
    """Push negations onto inputs with De Morgan's laws.

    Builds both polarities of every node bottom-up; the result computes the
    same function and at most doubles the edge count.
    """
    b = CircuitBuilder(circuit.universe)
    pos = []
    neg = []
    for rec in circuit.nodes:
        kind = rec[0]
        if kind == 'T':
            pos.append(b.true())
            neg.append(b.false())
        elif kind == 'F':
            pos.append(b.false())
            neg.append(b.true())
        elif kind == 'L':
            pos.append(b.literal(rec[1], rec[2]))
            neg.append(b.literal(rec[1], not rec[2]))
        elif kind == 'N':
            pos.append(neg[rec[1]])
            neg.append(pos[rec[1]])
        elif kind == 'A':
            pos.append(b.conj(tuple(pos[c] for c in rec[1])))
            neg.append(b.disj(tuple(neg[c] for c in rec[1])))
        else:
            pos.append(b.disj(tuple(pos[c] for c in rec[1])))
            neg.append(b.conj(tuple(neg[c] for c in rec[1])))
    return b.finish(pos[circuit.output], circuit.var_names)


# -- conditioning -------------------------------------------------------------

def condition(circuit: BoolCircuit, partial: PartialValuation) -> BoolCircuit:
    """Substitute constants for the assigned variables (partial evaluation).

    One pass; untouched gates keep their shape, so decomposability and
    decision gates away from the assigned variables survive.  The result's
    universe excludes the assigned variables.  Values are 0/1 or bools.
    """
    extra = set(partial) - circuit.universe
    if extra:
        raise ValueError(f"assigned variables outside universe: {sorted(extra)}")
    bad = sorted(var for var, value in partial.items() if value not in (0, 1))
    if bad:
        raise ValueError(f"assigned values other than 0/1 for variables {bad}")
    b = CircuitBuilder(circuit.universe - set(partial))

    def leaf(rec) -> int:
        if rec[0] == 'L':
            if rec[1] not in partial:
                return b.literal(rec[1], rec[2])
            return b.true() if int(partial[rec[1]]) == int(rec[2]) else b.false()
        return b.true() if rec[0] == 'T' else b.false()

    out = rebuild(circuit.nodes, leaf, {'A': b.conj, 'O': b.disj, 'N': b.neg})
    return b.finish(out[circuit.output], circuit.var_names)


# -- smoothing ----------------------------------------------------------------

def smooth(circuit: BoolCircuit) -> BoolCircuit:
    """Give every OR gate children with identical variable sets.

    No query of this package needs a smooth circuit (their folds pad
    missing variables arithmetically); this is for callers that want one.
    Each OR child is conjoined with tautologies over the variables it
    misses.  The pads come from one `Intervals` segment tree over the
    sorted universe, shared by the whole circuit: a leaf is the decision-
    shaped gadget (x and 1) or (not x and 1), so that decision-only
    circuits stay decision-only, and an inner node is the AND of its two
    halves.  Padding thus costs O(log n) edges per run of missing
    variables, plus at most about 2n shared gadget nodes over the whole
    circuit.  An already smooth circuit is returned as is.
    """
    is_nnf, is_decomposable, _, is_smooth = core_flags(circuit)
    if not is_nnf or not is_decomposable:
        raise NotDecomposable("smoothing requires a decomposable NNF circuit")
    if is_smooth:
        return circuit
    vsets = circuit.varsets()
    b = CircuitBuilder(circuit.universe)

    def gadget(var: int) -> int:
        return b.disj((b.conj((b.literal(var, True), b.true())),
                       b.conj((b.literal(var, False), b.true()))))

    pads = Intervals(circuit.sorted_vars(), gadget,
                     lambda left, right: b.conj((left, right)))
    out = []
    for nid, rec in enumerate(circuit.nodes):
        kind = rec[0]
        if kind == 'T':
            out.append(b.true())
        elif kind == 'F':
            out.append(b.false())
        elif kind == 'L':
            out.append(b.literal(rec[1], rec[2]))
        elif kind == 'A':
            out.append(b.conj(tuple(out[c] for c in rec[1])))
        else:
            new_children = []
            for c in rec[1]:
                missing = vsets[nid] & ~vsets[c]
                mapped = out[c]
                if missing:
                    pieces = tuple(pads.pieces(missing))
                    if circuit.nodes[c][0] == 'A':
                        mapped = b.conj(tuple(b.children(mapped)) + pieces)
                    else:
                        mapped = b.conj((mapped,) + pieces)
                new_children.append(mapped)
            out.append(b.disj(tuple(new_children)))
    return b.finish(out[circuit.output], circuit.var_names)


# -- classification -----------------------------------------------------------

def _split_fits(vtree: VTree, left: frozenset, right: frozenset) -> bool:
    """The lowest vtree node covering the split puts one side under each
    of its children.  Below a node that covers the split, a set lies under
    the right child exactly when it misses the left child's variables, so
    only left children's variable sets are read: on a right_linear spine
    those are leaves, and the walk is linear in the depth."""
    union = left | right
    if not union <= vtree.vars:
        return False
    node = vtree
    while not node.is_leaf():
        below = node.left.vars
        if union <= below:
            node = node.left
        elif union.isdisjoint(below):
            node = node.right
        else:
            return ((left <= below and right.isdisjoint(below))
                    or (right <= below and left.isdisjoint(below)))
    return False


def respects_vtree(circuit: BoolCircuit, vtree: VTree) -> bool:
    """Check that every AND split fits under some vtree node."""
    if not circuit.universe <= vtree.vars:
        return False
    return all(_split_fits(vtree, left, right) for left, right
               in binary_splits(circuit.nodes, circuit.varsets(), 'A',
                                circuit.sorted_vars()))


def _synthesize_vtree(variables: frozenset, splits: list):
    """Greedy vtree synthesis from AND splits; None when the greedy
    bipartitioning gets stuck (which does not prove unstructuredness).
    Variables and groups are taken in ascending order, so the result does
    not depend on how the sets were built.  A recursive generator, run by
    `trampoline`."""
    if not variables:
        return None
    if len(variables) == 1:
        return VTree.leaf(min(variables))
    splits = [s for s in splits if (s[0] | s[1]) <= variables]
    # the variables of a split side stay together: per variable, one bit
    # per side that holds it, and a bit of its own when no side does
    sides = dict.fromkeys(sorted(variables), 0)
    bit = 1
    for split in splits:
        for side in split:
            for v in side:
                sides[v] |= bit
            bit <<= 1
    for v, mask in sides.items():
        if not mask:
            sides[v] = bit
            bit <<= 1
    groups = components(list(sides), list(sides.values()))
    if len(groups) == 1:
        return None
    full = [s for s in splits if (s[0] | s[1]) == variables]
    if full:
        part_a, part_b = full[0]
        for left, right in full[1:]:
            if {left, right} != {part_a, part_b}:
                return None
        for g in groups:
            if not part_a.isdisjoint(g) and not part_b.isdisjoint(g):
                return None
    else:
        part_a = frozenset(groups[0])
        part_b = variables - part_a
    left_tree = yield _synthesize_vtree(
        part_a, [s for s in splits if (s[0] | s[1]) <= part_a])
    if left_tree is None:
        return None
    right_tree = yield _synthesize_vtree(
        part_b, [s for s in splits if (s[0] | s[1]) <= part_b])
    if right_tree is None:
        return None
    return VTree.internal(left_tree, right_tree)


def _synthesized_witness(variables: frozenset, splits: list) -> Optional[VTree]:
    """A vtree over the variables that every split fits, found greedily;
    None does not prove that there is none."""
    vtree = trampoline(_synthesize_vtree(variables, splits))
    if vtree is not None and all(_split_fits(vtree, left, right)
                                 for left, right in splits):
        return vtree
    return None


def _detect_obdd_order(circuit: BoolCircuit) -> Optional[tuple]:
    """Global decision order, if the circuit is a pure decision diagram.

    Called on NNF circuits whose every OR is a decision gate, so the
    recorded decision map lists them all.  Requires every AND to be one of
    the two gadgets of a decision gate (decision literal plus a
    continuation that is itself a decision gate or a constant), and the
    decision variables to admit one topological order along all paths.  In
    such a diagram every literal sits in a gadget, so ordering each
    decision variable before those tested right below its gates orders it
    before all below them.
    """
    nodes = circuit.nodes
    if nodes[circuit.output][0] not in ('O', 'T', 'F'):
        return None
    tested = circuit.decisions()       # decision gate -> its variable
    succ = {}              # variable -> variables tested right below it
    gadget_ands = set()
    for nid, var in tested.items():
        later = succ.setdefault(var, [])
        for c in nodes[nid][1]:
            gadget_ands.add(c)
            kids = nodes[c][1]
            if len(kids) != 2:
                return None
            first, second = nodes[kids[0]], nodes[kids[1]]
            # exactly one child is a literal of var; the other continues
            is_lit = first[0] == 'L' and first[1] == var
            if is_lit == (second[0] == 'L' and second[1] == var):
                return None
            cont = kids[1] if is_lit else kids[0]
            if nodes[cont][0] not in ('O', 'T', 'F'):
                return None
            if cont in tested:
                later.append(tested[cont])
    for nid, rec in enumerate(nodes):
        if rec[0] == 'A' and nid not in gadget_ands:
            return None
    # Kahn toposort, smallest variable first for determinism; a variable
    # tested again below itself closes a cycle, so there is no order
    indeg = dict.fromkeys(succ, 0)
    for later in succ.values():
        for w in later:
            indeg[w] += 1
    ready = [v for v, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in succ.get(v, ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(order) != len(indeg):
        return None
    order += sorted(circuit.universe - set(order))
    return tuple(order)


def core_flags(circuit: BoolCircuit) -> tuple:
    """(is_nnf, is_decomposable, all_or_decision, is_smooth).

    The linear-time part of classification, enough for the counting and
    sampling preconditions: one `_dag.certify` pass per circuit, which also
    records the decision map that `decision_var`, the OBDD detector and
    `write_nnf` read.  Witness search lives in classify.
    """
    if circuit._core_flags is None:
        is_nnf, is_decomposable, is_smooth, all_or_decision, decisions = certify(
            circuit.nodes, circuit.varsets(), _decision_var)
        circuit._decisions = decisions
        circuit._core_flags = (is_nnf, is_decomposable, all_or_decision, is_smooth)
    return circuit._core_flags


def classify(circuit: BoolCircuit, hint: Optional[VTree] = None) -> ClassReport:
    """Certify syntactic membership in the circuit class lattice.

    Checks NNF shape, decomposability of every AND gate, the decision
    shape of every OR gate, and smoothness.  A vtree witness is verified
    when hinted; otherwise a greedy best-effort search for one runs on the
    first read of the report's structured_witness and is cached there.
    Absence of a witness is reported, never treated as a refutation.  A
    detected OBDD order needs no check: its caterpillar vtree holds by
    construction, because every AND is a decision gadget whose literal
    comes before all the variables of its continuation.
    """
    if hint is None and circuit._report is not None:
        return circuit._report
    is_nnf, is_decomposable, all_or_decision, is_smooth = core_flags(circuit)

    obdd_order = None
    witness = None
    search = None
    if is_nnf and is_decomposable:
        if hint is not None and respects_vtree(circuit, hint):
            witness = hint
        if all_or_decision and circuit.universe:
            obdd_order = _detect_obdd_order(circuit)
            if obdd_order is not None and witness is None:
                witness = VTree.right_linear(obdd_order)
        if witness is None and hint is None and circuit.universe:
            search = (circuit.universe, circuit.nodes, circuit.varsets(), 'A',
                      circuit.sorted_vars())

    report = ClassReport(is_nnf=is_nnf, is_decomposable=is_decomposable,
                         all_or_decision=all_or_decision, is_smooth=is_smooth,
                         obdd_order=obdd_order, _witness=witness,
                         _search=search)
    if hint is None:
        circuit._report = report
    return report
