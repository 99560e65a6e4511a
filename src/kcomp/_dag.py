"""The node model and passes shared by Boolean and relational circuits.

A circuit is a tuple of node records, children always before parents, plus
an output id.  A record is a tuple whose first field names its kind:

    ('A', children)   ('O', children)     Boolean AND / OR gate
    ('J', children)   ('U', children)     natural join / extended union
    ('N', child)                          Boolean NOT gate
    ('L', var, pol)   ('I', attr, vidx)   input on one variable / attribute
    ('T',) ('F',)     ('1',) ('0',)       constants

Gate children are tuples of node ids.  The passes below read only this
shape, so they serve both circuit kinds: the variable of an input is its
second field.  Builders hash-cons records, so structurally equal
subcircuits share one id.  `prune` freezes a builder's node list: one
reverse sweep marks what the output reaches, and the records are handed
back as they are unless some node is dead, when the survivors are
renumbered.

A set of variables is an int bitmask.  Bit i stands for the i-th variable
of an ascending order: the sorted universe of a Boolean circuit, attribute
i of a relational one.  `var_masks` gives every node the mask of the
inputs below it, and `members` lists a mask's variables in that order.

`certify` is the one certification pass of both circuit kinds: over the
nodes and their masks it finds NNF, decomposability (pairwise disjoint
child masks), smoothness and, through the kind's own decision rule, the
variable of every decision-shaped OR/union gate.  Each circuit object runs
it once and keeps the decision map for every later reader.

`fold` evaluates a deterministic decomposable circuit in a semiring without
asking for smoothness: an OR/union child that misses variables of its gate
is padded with their contribution, and `Intervals` assembles such per-
variable contributions from shared segment-tree pieces.  `answers`
enumerates such a circuit from an explicit stack, expanding the variables
an OR/union child misses the same way and skipping children without a
model.

The compilers' exhaustive searches (CNF, CQ, tree automata) are recursive
generators run by `trampoline` from one explicit stack, and split their
residuals with `components`, over the variable masks of their parts.  The
CNF search first asks `spans` whether a residual is still connected, a
sweep that stops as soon as one component holds the variables where a
split could start.
"""

from __future__ import annotations

from .errors import InputFormatError

GATES = ('A', 'O', 'J', 'U')
INPUTS = ('L', 'I')
# the constant an empty gate stands for
_EMPTY = {'A': ('T',), 'O': ('F',), 'J': ('1',), 'U': ('0',)}
# the records that have no model; hash-consing keeps at most one of each
_FALSE = (('F',), ('0',), ('O', ()), ('U', ()))


def children(rec) -> tuple:
    kind = rec[0]
    if kind in GATES:
        return rec[1]
    if kind == 'N':
        return (rec[1],)
    return ()


def edge_count(nodes) -> int:
    return sum(len(children(rec)) for rec in nodes)


def var_masks(nodes, bit) -> tuple:
    """Per node, the mask of the variables of the inputs below it; bit(var)
    is the mask of one variable."""
    masks = []
    for rec in nodes:
        kind = rec[0]
        if kind in INPUTS:
            masks.append(bit(rec[1]))
        elif kind == 'N':
            masks.append(masks[rec[1]])
        elif kind in GATES:
            acc = 0
            for c in rec[1]:
                acc |= masks[c]
            masks.append(acc)
        else:
            masks.append(0)
    return tuple(masks)


def members(mask: int, order) -> list:
    """The variables of a mask, ascending: order[i] for each set bit i."""
    bits = bin(mask)[:1:-1]             # bit i at index i
    out = []
    i = bits.find('1')
    while i >= 0:
        out.append(order[i])
        i = bits.find('1', i + 1)
    return out


def trampoline(gen):
    """Run a recursion written as generators; returns gen's return value.

    A generator stands for one call.  It yields the generator of each
    recursive call it makes and receives that call's return value at the
    yield, so `child = yield f(...)` reads as `child = f(...)`.  Pending
    calls wait on one explicit stack, so the depth is bounded by memory,
    not by Python's recursion limit.  An exception propagates out of the
    whole run, not into the waiting callers.
    """
    stack = []
    value = None
    while True:
        try:
            call = gen.send(value)
        except StopIteration as stop:
            if not stack:
                return stop.value
            gen = stack.pop()
            value = stop.value
        else:
            stack.append(gen)
            gen = call
            value = None


def components(items, masks) -> list:
    """Group items by the connected components of their variable masks
    (masks[i], nonzero, for items[i]).

    One sweep ORs each mask into the components it meets, which it finds
    from the most recent one back until all its variables are placed.
    Groups are built only on a split: in order of their first item, items
    in their given order; with one component the result is [items].
    """
    comps = []
    union = 0
    for m in masks:
        seen = m & union
        union |= m
        if not seen:
            comps.append(m)
        elif not seen & ~comps[-1]:
            comps[-1] |= m
        else:
            i = len(comps)
            while seen:
                i -= 1
                if comps[i] & seen:
                    seen &= ~comps[i]
                    m |= comps.pop(i)
            comps.append(m)
    if len(comps) == 1:
        return [items]
    owner = {}
    for i, comp in enumerate(comps):
        while comp:
            low = comp & -comp
            owner[low.bit_length()] = i
            comp ^= low
    groups = {}
    for item, m in zip(items, masks):
        groups.setdefault(owner[(m & -m).bit_length()], []).append(item)
    return list(groups.values())


def spans(masks, seeds: int) -> bool:
    """Whether one connected component of the masks holds every variable of
    `seeds`: the sweep of `components`, stopped as soon as one does."""
    comps = []
    union = 0
    for m in masks:
        seen = m & union
        union |= m
        if not seen:
            comps.append(m)
        elif not seen & ~comps[-1]:
            comps[-1] |= m
        else:
            i = len(comps)
            while seen:
                i -= 1
                if comps[i] & seen:
                    seen &= ~comps[i]
                    m |= comps.pop(i)
            comps.append(m)
        if not seeds & ~comps[-1]:
            return True
    return False


def certify(nodes, sets, decide) -> tuple:
    """(nnf, decomposable, smooth, decision_only, decisions) of a circuit,
    from one pass over its nodes and their variable masks.

    NNF means no NOT gate.  An AND/join gate is decomposable when its
    children's masks are pairwise disjoint, and an OR/union gate smooth
    when every child has the gate's mask.  decide(nodes, sets, kids) is the
    circuit kind's decision rule: the variable an OR/union gate with these
    children tests, or None.  decisions maps each decision gate to its
    variable, in node order, and decision_only says every OR/union gate is
    one.
    """
    nnf = decomposable = smooth = decision_only = True
    decisions = {}
    for nid, rec in enumerate(nodes):
        kind = rec[0]
        if kind == 'A' or kind == 'J':
            if decomposable:
                acc = 0
                for c in rec[1]:
                    mask = sets[c]
                    if acc & mask:
                        decomposable = False
                        break
                    acc |= mask
        elif kind == 'O' or kind == 'U':
            kids = rec[1]
            if smooth:
                gate = sets[nid]
                for c in kids:
                    if sets[c] != gate:
                        smooth = False
                        break
            var = decide(nodes, sets, kids)
            if var is None:
                decision_only = False
            else:
                decisions[nid] = var
        elif kind == 'N':
            nnf = False
    return nnf, decomposable, smooth, decision_only, decisions


def binary_splits(nodes, sets, kind: str, order):
    """Variable splits of the gates of one kind ('A' or 'J'), each k-ary
    gate folded left to right; yields (left, right) frozensets of the
    variables in order, with both nonempty."""
    for rec in nodes:
        if rec[0] != kind:
            continue
        kids = rec[1]
        suffixes = [0] * len(kids)
        acc = 0
        for i in range(len(kids) - 1, 0, -1):
            acc |= sets[kids[i]]
            suffixes[i - 1] = acc
        for i in range(len(kids) - 1):
            left = sets[kids[i]]
            if left and suffixes[i]:
                yield (frozenset(members(left, order)),
                       frozenset(members(suffixes[i], order)))


def rebuild(nodes, leaf, gates: dict) -> list:
    """Map a circuit bottom-up into a builder; returns each node's new id.

    gates[kind] makes a gate of that kind from the mapped children (a NOT
    from its one mapped child); leaf(rec) maps every other record.
    """
    out = []
    for rec in nodes:
        make = gates.get(rec[0])
        if make is None:
            out.append(leaf(rec))
        elif rec[0] == 'N':
            out.append(make(out[rec[1]]))
        else:
            out.append(make([out[c] for c in rec[1]]))
    return out


def fold(nodes, sets, leaf, times, plus, pad, output, universe) -> tuple:
    """Bottom-up semiring values of every node, and the output's value over
    the universe.

    leaf(rec) values an input or constant record (an empty gate counts as
    the constant it stands for); AND/join children combine with times and
    OR/union children with plus.  Before an OR child is added, pad(value,
    gate_set, child_set) extends its value over the variables it misses,
    and the output is padded against the universe the same way, so the
    circuit need not be smooth.  sets are the nodes' variable masks and
    universe is a mask, so the variables a child misses are
    gate_set & ~child_set.  Returns (values, output value).
    """
    vals = []
    for nid, rec in enumerate(nodes):
        kind = rec[0]
        kids = rec[1] if kind in GATES else ()
        if not kids:
            vals.append(leaf(_EMPTY.get(kind, rec)))
        elif kind == 'A' or kind == 'J':
            acc = vals[kids[0]]
            for c in kids[1:]:
                acc = times(acc, vals[c])
            vals.append(acc)
        else:
            gate = sets[nid]
            acc = None
            for c in kids:
                val = vals[c]
                if sets[c] != gate:
                    val = pad(val, gate, sets[c])
                acc = val if acc is None else plus(acc, val)
            vals.append(acc)
    top = vals[output]
    if sets[output] != universe:
        top = pad(top, universe, sets[output])
    return vals, top


def _no_model(nodes) -> set:
    """Ids of the nodes that have no model: a false record, an AND/join
    with such a child and an OR/union with only such children.  No node
    before the first false record reaches one, so the pass starts there,
    and a circuit without false records skips it."""
    start = next((nid for nid, rec in enumerate(nodes) if rec in _FALSE), None)
    dead = set()
    if start is None:
        return dead
    for nid in range(start, len(nodes)):
        rec = nodes[nid]
        kind = rec[0]
        if (kind in 'F0' or kind in 'AJ' and not dead.isdisjoint(rec[1])
                or kind in 'OU' and dead.issuperset(rec[1])):
            dead.add(nid)
    return dead


def _branch(nid: int, gate: int, child: int, rest):
    """Pending work nid, then (once nid succeeds) the variables it misses."""
    return nid, ((gate & ~child,), rest) if child != gate else rest


def answers(nodes, sets, value, domain, output, universe, order):
    """Every answer of a decomposable circuit whose OR/union gates are
    disjoint, each once, as a dict that is overwritten in place.

    value(rec) is the (variable, value) of an input; a variable that an
    OR/union child (or the output, in the universe mask) misses ranges over
    domain(var), and order names the variable of each mask bit.  Earlier
    choices vary slower: the first AND/join child before the next, an
    OR/union child before its missing variables, and those smallest first.
    No recursion: pending work is a cons list of node ids, ~var and
    (missing mask,) pads, and each OR/union or missing variable is a choice
    point [alternatives, next, rest, tag].
    Nothing is unassigned on backtracking, as every alternative at a
    choice point assigns the same variables.  Alternatives without a model
    are skipped, so every choice taken leads to an answer.
    """
    dead = _no_model(nodes)
    if output in dead:
        return
    assignment = {}
    choices = []
    pending = _branch(output, universe, sets[output], None)
    while True:
        if pending is None:
            yield assignment
        else:
            item, pending = pending
            if item.__class__ is tuple:
                for var in reversed(members(item[0], order)):
                    pending = (~var, pending)
                continue
            rec = nodes[item] if item >= 0 else None
            if rec is None:             # a missing variable
                choices.append([domain(~item), 0, pending, item])
            elif rec[0] == 'A' or rec[0] == 'J':
                for c in reversed(rec[1]):
                    pending = (c, pending)
                continue
            elif rec[0] in INPUTS:
                var, val = value(rec)
                assignment[var] = val
                continue
            elif rec[0] == 'T' or rec[0] == '1':
                continue
            elif rec[0] == 'O' or rec[0] == 'U':
                choices.append([rec[1], 0, pending, item])
        # an answer or a new choice point: take the next
        # alternative of the newest choice point that has one
        while choices:
            point = choices[-1]
            alts, i, rest, tag = point
            if i < len(alts):
                point[1] = i + 1
                if tag < 0:
                    assignment[~tag] = alts[i]
                    pending = rest
                elif dead and alts[i] in dead:
                    continue
                else:
                    pending = _branch(alts[i], sets[tag], sets[alts[i]], rest)
                break
            choices.pop()
        else:
            return


def branch_values(vals, sets, pad, gate: int, kids) -> list:
    """The padded values that `fold` added up at an OR/union gate."""
    return [vals[c] if sets[c] == sets[gate] else pad(vals[c], sets[gate], sets[c])
            for c in kids]


class Intervals:
    """Values over sets of variables, assembled from one segment tree over
    an ascending order of the variables, whose positions are mask bits.

    leaf(var) is the value of one variable and join(a, b) that of the union
    of two disjoint sets.  Tree nodes are built lazily and memoised, and so
    is the canonical cover of each maximal run of consecutive positions: a
    set made of r runs is covered by at most 2 r ceil(log2 n) pieces.
    """

    def __init__(self, order, leaf, join):
        self.order = order
        self.leaf = leaf
        self.join = join
        self._segments = {}
        self._covers = {}

    def _segment(self, lo: int, hi: int):
        """Value of order[lo:hi], a segment-tree node (depth log n)."""
        g = self._segments.get((lo, hi))
        if g is None:
            if hi - lo == 1:
                g = self.leaf(self.order[lo])
            else:
                mid = (lo + hi) // 2
                g = self.join(self._segment(lo, mid), self._segment(mid, hi))
            self._segments[(lo, hi)] = g
        return g

    def _cover(self, start: int, end: int) -> list:
        """Canonical segment-tree pieces of order[start:end], ascending."""
        pieces = self._covers.get((start, end))
        if pieces is None:
            pieces = []
            stack = [(0, len(self.order))]
            while stack:
                lo, hi = stack.pop()
                if start <= lo and hi <= end:
                    pieces.append(self._segment(lo, hi))
                elif lo < end and start < hi:
                    mid = (lo + hi) // 2
                    stack.append((mid, hi))
                    stack.append((lo, mid))
            self._covers[(start, end)] = pieces
        return pieces

    def pieces(self, mask: int) -> list:
        """Segment-tree pieces covering the variables of a mask, ascending,
        read run by run off the mask: adding a run's lowest bit clears the
        run and sets the bit just past its end."""
        out = []
        while mask:
            low = mask & -mask
            mask += low
            end = mask & -mask
            mask ^= end
            out += self._cover(low.bit_length() - 1, end.bit_length() - 1)
        return out


def truth_values(nodes, literal) -> list:
    """Truth value of every node of a Boolean circuit, bottom-up.

    literal(var, positive) is the value of an input literal, so a
    `literal` that answers True for unassigned variables decides
    satisfiability of a decomposable NNF circuit under a partial assignment.
    """
    vals = []
    for rec in nodes:
        kind = rec[0]
        if kind == 'L':
            vals.append(literal(rec[1], rec[2]))
        elif kind == 'A':
            vals.append(all(vals[c] for c in rec[1]))
        elif kind == 'O':
            vals.append(any(vals[c] for c in rec[1]))
        elif kind == 'N':
            vals.append(not vals[rec[1]])
        else:
            vals.append(kind == 'T')
    return vals


def resolve(ids: list, refs, where: str) -> tuple:
    """Builder ids of the child ids a file gives for its next node; each
    must name a node read before it."""
    for i in refs:
        if not 0 <= i < len(ids):
            raise InputFormatError(f"{where}: child {i} is not an earlier node")
    return tuple(ids[i] for i in refs)


class Builder:
    """Hash-consing node store; children must exist before their parents,
    so the node list is always topologically sorted."""

    def __init__(self):
        self.nodes = []
        self._intern = {}

    def _add(self, rec) -> int:
        nid = self._intern.get(rec)
        if nid is None:
            nid = len(self.nodes)
            self.nodes.append(rec)
            self._intern[rec] = nid
        return nid

    def prune(self, output: int) -> tuple:
        """(nodes, output) keeping only the nodes reachable from the output.

        One reverse sweep marks them, as every child comes before its
        parent.  When all are reachable the builder's records are returned
        as they are; otherwise the survivors are renumbered in builder
        order."""
        nodes = self.nodes
        live = bytearray(output + 1)
        live[output] = 1
        for nid in range(output, -1, -1):
            if live[nid]:
                rec = nodes[nid]
                kind = rec[0]
                if kind in GATES:
                    for c in rec[1]:
                        live[c] = 1
                elif kind == 'N':
                    live[rec[1]] = 1
        if output == len(nodes) - 1 and 0 not in live:
            return tuple(nodes), output
        remap = [0] * (output + 1)
        out = []
        for nid in range(output + 1):
            if live[nid]:
                rec = nodes[nid]
                if rec[0] in GATES:
                    rec = (rec[0], tuple([remap[c] for c in rec[1]]))
                elif rec[0] == 'N':
                    rec = ('N', remap[rec[1]])
                remap[nid] = len(out)
                out.append(rec)
        return tuple(out), remap[output]
