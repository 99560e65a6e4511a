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
second field, and the `var_sets` of a relational circuit are its attribute
sets.  Builders hash-cons records, so structurally equal subcircuits share
one id, and `prune` keeps what is reachable from the output.
"""

from __future__ import annotations

from .errors import InputFormatError

GATES = ('A', 'O', 'J', 'U')
INPUTS = ('L', 'I')
_NONE = frozenset()


def children(rec) -> tuple:
    kind = rec[0]
    if kind in GATES:
        return rec[1]
    if kind == 'N':
        return (rec[1],)
    return ()


def edge_count(nodes) -> int:
    return sum(len(children(rec)) for rec in nodes)


def var_sets(nodes) -> tuple:
    """Per node, the variables of the inputs below it."""
    sets = []
    for rec in nodes:
        kind = rec[0]
        if kind in INPUTS:
            sets.append(frozenset((rec[1],)))
        elif kind == 'N':
            sets.append(sets[rec[1]])
        elif kind not in GATES:
            sets.append(_NONE)
        elif len(rec[1]) == 1:
            sets.append(sets[rec[1][0]])
        else:
            acc = set()
            for c in rec[1]:
                acc.update(sets[c])
            sets.append(frozenset(acc))
    return tuple(sets)


def binary_splits(nodes, sets, kind: str):
    """Variable splits of the gates of one kind ('A' or 'J'), each k-ary
    gate folded left to right; yields (left, right) with both nonempty."""
    for rec in nodes:
        if rec[0] != kind:
            continue
        kids = rec[1]
        suffixes = [_NONE] * len(kids)
        acc = set()
        for i in range(len(kids) - 1, 0, -1):
            acc.update(sets[kids[i]])
            suffixes[i - 1] = frozenset(acc)
        for i in range(len(kids) - 1):
            left = sets[kids[i]]
            if left and suffixes[i]:
                yield left, suffixes[i]


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
            out.append(make(tuple(out[c] for c in rec[1])))
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
        """(nodes, output) keeping only the nodes reachable from the output,
        renumbered in builder order."""
        nodes = self.nodes
        keep = [False] * len(nodes)
        keep[output] = True
        stack = [output]
        while stack:
            for c in children(nodes[stack.pop()]):
                if not keep[c]:
                    keep[c] = True
                    stack.append(c)
        remap = [0] * len(nodes)
        out = []
        for nid, rec in enumerate(nodes):
            if not keep[nid]:
                continue
            if rec[0] in GATES:
                rec = (rec[0], tuple(remap[c] for c in rec[1]))
            elif rec[0] == 'N':
                rec = ('N', remap[rec[1]])
            remap[nid] = len(out)
            out.append(rec)
        return tuple(out), remap[output]
