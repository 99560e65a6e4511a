"""Multivalued circuits computing relations over finite ordered domains.

Nodes mirror the Boolean case: inputs assert one attribute/value pair,
joins generalize AND, extended unions generalize OR; the node model,
builder and DAG passes shared with Boolean circuits live in `_dag`.  A
union child that misses attributes of its gate is extended, by default
over the full domain of each missing attribute; a circuit built with
zero-suppressed defaults extends with one fixed default value per
attribute instead.  The same rule extends the output gate to the
attribute universe.

Node records:

    ('I', attr, vidx)   input relation attr/value (value by domain index)
    ('U', children)     extended union
    ('J', children)     natural join
    ('1',)              unit relation (join identity, no attributes)
    ('0',)              empty relation

A union gate is a decision gate on attribute x when every child is a join
of exactly one input x/d and one continuation without x, with the values d
pairwise distinct; decisions certify disjointness syntactically.  A circuit
is ordered when each decision on an attribute only has continuation
attributes that come later in the circuit's attribute list; ordered
circuits support counting, enumeration, and lexicographic direct access.
Direct access builds one index per circuit, linear in the circuit for
compiled queries, then answers each rank in one pass over the attributes,
with one bisect per decision gate.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from ._dag import (Builder, answers, certify, edge_count, fold, members,
                   rebuild, resolve, var_masks)
from .circuits import BoolCircuit, CircuitBuilder, _LazyWitness
from .errors import (DomainViolation, InputFormatError, NonBooleanDomain,
                     NotCountable, NotDecomposable, NotOrdered, OutOfRange)


class RelCircuit:
    """Frozen relational circuit; caches are lazy and idempotent."""

    def __init__(self, nodes: tuple, output: int, attrs: tuple, domains: tuple,
                 defaults: Optional[tuple] = None):
        self.nodes = nodes
        self.output = output
        self.attrs = attrs                    # attribute names, lexicographic order
        self.domains = domains                # per attribute, ordered value tuple
        self.defaults = defaults              # value indexes, or None for full
        self.attr_index = {a: i for i, a in enumerate(attrs)}
        self._size = None
        self._attrsets = None
        self._report = None
        self._counts = None
        self._access = None

    @property
    def size(self) -> int:
        if self._size is None:
            self._size = edge_count(self.nodes)
        return self._size

    def ext_domain_size(self, attr: int) -> int:
        return 1 if self.defaults is not None else len(self.domains[attr])

    def ext_domain_values(self, attr: int) -> tuple:
        if self.defaults is not None:
            return (self.domains[attr][self.defaults[attr]],)
        return self.domains[attr]

    @property
    def full_mask(self) -> int:
        """The mask of every attribute: bit i stands for attribute i."""
        return (1 << len(self.attrs)) - 1

    def attrsets(self) -> tuple:
        """Per-node attribute masks: bit i is set when attribute i has an
        input below the node."""
        if self._attrsets is None:
            self._attrsets = var_masks(self.nodes, lambda attr: 1 << attr)
        return self._attrsets


@dataclass
class RelClassReport(_LazyWitness):
    """Syntactic flags of a relational circuit.  ordered_witness is the
    attribute order of an ordered circuit; structured_witness, a vtree over
    attribute indexes that every join split fits, comes from a greedy
    search that runs on its first read and is cached in the report.
    _decisions maps each decision gate to the attribute it decides, which
    direct access builds its plan from."""
    decomposable: bool
    smooth_union: bool
    decision_only: bool
    ordered_witness: Optional[tuple] = None
    _witness: Optional[object] = field(default=None, repr=False, compare=False)
    _search: Optional[tuple] = field(default=None, repr=False, compare=False)
    _decisions: Optional[dict] = field(default=None, repr=False, compare=False)


class RelBuilder(Builder):
    """Hash-consing builder; finish() freezes, dropping the nodes the
    output does not reach."""

    def __init__(self, attrs: Iterable[str], domains: dict,
                 defaults: Optional[dict] = None):
        super().__init__()
        self.attrs = tuple(attrs)
        self.attr_index = {a: i for i, a in enumerate(self.attrs)}
        if len(self.attr_index) != len(self.attrs):
            raise ValueError("duplicate attribute names")
        doms = []
        for a in self.attrs:
            values = tuple(domains[a])
            if not values:
                raise ValueError(f"attribute {a!r} has an empty domain")
            if len(set(values)) != len(values):
                raise ValueError(f"attribute {a!r} repeats domain values")
            doms.append(values)
        self.domains = tuple(doms)
        self.value_index = [{v: i for i, v in enumerate(d)} for d in self.domains]
        if defaults is None:
            self.defaults = None
        else:
            self.defaults = tuple(self.value_index[i][defaults[a]]
                                  for i, a in enumerate(self.attrs))

    def input(self, attr: str, value) -> int:
        i = self.attr_index[attr]
        vi = self.value_index[i].get(value)
        if vi is None:
            raise DomainViolation(f"value {value!r} outside domain of {attr!r}")
        return self._add(('I', i, vi))

    def unit(self) -> int:
        return self._add(('1',))

    def empty(self) -> int:
        return self._add(('0',))

    def union(self, children: Iterable[int]) -> int:
        return self._add(('U', tuple(children)))

    def join(self, children: Iterable[int]) -> int:
        return self._add(('J', tuple(children)))

    def finish(self, output: int) -> RelCircuit:
        nodes, output = self.prune(output)
        return RelCircuit(nodes, output, self.attrs, self.domains, self.defaults)


# -- evaluation -----------------------------------------------------------------

def eval_rel(circuit: RelCircuit, tup: dict) -> bool:
    """Membership of a tuple (attr name -> value) in the computed relation."""
    vidx = {}
    for i, a in enumerate(circuit.attrs):
        if a not in tup:
            raise DomainViolation(f"tuple misses attribute {a!r}")
        try:
            vidx[i] = circuit.domains[i].index(tup[a])
        except ValueError:
            raise DomainViolation(
                f"value {tup[a]!r} outside domain of {a!r}") from None
    extra = set(tup) - set(circuit.attrs)
    if extra:
        raise DomainViolation(f"unknown attributes {sorted(extra)}")
    # a union child, or the output, may miss only attributes that hold
    # their default (any value, in full mode)
    defaults = circuit.defaults
    at_default = sum(1 << i for i in vidx
                     if defaults is None or vidx[i] == defaults[i])

    def leaf(rec) -> bool:
        return vidx[rec[1]] == rec[2] if rec[0] == 'I' else rec[0] == '1'

    return fold(circuit.nodes, circuit.attrsets(), leaf,
                lambda a, b: a and b, lambda a, b: a or b,
                lambda val, gate, child: val and not gate & ~child & ~at_default,
                circuit.output, circuit.full_mask)[1]


# -- classification ----------------------------------------------------------------

def _decision_attr(nodes, sets, kids) -> Optional[int]:
    """The relational decision rule: the attribute a union with these
    children tests, or None.

    Each child must be a binary join of an input on one common attribute
    and a continuation not mentioning it (by its mask in sets), with
    pairwise distinct values; of several such attributes, the smallest.
    """
    if not kids:
        return None
    options = []
    for c in kids:
        crec = nodes[c]
        if crec[0] != 'J' or len(crec[1]) != 2:
            return None
        left, right = crec[1]
        cands = {}
        for inp, other in ((left, right), (right, left)):
            irec = nodes[inp]
            if irec[0] == 'I' and not sets[other] >> irec[1] & 1:
                cands.setdefault(irec[1], irec[2])
        if not cands:
            return None
        options.append(cands)
    shared = set(options[0])
    for cands in options[1:]:
        shared &= cands.keys()
    for attr in sorted(shared):
        values = {cands[attr] for cands in options}
        if len(values) == len(options):
            return attr
    return None


def decision_attr(circuit: RelCircuit, nid: int) -> Optional[int]:
    """Attribute tested by a decision-shaped union, else None; read off
    the decision map `classify_rel` records once per circuit."""
    return classify_rel(circuit)._decisions.get(nid)


def classify_rel(circuit: RelCircuit) -> RelClassReport:
    """Syntactic flags from one `_dag.certify` pass; union disjointness is
    certified only through the decision shape.  The vtree search for
    structured_witness runs on the first read of that property, not here."""
    if circuit._report is not None:
        return circuit._report
    attrsets = circuit.attrsets()
    _, decomposable, smooth_union, decision_only, decisions = certify(
        circuit.nodes, attrsets, _decision_attr)
    # ordered: every decision tests its gate's first attribute
    ordered = None
    if decision_only and decomposable and all(
            attrsets[nid] & -attrsets[nid] == 1 << attr
            for nid, attr in decisions.items()):
        ordered = circuit.attrs

    search = None
    if decomposable:
        n = len(circuit.attrs)
        search = (frozenset(range(n)), circuit.nodes, attrsets, 'J', range(n))

    report = RelClassReport(decomposable, smooth_union, decision_only,
                            ordered, _search=search, _decisions=decisions)
    circuit._report = report
    return report


# -- counting --------------------------------------------------------------------

def _require_countable(circuit: RelCircuit, assume_disjoint: bool):
    report = classify_rel(circuit)
    if report.decision_only and report.decomposable:
        return report
    if assume_disjoint and report.decomposable:
        return report
    raise NotCountable(
        "counting needs decision-shaped unions (or assume_disjoint=True "
        "with certified disjointness) on a decomposable circuit")


def _extension_pad(circuit: RelCircuit):
    """fold pad: a count times the extended domain sizes of the attributes
    a union child misses."""
    sizes = [circuit.ext_domain_size(a) for a in range(len(circuit.attrs))]
    return lambda count, gate, child: count * math.prod(members(gate & ~child, sizes))


def _gate_counts(circuit: RelCircuit) -> tuple:
    """(per-gate |rel| over the gate's own attributes, |rel| over the
    attribute universe), cached on the circuit."""
    if circuit._counts is None:
        circuit._counts = fold(circuit.nodes, circuit.attrsets(),
                               lambda rec: 0 if rec[0] == '0' else 1,
                               operator.mul, operator.add, _extension_pad(circuit),
                               circuit.output, circuit.full_mask)
    return circuit._counts


def count_rel(circuit: RelCircuit, assume_disjoint: bool = False) -> int:
    """Number of tuples over the attribute universe."""
    _require_countable(circuit, assume_disjoint)
    return _gate_counts(circuit)[1]


# -- enumeration ---------------------------------------------------------------------

def enumerate_rel(circuit: RelCircuit, assume_disjoint: bool = False) -> Iterator[dict]:
    """Yield each tuple of the relation exactly once, as attr -> value.

    The stack-based `_dag.answers` walk shared with Boolean circuits: each
    child of a union in turn, with the attributes it misses expanded over
    their extended domains, in domain order.
    """
    _require_countable(circuit, assume_disjoint)
    domains = circuit.domains
    names = circuit.attrs
    for tup in answers(circuit.nodes, circuit.attrsets(),
                       lambda rec: (rec[1], domains[rec[1]][rec[2]]),
                       circuit.ext_domain_values, circuit.output,
                       circuit.full_mask, range(len(names))):
        yield {names[i]: v for i, v in tup.items()}


# -- lexicographic direct access -----------------------------------------------------

def _access_plan(circuit: RelCircuit) -> tuple:
    """(start slots, |rel|) for direct access, built once and cached.

    A slot item is (1, values) for an extension attribute free over its
    extended domain; (2, prefix, rows) for a decision gate, whose rows are
    its nonzero branches by value index, each (value, local count,
    entries), with prefix the running sums of the local counts; or (0,
    value, entries) for a fixed value: an input (no entries), an extension
    attribute of one value (the default, in zero-suppressed mode) or a
    decision gate with one nonzero branch, which leaves the rank as it is.
    Entries are the (attribute, item) pairs of the continuation's join
    leaves, flattened once per continuation through its joins, plus the
    extension attributes the branch leaves free.  The start slots hold, per
    attribute, the output's join leaves and the attributes the output
    misses.  The build takes one pass over the decision gates and flattens
    each continuation once: linear in the circuit unless continuations
    share joins or branches leave many attributes free, which compiled
    queries do not.
    """
    if circuit._access is None:
        report = classify_rel(circuit)
        if report.ordered_witness is None:
            raise NotOrdered("direct access needs an ordered decision circuit")
        counts, total = _gate_counts(circuit)
        pad = _extension_pad(circuit)
        attrsets = circuit.attrsets()
        nodes = circuit.nodes
        every = range(len(circuit.attrs))
        free = []
        for a in every:
            values = circuit.ext_domain_values(a)
            free.append((a, (0, values[0], ()) if len(values) == 1 else (1, values)))
        gates = {}             # decision gate id -> (attr, item)
        flat = {}              # continuation id -> its join leaves, keyed

        def leaves(top: int) -> tuple:
            got = flat.get(top)
            if got is None:
                got = []
                stack = [top]
                while stack:
                    nid = stack.pop()
                    rec = nodes[nid]
                    if rec[0] == 'J':
                        stack.extend(rec[1])
                    elif rec[0] == 'I':
                        got.append((rec[1], (0, circuit.domains[rec[1]][rec[2]], ())))
                    elif rec[0] == 'U':
                        got.append(gates[nid])
                got = flat[top] = tuple(got)
            return got

        for nid, attr in report._decisions.items():    # children first
            gate_attrs = attrsets[nid] & ~(1 << attr)
            pairs = []
            for branch in nodes[nid][1]:
                test, cont = nodes[branch][1]
                if nodes[test][:2] != ('I', attr):
                    test, cont = cont, test
                pairs.append((nodes[test][2], cont))
            rows = []
            for vi, cont in sorted(pairs):
                local = pad(counts[cont], gate_attrs, attrsets[cont])
                if local:
                    entries = leaves(cont)
                    missing = gate_attrs & ~attrsets[cont]
                    if missing:
                        entries += tuple(members(missing, free))
                    rows.append((circuit.domains[attr][vi], local, entries))
            if len(rows) == 1:
                gates[nid] = (attr, (0, rows[0][0], rows[0][2]))
                continue
            prefix = [0]
            for row in rows:
                prefix.append(prefix[-1] + row[1])
            gates[nid] = (attr, (2, prefix, rows))
        start = [None] * len(every)
        for a, item in members(circuit.full_mask & ~attrsets[circuit.output], free):
            start[a] = item
        if total:
            for a, item in leaves(circuit.output):
                start[a] = item
        circuit._access = start, total
    return circuit._access


def direct_access(circuit: RelCircuit, index: int) -> dict:
    """The index-th tuple (1-based) in lexicographic order.

    Order: attributes in circuit order, values in domain order.  Cost: one
    index build per circuit (`_access_plan`), linear in the circuit for
    compiled queries, then one pass over the attributes per rank, with one
    bisect per decision gate.  The pass keeps one pending item per attribute; resolving it
    divides the rank by the weight of the attributes after it, and a
    decision writes the chosen branch's items into later slots: in an
    ordered circuit a gate's first attribute is the one it decides, so they
    all come after it, and decomposability keeps pending items on distinct
    attributes.
    """
    if index < 1:
        raise OutOfRange(f"answer indexes are 1-based, got {index}")
    start, total = circuit._access or _access_plan(circuit)
    if index > total:
        raise OutOfRange(f"relation has {total} tuples, asked for {index}")
    slots = start.copy()
    k = index - 1
    out = {}
    for name, item in zip(circuit.attrs, slots):    # sees the slots written ahead
        if item[0] == 0:
            out[name] = item[1]
            for a, entry in item[2]:
                slots[a] = entry
        elif item[0] == 1:
            total //= len(item[1])
            pick, k = divmod(k, total)
            out[name] = item[1][pick]
        else:
            _, prefix, rows = item
            rest = total // prefix[-1]
            rank, k = divmod(k, rest)
            j = bisect_right(prefix, rank) - 1
            value, local, entries = rows[j]
            out[name] = value
            # the remaining rank interleaves the branch with the rest
            k += (rank - prefix[j]) * rest
            total = local * rest
            for a, entry in entries:
                slots[a] = entry
    return out


# -- projection -------------------------------------------------------------------------

def project_away(circuit: RelCircuit, attrs: Iterable[str]) -> RelCircuit:
    """Existentially project the given attributes out of the relation.

    Inputs on projected attributes become the unit relation, which is the
    correct existential on decomposable circuits; decision shape is
    generally lost and flags are recomputed on the result.
    """
    report = classify_rel(circuit)
    if not report.decomposable:
        raise NotDecomposable("projection requires a decomposable circuit")
    drop = set(attrs)
    unknown = drop - set(circuit.attrs)
    if unknown:
        raise DomainViolation(f"unknown attributes {sorted(unknown)}")
    drop_idx = {circuit.attr_index[a] for a in drop}
    keep = [i for i in range(len(circuit.attrs)) if i not in drop_idx]
    b = RelBuilder([circuit.attrs[i] for i in keep],
                   {circuit.attrs[i]: list(circuit.domains[i]) for i in keep},
                   None if circuit.defaults is None else
                   {circuit.attrs[i]: circuit.domains[i][circuit.defaults[i]]
                    for i in keep})

    def leaf(rec) -> int:
        if rec[0] == 'I' and rec[1] not in drop_idx:
            return b.input(circuit.attrs[rec[1]], circuit.domains[rec[1]][rec[2]])
        return b.empty() if rec[0] == '0' else b.unit()

    out = rebuild(circuit.nodes, leaf, {'J': b.join, 'U': b.union})
    return b.finish(out[circuit.output])


# -- Boolean bridge ------------------------------------------------------------------------

def to_boolean(circuit: RelCircuit) -> BoolCircuit:
    """Rename x/1 to x and x/0 to not-x, joins to AND, unions to OR.

    Every attribute domain must be exactly (0, 1), as integers or as the
    text tokens a file round trip produces; zero-suppressed circuits have
    no plain Boolean counterpart and are rejected.
    """
    if circuit.defaults is not None:
        raise NonBooleanDomain("zero-suppressed circuits do not map to "
                               "plain Boolean circuits")
    for a, dom in zip(circuit.attrs, circuit.domains):
        if dom not in ((0, 1), ('0', '1')):
            raise NonBooleanDomain(f"attribute {a!r} has domain {dom}, not (0, 1)")
    b = CircuitBuilder(len(circuit.attrs))

    def leaf(rec) -> int:
        if rec[0] == 'I':
            return b.literal(rec[1], rec[2] == 1)
        return b.true() if rec[0] == '1' else b.false()

    out = rebuild(circuit.nodes, leaf, {'J': b.conj, 'U': b.disj})
    return b.finish(out[circuit.output])


# -- text serialization -----------------------------------------------------------

def write_rel(circuit: RelCircuit) -> str:
    """Serialize in a line format mirroring the Boolean circuit files.

    Header `rel A V E`, one `attr <name> <d> <v1> ... <vd>` line per
    attribute (domain values as text tokens), a `mode` line (`full`, or
    `zero` with the per-attribute default indexes), then one node per line:
    `I a k` (input, attribute and value index), `U c i1 ... ic`,
    `J c i1 ... ic`; the unit relation is `J 0`, the empty one `U 0`, ids
    are 0-based in file order and the last node is the output.
    """
    lines = []
    for a, dom in zip(circuit.attrs, circuit.domains):
        tokens = [str(v) for v in dom]
        for tok in [a] + tokens:
            if not tok or any(ch.isspace() for ch in tok):
                raise ValueError(f"token {tok!r} cannot be serialized")
        lines.append("attr " + a + " " + str(len(tokens)) + " " + " ".join(tokens))
    if circuit.defaults is None:
        lines.append("mode full")
    else:
        lines.append("mode zero " + " ".join(str(k) for k in circuit.defaults))
    edges = 0
    for rec in circuit.nodes:
        kind = rec[0]
        if kind == 'I':
            lines.append(f"I {rec[1]} {rec[2]}")
        elif kind == '1':
            lines.append("J 0")
        elif kind == '0':
            lines.append("U 0")
        else:
            kids = rec[1]
            edges += len(kids)
            lines.append(kind + " " + " ".join([str(len(kids))] + [str(c) for c in kids]))
    header = f"rel {len(circuit.attrs)} {len(circuit.nodes)} {edges}"
    return "\n".join([header] + lines) + "\n"


def read_rel(text: str) -> RelCircuit:
    """Parse the write_rel format; domain values come back as text."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith('#')]
    if not lines or not lines[0].startswith('rel'):
        raise InputFormatError("missing rel header")
    try:
        num_attrs, node_count, _edges = (int(t) for t in lines[0].split()[1:])
    except ValueError:
        raise InputFormatError(f"bad header {lines[0]!r}") from None
    if len(lines) < 1 + num_attrs + 1:
        raise InputFormatError("truncated file")
    attrs = []
    domains = {}
    for ln in lines[1:1 + num_attrs]:
        parts = ln.split()
        if len(parts) < 3 or parts[0] != 'attr':
            raise InputFormatError(f"bad attribute line {ln!r}")
        name = parts[1]
        try:
            count = int(parts[2])
        except ValueError:
            raise InputFormatError(f"bad attribute line {ln!r}") from None
        values = parts[3:]
        if len(values) != count:
            raise InputFormatError(f"attribute {name!r} declares {count} values, "
                                   f"lists {len(values)}")
        attrs.append(name)
        domains[name] = values
    mode_parts = lines[1 + num_attrs].split()
    defaults = None
    if mode_parts[0] != 'mode':
        raise InputFormatError("expected a mode line after the attributes")
    if len(mode_parts) < 2:
        raise InputFormatError("the mode line names no mode")
    if mode_parts[1] == 'zero':
        try:
            idxs = [int(t) for t in mode_parts[2:]]
        except ValueError:
            raise InputFormatError("bad default indexes") from None
        if len(idxs) != num_attrs:
            raise InputFormatError("one default index per attribute required")
        if any(not 0 <= k < len(domains[a]) for a, k in zip(attrs, idxs)):
            raise InputFormatError("default index out of range")
        defaults = {a: domains[a][k] for a, k in zip(attrs, idxs)}
    elif mode_parts[1] != 'full':
        raise InputFormatError(f"unknown mode {mode_parts[1]!r}")
    b = RelBuilder(attrs, domains, defaults)
    node_lines = lines[2 + num_attrs:]
    if len(node_lines) != node_count:
        raise InputFormatError(f"header declares {node_count} nodes, "
                               f"file has {len(node_lines)}")
    ids = []
    for lineno, ln in enumerate(node_lines, start=1):
        parts = ln.split()
        tag = parts[0]
        try:
            args = [int(t) for t in parts[1:]]
        except ValueError:
            raise InputFormatError(f"node {lineno}: non-numeric field") from None
        if tag == 'I':
            if len(args) != 2 or not 0 <= args[0] < num_attrs:
                raise InputFormatError(f"node {lineno}: bad input line")
            a = attrs[args[0]]
            if not 0 <= args[1] < len(domains[a]):
                raise InputFormatError(f"node {lineno}: value index out of range")
            ids.append(b.input(a, domains[a][args[1]]))
        elif tag in ('U', 'J'):
            if not args or args[0] != len(args) - 1:
                raise InputFormatError(f"node {lineno}: bad arity")
            if args[0] == 0:
                ids.append(b.empty() if tag == 'U' else b.unit())
            else:
                kids = resolve(ids, args[1:], f"node {lineno}")
                ids.append(b.union(kids) if tag == 'U' else b.join(kids))
        else:
            raise InputFormatError(f"node {lineno}: unknown tag {tag!r}")
    if not ids:
        raise InputFormatError("no nodes in file")
    return b.finish(ids[-1])


def from_boolean(circuit: BoolCircuit, attr_names: Optional[tuple] = None) -> RelCircuit:
    """Inverse renaming; the circuit must be in NNF (normalize first)."""
    svars = circuit.sorted_vars()
    if attr_names is None:
        attr_names = tuple(f"x{v}" for v in svars)
    name_of = dict(zip(svars, attr_names))
    b = RelBuilder([name_of[v] for v in svars], {a: [0, 1] for a in attr_names})

    def leaf(rec) -> int:
        if rec[0] == 'N':
            raise ValueError("normalize to NNF before converting")
        if rec[0] == 'L':
            return b.input(name_of[rec[1]], 1 if rec[2] else 0)
        return b.unit() if rec[0] == 'T' else b.empty()

    out = rebuild(circuit.nodes, leaf, {'A': b.join, 'O': b.union})
    return b.finish(out[circuit.output])
