"""Read and write circuits in the c2d text format.

Layout, one node per line, 0-based ids in file order, last node is the
output:

    nnf V E N          header: node count, edge count, variable count
    L l                literal; l signed, variables numbered 1..N
    A c i1 ... ic      AND with c children
    O j c i1 ... ic    OR; j is the decision variable (0 if none)

Constants follow the c2d convention: true is `A 0`, false is `O 0 0`.
Variable k in the file maps to circuit variable k-1; the variable universe
of a file is always the dense set {0, ..., N-1}.  Writing is canonical
(reachable nodes only, builder order), so write, read, write is
byte-identical.
"""

from __future__ import annotations

from ._dag import resolve
from .circuits import BoolCircuit, CircuitBuilder
from .errors import InputFormatError


def write_nnf(circuit: BoolCircuit) -> str:
    nodes = circuit.nodes
    decisions = circuit.decisions()
    lines = []
    edges = 0
    for nid, rec in enumerate(nodes):
        kind = rec[0]
        if kind == 'T':
            lines.append("A 0")
        elif kind == 'F':
            lines.append("O 0 0")
        elif kind == 'L':
            lit = rec[1] + 1 if rec[2] else -(rec[1] + 1)
            lines.append(f"L {lit}")
        elif kind == 'A':
            kids = rec[1]
            edges += len(kids)
            lines.append("A " + " ".join([str(len(kids))] + [str(c) for c in kids]))
        elif kind == 'O':
            kids = rec[1]
            edges += len(kids)
            j = decisions.get(nid, -1) + 1
            lines.append(f"O {j} " + " ".join([str(len(kids))] + [str(c) for c in kids]))
        else:
            raise ValueError("negation gates have no c2d encoding; "
                             "normalize to NNF first")
    num_vars = max(circuit.universe) + 1 if circuit.universe else 0
    header = f"nnf {len(nodes)} {edges} {num_vars}"
    return "\n".join([header] + lines) + "\n"


def read_nnf(text: str) -> BoolCircuit:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines())
             if ln and not ln.startswith('c')]
    if not lines or not lines[0].startswith('nnf'):
        raise InputFormatError("missing nnf header")
    fields = lines[0].split()
    if len(fields) != 4:
        raise InputFormatError(f"bad header: {lines[0]!r}")
    try:
        node_count, _edge_count, num_vars = (int(f) for f in fields[1:])
    except ValueError:
        raise InputFormatError(f"bad header: {lines[0]!r}") from None
    if len(lines) - 1 != node_count:
        raise InputFormatError(f"header declares {node_count} nodes, "
                               f"file has {len(lines) - 1}")
    b = CircuitBuilder(num_vars)
    ids = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        tag = parts[0]
        try:
            args = [int(p) for p in parts[1:]]
        except ValueError:
            raise InputFormatError(f"line {lineno}: non-numeric field") from None
        if tag == 'L':
            if len(args) != 1 or args[0] == 0:
                raise InputFormatError(f"line {lineno}: bad literal line")
            var = abs(args[0]) - 1
            if var >= num_vars:
                raise InputFormatError(f"line {lineno}: literal out of range")
            ids.append(b.literal(var, args[0] > 0))
        elif tag == 'A':
            if not args or args[0] != len(args) - 1:
                raise InputFormatError(f"line {lineno}: bad AND arity")
            if args[0] == 0:
                ids.append(b.true())
            else:
                ids.append(b.conj(resolve(ids, args[1:], f"line {lineno}")))
        elif tag == 'O':
            if len(args) < 2 or args[1] != len(args) - 2:
                raise InputFormatError(f"line {lineno}: bad OR arity")
            if args[1] == 0:
                ids.append(b.false())
            else:
                ids.append(b.disj(resolve(ids, args[2:], f"line {lineno}")))
        else:
            raise InputFormatError(f"line {lineno}: unknown node tag {tag!r}")
    if not ids:
        raise InputFormatError("no nodes in file")
    return b.finish(ids[-1])
