"""Exception types shared across the package.

Domain errors (a well-formed request that the engine cannot serve) derive
from KcompError.  Malformed input files raise InputFormatError so that the
CLI can map them to a usage exit code.
"""


class KcompError(Exception):
    """Base class for domain errors."""


class InputFormatError(KcompError):
    """A text input (DIMACS, .nnf, TSV, query, JSON) is malformed."""


# -- Boolean circuits ------------------------------------------------------

class NotDecomposable(KcompError):
    """An AND gate has children with intersecting variable sets."""


class NotDNNF(KcompError):
    """Operation requires a decomposable NNF circuit."""


class NotSmoothDeterministicDNNF(KcompError):
    """Operation requires a smooth, deterministic, decomposable circuit."""


class Unsatisfiable(KcompError):
    """Operation requires a satisfiable circuit."""


class IncompleteWeightMap(KcompError):
    """A literal of the circuit has no weight."""


# -- DIMACS / CNF ----------------------------------------------------------

class MalformedHeader(InputFormatError):
    pass


class LiteralOutOfRange(InputFormatError):
    pass


class ClauseCountMismatch(InputFormatError):
    pass


# -- Relational circuits ---------------------------------------------------

class DomainViolation(KcompError):
    """A tuple uses a value outside the declared attribute domain."""


class NotCountable(KcompError):
    """Counting requires decision-shaped unions or certified disjointness."""


class NotOrdered(KcompError):
    """Direct access requires a circuit ordered along its attribute list."""


class OutOfRange(KcompError):
    """Requested answer index exceeds the relation size."""


class NonBooleanDomain(KcompError):
    """Conversion to a Boolean circuit needs all domains equal to {0, 1}."""


# -- Conjunctive queries ---------------------------------------------------

class QuerySyntaxError(InputFormatError):
    pass


class ArityMismatch(InputFormatError):
    pass


class UnboundHeadVariable(InputFormatError):
    pass


class UnknownRelation(KcompError):
    pass


class OrderMissingVariables(KcompError):
    """The supplied variable order does not cover the query as required."""


class NotFreeConnex(KcompError):
    pass


# -- Provenance / probabilistic tasks --------------------------------------

class SelfJoinPresent(KcompError):
    pass


class NotHierarchical(KcompError):
    pass


class TargetExogenous(KcompError):
    pass


# -- Tree automata ----------------------------------------------------------

class IncompleteTransition(KcompError):
    pass


class NondeterministicAutomaton(KcompError):
    pass
