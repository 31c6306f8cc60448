"""Exception types shared across the package.

Every error raised by plumbweave derives from :class:`PlumbweaveError`, so
callers (notably the CLI) can distinguish domain errors from genuine bugs.
The class name is part of the error contract: user-facing messages always
start with it.
"""


class PlumbweaveError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(PlumbweaveError):
    """Malformed tree file or serialized document."""


class CycleDetected(PlumbweaveError):
    """The edge set contains a cycle (self-loop, multi-edge, or genuine cycle)."""


class Disconnected(PlumbweaveError):
    """The edge set does not connect all vertices."""


class BadRoot(PlumbweaveError):
    """Missing root, or root edge not incident to the root vertex."""


class DuplicateId(PlumbweaveError):
    """A vertex or edge identifier is declared twice."""


class EmptyTree(PlumbweaveError):
    """No edges: a single vertex cannot carry a (vertex, edge) root."""


class BadRotation(PlumbweaveError):
    """A rotation line is not a permutation of the incident edges."""


class UnknownVertex(PlumbweaveError):
    """A vertex identifier does not exist in the relevant structure."""


class IndexOutOfRange(PlumbweaveError):
    """An index argument, or a class id of a search state, is outside its
    documented range."""


class BadDimension(PlumbweaveError):
    """Sphere dimension parameter below the supported minimum."""


class DimensionMismatch(PlumbweaveError):
    """Vector or word dimensions do not match the ambient lattice."""


class NonInvertibleTwist(PlumbweaveError):
    """The requested inverse twist is not a lattice automorphism."""


class NotAlgorithmOutput(PlumbweaveError):
    """Operation requires a pristine fibration as produced by ``fibrate``."""
