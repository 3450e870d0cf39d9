"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """Base class for errors related to graph data structures."""


class VertexNotFound(GraphError, KeyError):
    """A vertex referenced by an operation is not present in the graph."""

    def __init__(self, vertex):
        super().__init__(f"vertex {vertex!r} is not in the graph")
        self.vertex = vertex


class EdgeNotFound(GraphError, KeyError):
    """An edge id referenced by an operation is not present in the graph."""

    def __init__(self, eid):
        super().__init__(f"edge id {eid!r} is not in the graph")
        self.eid = eid


class SelfLoopError(GraphError, ValueError):
    """Self-loops are not supported (the paper assumes loop-free graphs)."""

    def __init__(self, vertex):
        super().__init__(f"self-loop at vertex {vertex!r} is not allowed")
        self.vertex = vertex


class NotATreeError(GraphError, ValueError):
    """An operation required a tree (or forest) but the subgraph has a cycle
    or is disconnected."""


class InvalidInstanceError(ReproError, ValueError):
    """An enumeration problem instance violates its preconditions.

    Examples: a terminal is missing from the graph, the terminals are not
    connected, a directed Steiner root cannot reach a terminal, or a
    claw-free algorithm is handed a graph containing a claw.
    """


class NoSolutionError(InvalidInstanceError):
    """The instance admits no solution at all.

    Enumerators generally *yield nothing* for unsolvable instances rather
    than raising; this error is reserved for APIs that promise at least one
    solution (e.g. ``minimal_completion``).
    """


class CursorStateError(InvalidInstanceError):
    """A resume token does not belong to the stream it is resumed against.

    Raised when a cursor checkpoint or search-state snapshot is replayed
    against a job whose instance fingerprint, kind, or backend differs
    from the one the token was taken for — silently fast-forwarding the
    wrong stream would duplicate or drop solutions.  Subclasses
    :class:`InvalidInstanceError` so existing "bad request" handling
    (e.g. the serve layer's 400 mapping) keeps working.
    """


class UnsupportedBackendError(InvalidInstanceError):
    """An enumerator or job was asked for a backend it does not support.

    Every ``backend=`` entry point (the :mod:`repro.core` enumerators,
    the path layer, :class:`repro.engine.jobs.EnumerationJob`) raises
    this same error for an unknown or unsupported backend, naming the
    kind and the supported set.  Subclasses
    :class:`InvalidInstanceError` so the serve layer's 400 mapping and
    existing ``except`` clauses keep working.
    """

    def __init__(self, backend, supported, kind=None):
        where = f" for kind {kind!r}" if kind is not None else ""
        super().__init__(
            f"unsupported backend {backend!r}{where}; "
            f"expected one of {sorted(supported)}"
        )
        self.backend = backend
        self.supported = tuple(supported)
        self.kind = kind


class ClawFreeViolation(InvalidInstanceError):
    """A claw (induced ``K_{1,3}``) was found in a graph that an algorithm
    requires to be claw-free."""

    def __init__(self, center, leaves):
        super().__init__(
            f"graph is not claw-free: vertex {center!r} with independent "
            f"neighbours {tuple(leaves)!r} induces a K_1,3"
        )
        self.center = center
        self.leaves = tuple(leaves)
