"""Backend selection for the core enumerators.

Every enumerator in :mod:`repro.core` (and the path layer) accepts a
``backend`` keyword:

* ``"object"`` — the reference implementation over the hashable-vertex
  :class:`repro.graphs.graph.Graph` / :class:`~repro.graphs.digraph.DiGraph`.
* ``"fast"`` — the integer kernel (:mod:`repro.graphs.fastgraph`): the
  instance is compiled once into flat arrays and the hot path/bridge/
  contraction machinery runs on them.  Dense kernels switch the path
  engine's reachability sweeps to bitsets by themselves
  (:data:`repro.paths.fastpaths.BITSET_MIN_DEGREE`).

A retired backend name survives as an alias of ``"fast"``;
:func:`resolve_backend` maps it, and :func:`check_backend` returns the
resolved name every entry point branches on.

On *integer-compact* instances (vertices are exactly ``0..n-1`` — the
engine's relabeled normal form) the two backends produce byte-identical
solution streams.  Other instances are relabeled transparently before
compilation; the solution *set* is unchanged (edge/arc ids are
preserved, vertex-level solutions are translated back), but the
enumeration *order* may legitimately differ from the object backend's,
whose tie-breaks then depend on the labels' hash order.

The implementations live in :mod:`repro.graphs.fastgraph`; this module
re-exports them at the layer the enumerators import from.
"""

from typing import FrozenSet, Tuple

from repro.graphs.fastgraph import (
    BACKENDS,
    check_backend,
    compile_directed,
    compile_undirected,
    map_query_vertex,
    map_query_vertices,
    resolve_backend,
)

# ----------------------------------------------------------------------
# The ranked ordering contract
# ----------------------------------------------------------------------
# Every ranked/top-k entry point (repro.core.ranked, repro.datagraph.ranked)
# orders solutions by RANKED ORDER:
#
#     (weight, canonical edge-id tuple)   with the tuple sorted ascending.
#
# The weight is the float64 sum of the solution's edge weights in the
# solution set's own iteration order (``tree_weight`` semantics on the
# object backend, ``FastGraph.total_weight`` on the kernel — the same
# additions in the same order, so the floats are bit-identical).  Ties —
# equal weights, which integral weight models produce constantly — break
# by the canonical edge-id tuple, which depends only on the solution
# itself, never on enumeration arrival order.  That is what makes ranked
# streams byte-identical across backends: arrival order is a backend
# implementation detail, the ranked key is not.
#
# ``tests/test_backend_equivalence.py`` pins this contract with
# duplicate-weight instances on both backends.


def solution_sort_key(solution: FrozenSet[int]) -> Tuple[int, ...]:
    """Canonical tie-break key of a solution: sorted edge-id tuple."""
    return tuple(sorted(solution))


def ranked_key(weight, solution: FrozenSet[int]) -> Tuple:
    """The RANKED ORDER key: ``(weight, canonical edge-id tuple)``."""
    return (weight, tuple(sorted(solution)))


__all__ = [
    "BACKENDS",
    "check_backend",
    "compile_directed",
    "compile_undirected",
    "map_query_vertex",
    "map_query_vertices",
    "ranked_key",
    "resolve_backend",
    "solution_sort_key",
]
