"""Ranked enumeration of minimal Steiner trees (extension).

The paper's companion line of work (Kimelfeld–Sagiv [25]) enumerates
Steiner trees in *approximate* ascending weight order — exact ranked
enumeration needs different machinery and loses the delay guarantee.
This module reproduces that trade-off explicitly:

* :func:`enumerate_approximately_by_weight` — wraps the linear-delay
  enumerator with a bounded look-ahead heap.  With look-ahead ``L``, the
  emitted stream is *L-sorted*: every solution is emitted before any
  solution that arrives ≥ L positions later and is lighter.  Delay stays
  linear (each emission consumes exactly one new solution); order quality
  grows with L.  ``L = ∞`` degenerates to exact sorting (total time, no
  delay guarantee).
* :func:`k_lightest_minimal_steiner_trees` — exact top-k via full
  enumeration and a bounded max-heap: exact results, total-time cost,
  the honest baseline to compare the approximate stream against.
* :func:`weight_of_optimum` (re-exported Dreyfus–Wagner) anchors both:
  the first emission's weight can be compared against the true optimum,
  which the tests do.

Both entry points take ``backend="object" | "fast"``.  On the fast
backend the instance is compiled into the integer kernel once (or the
caller passes an already-compiled kernel, which is reused as-is), the
weight mapping is flattened into a float64 array indexed by edge id,
and the look-ahead heap becomes a kernel-native best-first frontier
over the fast enumerator's stream.  Emission order follows the
RANKED ORDER contract of :mod:`repro.core.backend` — ``(weight,
canonical edge-id tuple)`` — so ties break by the solution itself, never
by arrival order, and the two backends' ranked streams are
byte-identical wherever their underlying enumeration streams are.
"""

from __future__ import annotations

import heapq
from typing import (
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    cast,
)

from repro.core.backend import (
    check_backend,
    compile_undirected,
    map_query_vertices,
    ranked_key,
)
from repro.core.optimum import dreyfus_wagner, tree_weight
from repro.core.steiner_tree import enumerate_minimal_steiner_trees
from repro.graphs.graph import Graph

Vertex = Hashable
Weight = float
Solution = FrozenSet[int]


class _ReversedKey:
    """Inverts comparison so heapq's min-heap acts as a max-heap on
    RANKED ORDER keys (tuples of mixed width don't negate)."""

    __slots__ = ("key",)

    def __init__(self, key) -> None:
        self.key = key

    def __lt__(self, other: "_ReversedKey") -> bool:
        return other.key < self.key


def _weighted_stream(
    graph: Graph,
    terminals: Sequence[Vertex],
    weights: Mapping[int, Weight],
    meter,
    backend: str,
) -> Iterator[Tuple[Weight, Solution]]:
    """The enumeration stream annotated with RANKED-ORDER weights.

    On the fast backend the weight mapping is flattened once into a
    float64 array indexed by edge id (0.0 default, mirroring
    ``tree_weight``'s ``.get`` default) and every solution's weight is
    summed from it in the solution set's own iteration order — the same
    float additions in the same order as ``tree_weight``, so the emitted
    weights are bit-identical across backends.  The array is local to
    the stream: a compiled kernel shared across streams (the datagraph
    layer's cached compilation) is never mutated.
    """
    if backend == "fast":
        fg, index = compile_undirected(graph)
        if fg is graph:
            # The caller passed an already-compiled kernel (e.g. the
            # datagraph layer's cached compilation, shared across
            # streams): never mutate it — flatten the weights into a
            # stream-local array with the same semantics instead.
            wf = [0.0] * fg.m_space
            for eid, w in weights.items():
                if 0 <= eid < fg.m_space:
                    wf[eid] = w

            def weight_of(solution: Solution) -> Weight:
                total: float = 0  # int start, like sum()
                for eid in solution:
                    total += wf[eid]
                return total

        else:
            # Fresh kernel owned by this stream: load the weights into
            # its flat dual-storage arrays (docs/guides/graphs.md).
            fg.load_weights(weights)
            weight_of = fg.total_weight
        for solution in enumerate_minimal_steiner_trees(
            cast(Graph, fg),
            map_query_vertices(index, terminals),
            meter=meter,
            backend=backend,
        ):
            yield weight_of(solution), solution
    else:
        for solution in enumerate_minimal_steiner_trees(
            graph, terminals, meter=meter
        ):
            yield tree_weight(weights, solution), solution


def enumerate_approximately_by_weight(
    graph: Graph,
    terminals: Sequence[Vertex],
    weights: Mapping[int, Weight],
    lookahead: int = 64,
    meter=None,
    backend: str = "object",
) -> Iterator[Tuple[Weight, Solution]]:
    """Minimal Steiner trees in approximately ascending weight order.

    A bounded min-heap of size ``lookahead`` sits between the linear-delay
    enumerator and the caller: each step pulls one fresh solution into the
    heap and pops the lightest buffered one.  The stream is ``lookahead``-
    sorted; per-solution overhead is O(log lookahead) on top of the
    enumeration delay, so the linear-delay guarantee survives up to that
    logarithmic factor.  Buffered solutions with equal weight are
    released in RANKED ORDER (canonical edge-id tuple), independent of
    arrival order.

    Yields ``(weight, solution)`` pairs.
    """
    if lookahead < 1:
        raise ValueError("lookahead must be at least 1")
    backend = check_backend(backend, kind="ranked")
    heap: List[Tuple[Tuple, Solution]] = []
    for weight, solution in _weighted_stream(
        graph, terminals, weights, meter, backend
    ):
        heapq.heappush(heap, (ranked_key(weight, solution), solution))
        if len(heap) > lookahead:
            key, sol = heapq.heappop(heap)
            yield (key[0], sol)
    while heap:
        key, sol = heapq.heappop(heap)
        yield (key[0], sol)


def top_k_minimal_steiner_trees(
    graph: Graph,
    terminals: Sequence[Vertex],
    weights: Mapping[int, Weight],
    k: int,
    meter=None,
    backend: str = "object",
) -> Tuple[List[Tuple[Weight, Solution]], int]:
    """The exact top-``k`` plus the number of solutions scanned.

    Same contract as :func:`k_lightest_minimal_steiner_trees` (which
    delegates here) but also reports how many solutions the full
    enumeration streamed through the heap — the work measure the
    serving layer's answer provenance exposes, so an operator can see
    when a dataset's answer cost is enumeration-bound rather than k.

    Returns ``(results, scanned)`` with ``results`` ascending in
    RANKED ORDER.
    """
    backend = check_backend(backend, kind="ranked")
    if k < 1:
        return [], 0
    # Max-heap on RANKED ORDER keys: heap[0] is the heaviest kept entry.
    heap: List[Tuple[_ReversedKey, Weight, Solution]] = []
    scanned = 0
    for weight, solution in _weighted_stream(
        graph, terminals, weights, meter, backend
    ):
        scanned += 1
        key = ranked_key(weight, solution)
        if len(heap) < k:
            heapq.heappush(heap, (_ReversedKey(key), weight, solution))
        elif key < heap[0][0].key:
            heapq.heapreplace(heap, (_ReversedKey(key), weight, solution))
    result = [(w, sol) for _rk, w, sol in heap]
    result.sort(key=lambda pair: ranked_key(pair[0], pair[1]))
    return result, scanned


def k_lightest_minimal_steiner_trees(
    graph: Graph,
    terminals: Sequence[Vertex],
    weights: Mapping[int, Weight],
    k: int,
    meter=None,
    backend: str = "object",
) -> List[Tuple[Weight, Solution]]:
    """The exact ``k`` lightest minimal Steiner trees (total-time).

    Full enumeration with a size-``k`` max-heap: O(N log k) heap overhead
    over the amortized-linear enumeration of all ``N`` solutions.  Exact,
    sorted ascending in RANKED ORDER.
    """
    return top_k_minimal_steiner_trees(
        graph, terminals, weights, k, meter=meter, backend=backend
    )[0]


def weight_of_optimum(
    graph: Graph,
    terminals: Sequence[Vertex],
    weights: Optional[Mapping[int, Weight]] = None,
) -> Weight:
    """Exact minimum Steiner tree weight (Dreyfus–Wagner)."""
    return dreyfus_wagner(graph, terminals, weights)[0]


def sortedness_defect(stream: Sequence[Weight]) -> int:
    """How far from sorted a weight stream is: max #positions any element
    would need to move left.  0 for a sorted stream; the approximate
    enumerator guarantees defect < lookahead.  Used by tests and the
    ranked-enumeration experiment."""
    defect = 0
    for i, w in enumerate(stream):
        for j in range(i):
            if stream[j] > w:
                defect = max(defect, i - j)
                break
    return defect
