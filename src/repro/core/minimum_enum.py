"""Enumerating all *minimum*-weight Steiner trees (Table 1's [10] row).

Dourado et al. [10 in the paper] enumerate minimum Steiner trees with
O(n) delay after an exponential-in-t preprocessing.  This module
reproduces that cost profile on top of the Dreyfus–Wagner dynamic
program (:mod:`repro.core.optimum`):

1. run the forward DP once, keeping the optimal value ``cost[S][v]``
   for every terminal subset ``S`` and vertex ``v`` (the exponential
   preprocessing — the same `O(3^t n + 2^t m log n)` table DW builds);
2. enumerate *every* optimal derivation by walking all tight moves
   backwards: an edge move ``(S, v) -> (S, u)`` is tight when
   ``cost[S][u] + w(uv) == cost[S][v]``; a merge move splits ``S`` into
   a canonical pair of non-empty halves whose costs add up exactly;
3. distinct derivations can assemble the same edge set, so solutions
   are deduplicated per DP state (this is where the exponential *space*
   of the [10] row shows up).

Weights must be strictly positive: with zero-weight edges two tight
sub-derivations may overlap and the union stops being a tree (the same
degeneracy the optimization literature excludes).  The tests cross-check
against the filter route (full minimal enumeration + weight filter) on
hundreds of random instances.
"""

from __future__ import annotations

import heapq
from operator import add
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.backend import check_backend, compile_undirected, map_query_vertex
from repro.exceptions import InvalidInstanceError, NoSolutionError
from repro.graphs.graph import Graph

Vertex = Hashable
Weight = float
Solution = FrozenSet[int]

_EPS = 1e-9


def _forward_table(
    graph: Graph,
    terms: Sequence[Vertex],
    weights: Mapping[int, Weight],
) -> Dict[int, Dict[Vertex, Weight]]:
    """The Dreyfus–Wagner value table cost[S][v] (no parent pointers)."""
    t = len(terms)
    full = (1 << t) - 1
    INF = float("inf")
    cost: Dict[int, Dict[Vertex, Weight]] = {}

    def dijkstra(dist: Dict[Vertex, Weight]) -> None:
        heap = [(d, repr(v), v) for v, d in dist.items()]
        heapq.heapify(heap)
        settled: Set[Vertex] = set()
        while heap:
            d, _tie, v = heapq.heappop(heap)
            if v in settled or d > dist.get(v, INF):
                continue
            settled.add(v)
            for eid, u in graph.incident_items(v):
                nd = d + weights[eid]
                if nd < dist.get(u, INF) - _EPS:
                    dist[u] = nd
                    heapq.heappush(heap, (nd, repr(u), u))

    for s in range(1, full + 1):
        if s & (s - 1) == 0:
            dist = {terms[s.bit_length() - 1]: 0.0}
        else:
            dist = {}
            low = s & (-s)
            a = (s - 1) & s
            while a:
                if a & low:
                    b = s ^ a
                    ca, cb = cost[a], cost[b]
                    smaller, larger = (ca, cb) if len(ca) <= len(cb) else (cb, ca)
                    for v, da in smaller.items():
                        db = larger.get(v)
                        if db is not None and da + db < dist.get(v, INF) - _EPS:
                            dist[v] = da + db
                a = (a - 1) & s
        dijkstra(dist)
        cost[s] = dist
    return cost


def _fast_minimum_steiner_dp(
    graph: Graph,
    terms: Sequence[Vertex],
    weights: Mapping[int, Weight],
) -> Tuple[Solution, ...]:
    """Kernel backend of the DW table + tight-move walk.

    The value table lives in flat per-subset float arrays (no dicts, no
    ``repr`` heap ties) and adjacency comes from the kernel's cached
    incidence pairs.  Every emitted tuple is canonically sorted per DP
    state exactly like the object backend's, and the tight-move tests
    are value-pure, so the streams are byte-identical.
    """
    import heapq

    fg, index = compile_undirected(graph)
    terms = [map_query_vertex(index, t) for t in terms]
    pairs = fg.incidence_pairs()
    n = fg.n_space
    t = len(terms)
    full = (1 << t) - 1
    INF = float("inf")
    cost: Dict[int, list] = {}
    # flat eid -> weight array: the Dijkstra inner loop does one list
    # index instead of a dict hash per scanned arc
    wmax = max(weights, default=-1)
    warr = [0.0] * (wmax + 1)
    for eid, w in weights.items():
        warr[eid] = w
    # per-vertex (neighbour, arc-weight) rows: the relaxation loop reads
    # a pre-resolved weight instead of chasing eid -> weight
    adj = [[(u, warr[eid]) for eid, u in pairs[v]] for v in range(n)]

    for s in range(1, full + 1):
        if s & (s - 1) == 0:
            dist = [INF] * n
            dist[terms[s.bit_length() - 1]] = 0.0
        else:
            dist = [INF] * n
            low = s & (-s)
            a = (s - 1) & s
            while a:
                if a & low:
                    b = s ^ a
                    ca, cb = cost[a], cost[b]
                    # in-place merge: map(add) runs at C speed and the
                    # body only executes on an actual improvement
                    for i, c in enumerate(map(add, ca, cb)):
                        if c < dist[i] - _EPS:
                            dist[i] = c
                a = (a - 1) & s
        heap = [(d, v) for v, d in enumerate(dist) if d < INF]
        heapq.heapify(heap)
        heappop, heappush = heapq.heappop, heapq.heappush
        # no settled array: every push strictly improves dist, so a stale
        # entry always satisfies d > dist[v]
        while heap:
            d, v = heappop(heap)
            if d > dist[v]:
                continue
            for u, wu in adj[v]:
                nd = d + wu
                if nd < dist[u] - _EPS:
                    dist[u] = nd
                    heappush(heap, (nd, u))
        cost[s] = dist

    root = terms[0]
    if cost[full][root] == INF:
        raise NoSolutionError("terminals are not connected in the graph")

    memo: Dict[Tuple[int, int], Tuple[Solution, ...]] = {}

    def solutions_for(s: int, v: int) -> Tuple[Solution, ...]:
        key = (s, v)
        cached = memo.get(key)
        if cached is not None:
            return cached
        target = cost[s][v]
        assert target < INF
        out: Set[Solution] = set()
        if s & (s - 1) == 0 and terms[s.bit_length() - 1] == v:
            out.add(frozenset())
        # tight edge moves
        for eid, u in pairs[v]:
            du = cost[s][u]
            if du < INF and abs(du + warr[eid] - target) < _EPS:
                for sub in solutions_for(s, u):
                    if eid not in sub:
                        out.add(sub | {eid})
        # tight merge moves (canonical split: A contains the lowest bit)
        low = s & (-s)
        a = (s - 1) & s
        while a:
            if a & low:
                b = s ^ a
                da, db = cost[a][v], cost[b][v]
                if da < INF and db < INF and abs(da + db - target) < _EPS:
                    for left in solutions_for(a, v):
                        for right in solutions_for(b, v):
                            if not (left & right):
                                out.add(left | right)
            a = (a - 1) & s
        result = tuple(sorted(out, key=sorted))
        memo[key] = result
        return result

    return solutions_for(full, root)


def enumerate_minimum_steiner_trees_dp(
    graph: Graph,
    terminals: Sequence[Vertex],
    weights: Optional[Mapping[int, Weight]] = None,
    backend: str = "object",
) -> Iterator[Solution]:
    """All minimum-weight Steiner trees, from the DW table's tight moves.

    Yields frozensets of edge ids in a deterministic order.  Requires
    strictly positive weights (defaults to 1 per edge, i.e. minimum
    edge-count trees).  Raises :class:`NoSolutionError` when the
    terminals are disconnected.

    Examples
    --------
    >>> g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
    >>> sorted(sorted(s) for s in enumerate_minimum_steiner_trees_dp(g, [0, 2]))
    [[2]]
    >>> sorted(sorted(s) for s in
    ...        enumerate_minimum_steiner_trees_dp(g, [0, 2], {0: 1, 1: 1, 2: 2}))
    [[0, 1], [2]]
    """
    backend = check_backend(backend, kind="minimum-steiner-dp")
    terms = list(dict.fromkeys(terminals))
    if not terms:
        raise InvalidInstanceError("at least one terminal is required")
    for w in terms:
        if w not in graph:
            raise InvalidInstanceError(f"terminal {w!r} is not in the graph")
    if weights is None:
        weights = {eid: 1.0 for eid in graph.edge_ids()}
    for eid in graph.edge_ids():
        if weights.get(eid, 0) <= 0:
            raise InvalidInstanceError(
                "minimum-tree enumeration requires strictly positive weights"
            )
    if len(terms) == 1:
        yield frozenset()
        return
    if backend == "fast":
        yield from _fast_minimum_steiner_dp(graph, terms, weights)
        return

    cost = _forward_table(graph, terms, weights)
    t = len(terms)
    full = (1 << t) - 1
    root = terms[0]
    if root not in cost[full]:
        raise NoSolutionError("terminals are not connected in the graph")

    #: (S, v) -> tuple of optimal edge sets for connecting terms(S) ∪ {v}
    memo: Dict[Tuple[int, Vertex], Tuple[Solution, ...]] = {}

    def solutions_for(s: int, v: Vertex) -> Tuple[Solution, ...]:
        key = (s, v)
        cached = memo.get(key)
        if cached is not None:
            return cached
        target = cost[s].get(v)
        assert target is not None
        out: Set[Solution] = set()
        if s & (s - 1) == 0 and terms[s.bit_length() - 1] == v:
            out.add(frozenset())
        # tight edge moves
        for eid, u in graph.incident_items(v):
            du = cost[s].get(u)
            if du is not None and abs(du + weights[eid] - target) < _EPS:
                for sub in solutions_for(s, u):
                    if eid not in sub:
                        out.add(sub | {eid})
        # tight merge moves (canonical split: A contains the lowest bit)
        low = s & (-s)
        a = (s - 1) & s
        while a:
            if a & low:
                b = s ^ a
                da, db = cost[a].get(v), cost[b].get(v)
                if (
                    da is not None
                    and db is not None
                    and abs(da + db - target) < _EPS
                ):
                    for left in solutions_for(a, v):
                        for right in solutions_for(b, v):
                            if not (left & right):
                                out.add(left | right)
            a = (a - 1) & s
        result = tuple(sorted(out, key=sorted))
        memo[key] = result
        return result

    yield from solutions_for(full, root)


def count_minimum_steiner_trees(
    graph: Graph,
    terminals: Sequence[Vertex],
    weights: Optional[Mapping[int, Weight]] = None,
    backend: str = "object",
) -> int:
    """Number of distinct minimum-weight Steiner trees."""
    return sum(
        1
        for _ in enumerate_minimum_steiner_trees_dp(
            graph, terminals, weights, backend=backend
        )
    )
