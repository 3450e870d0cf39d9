"""Minimal Steiner forest enumeration (Section 5, Theorems 23/25).

The paper reduces terminal *families* to terminal *pairs*
(``{w1,...,wk} → {w1,w2}, {w1,w3}, ...``, the normalization before
Lemma 21) and grows a partial forest ``F`` one pair at a time:

* branching enumerates ``w``-``w'`` paths in the contracted multigraph
  ``G/E(F)`` — parallel edges kept, edge ids preserved, so each contracted
  path maps straight back to an original edge set (Lemma 21/24's
  one-to-one correspondence);
* the improved node test (Lemma 24) computes bridges of ``G/E(F)``: a
  pending pair has a *unique* valid path iff its endpoints are joined by
  bridges alone; if every pending pair is unique, the node is a leaf and
  the unique completion is extracted by the LCA marking pass of
  Theorem 25 (``F`` + bridges, keep exactly the edges on some pair path).

Solutions are frozensets of edge ids; amortized O(n+m) per solution, and
O(m)-delay with the output-queue regulator (Theorem 25's second half).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.backend import check_backend, compile_undirected, map_query_vertex
from repro.core.suspend import drain
from repro.core.tree_search import TreeSearch
from repro.enumeration.events import Event, solutions_only
from repro.enumeration.queue_method import DEFAULT_WINDOW, regulate
from repro.exceptions import InvalidInstanceError
from repro.graphs.bridges import find_bridges
from repro.graphs.contraction import contract_edges
from repro.graphs.fastgraph import (
    contracted_kernel,
    fast_bridges,
    fast_component_labels,
)
from repro.graphs.graph import Graph
from repro.graphs.lca import LCAIndex, mark_terminal_paths
from repro.graphs.traversal import component_of, connected_components
from repro.paths.fastpaths import FastPathSearch, fast_st_path_search
from repro.paths.read_tarjan import StPathSearch

Vertex = Hashable
Solution = FrozenSet[int]
Pair = Tuple[Vertex, Vertex]


def normalize_families(
    graph: Graph, families: Sequence[Sequence[Vertex]]
) -> List[Pair]:
    """Reduce terminal families to pairs (the paper's normalization).

    ``{w1, ..., wk}`` becomes ``{w1, w2}, ..., {w1, wk}``; singleton and
    empty families impose no constraint and are dropped; duplicate pairs
    are kept only once.  Raises if a terminal is missing from the graph.
    """
    pairs: List[Pair] = []
    seen: Set[FrozenSet[Vertex]] = set()
    for family in families:
        distinct = list(dict.fromkeys(family))
        for w in distinct:
            if w not in graph:
                raise InvalidInstanceError(f"terminal {w!r} is not in the graph")
        if len(distinct) < 2:
            continue
        anchor = distinct[0]
        for other in distinct[1:]:
            key = frozenset((anchor, other))
            if key not in seen:
                seen.add(key)
                pairs.append((anchor, other))
    return pairs


def _pairs_connected_in_graph(
    graph: Graph, pairs: Sequence[Pair], meter
) -> bool:
    """Each pair must lie in one connected component of ``G``."""
    label: Dict[Vertex, int] = {}
    for i, comp in enumerate(connected_components(graph, meter=meter)):
        for v in comp:
            label[v] = i
    return all(label[a] == label[b] for a, b in pairs)


class _ForestState:
    """The partial forest ``F``; an undo record is the tuple of edges a
    path added."""

    __slots__ = ("edges",)

    def __init__(self) -> None:
        self.edges: Set[int] = set()

    def apply(self, path) -> Tuple[int, ...]:
        fresh = tuple(e for e in path.arcs if e not in self.edges)
        self.edges.update(fresh)
        return fresh

    def apply_record(self, record: Tuple[int, ...]) -> None:
        """Re-apply a stored undo record (snapshot restore path)."""
        self.edges.update(record)

    def undo(self, record: Tuple[int, ...]) -> None:
        self.edges.difference_update(record)


def _forest_components(graph: Graph, edges: Set[int]) -> Dict[Vertex, Vertex]:
    """Union-find roots of the forest ``F`` over all graph vertices."""
    parent: Dict[Vertex, Vertex] = {v: v for v in graph.vertices()}

    def find(x: Vertex) -> Vertex:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for eid in edges:
        u, v = graph.endpoints(eid)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return {v: find(v) for v in parent}


def _unique_completion(
    graph: Graph,
    forest_edges: Set[int],
    bridge_eids: Set[int],
    pairs: Sequence[Pair],
    meter,
) -> Solution:
    """Theorem 25 leaf: extract the unique minimal Steiner forest.

    Candidate forest = ``F`` + bridges of ``G/E(F)``; keep exactly the
    edges marked by the LCA pass over all terminal pairs.
    """
    candidate = set(forest_edges) | set(bridge_eids)
    sub = graph.edge_subgraph(candidate)
    for a, b in pairs:
        sub.add_vertex(a) if a in graph else None
        sub.add_vertex(b) if b in graph else None
    marked: Set[int] = set()
    assigned: Set[Vertex] = set()
    for root in list(sub.vertices()):
        if root in assigned:
            continue
        comp = component_of(sub, root)
        assigned |= comp
        comp_pairs = [(a, b) for a, b in pairs if a in comp and b in comp]
        if not comp_pairs:
            continue
        index = LCAIndex(sub, root)
        marked |= mark_terminal_paths(index, comp_pairs, meter=meter)
    return frozenset(marked)


class SteinerForestSearch(TreeSearch):
    """Suspendable machine of the Steiner-forest enumeration.

    The :class:`repro.core.tree_search.TreeSearch` traversal with the
    Lemma 24 node test, for both backends and both branching rules.  A
    branch is a pending pair ``(a, b)``; its frame enumerates ``a``-``b``
    paths in the multigraph ``G/E(F)`` contracted at that node and
    records the pair.  The contraction is not stored: it is a pure
    function of the forest edges applied so far, so a restored machine
    rebuilds it frame by frame while replaying the undo records.
    """

    query_fields = ("families",)
    frame_fields = ("pair",)

    def __init__(
        self,
        graph: Graph,
        families: Sequence[Sequence[Vertex]],
        meter=None,
        improved: bool = True,
        backend: str = "object",
    ) -> None:
        backend = check_backend(backend, kind="steiner-forest")
        self.meter = meter
        self.improved = improved
        self.backend = backend
        query = {"families": [list(f) for f in families]}
        self.fast = backend == "fast"
        pairs = normalize_families(graph, query["families"])
        if self.fast:
            fg, index = compile_undirected(graph)
            self._g = fg  # FastGraph implements the Graph protocol
            pairs = [
                (map_query_vertex(index, a), map_query_vertex(index, b))
                for a, b in pairs
            ]
        else:
            self._g = graph
        self.pairs: List[Pair] = pairs
        if not pairs:
            self._dead = False
        elif self.fast:
            labels = fast_component_labels(self._g, meter=meter)
            self._dead = any(labels[a] != labels[b] for a, b in pairs)
        else:
            self._dead = not _pairs_connected_in_graph(self._g, pairs, meter)
        self._begin(query, _ForestState())

    def _node_test(self) -> Tuple[str, object]:
        """Leaf/branch decision for the current partial forest (Lemma 24)."""
        meter = self.meter
        state = self.partial
        pairs = self.pairs
        if self.fast:
            fg = self._g
            parent = list(range(fg.n_space))
            eu, ev = fg._eu, fg._ev
            for eid in state.edges:
                ru = eu[eid]
                while parent[ru] != ru:
                    parent[ru] = parent[parent[ru]]
                    ru = parent[ru]
                rv = ev[eid]
                while parent[rv] != rv:
                    parent[rv] = parent[parent[rv]]
                    rv = parent[rv]
                if ru != rv:
                    parent[ru] = rv

            def find(x: int) -> int:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            pending = [(a, b) for a, b in pairs if find(a) != find(b)]
            if not pending:
                return ("leaf", frozenset(state.edges))
            ck, vmap = contracted_kernel(fg, state.edges, meter=meter)
            if meter is not None:
                meter.tick(ck.num_edges + ck.num_vertices)
            if not self.improved:
                a, b = pending[0]
                return ("branch", (a, b, ck, vmap))
            bridges = fast_bridges(ck, meter=meter)
            bparent = list(range(ck.n_space))
            ceu, cev = ck._eu, ck._ev
            for eid in bridges:
                ru = ceu[eid]
                while bparent[ru] != ru:
                    bparent[ru] = bparent[bparent[ru]]
                    ru = bparent[ru]
                rv = cev[eid]
                while bparent[rv] != rv:
                    bparent[rv] = bparent[bparent[rv]]
                    rv = bparent[rv]
                if ru != rv:
                    bparent[ru] = rv

            def bfind(x: int) -> int:
                while bparent[x] != x:
                    bparent[x] = bparent[bparent[x]]
                    x = bparent[x]
                return x

            for a, b in pending:
                if bfind(vmap[a]) != bfind(vmap[b]):
                    return ("branch", (a, b, ck, vmap))
            return (
                "leaf",
                _unique_completion(fg, state.edges, bridges, pairs, meter),
            )

        graph = self._g
        roots = _forest_components(graph, state.edges)
        pending = [(a, b) for a, b in pairs if roots[a] != roots[b]]
        if not pending:
            return ("leaf", frozenset(state.edges))
        contraction = contract_edges(graph, state.edges)
        cgraph = contraction.graph
        vmap = contraction.vertex_map
        if meter is not None:
            meter.tick(cgraph.num_edges + cgraph.num_vertices)
        if not self.improved:
            a, b = pending[0]
            return ("branch", (a, b, cgraph, vmap))
        bridges = find_bridges(cgraph, meter=meter)
        # Union-find over bridge edges: pairs joined by bridges alone have
        # a unique valid path (Lemma 24).
        parent: Dict[Vertex, Vertex] = {v: v for v in cgraph.vertices()}

        def find(x: Vertex) -> Vertex:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        for eid in bridges:
            u, v = cgraph.endpoints(eid)
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        for a, b in pending:
            if find(vmap[a]) != find(vmap[b]):
                return ("branch", (a, b, cgraph, vmap))
        return (
            "leaf",
            _unique_completion(graph, state.edges, bridges, pairs, meter),
        )

    def _open(self, branch):
        """A suspendable ``a``-``b`` path search on the contraction."""
        a, b, csub, vmap = branch
        if self.fast:
            paths = fast_st_path_search(csub, vmap[a], vmap[b], meter=self.meter)
        else:
            paths = StPathSearch(csub, vmap[a], vmap[b], meter=self.meter)
        return paths, ((a, b),)

    def _thaw_paths(self, fstate: Dict):
        """The frame's path machine on a freshly rebuilt contraction."""
        edges = self.partial.edges
        if self.fast:
            csub, _vmap = contracted_kernel(self._g, edges, meter=self.meter)
            return FastPathSearch.restore(csub, fstate["paths"], self.meter)
        csub = contract_edges(self._g, edges).graph
        return StPathSearch.restore(csub, fstate["paths"], self.meter)


def steiner_forest_events(
    graph: Graph,
    families: Sequence[Sequence[Vertex]],
    meter=None,
    improved: bool = True,
    backend: str = "object",
) -> Iterator[Event]:
    """Event stream of the Steiner-forest enumeration-tree traversal.

    ``backend="fast"`` rebuilds each node's contracted multigraph as a
    kernel (:func:`repro.graphs.fastgraph.contracted_kernel`), whose
    surviving edges appear in the same global order as the object
    backend's ``contract_edges`` output, and enumerates child paths with
    the kernel path machine; the leaf extraction
    (:func:`_unique_completion`) runs on the original instance either
    way.  Both backends drain a :class:`SteinerForestSearch` machine,
    the suspendable form of this traversal.
    """
    yield from drain(
        SteinerForestSearch(graph, families, meter=meter, improved=improved, backend=backend)
    )


def enumerate_minimal_steiner_forests(
    graph: Graph,
    families: Sequence[Sequence[Vertex]],
    meter=None,
    backend: str = "object",
) -> Iterator[Solution]:
    """Enumerate all minimal Steiner forests of ``(G, {W_1, ..., W_s})``.

    Improved branching: amortized O(n+m) per solution (Theorem 25).
    Yields frozensets of edge ids, each exactly once.

    Examples
    --------
    >>> g = Graph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])
    >>> sorted(sorted(s) for s in enumerate_minimal_steiner_forests(g, [["a", "b"]]))
    [[0], [1, 2]]
    """
    return solutions_only(
        steiner_forest_events(graph, families, meter=meter, backend=backend)
    )


def enumerate_minimal_steiner_forests_simple(
    graph: Graph,
    families: Sequence[Sequence[Vertex]],
    meter=None,
    backend: str = "object",
) -> Iterator[Solution]:
    """Unimproved branching (Theorem 23 bound): O(t(n+m)) delay."""
    return solutions_only(
        steiner_forest_events(graph, families, meter=meter, improved=False, backend=backend)
    )


def enumerate_minimal_steiner_forests_linear_delay(
    graph: Graph,
    families: Sequence[Sequence[Vertex]],
    meter=None,
    window: Optional[int] = None,
    backend: str = "object",
) -> Iterator[Solution]:
    """Theorem 25 second half: O(m) delay via the output-queue regulator."""
    events = steiner_forest_events(graph, families, meter=meter, backend=backend)
    return regulate(events, graph.num_vertices, DEFAULT_WINDOW if window is None else window)


def count_minimal_steiner_forests(
    graph: Graph, families: Sequence[Sequence[Vertex]]
) -> int:
    """Number of minimal Steiner forests (convenience wrapper)."""
    return sum(1 for _ in enumerate_minimal_steiner_forests(graph, families))
