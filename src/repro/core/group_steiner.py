"""Group Steiner tree enumeration and the Theorem 38 reduction.

Theorem 38: an output-polynomial enumerator for minimal group Steiner
trees would dualize hypergraphs in output-polynomial time — a major open
problem.  The reduction is a *star graph*: centre ``r``, one leaf
``ℓ_u`` per universe element, and a terminal family
``W_e = {ℓ_u : u ∈ e}`` per hyperedge; minimal transversals then
correspond exactly to minimal group Steiner trees (star subtrees, plus
the degenerate single-leaf trees when one element covers everything).

This module provides both directions of the reduction plus a brute-force
minimal group Steiner enumerator (there is provably no efficient one to
implement), which together power the H-group experiment: the counts and
per-solution bijection of the two routes must agree.
"""

from __future__ import annotations

import itertools
from typing import (
    FrozenSet,
    Hashable,
    Iterator,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.backend import check_backend, compile_undirected
from repro.core.verification import is_minimal_group_steiner_tree
from repro.graphs.graph import Graph
from repro.hypergraph.hypergraph import Hypergraph, enumerate_minimal_transversals

Vertex = Hashable


class GroupSteinerSolution(NamedTuple):
    """A minimal group Steiner tree.

    ``edges`` is empty for single-vertex trees, in which case ``vertex``
    holds the tree's one vertex; otherwise ``vertex`` is ``None``.
    """

    edges: FrozenSet[int]
    vertex: Optional[Vertex]

    def vertex_set(self, graph: Graph) -> FrozenSet[Vertex]:
        """All vertices of the tree."""
        if not self.edges:
            return frozenset((self.vertex,))
        vs: Set[Vertex] = set()
        for eid in self.edges:
            u, v = graph.endpoints(eid)
            vs.add(u)
            vs.add(v)
        return frozenset(vs)


class StarInstance(NamedTuple):
    """Theorem 38 star-graph instance built from a hypergraph."""

    graph: Graph
    center: Vertex
    families: Tuple[Tuple[Vertex, ...], ...]
    leaf_of: dict  # element -> leaf vertex
    element_of: dict  # leaf vertex -> element


def transversal_to_group_steiner_instance(hypergraph: Hypergraph) -> StarInstance:
    """Build the star graph of Theorem 38's proof."""
    g = Graph()
    center = ("center",)
    g.add_vertex(center)
    leaf_of = {}
    element_of = {}
    for u in hypergraph.universe:
        leaf = ("leaf", u)
        leaf_of[u] = leaf
        element_of[leaf] = u
        g.add_edge(center, leaf)
    families = tuple(
        tuple(leaf_of[u] for u in sorted(e, key=repr)) for e in hypergraph.edges
    )
    return StarInstance(g, center, families, leaf_of, element_of)


class _FastGroupSteinerJudge:
    """Kernel accept test mirroring :func:`is_minimal_group_steiner_tree`.

    Vertex sets are single-int bitmasks, family hits are one ``&`` per
    family, and the tree check is a union-find over the candidate's own
    edges — the accept/reject decisions (and hence the brute-force
    stream) are identical to the object verifier's by construction.
    """

    __slots__ = ("_eu", "_ev", "_fam_masks", "_deg", "_touched")

    def __init__(self, fg, families_mapped) -> None:
        self._eu = fg._eu
        self._ev = fg._ev
        self._fam_masks = [
            self._mask(family) for family in families_mapped
        ]
        self._deg = [0] * fg.n_space
        self._touched: list = []

    @staticmethod
    def _mask(vertices) -> int:
        m = 0
        for v in vertices:
            m |= 1 << v
        return m

    def _hits_all(self, vbits: int) -> bool:
        for mask in self._fam_masks:
            if not (mask & vbits):
                return False
        return True

    def accepts_vertex(self, v: int) -> bool:
        return self._hits_all(1 << v)

    def accepts_edges(self, eids: Tuple[int, ...]) -> bool:
        eu, ev, deg = self._eu, self._ev, self._deg
        touched = self._touched
        touched.clear()
        vbits = 0
        parent: dict = {}
        n_vertices = 0
        merges = 0
        try:
            for eid in eids:
                u, v = eu[eid], ev[eid]
                for x in (u, v):
                    if not (vbits >> x) & 1:
                        vbits |= 1 << x
                        parent[x] = x
                        n_vertices += 1
                    deg[x] += 1
                    touched.append(x)
                ru = u
                while parent[ru] != ru:
                    parent[ru] = parent[parent[ru]]
                    ru = parent[ru]
                rv = v
                while parent[rv] != rv:
                    parent[rv] = parent[parent[rv]]
                    rv = parent[rv]
                if ru == rv:
                    return False  # cycle (or parallel edge): not a tree
                parent[ru] = rv
                merges += 1
            if merges != n_vertices - 1:
                return False  # disconnected forest
            if not self._hits_all(vbits):
                return False
            # Minimality: no leaf may be removable keeping all families hit.
            if len(eids) == 1:
                u, v = eu[eids[0]], ev[eids[0]]
                return not (self._hits_all(1 << u) or self._hits_all(1 << v))
            bits = vbits
            while bits:
                low = bits & (-bits)
                bits ^= low
                leaf = low.bit_length() - 1
                if deg[leaf] == 1 and self._hits_all(vbits ^ low):
                    return False
            return True
        finally:
            for x in touched:
                deg[x] = 0


def _fast_group_steiner_brute(
    graph: Graph,
    families: Sequence[Sequence[Vertex]],
    max_edges: Optional[int],
) -> Iterator[GroupSteinerSolution]:
    """Kernel backend of :func:`enumerate_minimal_group_steiner_trees_brute`.

    Candidate order (single vertices by repr, then edge subsets of
    growing size over sorted edge ids) is shared with the object
    backend; only the accept test runs on the kernel.
    """
    fg, index = compile_undirected(graph)
    # A family member missing from the graph can never be hit; the object
    # verifier silently ignores it, so drop it from the mask.
    judge = _FastGroupSteinerJudge(
        fg,
        [
            [
                (w if index is None else index[w])
                for w in dict.fromkeys(family)
                if w in graph
            ]
            for family in families
        ],
    )
    for v in sorted(graph.vertices(), key=repr):
        if judge.accepts_vertex(v if index is None else index[v]):
            yield GroupSteinerSolution(frozenset(), v)
    eids = sorted(graph.edge_ids())
    limit = len(eids) if max_edges is None else min(max_edges, len(eids))
    for r in range(1, limit + 1):
        for sub in itertools.combinations(eids, r):
            if judge.accepts_edges(sub):
                yield GroupSteinerSolution(frozenset(sub), None)


def enumerate_minimal_group_steiner_trees_brute(
    graph: Graph,
    families: Sequence[Sequence[Vertex]],
    max_edges: Optional[int] = None,
    backend: str = "object",
) -> Iterator[GroupSteinerSolution]:
    """Brute-force minimal group Steiner tree enumeration.

    Exhaustive over edge subsets (plus single-vertex trees), filtered by
    :func:`~repro.core.verification.is_minimal_group_steiner_tree`.  Only
    for small instances — Theorem 38 says nothing substantially better
    can exist without settling hypergraph dualization.
    ``backend="fast"`` replaces the per-candidate object verifier with
    bitmask family tests on the compiled kernel; the candidate order is
    shared, so the streams are byte-identical.
    """
    backend = check_backend(backend, kind="group-steiner")
    if backend == "fast":
        yield from _fast_group_steiner_brute(graph, families, max_edges)
        return
    # single-vertex trees
    for v in sorted(graph.vertices(), key=repr):
        if is_minimal_group_steiner_tree(graph, (), v, families):
            yield GroupSteinerSolution(frozenset(), v)
    eids = sorted(graph.edge_ids())
    limit = len(eids) if max_edges is None else min(max_edges, len(eids))
    for r in range(1, limit + 1):
        for sub in itertools.combinations(eids, r):
            if is_minimal_group_steiner_tree(graph, sub, None, families):
                yield GroupSteinerSolution(frozenset(sub), None)


def minimal_transversals_via_group_steiner(
    hypergraph: Hypergraph,
    backend: str = "object",
) -> Iterator[FrozenSet]:
    """Theorem 38, forward direction: dualize through group Steiner trees.

    Enumerate minimal group Steiner trees of the star instance and map
    each back to a subset of the universe.  Star subtrees containing the
    centre map to their leaf set; single-leaf trees map to singletons (the
    case where one element alone hits every hyperedge).  The output is
    exactly the set of minimal transversals.
    """
    instance = transversal_to_group_steiner_instance(hypergraph)
    for solution in enumerate_minimal_group_steiner_trees_brute(
        instance.graph, instance.families, backend=backend
    ):
        vs = solution.vertex_set(instance.graph)
        yield frozenset(
            instance.element_of[v] for v in vs if v in instance.element_of
        )


def group_steiner_trees_via_transversals(
    hypergraph: Hypergraph,
) -> Iterator[GroupSteinerSolution]:
    """Theorem 38, reverse direction: group Steiner trees from transversals.

    For the star instance, every minimal transversal ``X`` yields the
    subtree ``G[X ∪ {r}]`` — except singleton transversals ``{u}``, whose
    minimal tree is the bare leaf ``ℓ_u`` (the centre edge would be
    removable).  This is the direction that would make a fast group
    Steiner enumerator solve dualization.
    """
    instance = transversal_to_group_steiner_instance(hypergraph)
    for transversal in enumerate_minimal_transversals(hypergraph):
        if len(transversal) == 1:
            (u,) = transversal
            yield GroupSteinerSolution(frozenset(), instance.leaf_of[u])
            continue
        eids = set()
        for u in transversal:
            leaf = instance.leaf_of[u]
            eids.update(instance.graph.edges_between(instance.center, leaf))
        yield GroupSteinerSolution(frozenset(eids), None)
