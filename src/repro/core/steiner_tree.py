"""Minimal Steiner tree enumeration (Section 4, Theorems 15/17/20).

Three entry points, mirroring the paper's three stages:

* :func:`enumerate_minimal_steiner_trees_simple` — Algorithm 2 verbatim:
  at each node, pick the first uncovered terminal ``w`` and branch on all
  ``V(T)``-``w`` paths.  Internal nodes may have a single child, so the
  delay is O(|W|(n+m)) (Theorem 15).  Kept as the prior-work-shaped
  baseline for the AB-bridge ablation.
* :func:`enumerate_minimal_steiner_trees` — the improved algorithm
  (Theorem 17): every node first computes a minimal completion ``T'`` of
  its partial tree (Lemma 13's constructive proof) and, using the bridges
  of ``G`` (Lemma 16), either finds a terminal with ≥ 2 connecting paths
  to branch on, or recognises ``T'`` as the *unique* minimal Steiner tree
  containing ``T`` and outputs it as a leaf.  Every internal node of this
  improved enumeration tree has ≥ 2 children, giving amortized O(n+m)
  time per solution.
* :func:`enumerate_minimal_steiner_trees_linear_delay` — the improved
  algorithm behind the output-queue regulator (Theorem 20): worst-case
  O(n+m) delay after O(n·m) preprocessing, O(n²) space.

Solutions are reported as ``frozenset`` of edge ids of the input graph;
``graph.edge_subgraph(solution)`` materializes the tree.  A partial tree
is maintained incrementally in shared state and grown by paths produced
by the Section 3 enumerator (:mod:`repro.paths.read_tarjan`), exactly as
the paper composes the two algorithms.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.backend import check_backend, compile_undirected, map_query_vertices
from repro.core.suspend import drain
from repro.core.tree_search import PartialTree, TreeSearch, ordered_terminals
from repro.enumeration.events import Event, solutions_only
from repro.enumeration.queue_method import DEFAULT_WINDOW, regulate
from repro.exceptions import InvalidInstanceError
from repro.graphs.bridges import find_bridges
from repro.graphs.fastgraph import (
    FastGraph,
    fast_bridges,
    fast_component_labels,
    fast_minimal_steiner_completion,
)
from repro.graphs.graph import Graph
from repro.graphs.spanning import minimal_steiner_completion
from repro.graphs.traversal import component_of
from repro.paths.fastpaths import FastPathSearch, fast_set_path_search
from repro.paths.read_tarjan import SetPathSearch

Vertex = Hashable
Solution = FrozenSet[int]


def _completion_branch_terminal(
    graph: Graph,
    state: PartialTree,
    terminals: Sequence[Vertex],
    bridges: Set[int],
    meter,
) -> Tuple[Optional[Vertex], Solution]:
    """Improved-tree node test (Lemma 16).

    Compute a minimal completion ``T'`` of the current partial tree, then
    flag every completion vertex by whether its ``V(T)``-to-vertex path in
    ``T'`` consists of bridges only.  Returns ``(w, completion)`` where
    ``w`` is an uncovered terminal with ≥ 2 connecting paths (branch on
    it), or ``(None, completion)`` if the completion is the unique minimal
    Steiner tree containing ``T`` (leaf).
    """
    completion = minimal_steiner_completion(
        graph, terminals, partial_eids=state.edges, meter=meter
    )
    # Adjacency of the completion tree.
    adjacency: Dict[Vertex, List[Tuple[int, Vertex]]] = {}
    for eid in completion:
        u, v = graph.endpoints(eid)
        adjacency.setdefault(u, []).append((eid, v))
        adjacency.setdefault(v, []).append((eid, u))
        if meter is not None:
            meter.tick()
    # Multi-source BFS from V(T): flag = "path from V(T) is all bridges".
    flag: Dict[Vertex, bool] = {}
    stack: List[Vertex] = []
    for v in state.vertices:
        flag[v] = True
        stack.append(v)
    while stack:
        v = stack.pop()
        for eid, u in adjacency.get(v, ()):
            if meter is not None:
                meter.tick()
            if u in flag:
                continue
            flag[u] = flag[v] and (eid in bridges)
            stack.append(u)
    # Fixed terminal order keeps the enumeration stream deterministic
    # across interpreter runs (set iteration is hash-seed dependent).
    for w in terminals:
        if w in state.uncovered and not flag.get(w, True):
            return w, frozenset(completion)
    return None, frozenset(completion)


def _fast_completion_branch_terminal(
    fg: FastGraph,
    state: PartialTree,
    terminals: Sequence[int],
    bridges: Set[int],
    meter,
) -> Tuple[Optional[int], Solution]:
    """Kernel version of :func:`_completion_branch_terminal`.

    The completion is a tree, so "the ``V(T)``-``w`` path is bridge-only"
    is equivalent to "``w`` and ``V(T)`` are connected using only the
    completion's bridge edges".  A union-find over those edges answers
    that without building any adjacency structure, and — paths in a tree
    being unique — produces exactly the object backend's flags.
    """
    completion = fast_minimal_steiner_completion(
        fg, terminals, partial_eids=state.edges, meter=meter
    )
    eu, esum = fg._eu, fg._esum
    parent: Dict[int, int] = {}
    ops = 0
    for eid in completion:
        ops += 1
        if eid not in bridges:
            continue
        u = eu[eid]
        v = esum[eid] - u
        ru = parent.setdefault(u, u)
        while parent[ru] != ru:
            parent[ru] = parent[parent[ru]]
            ru = parent[ru]
        rv = parent.setdefault(v, v)
        while parent[rv] != rv:
            parent[rv] = parent[parent[rv]]
            rv = parent[rv]
        if ru != rv:
            parent[ru] = rv
    # Merge V(T) into one anchor component.
    anchor = -1  # vertex ids are non-negative; safe synthetic root
    parent[anchor] = anchor
    for v in state.vertices:
        rv = parent.setdefault(v, v)
        while parent[rv] != rv:
            parent[rv] = parent[parent[rv]]
            rv = parent[rv]
        ra = anchor
        while parent[ra] != ra:
            parent[ra] = parent[parent[ra]]
            ra = parent[ra]
        if rv != ra:
            parent[rv] = ra
    if meter is not None and ops:
        meter.tick(ops)
    ra = anchor
    while parent[ra] != ra:
        parent[ra] = parent[parent[ra]]
        ra = parent[ra]
    for w in terminals:
        if w not in state.uncovered:
            continue
        rw = parent.setdefault(w, w)
        while parent[rw] != rw:
            parent[rw] = parent[parent[rw]]
            rw = parent[rw]
        if rw != ra:
            return w, frozenset(completion)
    return None, frozenset(completion)


class SteinerTreeSearch(TreeSearch):
    """Suspendable machine of the minimal-Steiner-tree enumeration.

    The :class:`repro.core.tree_search.TreeSearch` traversal for both
    the ``object`` and ``fast`` backends and both branching rules
    (``improved`` per Theorem 17, plain Algorithm 2 otherwise).  A
    branch is an uncovered terminal ``w``; its frame enumerates the
    ``V(T)``-``w`` paths and records the ordered source set and ``w``.
    """

    query_fields = ("terminals",)
    frame_fields = ("sources", "branch")

    def __init__(
        self,
        graph: Graph,
        terminals: Sequence[Vertex],
        meter=None,
        improved: bool = True,
        backend: str = "object",
    ) -> None:
        backend = check_backend(backend, kind="steiner-tree")
        self.graph = graph
        self.meter = meter
        self.improved = improved
        self.backend = backend
        query = {"terminals": list(terminals)}
        ordered = ordered_terminals(graph, query["terminals"])
        if not ordered:
            raise InvalidInstanceError("at least one terminal is required")
        self.fast = backend == "fast"
        if self.fast:
            self.fg, index = compile_undirected(graph)
            ordered = map_query_vertices(index, ordered)
            labels = fast_component_labels(self.fg, meter=meter)
            self._dead = any(labels[w] != labels[ordered[0]] for w in ordered)
        else:
            self.fg = None
            reach = component_of(graph, ordered[0], meter=meter)
            self._dead = not all(w in reach for w in ordered)
        self.ordered = ordered
        self.bridges: FrozenSet[int] = frozenset()
        if improved and not self._dead and len(ordered) > 1:
            self.bridges = (
                fast_bridges(self.fg, meter=meter)
                if self.fast
                else find_bridges(graph, meter=meter)
            )
        self._begin(query, PartialTree(ordered[:1], ordered[1:]))

    def _node_test(self) -> Tuple[str, object]:
        """Output a leaf or pick a branch terminal (Lemma 16)."""
        state = self.partial
        if not state.uncovered:
            return ("leaf", frozenset(state.edges))
        if not self.improved:
            # Plain Algorithm 2: first uncovered terminal in the fixed order.
            return ("branch", next(w for w in self.ordered if w in state.uncovered))
        if self.fast:
            w, completion = _fast_completion_branch_terminal(
                self.fg, state, self.ordered, self.bridges, self.meter
            )
        else:
            w, completion = _completion_branch_terminal(
                self.graph, state, self.ordered, self.bridges, self.meter
            )
        return ("leaf", completion) if w is None else ("branch", w)

    def _open(self, branch: Vertex):
        """A suspendable ``V(T)``-``branch`` path search on the backend."""
        sources = tuple(self.partial.vertices)
        if self.fast:
            paths = fast_set_path_search(self.fg, sources, (branch,), meter=self.meter)
        else:
            paths = SetPathSearch(self.graph, sources, (branch,), meter=self.meter)
        return paths, (sources, branch)

    def _thaw_paths(self, fstate: Dict):
        if self.fast:
            return FastPathSearch.restore(self.fg, fstate["paths"], self.meter)
        return SetPathSearch.restore(self.graph, fstate["paths"], self.meter)


def steiner_tree_events(
    graph: Graph,
    terminals: Sequence[Vertex],
    meter=None,
    improved: bool = True,
    backend: str = "object",
) -> Iterator[Event]:
    """Event stream of the (improved) enumeration-tree traversal.

    Emits ``discover``/``examine`` per enumeration-tree node and
    ``solution`` per minimal Steiner tree.  ``improved=False`` runs plain
    Algorithm 2 (used by the AB-bridge ablation).  ``backend="fast"``
    compiles the instance into the integer kernel
    (:mod:`repro.graphs.fastgraph`) and yields the same stream.  Both
    drain a :class:`SteinerTreeSearch` machine, which is the suspendable
    form of this traversal.
    """
    yield from drain(
        SteinerTreeSearch(graph, terminals, meter=meter, improved=improved, backend=backend)
    )


def enumerate_minimal_steiner_trees(
    graph: Graph, terminals: Sequence[Vertex], meter=None, backend: str = "object"
) -> Iterator[Solution]:
    """Enumerate all minimal Steiner trees of ``(G, W)``.

    Improved branching (Theorem 17): amortized O(n+m) time per solution,
    O(n+m) space.  Yields frozensets of edge ids, each exactly once.

    Examples
    --------
    >>> g = Graph.from_edges([("a", "b"), ("b", "c"), ("a", "c")])
    >>> sols = sorted(sorted(s) for s in enumerate_minimal_steiner_trees(g, ["a", "c"]))
    >>> sols
    [[0, 1], [2]]
    """
    return solutions_only(
        steiner_tree_events(graph, terminals, meter=meter, backend=backend)
    )


def enumerate_minimal_steiner_trees_simple(
    graph: Graph, terminals: Sequence[Vertex], meter=None, backend: str = "object"
) -> Iterator[Solution]:
    """Plain Algorithm 2 (Theorem 15): O(|W|(n+m)) delay.

    Same solution set as :func:`enumerate_minimal_steiner_trees`; kept as
    the prior-work-shaped baseline (its per-solution cost carries the
    |W|-factor that Kimelfeld–Sagiv-style enumeration pays).
    """
    return solutions_only(
        steiner_tree_events(graph, terminals, meter=meter, improved=False, backend=backend)
    )


def enumerate_minimal_steiner_trees_linear_delay(
    graph: Graph,
    terminals: Sequence[Vertex],
    meter=None,
    window: Optional[int] = None,
    backend: str = "object",
) -> Iterator[Solution]:
    """Theorem 20: O(n+m) delay via the output-queue method.

    The improved event stream is passed through the regulator primed with
    ``n`` solutions (the paper's preprocessing phase), releasing one
    solution per bounded window of traversal events thereafter.  Space is
    O(n²) for the queue; the solution *set* is unchanged.
    """
    events = steiner_tree_events(graph, terminals, meter=meter, backend=backend)
    return regulate(events, graph.num_vertices, DEFAULT_WINDOW if window is None else window)


def count_minimal_steiner_trees(graph: Graph, terminals: Sequence[Vertex]) -> int:
    """Number of minimal Steiner trees (convenience wrapper)."""
    return sum(1 for _ in enumerate_minimal_steiner_trees(graph, terminals))
