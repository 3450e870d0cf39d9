"""Minimal terminal Steiner tree enumeration (Section 5.1, Thms 29/31).

A *terminal* Steiner tree must keep every terminal a leaf.  Lemma 27
pins down the structure: terminal-terminal edges are never usable, and a
solution's interior lives inside a single connected component ``C`` of
``G[V \\ W]`` with ``W ⊆ N(C)``.  The enumerator therefore:

* handles ``|W| = 2`` directly as *s*-*t* path enumeration (the paper's
  observation — a tree with leaf set exactly ``{w, w'}`` is a path);
* for ``|W| ≥ 3`` drops terminal-terminal edges, restricts to each valid
  component ``C`` in turn, and grows a partial tree by
  ``(V(T) ∩ C)``-``w`` paths inside ``G[C ∪ {w}]``.

Note on valid paths: the paper states valid paths inside ``G[C ∪ W]``;
read literally this would admit paths threading *through* another
terminal, which would make that terminal an internal vertex and violate
the partial-solution invariant the same section relies on.  We therefore
enumerate paths in ``G[C ∪ {w}]`` (all other terminals excluded), which
is the reading under which Lemma 28 and the uniqueness argument go
through.  The ≥2-children test is adapted accordingly (and stays O(n+m)
per node): an uncovered terminal ``w`` is branchable iff

* ``w`` has ≥ 2 edges into ``C`` (each attachment edge extends to a valid
  path since ``C`` is connected and meets ``V(T)``), or
* ``w`` has exactly one edge ``{w, v}`` into ``C`` and the
  ``V(T)``-``v`` path is non-unique in ``G[C]`` — tested via the static
  bridges of ``G[C]`` exactly as in Lemma 16/30.

When no uncovered terminal is branchable, every attachment edge is forced
and every connecting path is bridge-only, so the minimal completion
(Lemma 28's construction) is the *unique* minimal terminal Steiner tree
containing ``T`` and is output as a leaf.

Solutions are frozensets of edge ids.  Amortized O(n+m) per solution;
O(n+m) delay with the output-queue regulator (Theorem 31).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.backend import check_backend, compile_undirected, map_query_vertices
from repro.core.suspend import drain
from repro.core.tree_search import Frame, PartialTree, TreeSearch, ordered_terminals
from repro.enumeration.events import DISCOVER, EXAMINE, SOLUTION, Event, solutions_only
from repro.enumeration.queue_method import DEFAULT_WINDOW, regulate
from repro.exceptions import InvalidInstanceError
from repro.graphs.bridges import find_bridges
from repro.graphs.fastgraph import (
    FastGraph,
    fast_prune_non_terminal_leaves,
    fast_spanning_forest,
)
from repro.graphs.graph import Graph
from repro.graphs.spanning import prune_non_terminal_leaves, spanning_tree_edges
from repro.graphs.traversal import connected_components
from repro.paths.fastpaths import (
    FastPathSearch,
    fast_set_path_search,
    fast_st_path_search,
)
from repro.paths.read_tarjan import SetPathSearch, StPathSearch

Vertex = Hashable
Solution = FrozenSet[int]


class _Component:
    """A valid component ``C`` (``W ⊆ N(C)``) with its static analysis."""

    __slots__ = (
        "vertices",
        "graph_c",
        "bridges_c",
        "terminal_edges",
        "work_graph",
        "_kernel",
        "_kernel_c",
    )

    def kernel(self, n_space: int) -> FastGraph:
        """The work graph compiled once as a kernel (fast backend).

        Per-query vertex masks (``excluded``) replace the per-node
        ``G[C ∪ {w}]`` subcopies the object backend builds; the visible
        incidence order is the same subsequence either way.
        """
        if self._kernel is None:
            self._kernel = FastGraph.from_graph(self.work_graph, n_space=n_space)
        return self._kernel

    def kernel_c(self, n_space: int) -> FastGraph:
        """``G[C]`` compiled once as a kernel (fast backend): the
        substrate for the per-node spanning/flag completion step."""
        if self._kernel_c is None:
            self._kernel_c = FastGraph.from_graph(self.graph_c, n_space=n_space)
        return self._kernel_c

    def __init__(self, graph: Graph, vertices: Set[Vertex], terminals, meter):
        self.vertices = vertices
        # G[C]: the interior graph; its bridges are static for the whole
        # component's enumeration subtree (Lemma 16 applied inside C).
        self.graph_c = graph.subgraph(vertices)
        self.bridges_c = find_bridges(self.graph_c, meter=meter)
        # terminal -> list of (eid, attachment vertex in C)
        self.terminal_edges: Dict[Vertex, List[Tuple[int, Vertex]]] = {}
        for w in terminals:
            edges = [
                (eid, other)
                for eid, other in graph.incident_items(w)
                if other in vertices
            ]
            self.terminal_edges[w] = edges
        # G[C ∪ W] minus terminal-terminal edges: the working graph whose
        # subgraphs G[C ∪ {w}] host the path enumerations.
        self._kernel = None
        self._kernel_c = None
        self.work_graph = Graph()
        for v in vertices:
            self.work_graph.add_vertex(v)
        for edge in self.graph_c.edges():
            self.work_graph.add_edge(edge.u, edge.v, eid=edge.eid)
        for w in terminals:
            self.work_graph.add_vertex(w)
            for eid, other in self.terminal_edges[w]:
                self.work_graph.add_edge(w, other, eid=eid)


def valid_components(
    graph: Graph, terminals: Sequence[Vertex], meter=None
) -> List[Set[Vertex]]:
    """Components ``C`` of ``G[V \\ W]`` with ``W ⊆ N(C)`` (Lemma 27)."""
    terminal_set = set(terminals)
    interior = graph.without_vertices(terminal_set)
    result: List[Set[Vertex]] = []
    for comp in connected_components(interior, meter=meter):
        neighbourhood: Set[Vertex] = set()
        for v in comp:
            for u in graph.neighbor_set(v):
                if u in terminal_set:
                    neighbourhood.add(u)
        if terminal_set <= neighbourhood:
            result.append(comp)
    return result


def _completion_and_flags(
    comp: _Component, state: PartialTree, terminals, meter
) -> Tuple[Set[int], Dict[Vertex, bool]]:
    """Lemma 28 completion restricted to ``C`` + bridge flags.

    Returns the spanning tree of ``G[C]`` containing ``T ∩ C`` (used both
    for the uniqueness flags and, extended by terminal edges, as the leaf
    output) and ``flag[v]`` = "the ``V(T)``-``v`` path inside it is
    bridge-only in ``G[C]``".
    """
    interior_required = [e for e in state.edges if comp.graph_c.has_edge_id(e)]
    spanning = spanning_tree_edges(comp.graph_c, required=interior_required, meter=meter)
    adjacency: Dict[Vertex, List[Tuple[int, Vertex]]] = {}
    for eid in spanning:
        u, v = comp.graph_c.endpoints(eid)
        adjacency.setdefault(u, []).append((eid, v))
        adjacency.setdefault(v, []).append((eid, u))
    sources = [v for v in state.vertices if v in comp.vertices]
    flag: Dict[Vertex, bool] = {}
    stack: List[Vertex] = []
    for v in sources:
        flag[v] = True
        stack.append(v)
    while stack:
        v = stack.pop()
        for eid, u in adjacency.get(v, ()):
            if meter is not None:
                meter.tick()
            if u in flag:
                continue
            flag[u] = flag[v] and (eid in comp.bridges_c)
            stack.append(u)
    return spanning, flag


def _uf_find(parent: Dict[int, int], x: int) -> int:
    """Dict union-find find with path compression (lazy insertion)."""
    root = parent.setdefault(x, x)
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def _fast_completion_and_flags(
    comp: _Component, state: PartialTree, n_space: int, meter
):
    """Kernel version of :func:`_completion_and_flags`.

    The spanning scan runs on the ``G[C]`` kernel in the same global
    edge order (identical chosen set), and the BFS bridge flags become
    an inline union-find over the spanning tree's bridge edges: paths in
    a tree are unique, so "the ``V(T)``-``v`` path is bridge-only"
    equals "``v`` is bridge-connected to ``V(T) ∩ C``" — exactly the
    argument :func:`repro.core.steiner_tree._fast_completion_branch_terminal`
    uses.  Returns ``(spanning, flag_of)`` with ``flag_of`` a callable.
    """
    kc = comp.kernel_c(n_space)
    interior_required = [e for e in state.edges if kc.has_edge_id(e)]
    spanning, _forest_parent = fast_spanning_forest(
        kc, required=interior_required, meter=meter
    )
    eu, esum = kc._eu, kc._esum
    bridges = comp.bridges_c
    parent: Dict[int, int] = {}
    ops = 0
    for eid in spanning:
        ops += 1
        if eid not in bridges:
            continue
        u = eu[eid]
        ru = _uf_find(parent, u)
        rv = _uf_find(parent, esum[eid] - u)
        if ru != rv:
            parent[ru] = rv
    anchor = -1  # vertex ids are non-negative; safe synthetic root
    parent[anchor] = anchor
    comp_vertices = comp.vertices
    for v in state.vertices:
        if v not in comp_vertices:
            continue
        rv = _uf_find(parent, v)
        ra = _uf_find(parent, anchor)
        if rv != ra:
            parent[rv] = ra
    if meter is not None and ops:
        meter.tick(ops)

    def flag_of(v) -> bool:
        return _uf_find(parent, v) == _uf_find(parent, anchor)

    return spanning, flag_of


def _fast_leaf_completion(
    comp: _Component,
    state: PartialTree,
    terminals,
    spanning: Set[int],
    n_space: int,
    meter,
) -> Solution:
    """Kernel version of :func:`_leaf_completion` (same fixed point)."""
    kw = comp.kernel(n_space)
    edges = set(spanning)
    terminal_set = set(terminals)
    covered_edge: Dict[Vertex, int] = {}
    eu, esum = kw._eu, kw._esum
    for eid in state.edges:
        u = eu[eid]
        v = esum[eid] - u
        if u in terminal_set:
            covered_edge[u] = eid
        if v in terminal_set:
            covered_edge[v] = eid
    for w in terminals:
        if w in state.vertices:
            edges.add(covered_edge[w])
        else:
            eid, _other = comp.terminal_edges[w][0]
            edges.add(eid)
    pruned = fast_prune_non_terminal_leaves(kw, edges, terminals, meter=meter)
    return frozenset(pruned)


def _leaf_completion(
    comp: _Component, state: PartialTree, terminals, spanning: Set[int], meter
) -> Solution:
    """Assemble the unique minimal terminal Steiner tree at a leaf node."""
    edges = set(spanning)
    terminal_set = set(terminals)
    covered_edge: Dict[Vertex, int] = {}
    for eid in state.edges:
        u, v = comp.work_graph.endpoints(eid)
        if u in terminal_set:
            covered_edge[u] = eid
        if v in terminal_set:
            covered_edge[v] = eid
    for w in terminals:
        if w in state.vertices:
            # covered terminal: keep its (unique) tree edge
            edges.add(covered_edge[w])
        else:
            # uncovered terminal at a leaf node: its attachment is forced
            eid, _other = comp.terminal_edges[w][0]
            edges.add(eid)
    pruned = prune_non_terminal_leaves(comp.work_graph, edges, terminals, meter=meter)
    return frozenset(pruned)


class TerminalSteinerSearch(TreeSearch):
    """Suspendable machine of the terminal-Steiner-tree enumeration.

    The :class:`repro.core.tree_search.TreeSearch` traversal run once
    per valid component ``C``: the root's children are the
    ``w0``-``w1`` paths inside ``G[C ∪ {w0, w1}]`` over every component
    in turn (a ``"root"`` frame per component, node 0 examined once
    after the last), and a branch on an uncovered terminal ``w``
    enumerates the ``(V(T) ∩ C)``-``w`` paths inside ``G[C ∪ {w}]`` (a
    ``"child"`` frame).  ``|W| = 2`` runs a single s-t path machine
    instead.  The state adds the component index, and the two-terminal
    machine's state under ``"two"``; component analysis, kernels and
    sub-graph copies are recomputed from the instance on restore.
    """

    query_fields = ("terminals",)
    frame_fields = ("kind", "branch", "sources")

    def __init__(
        self,
        graph: Graph,
        terminals: Sequence[Vertex],
        meter=None,
        improved: bool = True,
        backend: str = "object",
    ) -> None:
        backend = check_backend(backend, kind="terminal-steiner")
        self.meter = meter
        self.improved = improved
        self.backend = backend
        self.fast = backend == "fast"
        query = {"terminals": list(terminals)}
        if self.fast:
            fg, index = compile_undirected(graph)
            self.graph = fg  # FastGraph implements the Graph protocol
            terminals = map_query_vertices(index, terminals)
        else:
            self.graph = graph
        self.ordered = ordered_terminals(self.graph, terminals)
        if len(self.ordered) < 2:
            raise InvalidInstanceError(
                "terminal Steiner trees need at least two terminals"
            )
        self.two = len(self.ordered) == 2
        if self.two:
            self.components: List[_Component] = []
        else:
            self.components = [
                _Component(self.graph, comp, self.ordered, meter)
                for comp in valid_components(self.graph, self.ordered, meter=meter)
            ]
        self.comp_index = 0
        self.two_machine = None
        self._begin(query, None)

    # -- |W| = 2: s-t path enumeration (paper, §5.1) -------------------
    def _open_two(self):
        if self.fast:
            return fast_st_path_search(
                self.graph, self.ordered[0], self.ordered[1], meter=self.meter
            )
        return StPathSearch(
            self.graph, self.ordered[0], self.ordered[1], meter=self.meter
        )

    def _step_two(self) -> None:
        path = self.two_machine.next_path()
        if path is None:
            self.pending.append((EXAMINE, 0, 0))
            self.phase = 2
            return
        if len(path.arcs) == 0:
            return
        self.pending.append((SOLUTION, frozenset(path.arcs)))

    # -- |W| >= 3: per-component partial-tree growth -------------------
    def _start(self) -> None:
        if self.two:
            self.pending.append((DISCOVER, 0, 0))
            self.two_machine = self._open_two()
            return
        if not self.components:
            self.phase = 2
            return
        self.pending.append((DISCOVER, 0, 0))
        self._enter_component()

    def _step(self) -> None:
        if self.two:
            self._step_two()
        else:
            super()._step()

    def _finish(self) -> None:
        """A component is done: enter the next, or examine node 0."""
        self.comp_index += 1
        if self.comp_index < len(self.components):
            self._enter_component()
        else:
            self.pending.append((EXAMINE, 0, 0))
            self.phase = 2

    def _retire(self, frame: Frame) -> None:
        # A component's root frame holds part of node 0's children; node 0
        # is examined once, after the last component.
        if frame.depth > 0:
            super()._retire(frame)
        else:
            self.stack.pop()

    def _enter_component(self) -> None:
        comp = self.components[self.comp_index]
        self.partial = PartialTree((), self.ordered)
        root = self._open_root(comp)
        self.stack = [Frame(root, None, self.node_counter, 0, ("root", None, ()))]

    def _node_test(self) -> Tuple[str, object]:
        comp = self.components[self.comp_index]
        state = self.partial
        ordered = self.ordered
        meter = self.meter
        if not state.uncovered:
            return ("leaf", frozenset(state.edges))
        if not self.improved:
            return ("branch", next(w for w in ordered if w in state.uncovered))
        if self.fast:
            spanning, flag_of = _fast_completion_and_flags(
                comp, state, self.graph.n_space, meter
            )
        else:
            spanning, flag = _completion_and_flags(comp, state, ordered, meter)
            flag_of = lambda v: flag.get(v, True)  # noqa: E731
        for w in ordered:
            if w not in state.uncovered:
                continue
            edges_into_c = comp.terminal_edges[w]
            if len(edges_into_c) >= 2:
                return ("branch", w)
            eid, v = edges_into_c[0]
            if not flag_of(v):
                return ("branch", w)
        if self.fast:
            return (
                "leaf",
                _fast_leaf_completion(
                    comp, state, ordered, spanning, self.graph.n_space, meter
                ),
            )
        return ("leaf", _leaf_completion(comp, state, ordered, spanning, meter))

    def _substrate(self, comp: _Component, terminals) -> Graph:
        """``G[C ∪ terminals]`` (object backend): a path substrate."""
        sub = Graph()
        for v in comp.vertices:
            sub.add_vertex(v)
        for edge in comp.graph_c.edges():
            sub.add_edge(edge.u, edge.v, eid=edge.eid)
        for w in terminals:
            sub.add_vertex(w)
            for eid, other in comp.terminal_edges[w]:
                sub.add_edge(w, other, eid=eid)
        return sub

    def _open(self, branch: Vertex):
        """Paths from (V(T) ∩ C) to ``branch`` inside ``G[C ∪ {branch}]``."""
        comp = self.components[self.comp_index]
        sources = tuple(v for v in self.partial.vertices if v in comp.vertices)
        if self.fast:
            paths = fast_set_path_search(
                comp.kernel(self.graph.n_space),
                sources,
                (branch,),
                meter=self.meter,
                excluded=[t for t in self.ordered if t != branch],
            )
        else:
            sub = self._substrate(comp, (branch,))
            paths = SetPathSearch(sub, sources, (branch,), meter=self.meter)
        return paths, ("child", branch, sources)

    def _open_root(self, comp: _Component):
        """Root children for a component: w0-w1 paths in G[C ∪ {w0, w1}]."""
        w0, w1 = self.ordered[0], self.ordered[1]
        if self.fast:
            return fast_st_path_search(
                comp.kernel(self.graph.n_space),
                w0,
                w1,
                meter=self.meter,
                excluded=[t for t in self.ordered if t != w0 and t != w1],
            )
        return StPathSearch(self._substrate(comp, (w0, w1)), w0, w1, meter=self.meter)

    # ------------------------------------------------------------------
    # snapshot plumbing
    # ------------------------------------------------------------------
    @property
    def frame_count(self) -> int:
        """Search-stack depth (component frames; two-terminal mode: 1)."""
        if self.two:
            return 1 if self.two_machine is not None else 0
        return len(self.stack)

    def _walk_state(self) -> Dict:
        return {"comp_index": self.comp_index}

    def state(self) -> Dict:
        """Plain-data search state (components are recomputed on restore)."""
        payload = super().state()
        if self.two_machine is not None:
            payload["two"] = self.two_machine.state()
        return payload

    def _replay(self, state: Dict) -> None:
        self.comp_index = state["comp_index"]
        if "two" in state:
            thaw = FastPathSearch.restore if self.fast else StPathSearch.restore
            self.two_machine = thaw(self.graph, state["two"], self.meter)
        if not self.two and self.phase == 1 and self.comp_index < len(self.components):
            self.partial = PartialTree((), self.ordered)
            super()._replay(state)

    def _thaw_paths(self, fstate: Dict):
        comp = self.components[self.comp_index]
        if self.fast:
            return FastPathSearch.restore(
                comp.kernel(self.graph.n_space), fstate["paths"], self.meter
            )
        if fstate["kind"] == "root":
            sub = self._substrate(comp, self.ordered[:2])
            return StPathSearch.restore(sub, fstate["paths"], self.meter)
        sub = self._substrate(comp, (fstate["branch"],))
        return SetPathSearch.restore(sub, fstate["paths"], self.meter)


def terminal_steiner_events(
    graph: Graph,
    terminals: Sequence[Vertex],
    meter=None,
    improved: bool = True,
    backend: str = "object",
) -> Iterator[Event]:
    """Event stream of the terminal-Steiner enumeration-tree traversal.

    ``backend="fast"`` keeps the node logic (component analysis,
    completions, flags — all well-defined per node) and swaps the path
    enumerations onto one compiled kernel per valid component, masking
    the terminals outside each query instead of rebuilding
    ``G[C ∪ {w}]`` subcopies.  Both backends drain a
    :class:`TerminalSteinerSearch` machine, the suspendable form of this
    traversal.
    """
    yield from drain(
        TerminalSteinerSearch(
            graph, terminals, meter=meter, improved=improved, backend=backend
        )
    )


def enumerate_minimal_terminal_steiner_trees(
    graph: Graph, terminals: Sequence[Vertex], meter=None, backend: str = "object"
) -> Iterator[Solution]:
    """Enumerate all minimal terminal Steiner trees of ``(G, W)``.

    Improved branching: amortized O(n+m) per solution (Theorem 31).
    Yields frozensets of edge ids, each exactly once.

    Examples
    --------
    >>> g = Graph.from_edges([("w1", "x"), ("x", "w2"), ("x", "y"), ("y", "w2")])
    >>> sorted(sorted(s) for s in enumerate_minimal_terminal_steiner_trees(g, ["w1", "w2"]))
    [[0, 1], [0, 2, 3]]
    """
    return solutions_only(
        terminal_steiner_events(graph, terminals, meter=meter, backend=backend)
    )


def enumerate_minimal_terminal_steiner_trees_simple(
    graph: Graph, terminals: Sequence[Vertex], meter=None, backend: str = "object"
) -> Iterator[Solution]:
    """Unimproved branching (Theorem 29 bound): O(nm) delay."""
    return solutions_only(
        terminal_steiner_events(graph, terminals, meter=meter, improved=False, backend=backend)
    )


def enumerate_minimal_terminal_steiner_trees_linear_delay(
    graph: Graph,
    terminals: Sequence[Vertex],
    meter=None,
    window: Optional[int] = None,
    backend: str = "object",
) -> Iterator[Solution]:
    """Theorem 31 second half: O(n+m) delay via the output-queue method."""
    events = terminal_steiner_events(graph, terminals, meter=meter, backend=backend)
    return regulate(events, graph.num_vertices, DEFAULT_WINDOW if window is None else window)


def count_minimal_terminal_steiner_trees(
    graph: Graph, terminals: Sequence[Vertex]
) -> int:
    """Number of minimal terminal Steiner trees (convenience wrapper)."""
    return sum(1 for _ in enumerate_minimal_terminal_steiner_trees(graph, terminals))
