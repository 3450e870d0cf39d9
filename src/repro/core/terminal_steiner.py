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

from collections import deque
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.backend import check_backend, compile_undirected, map_query_vertices
from repro.enumeration.events import DISCOVER, EXAMINE, SOLUTION, Event
from repro.enumeration.queue_method import regulate
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


def _validate(graph: Graph, terminals: Sequence[Vertex]) -> List[Vertex]:
    seen: Set[Vertex] = set()
    ordered: List[Vertex] = []
    for w in terminals:
        if w not in graph:
            raise InvalidInstanceError(f"terminal {w!r} is not in the graph")
        if w not in seen:
            seen.add(w)
            ordered.append(w)
    if len(ordered) < 2:
        raise InvalidInstanceError(
            "terminal Steiner trees need at least two terminals"
        )
    return ordered


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


class _PartialTree:
    """Partial terminal Steiner tree with ordered vertex attachment.

    ``vertices`` is an insertion-ordered dict used as an ordered set —
    see :class:`repro.core.steiner_tree._PartialTree` for why attachment
    order (not hash-table history) must drive the path enumerators'
    source ordering for snapshots to restore byte-identically.
    """

    __slots__ = ("edges", "vertices", "uncovered")

    def __init__(self, terminals: Sequence[Vertex]):
        self.edges: Set[int] = set()
        self.vertices: Dict[Vertex, None] = {}
        self.uncovered: Set[Vertex] = set(terminals)

    def apply_path(self, path_vertices, path_eids):
        new_edges = tuple(path_eids)
        new_vertices = tuple(v for v in path_vertices if v not in self.vertices)
        covered = tuple(v for v in new_vertices if v in self.uncovered)
        self.edges.update(new_edges)
        for v in new_vertices:
            self.vertices[v] = None
        self.uncovered.difference_update(covered)
        return new_edges, new_vertices, covered

    def apply_record(self, record):
        """Re-apply a stored undo record (snapshot restore path)."""
        new_edges, new_vertices, covered = record
        self.edges.update(new_edges)
        for v in new_vertices:
            self.vertices[v] = None
        self.uncovered.difference_update(covered)

    def undo(self, record):
        new_edges, new_vertices, covered = record
        self.edges.difference_update(new_edges)
        for v in new_vertices:
            del self.vertices[v]
        self.uncovered.update(covered)


def _completion_and_flags(
    comp: _Component, state: _PartialTree, terminals, meter
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
    comp: _Component, state: _PartialTree, n_space: int, meter
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
    state: _PartialTree,
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
    comp: _Component, state: _PartialTree, terminals, spanning: Set[int], meter
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


class _TsFrame:
    """One enumeration-tree activation: a path machine plus undo data."""

    __slots__ = ("paths", "record", "node_id", "depth", "kind", "branch", "sources")

    def __init__(self, paths, record, node_id, depth, kind, branch, sources):
        self.paths = paths  # suspendable path search (``next_path()``)
        self.record = record  # partial-tree undo record (None at a root)
        self.node_id = node_id
        self.depth = depth
        self.kind = kind  # "root" (w0-w1 paths) or "child" (V(T)-w paths)
        self.branch = branch  # branch terminal for "child" frames
        self.sources = sources  # ordered V(T) ∩ C at frame creation


class TerminalSteinerSearch:
    """Suspendable machine of the terminal-Steiner-tree enumeration.

    The machine form of :func:`terminal_steiner_events`: per valid
    component it grows a partial tree by suspendable path searches, so
    the complete search state — current component index, frame stack
    (each frame holding its path machine's state and undo record) and
    pending event queue — serializes as plain data via :meth:`state` and
    restores mid-enumeration via :meth:`restore` with a byte-identical
    remaining stream.  Component analysis, kernels and sub-graph copies
    are recomputed from the instance on restore.
    """

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
        self.input_terminals: List[Vertex] = list(terminals)
        if self.fast:
            fg, index = compile_undirected(graph)
            self.graph = fg  # FastGraph implements the Graph protocol
            terminals = map_query_vertices(index, terminals)
        else:
            self.graph = graph
        self.ordered = _validate(self.graph, terminals)
        self.two = len(self.ordered) == 2
        if self.two:
            self.components: List[_Component] = []
        else:
            self.components = [
                _Component(self.graph, comp, self.ordered, meter)
                for comp in valid_components(self.graph, self.ordered, meter=meter)
            ]
        self.comp_index = 0
        self.state_tree: Optional[_PartialTree] = None
        self.two_machine = None
        self.node_counter = 0
        self.stack: List[_TsFrame] = []
        self.pending: deque = deque()
        self.phase = 0  # 0 = not started, 1 = running, 2 = exhausted
        self.emitted = 0

    # ------------------------------------------------------------------
    def advance(self) -> Optional[Event]:
        """The next traversal event, or ``None`` when exhausted."""
        while True:
            if self.pending:
                event = self.pending.popleft()
                if event[0] == SOLUTION:
                    self.emitted += 1
                return event
            if self.phase == 2:
                return None
            if self.phase == 0:
                self._start()
            elif self.two:
                self._step_two()
            else:
                self._step()

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
        self.phase = 1
        if self.two:
            self.pending.append((DISCOVER, 0, 0))
            self.two_machine = self._open_two()
            return
        if not self.components:
            self.phase = 2
            return
        self.pending.append((DISCOVER, 0, 0))
        self._enter_component()

    def _enter_component(self) -> None:
        comp = self.components[self.comp_index]
        self.state_tree = _PartialTree(self.ordered)
        self.stack = [
            _TsFrame(self._open_root(comp), None, self.node_counter, 0, "root", None, ())
        ]

    def _node_action(self, comp: _Component) -> Tuple[str, object]:
        state = self.state_tree
        ordered = self.ordered
        meter = self.meter
        if not state.uncovered:
            return ("leaf", frozenset(state.edges))
        if not self.improved:
            for w in ordered:
                if w in state.uncovered:
                    return ("branch", w)
            raise AssertionError("unreachable")
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

    def _child_sub(self, comp: _Component, w: Vertex) -> Graph:
        """``G[C ∪ {w}]`` (object backend): the child-path substrate."""
        sub = Graph()
        for v in comp.vertices:
            sub.add_vertex(v)
        for edge in comp.graph_c.edges():
            sub.add_edge(edge.u, edge.v, eid=edge.eid)
        sub.add_vertex(w)
        for eid, other in comp.terminal_edges[w]:
            sub.add_edge(w, other, eid=eid)
        return sub

    def _root_sub(self, comp: _Component) -> Graph:
        """``G[C ∪ {w0, w1}]`` (object backend): the root-path substrate."""
        w0, w1 = self.ordered[0], self.ordered[1]
        sub = Graph()
        for v in comp.vertices:
            sub.add_vertex(v)
        for edge in comp.graph_c.edges():
            sub.add_edge(edge.u, edge.v, eid=edge.eid)
        for w in (w0, w1):
            sub.add_vertex(w)
            for eid, other in comp.terminal_edges[w]:
                sub.add_edge(w, other, eid=eid)
        return sub

    def _open_child(self, comp: _Component, sources: Tuple[Vertex, ...], w: Vertex):
        """Paths from (V(T) ∩ C) to ``w`` inside ``G[C ∪ {w}]``."""
        if self.fast:
            return fast_set_path_search(
                comp.kernel(self.graph.n_space),
                sources,
                (w,),
                meter=self.meter,
                excluded=[t for t in self.ordered if t != w],
            )
        return SetPathSearch(self._child_sub(comp, w), sources, (w,), meter=self.meter)

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
        return StPathSearch(self._root_sub(comp), w0, w1, meter=self.meter)

    def _step(self) -> None:
        """One enumeration-tree traversal step (the old loop body)."""
        if not self.stack:
            self.comp_index += 1
            if self.comp_index < len(self.components):
                self._enter_component()
            else:
                self.pending.append((EXAMINE, 0, 0))
                self.phase = 2
            return
        comp = self.components[self.comp_index]
        frame = self.stack[-1]
        path = frame.paths.next_path()
        if path is None:
            if frame.depth > 0:
                self.pending.append((EXAMINE, frame.node_id, frame.depth))
            self.stack.pop()
            if frame.record is not None:
                self.state_tree.undo(frame.record)
            return
        record = self.state_tree.apply_path(path.vertices, path.arcs)
        self.node_counter += 1
        self.pending.append((DISCOVER, self.node_counter, frame.depth + 1))
        kind, payload = self._node_action(comp)
        if kind == "leaf":
            self.pending.append((SOLUTION, payload))
            self.pending.append((EXAMINE, self.node_counter, frame.depth + 1))
            self.state_tree.undo(record)
            return
        sources = tuple(
            v for v in self.state_tree.vertices if v in comp.vertices
        )
        self.stack.append(
            _TsFrame(
                self._open_child(comp, sources, payload),
                record,
                self.node_counter,
                frame.depth + 1,
                "child",
                payload,
                sources,
            )
        )

    # ------------------------------------------------------------------
    # snapshot plumbing
    # ------------------------------------------------------------------
    @property
    def frame_count(self) -> int:
        """Search-stack depth (component frames; two-terminal mode: 1)."""
        if self.two:
            return 1 if self.two_machine is not None else 0
        return len(self.stack)

    def state(self) -> Dict[str, Any]:
        """Plain-data search state (components are recomputed on restore)."""
        payload: Dict[str, Any] = {
            "terminals": list(self.input_terminals),
            "improved": self.improved,
            "backend": self.backend,
            "node_counter": self.node_counter,
            "phase": self.phase,
            "emitted": self.emitted,
            "pending": list(self.pending),
            "comp_index": self.comp_index,
            "frames": [
                {
                    "paths": frame.paths.state(),
                    "record": frame.record,
                    "node_id": frame.node_id,
                    "depth": frame.depth,
                    "kind": frame.kind,
                    "branch": frame.branch,
                    "sources": tuple(frame.sources),
                }
                for frame in self.stack
            ],
        }
        if self.two_machine is not None:
            payload["two"] = self.two_machine.state()
        return payload

    def _restore_paths(self, fstate: Dict[str, Any], comp: _Component):
        if self.fast:
            return FastPathSearch.restore(
                comp.kernel(self.graph.n_space), fstate["paths"], self.meter
            )
        if fstate["kind"] == "root":
            return StPathSearch.restore(self._root_sub(comp), fstate["paths"], self.meter)
        return SetPathSearch.restore(
            self._child_sub(comp, fstate["branch"]), fstate["paths"], self.meter
        )

    @classmethod
    def restore(cls, graph: Graph, state: Dict[str, Any], meter=None):
        """Rebuild a machine over ``graph`` from a :meth:`state` dict."""
        machine = cls(
            graph,
            state["terminals"],
            meter=meter,
            improved=state["improved"],
            backend=state["backend"],
        )
        machine.node_counter = state["node_counter"]
        machine.phase = state["phase"]
        machine.emitted = state["emitted"]
        machine.pending = deque(state["pending"])
        machine.comp_index = state["comp_index"]
        if "two" in state:
            inner = state["two"]
            if machine.fast:
                machine.two_machine = FastPathSearch.restore(
                    machine.graph, inner, meter
                )
            else:
                machine.two_machine = StPathSearch.restore(
                    machine.graph, inner, meter
                )
        if not machine.two and machine.phase == 1 and machine.comp_index < len(
            machine.components
        ):
            comp = machine.components[machine.comp_index]
            machine.state_tree = _PartialTree(machine.ordered)
            for fstate in state["frames"]:
                if fstate["record"] is not None:
                    machine.state_tree.apply_record(fstate["record"])
                machine.stack.append(
                    _TsFrame(
                        machine._restore_paths(fstate, comp),
                        fstate["record"],
                        fstate["node_id"],
                        fstate["depth"],
                        fstate["kind"],
                        fstate["branch"],
                        tuple(fstate["sources"]),
                    )
                )
        return machine


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
    machine = TerminalSteinerSearch(
        graph, terminals, meter=meter, improved=improved, backend=backend
    )
    while True:
        event = machine.advance()
        if event is None:
            return
        yield event


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
    for event in terminal_steiner_events(
        graph, terminals, meter=meter, improved=True, backend=backend
    ):
        if event[0] == SOLUTION:
            yield event[1]


def enumerate_minimal_terminal_steiner_trees_simple(
    graph: Graph, terminals: Sequence[Vertex], meter=None, backend: str = "object"
) -> Iterator[Solution]:
    """Unimproved branching (Theorem 29 bound): O(nm) delay."""
    for event in terminal_steiner_events(
        graph, terminals, meter=meter, improved=False, backend=backend
    ):
        if event[0] == SOLUTION:
            yield event[1]


def enumerate_minimal_terminal_steiner_trees_linear_delay(
    graph: Graph,
    terminals: Sequence[Vertex],
    meter=None,
    window: Optional[int] = None,
    backend: str = "object",
) -> Iterator[Solution]:
    """Theorem 31 second half: O(n+m) delay via the output-queue method."""
    events = terminal_steiner_events(
        graph, terminals, meter=meter, improved=True, backend=backend
    )
    kwargs = {} if window is None else {"window": window}
    return regulate(events, prime=graph.num_vertices, **kwargs)


def count_minimal_terminal_steiner_trees(
    graph: Graph, terminals: Sequence[Vertex]
) -> int:
    """Number of minimal terminal Steiner trees (convenience wrapper)."""
    return sum(1 for _ in enumerate_minimal_terminal_steiner_trees(graph, terminals))
