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


def _validate_instance(graph: Graph, terminals: Sequence[Vertex]) -> List[Vertex]:
    """Deduplicate terminals and check they exist; raise on empty input."""
    seen: Set[Vertex] = set()
    ordered: List[Vertex] = []
    for w in terminals:
        if w not in graph:
            raise InvalidInstanceError(f"terminal {w!r} is not in the graph")
        if w not in seen:
            seen.add(w)
            ordered.append(w)
    if not ordered:
        raise InvalidInstanceError("at least one terminal is required")
    return ordered


def _terminals_connected(graph: Graph, terminals: Sequence[Vertex], meter) -> bool:
    comp = component_of(graph, terminals[0], meter=meter)
    return all(w in comp for w in terminals)


class _PartialTree:
    """Shared mutable state: the partial Steiner tree ``T`` of the node
    currently being visited, with O(path length) apply/undo.

    ``vertices`` is an insertion-ordered dict (used as an ordered set):
    its iteration order — the order in which vertices were attached to
    ``T`` — is the order handed to the path enumerators as the source
    set.  That makes every order-sensitive decision a deterministic
    function of the search path itself, which is what lets a restored
    snapshot (which replays the surviving attach records) reproduce the
    uninterrupted run's remaining stream byte-for-byte; a plain
    ``set``'s iteration order would depend on its full mutation history,
    including branches long since undone.
    """

    __slots__ = ("edges", "vertices", "uncovered")

    def __init__(self, start: Vertex, terminals: Sequence[Vertex]):
        self.edges: Set[int] = set()
        self.vertices: Dict[Vertex, None] = {start: None}
        self.uncovered: Set[Vertex] = set(terminals) - {start}

    def apply(self, path) -> Tuple[Tuple[int, ...], Tuple[Vertex, ...], Tuple[Vertex, ...]]:
        """Attach a ``V(T)``-``w`` path; return undo records."""
        new_edges = tuple(path.arcs)
        new_vertices = tuple(path.vertices[1:])  # vertices[0] is in V(T)
        covered = tuple(v for v in new_vertices if v in self.uncovered)
        self.edges.update(new_edges)
        for v in new_vertices:
            self.vertices[v] = None
        self.uncovered.difference_update(covered)
        return new_edges, new_vertices, covered

    def apply_record(self, record) -> None:
        """Re-apply a stored undo record (snapshot restore path)."""
        new_edges, new_vertices, covered = record
        self.edges.update(new_edges)
        for v in new_vertices:
            self.vertices[v] = None
        self.uncovered.difference_update(covered)

    def undo(self, record) -> None:
        new_edges, new_vertices, covered = record
        self.edges.difference_update(new_edges)
        for v in new_vertices:
            del self.vertices[v]
        self.uncovered.update(covered)


def _completion_branch_terminal(
    graph: Graph,
    state: _PartialTree,
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
    state: "_PartialTree",
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


class _TreeFrame:
    """One enumeration-tree activation: a path machine plus undo data."""

    __slots__ = ("paths", "record", "node_id", "depth", "sources", "branch")

    def __init__(self, paths, record, node_id, depth, sources, branch):
        self.paths = paths  # suspendable path search (``next_path()``)
        self.record = record  # partial-tree undo record (None at the root)
        self.node_id = node_id
        self.depth = depth
        self.sources = sources  # ordered V(T) at frame creation
        self.branch = branch  # the branch terminal this frame expands


class SteinerTreeSearch:
    """Suspendable machine of the minimal-Steiner-tree enumeration.

    One :meth:`advance` call returns the next traversal event
    (``discover`` / ``solution`` / ``examine``) or ``None`` when the
    enumeration is exhausted, for both the ``object`` and ``fast``
    backends and both branching rules (``improved`` per Theorem 17,
    plain Algorithm 2 otherwise).  :meth:`state` captures the complete
    search state as plain data — the frame stack (each frame holding its
    path machine's state, its undo record and its ordered source set),
    the pending event queue and the node counter — and :meth:`restore`
    rebuilds the machine mid-enumeration so that the remaining stream is
    byte-identical to the uninterrupted run's tail.  Static analysis
    (backend compilation, bridges, connectivity) is recomputed from the
    instance on restore, never serialized.
    """

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
        self.input_terminals: List[Vertex] = list(terminals)
        ordered = _validate_instance(graph, self.input_terminals)
        self.fast = backend == "fast"
        self._dead = False
        if self.fast:
            self.fg, index = compile_undirected(graph)
            ordered = map_query_vertices(index, ordered)
            labels = fast_component_labels(self.fg, meter=meter)
            root_label = labels[ordered[0]]
            if any(labels[w] != root_label for w in ordered):
                self._dead = True
        else:
            self.fg = None
            if not _terminals_connected(graph, ordered, meter):
                self._dead = True
        self.ordered = ordered
        self.bridges: FrozenSet[int] = frozenset()
        if improved and not self._dead and len(ordered) > 1:
            self.bridges = (
                fast_bridges(self.fg, meter=meter)
                if self.fast
                else find_bridges(graph, meter=meter)
            )
        self.state_tree = _PartialTree(ordered[0], ordered)
        self.node_counter = 0
        self.stack: List[_TreeFrame] = []
        self.pending: deque = deque()
        self.phase = 0  # 0 = not started, 1 = running, 2 = exhausted
        self.emitted = 0  # solutions produced (header bookkeeping)

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
            else:
                self._step()

    def _node_action(self) -> Tuple[str, object]:
        """Classify the current node: output a leaf or pick a branch
        terminal."""
        state = self.state_tree
        if self.improved:
            if not state.uncovered:
                return ("leaf", frozenset(state.edges))
            if self.fast:
                w, completion = _fast_completion_branch_terminal(
                    self.fg,
                    state,
                    self.ordered,
                    self.bridges,
                    self.meter,
                )
            else:
                w, completion = _completion_branch_terminal(
                    self.graph, state, self.ordered, self.bridges, self.meter
                )
            if w is None:
                return ("leaf", completion)
            return ("branch", w)
        if not state.uncovered:
            return ("leaf", frozenset(state.edges))
        # Plain Algorithm 2: first uncovered terminal in the fixed order.
        for w in self.ordered:
            if w in state.uncovered:
                return ("branch", w)
        raise AssertionError("unreachable")

    def _open_paths(self, sources: Tuple[Vertex, ...], branch: Vertex):
        """A suspendable ``V(T)``-``branch`` path search on the backend."""
        if self.fast:
            return fast_set_path_search(
                self.fg, sources, (branch,), meter=self.meter
            )
        return SetPathSearch(self.graph, sources, (branch,), meter=self.meter)

    def _start(self) -> None:
        self.phase = 1
        if self._dead:
            self.phase = 2
            return
        if len(self.ordered) == 1:
            self.pending.append((DISCOVER, 0, 0))
            self.pending.append((SOLUTION, frozenset()))
            self.pending.append((EXAMINE, 0, 0))
            self.phase = 2
            return
        self.pending.append((DISCOVER, self.node_counter, 0))
        kind, payload = self._node_action()
        if kind == "leaf":
            self.pending.append((SOLUTION, payload))
            self.pending.append((EXAMINE, self.node_counter, 0))
            self.phase = 2
            return
        sources = tuple(self.state_tree.vertices)
        self.stack.append(
            _TreeFrame(
                self._open_paths(sources, payload),
                None,
                self.node_counter,
                0,
                sources,
                payload,
            )
        )

    def _step(self) -> None:
        """One enumeration-tree traversal step (the old loop body)."""
        if not self.stack:
            self.phase = 2
            return
        frame = self.stack[-1]
        path = frame.paths.next_path()
        if path is None:
            self.pending.append((EXAMINE, frame.node_id, frame.depth))
            self.stack.pop()
            if frame.record is not None:
                self.state_tree.undo(frame.record)
            return
        record = self.state_tree.apply(path)
        self.node_counter += 1
        self.pending.append((DISCOVER, self.node_counter, frame.depth + 1))
        kind, payload = self._node_action()
        if kind == "leaf":
            self.pending.append((SOLUTION, payload))
            self.pending.append((EXAMINE, self.node_counter, frame.depth + 1))
            self.state_tree.undo(record)
            return
        sources = tuple(self.state_tree.vertices)
        self.stack.append(
            _TreeFrame(
                self._open_paths(sources, payload),
                record,
                self.node_counter,
                frame.depth + 1,
                sources,
                payload,
            )
        )

    # ------------------------------------------------------------------
    # snapshot plumbing
    # ------------------------------------------------------------------
    @property
    def frame_count(self) -> int:
        """Search-stack depth (tree frames + their path-machine frames)."""
        return len(self.stack) + sum(
            len(f.paths.stack)
            if isinstance(f.paths, FastPathSearch)
            else len(f.paths.machine.stack)
            for f in self.stack
        )

    def state(self) -> Dict[str, Any]:
        """Plain-data search state (static analysis is recomputed)."""
        return {
            "terminals": list(self.input_terminals),
            "improved": self.improved,
            "backend": self.backend,
            "node_counter": self.node_counter,
            "phase": self.phase,
            "emitted": self.emitted,
            "pending": list(self.pending),
            "frames": [
                {
                    "paths": frame.paths.state(),
                    "record": frame.record,
                    "node_id": frame.node_id,
                    "depth": frame.depth,
                    "sources": tuple(frame.sources),
                    "branch": frame.branch,
                }
                for frame in self.stack
            ],
        }

    def _restore_paths(self, paths_state: Dict[str, Any]):
        if self.fast:
            return FastPathSearch.restore(self.fg, paths_state, self.meter)
        return SetPathSearch.restore(self.graph, paths_state, self.meter)

    @classmethod
    def restore(cls, graph: Graph, state: Dict[str, Any], meter=None):
        """Rebuild a machine over ``graph`` from a :meth:`state` dict.

        ``graph`` must be (a deterministic reconstruction of) the
        instance the state was captured on; enumerator-level snapshots
        bind that with the instance fingerprint.
        """
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
        for fstate in state["frames"]:
            if fstate["record"] is not None:
                machine.state_tree.apply_record(fstate["record"])
            machine.stack.append(
                _TreeFrame(
                    machine._restore_paths(fstate["paths"]),
                    fstate["record"],
                    fstate["node_id"],
                    fstate["depth"],
                    tuple(fstate["sources"]),
                    fstate["branch"],
                )
            )
        return machine


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
    machine = SteinerTreeSearch(
        graph, terminals, meter=meter, improved=improved, backend=backend
    )
    while True:
        event = machine.advance()
        if event is None:
            return
        yield event


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
    for event in steiner_tree_events(
        graph, terminals, meter=meter, improved=True, backend=backend
    ):
        if event[0] == SOLUTION:
            yield event[1]


def enumerate_minimal_steiner_trees_simple(
    graph: Graph, terminals: Sequence[Vertex], meter=None, backend: str = "object"
) -> Iterator[Solution]:
    """Plain Algorithm 2 (Theorem 15): O(|W|(n+m)) delay.

    Same solution set as :func:`enumerate_minimal_steiner_trees`; kept as
    the prior-work-shaped baseline (its per-solution cost carries the
    |W|-factor that Kimelfeld–Sagiv-style enumeration pays).
    """
    for event in steiner_tree_events(
        graph, terminals, meter=meter, improved=False, backend=backend
    ):
        if event[0] == SOLUTION:
            yield event[1]


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
    events = steiner_tree_events(
        graph, terminals, meter=meter, improved=True, backend=backend
    )
    kwargs = {} if window is None else {"window": window}
    return regulate(events, prime=graph.num_vertices, **kwargs)


def count_minimal_steiner_trees(graph: Graph, terminals: Sequence[Vertex]) -> int:
    """Number of minimal Steiner trees (convenience wrapper)."""
    return sum(1 for _ in enumerate_minimal_steiner_trees(graph, terminals))
