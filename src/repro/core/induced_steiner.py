"""Minimal induced Steiner subgraphs on claw-free graphs (Section 7).

Solutions are *vertex sets* ``U`` (with ``W ⊆ U``) such that ``G[U]``
connects every pair of terminals and no proper subset does.  On general
graphs this enumeration is transversal-hard; Theorem 42 gives polynomial
delay on claw-free graphs via the *supergraph technique*:

* define a directed solution graph 𝒢 on the solution set;
* a neighbour of ``X`` is built per pair ``(v, w)``: removing a
  non-terminal ``v ∈ X`` splits ``G[X \\ {v}]`` into exactly two
  components ``C1, C2`` (claw-freeness!), each holding terminals;
  ``w ∈ N(C1) \\ {v}`` is a replacement attachment.  Minimalize
  ``C1 ∪ {w}`` and ``C2`` with the greedy procedure μ, reconnect them
  with a shortest ``w``-``C2``-path avoiding ``N(C1^w) \\ {w}``, and
  minimalize the union (Lemma 41 shows this walks closer to any target
  solution, so 𝒢 is strongly connected);
* BFS over 𝒢 from one solution, deduplicating visited solutions
  (exponential space, as the paper allows).

The greedy minimalizer μ scans candidates in one fixed pass; removability
is antitone (dropping vertices only breaks connectivity), so a single
pass yields a minimal solution deterministically.

Following Lemma 41's proof, the reconnecting path is additionally
forbidden from using ``v`` (the paper's witness path never does), and we
generate neighbours for both orientations of ``(C1, C2)`` — a superset of
the paper's arc set, which preserves strong connectivity and the delay
bound.
"""

from __future__ import annotations

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

from collections import deque

from repro.exceptions import ClawFreeViolation, InvalidInstanceError
from repro.graphs.graph import Graph
from repro.graphs.linegraph import find_claw
from repro.graphs.traversal import component_of

Vertex = Hashable
VertexSolution = FrozenSet[Vertex]


def _tick(meter, amount: int = 1) -> None:
    if meter is not None:
        meter.tick(amount)


def _terminals_connected_within(
    graph: Graph, vertices: Set[Vertex], terminals: Sequence[Vertex], meter=None
) -> bool:
    """Are all terminals connected inside ``G[vertices]``? (BFS, O(n+m))"""
    terminals = list(terminals)
    if not terminals:
        return True
    first = terminals[0]
    if first not in vertices:
        return False
    seen = {first}
    stack = [first]
    while stack:
        v = stack.pop()
        for u in graph.neighbors(v):
            _tick(meter)
            if u in vertices and u not in seen:
                seen.add(u)
                stack.append(u)
    return all(w in seen for w in terminals)


def minimalize(
    graph: Graph,
    vertices: Set[Vertex],
    terminals: Sequence[Vertex],
    meter=None,
) -> FrozenSet[Vertex]:
    """The paper's μ: a minimal induced Steiner subgraph inside ``vertices``.

    Scans non-terminal candidates in a fixed deterministic order and drops
    each one whose removal keeps the terminals connected.  Because
    removability is antitone in the vertex set, one pass suffices for
    minimality.  The result is trimmed to the terminals' component first,
    so stray components never survive.
    """
    terminals = list(terminals)
    if not terminals:
        return frozenset()
    current = set(vertices)
    if not _terminals_connected_within(graph, current, terminals, meter):
        raise InvalidInstanceError("terminals are not connected within the set")
    # restrict to the terminals' component
    sub = graph.subgraph(current)
    current = set(component_of(sub, terminals[0], meter=meter))
    terminal_set = set(terminals)
    for v in sorted(current - terminal_set, key=repr):
        trial = current - {v}
        if _terminals_connected_within(graph, trial, terminals, meter):
            current = trial
    return frozenset(current)


def _split_components(
    graph: Graph, vertices: Set[Vertex], removed: Vertex, meter=None
) -> List[Set[Vertex]]:
    """Connected components of ``G[vertices \\ {removed}]``.

    Component order is canonical (components appear by their
    ``repr``-smallest vertex), so the neighbour stream of a solution is
    a pure function of the solution *value* — which is what lets a
    restored :class:`InducedSteinerSearch` snapshot (whose queue holds
    re-built frozensets) reproduce the uninterrupted run's stream.
    """
    remaining = vertices - {removed}
    seen: Set[Vertex] = set()
    components: List[Set[Vertex]] = []
    for start in sorted(remaining, key=repr):
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        stack = [start]
        while stack:
            v = stack.pop()
            for u in graph.neighbors(v):
                _tick(meter)
                if u in remaining and u not in seen:
                    seen.add(u)
                    comp.add(u)
                    stack.append(u)
        components.append(comp)
    return components


def _neighbor_set_within(graph: Graph, component: Set[Vertex], meter=None) -> Set[Vertex]:
    """``N_G(C)``: vertices outside ``component`` adjacent to it."""
    result: Set[Vertex] = set()
    for v in component:
        for u in graph.neighbor_set(v):
            _tick(meter)
            if u not in component:
                result.add(u)
    return result


def _paths_to_targets(
    graph: Graph,
    start: Vertex,
    targets: Set[Vertex],
    forbidden: Set[Vertex],
    meter=None,
) -> List[List[Vertex]]:
    """Shortest ``start``-to-``x`` paths for every reachable target ``x``.

    One absorbing BFS: forbidden vertices are never entered, target
    vertices are recorded but not expanded (they are path *endpoints*), so
    every returned path has internal vertices outside ``forbidden`` and
    outside ``targets``.
    """
    if start in targets:
        return [[start]]
    parent: Dict[Vertex, Optional[Vertex]] = {start: None}
    found: List[Vertex] = []
    queue: deque = deque([start])
    while queue:
        v = queue.popleft()
        for u in graph.neighbors(v):
            _tick(meter)
            if u in parent or u in forbidden:
                continue
            parent[u] = v
            if u in targets:
                found.append(u)
                continue
            queue.append(u)
    paths: List[List[Vertex]] = []
    for x in found:
        path = [x]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        path.reverse()
        paths.append(path)
    return paths


class _ObjectOps:
    """The Section 7 helper kit bound to a protocol :class:`Graph`.

    :func:`_neighbors_via` is written against this four-method surface
    (μ, component split, neighbourhood, shortest reconnection paths) so
    the object and kernel backends share every order-sensitive decision.
    """

    def __init__(self, graph: Graph, meter=None) -> None:
        self.graph = graph
        self.meter = meter

    def minimalize(self, vertices: Set[Vertex], terminals: Sequence[Vertex]):
        return minimalize(self.graph, vertices, terminals, self.meter)

    def split(self, vertices: Set[Vertex], removed: Vertex) -> List[Set[Vertex]]:
        return _split_components(self.graph, vertices, removed, self.meter)

    def nbr_set(self, component: Set[Vertex]) -> Set[Vertex]:
        return _neighbor_set_within(self.graph, component, self.meter)

    def paths(
        self, start: Vertex, targets: Set[Vertex], forbidden: Set[Vertex]
    ) -> List[List[Vertex]]:
        return _paths_to_targets(self.graph, start, targets, forbidden, self.meter)


class _FastOps:
    """Kernel-specialized helper kit over a compiled ``FastGraph``.

    A decision-for-decision mirror of :class:`_ObjectOps` — same
    candidate orders, same BFS parent assignments — with flat adjacency
    lists, a shared stamp array and a membership ``bytearray`` instead
    of per-call Python sets and subgraph copies, so μ's O(n·(n+m))
    inner loop runs on arrays.  The solution stream stays byte-identical
    to the object backend (the differential wall in the test suite
    checks this); only the constant factor changes.
    """

    def __init__(self, fg, meter=None) -> None:
        self.graph = fg
        self.meter = meter
        self._raw = fg.neighbor_lists()
        n = len(self._raw)
        self._mask = bytearray(n)
        self._seen = [0] * n
        self._stamp = 0

    def _connected_masked(self, terminals: Sequence[Vertex]) -> bool:
        """Terminals connected inside the masked vertex set? (stamp BFS)"""
        if not terminals:
            return True
        first = terminals[0]
        mask = self._mask
        if not mask[first]:
            return False
        self._stamp += 1
        st = self._stamp
        seen = self._seen
        raw = self._raw
        meter = self.meter
        seen[first] = st
        stack = [first]
        scanned = 0  # ticks are batched per BFS; the charged total is unchanged
        while stack:
            v = stack.pop()
            nbrs = raw[v]
            scanned += len(nbrs)
            for u in nbrs:
                if mask[u] and seen[u] != st:
                    seen[u] = st
                    stack.append(u)
        if meter is not None:
            meter.tick(scanned)
        return all(seen[w] == st for w in terminals)

    def _component_masked(self, start: Vertex) -> Set[Vertex]:
        """The masked component containing ``start`` (stamp BFS)."""
        self._stamp += 1
        st = self._stamp
        seen = self._seen
        raw = self._raw
        mask = self._mask
        meter = self.meter
        seen[start] = st
        comp = {start}
        stack = [start]
        scanned = 0
        while stack:
            v = stack.pop()
            nbrs = raw[v]
            scanned += len(nbrs)
            for u in nbrs:
                if mask[u] and seen[u] != st:
                    seen[u] = st
                    comp.add(u)
                    stack.append(u)
        if meter is not None:
            meter.tick(scanned)
        return comp

    def minimalize(self, vertices: Set[Vertex], terminals: Sequence[Vertex]):
        terminals = list(terminals)
        if not terminals:
            return frozenset()
        mask = self._mask
        current = set(vertices)
        for v in current:
            mask[v] = 1
        try:
            if not self._connected_masked(terminals):
                raise InvalidInstanceError(
                    "terminals are not connected within the set"
                )
            comp = self._component_masked(terminals[0])
            for v in current - comp:
                mask[v] = 0
            current = comp
            terminal_set = set(terminals)
            for v in sorted(current - terminal_set, key=repr):
                mask[v] = 0
                if self._connected_masked(terminals):
                    current.discard(v)
                else:
                    mask[v] = 1
            return frozenset(current)
        finally:
            for v in current:
                mask[v] = 0

    def split(self, vertices: Set[Vertex], removed: Vertex) -> List[Set[Vertex]]:
        remaining = vertices - {removed}
        mask = self._mask
        for v in remaining:
            mask[v] = 1
        try:
            self._stamp += 1
            st = self._stamp
            seen = self._seen
            raw = self._raw
            meter = self.meter
            components: List[Set[Vertex]] = []
            scanned = 0
            for start in sorted(remaining, key=repr):
                if seen[start] == st:
                    continue
                seen[start] = st
                comp = {start}
                stack = [start]
                while stack:
                    v = stack.pop()
                    nbrs = raw[v]
                    scanned += len(nbrs)
                    for u in nbrs:
                        if mask[u] and seen[u] != st:
                            seen[u] = st
                            comp.add(u)
                            stack.append(u)
                components.append(comp)
            if meter is not None:
                meter.tick(scanned)
            return components
        finally:
            for v in remaining:
                mask[v] = 0

    def nbr_set(self, component: Set[Vertex]) -> Set[Vertex]:
        raw = self._raw
        meter = self.meter
        result: Set[Vertex] = set()
        scanned = 0
        for v in component:
            nbrs = raw[v]
            scanned += len(nbrs)
            for u in nbrs:
                if u not in component:
                    result.add(u)
        if meter is not None:
            meter.tick(scanned)
        return result

    def paths(
        self, start: Vertex, targets: Set[Vertex], forbidden: Set[Vertex]
    ) -> List[List[Vertex]]:
        if start in targets:
            return [[start]]
        raw = self._raw
        meter = self.meter
        parent: Dict[Vertex, Optional[Vertex]] = {start: None}
        found: List[Vertex] = []
        queue: deque = deque([start])
        scanned = 0
        while queue:
            v = queue.popleft()
            nbrs = raw[v]
            scanned += len(nbrs)
            for u in nbrs:
                if u in parent or u in forbidden:
                    continue
                parent[u] = v
                if u in targets:
                    found.append(u)
                    continue
                queue.append(u)
        if meter is not None:
            meter.tick(scanned)
        paths: List[List[Vertex]] = []
        for x in found:
            path = [x]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            path.reverse()
            paths.append(path)
        return paths


def _neighbors_via(
    ops,
    solution: VertexSolution,
    terminals: Sequence[Vertex],
) -> Iterator[VertexSolution]:
    """All supergraph neighbours of ``solution`` (Section 7 construction).

    ``ops`` supplies μ/split/neighbourhood/paths (object or kernel kit);
    every order-sensitive decision lives here, in backend-shared code,
    and is a pure function of the solution *value* — the property both
    the backend differential wall and snapshot restore rely on.
    """
    terminal_set = set(terminals)
    sol = set(solution)
    for v in sorted(sol - terminal_set, key=repr):
        components = ops.split(sol, v)
        if len(components) != 2:
            # claw-freeness + minimality guarantee exactly two; tolerate
            # degenerate inputs by skipping (validated elsewhere).
            continue
        for c_first, c_second in (components, components[::-1]):
            attach_candidates = ops.nbr_set(c_first) - {v}
            terms_first = [w for w in terminals if w in c_first]
            terms_second = [w for w in terminals if w in c_second]
            c2w = ops.minimalize(c_second, terms_second)
            c2w_neighborhood = ops.nbr_set(set(c2w))
            for w in sorted(attach_candidates, key=repr):
                c1w = ops.minimalize(c_first | {w}, terms_first + [w])
                # P is an N(C1^w)-N(C2^w) path: it starts at w, ends at a
                # vertex of C2^w ∪ N(C2^w), and its *internal* vertices
                # avoid a blocked region around C1^w (and v, per Lemma 41's
                # witness path, which never uses v).  Internal-only
                # avoidance falls out of the BFS stopping at the first
                # target hit, so forbidden targets are exempted — except
                # v, which must never enter the neighbour.
                #
                # Two avoidance regimes are tried, and for each, one
                # candidate per reachable target.  The strict regime is
                # the paper's (avoid N(C1^w) \ {w}); the loose one avoids
                # only C1^w \ {w} itself.  Both extensions exist because
                # Lemma 41's single-shortest-path iteration can stall when
                # the chosen path's endpoint is itself adjacent to C1^w
                # (see DESIGN.md §5): the extra supergraph arcs keep
                # soundness (everything is re-minimalized by μ) and
                # polynomial delay while restoring reachability, which the
                # test suite validates against brute force.
                targets = (set(c2w) | c2w_neighborhood) - {v}
                strict = (ops.nbr_set(set(c1w)) - {w}) | {v}
                loose = (set(c1w) - {w}) | {v}
                emitted: Set[Tuple[Vertex, ...]] = set()
                for blocked in (strict, loose):
                    for path in ops.paths(w, targets, (blocked - targets) | {v}):
                        key = tuple(path)
                        if key in emitted:
                            continue
                        emitted.add(key)
                        candidate = set(c1w) | set(c2w) | set(path)
                        yield ops.minimalize(candidate, terminals)


def _neighbors_of_solution(
    graph: Graph,
    solution: VertexSolution,
    terminals: Sequence[Vertex],
    meter=None,
) -> Iterator[VertexSolution]:
    """Object-backend neighbour generation (thin :func:`_neighbors_via` wrapper)."""
    return _neighbors_via(_ObjectOps(graph, meter), solution, terminals)


class InducedSteinerSearch:
    """Explicit-state BFS over the solution graph, one solution per call.

    The suspendable counterpart of
    :func:`enumerate_minimal_induced_steiner_subgraphs` (which now
    drains one of these): :meth:`advance` returns the next solution
    frozenset (original vertex labels) or ``None``; :meth:`state` /
    :meth:`restore` round-trip the BFS frontier through plain data so a
    stream can be frozen between solutions and resumed in O(state).

    The supergraph BFS expands the solution popped at the *previous*
    :meth:`advance` before popping the next one — exactly the work
    schedule of the old generator (expansion happened between yields),
    so meter-abort points are unchanged.  Neighbour generation is a
    pure function of each solution's value (see :func:`_neighbors_via`),
    which is what makes the re-built frozensets of a restored frontier
    stream-equivalent to the originals.

    ``phase``: 0 = root solution not computed, 1 = streaming, 2 = done.
    """

    def __init__(
        self,
        graph: Graph,
        terminals: Sequence[Vertex],
        meter=None,
        validate_claw_free: bool = True,
        backend: str = "object",
    ) -> None:
        from repro.core.backend import (
            check_backend,
            compile_undirected,
            map_query_vertices,
        )

        backend = check_backend(backend, kind="induced-steiner")
        self.backend = backend
        self.meter = meter
        self._validate = bool(validate_claw_free)
        self._input_terminals = list(terminals)
        self._labels: Optional[List[Vertex]] = None
        if backend == "fast":
            fg, index = compile_undirected(graph)
            work_terminals = map_query_vertices(index, self._input_terminals)
            self._g = fg
            self._labels = None if index is None else list(index)
            self._ops = _FastOps(fg, meter)
        else:
            work_terminals = self._input_terminals
            self._g = graph
            self._ops = _ObjectOps(graph, meter)
        terms = list(dict.fromkeys(work_terminals))
        if not terms:
            raise InvalidInstanceError("at least one terminal is required")
        for w in terms:
            if w not in self._g:
                raise InvalidInstanceError(f"terminal {w!r} is not in the graph")
        if self._validate:
            claw = find_claw(self._g)
            if claw is not None:
                raise ClawFreeViolation(claw[0], claw[1])
        self._terms = terms
        self._queue: deque = deque()
        self._visited: Set[VertexSolution] = set()
        self._expand: Optional[VertexSolution] = None
        self.phase = 0
        self.emitted = 0

    # ------------------------------------------------------------------
    def advance(self) -> Optional[VertexSolution]:
        """The next solution (original labels), or ``None`` at the end."""
        if self.phase == 0:
            self.phase = 1
            comp = component_of(self._g, self._terms[0], meter=self.meter)
            if all(w in comp for w in self._terms):
                first = self._ops.minimalize(set(comp), self._terms)
                self._visited = {first}
                self._queue = deque([first])
        if self.phase == 2:
            return None
        if self._expand is not None:
            current, self._expand = self._expand, None
            for neighbor in _neighbors_via(self._ops, current, self._terms):
                if neighbor not in self._visited:
                    self._visited.add(neighbor)
                    self._queue.append(neighbor)
        if not self._queue:
            self.phase = 2
            return None
        current = self._queue.popleft()
        self._expand = current
        self.emitted += 1
        if self._labels is None:
            return current
        labels = self._labels
        return frozenset(labels[v] for v in current)

    @property
    def frame_count(self) -> int:
        """BFS frontier size (header bookkeeping for inspection tools)."""
        return len(self._queue) + (1 if self._expand is not None else 0)

    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """Plain-data machine state (see :mod:`repro.core.suspend`).

        Solutions are serialized as ``repr``-sorted vertex tuples; the
        rebuilt frozensets stream identically because neighbour order
        never depends on set iteration order.
        """

        def pack(sol: VertexSolution) -> Tuple[Vertex, ...]:
            return tuple(sorted(sol, key=repr))

        return {
            "terminals": list(self._input_terminals),
            "backend": self.backend,
            "validate_claw_free": self._validate,
            "phase": self.phase,
            "emitted": self.emitted,
            "expand": None if self._expand is None else pack(self._expand),
            "queue": [pack(s) for s in self._queue],
            "visited": sorted((pack(s) for s in self._visited), key=repr),
        }

    @classmethod
    def restore(
        cls, graph: Graph, state: Dict[str, Any], meter=None
    ) -> "InducedSteinerSearch":
        """Rebuild a machine from :meth:`state` against the same graph."""
        machine = cls(
            graph,
            state["terminals"],
            meter=meter,
            validate_claw_free=state["validate_claw_free"],
            backend=state["backend"],
        )
        machine.phase = state["phase"]
        machine.emitted = state["emitted"]
        expand = state["expand"]
        machine._expand = None if expand is None else frozenset(expand)
        machine._queue = deque(frozenset(t) for t in state["queue"])
        machine._visited = {frozenset(t) for t in state["visited"]}
        return machine


def enumerate_minimal_induced_steiner_subgraphs(
    graph: Graph,
    terminals: Sequence[Vertex],
    meter=None,
    validate_claw_free: bool = True,
    backend: str = "object",
) -> Iterator[VertexSolution]:
    """Enumerate all minimal induced Steiner subgraphs of a claw-free graph.

    Polynomial delay (O(n²(n+m)) per Theorem 42), exponential space
    (visited-set BFS over the strongly connected solution graph).  Yields
    frozensets of vertices, each exactly once.  Drains an
    :class:`InducedSteinerSearch`; both backends stream identically.

    Parameters
    ----------
    validate_claw_free:
        When True (default) the input is checked and a
        :class:`ClawFreeViolation` raised if a claw is found.  Disable for
        large inputs that are claw-free by construction (e.g. Theorem 39
        line-graph instances).

    Examples
    --------
    >>> g = Graph.from_edges([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
    >>> sorted(sorted(map(str, s)) for s in
    ...        enumerate_minimal_induced_steiner_subgraphs(g, ["a", "d"]))
    [['a', 'c', 'd']]
    """
    search = InducedSteinerSearch(
        graph,
        terminals,
        meter=meter,
        validate_claw_free=validate_claw_free,
        backend=backend,
    )
    while True:
        solution = search.advance()
        if solution is None:
            return
        yield solution


def count_minimal_induced_steiner_subgraphs(
    graph: Graph, terminals: Sequence[Vertex]
) -> int:
    """Number of minimal induced Steiner subgraphs (convenience wrapper)."""
    return sum(
        1 for _ in enumerate_minimal_induced_steiner_subgraphs(graph, terminals)
    )


def steiner_trees_via_line_graph(
    graph: Graph, terminals: Sequence[Vertex], meter=None
) -> Iterator[FrozenSet[int]]:
    """Theorem 39: minimal Steiner trees through the induced enumerator.

    Builds the line-graph instance ``(H, W_H)``, enumerates minimal
    induced Steiner subgraphs of ``H`` and maps each solution's line-graph
    vertices back to an edge set of ``G``.  The paper proves connected
    Steiner subgraphs correspond; the minimal ones correspond to minimal
    Steiner trees.  Mainly a cross-validation device (used by tests and
    the T1-induced experiment).
    """
    from repro.graphs.linegraph import steiner_to_induced_instance

    instance = steiner_to_induced_instance(graph, terminals)
    for solution in enumerate_minimal_induced_steiner_subgraphs(
        instance.graph, instance.terminals, meter=meter, validate_claw_free=False
    ):
        yield frozenset(
            instance.edge_of_vertex[v] for v in solution if v in instance.edge_of_vertex
        )
