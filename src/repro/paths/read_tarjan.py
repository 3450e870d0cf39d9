"""Linear-delay *s*-*t* path enumeration (Algorithm 1 of the paper).

This module implements the Read–Tarjan-style enumeration revisited in
Section 3: ``E-STP``/``F-STP`` with the decremental reachability update of
Lemma 11 and the alternating-output rule (pre-order output at even depth,
post-order at odd depth) that yields O(n+m) delay (Theorem 12).

Structure of the algorithm
--------------------------
A node of the enumeration tree holds a directed ``s``-``s'`` prefix ``P``
(shared global state) and iterates over *sibling* paths
``Q^0, Q^1, ...`` from ``s'`` to ``t`` whose first arcs are strictly
increasing in the fixed arc order ``≺_{s'}``.  For each ``Q^j`` it outputs
``P ∘ Q^j`` and recurses on every *extendible* proper prefix ``Q^j_i``
(one whose removal of the next arc still leaves a ``v_i``-``t`` path).

* ``F-STP`` (:func:`_find_path`) finds the sibling path with the smallest
  allowed first arc in O(n+m): one backward reachability pass from ``t``
  and one forward DFS.
* The extendible prefixes of a sibling path are found in O(n+m) *total*
  by :func:`_extendible_indices`, the Lemma 11 sweep: compute reachability
  once for the longest prefix, then roll ``j`` down, re-inserting vertex
  ``v_j`` and re-allowing arc ``(v_{j+1}, v_{j+2})``, propagating
  reachability only along arcs that newly become useful (each arc is
  touched O(1) times per sweep).

The recursion is run on an explicit stack, so path-shaped graphs of any
size are handled without hitting Python's recursion limit.  The enumerator
can emit ``discover``/``examine``/``solution`` events for the output-queue
machinery; plain generators are thin wrappers.

Paths are reported as :class:`Path` records (vertex tuple + arc-id tuple);
on multigraphs, parallel arcs give distinct paths, which is exactly what
the Steiner-forest enumerator needs after contraction.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.enumeration.events import DISCOVER, EXAMINE, SOLUTION, Event
from repro.graphs.digraph import DiGraph
from repro.graphs.graph import Graph

Vertex = Hashable


class Path(NamedTuple):
    """A simple path: ``vertices[i] -> vertices[i+1]`` uses ``arcs[i]``.

    For undirected enumeration the ``arcs`` entries are *edge* ids of the
    input graph.  A trivial path (``s == t``) has one vertex and no arcs.
    """

    vertices: Tuple[Vertex, ...]
    arcs: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.arcs)


class _Frame:
    """One ``E-STP`` activation on the explicit stack."""

    __slots__ = (
        "source",
        "forbidden",
        "depth",
        "node_id",
        "q_arcs",
        "q_vertices",
        "ext",
        "pos",
        "added_vertices",
        "added_arcs",
    )

    def __init__(self, source, forbidden, depth, node_id, added_vertices, added_arcs):
        self.source = source
        self.forbidden = forbidden  # arc id that may not leave `source`
        self.depth = depth
        self.node_id = node_id
        self.q_arcs: List[int] = []
        self.q_vertices: List[Vertex] = []
        self.ext: List[int] = []
        self.pos = 0
        self.added_vertices = added_vertices  # blocked when frame was pushed
        self.added_arcs = added_arcs  # arcs appended to the global prefix

    def as_state(self) -> tuple:
        """Plain-data form for :class:`PathSearch` snapshots."""
        return (
            self.source,
            self.forbidden,
            self.depth,
            self.node_id,
            list(self.q_arcs),
            list(self.q_vertices),
            list(self.ext),
            self.pos,
            tuple(self.added_vertices),
            self.added_arcs,
        )

    @classmethod
    def from_state(cls, state: tuple) -> "_Frame":
        frame = cls(state[0], state[1], state[2], state[3], state[8], state[9])
        frame.q_arcs = list(state[4])
        frame.q_vertices = list(state[5])
        frame.ext = list(state[6])
        frame.pos = state[7]
        return frame


def _tick(meter, amount: int = 1) -> None:
    if meter is not None:
        meter.tick(amount)


def _find_path(
    digraph: DiGraph,
    source: Vertex,
    target: Vertex,
    blocked: Set[Vertex],
    forbidden: Optional[int],
    after_arc: Optional[int],
    meter=None,
) -> Optional[Tuple[List[int], List[Vertex]]]:
    """``F-STP``: the sibling path with the smallest allowed first arc.

    Finds a ``source``-``target`` path in ``D - blocked`` whose first arc
    is not ``forbidden`` and comes strictly after ``after_arc`` in the arc
    order of ``source``; among those, the path with the smallest first arc
    is returned (its continuation is an arbitrary simple path).  Returns
    ``(arc_ids, vertices)`` or ``None``.  O(n+m).
    """
    # Backward reachability of `target` avoiding blocked vertices and the
    # source itself (the source is an endpoint, never an internal vertex).
    reach: Set[Vertex] = {target}
    stack = [target]
    while stack:
        y = stack.pop()
        for aid, x in digraph.in_items(y):
            _tick(meter)
            if x in reach or x in blocked or x == source:
                continue
            reach.add(x)
            stack.append(x)

    # Scan the outgoing arcs of `source` in the fixed order.
    started = after_arc is None
    chosen: Optional[Tuple[int, Vertex]] = None
    for aid, head in digraph.out_items(source):
        _tick(meter)
        if not started:
            if aid == after_arc:
                started = True
            continue
        if aid == forbidden:
            continue
        if head in reach:
            chosen = (aid, head)
            break
    if chosen is None:
        return None
    first_aid, first_head = chosen
    if first_head == target:
        return ([first_aid], [source, target])

    # Forward DFS from the chosen head, restricted to `reach`; every vertex
    # of `reach` can reach `target` there, so the DFS must arrive.
    parent_arc = {first_head: None}
    parent = {first_head: None}
    stack = [first_head]
    while stack:
        v = stack.pop()
        if v == target:
            break
        for aid, w in digraph.out_items(v):
            _tick(meter)
            if w in parent or w not in reach:
                continue
            parent[w] = v
            parent_arc[w] = aid
            stack.append(w)
    # Reconstruct target -> first_head.
    arcs: List[int] = []
    vertices: List[Vertex] = [target]
    v = target
    while parent[v] is not None:
        arcs.append(parent_arc[v])
        v = parent[v]
        vertices.append(v)
    arcs.append(first_aid)
    vertices.append(source)
    arcs.reverse()
    vertices.reverse()
    return (arcs, vertices)


def _extendible_indices(
    digraph: DiGraph,
    blocked: Set[Vertex],
    q_arcs: Sequence[int],
    q_vertices: Sequence[Vertex],
    target: Vertex,
    meter=None,
) -> List[int]:
    """Lemma 11 sweep: all ``i`` (descending) such that ``Q_i`` is extendible.

    ``Q_i`` (1-indexed vertices ``v_1..v_i``) is extendible iff
    ``D[V \\ (V(P ∘ Q_i) \\ {v_i})] - (v_i, v_{i+1})`` still has a
    ``v_i``-``target`` path.  The whole sweep costs O(n+m): reachability is
    monotone as ``i`` decreases, so each vertex flips to reachable at most
    once and each arc is examined O(1) times.
    """
    k = len(q_vertices)
    if k <= 2:
        return []

    removed = set(blocked)
    removed.update(q_vertices[: k - 2])  # v_1 .. v_{k-2}
    excluded = q_arcs[k - 2]  # arc (v_{k-1}, v_k)

    # Full backward pass for j = k-1.
    reach: Set[Vertex] = {target}
    stack = [target]
    while stack:
        y = stack.pop()
        for aid, x in digraph.in_items(y):
            _tick(meter)
            if aid == excluded or x in reach or x in removed:
                continue
            reach.add(x)
            stack.append(x)

    ext: List[int] = []
    if q_vertices[k - 2] in reach:  # v_{k-1}
        ext.append(k - 1)

    # Roll j from k-2 down to 2, maintaining `reach` decrementally.
    for j in range(k - 2, 1, -1):
        vj = q_vertices[j - 1]
        removed.discard(vj)
        excluded = q_arcs[j - 1]  # arc (v_j, v_{j+1}) is now the cut arc

        frontier: List[Tuple[Vertex, Vertex]] = []
        # Newly available arcs out of v_j (except the cut arc).
        if vj not in reach:
            for aid, head in digraph.out_items(vj):
                _tick(meter)
                if aid == excluded or head in removed:
                    continue
                if head in reach:
                    frontier.append((vj, head))
                    break
        # The arc (v_{j+1}, v_{j+2}) that was cut at step j+1 is re-allowed.
        prev_cut = q_arcs[j]
        tail, head = digraph.arc_endpoints(prev_cut)
        _tick(meter)
        if tail not in reach and tail not in removed and head in reach:
            frontier.append((tail, head))

        while frontier:
            x, _y = frontier.pop()
            if x in reach:
                continue
            reach.add(x)
            for aid, z in digraph.in_items(x):
                _tick(meter)
                if aid == excluded or z in reach or z in removed:
                    continue
                frontier.append((z, x))

        if vj in reach:
            ext.append(j)
    return ext


class PathSearch:
    """Algorithm 1 as an explicit-state machine (the suspendable core).

    One :meth:`advance` call returns the next traversal event
    (``discover`` / ``solution`` / ``examine``), or ``None`` once the
    enumeration is exhausted.  Between two ``advance`` calls the entire
    search state is plain data — the frame stack, the shared prefix, the
    blocked set (derivable from the frames) and a queue of events already
    produced but not yet delivered — so :meth:`state` can serialize it
    and :meth:`restore` can rebuild the machine mid-enumeration with a
    byte-identical remaining stream (see :mod:`repro.core.suspend`).

    The generator wrappers below (:func:`_enumerate_events` and the
    public API) all drain one of these machines.
    """

    __slots__ = (
        "digraph",
        "source",
        "target",
        "meter",
        "blocked",
        "prefix_arcs",
        "prefix_vertices",
        "node_counter",
        "stack",
        "pending",
        "phase",
    )

    def __init__(
        self, digraph: DiGraph, source: Vertex, target: Vertex, meter=None
    ) -> None:
        self.digraph = digraph
        self.source = source
        self.target = target
        self.meter = meter
        self.blocked: Set[Vertex] = set()
        self.prefix_arcs: List[int] = []
        self.prefix_vertices: List[Vertex] = []
        self.node_counter = 0
        self.stack: List[_Frame] = []
        self.pending: deque = deque()
        self.phase = 0  # 0 = not started, 1 = running, 2 = exhausted

    # ------------------------------------------------------------------
    def advance(self) -> Optional[Event]:
        """The next traversal event, or ``None`` when exhausted."""
        while True:
            if self.pending:
                return self.pending.popleft()
            if self.phase == 2:
                return None
            if self.phase == 0:
                self._start()
            else:
                self._step()

    def _emit_solution(self, frame: _Frame) -> None:
        self.pending.append(
            (
                SOLUTION,
                Path(
                    tuple(self.prefix_vertices[:-1]) + tuple(frame.q_vertices),
                    tuple(self.prefix_arcs) + tuple(frame.q_arcs),
                ),
            )
        )

    def _start(self) -> None:
        self.phase = 1
        digraph, source, target = self.digraph, self.source, self.target
        if source not in digraph or target not in digraph:
            self.phase = 2
            return
        if source == target:
            self.pending.append((DISCOVER, 0, 0))
            self.pending.append((SOLUTION, Path((source,), ())))
            self.pending.append((EXAMINE, 0, 0))
            self.phase = 2
            return
        self.prefix_vertices = [source]
        root = _Frame(source, None, 0, self.node_counter, (), 0)
        found = _find_path(
            digraph, source, target, self.blocked, None, None, self.meter
        )
        if found is None:
            self.phase = 2
            return
        self.pending.append((DISCOVER, root.node_id, 0))
        root.q_arcs, root.q_vertices = found
        root.ext = _extendible_indices(
            digraph, self.blocked, root.q_arcs, root.q_vertices, target, self.meter
        )
        root.pos = 0
        if root.depth % 2 == 0:
            self._emit_solution(root)
        self.stack.append(root)

    def _step(self) -> None:
        """One enumeration-tree traversal step (the old loop body)."""
        if not self.stack:
            self.phase = 2
            return
        digraph, target, meter = self.digraph, self.target, self.meter
        blocked = self.blocked
        frame = self.stack[-1]
        if frame.pos < len(frame.ext):
            i = frame.ext[frame.pos]
            frame.pos += 1
            # Child: prefix grows by Q_i = (v_1 .. v_i); new source v_i;
            # the arc (v_i, v_{i+1}) becomes forbidden.
            added = tuple(frame.q_vertices[: i - 1])
            for v in added:
                blocked.add(v)
            self.prefix_arcs.extend(frame.q_arcs[: i - 1])
            self.prefix_vertices.extend(frame.q_vertices[1:i])
            self.node_counter += 1
            child = _Frame(
                frame.q_vertices[i - 1],
                frame.q_arcs[i - 1],
                frame.depth + 1,
                self.node_counter,
                added,
                i - 1,
            )
            found = _find_path(
                digraph, child.source, target, blocked, child.forbidden, None, meter
            )
            if found is None:  # pragma: no cover - excluded by extendibility
                for v in added:
                    blocked.discard(v)
                del self.prefix_arcs[len(self.prefix_arcs) - child.added_arcs :]
                del self.prefix_vertices[
                    len(self.prefix_vertices) - child.added_arcs :
                ]
                return
            self.pending.append((DISCOVER, child.node_id, child.depth))
            child.q_arcs, child.q_vertices = found
            child.ext = _extendible_indices(
                digraph, blocked, child.q_arcs, child.q_vertices, target, meter
            )
            child.pos = 0
            self.stack.append(child)
            if child.depth % 2 == 0:
                self._emit_solution(child)
            return

        # All children of the current sibling path processed.
        if frame.depth % 2 == 1:
            self._emit_solution(frame)
        found = _find_path(
            digraph,
            frame.source,
            target,
            blocked,
            frame.forbidden,
            frame.q_arcs[0],
            meter,
        )
        if found is not None:
            frame.q_arcs, frame.q_vertices = found
            frame.ext = _extendible_indices(
                digraph, blocked, frame.q_arcs, frame.q_vertices, target, meter
            )
            frame.pos = 0
            if frame.depth % 2 == 0:
                self._emit_solution(frame)
            return

        self.pending.append((EXAMINE, frame.node_id, frame.depth))
        self.stack.pop()
        for v in frame.added_vertices:
            blocked.discard(v)
        if frame.added_arcs:
            del self.prefix_arcs[len(self.prefix_arcs) - frame.added_arcs :]
            del self.prefix_vertices[len(self.prefix_vertices) - frame.added_arcs :]

    # ------------------------------------------------------------------
    # snapshot plumbing
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, Any]:
        """Plain-data search state (``blocked`` is derived, not stored)."""
        return {
            "source": self.source,
            "target": self.target,
            "prefix_arcs": list(self.prefix_arcs),
            "prefix_vertices": list(self.prefix_vertices),
            "node_counter": self.node_counter,
            "stack": [frame.as_state() for frame in self.stack],
            "pending": list(self.pending),
            "phase": self.phase,
        }

    @classmethod
    def restore(
        cls, digraph: DiGraph, state: Dict[str, Any], meter=None
    ) -> "PathSearch":
        """Rebuild a machine over ``digraph`` from a :meth:`state` dict.

        ``digraph`` must be (a deterministic reconstruction of) the
        digraph the state was captured on; the enumerator-level
        snapshots guarantee that via the instance fingerprint.
        """
        machine = cls(digraph, state["source"], state["target"], meter)
        machine.prefix_arcs = list(state["prefix_arcs"])
        machine.prefix_vertices = list(state["prefix_vertices"])
        machine.node_counter = state["node_counter"]
        machine.stack = [_Frame.from_state(f) for f in state["stack"]]
        for frame in machine.stack:
            machine.blocked.update(frame.added_vertices)
        machine.pending = deque(state["pending"])
        machine.phase = state["phase"]
        return machine


def _enumerate_events(
    digraph: DiGraph, source: Vertex, target: Vertex, meter=None
) -> Iterator[Event]:
    """Run Algorithm 1 on an explicit stack, emitting traversal events."""
    machine = PathSearch(digraph, source, target, meter)
    while True:
        event = machine.advance()
        if event is None:
            return
        yield event


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------
def st_path_events(
    digraph: DiGraph, source: Vertex, target: Vertex, meter=None
) -> Iterator[Event]:
    """Event stream of the directed path enumeration (for the regulator)."""
    return _enumerate_events(digraph, source, target, meter)


def enumerate_st_paths(
    digraph: DiGraph, source: Vertex, target: Vertex, meter=None
) -> Iterator[Path]:
    """Enumerate all simple directed ``source``-``target`` paths.

    O(n+m) delay, O(n+m) space (Theorem 12).  Each path appears exactly
    once; on multigraphs parallel arcs yield distinct paths.

    Examples
    --------
    >>> d = DiGraph.from_arcs([("s", "a"), ("a", "t"), ("s", "t")])
    >>> sorted(p.vertices for p in enumerate_st_paths(d, "s", "t"))
    [('s', 'a', 't'), ('s', 't')]
    """
    for event in _enumerate_events(digraph, source, target, meter):
        if event[0] == SOLUTION:
            yield event[1]


def _undirected_path(path: Path) -> Path:
    """Map a path in ``G.to_directed()`` back to undirected edge ids."""
    return Path(path.vertices, tuple(a // 2 for a in path.arcs))


def enumerate_st_paths_undirected(
    graph: Graph, source: Vertex, target: Vertex, meter=None, backend: str = "object"
) -> Iterator[Path]:
    """Enumerate all simple ``source``-``target`` paths of an undirected
    graph in O(n+m) delay.

    The paper's reduction: replace each edge by two opposite arcs; each
    undirected path then corresponds to exactly one directed path.  The
    reported ``arcs`` are *edge* ids of ``graph``.  ``backend="fast"``
    runs the kernel enumerator (:mod:`repro.paths.fastpaths`): the same
    stream on integer-compact instances, the same path set otherwise
    (see :mod:`repro.core.backend`).
    """
    from repro.graphs.fastgraph import check_backend

    if check_backend(backend, kind="st-path") == "fast":
        from repro.graphs.fastgraph import compile_undirected
        from repro.paths.fastpaths import fast_enumerate_st_paths_undirected

        fg, index = compile_undirected(graph)
        if index is None:
            yield from fast_enumerate_st_paths_undirected(fg, source, target, meter)
            return
        labels = list(index)
        s = index.get(source)
        t = index.get(target)
        if s is None or t is None:
            return
        for path in fast_enumerate_st_paths_undirected(fg, s, t, meter):
            yield Path(tuple(labels[v] for v in path.vertices), path.arcs)
        return
    directed = graph.to_directed()
    for path in enumerate_st_paths(directed, source, target, meter):
        yield _undirected_path(path)


class _SuperSource:
    """Sentinel super-source used by the S-T set-path reduction.

    All instances compare equal: a suspended search state that mentions
    the super endpoints round-trips through serialization and still
    matches the sentinels of a freshly rebuilt auxiliary digraph.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<S*>"

    def __eq__(self, other) -> bool:
        return isinstance(other, _SuperSource)

    def __hash__(self) -> int:
        return hash(_SuperSource)


class _SuperTarget:
    """Sentinel super-target used by the S-T set-path reduction."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<T*>"

    def __eq__(self, other) -> bool:
        return isinstance(other, _SuperTarget)

    def __hash__(self) -> int:
        return hash(_SuperTarget)


def build_set_path_digraph(
    graph: Graph, sources: Iterable[Vertex], targets: Iterable[Vertex]
) -> Tuple[DiGraph, Vertex, Vertex]:
    """Auxiliary digraph for ``S``-``T`` path enumeration (end of §3).

    Each undirected edge ``e`` becomes arcs ``2e``/``2e+1``, except arcs
    *into* ``S`` and *out of* ``T`` which are dropped so that vertices of
    ``S ∪ T`` can only appear as path endpoints.  A super source points to
    all of ``S``; all of ``T`` point to a super target.  Returns
    ``(digraph, super_source, super_target)``; auxiliary arcs have ids
    ``≥ 2 * (max edge id + 1)``.
    """
    # Ordered dedup: the auxiliary arcs out of the super source (and the
    # scan order they induce) follow the *caller's* source/target order,
    # making the path stream a pure function of the handed-in sequences —
    # the kernel backend mirrors this, which is what keeps the two
    # backends' streams byte-identical on non-integer labels.
    source_list = list(dict.fromkeys(sources))
    target_list = list(dict.fromkeys(targets))
    source_set = set(source_list)
    target_set = set(target_list)
    if source_set & target_set:
        raise ValueError("S and T must be disjoint")
    d = DiGraph()
    for v in graph.vertices():
        d.add_vertex(v)
    max_eid = -1
    for edge in graph.edges():
        max_eid = max(max_eid, edge.eid)
        u, v = edge.u, edge.v
        if v not in source_set and u not in target_set:
            d.add_arc(u, v, aid=2 * edge.eid)
        if u not in source_set and v not in target_set:
            d.add_arc(v, u, aid=2 * edge.eid + 1)
    s_star, t_star = _SuperSource(), _SuperTarget()
    d.add_vertex(s_star)
    d.add_vertex(t_star)
    aux = 2 * (max_eid + 1)
    for v in source_list:
        d.add_arc(s_star, v, aid=aux)
        aux += 1
    for v in target_list:
        d.add_arc(v, t_star, aid=aux)
        aux += 1
    return d, s_star, t_star


def set_path_events(
    graph: Graph,
    sources: Iterable[Vertex],
    targets: Iterable[Vertex],
    meter=None,
) -> Iterator[Event]:
    """Event stream of undirected ``S``-``T`` path enumeration.

    Solutions are :class:`Path` records over the *original* graph: the
    super endpoints are stripped and arc ids mapped back to edge ids.
    """
    digraph, s_star, t_star = build_set_path_digraph(graph, sources, targets)
    for event in _enumerate_events(digraph, s_star, t_star, meter):
        if event[0] == SOLUTION:
            path = event[1]
            yield (
                SOLUTION,
                Path(path.vertices[1:-1], tuple(a // 2 for a in path.arcs[1:-1])),
            )
        else:
            yield event


def enumerate_set_paths(
    graph: Graph,
    sources: Iterable[Vertex],
    targets: Iterable[Vertex],
    meter=None,
    backend: str = "object",
) -> Iterator[Path]:
    """Enumerate all ``S``-``T`` paths of an undirected graph.

    An ``S``-``T`` path starts in ``S``, ends in ``T`` and has no internal
    vertex in ``S ∪ T`` — exactly the "valid path" notion the Steiner
    enumerators branch on.  O(n+m) delay.  ``backend="fast"`` runs the
    kernel enumerator.
    """
    from repro.graphs.fastgraph import check_backend

    if check_backend(backend, kind="set-path") == "fast":
        from repro.graphs.fastgraph import compile_undirected
        from repro.paths.fastpaths import fast_enumerate_set_paths

        fg, index = compile_undirected(graph)
        if index is None:
            yield from fast_enumerate_set_paths(fg, sources, targets, meter)
            return
        labels = list(index)
        src = [index[v] for v in sources if v in index]
        tgt = [index[v] for v in targets if v in index]
        for path in fast_enumerate_set_paths(fg, src, tgt, meter):
            yield Path(tuple(labels[v] for v in path.vertices), path.arcs)
        return
    for event in set_path_events(graph, sources, targets, meter):
        if event[0] == SOLUTION:
            yield event[1]


class SetPathSearch:
    """Suspendable undirected ``S``-``T`` path enumeration (object backend).

    The machine form of :func:`enumerate_set_paths`: :meth:`next_path`
    returns one path at a time, and :meth:`state` / :meth:`restore`
    freeze / thaw the search mid-enumeration.  The auxiliary digraph is
    *not* part of the state — it is rebuilt deterministically from the
    stored source/target orderings and the (fingerprint-bound) graph.
    """

    __slots__ = ("sources", "targets", "machine")

    def __init__(
        self,
        graph: Graph,
        sources: Iterable[Vertex],
        targets: Iterable[Vertex],
        meter=None,
    ) -> None:
        self.sources = tuple(sources)
        self.targets = tuple(targets)
        digraph, s_star, t_star = build_set_path_digraph(
            graph, self.sources, self.targets
        )
        self.machine = PathSearch(digraph, s_star, t_star, meter)

    def next_path(self) -> Optional[Path]:
        """The next ``S``-``T`` path, or ``None`` when exhausted."""
        while True:
            event = self.machine.advance()
            if event is None:
                return None
            if event[0] == SOLUTION:
                path = event[1]
                return Path(
                    path.vertices[1:-1], tuple(a // 2 for a in path.arcs[1:-1])
                )

    def state(self) -> Dict[str, Any]:
        """Plain-data state: source/target orderings + machine state."""
        return {
            "sources": self.sources,
            "targets": self.targets,
            "machine": self.machine.state(),
        }

    @classmethod
    def restore(
        cls, graph: Graph, state: Dict[str, Any], meter=None
    ) -> "SetPathSearch":
        """Rebuild the search over ``graph`` from a :meth:`state` dict."""
        search = cls.__new__(cls)
        search.sources = tuple(state["sources"])
        search.targets = tuple(state["targets"])
        digraph, _s_star, _t_star = build_set_path_digraph(
            graph, search.sources, search.targets
        )
        search.machine = PathSearch.restore(digraph, state["machine"], meter)
        return search


class StPathSearch:
    """Suspendable plain ``s``-``t`` path enumeration (object backend).

    Machine form of :func:`enumerate_st_paths_undirected` (the paper's
    two-arcs-per-edge reduction); reported arcs are edge ids.
    """

    __slots__ = ("source", "target", "machine")

    def __init__(self, graph: Graph, source: Vertex, target: Vertex, meter=None):
        self.source = source
        self.target = target
        self.machine = PathSearch(graph.to_directed(), source, target, meter)

    def next_path(self) -> Optional[Path]:
        """The next simple path, or ``None`` when exhausted."""
        while True:
            event = self.machine.advance()
            if event is None:
                return None
            if event[0] == SOLUTION:
                return _undirected_path(event[1])

    def state(self) -> Dict[str, Any]:
        """Plain-data state (the directed view is rebuilt on restore)."""
        return {
            "source": self.source,
            "target": self.target,
            "machine": self.machine.state(),
        }

    @classmethod
    def restore(
        cls, graph: Graph, state: Dict[str, Any], meter=None
    ) -> "StPathSearch":
        """Rebuild the search over ``graph`` from a :meth:`state` dict."""
        search = cls.__new__(cls)
        search.source = state["source"]
        search.target = state["target"]
        search.machine = PathSearch.restore(
            graph.to_directed(), state["machine"], meter
        )
        return search


def build_set_path_digraph_directed(
    digraph: DiGraph, sources: Iterable[Vertex], targets: Iterable[Vertex]
) -> Tuple[DiGraph, Vertex, Vertex]:
    """Directed variant of :func:`build_set_path_digraph`.

    Arcs into ``S`` and out of ``T`` are dropped; original arc ids are
    preserved; auxiliary arcs get fresh ids above the maximum.
    """
    # Ordered dedup, for the same reason as the undirected builder: the
    # stream must be a pure function of the caller's source/target order.
    source_list = list(dict.fromkeys(sources))
    target_list = list(dict.fromkeys(targets))
    source_set = set(source_list)
    target_set = set(target_list)
    if source_set & target_set:
        raise ValueError("S and T must be disjoint")
    d = DiGraph()
    for v in digraph.vertices():
        d.add_vertex(v)
    max_aid = -1
    for arc in digraph.arcs():
        max_aid = max(max_aid, arc.aid)
        if arc.head not in source_set and arc.tail not in target_set:
            d.add_arc(arc.tail, arc.head, aid=arc.aid)
    s_star, t_star = _SuperSource(), _SuperTarget()
    d.add_vertex(s_star)
    d.add_vertex(t_star)
    aux = max_aid + 1
    for v in source_list:
        d.add_arc(s_star, v, aid=aux)
        aux += 1
    for v in target_list:
        d.add_arc(v, t_star, aid=aux)
        aux += 1
    return d, s_star, t_star


class SetPathSearchDirected:
    """Suspendable directed ``S``-``T`` path enumeration (object backend).

    Machine form of :func:`enumerate_set_paths_directed`: paths are over
    the original digraph (super endpoints stripped, original arc ids
    preserved).  Like :class:`SetPathSearch`, the auxiliary digraph is
    rebuilt deterministically from the stored source/target orderings on
    restore, never serialized.
    """

    __slots__ = ("sources", "targets", "machine")

    def __init__(
        self,
        digraph: DiGraph,
        sources: Iterable[Vertex],
        targets: Iterable[Vertex],
        meter=None,
    ) -> None:
        self.sources = tuple(sources)
        self.targets = tuple(targets)
        aux, s_star, t_star = build_set_path_digraph_directed(
            digraph, self.sources, self.targets
        )
        self.machine = PathSearch(aux, s_star, t_star, meter)

    def next_path(self) -> Optional[Path]:
        """The next directed ``S``-``T`` path, or ``None`` when exhausted."""
        while True:
            event = self.machine.advance()
            if event is None:
                return None
            if event[0] == SOLUTION:
                path = event[1]
                return Path(path.vertices[1:-1], path.arcs[1:-1])

    def state(self) -> Dict[str, Any]:
        """Plain-data state: source/target orderings + machine state."""
        return {
            "sources": self.sources,
            "targets": self.targets,
            "machine": self.machine.state(),
        }

    @classmethod
    def restore(
        cls, digraph: DiGraph, state: Dict[str, Any], meter=None
    ) -> "SetPathSearchDirected":
        """Rebuild the search over ``digraph`` from a :meth:`state` dict."""
        search = cls.__new__(cls)
        search.sources = tuple(state["sources"])
        search.targets = tuple(state["targets"])
        aux, _s_star, _t_star = build_set_path_digraph_directed(
            digraph, search.sources, search.targets
        )
        search.machine = PathSearch.restore(aux, state["machine"], meter)
        return search


def enumerate_set_paths_directed(
    digraph: DiGraph,
    sources: Iterable[Vertex],
    targets: Iterable[Vertex],
    meter=None,
    backend: str = "object",
) -> Iterator[Path]:
    """Enumerate directed ``S``-``T`` paths (original arc ids reported).

    ``backend="fast"`` runs the kernel enumerator.
    """
    from repro.graphs.fastgraph import check_backend

    if check_backend(backend, kind="set-path-directed") == "fast":
        from repro.graphs.fastgraph import compile_directed
        from repro.paths.fastpaths import fast_enumerate_set_paths_directed

        fd, index = compile_directed(digraph)
        if index is None:
            yield from fast_enumerate_set_paths_directed(fd, sources, targets, meter)
            return
        labels = list(index)
        src = [index[v] for v in sources if v in index]
        tgt = [index[v] for v in targets if v in index]
        for path in fast_enumerate_set_paths_directed(fd, src, tgt, meter):
            yield Path(tuple(labels[v] for v in path.vertices), path.arcs)
        return
    for event in set_path_events_directed(digraph, sources, targets, meter):
        if event[0] == SOLUTION:
            yield event[1]


def set_path_events_directed(
    digraph: DiGraph,
    sources: Iterable[Vertex],
    targets: Iterable[Vertex],
    meter=None,
) -> Iterator[Event]:
    """Event stream of directed ``S``-``T`` path enumeration."""
    aux, s_star, t_star = build_set_path_digraph_directed(digraph, sources, targets)
    for event in _enumerate_events(aux, s_star, t_star, meter):
        if event[0] == SOLUTION:
            path = event[1]
            yield (SOLUTION, Path(path.vertices[1:-1], path.arcs[1:-1]))
        else:
            yield event
