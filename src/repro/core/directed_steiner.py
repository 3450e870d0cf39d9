"""Minimal directed Steiner tree enumeration (Section 5.2, Thms 34/36).

A partial solution is a directed tree ``T`` rooted at ``r`` whose leaves
are all terminals; branching attaches a directed ``V(T)``-``w`` path for
an uncovered terminal ``w`` (arcs into ``V(T)`` are unusable, handled by
the S-T reduction of Section 3).

The improved node test is Lemma 35.  In the contracted graph
``D' = D / E(T)`` (partial tree collapsed into the root ``r_T``):

1. run one DFS from ``r_T``, recording the DFS tree ``T''`` and the
   post-order ``≺``;
2. prune ``T''`` to ``T*``, the unique minimal directed Steiner tree of
   ``(D', W', r_T)`` inside it;
3. search for a *certificate*: vertices ``u ≺ v`` of ``T*`` with a
   directed ``v``-``u`` path in ``D' - E(T*)``.  Processing candidates in
   descending post-order and deleting each search's reached region keeps
   this linear (the paper's transitivity argument).

No certificate ⟹ ``T ∪ T*`` is the unique minimal directed Steiner tree
containing ``T`` (leaf).  A certificate at ``u`` ⟹ any terminal in
``T*`` at or below ``u`` has ≥ 2 valid paths (the rerouting in Lemma 35's
proof changes the arc entering ``u`` on that terminal's root path), so we
branch on it and the node has ≥ 2 children.

Solutions are frozensets of arc ids; amortized O(n+m) per solution,
O(n+m) delay with the output-queue regulator (Theorem 36).
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

from repro.core.backend import (
    check_backend,
    compile_directed,
    map_query_vertex,
    map_query_vertices,
)
from repro.enumeration.events import DISCOVER, EXAMINE, SOLUTION, Event
from repro.enumeration.queue_method import regulate
from repro.exceptions import InvalidInstanceError
from repro.graphs.contraction import contract_vertex_set_directed
from repro.graphs.digraph import DiGraph
from repro.graphs.fastgraph import FastDiGraph, contracted_kernel_directed
from repro.graphs.traversal import reachable_from
from repro.paths.fastpaths import FastPathSearch, fast_set_path_search_directed
from repro.paths.read_tarjan import SetPathSearchDirected

Vertex = Hashable
Solution = FrozenSet[int]


def _validate(
    digraph: DiGraph, terminals: Sequence[Vertex], root: Vertex
) -> List[Vertex]:
    if root not in digraph:
        raise InvalidInstanceError(f"root {root!r} is not in the graph")
    seen: Set[Vertex] = set()
    ordered: List[Vertex] = []
    for w in terminals:
        if w not in digraph:
            raise InvalidInstanceError(f"terminal {w!r} is not in the graph")
        if w == root:
            raise InvalidInstanceError("the root may not be a terminal")
        if w not in seen:
            seen.add(w)
            ordered.append(w)
    if not ordered:
        raise InvalidInstanceError("at least one terminal is required")
    return ordered


def _dfs_tree_and_postorder(
    digraph: DiGraph, root: Vertex, meter=None
) -> Tuple[Dict[Vertex, Optional[int]], List[Vertex]]:
    """One DFS from ``root``: parent-arc map and post-order, consistently."""
    parent_arc: Dict[Vertex, Optional[int]] = {root: None}
    postorder: List[Vertex] = []
    if isinstance(digraph, FastDiGraph):
        # Kernel fast path: the raw per-vertex arc-id lists keep the
        # exact ≺_v order of out_items, so the DFS — and every decision
        # downstream of its post-order — is unchanged.  Every reached
        # vertex's list is drained before its frame pops, so the batched
        # tick charges the same arc total as the per-arc ticks.
        out_rows = digraph._out
        ah = digraph._ah
        row = out_rows[root]
        if meter is not None:
            meter.tick(len(row))
        fstack: List[list] = [[root, row, 0]]
        while fstack:
            frame = fstack[-1]
            v, lst, i = frame
            advanced = False
            limit = len(lst)
            while i < limit:
                aid = lst[i]
                i += 1
                head = ah[aid]
                if head not in parent_arc:
                    frame[2] = i
                    parent_arc[head] = aid
                    row = out_rows[head]
                    if meter is not None:
                        meter.tick(len(row))
                    fstack.append([head, row, 0])
                    advanced = True
                    break
            if not advanced:
                postorder.append(v)
                fstack.pop()
        return parent_arc, postorder
    stack: List[Tuple[Vertex, Iterator]] = [(root, iter(digraph.out_items(root)))]
    while stack:
        v, it = stack[-1]
        advanced = False
        for aid, head in it:
            if meter is not None:
                meter.tick()
            if head not in parent_arc:
                parent_arc[head] = aid
                stack.append((head, iter(digraph.out_items(head))))
                advanced = True
                break
        if not advanced:
            postorder.append(v)
            stack.pop()
    return parent_arc, postorder


def _prune_to_tstar(
    dprime: DiGraph,
    parent_arc: Dict[Vertex, Optional[int]],
    root: Vertex,
    uncovered: Set[Vertex],
) -> Tuple[Set[int], Set[Vertex], Dict[Vertex, List[Vertex]]]:
    """Prune the DFS tree to ``T*`` (leaves = uncovered terminals).

    Returns ``(arc set, vertex set, children map)`` of ``T*``.
    """
    at = dprime._at if isinstance(dprime, FastDiGraph) else None
    children: Dict[Vertex, List[Vertex]] = {}
    for v, aid in parent_arc.items():
        if aid is None:
            continue
        tail = at[aid] if at is not None else dprime.arc_endpoints(aid)[0]
        children.setdefault(tail, []).append(v)
    # Keep exactly the vertices with an uncovered terminal in their subtree.
    keep: Set[Vertex] = set()

    def mark_needed() -> None:
        # iterative post-order marking
        order: List[Vertex] = []
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(children.get(v, ()))
        for v in reversed(order):
            if v in uncovered or any(c in keep for c in children.get(v, ())):
                keep.add(v)

    mark_needed()
    keep.add(root)
    tstar_arcs: Set[int] = set()
    tstar_children: Dict[Vertex, List[Vertex]] = {}
    # iterate in DFS discovery order (parent_arc is insertion-ordered) so
    # child lists — and hence the branch-terminal choice — are
    # deterministic across interpreter runs
    for v in parent_arc:
        if v not in keep:
            continue
        aid = parent_arc[v]
        if aid is None:
            continue
        tail = at[aid] if at is not None else dprime.arc_endpoints(aid)[0]
        if tail in keep:
            tstar_arcs.add(aid)
            tstar_children.setdefault(tail, []).append(v)
    return tstar_arcs, keep, tstar_children


def _second_solution_certificate(
    dprime: DiGraph,
    tstar_arcs: Set[int],
    tstar_vertices: Set[Vertex],
    postorder_pos: Dict[Vertex, int],
    meter=None,
) -> Optional[Vertex]:
    """Lemma 35 check: find ``u`` with ``u ≺ v`` and a ``v``-``u`` path in
    ``D' - E(T*)`` for some ``v ∈ T*``; return ``u`` or ``None``.

    Candidates are processed in descending post-order; each search's
    reached region is deleted afterwards, so every arc is scanned O(1)
    times and the whole check is O(n+m).
    """
    fast = isinstance(dprime, FastDiGraph)
    if fast:
        out_rows = dprime._out
        ah = dprime._ah
    removed: Set[Vertex] = set()
    for v in sorted(tstar_vertices, key=postorder_pos.__getitem__, reverse=True):
        if v in removed:
            continue
        seen = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            if fast:
                # Kernel fast path: same scan order as out_items, ticks
                # batched per scanned vertex.
                row = out_rows[x]
                if meter is not None:
                    meter.tick(len(row))
                for aid in row:
                    y = ah[aid]
                    if aid in tstar_arcs or y in removed or y in seen:
                        continue
                    if y in tstar_vertices:
                        # all larger T* vertices are already removed, so y ≺ v
                        return y
                    seen.add(y)
                    stack.append(y)
                continue
            for aid, y in dprime.out_items(x):
                if meter is not None:
                    meter.tick()
                if aid in tstar_arcs or y in removed or y in seen:
                    continue
                if y in tstar_vertices:
                    # all larger T* vertices are already removed, so y ≺ v
                    return y
                seen.add(y)
                stack.append(y)
        removed |= seen
    return None


def _terminal_below(
    start: Vertex, tstar_children: Dict[Vertex, List[Vertex]], uncovered: Set[Vertex]
) -> Vertex:
    """An uncovered terminal in the ``T*`` subtree rooted at ``start``."""
    stack = [start]
    while stack:
        v = stack.pop()
        if v in uncovered:
            return v
        stack.extend(tstar_children.get(v, ()))
    raise AssertionError("T* subtree without terminal leaf")  # pragma: no cover


class _PartialTree:
    """Shared mutable state: the partial directed tree ``T``.

    ``vertices`` is an insertion-ordered dict (used as an ordered set),
    for the same reason as the undirected enumerator's partial tree: its
    iteration order — attachment order — is the source ordering handed
    to the path enumerators, making every order-sensitive decision a
    deterministic function of the search path itself.  That is what lets
    a restored :class:`DirectedSteinerSearch` snapshot (which replays
    only the surviving attach records) reproduce the uninterrupted run's
    remaining stream byte-for-byte.
    """

    __slots__ = ("arcs", "vertices", "uncovered")

    def __init__(self, root: Vertex, terminals: Sequence[Vertex]):
        self.arcs: Set[int] = set()
        self.vertices: Dict[Vertex, None] = {root: None}
        self.uncovered: Set[Vertex] = set(terminals)

    def apply(self, path):
        new_arcs = tuple(path.arcs)
        new_vertices = tuple(path.vertices[1:])
        covered = tuple(v for v in new_vertices if v in self.uncovered)
        self.arcs.update(new_arcs)
        for v in new_vertices:
            self.vertices[v] = None
        self.uncovered.difference_update(covered)
        return new_arcs, new_vertices, covered

    def apply_record(self, record) -> None:
        """Re-apply a stored undo record (snapshot restore path)."""
        new_arcs, new_vertices, covered = record
        self.arcs.update(new_arcs)
        for v in new_vertices:
            self.vertices[v] = None
        self.uncovered.difference_update(covered)

    def undo(self, record):
        new_arcs, new_vertices, covered = record
        self.arcs.difference_update(new_arcs)
        for v in new_vertices:
            del self.vertices[v]
        self.uncovered.update(covered)


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


class DirectedSteinerSearch:
    """Suspendable machine of the directed-Steiner enumeration.

    The directed counterpart of
    :class:`repro.core.steiner_tree.SteinerTreeSearch`: one
    :meth:`advance` call returns the next traversal event or ``None``,
    for both backends and both branching rules, and :meth:`state` /
    :meth:`restore` freeze / thaw the search mid-enumeration.  Frames
    hold suspendable directed set-path searches; the Lemma 35 node
    analysis (contraction, DFS, certificate) is stateless per node and
    is simply recomputed after restore.
    """

    def __init__(
        self,
        digraph: DiGraph,
        terminals: Sequence[Vertex],
        root: Vertex,
        meter=None,
        improved: bool = True,
        backend: str = "object",
    ) -> None:
        backend = check_backend(backend, kind="directed-steiner")
        self.meter = meter
        self.improved = improved
        self.backend = backend
        self.input_terminals: List[Vertex] = list(terminals)
        self.input_root: Vertex = root
        self.fast = backend == "fast"
        if self.fast:
            fd, index = compile_directed(digraph)
            self._d = fd  # FastDiGraph implements the DiGraph protocol
            work_terminals = map_query_vertices(index, self.input_terminals)
            work_root = map_query_vertex(index, root)
        else:
            self._d = digraph
            work_terminals = self.input_terminals
            work_root = root
        ordered = _validate(self._d, work_terminals, work_root)
        reach = reachable_from(self._d, work_root, meter=meter)
        self._dead = not all(w in reach for w in ordered)
        self.ordered = ordered
        self.root = work_root
        self.state_tree = _PartialTree(work_root, ordered)
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
        terminal (Lemma 35)."""
        state = self.state_tree
        if not state.uncovered:
            return ("leaf", frozenset(state.arcs))
        if not self.improved:
            for w in self.ordered:
                if w in state.uncovered:
                    return ("branch", w)
            raise AssertionError("unreachable")
        if self.fast:
            dprime, vmap = contracted_kernel_directed(
                self._d, state.vertices, meter=self.meter
            )
            r_t = vmap[self.root]
        else:
            contraction = contract_vertex_set_directed(self._d, state.vertices)
            dprime = contraction.graph
            r_t = contraction.vertex_map[self.root]
        if self.meter is not None:
            self.meter.tick(dprime.num_arcs + dprime.num_vertices)
        parent_arc, postorder = _dfs_tree_and_postorder(dprime, r_t, self.meter)
        tstar_arcs, tstar_vertices, tstar_children = _prune_to_tstar(
            dprime, parent_arc, r_t, state.uncovered
        )
        pos = {v: i for i, v in enumerate(postorder)}
        u = _second_solution_certificate(
            dprime, tstar_arcs, tstar_vertices, pos, self.meter
        )
        if u is None:
            return ("leaf", frozenset(state.arcs | tstar_arcs))
        return ("branch", _terminal_below(u, tstar_children, state.uncovered))

    def _open_paths(self, sources: Tuple[Vertex, ...], branch: Vertex):
        """A suspendable ``V(T)``-``branch`` path search on the backend."""
        if self.fast:
            return fast_set_path_search_directed(
                self._d, sources, (branch,), meter=self.meter
            )
        return SetPathSearchDirected(self._d, sources, (branch,), meter=self.meter)

    def _start(self) -> None:
        self.phase = 1
        if self._dead:
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
            "root": self.input_root,
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
            return FastPathSearch.restore(self._d, paths_state, self.meter)
        return SetPathSearchDirected.restore(self._d, paths_state, self.meter)

    @classmethod
    def restore(cls, digraph: DiGraph, state: Dict[str, Any], meter=None):
        """Rebuild a machine over ``digraph`` from a :meth:`state` dict.

        ``digraph`` must be (a deterministic reconstruction of) the
        instance the state was captured on; enumerator-level snapshots
        bind that with the instance fingerprint.
        """
        machine = cls(
            digraph,
            state["terminals"],
            state["root"],
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


def directed_steiner_events(
    digraph: DiGraph,
    terminals: Sequence[Vertex],
    root: Vertex,
    meter=None,
    improved: bool = True,
    backend: str = "object",
) -> Iterator[Event]:
    r"""Event stream of the directed-Steiner enumeration-tree traversal.

    ``backend="fast"`` compiles the instance into a directed kernel:
    per-node contraction rebuilds an integer-labeled kernel (arcs in the
    same global order as ``contract_vertex_set_directed``\ 's output, so
    the DFS/certificate decisions match), the Lemma 35 analysis runs on
    it through the same generic helpers, and child paths come from the
    kernel path enumerator.  Both backends drain a
    :class:`DirectedSteinerSearch` machine, the suspendable form of this
    traversal.
    """
    machine = DirectedSteinerSearch(
        digraph, terminals, root, meter=meter, improved=improved, backend=backend
    )
    while True:
        event = machine.advance()
        if event is None:
            return
        yield event


def enumerate_minimal_directed_steiner_trees(
    digraph: DiGraph,
    terminals: Sequence[Vertex],
    root: Vertex,
    meter=None,
    backend: str = "object",
) -> Iterator[Solution]:
    """Enumerate all minimal directed Steiner trees of ``(D, W, r)``.

    Improved branching: amortized O(n+m) per solution (Theorem 36).
    Yields frozensets of arc ids, each exactly once.

    Examples
    --------
    >>> d = DiGraph.from_arcs([("r", "a"), ("a", "w"), ("r", "w")])
    >>> sorted(sorted(s) for s in enumerate_minimal_directed_steiner_trees(d, ["w"], "r"))
    [[0, 1], [2]]
    """
    for event in directed_steiner_events(
        digraph, terminals, root, meter=meter, improved=True, backend=backend
    ):
        if event[0] == SOLUTION:
            yield event[1]


def enumerate_minimal_directed_steiner_trees_simple(
    digraph: DiGraph, terminals: Sequence[Vertex], root: Vertex, meter=None
) -> Iterator[Solution]:
    """Unimproved branching (Theorem 34 bound): O(nm) delay."""
    for event in directed_steiner_events(
        digraph, terminals, root, meter=meter, improved=False
    ):
        if event[0] == SOLUTION:
            yield event[1]


def enumerate_minimal_directed_steiner_trees_linear_delay(
    digraph: DiGraph,
    terminals: Sequence[Vertex],
    root: Vertex,
    meter=None,
    window: Optional[int] = None,
    backend: str = "object",
) -> Iterator[Solution]:
    """Theorem 36 second half: O(n+m) delay via the output-queue method."""
    events = directed_steiner_events(
        digraph, terminals, root, meter=meter, improved=True, backend=backend
    )
    kwargs = {} if window is None else {"window": window}
    return regulate(events, prime=digraph.num_vertices, **kwargs)


def count_minimal_directed_steiner_trees(
    digraph: DiGraph, terminals: Sequence[Vertex], root: Vertex
) -> int:
    """Number of minimal directed Steiner trees (convenience wrapper)."""
    return sum(
        1 for _ in enumerate_minimal_directed_steiner_trees(digraph, terminals, root)
    )
