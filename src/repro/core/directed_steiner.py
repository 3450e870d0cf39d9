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

from typing import Dict, FrozenSet, Hashable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.backend import (
    check_backend,
    compile_directed,
    map_query_vertex,
    map_query_vertices,
)
from repro.core.suspend import drain
from repro.core.tree_search import PartialTree, TreeSearch
from repro.enumeration.events import Event, solutions_only
from repro.enumeration.queue_method import DEFAULT_WINDOW, regulate
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


class DirectedSteinerSearch(TreeSearch):
    """Suspendable machine of the directed-Steiner enumeration.

    The :class:`repro.core.tree_search.TreeSearch` traversal with the
    Lemma 35 node test, for both backends and both branching rules.  A
    branch is an uncovered terminal ``w``; its frame enumerates directed
    ``V(T)``-``w`` paths and records the ordered source set and ``w``.
    The node analysis (contraction, DFS, certificate) is stateless per
    node and is simply recomputed after restore.
    """

    query_fields = ("terminals", "root")
    frame_fields = ("sources", "branch")

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
        query = {"terminals": list(terminals), "root": root}
        self.fast = backend == "fast"
        if self.fast:
            fd, index = compile_directed(digraph)
            self._d = fd  # FastDiGraph implements the DiGraph protocol
            work_terminals = map_query_vertices(index, query["terminals"])
            work_root = map_query_vertex(index, root)
        else:
            self._d = digraph
            work_terminals = query["terminals"]
            work_root = root
        ordered = _validate(self._d, work_terminals, work_root)
        reach = reachable_from(self._d, work_root, meter=meter)
        self._dead = not all(w in reach for w in ordered)
        self.ordered = ordered
        self.root = work_root
        self._begin(query, PartialTree((work_root,), ordered))

    def _node_test(self) -> Tuple[str, object]:
        """Output a leaf or pick a branch terminal (Lemma 35)."""
        state = self.partial
        if not state.uncovered:
            return ("leaf", frozenset(state.edges))
        if not self.improved:
            return ("branch", next(w for w in self.ordered if w in state.uncovered))
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
            return ("leaf", frozenset(state.edges | tstar_arcs))
        return ("branch", _terminal_below(u, tstar_children, state.uncovered))

    def _open(self, branch: Vertex):
        """A suspendable ``V(T)``-``branch`` path search on the backend."""
        sources = tuple(self.partial.vertices)
        if self.fast:
            paths = fast_set_path_search_directed(
                self._d, sources, (branch,), meter=self.meter
            )
        else:
            paths = SetPathSearchDirected(self._d, sources, (branch,), meter=self.meter)
        return paths, (sources, branch)

    def _thaw_paths(self, fstate: Dict):
        if self.fast:
            return FastPathSearch.restore(self._d, fstate["paths"], self.meter)
        return SetPathSearchDirected.restore(self._d, fstate["paths"], self.meter)


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
    yield from drain(
        DirectedSteinerSearch(
            digraph, terminals, root, meter=meter, improved=improved, backend=backend
        )
    )


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
    return solutions_only(
        directed_steiner_events(digraph, terminals, root, meter=meter, backend=backend)
    )


def enumerate_minimal_directed_steiner_trees_simple(
    digraph: DiGraph, terminals: Sequence[Vertex], root: Vertex, meter=None
) -> Iterator[Solution]:
    """Unimproved branching (Theorem 34 bound): O(nm) delay."""
    return solutions_only(
        directed_steiner_events(digraph, terminals, root, meter=meter, improved=False)
    )


def enumerate_minimal_directed_steiner_trees_linear_delay(
    digraph: DiGraph,
    terminals: Sequence[Vertex],
    root: Vertex,
    meter=None,
    window: Optional[int] = None,
    backend: str = "object",
) -> Iterator[Solution]:
    """Theorem 36 second half: O(n+m) delay via the output-queue method."""
    events = directed_steiner_events(digraph, terminals, root, meter=meter, backend=backend)
    return regulate(events, digraph.num_vertices, DEFAULT_WINDOW if window is None else window)


def count_minimal_directed_steiner_trees(
    digraph: DiGraph, terminals: Sequence[Vertex], root: Vertex
) -> int:
    """Number of minimal directed Steiner trees (convenience wrapper)."""
    return sum(
        1 for _ in enumerate_minimal_directed_steiner_trees(digraph, terminals, root)
    )
