"""Chordless (induced) *s*-*t* path enumeration.

Table 1 of the paper cites Conte et al. [8] for minimal *induced*
Steiner subgraphs with at most three terminals.  For two terminals the
problem has a crisp classical form: the minimal induced Steiner
subgraphs of ``(G, {s, t})`` are exactly the **chordless s-t paths** of
``G`` (take any minimal solution, walk a shortest s-t path inside it —
that path is induced, and minimality collapses the solution onto it).

This module enumerates chordless paths with polynomial delay by the
standard certificate-guided backtracking:

* A chordless prefix ``(v_1, …, v_k)`` extends to a full chordless
  ``s``-``t`` path iff ``t`` is reachable from ``v_k`` in the graph
  obtained by deleting ``N[v_1], …, N[v_{k-1}]`` except ``v_k`` itself —
  because a *shortest* such completion is automatically induced.
* Branching only on extendible successors means every recursion node
  produces at least one solution below it, so the delay is
  ``O(n (n + m))``.

This covers the two-terminal row of the paper's Table 1 without the
claw-free restriction that Section 7 needs for general terminal counts;
the three-terminal case of [8] needs that paper's own machinery and is
out of scope (documented in DESIGN.md §5).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import InvalidInstanceError, VertexNotFound
from repro.graphs.graph import Graph

Vertex = Hashable


def is_chordless_path(graph: Graph, vertices: Sequence[Vertex]) -> bool:
    """True if ``vertices`` spell a simple path with no chords in ``G``.

    Examples
    --------
    >>> g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
    >>> is_chordless_path(g, [0, 2, 3])
    True
    >>> is_chordless_path(g, [0, 1, 2, 3])  # chord 0-2
    False
    """
    path = list(vertices)
    if len(set(path)) != len(path) or not path:
        return False
    for v in path:
        if v not in graph:
            return False
    for i, u in enumerate(path):
        for j in range(i + 1, len(path)):
            adjacent = graph.has_edge_between(u, path[j])
            if j == i + 1 and not adjacent:
                return False
            if j > i + 1 and adjacent:
                return False
    return True


def _tick(meter, amount: int = 1) -> None:
    if meter is not None:
        meter.tick(amount)


def _reachable_avoiding(
    graph: Graph, start: Vertex, blocked: Set[Vertex], meter=None
) -> Set[Vertex]:
    """Vertices reachable from ``start`` without entering ``blocked``."""
    if start in blocked:
        return set()
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in graph.neighbors(v):
            _tick(meter)
            if u not in seen and u not in blocked:
                seen.add(u)
                stack.append(u)
    return seen


class ChordlessPathSearch:
    """Suspendable machine of chordless ``s``-``t`` path enumeration.

    One :meth:`advance` call returns the next chordless path (a vertex
    tuple in original labels) or ``None`` when exhausted, on either
    backend.  The certificate-guided backtracking state is exactly the
    explicit ``prefix`` + ``(vertex, entering)`` stack the enumeration
    has always used, so :meth:`state` serializes it verbatim;
    :meth:`restore` rebuilds the machine and — on the ``fast`` backend —
    recomputes the body cover counts from the restored prefix (they are
    a pure function of it), leaving the remaining stream byte-identical
    to the uninterrupted run's tail.
    """

    def __init__(
        self,
        graph: Graph,
        source: Vertex,
        target: Vertex,
        meter=None,
        backend: str = "object",
    ) -> None:
        from repro.core.backend import (
            check_backend,
            compile_undirected,
            map_query_vertex,
        )

        backend = check_backend(backend, kind="chordless-path")
        self.graph = graph
        self.meter = meter
        self.backend = backend
        self.source = source
        self.target = target
        self.fast = backend == "fast"
        self.emitted = 0
        self.phase = 0  # 0 = not started, 1 = running, 2 = exhausted
        if self.fast:
            fg, index = compile_undirected(graph)
            self.fg = fg
            self._labels = None if index is None else list(index)
            s = map_query_vertex(index, source) if source in graph else source
            t = map_query_vertex(index, target) if target in graph else target
            if s not in fg:
                raise VertexNotFound(source)
            if t not in fg:
                raise VertexNotFound(target)
            self._s, self._t = s, t
            raw = fg.neighbor_lists()
            self._raw = raw
            # Distinct neighbours, pre-sorted once into the object
            # backend's ``sorted(neighbor_set(v), key=repr)`` order.
            self._adj: List[List[int]] = [sorted(set(lst), key=repr) for lst in raw]
            n = len(raw)
            self._cov = [0] * n  # closed-neighbourhood cover counts (body)
            self._tip_mark = [0] * n  # node-level stamp: N[tip] ∪ {tip}
            self._visited = [0] * n  # probe-level stamp: sweep marks
            self._node_stamp = 0
            self._probe_stamp = 0
        else:
            if source not in graph:
                raise VertexNotFound(source)
            if target not in graph:
                raise VertexNotFound(target)
            self._s, self._t = source, target
        self.prefix: List[Vertex] = []
        self.stack: List[Tuple[Vertex, bool]] = [(self._s, True)]

    # ------------------------------------------------------------------
    def advance(self) -> Optional[Tuple[Vertex, ...]]:
        """The next chordless path, or ``None`` when exhausted."""
        if self.phase == 0:
            self.phase = 1
            if self._s == self._t:
                self.phase = 2
                self.emitted += 1
                return (self.source,)
        if self.phase == 2:
            return None
        path = self._run_fast() if self.fast else self._run_object()
        if path is None:
            self.phase = 2
            return None
        self.emitted += 1
        return path

    def _emit(self, prefix: List[int]) -> Tuple[Vertex, ...]:
        if self._labels is None:
            return tuple(prefix)
        labels = self._labels
        return tuple(labels[v] for v in prefix)

    def _run_object(self) -> Optional[Tuple[Vertex, ...]]:
        graph, meter, target = self.graph, self.meter, self._t
        prefix, stack = self.prefix, self.stack

        def extendible(tip: Vertex) -> bool:
            blocked: Set[Vertex] = set()
            for v in prefix:
                blocked.add(v)
                blocked.update(graph.neighbor_set(v))
                _tick(meter, graph.degree(v))
            blocked.discard(tip)
            if target in blocked:
                return False
            return target in _reachable_avoiding(graph, tip, blocked, meter)

        while stack:
            v, entering = stack.pop()
            if not entering:
                prefix.pop()
                continue
            prefix.append(v)
            stack.append((v, False))
            if v == target:
                return tuple(prefix)
            body = prefix[:-1]
            forbidden: Set[Vertex] = set(body)
            for p in body:
                forbidden.update(graph.neighbor_set(p))
                _tick(meter, graph.degree(p))
            candidates = [
                u
                for u in sorted(graph.neighbor_set(v), key=repr)
                if u not in forbidden
            ]
            # push in reverse so exploration follows sorted order
            for u in reversed(candidates):
                if extendible(u):
                    stack.append((u, True))
        return None

    def _run_fast(self) -> Optional[Tuple[Vertex, ...]]:
        """Kernel-native steps: the two O(|prefix| · Δ) set unions per
        search node (candidate filter + extendibility ``blocked`` set)
        are flat integer arrays maintained incrementally — ``cov[u]``
        counts how many *body* vertices cover ``u`` with their closed
        neighbourhood, the tip's neighbourhood is stamped once per node,
        and the reachability sweep early-exits at the target."""
        meter, target = self.meter, self._t
        prefix, stack = self.prefix, self.stack
        raw, adj_sorted = self._raw, self._adj
        cov, tip_mark, visited = self._cov, self._tip_mark, self._visited

        def cover(v: int, delta: int) -> None:
            cov[v] += delta
            for u in adj_sorted[v]:
                cov[u] += delta
            _tick(meter, len(adj_sorted[v]))

        def extendible(u: int) -> bool:
            # blocked = body cover ∪ N[tip] ∪ {tip}, minus ``u`` itself
            # (the object backend's ``blocked.discard(tip)``).
            node_stamp = self._node_stamp
            blocked_t = cov[target] > 0 or tip_mark[target] == node_stamp
            if blocked_t and target != u:
                return False
            if u == target:
                return True
            self._probe_stamp += 1
            probe_stamp = self._probe_stamp
            sweep = [u]
            visited[u] = probe_stamp
            while sweep:
                v = sweep.pop()
                for w in raw[v]:
                    _tick(meter)
                    if w == target:
                        return True
                    if (
                        visited[w] != probe_stamp
                        and cov[w] == 0
                        and tip_mark[w] != node_stamp
                        and w != u
                    ):
                        visited[w] = probe_stamp
                        sweep.append(w)
            return False

        while stack:
            v, entering = stack.pop()
            if not entering:
                prefix.pop()
                if prefix:
                    cover(prefix[-1], -1)  # the new tip leaves the body
                continue
            if prefix:
                cover(prefix[-1], +1)  # the old tip joins the body
            prefix.append(v)
            stack.append((v, False))
            if v == target:
                return self._emit(prefix)
            self._node_stamp += 1
            node_stamp = self._node_stamp
            tip_mark[v] = node_stamp
            for u in adj_sorted[v]:
                tip_mark[u] = node_stamp
            _tick(meter, len(adj_sorted[v]))
            survivors = [
                u for u in adj_sorted[v] if cov[u] == 0 and extendible(u)
            ]
            for u in reversed(survivors):
                stack.append((u, True))
        return None

    # ------------------------------------------------------------------
    # snapshot plumbing
    # ------------------------------------------------------------------
    @property
    def frame_count(self) -> int:
        """Search-stack depth (header bookkeeping for inspection tools)."""
        return len(self.stack)

    def state(self) -> Dict[str, Any]:
        """Plain-data search state.

        The prefix and the ``(vertex, entering)`` stack are captured
        verbatim; the kernel arrays (cover counts, stamps) are pure
        functions of the prefix and are recomputed on :meth:`restore`.
        """
        return {
            "source": self.source,
            "target": self.target,
            "backend": self.backend,
            "phase": self.phase,
            "emitted": self.emitted,
            "prefix": list(self.prefix),
            "stack": [tuple(item) for item in self.stack],
        }

    @classmethod
    def restore(
        cls, graph: Graph, state: Dict[str, Any], meter=None
    ) -> "ChordlessPathSearch":
        """Rebuild a machine over ``graph`` from a :meth:`state` dict."""
        machine = cls(
            graph,
            state["source"],
            state["target"],
            meter=meter,
            backend=state["backend"],
        )
        machine.phase = state["phase"]
        machine.emitted = state["emitted"]
        machine.prefix = list(state["prefix"])
        machine.stack = [(v, bool(flag)) for v, flag in state["stack"]]
        if machine.fast:
            # cov is Σ over body vertices of their closed neighbourhoods.
            cov, adj_sorted = machine._cov, machine._adj
            for v in machine.prefix[:-1]:
                cov[v] += 1
                for u in adj_sorted[v]:
                    cov[u] += 1
        return machine


def enumerate_chordless_st_paths(
    graph: Graph, source: Vertex, target: Vertex, meter=None, backend: str = "object"
) -> Iterator[Tuple[Vertex, ...]]:
    """All chordless ``source``-``target`` paths, as vertex tuples.

    Deterministic order (successors explored in ``repr`` order).  The
    trivial one-vertex path is yielded when ``source == target``.
    Both backends drain a :class:`ChordlessPathSearch` machine, which is
    the suspendable form of this enumeration.

    Examples
    --------
    >>> g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
    >>> sorted(enumerate_chordless_st_paths(g, 0, 3))
    [(0, 2, 3)]

    The walk ``(0, 1, 2, 3)`` is *not* chordless: edge ``0``-``2`` is a
    chord, so the minimal induced connector is the short route only.
    """
    machine = ChordlessPathSearch(
        graph, source, target, meter=meter, backend=backend
    )
    while True:
        path = machine.advance()
        if path is None:
            return
        yield path


def enumerate_minimal_induced_steiner_pairs(
    graph: Graph, source: Vertex, target: Vertex
) -> Iterator[frozenset]:
    """Minimal induced Steiner subgraphs of ``(G, {s, t})`` as vertex sets.

    These are exactly the vertex sets of chordless ``s``-``t`` paths —
    the two-terminal case of the paper's Induced Steiner Subgraph
    Enumeration, with no claw-free restriction.

    Examples
    --------
    >>> g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
    >>> sorted(sorted(s) for s in enumerate_minimal_induced_steiner_pairs(g, 0, 2))
    [[0, 2]]
    """
    for path in enumerate_chordless_st_paths(graph, source, target):
        yield frozenset(path)


def count_chordless_st_paths(graph: Graph, source: Vertex, target: Vertex) -> int:
    """Number of chordless ``source``-``target`` paths."""
    return sum(1 for _ in enumerate_chordless_st_paths(graph, source, target))


def longest_chordless_path_length(
    graph: Graph, source: Vertex, target: Vertex
) -> int:
    """Edge count of a longest chordless ``s``-``t`` path.

    Raises :class:`InvalidInstanceError` when no chordless path exists
    (equivalently, when ``t`` is unreachable from ``s``).
    """
    best = -1
    for path in enumerate_chordless_st_paths(graph, source, target):
        best = max(best, len(path) - 1)
    if best < 0:
        raise InvalidInstanceError(f"no path from {source!r} to {target!r}")
    return best


def brute_force_chordless_st_paths(
    graph: Graph, source: Vertex, target: Vertex
) -> Set[Tuple[Vertex, ...]]:
    """Oracle: filter all simple paths by chordlessness (tests only)."""
    from repro.paths.simple import backtracking_st_paths_undirected

    out: Set[Tuple[Vertex, ...]] = set()
    if source == target:
        return {(source,)}
    for path in backtracking_st_paths_undirected(graph, source, target):
        if is_chordless_path(graph, path.vertices):
            out.add(tuple(path.vertices))
    return out
