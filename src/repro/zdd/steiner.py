"""Frontier-based ZDD construction for Steiner tree families.

This is the core of the Sasaki [30] comparator: a *frontier* (Simpath-
style) dynamic program that sweeps the edges of a graph in a fixed order
and builds a ZDD whose sets are exactly the edge sets of

* **minimal Steiner trees** of ``(G, W)`` — trees containing every
  terminal, every leaf a terminal (``minimal=True``, the paper's
  solution set),
* **Steiner trees** of ``(G, W)`` — any subtree containing all
  terminals (``minimal=False``),
* **minimal terminal Steiner trees** — every terminal a leaf
  (:func:`build_terminal_steiner_tree_zdd`, the Section 5.1 family), and
* **internal Steiner trees** — every terminal internal
  (:func:`build_internal_steiner_tree_zdd`, Definition 5's family, whose
  non-emptiness is NP-hard by Theorem 37 — the compile cost absorbs the
  hardness).

The DP state per processed prefix records, for each *frontier* vertex
(incident to both processed and unprocessed edges): its connected
component in the chosen edge set, its degree capped at two, and per-
component terminal counts.  Transitions reject cycles, non-terminal
leaves (minimal mode), stranded terminals and premature disconnection,
so every root-to-⊤ path of the resulting ZDD spells a valid tree.

Unlike the paper's enumeration algorithms this construction pays an
exponential worst case (the frontier state space) *before the first
solution*, but afterwards supports O(1)-amortized enumeration, exact
counting without enumeration, and size histograms — exactly the trade-
off the BDD line of work [30] explores.  The benchmarks compare the two
regimes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.core.backend import check_backend, compile_undirected, map_query_vertices
from repro.exceptions import InvalidInstanceError
from repro.graphs.fastgraph import FastGraph
from repro.graphs.graph import Graph
from repro.zdd.zdd import BOTTOM, TOP, ZDD, ZDDBuilder

Vertex = Hashable

#: per-frontier-vertex record: (component id, capped degree); component -1
#: means "not participating" (degree 0)
_NOT_IN = (-1, 0)

#: state: (tuple of (comp, deg) aligned with the live-vertex list,
#:         tuple of per-component terminal counts)
State = Tuple[Tuple[Tuple[int, int], ...], Tuple[int, ...]]


def bfs_edge_order(graph: Graph, start: Vertex) -> List[int]:
    """Edge ids ordered by a BFS sweep from ``start``.

    Frontier sizes — and with them ZDD construction cost — depend
    heavily on edge order; a BFS sweep keeps the frontier to roughly one
    BFS layer, which is the standard heuristic.
    """
    seen = {start}
    order: List[int] = []
    taken = set()
    queue = [start]
    while queue:
        nxt: List[Vertex] = []
        for v in queue:
            for eid, u in sorted(graph.incident_items(v)):
                if eid not in taken:
                    taken.add(eid)
                    order.append(eid)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        queue = nxt
    # disconnected leftovers (cannot belong to any solution, kept for
    # completeness of the variable order)
    for eid in sorted(graph.edge_ids()):
        if eid not in taken:
            order.append(eid)
    return order


def fast_bfs_edge_order(fg: FastGraph, start: int) -> List[int]:
    """Kernel twin of :func:`bfs_edge_order` (flat arrays, byte bitsets).

    Produces the relabeled image of the object-graph order: the sweep is
    driven by the kernel's cached ``(eid, other)`` incidence pairs, and
    the per-vertex ``sorted()`` is decided by the (preserved) edge ids,
    so the variable order — and with it the whole ZDD — is identical.
    """
    seen = bytearray(fg.n_space)
    taken = bytearray(fg.m_space)
    order: List[int] = []
    pairs = fg.incidence_pairs()
    seen[start] = 1
    queue = [start]
    while queue:
        nxt: List[int] = []
        for v in queue:
            for eid, u in sorted(pairs[v]):
                if not taken[eid]:
                    taken[eid] = 1
                    order.append(eid)
                if not seen[u]:
                    seen[u] = 1
                    nxt.append(u)
        queue = nxt
    for eid in sorted(fg.edge_ids()):
        if not taken[eid]:
            order.append(eid)
    return order


class _FrontierDP:
    """One construction run; see module docstring for the state design."""

    def __init__(
        self,
        endpoints: Sequence[Tuple[Vertex, Vertex]],
        terminals: Sequence[Vertex],
        minimal: bool,
        edge_order: Sequence[int],
        terminal_leaf_only: bool = False,
        internal_terminals: bool = False,
    ) -> None:
        self.terminals = set(terminals)
        self.t_total = len(self.terminals)
        self.minimal = minimal
        #: terminal Steiner mode: every terminal must end with degree 1
        self.terminal_leaf_only = terminal_leaf_only
        #: internal Steiner mode (Definition 5): every terminal degree ≥ 2
        self.internal_terminals = internal_terminals
        self.order = list(edge_order)
        self.endpoints = list(endpoints)

        first: Dict[Vertex, int] = {}
        last: Dict[Vertex, int] = {}
        for i, (u, v) in enumerate(self.endpoints):
            for w in (u, v):
                first.setdefault(w, i)
                last[w] = i
        self.first = first
        self.last = last

    # -- state helpers ---------------------------------------------------
    def _freeze(self, live: List[Vertex], comp: Dict, deg: Dict, tc: Dict) -> State:
        """Normalize component ids by first appearance and freeze."""
        relabel: Dict[int, int] = {}
        pairs: List[Tuple[int, int]] = []
        for v in live:
            c = comp[v]
            if c == -1:
                pairs.append(_NOT_IN)
                continue
            if c not in relabel:
                relabel[c] = len(relabel)
            pairs.append((relabel[c], deg[v]))
        tcounts = tuple(tc[c] for c in sorted(relabel, key=relabel.get))
        return (tuple(pairs), tcounts)

    def _thaw(self, live: List[Vertex], state: State):
        pairs, tcounts = state
        comp = {v: pairs[i][0] for i, v in enumerate(live)}
        deg = {v: pairs[i][1] for i, v in enumerate(live)}
        tc = {c: tcounts[c] for c in range(len(tcounts))}
        return comp, deg, tc

    # -- the transition ---------------------------------------------------
    def transition(
        self, i: int, live_in: List[Vertex], live_out: List[Vertex], state: State, take: bool
    ):
        """Process edge ``i``; return ``BOTTOM``, ``TOP`` or a new state."""
        u, v = self.endpoints[i]
        comp, deg, tc = self._thaw(live_in, state)
        for w in (u, v):
            if w not in comp:  # introduced at this edge
                comp[w] = -1
                deg[w] = 0

        if take:
            cu, cv = comp[u], comp[v]
            if cu != -1 and cu == cv:
                return BOTTOM  # cycle
            fresh = max(tc, default=-1) + 1
            if cu == -1 and cv == -1:
                comp[u] = comp[v] = fresh
                tc[fresh] = (u in self.terminals) + (v in self.terminals)
            elif cu == -1:
                comp[u] = cv
                tc[cv] += u in self.terminals
            elif cv == -1:
                comp[v] = cu
                tc[cu] += v in self.terminals
            else:  # merge cv into cu
                for w, c in comp.items():
                    if c == cv:
                        comp[w] = cu
                tc[cu] += tc.pop(cv)
            deg[u] = min(deg[u] + 1, 2)
            deg[v] = min(deg[v] + 1, 2)

        # forget vertices whose last incident edge is i
        done = False
        for w in [w for w in comp if self.last[w] <= i]:
            c, d = comp[w], deg[w]
            del comp[w]
            del deg[w]
            if d == 0:
                if w in self.terminals:
                    # single-terminal family: the bare vertex is a tree
                    # (but never an *internal* one)
                    if self.t_total == 1 and not tc and not self.internal_terminals:
                        done = True
                        continue
                    return BOTTOM  # stranded terminal
                continue
            if w in self.terminals:
                if self.terminal_leaf_only and d != 1:
                    return BOTTOM  # terminal used as an internal vertex
                if self.internal_terminals and d < 2:
                    return BOTTOM  # terminal left as a leaf
            elif self.minimal and d == 1:
                return BOTTOM  # non-terminal leaf
            if all(comp.get(x) != c for x in comp):
                # component closes: it must be the whole solution
                tcount = tc.pop(c)
                if tcount == self.t_total and not tc:
                    done = True
                else:
                    return BOTTOM
        if done:
            if comp and any(c != -1 for c in comp.values()):
                return BOTTOM  # pragma: no cover - defensive
            return TOP
        return self._freeze(live_out, comp, deg, tc)


def build_steiner_tree_zdd(
    graph: Graph,
    terminals: Sequence[Vertex],
    minimal: bool = True,
    edge_order: Optional[Sequence[int]] = None,
    backend: str = "object",
    _terminal_leaf_only: bool = False,
    _internal_terminals: bool = False,
) -> ZDD:
    """Build the ZDD of (minimal) Steiner tree edge sets of ``(G, W)``.

    Parameters
    ----------
    graph:
        Undirected multigraph.
    terminals:
        Non-empty terminal collection; duplicates are ignored.
    minimal:
        ``True`` (default) restricts to *minimal* Steiner trees (every
        leaf a terminal) — the paper's solution set.  ``False`` admits
        every subtree containing all terminals.
    edge_order:
        Optional explicit variable order (edge ids).  Defaults to a BFS
        sweep from the first terminal (:func:`bfs_edge_order`).
    backend:
        ``"object"`` walks the object graph; ``"fast"`` compiles the
        instance into the integer kernel and drives the frontier
        construction (BFS edge order, endpoint extraction) from its flat
        arrays.  The ZDD — node structure, counts, solution sets *and*
        their iteration order — is identical either way: the DP state is
        position-indexed, not label-indexed, and edge ids survive
        compilation.

    Examples
    --------
    >>> g = Graph.from_edges([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
    >>> z = build_steiner_tree_zdd(g, ["a", "d"])
    >>> z.count()
    2
    >>> sorted(sorted(s) for s in z)
    [[0, 1, 3], [2, 3]]
    """
    backend = check_backend(backend, kind="steiner-tree-zdd")
    terms = list(dict.fromkeys(terminals))
    if not terms:
        raise InvalidInstanceError("at least one terminal is required")
    for w in terms:
        if w not in graph:
            raise InvalidInstanceError(f"terminal {w!r} is not in the graph")

    if backend == "fast":
        fg, index = compile_undirected(graph)
        dp_terms: List = map_query_vertices(index, terms)
        order = (
            list(edge_order)
            if edge_order is not None
            else fast_bfs_edge_order(fg, dp_terms[0])
        )
        if sorted(order) != sorted(fg.edge_ids()):
            raise InvalidInstanceError(
                "edge_order must be a permutation of the edge ids"
            )
        eu, ev = fg._eu, fg._ev
        endpoints: List[Tuple[Vertex, Vertex]] = [(eu[e], ev[e]) for e in order]
        isolated = [w for w in dp_terms if not fg._inc[w]]
    else:
        dp_terms = terms
        order = (
            list(edge_order)
            if edge_order is not None
            else bfs_edge_order(graph, terms[0])
        )
        if sorted(order) != sorted(graph.edge_ids()):
            raise InvalidInstanceError(
                "edge_order must be a permutation of the edge ids"
            )
        endpoints = [graph.endpoints(eid) for eid in order]
        isolated = [w for w in terms if graph.degree(w) == 0]
    position = {eid: i for i, eid in enumerate(order)}
    builder = ZDDBuilder(position)

    if len(terms) == 1 and minimal:
        # the unique minimal Steiner tree of a single terminal is the
        # bare vertex: the family {∅}
        return builder.finish(TOP)
    if isolated:
        # an isolated single terminal admits only the bare-vertex tree;
        # with more terminals there is no connecting tree at all
        return builder.finish(TOP if len(terms) == 1 else BOTTOM)
    if not order:
        return builder.finish(BOTTOM)

    dp = _FrontierDP(
        endpoints,
        dp_terms,
        minimal,
        order,
        terminal_leaf_only=_terminal_leaf_only,
        internal_terminals=_internal_terminals,
    )

    # live vertex list per level entry (deterministic introduction order)
    live_at: List[List[Vertex]] = []
    carried_at: List[List[Vertex]] = []
    live: List[Vertex] = []
    for i, (u, v) in enumerate(dp.endpoints):
        for w in (u, v):
            if dp.first[w] == i:
                live.append(w)
        live_at.append(list(live))
        live = [w for w in live if dp.last[w] > i]
        carried_at.append(list(live))

    m = len(order)
    initial: State = ((), ())
    levels: List[Dict[State, Tuple[object, object]]] = []
    current: Dict[State, Tuple[object, object]] = {initial: (None, None)}
    for i in range(m):
        nxt: Dict[State, Tuple[object, object]] = {}
        resolved: Dict[State, Tuple[object, object]] = {}
        # entry state at level i covers carried-over vertices; transition
        # introduces this edge's endpoints itself
        live_in = [w for w in live_at[i] if dp.first[w] < i]
        live_out = carried_at[i]
        for state in current:
            children = []
            for take in (False, True):
                result = dp.transition(i, live_in, live_out, state, take)
                if result == BOTTOM or result == TOP:
                    children.append(result)
                else:
                    nxt.setdefault(result, (None, None))
                    children.append(result)
            resolved[state] = (children[0], children[1])
        levels.append(resolved)
        current = nxt

    # bottom-up node materialization
    node_of: Dict[Tuple[int, State], int] = {}
    for i in range(m - 1, -1, -1):
        var = order[i]
        for state, (lo_ref, hi_ref) in levels[i].items():
            lo = lo_ref if isinstance(lo_ref, int) else node_of.get((i + 1, lo_ref), BOTTOM)
            hi = hi_ref if isinstance(hi_ref, int) else node_of.get((i + 1, hi_ref), BOTTOM)
            node_of[(i, state)] = builder.make(var, lo, hi)
    return builder.finish(node_of[(0, initial)])


def count_steiner_trees_zdd(
    graph: Graph,
    terminals: Sequence[Vertex],
    minimal: bool = True,
    backend: str = "object",
) -> int:
    """Exact solution count via the ZDD (no enumeration).

    Examples
    --------
    >>> g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
    >>> count_steiner_trees_zdd(g, [0, 2])
    2
    """
    return build_steiner_tree_zdd(
        graph, terminals, minimal=minimal, backend=backend
    ).count()


def enumerate_minimal_steiner_trees_zdd(
    graph: Graph, terminals: Sequence[Vertex], backend: str = "object"
) -> Iterator[FrozenSet[int]]:
    """Enumerate minimal Steiner trees from the compiled ZDD.

    Same solution set as
    :func:`repro.core.steiner_tree.enumerate_minimal_steiner_trees`, but
    with the compile-first/enumerate-later cost profile (exponential
    preprocessing possible, near-constant per solution afterwards).
    """
    yield from build_steiner_tree_zdd(graph, terminals, minimal=True, backend=backend)


def build_terminal_steiner_tree_zdd(
    graph: Graph,
    terminals: Sequence[Vertex],
    edge_order: Optional[Sequence[int]] = None,
    backend: str = "object",
) -> ZDD:
    """ZDD of the *minimal terminal Steiner trees* (Section 5.1 family).

    Every terminal ends as a leaf and every leaf is a terminal — the
    solution set of the paper's Theorem 31 enumerator, compiled.  Needs
    at least two terminals (the single-terminal family is degenerate).

    Examples
    --------
    >>> g = Graph.from_edges([(0, 1), (1, 2), (1, 3)])
    >>> z = build_terminal_steiner_tree_zdd(g, [0, 2, 3])
    >>> sorted(sorted(s) for s in z)
    [[0, 1, 2]]
    """
    terms = list(dict.fromkeys(terminals))
    if len(terms) < 2:
        raise InvalidInstanceError("terminal Steiner trees need ≥ 2 terminals")
    return build_steiner_tree_zdd(
        graph,
        terms,
        minimal=True,
        edge_order=edge_order,
        backend=backend,
        _terminal_leaf_only=True,
    )


def build_internal_steiner_tree_zdd(
    graph: Graph,
    terminals: Sequence[Vertex],
    edge_order: Optional[Sequence[int]] = None,
    backend: str = "object",
) -> ZDD:
    """ZDD of the *internal Steiner trees* (Definition 5's family).

    Every terminal must be an internal vertex (degree ≥ 2 in the tree);
    non-terminal leaves are allowed because Definition 5 does not ask
    for minimality.  Theorem 37 shows even deciding non-emptiness of
    this family is NP-hard — compiling it therefore costs exponential
    time in the worst case, which is exactly the trade the frontier DP
    makes (the state space absorbs the hardness).

    Examples
    --------
    >>> g = Graph.from_edges([(0, 1), (1, 2)])
    >>> z = build_internal_steiner_tree_zdd(g, [1])
    >>> sorted(sorted(s) for s in z)
    [[0, 1]]
    """
    terms = list(dict.fromkeys(terminals))
    if not terms:
        raise InvalidInstanceError("at least one terminal is required")
    if any(graph.degree(w) < 2 for w in terms):
        # a terminal with fewer than two incident edges can never be
        # internal; the family is empty
        position = {eid: i for i, eid in enumerate(sorted(graph.edge_ids()))}
        return ZDDBuilder(position).finish(BOTTOM)
    return build_steiner_tree_zdd(
        graph,
        terms,
        minimal=False,
        edge_order=edge_order,
        backend=backend,
        _internal_terminals=True,
    )


def enumerate_cost_constrained_minimal_steiner_trees(
    graph: Graph,
    terminals: Sequence[Vertex],
    weights,
    budget: float,
    backend: str = "object",
) -> Iterator[FrozenSet[int]]:
    """Minimal Steiner trees of total weight at most ``budget``.

    The headline operation of Sasaki [30]: compile once, then answer
    cost-constrained enumeration queries with budget-pruned DFS over the
    diagram.  Yields edge-id frozensets in DFS order (lightest-first is
    *not* guaranteed — use :mod:`repro.core.ranked` for ranked output).

    Examples
    --------
    >>> g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
    >>> list(enumerate_cost_constrained_minimal_steiner_trees(
    ...     g, [0, 2], {0: 1, 1: 1, 2: 5}, budget=3))
    [frozenset({0, 1})]
    """
    zdd = build_steiner_tree_zdd(graph, terminals, backend=backend)
    for _weight, solution in zdd.iter_within_budget(weights, budget):
        yield solution


def spanning_tree_zdd(graph: Graph, backend: str = "object") -> ZDD:
    """ZDD of all spanning trees (Steiner trees with ``W = V``).

    With every vertex a terminal the leaf rule is vacuous, so minimal
    and plain families coincide; the count matches Kirchhoff's
    matrix-tree theorem, which the tests exploit as an independent
    oracle.
    """
    vertices = list(graph.vertices())
    if not vertices:
        raise InvalidInstanceError("spanning trees of the empty graph are undefined")
    return build_steiner_tree_zdd(graph, vertices, minimal=True, backend=backend)
