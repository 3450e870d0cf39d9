"""Integer-indexed multigraph kernel for the hot enumeration paths.

:class:`FastGraph` is the array-backed counterpart of
:class:`repro.graphs.graph.Graph`: vertices are small non-negative
integers, edge endpoints live in flat parallel lists, per-vertex
incidence is a plain list of edge ids with O(1) delete/restore by id
(swap-and-pop plus an undo log), and vertex/edge membership is a
byte-per-element bitset.  The enumerators of :mod:`repro.core` spend
nearly all their time scanning adjacency; on the integer-relabeled
instances the engine produces (see
:meth:`repro.engine.jobs.EnumerationJob.instantiate_indexed`) the kernel
removes the dict-of-dicts and hashing overhead from those scans.

Design contract (relied on by :mod:`repro.paths.fastpaths` and the
``backend="fast"`` code paths of the core enumerators):

* **Stable ids.**  Edge ids survive compilation, contraction
  (:func:`contracted_kernel`) and delete/restore, exactly like the
  object graph's — the paper's ``E(G)\\E(F)`` ↔ ``E(G/E(F))``
  correspondence is id equality here too.
* **Order preservation.**  :meth:`FastGraph.from_graph` copies the
  source graph's per-vertex incidence order, global edge order and
  vertex order.  For a freshly built :class:`Graph` these are all
  insertion order, so any order-sensitive traversal (the Read–Tarjan
  sibling-path order, DFS tie-breaks) makes the same choices on the
  kernel as on the object graph.  This is what makes the two backends'
  solution streams byte-identical.
* **Undo log.**  Mutations (delete, contract, vertex removal) push
  inverse records; :meth:`FastGraph.rollback` restores the *exact*
  prior incidence order, including swap-and-pop position bookkeeping.
  A plain :meth:`FastGraph.add_edge` of a previously removed id mimics
  the object graph instead (re-append at the end of the incidence
  lists).

The kernel deliberately exposes its internals (``_inc``, ``_eu``,
``_ev``, ``_esum``, ``_edge_alive``, ``_vertex_alive``) to sibling
``repro`` modules; external callers should stay on the protocol
methods, which mirror :class:`Graph`.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.exceptions import (
    EdgeNotFound,
    InvalidInstanceError,
    SelfLoopError,
    VertexNotFound,
)
from repro.graphs.digraph import Arc, DiGraph
from repro.graphs.graph import Edge, Graph


def _check_vertex_id(v: object) -> int:
    """Validate a kernel vertex id: a plain non-negative int."""
    if isinstance(v, int) and not isinstance(v, bool) and v >= 0:
        return v
    raise InvalidInstanceError(
        f"fast kernel vertices must be non-negative ints, got {v!r}"
    )


def is_integer_compact(graph) -> bool:
    """True if ``graph``'s vertices are exactly ``0..n-1`` (any order).

    This is the engine's normal form (see ``instantiate_indexed``); it is
    the precondition under which the fast backend guarantees a solution
    stream byte-identical to the object backend's.
    """
    n = graph.num_vertices
    seen = 0
    for v in graph.vertices():
        if isinstance(v, bool) or not isinstance(v, int) or not (0 <= v < n):
            return False
        seen += 1
    return seen == n


class FastGraph:
    """Mutable undirected multigraph over integer vertices.

    Supports the full :class:`repro.graphs.graph.Graph` protocol plus the
    kernel extensions (:meth:`checkpoint` / :meth:`rollback`,
    :meth:`contract_edge`).  Derived-graph helpers (:meth:`subgraph`,
    :meth:`edge_subgraph`, :meth:`to_directed`, …) return *object*
    graphs, so generic algorithm code running on a kernel sees exactly
    the structures it would have seen on the object backend.

    Examples
    --------
    >>> g = Graph.from_edges([(0, 1), (1, 2), (0, 2)])
    >>> fg = FastGraph.from_graph(g)
    >>> fg.num_vertices, fg.num_edges
    (3, 3)
    >>> mark = fg.checkpoint()
    >>> fg.remove_edge(1)
    (1, 2)
    >>> fg.num_edges
    2
    >>> fg.rollback(mark)
    >>> sorted(fg.incident_ids(1))
    [0, 1]
    """

    __slots__ = (
        "n_space",
        "m_space",
        "_eu",
        "_ev",
        "_esum",
        "_inc",
        "_posu",
        "_posv",
        "_wf",
        "_wi",
        "_vertex_alive",
        "_edge_alive",
        "_vorder",
        "_eorder",
        "_n_alive",
        "_m_alive",
        "_undo",
        "version",
        "_dirty",
        "_pairs",
        "_pairs_version",
        "_nbrs",
        "_nbrs_version",
        "_bits",
        "_bits_version",
        "_forest",
        "_forest_version",
        "_scratch",
        "_analyses",
    )

    def __init__(self) -> None:
        self.n_space = 0  # vertex ids live in [0, n_space)
        self.m_space = 0  # edge ids live in [0, m_space)
        self._eu: List[int] = []  # eid -> first endpoint
        self._ev: List[int] = []  # eid -> second endpoint
        self._esum: List[int] = []  # eid -> u + v  (other = esum - v)
        self._inc: List[List[int]] = []  # vertex -> incident eids
        self._posu: List[int] = []  # eid -> index in _inc[_eu[eid]]
        self._posv: List[int] = []  # eid -> index in _inc[_ev[eid]]
        # Flat edge-weight storage (see docs/guides/graphs.md): _wf holds the
        # float64 weight (0.0 = unweighted, matching tree_weight's
        # default), _wi holds the exact integer dual when the weight is
        # integral (None otherwise) so integral workloads — uniform
        # weights, hop counts — get exact comparisons with no float
        # accumulation concerns.
        self._wf: List[float] = []  # eid -> float64 weight
        self._wi: List[Optional[int]] = []  # eid -> exact int dual (or None)
        self._vertex_alive = bytearray()
        self._edge_alive = bytearray()
        # Iteration orders, mirroring the object graph's dict semantics.
        # Keys persist as tombstones across delete so rollback keeps the
        # original position; the alive bitsets filter iteration.
        self._vorder: Dict[int, None] = {}
        self._eorder: Dict[int, None] = {}
        self._n_alive = 0
        self._m_alive = 0
        self._undo: List[tuple] = []
        self.version = 0
        self._dirty: List[int] = []  # vertices touched since last drain
        self._pairs: Optional[List[List[Tuple[int, int]]]] = None
        self._pairs_version = -1
        self._nbrs: Optional[List[List[int]]] = None
        self._nbrs_version = -1
        self._bits: Optional[Tuple[List[int], List[int]]] = None
        self._bits_version = -1
        self._forest: Optional[List[int]] = None
        self._forest_version = -1
        self._scratch: Optional[tuple] = None  # shared sweep buffers
        # name -> (version, ops, result) of a whole-graph analysis
        self._analyses: Dict[str, tuple] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: Graph, n_space: Optional[int] = None) -> "FastGraph":
        """Compile an integer-vertex :class:`Graph` into a kernel.

        Vertex ids must be non-negative ints (< ``n_space`` when given);
        they need not be contiguous — dead slots are simply never alive.
        Per-vertex incidence order, global edge order and vertex order
        are copied from the source, so order-sensitive traversals behave
        identically on either representation.
        """
        fg = cls()
        max_v = -1
        for v in graph.vertices():
            _check_vertex_id(v)
            if v > max_v:
                max_v = v
        space = max_v + 1 if n_space is None else n_space
        if max_v >= space:
            raise InvalidInstanceError(
                f"vertex id {max_v} exceeds requested space {space}"
            )
        fg._grow_vertices(space)
        for v in graph.vertices():
            fg._vertex_alive[v] = 1
            fg._vorder[v] = None
            fg._n_alive += 1
        max_e = -1
        for eid in graph.edge_ids():
            if eid < 0:
                raise InvalidInstanceError(f"negative edge id {eid}")
            if eid > max_e:
                max_e = eid
        fg._grow_edges(max_e + 1)
        eu, ev, esum = fg._eu, fg._ev, fg._esum
        for eid in graph.edge_ids():
            u, v = graph.endpoints(eid)
            eu[eid] = u
            ev[eid] = v
            esum[eid] = u + v
            fg._edge_alive[eid] = 1
            fg._eorder[eid] = None
            fg._m_alive += 1
        # Incidence in the source's per-vertex order.
        inc, posu, posv = fg._inc, fg._posu, fg._posv
        for v in graph.vertices():
            lst = inc[v]
            for eid in graph.incident_ids(v):
                if eu[eid] == v:
                    posu[eid] = len(lst)
                else:
                    posv[eid] = len(lst)
                lst.append(eid)
        return fg

    @classmethod
    def from_edges(
        cls, edges: Iterable[Tuple[int, int]], vertices: Iterable[int] = ()
    ) -> "FastGraph":
        """Build a kernel from endpoint pairs (ids assigned positionally).

        Slot for slot what ``from_graph(Graph.from_edges(edges,
        vertices))`` compiles, without the object graph: vertex order is
        ``vertices`` and then first appearance, each incidence list is in
        edge order, the undo log is empty and ``version`` is 0.  A
        self-loop raises :class:`SelfLoopError` as
        :meth:`Graph.add_edge` does.
        """
        fg = cls()
        order = dict.fromkeys(vertices)
        eu: List[int] = []
        ev: List[int] = []
        for u, v in edges:
            if u == v:
                raise SelfLoopError(u)
            eu.append(u)
            ev.append(v)
            order[u] = order[v] = None  # an existing key keeps its place
        space = 0
        for v in order:
            space = max(space, _check_vertex_id(v) + 1)
        fg._grow_vertices(space)
        alive = fg._vertex_alive
        for v in order:
            alive[v] = 1
        m = len(eu)
        inc = fg._inc
        posu = [0] * m
        posv = [0] * m
        for eid in range(m):
            lst = inc[eu[eid]]
            posu[eid] = len(lst)
            lst.append(eid)
            lst = inc[ev[eid]]
            posv[eid] = len(lst)
            lst.append(eid)
        fg._vorder = order
        fg._n_alive = len(order)
        fg.m_space = fg._m_alive = m
        fg._eu, fg._ev, fg._posu, fg._posv = eu, ev, posu, posv
        fg._esum = [u + v for u, v in zip(eu, ev)]
        fg._wf = [0.0] * m
        fg._wi = [0] * m
        fg._edge_alive = bytearray(b"\x01" * m)
        fg._eorder = dict.fromkeys(range(m))
        return fg

    def copy(self) -> "FastGraph":
        """Independent copy sharing ids with ``self`` (undo log not copied)."""
        fg = FastGraph()
        fg.n_space = self.n_space
        fg.m_space = self.m_space
        fg._eu = list(self._eu)
        fg._ev = list(self._ev)
        fg._esum = list(self._esum)
        fg._inc = [list(lst) for lst in self._inc]
        fg._posu = list(self._posu)
        fg._posv = list(self._posv)
        fg._wf = list(self._wf)
        fg._wi = list(self._wi)
        fg._vertex_alive = bytearray(self._vertex_alive)
        fg._edge_alive = bytearray(self._edge_alive)
        fg._vorder = dict(self._vorder)
        fg._eorder = dict(self._eorder)
        fg._n_alive = self._n_alive
        fg._m_alive = self._m_alive
        return fg

    def _grow_vertices(self, space: int) -> None:
        if space <= self.n_space:
            return
        extra = space - self.n_space
        self._vertex_alive.extend(b"\x00" * extra)
        self._inc.extend([] for _ in range(extra))
        self.n_space = space

    def _grow_edges(self, space: int) -> None:
        if space <= self.m_space:
            return
        extra = space - self.m_space
        self._eu.extend([0] * extra)
        self._ev.extend([0] * extra)
        self._esum.extend([0] * extra)
        self._posu.extend([0] * extra)
        self._posv.extend([0] * extra)
        self._wf.extend([0.0] * extra)
        self._wi.extend([0] * extra)
        self._edge_alive.extend(b"\x00" * extra)
        self.m_space = space

    # ------------------------------------------------------------------
    # basic queries (Graph protocol)
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of live vertices (the paper's ``n``)."""
        return self._n_alive

    @property
    def num_edges(self) -> int:
        """Number of live edges counting multiplicities (``m``)."""
        return self._m_alive

    @property
    def size(self) -> int:
        """``n + m``."""
        return self._n_alive + self._m_alive

    def __contains__(self, vertex: object) -> bool:
        return (
            isinstance(vertex, int)
            and not isinstance(vertex, bool)
            and 0 <= vertex < self.n_space
            and bool(self._vertex_alive[vertex])
        )

    def __len__(self) -> int:
        return self._n_alive

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FastGraph n={self._n_alive} m={self._m_alive}>"

    def vertices(self) -> Iterator[int]:
        """Iterate over live vertices in (preserved) insertion order."""
        alive = self._vertex_alive
        for v in self._vorder:
            if alive[v]:
                yield v

    def edges(self) -> Iterator[Edge]:
        """Iterate over live edges in (preserved) insertion order."""
        alive = self._edge_alive
        eu, ev = self._eu, self._ev
        for eid in self._eorder:
            if alive[eid]:
                yield Edge(eid, eu[eid], ev[eid])

    def edge_ids(self) -> Iterator[int]:
        """Iterate over live edge ids in insertion order."""
        alive = self._edge_alive
        for eid in self._eorder:
            if alive[eid]:
                yield eid

    def has_edge_id(self, eid: int) -> bool:
        """True if a live edge with id ``eid`` exists."""
        return 0 <= eid < self.m_space and bool(self._edge_alive[eid])

    def edge(self, eid: int) -> Edge:
        """The :class:`Edge` record for ``eid``."""
        if not self.has_edge_id(eid):
            raise EdgeNotFound(eid)
        return Edge(eid, self._eu[eid], self._ev[eid])

    def endpoints(self, eid: int) -> Tuple[int, int]:
        """Endpoint pair of edge ``eid``."""
        if not self.has_edge_id(eid):
            raise EdgeNotFound(eid)
        return (self._eu[eid], self._ev[eid])

    def other_endpoint(self, eid: int, vertex: int) -> int:
        """The endpoint of ``eid`` opposite to ``vertex``."""
        if not self.has_edge_id(eid):
            raise EdgeNotFound(eid)
        u, v = self._eu[eid], self._ev[eid]
        if vertex == u:
            return v
        if vertex == v:
            return u
        raise ValueError(f"vertex {vertex!r} is not an endpoint of edge {eid}")

    def _incident(self, vertex: int) -> List[int]:
        try:
            if vertex >= 0 and self._vertex_alive[vertex]:
                return self._inc[vertex]
        except (IndexError, TypeError):
            pass
        raise VertexNotFound(vertex)

    def degree(self, vertex: int) -> int:
        """Number of live edges incident to ``vertex``."""
        return len(self._incident(vertex))

    def neighbors(self, vertex: int) -> Iterator[int]:
        """Neighbours of ``vertex`` (one yield per parallel edge).

        Served from the cached neighbour lists (rebuilt lazily after a
        mutation): protocol traversals iterate a plain list, which is
        what makes the kernel a faster drop-in for the read-only
        algorithms.  Interleaving mutations with per-vertex reads
        thrashes the cache — batch mutations first.
        """
        try:
            if vertex >= 0 and self._vertex_alive[vertex]:
                nbrs = self._nbrs
                if nbrs is None or self._nbrs_version != self.version:
                    nbrs = self.neighbor_lists()
                return iter(nbrs[vertex])
        except (IndexError, TypeError):
            pass
        raise VertexNotFound(vertex)

    def neighbor_set(self, vertex: int) -> set:
        """The paper's ``N_G(v)``: distinct neighbours."""
        self._incident(vertex)
        return set(self.neighbor_lists()[vertex])

    def incident(self, vertex: int) -> Iterator[Edge]:
        """Incident edges as :class:`Edge` records (Γ(v))."""
        esum = self._esum
        for eid in self._incident(vertex):
            yield Edge(eid, vertex, esum[eid] - vertex)

    def incident_ids(self, vertex: int) -> Iterator[int]:
        """Ids of edges incident to ``vertex``, in incidence order."""
        return iter(self._incident(vertex))

    def incident_items(self, vertex: int):
        """``(eid, other_endpoint)`` pairs, in incidence order.

        Served from the cached pair lists (see :meth:`neighbors` for the
        mutation-interleaving caveat).
        """
        self._incident(vertex)
        return iter(self.incidence_pairs()[vertex])

    def has_edge_between(self, u: int, v: int) -> bool:
        """True if at least one live edge joins ``u`` and ``v``."""
        if u not in self or v not in self:
            return False
        inc_u, inc_v = self._inc[u], self._inc[v]
        base, other = (u, v) if len(inc_u) <= len(inc_v) else (v, u)
        esum = self._esum
        return any(esum[eid] - base == other for eid in self._inc[base])

    def edges_between(self, u: int, v: int) -> Iterator[int]:
        """Ids of all (parallel) live edges joining ``u`` and ``v``."""
        if u not in self:
            return
        esum = self._esum
        for eid in self._inc[u]:
            if esum[eid] - u == v:
                yield eid

    def edge_endpoint_multiset(self) -> Dict[Tuple[int, int], int]:
        """Multiset of normalized endpoint pairs (structural equality)."""
        counts: Dict[Tuple[int, int], int] = {}
        for edge in self.edges():
            key = (edge.u, edge.v) if repr(edge.u) <= repr(edge.v) else (edge.v, edge.u)
            counts[key] = counts.get(key, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # mutation + undo log
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        """Mark the current undo-log position for :meth:`rollback`."""
        return len(self._undo)

    def add_vertex(self, vertex: int) -> int:
        """Add ``vertex`` if not live; return it."""
        _check_vertex_id(vertex)
        if vertex in self:
            return vertex
        self._grow_vertices(vertex + 1)
        self._vertex_alive[vertex] = 1
        # Mirror dict semantics: (re-)adding appends at the end.  A
        # revived tombstone moves from its original position, so record
        # that position (rare path) for byte-exact rollback.
        tomb_pos = None
        if vertex in self._vorder:
            tomb_pos = list(self._vorder).index(vertex)
            del self._vorder[vertex]
        self._vorder[vertex] = None
        self._n_alive += 1
        self._undo.append(("av", vertex, tomb_pos))
        self.version += 1
        return vertex

    def add_edge(self, u: int, v: int, eid: Optional[int] = None) -> int:
        """Add an edge ``{u, v}``; return its id.

        Mirrors :meth:`Graph.add_edge`: endpoints are created on demand,
        parallel edges are allowed, self-loops rejected, and an explicit
        unused ``eid`` may be supplied.
        """
        if u == v:
            raise SelfLoopError(u)
        if eid is None:
            eid = self.m_space
        elif self.has_edge_id(eid):
            raise ValueError(f"edge id {eid} already in use")
        elif eid < 0:
            raise InvalidInstanceError(f"negative edge id {eid}")
        self.add_vertex(u)
        self.add_vertex(v)
        self._grow_edges(eid + 1)
        # A reused id overwrites the dead slot's endpoints and moves its
        # order tombstone to the end; capture both for exact rollback.
        tomb_pos = None
        if eid in self._eorder:
            tomb_pos = list(self._eorder).index(eid)
            del self._eorder[eid]
        old_u, old_v = self._eu[eid], self._ev[eid]
        self._eu[eid] = u
        self._ev[eid] = v
        self._esum[eid] = u + v
        self._posu[eid] = len(self._inc[u])
        self._inc[u].append(eid)
        self._posv[eid] = len(self._inc[v])
        self._inc[v].append(eid)
        self._edge_alive[eid] = 1
        self._eorder[eid] = None
        self._m_alive += 1
        self._undo.append(("ae", eid, tomb_pos, old_u, old_v))
        self._dirty.append(u)
        self._dirty.append(v)
        self.version += 1
        return eid

    def _detach(self, eid: int, vertex: int, pos: int) -> None:
        """Swap-and-pop ``eid`` out of ``vertex``'s incidence list."""
        lst = self._inc[vertex]
        last = lst.pop()
        if last != eid:
            lst[pos] = last
            if self._eu[last] == vertex:
                self._posu[last] = pos
            else:
                self._posv[last] = pos

    def _attach_at(self, eid: int, vertex: int, pos: int) -> None:
        """Invert :meth:`_detach`: re-insert ``eid`` at ``pos`` exactly."""
        lst = self._inc[vertex]
        if pos == len(lst):
            lst.append(eid)
        else:
            moved = lst[pos]
            lst.append(moved)
            if self._eu[moved] == vertex:
                self._posu[moved] = len(lst) - 1
            else:
                self._posv[moved] = len(lst) - 1
            lst[pos] = eid
        if self._eu[eid] == vertex:
            self._posu[eid] = pos
        else:
            self._posv[eid] = pos

    def remove_edge(self, eid: int) -> Tuple[int, int]:
        """Remove edge ``eid`` in O(1); return its endpoints.

        The incidence slots are filled by swap-and-pop, so the *visible*
        incidence order of the endpoints is perturbed until a
        :meth:`rollback` past this operation restores it exactly.
        """
        if not self.has_edge_id(eid):
            raise EdgeNotFound(eid)
        u, v = self._eu[eid], self._ev[eid]
        pu, pv = self._posu[eid], self._posv[eid]
        self._detach(eid, u, pu)
        self._detach(eid, v, pv)
        self._edge_alive[eid] = 0
        self._m_alive -= 1
        self._undo.append(("re", eid, pu, pv))
        self._dirty.append(u)
        self._dirty.append(v)
        self.version += 1
        return (u, v)

    def remove_vertex(self, vertex: int) -> None:
        """Remove ``vertex`` and all incident edges (undo-logged)."""
        incident = self._incident(vertex)
        while incident:
            self.remove_edge(incident[-1])
        self._vertex_alive[vertex] = 0
        self._n_alive -= 1
        self._undo.append(("rv", vertex))
        self.version += 1

    def contract_edge(self, eid: int) -> int:
        """Contract edge ``eid`` in place; return the surviving vertex.

        The endpoint with the larger incidence list survives (ties keep
        the stored first endpoint).  The loser's edges are re-pointed at
        the survivor and appended to its incidence list; edges that
        would become self-loops are removed (the paper's ``G/e`` drops
        them).  O(deg(loser)), fully undone by :meth:`rollback`.
        """
        if not self.has_edge_id(eid):
            raise EdgeNotFound(eid)
        u, v = self._eu[eid], self._ev[eid]
        survivor, loser = (u, v) if len(self._inc[u]) >= len(self._inc[v]) else (v, u)
        self.remove_edge(eid)
        inc_loser = self._inc[loser]
        eu, ev, esum = self._eu, self._ev, self._esum
        while inc_loser:
            e = inc_loser[-1]
            other = esum[e] - loser
            if other == survivor:
                self.remove_edge(e)  # parallel edge becomes a self-loop
                continue
            # Re-point e's loser endpoint at the survivor.
            side = 0 if eu[e] == loser else 1
            pos = self._posu[e] if side == 0 else self._posv[e]
            self._detach(e, loser, pos)
            if side == 0:
                eu[e] = survivor
                self._posu[e] = len(self._inc[survivor])
            else:
                ev[e] = survivor
                self._posv[e] = len(self._inc[survivor])
            esum[e] = survivor + other
            self._inc[survivor].append(e)
            self._undo.append(("mv", e, side, loser, pos))
        self._vertex_alive[loser] = 0
        self._n_alive -= 1
        self._undo.append(("rv", loser))
        self._dirty.append(survivor)
        self.version += 1
        return survivor

    def rollback(self, mark: int) -> None:
        """Undo every mutation after :meth:`checkpoint`'s ``mark``.

        Restores alive bitsets, endpoint arrays and the *exact*
        incidence order that held at the checkpoint.
        """
        undo = self._undo
        if mark > len(undo):
            raise ValueError("rollback mark is ahead of the undo log")
        while len(undo) > mark:
            record = undo.pop()
            op = record[0]
            if op == "re":
                _, eid, pu, pv = record
                self._edge_alive[eid] = 1
                self._m_alive += 1
                self._attach_at(eid, self._eu[eid], pu)
                self._attach_at(eid, self._ev[eid], pv)
                self._dirty.append(self._eu[eid])
                self._dirty.append(self._ev[eid])
            elif op == "ae":
                _, eid, tomb_pos, old_u, old_v = record
                u, v = self._eu[eid], self._ev[eid]
                self._detach(eid, u, self._posu[eid])
                self._detach(eid, v, self._posv[eid])
                self._edge_alive[eid] = 0
                self._m_alive -= 1
                self._dirty.append(u)
                self._dirty.append(v)
                if tomb_pos is None:
                    # brand-new id: drop the order key entirely
                    self._eorder.pop(eid, None)
                else:
                    # reused id: restore the dead slot's endpoints and
                    # put the tombstone back where it was (rare path)
                    self._eu[eid] = old_u
                    self._ev[eid] = old_v
                    self._esum[eid] = old_u + old_v
                    keys = [k for k in self._eorder if k != eid]
                    keys.insert(tomb_pos, eid)
                    self._eorder = dict.fromkeys(keys)
            elif op == "mv":
                _, e, side, loser, pos = record
                survivor = self._eu[e] if side == 0 else self._ev[e]
                other = self._esum[e] - survivor
                self._detach(e, survivor, self._posu[e] if side == 0 else self._posv[e])
                if side == 0:
                    self._eu[e] = loser
                else:
                    self._ev[e] = loser
                self._esum[e] = loser + other
                self._attach_at(e, loser, pos)
            elif op == "av":
                _, vtx, tomb_pos = record
                self._vertex_alive[vtx] = 0
                self._n_alive -= 1
                if tomb_pos is None:
                    self._vorder.pop(vtx, None)
                else:
                    keys = [k for k in self._vorder if k != vtx]
                    keys.insert(tomb_pos, vtx)
                    self._vorder = dict.fromkeys(keys)
            elif op == "rv":
                vtx = record[1]
                self._vertex_alive[vtx] = 1
                self._n_alive += 1
                self._dirty.append(vtx)
            elif op == "wt":
                _, eid, old_wf, old_wi = record
                self._wf[eid] = old_wf
                self._wi[eid] = old_wi
            else:  # pragma: no cover - defensive
                raise AssertionError(f"unknown undo record {record!r}")
        self.version += 1

    # ------------------------------------------------------------------
    # edge weights (flat dual storage; see docs/guides/graphs.md)
    # ------------------------------------------------------------------
    def set_weight(self, eid: int, weight: float) -> None:
        """Set the weight of edge ``eid`` (undo-logged).

        The float64 value is stored in ``_wf``; when it is integral the
        exact integer dual goes into ``_wi`` (``None`` otherwise), so
        integer-weighted workloads keep exact arithmetic.  The update is
        rolled back by :meth:`rollback` like any structural mutation.
        """
        if not self.has_edge_id(eid):
            raise EdgeNotFound(eid)
        wf = float(weight)
        self._undo.append(("wt", eid, self._wf[eid], self._wi[eid]))
        self._wf[eid] = wf
        self._wi[eid] = int(wf) if wf.is_integer() else None

    def weight(self, eid: int) -> float:
        """The float64 weight of edge ``eid`` (0.0 if never set)."""
        if not self.has_edge_id(eid):
            raise EdgeNotFound(eid)
        return self._wf[eid]

    def load_weights(self, weights) -> None:
        """Bulk-load a ``{eid: weight}`` mapping (undo-logged per edge).

        Missing edges keep weight 0.0, mirroring ``tree_weight``'s
        ``weights.get(eid, 0.0)`` default on the object backend.
        """
        for eid, w in weights.items():
            if self.has_edge_id(eid):
                self.set_weight(eid, w)

    def total_weight(self, eids: Iterable[int]) -> float:
        """Float sum of the weights of ``eids``.

        Accumulates in the caller's iteration order starting from ``0``
        — the byte-identical twin of
        :func:`repro.core.optimum.tree_weight` on the same id sequence,
        which is what keeps ranked streams identical across backends.
        """
        total: float = 0  # int start, like sum(): the empty sum stays int 0
        wf = self._wf
        for eid in eids:
            total += wf[eid]
        return total

    def exact_total_weight(self, eids: Iterable[int]) -> Optional[int]:
        """Exact integer sum of the weights, or ``None`` if any weight
        in ``eids`` is non-integral (fall back to :meth:`total_weight`)."""
        total = 0
        wi = self._wi
        for eid in eids:
            w = wi[eid]
            if w is None:
                return None
            total += w
        return total

    # ------------------------------------------------------------------
    # derived graphs (returned as object graphs, like the protocol says)
    # ------------------------------------------------------------------
    def subgraph(self, vertices: Iterable[int]) -> Graph:
        """The induced subgraph ``G[U]`` as an object :class:`Graph`."""
        keep = set(vertices)
        g = Graph()
        for v in keep:
            if v not in self:
                raise VertexNotFound(v)
            g.add_vertex(v)
        eu, ev = self._eu, self._ev
        alive = self._edge_alive
        add = g.add_edge
        for eid in self._eorder:
            if alive[eid]:
                u = eu[eid]
                v = ev[eid]
                if u in keep and v in keep:
                    add(u, v, eid=eid)
        return g

    def edge_subgraph(self, eids: Iterable[int]) -> Graph:
        """The subgraph ``G[F]`` spanned by ``eids`` (object graph)."""
        g = Graph()
        for eid in eids:
            u, v = self.endpoints(eid)
            g.add_edge(u, v, eid=eid)
        return g

    def without_vertices(self, vertices: Iterable[int]) -> Graph:
        """``G[V \\ X]`` as an object :class:`Graph`."""
        drop = set(vertices)
        return self.subgraph(v for v in self.vertices() if v not in drop)

    def to_directed(self) -> DiGraph:
        """Directed version (arcs ``2e``/``2e+1``), as an object digraph."""
        d = DiGraph()
        for v in self.vertices():
            d.add_vertex(v)
        for edge in self.edges():
            d.add_arc(edge.u, edge.v, aid=2 * edge.eid)
            d.add_arc(edge.v, edge.u, aid=2 * edge.eid + 1)
        return d

    def as_graph(self) -> Graph:
        """Materialize the kernel back into an object :class:`Graph`."""
        g = Graph()
        for v in self.vertices():
            g.add_vertex(v)
        for edge in self.edges():
            g.add_edge(edge.u, edge.v, eid=edge.eid)
        return g

    def incidence_pairs(self) -> List[List[Tuple[int, int]]]:
        """Per-vertex ``(eid, other)`` tuples in incidence order, cached.

        The hot path enumerator iterates these instead of recomputing
        the opposite endpoint per visit.  The cache is invalidated by
        any mutation (``version`` bump) and rebuilt lazily in O(n+m).
        """
        if self._pairs is None or self._pairs_version != self.version:
            esum = self._esum
            self._pairs = [
                [(e, esum[e] - v) for e in lst] for v, lst in enumerate(self._inc)
            ]
            self._pairs_version = self.version
        return self._pairs

    def neighbor_lists(self) -> List[List[int]]:
        """Per-vertex neighbour lists in incidence order, cached.

        Multiedge neighbours repeat, exactly like :meth:`neighbors`.
        Used by reachability sweeps that never look at edge ids.
        """
        if self._nbrs is None or self._nbrs_version != self.version:
            esum = self._esum
            self._nbrs = [
                [esum[e] - v for e in lst] for v, lst in enumerate(self._inc)
            ]
            self._nbrs_version = self.version
        return self._nbrs

    def bit_rows(self) -> Tuple[List[int], List[int]]:
        """Per-vertex adjacency bit masks and degrees, cached.

        ``adj[v]`` has bit ``w`` set iff a live edge joins ``v`` and
        ``w``; ``deg[v]`` is the live degree (multiedges counted).  The
        bitset sweeps of :mod:`repro.paths.fastpaths` expand whole
        frontiers by OR-ing these rows.  Rebuilt lazily after any
        mutation; callers that patch a row must copy ``adj`` first.
        """
        if self._bits is None or self._bits_version != self.version:
            adj: List[int] = []
            deg: List[int] = []
            for row in self.neighbor_lists():
                acc = 0
                for w in row:
                    acc |= 1 << w
                adj.append(acc)
                deg.append(len(row))
            self._bits = (adj, deg)
            self._bits_version = self.version
        return self._bits

    def base_forest(self) -> List[int]:
        """Eids of the greedy spanning forest (no required edges), in
        scan order, cached per version; see :func:`fast_spanning_forest`
        for why every forced scan can be restricted to it."""
        if self._forest is None or self._forest_version != self.version:
            parent = list(range(self.n_space))
            chosen: List[int] = []
            eu, ev = self._eu, self._ev
            alive = self._edge_alive
            for eid in self._eorder:
                if not alive[eid]:
                    continue
                ru = eu[eid]
                while parent[ru] != ru:
                    parent[ru] = parent[parent[ru]]
                    ru = parent[ru]
                rv = ev[eid]
                while parent[rv] != rv:
                    parent[rv] = parent[parent[rv]]
                    rv = parent[rv]
                if ru != rv:
                    parent[ru] = rv
                    chosen.append(eid)
            self._forest = chosen
            self._forest_version = self.version
        return self._forest


# ----------------------------------------------------------------------
# directed kernel
# ----------------------------------------------------------------------
class FastDiGraph:
    """Array-backed directed multigraph over integer vertices.

    The directed counterpart of :class:`FastGraph`, compiled from a
    :class:`repro.graphs.digraph.DiGraph` with per-vertex out/in arc
    order preserved (insertion order defines the path enumerator's fixed
    arc order ``≺_v``).
    """

    __slots__ = (
        "n_space",
        "m_space",
        "_at",
        "_ah",
        "_out",
        "_in",
        "_vertex_alive",
        "_arc_alive",
        "_vorder",
        "_aorder",
        "_n_alive",
        "_m_alive",
        "_out_pairs",
        "_in_pairs",
        "_in_tails",
        "version",
        "_pairs_version",
        "_scratch",
    )

    def __init__(self) -> None:
        self.n_space = 0
        self.m_space = 0
        self._at: List[int] = []  # aid -> tail
        self._ah: List[int] = []  # aid -> head
        self._out: List[List[int]] = []
        self._in: List[List[int]] = []
        self._vertex_alive = bytearray()
        self._arc_alive = bytearray()
        self._vorder: Dict[int, None] = {}
        self._aorder: Dict[int, None] = {}
        self._n_alive = 0
        self._m_alive = 0
        self._out_pairs: Optional[List[List[Tuple[int, int]]]] = None
        self._in_pairs: Optional[List[List[Tuple[int, int]]]] = None
        self._in_tails: Optional[List[List[int]]] = None
        self.version = 0
        self._pairs_version = -1
        self._scratch: Optional[tuple] = None  # shared sweep buffers

    def arc_pairs(
        self,
    ) -> Tuple[
        List[List[Tuple[int, int]]],
        List[List[Tuple[int, int]]],
        List[List[int]],
    ]:
        """Cached per-vertex ``(aid, head)`` out-pairs, ``(aid, tail)``
        in-pairs, and plain in-tail lists (for id-free sweeps)."""
        if self._out_pairs is None or self._pairs_version != self.version:
            ah, at = self._ah, self._at
            self._out_pairs = [
                [(a, ah[a]) for a in lst] for lst in self._out
            ]
            self._in_pairs = [
                [(a, at[a]) for a in lst] for lst in self._in
            ]
            self._in_tails = [[at[a] for a in lst] for lst in self._in]
            self._pairs_version = self.version
        return self._out_pairs, self._in_pairs, self._in_tails

    @classmethod
    def from_digraph(
        cls, digraph: DiGraph, n_space: Optional[int] = None
    ) -> "FastDiGraph":
        """Compile an integer-vertex :class:`DiGraph` into a kernel."""
        fd = cls()
        max_v = -1
        for v in digraph.vertices():
            _check_vertex_id(v)
            if v > max_v:
                max_v = v
        space = max_v + 1 if n_space is None else n_space
        if max_v >= space:
            raise InvalidInstanceError(
                f"vertex id {max_v} exceeds requested space {space}"
            )
        fd._grow_vertices(space)
        for v in digraph.vertices():
            fd._vertex_alive[v] = 1
            fd._vorder[v] = None
            fd._n_alive += 1
        max_a = -1
        for aid in digraph.arc_ids():
            if aid < 0:
                raise InvalidInstanceError(f"negative arc id {aid}")
            if aid > max_a:
                max_a = aid
        fd._grow_arcs(max_a + 1)
        for aid in digraph.arc_ids():
            tail, head = digraph.arc_endpoints(aid)
            fd._at[aid] = tail
            fd._ah[aid] = head
            fd._arc_alive[aid] = 1
            fd._aorder[aid] = None
            fd._m_alive += 1
        for v in digraph.vertices():
            out_v = fd._out[v]
            for aid, _head in digraph.out_items(v):
                out_v.append(aid)
            in_v = fd._in[v]
            for aid, _tail in digraph.in_items(v):
                in_v.append(aid)
        return fd

    def _grow_vertices(self, space: int) -> None:
        if space <= self.n_space:
            return
        extra = space - self.n_space
        self._vertex_alive.extend(b"\x00" * extra)
        self._out.extend([] for _ in range(extra))
        self._in.extend([] for _ in range(extra))
        self.n_space = space

    def _grow_arcs(self, space: int) -> None:
        if space <= self.m_space:
            return
        extra = space - self.m_space
        self._at.extend([0] * extra)
        self._ah.extend([0] * extra)
        self._arc_alive.extend(b"\x00" * extra)
        self.m_space = space

    @property
    def num_vertices(self) -> int:
        """Number of live vertices."""
        return self._n_alive

    @property
    def num_arcs(self) -> int:
        """Number of live arcs."""
        return self._m_alive

    @property
    def size(self) -> int:
        """``n + m``."""
        return self._n_alive + self._m_alive

    def __contains__(self, vertex: object) -> bool:
        return (
            isinstance(vertex, int)
            and not isinstance(vertex, bool)
            and 0 <= vertex < self.n_space
            and bool(self._vertex_alive[vertex])
        )

    def __len__(self) -> int:
        return self._n_alive

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FastDiGraph n={self._n_alive} m={self._m_alive}>"

    def add_vertex(self, vertex: int) -> int:
        """Add ``vertex`` if not live; return it."""
        _check_vertex_id(vertex)
        if vertex in self:
            return vertex
        self._grow_vertices(vertex + 1)
        self._vertex_alive[vertex] = 1
        self._vorder.pop(vertex, None)
        self._vorder[vertex] = None
        self._n_alive += 1
        self.version += 1
        return vertex

    def add_arc(self, tail: int, head: int, aid: Optional[int] = None) -> int:
        """Add an arc ``tail -> head``; return its id."""
        if tail == head:
            raise SelfLoopError(tail)
        if aid is None:
            aid = self.m_space
        elif self.has_arc_id(aid):
            raise ValueError(f"arc id {aid} already in use")
        self.add_vertex(tail)
        self.add_vertex(head)
        self._grow_arcs(aid + 1)
        self._at[aid] = tail
        self._ah[aid] = head
        self._arc_alive[aid] = 1
        self._aorder.pop(aid, None)
        self._aorder[aid] = None
        self._out[tail].append(aid)
        self._in[head].append(aid)
        self._m_alive += 1
        self.version += 1
        return aid

    def vertices(self) -> Iterator[int]:
        """Iterate over live vertices in insertion order."""
        alive = self._vertex_alive
        for v in self._vorder:
            if alive[v]:
                yield v

    def arcs(self) -> Iterator[Arc]:
        """Iterate over live arcs in insertion order."""
        alive = self._arc_alive
        at, ah = self._at, self._ah
        for aid in self._aorder:
            if alive[aid]:
                yield Arc(aid, at[aid], ah[aid])

    def arc_ids(self) -> Iterator[int]:
        """Iterate over live arc ids in insertion order."""
        alive = self._arc_alive
        for aid in self._aorder:
            if alive[aid]:
                yield aid

    def has_arc_id(self, aid: int) -> bool:
        """True if a live arc with id ``aid`` exists."""
        return 0 <= aid < self.m_space and bool(self._arc_alive[aid])

    def arc_endpoints(self, aid: int) -> Tuple[int, int]:
        """``(tail, head)`` of arc ``aid``."""
        if not self.has_arc_id(aid):
            raise EdgeNotFound(aid)
        return (self._at[aid], self._ah[aid])

    def _check_vertex(self, vertex: int) -> int:
        if vertex not in self:
            raise VertexNotFound(vertex)
        return vertex

    def out_degree(self, vertex: int) -> int:
        """Number of outgoing arcs."""
        return len(self._out[self._check_vertex(vertex)])

    def in_degree(self, vertex: int) -> int:
        """Number of incoming arcs."""
        return len(self._in[self._check_vertex(vertex)])

    def out_items(self, vertex: int):
        """``(aid, head)`` pairs in the fixed order ``≺_v``."""
        ah = self._ah
        for aid in self._out[self._check_vertex(vertex)]:
            yield (aid, ah[aid])

    def in_items(self, vertex: int):
        """``(aid, tail)`` pairs of incoming arcs."""
        at = self._at
        for aid in self._in[self._check_vertex(vertex)]:
            yield (aid, at[aid])

    def out_arcs(self, vertex: int) -> Iterator[Arc]:
        """Outgoing arcs as :class:`Arc` records."""
        ah = self._ah
        for aid in self._out[self._check_vertex(vertex)]:
            yield Arc(aid, vertex, ah[aid])

    def in_arcs(self, vertex: int) -> Iterator[Arc]:
        """Incoming arcs as :class:`Arc` records."""
        at = self._at
        for aid in self._in[self._check_vertex(vertex)]:
            yield Arc(aid, at[aid], vertex)

    def out_neighbors(self, vertex: int) -> Iterator[int]:
        """Heads of outgoing arcs (multiplicity preserved)."""
        ah = self._ah
        for aid in self._out[self._check_vertex(vertex)]:
            yield ah[aid]

    def in_neighbors(self, vertex: int) -> Iterator[int]:
        """Tails of incoming arcs (multiplicity preserved)."""
        at = self._at
        for aid in self._in[self._check_vertex(vertex)]:
            yield at[aid]

    def is_source(self, vertex: int) -> bool:
        """True if ``vertex`` has no incoming arcs."""
        return not self._in[self._check_vertex(vertex)]

    def is_sink(self, vertex: int) -> bool:
        """True if ``vertex`` has no outgoing arcs."""
        return not self._out[self._check_vertex(vertex)]

    def arc(self, aid: int) -> Arc:
        """The :class:`Arc` record for ``aid``."""
        if not self.has_arc_id(aid):
            raise EdgeNotFound(aid)
        return Arc(aid, self._at[aid], self._ah[aid])

    def as_digraph(self) -> DiGraph:
        """Materialize back into an object :class:`DiGraph`."""
        d = DiGraph()
        for v in self.vertices():
            d.add_vertex(v)
        for arc in self.arcs():
            d.add_arc(arc.tail, arc.head, aid=arc.aid)
        return d


# ----------------------------------------------------------------------
# array algorithms over the kernel
# ----------------------------------------------------------------------
def _analysis(fg: FastGraph, name: str, compute, meter):
    """``compute(fg)`` memoised on the kernel per ``version``.

    ``compute`` returns ``(result, ops)``.  A hit charges ``meter`` the
    same ops in the same single tick as the run it replays, so op
    totals, op-budget stops and snapshots cannot tell the two apart.
    The result is shared between hits: callers must not mutate it.
    """
    cached = fg._analyses.get(name)
    if cached is not None and cached[0] == fg.version:
        _, ops, result = cached
    else:
        result, ops = compute(fg)
        fg._analyses[name] = (fg.version, ops, result)
    if meter is not None and ops:
        meter.tick(ops)
    return result


def fast_bridges(fg: FastGraph, meter=None) -> Set[int]:
    """Bridges of a kernel graph (iterative Tarjan, multiedge-aware).

    Returns the same edge-id set :func:`repro.graphs.bridges.find_bridges`
    produces on the equivalent object graph.  O(n + m) once per kernel
    ``version``; the set is shared, so callers must not mutate it.
    """
    return _analysis(fg, "bridges", _bridges, meter)


def _bridges(fg: FastGraph) -> Tuple[Set[int], int]:
    inc, esum = fg._inc, fg._esum
    valive = fg._vertex_alive
    n = fg.n_space
    index = [-1] * n
    low = [0] * n
    bridges: Set[int] = set()
    counter = 0
    ops = 0
    for root in range(n):
        if not valive[root] or index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        # frames: [vertex, entering eid, incidence position]
        stack: List[List[int]] = [[root, -1, 0]]
        while stack:
            frame = stack[-1]
            v, enter_eid = frame[0], frame[1]
            lst = inc[v]
            advanced = False
            pos = frame[2]
            while pos < len(lst):
                eid = lst[pos]
                pos += 1
                ops += 1
                if eid == enter_eid:
                    continue
                u = esum[eid] - v
                if index[u] < 0:
                    index[u] = low[u] = counter
                    counter += 1
                    frame[2] = pos
                    stack.append([u, eid, 0])
                    advanced = True
                    break
                if index[u] < low[v]:
                    low[v] = index[u]
            if not advanced:
                frame[2] = pos
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] > index[parent]:
                        bridges.add(enter_eid)
    return bridges, ops


def fast_component_labels(fg: FastGraph, meter=None) -> List[int]:
    """Connected-component label per vertex slot (-1 for dead slots).

    Memoised per kernel ``version`` like :func:`fast_bridges`; the list
    is shared, so callers must not mutate it.
    """
    return _analysis(fg, "components", _component_labels, meter)


def _component_labels(fg: FastGraph) -> Tuple[List[int], int]:
    inc, esum = fg._inc, fg._esum
    valive = fg._vertex_alive
    n = fg.n_space
    label = [-1] * n
    ops = 0
    next_label = 0
    for root in range(n):
        if not valive[root] or label[root] >= 0:
            continue
        label[root] = next_label
        stack = [root]
        while stack:
            v = stack.pop()
            for eid in inc[v]:
                ops += 1
                u = esum[eid] - v
                if label[u] < 0:
                    label[u] = next_label
                    stack.append(u)
        next_label += 1
    return label, ops


def fast_union_find(n: int) -> Tuple[List[int], Callable[[int], int]]:
    """A fresh array union-find: returns ``(parent, find)``."""
    parent = list(range(n))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    return parent, find


class ConnectivityIndex:
    """Incrementally maintained bridges + components of a kernel graph.

    Tracks the kernel's dirty-vertex log: a query after mutations
    recomputes bridges and component labels only inside the *affected
    region* (the current components containing a touched vertex, plus
    the prior members of their old components, so splits are caught).
    Components never touched since the last query keep their cached
    answers: a localized mutation batch costs a localized refresh
    instead of an O(n+m) recompute.

    This is substrate for in-place delete/contract/restore enumeration
    (see docs/guides/graphs.md); the current fast backends rebuild contracted
    kernels per node instead — they need the object backend's exact
    stream order, which in-place contraction's incidence-order
    perturbation would break.

    Single-consumer: the index drains the kernel's dirty log.
    """

    __slots__ = ("_fg", "_version", "_bridges", "_label", "_members", "_next_label")

    def __init__(self, fg: FastGraph) -> None:
        self._fg = fg
        self._version = -1
        self._bridges: Set[int] = set()
        self._label: List[int] = []
        self._members: Dict[int, List[int]] = {}
        self._next_label = 0

    def bridges(self) -> Set[int]:
        """The current bridge set (refreshing lazily)."""
        self._refresh()
        return self._bridges

    def component_id(self, vertex: int) -> int:
        """Stable-ish component label of ``vertex``."""
        self._refresh()
        if not (0 <= vertex < self._fg.n_space) or self._label[vertex] < 0:
            raise VertexNotFound(vertex)
        return self._label[vertex]

    def same_component(self, u: int, v: int) -> bool:
        """True if ``u`` and ``v`` are currently connected."""
        return self.component_id(u) == self.component_id(v)

    @property
    def num_components(self) -> int:
        """Number of connected components among live vertices."""
        self._refresh()
        return len(self._members)

    def _refresh(self) -> None:
        fg = self._fg
        if self._version == fg.version:
            return
        if self._version < 0 or len(self._label) != fg.n_space:
            self._full_recompute()
        else:
            dirty = [v for v in fg._dirty if v < len(self._label)]
            fg._dirty.clear()
            if not dirty:
                self._full_recompute()
            else:
                self._partial_recompute(dirty)
        self._version = fg.version

    def _full_recompute(self) -> None:
        fg = self._fg
        fg._dirty.clear()
        # Copies: the partial recompute edits both in place.
        self._bridges = set(fast_bridges(fg))
        label = list(fast_component_labels(fg))
        self._label = label
        members: Dict[int, List[int]] = {}
        for v, lab in enumerate(label):
            if lab >= 0:
                members.setdefault(lab, []).append(v)
        self._members = members
        self._next_label = len(members)

    def _partial_recompute(self, dirty: List[int]) -> None:
        fg = self._fg
        label = self._label
        valive = fg._vertex_alive
        # Seeds: touched vertices plus every prior member of their old
        # components (covers splits, where a fragment holds no dirty
        # vertex itself).
        seeds: List[int] = []
        seen_labels: Set[int] = set()
        for v in dirty:
            if v >= len(label):
                self._full_recompute()
                return
            old = label[v]
            if old >= 0 and old not in seen_labels:
                seen_labels.add(old)
                seeds.extend(self._members.get(old, ()))
            seeds.append(v)
        region: Set[int] = set()
        inc, esum = fg._inc, fg._esum
        stack: List[int] = []
        for s in seeds:
            if s in region or not (0 <= s < fg.n_space) or not valive[s]:
                continue
            region.add(s)
            stack.append(s)
            while stack:
                x = stack.pop()
                for eid in inc[x]:
                    y = esum[eid] - x
                    if y not in region:
                        region.add(y)
                        stack.append(y)
        # Drop cached facts about the region — including edges deleted
        # since the last refresh, which no incidence list mentions.
        alive = fg._edge_alive
        self._bridges = {e for e in self._bridges if alive[e]}
        discard = self._bridges.discard
        for v in region:
            for eid in inc[v]:
                discard(eid)
        for lab in seen_labels:
            self._members.pop(lab, None)
        for v in dirty:
            if 0 <= v < len(label):
                label[v] = -1
        # Relabel + re-run Tarjan inside the region only.
        assigned: Set[int] = set()
        for s in region:
            if s in assigned:
                continue
            lab = self._next_label
            self._next_label += 1
            comp: List[int] = []
            assigned.add(s)
            stack.append(s)
            while stack:
                x = stack.pop()
                label[x] = lab
                comp.append(x)
                for eid in inc[x]:
                    y = esum[eid] - x
                    if y not in assigned:
                        assigned.add(y)
                        stack.append(y)
            self._members[lab] = comp
        # Dead seeds may leave stale labels behind.
        for v in dirty:
            if 0 <= v < len(label) and not valive[v]:
                label[v] = -1
        self._bridges |= self._region_bridges(region)

    def _region_bridges(self, region: Set[int]) -> Set[int]:
        """Tarjan restricted to ``region`` (a union of whole components)."""
        fg = self._fg
        inc, esum = fg._inc, fg._esum
        index: Dict[int, int] = {}
        low: Dict[int, int] = {}
        bridges: Set[int] = set()
        counter = 0
        for root in region:
            if root in index:
                continue
            index[root] = low[root] = counter
            counter += 1
            stack: List[List[int]] = [[root, -1, 0]]
            while stack:
                frame = stack[-1]
                v, enter_eid = frame[0], frame[1]
                lst = inc[v]
                pos = frame[2]
                advanced = False
                while pos < len(lst):
                    eid = lst[pos]
                    pos += 1
                    if eid == enter_eid:
                        continue
                    u = esum[eid] - v
                    if u not in index:
                        index[u] = low[u] = counter
                        counter += 1
                        frame[2] = pos
                        stack.append([u, eid, 0])
                        advanced = True
                        break
                    if index[u] < low[v]:
                        low[v] = index[u]
                if not advanced:
                    frame[2] = pos
                    stack.pop()
                    if stack:
                        parent = stack[-1][0]
                        if low[v] < low[parent]:
                            low[parent] = low[v]
                        if low[v] > index[parent]:
                            bridges.add(enter_eid)
        return bridges


# ----------------------------------------------------------------------
# contraction builders (rebuild-style, order-compatible with the object
# backend's contract_edges / contract_vertex_set_directed)
# ----------------------------------------------------------------------
def contracted_kernel(
    fg: FastGraph, eids: Iterable[int], meter=None
) -> Tuple[FastGraph, List[int]]:
    """``G/F`` as a fresh kernel plus a vertex → component-id map.

    Mirrors :func:`repro.graphs.contraction.contract_edges`: surviving
    edges keep their ids and appear in the same global order, so path
    enumeration in the contracted kernel visits arcs in exactly the
    order it would in the object contraction (component labels are
    integers instead of :class:`SuperVertex`, which no order-sensitive
    step observes).
    """
    n = fg.n_space
    parent, find = fast_union_find(n)
    for eid in eids:
        if not fg.has_edge_id(eid):
            raise EdgeNotFound(eid)
        ru, rv = find(fg._eu[eid]), find(fg._ev[eid])
        if ru != rv:
            parent[ru] = rv
    label = [-1] * n
    ck = FastGraph()
    vmap = [-1] * n
    next_label = 0
    for v in fg.vertices():
        root = find(v)
        if label[root] < 0:
            label[root] = next_label
            next_label += 1
        vmap[v] = label[root]
    ck._grow_vertices(next_label)
    for c in range(next_label):
        ck._vertex_alive[c] = 1
        ck._vorder[c] = None
    ck._n_alive = next_label
    ck._grow_edges(fg.m_space)
    eu, ev = fg._eu, fg._ev
    ops = 0
    for eid in fg.edge_ids():
        ops += 1
        cu, cv = vmap[eu[eid]], vmap[ev[eid]]
        if cu == cv:
            continue
        ck._eu[eid] = cu
        ck._ev[eid] = cv
        ck._esum[eid] = cu + cv
        ck._edge_alive[eid] = 1
        ck._eorder[eid] = None
        ck._posu[eid] = len(ck._inc[cu])
        ck._inc[cu].append(eid)
        ck._posv[eid] = len(ck._inc[cv])
        ck._inc[cv].append(eid)
        ck._m_alive += 1
    if meter is not None and ops:
        meter.tick(ops)
    return ck, vmap


def contracted_kernel_weighted(
    fg: FastGraph, eids: Iterable[int], meter=None
) -> Tuple[FastGraph, List[int]]:
    """``G/F`` with parallel edges folded to their minimum weight.

    Weighted variant of :func:`contracted_kernel`: after contracting the
    components spanned by ``eids``, every parallel-edge bundle between
    the same component pair is replaced by its lightest member (ties
    broken by smallest edge id, so the fold is deterministic and the
    survivor's id is stable).  Self-loops vanish as usual.  This is the
    standard weighted-contraction step of Steiner lower-bound
    machinery: the folded kernel preserves lightest-connection
    distances, not the solution multiset, so the enumeration backends
    never use it implicitly.

    Surviving edges keep their ids and weights (exact integer duals
    included) and appear in global id order.
    """
    n = fg.n_space
    parent, find = fast_union_find(n)
    for eid in eids:
        if not fg.has_edge_id(eid):
            raise EdgeNotFound(eid)
        ru, rv = find(fg._eu[eid]), find(fg._ev[eid])
        if ru != rv:
            parent[ru] = rv
    label = [-1] * n
    vmap = [-1] * n
    next_label = 0
    for v in fg.vertices():
        root = find(v)
        if label[root] < 0:
            label[root] = next_label
            next_label += 1
        vmap[v] = label[root]
    # Pick the lightest representative per component pair.
    best: Dict[Tuple[int, int], Tuple[float, int]] = {}
    eu, ev, wf = fg._eu, fg._ev, fg._wf
    ops = 0
    for eid in fg.edge_ids():
        ops += 1
        cu, cv = vmap[eu[eid]], vmap[ev[eid]]
        if cu == cv:
            continue
        key = (cu, cv) if cu < cv else (cv, cu)
        cand = (wf[eid], eid)
        prior = best.get(key)
        if prior is None or cand < prior:
            best[key] = cand
    ck = FastGraph()
    ck._grow_vertices(next_label)
    for c in range(next_label):
        ck._vertex_alive[c] = 1
        ck._vorder[c] = None
    ck._n_alive = next_label
    ck._grow_edges(fg.m_space)
    keep = {eid for _w, eid in best.values()}
    for eid in fg.edge_ids():
        if eid not in keep:
            continue
        cu, cv = vmap[eu[eid]], vmap[ev[eid]]
        ck._eu[eid] = cu
        ck._ev[eid] = cv
        ck._esum[eid] = cu + cv
        ck._wf[eid] = wf[eid]
        ck._wi[eid] = fg._wi[eid]
        ck._edge_alive[eid] = 1
        ck._eorder[eid] = None
        ck._posu[eid] = len(ck._inc[cu])
        ck._inc[cu].append(eid)
        ck._posv[eid] = len(ck._inc[cv])
        ck._inc[cv].append(eid)
        ck._m_alive += 1
    if meter is not None and ops:
        meter.tick(ops)
    return ck, vmap


def contracted_kernel_directed(
    fd: FastDiGraph, vertices: Iterable[int], meter=None
) -> Tuple[FastDiGraph, List[int]]:
    """``D / X`` (vertex-set contraction) as a fresh directed kernel.

    Mirrors :func:`repro.graphs.contraction.contract_vertex_set_directed`
    with *identity-preserving* labels: vertices outside the group keep
    their ids (so terminal/uncovered membership tests in node analyses
    keep working on the contracted kernel), and the group collapses onto
    its smallest member.  Arcs inside the group vanish; all others keep
    their ids in global arc order.
    """
    group = set(vertices)
    if not group:
        raise ValueError("cannot contract an empty vertex set")
    rep = min(group)
    n = fd.n_space
    vmap = list(range(n))
    for v in group:
        vmap[v] = rep
    ck = FastDiGraph()
    ck._grow_vertices(n)
    alive = ck._vertex_alive
    for v in fd.vertices():
        c = vmap[v]
        if not alive[c]:
            alive[c] = 1
            ck._vorder[c] = None
            ck._n_alive += 1
    ck._grow_arcs(fd.m_space)
    at, ah = fd._at, fd._ah
    ops = 0
    for aid in fd.arc_ids():
        ops += 1
        ct, ch = vmap[at[aid]], vmap[ah[aid]]
        if ct == ch:
            continue
        ck._at[aid] = ct
        ck._ah[aid] = ch
        ck._arc_alive[aid] = 1
        ck._aorder[aid] = None
        ck._out[ct].append(aid)
        ck._in[ch].append(aid)
        ck._m_alive += 1
    if meter is not None and ops:
        meter.tick(ops)
    return ck, vmap


# ----------------------------------------------------------------------
# spanning / pruning / completion (array versions of repro.graphs.spanning)
# ----------------------------------------------------------------------
def fast_spanning_tree_edges(
    fg: FastGraph, required: Iterable[int] = (), meter=None
) -> Set[int]:
    """Edge ids of a maximal spanning forest containing ``required``.

    Same output set as :func:`repro.graphs.spanning.spanning_tree_edges`
    on the equivalent object graph (the greedy scan runs in the same
    global edge order).
    """
    return fast_spanning_forest(fg, required=required, meter=meter)[0]


def fast_prune_non_terminal_leaves(
    fg: FastGraph,
    tree_eids: Iterable[int],
    terminals: Iterable[int],
    protected: Iterable[int] = (),
    meter=None,
) -> Set[int]:
    """Strip non-terminal leaves from a forest until none remain.

    The fixed point is unique, so this matches
    :func:`repro.graphs.spanning.prune_non_terminal_leaves` exactly.
    Degrees and the single live edge of each near-leaf are kept in flat
    arrays (the edge is the XOR of incident ids, valid whenever the
    degree is 1), so no per-vertex incidence lists are built.
    """
    keep: Set[int] = set(tree_eids)
    keep_flag = set(terminals)
    keep_flag.update(protected)
    eu, esum = fg._eu, fg._esum
    n = fg.n_space
    deg = [0] * n
    exor = [0] * n
    touched: List[int] = []
    for eid in keep:
        u = eu[eid]
        v = esum[eid] - u
        if not deg[u]:
            touched.append(u)
        deg[u] += 1
        exor[u] ^= eid
        if not deg[v]:
            touched.append(v)
        deg[v] += 1
        exor[v] ^= eid
    removable = [v for v in touched if deg[v] == 1 and v not in keep_flag]
    ops = 0
    while removable:
        v = removable.pop()
        if deg[v] != 1:
            continue
        leaf_edge = exor[v]
        ops += 1
        keep.discard(leaf_edge)
        deg[v] = 0
        u = esum[leaf_edge] - v
        deg[u] -= 1
        exor[u] ^= leaf_edge
        if deg[u] == 1 and u not in keep_flag:
            removable.append(u)
    if meter is not None and ops:
        meter.tick(ops)
    return keep


def fast_spanning_forest(
    fg: FastGraph, required: Iterable[int] = (), meter=None
) -> Tuple[Set[int], List[int]]:
    """:func:`fast_spanning_tree_edges` plus its union-find parent array.

    The parent array answers same-component queries about the spanning
    forest for free (the completion helper uses it for the terminal
    connectivity check and the component restriction).

    The scan after ``required`` visits only :meth:`FastGraph.base_forest`.
    *Forcing lemma:* with distinct scan positions, any edge the forced
    greedy picks outside ``required`` lies in the base forest — if ``e``
    does not, every edge of the base-forest path joining its endpoints
    precedes ``e`` in the scan, and each leaves the forced run connected
    wherever it left the free run connected, so ``e``'s endpoints are
    already joined when ``e`` comes up.  Scanning ``required + base
    forest`` in the global order therefore yields the same chosen set
    and the same component partition as the full scan, at ``O(n)`` per
    call on a kernel that stays static between calls.
    """
    from repro.exceptions import NotATreeError

    parent = list(range(fg.n_space))
    chosen: Set[int] = set()
    eu, ev = fg._eu, fg._ev
    for eid in required:
        ru = eu[eid]
        while parent[ru] != ru:
            parent[ru] = parent[parent[ru]]
            ru = parent[ru]
        rv = ev[eid]
        while parent[rv] != rv:
            parent[rv] = parent[parent[rv]]
            rv = parent[rv]
        if ru == rv:
            raise NotATreeError("required edge set contains a cycle")
        parent[ru] = rv
        chosen.add(eid)
    forest = fg.base_forest()
    for eid in forest:
        if eid in chosen:
            continue
        ru = eu[eid]
        while parent[ru] != ru:
            parent[ru] = parent[parent[ru]]
            ru = parent[ru]
        rv = ev[eid]
        while parent[rv] != rv:
            parent[rv] = parent[parent[rv]]
            rv = parent[rv]
        if ru != rv:
            parent[ru] = rv
            chosen.add(eid)
    if meter is not None and forest:
        meter.tick(len(forest))
    return chosen, parent


def fast_minimal_steiner_completion(
    fg: FastGraph,
    terminals: Sequence[int],
    partial_eids: Iterable[int] = (),
    meter=None,
) -> Set[int]:
    """A minimal Steiner tree of ``(G, W)`` containing the partial tree.

    Array implementation of Lemma 13's constructive proof; produces the
    same edge set as
    :func:`repro.graphs.spanning.minimal_steiner_completion`.  The
    spanning union-find doubles as the connectivity check and the
    component filter (forest components and union-find components
    coincide), so no adjacency structure is ever built.
    """
    from repro.exceptions import NoSolutionError

    terminals = list(terminals)
    if not terminals:
        return set()
    tree, parent = fast_spanning_forest(fg, required=partial_eids, meter=meter)
    root = terminals[0]
    if root not in fg:
        if all(w == root for w in terminals):
            return set()
        raise NoSolutionError("terminals are not connected in the graph")
    rr = root
    while parent[rr] != rr:
        parent[rr] = parent[parent[rr]]
        rr = parent[rr]
    for w in terminals:
        rw = w
        while parent[rw] != rw:
            parent[rw] = parent[parent[rw]]
            rw = parent[rw]
        if rw != rr:
            raise NoSolutionError("terminals are not connected in the graph")
    eu = fg._eu
    restricted = set()
    for eid in tree:
        ru = eu[eid]
        while parent[ru] != ru:
            parent[ru] = parent[parent[ru]]
            ru = parent[ru]
        if ru == rr:
            restricted.add(eid)
    return fast_prune_non_terminal_leaves(fg, restricted, terminals, meter=meter)


# ----------------------------------------------------------------------
# backend selection helpers (re-exported by repro.core.backend)
# ----------------------------------------------------------------------
#: Recognized enumeration backends.
BACKENDS: Tuple[str, ...] = ("object", "fast")


def resolve_backend(backend: str) -> str:
    """Map a requested backend name to the backend that serves it.

    ``"vector"`` — the name of the retired third backend — is an alias
    of ``"fast"``, whose density rule picks the same bitset sweeps by
    itself.  Every place a backend name arrives (job specs, HTTP,
    the CLI, ``backend=`` keywords, snapshot and checkpoint headers)
    resolves it here, so nothing below sees the alias.
    """
    return "fast" if backend == "vector" else backend


def check_backend(
    backend: str, kind: Optional[str] = None, supported: Tuple[str, ...] = BACKENDS
) -> str:
    """Validate a backend name; returns the resolved name.

    Raises :class:`~repro.exceptions.UnsupportedBackendError` — the
    uniform rejection every ``backend=`` entry point shares — naming
    the enumerator ``kind`` when the caller supplies one.  Aliases are
    resolved first (:func:`resolve_backend`); callers must branch on
    the returned name.
    """
    resolved = resolve_backend(backend)
    if resolved not in supported:
        from repro.exceptions import UnsupportedBackendError

        raise UnsupportedBackendError(backend, supported, kind=kind)
    return resolved


def compile_undirected(
    graph, vec: bool = False
) -> Tuple["FastGraph", Optional[Dict[object, int]]]:
    """Compile an undirected instance into a kernel.

    Returns ``(kernel, index)`` where ``index`` maps original vertex
    labels to kernel ids, or ``None`` when the instance was already
    integer-compact (ids coincide) or already a kernel (returned as
    is).  Edge ids are preserved either way.  ``vec`` is accepted and
    ignored: the ``"vector"`` backend it used to select is an alias of
    ``"fast"``.
    """
    if isinstance(graph, FastGraph):
        return graph, None
    if is_integer_compact(graph):
        return FastGraph.from_graph(graph), None
    index: Dict[object, int] = {}
    fg = FastGraph()
    for v in graph.vertices():
        i = len(index)
        index[v] = i
        fg.add_vertex(i)
    for edge in graph.edges():
        fg.add_edge(index[edge.u], index[edge.v], eid=edge.eid)
    return fg, index


def compile_directed(digraph) -> Tuple["FastDiGraph", Optional[Dict[object, int]]]:
    """Compile a directed instance into a kernel (arc ids preserved)."""
    if isinstance(digraph, FastDiGraph):
        return digraph, None
    if is_integer_compact(digraph):
        return FastDiGraph.from_digraph(digraph), None
    index: Dict[object, int] = {}
    fd = FastDiGraph()
    for v in digraph.vertices():
        i = len(index)
        index[v] = i
        fd.add_vertex(i)
    for arc in digraph.arcs():
        fd.add_arc(index[arc.tail], index[arc.head], aid=arc.aid)
    return fd, index


def map_query_vertex(index: Optional[Dict[object, int]], vertex):
    """Translate one query vertex through a compile-time relabeling."""
    if index is None:
        return vertex
    try:
        return index[vertex]
    except KeyError:
        raise InvalidInstanceError(
            f"query vertex {vertex!r} is not in the instance"
        ) from None


def map_query_vertices(index: Optional[Dict[object, int]], vertices) -> list:
    """Translate a sequence of query vertices (list out)."""
    if index is None:
        return list(vertices)
    return [map_query_vertex(index, v) for v in vertices]
