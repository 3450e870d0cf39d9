"""Data graphs for keyword search (the paper's motivating application).

Kimelfeld and Sagiv's keyword-search systems model a database as a *data
graph*: structural nodes (tuples, XML elements, documents) connected by
edges, where each structural node carries a bag of keywords.  For a query
``K = {k1, ..., kt}`` one adds a *keyword node* per query keyword,
adjacent to every structural node containing that keyword; a
``K``-fragment is then a subtree containing all keyword nodes with no
proper subtree doing so — i.e. exactly a minimal Steiner tree whose
terminals are the keyword nodes:

* undirected ``K``-fragments  = minimal Steiner trees,
* strong ``K``-fragments      = minimal *terminal* Steiner trees
  (keyword nodes must stay leaves), and
* directed ``K``-fragments    = minimal *directed* Steiner trees.

:class:`DataGraph` holds the structural graph and the keyword index and
builds the augmented query graph; :mod:`repro.datagraph.kfragments` runs
the enumerators of :mod:`repro.core` on it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Sequence,
    Set,
    Tuple,
)

from repro.exceptions import InvalidInstanceError
from repro.graphs.digraph import DiGraph
from repro.graphs.fastgraph import resolve_backend
from repro.graphs.graph import Graph

Node = Hashable
Keyword = str


@dataclass(frozen=True)
class KeywordNode:
    """The query-time terminal node standing for one query keyword."""

    keyword: Keyword

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"kw:{self.keyword}"


class QueryGraph(NamedTuple):
    """Augmented graph for one keyword query.

    ``graph`` contains the structural graph plus one :class:`KeywordNode`
    terminal per query keyword; ``keyword_edge_ids`` lists the augmented
    edge ids so fragments can be projected back onto structural edges.
    """

    graph: Graph
    terminals: Tuple[KeywordNode, ...]
    keyword_edge_ids: FrozenSet[int]


class DirectedQueryGraph(NamedTuple):
    """Directed variant (for directed K-fragments): keyword nodes are
    sinks reachable from their containing structural nodes."""

    digraph: DiGraph
    terminals: Tuple[KeywordNode, ...]
    keyword_arc_ids: FrozenSet[int]


class CompiledQuery(NamedTuple):
    """A query graph relabeled to the integer-compact normal form.

    The enumeration layers run on ``graph`` (vertices ``0..n-1``, edge
    ids preserved, per-vertex incidence order preserved) — the
    precondition for the fast backend's byte-identical-stream guarantee,
    and also what makes the *object* backend's tie-breaks independent of
    keyword-label hashes.  Projection back to answers goes through
    ``query`` (edge ids are shared, so solutions need no translation).
    """

    graph: Graph
    terminals: Tuple[int, ...]
    keyword_edge_ids: FrozenSet[int]
    index: Dict[Node, int]
    query: QueryGraph
    #: eid -> (keyword, matched structural node) for every augmented
    #: edge, so per-fragment projection is a dict lookup instead of an
    #: endpoint inspection
    match_of: Dict[int, Tuple[str, Node]]
    #: the pre-compiled integer kernel of ``graph``; the fast enumerators
    #: are read-only over it, so every query stream (and every engine
    #: cache hit) reuses one compilation
    kernel: Any

    def instance(self, backend: str) -> Any:
        """The enumeration substrate for ``backend`` (aliases resolved)."""
        return self.kernel if resolve_backend(backend) == "fast" else self.graph


class CompiledDirectedQuery(NamedTuple):
    """Directed counterpart of :class:`CompiledQuery` (arc ids shared)."""

    digraph: DiGraph
    terminals: Tuple[int, ...]
    keyword_arc_ids: FrozenSet[int]
    index: Dict[Node, int]
    query: DirectedQueryGraph
    #: pre-compiled :class:`FastDiGraph` (see :class:`CompiledQuery`)
    kernel: Any

    def instance(self, backend: str) -> Any:
        """The enumeration substrate for ``backend`` (aliases resolved)."""
        return self.kernel if resolve_backend(backend) == "fast" else self.digraph


def compile_query(query: QueryGraph) -> CompiledQuery:
    """Relabel ``query.graph`` to integer-compact form (ids preserved).

    Vertices are numbered in iteration (insertion) order; edges are
    re-added in insertion order with their original ids, so per-vertex
    incidence order — the order every order-sensitive traversal follows
    — is identical to the source's.
    """
    g = query.graph
    index: Dict[Node, int] = {}
    compact = Graph()
    for v in g.vertices():
        index[v] = len(index)
        compact.add_vertex(index[v])
    for edge in g.edges():
        compact.add_edge(index[edge.u], index[edge.v], eid=edge.eid)
    match_of: Dict[int, Tuple[str, Node]] = {}
    for eid in query.keyword_edge_ids:
        u, v = g.endpoints(eid)
        terminal, node = (u, v) if isinstance(u, KeywordNode) else (v, u)
        match_of[eid] = (terminal.keyword, node)
    from repro.graphs.fastgraph import FastGraph

    return CompiledQuery(
        compact,
        tuple(index[t] for t in query.terminals),
        query.keyword_edge_ids,
        index,
        query,
        match_of,
        FastGraph.from_graph(compact),
    )


def compile_directed_query(query: DirectedQueryGraph) -> CompiledDirectedQuery:
    """Relabel a directed query graph to integer-compact form."""
    d = query.digraph
    index: Dict[Node, int] = {}
    compact = DiGraph()
    for v in d.vertices():
        index[v] = len(index)
        compact.add_vertex(index[v])
    for arc in d.arcs():
        compact.add_arc(index[arc.tail], index[arc.head], aid=arc.aid)
    from repro.graphs.fastgraph import FastDiGraph

    return CompiledDirectedQuery(
        compact,
        tuple(index[t] for t in query.terminals),
        query.keyword_arc_ids,
        index,
        query,
        FastDiGraph.from_digraph(compact),
    )


class DataGraph:
    """A structural graph whose nodes carry keyword sets.

    Examples
    --------
    >>> dg = DataGraph()
    >>> dg.add_node("paper1", keywords=["steiner", "enumeration"])
    'paper1'
    >>> dg.add_node("paper2", keywords=["keyword", "search"])
    'paper2'
    >>> _ = dg.add_link("paper1", "paper2")
    >>> sorted(dg.nodes_with_keyword("steiner"))
    ['paper1']
    """

    #: compiled-query cache capacity per data graph (FIFO eviction)
    COMPILE_CACHE_SIZE = 128

    def __init__(self) -> None:
        self.graph = Graph()
        self._keywords_of: Dict[Node, Set[Keyword]] = {}
        self._nodes_of: Dict[Keyword, Set[Node]] = {}
        self._version = 0
        self._compiled: Dict[Tuple[Keyword, ...], Tuple[int, CompiledQuery]] = {}
        self._compiled_directed: Dict[
            Tuple[Keyword, ...], Tuple[int, CompiledDirectedQuery]
        ] = {}

    def _mutated(self) -> None:
        """Bump the version and drop now-stale compiled queries (each
        pins a full graph + kernel copy; capacity eviction alone would
        free them one at a time)."""
        self._version += 1
        if self._compiled:
            self._compiled.clear()
        if self._compiled_directed:
            self._compiled_directed.clear()

    # ------------------------------------------------------------------
    def add_node(self, node: Node, keywords: Iterable[Keyword] = ()) -> Node:
        """Add a structural node with an optional keyword bag."""
        self.graph.add_vertex(node)
        bag = self._keywords_of.setdefault(node, set())
        for kw in keywords:
            bag.add(kw)
            self._nodes_of.setdefault(kw, set()).add(node)
        self._mutated()
        return node

    def add_keywords(self, node: Node, keywords: Iterable[Keyword]) -> None:
        """Attach more keywords to an existing node."""
        if node not in self.graph:
            raise InvalidInstanceError(f"node {node!r} is not in the data graph")
        for kw in keywords:
            self._keywords_of[node].add(kw)
            self._nodes_of.setdefault(kw, set()).add(node)
        self._mutated()

    def add_link(self, a: Node, b: Node) -> int:
        """Add a structural edge; missing endpoints are created."""
        for v in (a, b):
            if v not in self.graph:
                self.add_node(v)
        self._mutated()
        return self.graph.add_edge(a, b)

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of structural nodes."""
        return self.graph.num_vertices

    @property
    def num_links(self) -> int:
        """Number of structural edges."""
        return self.graph.num_edges

    def keywords_of(self, node: Node) -> FrozenSet[Keyword]:
        """The keyword bag of ``node``."""
        return frozenset(self._keywords_of.get(node, ()))

    def nodes_with_keyword(self, keyword: Keyword) -> FrozenSet[Node]:
        """All structural nodes carrying ``keyword``."""
        return frozenset(self._nodes_of.get(keyword, ()))

    def vocabulary(self) -> FrozenSet[Keyword]:
        """All keywords present in the data graph."""
        return frozenset(self._nodes_of)

    # ------------------------------------------------------------------
    def query_graph(self, keywords: Sequence[Keyword]) -> QueryGraph:
        """Build the augmented graph for query ``K`` (undirected/strong).

        Raises :class:`InvalidInstanceError` if a query keyword occurs
        nowhere (no fragment can exist, and silently returning nothing
        would mask typos).
        """
        distinct = list(dict.fromkeys(keywords))
        if not distinct:
            raise InvalidInstanceError("a query needs at least one keyword")
        g = self.graph.copy()
        terminals: List[KeywordNode] = []
        aug_ids: Set[int] = set()
        for kw in distinct:
            holders = self._nodes_of.get(kw)
            if not holders:
                raise InvalidInstanceError(f"keyword {kw!r} matches no node")
            terminal = KeywordNode(kw)
            g.add_vertex(terminal)
            terminals.append(terminal)
            for node in sorted(holders, key=repr):
                aug_ids.add(g.add_edge(terminal, node))
        return QueryGraph(g, tuple(terminals), frozenset(aug_ids))

    def directed_query_graph(
        self, keywords: Sequence[Keyword], root: Node
    ) -> Tuple[DirectedQueryGraph, Node]:
        """Directed variant: structural edges become arc pairs, keyword
        nodes become sinks, and fragments must be rooted at ``root``."""
        if root not in self.graph:
            raise InvalidInstanceError(f"root {root!r} is not in the data graph")
        distinct = list(dict.fromkeys(keywords))
        if not distinct:
            raise InvalidInstanceError("a query needs at least one keyword")
        d = self.graph.to_directed()
        terminals: List[KeywordNode] = []
        aug_ids: Set[int] = set()
        next_aid = 2 * (max(self.graph.edge_ids(), default=-1) + 1)
        for kw in distinct:
            holders = self._nodes_of.get(kw)
            if not holders:
                raise InvalidInstanceError(f"keyword {kw!r} matches no node")
            terminal = KeywordNode(kw)
            d.add_vertex(terminal)
            terminals.append(terminal)
            for node in sorted(holders, key=repr):
                d.add_arc(node, terminal, aid=next_aid)
                aug_ids.add(next_aid)
                next_aid += 1
        return (
            DirectedQueryGraph(d, tuple(terminals), frozenset(aug_ids)),
            root,
        )

    # ------------------------------------------------------------------
    # compiled (integer-compact) queries, cached per keyword set
    # ------------------------------------------------------------------
    def has_compiled_query(self, keywords: Sequence[Keyword]) -> bool:
        """True when :meth:`compiled_query` would hit its memo (same
        keyword set, no mutation since).  The serving layer reports this
        in answer provenance so operators can see cache warmth."""
        key = tuple(dict.fromkeys(keywords))
        hit = self._compiled.get(key)
        return hit is not None and hit[0] == self._version

    def compiled_query(self, keywords: Sequence[Keyword]) -> CompiledQuery:
        """:func:`compile_query` of :meth:`query_graph`, memoized.

        The cache key is the distinct-keyword tuple; entries are
        invalidated whenever the data graph mutates (every ``add_*``
        bumps an internal version).  Long-lived engines re-running the
        same query — the engine cache-hit path — skip both the augmented
        graph build and the relabeling.
        """
        key = tuple(dict.fromkeys(keywords))
        hit = self._compiled.get(key)
        if hit is not None and hit[0] == self._version:
            return hit[1]
        compiled = compile_query(self.query_graph(key))
        if key not in self._compiled and len(self._compiled) >= self.COMPILE_CACHE_SIZE:
            self._compiled.pop(next(iter(self._compiled)))
        self._compiled[key] = (self._version, compiled)
        return compiled

    def compiled_directed_query(
        self, keywords: Sequence[Keyword], root: Node
    ) -> Tuple[CompiledDirectedQuery, int]:
        """Memoized :func:`compile_directed_query`; returns the compiled
        query plus the root's integer id.  The cache is root-independent
        (the augmented digraph does not depend on the root)."""
        if root not in self.graph:
            raise InvalidInstanceError(f"root {root!r} is not in the data graph")
        key = tuple(dict.fromkeys(keywords))
        hit = self._compiled_directed.get(key)
        if hit is not None and hit[0] == self._version:
            compiled = hit[1]
        else:
            query, _root = self.directed_query_graph(key, root)
            compiled = compile_directed_query(query)
            if (
                key not in self._compiled_directed
                and len(self._compiled_directed) >= self.COMPILE_CACHE_SIZE
            ):
                self._compiled_directed.pop(next(iter(self._compiled_directed)))
            self._compiled_directed[key] = (self._version, compiled)
        return compiled, compiled.index[root]


def synthetic_data_graph(
    num_nodes: int,
    extra_links: int,
    vocabulary_size: int,
    keywords_per_node: int,
    seed: int,
) -> DataGraph:
    """A deterministic synthetic data graph with Zipf-ish keyword skew.

    The structural graph is a random connected graph; keyword ``k_i`` is
    assigned with probability proportional to ``1/(i+1)``, approximating
    the skewed term-frequency distributions of real corpora (DESIGN.md §5
    documents this as the stand-in for the proprietary data graphs used by
    the keyword-search systems the paper cites).
    """
    from repro.graphs.generators import random_connected_graph

    rng = random.Random(seed)
    base = random_connected_graph(num_nodes, extra_links, seed)
    vocabulary = [f"kw{i}" for i in range(vocabulary_size)]
    weights = [1.0 / (i + 1) for i in range(vocabulary_size)]
    dg = DataGraph()
    for v in base.vertices():
        picks = rng.choices(vocabulary, weights=weights, k=keywords_per_node)
        dg.add_node(v, keywords=picks)
    for edge in base.edges():
        dg.add_link(edge.u, edge.v)
    return dg
